//! Theorem 2.1 — the expected point as a 1-center.
//!
//! For uncertain points `P₁..P_n` in Euclidean space, the expected point
//! `P̄₁` of *any single one of them* is a 2-approximate 1-center for the
//! whole set:
//!
//! ```text
//! Ecost(P̄₁) ≤ 2·Ecost(c*)        (paper Theorem 2.1)
//! ```
//!
//! computable in O(z) — independent of `n`. The module also provides the
//! numeric reference optimum used to measure the actual ratio in
//! experiment E1.

use ukc_geometry::pattern_search::{pattern_search, PatternSearchOptions};
use ukc_metric::{Euclidean, Point, StoreOracle};
use ukc_uncertain::{ecost_unassigned, expected_point, UncertainSet};

/// Theorem 2.1: returns `(P̄_anchor, exact Ecost of it)` where the anchor
/// is the uncertain point whose expected point is used (the paper uses
/// `P₁`; any index is valid and the bound holds for each).
///
/// Runs in O(z) for the construction plus O(N log N) for the exact cost
/// report.
///
/// # Panics
/// Panics when `anchor >= set.n()`.
pub fn expected_point_one_center(set: &UncertainSet<Point>, anchor: usize) -> (Point, f64) {
    assert!(anchor < set.n(), "anchor out of range");
    let center = expected_point(set.point(anchor));
    // Cost sweep over the set's contiguous realization store. Its
    // single-center sweeps keep the exact summation order of the
    // pointwise metric, so this reports bit-identical costs to the
    // historical implementation.
    // The per-call store build is O(N·d), strictly below the O(N log N)
    // exact-cost sweep it feeds, so rebuilding per anchor stays cheap.
    let (mut store, set_ids) = set.indexed_store(1);
    let center_id = store.push_point(&center);
    let oracle = StoreOracle::new(&store);
    let cost = ecost_unassigned(&set_ids, std::slice::from_ref(&center_id), &oracle);
    (center, cost)
}

/// Numeric reference 1-center: minimizes the exact `Ecost(c)` over
/// `c ∈ ℝ^d` by multi-start compass search. `Ecost` is convex in `c`
/// (a max/expectation of convex functions), so compass search converges to
/// the global optimum; multi-start guards against slow progress from a bad
/// scale guess.
///
/// Returns `(c*, Ecost(c*))`. Intended for experiments, not hot paths:
/// every probe costs an exact `E[max]` evaluation.
pub fn reference_one_center(set: &UncertainSet<Point>) -> (Point, f64) {
    let starts: Vec<Point> = {
        let mut v = Vec::with_capacity(set.n().min(4) + 1);
        // Start from a few expected points and the centroid of them.
        for i in 0..set.n().min(4) {
            v.push(expected_point(set.point(i)));
        }
        let dim = v[0].dim();
        let mut mean = Point::origin(dim);
        for p in &v {
            mean.add_scaled_in_place(1.0 / v.len() as f64, p);
        }
        v.push(mean);
        v
    };
    // Scale the initial step to the data spread.
    let spread = {
        let mut lo = vec![f64::INFINITY; starts[0].dim()];
        let mut hi = vec![f64::NEG_INFINITY; starts[0].dim()];
        for up in set {
            for loc in up.locations() {
                for (i, &c) in loc.coords().iter().enumerate() {
                    lo[i] = lo[i].min(c);
                    hi[i] = hi[i].max(c);
                }
            }
        }
        lo.iter()
            .zip(hi.iter())
            .map(|(l, h)| h - l)
            .fold(0.0f64, f64::max)
            .max(1e-6)
    };
    let opts = PatternSearchOptions {
        initial_step: spread / 2.0,
        min_step: 1e-8 * spread,
        max_evals: 200_000,
    };
    let mut best: Option<(Point, f64)> = None;
    for s in &starts {
        let (x, fx) = pattern_search(
            |c| ecost_unassigned(set, std::slice::from_ref(c), &Euclidean),
            s,
            opts,
        );
        if best.as_ref().is_none_or(|(_, bf)| fx < *bf) {
            best = Some((x, fx));
        }
    }
    best.expect("at least one start")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_uncertain::generators::{clustered, two_scale, uniform_box, ProbModel};

    #[test]
    fn theorem_2_1_factor_two_holds() {
        for seed in 0..8u64 {
            let set = uniform_box(seed, 6, 3, 2, 10.0, 2.0, ProbModel::Random);
            let (_, alg) = expected_point_one_center(&set, 0);
            let (_, opt) = reference_one_center(&set);
            assert!(opt <= alg + 1e-9, "reference must not exceed the algorithm");
            assert!(
                alg <= 2.0 * opt + 1e-6,
                "seed {seed}: alg {alg} > 2 x opt {opt}"
            );
        }
    }

    #[test]
    fn factor_two_holds_for_every_anchor() {
        let set = clustered(3, 5, 4, 2, 2, 3.0, 1.0, ProbModel::HeavyTail);
        let (_, opt) = reference_one_center(&set);
        for anchor in 0..set.n() {
            let (_, alg) = expected_point_one_center(&set, anchor);
            assert!(alg <= 2.0 * opt + 1e-6, "anchor {anchor}: {alg} vs {opt}");
        }
    }

    #[test]
    fn adversarial_two_scale_still_within_two() {
        for seed in 0..5u64 {
            let set = two_scale(seed, 5, 3, 2, 0.5, 50.0, 0.2);
            let (_, alg) = expected_point_one_center(&set, 0);
            let (_, opt) = reference_one_center(&set);
            assert!(alg <= 2.0 * opt + 1e-6, "seed {seed}: {alg} vs {opt}");
        }
    }

    #[test]
    fn single_certain_point_is_exact() {
        use ukc_uncertain::UncertainPoint;
        let set = UncertainSet::new(vec![UncertainPoint::certain(Point::new(vec![3.0, 4.0]))]);
        let (c, cost) = expected_point_one_center(&set, 0);
        assert_eq!(c.coords(), &[3.0, 4.0]);
        assert!(cost.abs() < 1e-12);
    }

    #[test]
    fn reference_beats_or_ties_all_expected_points() {
        let set = uniform_box(9, 5, 3, 2, 10.0, 1.0, ProbModel::Random);
        let (_, opt) = reference_one_center(&set);
        for anchor in 0..set.n() {
            let (_, alg) = expected_point_one_center(&set, anchor);
            assert!(opt <= alg + 1e-9);
        }
    }
}
