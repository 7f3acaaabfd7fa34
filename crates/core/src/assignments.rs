//! The paper's three assignment rules.
//!
//! In the assigned versions of the problem every uncertain point is served
//! by one center across all realizations. The paper studies three rules for
//! picking that center:
//!
//! * **expected distance** (`ED`, from Wang & Zhang \[26\]):
//!   `ED(Pᵢ) = argmin_c Σⱼ pᵢⱼ·d(Pᵢⱼ, c)` — works in any metric space;
//! * **expected point** (`EP`, new in the paper, Euclidean only):
//!   `EP(Pᵢ) = argmin_c d(P̄ᵢ, c)`;
//! * **1-center** (`OC`, new in the paper, any metric space):
//!   `OC(Pᵢ) = argmin_c d(P̃ᵢ, c)`.
//!
//! All three return, for each point, the index of its assigned center;
//! ties break toward the lower center index (deterministic output).

use ukc_metric::{DistanceOracle, Point, PAR_CHUNK, PAR_MIN_POINTS};
use ukc_pool::Exec;
use ukc_uncertain::{expected_distance, expected_point, UncertainSet};

/// The paper's assignment rules. ED and OC are defined in every metric
/// space (Theorems 2.3, 2.6, 2.7); EP needs expected points, so it is
/// Euclidean only (Theorems 2.2, 2.4, 2.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssignmentRule {
    /// Assign to the center with the smallest expected distance.
    ExpectedDistance,
    /// Assign to the center nearest the expected point `P̄`.
    ExpectedPoint,
    /// Assign to the center nearest the 1-center `P̃` (also valid in
    /// Euclidean space; primarily used for the ablation studies).
    OneCenter,
}

/// One point's ED argmin: `argmin_c (E d(Pᵢ, c) − w_c)`, ties to the
/// lower index. Without weights `w_c` is `0.0`, and `x − 0.0 == x`
/// exactly, so the plain rule makes the same comparisons bit for bit.
fn ed_argmin<P, M: DistanceOracle<P>>(
    up: &ukc_uncertain::UncertainPoint<P>,
    centers: &[P],
    weights: Option<&[f64]>,
    metric: &M,
) -> usize {
    let mut best = 0usize;
    let mut best_v = f64::INFINITY;
    for (c, center) in centers.iter().enumerate() {
        let v = expected_distance(up, center, metric) - weights.map_or(0.0, |w| w[c]);
        if v < best_v {
            best_v = v;
            best = c;
        }
    }
    best
}

/// Expected-distance assignment: each point goes to
/// `argmin_c E d(Pᵢ, c)`, or with additive center `weights` to
/// `argmin_c (E d(Pᵢ, c) − w_c)`. O(n·z·k) distance evaluations either
/// way. Points are assigned in block-parallel chunks on `exec`
/// ([`Exec::sequential`] runs one loop). Each point's argmin is computed
/// by the exact sequential arithmetic, so the assignment — and the
/// distance-eval count — is identical for every `exec`.
///
/// # Panics
/// Panics when `centers` is empty or `weights` has a length other than
/// `centers.len()`.
pub fn assign_ed<P: Sync, M: DistanceOracle<P> + Sync>(
    set: &UncertainSet<P>,
    centers: &[P],
    weights: Option<&[f64]>,
    metric: &M,
    exec: Exec<'_>,
) -> Vec<usize> {
    assert!(!centers.is_empty(), "need at least one center");
    if let Some(w) = weights {
        assert_eq!(w.len(), centers.len(), "one weight per center");
    }
    if !exec.is_parallel() || set.n() < PAR_MIN_POINTS {
        return set
            .iter()
            .map(|up| ed_argmin(up, centers, weights, metric))
            .collect();
    }
    let mut out = vec![0usize; set.n()];
    ukc_pool::for_each_slice(exec, &mut out, PAR_CHUNK, |start, slice| {
        for (j, o) in slice.iter_mut().enumerate() {
            *o = ed_argmin(&set[start + j], centers, weights, metric);
        }
    });
    out
}

/// Expected-point assignment: each point goes to the center nearest its
/// expected point `P̄ᵢ`. O(n·(z + k)).
///
/// # Panics
/// Panics when `centers` is empty.
pub fn assign_ep<M: DistanceOracle<Point>>(
    set: &UncertainSet<Point>,
    centers: &[Point],
    metric: &M,
) -> Vec<usize> {
    assert!(!centers.is_empty(), "need at least one center");
    set.iter()
        .map(|up| {
            let pbar = expected_point(up);
            metric.nearest(&pbar, centers).expect("non-empty centers").0
        })
        .collect()
}

/// 1-center assignment: each point goes to the center nearest its 1-center
/// representative `P̃ᵢ`. The representatives are passed in because their
/// construction differs by space (Weiszfeld in Euclidean, discrete 1-median
/// in finite metrics) and they are typically already computed by the solver
/// pipeline.
///
/// # Panics
/// Panics when `centers` is empty or `reps.len() != set.n()`.
pub fn assign_oc<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    reps: &[P],
    metric: &M,
) -> Vec<usize> {
    assert!(!centers.is_empty(), "need at least one center");
    assert_eq!(reps.len(), set.n(), "one representative per point required");
    // The batched nearest sweep: a pool-backed oracle parallelizes it
    // across representatives with identical output and eval counts.
    let mut nearest = vec![(0usize, 0.0f64); reps.len()];
    metric.nearest_each(reps, centers, None, &mut nearest);
    nearest.into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_metric::Euclidean;
    use ukc_uncertain::{one_center_euclidean, UncertainPoint};

    fn set_two_groups() -> UncertainSet<Point> {
        UncertainSet::new(vec![
            UncertainPoint::new(vec![Point::scalar(0.0), Point::scalar(2.0)], vec![0.5, 0.5])
                .unwrap(),
            UncertainPoint::new(
                vec![Point::scalar(10.0), Point::scalar(12.0)],
                vec![0.5, 0.5],
            )
            .unwrap(),
        ])
    }

    #[test]
    fn ed_assigns_to_nearest_in_expectation() {
        let s = set_two_groups();
        let centers = vec![Point::scalar(1.0), Point::scalar(11.0)];
        assert_eq!(
            assign_ed(&s, &centers, None, &Euclidean, Exec::sequential()),
            vec![0, 1]
        );
    }

    #[test]
    fn ep_assigns_via_expected_point() {
        let s = set_two_groups();
        let centers = vec![Point::scalar(1.0), Point::scalar(11.0)];
        assert_eq!(assign_ep(&s, &centers, &Euclidean), vec![0, 1]);
    }

    #[test]
    fn oc_assigns_via_representatives() {
        let s = set_two_groups();
        let centers = vec![Point::scalar(1.0), Point::scalar(11.0)];
        let reps: Vec<Point> = s.iter().map(one_center_euclidean).collect();
        assert_eq!(assign_oc(&s, &centers, &reps, &Euclidean), vec![0, 1]);
    }

    #[test]
    fn ed_and_ep_can_disagree() {
        // A point whose expected point is near center A, but whose expected
        // distance is smaller to center B: mass split between two far
        // locations; EP looks at the centroid, ED at the realizations.
        let up = UncertainPoint::new(
            vec![Point::new(vec![-10.0, 0.0]), Point::new(vec![10.0, 0.0])],
            vec![0.5, 0.5],
        )
        .unwrap();
        let s = UncertainSet::new(vec![up]);
        // Center A at the centroid (origin), center B at one location.
        let centers = vec![Point::new(vec![0.0, 0.1]), Point::new(vec![10.0, 0.0])];
        let ep = assign_ep(&s, &centers, &Euclidean);
        assert_eq!(ep, vec![0], "EP must pick the centroid-adjacent center");
        // E d to A ≈ 10.0; E d to B = 0.5*20 + 0 = 10.0 — construct a
        // sharper case: move B slightly toward the midpoint.
        let centers2 = vec![Point::new(vec![0.0, 5.0]), Point::new(vec![9.0, 0.0])];
        let ed = assign_ed(&s, &centers2, None, &Euclidean, Exec::sequential());
        let ep2 = assign_ep(&s, &centers2, &Euclidean);
        // E d to A = sqrt(125) ≈ 11.18; E d to B = 0.5*19 + 0.5*1 = 10.
        assert_eq!(ed, vec![1]);
        // d(P̄, A) = 5 < d(P̄, B) = 9.
        assert_eq!(ep2, vec![0]);
    }

    #[test]
    fn weighted_ed_with_zero_weights_matches_plain_and_weight_flips_winner() {
        let s = set_two_groups();
        let centers = vec![Point::scalar(1.0), Point::scalar(11.0)];
        let zeros = vec![0.0; centers.len()];
        assert_eq!(
            assign_ed(&s, &centers, Some(&zeros), &Euclidean, Exec::sequential()),
            assign_ed(&s, &centers, None, &Euclidean, Exec::sequential())
        );
        // A big credit on center 1 pulls everyone over.
        let heavy = vec![0.0, 100.0];
        assert_eq!(
            assign_ed(&s, &centers, Some(&heavy), &Euclidean, Exec::sequential()),
            vec![1, 1]
        );
    }

    #[test]
    fn ties_break_to_lower_index() {
        let s = UncertainSet::new(vec![UncertainPoint::certain(Point::scalar(0.0))]);
        let centers = vec![Point::scalar(1.0), Point::scalar(-1.0)];
        assert_eq!(
            assign_ed(&s, &centers, None, &Euclidean, Exec::sequential()),
            vec![0]
        );
        assert_eq!(assign_ep(&s, &centers, &Euclidean), vec![0]);
        let reps = vec![Point::scalar(0.0)];
        assert_eq!(assign_oc(&s, &centers, &reps, &Euclidean), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one center")]
    fn empty_centers_panic() {
        let s = set_two_groups();
        let _ = assign_ed(&s, &[], None, &Euclidean, Exec::sequential());
    }
}
