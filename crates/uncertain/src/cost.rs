//! Expected k-center costs: exact, enumerated, and Monte-Carlo.
//!
//! For fixed centers (and, in the assigned versions, a fixed assignment)
//! the per-point distance variables are independent, so the paper's
//! expected costs are `E[max]` of independent discrete variables and the
//! sweep of [`crate::expected_max()`] computes them exactly. The enumerated
//! and Monte-Carlo versions exist to cross-validate that exactness and to
//! support the sampling baseline.

use crate::expected_max::{expected_max, expected_max_enumerate, expected_max_split};
use crate::point::UncertainPoint;
use crate::realization::sample_realization;
use crate::set::UncertainSet;
use rand::Rng;
use ukc_metric::{DistanceOracle, PAR_CHUNK, PAR_MIN_POINTS};
use ukc_pool::Exec;

/// Builds the per-point distance variables for the *assigned* cost: point
/// `i`'s variable takes value `d(Pᵢⱼ, centers[assignment[i]])` with
/// probability `pᵢⱼ`.
fn assigned_vars<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: &[usize],
    metric: &M,
) -> Vec<Vec<(f64, f64)>> {
    assert_eq!(
        assignment.len(),
        set.n(),
        "assignment must name a center for every point"
    );
    let mut dists = Vec::with_capacity(set.total_locations());
    push_assigned_distances(set.points(), centers, assignment, metric, &mut dists);
    distance_vars(set.points(), &dists)
}

/// Appends `d(Pᵢⱼ, centers[assignment[i]])` for every location of
/// `points` to `out`, point-major in support order: one batched sweep per
/// point, from its locations to its assigned center.
fn push_assigned_distances<P, M: DistanceOracle<P>>(
    points: &[UncertainPoint<P>],
    centers: &[P],
    assignment: &[usize],
    metric: &M,
    out: &mut Vec<f64>,
) {
    for (up, &a) in points.iter().zip(assignment) {
        assert!(a < centers.len(), "assignment index out of range");
        let start = out.len();
        out.resize(start + up.z(), 0.0);
        metric.dists_to_one(up.locations(), &centers[a], &mut out[start..]);
    }
}

/// The per-location distances of the assigned cost, flat in set order:
/// `d(Pᵢⱼ, centers[assignment[i]])` point-major, in support order — the
/// values the assigned cost folds, for callers that keep them
/// ([`ecost_from_distances`] folds them). Points are swept in
/// [`PAR_CHUNK`]-point blocks on the pool; every value is the sequential
/// sweep's, so the vector is bit-identical for every [`Exec`].
///
/// # Panics
/// Panics when `assignment` and `points` differ in length or an
/// assignment index is out of range.
pub fn assigned_distances_exec<P: Sync, M: DistanceOracle<P> + Sync>(
    points: &[UncertainPoint<P>],
    centers: &[P],
    assignment: &[usize],
    metric: &M,
    exec: Exec<'_>,
) -> Vec<f64> {
    assert_eq!(
        assignment.len(),
        points.len(),
        "assignment must name a center for every point"
    );
    let block = |r: std::ops::Range<usize>| {
        let mut out = Vec::new();
        push_assigned_distances(
            &points[r.clone()],
            centers,
            &assignment[r],
            metric,
            &mut out,
        );
        out
    };
    if !exec.is_parallel() || points.len() < PAR_MIN_POINTS {
        return block(0..points.len());
    }
    ukc_pool::map_chunks(exec, points.len(), PAR_CHUNK, block).concat()
}

/// Pairs flat per-location distances (set order, as
/// [`assigned_distances_exec`] lays them out) with the probabilities of
/// `points`: point `i`'s distance variable.
///
/// # Panics
/// Panics when `dists` does not hold exactly one value per location.
pub fn distance_vars<P>(points: &[UncertainPoint<P>], dists: &[f64]) -> Vec<Vec<(f64, f64)>> {
    distance_slices(points, dists)
        .map(|(d, probs)| d.iter().copied().zip(probs.iter().copied()).collect())
        .collect()
}

/// Splits flat per-location values (set order, as
/// [`assigned_distances_exec`] lays them out) into each point's borrowed
/// `(values, probabilities)` — the variables [`expected_max_split`] folds.
///
/// # Panics
/// Panics when `dists` does not hold exactly one value per location.
pub fn distance_slices<'a, P>(
    points: &'a [UncertainPoint<P>],
    dists: &'a [f64],
) -> impl ExactSizeIterator<Item = (&'a [f64], &'a [f64])> {
    assert_eq!(
        dists.len(),
        points.iter().map(UncertainPoint::z).sum::<usize>(),
        "one distance per location required"
    );
    let mut rest = dists;
    points.iter().map(move |up| {
        let (d, tail) = rest.split_at(up.z());
        rest = tail;
        (d, up.probs())
    })
}

/// Exact `EcostA` from the per-location distances of an assignment, in
/// set order: bit-identical to [`ecost_assigned`] over the assignment
/// the distances were measured for.
///
/// # Panics
/// Panics when `dists` does not hold exactly one value per location.
pub fn ecost_from_distances<P>(set: &UncertainSet<P>, dists: &[f64]) -> f64 {
    expected_max_split(distance_slices(set.points(), dists))
}

/// Builds the per-point distance variables for the *unassigned* cost:
/// point `i`'s variable takes value `d(Pᵢⱼ, C) = min_c d(Pᵢⱼ, c)`.
fn unassigned_vars<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    metric: &M,
) -> Vec<Vec<(f64, f64)>> {
    assert!(!centers.is_empty(), "need at least one center");
    let mut min_dist = vec![0.0f64; set.max_z()];
    set.iter()
        .map(|up| {
            // Center-major batched sweeps: min over centers per location.
            // Identical values and evaluation count (z·k) as the
            // location-major `dist_to_set` loop — min is order-free.
            min_dist[..up.z()].fill(f64::INFINITY);
            for c in centers {
                metric.dists_to_set_min(up.locations(), c, None, &mut min_dist);
            }
            min_dist[..up.z()]
                .iter()
                .zip(up.probs().iter())
                .map(|(&d, &p)| (d, p))
                .collect()
        })
        .collect()
}

/// Parallel [`unassigned_vars`], block-parallel over points like
/// [`assigned_distances_exec`].
fn unassigned_vars_exec<P: Sync, M: DistanceOracle<P> + Sync>(
    set: &UncertainSet<P>,
    centers: &[P],
    metric: &M,
    exec: Exec<'_>,
) -> Vec<Vec<(f64, f64)>> {
    if !exec.is_parallel() || set.n() < PAR_MIN_POINTS {
        return unassigned_vars(set, centers, metric);
    }
    assert!(!centers.is_empty(), "need at least one center");
    let mut vars: Vec<Vec<(f64, f64)>> = vec![Vec::new(); set.n()];
    ukc_pool::for_each_slice(exec, &mut vars, PAR_CHUNK, |start, slice| {
        let mut min_dist = vec![0.0f64; set.max_z()];
        for (j, slot) in slice.iter_mut().enumerate() {
            let up = &set[start + j];
            min_dist[..up.z()].fill(f64::INFINITY);
            for c in centers {
                metric.dists_to_set_min(up.locations(), c, None, &mut min_dist);
            }
            *slot = min_dist[..up.z()]
                .iter()
                .zip(up.probs().iter())
                .map(|(&d, &p)| (d, p))
                .collect();
        }
    });
    vars
}

/// Exact `EcostA(c₁..c_k)` for a fixed assignment:
/// `Σ_R prob(R)·max_i d(P̂ᵢ, A(Pᵢ))`, in O(N log N).
pub fn ecost_assigned<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: &[usize],
    metric: &M,
) -> f64 {
    expected_max(&assigned_vars(set, centers, assignment, metric))
}

/// Exact unassigned `Ecost(c₁..c_k) = Σ_R prob(R)·max_i d(P̂ᵢ, C)`.
pub fn ecost_unassigned<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    metric: &M,
) -> f64 {
    expected_max(&unassigned_vars(set, centers, metric))
}

/// [`ecost_unassigned`] with an execution context: the per-point variable
/// sweep runs block-parallel on the pool, the `E[max]` fold stays
/// sequential. Bit-identical to [`ecost_unassigned`] for every `exec`.
pub fn ecost_unassigned_exec<P: Sync, M: DistanceOracle<P> + Sync>(
    set: &UncertainSet<P>,
    centers: &[P],
    metric: &M,
    exec: Exec<'_>,
) -> f64 {
    expected_max(&unassigned_vars_exec(set, centers, metric, exec))
}

/// Assigned cost by full realization enumeration (tests/baselines only).
///
/// # Panics
/// Panics when `|Ω| > 10^7`.
pub fn ecost_assigned_enumerate<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: &[usize],
    metric: &M,
) -> f64 {
    expected_max_enumerate(&assigned_vars(set, centers, assignment, metric))
}

/// Unassigned cost by full realization enumeration (tests/baselines only).
///
/// # Panics
/// Panics when `|Ω| > 10^7`.
pub fn ecost_unassigned_enumerate<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    metric: &M,
) -> f64 {
    expected_max_enumerate(&unassigned_vars(set, centers, metric))
}

/// Exact `Pr[cost ≤ t]` of an assigned solution: the probability that no
/// point's realized distance to its assigned center exceeds `t`.
pub fn cost_cdf_assigned<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: &[usize],
    metric: &M,
    t: f64,
) -> f64 {
    crate::expected_max::max_cdf(&assigned_vars(set, centers, assignment, metric), t)
}

/// Exact `q`-quantile (value-at-risk) of an assigned solution's cost: the
/// smallest radius `t` such that with probability at least `q` every point
/// realizes within `t` of its assigned center.
///
/// Complements [`ecost_assigned`]: the expectation summarizes the average
/// realization, the quantile summarizes the tail — uncertain database
/// applications routinely need both.
pub fn cost_quantile_assigned<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: &[usize],
    metric: &M,
    q: f64,
) -> f64 {
    crate::expected_max::max_quantile(&assigned_vars(set, centers, assignment, metric), q)
}

/// Exact `Pr[cost ≤ t]` of an unassigned solution (each realization served
/// by its nearest center).
pub fn cost_cdf_unassigned<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    metric: &M,
    t: f64,
) -> f64 {
    crate::expected_max::max_cdf(&unassigned_vars(set, centers, metric), t)
}

/// Exact `q`-quantile of an unassigned solution's cost.
pub fn cost_quantile_unassigned<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    metric: &M,
    q: f64,
) -> f64 {
    crate::expected_max::max_quantile(&unassigned_vars(set, centers, metric), q)
}

/// A Monte-Carlo estimate with its standard error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonteCarloEstimate {
    /// Sample mean of the cost.
    pub mean: f64,
    /// Standard error of the mean (`σ̂/√samples`).
    pub std_error: f64,
    /// Number of samples drawn.
    pub samples: usize,
}

/// Monte-Carlo estimate of the expected cost. With `assignment = Some(A)`
/// estimates the assigned cost, otherwise the unassigned cost.
///
/// # Panics
/// Panics when `samples == 0` or the assignment is malformed.
pub fn ecost_monte_carlo<P, M: DistanceOracle<P>, R: Rng>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: Option<&[usize]>,
    metric: &M,
    samples: usize,
    rng: &mut R,
) -> MonteCarloEstimate {
    assert!(samples > 0, "need at least one sample");
    if let Some(a) = assignment {
        assert_eq!(a.len(), set.n(), "assignment length mismatch");
    }
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for _ in 0..samples {
        let r = sample_realization(set, rng);
        let mut max = 0.0f64;
        for (i, &j) in r.iter().enumerate() {
            let loc = &set[i].locations()[j];
            let d = match assignment {
                Some(a) => metric.dist(loc, &centers[a[i]]),
                None => metric.dist_to_set(loc, centers),
            };
            max = max.max(d);
        }
        sum += max;
        sum_sq += max * max;
    }
    let n = samples as f64;
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);
    MonteCarloEstimate {
        mean,
        std_error: (var / n).sqrt(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::UncertainPoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ukc_metric::{Euclidean, Metric, Point};

    fn set2d() -> UncertainSet<Point> {
        UncertainSet::new(vec![
            UncertainPoint::new(
                vec![Point::new(vec![0.0, 0.0]), Point::new(vec![1.0, 0.0])],
                vec![0.5, 0.5],
            )
            .unwrap(),
            UncertainPoint::new(
                vec![Point::new(vec![5.0, 0.0]), Point::new(vec![6.0, 1.0])],
                vec![0.25, 0.75],
            )
            .unwrap(),
        ])
    }

    #[test]
    fn exact_matches_enumeration_assigned() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        let assignment = vec![0usize, 1];
        let fast = ecost_assigned(&s, &centers, &assignment, &Euclidean);
        let slow = ecost_assigned_enumerate(&s, &centers, &assignment, &Euclidean);
        assert!((fast - slow).abs() < 1e-12, "{fast} vs {slow}");
    }

    #[test]
    fn exact_matches_enumeration_unassigned() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        let fast = ecost_unassigned(&s, &centers, &Euclidean);
        let slow = ecost_unassigned_enumerate(&s, &centers, &Euclidean);
        assert!((fast - slow).abs() < 1e-12);
    }

    #[test]
    fn unassigned_never_exceeds_assigned() {
        // The unassigned cost picks the best center per realization point,
        // so it lower-bounds every fixed assignment.
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        let un = ecost_unassigned(&s, &centers, &Euclidean);
        for assignment in [[0usize, 0], [0, 1], [1, 0], [1, 1]] {
            let a = ecost_assigned(&s, &centers, &assignment, &Euclidean);
            assert!(un <= a + 1e-12, "assignment {assignment:?}");
        }
    }

    #[test]
    fn certain_points_reduce_to_deterministic_cost() {
        let s = UncertainSet::new(vec![
            UncertainPoint::certain(Point::scalar(0.0)),
            UncertainPoint::certain(Point::scalar(10.0)),
        ]);
        let centers = vec![Point::scalar(1.0)];
        let e = ecost_unassigned(&s, &centers, &Euclidean);
        assert!((e - 9.0).abs() < 1e-12);
        let ea = ecost_assigned(&s, &centers, &[0, 0], &Euclidean);
        assert!((ea - 9.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_converges_to_exact() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        let exact = ecost_unassigned(&s, &centers, &Euclidean);
        let mut rng = StdRng::seed_from_u64(7);
        let mc = ecost_monte_carlo(&s, &centers, None, &Euclidean, 100_000, &mut rng);
        assert!(
            (mc.mean - exact).abs() < 5.0 * mc.std_error + 1e-3,
            "mc {} vs exact {exact} (se {})",
            mc.mean,
            mc.std_error
        );
    }

    #[test]
    fn monte_carlo_assigned_converges() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        let assignment = vec![0usize, 1];
        let exact = ecost_assigned(&s, &centers, &assignment, &Euclidean);
        let mut rng = StdRng::seed_from_u64(11);
        let mc = ecost_monte_carlo(
            &s,
            &centers,
            Some(&assignment),
            &Euclidean,
            100_000,
            &mut rng,
        );
        assert!((mc.mean - exact).abs() < 5.0 * mc.std_error + 1e-3);
    }

    #[test]
    fn hand_computed_example() {
        // One point on a line, locations 0 (p=0.5) and 2 (p=0.5), center 0:
        // Ecost = 0.5*0 + 0.5*2 = 1.
        let s = UncertainSet::new(vec![UncertainPoint::new(
            vec![Point::scalar(0.0), Point::scalar(2.0)],
            vec![0.5, 0.5],
        )
        .unwrap()]);
        let c = vec![Point::scalar(0.0)];
        assert!((ecost_unassigned(&s, &c, &Euclidean) - 1.0).abs() < 1e-12);

        // Two iid points, same setup: max is 2 unless both realize at 0:
        // E = 0.75*2 = 1.5.
        let s2 = UncertainSet::new(vec![s[0].clone(), s[0].clone()]);
        assert!((ecost_unassigned(&s2, &c, &Euclidean) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_and_cdf_consistency() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        let assignment = vec![0usize, 1];
        // CDF at the 1.0-quantile must be 1; CDF is monotone in t.
        let worst = cost_quantile_assigned(&s, &centers, &assignment, &Euclidean, 1.0);
        assert!(
            (cost_cdf_assigned(&s, &centers, &assignment, &Euclidean, worst) - 1.0).abs() < 1e-12
        );
        let med = cost_quantile_assigned(&s, &centers, &assignment, &Euclidean, 0.5);
        assert!(med <= worst + 1e-12);
        assert!(cost_cdf_assigned(&s, &centers, &assignment, &Euclidean, med) >= 0.5);
        // Just below the median the CDF must be < 0.5 (med is the smallest
        // atom reaching it).
        assert!(cost_cdf_assigned(&s, &centers, &assignment, &Euclidean, med - 1e-9) < 0.5);
        // The expectation lies between the 0+ quantile and the worst case.
        let e = ecost_assigned(&s, &centers, &assignment, &Euclidean);
        assert!(e <= worst + 1e-12);
    }

    #[test]
    fn cdf_matches_enumeration() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        for t in [0.5f64, 1.0, 2.0, 5.0] {
            let fast = cost_cdf_unassigned(&s, &centers, &Euclidean, t);
            // Enumerate: sum prob of realizations whose max distance <= t.
            let mut slow = 0.0;
            for (idx, prob) in crate::realization::RealizationIter::new(&s) {
                let max = idx
                    .iter()
                    .enumerate()
                    .map(|(i, &j)| Euclidean.dist_to_set(&s[i].locations()[j], &centers))
                    .fold(0.0f64, f64::max);
                if max <= t {
                    slow += prob;
                }
            }
            assert!((fast - slow).abs() < 1e-12, "t={t}: {fast} vs {slow}");
        }
    }

    #[test]
    #[should_panic(expected = "assignment index out of range")]
    fn bad_assignment_panics() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.0, 0.0])];
        let _ = ecost_assigned(&s, &centers, &[0, 5], &Euclidean);
    }
}
