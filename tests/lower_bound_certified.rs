//! The Euclidean lower bound (Lemma 3.2 per-point half, Lemma 3.4 certain
//! half) is *certified*: it never exceeds an exact optimum, and pruning
//! and early stopping cost it at most a relative 1e-11 against the
//! converged-Weiszfeld value it replaced.

use proptest::prelude::*;
use uncertain_kcenter::geometry::median::{geometric_median, WeiszfeldOptions};
use uncertain_kcenter::metric::batch;
use uncertain_kcenter::prelude::*;

/// An uncertain point from raw draws: `z` locations of `d` coordinates;
/// `dup` copies location 0 over location 1, `dominant` gives location 0
/// most of the mass.
fn point_from(
    z: usize,
    d: usize,
    coords: &[f64],
    weights: &[f64],
    dup: bool,
    dominant: bool,
) -> UncertainPoint<Point> {
    let mut locs: Vec<Point> = (0..z)
        .map(|j| Point::new(coords[j * d..(j + 1) * d].to_vec()))
        .collect();
    if dup && z > 1 {
        locs[1] = locs[0].clone();
    }
    let mut w = weights[..z].to_vec();
    if dominant {
        w[0] *= 20.0;
    }
    let total: f64 = w.iter().sum();
    UncertainPoint::new(locs, w.iter().map(|x| x / total).collect()).expect("normalized")
}

/// A set of `n` points with `z` locations each in `d` dimensions.
fn set_from(
    n: usize,
    (z, d): (usize, usize),
    coords: &[f64],
    weights: &[f64],
    flags: &[u64],
) -> UncertainSet<Point> {
    let stride_c = z * d;
    UncertainSet::new(
        (0..n)
            .map(|i| {
                point_from(
                    z,
                    d,
                    &coords[i * stride_c..(i + 1) * stride_c],
                    &weights[i * z..(i + 1) * z],
                    flags[i].is_multiple_of(4),
                    flags[i].is_multiple_of(3),
                )
            })
            .collect(),
    )
}

/// The bound as computed before certification — the objective at a
/// converged Weiszfeld median, maxed with the certain half — with each
/// per-point value clamped to the least objective at a support location.
///
/// The clamp matters where the minimizer sits on a location: Weiszfeld
/// reaches it only in the limit, so the unclamped seed value stops up to
/// ~1e-11 (relative) *above* the exact minimum, which no certified bound
/// may exceed. Both clamped terms are attained objective values, so the
/// result still lies above the exact bound.
fn seed_bound(set: &UncertainSet<Point>, k: usize) -> f64 {
    let per_point = set
        .iter()
        .map(|up| {
            let med = geometric_median(up.locations(), up.probs(), WeiszfeldOptions::default())
                .expect("valid distribution");
            up.locations()
                .iter()
                .map(|loc| expected_distance(up, loc, &Euclidean))
                .fold(expected_distance(up, &med, &Euclidean), f64::min)
        })
        .fold(0.0f64, f64::max);
    let reps: Vec<Point> = set.iter().map(expected_point).collect();
    per_point.max(gonzalez(&reps, k, &Euclidean, 0).radius / 2.0)
}

/// The candidate pool the brute-force optima range over: every location
/// and every expected point.
fn pool_of(set: &UncertainSet<Point>) -> Vec<Point> {
    let mut pool = set.location_pool();
    pool.extend(set.iter().map(expected_point));
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On tiny instances the bound lies below both brute-force optima
    /// (each restricted to a candidate pool, so each is at least the
    /// continuous optimum the bound certifies).
    #[test]
    fn bound_below_brute_force_optima(
        n in 1usize..=5,
        k in 1usize..=2,
        shape in (1usize..=3, 1usize..=3),
        coords in prop::collection::vec(-20.0f64..20.0, 45),
        weights in prop::collection::vec(0.05f64..1.0, 15),
        flags in prop::collection::vec(0u64..12, 5),
    ) {
        let set = set_from(n, shape, &coords, &weights, &flags);
        let k = k.min(n);
        let lb = lower_bound_euclidean(&set, k);
        let pool = pool_of(&set);
        let limits = BruteForceLimits::default();
        let restricted = brute_force_restricted(
            &set, &pool, k, AssignmentRule::ExpectedDistance, &Euclidean, limits,
        )
        .expect("tiny instances fit the budget");
        let unrestricted = brute_force_unrestricted(&set, &pool, k, &Euclidean, limits)
            .expect("tiny instances fit the budget");
        prop_assert!(lb <= restricted.ecost, "lb {lb} > restricted {}", restricted.ecost);
        prop_assert!(lb <= unrestricted.ecost, "lb {lb} > unrestricted {}", unrestricted.ecost);
    }

    /// Against the converged-Weiszfeld bound it replaced, the certified
    /// bound loses at most a relative 1e-11, and never rises above it.
    #[test]
    fn bound_keeps_the_seed_value(
        n in 1usize..=8,
        k in 1usize..=9,
        shape in (2usize..=6, 1usize..=4),
        coords in prop::collection::vec(-50.0f64..50.0, 192),
        weights in prop::collection::vec(0.05f64..1.0, 48),
        flags in prop::collection::vec(1u64..12, 8),
    ) {
        let set = set_from(n, shape, &coords, &weights, &flags);
        let new = lower_bound_euclidean(&set, k);
        let old = seed_bound(&set, k);
        prop_assert!(new >= old * (1.0 - 1e-11), "new {new} vs seed {old}");
        prop_assert!(new <= old, "new {new} above the attained {old}");
    }
}

#[test]
fn solve_reports_the_bound_and_counts_its_work() {
    // k = n zeroes the certain half: the per-point half decides, and its
    // refinement iterates are counted on top of the n·z pass.
    let set = uniform_box(3, 10, 4, 3, 30.0, 6.0, ProbModel::Random);
    let sol = Problem::euclidean(set.clone(), 10)
        .unwrap()
        .solve(&SolverConfig::default())
        .unwrap();
    let lb = sol.report.lower_bound.unwrap();
    assert_eq!(lb.to_bits(), lower_bound_euclidean(&set, 10).to_bits());
    assert!(lb <= sol.ecost);
    assert!(sol.report.distance_evals.lower_bound > set.total_locations() as u64);
}

/// The certain half at large offsets: certain points (z = 1) at
/// `offset + j/8` in d = 8, k = n − 1. The optimum merges the closest
/// pair at its midpoint, so it is half the closest-pair distance; a
/// default solve must report a bound at or below it. At offset 2^26 a
/// norm-factorized radius is off by ~1e-3 relative, so the certain half
/// must come from scalar distances.
///
/// This pins the scalar radius only: a correctly rounded radius can still
/// sit half an ulp above the exact one, and for z > 1 the computed `P̄`
/// is not the exact centroid, so the certain half carries no slack yet.
#[test]
fn certain_half_stays_below_the_optimum_at_large_offsets() {
    let (n, d) = (2100usize, 8usize);
    for offset in [2f64.powi(26)] {
        for seed in 1..=4u64 {
            let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut j = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 52) as f64 // 0..4096
            };
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| offset + j() / 8.0).collect())
                .collect();
            let mut closest = f64::INFINITY;
            for (a, ra) in rows.iter().enumerate() {
                for rb in &rows[a + 1..] {
                    closest = closest.min(batch::dist_sq_scalar(ra, rb));
                }
            }
            let opt = closest.sqrt() / 2.0;
            let set = UncertainSet::new(
                rows.into_iter()
                    .map(|r| UncertainPoint::certain(Point::new(r)))
                    .collect(),
            );
            let sol = Problem::euclidean(set.clone(), n - 1)
                .unwrap()
                .solve(&SolverConfig::default())
                .unwrap();
            let lb = sol.report.lower_bound.unwrap();
            assert!(
                lb <= opt,
                "offset {offset} seed {seed}: bound {lb} above optimum {opt}"
            );
        }
    }
}
