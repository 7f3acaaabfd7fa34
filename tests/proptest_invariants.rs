//! Property-based tests (proptest) over the core invariants the paper's
//! proofs rely on. Each property is the formal statement of a lemma or a
//! structural fact the implementation must preserve for the approximation
//! guarantees to be meaningful.

use proptest::prelude::*;
use uncertain_kcenter::prelude::*;
use uncertain_kcenter::uncertain::expected_max;

/// One query's additively weighted argmin under the pointwise Euclidean
/// metric: [`DistanceOracle::nearest_each`] over a one-query batch.
fn weighted_nearest(q: &Point, centers: &[Point], w: &[f64]) -> (usize, f64) {
    let mut out = [(0usize, 0.0f64)];
    Euclidean.nearest_each(std::slice::from_ref(q), centers, Some(w), &mut out);
    out[0]
}

/// Strategy: a discrete distribution of size 1..=4 (values in a box,
/// probabilities normalized).
fn distribution_1d() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    prop::collection::vec((-50.0f64..50.0, 0.05f64..1.0), 1..=4).prop_map(|pairs| {
        let total: f64 = pairs.iter().map(|(_, w)| w).sum();
        let (vals, probs): (Vec<f64>, Vec<f64>) =
            pairs.into_iter().map(|(v, w)| (v, w / total)).unzip();
        (vals, probs)
    })
}

fn uncertain_point_2d() -> impl Strategy<Value = UncertainPoint<Point>> {
    prop::collection::vec(((-50.0f64..50.0, -50.0f64..50.0), 0.05f64..1.0), 1..=4).prop_map(
        |pairs| {
            let total: f64 = pairs.iter().map(|(_, w)| w).sum();
            let locs: Vec<Point> = pairs
                .iter()
                .map(|((x, y), _)| Point::new(vec![*x, *y]))
                .collect();
            let probs: Vec<f64> = pairs.iter().map(|(_, w)| w / total).collect();
            UncertainPoint::new(locs, probs).expect("normalized by construction")
        },
    )
}

fn uncertain_set_2d(
    n: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = UncertainSet<Point>> {
    prop::collection::vec(uncertain_point_2d(), n).prop_map(UncertainSet::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact sweep equals brute-force enumeration of Ω.
    #[test]
    fn expected_max_equals_enumeration(vars in prop::collection::vec(distribution_1d(), 1..=4)) {
        let atoms: Vec<Vec<(f64, f64)>> = vars
            .iter()
            .map(|(v, p)| v.iter().copied().zip(p.iter().copied()).collect())
            .collect();
        let fast = expected_max(&atoms);
        let slow = uncertain_kcenter::uncertain::expected_max::expected_max_enumerate(&atoms);
        prop_assert!((fast - slow).abs() < 1e-9, "fast {fast} slow {slow}");
    }

    /// `max_i E[X_i] ≤ E[max_i X_i] ≤ max value` — the sandwich every
    /// lower-bound argument uses.
    #[test]
    fn expected_max_sandwich(vars in prop::collection::vec(distribution_1d(), 1..=5)) {
        let atoms: Vec<Vec<(f64, f64)>> = vars
            .iter()
            .map(|(v, p)| v.iter().copied().zip(p.iter().copied()).collect())
            .collect();
        let e = expected_max(&atoms);
        let max_mean = atoms
            .iter()
            .map(|var| var.iter().map(|(v, p)| v * p).sum::<f64>())
            .fold(f64::NEG_INFINITY, f64::max);
        let max_val = atoms
            .iter()
            .flat_map(|var| var.iter().filter(|(_, p)| *p > 0.0).map(|(v, _)| *v))
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(e >= max_mean - 1e-9);
        prop_assert!(e <= max_val + 1e-9);
    }

    /// Paper Lemma 3.1: `d(P̄, Q) ≤ E d(P, Q)` for every Q.
    #[test]
    fn lemma_3_1_expected_point(up in uncertain_point_2d(), qx in -60.0f64..60.0, qy in -60.0f64..60.0) {
        let q = Point::new(vec![qx, qy]);
        let pbar = expected_point(&up);
        prop_assert!(pbar.dist(&q) <= expected_distance(&up, &q, &Euclidean) + 1e-9);
    }

    /// Gonzalez is a 2-approximation of the exact discrete optimum.
    #[test]
    fn gonzalez_within_2x_of_exact(
        coords in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..=12),
        k in 1usize..=3,
    ) {
        let pts: Vec<Point> = coords.iter().map(|(x, y)| Point::new(vec![*x, *y])).collect();
        let gz = gonzalez(&pts, k, &Euclidean, 0);
        let ex = exact_discrete_kcenter(&pts, &pts, k, &Euclidean, ExactOptions::default())
            .expect("small instance");
        prop_assert!(ex.radius <= gz.radius + 1e-9);
        prop_assert!(gz.radius <= 2.0 * ex.radius + 1e-9);
    }

    /// The unassigned cost lower-bounds every assigned cost.
    #[test]
    fn unassigned_below_assigned(set in uncertain_set_2d(1..=4), a0 in 0usize..2, a1 in 0usize..2) {
        let centers = vec![Point::new(vec![-10.0, 0.0]), Point::new(vec![10.0, 0.0])];
        let assignment: Vec<usize> = (0..set.n()).map(|i| if i % 2 == 0 { a0 } else { a1 }).collect();
        let un = ecost_unassigned(&set, &centers, &Euclidean);
        let asg = ecost_assigned(&set, &centers, &assignment, &Euclidean);
        prop_assert!(un <= asg + 1e-9);
    }

    /// The certified lower bound never exceeds the pipeline's output, for
    /// every rule.
    #[test]
    fn lower_bound_below_pipeline(set in uncertain_set_2d(2..=5), k in 1usize..=2) {
        let lb = lower_bound_euclidean(&set, k);
        for rule in [AssignmentRule::ExpectedDistance, AssignmentRule::ExpectedPoint] {
            let sol = Problem::euclidean(set.clone(), k.min(set.n()))
                .expect("generated instances are valid")
                .solve(
                    &SolverConfig::builder()
                        .rule(rule)
                        .lower_bound(false)
                        .build()
                        .expect("static test config"),
                )
                .expect("euclidean pipeline accepts every rule");
            prop_assert!(lb <= sol.ecost + 1e-9, "rule {rule:?}: lb {lb} ecost {}", sol.ecost);
        }
    }

    /// Weighted 1-D median minimizes the weighted absolute deviation.
    #[test]
    fn weighted_median_is_minimizer((vals, probs) in distribution_1d(), probe in -60.0f64..60.0) {
        let med = uncertain_kcenter::geometry::weighted_median_1d(&vals, &probs).expect("valid");
        let cost = |x: f64| -> f64 {
            vals.iter().zip(probs.iter()).map(|(v, p)| p * (v - x).abs()).sum()
        };
        prop_assert!(cost(med) <= cost(probe) + 1e-9);
    }

    /// Convex PL functions built from weighted absolute deviations evaluate
    /// exactly, and their level sets invert exactly.
    #[test]
    fn convex_pl_eval_and_level_set((vals, probs) in distribution_1d(), x in -60.0f64..60.0, dr in 0.01f64..30.0) {
        use uncertain_kcenter::geometry::ConvexPiecewiseLinear;
        let f = ConvexPiecewiseLinear::from_weighted_abs(&vals, &probs, 0.0).expect("valid");
        let direct: f64 = vals.iter().zip(probs.iter()).map(|(v, p)| p * (v - x).abs()).sum();
        prop_assert!((f.eval(x) - direct).abs() < 1e-9);
        let (_, fmin) = f.min();
        let r = fmin + dr;
        let (lo, hi) = f.level_set(r).expect("r above min");
        prop_assert!((f.eval(lo) - r).abs() < 1e-7);
        prop_assert!((f.eval(hi) - r).abs() < 1e-7);
        prop_assert!(lo <= hi);
    }

    /// The 1-D deterministic k-center optimum is feasible and minimal
    /// against a direct sweep check.
    #[test]
    fn one_d_kcenter_radius_is_cost(values in prop::collection::vec(-100.0f64..100.0, 2..=16), k in 1usize..=3) {
        let sol = one_d_kcenter(&values, k);
        let pts: Vec<Point> = values.iter().map(|&v| Point::scalar(v)).collect();
        let cost = kcenter_cost(&pts, &sol.centers, None, &Euclidean);
        prop_assert!(cost <= sol.radius + 1e-9, "cost {cost} radius {}", sol.radius);
        prop_assert!(sol.centers.len() <= k);
    }

    /// Graph shortest-path closures satisfy the metric axioms.
    #[test]
    fn graph_closure_is_metric(edges in prop::collection::vec((0usize..6, 0usize..6, 0.1f64..10.0), 5..=12)) {
        let mut g = WeightedGraph::new(6);
        // A spanning path guarantees connectivity.
        for v in 0..5 {
            g.add_edge(v, v + 1, 1.0).unwrap();
        }
        for (u, v, w) in edges {
            g.add_edge(u, v, w).unwrap();
        }
        let fm = g.shortest_path_metric().expect("connected");
        let ids = fm.ids();
        prop_assert!(ukc_metric::validate::check_metric_axioms(&fm, &ids, 1e-9).is_ok());
    }

    /// Exact Ecost is invariant under relabeling centers and consistently
    /// renumbering the assignment.
    #[test]
    fn ecost_invariant_under_center_permutation(set in uncertain_set_2d(1..=4)) {
        let c0 = Point::new(vec![-5.0, 1.0]);
        let c1 = Point::new(vec![6.0, -2.0]);
        let assignment = assign_ed(&set, &[c0.clone(), c1.clone()], None, &Euclidean, Exec::sequential());
        let cost_a = ecost_assigned(&set, &[c0.clone(), c1.clone()], &assignment, &Euclidean);
        let swapped: Vec<usize> = assignment.iter().map(|&a| 1 - a).collect();
        let cost_b = ecost_assigned(&set, &[c1, c0], &swapped, &Euclidean);
        prop_assert!((cost_a - cost_b).abs() < 1e-9);
    }

    /// Adding one constant to **every** center weight shifts all
    /// Apollonius values `d(q, cᵢ) − wᵢ` by the same amount, so the
    /// weighted argmin is invariant (whenever the winner wins by more
    /// than fp noise — an exact tie's resolution may legitimately depend
    /// on rounding in `wᵢ + c`).
    #[test]
    fn weighted_argmin_invariant_under_constant_weight_shift(
        centers in prop::collection::vec(
            ((-50.0f64..50.0, -50.0f64..50.0), 0.0f64..2.0), 2..=6),
        qx in -50.0f64..50.0,
        qy in -50.0f64..50.0,
        c in 0.0f64..2.0,
    ) {
        let q = Point::new(vec![qx, qy]);
        let pts: Vec<Point> = centers.iter().map(|((x, y), _)| Point::new(vec![*x, *y])).collect();
        let w: Vec<f64> = centers.iter().map(|(_, w)| *w).collect();
        let (idx, val) = weighted_nearest(&q, &pts, &w);
        // Guard: skip knife-edge ties (runner-up within 1e-9).
        let runner_up = pts.iter().zip(&w).enumerate()
            .filter(|(i, _)| *i != idx)
            .map(|(_, (p, wi))| Euclidean.dist(&q, p) - wi)
            .fold(f64::INFINITY, f64::min);
        if runner_up - val > 1e-9 {
            let shifted: Vec<f64> = w.iter().map(|wi| wi + c).collect();
            let (idx2, val2) = weighted_nearest(&q, &pts, &shifted);
            prop_assert_eq!(idx, idx2);
            prop_assert!((val2 - (val - c)).abs() <= 1e-9 * (1.0 + val.abs() + c));
        }
    }

    /// Raising a single center's weight only makes it *more* attractive
    /// (`d − w` decreases), so a point already assigned to it stays
    /// assigned to it — exactly, with no tolerance: fp subtraction is
    /// monotone, and no other center's value moves at all.
    #[test]
    fn weighted_argmin_monotone_in_single_weight(
        centers in prop::collection::vec(
            ((-50.0f64..50.0, -50.0f64..50.0), 0.0f64..2.0), 2..=6),
        qx in -50.0f64..50.0,
        qy in -50.0f64..50.0,
        delta in 0.0f64..5.0,
    ) {
        let q = Point::new(vec![qx, qy]);
        let pts: Vec<Point> = centers.iter().map(|((x, y), _)| Point::new(vec![*x, *y])).collect();
        let w: Vec<f64> = centers.iter().map(|(_, w)| *w).collect();
        let (idx, _) = weighted_nearest(&q, &pts, &w);
        let mut raised = w.clone();
        raised[idx] += delta;
        let (idx2, _) = weighted_nearest(&q, &pts, &raised);
        prop_assert_eq!(idx, idx2);
    }

    /// The canonical set digest is invariant under point order — the
    /// cache/dedup key must name the multiset, not the upload order.
    /// (The weighted solve path inherits this: permuted uploads share
    /// cache entries in either assignment mode.)
    #[test]
    fn set_digest_invariant_under_permutation(set in uncertain_set_2d(2..=6), seed in 0u64..1000) {
        let mut points: Vec<UncertainPoint<Point>> = set.iter().cloned().collect();
        // Deterministic Fisher–Yates from the proptest seed.
        let mut s = seed | 1;
        for i in (1..points.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            points.swap(i, (s as usize) % (i + 1));
        }
        let permuted = UncertainSet::new(points);
        prop_assert_eq!(
            uncertain_kcenter::core::digest_set(&set),
            uncertain_kcenter::core::digest_set(&permuted)
        );
    }
}
