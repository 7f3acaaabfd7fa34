//! Robustness suite: degenerate instances, extreme scales, malformed
//! inputs, and probability-mass corner cases across the whole stack.
//! Every test pins down behavior a downstream user would otherwise have
//! to discover in production.

use uncertain_kcenter::prelude::*;

/// One Euclidean solve through the `Problem` API (no per-solve bound).
fn solve_eu(set: &UncertainSet<Point>, k: usize, rule: AssignmentRule) -> Solution<Point> {
    solve_eu_with(set, k, rule, CertainStrategy::Gonzalez)
}

/// Like [`solve_eu`] with an explicit certain strategy.
fn solve_eu_with(
    set: &UncertainSet<Point>,
    k: usize,
    rule: AssignmentRule,
    strategy: CertainStrategy,
) -> Solution<Point> {
    let config = SolverConfig::builder()
        .rule(rule)
        .strategy(strategy)
        .lower_bound(false)
        .build()
        .expect("static test config");
    Problem::euclidean(set.clone(), k)
        .expect("test instances are valid")
        .solve(&config)
        .expect("euclidean pipeline accepts every test config")
}

// ---------------------------------------------------------------------
// Degenerate instances
// ---------------------------------------------------------------------

#[test]
fn single_point_single_location() {
    let set = UncertainSet::new(vec![UncertainPoint::certain(Point::new(vec![1.0, 2.0]))]);
    let sol = solve_eu(&set, 1, AssignmentRule::ExpectedDistance);
    assert_eq!(sol.ecost, 0.0);
    assert_eq!(sol.centers.len(), 1);
    assert_eq!(sol.assignment, vec![0]);
    assert_eq!(lower_bound_euclidean(&set, 1), 0.0);
}

#[test]
fn all_points_identical() {
    let up =
        UncertainPoint::new(vec![Point::scalar(5.0), Point::scalar(5.0)], vec![0.5, 0.5]).unwrap();
    let set = UncertainSet::new(vec![up.clone(), up.clone(), up]);
    for rule in [
        AssignmentRule::ExpectedDistance,
        AssignmentRule::ExpectedPoint,
    ] {
        let sol = solve_eu(&set, 2, rule);
        assert!(sol.ecost.abs() < 1e-12, "rule {rule:?}");
    }
    let one_d = solve_one_d(&set, 2);
    assert!(one_d.med_cost.abs() < 1e-12);
    assert!(one_d.ecost_ed.abs() < 1e-12);
}

#[test]
fn k_exceeds_n() {
    let set = uniform_box(1, 3, 2, 2, 10.0, 1.0, ProbModel::Random);
    // The validated API rejects over-asking with a typed error.
    assert_eq!(
        Problem::euclidean(set, 10).err(),
        Some(SolveError::KExceedsN { k: 10, n: 3 })
    );
}

#[test]
fn one_dimensional_everything() {
    // d=1 through the generic (not 1-D-specialized) pipeline.
    let set = line_instance(2, 12, 3, 50.0, 1.0, ProbModel::Random);
    let generic = solve_eu(&set, 3, AssignmentRule::ExpectedDistance);
    let special = solve_one_d(&set, 3);
    // The exact solver's ED cost can't be beaten by more than the greedy
    // pipeline's slack; both respect the LB.
    let lb = lower_bound_euclidean(&set, 3);
    assert!(lb <= special.ecost_ed + 1e-9);
    assert!(lb <= generic.ecost + 1e-9);
}

// ---------------------------------------------------------------------
// Extreme scales
// ---------------------------------------------------------------------

#[test]
fn huge_coordinates() {
    let up = |x: f64| {
        UncertainPoint::new(
            vec![Point::new(vec![x, x]), Point::new(vec![x + 1e3, x])],
            vec![0.5, 0.5],
        )
        .unwrap()
    };
    let set = UncertainSet::new(vec![up(1e12), up(1e12 + 1e6), up(-1e12)]);
    let sol = solve_eu(&set, 2, AssignmentRule::ExpectedDistance);
    assert!(sol.ecost.is_finite());
    // The two 1e12-side points share a center; the -1e12 point gets its own.
    assert_eq!(sol.assignment[0], sol.assignment[1]);
    assert_ne!(sol.assignment[0], sol.assignment[2]);
    // Cost is on the 1e6 scale (the intra-group gap), not 1e12.
    assert!(sol.ecost < 1e7, "ecost {}", sol.ecost);
}

/// Three points in the plane, one of them with a location at `(x, 1)`.
fn with_far_location(x: f64) -> UncertainSet<Point> {
    UncertainSet::new(vec![
        UncertainPoint::certain(Point::new(vec![0.0, 0.0])),
        UncertainPoint::new(
            vec![Point::new(vec![x, 1.0]), Point::new(vec![2.0, 1.0])],
            vec![0.5, 0.5],
        )
        .unwrap(),
        UncertainPoint::certain(Point::new(vec![3.0, 3.0])),
    ])
}

/// Solves `set` under every rule × strategy with the lower bound on,
/// plus the weighted pipeline, asserting finite output.
fn solves_everywhere(set: &UncertainSet<Point>, k: usize, ctx: &str) {
    let problem = Problem::euclidean(set.clone(), k).expect("within the bound");
    let strategies = [
        CertainStrategy::Gonzalez,
        CertainStrategy::GonzalezLocalSearch { rounds: 5 },
        CertainStrategy::Grid,
        CertainStrategy::ExactDiscrete,
    ];
    let mut configs = Vec::new();
    for rule in [
        AssignmentRule::ExpectedDistance,
        AssignmentRule::ExpectedPoint,
        AssignmentRule::OneCenter,
    ] {
        for strategy in strategies {
            configs.push(SolverConfig::builder().rule(rule).strategy(strategy));
        }
    }
    configs.push(SolverConfig::builder().assignment(AssignmentMode::AdditivelyWeighted));
    for builder in configs {
        let config = builder.build().unwrap();
        let sol = problem.solve(&config).expect("typed configs are valid");
        let tag = format!("{ctx}: {:?} {:?}", config.rule(), config.strategy());
        assert!(sol.ecost.is_finite(), "{tag}: ecost {}", sol.ecost);
        assert!(sol.certain_radius.is_finite(), "{tag}");
        let lb = sol.report.lower_bound.expect("bound on");
        assert!(
            lb.is_finite() && lb <= sol.ecost,
            "{tag}: {lb} vs {}",
            sol.ecost
        );
    }
}

#[test]
fn coordinates_past_the_norm_bound_are_typed_errors() {
    assert_eq!(uncertain_kcenter::core::MAX_NORM_SQ, 2f64.powi(1000));
    for x in [1e155, -1e155, 1e200, f64::MAX] {
        assert_eq!(
            Problem::euclidean(with_far_location(x), 2).err(),
            Some(SolveError::CoordinatesTooLarge { point: 1 }),
            "x = {x}"
        );
    }
    // One ulp past the bound in one dimension.
    let edge = 2f64.powi(500);
    let past = UncertainSet::new(vec![UncertainPoint::certain(Point::scalar(
        f64::from_bits(edge.to_bits() + 1),
    ))]);
    assert_eq!(
        Problem::euclidean(past, 1).err(),
        Some(SolveError::CoordinatesTooLarge { point: 0 })
    );
}

#[test]
fn coordinates_within_the_norm_bound_solve_everywhere() {
    for x in [1e150, -1e150] {
        solves_everywhere(&with_far_location(x), 2, &format!("x = {x}"));
    }
    // Locations on the bound at both ends of a line: the largest squared
    // distance any two of them have, `(2·2^500)² = 2^1002`, stays finite.
    let edge = 2f64.powi(500);
    let line = UncertainSet::new(vec![
        UncertainPoint::certain(Point::scalar(-edge)),
        UncertainPoint::new(
            vec![Point::scalar(edge), Point::scalar(0.0)],
            vec![0.5, 0.5],
        )
        .unwrap(),
        UncertainPoint::certain(Point::scalar(edge)),
    ]);
    solves_everywhere(&line, 2, "on the bound");
}

/// A huge ε used to overflow the grid spacing and panic on a non-finite
/// grid vertex; the grid strategy now falls back to Gonzalez.
#[test]
fn huge_epsilon_grid_solves() {
    let set = uniform_box(4, 12, 3, 2, 10.0, 1.0, ProbModel::Random);
    for eps in [1e300, f64::MAX] {
        let config = SolverConfig::builder()
            .strategy(CertainStrategy::Grid)
            .eps(eps)
            .build()
            .unwrap();
        let sol = Problem::euclidean(set.clone(), 3)
            .unwrap()
            .solve(&config)
            .unwrap();
        assert!(sol.ecost.is_finite(), "eps {eps}");
    }
}

#[test]
fn tiny_probabilities_survive() {
    // Mass 1e-9 on a far location: exact machinery must neither drop nor
    // inflate it.
    let p_far = 1e-9;
    let up = UncertainPoint::new(
        vec![Point::scalar(0.0), Point::scalar(1e6)],
        vec![1.0 - p_far, p_far],
    )
    .unwrap();
    let set = UncertainSet::new(vec![up]);
    let centers = vec![Point::scalar(0.0)];
    let e = ecost_assigned(&set, &centers, &[0], &Euclidean);
    assert!((e - p_far * 1e6).abs() < 1e-9, "e = {e}");
    // The quantile view: the 0.999 quantile ignores the tail, the
    // 1.0 quantile sees it.
    let q999 = cost_quantile_assigned(&set, &centers, &[0], &Euclidean, 0.999);
    assert_eq!(q999, 0.0);
    let q1 = cost_quantile_assigned(&set, &centers, &[0], &Euclidean, 1.0);
    assert_eq!(q1, 1e6);
}

#[test]
fn many_points_large_z_exact_costs_stay_stable() {
    // 500 points x 16 locations: the log-space CDF sweep must not
    // underflow to zero or exceed max atom value.
    let set = uniform_box(9, 500, 16, 2, 100.0, 3.0, ProbModel::HeavyTail);
    let sol = solve_eu(&set, 5, AssignmentRule::ExpectedPoint);
    assert!(sol.ecost.is_finite() && sol.ecost > 0.0);
    // Ecost is at most the worst realized distance.
    let worst = cost_quantile_assigned(&set, &sol.centers, &sol.assignment, &Euclidean, 1.0);
    assert!(sol.ecost <= worst + 1e-9);
    // And at least the per-point floor.
    assert!(sol.ecost >= lower_bound_euclidean(&set, 5) - 1e-9);
}

// ---------------------------------------------------------------------
// Malformed inputs are rejected loudly (no silent nonsense)
// ---------------------------------------------------------------------

#[test]
fn invalid_distributions_rejected() {
    use uncertain_kcenter::uncertain::UncertainPointError;
    let bad = UncertainPoint::new(vec![Point::scalar(0.0)], vec![0.5]);
    assert!(matches!(bad, Err(UncertainPointError::BadSum { .. })));
    let bad = UncertainPoint::new(vec![Point::scalar(0.0)], vec![f64::INFINITY]);
    assert!(matches!(
        bad,
        Err(UncertainPointError::BadProbability { .. })
    ));
    let bad = UncertainPoint::<Point>::new(vec![], vec![]);
    assert!(matches!(bad, Err(UncertainPointError::Empty)));
}

#[test]
#[should_panic(expected = "finite")]
fn nan_coordinates_rejected_at_construction() {
    let _ = Point::new(vec![0.0, f64::NAN]);
}

#[test]
fn zero_k_rejected_with_typed_error() {
    let set = uniform_box(1, 3, 2, 2, 10.0, 1.0, ProbModel::Random);
    assert_eq!(Problem::euclidean(set, 0).err(), Some(SolveError::ZeroK));
}

#[test]
fn metric_validators_catch_broken_matrices() {
    use uncertain_kcenter::metric::FiniteMetricError;
    // Triangle violation.
    let m = vec![
        vec![0.0, 1.0, 9.0],
        vec![1.0, 0.0, 1.0],
        vec![9.0, 1.0, 0.0],
    ];
    assert!(matches!(
        FiniteMetric::from_matrix(m, 1e-9),
        Err(FiniteMetricError::NotAMetric(_))
    ));
}

// ---------------------------------------------------------------------
// Probability-mass corner cases
// ---------------------------------------------------------------------

#[test]
fn point_mass_equals_certain_point() {
    // A distribution with all mass on one location behaves exactly like a
    // certain point everywhere in the stack.
    let massed = UncertainPoint::new(
        vec![Point::scalar(3.0), Point::scalar(99.0)],
        vec![1.0, 0.0],
    )
    .unwrap();
    let certain = UncertainPoint::certain(Point::scalar(3.0));
    let set_a = UncertainSet::new(vec![massed, UncertainPoint::certain(Point::scalar(10.0))]);
    let set_b = UncertainSet::new(vec![certain, UncertainPoint::certain(Point::scalar(10.0))]);
    let a = solve_eu(&set_a, 1, AssignmentRule::ExpectedDistance);
    let b = solve_eu(&set_b, 1, AssignmentRule::ExpectedDistance);
    assert!((a.ecost - b.ecost).abs() < 1e-12);
}

#[test]
fn near_tolerance_probability_sums_renormalize() {
    // Sums within 1e-6 of 1 are accepted and silently fixed.
    let up = UncertainPoint::new(
        vec![Point::scalar(0.0), Point::scalar(1.0)],
        vec![0.5, 0.5 + 9e-7],
    )
    .unwrap();
    let total: f64 = up.probs().iter().sum();
    assert!((total - 1.0).abs() < 1e-15);
}

#[test]
fn quantiles_are_monotone_in_q() {
    let set = clustered(4, 10, 3, 2, 2, 4.0, 1.0, ProbModel::Random);
    let sol = solve_eu(&set, 2, AssignmentRule::ExpectedPoint);
    let mut prev = 0.0;
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let v = cost_quantile_assigned(&set, &sol.centers, &sol.assignment, &Euclidean, q);
        assert!(v >= prev - 1e-12, "quantile not monotone at q={q}");
        prev = v;
    }
}

#[test]
fn cdf_brackets_expectation() {
    // Markov-style sanity: Ecost must lie between the 0+ and 1.0 quantiles,
    // and the CDF at Ecost must be strictly positive for non-degenerate
    // instances.
    let set = clustered(5, 8, 3, 2, 2, 4.0, 1.0, ProbModel::HeavyTail);
    let sol = solve_eu(&set, 2, AssignmentRule::ExpectedDistance);
    let worst = cost_quantile_assigned(&set, &sol.centers, &sol.assignment, &Euclidean, 1.0);
    assert!(sol.ecost <= worst + 1e-12);
    let cdf_at_e = cost_cdf_assigned(&set, &sol.centers, &sol.assignment, &Euclidean, sol.ecost);
    assert!(cdf_at_e > 0.0);
}
