//! A problem lays out its store once and shares it with every clone and
//! `with_k` problem, so a solve that reads a layout an earlier solve
//! built must equal, bit for bit, a solve of a fresh problem that builds
//! its own: centers, assignment, expected cost, lower bound and every
//! distance count, pruned pairs included. A problem over another set
//! (a leave-one-out variant, a grown instance) never inherits a layout.

use ukc_core::{
    solve_loo, AssignmentMode, AssignmentRule, CertainStrategy, Problem, Solution, SolverConfig,
};
use ukc_metric::Point;
use ukc_uncertain::generators::{clustered, ProbModel};
use ukc_uncertain::UncertainSet;

const RULES: [AssignmentRule; 3] = [
    AssignmentRule::ExpectedDistance,
    AssignmentRule::ExpectedPoint,
    AssignmentRule::OneCenter,
];

const STRATEGIES: [CertainStrategy; 4] = [
    CertainStrategy::Gonzalez,
    CertainStrategy::Grid,
    CertainStrategy::ExactDiscrete,
    CertainStrategy::GonzalezLocalSearch { rounds: 5 },
];

fn config(rule: AssignmentRule, strategy: CertainStrategy, mode: AssignmentMode) -> SolverConfig {
    SolverConfig::builder()
        .rule(rule)
        .strategy(strategy)
        .assignment(mode)
        .eps(0.5)
        .lower_bound(true)
        .build()
        .expect("valid config")
}

/// Every configuration the matrix covers: each rule under each strategy,
/// and the weighted Gonzalez solve.
fn configs() -> Vec<SolverConfig> {
    let mut all = Vec::new();
    for rule in RULES {
        for strategy in STRATEGIES {
            all.push(config(rule, strategy, AssignmentMode::Plain));
        }
    }
    all.push(config(
        AssignmentRule::ExpectedPoint,
        CertainStrategy::Gonzalez,
        AssignmentMode::AdditivelyWeighted,
    ));
    all
}

fn bits(p: &Point) -> Vec<u64> {
    p.coords().iter().map(|v| v.to_bits()).collect()
}

/// Every output bit and count of two solves; only timings may differ.
fn assert_same(a: &Solution<Point>, b: &Solution<Point>, ctx: &str) {
    let centers = |s: &Solution<Point>| s.centers.iter().map(bits).collect::<Vec<_>>();
    assert_eq!(centers(a), centers(b), "centers: {ctx}");
    assert_eq!(a.assignment, b.assignment, "assignment: {ctx}");
    assert_eq!(a.ecost.to_bits(), b.ecost.to_bits(), "ecost: {ctx}");
    assert_eq!(
        a.certain_radius.to_bits(),
        b.certain_radius.to_bits(),
        "certain_radius: {ctx}"
    );
    let (ra, rb) = (&a.report, &b.report);
    assert_eq!(ra.method, rb.method, "{ctx}");
    assert_eq!(
        ra.lower_bound.map(f64::to_bits),
        rb.lower_bound.map(f64::to_bits),
        "lower_bound: {ctx}"
    );
    let evals = |r: &ukc_core::Report| {
        let e = r.distance_evals;
        [
            e.representatives,
            e.certain_solve,
            e.assignment,
            e.cost,
            e.lower_bound,
            e.pruned,
        ]
    };
    assert_eq!(evals(ra), evals(rb), "distance_evals: {ctx}");
    let warm = |r: &ukc_core::Report| {
        r.warm
            .as_ref()
            .map(|w| (w.reused_centers, w.evals_saved, w.fallback))
    };
    assert_eq!(warm(ra), warm(rb), "warm: {ctx}");
}

fn instance(seed: u64, n: usize) -> UncertainSet<Point> {
    clustered(seed, n, 3, 2, 6, 8.0, 1.0, ProbModel::Random)
}

#[test]
fn with_k_solves_of_one_problem_match_fresh_problems() {
    let set = instance(41, 90);
    for config in configs() {
        // One problem per configuration, so the first solve builds the
        // layout every later `with_k` solve reads.
        let shared = Problem::euclidean(set.clone(), 1).unwrap();
        for k in [40, 7, 40, 23] {
            let ctx = format!("{} k = {k}", config_name(&config));
            let reused = shared.with_k(k).unwrap().solve(&config).unwrap();
            let fresh = Problem::euclidean(set.clone(), k)
                .unwrap()
                .solve(&config)
                .unwrap();
            assert_same(&reused, &fresh, &ctx);
        }
        let (layouts, bytes) = shared.prepared_layouts();
        // OC solves read the 1-center layout, and their lower bound the
        // expected-point one.
        let expected = if config.rule() == AssignmentRule::OneCenter {
            2
        } else {
            1
        };
        assert_eq!(layouts, expected, "{}", config_name(&config));
        assert!(bytes > 0);
    }
}

fn config_name(config: &SolverConfig) -> String {
    format!(
        "{:?}/{}/{}",
        config.rule(),
        config.strategy().name(),
        config.assignment().name()
    )
}

#[test]
fn a_problem_builds_nothing_before_its_first_solve() {
    let problem = Problem::euclidean(instance(42, 30), 3).unwrap();
    assert_eq!(problem.prepared_layouts(), (0, 0));
    assert_eq!(problem.prepared_traversal_bytes(), 0);
    let clone = problem.with_k(5).unwrap();
    clone.solve(&SolverConfig::default()).unwrap();
    // The clone built the layout the original reads.
    assert_eq!(problem.prepared_layouts(), clone.prepared_layouts());
    assert_eq!(problem.prepared_layouts().0, 1);
    // Its traversal is shared too, and a solve at a larger k grows it
    // while the layout's own bytes stay put.
    let (layouts, walk) = (
        problem.prepared_layouts(),
        problem.prepared_traversal_bytes(),
    );
    assert!(walk > 0);
    assert_eq!(clone.prepared_traversal_bytes(), walk);
    problem
        .with_k(20)
        .unwrap()
        .solve(&SolverConfig::default())
        .unwrap();
    assert_eq!(problem.prepared_layouts(), layouts);
    assert!(problem.prepared_traversal_bytes() > walk);
}

#[test]
fn leave_one_out_variants_after_their_base_match_fresh_solves() {
    let set = instance(43, 24);
    let k = 4;
    // ED leaves the shared-store fast path, so every variant is a problem
    // over its reduced set, derived from the base problem after the base
    // solve built its layout.
    for rule in [
        AssignmentRule::ExpectedDistance,
        AssignmentRule::ExpectedPoint,
    ] {
        let config = config(rule, CertainStrategy::Gonzalez, AssignmentMode::Plain);
        let problem = Problem::euclidean(set.clone(), k).unwrap();
        problem.solve(&config).unwrap();
        let loo = solve_loo(&problem, &config).unwrap();
        for variant in &loo.variants {
            let mut points = set.points().to_vec();
            points.remove(variant.removed);
            let fresh = Problem::euclidean_points(points, k)
                .unwrap()
                .solve(&config)
                .unwrap();
            let ctx = format!("{rule:?} without {}", variant.removed);
            assert_eq!(variant.ecost.to_bits(), fresh.ecost.to_bits(), "{ctx}");
            assert_eq!(
                variant.certain_radius.to_bits(),
                fresh.certain_radius.to_bits(),
                "{ctx}"
            );
        }
    }
}

#[test]
fn warm_starts_after_their_base_match_fresh_warm_starts() {
    let config = SolverConfig::default();
    let base_set = instance(44, 60);
    let prior = Problem::euclidean(base_set.clone(), 5)
        .unwrap()
        .solve(&config)
        .unwrap();
    // An append the certificate accepts (a few copies of prefix points),
    // and one it rejects (far-away points), so both the warm path and its
    // cold fallback read a prepared layout.
    let mut near = base_set.points().to_vec();
    near.extend_from_slice(&base_set.points()[..3]);
    let mut far = base_set.points().to_vec();
    far.extend_from_slice(
        clustered(45, 4, 3, 2, 1, 1.0, 1.0, ProbModel::Random)
            .iter()
            .map(|up| {
                up.map_locations(|p| Point::new(p.coords().iter().map(|c| c + 1e3).collect()))
            })
            .collect::<Vec<_>>()
            .as_slice(),
    );
    for (name, points, warm) in [("near", near, true), ("far", far, false)] {
        let grown = Problem::euclidean_points(points.clone(), 5).unwrap();
        grown.solve(&config).unwrap();
        let after_base = Solution::warm_start(&grown, &config, &prior).unwrap();
        let fresh = Solution::warm_start(
            &Problem::euclidean_points(points, 5).unwrap(),
            &config,
            &prior,
        )
        .unwrap();
        assert_same(&after_base, &fresh, name);
        let stats = after_base.report.warm.as_ref().unwrap();
        assert_eq!(
            stats.fallback.is_none(),
            warm,
            "{name}: {:?}",
            stats.fallback
        );
    }
}
