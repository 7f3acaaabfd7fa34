//! Cross-crate integration tests: the full pipeline against independent
//! oracles (realization enumeration, Monte Carlo, metric embeddings).

use rand::rngs::StdRng;
use rand::SeedableRng;
use uncertain_kcenter::prelude::*;
use uncertain_kcenter::uncertain::{ecost_assigned_enumerate, ecost_unassigned_enumerate};

/// One Euclidean solve through the `Problem` API with a (rule, default
/// Gonzalez) config and no per-solve bound.
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
    Problem::euclidean(set.clone(), k.min(set.n()))
        .expect("test instances are valid")
        .solve(&config)
        .expect("euclidean pipeline accepts every test config")
}

/// One grid-strategy solve at a given ε.
#[allow(dead_code)]
fn solve_eu_grid(
    set: &UncertainSet<Point>,
    k: usize,
    rule: AssignmentRule,
    eps: f64,
) -> Solution<Point> {
    let config = SolverConfig::builder()
        .rule(rule)
        .strategy(CertainStrategy::Grid)
        .eps(eps)
        .lower_bound(false)
        .build()
        .expect("static test config");
    Problem::euclidean(set.clone(), k)
        .expect("test instances are valid")
        .solve(&config)
        .expect("euclidean pipeline accepts every test config")
}

/// One metric-space solve through the `Problem` API.
#[allow(dead_code)]
fn solve_me<M: Metric<usize> + Send + Sync + Clone + 'static>(
    set: &UncertainSet<usize>,
    k: usize,
    rule: AssignmentRule,
    strategy: CertainStrategy,
    pool: &[usize],
    metric: &M,
) -> Solution<usize> {
    let config = SolverConfig::builder()
        .rule(rule)
        .strategy(strategy)
        .lower_bound(false)
        .build()
        .expect("static test config");
    Problem::in_metric(set.clone(), k, metric.clone(), pool.to_vec())
        .expect("test instances are valid")
        .solve(&config)
        .expect("metric pipeline accepts ED/OC rules")
}

#[test]
fn exact_cost_matches_enumeration_through_full_pipeline() {
    for seed in 0..6u64 {
        let set = clustered(seed, 5, 3, 2, 2, 5.0, 1.0, ProbModel::Random);
        let sol = solve_eu(&set, 2, AssignmentRule::ExpectedDistance);
        let enumerated = ecost_assigned_enumerate(&set, &sol.centers, &sol.assignment, &Euclidean);
        assert!(
            (sol.ecost - enumerated).abs() < 1e-9,
            "seed {seed}: sweep {} vs enumeration {enumerated}",
            sol.ecost
        );
    }
}

#[test]
fn exact_cost_matches_monte_carlo_through_full_pipeline() {
    let set = clustered(3, 20, 4, 2, 3, 5.0, 1.5, ProbModel::HeavyTail);
    let sol = solve_eu(&set, 3, AssignmentRule::ExpectedPoint);
    let mut rng = StdRng::seed_from_u64(123);
    let mc = ecost_monte_carlo(
        &set,
        &sol.centers,
        Some(&sol.assignment),
        &Euclidean,
        200_000,
        &mut rng,
    );
    assert!(
        (mc.mean - sol.ecost).abs() < 6.0 * mc.std_error + 1e-3,
        "exact {} vs MC {} ± {}",
        sol.ecost,
        mc.mean,
        mc.std_error
    );
}

#[test]
fn euclidean_instance_embedded_as_finite_metric_gives_consistent_costs() {
    // Embed all locations into a FiniteMetric and re-run the metric
    // pipeline; expected costs of identical (centers, assignment) must
    // agree exactly.
    let set = clustered(7, 6, 3, 2, 2, 5.0, 1.0, ProbModel::Random);
    let pool = set.location_pool();
    let fm = FiniteMetric::from_points(&pool, &Euclidean);
    // Rebuild the uncertain set over ids: location j of point i is at
    // pool index (sum of z's before i) + j.
    let mut offset = 0usize;
    let id_points: Vec<UncertainPoint<usize>> = set
        .iter()
        .map(|up| {
            let ids: Vec<usize> = (0..up.z()).map(|j| offset + j).collect();
            offset += up.z();
            UncertainPoint::new(ids, up.probs().to_vec()).unwrap()
        })
        .collect();
    let id_set = UncertainSet::new(id_points);
    let ids: Vec<usize> = (0..pool.len()).collect();

    // Same centers: pick 2 pool members.
    let centers_euclid = vec![pool[0].clone(), pool[7].clone()];
    let centers_ids = vec![0usize, 7usize];
    let assignment = assign_ed(&set, &centers_euclid, None, &Euclidean, Exec::sequential());
    let assignment_ids = assign_ed(&id_set, &centers_ids, None, &fm, Exec::sequential());
    assert_eq!(assignment, assignment_ids, "ED assignment must agree");

    let cost_euclid = ecost_assigned(&set, &centers_euclid, &assignment, &Euclidean);
    let cost_ids = ecost_assigned(&id_set, &centers_ids, &assignment_ids, &fm);
    assert!((cost_euclid - cost_ids).abs() < 1e-9);

    // Lower bounds agree too (over the same discrete pool).
    let lb_ids = lower_bound_metric(&id_set, 2, &ids, &fm);
    let sol = solve_me(
        &id_set,
        2,
        AssignmentRule::ExpectedDistance,
        CertainStrategy::Gonzalez,
        &ids,
        &fm,
    );
    assert!(lb_ids <= sol.ecost + 1e-9);
}

#[test]
fn more_centers_never_increase_cost() {
    let set = clustered(9, 24, 3, 2, 4, 5.0, 1.0, ProbModel::Random);
    let mut prev = f64::INFINITY;
    for k in 1..=6 {
        let sol = solve_eu_with(
            &set,
            k,
            AssignmentRule::ExpectedPoint,
            CertainStrategy::GonzalezLocalSearch { rounds: 20 },
        );
        // Local search is not globally monotone in k, but the trend must
        // hold with slack: k+1 centers never cost more than 1.5x the k
        // solution on these workloads, and the k=6 cost beats k=1.
        assert!(
            sol.ecost <= prev * 1.5 + 1e-9,
            "k={k}: {} vs prev {prev}",
            sol.ecost
        );
        prev = prev.min(sol.ecost);
    }
    let k1 = solve_eu(&set, 1, AssignmentRule::ExpectedPoint);
    let k6 = solve_eu(&set, 6, AssignmentRule::ExpectedPoint);
    assert!(k6.ecost <= k1.ecost + 1e-9);
}

#[test]
fn unassigned_cost_lower_bounds_assigned_cost_end_to_end() {
    for seed in 0..5u64 {
        let set = uniform_box(seed, 10, 3, 2, 20.0, 2.0, ProbModel::Random);
        let sol = solve_eu(&set, 3, AssignmentRule::ExpectedDistance);
        let unassigned = ecost_unassigned(&set, &sol.centers, &Euclidean);
        assert!(
            unassigned <= sol.ecost + 1e-9,
            "seed {seed}: unassigned {} > assigned {}",
            unassigned,
            sol.ecost
        );
        let enumerated = ecost_unassigned_enumerate(&set, &sol.centers, &Euclidean);
        assert!((unassigned - enumerated).abs() < 1e-9);
    }
}

#[test]
fn one_d_solver_agrees_with_generic_pipeline_on_easy_instances() {
    // Two well-separated clusters on a line: both solvers must find the
    // same (trivially optimal) clustering.
    let mk = |base: f64| -> Vec<UncertainPoint<Point>> {
        (0..4)
            .map(|i| {
                UncertainPoint::new(
                    vec![
                        Point::scalar(base + i as f64 * 0.2),
                        Point::scalar(base + i as f64 * 0.2 + 0.4),
                    ],
                    vec![0.5, 0.5],
                )
                .unwrap()
            })
            .collect()
    };
    let mut pts = mk(0.0);
    pts.extend(mk(1000.0));
    let set = UncertainSet::new(pts);
    let exact = solve_one_d(&set, 2);
    let generic = solve_eu(&set, 2, AssignmentRule::ExpectedDistance);
    assert!(exact.ecost_ed < 10.0);
    assert!(generic.ecost < 10.0);
    // Identical cluster structure.
    assert_eq!(exact.assignment[..4], exact.assignment[..4]);
    assert!(exact.assignment[..4]
        .iter()
        .all(|&a| a == exact.assignment[0]));
    assert!(exact.assignment[4..]
        .iter()
        .all(|&a| a == exact.assignment[4]));
}

#[test]
fn tree_and_graph_metrics_interoperate_with_solver() {
    // The same tree as a TreeMetric and as a graph closure: identical
    // pipeline outputs.
    let edges = [
        (0usize, 1usize, 2.0f64),
        (1, 2, 1.0),
        (1, 3, 3.0),
        (3, 4, 1.0),
        (0, 5, 2.5),
    ];
    let tm = TreeMetric::from_edges(6, &edges).unwrap();
    let mut g = WeightedGraph::new(6);
    for &(u, v, w) in &edges {
        g.add_edge(u, v, w).unwrap();
    }
    let fm = g.shortest_path_metric().unwrap();
    let set = on_finite_metric(5, 6, 5, 2, ProbModel::Random);
    let ids: Vec<usize> = (0..6).collect();
    let sol_tree = solve_me(
        &set,
        2,
        AssignmentRule::OneCenter,
        CertainStrategy::Gonzalez,
        &ids,
        &tm,
    );
    let sol_graph = solve_me(
        &set,
        2,
        AssignmentRule::OneCenter,
        CertainStrategy::Gonzalez,
        &ids,
        &fm,
    );
    assert_eq!(sol_tree.centers, sol_graph.centers);
    assert_eq!(sol_tree.assignment, sol_graph.assignment);
    assert!((sol_tree.ecost - sol_graph.ecost).abs() < 1e-9);
}

#[test]
fn baselines_and_paper_algorithms_share_cost_semantics() {
    // Feeding the baseline's centers through the core cost function must
    // reproduce the baseline's reported cost.
    let set = clustered(11, 10, 3, 2, 2, 5.0, 1.0, ProbModel::Random);
    let b = mode_baseline(&set, 2, &Euclidean);
    let recomputed = ecost_assigned(&set, &b.centers, &b.assignment, &Euclidean);
    assert!((b.ecost - recomputed).abs() < 1e-12);
}

#[test]
fn euclidean_pipeline_produces_k_centers() {
    let set = clustered(1, 20, 3, 2, 3, 4.0, 0.5, ProbModel::Random);
    for rule in [
        AssignmentRule::ExpectedDistance,
        AssignmentRule::ExpectedPoint,
        AssignmentRule::OneCenter,
    ] {
        let sol = solve_eu(&set, 3, rule);
        assert_eq!(sol.centers.len(), 3);
        assert_eq!(sol.assignment.len(), 20);
        assert!(sol.ecost.is_finite() && sol.ecost >= 0.0);
        assert_eq!(sol.set.n(), 20);
    }
}

#[test]
fn better_certain_solver_never_hurts_certain_radius() {
    // Exact ≤ local search ≤ Gonzalez on the representatives.
    let set = clustered(2, 15, 3, 2, 3, 4.0, 0.5, ProbModel::Uniform);
    let radius =
        |strategy| solve_eu_with(&set, 3, AssignmentRule::ExpectedPoint, strategy).certain_radius;
    let gz = radius(CertainStrategy::Gonzalez);
    let ls = radius(CertainStrategy::GonzalezLocalSearch { rounds: 50 });
    let ex = radius(CertainStrategy::ExactDiscrete);
    assert!(ls <= gz + 1e-12);
    assert!(ex <= ls + 1e-12);
}

#[test]
fn metric_exact_solver_beats_greedy_certain_radius() {
    // General metric: exact ≤ Gonzalez over the location pool.
    let fm = WeightedGraph::cycle(12, 1.0)
        .shortest_path_metric()
        .unwrap();
    let set = on_finite_metric(5, fm.len(), 6, 2, ProbModel::Uniform);
    let pool = set.location_pool();
    let radius = |strategy| {
        solve_me(&set, 2, AssignmentRule::OneCenter, strategy, &pool, &fm).certain_radius
    };
    assert!(radius(CertainStrategy::ExactDiscrete) <= radius(CertainStrategy::Gonzalez) + 1e-12);
}

#[test]
fn separated_clusters_get_separated_centers() {
    // Two clusters 100 apart; any sensible pipeline separates them and
    // the expected cost is on the cluster scale, not the gap scale.
    let mk = |base: f64, seed: u64| {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..5)
            .map(|_| {
                let nominal = base + rnd() * 2.0;
                UncertainPoint::new(
                    vec![Point::scalar(nominal - 0.5), Point::scalar(nominal + 0.5)],
                    vec![0.5, 0.5],
                )
                .unwrap()
            })
            .collect::<Vec<_>>()
    };
    let mut pts = mk(0.0, 3);
    pts.extend(mk(100.0, 4));
    let set = UncertainSet::new(pts);
    let sol = solve_eu(&set, 2, AssignmentRule::ExpectedDistance);
    assert!(
        sol.ecost < 10.0,
        "ecost {} should be cluster-scale",
        sol.ecost
    );
    // Points 0..5 share a center; points 5..10 share the other.
    assert!(sol.assignment[..5].iter().all(|&a| a == sol.assignment[0]));
    assert!(sol.assignment[5..].iter().all(|&a| a == sol.assignment[5]));
    assert_ne!(sol.assignment[0], sol.assignment[5]);
}

#[test]
fn metric_pipeline_on_graph() {
    let fm = WeightedGraph::grid(4, 5, 1.0)
        .shortest_path_metric()
        .unwrap();
    let set = on_finite_metric(7, fm.len(), 8, 3, ProbModel::Random);
    let pool = set.location_pool();
    for rule in [AssignmentRule::ExpectedDistance, AssignmentRule::OneCenter] {
        let sol = solve_me(&set, 2, rule, CertainStrategy::Gonzalez, &pool, &fm);
        assert_eq!(sol.centers.len(), 2);
        assert!(sol.ecost.is_finite() && sol.ecost >= 0.0);
        // Centers drawn from the pool.
        assert!(sol.centers.iter().all(|c| pool.contains(c)));
    }
}

#[test]
fn certain_points_collapse_to_deterministic_kcenter() {
    // With certain points the pipeline must equal deterministic
    // k-center: representatives are the points themselves.
    let set = UncertainSet::new(
        [0.0, 1.0, 10.0, 11.0]
            .iter()
            .map(|&x| UncertainPoint::certain(Point::scalar(x)))
            .collect(),
    );
    let sol = solve_eu_with(
        &set,
        2,
        AssignmentRule::ExpectedPoint,
        CertainStrategy::ExactDiscrete,
    );
    // Optimal deterministic assignment splits {0,1} and {10,11} with
    // max distance 1 from a chosen location; expected cost equals the
    // deterministic cost.
    assert!(sol.ecost <= 1.0 + 1e-9, "ecost {}", sol.ecost);
}

#[test]
fn k_one_all_assigned_to_single_center() {
    let set = clustered(5, 8, 2, 2, 2, 3.0, 0.5, ProbModel::Random);
    let sol = solve_eu(&set, 1, AssignmentRule::ExpectedDistance);
    assert_eq!(sol.centers.len(), 1);
    assert!(sol.assignment.iter().all(|&a| a == 0));
}
