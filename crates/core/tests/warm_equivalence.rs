//! Warm-start and leave-one-out equivalence against the cold reference
//! pipeline.
//!
//! The incremental layer's contract: warm results satisfy the same
//! approximation bounds as cold solves, fall back cold (typed, never an
//! error) on any structural mismatch, stay bit-identical across thread
//! counts, and leave-one-out variants agree exactly with `n`
//! independent cold solves of the reduced instances.

use ukc_core::{
    solve_batch_threads, solve_loo, AssignmentMode, AssignmentRule, CertainStrategy, Problem,
    Solution, SolverConfig,
};
use ukc_metric::Point;
use ukc_uncertain::generators::{clustered, ProbModel};
use ukc_uncertain::{distance_vars, expected_max, UncertainPoint, UncertainSet};

/// A clustered instance split into a base prefix and an appended tail
/// drawn around the same cluster sites, so warm starts genuinely accept.
fn split_instance(
    seed: u64,
    n_total: usize,
    n_base: usize,
    z: usize,
    clusters: usize,
) -> (UncertainSet<Point>, UncertainSet<Point>) {
    let full = clustered(seed, n_total, z, 2, clusters, 60.0, 0.8, ProbModel::Random);
    let points = full.points().to_vec();
    let base = UncertainSet::new(points[..n_base].to_vec());
    (base, full)
}

fn warm_of(solution: &Solution<Point>) -> &ukc_core::WarmStats {
    solution
        .report
        .warm
        .as_ref()
        .expect("warm_start always stamps WarmStats")
}

#[test]
fn warm_resolve_of_unchanged_instance_is_bit_identical_and_cheap() {
    let (_, full) = split_instance(11, 300, 300, 2, 5);
    let problem = Problem::euclidean(full, 5).unwrap();
    let config = SolverConfig::default();
    let cold = problem.solve(&config).unwrap();
    let warm = Solution::warm_start(&problem, &config, &cold).unwrap();

    let stats = warm_of(&warm);
    assert_eq!(stats.fallback, None);
    assert_eq!(stats.reused_centers, 5);
    assert!(stats.evals_saved > 0);
    assert!(stats.stages_skipped.contains(&"certain_solve"));

    assert_eq!(warm.ecost.to_bits(), cold.ecost.to_bits());
    assert_eq!(warm.certain_radius.to_bits(), cold.certain_radius.to_bits());
    assert_eq!(warm.assignment, cold.assignment);
    for (w, c) in warm.centers.iter().zip(&cold.centers) {
        assert_eq!(w.coords(), c.coords());
    }
    // The re-solve skipped the Θ(n·k) certain stage entirely.
    assert!(
        warm.report.distance_evals.total() * 3 < cold.report.distance_evals.total(),
        "warm spent {} evals, cold {}",
        warm.report.distance_evals.total(),
        cold.report.distance_evals.total()
    );
}

#[test]
fn warm_append_meets_cold_approximation_bounds() {
    let (base, full) = split_instance(23, 330, 300, 2, 6);
    let config = SolverConfig::default();
    let prior = Problem::euclidean(base, 6).unwrap().solve(&config).unwrap();
    let grown = Problem::euclidean(full, 6).unwrap();
    let warm = Solution::warm_start(&grown, &config, &prior).unwrap();
    let cold = grown.solve(&config).unwrap();

    let stats = warm_of(&warm);
    assert_eq!(stats.fallback, None, "append within clusters should accept");
    assert_eq!(stats.reused_centers, 6);

    // The separation certificate guarantees the reused centers stay a
    // factor-2 approximation on the representatives; cold Gonzalez's
    // radius lower-bounds the certain optimum, so warm ≤ 2 · cold.
    assert!(
        warm.certain_radius <= 2.0 * cold.certain_radius + 1e-9,
        "warm radius {} vs cold {}",
        warm.certain_radius,
        cold.certain_radius
    );
    // The exact expected cost is bracketed by the certified lower bound,
    // like every cold solve.
    let lb = cold.report.lower_bound.unwrap();
    assert!(warm.ecost >= lb - 1e-9);
    assert!(warm.ecost.is_finite() && warm.ecost > 0.0);
    // And the warm report's own lower bound is the same certificate.
    assert_eq!(
        warm.report.lower_bound.unwrap().to_bits(),
        lb.to_bits(),
        "the lower bound is a pure function of the instance"
    );
}

#[test]
fn warm_start_after_one_percent_append_saves_5x_on_100k_points() {
    // The acceptance workload: 100k points, 1% append, k = 16.
    let (base, full) = split_instance(1, 101_000, 100_000, 1, 16);
    let config = SolverConfig::builder().lower_bound(false).build().unwrap();
    let prior = Problem::euclidean(base, 16)
        .unwrap()
        .solve(&config)
        .unwrap();
    let grown = Problem::euclidean(full, 16).unwrap();
    let warm = Solution::warm_start(&grown, &config, &prior).unwrap();
    let cold = grown.solve(&config).unwrap();

    let stats = warm_of(&warm);
    assert_eq!(stats.fallback, None);
    let warm_evals = warm.report.distance_evals.total();
    let cold_evals = cold.report.distance_evals.total();
    assert!(
        cold_evals >= 5 * warm_evals,
        "warm must save ≥5×: warm {warm_evals}, cold {cold_evals}"
    );
    assert!(warm.certain_radius <= 2.0 * cold.certain_radius + 1e-9);
}

#[test]
fn warm_start_falls_back_on_perturbed_prefix() {
    let (base, full) = split_instance(31, 220, 200, 2, 4);
    let config = SolverConfig::default();
    let prior = Problem::euclidean(base, 4).unwrap().solve(&config).unwrap();

    // Perturb one prefix point: this is no longer an append.
    let mut points = full.points().to_vec();
    let perturbed = points[17].map_locations(|p| {
        let mut c = p.coords().to_vec();
        c[0] += 0.5;
        Point::new(c)
    });
    points[17] = perturbed;
    let perturbed_problem = Problem::euclidean_points(points, 4).unwrap();

    let warm = Solution::warm_start(&perturbed_problem, &config, &prior).unwrap();
    let stats = warm_of(&warm);
    assert_eq!(stats.fallback, Some("prefix_mismatch"));
    assert_eq!(stats.reused_centers, 0);

    // The fallback *is* the cold solve, bit for bit.
    let cold = perturbed_problem.solve(&config).unwrap();
    assert_eq!(warm.ecost.to_bits(), cold.ecost.to_bits());
    assert_eq!(warm.certain_radius.to_bits(), cold.certain_radius.to_bits());
    assert_eq!(warm.assignment, cold.assignment);
}

#[test]
fn warm_start_falls_back_on_structural_mismatches() {
    let (base, full) = split_instance(41, 120, 100, 2, 4);
    let config = SolverConfig::default();
    let prior = Problem::euclidean(base.clone(), 4)
        .unwrap()
        .solve(&config)
        .unwrap();
    let grown = Problem::euclidean(full, 4).unwrap();

    // Unsupported rule.
    let ed = SolverConfig::builder()
        .rule(AssignmentRule::ExpectedDistance)
        .build()
        .unwrap();
    let warm = Solution::warm_start(&grown, &ed, &prior).unwrap();
    assert_eq!(warm_of(&warm).fallback, Some("config_unsupported"));

    // k mismatch.
    let k3 = Problem::euclidean(base, 3).unwrap();
    let prior_k3 = k3.solve(&config).unwrap();
    let warm = Solution::warm_start(&grown, &config, &prior_k3).unwrap();
    assert_eq!(warm_of(&warm).fallback, Some("k_mismatch"));

    // A prior larger than the problem is not a prefix.
    let shrunk =
        Problem::euclidean(UncertainSet::new(grown.set().points()[..50].to_vec()), 4).unwrap();
    let grown_prior = grown.solve(&config).unwrap();
    let warm = Solution::warm_start(&shrunk, &config, &grown_prior).unwrap();
    assert_eq!(warm_of(&warm).fallback, Some("prior_shape"));
}

#[test]
fn warm_results_are_bit_identical_across_threads_and_count_stable_across_kernels() {
    let (base, full) = split_instance(53, 260, 240, 2, 5);
    let mut per_thread = Vec::new();
    for threads in [1usize, 4] {
        let config = SolverConfig::builder().threads(threads).build().unwrap();
        let prior = Problem::euclidean(base.clone(), 5)
            .unwrap()
            .solve(&config)
            .unwrap();
        let grown = Problem::euclidean(full.clone(), 5).unwrap();
        let warm = Solution::warm_start(&grown, &config, &prior).unwrap();
        assert_eq!(warm_of(&warm).fallback, None, "{threads} threads");
        per_thread.push((
            warm.ecost.to_bits(),
            warm.certain_radius.to_bits(),
            warm.assignment.clone(),
            warm.report.distance_evals.total(),
        ));
    }
    // Lanes change neither a bit nor which pairs are evaluated.
    assert_eq!(
        per_thread[0], per_thread[1],
        "thread count leaked into warm output"
    );
}

#[test]
fn lower_bound_is_bit_identical_on_every_path_at_d8() {
    // d = 8 and n > 2048 once put Gonzalez's passes on the tiled
    // kernel's own arithmetic; the certain half's radius must come out the
    // same on every path.
    let full = clustered(71, 2600, 2, 8, 6, 60.0, 0.8, ProbModel::Random);
    let base = UncertainSet::new(full.points()[..2500].to_vec());
    let grown = Problem::euclidean(full.clone(), 6).unwrap();
    let config = |threads: usize| SolverConfig::builder().threads(threads).build().unwrap();
    let cold = grown.solve(&config(1)).unwrap();
    let lb = cold.report.lower_bound.unwrap();
    assert!(lb <= cold.ecost);
    let evals = cold.report.distance_evals.lower_bound;
    assert!(evals >= full.total_locations() as u64);
    let prior = Problem::euclidean(base.clone(), 6)
        .unwrap()
        .solve(&config(1))
        .unwrap();
    for threads in [1usize, 4] {
        let warm = Solution::warm_start(&grown, &config(threads), &prior).unwrap();
        assert_eq!(warm_of(&warm).fallback, None);
        assert_eq!(
            warm.report.lower_bound.unwrap().to_bits(),
            lb.to_bits(),
            "warm vs cold, {threads} threads"
        );
        assert_eq!(warm.report.distance_evals.lower_bound, evals);
        let again = grown.solve(&config(threads)).unwrap();
        assert_eq!(
            again.report.lower_bound.unwrap().to_bits(),
            lb.to_bits(),
            "cold, {threads} threads"
        );
    }
    let batch = solve_batch_threads(&[grown.clone(), grown.clone()], &config(1), 2);
    for solution in batch {
        assert_eq!(
            solution.unwrap().report.lower_bound.unwrap().to_bits(),
            lb.to_bits(),
            "batch"
        );
    }
    // Every rule, strategy and assignment mode reports the same bound
    // (local search reruns Gonzalez exactly like grid; it is left out
    // because its n² swap search is slow at this size).
    let variants = [
        SolverConfig::builder().rule(AssignmentRule::ExpectedDistance),
        SolverConfig::builder().rule(AssignmentRule::OneCenter),
        SolverConfig::builder().strategy(CertainStrategy::Grid),
        SolverConfig::builder().assignment(AssignmentMode::AdditivelyWeighted),
    ];
    for builder in variants {
        let solution = grown.solve(&builder.build().unwrap()).unwrap();
        assert_eq!(
            solution.report.lower_bound.unwrap().to_bits(),
            lb.to_bits(),
            "{}",
            solution.report.method
        );
    }
}

/// The cold reference for one leave-one-out variant: an independent
/// solve of the instance with point `i` removed.
fn cold_variant(
    set: &UncertainSet<Point>,
    k: usize,
    config: &SolverConfig,
    i: usize,
) -> Solution<Point> {
    let points: Vec<UncertainPoint<Point>> = set
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(_, up)| up.clone())
        .collect();
    Problem::euclidean_points(points, k)
        .unwrap()
        .solve(config)
        .unwrap()
}

#[test]
fn loo_variants_match_independent_cold_solves_bit_exactly() {
    let set = clustered(67, 60, 2, 2, 4, 40.0, 0.8, ProbModel::Random);
    let problem = Problem::euclidean(set.clone(), 4).unwrap();
    let config = SolverConfig::default();
    let loo = solve_loo(&problem, &config).unwrap();

    assert_eq!(loo.variants.len(), 60);
    assert!(loo.reused_variants >= 60 - 2 * 4, "most variants reuse");
    assert_eq!(loo.reused_variants + loo.resolved_variants, 60);

    let mut independent_evals = 0u64;
    for variant in &loo.variants {
        let cold = cold_variant(&set, 4, &config, variant.removed);
        independent_evals += cold.report.distance_evals.total();
        assert_eq!(
            variant.ecost.to_bits(),
            cold.ecost.to_bits(),
            "variant {} (reused: {})",
            variant.removed,
            variant.reused
        );
        assert_eq!(
            variant.certain_radius.to_bits(),
            cold.certain_radius.to_bits(),
            "variant {} (reused: {})",
            variant.removed,
            variant.reused
        );
    }
    // Sharing one store and one base solution beats n cold solves.
    assert!(
        loo.distance_evals * 3 < independent_evals,
        "loo spent {} evals, n cold solves {}",
        loo.distance_evals,
        independent_evals
    );
    // Reused variants are free on top of the shared sweeps.
    assert!(loo
        .variants
        .iter()
        .all(|v| !v.reused || v.distance_evals == 0));
}

#[test]
fn reused_loo_variants_fold_the_explicitly_reduced_variables() {
    let set = clustered(73, 80, 3, 2, 4, 40.0, 0.8, ProbModel::Random);
    let problem = Problem::euclidean(set.clone(), 5).unwrap();
    let loo = solve_loo(&problem, &SolverConfig::default()).unwrap();
    let dists = loo.base.cost_distances.as_ref().unwrap().all();
    let vars = distance_vars(set.points(), dists);
    let mut reused = 0;
    for variant in loo.variants.iter().filter(|v| v.reused) {
        let mut reduced = vars.clone();
        reduced.remove(variant.removed);
        assert_eq!(
            variant.ecost.to_bits(),
            expected_max(&reduced).to_bits(),
            "variant {}",
            variant.removed
        );
        reused += 1;
    }
    assert!(reused >= 80 - 2 * 5, "most variants reuse, got {reused}");
}

#[test]
fn loo_is_deterministic_across_threads_and_kernels() {
    let set = clustered(71, 40, 2, 3, 3, 30.0, 0.6, ProbModel::Random);
    let problem = Problem::euclidean(set, 3).unwrap();
    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let config = SolverConfig::builder().threads(threads).build().unwrap();
        let loo = solve_loo(&problem, &config).unwrap();
        runs.push(
            loo.variants
                .iter()
                .map(|v| (v.ecost.to_bits(), v.certain_radius.to_bits(), v.reused))
                .collect::<Vec<_>>(),
        );
    }
    // The lane count does not leak into a variant.
    assert!(runs.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn loo_general_fallback_covers_other_rules() {
    let set = clustered(83, 24, 2, 2, 3, 25.0, 0.7, ProbModel::Random);
    let problem = Problem::euclidean(set.clone(), 3).unwrap();
    let config = SolverConfig::builder()
        .rule(AssignmentRule::ExpectedDistance)
        .build()
        .unwrap();
    let loo = solve_loo(&problem, &config).unwrap();
    assert_eq!(loo.reused_variants, 0);
    assert_eq!(loo.resolved_variants, 24);
    for variant in &loo.variants {
        let cold = cold_variant(&set, 3, &config, variant.removed);
        assert_eq!(variant.ecost.to_bits(), cold.ecost.to_bits());
        assert_eq!(
            variant.certain_radius.to_bits(),
            cold.certain_radius.to_bits()
        );
    }
}

#[test]
fn loo_rejects_instances_too_small_to_lose_a_point() {
    let set = clustered(91, 3, 1, 2, 3, 10.0, 0.5, ProbModel::Uniform);
    let problem = Problem::euclidean(set, 3).unwrap();
    let err = solve_loo(&problem, &SolverConfig::default()).unwrap_err();
    assert!(matches!(
        err,
        ukc_core::SolveError::KExceedsN { k: 3, n: 2 }
    ));
}
