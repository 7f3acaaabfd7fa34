//! Golden-equivalence suite for batch solving: `solve_batch` must return
//! **bit-identical** results to the sequential `Problem::solve` loop, for
//! any thread count, and surface per-problem errors in order. All float
//! comparisons here are exact (`to_bits`), not tolerance-based — the two
//! paths are required to be the same computation.

use std::sync::Arc;
use uncertain_kcenter::prelude::*;

fn assert_bits_eq(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

#[test]
fn solve_batch_is_bit_identical_to_sequential_euclidean() {
    let config = SolverConfig::builder()
        .rule(AssignmentRule::ExpectedPoint)
        .build()
        .unwrap();
    let problems: Vec<Problem<Point>> = (0..12)
        .map(|seed| {
            let set = clustered(
                seed,
                10 + seed as usize,
                3,
                2,
                2,
                4.0,
                1.0,
                ProbModel::Random,
            );
            Problem::euclidean(set, 2).unwrap()
        })
        .collect();
    let sequential: Vec<_> = problems.iter().map(|p| p.solve(&config)).collect();
    for threads in [2usize, 4, 8] {
        let batch = solve_batch_threads(&problems, &config, threads);
        assert_eq!(batch.len(), sequential.len());
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            let (b, s) = (b.as_ref().unwrap(), s.as_ref().unwrap());
            let ctx = format!("problem {i}, {threads} threads");
            assert_eq!(b.centers, s.centers, "centers: {ctx}");
            assert_eq!(b.assignment, s.assignment, "assignment: {ctx}");
            assert_bits_eq(b.ecost, s.ecost, &format!("ecost: {ctx}"));
            assert_eq!(
                b.report.lower_bound.map(f64::to_bits),
                s.report.lower_bound.map(f64::to_bits),
                "lower bound: {ctx}"
            );
        }
    }
}

#[test]
fn solve_batch_is_bit_identical_to_sequential_metric() {
    let fm = WeightedGraph::cycle(14, 1.0)
        .shortest_path_metric()
        .unwrap();
    let pool: Arc<[usize]> = Arc::from(fm.ids());
    let metric: Arc<dyn Metric<usize> + Send + Sync> = Arc::new(fm.clone());
    let config = SolverConfig::builder()
        .rule(AssignmentRule::OneCenter)
        .build()
        .unwrap();
    let problems: Vec<Problem<usize>> = (0..8)
        .map(|seed| {
            let set = on_finite_metric(seed, fm.len(), 6, 3, ProbModel::Random);
            Problem::in_metric_shared(set, 2, Arc::clone(&metric), Arc::clone(&pool)).unwrap()
        })
        .collect();
    let sequential: Vec<_> = problems.iter().map(|p| p.solve(&config)).collect();
    let batch = solve_batch_threads(&problems, &config, 4);
    for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
        let (b, s) = (b.as_ref().unwrap(), s.as_ref().unwrap());
        assert_eq!(b.centers, s.centers, "centers: problem {i}");
        assert_eq!(b.assignment, s.assignment, "assignment: problem {i}");
        assert_bits_eq(b.ecost, s.ecost, &format!("ecost: problem {i}"));
    }
}

#[test]
fn batch_surfaces_per_problem_errors_in_order() {
    let good = clustered(1, 6, 2, 2, 2, 4.0, 1.0, ProbModel::Random);
    // An EP-rule config against a discrete problem: the batch reports the
    // typed error in that slot without disturbing its neighbors.
    let fm = WeightedGraph::cycle(6, 1.0).shortest_path_metric().unwrap();
    let discrete = Problem::in_metric(
        on_finite_metric(3, fm.len(), 4, 2, ProbModel::Random),
        2,
        fm,
        (0..6).collect(),
    )
    .unwrap();
    let config = SolverConfig::builder()
        .rule(AssignmentRule::ExpectedPoint)
        .build()
        .unwrap();
    // Mixed batches are possible per-space; here both problems are
    // discrete so every slot fails the same way deterministically.
    let problems = vec![discrete.clone(), discrete];
    let results = solve_batch_threads(&problems, &config, 4);
    for r in &results {
        assert_eq!(
            r.as_ref().err(),
            Some(&SolveError::RuleUnsupported {
                rule: AssignmentRule::ExpectedPoint,
                space: "discrete"
            })
        );
    }
    // And a Euclidean problem under the same config succeeds.
    let ok = Problem::euclidean(good, 2).unwrap().solve(&config);
    assert!(ok.is_ok());
}
