//! The execution layer's determinism contract, end to end.
//!
//! `SolverConfig::threads` is a pure *resource* knob: every batched sweep
//! the pool parallelizes uses chunk boundaries and reduction orders that
//! are functions of input size alone, so solver output must be
//! **bit-identical** for `threads ∈ {1, 2, ncpu}` — solutions, per-stage
//! `Report.distance_evals`, certified lower bounds, instance digests,
//! and the serving layer's cache keys.
//!
//! The CI matrix re-runs the whole test suite under `UKC_THREADS=1` and
//! `UKC_THREADS=4`, so these assertions are exercised both with an empty
//! pool (every sweep inline) and with real workers claiming chunks.

use proptest::prelude::*;
use ukc_server::cache::SolveKey;
use uncertain_kcenter::prelude::*;

fn ncpu() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The lane counts every pinned quantity must agree across.
fn thread_grid() -> Vec<usize> {
    let mut grid = vec![1, 2, ncpu()];
    grid.dedup();
    grid
}

fn cfg(rule: AssignmentRule, strategy: CertainStrategy, threads: usize) -> SolverConfig {
    SolverConfig::builder()
        .rule(rule)
        .strategy(strategy)
        .eps(0.5)
        .threads(threads)
        .build()
        .expect("static test config")
}

/// Bitwise solution identity: floats by bit pattern, structures exactly.
fn assert_identical(a: &Solution<Point>, b: &Solution<Point>, ctx: &str) {
    assert_eq!(a.ecost.to_bits(), b.ecost.to_bits(), "ecost ({ctx})");
    assert_eq!(
        a.certain_radius.to_bits(),
        b.certain_radius.to_bits(),
        "radius ({ctx})"
    );
    assert_eq!(a.assignment, b.assignment, "assignment ({ctx})");
    assert_eq!(a.centers.len(), b.centers.len(), "center count ({ctx})");
    for (x, y) in a.centers.iter().zip(&b.centers) {
        assert_eq!(x.coords(), y.coords(), "center coords ({ctx})");
    }
    assert_eq!(
        a.report.lower_bound.map(f64::to_bits),
        b.report.lower_bound.map(f64::to_bits),
        "lower bound ({ctx})"
    );
    assert_eq!(a.report.method, b.report.method, "method ({ctx})");
    let (ea, eb) = (a.report.distance_evals, b.report.distance_evals);
    assert_eq!(ea.representatives, eb.representatives, "rep evals ({ctx})");
    assert_eq!(ea.certain_solve, eb.certain_solve, "certain evals ({ctx})");
    assert_eq!(ea.assignment, eb.assignment, "assignment evals ({ctx})");
    assert_eq!(ea.cost, eb.cost, "cost evals ({ctx})");
    assert_eq!(ea.lower_bound, eb.lower_bound, "bound evals ({ctx})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random small instances: every rule over the Gonzalez
    /// backend is bit-identical across the thread grid (output, eval
    /// counts, lower bounds, digests).
    #[test]
    fn threads_never_change_solutions(
        seed in 0u64..1000,
        n in 3usize..16,
        z in 1usize..4,
        dim in 1usize..4,
        k in 1usize..4,
    ) {
        let k = k.min(n);
        let set = clustered(seed, n, z, dim, 3, 5.0, 1.0, ProbModel::Random);
        for rule in [
            AssignmentRule::ExpectedDistance,
            AssignmentRule::ExpectedPoint,
            AssignmentRule::OneCenter,
        ] {
            let strategy = CertainStrategy::Gonzalez;
            let problem = Problem::euclidean(set.clone(), k).unwrap();
            let digest = problem.instance_digest();
            let baseline = problem.solve(&cfg(rule, strategy, 1)).unwrap();
            for threads in thread_grid() {
                let sol = problem.solve(&cfg(rule, strategy, threads)).unwrap();
                assert_identical(&baseline, &sol, &format!("{rule:?}/{strategy:?}/t{threads}"));
                prop_assert_eq!(problem.instance_digest(), digest);
            }
        }
    }

    /// The heavier backends (grid, local search, exact discrete) obey
    /// the same contract.
    #[test]
    fn threads_never_change_heavy_backends(seed in 0u64..300, n in 3usize..10) {
        let set = clustered(seed, n, 2, 2, 2, 4.0, 1.0, ProbModel::Uniform);
        for strategy in [
            CertainStrategy::Grid,
            CertainStrategy::GonzalezLocalSearch { rounds: 8 },
            CertainStrategy::ExactDiscrete,
        ] {
            let problem = Problem::euclidean(set.clone(), 2).unwrap();
            let baseline = problem
                .solve(&cfg(AssignmentRule::ExpectedPoint, strategy, 1))
                .unwrap();
            for threads in thread_grid() {
                let sol = problem
                    .solve(&cfg(AssignmentRule::ExpectedPoint, strategy, threads))
                    .unwrap();
                assert_identical(&baseline, &sol, &format!("{strategy:?}/t{threads}"));
            }
        }
    }

    /// Pool-backed batch fan-out is bit-identical to the sequential loop
    /// for any lane cap.
    #[test]
    fn batch_on_the_pool_is_bit_identical(seed in 0u64..200) {
        let config = cfg(
            AssignmentRule::ExpectedPoint,
            CertainStrategy::Gonzalez,
            0, // auto lanes inside each solve, on the same pool
        );
        let problems: Vec<Problem<Point>> = (0..6)
            .map(|i| {
                let set = clustered(seed + i, 9, 2, 2, 2, 4.0, 1.0, ProbModel::Random);
                Problem::euclidean(set, 2).unwrap()
            })
            .collect();
        let sequential = solve_batch_threads(&problems, &config, 1);
        for threads in [2usize, 4, ncpu()] {
            let pooled = solve_batch_threads(&problems, &config, threads);
            for (a, b) in sequential.iter().zip(&pooled) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_identical(a, b, &format!("batch t{threads}"));
            }
        }
    }
}

/// A large instance (well past the parallel kernels' row threshold, so
/// with a populated pool the sweeps really do fan out): Gonzalez, ED and
/// EP rules, pinned bitwise across the thread grid plus a
/// wider lane request than the machine has.
#[test]
fn large_instance_is_bitwise_identical_across_threads() {
    // ~12k store rows (6k locations + 6k representatives) at dim 3.
    let set = clustered(99, 6000, 1, 3, 4, 40.0, 2.0, ProbModel::Random);
    for rule in [
        AssignmentRule::ExpectedPoint,
        AssignmentRule::ExpectedDistance,
    ] {
        let problem = Problem::euclidean(set.clone(), 6).unwrap();
        let baseline = problem
            .solve(&cfg(rule, CertainStrategy::Gonzalez, 1))
            .unwrap();
        assert!(baseline.report.distance_evals.total() > 0);
        let mut grid = thread_grid();
        grid.push(4);
        grid.push(3 * ncpu()); // oversubscribed request: capped, not UB
        for threads in grid {
            let sol = problem
                .solve(&cfg(rule, CertainStrategy::Gonzalez, threads))
                .unwrap();
            assert_identical(&baseline, &sol, &format!("large/{rule:?}/t{threads}"));
        }
    }
}

/// An uncertain large instance through the OC rule exercises the
/// parallel cost sweep over multi-location points.
#[test]
fn large_uncertain_oc_solve_is_thread_invariant() {
    let set = clustered(7, 3000, 2, 2, 3, 25.0, 1.5, ProbModel::Random);
    let problem = Problem::euclidean(set, 4).unwrap();
    let baseline = problem
        .solve(&cfg(
            AssignmentRule::OneCenter,
            CertainStrategy::Gonzalez,
            1,
        ))
        .unwrap();
    for threads in [2usize, 4] {
        let sol = problem
            .solve(&cfg(
                AssignmentRule::OneCenter,
                CertainStrategy::Gonzalez,
                threads,
            ))
            .unwrap();
        assert_identical(&baseline, &sol, &format!("oc/t{threads}"));
    }
}

/// The serving layer's cache key is thread-blind: a solution computed at
/// any lane count serves requests at any other, because the digest and
/// the canonical config rendering exclude `threads`.
#[test]
fn cache_keys_and_digests_are_thread_blind() {
    let set = clustered(5, 14, 2, 2, 2, 4.0, 1.0, ProbModel::Random);
    let set_digest = ukc_core::digest_set(&set);
    let problem = Problem::euclidean(set, 3).unwrap();
    let digest = problem.instance_digest();
    let baseline_key = SolveKey::new(
        digest,
        set_digest,
        &cfg(AssignmentRule::ExpectedPoint, CertainStrategy::Gonzalez, 1),
    );
    for threads in [0usize, 2, 4, ncpu()] {
        let config = cfg(
            AssignmentRule::ExpectedPoint,
            CertainStrategy::Gonzalez,
            threads,
        );
        assert_eq!(problem.instance_digest(), digest, "t{threads}");
        assert_eq!(
            SolveKey::new(digest, set_digest, &config),
            baseline_key,
            "cache key must ignore threads (t{threads})"
        );
        // And the cached payload really would be interchangeable: the
        // solve at this lane count matches the threads=1 bits.
        let a = problem
            .solve(&cfg(
                AssignmentRule::ExpectedPoint,
                CertainStrategy::Gonzalez,
                1,
            ))
            .unwrap();
        let b = problem.solve(&config).unwrap();
        assert_eq!(a.ecost.to_bits(), b.ecost.to_bits(), "t{threads}");
        assert_eq!(a.assignment, b.assignment, "t{threads}");
    }
}
