//! The streaming subsystem's acceptance gates, in the style of
//! `tests/parallel_equivalence.rs`:
//!
//! 1. **accuracy** — streaming a 100k-point instance in chunks yields a
//!    solution whose expected cost is within the documented
//!    approximation factor of the full batch solve (EP rule, budget `k`:
//!    the doubling factor 8 substituted into Theorem 2.5's `2 + (1+ε)`
//!    gives 10);
//! 2. **memory** — the peak working set stays `budget + 1 + chunk`,
//!    sublinear in the stream length;
//! 3. **determinism** — stream digests are bit-identical across pool
//!    lane counts (`threads` 1 vs 4 — CI additionally re-runs the suite
//!    under `UKC_THREADS=1` and `4`) and across chunkings; the
//!    finalized solution is bit-identical too.

use uncertain_kcenter::prelude::*;

const N: usize = 100_000;
const K: usize = 8;
const CHUNK: usize = 4096;

fn big_stream() -> UncertainSet<Point> {
    clustered(4242, N, 2, 2, 10, 40.0, 2.0, ProbModel::Random)
}

fn config(threads: usize) -> SolverConfig {
    SolverConfig::builder()
        .rule(AssignmentRule::ExpectedPoint)
        .threads(threads)
        .lower_bound(false)
        .build()
        .expect("valid config")
}

/// Streams `set` through a solver in `CHUNK`-sized epochs.
fn stream_through(set: &UncertainSet<Point>, budget: usize, cfg: &SolverConfig) -> StreamSolver {
    let mut solver = StreamSolver::builder(K)
        .config(cfg.clone())
        .budget(budget)
        .build()
        .expect("k > 0");
    for chunk in set.points().chunks(CHUNK) {
        solver.push_chunk(chunk).expect("valid chunk");
    }
    solver
}

/// The exact expected cost of serving `set` with `centers` under the EP
/// rule — how the acceptance criterion scores streamed centers offline.
fn ep_cost(set: &UncertainSet<Point>, centers: &[Point]) -> f64 {
    let assignment = assign_ep(set, centers, &Euclidean);
    ecost_assigned(set, centers, &assignment, &Euclidean)
}

#[test]
fn streaming_100k_is_within_the_documented_factor_with_sublinear_memory() {
    let set = big_stream();
    let cfg = config(0);

    // The batch reference: the paper's pipeline over the full instance.
    let batch = Problem::euclidean(set.clone(), K)
        .expect("valid instance")
        .solve(&cfg)
        .expect("batch solve succeeds");

    // Budget = k is the classic doubling regime with the documented
    // end-to-end factor 10 (EP); the default 4k budget may only do
    // better thanks to its finer summary, so it gets the same gate.
    for budget in [K, uncertain_kcenter::stream::DEFAULT_BUDGET_PER_CENTER * K] {
        let solver = stream_through(&set, budget, &cfg);
        let solution = solver.solution().expect("non-empty stream");
        assert!(solution.centers.len() <= K);
        let streamed = ep_cost(&set, &solution.centers);
        assert!(
            streamed <= 10.0 * batch.ecost + 1e-9,
            "budget {budget}: streamed {streamed} vs batch {} exceeds the documented 10x",
            batch.ecost
        );

        // Memory: the working set is the summary plus one chunk buffer,
        // never the stream.
        let report = solver.report();
        assert_eq!(report.points, N as u64);
        assert!(
            report.memory_peak_points <= budget + 1 + CHUNK,
            "peak {} exceeds budget + chunk",
            report.memory_peak_points
        );
        assert!(report.memory_peak_points < N / 10);

        // The certified bracket holds for every streamed expected point.
        let worst_pbar = set
            .iter()
            .map(|up| {
                let pbar = expected_point(up);
                solution
                    .centers
                    .iter()
                    .map(|c| Euclidean.dist(&pbar, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0f64, f64::max);
        assert!(worst_pbar <= solution.radius_bound + 1e-9);
    }
}

#[test]
fn stream_digests_are_bit_identical_across_threads_kernels_and_chunkings() {
    // A 20k-point prefix keeps this determinism matrix fast.
    let set = UncertainSet::new(big_stream().points()[..20_000].to_vec());
    let mut digests = Vec::new();
    let mut summaries = Vec::new();
    for threads in [1usize, 4] {
        let solver = stream_through(&set, 4 * K, &config(threads));
        digests.push(solver.digest());
        summaries.push((threads, solver.summary().center_points()));
    }
    for d in &digests[1..] {
        assert_eq!(*d, digests[0], "digests diverged: {digests:?}");
    }
    // The digest equality is backed by literally identical summaries.
    for (threads, centers) in &summaries[1..] {
        assert_eq!(centers.len(), summaries[0].1.len());
        for (a, b) in centers.iter().zip(&summaries[0].1) {
            assert_eq!(a.coords(), b.coords(), "threads {threads}");
        }
    }

    // Chunking is ingestion plumbing, not state: any split of the same
    // stream evolves the same summary.
    let cfg = config(0);
    let by_487: u64 = {
        let mut solver = StreamSolver::builder(K)
            .config(cfg.clone())
            .budget(4 * K)
            .build()
            .unwrap();
        for chunk in set.points().chunks(487) {
            solver.push_chunk(chunk).unwrap();
        }
        solver.digest()
    };
    assert_eq!(by_487, digests[0]);

    // The finalized solution is thread-blind bit for bit (the
    // execution-layer contract).
    let sol1 = stream_through(&set, 4 * K, &config(1)).solution().unwrap();
    let sol4 = stream_through(&set, 4 * K, &config(4)).solution().unwrap();
    assert_eq!(sol1.certain_radius.to_bits(), sol4.certain_radius.to_bits());
    assert_eq!(sol1.centers.len(), sol4.centers.len());
    for (a, b) in sol1.centers.iter().zip(&sol4.centers) {
        assert_eq!(a.coords(), b.coords());
    }
}

#[test]
fn stream_solver_agrees_with_streaming_kcenter_at_budget_k() {
    // At budget = k the stream summary is the generic doubling summary,
    // so a StreamSolver and a `StreamingKCenter` fed the same expected
    // points keep the same centers, in the same order.
    let set = UncertainSet::new(big_stream().points()[..5_000].to_vec());
    let mut reference = StreamingKCenter::new(K);
    for up in set.iter() {
        reference.insert(expected_point(up), &Euclidean);
    }
    let solver = stream_through(&set, K, &config(1));
    let solution = solver.solution().expect("non-empty");
    assert_eq!(solution.centers.len(), reference.centers().len());
    for (a, b) in solution.centers.iter().zip(reference.centers()) {
        assert_eq!(a.coords(), b.coords());
    }
}
