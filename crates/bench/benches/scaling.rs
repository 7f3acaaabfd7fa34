//! Criterion version of the EXPERIMENTS.md scaling studies S1/S2: the
//! O(z) expected point and the O(nz + nk) pipeline, plus the
//! `kernel_comparison` group timing Gonzalez sweeps and the fused
//! nearest-center assignment, the latter under both distance kernels —
//! the numbers behind `BENCH_kernel.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;
use ukc_bench::workloads::euclidean;
use ukc_core::{solve_batch_threads, AssignmentRule, Problem, SolverConfig};
use ukc_json::Json;
use ukc_kcenter::gonzalez;
use ukc_metric::batch::{self, Kernel};
use ukc_metric::{DistCounter, Point, PointId, PointStore, StoreOracle};
use ukc_pool::Exec;
use ukc_uncertain::expected_point;
use ukc_uncertain::generators::{clustered, ProbModel};

fn config() -> SolverConfig {
    SolverConfig::builder()
        .rule(AssignmentRule::ExpectedPoint)
        .lower_bound(false)
        .build()
        .expect("static bench config")
}

fn bench_s1(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling_s1_expected_point");
    g.sample_size(30);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1200));
    for z in [16usize, 64, 256, 1024, 4096] {
        let set = euclidean(1, z);
        g.throughput(Throughput::Elements(z as u64));
        g.bench_with_input(BenchmarkId::from_parameter(z), set.point(0), |b, up| {
            b.iter(|| expected_point(black_box(up)))
        });
    }
    g.finish();
}

fn bench_s2(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling_s2_pipeline");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1200));
    let cfg = config();
    for n in [128usize, 512, 2048] {
        let problem = Problem::euclidean(euclidean(n, 4), 8).expect("valid workload");
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &problem, |b, p| {
            b.iter(|| black_box(p).solve(&cfg).expect("bench config is valid"))
        });
    }
    g.finish();
}

/// Batch throughput: `solve_batch` fan-out vs the sequential loop over
/// the same 16 problems.
fn bench_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling_batch_throughput");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1500));
    let cfg = config();
    let problems: Vec<Problem<ukc_metric::Point>> = (0..16)
        .map(|i| Problem::euclidean(euclidean(256 + i, 4), 8).expect("valid workload"))
        .collect();
    g.throughput(Throughput::Elements(problems.len() as u64));
    g.bench_function("sequential_16x256", |b| {
        b.iter(|| solve_batch_threads(black_box(&problems), &cfg, 1))
    });
    for threads in [2usize, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| b.iter(|| solve_batch_threads(black_box(&problems), &cfg, threads)),
        );
    }
    g.finish();
}

/// Deterministic coordinate cloud as a [`PointStore`].
fn coord_store(seed: u64, n: usize, d: usize) -> PointStore {
    let mut s = seed | 1;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new((0..d).map(|_| rnd() * 100.0 - 50.0).collect()))
        .collect();
    PointStore::from_points(&pts)
}

const KERNEL_K: usize = 8;

/// Centers of the clustered Gonzalez rows: the middle of the perfbench
/// workloads' `k` range.
const CLUSTERED_K: usize = 64;

/// Timed runs per recorded `BENCH_kernel.json` row (the row is their
/// median); odd, so the median is one of the runs.
const KERNEL_REPS: usize = 11;

/// The expected points of perfbench's instances — `clustered` over 32
/// sites, seed 1 — as a [`PointStore`]: the rows a default solve's
/// Gonzalez passes run over.
fn clustered_store(n: usize, z: usize, d: usize) -> PointStore {
    let set = clustered(1, n, z, d, 32, 4.0, 1.0, ProbModel::Random);
    let reps: Vec<Point> = set.iter().map(expected_point).collect();
    PointStore::from_points(&reps)
}

/// One Gonzalez solve (k center passes, which also yield the radius)
/// over the store; returns the radius so the work cannot be elided.
fn gonzalez_store(
    store: &PointStore,
    ids: &[PointId],
    k: usize,
    counter: Option<&DistCounter>,
) -> f64 {
    let oracle = StoreOracle::new(store);
    let oracle = match counter {
        Some(c) => oracle.with_counter(c),
        None => oracle,
    };
    gonzalez(ids, k, &oracle, 0).radius
}

/// One fused nearest-center assignment sweep (`nearest_each`, the
/// register-tiled kernel's home turf) over `k` spread centers under
/// `kernel`, counted one evaluation per pair; returns the max distance
/// so the work cannot be elided.
fn assign_store(
    store: &PointStore,
    ids: &[PointId],
    centers: &[PointId],
    kernel: Kernel,
    counter: Option<&DistCounter>,
    out: &mut [(usize, f64)],
) -> f64 {
    let seq = Exec::sequential();
    batch::nearest_center_each(store, ids, centers, None, kernel, seq, out);
    if let Some(c) = counter {
        c.add((ids.len() * centers.len()) as u64);
    }
    out.iter().map(|&(_, d)| d).fold(0.0, f64::max)
}

/// Kernel throughput across the (workload, n, d) matrix of the
/// perf-tracking acceptance grid: `gonzalez` (sequential center passes,
/// memory-bandwidth-bound at large n, over uniform points) and `assign`
/// (the fused n×k mini-GEMM sweep where register tiling pays off), plus
/// `gonzalez_clustered` at the shapes of perfbench's `serve_mix`
/// (n = 6k, d = 32) and `cold_solve` (n = 2.5k, d = 8) expected points,
/// where the passes' triangle-inequality pruning skips most rows.
/// Gonzalez's passes run the scalar loop, so the Gonzalez workloads are
/// timed once and recorded as `scalar`; `assign` is timed under both
/// batch kernels.
///
/// A row's `pair_evals` are the distances the run evaluated and
/// `pruned_evals` the pairs it skipped, both read off a [`DistCounter`]
/// in one counted run; `evals_per_sec` divides the evaluated pairs by
/// the time.
///
/// Setting `BENCH_KERNEL_JSON=1` additionally runs a manual timing sweep
/// and rewrites the version-controlled `BENCH_kernel.json` at the
/// workspace root; without it the committed trajectory file is left
/// untouched (quick/filtered runs must not clobber it). Each recorded row
/// is the median of [`KERNEL_REPS`] timed runs, and every rep times a
/// workload's kernels back to back, so a slow stretch on a shared host
/// hits both kernels of a cell rather than one.
fn bench_kernel_comparison(c: &mut Criterion) {
    let quick = std::env::var_os("CRITERION_QUICK").is_some();
    let record = std::env::var_os("BENCH_KERNEL_JSON").is_some();
    let reps = if quick { 1 } else { KERNEL_REPS };
    let mut g = c.benchmark_group("kernel_comparison");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.measurement_time(std::time::Duration::from_millis(800));
    let mut results: Vec<Json> = Vec::new();
    // (workloads, k, store), each store built when its turn comes.
    let grid = [1_000usize, 10_000, 100_000]
        .into_iter()
        .filter(|&n| !quick || n <= 1_000) // smoke runs only cover the small tier
        .flat_map(|n| [2usize, 8, 32].map(|d| (n, d)))
        .map(|(n, d)| (&["gonzalez", "assign"][..], KERNEL_K, coord_store(42, n, d)));
    let clustered = [(6_000, 2, 32), (2_500, 4, 8)]
        .into_iter()
        .filter(|_| !quick)
        .map(|(n, z, d)| {
            (
                &["gonzalez_clustered"][..],
                CLUSTERED_K,
                clustered_store(n, z, d),
            )
        });
    for (workloads, k, store) in grid.chain(clustered) {
        let (n, d) = (store.len(), store.dim());
        let ids = store.ids();
        let centers: Vec<PointId> = (0..k).map(|i| PointId(i * (n / k))).collect();
        let mut assign_out = vec![(0usize, 0.0f64); n];
        for &workload in workloads {
            let kernels: &[Kernel] = match workload {
                "assign" => &Kernel::ALL,
                _ => &[Kernel::Scalar],
            };
            let run = |kernel: Kernel, counter: Option<&DistCounter>, out: &mut [(usize, f64)]| {
                let store = black_box(&store);
                match workload {
                    "assign" => assign_store(store, &ids, &centers, kernel, counter, out),
                    _ => gonzalez_store(store, &ids, k, counter),
                }
            };
            // Evaluated and pruned pairs per run, per kernel.
            let counts: Vec<(u64, u64)> = kernels
                .iter()
                .map(|&kernel| {
                    let counter = DistCounter::new();
                    run(kernel, Some(&counter), &mut assign_out);
                    (counter.count(), counter.pruned())
                })
                .collect();
            let id = format!("{workload}_n{n}_d{d}");
            for (&kernel, &(evals, _)) in kernels.iter().zip(&counts) {
                g.throughput(Throughput::Elements(evals));
                g.bench_with_input(BenchmarkId::new(&id, kernel.name()), &kernel, |b, &k| {
                    b.iter(|| run(k, None, &mut assign_out))
                });
            }
            if !record {
                continue;
            }
            // Manual timing for the committed BENCH_kernel.json: one
            // warm-up per kernel, then `reps` rounds that each time
            // each of the workload's kernels once, in order.
            let mut samples = vec![Vec::with_capacity(reps); kernels.len()];
            for &kernel in kernels {
                let _ = run(kernel, None, &mut assign_out);
            }
            for _ in 0..reps {
                for (&kernel, times) in kernels.iter().zip(&mut samples) {
                    let t = Instant::now();
                    let _ = black_box(run(kernel, None, &mut assign_out));
                    times.push(t.elapsed().as_secs_f64());
                }
            }
            for ((&kernel, times), &(evals, pruned)) in
                kernels.iter().zip(&mut samples).zip(&counts)
            {
                times.sort_by(f64::total_cmp);
                let median = times[times.len() / 2];
                results.push(Json::obj([
                    ("workload", Json::from(workload)),
                    ("n", Json::from(n)),
                    ("d", Json::from(d)),
                    ("k", Json::from(k)),
                    ("kernel", Json::from(kernel.name())),
                    ("seconds", Json::from(median)),
                    ("pair_evals", Json::from(evals as f64)),
                    ("pruned_evals", Json::from(pruned as f64)),
                    ("evals_per_sec", Json::from(evals as f64 / median)),
                ]));
            }
        }
    }
    g.finish();
    if record {
        // Record the trajectory point. Written next to the workspace root
        // so the numbers ride along in version control; host_cpus says
        // how contended the host the rows came from may have been.
        let host_cpus = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1);
        let doc = Json::obj([
            ("bench", Json::from("kernel_comparison")),
            ("quick", Json::Bool(quick)),
            ("host_cpus", Json::from(host_cpus)),
            ("reps", Json::from(reps)),
            ("results", Json::arr(results)),
        ]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");
        if let Err(e) = std::fs::write(path, doc.pretty() + "\n") {
            eprintln!("warning: could not write BENCH_kernel.json: {e}");
        }
    }
}

criterion_group!(
    benches,
    bench_s1,
    bench_s2,
    bench_batch,
    bench_kernel_comparison
);
criterion_main!(benches);
