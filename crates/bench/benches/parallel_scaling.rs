//! Thread-scaling of the pooled distance kernels: Gonzalez (the
//! dominant certain-solve stage) over a [`PointStore`] with a
//! pool-backed [`StoreOracle`], swept across lane counts.
//!
//! The numbers behind the committed `BENCH_parallel.json`: setting
//! `BENCH_PARALLEL_JSON=1` runs a manual timing sweep and rewrites the
//! file at the workspace root, recording
//! `host_cpus` alongside each sample — on a single-CPU host every lane
//! count time-slices one core, so speedups hover at 1×; such runs are
//! stamped `"degraded": true` and the interesting trajectory points
//! come from multi-core hosts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;
use ukc_json::Json;
use ukc_kcenter::gonzalez;
use ukc_metric::{Point, PointId, PointStore, StoreOracle};
use ukc_pool::{Exec, Pool};

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

const SCALING_K: usize = 8;

/// One Gonzalez solve (k centers + the radius sweep) over the store with
/// the given execution context; returns the radius so the work cannot be
/// elided. The result is bit-identical for every lane count — this bench
/// measures time only.
fn gonzalez_exec(store: &PointStore, ids: &[PointId], exec: Exec<'_>) -> f64 {
    let oracle = StoreOracle::new(store).with_exec(exec);
    gonzalez(ids, SCALING_K, &oracle, 0).radius
}

/// Lane counts to sweep: {1, 2, 4, ncpu}, deduplicated and sorted.
fn thread_grid() -> Vec<usize> {
    let ncpu = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut grid = vec![1usize, 2, 4, ncpu];
    grid.sort_unstable();
    grid.dedup();
    grid
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let quick = std::env::var_os("CRITERION_QUICK").is_some();
    let record = std::env::var_os("BENCH_PARALLEL_JSON").is_some();
    let mut g = c.benchmark_group("parallel_scaling");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.measurement_time(std::time::Duration::from_millis(800));
    let mut results: Vec<Json> = Vec::new();
    for &n in &[10_000usize, 100_000] {
        if quick && n > 10_000 {
            continue; // smoke runs only cover the small tier
        }
        for &d in &[8usize, 32] {
            let store = coord_store(42, n, d);
            let ids = store.ids();
            // pair evaluations per solve: k passes + the radius sweep
            let evals = (2 * SCALING_K * n) as u64;
            g.throughput(Throughput::Elements(evals));
            let mut base_seconds = f64::NAN;
            for threads in thread_grid() {
                if quick && threads > 2 {
                    continue;
                }
                // A dedicated pool per lane count keeps the sweep
                // independent of UKC_THREADS and of the process pool.
                let pool = Pool::new(threads);
                let exec = Exec::pooled(&pool, threads);
                g.bench_with_input(
                    BenchmarkId::new(format!("n{n}_d{d}"), format!("t{threads}")),
                    &exec,
                    |b, &exec| b.iter(|| gonzalez_exec(black_box(&store), &ids, exec)),
                );
                if record {
                    // Manual timing for the committed BENCH_parallel.json:
                    // min of 3 runs after one warm-up (1 under quick).
                    let reps = if quick { 1 } else { 3 };
                    let _ = gonzalez_exec(&store, &ids, exec);
                    let mut best = f64::INFINITY;
                    for _ in 0..reps {
                        let t = Instant::now();
                        let _ = black_box(gonzalez_exec(&store, &ids, exec));
                        best = best.min(t.elapsed().as_secs_f64());
                    }
                    if threads == 1 {
                        base_seconds = best;
                    }
                    results.push(Json::obj([
                        ("n", Json::from(n)),
                        ("d", Json::from(d)),
                        ("k", Json::from(SCALING_K)),
                        ("threads", Json::from(threads)),
                        ("seconds", Json::from(best)),
                        ("pair_evals", Json::from(evals as f64)),
                        ("evals_per_sec", Json::from(evals as f64 / best)),
                        ("speedup_vs_t1", Json::from(base_seconds / best)),
                    ]));
                }
            }
        }
    }
    g.finish();
    if record {
        // Record the trajectory point. Written next to the workspace root
        // so the numbers ride along in version control. host_cpus makes a
        // 1-core container's flat speedups interpretable, and the
        // explicit "degraded" flag keeps such a run from masquerading as
        // a real thread-scaling measurement.
        let host_cpus = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1);
        let degraded = host_cpus == 1;
        if degraded {
            eprintln!(
                "warning: BENCH_parallel.json recorded on a single-CPU host — \
                 every lane count time-slices one core, so speedups are \
                 meaningless; the file is stamped \"degraded\": true"
            );
        }
        let doc = Json::obj([
            ("bench", Json::from("parallel_scaling")),
            ("quick", Json::Bool(quick)),
            ("host_cpus", Json::from(host_cpus)),
            ("degraded", Json::Bool(degraded)),
            ("results", Json::arr(results)),
        ]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
        if let Err(e) = std::fs::write(path, doc.pretty() + "\n") {
            eprintln!("warning: could not write BENCH_parallel.json: {e}");
        }
    }
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
