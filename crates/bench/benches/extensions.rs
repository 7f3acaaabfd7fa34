//! Benches for the future-work extensions: the uncertain k-median
//! reduction, the k-means bias-variance pipeline, and per-point stream
//! pushes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use ukc_bench::workloads::euclidean;
use ukc_core::{CertainStrategy, SolverConfig};
use ukc_extensions::{uncertain_kmeans, uncertain_kmedian};
use ukc_metric::Euclidean;
use ukc_stream::StreamSolver;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("extensions");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1200));
    let ls_config = SolverConfig::builder()
        .strategy(CertainStrategy::GonzalezLocalSearch { rounds: 20 })
        .lower_bound(false)
        .build()
        .expect("static bench config");
    for n in [32usize, 128] {
        let set = euclidean(n, 4);
        let pool = set.location_pool();
        g.bench_with_input(BenchmarkId::new("kmedian_local_search", n), &set, |b, s| {
            b.iter(|| {
                uncertain_kmedian(black_box(s), &pool, 4, &Euclidean, &ls_config)
                    .expect("bench config is valid")
            })
        });
        // Direct call (not the config wrapper) to keep the measured
        // workload identical across releases: 4 restarts x 50 iters.
        g.bench_with_input(BenchmarkId::new("kmeans", n), &set, |b, s| {
            b.iter(|| uncertain_kmeans(black_box(s), 4, 1, 4, 50))
        });
    }
    let set = euclidean(1024, 4);
    g.bench_function("stream_solver_push_1024", |b| {
        b.iter(|| {
            let mut s = StreamSolver::builder(8)
                .budget(8)
                .build()
                .expect("valid stream config");
            for up in set.iter() {
                s.push(black_box(up)).expect("one dimension");
            }
            s.digest()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
