//! Substrate microbenches: the exact E[max] sweep (the workhorse of every
//! experiment), Gonzalez, minimum enclosing balls, Weiszfeld medians, and
//! Monte-Carlo vs exact cost evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use ukc_bench::workloads::euclidean;
use ukc_core::{AssignmentRule, Problem, SolverConfig};
use ukc_geometry::{
    geometric_median, min_enclosing_ball, min_enclosing_ball_approx, WeiszfeldOptions,
};
use ukc_kcenter::gonzalez;
use ukc_metric::Euclidean;
use ukc_uncertain::generators::{clustered, ProbModel};
use ukc_uncertain::{distance_vars, ecost_assigned, ecost_monte_carlo, expected_max};

fn bench_expected_max(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_expected_max");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1200));
    for n in [16usize, 128, 1024] {
        // n variables with 8 atoms each.
        let mut s: u64 = 5;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let vars: Vec<Vec<(f64, f64)>> = (0..n)
            .map(|_| {
                let ps: Vec<f64> = (0..8).map(|_| rnd() + 0.01).collect();
                let t: f64 = ps.iter().sum();
                ps.iter().map(|&p| (rnd() * 100.0, p / t)).collect()
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("exact_sweep", n), &vars, |b, v| {
            b.iter(|| expected_max(black_box(v)))
        });
    }
    // The shape every solve folds: the cost distances of a default solve
    // of perfbench's cold_solve instances (n = 2500, z = 4, d = 8), where
    // almost every atom lies below v₀ and only the tail is swept.
    let set = clustered(1, 2500, 4, 8, 32, 4.0, 1.0, ProbModel::Random);
    let sol = Problem::euclidean(set.clone(), 40)
        .and_then(|p| p.solve(&SolverConfig::default()))
        .expect("valid workload");
    let dists = sol
        .cost_distances
        .as_ref()
        .expect("cold solves record them");
    let vars = distance_vars(set.points(), dists.all());
    let v0 = vars
        .iter()
        .map(|v| v.iter().map(|a| a.0).fold(f64::INFINITY, f64::min))
        .fold(f64::NEG_INFINITY, f64::max);
    let tail = vars.iter().flatten().filter(|a| a.0 >= v0).count();
    assert!(tail * 100 < 2500 * 4, "tail of {tail} atoms is over 1%");
    g.bench_with_input(BenchmarkId::new("kcenter_costs", 2500), &vars, |b, v| {
        b.iter(|| expected_max(black_box(v)))
    });
    g.finish();
}

fn bench_cost_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_cost_eval");
    g.sample_size(15);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1200));
    let set = euclidean(256, 4);
    let sol = Problem::euclidean(set.clone(), 4)
        .expect("valid workload")
        .solve(
            &SolverConfig::builder()
                .rule(AssignmentRule::ExpectedPoint)
                .lower_bound(false)
                .build()
                .expect("static bench config"),
        )
        .expect("bench config is valid");
    g.bench_function("exact_ecost_n256", |b| {
        b.iter(|| ecost_assigned(black_box(&set), &sol.centers, &sol.assignment, &Euclidean))
    });
    for samples in [1_000usize, 10_000] {
        g.bench_with_input(
            BenchmarkId::new("monte_carlo", samples),
            &samples,
            |b, &samples| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(1);
                    ecost_monte_carlo(
                        black_box(&set),
                        &sol.centers,
                        Some(&sol.assignment),
                        &Euclidean,
                        samples,
                        &mut rng,
                    )
                })
            },
        );
    }
    g.finish();
}

fn bench_geometry(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_geometry");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1200));
    let set = euclidean(512, 1);
    let pts: Vec<ukc_metric::Point> = set.location_pool();
    g.bench_function("gonzalez_n512_k8", |b| {
        b.iter(|| gonzalez(black_box(&pts), 8, &Euclidean, 0))
    });
    g.bench_function("meb_welzl_n512_d2", |b| {
        b.iter(|| min_enclosing_ball(black_box(&pts)))
    });
    g.bench_function("meb_badoiu_clarkson_n512_eps0.05", |b| {
        b.iter(|| min_enclosing_ball_approx(black_box(&pts), 0.05))
    });
    let w = vec![1.0; pts.len()];
    g.bench_function("weiszfeld_n512_d2", |b| {
        b.iter(|| geometric_median(black_box(&pts), &w, WeiszfeldOptions::default()))
    });
    g.finish();
}

criterion_group!(benches, bench_expected_max, bench_cost_eval, bench_geometry);
criterion_main!(benches);
