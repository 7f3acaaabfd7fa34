//! Gonzalez's tracked passes against the three-sweep reference.
//!
//! `gonzalez_nearest` reads the radius and every row's nearest center off
//! the greedy's own min-update passes. The reference is the pipeline it
//! replaces: `gonzalez_indices`, then a `kcenter_cost` sweep for the
//! radius, then a `nearest_each` sweep for the assignment. Both must pick
//! the same centers and produce the same radius bits, nearest indices and
//! distance bits under every kernel and lane count — and
//! when the fusability rule sends a size to the separate sweep, the
//! counts must still agree across kernels.

use ukc_pool::{Exec, Pool};
use uncertain_kcenter::kcenter::{cover_radius, gonzalez_indices, gonzalez_nearest};
use uncertain_kcenter::metric::batch::{self, tracking_fuses, Tracked};
use uncertain_kcenter::prelude::*;

const SEQ: Exec<'static> = Exec::sequential();

/// Deterministic pseudo-random rows in `[0, scale)` (xorshift).
fn rows(seed: u64, n: usize, dim: usize, scale: f64) -> Vec<Vec<f64>> {
    let mut s = seed | 1;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| (0..dim).map(|_| rnd() * scale).collect())
        .collect()
}

/// Small-integer lattice rows: exact ties and duplicates everywhere.
fn lattice(seed: u64, n: usize, dim: usize) -> Vec<Vec<f64>> {
    rows(seed, n, dim, 4.0)
        .into_iter()
        .map(|r| r.into_iter().map(f64::floor).collect())
        .collect()
}

fn store_of(rows: &[Vec<f64>]) -> PointStore {
    let mut store = PointStore::new(rows[0].len());
    for r in rows {
        store.push(r);
    }
    store
}

/// What one run of either path produced, with its evaluated and pruned
/// pair counts.
#[derive(Debug, PartialEq)]
struct Run {
    centers: Vec<usize>,
    radius_bits: u64,
    nearest: Vec<(usize, u64)>,
    evals: u64,
    pruned: u64,
}

fn bits(nearest: &[(usize, f64)]) -> Vec<(usize, u64)> {
    nearest.iter().map(|&(i, d)| (i, d.to_bits())).collect()
}

/// The three sweeps the fused path replaces.
fn reference(store: &PointStore, k: usize, kernel: Kernel, exec: Exec<'_>) -> Run {
    let counter = DistCounter::new();
    let oracle = StoreOracle::new(store, kernel)
        .with_counter(&counter)
        .with_exec(exec);
    let ids = store.ids();
    let idx = gonzalez_indices(&ids, None, k, &oracle, 0);
    let centers: Vec<PointId> = idx.iter().map(|&i| ids[i]).collect();
    let radius = kcenter_cost(&ids, &centers, None, &oracle);
    let mut nearest = vec![(0usize, 0.0f64); ids.len()];
    oracle.nearest_each(&ids, &centers, None, &mut nearest);
    Run {
        centers: idx,
        radius_bits: radius.to_bits(),
        nearest: bits(&nearest),
        evals: counter.count(),
        pruned: counter.pruned(),
    }
}

/// The tracked path, falling back to the assignment sweep exactly as the
/// expected-point pipeline does.
fn fused(store: &PointStore, k: usize, kernel: Kernel, exec: Exec<'_>) -> Run {
    let counter = DistCounter::new();
    let oracle = StoreOracle::new(store, kernel)
        .with_counter(&counter)
        .with_exec(exec);
    let ids = store.ids();
    let (idx, nearest) = gonzalez_nearest(&ids, k, &oracle, 0);
    let nearest = nearest.unwrap_or_else(|| {
        let centers: Vec<PointId> = idx.iter().map(|&i| ids[i]).collect();
        let mut nearest = vec![(0usize, 0.0f64); ids.len()];
        oracle.nearest_each(&ids, &centers, None, &mut nearest);
        nearest
    });
    Run {
        radius_bits: cover_radius(&nearest).to_bits(),
        centers: idx,
        nearest: bits(&nearest),
        evals: counter.count(),
        pruned: counter.pruned(),
    }
}

/// Runs both paths over every kernel × lanes {1, 4}
/// and checks bits, counts, and the fused count: evaluated plus pruned
/// pairs are `n·|C| + |C|(|C|−1)/2` (plus the separate `n·|C|` sweep
/// when the sizes are not fusable), returning whether the size fused.
fn check(name: &str, data: &[Vec<f64>], k: usize) -> bool {
    let pool = Pool::new(3);
    let (n, dim) = (data.len(), data[0].len());
    let mut counts = Vec::new();
    let mut fuses = None;
    let store = store_of(data);
    for kernel in Kernel::ALL {
        for exec in [Exec::sequential(), Exec::pooled(&pool, 4)] {
            let want = reference(&store, k, kernel, exec);
            let got = fused(&store, k, kernel, exec);
            let tag = format!("{name} {kernel:?} par={}", exec.is_parallel());
            assert_eq!(got.centers, want.centers, "{tag}: centers");
            assert_eq!(got.radius_bits, want.radius_bits, "{tag}: radius");
            assert_eq!(got.nearest, want.nearest, "{tag}: nearest");
            let c = got.centers.len();
            let fusable = tracking_fuses(n, c, dim);
            fuses = Some(fusable);
            let nc = (n * c) as u64;
            assert_eq!(want.evals, 3 * nc, "{tag}: reference count");
            let pairs = nc + (c * c.saturating_sub(1) / 2) as u64;
            let sweep = if fusable { 0 } else { nc };
            assert_eq!(got.evals + got.pruned, pairs + sweep, "{tag}");
            counts.push((got.evals, got.pruned));
        }
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "{name}: {counts:?}"
    );
    fuses.expect("at least one run")
}

#[test]
fn fused_matches_three_sweeps_where_the_passes_run_tiled() {
    // n·d ≥ 16384: the passes and the fused sweeps all resolve to tiled.
    assert!(check("random n=2500 d=8", &rows(1, 2500, 8, 10.0), 24));
    assert!(check("lattice n=2500 d=8", &lattice(2, 2500, 8), 16));
    assert!(check("random n=600 d=32", &rows(3, 600, 32, 1.0), 40));
}

#[test]
fn fused_matches_three_sweeps_where_everything_runs_scalar() {
    // d = 2 never factorizes; tiny sweeps stay below the work cutoff.
    assert!(check("random n=500 d=2", &rows(4, 500, 2, 10.0), 12));
    assert!(check("random n=40 d=5", &rows(5, 40, 5, 10.0), 6));
}

#[test]
fn non_fusable_sizes_keep_the_separate_sweep_with_kernel_independent_counts() {
    // n·d = 8000 runs each pass scalar, while n·k·d = 64000 runs the
    // fused sweeps tiled: the tracked keys cannot vouch for them.
    assert!(!check("random n=1000 d=8", &rows(6, 1000, 8, 10.0), 8));
    assert!(!check("lattice n=1000 d=8", &lattice(7, 1000, 8), 8));
}

#[test]
fn fewer_distinct_points_than_k_take_the_early_break() {
    // Five distinct rows, repeated: the greedy stops at five centers.
    let distinct = rows(8, 5, 8, 10.0);
    let data: Vec<Vec<f64>> = (0..2500).map(|i| distinct[i % 5].clone()).collect();
    assert!(check("5 distinct of 2500, d=8", &data, 12));
    let store = store_of(&data);
    let run = fused(&store, 12, Kernel::Tiled, Exec::sequential());
    assert_eq!(run.centers.len(), 5);
    assert_eq!(f64::from_bits(run.radius_bits), 0.0);
}

#[test]
fn equidistant_centers_tie_toward_the_lower_index_across_panels() {
    // Centers 3 and 4 straddle the first four-wide tile panel and sit at
    // ±e₀; every query lies on the e₁ axis, so both are at the exact
    // squared distance 1 + t² (and every other center is farther). Both
    // the tracked passes and the fused panel sweep must pick center 3.
    let dim = 8;
    let unit = |axis: usize, s: f64| {
        let mut r = vec![0.0; dim];
        r[axis] = s;
        r
    };
    let mut data = vec![
        unit(2, 40.0),
        unit(3, 40.0),
        unit(4, 40.0),
        unit(0, 1.0),
        unit(0, -1.0),
        unit(5, 40.0),
        unit(6, 40.0),
        unit(7, 40.0),
    ];
    for i in 0..4096 {
        data.push(unit(1, (i % 64) as f64 * 0.25));
    }
    let store = store_of(&data);
    let ids = store.ids();
    let centers: Vec<PointId> = ids[..8].to_vec();
    for kernel in Kernel::ALL {
        let mut tracked = vec![Tracked::START; ids.len()];
        for (c, &center) in centers.iter().enumerate() {
            batch::dists_to_set_min_tracked(&store, &ids, center, c, kernel, SEQ, &mut tracked);
        }
        let nearest = batch::tracked_nearest(&store, &tracked, centers.len(), kernel)
            .expect("4104 rows at d = 8 fuse");
        let mut want = vec![(0usize, 0.0f64); ids.len()];
        batch::nearest_center_each(&store, &ids, &centers, None, kernel, SEQ, &mut want);
        assert_eq!(bits(&nearest), bits(&want), "{kernel:?}");
        assert!(nearest[8..].iter().all(|&(i, _)| i == 3), "{kernel:?}");
    }
}

#[test]
fn tracked_passes_match_the_plain_min_update_bitwise() {
    // The greedy's picks rest on `min` tightening exactly like
    // `dists_to_set_min`, pass for pass.
    let data = rows(9, 3000, 16, 5.0);
    let store = store_of(&data);
    let ids = store.ids();
    for kernel in Kernel::ALL {
        let mut tracked = vec![Tracked::START; ids.len()];
        let mut plain = vec![f64::INFINITY; ids.len()];
        for (c, center) in [7usize, 2900, 1500, 7, 42].into_iter().enumerate() {
            let id = ids[center];
            batch::dists_to_set_min_tracked(&store, &ids, id, c, kernel, SEQ, &mut tracked);
            batch::dists_to_set_min(&store, &ids, id, None, kernel, SEQ, &mut plain);
            let mins: Vec<u64> = tracked.iter().map(|t| t.min.to_bits()).collect();
            let want: Vec<u64> = plain.iter().map(|m| m.to_bits()).collect();
            assert_eq!(mins, want, "{kernel:?} pass {c}");
        }
    }
}
