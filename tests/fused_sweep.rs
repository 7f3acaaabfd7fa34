//! Gonzalez's tracked passes against the three-sweep reference, and the
//! tiled panel sweeps against the scalar loop near ties.
//!
//! `gonzalez_nearest` reads the radius and every row's nearest center off
//! the greedy's own min-update passes. The reference is the pipeline it
//! replaces: `gonzalez_indices`, then a `kcenter_cost` sweep for the
//! radius, then a `nearest_each` sweep for the assignment. Both must pick
//! the same centers and produce the same radius bits, nearest indices and
//! distance bits for every lane count, with the same counts, whichever
//! kernel the reference's panel sweeps run.
//!
//! The tiled kernel screens the two panel sweeps and refines with the
//! scalar loop; the tie tests feed it the rows its screen cannot decide
//! and require the scalar loop's bits.

use ukc_pool::{Exec, Pool};
use uncertain_kcenter::kcenter::{cover_radius, gonzalez_indices, gonzalez_nearest};
use uncertain_kcenter::metric::batch::{self, tile::TILE_CENTERS, Kernel, Tracked};
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

/// The three sweeps the fused path replaces, its two panel sweeps (the
/// radius of `kcenter_cost`, then `nearest_each`) under `kernel`.
fn reference(store: &PointStore, k: usize, kernel: Kernel, exec: Exec<'_>) -> Run {
    let counter = DistCounter::new();
    let oracle = StoreOracle::new(store)
        .with_counter(&counter)
        .with_exec(exec);
    let ids = store.ids();
    let idx = gonzalez_indices(&ids, None, k, &oracle, 0);
    let centers: Vec<PointId> = idx.iter().map(|&i| ids[i]).collect();
    let mut min = vec![f64::INFINITY; ids.len()];
    batch::dists_to_centers_min(store, &ids, &centers, None, kernel, exec, &mut min);
    let mut nearest = vec![(0usize, 0.0f64); ids.len()];
    batch::nearest_center_each(store, &ids, &centers, None, kernel, exec, &mut nearest);
    // Each panel sweep evaluates every point-center pair once.
    counter.add(2 * (ids.len() * centers.len()) as u64);
    Run {
        centers: idx,
        radius_bits: min.into_iter().fold(0.0, f64::max).to_bits(),
        nearest: bits(&nearest),
        evals: counter.count(),
        pruned: counter.pruned(),
    }
}

/// The tracked path the expected-point pipeline runs.
fn fused(store: &PointStore, k: usize, exec: Exec<'_>) -> Run {
    let counter = DistCounter::new();
    let oracle = StoreOracle::new(store)
        .with_counter(&counter)
        .with_exec(exec);
    let ids = store.ids();
    let (idx, nearest) = gonzalez_nearest(&ids, k, &oracle, 0);
    Run {
        radius_bits: cover_radius(&nearest).to_bits(),
        centers: idx,
        nearest: bits(&nearest),
        evals: counter.count(),
        pruned: counter.pruned(),
    }
}

/// Runs both paths over lanes {1, 4}, the reference under every kernel,
/// and checks bits, counts, and the fused count: evaluated plus pruned
/// pairs are `n·|C| + |C|(|C|−1)/2`.
fn check(name: &str, data: &[Vec<f64>], k: usize) {
    let pool = Pool::new(3);
    let n = data.len();
    let mut counts = Vec::new();
    let store = store_of(data);
    for kernel in Kernel::ALL {
        for exec in [Exec::sequential(), Exec::pooled(&pool, 4)] {
            let want = reference(&store, k, kernel, exec);
            let got = fused(&store, k, exec);
            let tag = format!("{name} {kernel:?} par={}", exec.is_parallel());
            assert_eq!(got.centers, want.centers, "{tag}: centers");
            assert_eq!(got.radius_bits, want.radius_bits, "{tag}: radius");
            assert_eq!(got.nearest, want.nearest, "{tag}: nearest");
            let c = got.centers.len();
            let nc = (n * c) as u64;
            assert_eq!(want.evals, 3 * nc, "{tag}: reference count");
            let pairs = nc + (c * c.saturating_sub(1) / 2) as u64;
            assert_eq!(got.evals + got.pruned, pairs, "{tag}");
            counts.push((got.evals, got.pruned));
        }
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "{name}: {counts:?}"
    );
}

#[test]
fn fused_matches_three_sweeps_where_the_passes_run_tiled() {
    // n·k·d ≥ 16384: the reference's panel sweeps run the tiled screen.
    check("random n=2500 d=8", &rows(1, 2500, 8, 10.0), 24);
    check("lattice n=2500 d=8", &lattice(2, 2500, 8), 16);
    check("random n=600 d=32", &rows(3, 600, 32, 1.0), 40);
}

#[test]
fn fused_matches_three_sweeps_where_everything_runs_scalar() {
    // d = 2 never factorizes; tiny sweeps stay below the work cutoff.
    check("random n=500 d=2", &rows(4, 500, 2, 10.0), 12);
    check("random n=40 d=5", &rows(5, 40, 5, 10.0), 6);
}

#[test]
fn every_size_fuses_with_kernel_independent_counts() {
    // n·d = 8000 runs the panel sweeps of the reference tiled
    // (n·k·d = 64000): they return the scalar bits, so the tracked
    // passes stand in for them here too.
    check("random n=1000 d=8", &rows(6, 1000, 8, 10.0), 8);
    check("lattice n=1000 d=8", &lattice(7, 1000, 8), 8);
}

#[test]
fn fewer_distinct_points_than_k_take_the_early_break() {
    // Five distinct rows, repeated: the greedy stops at five centers.
    let distinct = rows(8, 5, 8, 10.0);
    let data: Vec<Vec<f64>> = (0..2500).map(|i| distinct[i % 5].clone()).collect();
    check("5 distinct of 2500, d=8", &data, 12);
    let store = store_of(&data);
    let run = fused(&store, 12, Exec::sequential());
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
    let mut tracked = vec![Tracked::START; ids.len()];
    for (c, &center) in centers.iter().enumerate() {
        batch::dists_to_set_min_tracked(&store, &ids, center, c, SEQ, &mut tracked);
    }
    let nearest: Vec<(usize, f64)> = tracked.iter().map(|t| (t.nearest, t.min)).collect();
    assert!(nearest[8..].iter().all(|&(i, _)| i == 3));
    for kernel in Kernel::ALL {
        let mut want = vec![(0usize, 0.0f64); ids.len()];
        batch::nearest_center_each(&store, &ids, &centers, None, kernel, SEQ, &mut want);
        assert_eq!(bits(&nearest), bits(&want), "{kernel:?}");
    }
}

#[test]
fn tracked_passes_match_the_plain_min_update_bitwise() {
    // The greedy's picks rest on `min` tightening exactly like
    // `dists_to_set_min`, pass for pass.
    let data = rows(9, 3000, 16, 5.0);
    let store = store_of(&data);
    let ids = store.ids();
    let mut tracked = vec![Tracked::START; ids.len()];
    let mut plain = vec![f64::INFINITY; ids.len()];
    for (c, center) in [7usize, 2900, 1500, 7, 42].into_iter().enumerate() {
        let id = ids[center];
        batch::dists_to_set_min_tracked(&store, &ids, id, c, SEQ, &mut tracked);
        batch::dists_to_set_min(&store, &ids, id, None, SEQ, &mut plain);
        let mins: Vec<u64> = tracked.iter().map(|t| t.min.to_bits()).collect();
        let want: Vec<u64> = plain.iter().map(|m| m.to_bits()).collect();
        assert_eq!(mins, want, "pass {c}");
    }
}

/// Both panel sweeps over every row of `store` and `centers` (one
/// `weights` entry per center, or none) under the tiled kernel, on one
/// lane and on a 4-lane pool, must equal the scalar loop bit for bit.
/// Every case has ≥ 4096 rows at d = 8, so the sweeps dispatch tiled and
/// the pool splits them.
fn assert_panels_match_scalar(
    name: &str,
    store: &PointStore,
    centers: &[usize],
    weights: Option<&[f64]>,
) {
    let pool = Pool::new(3);
    let ids = store.ids();
    let centers: Vec<PointId> = centers.iter().map(|&c| ids[c]).collect();
    assert!(ids.len() >= 4096 && store.dim() == 8, "{name}: size");
    let start: Vec<f64> = (0..ids.len())
        .map(|i| [f64::INFINITY, 1.0, -1.0][i % 3])
        .collect();
    let sweep = |kernel: Kernel, exec: Exec<'_>| {
        let mut min = start.clone();
        batch::dists_to_centers_min(store, &ids, &centers, weights, kernel, exec, &mut min);
        let mut each = vec![(usize::MAX, 0.0); ids.len()];
        batch::nearest_center_each(store, &ids, &centers, weights, kernel, exec, &mut each);
        let min: Vec<u64> = min.iter().map(|m| m.to_bits()).collect();
        (min, bits(&each))
    };
    let want = sweep(Kernel::Scalar, SEQ);
    for exec in [SEQ, Exec::pooled(&pool, 4)] {
        let got = sweep(Kernel::Tiled, exec);
        let tag = format!("{name} par={}", exec.is_parallel());
        assert_eq!(got.0, want.0, "{tag}: centers-min");
        assert_eq!(got.1, want.1, "{tag}: nearest-each");
    }
}

#[test]
fn panel_refine_matches_scalar_for_centers_one_ulp_apart() {
    // Each even center has a twin one ulp away in one coordinate: every
    // row near a pair is a near tie the screen cannot separate.
    let mut data = rows(21, 4200, 8, 10.0);
    for j in 0..6 {
        let mut twin = data[j * 2].clone();
        twin[j] = f64::from_bits(twin[j].to_bits() + 1);
        data[j * 2 + 1] = twin;
    }
    let centers: Vec<usize> = (0..12).collect();
    assert_panels_match_scalar("ulp twins", &store_of(&data), &centers, None);
    let weights: Vec<f64> = (0..12).map(|c| (c / 2) as f64 * 0.5).collect();
    assert_panels_match_scalar(
        "weighted ulp twins",
        &store_of(&data),
        &centers,
        Some(&weights),
    );
}

#[test]
fn panel_refine_matches_scalar_for_duplicates_straddling_a_panel_boundary() {
    // Centers TILE_CENTERS − 1 and TILE_CENTERS (and the two around the
    // next boundary) are the same point, in different panels; the rows
    // include copies of it.
    let mut data = lattice(22, 4200, 8);
    for b in [TILE_CENTERS, 2 * TILE_CENTERS] {
        data[b] = data[b - 1].clone();
    }
    for i in 0..64 {
        data[100 + i] = data[TILE_CENTERS].clone();
    }
    let centers: Vec<usize> = (0..2 * TILE_CENTERS + 2).collect();
    assert_panels_match_scalar(
        "panel-straddling duplicates",
        &store_of(&data),
        &centers,
        None,
    );
}

#[test]
fn panel_refine_matches_scalar_at_large_offsets() {
    // Coordinates `offset + j/8`: the factorized error grows with the
    // squared norm, so at 2^26 most rows cannot be separated.
    for (seed, offset) in [(23u64, 1.0f64), (24, 2f64.powi(20)), (25, 2f64.powi(26))] {
        let data: Vec<Vec<f64>> = lattice(seed, 4200, 8)
            .into_iter()
            .map(|r| r.into_iter().map(|x| offset + x / 8.0).collect())
            .collect();
        let centers: Vec<usize> = (0..9).map(|c| c * 37).collect();
        assert_panels_match_scalar(
            &format!("offset {offset}"),
            &store_of(&data),
            &centers,
            None,
        );
    }
}

#[test]
fn panel_refine_matches_scalar_for_weighted_ties() {
    // Centers at exact distances 5, 13, 10 and 25 from the origin carry
    // weights d − 1, so every origin row sees d − w = 1 from each of
    // them: an exact tie the lowest index must win.
    let axis = |pairs: &[(usize, f64)]| {
        let mut r = vec![0.0; 8];
        for &(i, x) in pairs {
            r[i] = x;
        }
        r
    };
    let mut data = vec![
        axis(&[(0, 3.0), (1, 4.0)]),
        axis(&[(2, 12.0), (3, 5.0)]),
        axis(&[(4, 6.0), (5, 8.0)]),
        axis(&[(6, 7.0), (7, 24.0)]),
    ];
    data.extend((0..2000).map(|_| vec![0.0; 8]));
    data.extend(rows(26, 2200, 8, 6.0));
    let weights = [4.0, 12.0, 9.0, 24.0];
    let store = store_of(&data);
    assert_panels_match_scalar("weighted ties", &store, &[0, 1, 2, 3], Some(&weights));
    let mut each = vec![(9, 0.0); store.len()];
    let centers: Vec<PointId> = store.ids()[..4].to_vec();
    batch::nearest_center_each(
        &store,
        &store.ids(),
        &centers,
        Some(&weights),
        Kernel::Tiled,
        SEQ,
        &mut each,
    );
    assert!(each[4..2004].iter().all(|&(i, d)| i == 0 && d == 1.0));
}

#[test]
fn panel_refine_matches_scalar_for_rows_with_nan_keys() {
    // A squared norm past f64::MAX makes every factorized key of that row
    // NaN (∞ − ∞); the scalar distances stay defined.
    let mut data = rows(27, 4200, 8, 10.0);
    for i in 0..40 {
        data[200 + i][i % 8] = 1e200;
    }
    assert!(store_of(&data).max_norm_sq().is_infinite());
    let centers: Vec<usize> = (0..8).collect();
    assert_panels_match_scalar("overflowing norms", &store_of(&data), &centers, None);
    let centers: Vec<usize> = (195..205).collect();
    assert_panels_match_scalar("overflowing centers", &store_of(&data), &centers, None);
}
