//! Gonzalez's pruned passes against the unpruned three-sweep reference.
//!
//! A store oracle's greedy pass skips every row whose running minimum is
//! below half the distance between the new center and the row's nearest
//! one, less a rounding slack. The rows that matter are the ones at the
//! threshold: planted rows where `2·min` equals that distance exactly and
//! one ulp either side must come out with the reference's bits for
//! every lane count, whichever kernel the reference's panel sweeps run,
//! and the evaluated and pruned counts must
//! account for every pair. A default solve must keep pruning on, and a
//! pointwise metric must keep evaluating every pair.

use std::sync::atomic::{AtomicU64, Ordering};
use ukc_pool::{Exec, Pool};
use uncertain_kcenter::kcenter::{cover_radius, gonzalez_indices, gonzalez_nearest};
use uncertain_kcenter::metric::batch::{self, Kernel};
use uncertain_kcenter::prelude::*;

const DIM: usize = 8;

/// Deterministic pseudo-random values in `[0, 1)` (xorshift).
fn unit_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn row(entries: &[(usize, f64)]) -> Vec<f64> {
    let mut r = vec![0.0; DIM];
    for &(axis, v) in entries {
        r[axis] = v;
    }
    r
}

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// 5000 rows at `d = 8`, so the reference's panel sweeps run tiled under
/// the tiled kernel and the pooled passes split into three chunks. The greedy starts at
/// the origin (row 0); its second center is the farthest row, at 64 on
/// axis 0, and its third the row at 40 on axis 7. Planted rows sit on
/// the segment from the first center to the new one, where `2·min`
/// equals the new center's distance to their nearest one exactly and
/// one ulp either side: on axis 0 at 32 and its neighbouring floats
/// (`2·next(32)` and `2·prev(32)` are the floats next to 64), and on
/// axis 7 at 20 and its neighbours. The rows one ulp past the midpoint
/// are nearer the new center, so a pass that skipped them would keep
/// a stale nearest center.
///
/// The two far centers also appear twice, in different chunks, so the
/// farthest-row pick must take the later copy across the chunk merge.
/// Every coordinate is a small binary fraction, so the planted distances
/// are exact. Filler rows stay within 61.5 of the
/// origin and 35 of the first two centers, so the picks above are forced.
fn planted() -> Vec<Vec<f64>> {
    let mut rnd = unit_stream(17);
    let mut data: Vec<Vec<f64>> = (0..5000)
        .map(|_| {
            (0..DIM)
                .map(|t| {
                    if t == 0 {
                        rnd() * 60.0
                    } else {
                        rnd() * 10.0 - 5.0
                    }
                })
                .collect()
        })
        .collect();
    data[0] = row(&[]);
    for (i, r) in [
        (100, row(&[(0, 64.0)])),
        (4500, row(&[(0, 64.0)])),
        (1500, row(&[(7, 40.0)])),
        (3900, row(&[(7, 40.0)])),
    ] {
        data[i] = r;
    }
    let threshold_rows = [
        row(&[(0, 32.0)]),
        row(&[(0, next_up(32.0))]),
        row(&[(0, next_down(32.0))]),
        row(&[(7, 20.0)]),
        row(&[(7, next_up(20.0))]),
        row(&[(7, next_down(20.0))]),
    ];
    // Plant each at both ends of a chunk boundary and in the middle.
    for (j, r) in threshold_rows.iter().enumerate() {
        for base in [2040, 2048, 3000, 4089, 4096] {
            data[base + j] = r.clone();
        }
    }
    data
}

fn store_of(rows: &[Vec<f64>]) -> PointStore {
    let mut store = PointStore::new(rows[0].len());
    for r in rows {
        store.push(r);
    }
    store
}

fn bits(nearest: &[(usize, f64)]) -> Vec<(usize, u64)> {
    nearest.iter().map(|&(i, d)| (i, d.to_bits())).collect()
}

/// Centers, radius bits and nearest-center bits of one run.
type Picks = (Vec<usize>, u64, Vec<(usize, u64)>);

/// The unpruned three sweeps: `gonzalez_indices`, then the radius of
/// `kcenter_cost` and `nearest_each` as panel sweeps under `kernel`.
fn reference(store: &PointStore, k: usize, kernel: Kernel, exec: Exec<'_>) -> Picks {
    let oracle = StoreOracle::new(store).with_exec(exec);
    let ids = store.ids();
    let idx = gonzalez_indices(&ids, None, k, &oracle, 0);
    let centers: Vec<PointId> = idx.iter().map(|&i| ids[i]).collect();
    let mut min = vec![f64::INFINITY; ids.len()];
    batch::dists_to_centers_min(store, &ids, &centers, None, kernel, exec, &mut min);
    let mut nearest = vec![(0usize, 0.0f64); ids.len()];
    batch::nearest_center_each(store, &ids, &centers, None, kernel, exec, &mut nearest);
    let radius = min.into_iter().fold(0.0, f64::max);
    (idx, radius.to_bits(), bits(&nearest))
}

/// The pruned greedy, with its evaluated and pruned counts.
fn pruned(store: &PointStore, k: usize, exec: Exec<'_>) -> (Picks, u64, u64) {
    let counter = DistCounter::new();
    let oracle = StoreOracle::new(store)
        .with_counter(&counter)
        .with_exec(exec);
    let ids = store.ids();
    let (idx, nearest) = gonzalez_nearest(&ids, k, &oracle, 0);
    let picks = (idx, cover_radius(&nearest).to_bits(), bits(&nearest));
    (picks, counter.count(), counter.pruned())
}

/// `k = 3` ends the greedy right after the passes the planted rows are
/// at the threshold of, so no later center hides a wrong skip; `k = 12`
/// runs on through the filler rows.
#[test]
fn rows_at_the_prune_threshold_keep_the_reference_bits() {
    let data = planted();
    let store = store_of(&data);
    let pool = Pool::new(3);
    for k in [3, 12] {
        let mut counts = Vec::new();
        for kernel in Kernel::ALL {
            for exec in [Exec::sequential(), Exec::pooled(&pool, 4)] {
                let tag = format!("k={k} {kernel:?} par={}", exec.is_parallel());
                let want = reference(&store, k, kernel, exec);
                let (got, evals, skipped) = pruned(&store, k, exec);
                assert_eq!(&got.0[..3], &[0, 4500, 3900], "{tag}: forced picks");
                assert_eq!(got.0, want.0, "{tag}: centers");
                assert_eq!(got.1, want.1, "{tag}: radius");
                assert_eq!(got.2, want.2, "{tag}: nearest");
                let (n, c) = (data.len() as u64, got.0.len() as u64);
                assert_eq!(evals + skipped, n * c + c * (c - 1) / 2, "{tag}: pairs");
                assert!(skipped > 0, "{tag}: nothing pruned");
                counts.push((evals, skipped));
            }
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "k={k}: counts across kernels and lanes {counts:?}"
        );
    }
}

/// Counts every distance through a pointwise metric, which keeps the
/// default (unpruned) greedy pass.
struct Counting<'a>(&'a AtomicU64);

impl Metric<Point> for Counting<'_> {
    fn dist(&self, a: &Point, b: &Point) -> f64 {
        self.0.fetch_add(1, Ordering::Relaxed);
        Euclidean.dist(a, b)
    }
}

impl DistanceOracle<Point> for Counting<'_> {}

#[test]
fn default_solves_prune_and_pointwise_metrics_do_not() {
    let (n, k) = (3000usize, 64usize);
    let set = clustered(5, n, 2, 32, 32, 4.0, 1.0, ProbModel::Random);
    let sol = Problem::euclidean(set.clone(), k)
        .unwrap()
        .solve(&SolverConfig::default())
        .unwrap();
    let evals = sol.report.distance_evals;
    let c = sol.centers.len() as u64;
    assert_eq!(c, k as u64);
    assert!(
        evals.certain_solve <= (n * k / 2) as u64,
        "certain_solve {} > n·k/2: pruning is off",
        evals.certain_solve
    );
    assert_eq!(
        evals.certain_solve + evals.pruned,
        n as u64 * c + c * (c - 1) / 2
    );
    assert_eq!(evals.assignment, 0);

    // The same greedy over pointwise Euclidean points: n per pass.
    let reps: Vec<Point> = set.iter().map(expected_point).collect();
    let count = AtomicU64::new(0);
    let sol = gonzalez(&reps, k, &Counting(&count), 0);
    assert_eq!(sol.centers.len(), k);
    assert_eq!(count.load(Ordering::Relaxed), (n * k) as u64);
}
