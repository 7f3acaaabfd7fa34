//! Non-flaky perf smoke: the tiled kernel — a factorized screen plus a
//! scalar refine, returning the scalar loop's bits — must not be slower
//! than the scalar kernel on the fused assignment sweep it was built
//! for, and Gonzalez's fused passes must stay ahead of the three
//! separate sweeps (greedy, radius, assignment) they replaced.
//!
//! `#[ignore]`d because it is only meaningful in release mode; CI runs
//! it explicitly via
//! `cargo test --release --test perf_smoke -- --ignored`.
//!
//! The assertion floor is deliberately **1.0×** (parity), not the ≥3×
//! the benches demonstrate at `n = 100k`: a loaded CI box can halve any
//! single measurement, but best-of-N against best-of-N crossing below
//! parity would mean the tiled path has genuinely regressed to worse
//! than the code it replaces. The dispatch cutoffs send the tiled kernel
//! to the scalar loop below the profitable size, so parity is the true
//! floor everywhere. The fused-Gonzalez case compares two algorithms
//! through one store oracle instead; the greedy's passes are scalar, and
//! the fused path removes the two panel sweeps of the
//! reference, so its floor is 1.2×.

use std::time::Instant;

use uncertain_kcenter::metric::batch::{self, Kernel};
use uncertain_kcenter::prelude::*;

const N: usize = 10_000;
const DIM: usize = 32;
const K: usize = 16;
const ROUNDS: usize = 5;
const SEQ: Exec<'static> = Exec::sequential();

fn store(seed: u64, n: usize) -> PointStore {
    let mut s = seed | 1;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut store = PointStore::new(DIM);
    for _ in 0..n {
        let row: Vec<f64> = (0..DIM).map(|_| rnd() * 10.0).collect();
        store.try_push(&row).unwrap();
    }
    store
}

/// Best-of-N seconds for one full `nearest_each` assignment sweep.
fn best_sweep_secs(store: &PointStore, kernel: Kernel) -> f64 {
    let queries = store.ids();
    let centers: Vec<PointId> = (0..K).map(|i| PointId(i * (N / K))).collect();
    let mut out = vec![(0usize, 0.0f64); N];
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        batch::nearest_center_each(store, &queries, &centers, None, kernel, SEQ, &mut out);
        best = best.min(t.elapsed().as_secs_f64());
    }
    // Keep the result observable so the sweep cannot be optimized out.
    assert!(out.iter().all(|(i, d)| *i < K && d.is_finite()));
    best
}

/// Best-of-N seconds for one full additively-weighted
/// (`nearest_each` with `Some(weights)`) assignment sweep.
fn best_weighted_sweep_secs(store: &PointStore, kernel: Kernel) -> f64 {
    let queries = store.ids();
    let centers: Vec<PointId> = (0..K).map(|i| PointId(i * (N / K))).collect();
    let weights: Vec<f64> = (0..K).map(|i| i as f64 * 0.25).collect();
    let mut out = vec![(0usize, 0.0f64); N];
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let weights = Some(weights.as_slice());
        batch::nearest_center_each(store, &queries, &centers, weights, kernel, SEQ, &mut out);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(out.iter().all(|(i, d)| *i < K && d.is_finite()));
    best
}

#[test]
#[ignore = "perf assertion; run in release mode via CI's perf-smoke step"]
fn tiled_assignment_is_not_slower_than_scalar() {
    let store = store(4242, N);
    let scalar = best_sweep_secs(&store, Kernel::Scalar);
    let tiled = best_sweep_secs(&store, Kernel::Tiled);
    let speedup = scalar / tiled;
    eprintln!(
        "perf-smoke assign n={N} d={DIM} k={K}: scalar {scalar:.6}s, \
         tiled {tiled:.6}s, speedup {speedup:.2}x"
    );
    assert!(
        speedup >= 1.0,
        "tiled kernel regressed below scalar parity: {speedup:.2}x"
    );
}

/// The weighted (Apollonius) sweep gets the same floor: the tiled
/// weighted path must never be slower than the weighted scalar loop it
/// replaces. The per-center subtraction is O(k) bookkeeping on top of
/// the same distance panels, so the dispatch cutoffs and the parity
/// argument above carry over unchanged.
#[test]
#[ignore = "perf assertion; run in release mode via CI's perf-smoke step"]
fn weighted_tiled_assignment_is_not_slower_than_weighted_scalar() {
    let store = store(4243, N);
    let scalar = best_weighted_sweep_secs(&store, Kernel::Scalar);
    let tiled = best_weighted_sweep_secs(&store, Kernel::Tiled);
    let speedup = scalar / tiled;
    eprintln!(
        "perf-smoke weighted assign n={N} d={DIM} k={K}: scalar {scalar:.6}s, \
         tiled {tiled:.6}s, speedup {speedup:.2}x"
    );
    assert!(
        speedup >= 1.0,
        "weighted tiled kernel regressed below weighted scalar parity: {speedup:.2}x"
    );
}

/// Seconds for one run of Gonzalez plus the nearest-center assignment,
/// either fused (the greedy's tracked passes yield the radius and the
/// assignment) or as the three-sweep reference (greedy, `kcenter_cost`,
/// `nearest_each`).
fn gonzalez_assign_secs(store: &PointStore, k: usize, fused: bool) -> f64 {
    use uncertain_kcenter::kcenter::{cover_radius, gonzalez_indices, gonzalez_nearest};
    let ids = store.ids();
    let oracle = StoreOracle::new(store);
    let t = Instant::now();
    let (centers, radius, nearest) = if fused {
        let (idx, nearest) = gonzalez_nearest(&ids, k, &oracle, 0);
        (idx.len(), cover_radius(&nearest), nearest)
    } else {
        let idx = gonzalez_indices(&ids, None, k, &oracle, 0);
        let centers: Vec<PointId> = idx.iter().map(|&i| ids[i]).collect();
        let radius = kcenter_cost(&ids, &centers, None, &oracle);
        let mut nearest = vec![(0usize, 0.0f64); ids.len()];
        oracle.nearest_each(&ids, &centers, None, &mut nearest);
        (idx.len(), radius, nearest)
    };
    let secs = t.elapsed().as_secs_f64();
    assert!(centers == k && radius.is_finite() && nearest.iter().all(|(i, _)| *i < k));
    secs
}

/// The fused Gonzalez path must stay clearly ahead of the three sweeps
/// it replaced: one `n·k` pass instead of three. The prototype measured
/// 1.6–1.7×; the 1.2× floor leaves room for a loaded box while still
/// failing if a separate sweep comes back. The two paths run in
/// alternating rounds, after one untimed warm-up of each, so a stall of
/// the host lands on both sides' rounds alike; each side keeps its best.
#[test]
#[ignore = "perf assertion; run in release mode via CI's perf-smoke step"]
fn fused_gonzalez_assignment_beats_three_sweeps() {
    const FUSED_N: usize = 6_000;
    const FUSED_K: usize = 64;
    let store = store(4244, FUSED_N);
    gonzalez_assign_secs(&store, FUSED_K, false);
    gonzalez_assign_secs(&store, FUSED_K, true);
    let (mut reference, mut fused) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        reference = reference.min(gonzalez_assign_secs(&store, FUSED_K, false));
        fused = fused.min(gonzalez_assign_secs(&store, FUSED_K, true));
    }
    let speedup = reference / fused;
    eprintln!(
        "perf-smoke gonzalez+assign n={FUSED_N} d={DIM} k={FUSED_K}: three sweeps \
         {reference:.6}s, fused {fused:.6}s, speedup {speedup:.2}x"
    );
    assert!(
        speedup >= 1.2,
        "fused Gonzalez+assignment fell below 1.2x of the three-sweep path: {speedup:.2}x"
    );
}
