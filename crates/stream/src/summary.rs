//! The doubling summary: a memory-bounded, weighted k-center sketch over
//! a [`PointStore`].
//!
//! [`StreamSummary`] maintains the Charikar–Chekuri–Feder–Motwani
//! doubling invariants over a coordinate stream, one point at a time:
//!
//! * **coverage** — every point ever inserted lies within `4τ` of a kept
//!   center (`τ` is the current merge threshold);
//! * **separation** — kept centers are pairwise `> τ` apart, so once the
//!   budget overflows, `opt ≥ τ/2` by pigeonhole (the certified lower
//!   bound the approximation rests on).
//!
//! With a budget of exactly `k` the kept centers are an 8-approximate
//! k-center solution outright; a larger budget keeps a finer *coreset*
//! (the `O(k·ε⁻ᵈ)`-style working set) that a downstream solve can refine
//! — `τ` only doubles when the budget overflows, so more memory means a
//! smaller threshold and a tighter sketch on the same stream.
//!
//! Every distance evaluated while maintaining the summary runs through
//! the store's single-center sweep ([`DistanceOracle::dists_to_one`]),
//! whose scalar loop is bit-identical to pointwise [`ukc_metric::Point`]
//! arithmetic, so the evolved state — and therefore
//! [`StreamSummary::digest`] — is identical for every pool lane count
//! (the execution-layer determinism contract). The summary is what makes streams cacheable:
//! the serving layer keys incremental re-solves on the digest.
//!
//! Memory is bounded by construction: the backing store is truncated
//! when an arriving point is absorbed and compacted after every merge
//! phase, so it never holds more than `budget + 1` rows.

use ukc_metric::{DistCounter, DistanceOracle, PointId, PointStore, StoreOracle};
use ukc_pool::Exec;

/// 64-bit FNV-1a over the canonical byte stream of the summary state.
/// Same constants and float canonicalization as `ukc_core::digest`, so
/// digests are stable across processes and platforms.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_f64(&mut self, v: f64) {
        // Normalize -0.0 so numerically equal states digest identically.
        let v = if v == 0.0 { 0.0 } else { v };
        self.write_u64(v.to_bits());
    }
}

/// A structural snapshot of a [`StreamSummary`]: every field that
/// determines future evolution (and the digest), as plain data.
///
/// Produced by [`StreamSummary::snapshot`] and consumed by
/// [`StreamSummary::from_snapshot`]; the serving layer serializes it for
/// durable storage. Floats must round-trip *bit-exactly* for the restore
/// to digest identically — encode them as IEEE bit patterns, not text.
#[derive(Clone, Debug, PartialEq)]
pub struct SummarySnapshot {
    /// The center budget.
    pub budget: usize,
    /// Ambient dimension (0 before the first insertion).
    pub dim: usize,
    /// The merge threshold τ.
    pub threshold: f64,
    /// Points inserted so far.
    pub seen: u64,
    /// Merge phases executed.
    pub merges: u64,
    /// Distance evaluations spent on maintenance.
    pub distance_evals: u64,
    /// Working-set high-water mark in rows.
    pub peak_rows: usize,
    /// Kept center coordinates, in order.
    pub centers: Vec<Vec<f64>>,
    /// Per-center absorbed-point counts, parallel to `centers`.
    pub weights: Vec<u64>,
}

/// A weighted doubling summary of a coordinate stream (see the module
/// docs for the invariants).
///
/// The summary is the *state* layer of the streaming subsystem:
/// [`crate::StreamSolver`] feeds it expected points and finalizes it
/// into solutions. At a budget of exactly `k` its center sequence is bit
/// for bit that of the generic reference
/// `ukc_extensions::StreamingKCenter`.
#[derive(Debug)]
pub struct StreamSummary {
    budget: usize,
    /// 0 until the first insertion fixes the ambient dimension.
    dim: usize,
    /// Exactly the live centers, row `i` ↔ center `i` (compacted after
    /// every merge, truncated after every absorption).
    store: PointStore,
    /// `weights[i]` = points absorbed into center `i` (itself included).
    weights: Vec<u64>,
    threshold: f64,
    seen: u64,
    merges: u64,
    evals: DistCounter,
    peak_rows: usize,
    threads: usize,
    /// Reusable scratch for the per-insert coverage sweep (ids `0..m`
    /// and their distances): the hot path allocates nothing once these
    /// reach the budget size.
    scratch_ids: Vec<PointId>,
    scratch_dists: Vec<f64>,
}

impl Clone for StreamSummary {
    /// Snapshots the full summary state — the clone evolves (and
    /// digests) exactly like the original from this point on, including
    /// the evaluation count, which is carried over into a fresh counter.
    fn clone(&self) -> Self {
        let evals = DistCounter::new();
        evals.add(self.evals.count());
        Self {
            budget: self.budget,
            dim: self.dim,
            store: self.store.clone(),
            weights: self.weights.clone(),
            threshold: self.threshold,
            seen: self.seen,
            merges: self.merges,
            evals,
            peak_rows: self.peak_rows,
            threads: self.threads,
            scratch_ids: Vec::new(),
            scratch_dists: Vec::new(),
        }
    }
}

impl StreamSummary {
    /// An empty summary keeping at most `budget` centers.
    ///
    /// # Panics
    /// Panics when `budget == 0` (use the typed
    /// [`crate::StreamSolver`] API to get a [`ukc_core::SolveError`]
    /// instead).
    pub fn new(budget: usize) -> Self {
        assert!(budget > 0, "summary budget must be at least 1");
        Self::with_threads(budget, 1)
    }

    /// Like [`StreamSummary::new`] with an explicit pool-lane cap for
    /// the batched sweeps (a pure resource knob: the evolved state is
    /// bit-identical for every value).
    pub fn with_threads(budget: usize, threads: usize) -> Self {
        assert!(budget > 0, "summary budget must be at least 1");
        Self {
            budget,
            dim: 0,
            store: PointStore::default(),
            weights: Vec::with_capacity(budget + 1),
            threshold: 0.0,
            seen: 0,
            merges: 0,
            evals: DistCounter::new(),
            peak_rows: 0,
            threads: threads.max(1),
            scratch_ids: Vec::new(),
            scratch_dists: Vec::new(),
        }
    }

    /// The center budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The ambient dimension (0 before the first insertion).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points inserted so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of kept centers (`<= budget` between insertions).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The current merge threshold τ (0 until the first overflow).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Upper bound on the distance from any inserted point to its
    /// nearest kept center: the coverage invariant `4τ`.
    pub fn coverage_radius(&self) -> f64 {
        4.0 * self.threshold
    }

    /// Certified lower bound on the optimum k-center radius of
    /// everything inserted so far (for any `k < budget + 1` kept at the
    /// last overflow): `τ/2`, or 0 before the first overflow.
    pub fn lower_bound(&self) -> f64 {
        self.threshold / 2.0
    }

    /// Merge phases executed (the threshold doubled this many times,
    /// counting the initial threshold fix).
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Distance evaluations spent maintaining the summary.
    pub fn distance_evals(&self) -> u64 {
        self.evals.count()
    }

    /// High-water mark of backing-store rows — the summary's working-set
    /// bound, `<= budget + 1` by construction.
    pub fn peak_rows(&self) -> usize {
        self.peak_rows
    }

    /// The kept centers as owned points, in insertion order.
    pub fn center_points(&self) -> Vec<ukc_metric::Point> {
        (0..self.store.len())
            .map(|i| self.store.point(PointId(i)))
            .collect()
    }

    /// The weight (absorbed-point count) of kept center `i`.
    pub fn weight(&self, i: usize) -> u64 {
        self.weights[i]
    }

    /// The weights of all kept centers, parallel to
    /// [`StreamSummary::center_points`].
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    fn oracle(&self) -> StoreOracle<'_> {
        // Exec is attached so large budgets get pooled sweeps —
        // bit-identical for every lane count.
        StoreOracle::new(&self.store)
            .with_counter(&self.evals)
            .with_exec(Exec::auto(self.threads))
    }

    /// Inserts one point, maintaining the doubling invariants. Returns
    /// `Err` with the expected dimension when `coords` disagrees with
    /// the stream's ambient dimension.
    pub fn insert(&mut self, coords: &[f64]) -> Result<(), usize> {
        if self.dim == 0 {
            if coords.is_empty() {
                return Err(0);
            }
            self.dim = coords.len();
            self.store = PointStore::with_capacity(self.dim, self.budget + 1);
        } else if coords.len() != self.dim {
            return Err(self.dim);
        }
        self.seen += 1;
        let m = self.store.len();
        let id = self
            .store
            .try_push(coords)
            .expect("dimension checked and coordinates finite");
        self.peak_rows = self.peak_rows.max(self.store.len());
        if m > 0 {
            // Covered points are absorbed into the first center within
            // the coverage radius (with τ = 0 this drops exact
            // duplicates, as the historical implementation did). The
            // sweep reuses persistent scratch buffers — and builds the
            // oracle from disjoint field borrows — so the hot path is
            // allocation-free at steady state.
            self.scratch_ids.clear();
            self.scratch_ids.extend((0..m).map(PointId));
            self.scratch_dists.clear();
            self.scratch_dists.resize(m, 0.0);
            let oracle = StoreOracle::new(&self.store)
                .with_counter(&self.evals)
                .with_exec(Exec::auto(self.threads));
            oracle.dists_to_one(&self.scratch_ids, &id, &mut self.scratch_dists);
            if let Some(first) = self
                .scratch_dists
                .iter()
                .position(|&d| d <= 4.0 * self.threshold)
            {
                self.weights[first] += 1;
                self.store.truncate(m);
                return Ok(());
            }
        }
        self.weights.push(1);
        while self.store.len() > self.budget {
            if self.overflow() {
                break;
            }
        }
        Ok(())
    }

    /// One overflow step: raise τ and merge. Returns `true` when the
    /// all-duplicates degenerate case collapsed the summary (the caller
    /// must stop doubling).
    fn overflow(&mut self) -> bool {
        self.merges += 1;
        let m = self.store.len();
        let ids: Vec<PointId> = (0..m).map(PointId).collect();
        if self.threshold == 0.0 {
            // Initial τ: the smallest positive pairwise distance among
            // the budget + 1 centers.
            let mut min = f64::INFINITY;
            let mut dists = vec![0.0f64; m];
            {
                let oracle = self.oracle();
                for i in 0..m {
                    let row = &mut dists[..m - i - 1];
                    oracle.dists_to_one(&ids[i + 1..], &ids[i], row);
                    for &d in row.iter() {
                        if d > 0.0 {
                            min = min.min(d);
                        }
                    }
                }
            }
            if min.is_finite() {
                self.threshold = min;
            } else {
                // All duplicates: collapse onto the first center.
                let total: u64 = self.weights.iter().sum();
                self.store.truncate(1);
                self.weights.truncate(1);
                self.weights[0] = total;
                return true;
            }
        } else {
            self.threshold *= 2.0;
        }
        // Greedy merge: keep centers pairwise > τ, in order; each dropped
        // center donates its weight to the first keeper within τ.
        let mut kept: Vec<usize> = Vec::with_capacity(self.budget);
        let mut kept_ids: Vec<PointId> = Vec::with_capacity(self.budget);
        let mut donations: Vec<(usize, u64)> = Vec::new();
        {
            let oracle = self.oracle();
            let mut dists = vec![0.0f64; m];
            for (j, &id) in ids.iter().enumerate() {
                let row = &mut dists[..kept_ids.len()];
                oracle.dists_to_one(&kept_ids, &id, row);
                match row.iter().position(|&d| d <= self.threshold) {
                    None => {
                        kept.push(j);
                        kept_ids.push(id);
                    }
                    Some(first) => donations.push((first, self.weights[j])),
                }
            }
        }
        // Compact: rebuild the store with only the keepers, so the
        // working set returns to `<= budget` rows.
        let mut store = PointStore::with_capacity(self.dim, self.budget + 1);
        let mut weights = Vec::with_capacity(self.budget + 1);
        for &j in &kept {
            store.push(self.store.coords(PointId(j)));
            weights.push(self.weights[j]);
        }
        for (keeper, weight) in donations {
            weights[keeper] += weight;
        }
        self.store = store;
        self.weights = weights;
        false
    }

    /// Captures the full evolution-relevant state as plain data (see
    /// [`SummarySnapshot`]).
    pub fn snapshot(&self) -> SummarySnapshot {
        SummarySnapshot {
            budget: self.budget,
            dim: self.dim,
            threshold: self.threshold,
            seen: self.seen,
            merges: self.merges,
            distance_evals: self.evals.count(),
            peak_rows: self.peak_rows,
            centers: (0..self.store.len())
                .map(|i| self.store.coords(PointId(i)).to_vec())
                .collect(),
            weights: self.weights.clone(),
        }
    }

    /// Rebuilds a summary from a snapshot; the result evolves — and
    /// digests — exactly like the summary that produced it, as
    /// [`StreamSummary::clone`] does. `threads` is the pool-lane cap (a
    /// pure resource knob, not part of the state).
    ///
    /// Returns `None` when the snapshot is structurally invalid (zero
    /// budget, mismatched center/weight lengths, inconsistent
    /// dimensions, non-finite coordinates): a damaged snapshot is a lost
    /// optimization for callers, never a wrong state.
    pub fn from_snapshot(snap: &SummarySnapshot, threads: usize) -> Option<Self> {
        if snap.budget == 0
            || snap.centers.len() != snap.weights.len()
            || snap.centers.len() > snap.budget + 1
        {
            return None;
        }
        if snap.dim == 0 && !snap.centers.is_empty() {
            return None;
        }
        let mut store = PointStore::with_capacity(snap.dim.max(1), snap.budget + 1);
        for coords in &snap.centers {
            if coords.len() != snap.dim {
                return None;
            }
            store.try_push(coords).ok()?;
        }
        if snap.dim == 0 {
            store = PointStore::default();
        }
        Some(Self {
            budget: snap.budget,
            dim: snap.dim,
            store,
            weights: snap.weights.clone(),
            threshold: snap.threshold,
            seen: snap.seen,
            merges: snap.merges,
            evals: {
                let evals = DistCounter::new();
                evals.add(snap.distance_evals);
                evals
            },
            peak_rows: snap.peak_rows,
            threads: threads.max(1),
            scratch_ids: Vec::new(),
            scratch_dists: Vec::new(),
        })
    }

    /// Canonical digest of the evolved state: budget, dimension, points
    /// seen, threshold, and every kept `(center, weight)` in order.
    ///
    /// Bit-identical across pool lane counts, so two replicas that consumed the same stream agree — the property
    /// the serving layer keys incremental re-solve caching on.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.budget as u64);
        h.write_u64(self.dim as u64);
        h.write_u64(self.seen);
        h.write_f64(self.threshold);
        h.write_u64(self.store.len() as u64);
        for i in 0..self.store.len() {
            for &c in self.store.coords(PointId(i)) {
                h.write_f64(c);
            }
            h.write_u64(self.weights[i]);
        }
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_metric::Metric;

    fn stream_points(seed: u64, n: usize) -> Vec<Vec<f64>> {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| vec![rnd() * 100.0, rnd() * 100.0]).collect()
    }

    #[test]
    fn summary_respects_budget_and_weights_conserve_points() {
        let mut s = StreamSummary::new(4);
        for p in stream_points(1, 300) {
            s.insert(&p).unwrap();
        }
        assert!(s.len() <= 4);
        assert_eq!(s.seen(), 300);
        assert_eq!(s.weights().iter().sum::<u64>(), 300);
        assert!(s.peak_rows() <= 5);
        assert!(s.threshold() > 0.0);
    }

    #[test]
    fn coverage_invariant_holds_over_the_whole_stream() {
        let pts = stream_points(3, 200);
        let mut s = StreamSummary::new(3);
        for p in &pts {
            s.insert(p).unwrap();
        }
        let centers = s.center_points();
        let metric = ukc_metric::Euclidean;
        for p in &pts {
            let p = ukc_metric::Point::new(p.clone());
            let d = centers
                .iter()
                .map(|c| metric.dist(&p, c))
                .fold(f64::INFINITY, f64::min);
            assert!(
                d <= s.coverage_radius() + 1e-9,
                "{d} > {}",
                s.coverage_radius()
            );
        }
    }

    #[test]
    fn larger_budgets_never_raise_the_threshold() {
        let pts = stream_points(5, 400);
        let mut small = StreamSummary::new(3);
        let mut large = StreamSummary::new(24);
        for p in &pts {
            small.insert(p).unwrap();
            large.insert(p).unwrap();
        }
        assert!(large.threshold() <= small.threshold());
        assert!(large.len() >= small.len());
    }

    #[test]
    fn duplicates_collapse_without_overflowing() {
        let mut s = StreamSummary::new(2);
        for _ in 0..50 {
            s.insert(&[1.0, 1.0]).unwrap();
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.threshold(), 0.0);
        assert_eq!(s.weights(), &[50]);
    }

    #[test]
    fn dimension_mismatch_is_a_typed_rejection() {
        let mut s = StreamSummary::new(2);
        s.insert(&[0.0, 1.0]).unwrap();
        assert_eq!(s.insert(&[0.0, 1.0, 2.0]), Err(2));
        assert_eq!(s.seen(), 1);
        let mut empty = StreamSummary::new(2);
        assert_eq!(empty.insert(&[]), Err(0));
    }

    #[test]
    fn clone_snapshots_state_and_evolves_identically() {
        let pts = stream_points(21, 300);
        let mut original = StreamSummary::new(4);
        for p in &pts[..200] {
            original.insert(p).unwrap();
        }
        let mut snapshot = original.clone();
        assert_eq!(snapshot.digest(), original.digest());
        assert_eq!(snapshot.distance_evals(), original.distance_evals());
        for p in &pts[200..] {
            original.insert(p).unwrap();
            snapshot.insert(p).unwrap();
        }
        assert_eq!(snapshot.digest(), original.digest());
        assert_eq!(snapshot.distance_evals(), original.distance_evals());
    }

    #[test]
    fn snapshot_round_trips_and_evolves_identically() {
        let pts = stream_points(17, 300);
        let mut original = StreamSummary::new(5);
        for p in &pts[..180] {
            original.insert(p).unwrap();
        }
        let snap = original.snapshot();
        let mut restored = StreamSummary::from_snapshot(&snap, 3).expect("valid snapshot");
        assert_eq!(restored.digest(), original.digest());
        assert_eq!(restored.distance_evals(), original.distance_evals());
        assert_eq!(restored.peak_rows(), original.peak_rows());
        for p in &pts[180..] {
            original.insert(p).unwrap();
            restored.insert(p).unwrap();
        }
        assert_eq!(restored.digest(), original.digest());
        // An empty summary round-trips too.
        let empty = StreamSummary::new(3);
        let restored = StreamSummary::from_snapshot(&empty.snapshot(), 1).unwrap();
        assert_eq!(restored.digest(), empty.digest());
        assert!(restored.is_empty());
    }

    #[test]
    fn invalid_snapshots_restore_as_none() {
        let mut s = StreamSummary::new(3);
        for p in stream_points(19, 50) {
            s.insert(&p).unwrap();
        }
        let good = s.snapshot();
        let mut bad = good.clone();
        bad.budget = 0;
        assert!(StreamSummary::from_snapshot(&bad, 1).is_none());
        let mut bad = good.clone();
        bad.weights.pop();
        assert!(StreamSummary::from_snapshot(&bad, 1).is_none());
        let mut bad = good.clone();
        bad.centers[0].push(1.0);
        assert!(StreamSummary::from_snapshot(&bad, 1).is_none());
        let mut bad = good.clone();
        bad.centers[0][0] = f64::NAN;
        assert!(StreamSummary::from_snapshot(&bad, 1).is_none());
        let mut bad = good;
        bad.dim = 0;
        assert!(StreamSummary::from_snapshot(&bad, 1).is_none());
    }

    #[test]
    fn digest_tracks_state_not_chunking_or_threads() {
        let pts = stream_points(9, 250);
        let mut a = StreamSummary::with_threads(4, 1);
        let mut b = StreamSummary::with_threads(4, 4);
        for p in &pts {
            a.insert(p).unwrap();
            b.insert(p).unwrap();
        }
        assert_eq!(a.digest(), b.digest());
        // A different stream changes the digest.
        let mut c = StreamSummary::new(4);
        for p in stream_points(10, 250) {
            c.insert(&p).unwrap();
        }
        assert_ne!(a.digest(), c.digest());
    }
}
