//! Structure-of-arrays point storage — the substrate of the distance
//! kernels.
//!
//! Every hot loop of the reproduction bottoms out in pairwise distance
//! evaluations. Individually boxed [`Point`]s make those loops
//! pointer-chases: each distance dereferences two heap allocations. A
//! [`PointStore`] instead keeps *all* coordinates in one contiguous
//! `Vec<f64>` (point `i` occupies `[i·d, (i+1)·d)`) and caches each
//! point's squared norm, so the tiled kernel of [`crate::batch`] can
//! stream coordinates and use the `‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b`
//! factorization.
//!
//! Points are addressed by [`PointId`], a plain index newtype. A
//! [`StoreOracle`] view over a store implements
//! [`Metric<PointId>`](crate::Metric) and overrides the batched methods of
//! [`DistanceOracle`](crate::DistanceOracle) with the kernels, so every
//! generic algorithm in the workspace runs unchanged — only faster — when
//! handed ids instead of boxed points.

use crate::batch::{self, DistCounter, Kernel, PassBuffers, Tracked};
use crate::point::{Point, PointError};
use crate::{DistanceOracle, Metric};
use ukc_pool::Exec;

/// Index of a point inside a [`PointStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PointId(pub usize);

/// Copies `ids` with the element at `position` masked out, preserving
/// order — the slice-level counterpart of [`PointStore::ids_excluding`]
/// for masking a row out of an arbitrary id selection (e.g. the
/// representative slice of a leave-one-out variant). A `position` past
/// the end returns the whole slice.
pub fn mask_row(ids: &[PointId], position: usize) -> Vec<PointId> {
    let mut out = Vec::with_capacity(ids.len().saturating_sub(1));
    for (i, &id) in ids.iter().enumerate() {
        if i != position {
            out.push(id);
        }
    }
    out
}

impl PointId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Contiguous structure-of-arrays storage for fixed-dimension Euclidean
/// points: one flat coordinate buffer plus cached squared norms,
/// accumulated in the canonical tiled order ([`batch::tile::dot_seq`])
/// that [`Kernel::Tiled`]'s screen factorizes against, and the largest
/// of those norms, which bounds the factorized form's rounding error.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointStore {
    dim: usize,
    coords: Vec<f64>,
    norms_sq: Vec<f64>,
    max_norm_sq: f64,
}

impl PointStore {
    /// An empty store of dimension `dim`.
    ///
    /// # Panics
    /// Panics when `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "PointStore dimension must be positive");
        Self {
            dim,
            coords: Vec::new(),
            norms_sq: Vec::new(),
            max_norm_sq: 0.0,
        }
    }

    /// An empty store with room for `n` points.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        let mut s = Self::new(dim);
        s.coords.reserve(n * dim);
        s.norms_sq.reserve(n);
        s
    }

    /// Builds a store from a point slice.
    ///
    /// # Panics
    /// Panics when `points` is empty or dimensions disagree.
    pub fn from_points(points: &[Point]) -> Self {
        assert!(!points.is_empty(), "PointStore needs at least one point");
        let mut s = Self::with_capacity(points[0].dim(), points.len());
        for p in points {
            s.push_point(p);
        }
        s
    }

    /// Appends a point given its coordinates, returning its id.
    ///
    /// # Panics
    /// Panics on a dimension mismatch or a non-finite coordinate.
    pub fn push(&mut self, coords: &[f64]) -> PointId {
        self.try_push(coords).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Appends a point, returning a typed error instead of panicking on a
    /// dimension mismatch or non-finite coordinate.
    pub fn try_push(&mut self, coords: &[f64]) -> Result<PointId, PointError> {
        if coords.len() != self.dim {
            return Err(PointError::DimMismatch {
                got: coords.len(),
                expected: self.dim,
            });
        }
        if let Some(index) = coords.iter().position(|c| !c.is_finite()) {
            return Err(PointError::NonFinite {
                index,
                value: coords[index],
            });
        }
        let id = PointId(self.norms_sq.len());
        self.coords.extend_from_slice(coords);
        // The cached norm uses the same summation order as the tiled dot
        // products, so `‖a‖² + ‖b‖² − 2a·b` cancels exactly for a == b.
        let norm_sq = batch::tile::dot_seq(coords, coords);
        self.norms_sq.push(norm_sq);
        self.max_norm_sq = self.max_norm_sq.max(norm_sq);
        Ok(id)
    }

    /// Appends an existing [`Point`].
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn push_point(&mut self, p: &Point) -> PointId {
        self.push(p.coords())
    }

    /// Number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.norms_sq.len()
    }

    /// `true` when no points are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.norms_sq.is_empty()
    }

    /// The shared dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The coordinates of point `id`.
    ///
    /// # Panics
    /// Panics when `id` is out of range.
    #[inline]
    pub fn coords(&self, id: PointId) -> &[f64] {
        &self.coords[id.0 * self.dim..(id.0 + 1) * self.dim]
    }

    /// The cached squared norm `‖p‖²` of point `id`, accumulated in the
    /// canonical tiled order (ascending dimension, one f64 accumulator) —
    /// the norm cache [`Kernel::Tiled`] factorizes against.
    #[inline]
    pub fn norm_sq(&self, id: PointId) -> f64 {
        self.norms_sq[id.0]
    }

    /// The largest cached squared norm (`0.0` for an empty store) — what
    /// the rounding error bounds of [`batch::greedy_pass`]'s skips and of
    /// the tiled screen are measured against.
    #[inline]
    pub fn max_norm_sq(&self) -> f64 {
        self.max_norm_sq
    }

    /// The whole coordinate buffer (`len() * dim()` values, point-major).
    #[inline]
    pub fn raw_coords(&self) -> &[f64] {
        &self.coords
    }

    /// Materializes point `id` as an owned [`Point`].
    pub fn point(&self, id: PointId) -> Point {
        Point::new(self.coords(id).to_vec())
    }

    /// The ids `0..len()` in order.
    pub fn ids(&self) -> Vec<PointId> {
        (0..self.len()).map(PointId).collect()
    }

    /// The ids `0..len()` with `skip` masked out, preserving order — the
    /// row mask of the incremental layer: leave-one-out variants share one
    /// store and differ only in the id slice they sweep, so "remove a
    /// point" never copies coordinates. A `skip` outside the store returns
    /// all ids.
    pub fn ids_excluding(&self, skip: PointId) -> Vec<PointId> {
        (0..self.len())
            .filter(|&i| i != skip.0)
            .map(PointId)
            .collect()
    }

    /// Drops every point with index `>= n`, keeping the first `n` rows
    /// (a no-op when `n >= len()`). Ids `0..n` remain valid; higher ids
    /// become dangling. Capacity is retained, so a caller that pushes and
    /// retracts points in a loop (e.g. a streaming summary absorbing a
    /// covered point) does not reallocate.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        let dropped_max = self.norms_sq[n..].contains(&self.max_norm_sq);
        self.coords.truncate(n * self.dim);
        self.norms_sq.truncate(n);
        if dropped_max {
            self.max_norm_sq = self.norms_sq.iter().copied().fold(0.0, f64::max);
        }
    }
}

/// A distance oracle over a [`PointStore`]: implements
/// [`Metric<PointId>`] pairwise and overrides the batched
/// [`DistanceOracle`] methods with the [`crate::batch`] kernels.
///
/// Every distance it returns is the scalar loop's. Its multi-center
/// sweeps run [`Kernel::Tiled`], which screens with the tiled mini-GEMM
/// wherever [`Kernel::dispatch`] says the sweep is large enough to pay
/// and runs the scalar loop elsewhere; either way the bits are the same.
///
/// The oracle optionally shares a [`DistCounter`]; every evaluated
/// point-pair bumps it by exactly one, screened or not. Gonzalez's
/// passes ([`batch::greedy_pass`]) skip the rows the triangle inequality
/// rules out and count them as pruned instead; every other sweep
/// evaluates every pair.
///
/// [`StoreOracle::with_exec`] attaches an execution context: batched
/// sweeps over at least [`batch::PAR_MIN_POINTS`] rows then run block-parallel
/// on the pool through the kernels of [`crate::batch`]. Chunk
/// boundaries and reduction order are pure functions of the input size,
/// so results — and evaluation counts — are bit-identical for every
/// lane count (the execution-layer determinism contract).
pub struct StoreOracle<'a> {
    store: &'a PointStore,
    counter: Option<&'a DistCounter>,
    exec: Exec<'a>,
}

impl<'a> StoreOracle<'a> {
    /// An oracle over `store`, not counting evaluations, running
    /// sequentially.
    pub fn new(store: &'a PointStore) -> Self {
        Self {
            store,
            counter: None,
            exec: Exec::sequential(),
        }
    }

    /// Attaches an evaluation counter (one tick per point-pair).
    pub fn with_counter(mut self, counter: &'a DistCounter) -> Self {
        self.counter = Some(counter);
        self
    }

    /// Attaches an execution context for the batched sweeps.
    pub fn with_exec(mut self, exec: Exec<'a>) -> Self {
        self.exec = exec;
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &'a PointStore {
        self.store
    }

    /// The active execution context.
    pub fn exec(&self) -> Exec<'a> {
        self.exec
    }

    /// The attached evaluation counter, if any.
    pub fn counter(&self) -> Option<&'a DistCounter> {
        self.counter
    }

    #[inline]
    fn tally(&self, n: usize) {
        if let Some(c) = self.counter {
            c.add(n as u64);
        }
    }
}

impl Metric<PointId> for StoreOracle<'_> {
    #[inline]
    fn dist(&self, a: &PointId, b: &PointId) -> f64 {
        self.tally(1);
        batch::pair_dist(self.store, *a, *b)
    }

    fn nearest(&self, a: &PointId, centers: &[PointId]) -> Option<(usize, f64)> {
        self.tally(centers.len());
        batch::nearest_center(self.store, centers, *a, self.exec)
    }
}

impl DistanceOracle<PointId> for StoreOracle<'_> {
    fn dists_to_one(&self, points: &[PointId], q: &PointId, out: &mut [f64]) {
        self.tally(points.len());
        batch::dists_to_one(self.store, points, *q, self.exec, out);
    }

    fn dists_to_set_min(
        &self,
        points: &[PointId],
        center: &PointId,
        weight: Option<f64>,
        min_dist: &mut [f64],
    ) {
        self.tally(points.len());
        batch::dists_to_set_min(self.store, points, *center, weight, self.exec, min_dist);
    }

    fn dists_to_set_min_tracked(
        &self,
        points: &[PointId],
        center: &PointId,
        c: usize,
        rows: &mut [Tracked],
    ) {
        self.tally(points.len());
        batch::dists_to_set_min_tracked(self.store, points, *center, c, self.exec, rows);
    }

    fn greedy_pass(
        &self,
        points: &[PointId],
        centers: &[usize],
        rows: &mut [Tracked],
        buffers: &mut PassBuffers,
    ) -> (usize, f64) {
        let farthest = batch::greedy_pass(self.store, points, centers, self.exec, rows, buffers);
        let (evaluated, pruned) = buffers.pairs();
        self.tally(evaluated);
        if let Some(c) = self.counter {
            c.add_pruned(pruned as u64);
        }
        farthest
    }

    fn dists_to_centers_min(
        &self,
        points: &[PointId],
        centers: &[PointId],
        weights: Option<&[f64]>,
        min_dist: &mut [f64],
    ) {
        self.tally(points.len() * centers.len());
        let (store, exec) = (self.store, self.exec);
        batch::dists_to_centers_min(
            store,
            points,
            centers,
            weights,
            Kernel::Tiled,
            exec,
            min_dist,
        );
    }

    fn nearest_each(
        &self,
        queries: &[PointId],
        centers: &[PointId],
        weights: Option<&[f64]>,
        out: &mut [(usize, f64)],
    ) {
        assert!(out.len() >= queries.len(), "output buffer too small");
        if queries.is_empty() {
            // The trait contract: empty queries are trivially done, even
            // with no centers (matching the default implementation).
            return;
        }
        self.tally(queries.len() * centers.len());
        let (store, exec) = (self.store, self.exec);
        batch::nearest_center_each(store, queries, centers, weights, Kernel::Tiled, exec, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Euclidean;

    fn cloud(seed: u64, n: usize, d: usize) -> Vec<Point> {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new((0..d).map(|_| rnd() * 20.0 - 10.0).collect()))
            .collect()
    }

    #[test]
    fn store_roundtrips_points() {
        let pts = cloud(1, 7, 3);
        let store = PointStore::from_points(&pts);
        assert_eq!(store.len(), 7);
        assert_eq!(store.dim(), 3);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(store.coords(PointId(i)), p.coords());
            assert_eq!(store.point(PointId(i)), *p);
        }
    }

    #[test]
    fn try_push_rejects_bad_input() {
        let mut store = PointStore::new(2);
        assert!(matches!(
            store.try_push(&[1.0]),
            Err(PointError::DimMismatch {
                got: 1,
                expected: 2
            })
        ));
        assert!(matches!(
            store.try_push(&[1.0, f64::NAN]),
            Err(PointError::NonFinite { index: 1, .. })
        ));
        assert!(store.try_push(&[1.0, 2.0]).is_ok());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn scalar_oracle_matches_euclidean_exactly() {
        let pts = cloud(3, 12, 5);
        let store = PointStore::from_points(&pts);
        let oracle = StoreOracle::new(&store);
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                let reference = Euclidean.dist(&pts[i], &pts[j]);
                let d = oracle.dist(&PointId(i), &PointId(j));
                assert_eq!(d.to_bits(), reference.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn tiled_oracle_matches_within_tolerance() {
        for d in [1usize, 2, 3, 7, 8, 9, 16, 33] {
            let pts = cloud(d as u64 + 1, 9, d);
            let store = PointStore::from_points(&pts);
            let oracle = StoreOracle::new(&store);
            for i in 0..pts.len() {
                for j in 0..pts.len() {
                    // Bit for bit: a tiled oracle's pairs are scalar.
                    let reference = Euclidean.dist(&pts[i], &pts[j]);
                    let got = oracle.dist(&PointId(i), &PointId(j));
                    assert_eq!(got.to_bits(), reference.to_bits(), "d={d} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn tiled_distance_of_point_to_itself_is_exactly_zero() {
        let pts = cloud(9, 5, 13);
        let store = PointStore::from_points(&pts);
        let oracle = StoreOracle::new(&store);
        for i in 0..pts.len() {
            assert_eq!(oracle.dist(&PointId(i), &PointId(i)), 0.0);
        }
    }

    #[test]
    fn nearest_each_accepts_empty_queries_like_the_default() {
        let pts = cloud(2, 4, 2);
        let store = PointStore::from_points(&pts);
        let oracle = StoreOracle::new(&store);
        // Empty queries are trivially done, even with no centers — the
        // documented trait contract.
        oracle.nearest_each(&[], &[], None, &mut []);
        let mut out = [(0usize, 0.0f64); 2];
        oracle.nearest_each(
            &[PointId(0), PointId(1)],
            &[PointId(2), PointId(3)],
            None,
            &mut out,
        );
        assert!(out.iter().all(|&(i, d)| i < 2 && d.is_finite()));
    }

    #[test]
    fn truncate_drops_tail_rows_and_keeps_prefix_intact() {
        let pts = cloud(7, 5, 3);
        let mut store = PointStore::from_points(&pts);
        let before: Vec<Vec<f64>> = (0..3).map(|i| store.coords(PointId(i)).to_vec()).collect();
        store.truncate(3);
        assert_eq!(store.len(), 3);
        for (i, coords) in before.iter().enumerate() {
            assert_eq!(store.coords(PointId(i)), coords.as_slice());
        }
        // Re-pushing after a truncate reuses the freed rows.
        let id = store.push(pts[4].coords());
        assert_eq!(id, PointId(3));
        assert_eq!(store.coords(id), pts[4].coords());
        // Truncating past the end is a no-op.
        store.truncate(100);
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn oracle_counts_every_pair_once_regardless_of_kernel() {
        // At 200 × 32 the three-center sweeps run the tiled screen; at
        // 10 × 4 every sweep runs the scalar loop. Both count per pair.
        for (n, d) in [(10, 4), (200, 32)] {
            let pts = cloud(5, n, d);
            let store = PointStore::from_points(&pts);
            let ids = store.ids();
            let counter = DistCounter::new();
            let oracle = StoreOracle::new(&store).with_counter(&counter);
            let mut out = vec![0.0; ids.len()];
            oracle.dists_to_one(&ids, &PointId(0), &mut out);
            oracle.dists_to_set_min(&ids, &PointId(3), None, &mut out);
            oracle.dists_to_centers_min(&ids, &ids[..3], None, &mut out);
            let mut nearest = vec![(0usize, 0.0f64); ids.len()];
            oracle.nearest_each(&ids, &ids[..3], None, &mut nearest);
            let _ = oracle.nearest(&PointId(2), &ids[..4]);
            let _ = oracle.dist(&PointId(0), &PointId(1));
            // Weighted sweeps count exactly like their plain siblings:
            // one evaluation per point-pair.
            oracle.dists_to_set_min(&ids, &PointId(3), Some(0.5), &mut out);
            oracle.dists_to_centers_min(&ids, &ids[..3], Some(&[0.1, 0.2, 0.3]), &mut out);
            oracle.nearest_each(&ids, &ids[..3], Some(&[0.1, 0.2, 0.3]), &mut nearest);
            oracle.nearest_each(&[PointId(2)], &ids[..4], Some(&[0.0; 4]), &mut nearest);
            let want = n + n + 3 * n + 3 * n + 4 + 1 + n + 3 * n + 3 * n + 4;
            assert_eq!(counter.count(), want as u64, "n={n} d={d}");
        }
    }

    #[test]
    fn max_norm_sq_follows_pushes_and_truncates() {
        let mut store = PointStore::new(2);
        assert_eq!(store.max_norm_sq(), 0.0);
        store.push(&[1.0, 2.0]);
        store.push(&[3.0, 0.0]);
        store.push(&[0.0, 1.0]);
        assert_eq!(store.max_norm_sq(), 9.0);
        store.truncate(2);
        assert_eq!(store.max_norm_sq(), 9.0);
        store.truncate(1);
        assert_eq!(store.max_norm_sq(), 5.0);
        // A pure function of the rows, so equal rows make equal stores.
        let mut fresh = PointStore::new(2);
        fresh.push(&[1.0, 2.0]);
        assert_eq!(store, fresh);
    }

    #[test]
    fn row_masks_preserve_order_and_tolerate_out_of_range() {
        let pts = cloud(11, 5, 2);
        let store = PointStore::from_points(&pts);
        assert_eq!(
            store.ids_excluding(PointId(2)),
            vec![PointId(0), PointId(1), PointId(3), PointId(4)]
        );
        assert_eq!(store.ids_excluding(PointId(99)), store.ids());
        let ids = vec![PointId(7), PointId(3), PointId(9)];
        assert_eq!(mask_row(&ids, 1), vec![PointId(7), PointId(9)]);
        assert_eq!(mask_row(&ids, 5), ids);
        assert!(mask_row(&[], 0).is_empty());
    }
}
