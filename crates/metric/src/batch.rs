//! Batched Euclidean distance kernels over a [`PointStore`].
//!
//! Every value a routine here returns, stores or compares to pick a
//! result is the scalar reference value: per-pair difference-and-square
//! with sequential summation, the exact arithmetic of
//! [`crate::Point::dist`], so results are bit-identical to the pointwise
//! [`crate::Euclidean`] metric. The two multi-center sweep families
//! ([`dists_to_centers_min`], [`nearest_center_each`]) choose how fast
//! they run from the sweep's size and dimension ([`Kernel::dispatch`]),
//! never its bits:
//!
//! * small or low-dimensional sweeps run the scalar loop;
//! * larger ones screen with the `‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b`
//!   factorization over the store's cached squared norms, structured as
//!   a register-tiled mini-GEMM (see [`tile`]): [`tile::TILE_CENTERS`]
//!   centers are packed into a column-major panel that stays in L1, and
//!   each point row streams past it exactly once, [`tile::TILE_POINTS`]
//!   rows per block. The screen keeps each row's best and second-best
//!   factorized value, and the scalar loop measures the row's best
//!   center once; a derived error bound then decides the row whenever it
//!   separates that value from every other center, and otherwise the
//!   scalar loop over all of the row's centers does — the
//!   filter-and-refine pattern of filtered geometric predicates. Near
//!   ties, duplicated centers and norms too large to bound take the
//!   scalar loop.
//!
//! Both entries take a [`Kernel`]: [`Kernel::Tiled`] is the dispatch
//! above, which every solve runs; [`Kernel::Scalar`] pins the scalar
//! loop, the reference the tests and benches compare the screen against.
//!
//! The single-center and single-pair routines ([`dists_to_one`],
//! [`dists_to_set_min`], [`dists_to_set_min_tracked`], [`greedy_pass`],
//! [`nearest_center`], [`pair_dist`]) take no kernel: they run the scalar
//! loop, which the factorized form does not beat on one center.
//!
//! Each sweep family has one public entry point, which takes an
//! [`Exec`] ([`Exec::sequential`] runs it inline on the caller) and,
//! where centers are compared, optional additive center weights. Behind
//! each entry is one generic body over a per-candidate rule: `None`
//! selects the plain Euclidean distance, `Some` the additively weighted
//! (Apollonius) distance `d(p, cᵢ) − wᵢ`, and the choice is made once,
//! at the entry point, so the plain path runs its own monomorphised code
//! and never a zero-weight copy of the weighted one.
//!
//! The single-center min-update also comes in a *tracked* form
//! ([`dists_to_set_min_tracked`]) that keeps each row's nearest center
//! next to its running minimum, comparing exactly as
//! [`nearest_center_each`] does; Gonzalez's greedy runs on it, so its
//! radius and the nearest-center assignment need no further sweep. The
//! greedy's own pass, [`greedy_pass`], is a tracked pass that skips the
//! rows the triangle inequality proves the new center cannot tighten and
//! picks the next center on the way.
//!
//! Every routine performs — and [`DistCounter`]-instrumented callers
//! count — exactly one distance evaluation per point-pair, screened or
//! not (a refine re-measures a pair the screen already counted),
//! except that [`greedy_pass`] skips a pair it proves cannot change the
//! result and counts it as pruned ([`DistCounter::pruned`]).

use crate::store::{PointId, PointStore};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use ukc_pool::Exec;

/// Rows per parallel chunk. A pure constant — chunk boundaries must
/// depend only on the input size, never on the worker count, so the
/// ordered chunk reductions below are bit-identical for every lane count
/// (the execution-layer determinism contract).
pub const PAR_CHUNK: usize = 2048;

/// Minimum row count before a sweep is worth handing to the pool (below
/// this, chunk-dispatch overhead exceeds the sweep itself). Also a pure
/// function of input size, for the same determinism reason.
pub const PAR_MIN_POINTS: usize = 4096;

/// Below this dimension the tiled screen never pays: the cached norm
/// lookups and reduction machinery cost more than the one or two
/// multiplies they save, so [`Kernel::dispatch`] sends the sweep to the
/// scalar loop (the `d = 2` rows of BENCH_kernel.json therefore time the
/// scalar loop whatever kernel they name).
pub const FACTORIZED_MIN_DIM: usize = 3;

/// Minimum `pair_evals · dim` (total multiply-add work) before a
/// multi-center sweep runs the tiled screen. The cutoff comes from
/// measurements of the factorized form against the scalar loop: it lost
/// at `n = 1k, d = 8` (8k work) and won from `n = 1k, d = 32` (32k).
/// Results are the same on either side, so this is a speed setting only.
pub const FACTORIZED_MIN_WORK: usize = 16_384;

/// How the multi-center sweeps run. Both return the same bits;
/// [`Kernel::Tiled`] is the size-dispatched screen every solve runs, and
/// [`Kernel::Scalar`] is the reference it is tested and timed against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The scalar loop everywhere: per-pair difference-and-square,
    /// sequential summation over dimensions.
    Scalar,
    /// The multi-center sweeps screen with the norm-factorized
    /// register-tiled mini-GEMM over packed center panels (see [`tile`])
    /// and refine with the scalar loop, wherever [`Kernel::dispatch`]
    /// says the screen pays.
    Tiled,
}

impl Kernel {
    /// Both kernels, in definition order — for test and bench matrices.
    pub const ALL: [Kernel; 2] = [Kernel::Scalar, Kernel::Tiled];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Tiled => "tiled",
        }
    }

    /// The kernel a multi-center sweep of `pair_evals` point-pairs in
    /// dimension `dim` should actually run: the tiled screen falls back
    /// to the scalar loop below [`FACTORIZED_MIN_DIM`] /
    /// [`FACTORIZED_MIN_WORK`], where it loses to it. A pure function of
    /// the sweep size and dimension, applied once per sweep.
    #[inline]
    pub fn dispatch(self, pair_evals: usize, dim: usize) -> Kernel {
        if dim < FACTORIZED_MIN_DIM || pair_evals.saturating_mul(dim) < FACTORIZED_MIN_WORK {
            Kernel::Scalar
        } else {
            self
        }
    }
}

/// How many cache-line-padded cells a [`DistCounter`] spreads its adds
/// over.
const COUNTER_SHARDS: usize = 8;

/// One counter cell on its own cache line, so concurrent adds from
/// different lanes do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CounterCell(AtomicU64);

/// Monotone shard-id source for [`thread_shard`].
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's counter shard, assigned round-robin on first use.
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's shard index (stable for the thread's lifetime).
fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
        s.set(v);
        v
    })
}

/// A shared, *sharded* distance-evaluation counter.
///
/// The kernels' callers bump it by the number of point-pairs evaluated;
/// `ukc-core` threads one through every solve so its report says how
/// many distances each stage computed. Internally the count is spread
/// over cache-line-padded cells indexed by a per-thread shard, so the
/// parallel sweeps (and per-pair counting from many pool lanes at once)
/// never contend on one cache line; [`DistCounter::count`] sums the
/// cells, so per-stage totals stay **exact** — sharding changes where an
/// add lands, never whether it is counted.
///
/// Pairs a sweep proved it could skip ([`greedy_pass`]) go to a
/// separate tally, [`DistCounter::pruned`], which [`DistCounter::count`]
/// leaves out.
#[derive(Debug)]
pub struct DistCounter {
    cells: [CounterCell; COUNTER_SHARDS],
    pruned: CounterCell,
}

impl Default for DistCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl DistCounter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self {
            cells: std::array::from_fn(|_| CounterCell::default()),
            pruned: CounterCell::default(),
        }
    }

    /// Adds `n` evaluations (to the calling thread's shard).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[thread_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The evaluations so far (sum over all shards).
    pub fn count(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Evaluations since a previous [`DistCounter::count`].
    pub fn since(&self, since: u64) -> u64 {
        self.count().saturating_sub(since)
    }

    /// Adds `n` pairs that were skipped, not evaluated.
    pub fn add_pruned(&self, n: u64) {
        self.pruned.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The skipped pairs so far.
    pub fn pruned(&self) -> u64 {
        self.pruned.0.load(Ordering::Relaxed)
    }
}

/// Squared distance by sequential difference-and-square — the exact
/// arithmetic of [`crate::Point::dist_sq`].
///
/// # Panics
/// Debug-asserts equal lengths; release builds truncate to the shorter.
#[inline]
pub fn dist_sq_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// `‖a‖² + ‖b‖² − 2a·b` from a precomputed dot, clamped at zero
/// (cancellation can produce a tiny negative) — the tiled screen's
/// per-pair arithmetic. The clamp lets NaN through (`f64::max` would
/// turn it into 0).
#[inline(always)]
fn factored(a_norm_sq: f64, b_norm_sq: f64, dot: f64) -> f64 {
    let d_sq = (a_norm_sq + b_norm_sq) - 2.0 * dot;
    if d_sq < 0.0 {
        0.0
    } else {
        d_sq
    }
}

/// Register-tiled mini-GEMM primitives behind [`Kernel::Tiled`]'s
/// screen.
///
/// The multi-center sweeps are structured like a BLAS micro-kernel:
/// center coordinates are packed column-major into
/// [`TILE_CENTERS`](tile::TILE_CENTERS)-wide panels
/// ([`CenterPanels`](tile::CenterPanels)) that stay resident in L1, and
/// point rows stream past them [`TILE_POINTS`](tile::TILE_POINTS) at a
/// time. Inside a block the d-loop
/// is the only real loop; the `TILE_POINTS × TILE_CENTERS` multiply-add
/// block is fully unrolled over `[f64; TILE_CENTERS]` accumulator arrays,
/// which the autovectorizer keeps in vector registers (4 f64 lanes fill
/// one ymm register under the workspace's `x86-64-v3` baseline).
///
/// Every per-pair dot product in this module — [`dot_seq`](tile::dot_seq)
/// and each `(row, center)` cell of
/// [`dots_x4_panel`](tile::dots_x4_panel) — performs the identical
/// floating-point operation sequence: one f64 accumulator, ascending
/// dimension, `acc + x·y` per step, and [`PointStore`] caches squared
/// norms accumulated in the same order. A screened value is therefore a
/// pure function of the stored coordinates, independent of block
/// membership, panel shape, chunking, and thread count. SIMD parallelism
/// lives across the *center* axis (independent accumulators), never
/// inside a single pair's reduction.
pub mod tile {
    /// Point rows processed together per block (interleaved for
    /// instruction-level parallelism).
    pub const TILE_POINTS: usize = 4;

    /// Centers packed per panel — the SIMD lane width of the
    /// `[f64; TILE_CENTERS]` accumulator arrays.
    pub const TILE_CENTERS: usize = 4;

    /// The canonical tiled dot product: one f64 accumulator, ascending
    /// dimension. Every panel cell reproduces exactly this operation
    /// sequence per pair (see the module docs).
    #[inline]
    pub fn dot_seq(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
    }

    /// Centers packed for the tiled sweeps: coordinates laid out
    /// column-major per panel — `coords[(g·d + t)·TILE_CENTERS + c]` is
    /// coordinate `t` of panel-local center `c` of panel `g` — with slots
    /// past the real center count padded by zero coordinates and `+∞`
    /// norms, so a padded column can never win a minimum.
    #[derive(Clone, Debug)]
    pub struct CenterPanels {
        coords: Vec<f64>,
        norms_sq: Vec<f64>,
        dim: usize,
    }

    impl CenterPanels {
        /// Packs `len` centers of dimension `dim`; `coord(c, t)` and
        /// `norm_sq(c)` supply the values.
        pub fn pack(
            len: usize,
            dim: usize,
            coord: impl Fn(usize, usize) -> f64,
            norm_sq: impl Fn(usize) -> f64,
        ) -> Self {
            let padded = len.div_ceil(TILE_CENTERS).max(1) * TILE_CENTERS;
            let mut coords = vec![0.0; padded * dim];
            let mut norms = vec![f64::INFINITY; padded];
            for (c, norm) in norms.iter_mut().enumerate().take(len) {
                let (g, j) = (c / TILE_CENTERS, c % TILE_CENTERS);
                for t in 0..dim {
                    coords[(g * dim + t) * TILE_CENTERS + j] = coord(c, t);
                }
                *norm = norm_sq(c);
            }
            Self {
                coords,
                norms_sq: norms,
                dim,
            }
        }

        /// Number of [`TILE_CENTERS`]-wide panels, including the padded
        /// tail.
        pub fn n_panels(&self) -> usize {
            self.norms_sq.len() / TILE_CENTERS
        }

        /// The column-major coordinate block of panel `g`
        /// (`dim · TILE_CENTERS` values).
        #[inline]
        pub fn panel_coords(&self, g: usize) -> &[f64] {
            &self.coords[g * self.dim * TILE_CENTERS..(g + 1) * self.dim * TILE_CENTERS]
        }

        /// The (possibly `+∞`-padded) squared norms of panel `g`.
        #[inline]
        pub fn panel_norms_sq(&self, g: usize) -> &[f64; TILE_CENTERS] {
            self.norms_sq[g * TILE_CENTERS..(g + 1) * TILE_CENTERS]
                .try_into()
                .expect("panel width")
        }
    }

    /// The 4×4 micro-kernel: dots of four point rows against one packed
    /// panel. The d-loop is the only real loop — the 4×4 multiply-add
    /// block is fully unrolled around `[f64; TILE_CENTERS]` lane
    /// accumulators. Per-pair accumulation order is exactly [`dot_seq`].
    ///
    /// # Panics
    /// Panics when any row is shorter than the panel's dimension.
    #[inline]
    pub fn dots_x4_panel(
        rows: [&[f64]; TILE_POINTS],
        panel: &[f64],
    ) -> [[f64; TILE_CENTERS]; TILE_POINTS] {
        let d = panel.len() / TILE_CENTERS;
        let [r0, r1, r2, r3] = rows;
        assert!(
            r0.len() >= d && r1.len() >= d && r2.len() >= d && r3.len() >= d,
            "row shorter than panel dimension"
        );
        let mut acc = [[0.0f64; TILE_CENTERS]; TILE_POINTS];
        for t in 0..d {
            let cv: &[f64; TILE_CENTERS] = panel[t * TILE_CENTERS..(t + 1) * TILE_CENTERS]
                .try_into()
                .expect("panel stride");
            let xs = [r0[t], r1[t], r2[t], r3[t]];
            for p in 0..TILE_POINTS {
                for c in 0..TILE_CENTERS {
                    acc[p][c] += xs[p] * cv[c];
                }
            }
        }
        acc
    }
}

/// How a sweep compares one candidate center — the only part of a sweep
/// family that differs between the plain Euclidean distance ([`Plain`])
/// and the additively weighted one ([`Additive`]). A candidate arrives
/// with its weight `w` ([`Rule::weight`], or a padded panel slot's),
/// which [`Plain`] ignores.
///
/// The scalar loop compares [`Rule::shift`]ed distances. The tiled screen
/// ranks panel slots by [`Rule::key`] and compares a row's second-best key
/// with a shifted distance through [`Rule::above`].
trait Rule: Copy + Send + Sync {
    /// The rule over centers `r` of the list (one chunk of a sweep).
    fn slice(self, r: Range<usize>) -> Self;
    /// The weights re-laid to `panels`' slots (see [`pad_weights`]).
    fn pad(self, panels: &tile::CenterPanels) -> Vec<f64>;
    /// The weight of center `c` of the list.
    fn weight(self, c: usize) -> f64;
    /// The largest weight magnitude (what the screen's error bound
    /// grows with).
    fn max_weight(self) -> f64;
    /// The value the scalar loop compares for a center of weight `w` at
    /// Euclidean distance `d`.
    fn shift(self, d: f64, w: f64) -> f64;
    /// The screen key of a slot of weight `w` at factorized squared
    /// distance `nd_sq`: ordered as the values it stands for.
    fn key(self, nd_sq: f64, w: f64) -> f64;
    /// Whether a screen key stands for a value above `bound` (up to the
    /// rounding of the comparison, which the [`Filter`] margin covers).
    fn above(self, key: f64, bound: f64) -> bool;
}

/// The plain Euclidean distance: the screen keeps squared keys and never
/// takes a `sqrt`.
#[derive(Clone, Copy)]
struct Plain;

impl Rule for Plain {
    fn slice(self, _: Range<usize>) -> Self {
        self
    }

    fn pad(self, panels: &tile::CenterPanels) -> Vec<f64> {
        pad_weights(&[], panels)
    }

    fn weight(self, _: usize) -> f64 {
        0.0
    }

    fn max_weight(self) -> f64 {
        0.0
    }

    fn shift(self, d: f64, _: f64) -> f64 {
        d
    }

    #[inline(always)]
    fn key(self, nd_sq: f64, _: f64) -> f64 {
        nd_sq
    }

    #[inline(always)]
    fn above(self, key: f64, bound: f64) -> bool {
        bound < 0.0 || key > bound * bound
    }
}

/// Additive center weights: center `c` is at `d(p, c) − w[c]`, which
/// turns nearest-center cells from a Voronoi into an Apollonius diagram.
/// Values are weighted distances (negative once a weight exceeds a
/// distance). The screen's keys are the values themselves, one `sqrt`
/// per slot: a branch-free `sqrt` beats a squared-space test that
/// mispredicts.
#[derive(Clone, Copy)]
struct Additive<'w>(&'w [f64]);

impl<'w> Additive<'w> {
    /// The rule for `centers` carrying `weights`.
    ///
    /// # Panics
    /// Panics when `weights` and `centers` differ in length.
    fn of(centers: &[PointId], weights: &'w [f64]) -> Self {
        assert_eq!(
            centers.len(),
            weights.len(),
            "one weight per center required"
        );
        Additive(weights)
    }
}

impl Rule for Additive<'_> {
    fn slice(self, r: Range<usize>) -> Self {
        Additive(&self.0[r])
    }

    fn pad(self, panels: &tile::CenterPanels) -> Vec<f64> {
        pad_weights(self.0, panels)
    }

    fn weight(self, c: usize) -> f64 {
        self.0[c]
    }

    /// NaN when any weight is NaN, which refuses the [`Filter`].
    fn max_weight(self) -> f64 {
        if self.0.iter().any(|w| w.is_nan()) {
            return f64::NAN;
        }
        self.0.iter().fold(0.0, |m, w| m.max(w.abs()))
    }

    fn shift(self, d: f64, w: f64) -> f64 {
        d - w
    }

    #[inline(always)]
    fn key(self, nd_sq: f64, w: f64) -> f64 {
        nd_sq.sqrt() - w
    }

    #[inline(always)]
    fn above(self, key: f64, bound: f64) -> bool {
        key > bound
    }
}

/// Weights re-laid to panel slots: pad columns get `0.0`, which is
/// harmless — their `+∞` norms already make every padded `nd_sq` `+∞`,
/// which never beats a real slot.
fn pad_weights(weights: &[f64], panels: &tile::CenterPanels) -> Vec<f64> {
    let mut padded = vec![0.0; panels.n_panels() * tile::TILE_CENTERS];
    padded[..weights.len()].copy_from_slice(weights);
    padded
}

/// Packs `centers` into [`tile::CenterPanels`] with the store's
/// (order-matched) norms.
fn pack_panels(store: &PointStore, centers: &[PointId]) -> tile::CenterPanels {
    tile::CenterPanels::pack(
        centers.len(),
        store.dim(),
        |c, t| store.coords(centers[c])[t],
        |c| store.norm_sq(centers[c]),
    )
}

/// Runs `f(start, rows)` over `out`: in [`PAR_CHUNK`]-row slices on the
/// pool when `exec` is parallel and the sweep has at least
/// [`PAR_MIN_POINTS`] rows, else once over the whole slice. Every row's
/// value depends only on its own pairs, so the split never moves a bit.
fn for_rows<O: Send>(exec: Exec<'_>, out: &mut [O], f: impl Fn(usize, &mut [O]) + Sync) {
    if !exec.is_parallel() || out.len() < PAR_MIN_POINTS {
        f(0, out);
    } else {
        ukc_pool::for_each_slice(exec, out, PAR_CHUNK, f);
    }
}

/// Distance between two stored points by the scalar loop — the
/// single-pair form behind [`crate::Metric::dist`] on a
/// [`crate::StoreOracle`].
#[inline]
pub fn pair_dist(store: &PointStore, a: PointId, b: PointId) -> f64 {
    dist_sq_scalar(store.coords(a), store.coords(b)).sqrt()
}

/// Fills `out[i] = d(points[i], q)`, in [`PAR_CHUNK`]-row blocks on the
/// pool when `exec` is parallel. The fill is elementwise (every `out[i]`
/// depends only on pair `i`), so the result is bit-identical for every
/// [`Exec`]; [`Exec::sequential`] runs it inline.
///
/// # Panics
/// Panics when `out` is shorter than `points`.
pub fn dists_to_one(
    store: &PointStore,
    points: &[PointId],
    q: PointId,
    exec: Exec<'_>,
    out: &mut [f64],
) {
    assert!(out.len() >= points.len(), "output buffer too small");
    // A distance is the min-update of +∞: every pair tightens it (or, at
    // +∞ itself, leaves the identical bits).
    out[..points.len()].fill(f64::INFINITY);
    set_min(store, points, q, Plain, exec, out);
}

/// Tightens a running minimum-distance array against a new center:
/// `min_dist[i] = min(min_dist[i], d(points[i], center) − w)` — the
/// exact inner loop of Gonzalez's farthest-point sweep. `weight` is the
/// center's additive weight `w` (`min_dist` then holds weighted
/// distances, which may be negative once a weight exceeds a distance),
/// or `None` for the plain distance. Block-parallel over
/// [`PAR_CHUNK`]-row blocks and elementwise like [`dists_to_one`], so
/// bit-identical across every [`Exec`].
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`.
pub fn dists_to_set_min(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    weight: Option<f64>,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    match weight {
        None => set_min(store, points, center, Plain, exec, min_dist),
        Some(w) => {
            let rule = Additive(std::slice::from_ref(&w));
            set_min(store, points, center, rule, exec, min_dist);
        }
    }
}

/// The scalar min-update: `m` takes `nd` when it is strictly smaller.
#[inline(always)]
fn lower(m: &mut f64, nd: f64) {
    if nd < *m {
        *m = nd;
    }
}

/// The set-min family: `center` is candidate 0 of `rule`.
fn set_min<R: Rule>(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    rule: R,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
    let w = rule.weight(0);
    one_center(store, points, center, exec, min_dist, |m, d| {
        lower(m, rule.shift(d, w));
    });
}

/// One row of Gonzalez's tracked min-update passes
/// ([`crate::DistanceOracle::dists_to_set_min_tracked`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tracked {
    /// The running minimum distance, tightened exactly as
    /// [`dists_to_set_min`] tightens its array.
    pub min: f64,
    /// The pass index of the first center that reached `min`.
    pub nearest: usize,
}

impl Tracked {
    /// A row no pass has touched yet.
    pub const START: Tracked = Tracked {
        min: f64::INFINITY,
        nearest: 0,
    };

    /// The row's update by the center of pass index `c` at distance `d`:
    /// a strict-`<` improvement, the comparison of
    /// [`nearest_center_each`]. Returns whether the row changed.
    #[inline(always)]
    pub fn update(&mut self, d: f64, c: usize) -> bool {
        let better = d < self.min;
        if better {
            self.min = d;
            self.nearest = c;
        }
        better
    }
}

/// [`dists_to_set_min`] that also tracks each row's nearest center: the
/// running minimum tightens exactly as the plain sweep's does, and the
/// nearest index follows it ([`Tracked::update`]). Elementwise, so
/// bit-identical across every [`Exec`].
///
/// # Panics
/// Panics when `rows` is shorter than `points`.
pub fn dists_to_set_min_tracked(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    c: usize,
    exec: Exec<'_>,
    rows: &mut [Tracked],
) {
    assert!(rows.len() >= points.len(), "tracked buffer too small");
    one_center(store, points, center, exec, rows, |r, d| {
        r.update(d, c);
    });
}

/// f64 unit roundoff `u`: a correctly rounded operation is off by at
/// most `u` relative.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// The rounding slack of the two derived error bounds in this module:
/// [`greedy_pass`]'s skips and the tiled screen's [`Filter`]. A pass
/// skips a row when its running minimum `m` is below [`PruneSlack::half`]
/// of the computed distance `d̂(c, c₀)` between the new center `c` and
/// the row's nearest center `c₀`.
///
/// The proof. The triangle inequality gives the true
/// `d(p, c) ≥ d(c, c₀) − d(p, c₀)`; the row keeps its bits when the
/// computed `d̂(p, c)` cannot undercut what the pass compares it with.
/// Let `N` be the store's largest squared norm and `u` the unit
/// roundoff.
///
/// * Factorized: `r̂ = ‖a‖² + ‖b‖² − 2a·b`, with norms and dot
///   accumulated over `d` dimensions, is within `E` of `d²`: each norm is
///   off by `γ_d·N`, the dot by `γ_d·‖a‖‖b‖ ≤ γ_d·N`, and the two sums by
///   `u` times at most `2N` each, so `E ≤ (4d + 7)·u·N`; underflow in the
///   products adds at most `f64::MIN_POSITIVE`. As `|a − b|² ≤ |a² − b²|`,
///   a distance `√r̂` is within `√E` of the true one.
/// * Scalar: the difference-and-square sum of `d` terms is within
///   `(d + 2)·u` relative of `d²`, so `|d̂ − d| ≤ (d/2 + 2)·u·d`, plus
///   `√f64::MIN_POSITIVE` for underflow. The pass compares `d̂(p, c)`
///   with `m`, which is `d̂(p, c₀)`, and cannot update once
///   `d̂(c, c₀)·(1 − (d + 4)·u) ≥ 2m + 3·√f64::MIN_POSITIVE`.
///
/// The slack doubles each bound (`E = 8(d + 2)·u·N + f64::MIN_POSITIVE`
/// and a relative `2(d + 4)·u`), adds `8u` for the threshold's own
/// rounding, and subtracts `4√E`, which covers both absolute terms.
#[derive(Clone, Copy, Debug)]
struct PruneSlack {
    rel: f64,
    abs: f64,
}

impl PruneSlack {
    fn of(store: &PointStore) -> Self {
        let (d, u) = (store.dim() as f64, UNIT_ROUNDOFF);
        let e = 8.0 * (d + 2.0) * u * store.max_norm_sq() + f64::MIN_POSITIVE;
        PruneSlack {
            rel: 2.0 * (d + 4.0) * u + 8.0 * u,
            abs: 4.0 * e.sqrt(),
        }
    }

    /// The threshold for a row whose nearest center is at computed
    /// distance `d_cc` from the new one.
    fn half(self, d_cc: f64) -> f64 {
        (d_cc * (1.0 - self.rel) - self.abs) * 0.5
    }
}

/// The scratch of Gonzalez's passes ([`greedy_pass`]): each earlier
/// center's skip threshold, the rows a pass keeps and their distances.
/// A traversal owns one across its passes, so a pass allocates nothing
/// once the buffers have grown to the row count. After a pass they
/// list the rows that pass updated ([`PassBuffers::updated`]) and the
/// pairs it evaluated and skipped ([`PassBuffers::pairs`]).
#[derive(Clone, Debug, Default)]
pub struct PassBuffers {
    pub(crate) half: Vec<f64>,
    pub(crate) kept: Vec<usize>,
    pub(crate) dists: Vec<f64>,
    pub(crate) updated: usize,
    pub(crate) pairs: (usize, usize),
}

impl PassBuffers {
    /// The rows the last pass updated — a strictly smaller `min`, and
    /// with it the pass's index as `nearest` — in row order.
    pub fn updated(&self) -> &[usize] {
        &self.kept[..self.updated]
    }

    /// The pairs the last pass evaluated — the rows it did not skip,
    /// plus the new center against every earlier one — and the pairs it
    /// skipped, one per skipped row: what it added to a counting
    /// oracle's evaluations and pruned pairs.
    pub fn pairs(&self) -> (usize, usize) {
        self.pairs
    }

    /// The heap bytes the buffers hold.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.half.capacity() + self.dists.capacity()) * size_of::<f64>()
            + self.kept.capacity() * size_of::<usize>()
    }
}

/// One pass of Gonzalez's greedy over `rows`, which hold the tracked
/// passes ([`dists_to_set_min_tracked`]) of `points[centers[j]]` at pass
/// index `j` for every `j` but the last: the tracked pass of the last
/// center, at pass index `centers.len() − 1`, then the farthest-point
/// pick. Every row ends with the bits the tracked pass gives it, and
/// the pass returns the row with the largest `min` (as an index into
/// `points`) and that `min`, ties toward the larger index —
/// `Iterator::max_by`'s pick over NaN-free rows.
/// `buffers` ends listing the rows the pass updated and its counts
/// ([`PassBuffers::updated`], [`PassBuffers::pairs`]).
///
/// The pass measures the new center against each earlier one. A row
/// whose `min` lies below half the distance between the new center and
/// its nearest one, less a rounding slack (derived at `PruneSlack`),
/// provably keeps its `min` and `nearest`, so it is skipped; the
/// triangle inequality bound of Elkan (ICML 2003).
///
/// The pass tests every row in row order, folding each skipped row
/// into the farthest-row pick as it goes, and lists the kept rows. It
/// then evaluates the kept rows: on the pool in [`PAR_CHUNK`] slices of
/// that list when `exec` is parallel and at least [`PAR_MIN_POINTS`]
/// rows are kept, else on the calling lane, so a late pass that keeps a
/// few rows costs no fork-join. Last it updates the kept rows and folds
/// them in row order, compacting the list down to the rows it updated.
/// A running minimum is never NaN (it starts at +∞ and only a strictly
/// smaller distance replaces it), so the two folds merge into the larger
/// `(min, index)`. The kept list is a function of the rows' own values,
/// so results and counts are bit-identical for every [`Exec`].
///
/// # Panics
/// Panics when `centers` or `points` is empty, or `rows` is shorter
/// than `points`.
pub fn greedy_pass(
    store: &PointStore,
    points: &[PointId],
    centers: &[usize],
    exec: Exec<'_>,
    rows: &mut [Tracked],
    buffers: &mut PassBuffers,
) -> (usize, f64) {
    let (&newest, earlier) = centers.split_last().expect("a pass needs a center");
    assert!(!points.is_empty(), "a pass needs a row");
    assert!(rows.len() >= points.len(), "tracked buffer too small");
    let n = points.len();
    let cc = store.coords(points[newest]);
    let PassBuffers {
        half,
        kept,
        dists,
        updated,
        pairs,
    } = buffers;
    // Row thresholds by nearest center; a first pass skips nothing (its
    // rows are all `Tracked::START`, nearest 0).
    half.clear();
    if earlier.is_empty() {
        half.push(f64::NEG_INFINITY);
    } else {
        let slack = PruneSlack::of(store);
        half.extend(
            earlier
                .iter()
                .map(|&j| slack.half(dist_sq_scalar(cc, store.coords(points[j])).sqrt())),
        );
    }
    let c = earlier.len();
    let rows = &mut rows[..n];
    // The test, written without a branch on its outcome: every row is
    // stored, and only a kept row advances the list. Both lists stay at
    // the row count across passes, so only a traversal's first pass
    // fills them.
    kept.resize(n, 0);
    dists.resize(n, 0.0);
    let mut skipped_far = NO_ROW;
    let mut len = 0;
    for (i, r) in rows.iter().enumerate() {
        let keep = not_below(r.min, half[r.nearest]);
        kept[len] = i;
        len += usize::from(keep);
        if !keep && not_below(r.min, skipped_far.1) {
            skipped_far = (i, r.min);
        }
    }
    // Four kept rows at a time, their sums interleaved: each distance is
    // still `dist_sq_scalar`'s sequence of operations.
    let row = |i: usize| store.coords(points[i]);
    {
        let kept = &kept[..len];
        for_rows(exec, &mut dists[..len], |start, out| {
            let kept = &kept[start..start + out.len()];
            let quads = out.len() / tile::TILE_POINTS * tile::TILE_POINTS;
            for q in (0..quads).step_by(tile::TILE_POINTS) {
                let rows = std::array::from_fn(|p| row(kept[q + p]));
                out[q..q + tile::TILE_POINTS]
                    .copy_from_slice(&scalar_dists_x4(rows, [cc; tile::TILE_POINTS]));
            }
            for (d, &i) in out[quads..].iter_mut().zip(&kept[quads..]) {
                *d = dist_sq_scalar(row(i), cc).sqrt();
            }
        });
    }
    // The update, compacting the kept list in place down to the rows
    // that changed (written without a branch, like the test).
    let mut kept_far = NO_ROW;
    let mut changed = 0;
    for t in 0..len {
        let (i, d) = (kept[t], dists[t]);
        let r = &mut rows[i];
        let better = r.update(d, c);
        kept[changed] = i;
        changed += usize::from(better);
        if not_below(r.min, kept_far.1) {
            kept_far = (i, r.min);
        }
    }
    *updated = changed;
    // The kept rows, plus the center–center distances.
    *pairs = (len + c, n - len);
    farther(skipped_far, kept_far)
}

/// The farthest-row fold's start: any row replaces it.
const NO_ROW: (usize, f64) = (usize::MAX, f64::NEG_INFINITY);

/// The farther of two fold results: the larger `min`, ties toward the
/// larger index.
fn farther(a: (usize, f64), b: (usize, f64)) -> (usize, f64) {
    if a.0 == NO_ROW.0 || b.1 > a.1 || (b.1 == a.1 && b.0 > a.0) {
        b
    } else {
        a
    }
}

/// `!(x < best)`: a fold that replaces on it keeps the last of equal
/// values, as `Iterator::max_by` over `partial_cmp` does.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
fn not_below(x: f64, best: f64) -> bool {
    !(x < best)
}

/// A single-center sweep: every row's state in `out` takes
/// `f(state, d)` with its scalar distance `d` to `center`.
fn one_center<O: Send>(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    exec: Exec<'_>,
    out: &mut [O],
    f: impl Fn(&mut O, f64) + Sync,
) {
    let cc = store.coords(center);
    for_rows(exec, &mut out[..points.len()], |start, out| {
        for (p, o) in points[start..start + out.len()].iter().zip(out) {
            f(o, dist_sq_scalar(store.coords(*p), cc).sqrt());
        }
    });
}

/// Index (into `centers`) and distance of the center nearest to `q`,
/// ties broken toward the lower index; `None` for an empty center set.
///
/// A large center set is split into [`PAR_CHUNK`]-center chunks whose
/// argmins are folded **in chunk-index order** with a strict `<`, which
/// preserves the sequential first-wins tie-breaking. Chunking engages
/// purely by size (`centers.len() >= PAR_MIN_POINTS`), never by
/// [`Exec`], so `threads = 1` and `threads = N` agree bit for bit.
pub fn nearest_center(
    store: &PointStore,
    centers: &[PointId],
    q: PointId,
    exec: Exec<'_>,
) -> Option<(usize, f64)> {
    nearest(store, centers, Plain, q, exec)
}

/// The nearest family, chunked by size (see [`nearest_center`]).
/// Always inlined, like [`nearest_scalar`]: the scalar assignment sweep
/// calls it once per query, and over a handful of centers a call costs
/// as much as the argmin itself.
#[inline(always)]
fn nearest<R: Rule>(
    store: &PointStore,
    centers: &[PointId],
    rule: R,
    q: PointId,
    exec: Exec<'_>,
) -> Option<(usize, f64)> {
    if centers.len() < PAR_MIN_POINTS {
        return nearest_scalar(store, centers, rule, q);
    }
    let partials = ukc_pool::map_chunks(exec, centers.len(), PAR_CHUNK, |r| {
        nearest_scalar(store, &centers[r.clone()], rule.slice(r.clone()), q)
            .map(|(i, d)| (i + r.start, d))
    });
    let mut best: Option<(usize, f64)> = None;
    for p in partials.into_iter().flatten() {
        if best.is_none_or(|(_, bd)| p.1 < bd) {
            best = Some(p);
        }
    }
    best
}

/// One unchunked scalar argmin.
#[inline(always)]
fn nearest_scalar<R: Rule>(
    store: &PointStore,
    centers: &[PointId],
    rule: R,
    q: PointId,
) -> Option<(usize, f64)> {
    let qc = store.coords(q);
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in centers.iter().enumerate() {
        let d = dist_sq_scalar(store.coords(*c), qc).sqrt();
        let d = rule.shift(d, rule.weight(i));
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i, d));
        }
    }
    best
}

/// The tiled screens of one [`tile::TILE_POINTS`]-row block: each row's
/// best and second-best keys over the panel slots and the slot of the
/// first best, in the rule's key space ([`Rule::key`]), laid out one
/// array per field so the four rows update in lockstep.
#[derive(Clone, Copy, Debug)]
struct Screens {
    best: [f64; tile::TILE_POINTS],
    second: [f64; tile::TILE_POINTS],
    slot: [usize; tile::TILE_POINTS],
}

impl Screens {
    /// A block no slot has been offered to.
    const START: Screens = Screens {
        best: [f64::INFINITY; tile::TILE_POINTS],
        second: [f64::INFINITY; tile::TILE_POINTS],
        slot: [0; tile::TILE_POINTS],
    };

    /// Offers row `p` the slot `slot` at `key`; a strict `<` keeps the
    /// first of equal keys. Written as selects, not branches, so it
    /// compiles to branch-free min/blend code: the keys are never NaN
    /// under an active [`Filter`].
    #[inline(always)]
    fn offer(&mut self, p: usize, key: f64, slot: usize) {
        let (best, second) = (self.best[p], self.second[p]);
        let better = key < best;
        let displaced = if better { best } else { key };
        self.second[p] = if displaced < second {
            displaced
        } else {
            second
        };
        self.slot[p] = if better { slot } else { self.slot[p] };
        self.best[p] = if better { key } else { best };
    }
}

/// What a row's screen hands its refine: the screen's best slot, the
/// row's second-best screen key, and the scalar distance from the row to
/// the best slot's center.
#[derive(Clone, Copy, Debug)]
struct Refine {
    slot: usize,
    second: f64,
    dist: f64,
}

/// When a row's screen decides its scalar result. Every screened value
/// and the scalar value of the same pair lie within `ε` of the exact
/// `d(p, c) − w_c`, so within `margin = 2ε` of each other:
///
/// * the screened values are `√r̂` (plain) or `√r̂ − w` (weighted), each
///   operation correctly rounded, with `r̂` within `E` of `d²`
///   ([`PruneSlack`]), so within `√E + 2u·d + u·W` of exact;
/// * the scalar values are within `(d/2 + 3)·u·d + √f64::MIN_POSITIVE +
///   u·W` of exact ([`PruneSlack`]'s scalar bound plus the subtraction);
/// * `d ≤ 2√N`, with `N` the store's largest squared norm, and `W` is
///   the largest weight magnitude.
///
/// `ε = 4√E + rel·(2√N + W)`, with [`PruneSlack`]'s doubled `E` and
/// `rel = (2d + 16)·u`, covers both with room for the squared-space
/// screen's and the test's own rounding. Every center but the screen's
/// best slot `b` then has a scalar value of at least the second-best
/// screened value less `margin`; once that exceeds `v`, the scalar value
/// of `b` (or a running minimum below it), by `margin` more, no other
/// center can reach `v` ([`Filter::clears`]).
///
/// The bound needs every factorized and scalar sum to stay finite, so
/// [`Filter::of`] refuses a store whose `4(d + 2)·N` would overflow (or
/// whose norms are not finite) and a weight vector that is not finite.
#[derive(Clone, Copy, Debug)]
struct Filter {
    margin: f64,
}

impl Filter {
    /// The filter for sweeps over `store` with weights up to
    /// `max_weight` in magnitude; `None` when the bound does not hold.
    fn of(store: &PointStore, max_weight: f64) -> Option<Filter> {
        let n = store.max_norm_sq();
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(n <= f64::MAX / (4.0 * (store.dim() as f64 + 2.0))) {
            return None;
        }
        let slack = PruneSlack::of(store);
        let eps = slack.abs + slack.rel * (2.0 * n.sqrt() + max_weight);
        let margin = 2.0 * eps;
        margin.is_finite().then_some(Filter { margin })
    }

    /// Whether every center but the screen's best slot has a scalar value
    /// strictly above `v`, given the row's second-best screen key under
    /// `rule`.
    #[inline(always)]
    fn clears<R: Rule>(self, rule: R, second: f64, v: f64) -> bool {
        rule.above(second, v + 2.0 * self.margin)
    }
}

/// Runs the scalar loop for a row its screen did not decide — rare, and
/// kept out of line so the screen's block loop stays small.
#[cold]
#[inline(never)]
fn unscreened<T>(scalar: impl FnOnce() -> T) -> T {
    scalar()
}

/// The scalar distances from four point rows to four centers, the pairs
/// interleaved for instruction-level parallelism; each pair's arithmetic
/// is exactly [`dist_sq_scalar`]'s, then `sqrt`.
///
/// # Panics
/// Panics when a row or center is shorter than `rows[0]`.
#[inline(always)]
fn scalar_dists_x4(
    rows: [&[f64]; tile::TILE_POINTS],
    centers: [&[f64]; tile::TILE_POINTS],
) -> [f64; tile::TILE_POINTS] {
    let d = rows[0].len();
    let rows = rows.map(|r| &r[..d]);
    let centers = centers.map(|c| &c[..d]);
    let mut acc = [0.0f64; tile::TILE_POINTS];
    for t in 0..d {
        for p in 0..tile::TILE_POINTS {
            let x = rows[p][t] - centers[p][t];
            acc[p] += x * x;
        }
    }
    acc.map(f64::sqrt)
}

/// A multi-center sweep's tiled screen: the packed centers, their padded
/// weights and the [`Filter`].
struct Panels {
    panels: tile::CenterPanels,
    wpad: Vec<f64>,
    filter: Filter,
}

impl Panels {
    /// The screen for a sweep of `rows` rows over `centers` under
    /// `kernel`; `None` when the sweep runs the scalar loop —
    /// [`Kernel::dispatch`] on its `rows·|centers|` pairs says so, or the
    /// store's norms or the weights are too large for the [`Filter`].
    fn of<R: Rule>(
        store: &PointStore,
        centers: &[PointId],
        rule: R,
        kernel: Kernel,
        rows: usize,
    ) -> Option<Panels> {
        let work = rows.saturating_mul(centers.len());
        if kernel.dispatch(work, store.dim()) == Kernel::Scalar {
            return None;
        }
        Panels::pack(store, centers, rule)
    }

    /// The screen over `centers`, whatever the sweep size.
    fn pack<R: Rule>(store: &PointStore, centers: &[PointId], rule: R) -> Option<Panels> {
        let filter = Filter::of(store, rule.max_weight())?;
        let panels = pack_panels(store, centers);
        let wpad = rule.pad(&panels);
        Some(Panels {
            panels,
            wpad,
            filter,
        })
    }

    /// Streams `points` past every panel of `centers`,
    /// [`tile::TILE_POINTS`] rows per block, offering each row every panel
    /// slot in ascending slot order ([`Screens::offer`]), measures each row
    /// against its best slot's center by the scalar loop, four pairs at a
    /// time, and hands each real row, with its value slot in `out`, to
    /// `end(out, row, refine)`. Padded slots are offered too; their `+∞`
    /// norms make their `nd_sq` `+∞`, so they never become a best slot. A
    /// short last block repeats its last row to fill the micro-kernel,
    /// which gives every pair the same bits as a full block would.
    fn stream<O, R: Rule>(
        &self,
        store: &PointStore,
        points: &[PointId],
        centers: &[PointId],
        rule: R,
        out: &mut [O],
        end: impl Fn(&mut O, PointId, Refine),
    ) {
        let outs = out[..points.len()].chunks_mut(tile::TILE_POINTS);
        for (blk, out) in points.chunks(tile::TILE_POINTS).zip(outs) {
            let ids: [PointId; tile::TILE_POINTS] =
                std::array::from_fn(|p| blk[p.min(blk.len() - 1)]);
            let rows = ids.map(|id| store.coords(id));
            let norms = ids.map(|id| store.norm_sq(id));
            let mut s = Screens::START;
            for g in 0..self.panels.n_panels() {
                let dots = tile::dots_x4_panel(rows, self.panels.panel_coords(g));
                let cn = self.panels.panel_norms_sq(g);
                let cw: [f64; tile::TILE_CENTERS] = self.wpad
                    [g * tile::TILE_CENTERS..(g + 1) * tile::TILE_CENTERS]
                    .try_into()
                    .expect("weights padded to whole panels");
                for c in 0..tile::TILE_CENTERS {
                    for p in 0..tile::TILE_POINTS {
                        let key = rule.key(factored(norms[p], cn[c], dots[p][c]), cw[c]);
                        s.offer(p, key, g * tile::TILE_CENTERS + c);
                    }
                }
            }
            let dist = scalar_dists_x4(rows, s.slot.map(|c| store.coords(centers[c])));
            for (p, o) in out.iter_mut().enumerate() {
                let refine = Refine {
                    slot: s.slot[p],
                    second: s.second[p],
                    dist: dist[p],
                };
                end(o, blk[p], refine);
            }
        }
    }
}

/// Tightens a running minimum against a whole center set:
/// `min_dist[i] = min(min_dist[i], min_c d(points[i], centers[c]) − w_c)`
/// — the k-center cost sweep, fused across centers. `weights` carries one
/// additive weight per center, or is `None` for the plain distance.
///
/// The scalar loop folds each row's centers in ascending order, exactly
/// as `centers.len()` passes of [`dists_to_set_min`] would. The tiled
/// kernel streams each row past packed center panels once and lets the
/// screen decide the row where it can: the row's best center is
/// measured once by the scalar loop, and when no other center can reach
/// below that value (or below the running minimum) it decides the row;
/// any other row runs the scalar loop. Either way the result is bit for
/// bit the scalar loop's, for every [`Exec`].
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`, or when `weights`
/// and `centers` differ in length.
pub fn dists_to_centers_min(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    weights: Option<&[f64]>,
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    match weights {
        None => centers_min(store, points, centers, Plain, kernel, exec, min_dist),
        Some(w) => {
            let rule = Additive::of(centers, w);
            centers_min(store, points, centers, rule, kernel, exec, min_dist);
        }
    }
}

/// One row of the scalar centers-min loop.
#[inline(always)]
fn min_row<R: Rule>(store: &PointStore, p: PointId, centers: &[PointId], rule: R, m: &mut f64) {
    for (c, &center) in centers.iter().enumerate() {
        lower(m, rule.shift(pair_dist(store, p, center), rule.weight(c)));
    }
}

/// The centers-min family.
fn centers_min<R: Rule>(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    rule: R,
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
    let screen = Panels::of(store, centers, rule, kernel, points.len());
    for_rows(exec, &mut min_dist[..points.len()], |start, min_dist| {
        let points = &points[start..start + min_dist.len()];
        match &screen {
            None => {
                for (&p, m) in points.iter().zip(min_dist) {
                    min_row(store, p, centers, rule, m);
                }
            }
            Some(screen) => screen.stream(store, points, centers, rule, min_dist, |m, p, r| {
                // No other center can reach below the best slot's value,
                // or below `m` itself: the best slot decides.
                let v = rule.shift(r.dist, rule.weight(r.slot));
                if screen.filter.clears(rule, r.second, v.min(*m)) {
                    lower(m, v);
                } else {
                    unscreened(|| min_row(store, p, centers, rule, m));
                }
            }),
        }
    });
}

/// Fills `out[i]` with the index and distance `d(points[i], c) − w_c` of
/// the center nearest `points[i]`, ties toward the lower index — the
/// batched assignment sweep, fused across centers. `weights` carries one
/// additive weight per center, or is `None` for the plain distance.
///
/// The scalar loop runs one [`nearest_center`] argmin per query. The
/// tiled kernel streams each query past packed center panels once and
/// measures the screen's best center by the scalar loop; when the screen
/// proves that center the unique winner, that is the query's result, and
/// any other query runs the scalar argmin.
/// Either way the result is bit for bit the scalar loop's. The queries
/// are chunked across lanes and per-query work never crosses a chunk, so
/// results are bit-identical for every [`Exec`].
///
/// # Panics
/// Panics when `out` is shorter than `points`, when `weights` and
/// `centers` differ in length, or when `centers` is empty while `points`
/// is not.
pub fn nearest_center_each(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    weights: Option<&[f64]>,
    kernel: Kernel,
    exec: Exec<'_>,
    out: &mut [(usize, f64)],
) {
    match weights {
        None => nearest_each(store, points, centers, Plain, kernel, exec, out),
        Some(w) => {
            let rule = Additive::of(centers, w);
            nearest_each(store, points, centers, rule, kernel, exec, out);
        }
    }
}

/// The nearest-each family.
fn nearest_each<R: Rule>(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    rule: R,
    kernel: Kernel,
    exec: Exec<'_>,
    out: &mut [(usize, f64)],
) {
    assert!(out.len() >= points.len(), "output buffer too small");
    if points.is_empty() {
        // Trivially done, even with no centers (the trait contract).
        return;
    }
    assert!(
        !centers.is_empty(),
        "nearest_center_each requires at least one center"
    );
    let out = &mut out[..points.len()];
    let screen = Panels::of(store, centers, rule, kernel, points.len());
    for_rows(exec, out, |start, out| {
        let points = &points[start..start + out.len()];
        match &screen {
            None => {
                for (q, o) in points.iter().zip(out) {
                    *o = nearest_one(store, centers, rule, *q);
                }
            }
            Some(screen) => nearest_each_tiled(store, points, centers, rule, screen, out),
        }
    });
}

/// The scalar argmin of one query of a nearest-each sweep, consistent
/// with [`nearest_center`].
#[inline(always)]
fn nearest_one<R: Rule>(
    store: &PointStore,
    centers: &[PointId],
    rule: R,
    q: PointId,
) -> (usize, f64) {
    nearest(store, centers, rule, q, Exec::sequential()).expect("non-empty centers")
}

/// The tiled nearest-each body over `screen`, the panels of `centers`.
fn nearest_each_tiled<R: Rule>(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    rule: R,
    screen: &Panels,
    out: &mut [(usize, f64)],
) {
    screen.stream(store, points, centers, rule, out, |o, q, r| {
        let v = rule.shift(r.dist, rule.weight(r.slot));
        *o = if screen.filter.clears(rule, r.second, v) {
            (r.slot, v)
        } else {
            unscreened(|| nearest_one(store, centers, rule, q))
        };
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    const SEQ: Exec<'static> = Exec::sequential();

    /// One query's additively weighted argmin, through the same body the
    /// scalar assignment sweep runs per query.
    fn weighted_nearest(
        s: &PointStore,
        centers: &[PointId],
        weights: &[f64],
        q: PointId,
    ) -> Option<(usize, f64)> {
        let rule = Additive::of(centers, weights);
        nearest(s, centers, rule, q, SEQ)
    }

    fn store(seed: u64, n: usize, d: usize) -> PointStore {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new((0..d).map(|_| rnd() * 10.0 - 5.0).collect()))
            .collect();
        PointStore::from_points(&pts)
    }

    /// Both multi-center families under both kernels, asserting the
    /// tiled results equal the scalar ones bit for bit.
    fn assert_panel_sweeps_match(
        s: &PointStore,
        ids: &[PointId],
        centers: &[PointId],
        weights: Option<&[f64]>,
        exec: Exec<'_>,
    ) {
        let mut min = [vec![0.5; ids.len()], vec![0.5; ids.len()]];
        let mut each = [vec![(9, 0.0); ids.len()], vec![(9, 0.0); ids.len()]];
        for (k, kernel) in Kernel::ALL.into_iter().enumerate() {
            dists_to_centers_min(s, ids, centers, weights, kernel, exec, &mut min[k]);
            nearest_center_each(s, ids, centers, weights, kernel, exec, &mut each[k]);
        }
        for i in 0..ids.len() {
            assert_eq!(min[0][i].to_bits(), min[1][i].to_bits(), "min row {i}");
            assert_eq!(each[0][i].0, each[1][i].0, "nearest row {i}");
            assert_eq!(each[0][i].1.to_bits(), each[1][i].1.to_bits(), "row {i}");
        }
    }

    #[test]
    fn kernels_agree_on_batched_routines() {
        // 20 rows over every point as a center: 20·20·9 pairs dispatch the
        // tiled screen.
        let s = store(11, 20, 9);
        let ids = s.ids();
        assert_panel_sweeps_match(&s, &ids, &ids, None, SEQ);
        let w: Vec<f64> = (0..ids.len()).map(|i| i as f64 * 0.3).collect();
        assert_panel_sweeps_match(&s, &ids, &ids, Some(&w), SEQ);
    }

    #[test]
    fn dists_to_set_min_is_running_minimum() {
        let s = store(2, 15, 3);
        let ids = s.ids();
        let mut min_dist = vec![f64::INFINITY; ids.len()];
        for c in [PointId(3), PointId(9)] {
            dists_to_set_min(&s, &ids, c, None, SEQ, &mut min_dist);
        }
        for (i, id) in ids.iter().enumerate() {
            let d3 = dist_sq_scalar(s.coords(*id), s.coords(PointId(3))).sqrt();
            let d9 = dist_sq_scalar(s.coords(*id), s.coords(PointId(9))).sqrt();
            assert_eq!(min_dist[i], d3.min(d9), "point {i}");
        }
    }

    #[test]
    fn nearest_center_ties_prefer_first() {
        let pts = vec![
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![-1.0, 0.0]),
            Point::new(vec![0.0, 0.0]),
        ];
        let s = PointStore::from_points(&pts);
        let centers = [PointId(0), PointId(1)];
        let (idx, d) = nearest_center(&s, &centers, PointId(2), SEQ).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(d, 1.0);
        assert!(nearest_center(&s, &[], PointId(2), SEQ).is_none());
    }

    #[test]
    fn counter_accumulates() {
        let c = DistCounter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.count(), 7);
        assert_eq!(c.since(5), 2);
        assert_eq!(c.since(10), 0);
    }

    #[test]
    fn counter_sums_adds_from_many_threads_exactly() {
        let c = DistCounter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.count(), 4000);
    }

    #[test]
    fn par_fills_match_sequential_bitwise() {
        let s = store(21, 2 * PAR_MIN_POINTS + 37, 5);
        let ids = s.ids();
        let pool = ukc_pool::Pool::new(3);
        let exec = Exec::pooled(&pool, 3);
        let mut seq = vec![0.0; ids.len()];
        dists_to_one(&s, &ids, PointId(5), SEQ, &mut seq);
        let mut par = vec![0.0; ids.len()];
        dists_to_one(&s, &ids, PointId(5), exec, &mut par);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let mut seq = vec![f64::INFINITY; ids.len()];
        let mut par = vec![f64::INFINITY; ids.len()];
        for c in [PointId(0), PointId(999), PointId(4321)] {
            dists_to_set_min(&s, &ids, c, None, SEQ, &mut seq);
            dists_to_set_min(&s, &ids, c, None, exec, &mut par);
        }
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn par_nearest_center_is_lane_count_independent() {
        let s = store(4, PAR_MIN_POINTS + 123, 5);
        let centers = s.ids();
        let pool = ukc_pool::Pool::new(4);
        for q in [PointId(0), PointId(17), PointId(4000)] {
            let seq = nearest_center(&s, &centers, q, SEQ);
            let par = nearest_center(&s, &centers, q, Exec::pooled(&pool, 4));
            let (si, sd) = seq.expect("non-empty centers");
            let (pi, pd) = par.expect("non-empty centers");
            assert_eq!(si, pi);
            assert_eq!(sd.to_bits(), pd.to_bits());
        }
        assert!(nearest_center(&s, &[], PointId(0), SEQ).is_none());
    }

    #[test]
    fn dispatch_is_pinned_to_measured_cutoffs() {
        for k in Kernel::ALL {
            // Low dimension never factorizes (BENCH_kernel.json d=2 rows).
            assert_eq!(k.dispatch(1_000_000, 2), Kernel::Scalar);
        }
        // Scalar always passes through.
        assert_eq!(Kernel::Scalar.dispatch(1_000_000, 32), Kernel::Scalar);
        // Below the measured work cutoff (n=1k, d=8 loses): scalar.
        assert_eq!(Kernel::Tiled.dispatch(1_000, 8), Kernel::Scalar);
        // From the cutoff upward the requested kernel runs (n=1k, d=32).
        assert_eq!(Kernel::Tiled.dispatch(1_000, 32), Kernel::Tiled);
        // The boundary is inclusive: work == FACTORIZED_MIN_WORK engages.
        let evals = FACTORIZED_MIN_WORK / 4;
        assert_eq!(Kernel::Tiled.dispatch(evals, 4), Kernel::Tiled);
        assert_eq!(Kernel::Tiled.dispatch(evals - 1, 4), Kernel::Scalar);
    }

    #[test]
    fn par_chunks_align_with_point_tiles() {
        // Chunk boundaries land on tile boundaries, so only the global
        // tail block is a remainder regardless of chunking.
        assert_eq!(PAR_CHUNK % tile::TILE_POINTS, 0);
    }

    #[test]
    fn tiled_matches_scalar_within_tolerance() {
        // Bit for bit, the strictest tolerance: 602 % 4 exercises the
        // block remainder, 5 and 9 centers a padded panel.
        let s = store(31, 602, 33);
        let ids = s.ids();
        for centers in [&ids[..5], &ids[100..109]] {
            assert_panel_sweeps_match(&s, &ids, centers, None, SEQ);
        }
    }

    #[test]
    fn tiled_self_and_duplicate_distances_are_exactly_zero() {
        let s = store(5, 9, 17);
        let ids = s.ids();
        let mut out = vec![(0, 1.0); 9];
        let mut min = vec![1.0; 9];
        for kernel in Kernel::ALL {
            nearest_center_each(&s, &ids, &ids, None, kernel, SEQ, &mut out);
            dists_to_centers_min(&s, &ids, &ids, None, kernel, SEQ, &mut min);
            for i in 0..9 {
                assert_eq!(out[i], (i, 0.0), "{kernel:?}");
                assert_eq!(min[i], 0.0, "{kernel:?}");
            }
        }
        let mut s2 = PointStore::new(3);
        let a = s2.push(&[1.25, -7.5, 3.125]);
        let b = s2.push(&[1.25, -7.5, 3.125]);
        assert_eq!(pair_dist(&s2, a, b), 0.0);
    }

    #[test]
    fn nan_rows_are_nan_under_both_kernels() {
        let finite = [1.0, -2.0, 3.5, 0.25];
        let nan = [1.0, f64::NAN, 3.5, 0.25];
        let norm = |c: &[f64]| tile::dot_seq(c, c);
        for (a, b) in [(&nan, &finite), (&finite, &nan), (&nan, &nan)] {
            assert!(dist_sq_scalar(a, b).is_nan());
            assert!(factored(norm(a), norm(b), tile::dot_seq(a, b)).is_nan());
        }
        // Clamping still zeroes cancellation and keeps finite bits.
        assert_eq!(
            factored(1.0, 1.0, 1.0 + f64::EPSILON).to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(factored(4.0, 1.0, 1.0), 3.0);
    }

    #[test]
    fn fused_centers_min_matches_per_pair_reference_bitwise() {
        // 203 % 4 = 3 remainder rows; 6 centers = one padded panel; the
        // 203·6·40 work engages tiled through the public entry.
        let s = store(13, 203, 40);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..6).map(|i| PointId(i * 30)).collect();
        for kernel in Kernel::ALL {
            let mut fused = vec![f64::INFINITY; ids.len()];
            dists_to_centers_min(&s, &ids, &centers, None, kernel, SEQ, &mut fused);
            for (i, id) in ids.iter().enumerate() {
                // Reference: the first smallest scalar distance.
                let mut best = f64::INFINITY;
                for c in &centers {
                    lower(
                        &mut best,
                        dist_sq_scalar(s.coords(*id), s.coords(*c)).sqrt(),
                    );
                }
                assert_eq!(fused[i].to_bits(), best.to_bits(), "{kernel:?} point {i}");
            }
        }
    }

    #[test]
    fn fused_centers_min_agrees_with_per_center_passes() {
        let s = store(23, 202, 40);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..5).map(|i| PointId(i * 40 + 1)).collect();
        let mut loops = vec![f64::INFINITY; ids.len()];
        for c in &centers {
            dists_to_set_min(&s, &ids, *c, None, SEQ, &mut loops);
        }
        for kernel in Kernel::ALL {
            let mut fused = vec![f64::INFINITY; ids.len()];
            dists_to_centers_min(&s, &ids, &centers, None, kernel, SEQ, &mut fused);
            for (a, b) in fused.iter().zip(&loops) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fused_nearest_each_matches_per_query_nearest_bitwise() {
        let s = store(17, 202, 40);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..7).map(|i| PointId(i * 25)).collect();
        for kernel in Kernel::ALL {
            let mut fused = vec![(0usize, 0.0f64); ids.len()];
            nearest_center_each(&s, &ids, &centers, None, kernel, SEQ, &mut fused);
            for (i, id) in ids.iter().enumerate() {
                let (bi, bd) = nearest_center(&s, &centers, *id, SEQ).unwrap();
                assert_eq!(fused[i].0, bi, "{kernel:?} point {i}");
                assert_eq!(fused[i].1.to_bits(), bd.to_bits(), "{kernel:?} point {i}");
            }
        }
    }

    #[test]
    fn fused_nearest_ties_prefer_lowest_index_across_panels() {
        // Six identical centers span two panels; every query must pick
        // index 0 even though panel 1 holds equally-near copies.
        let mut s = PointStore::new(8);
        let c = [0.5, -1.0, 2.0, 0.25, -3.0, 1.0, 0.0, 4.0];
        for _ in 0..6 {
            s.push(&c);
        }
        for i in 0..40 {
            let mut p = c;
            p[0] += (i as f64) * 0.1 + 0.1;
            s.push(&p);
        }
        let queries = s.ids();
        let centers: Vec<PointId> = (0..6).map(PointId).collect();
        let mut out = vec![(9usize, -1.0f64); queries.len()];
        // Run the tiled path directly: this sweep sits below the dispatch
        // cutoff on purpose (ties are a small-case hazard too).
        let screen = Panels::pack(&s, &centers, Plain).expect("small norms");
        nearest_each_tiled(&s, &queries, &centers, Plain, &screen, &mut out);
        for (i, (idx, d)) in out.iter().enumerate() {
            assert_eq!(*idx, 0, "query {i} must tie-break to the lowest index");
            assert!(d.is_finite());
        }
    }

    #[test]
    fn center_panels_pad_with_infinite_norms() {
        let s = store(3, 10, 5);
        let centers: Vec<PointId> = (0..5).map(PointId).collect();
        let panels = pack_panels(&s, &centers);
        assert_eq!(panels.n_panels(), 2);
        let tail = panels.panel_norms_sq(1);
        assert_eq!(tail[0], s.norm_sq(PointId(4)));
        assert!(tail[1..].iter().all(|n| n.is_infinite()));
        // Column-major layout: coordinate t of panel-local center j.
        for (c, id) in centers.iter().enumerate() {
            let (g, j) = (c / tile::TILE_CENTERS, c % tile::TILE_CENTERS);
            for t in 0..5 {
                assert_eq!(
                    panels.panel_coords(g)[t * tile::TILE_CENTERS + j],
                    s.coords(*id)[t]
                );
            }
        }
    }

    #[test]
    fn par_fused_sweeps_match_sequential_bitwise() {
        let s = store(29, 2 * PAR_MIN_POINTS + 31, 7);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..9).map(|i| PointId(i * 123)).collect();
        let pool = ukc_pool::Pool::new(3);
        let exec = Exec::pooled(&pool, 3);
        for kernel in Kernel::ALL {
            let mut seq = vec![f64::INFINITY; ids.len()];
            dists_to_centers_min(&s, &ids, &centers, None, kernel, SEQ, &mut seq);
            let mut par = vec![f64::INFINITY; ids.len()];
            dists_to_centers_min(&s, &ids, &centers, None, kernel, exec, &mut par);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }

            let mut seq = vec![(0usize, 0.0f64); ids.len()];
            nearest_center_each(&s, &ids, &centers, None, kernel, SEQ, &mut seq);
            let mut par = vec![(0usize, 0.0f64); ids.len()];
            nearest_center_each(&s, &ids, &centers, None, kernel, exec, &mut par);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.0, b.0, "{kernel:?}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{kernel:?}");
            }
        }
        assert_panel_sweeps_match(&s, &ids, &centers, None, exec);
    }

    #[test]
    fn weighted_sweeps_at_zero_weight_match_plain_bitwise() {
        let s = store(41, 317, 9);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..7).map(|i| PointId(i * 41)).collect();
        let zeros = vec![0.0; centers.len()];
        let mut plain = vec![f64::INFINITY; ids.len()];
        let mut weighted = vec![f64::INFINITY; ids.len()];
        for c in &centers {
            dists_to_set_min(&s, &ids, *c, None, SEQ, &mut plain);
            dists_to_set_min(&s, &ids, *c, Some(0.0), SEQ, &mut weighted);
        }
        for (a, b) in plain.iter().zip(&weighted) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for q in [PointId(0), PointId(100), PointId(316)] {
            let p = nearest_center(&s, &centers, q, SEQ).unwrap();
            let w = weighted_nearest(&s, &centers, &zeros, q).unwrap();
            assert_eq!(p.0, w.0);
            assert_eq!(p.1.to_bits(), w.1.to_bits());
        }
        for kernel in Kernel::ALL {
            let mut plain = vec![(0usize, 0.0f64); ids.len()];
            let mut weighted = vec![(0usize, 0.0f64); ids.len()];
            nearest_center_each(&s, &ids, &centers, None, kernel, SEQ, &mut plain);
            nearest_center_each(&s, &ids, &centers, Some(&zeros), kernel, SEQ, &mut weighted);
            for (a, b) in plain.iter().zip(&weighted) {
                assert_eq!(a.0, b.0, "{kernel:?}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{kernel:?}");
            }
        }
    }

    #[test]
    fn weighted_nearest_subtracts_weight_and_can_flip_winner() {
        // Two centers at x = ±1; the origin ties toward index 0 when
        // unweighted, but a weight on center 1 pulls the query into its
        // Apollonius cell.
        let pts = vec![
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![-1.0, 0.0]),
            Point::new(vec![0.0, 0.0]),
        ];
        let s = PointStore::from_points(&pts);
        let centers = [PointId(0), PointId(1)];
        let (idx, d) = weighted_nearest(&s, &centers, &[0.0, 0.5], PointId(2)).unwrap();
        assert_eq!(idx, 1);
        assert!((d - 0.5).abs() < 1e-12);
        // Equal weights keep the tie on the lowest index.
        let (idx, d) = weighted_nearest(&s, &centers, &[0.25, 0.25], PointId(2)).unwrap();
        assert_eq!(idx, 0);
        assert!((d - 0.75).abs() < 1e-12);
        assert!(weighted_nearest(&s, &[], &[], PointId(2)).is_none());
    }

    #[test]
    fn weighted_fused_sweeps_match_per_center_and_per_query_reference() {
        let s = store(53, 203, 6);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..6).map(|i| PointId(i * 31)).collect();
        let weights: Vec<f64> = (0..6).map(|i| i as f64 * 0.17).collect();
        let mut reference = vec![f64::INFINITY; ids.len()];
        for (c, w) in centers.iter().zip(&weights) {
            dists_to_set_min(&s, &ids, *c, Some(*w), SEQ, &mut reference);
        }
        for kernel in Kernel::ALL {
            let mut fused = vec![f64::INFINITY; ids.len()];
            dists_to_centers_min(&s, &ids, &centers, Some(&weights), kernel, SEQ, &mut fused);
            for (a, b) in reference.iter().zip(&fused) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }

            let mut each = vec![(0usize, 0.0f64); ids.len()];
            nearest_center_each(&s, &ids, &centers, Some(&weights), kernel, SEQ, &mut each);
            for (q, got) in ids.iter().zip(&each) {
                let want = weighted_nearest(&s, &centers, &weights, *q).unwrap();
                assert_eq!(got.0, want.0, "{kernel:?}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "{kernel:?}");
            }
        }
    }

    #[test]
    fn par_weighted_sweeps_match_sequential_bitwise() {
        let s = store(61, 2 * PAR_MIN_POINTS + 17, 7);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..9).map(|i| PointId(i * 117)).collect();
        let weights: Vec<f64> = (0..9).map(|i| i as f64 * 0.09).collect();
        let pool = ukc_pool::Pool::new(3);
        let exec = Exec::pooled(&pool, 3);
        let mut seq = vec![f64::INFINITY; ids.len()];
        let mut par = vec![f64::INFINITY; ids.len()];
        for (c, w) in centers.iter().zip(&weights) {
            dists_to_set_min(&s, &ids, *c, Some(*w), SEQ, &mut seq);
            dists_to_set_min(&s, &ids, *c, Some(*w), exec, &mut par);
        }
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for kernel in Kernel::ALL {
            let mut seq = vec![f64::INFINITY; ids.len()];
            dists_to_centers_min(&s, &ids, &centers, Some(&weights), kernel, SEQ, &mut seq);
            let mut par = vec![f64::INFINITY; ids.len()];
            dists_to_centers_min(&s, &ids, &centers, Some(&weights), kernel, exec, &mut par);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }

            let mut seq = vec![(0usize, 0.0f64); ids.len()];
            nearest_center_each(&s, &ids, &centers, Some(&weights), kernel, SEQ, &mut seq);
            let mut par = vec![(0usize, 0.0f64); ids.len()];
            nearest_center_each(&s, &ids, &centers, Some(&weights), kernel, exec, &mut par);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.0, b.0, "{kernel:?}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{kernel:?}");
            }
        }
        assert_panel_sweeps_match(&s, &ids, &centers, Some(&weights), exec);
    }

    #[test]
    fn weighted_tiled_pad_columns_never_win() {
        // 5 centers → one padded panel slot; crank every real weight high
        // so a buggy pad column (weight 0, distance +∞) would be the only
        // survivor if the +∞ guard failed.
        let s = store(71, 40, 5);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..5).map(PointId).collect();
        let weights = vec![1e6; 5];
        let mut each = vec![(0usize, 0.0f64); ids.len()];
        let rule = Additive(&weights);
        let screen = Panels::pack(&s, &centers, rule).expect("finite weights");
        assert_eq!(screen.wpad.len(), 8);
        assert!(screen.wpad[5..].iter().all(|w| *w == 0.0));
        nearest_each_tiled(&s, &ids, &centers, rule, &screen, &mut each);
        for (i, (idx, d)) in each.iter().enumerate() {
            assert!(*idx < 5, "point {i} picked a pad column");
            assert!(d.is_finite() && *d < 0.0, "point {i}");
        }
    }

    #[test]
    fn the_filter_refuses_unboundable_norms_and_weights() {
        let s = store(3, 10, 5);
        assert!(Filter::of(&s, 0.0).is_some());
        assert!(Filter::of(&s, f64::NAN).is_none());
        assert!(Filter::of(&s, f64::INFINITY).is_none());
        assert!(Additive(&[1.0, f64::NAN]).max_weight().is_nan());
        let mut huge = PointStore::new(3);
        huge.push(&[1e200, 0.0, 0.0]);
        assert!(huge.max_norm_sq().is_infinite());
        assert!(Filter::of(&huge, 0.0).is_none());
    }

    #[test]
    fn the_filter_certifies_separated_rows_and_refuses_near_ties() {
        // Unit-scale coordinates: the margin is far below a 1e-3 gap and
        // far above a one-ulp one.
        let s = store(7, 50, 8);
        let f = Filter::of(&s, 0.0).expect("small norms");
        assert!(f.margin > 0.0 && f.margin < 1e-4, "{}", f.margin);
        // Plain keys are squared distances, weighted ones values.
        let plain = |second: f64, v| f.clears(Plain, second * second, v);
        let weighted = |second: f64, v| f.clears(Additive(&[]), second, v);
        for clears in [&plain as &dyn Fn(f64, f64) -> bool, &weighted] {
            assert!(clears(1.001, 1.0));
            assert!(!clears(1.0 + f64::EPSILON, 1.0));
            assert!(!clears(1.0, 1.0));
            assert!(!clears(f64::INFINITY, f64::INFINITY));
            assert!(clears(f64::INFINITY, 1e100));
            assert!(clears(0.5, -1.0));
        }
    }
}
