//! Batched Euclidean distance kernels over a [`PointStore`].
//!
//! Two interchangeable kernels compute every routine:
//!
//! * [`Kernel::Scalar`] — per-pair difference-and-square with sequential
//!   summation, the exact arithmetic of [`crate::Point::dist`]. Results
//!   are bit-identical to the pointwise [`crate::Euclidean`] metric; this
//!   is the reference path the golden-equivalence suites pin against.
//! * [`Kernel::Tiled`], the default — the `‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b`
//!   factorization over the store's cached squared norms, structured as a
//!   register-tiled mini-GEMM (see [`tile`]): multi-center sweeps
//!   ([`dists_to_centers_min`], [`nearest_center_each`]) pack
//!   [`tile::TILE_CENTERS`] centers into a column-major panel that stays
//!   in L1 and stream each point row past it exactly once,
//!   [`tile::TILE_POINTS`] rows per block, with the d-loop as the only
//!   real loop around a fully unrolled 4×4 block of
//!   `[f64; TILE_CENTERS]` lane accumulators the autovectorizer keeps in
//!   vector registers. The different f64 summation order perturbs results
//!   by a few ulps against `Scalar`; callers needing bit-stability against
//!   [`crate::Point::dist`] pick `Scalar`.
//!
//! Every tiled dot product — single pair, single-center sweep, or panel
//! block — accumulates in one canonical order (ascending dimension, one
//! f64 accumulator per pair: [`tile::dot_seq`]), and the store caches
//! norms accumulated in that same order, so `‖a‖² + ‖b‖² − 2a·b` cancels
//! exactly for duplicate points and a tiled value is a pure function of
//! the stored coordinates: block membership, chunk boundaries, and lane
//! counts never perturb a result bit.
//!
//! Each sweep family has one public entry point, which takes an
//! [`Exec`] ([`Exec::sequential`] runs it inline on the caller) and,
//! where centers are compared, optional additive center weights:
//! single-center min-update ([`dists_to_set_min`]), single-query argmin
//! ([`nearest_center`], plain only), fused multi-center min
//! ([`dists_to_centers_min`]) and fused assignment
//! ([`nearest_center_each`]). Behind each entry is one generic body over
//! a per-candidate update rule: `None` selects the plain Euclidean
//! distance, `Some` the additively weighted (Apollonius) distance
//! `d(p, cᵢ) − wᵢ`, and the choice is made once, at the entry point, so
//! the plain path runs its own monomorphised code and never a zero-weight
//! copy of the weighted one. The body owns kernel dispatch, panel
//! packing and weight padding, 4-row blocking, and [`PAR_CHUNK`]
//! parallelism; the rule owns only how one candidate's distance updates
//! the running result.
//!
//! The single-center min-update also comes in a *tracked* form
//! ([`dists_to_set_min_tracked`]) that keeps each row's nearest
//! center next to its running minimum, comparing exactly as
//! [`nearest_center_each`] does; Gonzalez's greedy runs on it, so its
//! radius and the nearest-center assignment need no further sweep
//! ([`tracked_nearest`], [`tracking_fuses`]). The greedy's own pass,
//! [`greedy_pass`], is a tracked pass that skips the rows the triangle
//! inequality proves the new center cannot tighten and picks the next
//! center on the way.
//!
//! The factorized kernel loses to the scalar loop on tiny sweeps (the
//! norm lookups and reduction trees cost more than they save), so the
//! public entry points re-dispatch through [`Kernel::dispatch`]: below a
//! measured work cutoff `Tiled` falls back to the scalar loop. The
//! decision depends only on the sweep size and dimension — never on
//! thread count or chunking — so it preserves the execution-layer
//! determinism contract.
//!
//! Both kernels perform — and [`DistCounter`]-instrumented callers count —
//! exactly one distance evaluation per point-pair, except that
//! [`greedy_pass`] skips a pair it proves cannot change the result and
//! counts it as pruned ([`DistCounter::pruned`]). So switching kernels
//! never changes instrumentation, except that a row lying within
//! rounding of [`greedy_pass`]'s skip threshold may be skipped under one
//! kernel and evaluated under the other; evaluated plus pruned is the
//! same either way.

use crate::store::{PointId, PointStore};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
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

/// Below this dimension the norm factorization never pays: the cached
/// norm lookups and reduction machinery cost more than the one or two
/// multiplies they save, so [`Kernel::dispatch`] demotes the factorized
/// kernel to scalar (the `d = 2` rows of BENCH_kernel.json therefore time
/// the scalar loop whatever kernel they name).
pub const FACTORIZED_MIN_DIM: usize = 3;

/// Minimum `pair_evals · dim` (total multiply-add work) before a sweep
/// runs factorized. The cutoff comes from measurements of the
/// norm-factorized form against the scalar loop: it lost at
/// `n = 1k, d = 8` (8k work) and won from `n = 1k, d = 32` (32k).
///
/// Which sweeps run factorized decides their result bits, so this cutoff
/// and [`FACTORIZED_MIN_DIM`] are part of the determinism contract: they
/// are not retuned when the factorized kernel gets faster.
pub const FACTORIZED_MIN_WORK: usize = 16_384;

/// Which distance kernel evaluates batched routines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Per-pair difference-and-square, sequential summation over
    /// dimensions: bit-identical to [`crate::Point::dist`].
    Scalar,
    /// Norm-factorized register-tiled mini-GEMM over packed center panels
    /// (see [`tile`]); fast, with last-ulp deviations from the scalar
    /// path.
    #[default]
    Tiled,
}

impl Kernel {
    /// Every kernel, in definition order — for CLI/test matrices.
    pub const ALL: [Kernel; 2] = [Kernel::Scalar, Kernel::Tiled];

    /// Short name for reports and config keys.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Tiled => "tiled",
        }
    }

    /// Parses a [`Kernel::name`] back to the kernel (`None` for anything
    /// else) — the single source of truth for CLI and API kernel fields.
    /// `"blocked"`, the name of a retired kernel, still parses (to
    /// `Tiled`), so old requests, flags and WAL records keep working.
    pub fn parse(s: &str) -> Option<Kernel> {
        if s == "blocked" {
            return Some(Kernel::Tiled);
        }
        Kernel::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The kernel a sweep of `pair_evals` point-pairs in dimension `dim`
    /// should actually run: the factorized kernel falls back to the scalar
    /// loop below [`FACTORIZED_MIN_DIM`] / [`FACTORIZED_MIN_WORK`], where
    /// it loses to it.
    ///
    /// The decision is a pure function of the sweep size and dimension —
    /// never of thread count or chunk boundaries — and the batched entry
    /// points apply it exactly once per sweep, on the full sweep size, so
    /// it preserves the execution-layer determinism contract.
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

/// Squared distance via `‖a‖² + ‖b‖² − 2a·b` with the dot product in the
/// canonical [`tile::dot_seq`] order, clamped at zero (cancellation can
/// produce a tiny negative) — the per-pair arithmetic of
/// [`Kernel::Tiled`]. With norms accumulated in the same order, as
/// [`PointStore::norm_sq`] is, it is exactly zero for `a == b`.
#[inline]
pub fn dist_sq_tiled(a: &[f64], a_norm_sq: f64, b: &[f64], b_norm_sq: f64) -> f64 {
    factored(a_norm_sq, b_norm_sq, tile::dot_seq(a, b))
}

/// `‖a‖² + ‖b‖² − 2a·b` from a precomputed dot, clamped at zero. The
/// clamp lets NaN through (`f64::max` would turn it into 0), so a
/// non-finite row is NaN here exactly as under [`dist_sq_scalar`].
#[inline(always)]
fn factored(a_norm_sq: f64, b_norm_sq: f64, dot: f64) -> f64 {
    let d_sq = (a_norm_sq + b_norm_sq) - 2.0 * dot;
    if d_sq < 0.0 {
        0.0
    } else {
        d_sq
    }
}

/// Register-tiled mini-GEMM primitives behind [`Kernel::Tiled`].
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
/// **Determinism contract.** Every per-pair dot product in this module —
/// [`dot_seq`](tile::dot_seq), each row of
/// [`dots_x4_one`](tile::dots_x4_one), and each `(row, center)` cell of
/// [`dots_x4_panel`](tile::dots_x4_panel) — performs the identical
/// floating-point operation sequence: one f64 accumulator, ascending
/// dimension, `acc + x·y` per step. [`PointStore`]
/// caches squared norms accumulated in the same order, so the
/// `‖a‖² + ‖b‖² − 2a·b` form cancels **exactly** for duplicate points,
/// and a tiled distance is a pure function of the stored coordinates —
/// independent of block membership, panel shape, chunking, and thread
/// count. SIMD parallelism lives across the *center* axis (independent
/// accumulators), never inside a single pair's reduction.
pub mod tile {
    /// Point rows processed together per block (interleaved for
    /// instruction-level parallelism).
    pub const TILE_POINTS: usize = 4;

    /// Centers packed per panel — the SIMD lane width of the
    /// `[f64; TILE_CENTERS]` accumulator arrays.
    pub const TILE_CENTERS: usize = 4;

    /// The canonical tiled dot product: one f64 accumulator, ascending
    /// dimension. Every tiled code path reproduces exactly this operation
    /// sequence per pair (see the module docs), which is what makes tiled
    /// values blocking-independent and self-cancelling for duplicates.
    #[inline]
    pub fn dot_seq(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
    }

    /// Dots of four point rows against one query row, interleaved for
    /// ILP; each row's accumulation order is exactly [`dot_seq`].
    ///
    /// # Panics
    /// Panics when any row is shorter than `q`.
    #[inline]
    pub fn dots_x4_one(rows: [&[f64]; TILE_POINTS], q: &[f64]) -> [f64; TILE_POINTS] {
        let d = q.len();
        let [r0, r1, r2, r3] = rows;
        assert!(
            r0.len() >= d && r1.len() >= d && r2.len() >= d && r3.len() >= d,
            "row shorter than query"
        );
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (t, &qt) in q.iter().enumerate() {
            a0 += r0[t] * qt;
            a1 += r1[t] * qt;
            a2 += r2[t] * qt;
            a3 += r3[t] * qt;
        }
        [a0, a1, a2, a3]
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
        len: usize,
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
                len,
            }
        }

        /// Number of real (unpadded) centers.
        pub fn len(&self) -> usize {
            self.len
        }

        /// `true` when no centers are packed.
        pub fn is_empty(&self) -> bool {
            self.len == 0
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

/// How a sweep folds one candidate center into its running result — the
/// only part of a sweep family that differs between the plain Euclidean
/// distance ([`Plain`]) and the additively weighted one ([`Additive`]).
/// A candidate arrives with its weight `w` ([`Rule::weight`], or a
/// padded panel slot's), which [`Plain`] ignores.
///
/// Scalar sweeps decide in linear space on [`Rule::shift`]ed distances.
/// Tiled sweeps stay in squared space as far as the rule allows: a
/// min-update is [`Rule::seed`], one [`Rule::fold`] per center, then
/// [`Rule::settle`]; an argmin starts from key `+∞` at index 0, offers
/// every candidate in ascending index order to [`Rule::improve`], and
/// maps the winning key back with [`Rule::dist`].
trait Rule: Copy + Send + Sync {
    /// The rule over centers `r` of the list (one chunk of a sweep).
    fn slice(self, r: Range<usize>) -> Self;
    /// The weights re-laid to `panels`' slots (see [`pad_weights`]).
    fn pad(self, panels: &tile::CenterPanels) -> Vec<f64>;
    /// The weight of center `c` of the list.
    fn weight(self, c: usize) -> f64;
    /// The value a scalar sweep compares for a center of weight `w` at
    /// Euclidean distance `d`.
    fn shift(self, d: f64, w: f64) -> f64;
    /// A fused-min accumulator for a point whose running minimum is `m`.
    fn seed(self, m: f64) -> f64;
    /// Folds a center of weight `w`, at squared distance `nd_sq`, into
    /// `acc`.
    fn fold(self, acc: &mut f64, nd_sq: f64, w: f64);
    /// Writes a folded accumulator back into the running minimum `m`.
    fn settle(self, acc: f64, m: &mut f64);
    /// Replaces the argmin key `best` with that of a center of weight
    /// `w` at squared distance `nd_sq` when it strictly improves on it;
    /// says whether it did.
    fn improve(self, best: &mut f64, nd_sq: f64, w: f64) -> bool;
    /// The distance a winning argmin key stands for.
    fn dist(self, key: f64) -> f64;

    /// The single-center min-update: `seed`, one `fold`, `settle`.
    fn tighten(self, m: &mut f64, nd_sq: f64, w: f64) {
        let mut acc = self.seed(*m);
        self.fold(&mut acc, nd_sq, w);
        self.settle(acc, m);
    }
}

/// The plain Euclidean distance: squared-space minima and argmins with
/// one `sqrt` at the end.
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

    fn shift(self, d: f64, _: f64) -> f64 {
        d
    }

    fn seed(self, _: f64) -> f64 {
        f64::INFINITY
    }

    fn fold(self, acc: &mut f64, nd_sq: f64, _: f64) {
        if nd_sq < *acc {
            *acc = nd_sq;
        }
    }

    /// Compares in squared space and takes the square root only on an
    /// actual improvement: in a min-update sweep most pairs do not tighten
    /// the minimum, so most `sqrt`s are skipped.
    fn settle(self, acc: f64, m: &mut f64) {
        if acc < *m * *m {
            *m = acc.sqrt();
        }
    }

    fn tighten(self, m: &mut f64, nd_sq: f64, _: f64) {
        self.settle(nd_sq, m);
    }

    fn improve(self, best: &mut f64, nd_sq: f64, _: f64) -> bool {
        let better = nd_sq < *best;
        if better {
            *best = nd_sq;
        }
        better
    }

    fn dist(self, key: f64) -> f64 {
        key.sqrt()
    }
}

/// Additive center weights: center `c` is at `d(p, c) − w[c]`, which
/// turns nearest-center cells from a Voronoi into an Apollonius diagram.
/// Running values are weighted distances (negative once a weight exceeds
/// a distance); the squared-space tests go through the threshold
/// `t = m + w`:
///
/// ```text
/// d − w < m   ⟺   d < m + w   ⟺   d² < (m + w)²   when  m + w > 0,
/// ```
///
/// and a (non-negative) distance never undercuts a non-positive
/// threshold, so the min-update guard `t > 0 && nd_sq < t·t` is exact.
/// The argmin screen is conservative (`<=`) and the decision is the
/// strict `<` on the weighted distance itself: `(d − w) + w` can round
/// above `d`, so a strict squared test could re-take an exactly tied
/// center and break lowest-index tie-breaking. At `w = 0` the threshold
/// is the running value itself and every comparison and write
/// degenerates to the [`Plain`] one, which `tests/weighted_equivalence.rs`
/// pins bit for bit for both kernels.
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

    fn shift(self, d: f64, w: f64) -> f64 {
        d - w
    }

    fn seed(self, m: f64) -> f64 {
        m
    }

    /// The threshold update: the `sqrt` runs only on an actual
    /// improvement, exactly like the plain sweep.
    fn fold(self, acc: &mut f64, nd_sq: f64, w: f64) {
        let t = *acc + w;
        if t > 0.0 && nd_sq < t * t {
            *acc = nd_sq.sqrt() - w;
        }
    }

    fn settle(self, acc: f64, m: &mut f64) {
        *m = acc;
    }

    /// Conservative squared-space screen, exact linear-space decision.
    fn improve(self, best: &mut f64, nd_sq: f64, w: f64) -> bool {
        let t = *best + w;
        if t > 0.0 && nd_sq <= t * t {
            let nd = nd_sq.sqrt() - w;
            if nd < *best {
                *best = nd;
                return true;
            }
        }
        false
    }

    fn dist(self, key: f64) -> f64 {
        key
    }
}

/// Weights re-laid to panel slots: pad columns get `0.0`, which is
/// harmless — their `+∞` norms already make every padded `nd_sq` `+∞`,
/// and `+∞` never passes a threshold test.
fn pad_weights(weights: &[f64], panels: &tile::CenterPanels) -> Vec<f64> {
    let mut padded = vec![0.0; panels.n_panels() * tile::TILE_CENTERS];
    padded[..weights.len()].copy_from_slice(weights);
    padded
}

/// The coordinate rows of a 4-row block.
#[inline]
fn coord_rows<'a>(store: &'a PointStore, blk: &[PointId]) -> [&'a [f64]; tile::TILE_POINTS] {
    std::array::from_fn(|p| store.coords(blk[p]))
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

/// Streams `points` past every panel, [`tile::TILE_POINTS`] rows per
/// block: row `i`'s running value starts as `start(&out[i])`, takes
/// `step(&mut value, nd_sq, w)` for every panel slot in ascending slot
/// order — `w` is the slot's entry in the padded weights `wpad`, and the
/// last slot for which `step` says it improved is the row's argmin — and
/// ends as `end(&mut out[i], value, argmin)`. Padded slots are stepped
/// too; their `+∞` norms make their `nd_sq` `+∞`. A short last block
/// repeats its last row to fill the micro-kernel, which gives every pair
/// the same bits as a full block would; only its real rows are written.
/// Values and argmins live in per-block `[_; TILE_POINTS]` arrays and
/// panel weights in a `[f64; TILE_CENTERS]`, which keeps the update loop
/// free of bounds checks and vectorizable across rows.
#[allow(clippy::too_many_arguments)]
fn stream_panels<O>(
    store: &PointStore,
    points: &[PointId],
    panels: &tile::CenterPanels,
    wpad: &[f64],
    out: &mut [O],
    start: impl Fn(&O) -> f64,
    step: impl Fn(&mut f64, f64, f64) -> bool,
    end: impl Fn(&mut O, f64, usize),
) {
    let outs = out[..points.len()].chunks_mut(tile::TILE_POINTS);
    for (blk, out) in points.chunks(tile::TILE_POINTS).zip(outs) {
        let ids: [PointId; tile::TILE_POINTS] = std::array::from_fn(|p| blk[p.min(blk.len() - 1)]);
        let rows = coord_rows(store, &ids);
        let norms: [f64; tile::TILE_POINTS] = std::array::from_fn(|p| store.norm_sq(ids[p]));
        let mut value: [f64; tile::TILE_POINTS] =
            std::array::from_fn(|p| start(&out[p.min(out.len() - 1)]));
        let mut argmin = [0usize; tile::TILE_POINTS];
        for g in 0..panels.n_panels() {
            let dots = tile::dots_x4_panel(rows, panels.panel_coords(g));
            let cn = panels.panel_norms_sq(g);
            let cw: [f64; tile::TILE_CENTERS] = wpad
                [g * tile::TILE_CENTERS..(g + 1) * tile::TILE_CENTERS]
                .try_into()
                .expect("weights padded to whole panels");
            for p in 0..tile::TILE_POINTS {
                for c in 0..tile::TILE_CENTERS {
                    if step(&mut value[p], factored(norms[p], cn[c], dots[p][c]), cw[c]) {
                        argmin[p] = g * tile::TILE_CENTERS + c;
                    }
                }
            }
        }
        for (p, o) in out.iter_mut().enumerate() {
            end(o, value[p], argmin[p]);
        }
    }
}

/// Distance between two stored points under `kernel`'s arithmetic — the
/// single-pair form behind [`crate::Metric::dist`] on a
/// [`crate::StoreOracle`]. Sweep dispatch ([`Kernel::dispatch`]) does not
/// apply to single pairs — callers asked for this kernel's arithmetic.
pub fn pair_dist(store: &PointStore, a: PointId, b: PointId, kernel: Kernel) -> f64 {
    match kernel {
        Kernel::Scalar => dist_sq_scalar(store.coords(a), store.coords(b)).sqrt(),
        Kernel::Tiled => {
            let (ca, cb) = (store.coords(a), store.coords(b));
            dist_sq_tiled(ca, store.norm_sq(a), cb, store.norm_sq(b)).sqrt()
        }
    }
}

/// Fills `out[i] = d(points[i], q)`, in [`PAR_CHUNK`]-row blocks on the
/// pool when `exec` is parallel. The fill is elementwise (every `out[i]`
/// depends only on pair `i`), so the result is bit-identical for every
/// [`Exec`]; [`Exec::sequential`] runs it inline.
///
/// Re-dispatches through [`Kernel::dispatch`] on the sweep size, so tiny
/// sweeps run the scalar loop even under the factorized kernel.
///
/// # Panics
/// Panics when `out` is shorter than `points`.
pub fn dists_to_one(
    store: &PointStore,
    points: &[PointId],
    q: PointId,
    kernel: Kernel,
    exec: Exec<'_>,
    out: &mut [f64],
) {
    assert!(out.len() >= points.len(), "output buffer too small");
    // A distance is the min-update of +∞: every pair tightens it (or, at
    // +∞ itself, leaves the identical bits), so the set-min body fills
    // `out` with each kernel's exact distances.
    out[..points.len()].fill(f64::INFINITY);
    set_min(store, points, q, Plain, kernel, exec, out);
}

/// Tightens a running minimum-distance array against a new center:
/// `min_dist[i] = min(min_dist[i], d(points[i], center) − w)` — the exact
/// inner loop of Gonzalez's farthest-point sweep. `weight` is the
/// center's additive weight `w` (`min_dist` then holds weighted
/// distances, which may be negative once a weight exceeds a distance), or
/// `None` for the plain distance. Block-parallel over [`PAR_CHUNK`]-row
/// blocks and elementwise like [`dists_to_one`], so bit-identical across
/// every [`Exec`] — the sweep where intra-solve parallelism pays the most.
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`.
pub fn dists_to_set_min(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    weight: Option<f64>,
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    match weight {
        None => set_min(store, points, center, Plain, kernel, exec, min_dist),
        Some(w) => {
            let rule = Additive(std::slice::from_ref(&w));
            set_min(store, points, center, rule, kernel, exec, min_dist);
        }
    }
}

/// The set-min family: `center` is candidate 0 of `rule`.
fn set_min<R: Rule>(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    rule: R,
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
    let w = rule.weight(0);
    one_center(
        store,
        points,
        center,
        kernel,
        exec,
        min_dist,
        |m, d| {
            let nd = rule.shift(d, w);
            if nd < *m {
                *m = nd;
            }
        },
        |m, nd_sq| rule.tighten(m, nd_sq, w),
    );
}

/// One row of Gonzalez's tracked min-update passes
/// ([`crate::DistanceOracle::dists_to_set_min_tracked`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tracked {
    /// The running minimum distance, tightened exactly as
    /// [`dists_to_set_min`] tightens its array.
    pub min: f64,
    /// The smallest comparison key seen: a squared distance under a
    /// tiled pass, a distance under a scalar one.
    pub key: f64,
    /// The pass index of the first center that reached `key`.
    pub nearest: usize,
}

impl Tracked {
    /// A row no pass has touched yet.
    pub const START: Tracked = Tracked {
        min: f64::INFINITY,
        key: f64::INFINITY,
        nearest: 0,
    };
}

/// [`dists_to_set_min`] that also tracks each row's nearest center: the
/// running minimum tightens exactly as the plain sweep's does, and the
/// row's key and nearest index take a strict-`<` improvement in the
/// resolved kernel's comparison space — squared distances when tiled,
/// distances when scalar — exactly the comparisons of
/// [`nearest_center_each`]. Elementwise, so bit-identical across every
/// [`Exec`].
///
/// # Panics
/// Panics when `rows` is shorter than `points`.
pub fn dists_to_set_min_tracked(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    c: usize,
    kernel: Kernel,
    exec: Exec<'_>,
    rows: &mut [Tracked],
) {
    assert!(rows.len() >= points.len(), "tracked buffer too small");
    one_center(
        store,
        points,
        center,
        kernel,
        exec,
        rows,
        |r, d| track_dist(r, d, c),
        |r, nd_sq| track_sq(r, nd_sq, c),
    );
}

/// A scalar tracked pass's update of one row by center `c` at distance
/// `d`.
#[inline(always)]
fn track_dist(r: &mut Tracked, d: f64, c: usize) {
    if d < r.min {
        r.min = d;
    }
    if d < r.key {
        r.key = d;
        r.nearest = c;
    }
}

/// A tiled tracked pass's update of one row by center `c` at squared
/// distance `nd_sq`.
#[inline(always)]
fn track_sq(r: &mut Tracked, nd_sq: f64, c: usize) {
    Plain.tighten(&mut r.min, nd_sq, 0.0);
    if nd_sq < r.key {
        r.key = nd_sq;
        r.nearest = c;
    }
}

/// What one [`greedy_pass`] did.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pass {
    /// The row with the largest running minimum after the pass, as an
    /// index into the pass's points, and that minimum.
    pub farthest: (usize, f64),
    /// Pairs evaluated: the rows that were not skipped, plus the new
    /// center against every earlier one.
    pub computed: usize,
    /// Rows skipped, each one point–center pair not evaluated.
    pub pruned: usize,
}

/// f64 unit roundoff `u`: a correctly rounded operation is off by at
/// most `u` relative.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// The rounding slack that makes [`greedy_pass`]'s skips provable: a
/// row is skipped when its running minimum `m` is below
/// [`PruneSlack::half`] of the computed distance `d̂(c, c₀)` between the
/// new center `c` and the row's nearest center `c₀`. One slack serves
/// both kernels, so their skip decisions differ only where their values
/// round to different sides of the threshold.
///
/// The proof. The triangle inequality gives the true
/// `d(p, c) ≥ d(c, c₀) − d(p, c₀)`; the row keeps its bits when the
/// computed `d̂(p, c)` cannot undercut what the pass compares it with.
/// Let `N` be the store's largest squared norm and `u` the unit
/// roundoff.
///
/// * Tiled: `r̂ = ‖a‖² + ‖b‖² − 2a·b`, with norms and dot accumulated
///   over `d` dimensions, is within `E` of `d²`: each norm is off by
///   `γ_d·N`, the dot by `γ_d·‖a‖‖b‖ ≤ γ_d·N`, and the two sums by `u`
///   times at most `2N` each, so `E ≤ (4d + 7)·u·N`; underflow in the
///   products adds at most `f64::MIN_POSITIVE`. As
///   `|a − b|² ≤ |a² − b²|`, a distance `√r̂` is within `√E` of the true
///   one. The pass updates the row only if `r̂(p, c)` is below its key
///   `r̂(p, c₀)` or below `m²`, where `m ≥ fl(√key)`: both are at most
///   `(m/(1 − u))²`. With `d(p, c₀) ≤ √key + √E` and
///   `d(c, c₀) ≥ d̂(c, c₀)/(1 + u) − √E`, the update is impossible once
///   `d̂(c, c₀) ≥ (1 + u)·(2m/(1 − u) + 3√E)`.
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

/// One pass of Gonzalez's greedy over `rows`, which hold the tracked
/// passes ([`dists_to_set_min_tracked`]) of `points[centers[j]]` at pass
/// index `j` for every `j` but the last: the tracked pass of the last
/// center, at pass index `centers.len() − 1`, then the farthest-point
/// pick. Every row ends with the bits the tracked pass gives it, and
/// [`Pass::farthest`] is the row with the largest `min`, ties toward
/// the larger index — `Iterator::max_by`'s pick over NaN-free rows.
///
/// The pass dispatches once, on all `points.len()` rows, exactly like
/// [`dists_to_set_min_tracked`], and measures the new center against
/// each earlier one under that kernel. A row whose `min` lies below half
/// the distance between the new center and its nearest one, less a
/// rounding slack (derived at `PruneSlack`), provably keeps its `min`, `key` and
/// `nearest`, so it is skipped; the triangle inequality bound of Elkan
/// (ICML 2003). Per [`PAR_CHUNK`] chunk of rows, a tiled pass skips and
/// gathers in one scan and runs the gathered rows through the 4-row
/// body; a scalar pass tests and evaluates in one loop. The chunk's
/// farthest row falls out of the same loops, and chunks merge in chunk
/// order. Chunks go to the pool when `exec` is parallel and there are
/// at least [`PAR_MIN_POINTS`] rows. Every decision is a function of
/// the row's own values, so results and counts are bit-identical for
/// every [`Exec`].
///
/// # Panics
/// Panics when `centers` or `points` is empty, or `rows` is shorter
/// than `points`.
pub fn greedy_pass(
    store: &PointStore,
    points: &[PointId],
    centers: &[usize],
    kernel: Kernel,
    exec: Exec<'_>,
    rows: &mut [Tracked],
) -> Pass {
    let (&newest, earlier) = centers.split_last().expect("a pass needs a center");
    assert!(!points.is_empty(), "a pass needs a row");
    assert!(rows.len() >= points.len(), "tracked buffer too small");
    let n = points.len();
    let kernel = kernel.dispatch(n, store.dim());
    let center = points[newest];
    // Row thresholds by nearest center; a first pass skips nothing (its
    // rows are all `Tracked::START`, nearest 0).
    let half: Vec<f64> = if earlier.is_empty() {
        vec![f64::NEG_INFINITY]
    } else {
        let slack = PruneSlack::of(store);
        earlier
            .iter()
            .map(|&j| slack.half(pair_dist(store, center, points[j], kernel)))
            .collect()
    };
    let c = earlier.len();
    let exec = if exec.is_parallel() && n >= PAR_MIN_POINTS {
        exec
    } else {
        Exec::sequential()
    };
    let chunks: Vec<Mutex<Option<Pass>>> = (0..n.div_ceil(PAR_CHUNK))
        .map(|_| Mutex::new(None))
        .collect();
    ukc_pool::for_each_slice(exec, &mut rows[..n], PAR_CHUNK, |start, rows| {
        let points = &points[start..start + rows.len()];
        let mut pass = pass_chunk(store, points, center, c, kernel, &half, rows);
        pass.farthest.0 += start;
        *chunks[start / PAR_CHUNK]
            .lock()
            .expect("chunk slot poisoned") = Some(pass);
    });
    let mut total = Pass {
        farthest: NO_ROW,
        computed: c, // the center–center distances
        pruned: 0,
    };
    for chunk in chunks {
        let pass = chunk
            .into_inner()
            .expect("chunk slot poisoned")
            .expect("every chunk ran");
        total.farthest = farther(total.farthest, pass.farthest);
        total.computed += pass.computed;
        total.pruned += pass.pruned;
    }
    total
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
/// values and takes a NaN, as `Iterator::max_by` over `partial_cmp` does.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
fn not_below(x: f64, best: f64) -> bool {
    !(x < best)
}

/// One [`PAR_CHUNK`] chunk of [`greedy_pass`] under the resolved
/// `kernel`, with chunk-local indices. The farthest skipped and the
/// farthest evaluated row fall out of the loops that visit them; indices
/// ascend in both, so replacing on "not smaller" keeps the last of equal
/// rows, as `max_by` does.
fn pass_chunk(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    c: usize,
    kernel: Kernel,
    half: &[f64],
    rows: &mut [Tracked],
) -> Pass {
    let mut far_skipped = NO_ROW;
    let mut far_kept = NO_ROW;
    let mut kept = 0;
    let fold = |far: &mut (usize, f64), i: usize, r: &Tracked| {
        if not_below(r.min, far.1) {
            *far = (i, r.min);
        }
    };
    match kernel {
        // One pass in row order: a scalar distance is a short loop, so a
        // branch beats gathering the rows.
        Kernel::Scalar => {
            let cc = store.coords(center);
            for (i, r) in rows.iter_mut().enumerate() {
                if r.min < half[r.nearest] {
                    fold(&mut far_skipped, i, r);
                } else {
                    kept += 1;
                    track_dist(r, dist_sq_scalar(store.coords(points[i]), cc).sqrt(), c);
                    fold(&mut far_kept, i, r);
                }
            }
        }
        // Skip and gather in one scan, so the evaluated rows still run
        // four at a time.
        Kernel::Tiled => {
            let mut keep = vec![0u32; rows.len()];
            for (i, r) in rows.iter().enumerate() {
                keep[kept] = i as u32;
                let skip = r.min < half[r.nearest];
                kept += usize::from(!skip);
                if skip {
                    fold(&mut far_skipped, i, r);
                }
            }
            let (cr, cn) = (store.coords(center), store.norm_sq(center));
            let mut blocks = keep[..kept].chunks_exact(tile::TILE_POINTS);
            for blk in &mut blocks {
                let ids: [PointId; tile::TILE_POINTS] =
                    std::array::from_fn(|p| points[blk[p] as usize]);
                let dots = tile::dots_x4_one(coord_rows(store, &ids), cr);
                for (p, &i) in blk.iter().enumerate() {
                    let (i, r) = (i as usize, &mut rows[i as usize]);
                    track_sq(r, factored(store.norm_sq(ids[p]), cn, dots[p]), c);
                    fold(&mut far_kept, i, r);
                }
            }
            for &i in blocks.remainder() {
                let (i, r) = (i as usize, &mut rows[i as usize]);
                let id = points[i];
                let nd_sq = dist_sq_tiled(store.coords(id), store.norm_sq(id), cr, cn);
                track_sq(r, nd_sq, c);
                fold(&mut far_kept, i, r);
            }
        }
    }
    Pass {
        farthest: farther(far_skipped, far_kept),
        computed: kept,
        pruned: rows.len() - kept,
    }
}

/// The per-row nearest centers `(index, distance)` that tracked passes
/// over `rows.len()` rows and `centers` centers left in `rows`, when they
/// are bit for bit what [`nearest_center_each`] (and
/// [`dists_to_centers_min`]) over those centers compute under `kernel`;
/// `None` otherwise.
///
/// Each pass dispatches on the `n` rows, the fused sweeps on the `n·k`
/// pairs; the pair values agree exactly when both resolve to the same
/// kernel (tiled values are pure functions of the coordinates). The test
/// uses [`Kernel::Tiled`] whatever `kernel` is, so whether a solve fuses —
/// and with it every per-stage count — is a pure function of sizes,
/// equal across kernels and lanes.
pub fn tracked_nearest(
    store: &PointStore,
    rows: &[Tracked],
    centers: usize,
    kernel: Kernel,
) -> Option<Vec<(usize, f64)>> {
    let (n, dim) = (rows.len(), store.dim());
    if !tracking_fuses(n, centers, dim) {
        return None;
    }
    let squared = kernel.dispatch(n, dim) == Kernel::Tiled;
    Some(
        rows.iter()
            .map(|r| (r.nearest, if squared { r.key.sqrt() } else { r.key }))
            .collect(),
    )
}

/// Whether tracked passes over `n` rows and `centers` centers in
/// dimension `dim` stand in for the fused sweeps over them
/// ([`tracked_nearest`]): `Kernel::Tiled.dispatch(n, dim) ==
/// Kernel::Tiled.dispatch(n·centers, dim)`, a pure function of sizes.
pub fn tracking_fuses(n: usize, centers: usize, dim: usize) -> bool {
    Kernel::Tiled.dispatch(n, dim) == Kernel::Tiled.dispatch(n.saturating_mul(centers), dim)
}

/// A single-center sweep dispatched on `points.len()`: every row's state
/// in `out` takes `lin(state, d)` with the scalar distance `d`, or
/// `sq(state, nd_sq)` with the tiled squared distance, point rows
/// streaming past the center [`tile::TILE_POINTS`] at a time, each pair
/// in the canonical per-pair order.
#[allow(clippy::too_many_arguments)]
fn one_center<O: Send>(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    kernel: Kernel,
    exec: Exec<'_>,
    out: &mut [O],
    lin: impl Fn(&mut O, f64) + Sync,
    sq: impl Fn(&mut O, f64) + Sync,
) {
    let kernel = kernel.dispatch(points.len(), store.dim());
    for_rows(exec, &mut out[..points.len()], |start, out| {
        let points = &points[start..start + out.len()];
        match kernel {
            Kernel::Scalar => {
                let cc = store.coords(center);
                for (p, o) in points.iter().zip(out) {
                    lin(o, dist_sq_scalar(store.coords(*p), cc).sqrt());
                }
            }
            Kernel::Tiled => {
                let (cr, cn) = (store.coords(center), store.norm_sq(center));
                let mut blocks = points.chunks_exact(tile::TILE_POINTS);
                let mut outs = out.chunks_exact_mut(tile::TILE_POINTS);
                for (blk, outs) in (&mut blocks).zip(&mut outs) {
                    let dots = tile::dots_x4_one(coord_rows(store, blk), cr);
                    for (p, o) in outs.iter_mut().enumerate() {
                        sq(o, factored(store.norm_sq(blk[p]), cn, dots[p]));
                    }
                }
                for (&id, o) in blocks.remainder().iter().zip(outs.into_remainder()) {
                    let (r, n) = (store.coords(id), store.norm_sq(id));
                    sq(o, dist_sq_tiled(r, n, cr, cn));
                }
            }
        }
    });
}

/// Index (into `centers`) and distance of the center nearest to `q`,
/// ties broken toward the lower index; `None` for an empty center set.
///
/// A large center set is split into [`PAR_CHUNK`]-center chunks whose
/// argmins are folded **in chunk-index order** with a strict `<`, which
/// preserves the sequential first-wins tie-breaking. Chunking engages
/// purely by size (`centers.len() >= PAR_MIN_POINTS`), never by [`Exec`]:
/// a sequential `Exec` folds the *same* chunks in the same order, so
/// `threads = 1` and `threads = N` agree bit for bit even in the
/// factorized kernel's rounding corners.
pub fn nearest_center(
    store: &PointStore,
    centers: &[PointId],
    q: PointId,
    kernel: Kernel,
    exec: Exec<'_>,
) -> Option<(usize, f64)> {
    nearest(store, centers, Plain, q, kernel, exec)
}

/// The nearest family, chunked by size (see [`nearest_center`]).
/// Always inlined, like [`nearest_resolved`]: the scalar assignment sweep
/// calls it once per query, and over a handful of centers a call costs
/// as much as the argmin itself.
#[inline(always)]
fn nearest<R: Rule>(
    store: &PointStore,
    centers: &[PointId],
    rule: R,
    q: PointId,
    kernel: Kernel,
    exec: Exec<'_>,
) -> Option<(usize, f64)> {
    let kernel = kernel.dispatch(centers.len(), store.dim());
    if centers.len() < PAR_MIN_POINTS {
        return nearest_resolved(store, centers, rule, q, kernel);
    }
    let partials = ukc_pool::map_chunks(exec, centers.len(), PAR_CHUNK, |r| {
        nearest_resolved(store, &centers[r.clone()], rule.slice(r.clone()), q, kernel)
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

/// One unchunked argmin under an already-dispatched `kernel`.
#[inline(always)]
fn nearest_resolved<R: Rule>(
    store: &PointStore,
    centers: &[PointId],
    rule: R,
    q: PointId,
    kernel: Kernel,
) -> Option<(usize, f64)> {
    match kernel {
        Kernel::Scalar => {
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
        Kernel::Tiled => nearest_tiled(store, centers, rule, q),
    }
}

/// The argmin over the centers with the canonical per-pair dot, offered
/// in ascending index order exactly like the fused
/// [`nearest_center_each`] panel path, so both pick the same center at
/// the same bits.
fn nearest_tiled<R: Rule>(
    store: &PointStore,
    centers: &[PointId],
    rule: R,
    q: PointId,
) -> Option<(usize, f64)> {
    let (qr, qn) = (store.coords(q), store.norm_sq(q));
    let mut best = (0, f64::INFINITY);
    for (i, c) in centers.iter().enumerate() {
        let d_sq = dist_sq_tiled(store.coords(*c), store.norm_sq(*c), qr, qn);
        if rule.improve(&mut best.1, d_sq, rule.weight(i)) {
            best.0 = i;
        }
    }
    (!centers.is_empty()).then(|| (best.0, rule.dist(best.1)))
}

/// Tightens a running minimum against a whole center set:
/// `min_dist[i] = min(min_dist[i], min_c d(points[i], centers[c]) − w_c)`
/// — the k-center cost sweep, fused across centers. `weights` carries one
/// additive weight per center, or is `None` for the plain distance.
///
/// Below the dispatch cutoff this is exactly `centers.len()` passes of
/// [`dists_to_set_min`]. The tiled kernel instead packs the centers into
/// [`tile::CenterPanels`] once and streams each point row past all of
/// them in a single pass — the compute-bound mini-GEMM this kernel exists
/// for. Plain, it takes the squared-space minimum with one `sqrt` at the
/// end; weighted, it applies the per-center threshold update in ascending
/// center order, so it is **bit-identical** to `centers.len()` weighted
/// [`dists_to_set_min`] passes under the same resolved kernel. The tiled
/// path chunks the *points* ([`PAR_CHUNK`] rows per lane); each point's
/// center loop runs inside one chunk, so results are bit-identical for
/// every [`Exec`].
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
    // Dispatch on the sweep's total work (n·k pair evaluations). Below
    // the cutoff, the per-center passes re-dispatch per pass exactly like
    // direct calls.
    let work = points.len().saturating_mul(centers.len());
    match kernel.dispatch(work, store.dim()) {
        Kernel::Scalar => {
            for (c, &center) in centers.iter().enumerate() {
                let rule = rule.slice(c..c + 1);
                set_min(store, points, center, rule, kernel, exec, min_dist);
            }
        }
        Kernel::Tiled => {
            let panels = pack_panels(store, centers);
            let wpad = rule.pad(&panels);
            for_rows(exec, &mut min_dist[..points.len()], |start, min_dist| {
                stream_panels(
                    store,
                    &points[start..start + min_dist.len()],
                    &panels,
                    &wpad,
                    min_dist,
                    |m| rule.seed(*m),
                    |acc, nd_sq, w| {
                        rule.fold(acc, nd_sq, w);
                        false
                    },
                    |m, acc, _| rule.settle(acc, m),
                );
            });
        }
    }
}

/// Fills `out[i]` with the index and distance `d(points[i], c) − w_c` of
/// the center nearest `points[i]`, ties toward the lower index — the
/// batched assignment sweep, fused across centers. `weights` carries one
/// additive weight per center, or is `None` for the plain distance.
///
/// Below the dispatch cutoff this runs one [`nearest_center`] argmin per
/// query (the arithmetic `nearest_each` always used). The tiled kernel
/// packs the centers into panels and computes every query's argmin in
/// one streaming pass — an `n × k` mini-GEMM. Tiled distances here are
/// bit-identical to the per-query tiled argmin (same canonical per-pair
/// order, same ascending-index strict-`<` argmin). The queries are
/// chunked across lanes and per-query work never crosses a chunk, so
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
    let work = points.len().saturating_mul(centers.len());
    match kernel.dispatch(work, store.dim()) {
        // One (size-chunked) nearest per query, consistent with
        // `Metric::nearest`; chunk the queries across lanes.
        Kernel::Scalar => for_rows(exec, out, |start, out| {
            for (q, o) in points[start..start + out.len()].iter().zip(out) {
                *o = nearest(store, centers, rule, *q, kernel, Exec::sequential())
                    .expect("non-empty centers");
            }
        }),
        Kernel::Tiled => {
            let panels = pack_panels(store, centers);
            let wpad = rule.pad(&panels);
            for_rows(exec, out, |start, out| {
                let points = &points[start..start + out.len()];
                nearest_each_tiled(store, points, &panels, rule, &wpad, out);
            });
        }
    }
}

/// The fused tiled argmin over panel slots weighted by `wpad`: strict
/// improvement over ascending slot index, so the first of equally near
/// centers wins, across panels too.
fn nearest_each_tiled<R: Rule>(
    store: &PointStore,
    points: &[PointId],
    panels: &tile::CenterPanels,
    rule: R,
    wpad: &[f64],
    out: &mut [(usize, f64)],
) {
    debug_assert!(!panels.is_empty());
    stream_panels(
        store,
        points,
        panels,
        wpad,
        out,
        |_| f64::INFINITY,
        |best, nd_sq, w| rule.improve(best, nd_sq, w),
        |o, key, i| *o = (i, rule.dist(key)),
    );
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
        kernel: Kernel,
    ) -> Option<(usize, f64)> {
        let rule = Additive::of(centers, weights);
        nearest(s, centers, rule, q, kernel, SEQ)
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

    #[test]
    fn kernels_agree_on_batched_routines() {
        let s = store(11, 20, 9);
        let ids = s.ids();
        for q in [PointId(0), PointId(7), PointId(19)] {
            let mut scalar = vec![0.0; ids.len()];
            let mut tiled = vec![0.0; ids.len()];
            dists_to_one(&s, &ids, q, Kernel::Scalar, SEQ, &mut scalar);
            dists_to_one(&s, &ids, q, Kernel::Tiled, SEQ, &mut tiled);
            for (a, b) in scalar.iter().zip(tiled.iter()) {
                assert!((a - b).abs() < 1e-9 * (1.0 + a));
            }
        }
    }

    #[test]
    fn dists_to_set_min_is_running_minimum() {
        let s = store(2, 15, 3);
        let ids = s.ids();
        let mut min_dist = vec![f64::INFINITY; ids.len()];
        for c in [PointId(3), PointId(9)] {
            dists_to_set_min(&s, &ids, c, None, Kernel::Scalar, SEQ, &mut min_dist);
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
        let (idx, d) = nearest_center(&s, &centers, PointId(2), Kernel::Tiled, SEQ).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(d, 1.0);
        assert!(nearest_center(&s, &[], PointId(2), Kernel::Scalar, SEQ).is_none());
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
        for kernel in Kernel::ALL {
            let mut seq = vec![0.0; ids.len()];
            dists_to_one(&s, &ids, PointId(5), kernel, SEQ, &mut seq);
            let mut par = vec![0.0; ids.len()];
            dists_to_one(&s, &ids, PointId(5), kernel, exec, &mut par);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }

            let mut seq = vec![f64::INFINITY; ids.len()];
            let mut par = vec![f64::INFINITY; ids.len()];
            for c in [PointId(0), PointId(999), PointId(4321)] {
                dists_to_set_min(&s, &ids, c, None, kernel, SEQ, &mut seq);
                dists_to_set_min(&s, &ids, c, None, kernel, exec, &mut par);
            }
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }
        }
    }

    #[test]
    fn par_nearest_center_is_lane_count_independent() {
        // d = 5 keeps the factorized kernel above the dispatch cutoff.
        let s = store(4, PAR_MIN_POINTS + 123, 5);
        let centers = s.ids();
        let pool = ukc_pool::Pool::new(4);
        for kernel in Kernel::ALL {
            for q in [PointId(0), PointId(17), PointId(4000)] {
                let seq = nearest_center(&s, &centers, q, kernel, SEQ);
                let par = nearest_center(&s, &centers, q, kernel, Exec::pooled(&pool, 4));
                let (si, sd) = seq.expect("non-empty centers");
                let (pi, pd) = par.expect("non-empty centers");
                assert_eq!(si, pi, "{kernel:?}");
                assert_eq!(sd.to_bits(), pd.to_bits(), "{kernel:?}");
            }
        }
        assert!(nearest_center(&s, &[], PointId(0), Kernel::Scalar, SEQ).is_none());
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
    fn kernel_parse_roundtrips_names() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::parse(k.name()), Some(k));
        }
        // The retired kernel's name stays a parse alias, never a name.
        assert_eq!(Kernel::parse("blocked"), Some(Kernel::Tiled));
        assert!(Kernel::ALL.iter().all(|k| k.name() != "blocked"));
        assert_eq!(Kernel::parse("simd"), None);
        assert_eq!(Kernel::parse(""), None);
    }

    #[test]
    fn par_chunks_align_with_point_tiles() {
        // Chunk boundaries land on tile boundaries, so only the global
        // tail block is a remainder regardless of chunking.
        assert_eq!(PAR_CHUNK % tile::TILE_POINTS, 0);
    }

    #[test]
    fn tiled_matches_scalar_within_tolerance() {
        // 602·33 work keeps the public entries on the tiled path; 602 % 4
        // exercises the block remainder.
        let s = store(31, 602, 33);
        let ids = s.ids();
        let mut scalar = vec![0.0; ids.len()];
        let mut tiled = vec![0.0; ids.len()];
        dists_to_one(&s, &ids, PointId(7), Kernel::Scalar, SEQ, &mut scalar);
        dists_to_one(&s, &ids, PointId(7), Kernel::Tiled, SEQ, &mut tiled);
        for (a, b) in scalar.iter().zip(&tiled) {
            assert!((a - b).abs() < 1e-9 * (1.0 + a));
        }

        let mut ms = vec![f64::INFINITY; ids.len()];
        let mut mt = vec![f64::INFINITY; ids.len()];
        for c in [PointId(3), PointId(11), PointId(600)] {
            dists_to_set_min(&s, &ids, c, None, Kernel::Scalar, SEQ, &mut ms);
            dists_to_set_min(&s, &ids, c, None, Kernel::Tiled, SEQ, &mut mt);
        }
        for (a, b) in ms.iter().zip(&mt) {
            assert!((a - b).abs() < 1e-9 * (1.0 + a));
        }
    }

    #[test]
    fn tiled_self_and_duplicate_distances_are_exactly_zero() {
        let s = store(5, 9, 17);
        for i in 0..9 {
            assert_eq!(pair_dist(&s, PointId(i), PointId(i), Kernel::Tiled), 0.0);
        }
        let mut s2 = PointStore::new(3);
        let a = s2.push(&[1.25, -7.5, 3.125]);
        let b = s2.push(&[1.25, -7.5, 3.125]);
        assert_eq!(pair_dist(&s2, a, b, Kernel::Tiled), 0.0);
    }

    #[test]
    fn nan_rows_are_nan_under_both_kernels() {
        let finite = [1.0, -2.0, 3.5, 0.25];
        let nan = [1.0, f64::NAN, 3.5, 0.25];
        let norm = |c: &[f64]| tile::dot_seq(c, c);
        for (a, b) in [(&nan, &finite), (&finite, &nan), (&nan, &nan)] {
            assert!(dist_sq_scalar(a, b).is_nan());
            assert!(dist_sq_tiled(a, norm(a), b, norm(b)).is_nan());
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
        let mut fused = vec![f64::INFINITY; ids.len()];
        dists_to_centers_min(&s, &ids, &centers, None, Kernel::Tiled, SEQ, &mut fused);
        for (i, id) in ids.iter().enumerate() {
            // Reference: min over centers of the canonical tiled squared
            // distance, one sqrt at the end — the documented semantics.
            let n = s.norm_sq(*id);
            let mut best = f64::INFINITY;
            for c in &centers {
                let nd_sq = ((n + s.norm_sq(*c))
                    - 2.0 * tile::dot_seq(s.coords(*id), s.coords(*c)))
                .max(0.0);
                if nd_sq < best {
                    best = nd_sq;
                }
            }
            assert_eq!(fused[i].to_bits(), best.sqrt().to_bits(), "point {i}");
        }
    }

    #[test]
    fn fused_centers_min_agrees_with_per_center_passes() {
        let s = store(23, 202, 40);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..5).map(|i| PointId(i * 40 + 1)).collect();
        for kernel in Kernel::ALL {
            let mut fused = vec![f64::INFINITY; ids.len()];
            dists_to_centers_min(&s, &ids, &centers, None, kernel, SEQ, &mut fused);
            let mut loops = vec![f64::INFINITY; ids.len()];
            for c in &centers {
                dists_to_set_min(&s, &ids, *c, None, kernel, SEQ, &mut loops);
            }
            for (a, b) in fused.iter().zip(&loops) {
                // Tolerance, not bits: the per-center passes round through
                // sqrt between updates, the fused pass does not.
                assert!((a - b).abs() < 1e-9 * (1.0 + a), "{kernel:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fused_nearest_each_matches_per_query_nearest_bitwise() {
        let s = store(17, 202, 40);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..7).map(|i| PointId(i * 25)).collect();
        let mut fused = vec![(0usize, 0.0f64); ids.len()];
        nearest_center_each(&s, &ids, &centers, None, Kernel::Tiled, SEQ, &mut fused);
        for (i, id) in ids.iter().enumerate() {
            // The per-query tiled path (bypassing dispatch: 7 centers is
            // far below the cutoff) must agree bit for bit — same
            // canonical per-pair order, same ascending strict-< argmin.
            let (bi, bd) = nearest_resolved(&s, &centers, Plain, *id, Kernel::Tiled).unwrap();
            assert_eq!(fused[i].0, bi, "point {i}");
            assert_eq!(fused[i].1.to_bits(), bd.to_bits(), "point {i}");
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
        // Call the tiled path directly: this sweep sits below the
        // dispatch cutoff on purpose (ties are a small-case hazard too).
        let panels = pack_panels(&s, &centers);
        let wpad = pad_weights(&[], &panels);
        nearest_each_tiled(&s, &queries, &panels, Plain, &wpad, &mut out);
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
        assert_eq!(panels.len(), 5);
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
    }

    #[test]
    fn weighted_sweeps_at_zero_weight_match_plain_bitwise() {
        let s = store(41, 317, 9);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..7).map(|i| PointId(i * 41)).collect();
        let zeros = vec![0.0; centers.len()];
        for kernel in Kernel::ALL {
            let mut plain = vec![f64::INFINITY; ids.len()];
            let mut weighted = vec![f64::INFINITY; ids.len()];
            for c in &centers {
                dists_to_set_min(&s, &ids, *c, None, kernel, SEQ, &mut plain);
                dists_to_set_min(&s, &ids, *c, Some(0.0), kernel, SEQ, &mut weighted);
            }
            for (a, b) in plain.iter().zip(&weighted) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }
            for q in [PointId(0), PointId(100), PointId(316)] {
                let p = nearest_center(&s, &centers, q, kernel, SEQ).unwrap();
                let w = weighted_nearest(&s, &centers, &zeros, q, kernel).unwrap();
                assert_eq!(p.0, w.0, "{kernel:?}");
                assert_eq!(p.1.to_bits(), w.1.to_bits(), "{kernel:?}");
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
        for kernel in Kernel::ALL {
            let (idx, d) = weighted_nearest(&s, &centers, &[0.0, 0.5], PointId(2), kernel).unwrap();
            assert_eq!(idx, 1, "{kernel:?}");
            assert!((d - 0.5).abs() < 1e-12, "{kernel:?}");
            // Equal weights keep the tie on the lowest index.
            let (idx, d) =
                weighted_nearest(&s, &centers, &[0.25, 0.25], PointId(2), kernel).unwrap();
            assert_eq!(idx, 0, "{kernel:?}");
            assert!((d - 0.75).abs() < 1e-12, "{kernel:?}");
        }
        assert!(weighted_nearest(&s, &[], &[], PointId(2), Kernel::Scalar).is_none());
    }

    #[test]
    fn weighted_fused_sweeps_match_per_center_and_per_query_reference() {
        let s = store(53, 203, 6);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..6).map(|i| PointId(i * 31)).collect();
        let weights: Vec<f64> = (0..6).map(|i| i as f64 * 0.17).collect();
        for kernel in Kernel::ALL {
            let mut reference = vec![f64::INFINITY; ids.len()];
            for (c, w) in centers.iter().zip(&weights) {
                dists_to_set_min(&s, &ids, *c, Some(*w), kernel, SEQ, &mut reference);
            }
            let mut fused = vec![f64::INFINITY; ids.len()];
            dists_to_centers_min(&s, &ids, &centers, Some(&weights), kernel, SEQ, &mut fused);
            for (a, b) in reference.iter().zip(&fused) {
                assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "{kernel:?}");
            }

            let mut each = vec![(0usize, 0.0f64); ids.len()];
            nearest_center_each(&s, &ids, &centers, Some(&weights), kernel, SEQ, &mut each);
            for (q, got) in ids.iter().zip(&each) {
                let want = weighted_nearest(&s, &centers, &weights, *q, kernel).unwrap();
                assert_eq!(got.0, want.0, "{kernel:?}");
                assert!(
                    (got.1 - want.1).abs() < 1e-9 * (1.0 + want.1.abs()),
                    "{kernel:?}"
                );
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
        for kernel in Kernel::ALL {
            let mut seq = vec![f64::INFINITY; ids.len()];
            let mut par = vec![f64::INFINITY; ids.len()];
            for (c, w) in centers.iter().zip(&weights) {
                dists_to_set_min(&s, &ids, *c, Some(*w), kernel, SEQ, &mut seq);
                dists_to_set_min(&s, &ids, *c, Some(*w), kernel, exec, &mut par);
            }
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }

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
        let panels = pack_panels(&s, &centers);
        let wpad = pad_weights(&weights, &panels);
        assert_eq!(wpad.len(), 8);
        assert!(wpad[5..].iter().all(|w| *w == 0.0));
        nearest_each_tiled(&s, &ids, &panels, Additive(&weights), &wpad, &mut each);
        for (i, (idx, d)) in each.iter().enumerate() {
            assert!(*idx < 5, "point {i} picked a pad column");
            assert!(d.is_finite() && *d < 0.0, "point {i}");
        }
    }
}
