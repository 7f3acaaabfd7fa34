//! The unified `Problem` / `Solution` solve path.
//!
//! A [`Problem`] is a validated request: an uncertain set, `k`, and the
//! space solved in — either Euclidean `ℝ^d` ([`Problem::euclidean`],
//! solved over one coordinate store through the batched distance
//! kernels) or a general metric space with a discrete candidate pool
//! ([`Problem::in_metric`]). A [`crate::SolverConfig`] picks the pipeline
//! variant. Solving never panics on user input: every rejection is a
//! typed [`SolveError`], and every success is a [`Solution`] carrying its
//! own instrumentation [`Report`].
//!
//! The pipeline is the paper's in all cases (Theorems 2.2–2.7):
//! representatives → certain k-center → assignment rule → exact expected
//! cost. [`solve_batch`] fans independent problems out across scoped
//! threads with bit-identical results to the sequential loop.
//!
//! ```
//! use ukc_core::{Problem, SolverConfig};
//! use ukc_uncertain::generators::{clustered, ProbModel};
//!
//! let set = clustered(42, 30, 4, 2, 3, 5.0, 1.0, ProbModel::Random);
//! let problem = Problem::euclidean(set, 3).unwrap();
//! let solution = problem.solve(&SolverConfig::default()).unwrap();
//! assert_eq!(solution.centers.len(), 3);
//! assert!(solution.ecost >= solution.report.lower_bound.unwrap() - 1e-9);
//! ```

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::assignments::{assign_ed, assign_oc, AssignmentRule};
use crate::config::{AssignmentMode, CandidatePolicy, CertainStrategy, SolverConfig};
use crate::error::SolveError;
use crate::report::{CountingMetric, Report};
use ukc_kcenter::{
    cover_radius, exact_discrete_kcenter, gonzalez, gonzalez_indices, gonzalez_nearest,
    grid_kcenter, kcenter_cost, local_search_kcenter, KCenterSolution,
};
use ukc_metric::{DistCounter, DistanceOracle, Metric, Point, PointId, PointStore, StoreOracle};
use ukc_pool::Exec;
use ukc_uncertain::{
    assigned_distances_exec, ecost_assigned, ecost_from_distances, expected_point,
    expected_spreads_exec, one_center_discrete, one_center_euclidean, UncertainPoint, UncertainSet,
};

/// The largest squared norm `‖x‖²` a location of a [`Problem::euclidean`]
/// instance may have: `2^1000 ≈ 1.07e301`, so that every squared norm and
/// squared distance a solve forms stays finite (the derivation is on
/// [`SolveError::CoordinatesTooLarge`]).
pub const MAX_NORM_SQ: f64 = 1.0715086071862673e301;

/// The solve behind a problem's space, over its set, its prepared
/// layouts and `k`.
type SolveFn<P> =
    fn(&Arc<UncertainSet<P>>, &Prepared, usize, &SolverConfig) -> Result<Solution<P>, SolveError>;

enum Space<P> {
    /// `ℝ^d` under the Euclidean metric. The variant holds the
    /// `Point`-only solve, so only [`Problem::euclidean`] can build it,
    /// and the layouts its solves share.
    Euclidean {
        solve: SolveFn<P>,
        prepared: Arc<Prepared>,
    },
    Discrete {
        metric: Arc<dyn Metric<P> + Send + Sync>,
        pool: Arc<[P]>,
    },
}

impl<P> Space<P> {
    /// This space over another set: the solve, metric and pool are
    /// shared, but no layout, since a layout describes the set it was
    /// built from.
    fn for_new_set(&self) -> Self {
        match self {
            Space::Euclidean { solve, .. } => Space::Euclidean {
                solve: *solve,
                prepared: Arc::default(),
            },
            discrete => discrete.clone(),
        }
    }
}

impl<P> Clone for Space<P> {
    fn clone(&self) -> Self {
        match self {
            Space::Euclidean { solve, prepared } => Space::Euclidean {
                solve: *solve,
                prepared: Arc::clone(prepared),
            },
            Space::Discrete { metric, pool } => Space::Discrete {
                metric: Arc::clone(metric),
                pool: Arc::clone(pool),
            },
        }
    }
}

/// The solve-ready store of a Euclidean set under one representative
/// rule, in id order: every realization coordinate (point-major,
/// support order), then one representative per point (`P̄ᵢ` for ED/EP,
/// `P̃ᵢ` for OC). An id's range names the point it came from, and the
/// representatives live only here.
#[derive(Debug)]
pub(crate) struct Layout {
    /// The coordinate rows.
    pub(crate) store: PointStore,
    /// The set's id-space mirror: each point's location rows and
    /// probabilities.
    pub(crate) set_ids: UncertainSet<PointId>,
    /// The representatives' ids, one per point.
    pub(crate) rep_ids: Vec<PointId>,
}

impl Layout {
    /// Lays out `set` under `rule`. Coordinate arithmetic only: O(nz)
    /// for expected points, O(nz·iters) for 1-centers.
    pub(crate) fn new(set: &UncertainSet<Point>, rule: AssignmentRule) -> Self {
        let (mut store, set_ids) = set.indexed_store(set.n());
        let representative = match rule {
            AssignmentRule::ExpectedDistance | AssignmentRule::ExpectedPoint => expected_point,
            AssignmentRule::OneCenter => one_center_euclidean,
        };
        let rep_ids = set
            .iter()
            .map(|up| store.push_point(&representative(up)))
            .collect();
        Self {
            store,
            set_ids,
            rep_ids,
        }
    }

    /// The heap bytes the layout holds: coordinates and norms, the
    /// mirror's points with their id and probability vectors, and the
    /// representative ids.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        let rows = self.store.len();
        let locations = self.set_ids.total_locations();
        rows * (self.store.dim() + 1) * size_of::<f64>()
            + self.set_ids.n() * size_of::<UncertainPoint<PointId>>()
            + locations * (size_of::<PointId>() + size_of::<f64>())
            + self.rep_ids.len() * size_of::<PointId>()
    }
}

/// The layouts of one Euclidean problem, built on the first solve that
/// needs each and shared by every clone and [`Problem::with_k`]
/// problem: one over expected points (the EP, ED and weighted solves,
/// and every lower bound) and one over 1-centers (OC).
#[derive(Debug, Default)]
pub(crate) struct Prepared {
    expected: OnceLock<Layout>,
    one_center: OnceLock<Layout>,
}

impl Prepared {
    /// `set`'s layout under `rule`, built by the first caller; concurrent
    /// callers wait for that one build.
    fn layout(&self, set: &UncertainSet<Point>, rule: AssignmentRule) -> &Layout {
        let cell = match rule {
            AssignmentRule::ExpectedDistance | AssignmentRule::ExpectedPoint => &self.expected,
            AssignmentRule::OneCenter => &self.one_center,
        };
        cell.get_or_init(|| Layout::new(set, rule))
    }

    /// The built layouts and their bytes.
    fn built(&self) -> (usize, usize) {
        [&self.expected, &self.one_center]
            .iter()
            .filter_map(|cell| cell.get())
            .fold((0, 0), |(sets, bytes), layout| {
                (sets + 1, bytes + layout.bytes())
            })
    }
}

/// A validated uncertain k-center instance: set + `k` + space.
///
/// Construct with [`Problem::euclidean`] (continuous `ℝ^d`),
/// [`Problem::in_metric`] (any metric space with a discrete candidate
/// pool), or their non-panicking `*_points` variants taking raw point
/// vectors. Validation happens here, once — [`Problem::solve`] can then
/// only fail on problem × config incompatibilities.
///
/// The set is held behind an [`Arc`]: every constructor takes anything
/// convertible into `Arc<UncertainSet<P>>` (an owned set, or an `Arc` a
/// serving layer already keeps), and clones of a problem share the set
/// instead of copying it, so handing a problem to another thread or
/// queue costs a reference-count bump. A Euclidean problem also lays out
/// its set for solving once, on its first solve, and its clones and
/// [`Problem::with_k`] problems share that layout
/// ([`Problem::prepared_layouts`]).
///
/// ```
/// use ukc_core::{Problem, SolveError};
/// use ukc_uncertain::generators::{clustered, ProbModel};
///
/// let set = clustered(1, 12, 3, 2, 2, 4.0, 1.0, ProbModel::Random);
/// let problem = Problem::euclidean(set.clone(), 3).unwrap();
/// assert_eq!((problem.k(), problem.set().n()), (3, 12));
/// // Identical content digests identically, whatever the upload order —
/// // what serving layers key stores and caches on.
/// assert_eq!(
///     problem.instance_digest(),
///     Problem::euclidean(set.clone(), 3).unwrap().instance_digest(),
/// );
/// // Validation happens at construction: k > n is typed, not a panic.
/// assert!(matches!(
///     Problem::euclidean(set, 13),
///     Err(SolveError::KExceedsN { k: 13, n: 12 })
/// ));
/// ```
#[derive(Clone)]
pub struct Problem<P> {
    set: Arc<UncertainSet<P>>,
    k: usize,
    space: Space<P>,
}

impl std::fmt::Debug for Problem<Point> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Problem")
            .field("n", &self.set.n())
            .field("k", &self.k)
            .field("space", &self.space_name())
            .finish()
    }
}

/// Validates a `(n, k)` request shape: `k == 0` is
/// [`SolveError::ZeroK`], `k > n` is [`SolveError::KExceedsN`]. Shared by
/// every problem constructor and the configured extension entry points so
/// identical bad input always yields the identical error.
pub fn validate_k(n: usize, k: usize) -> Result<(), SolveError> {
    if k == 0 {
        return Err(SolveError::ZeroK);
    }
    if k > n {
        return Err(SolveError::KExceedsN { k, n });
    }
    Ok(())
}

/// Validates Euclidean locations: each must live in `ℝ^dim`
/// ([`SolveError::DimensionMismatch`] otherwise) and have a squared norm
/// of at most [`MAX_NORM_SQ`] ([`SolveError::CoordinatesTooLarge`]
/// otherwise). Errors name a point as `first + its index in points`.
/// Shared by [`Problem::euclidean`] and the streaming ingest, so a point
/// a stream accepts is one a solve accepts.
pub fn validate_locations(
    points: &[UncertainPoint<Point>],
    first: usize,
    dim: usize,
) -> Result<(), SolveError> {
    for (i, up) in points.iter().enumerate() {
        for loc in up.locations() {
            if loc.dim() != dim {
                return Err(SolveError::DimensionMismatch {
                    point: first + i,
                    got: loc.dim(),
                    expected: dim,
                });
            }
            // Negated so that an overflowed (infinite) norm fails too.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(loc.norm_sq() <= MAX_NORM_SQ) {
                return Err(SolveError::CoordinatesTooLarge { point: first + i });
            }
        }
    }
    Ok(())
}

impl Problem<Point> {
    /// A stable, canonical content digest of this problem: the
    /// uncertain set (order-invariant, see [`crate::digest::digest_set`]),
    /// `k`, the space name, and — for discrete problems — the candidate
    /// pool. Identical instances digest identically regardless of upload
    /// order, so a serving layer can deduplicate uploads and key solution
    /// caches by `(digest, config)`.
    pub fn instance_digest(&self) -> u64 {
        let pool_digest = match &self.space {
            Space::Discrete { pool, .. } => Some(crate::digest::digest_pool(pool)),
            Space::Euclidean { .. } => None,
        };
        crate::digest::digest_problem(
            self.space_name(),
            self.k,
            crate::digest::digest_set(&self.set),
            pool_digest,
        )
    }

    /// A Euclidean problem (the paper's Theorems 2.2 / 2.4 / 2.5
    /// setting).
    ///
    /// Validates that every location lives in one shared `ℝ^d`
    /// ([`SolveError::DimensionMismatch`] otherwise) and that its squared
    /// norm is at most [`MAX_NORM_SQ`] ([`SolveError::CoordinatesTooLarge`]
    /// otherwise), so malformed input surfaces here as a typed error
    /// instead of a panic deep inside a solve.
    pub fn euclidean(
        set: impl Into<Arc<UncertainSet<Point>>>,
        k: usize,
    ) -> Result<Self, SolveError> {
        let set = set.into();
        validate_locations(set.points(), 0, set.point(0).locations()[0].dim())?;
        validate_k(set.n(), k)?;
        Ok(Self {
            set,
            k,
            space: Space::Euclidean {
                solve: solve_continuous_store,
                prepared: Arc::default(),
            },
        })
    }

    /// Like [`Problem::euclidean`] from a raw point vector; an empty
    /// vector yields [`SolveError::EmptySet`] instead of panicking.
    pub fn euclidean_points(
        points: Vec<UncertainPoint<Point>>,
        k: usize,
    ) -> Result<Self, SolveError> {
        let set = UncertainSet::try_new(points).ok_or(SolveError::EmptySet)?;
        Self::euclidean(set, k)
    }

    /// The layout of this problem's set under `rule`, built on first use
    /// and shared by every clone; `None` off the Euclidean space.
    pub(crate) fn layout(&self, rule: AssignmentRule) -> Option<&Layout> {
        match &self.space {
            Space::Euclidean { prepared, .. } => Some(prepared.layout(&self.set, rule)),
            Space::Discrete { .. } => None,
        }
    }

    /// The solve-ready layouts this problem and the problems it shares
    /// them with (its clones and [`Problem::with_k`] problems) have built
    /// so far: how many (at most two, one per representative kind) and
    /// their heap bytes. A problem builds none before its first solve.
    pub fn prepared_layouts(&self) -> (usize, usize) {
        match &self.space {
            Space::Euclidean { prepared, .. } => prepared.built(),
            Space::Discrete { .. } => (0, 0),
        }
    }
}

impl<P: Clone> Problem<P> {
    /// A general-metric problem: centers and representatives are drawn
    /// from `pool` (the paper's Theorems 2.6 / 2.7 setting).
    pub fn in_metric(
        set: impl Into<Arc<UncertainSet<P>>>,
        k: usize,
        metric: impl Metric<P> + Send + Sync + 'static,
        pool: Vec<P>,
    ) -> Result<Self, SolveError> {
        Self::in_metric_shared(set, k, Arc::new(metric), Arc::from(pool))
    }

    /// A general-metric problem sharing an already-`Arc`ed metric and
    /// pool — the zero-copy constructor for batches of problems over one
    /// substrate (one road network, many queries).
    pub fn in_metric_shared(
        set: impl Into<Arc<UncertainSet<P>>>,
        k: usize,
        metric: Arc<dyn Metric<P> + Send + Sync>,
        pool: Arc<[P]>,
    ) -> Result<Self, SolveError> {
        let set = set.into();
        validate_k(set.n(), k)?;
        if pool.is_empty() {
            return Err(SolveError::EmptyCandidates);
        }
        Ok(Self {
            set,
            k,
            space: Space::Discrete { metric, pool },
        })
    }

    /// Rebuilds this problem around a different uncertain set, keeping
    /// `k` and the space (metric + candidate pool are shared, not
    /// cloned) but no prepared layout. The incremental layer uses this to
    /// derive leave-one-out variants without re-validating the space.
    pub(crate) fn with_set(&self, set: UncertainSet<P>) -> Result<Self, SolveError> {
        validate_k(set.n(), self.k)?;
        Ok(Self {
            set: Arc::new(set),
            k: self.k,
            space: self.space.for_new_set(),
        })
    }

    /// This problem with `k` centers instead, sharing the set, the space
    /// and the prepared layouts: only `k` is validated, so a serving
    /// layer that keeps one validated problem per stored instance
    /// re-reads no location and lays out its store once, whatever `k`
    /// each solve asks for.
    pub fn with_k(&self, k: usize) -> Result<Self, SolveError> {
        validate_k(self.set.n(), k)?;
        Ok(Self {
            set: Arc::clone(&self.set),
            k,
            space: self.space.clone(),
        })
    }

    /// The uncertain set.
    pub fn set(&self) -> &UncertainSet<P> {
        &self.set
    }

    /// The uncertain set's shared handle.
    pub(crate) fn shared_set(&self) -> &Arc<UncertainSet<P>> {
        &self.set
    }

    /// The number of centers requested.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Short name of the problem's space (`"euclidean"` or
    /// `"discrete"`).
    pub fn space_name(&self) -> &'static str {
        match &self.space {
            Space::Euclidean { .. } => "euclidean",
            Space::Discrete { .. } => "discrete",
        }
    }

    /// Runs the paper's pipeline for this problem under `config`.
    ///
    /// Deterministic: identical `(problem, config)` pairs produce
    /// bit-identical solutions, on any thread.
    pub fn solve(&self, config: &SolverConfig) -> Result<Solution<P>, SolveError>
    where
        P: Sync,
    {
        match &self.space {
            Space::Euclidean { solve, prepared } => solve(&self.set, prepared, self.k, config),
            Space::Discrete { metric, pool } => {
                solve_discrete(&self.set, self.k, metric.as_ref(), pool, config)
            }
        }
    }
}

/// The unified output of [`Problem::solve`]: the solution proper plus a
/// self-describing [`Report`].
///
/// ```
/// use ukc_core::{Problem, SolverConfig};
/// use ukc_uncertain::generators::{clustered, ProbModel};
///
/// let set = clustered(5, 20, 3, 2, 3, 5.0, 1.0, ProbModel::Random);
/// let solution = Problem::euclidean(set, 2)
///     .unwrap()
///     .solve(&SolverConfig::default())
///     .unwrap();
/// assert_eq!(solution.centers.len(), 2);
/// assert_eq!(solution.assignment.len(), 20);
/// // The exact expected cost is bracketed by the certified lower bound,
/// // and every stage is instrumented in the report.
/// assert!(solution.report.lower_bound.unwrap() <= solution.ecost + 1e-9);
/// assert!(solution.report.distance_evals.total() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct Solution<P> {
    /// The k chosen centers (pool members for discrete problems).
    pub centers: Vec<P>,
    /// `assignment[i]` = index into `centers` serving point `i`.
    pub assignment: Vec<usize>,
    /// Exact expected cost `EcostA` of (centers, assignment).
    pub ecost: f64,
    /// The uncertain set this solution solved, shared with its problem
    /// (a reference-count bump, not a copy). A warm start revalidates its
    /// prefix against it. The solution holds no per-point representative:
    /// those live in the problem's layout.
    pub set: Arc<UncertainSet<P>>,
    /// The certain k-center radius achieved on the representatives (`P̄`
    /// for ED/EP rules, `P̃` for the OC rule).
    pub certain_radius: f64,
    /// Per-stage timings, distance-evaluation counts, and the certified
    /// lower bound.
    pub report: Report,
    /// The cost stage's per-location distances, kept so a warm re-solve
    /// or a leave-one-out sweep can reuse them for an unchanged prefix
    /// (`None` off the coordinate-store path, and for priors rebuilt from
    /// a solution file). Costs 8 bytes per realization location.
    pub cost_distances: Option<CostDistances>,
}

impl<P: PartialEq> Solution<P> {
    /// The recorded cost distances of the first `n` points of `set`, when
    /// those points carry exactly the locations (same values, same order)
    /// of the first `n` points of the set this solution solved; `None`
    /// otherwise. The caller vouches for the centers and the assignment of
    /// those points.
    pub fn cost_prefix(&self, set: &UncertainSet<P>, n: usize) -> Option<&[f64]> {
        let recorded = self.cost_distances.as_ref()?;
        if n > self.set.n() || n > set.n() {
            return None;
        }
        let ours = &self.set.points()[..n];
        let same = std::ptr::eq(&*self.set, set)
            || ours
                .iter()
                .zip(&set.points()[..n])
                .all(|(a, b)| a.locations() == b.locations());
        let len: usize = ours.iter().map(UncertainPoint::z).sum();
        same.then(|| &recorded.dists[..len])
    }
}

/// The distances `d(Pᵢⱼ, c_{a(i)})` the cost stage measured, one per
/// realization location of the solution's set in set order (point-major,
/// support order).
///
/// Each value is a pure function of a location and its point's assigned
/// center, so any solve sharing centers and assignment over the same
/// leading points can take them instead of re-evaluating those pairs
/// ([`Solution::cost_prefix`]); the expected cost folded from them keeps
/// its bits.
#[derive(Clone)]
pub struct CostDistances {
    dists: Vec<f64>,
}

impl CostDistances {
    /// Records `dists` (one per location of `set`, in set order).
    ///
    /// # Panics
    /// Panics when `dists` does not hold one value per location.
    pub(crate) fn new<P>(set: &UncertainSet<P>, dists: Vec<f64>) -> Self {
        assert_eq!(
            dists.len(),
            set.total_locations(),
            "one distance per location required"
        );
        Self { dists }
    }

    /// Every recorded distance, in set order.
    pub fn all(&self) -> &[f64] {
        &self.dists
    }
}

impl std::fmt::Debug for CostDistances {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostDistances")
            .field("locations", &self.dists.len())
            .finish()
    }
}

pub(crate) fn method_string(
    space: &str,
    rule: AssignmentRule,
    strategy: CertainStrategy,
) -> String {
    let rule = match rule {
        AssignmentRule::ExpectedDistance => "ed",
        AssignmentRule::ExpectedPoint => "ep",
        AssignmentRule::OneCenter => "oc",
    };
    format!("{space}/{rule}/{}", strategy.name())
}

/// The Euclidean pipeline (paper Theorems 2.2 / 2.4 / 2.5) behind
/// [`Problem::solve`]: the problem's [`Layout`] for the rule, built once
/// and shared by every solve of the set, holds every realization
/// coordinate and every representative, so every output center is read
/// back from its row; the grid strategy pushes its synthesized centers
/// onto a private copy. All distance work then runs through the batched
/// kernels of a [`StoreOracle`], whose multi-center sweeps run the
/// configured [`crate::SolverConfig::kernel`]. [`Problem::euclidean`]
/// validated the set, so building the layout cannot fail.
///
/// Every distance is bit-identical to the pointwise
/// [`ukc_metric::Euclidean`] metric whichever kernel runs, and the
/// evaluation *counts* are kernel-independent by the [`DistanceOracle`]
/// contract.
///
/// Parallelism: [`SolverConfig::resolved_threads`] lanes of the shared
/// [`ukc_pool::global`] pool drive every batched sweep (certain solve,
/// assignment, cost) through the pooled [`StoreOracle`]. The lane count
/// never reaches the arithmetic — chunk boundaries and reduction order
/// are pure functions of input size — so output, per-stage eval counts,
/// and digests are bit-identical for `threads = 1` and `threads = N`
/// (pinned by `tests/parallel_equivalence.rs`).
fn solve_continuous_store(
    set: &Arc<UncertainSet<Point>>,
    prepared: &Prepared,
    k: usize,
    config: &SolverConfig,
) -> Result<Solution<Point>, SolveError> {
    let rule = config.rule();
    let weighted = config.assignment() == AssignmentMode::AdditivelyWeighted;
    if weighted {
        // The weighted pipeline is defined for the Gonzalez strategy only:
        // the other backends optimize the *unweighted* certain radius, so
        // pairing them with weighted assignment would silently solve a
        // different problem than they certify.
        let feature = match config.strategy() {
            CertainStrategy::Gonzalez => None,
            CertainStrategy::GonzalezLocalSearch { .. } => {
                Some("the gonzalez+local-search strategy")
            }
            CertainStrategy::Grid => Some("the grid strategy"),
            CertainStrategy::ExactDiscrete => Some("the exact-discrete strategy"),
        };
        if let Some(feature) = feature {
            return Err(SolveError::WeightedUnsupported { feature });
        }
    }
    let counter = DistCounter::new();
    let kernel = config.kernel();
    let exec = Exec::auto(config.resolved_threads());
    let t_total = Instant::now();
    let mut method = method_string("euclidean", rule, config.strategy());
    if weighted {
        method.push_str("/weighted");
    }
    let mut report = Report {
        method,
        ..Report::default()
    };

    // Step 1: the layout — the realization coordinates, then the
    // representatives, O(nz) (ED/EP) or O(nz·iters) (OC) on the first
    // solve of the set and a lookup on every later one. Coordinate
    // arithmetic, not metric evaluations (counted as zero).
    let t = Instant::now();
    let layout = prepared.layout(set, rule);
    let (set_ids, rep_ids) = (&layout.set_ids, &layout.rep_ids);
    report.timings.representatives = t.elapsed();
    report.distance_evals.representatives = counter.count();

    // Step 2: certain k-center on the representatives. The weighted mode
    // first derives per-point expected spreads `wᵢ = E d(Pᵢ, repᵢ)`
    // (through the counted oracle — they are metric evaluations), then
    // runs the additively-weighted Gonzalez sweep; the chosen centers
    // carry their source points' spreads into assignment and cost.
    let mut center_weights: Option<Vec<f64>> = None;
    // EP over plain Gonzalez: the greedy's tracked passes hand the
    // assignment stage every representative's nearest center.
    let mut ep_nearest: Option<Vec<(usize, f64)>> = None;
    let evals_before = counter.count();
    let t = Instant::now();
    // The certified grid solver synthesizes new center locations, pushed
    // onto a private copy of the layout's store, so the shared layout
    // never grows; its internal work bypasses the oracle (and the
    // counters).
    let grid_store;
    let (store, grid) = match config.strategy() {
        CertainStrategy::Grid => {
            let reps: Vec<Point> = rep_ids.iter().map(|&id| layout.store.point(id)).collect();
            match grid_kcenter(&reps, k, config.grid_options(), exec) {
                Some(sol) => {
                    let mut copy = layout.store.clone();
                    let centers = sol.centers.iter().map(|c| copy.push_point(c)).collect();
                    grid_store = copy;
                    let sol = KCenterSolution {
                        centers,
                        center_indices: sol.center_indices,
                        radius: sol.radius,
                    };
                    (&grid_store, Some(sol))
                }
                None => (&layout.store, None),
            }
        }
        _ => (&layout.store, None),
    };
    // One pooled oracle serves every later stage.
    let oracle = StoreOracle::new(store, kernel)
        .with_counter(&counter)
        .with_exec(exec);
    let certain: KCenterSolution<PointId> = match config.strategy() {
        CertainStrategy::Gonzalez if weighted => {
            let spreads = expected_spreads_exec(set_ids, rep_ids, &oracle, exec);
            let idx = gonzalez_indices(rep_ids, Some(&spreads), k, &oracle, 0);
            let centers: Vec<PointId> = idx.iter().map(|&i| rep_ids[i]).collect();
            let weights: Vec<f64> = idx.iter().map(|&i| spreads[i]).collect();
            let radius = kcenter_cost(rep_ids, &centers, Some(&weights), &oracle);
            center_weights = Some(weights);
            KCenterSolution {
                centers,
                center_indices: idx,
                radius,
            }
        }
        CertainStrategy::Gonzalez if rule == AssignmentRule::ExpectedPoint => {
            let (idx, nearest) = gonzalez_nearest(rep_ids, k, &oracle, 0);
            let radius = cover_radius(&nearest);
            ep_nearest = Some(nearest);
            KCenterSolution {
                centers: idx.iter().map(|&i| rep_ids[i]).collect(),
                center_indices: idx,
                radius,
            }
        }
        CertainStrategy::Gonzalez => gonzalez(rep_ids, k, &oracle, 0),
        CertainStrategy::GonzalezLocalSearch { rounds } => {
            let gz = gonzalez(rep_ids, k, &oracle, 0);
            local_search_kcenter(rep_ids, rep_ids, &gz.center_indices, &oracle, rounds)
        }
        CertainStrategy::Grid => grid.unwrap_or_else(|| gonzalez(rep_ids, k, &oracle, 0)),
        CertainStrategy::ExactDiscrete => {
            let pool_storage;
            let pool: &[PointId] = match config.candidate_policy() {
                CandidatePolicy::ProblemPool => rep_ids,
                CandidatePolicy::LocationPool => {
                    pool_storage = set_ids.location_pool();
                    &pool_storage
                }
            };
            exact_discrete_kcenter(rep_ids, pool, k, &oracle, config.exact_options())
                .unwrap_or_else(|| gonzalez(rep_ids, k, &oracle, 0))
        }
    };
    report.timings.certain_solve = t.elapsed();
    report.distance_evals.certain_solve = counter.since(evals_before);
    // Only Gonzalez's passes skip pairs.
    report.distance_evals.pruned = counter.pruned();

    // Step 3: assignment by the configured rule.
    let evals_before = counter.count();
    let t = Instant::now();
    let assignment: Vec<usize> = match (rule, ep_nearest) {
        (AssignmentRule::ExpectedDistance, _) => assign_ed(
            set_ids,
            &certain.centers,
            center_weights.as_deref(),
            &oracle,
            exec,
        ),
        // For the EP rule the representatives *are* the expected points
        // `P̄ᵢ`, so the expected-point assignment is nearest-center per
        // representative, as the OC one is per 1-center `P̃ᵢ`. The
        // weighted mode compares centers by `d(repᵢ, c) − w_c` instead,
        // through the same sweep.
        (_, Some(nearest)) => nearest.into_iter().map(|(i, _)| i).collect(),
        (_, None) => {
            let mut nearest = vec![(0usize, 0.0f64); rep_ids.len()];
            let w = center_weights.as_deref();
            oracle.nearest_each(rep_ids, &certain.centers, w, &mut nearest);
            nearest.into_iter().map(|(i, _)| i).collect()
        }
    };
    report.distance_evals.assignment = counter.since(evals_before);
    let evals_before_cost = counter.count();
    report.timings.assignment = t.elapsed();

    // Step 4: exact expected cost over the id-space mirror; its
    // per-location distances stay with the solution for warm reuse.
    let t_cost = Instant::now();
    let dists = assigned_distances_exec(
        set_ids.points(),
        &certain.centers,
        &assignment,
        &oracle,
        exec,
    );
    let ecost = ecost_from_distances(set_ids, &dists);
    let cost_distances = CostDistances::new(set, dists);
    report.timings.cost = t_cost.elapsed();
    report.distance_evals.cost = counter.since(evals_before_cost);

    // Optional stage 5: the certified Euclidean lower bound, over the
    // expected-point layout (the OC solve's representatives are `P̃`, so
    // it reads the problem's other layout). Its certain half is the plain
    // Gonzalez radius on `P̄`: the certain stage's own radius when that
    // stage was exactly this sweep, else a rerun through an uncounted
    // oracle, so the bound is a pure function of (instance, k) on every
    // path. The count is the per-point half's own coordinate passes.
    if config.computes_lower_bound() {
        let t_bound = Instant::now();
        let plain_gonzalez_on_pbar = rule != AssignmentRule::OneCenter
            && config.strategy() == CertainStrategy::Gonzalez
            && !weighted;
        let pbar = prepared.layout(set, AssignmentRule::ExpectedPoint);
        let certain_half = if plain_gonzalez_on_pbar {
            certain.radius / 2.0
        } else {
            crate::bounds::certain_half_store(&pbar.store, &pbar.rep_ids, k, exec)
        };
        let (bound, evals) = crate::bounds::per_point_store(pbar, certain_half);
        report.lower_bound = Some(bound);
        report.timings.lower_bound = t_bound.elapsed();
        report.distance_evals.lower_bound = evals;
    }

    report.timings.total = t_total.elapsed();
    // Each output center is read back from its row: a realization
    // location, a representative, or a synthesized center, copied bit for
    // bit.
    let centers = certain.centers.iter().map(|&id| store.point(id)).collect();
    Ok(Solution {
        centers,
        assignment,
        ecost,
        set: Arc::clone(set),
        certain_radius: certain.radius,
        report,
        cost_distances: Some(cost_distances),
    })
}

/// The general-metric pipeline (paper Theorems 2.6 / 2.7) behind
/// [`Problem::solve`].
fn solve_discrete<P: Clone + Sync>(
    shared: &Arc<UncertainSet<P>>,
    k: usize,
    metric: &(dyn Metric<P> + Sync + '_),
    pool: &[P],
    config: &SolverConfig,
) -> Result<Solution<P>, SolveError> {
    let set: &UncertainSet<P> = shared;
    let rule = config.rule();
    if rule == AssignmentRule::ExpectedPoint {
        return Err(SolveError::RuleUnsupported {
            rule,
            space: "discrete",
        });
    }
    if config.strategy() == CertainStrategy::Grid {
        return Err(SolveError::StrategyUnsupported {
            strategy: "grid",
            space: "discrete",
        });
    }
    if config.assignment() == AssignmentMode::AdditivelyWeighted {
        return Err(SolveError::WeightedUnsupported {
            feature: "discrete problems",
        });
    }
    if pool.is_empty() {
        return Err(SolveError::EmptyCandidates);
    }
    let candidate_storage;
    let candidates: &[P] = match config.candidate_policy() {
        CandidatePolicy::ProblemPool => pool,
        CandidatePolicy::LocationPool => {
            candidate_storage = set.location_pool();
            &candidate_storage
        }
    };
    if candidates.is_empty() {
        return Err(SolveError::EmptyCandidates);
    }

    let counting = CountingMetric::new(metric);
    let t_total = Instant::now();
    let mut report = Report {
        method: method_string("discrete", rule, config.strategy()),
        ..Report::default()
    };

    // Step 1: discrete 1-center representatives, O(n·z·|candidates|).
    let t = Instant::now();
    let reps: Vec<P> = set
        .iter()
        .map(|up| {
            let (idx, _) = one_center_discrete(up, candidates, &counting);
            candidates[idx].clone()
        })
        .collect();
    report.timings.representatives = t.elapsed();
    report.distance_evals.representatives = counting.count();

    // Step 2: certain k-center on the representatives, centers from the
    // candidate pool.
    let evals_before = counting.count();
    let t = Instant::now();
    let certain = match config.strategy() {
        CertainStrategy::Grid => unreachable!("rejected above"),
        CertainStrategy::Gonzalez => gonzalez(&reps, k, &counting, 0),
        CertainStrategy::GonzalezLocalSearch { rounds } => {
            let gz = gonzalez(&reps, k, &counting, 0);
            // Swap over the full candidate pool, not just the reps; locate
            // each chosen rep in the pool by distance-zero match (reps are
            // pool members).
            let initial: Vec<usize> = gz
                .center_indices
                .iter()
                .map(|&ri| {
                    candidates
                        .iter()
                        .position(|c| counting.dist(c, &reps[ri]) == 0.0)
                        .expect("representatives come from the pool")
                })
                .collect();
            local_search_kcenter(&reps, candidates, &initial, &counting, rounds)
        }
        CertainStrategy::ExactDiscrete => {
            exact_discrete_kcenter(&reps, candidates, k, &counting, config.exact_options())
                .unwrap_or_else(|| gonzalez(&reps, k, &counting, 0))
        }
    };
    report.timings.certain_solve = t.elapsed();
    report.distance_evals.certain_solve = counting.since(evals_before);

    // Step 3: assignment.
    let evals_before = counting.count();
    let t = Instant::now();
    let assignment = match rule {
        AssignmentRule::ExpectedDistance => {
            assign_ed(set, &certain.centers, None, &counting, Exec::sequential())
        }
        AssignmentRule::ExpectedPoint => unreachable!("rejected above"),
        AssignmentRule::OneCenter => assign_oc(set, &certain.centers, &reps, &counting),
    };
    report.distance_evals.assignment = counting.since(evals_before);
    let evals_before_cost = counting.count();
    report.timings.assignment = t.elapsed();

    // Step 4: exact expected cost.
    let t_cost = Instant::now();
    let ecost = ecost_assigned(set, &certain.centers, &assignment, &counting);
    report.timings.cost = t_cost.elapsed();
    report.distance_evals.cost = counting.since(evals_before_cost);

    // Optional stage 5: the certified metric lower bound.
    if config.computes_lower_bound() {
        let evals_before = counting.count();
        let t_bound = Instant::now();
        report.lower_bound = Some(crate::bounds::lower_bound_metric(
            set, k, candidates, &counting,
        ));
        report.timings.lower_bound = t_bound.elapsed();
        report.distance_evals.lower_bound = counting.since(evals_before);
    }

    report.timings.total = t_total.elapsed();
    Ok(Solution {
        centers: certain.centers,
        assignment,
        ecost,
        set: Arc::clone(shared),
        certain_radius: certain.radius,
        report,
        cost_distances: None,
    })
}

/// Solves every problem under one config, fanning out across the shared
/// [`ukc_pool::global`] worker pool. Output order matches input order,
/// and every solution is bit-identical to what the sequential loop
/// `problems.iter().map(|p| p.solve(config))` produces — each solve is
/// independent and deterministic, so pool scheduling cannot leak into
/// results.
///
/// Uses one lane per available CPU, capped at the batch size.
pub fn solve_batch<P: Clone + Send + Sync>(
    problems: &[Problem<P>],
    config: &SolverConfig,
) -> Vec<Result<Solution<P>, SolveError>> {
    solve_batch_threads(problems, config, ukc_pool::default_threads())
}

/// [`solve_batch`] with an explicit lane cap (`0` and `1` both mean
/// sequential).
///
/// Lanes come from the process-wide [`ukc_pool::global`] pool — the same
/// pool the intra-solve kernels draw on — so batch fan-out and
/// per-solve parallelism *cooperate* under one fixed worker set instead
/// of multiplying thread counts. Each problem is one pool chunk; a lane
/// solving a problem that itself parallelizes simply submits nested
/// chunks to the same pool (deadlock-free: the submitting lane always
/// participates).
pub fn solve_batch_threads<P: Clone + Send + Sync>(
    problems: &[Problem<P>],
    config: &SolverConfig,
    threads: usize,
) -> Vec<Result<Solution<P>, SolveError>> {
    let threads = threads.min(problems.len());
    if threads <= 1 {
        return problems.iter().map(|p| p.solve(config)).collect();
    }
    let mut slots: Vec<Option<Result<Solution<P>, SolveError>>> = Vec::new();
    slots.resize_with(problems.len(), || None);
    ukc_pool::for_each_slice(
        Exec::pooled(ukc_pool::global(), threads),
        &mut slots,
        1,
        |i, slot| slot[0] = Some(problems[i].solve(config)),
    );
    slots
        .into_iter()
        .map(|slot| slot.expect("the pool executes every chunk exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_uncertain::generators::{clustered, ProbModel};

    #[test]
    fn clones_share_the_set() {
        let shared = Arc::new(clustered(3, 24, 3, 2, 3, 6.0, 1.0, ProbModel::Random));
        let problem = Problem::euclidean(Arc::clone(&shared), 3).unwrap();
        assert!(Arc::ptr_eq(&shared, &problem.set));
        assert!(Arc::ptr_eq(&shared, &problem.clone().set));
        // A solution records the set it solved by reference count too.
        let solution = problem.solve(&SolverConfig::default()).unwrap();
        assert!(Arc::ptr_eq(&shared, &solution.set));
    }

    #[test]
    fn concurrent_first_solves_build_one_shared_layout() {
        let set = clustered(9, 400, 3, 4, 5, 10.0, 1.0, ProbModel::Random);
        let problem = Problem::euclidean(set.clone(), 6).unwrap();
        let config = SolverConfig::default();
        let start = std::sync::Barrier::new(4);
        // Each thread reports the address of the layout its solve read.
        let results: Vec<(Solution<Point>, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let clone = if i % 2 == 0 {
                        problem.clone()
                    } else {
                        problem.with_k(6).unwrap()
                    };
                    let (config, start) = (&config, &start);
                    scope.spawn(move || {
                        start.wait();
                        let solution = clone.solve(config).unwrap();
                        let layout = clone.layout(config.rule()).unwrap();
                        (solution, layout as *const Layout as usize)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fresh = Problem::euclidean(set, 6).unwrap().solve(&config).unwrap();
        for (solution, layout) in &results {
            assert_eq!(*layout, results[0].1, "one layout");
            assert_eq!(solution.assignment, fresh.assignment);
            assert_eq!(solution.ecost.to_bits(), fresh.ecost.to_bits());
            assert_eq!(
                solution.report.lower_bound.map(f64::to_bits),
                fresh.report.lower_bound.map(f64::to_bits)
            );
            let centers = |s: &Solution<Point>| -> Vec<Vec<u64>> {
                s.centers
                    .iter()
                    .map(|c| c.coords().iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            assert_eq!(centers(solution), centers(&fresh));
        }
        assert_eq!(problem.prepared_layouts().0, 1);
    }

    #[test]
    fn a_new_set_starts_without_a_layout() {
        let problem =
            Problem::euclidean(clustered(4, 20, 2, 2, 3, 6.0, 1.0, ProbModel::Random), 3).unwrap();
        problem.solve(&SolverConfig::default()).unwrap();
        assert_eq!(problem.prepared_layouts().0, 1);
        let mut points = problem.set().points().to_vec();
        points.pop();
        let variant = problem.with_set(UncertainSet::new(points)).unwrap();
        assert_eq!(variant.prepared_layouts(), (0, 0));
        assert_eq!(problem.with_k(2).unwrap().prepared_layouts().0, 1);
    }
}
