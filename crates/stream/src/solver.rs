//! [`StreamSolver`]: the uncertain streaming API over the doubling
//! summary.
//!
//! The paper's pipeline replaces each uncertain point by its expected
//! point `P̄` (computable in O(z)) and solves certain k-center on the
//! representatives. [`StreamSolver`] performs exactly that replacement
//! *online*: every arriving point contributes its `P̄` to a
//! [`StreamSummary`], whose working set stays bounded by the summary
//! budget however long the stream runs. Finalizing runs the configured
//! certain solver on the weighted summary and wraps the result with the
//! summary's certified bounds.
//!
//! Approximation guarantee (certain radius on the expected points): with
//! the default budget the kept summary covers every `P̄` within `4τ`
//! while `opt ≥ τ/2`, and the finalize solve adds its own factor on the
//! summary, so the streamed centers are within a constant factor of the
//! optimum — **8** when the budget equals `k` (the summary *is* the
//! solution: the classic doubling bound), and `2·opt + 12τ` for a
//! Gonzalez finalize over a larger budget (smaller `τ`, better in
//! practice). Substituting the streaming factor for the certain-solver
//! factor `1+ε` in the paper's Theorems 2.2/2.5 bounds the end-to-end
//! *expected cost* at `2 + factor` (EP rule) or `4 + factor` (ED rule)
//! times the optimum — e.g. at budget `k`: **10×** (EP) / **12×** (ED),
//! which `tests/stream_equivalence.rs` asserts against full batch
//! solves.

use std::time::{Duration, Instant};

use crate::summary::{StreamSummary, SummarySnapshot};
use ukc_core::{validate_locations, Problem, Report, SolveError, SolverConfig};
use ukc_metric::Point;
use ukc_pool::Exec;
use ukc_uncertain::{expected_point, UncertainPoint, UncertainSet};

/// Default summary budget per requested center: a 4k-point working set
/// keeps the merge threshold (and therefore the sketch error) well below
/// the budget-`k` worst case while remaining O(k) memory.
pub const DEFAULT_BUDGET_PER_CENTER: usize = 4;

/// Instrumentation for one epoch (one [`StreamSolver::push_chunk`]).
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// 1-based epoch index.
    pub epoch: u64,
    /// Points consumed this epoch.
    pub points: usize,
    /// Distance evaluations spent on summary maintenance this epoch.
    pub distance_evals: u64,
    /// Merge phases (threshold raises) this epoch.
    pub merges: u64,
    /// The merge threshold τ after the epoch.
    pub threshold: f64,
    /// Kept summary centers after the epoch.
    pub summary_len: usize,
    /// Working-set high-water mark so far: summary rows plus the largest
    /// in-flight chunk buffer.
    pub memory_peak_points: usize,
    /// Wall clock of the epoch.
    pub wall: Duration,
}

/// Cumulative stream instrumentation, including the state digest.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Uncertain points consumed so far.
    pub points: u64,
    /// Epochs ([`StreamSolver::push_chunk`] calls) so far.
    pub epochs: u64,
    /// Kept summary centers.
    pub summary_len: usize,
    /// The current merge threshold τ.
    pub threshold: f64,
    /// Distance evaluations spent on summary maintenance.
    pub distance_evals: u64,
    /// Merge phases executed.
    pub merges: u64,
    /// Working-set high-water mark (summary rows + largest chunk).
    pub memory_peak_points: usize,
    /// The canonical state digest — bit-identical across pool lane
    /// counts, see [`StreamSummary::digest`].
    pub digest: u64,
}

/// The finalized output of a stream: k centers plus certified bounds.
#[derive(Clone, Debug)]
pub struct StreamSolution {
    /// The chosen centers (at most `k`).
    pub centers: Vec<Point>,
    /// The certain k-center radius achieved on the summary points.
    pub certain_radius: f64,
    /// Upper bound on the distance from *any* streamed expected point to
    /// its nearest center: `certain_radius + 4τ` (the coverage slack).
    pub radius_bound: f64,
    /// Certified lower bound on the optimal k-center radius of the
    /// streamed expected points: `τ/2`.
    pub lower_bound: f64,
    /// The finalize solve's instrumentation (a default report with only
    /// `method` set when the summary had at most `k` centers and no
    /// solve was needed).
    pub finalize: Report,
    /// Cumulative stream instrumentation at finalize time.
    pub stream: StreamReport,
}

/// A structural snapshot of a [`StreamSolver`]'s evolved state: the
/// summary plus the stream counters. Deliberately excludes `k` and the
/// [`SolverConfig`] — those come from the stream's creation request, so
/// a restore always applies a snapshot to a solver rebuilt from the same
/// request (see [`StreamSolver::restore`]).
#[derive(Clone, Debug, PartialEq)]
pub struct SolverSnapshot {
    /// Epochs consumed so far.
    pub epochs: u64,
    /// Working-set high-water mark (summary rows + largest chunk).
    pub memory_peak: usize,
    /// The summary state.
    pub summary: SummarySnapshot,
}

/// Builder for [`StreamSolver`]; finish with
/// [`StreamSolverBuilder::build`], which validates.
///
/// ```
/// use ukc_core::SolverConfig;
/// use ukc_stream::StreamSolver;
///
/// let solver = StreamSolver::builder(3)
///     .config(SolverConfig::default())
///     .budget(24)
///     .build()
///     .unwrap();
/// assert_eq!(solver.k(), 3);
/// assert_eq!(solver.budget(), 24);
/// ```
#[derive(Clone, Debug)]
pub struct StreamSolverBuilder {
    k: usize,
    config: SolverConfig,
    budget: Option<usize>,
}

impl StreamSolverBuilder {
    /// Sets the solver configuration driving the finalize solve (rule,
    /// strategy, pool-lane cap). Defaults to
    /// [`SolverConfig::default`].
    pub fn config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the summary budget (working-set bound in points). Values
    /// below `k` are clamped up to `k`; the default is
    /// [`DEFAULT_BUDGET_PER_CENTER`]` * k`.
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Validates and returns the solver (`k == 0` is
    /// [`SolveError::ZeroK`]).
    pub fn build(self) -> Result<StreamSolver, SolveError> {
        if self.k == 0 {
            return Err(SolveError::ZeroK);
        }
        let budget = self
            .budget
            .unwrap_or(DEFAULT_BUDGET_PER_CENTER * self.k)
            .max(self.k);
        let threads = self.config.resolved_threads();
        Ok(StreamSolver {
            k: self.k,
            summary: StreamSummary::with_threads(budget, threads),
            config: self.config,
            epochs: 0,
            last_epoch: None,
            memory_peak: 0,
        })
    }
}

/// A memory-bounded streaming uncertain k-center solver.
///
/// Push uncertain points (singly or in chunked epochs), read cheap
/// state ([`StreamSolver::report`], [`StreamSolver::digest`]) at any
/// time, and finalize with [`StreamSolver::solution`] as often as
/// needed — the stream keeps accepting points afterwards.
///
/// ```
/// use ukc_metric::Point;
/// use ukc_stream::StreamSolver;
/// use ukc_uncertain::UncertainPoint;
///
/// let mut solver = StreamSolver::builder(2).build().unwrap();
/// for x in 0..100 {
///     let spread = UncertainPoint::new(
///         vec![
///             Point::new(vec![f64::from(x), 0.0]),
///             Point::new(vec![f64::from(x), 2.0]),
///         ],
///         vec![0.5, 0.5],
///     )
///     .unwrap();
///     solver.push(&spread).unwrap();
/// }
/// let solution = solver.solution().unwrap();
/// assert!(solution.centers.len() <= 2);
/// // The certified bounds bracket the achievable radius.
/// assert!(solution.lower_bound <= solution.radius_bound);
/// // The working set stayed far below the 100 points streamed.
/// assert!(solution.stream.memory_peak_points < 20);
/// ```
#[derive(Clone, Debug)]
pub struct StreamSolver {
    k: usize,
    config: SolverConfig,
    summary: StreamSummary,
    epochs: u64,
    last_epoch: Option<EpochReport>,
    memory_peak: usize,
}

impl StreamSolver {
    /// Starts a builder for a `k`-center stream.
    pub fn builder(k: usize) -> StreamSolverBuilder {
        StreamSolverBuilder {
            k,
            config: SolverConfig::default(),
            budget: None,
        }
    }

    /// A solver with the default budget; `k == 0` is
    /// [`SolveError::ZeroK`].
    pub fn new(k: usize, config: SolverConfig) -> Result<Self, SolveError> {
        Self::builder(k).config(config).build()
    }

    /// The number of centers requested.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configuration driving the finalize solve.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// The summary budget (working-set bound in points).
    pub fn budget(&self) -> usize {
        self.summary.budget()
    }

    /// Uncertain points consumed so far.
    pub fn len(&self) -> u64 {
        self.summary.seen()
    }

    /// `true` before the first point.
    pub fn is_empty(&self) -> bool {
        self.summary.seen() == 0
    }

    /// The canonical state digest (see [`StreamSummary::digest`]).
    pub fn digest(&self) -> u64 {
        self.summary.digest()
    }

    /// The underlying summary (read-only).
    pub fn summary(&self) -> &StreamSummary {
        &self.summary
    }

    /// The last epoch's instrumentation, if any epoch ran.
    pub fn last_epoch(&self) -> Option<&EpochReport> {
        self.last_epoch.as_ref()
    }

    /// Cumulative stream instrumentation.
    pub fn report(&self) -> StreamReport {
        StreamReport {
            points: self.summary.seen(),
            epochs: self.epochs,
            summary_len: self.summary.len(),
            threshold: self.summary.threshold(),
            distance_evals: self.summary.distance_evals(),
            merges: self.summary.merges(),
            memory_peak_points: self.memory_peak.max(self.summary.peak_rows()),
            digest: self.summary.digest(),
        }
    }

    /// Captures the evolved state as plain data for durable storage.
    pub fn snapshot(&self) -> SolverSnapshot {
        SolverSnapshot {
            epochs: self.epochs,
            memory_peak: self.memory_peak,
            summary: self.summary.snapshot(),
        }
    }

    /// Replaces this solver's evolved state with a snapshot's. The
    /// solver must have been rebuilt from the stream's original creation
    /// request first — `k`, budget, and config are not in the snapshot.
    ///
    /// Returns `false` (leaving the solver untouched) when the snapshot
    /// is structurally invalid or its budget disagrees with this
    /// solver's: callers fall back to replaying the stream history.
    pub fn restore(&mut self, snap: &SolverSnapshot) -> bool {
        if snap.summary.budget != self.summary.budget() {
            return false;
        }
        let threads = self.config.resolved_threads();
        match StreamSummary::from_snapshot(&snap.summary, threads) {
            Some(summary) => {
                self.summary = summary;
                self.epochs = snap.epochs;
                self.memory_peak = snap.memory_peak;
                self.last_epoch = None;
                true
            }
            None => false,
        }
    }

    /// Pushes one uncertain point (an epoch of one). O(z + budget).
    pub fn push(&mut self, up: &UncertainPoint<Point>) -> Result<(), SolveError> {
        self.push_chunk(std::slice::from_ref(up)).map(|_| ())
    }

    /// Pushes one chunk as a single epoch: validates the whole chunk
    /// first (all-or-nothing — a dimension mismatch or a location past
    /// [`ukc_core::MAX_NORM_SQ`] rejects the chunk without consuming any
    /// of it), computes the expected points with pooled fan-out, then
    /// folds them into the summary in order.
    ///
    /// An empty chunk is [`SolveError::EmptySet`].
    pub fn push_chunk(
        &mut self,
        chunk: &[UncertainPoint<Point>],
    ) -> Result<EpochReport, SolveError> {
        if chunk.is_empty() {
            return Err(SolveError::EmptySet);
        }
        let t = Instant::now();
        let base = self.summary.seen() as usize;
        let mut expected = self.summary.dim();
        if expected == 0 {
            expected = chunk[0].locations()[0].dim();
        }
        validate_locations(chunk, base, expected)?;
        // Expected points are independent per point: fan the O(z)
        // reductions out across the pool. Each slot is written by
        // exactly one chunk and its value depends only on its own point,
        // so the fill is deterministic for every lane count.
        let mut pbars: Vec<Option<Point>> = vec![None; chunk.len()];
        ukc_pool::for_each_slice(
            Exec::auto(self.config.resolved_threads()),
            &mut pbars,
            256,
            |start, slice| {
                for (j, slot) in slice.iter_mut().enumerate() {
                    *slot = Some(expected_point(&chunk[start + j]));
                }
            },
        );
        let evals_before = self.summary.distance_evals();
        let merges_before = self.summary.merges();
        for pbar in &pbars {
            let pbar = pbar.as_ref().expect("every slot filled");
            self.summary
                .insert(pbar.coords())
                .expect("chunk dimensions validated above");
        }
        self.epochs += 1;
        self.memory_peak = self.memory_peak.max(self.summary.peak_rows() + chunk.len());
        let report = EpochReport {
            epoch: self.epochs,
            points: chunk.len(),
            distance_evals: self.summary.distance_evals() - evals_before,
            merges: self.summary.merges() - merges_before,
            threshold: self.summary.threshold(),
            summary_len: self.summary.len(),
            memory_peak_points: self.memory_peak,
            wall: t.elapsed(),
        };
        self.last_epoch = Some(report.clone());
        Ok(report)
    }

    /// Finalizes the current state into k centers with certified bounds.
    ///
    /// When the summary holds more than `k` centers, the configured
    /// certain strategy solves k-center on the summary points (honoring
    /// the configured pool lanes); otherwise the summary *is*
    /// the solution. Either way the stream keeps accepting points — this
    /// is a snapshot, not a terminal call.
    ///
    /// An empty stream is [`SolveError::EmptySet`].
    pub fn solution(&self) -> Result<StreamSolution, SolveError> {
        if self.summary.is_empty() {
            return Err(SolveError::EmptySet);
        }
        let summary_points = self.summary.center_points();
        let (centers, certain_radius, finalize) = if summary_points.len() <= self.k {
            let finalize = Report {
                method: format!("{}/summary", stream_method(&self.config)),
                ..Report::default()
            };
            (summary_points, 0.0, finalize)
        } else {
            let certain: Vec<UncertainPoint<Point>> = summary_points
                .iter()
                .cloned()
                .map(UncertainPoint::certain)
                .collect();
            let set = UncertainSet::new(certain);
            let problem = Problem::euclidean(set, self.k)?;
            let mut solution = problem.solve(&self.config)?;
            solution.report.method = format!("{}/finalize", stream_method(&self.config));
            (solution.centers, solution.certain_radius, solution.report)
        };
        Ok(StreamSolution {
            centers,
            certain_radius,
            radius_bound: certain_radius + self.summary.coverage_radius(),
            lower_bound: self.summary.lower_bound(),
            finalize,
            stream: self.report(),
        })
    }
}

/// The `space/rule/strategy` descriptor prefix shared by stream reports.
fn stream_method(config: &SolverConfig) -> String {
    let rule = match config.rule() {
        ukc_core::AssignmentRule::ExpectedDistance => "ed",
        ukc_core::AssignmentRule::ExpectedPoint => "ep",
        ukc_core::AssignmentRule::OneCenter => "oc",
    };
    format!("stream/{rule}/{}", config.strategy().name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_metric::Metric;
    use ukc_uncertain::generators::{clustered, ProbModel};

    fn stream_set(seed: u64, n: usize) -> UncertainSet<Point> {
        clustered(seed, n, 3, 2, 4, 8.0, 1.0, ProbModel::Random)
    }

    #[test]
    fn zero_k_and_empty_streams_are_typed_errors() {
        assert!(matches!(
            StreamSolver::builder(0).build(),
            Err(SolveError::ZeroK)
        ));
        let solver = StreamSolver::builder(2).build().unwrap();
        assert!(matches!(solver.solution(), Err(SolveError::EmptySet)));
        let mut solver = StreamSolver::builder(2).build().unwrap();
        assert!(matches!(solver.push_chunk(&[]), Err(SolveError::EmptySet)));
    }

    #[test]
    fn dimension_mismatch_rejects_the_whole_chunk() {
        let mut solver = StreamSolver::builder(2).build().unwrap();
        let good = UncertainPoint::certain(Point::new(vec![0.0, 1.0]));
        let bad = UncertainPoint::certain(Point::new(vec![0.0, 1.0, 2.0]));
        let err = solver
            .push_chunk(&[good.clone(), bad, good.clone()])
            .unwrap_err();
        assert_eq!(
            err,
            SolveError::DimensionMismatch {
                point: 1,
                got: 3,
                expected: 2
            }
        );
        // All-or-nothing: the valid prefix was not consumed.
        assert!(solver.is_empty());
        solver.push(&good).unwrap();
        assert_eq!(solver.len(), 1);
    }

    #[test]
    fn coordinates_past_the_norm_bound_reject_the_whole_chunk() {
        let mut solver = StreamSolver::builder(2).build().unwrap();
        let good = UncertainPoint::certain(Point::new(vec![0.0, 1.0]));
        solver.push(&good).unwrap();
        // Its expected point alone would sit at 2.5e154, past the bound:
        // finalize could not solve a summary holding it.
        let far = UncertainPoint::new(
            vec![Point::new(vec![1e155, 1.0]), Point::new(vec![2.0, 1.0])],
            vec![0.25, 0.75],
        )
        .unwrap();
        let err = solver.push_chunk(&[good.clone(), far]).unwrap_err();
        assert_eq!(err, SolveError::CoordinatesTooLarge { point: 2 });
        assert_eq!(solver.len(), 1);
        assert!(solver.solution().is_ok());
    }

    #[test]
    fn epochs_and_reports_accumulate() {
        let set = stream_set(7, 120);
        let mut solver = StreamSolver::builder(3).budget(6).build().unwrap();
        let points = set.points();
        let first = solver.push_chunk(&points[..40]).unwrap();
        assert_eq!((first.epoch, first.points), (1, 40));
        let second = solver.push_chunk(&points[40..]).unwrap();
        assert_eq!((second.epoch, second.points), (2, 80));
        let report = solver.report();
        assert_eq!(report.points, 120);
        assert_eq!(report.epochs, 2);
        assert!(report.summary_len <= 6);
        assert!(report.distance_evals > 0);
        assert_eq!(report.digest, solver.digest());
        // Working set: summary rows + the largest chunk, never the
        // whole stream.
        assert!(report.memory_peak_points <= 6 + 1 + 80);
    }

    #[test]
    fn solution_brackets_and_respects_k() {
        let set = stream_set(11, 200);
        let mut solver = StreamSolver::builder(3).build().unwrap();
        solver.push_chunk(set.points()).unwrap();
        let solution = solver.solution().unwrap();
        assert!(solution.centers.len() <= 3);
        assert!(solution.lower_bound <= solution.radius_bound + 1e-12);
        assert!(solution.radius_bound >= solution.certain_radius);
        // Every streamed expected point is covered within the bound.
        let metric = ukc_metric::Euclidean;
        for up in set.iter() {
            let pbar = expected_point(up);
            let d = solution
                .centers
                .iter()
                .map(|c| metric.dist(&pbar, c))
                .fold(f64::INFINITY, f64::min);
            assert!(d <= solution.radius_bound + 1e-9);
        }
    }

    #[test]
    fn solver_snapshot_restores_onto_a_rebuilt_solver() {
        let set = stream_set(17, 160);
        let points = set.points();
        let mut original = StreamSolver::builder(3).budget(9).build().unwrap();
        original.push_chunk(&points[..100]).unwrap();
        let snap = original.snapshot();
        // Recovery path: rebuild from the creation parameters, then
        // restore the evolved state.
        let mut restored = StreamSolver::builder(3).budget(9).build().unwrap();
        assert!(restored.restore(&snap));
        assert_eq!(restored.digest(), original.digest());
        assert_eq!(restored.report().epochs, original.report().epochs);
        assert_eq!(
            restored.report().memory_peak_points,
            original.report().memory_peak_points
        );
        // Both keep evolving identically, and finalize identically.
        original.push_chunk(&points[100..]).unwrap();
        restored.push_chunk(&points[100..]).unwrap();
        assert_eq!(restored.digest(), original.digest());
        let a = original.solution().unwrap();
        let b = restored.solution().unwrap();
        for (x, y) in a.centers.iter().zip(&b.centers) {
            assert_eq!(x.coords(), y.coords());
        }
        assert_eq!(a.certain_radius.to_bits(), b.certain_radius.to_bits());
        // A budget mismatch refuses to restore and leaves state alone.
        let mut wrong = StreamSolver::builder(3).budget(12).build().unwrap();
        assert!(!wrong.restore(&snap));
        assert!(wrong.is_empty());
    }

    #[test]
    fn chunking_does_not_change_state_or_solution() {
        let set = stream_set(13, 150);
        let mut whole = StreamSolver::builder(3).build().unwrap();
        whole.push_chunk(set.points()).unwrap();
        let mut pieces = StreamSolver::builder(3).build().unwrap();
        for chunk in set.points().chunks(7) {
            pieces.push_chunk(chunk).unwrap();
        }
        assert_eq!(whole.digest(), pieces.digest());
        let a = whole.solution().unwrap();
        let b = pieces.solution().unwrap();
        assert_eq!(a.centers.len(), b.centers.len());
        for (x, y) in a.centers.iter().zip(&b.centers) {
            assert_eq!(x.coords(), y.coords());
        }
        assert_eq!(a.certain_radius.to_bits(), b.certain_radius.to_bits());
    }
}
