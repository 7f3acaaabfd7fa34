//! Per-solve instrumentation: stage timings, distance-evaluation counts,
//! and the certified lower bound.
//!
//! Every [`crate::Problem::solve`] returns a [`Report`] inside its
//! [`crate::Solution`], making each solve self-describing: a serving
//! layer can emit the report as metrics, and a batch driver can attribute
//! wall-clock to pipeline stages without re-profiling.
//!
//! Distance evaluations are counted by the Euclidean solve's store oracle
//! ([`DistCounter`]) or, for a general-metric problem, by wrapping its
//! metric in [`CountingMetric`]; work that bypasses both (the
//! Euclidean grid solver's internal arithmetic) is deliberately not
//! counted and is documented as such on [`Report::distance_evals`].

use std::time::Duration;
use ukc_metric::{DistCounter, DistanceOracle, Metric};

/// Wall-clock time spent in each pipeline stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Stage 1: representative construction (`P̄` / `P̃`).
    pub representatives: Duration,
    /// Stage 2: the certain k-center solve on the representatives.
    pub certain_solve: Duration,
    /// Stage 3: the assignment rule.
    pub assignment: Duration,
    /// Stage 4: the exact expected-cost sweep.
    pub cost: Duration,
    /// Optional stage 5: the certified lower bound.
    pub lower_bound: Duration,
    /// End-to-end wall clock of the solve call.
    pub total: Duration,
}

/// Distance evaluations through the problem's metric, per stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistanceEvals {
    /// During representative construction (0 for Euclidean `P̄`, which
    /// uses coordinate arithmetic, not the metric).
    pub representatives: u64,
    /// During the certain k-center solve, center–center distances
    /// included. Gonzalez's passes over a Euclidean store skip the pairs
    /// the triangle inequality rules out; those are [`Self::pruned`].
    pub certain_solve: u64,
    /// During assignment.
    pub assignment: u64,
    /// During the exact cost sweep.
    pub cost: u64,
    /// During lower-bound certification. In Euclidean space this is the
    /// per-point half's own work — `z` per point for its `f(P̄ᵢ)` pass
    /// plus `z` per refinement iterate (see [`crate::bounds`]); the
    /// certain half's Gonzalez radius is the certain stage's (or an
    /// uncounted rerun of that sweep) and is not counted again.
    pub lower_bound: u64,
    /// Point–center pairs the solve proved it need not evaluate
    /// ([`DistCounter::pruned`]): not evaluations, so not in
    /// [`Self::total`]. On the default EP/Gonzalez solve,
    /// `certain_solve + pruned = n·|C| + |C|(|C|−1)/2`.
    pub pruned: u64,
}

impl DistanceEvals {
    /// Total evaluations across all stages ([`Self::pruned`] pairs were
    /// not evaluated and are not in it).
    pub fn total(&self) -> u64 {
        self.representatives + self.certain_solve + self.assignment + self.cost + self.lower_bound
    }
}

/// Instrumentation of a warm-started solve
/// ([`crate::Solution::warm_start`]): what was reused from the prior
/// solution, what that saved, and — when the warm fast path could not be
/// taken — why the solve fell back to the cold pipeline.
///
/// Present on a report (`Some`) exactly when the solve went through the
/// warm entry point; a plain cold [`crate::Problem::solve`] leaves
/// [`Report::warm`] as `None`, so serving layers can distinguish "cold
/// because asked" from "cold because the warm start fell back".
#[derive(Clone, Debug, Default)]
pub struct WarmStats {
    /// Centers carried over verbatim from the prior solution (`k` on the
    /// warm fast path, `0` on a cold fallback).
    pub reused_centers: usize,
    /// Distance evaluations the warm path avoided versus a cold solve of
    /// the same problem — at least this many: a floor on the cold spend
    /// (its first greedy pass evaluates all `n` representatives, its cost
    /// stage every realization location) minus the warm solve's actual
    /// spend; `0` on fallback.
    pub evals_saved: u64,
    /// Pipeline stages the warm path skipped or shrank (e.g.
    /// `"certain_solve"`, `"assignment_prefix"`).
    pub stages_skipped: Vec<&'static str>,
    /// `None` when the warm fast path ran; otherwise the typed reason the
    /// solve fell back to the cold pipeline (`"config_unsupported"`,
    /// `"space_unsupported"`, `"k_mismatch"`, `"prefix_mismatch"`,
    /// `"radius_bound_exceeded"`, ...). The result is still a valid
    /// solution either way — fallback is never an error.
    pub fallback: Option<&'static str>,
}

/// The instrumentation attached to every [`crate::Solution`].
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Wall-clock per stage.
    pub timings: StageTimings,
    /// Metric-distance evaluations per stage. Counts calls through the
    /// problem's metric object, plus the Euclidean lower bound's own
    /// coordinate passes; other solver-internal coordinate arithmetic
    /// (e.g. inside the Euclidean grid solver) is not included.
    pub distance_evals: DistanceEvals,
    /// The certified lower bound on the optimum expected cost, when the
    /// config asked for one ([`crate::SolverConfigBuilder::lower_bound`]).
    /// `alg / lower_bound` upper-bounds the true approximation ratio.
    pub lower_bound: Option<f64>,
    /// Human-readable `space/rule/strategy` descriptor of how the
    /// solution was produced.
    pub method: String,
    /// Warm-start instrumentation, present only on solves that went
    /// through [`crate::Solution::warm_start`] (including its cold
    /// fallbacks, which carry the typed [`WarmStats::fallback`] reason).
    pub warm: Option<WarmStats>,
}

/// A [`Metric`] decorator counting every distance evaluation.
///
/// The counter is atomic so the same wrapper works under
/// [`crate::solve_batch`]'s scoped threads; counting uses relaxed
/// ordering and costs one uncontended atomic add per call.
pub struct CountingMetric<'a, P: ?Sized> {
    inner: &'a (dyn Metric<P> + Sync + 'a),
    count: DistCounter,
}

impl<'a, P: ?Sized> CountingMetric<'a, P> {
    /// Wraps `inner`, starting the count at zero.
    pub fn new(inner: &'a (dyn Metric<P> + Sync + 'a)) -> Self {
        Self {
            inner,
            count: DistCounter::new(),
        }
    }

    /// The number of evaluations so far.
    pub fn count(&self) -> u64 {
        self.count.count()
    }

    /// Evaluations since `since` (a previous [`CountingMetric::count`]).
    pub fn since(&self, since: u64) -> u64 {
        self.count.since(since)
    }
}

impl<P: ?Sized> Metric<P> for CountingMetric<'_, P> {
    fn dist(&self, a: &P, b: &P) -> f64 {
        self.count.add(1);
        self.inner.dist(a, b)
    }
}

impl<P> DistanceOracle<P> for CountingMetric<'_, P> {}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_metric::{Euclidean, Point};

    #[test]
    fn counting_metric_counts_and_forwards() {
        let counting = CountingMetric::new(&Euclidean);
        let a = Point::new(vec![0.0, 0.0]);
        let b = Point::new(vec![3.0, 4.0]);
        assert_eq!(counting.count(), 0);
        assert_eq!(counting.dist(&a, &b), 5.0);
        assert_eq!(counting.count(), 1);
        // Provided methods route through dist and are counted too.
        let centers = vec![a.clone(), b.clone()];
        let (idx, d) = counting.nearest(&a, &centers).unwrap();
        assert_eq!((idx, d), (0, 0.0));
        assert_eq!(counting.count(), 3);
        assert_eq!(counting.since(1), 2);
    }

    #[test]
    fn distance_evals_total() {
        let evals = DistanceEvals {
            representatives: 1,
            certain_solve: 2,
            assignment: 3,
            cost: 4,
            lower_bound: 5,
            pruned: 6,
        };
        assert_eq!(evals.total(), 15);
    }
}
