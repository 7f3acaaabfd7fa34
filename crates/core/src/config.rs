//! Solver configuration: the (rule × certain-solver × ε × seed ×
//! candidate-policy) combination as a first-class, validated value.
//!
//! A [`SolverConfig`] is immutable once built, cheap to clone, and shared
//! freely across threads ([`crate::solve_batch`] takes one config for the
//! whole batch). Build one with the fluent [`SolverConfig::builder`], or
//! start from a paper-faithful preset ([`SolverConfig::table1_row`]) and
//! tweak it:
//!
//! ```
//! use ukc_core::{AssignmentRule, CertainStrategy, SolverConfig};
//!
//! let cfg = SolverConfig::builder()
//!     .rule(AssignmentRule::ExpectedPoint)
//!     .strategy(CertainStrategy::Grid)
//!     .eps(0.25)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! assert_eq!(cfg.rule(), AssignmentRule::ExpectedPoint);
//!
//! // Table 1 row 4: EP rule + Gonzalez backend, proven factor 4.
//! let row4 = SolverConfig::table1_row(4).unwrap();
//! assert_eq!(row4.rule(), AssignmentRule::ExpectedPoint);
//! ```

use crate::assignments::AssignmentRule;
use crate::error::SolveError;
use ukc_kcenter::{ExactOptions, GridOptions};

/// Which deterministic k-center backend runs on the representatives.
///
/// The strategy determines the certain factor `1 + ε` and therefore the
/// proven end-to-end factor (see [`SolverConfig::table1_row`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertainStrategy {
    /// Gonzalez greedy: factor 2, `O(nk)` — the paper's Remark 3.1 choice.
    Gonzalez,
    /// Gonzalez followed by best-improvement single swaps (factor still
    /// 2, usually much better in practice).
    GonzalezLocalSearch {
        /// Maximum swap rounds.
        rounds: usize,
    },
    /// Certified `(1+ε)` grid solver — Euclidean problems only; falls
    /// back to Gonzalez past its candidate caps. ε comes from
    /// [`SolverConfigBuilder::eps`].
    Grid,
    /// Exact discrete k-center over the candidate pool (see
    /// [`CandidatePolicy`]); falls back to Gonzalez past its limits.
    ExactDiscrete,
}

impl CertainStrategy {
    /// Short name for reports and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            CertainStrategy::Gonzalez => "gonzalez",
            CertainStrategy::GonzalezLocalSearch { .. } => "gonzalez+local-search",
            CertainStrategy::Grid => "grid",
            CertainStrategy::ExactDiscrete => "exact-discrete",
        }
    }
}

/// How representatives are matched to certain centers in the assignment
/// and cost stages.
///
/// [`AssignmentMode::AdditivelyWeighted`] is the Apollonius variant: every
/// center `cᵢ` carries an additive weight `wᵢ` (the expected spread
/// `E d(Pᵢ, repᵢ)` of the uncertain point it was chosen from) and points
/// compare centers by `d(p, cᵢ) − wᵢ`, so a center standing in for a
/// widely-spread uncertain point claims a larger cell. With all-zero
/// weights (an all-certain instance) the weighted pipeline is
/// bit-identical to [`AssignmentMode::Plain`], which the
/// weighted-equivalence suite pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AssignmentMode {
    /// Unweighted nearest-center assignment — the paper's pipeline.
    #[default]
    Plain,
    /// Additively-weighted (Apollonius) assignment: centers compare by
    /// `d(p, c) − w_c` with `w_c` the source point's expected spread.
    AdditivelyWeighted,
}

impl AssignmentMode {
    /// Every mode, in wire order — for per-mode metric slots and
    /// exhaustive test sweeps.
    pub const ALL: [AssignmentMode; 2] =
        [AssignmentMode::Plain, AssignmentMode::AdditivelyWeighted];

    /// Short name for reports, wire payloads, and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            AssignmentMode::Plain => "plain",
            AssignmentMode::AdditivelyWeighted => "weighted",
        }
    }

    /// Parses the wire/CLI spelling (`"plain"` or `"weighted"`).
    pub fn parse(s: &str) -> Option<AssignmentMode> {
        match s {
            "plain" => Some(AssignmentMode::Plain),
            "weighted" => Some(AssignmentMode::AdditivelyWeighted),
            _ => None,
        }
    }
}

/// Where discrete solvers draw their candidate centers from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CandidatePolicy {
    /// The problem's own pool: the explicit pool of a discrete problem,
    /// or the representative points of a Euclidean problem — the paper's
    /// default.
    #[default]
    ProblemPool,
    /// The union of every uncertain location in the instance (a richer
    /// pool: slower, never worse on the certain radius).
    LocationPool,
}

/// The validated solver configuration.
///
/// Construct via [`SolverConfig::builder`], [`SolverConfig::default`]
/// (EP rule + Gonzalez — the paper's best general-purpose Euclidean
/// pipeline) or a [`SolverConfig::table1_row`] preset.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverConfig {
    rule: AssignmentRule,
    strategy: CertainStrategy,
    assignment: AssignmentMode,
    eps: f64,
    seed: u64,
    candidate_policy: CandidatePolicy,
    lower_bound: bool,
    threads: usize,
    grid_limits: GridOptions,
    exact_limits: ExactOptions,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            rule: AssignmentRule::ExpectedPoint,
            strategy: CertainStrategy::Gonzalez,
            assignment: AssignmentMode::Plain,
            eps: GridOptions::default().eps,
            seed: 0,
            candidate_policy: CandidatePolicy::ProblemPool,
            lower_bound: true,
            threads: 0,
            grid_limits: GridOptions::default(),
            exact_limits: ExactOptions::default(),
        }
    }
}

impl SolverConfig {
    /// Starts a fluent builder from the default configuration.
    pub fn builder() -> SolverConfigBuilder {
        SolverConfigBuilder {
            config: SolverConfig::default(),
            explicit_eps: None,
        }
    }

    /// A paper-faithful preset for a row of the paper's Table 1.
    ///
    /// | row | preset | proven factor |
    /// |---|---|---|
    /// | 1 | EP + Gonzalez (Theorem 2.1 is the `k = 1` case: `P̄` itself) | 2 |
    /// | 2 | ED + Gonzalez (Theorem 2.2 + Remark 3.1) | 6 |
    /// | 3 | ED + grid, ε = 0.25 (Theorem 2.2) | 5 + ε |
    /// | 4 | EP + Gonzalez (Theorem 2.2 + Remark 3.1) | 4 |
    /// | 5 | EP + grid, ε = 0.25 (Theorem 2.2) | 3 + ε |
    /// | 6 | EP + Gonzalez (Theorem 2.5, ε = 1) | 4 |
    /// | 7 | EP + grid, ε = 0.25 (Theorem 2.5) | 3 + ε |
    /// | 8 | ED + Gonzalez (generic-pipeline counterpart of the exact 1-D solver in `ukc-onedim`) | 3 via Theorem 2.3 |
    /// | 9 | OC + Gonzalez (Theorem 2.7) | 5 + 2ε |
    ///
    /// Rows outside `1..=9` return [`SolveError::UnknownTableRow`].
    pub fn table1_row(row: usize) -> Result<SolverConfig, SolveError> {
        let builder = SolverConfig::builder();
        match row {
            1 | 4 | 6 => builder.rule(AssignmentRule::ExpectedPoint).build(),
            2 | 8 => builder.rule(AssignmentRule::ExpectedDistance).build(),
            3 => builder
                .rule(AssignmentRule::ExpectedDistance)
                .strategy(CertainStrategy::Grid)
                .eps(0.25)
                .build(),
            5 | 7 => builder
                .rule(AssignmentRule::ExpectedPoint)
                .strategy(CertainStrategy::Grid)
                .eps(0.25)
                .build(),
            9 => builder.rule(AssignmentRule::OneCenter).build(),
            _ => Err(SolveError::UnknownTableRow { row }),
        }
    }

    /// The assignment rule.
    pub fn rule(&self) -> AssignmentRule {
        self.rule
    }

    /// The certain-solver strategy.
    pub fn strategy(&self) -> CertainStrategy {
        self.strategy
    }

    /// The assignment mode ([`AssignmentMode::Plain`] by default).
    pub fn assignment(&self) -> AssignmentMode {
        self.assignment
    }

    /// The grid solver's ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The seed reserved for randomized strategies (recorded for
    /// reproducibility; every current strategy is deterministic).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The candidate-pool policy for discrete solvers.
    pub fn candidate_policy(&self) -> CandidatePolicy {
        self.candidate_policy
    }

    /// Whether each solve certifies a lower bound in its report.
    pub fn computes_lower_bound(&self) -> bool {
        self.lower_bound
    }

    /// The requested intra-solve lane count: `0` (the default) means
    /// "auto" — `UKC_THREADS` when set, otherwise the machine's available
    /// parallelism. See [`SolverConfig::resolved_threads`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The lane count a solve will actually request from the shared pool:
    /// the explicit [`SolverConfigBuilder::threads`] value, or
    /// [`ukc_pool::default_threads`] when set to auto.
    ///
    /// Threads are a pure *resource* knob: solver output, per-stage
    /// distance-eval counts, and instance digests are bit-identical for
    /// every value (pinned by `tests/parallel_equivalence.rs`), which is
    /// also why the serving layer's cache key deliberately excludes it.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            ukc_pool::default_threads()
        } else {
            self.threads
        }
    }

    /// The grid solver's options (ε folded in).
    pub fn grid_options(&self) -> GridOptions {
        GridOptions {
            eps: self.eps,
            ..self.grid_limits
        }
    }

    /// The exact discrete solver's resource limits.
    pub fn exact_options(&self) -> ExactOptions {
        self.exact_limits
    }
}

/// Fluent builder for [`SolverConfig`]; finish with
/// [`SolverConfigBuilder::build`], which validates.
#[derive(Clone, Debug)]
pub struct SolverConfigBuilder {
    config: SolverConfig,
    /// ε set via [`SolverConfigBuilder::eps`]; wins over the ε inside
    /// [`SolverConfigBuilder::grid_limits`] regardless of call order.
    explicit_eps: Option<f64>,
}

impl SolverConfigBuilder {
    /// Sets the assignment rule.
    pub fn rule(mut self, rule: AssignmentRule) -> Self {
        self.config.rule = rule;
        self
    }

    /// Sets the certain-solver strategy.
    pub fn strategy(mut self, strategy: CertainStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Sets the assignment mode. [`AssignmentMode::AdditivelyWeighted`]
    /// requires the Gonzalez strategy on a Euclidean coordinate instance
    /// (validated at solve time, where the problem's space is known).
    pub fn assignment(mut self, assignment: AssignmentMode) -> Self {
        self.config.assignment = assignment;
        self
    }

    /// Sets the grid solver's ε (validated at [`Self::build`]). Takes
    /// precedence over the ε carried by [`Self::grid_limits`], in either
    /// call order.
    pub fn eps(mut self, eps: f64) -> Self {
        self.explicit_eps = Some(eps);
        self.config.eps = eps;
        self
    }

    /// Sets the seed recorded for randomized strategies.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the candidate-pool policy.
    pub fn candidate_policy(mut self, policy: CandidatePolicy) -> Self {
        self.config.candidate_policy = policy;
        self
    }

    /// Enables or disables lower-bound certification per solve
    /// (on by default; disable on hot paths that only need the solution).
    pub fn lower_bound(mut self, enabled: bool) -> Self {
        self.config.lower_bound = enabled;
        self
    }

    /// Caps the number of pool lanes a single solve may use. `0` (the
    /// default) resolves to `UKC_THREADS` / available parallelism; `1`
    /// runs fully inline — today's sequential path, byte for byte. Any
    /// value yields bit-identical output (the execution layer's
    /// determinism contract); the knob only trades latency for pool
    /// capacity.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Overrides the grid solver's candidate caps. The ε inside `limits`
    /// applies only when [`Self::eps`] was not called; an explicit
    /// `.eps(...)` always wins.
    pub fn grid_limits(mut self, limits: GridOptions) -> Self {
        self.config.eps = self.explicit_eps.unwrap_or(limits.eps);
        self.config.grid_limits = limits;
        self
    }

    /// Overrides the exact discrete solver's resource limits.
    pub fn exact_limits(mut self, limits: ExactOptions) -> Self {
        self.config.exact_limits = limits;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<SolverConfig, SolveError> {
        let eps = self.config.eps;
        if !(eps.is_finite() && eps > 0.0) {
            return Err(SolveError::BadEpsilon { eps });
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrips_fields() {
        let cfg = SolverConfig::builder()
            .rule(AssignmentRule::OneCenter)
            .strategy(CertainStrategy::GonzalezLocalSearch { rounds: 9 })
            .eps(0.125)
            .seed(42)
            .candidate_policy(CandidatePolicy::LocationPool)
            .lower_bound(false)
            .build()
            .unwrap();
        assert_eq!(cfg.rule(), AssignmentRule::OneCenter);
        assert_eq!(
            cfg.strategy(),
            CertainStrategy::GonzalezLocalSearch { rounds: 9 }
        );
        assert_eq!(cfg.eps(), 0.125);
        assert_eq!(cfg.seed(), 42);
        assert_eq!(cfg.candidate_policy(), CandidatePolicy::LocationPool);
        assert!(!cfg.computes_lower_bound());
        assert_eq!(cfg.grid_options().eps, 0.125);
    }

    #[test]
    fn assignment_mode_roundtrips_and_parses() {
        assert_eq!(SolverConfig::default().assignment(), AssignmentMode::Plain);
        let cfg = SolverConfig::builder()
            .assignment(AssignmentMode::AdditivelyWeighted)
            .build()
            .unwrap();
        assert_eq!(cfg.assignment(), AssignmentMode::AdditivelyWeighted);
        for mode in [AssignmentMode::Plain, AssignmentMode::AdditivelyWeighted] {
            assert_eq!(AssignmentMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(AssignmentMode::parse("apollonius"), None);
    }

    #[test]
    fn threads_knob_roundtrips_and_resolves() {
        let cfg = SolverConfig::builder().threads(3).build().unwrap();
        assert_eq!(cfg.threads(), 3);
        assert_eq!(cfg.resolved_threads(), 3);
        let auto = SolverConfig::default();
        assert_eq!(auto.threads(), 0);
        assert!(auto.resolved_threads() >= 1);
        let sequential = SolverConfig::builder().threads(1).build().unwrap();
        assert_eq!(sequential.resolved_threads(), 1);
    }

    #[test]
    fn bad_epsilon_rejected() {
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    SolverConfig::builder().eps(eps).build(),
                    Err(SolveError::BadEpsilon { .. })
                ),
                "eps = {eps}"
            );
        }
    }

    #[test]
    fn table1_presets() {
        for row in 1..=9usize {
            let cfg = SolverConfig::table1_row(row).unwrap();
            match row {
                2 | 3 | 8 => assert_eq!(cfg.rule(), AssignmentRule::ExpectedDistance),
                9 => assert_eq!(cfg.rule(), AssignmentRule::OneCenter),
                _ => assert_eq!(cfg.rule(), AssignmentRule::ExpectedPoint),
            }
            match row {
                3 | 5 | 7 => assert_eq!(cfg.strategy(), CertainStrategy::Grid),
                _ => assert_eq!(cfg.strategy(), CertainStrategy::Gonzalez),
            }
        }
        assert_eq!(
            SolverConfig::table1_row(0),
            Err(SolveError::UnknownTableRow { row: 0 })
        );
        // Explicit eps survives grid_limits in either call order.
        let explicit_then_limits = SolverConfig::builder()
            .eps(0.125)
            .grid_limits(ukc_kcenter::GridOptions::default())
            .build()
            .unwrap();
        assert_eq!(explicit_then_limits.eps(), 0.125);
        let limits_then_explicit = SolverConfig::builder()
            .grid_limits(ukc_kcenter::GridOptions::default())
            .eps(0.125)
            .build()
            .unwrap();
        assert_eq!(limits_then_explicit.eps(), 0.125);
        // Without an explicit eps, the limits' eps applies.
        let limits_only = SolverConfig::builder()
            .grid_limits(ukc_kcenter::GridOptions {
                eps: 0.75,
                ..Default::default()
            })
            .build()
            .unwrap();
        assert_eq!(limits_only.eps(), 0.75);
        assert_eq!(
            SolverConfig::table1_row(10),
            Err(SolveError::UnknownTableRow { row: 10 })
        );
    }
}
