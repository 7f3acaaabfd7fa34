//! Typed errors for the public solve path.
//!
//! Nothing in the [`crate::Problem`] / [`crate::SolverConfig`] API panics
//! on user input: every rejection is a [`SolveError`] variant precise
//! enough for a caller (or an API gateway) to turn into an actionable
//! message without string matching.

use crate::assignments::AssignmentRule;

/// Everything that can be wrong with a problem, a configuration, or their
/// combination.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// `k == 0`: a k-center instance needs at least one center.
    ZeroK,
    /// The instance has no uncertain points.
    EmptySet,
    /// `k` exceeds the number of uncertain points.
    KExceedsN {
        /// Requested number of centers.
        k: usize,
        /// Number of uncertain points in the instance.
        n: usize,
    },
    /// A discrete problem was given an empty candidate pool.
    EmptyCandidates,
    /// Two locations of the instance live in different dimensions; the
    /// pipeline requires one ambient `ℝ^d`.
    DimensionMismatch {
        /// Index of the uncertain point carrying the offending location.
        point: usize,
        /// Dimension found.
        got: usize,
        /// Dimension of the instance's first location.
        expected: usize,
    },
    /// A location's squared norm `‖x‖²` exceeds
    /// [`crate::MAX_NORM_SQ`] `= 2^1000` (a coordinate of `1e150` passes
    /// in one dimension, `1e155` does not).
    ///
    /// The bound keeps every squared norm and squared distance finite
    /// in the scalar loop and the tiled screen alike. With `‖x‖² ≤ B` for every location, each
    /// representative (`P̄ᵢ`, `P̃ᵢ`) lies in the hull of its point's
    /// locations, so `‖x‖² ≤ B` holds for it too. For two such points the
    /// scalar loop's `Σ (aᵢ − bᵢ)²` is at most
    /// `(‖a‖ + ‖b‖)² ≤ 4B`, and so is every partial sum. The tiled
    /// screen's `‖a‖² + ‖b‖² − 2a·b` has terms and partial sums bounded by
    /// `4B` too (`|a·b| ≤ ‖a‖‖b‖`). `4B = 2^1002` sits a factor `2^22`
    /// below `f64::MAX`, which also covers rounding and the grid
    /// strategy's synthesized centers, which lie at most one grid spacing
    /// outside the representatives' bounding box.
    CoordinatesTooLarge {
        /// Index of the uncertain point carrying the offending location.
        point: usize,
    },
    /// The assignment rule is not defined in the problem's space (e.g.
    /// the expected-point rule in a general metric space, where no
    /// expected point exists).
    RuleUnsupported {
        /// The offending rule.
        rule: AssignmentRule,
        /// Short name of the problem's space ("euclidean", "discrete").
        space: &'static str,
    },
    /// The certain-solver strategy is not available in the problem's
    /// space (e.g. the Euclidean grid solver on a graph metric).
    StrategyUnsupported {
        /// Short name of the strategy.
        strategy: &'static str,
        /// Short name of the problem's space.
        space: &'static str,
    },
    /// The additively-weighted assignment mode was combined with a
    /// feature it does not support (it requires the Gonzalez strategy on
    /// a continuous Euclidean coordinate instance).
    WeightedUnsupported {
        /// Short name of the unsupported feature ("strategy grid",
        /// "discrete problems", ...).
        feature: &'static str,
    },
    /// The configured ε is not a positive finite number.
    BadEpsilon {
        /// The rejected value.
        eps: f64,
    },
    /// [`crate::SolverConfig::table1_row`] was asked for a row the
    /// paper's Table 1 does not have.
    UnknownTableRow {
        /// The rejected row number (valid rows are 1..=9).
        row: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::ZeroK => write!(f, "k must be at least 1"),
            SolveError::EmptySet => write!(f, "instance has no uncertain points"),
            SolveError::KExceedsN { k, n } => {
                write!(f, "k = {k} exceeds the number of uncertain points n = {n}")
            }
            SolveError::EmptyCandidates => {
                write!(f, "discrete problems need a non-empty candidate pool")
            }
            SolveError::DimensionMismatch {
                point,
                got,
                expected,
            } => {
                write!(
                    f,
                    "point {point} has a location of dimension {got}, expected {expected}"
                )
            }
            SolveError::CoordinatesTooLarge { point } => {
                write!(
                    f,
                    "point {point} has a location whose squared norm exceeds 2^1000; \
                     distances between such coordinates overflow"
                )
            }
            SolveError::RuleUnsupported { rule, space } => {
                write!(
                    f,
                    "assignment rule {rule:?} is not defined in the {space} space"
                )
            }
            SolveError::StrategyUnsupported { strategy, space } => {
                write!(
                    f,
                    "certain solver {strategy} is not available in the {space} space"
                )
            }
            SolveError::WeightedUnsupported { feature } => {
                write!(
                    f,
                    "additively-weighted assignment does not support {feature}"
                )
            }
            SolveError::BadEpsilon { eps } => {
                write!(f, "epsilon must be a positive finite number, got {eps}")
            }
            SolveError::UnknownTableRow { row } => {
                write!(f, "the paper's Table 1 has rows 1..=9, got {row}")
            }
        }
    }
}

impl std::error::Error for SolveError {}
