//! # ukc-uncertain — the uncertain-point model
//!
//! The probability substrate of the reproduction. An *uncertain point*
//! ([`UncertainPoint`]) is an independent discrete distribution over a
//! finite set of locations; a collection of them ([`UncertainSet`]) induces
//! the product probability space Ω of *realizations* the paper's expected
//! costs are defined over:
//!
//! ```text
//! Ecost(C)     = Σ_{R∈Ω} prob(R) · max_i d(P̂_i, C)
//! EcostA(C, A) = Σ_{R∈Ω} prob(R) · max_i d(P̂_i, A(P_i))
//! ```
//!
//! Although Ω has `Π zᵢ` elements, the per-point distance variables are
//! independent, so both costs are computable *exactly* in `O(N log N)`
//! (N = total number of locations) by the product-CDF sweep of
//! [`expected_max()`]. That exactness is what lets the experiments certify
//! the paper's approximation factors instead of sampling them.
//!
//! Modules:
//! * [`point`] / [`set`] — the model types with validating constructors.
//! * [`mod@expected_max`] — exact `E[max]` of independent discrete variables.
//! * [`cost`] — exact, enumerated, and Monte-Carlo expected costs for the
//!   assigned and unassigned problem versions.
//! * [`reps`] — the paper's representative constructions: expected point
//!   `P̄` (Lemma 3.1), 1-center `P̃`, and the mode-point baseline.
//! * [`realization`] — realization enumeration and seeded sampling.
//! * [`generators`] — seeded workload generators for every experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod expected_max;
pub mod generators;
pub mod point;
pub mod realization;
pub mod reps;
pub mod set;

pub use cost::{
    assigned_distances_exec, cost_cdf_assigned, cost_cdf_unassigned, cost_quantile_assigned,
    cost_quantile_unassigned, distance_slices, distance_vars, ecost_assigned,
    ecost_assigned_enumerate, ecost_from_distances, ecost_monte_carlo, ecost_unassigned,
    ecost_unassigned_enumerate, ecost_unassigned_exec, MonteCarloEstimate,
};
pub use expected_max::{
    expected_max, expected_max_split, max_cdf, max_quantile, try_expected_max, try_max_cdf,
    try_max_quantile, AtomsError,
};
pub use point::{UncertainPoint, UncertainPointError};
pub use realization::{sample_realization, RealizationIter};
pub use reps::{
    expected_distance, expected_point, expected_spreads, expected_spreads_exec, mode_location,
    one_center_discrete, one_center_euclidean,
};
pub use set::UncertainSet;
