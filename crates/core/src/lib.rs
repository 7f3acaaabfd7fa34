//! # ukc-core — the paper's uncertain k-center algorithms
//!
//! Implements every algorithm of *Improvements on the k-center problem for
//! uncertain data* (Alipour & Jafari, PODS 2018) behind a unified,
//! request-shaped API: a validated [`Problem`], a fluent [`SolverConfig`],
//! and a [`Solution`] carrying per-stage instrumentation ([`Report`]).
//! Nothing in the solve path panics on user input — rejections are typed
//! [`SolveError`]s — and [`solve_batch`] fans independent problems across
//! threads with bit-identical results to the sequential loop.
//!
//! | Paper artifact | API |
//! |---|---|
//! | Theorem 2.1 (1-center, factor 2, O(z)) | [`one_center::expected_point_one_center`] |
//! | Theorem 2.2 + Remark 3.1 (restricted assigned, Euclidean; ED: 6 / 5+ε, EP: 4 / 3+ε) | [`Problem::euclidean`] with [`AssignmentRule::ExpectedDistance`] / [`AssignmentRule::ExpectedPoint`] |
//! | Theorems 2.4 / 2.5 (unrestricted assigned, Euclidean; 4 / 3+ε) | same pipeline — the paper's point is that the *restricted* pipeline already approximates the unrestricted optimum |
//! | Theorems 2.6 / 2.7 (any metric; ED: 7+2ε, OC: 5+2ε) | [`Problem::in_metric`] with the ED / OC rules |
//! | Lemma 3.2-style certified lower bounds | [`bounds`], surfaced per solve in [`Report::lower_bound`] |
//!
//! The pipeline shared by every theorem:
//!
//! 1. replace each uncertain point by a certain representative (`P̄` in
//!    Euclidean space, `P̃` in a general metric space);
//! 2. solve deterministic k-center on the representatives with any
//!    (1+ε)-approximate solver ([`CertainStrategy`]);
//! 3. assign each uncertain point to a center by the chosen rule
//!    ([`assignments`]);
//! 4. report the *exact* expected cost of the result (via
//!    `ukc_uncertain::ecost_assigned`).
//!
//! A Euclidean problem runs every stage over one coordinate store through
//! the batched distance kernels of `ukc_metric`;
//! a general-metric problem runs them pointwise through its metric,
//! counted by [`CountingMetric`].
//!
//! ```
//! use ukc_core::{AssignmentRule, Problem, SolverConfig};
//! use ukc_uncertain::generators::{clustered, ProbModel};
//!
//! let set = clustered(42, 30, 4, 2, 3, 5.0, 1.0, ProbModel::Random);
//! let problem = Problem::euclidean(set, 3).unwrap();
//! let config = SolverConfig::builder()
//!     .rule(AssignmentRule::ExpectedPoint)
//!     .build()
//!     .unwrap();
//! let solution = problem.solve(&config).unwrap();
//! assert_eq!(solution.centers.len(), 3);
//! assert!(solution.ecost.is_finite());
//! // Every solve certifies itself: exact cost vs. lower bound, stage
//! // timings, and distance-evaluation counts.
//! assert!(solution.report.lower_bound.unwrap() <= solution.ecost + 1e-9);
//! assert!(solution.report.distance_evals.total() > 0);
//! ```
//!
//! Batch workloads go through [`solve_batch`]:
//!
//! ```
//! use ukc_core::{solve_batch, Problem, SolverConfig};
//! use ukc_uncertain::generators::{clustered, ProbModel};
//!
//! let problems: Vec<_> = (0..8)
//!     .map(|seed| {
//!         let set = clustered(seed, 12, 3, 2, 2, 4.0, 1.0, ProbModel::Random);
//!         Problem::euclidean(set, 2).unwrap()
//!     })
//!     .collect();
//! let results = solve_batch(&problems, &SolverConfig::default());
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignments;
pub mod bounds;
pub mod config;
pub mod digest;
pub mod error;
pub mod incremental;
pub mod one_center;
pub mod problem;
pub mod report;
mod traversal;

pub use assignments::{assign_ed, assign_ep, assign_oc, AssignmentRule};
pub use bounds::{lower_bound_euclidean, lower_bound_metric, lower_bound_one_center};
pub use config::{
    AssignmentMode, CandidatePolicy, CertainStrategy, SolverConfig, SolverConfigBuilder,
};
pub use digest::{digest_hex, digest_problem, digest_set};
pub use error::SolveError;
pub use incremental::{solve_loo, LooReport, LooVariant};
pub use one_center::{expected_point_one_center, reference_one_center};
pub use problem::{
    solve_batch, solve_batch_threads, validate_k, validate_locations, CostDistances, Problem,
    Solution, MAX_NORM_SQ,
};
pub use report::{CountingMetric, DistanceEvals, Report, StageTimings, WarmStats};
