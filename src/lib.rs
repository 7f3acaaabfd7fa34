//! # uncertain-kcenter
//!
//! A production-quality Rust implementation of
//! *Improvements on the k-center problem for uncertain data*
//! (Sharareh Alipour & Amir Jafari, PODS 2018 / arXiv:1708.09180), together
//! with every substrate the paper depends on: metric spaces, deterministic
//! k-center solvers, exact expected-cost machinery, an exact 1-D solver,
//! and baselines.
//!
//! ## The problem
//!
//! Each input point `Pᵢ` is *uncertain*: an independent discrete
//! distribution over `zᵢ` possible locations. The k-center objective
//! becomes an expectation over the product space of realizations:
//!
//! ```text
//! Ecost(c₁..c_k) = Σ_{R∈Ω} prob(R) · max_i d(P̂ᵢ, C)
//! ```
//!
//! In the *assigned* versions every uncertain point is served by one fixed
//! center across realizations. The paper's algorithms replace each point by
//! a certain representative (the expected point `P̄` in Euclidean space,
//! the 1-center `P̃` in any metric space), solve deterministic k-center on
//! the representatives, and assign points by an expected-distance /
//! expected-point / 1-center rule — achieving factors 2 through 5+ε
//! depending on space and rule (paper Table 1).
//!
//! ## Quick start
//!
//! ```
//! use uncertain_kcenter::prelude::*;
//!
//! // A workload of 40 uncertain points around 3 cluster sites in R^2.
//! let set = clustered(7, 40, 4, 2, 3, 5.0, 1.0, ProbModel::Random);
//!
//! // The paper's pipeline as a validated request: expected points ->
//! // Gonzalez -> EP assignment. Bad input is a typed SolveError, not a
//! // panic.
//! let problem = Problem::euclidean(set, 3).unwrap();
//! let config = SolverConfig::builder()
//!     .rule(AssignmentRule::ExpectedPoint)
//!     .build()
//!     .unwrap();
//! let sol = problem.solve(&config).unwrap();
//!
//! // Certified sanity, straight from the per-solve report: the exact
//! // expected cost respects the lower bound.
//! assert!(sol.report.lower_bound.unwrap() <= sol.ecost);
//!
//! // Throughput workloads fan out with bit-identical results:
//! let problems = vec![problem.clone(), problem];
//! let results = solve_batch(&problems, &config);
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`pool`] | the shared execution layer: worker pool, deterministic chunked execution, `Exec` contexts |
//! | [`metric`] | `Metric` trait; Euclidean/L₁/L∞/L_p, distance matrices, graph & tree metrics, axiom validators |
//! | [`geometry`] | minimum enclosing balls, Weiszfeld medians, convex piecewise-linear functions, compass search |
//! | [`kcenter`] | Gonzalez, local search, exact discrete, grid (1+ε), exact 1-D — the pluggable certain solvers |
//! | [`uncertain`] | the model, exact `E[max]`, expected costs, representatives, workload generators |
//! | [`core`] | `Problem`/`SolverConfig`/`Solution`, the Theorems 2.1–2.7 pipelines, certified lower bounds |
//! | [`onedim`] | the exact 1-D solver (Table 1 row 8) |
//! | [`baselines`] | mode / all-locations / sampling heuristics and brute-force optima |
//! | [`extensions`] | uncertain k-median / k-means, driven by the same `SolverConfig` |
//! | [`stream`] | memory-bounded streaming: `StreamSummary` / `StreamSolver`, epoch reports, state digests |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ukc_baselines as baselines;
pub use ukc_core as core;
pub use ukc_extensions as extensions;
pub use ukc_geometry as geometry;
pub use ukc_kcenter as kcenter;
pub use ukc_metric as metric;
pub use ukc_onedim as onedim;
pub use ukc_pool as pool;
pub use ukc_stream as stream;
pub use ukc_uncertain as uncertain;

/// One-stop imports for applications.
pub mod prelude {
    pub use ukc_baselines::{
        all_locations_baseline, brute_force_restricted, brute_force_unrestricted, mode_baseline,
        sample_union_baseline, BruteForceLimits,
    };
    pub use ukc_core::{
        assign_ed, assign_ep, assign_oc, expected_point_one_center, lower_bound_euclidean,
        lower_bound_metric, lower_bound_one_center, reference_one_center, solve_batch,
        solve_batch_threads, AssignmentMode, AssignmentRule, CandidatePolicy, CertainStrategy,
        DistanceEvals, Problem, Report, Solution, SolveError, SolverConfig, SolverConfigBuilder,
        StageTimings,
    };
    pub use ukc_extensions::{
        uncertain_kmeans, uncertain_kmeans_configured, uncertain_kmedian, uncertain_kmedian_exact,
        uncertain_kmedian_local_search, StreamingKCenter,
    };
    pub use ukc_kcenter::{
        exact_discrete_kcenter, gonzalez, gonzalez_indices, grid_kcenter, kcenter_cost,
        local_search_kcenter, one_d_kcenter, ExactOptions, GridOptions,
    };
    pub use ukc_metric::{
        Chebyshev, DistCounter, DistanceOracle, Euclidean, FiniteMetric, Manhattan, Metric,
        Minkowski, Point, PointId, PointStore, StoreOracle, TreeMetric, WeightedGraph,
    };
    pub use ukc_onedim::{solve_one_d, OneDimSolution};
    pub use ukc_pool::Exec;
    pub use ukc_stream::{
        EpochReport, StreamReport, StreamSolution, StreamSolver, StreamSolverBuilder, StreamSummary,
    };
    pub use ukc_uncertain::generators::{
        clustered, line_instance, on_finite_metric, ring, two_scale, uniform_box, ProbModel,
    };
    pub use ukc_uncertain::{
        cost_cdf_assigned, cost_quantile_assigned, ecost_assigned, ecost_monte_carlo,
        ecost_unassigned, expected_distance, expected_max, expected_point, expected_spreads,
        max_cdf, max_quantile, mode_location, one_center_discrete, one_center_euclidean,
        try_expected_max, try_max_cdf, try_max_quantile, AtomsError, UncertainPoint, UncertainSet,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_pipeline() {
        let set = clustered(1, 10, 3, 2, 2, 4.0, 1.0, ProbModel::Uniform);
        let sol = Problem::euclidean(set.clone(), 2)
            .unwrap()
            .solve(
                &SolverConfig::builder()
                    .rule(AssignmentRule::ExpectedDistance)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert!(sol.ecost >= lower_bound_euclidean(&set, 2) - 1e-9);
        assert_eq!(sol.report.lower_bound, Some(lower_bound_euclidean(&set, 2)));
    }
}
