//! The legacy free-function solver API, kept as thin deprecated wrappers.
//!
//! [`solve_euclidean`] and [`solve_metric`] predate the
//! [`Problem`](crate::Problem) / [`SolverConfig`] /
//! [`Solution`](crate::Solution) API and survive only for source
//! compatibility. They delegate to the exact same internal pipelines the
//! new API runs, so their outputs are bit-identical to
//! [`Problem::solve`](crate::Problem::solve) under the corresponding
//! config (proven by the `golden_equivalence` test suite).
//!
//! Migration:
//!
//! | legacy | new |
//! |---|---|
//! | `solve_euclidean(&set, k, rule, solver)` | `Problem::euclidean(set, k)?.solve(&cfg)?` |
//! | `solve_metric(&set, k, rule, solver, &pool, &m)` | `Problem::in_metric(set, k, m, pool)?.solve(&cfg)?` |
//! | `CertainSolver::Grid(opts)` | `.strategy(CertainStrategy::Grid).grid_limits(opts)` |
//! | panics on `k == 0` | `Err(SolveError::ZeroK)` |
//!
//! The (solver, rule) combination determines the proven factor:
//!
//! | space | solver (certain factor `1+ε`) | rule | proven factor | table row |
//! |---|---|---|---|---|
//! | Euclidean | Gonzalez (2) | ED | 6 | 2 |
//! | Euclidean | Grid (1+ε) | ED | 5+ε | 3 |
//! | Euclidean | Gonzalez (2) | EP | 4 | 4, 6 |
//! | Euclidean | Grid (1+ε) | EP | 3+ε | 5, 7 |
//! | any metric | Gonzalez (2) | ED | 7+2·1 = 9 → with (1+ε): 7+2ε | (2.6) |
//! | any metric | Gonzalez (2) | OC | 5+2·1 = 7 → with (1+ε): 5+2ε | 9 (2.7) |

use crate::assignments::{AssignmentRule, MetricAssignmentRule};
use crate::config::{CertainStrategy, SolverConfig};
use crate::problem::{solve_continuous, solve_discrete, EuclideanSpace};
use ukc_kcenter::{ExactOptions, GridOptions};
use ukc_metric::{Metric, Point};
use ukc_uncertain::UncertainSet;

/// Deterministic k-center strategies for Euclidean representative points
/// (legacy twin of [`CertainStrategy`]).
#[derive(Clone, Copy, Debug)]
pub enum CertainSolver {
    /// Gonzalez greedy: factor 2, O(nk) — the paper's Remark 3.1 choice.
    Gonzalez,
    /// Gonzalez followed by best-improvement single swaps over the
    /// representative pool (factor still 2, usually much better).
    GonzalezLocalSearch {
        /// Maximum swap rounds.
        rounds: usize,
    },
    /// Certified (1+ε) grid solver (low dimension); falls back to Gonzalez
    /// when the grid exceeds its candidate caps.
    Grid(GridOptions),
    /// Exact discrete k-center over the representative pool itself
    /// (a (1+ε)=2-level guarantee w.r.t. the continuous optimum, exact
    /// w.r.t. the discrete one); falls back to Gonzalez beyond its limits.
    ExactDiscrete(ExactOptions),
}

/// Deterministic k-center strategies over a discrete candidate pool in a
/// general metric space (legacy twin of [`CertainStrategy`]).
#[derive(Clone, Copy, Debug)]
pub enum MetricCertainSolver {
    /// Gonzalez greedy over the representatives.
    Gonzalez,
    /// Gonzalez + single-swap local search over the candidate pool.
    GonzalezLocalSearch {
        /// Maximum swap rounds.
        rounds: usize,
    },
    /// Exact discrete k-center with centers drawn from the candidate pool;
    /// falls back to Gonzalez beyond its limits.
    ExactDiscrete(ExactOptions),
}

/// The output of [`solve_euclidean`].
#[derive(Clone, Debug)]
pub struct EuclideanSolution {
    /// The k chosen centers.
    pub centers: Vec<Point>,
    /// `assignment[i]` = index into `centers` serving point `i`.
    pub assignment: Vec<usize>,
    /// Exact expected cost `EcostA` of (centers, assignment).
    pub ecost: f64,
    /// The representative points the certain solver ran on (`P̄` for
    /// ED/EP rules, `P̃` for the OC rule).
    pub representatives: Vec<Point>,
    /// The certain k-center radius achieved on the representatives.
    pub certain_radius: f64,
}

/// The output of [`solve_metric`].
#[derive(Clone, Debug)]
pub struct MetricSolution<P> {
    /// The k chosen centers (drawn from the candidate pool).
    pub centers: Vec<P>,
    /// `assignment[i]` = index into `centers` serving point `i`.
    pub assignment: Vec<usize>,
    /// Exact expected cost `EcostA` of (centers, assignment).
    pub ecost: f64,
    /// The 1-center representatives `P̃ᵢ` (drawn from the candidate pool).
    pub representatives: Vec<P>,
    /// The certain k-center radius achieved on the representatives.
    pub certain_radius: f64,
}

fn legacy_config(
    rule: AssignmentRule,
    strategy: CertainStrategy,
    grid: Option<GridOptions>,
    exact: Option<ExactOptions>,
) -> SolverConfig {
    let mut builder = SolverConfig::builder()
        .rule(rule)
        .strategy(strategy)
        .lower_bound(false);
    if let Some(opts) = grid {
        builder = builder.grid_limits(opts);
    }
    if let Some(opts) = exact {
        builder = builder.exact_limits(opts);
    }
    // The legacy API forwarded caller options unvalidated; keep that
    // contract (an absurd ε just makes the grid solver fall back).
    builder.build_unchecked()
}

/// Runs the paper's Euclidean pipeline (Theorems 2.2 / 2.4 / 2.5 and
/// Remark 3.1).
///
/// Representatives are the expected points `P̄ᵢ` for the `ED`/`EP` rules
/// and the Weiszfeld 1-centers `P̃ᵢ` for the `OC` rule. The returned
/// expected cost is exact.
///
/// # Panics
/// Panics when `k == 0`. The replacement API returns
/// [`SolveError::ZeroK`](crate::SolveError::ZeroK) instead.
#[deprecated(
    since = "0.2.0",
    note = "use Problem::euclidean(set, k)?.solve(&SolverConfig) instead"
)]
pub fn solve_euclidean(
    set: &UncertainSet<Point>,
    k: usize,
    rule: AssignmentRule,
    solver: CertainSolver,
) -> EuclideanSolution {
    assert!(k > 0, "k must be at least 1");
    let (strategy, grid, exact) = match solver {
        CertainSolver::Gonzalez => (CertainStrategy::Gonzalez, None, None),
        CertainSolver::GonzalezLocalSearch { rounds } => {
            (CertainStrategy::GonzalezLocalSearch { rounds }, None, None)
        }
        CertainSolver::Grid(opts) => (CertainStrategy::Grid, Some(opts), None),
        CertainSolver::ExactDiscrete(opts) => (CertainStrategy::ExactDiscrete, None, Some(opts)),
    };
    let config = legacy_config(rule, strategy, grid, exact);
    let sol = solve_continuous(
        &std::sync::Arc::new(set.clone()),
        k,
        &EuclideanSpace,
        &config,
    )
    .expect("the legacy Euclidean pipeline accepts every rule and strategy");
    EuclideanSolution {
        centers: sol.centers,
        assignment: sol.assignment,
        ecost: sol.ecost,
        representatives: sol.representatives,
        certain_radius: sol.certain_radius,
    }
}

/// Runs the paper's general-metric pipeline (Theorems 2.6 / 2.7).
///
/// `candidates` is the pool centers and representatives are drawn from —
/// typically the set's full location pool (see
/// `UncertainSet::location_pool`) or, when the metric space itself is
/// finite, all of its points. Representatives are the discrete 1-centers
/// `P̃ᵢ = argmin_{c∈candidates} E d(Pᵢ, c)`.
///
/// ```
/// # #![allow(deprecated)]
/// use ukc_core::{solve_metric, MetricAssignmentRule, MetricCertainSolver};
/// use ukc_metric::WeightedGraph;
/// use ukc_uncertain::generators::{on_finite_metric, ProbModel};
///
/// let road = WeightedGraph::grid(4, 4, 1.0).shortest_path_metric().unwrap();
/// let set = on_finite_metric(1, road.len(), 10, 3, ProbModel::Random);
/// let ids = road.ids();
/// let sol = solve_metric(
///     &set, 2,
///     MetricAssignmentRule::OneCenter,       // Theorem 2.7: factor 5+2ε
///     MetricCertainSolver::Gonzalez,
///     &ids, &road,
/// );
/// assert_eq!(sol.centers.len(), 2);
/// assert!(sol.ecost.is_finite());
/// ```
///
/// # Panics
/// Panics when `k == 0` or `candidates` is empty. The replacement API
/// returns typed [`SolveError`](crate::SolveError)s instead.
#[deprecated(
    since = "0.2.0",
    note = "use Problem::in_metric(set, k, metric, pool)?.solve(&SolverConfig) instead"
)]
pub fn solve_metric<P: Clone, M: Metric<P>>(
    set: &UncertainSet<P>,
    k: usize,
    rule: MetricAssignmentRule,
    solver: MetricCertainSolver,
    candidates: &[P],
    metric: &M,
) -> MetricSolution<P> {
    assert!(k > 0, "k must be at least 1");
    assert!(!candidates.is_empty(), "need a candidate pool");
    let rule = match rule {
        MetricAssignmentRule::ExpectedDistance => AssignmentRule::ExpectedDistance,
        MetricAssignmentRule::OneCenter => AssignmentRule::OneCenter,
    };
    let (strategy, exact) = match solver {
        MetricCertainSolver::Gonzalez => (CertainStrategy::Gonzalez, None),
        MetricCertainSolver::GonzalezLocalSearch { rounds } => {
            (CertainStrategy::GonzalezLocalSearch { rounds }, None)
        }
        MetricCertainSolver::ExactDiscrete(opts) => (CertainStrategy::ExactDiscrete, Some(opts)),
    };
    let config = legacy_config(rule, strategy, None, exact);
    let sol = solve_discrete(set, k, metric as &dyn Metric<P>, candidates, &config)
        .expect("the legacy metric pipeline accepts every rule and strategy");
    MetricSolution {
        centers: sol.centers,
        assignment: sol.assignment,
        ecost: sol.ecost,
        representatives: sol.representatives,
        certain_radius: sol.certain_radius,
    }
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use ukc_metric::FiniteMetric;
    use ukc_uncertain::generators::{clustered, on_finite_metric, ProbModel};
    use ukc_uncertain::UncertainPoint;

    #[test]
    fn euclidean_pipeline_produces_k_centers() {
        let set = clustered(1, 20, 3, 2, 3, 4.0, 0.5, ProbModel::Random);
        for rule in [
            AssignmentRule::ExpectedDistance,
            AssignmentRule::ExpectedPoint,
            AssignmentRule::OneCenter,
        ] {
            let sol = solve_euclidean(&set, 3, rule, CertainSolver::Gonzalez);
            assert_eq!(sol.centers.len(), 3);
            assert_eq!(sol.assignment.len(), 20);
            assert!(sol.ecost.is_finite() && sol.ecost >= 0.0);
            assert_eq!(sol.representatives.len(), 20);
        }
    }

    #[test]
    fn better_certain_solver_never_hurts_certain_radius() {
        let set = clustered(2, 15, 3, 2, 3, 4.0, 0.5, ProbModel::Uniform);
        let gz = solve_euclidean(
            &set,
            3,
            AssignmentRule::ExpectedPoint,
            CertainSolver::Gonzalez,
        );
        let ls = solve_euclidean(
            &set,
            3,
            AssignmentRule::ExpectedPoint,
            CertainSolver::GonzalezLocalSearch { rounds: 50 },
        );
        let ex = solve_euclidean(
            &set,
            3,
            AssignmentRule::ExpectedPoint,
            CertainSolver::ExactDiscrete(ExactOptions::default()),
        );
        assert!(ls.certain_radius <= gz.certain_radius + 1e-12);
        assert!(ex.certain_radius <= ls.certain_radius + 1e-12);
    }

    #[test]
    fn separated_clusters_get_separated_centers() {
        // Two clusters 100 apart; any sensible pipeline separates them and
        // the expected cost is on the cluster scale, not the gap scale.
        let mk = |base: f64, seed: u64| {
            let mut pts = Vec::new();
            let mut s = seed | 1;
            let mut rnd = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64
            };
            for _ in 0..5 {
                let nominal = base + rnd() * 2.0;
                pts.push(
                    UncertainPoint::new(
                        vec![Point::scalar(nominal - 0.5), Point::scalar(nominal + 0.5)],
                        vec![0.5, 0.5],
                    )
                    .unwrap(),
                );
            }
            pts
        };
        let mut pts = mk(0.0, 3);
        pts.extend(mk(100.0, 4));
        let set = UncertainSet::new(pts);
        let sol = solve_euclidean(
            &set,
            2,
            AssignmentRule::ExpectedDistance,
            CertainSolver::Gonzalez,
        );
        assert!(
            sol.ecost < 10.0,
            "ecost {} should be cluster-scale",
            sol.ecost
        );
        // Points 0..5 share a center; points 5..10 share the other.
        assert!(sol.assignment[..5].iter().all(|&a| a == sol.assignment[0]));
        assert!(sol.assignment[5..].iter().all(|&a| a == sol.assignment[5]));
        assert_ne!(sol.assignment[0], sol.assignment[5]);
    }

    #[test]
    fn metric_pipeline_on_graph() {
        let g = ukc_metric::WeightedGraph::grid(4, 5, 1.0);
        let fm: FiniteMetric = g.shortest_path_metric().unwrap();
        let set = on_finite_metric(7, fm.len(), 8, 3, ProbModel::Random);
        let pool = set.location_pool();
        for rule in [
            MetricAssignmentRule::ExpectedDistance,
            MetricAssignmentRule::OneCenter,
        ] {
            let sol = solve_metric(&set, 2, rule, MetricCertainSolver::Gonzalez, &pool, &fm);
            assert_eq!(sol.centers.len(), 2);
            assert!(sol.ecost.is_finite() && sol.ecost >= 0.0);
            // Centers drawn from the pool.
            for c in &sol.centers {
                assert!(pool.contains(c));
            }
        }
    }

    #[test]
    fn metric_exact_solver_beats_greedy_certain_radius() {
        let g = ukc_metric::WeightedGraph::cycle(12, 1.0);
        let fm = g.shortest_path_metric().unwrap();
        let set = on_finite_metric(5, fm.len(), 6, 2, ProbModel::Uniform);
        let pool = set.location_pool();
        let gz = solve_metric(
            &set,
            2,
            MetricAssignmentRule::OneCenter,
            MetricCertainSolver::Gonzalez,
            &pool,
            &fm,
        );
        let ex = solve_metric(
            &set,
            2,
            MetricAssignmentRule::OneCenter,
            MetricCertainSolver::ExactDiscrete(ExactOptions::default()),
            &pool,
            &fm,
        );
        assert!(ex.certain_radius <= gz.certain_radius + 1e-12);
    }

    #[test]
    fn certain_points_collapse_to_deterministic_kcenter() {
        // With certain points the pipeline must equal deterministic
        // k-center: representatives are the points themselves.
        let pts: Vec<UncertainPoint<Point>> = [0.0, 1.0, 10.0, 11.0]
            .iter()
            .map(|&x| UncertainPoint::certain(Point::scalar(x)))
            .collect();
        let set = UncertainSet::new(pts);
        let sol = solve_euclidean(
            &set,
            2,
            AssignmentRule::ExpectedPoint,
            CertainSolver::ExactDiscrete(ExactOptions::default()),
        );
        // Optimal deterministic assignment splits {0,1} and {10,11} with
        // max distance 1 from a chosen location; expected cost equals the
        // deterministic cost.
        assert!(sol.ecost <= 1.0 + 1e-9, "ecost {}", sol.ecost);
    }

    #[test]
    fn k_one_all_assigned_to_single_center() {
        let set = clustered(5, 8, 2, 2, 2, 3.0, 0.5, ProbModel::Random);
        let sol = solve_euclidean(
            &set,
            1,
            AssignmentRule::ExpectedDistance,
            CertainSolver::Gonzalez,
        );
        assert_eq!(sol.centers.len(), 1);
        assert!(sol.assignment.iter().all(|&a| a == 0));
    }
}
