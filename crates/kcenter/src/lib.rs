//! # ukc-kcenter — deterministic k-center solvers
//!
//! The paper's uncertain k-center algorithms reduce to *certain* k-center on
//! representative points: "let `c₁..c_k` be a (1+ε)-approximation solution
//! for the k-center problem for `P̄₁..P̄_n`". This crate supplies the
//! interchangeable certain-point solvers:
//!
//! * [`gonzalez()`] — the greedy farthest-point 2-approximation of Gonzalez
//!   \[13\], O(nk); used by the paper's Remark 3.1 to obtain the factor-6 and
//!   factor-4 rows of Table 1 in O(nz + n log k) total time.
//! * [`mod@exact`] — exact *discrete* k-center (centers restricted to a candidate
//!   pool) via binary search over the candidate radii with a
//!   branch-and-bound set-cover decision procedure; the optimum reference
//!   for small instances.
//! * [`mod@local_search`] — single-swap local search refinement over a discrete
//!   candidate pool; a cheap improvement pass between Gonzalez and exact.
//! * [`mod@grid`] — a certified (1+ε)-approximation for low-dimensional
//!   Euclidean inputs: snap candidate centers to a grid of spacing
//!   `ε·r̂/(2√d)` (where `r̂` is the Gonzalez radius) and solve the discrete
//!   problem exactly over the grid candidates.
//! * [`mod@one_d`] — exact 1-D k-center in O(n log n) (binary search over
//!   candidate radii with a linear sweep), the deterministic special case
//!   the paper's row 8 builds on.
//!
//! All solvers are generic over [`ukc_metric::Metric`] except the grid
//! solver, which is inherently Euclidean.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cover;
pub mod exact;
pub mod gonzalez;
pub mod grid;
pub mod local_search;
pub mod one_d;

pub use exact::{exact_discrete_kcenter, ExactOptions};
pub use gonzalez::{
    cover_radius, gonzalez, gonzalez_indices, gonzalez_nearest, KCenterSolution, Traversal,
    TraversalRows,
};
pub use grid::{grid_kcenter, GridOptions};
pub use local_search::local_search_kcenter;
pub use one_d::one_d_kcenter;

use ukc_metric::DistanceOracle;

/// The k-center cost of a center set: `max_i d(pᵢ, C)`, or with
/// `weights` the additively-weighted cost `max_i min_c (d(pᵢ, c) − w_c)`,
/// clamped below at zero (a point inside some center's weighted cell
/// contributes no cost).
///
/// Returns 0 for an empty point set and `+∞` for an empty center set over
/// a non-empty point set.
///
/// Evaluated through the fused
/// [`DistanceOracle::dists_to_centers_min`] sweep (by default one
/// [`DistanceOracle::dists_to_set_min`] pass per center; a store oracle's
/// tiled kernel streams each point past all centers at once); the result
/// is identical to the point-major `max_i min_c` loop (min and max are
/// order-independent over the same pair set), and the evaluation count is
/// `n·k` either way.
///
/// # Panics
/// Panics when `weights` and `centers` differ in length.
pub fn kcenter_cost<P, M: DistanceOracle<P>>(
    points: &[P],
    centers: &[P],
    weights: Option<&[f64]>,
    metric: &M,
) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let mut min_dist = vec![f64::INFINITY; points.len()];
    metric.dists_to_centers_min(points, centers, weights, &mut min_dist);
    min_dist.into_iter().fold(0.0, f64::max)
}

/// Assigns every point to its nearest center, returning center indices.
///
/// Runs through the batched [`DistanceOracle::nearest_each`] sweep, so a
/// pool-backed oracle parallelizes it across points with identical
/// output.
///
/// # Panics
/// Panics when `centers` is empty and `points` is not.
pub fn nearest_assignment<P, M: DistanceOracle<P>>(
    points: &[P],
    centers: &[P],
    metric: &M,
) -> Vec<usize> {
    if points.is_empty() {
        return Vec::new();
    }
    assert!(
        !centers.is_empty(),
        "nearest_assignment requires at least one center"
    );
    let mut nearest = vec![(0usize, 0.0f64); points.len()];
    metric.nearest_each(points, centers, None, &mut nearest);
    nearest.into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_metric::{Euclidean, Point};

    #[test]
    fn cost_of_empty_inputs() {
        let m = Euclidean;
        let pts = vec![Point::scalar(1.0)];
        assert_eq!(kcenter_cost::<Point, _>(&[], &pts, None, &m), 0.0);
        assert_eq!(kcenter_cost(&pts, &[], None, &m), f64::INFINITY);
    }

    #[test]
    fn cost_is_max_min_distance() {
        let m = Euclidean;
        let pts = vec![Point::scalar(0.0), Point::scalar(10.0), Point::scalar(4.0)];
        let centers = vec![Point::scalar(1.0), Point::scalar(9.0)];
        assert!((kcenter_cost(&pts, &centers, None, &m) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_assignment_basic() {
        let m = Euclidean;
        let pts = vec![Point::scalar(0.0), Point::scalar(10.0), Point::scalar(4.0)];
        let centers = vec![Point::scalar(1.0), Point::scalar(9.0)];
        assert_eq!(nearest_assignment(&pts, &centers, &m), vec![0, 1, 0]);
    }
}
