//! Gonzalez's greedy farthest-point 2-approximation.
//!
//! Repeatedly pick the point farthest from the current center set
//! (Gonzalez \[13\]; paper Remark 3.1). The result is a 2-approximation of
//! the optimal k-center cost over *any* metric space, which is what turns
//! the paper's (1+ε)-parameterized theorems into the concrete factor-6 and
//! factor-4 table rows.

use ukc_metric::{DistanceOracle, Tracked};

/// A k-center solution over an explicit point slice.
#[derive(Clone, Debug, PartialEq)]
pub struct KCenterSolution<P> {
    /// The chosen centers (owned copies of input points or synthesized
    /// locations, depending on the solver).
    pub centers: Vec<P>,
    /// Indices of the chosen centers in the solver's candidate pool, when
    /// the solver picks from a pool (Gonzalez picks input points).
    pub center_indices: Vec<usize>,
    /// The k-center cost `max_i d(pᵢ, centers)` of this solution.
    pub radius: f64,
}

/// Runs Gonzalez's greedy algorithm, returning the chosen center *indices*
/// into `points` (the first center is `start`).
///
/// With `weights`, this is the additively-weighted (Apollonius) greedy:
/// `weights[i]` is the additive weight point `i` carries *when chosen as
/// a center*, and the maintained coverage array holds weighted distances
/// `min_c d(pᵢ, c) − w_c`. Each round picks the point with the largest
/// (weighted) distance — the point least covered once every center's
/// weight is credited — and the greedy stops early once that distance
/// has reached zero: fewer than k distinct points, or every point inside
/// some center's weighted cell. All-zero weights pick exactly the plain
/// centers, which the weighted-equivalence suite pins.
///
/// O(nk) distance evaluations. Returns all indices when `k >= n`.
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, `start` is out of range, or
/// `weights` and `points` differ in length.
pub fn gonzalez_indices<P, M: DistanceOracle<P>>(
    points: &[P],
    weights: Option<&[f64]>,
    k: usize,
    metric: &M,
    start: usize,
) -> Vec<usize> {
    assert!(!points.is_empty(), "gonzalez requires at least one point");
    assert!(k > 0, "gonzalez requires k >= 1");
    assert!(start < points.len(), "start index out of range");
    if let Some(w) = weights {
        assert_eq!(points.len(), w.len(), "one weight per point required");
    }
    let weight = |i: usize| weights.map(|w| w[i]);
    let n = points.len();
    let k = k.min(n);
    let mut centers = Vec::with_capacity(k);
    centers.push(start);
    // dist[i] = d(points[i], current centers), maintained by the batched
    // min-update kernel (one pass per new center). The first pass starts
    // from +∞, which fills in each distance bit for bit.
    let mut dist = vec![f64::INFINITY; n];
    metric.dists_to_set_min(points, &points[start], weight(start), &mut dist);
    while centers.len() < k {
        // Farthest point from the current centers.
        let (far, far_d) = dist
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("non-empty");
        if far_d <= 0.0 {
            // Every point is already covered.
            break;
        }
        centers.push(far);
        metric.dists_to_set_min(points, &points[far], weight(far), &mut dist);
    }
    centers
}

/// Gonzalez's greedy on tracked passes
/// ([`DistanceOracle::greedy_pass`]): the chosen center indices into
/// `points` — the same picks as [`gonzalez_indices`], since every row's
/// running minimum tightens exactly as there — and every point's
/// nearest chosen center `(index into the centers, distance)`, bit for
/// bit what a separate [`DistanceOracle::nearest_each`] sweep over the
/// centers would give.
///
/// At most `n·|C|` point–center evaluations, where the greedy, its
/// radius and the nearest-center assignment used to take three such
/// sweeps. The default passes evaluate all of them; a store oracle's
/// passes skip the rows the triangle inequality rules out, at the cost
/// of `|C|(|C|−1)/2` center–center evaluations.
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, or `start` is out of range.
pub fn gonzalez_nearest<P, M: DistanceOracle<P>>(
    points: &[P],
    k: usize,
    metric: &M,
    start: usize,
) -> (Vec<usize>, Vec<(usize, f64)>) {
    assert!(!points.is_empty(), "gonzalez requires at least one point");
    assert!(k > 0, "gonzalez requires k >= 1");
    assert!(start < points.len(), "start index out of range");
    let n = points.len();
    let k = k.min(n);
    let mut centers = Vec::with_capacity(k);
    centers.push(start);
    let mut rows = vec![Tracked::START; n];
    let mut far = metric.greedy_pass(points, &centers, &mut rows);
    // A farthest distance of 0 means fewer than k distinct points: every
    // point is already a center.
    while centers.len() < k && far.1 != 0.0 {
        centers.push(far.0);
        far = metric.greedy_pass(points, &centers, &mut rows);
    }
    let nearest = rows.iter().map(|r| (r.nearest, r.min)).collect();
    (centers, nearest)
}

/// The covering radius `max_i d(pᵢ, C)` read off per-point nearest
/// centers, folded exactly as [`kcenter_cost`](crate::kcenter_cost) folds its sweep.
pub fn cover_radius(nearest: &[(usize, f64)]) -> f64 {
    nearest.iter().map(|&(_, d)| d).fold(0.0, f64::max)
}

/// Runs Gonzalez's greedy algorithm and materializes the full
/// [`KCenterSolution`] (centers, their indices, and the resulting radius).
///
/// The radius comes out of the greedy's own tracked passes
/// ([`gonzalez_nearest`]), bit for bit what a [`kcenter_cost`](crate::kcenter_cost) sweep
/// gives.
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, or `start` is out of range.
pub fn gonzalez<P: Clone, M: DistanceOracle<P>>(
    points: &[P],
    k: usize,
    metric: &M,
    start: usize,
) -> KCenterSolution<P> {
    let (idx, nearest) = gonzalez_nearest(points, k, metric, start);
    let centers: Vec<P> = idx.iter().map(|&i| points[i].clone()).collect();
    KCenterSolution {
        centers,
        center_indices: idx,
        radius: cover_radius(&nearest),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_metric::{Euclidean, FiniteMetric, Manhattan, Point};

    fn line(n: usize) -> Vec<Point> {
        (0..n).map(|i| Point::scalar(i as f64)).collect()
    }

    #[test]
    fn one_center_picks_start() {
        let pts = line(5);
        let sol = gonzalez(&pts, 1, &Euclidean, 0);
        assert_eq!(sol.center_indices, vec![0]);
        assert_eq!(sol.radius, 4.0);
    }

    #[test]
    fn two_centers_on_line() {
        let pts = line(11); // 0..10
        let sol = gonzalez(&pts, 2, &Euclidean, 0);
        // Second center is the farthest point from 0, i.e. 10.
        assert_eq!(sol.center_indices, vec![0, 10]);
        assert_eq!(sol.radius, 5.0);
    }

    #[test]
    fn k_at_least_n_gives_zero_radius() {
        let pts = line(4);
        let sol = gonzalez(&pts, 10, &Euclidean, 2);
        assert_eq!(sol.centers.len(), 4);
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn duplicate_points_terminate_early() {
        let pts = vec![Point::scalar(1.0), Point::scalar(1.0), Point::scalar(1.0)];
        let sol = gonzalez(&pts, 3, &Euclidean, 0);
        assert_eq!(sol.centers.len(), 1);
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn two_approximation_on_random_clusters() {
        // Three tight clusters far apart: Gonzalez with k=3 must find one
        // center per cluster, and its radius is at most 2x the optimum.
        let mut pts = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (100.0, 0.0), (50.0, 80.0)] {
            for i in 0..10 {
                let t = i as f64 * 0.1;
                pts.push(Point::new(vec![cx + t, cy - t]));
            }
        }
        let sol = gonzalez(&pts, 3, &Euclidean, 0);
        // Optimal radius is at most the cluster in-radius (~0.64); Gonzalez
        // must stay within one cluster diameter.
        assert!(sol.radius <= 1.3, "radius {}", sol.radius);
        // Centers in distinct clusters.
        let cluster_of = |p: &Point| -> usize {
            [(0.0, 0.0), (100.0, 0.0), (50.0, 80.0)]
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let da = (p[0] - a.0).powi(2) + (p[1] - a.1).powi(2);
                    let db = (p[0] - b.0).powi(2) + (p[1] - b.1).powi(2);
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap()
                .0
        };
        let mut seen = [false; 3];
        for c in &sol.centers {
            seen[cluster_of(c)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn works_on_finite_metric() {
        // Cycle metric on 6 ids; k=2 should land on opposite sides.
        let g = ukc_metric::WeightedGraph::cycle(6, 1.0);
        let fm: FiniteMetric = g.shortest_path_metric().unwrap();
        let ids = fm.ids();
        let sol = gonzalez(&ids, 2, &fm, 0);
        assert_eq!(sol.center_indices.len(), 2);
        assert!(sol.radius <= 2.0);
    }

    #[test]
    fn works_on_manhattan() {
        let pts = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 1.0]),
            Point::new(vec![10.0, 10.0]),
        ];
        let sol = gonzalez(&pts, 2, &Manhattan, 0);
        assert_eq!(sol.center_indices, vec![0, 2]);
        assert_eq!(sol.radius, 2.0);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        let pts = line(3);
        let _ = gonzalez(&pts, 0, &Euclidean, 0);
    }

    #[test]
    fn weighted_gonzalez_with_zero_weights_matches_plain() {
        let pts = line(17);
        let zeros = vec![0.0; pts.len()];
        for (k, start) in [(1, 0), (3, 5), (5, 16)] {
            assert_eq!(
                gonzalez_indices(&pts, Some(&zeros), k, &Euclidean, start),
                gonzalez_indices(&pts, None, k, &Euclidean, start),
            );
        }
    }

    #[test]
    fn weighted_gonzalez_stops_once_weights_cover_everything() {
        // Every point is within weight 100 of the start center, so the
        // weighted farthest distance is negative after one pick.
        let pts = line(9);
        let weights = vec![100.0; pts.len()];
        let idx = gonzalez_indices(&pts, Some(&weights), 5, &Euclidean, 0);
        assert_eq!(idx, vec![0]);
    }

    #[test]
    fn weighted_gonzalez_prefers_weight_uncovered_points() {
        // Points 0..4 tight, point 4 remote; a big weight on index 0
        // covers the tight group, so the second pick must be the remote
        // point regardless of raw distance ordering.
        let pts = vec![
            Point::scalar(0.0),
            Point::scalar(0.1),
            Point::scalar(0.2),
            Point::scalar(0.3),
            Point::scalar(50.0),
        ];
        let weights = vec![1.0, 0.0, 0.0, 0.0, 0.0];
        let idx = gonzalez_indices(&pts, Some(&weights), 2, &Euclidean, 0);
        assert_eq!(idx, vec![0, 4]);
    }

    #[test]
    fn start_choice_changes_centers_not_quality_much() {
        let pts = line(21);
        let a = gonzalez(&pts, 3, &Euclidean, 0);
        let b = gonzalez(&pts, 3, &Euclidean, 10);
        // Both are 2-approximations of opt (= 10/3 for 3 centers on 0..20).
        let opt = 20.0 / 6.0;
        assert!(a.radius <= 2.0 * opt + 1e-9);
        assert!(b.radius <= 2.0 * opt + 1e-9);
    }
}
