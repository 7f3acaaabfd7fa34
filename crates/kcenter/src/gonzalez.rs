//! Gonzalez's greedy farthest-point 2-approximation.
//!
//! Repeatedly pick the point farthest from the current center set
//! (Gonzalez \[13\]; paper Remark 3.1). The result is a 2-approximation of
//! the optimal k-center cost over *any* metric space, which is what turns
//! the paper's (1+ε)-parameterized theorems into the concrete factor-6 and
//! factor-4 table rows.

use ukc_metric::{DistanceOracle, PassBuffers, Tracked};

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

/// Gonzalez's farthest-first traversal of a point slice: the greedy's
/// picks in order from `start`, each pass's covering radius and pair
/// counts, and the farthest row after the last pass — the next pick.
/// The picks do not depend on `k`: the greedy's centers for `k` are the
/// first `k` picks of any longer traversal (Gonzalez, TCS 1985; Dasgupta
/// & Long, JCSS 2005, read every `k`'s 2-approximation off one
/// traversal). So a traversal extended once to the largest `k` asked for
/// answers every smaller `k` with no distance evaluation
/// ([`Traversal::picks`], [`Traversal::radius`], [`Traversal::pairs`]).
///
/// The passes run on a [`TraversalRows`] walker, which holds every
/// row's nearest pick and distance ([`DistanceOracle::greedy_pass`]).
/// A *logged* traversal ([`Traversal::logged`]) also records each
/// pass's row updates — the row and its new distance; the nearest pick
/// is the pass's own index — so [`Traversal::replay`] rebuilds the rows
/// after any prefix of its passes in `O(n + updates)`, bit for bit what
/// those passes left. [`gonzalez_nearest`] and [`gonzalez`] are reads
/// of an unlogged traversal, extended once.
#[derive(Clone, Debug)]
pub struct Traversal {
    n: usize,
    order: Vec<usize>,
    /// The covering radius of `order[..=j]`: the farthest row's distance
    /// after pass `j`.
    radii: Vec<f64>,
    /// The pairs passes `0..=j` evaluated and skipped, summed.
    pairs: Vec<(u64, u64)>,
    /// The next pick: `start` before the first pass, then the farthest
    /// row after the last one, ties toward the larger index.
    next: usize,
    log: Option<UpdateLog>,
}

/// Each pass's row updates, pass after pass: the `j`-th range of `rows`
/// and `mins` holds the rows pass `j` updated and their new distances;
/// their nearest pick is `j`.
#[derive(Clone, Debug, Default)]
struct UpdateLog {
    /// The end of each pass's range.
    ends: Vec<usize>,
    rows: Vec<u32>,
    mins: Vec<f64>,
}

/// Every row's nearest pick (as a pass index) and its distance after
/// some number of a traversal's passes, with the buffers the passes
/// reuse ([`PassBuffers`]).
#[derive(Clone, Debug)]
pub struct TraversalRows {
    rows: Vec<Tracked>,
    passes: usize,
    buffers: PassBuffers,
}

impl TraversalRows {
    /// `n` rows no pass has touched.
    pub fn new(n: usize) -> Self {
        Self {
            rows: vec![Tracked::START; n],
            passes: 0,
            buffers: PassBuffers::default(),
        }
    }

    /// Every row's nearest pick, as an index into the picks, and its
    /// distance: what [`DistanceOracle::nearest_each`] over those picks
    /// gives each row.
    pub fn nearest(&self) -> Vec<(usize, f64)> {
        self.rows.iter().map(|r| (r.nearest, r.min)).collect()
    }

    /// The heap bytes the rows and their pass buffers hold.
    pub fn bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Tracked>() + self.buffers.bytes()
    }
}

impl Traversal {
    /// A traversal of `n` points from `start` that has run no pass yet
    /// and records none of its updates.
    ///
    /// # Panics
    /// Panics if `start >= n`.
    pub fn new(n: usize, start: usize) -> Self {
        assert!(start < n, "start index out of range");
        Self {
            n,
            order: Vec::new(),
            radii: Vec::new(),
            pairs: Vec::new(),
            next: start,
            log: None,
        }
    }

    /// [`Traversal::new`] that records each pass's row updates, so any
    /// prefix of its passes can be replayed.
    ///
    /// # Panics
    /// Panics if `start >= n`, or `n` exceeds `u32::MAX`.
    pub fn logged(n: usize, start: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "a logged traversal indexes rows by u32"
        );
        Self {
            log: Some(UpdateLog::default()),
            ..Self::new(n, start)
        }
    }

    /// This traversal's picks and radii without its log: what a reader
    /// that only needs picks and radii keeps.
    pub fn unlogged(&self) -> Self {
        Self {
            log: None,
            order: self.order.clone(),
            radii: self.radii.clone(),
            pairs: self.pairs.clone(),
            ..*self
        }
    }

    /// The passes run, one per pick.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no pass has run yet.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Whether the traversal can pick no further: every row lies on a
    /// pick (its farthest row is at distance 0), so fewer than `k`
    /// distinct points answer every larger `k`.
    pub fn is_complete(&self) -> bool {
        self.radii.last() == Some(&0.0)
    }

    /// Whether the traversal answers `k`: it has run `k` passes, or can
    /// run no more.
    pub fn covers(&self, k: usize) -> bool {
        k <= self.len() || self.is_complete()
    }

    /// The first `k` picks (all of them when the traversal stopped
    /// early), as indices into the points.
    pub fn picks(&self, k: usize) -> &[usize] {
        &self.order[..k.min(self.len())]
    }

    /// The covering radius `max_i d(pᵢ, C)` of the first `k` picks
    /// ([`Traversal::picks`]): the farthest row's distance after their
    /// last pass, the value [`cover_radius`] folds from their rows.
    ///
    /// # Panics
    /// Panics if `k == 0` or the traversal is empty.
    pub fn radius(&self, k: usize) -> f64 {
        assert!(k > 0, "a radius needs a pick");
        self.radii[k.min(self.len()) - 1]
    }

    /// The pairs the first `k` passes (all of them when fewer have run)
    /// evaluated and skipped: what they added to a counting oracle's
    /// evaluations and pruned pairs ([`PassBuffers::pairs`]), which a
    /// fresh run of those passes adds again.
    pub fn pairs(&self, k: usize) -> (u64, u64) {
        match k.min(self.len()) {
            0 => (0, 0),
            passes => self.pairs[passes - 1],
        }
    }

    /// Runs passes until the traversal covers `k` ([`Traversal::covers`]):
    /// each pass is `metric`'s [`DistanceOracle::greedy_pass`] over
    /// `points` for the next pick, on `rows`, which must hold this
    /// traversal's rows after all of its passes. A logged traversal
    /// records the rows each pass updated, which the pass itself lists.
    ///
    /// # Panics
    /// Panics if `points` or `rows` does not hold one row per point, or
    /// `rows` has not seen exactly this traversal's passes.
    pub fn extend<P, M: DistanceOracle<P>>(
        &mut self,
        rows: &mut TraversalRows,
        points: &[P],
        k: usize,
        metric: &M,
    ) {
        assert_eq!(points.len(), self.n, "one point per traversal row");
        assert_eq!(rows.rows.len(), self.n, "one tracked row per point");
        assert_eq!(
            rows.passes,
            self.len(),
            "rows must be at the traversal's end"
        );
        while !self.covers(k) {
            self.order.push(self.next);
            let (far, d) =
                metric.greedy_pass(points, &self.order, &mut rows.rows, &mut rows.buffers);
            rows.passes += 1;
            self.next = far;
            self.radii.push(d);
            let (evaluated, pruned) = rows.buffers.pairs();
            let (e, p) = self.pairs.last().copied().unwrap_or_default();
            self.pairs.push((e + evaluated as u64, p + pruned as u64));
            if let Some(log) = &mut self.log {
                for &i in rows.buffers.updated() {
                    // `logged` bounds every row index by `u32::MAX`.
                    log.rows.push(i as u32);
                    log.mins.push(rows.rows[i].min);
                }
                log.ends.push(log.rows.len());
            }
        }
    }

    /// The rows after the first `k` passes (all of them when fewer have
    /// run), rebuilt from the log: each row takes its last update among
    /// those passes, in `O(n + updates)`, bit for bit the rows those
    /// passes left.
    ///
    /// # Panics
    /// Panics if the traversal is not logged.
    pub fn replay(&self, k: usize) -> TraversalRows {
        let log = self.log.as_ref().expect("replay needs a logged traversal");
        let passes = k.min(self.len());
        let mut rows = TraversalRows::new(self.n);
        let mut from = 0;
        for (j, &end) in log.ends[..passes].iter().enumerate() {
            for (&i, &min) in log.rows[from..end].iter().zip(&log.mins[from..end]) {
                rows.rows[i as usize] = Tracked { min, nearest: j };
            }
            from = end;
        }
        rows.passes = passes;
        rows
    }

    /// The first `k` picks as a [`KCenterSolution`] over `points`.
    ///
    /// # Panics
    /// Panics if `k == 0` or the traversal is empty.
    pub fn solution<P: Clone>(&self, points: &[P], k: usize) -> KCenterSolution<P> {
        let picks = self.picks(k);
        KCenterSolution {
            centers: picks.iter().map(|&i| points[i].clone()).collect(),
            center_indices: picks.to_vec(),
            radius: self.radius(k),
        }
    }

    /// The heap bytes the traversal holds: picks, radii and the log.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        let log = self.log.as_ref().map_or(0, |log| {
            log.ends.capacity() * size_of::<usize>()
                + log.rows.capacity() * size_of::<u32>()
                + log.mins.capacity() * size_of::<f64>()
        });
        self.order.capacity() * size_of::<usize>()
            + self.radii.capacity() * size_of::<f64>()
            + self.pairs.capacity() * size_of::<(u64, u64)>()
            + log
    }
}

/// Gonzalez's greedy on tracked passes
/// ([`DistanceOracle::greedy_pass`]), read off a fresh [`Traversal`]:
/// the chosen center indices into `points` — the same picks as
/// [`gonzalez_indices`], since every row's running minimum tightens
/// exactly as there — and every point's nearest chosen center `(index
/// into the centers, distance)`, bit for bit what a separate
/// [`DistanceOracle::nearest_each`] sweep over the centers would give.
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
    let (traversal, rows) = fresh(points, k, metric, start);
    (traversal.order, rows.nearest())
}

/// A fresh unlogged traversal of `points` extended to cover `k`, and its
/// rows.
fn fresh<P, M: DistanceOracle<P>>(
    points: &[P],
    k: usize,
    metric: &M,
    start: usize,
) -> (Traversal, TraversalRows) {
    assert!(!points.is_empty(), "gonzalez requires at least one point");
    assert!(k > 0, "gonzalez requires k >= 1");
    let mut traversal = Traversal::new(points.len(), start);
    let mut rows = TraversalRows::new(points.len());
    traversal.extend(&mut rows, points, k, metric);
    (traversal, rows)
}

/// The covering radius `max_i d(pᵢ, C)` read off per-point nearest
/// centers, folded exactly as [`kcenter_cost`](crate::kcenter_cost) folds its sweep.
pub fn cover_radius(nearest: &[(usize, f64)]) -> f64 {
    nearest.iter().map(|&(_, d)| d).fold(0.0, f64::max)
}

/// Runs Gonzalez's greedy algorithm and materializes the full
/// [`KCenterSolution`] (centers, their indices, and the resulting radius).
///
/// The radius is the fresh [`Traversal`]'s own
/// ([`Traversal::radius`]), bit for bit what a
/// [`kcenter_cost`](crate::kcenter_cost) sweep gives.
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, or `start` is out of range.
pub fn gonzalez<P: Clone, M: DistanceOracle<P>>(
    points: &[P],
    k: usize,
    metric: &M,
    start: usize,
) -> KCenterSolution<P> {
    fresh(points, k, metric, start).0.solution(points, k)
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
