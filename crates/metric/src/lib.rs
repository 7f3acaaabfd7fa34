//! # ukc-metric — metric-space substrate
//!
//! The uncertain k-center algorithms of Alipour & Jafari (PODS 2018) are
//! parameterized over an arbitrary metric space `(X, d)`. This crate provides
//! the metric abstraction and a family of concrete spaces used throughout the
//! reproduction:
//!
//! * [`Point`] — a dynamically-dimensioned Euclidean vector, the point type
//!   for all `ℝ^d` experiments.
//! * [`Euclidean`], [`Manhattan`], [`Chebyshev`], [`Minkowski`] — `L_p`
//!   metrics over [`Point`].
//! * [`FiniteMetric`] — an explicit `n × n` distance matrix over point ids,
//!   the "any metric space" of the paper's Table 1 row 9.
//! * [`WeightedGraph`] — a weighted undirected graph whose shortest-path
//!   closure yields a [`FiniteMetric`]; a convenient generator of
//!   non-Euclidean metrics.
//! * [`TreeMetric`] — the shortest-path metric of a weighted tree with
//!   O(log n) distance queries via binary-lifting LCA.
//! * [`validate`] — symmetry / identity / triangle-inequality checkers used
//!   by tests and by the [`FiniteMetric`] builder.
//!
//! The central trait is [`Metric`]:
//!
//! ```
//! use ukc_metric::{Metric, Euclidean, Point};
//! let m = Euclidean;
//! let a = Point::new(vec![0.0, 0.0]);
//! let b = Point::new(vec![3.0, 4.0]);
//! assert_eq!(m.dist(&a, &b), 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod finite;
mod graph;
mod lp;
mod point;
mod store;
mod tree;
pub mod validate;

pub use batch::{DistCounter, Kernel, PassBuffers, Tracked, PAR_CHUNK, PAR_MIN_POINTS};
pub use finite::{FiniteMetric, FiniteMetricError};
pub use graph::{GraphError, WeightedGraph};
pub use lp::{Chebyshev, Euclidean, Manhattan, Minkowski};
pub use point::{Point, PointError};
pub use store::{mask_row, PointId, PointStore, StoreOracle};
pub use tree::{TreeError, TreeMetric};

/// A metric over points of type `P`.
///
/// Implementations must satisfy, up to floating-point rounding, the metric
/// axioms: non-negativity, `d(a, a) = 0`, symmetry and the triangle
/// inequality. The [`validate`] module provides checkers that tests use to
/// enforce these axioms on every space shipped by this crate.
pub trait Metric<P: ?Sized> {
    /// The distance between `a` and `b`.
    fn dist(&self, a: &P, b: &P) -> f64;

    /// Distance from `a` to the nearest of `centers`, together with the index
    /// of that nearest center.
    ///
    /// Returns `None` when `centers` is empty.
    fn nearest(&self, a: &P, centers: &[P]) -> Option<(usize, f64)>
    where
        P: Sized,
    {
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in centers.iter().enumerate() {
            let d = self.dist(a, c);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best
    }

    /// Distance from `a` to the nearest of `centers` (the k-center point-to-
    /// set distance `d(a, C)`), or `+∞` for an empty center set.
    fn dist_to_set(&self, a: &P, centers: &[P]) -> f64
    where
        P: Sized,
    {
        self.nearest(a, centers).map_or(f64::INFINITY, |(_, d)| d)
    }
}

impl<P: ?Sized, M: Metric<P> + ?Sized> Metric<P> for &M {
    fn dist(&self, a: &P, b: &P) -> f64 {
        (**self).dist(a, b)
    }
}

/// A [`Metric`] that additionally answers *batched* distance queries —
/// the trait every solver hot loop is written against.
///
/// The default methods evaluate one pair at a time through
/// [`Metric::dist`], in the exact order the scalar loops always used, so
/// finite, graph, and tree metrics (and any custom [`Metric`]) participate
/// unchanged by adding an empty `impl DistanceOracle<…> for …` block. The
/// [`StoreOracle`] over a [`PointStore`] overrides them with the batched
/// kernels of [`batch`], which is where the structure-of-arrays layout and
/// the `‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b` factorization pay off.
///
/// The sweeps that compare centers take optional additive center weights:
/// `None` is the plain distance `d(p, c)`, `Some` the additively weighted
/// (Apollonius) distance `d(p, c) − w_c` of the weighted assignment mode.
/// One method serves both: a plain Voronoi cell is an Apollonius cell at
/// `w = 0`.
///
/// Contract for implementors: every override must evaluate (and, when
/// instrumented, count) one distance per point-pair it needs, must break
/// nearest-center ties toward the lower index, and must return exactly
/// what the defaults return over its own [`Metric::dist`]. The defaults
/// evaluate every pair. An override may skip a pair only when it proves the pair
/// cannot change the result — [`StoreOracle`]'s
/// [`greedy_pass`](DistanceOracle::greedy_pass) does, by the triangle
/// inequality — and then counts the pair as pruned
/// ([`DistCounter::pruned`]), not as evaluated.
pub trait DistanceOracle<P>: Metric<P> {
    /// Fills `out[i] = d(points[i], q)`.
    ///
    /// # Panics
    /// Panics when `out` is shorter than `points`.
    fn dists_to_one(&self, points: &[P], q: &P, out: &mut [f64]) {
        assert!(out.len() >= points.len(), "output buffer too small");
        for (p, o) in points.iter().zip(out.iter_mut()) {
            *o = self.dist(p, q);
        }
    }

    /// Tightens a running minimum-distance array against a new center:
    /// `min_dist[i] = min(min_dist[i], d(points[i], center) − w)` — the
    /// Gonzalez inner loop. `weight` is the center's additive weight `w`
    /// (the Apollonius form; `min_dist` then holds *weighted* distances,
    /// which may be negative once a weight exceeds a distance), or `None`
    /// for the plain distance. The default subtracts `0.0` for `None`,
    /// and `d − 0.0` is `d` bit for bit.
    ///
    /// # Panics
    /// Panics when `min_dist` is shorter than `points`.
    fn dists_to_set_min(
        &self,
        points: &[P],
        center: &P,
        weight: Option<f64>,
        min_dist: &mut [f64],
    ) {
        assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
        let w = weight.unwrap_or(0.0);
        for (p, d) in points.iter().zip(min_dist.iter_mut()) {
            let nd = self.dist(p, center) - w;
            if nd < *d {
                *d = nd;
            }
        }
    }

    /// [`dists_to_set_min`] that also tracks each row's nearest center
    /// across passes: `rows[i].min` tightens exactly as `min_dist[i]`
    /// would, and `rows[i].nearest` keeps the pass index `c` of the first
    /// center that reached it ([`Tracked::update`]) — the strict `<` in
    /// center order of [`nearest_each`]. Gonzalez's greedy runs on these
    /// passes, so its radius and the nearest-center assignment come out
    /// of the same sweep: after passes over centers `C`, row `i` holds
    /// what [`nearest_each`] over `C` gives query `i`.
    ///
    /// [`dists_to_set_min`]: DistanceOracle::dists_to_set_min
    /// [`nearest_each`]: DistanceOracle::nearest_each
    ///
    /// # Panics
    /// Panics when `rows` is shorter than `points`.
    fn dists_to_set_min_tracked(&self, points: &[P], center: &P, c: usize, rows: &mut [Tracked]) {
        assert!(rows.len() >= points.len(), "tracked buffer too small");
        for (p, r) in points.iter().zip(rows.iter_mut()) {
            r.update(self.dist(p, center), c);
        }
    }

    /// One pass of Gonzalez's farthest-point greedy: the tracked pass
    /// ([`dists_to_set_min_tracked`]) of the last of `centers` — indices
    /// into `points` — at pass index `centers.len() − 1`, then the pick
    /// of the next center. Returns the index into `points` of the row with
    /// the largest `min` after the pass, ties toward the larger index
    /// (`Iterator::max_by`'s pick), and that `min`.
    ///
    /// `rows` must hold the tracked passes of the other centers, in
    /// order: an override may read them to skip rows the new center
    /// provably cannot tighten (the default evaluates every row).
    /// `buffers` is the pass's scratch, reused across a traversal's
    /// passes, and ends listing the rows the pass updated
    /// ([`PassBuffers::updated`]), so a caller that records them scans no
    /// row, and the pairs it evaluated and skipped
    /// ([`PassBuffers::pairs`]).
    ///
    /// [`dists_to_set_min_tracked`]: DistanceOracle::dists_to_set_min_tracked
    ///
    /// # Panics
    /// Panics when `points` or `centers` is empty, or `rows` is shorter
    /// than `points`.
    fn greedy_pass(
        &self,
        points: &[P],
        centers: &[usize],
        rows: &mut [Tracked],
        buffers: &mut PassBuffers,
    ) -> (usize, f64) {
        let c = centers.len().checked_sub(1).expect("a pass needs a center");
        assert!(rows.len() >= points.len(), "tracked buffer too small");
        let center = &points[centers[c]];
        buffers.kept.clear();
        for (i, (p, r)) in points.iter().zip(rows.iter_mut()).enumerate() {
            if r.update(self.dist(p, center), c) {
                buffers.kept.push(i);
            }
        }
        buffers.updated = buffers.kept.len();
        buffers.pairs = (points.len(), 0);
        rows[..points.len()]
            .iter()
            .map(|r| r.min)
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("a pass needs a row")
    }

    /// Tightens a running minimum-distance array against a whole center
    /// set: `min_dist[i] = min(min_dist[i], min_c d(points[i], c) − w_c)`
    /// — the k-center cost sweep, fused across centers so oracle
    /// overrides can stream each point past all centers at once (the
    /// tiled kernel's mini-GEMM). `weights` carries one additive weight
    /// per center, or is `None` for the plain distance. The default is
    /// exactly one [`dists_to_set_min`] pass per center, in order.
    ///
    /// [`dists_to_set_min`]: DistanceOracle::dists_to_set_min
    ///
    /// # Panics
    /// Panics when `min_dist` is shorter than `points`, or when `weights`
    /// and `centers` differ in length.
    fn dists_to_centers_min(
        &self,
        points: &[P],
        centers: &[P],
        weights: Option<&[f64]>,
        min_dist: &mut [f64],
    ) {
        assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
        check_weights(centers.len(), weights);
        for (c, center) in centers.iter().enumerate() {
            self.dists_to_set_min(points, center, weights.map(|w| w[c]), min_dist);
        }
    }

    /// Fills `out[i]` with the index and distance `d(queries[i], c) − w_c`
    /// of the center nearest `queries[i]`, ties toward the lower index —
    /// the batched form of [`Metric::nearest`] behind every assignment
    /// sweep. `weights` carries one additive weight per center (the
    /// Apollonius cells), or is `None` for the plain distance (Voronoi
    /// cells, the same comparisons as [`Metric::nearest`]). Elementwise
    /// per query, so overrides may parallelize across queries without
    /// changing any result.
    ///
    /// # Panics
    /// Panics when `out` is shorter than `queries`, when `weights` and
    /// `centers` differ in length, or when `centers` is empty while
    /// `queries` is not.
    fn nearest_each(
        &self,
        queries: &[P],
        centers: &[P],
        weights: Option<&[f64]>,
        out: &mut [(usize, f64)],
    ) {
        assert!(out.len() >= queries.len(), "output buffer too small");
        check_weights(centers.len(), weights);
        for (q, o) in queries.iter().zip(out.iter_mut()) {
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in centers.iter().enumerate() {
                let d = self.dist(q, c) - weights.map_or(0.0, |w| w[i]);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
            *o = best.expect("nearest_each requires at least one center");
        }
    }
}

/// Asserts one weight per center when weights are given.
fn check_weights(centers: usize, weights: Option<&[f64]>) {
    if let Some(w) = weights {
        assert_eq!(centers, w.len(), "one weight per center required");
    }
}

impl<P> DistanceOracle<P> for Euclidean where Euclidean: Metric<P> {}
impl<P> DistanceOracle<P> for Manhattan where Manhattan: Metric<P> {}
impl<P> DistanceOracle<P> for Chebyshev where Chebyshev: Metric<P> {}
impl<P> DistanceOracle<P> for Minkowski where Minkowski: Metric<P> {}
impl DistanceOracle<usize> for FiniteMetric {}
impl DistanceOracle<usize> for TreeMetric {}

// Metric trait objects participate with the default (pointwise) batch
// loops, so `&dyn Metric<P>` plugs into oracle-bounded algorithms as-is.
impl<P> DistanceOracle<P> for dyn Metric<P> + '_ {}
impl<P> DistanceOracle<P> for dyn Metric<P> + Send + Sync + '_ {}

impl<P, M: DistanceOracle<P> + ?Sized> DistanceOracle<P> for &M {
    fn dists_to_one(&self, points: &[P], q: &P, out: &mut [f64]) {
        (**self).dists_to_one(points, q, out)
    }

    fn dists_to_set_min(
        &self,
        points: &[P],
        center: &P,
        weight: Option<f64>,
        min_dist: &mut [f64],
    ) {
        (**self).dists_to_set_min(points, center, weight, min_dist)
    }

    fn dists_to_set_min_tracked(&self, points: &[P], center: &P, c: usize, rows: &mut [Tracked]) {
        (**self).dists_to_set_min_tracked(points, center, c, rows)
    }

    fn greedy_pass(
        &self,
        points: &[P],
        centers: &[usize],
        rows: &mut [Tracked],
        buffers: &mut PassBuffers,
    ) -> (usize, f64) {
        (**self).greedy_pass(points, centers, rows, buffers)
    }

    fn dists_to_centers_min(
        &self,
        points: &[P],
        centers: &[P],
        weights: Option<&[f64]>,
        min_dist: &mut [f64],
    ) {
        (**self).dists_to_centers_min(points, centers, weights, min_dist)
    }

    fn nearest_each(
        &self,
        queries: &[P],
        centers: &[P],
        weights: Option<&[f64]>,
        out: &mut [(usize, f64)],
    ) {
        (**self).nearest_each(queries, centers, weights, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_picks_closest_center() {
        let m = Euclidean;
        let p = Point::new(vec![0.0]);
        let centers = vec![
            Point::new(vec![5.0]),
            Point::new(vec![-1.0]),
            Point::new(vec![2.0]),
        ];
        let (idx, d) = m.nearest(&p, &centers).unwrap();
        assert_eq!(idx, 1);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_empty_is_none() {
        let m = Euclidean;
        let p = Point::new(vec![0.0]);
        assert!(m.nearest(&p, &[]).is_none());
        assert_eq!(m.dist_to_set(&p, &[]), f64::INFINITY);
    }

    #[test]
    fn metric_by_reference_works() {
        fn takes_metric<M: Metric<Point>>(m: M, a: &Point, b: &Point) -> f64 {
            m.dist(a, b)
        }
        let a = Point::new(vec![0.0, 0.0]);
        let b = Point::new(vec![1.0, 0.0]);
        assert_eq!(takes_metric(Euclidean, &a, &b), 1.0);
    }

    #[test]
    fn nearest_ties_prefer_first() {
        let m = Euclidean;
        let p = Point::new(vec![0.0]);
        let centers = vec![Point::new(vec![1.0]), Point::new(vec![-1.0])];
        let (idx, _) = m.nearest(&p, &centers).unwrap();
        assert_eq!(idx, 0);
    }
}
