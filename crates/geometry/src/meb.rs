//! Minimum enclosing balls.
//!
//! Two solvers are provided:
//!
//! * [`min_enclosing_ball`] — exact Welzl recursion with randomized-style
//!   move-to-front ordering, working in any dimension. Expected O(n) for
//!   fixed `d`; the boundary set never exceeds `d + 1` points.
//! * [`min_enclosing_ball_approx`] — the Bădoiu–Clarkson core-set iteration,
//!   a (1+ε)-approximation in `O(n·d/ε²)` that is independent of the
//!   combinatorial structure and therefore robust for large `d`.

use ukc_metric::batch::dist_sq_scalar;
use ukc_metric::{Point, PointId, PointStore};

/// A ball `{x : ‖x − center‖ ≤ radius}`.
#[derive(Clone, Debug, PartialEq)]
pub struct Ball {
    /// Center of the ball.
    pub center: Point,
    /// Radius of the ball (non-negative).
    pub radius: f64,
}

impl Ball {
    /// `true` when `p` lies inside the ball, with absolute slack `tol`.
    pub fn contains(&self, p: &Point, tol: f64) -> bool {
        self.center.dist(p) <= self.radius + tol
    }
}

/// Relative tolerance for in-ball tests inside the Welzl recursion.
const WELZL_EPS: f64 = 1e-10;

/// Exact minimum enclosing ball of `points` (any dimension) by Welzl's
/// algorithm.
///
/// Returns `None` for an empty input. The implementation is recursive with
/// a move-to-front heuristic, which keeps the expected recursion depth and
/// running time linear for fixed dimension without needing an RNG (the MTF
/// reordering breaks adversarial orders after the first pass).
///
/// # Panics
/// Panics if the points have mismatched dimensions.
pub fn min_enclosing_ball(points: &[Point]) -> Option<Ball> {
    if points.is_empty() {
        return None;
    }
    let dim = points[0].dim();
    assert!(
        points.iter().all(|p| p.dim() == dim),
        "all points must share a dimension"
    );
    let mut pts: Vec<Point> = points.to_vec();
    let n = pts.len();
    let mut support: Vec<Point> = Vec::with_capacity(dim + 1);
    let ball = welzl_mtf(&mut pts, n, &mut support, dim);
    Some(ball)
}

/// Welzl recursion over the first `n` points of `pts` with current boundary
/// `support`; moves violating points to the front.
fn welzl_mtf(pts: &mut Vec<Point>, n: usize, support: &mut Vec<Point>, dim: usize) -> Ball {
    let mut ball = ball_from_support(support, dim);
    if support.len() == dim + 1 {
        return ball;
    }
    let mut i = 0;
    while i < n {
        let p = pts[i].clone();
        let scale = ball.radius.max(1.0);
        if ball.center.dim() != p.dim() || !ball.contains(&p, WELZL_EPS * scale) {
            support.push(p.clone());
            ball = welzl_mtf(pts, i, support, dim);
            support.pop();
            // Move-to-front: p is likely on the boundary of future balls.
            pts[..=i].rotate_right(1);
        }
        i += 1;
    }
    ball
}

/// Smallest ball with all of `support` on its boundary (the circumball
/// restricted to the affine hull of `support`).
///
/// Degenerate (affinely dependent) supports fall back to dropping the
/// dependent point, which is the correct behavior inside Welzl: a dependent
/// boundary point is already enclosed by the circumball of the others.
fn ball_from_support(support: &[Point], dim: usize) -> Ball {
    match support.len() {
        0 => Ball {
            center: Point::origin(dim),
            radius: -1.0, // an empty ball: contains nothing
        },
        1 => Ball {
            center: support[0].clone(),
            radius: 0.0,
        },
        _ => circumball(support).unwrap_or_else(|| {
            // Affinely dependent support: drop the last point.
            ball_from_support(&support[..support.len() - 1], dim)
        }),
    }
}

/// Circumball of affinely independent points: the unique smallest ball with
/// all points on its boundary, whose center lies in their affine hull.
///
/// Solves `A λ = b` with `A_{ij} = 2 (pᵢ−p₀)·(pⱼ−p₀)`, `b_i = ‖pᵢ−p₀‖²`,
/// then `c = p₀ + Σ λᵢ (pᵢ−p₀)`. Returns `None` when the system is singular
/// (affinely dependent support).
fn circumball(points: &[Point]) -> Option<Ball> {
    let m = points.len() - 1;
    let p0 = &points[0];
    let diffs: Vec<Point> = points[1..].iter().map(|p| p - p0).collect();
    let mut a = vec![vec![0.0; m]; m];
    let mut b = vec![0.0; m];
    for i in 0..m {
        for j in 0..m {
            a[i][j] = 2.0
                * diffs[i]
                    .coords()
                    .iter()
                    .zip(diffs[j].coords())
                    .map(|(x, y)| x * y)
                    .sum::<f64>();
        }
        b[i] = diffs[i].norm_sq();
    }
    let lambda = solve_linear(&mut a, &mut b)?;
    let mut center = p0.clone();
    for (l, d) in lambda.iter().zip(diffs.iter()) {
        center.add_scaled_in_place(*l, d);
    }
    let radius = center.dist(p0);
    Some(Ball { center, radius })
}

/// Gaussian elimination with partial pivoting; consumes `a` and `b`.
/// Returns `None` on a (numerically) singular system.
#[allow(clippy::needless_range_loop)] // lockstep row elimination reads clearer indexed
fn solve_linear(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            for c in col..n {
                a[row][c] -= f * a[col][c];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut s = b[row];
        for c in (row + 1)..n {
            s -= a[row][c] * x[c];
        }
        x[row] = s / a[row][row];
    }
    Some(x)
}

/// Bădoiu–Clarkson (1+ε)-approximate minimum enclosing ball.
///
/// Iterates `⌈1/ε²⌉` rounds of "walk the center toward the farthest point";
/// the returned radius is at most `(1+ε)` times the optimal MEB radius.
/// Returns `None` for an empty input.
///
/// # Panics
/// Panics if `eps` is not strictly positive or points have mismatched
/// dimensions.
pub fn min_enclosing_ball_approx(points: &[Point], eps: f64) -> Option<Ball> {
    assert!(eps > 0.0, "eps must be positive");
    if points.is_empty() {
        return None;
    }
    let dim = points[0].dim();
    assert!(
        points.iter().all(|p| p.dim() == dim),
        "all points must share a dimension"
    );
    min_enclosing_ball_approx_store(&PointStore::from_points(points), eps)
}

/// [`min_enclosing_ball_approx`] over an already-built [`PointStore`]:
/// every round is one scalar farthest-point sweep over the contiguous
/// coordinate buffer instead of `n` boxed-point distance calls.
///
/// Returns `None` for an empty store.
///
/// # Panics
/// Panics if `eps` is not strictly positive.
pub fn min_enclosing_ball_approx_store(store: &PointStore, eps: f64) -> Option<Ball> {
    assert!(eps > 0.0, "eps must be positive");
    if store.is_empty() {
        return None;
    }
    let rounds = (1.0 / (eps * eps)).ceil() as usize + 1;
    let mut center: Vec<f64> = store.coords(PointId(0)).to_vec();
    // The farthest-point sweep against the moving center.
    let sweep = |center: &[f64]| -> (usize, f64) {
        let mut far = (0usize, f64::NEG_INFINITY);
        for i in 0..store.len() {
            let d_sq = dist_sq_scalar(store.coords(PointId(i)), center);
            if d_sq > far.1 {
                far = (i, d_sq);
            }
        }
        far
    };
    for t in 1..=rounds {
        let (far, _) = sweep(&center);
        let step = 1.0 / (t as f64 + 1.0);
        for (c, &f) in center.iter_mut().zip(store.coords(PointId(far))) {
            *c = (1.0 - step) * *c + step * f;
        }
    }
    let (_, radius_sq) = sweep(&center);
    Some(Ball {
        center: Point::new(center),
        radius: radius_sq.max(0.0).sqrt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_encloses(ball: &Ball, pts: &[Point]) {
        for p in pts {
            assert!(
                ball.contains(p, 1e-7 * ball.radius.max(1.0)),
                "point {p:?} outside ball {ball:?}"
            );
        }
    }

    #[test]
    fn empty_input() {
        assert!(min_enclosing_ball(&[]).is_none());
        assert!(min_enclosing_ball_approx(&[], 0.1).is_none());
    }

    #[test]
    fn single_point() {
        let p = Point::new(vec![2.0, 3.0]);
        let b = min_enclosing_ball(std::slice::from_ref(&p)).unwrap();
        assert_eq!(b.center, p);
        assert_eq!(b.radius, 0.0);
    }

    #[test]
    fn two_points_diameter() {
        let pts = vec![Point::new(vec![0.0, 0.0]), Point::new(vec![4.0, 0.0])];
        let b = min_enclosing_ball(&pts).unwrap();
        assert!((b.radius - 2.0).abs() < 1e-9);
        assert!((b.center.coords()[0] - 2.0).abs() < 1e-9);
        assert_encloses(&b, &pts);
    }

    #[test]
    fn equilateral_triangle() {
        // Equilateral triangle with side 1: circumradius = 1/sqrt(3).
        let h = 3f64.sqrt() / 2.0;
        let pts = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![0.5, h]),
        ];
        let b = min_enclosing_ball(&pts).unwrap();
        assert!((b.radius - 1.0 / 3f64.sqrt()).abs() < 1e-9);
        assert_encloses(&b, &pts);
    }

    #[test]
    fn obtuse_triangle_uses_two_point_ball() {
        // Obtuse triangle: MEB is the diameter ball of the longest side.
        let pts = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![10.0, 0.0]),
            Point::new(vec![5.0, 0.1]),
        ];
        let b = min_enclosing_ball(&pts).unwrap();
        assert!((b.radius - 5.0).abs() < 1e-9);
        assert_encloses(&b, &pts);
    }

    #[test]
    fn collinear_points() {
        let pts: Vec<Point> = (0..20)
            .map(|i| Point::new(vec![i as f64, 2.0 * i as f64]))
            .collect();
        let b = min_enclosing_ball(&pts).unwrap();
        let expected = pts[0].dist(&pts[19]) / 2.0;
        assert!((b.radius - expected).abs() < 1e-8);
        assert_encloses(&b, &pts);
    }

    #[test]
    fn duplicate_points() {
        let pts = vec![
            Point::new(vec![1.0, 1.0]),
            Point::new(vec![1.0, 1.0]),
            Point::new(vec![1.0, 1.0]),
        ];
        let b = min_enclosing_ball(&pts).unwrap();
        assert!(b.radius.abs() < 1e-12);
    }

    #[test]
    fn unit_simplex_3d() {
        // Regular tetrahedron corners of the unit cube; circumradius sqrt(3)/2
        // around the cube center.
        let pts = vec![
            Point::new(vec![0.0, 0.0, 0.0]),
            Point::new(vec![1.0, 1.0, 0.0]),
            Point::new(vec![1.0, 0.0, 1.0]),
            Point::new(vec![0.0, 1.0, 1.0]),
        ];
        let b = min_enclosing_ball(&pts).unwrap();
        assert!((b.radius - 3f64.sqrt() / 2.0).abs() < 1e-9);
        assert_encloses(&b, &pts);
    }

    #[test]
    fn interior_points_do_not_change_ball() {
        let mut pts = vec![Point::new(vec![-3.0, 0.0]), Point::new(vec![3.0, 0.0])];
        for i in 0..50 {
            let t = i as f64 / 50.0;
            pts.push(Point::new(vec![2.0 * t - 1.0, t - 0.5]));
        }
        let b = min_enclosing_ball(&pts).unwrap();
        assert!((b.radius - 3.0).abs() < 1e-8);
        assert_encloses(&b, &pts);
    }

    #[test]
    fn approx_within_eps_of_exact() {
        // Pseudo-random point cloud (deterministic LCG to avoid an RNG dep).
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
        };
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new(vec![next(), next(), next()]))
            .collect();
        let exact = min_enclosing_ball(&pts).unwrap();
        for &eps in &[0.5, 0.1, 0.02] {
            let approx = min_enclosing_ball_approx(&pts, eps).unwrap();
            assert_encloses(&approx, &pts);
            assert!(
                approx.radius <= (1.0 + eps) * exact.radius + 1e-9,
                "eps={eps}: approx {} vs exact {}",
                approx.radius,
                exact.radius
            );
            assert!(approx.radius >= exact.radius - 1e-9);
        }
    }

    #[test]
    fn exact_beats_or_ties_approx_high_dim() {
        let mut state: u64 = 42;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let pts: Vec<Point> = (0..60)
            .map(|_| Point::new((0..8).map(|_| next()).collect()))
            .collect();
        let exact = min_enclosing_ball(&pts).unwrap();
        let approx = min_enclosing_ball_approx(&pts, 0.05).unwrap();
        assert!(exact.radius <= approx.radius + 1e-9);
        assert_encloses(&exact, &pts);
    }
}
