//! Grid-based (1+ε)-approximate Euclidean k-center.
//!
//! The paper's theorems are parameterized by a black-box
//! (1+ε)-approximation for certain points (e.g. Bădoiu–Har-Peled–Indyk
//! \[4\] or Agarwal–Procopiuc \[1\]). We implement a certified scheme for
//! low dimension:
//!
//! 1. run Gonzalez for a radius estimate `r̂ ∈ [opt, 2·opt]`;
//! 2. lay a grid of spacing `δ = ε·r̂/(2√d)` over the bounding box of the
//!    input, keeping only grid vertices within `r̂ + δ√d` of some input
//!    point (others can never serve a cluster optimally);
//! 3. solve *discrete* k-center exactly over the grid candidates.
//!
//! Snapping the optimal centers to the grid inflates the radius by at most
//! `δ·√d/2 ≤ ε·r̂/4 ≤ ε·opt/2`, so the grid optimum is a
//! `(1+ε/2) ≤ (1+ε)` approximation. The candidate count grows like
//! `n·(1/ε)^d`, so the solver enforces a hard candidate cap and reports
//! failure beyond it (dimension ≤ 3 and moderate ε are the intended
//! regime — exactly the paper's experimental setting).

use crate::exact::{exact_discrete_kcenter, ExactOptions};
use crate::gonzalez::{gonzalez, KCenterSolution};
use ukc_metric::batch;
use ukc_metric::{Point, PointId, PointStore, StoreOracle};
use ukc_pool::Exec;

/// Options for the grid (1+ε) solver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridOptions {
    /// Approximation slack ε (> 0).
    pub eps: f64,
    /// Hard cap on generated grid candidates.
    pub max_candidates: usize,
    /// Limits forwarded to the exact discrete solver.
    pub exact: ExactOptions,
}

impl Default for GridOptions {
    fn default() -> Self {
        Self {
            eps: 0.5,
            max_candidates: 20_000,
            exact: ExactOptions {
                max_points: 512,
                max_candidates: 20_000,
            },
        }
    }
}

/// Certified (1+ε)-approximate Euclidean k-center.
///
/// Returns `None` when the grid would exceed `max_candidates` (caller should
/// fall back to Gonzalez) or the exact inner solve refuses the instance.
/// Duplicate-free inputs of dimension ≤ 3 with ε ≥ 0.1 are the supported
/// regime.
///
/// The internal Gonzalez radius estimate and the exact inner solve run
/// their batched sweeps through `exec`; output is bit-identical for every
/// `exec` (the parallel kernels' determinism contract).
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, or `eps <= 0`.
pub fn grid_kcenter(
    points: &[Point],
    k: usize,
    opts: GridOptions,
    exec: Exec<'_>,
) -> Option<KCenterSolution<Point>> {
    assert!(!points.is_empty(), "grid solver requires points");
    assert!(k > 0, "grid solver requires k >= 1");
    assert!(opts.eps > 0.0, "eps must be positive");
    let d = points[0].dim();
    // The whole solve runs over one SoA store: the input points first,
    // kept grid vertices appended behind them.
    let mut store = PointStore::from_points(points);
    let point_ids = store.ids();
    let materialize = |sol: KCenterSolution<PointId>, store: &PointStore| KCenterSolution {
        centers: sol.centers.iter().map(|&id| store.point(id)).collect(),
        center_indices: sol.center_indices,
        radius: sol.radius,
    };
    let gz = gonzalez(&point_ids, k, &StoreOracle::new(&store).with_exec(exec), 0);
    if gz.radius == 0.0 {
        // k distinct-ish points already have zero radius: optimal.
        return Some(materialize(gz, &store));
    }
    let r_hat = gz.radius; // in [opt, 2 opt]
    let sqrt_d = (d as f64).sqrt();
    let delta = opts.eps * r_hat / (2.0 * sqrt_d);
    if !delta.is_finite() {
        return None; // ε·r̂ overflowed: there is no grid to lay
    }
    // Bounding box.
    let mut lo = vec![f64::INFINITY; d];
    let mut hi = vec![f64::NEG_INFINITY; d];
    for p in points {
        for (i, &c) in p.coords().iter().enumerate() {
            lo[i] = lo[i].min(c);
            hi[i] = hi[i].max(c);
        }
    }
    // Candidate grid vertices near the input; enumerate cells per dimension.
    let mut counts = Vec::with_capacity(d);
    let mut total: usize = 1;
    for i in 0..d {
        let span = hi[i] - lo[i];
        // Saturating: a span of many spacings (the cast saturates at
        // `usize::MAX`) must hit the cap below, not wrap to a tiny grid.
        let c = ((span / delta).floor() as usize).saturating_add(2);
        counts.push(c);
        total = total.saturating_mul(c);
        if total > opts.max_candidates.saturating_mul(64) {
            return None; // even the raw grid is hopeless
        }
    }
    let keep_radius = r_hat + delta * sqrt_d;
    let near_input = |store: &PointStore, coords: &[f64]| -> bool {
        point_ids
            .iter()
            .any(|&p| batch::dist_sq_scalar(store.coords(p), coords).sqrt() <= keep_radius)
    };
    let mut cand_ids: Vec<PointId> = Vec::new();
    let mut idx = vec![0usize; d];
    'cells: loop {
        let coords: Vec<f64> = (0..d).map(|i| lo[i] + idx[i] as f64 * delta).collect();
        // Keep the vertex only if some input point is within keep_radius.
        if near_input(&store, &coords) {
            // A vertex past the f64 range (huge ε) has no grid cell.
            let Ok(id) = store.try_push(&coords) else {
                return None;
            };
            cand_ids.push(id);
            if cand_ids.len() > opts.max_candidates {
                return None;
            }
        }
        // Odometer increment.
        for i in 0..d {
            idx[i] += 1;
            if idx[i] < counts[i] {
                continue 'cells;
            }
            idx[i] = 0;
        }
        break;
    }
    if cand_ids.is_empty() {
        return Some(materialize(gz, &store));
    }
    let oracle = StoreOracle::new(&store).with_exec(exec);
    let sol = exact_discrete_kcenter(&point_ids, &cand_ids, k, &oracle, opts.exact)?;
    // The grid optimum is certified (1+eps); but Gonzalez may still win on
    // degenerate inputs (e.g. grid quantization of tiny instances), so take
    // the better of the two.
    if gz.radius < sol.radius {
        Some(materialize(gz, &store))
    } else {
        Some(materialize(sol, &store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_discrete_kcenter, ExactOptions};
    use crate::kcenter_cost;
    use ukc_metric::{Euclidean, Metric};

    fn cloud(seed: u64, n: usize, d: usize) -> Vec<Point> {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new((0..d).map(|_| rnd() * 10.0).collect()))
            .collect()
    }

    /// Continuous lower bound on the optimal k-center radius: half the
    /// (k+1)-th largest pairwise "scattering" via Gonzalez residues.
    fn continuous_lb(points: &[Point], k: usize) -> f64 {
        // The distance of the (k+1)-th Gonzalez pick to the first k picks is
        // a lower bound on 2*opt... actually on opt: k+1 points pairwise
        // > 2r cannot be covered by k balls of radius r. Use the standard
        // bound: r_{k+1}/2 where r_{k+1} is the Gonzalez residual.
        let idx = crate::gonzalez::gonzalez_indices(points, None, k + 1, &Euclidean, 0);
        if idx.len() <= k {
            return 0.0;
        }
        let last = &points[idx[k]];
        let centers: Vec<Point> = idx[..k].iter().map(|&i| points[i].clone()).collect();
        Euclidean.dist_to_set(last, &centers) / 2.0
    }

    #[test]
    fn certified_eps_vs_continuous_lower_bound() {
        for seed in 1..6u64 {
            let pts = cloud(seed, 15, 2);
            for &k in &[2usize, 3] {
                for &eps in &[0.5, 0.25] {
                    let opts = GridOptions {
                        eps,
                        ..Default::default()
                    };
                    let sol =
                        grid_kcenter(&pts, k, opts, Exec::sequential()).expect("grid within caps");
                    let lb = continuous_lb(&pts, k);
                    assert!(
                        sol.radius <= (1.0 + eps) * 2.0 * lb.max(1e-12) + 1e-9
                            || sol.radius <= (1.0 + eps) * lb * 2.0 + 1e-9,
                        "seed {seed} k {k} eps {eps}: radius {} lb {lb}",
                        sol.radius
                    );
                    // The certified property we rely on: grid beats
                    // (1+eps) times the *discrete* optimum over the points
                    // (which itself is at most 2x continuous opt).
                    let disc =
                        exact_discrete_kcenter(&pts, &pts, k, &Euclidean, ExactOptions::default())
                            .unwrap();
                    assert!(
                        sol.radius <= (1.0 + eps) * disc.radius + 1e-9,
                        "seed {seed}: grid {} discrete {}",
                        sol.radius,
                        disc.radius
                    );
                }
            }
        }
    }

    #[test]
    fn radius_matches_cost() {
        let pts = cloud(9, 12, 2);
        let sol = grid_kcenter(&pts, 2, GridOptions::default(), Exec::sequential()).unwrap();
        let cost = kcenter_cost(&pts, &sol.centers, None, &Euclidean);
        assert!((cost - sol.radius).abs() < 1e-9);
    }

    #[test]
    fn one_dimensional_grid_matches_exact_1d() {
        let pts: Vec<Point> = [0.0, 1.0, 2.0, 9.0, 10.0, 11.0]
            .iter()
            .map(|&x| Point::scalar(x))
            .collect();
        let sol = grid_kcenter(
            &pts,
            2,
            GridOptions {
                eps: 0.1,
                ..Default::default()
            },
            Exec::sequential(),
        )
        .unwrap();
        // Optimal continuous radius is 1 (centers at 1 and 10).
        assert!(sol.radius <= 1.1 + 1e-9, "radius {}", sol.radius);
    }

    #[test]
    fn degenerate_all_same_point() {
        let pts = vec![Point::new(vec![1.0, 1.0]); 5];
        let sol = grid_kcenter(&pts, 2, GridOptions::default(), Exec::sequential()).unwrap();
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn candidate_cap_returns_none() {
        let pts = cloud(4, 30, 3);
        let opts = GridOptions {
            eps: 0.01,
            max_candidates: 100,
            ..Default::default()
        };
        assert!(grid_kcenter(&pts, 2, opts, Exec::sequential()).is_none());
    }

    #[test]
    fn huge_eps_falls_back_instead_of_panicking() {
        let pts = cloud(5, 12, 2);
        for eps in [1e300, 1e308, f64::MAX] {
            let opts = GridOptions {
                eps,
                ..Default::default()
            };
            if let Some(sol) = grid_kcenter(&pts, 3, opts, Exec::sequential()) {
                assert!(sol.radius.is_finite(), "eps {eps}");
            }
        }
    }

    #[test]
    fn improves_on_gonzalez_for_adversarial_line() {
        // 4 points where greedy from index 0 is strictly suboptimal for k=2:
        // {0, 4, 5, 9}: Gonzalez(start 0) picks 0 then 9 -> radius 2.0
        // (point 4->0 is 4? no: 4 to 0 is 4... let's use classic example)
        let pts: Vec<Point> = [0.0, 3.9, 4.1, 8.0]
            .iter()
            .map(|&x| Point::scalar(x))
            .collect();
        let gz = gonzalez(&pts, 2, &Euclidean, 0);
        let grid = grid_kcenter(
            &pts,
            2,
            GridOptions {
                eps: 0.1,
                ..Default::default()
            },
            Exec::sequential(),
        )
        .unwrap();
        assert!(grid.radius <= gz.radius + 1e-12);
        // Continuous optimum: centers ~1.95 and ~6.05, radius ~1.95.
        assert!(grid.radius <= 1.95 * 1.1 + 1e-6, "radius {}", grid.radius);
    }
}
