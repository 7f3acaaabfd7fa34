//! Exact one-dimensional k-center.
//!
//! On a line the k-center problem is solvable exactly in O(n log n)
//! (Megiddo et al. \[24\] in the paper's bibliography): sort the points;
//! the optimal radius is half the length of some gap-free window, i.e. one
//! of the O(n²) values `(x_j − x_i)/2` — but binary searching *feasibility*
//! over radii needs only the sorted order. Feasibility for radius `r` is a
//! greedy sweep: place a center at `leftmost uncovered + r`, skip the
//! points it covers, repeat; the point set is coverable by `k` intervals of
//! half-length `r` iff the sweep uses at most `k` centers.
//!
//! We binary search over the exact candidate set `{(x_j − x_i)/2}`
//! implicitly: the optimal radius is determined by a pair of points that
//! share a center, and the greedy sweep at radius `r` is monotone in `r`,
//! so we search over the sorted distinct half-gaps of *any* pair — realized
//! here as a search over the O(n²) pair distances for small n, or a
//! numeric bisection to machine precision for large n (both exposed; the
//! numeric path is what the uncertain 1-D solver uses too).

use crate::gonzalez::KCenterSolution;
use ukc_metric::Point;

/// Greedy feasibility sweep: minimal number of radius-`r` intervals needed
/// to cover the sorted values, together with the chosen centers.
fn sweep(sorted: &[f64], r: f64) -> (usize, Vec<f64>) {
    let mut centers = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let c = sorted[i] + r;
        centers.push(c);
        // Coverage slack scales with the coordinate magnitude: `c + r`
        // accumulates ~2 ulps of rounding, which at |x| ≈ 100 already
        // exceeds a fixed 1e-15 and would split a cluster spuriously.
        let tol = 8.0 * f64::EPSILON * (c.abs() + r.abs() + 1.0);
        while i < sorted.len() && sorted[i] <= c + r + tol {
            i += 1;
        }
    }
    (centers.len(), centers)
}

/// Exact 1-D k-center over scalar values.
///
/// Returns the optimal radius and centers. `values` need not be sorted.
/// Runs the exact combinatorial search (binary search over the O(n²)
/// candidate radii) when `n ≤ 2048`, otherwise bisects numerically to
/// `1e-12` relative precision — indistinguishable from exact at f64 scale.
///
/// # Panics
/// Panics if `values` is empty or `k == 0`.
pub fn one_d_kcenter(values: &[f64], k: usize) -> KCenterSolution<Point> {
    assert!(!values.is_empty(), "one_d_kcenter requires values");
    assert!(k > 0, "one_d_kcenter requires k >= 1");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len();

    // Quick exit: enough centers for every distinct value.
    let (need_zero, _) = sweep(&sorted, 0.0);
    if need_zero <= k {
        let (_, centers) = sweep(&sorted, 0.0);
        return solution(centers, 0.0);
    }

    if n <= 2048 {
        // Exact: candidate radii are half the pairwise gaps.
        let mut radii: Vec<f64> = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                radii.push((sorted[j] - sorted[i]) / 2.0);
            }
        }
        radii.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        radii.dedup();
        let mut lo = 0usize;
        let mut hi = radii.len() - 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if sweep(&sorted, radii[mid]).0 <= k {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let r = radii[hi];
        let (_, centers) = sweep(&sorted, r);
        solution(centers, r)
    } else {
        // Numeric bisection.
        let mut lo = 0.0f64;
        let mut hi = (sorted[n - 1] - sorted[0]) / 2.0;
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if sweep(&sorted, mid).0 <= k {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let (_, centers) = sweep(&sorted, hi);
        solution(centers, hi)
    }
}

fn solution(centers: Vec<f64>, radius: f64) -> KCenterSolution<Point> {
    KCenterSolution {
        centers: centers.iter().map(|&c| Point::scalar(c)).collect(),
        center_indices: Vec::new(),
        radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kcenter_cost;
    use ukc_metric::Euclidean;

    fn cost_of(values: &[f64], sol: &KCenterSolution<Point>) -> f64 {
        let pts: Vec<Point> = values.iter().map(|&v| Point::scalar(v)).collect();
        kcenter_cost(&pts, &sol.centers, None, &Euclidean)
    }

    #[test]
    fn single_center_is_midrange() {
        let vals = [1.0, 5.0, 2.0, 9.0];
        let sol = one_d_kcenter(&vals, 1);
        assert_eq!(sol.radius, 4.0);
        assert!((sol.centers[0].x() - 5.0).abs() < 1e-12);
        assert!(cost_of(&vals, &sol) <= sol.radius + 1e-9);
    }

    #[test]
    fn two_clusters_two_centers() {
        let vals = [0.0, 1.0, 2.0, 100.0, 101.0, 102.0];
        let sol = one_d_kcenter(&vals, 2);
        assert_eq!(sol.radius, 1.0);
        assert!(cost_of(&vals, &sol) <= sol.radius + 1e-9);
    }

    #[test]
    fn k_covers_all_points_zero_radius() {
        let vals = [3.0, 1.0, 2.0];
        let sol = one_d_kcenter(&vals, 3);
        assert_eq!(sol.radius, 0.0);
        let sol = one_d_kcenter(&vals, 5);
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn duplicates_do_not_need_extra_centers() {
        let vals = [1.0, 1.0, 1.0, 2.0, 2.0];
        let sol = one_d_kcenter(&vals, 2);
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn uneven_clusters() {
        let vals = [0.0, 10.0, 11.0, 12.0, 13.0, 14.0];
        let sol = one_d_kcenter(&vals, 2);
        assert_eq!(sol.radius, 2.0);
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        // Brute force: try all radius candidates (x_j-x_i)/2, take smallest
        // feasible; compare for many pseudo-random instances.
        let mut s: u64 = 99;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..30 {
            let n = 4 + (trial % 8);
            let vals: Vec<f64> = (0..n).map(|_| rnd() * 50.0).collect();
            for k in 1..=3usize {
                let sol = one_d_kcenter(&vals, k);
                // Brute force over candidate radii.
                let mut sorted = vals.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let mut best = f64::INFINITY;
                for i in 0..n {
                    for j in i..n {
                        let r = (sorted[j] - sorted[i]) / 2.0;
                        if sweep(&sorted, r).0 <= k {
                            best = best.min(r);
                        }
                    }
                }
                assert!(
                    (sol.radius - best).abs() < 1e-9,
                    "trial {trial} k {k}: {} vs {best}",
                    sol.radius
                );
            }
        }
    }

    #[test]
    fn large_instance_numeric_path() {
        let vals: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.37).sin() * 100.0).collect();
        let sol = one_d_kcenter(&vals, 4);
        assert!(cost_of(&vals, &sol) <= sol.radius * (1.0 + 1e-9) + 1e-9);
        // Sanity: radius must be < diameter/2 given 4 centers on a spread set.
        assert!(sol.radius < 100.0);
    }

    #[test]
    #[should_panic(expected = "requires values")]
    fn empty_values_panics() {
        let _ = one_d_kcenter(&[], 1);
    }
}
