//! Single-swap local search over a discrete candidate pool.
//!
//! Starting from any center set (typically Gonzalez's), repeatedly try
//! replacing one chosen center with one unchosen candidate, keeping the swap
//! that most reduces the k-center cost; stop at a local optimum. Local
//! search does not improve the worst-case factor, but in practice it
//! recovers most of the gap between the greedy 2-approximation and the
//! discrete optimum — it is the "mid-tier" certain solver in the
//! experiments' ablation A4.

use crate::gonzalez::KCenterSolution;
use crate::kcenter_cost;
use ukc_metric::DistanceOracle;

/// Improves `initial` center indices (into `candidates`) by best-improvement
/// single swaps until no swap helps or `max_rounds` is exhausted.
///
/// Returns the final solution. O(rounds · k · m · n) distance evaluations
/// for m candidates.
///
/// # Panics
/// Panics when `points` or `candidates` is empty, or an initial index is out
/// of range.
pub fn local_search_kcenter<P: Clone, M: DistanceOracle<P>>(
    points: &[P],
    candidates: &[P],
    initial: &[usize],
    metric: &M,
    max_rounds: usize,
) -> KCenterSolution<P> {
    assert!(!points.is_empty(), "local search requires points");
    assert!(!candidates.is_empty(), "local search requires candidates");
    assert!(
        initial.iter().all(|&i| i < candidates.len()),
        "initial center index out of range"
    );
    let mut current: Vec<usize> = initial.to_vec();
    let materialize =
        |idx: &[usize]| -> Vec<P> { idx.iter().map(|&i| candidates[i].clone()).collect() };
    let mut cost = kcenter_cost(points, &materialize(&current), None, metric);
    for _ in 0..max_rounds {
        let mut best_swap: Option<(usize, usize, f64)> = None;
        for slot in 0..current.len() {
            for cand in 0..candidates.len() {
                if current.contains(&cand) {
                    continue;
                }
                let old = current[slot];
                current[slot] = cand;
                let c = kcenter_cost(points, &materialize(&current), None, metric);
                current[slot] = old;
                if c < cost && best_swap.is_none_or(|(_, _, bc)| c < bc) {
                    best_swap = Some((slot, cand, c));
                }
            }
        }
        match best_swap {
            Some((slot, cand, c)) => {
                current[slot] = cand;
                cost = c;
            }
            None => break,
        }
    }
    KCenterSolution {
        centers: materialize(&current),
        center_indices: current,
        radius: cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_discrete_kcenter, ExactOptions};
    use crate::gonzalez::gonzalez;
    use ukc_metric::{Euclidean, Point};

    fn cloud(seed: u64, n: usize) -> Vec<Point> {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(vec![rnd() * 10.0, rnd() * 10.0]))
            .collect()
    }

    #[test]
    fn never_worse_than_start() {
        for seed in 1..6u64 {
            let pts = cloud(seed, 25);
            let gz = gonzalez(&pts, 3, &Euclidean, 0);
            let ls = local_search_kcenter(&pts, &pts, &gz.center_indices, &Euclidean, 50);
            assert!(ls.radius <= gz.radius + 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn reaches_between_gonzalez_and_exact() {
        for seed in 1..6u64 {
            let pts = cloud(seed, 18);
            let k = 2 + (seed as usize) % 3;
            let gz = gonzalez(&pts, k, &Euclidean, 0);
            let ls = local_search_kcenter(&pts, &pts, &gz.center_indices, &Euclidean, 100);
            let ex =
                exact_discrete_kcenter(&pts, &pts, k, &Euclidean, ExactOptions::default()).unwrap();
            assert!(ex.radius <= ls.radius + 1e-12);
            assert!(ls.radius <= gz.radius + 1e-12);
        }
    }

    #[test]
    fn fixes_bad_initialization() {
        // Two clusters; start with both centers in the same cluster.
        let mut pts: Vec<Point> = (0..5).map(|i| Point::scalar(i as f64 * 0.1)).collect();
        pts.extend((0..5).map(|i| Point::scalar(100.0 + i as f64 * 0.1)));
        let ls = local_search_kcenter(&pts, &pts, &[0, 1], &Euclidean, 50);
        // A local optimum must place one center per cluster.
        assert!(ls.radius < 1.0, "radius {}", ls.radius);
    }

    #[test]
    fn zero_rounds_returns_initial_cost() {
        let pts = cloud(3, 10);
        let ls = local_search_kcenter(&pts, &pts, &[0], &Euclidean, 0);
        assert_eq!(ls.center_indices, vec![0]);
        let direct = kcenter_cost(&pts, &[pts[0].clone()], None, &Euclidean);
        assert!((ls.radius - direct).abs() < 1e-12);
    }
}
