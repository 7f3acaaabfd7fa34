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
use ukc_metric::DistanceOracle;

/// Improves `initial` center indices (into `candidates`) by best-improvement
/// single swaps until no swap helps or `max_rounds` is exhausted.
///
/// A round costs `n·k` distance evaluations to measure every point's
/// nearest and second-nearest center, then `n` per candidate, instead of
/// the `n·k` per swap of re-running [`kcenter_cost`]: swapping slot `s`
/// for candidate `c` leaves point `i` at `min(restᵢ, d(pᵢ, c))`, where
/// `restᵢ` is its second-nearest distance when `s` is its nearest slot
/// and its nearest distance otherwise. Every swap's cost is exactly the
/// maximum [`kcenter_cost`] folds for the swapped set, and ties keep the
/// first swap in slot-major order, so centers and radius are those of
/// the swap-by-swap loop.
///
/// [`kcenter_cost`]: crate::kcenter_cost
///
/// Returns the final solution. O(rounds · (k + m) · n) distance
/// evaluations for m candidates.
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
    let n = points.len();
    let mut current: Vec<usize> = initial.to_vec();
    let k = current.len();
    let mut to_cand = vec![0.0; n];
    let mut swapped = vec![0.0f64; k];
    let mut staying = vec![0.0f64; k];
    let mut cost = 0.0;
    for round in 0..=max_rounds {
        // Each point's nearest slot and distance `d1` (the first slot to
        // reach it, as the min-sweep keeps it), and the least distance
        // `d2` over the other slots.
        let mut nearest = vec![(0usize, f64::INFINITY, f64::INFINITY); n];
        for (slot, &c) in current.iter().enumerate() {
            metric.dists_to_one(points, &candidates[c], &mut to_cand);
            for (near, &d) in nearest.iter_mut().zip(&to_cand) {
                if d < near.1 {
                    *near = (slot, d, near.1);
                } else if d < near.2 {
                    near.2 = d;
                }
            }
        }
        cost = nearest.iter().map(|near| near.1).fold(0.0, f64::max);
        if round == max_rounds {
            break;
        }
        let mut best_swap: Option<(usize, usize, f64)> = None;
        for (cand, candidate) in candidates.iter().enumerate() {
            if current.contains(&cand) {
                continue;
            }
            metric.dists_to_one(points, candidate, &mut to_cand);
            // Per slot, the farthest of its own points once it is swapped
            // out (they fall back to `d2`), and of its own points while
            // it stays (they keep `d1`).
            swapped.fill(0.0);
            staying.fill(0.0);
            for (&(slot, d1, d2), &d) in nearest.iter().zip(&to_cand) {
                swapped[slot] = swapped[slot].max(if d < d2 { d } else { d2 });
                staying[slot] = staying[slot].max(if d < d1 { d } else { d1 });
            }
            for (slot, &own) in swapped.iter().enumerate() {
                let c = (0..k)
                    .filter(|&t| t != slot)
                    .fold(own, |c, t| c.max(staying[t]));
                let first = best_swap.is_none_or(|(bs, bc, bcost)| {
                    c < bcost || (c == bcost && (slot, cand) < (bs, bc))
                });
                if c < cost && first {
                    best_swap = Some((slot, cand, c));
                }
            }
        }
        match best_swap {
            Some((slot, cand, _)) => current[slot] = cand,
            None => break,
        }
    }
    KCenterSolution {
        centers: current.iter().map(|&i| candidates[i].clone()).collect(),
        center_indices: current,
        radius: cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_discrete_kcenter, ExactOptions};
    use crate::gonzalez::gonzalez;
    use crate::kcenter_cost;
    use ukc_metric::{Euclidean, Point, PointId, PointStore, StoreOracle};

    /// The swap-by-swap loop: every candidate swap re-runs
    /// [`kcenter_cost`] over the swapped set.
    fn swap_by_swap<P: Clone, M: DistanceOracle<P>>(
        points: &[P],
        candidates: &[P],
        initial: &[usize],
        metric: &M,
        max_rounds: usize,
    ) -> KCenterSolution<P> {
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

    fn assert_same<P>(a: &KCenterSolution<P>, b: &KCenterSolution<P>, what: &str) {
        assert_eq!(a.center_indices, b.center_indices, "{what}");
        assert_eq!(a.radius.to_bits(), b.radius.to_bits(), "{what}");
    }

    #[test]
    fn matches_the_swap_by_swap_loop() {
        for seed in 1..9u64 {
            // Coarse coordinates make equal distances, and so tied swaps,
            // common.
            let pts: Vec<Point> = cloud(seed, 30 + seed as usize)
                .iter()
                .map(|p| Point::new(p.coords().iter().map(|c| c.round()).collect()))
                .collect();
            let cands = &pts[..20];
            let store = PointStore::from_points(&pts);
            let ids = store.ids();
            let oracle = StoreOracle::new(&store);
            for k in [1, 2, 4, 7] {
                let initial: Vec<usize> = (0..k).collect();
                for rounds in [0, 1, 3, 50] {
                    let what = format!("seed {seed} k {k} rounds {rounds}");
                    assert_same(
                        &local_search_kcenter(&pts, cands, &initial, &Euclidean, rounds),
                        &swap_by_swap(&pts, cands, &initial, &Euclidean, rounds),
                        &what,
                    );
                    let cand_ids: &[PointId] = &ids[..20];
                    assert_same(
                        &local_search_kcenter(&ids, cand_ids, &initial, &oracle, rounds),
                        &swap_by_swap(&ids, cand_ids, &initial, &oracle, rounds),
                        &what,
                    );
                }
            }
        }
    }

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
