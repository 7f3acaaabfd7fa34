//! Property tests for the future-work extensions: the k-median linearity
//! reduction, the k-means bias–variance identity, and the streaming
//! doubling invariants.

use proptest::prelude::*;
use ukc_extensions::kmeans::ecost_kmeans;
use ukc_extensions::{
    ecost_kmedian, uncertain_kmeans, uncertain_kmedian_exact, uncertain_kmedian_local_search,
    variance, StreamingKCenter,
};
use ukc_kcenter::{exact_discrete_kcenter, kcenter_cost, ExactOptions};
use ukc_metric::{Euclidean, Metric, Point};
use ukc_uncertain::{RealizationIter, UncertainPoint, UncertainSet};

fn uncertain_point() -> impl Strategy<Value = UncertainPoint<Point>> {
    prop::collection::vec(((-50.0f64..50.0, -50.0f64..50.0), 0.05f64..1.0), 1..=3).prop_map(
        |pairs| {
            let total: f64 = pairs.iter().map(|(_, w)| w).sum();
            let locs: Vec<Point> = pairs
                .iter()
                .map(|((x, y), _)| Point::new(vec![*x, *y]))
                .collect();
            let probs: Vec<f64> = pairs.iter().map(|(_, w)| w / total).collect();
            UncertainPoint::new(locs, probs).expect("normalized")
        },
    )
}

fn uncertain_set() -> impl Strategy<Value = UncertainSet<Point>> {
    prop::collection::vec(uncertain_point(), 2..=4).prop_map(UncertainSet::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// k-median linearity: the closed form equals Ω enumeration.
    #[test]
    fn kmedian_linearity(set in uncertain_set()) {
        let centers = vec![Point::new(vec![-10.0, 0.0]), Point::new(vec![10.0, 0.0])];
        let assignment: Vec<usize> = (0..set.n()).map(|i| i % 2).collect();
        let fast = ecost_kmedian(&set, &centers, &assignment, &Euclidean);
        let mut slow = 0.0;
        for (idx, prob) in RealizationIter::new(&set) {
            let mut sum = 0.0;
            for (i, &j) in idx.iter().enumerate() {
                sum += Euclidean.dist(&set[i].locations()[j], &centers[assignment[i]]);
            }
            slow += prob * sum;
        }
        prop_assert!((fast - slow).abs() < 1e-8);
    }

    /// k-means bias–variance identity vs Ω enumeration.
    #[test]
    fn kmeans_identity(set in uncertain_set()) {
        let centers = vec![Point::new(vec![-5.0, 5.0]), Point::new(vec![5.0, -5.0])];
        let assignment: Vec<usize> = (0..set.n()).map(|i| i % 2).collect();
        let fast = ecost_kmeans(&set, &centers, &assignment);
        let mut slow = 0.0;
        for (idx, prob) in RealizationIter::new(&set) {
            let mut sum = 0.0;
            for (i, &j) in idx.iter().enumerate() {
                let d = Euclidean.dist(&set[i].locations()[j], &centers[assignment[i]]);
                sum += d * d;
            }
            slow += prob * sum;
        }
        prop_assert!((fast - slow).abs() < 1e-6 * (1.0 + fast.abs()));
    }

    /// Variance is non-negative and zero iff the point is deterministic.
    #[test]
    fn variance_nonneg(up in uncertain_point()) {
        let v = variance(&up);
        prop_assert!(v >= -1e-12);
        if up.is_certain() {
            prop_assert!(v.abs() < 1e-12);
        }
    }

    /// Exact k-median never loses to local search.
    #[test]
    fn kmedian_exact_beats_local_search(set in uncertain_set()) {
        let pool = set.location_pool();
        let k = 2usize.min(pool.len());
        let exact = uncertain_kmedian_exact(&set, &pool, k, &Euclidean, 1_000_000).unwrap();
        let ls = uncertain_kmedian_local_search(&set, &pool, k, &Euclidean, 30);
        prop_assert!(exact.cost <= ls.cost + 1e-9);
    }

    /// k-means cost is bounded below by the variance floor and the floor
    /// is assignment-independent.
    #[test]
    fn kmeans_floor(set in uncertain_set(), seed in 0u64..100) {
        let sol = uncertain_kmeans(&set, 2, seed, 3, 50);
        prop_assert!(sol.cost >= sol.variance_floor - 1e-9);
        let floor: f64 = set.iter().map(variance).sum();
        prop_assert!((sol.variance_floor - floor).abs() < 1e-9);
    }

    /// Streaming doubling: at most k centers, every inserted point within
    /// the invariant bound, and within 8x of the offline optimum.
    #[test]
    fn streaming_invariants(coords in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 5..=30), k in 2usize..=4) {
        let pts: Vec<Point> = coords.iter().map(|(x, y)| Point::new(vec![*x, *y])).collect();
        let mut s = StreamingKCenter::new(k);
        for p in &pts {
            s.insert(p.clone(), &Euclidean);
        }
        prop_assert!(s.centers().len() <= k);
        let achieved = kcenter_cost(&pts, s.centers(), None, &Euclidean);
        if s.threshold() > 0.0 {
            prop_assert!(achieved <= s.radius_bound() + 1e-9);
        }
        let offline = exact_discrete_kcenter(&pts, &pts, k, &Euclidean, ExactOptions::default())
            .unwrap();
        prop_assert!(achieved <= 8.0 * offline.radius + 1e-9,
            "streaming {achieved} vs offline {}", offline.radius);
    }
}
