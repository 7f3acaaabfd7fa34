//! Property tests for the deterministic k-center solvers.

use proptest::prelude::*;
use ukc_kcenter::cover::{cover_decision, BitSet};
use ukc_kcenter::{
    exact_discrete_kcenter, gonzalez, kcenter_cost, local_search_kcenter, one_d_kcenter,
    ExactOptions,
};
use ukc_metric::{Euclidean, Point};

fn points(n: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 2..=2), n)
        .prop_map(|rows| rows.into_iter().map(Point::new).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Gonzalez is a 2-approximation of the discrete optimum, and local
    /// search sits between them.
    #[test]
    fn solver_hierarchy(pts in points(3..=12), k in 1usize..=3) {
        let gz = gonzalez(&pts, k, &Euclidean, 0);
        let ls = local_search_kcenter(&pts, &pts, &gz.center_indices, &Euclidean, 30);
        let ex = exact_discrete_kcenter(&pts, &pts, k, &Euclidean, ExactOptions::default())
            .unwrap();
        prop_assert!(ex.radius <= ls.radius + 1e-9);
        prop_assert!(ls.radius <= gz.radius + 1e-9);
        prop_assert!(gz.radius <= 2.0 * ex.radius + 1e-9);
    }

    /// The reported radius always equals the recomputed cost.
    #[test]
    fn reported_radius_is_cost(pts in points(2..=10), k in 1usize..=3) {
        let gz = gonzalez(&pts, k, &Euclidean, 0);
        prop_assert!((kcenter_cost(&pts, &gz.centers, None, &Euclidean) - gz.radius).abs() < 1e-9);
        let ex = exact_discrete_kcenter(&pts, &pts, k, &Euclidean, ExactOptions::default())
            .unwrap();
        prop_assert!((kcenter_cost(&pts, &ex.centers, None, &Euclidean) - ex.radius).abs() < 1e-9);
    }

    /// Exact radius is monotone non-increasing in k.
    #[test]
    fn exact_monotone_in_k(pts in points(4..=10)) {
        let mut prev = f64::INFINITY;
        for k in 1..=4 {
            let ex = exact_discrete_kcenter(&pts, &pts, k, &Euclidean, ExactOptions::default())
                .unwrap();
            prop_assert!(ex.radius <= prev + 1e-12);
            prev = ex.radius;
        }
    }

    /// 1-D exact solver matches the 2-D exact solver on embedded lines.
    #[test]
    fn one_d_matches_discrete_on_lines(vals in prop::collection::vec(-100.0f64..100.0, 3..=10), k in 1usize..=3) {
        let sol = one_d_kcenter(&vals, k);
        // The continuous 1-D optimum can only be <= the discrete optimum
        // (centers restricted to input points), and >= half of it.
        let pts: Vec<Point> = vals.iter().map(|&v| Point::scalar(v)).collect();
        let disc = exact_discrete_kcenter(&pts, &pts, k, &Euclidean, ExactOptions::default())
            .unwrap();
        prop_assert!(sol.radius <= disc.radius + 1e-9);
        prop_assert!(disc.radius <= 2.0 * sol.radius + 1e-9);
    }

    /// Gonzalez output is independent of duplicated tail points.
    #[test]
    fn gonzalez_stable_under_duplicates(pts in points(2..=8), k in 1usize..=3) {
        let base = gonzalez(&pts, k, &Euclidean, 0);
        let mut dup = pts.clone();
        dup.extend(pts.iter().cloned());
        let doubled = gonzalez(&dup, k, &Euclidean, 0);
        prop_assert!((base.radius - doubled.radius).abs() < 1e-9);
    }

    /// Cover decision agrees with subset brute force.
    #[test]
    fn cover_decision_vs_brute(masks_raw in prop::collection::vec(0u32..256, 2..=6), k in 1usize..=3) {
        let n = 8;
        let masks: Vec<BitSet> = masks_raw
            .iter()
            .map(|&bits| {
                let mut b = BitSet::new(n);
                for i in 0..n {
                    if bits >> i & 1 == 1 {
                        b.insert(i);
                    }
                }
                b
            })
            .collect();
        let bb = cover_decision(&masks, k).is_some();
        let mut brute = false;
        let m = masks.len();
        for sel in 0u32..(1 << m) {
            if (sel.count_ones() as usize) > k {
                continue;
            }
            let mut cov = BitSet::new(n);
            #[allow(clippy::needless_range_loop)] // c indexes the selector bits too
            for c in 0..m {
                if sel >> c & 1 == 1 {
                    cov.union_with(&masks[c]);
                }
            }
            if cov.is_full() {
                brute = true;
                break;
            }
        }
        prop_assert_eq!(bb, brute);
    }

    /// A returned cover witness actually covers.
    #[test]
    fn cover_witness_is_valid(masks_raw in prop::collection::vec(1u32..256, 2..=6), k in 1usize..=4) {
        let n = 8;
        let masks: Vec<BitSet> = masks_raw
            .iter()
            .map(|&bits| {
                let mut b = BitSet::new(n);
                for i in 0..n {
                    if bits >> i & 1 == 1 || i == (bits as usize) % n {
                        b.insert(i);
                    }
                }
                b
            })
            .collect();
        if let Some(witness) = cover_decision(&masks, k) {
            prop_assert!(witness.len() <= k);
            let mut cov = BitSet::new(n);
            for &c in &witness {
                cov.union_with(&masks[c]);
            }
            prop_assert!(cov.is_full());
        }
    }
}
