//! Equivalence and determinism contracts for the additively-weighted
//! (Apollonius) assignment mode.
//!
//! Weighted assignment compares centers by `d(p, cᵢ) − wᵢ` instead of
//! raw distance. This suite pins its contract against the plain mode:
//!
//! * **w = 0 is bit-identical to plain** — for both kernels (`Scalar`,
//!   `Tiled`), a weighted sweep with all-zero weights produces exactly
//!   the plain sweep's
//!   bits, and an all-certain instance (every spread zero) solves to
//!   exactly the plain solution;
//! * weighted `Tiled` agrees with weighted `Scalar` bit for bit, on
//!   distances and argmin indices;
//! * switching kernels never changes **which pairs are evaluated**: the
//!   weighted sweeps report identical pair-evaluation counts across
//!   both kernels, equal to the plain sweeps' counts;
//! * weighted argmin ties break toward the lowest center index,
//!   including exact Apollonius ties (`d₁ − w₁ == d₂ − w₂` with
//!   different distances) and tied centers straddling tile panels;
//! * unsupported combinations are **typed rejections**
//!   ([`SolveError::WeightedUnsupported`]), never silent fallbacks.

use proptest::prelude::*;
use uncertain_kcenter::core::CountingMetric;
use uncertain_kcenter::metric::Tracked;
use uncertain_kcenter::prelude::*;

fn cfg(kernel: Kernel, mode: AssignmentMode, strategy: CertainStrategy) -> SolverConfig {
    SolverConfig::builder()
        .rule(AssignmentRule::ExpectedDistance)
        .strategy(strategy)
        .kernel(kernel)
        .assignment(mode)
        .eps(0.5)
        .lower_bound(false)
        .build()
        .expect("static test config")
}

/// Deterministic pseudo-random coordinates in `[0, 1)` (xorshift; no
/// external RNG so the goldens never drift).
fn coords(seed: u64, n: usize, dim: usize) -> Vec<Vec<f64>> {
    let mut s = seed | 1;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| (0..dim).map(|_| rnd()).collect()).collect()
}

/// Builds a store of `n` seeded unit-box points.
fn store_of(seed: u64, n: usize, dim: usize) -> PointStore {
    let mut store = PointStore::new(dim);
    for row in coords(seed, n, dim) {
        store.try_push(&row).unwrap();
    }
    store
}

/// One query's additively weighted argmin under the pointwise Euclidean
/// metric: [`DistanceOracle::nearest_each`] over a one-query batch.
fn weighted_nearest(q: &Point, centers: &[Point], w: &[f64]) -> (usize, f64) {
    let mut out = [(0usize, 0.0f64)];
    Euclidean.nearest_each(std::slice::from_ref(q), centers, Some(w), &mut out);
    out[0]
}

/// Deterministic weights in `[0, 0.5)`, one per center.
fn weights_of(seed: u64, k: usize) -> Vec<f64> {
    coords(seed, k, 1).into_iter().map(|r| r[0] * 0.5).collect()
}

/// Zero-weight sweeps reproduce the plain sweeps bit for bit, under
/// every kernel, at a size where the factorized paths genuinely engage
/// (`n·d` well past the factorization threshold, k spanning several
/// tile panels).
#[test]
fn zero_weight_sweeps_are_bit_identical_to_plain() {
    let (n, dim, k) = (600, 8, 10);
    let store = store_of(11, n, dim);
    let points: Vec<PointId> = (0..n - k).map(PointId).collect();
    let centers: Vec<PointId> = (n - k..n).map(PointId).collect();
    let zeros = vec![0.0; k];
    for kernel in Kernel::ALL {
        let oracle = StoreOracle::new(&store, kernel);
        let mut plain = vec![f64::INFINITY; points.len()];
        let mut weighted = vec![f64::INFINITY; points.len()];
        oracle.dists_to_centers_min(&points, &centers, None, &mut plain);
        oracle.dists_to_centers_min(&points, &centers, Some(&zeros), &mut weighted);
        for (i, (p, w)) in plain.iter().zip(&weighted).enumerate() {
            assert_eq!(p.to_bits(), w.to_bits(), "point {i} under {kernel:?}");
        }

        let mut plain_nearest = vec![(0usize, 0.0f64); points.len()];
        let mut weighted_nearest = vec![(0usize, 0.0f64); points.len()];
        oracle.nearest_each(&points, &centers, None, &mut plain_nearest);
        oracle.nearest_each(&points, &centers, Some(&zeros), &mut weighted_nearest);
        for (i, ((pi, pd), (wi, wd))) in plain_nearest.iter().zip(&weighted_nearest).enumerate() {
            assert_eq!(pi, wi, "argmin for point {i} under {kernel:?}");
            assert_eq!(
                pd.to_bits(),
                wd.to_bits(),
                "dist for point {i} under {kernel:?}"
            );
        }
    }
}

/// The six `DistanceOracle` methods as written once for both modes: the
/// pointwise trait defaults (`Euclidean`, counted through
/// `CountingMetric`) and the store oracle's batched overrides under
/// every kernel agree bit for bit on every sweep family, with no
/// weights, nonzero weights and all-zero weights, and tally the same
/// number of evaluations.
#[test]
fn oracle_defaults_match_scalar_store_oracle_bitwise() {
    let (n, dim, k) = (90, 5, 6);
    let points: Vec<Point> = coords(3, n, dim).into_iter().map(Point::new).collect();
    let (pts, centers) = points.split_at(n - k);
    let store = store_of(3, n, dim);
    let ids: Vec<PointId> = (0..n - k).map(PointId).collect();
    let center_ids: Vec<PointId> = (n - k..n).map(PointId).collect();
    let (w, zeros) = (weights_of(8, k), vec![0.0; k]);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let pair_bits =
        |v: &[(usize, f64)]| v.iter().map(|&(i, d)| (i, d.to_bits())).collect::<Vec<_>>();
    let no_weights: Option<&[f64]> = None;
    for kernel in Kernel::ALL {
        for (family, weights) in [
            ("set-min", no_weights),
            ("set-min", Some(&w[..])),
            ("set-min", Some(&zeros[..])),
            ("centers-min", no_weights),
            ("centers-min", Some(&w[..])),
            ("centers-min", Some(&zeros[..])),
            ("nearest-each", no_weights),
            ("nearest-each", Some(&w[..])),
            ("nearest-each", Some(&zeros[..])),
            ("dists-to-one", no_weights),
            ("tracked", no_weights),
        ] {
            let pointwise = CountingMetric::new(&Euclidean);
            let counter = DistCounter::new();
            let oracle = StoreOracle::new(&store, kernel).with_counter(&counter);
            let (mut want, mut got) = (vec![f64::INFINITY; n - k], vec![f64::INFINITY; n - k]);
            let (mut want_nearest, mut got_nearest) =
                (vec![(0, 0.0); n - k], vec![(0, 0.0); n - k]);
            match family {
                "set-min" => {
                    for c in 0..k {
                        let wc = weights.map(|w| w[c]);
                        pointwise.dists_to_set_min(pts, &centers[c], wc, &mut want);
                        oracle.dists_to_set_min(&ids, &center_ids[c], wc, &mut got);
                    }
                }
                "centers-min" => {
                    pointwise.dists_to_centers_min(pts, centers, weights, &mut want);
                    oracle.dists_to_centers_min(&ids, &center_ids, weights, &mut got);
                }
                "nearest-each" => {
                    pointwise.nearest_each(pts, centers, weights, &mut want_nearest);
                    oracle.nearest_each(&ids, &center_ids, weights, &mut got_nearest);
                }
                "dists-to-one" => {
                    pointwise.dists_to_one(pts, &centers[0], &mut want);
                    oracle.dists_to_one(&ids, &center_ids[0], &mut got);
                }
                _ => {
                    let (mut want_rows, mut got_rows) =
                        (vec![Tracked::START; n - k], vec![Tracked::START; n - k]);
                    for c in 0..k {
                        pointwise.dists_to_set_min_tracked(pts, &centers[c], c, &mut want_rows);
                        oracle.dists_to_set_min_tracked(&ids, &center_ids[c], c, &mut got_rows);
                    }
                    want = want_rows.iter().map(|r| r.min).collect();
                    got = got_rows.iter().map(|r| r.min).collect();
                    want_nearest = want_rows.iter().map(|r| (r.nearest, r.min)).collect();
                    got_nearest = got_rows.iter().map(|r| (r.nearest, r.min)).collect();
                }
            }
            let tag = format!("{kernel:?} {family} {weights:?}");
            assert_eq!(bits(&want), bits(&got), "{tag}");
            assert_eq!(pair_bits(&want_nearest), pair_bits(&got_nearest), "{tag}");
            assert_eq!(pointwise.count(), counter.count(), "{tag}");
            assert!(counter.count() > 0, "{tag}");
        }
    }
}

/// The weighted sweeps evaluate exactly the same point–center pairs as
/// the plain sweeps, under every kernel: the pair-evaluation tallies are
/// identical across both kernels and equal to the plain tallies.
/// Weights must only change arithmetic, never coverage.
#[test]
fn weighted_pair_evaluation_counts_are_identical() {
    let (n, dim, k) = (500, 6, 7);
    let store = store_of(23, n, dim);
    let points: Vec<PointId> = (0..n - k).map(PointId).collect();
    let centers: Vec<PointId> = (n - k..n).map(PointId).collect();
    let w = weights_of(42, k);
    let mut counts = Vec::new();
    for kernel in Kernel::ALL {
        let counter = DistCounter::new();
        let oracle = StoreOracle::new(&store, kernel).with_counter(&counter);
        let mut min = vec![f64::INFINITY; points.len()];
        oracle.dists_to_centers_min(&points, &centers, Some(&w), &mut min);
        let mut nearest = vec![(0usize, 0.0f64); points.len()];
        oracle.nearest_each(&points, &centers, Some(&w), &mut nearest);
        counts.push(counter.count());

        let plain_counter = DistCounter::new();
        let plain_oracle = StoreOracle::new(&store, kernel).with_counter(&plain_counter);
        let mut plain_min = vec![f64::INFINITY; points.len()];
        plain_oracle.dists_to_centers_min(&points, &centers, None, &mut plain_min);
        let mut plain_nearest = vec![(0usize, 0.0f64); points.len()];
        plain_oracle.nearest_each(&points, &centers, None, &mut plain_nearest);
        assert_eq!(
            counter.count(),
            plain_counter.count(),
            "weighted vs plain tally under {kernel:?}"
        );
    }
    assert_eq!(counts[0], counts[1], "Scalar vs Tiled weighted tally");
    assert_eq!(counts[0], 2 * (points.len() as u64) * (k as u64));
}

/// Weighted `Tiled` agrees with weighted `Scalar` bit for bit on
/// distances and argmin indices, with nonzero weights in play.
#[test]
fn weighted_factorized_kernels_match_scalar_within_1e9() {
    let (n, dim, k) = (700, 8, 9);
    let store = store_of(37, n, dim);
    let points: Vec<PointId> = (0..n - k).map(PointId).collect();
    let centers: Vec<PointId> = (n - k..n).map(PointId).collect();
    let w = weights_of(5, k);
    let scalar = StoreOracle::new(&store, Kernel::Scalar);
    let mut want_min = vec![f64::INFINITY; points.len()];
    scalar.dists_to_centers_min(&points, &centers, Some(&w), &mut want_min);
    let mut want_nearest = vec![(0usize, 0.0f64); points.len()];
    scalar.nearest_each(&points, &centers, Some(&w), &mut want_nearest);
    for kernel in Kernel::ALL.into_iter().filter(|&k| k != Kernel::Scalar) {
        let oracle = StoreOracle::new(&store, kernel);
        let mut got_min = vec![f64::INFINITY; points.len()];
        oracle.dists_to_centers_min(&points, &centers, Some(&w), &mut got_min);
        for (i, (a, b)) in want_min.iter().zip(&got_min).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "point {i} under {kernel:?}: {a} vs {b}"
            );
        }
        let mut got_nearest = vec![(0usize, 0.0f64); points.len()];
        oracle.nearest_each(&points, &centers, Some(&w), &mut got_nearest);
        for (i, ((ai, ad), (bi, bd))) in want_nearest.iter().zip(&got_nearest).enumerate() {
            assert_eq!(ai, bi, "argmin for point {i} under {kernel:?}");
            assert_eq!(
                ad.to_bits(),
                bd.to_bits(),
                "point {i} under {kernel:?}: {ad} vs {bd}"
            );
        }
    }
}

/// Weighted argmin ties break toward the lowest center index under
/// every kernel, with identical centers carrying identical weights
/// straddling the tiled kernel's 4-wide panel boundaries.
#[test]
fn weighted_nearest_ties_break_low_under_every_kernel() {
    let (n, dim, k) = (400, 8, 10);
    let mut store = store_of(99, n, dim);
    let c = store.coords(PointId(0)).to_vec();
    let centers: Vec<PointId> = (0..k).map(|_| store.try_push(&c).unwrap()).collect();
    let queries: Vec<PointId> = (0..n).map(PointId).collect();
    let w = vec![0.25; k];
    for kernel in Kernel::ALL {
        let oracle = StoreOracle::new(&store, kernel);
        let mut out = vec![(0usize, 0.0f64); n];
        oracle.nearest_each(&queries, &centers, Some(&w), &mut out);
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(*idx, 0, "query {i} under {kernel:?} picked center {idx}");
        }
    }
}

/// An *exact* Apollonius tie — different distances, weights chosen so
/// `d₁ − w₁ == d₂ − w₂` with no rounding — still breaks toward the
/// lowest index, in either center order.
#[test]
fn exact_apollonius_ties_break_low() {
    let q = Point::new(vec![0.0]);
    let near = Point::new(vec![1.0]); // d = 1, w = 0   → value 1
    let far = Point::new(vec![2.0]); // d = 2, w = 1   → value 1
    let (idx, v) = weighted_nearest(&q, &[near.clone(), far.clone()], &[0.0, 1.0]);
    assert_eq!((idx, v), (0, 1.0));
    let (idx, v) = weighted_nearest(&q, &[far, near], &[1.0, 0.0]);
    assert_eq!((idx, v), (0, 1.0));
}

/// All-certain instances have zero spread everywhere, so the weighted
/// pipeline must reproduce the plain pipeline **bit for bit** — same
/// centers, same assignment, same costs — under every kernel.
#[test]
fn all_certain_weighted_solve_is_bit_identical_to_plain() {
    let (n, dim, k) = (60, 3, 4);
    let points: Vec<UncertainPoint<Point>> = coords(7, n, dim)
        .into_iter()
        .map(|row| UncertainPoint::certain(Point::new(row)))
        .collect();
    let set = UncertainSet::new(points);
    for kernel in Kernel::ALL {
        let plain = Problem::euclidean(set.clone(), k)
            .unwrap()
            .solve(&cfg(
                kernel,
                AssignmentMode::Plain,
                CertainStrategy::Gonzalez,
            ))
            .unwrap();
        let weighted = Problem::euclidean(set.clone(), k)
            .unwrap()
            .solve(&cfg(
                kernel,
                AssignmentMode::AdditivelyWeighted,
                CertainStrategy::Gonzalez,
            ))
            .unwrap();
        assert_eq!(&plain.assignment, &weighted.assignment, "{kernel:?}");
        assert_eq!(
            plain.ecost.to_bits(),
            weighted.ecost.to_bits(),
            "{kernel:?}: ecost {} vs {}",
            plain.ecost,
            weighted.ecost
        );
        assert_eq!(
            plain.certain_radius.to_bits(),
            weighted.certain_radius.to_bits(),
            "{kernel:?}"
        );
        assert_eq!(plain.centers.len(), weighted.centers.len());
        for (a, b) in plain.centers.iter().zip(weighted.centers.iter()) {
            assert_eq!(a.coords(), b.coords(), "{kernel:?}");
        }
        assert!(weighted.report.method.ends_with("/weighted"));
        assert!(!plain.report.method.ends_with("/weighted"));
    }
}

/// Every unsupported weighted combination is a typed
/// [`SolveError::WeightedUnsupported`], never a silent plain fallback:
/// non-Gonzalez strategies and discrete problems all reject.
#[test]
fn weighted_unsupported_combinations_reject_with_typed_errors() {
    let set = clustered(3, 12, 2, 2, 3, 4.0, 1.0, ProbModel::Random);
    for strategy in [
        CertainStrategy::GonzalezLocalSearch { rounds: 5 },
        CertainStrategy::Grid,
        CertainStrategy::ExactDiscrete,
    ] {
        let err = Problem::euclidean(set.clone(), 2)
            .unwrap()
            .solve(&cfg(
                Kernel::Tiled,
                AssignmentMode::AdditivelyWeighted,
                strategy,
            ))
            .unwrap_err();
        assert!(
            matches!(err, SolveError::WeightedUnsupported { .. }),
            "{strategy:?}: {err}"
        );
    }
    // Discrete (finite-metric) problems reject too.
    let pool: Vec<Point> = coords(9, 8, 2).into_iter().map(Point::new).collect();
    let err = Problem::in_metric(set, 2, Euclidean, pool)
        .unwrap()
        .solve(&cfg(
            Kernel::Scalar,
            AssignmentMode::AdditivelyWeighted,
            CertainStrategy::Gonzalez,
        ))
        .unwrap_err();
    assert!(
        matches!(err, SolveError::WeightedUnsupported { .. }),
        "discrete: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random uncertain instances, the weighted pipeline under the
    /// tiled kernel agrees with weighted `Scalar`: same
    /// assignment, cost and radius bits, and identical per-stage
    /// distance-evaluation counts (weights never change which pairs are
    /// evaluated, under any kernel).
    #[test]
    fn weighted_solve_kernels_agree(
        seed in 0u64..1000,
        n in 4usize..16,
        z in 1usize..4,
        dim in 1usize..4,
        k in 1usize..4,
    ) {
        let k = k.min(n);
        let set = clustered(seed, n, z, dim, 3, 5.0, 1.0, ProbModel::Random);
        let scalar = Problem::euclidean(set.clone(), k)
            .unwrap()
            .solve(&cfg(
                Kernel::Scalar,
                AssignmentMode::AdditivelyWeighted,
                CertainStrategy::Gonzalez,
            ))
            .unwrap();
        for kernel in Kernel::ALL.into_iter().filter(|&k| k != Kernel::Scalar) {
            let other = Problem::euclidean(set.clone(), k)
                .unwrap()
                .solve(&cfg(
                    kernel,
                    AssignmentMode::AdditivelyWeighted,
                    CertainStrategy::Gonzalez,
                ))
                .unwrap();
            prop_assert_eq!(&scalar.assignment, &other.assignment, "{:?}", kernel);
            prop_assert_eq!(scalar.ecost.to_bits(), other.ecost.to_bits(), "{:?}", kernel);
            prop_assert_eq!(
                scalar.certain_radius.to_bits(),
                other.certain_radius.to_bits(),
                "{:?}", kernel
            );
            let (s, o) = (scalar.report.distance_evals, other.report.distance_evals);
            prop_assert_eq!(s.representatives, o.representatives, "{:?}", kernel);
            prop_assert_eq!(s.certain_solve, o.certain_solve, "{:?}", kernel);
            prop_assert_eq!(s.assignment, o.assignment, "{:?}", kernel);
            prop_assert_eq!(s.cost, o.cost, "{:?}", kernel);
        }
    }
}
