//! Equivalence and determinism contracts for the additively-weighted
//! (Apollonius) assignment mode.
//!
//! Weighted assignment compares centers by `d(p, cᵢ) − wᵢ` instead of
//! raw distance. This suite pins its contract against the plain mode:
//!
//! * **w = 0 is bit-identical to plain** — for both batch kernels
//!   (`Scalar`, `Tiled`), a weighted sweep with all-zero weights
//!   produces exactly the plain sweep's bits, and an all-certain
//!   instance (every spread zero) solves to exactly the plain solution;
//! * the weighted `Tiled` sweeps agree with the weighted `Scalar` loop
//!   bit for bit, on distances and argmin indices;
//! * weights never change **which pairs are evaluated**: the weighted
//!   sweeps report the plain sweeps' pair-evaluation counts;
//! * a weighted Gonzalez solve matches a pointwise reference pipeline
//!   bit for bit;
//! * weighted argmin ties break toward the lowest center index,
//!   including exact Apollonius ties (`d₁ − w₁ == d₂ − w₂` with
//!   different distances) and tied centers straddling tile panels;
//! * unsupported combinations are **typed rejections**
//!   ([`SolveError::WeightedUnsupported`]), never silent fallbacks.

use proptest::prelude::*;
use uncertain_kcenter::core::CountingMetric;
use uncertain_kcenter::metric::batch::{self, Kernel};
use uncertain_kcenter::metric::Tracked;
use uncertain_kcenter::prelude::*;

const SEQ: Exec<'static> = Exec::sequential();

fn cfg(mode: AssignmentMode, strategy: CertainStrategy) -> SolverConfig {
    SolverConfig::builder()
        .rule(AssignmentRule::ExpectedDistance)
        .strategy(strategy)
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
/// both batch kernels, at a size where the factorized paths genuinely engage
/// (`n·d` well past the factorization threshold, k spanning several
/// tile panels).
#[test]
fn zero_weight_sweeps_are_bit_identical_to_plain() {
    let (n, dim, k) = (600, 8, 10);
    let store = store_of(11, n, dim);
    let points: Vec<PointId> = (0..n - k).map(PointId).collect();
    let centers: Vec<PointId> = (n - k..n).map(PointId).collect();
    let zeros = vec![0.0; k];
    let zeros = Some(zeros.as_slice());
    for kernel in Kernel::ALL {
        let mut plain = vec![f64::INFINITY; points.len()];
        let mut weighted = vec![f64::INFINITY; points.len()];
        batch::dists_to_centers_min(&store, &points, &centers, None, kernel, SEQ, &mut plain);
        batch::dists_to_centers_min(&store, &points, &centers, zeros, kernel, SEQ, &mut weighted);
        for (i, (p, w)) in plain.iter().zip(&weighted).enumerate() {
            assert_eq!(p.to_bits(), w.to_bits(), "point {i} under {kernel:?}");
        }

        let mut plain_nearest = vec![(0usize, 0.0f64); points.len()];
        let mut weighted_nearest = vec![(0usize, 0.0f64); points.len()];
        let (plain_out, weighted_out) = (&mut plain_nearest, &mut weighted_nearest);
        batch::nearest_center_each(&store, &points, &centers, None, kernel, SEQ, plain_out);
        batch::nearest_center_each(&store, &points, &centers, zeros, kernel, SEQ, weighted_out);
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
/// `CountingMetric`) and the store oracle's batched overrides agree bit
/// for bit on every sweep family, with no
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
    {
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
            let oracle = StoreOracle::new(&store).with_counter(&counter);
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
            let tag = format!("{family} {weights:?}");
            assert_eq!(bits(&want), bits(&got), "{tag}");
            assert_eq!(pair_bits(&want_nearest), pair_bits(&got_nearest), "{tag}");
            assert_eq!(pointwise.count(), counter.count(), "{tag}");
            assert!(counter.count() > 0, "{tag}");
        }
    }
}

/// The weighted sweeps evaluate exactly the same point–center pairs as
/// the plain sweeps, at a size where the store oracle screens them
/// (`n·k·d` past the dispatch cutoff): the pair-evaluation tallies equal
/// the plain tallies. Weights must only change arithmetic, never
/// coverage.
#[test]
fn weighted_pair_evaluation_counts_are_identical() {
    let (n, dim, k) = (500, 6, 7);
    let store = store_of(23, n, dim);
    let points: Vec<PointId> = (0..n - k).map(PointId).collect();
    let centers: Vec<PointId> = (n - k..n).map(PointId).collect();
    let w = weights_of(42, k);
    let counter = DistCounter::new();
    let oracle = StoreOracle::new(&store).with_counter(&counter);
    let mut min = vec![f64::INFINITY; points.len()];
    oracle.dists_to_centers_min(&points, &centers, Some(&w), &mut min);
    let mut nearest = vec![(0usize, 0.0f64); points.len()];
    oracle.nearest_each(&points, &centers, Some(&w), &mut nearest);

    let plain_counter = DistCounter::new();
    let plain_oracle = StoreOracle::new(&store).with_counter(&plain_counter);
    let mut plain_min = vec![f64::INFINITY; points.len()];
    plain_oracle.dists_to_centers_min(&points, &centers, None, &mut plain_min);
    let mut plain_nearest = vec![(0usize, 0.0f64); points.len()];
    plain_oracle.nearest_each(&points, &centers, None, &mut plain_nearest);
    assert_eq!(counter.count(), plain_counter.count(), "weighted vs plain");
    assert_eq!(counter.count(), 2 * (points.len() as u64) * (k as u64));
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
    let w = Some(w.as_slice());
    let mut want_min = vec![f64::INFINITY; points.len()];
    batch::dists_to_centers_min(
        &store,
        &points,
        &centers,
        w,
        Kernel::Scalar,
        SEQ,
        &mut want_min,
    );
    let mut want_nearest = vec![(0usize, 0.0f64); points.len()];
    let want_out = &mut want_nearest;
    batch::nearest_center_each(&store, &points, &centers, w, Kernel::Scalar, SEQ, want_out);
    for kernel in Kernel::ALL.into_iter().filter(|&k| k != Kernel::Scalar) {
        let mut got_min = vec![f64::INFINITY; points.len()];
        batch::dists_to_centers_min(&store, &points, &centers, w, kernel, SEQ, &mut got_min);
        for (i, (a, b)) in want_min.iter().zip(&got_min).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "point {i} under {kernel:?}: {a} vs {b}"
            );
        }
        let mut got_nearest = vec![(0usize, 0.0f64); points.len()];
        let got_out = &mut got_nearest;
        batch::nearest_center_each(&store, &points, &centers, w, kernel, SEQ, got_out);
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
/// both batch kernels, with identical centers carrying identical weights
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
        let mut out = vec![(0usize, 0.0f64); n];
        let w = Some(w.as_slice());
        batch::nearest_center_each(&store, &queries, &centers, w, kernel, SEQ, &mut out);
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
/// centers, same assignment, same costs.
#[test]
fn all_certain_weighted_solve_is_bit_identical_to_plain() {
    let (n, dim, k) = (60, 3, 4);
    let points: Vec<UncertainPoint<Point>> = coords(7, n, dim)
        .into_iter()
        .map(|row| UncertainPoint::certain(Point::new(row)))
        .collect();
    let set = UncertainSet::new(points);
    let solve = |mode| {
        Problem::euclidean(set.clone(), k)
            .unwrap()
            .solve(&cfg(mode, CertainStrategy::Gonzalez))
            .unwrap()
    };
    let plain = solve(AssignmentMode::Plain);
    let weighted = solve(AssignmentMode::AdditivelyWeighted);
    assert_eq!(&plain.assignment, &weighted.assignment);
    assert_eq!(
        plain.ecost.to_bits(),
        weighted.ecost.to_bits(),
        "ecost {} vs {}",
        plain.ecost,
        weighted.ecost
    );
    assert_eq!(
        plain.certain_radius.to_bits(),
        weighted.certain_radius.to_bits()
    );
    assert_eq!(plain.centers.len(), weighted.centers.len());
    for (a, b) in plain.centers.iter().zip(weighted.centers.iter()) {
        assert_eq!(a.coords(), b.coords());
    }
    assert!(weighted.report.method.ends_with("/weighted"));
    assert!(!plain.report.method.ends_with("/weighted"));
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
            .solve(&cfg(AssignmentMode::AdditivelyWeighted, strategy))
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
            AssignmentMode::AdditivelyWeighted,
            CertainStrategy::Gonzalez,
        ))
        .unwrap_err();
    assert!(
        matches!(err, SolveError::WeightedUnsupported { .. }),
        "discrete: {err}"
    );
}

/// The weighted Gonzalez pipeline under `rule` (ED or EP) over boxed
/// points and the pointwise Euclidean metric: spreads, the weighted
/// greedy, then the weighted argmin per point ([`assign_ed`] with
/// weights for ED, [`weighted_nearest`] of each expected point for EP).
/// Returns the assignment, the expected cost and the weighted radius.
fn weighted_reference(
    set: &UncertainSet<Point>,
    k: usize,
    rule: AssignmentRule,
) -> (Vec<usize>, f64, f64) {
    let reps: Vec<Point> = set.iter().map(expected_point).collect();
    let spreads = expected_spreads(set, &reps, &Euclidean);
    let idx = gonzalez_indices(&reps, Some(&spreads), k, &Euclidean, 0);
    let centers: Vec<Point> = idx.iter().map(|&i| reps[i].clone()).collect();
    let weights: Vec<f64> = idx.iter().map(|&i| spreads[i]).collect();
    let nearest: Vec<(usize, f64)> = reps
        .iter()
        .map(|r| weighted_nearest(r, &centers, &weights))
        .collect();
    let radius = nearest.iter().map(|&(_, d)| d).fold(0.0, f64::max);
    let assignment = match rule {
        AssignmentRule::ExpectedDistance => {
            assign_ed(set, &centers, Some(&weights), &Euclidean, SEQ)
        }
        AssignmentRule::ExpectedPoint => nearest.iter().map(|&(i, _)| i).collect(),
        AssignmentRule::OneCenter => unreachable!("weighted OC is not a reference case"),
    };
    let ecost = ecost_assigned(set, &centers, &assignment, &Euclidean);
    (assignment, ecost, radius)
}

/// A weighted `rule`/Gonzalez solve of `set` at `k` against
/// [`weighted_reference`], bit for bit.
fn assert_weighted_matches_reference(set: &UncertainSet<Point>, k: usize, rule: AssignmentRule) {
    let config = SolverConfig::builder()
        .rule(rule)
        .assignment(AssignmentMode::AdditivelyWeighted)
        .build()
        .unwrap();
    let sol = Problem::euclidean(set.clone(), k)
        .unwrap()
        .solve(&config)
        .unwrap();
    let (assignment, ecost, radius) = weighted_reference(set, k, rule);
    assert_eq!(sol.assignment, assignment, "{rule:?}");
    assert_eq!(sol.ecost.to_bits(), ecost.to_bits(), "{rule:?}");
    assert_eq!(sol.certain_radius.to_bits(), radius.to_bits(), "{rule:?}");
}

/// The shape `ukc generate --workload clustered --n 600 --dim 8 --seed 5`
/// writes, at k = 8, where the weighted panel sweeps run the tiled
/// screen: the weighted EP/Gonzalez solve returns the pointwise
/// reference's bits.
#[test]
fn weighted_ep_gonzalez_matches_the_pointwise_reference_on_the_cli_smoke_shape() {
    let set = clustered(5, 600, 4, 8, 3, 5.0, 1.5, ProbModel::Random);
    assert_weighted_matches_reference(&set, 8, AssignmentRule::ExpectedPoint);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random uncertain instances, the weighted ED and EP Gonzalez
    /// solves return the pointwise reference's assignment, cost and
    /// radius bits.
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
        for rule in [AssignmentRule::ExpectedDistance, AssignmentRule::ExpectedPoint] {
            assert_weighted_matches_reference(&set, k, rule);
        }
    }
}
