//! Bit-identity of solves with a pointwise reference.
//!
//! Every solve runs its multi-center sweeps through the store oracle,
//! which screens each one with a norm-factorized register-tiled
//! mini-GEMM over center panels wherever the sweep is large enough for
//! the screen to pay, and refines with the scalar loop; smaller sweeps
//! run the scalar loop outright. The choice is made from the sweep's size
//! alone and picks speed, never bits. This suite pins that:
//!
//! * a default solve is **bit-identical** to a hand-rolled reference
//!   pipeline built from the pointwise `Euclidean` metric — centers,
//!   assignment, expected cost and certain radius — for every rule and
//!   strategy, on small random instances where every sweep runs the
//!   scalar loop and on shapes where the panel sweeps run the screen;
//! * nearest-center ties break toward the lowest index under both batch
//!   kernels, including tied centers straddling tile-panel boundaries.

use proptest::prelude::*;
use uncertain_kcenter::metric::batch::{self, Kernel};
use uncertain_kcenter::prelude::*;

/// The proptests' base configuration: ε = 0.5, no lower bound.
fn base() -> SolverConfigBuilder {
    SolverConfig::builder().eps(0.5).lower_bound(false)
}

fn rules() -> [AssignmentRule; 3] {
    [
        AssignmentRule::ExpectedDistance,
        AssignmentRule::ExpectedPoint,
        AssignmentRule::OneCenter,
    ]
}

/// Every certain strategy, the exact-discrete one over both candidate
/// pools.
fn pointwise_cases() -> [(&'static str, CertainStrategy, CandidatePolicy); 5] {
    [
        (
            "gonzalez",
            CertainStrategy::Gonzalez,
            CandidatePolicy::ProblemPool,
        ),
        (
            "local-search",
            CertainStrategy::GonzalezLocalSearch { rounds: 10 },
            CandidatePolicy::ProblemPool,
        ),
        ("grid", CertainStrategy::Grid, CandidatePolicy::ProblemPool),
        (
            "exact/problem",
            CertainStrategy::ExactDiscrete,
            CandidatePolicy::ProblemPool,
        ),
        (
            "exact/location",
            CertainStrategy::ExactDiscrete,
            CandidatePolicy::LocationPool,
        ),
    ]
}

/// What the reference pipeline returns.
struct Reference {
    centers: Vec<Point>,
    assignment: Vec<usize>,
    ecost: f64,
    radius: f64,
}

/// The paper pipeline under `config` over boxed points and the pointwise
/// Euclidean metric (pre-kernel arithmetic).
fn reference(set: &UncertainSet<Point>, k: usize, config: &SolverConfig) -> Reference {
    let rule = config.rule();
    let reps: Vec<Point> = match rule {
        AssignmentRule::OneCenter => set.iter().map(one_center_euclidean).collect(),
        _ => set.iter().map(expected_point).collect(),
    };
    let greedy = || gonzalez(&reps, k, &Euclidean, 0);
    let certain = match config.strategy() {
        CertainStrategy::Gonzalez => greedy(),
        CertainStrategy::GonzalezLocalSearch { rounds } => {
            let gz = greedy();
            local_search_kcenter(&reps, &reps, &gz.center_indices, &Euclidean, rounds)
        }
        CertainStrategy::Grid => {
            grid_kcenter(&reps, k, config.grid_options(), Exec::sequential()).unwrap_or_else(greedy)
        }
        CertainStrategy::ExactDiscrete => {
            let pool = match config.candidate_policy() {
                CandidatePolicy::ProblemPool => reps.clone(),
                CandidatePolicy::LocationPool => set.location_pool(),
            };
            exact_discrete_kcenter(&reps, &pool, k, &Euclidean, config.exact_options())
                .unwrap_or_else(greedy)
        }
    };
    let assignment = match rule {
        AssignmentRule::ExpectedDistance => {
            assign_ed(set, &certain.centers, None, &Euclidean, Exec::sequential())
        }
        AssignmentRule::ExpectedPoint => assign_ep(set, &certain.centers, &Euclidean),
        AssignmentRule::OneCenter => assign_oc(set, &certain.centers, &reps, &Euclidean),
    };
    let ecost = ecost_assigned(set, &certain.centers, &assignment, &Euclidean);
    Reference {
        centers: certain.centers,
        assignment,
        ecost,
        radius: certain.radius,
    }
}

/// `sol` carries the reference's centers, assignment, cost and radius,
/// bit for bit.
fn assert_matches_reference(sol: &Solution<Point>, want: &Reference, tag: &str) {
    assert_eq!(sol.assignment, want.assignment, "assignment ({tag})");
    assert_eq!(
        sol.centers.len(),
        want.centers.len(),
        "center count ({tag})"
    );
    for (a, b) in sol.centers.iter().zip(&want.centers) {
        let (a, b): (Vec<u64>, Vec<u64>) = (
            a.coords().iter().map(|x| x.to_bits()).collect(),
            b.coords().iter().map(|x| x.to_bits()).collect(),
        );
        assert_eq!(a, b, "centers ({tag})");
    }
    assert_eq!(
        sol.ecost.to_bits(),
        want.ecost.to_bits(),
        "ecost {} vs {} ({tag})",
        sol.ecost,
        want.ecost
    );
    assert_eq!(
        sol.certain_radius.to_bits(),
        want.radius.to_bits(),
        "radius ({tag})"
    );
}

/// Solves `set` at `k` for every rule × strategy (the exact-discrete
/// one over both candidate pools) on top of `base`, each against the
/// pointwise reference; a reported lower bound must be the one
/// `lower_bound_euclidean` certifies.
fn solves_match_reference(set: &UncertainSet<Point>, k: usize, base: SolverConfigBuilder) {
    for rule in rules() {
        for (name, strategy, policy) in pointwise_cases() {
            let config = base
                .clone()
                .rule(rule)
                .strategy(strategy)
                .candidate_policy(policy);
            let config = config.build().unwrap();
            let sol = Problem::euclidean(set.clone(), k)
                .unwrap()
                .solve(&config)
                .unwrap();
            let tag = format!("{name} {rule:?}");
            assert_matches_reference(&sol, &reference(set, k, &config), &tag);
            if let Some(bound) = sol.report.lower_bound {
                let want = lower_bound_euclidean(set, k);
                assert_eq!(bound.to_bits(), want.to_bits(), "{tag}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clustered random instances: a default solve matches the
    /// pointwise reference bit for bit for every rule and strategy.
    #[test]
    fn factorized_kernels_agree_with_scalar(
        seed in 0u64..1000,
        n in 3usize..16,
        z in 1usize..4,
        dim in 1usize..4,
        k in 1usize..4,
    ) {
        let set = clustered(seed, n, z, dim, 3, 5.0, 1.0, ProbModel::Random);
        solves_match_reference(&set, k.min(n), base());
    }

    /// Exact-equality golden: a default solve reproduces the pointwise
    /// pipeline bit for bit — centers, assignment, expected cost and
    /// certain radius — for every assignment rule over every certain
    /// strategy, the exact-discrete one over both candidate pools.
    #[test]
    fn scalar_kernel_matches_pointwise_reference_bitwise(
        seed in 0u64..1000,
        n in 2usize..14,
        z in 1usize..4,
        dim in 1usize..4,
        k in 1usize..3,
    ) {
        let set = uniform_box(seed, n, z, dim, 10.0, 2.0, ProbModel::Random);
        solves_match_reference(&set, k.min(n), base());
    }

    /// Batch solving stays bit-identical to the sequential loop.
    #[test]
    fn batch_is_bit_identical_under_every_kernel(seed in 0u64..300) {
        let config = base().build().unwrap();
        let problems: Vec<Problem<Point>> = (0..4)
            .map(|i| {
                let set = clustered(seed + i, 8, 2, 2, 2, 4.0, 1.0, ProbModel::Random);
                Problem::euclidean(set, 2).unwrap()
            })
            .collect();
        let sequential = solve_batch_threads(&problems, &config, 1);
        let threaded = solve_batch_threads(&problems, &config, 3);
        for (a, b) in sequential.iter().zip(threaded.iter()) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            prop_assert_eq!(a.ecost.to_bits(), b.ecost.to_bits());
            prop_assert_eq!(&a.assignment, &b.assignment);
        }
    }
}

/// Solves whose panel sweeps run the tiled screen (n·k·d ≥ 16384 at
/// d = 64) return the pointwise reference's bits for every rule and
/// strategy, lower bound included.
#[test]
fn tiled_solves_match_scalar_bitwise_where_the_screen_engages() {
    let set = clustered(41, 128, 2, 64, 4, 5.0, 1.0, ProbModel::Random);
    solves_match_reference(&set, 2, SolverConfig::builder());
}

/// The shape `ukc generate --workload clustered --n 600 --dim 8 --seed 5`
/// writes, solved at k = 8 with `ukc solve`'s defaults: n·k·d = 38400, so
/// the panel sweeps run the tiled screen. Every rule × strategy, and the
/// weighted EP/Gonzalez combination in `weighted_equivalence.rs`, must
/// return the pointwise reference's bits.
#[test]
fn default_solves_match_the_pointwise_reference_on_the_cli_smoke_shape() {
    let set = clustered(5, 600, 4, 8, 3, 5.0, 1.5, ProbModel::Random);
    let cli = SolverConfig::builder().eps(0.25).seed(0);
    solves_match_reference(&set, 8, cli);
}

/// A point's distance to itself, and between duplicates, is exactly
/// zero, so duplicate-point degeneracies collapse to a zero cost.
#[test]
fn duplicate_points_collapse_identically() {
    let set = UncertainSet::new(vec![
        UncertainPoint::certain(Point::new(vec![0.1, 0.2, 0.3])),
        UncertainPoint::certain(Point::new(vec![0.1, 0.2, 0.3])),
        UncertainPoint::certain(Point::new(vec![0.1, 0.2, 0.3])),
    ]);
    let sol = Problem::euclidean(set, 2)
        .unwrap()
        .solve(&base().build().unwrap())
        .unwrap();
    assert_eq!(sol.certain_radius, 0.0);
    assert_eq!(sol.ecost, 0.0);
}

/// Deterministic pseudo-random coordinates in `[0, 1)` (xorshift; no
/// external RNG so the goldens below never drift).
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

/// Nearest-center ties break toward the lowest index under both batch
/// kernels, including identical centers straddling the tiled kernel's
/// 4-wide panel boundaries, at a size where the tiled path engages.
#[test]
fn nearest_ties_break_low_under_every_kernel() {
    let (n, dim, k) = (400, 8, 10);
    let mut store = store_of(99, n, dim);
    // Ten identical centers — panels 0, 1, and a padded tail panel.
    let c = store.coords(PointId(0)).to_vec();
    let centers: Vec<PointId> = (0..k).map(|_| store.try_push(&c).unwrap()).collect();
    let queries: Vec<PointId> = (0..n).map(PointId).collect();
    for kernel in Kernel::ALL {
        let mut out = vec![(0usize, 0.0f64); n];
        let seq = Exec::sequential();
        batch::nearest_center_each(&store, &queries, &centers, None, kernel, seq, &mut out);
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(*idx, 0, "query {i} under {kernel:?} picked center {idx}");
        }
    }
}
