//! Bit-identity between the distance kernels.
//!
//! The solver pipeline runs its multi-center sweeps under one of two
//! kernels (`SolverConfig::kernel`): `Scalar`, the per-pair f64
//! difference-and-square loop, and `Tiled`, the default, which screens
//! with a norm-factorized register-tiled mini-GEMM over center panels and
//! refines with the scalar loop. The kernel is a speed hint; this suite
//! pins that it never changes a result bit:
//!
//! * `Scalar` is **bit-identical** to a hand-rolled reference pipeline
//!   built from the pointwise `Euclidean` metric (exact-equality
//!   goldens);
//! * `Tiled` is **bit-identical** to `Scalar` on centers, assignments,
//!   costs, radii and lower bounds;
//! * nearest-center ties break toward the lowest index under every
//!   kernel, including tied centers straddling tile-panel boundaries;
//! * the per-stage `Report.distance_evals` counters, `pruned` included,
//!   are **identical** across the kernels.

use proptest::prelude::*;
use uncertain_kcenter::prelude::*;

fn cfg(rule: AssignmentRule, strategy: CertainStrategy, kernel: Kernel) -> SolverConfig {
    SolverConfig::builder()
        .rule(rule)
        .strategy(strategy)
        .kernel(kernel)
        .eps(0.5)
        .lower_bound(false)
        .build()
        .expect("static test config")
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

fn strategies() -> [CertainStrategy; 4] {
    [
        CertainStrategy::Gonzalez,
        CertainStrategy::GonzalezLocalSearch { rounds: 10 },
        CertainStrategy::Grid,
        CertainStrategy::ExactDiscrete,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The factorized kernel (Tiled) agrees with Scalar on random
    /// instances bit for bit: same assignment, center, cost and radius
    /// bits, identical per-stage eval counts.
    #[test]
    fn factorized_kernels_agree_with_scalar(
        seed in 0u64..1000,
        n in 3usize..16,
        z in 1usize..4,
        dim in 1usize..4,
        k in 1usize..4,
    ) {
        let k = k.min(n);
        let set = clustered(seed, n, z, dim, 3, 5.0, 1.0, ProbModel::Random);
        for rule in rules() {
            for strategy in strategies() {
                let scalar = Problem::euclidean(set.clone(), k)
                    .unwrap()
                    .solve(&cfg(rule, strategy, Kernel::Scalar))
                    .unwrap();
                for kernel in Kernel::ALL.into_iter().filter(|&k| k != Kernel::Scalar) {
                    let other = Problem::euclidean(set.clone(), k)
                        .unwrap()
                        .solve(&cfg(rule, strategy, kernel))
                        .unwrap();
                    prop_assert_eq!(
                        &scalar.assignment, &other.assignment,
                        "assignment ({:?}/{:?}/{:?})", rule, strategy, kernel
                    );
                    prop_assert_eq!(&scalar.centers, &other.centers);
                    prop_assert_eq!(
                        scalar.ecost.to_bits(), other.ecost.to_bits(),
                        "ecost ({:?}/{:?}/{:?})", rule, strategy, kernel
                    );
                    prop_assert_eq!(
                        scalar.certain_radius.to_bits(), other.certain_radius.to_bits(),
                        "radius ({:?}/{:?}/{:?})", rule, strategy, kernel
                    );
                    // The acceptance bar: switching kernels never changes the
                    // number of distance evaluations, stage by stage.
                    let (s, b) = (scalar.report.distance_evals, other.report.distance_evals);
                    prop_assert_eq!(s.representatives, b.representatives);
                    prop_assert_eq!(s.certain_solve, b.certain_solve, "{:?}/{:?}", rule, strategy);
                    prop_assert_eq!(s.assignment, b.assignment);
                    prop_assert_eq!(s.cost, b.cost);
                    prop_assert_eq!(s.lower_bound, b.lower_bound);
                    prop_assert_eq!(s.pruned, b.pruned);
                }
            }
        }
    }

    /// Exact-equality golden: the Scalar kernel reproduces a hand-rolled
    /// pointwise-metric pipeline bit for bit — centers, assignment,
    /// expected cost and certain radius — for every
    /// assignment rule over every certain strategy, the exact-discrete one
    /// over both candidate pools.
    #[test]
    fn scalar_kernel_matches_pointwise_reference_bitwise(
        seed in 0u64..1000,
        n in 2usize..14,
        z in 1usize..4,
        dim in 1usize..4,
        k in 1usize..3,
    ) {
        let k = k.min(n);
        let set = uniform_box(seed, n, z, dim, 10.0, 2.0, ProbModel::Random);
        for rule in rules() {
            for (name, strategy, policy) in pointwise_cases() {
                let config = SolverConfig::builder()
                    .rule(rule)
                    .strategy(strategy)
                    .candidate_policy(policy)
                    .kernel(Kernel::Scalar)
                    .eps(0.5)
                    .lower_bound(false)
                    .build()
                    .expect("static test config");
                // Reference: the paper pipeline over boxed points and the
                // pointwise Euclidean metric (pre-kernel arithmetic).
                let reps: Vec<Point> = match rule {
                    AssignmentRule::OneCenter => set.iter().map(one_center_euclidean).collect(),
                    _ => set.iter().map(expected_point).collect(),
                };
                let greedy = || gonzalez(&reps, k, &Euclidean, 0);
                let certain = match strategy {
                    CertainStrategy::Gonzalez => greedy(),
                    CertainStrategy::GonzalezLocalSearch { rounds } => {
                        let gz = greedy();
                        local_search_kcenter(&reps, &reps, &gz.center_indices, &Euclidean, rounds)
                    }
                    CertainStrategy::Grid => {
                        grid_kcenter(&reps, k, config.grid_options(), Exec::sequential())
                            .unwrap_or_else(greedy)
                    }
                    CertainStrategy::ExactDiscrete => {
                        let pool = match policy {
                            CandidatePolicy::ProblemPool => reps.clone(),
                            CandidatePolicy::LocationPool => set.location_pool(),
                        };
                        exact_discrete_kcenter(&reps, &pool, k, &Euclidean, config.exact_options())
                            .unwrap_or_else(greedy)
                    }
                };
                let assignment = match rule {
                    AssignmentRule::ExpectedDistance => {
                        assign_ed(&set, &certain.centers, None, &Euclidean, Exec::sequential())
                    }
                    AssignmentRule::ExpectedPoint => assign_ep(&set, &certain.centers, &Euclidean),
                    AssignmentRule::OneCenter => {
                        assign_oc(&set, &certain.centers, &reps, &Euclidean)
                    }
                };
                let ecost = ecost_assigned(&set, &certain.centers, &assignment, &Euclidean);

                let sol = Problem::euclidean(set.clone(), k).unwrap().solve(&config).unwrap();

                prop_assert_eq!(&sol.assignment, &assignment, "{} {:?}", name, rule);
                prop_assert_eq!(sol.centers.len(), certain.centers.len());
                for (a, b) in sol.centers.iter().zip(certain.centers.iter()) {
                    let (a, b): (Vec<u64>, Vec<u64>) = (
                        a.coords().iter().map(|x| x.to_bits()).collect(),
                        b.coords().iter().map(|x| x.to_bits()).collect(),
                    );
                    prop_assert_eq!(a, b, "centers ({} {:?})", name, rule);
                }
                prop_assert_eq!(
                    sol.ecost.to_bits(), ecost.to_bits(),
                    "ecost {} vs {} ({} {:?})", sol.ecost, ecost, name, rule
                );
                prop_assert_eq!(
                    sol.certain_radius.to_bits(), certain.radius.to_bits(),
                    "radius ({} {:?})", name, rule
                );
            }
        }
    }

    /// Batch solving under every kernel stays bit-identical to the
    /// sequential loop (the kernels are deterministic and thread-free).
    #[test]
    fn batch_is_bit_identical_under_every_kernel(seed in 0u64..300) {
        for kernel in Kernel::ALL {
            let config = cfg(AssignmentRule::ExpectedPoint, CertainStrategy::Gonzalez, kernel);
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
}

/// Solves whose panel sweeps run the tiled screen (n·k·d ≥ 16384 at
/// d = 64) return the scalar kernel's bits for every rule and strategy,
/// lower bound included.
#[test]
fn tiled_solves_match_scalar_bitwise_where_the_screen_engages() {
    let set = clustered(41, 128, 2, 64, 4, 5.0, 1.0, ProbModel::Random);
    for rule in rules() {
        for strategy in strategies() {
            let solve = |kernel| {
                let config = SolverConfig::builder()
                    .rule(rule)
                    .strategy(strategy)
                    .kernel(kernel)
                    .build()
                    .unwrap();
                Problem::euclidean(set.clone(), 2)
                    .unwrap()
                    .solve(&config)
                    .unwrap()
            };
            let (s, t) = (solve(Kernel::Scalar), solve(Kernel::Tiled));
            let tag = format!("{rule:?}/{strategy:?}");
            assert_eq!(s.centers, t.centers, "{tag}");
            assert_eq!(s.assignment, t.assignment, "{tag}");
            assert_eq!(s.ecost.to_bits(), t.ecost.to_bits(), "{tag}");
            assert_eq!(
                s.certain_radius.to_bits(),
                t.certain_radius.to_bits(),
                "{tag}"
            );
            let bound = |r: &Report| r.lower_bound.map(f64::to_bits);
            assert_eq!(bound(&s.report), bound(&t.report), "{tag}");
            let (a, b) = (s.report.distance_evals, t.report.distance_evals);
            assert_eq!((a.total(), a.pruned), (b.total(), b.pruned), "{tag}");
        }
    }
}

/// A point's distance to itself, and between duplicates, is exactly
/// zero, so duplicate-point degeneracies behave identically under every
/// kernel.
#[test]
fn duplicate_points_collapse_identically() {
    let set = UncertainSet::new(vec![
        UncertainPoint::certain(Point::new(vec![0.1, 0.2, 0.3])),
        UncertainPoint::certain(Point::new(vec![0.1, 0.2, 0.3])),
        UncertainPoint::certain(Point::new(vec![0.1, 0.2, 0.3])),
    ]);
    for kernel in Kernel::ALL {
        let sol = Problem::euclidean(set.clone(), 2)
            .unwrap()
            .solve(&cfg(
                AssignmentRule::ExpectedPoint,
                CertainStrategy::Gonzalez,
                kernel,
            ))
            .unwrap();
        assert_eq!(sol.certain_radius, 0.0, "{kernel:?}");
        assert_eq!(sol.ecost, 0.0, "{kernel:?}");
    }
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

/// Nearest-center ties break toward the lowest index under every
/// kernel, including identical centers straddling the tiled kernel's
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
        let oracle = StoreOracle::new(&store, kernel);
        let mut out = vec![(0usize, 0.0f64); n];
        oracle.nearest_each(&queries, &centers, None, &mut out);
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(*idx, 0, "query {i} under {kernel:?} picked center {idx}");
        }
    }
}
