//! A [`Problem`] built from an `Arc`'d set solves bit for bit like one
//! built from an owned set, and location-pool centers are realization
//! locations. `PINNED` holds center digests, for every certain strategy
//! (Grid's synthesized centers and both exact-discrete candidate pools
//! included) under every ED/EP/OC rule, recorded from solves that
//! materialized their centers from a per-solve copy of every point, so a
//! change in how the store path names its centers cannot move a center
//! bit. The store path's agreement with a pointwise reference pipeline is
//! `tests/kernel_equivalence.rs::scalar_kernel_matches_pointwise_reference_bitwise`.

use std::sync::Arc;

use ukc_core::{
    AssignmentMode, AssignmentRule, CandidatePolicy, CertainStrategy, Problem, Solution,
    SolverConfig,
};
use ukc_metric::Point;
use ukc_uncertain::generators::{clustered, ProbModel};
use ukc_uncertain::UncertainSet;

const RULES: [AssignmentRule; 3] = [
    AssignmentRule::ExpectedDistance,
    AssignmentRule::ExpectedPoint,
    AssignmentRule::OneCenter,
];

/// Every certain strategy, with both exact-discrete candidate pools.
fn strategies() -> Vec<(&'static str, CertainStrategy, CandidatePolicy)> {
    vec![
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

fn config(
    rule: AssignmentRule,
    strategy: CertainStrategy,
    policy: CandidatePolicy,
) -> SolverConfig {
    SolverConfig::builder()
        .rule(rule)
        .strategy(strategy)
        .candidate_policy(policy)
        .eps(0.5)
        .build()
        .expect("valid config")
}

fn small_set() -> UncertainSet<Point> {
    clustered(3, 24, 3, 2, 3, 6.0, 1.0, ProbModel::Random)
}

/// FNV-1a over the centers' coordinate bits.
fn centers_digest(centers: &[Point]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in centers {
        for x in c.coords() {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Centers, assignment, cost and radius, bit for bit.
fn assert_same_output(a: &Solution<Point>, b: &Solution<Point>, ctx: &str) {
    assert_eq!(a.centers.len(), b.centers.len(), "{ctx}");
    for (x, y) in a.centers.iter().zip(&b.centers) {
        let (x, y): (Vec<u64>, Vec<u64>) = (
            x.coords().iter().map(|v| v.to_bits()).collect(),
            y.coords().iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(x, y, "centers: {ctx}");
    }
    assert_eq!(a.assignment, b.assignment, "assignment: {ctx}");
    assert_eq!(a.ecost.to_bits(), b.ecost.to_bits(), "ecost: {ctx}");
    assert_eq!(
        a.certain_radius.to_bits(),
        b.certain_radius.to_bits(),
        "certain_radius: {ctx}"
    );
}

#[test]
fn arc_built_solve_matches_owned_bit_for_bit() {
    let shared = Arc::new(clustered(8, 300, 3, 4, 5, 20.0, 1.0, ProbModel::Random));
    for rule in RULES {
        let cfg = config(
            rule,
            CertainStrategy::Gonzalez,
            CandidatePolicy::ProblemPool,
        );
        let owned = Problem::euclidean((*shared).clone(), 5).unwrap();
        let from_arc = Problem::euclidean(Arc::clone(&shared), 5).unwrap();
        let (a, b) = (owned.solve(&cfg).unwrap(), from_arc.solve(&cfg).unwrap());
        let ctx = format!("{rule:?}");
        assert_same_output(&a, &b, &ctx);
        assert_eq!(
            a.report.lower_bound.map(f64::to_bits),
            b.report.lower_bound.map(f64::to_bits),
            "lower_bound: {ctx}"
        );
        assert_eq!(
            a.report.distance_evals.total(),
            b.report.distance_evals.total(),
            "evals: {ctx}"
        );
    }
}

#[test]
fn location_pool_centers_are_realization_locations() {
    let set = small_set();
    let pool = set.location_pool();
    for rule in RULES {
        let cfg = config(
            rule,
            CertainStrategy::ExactDiscrete,
            CandidatePolicy::LocationPool,
        );
        let solution = Problem::euclidean(set.clone(), 3)
            .unwrap()
            .solve(&cfg)
            .unwrap();
        for c in &solution.centers {
            assert!(pool.contains(c), "{rule:?}: {c:?} is not a location");
        }
    }
}

/// Center digests of the default solves of [`small_set`], k = 3,
/// recorded before output centers were looked up by id range.
const PINNED: [(&str, [u64; 3]); 6] = [
    (
        "gonzalez",
        [0x1e74c519db0599ca, 0x1e74c519db0599ca, 0x17ee7e465cecce34],
    ),
    (
        "local-search",
        [0x3e065519eba050fa, 0x3e065519eba050fa, 0x324bbe479b93ab40],
    ),
    (
        "grid",
        [0x6446deb64e8a7d0d, 0x6446deb64e8a7d0d, 0xbf20321c02995f37],
    ),
    (
        "exact/problem",
        [0x3e065519eba050fa, 0x3e065519eba050fa, 0x324bbe479b93ab40],
    ),
    (
        "exact/location",
        [0x3fa9bd557ee474ac, 0x3fa9bd557ee474ac, 0x3fa9bd557ee474ac],
    ),
    (
        "gonzalez/weighted",
        [0x1e74c519db0599ca, 0x1e74c519db0599ca, 0x17ee7e465cecce34],
    ),
];

#[test]
fn centers_match_the_pinned_digests() {
    let set = small_set();
    let mut cases = strategies();
    cases.push((
        "gonzalez/weighted",
        CertainStrategy::Gonzalez,
        CandidatePolicy::ProblemPool,
    ));
    let mut got = Vec::new();
    for (name, strategy, policy) in cases {
        let mut digests = [0u64; 3];
        for (slot, rule) in RULES.into_iter().enumerate() {
            let mut builder = SolverConfig::builder()
                .rule(rule)
                .strategy(strategy)
                .candidate_policy(policy)
                .eps(0.5);
            if name.ends_with("weighted") {
                builder = builder.assignment(AssignmentMode::AdditivelyWeighted);
            }
            let solution = Problem::euclidean(set.clone(), 3)
                .unwrap()
                .solve(&builder.build().unwrap())
                .unwrap();
            digests[slot] = centers_digest(&solution.centers);
        }
        got.push((name, digests));
    }
    assert_eq!(got, PINNED.to_vec(), "got {got:#x?}");
}
