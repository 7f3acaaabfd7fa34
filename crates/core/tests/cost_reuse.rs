//! Warm re-solves reuse the prior's per-location cost distances.
//!
//! A cold solve records `d(Pᵢⱼ, c_{a(i)})` for every realization location
//! ([`ukc_core::CostDistances`]). A warm start keeps the prior's centers
//! and prefix assignment, so it takes those values for the prefix instead
//! of re-evaluating them — but only when the prefix carries exactly the
//! locations they were measured on. Every path must land on the same
//! expected-cost bits.

use ukc_core::{Problem, Solution, SolverConfig};
use ukc_metric::Point;
use ukc_uncertain::generators::{clustered, ProbModel};
use ukc_uncertain::{UncertainPoint, UncertainSet};

fn split(seed: u64, n_total: usize, n_base: usize) -> (UncertainSet<Point>, UncertainSet<Point>) {
    let full = clustered(seed, n_total, 2, 2, 5, 60.0, 0.8, ProbModel::Random);
    let base = UncertainSet::new(full.points()[..n_base].to_vec());
    (base, full)
}

fn config() -> SolverConfig {
    SolverConfig::builder().lower_bound(false).build().unwrap()
}

/// `prior` as a solution file would rebuild it: no recorded distances.
fn without_distances(prior: &Solution<Point>) -> Solution<Point> {
    let mut stripped = prior.clone();
    stripped.cost_distances = None;
    stripped
}

#[test]
fn cold_solves_record_one_distance_per_location() {
    let (_, full) = split(3, 120, 120);
    let locations = full.total_locations();
    let cold = Problem::euclidean(full, 5)
        .unwrap()
        .solve(&config())
        .unwrap();
    let recorded = cold.cost_distances.as_ref().expect("store path records");
    assert_eq!(recorded.all().len(), locations);
    assert_eq!(cold.report.distance_evals.cost, locations as u64);
}

#[test]
fn warm_append_evaluates_only_the_appended_locations() {
    let (base, full) = split(5, 330, 300);
    let config = config();
    let prior = Problem::euclidean(base.clone(), 5)
        .unwrap()
        .solve(&config)
        .unwrap();
    let grown = Problem::euclidean(full.clone(), 5).unwrap();
    let warm = Solution::warm_start(&grown, &config, &prior).unwrap();
    assert_eq!(warm.report.warm.as_ref().unwrap().fallback, None);
    let appended: usize = full.points()[300..].iter().map(UncertainPoint::z).sum();
    assert_eq!(warm.report.distance_evals.cost, appended as u64);

    // A prior without recorded distances recomputes — and counts —
    // every location, landing on the same bits.
    let rebuilt = Solution::warm_start(&grown, &config, &without_distances(&prior)).unwrap();
    assert_eq!(
        rebuilt.report.distance_evals.cost,
        full.total_locations() as u64
    );
    assert_eq!(rebuilt.ecost.to_bits(), warm.ecost.to_bits());
    assert_eq!(rebuilt.assignment, warm.assignment);
    assert_eq!(
        rebuilt.cost_distances.unwrap().all(),
        warm.cost_distances.as_ref().unwrap().all()
    );
}

#[test]
fn warm_resolve_without_recorded_distances_matches_cold_bits() {
    let (_, full) = split(11, 300, 300);
    let problem = Problem::euclidean(full, 5).unwrap();
    let config = SolverConfig::default();
    let cold = problem.solve(&config).unwrap();
    let warm = Solution::warm_start(&problem, &config, &without_distances(&cold)).unwrap();
    assert_eq!(warm.report.warm.as_ref().unwrap().fallback, None);
    assert_eq!(
        warm.report.distance_evals.cost,
        problem.set().total_locations() as u64
    );
    assert_eq!(warm.ecost.to_bits(), cold.ecost.to_bits());
    // A prior recording the problem's own set runs warm.
    assert!(std::ptr::eq(&*cold.set, problem.set()), "the set is shared");
    let reused = Solution::warm_start(&problem, &config, &cold).unwrap();
    assert_eq!(reused.report.warm.as_ref().unwrap().fallback, None);
    assert_eq!(reused.report.distance_evals.cost, 0);
    assert_eq!(reused.ecost.to_bits(), cold.ecost.to_bits());
}

#[test]
fn a_reordered_prefix_with_equal_representatives_is_not_reused() {
    // Listing a point's locations in the other order keeps its expected
    // point bit for bit, so the warm path accepts the prior — but the
    // recorded distances would pair with the wrong probabilities.
    let (_, full) = split(13, 200, 200);
    let mut swapped = full.points().to_vec();
    let up = &swapped[0];
    let (mut locs, mut probs) = (up.locations().to_vec(), up.probs().to_vec());
    locs.reverse();
    probs.reverse();
    swapped[0] = UncertainPoint::new(locs, probs).unwrap();
    let swapped = UncertainSet::new(swapped);

    let config = config();
    let prior = Problem::euclidean(full, 5).unwrap().solve(&config).unwrap();
    let problem = Problem::euclidean(swapped.clone(), 5).unwrap();
    let warm = Solution::warm_start(&problem, &config, &prior).unwrap();
    assert_eq!(
        warm.report.warm.as_ref().unwrap().fallback,
        None,
        "representatives agree, so the warm path runs"
    );
    assert_eq!(
        warm.report.distance_evals.cost,
        swapped.total_locations() as u64
    );
    let fresh = Solution::warm_start(&problem, &config, &without_distances(&prior)).unwrap();
    assert_eq!(warm.ecost.to_bits(), fresh.ecost.to_bits());
}

#[test]
fn a_prefix_with_other_probabilities_falls_back_cold() {
    // The prior's prefix and the problem's carry the same locations, so
    // the recorded distances alone would pass the prefix rule; the
    // expected points of the prior's recorded set do not. (Unchanged, this
    // append runs warm: see `warm_append_evaluates_only_the_appended_locations`.)
    let (base, full) = split(5, 330, 300);
    let config = config();
    let prior = Problem::euclidean(base, 5).unwrap().solve(&config).unwrap();
    let mut points = full.points().to_vec();
    let up = &points[7];
    let mut probs = up.probs().to_vec();
    probs.reverse();
    assert_ne!(probs, up.probs(), "the reversal changes the distribution");
    points[7] = UncertainPoint::new(up.locations().to_vec(), probs).unwrap();
    let reweighted = UncertainSet::new(points);
    assert!(prior.cost_prefix(&reweighted, 300).is_some());
    let problem = Problem::euclidean(reweighted, 5).unwrap();
    let warm = Solution::warm_start(&problem, &config, &prior).unwrap();
    assert_eq!(
        warm.report.warm.as_ref().unwrap().fallback,
        Some("prefix_mismatch")
    );
}

#[test]
fn distances_from_another_kernel_are_reused() {
    let (_, full) = split(17, 150, 150);
    let problem = Problem::euclidean(full, 4).unwrap();
    let prior = problem.solve(&config()).unwrap();
    let cold = problem.solve(&config()).unwrap();
    let warm = Solution::warm_start(&problem, &config(), &prior).unwrap();
    assert_eq!(warm.report.warm.as_ref().unwrap().fallback, None);
    assert_eq!(warm.report.distance_evals.cost, 0);
    assert_eq!(warm.ecost.to_bits(), cold.ecost.to_bits());
    assert_eq!(
        prior.cost_distances.as_ref().unwrap().all(),
        cold.cost_distances.as_ref().unwrap().all()
    );
}
