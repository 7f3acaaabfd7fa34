//! Guarantee-free baselines.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ukc_core::assignments::{assign_ed, AssignmentRule};
use ukc_kcenter::gonzalez;
use ukc_metric::{DistanceOracle, Euclidean, Point};
use ukc_pool::Exec;
use ukc_uncertain::{ecost_assigned, mode_location, sample_realization, UncertainSet};

/// A baseline's output: centers, ED assignment, and exact expected cost.
#[derive(Clone, Debug)]
pub struct BaselineSolution<P> {
    /// Chosen centers.
    pub centers: Vec<P>,
    /// Expected-distance assignment of every point to a center.
    pub assignment: Vec<usize>,
    /// Exact expected cost under that assignment.
    pub ecost: f64,
}

fn finish<P: Clone + Sync, M: DistanceOracle<P> + Sync>(
    set: &UncertainSet<P>,
    centers: Vec<P>,
    metric: &M,
) -> BaselineSolution<P> {
    // All baselines use the ED assignment so differences come from the
    // center choice alone.
    let assignment = assign_ed(set, &centers, None, metric, Exec::sequential());
    let ecost = ecost_assigned(set, &centers, &assignment, metric);
    BaselineSolution {
        centers,
        assignment,
        ecost,
    }
}

/// Mode baseline: replace every uncertain point by its most likely
/// location, run Gonzalez. Ignores all probability mass except the mode —
/// the ablation-A2 strawman.
pub fn mode_baseline<P: Clone + Sync, M: DistanceOracle<P> + Sync>(
    set: &UncertainSet<P>,
    k: usize,
    metric: &M,
) -> BaselineSolution<P> {
    let reps: Vec<P> = set.iter().map(|up| mode_location(up).clone()).collect();
    let sol = gonzalez(&reps, k, metric, 0);
    finish(set, sol.centers, metric)
}

/// All-locations baseline: treat every location of every point as a
/// certain point (ignoring probabilities) and run Gonzalez with `k`
/// centers over the inflated set.
pub fn all_locations_baseline<P: Clone + Sync, M: DistanceOracle<P> + Sync>(
    set: &UncertainSet<P>,
    k: usize,
    metric: &M,
) -> BaselineSolution<P> {
    let pool = set.location_pool();
    let sol = gonzalez(&pool, k, metric, 0);
    finish(set, sol.centers, metric)
}

/// Realization-sampling baseline (Cormode–McGregor flavored): draw
/// `samples` realizations, pool the realized locations, run Gonzalez on
/// the pool. Probability-aware only through the sampling frequency.
pub fn sample_union_baseline(
    set: &UncertainSet<Point>,
    k: usize,
    samples: usize,
    seed: u64,
) -> BaselineSolution<Point> {
    assert!(samples > 0, "need at least one sample");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<Point> = Vec::with_capacity(samples * set.n());
    for _ in 0..samples {
        let r = sample_realization(set, &mut rng);
        for (i, &j) in r.iter().enumerate() {
            pool.push(set[i].locations()[j].clone());
        }
    }
    let sol = gonzalez(&pool, k, &Euclidean, 0);
    finish(set, sol.centers, &Euclidean)
}

/// Convenience: the paper's own algorithm with the matching signature, for
/// side-by-side tables (Euclidean, Gonzalez backend).
pub fn paper_baseline(
    set: &UncertainSet<Point>,
    k: usize,
    rule: AssignmentRule,
) -> BaselineSolution<Point> {
    let config = ukc_core::SolverConfig::builder()
        .rule(rule)
        .lower_bound(false)
        .build()
        .expect("static baseline config");
    let sol = ukc_core::Problem::euclidean(set.clone(), k.min(set.n()))
        .expect("baseline instances are valid")
        .solve(&config)
        .expect("euclidean pipeline accepts every rule");
    BaselineSolution {
        centers: sol.centers,
        assignment: sol.assignment,
        ecost: sol.ecost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_uncertain::generators::{clustered, two_scale, ProbModel};

    #[test]
    fn baselines_produce_valid_solutions() {
        let set = clustered(1, 12, 3, 2, 3, 4.0, 1.0, ProbModel::Random);
        for sol in [
            mode_baseline(&set, 3, &Euclidean),
            all_locations_baseline(&set, 3, &Euclidean),
            sample_union_baseline(&set, 3, 20, 7),
            paper_baseline(&set, 3, AssignmentRule::ExpectedPoint),
        ] {
            assert!(sol.centers.len() <= 3 && !sol.centers.is_empty());
            assert_eq!(sol.assignment.len(), 12);
            assert!(sol.ecost.is_finite() && sol.ecost >= 0.0);
        }
    }

    #[test]
    fn baselines_respect_lower_bound() {
        let set = clustered(2, 10, 3, 2, 2, 4.0, 1.0, ProbModel::HeavyTail);
        let lb = ukc_core::lower_bound_euclidean(&set, 2);
        for sol in [
            mode_baseline(&set, 2, &Euclidean),
            all_locations_baseline(&set, 2, &Euclidean),
            sample_union_baseline(&set, 2, 30, 3),
        ] {
            assert!(lb <= sol.ecost + 1e-9);
        }
    }

    #[test]
    fn mode_baseline_hurts_on_two_scale() {
        // On the two-scale workload the mode ignores the teleport mass;
        // the paper's expected-distance machinery accounts for it. The
        // paper algorithm should never be much worse, and typically wins.
        let mut paper_wins = 0;
        for seed in 0..10u64 {
            let set = two_scale(seed, 8, 3, 2, 0.5, 200.0, 0.45);
            let mode = mode_baseline(&set, 2, &Euclidean);
            let paper = paper_baseline(&set, 2, AssignmentRule::ExpectedDistance);
            if paper.ecost <= mode.ecost + 1e-9 {
                paper_wins += 1;
            }
        }
        assert!(paper_wins >= 5, "paper won only {paper_wins}/10");
    }

    #[test]
    fn sampling_baseline_deterministic_in_seed() {
        let set = clustered(4, 8, 3, 2, 2, 4.0, 1.0, ProbModel::Random);
        let a = sample_union_baseline(&set, 2, 10, 99);
        let b = sample_union_baseline(&set, 2, 10, 99);
        assert_eq!(a.ecost, b.ecost);
    }
}
