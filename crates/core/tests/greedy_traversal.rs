//! A layout keeps Gonzalez's farthest-first traversal of its
//! representatives, and every problem that shares the layout reads its
//! certain stage off it: a solve at a `k` an earlier solve covered runs
//! no pass, and one at a larger `k` runs only the passes past the
//! traversal's end. Whatever order the solves come in, on whichever
//! threads, each must equal a fresh problem's solve bit for bit, and
//! count what a fresh solve counts: the passes it read count as they
//! did when they ran. (`core::traversal`'s unit tests pin which passes
//! a read runs.)

use std::sync::Barrier;

use ukc_core::{AssignmentMode, AssignmentRule, CertainStrategy, Problem, Solution, SolverConfig};
use ukc_metric::Point;
use ukc_uncertain::generators::{clustered, ProbModel};
use ukc_uncertain::{UncertainPoint, UncertainSet};

const RULES: [AssignmentRule; 3] = [
    AssignmentRule::ExpectedDistance,
    AssignmentRule::ExpectedPoint,
    AssignmentRule::OneCenter,
];

const STRATEGIES: [CertainStrategy; 4] = [
    CertainStrategy::Gonzalez,
    CertainStrategy::Grid,
    CertainStrategy::ExactDiscrete,
    CertainStrategy::GonzalezLocalSearch { rounds: 3 },
];

/// A lower-bounded config. Its ε = 0.01 lays grids too fine for the grid
/// strategy's candidate cap on these sets, so that strategy takes its
/// Gonzalez fallback, the grid path that reads the traversal (the
/// prepared-layout suite covers grids that succeed).
fn config(rule: AssignmentRule, strategy: CertainStrategy, mode: AssignmentMode) -> SolverConfig {
    SolverConfig::builder()
        .rule(rule)
        .strategy(strategy)
        .assignment(mode)
        .eps(0.01)
        .lower_bound(true)
        .build()
        .expect("valid config")
}

fn gonzalez(rule: AssignmentRule) -> SolverConfig {
    config(rule, CertainStrategy::Gonzalez, AssignmentMode::Plain)
}

fn bits(p: &Point) -> Vec<u64> {
    p.coords().iter().map(|v| v.to_bits()).collect()
}

/// Every output bit and count of two solves: centers, assignment,
/// expected cost, certain radius, lower bound and every distance count.
fn assert_same(a: &Solution<Point>, b: &Solution<Point>, ctx: &str) {
    let centers = |s: &Solution<Point>| s.centers.iter().map(bits).collect::<Vec<_>>();
    assert_eq!(centers(a), centers(b), "centers: {ctx}");
    assert_eq!(a.assignment, b.assignment, "assignment: {ctx}");
    assert_eq!(a.ecost.to_bits(), b.ecost.to_bits(), "ecost: {ctx}");
    assert_eq!(
        a.certain_radius.to_bits(),
        b.certain_radius.to_bits(),
        "certain_radius: {ctx}"
    );
    assert_eq!(
        a.report.lower_bound.map(f64::to_bits),
        b.report.lower_bound.map(f64::to_bits),
        "lower_bound: {ctx}"
    );
    let evals = |s: &Solution<Point>| {
        let e = s.report.distance_evals;
        [
            e.representatives,
            e.certain_solve,
            e.assignment,
            e.cost,
            e.lower_bound,
            e.pruned,
        ]
    };
    assert_eq!(evals(a), evals(b), "distance_evals: {ctx}");
}

fn fresh(set: &UncertainSet<Point>, k: usize, config: &SolverConfig) -> Solution<Point> {
    Problem::euclidean(set.clone(), k)
        .unwrap()
        .solve(config)
        .unwrap()
}

fn instance(seed: u64, n: usize) -> UncertainSet<Point> {
    clustered(seed, n, 3, 2, 6, 8.0, 1.0, ProbModel::Random)
}

#[test]
fn mixed_k_solves_of_one_problem_match_fresh_problems() {
    let set = instance(51, 96);
    let mut configs: Vec<SolverConfig> = RULES
        .into_iter()
        .flat_map(|rule| STRATEGIES.map(|s| config(rule, s, AssignmentMode::Plain)))
        .collect();
    configs.push(config(
        AssignmentRule::ExpectedPoint,
        CertainStrategy::Gonzalez,
        AssignmentMode::AdditivelyWeighted,
    ));
    for config in &configs {
        let shared = Problem::euclidean(set.clone(), 1).unwrap();
        for k in [40, 7, 40, 23, 90] {
            let ctx = format!("{:?}/{} k = {k}", config.rule(), config.strategy().name());
            let ctx = format!("{ctx}/{}", config.assignment().name());
            let reused = shared.with_k(k).unwrap().solve(config).unwrap();
            assert_same(&reused, &fresh(&set, k, config), &ctx);
        }
    }
}

/// Certain points at `xs` on a line.
fn line(xs: &[f64]) -> UncertainSet<Point> {
    UncertainSet::new(
        xs.iter()
            .map(|&x| UncertainPoint::certain(Point::scalar(x)))
            .collect(),
    )
}

#[test]
fn k_equal_to_n_and_an_early_stop_read_like_fresh_solves() {
    // k = n: the traversal picks every point, its last radius is 0.
    let set = instance(52, 30);
    for rule in RULES {
        let shared = Problem::euclidean(set.clone(), 1).unwrap();
        for k in [30, 10, 30, 1] {
            let reused = shared.with_k(k).unwrap().solve(&gonzalez(rule)).unwrap();
            let ctx = format!("{rule:?} k = {k} of n = 30");
            assert_same(&reused, &fresh(&set, k, &gonzalez(rule)), &ctx);
        }
    }
    // Three distinct points among twelve: the greedy stops after three
    // picks whatever `k` asks for. The solve at k = 9 runs the third pass
    // and finds every row on a pick, which answers every later `k`.
    let xs: Vec<f64> = (0..12).map(|i| [0.0, 5.0, 11.0][i % 3]).collect();
    let set = line(&xs);
    for rule in RULES {
        let shared = Problem::euclidean(set.clone(), 1).unwrap();
        for k in [2, 9, 5, 12] {
            let reused = shared.with_k(k).unwrap().solve(&gonzalez(rule)).unwrap();
            let expected = fresh(&set, k, &gonzalez(rule));
            assert_eq!(expected.centers.len(), k.min(3));
            let ctx = format!("{rule:?} k = {k} over 3 distinct points");
            assert_same(&reused, &expected, &ctx);
        }
    }
}

#[test]
fn racing_solves_at_mixed_k_match_fresh_solves() {
    let set = instance(53, 400);
    let ks = [60, 12, 90, 35, 120, 5];
    let configs = [
        gonzalez(AssignmentRule::ExpectedPoint),
        gonzalez(AssignmentRule::ExpectedDistance),
    ];
    let expected: Vec<Vec<Solution<Point>>> = configs
        .iter()
        .map(|config| ks.iter().map(|&k| fresh(&set, k, config)).collect())
        .collect();
    let shared = Problem::euclidean(set.clone(), 1).unwrap();
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        for thread in 0..4 {
            let (shared, start, configs, expected) = (&shared, &start, &configs, &expected);
            scope.spawn(move || {
                start.wait();
                let c = thread % 2;
                // Each thread walks the ks from its own offset, so
                // extensions to the same and to different k race.
                for step in 0..ks.len() {
                    let i = (step + thread) % ks.len();
                    let problem = shared.with_k(ks[i]).unwrap();
                    let solution = problem.solve(&configs[c]).unwrap();
                    let ctx = format!("thread {thread} k = {}", ks[i]);
                    assert_same(&solution, &expected[c][i], &ctx);
                }
            });
        }
    });
}

/// A line whose traversal updates nearly every row on each of its first
/// `outliers` passes: a bulk of `bulk` points in `[0, 1)`, and outliers at
/// `±3⁻ⁱ·10⁶⁰` on alternating sides, the first of them row 0. Each
/// outlier is the farthest point from the picks before it, and each
/// lies nearer the bulk than every earlier pick.
fn outlier_ladder(bulk: usize, outliers: i32) -> UncertainSet<Point> {
    let mut xs: Vec<f64> = (0..outliers)
        .map(|i| if i % 2 == 0 { 1e60 } else { -1e60 } / 3f64.powi(i))
        .collect();
    xs.extend((0..bulk).map(|j| j as f64 / bulk as f64));
    line(&xs)
}

/// Past its byte cap (the layout's own row bytes) a traversal stays as
/// it was published, and solves extend private copies: 50 passes that
/// each update all 500 bulk rows log 12 bytes apiece, ~300 kB, against
/// a layout of ~55 kB.
#[test]
fn a_traversal_past_its_cap_extends_a_private_copy() {
    let set = outlier_ladder(500, 50);
    let config = gonzalez(AssignmentRule::ExpectedPoint);
    let shared = Problem::euclidean(set.clone(), 1).unwrap();
    for k in [1, 50, 5, 60, 50, 3] {
        let reused = shared.with_k(k).unwrap().solve(&config).unwrap();
        assert_same(&reused, &fresh(&set, k, &config), &format!("k = {k}"));
    }
}
