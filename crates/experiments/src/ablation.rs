//! Ablation studies A1–A4: the design choices DESIGN.md calls out.
//!
//! * A1 — assignment rule (ED vs EP vs OC) with centers held fixed;
//! * A2 — representative construction (P̄ vs P̃ vs mode);
//! * A3 — exact `E[max]` vs Monte-Carlo estimation (accuracy per sample
//!   budget);
//! * A4 — certain-solver tier (Gonzalez vs +local-search vs grid vs exact
//!   discrete).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ukc_baselines::mode_baseline;
use ukc_core::{AssignmentRule, CertainStrategy, Problem, Solution, SolverConfig};
use ukc_json::Json;
use ukc_metric::Euclidean;
use ukc_pool::Exec;
use ukc_uncertain::generators::{clustered, ring, two_scale, uniform_box, ProbModel};
use ukc_uncertain::{ecost_assigned, ecost_monte_carlo};

/// A named ablation measurement.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Workload name.
    pub workload: String,
    /// Variant name.
    pub variant: String,
    /// Mean exact expected cost across seeds (or the study's metric).
    pub value: f64,
}

/// A complete ablation report.
#[derive(Clone, Debug)]
pub struct AblationReport {
    /// Study id (A1..A4).
    pub id: String,
    /// Description.
    pub description: String,
    /// The metric reported in `value`.
    pub metric: String,
    /// Rows.
    pub rows: Vec<AblationRow>,
}

impl AblationReport {
    /// The report as a JSON document (what `save_ablation` writes).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(self.id.as_str())),
            ("description", Json::from(self.description.as_str())),
            ("metric", Json::from(self.metric.as_str())),
            (
                "rows",
                Json::arr(self.rows.iter().map(|r| {
                    Json::obj([
                        ("workload", Json::from(r.workload.as_str())),
                        ("variant", Json::from(r.variant.as_str())),
                        ("value", Json::from(r.value)),
                    ])
                })),
            ),
        ])
    }
}

/// A named, boxed seeded workload generator.
type Workload = (
    &'static str,
    Box<dyn Fn(u64) -> ukc_uncertain::UncertainSet<ukc_metric::Point> + Sync>,
);

fn workloads() -> Vec<Workload> {
    vec![
        (
            "clustered",
            Box::new(|s| clustered(s, 40, 4, 2, 3, 5.0, 1.5, ProbModel::Random)),
        ),
        (
            "uniform",
            Box::new(|s| uniform_box(s, 40, 4, 2, 50.0, 2.0, ProbModel::Random)),
        ),
        (
            "ring",
            Box::new(|s| ring(s, 40, 4, 30.0, 0.5, ProbModel::Random)),
        ),
        (
            "two-scale",
            Box::new(|s| two_scale(s, 40, 4, 2, 1.0, 150.0, 0.3)),
        ),
    ]
}

const ABLATION_SEEDS: u64 = 6;
const K: usize = 3;

/// One Euclidean solve through the `Problem` API (no per-solve bound:
/// the ablations compare costs, not certificates).
fn solve_eu(
    set: &ukc_uncertain::UncertainSet<ukc_metric::Point>,
    rule: AssignmentRule,
    strategy: CertainStrategy,
) -> Solution<ukc_metric::Point> {
    let config = SolverConfig::builder()
        .rule(rule)
        .strategy(strategy)
        // Only the Grid strategy reads ε; 0.25 matches the "grid ε=0.25"
        // tier label in a4().
        .eps(0.25)
        .lower_bound(false)
        .build()
        .expect("static ablation config");
    Problem::euclidean(set.clone(), K)
        .expect("generated instances are valid")
        .solve(&config)
        .expect("euclidean pipeline accepts every ablation config")
}

fn mean(vals: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = vals.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// A1: with the same Gonzalez centers (from P̄), how much does the
/// assignment rule alone change the exact expected cost?
pub fn a1() -> AblationReport {
    let mut rows = Vec::new();
    for (name, gen) in &workloads() {
        for (variant, rule) in [
            ("ED", AssignmentRule::ExpectedDistance),
            ("EP", AssignmentRule::ExpectedPoint),
            ("OC", AssignmentRule::OneCenter),
        ] {
            let value = mean((0..ABLATION_SEEDS).map(|s| {
                // All three share the P̄-based centers: compute centers via
                // the EP pipeline, then re-assign.
                let set = gen(s);
                let base = solve_eu(
                    &set,
                    AssignmentRule::ExpectedPoint,
                    CertainStrategy::Gonzalez,
                );
                let assignment = match rule {
                    AssignmentRule::ExpectedDistance => ukc_core::assign_ed(
                        &set,
                        &base.centers,
                        None,
                        &Euclidean,
                        Exec::sequential(),
                    ),
                    AssignmentRule::ExpectedPoint => base.assignment.clone(),
                    AssignmentRule::OneCenter => {
                        let reps: Vec<_> = set
                            .iter()
                            .map(ukc_uncertain::one_center_euclidean)
                            .collect();
                        ukc_core::assign_oc(&set, &base.centers, &reps, &Euclidean)
                    }
                };
                ecost_assigned(&set, &base.centers, &assignment, &Euclidean)
            }));
            rows.push(AblationRow {
                workload: name.to_string(),
                variant: variant.to_string(),
                value,
            });
        }
    }
    AblationReport {
        id: "A1".into(),
        description: "Assignment rule with fixed P̄/Gonzalez centers".into(),
        metric: "mean exact Ecost".into(),
        rows,
    }
}

/// A2: representative construction — expected point, 1-center, or mode.
pub fn a2() -> AblationReport {
    let mut rows = Vec::new();
    for (name, gen) in &workloads() {
        for variant in ["P̄ (expected point)", "P̃ (1-center)", "mode"] {
            let value = mean((0..ABLATION_SEEDS).map(|s| {
                let set = gen(s);
                match variant {
                    "P̄ (expected point)" => {
                        solve_eu(
                            &set,
                            AssignmentRule::ExpectedPoint,
                            CertainStrategy::Gonzalez,
                        )
                        .ecost
                    }
                    "P̃ (1-center)" => {
                        solve_eu(&set, AssignmentRule::OneCenter, CertainStrategy::Gonzalez).ecost
                    }
                    _ => mode_baseline(&set, K, &Euclidean).ecost,
                }
            }));
            rows.push(AblationRow {
                workload: name.to_string(),
                variant: variant.to_string(),
                value,
            });
        }
    }
    AblationReport {
        id: "A2".into(),
        description: "Representative construction (pipeline end-to-end)".into(),
        metric: "mean exact Ecost".into(),
        rows,
    }
}

/// A3: Monte-Carlo sample budget needed to match the exact `E[max]` sweep:
/// reports |MC − exact| / exact per budget.
pub fn a3() -> AblationReport {
    let mut rows = Vec::new();
    let set = clustered(9, 40, 4, 2, 3, 5.0, 1.5, ProbModel::HeavyTail);
    let sol = solve_eu(
        &set,
        AssignmentRule::ExpectedPoint,
        CertainStrategy::Gonzalez,
    );
    let exact = sol.ecost;
    for budget in [100usize, 1_000, 10_000, 100_000] {
        let value = mean((0..ABLATION_SEEDS).map(|s| {
            let mut rng = StdRng::seed_from_u64(s);
            let mc = ecost_monte_carlo(
                &set,
                &sol.centers,
                Some(&sol.assignment),
                &Euclidean,
                budget,
                &mut rng,
            );
            (mc.mean - exact).abs() / exact
        }));
        rows.push(AblationRow {
            workload: "clustered".into(),
            variant: format!("{budget} samples"),
            value,
        });
    }
    AblationReport {
        id: "A3".into(),
        description: "Monte-Carlo vs exact expected cost (the exact sweep costs ~one sort)".into(),
        metric: "mean relative error vs exact".into(),
        rows,
    }
}

/// A4: certain-solver tier on the same representatives.
pub fn a4() -> AblationReport {
    let mut rows = Vec::new();
    let tiers: Vec<(&str, CertainStrategy)> = vec![
        ("Gonzalez (2-approx)", CertainStrategy::Gonzalez),
        (
            "Gonzalez + local search",
            CertainStrategy::GonzalezLocalSearch { rounds: 30 },
        ),
        ("grid ε=0.25", CertainStrategy::Grid),
        ("exact discrete", CertainStrategy::ExactDiscrete),
    ];
    for (name, gen) in &workloads() {
        for (variant, solver) in &tiers {
            let value = mean((0..ABLATION_SEEDS).map(|s| {
                let set = gen(s);
                solve_eu(&set, AssignmentRule::ExpectedPoint, *solver).ecost
            }));
            rows.push(AblationRow {
                workload: name.to_string(),
                variant: variant.to_string(),
                value,
            });
        }
    }
    AblationReport {
        id: "A4".into(),
        description: "Certain k-center solver tier (EP rule throughout)".into(),
        metric: "mean exact Ecost".into(),
        rows,
    }
}

/// Prints an ablation report as a pivoted table (workloads × variants).
pub fn print_ablation(report: &AblationReport) {
    println!("\n=== {} — {} ===", report.id, report.description);
    println!("metric: {}", report.metric);
    // Collect column order.
    let mut variants: Vec<&str> = Vec::new();
    for r in &report.rows {
        if !variants.contains(&r.variant.as_str()) {
            variants.push(&r.variant);
        }
    }
    let mut workloads: Vec<&str> = Vec::new();
    for r in &report.rows {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    print!("{:<14}", "workload");
    for v in &variants {
        print!(" {v:>22}");
    }
    println!();
    println!("{}", "-".repeat(14 + 23 * variants.len()));
    for w in &workloads {
        print!("{w:<14}");
        for v in &variants {
            let val = report
                .rows
                .iter()
                .find(|r| r.workload == *w && r.variant == *v)
                .map(|r| r.value)
                .unwrap_or(f64::NAN);
            print!(" {val:>22.4}");
        }
        println!();
    }
}

/// Saves an ablation report as JSON under `reports/`.
pub fn save_ablation(report: &AblationReport) {
    if std::fs::create_dir_all("reports").is_err() {
        return;
    }
    let _ = std::fs::write(
        format!("reports/{}.json", report.id.to_lowercase()),
        report.to_json().pretty(),
    );
}
