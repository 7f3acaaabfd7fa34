//! `ukc` — command-line interface for uncertain k-center instances.
//!
//! ```text
//! ukc generate --workload clustered --n 40 --z 4 --dim 2 --seed 7 --out inst.json
//! ukc generate --n 10000 --format ndjson --out feed.ndjson    # one point per line
//! ukc solve    --instance inst.json --k 3 --rule ep --solver gonzalez --out sol.json
//! ukc solve    --instance inst.json --k=3 --format json        # machine-readable report
//! ukc solve    --instance inst.json --k 3 --threads 4          # intra-solve pool lanes
//! ukc solve    --instance inst.json --k 3 --assignment weighted # additively-weighted (Apollonius) mode
//! ukc solve    --instance grown.json --k 3 --base prior.json   # warm start from a prior solution
//! ukc loo      --instance inst.json --k 3                      # batch leave-one-out sweep
//! ukc batch    --instances a.json,b.json,c.json --k 3 --threads 4
//! ukc stream   --k 8 < feed.ndjson                             # memory-bounded streaming
//! ukc stream   --k 8 --input feed.ndjson --chunk 1024 --budget 64
//! ukc evaluate --instance inst.json --solution sol.json
//! ukc bound    --instance inst.json --k 3
//! ukc info     --instance inst.json
//! ukc kmedian  --instance inst.json --k 3
//! ukc kmeans   --instance inst.json --k 3 --seed 1
//! ukc serve    --addr 127.0.0.1:8080 --workers 4 --cache-cap 256
//! ukc serve    --addr 127.0.0.1:8080 --threads 4               # alias of --workers
//! ukc serve    --addr 127.0.0.1:8080 --data-dir ./ukc-data     # durable across restarts
//! ukc serve    --addr 127.0.0.1:8080 --shards 127.0.0.1:8081,127.0.0.1:8082  # coordinator
//! ukc client   --addr 127.0.0.1:8080 --path /healthz
//! ukc client   --addr 127.0.0.1:8080 --path /healthz --timeout 2 --retries 3
//! ukc client   --addr 127.0.0.1:8080 --instance inst.json --k 3   # one-shot /solve
//! ukc client   --addr 127.0.0.1:8080 --instance inst.json --k 3 --base 1a2b3c4d5e6f7081
//! ukc cluster  status --server 127.0.0.1:8080
//! ukc cluster  add    --server 127.0.0.1:8080 --addr 127.0.0.1:8083
//! ukc cluster  remove --server 127.0.0.1:8080 --id 2
//! ```
//!
//! `ukc stream` reads line-delimited JSON (one uncertain point per
//! line: `{"locations": [[...], ...], "probs": [...]}`; `probs`
//! defaults to uniform) from `--input` or stdin, folds it through the
//! memory-bounded `ukc_stream::StreamSolver` in `--chunk`-sized epochs,
//! and emits one JSON report (centers, certified bounds, state digest,
//! memory high-water mark) on stdout.
//!
//! `--threads N` caps how many lanes of the process-wide worker pool a
//! solve (or a batch wave, or the server's waves) may occupy. `N = 1` is
//! fully sequential; any `N` produces bit-identical results — threads
//! are a resource knob, never a semantics knob. `0` is rejected.
//!
//! All subcommands read/write the JSON formats of [`format`]; numeric
//! results print on stdout, diagnostics on stderr, non-zero exit on error.
//! `--format json` (on `solve` and `batch`) emits the full solution +
//! instrumentation report as one JSON document on stdout. A flag the
//! subcommand does not read is an error naming it (exit 1).

mod args;

use args::Args;
use ukc_core::{
    solve_batch_threads, AssignmentRule, CertainStrategy, Problem, Solution, SolverConfig,
};
use ukc_json::format::{loo_document, solution_document, JsonInstance, JsonSolution};
use ukc_json::Json;
use ukc_metric::{Euclidean, Point};
use ukc_uncertain::generators::{
    clustered, line_instance, ring, two_scale, uniform_box, ProbModel,
};
use ukc_uncertain::{ecost_assigned, UncertainSet};

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // `ukc cluster <status|add|remove>` carries its action as a
    // positional word; rewrite it to --action so the strict flag parser
    // stays positional-free everywhere else.
    if argv.first().map(String::as_str) == Some("cluster")
        && argv.get(1).is_some_and(|a| !a.starts_with("--"))
    {
        let action = argv.remove(1);
        argv.insert(1, format!("--action={action}"));
    }
    let code = match Args::parse(argv.into_iter()) {
        Ok(a) => run(&a),
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            2
        }
    };
    std::process::exit(code);
}

fn usage() {
    eprintln!(
        "usage: ukc <generate|solve|loo|batch|stream|evaluate|bound|info|kmedian|kmeans|serve|client|cluster> [--flag value | --flag=value ...]\n\
         see `cargo doc -p ukc-cli` or the module docs for the full flag list"
    );
}

fn run(a: &Args) -> i32 {
    let result = match a.command.as_str() {
        "generate" => cmd_generate(a),
        "solve" => cmd_solve(a),
        "loo" => cmd_loo(a),
        "batch" => cmd_batch(a),
        "stream" => cmd_stream(a),
        "evaluate" => cmd_evaluate(a),
        "bound" => cmd_bound(a),
        "info" => cmd_info(a),
        "kmedian" => cmd_kmedian(a),
        "kmeans" => cmd_kmeans(a),
        "serve" => cmd_serve(a),
        "client" => cmd_client(a),
        "cluster" => cmd_cluster(a),
        other => {
            eprintln!("error: unknown subcommand {other}");
            usage();
            return 2;
        }
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

type CmdResult = Result<(), Box<dyn std::error::Error>>;

fn load_instance_at(path: &str) -> Result<UncertainSet<Point>, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    let json = JsonInstance::parse(&text)?;
    Ok(json.to_set()?)
}

fn load_instance(a: &Args) -> Result<UncertainSet<Point>, Box<dyn std::error::Error>> {
    load_instance_at(a.required("instance")?)
}

fn prob_model(a: &Args) -> Result<ProbModel, Box<dyn std::error::Error>> {
    match a.get_or("probs", "random") {
        "uniform" => Ok(ProbModel::Uniform),
        "random" => Ok(ProbModel::Random),
        "heavy" | "heavy-tail" => Ok(ProbModel::HeavyTail),
        other => Err(format!("unknown prob model {other} (uniform|random|heavy)").into()),
    }
}

/// The flags [`solver_config`] reads, for [`Args::allow`].
const SOLVER_FLAGS: &str = "rule solver rounds eps seed assignment threads";

/// The flags [`client_options`] reads, for [`Args::allow`].
const CLIENT_FLAGS: &str = "timeout retries";

/// Builds a [`SolverConfig`] from the shared `--rule`, `--solver`,
/// `--eps`, `--rounds`, `--seed`, `--assignment` and `--threads` flags.
fn solver_config(a: &Args) -> Result<SolverConfig, Box<dyn std::error::Error>> {
    solver_config_with_seed_default(a, 0)
}

/// Like [`solver_config`] with a caller-chosen `--seed` default
/// (`kmeans` has historically defaulted to seed 1).
fn solver_config_with_seed_default(
    a: &Args,
    default_seed: u64,
) -> Result<SolverConfig, Box<dyn std::error::Error>> {
    let rule = match a.get_or("rule", "ep") {
        "ed" => AssignmentRule::ExpectedDistance,
        "ep" => AssignmentRule::ExpectedPoint,
        "oc" => AssignmentRule::OneCenter,
        other => return Err(format!("unknown rule {other} (ed|ep|oc)").into()),
    };
    let strategy = match a.get_or("solver", "gonzalez") {
        "gonzalez" => CertainStrategy::Gonzalez,
        "local-search" => CertainStrategy::GonzalezLocalSearch {
            rounds: a.parse_or("rounds", 50usize)?,
        },
        "grid" => CertainStrategy::Grid,
        "exact" => CertainStrategy::ExactDiscrete,
        other => {
            return Err(format!("unknown solver {other} (gonzalez|local-search|grid|exact)").into())
        }
    };
    let mut builder = SolverConfig::builder()
        .rule(rule)
        .strategy(strategy)
        .eps(a.parse_or("eps", 0.25f64)?)
        .seed(a.parse_or("seed", default_seed)?);
    // --assignment plain|weighted picks the assignment mode; absent keeps
    // the config default (plain).
    if a.has("assignment") {
        let raw = a.required("assignment")?;
        match ukc_core::AssignmentMode::parse(raw) {
            Some(mode) => builder = builder.assignment(mode),
            None => {
                return Err(args::ArgError::BadValue {
                    key: "assignment".into(),
                    value: raw.into(),
                }
                .into())
            }
        }
    }
    // --threads=N caps the solve's pool lanes (0/non-numeric rejected);
    // absent means auto (UKC_THREADS / available parallelism).
    if let Some(threads) = a.parse_positive("threads")? {
        builder = builder.threads(threads);
    }
    Ok(builder.build()?)
}

/// Output format selector shared by `solve` and `batch`.
fn output_format(a: &Args) -> Result<&str, Box<dyn std::error::Error>> {
    match a.get_or("format", "text") {
        f @ ("text" | "json") => Ok(f),
        other => Err(format!("unknown format {other} (text|json)").into()),
    }
}

fn cmd_generate(a: &Args) -> CmdResult {
    a.allow(&["seed n z dim probs workload clusters out format"])?;
    let seed: u64 = a.parse_or("seed", 7)?;
    let n: usize = a.parse_or("n", 40)?;
    let z: usize = a.parse_or("z", 4)?;
    let dim: usize = a.parse_or("dim", 2)?;
    let probs = prob_model(a)?;
    let set = match a.get_or("workload", "clustered") {
        "clustered" => {
            let clusters: usize = a.parse_or("clusters", 3)?;
            clustered(seed, n, z, dim, clusters, 5.0, 1.5, probs)
        }
        "uniform" => uniform_box(seed, n, z, dim, 100.0, 2.0, probs),
        "ring" => ring(seed, n, z, 50.0, 0.5, probs),
        "two-scale" => two_scale(seed, n, z, dim, 1.0, 150.0, 0.3),
        "line" => line_instance(seed, n, z, 200.0, 3.0, probs),
        other => return Err(format!("unknown workload {other}").into()),
    };
    let json = JsonInstance::from_set(&set);
    let out = a.get_or("out", "instance.json");
    match a.get_or("format", "json") {
        // Compact: a pretty n = 6000, z = 2, d = 32 instance is 12.2 MB,
        // past `ukc serve`'s default `--max-body-bytes` of 8 MiB, where
        // the compact one is 7.4 MB.
        "json" => std::fs::write(out, json.to_json().compact())?,
        // One point per line — the `ukc stream` ingestion format.
        "ndjson" => {
            let mut lines = String::new();
            for p in &json.points {
                let point = Json::obj([
                    (
                        "locations",
                        Json::arr(
                            p.locations
                                .iter()
                                .map(|loc| Json::nums(loc.iter().copied())),
                        ),
                    ),
                    ("probs", Json::nums(p.probs.iter().copied())),
                ]);
                lines.push_str(&point.compact());
                lines.push('\n');
            }
            std::fs::write(out, lines)?;
        }
        other => return Err(format!("unknown format {other} (json|ndjson)").into()),
    }
    eprintln!(
        "wrote {out}: n={} z={} dim={}",
        set.n(),
        set.max_z(),
        json.dim
    );
    Ok(())
}

/// One ndjson line -> an uncertain point. `probs` defaults to uniform.
fn parse_ndjson_point(
    line: &str,
    lineno: usize,
) -> Result<ukc_uncertain::UncertainPoint<Point>, Box<dyn std::error::Error>> {
    let context = |what: &str| format!("line {lineno}: {what}");
    let doc = Json::parse(line).map_err(|e| context(&e.to_string()))?;
    let locations = doc
        .get("locations")
        .ok_or_else(|| context("missing \"locations\""))?
        .as_array()
        .ok_or_else(|| context("\"locations\" must be an array of coordinate arrays"))?;
    let mut points = Vec::with_capacity(locations.len());
    for loc in locations {
        let coords: Vec<f64> = loc
            .as_array()
            .ok_or_else(|| context("each location must be a coordinate array"))?
            .iter()
            .map(|c| {
                c.as_f64()
                    .ok_or_else(|| context("coordinates must be numbers"))
            })
            .collect::<Result<_, _>>()?;
        points.push(Point::try_new(coords).map_err(|e| context(&e.to_string()))?);
    }
    let up = match doc.get("probs") {
        Some(probs) => {
            let probs: Vec<f64> = probs
                .as_array()
                .ok_or_else(|| context("\"probs\" must be an array of numbers"))?
                .iter()
                .map(|p| {
                    p.as_f64()
                        .ok_or_else(|| context("probabilities must be numbers"))
                })
                .collect::<Result<_, _>>()?;
            ukc_uncertain::UncertainPoint::new(points, probs)
        }
        None => ukc_uncertain::UncertainPoint::uniform(points),
    };
    Ok(up.map_err(|e| context(&e.to_string()))?)
}

/// `ukc stream`: fold a line-delimited JSON feed through the
/// memory-bounded streaming solver in `--chunk`-sized epochs and emit
/// one report document. `--format json` (the default) prints the full
/// machine-readable report; `text` prints the headline numbers.
fn cmd_stream(a: &Args) -> CmdResult {
    a.allow(&[SOLVER_FLAGS, "k chunk format budget input out"])?;
    let k: usize = a.parse_required("k")?;
    let config = solver_config(a)?;
    let chunk = a.parse_positive("chunk")?.unwrap_or(4096);
    let format = match a.get_or("format", "json") {
        f @ ("text" | "json") => f,
        other => return Err(format!("unknown format {other} (text|json)").into()),
    };
    let mut builder = ukc_stream::StreamSolver::builder(k).config(config);
    if let Some(budget) = a.parse_positive("budget")? {
        builder = builder.budget(budget);
    }
    let mut solver = builder.build()?;

    use std::io::BufRead;
    let stdin = std::io::stdin();
    let reader: Box<dyn BufRead> = match a.required("input") {
        Ok(path) => Box::new(std::io::BufReader::new(std::fs::File::open(path)?)),
        Err(_) => Box::new(stdin.lock()),
    };
    let mut buffer = Vec::with_capacity(chunk);
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        buffer.push(parse_ndjson_point(line, i + 1)?);
        if buffer.len() == chunk {
            solver.push_chunk(&buffer)?;
            buffer.clear();
        }
    }
    if !buffer.is_empty() {
        solver.push_chunk(&buffer)?;
    }
    if solver.is_empty() {
        return Err("the stream contained no points".into());
    }

    let solution = solver.solution()?;
    let report = &solution.stream;
    let doc = Json::obj([
        ("k", Json::from(k)),
        ("budget", Json::from(solver.budget())),
        ("points", Json::from(report.points as f64)),
        ("epochs", Json::from(report.epochs as f64)),
        ("summary_size", Json::from(report.summary_len)),
        ("threshold", Json::from(report.threshold)),
        ("digest", Json::from(ukc_core::digest_hex(report.digest))),
        ("memory_peak_points", Json::from(report.memory_peak_points)),
        ("distance_evals", Json::from(report.distance_evals as f64)),
        ("merges", Json::from(report.merges as f64)),
        (
            "centers",
            Json::arr(
                solution
                    .centers
                    .iter()
                    .map(|c| Json::nums(c.coords().iter().copied())),
            ),
        ),
        ("certain_radius", Json::from(solution.certain_radius)),
        ("radius_bound", Json::from(solution.radius_bound)),
        ("lower_bound", Json::from(solution.lower_bound)),
        (
            "finalize_report",
            ukc_json::format::report_json(&solution.finalize),
        ),
    ]);
    if let Ok(out) = a.required("out") {
        std::fs::write(out, doc.pretty())?;
        eprintln!("wrote {out}");
    }
    if format == "json" {
        println!("{}", doc.pretty());
        return Ok(());
    }
    println!("points {}", report.points);
    println!(
        "summary_size {} (budget {})",
        report.summary_len,
        solver.budget()
    );
    println!("certain_radius {:.6}", solution.certain_radius);
    println!("radius_bound {:.6}", solution.radius_bound);
    println!("lower_bound {:.6}", solution.lower_bound);
    println!("memory_peak_points {}", report.memory_peak_points);
    println!("digest {}", ukc_core::digest_hex(report.digest));
    Ok(())
}

/// Reconstructs the prior [`Solution`] a `--base <solution.json>` file
/// describes, against the (grown) instance being solved. A solution file
/// records no instance, so the prior's set is taken to be the first
/// `assignment.len()` points of `set`: `--base` trusts that the file
/// solved this instance's prefix, and `warm_start`'s prefix check cannot
/// catch a file written for another instance. Every other mismatch
/// (wrong `k`, a prefix longer than the instance, stale centers, radius
/// drift past the separation certificate, which still runs) falls back
/// cold with a typed reason.
fn load_prior(
    path: &str,
    set: &UncertainSet<Point>,
) -> Result<Solution<Point>, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    let sol = JsonSolution::parse(&text)?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let certain_radius = doc
        .get("certain_radius")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}: missing \"certain_radius\" (not a ukc solution file?)"))?;
    // A set needs a point: an empty assignment still records one, and
    // `warm_start` rejects it as `prior_shape` either way.
    let n_prior = sol.assignment.len().clamp(1, set.n());
    Ok(Solution {
        centers: sol.center_points(),
        assignment: sol.assignment.clone(),
        ecost: sol.ecost,
        set: std::sync::Arc::new(UncertainSet::new(set.points()[..n_prior].to_vec())),
        certain_radius,
        report: ukc_core::Report::default(),
        cost_distances: None,
    })
}

fn cmd_solve(a: &Args) -> CmdResult {
    a.allow(&[SOLVER_FLAGS, "instance k format base out"])?;
    let set = load_instance(a)?;
    let k: usize = a.parse_required("k")?;
    let config = solver_config(a)?;
    let format = output_format(a)?;
    // --base <solution.json> warm-starts from a prior solution of a
    // prefix of this instance; a unusable prior cold-solves with the
    // reason stamped into report.warm.fallback, never an error.
    let prior = match a.required("base") {
        Ok(path) => Some(load_prior(path, &set)?),
        Err(_) => None,
    };
    let problem = Problem::euclidean(set, k)?;
    let sol = match &prior {
        Some(prior) => Solution::warm_start(&problem, &config, prior)?,
        None => problem.solve(&config)?,
    };
    let doc = solution_document(&sol);
    if let Ok(out) = a.required("out") {
        std::fs::write(out, doc.pretty())?;
        eprintln!("wrote {out}");
    }
    if format == "json" {
        println!("{}", doc.pretty());
        return Ok(());
    }
    let lb = sol.report.lower_bound.unwrap_or(0.0);
    println!("ecost {:.6}", sol.ecost);
    println!("lower_bound {lb:.6}");
    println!(
        "ratio_upper_bound {:.4}",
        sol.ecost / lb.max(f64::MIN_POSITIVE)
    );
    println!("certain_radius {:.6}", sol.certain_radius);
    println!(
        "solve_time_ms {:.3} (reps {:.3} / certain {:.3} / assign {:.3} / cost {:.3})",
        sol.report.timings.total.as_secs_f64() * 1e3,
        sol.report.timings.representatives.as_secs_f64() * 1e3,
        sol.report.timings.certain_solve.as_secs_f64() * 1e3,
        sol.report.timings.assignment.as_secs_f64() * 1e3,
        sol.report.timings.cost.as_secs_f64() * 1e3,
    );
    println!("distance_evals {}", sol.report.distance_evals.total());
    if let Some(warm) = &sol.report.warm {
        match &warm.fallback {
            None => println!(
                "warm reused_centers={} evals_saved={}",
                warm.reused_centers, warm.evals_saved
            ),
            Some(reason) => println!("warm fallback={reason}"),
        }
    }
    Ok(())
}

/// `ukc loo`: the batch leave-one-out sweep — all `n` one-point-removed
/// variants of the instance, sharing one point store and one base
/// solution (see [`ukc_core::solve_loo`]). `--format json` emits the
/// full per-variant report; `text` prints the headline numbers.
fn cmd_loo(a: &Args) -> CmdResult {
    a.allow(&[SOLVER_FLAGS, "instance k format out"])?;
    let set = load_instance(a)?;
    let k: usize = a.parse_required("k")?;
    let config = solver_config(a)?;
    let format = output_format(a)?;
    let problem = Problem::euclidean(set, k)?;
    let loo = ukc_core::solve_loo(&problem, &config)?;
    let doc = loo_document(&loo, solution_document(&loo.base));
    if let Ok(out) = a.required("out") {
        std::fs::write(out, doc.pretty())?;
        eprintln!("wrote {out}");
    }
    if format == "json" {
        println!("{}", doc.pretty());
        return Ok(());
    }
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in &loo.variants {
        min = min.min(v.ecost);
        max = max.max(v.ecost);
    }
    println!("base_ecost {:.6}", loo.base.ecost);
    println!("variants {}", loo.variants.len());
    println!(
        "reused {} resolved {}",
        loo.reused_variants, loo.resolved_variants
    );
    println!("ecost_min {min:.6}");
    println!("ecost_max {max:.6}");
    println!("distance_evals {}", loo.distance_evals);
    Ok(())
}

fn cmd_batch(a: &Args) -> CmdResult {
    a.allow(&[SOLVER_FLAGS, "instances k format"])?;
    let paths: Vec<&str> = a.required("instances")?.split(',').collect();
    let k: usize = a.parse_required("k")?;
    let config = solver_config(a)?;
    let format = output_format(a)?;
    // The same --threads value caps the batch fan-out and (via
    // solver_config) each solve's own lanes — both draw on the one
    // shared pool, so they cooperate rather than multiply.
    let threads = match a.parse_positive("threads")? {
        Some(n) => n,
        None => ukc_pool::default_threads(),
    };
    let mut problems = Vec::with_capacity(paths.len());
    for path in &paths {
        problems.push(Problem::euclidean(load_instance_at(path)?, k)?);
    }
    let results = solve_batch_threads(&problems, &config, threads);
    if format == "json" {
        let items = paths
            .iter()
            .zip(&results)
            .map(|(path, result)| match result {
                Ok(sol) => {
                    let mut doc = solution_document(sol);
                    if let Json::Obj(pairs) = &mut doc {
                        pairs.insert(0, ("instance".into(), Json::from(*path)));
                    }
                    doc
                }
                Err(e) => Json::obj([
                    ("instance", Json::from(*path)),
                    ("error", Json::from(e.to_string())),
                ]),
            });
        println!("{}", Json::arr(items).pretty());
        return Ok(());
    }
    println!(
        "{:<32} {:>12} {:>12} {:>10}",
        "instance", "ecost", "lower_bound", "time_ms"
    );
    let mut failures = 0usize;
    for (path, result) in paths.iter().zip(&results) {
        match result {
            Ok(sol) => println!(
                "{path:<32} {:>12.6} {:>12.6} {:>10.3}",
                sol.ecost,
                sol.report.lower_bound.unwrap_or(0.0),
                sol.report.timings.total.as_secs_f64() * 1e3
            ),
            Err(e) => {
                failures += 1;
                println!("{path:<32} error: {e}");
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} of {} instances failed", paths.len()).into());
    }
    Ok(())
}

fn cmd_evaluate(a: &Args) -> CmdResult {
    a.allow(&["instance solution"])?;
    let set = load_instance(a)?;
    let path = a.required("solution")?;
    let text = std::fs::read_to_string(path)?;
    let sol = JsonSolution::parse(&text)?;
    if sol.assignment.len() != set.n() {
        return Err(format!(
            "solution assigns {} points, instance has {}",
            sol.assignment.len(),
            set.n()
        )
        .into());
    }
    let centers = sol.center_points();
    if let Some(&bad) = sol.assignment.iter().find(|&&x| x >= centers.len()) {
        return Err(format!("assignment references center {bad} of {}", centers.len()).into());
    }
    let cost = ecost_assigned(&set, &centers, &sol.assignment, &Euclidean);
    println!("ecost {cost:.6}");
    if (cost - sol.ecost).abs() > 1e-6 * cost.max(1.0) {
        eprintln!(
            "warning: recorded ecost {} differs from recomputed {cost}",
            sol.ecost
        );
    }
    Ok(())
}

fn cmd_bound(a: &Args) -> CmdResult {
    a.allow(&["instance k"])?;
    let set = load_instance(a)?;
    let k: usize = a.parse_required("k")?;
    println!(
        "lower_bound {:.6}",
        ukc_core::lower_bound_euclidean(&set, k)
    );
    Ok(())
}

fn cmd_info(a: &Args) -> CmdResult {
    a.allow(&["instance"])?;
    let set = load_instance(a)?;
    println!("n {}", set.n());
    println!("max_z {}", set.max_z());
    println!("total_locations {}", set.total_locations());
    println!("realizations {}", set.realization_count());
    let dim = set.point(0).locations()[0].dim();
    println!("dim {dim}");
    Ok(())
}

fn cmd_kmedian(a: &Args) -> CmdResult {
    a.allow(&[SOLVER_FLAGS, "instance k"])?;
    let set = load_instance(a)?;
    let k: usize = a.parse_required("k")?;
    let config = solver_config(a)?;
    let pool = set.location_pool();
    let sol = ukc_extensions::uncertain_kmedian(&set, &pool, k, &Euclidean, &config)?;
    println!("kmedian_cost {:.6}", sol.cost);
    Ok(())
}

/// Validates `--data-dir` before anything binds or opens: the path must
/// be (or be creatable as) a writable directory. A file in the way or an
/// unwritable location is a typed [`args::ArgError::BadPath`] — a usage
/// error and a clean exit, not a mid-serve storage failure.
fn validate_data_dir(a: &Args) -> Result<Option<std::path::PathBuf>, args::ArgError> {
    let Ok(raw) = a.required("data-dir") else {
        return Ok(None);
    };
    let bad = |reason: String| args::ArgError::BadPath {
        key: "data-dir".into(),
        path: raw.to_string(),
        reason,
    };
    let path = std::path::PathBuf::from(raw);
    if path.exists() && !path.is_dir() {
        return Err(bad("exists but is not a directory".into()));
    }
    if !path.is_dir() {
        std::fs::create_dir_all(&path)
            .map_err(|e| bad(format!("cannot be created as a directory ({e})")))?;
    }
    // Touch-and-remove probe: prove writability while we can still fail
    // as an argument error rather than a 503 after the listener binds.
    let probe = path.join(".ukc-write-probe");
    std::fs::write(&probe, b"")
        .and_then(|()| std::fs::remove_file(&probe))
        .map_err(|e| bad(format!("is not writable ({e})")))?;
    Ok(Some(path))
}

/// `ukc serve`: run the HTTP solver service on the calling thread.
/// `--workers` and its alias `--threads` cap the pool lanes one solve
/// wave may occupy and the number of waves in flight (the pool is
/// process-wide and shared with intra-solve parallelism); `--workers 0`
/// means auto, `--threads 0` is rejected.
/// `--data-dir <path>` makes instances and streams durable (recovered on
/// the next boot); `--snapshot-interval <n>` snapshots each stream every
/// `n` pushed epochs (0 disables snapshots, recovery then replays the
/// full log). `--shards a,b,...` runs this server as a **coordinator**
/// over the listed shard servers (see `docs/ARCHITECTURE.md`);
/// `--replicate-after`, `--shard-timeout-ms`, `--shard-retries`, and
/// `--probe-interval-ms` tune replication and shard transport.
/// `--queue-cap <n>` bounds the solve queue (full = `503 overloaded`).
/// `--ingest-queue-cap <n>` bounds queued pushes per stream (full =
/// `429 ingest_overloaded`); `--solve-staleness-ms <ms>` lets stream
/// solution reads inside the budget re-serve the last response
/// (`"stale": true`) instead of re-solving.
fn cmd_serve(a: &Args) -> CmdResult {
    let own = "addr threads workers cache-cap max-body-bytes data-dir snapshot-interval \
               queue-cap shards replicate-after shard-timeout-ms shard-retries \
               probe-interval-ms ingest-queue-cap solve-staleness-ms";
    a.allow(&[own])?;
    let threads = a.parse_positive("threads")?;
    if threads.is_some() && a.has("workers") {
        return Err("--workers and --threads are aliases; give only one".into());
    }
    let data_dir = validate_data_dir(a)?;
    if data_dir.is_none() && a.has("snapshot-interval") {
        return Err("--snapshot-interval is only meaningful with --data-dir".into());
    }
    let shards: Vec<String> = match a.required("shards") {
        Ok(list) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect(),
        Err(_) => Vec::new(),
    };
    if a.has("shards") && shards.is_empty() {
        return Err("--shards needs a comma-separated list of at least one addr".into());
    }
    if shards.is_empty() {
        for flag in [
            "replicate-after",
            "shard-timeout-ms",
            "shard-retries",
            "probe-interval-ms",
        ] {
            if a.has(flag) {
                return Err(format!("--{flag} is only meaningful with --shards").into());
            }
        }
    }
    let defaults = ukc_server::ServerConfig::default();
    let config = ukc_server::ServerConfig {
        addr: a.get_or("addr", "127.0.0.1:8080").to_string(),
        workers: match threads {
            Some(n) => n,
            None => a.parse_or("workers", 0usize)?,
        },
        cache_cap: a.parse_or("cache-cap", 256usize)?,
        max_body_bytes: a.parse_or("max-body-bytes", 8 * 1024 * 1024usize)?,
        data_dir,
        snapshot_interval: a.parse_or("snapshot-interval", 16u64)?,
        queue_cap: a.parse_or("queue-cap", defaults.queue_cap)?,
        shards,
        replicate_after: a.parse_or("replicate-after", defaults.replicate_after)?,
        shard_timeout_ms: a.parse_or("shard-timeout-ms", defaults.shard_timeout_ms)?,
        shard_retries: a.parse_or("shard-retries", defaults.shard_retries)?,
        probe_interval_ms: a.parse_or("probe-interval-ms", defaults.probe_interval_ms)?,
        ingest_queue_cap: a.parse_or("ingest-queue-cap", defaults.ingest_queue_cap)?,
        solve_staleness_ms: a.parse_or("solve-staleness-ms", defaults.solve_staleness_ms)?,
        ingest_apply_delay_ms: defaults.ingest_apply_delay_ms,
    };
    ukc_server::serve_blocking(config)?;
    Ok(())
}

/// Builds [`ukc_server::client::ClientOptions`] from the shared
/// `--timeout <seconds>` and `--retries <n>` flags (defaults: no
/// timeout, no retries — exactly the pre-flag behavior).
fn client_options(
    a: &Args,
) -> Result<ukc_server::client::ClientOptions, Box<dyn std::error::Error>> {
    let mut options = ukc_server::client::ClientOptions::default();
    if a.has("timeout") {
        let seconds: f64 = a.parse_required("timeout")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--timeout must be a positive number of seconds".into());
        }
        options.timeout = Some(std::time::Duration::from_secs_f64(seconds));
    }
    options.retries = a.parse_or("retries", 0u32)?;
    Ok(options)
}

/// `ukc client`: a thin smoke client. Either a raw request
/// (`--path [--method] [--body | --body-file]`) or, with `--instance`,
/// a one-shot `POST /solve` built from the shared `--k`/`--rule`/
/// `--solver`/`--eps`/`--seed` flags. `--timeout <seconds>` bounds each
/// attempt; `--retries <n>` retries connect failures with exponential
/// backoff (100ms, 200ms, 400ms, ...).
fn cmd_client(a: &Args) -> CmdResult {
    a.allow(&[
        CLIENT_FLAGS,
        "addr instance k rule solver eps seed base path method body body-file",
    ])?;
    let addr = a.required("addr")?;
    let (method, path, body) = if let Ok(instance) = a.required("instance") {
        let text = std::fs::read_to_string(instance)?;
        let instance_doc =
            Json::parse(&text).map_err(|e| format!("{instance} is not valid JSON: {e}"))?;
        let k: usize = a.parse_required("k")?;
        let body = Json::obj([
            ("k", Json::from(k)),
            ("rule", Json::from(a.get_or("rule", "ep"))),
            ("solver", Json::from(a.get_or("solver", "gonzalez"))),
            ("eps", Json::from(a.parse_or("eps", 0.25f64)?)),
            ("seed", Json::from(a.parse_or("seed", 0u64)? as f64)),
            ("instance", instance_doc),
        ]);
        // --base <digest> asks the server to warm-start from a prior
        // solve; an unknown base cold-solves with a typed report flag.
        let path = match a.required("base") {
            Ok(base) => format!("/solve?base={base}"),
            Err(_) => "/solve".to_string(),
        };
        ("POST".to_string(), path, Some(body.compact()))
    } else {
        let path = a.get_or("path", "/healthz").to_string();
        let body = if let Ok(file) = a.required("body-file") {
            Some(std::fs::read_to_string(file)?)
        } else {
            a.required("body").ok().map(str::to_string)
        };
        let default_method = if body.is_some() { "POST" } else { "GET" };
        (
            a.get_or("method", default_method).to_uppercase(),
            path,
            body,
        )
    };
    let options = client_options(a)?;
    let response =
        ukc_server::client::request_with(addr, &method, &path, body.as_deref(), &options)?;
    println!("{}", response.body);
    if !response.is_success() {
        return Err(format!("{method} {path} returned status {}", response.status).into());
    }
    Ok(())
}

/// `ukc cluster <status|add|remove> --server <coordinator-addr>`:
/// cluster lifecycle against a running coordinator. `status` prints the
/// registry (role, per-node prefix ranges, liveness, replication
/// gauges); `add --addr host:port` registers a shard by splitting the
/// widest prefix range; `remove --id n` deregisters one, merging its
/// range into a neighbor. Honors `--timeout`/`--retries` like
/// `ukc client`.
fn cmd_cluster(a: &Args) -> CmdResult {
    a.allow(&[CLIENT_FLAGS, "server action addr id"])?;
    let server = a.required("server")?;
    let action = a.get_or("action", "status");
    let (method, path, body) = match action {
        "status" => ("GET", "/cluster/status".to_string(), None),
        "add" => {
            let addr = a.required("addr")?;
            (
                "POST",
                "/cluster/nodes".to_string(),
                Some(Json::obj([("addr", Json::from(addr))]).compact()),
            )
        }
        "remove" => {
            let id: usize = a.parse_required("id")?;
            ("DELETE", format!("/cluster/nodes/{id}"), None)
        }
        other => return Err(format!("unknown cluster action {other} (status|add|remove)").into()),
    };
    let options = client_options(a)?;
    let response =
        ukc_server::client::request_with(server, method, &path, body.as_deref(), &options)?;
    println!("{}", response.body);
    if !response.is_success() {
        return Err(format!("cluster {action} returned status {}", response.status).into());
    }
    Ok(())
}

fn cmd_kmeans(a: &Args) -> CmdResult {
    a.allow(&[SOLVER_FLAGS, "instance k"])?;
    let set = load_instance(a)?;
    let k: usize = a.parse_required("k")?;
    let config = solver_config_with_seed_default(a, 1)?;
    let sol = ukc_extensions::uncertain_kmeans_configured(&set, k, &config)?;
    println!("kmeans_cost {:.6}", sol.cost);
    println!("variance_floor {:.6}", sol.variance_floor);
    Ok(())
}
