//! `ukc-perfbench`: the load generator of the `ukc serve` benchmark.
//!
//! ```text
//! ukc-perfbench --ukc <path to ukc> --workload <cold_solve|serve_mix|stream_rw>
//!               --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it makes an untraced and a traced run and reports the per-layer
//! metrics. Either way every response is checked, every metric is printed
//! by name with its unit, a results file lands in `--out-dir`, and the
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See `perfbench/README.md`.

mod http;
mod replay;
mod server;
mod stats;
mod trace;
mod workload;
mod yardstick;

use stats::{median, percentile, ratio, samples_beyond, throughput, Attribution, Counters};
use std::path::PathBuf;
use std::time::Instant;
use trace::Spans;
use ukc_json::Json;
use workload::{Class, Inputs, Phase, Ready, Workload};
use yardstick::{to_reference, Coords, Passes};

/// Fresh servers set up per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// `GET /healthz` probes behind `http.rtt_ms`.
const RTT_PROBES: usize = 200;
/// Yardstick passes timed just before and just after each set-up.
const SETUP_PASSES: usize = 40;

struct Args {
    ukc: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        ukc: PathBuf::from(value("--ukc")?),
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        out_dir: value("--out-dir").map_or_else(|_| PathBuf::from(".bench_out"), PathBuf::from),
    })
}

/// One server's life: set-ups, the work phase, and what the server
/// reported around it.
struct Run {
    /// Set-up times as measured, and at the reference host speed.
    setup_s: Vec<f64>,
    setup_ref_s: Vec<f64>,
    /// Mean yardstick pass around the set-ups.
    setup_pass_ms: f64,
    upload_mb_per_s: f64,
    phase: Phase,
    delta: Counters,
    /// Server `VmHWM` once set up (the mean over the set-ups' servers),
    /// and at the end of the work phase.
    peak_rss_mb: f64,
    peak_rss_end_mb: f64,
    /// Final (epochs, summary_size) of the stream (stream_rw).
    stream_state: Option<(u64, usize)>,
    rtt_ms: Vec<f64>,
}

fn run_server(args: &Args, inputs: &Inputs, setups: usize, traced: bool) -> Result<Run, String> {
    // Each set-up is scaled by the yardstick passes timed just before
    // and just after it.
    let coords = Coords::new();
    let mut setup_s = Vec::with_capacity(setups);
    let mut setup_ref_s = Vec::with_capacity(setups);
    let mut rss_mb = Vec::with_capacity(setups);
    let mut all_passes = Passes::default();
    let mut ready: Option<Ready> = None;
    for _ in 0..setups {
        if let Some(previous) = ready.take() {
            previous.server.stop();
        }
        let mut passes = coords.measure(SETUP_PASSES);
        let r = workload::setup(&args.ukc, inputs)?;
        let after = coords.measure(SETUP_PASSES);
        passes.add(after);
        all_passes.add(passes);
        setup_s.push(r.setup_s);
        setup_ref_s.push(to_reference(r.setup_s, passes.mean_ms()));
        // Memory is read once the inputs are in: what the cache holds at
        // the end depends on how many misses the run completed, i.e. on
        // speed.
        rss_mb.push(r.server.peak_rss_mb()?);
        ready = Some(r);
    }
    let ready = ready.expect("at least one set-up");
    let upload_mb_per_s = ready.upload_bytes as f64 / 1e6 / ready.upload_s;
    workload::warm_up(&ready)?;
    let before = Counters::parse(&workload::get(&ready, "/metrics")?)?;
    let phase = workload::work(&ready, inputs, args.seconds, traced)?;
    let delta = Counters::parse(&workload::get(&ready, "/metrics")?)?.since(&before);
    let stream_state = match ready.stream {
        Some(_) => Some(workload::stream_state(&ready)?),
        None => None,
    };
    let rtt_ms = if traced {
        workload::healthz_rtt_ms(&ready, RTT_PROBES)?
    } else {
        Vec::new()
    };
    let peak_rss_end_mb = ready.server.peak_rss_mb()?;
    ready.server.stop();
    Ok(Run {
        setup_s,
        setup_ref_s,
        setup_pass_ms: all_passes.mean_ms(),
        upload_mb_per_s,
        phase,
        delta,
        peak_rss_mb: rss_mb.iter().sum::<f64>() / rss_mb.len() as f64,
        peak_rss_end_mb,
        stream_state,
        rtt_ms,
    })
}

/// The outcome of checking one run beyond its per-response checks.
struct Checked {
    /// Wrong answers found after the fact (each is a failed op).
    wrong: Vec<String>,
    /// Server counters that disagree with the client's own counts.
    unreconciled: Vec<String>,
    layers: replay::Layers,
}

/// Replays the run's inputs in process: checks the answers the server
/// gave and, on the way, times the layers.
fn check(inputs: &Inputs, run: &Run, spans: &mut Spans) -> Checked {
    let origin = Instant::now();
    let phase = &run.phase;
    let mut wrong = Vec::new();
    let mut layers = replay::Layers::default();
    if inputs.workload == Workload::StreamRw {
        let (sets, parse) = replay::parse(&inputs.chunks, spans, origin);
        layers.parse_ms_per_mb = parse;
        layers.digest_ms = replay::digest_ms(&sets, spans, origin);
        let (solver, push_ms) = replay::push_all(
            phase.pushed.iter().map(|&i| sets[i].points()),
            spans,
            origin,
        );
        layers.push_chunk_ms = push_ms;
        let digest = ukc_core::digest_hex(solver.digest());
        if digest != phase.digest {
            wrong.push(format!(
                "stream digest {} != in-process {digest} after {} pushes",
                phase.digest,
                phase.pushed.len()
            ));
        }
        if let Some((epochs, summary)) = run.stream_state {
            layers.summary_size = summary;
            if epochs != phase.epochs {
                wrong.push(format!(
                    "stream reports {epochs} epochs, {} pushes were acked",
                    phase.epochs
                ));
            }
        }
        let solution: Vec<_> = replay::summary_solution(&solver).into_iter().collect();
        layers.render_ms = replay::render_ms(&solution, spans, origin);
    } else {
        let (sets, parse) = replay::parse(&inputs.instances, spans, origin);
        layers.parse_ms_per_mb = parse;
        layers.digest_ms = replay::digest_ms(&sets, spans, origin);
        let (mismatches, kept) = replay::check_ecosts(&sets, &phase.solved);
        wrong.extend(mismatches);
        layers.render_ms = replay::render_ms(&kept, spans, origin);
        let (solver, push_ms) = replay::push_all(
            sets.iter().flat_map(|s| s.points().chunks(256)),
            spans,
            origin,
        );
        layers.push_chunk_ms = push_ms;
        layers.summary_size = solver.summary().len();
    }
    let solves = phase.ops.iter().filter(|o| o.class.solves()).count() as f64;
    let hits = phase.count(Class::Hit) as f64;
    let pushes = phase.count(Class::Push) as f64;
    let mut unreconciled = Vec::new();
    for (what, server, client) in [
        ("solves.ok", run.delta.solves_ok, solves),
        ("cache.hits", run.delta.cache_hits, hits),
        ("ingest.accepted", run.delta.ingest_accepted, pushes),
    ] {
        if server != client {
            unreconciled.push(format!(
                "/metrics {what} grew by {server}, the client counted {client}"
            ));
        }
    }
    Checked {
        wrong,
        unreconciled,
        layers,
    }
}

type Metric = (String, f64, &'static str);

/// Op latencies as measured.
fn latencies(phase: &Phase, keep: impl Fn(Class) -> bool) -> Vec<f64> {
    phase
        .ops
        .iter()
        .filter(|o| keep(o.class))
        .map(|o| o.latency_ms)
        .collect()
}

/// Op latencies at the reference host speed.
fn reference_latencies(phase: &Phase, keep: impl Fn(Class) -> bool) -> Vec<f64> {
    phase
        .ops
        .iter()
        .filter(|o| keep(o.class))
        .map(|o| phase.reference_ms(o))
        .collect()
}

/// Completed ops per second of the work phase as measured, with the
/// yardstick's pauses (side by side on each connection) taken out.
fn raw_ops_per_s(p: &Phase) -> f64 {
    let paused = p.yardstick.total().busy.as_secs_f64() / p.connections.max(1) as f64;
    throughput(p.ops.len(), p.wall_s - paused)
}

/// Ops per second at the reference host speed.
fn reference_ops_per_s(p: &Phase) -> f64 {
    p.yardstick.ops_per_s(p.connections)
}

/// The end-to-end metrics, gated on every workload. Times are at the
/// reference host speed (see `yardstick.rs`).
fn end_to_end(run: &Run) -> Vec<Metric> {
    let p = &run.phase;
    vec![
        ("setup_s".into(), median(&run.setup_ref_s), "s"),
        ("peak_rss_mb".into(), run.peak_rss_mb, "MB"),
        ("ops_per_s".into(), reference_ops_per_s(p), "1/s"),
        (
            "miss_p50_ms".into(),
            median(&reference_latencies(p, Class::solves)),
            "ms",
        ),
        (
            "op_p50_ms".into(),
            median(&reference_latencies(p, |_| true)),
            "ms",
        ),
    ]
}

/// The host's speed and the end-to-end times as measured, before
/// scaling; per-class latencies (at the reference speed), printed by name
/// where the class occurs (`hit_p50_ms`, `push_p90_ms`, `read_p50_ms`,
/// ...); and the server's memory at the end of the run. Not gated: see
/// `perfbench/README.md`.
fn details(run: &Run) -> Vec<Metric> {
    let phase = &run.phase;
    let totals: Vec<f64> = phase.solved.iter().map(|s| s.report.total_ms).collect();
    let passes = phase.yardstick.total();
    let mut out = vec![
        ("yardstick.pass_ms".to_string(), passes.mean_ms(), "ms"),
        ("yardstick.passes".to_string(), passes.count as f64, "count"),
        (
            "yardstick.windows".to_string(),
            phase.yardstick.windows().len() as f64,
            "count",
        ),
        (
            "yardstick.setup_pass_ms".to_string(),
            run.setup_pass_ms,
            "ms",
        ),
        ("raw.setup_s".to_string(), median(&run.setup_s), "s"),
        ("raw.ops_per_s".to_string(), raw_ops_per_s(phase), "1/s"),
        (
            "raw.miss_p50_ms".to_string(),
            median(&latencies(phase, Class::solves)),
            "ms",
        ),
        (
            "raw.op_p50_ms".to_string(),
            median(&latencies(phase, |_| true)),
            "ms",
        ),
        ("peak_rss_end_mb".to_string(), run.peak_rss_end_mb, "MB"),
        ("raw.solve_total_p50_ms".to_string(), median(&totals), "ms"),
    ];
    for class in Class::ALL {
        let v = reference_latencies(phase, |c| c == class);
        if v.is_empty() {
            continue;
        }
        let name = class.name();
        out.push((format!("{name}_count"), v.len() as f64, "count"));
        out.push((format!("{name}_p50_ms"), median(&v), "ms"));
        out.push((
            format!("{name}_p90_ms"),
            percentile(&v, 0.9).unwrap_or(0.0),
            "ms",
        ));
        out.push((
            format!("{name}_beyond_p90"),
            samples_beyond(&v, 0.9) as f64,
            "count",
        ));
    }
    out
}

/// The per-layer metrics of a traced run, plus the per-class
/// attribution behind `trace.unattributed_share`.
fn per_layer(
    inputs: &Inputs,
    traced: &Run,
    checked: &Checked,
    untraced_ops_per_s: f64,
) -> (Vec<Metric>, Vec<(Class, Attribution)>) {
    let p = &traced.phase;
    let reports: Vec<_> = p.solved.iter().map(|s| &s.report).collect();
    let med = |f: &dyn Fn(&workload::StageReport) -> f64| {
        median(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let total_ms = med(&|r| r.total_ms);
    let solve_p50 = median(&latencies(p, Class::solves));
    let rtt = median(&traced.rtt_ms);
    let l = &checked.layers;
    let pair_evals: f64 = reports
        .iter()
        .map(|r| r.evals_certain_solve + r.evals_assignment)
        .sum();
    let pair_secs: f64 = reports
        .iter()
        .map(|r| (r.certain_solve_ms + r.assignment_ms) / 1e3)
        .sum();
    let solves = reports.len() as f64;
    let warm = reports.iter().filter(|r| r.warm_held).count() as f64;
    let ring = inputs.ring();
    let chunk_mb =
        ring.iter().map(String::len).sum::<usize>() as f64 / 1e6 / ring.len().max(1) as f64;

    let mut classes = Vec::new();
    for class in Class::ALL {
        let v = latencies(p, |c| c == class);
        if v.is_empty() {
            continue;
        }
        let attributed = match class {
            Class::Miss | Class::Read => total_ms + l.render_ms + rtt,
            Class::Hit => l.render_ms + rtt,
            Class::Push => l.parse_ms_per_mb * chunk_mb + l.push_chunk_ms + rtt,
        };
        classes.push((
            class,
            Attribution {
                count: v.len(),
                client_p50_ms: median(&v),
                attributed_ms: attributed,
            },
        ));
    }
    let all: Vec<Attribution> = classes.iter().map(|(_, a)| *a).collect();
    let traced_ops_per_s = reference_ops_per_s(p);
    let metrics: Vec<Metric> = vec![
        ("http.rtt_ms".into(), rtt, "ms"),
        (
            "http.upload_mb_per_s".into(),
            traced.upload_mb_per_s,
            "MB/s",
        ),
        ("server.miss_overhead_ms".into(), solve_p50 - total_ms, "ms"),
        (
            "server.cache.hit_rate".into(),
            traced.delta.hit_rate(),
            "ratio",
        ),
        (
            "server.scheduler.jobs_per_wave".into(),
            traced.delta.jobs_per_wave(),
            "count",
        ),
        (
            "server.ingest.accepted".into(),
            traced.delta.ingest_accepted,
            "count",
        ),
        (
            "server.ingest.rejected".into(),
            traced.delta.ingest_rejected,
            "count",
        ),
        ("json.parse_instance_ms".into(), l.parse_ms_per_mb, "ms/MB"),
        ("json.render_solution_ms".into(), l.render_ms, "ms"),
        ("core.digest_ms".into(), l.digest_ms, "ms"),
        (
            "core.representatives_ms".into(),
            med(&|r| r.representatives_ms),
            "ms",
        ),
        (
            "core.certain_solve_ms".into(),
            med(&|r| r.certain_solve_ms),
            "ms",
        ),
        ("core.assignment_ms".into(), med(&|r| r.assignment_ms), "ms"),
        ("core.cost_ms".into(), med(&|r| r.cost_ms), "ms"),
        (
            "core.lower_bound_ms".into(),
            med(&|r| r.lower_bound_ms),
            "ms",
        ),
        ("core.solve_total_ms".into(), total_ms, "ms"),
        ("core.unstaged_ms".into(), med(&|r| r.unstaged_ms()), "ms"),
        (
            "core.evals.certain_solve".into(),
            med(&|r| r.evals_certain_solve),
            "count",
        ),
        (
            "core.evals.assignment".into(),
            med(&|r| r.evals_assignment),
            "count",
        ),
        ("core.evals.cost".into(), med(&|r| r.evals_cost), "count"),
        (
            "core.evals.lower_bound".into(),
            med(&|r| r.evals_lower_bound),
            "count",
        ),
        ("core.evals.total".into(), med(&|r| r.evals_total), "count"),
        (
            "metric.pair_evals_per_s".into(),
            ratio(pair_evals, pair_secs),
            "1/s",
        ),
        (
            "pool.tasks".into(),
            ratio(traced.delta.pool_tasks, solves),
            "count/solve",
        ),
        (
            "pool.chunks_per_task".into(),
            traced.delta.chunks_per_task(),
            "count",
        ),
        ("stream.push_chunk_ms".into(), l.push_chunk_ms, "ms"),
        ("stream.summary_size".into(), l.summary_size as f64, "count"),
        ("stream.read_warm_rate".into(), ratio(warm, solves), "ratio"),
        (
            "trace.unattributed_share".into(),
            stats::unattributed_share(&all),
            "ratio",
        ),
        (
            "trace.overhead".into(),
            1.0 - ratio(traced_ops_per_s, untraced_ops_per_s),
            "ratio",
        ),
    ];
    (metrics, classes)
}

/// What the traced run says about each workload's claim (README).
fn claims(workload: Workload, layer: &[Metric], solve_p50: f64) -> Vec<(String, bool)> {
    let get = |name: &str| {
        layer
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |m| m.1)
    };
    let lb = get("core.lower_bound_ms");
    let kernels = get("core.certain_solve_ms") + get("core.assignment_ms");
    match workload {
        Workload::ColdSolve => vec![(
            format!("core.lower_bound_ms {lb:.3} >= 80% of miss_p50_ms {solve_p50:.3}"),
            lb >= 0.8 * solve_p50,
        )],
        Workload::ServeMix => vec![
            (format!("core.lower_bound_ms {lb} == 0"), lb == 0.0),
            (
                format!(
                    "certain_solve+assignment {kernels:.3} >= 25% of miss_p50_ms {solve_p50:.3}"
                ),
                kernels >= 0.25 * solve_p50,
            ),
        ],
        Workload::StreamRw => vec![
            (
                format!("core.lower_bound_ms {lb:.4} < 10% of read_p50_ms {solve_p50:.3}"),
                lb < 0.1 * solve_p50,
            ),
            (
                format!(
                    "certain_solve+assignment {kernels:.4} < 10% of read_p50_ms {solve_p50:.3}"
                ),
                kernels < 0.1 * solve_p50,
            ),
        ],
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|(name, value, unit)| {
        (
            name.clone(),
            Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
        )
    }))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for (name, value, unit) in metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let flags = server::FLAGS.join(" ");
    let started = Instant::now();
    let inputs = Inputs::generate(args.workload, args.seed);
    let generated_s = started.elapsed().as_secs_f64();
    let mut spans = Spans::new(true);

    // Untraced: the end-to-end run (and, with --trace 1, the baseline of
    // trace.overhead).
    let untraced = run_server(&args, &inputs, if args.trace { 1 } else { SETUPS }, false)?;
    let t = Instant::now();
    let untraced_check = check(&inputs, &untraced, &mut Spans::default());
    let checked_s = t.elapsed().as_secs_f64();
    let traced: Option<(Run, Checked)> = if args.trace {
        let mut run = run_server(&args, &inputs, 1, true)?;
        spans.extend(std::mem::take(&mut run.phase.spans));
        let checked = check(&inputs, &run, &mut spans);
        Some((run, checked))
    } else {
        None
    };
    let mut runs = vec![(&untraced, &untraced_check)];
    if let Some((run, checked)) = &traced {
        runs.push((run, checked));
    }
    let (reported, extra, layer_classes) = match &traced {
        Some((run, checked)) => {
            let untraced_ops = reference_ops_per_s(&untraced.phase);
            let (layer, classes) = per_layer(&inputs, run, checked, untraced_ops);
            (layer, details(run), classes)
        }
        None => (end_to_end(&untraced), details(&untraced), Vec::new()),
    };

    let attempted: usize = runs.iter().map(|(r, _)| r.phase.ops.len()).sum();
    let failed: usize = runs
        .iter()
        .map(|(r, c)| r.phase.failed() + c.wrong.len())
        .sum();
    let mut problems: Vec<String> = Vec::new();
    for (r, c) in &runs {
        problems.extend(r.phase.errors.iter().cloned());
        problems.extend(c.wrong.iter().cloned());
        problems.extend(c.unreconciled.iter().cloned());
    }
    let correct = problems.is_empty();

    println!(
        "workload={} seed={} seconds={} trace={} host_cpus={host_cpus} server_flags=\"{flags}\"",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print_metrics("details", &extra);
    let mut claim_lines = Vec::new();
    if args.trace {
        print_metrics("per-layer metrics", &reported);
        println!("# unattributed share per op class");
        for (class, a) in &layer_classes {
            println!(
                "{:<6} client_p50_ms {:>10.4} attributed_ms {:>10.4} unattributed {:>8.4}",
                class.name(),
                a.client_p50_ms,
                a.attributed_ms,
                a.unattributed_share()
            );
        }
        let solve_p50 = median(&latencies(&runs[runs.len() - 1].0.phase, Class::solves));
        println!("# claims");
        for (claim, holds) in claims(args.workload, &reported, solve_p50) {
            println!("{} {claim}", if holds { "holds" } else { "FAILS" });
            claim_lines.push(Json::obj([
                ("claim", Json::from(claim.as_str())),
                ("holds", Json::from(holds)),
            ]));
        }
    } else {
        print_metrics("end-to-end metrics", &reported);
    }
    for p in problems.iter().take(10) {
        println!("problem: {p}");
    }

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let result = Json::obj([
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::from(args.seed as f64)),
        ("seconds", Json::from(args.seconds)),
        ("host_cpus", Json::from(host_cpus)),
        ("server_flags", Json::from(flags.as_str())),
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json(&reported)),
        ("details", metrics_json(&extra)),
        ("claims", Json::arr(claim_lines)),
        (
            "setups_s",
            Json::arr(untraced.setup_s.iter().map(|&s| Json::from(s))),
        ),
        (
            "windows",
            Json::arr(
                untraced
                    .phase
                    .yardstick
                    .windows()
                    .iter()
                    .map(|w| Json::from(w.pass_ms)),
            ),
        ),
        (
            "problems",
            Json::arr(problems.iter().take(20).map(|p| Json::from(p.as_str()))),
        ),
    ]);
    let write = |name: String, doc: &Json| {
        let path = args.out_dir.join(name);
        std::fs::write(&path, doc.pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), &result)?;
    if args.trace {
        write(format!("{stem}-spans.json"), &spans.to_json())?;
    }

    let last = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json(&reported)),
    ]);
    println!(
        "# wall: inputs {generated_s:.1} s, checks {checked_s:.1} s, total {:.1} s",
        started.elapsed().as_secs_f64()
    );
    println!("{}", last.compact());
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("ukc-perfbench: {e}");
        std::process::exit(1);
    }
}
