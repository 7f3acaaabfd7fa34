//! In-process replay of a run's inputs through the layers' public
//! functions: the reference answers the server's responses are checked
//! against, and the per-layer timings of the traced run.

use crate::stats::median;
use crate::trace::Spans;
use crate::workload::{Solved, STREAM_K};
use std::time::Instant;
use ukc_core::{digest_set, Problem, Solution, SolverConfig};
use ukc_json::format::{solution_document, JsonInstance};
use ukc_json::Json;
use ukc_metric::Point;
use ukc_stream::StreamSolver;
use ukc_uncertain::{UncertainPoint, UncertainSet};

/// Renders timed per solution: enough for a steady median, few enough to
/// keep the replay short.
const RENDERS: usize = 16;

/// The layer timings the replay measured.
#[derive(Default)]
pub struct Layers {
    pub parse_ms_per_mb: f64,
    pub render_ms: f64,
    pub digest_ms: f64,
    pub push_chunk_ms: f64,
    pub summary_size: usize,
}

/// Parses request bodies the way the server does (`Json::parse`, then
/// `JsonInstance::to_set`) and returns the sets with the cost per MB.
pub fn parse(
    bodies: &[String],
    spans: &mut Spans,
    origin: Instant,
) -> (Vec<UncertainSet<Point>>, f64) {
    let mut total_ms = 0.0;
    let mut bytes = 0usize;
    let sets = bodies
        .iter()
        .map(|body| {
            let t = Instant::now();
            let doc = Json::parse(body).expect("generated bodies are valid JSON");
            let set = JsonInstance::from_json(&doc)
                .and_then(|inst| inst.to_set())
                .expect("generated bodies are valid instances");
            let took = t.elapsed();
            spans.replay("json.parse_instance", t - origin, took);
            total_ms += took.as_secs_f64() * 1e3;
            bytes += body.len();
            set
        })
        .collect();
    (sets, total_ms / (bytes as f64 / 1e6))
}

/// Median `digest_set` time over the sets.
pub fn digest_ms(sets: &[UncertainSet<Point>], spans: &mut Spans, origin: Instant) -> f64 {
    let times: Vec<f64> = sets
        .iter()
        .map(|set| {
            let t = Instant::now();
            std::hint::black_box(digest_set(set));
            let took = t.elapsed();
            spans.replay("core.digest", t - origin, took);
            took.as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Re-solves every (instance, k) pair the server solved, in process and
/// with the server's default configuration (the lower bound does not
/// change `ecost`, so it is left off), on two threads. Returns the
/// mismatches and the first few solutions for render timing.
pub fn check_ecosts(
    sets: &[UncertainSet<Point>],
    solved: &[Solved],
) -> (Vec<String>, Vec<Solution<Point>>) {
    let pairs: Vec<(usize, usize, f64)> = solved
        .iter()
        .filter_map(|s| s.pair.map(|(instance, k)| (instance, k, s.ecost)))
        .collect();
    let half = pairs.len().div_ceil(2).max(1);
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&p| check_one(sets, p))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a check thread panicked"))
            .collect()
    });
    let mut mismatches = Vec::new();
    let mut kept = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(sol) if kept.len() < RENDERS => kept.push(sol),
            Ok(_) => {}
            Err(e) => mismatches.push(e),
        }
    }
    (mismatches, kept)
}

/// One pair's in-process solve, which must reproduce the server's `ecost`
/// bit for bit.
fn check_one(
    sets: &[UncertainSet<Point>],
    (instance, k, ecost): (usize, usize, f64),
) -> Result<Solution<Point>, String> {
    let config = SolverConfig::builder()
        .lower_bound(false)
        .build()
        .expect("the default configuration is valid");
    match Problem::euclidean(sets[instance].clone(), k).and_then(|p| p.solve(&config)) {
        Ok(sol) if sol.ecost.to_bits() == ecost.to_bits() => Ok(sol),
        Ok(sol) => Err(format!(
            "instance {instance} k={k}: server ecost {ecost} != in-process {}",
            sol.ecost
        )),
        Err(e) => Err(format!(
            "instance {instance} k={k}: in-process solve failed: {e}"
        )),
    }
}

/// Median `solution_document(..).pretty()` time over the solutions.
pub fn render_ms(solutions: &[Solution<Point>], spans: &mut Spans, origin: Instant) -> f64 {
    let times: Vec<f64> = solutions
        .iter()
        .cycle()
        .take(RENDERS.max(solutions.len()))
        .map(|sol| {
            let t = Instant::now();
            std::hint::black_box(solution_document(sol).pretty());
            let took = t.elapsed();
            spans.replay("json.render_solution", t - origin, took);
            took.as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// A stream built like the server builds one for the stream-create body
/// (`k = STREAM_K`, lower bound off, everything else default).
pub fn stream() -> StreamSolver {
    let config = SolverConfig::builder()
        .lower_bound(false)
        .build()
        .expect("the stream configuration is valid");
    StreamSolver::builder(STREAM_K)
        .config(config)
        .build()
        .expect("the stream configuration is valid")
}

/// Pushes `chunks` in order, timing each `push_chunk`; returns the
/// stream and the median push time.
pub fn push_all<'a>(
    chunks: impl Iterator<Item = &'a [UncertainPoint<Point>]>,
    spans: &mut Spans,
    origin: Instant,
) -> (StreamSolver, f64) {
    let mut solver = stream();
    let times: Vec<f64> = chunks
        .map(|chunk| {
            let t = Instant::now();
            solver.push_chunk(chunk).expect("replayed chunks are valid");
            let took = t.elapsed();
            spans.replay("stream.push_chunk", t - origin, took);
            took.as_secs_f64() * 1e3
        })
        .collect();
    (solver, median(&times))
}

/// The stream's summary solved the way a server read solves it: its
/// points as certain points, k capped at the summary size.
pub fn summary_solution(solver: &StreamSolver) -> Option<Solution<Point>> {
    let points: Vec<UncertainPoint<Point>> = solver
        .summary()
        .center_points()
        .into_iter()
        .map(UncertainPoint::certain)
        .collect();
    let k = STREAM_K.min(points.len());
    Problem::euclidean(UncertainSet::new(points), k)
        .and_then(|p| p.solve(solver.config()))
        .ok()
}
