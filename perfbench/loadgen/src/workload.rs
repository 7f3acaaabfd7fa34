//! The three workloads: their seeded inputs, their set-up, and their
//! closed-loop work phases with per-response checks.
//!
//! Why each workload exists, and what it bypasses, is recorded in
//! `perfbench/README.md`.

use crate::http::{Conn, Response};
use crate::server::Server;
use crate::trace::Spans;
use crate::yardstick::Yardstick;
use std::path::Path;
use std::time::{Duration, Instant};
use ukc_json::format::JsonInstance;
use ukc_json::Json;
use ukc_uncertain::generators::{clustered, ProbModel};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdSolve,
    ServeMix,
    StreamRw,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_solve" => Some(Workload::ColdSolve),
            "serve_mix" => Some(Workload::ServeMix),
            "stream_rw" => Some(Workload::StreamRw),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSolve => "cold_solve",
            Workload::ServeMix => "serve_mix",
            Workload::StreamRw => "stream_rw",
        }
    }
}

/// Instance shapes: (count, n, z, d).
const COLD_SHAPE: (usize, usize, usize, usize) = (16, 2_500, 4, 8);
const MIX_SHAPE: (usize, usize, usize, usize) = (6, 6_000, 2, 32);
/// The k of round `r` of a miss sequence is `K0 + ((r·37) mod KS)`: 37 is
/// coprime to the range, so every prefix of the sequence spreads over the
/// whole range and the median k does not drift with run length. Pairs
/// run out after `count · KS` misses, more than a run makes today.
const COLD_K0: usize = 16;
const COLD_KS: usize = 128;
const MIX_K0: usize = 16;
const MIX_KS: usize = 128;
/// Cache hits that follow each serve_mix miss.
pub const HITS_PER_MISS: usize = 4;
/// Stream shape: 256-point chunks of z=4, d=8 points, a ring of distinct
/// chunks, and the k of the stream.
const CHUNK_POINTS: usize = 256;
const CHUNK_RING: usize = 32;
pub const STREAM_K: usize = 16;
/// Set-up primes the stream with as many points as 256 ring pushes, in
/// 64 pushes: a set-up of hundreds of round trips would time the host's
/// thread wake-ups more than the program, and a few huge pushes would
/// make the server's peak memory depend on the seed.
const PRIME_POINTS: usize = 1024;
const PRIME_PUSHES: usize = 64;
/// Pushes per read on stream_rw.
pub const PUSHES_PER_READ: usize = 4;

/// SplitMix64: derives independent generator seeds from the run seed.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn body(n: usize, z: usize, d: usize, seed: u64) -> String {
    let set = clustered(seed, n, z, d, 32, 4.0, 1.0, ProbModel::Random);
    JsonInstance::from_set(&set).to_json().compact()
}

/// Every request body a run sends, serialised before any timer starts.
pub struct Inputs {
    pub workload: Workload,
    /// Instance upload bodies (cold_solve, serve_mix).
    pub instances: Vec<String>,
    /// Points per instance.
    pub n: usize,
    /// Stream chunk bodies (stream_rw): the ring of the work phase, then
    /// the priming pushes.
    pub chunks: Vec<String>,
    /// The stream-create body (stream_rw).
    pub stream_create: String,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let shape = match workload {
            Workload::ColdSolve => COLD_SHAPE,
            Workload::ServeMix => MIX_SHAPE,
            Workload::StreamRw => (0, 0, 0, 0),
        };
        let (count, n, z, d) = shape;
        let instances = (0..count)
            .map(|i| body(n, z, d, mix(seed, i as u64)))
            .collect();
        let chunks = match workload {
            Workload::StreamRw => (0..CHUNK_RING)
                .map(|i| body(CHUNK_POINTS, 4, 8, mix(seed, 1000 + i as u64)))
                .chain(
                    (0..PRIME_PUSHES).map(|i| body(PRIME_POINTS, 4, 8, mix(seed, 2000 + i as u64))),
                )
                .collect(),
            _ => Vec::new(),
        };
        Inputs {
            workload,
            instances,
            n,
            chunks,
            stream_create: format!("{{\"k\":{STREAM_K},\"lower_bound\":false}}"),
        }
    }

    /// The ring of chunk bodies the work phase pushes.
    pub fn ring(&self) -> &[String] {
        &self.chunks[..CHUNK_RING.min(self.chunks.len())]
    }

    /// The `j`-th (instance, k) pair of the workload's miss sequence;
    /// `None` once every distinct pair has been used.
    pub fn pair(&self, j: usize) -> Option<(usize, usize)> {
        let (k0, ks) = match self.workload {
            Workload::ColdSolve => (COLD_K0, COLD_KS),
            _ => (MIX_K0, MIX_KS),
        };
        let m = self.instances.len();
        let round = j / m;
        (round < ks).then(|| (j % m, k0 + (round * 37) % ks))
    }

    /// The solve body of a miss.
    pub fn solve_body(&self, k: usize) -> String {
        match self.workload {
            Workload::ServeMix => format!("{{\"k\":{k},\"lower_bound\":false}}"),
            _ => format!("{{\"k\":{k}}}"),
        }
    }
}

/// A server with the workload's inputs in place.
pub struct Ready {
    pub server: Server,
    /// Server-assigned instance ids, in input order.
    pub ids: Vec<String>,
    /// The stream (stream_rw).
    pub stream: Option<String>,
    /// Acked pushes so far and the digest the last one reported.
    pub epochs: u64,
    pub digest: String,
    /// Spawn to the end of uploads, stream creation and priming.
    pub setup_s: f64,
    /// Bytes sent and seconds spent in upload/push round trips.
    pub upload_bytes: usize,
    pub upload_s: f64,
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    let mut node = doc;
    for key in path {
        node = node
            .get(key)
            .ok_or_else(|| format!("response has no {}", path.join(".")))?;
    }
    Ok(node)
}

fn num(doc: &Json, path: &[&str]) -> Result<f64, String> {
    field(doc, path)?
        .as_f64()
        .ok_or_else(|| format!("{} is not a number", path.join(".")))
}

fn text(doc: &Json, path: &[&str]) -> Result<String, String> {
    field(doc, path)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{} is not a string", path.join(".")))
}

fn connect(ready: &Ready) -> Result<Conn, String> {
    Conn::connect(ready.server.addr).map_err(|e| format!("connect: {e}"))
}

fn call(conn: &mut Conn, method: &str, path: &str, body: &str) -> Result<Response, String> {
    conn.request(method, path, body)
        .map_err(|e| format!("{method} {path}: {e}"))
}

fn expect(resp: &Response, status: u16, what: &str) -> Result<Json, String> {
    if resp.status != status {
        return Err(format!(
            "{what}: status {} (want {status}): {}",
            resp.status,
            resp.body.chars().take(300).collect::<String>()
        ));
    }
    Json::parse(&resp.body).map_err(|e| format!("{what}: body is not JSON: {e}"))
}

/// Checks a push acknowledgement and advances the epoch count.
fn check_push(resp: &Response, epochs: &mut u64, digest: &mut String) -> Result<(), String> {
    let doc = expect(resp, 200, "push")?;
    let epoch = num(&doc, &["epoch"])? as u64;
    if epoch != *epochs + 1 {
        return Err(format!("push acked epoch {epoch} after {epochs}"));
    }
    *epochs = epoch;
    *digest = text(&doc, &["digest"])?;
    Ok(())
}

/// Spawns a server and loads the workload's inputs into it.
pub fn setup(ukc: &Path, inputs: &Inputs) -> Result<Ready, String> {
    let t0 = Instant::now();
    let server = Server::spawn(ukc)?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut ready = Ready {
        server,
        ids: Vec::new(),
        stream: None,
        epochs: 0,
        digest: String::new(),
        setup_s: 0.0,
        upload_bytes: 0,
        upload_s: 0.0,
    };
    for body in &inputs.instances {
        let t = Instant::now();
        let resp = call(&mut conn, "POST", "/instances", body)?;
        ready.upload_s += t.elapsed().as_secs_f64();
        ready.upload_bytes += body.len();
        let doc = expect(&resp, 201, "upload")?;
        if num(&doc, &["n"])? as usize != inputs.n {
            return Err("upload stored the wrong number of points".into());
        }
        ready.ids.push(text(&doc, &["id"])?);
    }
    if inputs.workload == Workload::StreamRw {
        let resp = call(&mut conn, "POST", "/streams", &inputs.stream_create)?;
        let id = text(&expect(&resp, 201, "stream create")?, &["id"])?;
        let path = format!("/streams/{id}/push");
        for body in &inputs.chunks[CHUNK_RING..] {
            let t = Instant::now();
            let resp = call(&mut conn, "POST", &path, body)?;
            ready.upload_s += t.elapsed().as_secs_f64();
            ready.upload_bytes += body.len();
            check_push(&resp, &mut ready.epochs, &mut ready.digest)?;
        }
        ready.stream = Some(id);
    }
    ready.setup_s = t0.elapsed().as_secs_f64();
    Ok(ready)
}

/// The request classes the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A solve that misses the cache and runs the pipeline.
    Miss,
    /// A repeated solve the cache answers.
    Hit,
    /// A stream push.
    Push,
    /// A stream solution read (it runs a solve: every read follows pushes).
    Read,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Miss, Class::Hit, Class::Push, Class::Read];

    pub fn name(self) -> &'static str {
        match self {
            Class::Miss => "miss",
            Class::Hit => "hit",
            Class::Push => "push",
            Class::Read => "read",
        }
    }

    /// Whether the op runs a solve on the server.
    pub fn solves(self) -> bool {
        matches!(self, Class::Miss | Class::Read)
    }
}

/// What a solve response's `report` block says, in ms and eval counts.
#[derive(Clone, Debug, Default)]
pub struct StageReport {
    pub representatives_ms: f64,
    pub certain_solve_ms: f64,
    pub assignment_ms: f64,
    pub cost_ms: f64,
    pub lower_bound_ms: f64,
    pub total_ms: f64,
    pub evals_certain_solve: f64,
    pub evals_assignment: f64,
    pub evals_cost: f64,
    pub evals_lower_bound: f64,
    pub evals_total: f64,
    /// Warm-requested and the warm path held (no fallback).
    pub warm_held: bool,
}

impl StageReport {
    fn read(doc: &Json) -> Result<StageReport, String> {
        let ms = |stage: &str| num(doc, &["report", "timings_seconds", stage]).map(|s| s * 1e3);
        let evals = |stage: &str| num(doc, &["report", "distance_evals", stage]);
        let warm_held = match doc.get("report").and_then(|r| r.get("warm")) {
            Some(warm) => matches!(warm.get("fallback"), Some(Json::Null)),
            None => false,
        };
        Ok(StageReport {
            representatives_ms: ms("representatives")?,
            certain_solve_ms: ms("certain_solve")?,
            assignment_ms: ms("assignment")?,
            cost_ms: ms("cost")?,
            lower_bound_ms: ms("lower_bound")?,
            total_ms: ms("total")?,
            evals_certain_solve: evals("certain_solve")?,
            evals_assignment: evals("assignment")?,
            evals_cost: evals("cost")?,
            evals_lower_bound: evals("lower_bound")?,
            evals_total: evals("total")?,
            warm_held,
        })
    }

    /// Total minus the stages: solve time no stage reports.
    pub fn unstaged_ms(&self) -> f64 {
        self.total_ms
            - (self.representatives_ms
                + self.certain_solve_ms
                + self.assignment_ms
                + self.cost_ms
                + self.lower_bound_ms)
    }
}

/// One timed request.
#[derive(Clone, Debug)]
pub struct Op {
    pub class: Class,
    pub latency_ms: f64,
    pub ok: bool,
    /// The yardstick window it completed in.
    pub window: usize,
}

/// A solve the server ran: which pair, what it cost, what it reported.
#[derive(Clone, Debug)]
pub struct Solved {
    /// (instance index, k); `None` for stream reads.
    pub pair: Option<(usize, usize)>,
    pub ecost: f64,
    pub report: StageReport,
}

/// Everything one work phase observed.
#[derive(Default)]
pub struct Phase {
    pub ops: Vec<Op>,
    pub solved: Vec<Solved>,
    pub wall_s: f64,
    /// Descriptions of failed ops (the first few are printed).
    pub errors: Vec<String>,
    pub spans: Spans,
    /// Stream state after the phase (stream_rw).
    pub epochs: u64,
    pub digest: String,
    /// The order in which chunks were acked, priming included.
    pub pushed: Vec<usize>,
    /// Host speed, timed in the gaps between cycles, by window.
    pub yardstick: Yardstick,
    /// Load connections the phase ran.
    pub connections: usize,
}

impl Phase {
    fn new(traced: bool) -> Phase {
        Phase {
            spans: Spans::new(traced),
            connections: 1,
            ..Phase::default()
        }
    }

    /// Records one op; `t` is when it was sent and `took` its round trip,
    /// read before any check ran.
    fn record(
        &mut self,
        class: Class,
        (t, took): (Instant, Duration),
        origin: Instant,
        outcome: Result<(), String>,
    ) {
        let latency_ms = took.as_secs_f64() * 1e3;
        self.spans.request(class.name(), t - origin, latency_ms);
        if let Err(e) = &outcome {
            self.errors.push(e.clone());
        }
        self.ops.push(Op {
            class,
            latency_ms,
            ok: outcome.is_ok(),
            window: self.yardstick.op(),
        });
    }

    fn merge(&mut self, other: Phase) {
        let offset = self.yardstick.extend(other.yardstick);
        self.ops.extend(other.ops.into_iter().map(|op| Op {
            window: op.window + offset,
            ..op
        }));
        self.solved.extend(other.solved);
        self.errors.extend(other.errors);
        self.spans.extend(other.spans);
        self.connections += other.connections;
    }

    /// An op's latency at the reference host speed.
    pub fn reference_ms(&self, op: &Op) -> f64 {
        op.latency_ms * self.yardstick.windows()[op.window].scale()
    }

    pub fn count(&self, class: Class) -> usize {
        self.ops.iter().filter(|o| o.class == class).count()
    }

    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }
}

/// Checks a miss response and returns what it solved.
fn check_miss(resp: &Response, n: usize, k: usize) -> Result<(f64, StageReport), String> {
    let doc = expect(resp, 200, "solve")?;
    check_solution(&doc, k, n).map_err(|e| format!("solve k={k}: {e}"))
}

/// The checks every fresh solve answer gets: its shape, a certified
/// bound no larger than its cost, and that it was not a cache hit.
fn check_solution(doc: &Json, k: usize, n: usize) -> Result<(f64, StageReport), String> {
    let len = |key: &str| field(doc, &[key]).map(|v| v.as_array().map_or(0, <[Json]>::len));
    let (centers, assigned) = (len("centers")?, len("assignment")?);
    if centers != k || assigned != n {
        return Err(format!(
            "{centers} centers and {assigned} assignments (want {k} and {n})"
        ));
    }
    let ecost = num(doc, &["ecost"])?;
    let lower_bound = num(doc, &["lower_bound"])?;
    if lower_bound.is_nan() || lower_bound > ecost {
        return Err(format!("lower bound {lower_bound} > ecost {ecost}"));
    }
    if doc.get("cached") != Some(&Json::Bool(false)) {
        return Err("a fresh solve was served from the cache".into());
    }
    Ok((ecost, StageReport::read(doc)?))
}

/// A hit must repeat its miss byte for byte, bar the `cached` flag.
fn check_hit(resp: &Response, miss_body: &str) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("hit: status {}", resp.status));
    }
    if resp
        .body
        .replacen("\"cached\": true", "\"cached\": false", 1)
        != miss_body
    {
        return Err("hit body differs from its miss body".into());
    }
    Ok(())
}

/// Warms the server's lazily started machinery (the worker pool) with one
/// solve outside the miss sequence, so the first timed miss is not the
/// one that pays for it.
pub fn warm_up(ready: &Ready) -> Result<(), String> {
    let Some(id) = ready.ids.first() else {
        return Ok(());
    };
    let mut conn = connect(ready)?;
    let resp = call(
        &mut conn,
        "POST",
        &format!("/instances/{id}/solve"),
        "{\"k\":2,\"lower_bound\":false}",
    )?;
    expect(&resp, 200, "warm-up solve").map(drop)
}

/// Runs the closed loop for `seconds` and checks every response.
pub fn work(ready: &Ready, inputs: &Inputs, seconds: f64, traced: bool) -> Result<Phase, String> {
    let deadline = Duration::from_secs_f64(seconds);
    let origin = Instant::now();
    let mut phase = match inputs.workload {
        Workload::ColdSolve => {
            let mut conn = connect(ready)?;
            let mut phase = Phase::new(traced);
            let mut j = 0;
            while origin.elapsed() < deadline {
                let Some(pair) = inputs.pair(j) else { break };
                j += 1;
                phase.yardstick.tick();
                miss(&mut conn, ready, inputs, pair, origin, &mut phase)?;
            }
            phase.yardstick.finish();
            phase
        }
        Workload::ServeMix => {
            // Two connections, each a closed loop over its own pairs:
            // connection c takes pairs c, c+2, c+4, ... A cycle always
            // completes, so the op mix is exactly one miss to four hits.
            let lanes: Vec<Result<Phase, String>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|c| {
                        s.spawn(move || -> Result<Phase, String> {
                            let mut conn = connect(ready)?;
                            let mut phase = Phase::new(traced);
                            let mut j = c;
                            while origin.elapsed() < deadline {
                                let Some(pair) = inputs.pair(j) else { break };
                                j += 2;
                                phase.yardstick.tick();
                                let body =
                                    miss(&mut conn, ready, inputs, pair, origin, &mut phase)?;
                                let path = format!("/instances/{}/solve", ready.ids[pair.0]);
                                let solve = inputs.solve_body(pair.1);
                                for _ in 0..HITS_PER_MISS {
                                    let t = Instant::now();
                                    let resp = call(&mut conn, "POST", &path, &solve)?;
                                    let t = (t, t.elapsed());
                                    let outcome = match &body {
                                        Some(miss_body) => check_hit(&resp, miss_body),
                                        None => Err("hit after a failed miss".into()),
                                    };
                                    phase.record(Class::Hit, t, origin, outcome);
                                }
                            }
                            phase.yardstick.finish();
                            Ok(phase)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a load thread panicked"))
                    .collect()
            });
            let mut phase = Phase {
                connections: 0,
                ..Phase::new(traced)
            };
            for lane in lanes {
                phase.merge(lane?);
            }
            phase
        }
        Workload::StreamRw => stream_loop(ready, inputs, origin, deadline, traced)?,
    };
    phase.wall_s = origin.elapsed().as_secs_f64();
    Ok(phase)
}

/// One cache-missing solve; returns the body for the hits that follow.
fn miss(
    conn: &mut Conn,
    ready: &Ready,
    inputs: &Inputs,
    (instance, k): (usize, usize),
    origin: Instant,
    phase: &mut Phase,
) -> Result<Option<String>, String> {
    let path = format!("/instances/{}/solve", ready.ids[instance]);
    let solve = inputs.solve_body(k);
    let t = Instant::now();
    let resp = call(conn, "POST", &path, &solve)?;
    let t = (t, t.elapsed());
    match check_miss(&resp, inputs.n, k) {
        Ok((ecost, report)) => {
            phase.record(Class::Miss, t, origin, Ok(()));
            phase.spans.stages(&report);
            phase.solved.push(Solved {
                pair: Some((instance, k)),
                ecost,
                report,
            });
            Ok(Some(resp.body))
        }
        Err(e) => {
            phase.record(Class::Miss, t, origin, Err(e));
            Ok(None)
        }
    }
}

/// stream_rw: four pushes, then one read, until the deadline.
fn stream_loop(
    ready: &Ready,
    inputs: &Inputs,
    origin: Instant,
    deadline: Duration,
    traced: bool,
) -> Result<Phase, String> {
    let id = ready
        .stream
        .as_deref()
        .ok_or("stream_rw without a stream")?;
    let push_path = format!("/streams/{id}/push");
    let read_path = format!("/streams/{id}/solution");
    let mut conn = connect(ready)?;
    let mut phase = Phase {
        epochs: ready.epochs,
        digest: ready.digest.clone(),
        pushed: (CHUNK_RING..inputs.chunks.len()).collect(),
        ..Phase::new(traced)
    };
    let mut next = 0;
    while origin.elapsed() < deadline {
        phase.yardstick.tick();
        for _ in 0..PUSHES_PER_READ {
            let slot = next % CHUNK_RING;
            next += 1;
            let t = Instant::now();
            let resp = call(&mut conn, "POST", &push_path, &inputs.chunks[slot])?;
            let t = (t, t.elapsed());
            let outcome = check_push(&resp, &mut phase.epochs, &mut phase.digest);
            if outcome.is_ok() {
                phase.pushed.push(slot);
            }
            phase.record(Class::Push, t, origin, outcome);
        }
        let t = Instant::now();
        let resp = call(&mut conn, "GET", &read_path, "")?;
        let t = (t, t.elapsed());
        match check_read(&resp, phase.epochs) {
            Ok((ecost, report)) => {
                phase.record(Class::Read, t, origin, Ok(()));
                phase.spans.stages(&report);
                phase.solved.push(Solved {
                    pair: None,
                    ecost,
                    report,
                });
            }
            Err(e) => phase.record(Class::Read, t, origin, Err(e)),
        }
    }
    phase.yardstick.finish();
    Ok(phase)
}

/// Checks a stream read: a fresh solve of the summary as of every acked
/// push, with k centers (fewer only if the summary is smaller).
fn check_read(resp: &Response, epochs: u64) -> Result<(f64, StageReport), String> {
    let doc = expect(resp, 200, "stream read")?;
    let seen_epochs = num(&doc, &["stream", "epochs"])? as u64;
    if seen_epochs != epochs {
        return Err(format!(
            "read saw {seen_epochs} epochs after {epochs} acked pushes"
        ));
    }
    let summary = num(&doc, &["stream", "summary_size"])? as usize;
    check_solution(&doc, STREAM_K.min(summary), summary).map_err(|e| format!("read: {e}"))
}

/// GETs a document and returns its body (outside any timed window).
pub fn get(ready: &Ready, path: &str) -> Result<String, String> {
    let mut conn = connect(ready)?;
    let resp = call(&mut conn, "GET", path, "")?;
    if resp.status != 200 {
        return Err(format!("GET {path}: status {}", resp.status));
    }
    Ok(resp.body)
}

/// The stream's final summary document: (epochs, summary_size).
pub fn stream_state(ready: &Ready) -> Result<(u64, usize), String> {
    let id = ready.stream.as_deref().ok_or("no stream")?;
    let body = get(ready, &format!("/streams/{id}"))?;
    let doc = Json::parse(&body).map_err(|e| format!("stream summary: {e}"))?;
    Ok((
        num(&doc, &["epochs"])? as u64,
        num(&doc, &["summary_size"])? as usize,
    ))
}

/// Median round trip of `GET /healthz` over one keep-alive connection.
pub fn healthz_rtt_ms(ready: &Ready, probes: usize) -> Result<Vec<f64>, String> {
    let mut conn = connect(ready)?;
    let mut out = Vec::with_capacity(probes);
    for _ in 0..probes {
        let t = Instant::now();
        let resp = call(&mut conn, "GET", "/healthz", "")?;
        out.push(t.elapsed().as_secs_f64() * 1e3);
        if resp.status != 200 {
            return Err(format!("healthz: status {}", resp.status));
        }
    }
    Ok(out)
}
