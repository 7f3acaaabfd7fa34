//! The service itself: shared state, routing, handlers, and the TCP
//! accept loop.
//!
//! One thread per connection (connections are cheap; solves are the
//! expensive part and those are centralized in the
//! [`crate::scheduler::Scheduler`], which keeps at most `workers` waves
//! in flight, so a thousand idle keep-alive connections cannot
//! oversubscribe the CPU). [`serve`] returns a
//! [`ServerHandle`] for embedding (tests, benches, examples);
//! [`serve_blocking`] runs the accept loop on the caller's thread for
//! the CLI.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::api::{self, SolveRequest};
use crate::cache::{CachedSolve, LruCache, SolveKey};
use crate::error::ApiError;
use crate::http::{read_request, write_response, HttpError, Request, Response};
use crate::metrics::{Metrics, Route};
use crate::persist::{self, RecoveryStats};
use crate::scheduler::Scheduler;
use crate::store::InstanceStore;
use crate::streams::StreamStore;
use ukc_core::{digest_hex, Problem, Solution, SolveError, SolverConfig, WarmStats};
use ukc_durable::snapshot::Snapshot;
use ukc_durable::{DurableStore, StoreError};
use ukc_json::format::{loo_document, solution_document, JsonInstance};
use ukc_json::Json;
use ukc_metric::Point;
use ukc_stream::StreamSolver;
use ukc_uncertain::{UncertainPoint, UncertainSet};

/// Tunables for one server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Pool-lane cap per solve wave and the number of waves in flight
    /// (0 means one per available CPU / `UKC_THREADS`). Waves run on the
    /// process-wide [`ukc_pool::global`] pool, shared with each solve's
    /// intra-solve kernels, so this caps how many of the pool's lanes one
    /// wave may occupy; the scheduler runs this many dispatcher threads,
    /// each the submitting lane of its own wave, and spawns no pool
    /// threads.
    pub workers: usize,
    /// Solution-cache capacity in entries (0 disables the cache).
    pub cache_cap: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Durable persistence root (`ukc serve --data-dir`). `None` — the
    /// default — serves purely in memory, byte-identical to a server
    /// built before persistence existed.
    pub data_dir: Option<std::path::PathBuf>,
    /// Write a stream snapshot every this many pushed epochs (0 disables
    /// snapshots; recovery then replays the full WAL). Only meaningful
    /// with `data_dir` set.
    pub snapshot_interval: u64,
    /// Bound on queued solve jobs (`usize::MAX` means unbounded, 0
    /// rejects everything). A full queue answers `503 overloaded` with
    /// `Retry-After` instead of letting latency grow without bound.
    pub queue_cap: usize,
    /// Shard addresses (`ukc serve --shards a,b,...`). Non-empty turns
    /// this server into a **coordinator**: it stores no instances and
    /// digest-routes every instance request to the owning shard.
    pub shards: Vec<String>,
    /// Digest-routed reads before an instance is replicated to its
    /// owner's ring successor (0 disables replication).
    pub replicate_after: u64,
    /// Per-attempt timeout for requests the coordinator forwards.
    pub shard_timeout_ms: u64,
    /// Connect retries (with exponential backoff) per forwarded request.
    pub shard_retries: u32,
    /// Liveness probe period (0 disables the prober; forwarded requests
    /// still update liveness as a side effect).
    pub probe_interval_ms: u64,
    /// Bound on queued pushes *per stream* (`ukc serve
    /// --ingest-queue-cap`). Pushes are applied by a dedicated ingest
    /// worker that services streams round-robin; a stream whose queue is
    /// full answers `429 ingest_overloaded` with `Retry-After` instead of
    /// letting a burst grow push latency without bound. 0 rejects every
    /// push.
    pub ingest_queue_cap: usize,
    /// Staleness budget for stream solution reads in milliseconds (`ukc
    /// serve --solve-staleness-ms`). Within the budget, `GET
    /// /streams/{id}/solution` re-serves the last rendered response with
    /// a `"stale": true` marker instead of snapshotting and solving — so
    /// a high-rate read load pays at most one solve per budget window
    /// per stream. 0 (the default) disables the budget: every read
    /// observes the live stream state, exactly the pre-budget behavior.
    pub solve_staleness_ms: u64,
    /// Fault-injection knob: sleep this long in the ingest worker before
    /// applying each push. Only for tests and soak benches that need to
    /// fill the bounded ingest queue deterministically; leave at 0 (the
    /// default) in production.
    pub ingest_apply_delay_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            cache_cap: 256,
            max_body_bytes: 8 * 1024 * 1024,
            data_dir: None,
            snapshot_interval: 16,
            queue_cap: 4096,
            shards: Vec::new(),
            replicate_after: 3,
            shard_timeout_ms: 2000,
            shard_retries: 2,
            probe_interval_ms: 1000,
            ingest_queue_cap: 1024,
            solve_staleness_ms: 0,
            ingest_apply_delay_ms: 0,
        }
    }
}

/// Everything the handlers share.
pub(crate) struct AppState {
    store: InstanceStore,
    streams: StreamStore,
    cache: Mutex<LruCache<SolveKey, Arc<CachedSolve>>>,
    /// The most recent solution per cold-shaped `(digest, config)` key —
    /// cold *or* warm. This is what `solve?base=` chains from: unlike
    /// the response cache (which must keep warm and cold results apart,
    /// they can differ bitwise), this map deliberately collapses them to
    /// "latest usable prior", so an append chain only ever pays the
    /// delta instead of re-solving each parent cold.
    priors: Mutex<LruCache<SolveKey, Arc<Solution<Point>>>>,
    cache_cap: usize,
    scheduler: Scheduler,
    metrics: Arc<Metrics>,
    max_body_bytes: usize,
    started: Instant,
    /// The durability layer, present only with `data_dir` configured.
    /// In-memory mode carries `None` and every persistence branch in the
    /// handlers is a single untaken `if` — zero overhead on the solve
    /// hot path.
    durable: Option<DurableStore>,
    snapshot_interval: u64,
    recovery: RecoveryStats,
    /// Coordinator mode, present only with `shards` configured. Like
    /// `durable`, a single-node server carries `None` and pays one
    /// untaken `if` per request.
    cluster: Option<crate::cluster::ClusterState>,
    /// The bounded per-stream push queue, drained round-robin by the
    /// ingest worker thread.
    ingest: crate::ingest::IngestQueue<PushJob>,
    /// Staleness budget for stream solution reads (zero disables it).
    solve_staleness: std::time::Duration,
    /// Fault-injection apply delay (zero outside tests/benches).
    ingest_apply_delay: std::time::Duration,
}

impl AppState {
    pub(crate) fn cluster(&self) -> Option<&crate::cluster::ClusterState> {
        self.cluster.as_ref()
    }

    fn new(config: &ServerConfig) -> Result<Self, StoreError> {
        let workers = if config.workers == 0 {
            ukc_pool::default_threads()
        } else {
            config.workers
        };
        let store = InstanceStore::new();
        let streams = StreamStore::new();
        let (durable, recovery) = match &config.data_dir {
            None => (None, RecoveryStats::default()),
            Some(dir) => {
                let (durable, recovered) = DurableStore::open(dir)?;
                let stats = persist::recover(dir, &recovered, &store, &streams)?;
                (Some(durable), stats)
            }
        };
        let metrics = Arc::new(Metrics::new());
        Ok(AppState {
            store,
            streams,
            cache: Mutex::new(LruCache::new(config.cache_cap)),
            // Priors are worth keeping even with the response cache
            // disabled (cache_cap 0): warm chaining is an algorithmic
            // path the client opts into with `base=`, not a cache hit.
            priors: Mutex::new(LruCache::new(config.cache_cap.max(64))),
            cache_cap: config.cache_cap,
            scheduler: Scheduler::new(workers, config.queue_cap, Arc::clone(&metrics)),
            metrics,
            max_body_bytes: config.max_body_bytes,
            started: Instant::now(),
            durable,
            snapshot_interval: config.snapshot_interval,
            recovery,
            cluster: crate::cluster::ClusterState::new(config),
            ingest: crate::ingest::IngestQueue::new(config.ingest_queue_cap),
            solve_staleness: std::time::Duration::from_millis(config.solve_staleness_ms),
            ingest_apply_delay: std::time::Duration::from_millis(config.ingest_apply_delay_ms),
        })
    }
}

/// One queued stream push: everything the ingest worker needs to apply
/// it, plus the reply slot the connection thread blocks on. Parsing and
/// stream lookup happen *before* enqueueing, so a queued job can only
/// fail on apply (solver or durability errors), and a rejected push
/// provably had no side effects.
pub(crate) struct PushJob {
    entry: Arc<crate::streams::StreamEntry>,
    chunk: UncertainSet<Point>,
    /// The request body, copied only on a durable server, whose WAL logs
    /// it verbatim.
    body: Option<Vec<u8>>,
    slot: Arc<ReplySlot>,
}

/// A one-shot rendezvous between a connection thread and the ingest
/// worker. The connection thread parks in [`ReplySlot::wait`] until the
/// worker applies its push and fills the slot — so the push route keeps
/// its synchronous contract (a `200` means applied, and on a durable
/// server fsync'd) while the *ordering* of applies belongs to the queue.
pub(crate) struct ReplySlot {
    result: Mutex<Option<Handled>>,
    cv: std::sync::Condvar,
}

impl ReplySlot {
    fn new() -> Self {
        ReplySlot {
            result: Mutex::new(None),
            cv: std::sync::Condvar::new(),
        }
    }

    fn fill(&self, result: Handled) {
        *self.result.lock().expect("reply slot poisoned") = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Handled {
        let mut guard = self.result.lock().expect("reply slot poisoned");
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self.cv.wait(guard).expect("reply slot poisoned");
        }
    }
}

/// The ingest worker: drains the bounded queue round-robin (one push per
/// stream per rotation), applies each push, and wakes its submitter. On
/// shutdown, fails every still-pending push with `503` so no connection
/// thread is left parked.
fn ingest_worker(state: Arc<AppState>) {
    while let Some((stream, job)) = state.ingest.next() {
        if !state.ingest_apply_delay.is_zero() {
            std::thread::sleep(state.ingest_apply_delay);
        }
        let result = apply_stream_push(&state, &job.entry, job.chunk, job.body.as_deref());
        job.slot.fill(result);
        state.ingest.done(&stream);
    }
    for job in state.ingest.drain_all() {
        job.slot.fill(Err(ApiError::unavailable()));
    }
}

/// A running server, embeddable in tests/benches/examples.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    ingest: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections, drains the scheduler, and joins the
    /// accept thread. In-flight connection threads finish their current
    /// response on their own.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(cluster) = &self.state.cluster {
            cluster.stop();
        }
        // Stop admitting pushes, then join the worker: it drains the
        // queue, failing pending jobs so no connection thread stays
        // parked on a reply slot.
        self.state.ingest.shutdown();
        if let Some(handle) = self.ingest.take() {
            let _ = handle.join();
        }
        self.state.scheduler.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn store_io_err(e: StoreError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Binds and serves in background threads, returning a handle. With
/// [`ServerConfig::data_dir`] set, opening includes recovery: the
/// instance store and every live stream are rebuilt from disk before the
/// first request is accepted.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(AppState::new(&config).map_err(store_io_err)?);
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept = {
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("ukc-accept".into())
            .spawn(move || accept_loop(listener, state, shutdown))?
    };
    let ingest = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("ukc-ingest".into())
            .spawn(move || ingest_worker(state))?
    };
    Ok(ServerHandle {
        addr,
        state,
        shutdown,
        accept: Some(accept),
        ingest: Some(ingest),
    })
}

/// Binds and serves on the calling thread until the process dies (the
/// CLI's `ukc serve`). Prints the bound address on stderr so scripts can
/// scrape it when binding port 0.
pub fn serve_blocking(config: ServerConfig) -> std::io::Result<()> {
    let listener = TcpListener::bind(&config.addr)?;
    let state = Arc::new(AppState::new(&config).map_err(store_io_err)?);
    if state.durable.is_some() {
        let r = &state.recovery;
        eprintln!(
            "ukc-server recovered {} instance(s), {} stream(s) ({} epoch(s) replayed, {} snapshot restore(s)){}",
            r.instances,
            r.streams,
            r.replayed_epochs,
            r.snapshot_restores,
            if r.torn_tail { ", dropped a torn wal tail" } else { "" },
        );
    }
    eprintln!("ukc-server listening on {}", listener.local_addr()?);
    {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("ukc-ingest".into())
            .spawn(move || ingest_worker(state))?;
    }
    accept_loop(listener, state, Arc::new(AtomicBool::new(false)));
    Ok(())
}

fn accept_loop(listener: TcpListener, state: Arc<AppState>, shutdown: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let state = Arc::clone(&state);
        let _ = std::thread::Builder::new()
            .name("ukc-conn".into())
            .spawn(move || handle_connection(stream, &state));
    }
}

/// Per-read socket timeout: how long a single `read` may block before
/// the thread checks the request deadline.
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// Wall-clock budget for reading one complete request (headers + body).
/// This, not [`READ_TIMEOUT`], is what bounds a slowloris client
/// trickling one byte per timeout window: the deadline is checked
/// between reads inside [`read_request`], so a connection thread is
/// reclaimed at most one `READ_TIMEOUT` past it.
const REQUEST_DEADLINE: std::time::Duration = std::time::Duration::from_secs(120);

/// How many pending body bytes to drain before closing on an error, so
/// the error response is not torn down by a TCP reset (closing with
/// unread data in the receive queue RSTs, and the client would see
/// "connection reset" instead of the typed 413/400 payload).
const ERROR_DRAIN_LIMIT: usize = 64 * 1024 * 1024;

fn handle_connection(stream: TcpStream, state: &AppState) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    loop {
        let deadline = Instant::now() + REQUEST_DEADLINE;
        match read_request(
            &mut reader,
            &mut writer,
            state.max_body_bytes,
            Some(deadline),
        ) {
            Err(HttpError::Closed) => return,
            // Timeout, deadline, or socket failure: the peer is stalled
            // or gone, so there is no point writing a response — just
            // reclaim the thread.
            Err(HttpError::Io(_)) => return,
            Err(e) => {
                // Without a fully-read request the stream cannot be
                // resynced; answer and close — but drain what the client
                // already sent first, or the close may RST the response
                // away before the client reads it.
                let api: ApiError = e.into();
                state.metrics.record_response(api.status);
                let response = Response::json(api.status, api.to_json().pretty());
                if write_response(&mut writer, &response, false).is_ok() {
                    crate::http::drain_body(&mut reader, ERROR_DRAIN_LIMIT);
                }
                return;
            }
            Ok(request) => {
                let keep_alive = request.keep_alive;
                let response = dispatch(state, &request);
                state.metrics.record_response(response.status);
                if write_response(&mut writer, &response, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
        }
    }
}

/// Routes one request and renders its response.
///
/// Wrong-method requests (405) count under the `unmatched` metrics
/// label, not the sibling route's, so per-route counters only reflect
/// requests that actually reached their handler.
pub(crate) fn dispatch(state: &AppState, request: &Request) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    let (route, outcome) = match segments.as_slice() {
        ["healthz"] => match method {
            "GET" => (Route::Healthz, doc(handle_healthz(state))),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["metrics"] => match method {
            "GET" => (Route::Metrics, doc(handle_metrics(state))),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["instances"] => match method {
            "POST" => (
                Route::InstanceCreate,
                doc(match state.cluster() {
                    Some(cluster) => crate::cluster::create(cluster, request),
                    None => handle_instance_create(state, request),
                }),
            ),
            "GET" => (
                Route::InstanceList,
                doc(match state.cluster() {
                    Some(cluster) => crate::cluster::list(cluster),
                    None => handle_instance_list(state),
                }),
            ),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["instances", id] => match method {
            "GET" => (
                Route::InstanceGet,
                doc(match state.cluster() {
                    Some(cluster) => crate::cluster::get(cluster, id),
                    None => handle_instance_get(state, id),
                }),
            ),
            "DELETE" => (
                Route::InstanceDelete,
                doc(match state.cluster() {
                    Some(cluster) => crate::cluster::delete(cluster, id),
                    None => handle_instance_delete(state, id),
                }),
            ),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["instances", id, "solve"] => match method {
            "POST" => (
                Route::InstanceSolve,
                match state.cluster() {
                    Some(cluster) => doc(crate::cluster::solve(cluster, id, request)),
                    None => handle_instance_solve(state, id, request),
                },
            ),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["instances", id, "append"] => match method {
            "POST" => (
                Route::InstanceAppend,
                doc(match state.cluster() {
                    Some(cluster) => crate::cluster::append(cluster, id, request),
                    None => handle_instance_append(state, id, request),
                }),
            ),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["instances", id, "solve_loo"] => match method {
            "POST" => (
                Route::InstanceSolveLoo,
                doc(match state.cluster() {
                    Some(cluster) => crate::cluster::solve_loo(cluster, id, request),
                    None => handle_instance_solve_loo(state, id, request),
                }),
            ),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["solve"] => match method {
            "POST" => (
                Route::OneShotSolve,
                match state.cluster() {
                    Some(cluster) => doc(crate::cluster::oneshot(cluster, request)),
                    None => handle_oneshot_solve(state, request),
                },
            ),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["solve_batch"] => match method {
            "POST" => (
                Route::SolveBatch,
                doc(match state.cluster() {
                    Some(cluster) => crate::cluster::solve_batch(cluster, request),
                    None => handle_solve_batch(state, request),
                }),
            ),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["replicate"] => match method {
            "POST" => (Route::Replicate, doc(handle_replicate(state, request))),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["cluster", "status"] => match method {
            "GET" => (Route::ClusterStatus, doc(crate::cluster::status(state))),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["cluster", "nodes"] => match method {
            "POST" => (
                Route::ClusterNodeAdd,
                doc(crate::cluster::node_add(state, request)),
            ),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["cluster", "nodes", id] => match method {
            "DELETE" => (
                Route::ClusterNodeRemove,
                doc(crate::cluster::node_remove(state, id)),
            ),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["streams"] => match method {
            "POST" => (
                Route::StreamCreate,
                doc(handle_stream_create(state, request)),
            ),
            "GET" => (Route::StreamList, doc(handle_stream_list(state))),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["streams", id] => match method {
            "GET" => (Route::StreamGet, doc(handle_stream_get(state, id))),
            "DELETE" => (Route::StreamDelete, doc(handle_stream_delete(state, id))),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["streams", id, "push"] => match method {
            "POST" => (
                Route::StreamPush,
                doc(handle_stream_push(state, id, request)),
            ),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        ["streams", id, "solution"] => match method {
            "GET" => (
                Route::StreamSolution,
                doc(handle_stream_solution(state, id)),
            ),
            _ => (Route::Unmatched, Err(method_err(request))),
        },
        _ => (
            Route::Unmatched,
            Err(ApiError::route_not_found(&request.path)),
        ),
    };
    state.metrics.record_request(route);
    match outcome {
        Ok((status, Body::Doc(body))) => Response::json(status, body.pretty()),
        Ok((status, Body::Rendered(text))) => Response::json(status, text),
        Err(e) => {
            let response = Response::json(e.status, e.to_json().pretty());
            if e.kind == "overloaded" || e.kind == "ingest_overloaded" {
                // The request was never enqueued, so an immediate retry
                // is safe; 1s is long enough for a wave to drain.
                response.with_header("Retry-After", "1")
            } else {
                response
            }
        }
    }
}

fn method_err(request: &Request) -> ApiError {
    ApiError::method_not_allowed(&request.method, &request.path)
}

pub(crate) type Handled = Result<(u16, Json), ApiError>;

/// A response body as a route hands it to [`dispatch`]: a document to
/// render, or rendered text (a solve's body, which its cache entry keeps).
pub(crate) enum Body {
    Doc(Json),
    Rendered(Arc<str>),
}

/// What a route produces; only the solve routes answer with
/// [`Body::Rendered`].
type Served = Result<(u16, Body), ApiError>;

fn doc(handled: Handled) -> Served {
    handled.map(|(status, json)| (status, Body::Doc(json)))
}

fn handle_healthz(state: &AppState) -> Handled {
    let mode = if state.durable.is_some() {
        "durable"
    } else {
        "in-memory"
    };
    let role = if state.cluster.is_some() {
        "coordinator"
    } else {
        "single"
    };
    Ok((
        200,
        Json::obj([
            ("status", Json::from("ok")),
            ("version", Json::from(env!("CARGO_PKG_VERSION"))),
            (
                "uptime_seconds",
                Json::from(state.started.elapsed().as_secs_f64()),
            ),
            ("workers", Json::from(state.scheduler.workers())),
            ("mode", Json::from(mode)),
            ("role", Json::from(role)),
        ]),
    ))
}

fn handle_metrics(state: &AppState) -> Handled {
    let cache_len = state.cache.lock().expect("cache lock poisoned").len();
    let durability = state.durable.as_ref().map(|durable| {
        let stats = durable.stats();
        let r = &state.recovery;
        Json::obj([
            ("wal_bytes", Json::from(stats.wal_bytes as f64)),
            ("segments", Json::from(stats.segments as f64)),
            ("segment_bytes", Json::from(stats.segment_bytes as f64)),
            ("snapshots", Json::from(stats.snapshots as f64)),
            ("fsync_count", Json::from(stats.fsync_count as f64)),
            ("fsync_seconds", Json::from(stats.fsync_seconds)),
            (
                "recovery",
                Json::obj([
                    ("instances", Json::from(r.instances as f64)),
                    ("streams", Json::from(r.streams as f64)),
                    ("replayed_epochs", Json::from(r.replayed_epochs as f64)),
                    ("snapshot_restores", Json::from(r.snapshot_restores as f64)),
                    ("torn_tail", Json::from(r.torn_tail)),
                ]),
            ),
        ])
    });
    Ok((
        200,
        state.metrics.to_json(
            cache_len,
            state.cache_cap,
            state.store.len(),
            state.store.prepared_layouts(),
            state.streams.len(),
            ukc_pool::global().stats(),
            durability,
        ),
    ))
}

/// Durably stores `set`'s canonical document before it becomes visible
/// in memory (create and append acks imply durability). The canonical
/// re-serialization — not the wire body — is stored so create and append
/// persist identically; `ukc_json` round-trips `f64`s bit-exactly, so
/// the recovered set digests to the same ID.
fn persist_instance(state: &AppState, set: &UncertainSet<Point>) -> Result<(), ApiError> {
    if let Some(durable) = &state.durable {
        let digest = ukc_core::digest_set(set);
        let doc = JsonInstance::from_set(set).to_json().compact();
        durable.put_instance(digest, doc.as_bytes())?;
    }
    Ok(())
}

fn handle_instance_create(state: &AppState, request: &Request) -> Handled {
    let doc = api::parse_body(&request.body)?;
    let instance = JsonInstance::from_json(&doc).map_err(ApiError::from)?;
    let set = instance.to_set().map_err(ApiError::from)?;
    persist_instance(state, &set)?;
    let (stored, created) = state.store.insert(set);
    let mut body = stored.summary();
    if let Json::Obj(pairs) = &mut body {
        pairs.push(("created".into(), Json::from(created)));
    }
    Ok((if created { 201 } else { 200 }, body))
}

fn handle_instance_list(state: &AppState) -> Handled {
    Ok((
        200,
        Json::obj([(
            "instances",
            Json::arr(state.store.list().iter().map(|i| i.summary())),
        )]),
    ))
}

fn handle_instance_get(state: &AppState, id: &str) -> Handled {
    let stored = state
        .store
        .get(id)
        .ok_or_else(|| ApiError::instance_not_found(id))?;
    let mut body = stored.summary();
    if let Json::Obj(pairs) = &mut body {
        pairs.push((
            "instance".into(),
            JsonInstance::from_set(&stored.set).to_json(),
        ));
    }
    Ok((200, body))
}

fn handle_instance_delete(state: &AppState, id: &str) -> Handled {
    match state.store.remove(id) {
        Some(stored) => {
            // Tombstone on disk before acking, then evict every cached
            // solution derived from the deleted set (any k, any config).
            if let Some(durable) = &state.durable {
                durable.delete_instance(stored.digest)?;
            }
            forget(state, stored.digest);
            Ok((
                200,
                Json::obj([("id", Json::from(id)), ("deleted", Json::from(true))]),
            ))
        }
        None => Err(ApiError::instance_not_found(id)),
    }
}

fn handle_instance_solve(state: &AppState, id: &str, request: &Request) -> Served {
    let doc = api::parse_body(&request.body)?;
    let solve = api::parse_solve_request(&doc, false)?;
    let stored = state
        .store
        .get(id)
        .ok_or_else(|| ApiError::instance_not_found(id))?;
    let warm = request
        .query_param("base")
        .map(|base| resolve_base(state, base, &solve));
    // The set digest was computed at upload time; a miss hands the
    // solver the stored set itself, validated once per instance.
    run_solve(state, stored.digest, |k| stored.problem(k), &solve, warm)
}

fn handle_oneshot_solve(state: &AppState, request: &Request) -> Served {
    let doc = api::parse_body(&request.body)?;
    let (instance, solve) = api::parse_oneshot(&doc)?;
    let set = instance.to_set().map_err(ApiError::from)?;
    let digest = ukc_core::digest_set(&set);
    let warm = request
        .query_param("base")
        .map(|base| resolve_base(state, base, &solve));
    run_solve(state, digest, |k| Problem::euclidean(set, k), &solve, warm)
}

/// `POST /instances/{id}/append`: grows a stored instance by the body's
/// points. Instances are content-addressed and therefore immutable, so
/// the grown instance is stored under its *own* digest and the response
/// carries the new ID; the original stays available, and solution-cache
/// entries need no invalidation — the new digest simply never hits them.
///
/// The response names the parent under `parent_digest` so clients can
/// chain `solve?base=` without bookkeeping, and `?k=<k>` solves the
/// grown instance in the same round trip — warm-started from the parent
/// by default (`?base=<digest>` overrides the prior) — returning the
/// solution under `"solution"`.
fn handle_instance_append(state: &AppState, id: &str, request: &Request) -> Handled {
    let doc = api::parse_body(&request.body)?;
    let instance = JsonInstance::from_json(&doc).map_err(ApiError::from)?;
    let appended = instance.to_set().map_err(ApiError::from)?;
    let stored = state
        .store
        .get(id)
        .ok_or_else(|| ApiError::instance_not_found(id))?;
    if instance.dim != stored.dim {
        return Err(ukc_core::SolveError::DimensionMismatch {
            point: stored.set.n(),
            got: instance.dim,
            expected: stored.dim,
        }
        .into());
    }
    let mut points = stored.set.points().to_vec();
    points.extend(appended.points().iter().cloned());
    let grown_set = UncertainSet::new(points);
    persist_instance(state, &grown_set)?;
    let (grown, created) = state.store.insert(grown_set);
    let mut body = grown.summary();
    if let Json::Obj(pairs) = &mut body {
        pairs.push(("previous_id".into(), Json::from(id)));
        pairs.push((
            "parent_digest".into(),
            Json::from(digest_hex(stored.digest)),
        ));
        pairs.push(("appended".into(), Json::from(appended.n())));
        pairs.push(("created".into(), Json::from(created)));
    }
    if let Some(k_raw) = request.query_param("k") {
        let k: usize = k_raw.parse().map_err(|_| {
            ApiError::bad_request("bad_schema", "\"k\" must be a non-negative integer")
        })?;
        if k == 0 {
            return Err(ukc_core::SolveError::ZeroK.into());
        }
        let solve = SolveRequest {
            k,
            config: SolverConfig::default(),
            use_cache: true,
        };
        let base = request.query_param("base").unwrap_or(id);
        let warm = resolve_base(state, base, &solve);
        let solved = obtain_solution(
            state,
            grown.digest,
            |k| grown.problem(k),
            &solve,
            Some(&warm),
        )?;
        let solution = solve_response(
            solved.solution(),
            grown.digest,
            solved.cached(),
            warm.base_digest(),
        );
        if let Json::Obj(pairs) = &mut body {
            pairs.push(("solution".into(), solution));
        }
    }
    Ok((if created { 201 } else { 200 }, body))
}

/// The stream summary document shared by create/get/list responses.
fn stream_summary(entry: &crate::streams::StreamEntry) -> Json {
    let solver = entry.solver.lock().expect("stream solver lock poisoned");
    let report = solver.report();
    Json::obj([
        ("id", Json::from(entry.id.as_str())),
        ("k", Json::from(solver.k())),
        ("budget", Json::from(solver.budget())),
        ("points_seen", Json::from(report.points as f64)),
        ("epochs", Json::from(report.epochs as f64)),
        ("summary_size", Json::from(report.summary_len)),
        ("threshold", Json::from(report.threshold)),
        ("digest", Json::from(digest_hex(report.digest))),
    ])
}

fn handle_stream_create(state: &AppState, request: &Request) -> Handled {
    let doc = api::parse_body(&request.body)?;
    let (solve, budget) = api::parse_stream_create(&doc)?;
    let mut builder = StreamSolver::builder(solve.k).config(solve.config.clone());
    if let Some(budget) = budget {
        builder = builder.budget(budget);
    }
    let solver = builder.build().map_err(ApiError::from)?;
    let entry = state.streams.create(solver, solve.use_cache);
    // The create record is durable before the 201 carries the ID out; a
    // failed write rolls the in-memory entry back so memory and disk
    // agree that the stream never existed.
    if let Some(durable) = &state.durable {
        if let Err(e) = durable.create_stream(entry.seq, &request.body) {
            state.streams.remove(&entry.id);
            return Err(e.into());
        }
    }
    Ok((201, stream_summary(&entry)))
}

fn handle_stream_list(state: &AppState) -> Handled {
    Ok((
        200,
        Json::obj([(
            "streams",
            Json::arr(state.streams.list().iter().map(|e| stream_summary(e))),
        )]),
    ))
}

fn handle_stream_get(state: &AppState, id: &str) -> Handled {
    let entry = state
        .streams
        .get(id)
        .ok_or_else(|| ApiError::stream_not_found(id))?;
    Ok((200, stream_summary(&entry)))
}

fn handle_stream_delete(state: &AppState, id: &str) -> Handled {
    match state.streams.remove(id) {
        Some(entry) => {
            let digest = entry
                .solver
                .lock()
                .expect("stream solver lock poisoned")
                .digest();
            if let Some(durable) = &state.durable {
                durable.delete_stream(entry.seq)?;
            }
            // Evict the solutions cached for the stream's current state
            // (the only digest still reachable through this stream; any
            // older state's entries are keyed by digests no live request
            // can produce, and age out of the LRU).
            forget(state, digest);
            Ok((
                200,
                Json::obj([("id", Json::from(id)), ("deleted", Json::from(true))]),
            ))
        }
        None => Err(ApiError::stream_not_found(id)),
    }
}

/// `POST /streams/{id}/push`: one instance document = one epoch.
/// All-or-nothing per chunk — a dimension mismatch consumes nothing.
///
/// The connection thread parses and validates, then hands the chunk to
/// the ingest worker through the bounded per-stream queue and parks
/// until it is applied. A full queue is a `429 ingest_overloaded` with
/// `Retry-After` *before* anything is enqueued, so a rejected push never
/// has side effects and retrying is always safe.
fn handle_stream_push(state: &AppState, id: &str, request: &Request) -> Handled {
    let doc = api::parse_body(&request.body)?;
    let instance = JsonInstance::from_json(&doc).map_err(ApiError::from)?;
    let chunk = instance.to_set().map_err(ApiError::from)?;
    let entry = state
        .streams
        .get(id)
        .ok_or_else(|| ApiError::stream_not_found(id))?;
    let slot = Arc::new(ReplySlot::new());
    let job = PushJob {
        entry,
        chunk,
        body: state.durable.is_some().then(|| request.body.clone()),
        slot: Arc::clone(&slot),
    };
    match state.ingest.submit(id, job) {
        Ok(()) => state
            .metrics
            .ingest_accepted
            .fetch_add(1, Ordering::Relaxed),
        Err(crate::ingest::SubmitError::Full { depth, cap }) => {
            state
                .metrics
                .ingest_rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(ApiError::ingest_overloaded(depth, cap));
        }
        Err(crate::ingest::SubmitError::Shutdown) => return Err(ApiError::unavailable()),
    };
    slot.wait()
}

/// Applies one queued push on the ingest worker: evolve the summary,
/// durably log the epoch (fsync before ack), snapshot periodically, and
/// render the push response.
fn apply_stream_push(
    state: &AppState,
    entry: &crate::streams::StreamEntry,
    chunk: UncertainSet<Point>,
    body: Option<&[u8]>,
) -> Handled {
    let mut solver = entry.solver.lock().expect("stream solver lock poisoned");
    let epoch = solver.push_chunk(chunk.points()).map_err(ApiError::from)?;
    if let Some(durable) = &state.durable {
        // The ack contract: the epoch's WAL record is fsync'd before the
        // response leaves. On failure the client gets a retryable 503 and
        // no ack — the epoch may be lost on restart, which is exactly the
        // unacked-push contract.
        let body = body.expect("durable pushes carry their body");
        durable.append_push(entry.seq, epoch.epoch, body)?;
        // Periodic snapshot so recovery replays only the WAL tail.
        // Best-effort: a failed snapshot costs recovery time, not data.
        if state.snapshot_interval > 0 && epoch.epoch % state.snapshot_interval == 0 {
            let payload = persist::encode_snapshot(&solver.snapshot());
            let _ = durable.write_snapshot(
                entry.seq,
                &Snapshot {
                    epochs: epoch.epoch,
                    digest: solver.digest(),
                    payload,
                },
            );
        }
    }
    let report = solver.report();
    Ok((
        200,
        Json::obj([
            ("id", Json::from(entry.id.as_str())),
            ("epoch", Json::from(epoch.epoch as f64)),
            ("points", Json::from(epoch.points)),
            ("points_seen", Json::from(report.points as f64)),
            ("summary_size", Json::from(report.summary_len)),
            ("threshold", Json::from(report.threshold)),
            ("merges", Json::from(epoch.merges as f64)),
            ("distance_evals", Json::from(epoch.distance_evals as f64)),
            ("memory_peak_points", Json::from(report.memory_peak_points)),
            ("digest", Json::from(digest_hex(report.digest))),
        ]),
    ))
}

/// `GET /streams/{id}/solution`: incremental re-solve. The summary is
/// snapshotted under the stream lock, then solved as a problem *through
/// the scheduler* like any other request; the solution cache is keyed on
/// the snapshot's content digest, which every push changes — so repeated
/// reads of an unchanged stream hit the cache, and a push invalidates it
/// by construction.
fn handle_stream_solution(state: &AppState, id: &str) -> Handled {
    let entry = state
        .streams
        .get(id)
        .ok_or_else(|| ApiError::stream_not_found(id))?;
    // Under a staleness budget, a read inside the window re-serves the
    // last rendered response (marked `"stale": true`) without touching
    // the solver or the scheduler — at most one snapshot + solve per
    // budget window per stream, no matter the read rate.
    if !state.solve_staleness.is_zero() {
        let slot = entry
            .last_response
            .lock()
            .expect("stream response slot poisoned");
        if let Some((at, cached_body)) = slot.as_ref() {
            if at.elapsed() < state.solve_staleness {
                state.metrics.stale_served.fetch_add(1, Ordering::Relaxed);
                let mut body = cached_body.clone();
                if let Json::Obj(pairs) = &mut body {
                    pairs.push(("stale".into(), Json::from(true)));
                }
                return Ok((200, body));
            }
        }
    }
    let (set, solve, report, coverage, stream_lb) = {
        let solver = entry.solver.lock().expect("stream solver lock poisoned");
        if solver.is_empty() {
            return Err(ukc_core::SolveError::EmptySet.into());
        }
        let summary_points = solver.summary().center_points();
        // The summary may hold fewer points than k (the stream is still
        // warming up): solve for every summary point as a center.
        let k_eff = solver.k().min(summary_points.len());
        let certain: Vec<UncertainPoint<Point>> = summary_points
            .into_iter()
            .map(UncertainPoint::certain)
            .collect();
        let solve = SolveRequest {
            k: k_eff,
            config: solver.config().clone(),
            use_cache: entry.use_cache,
        };
        (
            UncertainSet::new(certain),
            solve,
            solver.report(),
            solver.summary().coverage_radius(),
            solver.summary().lower_bound(),
        )
    };
    // The cache key is the *stream* digest — the full evolved state
    // (centers, weights, threshold, count) — so any push invalidates by
    // construction, and replicas that consumed the same stream share
    // entries. It also becomes the response's `instance_digest`.
    //
    // The entry's last-solution slot chains epochs: an evolved stream
    // warm-starts from the previous epoch's solution (epochs that only
    // appended summary points re-solve in O(delta); a reshaped summary
    // falls back cold with a typed flag — never an error). An unchanged
    // stream is served by the ordinary digest-keyed solution cache, so
    // repeat reads still count as cache hits.
    let slot = entry
        .last_solution
        .lock()
        .expect("stream solution slot poisoned")
        .clone();
    let warm = match slot {
        Some((digest, prior)) if digest != report.digest => Some(WarmBase::Prior {
            base_digest: digest,
            prior,
        }),
        _ => None,
    };
    let solved = obtain_solution(
        state,
        report.digest,
        |k| Problem::euclidean(set, k),
        &solve,
        warm.as_ref(),
    )?;
    *entry
        .last_solution
        .lock()
        .expect("stream solution slot poisoned") =
        Some((report.digest, Arc::clone(solved.solution())));
    let base = warm.as_ref().and_then(WarmBase::base_digest);
    let (status, mut body) = (
        200,
        solve_response(solved.solution(), report.digest, solved.cached(), base),
    );
    let certain_radius = body
        .get("certain_radius")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if let Json::Obj(pairs) = &mut body {
        pairs.push((
            "stream".into(),
            Json::obj([
                ("id", Json::from(entry.id.as_str())),
                ("digest", Json::from(digest_hex(report.digest))),
                ("points_seen", Json::from(report.points as f64)),
                ("epochs", Json::from(report.epochs as f64)),
                ("summary_size", Json::from(report.summary_len)),
                ("threshold", Json::from(report.threshold)),
                ("radius_bound", Json::from(certain_radius + coverage)),
                ("lower_bound", Json::from(stream_lb)),
                ("memory_peak_points", Json::from(report.memory_peak_points)),
            ]),
        ));
    }
    if !state.solve_staleness.is_zero() {
        *entry
            .last_response
            .lock()
            .expect("stream response slot poisoned") = Some((Instant::now(), body.clone()));
    }
    Ok((status, body))
}

/// How a `base=<digest>` query parameter resolved.
enum WarmBase {
    /// The prior is in hand: the base's content digest and a solution of
    /// it to chain from.
    Prior {
        base_digest: u64,
        prior: Arc<Solution<Point>>,
    },
    /// No prior could be produced. The solve proceeds **cold** with a
    /// typed `report.warm.fallback` flag — a bad base is never an error.
    Unresolved { reason: &'static str },
}

impl WarmBase {
    /// The digest a response names under `"base"`: the prior's instance,
    /// when one resolved.
    fn base_digest(&self) -> Option<u64> {
        match self {
            WarmBase::Prior { base_digest, .. } => Some(*base_digest),
            WarmBase::Unresolved { .. } => None,
        }
    }
}

/// How [`obtain_solution`] produced a solution.
enum Obtained {
    /// From the response cache; the entry holds the hit body.
    Hit(Arc<CachedSolve>),
    /// From a solve through the scheduler, with the cache entry it
    /// filled, if any.
    Miss(Arc<Solution<Point>>, Option<Arc<CachedSolve>>),
}

impl Obtained {
    fn solution(&self) -> &Arc<Solution<Point>> {
        match self {
            Obtained::Hit(entry) => &entry.solution,
            Obtained::Miss(solution, _) => solution,
        }
    }

    fn cached(&self) -> bool {
        matches!(self, Obtained::Hit(_))
    }
}

/// Produces the warm prior for `base`: the freshest solution the server
/// holds for it (the prior map, which warm results also land in), the
/// response cache, or — both missing — a cold solve of the stored base
/// instance, recorded for the next chain link. Unknown, unparseable, or
/// unsolvable bases resolve to [`WarmBase::Unresolved`].
fn resolve_base(state: &AppState, base: &str, solve: &SolveRequest) -> WarmBase {
    let Ok(base_digest) = u64::from_str_radix(base, 16) else {
        return WarmBase::Unresolved {
            reason: "base_invalid",
        };
    };
    let base_problem_digest = ukc_core::digest_problem("euclidean", solve.k, base_digest, None);
    let key = SolveKey::new(base_problem_digest, base_digest, &solve.config);
    let held = state
        .priors
        .lock()
        .expect("prior cache lock poisoned")
        .get(&key)
        .cloned()
        .or_else(|| {
            state
                .cache
                .lock()
                .expect("cache lock poisoned")
                .get(&key)
                .map(|entry| Arc::clone(&entry.solution))
        });
    if let Some(prior) = held {
        return WarmBase::Prior { base_digest, prior };
    }
    let Some(stored) = state.store.get(base) else {
        return WarmBase::Unresolved {
            reason: "base_not_found",
        };
    };
    let Ok(problem) = stored.problem(solve.k) else {
        return WarmBase::Unresolved {
            reason: "base_unsolvable",
        };
    };
    match state
        .scheduler
        .solve(problem, solve.config.clone(), base_problem_digest, None)
    {
        Ok(Ok(solution)) => WarmBase::Prior {
            base_digest,
            prior: retain(state, key, None, solution).0,
        },
        _ => WarmBase::Unresolved {
            reason: "base_unsolvable",
        },
    }
}

/// The single-solution response of `POST /instances/{id}/solve` and
/// `POST /solve`. A miss renders its document once and fills the cache
/// entry's hit body from it, so no hit renders; a hit writes the entry's
/// body. The entry's key fixes the solution, `set_digest` and the warm
/// base, so those bytes equal a fresh render.
fn run_solve(
    state: &AppState,
    set_digest: u64,
    problem: impl FnOnce(usize) -> Result<Problem<Point>, SolveError>,
    solve: &SolveRequest,
    warm: Option<WarmBase>,
) -> Served {
    let base = warm.as_ref().and_then(WarmBase::base_digest);
    let body = match obtain_solution(state, set_digest, problem, solve, warm.as_ref())? {
        Obtained::Hit(entry) => Body::Rendered(
            entry.hit_body(|solution| solve_response(solution, set_digest, true, base).pretty()),
        ),
        Obtained::Miss(solution, entry) => {
            let miss = solve_response(&solution, set_digest, false, base).pretty();
            if let Some(entry) = entry {
                entry.hit_body(|_| as_hit(&miss));
            }
            Body::Rendered(miss.into())
        }
    };
    Ok((200, body))
}

/// The shared solve path: cache lookup by `(digest, config)` — extended
/// by the base digest for warm requests, so warm and cold results never
/// collide — then, on a miss only, problem construction, scheduler
/// submission, and cache fill. `set_digest` is the instance's content
/// digest (the store ID); the cache key extends it with `k` and the
/// space so different requests against one instance cannot collide.
/// `problem` builds the validated problem for `k` on a miss only; a
/// stored instance's problem shares its set by reference count and
/// validates the locations once
/// ([`crate::store::StoredInstance::problem`]).
fn obtain_solution(
    state: &AppState,
    set_digest: u64,
    problem: impl FnOnce(usize) -> Result<Problem<Point>, SolveError>,
    solve: &SolveRequest,
    warm: Option<&WarmBase>,
) -> Result<Obtained, ApiError> {
    let problem_digest = ukc_core::digest_problem("euclidean", solve.k, set_digest, None);
    let cold_key = SolveKey::new(problem_digest, set_digest, &solve.config);
    let key = match warm {
        Some(WarmBase::Prior { base_digest, .. }) => cold_key.clone().with_base(*base_digest),
        _ => cold_key.clone(),
    };
    // An unresolved base bypasses the response cache entirely: the result
    // is a cold solve with a warm-fallback flag stamped on, which must
    // neither be served from nor stored under the plain cold key.
    let use_cache = solve.use_cache && !matches!(warm, Some(WarmBase::Unresolved { .. }));

    if use_cache {
        if let Some(entry) = cache_hit(state, &key) {
            return Ok(Obtained::Hit(entry));
        }
    }

    let problem = problem(solve.k).map_err(|e| {
        state.metrics.record_solve_error();
        ApiError::from(e)
    })?;
    let prior = match warm {
        Some(WarmBase::Prior { base_digest, prior }) => Some((*base_digest, Arc::clone(prior))),
        _ => None,
    };
    let outcome = state
        .scheduler
        .solve(problem, solve.config.clone(), problem_digest, prior);
    let mut solution = outcome.map_err(submit_err)?.map_err(ApiError::from)?;
    if let Some(WarmBase::Unresolved { reason }) = warm {
        solution.report.warm = Some(WarmStats {
            fallback: Some(reason),
            ..WarmStats::default()
        });
        state.metrics.record_warm_fallback();
    }
    let (solution, entry) = retain(state, cold_key, use_cache.then_some(key), solution);
    Ok(Obtained::Miss(solution, entry))
}

/// A rendered [`solve_response`] miss body as its hit body: the same
/// bytes with `"cached": true`. The flag is the document's last
/// `"cached"` key, since only `base`, a hex digest, follows it.
fn as_hit(miss: &str) -> String {
    const FLAG: &str = "\"cached\": false";
    let at = miss
        .rfind(FLAG)
        .expect("a solve response carries its cached flag");
    [&miss[..at], "\"cached\": true", &miss[at + FLAG.len()..]].concat()
}

/// Drops every solution [`retain`] kept for the set `set_digest` (any
/// `k`, any config), from the response cache and the priors alike.
fn forget(state: &AppState, set_digest: u64) {
    state
        .cache
        .lock()
        .expect("cache lock poisoned")
        .retain(|key| key.set_digest != set_digest);
    state
        .priors
        .lock()
        .expect("prior cache lock poisoned")
        .retain(|key| key.set_digest != set_digest);
}

/// The response cache's entry under `key`, counted as a hit.
fn cache_hit(state: &AppState, key: &SolveKey) -> Option<Arc<CachedSolve>> {
    let entry = state
        .cache
        .lock()
        .expect("cache lock poisoned")
        .get(key)
        .cloned()?;
    state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
    Some(entry)
}

/// Retains a solution the scheduler produced — the one place the server
/// keeps solutions. Every solution, cold or warm, becomes the freshest
/// prior under its cold-shaped `prior_key`, so an append chain never
/// re-solves a parent cold; with a `cache_key` it also fills the response
/// cache and returns the entry it made.
fn retain(
    state: &AppState,
    prior_key: SolveKey,
    cache_key: Option<SolveKey>,
    solution: Solution<Point>,
) -> (Arc<Solution<Point>>, Option<Arc<CachedSolve>>) {
    let solution = Arc::new(solution);
    state
        .priors
        .lock()
        .expect("prior cache lock poisoned")
        .insert(prior_key, Arc::clone(&solution));
    let entry = cache_key.map(|key| {
        // A miss is only recorded once a cacheable solve actually
        // completed, so hits + misses counts cache *lookup outcomes*
        // for real solutions and failed requests cannot skew hit_rate.
        state.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(CachedSolve::new(Arc::clone(&solution)));
        state
            .cache
            .lock()
            .expect("cache lock poisoned")
            .insert(key, Arc::clone(&entry));
        entry
    });
    (solution, entry)
}

/// `POST /instances/{id}/solve_loo`: batch leave-one-out over a stored
/// instance — the base solution plus all `n` one-point-removed variants
/// sharing one point store. LOO manages its own deterministic pool
/// fan-out (variants across lanes), so it runs on the connection thread
/// instead of occupying a scheduler wave.
fn handle_instance_solve_loo(state: &AppState, id: &str, request: &Request) -> Handled {
    let doc = api::parse_body(&request.body)?;
    let solve = api::parse_solve_request(&doc, false)?;
    let stored = state
        .store
        .get(id)
        .ok_or_else(|| ApiError::instance_not_found(id))?;
    let loo = stored
        .problem(solve.k)
        .and_then(|problem| ukc_core::solve_loo(&problem, &solve.config))
        .map_err(|e| {
            state.metrics.record_solve_error();
            ApiError::from(e)
        })?;
    state
        .metrics
        .record_solve(&loo.base.report, solve.config.assignment());
    let mut body = loo_document(&loo, solve_response(&loo.base, stored.digest, false, None));
    if let Json::Obj(pairs) = &mut body {
        let digest = Json::from(digest_hex(stored.digest));
        pairs.insert(0, ("instance_digest".into(), digest));
    }
    Ok((200, body))
}

fn submit_err(e: crate::scheduler::SubmitError) -> ApiError {
    match e {
        crate::scheduler::SubmitError::ShuttingDown => ApiError::unavailable(),
        crate::scheduler::SubmitError::Overloaded { depth, cap } => {
            ApiError::overloaded(depth, cap)
        }
        crate::scheduler::SubmitError::Panicked => {
            ApiError::internal("the solve failed internally; other requests are unaffected")
        }
    }
}

/// `POST /solve_batch`: solves many stored instances under one shared
/// configuration in a **single scheduler submission**, so the whole
/// batch coalesces into as few waves as possible instead of queueing one
/// job per round trip. Per-id failures (unknown instance, solve error)
/// come back as per-slot error documents in request order; only a
/// malformed request or a full queue fails the batch as a whole. This is
/// also the scatter unit of coordinator mode: a coordinator forwards one
/// sub-batch per shard.
fn handle_solve_batch(state: &AppState, request: &Request) -> Handled {
    let doc = api::parse_body(&request.body)?;
    let (ids, solve) = api::parse_solve_batch(&doc)?;

    // Resolve every id first; per-slot outcomes never reorder.
    let mut slots: Vec<Option<Json>> = vec![None; ids.len()];
    let mut jobs = Vec::new();
    let mut job_slots: Vec<(usize, SolveKey, u64)> = Vec::new(); // (slot, cache key, set digest)
    for (slot, id) in ids.iter().enumerate() {
        let Some(stored) = state.store.get(id) else {
            slots[slot] = Some(ApiError::instance_not_found(id).to_json());
            continue;
        };
        let set_digest = stored.digest;
        let problem_digest = ukc_core::digest_problem("euclidean", solve.k, set_digest, None);
        let key = SolveKey::new(problem_digest, set_digest, &solve.config);
        if solve.use_cache {
            if let Some(entry) = cache_hit(state, &key) {
                slots[slot] = Some(solve_response(&entry.solution, set_digest, true, None));
                continue;
            }
        }
        match stored.problem(solve.k) {
            Ok(problem) => {
                jobs.push((problem, solve.config.clone(), problem_digest, None));
                job_slots.push((slot, key, set_digest));
            }
            Err(e) => {
                state.metrics.record_solve_error();
                slots[slot] = Some(ApiError::from(e).to_json());
            }
        }
    }

    if !jobs.is_empty() {
        let results = state.scheduler.solve_many(jobs).map_err(submit_err)?;
        for ((slot, key, set_digest), result) in job_slots.into_iter().zip(results) {
            slots[slot] = Some(match result {
                Ok(solution) => {
                    let cache_key = solve.use_cache.then(|| key.clone());
                    let (solution, _) = retain(state, key, cache_key, solution);
                    solve_response(&solution, set_digest, false, None)
                }
                Err(e) => ApiError::from(e).to_json(),
            });
        }
    }

    let count = slots.len();
    let solutions: Vec<Json> = slots
        .into_iter()
        .map(|s| s.expect("every slot is resolved, cached, errored, or solved"))
        .collect();
    Ok((
        200,
        Json::obj([
            ("solutions", Json::arr(solutions)),
            ("count", Json::from(count)),
        ]),
    ))
}

/// `POST /replicate`: the cluster-internal store path. Unlike `POST
/// /instances` this parses the document **verbatim** — no probability
/// renormalization — so a replica stores bit-identical points and the
/// content digest (the instance ID) is preserved exactly. Coordinators
/// use it for hot-instance copies and for storing grown appends; it is
/// harmless to expose on a single node, where it behaves like create for
/// already-normalized documents.
fn handle_replicate(state: &AppState, request: &Request) -> Handled {
    let doc = api::parse_body(&request.body)?;
    let instance = JsonInstance::from_json(&doc).map_err(ApiError::from)?;
    let set = instance.to_set_verbatim().map_err(ApiError::from)?;
    persist_instance(state, &set)?;
    let (stored, created) = state.store.insert(set);
    let mut body = stored.summary();
    if let Json::Obj(pairs) = &mut body {
        pairs.push(("created".into(), Json::from(created)));
    }
    Ok((if created { 201 } else { 200 }, body))
}

/// The solve response: the shared solution document plus serving
/// metadata (`instance_digest` — the same content digest `POST
/// /instances` returns as the ID — `cached`, and for a warm solve the
/// prior's instance under `base`).
fn solve_response(
    solution: &Solution<Point>,
    set_digest: u64,
    cached: bool,
    base: Option<u64>,
) -> Json {
    let mut doc = solution_document(solution);
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("instance_digest".into(), Json::from(digest_hex(set_digest))));
        pairs.push(("cached".into(), Json::from(cached)));
        if let Some(base) = base {
            pairs.push(("base".into(), Json::from(digest_hex(base))));
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_miss_body_turns_into_its_hit_body() {
        use ukc_uncertain::generators::{clustered, ProbModel};
        let set = clustered(3, 12, 2, 2, 5, 4.0, 1.0, ProbModel::Random);
        let solution = Problem::euclidean(set, 3)
            .unwrap()
            .solve(&SolverConfig::default())
            .unwrap();
        for base in [None, Some(0xfeed_u64)] {
            let miss = solve_response(&solution, 0xabc, false, base).pretty();
            let hit = solve_response(&solution, 0xabc, true, base).pretty();
            assert_eq!(as_hit(&miss), hit, "base = {base:?}");
        }
    }
}
