//! The ops surface: lock-free counters behind `/metrics`.
//!
//! Everything is a relaxed [`AtomicU64`] — counters are monotonically
//! increasing and read racily by `/metrics`, which is fine for
//! monitoring. Solve instrumentation aggregates the per-solve
//! [`Report`]s (stage timings and distance evaluations) so the dashboard
//! shows where server time actually goes without re-profiling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ukc_core::{AssignmentMode, Report};
use ukc_json::Json;
use ukc_metric::Kernel;
use ukc_pool::PoolStats;

/// Route labels, one counter slot each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `POST /instances`
    InstanceCreate,
    /// `GET /instances`
    InstanceList,
    /// `GET /instances/{id}`
    InstanceGet,
    /// `DELETE /instances/{id}`
    InstanceDelete,
    /// `POST /instances/{id}/solve`
    InstanceSolve,
    /// `POST /instances/{id}/append`
    InstanceAppend,
    /// `POST /instances/{id}/solve_loo`
    InstanceSolveLoo,
    /// `POST /solve`
    OneShotSolve,
    /// `POST /streams`
    StreamCreate,
    /// `GET /streams`
    StreamList,
    /// `GET /streams/{id}`
    StreamGet,
    /// `DELETE /streams/{id}`
    StreamDelete,
    /// `POST /streams/{id}/push`
    StreamPush,
    /// `GET /streams/{id}/solution`
    StreamSolution,
    /// `POST /solve_batch`
    SolveBatch,
    /// `POST /replicate` (internal: coordinator-pushed hot copies)
    Replicate,
    /// `GET /cluster/status`
    ClusterStatus,
    /// `POST /cluster/nodes`
    ClusterNodeAdd,
    /// `DELETE /cluster/nodes/{id}`
    ClusterNodeRemove,
    /// Anything that matched no route, or a real route with a method it
    /// does not support.
    Unmatched,
}

const ROUTES: [(Route, &str); 22] = [
    (Route::Healthz, "healthz"),
    (Route::Metrics, "metrics"),
    (Route::InstanceCreate, "instances_create"),
    (Route::InstanceList, "instances_list"),
    (Route::InstanceGet, "instances_get"),
    (Route::InstanceDelete, "instances_delete"),
    (Route::InstanceSolve, "instances_solve"),
    (Route::InstanceAppend, "instances_append"),
    (Route::InstanceSolveLoo, "instances_solve_loo"),
    (Route::OneShotSolve, "solve"),
    (Route::StreamCreate, "streams_create"),
    (Route::StreamList, "streams_list"),
    (Route::StreamGet, "streams_get"),
    (Route::StreamDelete, "streams_delete"),
    (Route::StreamPush, "streams_push"),
    (Route::StreamSolution, "streams_solution"),
    (Route::SolveBatch, "solve_batch"),
    (Route::Replicate, "replicate"),
    (Route::ClusterStatus, "cluster_status"),
    (Route::ClusterNodeAdd, "cluster_nodes_add"),
    (Route::ClusterNodeRemove, "cluster_nodes_remove"),
    (Route::Unmatched, "unmatched"),
];

fn route_slot(route: Route) -> usize {
    ROUTES
        .iter()
        .position(|(r, _)| *r == route)
        .expect("every route has a slot")
}

fn kernel_slot(kernel: Kernel) -> usize {
    Kernel::ALL
        .iter()
        .position(|k| *k == kernel)
        .expect("every kernel has a slot")
}

fn assignment_slot(assignment: AssignmentMode) -> usize {
    AssignmentMode::ALL
        .iter()
        .position(|a| *a == assignment)
        .expect("every assignment mode has a slot")
}

/// Bucket count of a [`Log2Histogram`]: bucket 39 already starts at
/// 2³⁸ (about three days in microseconds), so larger values share it.
const LOG2_BUCKETS: usize = 40;

/// A fixed log₂-bucket histogram of non-negative integers. Bucket `b`
/// holds the values whose bit length is `b` — 0 alone, then 1, 2–3,
/// 4–7, … — so recording is one `leading_zeros` and one relaxed add, and
/// a quantile is read as the inclusive upper edge of its bucket: never
/// below the true value and less than twice it.
pub(crate) struct Log2Histogram {
    buckets: [AtomicU64; LOG2_BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Log2Histogram {
    /// Counts one value.
    pub fn record(&self, value: u64) {
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        add(&self.buckets[bucket.min(LOG2_BUCKETS - 1)], 1);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(get).sum()
    }

    /// The upper edge of the bucket holding the `q`-quantile (`q` in
    /// `[0, 1]`); 0 while the histogram is empty. Read racily, like every
    /// counter here.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(get).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (bucket, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << bucket) - 1;
            }
        }
        unreachable!("the cumulative count reaches the total")
    }

    /// `{"count", "p50", "p95", "p99"}`, each quantile's upper edge
    /// multiplied by `scale` (e.g. µs → ms).
    fn to_json(&self, scale: f64) -> Json {
        let q = |q: f64| Json::from(self.quantile(q) as f64 * scale);
        Json::obj([
            ("count", Json::from(self.count() as f64)),
            ("p50", q(0.50)),
            ("p95", q(0.95)),
            ("p99", q(0.99)),
        ])
    }
}

/// All server counters.
#[derive(Default)]
pub struct Metrics {
    requests_by_route: [AtomicU64; ROUTES.len()],
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    /// Solve requests answered from the cache.
    pub cache_hits: AtomicU64,
    /// Solve requests that had to compute.
    pub cache_misses: AtomicU64,
    /// Scheduler waves executed.
    pub waves: AtomicU64,
    /// Waves whose batch actually fanned out on the shared worker pool
    /// (more than one unique job and more than one lane configured).
    pub pool_waves: AtomicU64,
    /// Jobs carried by those waves (jobs/waves = achieved batching).
    pub wave_jobs: AtomicU64,
    /// Duplicate jobs coalesced inside waves (served one solve, many replies).
    pub coalesced_jobs: AtomicU64,
    /// Submissions rejected because the bounded queue was full.
    pub overloaded: AtomicU64,
    /// Jobs answered with an internal error because their wave panicked
    /// while solving them.
    pub panicked_jobs: AtomicU64,
    /// Per-job queue wait, submit → wave start, in microseconds.
    queue_wait_us: Log2Histogram,
    /// Jobs per wave.
    wave_size: Log2Histogram,
    /// Waves executing right now (a gauge).
    in_flight: AtomicU64,
    /// The most waves ever executing at once.
    in_flight_max: AtomicU64,
    solves_ok: AtomicU64,
    solves_err: AtomicU64,
    /// Solves that went through the warm-start path (whether the warm
    /// certificate held or the solve fell back cold).
    warm_solves: AtomicU64,
    /// Distance evaluations the warm path avoided versus the cold
    /// estimate, summed over successful warm solves.
    warm_evals_saved: AtomicU64,
    /// Warm-start attempts that degraded to a cold solve (typed
    /// `report.warm.fallback` present).
    warm_fallback_cold: AtomicU64,
    solve_nanos: AtomicU64,
    representatives_nanos: AtomicU64,
    certain_solve_nanos: AtomicU64,
    assignment_nanos: AtomicU64,
    cost_nanos: AtomicU64,
    lower_bound_nanos: AtomicU64,
    distance_evals: AtomicU64,
    /// Per-kernel solve counts, one slot per [`Kernel::ALL`] entry.
    kernel_solves: [AtomicU64; Kernel::ALL.len()],
    /// Per-kernel aggregate wall time spent in solves, same slot order.
    kernel_nanos: [AtomicU64; Kernel::ALL.len()],
    /// Per-assignment-mode solve counts, one slot per
    /// [`AssignmentMode::ALL`] entry.
    assignment_solves: [AtomicU64; AssignmentMode::ALL.len()],
    /// Per-assignment-mode aggregate wall time, same slot order.
    assignment_nanos_by_mode: [AtomicU64; AssignmentMode::ALL.len()],
    /// Stream pushes accepted into a bounded ingest queue.
    pub ingest_accepted: AtomicU64,
    /// Stream pushes rejected because the per-stream ingest queue was
    /// full (typed `429 ingest_overloaded` with `Retry-After`).
    pub ingest_rejected: AtomicU64,
    /// Stream-solution reads served from the epoch cached inside the
    /// staleness budget (no new snapshot/solve ran).
    pub stale_served: AtomicU64,
}

fn add(counter: &AtomicU64, v: u64) {
    counter.fetch_add(v, Ordering::Relaxed);
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a wave as started: counts it, records its size and each
    /// job's queue wait, and raises the in-flight gauge. Pair with
    /// [`Metrics::wave_finished`].
    pub fn wave_started(&self, waits: &[Duration]) {
        add(&self.waves, 1);
        add(&self.wave_jobs, waits.len() as u64);
        self.wave_size.record(waits.len() as u64);
        for wait in waits {
            self.queue_wait_us
                .record(wait.as_micros().min(u128::from(u64::MAX)) as u64);
        }
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.in_flight_max.fetch_max(now, Ordering::Relaxed);
    }

    /// Lowers the in-flight gauge when a wave has answered every job.
    pub fn wave_finished(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Waves executing right now.
    pub fn waves_in_flight(&self) -> u64 {
        get(&self.in_flight)
    }

    /// The most waves that were ever executing at once.
    pub fn waves_in_flight_max(&self) -> u64 {
        get(&self.in_flight_max)
    }

    /// Counts a request against its route.
    pub fn record_request(&self, route: Route) {
        add(&self.requests_by_route[route_slot(route)], 1);
    }

    /// Counts a response by status class.
    pub fn record_response(&self, status: u16) {
        match status {
            200..=299 => add(&self.responses_2xx, 1),
            400..=499 => add(&self.responses_4xx, 1),
            _ => add(&self.responses_5xx, 1),
        }
    }

    /// Folds one successful solve's [`Report`] into the aggregates,
    /// attributed to the distance kernel the solve ran under. Warm-start
    /// solves land in the same per-kernel slots as cold ones (the warm
    /// path runs on the same kernel) and additionally feed the
    /// `solves.warm` counters from [`Report::warm`].
    pub fn record_solve(&self, report: &Report, kernel: Kernel, assignment: AssignmentMode) {
        add(&self.solves_ok, 1);
        if let Some(warm) = &report.warm {
            add(&self.warm_solves, 1);
            add(&self.warm_evals_saved, warm.evals_saved);
            if warm.fallback.is_some() {
                add(&self.warm_fallback_cold, 1);
            }
        }
        let nanos = |d: std::time::Duration| d.as_nanos().min(u128::from(u64::MAX)) as u64;
        let slot = kernel_slot(kernel);
        add(&self.kernel_solves[slot], 1);
        add(&self.kernel_nanos[slot], nanos(report.timings.total));
        let a_slot = assignment_slot(assignment);
        add(&self.assignment_solves[a_slot], 1);
        add(
            &self.assignment_nanos_by_mode[a_slot],
            nanos(report.timings.total),
        );
        add(&self.solve_nanos, nanos(report.timings.total));
        add(
            &self.representatives_nanos,
            nanos(report.timings.representatives),
        );
        add(
            &self.certain_solve_nanos,
            nanos(report.timings.certain_solve),
        );
        add(&self.assignment_nanos, nanos(report.timings.assignment));
        add(&self.cost_nanos, nanos(report.timings.cost));
        add(&self.lower_bound_nanos, nanos(report.timings.lower_bound));
        add(&self.distance_evals, report.distance_evals.total());
    }

    /// Counts a solve that returned a typed error.
    pub fn record_solve_error(&self) {
        add(&self.solves_err, 1);
    }

    /// Counts a warm request whose base never resolved to a prior (the
    /// solve itself ran cold through the scheduler, so its report carried
    /// no [`ukc_core::WarmStats`] when it was recorded — the server
    /// stamps the fallback flag afterwards and accounts for it here).
    pub fn record_warm_fallback(&self) {
        add(&self.warm_solves, 1);
        add(&self.warm_fallback_cold, 1);
    }

    /// The `/metrics` document body (cache size/capacity, instance and
    /// stream counts, the stored instances' prepared layouts as
    /// `(layouts, bytes)`, the shared worker pool's occupancy, and — when
    /// the server runs with `--data-dir` — the durability gauges are owned
    /// elsewhere and passed in; `durability: None` omits the section, so
    /// in-memory servers emit exactly the historical document).
    #[allow(clippy::too_many_arguments)]
    pub fn to_json(
        &self,
        cache_len: usize,
        cache_cap: usize,
        instances: usize,
        prepared: (usize, usize),
        streams: usize,
        pool: PoolStats,
        durability: Option<Json>,
    ) -> Json {
        let secs = |c: &AtomicU64| Json::from(get(c) as f64 / 1e9);
        let hits = get(&self.cache_hits);
        let misses = get(&self.cache_misses);
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        let mut doc = Json::obj([
            (
                "requests",
                Json::obj(ROUTES.iter().enumerate().map(|(i, (_, name))| {
                    (*name, Json::from(get(&self.requests_by_route[i]) as f64))
                })),
            ),
            (
                "responses",
                Json::obj([
                    ("2xx", Json::from(get(&self.responses_2xx) as f64)),
                    ("4xx", Json::from(get(&self.responses_4xx) as f64)),
                    ("5xx", Json::from(get(&self.responses_5xx) as f64)),
                ]),
            ),
            (
                "cache",
                Json::obj([
                    ("hits", Json::from(hits as f64)),
                    ("misses", Json::from(misses as f64)),
                    ("hit_rate", Json::from(hit_rate)),
                    ("size", Json::from(cache_len)),
                    ("capacity", Json::from(cache_cap)),
                ]),
            ),
            (
                "scheduler",
                Json::obj([
                    ("waves", Json::from(get(&self.waves) as f64)),
                    ("wave_jobs", Json::from(get(&self.wave_jobs) as f64)),
                    (
                        "coalesced_jobs",
                        Json::from(get(&self.coalesced_jobs) as f64),
                    ),
                    ("overloaded", Json::from(get(&self.overloaded) as f64)),
                    ("panicked_jobs", Json::from(get(&self.panicked_jobs) as f64)),
                    ("in_flight", Json::from(get(&self.in_flight) as f64)),
                    ("in_flight_max", Json::from(get(&self.in_flight_max) as f64)),
                    ("queue_wait_ms", self.queue_wait_us.to_json(1e-3)),
                    ("wave_size", self.wave_size.to_json(1.0)),
                ]),
            ),
            (
                "pool",
                Json::obj([
                    ("workers", Json::from(pool.workers)),
                    ("busy", Json::from(pool.busy)),
                    ("queued_chunks", Json::from(pool.queued_chunks)),
                    ("tasks", Json::from(pool.tasks as f64)),
                    ("chunks", Json::from(pool.chunks as f64)),
                    ("waves", Json::from(get(&self.pool_waves) as f64)),
                ]),
            ),
            (
                "solves",
                Json::obj([
                    ("ok", Json::from(get(&self.solves_ok) as f64)),
                    ("errors", Json::from(get(&self.solves_err) as f64)),
                    (
                        "distance_evals",
                        Json::from(get(&self.distance_evals) as f64),
                    ),
                    (
                        "seconds",
                        Json::obj([
                            ("total", secs(&self.solve_nanos)),
                            ("representatives", secs(&self.representatives_nanos)),
                            ("certain_solve", secs(&self.certain_solve_nanos)),
                            ("assignment", secs(&self.assignment_nanos)),
                            ("cost", secs(&self.cost_nanos)),
                            ("lower_bound", secs(&self.lower_bound_nanos)),
                        ]),
                    ),
                    (
                        "warm",
                        Json::obj([
                            ("count", Json::from(get(&self.warm_solves) as f64)),
                            (
                                "evals_saved",
                                Json::from(get(&self.warm_evals_saved) as f64),
                            ),
                            (
                                "fallback_cold",
                                Json::from(get(&self.warm_fallback_cold) as f64),
                            ),
                        ]),
                    ),
                    (
                        "by_kernel",
                        Json::obj(Kernel::ALL.iter().enumerate().map(|(i, k)| {
                            (
                                k.name(),
                                Json::obj([
                                    ("count", Json::from(get(&self.kernel_solves[i]) as f64)),
                                    (
                                        "seconds",
                                        Json::from(get(&self.kernel_nanos[i]) as f64 / 1e9),
                                    ),
                                ]),
                            )
                        })),
                    ),
                    (
                        "by_assignment",
                        Json::obj(AssignmentMode::ALL.iter().enumerate().map(|(i, a)| {
                            (
                                a.name(),
                                Json::obj([
                                    ("count", Json::from(get(&self.assignment_solves[i]) as f64)),
                                    (
                                        "seconds",
                                        Json::from(
                                            get(&self.assignment_nanos_by_mode[i]) as f64 / 1e9,
                                        ),
                                    ),
                                ]),
                            )
                        })),
                    ),
                ]),
            ),
            (
                "ingest",
                Json::obj([
                    ("accepted", Json::from(get(&self.ingest_accepted) as f64)),
                    ("rejected", Json::from(get(&self.ingest_rejected) as f64)),
                    ("stale_served", Json::from(get(&self.stale_served) as f64)),
                ]),
            ),
            ("instances", Json::from(instances)),
            (
                "prepared",
                Json::obj([
                    ("sets", Json::from(prepared.0)),
                    ("bytes", Json::from(prepared.1 as f64)),
                ]),
            ),
            ("streams", Json::from(streams)),
        ]);
        if let (Json::Obj(pairs), Some(d)) = (&mut doc, durability) {
            pairs.push(("durability".into(), d));
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roll_up_into_the_document() {
        let m = Metrics::new();
        m.record_request(Route::Healthz);
        m.record_request(Route::InstanceSolve);
        m.record_request(Route::InstanceSolve);
        m.record_response(200);
        m.record_response(404);
        add(&m.cache_hits, 3);
        add(&m.cache_misses, 1);
        let doc = m.to_json(
            2,
            64,
            5,
            (2, 4096),
            1,
            PoolStats {
                workers: 3,
                busy: 1,
                queued_chunks: 7,
                tasks: 11,
                chunks: 400,
            },
            None,
        );
        // No durability section without a durability layer — the
        // in-memory document is exactly the historical one.
        assert!(doc.get("durability").is_none());
        let req = doc.get("requests").unwrap();
        assert_eq!(req.get("healthz").and_then(Json::as_f64), Some(1.0));
        assert_eq!(req.get("instances_solve").and_then(Json::as_f64), Some(2.0));
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(3.0));
        assert_eq!(cache.get("hit_rate").and_then(Json::as_f64), Some(0.75));
        assert_eq!(cache.get("capacity").and_then(Json::as_f64), Some(64.0));
        assert_eq!(doc.get("instances").and_then(Json::as_f64), Some(5.0));
        let prepared = doc.get("prepared").unwrap();
        assert_eq!(prepared.get("sets").and_then(Json::as_f64), Some(2.0));
        assert_eq!(prepared.get("bytes").and_then(Json::as_f64), Some(4096.0));
        assert_eq!(doc.get("streams").and_then(Json::as_f64), Some(1.0));
        let pool = doc.get("pool").unwrap();
        assert_eq!(pool.get("workers").and_then(Json::as_f64), Some(3.0));
        assert_eq!(pool.get("busy").and_then(Json::as_f64), Some(1.0));
        assert_eq!(pool.get("queued_chunks").and_then(Json::as_f64), Some(7.0));
        assert_eq!(pool.get("chunks").and_then(Json::as_f64), Some(400.0));
        assert_eq!(pool.get("waves").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn log2_histogram_quantiles_are_bucket_upper_edges() {
        let h = Log2Histogram::default();
        assert_eq!((h.count(), h.quantile(0.5)), (0, 0));
        for v in [0, 1, 2, 3, 900, 1000, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        // Ranks 1..9: 0 | 1 | 2 3 | 900 1000 1023 | 1024 | u64::MAX.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.2), 1);
        assert_eq!(h.quantile(0.4), 3);
        assert_eq!(h.quantile(0.5), 1023);
        assert_eq!(h.quantile(0.8), 2047);
        // Values past the last bucket share it.
        assert_eq!(h.quantile(1.0), (1 << (LOG2_BUCKETS - 1)) - 1);
    }

    #[test]
    fn waves_feed_the_scheduler_histograms_and_gauges() {
        let m = Metrics::new();
        let ms = Duration::from_millis;
        m.wave_started(&[ms(1), ms(3)]);
        m.wave_started(&[ms(40)]);
        assert_eq!((m.waves_in_flight(), m.waves_in_flight_max()), (2, 2));
        m.wave_finished();
        m.wave_finished();
        m.wave_started(&[ms(2); 5]);
        m.wave_finished();
        assert_eq!((m.waves_in_flight(), m.waves_in_flight_max()), (0, 2));
        let doc = m.to_json(0, 0, 0, (0, 0), 0, PoolStats::default(), None);
        let sched = doc.get("scheduler").unwrap();
        let num = |path: &[&str]| {
            path.iter()
                .try_fold(sched, |j, k| j.get(k))
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert_eq!(num(&["waves"]), 3.0);
        assert_eq!(num(&["wave_jobs"]), 8.0);
        assert_eq!(num(&["in_flight"]), 0.0);
        assert_eq!(num(&["in_flight_max"]), 2.0);
        assert_eq!(num(&["panicked_jobs"]), 0.0);
        // Waits 1, 2×5, 3, 40 ms: the median 2000 µs sits in the
        // 1024–2047 µs bucket, the tail in 32768–65535 µs.
        assert_eq!(num(&["queue_wait_ms", "count"]), 8.0);
        assert_eq!(num(&["queue_wait_ms", "p50"]), 2.047);
        assert_eq!(num(&["queue_wait_ms", "p99"]), 65.535);
        // Wave sizes 2, 1, 5.
        assert_eq!(num(&["wave_size", "count"]), 3.0);
        assert_eq!(num(&["wave_size", "p50"]), 3.0);
        assert_eq!(num(&["wave_size", "p99"]), 7.0);
    }

    #[test]
    fn solve_reports_aggregate() {
        let m = Metrics::new();
        let mut report = Report::default();
        report.timings.total = std::time::Duration::from_millis(3);
        report.distance_evals.cost = 40;
        m.record_solve(&report, Kernel::Scalar, AssignmentMode::Plain);
        m.record_solve(&report, Kernel::Tiled, AssignmentMode::AdditivelyWeighted);
        m.record_solve_error();
        // A durability document passes through under its key.
        let with_durability = m.to_json(
            0,
            0,
            0,
            (0, 0),
            0,
            PoolStats::default(),
            Some(Json::obj([("wal_bytes", Json::from(128.0))])),
        );
        assert_eq!(
            with_durability
                .get("durability")
                .and_then(|d| d.get("wal_bytes"))
                .and_then(Json::as_f64),
            Some(128.0)
        );
        let doc = m.to_json(0, 0, 0, (0, 0), 0, PoolStats::default(), None);
        let solves = doc.get("solves").unwrap();
        assert_eq!(solves.get("ok").and_then(Json::as_f64), Some(2.0));
        assert_eq!(solves.get("errors").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            solves.get("distance_evals").and_then(Json::as_f64),
            Some(80.0)
        );
        let total = solves
            .get("seconds")
            .and_then(|s| s.get("total"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((total - 0.006).abs() < 1e-9);
        // Exactly one slot per kernel, and one solve landed in each.
        let by_kernel = solves.get("by_kernel").unwrap();
        let Json::Obj(slots) = by_kernel else {
            panic!("by_kernel is an object")
        };
        let names: Vec<&str> = slots.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["scalar", "tiled"]);
        for kernel in Kernel::ALL {
            let entry = by_kernel.get(kernel.name()).unwrap();
            assert_eq!(entry.get("count").and_then(Json::as_f64), Some(1.0));
            let seconds = entry.get("seconds").and_then(Json::as_f64).unwrap();
            assert!((seconds - 0.003).abs() < 1e-9);
        }
        // One solve landed in each assignment-mode slot.
        let by_assignment = solves.get("by_assignment").unwrap();
        for mode in AssignmentMode::ALL {
            let entry = by_assignment.get(mode.name()).unwrap();
            assert_eq!(entry.get("count").and_then(Json::as_f64), Some(1.0));
            let seconds = entry.get("seconds").and_then(Json::as_f64).unwrap();
            assert!((seconds - 0.003).abs() < 1e-9);
        }
        // Ingest counters surface under their own section.
        add(&m.ingest_accepted, 5);
        add(&m.ingest_rejected, 2);
        add(&m.stale_served, 3);
        let doc = m.to_json(0, 0, 0, (0, 0), 0, PoolStats::default(), None);
        let ingest = doc.get("ingest").unwrap();
        assert_eq!(ingest.get("accepted").and_then(Json::as_f64), Some(5.0));
        assert_eq!(ingest.get("rejected").and_then(Json::as_f64), Some(2.0));
        assert_eq!(ingest.get("stale_served").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn warm_solves_feed_their_counters_and_still_count_by_kernel() {
        use ukc_core::WarmStats;
        let m = Metrics::new();
        let warm_report = Report {
            warm: Some(WarmStats {
                reused_centers: 4,
                evals_saved: 1000,
                stages_skipped: vec!["certain_solve"],
                fallback: None,
            }),
            ..Report::default()
        };
        let fell_back = Report {
            warm: Some(WarmStats {
                fallback: Some("prefix_mismatch"),
                ..WarmStats::default()
            }),
            ..Report::default()
        };
        m.record_solve(&warm_report, Kernel::Tiled, AssignmentMode::Plain);
        m.record_solve(&fell_back, Kernel::Tiled, AssignmentMode::Plain);
        m.record_solve(&Report::default(), Kernel::Tiled, AssignmentMode::Plain); // cold
        let doc = m.to_json(0, 0, 0, (0, 0), 0, PoolStats::default(), None);
        let solves = doc.get("solves").unwrap();
        let warm = solves.get("warm").unwrap();
        assert_eq!(warm.get("count").and_then(Json::as_f64), Some(2.0));
        assert_eq!(warm.get("evals_saved").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(warm.get("fallback_cold").and_then(Json::as_f64), Some(1.0));
        // Warm solves are attributed to the kernel they ran under, just
        // like cold solves.
        let tiled = solves
            .get("by_kernel")
            .and_then(|b| b.get(Kernel::Tiled.name()))
            .unwrap();
        assert_eq!(tiled.get("count").and_then(Json::as_f64), Some(3.0));
        // The new route label has its counter slot.
        m.record_request(Route::InstanceSolveLoo);
        let doc = m.to_json(0, 0, 0, (0, 0), 0, PoolStats::default(), None);
        assert_eq!(
            doc.get("requests")
                .and_then(|r| r.get("instances_solve_loo"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
    }
}
