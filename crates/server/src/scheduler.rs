//! The solve scheduler: coalesces concurrent requests into batch waves
//! and keeps up to `workers` waves in flight.
//!
//! Connection threads do no solving. They submit a `Job` over one
//! bounded `mpsc` queue and block on a reply channel. `workers`
//! long-lived dispatcher threads share the queue's receiver: whichever
//! dispatcher is idle drains everything pending into a **wave** (up to
//! [`MAX_WAVE`] jobs), groups the wave by [`SolverConfig`], deduplicates
//! identical `(digest, config)` jobs, and runs each group through
//! [`ukc_core::solve_batch_threads`] with the configured lane cap. While
//! one wave solves, the next idle dispatcher takes the next wave, so a
//! miss no longer waits for an unrelated solve to finish; with
//! `workers = 1` there is one dispatcher and waves run one at a time.
//! Duplicates inside a wave get clones of the one computed solution —
//! N identical concurrent requests in one wave cost one solve — and the
//! last job waiting on a result receives it by move, so an uncoalesced
//! job is answered without a copy. A problem holds its set behind an
//! `Arc`, so handing it to the wave is a reference-count bump too.
//!
//! Waves execute on the process-wide [`ukc_pool::global`] worker pool —
//! the same pool each solve's intra-solve kernels draw on — so wave
//! fan-out and per-solve parallelism cooperate under one fixed worker
//! set. `workers` is a *lane cap* per wave and the number of waves in
//! flight; it spawns no pool threads. The runnable threads are therefore
//! bounded by the pool's workers plus the in-flight waves, each wave's
//! dispatcher being the submitting lane of its own pool tasks.
//!
//! Each config group of a wave solves under `catch_unwind`: a panic
//! fails only that group's jobs, with [`SubmitError::Panicked`] (the
//! server answers `500 internal`), releases their queue slots, and
//! leaves the dispatcher serving.
//!
//! The queue has a **bounded depth** (`queue_cap`): a submission that
//! would push the number of accepted-but-unanswered jobs past the cap is
//! rejected up front with [`SubmitError::Overloaded`] — the server turns
//! that into a typed `503 overloaded` with a `Retry-After` header.
//! Rejection happens before the job is enqueued, so a rejected request
//! has no side effects and is always safe to retry.
//!
//! Determinism is load-bearing: `solve_batch_threads` is bit-identical
//! to the sequential loop and every result is a pure function of
//! (instance, config, base), so batching, coalescing, concurrent waves
//! and pool scheduling can never leak into a response — a client
//! observes exactly what `Problem::solve` would have returned.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::Metrics;
use ukc_core::{solve_batch_threads, Problem, Solution, SolveError, SolverConfig};
use ukc_metric::Point;

/// Hard ceiling on jobs per wave (backpressure: later jobs wait for the
/// next wave, they are never dropped).
pub const MAX_WAVE: usize = 256;

/// Why the scheduler produced no solve outcome for a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The scheduler has shut down (the server is stopping).
    ShuttingDown,
    /// The bounded queue is full; the job was never enqueued.
    Overloaded {
        /// Accepted-but-unanswered jobs at rejection time.
        depth: usize,
        /// The configured queue capacity.
        cap: usize,
    },
    /// The job's wave panicked while solving it. Its queue slot was
    /// released; jobs in other waves and other config groups were not
    /// affected.
    Panicked,
}

/// What a job's reply channel carries: the solve's own outcome, or why
/// there is none.
type Reply = Result<Result<Solution<Point>, SolveError>, SubmitError>;

/// One queued solve request.
struct Job {
    problem: Problem<Point>,
    config: SolverConfig,
    digest: u64,
    /// `Some((base_digest, prior))` for a warm-started solve: the prior
    /// solution to chain from, tagged with its instance digest. Warm jobs
    /// coalesce only with warm jobs of the same `(digest, base)` — a warm
    /// result may legitimately differ from the cold solve of the same
    /// problem, so the two must never share one computation.
    warm: Option<(u64, Arc<Solution<Point>>)>,
    /// When the job was submitted (its queue wait ends at wave start).
    queued_at: Instant,
    reply: mpsc::Sender<Reply>,
}

/// State every dispatcher shares.
struct Shared {
    rx: Mutex<mpsc::Receiver<Job>>,
    workers: usize,
    depth: AtomicUsize,
    metrics: Arc<Metrics>,
}

/// The scheduler handle shared by all connection threads.
pub struct Scheduler {
    tx: Mutex<Option<mpsc::Sender<Job>>>,
    dispatchers: Mutex<Vec<JoinHandle<()>>>,
    queue_cap: usize,
    shared: Arc<Shared>,
}

impl Scheduler {
    /// Starts `workers` dispatchers (at least one). `workers` is also the
    /// pool-lane cap handed to [`solve_batch_threads`] per wave (0 and 1
    /// both mean one wave at a time, each sequential); `queue_cap` bounds
    /// accepted-but-unanswered jobs (`usize::MAX` is unbounded — the
    /// historical behavior; `0` rejects every solve).
    pub fn new(workers: usize, queue_cap: usize, metrics: Arc<Metrics>) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let shared = Arc::new(Shared {
            rx: Mutex::new(rx),
            workers,
            depth: AtomicUsize::new(0),
            metrics,
        });
        let dispatchers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ukc-dispatch-{i}"))
                    .spawn(move || dispatch_loop(&shared))
                    .expect("spawning a dispatcher thread")
            })
            .collect();
        Scheduler {
            tx: Mutex::new(Some(tx)),
            dispatchers: Mutex::new(dispatchers),
            queue_cap,
            shared,
        }
    }

    /// The per-wave lane cap, which is also the number of waves in flight.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// The configured queue-depth bound.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Accepted-but-unanswered jobs right now (a racy monitoring gauge).
    pub fn depth(&self) -> usize {
        self.shared.depth.load(Ordering::Relaxed)
    }

    /// Atomically reserves `n` queue slots, or reports the overload.
    fn reserve(&self, n: usize) -> Result<(), SubmitError> {
        let outcome = self
            .shared
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                if d.saturating_add(n) > self.queue_cap {
                    None
                } else {
                    Some(d + n)
                }
            });
        match outcome {
            Ok(_) => Ok(()),
            Err(depth) => {
                self.shared
                    .metrics
                    .overloaded
                    .fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Overloaded {
                    depth,
                    cap: self.queue_cap,
                })
            }
        }
    }

    /// Releases reserved slots that will never reach a dispatcher.
    fn release(&self, n: usize) {
        self.shared.depth.fetch_sub(n, Ordering::Relaxed);
    }

    /// Submits one solve and blocks for its result. The outer error
    /// means the job produced no outcome (queue full or shutdown — the
    /// caller should answer 503 — or its wave panicked, a 500); the
    /// inner result is the solve's own outcome.
    ///
    /// With `warm = Some((base_digest, prior))` the solve chains from
    /// `prior` (whose source instance has digest `base_digest`) through
    /// [`ukc_core::Solution::warm_start`], so an unusable prior degrades to
    /// a cold solve with a typed `report.warm.fallback` — never an error.
    /// Warm jobs ride the same bounded queue and wave loop as cold ones
    /// but only coalesce with warm jobs of the same `(digest, base)`.
    pub fn solve(
        &self,
        problem: Problem<Point>,
        config: SolverConfig,
        digest: u64,
        warm: Option<(u64, Arc<Solution<Point>>)>,
    ) -> Result<Result<Solution<Point>, SolveError>, SubmitError> {
        self.solve_many(vec![(problem, config, digest, warm)])
            .map(|mut results| results.pop().expect("one job yields one result"))
    }

    /// Submits a batch of solves, each `(problem, config, digest, warm)`
    /// as [`Scheduler::solve`] takes them, and blocks for all results, in
    /// job order. All jobs are enqueued under one lock before the first
    /// result is awaited, so an idle dispatcher usually drains the batch
    /// into one wave that fans out across the pool — this is what
    /// `POST /solve_batch` rides on. One wave is not guaranteed: a
    /// dispatcher may take the head of the batch while the rest is still
    /// being enqueued, and another dispatcher then runs the rest as a
    /// second wave in flight. The whole batch is admitted or rejected
    /// atomically against the queue bound, and fails as a whole if any
    /// of its waves panicked.
    #[allow(clippy::type_complexity)]
    pub fn solve_many(
        &self,
        jobs: Vec<(
            Problem<Point>,
            SolverConfig,
            u64,
            Option<(u64, Arc<Solution<Point>>)>,
        )>,
    ) -> Result<Vec<Result<Solution<Point>, SolveError>>, SubmitError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        self.reserve(jobs.len())?;
        let mut replies = Vec::with_capacity(jobs.len());
        {
            let guard = self.tx.lock().expect("scheduler submit lock poisoned");
            let Some(tx) = guard.as_ref() else {
                self.release(jobs.len());
                return Err(SubmitError::ShuttingDown);
            };
            let total = jobs.len();
            let queued_at = Instant::now();
            for (problem, config, digest, warm) in jobs {
                let (reply_tx, reply_rx) = mpsc::channel();
                if tx
                    .send(Job {
                        problem,
                        config,
                        digest,
                        warm,
                        queued_at,
                        reply: reply_tx,
                    })
                    .is_err()
                {
                    // Enqueued jobs are drained (and released) by the
                    // dispatchers; only the unsent remainder is ours.
                    self.release(total - replies.len());
                    return Err(SubmitError::ShuttingDown);
                }
                replies.push(reply_rx);
            }
        }
        replies
            .into_iter()
            .map(|rx| rx.recv().map_err(|_| SubmitError::ShuttingDown)?)
            .collect()
    }

    /// Stops accepting work and joins every dispatcher after they drain
    /// the queue. Idempotent.
    pub fn shutdown(&self) {
        drop(
            self.tx
                .lock()
                .expect("scheduler submit lock poisoned")
                .take(),
        );
        let dispatchers = std::mem::take(
            &mut *self
                .dispatchers
                .lock()
                .expect("scheduler join lock poisoned"),
        );
        for handle in dispatchers {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One dispatcher: take the receiver, block for a first job, drain what
/// else is pending into a wave, let go of the receiver, run the wave.
/// Every sender gone (and the queue drained) means shutdown.
fn dispatch_loop(shared: &Shared) {
    loop {
        let jobs = {
            // Nothing panics while holding the receiver, and a receiver
            // has no state a panic could leave half-updated.
            let rx = shared.rx.lock().unwrap_or_else(PoisonError::into_inner);
            let Ok(first) = rx.recv() else {
                return;
            };
            let mut jobs = vec![first];
            while jobs.len() < MAX_WAVE {
                match rx.try_recv() {
                    Ok(job) => jobs.push(job),
                    Err(_) => break,
                }
            }
            jobs
        };
        run_wave(jobs, shared);
    }
}

/// Executes one wave: group by config, dedupe by digest, batch-solve
/// each group under `catch_unwind`, fan results back out.
fn run_wave(jobs: Vec<Job>, shared: &Shared) {
    let metrics = &shared.metrics;
    let started = Instant::now();
    let waits: Vec<Duration> = jobs
        .iter()
        .map(|job| started.saturating_duration_since(job.queued_at))
        .collect();
    metrics.wave_started(&waits);

    // Group job indices by configuration (configs are small and few per
    // wave; linear scan keeps SolverConfig free of Hash requirements).
    let mut groups: Vec<(SolverConfig, Vec<usize>)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match groups.iter_mut().find(|(cfg, _)| *cfg == job.config) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((job.config.clone(), vec![i])),
        }
    }

    let mut coalesced = 0u64;
    let mut fanned_out = false;
    for (config, idxs) in groups {
        // Deduplicate identical problems inside the group: the digest is
        // canonical content identity, so equal digests get one solve.
        // Warm jobs carry the base digest in the key — a warm solve may
        // legitimately differ from the cold solve of the same problem
        // (and from a warm solve off a different prior), so only exact
        // `(digest, base)` matches coalesce.
        let mut unique: Vec<(u64, Option<u64>, usize)> = Vec::new(); // (digest, base, representative)
        let mut job_to_unique: Vec<usize> = Vec::with_capacity(idxs.len());
        for &i in &idxs {
            let base = jobs[i].warm.as_ref().map(|(b, _)| *b);
            match unique
                .iter()
                .position(|&(d, b, _)| d == jobs[i].digest && b == base)
            {
                Some(u) => {
                    coalesced += 1;
                    job_to_unique.push(u);
                }
                None => {
                    unique.push((jobs[i].digest, base, i));
                    job_to_unique.push(unique.len() - 1);
                }
            }
        }
        let solved = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            tests::inject_faults(&unique, &shared.metrics);
            // Cold uniques batch through the pool; warm uniques each
            // chain from their own prior, so they solve individually.
            let mut cold_slots: Vec<usize> = Vec::new();
            let mut problems: Vec<Problem<Point>> = Vec::new();
            for (u, &(_, _, i)) in unique.iter().enumerate() {
                if jobs[i].warm.is_none() {
                    cold_slots.push(u);
                    problems.push(jobs[i].problem.clone());
                }
            }
            // A group fans out on the pool only when more than one unique
            // problem meets more than one lane *and* the pool has workers
            // to claim chunks (a 0-worker pool degrades to the inline
            // loop).
            let workers = shared.workers;
            fanned_out |= workers > 1 && problems.len() > 1 && ukc_pool::global().workers() > 0;
            let cold_results = solve_batch_threads(&problems, &config, workers);
            let mut slots: Vec<Option<Result<Solution<Point>, SolveError>>> =
                (0..unique.len()).map(|_| None).collect();
            for (u, result) in cold_slots.into_iter().zip(cold_results) {
                slots[u] = Some(result);
            }
            for (u, &(_, _, i)) in unique.iter().enumerate() {
                if let Some((_, prior)) = &jobs[i].warm {
                    slots[u] = Some(Solution::warm_start(&jobs[i].problem, &config, prior));
                }
            }
            slots
        }));
        let Ok(mut slots) = solved else {
            // Only this group's jobs fail; each still gives its queue
            // slot back before it is answered.
            metrics
                .panicked_jobs
                .fetch_add(idxs.len() as u64, Ordering::Relaxed);
            for &i in &idxs {
                shared.depth.fetch_sub(1, Ordering::Relaxed);
                let _ = jobs[i].reply.send(Err(SubmitError::Panicked));
            }
            continue;
        };
        for slot in &slots {
            match slot.as_ref().expect("every unique job was solved") {
                Ok(solution) => metrics.record_solve(&solution.report, config.assignment()),
                Err(_) => metrics.record_solve_error(),
            }
        }
        // The last job waiting on a result takes it; earlier duplicates
        // get clones.
        let mut last_waiter = vec![0usize; slots.len()];
        for (pos, &u) in job_to_unique.iter().enumerate() {
            last_waiter[u] = pos;
        }
        for (pos, (&i, &u)) in idxs.iter().zip(&job_to_unique).enumerate() {
            let result = if last_waiter[u] == pos {
                slots[u].take()
            } else {
                slots[u].clone()
            }
            .expect("a result is taken only by its last waiter");
            // Release the job's queue slot before answering it: a caller
            // holding its answer must never still count in `depth`.
            shared.depth.fetch_sub(1, Ordering::Relaxed);
            // A dead reply channel just means the client hung up.
            let _ = jobs[i].reply.send(Ok(result));
        }
    }
    metrics
        .coalesced_jobs
        .fetch_add(coalesced, std::sync::atomic::Ordering::Relaxed);
    // At most one pool-wave tick per wave, however many config groups it
    // split into.
    if fanned_out {
        metrics
            .pool_waves
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    metrics.wave_finished();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_uncertain::generators::{clustered, ProbModel};

    fn problem(seed: u64) -> Problem<Point> {
        let set = clustered(seed, 12, 3, 2, 2, 4.0, 1.0, ProbModel::Random);
        Problem::euclidean(set, 2).unwrap()
    }

    /// A job carrying this digest makes its group panic before solving.
    pub(super) const PANIC_DIGEST: u64 = 0xDEAD_0000_0000_0001;
    /// A job carrying this digest holds its wave open until another wave
    /// starts (or [`HOLD_LIMIT`] passes), then solves normally.
    pub(super) const HOLD_DIGEST: u64 = 0xDEAD_0000_0000_0002;
    const HOLD_LIMIT: Duration = Duration::from_secs(2);

    /// The test-only fault hooks a wave runs before solving a config
    /// group's unique `(digest, base, job)` entries.
    pub(super) fn inject_faults(unique: &[(u64, Option<u64>, usize)], metrics: &Metrics) {
        let carries = |digest| unique.iter().any(|&(d, _, _)| d == digest);
        if carries(HOLD_DIGEST) {
            let until = Instant::now() + HOLD_LIMIT;
            let waves = metrics.waves.load(Ordering::Relaxed);
            while metrics.waves.load(Ordering::Relaxed) == waves && Instant::now() < until {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        if carries(PANIC_DIGEST) {
            panic!("injected wave panic");
        }
    }

    /// Runs `f` on its own thread and fails the test if it has not
    /// returned within `secs` (a dead dispatcher would hang it forever).
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(secs))
            .expect("the scheduler answered in time")
    }

    /// Polls until `done` holds (a wave answers its jobs before it
    /// lowers the in-flight gauge, so callers may see the gauge lag).
    fn await_metric(metrics: &Metrics, what: &str, done: impl Fn(&Metrics) -> bool) {
        let until = Instant::now() + Duration::from_secs(10);
        while !done(metrics) {
            assert!(Instant::now() < until, "never saw {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Submits a held solve of `problem(seed)` from its own thread and
    /// returns once its wave has started. Call it with nothing else
    /// queued, so the next wave to start is the held one.
    fn submit_held(
        scheduler: &Arc<Scheduler>,
        metrics: &Metrics,
        seed: u64,
    ) -> std::thread::JoinHandle<Solution<Point>> {
        let before = metrics.waves.load(Ordering::Relaxed);
        let held = {
            let scheduler = Arc::clone(scheduler);
            std::thread::spawn(move || {
                scheduler
                    .solve(problem(seed), SolverConfig::default(), HOLD_DIGEST, None)
                    .unwrap()
                    .unwrap()
            })
        };
        await_metric(metrics, "the held wave start", |m| {
            m.waves.load(Ordering::Relaxed) > before
        });
        held
    }

    fn assert_same(served: &Solution<Point>, direct: &Solution<Point>) {
        assert_eq!(served.ecost.to_bits(), direct.ecost.to_bits());
        assert_eq!(served.assignment, direct.assignment);
        assert_eq!(served.centers.len(), direct.centers.len());
        for (a, b) in served.centers.iter().zip(&direct.centers) {
            assert_eq!(a.coords(), b.coords());
        }
        assert_eq!(
            served.report.warm.as_ref().map(|w| w.fallback),
            direct.report.warm.as_ref().map(|w| w.fallback)
        );
    }

    /// A base instance, its grown successor (same prefix), and the base's
    /// cold solution to warm-start the successor from.
    fn warm_pair(seed: u64) -> (Problem<Point>, u64, Arc<Solution<Point>>) {
        let base_set = clustered(seed, 40, 3, 2, 3, 30.0, 1.0, ProbModel::Random);
        let mut points = base_set.points().to_vec();
        let extra = clustered(seed + 99, 4, 3, 2, 2, 30.0, 1.0, ProbModel::Random);
        points.extend(extra.points().iter().cloned());
        let base = Problem::euclidean(
            ukc_uncertain::UncertainSet::new(base_set.points().to_vec()),
            3,
        )
        .unwrap();
        let grown = Problem::euclidean(ukc_uncertain::UncertainSet::new(points), 3).unwrap();
        let prior = Arc::new(base.solve(&SolverConfig::default()).unwrap());
        (grown, base.instance_digest(), prior)
    }

    #[test]
    fn results_match_direct_solves_bit_for_bit() {
        // Cold jobs, duplicate cold jobs, and warm jobs (plus their
        // duplicates), submitted from many threads at once, under one,
        // two and four waves in flight.
        for workers in [1usize, 2, 4] {
            let metrics = Arc::new(Metrics::new());
            let scheduler = Arc::new(Scheduler::new(workers, usize::MAX, Arc::clone(&metrics)));
            let config = SolverConfig::default();
            let mut handles = Vec::new();
            for (t, seed) in [0u64, 1, 2, 3, 4, 5, 6, 7, 0, 3, 3].into_iter().enumerate() {
                let scheduler = Arc::clone(&scheduler);
                let config = config.clone();
                let warm = t % 3 == 1;
                handles.push(std::thread::spawn(move || {
                    if warm {
                        let (grown, base_digest, prior) = warm_pair(seed);
                        let digest = grown.instance_digest();
                        let served = scheduler
                            .solve(
                                grown.clone(),
                                config.clone(),
                                digest,
                                Some((base_digest, Arc::clone(&prior))),
                            )
                            .unwrap()
                            .unwrap();
                        (
                            served,
                            Solution::warm_start(&grown, &config, &prior).unwrap(),
                        )
                    } else {
                        let p = problem(seed);
                        let digest = p.instance_digest();
                        let served = scheduler
                            .solve(p, config.clone(), digest, None)
                            .unwrap()
                            .unwrap();
                        (served, problem(seed).solve(&config).unwrap())
                    }
                }));
            }
            for handle in handles {
                let (served, direct) = handle.join().unwrap();
                assert_same(&served, &direct);
            }
            assert_eq!(metrics.wave_jobs.load(Ordering::Relaxed), 11);
            assert!(metrics.waves_in_flight_max() <= workers as u64);
            assert_eq!(scheduler.depth(), 0);
            await_metric(&metrics, "no wave in flight", |m| m.waves_in_flight() == 0);
        }
    }

    /// Submits a held job from one thread and, once its wave is in
    /// flight, a distinct job from another; returns both results.
    fn overlapping_pair(
        scheduler: &Arc<Scheduler>,
        metrics: &Metrics,
    ) -> (Solution<Point>, Solution<Point>) {
        let held = submit_held(scheduler, metrics, 20);
        let other = {
            let scheduler = Arc::clone(scheduler);
            std::thread::spawn(move || {
                let p = problem(21);
                let digest = p.instance_digest();
                scheduler
                    .solve(p, SolverConfig::default(), digest, None)
                    .unwrap()
                    .unwrap()
            })
        };
        (held.join().unwrap(), other.join().unwrap())
    }

    #[test]
    fn two_workers_overlap_two_waves_and_one_worker_never_does() {
        let config = SolverConfig::default();
        for (workers, expected_max) in [(2usize, 2u64), (1, 1)] {
            let metrics = Arc::new(Metrics::new());
            let scheduler = Arc::new(Scheduler::new(workers, usize::MAX, Arc::clone(&metrics)));
            let (held, other) = overlapping_pair(&scheduler, &metrics);
            assert_eq!(
                metrics.waves_in_flight_max(),
                expected_max,
                "workers = {workers}"
            );
            assert_eq!(metrics.waves.load(Ordering::Relaxed), 2);
            assert_same(&held, &problem(20).solve(&config).unwrap());
            assert_same(&other, &problem(21).solve(&config).unwrap());
        }
    }

    #[test]
    fn a_panicking_wave_fails_only_its_jobs_and_every_dispatcher_survives() {
        let workers = 2;
        let metrics = Arc::new(Metrics::new());
        let scheduler = Arc::new(Scheduler::new(workers, usize::MAX, Arc::clone(&metrics)));
        let config = SolverConfig::default();

        // A held wave is in flight while another wave panics beside it:
        // the held job still gets its bit-identical result.
        let held = submit_held(&scheduler, &metrics, 30);
        let err = scheduler
            .solve(problem(31), config.clone(), PANIC_DIGEST, None)
            .unwrap_err();
        assert_eq!(err, SubmitError::Panicked);
        assert_same(&held.join().unwrap(), &problem(30).solve(&config).unwrap());

        // Panic once more than there are dispatchers: without isolation
        // each panic would take one dispatcher down and the solves below
        // would never be answered.
        for _ in 0..=workers {
            let scheduler = Arc::clone(&scheduler);
            let err = within(30, move || {
                scheduler
                    .solve(problem(32), SolverConfig::default(), PANIC_DIGEST, None)
                    .unwrap_err()
            });
            assert_eq!(err, SubmitError::Panicked);
        }
        assert_eq!(
            metrics.panicked_jobs.load(Ordering::Relaxed),
            workers as u64 + 2
        );
        assert_eq!(scheduler.depth(), 0);

        // Unrelated jobs keep getting bit-identical results, and two
        // waves still overlap, so both dispatchers are alive.
        let results = {
            let scheduler = Arc::clone(&scheduler);
            let config = config.clone();
            within(30, move || {
                let jobs: Vec<_> = (0..4u64)
                    .map(|seed| {
                        let p = problem(seed);
                        let digest = p.instance_digest();
                        (p, config.clone(), digest, None)
                    })
                    .collect();
                scheduler.solve_many(jobs).unwrap()
            })
        };
        for (seed, served) in results.iter().enumerate() {
            assert_same(
                served.as_ref().unwrap(),
                &problem(seed as u64).solve(&config).unwrap(),
            );
        }
        // (With one dispatcher left, the held wave would run out its
        // whole hold limit alone.)
        let started = Instant::now();
        let (held, other) = overlapping_pair(&scheduler, &metrics);
        assert!(
            started.elapsed() < HOLD_LIMIT,
            "the held wave never overlapped"
        );
        assert_same(&held, &problem(20).solve(&config).unwrap());
        assert_same(&other, &problem(21).solve(&config).unwrap());
        assert_eq!(scheduler.depth(), 0);
    }

    #[test]
    fn typed_errors_come_back_through_the_queue() {
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::new(1, usize::MAX, metrics);
        let p = problem(3);
        let digest = p.instance_digest();
        // EP rule is undefined on discrete problems; build one.
        let set = clustered(3, 6, 2, 2, 2, 4.0, 1.0, ProbModel::Random);
        let pool = set.location_pool();
        let discrete = Problem::in_metric(set, 2, ukc_metric::Euclidean, pool).unwrap();
        let d2 = discrete.instance_digest();
        let err = scheduler
            .solve(discrete, SolverConfig::default(), d2, None)
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, SolveError::RuleUnsupported { .. }));
        // The scheduler is still alive afterwards.
        assert!(scheduler
            .solve(p, SolverConfig::default(), digest, None)
            .unwrap()
            .is_ok());
    }

    #[test]
    fn shutdown_refuses_new_work() {
        let scheduler = Scheduler::new(1, usize::MAX, Arc::new(Metrics::new()));
        scheduler.shutdown();
        let p = problem(1);
        let digest = p.instance_digest();
        assert_eq!(
            scheduler
                .solve(p, SolverConfig::default(), digest, None)
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
        scheduler.shutdown(); // idempotent
    }

    #[test]
    fn solve_many_answers_in_order_in_one_submission() {
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::new(2, usize::MAX, Arc::clone(&metrics));
        let config = SolverConfig::default();
        let jobs: Vec<_> = (0..6u64)
            .map(|seed| {
                let p = problem(seed);
                let digest = p.instance_digest();
                (p, config.clone(), digest, None)
            })
            .collect();
        let results = scheduler.solve_many(jobs).unwrap();
        assert_eq!(results.len(), 6);
        for (seed, served) in results.iter().enumerate() {
            let direct = problem(seed as u64).solve(&config).unwrap();
            let served = served.as_ref().unwrap();
            assert_eq!(served.ecost.to_bits(), direct.ecost.to_bits());
            assert_eq!(served.assignment, direct.assignment);
        }
        // Depth settles back to zero once everything is answered.
        assert_eq!(scheduler.depth(), 0);
        assert_eq!(scheduler.solve_many(Vec::new()).unwrap().len(), 0);
    }

    #[test]
    fn every_duplicate_job_gets_the_one_result() {
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::new(2, usize::MAX, Arc::clone(&metrics));
        let config = SolverConfig::default();
        let seeds = [4u64, 5, 4, 4, 5];
        let jobs: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let p = problem(seed);
                let digest = p.instance_digest();
                (p, config.clone(), digest, None)
            })
            .collect();
        let results = scheduler.solve_many(jobs).unwrap();
        for (&seed, served) in seeds.iter().zip(&results) {
            let direct = problem(seed).solve(&config).unwrap();
            let served = served.as_ref().unwrap();
            assert_eq!(served.ecost.to_bits(), direct.ecost.to_bits());
            assert_eq!(served.assignment, direct.assignment);
        }
        // However the dispatcher split the batch into waves, at most the
        // three repeats coalesced, and every job was answered.
        assert!(metrics.coalesced_jobs.load(Ordering::Relaxed) <= 3);
        assert_eq!(metrics.wave_jobs.load(Ordering::Relaxed), 5);
        assert_eq!(scheduler.depth(), 0);
    }

    #[test]
    fn warm_jobs_chain_from_the_prior_and_match_direct_warm_starts() {
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::new(2, usize::MAX, Arc::clone(&metrics));
        let config = SolverConfig::default();
        // Build a base instance and its grown successor (same prefix).
        let base_set = clustered(11, 40, 3, 2, 3, 30.0, 1.0, ProbModel::Random);
        let mut points = base_set.points().to_vec();
        let grown_source = clustered(99, 4, 3, 2, 2, 30.0, 1.0, ProbModel::Random);
        points.extend(grown_source.points().iter().cloned());
        let base_problem = Problem::euclidean(
            ukc_uncertain::UncertainSet::new(base_set.points().to_vec()),
            3,
        )
        .unwrap();
        let grown_problem =
            Problem::euclidean(ukc_uncertain::UncertainSet::new(points), 3).unwrap();
        let base_digest = base_problem.instance_digest();
        let digest = grown_problem.instance_digest();

        let prior = Arc::new(base_problem.solve(&config).unwrap());
        let served = scheduler
            .solve(
                grown_problem.clone(),
                config.clone(),
                digest,
                Some((base_digest, Arc::clone(&prior))),
            )
            .unwrap()
            .unwrap();
        let direct = Solution::warm_start(&grown_problem, &config, &prior).unwrap();
        assert_eq!(served.ecost.to_bits(), direct.ecost.to_bits());
        assert_eq!(served.assignment, direct.assignment);
        let warm = served.report.warm.as_ref().expect("warm stats present");
        assert_eq!(
            warm.fallback,
            direct.report.warm.as_ref().unwrap().fallback,
            "scheduler must not change the warm outcome"
        );
        // A cold solve of the same digest is a distinct computation: its
        // report carries no warm stats.
        let cold = scheduler
            .solve(grown_problem, config, digest, None)
            .unwrap()
            .unwrap();
        assert!(cold.report.warm.is_none());
    }

    #[test]
    fn zero_cap_rejects_everything_as_overloaded() {
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::new(1, 0, Arc::clone(&metrics));
        let p = problem(2);
        let digest = p.instance_digest();
        let err = scheduler
            .solve(p, SolverConfig::default(), digest, None)
            .unwrap_err();
        assert_eq!(err, SubmitError::Overloaded { depth: 0, cap: 0 });
        assert_eq!(
            metrics
                .overloaded
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(scheduler.depth(), 0);
    }
}
