//! The solve scheduler: coalesces concurrent requests into batch waves.
//!
//! Connection threads do no solving. They submit a `Job` over an
//! `mpsc` channel and block on a reply channel; a single long-lived
//! dispatcher thread drains the queue into a **wave** (everything
//! currently pending, up to [`MAX_WAVE`]), groups the wave by
//! [`SolverConfig`], deduplicates identical `(digest, config)` jobs, and
//! runs each group through [`ukc_core::solve_batch_threads`] with the
//! configured lane cap. Duplicates get clones of the one computed
//! solution — N identical concurrent requests cost one solve — and the
//! last job waiting on a result receives it by move, so an uncoalesced
//! job is answered without a copy. A problem holds its set behind an
//! `Arc`, so handing it to the wave is a reference-count bump too.
//!
//! Waves execute on the process-wide [`ukc_pool::global`] worker pool —
//! the same pool each solve's intra-solve kernels draw on — so wave
//! fan-out and per-solve parallelism cooperate under one fixed worker
//! set instead of oversubscribing the host. `workers` is therefore a
//! *lane cap*, not a thread count: it bounds how many pool lanes one
//! wave may occupy.
//!
//! The queue has a **bounded depth** (`queue_cap`): a submission that
//! would push the number of accepted-but-unanswered jobs past the cap is
//! rejected up front with [`SubmitError::Overloaded`] — the server turns
//! that into a typed `503 overloaded` with a `Retry-After` header.
//! Rejection happens before the job is enqueued, so a rejected request
//! has no side effects and is always safe to retry.
//!
//! Determinism is load-bearing: `solve_batch_threads` is bit-identical
//! to the sequential loop, so batching, coalescing, and pool scheduling
//! can never leak into a response — a client observes exactly what
//! `Problem::solve` would have returned.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::metrics::Metrics;
use ukc_core::{solve_batch_threads, Problem, Solution, SolveError, SolverConfig};
use ukc_metric::Point;

/// Hard ceiling on jobs per wave (backpressure: later jobs wait for the
/// next wave, they are never dropped).
pub const MAX_WAVE: usize = 256;

/// Why a submission was refused before it was enqueued.
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
}

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
    reply: mpsc::Sender<Result<Solution<Point>, SolveError>>,
}

/// The scheduler handle shared by all connection threads.
pub struct Scheduler {
    tx: Mutex<Option<mpsc::Sender<Job>>>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
    workers: usize,
    queue_cap: usize,
    depth: Arc<AtomicUsize>,
    metrics: Arc<Metrics>,
}

impl Scheduler {
    /// Starts the dispatcher. `workers` is the pool-lane cap handed to
    /// [`solve_batch_threads`] per wave (0 and 1 both mean sequential);
    /// `queue_cap` bounds accepted-but-unanswered jobs (`usize::MAX` is
    /// unbounded — the historical behavior; `0` rejects every solve).
    pub fn new(workers: usize, queue_cap: usize, metrics: Arc<Metrics>) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let depth = Arc::new(AtomicUsize::new(0));
        let dispatcher = {
            let depth = Arc::clone(&depth);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("ukc-dispatch".into())
                .spawn(move || dispatch_loop(rx, workers, depth, metrics))
                .expect("spawning the dispatcher thread")
        };
        Scheduler {
            tx: Mutex::new(Some(tx)),
            dispatcher: Mutex::new(Some(dispatcher)),
            workers,
            queue_cap,
            depth,
            metrics,
        }
    }

    /// The per-wave worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured queue-depth bound.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Accepted-but-unanswered jobs right now (a racy monitoring gauge).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Atomically reserves `n` queue slots, or reports the overload.
    fn reserve(&self, n: usize) -> Result<(), SubmitError> {
        let outcome = self
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
                self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Overloaded {
                    depth,
                    cap: self.queue_cap,
                })
            }
        }
    }

    /// Releases reserved slots that will never reach the dispatcher.
    fn release(&self, n: usize) {
        self.depth.fetch_sub(n, Ordering::Relaxed);
    }

    /// Submits one solve and blocks for its result. The outer error
    /// means the job never ran (queue full or shutdown — the caller
    /// should answer 503); the inner result is the solve's own outcome.
    pub fn solve(
        &self,
        problem: Problem<Point>,
        config: SolverConfig,
        digest: u64,
    ) -> Result<Result<Solution<Point>, SolveError>, SubmitError> {
        self.submit(vec![(problem, config, digest, None)])
            .map(|mut results| results.pop().expect("one job yields one result"))
    }

    /// Submits one warm-started solve chained from `prior` (whose source
    /// instance has digest `base_digest`) and blocks for its result. The
    /// solve goes through [`ukc_core::Solution::warm_start`], so an
    /// unusable prior degrades to a cold solve with a typed
    /// `report.warm.fallback` — never an error. Warm jobs ride the same
    /// bounded queue and wave loop as cold ones but only coalesce with
    /// warm jobs of the same `(digest, base)`.
    pub fn solve_warm(
        &self,
        problem: Problem<Point>,
        config: SolverConfig,
        digest: u64,
        base_digest: u64,
        prior: Arc<Solution<Point>>,
    ) -> Result<Result<Solution<Point>, SolveError>, SubmitError> {
        self.submit(vec![(problem, config, digest, Some((base_digest, prior)))])
            .map(|mut results| results.pop().expect("one job yields one result"))
    }

    /// Submits a batch of solves and blocks for all results, in job
    /// order. All jobs are enqueued before the first result is awaited,
    /// so a batch submitted by one thread lands in one wave and fans out
    /// across the pool — this is what `POST /solve_batch` rides on. The
    /// whole batch is admitted or rejected atomically against the queue
    /// bound.
    pub fn solve_many(
        &self,
        jobs: Vec<(Problem<Point>, SolverConfig, u64)>,
    ) -> Result<Vec<Result<Solution<Point>, SolveError>>, SubmitError> {
        self.submit(
            jobs.into_iter()
                .map(|(problem, config, digest)| (problem, config, digest, None))
                .collect(),
        )
    }

    /// The shared submission path: enqueue every job (cold or warm),
    /// then await all replies in order.
    #[allow(clippy::type_complexity)]
    fn submit(
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
            for (problem, config, digest, warm) in jobs {
                let (reply_tx, reply_rx) = mpsc::channel();
                if tx
                    .send(Job {
                        problem,
                        config,
                        digest,
                        warm,
                        reply: reply_tx,
                    })
                    .is_err()
                {
                    // Enqueued jobs are drained (and released) by the
                    // dispatcher; only the unsent remainder is ours.
                    self.release(total - replies.len());
                    return Err(SubmitError::ShuttingDown);
                }
                replies.push(reply_rx);
            }
        }
        replies
            .into_iter()
            .map(|rx| rx.recv().map_err(|_| SubmitError::ShuttingDown))
            .collect()
    }

    /// Stops accepting work and joins the dispatcher after it drains the
    /// queue. Idempotent.
    pub fn shutdown(&self) {
        drop(
            self.tx
                .lock()
                .expect("scheduler submit lock poisoned")
                .take(),
        );
        if let Some(handle) = self
            .dispatcher
            .lock()
            .expect("scheduler join lock poisoned")
            .take()
        {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn dispatch_loop(
    rx: mpsc::Receiver<Job>,
    workers: usize,
    depth: Arc<AtomicUsize>,
    metrics: Arc<Metrics>,
) {
    loop {
        // Block for the first job; every sender gone means shutdown.
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let mut jobs = vec![first];
        while jobs.len() < MAX_WAVE {
            match rx.try_recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        run_wave(jobs, workers, &metrics, &depth);
    }
}

/// Executes one wave: group by config, dedupe by digest, batch-solve,
/// fan results back out.
fn run_wave(jobs: Vec<Job>, workers: usize, metrics: &Metrics, depth: &AtomicUsize) {
    metrics
        .waves
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    metrics
        .wave_jobs
        .fetch_add(jobs.len() as u64, std::sync::atomic::Ordering::Relaxed);

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
        // Cold uniques batch through the pool; warm uniques each chain
        // from their own prior, so they solve individually.
        let mut cold_slots: Vec<usize> = Vec::new();
        let mut problems: Vec<Problem<Point>> = Vec::new();
        for (u, &(_, _, i)) in unique.iter().enumerate() {
            if jobs[i].warm.is_none() {
                cold_slots.push(u);
                problems.push(jobs[i].problem.clone());
            }
        }
        // A group fans out on the pool only when more than one unique
        // problem meets more than one lane *and* the pool has workers to
        // claim chunks (a 0-worker pool degrades to the inline loop).
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
        for slot in &slots {
            match slot.as_ref().expect("every unique job was solved") {
                Ok(solution) => {
                    metrics.record_solve(&solution.report, config.kernel(), config.assignment())
                }
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
            depth.fetch_sub(1, Ordering::Relaxed);
            // A dead reply channel just means the client hung up.
            let _ = jobs[i].reply.send(result);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_uncertain::generators::{clustered, ProbModel};

    fn problem(seed: u64) -> Problem<Point> {
        let set = clustered(seed, 12, 3, 2, 2, 4.0, 1.0, ProbModel::Random);
        Problem::euclidean(set, 2).unwrap()
    }

    #[test]
    fn results_match_direct_solves_bit_for_bit() {
        let metrics = Arc::new(Metrics::new());
        let scheduler = Arc::new(Scheduler::new(2, usize::MAX, Arc::clone(&metrics)));
        let config = SolverConfig::default();
        let mut handles = Vec::new();
        for seed in 0..8u64 {
            let scheduler = Arc::clone(&scheduler);
            let config = config.clone();
            handles.push(std::thread::spawn(move || {
                let p = problem(seed);
                let digest = p.instance_digest();
                (seed, scheduler.solve(p, config, digest).unwrap().unwrap())
            }));
        }
        for handle in handles {
            let (seed, served) = handle.join().unwrap();
            let direct = problem(seed).solve(&config).unwrap();
            assert_eq!(served.ecost.to_bits(), direct.ecost.to_bits());
            assert_eq!(served.assignment, direct.assignment);
            assert_eq!(served.centers.len(), direct.centers.len());
            for (a, b) in served.centers.iter().zip(&direct.centers) {
                assert_eq!(a.coords(), b.coords());
            }
        }
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
            .solve(discrete, SolverConfig::default(), d2)
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, SolveError::RuleUnsupported { .. }));
        // The scheduler is still alive afterwards.
        assert!(scheduler
            .solve(p, SolverConfig::default(), digest)
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
                .solve(p, SolverConfig::default(), digest)
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
                (p, config.clone(), digest)
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
                (p, config.clone(), digest)
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
            .solve_warm(
                grown_problem.clone(),
                config.clone(),
                digest,
                base_digest,
                Arc::clone(&prior),
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
            .solve(grown_problem, config, digest)
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
            .solve(p, SolverConfig::default(), digest)
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
