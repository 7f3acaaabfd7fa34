//! The incremental-solve layer: warm starts and batch leave-one-out.
//!
//! A cold [`Problem::solve`] spends `Θ(n·k)` distance evaluations in the
//! certain k-center stage (whose passes also assign) plus one per
//! realization location in the cost stage, even when the instance barely
//! changed. This module exploits two recurring delta shapes:
//!
//! * **Append chains** ([`Solution::warm_start`]): a prior solution of a
//!   prefix of the instance seeds the new solve. The prior centers and
//!   the prefix assignment are reused verbatim; only the appended rows go
//!   through the fused `nearest_each` sweep, and center selection is
//!   re-run only when the *separation certificate* is violated — the
//!   reused centers stay a factor-2 approximation on the representatives
//!   (the same class of guarantee Gonzalez gives a cold solve) exactly as
//!   long as the warm radius does not exceed the minimum pairwise center
//!   distance `δ`. Every structural mismatch falls back to the cold
//!   pipeline with a typed [`WarmStats::fallback`] reason — never an
//!   error.
//! * **Leave-one-out sweeps** ([`solve_loo`]): all `n` one-point-removed
//!   variants share a single [`PointStore`] and one base solution.
//!   Removing a point that Gonzalez never chose as a center leaves the
//!   greedy trajectory — and therefore the centers, the per-row
//!   assignment, and every surviving distance — bit-identical, so those
//!   variants reduce to a float-only expected-cost recombination with
//!   **zero** new distance evaluations. Only the ≤ `k` center-removing
//!   variants re-solve, and they still share the store via a row mask
//!   ([`ukc_metric::mask_row`]) instead of copying coordinates.
//!
//! Both paths honor the workspace determinism contract: results are
//! bit-identical for every thread/lane count and agree exactly with what
//! the cold reference pipeline produces on the same inputs, because every
//! per-pair distance is a pure function of the two coordinate rows
//! (independent of store position) and all reductions are order-free.
//!
//! ```
//! use ukc_core::{Problem, Solution, SolverConfig};
//! use ukc_uncertain::generators::{clustered, ProbModel};
//!
//! let config = SolverConfig::default();
//! let base_set = clustered(7, 40, 4, 2, 3, 8.0, 0.5, ProbModel::Random);
//! let prior = Problem::euclidean(base_set.clone(), 4)
//!     .unwrap()
//!     .solve(&config)
//!     .unwrap();
//!
//! // Append a few points and warm-start from the prior.
//! let mut points = base_set.points().to_vec();
//! points.extend_from_slice(&clustered(8, 4, 4, 2, 3, 8.0, 0.5, ProbModel::Random).points());
//! let grown = Problem::euclidean_points(points, 4).unwrap();
//! let warm = Solution::warm_start(&grown, &config, &prior).unwrap();
//! let stats = warm.report.warm.as_ref().unwrap();
//! assert!(stats.fallback.is_none() || stats.reused_centers == 0);
//! ```

use std::sync::Arc;
use std::time::Instant;

use crate::assignments::AssignmentRule;
use crate::config::{CertainStrategy, SolverConfig};
use crate::error::SolveError;
use crate::problem::{
    method_string, solve_batch_threads, validate_k, CostDistances, Layout, Problem, Solution,
};
use crate::report::{Report, WarmStats};
use ukc_kcenter::{cover_radius, gonzalez_nearest};
use ukc_metric::{
    mask_row, DistCounter, DistanceOracle, Metric, Point, PointId, PointStore, StoreOracle,
};
use ukc_pool::Exec;
use ukc_uncertain::{
    assigned_distances_exec, distance_slices, ecost_assigned, ecost_from_distances,
    expected_max_split, expected_point, UncertainSet,
};

/// The warm fast path supports exactly the pipeline whose structure it
/// reuses: expected-point assignment over Gonzalez centers in Euclidean
/// space.
fn warm_supported(problem: &Problem<Point>, config: &SolverConfig) -> Option<&'static str> {
    if config.rule() != AssignmentRule::ExpectedPoint
        || config.strategy() != CertainStrategy::Gonzalez
        || config.assignment() != crate::config::AssignmentMode::Plain
    {
        return Some("config_unsupported");
    }
    if problem.space_name() != "euclidean" {
        return Some("space_unsupported");
    }
    None
}

impl Solution<Point> {
    /// Solves `problem` warm-started from `prior`, a solution of a
    /// *prefix* of the same instance (typically: the instance before an
    /// append).
    ///
    /// The warm fast path reuses the prior centers and the prior
    /// assignment verbatim, re-assigns only the appended rows via one
    /// fused `nearest_each` sweep, and recomputes the exact expected cost
    /// from the prior's recorded per-location distances for the prefix
    /// (when it carries them for these locations) —
    /// skipping the `Θ(n·k)` certain-solve stage entirely. It is taken
    /// only when the *separation certificate* holds: with `δ` the minimum
    /// pairwise distance among the prior centers and `r` the covering
    /// radius of the representatives by those centers, `r ≤ δ` makes the
    /// centers plus the farthest representative `k+1` representatives at
    /// pairwise distance `≥ r`, so the optimal certain radius is `≥ r/2`
    /// and the reused centers stay a factor-2 approximation — the same
    /// guarantee class a cold Gonzalez solve certifies.
    ///
    /// On any structural mismatch (unsupported config or space, different
    /// `k`, perturbed prefix, certificate violation, …) the call runs the
    /// ordinary cold pipeline and stamps the typed reason into
    /// [`WarmStats::fallback`] — a mismatched prior is **never** an
    /// error, so callers can chain speculative warm starts freely. The
    /// returned report always carries `Some(WarmStats)`, distinguishing
    /// warm solves (and their fallbacks) from plain cold solves.
    ///
    /// `prior` must be a solution this library produced for a prefix
    /// instance under an expected-point rule. Its prefix is revalidated
    /// against the set it records ([`Solution::set`]): the expected
    /// points of that set's points must equal the current prefix's,
    /// coordinate for coordinate. Its `certain_radius` is trusted as
    /// every [`Solution`] invariant is.
    pub fn warm_start(
        problem: &Problem<Point>,
        config: &SolverConfig,
        prior: &Solution<Point>,
    ) -> Result<Solution<Point>, SolveError> {
        match warm_attempt(problem, config, prior) {
            Ok(solution) => Ok(solution),
            Err(reason) => {
                let mut solution = problem.solve(config)?;
                solution.report.warm = Some(WarmStats {
                    reused_centers: 0,
                    evals_saved: 0,
                    stages_skipped: Vec::new(),
                    fallback: Some(reason),
                });
                Ok(solution)
            }
        }
    }
}

/// The warm fast path; any `Err` is a typed fallback reason, upon which
/// the caller runs the cold pipeline.
fn warm_attempt(
    problem: &Problem<Point>,
    config: &SolverConfig,
    prior: &Solution<Point>,
) -> Result<Solution<Point>, &'static str> {
    if let Some(reason) = warm_supported(problem, config) {
        return Err(reason);
    }
    let set = problem.set();
    let n = set.n();
    let k = problem.k();
    if prior.centers.len() != k {
        return Err("k_mismatch");
    }
    let n_prior = prior.assignment.len();
    if n_prior == 0
        || n_prior > n
        || prior.set.n() != n_prior
        || prior.assignment.iter().any(|&a| a >= k)
    {
        return Err("prior_shape");
    }

    let t_total = Instant::now();
    let mut report = Report {
        method: method_string("euclidean", config.rule(), config.strategy()),
        ..Report::default()
    };

    // Stage 1: the prefix is revalidated against the prior's recorded set
    // (coordinate arithmetic, zero metric evaluations): the expected
    // points of its points must equal the current ones, so a perturbed
    // instance — not an append — falls back cold here. Only points that
    // differ from the prior's are recomputed: equal locations and
    // probabilities give equal expected points (the centroid only adds,
    // multiplies and divides by a positive total), and a shared set is
    // equal throughout.
    let t = Instant::now();
    if !Arc::ptr_eq(&prior.set, problem.shared_set()) {
        for (up, prior_up) in set.iter().zip(prior.set.iter()) {
            if up != prior_up && expected_point(up).coords() != expected_point(prior_up).coords() {
                return Err("prefix_mismatch");
            }
        }
    }
    // The prefix and the appended rows, then the representatives: the
    // layout a cold solve of this problem reads.
    let layout = problem
        .layout(config.rule())
        .expect("warm_supported admits only Euclidean problems");
    let Layout {
        store,
        set_ids,
        rep_ids,
        ..
    } = layout;
    // The separation certificate needs the prior centers to *be*
    // representatives of the current instance (true of every Gonzalez
    // solution over a matching prefix); each center is read at the first
    // representative row holding its coordinates.
    let center_ids: Vec<PointId> = prior
        .centers
        .iter()
        .map(|c| {
            rep_ids
                .iter()
                .copied()
                .find(|&r| store.coords(r) == c.coords())
        })
        .collect::<Option<_>>()
        .ok_or("centers_not_representatives")?;
    report.timings.representatives = t.elapsed();

    let counter = DistCounter::new();
    let exec = Exec::auto(config.resolved_threads());
    let oracle = StoreOracle::new(store)
        .with_counter(&counter)
        .with_exec(exec);

    // Stage 2, shrunk from Θ(n·k) to k(k−1)/2: the separation
    // certificate δ = min pairwise center distance.
    let t = Instant::now();
    let mut delta = f64::INFINITY;
    for i in 0..k {
        for j in (i + 1)..k {
            delta = delta.min(oracle.dist(&center_ids[i], &center_ids[j]));
        }
    }
    report.distance_evals.certain_solve = counter.count();
    report.timings.certain_solve = t.elapsed();

    // Stage 3, shrunk to the appended rows: one fused nearest-center
    // sweep; the prefix assignment is carried over verbatim (valid
    // because the prefix representatives are bitwise unchanged).
    let evals_before = counter.count();
    let t = Instant::now();
    let mut nearest = vec![(0usize, 0.0f64); n - n_prior];
    oracle.nearest_each(&rep_ids[n_prior..], &center_ids, None, &mut nearest);
    let mut r_warm = prior.certain_radius;
    for &(_, d) in &nearest {
        r_warm = r_warm.max(d);
    }
    // Negated form on purpose: a NaN radius must fail the certificate,
    // not sail through a `>` comparison.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(r_warm <= delta) {
        // Certificate violated: an appended representative drifted too
        // far from every reused center for the factor-2 argument to
        // hold. Re-run center selection from scratch.
        return Err("radius_bound_exceeded");
    }
    let mut assignment = prior.assignment.clone();
    assignment.extend(nearest.iter().map(|&(c, _)| c));
    report.distance_evals.assignment = counter.since(evals_before);
    report.timings.assignment = t.elapsed();

    // Stage 4: the exact expected cost is recomputed, but the prefix
    // keeps its centers and assignment, so the prior's per-location
    // distances stand in for its pairs when it recorded them for these
    // very locations; only the rest are evaluated.
    let evals_before = counter.count();
    let t = Instant::now();
    let reused = prior.cost_prefix(set, n_prior);
    let from = if reused.is_some() { n_prior } else { 0 };
    let mut dists = reused.map_or_else(Vec::new, <[f64]>::to_vec);
    dists.extend(assigned_distances_exec(
        &set_ids.points()[from..],
        &center_ids,
        &assignment[from..],
        &oracle,
        exec,
    ));
    let ecost = ecost_from_distances(set_ids, &dists);
    let cost_distances = CostDistances::new(set, dists);
    report.distance_evals.cost = counter.since(evals_before);
    report.timings.cost = t.elapsed();

    // The certified bound, computed exactly as a cold EP/Gonzalez solve
    // does: the certain half is that solve's Gonzalez radius on `P̄`, read
    // off the layout's traversal, so warm and cold bounds are
    // bit-identical. The passes it runs, if any, are uncounted, like the
    // cold solve's reuse of its certain stage; only the per-point half's
    // passes count.
    if config.computes_lower_bound() {
        let t = Instant::now();
        let certain_half = layout.certain_half(k, exec);
        let (bound, evals) = crate::bounds::per_point_store(layout, certain_half);
        report.lower_bound = Some(bound);
        report.timings.lower_bound = t.elapsed();
        report.distance_evals.lower_bound = evals;
    }

    // A floor on what a cold EP/Gonzalez solve of this instance spends:
    // its first greedy pass evaluates every representative (nothing is
    // pruned yet), and its cost stage every realization location.
    let cold_floor = (n + set.total_locations()) as u64;
    report.warm = Some(WarmStats {
        reused_centers: k,
        evals_saved: cold_floor.saturating_sub(counter.count()),
        stages_skipped: vec!["certain_solve", "assignment_prefix"],
        fallback: None,
    });
    report.timings.total = t_total.elapsed();

    Ok(Solution {
        centers: prior.centers.clone(),
        assignment,
        ecost,
        set: Arc::clone(problem.shared_set()),
        certain_radius: r_warm,
        report,
        cost_distances: Some(cost_distances),
    })
}

/// One leave-one-out variant of a [`solve_loo`] sweep: the solve of the
/// instance with point `removed` masked out.
#[derive(Clone, Debug)]
pub struct LooVariant {
    /// Index of the removed uncertain point in the base instance.
    pub removed: usize,
    /// Exact expected cost of the variant's solution.
    pub ecost: f64,
    /// Certain k-center radius of the variant's solution.
    pub certain_radius: f64,
    /// `true` when the variant reused the base centers and assignment
    /// (bit-exact with an independent cold solve of the reduced
    /// instance, at zero additional distance evaluations); `false` when
    /// it was re-solved.
    pub reused: bool,
    /// Distance evaluations this variant spent on top of the shared
    /// sweeps (`0` for reused variants).
    pub distance_evals: u64,
}

/// The result of a batch leave-one-out sweep ([`solve_loo`]).
#[derive(Clone, Debug)]
pub struct LooReport {
    /// The solution of the full instance all variants share.
    pub base: Solution<Point>,
    /// One entry per removed point, in point order.
    pub variants: Vec<LooVariant>,
    /// Variants that reused the base solution outright.
    pub reused_variants: usize,
    /// Variants that required a re-solve.
    pub resolved_variants: usize,
    /// Total distance evaluations: base solve + shared sweeps + every
    /// re-solved variant.
    pub distance_evals: u64,
}

/// Solves all `n` leave-one-out variants of `problem` — the jackknife
/// sweep of conformal-prediction and stability analyses — sharing one
/// [`PointStore`] and one base solution instead of `n` independent cold
/// solves.
///
/// Under the expected-point/Gonzalez pipeline on a Euclidean instance,
/// removing a point the greedy never picked as a center leaves the
/// Gonzalez trajectory — and with it the centers, every surviving row's
/// assignment, and every surviving distance — identical, because the
/// greedy's last-max tie-break can only ever have chosen the removed
/// point if it *was* a center. Those `n − |centers|` variants therefore
/// recombine to bit-exact solutions of the reduced instances from the
/// shared min-distance and cost-variable sweeps, with zero additional
/// distance evaluations; only the ≤ k center-removing variants re-solve,
/// still on the shared store through a row mask. Variants fan out across
/// the global worker pool deterministically (each variant is an
/// independent pure computation, so lane count cannot leak into
/// results).
///
/// Any other configuration or space falls back to `n` independent
/// reduced solves through [`solve_batch_threads`] (correct, just not
/// shared). Instances too small to lose a point (`k > n − 1`) are a
/// typed error.
pub fn solve_loo(problem: &Problem<Point>, config: &SolverConfig) -> Result<LooReport, SolveError> {
    let n = problem.set().n();
    validate_k(n.saturating_sub(1), problem.k())?;
    let base = problem.solve(config)?;
    let base = if warm_supported(problem, config).is_none() {
        match solve_loo_store(problem, config, base) {
            Ok(report) => return Ok(report),
            Err(base) => *base,
        }
    } else {
        base
    };
    solve_loo_general(problem, config, base)
}

/// The shared-store fast path of [`solve_loo`], which moves `base` into
/// its report; hands `base` back when it does not have the Gonzalez
/// shape (centers drawn from the representatives).
fn solve_loo_store(
    problem: &Problem<Point>,
    config: &SolverConfig,
    base: Solution<Point>,
) -> Result<LooReport, Box<Solution<Point>>> {
    let set = problem.set();
    let n = set.n();
    let k = problem.k();
    // The expected points: the layout the base solve read.
    let Layout {
        store,
        set_ids,
        rep_ids,
        ..
    } = problem
        .layout(config.rule())
        .expect("warm_supported admits only Euclidean problems");

    // Rows that could have been chosen as centers. Coordinate-duplicate
    // rows are conservatively included: re-solving one costs a little,
    // while wrongly reusing one could change the greedy trajectory.
    let mut is_center = vec![false; n];
    let mut center_ids = Vec::with_capacity(base.centers.len());
    for c in &base.centers {
        let mut first = None;
        for (j, &rep) in rep_ids.iter().enumerate() {
            if store.coords(rep) == c.coords() {
                is_center[j] = true;
                first.get_or_insert(rep);
            }
        }
        match first {
            Some(id) => center_ids.push(id),
            None => return Err(Box::new(base)),
        }
    }

    let shared_counter = DistCounter::new();
    let exec = Exec::auto(config.resolved_threads());
    let oracle = StoreOracle::new(store)
        .with_counter(&shared_counter)
        .with_exec(exec);

    // Shared sweep 1 (n·k evals): every representative's distance to its
    // nearest base center, feeding each variant's radius via running
    // prefix/suffix maxima.
    let mut mindist = vec![f64::INFINITY; n];
    oracle.dists_to_centers_min(rep_ids, &center_ids, None, &mut mindist);
    let mut prefix_max = vec![0.0f64; n + 1];
    for i in 0..n {
        prefix_max[i + 1] = prefix_max[i].max(mindist[i]);
    }
    let mut suffix_max = vec![0.0f64; n + 1];
    for i in (0..n).rev() {
        suffix_max[i] = suffix_max[i + 1].max(mindist[i]);
    }

    // Shared sweep 2 (one eval per realization location, none when the
    // base solve recorded them): the cost variables of the base
    // assignment. A reused variant's exact expected cost is then a
    // float-only recombination.
    let computed;
    let dists = match base.cost_prefix(set, n) {
        Some(dists) => dists,
        None => {
            computed = assigned_distances_exec(
                set_ids.points(),
                &center_ids,
                &base.assignment,
                &oracle,
                exec,
            );
            &computed
        }
    };
    // Each point's borrowed (distances, probabilities): a reused variant
    // folds these with its removed point skipped, copying no atoms.
    let per_point: Vec<(&[f64], &[f64])> = distance_slices(set_ids.points(), dists).collect();

    // Fan the variants across the pool, one per lane chunk. Each slot is
    // an independent pure computation over shared read-only state, so
    // results are bit-identical for every lane count.
    let mut slots: Vec<Option<LooVariant>> = Vec::new();
    slots.resize_with(n, || None);
    let threads = config.resolved_threads().max(1).min(n);
    ukc_pool::for_each_slice(
        Exec::pooled(ukc_pool::global(), threads),
        &mut slots,
        1,
        |i, slot| {
            slot[0] = Some(if is_center[i] {
                resolve_center_variant(store, set_ids, rep_ids, k, i)
            } else {
                let reduced = (0..n - 1).map(|j| per_point[j + usize::from(j >= i)]);
                LooVariant {
                    removed: i,
                    ecost: expected_max_split(reduced),
                    certain_radius: prefix_max[i].max(suffix_max[i + 1]),
                    reused: true,
                    distance_evals: 0,
                }
            });
        },
    );

    let variants: Vec<LooVariant> = slots
        .into_iter()
        .map(|s| s.expect("the pool executes every chunk exactly once"))
        .collect();
    let reused_variants = variants.iter().filter(|v| v.reused).count();
    let distance_evals = base.report.distance_evals.total()
        + shared_counter.count()
        + variants.iter().map(|v| v.distance_evals).sum::<u64>();
    Ok(LooReport {
        base,
        reused_variants,
        resolved_variants: n - reused_variants,
        distance_evals,
        variants,
    })
}

/// Re-solves the variant that removes row `i` (a center row, or a
/// coordinate duplicate of one) on the shared store: mask the row out of
/// the representative slice, run the greedy — whose tracked passes also
/// assign, exactly as a cold EP solve's do — and recombine the exact
/// cost.
fn resolve_center_variant(
    store: &PointStore,
    set_ids: &UncertainSet<PointId>,
    rep_ids: &[PointId],
    k: usize,
    i: usize,
) -> LooVariant {
    let counter = DistCounter::new();
    let oracle = StoreOracle::new(store).with_counter(&counter);
    let reduced_reps = mask_row(rep_ids, i);
    let (idx, nearest) = gonzalez_nearest(&reduced_reps, k, &oracle, 0);
    let centers: Vec<PointId> = idx.iter().map(|&j| reduced_reps[j]).collect();
    let assignment: Vec<usize> = nearest.iter().map(|&(c, _)| c).collect();
    let mut reduced = set_ids.points().to_vec();
    reduced.remove(i);
    let ecost = ecost_assigned(&UncertainSet::new(reduced), &centers, &assignment, &oracle);
    LooVariant {
        removed: i,
        ecost,
        certain_radius: cover_radius(&nearest),
        reused: false,
        distance_evals: counter.count(),
    }
}

/// The fallback path of [`solve_loo`]: `n` independent reduced solves
/// through the batch fan-out — correct for every space and
/// configuration, with no sharing.
fn solve_loo_general(
    problem: &Problem<Point>,
    config: &SolverConfig,
    base: Solution<Point>,
) -> Result<LooReport, SolveError> {
    let set = problem.set();
    let n = set.n();
    let mut variant_problems = Vec::with_capacity(n);
    for i in 0..n {
        let mut points = set.points().to_vec();
        points.remove(i);
        variant_problems.push(problem.with_set(UncertainSet::new(points))?);
    }
    let results = solve_batch_threads(&variant_problems, config, config.resolved_threads());
    let mut variants = Vec::with_capacity(n);
    let mut distance_evals = base.report.distance_evals.total();
    for (i, result) in results.into_iter().enumerate() {
        let solution = result?;
        let evals = solution.report.distance_evals.total();
        distance_evals += evals;
        variants.push(LooVariant {
            removed: i,
            ecost: solution.ecost,
            certain_radius: solution.certain_radius,
            reused: false,
            distance_evals: evals,
        });
    }
    Ok(LooReport {
        base,
        variants,
        reused_variants: 0,
        resolved_variants: n,
        distance_evals,
    })
}
