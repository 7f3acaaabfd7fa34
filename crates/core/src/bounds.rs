//! Certified lower bounds on the optimal expected cost.
//!
//! Measuring an approximation ratio needs a denominator that never exceeds
//! the true optimum. Two families of bounds are combined (both proved by
//! the paper's own lemmas):
//!
//! 1. **Per-point 1-median bound** (Lemma 3.2): for any centers and any
//!    assignment, `EcostA ≥ Σⱼ pᵢⱼ·d(Pᵢⱼ, A(Pᵢ)) ≥ min_c E d(Pᵢ, c)`,
//!    so `opt ≥ max_i min_c E d(Pᵢ, c)`. The inner minimum is a
//!    Fermat–Weber value in Euclidean space (certified below), or a
//!    discrete 1-median over the candidate pool in a finite metric space.
//! 2. **Certain-projection bound** (Lemmas 3.4 / 3.6): for the optimal
//!    centers `c*` one has `cost_certain(c*) ≤ EcostA(c*) = opt` over the
//!    expected points (Euclidean), hence
//!    `opt ≥ opt_kcenter(P̄₁..P̄_n) ≥ gonzalez_radius(P̄)/2`. In a general
//!    metric space Lemma 3.6 gives the weaker
//!    `opt ≥ opt_kcenter(P̃)/2 ≥ gonzalez_radius(P̃)/4`.
//!
//! Both bounds hold for *every* assigned version (restricted under any
//! rule, and unrestricted), because they hold for arbitrary assignments.
//!
//! # The Euclidean per-point half: certified and pruned
//!
//! **Certificate.** `fᵢ(c) = Σⱼ pᵢⱼ‖c − uᵢⱼ‖` is convex, so for *any*
//! point `x`, any subgradient `s` of `fᵢ` at `x`, and any `ρ` at least the
//! distance from `x` to a minimizer,
//! `min fᵢ ≥ fᵢ(x) − ‖s‖·ρ`. Two radii hold: `maxⱼ‖uⱼ − x‖` (a minimizer
//! lies in the hull of the support) and `(U + fᵢ(x)) / Σⱼpᵢⱼ` for any
//! attained value `U ≥ min fᵢ` (triangle inequality); the smaller is
//! used. Away from the support `s = ∇fᵢ(x)`; at a location coincident
//! with `x`, the smallest subgradient has norm `‖r‖ − p`, floored at 0,
//! where `r` is the Vardi–Zhang residual of the other locations and `p`
//! the coincident weight. The certificate is valid at every Weiszfeld
//! iterate, so the search may stop at any point and stay certified.
//!
//! **Pruning.** One pass computes `Uᵢ = fᵢ(P̄ᵢ) ≥ min fᵢ` for every
//! point. The running best starts at the certain half; points are visited
//! in descending `Uᵢ` (ties by index), and the visit stops at the first
//! `Uᵢ ≤ best`, since no later point can raise the maximum. Each survivor
//! runs Weiszfeld from `P̄ᵢ`, keeping `U` = the least `fᵢ` seen and `L` =
//! the largest certificate, and stops once `U − L ≤ 10⁻¹²·U` or
//! `U ≤ best`. Weiszfeld reaches a minimizer that sits *on* a support
//! location only in the limit, so each support location that becomes the
//! iterate's nearest is probed once, exactly.
//!
//! **Floating point.** The computed `f`, `‖s‖` and `ρ` of a `z`-location,
//! `d`-coordinate support carry relative errors of a few `(z + d)·ε`. Each
//! certificate is evaluated as
//! `f̂·(1 − η) − (‖ŝ‖ + η·Σp − p_coincident·(1 − η))₊ · ρ̂·(1 + η)` with
//! `η = 4(z + d + 4)·ε`, which keeps it below the exact minimum (and
//! below any computed value of `fᵢ`).
//!
//! **Counting.** The per-point half reports its own distance evaluations:
//! `z` per point for the `Uᵢ` pass, plus `z` per refinement iterate or
//! probe.

use ukc_kcenter::gonzalez;
use ukc_metric::batch::dist_sq_scalar;
use ukc_metric::{DistanceOracle, Metric, Point};
use ukc_pool::Exec;
use ukc_uncertain::{one_center_discrete, UncertainSet};

use crate::problem::Layout;

/// Certified lower bound specific to the 1-center problem (`k = 1`, where
/// assigned and unassigned coincide): combines the per-point 1-median
/// bound with the *pairwise* bound
///
/// ```text
/// Ecost(c) = E[max_i d(P̂ᵢ, c)] ≥ E[ d(P̂ᵢ, P̂ⱼ) ] / 2   for every i ≠ j,
/// ```
///
/// which holds realization-wise by the triangle inequality
/// (`max(d(u,c), d(v,c)) ≥ d(u,v)/2`) and independence. O(n²z²).
pub fn lower_bound_one_center<P, M: Metric<P>>(set: &UncertainSet<P>, metric: &M) -> f64 {
    let mut best = 0.0f64;
    let n = set.n();
    for i in 0..n {
        for j in (i + 1)..n {
            let mut e = 0.0;
            for (u, pu) in set[i].support() {
                for (v, pv) in set[j].support() {
                    e += pu * pv * metric.dist(u, v);
                }
            }
            best = best.max(e / 2.0);
        }
    }
    best
}

/// Certified lower bound on the optimal expected cost of any assigned
/// k-center solution in Euclidean space: the bound a solve reports,
/// computed over the same store layout.
///
/// # Panics
/// Panics when locations have mismatched dimensions.
pub fn lower_bound_euclidean(set: &UncertainSet<Point>, k: usize) -> f64 {
    let layout = Layout::new(set, crate::AssignmentRule::ExpectedPoint);
    let certain = layout.certain_half(k, Exec::sequential());
    per_point_store(&layout, certain).0
}

/// The per-point half of the Euclidean bound over an expected-point
/// layout, folded into `floor` (the certain half): each point's
/// locations are consecutive rows, and its representative is `P̄ᵢ`.
/// Returns the bound and the distance evaluations it made.
pub(crate) fn per_point_store(pbar: &Layout, floor: f64) -> (f64, u64) {
    let store = &pbar.store;
    let dim = store.dim();
    let coords = store.raw_coords();
    let supports: Vec<Support<'_>> = pbar
        .set_ids
        .iter()
        .zip(&pbar.rep_ids)
        .map(|(up, &c)| {
            let ids = up.locations();
            let first = ids[0].index();
            assert!(
                ids.iter()
                    .enumerate()
                    .all(|(j, id)| id.index() == first + j),
                "a point's locations must be consecutive store rows"
            );
            Support {
                locs: &coords[first * dim..(first + ids.len()) * dim],
                probs: up.probs(),
                center: store.coords(c),
            }
        })
        .collect();
    per_point_bound(&supports, floor)
}

/// One uncertain point in raw coordinates.
#[derive(Clone, Copy, Debug)]
struct Support<'a> {
    /// The `z` locations, row-major, `center.len()` coordinates each.
    locs: &'a [f64],
    /// The location probabilities.
    probs: &'a [f64],
    /// The expected point `P̄`, where the search starts.
    center: &'a [f64],
}

impl Support<'_> {
    fn loc(&self, j: usize) -> &[f64] {
        let d = self.center.len();
        &self.locs[j * d..(j + 1) * d]
    }

    /// `f(x) = Σⱼ pⱼ‖x − uⱼ‖`.
    fn value(&self, x: &[f64]) -> f64 {
        let mut f = 0.0;
        for (j, &p) in self.probs.iter().enumerate() {
            if p > 0.0 {
                f += p * dist(x, self.loc(j));
            }
        }
        f
    }
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist_sq_scalar(a, b).sqrt()
}

/// Relative floating-point slack of one certificate (see the module docs).
fn slack(z: usize, dim: usize) -> f64 {
    4.0 * (z + dim + 4) as f64 * f64::EPSILON
}

/// Relative gap at which a survivor's refinement stops.
const GAP: f64 = 1e-12;

/// Iterate cap per survivor; reached only when Weiszfeld stalls short of
/// the gap.
const MAX_ITERATES: usize = 10_000;

/// The pruned per-point half: the largest per-point certificate, or
/// `floor` when no point can beat it, plus the evaluations made.
fn per_point_bound(points: &[Support<'_>], floor: f64) -> (f64, u64) {
    let mut evals = 0u64;
    let upper: Vec<f64> = points
        .iter()
        .map(|s| {
            evals += s.probs.len() as u64;
            s.value(s.center)
        })
        .collect();
    let mut order: Vec<usize> = (0..points.len()).filter(|&i| upper[i] > floor).collect();
    order.sort_by(|&a, &b| upper[b].total_cmp(&upper[a]).then(a.cmp(&b)));
    let mut best = floor;
    let mut refiner = Refiner::default();
    for i in order {
        if upper[i] <= best {
            break;
        }
        let (lower, spent) = refiner.refine(&points[i], upper[i], best, |_| {});
        evals += spent;
        best = best.max(lower);
    }
    (best, evals)
}

/// `f`, its subgradient data and its reach at one point, from one pass
/// over the support.
#[derive(Clone, Copy, Debug, Default)]
struct Probe {
    /// `f(x)`.
    f: f64,
    /// `maxⱼ‖uⱼ − x‖` over the positive-weight locations.
    reach: f64,
    /// `Σⱼ pⱼ`.
    weight: f64,
    /// `‖Σ pⱼ(x − uⱼ)/‖x − uⱼ‖‖` over the locations away from `x`.
    grad_norm: f64,
    /// Weight of the locations equal to `x`.
    coincident: f64,
    /// Weight of locations at computed distance 0 that differ from `x`
    /// (underflow): their gradient direction is unknown.
    near: f64,
    /// `Σ pⱼ/‖x − uⱼ‖` over the locations away from `x` (the Weiszfeld
    /// denominator).
    den: f64,
    /// The positive-weight location nearest to `x`.
    nearest: usize,
}

impl Probe {
    /// The certified lower bound on `min f` at this point, given an
    /// attained value `upper ≥ min f`.
    fn certificate(&self, upper: f64, eta: f64) -> f64 {
        let s = (self.grad_norm + eta * self.weight + self.near - self.coincident * (1.0 - eta))
            .max(0.0);
        let rho = self.reach.min((upper + self.f) / self.weight);
        self.f * (1.0 - eta) - s * rho * (1.0 + eta)
    }
}

/// Scratch buffers for refining survivors, reused across points.
#[derive(Default)]
struct Refiner {
    x: Vec<f64>,
    next: Vec<f64>,
    num: Vec<f64>,
    grad: Vec<f64>,
    probed: Vec<bool>,
}

/// Evaluates `f` at `x`; leaves `Σ pⱼuⱼ/dⱼ` in `num` and the gradient of
/// the locations away from `x` in `grad`.
fn probe(s: &Support<'_>, x: &[f64], num: &mut [f64], grad: &mut [f64]) -> Probe {
    num.fill(0.0);
    grad.fill(0.0);
    let mut at = Probe::default();
    let mut nearest = f64::INFINITY;
    for (j, &p) in s.probs.iter().enumerate() {
        if p <= 0.0 {
            continue;
        }
        let u = s.loc(j);
        let d = dist(x, u);
        at.f += p * d;
        at.weight += p;
        at.reach = at.reach.max(d);
        if d < nearest {
            nearest = d;
            at.nearest = j;
        }
        if d == 0.0 {
            if x == u {
                at.coincident += p;
            } else {
                at.near += p;
            }
            continue;
        }
        let inv = p / d;
        at.den += inv;
        for ((n, g), (&xk, &uk)) in num.iter_mut().zip(grad.iter_mut()).zip(x.iter().zip(u)) {
            *n += inv * uk;
            *g += inv * (xk - uk);
        }
    }
    at.grad_norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
    at
}

impl Refiner {
    /// Refines one survivor from its expected point; `upper` is `f(P̄)`
    /// and `best` the running bound. Returns the largest certificate
    /// (reported to `seen` one by one) and the evaluations made.
    fn refine(
        &mut self,
        s: &Support<'_>,
        mut upper: f64,
        best: f64,
        mut seen: impl FnMut(f64),
    ) -> (f64, u64) {
        let dim = s.center.len();
        let z = s.probs.len();
        let eta = slack(z, dim);
        let gap = GAP.max(4.0 * eta);
        self.x.clear();
        self.x.extend_from_slice(s.center);
        self.next.resize(dim, 0.0);
        self.num.resize(dim, 0.0);
        self.grad.resize(dim, 0.0);
        self.probed.clear();
        self.probed.resize(z, false);
        let mut lower = f64::NEG_INFINITY;
        let mut evals = 0u64;
        let done = |upper: f64, lower: f64| upper <= best || upper - lower <= gap * upper;
        for _ in 0..MAX_ITERATES {
            let at = probe(s, &self.x, &mut self.num, &mut self.grad);
            evals += z as u64;
            upper = upper.min(at.f);
            let l = at.certificate(upper, eta);
            seen(l);
            lower = lower.max(l);
            if done(upper, lower) {
                break;
            }
            // The Weiszfeld step, with Vardi–Zhang's rule at a support
            // location: stop where the residual cannot beat the
            // coincident weight (the point is a minimizer).
            let stuck = at.coincident + at.near;
            if at.den == 0.0 || (stuck > 0.0 && at.grad_norm <= stuck) {
                break;
            }
            if stuck > 0.0 {
                let t = (1.0 - stuck / at.grad_norm) / at.den;
                for ((nx, &x), &g) in self.next.iter_mut().zip(&self.x).zip(&self.grad) {
                    *nx = x - t * g;
                }
            } else {
                for (nx, &n) in self.next.iter_mut().zip(&self.num) {
                    *nx = n / at.den;
                }
            }
            // A minimizer on a support location is reached only in the
            // limit: probe the nearest location exactly, once.
            if stuck > 0.0 {
                self.probed[at.nearest] = true;
            } else if !self.probed[at.nearest] {
                self.probed[at.nearest] = true;
                let vertex = probe(s, s.loc(at.nearest), &mut self.num, &mut self.grad);
                evals += z as u64;
                upper = upper.min(vertex.f);
                let l = vertex.certificate(upper, eta);
                seen(l);
                lower = lower.max(l);
                if done(upper, lower) {
                    break;
                }
            }
            if self.next == self.x {
                break;
            }
            std::mem::swap(&mut self.x, &mut self.next);
        }
        (lower, evals)
    }
}

/// Certified lower bound on the optimal expected cost of any assigned
/// k-center solution in a general metric space, with centers restricted to
/// `candidates`.
///
/// # Panics
/// Panics when `candidates` is empty.
pub fn lower_bound_metric<P: Clone, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    k: usize,
    candidates: &[P],
    metric: &M,
) -> f64 {
    assert!(!candidates.is_empty(), "need a candidate pool");
    // One discrete 1-median sweep per point yields both halves' inputs:
    // its value is the per-point bound (valid because the optimal centers
    // are themselves drawn from the candidate pool in the discrete
    // problem), its argmin the 1-center representative.
    let mut per_point = 0.0f64;
    let reps: Vec<P> = set
        .iter()
        .map(|up| {
            let (idx, value) = one_center_discrete(up, candidates, metric);
            per_point = per_point.max(value);
            candidates[idx].clone()
        })
        .collect();
    // Certain-projection bound via the 1-center representatives
    // (Lemma 3.6 costs a factor 2, Gonzalez another factor 2).
    let certain = if k == 0 {
        0.0
    } else {
        gonzalez(&reps, k, metric, 0).radius / 4.0
    };
    per_point.max(certain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AssignmentRule, Problem, Solution, SolverConfig};
    use ukc_metric::{Euclidean, FiniteMetric};
    use ukc_uncertain::generators::{clustered, on_finite_metric, uniform_box, ProbModel};
    use ukc_uncertain::{expected_point, UncertainSet};

    fn config(rule: AssignmentRule) -> SolverConfig {
        SolverConfig::builder()
            .rule(rule)
            .lower_bound(false)
            .build()
            .unwrap()
    }

    /// The Euclidean bound and its distance evaluations, as an
    /// expected-point solve reports them.
    fn counted_bound(set: &UncertainSet<Point>, k: usize) -> (f64, u64) {
        let config = SolverConfig::builder()
            .rule(AssignmentRule::ExpectedPoint)
            .build()
            .unwrap();
        let report = Problem::euclidean(set.clone(), k)
            .unwrap()
            .solve(&config)
            .unwrap()
            .report;
        (
            report.lower_bound.expect("bound requested"),
            report.distance_evals.lower_bound,
        )
    }

    fn solve_eu(set: &UncertainSet<Point>, k: usize, rule: AssignmentRule) -> Solution<Point> {
        Problem::euclidean(set.clone(), k)
            .unwrap()
            .solve(&config(rule))
            .unwrap()
    }

    #[test]
    fn euclidean_bound_below_every_algorithm_output() {
        for seed in 0..6u64 {
            let set = clustered(seed, 12, 3, 2, 3, 4.0, 1.0, ProbModel::Random);
            let lb = lower_bound_euclidean(&set, 3);
            for rule in [
                AssignmentRule::ExpectedDistance,
                AssignmentRule::ExpectedPoint,
                AssignmentRule::OneCenter,
            ] {
                let sol = solve_eu(&set, 3, rule);
                assert!(
                    lb <= sol.ecost + 1e-9,
                    "seed {seed} rule {rule:?}: lb {lb} > ecost {}",
                    sol.ecost
                );
            }
        }
    }

    #[test]
    fn euclidean_bound_is_positive_for_uncertain_inputs() {
        let set = uniform_box(1, 10, 3, 2, 20.0, 2.0, ProbModel::Random);
        let lb = lower_bound_euclidean(&set, 2);
        assert!(lb > 0.0);
    }

    #[test]
    fn metric_bound_below_every_algorithm_output() {
        let g = ukc_metric::WeightedGraph::grid(3, 4, 1.5);
        let fm: FiniteMetric = g.shortest_path_metric().unwrap();
        for seed in 0..4u64 {
            let set = on_finite_metric(seed, fm.len(), 8, 3, ProbModel::Random);
            let pool = set.location_pool();
            let lb = lower_bound_metric(&set, 2, &pool, &fm);
            for rule in [AssignmentRule::ExpectedDistance, AssignmentRule::OneCenter] {
                let sol = Problem::in_metric(set.clone(), 2, fm.clone(), pool.clone())
                    .unwrap()
                    .solve(&config(rule))
                    .unwrap();
                assert!(
                    lb <= sol.ecost + 1e-9,
                    "seed {seed} rule {rule:?}: lb {lb} > ecost {}",
                    sol.ecost
                );
            }
        }
    }

    #[test]
    fn k_greater_equal_n_keeps_per_point_bound() {
        // With k >= n the certain radius collapses to 0 but the per-point
        // uncertainty floor remains: even a dedicated center per point pays
        // the point's own spread.
        let set = uniform_box(5, 4, 3, 2, 10.0, 2.0, ProbModel::Uniform);
        let lb = lower_bound_euclidean(&set, 10);
        assert!(lb > 0.0);
        let sol = solve_eu(&set, 4, AssignmentRule::ExpectedDistance);
        assert!(lb <= sol.ecost + 1e-9);
    }

    #[test]
    fn one_center_bound_below_reference_optimum() {
        use crate::one_center::reference_one_center;
        for seed in 0..4u64 {
            let set = uniform_box(seed, 5, 3, 2, 10.0, 2.0, ProbModel::Random);
            let lb = lower_bound_one_center(&set, &Euclidean);
            let (_, opt) = reference_one_center(&set);
            assert!(lb <= opt + 1e-9, "seed {seed}: lb {lb} > opt {opt}");
            assert!(lb > 0.0);
        }
    }

    #[test]
    fn one_center_bound_tight_on_two_certain_points() {
        use ukc_uncertain::UncertainPoint;
        let set = UncertainSet::new(vec![
            UncertainPoint::certain(Point::scalar(0.0)),
            UncertainPoint::certain(Point::scalar(10.0)),
        ]);
        // Opt 1-center cost is 5; the pairwise bound gives exactly 5.
        let lb = lower_bound_one_center(&set, &Euclidean);
        assert!((lb - 5.0).abs() < 1e-12);
    }

    #[test]
    fn certain_points_give_zero_per_point_but_positive_certain_bound() {
        use ukc_uncertain::UncertainPoint;
        let set = UncertainSet::new(vec![
            UncertainPoint::certain(Point::scalar(0.0)),
            UncertainPoint::certain(Point::scalar(10.0)),
            UncertainPoint::certain(Point::scalar(20.0)),
        ]);
        // k=1: optimal cost is 10 (center at 10). The bound must be > 0 and
        // <= 10.
        let lb = lower_bound_euclidean(&set, 1);
        assert!(lb > 0.0 && lb <= 10.0 + 1e-9, "lb {lb}");
    }

    /// The bound as computed before the per-point half was certified:
    /// the objective at a converged Weiszfeld median.
    fn seed_lower_bound_euclidean(set: &UncertainSet<Point>, k: usize) -> f64 {
        use ukc_geometry::median::{geometric_median, WeiszfeldOptions};
        let per_point = set
            .iter()
            .map(|up| {
                let med = geometric_median(up.locations(), up.probs(), WeiszfeldOptions::default())
                    .unwrap();
                ukc_uncertain::expected_distance(up, &med, &Euclidean)
            })
            .fold(0.0f64, f64::max);
        let reps: Vec<Point> = set.iter().map(expected_point).collect();
        per_point.max(gonzalez(&reps, k, &Euclidean, 0).radius / 2.0)
    }

    /// The metric bound as computed before the sweep was shared: two
    /// discrete 1-median sweeps per point.
    fn seed_lower_bound_metric<M: DistanceOracle<usize>>(
        set: &UncertainSet<usize>,
        k: usize,
        candidates: &[usize],
        metric: &M,
    ) -> f64 {
        let per_point = set
            .iter()
            .map(|up| one_center_discrete(up, candidates, metric).1)
            .fold(0.0f64, f64::max);
        let reps: Vec<usize> = set
            .iter()
            .map(|up| candidates[one_center_discrete(up, candidates, metric).0])
            .collect();
        per_point.max(gonzalez(&reps, k, metric, 0).radius / 4.0)
    }

    #[test]
    fn metric_bound_is_bit_identical_to_seed_with_half_the_sweeps() {
        use crate::report::CountingMetric;
        let g = ukc_metric::WeightedGraph::grid(4, 5, 1.5);
        let fm: FiniteMetric = g.shortest_path_metric().unwrap();
        for seed in 0..4u64 {
            let set = on_finite_metric(seed, fm.len(), 9, 3, ProbModel::Random);
            let pool = set.location_pool();
            let new_count = CountingMetric::new(&fm);
            let old_count = CountingMetric::new(&fm);
            let new = lower_bound_metric(&set, 2, &pool, &new_count);
            let old = seed_lower_bound_metric(&set, 2, &pool, &old_count);
            assert_eq!(new.to_bits(), old.to_bits(), "seed {seed}");

            // One shared sweep instead of two; the Gonzalez share on the
            // representatives is the same on both.
            let sweep = set.total_locations() as u64 * pool.len() as u64;
            let gonzalez_share = new_count.count() - sweep;

            let sol = Problem::in_metric(set.clone(), 2, fm.clone(), pool.clone())
                .unwrap()
                .solve(
                    &SolverConfig::builder()
                        .rule(AssignmentRule::OneCenter)
                        .build()
                        .unwrap(),
                )
                .unwrap();
            assert_eq!(
                sol.report.lower_bound.map(f64::to_bits),
                Some(new.to_bits())
            );
            let evals = sol.report.distance_evals.lower_bound;
            assert_eq!(evals, new_count.count(), "seed {seed}");
            assert_eq!(
                old_count.count() - gonzalez_share,
                2 * (evals - gonzalez_share),
                "seed {seed}: the sweep share halves"
            );
        }
    }

    #[test]
    fn certain_half_dominating_costs_one_pass_and_keeps_the_seed_bits() {
        // Well-separated clusters with small spread: every f(P̄ᵢ) sits
        // below the certain half, so no point is refined.
        for seed in 0..4u64 {
            let set = clustered(seed, 60, 4, 3, 8, 40.0, 0.5, ProbModel::Random);
            let (lb, evals) = counted_bound(&set, 4);
            assert_eq!(evals, set.total_locations() as u64, "seed {seed}");
            let old = seed_lower_bound_euclidean(&set, 4);
            assert_eq!(lb.to_bits(), old.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn per_point_half_stays_within_1e11_of_the_seed() {
        // k = n zeroes the certain half, so the per-point half decides.
        for seed in 0..8u64 {
            let set = uniform_box(seed, 12, 4, 3, 30.0, 6.0, ProbModel::Random);
            let (lb, evals) = counted_bound(&set, 12);
            let old = seed_lower_bound_euclidean(&set, 12);
            assert!(lb <= old, "seed {seed}: {lb} above the attained {old}");
            assert!(lb >= old * (1.0 - 1e-11), "seed {seed}: {lb} vs {old}");
            assert!(evals > set.total_locations() as u64, "seed {seed}");
        }
    }

    #[test]
    fn dominant_weight_is_certified_at_its_location() {
        use ukc_uncertain::UncertainPoint;
        let locs = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![10.0, 0.0]),
            Point::new(vec![0.0, 10.0]),
        ];
        let up = UncertainPoint::new(locs, vec![0.7, 0.2, 0.1]).unwrap();
        let set = UncertainSet::new(vec![up]);
        let (lb, evals) = counted_bound(&set, 1);
        // min f = f(u₀) = 0.2·10 + 0.1·10 = 3.
        assert!((3.0 * (1.0 - 1e-12)..=3.0).contains(&lb), "lb {lb}");
        assert!(evals <= 4 * 3, "the exact probe should settle it: {evals}");
    }

    /// A support with `z` locations in `d` dimensions from raw draws;
    /// `dup` copies location 0 over location 1, `dominant` gives location
    /// 0 most of the mass.
    fn support_case(
        z: usize,
        d: usize,
        coords: &[f64],
        weights: &[f64],
        dup: bool,
        dominant: bool,
    ) -> ukc_uncertain::UncertainPoint<Point> {
        let mut locs: Vec<Point> = (0..z)
            .map(|j| Point::new(coords[j * d..(j + 1) * d].to_vec()))
            .collect();
        if dup && z > 1 {
            locs[1] = locs[0].clone();
        }
        let mut w = weights[..z].to_vec();
        if dominant {
            w[0] *= 20.0;
        }
        let total: f64 = w.iter().sum();
        let probs = w.iter().map(|x| x / total).collect();
        ukc_uncertain::UncertainPoint::new(locs, probs).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Every certificate a refinement produces lies below the value a
        /// long Weiszfeld run attains, and the last one is tight.
        #[test]
        fn certificate_is_valid_at_every_iterate(
            (z, d) in (1usize..=6, 1usize..=4),
            coords in proptest::collection::vec(-50.0f64..50.0, 24),
            weights in proptest::collection::vec(0.05f64..1.0, 6),
            (dup, dominant) in (0u8..3, 0u8..3),
        ) {
            use ukc_geometry::median::{geometric_median, WeiszfeldOptions};
            let up = support_case(z, d, &coords, &weights, dup == 0, dominant == 0);
            let center = expected_point(&up);
            let flat: Vec<f64> = up.locations().iter().flat_map(|p| p.coords().to_vec()).collect();
            let s = Support { locs: &flat, probs: up.probs(), center: center.coords() };
            let mut certificates = Vec::new();
            let (lower, _) = Refiner::default().refine(
                &s,
                s.value(s.center),
                f64::NEG_INFINITY,
                |l| certificates.push(l),
            );
            let med = geometric_median(up.locations(), up.probs(), WeiszfeldOptions::default())
                .unwrap();
            let long_run = s.value(med.coords());
            for (i, &l) in certificates.iter().enumerate() {
                proptest::prop_assert!(l <= long_run, "iterate {i}: {l} > {long_run}");
            }
            // Tight against the best of the long run and the support
            // locations (a long run stops short of a minimizer that sits
            // on a location).
            let best = (0..z).map(|j| s.value(s.loc(j))).fold(long_run, f64::min);
            proptest::prop_assert!(lower >= best * (1.0 - 1e-11) - 1e-300, "{lower} vs {best}");
        }
    }
}
