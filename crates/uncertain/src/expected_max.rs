//! Exact expectation of the maximum of independent discrete variables.
//!
//! Given independent random variables `X₁..X_n`, each a finite list of
//! `(value, probability)` atoms, the paper's expected costs are
//! `E[max_i X_i]`. Enumerating the product space is exponential, but the
//! CDF of the max factorizes: `Pr[max ≤ v] = Π_i F_i(v)`, which changes
//! only at the atom values:
//!
//! ```text
//! E[max] = Σ_t v_t · (G(v_t) − G(v_{t−1})),   G(v) = Π_i F_i(v).
//! ```
//!
//! `G` is exactly 0 below `v₀ = max_i min_j v_ij` (the largest of the
//! per-variable minima), so only the *tail* of atoms at or above `v₀`
//! contributes. The fold takes two linear passes over the `N` atoms —
//! validate and find `v₀`, then add every atom below `v₀` straight into
//! its variable's CDF — and sorts and sweeps only the `m` tail atoms:
//! `O(N + m log m)`. On k-center costs `v₀` is the largest distance some
//! point is sure to reach, and nearly every location lies below it: `m`
//! is 0.1–2% of `N` on clustered instances.
//!
//! The running product is maintained in log space with a zero-factor
//! counter (a variable with no atom below `v₀` has CDF 0 there, so the
//! product is structurally 0 until the sweep reaches each variable's
//! first atom); log space both avoids underflow for large `n` and keeps
//! the update drift additive. The log-sum is built once at `v₀` and
//! rebuilt from scratch every 4096 tail updates. [`expected_max`] states
//! the resulting error bound.

/// What is wrong with an atom list handed to [`try_expected_max`] /
/// [`try_max_cdf`] / [`try_max_quantile`].
///
/// The panicking entry points ([`expected_max`] and friends) raise exactly
/// these conditions as messages; callers reachable from untrusted input
/// (extension entry points, servers) should prefer the `try_` variants and
/// dispatch on the variant instead of the panic string.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AtomsError {
    /// The variable list is empty.
    NoVariables,
    /// A variable has no atoms.
    EmptyVariable {
        /// Index of the offending variable.
        index: usize,
    },
    /// An atom value is NaN or infinite.
    NonFiniteValue {
        /// Index of the offending variable.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// An atom probability is negative or non-finite.
    BadProbability {
        /// Index of the offending variable.
        index: usize,
        /// The offending probability.
        value: f64,
    },
    /// A variable's probabilities do not sum to 1 within `1e-6`.
    BadSum {
        /// Index of the offending variable.
        index: usize,
        /// The actual sum.
        sum: f64,
    },
    /// The requested quantile is outside `(0, 1]`.
    BadQuantile {
        /// The rejected quantile.
        q: f64,
    },
}

impl std::fmt::Display for AtomsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtomsError::NoVariables => write!(f, "requires at least one variable"),
            AtomsError::EmptyVariable { index } => write!(f, "variable {index} has no atoms"),
            AtomsError::NonFiniteValue { index, value } => {
                write!(f, "variable {index} has non-finite value {value}")
            }
            AtomsError::BadProbability { index, value } => {
                write!(f, "variable {index} has bad probability {value}")
            }
            AtomsError::BadSum { index, sum } => {
                write!(f, "variable {index} probabilities sum to {sum}")
            }
            AtomsError::BadQuantile { q } => {
                write!(f, "quantile must be in (0, 1], got {q}")
            }
        }
    }
}

impl std::error::Error for AtomsError {}

/// Validates one variable's atom list, returning its smallest
/// positive-probability value.
fn validate_var(index: usize, var: &[(f64, f64)]) -> Result<f64, AtomsError> {
    validate_atoms(index, var.iter().copied())
}

/// [`validate_var`] over any atom iterator.
fn validate_atoms(
    index: usize,
    atoms: impl Iterator<Item = (f64, f64)>,
) -> Result<f64, AtomsError> {
    let mut atoms = atoms.peekable();
    if atoms.peek().is_none() {
        return Err(AtomsError::EmptyVariable { index });
    }
    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    for (v, p) in atoms {
        if !v.is_finite() {
            return Err(AtomsError::NonFiniteValue { index, value: v });
        }
        if !(p >= 0.0 && p.is_finite()) {
            return Err(AtomsError::BadProbability { index, value: p });
        }
        sum += p;
        if p > 0.0 && v < min {
            min = v;
        }
    }
    if (sum - 1.0).abs() > 1e-6 {
        return Err(AtomsError::BadSum { index, sum });
    }
    // A sum near 1 has a positive term, so `min` is finite.
    Ok(min)
}

/// Exact `E[max_i X_i]` for independent discrete `X_i`.
///
/// `vars[i]` lists the atoms `(value, prob)` of `X_i`; each variable's
/// probabilities must sum to 1 within `1e-6` (checked). Values may repeat
/// and need not be sorted. Atoms with probability 0 are ignored.
///
/// ```
/// use ukc_uncertain::expected_max;
/// // Two fair coins taking values {0, 1}: E[max] = 3/4.
/// let coin = vec![(0.0, 0.5), (1.0, 0.5)];
/// let e = expected_max(&[coin.clone(), coin]);
/// assert!((e - 0.75).abs() < 1e-12);
/// ```
///
/// # Accuracy
///
/// Let `ε = f64::EPSILON`, `n` the number of variables, `z` the most atoms
/// any variable has, `m` the number of positive-probability atoms at or
/// above `v₀` (the tail the sweep updates), `V` the largest `|v|` among
/// them, `r = ⌊m / 4096⌋` the number of periodic rebuilds, and
/// `Λ = −Σᵢ ln cᵢ`, where `cᵢ` is variable `i`'s probability below `v₀`,
/// or at or below `v₀` when it has none below. For probabilities that
/// each sum to 1, with `ln` and `exp` accurate to 1 ulp and monotone (as
/// glibc's are), the result `Ê` and the exact `E` satisfy
///
/// ```text
/// |Ê − E| ≤ V·((3 + 2r)·η + (m + 2)·ε),  η = exp(Δ + 2ε) − 1,
///                                        Δ = ε·((n + 3m)·Λ + n·z).
/// ```
///
/// Derivation, to first order in `ε`. Each CDF is a running sum of at
/// most `z` positive terms, so its logarithm is off by at most
/// `(z − 1)·ε/2`; over `n` variables that is the `ε·n·z` term. Every
/// logarithm the fold takes is of a CDF
/// of at least `cᵢ`, so it is at most `λᵢ = −ln cᵢ ≤ Λ` in magnitude: the
/// `n`-term log-sum built at `v₀` (and at each rebuild) is off by at most
/// `ε·n·Λ`, and each of the at most `m` tail updates since then (two
/// `ln`, a subtraction, an addition to a sum of magnitude at most `Λ`) by
/// at most `3ε·Λ`. So the log of `G` is within `Δ`, and after `exp` and
/// the clamp at 1 every `G(v_t)` is within `η` of the exact `G ≤ 1`.
/// Summing by parts, `Σ v_t·ΔG_t = v_T·G_T − Σ (v_{t+1} − v_t)·G_t`, so
/// errors of at most `η` in each `G_t` move the sum by at most `3V·η`.
/// Between rebuilds the log-sum never decreases, so a computed `G` can
/// only step down at one of the `r` rebuilds; each skipped (negative)
/// step is at most `2η` and moves the sum by at most `2V·η`. Rounding the
/// at most `m` differences, products and running sum adds `(m + 2)·ε·V`.
///
/// On k-center costs nearly every point lies wholly below `v₀`, so its
/// `cᵢ` is 1 and only the few points with atoms in the tail add to `Λ`:
/// at n = 2500, z = 4 the bound is under `10⁻⁹·E`, and the measured
/// error is around `10⁻¹⁴·E`. When most atoms are in the tail, `Λ` grows
/// like `n·ln z` and the bound loosens accordingly (to about `10⁻⁷·E` at
/// n·z = 10⁴).
///
/// # Panics
/// Panics when `vars` is empty, some variable has no atoms, a value is
/// non-finite, a probability is negative, or probabilities do not sum to 1
/// — see [`try_expected_max`] for the non-panicking form.
pub fn expected_max(vars: &[Vec<(f64, f64)>]) -> f64 {
    try_expected_max(vars).unwrap_or_else(|e| panic!("expected_max {e}"))
}

/// [`expected_max`] with malformed atom lists reported as a typed
/// [`AtomsError`] instead of a panic.
pub fn try_expected_max(vars: &[Vec<(f64, f64)>]) -> Result<f64, AtomsError> {
    try_expected_max_of(vars.iter().map(|var| var.iter().copied()))
}

/// [`expected_max`] of variables given as parallel value and probability
/// slices — `(values, probs)` per variable — so callers holding values in
/// one flat buffer build no per-variable atom lists. Bit-identical to
/// [`expected_max`] over the zipped pairs.
///
/// # Panics
/// Panics on invalid inputs, as [`expected_max`].
pub fn expected_max_split<'a>(vars: impl ExactSizeIterator<Item = (&'a [f64], &'a [f64])>) -> f64 {
    try_expected_max_of(
        vars.map(|(values, probs)| values.iter().copied().zip(probs.iter().copied())),
    )
    .unwrap_or_else(|e| panic!("expected_max {e}"))
}

/// The `E[max]` fold over variables given as atom iterators, each walked
/// twice: validated (finding `v₀`), then split at `v₀` into its CDF
/// below `v₀` and the tail.
fn try_expected_max_of<V: Iterator<Item = (f64, f64)> + Clone>(
    vars: impl ExactSizeIterator<Item = V>,
) -> Result<f64, AtomsError> {
    let n = vars.len();
    if n == 0 {
        return Err(AtomsError::NoVariables);
    }
    let vars: Vec<V> = vars.collect();
    let mut v0 = f64::NEG_INFINITY;
    for (i, var) in vars.iter().enumerate() {
        v0 = v0.max(validate_atoms(i, var.clone())?);
    }

    // G is 0 below v₀, so an atom there only grows its variable's CDF;
    // only the tail at or above v₀ is sorted and swept.
    let mut cdf = vec![0.0f64; n];
    let mut tail: Vec<(f64, usize, f64)> = Vec::new();
    for (i, var) in vars.into_iter().enumerate() {
        for (v, p) in var {
            if p > 0.0 {
                if v < v0 {
                    cdf[i] += p;
                } else {
                    tail.push((v, i, p));
                }
            }
        }
    }
    tail.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("validated finite values"));

    // The product Π Fᵢ(v) underflows f64 for large n (e.g. 1000 factors
    // of 0.1), so it is maintained in log space: log_product = Σ ln cᵢ
    // over the non-zero CDFs, plus a count of the variables whose CDF is
    // still exactly zero (those with no atom below v₀; the first tail
    // group, at v₀, clears the last of them). The additive log updates
    // drift slowly; a periodic rebuild cancels it.
    let log_sum = |cdf: &[f64]| -> f64 { cdf.iter().filter(|&&c| c > 0.0).map(|c| c.ln()).sum() };
    let mut zeros = cdf.iter().filter(|&&c| c == 0.0).count();
    let mut log_product = log_sum(&cdf);
    let mut prev_g = 0.0f64;
    let mut expectation = 0.0f64;
    let mut updates_since_rebuild = 0usize;

    let mut t = 0;
    while t < tail.len() {
        let v = tail[t].0;
        // Apply every atom with this exact value (ties must be grouped so
        // G jumps once per distinct value).
        while t < tail.len() && tail[t].0 == v {
            let (_, i, p) = tail[t];
            let old = cdf[i];
            let new = old + p;
            if old == 0.0 {
                zeros -= 1;
                log_product += new.ln();
            } else {
                log_product += new.ln() - old.ln();
            }
            cdf[i] = new;
            updates_since_rebuild += 1;
            t += 1;
        }
        if updates_since_rebuild >= 4096 {
            // Rebuild the log-sum to cancel additive drift.
            log_product = log_sum(&cdf);
            updates_since_rebuild = 0;
        }
        let g = if zeros == 0 {
            log_product.exp().min(1.0)
        } else {
            0.0
        };
        let delta = g - prev_g;
        if delta > 0.0 {
            expectation += v * delta;
        }
        prev_g = g;
    }
    debug_assert!(zeros == 0, "every variable must reach total probability 1");
    Ok(expectation)
}

/// Exact `Pr[max_i X_i ≤ t]` for independent discrete `X_i`: the product
/// of the per-variable CDFs at `t`.
///
/// Input conventions as in [`expected_max`]. Computed in log space, so it
/// stays meaningful for thousands of variables.
///
/// # Panics
/// Panics on invalid inputs, as [`expected_max`] — see [`try_max_cdf`]
/// for the non-panicking form.
pub fn max_cdf(vars: &[Vec<(f64, f64)>], t: f64) -> f64 {
    try_max_cdf(vars, t).unwrap_or_else(|e| panic!("max_cdf {e}"))
}

/// [`max_cdf`] with malformed atom lists reported as a typed
/// [`AtomsError`] instead of a panic.
pub fn try_max_cdf(vars: &[Vec<(f64, f64)>], t: f64) -> Result<f64, AtomsError> {
    if vars.is_empty() {
        return Err(AtomsError::NoVariables);
    }
    let mut log_sum = 0.0f64;
    for (i, var) in vars.iter().enumerate() {
        validate_var(i, var)?;
        let cdf: f64 = var.iter().filter(|(v, _)| *v <= t).map(|(_, p)| p).sum();
        if cdf <= 0.0 {
            return Ok(0.0);
        }
        log_sum += cdf.min(1.0).ln();
    }
    Ok(log_sum.exp().min(1.0))
}

/// Exact `q`-quantile of `max_i X_i`: the smallest atom value `t` with
/// `Pr[max ≤ t] ≥ q`. This is the *value-at-risk* of the k-center cost —
/// "with probability ≥ q, no point exceeds distance `t`" — a robustness
/// summary the expectation alone cannot give.
///
/// Returns the largest atom value when `q = 1` (the worst case is always
/// one of the atoms).
///
/// # Panics
/// Panics when `q ∉ (0, 1]` or inputs are invalid per [`expected_max`] —
/// see [`try_max_quantile`] for the non-panicking form.
pub fn max_quantile(vars: &[Vec<(f64, f64)>], q: f64) -> f64 {
    try_max_quantile(vars, q).unwrap_or_else(|e| panic!("max_quantile {e}"))
}

/// [`max_quantile`] with bad quantiles and malformed atom lists reported
/// as a typed [`AtomsError`] instead of a panic.
pub fn try_max_quantile(vars: &[Vec<(f64, f64)>], q: f64) -> Result<f64, AtomsError> {
    if !(q > 0.0 && q <= 1.0) {
        return Err(AtomsError::BadQuantile { q });
    }
    if vars.is_empty() {
        return Err(AtomsError::NoVariables);
    }
    let mut v0 = f64::NEG_INFINITY;
    for (i, var) in vars.iter().enumerate() {
        v0 = v0.max(validate_var(i, var)?);
    }
    // Below v₀ some variable's CDF is 0, so Pr[max ≤ t] = 0 < q: only the
    // values at or above v₀ can be the answer.
    let mut values: Vec<f64> = vars
        .iter()
        .flat_map(|var| {
            var.iter()
                .filter(|&&(v, p)| p > 0.0 && v >= v0)
                .map(|&(v, _)| v)
        })
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("validated finite values"));
    values.dedup();
    // Pr[max <= t] is a step function jumping only at atom values; binary
    // search the smallest value reaching q. Validation already ran, so the
    // inner CDF evaluations cannot fail.
    let cdf_at = |t: f64| try_max_cdf(vars, t).expect("inputs validated above");
    let mut lo = 0usize;
    let mut hi = values.len() - 1;
    if cdf_at(values[hi]) < q {
        // Only possible through rounding; the top value has CDF 1.
        return Ok(values[hi]);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cdf_at(values[mid]) >= q {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(values[hi])
}

/// Reference implementation by full product-space enumeration; exponential,
/// for tests only.
///
/// # Panics
/// Panics when the product space exceeds `10^7` realizations, or inputs are
/// invalid per [`expected_max`].
pub fn expected_max_enumerate(vars: &[Vec<(f64, f64)>]) -> f64 {
    assert!(!vars.is_empty(), "requires at least one variable");
    let count: u128 = vars
        .iter()
        .fold(1u128, |a, v| a.saturating_mul(v.len() as u128));
    assert!(count <= 10_000_000, "product space too large to enumerate");
    let mut idx = vec![0usize; vars.len()];
    let mut expectation = 0.0;
    loop {
        let mut prob = 1.0;
        let mut max = f64::NEG_INFINITY;
        for (i, var) in vars.iter().enumerate() {
            let (v, p) = var[idx[i]];
            prob *= p;
            max = max.max(v);
        }
        expectation += prob * max;
        // Odometer.
        let mut i = 0;
        loop {
            if i == vars.len() {
                return expectation;
            }
            idx[i] += 1;
            if idx[i] < vars[i].len() {
                break;
            }
            idx[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_variable_is_plain_expectation() {
        let vars = vec![vec![(1.0, 0.25), (3.0, 0.75)]];
        assert!((expected_max(&vars) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_variables() {
        let vars = vec![vec![(2.0, 1.0)], vec![(5.0, 1.0)], vec![(3.0, 1.0)]];
        assert!((expected_max(&vars) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn two_coin_flips() {
        // X, Y each uniform on {0, 1}: E[max] = 3/4.
        let vars = vec![vec![(0.0, 0.5), (1.0, 0.5)], vec![(0.0, 0.5), (1.0, 0.5)]];
        assert!((expected_max(&vars) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn matches_enumeration_on_random_instances() {
        let mut s: u64 = 0xDEADBEEF;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..50 {
            let n = 1 + trial % 5;
            let vars: Vec<Vec<(f64, f64)>> = (0..n)
                .map(|_| {
                    let z = 1 + (rnd() * 4.0) as usize;
                    let mut ps: Vec<f64> = (0..z).map(|_| rnd() + 0.01).collect();
                    let total: f64 = ps.iter().sum();
                    for p in &mut ps {
                        *p /= total;
                    }
                    ps.iter().map(|&p| (rnd() * 100.0 - 50.0, p)).collect()
                })
                .collect();
            let fast = expected_max(&vars);
            let slow = expected_max_enumerate(&vars);
            assert!(
                (fast - slow).abs() < 1e-9,
                "trial {trial}: fast {fast} slow {slow}"
            );
        }
    }

    #[test]
    fn ties_across_variables() {
        // Both variables can take the same value; grouping must be exact.
        let vars = vec![vec![(1.0, 0.5), (2.0, 0.5)], vec![(1.0, 0.5), (2.0, 0.5)]];
        // E[max] = 2 * (1 - 1/4) + 1 * 1/4 = 1.75.
        assert!((expected_max(&vars) - 1.75).abs() < 1e-12);
        assert!((expected_max_enumerate(&vars) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn zero_probability_atoms_ignored() {
        let vars = vec![vec![(100.0, 0.0), (1.0, 1.0)]];
        assert!((expected_max(&vars) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_values_supported() {
        let vars = vec![vec![(-5.0, 0.5), (-1.0, 0.5)], vec![(-3.0, 1.0)]];
        // max is -1 w.p. 0.5, -3 w.p. 0.5.
        assert!((expected_max(&vars) - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_stochastic_dominance() {
        // Shifting one variable up cannot decrease E[max].
        let base = vec![vec![(0.0, 0.5), (2.0, 0.5)], vec![(1.0, 1.0)]];
        let shifted = vec![vec![(0.5, 0.5), (2.5, 0.5)], vec![(1.0, 1.0)]];
        assert!(expected_max(&shifted) >= expected_max(&base) - 1e-12);
    }

    #[test]
    fn expectation_bounds() {
        // max_i E[X_i] <= E[max] <= sum of positive parts bound: just check
        // the lower bound on a random instance.
        let vars = vec![vec![(0.0, 0.3), (10.0, 0.7)], vec![(5.0, 0.5), (6.0, 0.5)]];
        let e = expected_max(&vars);
        let max_mean = f64::max(0.0 * 0.3 + 10.0 * 0.7, 5.0 * 0.5 + 6.0 * 0.5);
        assert!(e >= max_mean - 1e-12);
        assert!(e <= 10.0 + 1e-12);
    }

    #[test]
    fn large_instance_is_stable() {
        // 1000 variables, 8 atoms each; compare against a coarse Monte-Carlo
        // style bound: E[max] must lie within [max mean, max value].
        let mut s: u64 = 7;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let vars: Vec<Vec<(f64, f64)>> = (0..1000)
            .map(|_| {
                let z = 8;
                let ps: Vec<f64> = (0..z).map(|_| rnd() + 0.01).collect();
                let total: f64 = ps.iter().sum();
                ps.iter().map(|&p| (rnd(), p / total)).collect()
            })
            .collect();
        let e = expected_max(&vars);
        assert!(
            e > 0.9,
            "with 8000 uniform atoms the max should be near 1, got {e}"
        );
        assert!(e <= 1.0 + 1e-9);
    }

    /// Asserts `expected_max(vars)` is within `1e-12` of `want` and of
    /// the enumeration reference.
    fn assert_fold(vars: &[Vec<(f64, f64)>], want: f64) {
        let got = expected_max(vars);
        assert!((got - want).abs() < 1e-12, "fold {got}, want {want}");
        let slow = expected_max_enumerate(vars);
        assert!((got - slow).abs() < 1e-12, "fold {got}, enumerated {slow}");
    }

    #[test]
    fn ties_at_v0_across_variables() {
        // Minima 1, 2, 2: v₀ = 2, the first atom of the last two
        // variables; the first variable's 1 lies below it.
        let vars = vec![
            vec![(1.0, 0.5), (3.0, 0.5)],
            vec![(2.0, 0.5), (3.0, 0.5)],
            vec![(4.0, 0.75), (2.0, 0.25)],
        ];
        // G(2) = 1/16, G(3) = 1/4, G(4) = 1.
        assert_fold(&vars, 2.0 / 16.0 + 3.0 * 3.0 / 16.0 + 4.0 * 0.75);
    }

    #[test]
    fn zero_probability_atoms_below_at_and_above_v0() {
        let with_zeros = vec![
            vec![(0.5, 0.0), (1.0, 0.5), (2.0, 0.0), (3.0, 0.5), (9.0, 0.0)],
            // The zero-probability -7 must not become this variable's
            // minimum: v₀ stays 2.
            vec![(-7.0, 0.0), (2.0, 1.0), (5.0, 0.0)],
        ];
        assert_fold(&with_zeros, 2.5);
        let stripped = vec![vec![(1.0, 0.5), (3.0, 0.5)], vec![(2.0, 1.0)]];
        assert_eq!(
            expected_max(&with_zeros).to_bits(),
            expected_max(&stripped).to_bits()
        );
    }

    #[test]
    fn all_certain_input_is_the_exact_maximum() {
        let vars = vec![vec![(2.0, 1.0)], vec![(5.0, 1.0)], vec![(3.0, 1.0)]];
        assert_eq!(expected_max(&vars), 5.0);
        let tied = vec![vec![(5.0, 1.0)], vec![(5.0, 1.0)], vec![(-1.0, 1.0)]];
        assert_eq!(expected_max(&tied), 5.0);
    }

    #[test]
    fn all_negative_values() {
        let vars = vec![
            vec![(-9.0, 0.25), (-2.0, 0.75)],
            vec![(-4.0, 0.5), (-3.0, 0.5)],
        ];
        // v₀ = -4: max is -2 w.p. 3/4, else -4 or -3 w.p. 1/8 each.
        assert_fold(&vars, -2.0 * 0.75 - 4.0 * 0.125 - 3.0 * 0.125);
    }

    #[test]
    fn single_variable_with_repeated_unsorted_values() {
        // v₀ is the variable's own minimum, so every atom is the tail.
        let vars = vec![vec![(3.0, 0.25), (1.0, 0.25), (3.0, 0.25), (2.0, 0.25)]];
        assert_fold(&vars, 2.25);
    }

    #[test]
    fn signed_zeros_at_v0() {
        let a = vec![vec![(-0.0, 0.5), (1.0, 0.5)], vec![(0.0, 1.0)]];
        let b = vec![vec![(0.0, 0.5), (1.0, 0.5)], vec![(-0.0, 1.0)]];
        assert_eq!(expected_max(&a), 0.5);
        assert_eq!(expected_max(&b), 0.5);
        let zeros = vec![vec![(-0.0, 1.0)], vec![(0.0, 1.0)]];
        assert_eq!(expected_max(&zeros).to_bits(), 0.0f64.to_bits());
    }

    /// The smallest distinct positive-probability value whose CDF reaches
    /// `q`, by a linear scan over every value (the largest when none does).
    fn quantile_by_scan(vars: &[Vec<(f64, f64)>], q: f64) -> f64 {
        let mut values: Vec<f64> = vars
            .iter()
            .flatten()
            .filter(|a| a.1 > 0.0)
            .map(|a| a.0)
            .collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        values.dedup();
        let last = *values.last().unwrap();
        values
            .into_iter()
            .find(|&t| max_cdf(vars, t) >= q)
            .unwrap_or(last)
    }

    #[test]
    fn quantile_search_from_v0_matches_a_full_linear_scan() {
        let mut s: u64 = 0xC0FFEE;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..60 {
            let n = 1 + trial % 9;
            let vars: Vec<Vec<(f64, f64)>> = (0..n)
                .map(|_| {
                    let z = 1 + (rnd() * 5.0) as usize;
                    let ps: Vec<f64> = (0..z).map(|_| rnd() + 0.01).collect();
                    let total: f64 = ps.iter().sum();
                    // A coarse grid, so values tie within and across
                    // variables.
                    ps.iter()
                        .map(|&p| ((rnd() * 12.0).floor() - 4.0, p / total))
                        .collect()
                })
                .collect();
            let at_v0 = {
                let v0 = vars
                    .iter()
                    .map(|v| v.iter().map(|a| a.0).fold(f64::INFINITY, f64::min))
                    .fold(f64::NEG_INFINITY, f64::max);
                max_cdf(&vars, v0)
            };
            let qs = [
                f64::MIN_POSITIVE,
                1e-300,
                1e-9,
                at_v0,
                at_v0.next_up().min(1.0),
                0.25,
                0.5,
                0.9,
                rnd().max(1e-3),
                1.0,
            ];
            for q in qs {
                assert_eq!(
                    max_quantile(&vars, q).to_bits(),
                    quantile_by_scan(&vars, q).to_bits(),
                    "trial {trial}, q {q}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn bad_distribution_panics() {
        let _ = expected_max(&[vec![(1.0, 0.5)]]);
    }

    #[test]
    #[should_panic(expected = "no atoms")]
    fn empty_variable_panics() {
        let _ = expected_max(&[vec![]]);
    }
}
