//! The `E[max]` fold against its stated error bound.
//!
//! The reference below takes no logarithm: it sweeps every atom in sorted
//! order and keeps each CDF and the product `G = Π Fᵢ` in double-double
//! arithmetic (about 106 bits), the product with an explicit binary
//! exponent so it cannot underflow. Its own error is some 2⁻¹⁰⁰ relative,
//! far below the bound documented at [`expected_max`], which every input
//! here must meet:
//!
//! ```text
//! |Ê − E| ≤ V·((3 + 2r)·η + (m + 2)·ε),  η = exp(Δ + 2ε) − 1,
//!                                        Δ = ε·((n + 3m)·Λ + n·z).
//! ```
//!
//! Two input shapes: k-center costs (each location's distance to its
//! point's expected-point-nearest Gonzalez center, where 0.1–2% of the
//! atoms reach `v₀`) and random atoms (where three quarters of the input
//! is the tail, and `Λ` is in the thousands). The `#[ignore]`d n·z = 10⁵ case also crosses the 4096-update
//! rebuild many times; run it in release with
//! `cargo test --release -p ukc-uncertain --test fold_error_bound -- --ignored`.

use ukc_metric::Point;
use ukc_uncertain::generators::{clustered, ProbModel};
use ukc_uncertain::{expected_max, expected_point};

/// A double-double number `hi + lo`, `|lo| ≤ ulp(hi) / 2`.
#[derive(Clone, Copy, Debug)]
struct Dd {
    hi: f64,
    lo: f64,
}

impl Dd {
    const ZERO: Dd = Dd { hi: 0.0, lo: 0.0 };
    const ONE: Dd = Dd { hi: 1.0, lo: 0.0 };

    fn new(x: f64) -> Dd {
        Dd { hi: x, lo: 0.0 }
    }

    fn renorm(hi: f64, lo: f64) -> Dd {
        let s = hi + lo;
        Dd {
            hi: s,
            lo: lo - (s - hi),
        }
    }

    fn add(self, o: Dd) -> Dd {
        let s = self.hi + o.hi;
        let b = s - self.hi;
        let e = (self.hi - (s - b)) + (o.hi - b);
        Dd::renorm(s, e + self.lo + o.lo)
    }

    fn neg(self) -> Dd {
        Dd {
            hi: -self.hi,
            lo: -self.lo,
        }
    }

    fn mul(self, o: Dd) -> Dd {
        let p = self.hi * o.hi;
        let e = self.hi.mul_add(o.hi, -p);
        Dd::renorm(p, e + self.hi * o.lo + self.lo * o.hi)
    }

    fn div(self, o: Dd) -> Dd {
        let q1 = self.hi / o.hi;
        let r = self.add(o.mul(Dd::new(q1)).neg());
        let q2 = r.hi / o.hi;
        let r = r.add(o.mul(Dd::new(q2)).neg());
        let q3 = r.hi / o.hi;
        Dd::renorm(q1, q2).add(Dd::new(q3))
    }

    fn scale(self, k: i32) -> Dd {
        let f = pow2(k);
        Dd {
            hi: self.hi * f,
            lo: self.lo * f,
        }
    }

    fn value(self) -> f64 {
        self.hi + self.lo
    }
}

/// `2^k` for `k` in the normal exponent range.
fn pow2(k: i32) -> f64 {
    assert!((-1022..=1023).contains(&k));
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// `m · 2^e`, with `m` kept near 1 so long products never underflow.
#[derive(Clone, Copy)]
struct Scaled {
    m: Dd,
    e: i32,
}

impl Scaled {
    fn normalize(mut self) -> Scaled {
        let k = ((self.m.hi.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        if k.abs() > 100 {
            self.m = self.m.scale(-k);
            self.e += k;
        }
        self
    }

    fn mul(self, f: Dd) -> Scaled {
        Scaled {
            m: self.m.mul(f),
            e: self.e,
        }
        .normalize()
    }

    fn div(self, f: Dd) -> Scaled {
        Scaled {
            m: self.m.div(f),
            e: self.e,
        }
        .normalize()
    }

    /// The value as a double-double, clamped at 1; 0 once it is far
    /// below anything that can move an f64 sum of values near 1.
    fn clamped(self) -> Dd {
        if self.e < -1000 {
            return Dd::ZERO;
        }
        let g = self.m.scale(self.e.min(1000));
        if g.hi > 1.0 || (g.hi == 1.0 && g.lo > 0.0) {
            Dd::ONE
        } else {
            g
        }
    }
}

/// `E[max]` by a sorted sweep over every atom with double-double CDFs and
/// a scaled double-double product — no logarithm anywhere.
fn reference(vars: &[Vec<(f64, f64)>]) -> f64 {
    let mut atoms: Vec<(f64, usize, f64)> = Vec::new();
    for (i, var) in vars.iter().enumerate() {
        atoms.extend(var.iter().filter(|a| a.1 > 0.0).map(|&(v, p)| (v, i, p)));
    }
    atoms.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut cdf = vec![Dd::ZERO; vars.len()];
    let mut zeros = vars.len();
    let mut product = Scaled { m: Dd::ONE, e: 0 };
    let mut prev = Dd::ZERO;
    let mut expectation = Dd::ZERO;
    let mut t = 0;
    while t < atoms.len() {
        let v = atoms[t].0;
        while t < atoms.len() && atoms[t].0 == v {
            let (_, i, p) = atoms[t];
            let old = cdf[i];
            let new = old.add(Dd::new(p));
            product = if old.hi == 0.0 {
                zeros -= 1;
                product.mul(new)
            } else {
                product.mul(new).div(old)
            };
            cdf[i] = new;
            t += 1;
        }
        let g = if zeros == 0 {
            product.clamped()
        } else {
            Dd::ZERO
        };
        expectation = expectation.add(Dd::new(v).mul(g.add(prev.neg())));
        prev = g;
    }
    expectation.value()
}

/// The documented bound for `vars`, and the tail size `m`.
fn bound(vars: &[Vec<(f64, f64)>]) -> (f64, usize) {
    let eps = f64::EPSILON;
    let positive = |var: &Vec<(f64, f64)>| -> Vec<(f64, f64)> {
        var.iter().copied().filter(|a| a.1 > 0.0).collect()
    };
    let v0 = vars
        .iter()
        .map(|var| {
            positive(var)
                .iter()
                .map(|a| a.0)
                .fold(f64::INFINITY, f64::min)
        })
        .fold(f64::NEG_INFINITY, f64::max);
    let n = vars.len() as f64;
    let z = vars.iter().map(Vec::len).max().unwrap() as f64;
    let (mut m, mut big_v, mut lambda) = (0usize, 0.0f64, 0.0f64);
    for var in vars {
        let atoms = positive(var);
        let below: f64 = atoms.iter().filter(|a| a.0 < v0).map(|a| a.1).sum();
        let at: f64 = atoms.iter().filter(|a| a.0 <= v0).map(|a| a.1).sum();
        lambda -= if below > 0.0 { below } else { at }.ln();
        for &(v, _) in atoms.iter().filter(|a| a.0 >= v0) {
            m += 1;
            big_v = big_v.max(v.abs());
        }
    }
    let mf = m as f64;
    let r = (m / 4096) as f64;
    let delta = eps * ((n + 3.0 * mf) * lambda.max(0.0) + n * z);
    let eta = (delta + 2.0 * eps).exp_m1();
    (big_v * ((3.0 + 2.0 * r) * eta + (mf + 2.0) * eps), m)
}

/// k-center cost variables: `n` points of `z` locations in the shape of
/// the default solve (clustered, d = 8), `k` Gonzalez centers over the
/// expected points, each point assigned to its nearest center.
fn kcenter_vars(seed: u64, n: usize, z: usize, k: usize) -> Vec<Vec<(f64, f64)>> {
    let set = clustered(seed, n, z, 8, 32, 4.0, 1.0, ProbModel::Random);
    let reps: Vec<Point> = set.iter().map(expected_point).collect();
    let mut nearest = vec![(0usize, f64::INFINITY); n];
    let mut centers: Vec<usize> = vec![0];
    loop {
        let c = *centers.last().unwrap();
        for (j, rep) in reps.iter().enumerate() {
            let d = rep.dist(&reps[c]);
            if d < nearest[j].1 {
                nearest[j] = (centers.len() - 1, d);
            }
        }
        if centers.len() == k {
            break;
        }
        let far = (0..n).fold(0, |b, j| if nearest[j].1 > nearest[b].1 { j } else { b });
        centers.push(far);
    }
    set.iter()
        .zip(&nearest)
        .map(|(up, &(a, _))| {
            let center = &reps[centers[a]];
            up.support().map(|(loc, p)| (loc.dist(center), p)).collect()
        })
        .collect()
}

/// `n` variables of `z` atoms uniform in `[0, 100)`, except that each
/// variable's first atom lies in `[0, 1)`: `v₀` is below 1, so every
/// other atom is in the tail.
fn random_vars(seed: u64, n: usize, z: usize) -> Vec<Vec<(f64, f64)>> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let ps: Vec<f64> = (0..z).map(|_| rnd() + 1e-3).collect();
            let total: f64 = ps.iter().sum();
            let scale = |j: usize| if j == 0 { 1.0 } else { 100.0 };
            let atoms = ps.iter().enumerate();
            atoms.map(|(j, &p)| (rnd() * scale(j), p / total)).collect()
        })
        .collect()
}

/// Asserts the bound on `vars` and returns `(error, bound, m)`.
fn check(label: &str, vars: &[Vec<(f64, f64)>]) -> (f64, f64, usize) {
    let fast = expected_max(vars);
    let exact = reference(vars);
    let (limit, m) = bound(vars);
    let err = (fast - exact).abs();
    assert!(
        err <= limit,
        "{label}: |{fast} − {exact}| = {err:e} exceeds the bound {limit:e} (m = {m})"
    );
    (err, limit, m)
}

#[test]
fn kcenter_costs_meet_the_bound_with_a_small_tail() {
    for seed in 1..=4 {
        for k in [16, 40, 80, 143] {
            let vars = kcenter_vars(seed, 2500, 4, k);
            let (err, limit, m) = check(&format!("seed {seed} k {k}"), &vars);
            println!("seed {seed} k {k}: m = {m}, error {err:e}, bound {limit:e}");
            assert!(m * 20 < 2500 * 4, "seed {seed} k {k}: tail of {m} atoms");
            // The bound is not vacuous here: well under a part in 10⁹.
            let e = expected_max(&vars);
            assert!(
                limit < 1e-9 * e,
                "seed {seed} k {k}: bound {limit:e} of {e}"
            );
        }
    }
}

#[test]
fn random_atoms_meet_the_bound_when_most_atoms_are_the_tail() {
    for seed in 1..=3 {
        let vars = random_vars(seed, 2500, 4);
        let (err, limit, m) = check(&format!("seed {seed}"), &vars);
        println!("seed {seed}: m = {m}, error {err:e}, bound {limit:e}");
        assert!(m * 10 > 7 * 2500 * 4, "seed {seed}: tail of only {m} atoms");
    }
}

#[test]
fn mixed_signs_and_heavy_ties_meet_the_bound() {
    // Every variable's first atom lands on −12 = v₀ and the rest on a
    // grid up to 7: heavy ties, and a tail that straddles zero.
    let vars: Vec<Vec<(f64, f64)>> = random_vars(9, 1500, 6)
        .into_iter()
        .map(|var| {
            var.into_iter()
                .map(|(v, p)| ((v / 5.0).floor() - 12.0, p))
                .collect()
        })
        .collect();
    check("grid", &vars);
}

#[test]
#[ignore = "n·z = 10⁵; run in release (see the module docs)"]
fn hundred_thousand_atoms_meet_the_bound_across_rebuilds() {
    for seed in 1..=2 {
        let vars = kcenter_vars(seed, 25_000, 4, 143);
        let (err, limit, m) = check(&format!("k-center seed {seed}"), &vars);
        println!("k-center seed {seed}: m = {m}, error {err:e}, bound {limit:e}");
        let vars = random_vars(seed, 25_000, 4);
        let (err, limit, m) = check(&format!("random seed {seed}"), &vars);
        assert!(m > 4 * 4096, "several rebuilds: m = {m}");
        println!("random seed {seed}: m = {m}, error {err:e}, bound {limit:e}");
    }
}
