//! Streaming k-center via the doubling algorithm.
//!
//! The doubling algorithm (Charikar–Chekuri–Feder–Motwani) maintains at
//! most `k` centers over a one-pass stream with an 8-approximation
//! guarantee: it keeps a lower-bound threshold `τ` such that (a) all kept
//! centers are pairwise `> τ` apart (so `opt ≥ τ/2` by pigeonhole once
//! there are k+1 such points... maintained invariantly), and (b) every
//! seen point is within `4τ` of a kept center. On overflow it doubles `τ`
//! and merges centers closer than the new `τ`.
//!
//! [`StreamingKCenter`] is the generic reference implementation over any
//! [`DistanceOracle`]. Uncertain streams run through
//! `ukc_stream::StreamSolver`, which feeds the O(z)-computable expected
//! points `P̄` into `ukc_stream::StreamSummary` — a coordinate-store
//! version of this summary pinned to it bit for bit at budget `k` — and
//! so extends the paper's replace-by-representative pipeline to streams
//! (the setting of reference \[25\]): the certain-solver factor `1+ε` in
//! Theorems 2.2/2.5 becomes the streaming factor 8.

use ukc_metric::DistanceOracle;

/// One-pass k-center summary with the doubling invariant.
#[derive(Clone, Debug)]
pub struct StreamingKCenter<P> {
    k: usize,
    /// Current merge threshold τ (0 until the first overflow).
    threshold: f64,
    centers: Vec<P>,
}

impl<P: Clone> StreamingKCenter<P> {
    /// Creates an empty summary for `k` centers.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        Self {
            k,
            threshold: 0.0,
            centers: Vec::with_capacity(k + 1),
        }
    }

    /// Current centers (at most `k` once at least one overflow occurred;
    /// may briefly hold `k` before any overflow).
    pub fn centers(&self) -> &[P] {
        &self.centers
    }

    /// The current threshold τ; `opt ≥ τ/2` is the certified lower bound
    /// the 8-approximation rests on.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Inserts a point, maintaining the doubling invariants.
    pub fn insert<M: DistanceOracle<P>>(&mut self, p: P, metric: &M) {
        // Covered points are dropped.
        if self
            .centers
            .iter()
            .any(|c| metric.dist(&p, c) <= 4.0 * self.threshold)
        {
            return;
        }
        self.centers.push(p);
        while self.centers.len() > self.k {
            // Overflow: raise τ and merge.
            self.threshold = if self.threshold == 0.0 {
                // Initial τ: the smallest pairwise distance among the k+1
                // centers (all distinct, so positive).
                let mut min = f64::INFINITY;
                for i in 0..self.centers.len() {
                    for j in (i + 1)..self.centers.len() {
                        let d = metric.dist(&self.centers[i], &self.centers[j]);
                        if d > 0.0 {
                            min = min.min(d);
                        }
                    }
                }
                if min.is_finite() {
                    min
                } else {
                    // All duplicates: keep one.
                    self.centers.truncate(1);
                    return;
                }
            } else {
                2.0 * self.threshold
            };
            // Greedy merge: keep centers pairwise > τ.
            let mut kept: Vec<P> = Vec::with_capacity(self.k);
            for c in self.centers.drain(..) {
                if kept.iter().all(|q| metric.dist(&c, q) > self.threshold) {
                    kept.push(c);
                }
            }
            self.centers = kept;
        }
    }

    /// Upper bound on the summary's k-center radius over everything
    /// inserted so far: every seen point is within `4τ` of a center
    /// (invariant (b)), and `opt ≥ τ/2`, hence the factor 8.
    pub fn radius_bound(&self) -> f64 {
        4.0 * self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_kcenter::{exact_discrete_kcenter, kcenter_cost, ExactOptions};
    use ukc_metric::{Euclidean, Point};

    fn stream_points(seed: u64, n: usize) -> Vec<Point> {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(vec![rnd() * 100.0, rnd() * 100.0]))
            .collect()
    }

    #[test]
    fn summary_keeps_at_most_k_centers() {
        let pts = stream_points(1, 200);
        let mut s = StreamingKCenter::new(4);
        for p in &pts {
            s.insert(p.clone(), &Euclidean);
            assert!(s.centers().len() <= 4 || s.threshold() == 0.0);
        }
        assert!(s.centers().len() <= 4);
    }

    #[test]
    fn streaming_radius_within_8x_offline_optimum() {
        for seed in 1..6u64 {
            let pts = stream_points(seed, 60);
            let k = 3;
            let mut s = StreamingKCenter::new(k);
            for p in &pts {
                s.insert(p.clone(), &Euclidean);
            }
            let achieved = kcenter_cost(&pts, s.centers(), None, &Euclidean);
            let offline =
                exact_discrete_kcenter(&pts, &pts, k, &Euclidean, ExactOptions::default()).unwrap();
            // Discrete offline optimum is within 2x of continuous, so the
            // guarantee vs discrete is 8 (the invariant is vs continuous).
            assert!(
                achieved <= 8.0 * offline.radius + 1e-9,
                "seed {seed}: streaming {achieved} vs 8 x {}",
                offline.radius
            );
            // And all inserted points are covered by the invariant bound.
            assert!(achieved <= s.radius_bound().max(1e-12) + 1e-9);
        }
    }

    #[test]
    fn duplicates_do_not_overflow() {
        let mut s = StreamingKCenter::new(2);
        let p = Point::new(vec![1.0, 1.0]);
        for _ in 0..100 {
            s.insert(p.clone(), &Euclidean);
        }
        assert_eq!(s.centers().len(), 1);
        assert_eq!(s.threshold(), 0.0);
    }

    /// The reference pin for `ukc_stream::StreamSummary`: at budget `k`
    /// its kept-center sequence and threshold must match the generic
    /// [`StreamingKCenter`] bit for bit, on streams that exercise
    /// absorption, the initial threshold fix, repeated doubling, and
    /// duplicates.
    #[test]
    fn stream_summary_is_bit_identical_to_streaming_kcenter() {
        for (seed, n, k) in [(1u64, 300usize, 3usize), (2, 500, 5), (9, 64, 2)] {
            let mut pts = stream_points(seed, n);
            // Salt in exact duplicates so the τ = 0 absorption path runs.
            let dup = pts[0].clone();
            pts.insert(n / 2, dup.clone());
            pts.push(dup);
            let mut reference = StreamingKCenter::new(k);
            let mut summary = ukc_stream::StreamSummary::new(k);
            for p in &pts {
                reference.insert(p.clone(), &Euclidean);
                summary.insert(p.coords()).unwrap();
            }
            assert_eq!(reference.centers().len(), summary.len(), "seed {seed}");
            for (a, b) in reference.centers().iter().zip(summary.center_points()) {
                assert_eq!(a.coords(), b.coords(), "seed {seed}");
            }
            assert_eq!(
                reference.threshold().to_bits(),
                summary.threshold().to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn insertion_order_changes_centers_not_validity() {
        let pts = stream_points(9, 40);
        let k = 3;
        let mut fwd = StreamingKCenter::new(k);
        let mut rev = StreamingKCenter::new(k);
        for p in &pts {
            fwd.insert(p.clone(), &Euclidean);
        }
        for p in pts.iter().rev() {
            rev.insert(p.clone(), &Euclidean);
        }
        let offline =
            exact_discrete_kcenter(&pts, &pts, k, &Euclidean, ExactOptions::default()).unwrap();
        for s in [&fwd, &rev] {
            let achieved = kcenter_cost(&pts, s.centers(), None, &Euclidean);
            assert!(achieved <= 8.0 * offline.radius + 1e-9);
        }
    }
}
