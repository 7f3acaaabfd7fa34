//! A capacity-bounded LRU solution cache keyed by `(digest, config)`.
//!
//! The approximate-LOO lesson from the conformal literature applies
//! directly: when many requests hit the same instance, the expensive part
//! must be paid once and amortized. That covers the response as well as
//! the solve: a `CachedSolve` renders its hit body on the first hit and
//! every later hit writes those bytes. The cache key is the problem's
//! canonical content digest ([`ukc_core::Problem::instance_digest`],
//! which covers the set, `k`, and the space) plus a canonical rendering
//! of the [`SolverConfig`], so a hit is only possible when the solve
//! would be bit-identical anyway — solves are deterministic in
//! `(problem, config)`.
//!
//! Recency is tracked with a monotonic stamp per entry; eviction scans
//! for the minimum stamp. That is O(capacity) per eviction, which is the
//! right trade at the few-hundred-entry capacities this service runs
//! with (no linked-list bookkeeping on the hot hit path, just a stamp
//! store).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

use ukc_core::{CandidatePolicy, CertainStrategy, Solution, SolverConfig};
use ukc_metric::Point;

/// A canonical cache key for one solve request.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SolveKey {
    /// [`ukc_core::Problem::instance_digest`] of the problem.
    pub digest: u64,
    /// The underlying *set* digest (the instance's content ID, or a
    /// stream's state digest). Not part of what distinguishes keys —
    /// `digest` already covers it — but carried so deletes can evict
    /// every entry derived from one instance or stream state with
    /// [`LruCache::retain`].
    pub set_digest: u64,
    /// Canonical rendering of the configuration.
    pub config: String,
    /// The instance digest of the prior a warm start chained from
    /// (`None` for cold solves). A warm solve can legitimately differ
    /// from the cold solve of the same problem — it reuses the prior's
    /// centers — so warm and cold results of one instance must never
    /// collide under one key, and warm results from *different* priors
    /// must not collide with each other either.
    pub base: Option<u64>,
}

impl SolveKey {
    /// Builds the key for a cold `(digest, config)` solve; `set_digest`
    /// tags the key with its source set for delete-time eviction.
    pub fn new(digest: u64, set_digest: u64, config: &SolverConfig) -> Self {
        SolveKey {
            digest,
            set_digest,
            config: config_key(config),
            base: None,
        }
    }

    /// This key rescoped to a warm solve chained from the prior with
    /// instance digest `base`.
    #[must_use]
    pub fn with_base(mut self, base: u64) -> Self {
        self.base = Some(base);
        self
    }
}

/// One cached solve: the solution plus the response body a hit on its
/// key answers with. A key fixes everything that body shows (solution,
/// instance digest, warm base), so the body is rendered once and shared
/// by every hit: by the single-solution miss that filled the entry, or
/// else by the first hit.
pub(crate) struct CachedSolve {
    /// The cached solution; composite documents and warm priors read it.
    pub(crate) solution: Arc<Solution<Point>>,
    hit_body: OnceLock<Arc<str>>,
}

impl CachedSolve {
    /// An entry whose hit body is not rendered yet.
    pub(crate) fn new(solution: Arc<Solution<Point>>) -> Self {
        CachedSolve {
            solution,
            hit_body: OnceLock::new(),
        }
    }

    /// The hit body, produced by `render` on the first call only.
    pub(crate) fn hit_body(&self, render: impl FnOnce(&Solution<Point>) -> String) -> Arc<str> {
        Arc::clone(self.hit_body.get_or_init(|| render(&self.solution).into()))
    }
}

/// Renders a [`SolverConfig`] canonically: every field that can change a
/// solve result appears, floats by bit pattern so distinct values can
/// never collide.
///
/// [`SolverConfig::threads`] is deliberately **excluded**: solutions are
/// bit-identical for every lane count, so a result computed at
/// `threads = 1` may serve a `threads = N` request (and vice versa) —
/// splitting the cache by it would only lower the hit rate (pinned by
/// `config_keys_ignore_threads`).
pub fn config_key(config: &SolverConfig) -> String {
    let strategy = match config.strategy() {
        CertainStrategy::Gonzalez => "gonzalez".to_string(),
        CertainStrategy::GonzalezLocalSearch { rounds } => format!("local-search:{rounds}"),
        CertainStrategy::Grid => "grid".to_string(),
        CertainStrategy::ExactDiscrete => "exact".to_string(),
    };
    let policy = match config.candidate_policy() {
        CandidatePolicy::ProblemPool => "problem",
        CandidatePolicy::LocationPool => "location",
    };
    let grid = config.grid_options();
    let exact = config.exact_options();
    format!(
        "rule={:?};strategy={strategy};assignment={};eps={:016x};seed={};policy={policy};lb={};grid={:?};exact={:?}",
        config.rule(),
        config.assignment().name(),
        config.eps().to_bits(),
        config.seed(),
        config.computes_lower_bound(),
        grid,
        exact,
    )
}

/// A minimal LRU map. Not thread-safe by itself — the server wraps it in
/// a `Mutex` (hit bookkeeping mutates recency, so a shared lock would not
/// help).
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries. Capacity 0 disables
    /// caching entirely (every `get` misses, `insert` is a no-op).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Looks up and refreshes recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((stamp, value)) => {
                *stamp = tick;
                Some(value)
            }
            None => None,
        }
    }

    /// Inserts, evicting the least-recently-used entry at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, value));
    }

    /// Keeps only the entries whose key satisfies `keep` (delete-time
    /// eviction: drop everything derived from a removed instance or
    /// stream).
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.map.retain(|k, _| keep(k));
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), Some(&1)); // refresh a
        cache.insert("c", 3); // evicts b
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"a"), Some(&1));
        assert_eq!(cache.get(&"c"), Some(&3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_updates_without_eviction() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("a", 10);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&"a"), Some(&10));
        assert_eq!(cache.get(&"b"), Some(&2));
    }

    #[test]
    fn retain_evicts_matching_keys() {
        let mut cache = LruCache::new(4);
        cache.insert(("a", 1), 10);
        cache.insert(("a", 2), 20);
        cache.insert(("b", 1), 30);
        cache.retain(|(name, _)| *name != "a");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&("b", 1)), Some(&30));
        assert_eq!(cache.get(&("a", 1)), None);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut cache = LruCache::new(0);
        cache.insert("a", 1);
        assert_eq!(cache.get(&"a"), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn config_keys_separate_every_knob() {
        use ukc_core::{AssignmentMode, AssignmentRule};
        let base = SolverConfig::default();
        let variants = [
            SolverConfig::builder()
                .rule(AssignmentRule::ExpectedDistance)
                .build()
                .unwrap(),
            SolverConfig::builder()
                .assignment(AssignmentMode::AdditivelyWeighted)
                .build()
                .unwrap(),
            SolverConfig::builder()
                .strategy(CertainStrategy::GonzalezLocalSearch { rounds: 3 })
                .build()
                .unwrap(),
            SolverConfig::builder().eps(0.125).build().unwrap(),
            SolverConfig::builder().seed(9).build().unwrap(),
            SolverConfig::builder().lower_bound(false).build().unwrap(),
            SolverConfig::builder()
                .candidate_policy(CandidatePolicy::LocationPool)
                .build()
                .unwrap(),
        ];
        let base_key = config_key(&base);
        for v in &variants {
            assert_ne!(config_key(v), base_key, "{v:?}");
        }
        assert_eq!(config_key(&base), config_key(&SolverConfig::default()));
    }

    #[test]
    fn warm_and_cold_keys_never_collide() {
        let config = SolverConfig::default();
        let cold = SolveKey::new(1, 2, &config);
        let warm = SolveKey::new(1, 2, &config).with_base(77);
        let other_prior = SolveKey::new(1, 2, &config).with_base(78);
        assert_ne!(cold, warm);
        assert_ne!(warm, other_prior);
        let mut cache = LruCache::new(4);
        cache.insert(cold.clone(), "cold");
        cache.insert(warm.clone(), "warm");
        assert_eq!(cache.get(&cold), Some(&"cold"));
        assert_eq!(cache.get(&warm), Some(&"warm"));
        assert_eq!(cache.get(&other_prior), None);
    }

    #[test]
    fn hit_body_renders_once() {
        use ukc_core::Problem;
        use ukc_uncertain::generators::{clustered, ProbModel};
        let set = clustered(2, 10, 2, 2, 2, 4.0, 1.0, ProbModel::Random);
        let solution = Problem::euclidean(set, 2)
            .unwrap()
            .solve(&SolverConfig::default())
            .unwrap();
        let entry = CachedSolve::new(Arc::new(solution));
        let mut renders = 0;
        let first = entry.hit_body(|s| {
            renders += 1;
            format!("{}", s.centers.len())
        });
        let second = entry.hit_body(|_| unreachable!("rendered on the first hit"));
        assert_eq!((renders, &*first), (1, "2"));
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn config_keys_ignore_threads() {
        // Threads are a resource knob with bit-identical output, so a
        // cached solution must be shared across every lane count.
        let base_key = config_key(&SolverConfig::default());
        for threads in [1usize, 2, 8] {
            let cfg = SolverConfig::builder().threads(threads).build().unwrap();
            assert_eq!(config_key(&cfg), base_key, "threads = {threads}");
        }
    }
}
