//! The instance store: long-lived uploaded instances behind content IDs.
//!
//! Instance IDs are the canonical content digest of the uploaded set
//! ([`ukc_core::digest_set`], hex-formatted), so identical uploads —
//! including uploads that merely permute point or location order —
//! deduplicate to one entry, and an ID fetched from one replica is valid
//! on any replica that received the same instance.
//!
//! The map is guarded by an [`RwLock`]: reads (every solve) take the
//! shared lock, uploads and deletes the exclusive one. Values are
//! `Arc`-shared so a delete cannot invalidate an in-flight solve.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use ukc_core::{digest_hex, digest_set, Problem, SolveError};
use ukc_metric::Point;
use ukc_uncertain::UncertainSet;

/// One stored instance.
#[derive(Clone, Debug)]
pub struct StoredInstance {
    /// The content-digest ID (16 hex chars — [`StoredInstance::digest`]
    /// formatted by [`digest_hex`]).
    pub id: String,
    /// The raw content digest, kept so the solve path can derive cache
    /// keys without re-hashing the points.
    pub digest: u64,
    /// The validated uncertain set.
    pub set: Arc<UncertainSet<Point>>,
    /// Ambient dimension.
    pub dim: usize,
    /// The set validated as a Euclidean problem, filled by the first
    /// solve: later solves only check their `k`.
    validated: OnceLock<Result<Problem<Point>, SolveError>>,
}

impl StoredInstance {
    /// The Euclidean problem of this instance with `k` centers. The
    /// locations are validated once per stored instance, so every solve
    /// after the first pays only for the `k` check, and gets the same
    /// error [`Problem::euclidean`] would give.
    pub fn problem(&self, k: usize) -> Result<Problem<Point>, SolveError> {
        self.validated
            .get_or_init(|| Problem::euclidean(Arc::clone(&self.set), 1))
            .as_ref()
            .map_err(Clone::clone)?
            .with_k(k)
    }

    /// The solve-ready layouts this instance's problem has built (at most
    /// two, none before its first solve) and their heap bytes; every
    /// `with_k` problem it hands out shares them.
    pub fn prepared_layouts(&self) -> (usize, usize) {
        match self.validated.get() {
            Some(Ok(problem)) => problem.prepared_layouts(),
            _ => (0, 0),
        }
    }

    /// Summary used by list/get/upload responses.
    pub fn summary(&self) -> ukc_json::Json {
        ukc_json::Json::obj([
            ("id", ukc_json::Json::from(self.id.as_str())),
            ("n", ukc_json::Json::from(self.set.n())),
            ("dim", ukc_json::Json::from(self.dim)),
            ("max_z", ukc_json::Json::from(self.set.max_z())),
        ])
    }
}

/// The `RwLock`-guarded instance map.
#[derive(Default)]
pub struct InstanceStore {
    map: RwLock<HashMap<String, Arc<StoredInstance>>>,
}

impl InstanceStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a validated set, returning the stored entry and whether it
    /// was newly created (`false` means an identical instance was already
    /// present and the upload deduplicated onto it).
    pub fn insert(&self, set: UncertainSet<Point>) -> (Arc<StoredInstance>, bool) {
        let digest = digest_set(&set);
        let id = digest_hex(digest);
        let dim = set.point(0).locations()[0].dim();
        let mut map = self.map.write().expect("instance store lock poisoned");
        if let Some(existing) = map.get(&id) {
            return (Arc::clone(existing), false);
        }
        let stored = Arc::new(StoredInstance {
            id: id.clone(),
            digest,
            set: Arc::new(set),
            dim,
            validated: OnceLock::new(),
        });
        map.insert(id, Arc::clone(&stored));
        (stored, true)
    }

    /// Fetches an instance by ID.
    pub fn get(&self, id: &str) -> Option<Arc<StoredInstance>> {
        self.map
            .read()
            .expect("instance store lock poisoned")
            .get(id)
            .cloned()
    }

    /// Deletes an instance, returning the removed entry so the caller
    /// can tombstone its durable record and evict its cached solutions.
    pub fn remove(&self, id: &str) -> Option<Arc<StoredInstance>> {
        self.map
            .write()
            .expect("instance store lock poisoned")
            .remove(id)
    }

    /// All instances, sorted by ID for stable listings.
    pub fn list(&self) -> Vec<Arc<StoredInstance>> {
        let mut all: Vec<_> = self
            .map
            .read()
            .expect("instance store lock poisoned")
            .values()
            .cloned()
            .collect();
        all.sort_by(|a, b| a.id.cmp(&b.id));
        all
    }

    /// The prepared layouts of every stored instance, summed: how many,
    /// and their heap bytes.
    pub fn prepared_layouts(&self) -> (usize, usize) {
        let map = self.map.read().expect("instance store lock poisoned");
        map.values()
            .map(|stored| stored.prepared_layouts())
            .fold((0, 0), |(sets, bytes), (s, b)| (sets + s, bytes + b))
    }

    /// Number of stored instances.
    pub fn len(&self) -> usize {
        self.map.read().expect("instance store lock poisoned").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_uncertain::generators::{clustered, ProbModel};
    use ukc_uncertain::UncertainPoint;

    #[test]
    fn identical_uploads_dedupe_to_one_id() {
        let store = InstanceStore::new();
        let set = clustered(1, 8, 3, 2, 2, 4.0, 1.0, ProbModel::Random);
        let (a, created_a) = store.insert(set.clone());
        let (b, created_b) = store.insert(set);
        assert!(created_a);
        assert!(!created_b);
        assert_eq!(a.id, b.id);
        assert_eq!(store.len(), 1);
        // A permuted upload of the same points is the same instance.
        let mut points = a.set.points().to_vec();
        points.reverse();
        let (c, created_c) = store.insert(UncertainSet::new(points));
        assert!(!created_c);
        assert_eq!(c.id, a.id);
    }

    #[test]
    fn stored_problems_give_the_errors_of_a_fresh_validation() {
        let store = InstanceStore::new();
        let (ok, _) = store.insert(clustered(3, 8, 3, 2, 2, 4.0, 1.0, ProbModel::Random));
        let far = UncertainSet::new(vec![
            UncertainPoint::certain(Point::new(vec![0.0, 0.0])),
            UncertainPoint::certain(Point::new(vec![1e155, 1.0])),
        ]);
        let (far, _) = store.insert(far);
        for stored in [&ok, &far] {
            // Twice per k: the second call reads the stored validation.
            for k in [0, 1, 3, 8, 9, 0, 1, 3, 8, 9] {
                let fresh = Problem::euclidean(Arc::clone(&stored.set), k);
                match (stored.problem(k), fresh) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!((a.k(), a.instance_digest()), (b.k(), b.instance_digest()));
                        assert!(std::ptr::eq(a.set(), &*stored.set), "the set is shared");
                    }
                    (a, b) => assert_eq!(a.unwrap_err(), b.unwrap_err(), "k = {k}"),
                }
            }
        }
        assert!(matches!(
            far.problem(1),
            Err(SolveError::CoordinatesTooLarge { point: 1 })
        ));
    }

    #[test]
    fn get_remove_list() {
        let store = InstanceStore::new();
        let (a, _) = store.insert(clustered(1, 8, 3, 2, 2, 4.0, 1.0, ProbModel::Random));
        let (b, _) = store.insert(clustered(2, 6, 2, 2, 2, 4.0, 1.0, ProbModel::Random));
        assert_ne!(a.id, b.id);
        assert_eq!(store.list().len(), 2);
        assert!(store.get(&a.id).is_some());
        // Deleting keeps in-flight Arcs alive.
        let held = store.get(&a.id).unwrap();
        let removed = store.remove(&a.id).expect("a existed");
        assert_eq!(removed.id, a.id);
        assert!(store.remove(&a.id).is_none());
        assert!(store.get(&a.id).is_none());
        assert_eq!(held.id, a.id);
        assert_eq!(store.list().len(), 1);
    }
}
