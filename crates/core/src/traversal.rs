//! The farthest-first traversal a layout keeps over its representatives.
//!
//! Gonzalez's picks do not depend on `k` (see [`Traversal`]), so a
//! stored set's solves at any `k` can share one traversal: a solve at a
//! `k` some earlier solve covered reads its picks, radius and rows off
//! the traversal with no distance evaluation, and a solve at a larger
//! `k` runs only the passes past the traversal's end, then publishes the
//! longer traversal for the solves after it. What a solve reads carries
//! the pair counts of the passes it read ([`Covered::read`]), so its
//! report can count them as a fresh solve would.
//!
//! Readers only ever see a published traversal. An extension runs on a
//! copy and replaces the published one when it is done, so a concurrent
//! read never sees half of it, and a panic during one leaves the last
//! published traversal as it was. One extension runs at a time; a solve
//! that waited for another's extension reads what that one published
//! when it covers its `k`.

use std::sync::{Arc, Mutex, PoisonError};

use ukc_kcenter::{Traversal, TraversalRows};
use ukc_metric::{DistanceOracle, PointId};

/// A layout's farthest-first traversal over its representatives from
/// row 0, logged so any prefix of its passes replays
/// ([`Traversal::replay`]).
#[derive(Debug)]
pub(crate) struct SharedTraversal {
    /// The last published traversal: every read starts from a snapshot
    /// of it.
    published: Mutex<Arc<Traversal>>,
    /// The extender's state; holding its lock is holding the right to
    /// publish.
    live: Mutex<Live>,
}

#[derive(Debug, Default)]
struct Live {
    /// The rows after every pass of the published traversal, with the
    /// pass buffers. `None` before the first extension, after one that
    /// panicked, and past the cap: the next extender replays them.
    rows: Option<TraversalRows>,
    /// Set by the first extension whose log outgrows the cap, which
    /// then drops its log and publishes nothing; every later extension
    /// runs on a private copy.
    capped: bool,
}

/// What a read of the traversal returns.
pub(crate) struct Covered {
    /// A traversal that covers the reader's `k`.
    pub(crate) traversal: Arc<Traversal>,
    /// On request, every row's nearest pick and distance after the first
    /// `k` passes.
    pub(crate) nearest: Option<Vec<(usize, f64)>>,
    /// The pairs the passes this read took off the traversal, rather
    /// than running them, evaluated and skipped when they ran.
    pub(crate) read: (u64, u64),
}

impl SharedTraversal {
    /// An empty traversal of `n` representatives.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            published: Mutex::new(Arc::new(Traversal::logged(n, 0))),
            live: Mutex::default(),
        }
    }

    /// The heap bytes the published traversal and the extender's rows
    /// hold. Rows an extension is running on count once it publishes
    /// them: this never waits for one.
    pub(crate) fn bytes(&self) -> usize {
        // A poisoned lock's extension panicked after taking the rows.
        let live = self.live.try_lock();
        let rows = live.map_or(0, |live| live.rows.as_ref().map_or(0, TraversalRows::bytes));
        self.snapshot().bytes() + rows
    }

    fn snapshot(&self) -> Arc<Traversal> {
        let published = self
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&published)
    }

    /// A traversal of `reps` that covers `k`, and with `nearest` also
    /// every row's nearest pick after the first `k` passes. When no
    /// published traversal covers `k`, the passes past its end run
    /// through `oracle` (and count on its counter, pruned pairs
    /// included); the longer traversal is published unless it would hold
    /// more than `cap` bytes, in which case it stays private to this read.
    pub(crate) fn cover<M: DistanceOracle<PointId>>(
        &self,
        reps: &[PointId],
        k: usize,
        oracle: &M,
        nearest: bool,
        cap: usize,
    ) -> Covered {
        let read = |traversal: Arc<Traversal>| Covered {
            nearest: nearest.then(|| traversal.replay(k).nearest()),
            read: traversal.pairs(k),
            traversal,
        };
        let extended = |traversal: Traversal, from: usize, rows: &TraversalRows| Covered {
            nearest: nearest.then(|| rows.nearest()),
            read: traversal.pairs(from),
            traversal: Arc::new(traversal),
        };
        let snapshot = self.snapshot();
        if snapshot.covers(k) {
            return read(snapshot);
        }
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        // Another extension may have covered `k` while this one waited.
        let snapshot = self.snapshot();
        if snapshot.covers(k) {
            return read(snapshot);
        }
        if live.capped {
            drop(live);
            let mut rows = snapshot.replay(snapshot.len());
            let mut private = snapshot.unlogged();
            private.extend(&mut rows, reps, k, oracle);
            return extended(private, snapshot.len(), &rows);
        }
        // Only the holder of `live` publishes, so its rows are at the
        // published traversal's end.
        let mut rows = live
            .rows
            .take()
            .unwrap_or_else(|| snapshot.replay(snapshot.len()));
        let mut longer = Traversal::clone(&snapshot);
        while !longer.covers(k) {
            // One pass at a time, so a log that outgrows the cap is
            // dropped as soon as it does.
            longer.extend(&mut rows, reps, longer.len() + 1, oracle);
            if !live.capped && longer.bytes() > cap {
                longer = longer.unlogged();
                live.capped = true;
            }
        }
        let covered = extended(longer, snapshot.len(), &rows);
        if !live.capped {
            let published = Arc::clone(&covered.traversal);
            *self
                .published
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = published;
            live.rows = Some(rows);
        }
        covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use ukc_kcenter::gonzalez_nearest;
    use ukc_metric::{DistCounter, Metric, PointStore, StoreOracle};

    /// The store's scalar distances through the default (unpruned)
    /// passes, panicking once `budget` of them have run.
    struct Faulty<'a> {
        store: &'a PointStore,
        budget: AtomicUsize,
    }

    impl Metric<PointId> for Faulty<'_> {
        fn dist(&self, a: &PointId, b: &PointId) -> f64 {
            let left = self.budget.fetch_sub(1, Ordering::Relaxed);
            assert!(left > 0, "injected fault");
            ukc_metric::batch::pair_dist(self.store, *a, *b)
        }
    }

    impl DistanceOracle<PointId> for Faulty<'_> {}

    /// 200 points on a curve in the plane.
    fn curve() -> (PointStore, Vec<PointId>) {
        let mut store = PointStore::new(2);
        let reps = (0..200)
            .map(|i| {
                let x = f64::from(i);
                store.push(&[(x * 0.37).sin() * 50.0, (x * 0.11).cos() * 20.0])
            })
            .collect();
        (store, reps)
    }

    /// The pairs a fresh greedy at `k` evaluates and skips.
    fn fresh_pairs(store: &PointStore, reps: &[PointId], k: usize) -> (u64, u64) {
        if k == 0 {
            return (0, 0);
        }
        let counter = DistCounter::new();
        let oracle = StoreOracle::new(store).with_counter(&counter);
        gonzalez_nearest(reps, k, &oracle, 0);
        (counter.count(), counter.pruned())
    }

    #[test]
    fn reads_run_no_pass_and_extensions_run_only_the_passes_past_the_end() {
        let (store, reps) = curve();
        let shared = SharedTraversal::new(reps.len());
        let mut ran = 0;
        for k in [12, 30, 7, 30, 45, 1] {
            let counter = DistCounter::new();
            let oracle = StoreOracle::new(&store).with_counter(&counter);
            let covered = shared.cover(&reps, k, &oracle, true, usize::MAX);
            let (fresh, before) = (
                fresh_pairs(&store, &reps, k),
                fresh_pairs(&store, &reps, ran),
            );
            if k > ran {
                // An extension runs exactly the passes a fresh greedy runs
                // past the published traversal's end.
                assert_eq!(counter.count(), fresh.0 - before.0, "k = {k}");
                assert_eq!(counter.pruned(), fresh.1 - before.1, "k = {k}");
                assert_eq!(covered.read, before, "k = {k}");
                ran = k;
            } else {
                assert_eq!((counter.count(), counter.pruned()), (0, 0), "k = {k}");
                assert_eq!(covered.read, fresh, "k = {k}");
            }
            let (picks, nearest) = gonzalez_nearest(&reps, k, &oracle, 0);
            assert_eq!(covered.traversal.picks(k), picks.as_slice(), "k = {k}");
            assert_eq!(covered.nearest.unwrap(), nearest, "k = {k}");
        }
    }

    #[test]
    fn past_the_cap_extensions_run_on_private_copies() {
        let (store, reps) = curve();
        let oracle = StoreOracle::new(&store);
        // Room for a few passes' logs, not for 60.
        let cap = 8_000;
        let shared = SharedTraversal::new(reps.len());
        shared.cover(&reps, 2, &oracle, false, cap);
        let published = shared.snapshot().len();
        assert_eq!(published, 2);
        for k in [60, 8, 60, 1] {
            let covered = shared.cover(&reps, k, &oracle, true, cap);
            let (picks, nearest) = gonzalez_nearest(&reps, k, &oracle, 0);
            assert_eq!(covered.traversal.picks(k), picks.as_slice(), "k = {k}");
            assert_eq!(covered.nearest.unwrap(), nearest, "k = {k}");
            assert_eq!(
                covered.read,
                fresh_pairs(&store, &reps, k.min(published)),
                "k = {k}"
            );
            // The shared traversal never grows past the cap.
            assert_eq!(shared.snapshot().len(), published, "k = {k}");
            assert!(shared.snapshot().bytes() <= cap);
        }
        assert!(shared.live.lock().unwrap().capped);
    }

    #[test]
    fn a_panicking_extension_leaves_the_published_traversal_intact() {
        let (store, reps) = curve();
        let oracle = StoreOracle::new(&store);
        let shared = SharedTraversal::new(reps.len());
        assert_eq!(
            shared
                .cover(&reps, 8, &oracle, false, usize::MAX)
                .traversal
                .len(),
            8
        );

        let faulty = Faulty {
            store: &store,
            budget: AtomicUsize::new(3 * reps.len()),
        };
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.cover(&reps, 40, &faulty, true, usize::MAX)
        }));
        assert!(crashed.is_err());
        assert_eq!(shared.snapshot().len(), 8, "the published traversal stands");

        // Reads and extensions go on from the published traversal.
        for k in [5, 40, 8, 60] {
            let covered = shared.cover(&reps, k, &oracle, true, usize::MAX);
            let (picks, want) = gonzalez_nearest(&reps, k, &oracle, 0);
            assert_eq!(covered.traversal.picks(k), picks.as_slice(), "k = {k}");
            assert_eq!(covered.nearest.unwrap(), want, "k = {k}");
        }
    }
}
