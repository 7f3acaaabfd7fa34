//! Collections of uncertain points.

use crate::point::UncertainPoint;
use ukc_metric::{Point, PointId, PointStore};

/// An indexed collection of independent uncertain points — the input of
/// every uncertain k-center instance.
#[derive(Clone, Debug, PartialEq)]
pub struct UncertainSet<P> {
    points: Vec<UncertainPoint<P>>,
}

impl<P> UncertainSet<P> {
    /// Wraps a non-empty vector of uncertain points.
    ///
    /// # Panics
    /// Panics on an empty vector; an instance needs at least one point.
    pub fn new(points: Vec<UncertainPoint<P>>) -> Self {
        assert!(
            !points.is_empty(),
            "UncertainSet requires at least one point"
        );
        Self { points }
    }

    /// Wraps a vector of uncertain points, returning `None` when it is
    /// empty (the non-panicking counterpart of [`UncertainSet::new`]).
    pub fn try_new(points: Vec<UncertainPoint<P>>) -> Option<Self> {
        if points.is_empty() {
            None
        } else {
            Some(Self { points })
        }
    }

    /// Number of uncertain points (`n`).
    #[inline]
    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// The points.
    #[inline]
    pub fn points(&self) -> &[UncertainPoint<P>] {
        &self.points
    }

    /// The i-th point.
    #[inline]
    pub fn point(&self, i: usize) -> &UncertainPoint<P> {
        &self.points[i]
    }

    /// The largest support size (`z = max zᵢ`).
    pub fn max_z(&self) -> usize {
        self.points.iter().map(|p| p.z()).max().unwrap_or(0)
    }

    /// Total number of locations across all points (`N = Σ zᵢ`).
    pub fn total_locations(&self) -> usize {
        self.points.iter().map(|p| p.z()).sum()
    }

    /// Number of realizations `|Ω| = Π zᵢ`, saturating at `u128::MAX`.
    pub fn realization_count(&self) -> u128 {
        self.points
            .iter()
            .fold(1u128, |acc, p| acc.saturating_mul(p.z() as u128))
    }

    /// Flattens every location of every point, tagged with its owner index
    /// and probability: the *location pool* used as candidate centers in
    /// discrete solvers.
    pub fn all_locations(&self) -> Vec<(usize, &P, f64)> {
        let mut out = Vec::with_capacity(self.total_locations());
        for (i, up) in self.points.iter().enumerate() {
            for (loc, p) in up.support() {
                out.push((i, loc, p));
            }
        }
        out
    }

    /// Clones every location into a flat pool (no owner tags).
    pub fn location_pool(&self) -> Vec<P>
    where
        P: Clone,
    {
        let mut out = Vec::with_capacity(self.total_locations());
        for up in &self.points {
            out.extend(up.locations().iter().cloned());
        }
        out
    }

    /// Iterates over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, UncertainPoint<P>> {
        self.points.iter()
    }
}

impl UncertainSet<Point> {
    /// Copies every realization coordinate into one contiguous
    /// [`PointStore`] and mirrors the set in id space.
    ///
    /// Locations are pushed point-major in support order, so the id-space
    /// set's `location_pool()` enumerates the same ids in the same order
    /// as [`UncertainSet::location_pool`] enumerates points — discrete
    /// solvers can use either interchangeably. The store has room for
    /// `extra_rows` more rows (representatives, candidate centers), which
    /// the caller can push without reallocating and without invalidating
    /// the ids already handed out.
    ///
    /// # Panics
    /// Panics when locations have mismatched dimensions (malformed input;
    /// [`crate::UncertainPoint`] is dimension-agnostic by design, the
    /// store is not).
    pub fn indexed_store(&self, extra_rows: usize) -> (PointStore, UncertainSet<PointId>) {
        let dim = self.points[0].locations()[0].dim();
        let mut store = PointStore::with_capacity(dim, self.total_locations() + extra_rows);
        let ids = UncertainSet {
            points: self
                .points
                .iter()
                .map(|up| up.map_locations(|loc| store.push_point(loc)))
                .collect(),
        };
        (store, ids)
    }
}

impl<P> std::ops::Index<usize> for UncertainSet<P> {
    type Output = UncertainPoint<P>;

    fn index(&self, i: usize) -> &UncertainPoint<P> {
        &self.points[i]
    }
}

impl<'a, P> IntoIterator for &'a UncertainSet<P> {
    type Item = &'a UncertainPoint<P>;
    type IntoIter = std::slice::Iter<'a, UncertainPoint<P>>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UncertainSet<f64> {
        UncertainSet::new(vec![
            UncertainPoint::new(vec![0.0, 1.0], vec![0.5, 0.5]).unwrap(),
            UncertainPoint::new(vec![5.0, 6.0, 7.0], vec![0.2, 0.3, 0.5]).unwrap(),
            UncertainPoint::certain(10.0),
        ])
    }

    #[test]
    fn counting() {
        let s = sample();
        assert_eq!(s.n(), 3);
        assert_eq!(s.max_z(), 3);
        assert_eq!(s.total_locations(), 6);
        assert_eq!(s.realization_count(), 6);
    }

    #[test]
    fn all_locations_tags_owners() {
        let s = sample();
        let locs = s.all_locations();
        assert_eq!(locs.len(), 6);
        assert_eq!(locs[0], (0, &0.0, 0.5));
        assert_eq!(locs[2], (1, &5.0, 0.2));
        assert_eq!(locs[5], (2, &10.0, 1.0));
    }

    #[test]
    fn location_pool_flattens() {
        let s = sample();
        assert_eq!(s.location_pool(), vec![0.0, 1.0, 5.0, 6.0, 7.0, 10.0]);
    }

    #[test]
    fn realization_count_saturates() {
        let big = UncertainSet::new(
            (0..200)
                .map(|_| UncertainPoint::uniform([0.0f64; 10].to_vec()).unwrap())
                .collect(),
        );
        // 10^200 saturates u128.
        assert_eq!(big.realization_count(), u128::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_set_panics() {
        let _: UncertainSet<f64> = UncertainSet::new(vec![]);
    }

    #[test]
    fn indexing_and_iteration() {
        let s = sample();
        assert_eq!(s[2].locations(), &[10.0]);
        assert_eq!(s.iter().count(), 3);
        assert_eq!((&s).into_iter().count(), 3);
    }
}
