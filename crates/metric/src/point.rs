//! Dynamically-dimensioned Euclidean points.

use std::fmt;
use std::ops::{Add, Index, Mul, Sub};

/// Errors produced while constructing a [`Point`] (or pushing raw
/// coordinates into a [`crate::PointStore`]) without panicking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PointError {
    /// No coordinates supplied.
    Empty,
    /// A coordinate is NaN or infinite.
    NonFinite {
        /// Index of the offending coordinate.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The coordinate count disagrees with the expected dimension.
    DimMismatch {
        /// Length found.
        got: usize,
        /// Length expected.
        expected: usize,
    },
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Empty => write!(f, "Point must have at least one coordinate"),
            PointError::NonFinite { index, value } => {
                write!(f, "coordinate {index} is not finite: {value}")
            }
            PointError::DimMismatch { got, expected } => {
                write!(f, "dimension mismatch: {got} vs {expected}")
            }
        }
    }
}

impl std::error::Error for PointError {}

/// A point in `ℝ^d` with runtime-determined dimension `d`.
///
/// `Point` is the workhorse coordinate type of the Euclidean experiments.
/// It stores its coordinates in a boxed slice (two words on the stack) and
/// provides the small amount of affine arithmetic the algorithms need:
/// addition, subtraction, scaling, convex combination and norms.
///
/// All binary operations panic when the dimensions disagree; mixing
/// dimensions is a programming error, not an input error.
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Box<[f64]>,
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Panics
    /// Panics if `coords` is empty or contains a non-finite value.
    pub fn new(coords: Vec<f64>) -> Self {
        assert!(
            !coords.is_empty(),
            "Point must have at least one coordinate"
        );
        assert!(
            coords.iter().all(|c| c.is_finite()),
            "Point coordinates must be finite"
        );
        Self {
            coords: coords.into_boxed_slice(),
        }
    }

    /// Creates a point, returning a typed error instead of panicking on
    /// empty or non-finite coordinates — the constructor for coordinates
    /// that arrive from untrusted input (JSON bodies, CLI files).
    pub fn try_new(coords: Vec<f64>) -> Result<Self, PointError> {
        if coords.is_empty() {
            return Err(PointError::Empty);
        }
        if let Some(index) = coords.iter().position(|c| !c.is_finite()) {
            return Err(PointError::NonFinite {
                index,
                value: coords[index],
            });
        }
        Ok(Self {
            coords: coords.into_boxed_slice(),
        })
    }

    /// The origin of `ℝ^dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn origin(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            coords: vec![0.0; dim].into_boxed_slice(),
        }
    }

    /// A one-dimensional point; convenient for the `ℝ¹` experiments.
    pub fn scalar(x: f64) -> Self {
        Self::new(vec![x])
    }

    /// The dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// The first coordinate; the value of a 1-D point.
    #[inline]
    pub fn x(&self) -> f64 {
        self.coords[0]
    }

    /// `self + t * other`, the fused update used by Weiszfeld iterations and
    /// expected-point accumulation.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn add_scaled(&self, t: f64, other: &Point) -> Point {
        self.check_dim(other);
        Point {
            coords: self
                .coords
                .iter()
                .zip(other.coords.iter())
                .map(|(a, b)| a + t * b)
                .collect(),
        }
    }

    /// In-place `self += t * other`; avoids an allocation in hot
    /// accumulation loops.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn add_scaled_in_place(&mut self, t: f64, other: &Point) {
        self.check_dim(other);
        for (a, b) in self.coords.iter_mut().zip(other.coords.iter()) {
            *a += t * b;
        }
    }

    /// `t * self`.
    pub fn scale(&self, t: f64) -> Point {
        Point {
            coords: self.coords.iter().map(|a| a * t).collect(),
        }
    }

    /// The convex combination `(1 - t) * self + t * other`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        self.check_dim(other);
        Point {
            coords: self
                .coords
                .iter()
                .zip(other.coords.iter())
                .map(|(a, b)| (1.0 - t) * a + t * b)
                .collect(),
        }
    }

    /// The squared Euclidean norm `‖self‖²`.
    pub fn norm_sq(&self) -> f64 {
        self.coords.iter().map(|c| c * c).sum()
    }

    /// The Euclidean norm `‖self‖`.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn dist_sq(&self, other: &Point) -> f64 {
        self.check_dim(other);
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Euclidean distance to `other`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// The probability-weighted centroid `Σ wᵢ pᵢ / Σ wᵢ` of a non-empty
    /// weighted point set; this is exactly the paper's *expected point* `P̄`
    /// when the weights are the location probabilities.
    ///
    /// Returns `None` when `points` is empty, the weights do not match the
    /// points, any weight is negative, or the total weight is zero.
    pub fn weighted_centroid(points: &[Point], weights: &[f64]) -> Option<Point> {
        if points.is_empty() || points.len() != weights.len() {
            return None;
        }
        if weights.iter().any(|&w| w.is_nan() || w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let mut acc = Point::origin(points[0].dim());
        for (p, &w) in points.iter().zip(weights.iter()) {
            acc.add_scaled_in_place(w / total, p);
        }
        Some(acc)
    }

    #[inline]
    fn check_dim(&self, other: &Point) {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dimension mismatch: {} vs {}",
            self.dim(),
            other.dim()
        );
    }
}

impl Index<usize> for Point {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl Add<&Point> for &Point {
    type Output = Point;

    fn add(self, rhs: &Point) -> Point {
        self.add_scaled(1.0, rhs)
    }
}

impl Sub<&Point> for &Point {
    type Output = Point;

    fn sub(self, rhs: &Point) -> Point {
        self.add_scaled(-1.0, rhs)
    }
}

impl Mul<f64> for &Point {
    type Output = Point;

    fn mul(self, rhs: f64) -> Point {
        self.scale(rhs)
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.coords)
    }
}

impl From<Vec<f64>> for Point {
    fn from(v: Vec<f64>) -> Self {
        Point::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
        assert_eq!(p[1], 2.0);
        assert_eq!(p.x(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one coordinate")]
    fn empty_point_panics() {
        let _ = Point::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_point_panics() {
        let _ = Point::new(vec![f64::NAN]);
    }

    #[test]
    fn arithmetic() {
        let a = Point::new(vec![1.0, 2.0]);
        let b = Point::new(vec![3.0, -1.0]);
        assert_eq!((&a + &b).coords(), &[4.0, 1.0]);
        assert_eq!((&a - &b).coords(), &[-2.0, 3.0]);
        assert_eq!((&a * 2.0).coords(), &[2.0, 4.0]);
        assert_eq!(a.add_scaled(0.5, &b).coords(), &[2.5, 1.5]);
    }

    #[test]
    fn add_scaled_in_place_matches_add_scaled() {
        let a = Point::new(vec![1.0, 2.0]);
        let b = Point::new(vec![3.0, -1.0]);
        let mut c = a.clone();
        c.add_scaled_in_place(0.25, &b);
        assert_eq!(c, a.add_scaled(0.25, &b));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(vec![0.0, 0.0]);
        let b = Point::new(vec![2.0, 4.0]);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5).coords(), &[1.0, 2.0]);
    }

    #[test]
    fn norms_and_distance() {
        let a = Point::new(vec![3.0, 4.0]);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.norm(), 5.0);
        let b = Point::origin(2);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist_sq(&b), 25.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dim_mismatch_panics() {
        let a = Point::new(vec![1.0]);
        let b = Point::new(vec![1.0, 2.0]);
        let _ = a.dist(&b);
    }

    #[test]
    fn weighted_centroid_is_expected_point() {
        let pts = vec![Point::new(vec![0.0, 0.0]), Point::new(vec![4.0, 0.0])];
        let c = Point::weighted_centroid(&pts, &[0.25, 0.75]).unwrap();
        assert_eq!(c.coords(), &[3.0, 0.0]);
    }

    #[test]
    fn weighted_centroid_normalizes_weights() {
        let pts = vec![Point::new(vec![0.0]), Point::new(vec![1.0])];
        let c = Point::weighted_centroid(&pts, &[2.0, 2.0]).unwrap();
        assert!((c.x() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_centroid_rejects_bad_input() {
        let pts = vec![Point::new(vec![0.0])];
        assert!(Point::weighted_centroid(&[], &[]).is_none());
        assert!(Point::weighted_centroid(&pts, &[1.0, 2.0]).is_none());
        assert!(Point::weighted_centroid(&pts, &[-1.0]).is_none());
        assert!(Point::weighted_centroid(&pts, &[0.0]).is_none());
    }

    #[test]
    fn scalar_constructor() {
        let p = Point::scalar(7.5);
        assert_eq!(p.dim(), 1);
        assert_eq!(p.x(), 7.5);
    }
}
