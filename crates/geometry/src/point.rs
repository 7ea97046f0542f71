use crate::Coord;
use std::fmt;
use std::ops::{Add, Sub};

/// A point in integer nanometre coordinates.
///
/// `Point` is the basic unit of all layout geometry in the workspace.
/// Coordinates grow rightwards (x) and upwards (y), matching the paper's
/// figures.
///
/// ```
/// use dp_geometry::Point;
/// let a = Point::new(3, 4);
/// let b = Point::new(1, 1);
/// assert_eq!(a - b, Point::new(2, 3));
/// assert_eq!(a.manhattan_distance(b), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Point {
    /// Horizontal coordinate (nm).
    pub x: Coord,
    /// Vertical coordinate (nm).
    pub y: Coord,
}

impl Point {
    /// Creates a point at `(x, y)`.
    pub const fn new(x: Coord, y: Coord) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0, 0);

    /// L1 (Manhattan) distance to `other`.
    pub fn manhattan_distance(self, other: Point) -> Coord {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Returns `true` when both coordinates are axis-aligned with `other`
    /// (i.e. the segment between them is horizontal or vertical).
    pub fn is_axis_aligned_with(self, other: Point) -> bool {
        self.x == other.x || self.y == other.y
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(Coord, Coord)> for Point {
    fn from((x, y): (Coord, Coord)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Point::new(5, -2);
        let b = Point::new(-1, 7);
        assert_eq!(a + b, Point::new(4, 5));
        assert_eq!(a - b, Point::new(6, -9));
    }

    #[test]
    fn manhattan_distance_is_symmetric() {
        let a = Point::new(10, 20);
        let b = Point::new(-3, 5);
        assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
        assert_eq!(a.manhattan_distance(a), 0);
    }

    #[test]
    fn axis_alignment() {
        assert!(Point::new(1, 5).is_axis_aligned_with(Point::new(1, 9)));
        assert!(Point::new(1, 5).is_axis_aligned_with(Point::new(7, 5)));
        assert!(!Point::new(1, 5).is_axis_aligned_with(Point::new(2, 6)));
    }

    #[test]
    fn conversion_from_tuple() {
        let p: Point = (3, 4).into();
        assert_eq!(p, Point::new(3, 4));
    }

    #[test]
    fn display() {
        assert_eq!(Point::new(-1, 2).to_string(), "(-1, 2)");
    }
}
