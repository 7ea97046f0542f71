use crate::{Coord, GeometryError, Point};
use std::fmt;

/// An axis-aligned rectangle with strictly positive extent.
///
/// The rectangle covers the half-open region `[x0, x1) x [y0, y1)` in
/// nanometre coordinates; two rectangles that share only an edge therefore
/// do not overlap but do *abut*.
///
/// ```
/// use dp_geometry::Rect;
/// # fn main() -> Result<(), dp_geometry::GeometryError> {
/// let r = Rect::new(0, 0, 30, 20)?;
/// assert_eq!(r.width(), 30);
/// assert_eq!(r.height(), 20);
/// assert_eq!(r.area(), 600);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    x0: Coord,
    y0: Coord,
    x1: Coord,
    y1: Coord,
}

impl Rect {
    /// Creates a rectangle spanning `[x0, x1) x [y0, y1)`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::EmptyRect`] when `x1 <= x0` or `y1 <= y0`.
    pub fn new(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Result<Self, GeometryError> {
        if x1 <= x0 || y1 <= y0 {
            return Err(GeometryError::EmptyRect { x0, y0, x1, y1 });
        }
        Ok(Rect { x0, y0, x1, y1 })
    }

    /// Creates a rectangle from two opposite corner points, normalising
    /// their order.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::EmptyRect`] when the points share a row or
    /// column (zero-area rectangle).
    pub fn from_corners(a: Point, b: Point) -> Result<Self, GeometryError> {
        Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }

    /// Left edge.
    pub fn x0(&self) -> Coord {
        self.x0
    }
    /// Bottom edge.
    pub fn y0(&self) -> Coord {
        self.y0
    }
    /// Right edge (exclusive).
    pub fn x1(&self) -> Coord {
        self.x1
    }
    /// Top edge (exclusive).
    pub fn y1(&self) -> Coord {
        self.y1
    }

    /// Horizontal extent.
    pub fn width(&self) -> Coord {
        self.x1 - self.x0
    }

    /// Vertical extent.
    pub fn height(&self) -> Coord {
        self.y1 - self.y0
    }

    /// Area in nm².
    pub fn area(&self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// Bottom-left corner.
    pub fn min_corner(&self) -> Point {
        Point::new(self.x0, self.y0)
    }

    /// Top-right corner.
    pub fn max_corner(&self) -> Point {
        Point::new(self.x1, self.y1)
    }

    /// Returns `true` when `p` lies inside the half-open region.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x0 && p.x < self.x1 && p.y >= self.y0 && p.y < self.y1
    }

    /// Returns `true` when `other` lies entirely within `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x0 >= self.x0 && other.x1 <= self.x1 && other.y0 >= self.y0 && other.y1 <= self.y1
    }

    /// Returns `true` when the interiors overlap (shared edges do not count).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// The overlapping region, if any.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        Rect::new(
            self.x0.max(other.x0),
            self.y0.max(other.y0),
            self.x1.min(other.x1),
            self.y1.min(other.y1),
        )
        .ok()
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub fn bounding_union(&self, other: &Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Rectangle grown by `margin` on every side.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::EmptyRect`] when a negative margin collapses
    /// the rectangle.
    pub fn inflate(&self, margin: Coord) -> Result<Rect, GeometryError> {
        Rect::new(
            self.x0 - margin,
            self.y0 - margin,
            self.x1 + margin,
            self.y1 + margin,
        )
    }

    /// Translates the rectangle by `(dx, dy)`.
    pub fn translate(&self, dx: Coord, dy: Coord) -> Rect {
        Rect {
            x0: self.x0 + dx,
            y0: self.y0 + dy,
            x1: self.x1 + dx,
            y1: self.y1 + dy,
        }
    }

    /// Euclidean-free edge-to-edge separation along the axes: the horizontal
    /// and vertical gaps between `self` and `other` (zero when projections
    /// overlap).
    pub fn axis_gaps(&self, other: &Rect) -> (Coord, Coord) {
        let dx = if other.x0 >= self.x1 {
            other.x0 - self.x1
        } else if self.x0 >= other.x1 {
            self.x0 - other.x1
        } else {
            0
        };
        let dy = if other.y0 >= self.y1 {
            other.y0 - self.y1
        } else if self.y0 >= other.y1 {
            self.y0 - other.y1
        } else {
            0
        };
        (dx, dy)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}) x [{}, {})", self.x0, self.x1, self.y0, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_empty() {
        assert!(Rect::new(0, 0, 0, 10).is_err());
        assert!(Rect::new(0, 0, 10, 0).is_err());
        assert!(Rect::new(5, 5, 4, 9).is_err());
    }

    #[test]
    fn from_corners_normalises() {
        let r = Rect::from_corners(Point::new(10, 2), Point::new(3, 8)).unwrap();
        assert_eq!((r.x0(), r.y0(), r.x1(), r.y1()), (3, 2, 10, 8));
    }

    #[test]
    fn containment_is_half_open() {
        let r = Rect::new(0, 0, 10, 10).unwrap();
        assert!(r.contains(Point::new(0, 0)));
        assert!(!r.contains(Point::new(10, 0)));
        assert!(!r.contains(Point::new(0, 10)));
    }

    #[test]
    fn abutting_rects_do_not_intersect() {
        let a = Rect::new(0, 0, 10, 10).unwrap();
        let b = Rect::new(10, 0, 20, 10).unwrap();
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
        assert_eq!(a.axis_gaps(&b), (0, 0));
    }

    #[test]
    fn intersection_area() {
        let a = Rect::new(0, 0, 10, 10).unwrap();
        let b = Rect::new(5, 5, 15, 15).unwrap();
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::new(5, 5, 10, 10).unwrap());
        assert_eq!(i.area(), 25);
    }

    #[test]
    fn gaps() {
        let a = Rect::new(0, 0, 10, 10).unwrap();
        let b = Rect::new(25, 40, 30, 50).unwrap();
        assert_eq!(a.axis_gaps(&b), (15, 30));
        assert_eq!(b.axis_gaps(&a), (15, 30));
    }

    #[test]
    fn inflate_and_translate() {
        let r = Rect::new(10, 10, 20, 20).unwrap();
        let g = r.inflate(5).unwrap();
        assert_eq!((g.x0(), g.y0(), g.x1(), g.y1()), (5, 5, 25, 25));
        assert!(r.inflate(-5).is_err());
        let t = r.translate(-10, 3);
        assert_eq!((t.x0(), t.y0(), t.x1(), t.y1()), (0, 13, 10, 23));
    }

    proptest! {
        #[test]
        fn intersection_commutes(
            ax0 in -100i64..100, ay0 in -100i64..100, aw in 1i64..50, ah in 1i64..50,
            bx0 in -100i64..100, by0 in -100i64..100, bw in 1i64..50, bh in 1i64..50,
        ) {
            let a = Rect::new(ax0, ay0, ax0 + aw, ay0 + ah).unwrap();
            let b = Rect::new(bx0, by0, bx0 + bw, by0 + bh).unwrap();
            prop_assert_eq!(a.intersection(&b), b.intersection(&a));
            prop_assert_eq!(a.intersects(&b), a.intersection(&b).is_some());
        }

        #[test]
        fn bounding_union_contains_both(
            ax0 in -100i64..100, ay0 in -100i64..100, aw in 1i64..50, ah in 1i64..50,
            bx0 in -100i64..100, by0 in -100i64..100, bw in 1i64..50, bh in 1i64..50,
        ) {
            let a = Rect::new(ax0, ay0, ax0 + aw, ay0 + ah).unwrap();
            let b = Rect::new(bx0, by0, bx0 + bw, by0 + bh).unwrap();
            let u = a.bounding_union(&b);
            prop_assert!(u.contains_rect(&a));
            prop_assert!(u.contains_rect(&b));
        }
    }
}
