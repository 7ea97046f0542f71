use crate::{BitGrid, Coord, Point};

/// A closed rectilinear (Manhattan) polygon given as an ordered vertex loop.
///
/// Outer boundaries are counter-clockwise (positive signed area); hole
/// boundaries are clockwise. Consecutive vertices always differ in exactly
/// one coordinate. The LayouTransformer baseline (paper ref. \[9\]) models layout
/// patterns as sequences of such polygons, decomposed into vertices and
/// directed edges; [`RectilinearPolygon::edge_tokens`] produces exactly that
/// decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RectilinearPolygon {
    vertices: Vec<Point>,
}

/// A unit move along a polygon boundary, the token alphabet of the
/// LayouTransformer baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeToken {
    /// Move right by a positive distance.
    Right(Coord),
    /// Move up by a positive distance.
    Up(Coord),
    /// Move left by a positive distance.
    Left(Coord),
    /// Move down by a positive distance.
    Down(Coord),
}

impl RectilinearPolygon {
    /// Builds a polygon from a vertex loop.
    ///
    /// The loop is normalised: collinear intermediate vertices are removed
    /// and the final vertex is not a repeat of the first.
    ///
    /// # Panics
    ///
    /// Panics when fewer than 4 vertices remain after normalisation or when
    /// two consecutive vertices are not axis-aligned.
    pub fn new(mut vertices: Vec<Point>) -> Self {
        if vertices.last() == vertices.first() && vertices.len() > 1 {
            vertices.pop();
        }
        let vertices = remove_collinear(vertices);
        assert!(
            vertices.len() >= 4,
            "rectilinear polygon needs at least 4 vertices"
        );
        for i in 0..vertices.len() {
            let a = vertices[i];
            let b = vertices[(i + 1) % vertices.len()];
            assert!(
                a.is_axis_aligned_with(b) && a != b,
                "consecutive vertices must differ along exactly one axis"
            );
        }
        RectilinearPolygon { vertices }
    }

    /// The vertex loop (no repeated closing vertex).
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Never true for a valid polygon; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Twice the signed area (shoelace). Positive for counter-clockwise.
    pub fn signed_area_doubled(&self) -> i128 {
        let n = self.vertices.len();
        let mut acc: i128 = 0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            acc += a.x as i128 * b.y as i128 - b.x as i128 * a.y as i128;
        }
        acc
    }

    /// Absolute enclosed area in nm².
    pub fn area(&self) -> i128 {
        self.signed_area_doubled().abs() / 2
    }

    /// `true` for counter-clockwise (outer boundary) orientation.
    pub fn is_ccw(&self) -> bool {
        self.signed_area_doubled() > 0
    }

    /// Total boundary length.
    pub fn perimeter(&self) -> Coord {
        let n = self.vertices.len();
        (0..n)
            .map(|i| self.vertices[i].manhattan_distance(self.vertices[(i + 1) % n]))
            .sum()
    }

    /// Axis-aligned bounding box corners `(min, max)`.
    pub fn bounding_box(&self) -> (Point, Point) {
        let mut min = self.vertices[0];
        let mut max = self.vertices[0];
        for v in &self.vertices {
            min.x = min.x.min(v.x);
            min.y = min.y.min(v.y);
            max.x = max.x.max(v.x);
            max.y = max.y.max(v.y);
        }
        (min, max)
    }

    /// Decomposes the boundary into directed edge tokens starting from the
    /// lexicographically smallest vertex, the canonical sequence form used
    /// by the LayouTransformer baseline.
    pub fn edge_tokens(&self) -> Vec<EdgeToken> {
        let n = self.vertices.len();
        let start = (0..n)
            .min_by_key(|&i| (self.vertices[i].x, self.vertices[i].y))
            .expect("non-empty polygon");
        let mut tokens = Vec::with_capacity(n);
        for k in 0..n {
            let a = self.vertices[(start + k) % n];
            let b = self.vertices[(start + k + 1) % n];
            let token = if b.x > a.x {
                EdgeToken::Right(b.x - a.x)
            } else if b.x < a.x {
                EdgeToken::Left(a.x - b.x)
            } else if b.y > a.y {
                EdgeToken::Up(b.y - a.y)
            } else {
                EdgeToken::Down(a.y - b.y)
            };
            tokens.push(token);
        }
        tokens
    }

    /// Reconstructs a polygon from edge tokens anchored at `origin`.
    ///
    /// Returns `None` when the token walk does not close.
    pub fn from_edge_tokens(origin: Point, tokens: &[EdgeToken]) -> Option<Self> {
        let mut vertices = vec![origin];
        let mut cur = origin;
        for t in tokens {
            cur = match *t {
                EdgeToken::Right(d) => Point::new(cur.x + d, cur.y),
                EdgeToken::Left(d) => Point::new(cur.x - d, cur.y),
                EdgeToken::Up(d) => Point::new(cur.x, cur.y + d),
                EdgeToken::Down(d) => Point::new(cur.x, cur.y - d),
            };
            vertices.push(cur);
        }
        if vertices.last() != vertices.first() || vertices.len() < 5 {
            return None;
        }
        vertices.pop();
        let vertices = remove_collinear(vertices);
        if vertices.len() < 4 {
            return None;
        }
        Some(RectilinearPolygon { vertices })
    }
}

fn remove_collinear(vertices: Vec<Point>) -> Vec<Point> {
    let n = vertices.len();
    if n < 3 {
        return vertices;
    }
    let mut keep = Vec::with_capacity(n);
    for i in 0..n {
        let prev = vertices[(i + n - 1) % n];
        let cur = vertices[i];
        let next = vertices[(i + 1) % n];
        let collinear =
            (prev.x == cur.x && cur.x == next.x) || (prev.y == cur.y && cur.y == next.y);
        if !collinear {
            keep.push(cur);
        }
    }
    keep
}

/// Traces all boundary loops of the filled region in `grid`, with cell
/// `(c, r)` occupying the unit square `[c, c+1) x [r, r+1)`.
///
/// Outer boundaries come out counter-clockwise, holes clockwise. At
/// bow-tie points the tracer takes the sharpest left turn so loops remain
/// simple and deterministic.
///
/// ```
/// use dp_geometry::{BitGrid, polygons_of_grid};
/// let g = BitGrid::from_ascii("##\n##").unwrap();
/// let polys = polygons_of_grid(&g);
/// assert_eq!(polys.len(), 1);
/// assert_eq!(polys[0].area(), 4);
/// ```
pub fn polygons_of_grid(grid: &BitGrid) -> Vec<RectilinearPolygon> {
    use std::collections::HashMap;

    // Directed boundary edges keeping the filled region on the left.
    let mut outgoing: HashMap<Point, Vec<Point>> = HashMap::new();
    let filled = |c: isize, r: isize| -> bool {
        c >= 0
            && r >= 0
            && (c as usize) < grid.width()
            && (r as usize) < grid.height()
            && grid.get(c as usize, r as usize)
    };
    for r in 0..grid.height() as isize {
        for c in 0..grid.width() as isize {
            if !filled(c, r) {
                continue;
            }
            let (c64, r64) = (c as i64, r as i64);
            if !filled(c, r - 1) {
                outgoing
                    .entry(Point::new(c64, r64))
                    .or_default()
                    .push(Point::new(c64 + 1, r64));
            }
            if !filled(c + 1, r) {
                outgoing
                    .entry(Point::new(c64 + 1, r64))
                    .or_default()
                    .push(Point::new(c64 + 1, r64 + 1));
            }
            if !filled(c, r + 1) {
                outgoing
                    .entry(Point::new(c64 + 1, r64 + 1))
                    .or_default()
                    .push(Point::new(c64, r64 + 1));
            }
            if !filled(c - 1, r) {
                outgoing
                    .entry(Point::new(c64, r64 + 1))
                    .or_default()
                    .push(Point::new(c64, r64));
            }
        }
    }

    let mut loops = Vec::new();
    // Deterministic iteration: pull starting points in sorted order.
    let mut starts: Vec<Point> = outgoing.keys().copied().collect();
    starts.sort();
    for start in starts {
        // Not a `while let`: the binding is re-checked after interior
        // mutation and the empty case needs cleanup before breaking.
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(nexts) = outgoing.get_mut(&start) else {
                break;
            };
            if nexts.is_empty() {
                outgoing.remove(&start);
                break;
            }
            nexts.sort();
            let first_next = nexts.pop().expect("non-empty");
            let mut loop_points = vec![start, first_next];
            let mut prev = start;
            let mut cur = first_next;
            while cur != start {
                let candidates = outgoing
                    .get_mut(&cur)
                    .expect("boundary edges always chain into loops");
                let dir_in = cur - prev;
                // Prefer the sharpest left turn: left, straight, right.
                let preference = |next: Point| -> u8 {
                    let dir_out = next - cur;
                    let cross = dir_in.x * dir_out.y - dir_in.y * dir_out.x;
                    if cross > 0 {
                        0 // left turn
                    } else if cross == 0 {
                        1 // straight
                    } else {
                        2 // right turn
                    }
                };
                let best = (0..candidates.len())
                    .min_by_key(|&i| (preference(candidates[i]), candidates[i]))
                    .expect("boundary edges always chain into loops");
                let next = candidates.swap_remove(best);
                if candidates.is_empty() {
                    outgoing.remove(&cur);
                }
                loop_points.push(next);
                prev = cur;
                cur = next;
            }
            loop_points.pop(); // drop repeated start
            loops.push(RectilinearPolygon::new(
                loop_points.into_iter().collect::<Vec<_>>(),
            ));
        }
    }
    loops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_square() {
        let g = BitGrid::from_ascii("#").unwrap();
        let polys = polygons_of_grid(&g);
        assert_eq!(polys.len(), 1);
        assert_eq!(polys[0].area(), 1);
        assert!(polys[0].is_ccw());
        assert_eq!(polys[0].perimeter(), 4);
        assert_eq!(polys[0].len(), 4);
    }

    #[test]
    fn l_shape() {
        let g = BitGrid::from_ascii(
            "#.
             ##",
        )
        .unwrap();
        let polys = polygons_of_grid(&g);
        assert_eq!(polys.len(), 1);
        assert_eq!(polys[0].area(), 3);
        assert_eq!(polys[0].len(), 6);
        assert!(polys[0].is_ccw());
    }

    #[test]
    fn two_bars_two_polygons() {
        let g = BitGrid::from_ascii(
            "#.#
             #.#",
        )
        .unwrap();
        let polys = polygons_of_grid(&g);
        assert_eq!(polys.len(), 2);
        assert!(polys.iter().all(|p| p.area() == 2));
    }

    #[test]
    fn donut_has_hole() {
        let g = BitGrid::from_ascii(
            "###
             #.#
             ###",
        )
        .unwrap();
        let polys = polygons_of_grid(&g);
        assert_eq!(polys.len(), 2);
        let outer = polys.iter().find(|p| p.is_ccw()).unwrap();
        let hole = polys.iter().find(|p| !p.is_ccw()).unwrap();
        assert_eq!(outer.area(), 9);
        assert_eq!(hole.area(), 1);
    }

    #[test]
    fn edge_token_round_trip() {
        let g = BitGrid::from_ascii(
            "##.
             ###
             .##",
        )
        .unwrap();
        for poly in polygons_of_grid(&g) {
            let tokens = poly.edge_tokens();
            let origin = *poly
                .vertices()
                .iter()
                .min_by_key(|v| (v.x, v.y))
                .expect("non-empty");
            let rebuilt = RectilinearPolygon::from_edge_tokens(origin, &tokens)
                .expect("tokens close the loop");
            assert_eq!(rebuilt.area(), poly.area());
            assert_eq!(rebuilt.perimeter(), poly.perimeter());
        }
    }

    #[test]
    fn from_edge_tokens_rejects_open_walk() {
        let tokens = [EdgeToken::Right(2), EdgeToken::Up(2), EdgeToken::Left(1)];
        assert!(RectilinearPolygon::from_edge_tokens(Point::ORIGIN, &tokens).is_none());
    }

    #[test]
    fn collinear_vertices_are_removed() {
        let p = RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(1, 0),
            Point::new(2, 0),
            Point::new(2, 2),
            Point::new(0, 2),
        ]);
        assert_eq!(p.len(), 4);
        assert_eq!(p.area(), 4);
    }

    #[test]
    fn areas_sum_matches_cell_count_for_simple_regions() {
        let g = BitGrid::from_ascii(
            "###..
             ###..
             ..###
             ..###",
        )
        .unwrap();
        let polys = polygons_of_grid(&g);
        // Two overlapping-corner rectangles share a corner point; the
        // pre-filter would reject this, but tracing must still terminate and
        // conserve area.
        let total: i128 = polys
            .iter()
            .map(|p| if p.is_ccw() { p.area() } else { -p.area() })
            .sum();
        assert_eq!(total, g.count_ones() as i128);
    }
}
