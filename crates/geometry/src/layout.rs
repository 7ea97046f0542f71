use crate::{BitGrid, Coord, GeometryError, Rect};

/// A single-layer layout: a clip window plus a set of non-overlapping
/// rectangles inside it.
///
/// Layout patterns in the paper are 2048x2048 nm² clips of a full-chip
/// metal-layer map. `Layout` is the raw-geometry form from which squish
/// patterns (paper Fig. 2) are extracted, and back into which legalized
/// patterns are restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    window: Rect,
    rects: Vec<Rect>,
}

impl Layout {
    /// Creates an empty layout over the clip `window`.
    pub fn new(window: Rect) -> Self {
        Layout {
            window,
            rects: Vec::new(),
        }
    }

    /// The clip window.
    pub fn window(&self) -> Rect {
        self.window
    }

    /// The rectangles, in insertion order.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Number of rectangles.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// `true` when the layout holds no shapes.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Adds a rectangle, clipping it to the window. Rectangles fully outside
    /// the window are dropped.
    pub fn push(&mut self, rect: Rect) {
        if let Some(clipped) = rect.intersection(&self.window) {
            self.rects.push(clipped);
        }
    }

    /// Adds a rectangle that must lie entirely inside the window.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::OutOfBounds`] when the rectangle leaves the
    /// window.
    pub fn push_strict(&mut self, rect: Rect) -> Result<(), GeometryError> {
        if !self.window.contains_rect(&rect) {
            return Err(GeometryError::OutOfBounds);
        }
        self.rects.push(rect);
        Ok(())
    }

    /// Total shape area (rectangles are assumed disjoint).
    pub fn shape_area(&self) -> i128 {
        self.rects.iter().map(Rect::area).sum()
    }

    /// The scan lines of the layout: the sorted, deduplicated x and y
    /// coordinates of every rectangle edge plus the window edges
    /// (paper Fig. 2). The interval lengths between adjacent scan lines are
    /// the squish-pattern Δ vectors.
    pub fn scan_lines(&self) -> (Vec<Coord>, Vec<Coord>) {
        let mut xs = vec![self.window.x0(), self.window.x1()];
        let mut ys = vec![self.window.y0(), self.window.y1()];
        for r in &self.rects {
            xs.push(r.x0());
            xs.push(r.x1());
            ys.push(r.y0());
            ys.push(r.y1());
        }
        xs.sort_unstable();
        xs.dedup();
        ys.sort_unstable();
        ys.dedup();
        (xs, ys)
    }

    /// Rasterizes the layout onto the grid induced by the scan lines:
    /// cell `(i, j)` is filled when the region between scan lines
    /// `xs[i]..xs[i+1]` and `ys[j]..ys[j+1]` is covered by a rectangle.
    ///
    /// # Panics
    ///
    /// Panics when `xs` or `ys` has fewer than two entries or is unsorted.
    pub fn rasterize(&self, xs: &[Coord], ys: &[Coord]) -> BitGrid {
        assert!(xs.len() >= 2 && ys.len() >= 2, "need at least one cell");
        assert!(xs.windows(2).all(|w| w[0] < w[1]), "xs must be sorted");
        assert!(ys.windows(2).all(|w| w[0] < w[1]), "ys must be sorted");
        let mut grid = BitGrid::new(xs.len() - 1, ys.len() - 1).expect("validated non-empty");
        for r in &self.rects {
            // Rect edges are always on scan lines, so binary search is exact.
            let c0 = xs.partition_point(|&x| x < r.x0());
            let c1 = xs.partition_point(|&x| x < r.x1());
            let r0 = ys.partition_point(|&y| y < r.y0());
            let r1 = ys.partition_point(|&y| y < r.y1());
            grid.fill_cells(c0, r0, c1, r1);
        }
        grid
    }

    /// Extracts the sub-layout inside `clip`, translated so the clip's
    /// bottom-left corner becomes the origin. Shapes are cut at the clip
    /// boundary, exactly like splitting a full-chip map into tiles
    /// (paper §IV-A).
    pub fn clip(&self, clip: Rect) -> Layout {
        let window = Rect::new(0, 0, clip.width(), clip.height()).expect("positive extent");
        let mut out = Layout::new(window);
        for r in &self.rects {
            if let Some(cut) = r.intersection(&clip) {
                out.rects.push(cut.translate(-clip.x0(), -clip.y0()));
            }
        }
        out
    }

    /// Merges abutting/overlapping rectangles into a canonical maximal
    /// horizontal-slab decomposition. Useful to normalise generator output
    /// before DRC.
    pub fn normalized(&self) -> Layout {
        let (xs, ys) = self.scan_lines();
        let grid = self.rasterize(&xs, &ys);
        let mut out = Layout::new(self.window);
        // Horizontal maximal slabs per row of the scan grid.
        for row in 0..grid.height() {
            let mut col = 0;
            while col < grid.width() {
                if grid.get(col, row) {
                    let start = col;
                    while col < grid.width() && grid.get(col, row) {
                        col += 1;
                    }
                    let rect = Rect::new(xs[start], ys[row], xs[col], ys[row + 1])
                        .expect("scan cells are non-empty");
                    out.rects.push(rect);
                } else {
                    col += 1;
                }
            }
        }
        // Merge vertically-stacked slabs with identical x extents.
        out.rects.sort_by_key(|r| (r.x0(), r.x1(), r.y0()));
        let mut merged: Vec<Rect> = Vec::with_capacity(out.rects.len());
        for r in out.rects.drain(..) {
            match merged.last_mut() {
                Some(last) if last.x0() == r.x0() && last.x1() == r.x1() && last.y1() == r.y0() => {
                    *last = Rect::new(last.x0(), last.y0(), last.x1(), r.y1())
                        .expect("merged rect is non-empty");
                }
                _ => merged.push(r),
            }
        }
        out.rects = merged;
        out
    }
}

impl Extend<Rect> for Layout {
    fn extend<T: IntoIterator<Item = Rect>>(&mut self, iter: T) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(w: Coord, h: Coord) -> Rect {
        Rect::new(0, 0, w, h).unwrap()
    }

    #[test]
    fn scan_lines_include_window_edges() {
        let l = Layout::new(window(100, 100));
        let (xs, ys) = l.scan_lines();
        assert_eq!(xs, vec![0, 100]);
        assert_eq!(ys, vec![0, 100]);
    }

    #[test]
    fn push_clips_to_window() {
        let mut l = Layout::new(window(100, 100));
        l.push(Rect::new(-50, 10, 50, 20).unwrap());
        assert_eq!(l.rects()[0], Rect::new(0, 10, 50, 20).unwrap());
        l.push(Rect::new(200, 200, 300, 300).unwrap());
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn push_strict_rejects_out_of_window() {
        let mut l = Layout::new(window(100, 100));
        assert!(l.push_strict(Rect::new(-1, 0, 10, 10).unwrap()).is_err());
        assert!(l.push_strict(Rect::new(0, 0, 10, 10).unwrap()).is_ok());
    }

    #[test]
    fn rasterize_matches_figure_2() {
        // Mirror of the crate-level doc example.
        let mut l = Layout::new(window(100, 100));
        l.push(Rect::new(10, 10, 40, 90).unwrap());
        l.push(Rect::new(60, 10, 90, 90).unwrap());
        let (xs, ys) = l.scan_lines();
        let g = l.rasterize(&xs, &ys);
        assert_eq!((g.width(), g.height()), (5, 3));
        assert!(g.get(1, 1) && g.get(3, 1));
        assert!(!g.get(0, 1) && !g.get(2, 1) && !g.get(4, 1));
        assert!(!g.get(1, 0) && !g.get(1, 2));
    }

    #[test]
    fn clip_translates_to_origin() {
        let mut l = Layout::new(window(200, 200));
        l.push(Rect::new(90, 90, 130, 110).unwrap());
        let tile = l.clip(Rect::new(100, 100, 200, 200).unwrap());
        assert_eq!(tile.window(), window(100, 100));
        assert_eq!(tile.rects()[0], Rect::new(0, 0, 30, 10).unwrap());
    }

    #[test]
    fn shape_area_sums() {
        let mut l = Layout::new(window(100, 100));
        l.push(Rect::new(0, 0, 10, 10).unwrap());
        l.push(Rect::new(20, 0, 30, 10).unwrap());
        assert_eq!(l.shape_area(), 200);
    }

    #[test]
    fn normalized_merges_abutting_rects() {
        let mut l = Layout::new(window(100, 100));
        l.push(Rect::new(0, 0, 10, 10).unwrap());
        l.push(Rect::new(10, 0, 20, 10).unwrap());
        l.push(Rect::new(0, 10, 20, 20).unwrap());
        let n = l.normalized();
        assert_eq!(n.len(), 1);
        assert_eq!(n.rects()[0], Rect::new(0, 0, 20, 20).unwrap());
        assert_eq!(n.shape_area(), l.shape_area());
    }

    #[test]
    fn normalized_preserves_area_for_overlaps() {
        let mut l = Layout::new(window(100, 100));
        l.push(Rect::new(0, 0, 20, 20).unwrap());
        l.push(Rect::new(10, 10, 30, 30).unwrap());
        let n = l.normalized();
        // 400 + 400 - 100 overlap = 700
        assert_eq!(n.shape_area(), 700);
    }

    #[test]
    fn extend_collects() {
        let mut l = Layout::new(window(50, 50));
        l.extend(vec![
            Rect::new(0, 0, 10, 10).unwrap(),
            Rect::new(20, 20, 30, 30).unwrap(),
        ]);
        assert_eq!(l.len(), 2);
    }
}
