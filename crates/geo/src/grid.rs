//! Uniform-grid spatial index with radius queries.
//!
//! The meets computation (billboard influences trajectory iff some trajectory
//! point is within `λ` of the billboard) issues one radius query per
//! trajectory point against the set of billboard locations. A uniform grid
//! whose cell size matches the query radius keeps each query to a 3×3 cell
//! neighbourhood, which is optimal for the roughly uniform billboard
//! densities of both city models.

use crate::bbox::BoundingBox;
use crate::point::Point;

/// A static spatial index over a set of `(id, point)` pairs.
///
/// Built once from all billboard locations, then queried many times. Items
/// are bucketed into square cells of side `cell_size`; a radius query visits
/// only the cells overlapping the query disc's bounding square.
#[derive(Debug, Clone)]
pub struct GridIndex {
    bbox: BoundingBox,
    cell_size: f64,
    cols: usize,
    rows: usize,
    /// CSR-style layout: `starts[c]..starts[c+1]` indexes into `entries` for
    /// cell `c`, avoiding one `Vec` allocation per cell.
    starts: Vec<u32>,
    entries: Vec<(u32, Point)>,
}

impl GridIndex {
    /// Builds an index over `points`, where item `i` gets id `i as u32`.
    ///
    /// `cell_size` should be close to the typical query radius; it is clamped
    /// to a small positive minimum to keep the grid well-formed when callers
    /// pass degenerate values.
    pub fn build(points: &[Point], cell_size: f64) -> Self {
        let cell_size = cell_size.max(1e-6);
        let bbox = BoundingBox::covering(points.iter())
            .unwrap_or_else(|| BoundingBox::new(0.0, 0.0, 1.0, 1.0))
            // Expand slightly so max-edge points land strictly inside the
            // last cell after the floor() in cell_of.
            .expanded(cell_size * 0.5);
        let cols = ((bbox.width() / cell_size).ceil() as usize).max(1);
        let rows = ((bbox.height() / cell_size).ceil() as usize).max(1);
        let n_cells = cols * rows;

        // Counting sort into CSR layout: count, prefix-sum, scatter.
        let mut counts = vec![0u32; n_cells + 1];
        let cell_of = |p: &Point| -> usize {
            let cx = (((p.x - bbox.min_x) / cell_size) as usize).min(cols - 1);
            let cy = (((p.y - bbox.min_y) / cell_size) as usize).min(rows - 1);
            cy * cols + cx
        };
        for p in points {
            counts[cell_of(p) + 1] += 1;
        }
        for i in 0..n_cells {
            counts[i + 1] += counts[i];
        }
        let starts = counts.clone();
        let mut cursor = counts;
        let mut entries = vec![(0u32, Point::default()); points.len()];
        for (i, p) in points.iter().enumerate() {
            let c = cell_of(p);
            entries[cursor[c] as usize] = (i as u32, *p);
            cursor[c] += 1;
        }

        Self {
            bbox,
            cell_size,
            cols,
            rows,
            starts,
            entries,
        }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Grid dimensions `(cols, rows)` — exposed for diagnostics and tests.
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Invokes `f(id, point)` for every indexed item within `radius` metres
    /// (inclusive) of `center`.
    ///
    /// This is the hot path of the meets computation, so it takes a callback
    /// rather than allocating a result vector.
    #[inline]
    pub fn for_each_within<F: FnMut(u32, &Point)>(&self, center: &Point, radius: f64, mut f: F) {
        let r_sq = radius * radius;
        let min_cx = ((center.x - radius - self.bbox.min_x) / self.cell_size).floor();
        let max_cx = ((center.x + radius - self.bbox.min_x) / self.cell_size).floor();
        let min_cy = ((center.y - radius - self.bbox.min_y) / self.cell_size).floor();
        let max_cy = ((center.y + radius - self.bbox.min_y) / self.cell_size).floor();
        let min_cx = (min_cx.max(0.0) as usize).min(self.cols - 1);
        let max_cx = (max_cx.max(0.0) as usize).min(self.cols - 1);
        let min_cy = (min_cy.max(0.0) as usize).min(self.rows - 1);
        let max_cy = (max_cy.max(0.0) as usize).min(self.rows - 1);

        for cy in min_cy..=max_cy {
            let row = cy * self.cols;
            for cx in min_cx..=max_cx {
                let cell = row + cx;
                let lo = self.starts[cell] as usize;
                let hi = self.starts[cell + 1] as usize;
                for &(id, p) in &self.entries[lo..hi] {
                    if p.distance_sq(center) <= r_sq {
                        f(id, &p);
                    }
                }
            }
        }
    }

    /// Collects the ids of all items within `radius` of `center`, unsorted.
    pub fn query_within(&self, center: &Point, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |id, _| out.push(id));
        out
    }

    /// Returns the id and distance of the nearest item to `center`, if any.
    ///
    /// Searches in growing cell rings so typical queries touch few cells.
    pub fn nearest(&self, center: &Point) -> Option<(u32, f64)> {
        if self.entries.is_empty() {
            return None;
        }
        let mut radius = self.cell_size;
        let max_span = self.bbox.width().hypot(self.bbox.height()) + self.cell_size;
        loop {
            let mut best: Option<(u32, f64)> = None;
            self.for_each_within(center, radius, |id, p| {
                let d = p.distance(center);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((id, d));
                }
            });
            if let Some(found) = best {
                return Some(found);
            }
            if radius > max_span {
                // Fallback: scan everything (only reachable with pathological
                // boxes; keeps the method total).
                return self
                    .entries
                    .iter()
                    .map(|&(id, p)| (id, p.distance(center)))
                    .min_by(|a, b| a.1.total_cmp(&b.1));
            }
            radius *= 2.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn brute_force(points: &[Point], center: &Point, radius: f64) -> Vec<u32> {
        let mut v: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.within(center, radius))
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_index() {
        let g = GridIndex::build(&[], 100.0);
        assert!(g.is_empty());
        assert_eq!(
            g.query_within(&Point::new(0.0, 0.0), 1e9),
            Vec::<u32>::new()
        );
        assert_eq!(g.nearest(&Point::new(0.0, 0.0)), None);
    }

    #[test]
    fn single_point() {
        let g = GridIndex::build(&[Point::new(5.0, 5.0)], 10.0);
        assert_eq!(g.len(), 1);
        assert_eq!(g.query_within(&Point::new(5.0, 5.0), 0.0), vec![0]);
        assert_eq!(
            g.query_within(&Point::new(100.0, 5.0), 10.0),
            Vec::<u32>::new()
        );
        let (id, d) = g.nearest(&Point::new(8.0, 9.0)).unwrap();
        assert_eq!(id, 0);
        assert!((d - 5.0).abs() < 1e-9);
    }

    #[test]
    fn radius_query_matches_brute_force_on_random_points() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let points: Vec<Point> = (0..500)
            .map(|_| Point::new(rng.gen_range(0.0..5000.0), rng.gen_range(0.0..5000.0)))
            .collect();
        let g = GridIndex::build(&points, 100.0);
        for _ in 0..50 {
            let c = Point::new(rng.gen_range(-500.0..5500.0), rng.gen_range(-500.0..5500.0));
            let r = rng.gen_range(0.0..800.0);
            let mut got = g.query_within(&c, r);
            got.sort_unstable();
            assert_eq!(got, brute_force(&points, &c, r));
        }
    }

    #[test]
    fn boundary_point_is_included() {
        let points = [Point::new(0.0, 0.0), Point::new(100.0, 0.0)];
        let g = GridIndex::build(&points, 50.0);
        let got = g.query_within(&Point::new(0.0, 0.0), 100.0);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn duplicate_points_all_returned() {
        let p = Point::new(1.0, 1.0);
        let g = GridIndex::build(&[p, p, p], 10.0);
        assert_eq!(g.query_within(&p, 0.1).len(), 3);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let points: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.gen_range(0.0..2000.0), rng.gen_range(0.0..2000.0)))
            .collect();
        let g = GridIndex::build(&points, 75.0);
        for _ in 0..30 {
            let c = Point::new(rng.gen_range(-200.0..2200.0), rng.gen_range(-200.0..2200.0));
            let (_, got_d) = g.nearest(&c).unwrap();
            let want_d = points
                .iter()
                .map(|p| p.distance(&c))
                .fold(f64::INFINITY, f64::min);
            assert!((got_d - want_d).abs() < 1e-9, "nearest distance mismatch");
        }
    }

    #[test]
    fn query_far_outside_bbox_returns_empty() {
        let points = [Point::new(0.0, 0.0), Point::new(10.0, 10.0)];
        let g = GridIndex::build(&points, 5.0);
        assert!(g.query_within(&Point::new(1e7, 1e7), 100.0).is_empty());
        assert!(g.query_within(&Point::new(-1e7, -1e7), 100.0).is_empty());
    }

    #[test]
    fn collinear_points_degenerate_height() {
        // All points on one horizontal line: grid must still work with a
        // near-zero-height bounding box.
        let points: Vec<Point> = (0..20).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let g = GridIndex::build(&points, 25.0);
        let got = g.query_within(&Point::new(95.0, 0.0), 15.0);
        let want = brute_force(&points, &Point::new(95.0, 0.0), 15.0);
        let mut got = got;
        got.sort_unstable();
        assert_eq!(got, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_radius_query_equals_brute_force(
            pts in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 0..120),
            cx in -100.0..1100.0f64,
            cy in -100.0..1100.0f64,
            r in 0.0..500.0f64,
            cell in 1.0..300.0f64,
        ) {
            let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let g = GridIndex::build(&points, cell);
            let c = Point::new(cx, cy);
            let mut got = g.query_within(&c, r);
            got.sort_unstable();
            prop_assert_eq!(got, brute_force(&points, &c, r));
        }
    }
}
