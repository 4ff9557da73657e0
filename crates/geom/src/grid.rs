//! A uniform-grid spatial index over a fixed set of points.

use crate::Point;

/// A uniform-grid spatial index over a fixed point set.
///
/// The charging-graph construction in the paper needs, for every sensor
/// `v`, the set `N_c(v)` of sensors within the charging radius `γ`. A
/// naive all-pairs scan is O(n²); with up to 1 200 sensors per instance and
/// hundreds of instances per experiment that cost is felt. `GridIndex`
/// sorts points into square cells of a caller-chosen size (pick the
/// typical query radius) so a radius query touches only the O(1) cells
/// overlapping the query disk.
///
/// The layout is compressed sparse rows: one offsets array over the
/// cells (row-major), the point indices counting-sorted by cell
/// (ascending within a cell), and a copy of the points in that same
/// order. A radius query scans each row of overlapping cells as one
/// contiguous range, so it visits hits row by row, cell by cell, and
/// by ascending index within a cell. The cell table never exceeds
/// `max(4n, 4096)` entries: on a sparse field the cell is doubled until
/// it fits, which keeps memory O(n) and every answer exact.
///
/// Points are addressed by their index in the slice passed to
/// [`GridIndex::build`]; the index never stores the points' identities
/// beyond that.
///
/// # Example
///
/// ```
/// use wrsn_geom::{GridIndex, Point};
/// let pts = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(9.0, 9.0)];
/// let idx = GridIndex::build(&pts, 2.7);
/// let mut hits = idx.within(Point::new(1.0, 0.0), 1.5);
/// hits.sort_unstable();
/// assert_eq!(hits, vec![0, 1]);
/// assert_eq!(idx.nearest(Point::new(8.0, 8.0)), Some(2));
/// ```
#[derive(Clone, Debug)]
pub struct GridIndex {
    cell: f64,
    min: Point,
    nx: usize,
    ny: usize,
    /// Cell `c = cy * nx + cx` holds `ids[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    /// Point indices in cell order, ascending within a cell.
    ids: Vec<u32>,
    /// `pts[k]` is the point `ids[k]`.
    pts: Vec<Point>,
}

impl GridIndex {
    /// Builds an index over `pts` with square cells of side `cell_size`,
    /// doubled as often as it takes to keep the cell table within
    /// `max(4n, 4096)` entries.
    ///
    /// Choose `cell_size` close to the most common query radius; the
    /// paper's charging radius `γ = 2.7 m` is a good choice for sensor
    /// fields.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite, if
    /// any point is non-finite, or if there are more than `u32::MAX`
    /// points.
    pub fn build(pts: &[Point], cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive and finite"
        );
        assert!(pts.iter().all(|p| p.is_finite()), "points must be finite");
        assert!(u32::try_from(pts.len()).is_ok(), "at most u32::MAX points");

        if pts.is_empty() {
            return GridIndex {
                cell: cell_size,
                min: Point::ORIGIN,
                nx: 0,
                ny: 0,
                start: vec![0],
                ids: Vec::new(),
                pts: Vec::new(),
            };
        }

        let min = Point::new(
            pts.iter().map(|p| p.x).fold(f64::INFINITY, f64::min),
            pts.iter().map(|p| p.y).fold(f64::INFINITY, f64::min),
        );
        let max = Point::new(
            pts.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max),
            pts.iter().map(|p| p.y).fold(f64::NEG_INFINITY, f64::max),
        );
        let max_cells = (4 * pts.len()).max(4096) as f64;
        let along = |span: f64, cell: f64| (span / cell).floor() + 1.0;
        let mut cell = cell_size;
        while along(max.x - min.x, cell) * along(max.y - min.y, cell) > max_cells {
            cell *= 2.0;
        }
        let nx = along(max.x - min.x, cell) as usize;
        let ny = along(max.y - min.y, cell) as usize;
        let cell_of = |p: &Point| {
            let cx = ((p.x - min.x) / cell).floor() as usize;
            let cy = ((p.y - min.y) / cell).floor() as usize;
            cy * nx + cx
        };

        // Counting sort: count into start[c + 1], prefix-sum so start[c]
        // is cell c's first slot, fill by bumping start[c], then shift
        // the bumped ends back into starts.
        let cells = nx * ny;
        let mut start = vec![0u32; cells + 1];
        for p in pts {
            start[cell_of(p) + 1] += 1;
        }
        for c in 0..cells {
            start[c + 1] += start[c];
        }
        let mut ids = vec![0u32; pts.len()];
        let mut sorted = vec![Point::ORIGIN; pts.len()];
        for (i, p) in pts.iter().enumerate() {
            let slot = &mut start[cell_of(p)];
            ids[*slot as usize] = i as u32;
            sorted[*slot as usize] = *p;
            *slot += 1;
        }
        start.copy_within(0..cells, 1);
        start[0] = 0;
        GridIndex { cell, min, nx, ny, start, ids, pts: sorted }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// Returns `true` iff the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// Indices of all points within (inclusive) distance `r` of `q`.
    ///
    /// The result is in [`for_each_within`](Self::for_each_within)'s
    /// visit order. A point exactly at distance `r` is included
    /// (matching the paper's `d(u, v) ≤ γ` definition of the charging
    /// neighborhood).
    pub fn within(&self, q: Point, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_within(q, r, |i| out.push(i));
        out
    }

    /// Calls `f(i)` for every point `i` within distance `r` of `q`.
    ///
    /// Allocation-free variant of [`GridIndex::within`] for hot loops.
    /// Hits come row by row of cells (ascending `y`), cell by cell
    /// within a row (ascending `x`), and by ascending index within a
    /// cell; callers that sum floats over the hits rely on that order.
    pub fn for_each_within<F: FnMut(usize)>(&self, q: Point, r: f64, mut f: F) {
        self.for_each_within_dist2(q, r, |i, _| f(i));
    }

    /// Like [`for_each_within`](Self::for_each_within), in the same
    /// order, but also passes each hit's squared distance to `q`.
    pub fn for_each_within_dist2<F: FnMut(usize, f64)>(&self, q: Point, r: f64, mut f: F) {
        if self.pts.is_empty() || r.is_nan() || r < 0.0 {
            return;
        }
        let r2 = r * r;
        let (cx0, cy0, cx1, cy1) = self.cell_range(q, r);
        for cy in cy0..=cy1 {
            let row = cy * self.nx;
            let lo = self.start[row + cx0] as usize;
            let hi = self.start[row + cx1 + 1] as usize;
            for (p, &i) in self.pts[lo..hi].iter().zip(&self.ids[lo..hi]) {
                let d2 = p.dist2(q);
                if d2 <= r2 {
                    f(i as usize, d2);
                }
            }
        }
    }

    /// Counts the points within distance `r` of `q`.
    pub fn count_within(&self, q: Point, r: f64) -> usize {
        let mut n = 0;
        self.for_each_within(q, r, |_| n += 1);
        n
    }

    /// Index of the point nearest to `q`, or `None` if the index is empty.
    ///
    /// Ties are broken toward the lowest index. The search expands ring by
    /// ring from the query cell, so it stays cheap even on sparse inputs.
    pub fn nearest(&self, q: Point) -> Option<usize> {
        if self.pts.is_empty() {
            return None;
        }
        let mut best: Option<(f64, usize)> = None;
        // Expand the search radius ring by ring until a hit is certain.
        let max_ring = self.nx.max(self.ny);
        let qc = self.clamped_cell(q);
        for ring in 0..=max_ring {
            self.for_each_in_ring(qc, ring, |k| {
                let (d2, i) = (self.pts[k].dist2(q), self.ids[k] as usize);
                match best {
                    Some((bd2, bi)) if d2 > bd2 || (d2 == bd2 && i >= bi) => {}
                    _ => best = Some((d2, i)),
                }
            });
            if let Some((bd2, _)) = best {
                // Any point in a further ring is at least `ring * cell -
                // diag_slack` away; stop once the found distance is safely
                // smaller than anything a further ring could offer.
                let safe = (ring as f64) * self.cell;
                if bd2.sqrt() <= safe {
                    break;
                }
            }
        }
        best.map(|(_, i)| i)
    }

    fn clamped_cell(&self, q: Point) -> (usize, usize) {
        let cx = ((q.x - self.min.x) / self.cell).floor();
        let cy = ((q.y - self.min.y) / self.cell).floor();
        let cx = cx.clamp(0.0, (self.nx - 1) as f64) as usize;
        let cy = cy.clamp(0.0, (self.ny - 1) as f64) as usize;
        (cx, cy)
    }

    fn cell_range(&self, q: Point, r: f64) -> (usize, usize, usize, usize) {
        let lo_x = ((q.x - r - self.min.x) / self.cell).floor().max(0.0) as usize;
        let lo_y = ((q.y - r - self.min.y) / self.cell).floor().max(0.0) as usize;
        let hi_x = (((q.x + r - self.min.x) / self.cell).floor().max(0.0) as usize)
            .min(self.nx.saturating_sub(1));
        let hi_y = (((q.y + r - self.min.y) / self.cell).floor().max(0.0) as usize)
            .min(self.ny.saturating_sub(1));
        (lo_x.min(self.nx.saturating_sub(1)), lo_y.min(self.ny.saturating_sub(1)), hi_x, hi_y)
    }

    /// Calls `f(k)` for every slot `k` of the cells on the square ring
    /// `ring` cells out from `(cx, cy)`.
    fn for_each_in_ring<F: FnMut(usize)>(&self, (cx, cy): (usize, usize), ring: usize, mut f: F) {
        let x0 = cx.saturating_sub(ring);
        let y0 = cy.saturating_sub(ring);
        let x1 = (cx + ring).min(self.nx - 1);
        let y1 = (cy + ring).min(self.ny - 1);
        for y in y0..=y1 {
            for x in x0..=x1 {
                // Only the boundary of the square ring; the interior was
                // visited in earlier rings.
                let on_ring = y == y0 && cy >= ring
                    || y == y1 && cy + ring < self.ny
                    || x == x0 && cx >= ring
                    || x == x1 && cx + ring < self.nx
                    || ring == 0
                    // Clamped rings (near the boundary) degrade to full
                    // squares; re-visiting is correct, just slower.
                    || cx < ring
                    || cy < ring
                    || cx + ring > self.nx - 1
                    || cy + ring > self.ny - 1;
                if on_ring {
                    let c = y * self.nx + x;
                    (self.start[c] as usize..self.start[c + 1] as usize).for_each(&mut f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bucket grid the CSR index replaced: one `Vec` per cell over
    /// the points in input order. Kept as the reference for the visit
    /// order and the nearest-neighbour answers.
    struct BucketGrid {
        pts: Vec<Point>,
        cell: f64,
        min: Point,
        nx: usize,
        ny: usize,
        buckets: Vec<Vec<u32>>,
    }

    impl BucketGrid {
        fn build(pts: &[Point], cell: f64) -> Self {
            let min = Point::new(
                pts.iter().map(|p| p.x).fold(f64::INFINITY, f64::min),
                pts.iter().map(|p| p.y).fold(f64::INFINITY, f64::min),
            );
            let max = Point::new(
                pts.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max),
                pts.iter().map(|p| p.y).fold(f64::NEG_INFINITY, f64::max),
            );
            let nx = ((max.x - min.x) / cell).floor() as usize + 1;
            let ny = ((max.y - min.y) / cell).floor() as usize + 1;
            let mut buckets = vec![Vec::new(); nx * ny];
            for (i, p) in pts.iter().enumerate() {
                let cx = ((p.x - min.x) / cell).floor() as usize;
                let cy = ((p.y - min.y) / cell).floor() as usize;
                buckets[cy * nx + cx].push(i as u32);
            }
            BucketGrid { pts: pts.to_vec(), cell, min, nx, ny, buckets }
        }

        /// As a [`GridIndex`] over the same cells, so `cell_range`,
        /// `clamped_cell` and the ring walk are the shared geometry.
        fn frame(&self) -> GridIndex {
            GridIndex {
                cell: self.cell,
                min: self.min,
                nx: self.nx,
                ny: self.ny,
                start: Vec::new(),
                ids: Vec::new(),
                pts: Vec::new(),
            }
        }

        fn within(&self, q: Point, r: f64) -> Vec<usize> {
            let mut out = Vec::new();
            if r.is_nan() || r < 0.0 {
                return out;
            }
            let (cx0, cy0, cx1, cy1) = self.frame().cell_range(q, r);
            for cy in cy0..=cy1 {
                for cx in cx0..=cx1 {
                    for &i in &self.buckets[cy * self.nx + cx] {
                        if self.pts[i as usize].dist2(q) <= r * r {
                            out.push(i as usize);
                        }
                    }
                }
            }
            out
        }

        fn nearest(&self, q: Point) -> usize {
            let frame = self.frame();
            let qc = frame.clamped_cell(q);
            let mut best: Option<(f64, usize)> = None;
            for ring in 0..=self.nx.max(self.ny) {
                let (cx, cy) = qc;
                let (x0, y0) = (cx.saturating_sub(ring), cy.saturating_sub(ring));
                let (x1, y1) = ((cx + ring).min(self.nx - 1), (cy + ring).min(self.ny - 1));
                for y in y0..=y1 {
                    for x in x0..=x1 {
                        let on_ring = y == y0 && cy >= ring
                            || y == y1 && cy + ring < self.ny
                            || x == x0 && cx >= ring
                            || x == x1 && cx + ring < self.nx
                            || ring == 0
                            || cx < ring
                            || cy < ring
                            || cx + ring > self.nx - 1
                            || cy + ring > self.ny - 1;
                        if !on_ring {
                            continue;
                        }
                        for &i in &self.buckets[y * self.nx + x] {
                            let (d2, i) = (self.pts[i as usize].dist2(q), i as usize);
                            match best {
                                Some((bd2, bi)) if d2 > bd2 || (d2 == bd2 && i >= bi) => {}
                                _ => best = Some((d2, i)),
                            }
                        }
                    }
                }
                if let Some((bd2, _)) = best {
                    if bd2.sqrt() <= ring as f64 * self.cell {
                        break;
                    }
                }
            }
            best.expect("nonempty").1
        }
    }

    /// Points drawn either anywhere in a box or on a lattice of pitch
    /// `cell` (so on cell edges), with some repeated exactly.
    fn arb_cloud() -> impl Strategy<Value = (Vec<Point>, f64)> {
        (
            proptest::collection::vec((-50.0f64..150.0, -50.0f64..150.0), 1..90),
            proptest::collection::vec(0usize..1_000, 0..12),
            0.05f64..25.0,
            any::<bool>(),
        )
            .prop_map(|(xy, dups, cell, lattice)| {
                let mut pts: Vec<Point> = xy
                    .into_iter()
                    .map(|(x, y)| {
                        if lattice {
                            Point::new((x / 10.0).floor() * cell, (y / 10.0).floor() * cell)
                        } else {
                            Point::new(x, y)
                        }
                    })
                    .collect();
                for d in dups {
                    pts.push(pts[d % pts.len()]);
                }
                (pts, cell)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Radius queries visit exactly the bucket grid's sequence: rows
        /// ascending, cells ascending, indices ascending. Radii of 0 and
        /// of exactly one cell edge, and centres far outside the points'
        /// box, are drawn as often as free radii.
        #[test]
        fn within_visits_in_bucket_order(
            cloud in arb_cloud(),
            q in (-300.0f64..400.0, -300.0f64..400.0),
            kind in 0usize..3,
            free_r in 0.0f64..60.0,
            on_point in any::<bool>(),
        ) {
            let (pts, cell) = cloud;
            let idx = GridIndex::build(&pts, cell);
            let reference = BucketGrid::build(&pts, idx.cell);
            let q = if on_point { pts[(q.0.abs() as usize) % pts.len()] } else { Point::new(q.0, q.1) };
            let r = [0.0, idx.cell, free_r][kind];
            let mut seen = Vec::new();
            idx.for_each_within_dist2(q, r, |i, d2| {
                assert_eq!(d2.to_bits(), pts[i].dist2(q).to_bits());
                seen.push(i);
            });
            prop_assert_eq!(&seen, &reference.within(q, r));
            let mut sorted = seen;
            sorted.sort_unstable();
            let want: Vec<usize> =
                (0..pts.len()).filter(|&i| pts[i].dist2(q) <= r * r).collect();
            prop_assert_eq!(sorted, want);
        }

        /// `nearest` answers what the bucket grid answers, tie-break
        /// included, and the cell table stays within its bound.
        #[test]
        fn nearest_matches_bucket_grid(
            cloud in arb_cloud(),
            q in (-300.0f64..400.0, -300.0f64..400.0),
        ) {
            let (pts, cell) = cloud;
            let idx = GridIndex::build(&pts, cell);
            prop_assert!(idx.start.len() - 1 <= (4 * pts.len()).max(4096));
            let reference = BucketGrid::build(&pts, idx.cell);
            let q = Point::new(q.0, q.1);
            prop_assert_eq!(idx.nearest(q), Some(reference.nearest(q)));
        }
    }

    #[test]
    fn cell_table_is_bounded_on_a_sparse_field() {
        // Three points over 10⁶ m with 10 m cells would need 10¹⁰ cells.
        let pts = [Point::new(0.0, 0.0), Point::new(1e6, 1e6), Point::new(3.0, 4.0)];
        let idx = GridIndex::build(&pts, 10.0);
        assert!(idx.start.len() - 1 <= 4096, "{} cells", idx.start.len() - 1);
        for (q, r) in [
            (Point::ORIGIN, 5.0),
            (Point::ORIGIN, 4.999),
            (Point::new(1e6, 1e6), 0.0),
            (Point::new(5e5, 5e5), 1e6),
            (Point::new(-7.0, 2.0), 10.0),
        ] {
            let mut got = idx.within(q, r);
            got.sort_unstable();
            assert_eq!(got, brute_within(&pts, q, r), "query {q} r={r}");
        }
        assert_eq!(idx.nearest(Point::new(1.0, 1.0)), Some(0));
        assert_eq!(idx.nearest(Point::new(3.0, 3.0)), Some(2));
        assert_eq!(idx.nearest(Point::new(7e5, 9e5)), Some(1));
        assert_eq!(idx.nearest(Point::new(-1e9, 0.0)), Some(0));
    }

    fn brute_within(pts: &[Point], q: Point, r: f64) -> Vec<usize> {
        let mut v: Vec<usize> =
            (0..pts.len()).filter(|&i| pts[i].dist2(q) <= r * r).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_index() {
        let idx = GridIndex::build(&[], 1.0);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.within(Point::ORIGIN, 10.0).is_empty());
        assert_eq!(idx.nearest(Point::ORIGIN), None);
    }

    #[test]
    fn single_point() {
        let idx = GridIndex::build(&[Point::new(5.0, 5.0)], 2.0);
        assert_eq!(idx.within(Point::new(5.0, 5.0), 0.0), vec![0]);
        assert_eq!(idx.nearest(Point::new(100.0, -100.0)), Some(0));
    }

    #[test]
    fn within_matches_brute_force_on_grid_of_points() {
        let mut pts = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                pts.push(Point::new(i as f64 * 0.7, j as f64 * 0.7));
            }
        }
        let idx = GridIndex::build(&pts, 2.7);
        for &(qx, qy, r) in
            &[(0.0, 0.0, 2.7), (7.0, 7.0, 1.0), (13.3, 0.1, 5.0), (-3.0, -3.0, 4.0)]
        {
            let q = Point::new(qx, qy);
            let mut got = idx.within(q, r);
            got.sort_unstable();
            assert_eq!(got, brute_within(&pts, q, r), "query {q} r={r}");
        }
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let pts = [Point::new(0.0, 0.0), Point::new(2.7, 0.0)];
        let idx = GridIndex::build(&pts, 2.7);
        let mut hits = idx.within(Point::new(0.0, 0.0), 2.7);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn negative_radius_returns_nothing() {
        let idx = GridIndex::build(&[Point::ORIGIN], 1.0);
        assert!(idx.within(Point::ORIGIN, -1.0).is_empty());
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new((i * 37 % 100) as f64, (i * 53 % 100) as f64))
            .collect();
        let idx = GridIndex::build(&pts, 5.0);
        for &(qx, qy) in &[(0.0, 0.0), (50.0, 50.0), (99.0, 1.0), (-20.0, 120.0)] {
            let q = Point::new(qx, qy);
            let want = (0..pts.len())
                .min_by(|&a, &b| pts[a].dist2(q).partial_cmp(&pts[b].dist2(q)).unwrap())
                .unwrap();
            let got = idx.nearest(q).unwrap();
            assert_eq!(
                pts[got].dist2(q),
                pts[want].dist2(q),
                "nearest distance mismatch at {q}"
            );
        }
    }

    #[test]
    fn count_within_matches_within_len() {
        let pts: Vec<Point> =
            (0..30).map(|i| Point::new(i as f64 % 6.0, (i / 6) as f64)).collect();
        let idx = GridIndex::build(&pts, 1.5);
        let q = Point::new(2.0, 2.0);
        assert_eq!(idx.count_within(q, 2.0), idx.within(q, 2.0).len());
    }

    #[test]
    #[should_panic(expected = "cell_size")]
    fn zero_cell_size_panics() {
        let _ = GridIndex::build(&[Point::ORIGIN], 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_point_panics() {
        let _ = GridIndex::build(&[Point::new(f64::NAN, 0.0)], 1.0);
    }

    #[test]
    fn coincident_points_all_reported() {
        let pts = vec![Point::new(1.0, 1.0); 5];
        let idx = GridIndex::build(&pts, 2.0);
        assert_eq!(idx.within(Point::new(1.0, 1.0), 0.0).len(), 5);
    }

    #[test]
    fn nearest_from_far_outside_the_grid() {
        let pts: Vec<Point> =
            (0..10).map(|i| Point::new(i as f64, 0.0)).collect();
        let idx = GridIndex::build(&pts, 1.0);
        assert_eq!(idx.nearest(Point::new(-1000.0, 1000.0)), Some(0));
        assert_eq!(idx.nearest(Point::new(1000.0, -1000.0)), Some(9));
    }

    #[test]
    fn single_row_and_single_column_grids() {
        // Degenerate bounding boxes exercise the ring-search clamping.
        let row: Vec<Point> = (0..20).map(|i| Point::new(i as f64 * 3.0, 5.0)).collect();
        let idx = GridIndex::build(&row, 2.0);
        let mut got = idx.within(Point::new(30.0, 5.0), 4.0);
        got.sort_unstable();
        assert_eq!(got, brute_within(&row, Point::new(30.0, 5.0), 4.0));
        let col: Vec<Point> = (0..20).map(|i| Point::new(5.0, i as f64 * 3.0)).collect();
        let idx = GridIndex::build(&col, 2.0);
        let mut got = idx.within(Point::new(5.0, 30.0), 4.0);
        got.sort_unstable();
        assert_eq!(got, brute_within(&col, Point::new(5.0, 30.0), 4.0));
    }

    #[test]
    fn tiny_cells_on_spread_points_still_answer() {
        // A very small cell size creates a huge sparse grid; queries must
        // stay correct (if slow).
        let pts = vec![Point::new(0.0, 0.0), Point::new(50.0, 50.0)];
        let idx = GridIndex::build(&pts, 0.6);
        assert_eq!(idx.count_within(Point::new(0.0, 0.0), 1.0), 1);
        assert_eq!(idx.nearest(Point::new(49.0, 49.0)), Some(1));
    }
}
