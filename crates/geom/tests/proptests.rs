//! Property-based tests for `wrsn-geom`.

use proptest::prelude::*;
use wrsn_geom::{dist_matrix, GridIndex, Point, Rect};

fn arb_point() -> impl Strategy<Value = Point> {
    (-100.0f64..200.0, -100.0f64..200.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(arb_point(), 0..max)
}

proptest! {
    /// d(a, b) = d(b, a) and d(a, a) = 0.
    #[test]
    fn distance_symmetry(a in arb_point(), b in arb_point()) {
        prop_assert!((a.dist(b) - b.dist(a)).abs() < 1e-12);
        prop_assert_eq!(a.dist(a), 0.0);
    }

    /// Triangle inequality holds up to floating-point slack.
    #[test]
    fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
    }

    /// The grid index returns exactly the brute-force answer for radius queries.
    #[test]
    fn grid_within_equals_brute_force(
        pts in arb_points(120),
        q in arb_point(),
        r in 0.0f64..80.0,
        cell in 0.5f64..20.0,
    ) {
        let idx = GridIndex::build(&pts, cell);
        let mut got = idx.within(q, r);
        got.sort_unstable();
        let want: Vec<usize> =
            (0..pts.len()).filter(|&i| pts[i].dist2(q) <= r * r).collect();
        prop_assert_eq!(got, want);
    }

    /// The grid index's nearest neighbor is at the true minimum distance.
    #[test]
    fn grid_nearest_is_true_minimum(
        pts in arb_points(80).prop_filter("nonempty", |v| !v.is_empty()),
        q in arb_point(),
        cell in 0.5f64..20.0,
    ) {
        let idx = GridIndex::build(&pts, cell);
        let got = idx.nearest(q).expect("nonempty index");
        let best = pts.iter().map(|p| p.dist2(q)).fold(f64::INFINITY, f64::min);
        prop_assert!((pts[got].dist2(q) - best).abs() < 1e-9);
    }

    /// The distance matrix is symmetric with a zero diagonal, and matches
    /// pointwise distances.
    #[test]
    fn dist_matrix_consistent(pts in arb_points(40)) {
        let m = dist_matrix(&pts);
        for i in 0..pts.len() {
            prop_assert_eq!(m[i][i], 0.0);
            for j in 0..pts.len() {
                prop_assert_eq!(m[i][j], m[j][i]);
                prop_assert!((m[i][j] - pts[i].dist(pts[j])).abs() < 1e-12);
            }
        }
    }

    /// Clamping puts any point inside the rectangle, and is the identity on
    /// points already inside.
    #[test]
    fn rect_clamp_contains(p in arb_point(), side in 0.0f64..150.0) {
        let r = Rect::square(side);
        let c = r.clamp(p);
        prop_assert!(r.contains(c));
        if r.contains(p) {
            prop_assert_eq!(c, p);
        }
    }
}
