//! Dense pairwise-distance storage and the [`Metric`] abstraction.
//!
//! Every layer above geometry — MST, Christofides, TSP improvement, the
//! min–max tour splitter, the planners, the simulators — consumes
//! pairwise distances. A tour kernel reads the same pairs many times, so
//! [`DistanceMatrix`] computes each entry once into a flat row-major
//! table. Every table built from points, the kernel's travel times with
//! the depot appended as the last point included, is filled the same
//! way, one row at a time, in one [`DistanceMatrix::travel_times`] pass;
//! [`VirtualNodeMetric`] is that layout as a borrowed view over a table
//! without the depot.
//!
//! [`Metric`] is the index-based distance abstraction the algorithm
//! crate's cores are generic over: a nested `Vec<Vec<f64>>`, a slice of
//! rows, and a flat [`DistanceMatrix`] all satisfy it, so callers can
//! hand whichever representation they already have without a copy.
//!
//! Bit-exactness contract: entry `(i, j)` of
//! `DistanceMatrix::travel_times(pts, speed)` is
//! `pts[i].dist(pts[j]) / speed`, computed for each ordered pair, the
//! diagonal included; for finite points and a positive speed the
//! diagonal is `+0.0`. `Point::dist` is bit-symmetric (negating both
//! coordinate deltas leaves their squares unchanged), so the table is
//! symmetric bit for bit ([`Metric::symmetric`]) and
//! `DistanceMatrix::from_points`, the table at speed `1.0`, equals
//! [`crate::dist_matrix`]'s mirrored one bit for bit.

use crate::Point;

/// Hard ceiling on dense materialization: [`DistanceMatrix::travel_times`]
/// and [`DistanceMatrix::from_points`] refuse point sets larger than this
/// (the flat table would exceed 32 GiB). Callers that might legitimately
/// exceed it must stay on an on-demand distance source.
pub const DENSE_HARD_LIMIT: usize = 65_536;

/// Index-based distance lookup.
///
/// `at(i, j)` must be defined for all `i, j < len()`. Implementations
/// are expected (not enforced) to be symmetric with a zero diagonal.
///
/// Symmetry contract: [`symmetric`](Metric::symmetric) returns `true`
/// only when `at(i, j)` and `at(j, i)` have the same bits for every
/// pair by construction, so a reader may take either. The provided
/// method returns `false`, which is always sound: a reader then reads
/// the pair the way it was asked for.
pub trait Metric {
    /// Number of indexed points.
    fn len(&self) -> usize;

    /// Distance between points `i` and `j`.
    fn at(&self, i: usize, j: usize) -> f64;

    /// True iff the metric indexes no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff `at(i, j).to_bits() == at(j, i).to_bits()` for every
    /// pair by construction (see the trait docs); `false` unless an
    /// implementation guarantees it.
    fn symmetric(&self) -> bool {
        false
    }
}

impl Metric for [Vec<f64>] {
    fn len(&self) -> usize {
        <[Vec<f64>]>::len(self)
    }

    fn at(&self, i: usize, j: usize) -> f64 {
        self[i][j]
    }
}

impl Metric for Vec<Vec<f64>> {
    fn len(&self) -> usize {
        <[Vec<f64>]>::len(self)
    }

    fn at(&self, i: usize, j: usize) -> f64 {
        self[i][j]
    }
}

/// A dense pairwise-distance table in one flat allocation.
///
/// Stores the full `n × n` grid (both triangles) so `at` is a single
/// multiply-add index with no branch on `i ≶ j`. A table filled from
/// points is [`symmetric`](Metric::symmetric); a
/// [`from_metric`](DistanceMatrix::from_metric) copy is not assumed to
/// be.
///
/// # Example
///
/// ```
/// use wrsn_geom::{DistanceMatrix, Metric, Point};
///
/// let pts = [Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
/// let m = DistanceMatrix::from_points(&pts);
/// assert_eq!(m.at(0, 1), 5.0);
/// assert_eq!(m.at(1, 0), 5.0);
/// assert_eq!(m.at(1, 1), 0.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
    /// Set when filled from points, where `at(i, j)` and `at(j, i)` are
    /// the same bits ([`Metric::symmetric`]).
    symmetric: bool,
}

impl DistanceMatrix {
    /// Builds the Euclidean distance matrix of `pts`: entry `(i, j)` is
    /// `pts[i].dist(pts[j])`, matching [`crate::dist_matrix`] bit for
    /// bit (see the module docs). The table of
    /// [`travel_times`](Self::travel_times) at speed `1.0`: dividing by
    /// one changes no bit.
    ///
    /// # Panics
    ///
    /// Panics if `pts.len()` exceeds [`DENSE_HARD_LIMIT`] — a clear
    /// failure, before any allocation, instead of a doomed multi-GiB one.
    /// Keep huge instances on an on-demand distance source.
    pub fn from_points(pts: &[Point]) -> DistanceMatrix {
        Self::travel_times(pts, 1.0)
    }

    /// Builds the travel-time table of `pts` at `speed`: entry `(i, j)`
    /// is `pts[i].dist(pts[j]) / speed`, for every ordered pair. Each row
    /// is one pass over the points with no index arithmetic, so the
    /// square roots and divisions vectorize, and each entry is written
    /// once, in order. The diagonal is `p.dist(p) / speed`, which is
    /// `+0.0` for a finite point and a positive speed. The table is
    /// [`symmetric`](Metric::symmetric): `Point::dist` is bit-symmetric.
    ///
    /// # Panics
    ///
    /// Panics if `pts.len()` exceeds [`DENSE_HARD_LIMIT`], before any
    /// allocation.
    pub fn travel_times(pts: &[Point], speed: f64) -> DistanceMatrix {
        assert!(
            pts.len() <= DENSE_HARD_LIMIT,
            "point set too large for a dense matrix; use a sparse distance source"
        );
        let mut data = Vec::with_capacity(pts.len() * pts.len());
        for &p in pts {
            data.extend(pts.iter().map(|&q| p.dist(q) / speed));
        }
        DistanceMatrix { n: pts.len(), data, symmetric: true }
    }

    /// Copies any [`Metric`] into a flat table entry by entry — all `n²`
    /// entries, the diagonal included, with no symmetry assumed (the copy
    /// is not [`symmetric`](Metric::symmetric), whatever `m` is) — so
    /// `at(i, j)` returns the source's value bit for bit, at the cost of
    /// one index multiply-add instead of the source's own lookup.
    pub fn from_metric<M: Metric + ?Sized>(m: &M) -> DistanceMatrix {
        let n = m.len();
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            data.extend((0..n).map(|j| m.at(i, j)));
        }
        DistanceMatrix { n, data, symmetric: false }
    }

    /// Row `i` as a slice (distances from `i` to every node).
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }
}

impl Metric for DistanceMatrix {
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    fn symmetric(&self) -> bool {
        self.symmetric
    }
}

/// A borrowed [`Metric`] view appending one virtual node (index
/// `inner.len()`) whose distance to node `i` is `extra[i]` and `+0.0` to
/// itself, without copying the base table: the "depot as virtual TSP
/// city" layout over any metric, dense or on-demand. A flat copy of it
/// ([`DistanceMatrix::from_metric`]) is the layout the tour kernel's
/// depot-extended tables use.
#[derive(Clone, Copy, Debug)]
pub struct VirtualNodeMetric<'a, M: ?Sized> {
    inner: &'a M,
    extra: &'a [f64],
}

impl<'a, M: Metric + ?Sized> VirtualNodeMetric<'a, M> {
    /// Wraps `inner` with the virtual node's distances `extra`.
    ///
    /// # Panics
    ///
    /// Panics if `extra.len() != inner.len()`.
    pub fn new(inner: &'a M, extra: &'a [f64]) -> Self {
        assert_eq!(extra.len(), inner.len(), "virtual node needs one distance per node");
        VirtualNodeMetric { inner, extra }
    }
}

impl<M: Metric + ?Sized> Metric for VirtualNodeMetric<'_, M> {
    fn len(&self) -> usize {
        self.inner.len() + 1
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        let n = self.inner.len();
        if i == n && j == n {
            0.0
        } else if i == n {
            self.extra[j]
        } else if j == n {
            self.extra[i]
        } else {
            self.inner.at(i, j)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_matrix;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn random_points(seed: u64, n: usize) -> Vec<Point> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect()
    }

    #[test]
    fn matches_nested_dist_matrix_to_zero_ulp() {
        for seed in 0..5u64 {
            let pts = random_points(seed, 40);
            let flat = DistanceMatrix::from_points(&pts);
            let nested = dist_matrix(&pts);
            for i in 0..pts.len() {
                for j in 0..pts.len() {
                    assert_eq!(
                        flat.at(i, j).to_bits(),
                        nested[i][j].to_bits(),
                        "entry ({i},{j}) differs from dist_matrix"
                    );
                    assert_eq!(
                        flat.at(i, j).to_bits(),
                        pts[i].dist(pts[j]).to_bits(),
                        "entry ({i},{j}) differs from Point::dist"
                    );
                }
            }
        }
    }

    /// The fill `travel_times` replaced: one call of an index closure
    /// per off-diagonal entry, row by row, and a `+0.0` diagonal written
    /// without one.
    fn indexed_fill(pts: &[Point], speed: f64) -> Vec<f64> {
        let n = pts.len();
        let f = |i: usize, j: usize| pts[i].dist(pts[j]) / speed;
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            data.extend((0..i).map(|j| f(i, j)));
            data.push(0.0);
            data.extend((i + 1..n).map(|j| f(i, j)));
        }
        data
    }

    proptest! {
        /// Every entry, the `+0.0` diagonal included, has the bits of
        /// `Point::dist / speed` and of the indexed fill, on point sets
        /// with coincident points, at speeds other than one.
        #[test]
        fn travel_times_equal_dist_over_speed_bit_for_bit(
            coords in proptest::collection::vec((-500.0f64..500.0, -500.0f64..500.0), 0..40),
            repeats in proptest::collection::vec(0usize..1_000, 0..10),
            fixed in 0usize..4,
            drawn in 1e-3f64..1e3,
        ) {
            let speed = [1.0, 0.7, 3.0, drawn][fixed];
            let mut pts: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
            for r in repeats.iter().filter(|_| !coords.is_empty()) {
                pts.push(pts[r % coords.len()]);
            }
            let m = DistanceMatrix::travel_times(&pts, speed);
            let reference = indexed_fill(&pts, speed);
            prop_assert_eq!(Metric::len(&m), pts.len());
            prop_assert!(m.symmetric());
            for (i, &p) in pts.iter().enumerate() {
                for (j, &q) in pts.iter().enumerate() {
                    let bits = m.at(i, j).to_bits();
                    prop_assert_eq!(bits, (p.dist(q) / speed).to_bits(), "({}, {})", i, j);
                    prop_assert_eq!(bits, reference[i * pts.len() + j].to_bits(), "({}, {})", i, j);
                }
                prop_assert_eq!(m.at(i, i).to_bits(), 0.0f64.to_bits(), "diagonal is +0.0");
            }
            if speed == 1.0 {
                prop_assert_eq!(&DistanceMatrix::from_points(&pts), &m);
            }
        }
    }

    #[test]
    fn only_point_filled_tables_claim_symmetry() {
        let pts = random_points(4, 6);
        let filled = DistanceMatrix::from_points(&pts);
        assert!(filled.symmetric());
        assert!(DistanceMatrix::travel_times(&pts, 2.5).symmetric());
        let copy = DistanceMatrix::from_metric(&filled);
        assert!(!copy.symmetric(), "a copy assumes nothing of its source");
        assert_ne!(copy, filled);
        assert!(!dist_matrix(&pts).symmetric());
        assert!(!VirtualNodeMetric::new(&filled, &[1.0; 6]).symmetric());
    }

    #[test]
    fn symmetric_with_zero_diagonal() {
        let pts = random_points(9, 30);
        let m = DistanceMatrix::from_points(&pts);
        for i in 0..pts.len() {
            assert_eq!(m.at(i, i), 0.0);
            for j in 0..pts.len() {
                assert_eq!(m.at(i, j).to_bits(), m.at(j, i).to_bits());
            }
        }
    }

    #[test]
    fn triangle_inequality_holds_within_rounding() {
        let pts = random_points(3, 25);
        let m = DistanceMatrix::from_points(&pts);
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                for k in 0..pts.len() {
                    assert!(
                        m.at(i, j) <= m.at(i, k) + m.at(k, j) + 1e-9,
                        "triangle inequality violated at ({i},{j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn virtual_node_is_last_index() {
        let pts = random_points(11, 6);
        let m = DistanceMatrix::from_points(&pts);
        let extra: Vec<f64> = (0..6).map(|i| i as f64 + 0.5).collect();
        let ext = VirtualNodeMetric::new(&m, &extra);
        assert_eq!(Metric::len(&ext), 7);
        for (i, &d) in extra.iter().enumerate() {
            assert_eq!(ext.at(i, 6), d);
            assert_eq!(ext.at(6, i), d);
            for j in 0..6 {
                assert_eq!(ext.at(i, j).to_bits(), m.at(i, j).to_bits());
            }
        }
        assert_eq!(ext.at(6, 6).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn metric_impls_agree() {
        let pts = random_points(1, 10);
        let flat = DistanceMatrix::from_points(&pts);
        let nested = dist_matrix(&pts);
        let slice: &[Vec<f64>] = &nested;
        assert_eq!(Metric::len(&nested), Metric::len(&flat));
        assert_eq!(Metric::len(slice), 10);
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(Metric::at(&nested, i, j).to_bits(), flat.at(i, j).to_bits());
                assert_eq!(Metric::at(slice, i, j).to_bits(), flat.at(i, j).to_bits());
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let m = DistanceMatrix::from_points(&[]);
        assert!(Metric::is_empty(&m));
        let one = DistanceMatrix::from_points(&[Point::new(1.0, 2.0)]);
        assert_eq!(Metric::len(&one), 1);
        assert_eq!(one.at(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "point set too large for a dense matrix")]
    fn from_points_refuses_beyond_hard_limit() {
        // The assert fires before the (DENSE_HARD_LIMIT + 1)² table is
        // allocated; only the 1 MiB point list exists.
        let _ = DistanceMatrix::from_points(&vec![Point::ORIGIN; DENSE_HARD_LIMIT + 1]);
    }

    #[test]
    fn from_metric_copies_every_entry_without_assuming_symmetry() {
        let asym: Vec<Vec<f64>> =
            vec![vec![0.0, 1.0, -0.0], vec![2.0, 0.5, 3.0], vec![f64::INFINITY, 4.0, 0.0]];
        let m = DistanceMatrix::from_metric(&asym);
        assert_eq!(Metric::len(&m), 3);
        for (i, row) in asym.iter().enumerate() {
            for (j, &x) in row.iter().enumerate() {
                assert_eq!(m.at(i, j).to_bits(), x.to_bits(), "({i},{j})");
            }
        }
        assert!(Metric::is_empty(&DistanceMatrix::from_metric(&Vec::<Vec<f64>>::new())));
    }

    #[test]
    #[should_panic(expected = "one distance per node")]
    fn virtual_node_view_rejects_length_mismatch() {
        let m = DistanceMatrix::from_points(&[Point::ORIGIN]);
        let _ = VirtualNodeMetric::new(&m, &[]);
    }
}
