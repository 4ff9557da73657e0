//! Dense pairwise-distance storage and the [`Metric`] abstraction.
//!
//! Every layer above geometry — MST, Christofides, TSP improvement, the
//! min–max tour splitter, the planners, the simulators — consumes
//! pairwise distances. A tour kernel reads the same pairs many times, so
//! [`DistanceMatrix`] computes each entry once into a flat row-major
//! table. A kernel's table with the depot appended as the last index is
//! filled the same way, in one [`DistanceMatrix::from_fn`] pass;
//! [`VirtualNodeMetric`] is that layout as a borrowed view over a table
//! without the depot.
//!
//! [`Metric`] is the index-based distance abstraction the algorithm
//! crate's cores are generic over: a nested `Vec<Vec<f64>>`, a slice of
//! rows, and a flat [`DistanceMatrix`] all satisfy it, so callers can
//! hand whichever representation they already have without a copy.
//!
//! Bit-exactness contract: entry `(i, j)` of
//! `DistanceMatrix::from_points` is `pts[i].dist(pts[j])`, computed for
//! each ordered pair, with a `+0.0` diagonal. `Point::dist` is
//! bit-symmetric (negating both coordinate deltas leaves their squares
//! unchanged), so the table equals [`crate::dist_matrix`]'s mirrored one
//! bit for bit.

use crate::Point;

/// Hard ceiling on dense materialization: [`DistanceMatrix::from_points`]
/// refuses point sets larger than this (the flat table would exceed
/// 32 GiB). Callers that might legitimately exceed it must stay on an
/// on-demand distance source.
pub const DENSE_HARD_LIMIT: usize = 65_536;

/// Index-based symmetric distance lookup.
///
/// `at(i, j)` must be defined for all `i, j < len()`. Implementations
/// are expected (not enforced) to be symmetric with a zero diagonal.
pub trait Metric {
    /// Number of indexed points.
    fn len(&self) -> usize;

    /// Distance between points `i` and `j`.
    fn at(&self, i: usize, j: usize) -> f64;

    /// True iff the metric indexes no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
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

/// A dense symmetric pairwise-distance table in one flat allocation.
///
/// Stores the full `n × n` grid (both triangles) so `at` is a single
/// multiply-add index with no branch on `i ≶ j`.
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
}

impl DistanceMatrix {
    /// Builds the Euclidean distance matrix of `pts`: entry `(i, j)` is
    /// `pts[i].dist(pts[j])`, matching [`crate::dist_matrix`] bit for
    /// bit (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `pts.len()` exceeds [`DENSE_HARD_LIMIT`] — a clear
    /// failure, before any allocation, instead of a doomed multi-GiB one.
    /// Keep huge instances on an on-demand distance source.
    pub fn from_points(pts: &[Point]) -> DistanceMatrix {
        assert!(
            pts.len() <= DENSE_HARD_LIMIT,
            "point set too large for a dense matrix; use a sparse distance source"
        );
        Self::from_fn(pts.len(), |i, j| pts[i].dist(pts[j]))
    }

    /// Builds an `n × n` matrix from an entry function, row by row:
    /// `f(i, j)` is called once for every ordered pair `i ≠ j`, in
    /// row-major order, and the diagonal is `+0.0` without a call. Each
    /// entry is written once, in order, so filling a table larger than
    /// the cache makes no strided writes. The result is symmetric iff
    /// `f` is.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut f: F) -> DistanceMatrix {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            data.extend((0..i).map(|j| f(i, j)));
            data.push(0.0);
            data.extend((i + 1..n).map(|j| f(i, j)));
        }
        DistanceMatrix { n, data }
    }

    /// Copies any [`Metric`] into a flat table entry by entry — all `n²`
    /// entries, the diagonal included, with no symmetry assumed (the copy
    /// is symmetric only if `m` is) — so `at(i, j)` returns the source's
    /// value bit for bit, at the cost of one index multiply-add instead
    /// of the source's own lookup.
    pub fn from_metric<M: Metric + ?Sized>(m: &M) -> DistanceMatrix {
        let n = m.len();
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            data.extend((0..n).map(|j| m.at(i, j)));
        }
        DistanceMatrix { n, data }
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

    #[test]
    fn from_fn_calls_both_orders_row_major_and_never_the_diagonal() {
        let n = 5;
        let mut calls = Vec::new();
        // Asymmetric, and -0.0 on the diagonal should it ever be asked.
        let m = DistanceMatrix::from_fn(n, |i, j| {
            calls.push((i, j));
            if i == j {
                -0.0
            } else {
                (10 * i + j) as f64
            }
        });
        let off_diagonal: Vec<(usize, usize)> =
            (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).filter(|(i, j)| i != j).collect();
        assert_eq!(calls, off_diagonal);
        for i in 0..n {
            assert_eq!(m.at(i, i).to_bits(), 0.0f64.to_bits(), "diagonal is +0.0");
            for j in (0..n).filter(|&j| j != i) {
                assert_eq!(m.at(i, j), (10 * i + j) as f64);
            }
        }
        assert!(Metric::is_empty(&DistanceMatrix::from_fn(0, |_, _| unreachable!())));
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
