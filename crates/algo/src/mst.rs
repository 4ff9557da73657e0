//! Prim's minimum spanning tree on a dense metric.

use wrsn_geom::Metric;

/// A minimum spanning tree of a complete graph given by a dense,
/// symmetric distance matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Mst {
    /// `parent[i]` is the tree parent of vertex `i`; the root's parent is
    /// itself.
    pub parent: Vec<usize>,
    /// Root vertex the tree was grown from.
    pub root: usize,
    /// Total edge weight.
    pub weight: f64,
}

impl Mst {
    /// Children lists, useful for preorder walks.
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for (v, &p) in self.parent.iter().enumerate() {
            if v != self.root {
                ch[p].push(v);
            }
        }
        ch
    }

    /// Depth-first preorder of the tree starting at the root. Children
    /// are visited in ascending index order, so the walk is deterministic.
    pub fn preorder(&self) -> Vec<usize> {
        if self.parent.is_empty() {
            return Vec::new();
        }
        let ch = self.children();
        let mut out = Vec::with_capacity(self.parent.len());
        let mut stack = vec![self.root];
        while let Some(u) = stack.pop() {
            out.push(u);
            // Push in reverse so the smallest-index child pops first.
            for &c in ch[u].iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

/// Computes the MST of the complete graph on `n = dist.len()` vertices
/// with Prim's algorithm, rooted at `root`, in O(n²) time.
///
/// # Panics
///
/// Panics if `dist` is not square or `root` is out of range.
///
/// # Example
///
/// ```
/// use wrsn_algo::mst::prim;
/// // Path metric 0 - 1 - 2 with unit steps.
/// let d = vec![
///     vec![0.0, 1.0, 2.0],
///     vec![1.0, 0.0, 1.0],
///     vec![2.0, 1.0, 0.0],
/// ];
/// let t = prim(&d, 0);
/// assert_eq!(t.weight, 2.0);
/// assert_eq!(t.preorder(), vec![0, 1, 2]);
/// ```
pub fn prim(dist: &[Vec<f64>], root: usize) -> Mst {
    let n = dist.len();
    assert!(dist.iter().all(|r| r.len() == n), "distance matrix must be square");
    prim_metric(dist, root)
}

/// [`prim`] over any [`Metric`]; same algorithm, same tie-breaking.
///
/// # Panics
///
/// Panics if `root` is out of range (non-empty metric).
pub(crate) fn prim_metric<M: Metric + ?Sized>(dist: &M, root: usize) -> Mst {
    let n = dist.len();
    if n == 0 {
        return Mst { parent: Vec::new(), root: 0, weight: 0.0 };
    }
    assert!(root < n, "root out of range");

    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    let mut parent = vec![root; n];
    best[root] = 0.0;
    let mut weight = 0.0;
    for _ in 0..n {
        let u = (0..n)
            .filter(|&v| !in_tree[v])
            .min_by(|&a, &b| best[a].partial_cmp(&best[b]).unwrap())
            .expect("some vertex remains");
        in_tree[u] = true;
        if u != root {
            weight += best[u];
        }
        for v in 0..n {
            if !in_tree[v] && dist.at(u, v) < best[v] {
                best[v] = dist.at(u, v);
                parent[v] = u;
            }
        }
    }
    Mst { parent, root, weight }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_geom::{dist_matrix, Point};

    #[test]
    fn single_vertex() {
        let t = prim(&[vec![0.0]], 0);
        assert_eq!(t.weight, 0.0);
        assert_eq!(t.preorder(), vec![0]);
    }

    #[test]
    fn empty() {
        let t = prim(&[], 0);
        assert_eq!(t.weight, 0.0);
        assert!(t.preorder().is_empty());
    }

    #[test]
    fn square_points_mst_weight() {
        // Unit square: MST weight 3.
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let t = prim(&dist_matrix(&pts), 0);
        assert!((t.weight - 3.0).abs() < 1e-12);
    }

    #[test]
    fn preorder_visits_each_vertex_once() {
        let pts: Vec<Point> =
            (0..25).map(|i| Point::new((i * 7 % 13) as f64, (i * 11 % 17) as f64)).collect();
        let t = prim(&dist_matrix(&pts), 3);
        let mut order = t.preorder();
        assert_eq!(order.len(), 25);
        assert_eq!(order[0], 3);
        order.sort_unstable();
        assert_eq!(order, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn mst_weight_leq_any_spanning_path() {
        let pts: Vec<Point> =
            (0..12).map(|i| Point::new((i * 31 % 29) as f64, (i * 17 % 23) as f64)).collect();
        let d = dist_matrix(&pts);
        let t = prim(&d, 0);
        // The identity-order Hamiltonian path is a spanning tree too.
        let path_w: f64 = (0..11).map(|i| d[i][i + 1]).sum();
        assert!(t.weight <= path_w + 1e-12);
    }

    #[test]
    #[should_panic(expected = "root out of range")]
    fn bad_root_panics() {
        let _ = prim(&[vec![0.0]], 2);
    }

    #[test]
    #[should_panic(expected = "must be square")]
    fn ragged_matrix_panics() {
        let _ = prim(&[vec![0.0, 1.0], vec![1.0]], 0);
    }
}
