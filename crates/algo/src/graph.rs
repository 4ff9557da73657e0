//! Compact undirected graphs.

use wrsn_geom::{GridIndex, Point};

/// An undirected graph over vertices `0..n`, stored as sorted adjacency
/// lists.
///
/// The paper builds two graphs per instance: the *charging graph* `G_c`
/// (sensors adjacent iff within charging range `γ`) and the *auxiliary
/// graph* `H` over an independent set (adjacent iff charging disks
/// intersect, i.e. within `2γ`). Both are unit-disk graphs, built here
/// with a grid index in near-linear time.
///
/// # Example
///
/// ```
/// use wrsn_algo::Graph;
/// use wrsn_geom::Point;
///
/// let pts = [Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(9.0, 0.0)];
/// let g = Graph::unit_disk(&pts, 2.0);
/// assert_eq!(g.neighbors(0), &[1]);
/// assert_eq!(g.degree(2), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
    edges: usize,
}

impl Graph {
    /// An edgeless graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Graph { adj: vec![Vec::new(); n], edges: 0 }
    }

    /// Builds a graph from an edge list over vertices `0..n`.
    ///
    /// Self-loops and duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = Graph::empty(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// The unit-disk graph of `pts`: vertices `i` and `j` are adjacent
    /// iff `dist(pts[i], pts[j]) <= radius` (boundary inclusive, matching
    /// the paper's `d(u,v) ≤ γ`).
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or non-finite.
    pub fn unit_disk(pts: &[Point], radius: f64) -> Self {
        assert!(radius.is_finite() && radius >= 0.0, "radius must be non-negative");
        let mut g = Graph::empty(pts.len());
        if pts.is_empty() {
            return g;
        }
        let idx = GridIndex::build(pts, radius.max(1e-9));
        for (i, p) in pts.iter().enumerate() {
            idx.for_each_within(*p, radius, |j| {
                if j > i {
                    g.add_edge(i, j);
                }
            });
        }
        g
    }

    /// Adds the undirected edge `{u, v}` if absent; no-op for self-loops.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.len() && v < self.len(), "edge endpoint out of range");
        if u == v {
            return;
        }
        let (u32u, u32v) = (u as u32, v as u32);
        if let Err(pos) = self.adj[u].binary_search(&u32v) {
            self.adj[u].insert(pos, u32v);
            let pos_v = self.adj[v].binary_search(&u32u).unwrap_err();
            self.adj[v].insert(pos_v, u32u);
            self.edges += 1;
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Returns `true` iff the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Sorted neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Returns `true` iff `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].binary_search(&(v as u32)).is_ok()
    }

    /// Vertex ids of the connected component containing `start`.
    pub fn component_of(&self, start: usize) -> Vec<usize> {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![start];
        let mut out = Vec::new();
        seen[start] = true;
        while let Some(u) = stack.pop() {
            out.push(u);
            for &v in &self.adj[u] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v as usize);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        let mut seen = vec![false; self.len()];
        let mut count = 0;
        for s in 0..self.len() {
            if !seen[s] {
                count += 1;
                let mut stack = vec![s];
                seen[s] = true;
                while let Some(u) = stack.pop() {
                    for &v in &self.adj[u] {
                        if !seen[v as usize] {
                            seen[v as usize] = true;
                            stack.push(v as usize);
                        }
                    }
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.component_count(), 0);
    }

    #[test]
    fn from_edges_dedups_and_ignores_loops() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (1, 1), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn unit_disk_boundary_inclusive() {
        let pts = [Point::new(0.0, 0.0), Point::new(2.7, 0.0), Point::new(5.41, 0.0)];
        let g = Graph::unit_disk(&pts, 2.7);
        assert!(g.has_edge(0, 1)); // exactly γ apart: included
        assert!(!g.has_edge(1, 2)); // 2.71 apart: excluded
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn unit_disk_of_radius_zero_on_spread_points() {
        // Radius 0 indexes with 1e-9 m cells; the grid widens them
        // rather than allocating 5·10¹⁰ cells per axis.
        let pts = [Point::new(0.0, 0.0), Point::new(50.0, 50.0), Point::new(50.0, 50.0)];
        let g = Graph::unit_disk(&pts, 0.0);
        assert_eq!(g.len(), 3);
        assert!(g.has_edge(1, 2)); // coincident: distance 0 <= 0
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn unit_disk_matches_brute_force() {
        let pts: Vec<Point> = (0..60)
            .map(|i| Point::new((i * 17 % 40) as f64, (i * 31 % 40) as f64))
            .collect();
        let g = Graph::unit_disk(&pts, 6.5);
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                let expect = i != j && pts[i].dist(pts[j]) <= 6.5;
                assert_eq!(g.has_edge(i, j), expect, "edge ({i},{j})");
            }
        }
    }

    #[test]
    fn components() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
        assert_eq!(g.component_count(), 2);
        assert_eq!(g.component_of(0), vec![0, 1, 2]);
        assert_eq!(g.component_of(4), vec![3, 4]);
    }

    #[test]
    fn degrees() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = Graph::empty(2);
        g.add_edge(0, 5);
    }
}
