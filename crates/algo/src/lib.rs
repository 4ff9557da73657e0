//! Graph and combinatorial substrate for the `wrsn` workspace.
//!
//! The ICDCS'19 charger-scheduling algorithm (and every baseline it is
//! compared against) is assembled from a handful of classic
//! sub-algorithms. This crate implements all of them from scratch:
//!
//! - [`Graph`]: a compact undirected adjacency-list graph, with a
//!   unit-disk constructor (the paper's charging graph `G_c`).
//! - [`maximal_independent_set`]: greedy MIS with pluggable vertex
//!   orderings (Algorithm 1, lines 2 and 4).
//! - [`mst`]: Prim's minimum spanning tree on a dense metric.
//! - [`tsp`]: closed-tour construction (nearest-neighbor, greedy-edge,
//!   MST preorder) and improvement (2-opt, Or-opt).
//! - [`ktour`]: min–max `K` rooted closed tours via TSP-tour splitting
//!   with node service times — the 5-approximation construction of
//!   Liang et al. used in Algorithm 1 line 5 and as the K-minMax
//!   baseline.
//! - [`assignment`]: the Hungarian algorithm (O(n³)) for the K-EDF
//!   baseline's group-to-charger assignment.
//! - [`kmeans`]: seeded k-means (k-means++ initialization) for the AA
//!   baseline's sensor partitioning.
//!
//! Everything operates on plain indices, `f64` matrices and
//! [`wrsn_geom::Point`]s, so the modules are reusable outside the
//! charging domain.

pub mod assignment;
pub mod christofides;
pub mod exact;
mod graph;
pub mod kmeans;
pub mod ktour;
pub mod matching;
mod mis;
pub mod mst;
pub mod tsp;

pub use graph::Graph;
pub use mis::{is_independent_set, is_maximal_independent_set, maximal_independent_set, MisOrder};
