//! 2-D geometry primitives and spatial indexing for the `wrsn` workspace.
//!
//! Everything in the ICDCS'19 charger-scheduling paper lives in a flat
//! Euclidean plane: sensors are points in a 100×100 m² field, an MCV's
//! charging range is a disk of radius `γ`, and tour costs are Euclidean
//! distances divided by the travel speed. This crate provides:
//!
//! - [`Point`]: a plain 2-D point with distance helpers,
//! - [`Rect`]: an axis-aligned rectangle (the monitoring field),
//! - [`GridIndex`]: a uniform-grid spatial index answering
//!   radius ("who is within `γ` of here?") and nearest-neighbor queries
//!   in expected near-constant time for the point densities the paper uses,
//! - [`dist_matrix`]: a dense pairwise distance matrix for tour algorithms,
//! - [`DistanceMatrix`] / [`Metric`]: a flat memoized distance table and
//!   the index-based lookup trait the algorithm layer is generic over.
//!
//! # Example
//!
//! ```
//! use wrsn_geom::{Point, GridIndex};
//!
//! let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(5.0, 5.0)];
//! let idx = GridIndex::build(&pts, 2.0);
//! let mut near = idx.within(Point::new(0.5, 0.0), 1.0);
//! near.sort_unstable();
//! assert_eq!(near, vec![0, 1]);
//! ```

mod grid;
mod matrix;
mod point;
mod rect;

pub use grid::GridIndex;
pub use matrix::{DistanceMatrix, MatrixTooLarge, Metric, VirtualNodeMetric, DENSE_HARD_LIMIT};
pub use point::{dist_matrix, Point};
pub use rect::Rect;
