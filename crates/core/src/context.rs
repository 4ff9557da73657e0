//! Shared per-instance geometry: the [`ProblemContext`].
//!
//! Every consumer of a charging instance — Appro, the baselines, the
//! conflict validator, both simulation engines — needs the same derived
//! geometry: travel times, depot distances, the coverage neighborhoods
//! `N_c⁺(v)` and the charging graph `G_c`. Before this layer existed each
//! consumer recomputed those from raw points on every use; the context
//! computes the depot distances, the neighborhoods and `G_c` **once**,
//! lazily, shares them behind an [`Arc`], and answers travel-time
//! queries from its points.
//!
//! # Ownership & invalidation
//!
//! A context is **immutable for the life of the instance**: it is built
//! from a fixed point set and parameter pair and never mutated — the
//! lazy [`OnceLock`] fields only move from "absent" to "present". There
//! is no invalidation protocol; when the underlying network changes
//! (new round, different request set), callers derive a fresh
//! [`subcontext`](ProblemContext::subcontext) or build a new root. This
//! is what makes the context safe to share across threads in the
//! parallel planner fan-out: readers never observe a partially-updated
//! table.
//!
//! # Dense vs sparse modes
//!
//! Both modes answer every query the same way: point queries
//! ([`ProblemContext::distance`], [`ProblemContext::travel_time`]) with a
//! direct [`Point::dist`], sub-instance tables
//! ([`ProblemContext::travel_time_matrix_for`]) filled from the gathered
//! points, and `N_c⁺(v)` from a grid index. No context holds an `n²`
//! table. The mode is a label plus one refusal: a forced
//! [`ContextMode::Dense`] fails at construction beyond the dense limit,
//! so a dense context never has more points than the limit.
//! [`ContextMode::Auto`] (the default) picks dense up to the
//! [`DEFAULT_DENSE_LIMIT`] and sparse above it. In both modes a
//! sub-instance table over more nodes than the limit is refused.
//!
//! # Bit-exactness
//!
//! All distances are **raw meters** straight from [`Point::dist`];
//! travel times divide by the speed, exactly as the pre-context code did
//! inline, so every derived quantity is bit-identical to the historical
//! computation. `Point::dist` is bit-symmetric (negating both coordinate
//! deltas leaves their squares unchanged), so a distance computed on
//! demand, in either order, equals entry `(a, b)` of
//! `wrsn_geom::dist_matrix`, and `dist / speed` equals that entry divided
//! by the speed. A subcontext's points are its parent's at the given
//! indices, with the same depot, so its distances are the parent's bit
//! for bit. The tests in this module and in
//! `crates/core/tests/proptests.rs` pin this.

use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use wrsn_algo::Graph;
use wrsn_geom::{DistanceMatrix, GridIndex, Point};
use wrsn_net::Network;

use crate::ChargingParams;

/// Default point-count threshold above which [`ContextMode::Auto`]
/// resolves to [`ContextMode::Sparse`] (4 096 points ≈ a 128 MiB dense
/// table).
pub const DEFAULT_DENSE_LIMIT: usize = 4096;

/// Error from a fallible [`ProblemContext`] accessor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContextError {
    /// A point index was `>=` the context's point count.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// Number of points in the context.
        len: usize,
    },
    /// A dense table was requested over more points than the dense
    /// limit allows (the allocation would be `len²` floats). Raised when
    /// [`ContextMode::Dense`] is forced on a too-large instance, and when
    /// [`travel_time_matrix_for`](ProblemContext::travel_time_matrix_for)
    /// is asked for a table over that many nodes.
    TooLarge {
        /// Number of points the dense table was requested over.
        len: usize,
        /// The threshold that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for ContextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContextError::IndexOutOfBounds { index, len } => {
                write!(f, "point index {index} out of range for context of {len} points")
            }
            ContextError::TooLarge { len, limit } => write!(
                f,
                "refused a dense table over {len} points, beyond the {limit}-point limit \
                 (shard the instance so each table fits, in auto or sparse mode)"
            ),
        }
    }
}

impl Error for ContextError {}

/// How large an instance a [`ProblemContext`] accepts. Both modes
/// answer every query from points; see the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ContextMode {
    /// An instance within the dense limit. Construction fails with
    /// [`ContextError::TooLarge`] beyond it.
    Dense,
    /// An instance of any size. A table over more nodes than the dense
    /// limit is still refused.
    Sparse,
    /// Pick [`Dense`](ContextMode::Dense) up to the dense limit and
    /// [`Sparse`](ContextMode::Sparse) above it. Never fails.
    #[default]
    Auto,
}

impl fmt::Display for ContextMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ContextMode::Dense => "dense",
            ContextMode::Sparse => "sparse",
            ContextMode::Auto => "auto",
        })
    }
}

impl FromStr for ContextMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(ContextMode::Dense),
            "sparse" => Ok(ContextMode::Sparse),
            "auto" => Ok(ContextMode::Auto),
            other => Err(format!("unknown context mode '{other}' (dense|sparse|auto)")),
        }
    }
}

/// Lazily-built, memoized geometry shared by everything that touches one
/// problem instance. See the [crate docs](crate).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use wrsn_core::{ChargingParams, ProblemContext};
/// use wrsn_geom::Point;
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(30.0, 0.0)];
/// let ctx = ProblemContext::new(Point::ORIGIN, pts, ChargingParams::default());
/// assert_eq!(ctx.neighbors(0), &[0, 1]); // within γ = 2.7 m, self inclusive
/// assert_eq!(ctx.travel_time(0, 1), 2.0); // 2 m at 1 m/s
/// assert_eq!(ctx.depot_travel_time(2), 30.0);
/// # let _ = Arc::clone(&ctx);
/// ```
#[derive(Debug)]
pub struct ProblemContext {
    depot: Point,
    points: Vec<Point>,
    gamma_m: f64,
    speed_mps: f64,
    /// The resolved mode: [`ContextMode::Dense`] or
    /// [`ContextMode::Sparse`], never [`ContextMode::Auto`].
    mode: ContextMode,
    /// Point-count threshold for [`ContextMode::Auto`] resolution, the
    /// forced-dense refusal and the
    /// [`travel_time_matrix_for`](Self::travel_time_matrix_for) guard.
    dense_limit: usize,
    /// Raw depot→point distances, meters.
    depot_dist: OnceLock<Vec<f64>>,
    /// `neighbors[i]` = sorted indices within `γ` of point `i`,
    /// inclusive of `i`: the paper's `N_c⁺(v)`.
    neighbors: OnceLock<Vec<Vec<u32>>>,
    /// The charging graph `G_c` (edge iff within `γ`, no self-loops).
    charging_graph: OnceLock<Graph>,
}

impl ProblemContext {
    /// Builds a root context over explicit points in
    /// [`ContextMode::Auto`]: dense up to [`DEFAULT_DENSE_LIMIT`]
    /// points, sparse above it.
    pub fn new(depot: Point, points: Vec<Point>, params: ChargingParams) -> Arc<Self> {
        Self::with_mode(depot, points, params, ContextMode::Auto)
            .expect("auto context mode is infallible")
    }

    /// [`new`](Self::new) with an explicit [`ContextMode`].
    ///
    /// # Errors
    ///
    /// Returns [`ContextError::TooLarge`] when [`ContextMode::Dense`] is
    /// forced on more than [`DEFAULT_DENSE_LIMIT`] points.
    pub fn with_mode(
        depot: Point,
        points: Vec<Point>,
        params: ChargingParams,
        mode: ContextMode,
    ) -> Result<Arc<Self>, ContextError> {
        Self::with_mode_and_limit(depot, points, params, mode, DEFAULT_DENSE_LIMIT)
    }

    /// [`with_mode`](Self::with_mode) with a caller-chosen dense limit
    /// (the threshold both for [`ContextMode::Auto`] resolution and for
    /// rejecting a forced [`ContextMode::Dense`]).
    ///
    /// # Errors
    ///
    /// Returns [`ContextError::TooLarge`] when [`ContextMode::Dense`] is
    /// forced on more than `dense_limit` points.
    pub fn with_mode_and_limit(
        depot: Point,
        points: Vec<Point>,
        params: ChargingParams,
        mode: ContextMode,
        dense_limit: usize,
    ) -> Result<Arc<Self>, ContextError> {
        if mode == ContextMode::Dense && points.len() > dense_limit {
            return Err(ContextError::TooLarge { len: points.len(), limit: dense_limit });
        }
        Ok(Self::build(depot, points, params.gamma_m, params.speed_mps, mode, dense_limit))
    }

    /// Assembles a context with nothing memoized yet, resolving
    /// [`ContextMode::Auto`] by point count.
    fn build(
        depot: Point,
        points: Vec<Point>,
        gamma_m: f64,
        speed_mps: f64,
        mode: ContextMode,
        dense_limit: usize,
    ) -> Arc<Self> {
        let mode = match mode {
            ContextMode::Auto if points.len() > dense_limit => ContextMode::Sparse,
            ContextMode::Auto => ContextMode::Dense,
            resolved => resolved,
        };
        Arc::new(ProblemContext {
            depot,
            points,
            gamma_m,
            speed_mps,
            mode,
            dense_limit,
            depot_dist: OnceLock::new(),
            neighbors: OnceLock::new(),
            charging_graph: OnceLock::new(),
        })
    }

    /// Builds a root context over **all** sensors of a network, indexed
    /// by sensor index, in [`ContextMode::Auto`]. Simulation engines
    /// build this once per run and derive per-round
    /// [`subcontext`](Self::subcontext)s from it.
    pub fn for_network(net: &Network, params: ChargingParams) -> Arc<Self> {
        Self::for_network_with_mode(net, params, ContextMode::Auto)
            .expect("auto context mode is infallible")
    }

    /// [`for_network`](Self::for_network) with an explicit mode.
    ///
    /// # Errors
    ///
    /// Returns [`ContextError::TooLarge`] when [`ContextMode::Dense`] is
    /// forced on a network larger than [`DEFAULT_DENSE_LIMIT`].
    pub fn for_network_with_mode(
        net: &Network,
        params: ChargingParams,
        mode: ContextMode,
    ) -> Result<Arc<Self>, ContextError> {
        let points = net.sensors().iter().map(|s| s.pos).collect();
        Self::with_mode(net.depot(), points, params, mode)
    }

    /// Derives the context over the sub-instance `points[indices]`, with
    /// this context's depot, parameters and dense limit. The child
    /// resolves [`ContextMode::Auto`] over its own point count and
    /// computes everything from its own points, which are this
    /// context's at `indices`, so every distance is bit-identical to
    /// this context's. Indices may repeat and come in any order; the
    /// child's point `a` is `self.point(indices[a])`.
    ///
    /// # Errors
    ///
    /// Returns [`ContextError::IndexOutOfBounds`] if any index is out of
    /// range.
    pub fn subcontext(&self, indices: &[usize]) -> Result<Arc<Self>, ContextError> {
        for &i in indices {
            self.check(i)?;
        }
        let points: Vec<Point> = indices.iter().map(|&i| self.points[i]).collect();
        Ok(Self::build(
            self.depot,
            points,
            self.gamma_m,
            self.speed_mps,
            ContextMode::Auto,
            self.dense_limit,
        ))
    }

    /// The resolved mode: [`ContextMode::Dense`] or
    /// [`ContextMode::Sparse`], never [`ContextMode::Auto`].
    pub fn mode(&self) -> ContextMode {
        self.mode
    }

    /// True iff the context resolved to [`ContextMode::Sparse`].
    pub fn is_sparse(&self) -> bool {
        self.mode == ContextMode::Sparse
    }

    /// The dense-table threshold this context was built with.
    pub fn dense_limit(&self) -> usize {
        self.dense_limit
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff the context holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The depot position.
    pub fn depot(&self) -> Point {
        self.depot
    }

    /// Position of point `i`.
    pub fn point(&self, i: usize) -> Point {
        self.points[i]
    }

    /// All point positions, in index order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The charging radius `γ`, meters.
    pub fn gamma_m(&self) -> f64 {
        self.gamma_m
    }

    /// The MCV travel speed, meters/second.
    pub fn speed_mps(&self) -> f64 {
        self.speed_mps
    }

    /// Raw distance between points `a` and `b`, meters: a direct
    /// [`Point::dist`] (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        self.points[a].dist(self.points[b])
    }

    /// The memoized raw depot→point distances, meters.
    pub fn depot_distances(&self) -> &[f64] {
        self.depot_dist.get_or_init(|| self.points.iter().map(|p| self.depot.dist(*p)).collect())
    }

    /// The memoized coverage lists: `neighbors(i)` is the sorted set of
    /// point indices within `γ` of point `i`, **including `i` itself**
    /// (the paper's `N_c⁺(v)`).
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.neighbor_lists()[i]
    }

    /// All coverage lists (see [`neighbors`](Self::neighbors)).
    pub fn neighbor_lists(&self) -> &[Vec<u32>] {
        self.neighbors.get_or_init(|| {
            let pts = &self.points;
            let mut lists = vec![Vec::new(); pts.len()];
            if !pts.is_empty() {
                let idx = GridIndex::build(pts, self.gamma_m);
                let mut cov: Vec<u32> = Vec::new();
                for (i, list) in lists.iter_mut().enumerate() {
                    cov.clear();
                    idx.for_each_within(pts[i], self.gamma_m, |j| cov.push(j as u32));
                    cov.sort_unstable();
                    *list = cov.clone();
                }
            }
            lists
        })
    }

    /// The memoized charging graph `G_c`: points adjacent iff within
    /// `γ` (boundary inclusive), no self-loops. Identical to
    /// `Graph::unit_disk(points, γ)`.
    pub fn charging_graph(&self) -> &Graph {
        self.charging_graph.get_or_init(|| {
            let lists = self.neighbor_lists();
            let mut g = Graph::empty(lists.len());
            for (i, list) in lists.iter().enumerate() {
                for &j in list {
                    if (j as usize) > i {
                        g.add_edge(i, j as usize);
                    }
                }
            }
            g
        })
    }

    /// Travel time between points `a` and `b`, seconds.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range; see
    /// [`try_travel_time`](Self::try_travel_time) for the checked form.
    pub fn travel_time(&self, a: usize, b: usize) -> f64 {
        self.distance(a, b) / self.speed_mps
    }

    /// Checked [`travel_time`](Self::travel_time).
    ///
    /// # Errors
    ///
    /// Returns [`ContextError::IndexOutOfBounds`] for out-of-range
    /// indices.
    pub fn try_travel_time(&self, a: usize, b: usize) -> Result<f64, ContextError> {
        self.check(a)?;
        self.check(b)?;
        Ok(self.travel_time(a, b))
    }

    /// Travel time between the depot and point `i`, seconds.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range; see
    /// [`try_depot_travel_time`](Self::try_depot_travel_time).
    pub fn depot_travel_time(&self, i: usize) -> f64 {
        self.depot_distances()[i] / self.speed_mps
    }

    /// Checked [`depot_travel_time`](Self::depot_travel_time).
    ///
    /// # Errors
    ///
    /// Returns [`ContextError::IndexOutOfBounds`] for an out-of-range
    /// index.
    pub fn try_depot_travel_time(&self, i: usize) -> Result<f64, ContextError> {
        self.check(i)?;
        Ok(self.depot_travel_time(i))
    }

    /// Travel-time matrix over the sub-instance `nodes`, seconds; entry
    /// `(a, b)` is `travel_time(nodes[a], nodes[b])`, filled once from
    /// the gathered points in both modes. This is the only table a
    /// context builds; every entry equals the bits of
    /// `wrsn_geom::dist_matrix(points)[nodes[a]][nodes[b]] / speed` (see
    /// the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`ContextError::IndexOutOfBounds`] if any node index is
    /// out of range, and [`ContextError::TooLarge`] when `nodes` itself
    /// exceeds the dense limit (the caller is asking for a dense table
    /// the limit exists to avoid).
    pub fn travel_time_matrix_for(
        &self,
        nodes: &[usize],
    ) -> Result<DistanceMatrix, ContextError> {
        let pts = self.table_points(nodes)?;
        Ok(DistanceMatrix::from_fn(pts.len(), |a, b| pts[a].dist(pts[b]) / self.speed_mps))
    }

    /// Travel-time matrix over `nodes` **plus the depot as the last
    /// index**: returns `(matrix, depot_index)` where
    /// `depot_index == nodes.len()`. This is the shared spelling of
    /// "depot as virtual TSP city" used by tour construction and 2-opt
    /// post-optimization. One pass fills it from the nodes' points with
    /// the depot appended: entry `(a, b)` of the nodes is that of
    /// [`travel_time_matrix_for`](Self::travel_time_matrix_for), the
    /// depot row and column are
    /// [`depot_travel_time`](Self::depot_travel_time) (`Point::dist` is
    /// bit-symmetric), and the diagonal is `+0.0` — the bits of that
    /// table with the depot appended as a `wrsn_geom::VirtualNodeMetric`.
    ///
    /// # Errors
    ///
    /// Same as [`travel_time_matrix_for`](Self::travel_time_matrix_for).
    pub fn extended_time_matrix(
        &self,
        nodes: &[usize],
    ) -> Result<(DistanceMatrix, usize), ContextError> {
        let mut pts = self.table_points(nodes)?;
        pts.push(self.depot);
        let table = DistanceMatrix::from_fn(pts.len(), |a, b| pts[a].dist(pts[b]) / self.speed_mps);
        Ok((table, nodes.len()))
    }

    /// The points of `nodes` for a table over them, after checking every
    /// index and refusing more nodes than the dense limit.
    fn table_points(&self, nodes: &[usize]) -> Result<Vec<Point>, ContextError> {
        for &i in nodes {
            self.check(i)?;
        }
        if nodes.len() > self.dense_limit {
            return Err(ContextError::TooLarge { len: nodes.len(), limit: self.dense_limit });
        }
        Ok(nodes.iter().map(|&i| self.points[i]).collect())
    }

    /// Depot travel-time vector, seconds.
    pub fn depot_travel_vector(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.depot_travel_time(i)).collect()
    }

    fn check(&self, i: usize) -> Result<(), ContextError> {
        if i < self.len() {
            Ok(())
        } else {
            Err(ContextError::IndexOutOfBounds { index: i, len: self.len() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wrsn_geom::{dist_matrix, Metric, VirtualNodeMetric};

    fn params() -> ChargingParams {
        ChargingParams::default()
    }

    fn scatter(n: usize, salt: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    ((i * 37 + salt * 7) % 53) as f64 / 3.0,
                    ((i * 73 + salt * 19) % 47) as f64 / 3.0,
                )
            })
            .collect()
    }

    #[test]
    fn distances_match_point_dist_to_zero_ulp() {
        let pts = scatter(40, 1);
        let ctx = ProblemContext::new(Point::new(1.0, 2.0), pts.clone(), params());
        let reference = dist_matrix(&pts);
        for (i, row) in reference.iter().enumerate() {
            for (j, d) in row.iter().enumerate() {
                assert_eq!(ctx.distance(i, j).to_bits(), d.to_bits());
            }
            assert_eq!(
                ctx.depot_distances()[i].to_bits(),
                Point::new(1.0, 2.0).dist(pts[i]).to_bits()
            );
        }
    }

    #[test]
    fn travel_times_divide_by_speed() {
        let mut prm = params();
        prm.speed_mps = 2.0;
        let pts = vec![Point::new(3.0, 4.0), Point::new(3.0, 0.0)];
        let ctx = ProblemContext::new(Point::ORIGIN, pts, prm);
        assert_eq!(ctx.depot_travel_time(0), 2.5);
        assert_eq!(ctx.travel_time(0, 1), 2.0);
        assert_eq!(ctx.travel_time_matrix_for(&[0, 1]).unwrap().at(0, 1), 2.0);
        assert_eq!(ctx.depot_travel_vector(), vec![2.5, 1.5]);
    }

    #[test]
    fn neighbors_include_self_and_match_brute_force() {
        let pts = scatter(60, 2);
        let ctx = ProblemContext::new(Point::ORIGIN, pts.clone(), params());
        for i in 0..pts.len() {
            let brute: Vec<u32> = (0..pts.len())
                .filter(|&j| pts[i].dist(pts[j]) <= 2.7)
                .map(|j| j as u32)
                .collect();
            assert_eq!(ctx.neighbors(i), &brute[..], "N_c+({i})");
            assert!(ctx.neighbors(i).contains(&(i as u32)));
        }
    }

    #[test]
    fn charging_graph_matches_unit_disk() {
        let pts = scatter(50, 3);
        let ctx = ProblemContext::new(Point::ORIGIN, pts.clone(), params());
        assert_eq!(*ctx.charging_graph(), Graph::unit_disk(&pts, 2.7));
    }

    /// Asserts, in `to_bits()`, that what `ctx` computes equals the
    /// nested reference table `dist_matrix(points)`:
    /// `travel_time_matrix_for(nodes)` against its entries divided by the
    /// speed, and every `distance(a, b)` against its entry.
    fn assert_matches_reference(ctx: &ProblemContext, nodes: &[usize]) {
        let computed = ctx.travel_time_matrix_for(nodes).unwrap();
        let table = dist_matrix(ctx.points());
        for (a, &i) in nodes.iter().enumerate() {
            for (b, &j) in nodes.iter().enumerate() {
                let want = table[i][j] / ctx.speed_mps();
                assert_eq!(computed.at(a, b).to_bits(), want.to_bits(), "({a},{b})");
            }
        }
        for (a, row) in table.iter().enumerate() {
            for (b, d) in row.iter().enumerate() {
                assert_eq!(ctx.distance(a, b).to_bits(), d.to_bits(), "({a},{b})");
            }
        }
    }

    /// The full travel-time table of `ctx`, for comparing two contexts.
    fn whole_table(ctx: &ProblemContext) -> DistanceMatrix {
        ctx.travel_time_matrix_for(&(0..ctx.len()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn subcontext_gathers_bit_identical_tables() {
        let pts = scatter(30, 4);
        let prm = ChargingParams { speed_mps: 0.7, ..params() };
        let ctx = ProblemContext::new(Point::new(5.0, 5.0), pts.clone(), prm);
        // Deliberately unsorted, with a repeat.
        let idx = vec![7usize, 2, 29, 2, 11];
        let sub = ctx.subcontext(&idx).unwrap();
        assert_eq!(sub.len(), idx.len());
        assert_eq!(sub.depot(), ctx.depot());
        assert_matches_reference(&ctx, &idx);
        assert_matches_reference(&sub, &[4, 1, 3, 1, 0]);

        // Fresh root over the same sub-points, for comparison.
        let sub_pts: Vec<Point> = idx.iter().map(|&i| pts[i]).collect();
        let fresh = ProblemContext::new(Point::new(5.0, 5.0), sub_pts, prm);

        assert_eq!(whole_table(&sub), whole_table(&fresh));
        for (a, &i) in idx.iter().enumerate() {
            assert_eq!(sub.depot_distances()[a].to_bits(), ctx.depot_distances()[i].to_bits());
            assert_eq!(
                sub.depot_distances()[a].to_bits(),
                fresh.depot_distances()[a].to_bits()
            );
            assert_eq!(sub.neighbors(a), fresh.neighbors(a));
        }
        assert_eq!(*sub.charging_graph(), *fresh.charging_graph());
    }

    #[test]
    fn subcontext_rejects_out_of_range() {
        let ctx = ProblemContext::new(Point::ORIGIN, scatter(5, 0), params());
        assert_eq!(
            ctx.subcontext(&[0, 5]).unwrap_err(),
            ContextError::IndexOutOfBounds { index: 5, len: 5 }
        );
    }

    #[test]
    fn try_accessors_check_bounds() {
        let ctx = ProblemContext::new(Point::ORIGIN, scatter(3, 1), params());
        assert!(ctx.try_travel_time(0, 2).is_ok());
        assert_eq!(
            ctx.try_travel_time(0, 3).unwrap_err(),
            ContextError::IndexOutOfBounds { index: 3, len: 3 }
        );
        assert!(ctx.try_depot_travel_time(2).is_ok());
        assert!(ctx.try_depot_travel_time(9).is_err());
        assert_eq!(
            ctx.travel_time_matrix_for(&[1, 4]).unwrap_err(),
            ContextError::IndexOutOfBounds { index: 4, len: 3 }
        );
        assert!(ctx.extended_time_matrix(&[0, 99]).is_err());
    }

    #[test]
    fn extended_matrix_puts_depot_last() {
        let pts = scatter(10, 5);
        let ctx = ProblemContext::new(Point::new(1.0, 1.0), pts, params());
        let nodes = [3usize, 0, 8];
        let (ext, m) = ctx.extended_time_matrix(&nodes).unwrap();
        assert_eq!(m, 3);
        assert_eq!(Metric::len(&ext), 4);
        for (a, &i) in nodes.iter().enumerate() {
            assert_eq!(ext.at(a, m).to_bits(), ctx.depot_travel_time(i).to_bits());
            for (b, &j) in nodes.iter().enumerate() {
                assert_eq!(ext.at(a, b).to_bits(), ctx.travel_time(i, j).to_bits());
            }
        }
        assert_eq!(ext.at(m, m), 0.0);
    }

    #[test]
    fn empty_context_is_fine() {
        let ctx = ProblemContext::new(Point::ORIGIN, Vec::new(), params());
        assert!(ctx.is_empty());
        assert!(Metric::is_empty(&whole_table(&ctx)));
        assert!(ctx.depot_distances().is_empty());
        assert!(ctx.charging_graph().is_empty());
        let sub = ctx.subcontext(&[]).unwrap();
        assert!(sub.is_empty());
    }

    #[test]
    fn error_display_names_index_and_len() {
        let e = ContextError::IndexOutOfBounds { index: 9, len: 4 };
        assert_eq!(e.to_string(), "point index 9 out of range for context of 4 points");
        let e = ContextError::TooLarge { len: 9000, limit: 4096 };
        assert_eq!(
            e.to_string(),
            "refused a dense table over 9000 points, beyond the 4096-point limit \
             (shard the instance so each table fits, in auto or sparse mode)"
        );
        // CI recognizes the forced-dense refusal by this word.
        assert!(e.to_string().contains("dense"));
    }

    #[test]
    fn mode_parses_and_displays() {
        for (s, m) in [
            ("dense", ContextMode::Dense),
            ("sparse", ContextMode::Sparse),
            ("auto", ContextMode::Auto),
        ] {
            assert_eq!(s.parse::<ContextMode>().unwrap(), m);
            assert_eq!(m.to_string(), s);
        }
        assert!("Dense".parse::<ContextMode>().is_err());
        assert_eq!(ContextMode::default(), ContextMode::Auto);
    }

    #[test]
    fn auto_resolves_by_dense_limit() {
        let pts = scatter(20, 6);
        let dense =
            ProblemContext::with_mode_and_limit(Point::ORIGIN, pts.clone(), params(), ContextMode::Auto, 20)
                .unwrap();
        assert_eq!(dense.mode(), ContextMode::Dense);
        assert!(!dense.is_sparse());
        let sparse =
            ProblemContext::with_mode_and_limit(Point::ORIGIN, pts, params(), ContextMode::Auto, 19)
                .unwrap();
        assert_eq!(sparse.mode(), ContextMode::Sparse);
        assert_eq!(sparse.dense_limit(), 19);
    }

    #[test]
    fn forced_dense_beyond_limit_is_rejected() {
        let pts = scatter(10, 7);
        let err = ProblemContext::with_mode_and_limit(
            Point::ORIGIN,
            pts,
            params(),
            ContextMode::Dense,
            9,
        )
        .unwrap_err();
        assert_eq!(err, ContextError::TooLarge { len: 10, limit: 9 });
    }

    #[test]
    fn sparse_queries_are_bit_identical_to_dense() {
        let pts = scatter(50, 8);
        let depot = Point::new(3.0, 4.0);
        let dense = ProblemContext::new(depot, pts.clone(), params());
        let sparse =
            ProblemContext::with_mode(depot, pts.clone(), params(), ContextMode::Sparse).unwrap();
        assert!(sparse.is_sparse());
        for i in 0..pts.len() {
            assert_eq!(
                sparse.depot_travel_time(i).to_bits(),
                dense.depot_travel_time(i).to_bits()
            );
            assert_eq!(sparse.neighbors(i), dense.neighbors(i));
            for j in 0..pts.len() {
                assert_eq!(
                    sparse.travel_time(i, j).to_bits(),
                    dense.travel_time(i, j).to_bits(),
                    "({i},{j})"
                );
            }
        }
        assert_eq!(*sparse.charging_graph(), *dense.charging_graph());
    }

    #[test]
    fn sparse_context_refuses_dense_materialization_beyond_limit() {
        let pts = scatter(30, 10);
        let ctx = ProblemContext::with_mode_and_limit(
            Point::ORIGIN,
            pts,
            params(),
            ContextMode::Sparse,
            8,
        )
        .unwrap();
        let all: Vec<usize> = (0..30).collect();
        assert_eq!(
            ctx.travel_time_matrix_for(&all).unwrap_err(),
            ContextError::TooLarge { len: 30, limit: 8 }
        );
        assert_eq!(
            ctx.extended_time_matrix(&all).unwrap_err(),
            ContextError::TooLarge { len: 30, limit: 8 }
        );
        // Small sub-requests still work, and on-demand queries never fail.
        assert!(ctx.travel_time_matrix_for(&[0, 5, 9]).is_ok());
        assert!(ctx.travel_time(0, 29) > 0.0);
    }

    #[test]
    fn sparse_subcontext_never_densifies_parent() {
        let pts = scatter(40, 11);
        let parent = ProblemContext::with_mode_and_limit(
            Point::new(2.0, 2.0),
            pts.clone(),
            params(),
            ContextMode::Sparse,
            8,
        )
        .unwrap();
        let idx: Vec<usize> = vec![3, 9, 21, 35, 9];
        let sub = parent.subcontext(&idx).unwrap();
        // Child is small → dense, built from its own points.
        assert!(!sub.is_sparse());
        let fresh_pts: Vec<Point> = idx.iter().map(|&i| pts[i]).collect();
        let fresh = ProblemContext::new(Point::new(2.0, 2.0), fresh_pts, params());
        assert_eq!(whole_table(&sub), whole_table(&fresh));
        for a in 0..idx.len() {
            assert_eq!(
                sub.depot_distances()[a].to_bits(),
                fresh.depot_distances()[a].to_bits()
            );
            assert_eq!(sub.neighbors(a), fresh.neighbors(a));
        }
        // The parent still refuses a table over all its points.
        let all: Vec<usize> = (0..40).collect();
        assert!(parent.travel_time_matrix_for(&all).is_err());
        // A large child of a sparse parent stays sparse.
        let big: Vec<usize> = (0..40).collect();
        let big_sub = parent.subcontext(&big).unwrap();
        assert!(big_sub.is_sparse());
        assert_eq!(big_sub.travel_time(0, 39).to_bits(), parent.travel_time(0, 39).to_bits());
    }

    #[test]
    fn extended_matrix_works_sparse_and_matches_dense() {
        let pts = scatter(25, 12);
        let prm = ChargingParams { speed_mps: 1.3, ..params() };
        let dense = ProblemContext::new(Point::new(1.0, 1.0), pts.clone(), prm);
        let sparse = ProblemContext::with_mode_and_limit(
            Point::new(1.0, 1.0),
            pts,
            prm,
            ContextMode::Sparse,
            8,
        )
        .unwrap();
        // Unsorted, with a repeat.
        let nodes = [4usize, 19, 0, 11, 19];
        let (de, dm) = dense.extended_time_matrix(&nodes).unwrap();
        let (se, sm) = sparse.extended_time_matrix(&nodes).unwrap();
        assert_eq!(dm, sm);
        for a in 0..=nodes.len() {
            for b in 0..=nodes.len() {
                assert_eq!(se.at(a, b).to_bits(), de.at(a, b).to_bits());
            }
        }
        assert_matches_reference(&dense, &nodes);
        assert_matches_reference(&sparse, &nodes);
        // A dense child of the sparse parent, as a plan shard is.
        let child = sparse.subcontext(&[21, 6, 13, 6, 2]).unwrap();
        assert!(!child.is_sparse());
        assert_matches_reference(&child, &[3, 0, 1, 4, 0]);
    }

    proptest! {
        /// The one-pass depot-extended table equals, entry for entry in
        /// `to_bits()`, the node table with the depot appended as a
        /// virtual node and copied: on scatters with duplicate points,
        /// for any node list — repeats, a single node and none included.
        #[test]
        fn extended_table_equals_the_appended_copy(
            coords in proptest::collection::vec((0.0f64..30.0, 0.0f64..30.0), 1..40),
            picks in proptest::collection::vec(0usize..1_000, 0..45),
            duplicate in any::<bool>(),
            speed in 0.1f64..9.0,
        ) {
            let mut pts: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
            if duplicate {
                pts.extend_from_within(..pts.len() / 2 + 1);
            }
            let prm = ChargingParams { speed_mps: speed, ..params() };
            let ctx = ProblemContext::new(Point::new(4.0, -2.0), pts.clone(), prm);
            let picked: Vec<usize> = picks.iter().map(|&p| p % pts.len()).collect();
            for nodes in [&picked[..], &picked[..picked.len().min(1)], &[]] {
                let depot: Vec<f64> = nodes.iter().map(|&i| ctx.depot_travel_time(i)).collect();
                let inner = ctx.travel_time_matrix_for(nodes).unwrap();
                let copy = DistanceMatrix::from_metric(&VirtualNodeMetric::new(&inner, &depot));
                let (ext, m) = ctx.extended_time_matrix(nodes).unwrap();
                prop_assert_eq!(m, nodes.len());
                prop_assert_eq!(Metric::len(&ext), m + 1);
                for a in 0..=m {
                    for b in 0..=m {
                        prop_assert_eq!(ext.at(a, b).to_bits(), copy.at(a, b).to_bits());
                    }
                }
            }
        }

        /// `N_c⁺(v)` from the grid-backed build must equal a brute-force
        /// radius scan for arbitrary point sets, and subcontexts must
        /// stay bit-identical to fresh builds over the same points.
        #[test]
        fn neighbor_lists_match_brute_force(
            coords in proptest::collection::vec((0.0f64..40.0, 0.0f64..40.0), 0..50),
            gamma in 0.5f64..8.0,
        ) {
            let pts: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let prm = ChargingParams { gamma_m: gamma, ..ChargingParams::default() };
            let ctx = ProblemContext::new(Point::ORIGIN, pts.clone(), prm);
            for i in 0..pts.len() {
                let brute: Vec<u32> = (0..pts.len())
                    .filter(|&j| pts[i].dist(pts[j]) <= gamma)
                    .map(|j| j as u32)
                    .collect();
                prop_assert_eq!(ctx.neighbors(i), &brute[..]);
            }
            if !pts.is_empty() {
                let idx: Vec<usize> = (0..pts.len()).step_by(2).collect();
                let sub = ctx.subcontext(&idx).unwrap();
                let fresh_pts: Vec<Point> = idx.iter().map(|&i| pts[i]).collect();
                let fresh = ProblemContext::new(Point::ORIGIN, fresh_pts, prm);
                prop_assert_eq!(whole_table(&sub), whole_table(&fresh));
                for a in 0..idx.len() {
                    prop_assert_eq!(sub.neighbors(a), fresh.neighbors(a));
                }
            }
        }
    }
}
