//! Shared, memoized per-instance geometry: the [`ProblemContext`].
//!
//! Every consumer of a charging instance — Appro, the baselines, the
//! conflict validator, both simulation engines — needs the same derived
//! geometry: pairwise travel times, depot distances, the coverage
//! neighborhoods `N_c⁺(v)` and the charging graph `G_c`. Before this
//! layer existed each consumer recomputed those from raw points on every
//! use; the context computes each artifact **once**, lazily, and shares
//! it behind an [`Arc`].
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
//! # Dense vs sparse backends
//!
//! The context has two interchangeable backends. **Dense** memoizes the
//! full `n²` [`DistanceMatrix`] — fast repeated lookups, but the table
//! is 128 MiB at 4 096 points and physically impossible at 500 k.
//! **Sparse** answers every query on demand: pairwise distances compute
//! [`Point::dist`] directly, `N_c⁺(v)` queries go through a grid index,
//! and a bounded LRU row cache ([`ProblemContext::distance_row`])
//! serves row-shaped access patterns without ever materializing the
//! square table. [`ContextMode::Auto`] (the default) picks dense below
//! the [`DEFAULT_DENSE_LIMIT`] and sparse above it, so small instances
//! keep the historical fast path and huge ones simply work.
//!
//! # Bit-exactness
//!
//! All stored distances are **raw meters** straight from
//! [`Point::dist`]; travel times divide by the speed on access, exactly
//! as the pre-context code did inline, so every derived quantity is
//! bit-identical to the historical computation. Subcontexts *gather*
//! entries verbatim from their parent's table instead of recomputing,
//! which is also bit-identical (see `DistanceMatrix::gather`). The
//! sparse backend is bit-identical too: a dense entry stores exactly one
//! `Point::dist` per pair (mirrored), and `Point::dist` is bit-symmetric
//! (negating both coordinate deltas leaves their squares unchanged), so
//! recomputing `dist(p_a, p_b)` on demand yields the stored bits — the
//! property tests in this module and in `tests/properties.rs` pin this.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock, RwLock};

use wrsn_algo::Graph;
use wrsn_geom::{DistanceMatrix, GridIndex, MatrixTooLarge, Metric, Point};
use wrsn_net::Network;

use crate::ChargingParams;

/// Default point-count threshold above which [`ContextMode::Auto`]
/// switches from the dense matrix to the sparse on-demand backend
/// (4 096 points ≈ a 128 MiB dense table).
pub const DEFAULT_DENSE_LIMIT: usize = 4096;

/// Rows kept by the sparse backend's bounded LRU row cache.
const ROW_CACHE_CAP: usize = 128;

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
    /// A dense table was requested over more points than the threshold
    /// allows (the allocation would be `len²` floats). Raised when
    /// [`ContextMode::Dense`] is forced on a too-large instance, or when
    /// a dense accessor is called on a sparse context that big.
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
                "dense context over {len} points exceeds the {limit}-point limit \
                 (use sparse or auto mode)"
            ),
        }
    }
}

impl Error for ContextError {}

impl From<MatrixTooLarge> for ContextError {
    fn from(e: MatrixTooLarge) -> Self {
        ContextError::TooLarge { len: e.len, limit: e.limit }
    }
}

/// How a [`ProblemContext`] answers distance and neighborhood queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ContextMode {
    /// Memoize the full `n²` [`DistanceMatrix`] (the historical
    /// behavior). Construction fails with [`ContextError::TooLarge`]
    /// beyond the dense limit.
    Dense,
    /// Answer queries on demand from the grid index and direct
    /// [`Point::dist`] computation, with a bounded LRU row cache; never
    /// allocates the square table.
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

/// A bounded least-recently-used cache from point index to a shared
/// value. Recency is bumped on insert and on hit; eviction scans for the
/// stalest entry (fine for the small fixed capacity used here).
#[derive(Debug)]
struct Lru<V: ?Sized> {
    cap: usize,
    tick: u64,
    entries: HashMap<usize, (u64, Arc<V>)>,
}

impl<V: ?Sized> Lru<V> {
    fn new(cap: usize) -> Self {
        Lru { cap, tick: 0, entries: HashMap::new() }
    }

    fn get(&mut self, key: usize) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|(t, v)| {
            *t = tick;
            Arc::clone(v)
        })
    }

    fn insert(&mut self, key: usize, value: Arc<V>) {
        self.tick += 1;
        self.entries.insert(key, (self.tick, value));
        while self.entries.len() > self.cap {
            let stalest = self
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(&k, _)| k)
                .expect("non-empty cache");
            self.entries.remove(&stalest);
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The sparse backend's query machinery: a lazily-built grid index for
/// `N_c⁺(v)` lookups plus bounded LRU caches for distance rows and
/// coverage sets.
#[derive(Debug)]
struct SparseBackend {
    grid: OnceLock<GridIndex>,
    rows: RwLock<Lru<[f64]>>,
    coverage: RwLock<Lru<[u32]>>,
}

impl SparseBackend {
    fn new() -> Self {
        SparseBackend {
            grid: OnceLock::new(),
            rows: RwLock::new(Lru::new(ROW_CACHE_CAP)),
            coverage: RwLock::new(Lru::new(ROW_CACHE_CAP)),
        }
    }

    /// Cached distance from `a` to `b` if row `a` or row `b` is resident;
    /// read-only (does not populate, so point lookups stay lock-cheap).
    fn cached_at(&self, a: usize, b: usize) -> Option<f64> {
        let rows = self.rows.read().expect("row cache poisoned");
        if let Some((_, row)) = rows.entries.get(&a) {
            return Some(row[b]);
        }
        rows.entries.get(&b).map(|(_, row)| row[a])
    }

    fn row(&self, i: usize, pts: &[Point]) -> Arc<[f64]> {
        if let Some(row) = self.rows.write().expect("row cache poisoned").get(i) {
            return row;
        }
        let row: Arc<[f64]> = pts.iter().map(|p| pts[i].dist(*p)).collect();
        self.rows.write().expect("row cache poisoned").insert(i, Arc::clone(&row));
        row
    }

    fn coverage_set(&self, i: usize, pts: &[Point], gamma: f64) -> Arc<[u32]> {
        if let Some(cov) = self.coverage.write().expect("coverage cache poisoned").get(i) {
            return cov;
        }
        let grid = self.grid.get_or_init(|| GridIndex::build(pts, gamma));
        let mut cov: Vec<u32> =
            grid.within(pts[i], gamma).into_iter().map(|j| j as u32).collect();
        cov.sort_unstable();
        let cov: Arc<[u32]> = cov.into();
        self.coverage.write().expect("coverage cache poisoned").insert(i, Arc::clone(&cov));
        cov
    }
}

/// Which query machinery backs a [`ProblemContext`] — see the module
/// docs for the trade-off.
#[derive(Debug)]
enum Backend {
    Dense,
    Sparse(Box<SparseBackend>),
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
    /// Dense or sparse query machinery; see [`ContextMode`].
    backend: Backend,
    /// Point-count threshold for dense materialization ([`Auto`]
    /// resolution and [`try_distance_matrix`] guard).
    ///
    /// [`Auto`]: ContextMode::Auto
    /// [`try_distance_matrix`]: Self::try_distance_matrix
    dense_limit: usize,
    /// Set for subcontexts: the parent plus this context's point indices
    /// into it, used to gather instead of recompute.
    parent: Option<(Arc<ProblemContext>, Vec<usize>)>,
    /// Raw pairwise distances, meters (dense backend only).
    dist: OnceLock<DistanceMatrix>,
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
    /// points (the historical behavior, bit for bit), sparse above it.
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
        let backend = match mode {
            ContextMode::Dense if points.len() > dense_limit => {
                return Err(ContextError::TooLarge { len: points.len(), limit: dense_limit });
            }
            ContextMode::Dense => Backend::Dense,
            ContextMode::Sparse => Backend::Sparse(Box::new(SparseBackend::new())),
            ContextMode::Auto if points.len() > dense_limit => {
                Backend::Sparse(Box::new(SparseBackend::new()))
            }
            ContextMode::Auto => Backend::Dense,
        };
        Ok(Arc::new(ProblemContext {
            depot,
            points,
            gamma_m: params.gamma_m,
            speed_mps: params.speed_mps,
            backend,
            dense_limit,
            parent: None,
            dist: OnceLock::new(),
            depot_dist: OnceLock::new(),
            neighbors: OnceLock::new(),
            charging_graph: OnceLock::new(),
        }))
    }

    /// Builds a root context over **all** sensors of a network, indexed
    /// by sensor index, in [`ContextMode::Auto`]. Simulation engines
    /// build this once per run and derive per-round
    /// [`subcontext`](Self::subcontext)s from it, so the full pairwise
    /// table is computed at most once per run (and never at all beyond
    /// the dense limit).
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

    /// Derives the context over the sub-instance `points[indices]`.
    ///
    /// With a dense parent, the child's distance table and depot
    /// distances are *gathered* from this context's memoized tables
    /// (forcing their build), never recomputed — bit-identical and
    /// cheaper than `n²` square roots. With a sparse parent, the child
    /// resolves [`ContextMode::Auto`] over its own (small) point set and
    /// computes its tables directly from the gathered points — the
    /// parent is **never densified** on this path, and direct
    /// computation over the same points is bit-identical to a gather
    /// (see `DistanceMatrix` tests). Depot distances still gather from
    /// the parent's O(n) vector in both modes. Indices may repeat and
    /// come in any order; the child's point `a` is
    /// `self.point(indices[a])`.
    ///
    /// # Errors
    ///
    /// Returns [`ContextError::IndexOutOfBounds`] if any index is out of
    /// range.
    pub fn subcontext(
        self: &Arc<Self>,
        indices: &[usize],
    ) -> Result<Arc<Self>, ContextError> {
        let len = self.len();
        if let Some(&bad) = indices.iter().find(|&&i| i >= len) {
            return Err(ContextError::IndexOutOfBounds { index: bad, len });
        }
        let points: Vec<Point> = indices.iter().map(|&i| self.points[i]).collect();
        let backend = if self.is_sparse() && points.len() > self.dense_limit {
            Backend::Sparse(Box::new(SparseBackend::new()))
        } else {
            Backend::Dense
        };
        Ok(Arc::new(ProblemContext {
            depot: self.depot,
            points,
            gamma_m: self.gamma_m,
            speed_mps: self.speed_mps,
            backend,
            dense_limit: self.dense_limit,
            parent: Some((Arc::clone(self), indices.to_vec())),
            dist: OnceLock::new(),
            depot_dist: OnceLock::new(),
            neighbors: OnceLock::new(),
            charging_graph: OnceLock::new(),
        }))
    }

    /// The resolved backend mode: [`ContextMode::Dense`] or
    /// [`ContextMode::Sparse`], never [`ContextMode::Auto`].
    pub fn mode(&self) -> ContextMode {
        match self.backend {
            Backend::Dense => ContextMode::Dense,
            Backend::Sparse(_) => ContextMode::Sparse,
        }
    }

    /// True iff queries are answered on demand (no dense table).
    pub fn is_sparse(&self) -> bool {
        matches!(self.backend, Backend::Sparse(_))
    }

    /// The dense-materialization threshold this context was built with.
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

    /// The memoized raw pairwise distance table, meters. Built on first
    /// access: gathered from the parent for subcontexts, computed from
    /// points for roots.
    ///
    /// # Panics
    ///
    /// Panics on a sparse context larger than the dense limit (where
    /// materializing would allocate the multi-GiB table the sparse mode
    /// exists to avoid); see
    /// [`try_distance_matrix`](Self::try_distance_matrix) for the
    /// checked form.
    pub fn distance_matrix(&self) -> &DistanceMatrix {
        self.try_distance_matrix()
            .expect("context too large for a dense matrix; stay on the sparse accessors")
    }

    /// Checked [`distance_matrix`](Self::distance_matrix). A sparse
    /// context *smaller* than the dense limit may still densify (useful
    /// for tests and small forced-sparse instances); a larger one
    /// refuses.
    ///
    /// # Errors
    ///
    /// Returns [`ContextError::TooLarge`] on a sparse context beyond the
    /// dense limit.
    pub fn try_distance_matrix(&self) -> Result<&DistanceMatrix, ContextError> {
        if self.is_sparse() && self.len() > self.dense_limit {
            return Err(ContextError::TooLarge { len: self.len(), limit: self.dense_limit });
        }
        Ok(self.dist.get_or_init(|| match &self.parent {
            Some((parent, indices)) if !indices.is_empty() && !parent.is_sparse() => {
                parent.distance_matrix().gather(indices)
            }
            _ => DistanceMatrix::from_points(&self.points),
        }))
    }

    /// Raw distance between points `a` and `b`, meters: a dense table
    /// lookup, or a direct [`Point::dist`] on the sparse backend
    /// (bit-identical — see the module docs; a cached row is consulted
    /// first when resident).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        match &self.backend {
            Backend::Dense => self.distance_matrix().at(a, b),
            Backend::Sparse(s) => match s.cached_at(a, b) {
                Some(d) => d,
                None => self.points[a].dist(self.points[b]),
            },
        }
    }

    /// Row `i` of the distance table (meters, length `len()`), shared.
    /// On the sparse backend the row is computed once and kept in a
    /// bounded LRU cache, so row-shaped access patterns (nearest-target
    /// scans, repeated reconciliation passes) pay `n` square roots once
    /// instead of per query. On the dense backend it is copied out of
    /// the memoized table.
    ///
    /// Rows are `O(n)`, so this is allowed at any instance size in both
    /// modes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn distance_row(&self, i: usize) -> Arc<[f64]> {
        match &self.backend {
            Backend::Dense => Arc::from(self.distance_matrix().row(i)),
            Backend::Sparse(s) => {
                assert!(i < self.len(), "point index out of range");
                s.row(i, &self.points)
            }
        }
    }

    /// Number of distance rows currently resident in the sparse LRU
    /// cache (always 0 on the dense backend). Exposed for tests and
    /// benchmarks.
    pub fn cached_rows(&self) -> usize {
        match &self.backend {
            Backend::Dense => 0,
            Backend::Sparse(s) => s.rows.read().expect("row cache poisoned").len(),
        }
    }

    /// The coverage set `N_c⁺(i)` as a shared sorted list, answered **on
    /// demand** on the sparse backend (grid query + bounded LRU cache,
    /// without materializing all `n` lists) and from the memoized lists
    /// on the dense one. Same contents as [`neighbors`](Self::neighbors)
    /// in both modes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn coverage_set(&self, i: usize) -> Arc<[u32]> {
        match &self.backend {
            Backend::Dense => Arc::from(self.neighbors(i)),
            Backend::Sparse(s) => {
                // Prefer already-materialized lists over a fresh query.
                if let Some(lists) = self.neighbors.get() {
                    return Arc::from(&lists[i][..]);
                }
                assert!(i < self.len(), "point index out of range");
                s.coverage_set(i, &self.points, self.gamma_m)
            }
        }
    }

    /// The memoized raw depot→point distances, meters.
    pub fn depot_distances(&self) -> &[f64] {
        self.depot_dist.get_or_init(|| match &self.parent {
            Some((parent, indices)) if !indices.is_empty() => {
                let full = parent.depot_distances();
                indices.iter().map(|&i| full[i]).collect()
            }
            _ => self.points.iter().map(|p| self.depot.dist(*p)).collect(),
        })
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
                for (i, list) in lists.iter_mut().enumerate() {
                    let mut cov: Vec<u32> = idx
                        .within(pts[i], self.gamma_m)
                        .into_iter()
                        .map(|j| j as u32)
                        .collect();
                    cov.sort_unstable();
                    *list = cov;
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

    /// Dense travel-time matrix over all points, seconds.
    ///
    /// # Panics
    ///
    /// Panics on a sparse context beyond the dense limit; see
    /// [`try_travel_time_matrix`](Self::try_travel_time_matrix).
    pub fn travel_time_matrix(&self) -> DistanceMatrix {
        self.distance_matrix().scaled_down(self.speed_mps)
    }

    /// Checked [`travel_time_matrix`](Self::travel_time_matrix).
    ///
    /// # Errors
    ///
    /// Returns [`ContextError::TooLarge`] on a sparse context beyond the
    /// dense limit.
    pub fn try_travel_time_matrix(&self) -> Result<DistanceMatrix, ContextError> {
        Ok(self.try_distance_matrix()?.scaled_down(self.speed_mps))
    }

    /// Travel-time matrix over the sub-instance `nodes`, seconds; entry
    /// `(a, b)` is `travel_time(nodes[a], nodes[b])`. On the dense
    /// backend this gathers from the memoized table; on the sparse one
    /// it computes the (small) sub-matrix directly from the gathered
    /// points — bit-identical, per the `DistanceMatrix` gather/compute
    /// equivalence.
    ///
    /// # Errors
    ///
    /// Returns [`ContextError::IndexOutOfBounds`] if any node index is
    /// out of range, and [`ContextError::TooLarge`] on the sparse
    /// backend when `nodes` itself exceeds the dense limit (the caller
    /// is asking for a dense table the mode exists to avoid).
    pub fn travel_time_matrix_for(
        &self,
        nodes: &[usize],
    ) -> Result<DistanceMatrix, ContextError> {
        for &i in nodes {
            self.check(i)?;
        }
        match &self.backend {
            Backend::Dense => {
                Ok(self.distance_matrix().gather(nodes).scaled_down(self.speed_mps))
            }
            Backend::Sparse(_) => {
                let pts: Vec<Point> = nodes.iter().map(|&i| self.points[i]).collect();
                let m = DistanceMatrix::try_from_points(&pts, self.dense_limit)?;
                Ok(m.scaled_down(self.speed_mps))
            }
        }
    }

    /// Travel-time matrix over `nodes` **plus the depot as the last
    /// index**: returns `(matrix, depot_index)` where
    /// `depot_index == nodes.len()`. This is the shared spelling of
    /// "depot as virtual TSP city" used by tour construction and 2-opt
    /// post-optimization.
    ///
    /// # Errors
    ///
    /// Returns [`ContextError::IndexOutOfBounds`] if any node index is
    /// out of range.
    pub fn extended_time_matrix(
        &self,
        nodes: &[usize],
    ) -> Result<(DistanceMatrix, usize), ContextError> {
        let sub = self.travel_time_matrix_for(nodes)?;
        let depot: Vec<f64> =
            nodes.iter().map(|&i| self.depot_travel_time(i)).collect();
        Ok((sub.with_virtual_node(&depot), nodes.len()))
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
        let m = ctx.distance_matrix();
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                assert_eq!(m.at(i, j).to_bits(), pts[i].dist(pts[j]).to_bits());
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
        assert_eq!(ctx.travel_time_matrix().at(0, 1), 2.0);
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

    #[test]
    fn subcontext_gathers_bit_identical_tables() {
        let pts = scatter(30, 4);
        let ctx = ProblemContext::new(Point::new(5.0, 5.0), pts.clone(), params());
        // Deliberately unsorted, with a repeat.
        let idx = vec![7usize, 2, 29, 2, 11];
        let sub = ctx.subcontext(&idx).unwrap();
        assert_eq!(sub.len(), idx.len());
        assert_eq!(sub.depot(), ctx.depot());

        // Fresh root over the same sub-points, for comparison.
        let sub_pts: Vec<Point> = idx.iter().map(|&i| pts[i]).collect();
        let fresh = ProblemContext::new(Point::new(5.0, 5.0), sub_pts, params());

        assert_eq!(sub.distance_matrix(), fresh.distance_matrix());
        for a in 0..idx.len() {
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
        assert!(Metric::is_empty(ctx.distance_matrix()));
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
        assert!(e.to_string().contains("9000"));
        assert!(e.to_string().contains("4096"));
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
            assert_eq!(&sparse.coverage_set(i)[..], dense.neighbors(i));
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
    fn sparse_row_cache_serves_and_evicts() {
        let pts = scatter(40, 9);
        let ctx = ProblemContext::with_mode(Point::ORIGIN, pts.clone(), params(), ContextMode::Sparse)
            .unwrap();
        assert_eq!(ctx.cached_rows(), 0);
        let row = ctx.distance_row(5);
        assert_eq!(ctx.cached_rows(), 1);
        for j in 0..pts.len() {
            assert_eq!(row[j].to_bits(), pts[5].dist(pts[j]).to_bits());
            // The cached row now backs point lookups too.
            assert_eq!(ctx.distance(5, j).to_bits(), row[j].to_bits());
        }
        // A second fetch hits the cache (same Arc).
        let again = ctx.distance_row(5);
        assert!(Arc::ptr_eq(&row, &again));
        assert_eq!(ctx.cached_rows(), 1);
        // The cache stays bounded under many distinct rows.
        let dense_twin = ProblemContext::new(Point::ORIGIN, pts.clone(), params());
        for i in 0..pts.len() {
            let r = ctx.distance_row(i);
            assert_eq!(&r[..], dense_twin.distance_matrix().row(i));
        }
        assert!(ctx.cached_rows() <= pts.len());
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
        assert_eq!(
            ctx.try_distance_matrix().unwrap_err(),
            ContextError::TooLarge { len: 30, limit: 8 }
        );
        assert!(ctx.try_travel_time_matrix().is_err());
        let all: Vec<usize> = (0..30).collect();
        assert_eq!(
            ctx.travel_time_matrix_for(&all).unwrap_err(),
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
        assert_eq!(sub.distance_matrix(), fresh.distance_matrix());
        for a in 0..idx.len() {
            assert_eq!(
                sub.depot_distances()[a].to_bits(),
                fresh.depot_distances()[a].to_bits()
            );
            assert_eq!(sub.neighbors(a), fresh.neighbors(a));
        }
        // The parent still has no dense table.
        assert!(parent.try_distance_matrix().is_err());
        // A large child of a sparse parent stays sparse.
        let big: Vec<usize> = (0..40).collect();
        let big_sub = parent.subcontext(&big).unwrap();
        assert!(big_sub.is_sparse());
        assert_eq!(big_sub.travel_time(0, 39).to_bits(), parent.travel_time(0, 39).to_bits());
    }

    #[test]
    fn extended_matrix_works_sparse_and_matches_dense() {
        let pts = scatter(25, 12);
        let dense = ProblemContext::new(Point::new(1.0, 1.0), pts.clone(), params());
        let sparse = ProblemContext::with_mode_and_limit(
            Point::new(1.0, 1.0),
            pts,
            params(),
            ContextMode::Sparse,
            8,
        )
        .unwrap();
        let nodes = [4usize, 19, 0, 11];
        let (de, dm) = dense.extended_time_matrix(&nodes).unwrap();
        let (se, sm) = sparse.extended_time_matrix(&nodes).unwrap();
        assert_eq!(dm, sm);
        for a in 0..=nodes.len() {
            for b in 0..=nodes.len() {
                assert_eq!(se.at(a, b).to_bits(), de.at(a, b).to_bits());
            }
        }
    }

    proptest! {
        /// `N_c⁺(v)` from the grid-backed build must equal a brute-force
        /// radius scan for arbitrary point sets, and subcontext gathers
        /// must stay bit-identical to fresh builds.
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
                prop_assert_eq!(sub.distance_matrix(), fresh.distance_matrix());
                for a in 0..idx.len() {
                    prop_assert_eq!(sub.neighbors(a), fresh.neighbors(a));
                }
            }
        }
    }
}
