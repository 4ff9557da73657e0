//! The charging problem instance (paper §III).

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use wrsn_geom::Point;
use wrsn_net::{Network, SensorId};

use crate::context::{ContextError, ContextMode, ProblemContext};

/// Physical parameters shared by all MCVs (the paper's homogeneous
/// charger assumption).
///
/// Defaults are the paper's §VI-A settings: charging radius
/// `γ = 2.7 m`, charging rate `η = 2 W`, travel speed `s = 1 m/s`, and
/// the *full* charging model (every requested sensor is charged to
/// capacity).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChargingParams {
    /// Wireless energy transfer radius `γ`, meters.
    pub gamma_m: f64,
    /// Charging rate `η`, watts.
    pub eta_w: f64,
    /// MCV travel speed `s`, meters/second.
    pub speed_mps: f64,
    /// Partial-charging extension: requested sensors are charged up to
    /// this fraction of capacity instead of to 100 %. The paper's model
    /// is full charging (`1.0`, the default); the partial model its
    /// related work discusses (Liang et al. \[15\]) shortens sojourns at
    /// the cost of more frequent requests. Must be in `(0, 1]`.
    pub charge_target_fraction: f64,
}

impl Default for ChargingParams {
    fn default() -> Self {
        ChargingParams {
            gamma_m: 2.7,
            eta_w: 2.0,
            speed_mps: 1.0,
            charge_target_fraction: 1.0,
        }
    }
}

impl ChargingParams {
    /// The paper's parameters with the partial-charging extension set to
    /// charge batteries only up to `fraction` of capacity.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn with_partial_charging(fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "charge target fraction must be in (0, 1]"
        );
        ChargingParams { charge_target_fraction: fraction, ..Default::default() }
    }
}

/// One lifetime-critical sensor in the request set `V_s`.
#[derive(Clone, Debug, PartialEq)]
pub struct ChargingTarget {
    /// Identity of the sensor in the originating network.
    pub id: SensorId,
    /// Sensor position (also a candidate MCV sojourn location — the
    /// paper restricts sojourn locations to sensor positions).
    pub pos: Point,
    /// Charging duration `t_v = (C_v − RE_v)/η` (Eq. 1), seconds.
    pub charge_duration_s: f64,
    /// Residual lifetime at request time, seconds (used by deadline-aware
    /// baselines such as K-EDF and NETWRAP; `f64::INFINITY` if unknown).
    pub residual_lifetime_s: f64,
}

/// Error building a [`ChargingProblem`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProblemError {
    /// `K` must be at least 1.
    NoChargers,
    /// A parameter was non-positive or non-finite.
    InvalidParam(&'static str),
    /// A requested [`SensorId`] does not exist in the network.
    UnknownSensor(SensorId),
    /// The context layer refused the instance (e.g. a forced dense mode
    /// over more points than the dense limit allows).
    Context(ContextError),
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::NoChargers => write!(f, "need at least one mobile charger"),
            ProblemError::InvalidParam(p) => {
                write!(f, "parameter {p} must be positive and finite")
            }
            ProblemError::UnknownSensor(id) => write!(f, "unknown sensor {id}"),
            ProblemError::Context(e) => write!(f, "context error: {e}"),
        }
    }
}

impl Error for ProblemError {}

/// Maps a subcontext failure to the problem-layer vocabulary: an
/// out-of-range subcontext index means an unknown sensor, anything else
/// passes through.
fn subcontext_error(e: ContextError) -> ProblemError {
    match e {
        ContextError::IndexOutOfBounds { index, .. } => {
            ProblemError::UnknownSensor(SensorId(index as u32))
        }
        other => ProblemError::Context(other),
    }
}

/// An instance of the longest charge delay minimization problem
/// (Definition 1 of the paper).
///
/// Holds the depot, the homogeneous charger parameters, the number of
/// chargers `K`, and the request set `V_s` with precomputed coverage
/// sets `N_c⁺(v)` (all targets within `γ` of `v`, including `v`) and
/// charge-duration bounds `τ(v)` (Eq. 2).
///
/// # Example
///
/// ```
/// use wrsn_core::{ChargingParams, ChargingProblem, ChargingTarget};
/// use wrsn_geom::Point;
/// use wrsn_net::SensorId;
///
/// let targets = vec![ChargingTarget {
///     id: SensorId(0),
///     pos: Point::new(10.0, 0.0),
///     charge_duration_s: 3600.0,
///     residual_lifetime_s: f64::INFINITY,
/// }];
/// let p = ChargingProblem::new(Point::ORIGIN, targets, 1, ChargingParams::default())?;
/// assert_eq!(p.coverage(0), &[0]);
/// assert_eq!(p.tau(0), 3600.0);
/// # Ok::<(), wrsn_core::ProblemError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ChargingProblem {
    params: ChargingParams,
    k: usize,
    targets: Vec<ChargingTarget>,
    /// Shared geometry: depot, points, memoized depot distances, the
    /// coverage sets `N_c⁺(v)` and the charging graph `G_c`.
    ctx: Arc<ProblemContext>,
    /// `tau[i]` = max charge duration over `coverage(i)` (Eq. 2).
    tau: Vec<f64>,
}

impl ChargingProblem {
    /// Builds an instance from explicit targets.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::NoChargers`] if `k == 0` and
    /// [`ProblemError::InvalidParam`] for non-positive/non-finite
    /// parameters or negative charge durations.
    pub fn new(
        depot: Point,
        targets: Vec<ChargingTarget>,
        k: usize,
        params: ChargingParams,
    ) -> Result<Self, ProblemError> {
        Self::new_with_mode(depot, targets, k, params, ContextMode::Auto)
    }

    /// [`ChargingProblem::new`] with an explicit [`ContextMode`] for the
    /// instance's geometry context. [`ContextMode::Auto`] (what
    /// [`new`](Self::new) uses) keeps small instances on the dense
    /// matrix and switches large ones to the sparse on-demand backend.
    ///
    /// # Errors
    ///
    /// Everything [`ChargingProblem::new`] returns, plus
    /// [`ProblemError::Context`] when [`ContextMode::Dense`] is forced
    /// on an instance beyond the dense limit.
    pub fn new_with_mode(
        depot: Point,
        targets: Vec<ChargingTarget>,
        k: usize,
        params: ChargingParams,
        mode: ContextMode,
    ) -> Result<Self, ProblemError> {
        Self::validate(depot, &targets, k, params)?;
        let pts: Vec<Point> = targets.iter().map(|t| t.pos).collect();
        let ctx = ProblemContext::with_mode(depot, pts, params, mode)
            .map_err(ProblemError::Context)?;
        Ok(Self::finish(ctx, targets, k, params))
    }

    fn validate(
        depot: Point,
        targets: &[ChargingTarget],
        k: usize,
        params: ChargingParams,
    ) -> Result<(), ProblemError> {
        if k == 0 {
            return Err(ProblemError::NoChargers);
        }
        if params.gamma_m <= 0.0 || !params.gamma_m.is_finite() {
            return Err(ProblemError::InvalidParam("gamma_m"));
        }
        if params.eta_w <= 0.0 || !params.eta_w.is_finite() {
            return Err(ProblemError::InvalidParam("eta_w"));
        }
        if params.speed_mps <= 0.0 || !params.speed_mps.is_finite() {
            return Err(ProblemError::InvalidParam("speed_mps"));
        }
        if params.charge_target_fraction.is_nan()
            || params.charge_target_fraction <= 0.0
            || params.charge_target_fraction > 1.0
        {
            return Err(ProblemError::InvalidParam("charge_target_fraction"));
        }
        if !depot.is_finite() {
            return Err(ProblemError::InvalidParam("depot"));
        }
        if targets
            .iter()
            .any(|t| !t.pos.is_finite() || t.charge_duration_s.is_nan() || t.charge_duration_s < 0.0)
        {
            return Err(ProblemError::InvalidParam("targets"));
        }
        Ok(())
    }

    /// Assembles the instance around an already-built context. `τ` is
    /// computed eagerly (it forces the coverage lists once).
    fn finish(
        ctx: Arc<ProblemContext>,
        targets: Vec<ChargingTarget>,
        k: usize,
        params: ChargingParams,
    ) -> Self {
        let tau: Vec<f64> = (0..targets.len())
            .map(|i| {
                ctx.neighbors(i)
                    .iter()
                    .map(|&j| targets[j as usize].charge_duration_s)
                    .fold(0.0f64, f64::max)
            })
            .collect();
        ChargingProblem { params, k, targets, ctx, tau }
    }

    /// Builds an instance from a live network: the targets are the given
    /// `requests` with `t_v` computed from their current residual energy
    /// (Eq. 1) and residual lifetime from their consumption rate.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::UnknownSensor`] for out-of-range ids, plus
    /// everything [`ChargingProblem::new`] can return.
    pub fn from_network(
        net: &Network,
        requests: &[SensorId],
        k: usize,
    ) -> Result<Self, ProblemError> {
        Self::from_network_with(net, requests, k, ChargingParams::default())
    }

    /// [`ChargingProblem::from_network`] with explicit parameters.
    ///
    /// # Errors
    ///
    /// Same as [`ChargingProblem::from_network`].
    pub fn from_network_with(
        net: &Network,
        requests: &[SensorId],
        k: usize,
        params: ChargingParams,
    ) -> Result<Self, ProblemError> {
        let targets = Self::targets_from_network(net, requests, params)?;
        Self::new(net.depot(), targets, k, params)
    }

    /// [`ChargingProblem::from_network_with`] with an explicit
    /// [`ContextMode`] (see [`new_with_mode`](Self::new_with_mode)).
    ///
    /// # Errors
    ///
    /// Same as [`ChargingProblem::from_network_with`], plus
    /// [`ProblemError::Context`] for a refused dense mode.
    pub fn from_network_with_mode(
        net: &Network,
        requests: &[SensorId],
        k: usize,
        params: ChargingParams,
        mode: ContextMode,
    ) -> Result<Self, ProblemError> {
        let targets = Self::targets_from_network(net, requests, params)?;
        Self::new_with_mode(net.depot(), targets, k, params, mode)
    }

    /// The sub-instance over `targets[indices]` with `k` chargers: the
    /// geometry derives through [`ProblemContext::subcontext`] (computed
    /// from this instance's points at `indices`, so bit-identical to
    /// them), targets are cloned, and
    /// coverage/τ are recomputed **within the sub-instance** (a target
    /// near the cut loses cross-boundary neighbors, exactly as if the
    /// sub-instance had been posed directly). This is the shard
    /// planner's building block.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::NoChargers`] if `k == 0` and
    /// [`ProblemError::UnknownSensor`] for an out-of-range index.
    pub fn restrict(&self, indices: &[usize], k: usize) -> Result<Self, ProblemError> {
        if k == 0 {
            return Err(ProblemError::NoChargers);
        }
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.targets.len()) {
            return Err(ProblemError::UnknownSensor(SensorId(bad as u32)));
        }
        let sub = self.ctx.subcontext(indices).map_err(subcontext_error)?;
        let targets: Vec<ChargingTarget> =
            indices.iter().map(|&i| self.targets[i].clone()).collect();
        Ok(Self::finish(sub, targets, k, self.params))
    }

    /// [`ChargingProblem::from_network_with`] reusing an existing
    /// network-wide [`ProblemContext`] (from
    /// [`ProblemContext::for_network`] with the **same** network and
    /// parameters): the instance's context is that context's
    /// [`subcontext`](ProblemContext::subcontext) over the requested
    /// sensors, so its geometry is the network's bit for bit.
    ///
    /// # Errors
    ///
    /// Same as [`ChargingProblem::from_network_with`]; a request index
    /// outside the context also maps to
    /// [`ProblemError::UnknownSensor`].
    pub fn from_network_in_context(
        ctx: &Arc<ProblemContext>,
        net: &Network,
        requests: &[SensorId],
        k: usize,
        params: ChargingParams,
    ) -> Result<Self, ProblemError> {
        debug_assert_eq!(ctx.len(), net.sensors().len(), "context must cover the network");
        debug_assert_eq!(ctx.gamma_m(), params.gamma_m, "context/params gamma mismatch");
        debug_assert_eq!(ctx.speed_mps(), params.speed_mps, "context/params speed mismatch");
        let targets = Self::targets_from_network(net, requests, params)?;
        Self::validate(net.depot(), &targets, k, params)?;
        let indices: Vec<usize> = requests.iter().map(|id| id.index()).collect();
        let sub = ctx.subcontext(&indices).map_err(subcontext_error)?;
        Ok(Self::finish(sub, targets, k, params))
    }

    /// [`ChargingProblem::from_network_in_context`] planning from
    /// *estimated* residual energies instead of ground truth:
    /// `residual_j[i]` is the base station's belief about
    /// `requests[i]`'s residual (e.g. a telemetry estimator's guarded
    /// lower-confidence value), and both the charging duration `t_v`
    /// (Eq. 1) and the residual lifetime are computed from it. Geometry
    /// still comes from the live network and shared context; only the
    /// energy column of the instance is substituted. With
    /// `residual_j[i] == requests[i]`'s true residual, this is
    /// bit-identical to [`ChargingProblem::from_network_in_context`].
    ///
    /// # Errors
    ///
    /// Same as [`ChargingProblem::from_network_in_context`];
    /// additionally [`ProblemError::InvalidParam`] when `residual_j` and
    /// `requests` have different lengths or any estimate is negative or
    /// non-finite.
    pub fn from_residuals_in_context(
        ctx: &Arc<ProblemContext>,
        net: &Network,
        requests: &[SensorId],
        residual_j: &[f64],
        k: usize,
        params: ChargingParams,
    ) -> Result<Self, ProblemError> {
        debug_assert_eq!(ctx.len(), net.sensors().len(), "context must cover the network");
        debug_assert_eq!(ctx.gamma_m(), params.gamma_m, "context/params gamma mismatch");
        debug_assert_eq!(ctx.speed_mps(), params.speed_mps, "context/params speed mismatch");
        let targets = Self::targets_from_residuals(net, requests, residual_j, params)?;
        Self::validate(net.depot(), &targets, k, params)?;
        let indices: Vec<usize> = requests.iter().map(|id| id.index()).collect();
        let sub = ctx.subcontext(&indices).map_err(subcontext_error)?;
        Ok(Self::finish(sub, targets, k, params))
    }

    fn targets_from_residuals(
        net: &Network,
        requests: &[SensorId],
        residual_j: &[f64],
        params: ChargingParams,
    ) -> Result<Vec<ChargingTarget>, ProblemError> {
        if residual_j.len() != requests.len() {
            return Err(ProblemError::InvalidParam(
                "estimated residuals must match the request set length",
            ));
        }
        let mut targets = Vec::with_capacity(requests.len());
        for (&id, &r) in requests.iter().zip(residual_j) {
            let s = net
                .sensors()
                .get(id.index())
                .ok_or(ProblemError::UnknownSensor(id))?;
            if !r.is_finite() || r < 0.0 {
                return Err(ProblemError::InvalidParam(
                    "estimated residuals must be non-negative and finite",
                ));
            }
            let target_j = params.charge_target_fraction * s.capacity_j;
            let deficit = (target_j - r).max(0.0);
            targets.push(ChargingTarget {
                id,
                pos: s.pos,
                charge_duration_s: deficit / params.eta_w,
                residual_lifetime_s: s.lifetime_for_residual(r),
            });
        }
        Ok(targets)
    }

    fn targets_from_network(
        net: &Network,
        requests: &[SensorId],
        params: ChargingParams,
    ) -> Result<Vec<ChargingTarget>, ProblemError> {
        let mut targets = Vec::with_capacity(requests.len());
        for &id in requests {
            let s = net
                .sensors()
                .get(id.index())
                .ok_or(ProblemError::UnknownSensor(id))?;
            let target_j = params.charge_target_fraction * s.capacity_j;
            let deficit = (target_j - s.residual_j).max(0.0);
            targets.push(ChargingTarget {
                id,
                pos: s.pos,
                charge_duration_s: deficit / params.eta_w,
                residual_lifetime_s: s.residual_lifetime_s(),
            });
        }
        Ok(targets)
    }

    /// The MCV depot.
    pub fn depot(&self) -> Point {
        self.ctx.depot()
    }

    /// The shared memoized geometry this instance was built on.
    pub fn context(&self) -> &Arc<ProblemContext> {
        &self.ctx
    }

    /// Charger parameters.
    pub fn params(&self) -> ChargingParams {
        self.params
    }

    /// Number of mobile chargers `K`.
    pub fn charger_count(&self) -> usize {
        self.k
    }

    /// The request set `V_s`, indexed by *target index* (0-based, dense).
    pub fn targets(&self) -> &[ChargingTarget] {
        &self.targets
    }

    /// Number of targets `|V_s|`.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` iff the request set is empty.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The coverage set `N_c⁺(i)`: sorted target indices within `γ` of
    /// target `i`, including `i`.
    pub fn coverage(&self, i: usize) -> &[u32] {
        self.ctx.neighbors(i)
    }

    /// The charge-duration upper bound `τ(i) = max_{u ∈ N_c⁺(i)} t_u`
    /// (Eq. 2), seconds.
    pub fn tau(&self, i: usize) -> f64 {
        self.tau[i]
    }

    /// The charging duration `t_i` of target `i` (Eq. 1), seconds.
    pub fn charge_duration(&self, i: usize) -> f64 {
        self.targets[i].charge_duration_s
    }

    /// Travel time between targets `a` and `b`, seconds.
    pub fn travel_time(&self, a: usize, b: usize) -> f64 {
        self.ctx.travel_time(a, b)
    }

    /// Travel time between the depot and target `i`, seconds.
    pub fn depot_travel_time(&self, i: usize) -> f64 {
        self.ctx.depot_travel_time(i)
    }

    /// Depot travel-time vector, seconds.
    pub fn depot_travel_vector(&self) -> Vec<f64> {
        self.ctx.depot_travel_vector()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(id: u32, x: f64, y: f64, t: f64) -> ChargingTarget {
        ChargingTarget {
            id: SensorId(id),
            pos: Point::new(x, y),
            charge_duration_s: t,
            residual_lifetime_s: f64::INFINITY,
        }
    }

    fn params() -> ChargingParams {
        ChargingParams::default()
    }

    #[test]
    fn coverage_and_tau_follow_eq2() {
        // Targets at x = 0, 2, 10. γ = 2.7 → {0,1} mutually covered.
        let targets =
            vec![target(0, 0.0, 0.0, 100.0), target(1, 2.0, 0.0, 500.0), target(2, 10.0, 0.0, 50.0)];
        let p = ChargingProblem::new(Point::ORIGIN, targets, 1, params()).unwrap();
        assert_eq!(p.coverage(0), &[0, 1]);
        assert_eq!(p.coverage(1), &[0, 1]);
        assert_eq!(p.coverage(2), &[2]);
        assert_eq!(p.tau(0), 500.0); // max over {100, 500}
        assert_eq!(p.tau(1), 500.0);
        assert_eq!(p.tau(2), 50.0);
    }

    #[test]
    fn travel_times_divide_by_speed() {
        let targets = vec![target(0, 3.0, 4.0, 1.0), target(1, 3.0, 0.0, 1.0)];
        let mut prm = params();
        prm.speed_mps = 2.0;
        let p = ChargingProblem::new(Point::ORIGIN, targets, 1, prm).unwrap();
        assert_eq!(p.depot_travel_time(0), 2.5);
        assert_eq!(p.travel_time(0, 1), 2.0);
        assert_eq!(p.depot_travel_vector(), vec![2.5, 1.5]);
    }

    #[test]
    fn zero_chargers_rejected() {
        assert_eq!(
            ChargingProblem::new(Point::ORIGIN, Vec::new(), 0, params()).unwrap_err(),
            ProblemError::NoChargers
        );
    }

    #[test]
    fn bad_params_rejected() {
        let mut prm = params();
        prm.gamma_m = 0.0;
        assert_eq!(
            ChargingProblem::new(Point::ORIGIN, Vec::new(), 1, prm).unwrap_err(),
            ProblemError::InvalidParam("gamma_m")
        );
        let mut prm = params();
        prm.eta_w = -1.0;
        assert!(ChargingProblem::new(Point::ORIGIN, Vec::new(), 1, prm).is_err());
        let mut prm = params();
        prm.speed_mps = f64::NAN;
        assert!(ChargingProblem::new(Point::ORIGIN, Vec::new(), 1, prm).is_err());
    }

    #[test]
    fn negative_charge_duration_rejected() {
        let t = target(0, 0.0, 0.0, -1.0);
        assert_eq!(
            ChargingProblem::new(Point::ORIGIN, vec![t], 1, params()).unwrap_err(),
            ProblemError::InvalidParam("targets")
        );
    }

    #[test]
    fn empty_instance_is_valid() {
        let p = ChargingProblem::new(Point::ORIGIN, Vec::new(), 3, params()).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.charger_count(), 3);
    }

    #[test]
    fn from_network_uses_residual_energy() {
        use wrsn_net::{InitialCharge, NetworkBuilder};
        let net = NetworkBuilder::new(50)
            .seed(2)
            .initial_charge(InitialCharge::UniformFraction { lo: 0.0, hi: 0.1 })
            .build();
        let req = net.default_requesting_sensors();
        assert_eq!(req.len(), 50);
        let p = ChargingProblem::from_network(&net, &req, 2).unwrap();
        assert_eq!(p.len(), 50);
        for (i, t) in p.targets().iter().enumerate() {
            let s = net.sensor(t.id);
            assert!((t.charge_duration_s - s.deficit_j() / 2.0).abs() < 1e-9);
            assert_eq!(t.pos, s.pos);
            assert!(p.charge_duration(i) >= 0.9 * 10_800.0 / 2.0);
        }
    }

    #[test]
    fn from_residuals_matches_truth_when_estimates_are_exact() {
        use crate::context::ProblemContext;
        use wrsn_net::{InitialCharge, NetworkBuilder};
        let net = NetworkBuilder::new(40)
            .seed(5)
            .initial_charge(InitialCharge::UniformFraction { lo: 0.0, hi: 0.1 })
            .build();
        let req = net.default_requesting_sensors();
        let ctx = ProblemContext::for_network(&net, params());
        let truth: Vec<f64> = req.iter().map(|id| net.sensor(*id).residual_j).collect();
        let a = ChargingProblem::from_network_in_context(&ctx, &net, &req, 2, params()).unwrap();
        let b =
            ChargingProblem::from_residuals_in_context(&ctx, &net, &req, &truth, 2, params())
                .unwrap();
        for (ta, tb) in a.targets().iter().zip(b.targets()) {
            assert_eq!(ta.charge_duration_s.to_bits(), tb.charge_duration_s.to_bits());
            assert_eq!(ta.residual_lifetime_s.to_bits(), tb.residual_lifetime_s.to_bits());
        }
    }

    #[test]
    fn from_residuals_pessimism_lengthens_sojourns() {
        use crate::context::ProblemContext;
        use wrsn_net::{InitialCharge, NetworkBuilder};
        let net = NetworkBuilder::new(20)
            .seed(5)
            .initial_charge(InitialCharge::UniformFraction { lo: 0.05, hi: 0.1 })
            .build();
        let req = net.default_requesting_sensors();
        let ctx = ProblemContext::for_network(&net, params());
        // A guarded (lower) residual must never shorten the planned
        // sojourn or lengthen the assumed lifetime.
        let guarded: Vec<f64> =
            req.iter().map(|id| (net.sensor(*id).residual_j - 100.0).max(0.0)).collect();
        let truth = ChargingProblem::from_network_in_context(&ctx, &net, &req, 1, params()).unwrap();
        let pess =
            ChargingProblem::from_residuals_in_context(&ctx, &net, &req, &guarded, 1, params())
                .unwrap();
        for (tt, tp) in truth.targets().iter().zip(pess.targets()) {
            assert!(tp.charge_duration_s >= tt.charge_duration_s);
            assert!(tp.residual_lifetime_s <= tt.residual_lifetime_s);
        }
    }

    #[test]
    fn from_residuals_rejects_bad_estimates() {
        use crate::context::ProblemContext;
        use wrsn_net::NetworkBuilder;
        let net = NetworkBuilder::new(3).build();
        let ctx = ProblemContext::for_network(&net, params());
        let req = vec![SensorId(0), SensorId(1)];
        for bad in [vec![1.0], vec![-1.0, 2.0], vec![f64::NAN, 2.0], vec![1.0, f64::INFINITY]] {
            assert!(matches!(
                ChargingProblem::from_residuals_in_context(&ctx, &net, &req, &bad, 1, params()),
                Err(ProblemError::InvalidParam(_))
            ));
        }
        assert_eq!(
            ChargingProblem::from_residuals_in_context(
                &ctx,
                &net,
                &[SensorId(99)],
                &[1.0],
                1,
                params()
            )
            .unwrap_err(),
            ProblemError::UnknownSensor(SensorId(99))
        );
    }

    #[test]
    fn from_network_rejects_unknown_id() {
        use wrsn_net::NetworkBuilder;
        let net = NetworkBuilder::new(3).build();
        let err =
            ChargingProblem::from_network(&net, &[SensorId(99)], 1).unwrap_err();
        assert_eq!(err, ProblemError::UnknownSensor(SensorId(99)));
    }

    #[test]
    fn error_display_is_lowercase_and_concise() {
        assert_eq!(ProblemError::NoChargers.to_string(), "need at least one mobile charger");
        assert!(ProblemError::UnknownSensor(SensorId(5)).to_string().contains("s5"));
    }
}
