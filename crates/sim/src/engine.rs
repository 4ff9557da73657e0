//! Simulation configuration and the round-barrier dispatch policy:
//! drain, batch, dispatch the whole fleet, recover, repeat.

use std::path::PathBuf;

use wrsn_core::{ChargerEnergyModel, ChargingParams, ContextMode, PlanError, Planner};
use wrsn_net::{Network, SensorId, DEFAULT_REQUEST_FRACTION, YEAR_SECS};

use crate::channel::ChannelModel;
use crate::churn::ChurnModel;
use crate::fault::FaultModel;
use crate::kernel::{batch_size, drain_sensor, note_deaths, truncate_tour, Dispatch, Kernel};
use crate::report::{RoundStats, SimReport};
use crate::snapshot::Snapshot;
use crate::telemetry::TelemetryModel;
use crate::TraceEvent;

/// An inconsistent [`SimConfig`], reported by [`SimConfig::validate`]
/// and the engines' constructors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimConfigError {
    /// `horizon_s` is not a positive finite number.
    NonPositiveHorizon,
    /// `request_fraction` is outside `(0, 1]`.
    RequestFractionOutOfRange,
    /// `batch_fraction` is negative (or NaN).
    NegativeBatchFraction,
    /// `params.charge_target_fraction` does not exceed
    /// `request_fraction`, so recharged sensors re-request instantly.
    ChargeTargetNotAboveThreshold,
    /// The [`FaultModel`] has an out-of-range parameter.
    InvalidFaultModel(&'static str),
    /// The [`ChannelModel`] has an out-of-range parameter.
    InvalidChannelModel(&'static str),
    /// `admission_bound_s` is negative (or NaN).
    NegativeAdmissionBound,
    /// The [`TelemetryModel`] has an out-of-range parameter.
    InvalidTelemetryModel(&'static str),
    /// The named [`ChargingParams`] field is out of range (see
    /// [`ChargingParams::validate`]).
    InvalidChargingParams(&'static str),
    /// The [`ChurnModel`] has an out-of-range parameter.
    InvalidChurnModel(&'static str),
    /// The [`ChargerEnergyModel`] has an out-of-range parameter.
    InvalidEnergyModel(&'static str),
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::NonPositiveHorizon => write!(f, "horizon must be positive"),
            SimConfigError::RequestFractionOutOfRange => {
                write!(f, "request fraction must be in (0, 1]")
            }
            SimConfigError::NegativeBatchFraction => {
                write!(f, "batch fraction must be non-negative")
            }
            SimConfigError::ChargeTargetNotAboveThreshold => write!(
                f,
                "charge target must exceed the request threshold or sensors re-request instantly"
            ),
            SimConfigError::InvalidFaultModel(what) => {
                write!(f, "invalid fault model: {what}")
            }
            SimConfigError::InvalidChannelModel(what) => {
                write!(f, "invalid channel model: {what}")
            }
            SimConfigError::NegativeAdmissionBound => {
                write!(f, "admission bound must be non-negative")
            }
            SimConfigError::InvalidTelemetryModel(what) => {
                write!(f, "invalid telemetry model: {what}")
            }
            SimConfigError::InvalidChargingParams(what) => {
                write!(f, "invalid charging params: {what} is out of range")
            }
            SimConfigError::InvalidChurnModel(what) => {
                write!(f, "invalid churn model: {what}")
            }
            SimConfigError::InvalidEnergyModel(what) => {
                write!(f, "invalid charger energy model: {what}")
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Simulation parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Monitoring period `T_M`, seconds (default: one year).
    pub horizon_s: f64,
    /// Charging-request threshold as a fraction of capacity (default 0.2).
    pub request_fraction: f64,
    /// A round is dispatched once at least `max(min_batch,
    /// batch_fraction · n)` sensors are pending. The default fraction is
    /// 0 — dispatch as soon as any request is pending and the chargers
    /// are home — which lets round sizes find their own equilibrium
    /// (backlog grows exactly when a planner cannot keep up).
    pub batch_fraction: f64,
    /// Absolute lower bound on the dispatch batch (default 1).
    pub min_batch: usize,
    /// Charger parameters handed to
    /// [`ChargingProblem`](wrsn_core::ChargingProblem).
    pub params: ChargingParams,
    /// Collect a per-event [`crate::Trace`] (default off; traces of
    /// stressed year-long runs hold hundreds of thousands of events).
    pub collect_trace: bool,
    /// Ring-buffer cap on the collected trace: at most this many events
    /// are retained, oldest evicted first
    /// ([`Trace::dropped`](crate::Trace::dropped) counts the evictions).
    /// 0 (the default) = unbounded.
    pub trace_capacity: usize,
    /// Charger-side fault injection: breakdowns, travel jitter and
    /// charge-rate degradation. The default is fully inert and leaves
    /// fault-free runs bit-identical (no random values are drawn).
    pub fault: FaultModel,
    /// Run [`validate_schedule`](wrsn_core::validate_schedule) on every
    /// dispatched and recovery plan even in release builds (debug
    /// builds always validate). A plan that fails validation surfaces
    /// as [`PlanError::Rejected`].
    pub validate_schedules: bool,
    /// Request-channel fault injection: message loss, delivery delay and
    /// duplication between sensors and the base station. The default is
    /// fully inert and leaves runs bit-identical (no random values are
    /// drawn, and requests arrive instantly as in the paper).
    pub channel: ChannelModel,
    /// Saturation-aware admission control: when positive, a round admits
    /// pending requests (most-critical first, by time-to-depletion) only
    /// while the
    /// [`AdmissionEstimator`](wrsn_core::bounds::AdmissionEstimator)'s
    /// conservative delay bound stays within this many seconds; the rest
    /// are shed to a later round.
    /// `0` (the default) disables admission control — every delivered
    /// request is dispatched, as before.
    pub admission_bound_s: f64,
    /// Starvation bound for admission control: a request shed or
    /// deferred this many rounds is escalated — force-admitted ahead of
    /// the delay bound — so no request starves indefinitely.
    pub max_deferrals: u32,
    /// Imperfect-telemetry injection: residual-energy reports are
    /// noise-perturbed, quantized and staleness-dated, and the base
    /// station plans charge durations from an
    /// [`EnergyEstimator`](crate::EnergyEstimator)'s guarded
    /// lower-confidence residual instead of ground truth, with
    /// on-site reconciliation when an MCV arrives. The default is fully
    /// inert and leaves runs bit-identical (no random values are drawn,
    /// and planning sees true residuals as in the paper).
    pub telemetry: TelemetryModel,
    /// Topology churn: seeded permanent sensor hardware failures with
    /// incremental routing repair, cascade (energy-hole) containment and
    /// partition detection. A failed sensor stops consuming and never
    /// requests again; churn re-splits its relayed traffic among the
    /// survivors and recomputes their consumption, and excises and
    /// folds back depletion deaths the same way. The default is fully
    /// inert and leaves runs bit-identical (no random values are drawn,
    /// and the routing tree stays fixed for the whole run as in the
    /// paper).
    pub churn: ChurnModel,
    /// Finite charger energy: battery capacity, travel cost, transfer
    /// efficiency and depot recharging. When active, every dispatched
    /// tour is energy-feasibility-checked and split with depot recharge
    /// detours ([`wrsn_core::split_schedule`]); a charger that still
    /// runs dry mid-tour (travel jitter, degradation) is *stranded*
    /// where its battery died — its remaining stops re-enter the
    /// recovery/deferral path and, with [`ChargerEnergyModel::rescue`],
    /// the richest energy-feasible peer tows it home. The default is
    /// fully inert (infinite capacity) and leaves runs bit-identical;
    /// the layer is deterministic and draws no random values even when
    /// active.
    pub energy: ChargerEnergyModel,
    /// Geometry mode for the run-wide
    /// [`ProblemContext`](wrsn_core::ProblemContext):
    /// [`ContextMode::Auto`] (the default) resolves to dense up to
    /// [`wrsn_core::DEFAULT_DENSE_LIMIT`] sensors and to sparse above.
    /// Both compute every distance from points. Forcing
    /// [`ContextMode::Dense`] on an oversized network fails the run with
    /// a typed [`PlanError::Context`]. Runs are bit-identical across all
    /// three modes wherever the mode is accepted.
    pub context_mode: ContextMode,
}

impl SimConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimConfigError`] found; `Ok(())` when every
    /// parameter is in range.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.horizon_s.is_nan() || self.horizon_s <= 0.0 {
            return Err(SimConfigError::NonPositiveHorizon);
        }
        if self.request_fraction.is_nan()
            || self.request_fraction <= 0.0
            || self.request_fraction > 1.0
        {
            return Err(SimConfigError::RequestFractionOutOfRange);
        }
        if self.batch_fraction.is_nan() || self.batch_fraction < 0.0 {
            return Err(SimConfigError::NegativeBatchFraction);
        }
        if self.params.charge_target_fraction.is_nan()
            || self.params.charge_target_fraction <= self.request_fraction
        {
            return Err(SimConfigError::ChargeTargetNotAboveThreshold);
        }
        self.fault.validate().map_err(SimConfigError::InvalidFaultModel)?;
        self.channel.validate().map_err(SimConfigError::InvalidChannelModel)?;
        if self.admission_bound_s.is_nan() || self.admission_bound_s < 0.0 {
            return Err(SimConfigError::NegativeAdmissionBound);
        }
        self.telemetry.validate().map_err(SimConfigError::InvalidTelemetryModel)?;
        self.churn.validate().map_err(SimConfigError::InvalidChurnModel)?;
        self.energy.validate().map_err(SimConfigError::InvalidEnergyModel)?;
        self.params.validate().map_err(SimConfigError::InvalidChargingParams)?;
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon_s: YEAR_SECS,
            request_fraction: DEFAULT_REQUEST_FRACTION,
            batch_fraction: 0.0,
            min_batch: 1,
            params: ChargingParams::default(),
            collect_trace: false,
            trace_capacity: 0,
            fault: FaultModel::default(),
            validate_schedules: false,
            channel: ChannelModel::default(),
            admission_bound_s: 0.0,
            max_deferrals: 4,
            telemetry: TelemetryModel::default(),
            churn: ChurnModel::default(),
            energy: ChargerEnergyModel::default(),
            context_mode: ContextMode::Auto,
        }
    }
}

/// Advances every sensor across a round of real length `round_len`
/// starting at `start_s`: sensors with a completion instant are topped
/// up there, everyone drains throughout, dead time is accounted.
///
/// With perfect telemetry (`planned_j` is `None`) a completing sensor
/// snaps to the target fraction — the sojourn was planned from its true
/// deficit. With imperfect telemetry, `planned_j[i]` is the energy the
/// *estimated* deficit budgeted for sensor `i`: the battery absorbs
/// `min(planned, true deficit)` — an optimistic estimate leaves the
/// sensor short, a pessimistic one wastes the surplus sojourn time.
/// When `truth_j` is given, the sensor's true pre-recharge residual at
/// its completion instant is written to `truth_j[i]` so the caller can
/// reconcile the estimator against it.
fn advance_round(
    kn: &mut Kernel,
    start_s: f64,
    round_len: f64,
    completion_at: &[Option<f64>],
    planned_j: Option<&[f64]>,
    mut truth_j: Option<&mut [f64]>,
) {
    let target_frac = kn.cfg.params.charge_target_fraction;
    let notes = kn.note_deaths;
    // Recharges raise residuals outside the drain pass.
    kn.forget_crossing();
    let (dead_since, buf) = (&mut kn.dead_since, &mut kn.staged);
    for (i, s) in kn.net.sensors_mut().iter_mut().enumerate() {
        let dead = &mut kn.dead[i];
        let Some(c) = completion_at[i] else {
            if notes {
                note_deaths(std::slice::from_ref(s), start_s, round_len, dead_since, buf);
            }
            drain_sensor(s, round_len, dead);
            continue;
        };
        let c = c.min(round_len);
        if notes {
            note_deaths(std::slice::from_ref(s), start_s, c, dead_since, buf);
        }
        drain_sensor(s, c, dead);
        if let Some(truth) = truth_j.as_deref_mut() {
            truth[i] = s.measured_residual_j();
        }
        match planned_j {
            None => s.recharge_to(target_frac),
            Some(planned) => {
                let need = (target_frac * s.capacity_j - s.residual_j).max(0.0);
                s.recharge_by(planned[i].min(need));
            }
        }
        if notes {
            let ended_dead_s = dead_since[i].map_or(0.0, |d| start_s + c - d);
            dead_since[i] = None;
            buf.push(TraceEvent::SensorRecharged { at_s: start_s + c, sensor: s.id, ended_dead_s });
            note_deaths(std::slice::from_ref(s), start_s + c, round_len - c, dead_since, buf);
        }
        drain_sensor(s, round_len - c, dead);
    }
}

/// What one executed dispatch of a barrier round did.
struct Executed {
    /// The requests the dispatch planned.
    ids: Vec<SensorId>,
    /// Per-sensor charge-completion offset from the dispatch, real
    /// seconds; `None` for sensors not served.
    completion_at: Vec<Option<f64>>,
    /// Real length of the longest tour, seconds.
    len_s: f64,
    /// The round's delivered energy so far, joules.
    energy_j: f64,
    wait_s: f64,
    sojourns: usize,
}

/// Which half of a barrier round a dispatch is.
#[derive(Clone, Copy)]
enum Phase {
    /// The round's main dispatch.
    Main,
    /// The recovery re-plan after the main dispatch left `stranded`
    /// sensors unserved, having delivered `energy_j`.
    Recovery { stranded: usize, energy_j: f64 },
}

/// Executes a planned dispatch on `chargers` at `at`, either half of a
/// barrier round: breakdowns and battery exhaustion cut tours short,
/// every sensor drains across the dispatch and the served ones recharge
/// at their completion instants, arrivals reconcile the telemetry
/// estimator, and the dispatch's events enter the trace in time order.
fn execute(
    kn: &mut Kernel,
    d: Dispatch,
    chargers: &[usize],
    at: f64,
    factor: f64,
    phase: Phase,
) -> Executed {
    let Dispatch { ids, problem, mut exec, energy: plans, .. } = d;
    let n = kn.net.sensors().len();
    let tracing = kn.cfg.collect_trace;
    if tracing {
        kn.staged.push(match phase {
            Phase::Main => TraceEvent::RoundDispatched {
                at_s: at,
                round: kn.rounds.len(),
                requests: ids.len(),
            },
            Phase::Recovery { stranded, .. } => {
                TraceEvent::RecoveryDispatched { at_s: at, stranded, chargers: chargers.len() }
            }
        });
    }
    let wait_s = exec.total_wait_time_s();
    let sojourns = exec.sojourn_count();
    // Every charger wears its life first, then every battery replays
    // the tour the breakdowns left: a broken-down charger stops driving.
    for (tour, &c) in exec.tours.iter_mut().zip(chargers) {
        if let Some(life) = kn.wear(c, tour.return_time_s * factor, at) {
            truncate_tour(tour, life / factor);
        }
    }
    if let Some(plans) = plans.as_ref() {
        for ((tour, &c), plan) in exec.tours.iter_mut().zip(chargers).zip(plans) {
            if let Some(ex) = kn.spend(c, &problem, tour, &plan.recharge_before, factor, at) {
                truncate_tour(tour, ex);
            }
        }
    }
    let completions = exec.charge_completion_times(&problem);
    let len_s = exec.longest_delay_s() * factor;
    let mut completion_at: Vec<Option<f64>> = vec![None; n];
    for (ti, c) in completions.iter().enumerate() {
        completion_at[problem.targets()[ti].id.index()] = c.map(|c| c * factor);
    }
    let target_frac = kn.cfg.params.charge_target_fraction;
    let prior = match phase {
        Phase::Main => None,
        Phase::Recovery { energy_j, .. } => Some(energy_j),
    };
    // Energy actually delivered: with perfect telemetry the deficit of
    // every served sensor (stranded ones received nothing they could
    // keep); with imperfect telemetry it is settled at reconciliation.
    let mut energy_j = if kn.telemetry.is_none() {
        let served = kn.deficit_j(ids.iter().filter(|id| completion_at[id.index()].is_some()));
        prior.map_or(served, |e| e + served)
    } else {
        prior.unwrap_or(0.0)
    };
    // With imperfect telemetry the sojourn budget is fixed at dispatch
    // from the *estimated* deficit: the battery can only absorb what
    // those durations transfer.
    let planned: Option<Vec<f64>> = kn.telemetry.as_ref().map(|_| {
        let mut v = vec![0.0f64; n];
        for tgt in problem.targets() {
            v[tgt.id.index()] = tgt.charge_duration_s * kn.cfg.params.eta_w;
        }
        v
    });
    let mut truth: Option<Vec<f64>> = kn.telemetry.as_ref().map(|_| vec![0.0f64; n]);
    advance_round(kn, at, len_s, &completion_at, planned.as_deref(), truth.as_deref_mut());
    // Arrival reconciliation: each MCV measured the true residual the
    // instant its sojourn started paying out; correct the estimator and
    // settle delivered energy against truth.
    if let (Some(tel), Some(planned), Some(truth)) =
        (kn.telemetry.as_mut(), planned.as_ref(), truth.as_ref())
    {
        for &id in &ids {
            let i = id.index();
            if let Some(c) = completion_at[i] {
                let s = kn.net.sensor(id);
                energy_j += tel.reconcile(
                    id,
                    s.capacity_j,
                    s.consumption_w,
                    truth[i],
                    planned[i],
                    target_frac * s.capacity_j,
                    at + c.min(len_s),
                    tracing,
                    &mut kn.staged,
                );
            }
        }
    }
    kn.flush(true);
    Executed { ids, completion_at, len_s, energy_j, wait_s, sojourns }
}

/// What became of one loop step of the barrier policy.
enum Step {
    /// A round was dispatched and has completed.
    Round,
    /// The clock advanced without a round.
    Waited,
    /// Nothing can happen before the horizon.
    Stop,
}

/// Drains the network for `dt` seconds and advances the clock;
/// [`Step::Stop`] when there is no time left to wait.
fn wait(kn: &mut Kernel, dt: f64) -> Step {
    if dt <= 0.0 {
        return Step::Stop;
    }
    kn.drain(dt);
    kn.t += dt;
    Step::Waited
}

/// One barrier round over `pending` on the in-service chargers
/// `avail`: admission, the main dispatch, and — when breakdowns or
/// energy drops stranded sensors — a recovery re-plan at the main
/// dispatch's return onto the surviving chargers, through a fallback
/// chain that cannot fail. Sensors still unserved defer to a later
/// round.
fn round(
    kn: &mut Kernel,
    planner: &dyn Planner,
    pending: Vec<SensorId>,
    avail: &[usize],
) -> Result<Step, PlanError> {
    let (t, horizon, n) = (kn.t, kn.cfg.horizon_s, kn.net.sensors().len());
    let planning = kn.planning(t);
    let Some(main) = kn.dispatch(planner, pending, planning.as_deref(), avail, |_| false)? else {
        // Energy splitting dropped every stop: wait for a tank to refill
        // or for the pending set to change, then retry.
        return Ok(wait(kn, kn.retry_in(avail).min(horizon - t)));
    };
    kn.flush(false);
    let factor = kn.factor();
    let shed = main.shed;
    let main = execute(kn, main, avail, t, factor, Phase::Main);
    let done = |id: &SensorId| main.completion_at[id.index()].is_some();
    let stranded: Vec<SensorId> = main.ids.iter().copied().filter(|id| !done(id)).collect();
    let mut charged = main.ids.len() - stranded.len();
    let mut requests = main.ids.len() + shed;
    let mut recovered = 0usize;
    let (mut energy_j, mut wait_s, mut sojourns) = (main.energy_j, main.wait_s, main.sojourns);
    let mut recovery_len = 0.0f64;
    let mut recovered_at: Vec<Option<f64>> = vec![None; n];
    let t_end = t + main.len_s;
    if !stranded.is_empty() && (kn.fault.is_some() || kn.energy.is_some()) {
        let avail2 = in_service(kn, t_end);
        if !avail2.is_empty() && t_end < horizon {
            // Reports deferred during the round land now, at the
            // boundary the recovery plans from. A shed request served
            // here re-enters the ledger as a fresh request.
            kn.advance_reports(t_end);
            let pending2 = kn.pending();
            kn.flush(false);
            let recovery = if pending2.is_empty() {
                None
            } else {
                let planning2 = kn.planning(t_end);
                kn.plan(planner, pending2, planning2.as_deref(), &avail2, true)?
            };
            if let Some(d) = recovery {
                let factor2 = kn.factor();
                kn.ledger.recovery_rounds += 1;
                let phase = Phase::Recovery { stranded: stranded.len(), energy_j };
                let rec = execute(kn, d, &avail2, t_end, factor2, phase);
                (energy_j, recovery_len) = (rec.energy_j, rec.len_s);
                wait_s += rec.wait_s;
                sojourns += rec.sojourns;
                recovered_at = rec.completion_at;
                // Ledger: recovery newcomers extend the round's request
                // set; a stranded sensor completed here is recovered.
                let mut in_main = vec![false; n];
                for id in &main.ids {
                    in_main[id.index()] = true;
                }
                for id in rec.ids.iter().filter(|id| !in_main[id.index()]) {
                    requests += 1;
                    charged += usize::from(recovered_at[id.index()].is_some());
                }
                recovered = stranded.iter().filter(|id| recovered_at[id.index()].is_some()).count();
            }
        }
    }
    let l = &mut kn.ledger;
    l.charged_sensors += charged;
    l.recovered_sensors += recovered;
    l.deferred_sensors += requests - charged - recovered - shed;
    // Starvation bookkeeping: a served request resets its deferral
    // clock; one left stranded keeps accumulating.
    for (i, d) in kn.deferral_count.iter_mut().enumerate() {
        if main.completion_at[i].is_some() || recovered_at[i].is_some() {
            *d = 0;
        }
    }
    for id in &stranded {
        if recovered_at[id.index()].is_none() {
            let d = &mut kn.deferral_count[id.index()];
            *d = d.saturating_add(1);
        }
    }
    let total = main.len_s + recovery_len;
    if kn.cfg.collect_trace {
        let round = kn.rounds.len();
        kn.staged.push(TraceEvent::RoundCompleted {
            at_s: t + total,
            round,
            longest_delay_s: total,
        });
        kn.flush(false);
    }
    kn.rounds.push(RoundStats {
        dispatch_time_s: t,
        request_count: requests,
        longest_delay_s: total,
        total_wait_s: wait_s,
        sojourn_count: sojourns,
        energy_delivered_j: energy_j,
    });
    kn.t += total.max(1.0);
    Ok(Step::Round)
}

/// The chargers in service at `at`, ascending: not in repair and, under
/// an active energy layer, neither stranded nor mid-tow or mid-refill,
/// once docked chargers have trickle-charged up to `at`. The rest sit
/// the dispatch out: the fleet degrades gracefully, and admission
/// control sheds what the remainder cannot plausibly serve.
fn in_service(kn: &mut Kernel, at: f64) -> Vec<usize> {
    let mut avail: Vec<usize> = match kn.fault.as_ref() {
        Some(fs) => fs.available(at),
        None => (0..kn.k).collect(),
    };
    if let Some(ef) = kn.energy.as_mut() {
        ef.accrue_idle(at);
        avail.retain(|&c| ef.in_service(c, at));
    }
    avail
}

/// A round attempt of the barrier policy: the round runs on the
/// chargers in service now (not in repair, mid-tow or mid-refill). When
/// none is, the run waits for the earliest return; if nothing ever
/// returns (every charger stranded beyond rescue), the network degrades
/// unattended to the horizon.
fn attempt_round(
    kn: &mut Kernel,
    planner: &dyn Planner,
    pending: Vec<SensorId>,
) -> Result<Step, PlanError> {
    let t = kn.t;
    let avail = in_service(kn, t);
    if avail.is_empty() {
        let next_fault = kn.fault.as_ref().and_then(|fs| fs.next_available_at(t));
        let next_energy = kn.energy.as_ref().and_then(|ef| ef.next_in_service_at(t));
        let next = next_fault.into_iter().chain(next_energy).fold(f64::INFINITY, f64::min);
        return Ok(wait(kn, (next - t + 1e-9).min(kn.cfg.horizon_s - t)));
    }
    round(kn, planner, pending, &avail)
}

/// A monitoring-period simulation of one network instance under the
/// round-barrier dispatch policy: all in-service MCVs leave together
/// and the next round waits for the longest tour.
///
/// Owns a mutable copy of the network; [`Simulation::run`] consumes the
/// simulation and produces a [`SimReport`]. See the
/// [crate docs](crate) for the round model.
#[derive(Clone, Debug)]
pub struct Simulation {
    net: Network,
    config: SimConfig,
    /// Checkpoint destination directory and round period, if enabled.
    checkpoint: Option<(PathBuf, usize)>,
    /// Snapshot to resume from instead of starting at `t = 0`.
    resume: Option<Snapshot>,
    /// External interrupt flag (SIGINT/SIGTERM): when it flips true the
    /// run stops at the next round boundary after writing a final
    /// checkpoint (if checkpointing is enabled).
    interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl Simulation {
    /// Creates a simulation over `net` with the given config.
    ///
    /// # Errors
    ///
    /// Returns [`SimConfigError`] if the horizon is non-positive, the
    /// request fraction is outside `(0, 1]`, the batch fraction is
    /// negative, or a layer model is out of range.
    pub fn new(net: Network, config: SimConfig) -> Result<Self, SimConfigError> {
        config.validate()?;
        Ok(Simulation { net, config, checkpoint: None, resume: None, interrupt: None })
    }

    /// Enables crash-safe checkpointing: a [`Snapshot`] of the complete
    /// simulation state (sensor energies, fleet and channel state, RNG
    /// stream positions, service ledger, trace ring) is written
    /// atomically to `dir` every `every` dispatched rounds.
    ///
    /// # Panics
    ///
    /// [`Simulation::run`] panics if a checkpoint file cannot be
    /// written — a checkpointed run that silently stops checkpointing
    /// would defeat the purpose.
    pub fn checkpoint_to(mut self, dir: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint = Some((dir.into(), every.max(1)));
        self
    }

    /// Resumes from a [`Snapshot`] taken by a checkpointing run with the
    /// same network, config, planner and fleet size. The resumed run's
    /// report is bit-identical to the uninterrupted run's.
    pub fn resume_from(mut self, snapshot: Snapshot) -> Self {
        self.resume = Some(snapshot);
        self
    }

    /// Installs an external interrupt flag (typically flipped by a
    /// SIGINT/SIGTERM handler). When the flag reads `true` at a round
    /// boundary the run writes a final checkpoint (if
    /// [`Simulation::checkpoint_to`] is configured — off-period writes
    /// included) and returns early with
    /// [`SimReport::interrupted`](crate::SimReport) set, instead of
    /// dying mid-round. Resuming from that checkpoint completes the run
    /// bit-identically to one never interrupted.
    pub fn interrupt_on(mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// The dispatch batch size for this network.
    pub fn batch_size(&self) -> usize {
        batch_size(&self.config, self.net.sensors().len())
    }

    /// Runs the simulation to the horizon using `planner` and `k` MCVs.
    ///
    /// With an active [`SimConfig::fault`] model, chargers can break
    /// down mid-tour: the unfinished sojourns are stranded, the failed
    /// charger enters repair, and the stranded plus any newly-pending
    /// sensors are immediately re-planned onto the surviving chargers
    /// through a bounded fallback chain (`planner` → K-EDF →
    /// [`wrsn_core::GreedyTour`]) that cannot panic. Sensors still
    /// unserved after recovery defer to the next round; the report's
    /// [`SimReport::service_reconciles`] ties the ledger together.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from the planner, including
    /// [`PlanError::Rejected`] when schedule validation is on
    /// (debug builds, or [`SimConfig::validate_schedules`]) and a plan
    /// breaks a replay invariant.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn run(self, planner: &dyn Planner, k: usize) -> Result<SimReport, PlanError> {
        let batch = self.batch_size();
        let Simulation { net, config, checkpoint, resume, interrupt } = self;
        let mut kn = Kernel::new(net, config, k, true)?;
        if let Some(snap) = resume {
            kn.restore(snap);
        }
        let n = kn.net.sensors().len();
        let horizon = config.horizon_s;
        let mut interrupted = false;
        while kn.t < horizon {
            let t = kn.t;
            kn.churn_step();
            kn.advance_reports(t);
            let pending = kn.pending();
            kn.rescue();
            kn.flush(false);
            let step = if pending.len() >= batch.min(n.max(1)) && !pending.is_empty() {
                attempt_round(&mut kn, planner, pending)?
            } else {
                // Too few requests: sleep to the next threshold crossing
                // or layer event (or the horizon).
                let (rel, abs) = kn.wake(false);
                wait(&mut kn, (horizon - t).min(rel + 1e-9).min(abs - t + 1e-9))
            };
            match step {
                Step::Stop => break,
                Step::Waited => {}
                Step::Round => {
                    // Crash safety: persist the complete state at the
                    // round boundary — exactly the loop-top state a
                    // resumed run re-enters with. An external interrupt
                    // forces a final off-period checkpoint and ends the
                    // run gracefully instead of dying mid-round.
                    let interrupt_now = interrupt
                        .as_ref()
                        .is_some_and(|f| f.load(std::sync::atomic::Ordering::Relaxed));
                    if let Some((dir, every)) = checkpoint.as_ref() {
                        if interrupt_now || kn.rounds.len() % *every == 0 {
                            kn.snapshot()
                                .write_to_dir(dir, kn.rounds.len())
                                .expect("checkpoint write failed");
                        }
                    }
                    if interrupt_now {
                        interrupted = true;
                        break;
                    }
                }
            }
        }
        Ok(kn.report(interrupted))
    }

    /// Drains the network (no charging) until the first threshold
    /// crossing, then for `period_s` more seconds, and returns everything
    /// pending — the request set a base station dispatching every
    /// `period_s` would hand the chargers. This is the *snapshot
    /// instance* of the Fig. (a)-type experiments: its size grows with
    /// the network's demand (more sensors or higher data rates → more
    /// requests per dispatch), the mechanism the paper cites for Fig. 4.
    ///
    /// Returns an empty set only if no sensor can ever cross.
    pub fn warm_up_period(
        net: &mut Network,
        request_fraction: f64,
        period_s: f64,
    ) -> Vec<SensorId> {
        match net.time_to_next_crossing(request_fraction) {
            Some(dt) => net.drain_all(dt + 1e-9),
            None => return Vec::new(),
        }
        net.drain_all(period_s);
        net.requesting_sensors(request_fraction)
    }

    /// Drains the network (no charging) until `batch` sensors are pending
    /// and returns that request set — a fixed-size variant of
    /// [`Simulation::warm_up_period`]. Returns fewer than `batch` ids
    /// only if no further sensor can ever cross the threshold.
    pub fn warm_up_requests(
        net: &mut Network,
        request_fraction: f64,
        batch: usize,
    ) -> Vec<SensorId> {
        let mut guard = net.sensors().len() + 1;
        loop {
            let pending = net.requesting_sensors(request_fraction);
            if pending.len() >= batch || guard == 0 {
                return pending;
            }
            match net.time_to_next_crossing(request_fraction) {
                Some(dt) => net.drain_all(dt + 1e-9),
                None => return pending,
            }
            guard -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_core::{Appro, PlannerConfig};
    use wrsn_net::NetworkBuilder;

    fn month() -> f64 {
        30.0 * 24.0 * 3600.0
    }

    #[test]
    fn a_barrier_round_drops_the_kept_crossing() {
        let net = NetworkBuilder::new(40).seed(6).build();
        let mut kn = Kernel::new(net, SimConfig::default(), 2, false).unwrap();
        kn.drain(3_600.0);
        kn.t = 3_600.0;
        let kept = kn.wake(true).0;
        let fraction = kn.cfg.request_fraction;
        let mut completion_at = vec![None; kn.net.sensors().len()];
        completion_at[3] = Some(60.0);
        advance_round(&mut kn, 3_600.0, 600.0, &completion_at, None, None);
        kn.t += 600.0;
        let scanned = kn.net.time_to_next_crossing(fraction).unwrap_or(f64::INFINITY);
        assert_ne!(scanned.to_bits(), kept.to_bits());
        crate::kernel::tests::assert_dropped_then_rebuilt(&mut kn);
    }

    #[test]
    fn runs_and_dispatches_rounds() {
        let net = NetworkBuilder::new(80).seed(1).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = month();
        let report = Simulation::new(net, cfg)
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), 2)
            .unwrap();
        assert!(report.rounds_dispatched() >= 1, "a month must trigger rounds");
        for r in &report.rounds {
            assert!(r.request_count >= 1);
            assert!(r.longest_delay_s > 0.0);
        }
        assert!(report.service_reconciles());
        assert_eq!(report.charger_failures, 0);
        assert_eq!(report.recovery_rounds, 0);
        assert_eq!(report.recovered_sensors, 0);
    }

    #[test]
    fn dead_time_zero_when_chargers_plentiful() {
        // Tiny network, 3 chargers, very aggressive batch (dispatch on the
        // first request): nobody should ever die.
        let net = NetworkBuilder::new(20).seed(2).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = month();
        cfg.batch_fraction = 0.0;
        let report = Simulation::new(net, cfg)
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), 3)
            .unwrap();
        assert_eq!(report.total_dead_time_s(), 0.0);
        assert_eq!(report.always_alive_fraction(), 1.0);
    }

    #[test]
    fn horizon_bounds_dead_time() {
        let net = NetworkBuilder::new(40).seed(3).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = month();
        let report = Simulation::new(net, cfg)
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), 1)
            .unwrap();
        for &d in &report.dead_time_s {
            assert!(d <= cfg.horizon_s);
        }
    }

    #[test]
    fn energy_delivered_matches_deficits() {
        let net = NetworkBuilder::new(30).seed(4).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = month();
        let report = Simulation::new(net, cfg)
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), 2)
            .unwrap();
        // Energy delivered is positive and bounded by what the batteries
        // could possibly absorb over the rounds.
        let e = report.energy_delivered_j();
        assert!(e > 0.0);
        let max_per_round = 30.0 * 10_800.0;
        assert!(e <= max_per_round * report.rounds_dispatched() as f64);
    }

    #[test]
    fn warm_up_returns_requested_batch() {
        let mut net = NetworkBuilder::new(60).seed(5).build();
        let req = Simulation::warm_up_requests(&mut net, 0.2, 6);
        assert!(req.len() >= 6);
        for id in &req {
            assert!(net.sensor(*id).charge_fraction() < 0.2 + 1e-9);
        }
    }

    #[test]
    fn batch_size_respects_minimum() {
        let net = NetworkBuilder::new(10).seed(6).build();
        let mut cfg = SimConfig::default();
        cfg.batch_fraction = 0.0;
        cfg.min_batch = 4;
        assert_eq!(Simulation::new(net, cfg).unwrap().batch_size(), 4);
    }

    #[test]
    fn trace_records_rounds_and_lifecycle() {
        let net = NetworkBuilder::new(60).seed(8).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = month();
        cfg.collect_trace = true;
        let report = Simulation::new(net, cfg)
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), 2)
            .unwrap();
        assert!(!report.trace.is_empty());
        // One dispatched + one completed event per round.
        let dispatched = report
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::RoundDispatched { .. }))
            .count();
        let completed = report
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::RoundCompleted { .. }))
            .count();
        assert_eq!(dispatched, report.rounds_dispatched());
        assert_eq!(completed, report.rounds_dispatched());
        // Chronological order.
        let events: Vec<TraceEvent> = report.trace.iter().copied().collect();
        for w in events.windows(2) {
            assert!(w[0].at_s() <= w[1].at_s() + 1e-6);
        }
        // Deaths in the trace are consistent with dead-time accounting.
        if report.total_dead_time_s() == 0.0 {
            assert_eq!(report.trace.count(|e| matches!(e, TraceEvent::SensorDied { .. })), 0);
        }
    }

    #[test]
    fn trace_is_empty_by_default() {
        let net = NetworkBuilder::new(30).seed(9).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = month();
        let report = Simulation::new(net, cfg)
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), 2)
            .unwrap();
        assert!(report.trace.is_empty());
    }

    #[test]
    fn trace_capacity_caps_memory() {
        let net = NetworkBuilder::new(60).seed(8).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = month();
        cfg.collect_trace = true;
        cfg.trace_capacity = 16;
        let report = Simulation::new(net, cfg)
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), 2)
            .unwrap();
        assert!(report.trace.len() <= 16);
        assert!(report.trace.dropped() > 0, "a month of events must overflow 16 slots");
    }

    #[test]
    fn trace_dead_time_matches_recharge_events() {
        // A stressed instance: deaths must appear in the trace and the
        // ended_dead_s sums approximate the accounted dead time of
        // sensors that were eventually recharged.
        let net = NetworkBuilder::new(600).seed(10).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = 120.0 * 24.0 * 3600.0;
        cfg.collect_trace = true;
        let report = Simulation::new(net, cfg)
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), 1)
            .unwrap();
        if report.total_dead_time_s() > 0.0 {
            assert!(report.trace.count(|e| matches!(e, TraceEvent::SensorDied { .. })) > 0);
            let ended: f64 = report
                .trace
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::SensorRecharged { ended_dead_s, .. } => Some(*ended_dead_s),
                    _ => None,
                })
                .sum();
            // Recharge-ended dead time can't exceed total accounted dead
            // time (the tail may still be dead at the horizon).
            assert!(ended <= report.total_dead_time_s() + 1.0);
        }
    }

    #[test]
    fn zero_horizon_is_rejected() {
        let net = NetworkBuilder::new(5).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = 0.0;
        assert_eq!(
            Simulation::new(net, cfg).err(),
            Some(SimConfigError::NonPositiveHorizon)
        );
    }

    #[test]
    fn invalid_fault_model_is_rejected() {
        let net = NetworkBuilder::new(5).build();
        let mut cfg = SimConfig::default();
        cfg.fault.travel_jitter = 1.5;
        assert!(matches!(
            Simulation::new(net, cfg).err(),
            Some(SimConfigError::InvalidFaultModel(_))
        ));
    }

    #[test]
    fn config_errors_display() {
        let mut cfg = SimConfig::default();
        cfg.request_fraction = 0.0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("request fraction"));
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    #[test]
    fn invalid_channel_model_is_rejected() {
        let net = NetworkBuilder::new(5).build();
        let mut cfg = SimConfig::default();
        cfg.channel.loss_prob = 1.0;
        assert!(matches!(
            Simulation::new(net, cfg).err(),
            Some(SimConfigError::InvalidChannelModel(_))
        ));
        let mut cfg = SimConfig::default();
        cfg.admission_bound_s = -1.0;
        assert_eq!(cfg.validate(), Err(SimConfigError::NegativeAdmissionBound));
    }

    #[test]
    #[should_panic(expected = "charger")]
    fn zero_chargers_panics() {
        let net = NetworkBuilder::new(5).build();
        let _ = Simulation::new(net, SimConfig::default())
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), 0);
    }

    #[test]
    fn inert_fault_model_is_bit_identical() {
        let run = |fault: FaultModel| {
            let net = NetworkBuilder::new(80).seed(1).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = month();
            cfg.fault = fault;
            Simulation::new(net, cfg)
                .unwrap()
                .run(&Appro::new(PlannerConfig::default()), 2)
                .unwrap()
        };
        // A non-default seed on an otherwise inert model must not change
        // anything: inactive models draw zero random values.
        let mut seeded = FaultModel::default();
        seeded.seed = 999;
        assert_eq!(run(FaultModel::default()), run(seeded));
    }

    #[test]
    fn year_with_breakdowns_completes_and_recovers() {
        // The issue's acceptance scenario: charger MTBF a quarter of the
        // horizon, K = 3, a year-long run. Must complete without
        // panicking, report breakdowns with matching recoveries, pass
        // schedule validation on every plan, and keep the ledger exact.
        let net = NetworkBuilder::new(300).seed(1).build();
        let mut cfg = SimConfig::default();
        cfg.validate_schedules = true;
        cfg.fault.charger_mtbf_s = 0.25 * cfg.horizon_s;
        cfg.fault.charger_repair_s = 24.0 * 3600.0;
        cfg.fault.seed = 7;
        let report = Simulation::new(net, cfg)
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), 3)
            .unwrap();
        assert!(
            report.charger_failures >= 1,
            "a year at quarter-horizon MTBF must break something"
        );
        assert!(
            report.recovery_rounds >= 1,
            "breakdowns strand sensors, so recovery must have dispatched"
        );
        assert!(report.recovered_sensors >= 1);
        assert!(report.service_reconciles(), "service ledger must balance exactly");
    }

    #[test]
    fn breakdown_trace_pairs_failures_with_recoveries() {
        let net = NetworkBuilder::new(300).seed(1).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = 180.0 * 24.0 * 3600.0;
        cfg.collect_trace = true;
        cfg.fault.charger_mtbf_s = 0.1 * cfg.horizon_s;
        cfg.fault.charger_repair_s = 48.0 * 3600.0;
        cfg.fault.seed = 3;
        let report = Simulation::new(net, cfg)
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), 3)
            .unwrap();
        assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::ChargerFailed { .. })),
            report.charger_failures
        );
        assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::RecoveryDispatched { .. })),
            report.recovery_rounds
        );
        assert!(report.charger_failures >= 1);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let run = || {
            let net = NetworkBuilder::new(150).seed(4).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = 90.0 * 24.0 * 3600.0;
            cfg.fault.charger_mtbf_s = 0.2 * cfg.horizon_s;
            cfg.fault.charger_repair_s = 12.0 * 3600.0;
            cfg.fault.travel_jitter = 0.2;
            cfg.fault.degrade_prob = 0.1;
            cfg.fault.degrade_factor = 1.5;
            cfg.fault.seed = 11;
            Simulation::new(net, cfg)
                .unwrap()
                .run(&Appro::new(PlannerConfig::default()), 2)
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn jitter_changes_round_lengths_but_keeps_ledger() {
        let run = |jitter: f64| {
            let net = NetworkBuilder::new(100).seed(6).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = month();
            cfg.fault.travel_jitter = jitter;
            cfg.fault.seed = 5;
            Simulation::new(net, cfg)
                .unwrap()
                .run(&Appro::new(PlannerConfig::default()), 2)
                .unwrap()
        };
        let calm = run(0.0);
        let rough = run(0.4);
        assert!(calm.service_reconciles() && rough.service_reconciles());
        // Same network, same planner: jitter must have perturbed at
        // least one round's length.
        let calm_delays: Vec<f64> = calm.rounds.iter().map(|r| r.longest_delay_s).collect();
        let rough_delays: Vec<f64> =
            rough.rounds.iter().map(|r| r.longest_delay_s).collect();
        assert_ne!(calm_delays, rough_delays);
    }

    #[test]
    fn truncate_tour_clips_and_drops() {
        use wrsn_core::{ChargerTour, Sojourn};
        let mut tour = ChargerTour {
            sojourns: vec![
                Sojourn { target: 0, arrival_s: 10.0, start_s: 10.0, duration_s: 20.0 },
                Sojourn { target: 1, arrival_s: 40.0, start_s: 40.0, duration_s: 20.0 },
                Sojourn { target: 2, arrival_s: 70.0, start_s: 70.0, duration_s: 20.0 },
            ],
            return_time_s: 100.0,
        };
        truncate_tour(&mut tour, 50.0);
        assert_eq!(tour.sojourns.len(), 2);
        assert_eq!(tour.sojourns[1].duration_s, 10.0); // clipped at 50
        assert_eq!(tour.return_time_s, 50.0);

        let mut early = ChargerTour {
            sojourns: vec![Sojourn {
                target: 0,
                arrival_s: 10.0,
                start_s: 10.0,
                duration_s: 20.0,
            }],
            return_time_s: 40.0,
        };
        truncate_tour(&mut early, 5.0); // fails before the first arrival
        assert!(early.sojourns.is_empty());
        assert_eq!(early.return_time_s, 5.0);
    }

    #[test]
    fn inert_channel_layer_is_bit_identical() {
        let run = |channel: ChannelModel| {
            let net = NetworkBuilder::new(80).seed(1).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = month();
            cfg.channel = channel;
            Simulation::new(net, cfg)
                .unwrap()
                .run(&Appro::new(PlannerConfig::default()), 2)
                .unwrap()
        };
        // As with the fault layer: an inert channel (all probabilities and
        // delays zero) must draw zero random values, whatever its seed.
        let mut seeded = ChannelModel::default();
        seeded.seed = 31_337;
        let base = run(ChannelModel::default());
        assert_eq!(base, run(seeded));
        assert_eq!(base.lost_requests, 0);
        assert_eq!(base.duplicates_dropped, 0);
        assert_eq!(base.shed_sensors, 0);
    }

    #[test]
    fn lossy_channel_reconciles_and_is_deterministic() {
        // The issue's acceptance scenario: 30 % request loss on a
        // saturated fleet (K = 1). No panics, exact ledger, reproducible.
        let run = || {
            let net = NetworkBuilder::new(200).seed(9).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = 120.0 * 24.0 * 3600.0;
            cfg.channel.loss_prob = 0.3;
            cfg.channel.delay_max_s = 300.0;
            cfg.channel.duplicate_prob = 0.05;
            cfg.channel.seed = 42;
            cfg.validate_schedules = true;
            Simulation::new(net, cfg)
                .unwrap()
                .run(&Appro::new(PlannerConfig::default()), 1)
                .unwrap()
        };
        let report = run();
        assert!(report.service_reconciles(), "ledger must balance under loss");
        assert!(report.lost_requests > 0, "30 % loss over 4 months must lose requests");
        assert!(report.rounds_dispatched() >= 1);
        assert_eq!(report, run());
    }

    #[test]
    fn admission_control_sheds_but_never_starves() {
        let net = NetworkBuilder::new(250).seed(12).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = 120.0 * 24.0 * 3600.0;
        cfg.collect_trace = true;
        // A bound tight enough to refuse parts of every large batch.
        cfg.admission_bound_s = 4.0 * 3600.0;
        cfg.max_deferrals = 3;
        let report = Simulation::new(net, cfg)
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), 1)
            .unwrap();
        assert!(report.shed_sensors > 0, "a 4 h bound on K = 1 must shed");
        assert!(report.service_reconciles());
        assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::RequestShed { .. })),
            report.shed_sensors
        );
        assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::RequestEscalated { .. })),
            report.escalated_requests
        );
        // The starvation guarantee: a request is only ever shed while its
        // deferral count is still below the escalation bound.
        for ev in report.trace.iter() {
            if let TraceEvent::RequestShed { deferrals, .. } = ev {
                assert!(
                    *deferrals < cfg.max_deferrals,
                    "request shed after reaching the escalation bound"
                );
            }
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        // Acceptance criterion: a run killed at a checkpoint and resumed
        // from the snapshot must produce a report bit-identical to the
        // uninterrupted run — with both the fault and channel RNG streams
        // mid-flight at the capture point.
        let make = || {
            let net = NetworkBuilder::new(120).seed(21).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = 120.0 * 24.0 * 3600.0;
            cfg.collect_trace = true;
            cfg.fault.charger_mtbf_s = 0.3 * cfg.horizon_s;
            cfg.fault.charger_repair_s = 24.0 * 3600.0;
            cfg.fault.travel_jitter = 0.1;
            cfg.fault.seed = 5;
            cfg.channel.loss_prob = 0.2;
            cfg.channel.delay_max_s = 600.0;
            cfg.channel.duplicate_prob = 0.1;
            cfg.channel.seed = 17;
            (net, cfg)
        };
        let planner = Appro::new(PlannerConfig::default());

        let (net, cfg) = make();
        let uninterrupted = Simulation::new(net, cfg).unwrap().run(&planner, 2).unwrap();
        assert!(uninterrupted.rounds_dispatched() >= 4, "need rounds to checkpoint");

        let dir = std::env::temp_dir().join("wrsn_engine_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let (net, cfg) = make();
        let checkpointed = Simulation::new(net, cfg)
            .unwrap()
            .checkpoint_to(&dir, 2)
            .run(&planner, 2)
            .unwrap();
        assert_eq!(uninterrupted, checkpointed, "checkpointing must not perturb");

        let snap = Snapshot::read(&dir.join("checkpoint_round0002.json")).expect("read ckpt");
        assert_eq!(snap.round(), 2);
        let (net, cfg) = make();
        let resumed = Simulation::new(net, cfg)
            .unwrap()
            .resume_from(snap)
            .run(&planner, 2)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(uninterrupted, resumed, "resumed run must be bit-identical");
    }

    #[test]
    fn interrupt_checkpoints_and_resume_completes_bit_identically() {
        // SIGINT/SIGTERM semantics: a pre-set interrupt flag stops the
        // run at the first round boundary, forces an off-period
        // checkpoint, and marks the partial report interrupted; a run
        // resumed from that checkpoint finishes bit-identically to one
        // never interrupted.
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let make = || {
            let net = NetworkBuilder::new(120).seed(21).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = 120.0 * 24.0 * 3600.0;
            cfg.collect_trace = true;
            (net, cfg)
        };
        let planner = Appro::new(PlannerConfig::default());

        let (net, cfg) = make();
        let full = Simulation::new(net, cfg).unwrap().run(&planner, 2).unwrap();
        assert!(!full.interrupted);
        assert!(full.rounds_dispatched() >= 3, "need rounds to interrupt between");

        let dir = std::env::temp_dir().join("wrsn_engine_interrupt_test");
        std::fs::remove_dir_all(&dir).ok();
        // Checkpoint period 1000 rounds: the only write must be the
        // forced one the interrupt triggers at round 1.
        let flag = Arc::new(AtomicBool::new(true));
        let (net, cfg) = make();
        let partial = Simulation::new(net, cfg)
            .unwrap()
            .checkpoint_to(&dir, 1000)
            .interrupt_on(flag)
            .run(&planner, 2)
            .unwrap();
        assert!(partial.interrupted, "flagged run must report the interrupt");
        assert_eq!(partial.rounds_dispatched(), 1, "stops at the first boundary");

        let snap = Snapshot::read(&dir.join("checkpoint_round0001.json"))
            .expect("interrupt must leave a checkpoint");
        assert_eq!(snap.round(), 1);
        let (net, cfg) = make();
        let resumed = Simulation::new(net, cfg)
            .unwrap()
            .resume_from(snap)
            .run(&planner, 2)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(full, resumed, "resumed run must complete bit-identically");
    }

    #[test]
    fn invalid_telemetry_model_is_rejected() {
        let net = NetworkBuilder::new(5).build();
        let mut cfg = SimConfig::default();
        cfg.telemetry.noise = 1.0;
        assert!(matches!(
            Simulation::new(net, cfg).err(),
            Some(SimConfigError::InvalidTelemetryModel(_))
        ));
        let mut cfg = SimConfig::default();
        cfg.telemetry.guard_margin = f64::NAN;
        assert!(matches!(
            cfg.validate(),
            Err(SimConfigError::InvalidTelemetryModel(_))
        ));
    }

    #[test]
    fn invalid_charging_params_are_rejected() {
        // Before PR 4 a NaN or non-positive rate panicked mid-run at the
        // first problem build; now it is a typed construction error.
        // The NaN/∞/non-positive rates used to slip through to a mid-run
        // panic; they must now map to the new typed variant. Degenerate
        // charge targets were already rejected by an older check — any
        // typed error is fine for those, so they are asserted separately.
        for (i, break_it) in [
            (|p: &mut wrsn_core::ChargingParams| p.eta_w = 0.0) as fn(&mut _),
            |p| p.eta_w = f64::NAN,
            |p| p.gamma_m = -1.0,
            |p| p.speed_mps = 0.0,
            |p| p.speed_mps = f64::INFINITY,
        ]
        .into_iter()
        .enumerate()
        {
            let mut cfg = SimConfig::default();
            break_it(&mut cfg.params);
            assert!(
                matches!(cfg.validate(), Err(SimConfigError::InvalidChargingParams(_))),
                "corrupted params case {i} must be rejected: {:?}",
                cfg.validate()
            );
        }
        for frac in [0.0, 1.5, f64::NAN] {
            let mut cfg = SimConfig::default();
            cfg.params.charge_target_fraction = frac;
            assert!(cfg.validate().is_err(), "charge target {frac} must be rejected");
        }
    }

    #[test]
    fn inert_telemetry_layer_is_bit_identical() {
        let run = |telemetry: TelemetryModel| {
            let net = NetworkBuilder::new(80).seed(1).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = month();
            cfg.telemetry = telemetry;
            Simulation::new(net, cfg)
                .unwrap()
                .run(&Appro::new(PlannerConfig::default()), 2)
                .unwrap()
        };
        // As with the fault and channel layers: an inert telemetry model
        // must draw zero random values, whatever its seed or margin.
        let mut seeded = TelemetryModel::default();
        seeded.seed = 123_456;
        seeded.guard_margin = 3.0;
        let base = run(TelemetryModel::default());
        assert_eq!(base, run(seeded));
        assert_eq!(base.telemetry_reports, 0);
        assert!(base.estimate_errors_j.is_empty());
        assert_eq!(base.planned_energy_j, 0.0);
    }

    #[test]
    fn noisy_telemetry_reconciles_and_is_deterministic() {
        let run = || {
            let net = NetworkBuilder::new(120).seed(9).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = 120.0 * 24.0 * 3600.0;
            cfg.collect_trace = true;
            cfg.validate_schedules = true;
            cfg.telemetry.noise = 0.05;
            cfg.telemetry.report_interval_s = 3_600.0;
            cfg.telemetry.quantize_j = 10.0;
            cfg.telemetry.seed = 77;
            Simulation::new(net, cfg)
                .unwrap()
                .run(&Appro::new(PlannerConfig::default()), 2)
                .unwrap()
        };
        let report = run();
        assert!(report.rounds_dispatched() >= 1);
        assert!(report.telemetry_reports > 0, "hourly reports over 4 months");
        assert!(!report.estimate_errors_j.is_empty(), "every arrival reconciles");
        assert!(report.planned_energy_j > 0.0);
        assert!(report.service_reconciles(), "service ledger must balance");
        assert!(
            report.energy_reconciles(),
            "planned = delivered + overcharge must hold: {} vs {} + {}",
            report.planned_energy_j,
            report.reconciled_energy_j,
            report.overcharge_j
        );
        assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::TelemetryCorrected { .. })),
            report.estimate_errors_j.len(),
            "one correction event per reconciliation"
        );
        assert_eq!(report, run(), "telemetry runs are seed-deterministic");
    }

    #[test]
    fn guard_margin_plans_pessimistically() {
        let run = |margin: f64| {
            let net = NetworkBuilder::new(100).seed(14).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = 60.0 * 24.0 * 3600.0;
            cfg.telemetry.noise = 0.05;
            cfg.telemetry.report_interval_s = 3_600.0;
            cfg.telemetry.guard_margin = margin;
            cfg.telemetry.seed = 5;
            Simulation::new(net, cfg)
                .unwrap()
                .run(&Appro::new(PlannerConfig::default()), 2)
                .unwrap()
        };
        let optimistic = run(0.0);
        let guarded = run(2.0);
        // A wider guard margin plans from lower residuals, so each round
        // budgets at least as much energy per reconciliation.
        let per_rec = |r: &SimReport| r.planned_energy_j / r.estimate_errors_j.len() as f64;
        assert!(
            per_rec(&guarded) > per_rec(&optimistic),
            "guarded {} vs optimistic {}",
            per_rec(&guarded),
            per_rec(&optimistic)
        );
    }

    #[test]
    fn telemetry_checkpoint_resume_is_bit_identical() {
        // The issue's acceptance criterion: a checkpointed run with
        // telemetry ACTIVE must resume bit-identically, with the
        // estimator's RNG stream and belief state mid-flight.
        let make = || {
            let net = NetworkBuilder::new(120).seed(21).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = 120.0 * 24.0 * 3600.0;
            cfg.collect_trace = true;
            cfg.telemetry.noise = 0.05;
            cfg.telemetry.report_interval_s = 600.0 * 60.0;
            cfg.telemetry.quantize_j = 5.0;
            cfg.telemetry.seed = 99;
            cfg.channel.loss_prob = 0.1;
            cfg.channel.seed = 17;
            (net, cfg)
        };
        let planner = Appro::new(PlannerConfig::default());

        let (net, cfg) = make();
        let uninterrupted = Simulation::new(net, cfg).unwrap().run(&planner, 2).unwrap();
        assert!(uninterrupted.rounds_dispatched() >= 4, "need rounds to checkpoint");
        assert!(uninterrupted.telemetry_reports > 0);

        let dir = std::env::temp_dir().join("wrsn_telemetry_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let (net, cfg) = make();
        let checkpointed = Simulation::new(net, cfg)
            .unwrap()
            .checkpoint_to(&dir, 2)
            .run(&planner, 2)
            .unwrap();
        assert_eq!(uninterrupted, checkpointed, "checkpointing must not perturb");

        let snap = Snapshot::read(&dir.join("checkpoint_round0002.json")).expect("read ckpt");
        let (net, cfg) = make();
        let resumed = Simulation::new(net, cfg)
            .unwrap()
            .resume_from(snap)
            .run(&planner, 2)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(uninterrupted, resumed, "resumed telemetry run must be bit-identical");
    }

    #[test]
    fn invalid_churn_model_is_rejected() {
        let net = NetworkBuilder::new(5).build();
        let mut cfg = SimConfig::default();
        cfg.churn.sensor_mtbf_s = -1.0;
        assert!(matches!(
            Simulation::new(net, cfg).err(),
            Some(SimConfigError::InvalidChurnModel(_))
        ));
        let mut cfg = SimConfig::default();
        cfg.churn.cascade_factor = 0.9;
        assert!(matches!(
            cfg.validate(),
            Err(SimConfigError::InvalidChurnModel(_))
        ));
    }

    #[test]
    fn inert_churn_layer_is_bit_identical() {
        let run = |churn: ChurnModel| {
            let net = NetworkBuilder::new(80).seed(1).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = month();
            cfg.churn = churn;
            Simulation::new(net, cfg)
                .unwrap()
                .run(&Appro::new(PlannerConfig::default()), 2)
                .unwrap()
        };
        // As with every other stochastic layer: an inert churn model
        // (MTBF 0) must draw zero random values, whatever its seed or
        // cascade factor.
        let mut seeded = ChurnModel::default();
        seeded.seed = 424_242;
        seeded.cascade_factor = 1.01;
        let base = run(ChurnModel::default());
        assert_eq!(base, run(seeded));
        assert_eq!(base.routing_repairs, 0);
        assert_eq!(base.cascade_alerts, 0);
        assert_eq!(base.partitioned_sensors, 0);
        assert!(base.traffic_conserved());
    }

    #[test]
    fn churned_run_repairs_and_conserves() {
        // The issue's acceptance scenario: relay deaths over a long run
        // must produce RoutingRepaired events, keep the post-repair
        // traffic audit clean, and stay seed-deterministic.
        let run = || {
            let net = NetworkBuilder::new(150).seed(7).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = 180.0 * 24.0 * 3600.0;
            cfg.collect_trace = true;
            cfg.validate_schedules = true;
            cfg.churn.sensor_mtbf_s = 2.0 * cfg.horizon_s; // ~40% fail
            cfg.churn.cascade_factor = 1.02;
            cfg.churn.seed = 13;
            Simulation::new(net, cfg)
                .unwrap()
                .run(&Appro::new(PlannerConfig::default()), 2)
                .unwrap()
        };
        let report = run();
        assert!(report.failed_sensors > 5, "MTBF at 2x horizon must kill sensors");
        assert!(report.routing_repairs >= 1, "deaths must trigger repairs");
        assert!(report.traffic_conserved(), "post-repair audits must pass");
        assert!(report.service_reconciles());
        assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::SensorFailed { .. })),
            report.failed_sensors
        );
        assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::RoutingRepaired { .. })),
            report.routing_repairs
        );
        assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::CascadeDetected { .. })),
            report.cascade_alerts
        );
        assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::SensorPartitioned { .. })),
            report.partitioned_sensors
        );
        assert_eq!(report, run(), "churned runs are seed-deterministic");
    }

    #[test]
    fn churn_checkpoint_resume_is_bit_identical() {
        // The issue's acceptance criterion: a checkpointed run with
        // churn ACTIVE must resume bit-identically — the churn RNG
        // mid-flight and the repaired routing tree replayed from the
        // snapshot's alive mask.
        let make = || {
            let net = NetworkBuilder::new(120).seed(21).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = 120.0 * 24.0 * 3600.0;
            cfg.collect_trace = true;
            cfg.churn.sensor_mtbf_s = 1.5 * cfg.horizon_s;
            cfg.churn.cascade_factor = 1.05;
            cfg.churn.seed = 33;
            cfg.channel.loss_prob = 0.1;
            cfg.channel.seed = 17;
            (net, cfg)
        };
        let planner = Appro::new(PlannerConfig::default());

        let (net, cfg) = make();
        let uninterrupted = Simulation::new(net, cfg).unwrap().run(&planner, 2).unwrap();
        assert!(uninterrupted.rounds_dispatched() >= 4, "need rounds to checkpoint");
        assert!(uninterrupted.routing_repairs >= 1, "churn must have repaired");

        let dir = std::env::temp_dir().join("wrsn_churn_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let (net, cfg) = make();
        let checkpointed = Simulation::new(net, cfg)
            .unwrap()
            .checkpoint_to(&dir, 2)
            .run(&planner, 2)
            .unwrap();
        assert_eq!(uninterrupted, checkpointed, "checkpointing must not perturb");

        let snap = Snapshot::read(&dir.join("checkpoint_round0002.json")).expect("read ckpt");
        let (net, cfg) = make();
        let resumed = Simulation::new(net, cfg)
            .unwrap()
            .resume_from(snap)
            .run(&planner, 2)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(uninterrupted, resumed, "resumed churned run must be bit-identical");
    }

    #[test]
    fn invalid_energy_model_is_rejected() {
        let net = NetworkBuilder::new(5).build();
        let mut cfg = SimConfig::default();
        cfg.energy.capacity_j = -1.0;
        assert!(matches!(
            Simulation::new(net, cfg).err(),
            Some(SimConfigError::InvalidEnergyModel(_))
        ));
        let mut cfg = SimConfig::default();
        cfg.energy.transfer_efficiency = 0.0;
        assert!(matches!(cfg.validate(), Err(SimConfigError::InvalidEnergyModel(_))));
        // A finite tank that can never be refilled would deadlock the
        // fleet; the config layer rejects it up front.
        let mut cfg = SimConfig::default();
        cfg.energy.capacity_j = 1.0e6;
        cfg.energy.recharge_w = 0.0;
        assert!(matches!(cfg.validate(), Err(SimConfigError::InvalidEnergyModel(_))));
    }

    #[test]
    fn inert_energy_layer_is_bit_identical() {
        let run = |energy: wrsn_core::ChargerEnergyModel| {
            let net = NetworkBuilder::new(80).seed(1).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = month();
            cfg.energy = energy;
            Simulation::new(net, cfg)
                .unwrap()
                .run(&Appro::new(PlannerConfig::default()), 2)
                .unwrap()
        };
        // The energy layer is deterministic, so "inert" here means the
        // infinite-capacity default must not perturb a run no matter
        // what the other knobs say.
        let mut tuned = wrsn_core::ChargerEnergyModel::default();
        tuned.travel_j_per_m = 50.0;
        tuned.recharge_w = 100.0;
        tuned.rescue = true;
        let base = run(wrsn_core::ChargerEnergyModel::default());
        assert_eq!(base, run(tuned));
        assert_eq!(base.charger_exhaustions, 0);
        assert_eq!(base.depot_recharges, 0);
        assert_eq!(base.rescue_dispatches, 0);
        assert_eq!(base.energy_dropped_stops, 0);
        assert_eq!(base.charger_initial_j, 0.0);
        assert!(base.charger_energy_reconciles());
    }

    fn tight_energy_config(horizon_days: f64) -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.horizon_s = horizon_days * 24.0 * 3600.0;
        cfg.collect_trace = true;
        // 25 kJ sits just above the worst single-stop need (~24 kJ:
        // twice the return reserve plus one full-deficit transfer at
        // η = 0.9), so no stop is ever dropped, while any tour chaining
        // two heavy stops must detour through the depot.
        cfg.energy.capacity_j = 25.0e3;
        cfg.energy.travel_j_per_m = 50.0;
        cfg.energy.transfer_efficiency = 0.9;
        cfg.energy.recharge_w = 200.0;
        cfg.energy.rescue = true;
        // Travel jitter inflates travel drain past the split planner's
        // unjittered reserve, which is what strands chargers mid-tour.
        cfg.fault.travel_jitter = 0.5;
        cfg.fault.seed = 9;
        cfg
    }

    #[test]
    fn tight_capacity_recharges_strands_and_rescues() {
        let run = || {
            let net = NetworkBuilder::new(150).seed(7).build();
            Simulation::new(net, tight_energy_config(120.0))
                .unwrap()
                .run(&Appro::new(PlannerConfig::default()), 3)
                .unwrap()
        };
        let report = run();
        assert!(report.depot_recharges >= 1, "a 25 kJ tank must force depot detours");
        assert!(report.charger_exhaustions >= 1, "travel jitter must strand a charger");
        assert!(report.rescue_dispatches >= 1, "a stranded charger must be rescued");
        assert!(report.charger_energy_reconciles(), "fleet energy ledger must conserve");
        assert!(report.service_reconciles(), "no request may be silently dropped");
        assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::ChargerExhausted { .. })),
            report.charger_exhaustions
        );
        assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::RescueDispatched { .. })),
            report.rescue_dispatches,
            "trace and report must agree on rescues"
        );
        assert!(report.charger_recharged_j > 0.0);
        assert!(report.charger_travel_j > 0.0);
        assert!(report.charger_transfer_j > 0.0);
        assert_eq!(report, run(), "energy-active runs are seed-deterministic");
    }

    #[test]
    fn energy_checkpoint_resume_is_bit_identical() {
        let make = || {
            let net = NetworkBuilder::new(120).seed(21).build();
            let cfg = tight_energy_config(120.0);
            (net, cfg)
        };
        let planner = Appro::new(PlannerConfig::default());

        let (net, cfg) = make();
        let uninterrupted = Simulation::new(net, cfg).unwrap().run(&planner, 2).unwrap();
        assert!(uninterrupted.rounds_dispatched() >= 4, "need rounds to checkpoint");
        assert!(uninterrupted.depot_recharges >= 1, "energy layer must have acted");

        let dir = std::env::temp_dir().join("wrsn_energy_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let (net, cfg) = make();
        let checkpointed = Simulation::new(net, cfg)
            .unwrap()
            .checkpoint_to(&dir, 2)
            .run(&planner, 2)
            .unwrap();
        assert_eq!(uninterrupted, checkpointed, "checkpointing must not perturb");

        let snap = Snapshot::read(&dir.join("checkpoint_round0002.json")).expect("read ckpt");
        assert!(snap.energy_active(), "snapshot must record the energy layer");
        let (net, cfg) = make();
        let resumed = Simulation::new(net, cfg)
            .unwrap()
            .resume_from(snap)
            .run(&planner, 2)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(uninterrupted, resumed, "resumed energy run must be bit-identical");
    }

    #[test]
    fn all_layers_checkpoint_resume_is_bit_identical() {
        // Every injection layer at once — faults, lossy channel,
        // imperfect telemetry, topology churn, finite charger energy —
        // and the run must still checkpoint and resume down to the bit.
        let make = || {
            let net = NetworkBuilder::new(120).seed(21).build();
            let mut cfg = tight_energy_config(120.0);
            cfg.fault.charger_mtbf_s = 2.0 * cfg.horizon_s;
            cfg.fault.charger_repair_s = 24.0 * 3600.0;
            cfg.channel.loss_prob = 0.1;
            cfg.channel.seed = 17;
            cfg.telemetry.report_interval_s = 6.0 * 3600.0;
            cfg.telemetry.noise = 0.05;
            cfg.telemetry.seed = 29;
            cfg.churn.sensor_mtbf_s = 2.0 * cfg.horizon_s;
            cfg.churn.seed = 33;
            (net, cfg)
        };
        let planner = Appro::new(PlannerConfig::default());

        let (net, cfg) = make();
        let uninterrupted = Simulation::new(net, cfg).unwrap().run(&planner, 2).unwrap();
        assert!(uninterrupted.rounds_dispatched() >= 4, "need rounds to checkpoint");

        let dir = std::env::temp_dir().join("wrsn_all_layers_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let (net, cfg) = make();
        let resumed = {
            let checkpointed = Simulation::new(net, cfg)
                .unwrap()
                .checkpoint_to(&dir, 2)
                .run(&planner, 2)
                .unwrap();
            assert_eq!(uninterrupted, checkpointed, "checkpointing must not perturb");
            let snap =
                Snapshot::read(&dir.join("checkpoint_round0002.json")).expect("read ckpt");
            assert!(snap.energy_active() && snap.churn_active());
            let (net, cfg) = make();
            Simulation::new(net, cfg).unwrap().resume_from(snap).run(&planner, 2).unwrap()
        };
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            uninterrupted, resumed,
            "all-layers resumed run must be bit-identical"
        );
        assert!(uninterrupted.charger_energy_reconciles());
        assert!(uninterrupted.service_reconciles());
    }
}
