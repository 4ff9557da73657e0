//! The simulation kernel under both dispatch policies.
//!
//! [`Kernel`] owns everything a run mutates — the network, the run-wide
//! [`ProblemContext`], the five injection layers (fault, channel,
//! telemetry, churn, charger energy), the service ledger and deferral
//! counts, dead-time accounting, rounds and trace — and does each step
//! the policies share exactly once: the loop-top layer steps and the
//! pending set, admission with its shed/escalate events, the problem
//! build from true or guarded residuals, planning, energy splitting,
//! tour execution ([`Kernel::wear`] of a charger's operating life and
//! [`Kernel::spend`] of its battery), draining with death notes, the
//! layers' wake-up time, snapshot capture/restore and report assembly.
//! One pass over the sensors per event drains them and accounts dead
//! time; the next request-threshold crossing comes from [`Crossings`],
//! an index of the instants at which the sensors above the threshold
//! will cross it. A policy decides only *when* and *for whom* to plan
//! and when a tour executes:
//! [`crate::Simulation`] is the round barrier,
//! [`crate::AsyncSimulation`] dispatches each charger on its own.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use wrsn_baselines::KEdf;
use wrsn_core::bounds::AdmissionEstimator;
use wrsn_core::{
    execute_tour_energy, plan_with_fallback, split_schedule, validate_schedule, ChargerTour,
    ChargingProblem, PlanError, Planner, PlannerConfig, ProblemContext, Schedule, TourEnergyPlan,
};
use wrsn_net::{Network, Sensor, SensorId};

use crate::channel::ChannelState;
use crate::churn::ChurnState;
use crate::energy_state::EnergyFleet;
use crate::fault::FaultState;
use crate::report::{RoundStats, SimReport};
use crate::snapshot::Snapshot;
use crate::telemetry::EnergyEstimator;
use crate::{SimConfig, Trace, TraceEvent};

/// The service-ledger counters of a run (see [`SimReport`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Ledger {
    pub failed_sensors: usize,
    pub charger_failures: usize,
    pub recovery_rounds: usize,
    pub charged_sensors: usize,
    pub recovered_sensors: usize,
    pub deferred_sensors: usize,
    pub shed_sensors: usize,
    pub escalated_requests: usize,
}

/// Admission control's verdict on a pending set; see [`Kernel::admit_requests`].
struct Admission {
    /// Requests to plan, most critical first when admission is on.
    dispatch: Vec<SensorId>,
    /// Requests deferred to a later dispatch.
    shed: Vec<SensorId>,
    /// Starved requests force-admitted past the delay bound (a subset
    /// of `dispatch`).
    escalated: Vec<SensorId>,
}

/// A planned dispatch, split around the chargers' batteries.
pub(crate) struct Dispatch {
    /// The requests planned, in problem-target order.
    pub ids: Vec<SensorId>,
    /// Requests admission control shed from this dispatch.
    pub shed: usize,
    pub problem: ChargingProblem,
    /// The schedule to execute (the plan itself when energy is inert).
    pub exec: Schedule,
    /// Per-charger battery plans; `None` when the energy layer is inert.
    pub energy: Option<Vec<TourEnergyPlan>>,
}

/// The state of one run and the steps both policies share.
pub(crate) struct Kernel {
    pub net: Network,
    pub cfg: SimConfig,
    /// Fleet size.
    pub k: usize,
    /// Shared geometry for the whole run: positions never change, so
    /// every problem derives its distance tables from this one context.
    ctx: std::sync::Arc<ProblemContext>,
    /// The simulation clock, seconds.
    pub t: f64,
    /// The request-threshold crossings, kept by [`Kernel::drain`] so
    /// [`Kernel::wake`] need not scan. `None` once a write the index
    /// did not see may have advanced a crossing: a churn step's failure
    /// or repair, [`Kernel::restore`] or a barrier round's recharges
    /// ([`Kernel::forget_crossing`]); the next drain rebuilds it. A
    /// pipelined landing only delays its sensor's crossing, so it adds
    /// the sensor instead ([`Kernel::land_recharge`]).
    crossing: Option<Crossings>,
    /// The injection layers, each `None` while its model is inert (an
    /// inert layer draws no random values and leaves runs bit-identical).
    pub fault: Option<FaultState>,
    pub channel: Option<ChannelState>,
    pub telemetry: Option<EnergyEstimator>,
    pub churn: Option<ChurnState>,
    pub energy: Option<EnergyFleet>,
    pub ledger: Ledger,
    /// Rounds each sensor's current request has been shed or deferred;
    /// reaching `max_deferrals` escalates it past admission control.
    pub deferral_count: Vec<u32>,
    /// Per-sensor accumulated dead time, seconds.
    pub dead: Vec<f64>,
    /// When noting deaths: the time each currently-dead sensor died.
    pub dead_since: Vec<Option<f64>>,
    /// Trace sensor deaths and recharges (the barrier policy).
    pub note_deaths: bool,
    pub rounds: Vec<RoundStats>,
    pub trace: Trace,
    /// Events not yet in the trace ring; see [`Kernel::flush`].
    pub staged: Vec<TraceEvent>,
    /// Validate every plan (always in debug builds).
    validate: bool,
    /// The recovery fallback behind the primary planner.
    kedf: KEdf,
}

impl Kernel {
    /// A run at `t = 0` over `net` with `k` chargers. `note_deaths`
    /// traces sensor deaths and recharges (when tracing at all).
    ///
    /// # Errors
    ///
    /// [`PlanError::Context`] when the geometry backend cannot be built.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(
        net: Network,
        cfg: SimConfig,
        k: usize,
        note_deaths: bool,
    ) -> Result<Self, PlanError> {
        assert!(k >= 1, "need at least one charger");
        let n = net.sensors().len();
        let ctx = ProblemContext::for_network_with_mode(&net, cfg.params, cfg.context_mode)?;
        let telemetry = EnergyEstimator::new(&cfg.telemetry, &net);
        Ok(Kernel {
            net,
            cfg,
            k,
            ctx,
            t: 0.0,
            crossing: None,
            fault: FaultState::new(&cfg.fault, k),
            channel: ChannelState::new(&cfg.channel, n),
            telemetry,
            churn: ChurnState::new(&cfg.churn, n),
            energy: EnergyFleet::new(&cfg.energy, k),
            ledger: Ledger::default(),
            deferral_count: vec![0; n],
            dead: vec![0.0; n],
            dead_since: vec![None; n],
            note_deaths: note_deaths && cfg.collect_trace,
            rounds: Vec::new(),
            trace: Trace::with_capacity_limit(cfg.trace_capacity),
            staged: Vec::new(),
            validate: cfg!(debug_assertions) || cfg.validate_schedules,
            kedf: KEdf::new(PlannerConfig::default()),
        })
    }

    /// Moves the staged events into the trace ring, stably sorted by
    /// time when `sort`. The barrier policy flushes after every step;
    /// the pipelined policy stamps events at future instants and sorts
    /// them all once at the end.
    pub fn flush(&mut self, sort: bool) {
        if sort {
            self.staged.sort_by(|a, b| a.at_s().total_cmp(&b.at_s()));
        }
        for e in self.staged.drain(..) {
            self.trace.push(e);
        }
    }

    /// Churn: retires expired hardware, excises corpses (hardware and
    /// depletion) from the routing tree, folds revived sensors back in
    /// and escalates cascade-flagged survivors.
    pub fn churn_step(&mut self) {
        if let Some(cs) = self.churn.as_mut() {
            let repairs = cs.repairs;
            let failed = cs.step(
                &mut self.net,
                self.t,
                self.cfg.max_deferrals,
                &mut self.deferral_count,
                self.cfg.collect_trace,
                &mut self.staged,
            );
            // Repairs reroute consumption and failures refill batteries;
            // a step that does neither writes no sensor state.
            if failed > 0 || cs.repairs > repairs {
                self.crossing = None;
            }
            self.ledger.failed_sensors += failed;
        }
    }

    /// Lands the telemetry reports and channel messages due by `at`.
    /// Every event advances them, read or not: the channel draws its
    /// random values as messages fall due.
    pub fn advance_reports(&mut self, at: f64) {
        let tracing = self.cfg.collect_trace;
        if let Some(tel) = self.telemetry.as_mut() {
            tel.advance(&self.net, at, tracing, &mut self.staged);
        }
        if let Some(ch) = self.channel.as_mut() {
            ch.advance(&self.net, self.cfg.request_fraction, at, tracing, &mut self.staged);
        }
    }

    /// The requests the base station knows of: with an active channel
    /// only the delivered ones, else every sensor below the threshold
    /// (the paper's instant, lossless control plane).
    pub fn pending(&self) -> Vec<SensorId> {
        let fraction = self.cfg.request_fraction;
        match self.channel.as_ref() {
            Some(ch) => ch.pending(&self.net, fraction),
            None => self.net.requesting_sensors(fraction),
        }
    }

    /// Rescue pass: a stranded charger is towed home by the richest
    /// energy-feasible peer (when the model allows rescues), then
    /// refills at the depot before re-entering the fleet.
    pub fn rescue(&mut self) {
        if let Some(ef) = self.energy.as_mut() {
            ef.attempt_rescues(
                self.t,
                self.cfg.params.speed_mps,
                self.fault.as_ref().map(|fs| fs.available_at.as_slice()),
                self.cfg.collect_trace,
                &mut self.staged,
            );
        }
    }

    /// What the base station believes about residual energy at `at`:
    /// the estimator's guarded (pessimistic) residuals when telemetry is
    /// imperfect, `None` — ground truth — otherwise.
    pub fn planning(&self, at: f64) -> Option<Vec<f64>> {
        self.telemetry.as_ref().map(|tel| tel.planning_residuals(&self.net, at))
    }

    /// This dispatch's fault time-scaling factor (jitter × degradation).
    pub fn factor(&mut self) -> f64 {
        self.fault.as_mut().map_or(1.0, FaultState::round_factor)
    }

    /// Saturation-aware admission control for `chargers` chargers: ranks
    /// `pending` most-critical first (smallest time-to-depletion by the
    /// `planning` beliefs, ties by id), force-admits starved requests
    /// (deferred at least `max_deferrals` times), then admits while the
    /// [`AdmissionEstimator`]'s conservative delay bound stays within
    /// `admission_bound_s`. The most critical request is always
    /// admitted, so service cannot stall. With admission off (a zero
    /// bound) everything is admitted as is.
    fn admit_requests(
        &self,
        pending: Vec<SensorId>,
        chargers: usize,
        planning: Option<&[f64]>,
    ) -> Admission {
        let bound_s = self.cfg.admission_bound_s;
        if bound_s <= 0.0 {
            return Admission { dispatch: pending, shed: Vec::new(), escalated: Vec::new() };
        }
        let net = &self.net;
        let params = &self.cfg.params;
        let starved = |id: SensorId| self.deferral_count[id.index()] >= self.cfg.max_deferrals;
        let lifetime = |id: SensorId| match planning {
            Some(est) => net.sensor(id).lifetime_for_residual(est[id.index()]),
            None => net.sensor(id).residual_lifetime_s(),
        };
        let charge_s = |id: SensorId| {
            let s = net.sensor(id);
            let r = planning.map_or(s.residual_j, |est| est[id.index()]);
            (params.charge_target_fraction * s.capacity_j - r).max(0.0) / params.eta_w
        };
        let mut ranked = pending;
        ranked.sort_by(|a, b| lifetime(*a).total_cmp(&lifetime(*b)).then(a.0.cmp(&b.0)));
        let mut est = AdmissionEstimator::new(chargers, params.gamma_m, params.speed_mps);
        let depot_m = |id: SensorId| self.ctx.depot_distances()[id.index()];
        // Starved requests skip the delay bound entirely.
        let escalated: Vec<SensorId> = ranked.iter().copied().filter(|&id| starved(id)).collect();
        for &id in &escalated {
            est.admit(depot_m(id), charge_s(id));
        }
        let mut dispatch = escalated.clone();
        let mut shed = Vec::new();
        for &id in ranked.iter().filter(|&&id| !starved(id)) {
            let (d, c) = (depot_m(id), charge_s(id));
            if dispatch.is_empty() || est.bound_with(d, c) <= bound_s {
                est.admit(d, c);
                dispatch.push(id);
            } else {
                shed.push(id);
            }
        }
        Admission { dispatch, shed, escalated }
    }

    /// One dispatch over `pending` on `chargers` (fleet indices):
    /// admission control, then [`Kernel::plan`] over the admitted
    /// requests — with the fallback chain when `fallback` says so of
    /// them. A dispatch that goes ahead books its admission:
    /// escalations and sheds are counted and traced, and each shed
    /// request's deferral clock advances. A shed event carries the
    /// deferrals suffered *before* it (like the escalation event), so a
    /// shed always shows `deferrals < max_deferrals`. `None` when
    /// energy splitting emptied the dispatch, which books nothing but
    /// the shed requests' deferral clocks.
    ///
    /// # Errors
    ///
    /// As [`Kernel::plan`].
    pub fn dispatch(
        &mut self,
        planner: &dyn Planner,
        pending: Vec<SensorId>,
        planning: Option<&[f64]>,
        chargers: &[usize],
        fallback: impl FnOnce(&[SensorId]) -> bool,
    ) -> Result<Option<Dispatch>, PlanError> {
        let a = self.admit_requests(pending, chargers.len(), planning);
        let fallback = fallback(&a.dispatch);
        let Some(d) = self.plan(planner, a.dispatch, planning, chargers, fallback)? else {
            // Not a dispatch, so nothing enters the ledger or the trace,
            // but the shed requests' deferral clocks still advance:
            // escalation must reach them even while the most critical
            // admitted request is one no tank can reach.
            for id in &a.shed {
                let deferrals = &mut self.deferral_count[id.index()];
                *deferrals = deferrals.saturating_add(1);
            }
            return Ok(None);
        };
        self.ledger.escalated_requests += a.escalated.len();
        self.ledger.shed_sensors += a.shed.len();
        let (t, tracing) = (self.t, self.cfg.collect_trace);
        if tracing {
            for &sensor in &a.escalated {
                let deferrals = self.deferral_count[sensor.index()];
                self.staged.push(TraceEvent::RequestEscalated { at_s: t, sensor, deferrals });
            }
        }
        for &sensor in &a.shed {
            let deferrals = &mut self.deferral_count[sensor.index()];
            if tracing {
                self.staged.push(TraceEvent::RequestShed {
                    at_s: t,
                    sensor,
                    deferrals: *deferrals,
                });
            }
            *deferrals = deferrals.saturating_add(1);
        }
        Ok(Some(Dispatch { shed: a.shed.len(), ..d }))
    }

    /// Builds the problem over `ids` for `chargers` (fleet indices) —
    /// charge durations from the `planning` beliefs, or from ground
    /// truth — and plans it: the primary planner (validated when
    /// validation is on), or when `fallback` the bounded `planner` →
    /// K-EDF → greedy chain that cannot fail. Energy-aware splitting
    /// then rewrites every tour to be feasible from its charger's
    /// battery: depot recharge detours inserted, stops a full battery
    /// cannot reach dropped (they re-enter service as deferrals, never
    /// silently).
    ///
    /// This is the one empty-dispatch guard: when splitting dropped
    /// every stop the dispatch is `None`, counts no dropped stops, and
    /// must not be retried at this instant (see [`Kernel::retry_in`]).
    ///
    /// # Errors
    ///
    /// The primary planner's [`PlanError`], including
    /// [`PlanError::Rejected`] for a plan that fails validation.
    pub fn plan(
        &mut self,
        planner: &dyn Planner,
        ids: Vec<SensorId>,
        planning: Option<&[f64]>,
        chargers: &[usize],
        fallback: bool,
    ) -> Result<Option<Dispatch>, PlanError> {
        let k = chargers.len();
        let problem = match planning {
            Some(est) => {
                let res: Vec<f64> = ids.iter().map(|id| est[id.index()]).collect();
                ChargingProblem::from_residuals_in_context(
                    &self.ctx,
                    &self.net,
                    &ids,
                    &res,
                    k,
                    self.cfg.params,
                )
            }
            None => ChargingProblem::from_network_in_context(
                &self.ctx,
                &self.net,
                &ids,
                k,
                self.cfg.params,
            ),
        }
        .expect("simulator always builds valid problems");
        let schedule = if fallback {
            plan_with_fallback(&problem, planner, &[&self.kedf], self.validate)?.0
        } else {
            let schedule = planner.plan(&problem)?;
            if self.validate {
                validate_schedule(&problem, &schedule).map_err(|violations| {
                    PlanError::Rejected { planner: planner.name(), violations }
                })?;
            }
            schedule
        };
        let (exec, energy) = match self.energy.as_mut() {
            Some(ef) => {
                let start: Vec<f64> = chargers.iter().map(|&c| ef.residual_j[c]).collect();
                let split = split_schedule(&problem, &schedule, &start, &ef.model);
                if split.schedule.sojourn_count() == 0 {
                    return Ok(None);
                }
                ef.dropped_stops +=
                    split.per_charger.iter().map(|p| p.dropped.len()).sum::<usize>();
                (split.schedule, Some(split.per_charger))
            }
            None => (schedule, None),
        };
        Ok(Some(Dispatch { ids, shed: 0, problem, exec, energy }))
    }

    /// Seconds until a dispatch on `chargers` that energy splitting
    /// emptied may be retried: until the fullest of their tanks has
    /// refilled while one can still gain charge, else until the layers'
    /// next wake-up — the next event that can change the pending set
    /// (`INFINITY` when nothing ever will).
    pub fn retry_in(&self, chargers: &[usize]) -> f64 {
        if let Some(ef) = self.energy.as_ref() {
            let best = chargers.iter().map(|&c| ef.residual_j[c]).fold(0.0f64, f64::max);
            if ef.model.recharge_w > 0.0 && best + 1e-6 < ef.model.capacity_j {
                return (ef.model.capacity_j - best) / ef.model.recharge_w;
            }
        }
        let (rel, abs) = self.wake(true);
        (rel + 1e-9).min(abs - self.t + 1e-9)
    }

    /// Wears charger `c`'s operating life by a tour busy for `busy_s`
    /// real seconds from `at`. A tour that outlives the life breaks the
    /// charger down at `at + life`: the repair is booked, a fresh life
    /// drawn, and the failure counted and staged. Returns that `life`;
    /// `None` when the charger survives, `busy_s ≤ 0` or the fault
    /// layer is inert.
    pub fn wear(&mut self, c: usize, busy_s: f64, at: f64) -> Option<f64> {
        let fs = self.fault.as_mut()?;
        if busy_s <= 0.0 {
            return None;
        }
        let life = fs.life_left[c];
        if life < busy_s {
            fs.breakdown(c, at + life);
            self.ledger.charger_failures += 1;
            if self.cfg.collect_trace {
                self.staged.push(TraceEvent::ChargerFailed { at_s: at + life, charger: c });
            }
            Some(life)
        } else {
            fs.life_left[c] -= busy_s;
            None
        }
    }

    /// Replays charger `c`'s battery over `tour`, in schedule time from
    /// a dispatch at `at` and stretched by `factor`: the travelled,
    /// transferred and recharged joules and the depot recharges are
    /// booked and staged. A tank that empties strands `c` at its nearest
    /// target's depot distance and returns the exhaustion instant in
    /// schedule time. A tank that lasts leaves `c` its residual and docks
    /// it at the tour's return; that, and an inert energy layer, give
    /// `None`.
    pub fn spend(
        &mut self,
        c: usize,
        problem: &ChargingProblem,
        tour: &ChargerTour,
        recharge_before: &[Option<f64>],
        factor: f64,
        at: f64,
    ) -> Option<f64> {
        let ef = self.energy.as_mut()?;
        let tracing = self.cfg.collect_trace;
        let start_j = ef.residual_j[c];
        let out = execute_tour_energy(problem, tour, recharge_before, start_j, factor, &ef.model);
        ef.traveled_j += out.traveled_j;
        ef.transfer_j += out.transfer_j;
        ef.recharged_j += out.recharged_j;
        ef.depot_recharges += out.recharge_events.len();
        if tracing {
            for &(x, recharged_j) in &out.recharge_events {
                let at_s = at + x * factor;
                self.staged.push(TraceEvent::DepotRecharge { at_s, charger: c, recharged_j });
            }
        }
        let Some(ex) = out.exhausted_at_s else {
            ef.residual_j[c] = out.residual_j;
            ef.free_at[c] = at + tour.return_time_s * factor;
            return None;
        };
        let speed = problem.params().speed_mps;
        ef.strand(c, out.exhausted_near.map_or(0.0, |ti| problem.depot_travel_time(ti) * speed));
        if tracing {
            self.staged.push(TraceEvent::ChargerExhausted { at_s: at + ex * factor, charger: c });
        }
        Some(ex)
    }

    /// The energy recharging `ids` delivers under perfect telemetry:
    /// each sensor's deficit below the charge target, summed.
    pub fn deficit_j<'a>(&self, ids: impl Iterator<Item = &'a SensorId>) -> f64 {
        let target_frac = self.cfg.params.charge_target_fraction;
        ids.map(|&id| {
            let s = self.net.sensor(id);
            (target_frac * s.capacity_j - s.residual_j).max(0.0)
        })
        .sum()
    }

    /// Drains every sensor for `dt` seconds from `self.t`, accounting
    /// dead time; when noting deaths, traces them (sorted) first. Then
    /// the crossings index finds the soonest request-threshold crossing
    /// after the drain for [`Kernel::wake`]: from the few keys near the
    /// least, or when the index was dropped, from a pass that rebuilds
    /// it. The clock is the caller's to advance.
    pub fn drain(&mut self, dt: f64) {
        if self.note_deaths {
            note_deaths(self.net.sensors(), self.t, dt, &mut self.dead_since, &mut self.staged);
            self.flush(true);
        }
        for (s, dead) in self.net.sensors_mut().iter_mut().zip(&mut self.dead) {
            drain_sensor(s, dt, dead);
        }
        let (sensors, fraction) = (self.net.sensors(), self.cfg.request_fraction);
        match self.crossing.as_mut() {
            Some(index) => index.advance(dt, sensors, fraction),
            None => self.crossing = Some(Crossings::build(sensors, fraction)),
        }
    }

    /// Drops the crossings index after a write to sensor state that may
    /// advance a crossing, so the next [`Kernel::wake`] scans and the
    /// next [`Kernel::drain`] rebuilds it.
    pub fn forget_crossing(&mut self) {
        self.crossing = None;
    }

    /// Lands a queued pipelined recharge on sensor `idx` at `at`: the
    /// sensor snaps to the target fraction, or with imperfect telemetry
    /// the arriving MCV measures the true residual, the estimator
    /// reconciles, and the battery absorbs at most the sojourn's fixed
    /// `planned` budget. The sensor's new crossing joins the index.
    pub fn land_recharge(&mut self, idx: usize, planned: f64, at: f64) {
        let target_frac = self.cfg.params.charge_target_fraction;
        let fraction = self.cfg.request_fraction;
        // The sensor is still pending, so the index holds no key for it
        // (the drain that took it below the threshold dropped its key;
        // see `Crossings`): it was pending when its recharge was queued;
        // drains only lower a residual (a churn failure refills one but
        // zeroes its drain); and a sensor with a queued recharge is not
        // dispatched again.
        debug_assert!(
            self.net.sensors()[idx].time_to_fraction(fraction).is_none(),
            "a landing sensor was above the request threshold"
        );
        match self.telemetry.as_mut() {
            None => self.net.sensors_mut()[idx].recharge_to(target_frac),
            Some(tel) => {
                let s = &self.net.sensors()[idx];
                let delivered = tel.reconcile(
                    s.id,
                    s.capacity_j,
                    s.consumption_w,
                    s.measured_residual_j(),
                    planned,
                    target_frac * s.capacity_j,
                    at,
                    self.cfg.collect_trace,
                    &mut self.staged,
                );
                self.net.sensors_mut()[idx].recharge_by(delivered);
            }
        }
        let landed = self.net.sensors()[idx].time_to_fraction(fraction);
        if let (Some(index), Some(x)) = (self.crossing.as_mut(), landed) {
            index.insert(idx, x);
        }
    }

    /// The layers' next wake-up after `self.t`, as `(relative,
    /// absolute)`: the soonest request-threshold crossing in seconds
    /// from now (the index's, when the last drain kept one), and
    /// the soonest channel delivery or retry or hardware failure as an
    /// instant. Unless `pending_only` — which keeps just the events
    /// that can change the pending set — telemetry reports count too,
    /// and so, under churn, does the next depletion, which the churn
    /// step must excise promptly.
    pub fn wake(&self, pending_only: bool) -> (f64, f64) {
        let t = self.t;
        let scan = |fraction| self.net.time_to_next_crossing(fraction).unwrap_or(f64::INFINITY);
        let fraction = self.cfg.request_fraction;
        let mut rel = match self.crossing.as_ref() {
            Some(index) => {
                debug_assert_eq!(
                    index.soonest.to_bits(),
                    scan(fraction).to_bits(),
                    "the kept crossing differs from a fresh scan"
                );
                index.soonest
            }
            None => scan(fraction),
        };
        let mut abs = f64::INFINITY;
        if let Some(ch) = self.channel.as_ref() {
            abs = abs.min(ch.next_event_s(t));
        }
        if let Some(ft) = self.churn.as_ref().and_then(|cs| cs.next_failure_at()) {
            if ft > t {
                abs = abs.min(ft);
            }
        }
        if !pending_only {
            if let Some(tel) = self.telemetry.as_ref() {
                abs = abs.min(tel.next_event_s(t));
            }
            if self.churn.is_some() {
                rel = rel.min(scan(0.0));
            }
        }
        (rel, abs)
    }

    /// The complete run state at this instant (taken at a round
    /// boundary, with nothing staged).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            k: self.k,
            round: self.rounds.len(),
            t: self.t,
            sensors: self.net.sensors().iter().map(|s| (s.residual_j, s.consumption_w)).collect(),
            dead: self.dead.clone(),
            dead_since: self.dead_since.clone(),
            ledger: self.ledger,
            deferral_count: self.deferral_count.clone(),
            rounds: self.rounds.clone(),
            fault: self.fault.clone(),
            channel: self.channel.clone(),
            telemetry: self.telemetry.clone(),
            churn: self.churn.clone(),
            energy: self.energy.clone(),
            trace_dropped: self.trace.dropped(),
            trace_events: self.trace.iter().copied().collect(),
        }
    }

    /// Replaces the fresh state with `snap`'s. The snapshot decides
    /// which layers exist; the config supplies their models.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is for a different network size or fleet.
    pub fn restore(&mut self, snap: Snapshot) {
        assert_eq!(
            snap.sensors.len(),
            self.net.sensors().len(),
            "snapshot is for a different network"
        );
        assert_eq!(snap.k, self.k, "snapshot is for a different fleet size");
        let cfg = self.cfg;
        self.fault = snap.fault.map(|f| FaultState { model: cfg.fault, ..f });
        self.channel = snap.channel.map(|c| ChannelState { model: cfg.channel, ..c });
        self.telemetry = snap.telemetry.map(|e| EnergyEstimator { model: cfg.telemetry, ..e });
        self.churn = snap.churn.map(|c| ChurnState { model: cfg.churn, ..c });
        self.energy = snap.energy.map(|e| EnergyFleet { model: cfg.energy, ..e });
        if let Some(cs) = self.churn.as_ref() {
            // Replay the last repair so the routing tree matches the
            // checkpoint; the consumption rates restored below override
            // it, since depletion-dead sensors keep values from *older*
            // repairs that the replayed mask cannot reproduce.
            self.net.repair_routing(&cs.alive);
        }
        for (s, &(residual, rate)) in self.net.sensors_mut().iter_mut().zip(&snap.sensors) {
            s.residual_j = residual;
            s.consumption_w = rate;
        }
        self.t = snap.t;
        self.crossing = None;
        self.dead = snap.dead;
        self.dead_since = snap.dead_since;
        self.ledger = snap.ledger;
        self.deferral_count = snap.deferral_count;
        self.rounds = snap.rounds;
        self.trace = Trace::from_parts(cfg.trace_capacity, snap.trace_dropped, snap.trace_events);
    }

    /// Assembles the run's report.
    pub fn report(self, interrupted: bool) -> SimReport {
        let l = self.ledger;
        let mut report = SimReport {
            rounds: self.rounds,
            dead_time_s: self.dead,
            horizon_s: self.cfg.horizon_s,
            trace: self.trace,
            failed_sensors: l.failed_sensors,
            charger_failures: l.charger_failures,
            recovery_rounds: l.recovery_rounds,
            charged_sensors: l.charged_sensors,
            recovered_sensors: l.recovered_sensors,
            deferred_sensors: l.deferred_sensors,
            shed_sensors: l.shed_sensors,
            escalated_requests: l.escalated_requests,
            interrupted,
            ..SimReport::default()
        };
        if let Some(ch) = self.channel {
            report.lost_requests = ch.lost_requests;
            report.duplicates_dropped = ch.duplicates_dropped;
        }
        if let Some(cs) = self.churn {
            report.routing_repairs = cs.repairs;
            report.cascade_alerts = cs.cascades;
            report.partitioned_sensors = cs.partitioned;
            report.traffic_violations = cs.violations;
        }
        if let Some(tel) = self.telemetry {
            report.telemetry_reports = tel.reports;
            report.estimate_errors_j = tel.errors_j;
            report.estimate_misses = tel.estimate_misses;
            report.undetected_deaths = tel.undetected_deaths;
            report.planned_energy_j = tel.planned_energy_j;
            report.reconciled_energy_j = tel.delivered_energy_j;
            report.overcharge_j = tel.overcharge_j;
            report.undercharge_j = tel.undercharge_j;
        }
        if let Some(ef) = self.energy {
            report.charger_exhaustions = ef.exhaustions;
            report.depot_recharges = ef.depot_recharges;
            report.rescue_dispatches = ef.rescues;
            report.stranded_chargers = ef.stranded_count();
            report.energy_dropped_stops = ef.dropped_stops;
            report.charger_initial_j = ef.initial_j;
            report.charger_recharged_j = ef.recharged_j;
            report.charger_travel_j = ef.traveled_j;
            report.charger_transfer_j = ef.transfer_j;
            report.charger_residual_j = ef.residual_total_j();
        }
        report
    }
}

/// The sensors above the request threshold, in a min-heap keyed by the
/// instant each will cross it, so a drain finds the soonest crossing
/// from a few keys instead of a division per sensor.
///
/// Instants are on the index's own clock τ, the seconds drained since
/// the build. A drain lowers each residual by `rate · dt` while τ
/// advances by `dt`, so between writes a sensor's crossing instant
/// τ + `time_to_fraction` stays put up to rounding.
/// [`Crossings::advance`] pops every key within twice
/// [`Crossings::drift`] of the least refreshed one and evaluates each
/// popped sensor exactly, so the kept [`Crossings::soonest`] is the
/// least exact `time_to_fraction` of all, bit for bit what
/// [`Network::time_to_next_crossing`] scans.
///
/// # The drift bound
///
/// Let u = 2⁻⁵³ and fix a sensor with rate c > 0 and threshold
/// θ = `fraction` · C. While the index lives neither changes (a churn
/// step or `restore`, which can change c, drops the index), and the
/// residual never exceeds R = max(C, r at the build): drains lower it
/// and a landing refills it to at most its capacity. So every R/c is
/// at most L = `longest`. Write X_j = (r_j − θ)/c, exactly, after the
/// j-th drain since the build.
///
/// 1. A key written after drain w (the build is w = 0, with τ₀ = 0) is
///    fl(τ_w + fl(fl(r_w − θ)/c)). Its three roundings put it within
///    u·(τ_w + L) + 2u·L of τ_w + X_w.
/// 2. Drain j rounds c·d_j and the subtraction, so
///    r_j = r_{j−1} − c·d_j + η_j with |η_j| ≤ u·c·d_j + u·R; and
///    τ_j = τ_{j−1} + d_j + ζ_j with |ζ_j| ≤ u·τ_j.
/// 3. Over the k ≤ m drains since the write,
///    τ_m + X_m = τ_w + X_w + Σζ_j + Ση_j/c. A sensor still above θ
///    drained less than it held, so Σd_j ≤ L and |Ση_j/c| ≤ (k + 1)·u·L,
///    while |Σζ_j| ≤ k·u·τ_m.
/// 4. `time_to_fraction` returns fl(fl(r_m − θ)/c), within 2u·L of X_m.
///
/// So after m drains every key lies within
/// δ = u·((m + 6)·L + (m + 1)·τ_m) of τ_m plus its sensor's exact
/// `time_to_fraction`, to first order in u; `drift` returns
/// u·(m + 8)·(L + τ_m) + `f64::MIN_POSITIVE`, which also covers the
/// u² terms, `longest`'s own rounding and underflow.
///
/// `advance` pops keys in order, evaluates each popped sensor's
/// x = `time_to_fraction` and pushes a live one back with the refreshed
/// key fl(τ_m + x). Let B be the least refreshed key, set by sensor p.
/// A live sensor s whose key exceeds B + 2·`drift` has
/// τ_m + x_s > B + `drift` ≥ τ_m + x_p, since B rounds τ_m + x_p by at
/// most u·(τ_m + L); so x_s > x_p, and the least popped x is the least
/// of all. A sensor that crossed since the last drain has a key
/// of at most τ_m + δ ≤ B + 2·`drift`, so that drain pops and drops it:
/// the heap holds each sensor above the threshold exactly once.
///
/// Writes that can only delay a crossing keep the index: a pending
/// sensor's recharge adds a fresh key ([`Crossings::insert`]), and a
/// key that is too early is refreshed when popped. A write that can
/// advance a crossing, such as churn's rerouted consumption or
/// `restore`, must drop it.
struct Crossings {
    /// `Reverse((key.to_bits(), sensor))`, one per sensor above the
    /// threshold. Keys are at least +0.0, so bit order is numeric order.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// τ: seconds drained since the build.
    clock: f64,
    /// Drains since the build.
    drains: u64,
    /// L: the most joules a draining sensor held at the build or can
    /// hold (its capacity) over the least draining rate.
    longest: f64,
    /// The soonest crossing in seconds from now, the least exact
    /// `time_to_fraction` (`INFINITY` when no sensor will cross).
    soonest: f64,
    /// `advance`'s popped live keys, pushed back refreshed.
    popped: Vec<Reverse<(u64, usize)>>,
}

impl Crossings {
    /// The index over `sensors` from one pass, at τ = 0, where each key
    /// is the sensor's `time_to_fraction` itself.
    fn build(sensors: &[Sensor], fraction: f64) -> Self {
        let (mut most_j, mut least_w, mut soonest) = (0.0f64, f64::INFINITY, f64::INFINITY);
        let mut keys = Vec::with_capacity(sensors.len());
        for (i, s) in sensors.iter().enumerate() {
            if s.consumption_w > 0.0 {
                most_j = most_j.max(s.capacity_j.max(s.residual_j));
                least_w = least_w.min(s.consumption_w);
            }
            if let Some(x) = s.time_to_fraction(fraction) {
                keys.push(Reverse((x.to_bits(), i)));
                soonest = soonest.min(x);
            }
        }
        Crossings {
            heap: BinaryHeap::from(keys),
            clock: 0.0,
            drains: 0,
            longest: most_j / least_w,
            soonest,
            popped: Vec::new(),
        }
    }

    /// The bound on how far a key may sit from τ plus its sensor's
    /// exact `time_to_fraction` (see the type's docs).
    fn drift(&self) -> f64 {
        let u = f64::EPSILON / 2.0;
        u * (self.drains as f64 + 8.0) * (self.longest + self.clock) + f64::MIN_POSITIVE
    }

    /// Follows a drain of `dt` seconds: advances τ, then pops every key
    /// up to the least refreshed live key plus twice the drift, drops
    /// the sensors that have crossed, pushes the rest back with
    /// refreshed keys and keeps the least exact crossing.
    fn advance(&mut self, dt: f64, sensors: &[Sensor], fraction: f64) {
        self.clock += dt;
        self.drains += 1;
        let margin = 2.0 * self.drift();
        let (mut soonest, mut limit) = (f64::INFINITY, f64::INFINITY);
        while let Some(&Reverse((bits, i))) = self.heap.peek() {
            if f64::from_bits(bits) > limit {
                break;
            }
            self.heap.pop();
            if let Some(x) = sensors[i].time_to_fraction(fraction) {
                let key = self.clock + x;
                self.popped.push(Reverse((key.to_bits(), i)));
                limit = limit.min(key + margin);
                soonest = soonest.min(x);
            }
        }
        self.heap.extend(self.popped.drain(..));
        self.soonest = soonest;
    }

    /// Adds sensor `i`, which holds no key, crossing in `x` seconds.
    fn insert(&mut self, i: usize, x: f64) {
        self.heap.push(Reverse(((self.clock + x).to_bits(), i)));
        self.soonest = self.soonest.min(x);
    }
}

/// The dispatch batch: at least `max(min_batch, ⌈batch_fraction · n⌉)`
/// pending requests.
pub(crate) fn batch_size(cfg: &SimConfig, n: usize) -> usize {
    let frac = (cfg.batch_fraction * n as f64).ceil() as usize;
    frac.max(cfg.min_batch).max(1)
}

/// Drains `s` for `dt` seconds and adds the dead time incurred during
/// the interval to `dead`.
pub(crate) fn drain_sensor(s: &mut Sensor, dt: f64, dead: &mut f64) {
    debug_assert!(dt >= 0.0);
    if s.consumption_w <= 0.0 {
        return;
    }
    let life = s.residual_j / s.consumption_w;
    if life >= dt {
        s.residual_j -= s.consumption_w * dt;
    } else {
        *dead += dt - life;
        s.residual_j = 0.0;
    }
}

/// Records deaths occurring while `sensors` advance by `dt` from `now`
/// into `buf` (timestamps may interleave across sensors; the caller
/// sorts before the trace sees them).
pub(crate) fn note_deaths(
    sensors: &[Sensor],
    now: f64,
    dt: f64,
    dead_since: &mut [Option<f64>],
    buf: &mut Vec<TraceEvent>,
) {
    for s in sensors {
        let i = s.id.index();
        if dead_since[i].is_none() && s.consumption_w > 0.0 && s.residual_j > 0.0 {
            let life = s.residual_j / s.consumption_w;
            if life < dt {
                dead_since[i] = Some(now + life);
                buf.push(TraceEvent::SensorDied { at_s: now + life, sensor: s.id });
            }
        }
    }
}

/// Truncates `tour` at schedule-time `cutoff_s`: sojourns finishing by
/// the cutoff are kept, one straddling it is clipped, the rest are
/// dropped, and the charger "returns" (is towed) at the cutoff.
pub(crate) fn truncate_tour(tour: &mut ChargerTour, cutoff_s: f64) {
    let mut kept = Vec::new();
    for s in tour.sojourns.drain(..) {
        if s.finish_s() <= cutoff_s {
            kept.push(s);
        } else if s.start_s < cutoff_s {
            let mut clipped = s;
            clipped.duration_s = cutoff_s - s.start_s;
            kept.push(clipped);
            break;
        } else {
            break;
        }
    }
    tour.sojourns = kept;
    tour.return_time_s = cutoff_s;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::{drain_sensor, Crossings, Kernel};
    use crate::{AsyncSimulation, SimConfig, SimReport, Simulation};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use wrsn_core::{Appro, PlannerConfig};
    use wrsn_geom::{Point, Rect};
    use wrsn_net::{Network, NetworkBuilder, Sensor, SensorId};

    #[test]
    fn drain_accounts_partial_death() {
        let mut s = Sensor::new(SensorId(0), Point::ORIGIN, 100.0, 0.0);
        s.consumption_w = 1.0; // dies after 100 s
        let mut dead = 0.0;
        drain_sensor(&mut s, 250.0, &mut dead);
        assert_eq!(s.residual_j, 0.0);
        assert!((dead - 150.0).abs() < 1e-9);
    }

    #[test]
    fn drain_leaves_live_sensor_alive() {
        let mut s = Sensor::new(SensorId(0), Point::ORIGIN, 100.0, 0.0);
        s.consumption_w = 1.0;
        let mut dead = 0.0;
        drain_sensor(&mut s, 40.0, &mut dead);
        assert_eq!(s.residual_j, 60.0);
        assert_eq!(dead, 0.0);
    }

    #[test]
    fn zero_consumption_never_dies() {
        let mut s = Sensor::new(SensorId(0), Point::ORIGIN, 100.0, 0.0);
        let mut dead = 0.0;
        drain_sensor(&mut s, 1e9, &mut dead);
        assert_eq!(s.residual_j, 100.0);
        assert_eq!(dead, 0.0);
    }

    /// A fresh kernel over 40 sensors.
    fn kernel(cfg: SimConfig) -> Kernel {
        Kernel::new(NetworkBuilder::new(40).seed(6).build(), cfg, 2, false).expect("context")
    }

    /// Drains `kn` for `dt` seconds and advances its clock.
    fn drain_for(kn: &mut Kernel, dt: f64) {
        kn.drain(dt);
        kn.t += dt;
    }

    /// The soonest crossing `kn`'s index keeps.
    fn soonest(kn: &Kernel) -> f64 {
        kn.crossing.as_ref().expect("the drain keeps the index").soonest
    }

    /// Drains `kn` for an hour, which keeps a crossing, and returns it.
    fn drain_an_hour(kn: &mut Kernel) -> f64 {
        drain_for(kn, 3_600.0);
        soonest(kn)
    }

    /// A fresh scan for the soonest request-threshold crossing.
    fn scanned(kn: &Kernel) -> f64 {
        kn.net.time_to_next_crossing(kn.cfg.request_fraction).unwrap_or(f64::INFINITY)
    }

    /// `wake`'s crossing equals a fresh scan bit for bit (debug builds
    /// also assert this inside `wake`).
    fn assert_wake_scans(kn: &Kernel) {
        assert_eq!(kn.wake(true).0.to_bits(), scanned(kn).to_bits());
    }

    /// The sensors above the request threshold, ascending.
    fn live(sensors: &[Sensor], fraction: f64) -> Vec<usize> {
        (0..sensors.len()).filter(|&i| sensors[i].time_to_fraction(fraction).is_some()).collect()
    }

    /// The sensors `index` holds keys for, ascending, repeats kept.
    fn held(index: &Crossings) -> Vec<usize> {
        let mut held: Vec<usize> = index.heap.iter().map(|&Reverse((_, i))| i).collect();
        held.sort_unstable();
        held
    }

    /// `kn` keeps an index whose soonest crossing equals a fresh scan bit
    /// for bit and which holds each sensor above the threshold once.
    fn assert_index_scans(kn: &Kernel) {
        let index = kn.crossing.as_ref().expect("the drain keeps the index");
        assert_eq!(index.soonest.to_bits(), scanned(kn).to_bits());
        assert_eq!(held(index), live(kn.net.sensors(), kn.cfg.request_fraction));
        assert_wake_scans(kn);
    }

    /// After a write that can advance a crossing: `kn` has dropped its
    /// index, so `wake` scans, and the next drain rebuilds it equal to a
    /// scan.
    pub(crate) fn assert_dropped_then_rebuilt(kn: &mut Kernel) {
        assert!(kn.crossing.is_none(), "the index outlived a write that can advance a crossing");
        assert_wake_scans(kn);
        drain_for(kn, 60.0);
        assert_index_scans(kn);
    }

    #[test]
    fn the_drain_pass_keeps_the_scanned_crossing() {
        let mut kn = kernel(SimConfig::default());
        assert!(kn.crossing.is_none());
        let kept = drain_an_hour(&mut kn);
        assert_eq!(kept.to_bits(), scanned(&kn).to_bits());
        assert_index_scans(&kn);
    }

    #[test]
    fn a_landing_folds_its_sensor_into_the_kept_crossing() {
        let mut kn = kernel(SimConfig::default());
        // The fastest drainer by far, pending: recharged, it crosses
        // first.
        let hot = &mut kn.net.sensors_mut()[7];
        hot.consumption_w *= 50.0;
        hot.residual_j = 0.1 * hot.capacity_j;
        drain_for(&mut kn, 1.0);
        let kept = soonest(&kn);
        kn.land_recharge(7, f64::INFINITY, kn.t);
        assert!(soonest(&kn) < kept);
        assert_index_scans(&kn);
        // The landing's key carries the sensor into later drains.
        drain_for(&mut kn, 60.0);
        let first = kn.net.sensors()[7].time_to_fraction(kn.cfg.request_fraction);
        assert_eq!(Some(soonest(&kn)), first);
        assert_index_scans(&kn);
    }

    #[test]
    fn a_churn_step_drops_the_kept_crossing() {
        let mut cfg = SimConfig::default();
        cfg.churn.sensor_mtbf_s = 1e15; // active, but no failure is drawn
        let mut kn = kernel(cfg);
        let kept = drain_an_hour(&mut kn);
        // Fail the sensor that crosses first: its term leaves the
        // minimum and the repair reroutes its neighbours.
        let fraction = kn.cfg.request_fraction;
        let first = kn
            .net
            .sensors()
            .iter()
            .position(|s| s.time_to_fraction(fraction) == Some(kept))
            .expect("some sensor crosses first");
        kn.churn.as_mut().expect("churn is active").fail_at[first] = 0.0;
        kn.churn_step();
        assert_eq!(kn.ledger.failed_sensors, 1);
        assert_ne!(scanned(&kn).to_bits(), kept.to_bits());
        assert_dropped_then_rebuilt(&mut kn);
        // A step that changes nothing writes no sensor state.
        kn.churn_step();
        assert_index_scans(&kn);
        // A depletion death repairs the tree with no hardware failure:
        // the sensors it relayed for reroute, and their rates change.
        let routing = kn.net.routing();
        let (child, relay) = (0..40)
            .filter(|&i| i != first)
            .find_map(|i| {
                routing.next_hops(i).iter().map(|&u| u as usize).find(|&u| u != first).map(|u| (i, u))
            })
            .expect("some sensor relays through another");
        let rate = kn.net.sensors()[child].consumption_w;
        kn.net.sensors_mut()[relay].residual_j = 0.0;
        kn.churn_step();
        assert_eq!(kn.ledger.failed_sensors, 1);
        assert_ne!(kn.net.sensors()[child].consumption_w, rate);
        assert_dropped_then_rebuilt(&mut kn);
    }

    #[test]
    fn restore_drops_the_kept_crossing() {
        let mut kn = kernel(SimConfig::default());
        let snap = kn.snapshot();
        let kept = drain_an_hour(&mut kn);
        kn.restore(snap);
        assert_ne!(scanned(&kn).to_bits(), kept.to_bits());
        assert_dropped_then_rebuilt(&mut kn);
    }

    /// A full 10.8 kJ sensor at `fraction` of its charge, drawing `rate_w`.
    fn charged(i: u32, fraction: f64, rate_w: f64) -> Sensor {
        let mut s = Sensor::new(SensorId(i), Point::ORIGIN, 10_800.0, 0.0);
        s.residual_j = fraction * s.capacity_j;
        s.consumption_w = rate_w;
        s
    }

    /// Drains `sensors` for `dt` seconds and `index` with them.
    fn drain_index(index: &mut Crossings, sensors: &mut [Sensor], dt: f64, fraction: f64) {
        let mut dead = 0.0;
        for s in sensors.iter_mut() {
            drain_sensor(s, dt, &mut dead);
        }
        index.advance(dt, sensors, fraction);
    }

    #[test]
    fn a_key_late_by_the_drift_still_yields_the_exact_minimum() {
        let fraction = SimConfig::default().request_fraction;
        // Sensor 1 crosses a few ulps after sensor 0.
        let mut sensors = vec![charged(0, 0.5, 0.01), charged(1, 0.5, 0.01)];
        sensors[1].residual_j = f64::from_bits(sensors[0].residual_j.to_bits() + 1);
        let mut index = Crossings::build(&sensors, fraction);
        drain_index(&mut index, &mut sensors, 3_600.0, fraction);
        let x: Vec<f64> =
            sensors.iter().map(|s| s.time_to_fraction(fraction).expect("live")).collect();
        assert!(x[0] < x[1], "{x:?}");
        // Sensor 0's key, pushed a drift late, now sorts after sensor
        // 1's: the margin must still reach it.
        let late = index.drift();
        index.heap = index
            .heap
            .drain()
            .map(|Reverse((key, i))| {
                let key = if i == 0 { f64::from_bits(key) + late } else { f64::from_bits(key) };
                Reverse((key.to_bits(), i))
            })
            .collect();
        assert_eq!(index.heap.peek().map(|&Reverse((_, i))| i), Some(1));
        index.advance(0.0, &sensors, fraction);
        assert_eq!(index.soonest.to_bits(), x[0].to_bits());
    }

    /// A drain step of 0 s, 1 ns or up to a day.
    fn step_s(kind: u8, frac: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => 1e-9,
            _ => frac * 86_400.0,
        }
    }

    proptest! {
        /// After every drain each key lies within the drift of τ plus its
        /// sensor's exact crossing, the drift the margin relies on, and
        /// the soonest sensor's key is refreshed.
        #[test]
        fn keys_stay_within_the_drift_of_their_exact_crossings(
            draws in vec((0.0f64..1.0, 1e-4f64..0.1), 1..30),
            steps in vec((0u8..3, 0.0f64..1.0), 1..60),
        ) {
            let fraction = SimConfig::default().request_fraction;
            let mut sensors: Vec<Sensor> =
                draws.iter().zip(0..).map(|(&(f, w), i)| charged(i, f, w)).collect();
            let mut index = Crossings::build(&sensors, fraction);
            for &(kind, frac) in &steps {
                drain_index(&mut index, &mut sensors, step_s(kind, frac), fraction);
                let drift = index.drift();
                for &Reverse((key, i)) in &index.heap {
                    let x = sensors[i].time_to_fraction(fraction);
                    prop_assert!(x.is_some(), "sensor {i} crossed but keeps a key");
                    let off = f64::from_bits(key) - index.clock - x.unwrap_or(0.0);
                    prop_assert!(off.abs() <= drift, "sensor {i}: {off:e} s off, drift {drift:e}");
                }
                if index.soonest.is_finite() {
                    let (soonest, refreshed) =
                        (index.soonest, (index.clock + index.soonest).to_bits());
                    let first = index.heap.iter().any(|&Reverse((key, i))| {
                        key == refreshed && sensors[i].time_to_fraction(fraction) == Some(soonest)
                    });
                    prop_assert!(first, "the soonest sensor's key was not refreshed");
                }
                prop_assert_eq!(held(&index), live(&sensors, fraction));
            }
        }

        /// The kept crossing equals a scan in `to_bits()` after every
        /// drain and landing, over ties, near-ties (1–4 ulps), idle
        /// sensors, residuals at the threshold and at 0, and sensors that
        /// cross and die within one drain.
        #[test]
        fn the_kept_crossing_matches_a_scan_after_every_drain_and_landing(
            shapes in vec((0u8..7, 0usize..40, 1u64..5), 40),
            steps in vec((0u8..4, 0.0f64..1.0), 1..40),
        ) {
            let mut kn = kernel(SimConfig::default());
            let fraction = kn.cfg.request_fraction;
            let base = kn.net.sensors().to_vec();
            for (i, &(shape, j, ulps)) in shapes.iter().enumerate() {
                let s = &mut kn.net.sensors_mut()[i];
                let threshold = fraction * s.capacity_j;
                match shape {
                    1 | 2 => {
                        s.residual_j = base[j].residual_j;
                        s.consumption_w = base[j].consumption_w;
                        if shape == 2 {
                            s.residual_j = f64::from_bits(s.residual_j.to_bits() + ulps);
                        }
                    }
                    3 => s.consumption_w = 0.0,
                    4 => s.residual_j = threshold,
                    5 => s.residual_j = 0.0,
                    6 => {
                        s.consumption_w *= 100.0;
                        s.residual_j = threshold + 10.0 * s.consumption_w;
                    }
                    _ => {}
                }
            }
            for &(kind, frac) in &steps {
                if kind == 3 {
                    let pending: Vec<usize> = (0..40)
                        .filter(|&i| kn.net.sensors()[i].time_to_fraction(fraction).is_none())
                        .collect();
                    if kn.crossing.is_none() || pending.is_empty() {
                        continue;
                    }
                    let pick = (frac * pending.len() as f64) as usize;
                    let idx = pending[pick.min(pending.len() - 1)];
                    kn.land_recharge(idx, f64::INFINITY, kn.t);
                } else {
                    drain_for(&mut kn, step_s(kind, frac));
                }
                let index = kn.crossing.as_ref().expect("the drain keeps the index");
                prop_assert_eq!(index.soonest.to_bits(), scanned(&kn).to_bits());
                prop_assert_eq!(held(index), live(kn.net.sensors(), fraction));
            }
        }
    }

    /// Thirty sensors within 25 m of the depot and one 80 m out. A full
    /// 15 kJ tank at 50 J/m spends 8 kJ on that round trip alone, which
    /// leaves less than the ~9.6 kJ its deficit draws at η = 0.9, so
    /// energy splitting drops it from every tour it is planned into.
    fn one_unreachable() -> (Network, SimConfig) {
        let near = NetworkBuilder::new(30).seed(4).field(Rect::square(50.0)).build();
        let mut sensors = near.sensors().to_vec();
        let far = sensors.len() - 1;
        sensors[far].pos = Point::new(near.depot().x + 80.0, near.depot().y);
        let net = Network::assemble(
            near.field(),
            near.base_station(),
            near.depot(),
            sensors,
            *near.radio(),
            near.comm_range_m(),
        );
        let mut cfg = SimConfig::default();
        cfg.horizon_s = 60.0 * 24.0 * 3600.0;
        cfg.energy.capacity_j = 15.0e3;
        cfg.energy.travel_j_per_m = 50.0;
        cfg.energy.transfer_efficiency = 0.9;
        cfg.energy.recharge_w = 200.0;
        (net, cfg)
    }

    #[test]
    fn an_unreachable_sensor_does_not_halt_the_fleet() {
        let planner = Appro::new(PlannerConfig::default());
        for sync in [true, false] {
            let (net, cfg) = one_unreachable();
            let report: SimReport = if sync {
                Simulation::new(net, cfg).unwrap().run(&planner, 2).unwrap()
            } else {
                AsyncSimulation::new(net, cfg).unwrap().run(&planner, 2).unwrap()
            };
            let last = report.rounds.last().expect("rounds dispatched").dispatch_time_s;
            assert!(
                last >= 0.9 * cfg.horizon_s,
                "sync={sync}: last dispatch on day {:.1} of {:.0}",
                last / 86_400.0,
                cfg.horizon_s / 86_400.0
            );
            assert!(report.energy_dropped_stops > 0, "sync={sync}: the far sensor is dropped");
            assert!(report.service_reconciles(), "sync={sync}: service ledger");
            assert!(report.charger_energy_reconciles(), "sync={sync}: charger ledger");
        }
    }
}
