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
//! One pass over the sensors per event drains them, accounts dead time
//! and finds the next request-threshold crossing. A policy decides only
//! *when* and *for whom* to plan and when a tour executes:
//! [`crate::Simulation`] is the round barrier,
//! [`crate::AsyncSimulation`] dispatches each charger on its own.

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
    /// The soonest request-threshold crossing from `t`, kept by the
    /// drain pass so [`Kernel::wake`] need not scan (`INFINITY` when no
    /// sensor will cross). `None` once a write the pass did not see may
    /// have changed it: a churn step, [`Kernel::restore`] or a barrier
    /// round's recharges ([`Kernel::forget_crossing`]). A pipelined
    /// landing folds its sensor in instead ([`Kernel::land_recharge`]).
    crossing: Option<f64>,
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
            // Repairs reroute consumption and failures refill batteries.
            self.crossing = None;
            self.ledger.failed_sensors += cs.step(
                &mut self.net,
                self.t,
                self.cfg.max_deferrals,
                &mut self.deferral_count,
                self.cfg.collect_trace,
                &mut self.staged,
            );
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
    /// dead time; when noting deaths, traces them (sorted) first. The
    /// same pass keeps the soonest request-threshold crossing after the
    /// drain for [`Kernel::wake`]. The clock is the caller's to advance.
    pub fn drain(&mut self, dt: f64) {
        if self.note_deaths {
            note_deaths(self.net.sensors(), self.t, dt, &mut self.dead_since, &mut self.staged);
            self.flush(true);
        }
        let fraction = self.cfg.request_fraction;
        let mut next = f64::INFINITY;
        for (s, dead) in self.net.sensors_mut().iter_mut().zip(&mut self.dead) {
            drain_sensor(s, dt, dead);
            if let Some(c) = s.time_to_fraction(fraction) {
                if c < next {
                    next = c;
                }
            }
        }
        self.crossing = Some(next);
    }

    /// Drops the kept crossing after a write to sensor state that the
    /// drain pass did not see, so the next [`Kernel::wake`] scans.
    pub fn forget_crossing(&mut self) {
        self.crossing = None;
    }

    /// Lands a queued pipelined recharge on sensor `idx` at `at`: the
    /// sensor snaps to the target fraction, or with imperfect telemetry
    /// the arriving MCV measures the true residual, the estimator
    /// reconciles, and the battery absorbs at most the sojourn's fixed
    /// `planned` budget. The sensor's new crossing joins the kept one.
    pub fn land_recharge(&mut self, idx: usize, planned: f64, at: f64) {
        let target_frac = self.cfg.params.charge_target_fraction;
        let fraction = self.cfg.request_fraction;
        // Folding is exact because the kept minimum holds no term for
        // this sensor: it was pending, so below the threshold, when its
        // recharge was queued; drains only lower a residual (a churn
        // failure refills one but zeroes its drain); and a sensor with
        // a queued recharge is not dispatched again.
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
        if let (Some(kept), Some(c)) = (self.crossing.as_mut(), landed) {
            if c < *kept {
                *kept = c;
            }
        }
    }

    /// The layers' next wake-up after `self.t`, as `(relative,
    /// absolute)`: the soonest request-threshold crossing in seconds
    /// from now (the kept one, when the drain pass has kept it), and
    /// the soonest channel delivery or retry or hardware failure as an
    /// instant. Unless `pending_only` — which keeps just the events
    /// that can change the pending set — telemetry reports count too,
    /// and so, under churn, does the next depletion, which the churn
    /// step must excise promptly.
    pub fn wake(&self, pending_only: bool) -> (f64, f64) {
        let t = self.t;
        let scan = |fraction| self.net.time_to_next_crossing(fraction).unwrap_or(f64::INFINITY);
        let fraction = self.cfg.request_fraction;
        let mut rel = match self.crossing {
            Some(kept) => {
                debug_assert_eq!(
                    kept.to_bits(),
                    scan(fraction).to_bits(),
                    "the kept crossing differs from a fresh scan"
                );
                kept
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
mod tests {
    use super::{drain_sensor, Kernel};
    use crate::{AsyncSimulation, SimConfig, SimReport, Simulation};
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

    /// Drains `kn` for an hour, which keeps a crossing, and returns it.
    fn drain_an_hour(kn: &mut Kernel) -> f64 {
        kn.drain(3_600.0);
        kn.t += 3_600.0;
        kn.crossing.expect("the drain pass keeps a crossing")
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

    #[test]
    fn the_drain_pass_keeps_the_scanned_crossing() {
        let mut kn = kernel(SimConfig::default());
        assert_eq!(kn.crossing, None);
        let kept = drain_an_hour(&mut kn);
        assert_eq!(kept.to_bits(), scanned(&kn).to_bits());
        assert_wake_scans(&kn);
    }

    #[test]
    fn a_landing_folds_its_sensor_into_the_kept_crossing() {
        let mut kn = kernel(SimConfig::default());
        // The fastest drainer by far, pending: recharged, it crosses
        // first.
        let hot = &mut kn.net.sensors_mut()[7];
        hot.consumption_w *= 50.0;
        hot.residual_j = 0.1 * hot.capacity_j;
        kn.drain(1.0);
        kn.t += 1.0;
        let kept = kn.crossing.expect("kept");
        kn.land_recharge(7, f64::INFINITY, kn.t);
        assert!(kn.crossing.expect("still kept") < kept);
        assert_wake_scans(&kn);
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
        assert_wake_scans(&kn);
    }

    #[test]
    fn restore_drops_the_kept_crossing() {
        let mut kn = kernel(SimConfig::default());
        let snap = kn.snapshot();
        let kept = drain_an_hour(&mut kn);
        kn.restore(snap);
        assert_ne!(scanned(&kn).to_bits(), kept.to_bits());
        assert_wake_scans(&kn);
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
