//! Optional event traces for simulation runs.
//!
//! The aggregate [`SimReport`](crate::SimReport) answers "how much dead
//! time"; a trace answers "what happened when": every dispatch, death,
//! recharge, charger breakdown and recovery with its timestamp, in
//! chronological order. Traces are opt-in
//! ([`SimConfig::collect_trace`](crate::SimConfig)) because a year-long
//! run on a stressed network generates hundreds of thousands of events;
//! [`SimConfig::trace_capacity`](crate::SimConfig) additionally caps the
//! buffer as a ring — the newest events win, and
//! [`Trace::dropped`] reports how many old ones were evicted — so
//! fault-heavy traces cannot exhaust memory.

use std::collections::VecDeque;

use wrsn_net::SensorId;

/// Why the serve ingress guard rejected a request before acceptance.
///
/// Rejections sit *outside* the serve ledger's conservation identity —
/// a rejected request was never accepted, so `silent_loss == 0` still
/// holds exactly — but every one is counted and traced
/// ([`TraceEvent::RequestRejected`]): nothing is dropped silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngressRejectReason {
    /// The sensor's per-sensor token bucket was empty (request flood).
    RateLimited,
    /// An identical request repeated past the replay window's tolerance
    /// (replay / duplicate flood).
    Replayed,
    /// The reported deficit exceeded the estimator-style plausibility
    /// bound (deficit liar).
    ImplausibleDeficit,
}

impl IngressRejectReason {
    /// Stable lowercase name (JSON keys, trace lines).
    pub fn name(self) -> &'static str {
        match self {
            IngressRejectReason::RateLimited => "rate_limited",
            IngressRejectReason::Replayed => "replayed",
            IngressRejectReason::ImplausibleDeficit => "implausible_deficit",
        }
    }

    /// Stable numeric code (the snapshot codec's wire form).
    pub fn code(self) -> u32 {
        match self {
            IngressRejectReason::RateLimited => 0,
            IngressRejectReason::Replayed => 1,
            IngressRejectReason::ImplausibleDeficit => 2,
        }
    }

    /// Inverse of [`IngressRejectReason::code`].
    pub fn from_code(code: u32) -> Option<Self> {
        match code {
            0 => Some(IngressRejectReason::RateLimited),
            1 => Some(IngressRejectReason::Replayed),
            2 => Some(IngressRejectReason::ImplausibleDeficit),
            _ => None,
        }
    }
}

/// One timestamped simulation event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A charging round was dispatched.
    RoundDispatched {
        /// Simulation time, seconds.
        at_s: f64,
        /// Round index (0-based).
        round: usize,
        /// Size of the request set.
        requests: usize,
    },
    /// A sensor's battery reached zero.
    SensorDied {
        /// Simulation time, seconds.
        at_s: f64,
        /// The sensor.
        sensor: SensorId,
    },
    /// A sensor was recharged by a charging round.
    SensorRecharged {
        /// Simulation time, seconds.
        at_s: f64,
        /// The sensor.
        sensor: SensorId,
        /// Dead time this recharge ended, seconds (0 if it was alive).
        ended_dead_s: f64,
    },
    /// A round's chargers all returned to the depot.
    RoundCompleted {
        /// Simulation time, seconds.
        at_s: f64,
        /// Round index (0-based).
        round: usize,
        /// The round's longest tour delay, seconds.
        longest_delay_s: f64,
    },
    /// A mobile charger broke down mid-tour
    /// ([`FaultModel`](crate::FaultModel) breakdown channel); its
    /// unfinished sojourns are stranded.
    ChargerFailed {
        /// Simulation time of the breakdown, seconds.
        at_s: f64,
        /// The failed charger's index.
        charger: usize,
    },
    /// Stranded sensors were re-planned onto the surviving fleet.
    RecoveryDispatched {
        /// Simulation time of the recovery dispatch, seconds.
        at_s: f64,
        /// Number of stranded sensors in the recovery request set.
        stranded: usize,
        /// Surviving chargers the recovery plan runs on.
        chargers: usize,
    },
    /// A charging request transmission was dropped by the unreliable
    /// channel ([`ChannelModel`](crate::ChannelModel) loss); the sensor
    /// retries with exponential backoff.
    RequestLost {
        /// Simulation time of the lost transmission, seconds.
        at_s: f64,
        /// The requesting sensor.
        sensor: SensorId,
        /// Transmission attempt number this episode (1-based).
        attempt: u32,
    },
    /// A duplicated request copy arrived after the original was already
    /// delivered; the base station discarded it.
    DuplicateDropped {
        /// Simulation time of the duplicate arrival, seconds.
        at_s: f64,
        /// The sensor whose request was duplicated.
        sensor: SensorId,
    },
    /// Admission control shed a delivered request because serving it
    /// would push the round past the configured delay bound; the sensor
    /// stays pending and is re-considered next round at higher priority.
    RequestShed {
        /// Simulation time of the shedding decision, seconds.
        at_s: f64,
        /// The shed sensor.
        sensor: SensorId,
        /// Rounds this request has now been deferred in total.
        deferrals: u32,
    },
    /// A request deferred past the starvation bound was escalated and
    /// force-admitted regardless of the admission delay bound.
    RequestEscalated {
        /// Simulation time of the escalation, seconds.
        at_s: f64,
        /// The escalated sensor.
        sensor: SensorId,
        /// Rounds the request had been deferred before escalation.
        deferrals: u32,
    },
    /// An arriving MCV measured a sensor's true residual and corrected
    /// the base station's telemetry estimate
    /// ([`TelemetryModel`](crate::TelemetryModel)); emitted at every
    /// on-site reconciliation.
    TelemetryCorrected {
        /// Simulation time of the arrival measurement, seconds.
        at_s: f64,
        /// The measured sensor.
        sensor: SensorId,
        /// Signed estimator error, `estimate − truth`, joules
        /// (positive = the base station was optimistic).
        error_j: f64,
    },
    /// An arrival measurement fell **outside** the estimator's carried
    /// uncertainty interval — the belief was not just noisy but
    /// overconfident. Always paired with a
    /// [`TraceEvent::TelemetryCorrected`] at the same instant.
    EstimateMiss {
        /// Simulation time of the arrival measurement, seconds.
        at_s: f64,
        /// The measured sensor.
        sensor: SensorId,
        /// Signed estimator error, `estimate − truth`, joules.
        error_j: f64,
    },
    /// A sensor's battery hit zero while the telemetry estimator still
    /// believed it alive — a death that stale or noisy reports hid from
    /// the base station.
    SensorDiedUndetected {
        /// Simulation time the discrepancy was detected, seconds.
        at_s: f64,
        /// The dead sensor.
        sensor: SensorId,
        /// The estimator's residual belief at that instant, joules
        /// (all of it error, since the truth is 0).
        error_j: f64,
    },
    /// A sensor was permanently lost to a hardware failure injected by
    /// the churn layer ([`ChurnModel`](crate::ChurnModel)); unlike a
    /// depletion death it never revives. Stamped at the simulation
    /// instant the engine *detected* the failure (deaths surface at
    /// loop boundaries, like the legacy failure path).
    SensorFailed {
        /// Simulation time the failure was detected, seconds.
        at_s: f64,
        /// The lost sensor.
        sensor: SensorId,
    },
    /// The routing tree was repaired after the set of alive sensors
    /// changed: corpses excised, their upstream traffic re-split among
    /// surviving closer neighbors, survivor consumption recomputed.
    RoutingRepaired {
        /// Simulation time of the repair, seconds.
        at_s: f64,
        /// Survivors whose routing state (hops, loads, or transmit
        /// power) changed.
        changed: usize,
    },
    /// A routing repair multiplied a survivor's consumption by more
    /// than [`ChurnModel::cascade_factor`](crate::ChurnModel) — the
    /// seed of an energy hole. The sensor's charging priority is
    /// escalated past the admission bound in response.
    CascadeDetected {
        /// Simulation time of the repair that raised the alarm, seconds.
        at_s: f64,
        /// The overloaded survivor.
        sensor: SensorId,
        /// Consumption growth ratio, `after / before` (> 1).
        factor: f64,
    },
    /// A routing repair left a survivor without any closer neighbor: it
    /// fell back to a direct long link to the base station — reachable,
    /// but effectively partitioned from the relay mesh.
    SensorPartitioned {
        /// Simulation time of the repair, seconds.
        at_s: f64,
        /// The partitioned survivor.
        sensor: SensorId,
    },
    /// A mobile charger's battery hit zero mid-tour
    /// ([`ChargerEnergyModel`](wrsn_core::ChargerEnergyModel)): it is
    /// stranded where it stopped, its unfinished sojourns re-enter the
    /// pending set, and it only returns to service if rescued.
    ChargerExhausted {
        /// Simulation time of the exhaustion, seconds.
        at_s: f64,
        /// The stranded charger's index.
        charger: usize,
    },
    /// A charger completed a depot recharge: either a mid-tour detour
    /// inserted by energy-aware tour splitting, or the refill after a
    /// rescue tow.
    DepotRecharge {
        /// Simulation time the recharge completed, seconds.
        at_s: f64,
        /// The recharged charger's index.
        charger: usize,
        /// Joules taken on.
        recharged_j: f64,
    },
    /// An energy-feasible MCV was dispatched to tow a stranded,
    /// exhausted peer back to the depot.
    RescueDispatched {
        /// Simulation time of the rescue dispatch, seconds.
        at_s: f64,
        /// The charger performing the tow.
        rescuer: usize,
        /// The stranded charger being towed home.
        stranded: usize,
    },
    /// The serve-mode planning watchdog aborted a hung, panicked, or
    /// over-budget planner run and the batch was re-planned down the
    /// degraded fallback chain (kEDF, then the infallible greedy tour).
    /// The orphaned planner thread is detached; its late result, if
    /// any, is discarded.
    WatchdogTripped {
        /// Service time of the abort, seconds.
        at_s: f64,
        /// Requests in the batch whose planning was aborted.
        batch: usize,
    },
    /// The serve engine's WAL could not be made durable within its
    /// bounded retry budget: the service entered degraded mode, refusing
    /// new admissions (so it never acknowledges work it could lose)
    /// while continuing to dispatch accepted requests.
    DurabilityLost {
        /// Service time of the declaration, seconds.
        at_s: f64,
        /// The tick whose group commit exhausted its retries.
        tick: u64,
    },
    /// A degraded-mode probe write succeeded: the stranded batch was
    /// flushed, durability is back, and admissions re-armed.
    DurabilityRestored {
        /// Service time of the re-arm, seconds.
        at_s: f64,
        /// The tick whose probe succeeded.
        tick: u64,
    },
    /// The serve ingress guard rejected a request before acceptance
    /// (rate limit, replay window, or deficit plausibility). The
    /// request was never admitted — outside the conservation identity —
    /// but counted and traced, never silent.
    RequestRejected {
        /// Service time of the rejection, seconds.
        at_s: f64,
        /// The rejected sensor.
        sensor: SensorId,
        /// Which defense fired.
        reason: IngressRejectReason,
    },
    /// A sensor crossed the guard's strike threshold and entered
    /// quarantine: every further request from it is refused (typed,
    /// counted) until the quarantine window decays.
    SensorQuarantined {
        /// Service time of the quarantine entry, seconds.
        at_s: f64,
        /// The quarantined sensor.
        sensor: SensorId,
        /// Service time the quarantine window ends, seconds.
        until_s: f64,
    },
    /// A quarantined sensor's window expired: it is on parole —
    /// admitted again, but a single fresh strike re-quarantines it with
    /// a doubled window.
    SensorParoled {
        /// Service time of the parole, seconds.
        at_s: f64,
        /// The paroled sensor.
        sensor: SensorId,
    },
    /// An ingress connection ended on a read error (I/O failure or
    /// read-deadline timeout) rather than clean EOF — counted in
    /// `ingress_read_errors`, never silently discarded.
    IngressDisconnected {
        /// Service time the error was drained, seconds.
        at_s: f64,
    },
}

impl TraceEvent {
    /// The event's timestamp, seconds from simulation start.
    pub fn at_s(&self) -> f64 {
        match *self {
            TraceEvent::RoundDispatched { at_s, .. }
            | TraceEvent::SensorDied { at_s, .. }
            | TraceEvent::SensorRecharged { at_s, .. }
            | TraceEvent::RoundCompleted { at_s, .. }
            | TraceEvent::ChargerFailed { at_s, .. }
            | TraceEvent::RecoveryDispatched { at_s, .. }
            | TraceEvent::RequestLost { at_s, .. }
            | TraceEvent::DuplicateDropped { at_s, .. }
            | TraceEvent::RequestShed { at_s, .. }
            | TraceEvent::RequestEscalated { at_s, .. }
            | TraceEvent::TelemetryCorrected { at_s, .. }
            | TraceEvent::EstimateMiss { at_s, .. }
            | TraceEvent::SensorDiedUndetected { at_s, .. }
            | TraceEvent::SensorFailed { at_s, .. }
            | TraceEvent::RoutingRepaired { at_s, .. }
            | TraceEvent::CascadeDetected { at_s, .. }
            | TraceEvent::SensorPartitioned { at_s, .. }
            | TraceEvent::ChargerExhausted { at_s, .. }
            | TraceEvent::DepotRecharge { at_s, .. }
            | TraceEvent::RescueDispatched { at_s, .. }
            | TraceEvent::WatchdogTripped { at_s, .. }
            | TraceEvent::DurabilityLost { at_s, .. }
            | TraceEvent::DurabilityRestored { at_s, .. }
            | TraceEvent::RequestRejected { at_s, .. }
            | TraceEvent::SensorQuarantined { at_s, .. }
            | TraceEvent::SensorParoled { at_s, .. }
            | TraceEvent::IngressDisconnected { at_s } => at_s,
        }
    }
}

/// A chronological ring of [`TraceEvent`]s with query helpers.
///
/// Unbounded by default; [`Trace::with_capacity_limit`] installs a cap
/// under which the **oldest** events are evicted first, so the tail of
/// a long run — usually the part under investigation — is always
/// retained.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    /// Maximum retained events; 0 = unbounded.
    capacity: usize,
    /// Events evicted to respect the capacity.
    dropped: usize,
}

impl Trace {
    /// An empty trace retaining at most `capacity` events
    /// (0 = unbounded).
    pub fn with_capacity_limit(capacity: usize) -> Self {
        Trace { events: VecDeque::new(), capacity, dropped: 0 }
    }

    /// Records an event, evicting the oldest if the ring is full.
    ///
    /// # Panics
    ///
    /// Debug-panics if `event` is earlier than the last recorded one.
    pub fn push(&mut self, event: TraceEvent) {
        debug_assert!(
            self.events.back().is_none_or(|l| l.at_s() <= event.at_s() + 1e-6),
            "trace must be chronological"
        );
        if self.capacity > 0 && self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Iterates over the retained events in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` iff no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring to honor the capacity limit.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Number of retained events `is` selects, e.g.
    /// `trace.count(|e| matches!(e, TraceEvent::ChargerFailed { .. }))`.
    pub fn count(&self, is: impl Fn(&TraceEvent) -> bool) -> usize {
        self.iter().filter(|e| is(e)).count()
    }

    /// Rebuilds a trace from checkpointed parts (snapshot restore).
    pub(crate) fn from_parts(
        capacity: usize,
        dropped: usize,
        events: Vec<TraceEvent>,
    ) -> Self {
        Trace { events: events.into(), capacity, dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut t = Trace::default();
        assert!(t.is_empty());
        t.push(TraceEvent::RoundDispatched { at_s: 0.0, round: 0, requests: 3 });
        t.push(TraceEvent::SensorDied { at_s: 5.0, sensor: SensorId(1) });
        t.push(TraceEvent::SensorRecharged {
            at_s: 9.0,
            sensor: SensorId(1),
            ended_dead_s: 4.0,
        });
        t.push(TraceEvent::RoundCompleted { at_s: 10.0, round: 0, longest_delay_s: 10.0 });
        assert_eq!(t.len(), 4);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::SensorDied { .. })), 1);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::SensorRecharged { .. })), 1);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn at_s_extracts_timestamps() {
        let e = TraceEvent::RoundCompleted { at_s: 7.5, round: 1, longest_delay_s: 2.0 };
        assert_eq!(e.at_s(), 7.5);
        let e = TraceEvent::ChargerFailed { at_s: 3.0, charger: 1 };
        assert_eq!(e.at_s(), 3.0);
        let e = TraceEvent::RecoveryDispatched { at_s: 4.0, stranded: 2, chargers: 1 };
        assert_eq!(e.at_s(), 4.0);
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let mut t = Trace::with_capacity_limit(3);
        for i in 0..5 {
            t.push(TraceEvent::SensorDied { at_s: i as f64, sensor: SensorId(i) });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let times: Vec<f64> = t.iter().map(TraceEvent::at_s).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0]); // newest retained
    }

    #[test]
    fn zero_capacity_is_unbounded() {
        let mut t = Trace::with_capacity_limit(0);
        for i in 0..1000 {
            t.push(TraceEvent::SensorDied { at_s: i as f64, sensor: SensorId(0) });
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn channel_event_counters() {
        let mut t = Trace::default();
        t.push(TraceEvent::RequestLost { at_s: 1.0, sensor: SensorId(0), attempt: 1 });
        t.push(TraceEvent::RequestLost { at_s: 2.0, sensor: SensorId(0), attempt: 2 });
        t.push(TraceEvent::DuplicateDropped { at_s: 3.0, sensor: SensorId(1) });
        t.push(TraceEvent::RequestShed { at_s: 4.0, sensor: SensorId(2), deferrals: 1 });
        t.push(TraceEvent::RequestEscalated { at_s: 5.0, sensor: SensorId(2), deferrals: 3 });
        assert_eq!(t.count(|e| matches!(e, TraceEvent::RequestLost { .. })), 2);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::RequestShed { .. })), 1);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::RequestEscalated { .. })), 1);
        assert_eq!(t.iter().last().unwrap().at_s(), 5.0);
    }

    #[test]
    fn telemetry_event_counters() {
        let mut t = Trace::default();
        t.push(TraceEvent::TelemetryCorrected { at_s: 1.0, sensor: SensorId(0), error_j: 12.5 });
        t.push(TraceEvent::EstimateMiss { at_s: 1.0, sensor: SensorId(0), error_j: 12.5 });
        t.push(TraceEvent::TelemetryCorrected { at_s: 2.0, sensor: SensorId(1), error_j: -3.0 });
        t.push(TraceEvent::SensorDiedUndetected { at_s: 3.0, sensor: SensorId(2), error_j: 40.0 });
        assert_eq!(t.count(|e| matches!(e, TraceEvent::TelemetryCorrected { .. })), 2);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::EstimateMiss { .. })), 1);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::SensorDiedUndetected { .. })), 1);
        assert_eq!(t.iter().last().unwrap().at_s(), 3.0);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut t = Trace::with_capacity_limit(2);
        for i in 0..4 {
            t.push(TraceEvent::SensorDied { at_s: i as f64, sensor: SensorId(i) });
        }
        let rebuilt = Trace::from_parts(2, t.dropped(), t.iter().copied().collect());
        assert_eq!(rebuilt, t);
    }

    #[test]
    fn churn_event_counters() {
        let mut t = Trace::default();
        t.push(TraceEvent::SensorFailed { at_s: 1.0, sensor: SensorId(3) });
        t.push(TraceEvent::RoutingRepaired { at_s: 1.0, changed: 5 });
        t.push(TraceEvent::CascadeDetected { at_s: 1.0, sensor: SensorId(4), factor: 2.5 });
        t.push(TraceEvent::SensorPartitioned { at_s: 1.0, sensor: SensorId(9) });
        t.push(TraceEvent::RoutingRepaired { at_s: 2.0, changed: 1 });
        assert_eq!(t.count(|e| matches!(e, TraceEvent::SensorFailed { .. })), 1);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::RoutingRepaired { .. })), 2);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::CascadeDetected { .. })), 1);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::SensorPartitioned { .. })), 1);
        assert_eq!(t.iter().last().unwrap().at_s(), 2.0);
    }

    #[test]
    fn energy_event_counters() {
        let mut t = Trace::default();
        t.push(TraceEvent::DepotRecharge { at_s: 1.0, charger: 0, recharged_j: 500.0 });
        t.push(TraceEvent::ChargerExhausted { at_s: 2.0, charger: 1 });
        t.push(TraceEvent::RescueDispatched { at_s: 3.0, rescuer: 0, stranded: 1 });
        t.push(TraceEvent::DepotRecharge { at_s: 4.0, charger: 1, recharged_j: 1_000.0 });
        assert_eq!(t.count(|e| matches!(e, TraceEvent::ChargerExhausted { .. })), 1);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::DepotRecharge { .. })), 2);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::RescueDispatched { .. })), 1);
        assert_eq!(t.iter().last().unwrap().at_s(), 4.0);
    }

    #[test]
    fn durability_event_counters() {
        let mut t = Trace::default();
        t.push(TraceEvent::DurabilityLost { at_s: 1.0, tick: 10 });
        t.push(TraceEvent::DurabilityRestored { at_s: 2.5, tick: 25 });
        t.push(TraceEvent::DurabilityLost { at_s: 3.0, tick: 30 });
        assert_eq!(t.count(|e| matches!(e, TraceEvent::DurabilityLost { .. })), 2);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::DurabilityRestored { .. })), 1);
        assert_eq!(t.iter().last().unwrap().at_s(), 3.0);
    }

    #[test]
    fn ingress_guard_event_counters() {
        let mut t = Trace::default();
        t.push(TraceEvent::RequestRejected {
            at_s: 1.0,
            sensor: SensorId(3),
            reason: IngressRejectReason::RateLimited,
        });
        t.push(TraceEvent::RequestRejected {
            at_s: 1.5,
            sensor: SensorId(3),
            reason: IngressRejectReason::ImplausibleDeficit,
        });
        t.push(TraceEvent::SensorQuarantined { at_s: 2.0, sensor: SensorId(3), until_s: 62.0 });
        t.push(TraceEvent::SensorParoled { at_s: 62.5, sensor: SensorId(3) });
        t.push(TraceEvent::IngressDisconnected { at_s: 70.0 });
        assert_eq!(t.count(|e| matches!(e, TraceEvent::RequestRejected { .. })), 2);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::SensorQuarantined { .. })), 1);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::SensorParoled { .. })), 1);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::IngressDisconnected { .. })), 1);
        assert_eq!(t.iter().last().unwrap().at_s(), 70.0);
        assert_eq!(IngressRejectReason::Replayed.name(), "replayed");
    }

    #[test]
    fn fault_event_counters() {
        let mut t = Trace::default();
        t.push(TraceEvent::ChargerFailed { at_s: 1.0, charger: 0 });
        t.push(TraceEvent::ChargerFailed { at_s: 2.0, charger: 1 });
        t.push(TraceEvent::RecoveryDispatched { at_s: 3.0, stranded: 4, chargers: 1 });
        assert_eq!(t.count(|e| matches!(e, TraceEvent::ChargerFailed { .. })), 2);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::RecoveryDispatched { .. })), 1);
    }
}
