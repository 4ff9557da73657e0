//! Simulation outputs: per-round statistics and the aggregate report.

/// Statistics of one charging round (one dispatch of the `K` MCVs).
#[derive(Clone, Debug, PartialEq)]
pub struct RoundStats {
    /// Simulation time of the dispatch, seconds.
    pub dispatch_time_s: f64,
    /// Number of sensors in the round's request set `V_s`; if a charger
    /// breakdown triggered a recovery re-plan, sensors that first
    /// appeared in the recovery request set are counted here too.
    pub request_count: usize,
    /// Longest per-charger delay of the round's schedule, seconds — the
    /// paper's objective.
    pub longest_delay_s: f64,
    /// Conflict-avoidance waiting summed over the round's tours, seconds.
    pub total_wait_s: f64,
    /// Number of sojourn stops across all tours.
    pub sojourn_count: usize,
    /// Energy delivered to sensors this round, joules.
    pub energy_delivered_j: f64,
}

/// Aggregate outcome of a monitoring-period simulation.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SimReport {
    /// Every charging round, in dispatch order.
    pub rounds: Vec<RoundStats>,
    /// Per-sensor accumulated dead time over the horizon, seconds.
    pub dead_time_s: Vec<f64>,
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Chronological event trace; empty unless
    /// [`SimConfig::collect_trace`](crate::SimConfig) was set.
    pub trace: crate::Trace,
    /// Sensors permanently lost to topology churn's hardware failures
    /// ([`ChurnModel::sensor_mtbf_s`](crate::ChurnModel)); 0 when churn
    /// is inert.
    pub failed_sensors: usize,
    /// Mid-tour charger breakdowns over the horizon
    /// ([`FaultModel::charger_mtbf_s`](crate::FaultModel)).
    pub charger_failures: usize,
    /// Recovery re-plans dispatched after breakdowns stranded sensors.
    pub recovery_rounds: usize,
    /// Service requests completed by their own round (main dispatch, or
    /// a recovery round they first appeared in).
    pub charged_sensors: usize,
    /// Service requests stranded by a breakdown and then completed by
    /// that round's recovery re-plan.
    pub recovered_sensors: usize,
    /// Service requests left unserved by their round (stranded with no
    /// surviving charger, or stranded again during recovery); they
    /// re-request and are counted again in a later round.
    pub deferred_sensors: usize,
    /// Service requests shed by saturation-aware admission control
    /// ([`SimConfig::admission_bound_s`](crate::SimConfig)); like
    /// deferred requests they stay pending and are counted again — at
    /// escalated priority — in a later round.
    pub shed_sensors: usize,
    /// Request transmissions dropped by the unreliable channel
    /// ([`ChannelModel::loss_prob`](crate::ChannelModel)). Channel-level
    /// losses precede admission, so they are *not* part of the service
    /// ledger — the sensor retries until delivered or dead.
    pub lost_requests: usize,
    /// Duplicate request copies discarded at the base station
    /// ([`ChannelModel::duplicate_prob`](crate::ChannelModel)); never
    /// double-counted in the ledger.
    pub duplicates_dropped: usize,
    /// Requests force-admitted after being deferred or shed for more
    /// than [`SimConfig::max_deferrals`](crate::SimConfig) rounds.
    pub escalated_requests: usize,
    /// Residual-energy reports processed by the base-station estimator
    /// ([`TelemetryModel`](crate::TelemetryModel)); 0 when telemetry is
    /// inert (the engines plan from ground truth).
    pub telemetry_reports: usize,
    /// Signed estimator error (`estimate − truth`, joules) at every MCV
    /// arrival reconciliation, in reconciliation order.
    pub estimate_errors_j: Vec<f64>,
    /// Arrival measurements that fell outside the estimator's carried
    /// uncertainty interval.
    pub estimate_misses: usize,
    /// Sensor deaths that occurred while the estimator still believed
    /// the sensor alive.
    pub undetected_deaths: usize,
    /// Energy budgeted by planned sojourn durations (from guarded
    /// residual estimates), joules.
    pub planned_energy_j: f64,
    /// Energy actually delivered at arrival reconciliation, joules.
    pub reconciled_energy_j: f64,
    /// Charger energy wasted on sojourns planned longer than the true
    /// deficit (the guard margin's cost), joules.
    pub overcharge_j: f64,
    /// Energy shortfall of sojourns planned shorter than the true
    /// deficit (optimistic estimates' cost), joules.
    pub undercharge_j: f64,
    /// Routing repairs performed after the alive set changed
    /// ([`ChurnModel`](crate::ChurnModel)); 0 when churn is inert.
    pub routing_repairs: usize,
    /// Cascade (energy-hole) alarms: repairs that multiplied some
    /// survivor's consumption by more than
    /// [`ChurnModel::cascade_factor`](crate::ChurnModel).
    pub cascade_alerts: usize,
    /// Survivors a repair forced onto direct long links to the base
    /// station (partitioned from the relay mesh).
    pub partitioned_sensors: usize,
    /// Post-repair traffic-conservation audits that failed. Always 0
    /// unless the repair logic is broken; the CLI treats a violation
    /// like a ledger imbalance and fails the run.
    pub traffic_violations: usize,
    /// Mid-tour charger battery exhaustions
    /// ([`ChargerEnergyModel`](wrsn_core::ChargerEnergyModel)); 0 when
    /// the energy layer is inert.
    pub charger_exhaustions: usize,
    /// Completed depot recharges: mid-tour detours inserted by
    /// energy-aware tour splitting plus post-rescue refills. Idle
    /// trickle top-ups between rounds are counted in
    /// [`SimReport::charger_recharged_j`] but not here.
    pub depot_recharges: usize,
    /// Rescue tows dispatched for stranded chargers
    /// ([`ChargerEnergyModel::rescue`](wrsn_core::ChargerEnergyModel)).
    pub rescue_dispatches: usize,
    /// Chargers still stranded in the field at the end of the horizon
    /// (exhausted and never rescued).
    pub stranded_chargers: usize,
    /// Planned stops dropped by energy-aware splitting because even a
    /// full battery cannot cover the depot round trip plus transfer;
    /// each re-enters the pending set (and the service ledger as a
    /// deferral), never silently lost.
    pub energy_dropped_stops: usize,
    /// Fleet battery energy at simulation start, joules (`K · capacity`
    /// or the resumed residuals); 0 when the energy layer is inert.
    pub charger_initial_j: f64,
    /// Joules taken on at the depot over the horizon: recharge detours,
    /// rescue refills, and idle trickle top-ups between rounds.
    pub charger_recharged_j: f64,
    /// Battery drain from driving over the horizon, joules (includes
    /// fault-layer travel inflation).
    pub charger_travel_j: f64,
    /// Battery drain from wireless transfer over the horizon, joules —
    /// delivered energy divided by the transfer efficiency.
    pub charger_transfer_j: f64,
    /// Fleet battery energy at the end of the horizon, joules.
    pub charger_residual_j: f64,
    /// `true` when the run was cut short by a SIGINT/SIGTERM interrupt
    /// hook ([`Simulation::interrupt_on`](crate::Simulation)): the
    /// report covers only the rounds dispatched before the final
    /// checkpoint was written. Always `false` for uninterrupted runs.
    pub interrupted: bool,
}

impl SimReport {
    /// Number of charging rounds dispatched.
    pub fn rounds_dispatched(&self) -> usize {
        self.rounds.len()
    }

    /// Total dead time across all sensors, seconds.
    pub fn total_dead_time_s(&self) -> f64 {
        self.dead_time_s.iter().sum()
    }

    /// The paper's Fig. (b) metric: average dead duration per sensor over
    /// the monitoring period, seconds. Zero for an empty network.
    pub fn avg_dead_time_s(&self) -> f64 {
        if self.dead_time_s.is_empty() {
            0.0
        } else {
            self.total_dead_time_s() / self.dead_time_s.len() as f64
        }
    }

    /// Mean longest-tour delay across rounds, seconds (the paper's
    /// Fig. (a) metric when measured in steady state). Zero if no round
    /// was dispatched.
    pub fn avg_longest_delay_s(&self) -> f64 {
        if self.rounds.is_empty() {
            0.0
        } else {
            self.rounds.iter().map(|r| r.longest_delay_s).sum::<f64>()
                / self.rounds.len() as f64
        }
    }

    /// Total energy delivered to sensors over the horizon, joules.
    pub fn energy_delivered_j(&self) -> f64 {
        self.rounds.iter().map(|r| r.energy_delivered_j).sum()
    }

    /// Delivered energy relative to a *one-to-one* fleet's ceiling:
    /// `delivered / (K · η · horizon)`. Values near or above 1 mean the
    /// fleet is saturated; multi-node charging can push this **above 1**
    /// because a single charger feeds every sensor inside its disk at
    /// `η` each — that concurrency is exactly the paper's leverage.
    pub fn charger_utilization(&self, k: usize, eta_w: f64) -> f64 {
        if self.horizon_s <= 0.0 || k == 0 || eta_w <= 0.0 {
            return 0.0;
        }
        self.energy_delivered_j() / (k as f64 * eta_w * self.horizon_s)
    }

    /// Checks the service ledger: every request counted in
    /// [`RoundStats::request_count`] must be exactly one of charged,
    /// recovered, deferred, or shed. Holds for every run — faulted,
    /// lossy-channel, or saturated — breakdowns and admission control
    /// may delay service but can never lose a request.
    pub fn service_reconciles(&self) -> bool {
        self.rounds.iter().map(|r| r.request_count).sum::<usize>()
            == self.charged_sensors
                + self.recovered_sensors
                + self.deferred_sensors
                + self.shed_sensors
    }

    /// The `p`-th percentile (0–100) of the *absolute* estimator error
    /// at arrival reconciliations, joules — how far the base station's
    /// belief was from truth when an MCV actually measured. Zero when no
    /// reconciliation happened (inert telemetry or no completed
    /// sojourn). Nearest-rank on the sorted absolute errors.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn estimator_error_percentile(&self, p: f64) -> f64 {
        let mut abs: Vec<f64> = self.estimate_errors_j.iter().map(|e| e.abs()).collect();
        abs.sort_by(f64::total_cmp);
        wrsn_core::stats::percentile(&abs, p)
    }

    /// Checks the telemetry energy ledger: every joule budgeted by a
    /// planned sojourn is either delivered to the sensor or accounted
    /// as overcharge waste, `planned = reconciled + overcharge` (within
    /// floating-point tolerance). Trivially true when telemetry is
    /// inert, where all three totals stay 0.
    pub fn energy_reconciles(&self) -> bool {
        let lhs = self.planned_energy_j;
        let rhs = self.reconciled_energy_j + self.overcharge_j;
        (lhs - rhs).abs() <= 1e-6 * lhs.abs().max(rhs.abs()).max(1.0)
    }

    /// Checks the traffic ledger: every post-repair audit found the
    /// surviving sensors' aggregate data rate arriving at the base
    /// station. Trivially true when churn is inert (routing is never
    /// repaired, so no audit runs).
    pub fn traffic_conserved(&self) -> bool {
        self.traffic_violations == 0
    }

    /// Checks the charger energy ledger: every joule a charger battery
    /// ever held is accounted for,
    /// `initial + recharged = traveled + transfer + residual` (within
    /// floating-point tolerance; `transfer` already includes the
    /// `1/efficiency` conversion loss). Trivially true when the energy
    /// layer is inert, where all five totals stay 0.
    pub fn charger_energy_reconciles(&self) -> bool {
        let lhs = self.charger_initial_j + self.charger_recharged_j;
        let rhs = self.charger_travel_j + self.charger_transfer_j + self.charger_residual_j;
        (lhs - rhs).abs() <= 1e-6 * lhs.abs().max(rhs.abs()).max(1.0)
    }

    /// The first failed run-integrity audit, as a human-readable
    /// description — or `None` when every ledger reconciles. One place
    /// decides what makes a run unsound; the CLI turns `Some` into a
    /// non-zero exit for both engines.
    pub fn audit_failure(&self) -> Option<String> {
        if !self.service_reconciles() {
            let total: usize = self.rounds.iter().map(|r| r.request_count).sum();
            return Some(format!(
                "service ledger does not reconcile: {} requests vs {} charged + {} \
                 recovered + {} deferred + {} shed",
                total,
                self.charged_sensors,
                self.recovered_sensors,
                self.deferred_sensors,
                self.shed_sensors
            ));
        }
        if !self.energy_reconciles() {
            return Some(format!(
                "telemetry energy ledger does not reconcile: planned {:.3} J vs \
                 reconciled {:.3} J + overcharge {:.3} J",
                self.planned_energy_j, self.reconciled_energy_j, self.overcharge_j
            ));
        }
        if !self.traffic_conserved() {
            return Some(format!(
                "{} traffic-conservation audits failed after routing repairs",
                self.traffic_violations
            ));
        }
        if !self.charger_energy_reconciles() {
            return Some(format!(
                "charger energy ledger does not reconcile: initial {:.3} J + recharged \
                 {:.3} J vs traveled {:.3} J + transfer {:.3} J + residual {:.3} J",
                self.charger_initial_j,
                self.charger_recharged_j,
                self.charger_travel_j,
                self.charger_transfer_j,
                self.charger_residual_j
            ));
        }
        None
    }

    /// Fraction of sensors that were never dead.
    pub fn always_alive_fraction(&self) -> f64 {
        if self.dead_time_s.is_empty() {
            return 1.0;
        }
        self.dead_time_s.iter().filter(|&&d| d <= 0.0).count() as f64
            / self.dead_time_s.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(delay: f64) -> RoundStats {
        RoundStats {
            dispatch_time_s: 0.0,
            request_count: 1,
            longest_delay_s: delay,
            total_wait_s: 0.0,
            sojourn_count: 1,
            energy_delivered_j: 10.0,
        }
    }

    #[test]
    fn empty_report_defaults() {
        let r = SimReport::default();
        assert_eq!(r.rounds_dispatched(), 0);
        assert_eq!(r.avg_dead_time_s(), 0.0);
        assert_eq!(r.avg_longest_delay_s(), 0.0);
        assert_eq!(r.always_alive_fraction(), 1.0);
    }

    #[test]
    fn averages_are_means() {
        let r = SimReport {
            rounds: vec![round(100.0), round(300.0)],
            dead_time_s: vec![0.0, 60.0, 0.0],
            horizon_s: 1e6,
            ..Default::default()
        };
        assert_eq!(r.avg_longest_delay_s(), 200.0);
        assert_eq!(r.avg_dead_time_s(), 20.0);
        assert_eq!(r.total_dead_time_s(), 60.0);
        assert_eq!(r.energy_delivered_j(), 20.0);
        assert!((r.always_alive_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_reconciliation() {
        let mut r = SimReport {
            rounds: vec![round(1.0), round(1.0)], // 2 requests total
            charged_sensors: 1,
            recovered_sensors: 1,
            ..Default::default()
        };
        assert!(r.service_reconciles());
        r.deferred_sensors = 1;
        assert!(!r.service_reconciles());
    }

    #[test]
    fn ledger_reconciliation_counts_shed() {
        let r = SimReport {
            rounds: vec![round(1.0), round(1.0), round(1.0)], // 3 requests
            charged_sensors: 1,
            deferred_sensors: 1,
            shed_sensors: 1,
            lost_requests: 7,       // channel-level, outside the ledger
            duplicates_dropped: 2,  // likewise
            ..Default::default()
        };
        assert!(r.service_reconciles());
    }

    #[test]
    fn estimator_error_percentiles_use_absolute_errors() {
        let r = SimReport {
            estimate_errors_j: vec![-50.0, 10.0, -20.0, 40.0, 30.0],
            ..Default::default()
        };
        // Sorted absolute errors: 10, 20, 30, 40, 50.
        assert_eq!(r.estimator_error_percentile(0.0), 10.0);
        assert_eq!(r.estimator_error_percentile(50.0), 30.0);
        assert_eq!(r.estimator_error_percentile(100.0), 50.0);
        assert_eq!(SimReport::default().estimator_error_percentile(95.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn out_of_range_percentile_panics() {
        let _ = SimReport::default().estimator_error_percentile(101.0);
    }

    #[test]
    fn energy_ledger_reconciliation() {
        let mut r = SimReport {
            planned_energy_j: 1_000.0,
            reconciled_energy_j: 940.0,
            overcharge_j: 60.0,
            undercharge_j: 15.0, // outside the identity: energy never sent
            ..Default::default()
        };
        assert!(r.energy_reconciles());
        r.overcharge_j = 0.0;
        assert!(!r.energy_reconciles());
        // Inert telemetry: all totals zero, trivially reconciled.
        assert!(SimReport::default().energy_reconciles());
    }

    #[test]
    fn traffic_ledger_reconciliation() {
        let mut r = SimReport::default();
        assert!(r.traffic_conserved()); // inert churn: trivially true
        r.routing_repairs = 3;
        assert!(r.traffic_conserved());
        r.traffic_violations = 1;
        assert!(!r.traffic_conserved());
    }

    #[test]
    fn charger_energy_ledger_reconciliation() {
        let mut r = SimReport {
            charger_initial_j: 2_000.0,
            charger_recharged_j: 500.0,
            charger_travel_j: 800.0,
            charger_transfer_j: 1_200.0,
            charger_residual_j: 500.0,
            ..Default::default()
        };
        assert!(r.charger_energy_reconciles());
        r.charger_residual_j = 400.0;
        assert!(!r.charger_energy_reconciles());
        // Inert energy layer: all totals zero, trivially reconciled.
        assert!(SimReport::default().charger_energy_reconciles());
    }

    #[test]
    fn audit_failure_reports_the_first_broken_ledger() {
        assert_eq!(SimReport::default().audit_failure(), None);
        let r = SimReport {
            rounds: vec![round(1.0)],
            ..Default::default()
        };
        assert!(r.audit_failure().unwrap().contains("service ledger"));
        let r = SimReport { traffic_violations: 2, ..Default::default() };
        assert!(r.audit_failure().unwrap().contains("traffic-conservation"));
        let r = SimReport { charger_initial_j: 100.0, ..Default::default() };
        assert!(r.audit_failure().unwrap().contains("charger energy ledger"));
        let r = SimReport { planned_energy_j: 10.0, ..Default::default() };
        assert!(r.audit_failure().unwrap().contains("telemetry energy ledger"));
    }

    #[test]
    fn utilization_is_delivered_over_capacity() {
        let r = SimReport {
            rounds: vec![round(1.0), round(1.0)],
            dead_time_s: vec![0.0],
            horizon_s: 10.0,
            ..Default::default()
        };
        // 20 J delivered over 10 s with K=1 at 2 W: 20 / 20 = 1.0.
        assert!((r.charger_utilization(1, 2.0) - 1.0).abs() < 1e-12);
        assert_eq!(r.charger_utilization(0, 2.0), 0.0);
        assert_eq!(SimReport::default().charger_utilization(2, 2.0), 0.0);
    }
}
