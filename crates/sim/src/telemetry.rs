//! Imperfect residual-energy telemetry and the base-station estimator.
//!
//! The paper's model (§III-A) — like the engines before this layer — lets
//! the base station read every sensor's *true* residual energy at dispatch
//! time. Real deployments never have that: residual energy arrives in
//! periodic (or piggybacked) *reports* that are quantized by the sensor's
//! ADC, perturbed by measurement noise, and stale by the time a tour is
//! planned. [`TelemetryModel`] drops the omniscience assumption the same
//! way [`crate::FaultModel`] dropped perfect chargers and
//! [`crate::ChannelModel`] dropped the perfect control plane:
//!
//! - **Noise** ([`TelemetryModel::noise`]): each report is perturbed by a
//!   uniform error in `±noise · C_v` joules.
//! - **Staleness** ([`TelemetryModel::report_interval_s`]): sensors report
//!   every `report_interval_s` seconds; between reports the base station
//!   only *dead-reckons*. `0` means a fresh report at every engine touch
//!   point (continuous telemetry).
//! - **Quantization** ([`TelemetryModel::quantize_j`]): reports are rounded
//!   to the nearest multiple of this step, modelling coarse ADC readings.
//!
//! On top of the reports sits the [`EnergyEstimator`], the base station's
//! belief state. It dead-reckons each sensor's residual between reports
//! from the known consumption rate, carries a staleness-growing
//! uncertainty interval (report error bound plus a consumption-drift
//! term), and hands the planner a *guarded* pessimistic residual —
//! [`TelemetryModel::guard_margin`] half-widths below the central
//! estimate — so charge durations `t_v` are planned against the lower
//! confidence edge rather than a value that may be optimistic.
//!
//! When an MCV arrives at a sensor it measures the true residual and the
//! estimator **reconciles**: the signed estimator error is recorded
//! ([`crate::TraceEvent::TelemetryCorrected`], and
//! [`crate::TraceEvent::EstimateMiss`] if the truth fell outside the
//! carried interval), the sojourn's energy is settled against truth —
//! time planned beyond the true deficit is wasted (*overcharge*), a plan
//! shorter than the true deficit leaves the sensor short (*undercharge*)
//! — and the belief snaps to the exact post-charge residual.
//!
//! All draws come from a dedicated `ChaCha12` stream seeded with
//! [`TelemetryModel::seed`], independent of the fault, channel, and
//! sensor-failure streams; an inactive model
//! ([`TelemetryModel::is_active`] is `false`) constructs no estimator and
//! draws **zero** random values, leaving default runs bit-identical to an
//! engine planning from ground truth.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

use wrsn_net::{Network, Sensor, SensorId};

use crate::TraceEvent;

/// Telemetry disturbance parameters. The default is fully inert.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetryModel {
    /// Relative report-noise amplitude: each report is perturbed by a
    /// uniform error in `±noise · capacity` joules. In `[0, 1)`; `0`
    /// disables noise.
    pub noise: f64,
    /// Seconds between a sensor's residual-energy reports. `0` means a
    /// fresh report at every engine touch point (continuous telemetry,
    /// no staleness).
    pub report_interval_s: f64,
    /// Quantization step of reported residuals, joules (round to the
    /// nearest multiple). `0` disables quantization.
    pub quantize_j: f64,
    /// Planner guard margin in multiples of the estimator's uncertainty
    /// half-width: charge durations are planned from
    /// `estimate − guard_margin · half_width` (clamped at 0) instead of
    /// the central estimate. `0` plans from the central estimate; `1`
    /// from the lower confidence edge. Must be non-negative and finite.
    pub guard_margin: f64,
    /// Relative uncertainty of the dead-reckoning consumption rate: the
    /// interval half-width grows by
    /// `consumption_uncertainty · consumption_w` joules per second of
    /// staleness. In `[0, 1]`. Part of the estimator model rather than a
    /// CLI knob; the default (5 %) keeps intervals honest without
    /// swamping the report error bound.
    pub consumption_uncertainty: f64,
    /// Seed of the dedicated telemetry RNG stream.
    pub seed: u64,
}

impl Default for TelemetryModel {
    fn default() -> Self {
        TelemetryModel {
            noise: 0.0,
            report_interval_s: 0.0,
            quantize_j: 0.0,
            guard_margin: 1.0,
            consumption_uncertainty: 0.05,
            seed: 0,
        }
    }
}

impl TelemetryModel {
    /// Returns `true` iff any disturbance channel is enabled. Inactive
    /// models cost nothing: the engines plan from ground truth exactly
    /// as the paper assumes, and no estimator is constructed.
    pub fn is_active(&self) -> bool {
        self.noise > 0.0 || self.report_interval_s > 0.0 || self.quantize_j > 0.0
    }

    /// Checks parameter ranges; returns the offending description.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        if !(0.0..1.0).contains(&self.noise) {
            return Err("telemetry noise must be in [0, 1)");
        }
        if !self.report_interval_s.is_finite() || self.report_interval_s < 0.0 {
            return Err("telemetry report interval must be non-negative and finite");
        }
        if !self.quantize_j.is_finite() || self.quantize_j < 0.0 {
            return Err("telemetry quantization step must be non-negative and finite");
        }
        if !self.guard_margin.is_finite() || self.guard_margin < 0.0 {
            return Err("guard margin must be non-negative and finite");
        }
        if !(0.0..=1.0).contains(&self.consumption_uncertainty) {
            return Err("consumption uncertainty must be in [0, 1]");
        }
        Ok(())
    }
}

/// The base station's belief about every sensor's residual energy, built
/// from imperfect telemetry reports. Constructed only when the model is
/// active; the engines fall back to ground truth otherwise.
///
/// The estimator is deliberately simple — last report plus dead
/// reckoning at the known consumption rate — because that is exactly
/// what a base station with the paper's information model *can* compute;
/// the interesting behavior is in the uncertainty interval and the
/// guard margin, not the filter.
#[derive(Clone, Debug)]
pub struct EnergyEstimator {
    pub(crate) model: TelemetryModel,
    pub(crate) rng: ChaCha12Rng,
    /// Last reported (or reconciled) residual per sensor, joules.
    pub(crate) reported_j: Vec<f64>,
    /// Timestamp of that report, seconds.
    pub(crate) report_at_s: Vec<f64>,
    /// Next scheduled periodic report per sensor (`INFINITY` when the
    /// model reports continuously).
    pub(crate) next_report_s: Vec<f64>,
    /// Sensor's death has already been flagged as undetected.
    pub(crate) death_flagged: Vec<bool>,
    /// Reports processed over the run.
    pub(crate) reports: usize,
    /// Reconciliations where the truth fell outside the carried interval.
    pub(crate) estimate_misses: usize,
    /// Deaths that occurred while the estimator still believed the
    /// sensor alive.
    pub(crate) undetected_deaths: usize,
    /// Signed estimator error (`estimate − truth`, joules) at every
    /// arrival reconciliation, in reconciliation order.
    pub(crate) errors_j: Vec<f64>,
    /// Total energy budgeted by planned sojourn durations, joules.
    pub(crate) planned_energy_j: f64,
    /// Total energy actually delivered at reconciliation, joules.
    pub(crate) delivered_energy_j: f64,
    /// Charger time-energy wasted on sojourns planned longer than the
    /// true deficit required, joules.
    pub(crate) overcharge_j: f64,
    /// Energy shortfall of sojourns planned shorter than the true
    /// deficit, joules (the sensor leaves the round below target).
    pub(crate) undercharge_j: f64,
}

impl EnergyEstimator {
    /// Builds the estimator over `net`'s sensors, or `None` if the model
    /// is inactive (in which case no RNG is even seeded). Deployment-time
    /// residuals are known exactly, so the initial belief is the truth
    /// at time 0.
    pub fn new(model: &TelemetryModel, net: &Network) -> Option<EnergyEstimator> {
        if !model.is_active() {
            return None;
        }
        let n = net.sensors().len();
        let first_report = if model.report_interval_s > 0.0 {
            model.report_interval_s
        } else {
            f64::INFINITY
        };
        Some(EnergyEstimator {
            model: *model,
            rng: ChaCha12Rng::seed_from_u64(model.seed),
            reported_j: net.sensors().iter().map(|s| s.residual_j).collect(),
            report_at_s: vec![0.0; n],
            next_report_s: vec![first_report; n],
            death_flagged: vec![false; n],
            reports: 0,
            estimate_misses: 0,
            undetected_deaths: 0,
            errors_j: Vec::new(),
            planned_energy_j: 0.0,
            delivered_energy_j: 0.0,
            overcharge_j: 0.0,
            undercharge_j: 0.0,
        })
    }

    /// The model this estimator was built from.
    pub fn model(&self) -> &TelemetryModel {
        &self.model
    }

    /// Advances telemetry to time `now`: flags deaths the belief has not
    /// caught up with, then processes every due report (in ascending
    /// sensor order, so the draw sequence is deterministic). Reports due
    /// while a round was in flight are delivered here, at the next
    /// engine touch point — the control plane piggybacks on round
    /// boundaries. Events are appended to `buf` when `tracing`.
    pub fn advance(&mut self, net: &Network, now: f64, tracing: bool, buf: &mut Vec<TraceEvent>) {
        for (i, s) in net.sensors().iter().enumerate() {
            // Undetected death: the sensor is truly flat but the belief
            // (checked before any fresh report lands) still says alive.
            if s.consumption_w > 0.0 && s.residual_j <= 0.0 {
                if !self.death_flagged[i] {
                    let est = self.estimate(s, now);
                    if est > 0.0 {
                        self.undetected_deaths += 1;
                        self.death_flagged[i] = true;
                        if tracing {
                            buf.push(TraceEvent::SensorDiedUndetected {
                                at_s: now,
                                sensor: s.id,
                                error_j: est,
                            });
                        }
                    }
                }
            } else {
                self.death_flagged[i] = false;
            }
            let due = self.model.report_interval_s == 0.0 || self.next_report_s[i] <= now;
            if !due {
                continue;
            }
            let mut r = s.residual_j;
            if self.model.noise > 0.0 {
                let amp = self.model.noise * s.capacity_j;
                r += self.rng.gen_range(-amp..amp);
            }
            if self.model.quantize_j > 0.0 {
                r = (r / self.model.quantize_j).round() * self.model.quantize_j;
            }
            self.reported_j[i] = r.clamp(0.0, s.capacity_j);
            self.report_at_s[i] = now;
            self.reports += 1;
            if self.model.report_interval_s > 0.0 {
                self.next_report_s[i] = now + self.model.report_interval_s;
            }
        }
    }

    /// The central dead-reckoned residual estimate for `s` at `now`,
    /// joules: last report minus the known drain since, clamped to
    /// `[0, capacity]`.
    pub fn estimate(&self, s: &Sensor, now: f64) -> f64 {
        let i = s.id.index();
        let staleness = (now - self.report_at_s[i]).max(0.0);
        let drained = if s.consumption_w > 0.0 { s.consumption_w * staleness } else { 0.0 };
        (self.reported_j[i] - drained).clamp(0.0, s.capacity_j)
    }

    /// The interval half-width at `now`: the report error bound
    /// (noise amplitude plus half a quantization step) plus the
    /// consumption-drift term, which grows with staleness.
    pub fn half_width(&self, s: &Sensor, now: f64) -> f64 {
        let staleness = (now - self.report_at_s[s.id.index()]).max(0.0);
        self.model.noise * s.capacity_j
            + 0.5 * self.model.quantize_j
            + self.model.consumption_uncertainty * s.consumption_w.max(0.0) * staleness
    }

    /// The uncertainty interval `[lo, hi]` around the estimate at `now`,
    /// clamped to `[0, capacity]`. Contains the true residual for any
    /// seeded noise and staleness (the report error is bounded by the
    /// noise amplitude plus half a quantization step, and the sim's
    /// consumption rates are exact, so drift only widens the interval).
    pub fn interval(&self, s: &Sensor, now: f64) -> (f64, f64) {
        let est = self.estimate(s, now);
        let hw = self.half_width(s, now);
        ((est - hw).max(0.0), (est + hw).min(s.capacity_j))
    }

    /// The pessimistic planning residual: `guard_margin` half-widths
    /// below the central estimate, clamped at 0. Charge durations
    /// planned from this value err toward overcharging (wasted charger
    /// time) instead of leaving sensors short.
    pub fn guarded(&self, s: &Sensor, now: f64) -> f64 {
        (self.estimate(s, now) - self.model.guard_margin * self.half_width(s, now)).max(0.0)
    }

    /// Guarded planning residuals for the whole network at `now`,
    /// indexed by sensor.
    pub fn planning_residuals(&self, net: &Network, now: f64) -> Vec<f64> {
        net.sensors().iter().map(|s| self.guarded(s, now)).collect()
    }

    /// Arrival reconciliation: the MCV measures `truth_j` on site, the
    /// estimator error is recorded (and an [`TraceEvent::EstimateMiss`]
    /// if the truth escaped the carried interval), the sojourn's energy
    /// is settled against the true deficit (over/undercharge
    /// accounting), and the belief snaps to the exact post-charge
    /// residual. Returns the energy actually delivered, joules —
    /// `min(planned_j, target_j − truth_j)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reconcile(
        &mut self,
        id: SensorId,
        capacity_j: f64,
        consumption_w: f64,
        truth_j: f64,
        planned_j: f64,
        target_j: f64,
        now: f64,
        tracing: bool,
        buf: &mut Vec<TraceEvent>,
    ) -> f64 {
        let i = id.index();
        let staleness = (now - self.report_at_s[i]).max(0.0);
        let drained = if consumption_w > 0.0 { consumption_w * staleness } else { 0.0 };
        let est = (self.reported_j[i] - drained).clamp(0.0, capacity_j);
        let hw = self.model.noise * capacity_j
            + 0.5 * self.model.quantize_j
            + self.model.consumption_uncertainty * consumption_w.max(0.0) * staleness;
        let err = est - truth_j;
        self.errors_j.push(err);
        if tracing {
            buf.push(TraceEvent::TelemetryCorrected { at_s: now, sensor: id, error_j: err });
        }
        let lo = (est - hw).max(0.0);
        let hi = (est + hw).min(capacity_j);
        if truth_j < lo - 1e-9 || truth_j > hi + 1e-9 {
            self.estimate_misses += 1;
            if tracing {
                buf.push(TraceEvent::EstimateMiss { at_s: now, sensor: id, error_j: err });
            }
        }
        let need = (target_j - truth_j).max(0.0);
        let delivered = planned_j.min(need);
        self.planned_energy_j += planned_j;
        self.delivered_energy_j += delivered;
        self.overcharge_j += (planned_j - need).max(0.0);
        self.undercharge_j += (need - planned_j).max(0.0);
        // The MCV's on-site measurement is an exact, fresh report.
        self.reported_j[i] = (truth_j + delivered).min(capacity_j);
        self.report_at_s[i] = now;
        self.death_flagged[i] = false;
        if self.model.report_interval_s > 0.0 {
            self.next_report_s[i] = now + self.model.report_interval_s;
        }
        delivered
    }

    /// The earliest future scheduled report after `now`; `INFINITY` when
    /// the model reports continuously (every engine touch point already
    /// refreshes).
    pub fn next_event_s(&self, now: f64) -> f64 {
        self.next_report_s
            .iter()
            .copied()
            .filter(|&a| a > now)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_geom::{Point, Rect};
    use wrsn_net::energy::RadioModel;

    fn net_with_charges(fracs: &[f64]) -> Network {
        let field = Rect::square(100.0);
        let bs = field.center();
        let sensors: Vec<Sensor> = fracs
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let mut s = Sensor::new(
                    SensorId(i as u32),
                    Point::new(40.0 + i as f64, 50.0),
                    10_800.0,
                    1_000.0,
                );
                s.residual_j = f * 10_800.0;
                s
            })
            .collect();
        let mut net = Network::assemble(field, bs, bs, sensors, RadioModel::default(), 6.0);
        // Pin a known rate AFTER assembly (assemble derives rates from
        // the routing tree) so death times are predictable below.
        for s in net.sensors_mut() {
            s.consumption_w = 0.02;
        }
        net
    }

    fn noisy(noise: f64) -> TelemetryModel {
        TelemetryModel { noise, report_interval_s: 600.0, seed: 42, ..Default::default() }
    }

    #[test]
    fn default_is_inert_and_valid() {
        let m = TelemetryModel::default();
        assert!(!m.is_active());
        assert_eq!(m.validate(), Ok(()));
        assert!(EnergyEstimator::new(&m, &net_with_charges(&[0.5])).is_none());
    }

    #[test]
    fn any_channel_activates() {
        assert!(noisy(0.05).is_active());
        let m = TelemetryModel { report_interval_s: 60.0, ..Default::default() };
        assert!(m.is_active());
        let m = TelemetryModel { quantize_j: 10.0, ..Default::default() };
        assert!(m.is_active());
    }

    #[test]
    fn validate_rejects_out_of_range_per_field() {
        let cases: &[TelemetryModel] = &[
            TelemetryModel { noise: 1.0, ..Default::default() },
            TelemetryModel { noise: -0.1, ..Default::default() },
            TelemetryModel { noise: f64::NAN, ..Default::default() },
            TelemetryModel { report_interval_s: -1.0, ..Default::default() },
            TelemetryModel { report_interval_s: f64::INFINITY, ..Default::default() },
            TelemetryModel { report_interval_s: f64::NAN, ..Default::default() },
            TelemetryModel { quantize_j: -1.0, ..Default::default() },
            TelemetryModel { quantize_j: f64::NAN, ..Default::default() },
            TelemetryModel { guard_margin: -0.5, ..Default::default() },
            TelemetryModel { guard_margin: f64::NAN, ..Default::default() },
            TelemetryModel { guard_margin: f64::INFINITY, ..Default::default() },
            TelemetryModel { consumption_uncertainty: -0.1, ..Default::default() },
            TelemetryModel { consumption_uncertainty: 1.5, ..Default::default() },
            TelemetryModel { consumption_uncertainty: f64::NAN, ..Default::default() },
        ];
        for m in cases {
            assert!(m.validate().is_err(), "{m:?} must be rejected");
        }
    }

    #[test]
    fn noiseless_estimator_dead_reckons_exactly() {
        let mut net = net_with_charges(&[0.5, 0.3]);
        let m = TelemetryModel { report_interval_s: 600.0, seed: 7, ..Default::default() };
        let mut est = EnergyEstimator::new(&m, &net).unwrap();
        let mut buf = Vec::new();
        // Initial belief is exact, and with a 400 s step against a 600 s
        // report interval every query is either a fresh report or exactly
        // one drain step past the last one — so dead reckoning performs
        // the same single multiply-subtract as the truth (0 ULP).
        for step in 1..=5 {
            let now = step as f64 * 400.0;
            net.drain_all(400.0);
            est.advance(&net, now, false, &mut buf);
            for s in net.sensors() {
                assert_eq!(est.estimate(s, now).to_bits(), s.residual_j.to_bits());
            }
        }
        assert!(est.reports > 0);
    }

    #[test]
    fn interval_contains_truth_under_noise() {
        let mut net = net_with_charges(&[0.5, 0.15, 0.9]);
        let m = TelemetryModel {
            noise: 0.1,
            quantize_j: 25.0,
            report_interval_s: 300.0,
            seed: 3,
            ..Default::default()
        };
        let mut est = EnergyEstimator::new(&m, &net).unwrap();
        let mut buf = Vec::new();
        let mut now = 0.0;
        for _ in 0..50 {
            now += 137.0;
            net.drain_all(137.0);
            est.advance(&net, now, false, &mut buf);
            for s in net.sensors() {
                let (lo, hi) = est.interval(s, now);
                assert!(
                    lo - 1e-9 <= s.residual_j && s.residual_j <= hi + 1e-9,
                    "truth {} outside [{lo}, {hi}]",
                    s.residual_j
                );
            }
        }
        assert!(est.reports > 0);
    }

    #[test]
    fn guard_margin_is_pessimistic() {
        let net = net_with_charges(&[0.5]);
        let m = TelemetryModel { noise: 0.05, report_interval_s: 600.0, ..Default::default() };
        let est = EnergyEstimator::new(&m, &net).unwrap();
        let s = &net.sensors()[0];
        assert!(est.guarded(s, 100.0) < est.estimate(s, 100.0));
        assert!(est.guarded(s, 100.0) >= 0.0);
        // More staleness, wider interval, lower guarded residual.
        assert!(est.guarded(s, 500.0) < est.guarded(s, 100.0));
    }

    #[test]
    fn reconcile_settles_over_and_undercharge() {
        let net = net_with_charges(&[0.2]);
        let m = noisy(0.05);
        let mut est = EnergyEstimator::new(&m, &net).unwrap();
        let mut buf = Vec::new();
        let s = &net.sensors()[0];
        let target_j = s.capacity_j;
        let truth = s.residual_j;
        // Plan exceeded the true deficit: overcharge, full delivery.
        let need = target_j - truth;
        let delivered = est.reconcile(
            s.id, s.capacity_j, s.consumption_w, truth, need + 500.0, target_j, 10.0, true,
            &mut buf,
        );
        assert!((delivered - need).abs() < 1e-9);
        assert!((est.overcharge_j - 500.0).abs() < 1e-9);
        assert_eq!(est.undercharge_j, 0.0);
        // Plan fell short: undercharge, partial delivery.
        let delivered = est.reconcile(
            s.id, s.capacity_j, s.consumption_w, truth, need - 300.0, target_j, 20.0, true,
            &mut buf,
        );
        assert!((delivered - (need - 300.0)).abs() < 1e-9);
        assert!((est.undercharge_j - 300.0).abs() < 1e-9);
        assert!(buf.iter().any(|e| matches!(e, TraceEvent::TelemetryCorrected { .. })));
        assert!(
            (est.planned_energy_j - (est.delivered_energy_j + est.overcharge_j)).abs() < 1e-6
        );
        // Belief snapped to the exact post-charge residual.
        assert_eq!(est.reported_j[0], (truth + delivered).min(s.capacity_j));
    }

    #[test]
    fn undetected_death_is_flagged_once() {
        let mut net = net_with_charges(&[0.01]);
        let m = TelemetryModel { report_interval_s: 1.0e6, seed: 1, ..Default::default() };
        let mut est = EnergyEstimator::new(&m, &net).unwrap();
        let mut buf = Vec::new();
        // Drain far past death; the stale belief still says alive at a
        // time before the dead-reckoned depletion instant.
        net.drain_all(1.0e5);
        assert!(net.sensors()[0].is_dead());
        est.advance(&net, 100.0, true, &mut buf);
        assert_eq!(est.undetected_deaths, 1);
        est.advance(&net, 200.0, true, &mut buf);
        assert_eq!(est.undetected_deaths, 1, "flagged once per death");
        assert_eq!(
            buf.iter()
                .filter(|e| matches!(e, TraceEvent::SensorDiedUndetected { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let run = || {
            let mut net = net_with_charges(&[0.5, 0.3, 0.8]);
            let mut est = EnergyEstimator::new(&noisy(0.1), &net).unwrap();
            let mut buf = Vec::new();
            let mut now = 0.0;
            for _ in 0..10 {
                now += 600.0;
                net.drain_all(600.0);
                est.advance(&net, now, false, &mut buf);
            }
            (est.reports, est.reported_j.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn next_event_tracks_report_schedule() {
        let net = net_with_charges(&[0.5]);
        let m = TelemetryModel { report_interval_s: 600.0, seed: 1, ..Default::default() };
        let mut est = EnergyEstimator::new(&m, &net).unwrap();
        assert_eq!(est.next_event_s(0.0), 600.0);
        let mut buf = Vec::new();
        est.advance(&net, 600.0, false, &mut buf);
        assert_eq!(est.next_event_s(600.0), 1_200.0);
        // Continuous telemetry needs no wake-ups of its own.
        let m0 = TelemetryModel { noise: 0.05, ..Default::default() };
        let est0 = EnergyEstimator::new(&m0, &net).unwrap();
        assert_eq!(est0.next_event_s(0.0), f64::INFINITY);
    }

    #[test]
    fn zero_interval_reports_on_every_advance() {
        let net = net_with_charges(&[0.5, 0.2]);
        let m = TelemetryModel { noise: 0.02, seed: 9, ..Default::default() };
        let mut est = EnergyEstimator::new(&m, &net).unwrap();
        let mut buf = Vec::new();
        est.advance(&net, 0.0, false, &mut buf);
        est.advance(&net, 1.0, false, &mut buf);
        assert_eq!(est.reports, 4);
    }
}
