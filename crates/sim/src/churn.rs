//! Topology churn: seeded sensor hardware failures with routing repair,
//! cascade (energy-hole) containment, and partition detection.
//!
//! The paper computes the routing tree — and with it every sensor's
//! consumption rate — once per run. [`ChurnModel`] drops that
//! assumption: each sensor carries an exponentially-distributed hardware
//! life ([`ChurnModel::sensor_mtbf_s`]), and when it expires the sensor
//! is *permanently* lost. The engines then excise the corpse from the
//! routing tree ([`wrsn_net::Network::repair_routing`]), re-split its
//! upstream traffic among surviving closer neighbors (or fall back to
//! direct long links), and recompute the survivors' consumption. The
//! same repair path handles *depletion* deaths: a sensor at 0 J stops
//! relaying until a charger revives it, at which point the next repair
//! folds it back into the mesh.
//!
//! Two follow-on hazards are monitored at every repair:
//!
//! - **Cascades** ([`ChurnModel::cascade_factor`]): rerouting
//!   concentrates load, and a survivor whose consumption jumps by more
//!   than the factor is the seed of an energy hole. The engines flag it
//!   ([`TraceEvent::CascadeDetected`]) and escalate its charging
//!   priority past the admission bound, so containment beats collapse.
//! - **Partitions**: a survivor left without any closer neighbor falls
//!   back to a direct long link to the base station
//!   ([`TraceEvent::SensorPartitioned`]) — reachable, but at long-link
//!   transmit cost.
//!
//! All draws come from a dedicated `ChaCha12` stream seeded with
//! [`ChurnModel::seed`], separate from every other stochastic layer —
//! so `churn seed + sim seed` fully determines a churned run, and a
//! model for which [`ChurnModel::is_active`] is `false` draws **zero**
//! random values, leaving churn-free runs bit-identical to an engine
//! without the churn layer.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

use wrsn_net::{Network, SensorId};

use crate::trace::TraceEvent;

/// Stochastic topology-churn parameters. The default is fully inert.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnModel {
    /// Mean hardware life per sensor, seconds; exponential. `0` disables
    /// the churn layer entirely (no failures, no routing repair).
    pub sensor_mtbf_s: f64,
    /// Cascade alarm threshold (`>= 1`): a repair that multiplies any
    /// survivor's consumption by more than this factor flags a cascade
    /// and escalates that sensor's charging priority.
    pub cascade_factor: f64,
    /// Seed of the dedicated churn RNG stream.
    pub seed: u64,
}

impl Default for ChurnModel {
    fn default() -> Self {
        ChurnModel { sensor_mtbf_s: 0.0, cascade_factor: 1.5, seed: 0 }
    }
}

impl ChurnModel {
    /// Returns `true` iff sensor hardware failures are enabled. Inactive
    /// models cost nothing: the engines skip the whole churn path —
    /// death detection, routing repair, cascade monitoring — and draw no
    /// random values.
    pub fn is_active(&self) -> bool {
        self.sensor_mtbf_s > 0.0
    }

    /// Checks parameter ranges; returns the offending description.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        if !self.sensor_mtbf_s.is_finite() || self.sensor_mtbf_s < 0.0 {
            return Err("sensor MTBF must be non-negative and finite");
        }
        if !self.cascade_factor.is_finite() || self.cascade_factor < 1.0 {
            return Err("cascade factor must be at least 1 and finite");
        }
        Ok(())
    }
}

/// Live churn state of one simulation run: the RNG stream, pre-drawn
/// hardware-failure times, and the last routing mask the network was
/// repaired with. Constructed only when the model is active.
#[derive(Clone, Debug)]
pub(crate) struct ChurnState {
    pub(crate) model: ChurnModel,
    pub(crate) rng: ChaCha12Rng,
    /// Absolute hardware-failure time per sensor; `INFINITY` once failed.
    pub fail_at: Vec<f64>,
    /// Sensors permanently lost to a hardware failure.
    pub failed: Vec<bool>,
    /// The alive mask the routing tree was last repaired with. This is
    /// the sufficient statistic for the repaired-routing state: replaying
    /// [`Network::repair_routing`] with it reproduces the tree
    /// bit-exactly (see the snapshot restore path).
    pub alive: Vec<bool>,
    /// Routing repairs performed.
    pub repairs: usize,
    /// Cascade alarms raised (consumption jump past the factor).
    pub cascades: usize,
    /// Survivors forced onto direct long links by a repair.
    pub partitioned: usize,
    /// Post-repair traffic-conservation audits that failed. Always 0
    /// unless the repair logic is broken; the CLI treats any violation
    /// like a ledger imbalance and fails the run.
    pub violations: usize,
}

impl ChurnState {
    /// Builds the state for `n` sensors, or `None` if the model is
    /// inactive (in which case no RNG is even seeded).
    pub fn new(model: &ChurnModel, n: usize) -> Option<ChurnState> {
        if !model.is_active() {
            return None;
        }
        let mut state = ChurnState {
            model: *model,
            rng: ChaCha12Rng::seed_from_u64(model.seed),
            fail_at: Vec::with_capacity(n),
            failed: vec![false; n],
            alive: vec![true; n],
            repairs: 0,
            cascades: 0,
            partitioned: 0,
            violations: 0,
        };
        for _ in 0..n {
            let t = state.draw_fail_time();
            state.fail_at.push(t);
        }
        Some(state)
    }

    /// Draws a fresh absolute hardware-failure time (from `t = 0`).
    fn draw_fail_time(&mut self) -> f64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -u.ln() * self.model.sensor_mtbf_s
    }

    /// Earliest pending hardware failure, `None` once every sensor has
    /// failed (or the network is empty).
    pub fn next_failure_at(&self) -> Option<f64> {
        self.fail_at
            .iter()
            .copied()
            .filter(|t| t.is_finite())
            .fold(None, |acc: Option<f64>, t| Some(acc.map_or(t, |m| m.min(t))))
    }

    /// One churn step at time `now`: retires sensors whose hardware life
    /// expired, recomputes the alive mask (hardware **and** depletion
    /// deaths; revived sensors rejoin), and — if the mask changed —
    /// repairs the routing tree, audits post-repair traffic
    /// conservation, and raises cascade/partition alarms. Cascade-flagged
    /// sensors have their deferral count forced to `max_deferrals`, so
    /// admission control escalates their next request instead of
    /// shedding it.
    ///
    /// Returns the number of new hardware failures; trace events (if
    /// `tracing`) are appended to `buf`, all stamped `now`.
    pub fn step(
        &mut self,
        net: &mut Network,
        now: f64,
        max_deferrals: u32,
        deferral_count: &mut [u32],
        tracing: bool,
        buf: &mut Vec<TraceEvent>,
    ) -> usize {
        let n = net.sensors().len();
        debug_assert_eq!(self.failed.len(), n);
        let mut new_failures = 0;
        for i in 0..n {
            if !self.failed[i] && self.fail_at[i] <= now {
                self.failed[i] = true;
                self.fail_at[i] = f64::INFINITY;
                // A failed sensor stops consuming, never requests again
                // (its in-flight request dies with it), and accrues no
                // more dead time — it is simply gone.
                let s = &mut net.sensors_mut()[i];
                s.consumption_w = 0.0;
                s.residual_j = s.capacity_j;
                new_failures += 1;
                if tracing {
                    buf.push(TraceEvent::SensorFailed { at_s: now, sensor: SensorId(i as u32) });
                }
            }
        }
        let desired: Vec<bool> =
            (0..n).map(|i| !self.failed[i] && net.sensors()[i].residual_j > 0.0).collect();
        if desired != self.alive {
            let range = net.comm_range_m();
            let before_w: Vec<f64> = net.sensors().iter().map(|s| s.consumption_w).collect();
            let was_long: Vec<bool> =
                (0..n).map(|i| net.routing().is_long_link(i, range)).collect();
            let changed = net.repair_routing(&desired);
            self.repairs += 1;
            if tracing {
                buf.push(TraceEvent::RoutingRepaired { at_s: now, changed: changed.len() });
            }
            for &i in &changed {
                let after_w = net.sensors()[i].consumption_w;
                if before_w[i] > 0.0 && after_w > before_w[i] * self.model.cascade_factor {
                    self.cascades += 1;
                    deferral_count[i] = deferral_count[i].max(max_deferrals);
                    if tracing {
                        buf.push(TraceEvent::CascadeDetected {
                            at_s: now,
                            sensor: SensorId(i as u32),
                            factor: after_w / before_w[i],
                        });
                    }
                }
                if !was_long[i] && net.routing().is_long_link(i, range) {
                    self.partitioned += 1;
                    if tracing {
                        buf.push(TraceEvent::SensorPartitioned {
                            at_s: now,
                            sensor: SensorId(i as u32),
                        });
                    }
                }
            }
            self.alive = desired;
            // Post-repair audit: surviving traffic must reach the BS.
            let surviving: f64 = net
                .sensors()
                .iter()
                .zip(&self.alive)
                .filter(|(_, &a)| a)
                .map(|(s, _)| s.data_rate_bps)
                .sum();
            let arriving = net.routing().arriving_at_bs_bps_alive(&self.alive);
            if (arriving - surviving).abs() > 1e-6 * surviving.max(1.0) {
                self.violations += 1;
            }
        }
        new_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_geom::{Point, Rect};
    use wrsn_net::{energy::RadioModel, Sensor};

    #[test]
    fn default_is_inert_and_valid() {
        let m = ChurnModel::default();
        assert!(!m.is_active());
        assert_eq!(m.validate(), Ok(()));
        assert!(ChurnState::new(&m, 10).is_none());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut m = ChurnModel::default();
        m.sensor_mtbf_s = -1.0;
        assert!(m.validate().is_err());
        let mut m = ChurnModel::default();
        m.sensor_mtbf_s = f64::NAN;
        assert!(m.validate().is_err());
        let mut m = ChurnModel::default();
        m.cascade_factor = 0.5;
        assert!(m.validate().is_err());
        let mut m = ChurnModel::default();
        m.cascade_factor = f64::NAN;
        assert!(m.validate().is_err());
    }

    #[test]
    fn fail_times_are_exponential_ish_and_deterministic() {
        let mut m = ChurnModel::default();
        m.sensor_mtbf_s = 1_000.0;
        m.seed = 42;
        let a = ChurnState::new(&m, 50).unwrap();
        let b = ChurnState::new(&m, 50).unwrap();
        assert_eq!(a.fail_at, b.fail_at);
        let mean = a.fail_at.iter().sum::<f64>() / 50.0;
        assert!(mean > 200.0 && mean < 5_000.0, "implausible mean life {mean}");
        assert!(a.fail_at.iter().all(|&t| t > 0.0));
        assert!(a.next_failure_at().unwrap() <= mean);
    }

    /// A 3-node chain: killing the relay must excise it, reroute the
    /// tail onto a long link, raise the partition alarm, and keep the
    /// surviving traffic conserved.
    #[test]
    fn step_retires_excises_and_repairs() {
        let field = Rect::square(100.0);
        let sensors = vec![
            Sensor::new(SensorId(0), Point::new(45.0, 50.0), 10_800.0, 1_000.0),
            Sensor::new(SensorId(1), Point::new(40.0, 50.0), 10_800.0, 1_000.0),
            Sensor::new(SensorId(2), Point::new(35.0, 50.0), 10_800.0, 1_000.0),
        ];
        let mut net = Network::assemble(
            field,
            field.center(),
            field.center(),
            sensors,
            RadioModel::default(),
            6.0,
        );
        let mut m = ChurnModel::default();
        m.sensor_mtbf_s = 1_000.0;
        m.cascade_factor = 1.0;
        let mut cs = ChurnState::new(&m, 3).unwrap();
        // Script the kill: only the relay nearest the BS dies.
        cs.fail_at = vec![10.0, f64::INFINITY, f64::INFINITY];
        let mut buf = Vec::new();
        let mut deferrals = vec![0u32; 3];
        let failures = cs.step(&mut net, 20.0, 4, &mut deferrals, true, &mut buf);
        assert_eq!(failures, 1);
        assert!(cs.failed[0] && !cs.failed[1]);
        assert_eq!(cs.alive, vec![false, true, true]);
        assert_eq!(cs.repairs, 1);
        assert_eq!(cs.violations, 0);
        // The freed relay slot forces node 1 onto a long link.
        assert_eq!(cs.partitioned, 1);
        assert!(net.routing().is_long_link(1, net.comm_range_m()));
        // Node 1's transmit cost jumped (5 m hop -> 10 m long link):
        // with factor 1.0 that is a cascade, and its priority escalates.
        assert!(cs.cascades >= 1);
        assert_eq!(deferrals[1], 4);
        assert!(buf.iter().any(|e| matches!(e, TraceEvent::SensorFailed { .. })));
        assert!(buf.iter().any(|e| matches!(e, TraceEvent::RoutingRepaired { .. })));
        assert!(buf.iter().any(|e| matches!(e, TraceEvent::SensorPartitioned { .. })));
        // The corpse is full, silent, and not consuming.
        assert_eq!(net.sensors()[0].consumption_w, 0.0);
        assert_eq!(net.sensors()[0].residual_j, net.sensors()[0].capacity_j);
        // Idempotent: no mask change, no second repair.
        let again = cs.step(&mut net, 30.0, 4, &mut deferrals, true, &mut buf);
        assert_eq!(again, 0);
        assert_eq!(cs.repairs, 1);
    }

    /// Depletion deaths are excised too, and a revived sensor rejoins
    /// the mesh at the next step.
    #[test]
    fn depleted_sensor_leaves_and_rejoins() {
        let field = Rect::square(100.0);
        let sensors = vec![
            Sensor::new(SensorId(0), Point::new(45.0, 50.0), 10_800.0, 1_000.0),
            Sensor::new(SensorId(1), Point::new(40.0, 50.0), 10_800.0, 1_000.0),
        ];
        let mut net = Network::assemble(
            field,
            field.center(),
            field.center(),
            sensors,
            RadioModel::default(),
            6.0,
        );
        let mut m = ChurnModel::default();
        m.sensor_mtbf_s = 1e12; // active, but nobody actually fails
        let mut cs = ChurnState::new(&m, 2).unwrap();
        let healthy_w = net.sensors()[0].consumption_w;
        let dying_w = net.sensors()[1].consumption_w;
        net.sensors_mut()[1].residual_j = 0.0;
        let mut buf = Vec::new();
        let mut deferrals = vec![0u32; 2];
        cs.step(&mut net, 100.0, 4, &mut deferrals, false, &mut buf);
        assert_eq!(cs.alive, vec![true, false]);
        // The corpse keeps its positive rate (dead time keeps accruing)...
        assert_eq!(net.sensors()[1].consumption_w, dying_w);
        // ...and the survivor stops paying the relay cost.
        assert!(net.sensors()[0].consumption_w < healthy_w);
        // Revive it: the next step folds it back in.
        net.sensors_mut()[1].residual_j = 10_800.0;
        cs.step(&mut net, 200.0, 4, &mut deferrals, false, &mut buf);
        assert_eq!(cs.alive, vec![true, true]);
        assert_eq!(cs.repairs, 2);
        assert_eq!(net.sensors()[0].consumption_w, healthy_w);
        assert_eq!(net.sensors()[1].consumption_w, dying_w);
    }
}
