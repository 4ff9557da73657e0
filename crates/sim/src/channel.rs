//! The unreliable request channel between sensors and the base station.
//!
//! The paper's on-demand model (§III-A) assumes a perfect control
//! plane: the instant a sensor drops below the request threshold, the
//! base station knows. [`ChannelModel`] drops that assumption the same
//! way [`crate::FaultModel`] dropped perfect chargers. Three seeded,
//! independent disturbance channels can be enabled per run:
//!
//! - **Loss** ([`ChannelModel::loss_prob`]): each transmitted request is
//!   dropped with this probability. The sensor never learns of the loss
//!   directly — it retries with exponential backoff
//!   ([`ChannelModel::retry_backoff_s`] doubling per attempt), capped by
//!   its residual-energy deadline so a nearly-dead sensor retries before
//!   it dies rather than after.
//! - **Delay** ([`ChannelModel::delay_max_s`]): a request that survives
//!   loss is delivered after a uniform delay in `[0, delay_max_s]`,
//!   modelling multi-hop forwarding and duty cycling.
//! - **Duplication** ([`ChannelModel::duplicate_prob`]): with this
//!   probability a second copy of the request arrives after its own
//!   independent delay. Duplicates arriving after the original are
//!   dropped at the base station and counted
//!   ([`crate::SimReport::duplicates_dropped`]) — they never double-count
//!   in the service ledger.
//!
//! A delivered request is implicitly acknowledged (the base station's
//! downlink is assumed reliable, as in the deadline-driven on-demand
//! literature), so retries stop on delivery. All draws come from a
//! dedicated `ChaCha12` stream seeded with [`ChannelModel::seed`],
//! independent of the fault and sensor-failure streams; a model for
//! which [`ChannelModel::is_active`] is `false` draws **zero** random
//! values, leaving default runs bit-identical to an engine without the
//! channel layer.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

use wrsn_net::{Network, SensorId};

use crate::TraceEvent;

/// Stochastic request-channel parameters. The default is fully inert.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelModel {
    /// Per-message loss probability, in `[0, 1)`. `0` disables loss.
    pub loss_prob: f64,
    /// Upper end of the uniform delivery delay, seconds. `0` delivers
    /// instantly.
    pub delay_max_s: f64,
    /// Per-message duplication probability, in `[0, 1]`. `0` disables
    /// duplication.
    pub duplicate_prob: f64,
    /// Base retry backoff, seconds; attempt `i` retries after
    /// `retry_backoff_s · 2^(i−1)`, capped by the sensor's residual
    /// lifetime. Must be strictly positive.
    pub retry_backoff_s: f64,
    /// Seed of the dedicated channel RNG stream.
    pub seed: u64,
}

impl Default for ChannelModel {
    fn default() -> Self {
        ChannelModel {
            loss_prob: 0.0,
            delay_max_s: 0.0,
            duplicate_prob: 0.0,
            retry_backoff_s: 600.0,
            seed: 0,
        }
    }
}

impl ChannelModel {
    /// Returns `true` iff any disturbance channel is enabled. Inactive
    /// models cost nothing: the engines skip the channel path entirely
    /// and requests behave as in the paper (instant, lossless).
    pub fn is_active(&self) -> bool {
        self.loss_prob > 0.0 || self.delay_max_s > 0.0 || self.duplicate_prob > 0.0
    }

    /// Checks parameter ranges; returns the offending description.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        if !(0.0..1.0).contains(&self.loss_prob) {
            return Err("request loss probability must be in [0, 1)");
        }
        if !self.delay_max_s.is_finite() || self.delay_max_s < 0.0 {
            return Err("request delay must be non-negative and finite");
        }
        if !(0.0..=1.0).contains(&self.duplicate_prob) {
            return Err("request duplication probability must be in [0, 1]");
        }
        if !self.retry_backoff_s.is_finite() || self.retry_backoff_s <= 0.0 {
            return Err("retry backoff must be positive and finite");
        }
        Ok(())
    }
}

/// One request copy in flight toward the base station.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct InFlight {
    /// Absolute delivery time, seconds.
    pub deliver_at_s: f64,
    /// Index of the requesting sensor.
    pub sensor: u32,
}

/// Live channel state of one simulation run: the RNG stream plus
/// per-sensor request/retry bookkeeping and the in-flight message queue.
/// Constructed only when the model is active.
#[derive(Clone, Debug)]
pub(crate) struct ChannelState {
    pub(crate) model: ChannelModel,
    pub rng: ChaCha12Rng,
    /// Sensor is below the request threshold and wants charging.
    pub wants: Vec<bool>,
    /// Sensor's request has reached the base station.
    pub delivered: Vec<bool>,
    /// Transmission attempts for the current request episode.
    pub attempts: Vec<u32>,
    /// Absolute time of the next transmission attempt (`INFINITY` when
    /// none is scheduled — delivered, or not requesting).
    pub next_attempt_s: Vec<f64>,
    /// In-flight request copies, sorted by delivery time.
    pub inflight: Vec<InFlight>,
    /// Requests dropped by the lossy channel over the run.
    pub lost_requests: usize,
    /// Duplicate arrivals discarded at the base station.
    pub duplicates_dropped: usize,
}

impl ChannelState {
    /// Builds the state for `n` sensors, or `None` if the model is
    /// inactive (in which case no RNG is even seeded).
    pub fn new(model: &ChannelModel, n: usize) -> Option<ChannelState> {
        if !model.is_active() {
            return None;
        }
        Some(ChannelState {
            model: *model,
            rng: ChaCha12Rng::seed_from_u64(model.seed),
            wants: vec![false; n],
            delivered: vec![false; n],
            attempts: vec![0; n],
            next_attempt_s: vec![f64::INFINITY; n],
            inflight: Vec::new(),
            lost_requests: 0,
            duplicates_dropped: 0,
        })
    }

    /// Advances the channel to time `now`: picks up threshold crossings,
    /// delivers due in-flight copies, and performs due transmission
    /// attempts (in ascending sensor order, so the draw sequence is
    /// deterministic). Events are appended to `buf` when `tracing`.
    pub fn advance(
        &mut self,
        net: &Network,
        request_fraction: f64,
        now: f64,
        tracing: bool,
        buf: &mut Vec<TraceEvent>,
    ) {
        // 1. Threshold transitions: a sensor entering the request band
        //    starts an episode; one recharged above it forgets the
        //    episode (its delivered request is consumed or stale).
        for (i, s) in net.sensors().iter().enumerate() {
            let below = s.residual_j < request_fraction * s.capacity_j && s.consumption_w > 0.0;
            if below && !self.wants[i] {
                self.wants[i] = true;
                self.delivered[i] = false;
                self.attempts[i] = 0;
                self.next_attempt_s[i] = now;
            } else if !below && self.wants[i] {
                self.wants[i] = false;
                self.delivered[i] = false;
                self.attempts[i] = 0;
                self.next_attempt_s[i] = f64::INFINITY;
                self.inflight.retain(|m| m.sensor as usize != i);
            }
        }
        // 2. Due deliveries.
        while let Some(&m) = self.inflight.first() {
            if m.deliver_at_s > now + 1e-9 {
                break;
            }
            self.inflight.remove(0);
            let i = m.sensor as usize;
            if self.wants[i] {
                if self.delivered[i] {
                    self.duplicates_dropped += 1;
                    if tracing {
                        buf.push(TraceEvent::DuplicateDropped {
                            at_s: now,
                            sensor: SensorId(m.sensor),
                        });
                    }
                } else {
                    self.delivered[i] = true;
                }
            }
            // Stale copy for a no-longer-requesting sensor: ignored.
        }
        // 3. Due transmission attempts.
        for i in 0..self.wants.len() {
            if !self.wants[i] || self.delivered[i] || self.next_attempt_s[i] > now {
                continue;
            }
            self.attempts[i] += 1;
            let lost = self.model.loss_prob > 0.0 && self.rng.gen_bool(self.model.loss_prob);
            if lost {
                self.lost_requests += 1;
                if tracing {
                    buf.push(TraceEvent::RequestLost {
                        at_s: now,
                        sensor: SensorId(i as u32),
                        attempt: self.attempts[i],
                    });
                }
                // Exponential backoff, capped by the residual-energy
                // deadline: a sensor about to die retries before death.
                let exp = self.attempts[i].saturating_sub(1).min(20);
                let backoff = self.model.retry_backoff_s * f64::from(1u32 << exp);
                let deadline =
                    net.sensors()[i].residual_lifetime_s().max(self.model.retry_backoff_s);
                self.next_attempt_s[i] = now + backoff.min(deadline);
            } else {
                let delay = self.draw_delay();
                self.push_inflight(InFlight { deliver_at_s: now + delay, sensor: i as u32 });
                if self.model.duplicate_prob > 0.0
                    && self.rng.gen_bool(self.model.duplicate_prob)
                {
                    let dup_delay = self.draw_delay();
                    self.push_inflight(InFlight {
                        deliver_at_s: now + dup_delay,
                        sensor: i as u32,
                    });
                }
                // Delivery doubles as the acknowledgement: stop retrying.
                self.next_attempt_s[i] = f64::INFINITY;
            }
        }
        // 4. Instant deliveries (zero-delay models) land in the same
        //    advance call, so a lossless zero-delay channel behaves like
        //    no channel at all.
        while let Some(&m) = self.inflight.first() {
            if m.deliver_at_s > now + 1e-9 {
                break;
            }
            self.inflight.remove(0);
            let i = m.sensor as usize;
            if self.wants[i] {
                if self.delivered[i] {
                    self.duplicates_dropped += 1;
                    if tracing {
                        buf.push(TraceEvent::DuplicateDropped {
                            at_s: now,
                            sensor: SensorId(m.sensor),
                        });
                    }
                } else {
                    self.delivered[i] = true;
                }
            }
        }
    }

    fn draw_delay(&mut self) -> f64 {
        if self.model.delay_max_s > 0.0 {
            self.rng.gen_range(0.0..self.model.delay_max_s)
        } else {
            0.0
        }
    }

    /// Inserts a message keeping the queue sorted by delivery time.
    fn push_inflight(&mut self, m: InFlight) {
        let at = self
            .inflight
            .partition_point(|x| x.deliver_at_s <= m.deliver_at_s);
        self.inflight.insert(at, m);
    }

    /// Ids of sensors whose requests the base station currently knows
    /// about and that are still below the threshold — the channel-aware
    /// replacement for [`Network::requesting_sensors`].
    pub fn pending(&self, net: &Network, request_fraction: f64) -> Vec<SensorId> {
        net.sensors()
            .iter()
            .filter(|s| {
                let i = s.id.index();
                self.delivered[i]
                    && self.wants[i]
                    && s.residual_j < request_fraction * s.capacity_j
            })
            .map(|s| s.id)
            .collect()
    }

    /// The earliest future channel event after `now` (delivery or retry);
    /// `INFINITY` when nothing is scheduled.
    pub fn next_event_s(&self, now: f64) -> f64 {
        let delivery = self
            .inflight
            .first()
            .map_or(f64::INFINITY, |m| m.deliver_at_s);
        let retry = self
            .next_attempt_s
            .iter()
            .copied()
            .filter(|&a| a > now)
            .fold(f64::INFINITY, f64::min);
        delivery.max(now + 1e-9).min(retry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_geom::{Point, Rect};
    use wrsn_net::energy::RadioModel;
    use wrsn_net::Sensor;

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
        Network::assemble(field, bs, bs, sensors, RadioModel::default(), 6.0)
    }

    fn lossy(loss: f64) -> ChannelModel {
        let mut m = ChannelModel::default();
        m.loss_prob = loss;
        m.seed = 42;
        m
    }

    #[test]
    fn default_is_inert_and_valid() {
        let m = ChannelModel::default();
        assert!(!m.is_active());
        assert_eq!(m.validate(), Ok(()));
        assert!(ChannelState::new(&m, 5).is_none());
    }

    #[test]
    fn any_channel_activates() {
        assert!(lossy(0.1).is_active());
        let mut m = ChannelModel::default();
        m.delay_max_s = 60.0;
        assert!(m.is_active());
        let mut m = ChannelModel::default();
        m.duplicate_prob = 0.2;
        assert!(m.is_active());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut m = ChannelModel::default();
        m.loss_prob = 1.0;
        assert!(m.validate().is_err());
        let mut m = ChannelModel::default();
        m.delay_max_s = -1.0;
        assert!(m.validate().is_err());
        let mut m = ChannelModel::default();
        m.duplicate_prob = 1.5;
        assert!(m.validate().is_err());
        let mut m = ChannelModel::default();
        m.retry_backoff_s = 0.0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn lossless_zero_delay_delivers_immediately() {
        let net = net_with_charges(&[0.1, 0.5, 0.15]);
        let mut m = ChannelModel::default();
        m.duplicate_prob = 1e-12; // active but effectively clean
        m.seed = 1;
        let mut ch = ChannelState::new(&m, 3).unwrap();
        let mut buf = Vec::new();
        ch.advance(&net, 0.2, 0.0, false, &mut buf);
        let pending = ch.pending(&net, 0.2);
        assert_eq!(pending, vec![SensorId(0), SensorId(2)]);
        assert_eq!(ch.lost_requests, 0);
    }

    #[test]
    fn total_loss_never_delivers_but_keeps_retrying() {
        let net = net_with_charges(&[0.05]);
        let mut m = lossy(0.999_999);
        m.retry_backoff_s = 100.0;
        let mut ch = ChannelState::new(&m, 1).unwrap();
        let mut buf = Vec::new();
        let mut t = 0.0;
        for _ in 0..5 {
            ch.advance(&net, 0.2, t, true, &mut buf);
            assert!(ch.pending(&net, 0.2).is_empty());
            let next = ch.next_event_s(t);
            assert!(next.is_finite(), "a lost request must schedule a retry");
            t = next;
        }
        assert!(ch.lost_requests >= 4);
        assert!(buf
            .iter()
            .any(|e| matches!(e, TraceEvent::RequestLost { attempt, .. } if *attempt >= 2)));
        // Exponential backoff: gaps double while under the deadline cap.
        let times: Vec<f64> = buf
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RequestLost { at_s, .. } => Some(*at_s),
                _ => None,
            })
            .collect();
        assert!(times.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn delayed_delivery_arrives_later() {
        let net = net_with_charges(&[0.1]);
        let mut m = ChannelModel::default();
        m.delay_max_s = 3_600.0;
        m.seed = 9;
        let mut ch = ChannelState::new(&m, 1).unwrap();
        let mut buf = Vec::new();
        ch.advance(&net, 0.2, 0.0, false, &mut buf);
        // Not yet delivered (the draw is almost surely > 1e-9)…
        assert!(ch.pending(&net, 0.2).is_empty());
        let at = ch.next_event_s(0.0);
        assert!(at > 0.0 && at <= 3_600.0);
        // …but delivered once the clock reaches the delivery instant.
        ch.advance(&net, 0.2, at, false, &mut buf);
        assert_eq!(ch.pending(&net, 0.2), vec![SensorId(0)]);
    }

    #[test]
    fn duplicates_are_dropped_and_counted() {
        let net = net_with_charges(&[0.1]);
        let mut m = ChannelModel::default();
        m.duplicate_prob = 1.0;
        m.seed = 3;
        let mut ch = ChannelState::new(&m, 1).unwrap();
        let mut buf = Vec::new();
        ch.advance(&net, 0.2, 0.0, true, &mut buf);
        // Zero delay: original and duplicate both land in this call.
        assert_eq!(ch.pending(&net, 0.2), vec![SensorId(0)]);
        assert_eq!(ch.duplicates_dropped, 1);
        assert_eq!(
            buf.iter()
                .filter(|e| matches!(e, TraceEvent::DuplicateDropped { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn recharge_clears_the_episode() {
        let mut net = net_with_charges(&[0.1]);
        let mut ch = ChannelState::new(&lossy(0.5), 1).unwrap();
        let mut buf = Vec::new();
        let mut t = 0.0;
        // Drive until delivered (seeded, terminates quickly).
        for _ in 0..50 {
            ch.advance(&net, 0.2, t, false, &mut buf);
            if !ch.pending(&net, 0.2).is_empty() {
                break;
            }
            t = ch.next_event_s(t);
        }
        assert_eq!(ch.pending(&net, 0.2), vec![SensorId(0)]);
        net.sensors_mut()[0].recharge_to(1.0);
        ch.advance(&net, 0.2, t + 1.0, false, &mut buf);
        assert!(ch.pending(&net, 0.2).is_empty());
        assert!(!ch.wants[0] && !ch.delivered[0]);
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let net = net_with_charges(&[0.05, 0.1, 0.15, 0.5]);
        let run = || {
            let mut ch = ChannelState::new(&lossy(0.5), 4).unwrap();
            let mut buf = Vec::new();
            let mut t = 0.0;
            for _ in 0..20 {
                ch.advance(&net, 0.2, t, false, &mut buf);
                let next = ch.next_event_s(t);
                if !next.is_finite() {
                    break;
                }
                t = next;
            }
            (ch.lost_requests, ch.duplicates_dropped, ch.pending(&net, 0.2))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dead_sensor_keeps_requesting() {
        // A sensor at 0 J is below threshold with zero lifetime: the
        // deadline cap must not produce a non-positive or NaN backoff.
        let net = net_with_charges(&[0.0]);
        let mut ch = ChannelState::new(&lossy(0.999_999), 1).unwrap();
        let mut buf = Vec::new();
        ch.advance(&net, 0.2, 0.0, false, &mut buf);
        let next = ch.next_event_s(0.0);
        assert!(next > 0.0 && next.is_finite());
    }
}
