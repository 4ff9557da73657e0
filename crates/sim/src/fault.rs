//! Charger fault injection: breakdowns, travel jitter, degraded rates.
//!
//! The paper assumes perfect MCVs (§III-B): every dispatched tour
//! completes. [`FaultModel`] drops that assumption. Three seeded,
//! independent disturbance channels can be enabled per run:
//!
//! - **Breakdowns** ([`FaultModel::charger_mtbf_s`]): each charger
//!   carries an exponentially-distributed operating life that is
//!   consumed by *busy* (touring) time. When a tour outlives the
//!   remaining life, the charger fails mid-tour, its unfinished sojourns
//!   are stranded, and it re-enters service only after
//!   [`FaultModel::charger_repair_s`] of downtime (with a fresh life
//!   draw).
//! - **Travel jitter** ([`FaultModel::travel_jitter`]): every dispatched
//!   round's real duration is scaled by a factor drawn uniformly from
//!   `[1 − j, 1 + j]`, modelling terrain and traffic variation.
//! - **Degradation** ([`FaultModel::degrade_prob`] /
//!   [`FaultModel::degrade_factor`]): with the given per-round
//!   probability, the round runs on a degraded fleet and stretches by
//!   the factor (e.g. a fouled coupling coil charging at reduced `η`).
//!
//! All draws come from a dedicated `ChaCha12` stream seeded with
//! [`FaultModel::seed`], separate from the sensor-failure stream — so
//! `fault seed + sim seed` fully determines a run, and a model for
//! which [`FaultModel::is_active`] is `false` draws **zero** random
//! values, leaving fault-free runs bit-identical to an engine without
//! the fault layer.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Stochastic charger-fault parameters. The default is fully inert.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultModel {
    /// Mean operating life between breakdowns per charger, in seconds of
    /// *busy* (touring) time; exponential. `0` disables breakdowns.
    pub charger_mtbf_s: f64,
    /// Downtime after a breakdown before the charger is back in service,
    /// seconds.
    pub charger_repair_s: f64,
    /// Half-width of the uniform per-round travel-time scaling,
    /// in `[0, 1)`. `0` disables jitter.
    pub travel_jitter: f64,
    /// Per-round probability of transient charge-rate degradation,
    /// in `[0, 1]`. `0` disables degradation.
    pub degrade_prob: f64,
    /// Factor (`>= 1`) by which a degraded round stretches.
    pub degrade_factor: f64,
    /// Seed of the dedicated fault RNG stream.
    pub seed: u64,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            charger_mtbf_s: 0.0,
            charger_repair_s: 0.0,
            travel_jitter: 0.0,
            degrade_prob: 0.0,
            degrade_factor: 1.0,
            seed: 0,
        }
    }
}

impl FaultModel {
    /// Returns `true` iff any disturbance channel is enabled. Inactive
    /// models cost nothing: the engines skip the entire fault path and
    /// draw no random values.
    pub fn is_active(&self) -> bool {
        self.charger_mtbf_s > 0.0 || self.travel_jitter > 0.0 || self.degrade_prob > 0.0
    }

    /// Checks parameter ranges; returns the offending description.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        if !self.charger_mtbf_s.is_finite() || self.charger_mtbf_s < 0.0 {
            return Err("charger MTBF must be non-negative and finite");
        }
        if !self.charger_repair_s.is_finite() || self.charger_repair_s < 0.0 {
            return Err("charger repair time must be non-negative and finite");
        }
        if !(0.0..1.0).contains(&self.travel_jitter) {
            return Err("travel jitter must be in [0, 1)");
        }
        if !(0.0..=1.0).contains(&self.degrade_prob) {
            return Err("degrade probability must be in [0, 1]");
        }
        if !self.degrade_factor.is_finite() || self.degrade_factor < 1.0 {
            return Err("degrade factor must be at least 1 and finite");
        }
        Ok(())
    }
}

/// Live fault state of one simulation run: the RNG stream plus
/// per-charger operating life and repair clocks. Constructed only when
/// the model is active.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    pub(crate) model: FaultModel,
    pub(crate) rng: ChaCha12Rng,
    /// Remaining operating life per charger, seconds of busy time.
    pub life_left: Vec<f64>,
    /// Absolute simulation time each charger is back in service; a
    /// charger is available at `t` iff `available_at[c] <= t`.
    pub available_at: Vec<f64>,
}

impl FaultState {
    /// Builds the state for `k` chargers, or `None` if the model is
    /// inactive (in which case no RNG is even seeded).
    pub fn new(model: &FaultModel, k: usize) -> Option<FaultState> {
        if !model.is_active() {
            return None;
        }
        let mut state = FaultState {
            model: *model,
            rng: ChaCha12Rng::seed_from_u64(model.seed),
            life_left: Vec::with_capacity(k),
            available_at: vec![0.0; k],
        };
        for _ in 0..k {
            let life = state.draw_life();
            state.life_left.push(life);
        }
        Some(state)
    }

    /// Draws a fresh operating life (infinite when breakdowns are off).
    pub fn draw_life(&mut self) -> f64 {
        if self.model.charger_mtbf_s > 0.0 {
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            -u.ln() * self.model.charger_mtbf_s
        } else {
            f64::INFINITY
        }
    }

    /// Draws this round's time-scaling factor (jitter × degradation).
    /// Always strictly positive; `1.0` when both channels are disabled.
    pub fn round_factor(&mut self) -> f64 {
        let mut factor = 1.0;
        if self.model.travel_jitter > 0.0 {
            let u: f64 = self.rng.gen_range(-1.0..1.0);
            factor *= 1.0 + self.model.travel_jitter * u;
        }
        if self.model.degrade_prob > 0.0 && self.rng.gen_bool(self.model.degrade_prob) {
            factor *= self.model.degrade_factor;
        }
        factor.max(1e-3)
    }

    /// Indices of chargers in service at time `t`, ascending.
    pub fn available(&self, t: f64) -> Vec<usize> {
        (0..self.available_at.len()).filter(|&c| self.available_at[c] <= t).collect()
    }

    /// Earliest time any charger returns to service (`None` if every
    /// charger is already in service — the caller shouldn't be waiting).
    pub fn next_available_at(&self, t: f64) -> Option<f64> {
        self.available_at
            .iter()
            .copied()
            .filter(|&a| a > t)
            .fold(None, |acc: Option<f64>, a| Some(acc.map_or(a, |m| m.min(a))))
    }

    /// Records that `charger` broke down at absolute time `fail_abs`:
    /// schedules its repair and rolls a fresh operating life.
    pub fn breakdown(&mut self, charger: usize, fail_abs: f64) {
        self.available_at[charger] = fail_abs + self.model.charger_repair_s;
        self.life_left[charger] = self.draw_life();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert_and_valid() {
        let m = FaultModel::default();
        assert!(!m.is_active());
        assert_eq!(m.validate(), Ok(()));
        assert!(FaultState::new(&m, 3).is_none());
    }

    #[test]
    fn any_channel_activates() {
        let mut m = FaultModel::default();
        m.charger_mtbf_s = 100.0;
        assert!(m.is_active());
        let mut m = FaultModel::default();
        m.travel_jitter = 0.1;
        assert!(m.is_active());
        let mut m = FaultModel::default();
        m.degrade_prob = 0.5;
        assert!(m.is_active());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut m = FaultModel::default();
        m.charger_mtbf_s = -1.0;
        assert!(m.validate().is_err());
        let mut m = FaultModel::default();
        m.travel_jitter = 1.0;
        assert!(m.validate().is_err());
        let mut m = FaultModel::default();
        m.degrade_prob = 1.5;
        assert!(m.validate().is_err());
        let mut m = FaultModel::default();
        m.degrade_factor = 0.5;
        assert!(m.validate().is_err());
        let mut m = FaultModel::default();
        m.charger_repair_s = f64::NAN;
        assert!(m.validate().is_err());
    }

    #[test]
    fn lives_are_exponential_ish_and_deterministic() {
        let mut m = FaultModel::default();
        m.charger_mtbf_s = 1_000.0;
        m.seed = 42;
        let a = FaultState::new(&m, 50).unwrap();
        let b = FaultState::new(&m, 50).unwrap();
        assert_eq!(a.life_left, b.life_left);
        let mean = a.life_left.iter().sum::<f64>() / 50.0;
        assert!(mean > 200.0 && mean < 5_000.0, "implausible mean life {mean}");
        assert!(a.life_left.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn round_factor_spans_the_jitter_band() {
        let mut m = FaultModel::default();
        m.travel_jitter = 0.3;
        m.seed = 7;
        let mut s = FaultState::new(&m, 1).unwrap();
        for _ in 0..200 {
            let f = s.round_factor();
            assert!((0.7..=1.3).contains(&f), "factor {f} outside band");
        }
    }

    #[test]
    fn degradation_stretches_rounds() {
        let mut m = FaultModel::default();
        m.degrade_prob = 1.0;
        m.degrade_factor = 2.0;
        let mut s = FaultState::new(&m, 1).unwrap();
        assert_eq!(s.round_factor(), 2.0);
    }

    #[test]
    fn breakdown_schedules_repair_and_redraws_life() {
        let mut m = FaultModel::default();
        m.charger_mtbf_s = 500.0;
        m.charger_repair_s = 3_600.0;
        let mut s = FaultState::new(&m, 2).unwrap();
        let before = s.life_left[1];
        s.breakdown(1, 10_000.0);
        assert_eq!(s.available_at[1], 13_600.0);
        assert!(s.life_left[1] > 0.0 && s.life_left[1] != before);
        assert_eq!(s.available(10_000.0), vec![0]);
        assert_eq!(s.next_available_at(10_000.0), Some(13_600.0));
        assert_eq!(s.available(13_600.0), vec![0, 1]);
        assert_eq!(s.next_available_at(13_600.0), None);
    }
}
