//! Sensors and their rechargeable batteries.

use std::fmt;

use wrsn_geom::Point;

/// Identifier of a sensor: its index in the network's sensor array.
///
/// A newtype rather than a bare `usize` so sensor indices cannot be mixed
/// up with tour positions or grid-cell indices.
///
/// # Example
///
/// ```
/// use wrsn_net::SensorId;
/// let id = SensorId(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(id.to_string(), "s3");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SensorId(pub u32);

impl SensorId {
    /// The sensor's index into `Network::sensors()`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<usize> for SensorId {
    fn from(i: usize) -> Self {
        SensorId(u32::try_from(i).expect("sensor index exceeds u32"))
    }
}

/// A stationary sensor node.
///
/// Fields follow §III-A of the paper: each sensor `v` has a rechargeable
/// battery with energy capacity `C_v` (`capacity_j`), a residual energy
/// `RE_v` (`residual_j`), and consumes energy on sensing, processing and
/// transmission at an instance-specific rate (`consumption_w`, derived
/// from the routing tree by [`crate::routing`]).
///
/// This is a passive data struct; the scheduling algorithms read it and
/// the simulator mutates `residual_j` over time.
#[derive(Clone, Debug, PartialEq)]
pub struct Sensor {
    /// Identity (index into the network's sensor array).
    pub id: SensorId,
    /// Location in the monitoring field, meters.
    pub pos: Point,
    /// Battery capacity `C_v` in joules.
    pub capacity_j: f64,
    /// Residual battery energy `RE_v` in joules.
    pub residual_j: f64,
    /// Data sensing rate `b_i` in bits per second.
    pub data_rate_bps: f64,
    /// Total power drain in watts (own traffic + relayed traffic).
    pub consumption_w: f64,
}

impl Sensor {
    /// Creates a fully-charged sensor with zero consumption (the
    /// consumption rate is filled in by the routing/energy pass).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_j` is not strictly positive or
    /// `data_rate_bps` is negative.
    pub fn new(id: SensorId, pos: Point, capacity_j: f64, data_rate_bps: f64) -> Self {
        assert!(capacity_j > 0.0, "sensor capacity must be positive");
        assert!(data_rate_bps >= 0.0, "data rate must be non-negative");
        Sensor {
            id,
            pos,
            capacity_j,
            residual_j: capacity_j,
            data_rate_bps,
            consumption_w: 0.0,
        }
    }

    /// Fraction of capacity remaining, in `[0, 1]`.
    pub fn charge_fraction(&self) -> f64 {
        (self.residual_j / self.capacity_j).clamp(0.0, 1.0)
    }

    /// Returns `true` iff the battery is exhausted.
    pub fn is_dead(&self) -> bool {
        self.residual_j <= 0.0
    }

    /// Residual lifetime at the current consumption rate, in seconds.
    ///
    /// Returns `f64::INFINITY` for a sensor that consumes no energy.
    pub fn residual_lifetime_s(&self) -> f64 {
        self.lifetime_for_residual(self.residual_j)
    }

    /// Seconds until the residual falls to `fraction · C_v` at the
    /// current consumption rate: the sensor's own term of
    /// [`Network::time_to_next_crossing`](crate::Network::time_to_next_crossing).
    /// `None` when it never will (it consumes nothing) or it already
    /// sits at or below that level.
    pub fn time_to_fraction(&self, fraction: f64) -> Option<f64> {
        let target = fraction * self.capacity_j;
        if self.consumption_w > 0.0 && self.residual_j > target {
            Some((self.residual_j - target) / self.consumption_w)
        } else {
            None
        }
    }

    /// Residual lifetime the sensor *would* have at `residual_j` joules,
    /// in seconds — the same formula as [`Sensor::residual_lifetime_s`]
    /// applied to a hypothetical residual. Used by the base station to
    /// rank requests from *estimated* residuals when telemetry is
    /// imperfect; calling it with the true residual is bit-identical to
    /// [`Sensor::residual_lifetime_s`].
    ///
    /// Returns `f64::INFINITY` for a sensor that consumes no energy.
    pub fn lifetime_for_residual(&self, residual_j: f64) -> f64 {
        if self.consumption_w <= 0.0 {
            f64::INFINITY
        } else {
            (residual_j / self.consumption_w).max(0.0)
        }
    }

    /// The true residual, measured on site.
    ///
    /// Semantically distinct from reading `residual_j`: this is the
    /// value an MCV obtains by *physically visiting* the sensor, the
    /// one ground-truth observation available to a base station whose
    /// remote telemetry is noisy, quantized, or stale. The simulator's
    /// arrival-reconciliation path goes through this accessor so the
    /// information model stays explicit at the call sites.
    pub fn measured_residual_j(&self) -> f64 {
        self.residual_j
    }

    /// Energy missing from a full battery, `C_v − RE_v`, in joules.
    pub fn deficit_j(&self) -> f64 {
        (self.capacity_j - self.residual_j).max(0.0)
    }

    /// Charging duration `t_v = (C_v − RE_v) / η` (paper Eq. 1) for a
    /// charger with charging rate `eta_w` watts.
    ///
    /// # Panics
    ///
    /// Panics if `eta_w` is not strictly positive.
    pub fn full_charge_duration_s(&self, eta_w: f64) -> f64 {
        assert!(eta_w > 0.0, "charging rate must be positive");
        self.deficit_j() / eta_w
    }

    /// Drains the battery by `dt_s` seconds of consumption, clamping at 0.
    pub fn drain(&mut self, dt_s: f64) {
        debug_assert!(dt_s >= 0.0);
        self.residual_j = (self.residual_j - self.consumption_w * dt_s).max(0.0);
    }

    /// Refills the battery to capacity (a completed multi-node charge).
    pub fn recharge_full(&mut self) {
        self.residual_j = self.capacity_j;
    }

    /// Raises the battery to `fraction` of capacity (partial-charging
    /// model); never drains an already fuller battery.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn recharge_to(&mut self, fraction: f64) {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        self.residual_j = self.residual_j.max(fraction * self.capacity_j);
    }

    /// Adds `energy_j` joules to the battery, capped at capacity, and
    /// returns the energy actually absorbed. The fixed-duration side of
    /// the partial-charging model: when a sojourn's length was planned
    /// from an (estimated) deficit, the battery absorbs exactly the
    /// energy transferred during that sojourn — no more, no less —
    /// rather than snapping to a target fraction.
    ///
    /// # Panics
    ///
    /// Panics if `energy_j` is negative or not finite.
    pub fn recharge_by(&mut self, energy_j: f64) -> f64 {
        assert!(energy_j >= 0.0 && energy_j.is_finite(), "energy must be non-negative and finite");
        let absorbed = energy_j.min(self.capacity_j - self.residual_j).max(0.0);
        self.residual_j += absorbed;
        absorbed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensor() -> Sensor {
        let mut s = Sensor::new(SensorId(0), Point::new(1.0, 2.0), 10_800.0, 1_000.0);
        s.consumption_w = 0.01;
        s
    }

    #[test]
    fn new_sensor_is_full_and_alive() {
        let s = sensor();
        assert_eq!(s.charge_fraction(), 1.0);
        assert!(!s.is_dead());
        assert_eq!(s.deficit_j(), 0.0);
    }

    #[test]
    fn residual_lifetime_uses_consumption() {
        let s = sensor();
        assert_eq!(s.residual_lifetime_s(), 10_800.0 / 0.01);
        let mut free = sensor();
        free.consumption_w = 0.0;
        assert_eq!(free.residual_lifetime_s(), f64::INFINITY);
    }

    #[test]
    fn time_to_fraction_skips_sensors_at_or_below_it() {
        let mut s = sensor();
        assert_eq!(s.time_to_fraction(0.2), Some((10_800.0 - 2_160.0) / 0.01));
        s.residual_j = 2_160.0; // exactly at the threshold
        assert_eq!(s.time_to_fraction(0.2), None);
        s.residual_j = f64::NAN;
        assert_eq!(s.time_to_fraction(0.2), None);
        let mut free = sensor();
        free.consumption_w = 0.0;
        assert_eq!(free.time_to_fraction(0.2), None);
    }

    #[test]
    fn drain_clamps_at_zero() {
        let mut s = sensor();
        s.drain(1e12);
        assert_eq!(s.residual_j, 0.0);
        assert!(s.is_dead());
        assert_eq!(s.residual_lifetime_s(), 0.0);
    }

    #[test]
    fn charge_duration_matches_eq1() {
        let mut s = sensor();
        s.residual_j = 0.0;
        // 10.8 kJ at 2 W = 5 400 s = 1.5 h, the paper's headline number.
        assert_eq!(s.full_charge_duration_s(2.0), 5_400.0);
        s.residual_j = 5_400.0;
        assert_eq!(s.full_charge_duration_s(2.0), 2_700.0);
    }

    #[test]
    fn recharge_restores_capacity() {
        let mut s = sensor();
        s.residual_j = 12.0;
        s.recharge_full();
        assert_eq!(s.residual_j, s.capacity_j);
    }

    #[test]
    fn lifetime_for_residual_matches_true_lifetime() {
        let s = sensor();
        assert_eq!(
            s.lifetime_for_residual(s.residual_j).to_bits(),
            s.residual_lifetime_s().to_bits()
        );
        assert_eq!(s.lifetime_for_residual(5_400.0), 5_400.0 / 0.01);
        assert_eq!(s.lifetime_for_residual(-3.0), 0.0);
        let mut free = sensor();
        free.consumption_w = 0.0;
        assert_eq!(free.lifetime_for_residual(1.0), f64::INFINITY);
    }

    #[test]
    fn measured_residual_is_ground_truth() {
        let mut s = sensor();
        s.residual_j = 123.5;
        assert_eq!(s.measured_residual_j(), 123.5);
    }

    #[test]
    fn recharge_by_caps_at_capacity() {
        let mut s = sensor();
        s.residual_j = 10_000.0;
        let absorbed = s.recharge_by(500.0);
        assert_eq!(absorbed, 500.0);
        assert_eq!(s.residual_j, 10_500.0);
        let absorbed = s.recharge_by(1_000.0);
        assert_eq!(absorbed, 300.0);
        assert_eq!(s.residual_j, s.capacity_j);
        assert_eq!(s.recharge_by(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "energy")]
    fn negative_recharge_by_panics() {
        sensor().recharge_by(-1.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Sensor::new(SensorId(0), Point::ORIGIN, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "charging rate")]
    fn zero_eta_panics() {
        let _ = sensor().full_charge_duration_s(0.0);
    }

    #[test]
    fn id_display_and_index() {
        assert_eq!(SensorId(7).to_string(), "s7");
        assert_eq!(SensorId::from(9usize), SensorId(9));
        assert_eq!(SensorId(9).index(), 9);
    }
}
