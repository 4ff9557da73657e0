//! The assembled WRSN instance.

use wrsn_geom::{Point, Rect};

use crate::energy::RadioModel;
use crate::routing::{apply_consumption, apply_consumption_alive, compute_loads, RoutingLoads};
use crate::{Sensor, SensorId, DEFAULT_REQUEST_FRACTION};

/// A wireless rechargeable sensor network instance.
///
/// Owns the monitoring field, the base station and MCV depot locations
/// (co-located at the field center by default, per the paper's §VI-A),
/// and the sensor array with per-sensor consumption rates derived from
/// the routing tree.
///
/// # Example
///
/// ```
/// use wrsn_net::NetworkBuilder;
/// let net = NetworkBuilder::new(100).seed(7).build();
/// assert_eq!(net.depot(), net.base_station());
/// assert!(net.requesting_sensors(0.2).is_empty()); // everyone starts full
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    field: Rect,
    base_station: Point,
    depot: Point,
    sensors: Vec<Sensor>,
    radio: RadioModel,
    comm_range_m: f64,
    routing: RoutingLoads,
}

impl Network {
    /// Assembles a network and computes per-sensor consumption from the
    /// routing tree. Prefer [`crate::NetworkBuilder`] for random
    /// instances; this constructor is for hand-built test topologies.
    ///
    /// # Panics
    ///
    /// Panics if `comm_range_m` is not strictly positive (routing needs a
    /// positive communication range).
    pub fn assemble(
        field: Rect,
        base_station: Point,
        depot: Point,
        mut sensors: Vec<Sensor>,
        radio: RadioModel,
        comm_range_m: f64,
    ) -> Self {
        let routing = compute_loads(&sensors, base_station, comm_range_m, &radio);
        apply_consumption(&mut sensors, &routing, &radio);
        Network { field, base_station, depot, sensors, radio, comm_range_m, routing }
    }

    /// The monitoring field.
    pub fn field(&self) -> Rect {
        self.field
    }

    /// Base station (sink) location.
    pub fn base_station(&self) -> Point {
        self.base_station
    }

    /// MCV depot location (tours start and end here).
    pub fn depot(&self) -> Point {
        self.depot
    }

    /// The sensors, indexed by [`SensorId`].
    pub fn sensors(&self) -> &[Sensor] {
        &self.sensors
    }

    /// Mutable access for the simulator (draining / recharging).
    pub fn sensors_mut(&mut self) -> &mut [Sensor] {
        &mut self.sensors
    }

    /// The radio model used for consumption rates.
    pub fn radio(&self) -> &RadioModel {
        &self.radio
    }

    /// Communication range used for the routing tree, meters.
    pub fn comm_range_m(&self) -> f64 {
        self.comm_range_m
    }

    /// Per-sensor routing loads toward the base station.
    pub fn routing(&self) -> &RoutingLoads {
        &self.routing
    }

    /// Excises dead sensors from the routing tree and recomputes the
    /// survivors' loads and consumption rates (see
    /// [`RoutingLoads::repair`]). Dead sensors' consumption is left
    /// untouched — the simulators decide whether a dead node still
    /// accrues dead time (depletion) or is gone for good (hardware
    /// failure). Returns the survivors whose routing state changed.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len()` differs from the sensor count.
    pub fn repair_routing(&mut self, alive: &[bool]) -> Vec<usize> {
        let changed = self.routing.repair(
            &self.sensors,
            self.base_station,
            self.comm_range_m,
            &self.radio,
            alive,
        );
        apply_consumption_alive(&mut self.sensors, &self.routing, &self.radio, alive);
        changed
    }

    /// Sensor lookup by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn sensor(&self, id: SensorId) -> &Sensor {
        &self.sensors[id.index()]
    }

    /// Ids of sensors whose residual energy is below
    /// `threshold_fraction · C_v` — the paper's lifetime-critical set
    /// `V_s` (20 % by default, see [`DEFAULT_REQUEST_FRACTION`]).
    pub fn requesting_sensors(&self, threshold_fraction: f64) -> Vec<SensorId> {
        self.sensors
            .iter()
            .filter(|s| s.residual_j < threshold_fraction * s.capacity_j)
            .map(|s| s.id)
            .collect()
    }

    /// Like [`Network::requesting_sensors`] with the paper's default 20 %
    /// threshold.
    pub fn default_requesting_sensors(&self) -> Vec<SensorId> {
        self.requesting_sensors(DEFAULT_REQUEST_FRACTION)
    }

    /// Drains every sensor by `dt_s` seconds at its consumption rate.
    pub fn drain_all(&mut self, dt_s: f64) {
        for s in &mut self.sensors {
            s.drain(dt_s);
        }
    }

    /// Aggregate power drain of the whole network, watts. Compare with
    /// the fleet's one-to-one service capacity `K · η` to judge whether a
    /// configuration is schedulable at all (see EXPERIMENTS.md).
    pub fn total_consumption_w(&self) -> f64 {
        self.sensors.iter().map(|s| s.consumption_w).sum()
    }

    /// Expected full recharges demanded per day at steady state:
    /// total drain divided by the energy of one threshold-to-full charge.
    pub fn charges_demanded_per_day(&self, request_fraction: f64) -> f64 {
        let per_charge_j: f64 = self
            .sensors
            .iter()
            .map(|s| (1.0 - request_fraction) * s.capacity_j)
            .sum::<f64>()
            / self.sensors.len().max(1) as f64;
        if per_charge_j <= 0.0 {
            return 0.0;
        }
        self.total_consumption_w() * 86_400.0 / per_charge_j
    }

    /// Time until the *next* sensor crosses the request threshold (or
    /// dies, whichever event the caller asks for via `target_fraction`),
    /// ignoring sensors already below it: the least
    /// [`Sensor::time_to_fraction`], the first of equal values kept.
    /// `None` if no sensor ever will (zero consumption).
    pub fn time_to_next_crossing(&self, target_fraction: f64) -> Option<f64> {
        self.sensors
            .iter()
            .filter_map(|s| s.time_to_fraction(target_fraction))
            .reduce(|best, t| if t < best { t } else { best })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> Network {
        let field = Rect::square(100.0);
        let bs = field.center();
        let sensors = vec![
            Sensor::new(SensorId(0), Point::new(45.0, 50.0), 10_800.0, 1_000.0),
            Sensor::new(SensorId(1), Point::new(40.0, 50.0), 10_800.0, 1_000.0),
            Sensor::new(SensorId(2), Point::new(35.0, 50.0), 10_800.0, 1_000.0),
        ];
        Network::assemble(field, bs, bs, sensors, RadioModel::default(), 6.0)
    }

    #[test]
    fn assemble_fills_consumption() {
        let net = tiny_net();
        assert!(net.sensors().iter().all(|s| s.consumption_w > 0.0));
        // The sensor nearest the BS relays for the two behind it.
        assert!(net.sensors()[0].consumption_w > net.sensors()[2].consumption_w);
    }

    #[test]
    fn requesting_set_tracks_threshold() {
        let mut net = tiny_net();
        assert!(net.default_requesting_sensors().is_empty());
        net.sensors_mut()[1].residual_j = 0.1 * 10_800.0;
        assert_eq!(net.default_requesting_sensors(), vec![SensorId(1)]);
        // Boundary: exactly at the threshold is NOT below it.
        net.sensors_mut()[1].residual_j = 0.2 * 10_800.0;
        assert!(net.default_requesting_sensors().is_empty());
    }

    #[test]
    fn drain_all_advances_every_battery() {
        let mut net = tiny_net();
        let before: Vec<f64> = net.sensors().iter().map(|s| s.residual_j).collect();
        net.drain_all(1_000.0);
        for (s, b) in net.sensors().iter().zip(before) {
            assert!(s.residual_j < b);
        }
    }

    #[test]
    fn time_to_next_crossing_is_consistent_with_drain() {
        let mut net = tiny_net();
        let t = net.time_to_next_crossing(0.2).expect("finite consumption");
        assert!(t > 0.0);
        net.drain_all(t + 1e-6);
        assert!(!net.default_requesting_sensors().is_empty());
    }

    #[test]
    fn repair_routing_updates_survivor_consumption() {
        let mut net = tiny_net();
        let relay_rate = net.sensors()[0].consumption_w;
        let middle_rate = net.sensors()[1].consumption_w;
        // Kill the relay nearest the BS: survivors reroute around it.
        let alive = vec![false, true, true];
        let changed = net.repair_routing(&alive);
        assert!(!changed.is_empty());
        assert!(changed.iter().all(|&v| alive[v]));
        // The dead relay keeps its stale rate (caller's business)...
        assert_eq!(net.sensors()[0].consumption_w, relay_rate);
        // ...while the next node inward is forced onto a direct long
        // link to the BS, so its transmit cost (and drain) changes.
        assert!(net.routing().is_long_link(1, net.comm_range_m()));
        assert!(net.sensors()[1].consumption_w != middle_rate);
        let total: f64 = net
            .sensors()
            .iter()
            .zip(&alive)
            .filter(|(_, &a)| a)
            .map(|(s, _)| s.data_rate_bps)
            .sum();
        assert!((net.routing().arriving_at_bs_bps_alive(&alive) - total).abs() < 1e-9);
    }

    #[test]
    fn demand_summary_is_consistent() {
        let net = tiny_net();
        let total = net.total_consumption_w();
        assert!(total > 0.0);
        assert!((total - net.sensors().iter().map(|s| s.consumption_w).sum::<f64>()).abs() < 1e-12);
        let demand = net.charges_demanded_per_day(0.2);
        // demand = total * 86400 / (0.8 * C)
        let expected = total * 86_400.0 / (0.8 * 10_800.0);
        assert!((demand - expected).abs() < 1e-9);
    }

    #[test]
    fn empty_network_has_no_crossing() {
        let field = Rect::square(10.0);
        let net = Network::assemble(
            field,
            field.center(),
            field.center(),
            Vec::new(),
            RadioModel::default(),
            5.0,
        );
        assert_eq!(net.time_to_next_crossing(0.2), None);
        assert!(net.default_requesting_sensors().is_empty());
    }
}
