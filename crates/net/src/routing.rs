//! Energy-hole routing loads: ring-wise load spreading toward the sink.
//!
//! The paper adopts the sensor energy-consumption model of Li &
//! Mohapatra's energy-hole analysis \[12\]: sensors forward data to the
//! base station over multi-hop paths, and because *everything* funnels
//! through the nodes nearest the sink, per-node relay load grows sharply
//! as the distance to the sink shrinks. The analytical model spreads each
//! ring's transit traffic uniformly over the nodes of the next ring
//! inward; we concretize it per-node:
//!
//! - a sensor within communication range of the base station transmits
//!   directly to it;
//! - any other sensor splits its outgoing traffic (own + received)
//!   **equally among all neighbors strictly closer to the base
//!   station** (distance is a strictly decreasing potential, so the
//!   routing graph is a DAG and loads are well defined);
//! - a sensor with no closer neighbor falls back to a direct (long)
//!   link to the base station.
//!
//! The result is the paper's driving effect: sensors near the sink drain
//! fastest and become the lifetime-critical charging workload.

use wrsn_geom::{GridIndex, Point};

use crate::energy::RadioModel;
use crate::Sensor;

/// Per-node routing loads and radio costs toward the base station.
#[derive(Clone, Debug)]
pub struct RoutingLoads {
    /// Bits/s received from farther sensors (relay traffic in).
    pub relay_in_bps: Vec<f64>,
    /// Bits/s transmitted (own data + relayed).
    pub out_bps: Vec<f64>,
    /// Radio transmit power in watts, already weighted over the node's
    /// outgoing links (`Σ share_bps · tx_j_per_bit(d_link)`).
    pub tx_power_w: Vec<f64>,
    /// Length of the direct link to the base station, meters (used when
    /// the node has no next hop; informational otherwise).
    pub bs_link_m: Vec<f64>,
    /// Node `v`'s next hops are `hop_to[hop_start[v]..hop_start[v + 1]]`.
    hop_start: Vec<usize>,
    hop_to: Vec<u32>,
}

impl RoutingLoads {
    /// Targets of node `v`'s next hops, in scan order; each carries
    /// `1 / len` of its traffic. Empty means a direct link to the base
    /// station.
    pub fn next_hops(&self, v: usize) -> &[u32] {
        &self.hop_to[self.hop_start[v]..self.hop_start[v + 1]]
    }

    /// Whether node `v` has no next hop, i.e. links straight to the base
    /// station.
    fn is_direct(&self, v: usize) -> bool {
        self.hop_start[v] == self.hop_start[v + 1]
    }

    /// Bits/s arriving at the base station across all direct links.
    ///
    /// Conservation check: equals the sum of all sensors' data rates.
    pub fn arriving_at_bs_bps(&self) -> f64 {
        (0..self.out_bps.len()).filter(|&v| self.is_direct(v)).map(|v| self.out_bps[v]).sum()
    }

    /// Number of sensors transmitting directly to the base station.
    pub fn direct_links(&self) -> usize {
        (0..self.out_bps.len()).filter(|&v| self.is_direct(v)).count()
    }

    /// Bits/s arriving at the base station across the direct links of
    /// *surviving* sensors only.
    ///
    /// The plain [`RoutingLoads::arriving_at_bs_bps`] identity is stated
    /// against the sum of **all** data rates and silently breaks once any
    /// node dies mid-run; this variant restricts both sides of the
    /// conservation check to the alive set, and is what the simulators
    /// audit after every routing repair.
    pub fn arriving_at_bs_bps_alive(&self, alive: &[bool]) -> f64 {
        (0..self.out_bps.len())
            .filter(|&v| alive[v] && self.is_direct(v))
            .map(|v| self.out_bps[v])
            .sum()
    }

    /// Whether node `v` transmits to the base station over a direct link
    /// *longer* than the communication range — the fallback of a sensor
    /// left without a closer neighbor, i.e. one effectively partitioned
    /// from the relay mesh.
    pub fn is_long_link(&self, v: usize, comm_range_m: f64) -> bool {
        self.is_direct(v) && self.bs_link_m[v] > comm_range_m
    }

    /// Excises dead nodes (`alive[v] == false`) and recomputes the
    /// routing among survivors: traffic re-splits equally over the
    /// remaining strictly-closer neighbors, nodes left without one fall
    /// back to a direct long link to the base station, and every load
    /// and transmit power is rebuilt. Dead nodes end with zero loads and
    /// no next hops.
    ///
    /// Returns the indices of *surviving* nodes whose routing state
    /// (hops, loads, or transmit power) changed, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len() != sensors.len()`, if the loads were built
    /// for a different sensor count, or if `comm_range_m` is not
    /// strictly positive.
    pub fn repair(
        &mut self,
        sensors: &[Sensor],
        bs: Point,
        comm_range_m: f64,
        model: &RadioModel,
        alive: &[bool],
    ) -> Vec<usize> {
        assert_eq!(alive.len(), sensors.len(), "alive mask length mismatch");
        assert_eq!(self.out_bps.len(), sensors.len(), "loads/sensors length mismatch");
        let fresh = loads_among(sensors, bs, comm_range_m, model, alive);
        let mut changed = Vec::new();
        for (v, &is_alive) in alive.iter().enumerate() {
            let differs = self.next_hops(v) != fresh.next_hops(v)
                || self.relay_in_bps[v].to_bits() != fresh.relay_in_bps[v].to_bits()
                || self.out_bps[v].to_bits() != fresh.out_bps[v].to_bits()
                || self.tx_power_w[v].to_bits() != fresh.tx_power_w[v].to_bits();
            if is_alive && differs {
                changed.push(v);
            }
        }
        *self = fresh;
        changed
    }
}

/// Computes ring-spreading routing loads for `sensors` toward `bs`.
///
/// See the [module docs](self) for the model. Runs in
/// O(n · avg-degree + n log n).
///
/// # Panics
///
/// Panics if `comm_range_m` is not strictly positive.
pub fn compute_loads(
    sensors: &[Sensor],
    bs: Point,
    comm_range_m: f64,
    model: &RadioModel,
) -> RoutingLoads {
    loads_among(sensors, bs, comm_range_m, model, &vec![true; sensors.len()])
}

/// Shared core of [`compute_loads`] and [`RoutingLoads::repair`]:
/// ring-spreading loads over the sub-network of `alive` nodes. Dead
/// nodes keep their `bs_link_m` distance (informational) but carry no
/// traffic, no hops, and no transmit power.
///
/// One grid scan per node fills a flat hop table: each hop's target and
/// its link's `tx_j_per_bit`, computed once from the squared distance
/// the scan already has. Hops keep the grid's visit order, which fixes
/// the order of the transmit-power sums.
fn loads_among(
    sensors: &[Sensor],
    bs: Point,
    comm_range_m: f64,
    model: &RadioModel,
    alive: &[bool],
) -> RoutingLoads {
    assert!(comm_range_m > 0.0, "communication range must be positive");
    let n = sensors.len();
    let pts: Vec<Point> = sensors.iter().map(|s| s.pos).collect();
    let bs_dist: Vec<f64> = pts.iter().map(|p| p.dist(bs)).collect();

    let mut hop_start = Vec::with_capacity(n + 1);
    hop_start.push(0);
    // u32 indices, like the grid's, which refuses more points.
    let mut hop_to: Vec<u32> = Vec::new();
    let mut hop_cost: Vec<f64> = Vec::new();
    if n > 0 {
        let index = GridIndex::build(&pts, comm_range_m);
        for v in 0..n {
            // Dead, or direct to BS, keeps no hops; so does a node with
            // no closer neighbour (a direct long link to BS).
            if alive[v] && bs_dist[v] > comm_range_m {
                index.for_each_within_dist2(pts[v], comm_range_m, |u, d2| {
                    if u != v && alive[u] && bs_dist[u] < bs_dist[v] {
                        hop_to.push(u as u32);
                        hop_cost.push(model.tx_j_per_bit(d2.sqrt()));
                    }
                });
            }
            hop_start.push(hop_to.len());
        }
    }

    // Process nodes farthest-first so every node's inbound relay traffic
    // is final before it is forwarded (the closer-neighbor relation is a
    // DAG under the strictly-decreasing distance potential). Distances
    // are finite and never -0.0, so `total_cmp` orders them as `<` does.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| bs_dist[b as usize].total_cmp(&bs_dist[a as usize]));

    let mut relay_in = vec![0.0f64; n];
    let mut out = vec![0.0f64; n];
    let mut tx_power = vec![0.0f64; n];
    for v in order {
        let v = v as usize;
        if !alive[v] {
            continue;
        }
        let o = sensors[v].data_rate_bps + relay_in[v];
        out[v] = o;
        let hops = hop_start[v]..hop_start[v + 1];
        if hops.is_empty() {
            tx_power[v] = o * model.tx_j_per_bit(bs_dist[v]);
        } else {
            let share = o * (1.0 / hops.len() as f64);
            for (&u, &cost) in hop_to[hops.clone()].iter().zip(&hop_cost[hops]) {
                relay_in[u as usize] += share;
                tx_power[v] += share * cost;
            }
        }
    }

    RoutingLoads {
        relay_in_bps: relay_in,
        out_bps: out,
        tx_power_w: tx_power,
        bs_link_m: bs_dist,
        hop_start,
        hop_to,
    }
}

/// Fills in `consumption_w` for every sensor from its routing loads:
/// `P_i = idle + rx_per_bit · relay_in_i + tx_power_i`.
pub fn apply_consumption(sensors: &mut [Sensor], loads: &RoutingLoads, model: &RadioModel) {
    for (i, s) in sensors.iter_mut().enumerate() {
        s.consumption_w =
            model.idle_w + model.rx_j_per_bit() * loads.relay_in_bps[i] + loads.tx_power_w[i];
    }
}

/// Like [`apply_consumption`], but only touches surviving sensors: dead
/// nodes keep whatever consumption the caller assigned them. (The
/// simulators keep a depleted sensor's rate positive so it continues to
/// accrue dead time until recharged, and zero a hardware-failed one.)
pub fn apply_consumption_alive(
    sensors: &mut [Sensor],
    loads: &RoutingLoads,
    model: &RadioModel,
    alive: &[bool],
) {
    for (i, s) in sensors.iter_mut().enumerate() {
        if alive[i] {
            s.consumption_w =
                model.idle_w + model.rx_j_per_bit() * loads.relay_in_bps[i] + loads.tx_power_w[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SensorId;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The routing build the flat hop table replaced: a `Vec` of
    /// `(neighbor, fraction)` per node, and each link's cost recomputed
    /// from the two points in the farthest-first pass. Kept as the
    /// reference for every output bit and for `repair`'s `changed`.
    struct NestedLoads {
        relay_in_bps: Vec<f64>,
        out_bps: Vec<f64>,
        tx_power_w: Vec<f64>,
        next_hops: Vec<Vec<(usize, f64)>>,
        bs_link_m: Vec<f64>,
    }

    fn nested_loads(
        sensors: &[Sensor],
        bs: Point,
        comm_range_m: f64,
        model: &RadioModel,
        alive: &[bool],
    ) -> NestedLoads {
        let n = sensors.len();
        let pts: Vec<Point> = sensors.iter().map(|s| s.pos).collect();
        let bs_dist: Vec<f64> = pts.iter().map(|p| p.dist(bs)).collect();
        let mut next_hops: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        if n > 0 {
            let index = GridIndex::build(&pts, comm_range_m);
            for v in 0..n {
                if !alive[v] || bs_dist[v] <= comm_range_m {
                    continue;
                }
                let mut closer: Vec<usize> = Vec::new();
                index.for_each_within(pts[v], comm_range_m, |u| {
                    if u != v && alive[u] && bs_dist[u] < bs_dist[v] {
                        closer.push(u);
                    }
                });
                if !closer.is_empty() {
                    let frac = 1.0 / closer.len() as f64;
                    next_hops[v] = closer.into_iter().map(|u| (u, frac)).collect();
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| bs_dist[b].partial_cmp(&bs_dist[a]).unwrap());
        let mut relay_in = vec![0.0f64; n];
        let mut out = vec![0.0f64; n];
        let mut tx_power = vec![0.0f64; n];
        for &v in &order {
            if !alive[v] {
                continue;
            }
            let o = sensors[v].data_rate_bps + relay_in[v];
            out[v] = o;
            if next_hops[v].is_empty() {
                tx_power[v] = o * model.tx_j_per_bit(bs_dist[v]);
            } else {
                for &(u, frac) in &next_hops[v] {
                    let share = o * frac;
                    relay_in[u] += share;
                    tx_power[v] += share * model.tx_j_per_bit(pts[v].dist(pts[u]));
                }
            }
        }
        NestedLoads {
            relay_in_bps: relay_in,
            out_bps: out,
            tx_power_w: tx_power,
            next_hops,
            bs_link_m: bs_dist,
        }
    }

    /// The survivors whose state differs between two nested builds, as
    /// the nested `repair` reported them.
    fn nested_changed(old: &NestedLoads, fresh: &NestedLoads, alive: &[bool]) -> Vec<usize> {
        let bits = |x: &[f64], v: usize| x[v].to_bits();
        (0..alive.len())
            .filter(|&v| {
                alive[v]
                    && (old.next_hops[v] != fresh.next_hops[v]
                        || bits(&old.relay_in_bps, v) != bits(&fresh.relay_in_bps, v)
                        || bits(&old.out_bps, v) != bits(&fresh.out_bps, v)
                        || bits(&old.tx_power_w, v) != bits(&fresh.tx_power_w, v))
            })
            .collect()
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Every output of the flat build equals the nested build bit for
    /// bit, hop lists and their `1 / len` fractions included.
    fn assert_same(flat: &RoutingLoads, nested: &NestedLoads) -> Result<(), TestCaseError> {
        prop_assert!(same_bits(&flat.relay_in_bps, &nested.relay_in_bps));
        prop_assert!(same_bits(&flat.out_bps, &nested.out_bps));
        prop_assert!(same_bits(&flat.tx_power_w, &nested.tx_power_w));
        prop_assert!(same_bits(&flat.bs_link_m, &nested.bs_link_m));
        for (v, want) in nested.next_hops.iter().enumerate() {
            let hops = flat.next_hops(v);
            let frac = 1.0 / hops.len() as f64;
            let got: Vec<(usize, f64)> = hops.iter().map(|&u| (u as usize, frac)).collect();
            prop_assert_eq!(&got, want);
        }
        Ok(())
    }

    /// Sensors anywhere in a box or on a 2 m lattice (exact sink
    /// distance ties, points on cell edges), some at one spot.
    fn arb_field() -> impl Strategy<Value = Vec<Sensor>> {
        (
            proptest::collection::vec((0.0f64..60.0, 0.0f64..60.0, 100.0f64..50_000.0), 0..90),
            proptest::collection::vec(0usize..1_000, 0..8),
            any::<bool>(),
        )
            .prop_map(|(xyb, dups, lattice)| {
                let mut at: Vec<(f64, f64, f64)> = xyb
                    .into_iter()
                    .map(|(x, y, b)| {
                        if lattice {
                            ((x / 2.0).floor() * 2.0, (y / 2.0).floor() * 2.0, b)
                        } else {
                            (x, y, b)
                        }
                    })
                    .collect();
                for d in dups {
                    if !at.is_empty() {
                        at.push(at[d % at.len()]);
                    }
                }
                at.into_iter()
                    .enumerate()
                    .map(|(i, (x, y, b))| mk(i as u32, x, y, b))
                    .collect()
            })
    }

    /// A seeded mask killing about `pct` % of `n` nodes.
    fn mask(n: usize, seed: u64, pct: u64) -> Vec<bool> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % 100 >= pct
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The flat build and two repairs in a row (the second may
        /// revive nodes) match the nested reference: every output bit
        /// and every `changed` list.
        #[test]
        fn flat_hops_match_nested_reference(
            sensors in arb_field(),
            range in 2.0f64..30.0,
            bs in (-20.0f64..80.0, -20.0f64..80.0),
            masks in ((any::<u64>(), 0u64..60), (any::<u64>(), 0u64..60)),
        ) {
            let (bs, model, n) = (Point::new(bs.0, bs.1), RadioModel::default(), sensors.len());
            let mut flat = compute_loads(&sensors, bs, range, &model);
            let mut nested = nested_loads(&sensors, bs, range, &model, &vec![true; n]);
            assert_same(&flat, &nested)?;
            for (seed, pct) in [masks.0, masks.1] {
                let alive = mask(n, seed, pct);
                let changed = flat.repair(&sensors, bs, range, &model, &alive);
                let fresh = nested_loads(&sensors, bs, range, &model, &alive);
                prop_assert_eq!(changed, nested_changed(&nested, &fresh, &alive));
                nested = fresh;
                assert_same(&flat, &nested)?;
            }
        }
    }

    fn mk(id: u32, x: f64, y: f64, bps: f64) -> Sensor {
        Sensor::new(SensorId(id), Point::new(x, y), 10_800.0, bps)
    }

    #[test]
    fn empty_network() {
        let l = compute_loads(&[], Point::ORIGIN, 10.0, &RadioModel::default());
        assert!(l.out_bps.is_empty());
        assert_eq!(l.direct_links(), 0);
        assert_eq!(l.arriving_at_bs_bps(), 0.0);
    }

    #[test]
    fn chain_accumulates_load_toward_bs() {
        // BS at origin; sensors at x = 5, 10, 15 with range 6: a chain.
        let sensors =
            vec![mk(0, 5.0, 0.0, 100.0), mk(1, 10.0, 0.0, 100.0), mk(2, 15.0, 0.0, 100.0)];
        let l = compute_loads(&sensors, Point::ORIGIN, 6.0, &RadioModel::default());
        assert!(l.next_hops(0).is_empty()); // within range of BS: direct
        assert_eq!(l.next_hops(1), [0]);
        assert_eq!(l.next_hops(2), [1]);
        assert_eq!(l.out_bps[0], 300.0);
        assert_eq!(l.out_bps[1], 200.0);
        assert_eq!(l.out_bps[2], 100.0);
        assert_eq!(l.relay_in_bps[0], 200.0);
        assert_eq!(l.relay_in_bps[2], 0.0);
    }

    #[test]
    fn traffic_splits_equally_among_closer_neighbors() {
        // Two equidistant relays between the source and the BS.
        let sensors = vec![
            mk(0, 5.0, 2.0, 100.0),  // relay A
            mk(1, 5.0, -2.0, 100.0), // relay B
            mk(2, 10.0, 0.0, 100.0), // source
        ];
        let l = compute_loads(&sensors, Point::ORIGIN, 7.0, &RadioModel::default());
        assert_eq!(l.next_hops(2).len(), 2);
        assert!((l.relay_in_bps[0] - 50.0).abs() < 1e-9);
        assert!((l.relay_in_bps[1] - 50.0).abs() < 1e-9);
        assert_eq!(l.out_bps[2], 100.0);
    }

    #[test]
    fn disconnected_sensor_links_directly() {
        let sensors = vec![mk(0, 5.0, 0.0, 50.0), mk(1, 90.0, 90.0, 50.0)];
        let l = compute_loads(&sensors, Point::ORIGIN, 10.0, &RadioModel::default());
        assert!(l.next_hops(1).is_empty());
        assert!((l.bs_link_m[1] - Point::new(90.0, 90.0).dist(Point::ORIGIN)).abs() < 1e-9);
        assert_eq!(l.direct_links(), 2);
    }

    #[test]
    fn consumption_is_higher_for_relays() {
        let mut sensors =
            vec![mk(0, 5.0, 0.0, 100.0), mk(1, 10.0, 0.0, 100.0), mk(2, 15.0, 0.0, 100.0)];
        let model = RadioModel::default();
        let l = compute_loads(&sensors, Point::ORIGIN, 6.0, &model);
        apply_consumption(&mut sensors, &l, &model);
        assert!(sensors[0].consumption_w > sensors[1].consumption_w);
        assert!(sensors[1].consumption_w > sensors[2].consumption_w);
        assert!(sensors[2].consumption_w > 0.0);
    }

    #[test]
    fn loads_conserve_total_traffic() {
        let sensors: Vec<Sensor> = (0..25)
            .map(|i| mk(i, (i % 5) as f64 * 4.0 + 1.0, (i / 5) as f64 * 4.0 + 1.0, 10.0))
            .collect();
        let l = compute_loads(&sensors, Point::new(10.0, 10.0), 7.0, &RadioModel::default());
        let total: f64 = sensors.iter().map(|s| s.data_rate_bps).sum();
        assert!((l.arriving_at_bs_bps() - total).abs() < 1e-6);
    }

    #[test]
    fn fractions_sum_to_one() {
        let sensors: Vec<Sensor> = (0..60)
            .map(|i| mk(i, (i * 13 % 50) as f64, (i * 29 % 50) as f64, 5.0))
            .collect();
        let l = compute_loads(&sensors, Point::new(25.0, 25.0), 12.0, &RadioModel::default());
        // Each hop carries 1 / len of the sender's traffic, and a
        // node's relay traffic in is what its senders' shares add to.
        let mut inbound = vec![0.0; sensors.len()];
        for v in 0..sensors.len() {
            let hops = l.next_hops(v);
            let frac = 1.0 / hops.len() as f64;
            if !hops.is_empty() {
                assert!((hops.iter().map(|_| frac).sum::<f64>() - 1.0).abs() < 1e-9);
            }
            for &u in hops {
                inbound[u as usize] += l.out_bps[v] * frac;
            }
        }
        for (got, want) in l.relay_in_bps.iter().zip(&inbound) {
            assert!((got - want).abs() < 1e-9, "relay in {got} vs inbound shares {want}");
        }
    }

    #[test]
    fn inner_ring_drains_fastest_on_uniform_fields() {
        // Uniform grid: the nodes nearest the BS must carry the most load
        // (the energy-hole effect the whole charging workload relies on).
        let mut sensors: Vec<Sensor> = Vec::new();
        let mut id = 0;
        for i in 0..15 {
            for j in 0..15 {
                sensors.push(mk(id, i as f64 * 6.0 + 3.0, j as f64 * 6.0 + 3.0, 10_000.0));
                id += 1;
            }
        }
        let bs = Point::new(45.0, 45.0);
        let model = RadioModel::default();
        let l = compute_loads(&sensors, bs, 10.0, &model);
        let mut s = sensors.clone();
        apply_consumption(&mut s, &l, &model);
        // Mean consumption of nodes within 12 m of the BS vs beyond 30 m.
        let near: Vec<f64> = s
            .iter()
            .filter(|x| x.pos.dist(bs) <= 12.0)
            .map(|x| x.consumption_w)
            .collect();
        let far: Vec<f64> = s
            .iter()
            .filter(|x| x.pos.dist(bs) >= 30.0)
            .map(|x| x.consumption_w)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&near) > 3.0 * mean(&far),
            "near {} vs far {}",
            mean(&near),
            mean(&far)
        );
    }

    #[test]
    #[should_panic(expected = "communication range")]
    fn zero_range_panics() {
        let _ = compute_loads(&[], Point::ORIGIN, 0.0, &RadioModel::default());
    }

    #[test]
    fn repair_with_all_alive_is_identity() {
        let sensors: Vec<Sensor> = (0..40)
            .map(|i| mk(i, (i * 13 % 50) as f64, (i * 29 % 50) as f64, 50.0))
            .collect();
        let model = RadioModel::default();
        let baseline = compute_loads(&sensors, Point::new(25.0, 25.0), 12.0, &model);
        let mut repaired = baseline.clone();
        let changed =
            repaired.repair(&sensors, Point::new(25.0, 25.0), 12.0, &model, &[true; 40]);
        assert!(changed.is_empty(), "all-alive repair must be a no-op, got {changed:?}");
        for v in 0..40 {
            assert_eq!(baseline.next_hops(v), repaired.next_hops(v));
            assert_eq!(baseline.out_bps[v].to_bits(), repaired.out_bps[v].to_bits());
            assert_eq!(baseline.tx_power_w[v].to_bits(), repaired.tx_power_w[v].to_bits());
        }
    }

    #[test]
    fn repair_reroutes_around_dead_relay() {
        // Two equidistant relays between the source and the BS; kill one
        // and the source must re-split 100 % through the survivor.
        let sensors = vec![
            mk(0, 5.0, 2.0, 100.0),  // relay A
            mk(1, 5.0, -2.0, 100.0), // relay B
            mk(2, 10.0, 0.0, 100.0), // source
        ];
        let model = RadioModel::default();
        let mut l = compute_loads(&sensors, Point::ORIGIN, 7.0, &model);
        assert_eq!(l.next_hops(2).len(), 2);
        let alive = vec![false, true, true];
        let changed = l.repair(&sensors, Point::ORIGIN, 7.0, &model, &alive);
        assert_eq!(changed, vec![1, 2], "both survivors change routing state");
        assert_eq!(l.next_hops(2), [1]);
        assert!((l.relay_in_bps[1] - 100.0).abs() < 1e-9);
        // The corpse carries nothing.
        assert_eq!(l.out_bps[0], 0.0);
        assert_eq!(l.tx_power_w[0], 0.0);
        assert!(l.next_hops(0).is_empty());
        // Surviving traffic still reaches the BS.
        let total: f64 = sensors.iter().zip(&alive).filter(|(_, &a)| a)
            .map(|(s, _)| s.data_rate_bps).sum();
        assert!((l.arriving_at_bs_bps_alive(&alive) - total).abs() < 1e-9);
    }

    #[test]
    fn repair_falls_back_to_long_link() {
        // Chain 0-1-2: killing the middle relay partitions the tail,
        // which must fall back to a direct long link to the BS.
        let sensors =
            vec![mk(0, 5.0, 0.0, 100.0), mk(1, 10.0, 0.0, 100.0), mk(2, 15.0, 0.0, 100.0)];
        let model = RadioModel::default();
        let mut l = compute_loads(&sensors, Point::ORIGIN, 6.0, &model);
        assert!(!l.is_long_link(2, 6.0));
        let alive = vec![true, false, true];
        let changed = l.repair(&sensors, Point::ORIGIN, 6.0, &model, &alive);
        // The head loses its relay traffic, the tail loses its hop.
        assert_eq!(changed, vec![0, 2]);
        assert!(l.next_hops(2).is_empty());
        assert!(l.is_long_link(2, 6.0));
        assert_eq!(l.out_bps[2], 100.0);
        assert!((l.arriving_at_bs_bps_alive(&alive) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn repair_conserves_surviving_traffic() {
        let sensors: Vec<Sensor> = (0..25)
            .map(|i| mk(i, (i % 5) as f64 * 4.0 + 1.0, (i / 5) as f64 * 4.0 + 1.0, 10.0))
            .collect();
        let model = RadioModel::default();
        let mut l = compute_loads(&sensors, Point::new(10.0, 10.0), 7.0, &model);
        let mut alive = vec![true; 25];
        for dead in [12usize, 7, 18, 0] {
            alive[dead] = false;
            l.repair(&sensors, Point::new(10.0, 10.0), 7.0, &model, &alive);
            let total: f64 = sensors.iter().zip(&alive).filter(|(_, &a)| a)
                .map(|(s, _)| s.data_rate_bps).sum();
            assert!(
                (l.arriving_at_bs_bps_alive(&alive) - total).abs() < 1e-6,
                "conservation broke after killing {dead}"
            );
        }
    }

    #[test]
    fn alive_variant_excludes_stale_dead_traffic() {
        // The satellite bugfix scenario: a direct-link node dies but the
        // loads are NOT repaired. The plain conservation sum still counts
        // the corpse's traffic; the alive-aware variant drops it.
        let sensors = vec![mk(0, 5.0, 0.0, 100.0), mk(1, 3.0, 3.0, 40.0)];
        let l = compute_loads(&sensors, Point::ORIGIN, 6.0, &RadioModel::default());
        let alive = vec![true, false];
        assert!((l.arriving_at_bs_bps() - 140.0).abs() < 1e-9);
        assert!((l.arriving_at_bs_bps_alive(&alive) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn apply_consumption_alive_leaves_dead_untouched() {
        let mut sensors =
            vec![mk(0, 5.0, 0.0, 100.0), mk(1, 10.0, 0.0, 100.0), mk(2, 15.0, 0.0, 100.0)];
        let model = RadioModel::default();
        let mut l = compute_loads(&sensors, Point::ORIGIN, 6.0, &model);
        apply_consumption(&mut sensors, &l, &model);
        let dead_rate = sensors[1].consumption_w;
        let alive = vec![true, false, true];
        l.repair(&sensors, Point::ORIGIN, 6.0, &model, &alive);
        apply_consumption_alive(&mut sensors, &l, &model, &alive);
        assert_eq!(sensors[1].consumption_w, dead_rate);
        // The head no longer relays for anyone: consumption drops.
        assert!((sensors[0].consumption_w - (model.idle_w + 100.0 * model.tx_j_per_bit(5.0))).abs() < 1e-12);
    }
}
