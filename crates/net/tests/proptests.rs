//! Property-based tests for the WRSN model.

use proptest::prelude::*;
use wrsn_net::energy::RadioModel;
use wrsn_net::routing::compute_loads;
use wrsn_net::{InitialCharge, NetworkBuilder, Sensor, SensorId};
use wrsn_geom::Point;

fn arb_sensors(max: usize) -> impl Strategy<Value = Vec<Sensor>> {
    proptest::collection::vec(
        (0.0f64..100.0, 0.0f64..100.0, 100.0f64..50_000.0),
        0..max,
    )
    .prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (x, y, bps))| {
                Sensor::new(SensorId(i as u32), Point::new(x, y), 10_800.0, bps)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Routing conserves traffic: everything generated arrives at the BS.
    #[test]
    fn routing_conserves_traffic(
        sensors in arb_sensors(80),
        range in 5.0f64..30.0,
    ) {
        let loads = compute_loads(
            &sensors,
            Point::new(50.0, 50.0),
            range,
            &RadioModel::default(),
        );
        let total: f64 = sensors.iter().map(|s| s.data_rate_bps).sum();
        prop_assert!((loads.arriving_at_bs_bps() - total).abs() < 1e-6 * total.max(1.0));
    }

    /// Every node's outgoing load is its own rate plus what it received,
    /// and every next hop is strictly closer to the base station.
    #[test]
    fn routing_loads_are_consistent(
        sensors in arb_sensors(60),
        range in 5.0f64..30.0,
    ) {
        let loads = compute_loads(
            &sensors,
            Point::new(50.0, 50.0),
            range,
            &RadioModel::default(),
        );
        for (i, s) in sensors.iter().enumerate() {
            prop_assert!(
                (loads.out_bps[i] - s.data_rate_bps - loads.relay_in_bps[i]).abs() < 1e-6
            );
            // Next hops are strictly closer to the BS.
            for &u in loads.next_hops(i) {
                prop_assert!(loads.bs_link_m[u as usize] < loads.bs_link_m[i]);
            }
        }
    }

    /// After ANY sequence of node deaths, repaired loads still conserve
    /// the surviving traffic, dead nodes carry nothing, and every hop
    /// leads to a strictly-closer *surviving* neighbor.
    #[test]
    fn repair_survives_any_death_sequence(
        sensors in arb_sensors(60),
        range in 5.0f64..30.0,
        deaths in proptest::collection::vec(0usize..60, 0..12),
    ) {
        let bs = Point::new(50.0, 50.0);
        let model = RadioModel::default();
        let mut loads = compute_loads(&sensors, bs, range, &model);
        let mut alive = vec![true; sensors.len()];
        for d in deaths {
            if sensors.is_empty() {
                break;
            }
            alive[d % sensors.len()] = false;
            let changed = loads.repair(&sensors, bs, range, &model, &alive);
            prop_assert!(changed.iter().all(|&v| alive[v]));
            let total: f64 = sensors.iter().zip(&alive)
                .filter(|(_, &a)| a)
                .map(|(s, _)| s.data_rate_bps)
                .sum();
            prop_assert!(
                (loads.arriving_at_bs_bps_alive(&alive) - total).abs() < 1e-6 * total.max(1.0)
            );
            for (i, a) in alive.iter().enumerate() {
                if !a {
                    prop_assert_eq!(loads.out_bps[i], 0.0);
                    prop_assert!(loads.next_hops(i).is_empty());
                    continue;
                }
                for &u in loads.next_hops(i) {
                    let u = u as usize;
                    prop_assert!(alive[u], "hop through a corpse");
                    prop_assert!(loads.bs_link_m[u] < loads.bs_link_m[i]);
                }
            }
        }
    }

    /// Built networks have positive consumption everywhere and sensors
    /// inside the field.
    #[test]
    fn built_networks_are_well_formed(n in 0usize..200, seed in 0u64..100) {
        let net = NetworkBuilder::new(n).seed(seed).build();
        prop_assert_eq!(net.sensors().len(), n);
        for s in net.sensors() {
            prop_assert!(net.field().contains(s.pos));
            prop_assert!(s.consumption_w > 0.0);
            prop_assert!(s.residual_j == s.capacity_j);
        }
    }

    /// Draining then recharging restores the battery exactly.
    #[test]
    fn drain_recharge_roundtrip(n in 1usize..60, seed in 0u64..50, dt in 0.0f64..1e7) {
        let mut net = NetworkBuilder::new(n).seed(seed).build();
        net.drain_all(dt);
        for s in net.sensors_mut() {
            s.recharge_full();
        }
        prop_assert!(net.sensors().iter().all(|s| s.residual_j == s.capacity_j));
    }

    /// `time_to_next_crossing` is exact: just before, nobody new crosses;
    /// just after, someone does.
    #[test]
    fn next_crossing_is_tight(n in 2usize..80, seed in 0u64..50) {
        let mut net = NetworkBuilder::new(n).seed(seed).build();
        let before = net.default_requesting_sensors().len();
        let dt = net.time_to_next_crossing(0.2).expect("positive consumption");
        let mut early = net.clone();
        early.drain_all(dt * 0.999);
        prop_assert_eq!(early.default_requesting_sensors().len(), before);
        net.drain_all(dt * 1.001 + 1e-6);
        prop_assert!(net.default_requesting_sensors().len() > before);
    }

    /// Partial initial charges honor the configured interval.
    #[test]
    fn initial_charge_interval(
        n in 1usize..80,
        seed in 0u64..50,
        lo in 0.0f64..0.5,
        span in 0.0f64..0.4,
    ) {
        let hi = (lo + span).min(1.0);
        let net = NetworkBuilder::new(n)
            .seed(seed)
            .initial_charge(InitialCharge::UniformFraction { lo, hi })
            .build();
        for s in net.sensors() {
            let f = s.residual_j / s.capacity_j;
            prop_assert!(f >= lo - 1e-9 && f <= hi + 1e-9);
        }
    }
}
