//! Physical-conservation and cross-engine consistency tests for the
//! simulators.

use proptest::prelude::*;
use wrsn_core::{Appro, PlannerConfig};
use wrsn_net::NetworkBuilder;
use wrsn_sim::{AsyncSimulation, SimConfig, Simulation};

fn days(d: f64) -> f64 {
    d * 24.0 * 3600.0
}

#[test]
fn energy_balance_holds() {
    // Over the horizon: initial + delivered − consumed = final + clipped.
    // Without tracking clipping (dead sensors stop consuming), the exact
    // identity is an inequality in both directions with a slack bound:
    // delivered ≤ consumed-from-batteries + final-deficit rearrangements.
    // We assert the two robust directions:
    //   1. delivered ≥ final total residual − initial total residual
    //      (batteries cannot gain energy from nowhere);
    //   2. delivered ≤ Σ consumption·horizon + Σ capacity (cannot deliver
    //      more than was drained plus one full fill of every battery).
    let net = NetworkBuilder::new(300).seed(21).build();
    let initial: f64 = net.sensors().iter().map(|s| s.residual_j).sum();
    let capacity: f64 = net.sensors().iter().map(|s| s.capacity_j).sum();
    let drain_bound: f64 = net.total_consumption_w() * days(90.0);

    let mut cfg = SimConfig::default();
    cfg.horizon_s = days(90.0);
    let report = Simulation::new(net, cfg).unwrap()
        .run(&Appro::new(PlannerConfig::default()), 2)
        .unwrap();
    let delivered = report.energy_delivered_j();
    assert!(delivered >= -1e-6);
    assert!(
        delivered <= drain_bound + capacity,
        "delivered {delivered:.0} exceeds drain {drain_bound:.0} + capacity {capacity:.0}"
    );
    // With zero dead time the network is in steady state: delivered must
    // be within a battery-bank of the total drain.
    if report.total_dead_time_s() == 0.0 {
        assert!(
            (delivered - drain_bound).abs() <= capacity + initial,
            "steady state delivered {delivered:.0} vs drained {drain_bound:.0}"
        );
    }
}

#[test]
fn dead_time_is_monotone_in_horizon() {
    let run = |d: f64| {
        let net = NetworkBuilder::new(900).seed(22).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = days(d);
        Simulation::new(net, cfg).unwrap()
            .run(&Appro::new(PlannerConfig::default()), 1)
            .unwrap()
            .total_dead_time_s()
    };
    let short = run(60.0);
    let long = run(120.0);
    assert!(long >= short - 1e-6, "dead time cannot shrink with a longer horizon");
}

#[test]
fn sync_and_async_agree_on_light_load() {
    // Under light load both engines should keep everyone alive and
    // deliver comparable energy.
    let mk = || NetworkBuilder::new(150).seed(23).build();
    let mut cfg = SimConfig::default();
    cfg.horizon_s = days(60.0);
    let sync = Simulation::new(mk(), cfg).unwrap()
        .run(&Appro::new(PlannerConfig::default()), 2)
        .unwrap();
    let asyn = AsyncSimulation::new(mk(), cfg).unwrap()
        .run(&Appro::new(PlannerConfig::default()), 2)
        .unwrap();
    assert_eq!(sync.total_dead_time_s(), 0.0);
    assert_eq!(asyn.total_dead_time_s(), 0.0);
    let (es, ea) = (sync.energy_delivered_j(), asyn.energy_delivered_j());
    assert!(
        (es - ea).abs() <= 0.2 * es.max(ea),
        "engines disagree on delivered energy: sync {es:.0} vs async {ea:.0}"
    );
}

#[test]
fn rounds_cover_the_horizon_without_overlap() {
    let net = NetworkBuilder::new(400).seed(24).build();
    let mut cfg = SimConfig::default();
    cfg.horizon_s = days(60.0);
    let report = Simulation::new(net, cfg).unwrap()
        .run(&Appro::new(PlannerConfig::default()), 2)
        .unwrap();
    let mut prev_end = 0.0f64;
    for r in &report.rounds {
        assert!(r.dispatch_time_s + 1e-6 >= prev_end);
        prev_end = r.dispatch_time_s + r.longest_delay_s;
    }
    // The last dispatch must start within the horizon.
    if let Some(last) = report.rounds.last() {
        assert!(last.dispatch_time_s < cfg.horizon_s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under any combination of finite charger energy, charger faults
    /// and sensor churn, both engines keep their books: the per-charger
    /// energy ledger conserves (initial + recharged = traveled +
    /// transferred/η + residual) and no request is silently dropped,
    /// even when a charger strands mid-tour or splitting drops stops a
    /// full battery cannot reach. `inert_sel == 0` covers the infinite
    /// tank; finite tanks sweep from generous down past the worst
    /// single-stop need, exercising the dropped-stop and refill-wait
    /// paths too.
    #[test]
    fn charger_ledger_conserves_under_fault_churn_energy(
        energy_raw in (
            0u8..5,
            15.0e3..45.0e3f64,
            20.0..60.0f64,
            0.7..1.0f64,
            50.0..400.0f64,
            any::<bool>(),
        ),
        seeds in (1u64..200, 0u64..100, 0u64..100),
        jitter in 0.0..0.5f64,
        toggles in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let (inert_sel, capacity_j, travel_j_per_m, transfer_efficiency, recharge_w, rescue) =
            energy_raw;
        let (net_seed, fault_seed, churn_seed) = seeds;
        let (faults_on, churn_on, use_async) = toggles;
        let net = NetworkBuilder::new(60).seed(net_seed).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = days(20.0);
        if inert_sel > 0 {
            cfg.energy = wrsn_core::ChargerEnergyModel {
                capacity_j,
                travel_j_per_m,
                transfer_efficiency,
                recharge_w,
                rescue,
            };
        }
        cfg.fault.travel_jitter = jitter;
        cfg.fault.seed = fault_seed;
        if faults_on {
            cfg.fault.charger_mtbf_s = cfg.horizon_s;
            cfg.fault.charger_repair_s = 12.0 * 3600.0;
        }
        if churn_on {
            cfg.churn.sensor_mtbf_s = 4.0 * cfg.horizon_s;
            cfg.churn.seed = churn_seed;
        }
        let planner = Appro::new(PlannerConfig::default());
        let report = if use_async {
            AsyncSimulation::new(net, cfg).unwrap().run(&planner, 2).unwrap()
        } else {
            Simulation::new(net, cfg).unwrap().run(&planner, 2).unwrap()
        };
        prop_assert!(
            report.charger_energy_reconciles(),
            "charger ledger: initial {} + recharged {} != traveled {} + transfer {} + residual {}",
            report.charger_initial_j,
            report.charger_recharged_j,
            report.charger_travel_j,
            report.charger_transfer_j,
            report.charger_residual_j,
        );
        prop_assert!(report.service_reconciles(), "request silently lost");
        prop_assert_eq!(report.audit_failure(), None);
    }
}

#[test]
fn failure_injection_reduces_workload() {
    // Heavy hardware churn shrinks demand, so fewer recharges happen.
    let run = |mtbf_days: f64| {
        let net = NetworkBuilder::new(400).seed(25).build();
        let mut cfg = SimConfig::default();
        cfg.horizon_s = days(90.0);
        cfg.churn.sensor_mtbf_s = days(mtbf_days);
        cfg.churn.seed = 25;
        Simulation::new(net, cfg).unwrap()
            .run(&Appro::new(PlannerConfig::default()), 2)
            .unwrap()
    };
    let healthy = run(0.0);
    let failing = run(91.25); // four failures per sensor-year: most fail within 90 days
    assert!(failing.failed_sensors > 200);
    assert!(
        failing.energy_delivered_j() < healthy.energy_delivered_j(),
        "a mostly-failed network must demand less energy"
    );
}
