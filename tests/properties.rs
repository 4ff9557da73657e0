//! Cross-crate property tests: random instances through the full
//! pipeline, with every schedule certified.

use proptest::prelude::*;
use wrsn::core::{
    bounds, conflict, Appro, ChargingParams, ChargingProblem, ChargingTarget, Planner,
    PlannerConfig, Schedule,
};
use wrsn::geom::Point;
use wrsn::net::SensorId;
use wrsn::sim::TraceEvent;
use wrsn_bench::PlannerKind;

fn arb_targets(max: usize) -> impl Strategy<Value = Vec<ChargingTarget>> {
    arb_targets_lasting(max, 10.0..5400.0)
}

/// Up to `max` targets whose charge durations fall in `durations`.
fn arb_targets_lasting(
    max: usize,
    durations: std::ops::Range<f64>,
) -> impl Strategy<Value = Vec<ChargingTarget>> {
    proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0, durations, 1e3f64..1e7), 0..max)
    .prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (x, y, t, life))| ChargingTarget {
                id: SensorId(i as u32),
                pos: Point::new(x, y),
                charge_duration_s: t,
                residual_lifetime_s: life,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every planner yields a certified schedule on arbitrary instances.
    #[test]
    fn all_planners_certify_on_arbitrary_instances(
        targets in arb_targets(60),
        k in 1usize..5,
    ) {
        let problem = ChargingProblem::new(
            Point::new(50.0, 50.0),
            targets,
            k,
            ChargingParams::default(),
        ).unwrap();
        for kind in PlannerKind::all() {
            let schedule = kind.build(PlannerConfig::default()).plan(&problem).unwrap();
            prop_assert!(
                schedule.certify(&problem).is_ok(),
                "{}: {:?}", kind.name(), schedule.certify(&problem)
            );
        }
    }

    /// Appro's MIS artifacts satisfy Algorithm 1's set relations.
    #[test]
    fn appro_artifacts_are_consistent(targets in arb_targets(60), k in 1usize..4) {
        let problem = ChargingProblem::new(
            Point::new(50.0, 50.0),
            targets,
            k,
            ChargingParams::default(),
        ).unwrap();
        let report = Appro::new(PlannerConfig::default()).plan_detailed(&problem).unwrap();
        // V'_H ⊆ S_I ⊆ V_s.
        prop_assert!(report.core.iter().all(|c| report.mis.contains(c)));
        prop_assert!(report.mis.iter().all(|&m| m < problem.len()));
        // Every target is covered by some S_I node (MIS of G_c).
        let mut covered = vec![false; problem.len()];
        for &m in &report.mis {
            for &u in problem.coverage(m) {
                covered[u as usize] = true;
            }
        }
        prop_assert!(covered.into_iter().all(|c| c));
        // Core nodes are pairwise conflict-free.
        for (i, &a) in report.core.iter().enumerate() {
            for &b in report.core.iter().skip(i + 1) {
                prop_assert!(conflict::coverage_overlap(&problem, a, b).is_none());
            }
        }
    }

    /// The wait-based repair always terminates with a certified schedule,
    /// and is a no-op when run twice.
    #[test]
    fn repair_is_idempotent(targets in arb_targets(40), k in 2usize..4) {
        let problem = ChargingProblem::new(
            Point::new(50.0, 50.0),
            targets,
            k,
            ChargingParams::default(),
        ).unwrap();
        // Round-robin every target to a charger: adversarial conflicts.
        let mut stops: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k];
        for i in 0..problem.len() {
            stops[i % k].push((i, problem.charge_duration(i)));
        }
        let mut schedule = Schedule::assemble(&problem, stops);
        conflict::repair_waits(&problem, &mut schedule);
        prop_assert!(schedule.certify(&problem).is_ok());
        let again = {
            let mut s = schedule.clone();
            let w = conflict::repair_waits(&problem, &mut s);
            prop_assert!(w.abs() - schedule.total_wait_time_s() <= 1e-6);
            s
        };
        prop_assert!(again.certify(&problem).is_ok());
    }

    /// Longest delay dominates every tour and equals the max return time.
    #[test]
    fn longest_delay_is_max_over_tours(targets in arb_targets(50), k in 1usize..4) {
        let problem = ChargingProblem::new(
            Point::new(50.0, 50.0),
            targets,
            k,
            ChargingParams::default(),
        ).unwrap();
        let schedule = Appro::new(PlannerConfig::default()).plan(&problem).unwrap();
        let max = schedule
            .tours
            .iter()
            .map(|t| t.return_time_s)
            .fold(0.0f64, f64::max);
        prop_assert_eq!(schedule.longest_delay_s(), max);
        for tour in &schedule.tours {
            prop_assert!(tour.return_time_s >= tour.charge_time_s());
        }
    }
}

proptest! {
    // Each case simulates a faulted monitoring period; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Charger breakdowns never lose a sensor: under arbitrary fault
    /// seeds and MTBFs every service request reconciles to exactly one
    /// of charged / stranded-then-recovered / deferred, with every
    /// dispatched and recovery plan validated, and the trace agrees
    /// with the report's failure and recovery counters.
    #[test]
    fn breakdowns_never_drop_requests(
        net_seed in 1u64..500,
        fault_seed in 1u64..500,
        mtbf_frac in 0.1f64..0.6,
        k in 2usize..4,
    ) {
        let net = wrsn::net::NetworkBuilder::new(150)
            .seed(net_seed)
            .data_rate_bps(1_000.0, 50_000.0)
            .build();
        let mut cfg = wrsn::sim::SimConfig::default();
        cfg.horizon_s = 60.0 * 86_400.0;
        cfg.batch_fraction = 0.05;
        cfg.collect_trace = true;
        cfg.validate_schedules = true;
        cfg.fault.charger_mtbf_s = mtbf_frac * cfg.horizon_s;
        cfg.fault.charger_repair_s = 12.0 * 3_600.0;
        cfg.fault.seed = fault_seed;
        let report = wrsn::sim::Simulation::new(net, cfg)
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), k)
            .unwrap();
        prop_assert!(report.service_reconciles(),
            "ledger imbalance: {} requests vs {} charged + {} recovered + {} deferred",
            report.rounds.iter().map(|r| r.request_count).sum::<usize>(),
            report.charged_sensors, report.recovered_sensors, report.deferred_sensors);
        prop_assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::ChargerFailed { .. })),
            report.charger_failures
        );
        prop_assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::RecoveryDispatched { .. })),
            report.recovery_rounds
        );
        if report.charger_failures == 0 {
            prop_assert_eq!(report.recovered_sensors + report.deferred_sensors, 0);
        }
    }

    /// Request conservation under an unreliable request channel: with
    /// arbitrary loss, delay and duplication every admitted request
    /// reconciles to exactly one of charged / recovered / deferred /
    /// shed, duplicates never double-count (the shed and duplicate
    /// tallies agree with the trace), and no request is ever shed after
    /// reaching the escalation bound.
    #[test]
    fn channel_faults_conserve_requests(
        net_seed in 1u64..500,
        channel_seed in 1u64..500,
        loss in 0.0f64..0.5,
        delay_s in 0.0f64..1_800.0,
        dup in 0.0f64..0.3,
        admit in any::<bool>(),
    ) {
        let net = wrsn::net::NetworkBuilder::new(150)
            .seed(net_seed)
            .data_rate_bps(1_000.0, 50_000.0)
            .build();
        let mut cfg = wrsn::sim::SimConfig::default();
        cfg.horizon_s = 60.0 * 86_400.0;
        cfg.batch_fraction = 0.05;
        cfg.collect_trace = true;
        cfg.validate_schedules = true;
        cfg.channel.loss_prob = loss;
        cfg.channel.delay_max_s = delay_s;
        cfg.channel.duplicate_prob = dup;
        cfg.channel.seed = channel_seed;
        if admit {
            cfg.admission_bound_s = 6.0 * 3_600.0;
            cfg.max_deferrals = 3;
        }
        let max_deferrals = cfg.max_deferrals;
        let report = wrsn::sim::Simulation::new(net, cfg)
            .unwrap()
            .run(&Appro::new(PlannerConfig::default()), 1)
            .unwrap();
        prop_assert!(report.service_reconciles(),
            "ledger imbalance: {} requests vs {} charged + {} recovered + {} deferred + {} shed",
            report.rounds.iter().map(|r| r.request_count).sum::<usize>(),
            report.charged_sensors, report.recovered_sensors,
            report.deferred_sensors, report.shed_sensors);
        prop_assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::RequestLost { .. })),
            report.lost_requests
        );
        prop_assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::RequestShed { .. })),
            report.shed_sensors
        );
        prop_assert_eq!(
            report.trace.count(|e| matches!(e, TraceEvent::RequestEscalated { .. })),
            report.escalated_requests
        );
        if !admit {
            prop_assert_eq!(report.shed_sensors + report.escalated_requests, 0);
        }
        for ev in report.trace.iter() {
            if let wrsn::sim::TraceEvent::RequestShed { deferrals, .. } = ev {
                prop_assert!(*deferrals < max_deferrals,
                    "request shed after reaching the escalation bound");
            }
        }
        if loss == 0.0 && dup == 0.0 {
            prop_assert_eq!(report.lost_requests + report.duplicates_dropped, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The base-station estimator's uncertainty interval always contains
    /// the true residual, under arbitrary noise, quantization, report
    /// cadence and drain patterns; with exact telemetry the central
    /// estimate tracks the truth to float-accumulation error; and an
    /// inert model builds no estimator at all (the engine's inert path
    /// is bit-identical by construction).
    #[test]
    fn estimator_never_exceeds_truth_bounds(
        net_seed in 1u64..500,
        tel_seed in 0u64..500,
        noise in 0.0f64..0.2,
        quantize in 0.0f64..50.0,
        interval_s in 60.0f64..7_200.0,
        steps in 1usize..40,
        step_s in 50.0f64..900.0,
    ) {
        let inert = wrsn::sim::TelemetryModel::default();
        let probe = wrsn::net::NetworkBuilder::new(5).seed(net_seed).build();
        prop_assert!(wrsn::sim::EnergyEstimator::new(&inert, &probe).is_none());

        let mut net = wrsn::net::NetworkBuilder::new(40)
            .seed(net_seed)
            .data_rate_bps(1_000.0, 50_000.0)
            .build();
        let model = wrsn::sim::TelemetryModel {
            noise,
            quantize_j: quantize,
            report_interval_s: interval_s,
            seed: tel_seed,
            ..Default::default()
        };
        let mut est = wrsn::sim::EnergyEstimator::new(&model, &net)
            .expect("a positive report interval activates the layer");
        let mut buf = Vec::new();
        let mut now = 0.0;
        for _ in 0..steps {
            net.drain_all(step_s);
            now += step_s;
            est.advance(&net, now, false, &mut buf);
            for s in net.sensors() {
                let (lo, hi) = est.interval(s, now);
                prop_assert!(lo <= hi + 1e-9);
                prop_assert!(
                    lo - 1e-9 <= s.residual_j && s.residual_j <= hi + 1e-9,
                    "truth {} escaped [{}, {}] (noise {}, quantize {}, stale {})",
                    s.residual_j, lo, hi, noise, quantize, now
                );
                if noise == 0.0 && quantize == 0.0 {
                    prop_assert!(
                        (est.estimate(s, now) - s.residual_j).abs() <= 1e-6,
                        "exact telemetry must dead-reckon the truth"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1 on generated instances: Appro's longest delay is at
    /// most ρ times the instance lower bound, and the lower bound is at
    /// most OPT, so each case proves the theorem on its instance.
    /// Durations of 1,000–5,400 s keep ρ finite.
    #[test]
    fn appro_is_within_rho_of_the_lower_bound(
        targets in arb_targets_lasting(60, 1_000.0..5_400.0),
        k in 1usize..4,
    ) {
        let problem = ChargingProblem::new(
            Point::new(50.0, 50.0),
            targets,
            k,
            ChargingParams::default(),
        ).unwrap();
        let delay = Appro::new(PlannerConfig::default()).plan(&problem).unwrap().longest_delay_s();
        match bounds::rho(&problem) {
            None => prop_assert!(problem.is_empty()),
            Some(rho) => {
                let lb = bounds::lower_bound(&problem);
                prop_assert!(delay <= rho * lb, "delay {delay} > ρ {rho} × lower bound {lb}");
            }
        }
    }
}
