//! Extension experiments beyond the paper's evaluation:
//!
//! 1. **Deployment robustness** — the paper deploys uniformly; do the
//!    relative results survive clustered (Gaussian hotspots) and planned
//!    (jittered grid) deployments?
//! 2. **Partial charging** — the paper's related work (Liang et al.
//!    [15]) contrasts full vs partial charging. Charging to a fraction
//!    of capacity shortens every sojourn but makes sensors request again
//!    sooner; this sweep quantifies the trade-off on the year-long
//!    simulation.
//! 3. **Dispatch mode** — synchronous rounds (all K together, barrier at
//!    the longest tour) vs per-charger pipelining (`AsyncSimulation`).
//! 4. **Fleet sizing** — the minimum `K` each planner needs to keep the
//!    network essentially alive (the \[13\]\[14\] question): a smarter
//!    scheduler is directly worth chargers.
//! 5. **Resilience** — dead time vs charger MTBF: how gracefully each
//!    planner's schedules truncate and re-plan when MCVs break down
//!    mid-tour and recovery rounds run on the surviving fleet.
//! 6. **Shared-context fan-out** — all planners evaluated concurrently
//!    per seed against one shared `ProblemContext`. Context build time
//!    and per-planner plan time are reported separately and archived as
//!    `target/wrsn-results/context_fanout.json`.
//! 7. **Channel degradation** — longest round delay and shed rate vs
//!    request-loss probability per planner, on a saturated K=1 fleet
//!    with admission control active; archived as
//!    `target/wrsn-results/channel_degradation.json`.
//! 8. **Telemetry guard margins** — dead time, overcharged/undercharged
//!    energy and interval misses vs the guard margin and report cadence
//!    under noisy residual telemetry (Appro, K=2): how much pessimism
//!    the base-station estimator should buy. Archived as
//!    `target/wrsn-results/telemetry_sweep.json`.
//! 9. **Churn cascade sweep** — permanent sensor hardware failures vs
//!    the cascade-alarm threshold (Appro, K=2): how many routing
//!    repairs, cascade escalations and partitions a given sensor MTBF
//!    causes, and what that does to dead time. Post-repair traffic
//!    conservation is asserted on every cell. Archived as
//!    `target/wrsn-results/churn_cascade.json`.
//! 10. **Charger energy sweep** — finite MCV batteries (capacity ×
//!     fleet size, Appro): how many depot detours, exhaustions and
//!     rescues a given tank forces, how much of the fleet's energy goes
//!     to travel vs transfer, and what the resulting service degradation
//!     costs in dead time. The charger energy ledger is asserted to
//!     reconcile on every cell. Archived as
//!     `target/wrsn-results/charger_energy.json`.
//!
//! Knobs: `WRSN_INSTANCES` (default 5), `WRSN_HORIZON_DAYS` (default 120).

use wrsn_bench::{env_f64, env_usize, MonitoringExperiment, PlannerKind, SnapshotExperiment};
use wrsn_core::{ChargingParams, ChargingProblem, PlannerConfig};
use wrsn_net::{Deployment, NetworkBuilder};
use wrsn_sim::{AsyncSimulation, SimConfig, Simulation};

fn main() {
    let instances = env_usize("WRSN_INSTANCES", 5);
    let horizon_s = env_f64("WRSN_HORIZON_DAYS", 120.0) * 86_400.0;

    println!("## Deployment robustness (n=800, K=2, longest tour in hours)\n");
    let deployments: [(&str, Deployment); 3] = [
        ("uniform (paper)", Deployment::Uniform),
        ("gaussian hotspots", Deployment::GaussianClusters { clusters: 5, sigma_m: 12.0 }),
        ("jittered grid", Deployment::Grid { jitter_m: 3.0 }),
    ];
    print!("{:>20}", "deployment");
    for kind in PlannerKind::extended() {
        print!("{:>11}", kind.name());
    }
    println!();
    for (label, dep) in deployments {
        print!("{label:>20}");
        for kind in PlannerKind::extended() {
            let planner = kind.build(PlannerConfig::default());
            let mut sum = 0.0;
            for i in 0..instances {
                let mut net = NetworkBuilder::new(800)
                    .seed(3_000 + i as u64)
                    .deployment(dep)
                    .build();
                let requests = Simulation::warm_up_period(&mut net, 0.2, 5.0 * 86_400.0);
                let problem = ChargingProblem::from_network(&net, &requests, 2)
                    .expect("valid instance");
                let schedule = planner.plan(&problem).expect("planner is complete");
                debug_assert!(schedule.certify(&problem).is_ok());
                sum += schedule.longest_delay_s();
            }
            print!("{:>11.2}", sum / instances as f64 / 3600.0);
        }
        println!();
    }

    println!("\n## Partial charging (n=900, K=2, Appro, {:.0}-day horizon)\n", horizon_s / 86_400.0);
    println!(
        "{:>8} {:>8} {:>14} {:>16} {:>14}",
        "target", "rounds", "mean round (h)", "dead (min/sensor)", "utilization"
    );
    for frac in [0.5f64, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let (mut rounds, mut round_len, mut dead, mut util) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..instances {
            let net = NetworkBuilder::new(900).seed(4_000 + i as u64).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = horizon_s;
            cfg.params = ChargingParams::with_partial_charging(frac);
            let report = Simulation::new(net, cfg).unwrap()
                .run(
                    PlannerKind::Appro.build(PlannerConfig::default()).as_ref(),
                    2,
                )
                .expect("planner is complete");
            rounds += report.rounds_dispatched() as f64;
            round_len += report.avg_longest_delay_s();
            dead += report.avg_dead_time_s();
            util += report.charger_utilization(2, cfg.params.eta_w);
        }
        let f = instances as f64;
        println!(
            "{:>8.1} {:>8.0} {:>14.2} {:>16.1} {:>14.2}",
            frac,
            rounds / f,
            round_len / f / 3600.0,
            dead / f / 60.0,
            util / f
        );
    }

    println!("\n## Dispatch mode (Appro, K=2, {:.0}-day horizon)\n", horizon_s / 86_400.0);
    println!("{:>6} {:>22} {:>22}", "n", "sync dead (min)", "async dead (min)");
    for n in [600usize, 900, 1100] {
        let (mut sync_dead, mut async_dead) = (0.0, 0.0);
        for i in 0..instances {
            let mut cfg = SimConfig::default();
            cfg.horizon_s = horizon_s;
            let planner = PlannerKind::Appro.build(PlannerConfig::default());
            let net = NetworkBuilder::new(n).seed(5_000 + i as u64).build();
            sync_dead += Simulation::new(net.clone(), cfg).unwrap()
                .run(planner.as_ref(), 2)
                .expect("planner is complete")
                .avg_dead_time_s();
            async_dead += AsyncSimulation::new(net, cfg).unwrap()
                .run(planner.as_ref(), 2)
                .expect("planner is complete")
                .avg_dead_time_s();
        }
        let f = instances as f64;
        println!(
            "{:>6} {:>22.1} {:>22.1}",
            n,
            sync_dead / f / 60.0,
            async_dead / f / 60.0
        );
    }

    println!(
        "\n## Fleet sizing (n=1000, {:.0}-day horizon, tolerance 10 min dead/sensor)\n",
        horizon_s / 86_400.0
    );
    println!("{:>10} {:>14}", "planner", "min chargers");
    for kind in PlannerKind::extended() {
        let planner = kind.build(PlannerConfig::default());
        let mut needed = Vec::new();
        for i in 0..instances.min(3) {
            let net = NetworkBuilder::new(1000).seed(6_000 + i as u64).build();
            let mut cfg = SimConfig::default();
            cfg.horizon_s = horizon_s;
            let sizing =
                wrsn_sim::fleet::minimum_chargers(&net, planner.as_ref(), &cfg, 6, 600.0)
                    .expect("planner is complete");
            needed.push(sizing.min_chargers.map_or(7.0, |k| k as f64));
        }
        let mean = needed.iter().sum::<f64>() / needed.len() as f64;
        println!("{:>10} {:>14.1}", kind.name(), mean);
    }

    println!(
        "\n## Resilience (n=900, K=2, {:.0}-day horizon, dead min/sensor vs charger MTBF)\n",
        horizon_s / 86_400.0
    );
    print!("{:>16}", "MTBF (horizons)");
    for kind in PlannerKind::extended() {
        print!("{:>11}", kind.name());
    }
    println!();
    for mtbf_fraction in [0.0f64, 1.0, 0.5, 0.25] {
        let label =
            if mtbf_fraction == 0.0 { "no faults".to_string() } else { format!("{mtbf_fraction}") };
        print!("{label:>16}");
        // The MTBF is a fraction of the horizon: at 0.25 a charger breaks
        // down four times per monitoring period in expectation.
        let mut resilience =
            MonitoringExperiment { n: 900, instances, base_seed: 3_000, horizon_s, ..Default::default() };
        resilience.sim.fault.charger_mtbf_s = mtbf_fraction * horizon_s;
        resilience.sim.fault.charger_repair_s = 24.0 * 3600.0;
        for kind in PlannerKind::extended() {
            let row = resilience.run_planner(kind, mtbf_fraction);
            print!("{:>11.1}", row.mean / 60.0);
        }
        println!();
    }

    println!(
        "\n## Shared-context planner fan-out (n=800, K=2, {instances} seeds, times in ms)\n"
    );
    let fanout = SnapshotExperiment { n: 800, instances, base_seed: 1, ..Default::default() };
    let shared = fanout.fan_out(&PlannerKind::extended());
    println!("{:>10} {:>14} {:>16}", "planner", "plan", "longest (h)");
    let mut planner_rows = Vec::new();
    for kind in PlannerKind::extended() {
        let mean = |cells: &[wrsn_bench::FanoutCell], f: &dyn Fn(&wrsn_bench::FanoutCell) -> f64| {
            let xs: Vec<f64> =
                cells.iter().filter(|c| c.planner == kind.name()).map(f).collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let plan = mean(&shared.cells, &|c| c.plan_s);
        let longest_h = mean(&shared.cells, &|c| c.longest_delay_s) / 3600.0;
        println!("{:>10} {:>14.1} {:>16.2}", kind.name(), plan * 1e3, longest_h);
        planner_rows.push(serde_json::json!({
            "name": kind.name(),
            "plan_s": plan,
            "longest_h": longest_h,
        }));
    }
    println!(
        "\ncontext build {:.1} ms; plan total {:.1} ms",
        shared.context_build_s * 1e3,
        shared.total_plan_s() * 1e3
    );
    let doc = serde_json::json!({
        "context_build_s": shared.context_build_s,
        "planners": planner_rows,
        "warm_total_s": shared.total_plan_s(),
    });
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("wrsn-results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("context_fanout.json");
        let json = serde_json::to_string_pretty(&doc).expect("printing cannot fail");
        if std::fs::write(&path, json).is_ok() {
            println!("wrote {}", path.display());
        }
    }

    println!(
        "\n## Channel degradation (n=700, K=1, {:.0}-day horizon, admission bound 8 h)\n",
        horizon_s / 86_400.0
    );
    println!(
        "{:>10} {:>6} {:>14} {:>12} {:>12} {:>12}",
        "planner", "loss", "mean round (h)", "shed rate", "lost reqs", "dead (min)"
    );
    let mut degradation_rows = Vec::new();
    for kind in PlannerKind::all() {
        let planner = kind.build(PlannerConfig::default());
        for loss in [0.0f64, 0.1, 0.3] {
            let (mut round_len, mut shed, mut requests, mut lost, mut dead) =
                (0.0, 0usize, 0usize, 0usize, 0.0);
            for i in 0..instances {
                let net = NetworkBuilder::new(700).seed(7_000 + i as u64).build();
                let mut cfg = SimConfig::default();
                cfg.horizon_s = horizon_s;
                cfg.channel.loss_prob = loss;
                cfg.channel.delay_max_s = 600.0;
                cfg.channel.seed = 70 + i as u64;
                cfg.admission_bound_s = 8.0 * 3_600.0;
                let report = Simulation::new(net, cfg).unwrap()
                    .run(planner.as_ref(), 1)
                    .expect("planner is complete");
                assert!(report.service_reconciles(), "ledger must balance");
                round_len += report.avg_longest_delay_s();
                shed += report.shed_sensors;
                requests += report.rounds.iter().map(|r| r.request_count).sum::<usize>();
                lost += report.lost_requests;
                dead += report.avg_dead_time_s();
            }
            let f = instances as f64;
            let shed_rate = shed as f64 / (requests.max(1)) as f64;
            println!(
                "{:>10} {:>6.1} {:>14.2} {:>12.3} {:>12.1} {:>12.1}",
                kind.name(),
                loss,
                round_len / f / 3600.0,
                shed_rate,
                lost as f64 / f,
                dead / f / 60.0
            );
            degradation_rows.push(serde_json::json!({
                "planner": kind.name(),
                "loss": loss,
                "mean_round_s": round_len / f,
                "shed_rate": shed_rate,
                "lost_requests": lost as f64 / f,
                "dead_s": dead / f,
            }));
        }
    }
    let degradation = serde_json::json!({
        "n": 700,
        "k": 1,
        "horizon_days": horizon_s / 86_400.0,
        "admission_bound_h": 8.0,
        "rows": degradation_rows,
    });
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("channel_degradation.json");
        let json = serde_json::to_string_pretty(&degradation).expect("printing cannot fail");
        if std::fs::write(&path, json).is_ok() {
            println!("wrote {}", path.display());
        }
    }

    println!(
        "\n## Telemetry guard margins (n=700, K=2, Appro, {:.0}-day horizon, noise 5 %)\n",
        horizon_s / 86_400.0
    );
    println!(
        "{:>14} {:>8} {:>12} {:>12} {:>12} {:>8} {:>10}",
        "interval (min)", "margin", "dead (min)", "over (MJ)", "under (MJ)", "misses", "p95 (J)"
    );
    let mut telemetry_rows = Vec::new();
    let planner = PlannerKind::Appro.build(PlannerConfig::default());
    for interval_min in [60.0f64, 600.0] {
        for margin in [0.0f64, 0.5, 1.0, 2.0] {
            let (mut dead, mut over, mut under, mut misses, mut p95) =
                (0.0, 0.0, 0.0, 0usize, 0.0);
            for i in 0..instances {
                let net = NetworkBuilder::new(700).seed(8_000 + i as u64).build();
                let mut cfg = SimConfig::default();
                cfg.horizon_s = horizon_s;
                cfg.telemetry.noise = 0.05;
                cfg.telemetry.report_interval_s = interval_min * 60.0;
                cfg.telemetry.quantize_j = 10.0;
                cfg.telemetry.guard_margin = margin;
                cfg.telemetry.seed = 80 + i as u64;
                let report = Simulation::new(net, cfg).unwrap()
                    .run(planner.as_ref(), 2)
                    .expect("planner is complete");
                assert!(report.service_reconciles(), "ledger must balance");
                assert!(report.energy_reconciles(), "energy ledger must balance");
                dead += report.avg_dead_time_s();
                over += report.overcharge_j;
                under += report.undercharge_j;
                misses += report.estimate_misses;
                p95 += report.estimator_error_percentile(95.0);
            }
            let f = instances as f64;
            println!(
                "{:>14.0} {:>8.1} {:>12.1} {:>12.2} {:>12.2} {:>8.1} {:>10.1}",
                interval_min,
                margin,
                dead / f / 60.0,
                over / f / 1e6,
                under / f / 1e6,
                misses as f64 / f,
                p95 / f
            );
            telemetry_rows.push(serde_json::json!({
                "interval_min": interval_min,
                "guard_margin": margin,
                "dead_s": dead / f,
                "overcharge_j": over / f,
                "undercharge_j": under / f,
                "estimate_misses": misses as f64 / f,
                "estimate_err_p95_j": p95 / f,
            }));
        }
    }
    let telemetry = serde_json::json!({
        "n": 700,
        "k": 2,
        "horizon_days": horizon_s / 86_400.0,
        "noise": 0.05,
        "quantize_j": 10.0,
        "rows": telemetry_rows,
    });
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("telemetry_sweep.json");
        let json = serde_json::to_string_pretty(&telemetry).expect("printing cannot fail");
        if std::fs::write(&path, json).is_ok() {
            println!("wrote {}", path.display());
        }
    }

    println!(
        "\n## Churn cascade sweep (n=700, K=2, Appro, {:.0}-day horizon)\n",
        horizon_s / 86_400.0
    );
    println!(
        "{:>16} {:>8} {:>8} {:>9} {:>10} {:>11} {:>12}",
        "MTBF (horizons)", "factor", "failed", "repairs", "cascades", "partitions", "dead (min)"
    );
    let mut churn_rows = Vec::new();
    let planner = PlannerKind::Appro.build(PlannerConfig::default());
    for mtbf_fraction in [0.0f64, 2.0, 1.0, 0.5] {
        // With churn off the cascade threshold is inert; one row suffices.
        let factors: &[f64] = if mtbf_fraction == 0.0 { &[1.5] } else { &[1.2, 1.5, 2.0] };
        for &factor in factors {
            let (mut failed, mut repairs, mut cascades, mut partitions, mut dead) =
                (0usize, 0usize, 0usize, 0usize, 0.0);
            for i in 0..instances {
                let net = NetworkBuilder::new(700).seed(9_000 + i as u64).build();
                let mut cfg = SimConfig::default();
                cfg.horizon_s = horizon_s;
                cfg.churn.sensor_mtbf_s = mtbf_fraction * horizon_s;
                cfg.churn.cascade_factor = factor;
                cfg.churn.seed = 90 + i as u64;
                let report = Simulation::new(net, cfg).unwrap()
                    .run(planner.as_ref(), 2)
                    .expect("planner is complete");
                assert!(report.service_reconciles(), "ledger must balance");
                assert!(report.traffic_conserved(), "post-repair traffic must conserve");
                failed += report.failed_sensors;
                repairs += report.routing_repairs;
                cascades += report.cascade_alerts;
                partitions += report.partitioned_sensors;
                dead += report.avg_dead_time_s();
            }
            let f = instances as f64;
            let label = if mtbf_fraction == 0.0 {
                "no churn".to_string()
            } else {
                format!("{mtbf_fraction}")
            };
            println!(
                "{label:>16} {:>8.1} {:>8.1} {:>9.1} {:>10.1} {:>11.1} {:>12.1}",
                factor,
                failed as f64 / f,
                repairs as f64 / f,
                cascades as f64 / f,
                partitions as f64 / f,
                dead / f / 60.0
            );
            churn_rows.push(serde_json::json!({
                "mtbf_horizons": mtbf_fraction,
                "cascade_factor": factor,
                "failed_sensors": failed as f64 / f,
                "routing_repairs": repairs as f64 / f,
                "cascade_alerts": cascades as f64 / f,
                "partitioned_sensors": partitions as f64 / f,
                "dead_s": dead / f,
            }));
        }
    }
    let churn_doc = serde_json::json!({
        "n": 700,
        "k": 2,
        "horizon_days": horizon_s / 86_400.0,
        "rows": churn_rows,
    });
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("churn_cascade.json");
        let json = serde_json::to_string_pretty(&churn_doc).expect("printing cannot fail");
        if std::fs::write(&path, json).is_ok() {
            println!("wrote {}", path.display());
        }
    }

    println!(
        "\n## Charger energy sweep (n=700, Appro, {:.0}-day horizon, \
         50 J/m travel, eta 0.9, 200 W depot, 30 % jitter, rescue on)\n",
        horizon_s / 86_400.0
    );
    println!(
        "{:>10} {:>4} {:>10} {:>8} {:>8} {:>9} {:>10} {:>11} {:>12}",
        "cap (kJ)", "K", "recharges", "exhaust", "rescues", "dropped", "travel MJ", "transfer MJ", "dead (min)"
    );
    let mut energy_rows = Vec::new();
    let planner = PlannerKind::Appro.build(PlannerConfig::default());
    for capacity_kj in [f64::INFINITY, 100.0, 50.0, 25.0] {
        for k in [1usize, 2, 3] {
            let (mut recharges, mut exhaustions, mut rescues, mut dropped) =
                (0usize, 0usize, 0usize, 0usize);
            let (mut travel, mut transfer, mut dead) = (0.0, 0.0, 0.0);
            for i in 0..instances {
                let net = NetworkBuilder::new(700).seed(10_000 + i as u64).build();
                let mut cfg = SimConfig::default();
                cfg.horizon_s = horizon_s;
                cfg.energy.capacity_j = capacity_kj * 1e3;
                cfg.energy.travel_j_per_m = 50.0;
                cfg.energy.transfer_efficiency = 0.9;
                cfg.energy.recharge_w = 200.0;
                cfg.energy.rescue = true;
                // Travel jitter is what actually strands a charger: the
                // energy budget is planned from nominal tour lengths, so
                // a long-jittered leg can drain the tank mid-tour.
                cfg.fault.travel_jitter = 0.3;
                cfg.fault.seed = 100 + i as u64;
                let report = Simulation::new(net, cfg).unwrap()
                    .run(planner.as_ref(), k)
                    .expect("planner is complete");
                assert!(report.service_reconciles(), "ledger must balance");
                assert!(
                    report.charger_energy_reconciles(),
                    "charger energy ledger must balance"
                );
                recharges += report.depot_recharges;
                exhaustions += report.charger_exhaustions;
                rescues += report.rescue_dispatches;
                dropped += report.energy_dropped_stops;
                travel += report.charger_travel_j;
                transfer += report.charger_transfer_j;
                dead += report.avg_dead_time_s();
            }
            let f = instances as f64;
            let cap_label = if capacity_kj.is_finite() {
                format!("{capacity_kj:.0}")
            } else {
                "unlimited".to_string()
            };
            println!(
                "{cap_label:>10} {k:>4} {:>10.1} {:>8.1} {:>8.1} {:>9.1} {:>10.2} {:>11.2} {:>12.1}",
                recharges as f64 / f,
                exhaustions as f64 / f,
                rescues as f64 / f,
                dropped as f64 / f,
                travel / f / 1e6,
                transfer / f / 1e6,
                dead / f / 60.0
            );
            energy_rows.push(serde_json::json!({
                "capacity_kj": if capacity_kj.is_finite() {
                    serde_json::json!(capacity_kj)
                } else {
                    serde_json::json!(null)
                },
                "k": k,
                "depot_recharges": recharges as f64 / f,
                "charger_exhaustions": exhaustions as f64 / f,
                "rescue_dispatches": rescues as f64 / f,
                "energy_dropped_stops": dropped as f64 / f,
                "charger_travel_j": travel / f,
                "charger_transfer_j": transfer / f,
                "dead_s": dead / f,
            }));
        }
    }
    let energy_doc = serde_json::json!({
        "n": 700,
        "horizon_days": horizon_s / 86_400.0,
        "travel_j_per_m": 50.0,
        "transfer_efficiency": 0.9,
        "recharge_w": 200.0,
        "travel_jitter": 0.3,
        "rescue": true,
        "rows": energy_rows,
    });
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("charger_energy.json");
        let json = serde_json::to_string_pretty(&energy_doc).expect("printing cannot fail");
        if std::fs::write(&path, json).is_ok() {
            println!("wrote {}", path.display());
        }
    }
}
