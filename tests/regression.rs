//! Bit-exact regression pins for the simulation and planning paths.
//!
//! The fault-injection machinery (`FaultModel`) must be a strict no-op
//! when inactive: with `FaultModel::default()` every planner's
//! `SimReport` has to stay bit-identical to the pre-fault engine, which
//! in particular means the fault path may draw *zero* RNG values when
//! disabled. These tests pin an FNV-1a digest of every numeric report
//! field for seeds 1–5 x the paper's five planners x both engines; any
//! perturbation of the simulation trajectory flips the digest. Runs
//! with active layers are pinned too (`EXPECTED_LAYERED`), down to every
//! report field and trace event.
//!
//! If a future PR changes the engine's *intended* semantics, rerun
//! `print_digests` (below, `#[ignore]`) and update the tables.

use wrsn_bench::PlannerKind;
use wrsn_core::PlannerConfig;
use wrsn_net::NetworkBuilder;
use wrsn_sim::{AsyncSimulation, SimConfig, SimReport, Simulation};

const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];
const N: usize = 250;
const K: usize = 2;
const HORIZON_S: f64 = 60.0 * 24.0 * 3600.0;

fn network(seed: u64) -> wrsn_net::Network {
    // High data rates + a batch rule keep request sets multi-sensor, so
    // the digests separate the planners instead of pinning the shared
    // single-request trajectory.
    NetworkBuilder::new(N).seed(seed).data_rate_bps(1_000.0, 50_000.0).build()
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds every numeric field of a report into one order-sensitive hash.
fn digest(report: &SimReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut f = |x: f64| fnv1a(&mut h, &x.to_bits().to_le_bytes());
    f(report.horizon_s);
    f(report.failed_sensors as f64);
    for r in &report.rounds {
        f(r.dispatch_time_s);
        f(r.request_count as f64);
        f(r.longest_delay_s);
        f(r.total_wait_s);
        f(r.sojourn_count as f64);
        f(r.energy_delivered_j);
    }
    for &d in &report.dead_time_s {
        f(d);
    }
    h
}

fn sim_config() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.horizon_s = HORIZON_S;
    cfg.batch_fraction = 0.05;
    cfg
}

fn run_sync(seed: u64, kind: PlannerKind) -> u64 {
    let planner = kind.build(PlannerConfig::default());
    let report = Simulation::new(network(seed), sim_config()).expect("valid config")
        .run(planner.as_ref(), K)
        .expect("planners are complete");
    digest(&report)
}

fn run_async(seed: u64, kind: PlannerKind) -> u64 {
    let planner = kind.build(PlannerConfig::default());
    let report = AsyncSimulation::new(network(seed), sim_config()).expect("valid config")
        .run(planner.as_ref(), K)
        .expect("planners are complete");
    digest(&report)
}

/// Pinned digests, row per planner (paper order), column per seed 1–5.
/// (AA and K-minMax legitimately coincide under the async engine: its
/// fair-share K=1 subproblems erase their partitioning differences.)
const EXPECTED_SYNC: [[u64; 5]; 5] = [
    [0xc0a3ea8a83b04d6a, 0xcaf3a7308c04b4fa, 0x83a376af352ecdd0, 0x199697dcf8062de3, 0x0dd7449d19b779a2], // Appro
    [0x7ec99fc3eed830e5, 0x925a9a00dbd6a192, 0xbb31d7799dc534aa, 0x981c1d8940023097, 0x9bf8e5fbccde228a], // K-EDF
    [0x0b59847b9ef62924, 0x5169ef02b5dacaf0, 0xb3282681df63d67d, 0x1732c6a161b33d9f, 0xcc87fbec292d0bb8], // NETWRAP
    [0xa159c7a29b3d0b36, 0x52251ee692e6b8b6, 0x84314be615054c08, 0xa3f9d21e1d635a60, 0x99783f8c304757fe], // AA
    [0x811ac30e19300c77, 0xa95314a02bd928d3, 0x5b73fb7b4715accc, 0xc357c0462c8b7cc0, 0x943c225cff50461d], // K-minMax
];
const EXPECTED_ASYNC: [[u64; 5]; 5] = [
    [0xa2c22ffa815c2f10, 0x39fe40132e4abef3, 0x501b04d02fad18d1, 0xaf7b69c1213c4f61, 0x9e980892d3532d42], // Appro
    [0x212a37bf6e71367b, 0x7ab0159b727a4d7f, 0xbf9eb313bf01826a, 0xe45599f48dae9741, 0x48fae3fcfbb9e63a], // K-EDF
    [0x5707db13ffed1c57, 0xa98d582a4f6255a3, 0xdf3e2c42e406c93b, 0x0803e14adf19f9e1, 0x47742c828e5a9e7e], // NETWRAP
    [0x6a0a5cf897104680, 0x800a0fd743a3f6ee, 0x2e90a4bfdf1c2e69, 0x0f9d10c2ac615905, 0x8b196cb6747eef28], // AA
    [0x6a0a5cf897104680, 0x800a0fd743a3f6ee, 0x2e90a4bfdf1c2e69, 0x0f9d10c2ac615905, 0x8b196cb6747eef28], // K-minMax
];

#[test]
fn sync_reports_are_bit_identical_to_baseline() {
    for (p, &kind) in PlannerKind::all().iter().enumerate() {
        for (s, &seed) in SEEDS.iter().enumerate() {
            let got = run_sync(seed, kind);
            assert_eq!(
                got, EXPECTED_SYNC[p][s],
                "sync digest drifted: planner {} seed {seed} (got {got:#018x})",
                kind.name(),
            );
        }
    }
}

#[test]
fn async_reports_are_bit_identical_to_baseline() {
    for (p, &kind) in PlannerKind::all().iter().enumerate() {
        for (s, &seed) in SEEDS.iter().enumerate() {
            let got = run_async(seed, kind);
            assert_eq!(
                got, EXPECTED_ASYNC[p][s],
                "async digest drifted: planner {} seed {seed} (got {got:#018x})",
                kind.name(),
            );
        }
    }
}

/// The request-channel layer (`ChannelModel`) obeys the same contract as
/// the fault layer: present but inert (all probabilities and delays zero)
/// it must not perturb the trajectory at all, regardless of its seed —
/// the pinned digests above have to keep matching with the channel
/// config explicitly populated.
#[test]
fn inert_channel_matches_pinned_digests() {
    let mut channel = wrsn_sim::ChannelModel::default();
    channel.seed = 0xDEAD_BEEF; // seed alone must never matter
    let run = |seed: u64, kind: PlannerKind, sync: bool| {
        let planner = kind.build(PlannerConfig::default());
        let mut cfg = sim_config();
        cfg.channel = channel;
        let report = if sync {
            Simulation::new(network(seed), cfg)
                .expect("valid config")
                .run(planner.as_ref(), K)
                .expect("planners are complete")
        } else {
            AsyncSimulation::new(network(seed), cfg)
                .expect("valid config")
                .run(planner.as_ref(), K)
                .expect("planners are complete")
        };
        digest(&report)
    };
    // One planner per engine is enough here — the exhaustive sweep above
    // already covers the matrix; this pins the channel layer's inertness.
    let kind = PlannerKind::all()[0];
    for (s, &seed) in SEEDS.iter().enumerate() {
        assert_eq!(run(seed, kind, true), EXPECTED_SYNC[0][s], "sync drift, seed {seed}");
        assert_eq!(run(seed, kind, false), EXPECTED_ASYNC[0][s], "async drift, seed {seed}");
    }
}

/// The telemetry layer (`TelemetryModel`) is held to the same inertness
/// contract: a default model with a non-default seed and guard margin
/// builds no estimator, draws zero RNG values, and leaves every pinned
/// digest untouched on both engines.
#[test]
fn inert_telemetry_matches_pinned_digests() {
    let mut telemetry = wrsn_sim::TelemetryModel::default();
    telemetry.seed = 123; // seed alone must never matter
    telemetry.guard_margin = 2.5; // nor the margin, with nothing to guard
    let run = |seed: u64, kind: PlannerKind, sync: bool| {
        let planner = kind.build(PlannerConfig::default());
        let mut cfg = sim_config();
        cfg.telemetry = telemetry;
        let report = if sync {
            Simulation::new(network(seed), cfg)
                .expect("valid config")
                .run(planner.as_ref(), K)
                .expect("planners are complete")
        } else {
            AsyncSimulation::new(network(seed), cfg)
                .expect("valid config")
                .run(planner.as_ref(), K)
                .expect("planners are complete")
        };
        digest(&report)
    };
    let kind = PlannerKind::all()[0];
    for (s, &seed) in SEEDS.iter().enumerate() {
        assert_eq!(run(seed, kind, true), EXPECTED_SYNC[0][s], "sync drift, seed {seed}");
        assert_eq!(run(seed, kind, false), EXPECTED_ASYNC[0][s], "async drift, seed {seed}");
    }
}

/// The churn layer (`ChurnModel`) joins the fault/channel/telemetry
/// inertness contract: with `sensor_mtbf_s == 0` no failure times are
/// drawn (the RNG is never even seeded), no repair runs, and every
/// pinned digest survives with the churn config explicitly populated —
/// non-default seed and cascade factor included — on both engines.
#[test]
fn inert_churn_matches_pinned_digests() {
    let mut churn = wrsn_sim::ChurnModel::default();
    churn.seed = 0x00C0_FFEE; // seed alone must never matter
    churn.cascade_factor = 1.01; // nor the alarm threshold, with no deaths
    let run = |seed: u64, kind: PlannerKind, sync: bool| {
        let planner = kind.build(PlannerConfig::default());
        let mut cfg = sim_config();
        cfg.churn = churn;
        let report = if sync {
            Simulation::new(network(seed), cfg)
                .expect("valid config")
                .run(planner.as_ref(), K)
                .expect("planners are complete")
        } else {
            AsyncSimulation::new(network(seed), cfg)
                .expect("valid config")
                .run(planner.as_ref(), K)
                .expect("planners are complete")
        };
        digest(&report)
    };
    let kind = PlannerKind::all()[0];
    for (s, &seed) in SEEDS.iter().enumerate() {
        assert_eq!(run(seed, kind, true), EXPECTED_SYNC[0][s], "sync drift, seed {seed}");
        assert_eq!(run(seed, kind, false), EXPECTED_ASYNC[0][s], "async drift, seed {seed}");
    }
}

/// The charger energy layer (`ChargerEnergyModel`) is held to a stricter
/// version of the same contract: the layer is fully deterministic (it
/// never draws RNG values, active or not), so with the default infinite
/// capacity every pinned digest must survive even with all the *other*
/// knobs — travel cost, transfer efficiency, recharge rate, rescue —
/// explicitly populated, on both engines.
#[test]
fn inert_energy_matches_pinned_digests() {
    let mut energy = wrsn_core::ChargerEnergyModel::default();
    energy.travel_j_per_m = 50.0; // priced travel with nothing to bound
    energy.transfer_efficiency = 0.9;
    energy.recharge_w = 200.0;
    energy.rescue = true;
    let run = |seed: u64, kind: PlannerKind, sync: bool| {
        let planner = kind.build(PlannerConfig::default());
        let mut cfg = sim_config();
        cfg.energy = energy;
        let report = if sync {
            Simulation::new(network(seed), cfg)
                .expect("valid config")
                .run(planner.as_ref(), K)
                .expect("planners are complete")
        } else {
            AsyncSimulation::new(network(seed), cfg)
                .expect("valid config")
                .run(planner.as_ref(), K)
                .expect("planners are complete")
        };
        digest(&report)
    };
    let kind = PlannerKind::all()[0];
    for (s, &seed) in SEEDS.iter().enumerate() {
        assert_eq!(run(seed, kind, true), EXPECTED_SYNC[0][s], "sync drift, seed {seed}");
        assert_eq!(run(seed, kind, false), EXPECTED_ASYNC[0][s], "async drift, seed {seed}");
    }
}

/// The injection layers switched on, one at a time and then all six at
/// once, in `EXPECTED_LAYERED` column order.
const LAYERS: [&str; 7] = ["fault", "channel", "telemetry", "churn", "energy", "admission", "all"];
const LAYERED_SEEDS: [u64; 2] = [1, 2];
const LAYERED_N: usize = 120;
const LAYERED_HORIZON_S: f64 = 30.0 * 24.0 * 3600.0;

/// A config with `layer` active (seeded by `seed`) and the trace on;
/// `"all"` stacks every layer and caps the trace ring at 64 events.
fn layered_config(layer: &str, seed: u64) -> SimConfig {
    let mut cfg = sim_config();
    cfg.horizon_s = LAYERED_HORIZON_S;
    cfg.collect_trace = true;
    let all = layer == "all";
    if all || layer == "fault" {
        cfg.fault.charger_mtbf_s = 0.2 * LAYERED_HORIZON_S;
        cfg.fault.charger_repair_s = 12.0 * 3600.0;
        cfg.fault.travel_jitter = 0.3;
        cfg.fault.degrade_prob = 0.1;
        cfg.fault.degrade_factor = 1.5;
        cfg.fault.seed = seed;
    }
    if all || layer == "channel" {
        cfg.channel.loss_prob = 0.2;
        cfg.channel.delay_max_s = 600.0;
        cfg.channel.duplicate_prob = 0.1;
        cfg.channel.seed = seed;
    }
    if all || layer == "telemetry" {
        cfg.telemetry.noise = 0.05;
        cfg.telemetry.report_interval_s = 3_600.0;
        cfg.telemetry.quantize_j = 10.0;
        cfg.telemetry.guard_margin = 1.0;
        cfg.telemetry.seed = seed;
    }
    if all || layer == "churn" {
        cfg.churn.sensor_mtbf_s = 2.0 * LAYERED_HORIZON_S;
        cfg.churn.cascade_factor = 1.05;
        cfg.churn.seed = seed;
    }
    if all || layer == "energy" {
        cfg.energy.capacity_j = 15.0e3;
        cfg.energy.travel_j_per_m = 50.0;
        cfg.energy.transfer_efficiency = 0.9;
        cfg.energy.recharge_w = 200.0;
        cfg.energy.rescue = true;
    }
    if all || layer == "admission" {
        cfg.admission_bound_s = 3_600.0;
        cfg.max_deferrals = 3;
    }
    if all {
        cfg.trace_capacity = 64;
    }
    cfg
}

/// Folds every public field of a report — the trace's events and
/// eviction count included — into one order-sensitive hash. The
/// exhaustive destructuring fails to compile when a field is added.
fn full_digest(report: &SimReport) -> u64 {
    let SimReport {
        rounds: _,
        dead_time_s: _,
        horizon_s: _,
        failed_sensors: _,
        trace,
        charger_failures,
        recovery_rounds,
        charged_sensors,
        recovered_sensors,
        deferred_sensors,
        shed_sensors,
        lost_requests,
        duplicates_dropped,
        escalated_requests,
        telemetry_reports,
        estimate_errors_j,
        estimate_misses,
        undetected_deaths,
        planned_energy_j,
        reconciled_energy_j,
        overcharge_j,
        undercharge_j,
        routing_repairs,
        cascade_alerts,
        partitioned_sensors,
        traffic_violations,
        charger_exhaustions,
        depot_recharges,
        rescue_dispatches,
        stranded_chargers,
        energy_dropped_stops,
        charger_initial_j,
        charger_recharged_j,
        charger_travel_j,
        charger_transfer_j,
        charger_residual_j,
        interrupted,
    } = report;
    // `digest` covers the rounds, dead times, horizon and failures.
    let mut h = digest(report);
    let counts = [
        *charger_failures,
        *recovery_rounds,
        *charged_sensors,
        *recovered_sensors,
        *deferred_sensors,
        *shed_sensors,
        *lost_requests,
        *duplicates_dropped,
        *escalated_requests,
        *telemetry_reports,
        *estimate_misses,
        *undetected_deaths,
        *routing_repairs,
        *cascade_alerts,
        *partitioned_sensors,
        *traffic_violations,
        *charger_exhaustions,
        *depot_recharges,
        *rescue_dispatches,
        *stranded_chargers,
        *energy_dropped_stops,
        usize::from(*interrupted),
        trace.dropped(),
        trace.len(),
    ];
    for c in counts {
        fnv1a(&mut h, &(c as u64).to_le_bytes());
    }
    let joules = [
        *planned_energy_j,
        *reconciled_energy_j,
        *overcharge_j,
        *undercharge_j,
        *charger_initial_j,
        *charger_recharged_j,
        *charger_travel_j,
        *charger_transfer_j,
        *charger_residual_j,
    ];
    for x in joules.iter().chain(estimate_errors_j) {
        fnv1a(&mut h, &x.to_bits().to_le_bytes());
    }
    // `Debug` prints every field, and each `f64` in its shortest
    // round-trip form, so equal text means bit-equal events.
    for e in trace.iter() {
        fnv1a(&mut h, format!("{e:?}").as_bytes());
    }
    h
}

/// Runs `cfg` on the layered network of `seed` with Appro.
fn run_layered_config(cfg: SimConfig, seed: u64, sync: bool) -> SimReport {
    let planner = PlannerKind::all()[0].build(PlannerConfig::default());
    let net = NetworkBuilder::new(LAYERED_N)
        .seed(seed)
        .data_rate_bps(1_000.0, 50_000.0)
        .build();
    if sync {
        Simulation::new(net, cfg).expect("valid config").run(planner.as_ref(), K)
    } else {
        AsyncSimulation::new(net, cfg).expect("valid config").run(planner.as_ref(), K)
    }
    .expect("planners are complete")
}

fn run_layered(layer: &str, seed: u64, sync: bool) -> u64 {
    full_digest(&run_layered_config(layered_config(layer, seed), seed, sync))
}

/// Pinned digests of runs with active layers, Appro, n = 120, 30 days:
/// row per (policy, seed) — sync seed 1, sync seed 2, async seed 1,
/// async seed 2 — column per [`LAYERS`] entry.
const EXPECTED_LAYERED: [[u64; 7]; 4] = [
    [0x2b4b4cefe5765b82, 0xd4cf79ab1805d1b6, 0xf463d778a683b8cb, 0xd700dde5458d4395, 0xdd9cb620d69e28c9, 0x77136fe6fd6c9eb3, 0xcf15187b50e0e3ec],
    [0x4c04ecd7b7b32a0b, 0x42b1636b03e1ae28, 0x889df70368889bfa, 0x06dfe3d4c18729af, 0x7f5bb3af17bb0a36, 0x309a2873c164cf5f, 0x722cda6565ec21e4],
    [0xcd52bdbfc1505388, 0x39e1d2dd63aedaf1, 0x6273ec803d8e3f88, 0xcdd59f4312c9c389, 0xd9e6f275b908f528, 0x6e94b861e4ecf3ad, 0x4bda981f5cadf96c],
    [0x533259cffcecb27c, 0xdcc204a8b9a32d52, 0x5f34f3f28683d9d6, 0xd7a205faa64205d6, 0x2bd1fa492a0b5b73, 0xd309fe5fb2dacfb4, 0x8f8941340dbdca25],
];

/// Both policies, every layer: a run with active layers must keep its
/// whole trajectory, report and trace, not just its determinism.
#[test]
fn layered_reports_are_bit_identical_to_baseline() {
    for (r, (sync, seed)) in [true, false]
        .into_iter()
        .flat_map(|sync| LAYERED_SEEDS.map(|seed| (sync, seed)))
        .enumerate()
    {
        for (l, layer) in LAYERS.iter().enumerate() {
            let got = run_layered(layer, seed, sync);
            assert_eq!(
                got, EXPECTED_LAYERED[r][l],
                "layered digest drifted: {} {layer} seed {seed} (got {got:#018x})",
                if sync { "sync" } else { "async" },
            );
        }
    }
}

/// Seeds whose stacked fault-and-energy runs break a charger down and
/// empty a tank under both policies.
const STACKED_SEEDS: [u64; 2] = [5, 203];

/// `layered_config`'s fault and energy values together, the trace on
/// and uncapped: the runs where a breakdown meets a finite tank.
fn stacked_config(seed: u64) -> SimConfig {
    let mut cfg = layered_config("fault", seed);
    cfg.energy = layered_config("energy", seed).energy;
    cfg
}

/// Pinned digests of the stacked runs, Appro, n = 120, 30 days: row per
/// policy (sync, async), column per [`STACKED_SEEDS`] entry.
const EXPECTED_STACKED: [[u64; 2]; 2] = [
    [0x26ae5d86d4540dd2, 0x3217cabeca32beba],
    [0x32eca9fa7a270d0d, 0x6f279b6aefe10909],
];

/// Both policies, fault and energy stacked: every run has a breakdown
/// and an exhaustion, and keeps its whole report and trace.
#[test]
fn stacked_fault_and_energy_reports_are_bit_identical_to_baseline() {
    for (r, sync) in [true, false].into_iter().enumerate() {
        let policy = if sync { "sync" } else { "async" };
        for (s, &seed) in STACKED_SEEDS.iter().enumerate() {
            let report = run_layered_config(stacked_config(seed), seed, sync);
            assert!(
                report.charger_failures >= 1 && report.charger_exhaustions >= 1,
                "{policy} seed {seed}: {} breakdowns, {} exhaustions",
                report.charger_failures,
                report.charger_exhaustions,
            );
            let got = full_digest(&report);
            assert_eq!(
                got, EXPECTED_STACKED[r][s],
                "stacked digest drifted: {policy} seed {seed} (got {got:#018x})",
            );
        }
    }
}

/// Three years of the pipelined policy with Appro, K = 2, on 400
/// sensors (seed 3, 1–50 kb/s), the config otherwise default: over 20k
/// dispatches, each charger on its own, so the report pins the
/// simulator's drain and crossing arithmetic over a long run.
fn pipelined_years_report() -> SimReport {
    let net = NetworkBuilder::new(400).seed(3).data_rate_bps(1_000.0, 50_000.0).build();
    let mut cfg = SimConfig::default();
    cfg.horizon_s *= 3.0;
    let planner = PlannerKind::all()[0].build(PlannerConfig::default());
    AsyncSimulation::new(net, cfg)
        .expect("valid config")
        .run(planner.as_ref(), K)
        .expect("planners are complete")
}

/// Pinned by `print_digests`.
const EXPECTED_PIPELINED_YEARS: u64 = 0x9165_1584_8d2c_be0f;

/// The pipelined policy keeps its whole report over three years.
#[test]
fn pipelined_years_are_bit_identical_to_baseline() {
    let report = pipelined_years_report();
    assert!(report.rounds.len() > 20_000, "{} dispatches", report.rounds.len());
    let got = full_digest(&report);
    assert_eq!(got, EXPECTED_PIPELINED_YEARS, "pipelined digest drifted (got {got:#018x})");
}

/// A deterministic virtual-clock serve run with `chaos` attached (or no
/// chaos layer at all): mixed traffic over 80 ticks with periodic
/// snapshots, so every failpoint site (WAL append/sync, snapshot
/// write/rename/dir-fsync, compaction) is on the executed path. Returns
/// the digest of the report JSON.
fn chaos_serve_digest(chaos: Option<wrsn_serve::ChaosConfig>) -> u64 {
    use std::sync::Arc;
    use wrsn_serve::{PlannerFactory, ServeConfig, ServeEngine};

    let dir = std::env::temp_dir()
        .join(format!("wrsn_inert_chaos_{}_{}", chaos.is_some(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let factory: Arc<PlannerFactory> =
        Arc::new(|| Box::new(wrsn_core::GreedyTour) as Box<dyn wrsn_core::Planner>);
    let net = NetworkBuilder::new(90).seed(31).build();
    let cfg = ServeConfig { k: 2, snapshot_every_ticks: 20, ..ServeConfig::default() };
    let mut engine = ServeEngine::new(net, cfg, factory)
        .unwrap()
        .with_wal(&dir.join("requests.wal"))
        .unwrap()
        .with_snapshot(&dir.join("serve_checkpoint.json"));
    if let Some(chaos) = chaos {
        engine = engine.with_chaos(chaos).unwrap();
    }
    for t in 0..80u32 {
        for j in 0..3u32 {
            engine.submit((t * 3 + j) % 90, Some(4.0 + f64::from(j))).unwrap();
        }
        engine.tick().unwrap();
    }
    assert_eq!(
        engine.chaos_counters().rng_draws,
        0,
        "a disarmed chaos layer must never touch its RNG"
    );
    let json = serde_json::to_string(&engine.report().to_json());
    let _ = std::fs::remove_dir_all(&dir);
    json_digest(&json)
}

/// FNV-1a digest of a report's JSON text.
fn json_digest(json: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, json.as_bytes());
    h
}

/// A chaos layer with every channel disarmed and a non-default seed.
fn disarmed_chaos() -> wrsn_serve::ChaosConfig {
    wrsn_serve::ChaosConfig { seed: 0x0BAD_5EED, ..wrsn_serve::ChaosConfig::default() }
}

/// The serve engine's storage-chaos layer (`ChaosConfig` / the seeded
/// failpoint registry) joins the inertness contract: attached but with
/// every channel disarmed — non-default seed included — it must draw
/// *zero* RNG values and leave the full serve report bit-identical to
/// an engine with no chaos layer at all, across the WAL, snapshot, and
/// compaction hot paths it wraps.
#[test]
fn inert_chaos_layer_matches_pinned_serve_digest() {
    let inert = disarmed_chaos();
    assert!(!inert.is_active(), "a bare seed must never arm the registry");
    let with_layer = chaos_serve_digest(Some(inert));
    let without_layer = chaos_serve_digest(None);
    assert_eq!(
        with_layer, without_layer,
        "the disarmed chaos layer must be bit-invisible"
    );
    assert_eq!(
        with_layer, EXPECTED_INERT_CHAOS,
        "serve digest drifted (got {with_layer:#018x})"
    );
}

/// Pinned by `print_digests` alongside the simulator tables.
const EXPECTED_INERT_CHAOS: u64 = 0x0933_bdba_b88c_d428;

/// The honest soak — n = 90, K = 2, the default (inert) guard, 120
/// req/s for 6 service seconds with a drain, network and soak seed 31
/// — with `adversary`.
fn honest_soak(adversary: wrsn_serve::AdversaryConfig) -> wrsn_serve::SoakOutcome {
    use std::sync::Arc;
    use wrsn_serve::soak::run_soak;
    use wrsn_serve::{PlannerFactory, ServeConfig, ServeEngine, SoakConfig};

    let factory: Arc<PlannerFactory> =
        Arc::new(|| Box::new(wrsn_core::GreedyTour) as Box<dyn wrsn_core::Planner>);
    let net = NetworkBuilder::new(90).seed(31).build();
    let cfg = ServeConfig { k: 2, ..ServeConfig::default() };
    assert!(!cfg.guard.is_active(), "the default guard must be inert");
    let engine = ServeEngine::new(net, cfg, factory).unwrap();
    let soak = SoakConfig {
        rate_per_s: 120.0,
        duration_s: 6.0,
        seed: 31,
        deficit_fraction: (0.0002, 0.001),
        drain: true,
        adversary,
        ..SoakConfig::default()
    };
    run_soak(engine, &soak, None).unwrap()
}

/// An adversary with every attack disarmed and a non-default seed.
fn disarmed_adversary() -> wrsn_serve::AdversaryConfig {
    wrsn_serve::AdversaryConfig { seed: 0x0BAD_5EED, ..wrsn_serve::AdversaryConfig::default() }
}

/// The untrusted-ingress layer (guard + adversary, PR 10) joins the
/// same inertness contract from two directions at once: a default
/// (inert) guard config must leave the engine's snapshot format and
/// report untouched, and a disarmed adversary — non-default seed
/// included — must draw zero RNG values, so `run_soak` with it is
/// bit-identical to the same soak with the default adversary: the
/// honest generator alone.
#[test]
fn inert_adversary_matches_pinned_serve_digest() {
    let disarmed = disarmed_adversary();
    assert!(!disarmed.is_active(), "a bare seed must never arm the model");
    let adversarial = honest_soak(disarmed);
    let plain = honest_soak(wrsn_serve::AdversaryConfig::default());

    assert_eq!(adversarial.hostile_lines, 0);
    let with_layer = json_digest(&serde_json::to_string(&adversarial.report.to_json()));
    let without_layer = json_digest(&serde_json::to_string(&plain.report.to_json()));
    assert_eq!(
        with_layer, without_layer,
        "the disarmed adversary must be bit-invisible over the honest soak"
    );
    assert_eq!(
        with_layer, EXPECTED_INERT_ADVERSARY,
        "serve adversary digest drifted (got {with_layer:#018x})"
    );
}

/// Pinned alongside [`EXPECTED_INERT_CHAOS`]; refresh the same way.
const EXPECTED_INERT_ADVERSARY: u64 = 0xa5df_bfb6_8b18_d280;

/// CI's serve-adversary soak — n = 120, K = 2, 50 ms ticks, 300 req/s
/// for 20 service seconds with a drain, network seed 31, soak seed 1,
/// 20% hostile — with a token bucket tight enough (3 tokens/s, burst 6)
/// that every guard defense fires.
fn armed_adversary_soak() -> wrsn_serve::SoakOutcome {
    use std::sync::Arc;
    use wrsn_serve::soak::run_soak;
    use wrsn_serve::{
        AdversaryConfig, GuardConfig, PlannerFactory, ServeConfig, ServeEngine, SoakConfig,
    };

    let factory: Arc<PlannerFactory> =
        Arc::new(|| Box::new(wrsn_core::GreedyTour) as Box<dyn wrsn_core::Planner>);
    let guard = GuardConfig {
        rate_per_s: 3.0,
        burst: 6.0,
        replay_window_s: 2.0,
        replay_limit: 2,
        deficit_margin: 1.0,
        quarantine_strikes: 3,
        quarantine_s: 4.0,
        parole_s: 2.0,
    };
    let cfg = ServeConfig { k: 2, tick_s: 0.05, guard, ..ServeConfig::default() };
    let engine = ServeEngine::new(NetworkBuilder::new(120).seed(31).build(), cfg, factory);
    let soak = SoakConfig {
        rate_per_s: 300.0,
        duration_s: 20.0,
        drain: true,
        adversary: AdversaryConfig {
            seed: 17,
            hostile_fraction: 0.2,
            compromised: 4,
            replay_burst: 6,
            oversize_bytes: 8_192,
        },
        max_line_bytes: 4_096,
        ..SoakConfig::default()
    };
    run_soak(engine.unwrap(), &soak, None).unwrap()
}

/// Folds the report JSON (every ledger and guard counter, both latency
/// summaries), the honest tally and the attack counters. Wall time and
/// the achieved rate are left out: they are not deterministic.
fn soak_digest(out: &wrsn_serve::SoakOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, serde_json::to_string(&out.report.to_json()).as_bytes());
    let (honest, attacks) = (out.honest, out.attacks);
    for x in [
        out.offered,
        out.hostile_lines,
        out.malformed,
        honest.submitted,
        honest.admitted,
        honest.duplicates,
        honest.rejected,
        honest.refused_quarantined,
        honest.refused_degraded,
        honest.invalid,
        attacks.spoofed,
        attacks.lies,
        attacks.replayed_lines,
        attacks.junk,
        attacks.oversize,
        u64::from(out.honest_ledger_reconciles),
    ] {
        fnv1a(&mut h, &x.to_le_bytes());
    }
    h
}

/// The armed guard under the armed adversary: every decision the guard
/// makes — which request it rejects and why, each quarantine, parole
/// and clear — lands in the pinned digest, and the soak reaches every
/// one of those branches.
#[test]
fn armed_adversary_matches_pinned_serve_digest() {
    let out = armed_adversary_soak();
    assert!(out.honest_ledger_reconciles, "the honest stream must reconcile under attack");
    let g = out.report.guard;
    for (count, what) in [
        (g.rejected_rate_limited, "rate-limited rejection"),
        (g.rejected_replayed, "replayed rejection"),
        (g.rejected_implausible, "implausible rejection"),
        (g.quarantines, "quarantine"),
        (g.paroles, "parole"),
        (g.requarantines, "re-quarantine"),
        (g.cleared, "clear"),
        (out.malformed, "malformed line"),
        (out.report.ingress_oversize, "oversize line"),
    ] {
        assert!(count > 0, "the soak must reach every guard branch: no {what}");
    }
    let got = soak_digest(&out);
    assert_eq!(got, EXPECTED_ARMED_ADVERSARY, "armed serve digest drifted (got {got:#018x})");
}

/// Pinned by `print_digests`.
const EXPECTED_ARMED_ADVERSARY: u64 = 0x528c_ac7b_a715_f3be;

/// Folds the bytes a virtual-clock serve run leaves on disk into `h`:
/// the snapshot file after every checkpoint (the shutdown's included)
/// and the WAL file halfway through every snapshot interval. n = 120,
/// K = 3, 1 s ticks, at most 2 admissions per tick, 10–28 s charges, a
/// snapshot every 10 ticks. Traffic starts with 5 requests in the tick
/// before the first snapshot, so that one holds a queue beside an empty
/// tour. With `armed`, the guard is armed (every snapshot carries its
/// `guard` section) and an admission bound defers requests.
fn serve_durable_bytes(h: &mut u64, armed: bool) {
    use std::sync::Arc;
    use wrsn_serve::{GuardConfig, PlannerFactory, ServeConfig, ServeEngine};

    let dir = std::env::temp_dir()
        .join(format!("wrsn_durable_bytes_{armed}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (wal, snap) = (dir.join("requests.wal"), dir.join("serve_checkpoint.json"));
    let factory: Arc<PlannerFactory> =
        Arc::new(|| Box::new(wrsn_core::GreedyTour) as Box<dyn wrsn_core::Planner>);
    let mut cfg = ServeConfig {
        k: 3,
        tick_s: 1.0,
        max_batch: 2,
        snapshot_every_ticks: 10,
        ..ServeConfig::default()
    };
    if armed {
        cfg.admission_bound_s = 110.0;
        cfg.guard = GuardConfig {
            rate_per_s: 2.0,
            burst: 3.0,
            replay_window_s: 1.0,
            replay_limit: 2,
            deficit_margin: 1.0,
            quarantine_strikes: 3,
            quarantine_s: 3.0,
            parole_s: 2.0,
        };
    }
    let net = NetworkBuilder::new(120).seed(31).build();
    let mut engine =
        ServeEngine::new(net, cfg, factory).unwrap().with_wal(&wal).unwrap().with_snapshot(&snap);
    // What the snapshots held: a queue beside an empty tour, a started
    // stop, a deferred request, and a guard section in every one.
    let mut seen = [false, false, false, true];
    let mut fold_snapshot = |h: &mut u64| {
        let bytes = std::fs::read(&snap).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&bytes).unwrap();
        let (tours, queue) = (v["tours"].as_array().unwrap(), v["queue"].as_array().unwrap());
        let empty_tour = tours.iter().any(|t| t.as_array().unwrap().is_empty());
        seen[0] |= empty_tour && !queue.is_empty();
        seen[1] |= tours.iter().flat_map(|t| t.as_array().unwrap()).any(|s| s[7] == true.into());
        seen[2] |= queue.iter().any(|r| r[4].as_u64() != Some(0));
        seen[3] &= !v["guard"].is_null();
        fnv1a(h, &bytes);
    };
    for t in 0..80u32 {
        let arrivals = match t {
            0..=8 => 0,
            9 => 5,
            _ => t % 6,
        };
        for j in 0..arrivals {
            let sensor = (t * 7 + j * 13) % 120;
            engine.submit(sensor, Some(20.0 + f64::from(t * j % 11) * 3.7)).unwrap();
        }
        if t > 9 && t % 9 == 4 {
            // A flood on one sensor: duplicates inert, strikes armed.
            for _ in 0..4 {
                engine.submit(5, Some(30.0)).unwrap();
            }
        }
        engine.tick().unwrap();
        match engine.ticks() % 10 {
            0 => fold_snapshot(h),
            5 => fnv1a(h, &std::fs::read(&wal).unwrap()),
            _ => {}
        }
    }
    assert!(engine.shutdown().unwrap().ledger_reconciles);
    fold_snapshot(h);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(seen, [true, true, armed, armed], "snapshot coverage (armed: {armed})");
}

/// FNV-1a fold of both runs of [`serve_durable_bytes`], inert first.
fn serve_durable_digest() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    serve_durable_bytes(&mut h, false);
    serve_durable_bytes(&mut h, true);
    h
}

/// The serve engine's durable bytes — snapshot and WAL, as written to
/// disk — stay byte-identical: format v1, key order, number spelling
/// and line layout included.
#[test]
fn serve_durable_bytes_match_pinned_digest() {
    let got = serve_durable_digest();
    assert_eq!(
        got, EXPECTED_SERVE_DURABLE_BYTES,
        "serve durable bytes drifted (got {got:#018x})"
    );
}

/// Pinned by `print_digests`.
const EXPECTED_SERVE_DURABLE_BYTES: u64 = 0x44fe_befc_35b2_d4af;

/// Folds every sojourn's target, start and duration bits, tour by tour
/// (each tour prefixed by its length), into one order-sensitive hash.
fn schedule_digest(schedule: &wrsn_core::Schedule) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for tour in &schedule.tours {
        fnv1a(&mut h, &(tour.sojourns.len() as u64).to_le_bytes());
        for s in &tour.sojourns {
            fnv1a(&mut h, &(s.target as u64).to_le_bytes());
            fnv1a(&mut h, &s.start_s.to_bits().to_le_bytes());
            fnv1a(&mut h, &s.duration_s.to_bits().to_le_bytes());
        }
    }
    h
}

/// Drains a fresh network (no charging) until `batch` sensors are
/// pending and poses them to `k` chargers on the dense context.
fn pending_problem(net: NetworkBuilder, batch: usize, k: usize) -> wrsn_core::ChargingProblem {
    let mut net = net.data_rate_bps(1_000.0, 50_000.0).build();
    let requests = Simulation::warm_up_requests(&mut net, 0.2, batch);
    assert_eq!(requests.len(), batch);
    wrsn_core::ChargingProblem::from_network(&net, &requests, k).expect("valid problem")
}

/// Appro on one shard of the 100k plan: 2000 sensors at the paper's
/// 0.06 sensors/m², 1300 of them pending (the 100k plan's average per
/// shard), K = 1 — a core of 702 nodes.
/// The plan inserts candidates, so the pin covers the insertion phase.
fn appro_shard_digest() -> u64 {
    let field = wrsn_geom::Rect::square(182.6);
    let shard = pending_problem(NetworkBuilder::new(2_000).seed(7).field(field), 1_300, 1);
    let report = wrsn_core::Appro::new(PlannerConfig::default()).plan_detailed(&shard).unwrap();
    assert!(report.inserted > 0, "Appro must insert a candidate");
    schedule_digest(&report.schedule)
}

/// K-minMax, which tours every request, on the n = 1200, K = 2 network
/// of Fig 3, in the first round a batch rule of half the network
/// dispatches (600 requests).
fn kminmax_fig3_digest() -> u64 {
    let fig3 = pending_problem(NetworkBuilder::new(1_200).seed(3), 600, 2);
    schedule_digest(&PlannerKind::KMinMax.build(PlannerConfig::default()).plan(&fig3).unwrap())
}

/// The digests above run n = 250, whose cores stay below ~60 nodes.
/// These two pin the tour kernel (greedy-edge, 2-opt, Or-opt, k-split)
/// where it does real work.
#[test]
fn large_tour_kernels_match_pinned_schedule_digests() {
    let got = appro_shard_digest();
    assert_eq!(got, EXPECTED_APPRO_SHARD, "Appro shard digest drifted (got {got:#018x})");
    let got = kminmax_fig3_digest();
    assert_eq!(got, EXPECTED_KMINMAX_FIG3, "K-minMax digest drifted (got {got:#018x})");
}

/// Pinned by `print_digests`, like the simulator tables.
const EXPECTED_APPRO_SHARD: u64 = 0xeff0_0995_9b10_60fb;
const EXPECTED_KMINMAX_FIG3: u64 = 0xd508_1cbe_7388_3562;

/// `ShardedPlanner<Appro>` on a small `plan_100k`: 4,000 sensors at the
/// paper's 0.06 sensors/m², data rates 1–50 kb/s, network seed 13, 2,600
/// of them pending, K = 5 over 5 shards on the sparse context. Folds the
/// stitched schedule, every shard's size, chargers and sojourns, and
/// what boundary reconciliation checked, fixed and waited.
fn sharded_appro_digest() -> (u64, wrsn_core::ShardAudit) {
    use wrsn_core::{Appro, ChargingParams, ChargingProblem, ContextMode, ShardedPlanner};

    let n = 4_000;
    let side = (n as f64 / 0.06).sqrt();
    let mut net = NetworkBuilder::new(n)
        .seed(13)
        .data_rate_bps(1_000.0, 50_000.0)
        .field(wrsn_geom::Rect::square(side))
        .build();
    let requests = Simulation::warm_up_requests(&mut net, 0.2, 2_600);
    assert_eq!(requests.len(), 2_600);
    let problem = ChargingProblem::from_network_with_mode(
        &net,
        &requests,
        5,
        ChargingParams::default(),
        ContextMode::Sparse,
    )
    .expect("valid problem");
    let (schedule, audit) = ShardedPlanner::new(Appro::new(PlannerConfig::default()), 5)
        .plan_with_audit(&problem)
        .expect("sharded plan");
    let mut h = schedule_digest(&schedule);
    for s in &audit.shards {
        for x in [s.size, s.chargers, s.sojourns] {
            fnv1a(&mut h, &(x as u64).to_le_bytes());
        }
    }
    for x in [
        audit.reconcile_checked as u64,
        audit.reconcile_fixes as u64,
        audit.reconcile_wait_s.to_bits(),
    ] {
        fnv1a(&mut h, &x.to_le_bytes());
    }
    (h, audit)
}

/// The sharded path end to end: partition, per-shard sub-problems and
/// plans, stitch and boundary reconciliation. The cells are uneven and
/// reconciliation inserts a wait, so neither step is a no-op here.
#[test]
fn sharded_appro_matches_pinned_digest() {
    let (got, audit) = sharded_appro_digest();
    let sizes: Vec<usize> = audit.shards.iter().map(|s| s.size).collect();
    assert!(sizes.iter().min() < sizes.iter().max(), "the cells must be uneven: {sizes:?}");
    assert!(audit.reconcile_fixes > 0, "reconciliation must insert a wait");
    assert_eq!(got, EXPECTED_SHARDED_APPRO, "sharded Appro digest drifted (got {got:#018x})");
}

/// Pinned by `print_digests`.
const EXPECTED_SHARDED_APPRO: u64 = 0x6780_bcc1_d5aa_eff5;

/// Folds every sensor's relay, out and transmit loads, its sink link,
/// its consumption and its hop list (length, then targets in order).
fn fold_routing(h: &mut u64, net: &wrsn_net::Network) {
    let loads = net.routing();
    for (v, s) in net.sensors().iter().enumerate() {
        for x in [
            loads.relay_in_bps[v],
            loads.out_bps[v],
            loads.tx_power_w[v],
            loads.bs_link_m[v],
            s.consumption_w,
        ] {
            fnv1a(h, &x.to_bits().to_le_bytes());
        }
        let hops = loads.next_hops(v);
        fnv1a(h, &(hops.len() as u64).to_le_bytes());
        for &u in hops.iter() {
            fnv1a(h, &u64::from(u).to_le_bytes());
        }
    }
}

/// The routing build on three deployments, then one repair: 12,000
/// uniform sensors on 447 m (serve_distinct's density), five Gaussian
/// hotspots, and a zero-jitter grid whose sink distances tie exactly and
/// whose points sit on routing-cell edges. The repair kills a seeded
/// ~10 % of the uniform network and folds its `changed` list too.
fn routing_digest() -> u64 {
    use wrsn_net::Deployment;

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut uniform =
        NetworkBuilder::new(12_000).seed(17).field(wrsn_geom::Rect::square(447.0)).build();
    let clusters = NetworkBuilder::new(2_000)
        .seed(18)
        .deployment(Deployment::GaussianClusters { clusters: 5, sigma_m: 8.0 })
        .build();
    let grid =
        NetworkBuilder::new(1_600).seed(19).deployment(Deployment::Grid { jitter_m: 0.0 }).build();
    for net in [&uniform, &clusters, &grid] {
        fold_routing(&mut h, net);
    }
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let alive: Vec<bool> = (0..uniform.sensors().len())
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            !state.is_multiple_of(10)
        })
        .collect();
    let changed = uniform.repair_routing(&alive);
    assert!(!changed.is_empty(), "the repair must reroute someone");
    fnv1a(&mut h, &(changed.len() as u64).to_le_bytes());
    for v in changed {
        fnv1a(&mut h, &(v as u64).to_le_bytes());
    }
    fold_routing(&mut h, &uniform);
    h
}

/// The energy model every instance starts from: Li & Mohapatra routing
/// loads and the hop lists they split over, at build and after a repair.
#[test]
fn routing_loads_match_pinned_digest() {
    let got = routing_digest();
    assert_eq!(got, EXPECTED_ROUTING_LOADS, "routing digest drifted (got {got:#018x})");
}

/// Pinned by `print_digests`.
const EXPECTED_ROUTING_LOADS: u64 = 0x97a1_4527_a91d_d0d8;

/// Regenerates the tables above: `cargo test --test regression -- --ignored --nocapture`.
#[test]
#[ignore = "digest printer, run manually to refresh the pinned tables"]
fn print_digests() {
    println!("const EXPECTED_SYNC: [[u64; 5]; 5] = [");
    for &kind in PlannerKind::all().iter() {
        let row: Vec<String> =
            SEEDS.iter().map(|&s| format!("{:#018x}", run_sync(s, kind))).collect();
        println!("    [{}], // {}", row.join(", "), kind.name());
    }
    println!("];");
    println!("const EXPECTED_ASYNC: [[u64; 5]; 5] = [");
    for &kind in PlannerKind::all().iter() {
        let row: Vec<String> =
            SEEDS.iter().map(|&s| format!("{:#018x}", run_async(s, kind))).collect();
        println!("    [{}], // {}", row.join(", "), kind.name());
    }
    println!("];");
    println!("const EXPECTED_LAYERED: [[u64; 7]; 4] = [");
    for sync in [true, false] {
        for seed in LAYERED_SEEDS {
            let row: Vec<String> = LAYERS
                .iter()
                .map(|layer| format!("{:#018x}", run_layered(layer, seed, sync)))
                .collect();
            println!("    [{}],", row.join(", "));
        }
    }
    println!("];");
    println!("const EXPECTED_STACKED: [[u64; 2]; 2] = [");
    for sync in [true, false] {
        let row: Vec<String> = STACKED_SEEDS
            .iter()
            .map(|&seed| {
                let report = run_layered_config(stacked_config(seed), seed, sync);
                format!("{:#018x}", full_digest(&report))
            })
            .collect();
        println!("    [{}],", row.join(", "));
    }
    println!("];");
    let pipelined = full_digest(&pipelined_years_report());
    println!("const EXPECTED_PIPELINED_YEARS: u64 = {pipelined:#018x};");
    println!("const EXPECTED_APPRO_SHARD: u64 = {:#018x};", appro_shard_digest());
    println!("const EXPECTED_KMINMAX_FIG3: u64 = {:#018x};", kminmax_fig3_digest());
    println!("const EXPECTED_SHARDED_APPRO: u64 = {:#018x};", sharded_appro_digest().0);
    println!("const EXPECTED_ROUTING_LOADS: u64 = {:#018x};", routing_digest());
    let chaos = chaos_serve_digest(Some(disarmed_chaos()));
    println!("const EXPECTED_INERT_CHAOS: u64 = {chaos:#018x};");
    let inert = honest_soak(disarmed_adversary());
    let inert = json_digest(&serde_json::to_string(&inert.report.to_json()));
    println!("const EXPECTED_INERT_ADVERSARY: u64 = {inert:#018x};");
    let armed = soak_digest(&armed_adversary_soak());
    println!("const EXPECTED_ARMED_ADVERSARY: u64 = {armed:#018x};");
    println!("const EXPECTED_SERVE_DURABLE_BYTES: u64 = {:#018x};", serve_durable_digest());
}
