//! Subcommand implementations.

use std::error::Error;
use std::fmt;

use serde_json::json;
use wrsn_bench::PlannerKind;
use wrsn_core::{
    bounds, ChargingProblem, ContextMode, Planner, PlannerConfig, Schedule, ShardedPlanner,
};
use wrsn_net::{Network, NetworkBuilder};
use wrsn_sim::{SimConfig, Simulation};

use crate::args::Args;

type CliResult = Result<(), Box<dyn Error>>;

/// `--resume` refused: the command line contradicts the instance or
/// the layers recorded in the snapshot.
///
/// A snapshot pins the instance and the stochastic layers that
/// produced it; resuming under different ones would silently diverge
/// from the uninterrupted run instead of completing it bit-identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResumeConflict {
    /// The snapshot's sensor count or fleet size differs from the
    /// command line's `--n`/`--k`.
    Instance {
        /// Sensors in the snapshot.
        snapshot_n: usize,
        /// Chargers in the snapshot.
        snapshot_k: usize,
        /// Sensors on the command line.
        n: usize,
        /// Chargers on the command line.
        k: usize,
    },
    /// The snapshot recorded an active churn model but the command
    /// line leaves churn off (`--sensor-mtbf` absent or 0).
    ChurnDropped,
    /// The command line enables churn but the snapshot carries no
    /// churn state to resume it from.
    ChurnAdded,
    /// The snapshot recorded an active charger energy model but the
    /// command line leaves it off (`--charger-capacity` absent or ∞).
    EnergyDropped,
    /// The command line enables finite charger energy but the snapshot
    /// carries no charger battery state to resume it from.
    EnergyAdded,
}

impl fmt::Display for ResumeConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeConflict::Instance { snapshot_n, snapshot_k, n, k } => write!(
                f,
                "cannot resume: snapshot is for n={snapshot_n} k={snapshot_k}, \
                 but the command line asks for n={n} k={k}"
            ),
            ResumeConflict::ChurnDropped => write!(
                f,
                "cannot resume: snapshot was taken with sensor churn active, but the \
                 command line disables it; pass the original --sensor-mtbf/--churn-seed"
            ),
            ResumeConflict::ChurnAdded => write!(
                f,
                "cannot resume: --sensor-mtbf enables sensor churn, but the snapshot \
                 carries no churn state; drop the churn flags or restart from round 0"
            ),
            ResumeConflict::EnergyDropped => write!(
                f,
                "cannot resume: snapshot was taken with finite charger energy active, \
                 but the command line disables it; pass the original --charger-capacity/\
                 --travel-cost/--transfer-efficiency/--recharge-rate flags"
            ),
            ResumeConflict::EnergyAdded => write!(
                f,
                "cannot resume: --charger-capacity enables finite charger energy, but \
                 the snapshot carries no charger battery state; drop the energy flags \
                 or restart from round 0"
            ),
        }
    }
}

impl Error for ResumeConflict {}

/// Shared instance parameters pulled from the command line.
struct Instance {
    n: usize,
    k: usize,
    seed: u64,
    b_max_kbps: f64,
    period_days: f64,
    /// Square field side in meters; `None` keeps the generator default.
    field_m: Option<f64>,
    /// Geometry backend (`--context dense|sparse|auto`, default auto).
    context: ContextMode,
    /// Spatial shards for planning (`--shards`, default 1 = monolithic).
    shards: usize,
}

impl Instance {
    fn from_args(args: &Args) -> Result<Self, Box<dyn Error>> {
        let inst = Instance {
            n: args.get_or("n", 600usize)?,
            k: args.get_or("k", 2usize)?,
            seed: args.get_or("seed", 1u64)?,
            b_max_kbps: args.get_or("b-max", 50.0f64)?,
            period_days: args.get_or("period", 5.0f64)?,
            field_m: args.get("field").map(str::parse).transpose().map_err(|_| {
                format!("invalid value {:?} for --field", args.get("field").unwrap_or(""))
            })?,
            context: args.get_or("context", ContextMode::Auto)?,
            shards: args.get_or("shards", 1usize)?,
        };
        if inst.k == 0 {
            return Err("--k must be at least 1".into());
        }
        if let Some(side) = inst.field_m {
            if !side.is_finite() || side <= 0.0 {
                return Err("--field must be a positive side length in meters".into());
            }
        }
        if inst.shards == 0 {
            return Err("--shards must be at least 1".into());
        }
        Ok(inst)
    }

    fn network(&self) -> Network {
        let mut builder = NetworkBuilder::new(self.n)
            .seed(self.seed)
            .data_rate_bps(1_000.0, self.b_max_kbps * 1_000.0);
        if let Some(side) = self.field_m {
            builder = builder.field(wrsn_geom::Rect::square(side));
        }
        builder.build()
    }

    /// Builds the snapshot problem: requests accumulated for the dispatch
    /// period after the first threshold crossing.
    fn snapshot(&self) -> Result<ChargingProblem, Box<dyn Error>> {
        let mut net = self.network();
        let requests =
            Simulation::warm_up_period(&mut net, 0.2, self.period_days * 86_400.0);
        Ok(ChargingProblem::from_network_with_mode(
            &net,
            &requests,
            self.k,
            wrsn_core::ChargingParams::default(),
            self.context,
        )?)
    }

    /// Builds the requested planner, wrapped in a [`ShardedPlanner`]
    /// when `--shards` asks for spatial decomposition.
    fn planner(&self, kind: PlannerKind) -> Box<dyn Planner> {
        if self.shards > 1 {
            Box::new(ShardedPlanner::new(
                kind.build_shared(PlannerConfig::default()),
                self.shards,
            ))
        } else {
            kind.build(PlannerConfig::default())
        }
    }
}

/// Where the tools archive results and checkpoints:
/// `$CARGO_TARGET_DIR/wrsn-results` (or `target/wrsn-results`).
fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("wrsn-results")
}

fn planner_kind(args: &Args) -> Result<PlannerKind, Box<dyn Error>> {
    let name = args.get("algorithm").unwrap_or("appro");
    PlannerKind::from_name(name).ok_or_else(|| {
        format!("unknown algorithm {name:?}; expected appro|kedf|netwrap|aa|kminmax|mmmatch")
            .into()
    })
}

fn schedule_json(problem: &ChargingProblem, schedule: &Schedule) -> serde_json::Value {
    let tours: Vec<serde_json::Value> = schedule
        .tours
        .iter()
        .map(|tour| {
            let sojourns: Vec<serde_json::Value> = tour
                .sojourns
                .iter()
                .map(|s| {
                    json!({
                        "target": s.target,
                        "arrival_s": s.arrival_s,
                        "start_s": s.start_s,
                        "duration_s": s.duration_s,
                    })
                })
                .collect();
            json!({
                "return_time_s": tour.return_time_s,
                "sojourns": serde_json::Value::Array(sojourns),
            })
        })
        .collect();
    json!({
        "requests": problem.len(),
        "chargers": problem.charger_count(),
        "longest_delay_s": schedule.longest_delay_s(),
        "total_charge_time_s": schedule.total_charge_time_s(),
        "total_wait_time_s": schedule.total_wait_time_s(),
        "sojourns": schedule.sojourn_count(),
        "certified": schedule.certify(problem).is_ok(),
        "tours": serde_json::Value::Array(tours),
    })
}

/// `wrsn plan --compare`: every planner (paper five + extensions)
/// evaluated **concurrently** on one shared problem, whose memoized
/// [`wrsn_core::ProblemContext`] is built once up front; reports the
/// shared context build time and each planner's pure plan time.
fn plan_compare(inst: &Instance) -> CliResult {
    use std::time::Instant;
    let problem = inst.snapshot()?;

    // Warm the shared geometry once; the fan-out then only plans. A
    // sparse context deliberately has no O(n²) table to warm — skip it
    // rather than force the materialization the mode exists to avoid.
    let t0 = Instant::now();
    let ctx = problem.context();
    if !ctx.is_sparse() {
        let _ = ctx.distance_matrix();
    }
    let _ = ctx.depot_distances();
    let _ = ctx.neighbor_lists();
    let _ = ctx.charging_graph();
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let kinds = PlannerKind::extended();
    let results: Vec<Result<(Schedule, f64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = kinds
            .iter()
            .map(|&kind| {
                let problem = &problem;
                scope.spawn(move || {
                    let planner = kind.build(PlannerConfig::default());
                    let t = Instant::now();
                    let schedule =
                        planner.plan(problem).map_err(|e| format!("{}: {e}", kind.name()))?;
                    let plan_ms = t.elapsed().as_secs_f64() * 1e3;
                    schedule
                        .certify(problem)
                        .map_err(|e| format!("{}: {e}", kind.name()))?;
                    Ok((schedule, plan_ms))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("planner thread panicked")).collect()
    });

    println!(
        "instance: n={} seed={} → {} requests, K={}; shared context built in {build_ms:.1} ms",
        inst.n,
        inst.seed,
        problem.len(),
        problem.charger_count()
    );
    println!(
        "{:>9} {:>12} {:>10} {:>10} {:>10}",
        "planner", "longest (h)", "sojourns", "wait (h)", "plan (ms)"
    );
    for (kind, result) in kinds.iter().zip(results) {
        let (schedule, plan_ms) = result?;
        println!(
            "{:>9} {:>12.2} {:>10} {:>10.2} {:>10.1}",
            kind.name(),
            schedule.longest_delay_s() / 3600.0,
            schedule.sojourn_count(),
            schedule.total_wait_time_s() / 3600.0,
            plan_ms
        );
    }
    Ok(())
}

/// `wrsn plan`: one planner, one snapshot instance.
pub fn plan(args: &Args) -> CliResult {
    let inst = Instance::from_args(args)?;
    if args.flag("compare") {
        return plan_compare(&inst);
    }
    let kind = planner_kind(args)?;
    let problem = inst.snapshot()?;
    let schedule = inst.planner(kind).plan(&problem)?;
    schedule.certify(&problem)?;

    if args.flag("json") {
        println!("{}", serde_json::to_string_pretty(&schedule_json(&problem, &schedule))?);
        return Ok(());
    }
    if args.flag("map") {
        println!("{}", wrsn_core::render::field_map(&problem, &schedule, 72, 28));
        println!("{}", wrsn_core::render::gantt(&schedule, 64));
    }
    if let Some(path) = args.get("svg") {
        let field = wrsn_core::svg::field_svg(&problem, &schedule, 720.0);
        std::fs::write(path, field).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        let gantt_path = format!("{path}.gantt.svg");
        std::fs::write(&gantt_path, wrsn_core::svg::gantt_svg(&schedule, 900.0))
            .map_err(|e| format!("cannot write {gantt_path:?}: {e}"))?;
        println!("wrote {path} and {gantt_path}");
    }
    if args.flag("stats") {
        let st = wrsn_core::stats::schedule_stats(&problem, &schedule);
        println!(
            "completion: mean {:.2} h, median {:.2} h, p95 {:.2} h; sharing {:.2}x",
            st.mean_completion_s / 3600.0,
            st.median_completion_s / 3600.0,
            st.p95_completion_s / 3600.0,
            st.sharing_factor
        );
        for (k, b) in st.per_charger.iter().enumerate() {
            println!(
                "  MCV {k}: travel {:.2} h, charge {:.2} h, wait {:.2} h",
                b.travel_s / 3600.0,
                b.charge_s / 3600.0,
                b.wait_s / 3600.0
            );
        }
    }
    println!(
        "{} on {} requests with K={} → longest delay {:.2} h ({} sojourns, certified)",
        kind.name(),
        problem.len(),
        problem.charger_count(),
        schedule.longest_delay_s() / 3600.0,
        schedule.sojourn_count()
    );
    for (k, tour) in schedule.tours.iter().enumerate() {
        if tour.sojourns.is_empty() {
            println!("  MCV {k}: stays at the depot");
            continue;
        }
        let stops: Vec<String> = tour
            .sojourns
            .iter()
            .map(|s| problem.targets()[s.target].id.to_string())
            .collect();
        println!(
            "  MCV {k} ({:.2} h): depot → {} → depot",
            tour.return_time_s / 3600.0,
            stops.join(" → ")
        );
    }
    Ok(())
}

/// `wrsn compare`: all five planners, one snapshot instance.
pub fn compare(args: &Args) -> CliResult {
    let inst = Instance::from_args(args)?;
    let problem = inst.snapshot()?;
    println!(
        "instance: n={} seed={} → {} requests, K={}",
        inst.n,
        inst.seed,
        problem.len(),
        problem.charger_count()
    );
    println!("{:>9} {:>12} {:>10} {:>10}", "planner", "longest (h)", "sojourns", "wait (h)");
    for kind in PlannerKind::all() {
        let schedule = kind.build(PlannerConfig::default()).plan(&problem)?;
        schedule.certify(&problem)?;
        println!(
            "{:>9} {:>12.2} {:>10} {:>10.2}",
            kind.name(),
            schedule.longest_delay_s() / 3600.0,
            schedule.sojourn_count(),
            schedule.total_wait_time_s() / 3600.0
        );
    }
    Ok(())
}

/// `wrsn simulate`: a monitoring-period simulation.
pub fn simulate(args: &Args) -> CliResult {
    let inst = Instance::from_args(args)?;
    let kind = planner_kind(args)?;
    let days: f64 = args.get_or("days", 365.0)?;
    let mut cfg = SimConfig::default();
    cfg.horizon_s = days * 86_400.0;
    // Charger fault injection: `--charger-mtbf <days>` enables seeded
    // mid-tour breakdowns with `--charger-repair <hours>` of downtime;
    // `--travel-jitter <frac>` perturbs round lengths. The fault seed
    // plus the network seed fully determine a run.
    cfg.fault.charger_mtbf_s = args.get_or("charger-mtbf", 0.0f64)? * 86_400.0;
    cfg.fault.charger_repair_s = args.get_or("charger-repair", 24.0f64)? * 3_600.0;
    cfg.fault.travel_jitter = args.get_or("travel-jitter", 0.0f64)?;
    cfg.fault.seed = args.get_or("fault-seed", 0u64)?;
    // Unreliable request channel: `--request-loss <prob>` drops request
    // messages (sensors retry with exponential backoff),
    // `--request-delay <min>` bounds a uniform delivery delay, and
    // `--request-dup <prob>` injects duplicates (dropped and counted on
    // arrival). `--channel-seed` makes the stream reproducible.
    cfg.channel.loss_prob = args.get_or("request-loss", 0.0f64)?;
    cfg.channel.delay_max_s = args.get_or("request-delay", 0.0f64)? * 60.0;
    cfg.channel.duplicate_prob = args.get_or("request-dup", 0.0f64)?;
    cfg.channel.seed = args.get_or("channel-seed", 0u64)?;
    // Saturation-aware degraded mode: `--admission-bound <hours>` sheds
    // the least-critical requests whenever the theoretical delay bound
    // of a batch exceeds it; a request deferred more than
    // `--max-deferrals` times is escalated past the bound.
    cfg.admission_bound_s = args.get_or("admission-bound", 0.0f64)? * 3_600.0;
    cfg.max_deferrals = args.get_or("max-deferrals", 4u32)?;
    // Imperfect telemetry: `--telemetry-noise <frac>` perturbs residual
    // reports, `--telemetry-interval <min>` spaces them out (0 =
    // continuous), `--telemetry-quantize-j <J>` coarsens them, and the
    // base station plans from estimates `--guard-margin` half-widths
    // below its belief. `--telemetry-seed` fixes the noise stream.
    cfg.telemetry.noise = args.get_or("telemetry-noise", 0.0f64)?;
    cfg.telemetry.report_interval_s = args.get_or("telemetry-interval", 0.0f64)? * 60.0;
    cfg.telemetry.quantize_j = args.get_or("telemetry-quantize-j", 0.0f64)?;
    cfg.telemetry.guard_margin = args.get_or("guard-margin", 1.0f64)?;
    cfg.telemetry.seed = args.get_or("telemetry-seed", 0u64)?;
    // Topology churn: `--sensor-mtbf <days>` enables seeded permanent
    // sensor hardware failures with incremental routing repair;
    // `--cascade-factor` sets the post-repair consumption-jump alarm
    // threshold and `--churn-seed` fixes the failure stream. Range
    // checks live in `SimConfig::validate` (InvalidChurnModel).
    cfg.churn.sensor_mtbf_s = args.get_or("sensor-mtbf", 0.0f64)? * 86_400.0;
    cfg.churn.cascade_factor = args.get_or("cascade-factor", 1.5f64)?;
    cfg.churn.seed = args.get_or("churn-seed", 0u64)?;
    // Finite charger energy: `--charger-capacity <kJ>` bounds each
    // MCV's own battery (absent = infinite, layer off),
    // `--travel-cost <J/m>` prices driving, `--transfer-efficiency`
    // in (0, 1] prices wireless transfer, `--recharge-rate <W>` sets
    // the depot trickle a finite tank refills at, and `--rescue`
    // sends the richest feasible peer to tow a stranded charger home.
    // Range checks live in `SimConfig::validate` (InvalidEnergyModel).
    cfg.energy.capacity_j = args.get_or("charger-capacity", f64::INFINITY)? * 1_000.0;
    cfg.energy.travel_j_per_m = args.get_or("travel-cost", 0.0f64)?;
    cfg.energy.transfer_efficiency = args.get_or("transfer-efficiency", 1.0f64)?;
    cfg.energy.recharge_w = args.get_or("recharge-rate", 0.0f64)?;
    cfg.energy.rescue = args.flag("rescue");
    // `--validate` runs the schedule invariant validator on every
    // dispatched and recovery plan (always on in debug builds).
    cfg.validate_schedules = args.flag("validate");
    // Geometry backend for the run-wide context (`--context`, default
    // auto: dense tables on small networks, on-demand sparse past the
    // dense limit).
    cfg.context_mode = inst.context;
    let checkpoint_every: usize = args.get_or("checkpoint-every", 0usize)?;
    let resume_path = args.get("resume").map(std::path::PathBuf::from);
    let planner = inst.planner(kind);
    let report = match args.get("dispatch").unwrap_or("sync") {
        "sync" => {
            let mut sim = Simulation::new(inst.network(), cfg)?;
            if checkpoint_every > 0 {
                let dir = results_dir();
                sim = sim.checkpoint_to(dir, checkpoint_every);
                // A checkpointing run is one the user cares to resume:
                // Ctrl-C / SIGTERM writes a final off-period checkpoint
                // at the next round boundary and exits cleanly instead
                // of dying mid-round.
                sim = sim.interrupt_on(wrsn_serve::shutdown::install());
            }
            if let Some(path) = &resume_path {
                let snap = wrsn_sim::Snapshot::read(path)
                    .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
                let (n, k) = (inst.n, inst.k);
                let (snapshot_n, snapshot_k) = (snap.sensor_count(), snap.fleet_size());
                if (snapshot_n, snapshot_k) != (n, k) {
                    return Err(ResumeConflict::Instance { snapshot_n, snapshot_k, n, k }.into());
                }
                match (snap.churn_active(), cfg.churn.is_active()) {
                    (true, false) => {
                        return Err(ResumeConflict::ChurnDropped.into())
                    }
                    (false, true) => {
                        return Err(ResumeConflict::ChurnAdded.into())
                    }
                    _ => {}
                }
                match (snap.energy_active(), cfg.energy.is_active()) {
                    (true, false) => {
                        return Err(ResumeConflict::EnergyDropped.into())
                    }
                    (false, true) => {
                        return Err(ResumeConflict::EnergyAdded.into())
                    }
                    _ => {}
                }
                eprintln!(
                    "resuming from round {} (t = {:.2} days)",
                    snap.round(),
                    snap.time_s() / 86_400.0
                );
                sim = sim.resume_from(snap);
            }
            sim.run(planner.as_ref(), inst.k)?
        }
        "async" => {
            if checkpoint_every > 0 || resume_path.is_some() {
                return Err(
                    "--checkpoint-every/--resume require the sync dispatcher \
                     (snapshots capture round-barrier state)"
                        .into(),
                );
            }
            wrsn_sim::AsyncSimulation::new(inst.network(), cfg)?.run(planner.as_ref(), inst.k)?
        }
        other => {
            return Err(format!("unknown dispatch mode {other:?}; expected sync|async").into())
        }
    };
    // One place decides what makes a run unsound (service ledger,
    // telemetry energy ledger, traffic conservation, charger energy
    // ledger): fail loudly rather than report results off broken books.
    if let Some(failure) = report.audit_failure() {
        return Err(failure.into());
    }
    if report.interrupted {
        eprintln!(
            "interrupted after {} rounds; final checkpoint written to {}; \
             rerun with --resume {}/checkpoint_round*.json to complete the run",
            report.rounds_dispatched(),
            results_dir().display(),
            results_dir().display()
        );
    }

    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "planner": kind.name(),
                "horizon_days": days,
                "interrupted": report.interrupted,
                "rounds": report.rounds_dispatched(),
                "avg_round_longest_delay_s": report.avg_longest_delay_s(),
                "avg_dead_time_s": report.avg_dead_time_s(),
                "total_dead_time_s": report.total_dead_time_s(),
                "energy_delivered_j": report.energy_delivered_j(),
                "always_alive_fraction": report.always_alive_fraction(),
                "charger_failures": report.charger_failures,
                "recovery_rounds": report.recovery_rounds,
                "charged_sensors": report.charged_sensors,
                "recovered_sensors": report.recovered_sensors,
                "deferred_sensors": report.deferred_sensors,
                "shed_sensors": report.shed_sensors,
                "escalated_requests": report.escalated_requests,
                "lost_requests": report.lost_requests,
                "duplicates_dropped": report.duplicates_dropped,
                "ledger_reconciles": report.service_reconciles(),
                "telemetry_reports": report.telemetry_reports,
                "estimate_misses": report.estimate_misses,
                "undetected_deaths": report.undetected_deaths,
                "estimate_err_p50_j": report.estimator_error_percentile(50.0),
                "estimate_err_p95_j": report.estimator_error_percentile(95.0),
                "planned_energy_j": report.planned_energy_j,
                "reconciled_energy_j": report.reconciled_energy_j,
                "overcharge_j": report.overcharge_j,
                "undercharge_j": report.undercharge_j,
                "energy_reconciles": report.energy_reconciles(),
                "failed_sensors": report.failed_sensors,
                "routing_repairs": report.routing_repairs,
                "cascade_alerts": report.cascade_alerts,
                "partitioned_sensors": report.partitioned_sensors,
                "traffic_conserved": report.traffic_conserved(),
                "charger_exhaustions": report.charger_exhaustions,
                "depot_recharges": report.depot_recharges,
                "rescue_dispatches": report.rescue_dispatches,
                "stranded_chargers": report.stranded_chargers,
                "energy_dropped_stops": report.energy_dropped_stops,
                "charger_initial_j": report.charger_initial_j,
                "charger_recharged_j": report.charger_recharged_j,
                "charger_travel_j": report.charger_travel_j,
                "charger_transfer_j": report.charger_transfer_j,
                "charger_residual_j": report.charger_residual_j,
                "charger_energy_reconciles": report.charger_energy_reconciles(),
            }))?
        );
        return Ok(());
    }
    println!("{} over {days:.0} days on n={} K={}:", kind.name(), inst.n, inst.k);
    println!("  rounds:            {}", report.rounds_dispatched());
    println!("  mean round length: {:.2} h", report.avg_longest_delay_s() / 3600.0);
    println!("  energy delivered:  {:.1} MJ", report.energy_delivered_j() / 1e6);
    println!("  avg dead/sensor:   {:.1} min", report.avg_dead_time_s() / 60.0);
    println!(
        "  always alive:      {:.1} %",
        report.always_alive_fraction() * 100.0
    );
    if cfg.fault.is_active() {
        println!(
            "  charger failures:  {} ({} recovery dispatches)",
            report.charger_failures, report.recovery_rounds
        );
    }
    if cfg.channel.is_active() {
        println!(
            "  request channel:   {} lost, {} duplicates dropped",
            report.lost_requests, report.duplicates_dropped
        );
    }
    if cfg.telemetry.is_active() {
        println!(
            "  telemetry:         {} reports, {} misses, {} undetected deaths",
            report.telemetry_reports, report.estimate_misses, report.undetected_deaths
        );
        println!(
            "  estimator error:   p50 {:.1} J, p95 {:.1} J",
            report.estimator_error_percentile(50.0),
            report.estimator_error_percentile(95.0)
        );
        println!(
            "  energy ledger:     {:.2} MJ planned = {:.2} MJ delivered + {:.2} MJ over; \
             {:.2} MJ short{}",
            report.planned_energy_j / 1e6,
            report.reconciled_energy_j / 1e6,
            report.overcharge_j / 1e6,
            report.undercharge_j / 1e6,
            if report.energy_reconciles() { "" } else { " (IMBALANCED!)" }
        );
    }
    if cfg.churn.is_active() {
        println!(
            "  sensor churn:      {} hardware failures, {} routing repairs",
            report.failed_sensors, report.routing_repairs
        );
        println!(
            "  cascade watch:     {} alerts escalated, {} sensors partitioned{}",
            report.cascade_alerts,
            report.partitioned_sensors,
            if report.traffic_conserved() { "" } else { " (TRAFFIC IMBALANCED!)" }
        );
    }
    if cfg.energy.is_active() {
        println!(
            "  charger energy:    {} depot recharges, {} exhaustions, {} rescues, \
             {} stops dropped",
            report.depot_recharges,
            report.charger_exhaustions,
            report.rescue_dispatches,
            report.energy_dropped_stops
        );
        println!(
            "  charger ledger:    {:.2} MJ initial + {:.2} MJ recharged = {:.2} MJ travel \
             + {:.2} MJ transfer + {:.2} MJ residual{}",
            report.charger_initial_j / 1e6,
            report.charger_recharged_j / 1e6,
            report.charger_travel_j / 1e6,
            report.charger_transfer_j / 1e6,
            report.charger_residual_j / 1e6,
            if report.charger_energy_reconciles() { "" } else { " (IMBALANCED!)" }
        );
    }
    if cfg.fault.is_active() || cfg.channel.is_active() || cfg.admission_bound_s > 0.0 {
        println!(
            "  service ledger:    {} charged, {} recovered, {} deferred, {} shed{}",
            report.charged_sensors,
            report.recovered_sensors,
            report.deferred_sensors,
            report.shed_sensors,
            if report.service_reconciles() { "" } else { " (IMBALANCED!)" }
        );
        if report.escalated_requests > 0 {
            println!("  escalations:       {}", report.escalated_requests);
        }
    }
    Ok(())
}

/// `wrsn fleet`: minimum chargers needed to keep the network alive.
pub fn fleet(args: &Args) -> CliResult {
    let inst = Instance::from_args(args)?;
    let kind = planner_kind(args)?;
    let days: f64 = args.get_or("days", 120.0)?;
    let max_k: usize = args.get_or("max-k", 6)?;
    let tolerance_min: f64 = args.get_or("tolerance-min", 10.0)?;
    let mut cfg = SimConfig::default();
    cfg.horizon_s = days * 86_400.0;
    let planner = kind.build(PlannerConfig::default());
    let sizing = wrsn_sim::fleet::minimum_chargers(
        &inst.network(),
        planner.as_ref(),
        &cfg,
        max_k,
        tolerance_min * 60.0,
    )?;
    println!(
        "{} on n={} over {days:.0} days (tolerance {tolerance_min:.0} min dead/sensor):",
        kind.name(),
        inst.n
    );
    for (i, d) in sizing.dead_time_per_k.iter().enumerate() {
        println!("  K={}: {:.1} min dead/sensor", i + 1, d / 60.0);
    }
    match sizing.min_chargers {
        Some(k) => println!("minimum fleet: {k} chargers"),
        None => println!("even K={max_k} is not enough"),
    }
    Ok(())
}

/// `wrsn experiment`: run one of the paper's figure sweeps.
pub fn experiment(args: &Args) -> CliResult {
    use wrsn_bench::table::ResultTable;
    use wrsn_bench::{MonitoringExperiment, SnapshotExperiment};

    // A JSON spec file takes precedence over the named figures.
    if let Some(path) = args.get("spec") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read spec {path:?}: {e}"))?;
        let spec = wrsn_bench::ExperimentSpec::from_json(&text)?;
        let table = wrsn_bench::run_spec(&spec)?;
        print!("{}", table.render());
        if args.flag("csv") {
            print!("{}", table.render_csv());
        }
        return Ok(());
    }

    let which = args.get("figure").unwrap_or("fig3a");
    let instances: usize = args.get_or("instances", 5)?;
    let horizon_days: f64 = args.get_or("horizon-days", 90.0)?;

    match which {
        "fig3a" | "fig3b" => {
            let sizes = [200usize, 400, 600, 800, 1000, 1200];
            if which == "fig3a" {
                let mut t = ResultTable::new(
                    "Fig 3(a): longest tour duration vs n",
                    "n",
                    3600.0,
                    "hours",
                );
                for &n in &sizes {
                    let exp = SnapshotExperiment { n, k: 2, instances, ..Default::default() };
                    t.extend(exp.run_all(n as f64));
                }
                print!("{}", t.render());
            } else {
                let mut t = ResultTable::new(
                    "Fig 3(b): dead duration per sensor vs n",
                    "n",
                    60.0,
                    "minutes",
                );
                for &n in &sizes {
                    let exp = MonitoringExperiment {
                        n,
                        k: 2,
                        instances,
                        horizon_s: horizon_days * 86_400.0,
                        ..Default::default()
                    };
                    t.extend(exp.run_all(n as f64));
                }
                print!("{}", t.render());
            }
        }
        "fig5a" => {
            let mut t =
                ResultTable::new("Fig 5(a): longest tour duration vs K", "K", 3600.0, "hours");
            for k in 1..=5 {
                let exp =
                    SnapshotExperiment { n: 1000, k, instances, ..Default::default() };
                t.extend(exp.run_all(k as f64));
            }
            print!("{}", t.render());
        }
        other => {
            return Err(format!(
                "unknown figure {other:?}; expected fig3a|fig3b|fig5a \
                 (use `cargo bench -p wrsn-bench` for the full set)"
            )
            .into())
        }
    }
    Ok(())
}

/// `wrsn bounds`: lower bounds and the planner's gap to them.
pub fn bounds(args: &Args) -> CliResult {
    let inst = Instance::from_args(args)?;
    let kind = planner_kind(args)?;
    let problem = inst.snapshot()?;
    let schedule = inst.planner(kind).plan(&problem)?;
    schedule.certify(&problem)?;
    let reach = bounds::reach_lower_bound(&problem);
    let work = bounds::work_lower_bound(&problem);
    let lb = bounds::lower_bound(&problem);
    let delay = schedule.longest_delay_s();
    println!("instance: {} requests, K={}", problem.len(), problem.charger_count());
    println!("  reach lower bound: {:.2} h", reach / 3600.0);
    println!("  work lower bound:  {:.2} h", work / 3600.0);
    println!("  {} delay:      {:.2} h", kind.name(), delay / 3600.0);
    println!("  gap vs best bound: {:.2}x", delay / lb.max(1e-9));
    println!(
        "  (Theorem 1 guarantees ≤ {:.0}x; smaller is better)",
        40.0 * std::f64::consts::PI + 1.0
    );
    Ok(())
}

/// Builds the storage-chaos configuration from the `--chaos-*` flags.
/// With none of them set this is the inert default: no RNG stream is
/// seeded and the serve output is bit-identical to a chaos-free build.
fn chaos_from_args(args: &Args) -> Result<wrsn_serve::ChaosConfig, Box<dyn Error>> {
    let chaos = wrsn_serve::ChaosConfig {
        seed: args.get_or("chaos-seed", 0u64)?,
        io_error_p: args.get_or("chaos-io-error-p", 0.0f64)?,
        fsync_fail_p: args.get_or("chaos-fsync-fail-p", 0.0f64)?,
        torn_write_p: args.get_or("chaos-torn-write-p", 0.0f64)?,
        stall_p: args.get_or("chaos-stall-p", 0.0f64)?,
        stall_ms: args.get_or("chaos-stall-ms", 0u64)?,
        enospc_from_tick: args.get_or("chaos-enospc-from-tick", 0u64)?,
        enospc_ticks: args.get_or("chaos-enospc-ticks", 12u64)?,
        ingress_fault_p: args.get_or("chaos-ingress-fault-p", 0.0f64)?,
    };
    chaos.validate()?;
    Ok(chaos)
}

/// Ingress guard knobs (`--rate-limit`, `--replay-window`,
/// `--deficit-margin`, `--quarantine-*`). Inert by default: with no
/// flag armed the guard draws nothing and the serve output is
/// bit-identical to a build without it.
fn guard_from_args(args: &Args) -> Result<wrsn_serve::GuardConfig, Box<dyn Error>> {
    let guard = wrsn_serve::GuardConfig {
        rate_per_s: args.get_or("rate-limit", 0.0f64)?,
        burst: args.get_or("rate-burst", 4.0f64)?,
        replay_window_s: args.get_or("replay-window", 0.0f64)?,
        replay_limit: args.get_or("replay-limit", 2u32)?,
        deficit_margin: args.get_or("deficit-margin", 0.0f64)?,
        quarantine_strikes: args.get_or("quarantine-strikes", 3u32)?,
        quarantine_s: args.get_or("quarantine-s", 60.0f64)?,
        parole_s: args.get_or("quarantine-parole-s", 30.0f64)?,
    };
    guard.validate()?;
    Ok(guard)
}

/// Seeded adversary knobs (`--adversary-*`). Inert unless
/// `--adversary-fraction` is positive.
fn adversary_from_args(args: &Args) -> Result<wrsn_serve::AdversaryConfig, Box<dyn Error>> {
    let adversary = wrsn_serve::AdversaryConfig {
        seed: args.get_or("adversary-seed", 0u64)?,
        hostile_fraction: args.get_or("adversary-fraction", 0.0f64)?,
        compromised: args.get_or("adversary-compromised", 4u32)?,
        replay_burst: args.get_or("adversary-burst", 6u32)?,
        oversize_bytes: args.get_or("adversary-oversize", 65_536usize)?,
    };
    adversary.validate()?;
    Ok(adversary)
}

/// `wrsn serve --chaos-drill <kills>`: the in-process chaos drill —
/// a seeded soak under the `--chaos-*` fault schedule with repeated
/// simulated `kill -9` + resume cycles, archiving the invariants CI
/// greps to `target/wrsn-results/serve_chaos.json`.
fn serve_chaos_drill(
    args: &Args,
    net: Network,
    cfg: wrsn_serve::ServeConfig,
    factory: std::sync::Arc<wrsn_serve::PlannerFactory>,
    chaos: wrsn_serve::ChaosConfig,
    state_dir: &std::path::Path,
    kills: u32,
) -> CliResult {
    use wrsn_serve::soak::{run_chaos_drill, SoakConfig};
    let soak = SoakConfig {
        rate_per_s: args.get_or("soak-rate", 500.0f64)?,
        duration_s: args.get_or("soak-duration", 30.0f64)?,
        seed: args.get_or("soak-seed", 1u64)?,
        ..SoakConfig::default()
    };
    let outcome = run_chaos_drill(&net, cfg, &factory, chaos, &soak, kills, state_dir)?;
    let json = outcome.to_json();
    std::fs::create_dir_all(results_dir())?;
    let archive = results_dir().join("serve_chaos.json");
    std::fs::write(&archive, serde_json::to_string_pretty(&json)?)?;
    eprintln!("archived {}", archive.display());

    let r = &outcome.report;
    println!(
        "chaos drill: {} kills, {} resumes ok, conservation_held {}",
        outcome.kills, outcome.resumes_ok, outcome.conservation_held
    );
    println!(
        "  load:       {} offered, {} admitted, {} refused while degraded",
        outcome.offered, r.ledger.admitted, outcome.refused_degraded
    );
    println!(
        "  faults:     {} injected, {} commit retries, {} degraded entries, {} exits",
        outcome.injections_total,
        outcome.io_retries,
        outcome.degraded_entries,
        outcome.degraded_exits
    );
    println!(
        "  wal:        peak {} durable bytes, {} compactions",
        outcome.wal_max_bytes, outcome.compactions
    );
    println!(
        "  ledger_reconciles {}, silent_loss {}",
        r.ledger_reconciles,
        r.silent_loss()
    );
    if !outcome.conservation_held || !r.ledger_reconciles {
        return Err("chaos drill lost accepted requests".into());
    }
    Ok(())
}

/// `wrsn serve`: the online charging service — a long-lived daemon (or
/// a seeded soak run) over the resilient serve engine.
pub fn serve(args: &Args) -> CliResult {
    use std::sync::Arc;
    use wrsn_serve::daemon::{run_daemon, DaemonOptions, Ingress};
    use wrsn_serve::soak::{run_soak, SoakConfig};
    use wrsn_serve::{PlannerFactory, ServeConfig, ServeEngine};

    let inst = Instance::from_args(args)?;
    let kind = planner_kind(args)?;
    let net = inst.network();

    let tick_ms: f64 = args.get_or("tick-ms", 100.0)?;
    let plan_budget_ms: f64 = args.get_or("plan-budget-ms", 2_000.0)?;
    let cfg = ServeConfig {
        k: inst.k,
        tick_s: tick_ms / 1_000.0,
        max_batch: args.get_or("max-batch", 64usize)?,
        queue_capacity: args.get_or("queue-cap", 4096usize)?,
        // Hours on the command line, like simulate's --admission-bound.
        admission_bound_s: args.get_or("admission-bound", 0.0f64)? * 3_600.0,
        max_deferrals: args.get_or("max-deferrals", 4u32)?,
        drift_threshold: args.get_or("drift-threshold", 48usize)?,
        plan_budget_s: plan_budget_ms / 1_000.0,
        replan_max_stops: args.get_or("replan-max-stops", 512usize)?,
        snapshot_every_ticks: args.get_or("snapshot-every", 0u64)?,
        default_deficit_fraction: args.get_or("deficit-fraction", 0.8f64)?,
        guard: guard_from_args(args)?,
        ..ServeConfig::default()
    };
    let factory: Arc<PlannerFactory> =
        Arc::new(move || kind.build(wrsn_core::PlannerConfig::default()));

    // Persistence: default WAL + snapshot under the results dir; the
    // same paths serve --resume picks the run back up from.
    let state_dir = args
        .get("state-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| results_dir().join("serve"));
    let wal_path = state_dir.join("requests.wal");
    let snap_path = state_dir.join("serve_checkpoint.json");

    // Storage chaos: inert unless a --chaos-* flag arms a channel.
    let chaos = chaos_from_args(args)?;
    if let Some(kills) = args.get("chaos-drill") {
        let kills: u32 = kills
            .parse()
            .map_err(|_| format!("invalid value {kills:?} for --chaos-drill"))?;
        return serve_chaos_drill(args, net, cfg, factory, chaos, &state_dir, kills);
    }

    let engine = if args.flag("resume") {
        let e = ServeEngine::resume(net, cfg, factory, &snap_path, &wal_path)
            .map_err(|e| format!("cannot resume from {}: {e}", state_dir.display()))?;
        if e.recovered_torn_tail() {
            eprintln!("recovered: dropped a torn WAL tail line (crash mid-append)");
        }
        eprintln!(
            "resumed at t = {:.1} s: {} admitted, {} charged, {} shed, {} in flight",
            e.now_s(),
            e.ledger().admitted,
            e.ledger().charged,
            e.ledger().shed,
            e.in_flight()
        );
        e
    } else {
        ServeEngine::new(net, cfg, factory)?
            .with_wal(&wal_path)?
            .with_snapshot(&snap_path)
    };
    let engine = engine.with_chaos(chaos)?;

    let stop = wrsn_serve::shutdown::install();
    let adversary = adversary_from_args(args)?;
    let max_line_bytes: usize = args.get_or("max-line-bytes", 65_536usize)?;
    let soak_rate: f64 = args.get_or("soak-rate", 0.0)?;
    let (report, malformed, ingress_faults, outcome_json) = if soak_rate > 0.0 {
        let soak = SoakConfig {
            rate_per_s: soak_rate,
            duration_s: args.get_or("soak-duration", 60.0f64)?,
            seed: args.get_or("soak-seed", 1u64)?,
            realtime: args.flag("realtime"),
            drain: args.flag("drain"),
            ..SoakConfig::default()
        };
        if adversary.is_active() {
            use wrsn_serve::soak::run_adversarial_soak;
            let adv_cfg = wrsn_serve::AdversarialSoakConfig {
                soak,
                adversary,
                max_line_bytes,
            };
            let outcome = run_adversarial_soak(engine, &adv_cfg, Some(&stop))?;
            eprintln!(
                "adversarial soak: offered {} arrivals ({} hostile lines) in {:.2} s wall",
                outcome.offered, outcome.hostile_lines, outcome.wall_s
            );
            println!(
                "  honest:     {} submitted, {} admitted, {} duplicates, {} rejected, \
                 {} refused in quarantine",
                outcome.honest.submitted,
                outcome.honest.admitted,
                outcome.honest.duplicates,
                outcome.honest.rejected,
                outcome.honest.refused_quarantined
            );
            println!(
                "  attacks:    {} spoofed, {} lies, {} replayed, {} junk, {} oversize; \
                 {} malformed lines dropped",
                outcome.attacks.spoofed,
                outcome.attacks.lies,
                outcome.attacks.replayed_lines,
                outcome.attacks.junk,
                outcome.attacks.oversize,
                outcome.malformed
            );
            println!("  honest_ledger_reconciles {}", outcome.honest_ledger_reconciles);
            let json = outcome.to_json();
            std::fs::create_dir_all(results_dir())?;
            let archive = results_dir().join("serve_adversary_soak.json");
            std::fs::write(&archive, serde_json::to_string_pretty(&json)?)?;
            eprintln!("archived {}", archive.display());
            if !outcome.honest_ledger_reconciles {
                return Err("adversarial soak: honest ledger does not reconcile".into());
            }
            let malformed = outcome.malformed;
            (outcome.report, malformed, 0u64, json)
        } else {
            let outcome = run_soak(engine, &soak, Some(&stop))?;
            eprintln!(
                "soak: offered {} requests in {:.2} s wall ({:.0} req/s sustained)",
                outcome.offered, outcome.wall_s, outcome.achieved_rate_per_s
            );
            let json = outcome.to_json();
            std::fs::create_dir_all(results_dir())?;
            let archive = results_dir().join("serve_soak.json");
            std::fs::write(&archive, serde_json::to_string_pretty(&json)?)?;
            eprintln!("archived {}", archive.display());
            (outcome.report, 0u64, 0u64, json)
        }
    } else {
        let ingress = match args.get("socket") {
            Some(path) => Ingress::UnixSocket(std::path::PathBuf::from(path)),
            None => Ingress::Stdin,
        };
        let opts = DaemonOptions {
            pace_wall: !args.flag("no-pace"),
            drain_on_eof: !args.flag("no-drain"),
            echo: args.flag("echo"),
            max_line_bytes,
            read_timeout_ms: args.get_or("read-timeout-ms", 0u64)?,
            max_connections: args.get_or("max-conns", 64usize)?,
        };
        let outcome = run_daemon(engine, &ingress, &stop, &opts)?;
        let json = outcome.report.to_json();
        (outcome.report, outcome.malformed, outcome.ingress_faults, json)
    };

    if args.flag("json") {
        println!("{}", serde_json::to_string_pretty(&outcome_json)?);
        return Ok(());
    }
    let l = &report.ledger;
    println!("serve: {} ticks over {:.1} s of service time", report.ticks, report.now_s);
    println!(
        "  ledger:     {} admitted = {} charged + {} shed + {} in flight{}",
        l.admitted,
        l.charged,
        l.shed,
        report.in_flight,
        if report.ledger_reconciles { "" } else { "  (IMBALANCED!)" }
    );
    println!(
        "  refused:    {} duplicates, {} invalid, {} malformed lines, \
         {} refused while degraded",
        l.duplicates, l.invalid, malformed, l.refused_degraded
    );
    let g = &report.guard;
    if g.rejected_total() > 0 || g.quarantines > 0 || l.refused_quarantined > 0 {
        println!(
            "  guard:      {} rejected ({} rate-limited, {} replayed, {} implausible), \
             {} refused in quarantine",
            g.rejected_total(),
            g.rejected_rate_limited,
            g.rejected_replayed,
            g.rejected_implausible,
            l.refused_quarantined
        );
        println!(
            "  quarantine: {} quarantines, {} paroles, {} re-quarantines, {} cleared, \
             {} in quarantine now",
            g.quarantines, g.paroles, g.requarantines, g.cleared, report.quarantined_now
        );
    }
    if report.ingress_read_errors > 0
        || report.ingress_oversize > 0
        || report.connections_refused > 0
    {
        println!(
            "  ingress:    {} read errors, {} oversize lines, {} connections refused",
            report.ingress_read_errors, report.ingress_oversize, report.connections_refused
        );
    }
    println!(
        "  admission:  {} deferrals, {} escalations; queue peak {} (cap {}), in-flight peak {}",
        l.deferrals, l.escalated, report.max_queue_depth, cfg.queue_capacity, report.max_in_flight
    );
    println!(
        "  planning:   {} incremental inserts, {} full re-plans, {} skipped, \
         {} watchdog trips, {} fallbacks",
        report.incremental_inserts,
        report.full_replans,
        report.replans_skipped,
        report.watchdog_trips,
        report.planner_fallbacks
    );
    println!(
        "  durability: {} commit retries, {} degraded entries / {} exits \
         ({} degraded ticks), {} snapshot failures",
        report.io_retries,
        report.degraded_entries,
        report.degraded_exits,
        report.degraded_ticks,
        report.snapshot_failures
    );
    println!(
        "  wal:        {} compactions ({} B reclaimed), {} compaction failures",
        report.compactions, report.wal_bytes_reclaimed, report.compaction_failures
    );
    if report.chaos_injections > 0 || ingress_faults > 0 {
        println!(
            "  chaos:      {} storage faults injected, {} ingress lines dropped",
            report.chaos_injections, ingress_faults
        );
    }
    let d = &report.dispatch_latency;
    let c = &report.charged_latency;
    println!(
        "  dispatch:   n={} p50 {:.1} s, p95 {:.1} s, p99 {:.1} s, max {:.1} s",
        d.count, d.p50_s, d.p95_s, d.p99_s, d.max_s
    );
    println!(
        "  charged:    n={} p50 {:.1} s, p95 {:.1} s, p99 {:.1} s, max {:.1} s",
        c.count, c.p50_s, c.p95_s, c.p99_s, c.max_s
    );
    println!(
        "  ledger_reconciles {}, silent_loss {}",
        report.ledger_reconciles,
        report.silent_loss()
    );
    if !report.ledger_reconciles {
        return Err("serve ledger does not reconcile: accepted requests were lost".into());
    }
    Ok(())
}
