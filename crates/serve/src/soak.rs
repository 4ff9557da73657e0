//! Soak harness: a seeded open-loop load generator over the engine.
//!
//! Arrivals are *open-loop* — the configured rate keeps coming whether
//! or not the service keeps up, which is exactly the regime where
//! backpressure, shedding, and the ledger identity must hold. The
//! generator carries a fractional arrivals-per-tick accumulator, so any
//! rate (including fractions of a request per tick) is honoured exactly
//! over time, and every run is reproducible from its seed.
//!
//! [`run_soak`] is the one soak driver. Its [`SoakConfig::adversary`]
//! may replace a fraction of arrivals with seeded attacks; disarmed (the
//! default), the adversary draws nothing, so the soak is the honest
//! generator alone. Either way the outcome tallies the honest stream and
//! checks that it reconciles. [`run_chaos_drill`] drives the same
//! honest generator through simulated kills and resumes.
//!
//! By default the soak runs on the engine's virtual clock as fast as
//! the machine allows, which is what the acceptance target measures
//! (sustained 10k+ req/s of offered load). With
//! [`SoakConfig::realtime`] each tick also sleeps out its wall-clock
//! duration — that mode exists for the kill-and-resume CI leg, which
//! needs a process alive long enough to `kill -9` mid-soak.

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use wrsn_net::Network;

use crate::adversary::{AdversaryConfig, AdversaryCounters, AdversaryModel};
use crate::engine::{Admission, ServeConfig, ServeEngine, ServeError, ServeReport};
use crate::failpoint::ChaosConfig;
use crate::ingress::{classify_line, IngressEvent};
use crate::shutdown::stop_requested;
use crate::watchdog::PlannerFactory;

/// Soak load profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoakConfig {
    /// Offered load, arrival slots per second of service time.
    pub rate_per_s: f64,
    /// Service time to soak for, seconds.
    pub duration_s: f64,
    /// Generator seed (sensor choice and deficit draw).
    pub seed: u64,
    /// Requested deficit range as fractions of sensor capacity.
    pub deficit_fraction: (f64, f64),
    /// Sleep each tick out in wall time (for kill-mid-soak runs).
    pub realtime: bool,
    /// After the load stops, keep ticking until in-flight drains to
    /// zero (bounded by [`SoakConfig::drain_limit_s`]).
    pub drain: bool,
    /// Cap on the drain phase, seconds of service time.
    pub drain_limit_s: f64,
    /// The attack mix: the seeded adversary replaces its
    /// `hostile_fraction` of arrivals with attacks. Disarmed by default.
    pub adversary: AdversaryConfig,
    /// Ingress line-length bound applied to every injected hostile line,
    /// so an in-process oversize attack takes the same path as on the
    /// wire (0 uses the hard backstop).
    pub max_line_bytes: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            rate_per_s: 10_000.0,
            duration_s: 60.0,
            seed: 1,
            deficit_fraction: (0.2, 0.9),
            realtime: false,
            drain: false,
            drain_limit_s: 3600.0,
            adversary: AdversaryConfig::default(),
            max_line_bytes: 4096,
        }
    }
}

/// Per-outcome accounting of the honest traffic stream: every honest
/// submission lands in exactly one bucket, so
/// [`SoakOutcome::honest_ledger_reconciles`] can assert nothing was
/// silently dropped even while under attack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HonestTally {
    /// Honest submissions offered.
    pub submitted: u64,
    /// Accepted (including shed-on-arrival, which is ledgered).
    pub admitted: u64,
    /// Refused as duplicates (request already in flight).
    pub duplicates: u64,
    /// Rejected by the guard (collateral of aggressive tuning; still
    /// typed and counted, never silent).
    pub rejected: u64,
    /// Refused while the sensor was quarantined.
    pub refused_quarantined: u64,
    /// Refused in durability-degraded mode.
    pub refused_degraded: u64,
    /// Refused as invalid (cannot happen for generated traffic; kept
    /// so the accounting is total).
    pub invalid: u64,
}

impl HonestTally {
    fn accounted(&self) -> u64 {
        self.admitted
            + self.duplicates
            + self.rejected
            + self.refused_quarantined
            + self.refused_degraded
            + self.invalid
    }
}

/// What a soak run did.
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    /// The engine's final report.
    pub report: ServeReport,
    /// Arrival slots the generator produced (honest + hostile).
    pub offered: u64,
    /// The honest stream's per-outcome accounting.
    pub honest: HonestTally,
    /// Hostile lines injected (replay bursts count every line).
    pub hostile_lines: u64,
    /// Attacks mounted, by kind.
    pub attacks: AdversaryCounters,
    /// Hostile lines the parser rejected (junk).
    pub malformed: u64,
    /// Whether the honest stream fully reconciles: every honest
    /// submission accounted for, the engine ledger identity holds, and
    /// `silent_loss == 0` — under attack. **Must be true.**
    pub honest_ledger_reconciles: bool,
    /// Wall-clock time of the run, seconds.
    pub wall_s: f64,
    /// Offered load per wall-clock second actually sustained.
    pub achieved_rate_per_s: f64,
}

impl SoakOutcome {
    /// The outcome as JSON (what the CLI archives for CI).
    pub fn to_json(&self) -> serde_json::Value {
        let mut v = self.report.to_json();
        if let serde_json::Value::Object(map) = &mut v {
            map.insert("offered".into(), serde_json::Value::from(self.offered));
            map.insert(
                "honest_submitted".into(),
                serde_json::Value::from(self.honest.submitted),
            );
            map.insert(
                "honest_admitted".into(),
                serde_json::Value::from(self.honest.admitted),
            );
            map.insert(
                "honest_duplicates".into(),
                serde_json::Value::from(self.honest.duplicates),
            );
            map.insert(
                "honest_rejected".into(),
                serde_json::Value::from(self.honest.rejected),
            );
            map.insert(
                "honest_refused_quarantined".into(),
                serde_json::Value::from(self.honest.refused_quarantined),
            );
            map.insert("hostile_lines".into(), serde_json::Value::from(self.hostile_lines));
            map.insert("attacks_spoofed".into(), serde_json::Value::from(self.attacks.spoofed));
            map.insert("attacks_lies".into(), serde_json::Value::from(self.attacks.lies));
            map.insert(
                "attacks_replayed_lines".into(),
                serde_json::Value::from(self.attacks.replayed_lines),
            );
            map.insert("attacks_junk".into(), serde_json::Value::from(self.attacks.junk));
            map.insert(
                "attacks_oversize".into(),
                serde_json::Value::from(self.attacks.oversize),
            );
            map.insert("malformed".into(), serde_json::Value::from(self.malformed));
            map.insert(
                "honest_ledger_reconciles".into(),
                serde_json::Value::Bool(self.honest_ledger_reconciles),
            );
            map.insert("wall_s".into(), serde_json::Value::from(self.wall_s));
            map.insert(
                "achieved_rate_per_s".into(),
                serde_json::Value::from(self.achieved_rate_per_s),
            );
        }
        v
    }
}

/// The honest open-loop generator: one ChaCha12 stream from the soak
/// seed draws each request's sensor and deficit fraction, and a
/// fractional per-tick carry honours any rate exactly over time.
struct Arrivals {
    rng: ChaCha12Rng,
    per_tick: f64,
    carry: f64,
    sensors: usize,
    deficit_fraction: (f64, f64),
    /// Ticks of load in the soak: an exact count, not a `now_s < end`
    /// comparison, so floating-point drift in the clock cannot add or
    /// drop a tick.
    ticks: u64,
}

impl Arrivals {
    /// # Panics
    ///
    /// If `cfg.rate_per_s` or `cfg.duration_s` is negative or non-finite.
    fn new(cfg: &SoakConfig, sensors: usize, tick_s: f64) -> Arrivals {
        assert!(
            cfg.rate_per_s >= 0.0 && cfg.rate_per_s.is_finite(),
            "soak rate must be non-negative and finite"
        );
        assert!(
            cfg.duration_s >= 0.0 && cfg.duration_s.is_finite(),
            "soak duration must be non-negative and finite"
        );
        Arrivals {
            rng: ChaCha12Rng::seed_from_u64(cfg.seed),
            per_tick: cfg.rate_per_s * tick_s,
            carry: 0.0,
            sensors,
            deficit_fraction: cfg.deficit_fraction,
            ticks: (cfg.duration_s / tick_s).round() as u64,
        }
    }

    /// Advances the carry by one tick and returns the arrivals due in it.
    fn tick(&mut self) -> u64 {
        self.carry += self.per_tick;
        let due = self.carry.floor() as u64;
        self.carry -= due as f64;
        due
    }

    /// Draws one honest request: a sensor and its deficit fraction.
    fn draw(&mut self) -> (u32, f64) {
        let sensor = self.rng.gen_range(0..self.sensors) as u32;
        let (lo, hi) = self.deficit_fraction;
        let fraction = if hi > lo { self.rng.gen_range(lo..=hi) } else { lo };
        (sensor, fraction)
    }
}

/// Drives `engine` with `cfg`'s load until the duration elapses or
/// `stop` trips, then shuts the engine down and reports.
///
/// An armed [`SoakConfig::adversary`] replaces its fraction of arrival
/// slots with attacks. Hostile lines go through
/// [`crate::ingress::classify_line`] — the same length-bound-then-parse
/// policy as the daemon's wire path — so junk and oversize attacks
/// exercise the parser and the counters exactly as a socket client
/// would. Honest deficits stay inside the guard's plausibility margin,
/// so what separates honest from hostile is the *behaviour*, not a
/// whitelist. Disarmed, the adversary draws nothing: every slot is an
/// honest request from the seeded generator, and `tests/regression.rs`
/// pins that digest.
///
/// # Errors
///
/// [`ServeError::Adversary`] for an invalid attack mix; engine I/O
/// failures ([`ServeError::Io`]).
///
/// # Panics
///
/// If `cfg.rate_per_s` or `cfg.duration_s` is negative or non-finite.
pub fn run_soak(
    mut engine: ServeEngine,
    cfg: &SoakConfig,
    stop: Option<&Arc<AtomicBool>>,
) -> Result<SoakOutcome, ServeError> {
    let (n, tick_s) = (engine.sensor_count(), engine.config().tick_s);
    let mut arrivals = Arrivals::new(cfg, n, tick_s);
    cfg.adversary.validate()?;
    let mut adversary = AdversaryModel::new(cfg.adversary);
    let t0 = Instant::now();
    let mut offered = 0u64;
    let mut honest = HonestTally::default();
    let mut hostile_lines = 0u64;
    let mut malformed = 0u64;

    let mut stopped = false;
    for _ in 0..arrivals.ticks {
        if stop.is_some_and(|f| stop_requested(f)) {
            stopped = true;
            break;
        }
        for _ in 0..arrivals.tick() {
            offered += 1;
            if adversary.roll_hostile() {
                let (_, lines) = adversary.attack(n as u32);
                for line in &lines {
                    hostile_lines += 1;
                    match classify_line(line, cfg.max_line_bytes) {
                        IngressEvent::Request(req) => {
                            // Whatever the guard and the engine decide
                            // is already ledgered; nothing to tally.
                            let _ = engine.submit(req.sensor, req.deficit_j)?;
                        }
                        IngressEvent::Malformed(_) => malformed += 1,
                        IngressEvent::Oversize => engine.note_ingress_oversize(),
                        _ => {}
                    }
                }
            } else {
                honest.submitted += 1;
                let (sensor, fraction) = arrivals.draw();
                match engine.submit_fraction(sensor, fraction)? {
                    Admission::Accepted { .. } | Admission::ShedOnArrival { .. } => {
                        honest.admitted += 1;
                    }
                    Admission::Duplicate => honest.duplicates += 1,
                    Admission::Rejected { .. } => honest.rejected += 1,
                    Admission::RefusedQuarantined => honest.refused_quarantined += 1,
                    Admission::RefusedDegraded => honest.refused_degraded += 1,
                    Admission::Invalid => honest.invalid += 1,
                }
            }
        }
        engine.tick()?;
        if cfg.realtime {
            std::thread::sleep(std::time::Duration::from_secs_f64(tick_s));
        }
    }

    if cfg.drain && !stopped {
        let drain_end = engine.now_s() + cfg.drain_limit_s.max(0.0);
        while engine.in_flight() > 0 && engine.now_s() < drain_end {
            if stop.is_some_and(|f| stop_requested(f)) {
                break;
            }
            engine.tick()?;
        }
    }

    let wall_s = t0.elapsed().as_secs_f64();
    let attacks = *adversary.counters();
    let report = engine.shutdown()?;
    let honest_ledger_reconciles = honest.accounted() == honest.submitted
        && report.ledger_reconciles
        && report.silent_loss() == 0;
    Ok(SoakOutcome {
        report,
        offered,
        honest,
        hostile_lines,
        attacks,
        malformed,
        honest_ledger_reconciles,
        wall_s,
        achieved_rate_per_s: if wall_s > 0.0 { offered as f64 / wall_s } else { 0.0 },
    })
}

/// What a chaos drill did: a soak run under a seeded fault schedule
/// with repeated simulated `kill -9` (drop without shutdown) and
/// resume cycles, plus the invariants checked after every recovery.
#[derive(Clone, Debug)]
pub struct ChaosDrillOutcome {
    /// The final engine's shutdown report.
    pub report: ServeReport,
    /// Requests the generator offered across every life.
    pub offered: u64,
    /// Submissions refused by degraded mode across every life.
    pub refused_degraded: u64,
    /// Kill (drop-without-shutdown) cycles performed.
    pub kills: u32,
    /// Resumes that came back with a reconciling ledger.
    pub resumes_ok: u32,
    /// Whether every resume conserved the durable floor: resumed
    /// `admitted` within `[admitted - wal_pending, admitted]` of the
    /// crashed life (group commit's at-most-one-batch exposure), with a
    /// reconciling ledger. **Must be true.**
    pub conservation_held: bool,
    /// High-water mark of the durable WAL size across every life
    /// (compaction must keep this bounded by snapshot interval).
    pub wal_max_bytes: u64,
    /// Faults injected by the chaos layer, summed across lives.
    pub injections_total: u64,
    /// Degraded-mode entries, summed across lives.
    pub degraded_entries: u64,
    /// Degraded-mode exits (probe re-arms), summed across lives.
    pub degraded_exits: u64,
    /// WAL group-commit retries, summed across lives.
    pub io_retries: u64,
    /// WAL compactions, summed across lives.
    pub compactions: u64,
    /// Wall-clock time of the whole drill, seconds.
    pub wall_s: f64,
}

impl ChaosDrillOutcome {
    /// The outcome as JSON (what the CLI archives for CI).
    pub fn to_json(&self) -> serde_json::Value {
        let mut v = self.report.to_json();
        if let serde_json::Value::Object(map) = &mut v {
            map.insert("offered".into(), serde_json::Value::from(self.offered));
            map.insert(
                "refused_degraded_total".into(),
                serde_json::Value::from(self.refused_degraded),
            );
            map.insert("kills".into(), serde_json::Value::from(self.kills));
            map.insert("resumes_ok".into(), serde_json::Value::from(self.resumes_ok));
            map.insert(
                "conservation_held".into(),
                serde_json::Value::Bool(self.conservation_held),
            );
            map.insert("wal_max_bytes".into(), serde_json::Value::from(self.wal_max_bytes));
            map.insert(
                "injections_total".into(),
                serde_json::Value::from(self.injections_total),
            );
            map.insert(
                "degraded_entries_total".into(),
                serde_json::Value::from(self.degraded_entries),
            );
            map.insert(
                "degraded_exits_total".into(),
                serde_json::Value::from(self.degraded_exits),
            );
            map.insert("io_retries_total".into(), serde_json::Value::from(self.io_retries));
            map.insert("compactions_total".into(), serde_json::Value::from(self.compactions));
            map.insert("wall_s".into(), serde_json::Value::from(self.wall_s));
        }
        v
    }
}

/// Per-life counter bases for exact cross-life deltas (metrics restore
/// from the last checkpoint, so raw end-of-run values undercount).
#[derive(Clone, Copy, Default)]
struct LifeBase {
    degraded_entries: u64,
    degraded_exits: u64,
    io_retries: u64,
    compactions: u64,
}

impl LifeBase {
    fn of(engine: &ServeEngine) -> LifeBase {
        LifeBase {
            degraded_entries: engine.metrics().degraded_entries,
            degraded_exits: engine.metrics().degraded_exits,
            io_retries: engine.metrics().io_retries,
            compactions: engine.metrics().compactions,
        }
    }
}

/// Runs the soak workload under a seeded fault schedule with
/// `kill_cycles` simulated `kill -9` + resume cycles spread evenly
/// through the run, asserting after every recovery that the durable
/// floor is conserved and the ledger reconciles. The load generator's
/// RNG stream continues across crashes, so the offered workload is one
/// deterministic function of `soak.seed` regardless of where the kills
/// land; each life re-arms the failpoint registry with `chaos.seed`
/// advanced by the life index.
///
/// A *simulated* kill drops the engine without shutdown — exactly the
/// state a real SIGKILL leaves: no final WAL sync (the pending batch is
/// lost, which is group commit's documented at-most-one-batch window),
/// no final snapshot. The real-process SIGKILL variant lives in the CI
/// chaos-drill job on top of the CLI.
///
/// The drill offers honest load only: it ignores `soak.adversary`,
/// `soak.max_line_bytes` and `soak.realtime`.
///
/// # Errors
///
/// Propagates engine construction/resume failures. Storage faults
/// during the run degrade rather than error, so a failing disk does
/// not abort the drill.
///
/// # Panics
///
/// If `soak.rate_per_s`/`soak.duration_s` are negative or non-finite.
#[allow(clippy::too_many_lines)]
pub fn run_chaos_drill(
    net: &Network,
    serve_cfg: ServeConfig,
    primary: &Arc<PlannerFactory>,
    chaos: ChaosConfig,
    soak: &SoakConfig,
    kill_cycles: u32,
    state_dir: &Path,
) -> Result<ChaosDrillOutcome, ServeError> {
    let mut arrivals = Arrivals::new(soak, net.sensors().len(), serve_cfg.tick_s);
    std::fs::create_dir_all(state_dir).map_err(|e| ServeError::Io(e.to_string()))?;
    let wal_path = state_dir.join("requests.wal");
    let snap_path = state_dir.join("serve_checkpoint.json");

    let total_ticks = arrivals.ticks.max(1);
    let lives = u64::from(kill_cycles) + 1;
    let t0 = Instant::now();

    let mut offered = 0u64;
    let mut refused_degraded = 0u64;
    let mut kills = 0u32;
    let mut resumes_ok = 0u32;
    let mut conservation_held = true;
    let mut wal_max_bytes = 0u64;
    let mut injections_total = 0u64;
    let mut degraded_entries = 0u64;
    let mut degraded_exits = 0u64;
    let mut io_retries = 0u64;
    let mut compactions = 0u64;

    let mut engine = ServeEngine::new(net.clone(), serve_cfg, Arc::clone(primary))?
        .with_wal(&wal_path)?
        .with_snapshot(&snap_path)
        .with_chaos(chaos)?;
    let mut base = LifeBase::of(&engine);
    let mut done_ticks = 0u64;

    for life in 0..lives {
        // Even split; the last life absorbs the remainder.
        let seg = if life + 1 == lives {
            total_ticks - done_ticks
        } else {
            (total_ticks / lives).max(1)
        };
        for _ in 0..seg {
            for _ in 0..arrivals.tick() {
                let (sensor, fraction) = arrivals.draw();
                offered += 1;
                if matches!(
                    engine.submit_fraction(sensor, fraction)?,
                    Admission::RefusedDegraded
                ) {
                    refused_degraded += 1;
                }
            }
            engine.tick()?;
            wal_max_bytes = wal_max_bytes.max(engine.wal_committed_bytes());
        }
        done_ticks += seg;

        if life + 1 == lives {
            break;
        }

        // Close out this life's exact counter deltas, then kill -9:
        // drop without shutdown. The pending batch dies with the
        // process — that is the documented exposure window.
        degraded_entries += engine.metrics().degraded_entries - base.degraded_entries;
        degraded_exits += engine.metrics().degraded_exits - base.degraded_exits;
        io_retries += engine.metrics().io_retries - base.io_retries;
        compactions += engine.metrics().compactions - base.compactions;
        injections_total += engine.chaos_counters().total();
        let admitted_before = engine.ledger().admitted;
        let pending_before = engine.wal_pending();
        drop(engine);
        kills += 1;

        let life_chaos = ChaosConfig { seed: chaos.seed.wrapping_add(life + 1), ..chaos };
        engine = ServeEngine::resume(
            net.clone(),
            serve_cfg,
            Arc::clone(primary),
            &snap_path,
            &wal_path,
        )?
        .with_chaos(life_chaos)?;
        base = LifeBase::of(&engine);

        let floor = admitted_before - pending_before;
        let admitted_after = engine.ledger().admitted;
        let ok = admitted_after >= floor
            && admitted_after <= admitted_before
            && engine.ledger_reconciles();
        if ok {
            resumes_ok += 1;
        } else {
            conservation_held = false;
        }
    }

    if soak.drain {
        let drain_end = engine.now_s() + soak.drain_limit_s.max(0.0);
        while engine.in_flight() > 0 && engine.now_s() < drain_end {
            engine.tick()?;
            wal_max_bytes = wal_max_bytes.max(engine.wal_committed_bytes());
        }
    }

    // Final life's close-out (the loop broke before its own).
    degraded_entries += engine.metrics().degraded_entries - base.degraded_entries;
    degraded_exits += engine.metrics().degraded_exits - base.degraded_exits;
    io_retries += engine.metrics().io_retries - base.io_retries;
    compactions += engine.metrics().compactions - base.compactions;
    injections_total += engine.chaos_counters().total();

    let wall_s = t0.elapsed().as_secs_f64();
    let report = engine.shutdown()?;
    Ok(ChaosDrillOutcome {
        report,
        offered,
        refused_degraded,
        kills,
        resumes_ok,
        conservation_held,
        wal_max_bytes,
        injections_total,
        degraded_entries,
        degraded_exits,
        io_retries,
        compactions,
        wall_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::watchdog::PlannerFactory;
    use wrsn_core::{GreedyTour, Planner};
    use wrsn_net::NetworkBuilder;

    fn engine(n: usize, cfg: ServeConfig) -> ServeEngine {
        let net = NetworkBuilder::new(n).seed(11).build();
        let factory: Arc<PlannerFactory> =
            Arc::new(|| Box::new(GreedyTour) as Box<dyn Planner>);
        ServeEngine::new(net, cfg, factory).unwrap()
    }

    #[test]
    fn the_accumulator_honours_fractional_rates() {
        // 2.5 req/s for 8 s at tick 0.1 s must offer exactly 20.
        let cfg = SoakConfig {
            rate_per_s: 2.5,
            duration_s: 8.0,
            drain: true,
            ..SoakConfig::default()
        };
        let outcome =
            run_soak(engine(50, ServeConfig { k: 2, ..ServeConfig::default() }), &cfg, None)
                .unwrap();
        assert_eq!(outcome.offered, 20);
        assert!(outcome.report.ledger_reconciles);
    }

    #[test]
    fn overload_sheds_but_conserves_the_ledger() {
        // 2000 req/s into 40 sensors with a 16-slot queue (fewer slots
        // than sensors, or per-sensor dedup alone would absorb the
        // overload): heavy saturation, duplicates and sheds — and the
        // identity still holds exactly.
        let serve_cfg =
            ServeConfig { k: 2, queue_capacity: 16, ..ServeConfig::default() };
        let cfg = SoakConfig {
            rate_per_s: 2_000.0,
            duration_s: 2.0,
            ..SoakConfig::default()
        };
        let outcome = run_soak(engine(40, serve_cfg), &cfg, None).unwrap();
        assert_eq!(outcome.offered, 4_000);
        assert!(outcome.report.ledger_reconciles);
        assert_eq!(outcome.report.silent_loss(), 0);
        assert!(outcome.report.ledger.shed > 0, "saturation must shed");
        assert!(
            outcome.report.max_queue_depth <= 16,
            "queue depth stays bounded under overload"
        );
        assert!(outcome.report.ledger.duplicates > 0);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let serve_cfg = ServeConfig { k: 2, ..ServeConfig::default() };
        let cfg = SoakConfig {
            rate_per_s: 300.0,
            duration_s: 1.0,
            seed: 42,
            ..SoakConfig::default()
        };
        let a = run_soak(engine(60, serve_cfg), &cfg, None).unwrap();
        let b = run_soak(engine(60, serve_cfg), &cfg, None).unwrap();
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.report.ledger, b.report.ledger);
        assert_eq!(a.report.dispatch_latency, b.report.dispatch_latency);
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wrsn_drill_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn drill_chaos() -> ChaosConfig {
        ChaosConfig {
            seed: 21,
            io_error_p: 0.05,
            torn_write_p: 0.03,
            fsync_fail_p: 0.03,
            enospc_from_tick: 30,
            enospc_ticks: 12,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn chaos_drill_conserves_through_faults_and_kills() {
        // A large sensor pool relative to the offered load: per-sensor
        // dedup must not absorb the stream before the ENOSPC window
        // opens, or the window would find an idle WAL and nothing to
        // degrade.
        let net = NetworkBuilder::new(1000).seed(11).build();
        let factory: Arc<PlannerFactory> =
            Arc::new(|| Box::new(GreedyTour) as Box<dyn Planner>);
        let serve_cfg = ServeConfig {
            k: 2,
            snapshot_every_ticks: 20,
            io_retry_backoff_ms: 0, // keep the test fast
            ..ServeConfig::default()
        };
        let soak = SoakConfig {
            rate_per_s: 200.0,
            duration_s: 12.0,
            seed: 7,
            ..SoakConfig::default()
        };
        let dir = tmp_dir("conserve");
        let out = run_chaos_drill(&net, serve_cfg, &factory, drill_chaos(), &soak, 3, &dir)
            .unwrap();
        assert_eq!(out.kills, 3);
        assert_eq!(out.resumes_ok, 3, "every resume must reconcile");
        assert!(out.conservation_held, "durable floor must be conserved");
        assert!(out.report.ledger_reconciles);
        assert_eq!(out.report.silent_loss(), 0);
        assert!(out.injections_total > 0, "this schedule must inject faults");
        assert!(out.degraded_entries >= 1, "the ENOSPC window must degrade");
        assert!(out.degraded_exits >= 1, "the probe must re-arm after the window");
        assert!(out.compactions >= 1, "snapshots must compact the WAL");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_drill_is_deterministic_per_seed() {
        let net = NetworkBuilder::new(300).seed(4).build();
        let factory: Arc<PlannerFactory> =
            Arc::new(|| Box::new(GreedyTour) as Box<dyn Planner>);
        let serve_cfg = ServeConfig {
            k: 2,
            snapshot_every_ticks: 15,
            io_retry_backoff_ms: 0,
            ..ServeConfig::default()
        };
        let soak = SoakConfig {
            rate_per_s: 150.0,
            duration_s: 6.0,
            seed: 9,
            ..SoakConfig::default()
        };
        let da = tmp_dir("det_a");
        let db = tmp_dir("det_b");
        let a = run_chaos_drill(&net, serve_cfg, &factory, drill_chaos(), &soak, 2, &da)
            .unwrap();
        let b = run_chaos_drill(&net, serve_cfg, &factory, drill_chaos(), &soak, 2, &db)
            .unwrap();
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.report.ledger, b.report.ledger);
        assert_eq!(a.injections_total, b.injections_total);
        assert_eq!(a.refused_degraded, b.refused_degraded);
        let _ = std::fs::remove_dir_all(&da);
        let _ = std::fs::remove_dir_all(&db);
    }

    fn armed_guard() -> crate::guard::GuardConfig {
        crate::guard::GuardConfig {
            rate_per_s: 20.0,
            burst: 40.0,
            replay_window_s: 2.0,
            replay_limit: 2,
            deficit_margin: 1.0,
            quarantine_strikes: 3,
            quarantine_s: 4.0,
            parole_s: 2.0,
        }
    }

    #[test]
    fn adversarial_soak_survives_twenty_percent_hostile_and_reconciles() {
        // The ISSUE's acceptance scenario: 20% hostile (spoof + lie +
        // replay + junk + oversize mix), guard armed. The run must not
        // panic, the honest stream must fully reconcile with
        // silent_loss == 0, and quarantine must cross parole in both
        // directions (paroled at least once, re-quarantined at least
        // once).
        let serve_cfg = ServeConfig {
            k: 2,
            tick_s: 0.05,
            guard: armed_guard(),
            ..ServeConfig::default()
        };
        let cfg = SoakConfig {
            rate_per_s: 300.0,
            duration_s: 30.0,
            seed: 5,
            // Tiny deficits (a few joules) keep charge durations
            // short enough for honest work to complete in-run.
            deficit_fraction: (0.0002, 0.001),
            drain: true,
            adversary: AdversaryConfig {
                seed: 17,
                hostile_fraction: 0.2,
                compromised: 4,
                replay_burst: 6,
                oversize_bytes: 8192,
            },
            max_line_bytes: 4096,
            ..SoakConfig::default()
        };
        let out = run_soak(engine(120, serve_cfg), &cfg, None).unwrap();
        assert!(out.honest_ledger_reconciles, "honest stream must reconcile");
        assert!(out.report.ledger_reconciles);
        assert_eq!(out.report.silent_loss(), 0);
        assert!(out.hostile_lines > 0);
        assert!(out.attacks.spoofed > 0 && out.report.ledger.invalid > 0);
        assert!(out.attacks.lies > 0 && out.report.guard.rejected_implausible > 0);
        assert!(
            out.attacks.replayed_lines > 0 && out.report.guard.rejected_replayed > 0
        );
        assert!(out.attacks.junk > 0 && out.malformed > 0);
        assert!(out.attacks.oversize > 0 && out.report.ingress_oversize > 0);
        assert!(out.report.guard.quarantines >= 1, "quarantine must fire");
        assert!(out.report.guard.paroles >= 1, "parole must be crossed");
        assert!(
            out.report.guard.requarantines >= 1,
            "a parole violation must re-quarantine"
        );
        assert!(
            out.honest.admitted > 0 && out.report.ledger.charged > 0,
            "honest service must continue under attack: honest {:?}, ledger {:?}, guard {:?}",
            out.honest,
            out.report.ledger,
            out.report.guard,
        );
    }

    #[test]
    fn adversarial_soak_is_deterministic_per_seed_pair() {
        let serve_cfg = ServeConfig {
            k: 2,
            tick_s: 0.05,
            guard: armed_guard(),
            ..ServeConfig::default()
        };
        let cfg = SoakConfig {
            rate_per_s: 200.0,
            duration_s: 5.0,
            seed: 8,
            adversary: AdversaryConfig {
                seed: 23,
                hostile_fraction: 0.3,
                ..AdversaryConfig::default()
            },
            max_line_bytes: 512,
            ..SoakConfig::default()
        };
        let a = run_soak(engine(80, serve_cfg), &cfg, None).unwrap();
        let b = run_soak(engine(80, serve_cfg), &cfg, None).unwrap();
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.honest, b.honest);
        assert_eq!(a.attacks, b.attacks);
        assert_eq!(a.report.ledger, b.report.ledger);
        assert_eq!(a.report.guard, b.report.guard);
    }

    #[test]
    fn disarmed_adversary_is_bit_identical_to_the_honest_generator_alone() {
        // The adversary draws zero RNG values when disarmed, so a
        // disarmed model with its own seed leaves the honest generator's
        // run exactly as the default config runs it (the pinned
        // regression digest builds on this).
        let serve_cfg = ServeConfig { k: 2, guard: armed_guard(), ..ServeConfig::default() };
        let plain_cfg =
            SoakConfig { rate_per_s: 250.0, duration_s: 4.0, seed: 3, ..SoakConfig::default() };
        let cfg = SoakConfig {
            adversary: AdversaryConfig { seed: 99, ..AdversaryConfig::default() },
            ..plain_cfg
        };
        let a = run_soak(engine(70, serve_cfg), &cfg, None).unwrap();
        let plain = run_soak(engine(70, serve_cfg), &plain_cfg, None).unwrap();
        assert!(a.honest_ledger_reconciles);
        assert_eq!(a.hostile_lines, 0);
        assert_eq!(a.attacks, AdversaryCounters::default());
        assert_eq!(a.honest.submitted, a.offered);
        assert_eq!(a.offered, plain.offered);
        assert_eq!(a.report.ledger, plain.report.ledger);
        assert_eq!(a.report.dispatch_latency, plain.report.dispatch_latency);
    }

    #[test]
    fn a_tripped_stop_flag_ends_the_soak_early() {
        let stop = Arc::new(AtomicBool::new(true)); // already tripped
        let cfg = SoakConfig { rate_per_s: 100.0, duration_s: 30.0, ..SoakConfig::default() };
        let outcome = run_soak(
            engine(50, ServeConfig { k: 1, ..ServeConfig::default() }),
            &cfg,
            Some(&stop),
        )
        .unwrap();
        assert_eq!(outcome.offered, 0);
        assert_eq!(outcome.report.ticks, 0);
    }
}
