//! `serve_distinct` and `serve_hot`: the serve engine fed pre-rendered
//! wire bytes through its ingress on the virtual clock, without pacing.
//!
//! Unit of work: one tick's *busy time* — that tick's ingress
//! (`read_bounded_line` → `classify_line`), its `submit`s, `tick`, and
//! the checkpoint when one is due — against the 100 ms a paced daemon
//! has. A session is a fresh engine (network build, WAL and snapshot
//! files: the set-up) on one network of the run's panel, driven through
//! a fixed number of ticks and shut down. Sessions cycle through the
//! panel until the budget is spent; every session of one network replays
//! the same bytes.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use wrsn_core::{Appro, Planner, PlannerConfig};
use wrsn_geom::Rect;
use wrsn_net::{Network, NetworkBuilder};
use wrsn_serve::{
    classify_line, read_bounded_line, BoundedLine, GuardConfig, IngressEvent, PlannerFactory,
    ServeConfig, ServeEngine, ServeReport, ServeRequest,
};

use crate::report::{
    instance_seed, median_of, metric, overhead, panel_median, reference_s, tail_at, Budget, Metric,
    Outcome,
};
use crate::trace::{self, CaseLog, Span, TimedAppro, TracedUnit, Tracer};

/// The daemon's default ingress line bound.
const MAX_LINE_BYTES: usize = 65_536;

const SESSION: &str = "serve.session";
const BUSY: &str = "serve.busy";
const INGRESS: &str = "serve.ingress";
const SUBMIT: &str = "serve.submit";
const TICK: &str = "serve.tick";
const CHECKPOINT: &str = "serve.checkpoint";
const PLANNER: &str = "serve.planner";

/// One serve workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeSpec {
    /// Sensors in the served network.
    pub n: usize,
    /// Square field side, meters (`None`: the 100 m default).
    pub side_m: Option<f64>,
    /// Engine configuration.
    pub cfg: ServeConfig,
    /// Offered load, requests per second of service time (open loop).
    pub rate_per_s: f64,
    /// Ticks per session.
    pub ticks: usize,
    /// Sensors are a seeded permutation (no sensor repeats) instead of
    /// draws with replacement.
    pub distinct: bool,
    /// Reported deficits, as fractions of capacity.
    pub deficit_fraction: (f64, f64),
    /// `checkpoint_now` every this many ticks.
    pub checkpoint_every: usize,
    /// Networks per run, each with its own seed and traffic.
    pub panel: usize,
}

impl ServeSpec {
    /// The durable path with admitted = offered: 500 req/s (below the
    /// 640 req/s admission ceiling) of never-repeating sensors, 12 000
    /// of them at the paper's density.
    pub fn distinct() -> ServeSpec {
        ServeSpec {
            n: 12_000,
            side_m: Some(447.0),
            cfg: ServeConfig {
                k: 3,
                ..ServeConfig::default()
            },
            rate_per_s: 500.0,
            ticks: 240,
            distinct: true,
            deficit_fraction: (0.0002, 0.001),
            checkpoint_every: 40,
            panel: 4,
        }
    }

    /// The CI soak-smoke traffic (n = 300, 10k req/s drawn with
    /// replacement) with the ingress guard armed; rate limit and replay
    /// window are set so honest traffic is never refused.
    pub fn hot() -> ServeSpec {
        let guard = GuardConfig {
            rate_per_s: 100.0,
            burst: 200.0,
            replay_window_s: 2.0,
            replay_limit: 2,
            ..GuardConfig::default()
        };
        ServeSpec {
            n: 300,
            side_m: None,
            cfg: ServeConfig {
                k: 3,
                guard,
                ..ServeConfig::default()
            },
            rate_per_s: 10_000.0,
            ticks: 300,
            distinct: false,
            deficit_fraction: (0.0002, 0.001),
            checkpoint_every: 100,
            panel: 4,
        }
    }
}

fn network(spec: &ServeSpec, seed: u64) -> Network {
    let mut b = NetworkBuilder::new(spec.n).seed(seed);
    if let Some(side) = spec.side_m {
        b = b.field(Rect::square(side));
    }
    b.build()
}

/// The seeded wire traffic of one session: one buffer of
/// newline-terminated request lines per tick, and the line count.
/// Arrivals per tick carry their fractional part, so the rate holds
/// exactly over time.
///
/// # Errors
///
/// When a distinct-sensor workload offers more requests than there are
/// sensors.
pub fn traffic(
    spec: &ServeSpec,
    seed: u64,
    capacity_j: &[f64],
) -> Result<(Vec<Vec<u8>>, u64), String> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let n = capacity_j.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    if spec.distinct {
        order.shuffle(&mut rng);
    }
    let (lo, hi) = spec.deficit_fraction;
    let mut ticks = Vec::with_capacity(spec.ticks);
    let (mut carry, mut offered) = (0.0f64, 0u64);
    for _ in 0..spec.ticks {
        carry += spec.rate_per_s * spec.cfg.tick_s;
        let arrivals = carry.floor() as u64;
        carry -= arrivals as f64;
        let mut bytes = Vec::new();
        for _ in 0..arrivals {
            let sensor = if spec.distinct {
                *order
                    .get(offered as usize)
                    .ok_or_else(|| format!("distinct traffic needs more than {n} sensors"))?
            } else {
                rng.gen_range(0..n) as u32
            };
            let fraction = rng.gen_range(lo..=hi);
            let req = ServeRequest {
                sensor,
                deficit_j: Some(fraction * capacity_j[sensor as usize]),
            };
            bytes.extend_from_slice(req.to_json_line().as_bytes());
            bytes.push(b'\n');
            offered += 1;
        }
        ticks.push(bytes);
    }
    Ok((ticks, offered))
}

/// One network of the panel: its seed and its pre-rendered traffic.
struct Instance {
    seed: u64,
    traffic: Vec<Vec<u8>>,
    offered: u64,
}

struct Session {
    instance: usize,
    setup_s: f64,
    net_s: f64,
    /// Per tick: busy, ingress, submit, tick, checkpoint (seconds; the
    /// checkpoint is 0 when none was due) and whether the tick re-planned.
    ticks: Vec<[f64; 5]>,
    replanned: Vec<bool>,
    lines: u64,
    malformed: u64,
    /// Largest committed WAL a checkpoint compacted.
    wal_bytes: u64,
    shutdown_s: f64,
    report: ServeReport,
    /// The session's span (traced).
    span: Option<Span>,
    /// The reference loop's time around the ticks.
    ref_s: f64,
}

impl Session {
    fn busy_s(&self) -> f64 {
        self.ticks.iter().map(|t| t[0]).sum()
    }

    fn work_ref(&self) -> f64 {
        self.busy_s() / self.ref_s
    }
}

/// The primary planner: Appro, timed into spans when traced, with the
/// calls logged for the stage replay when given a case log.
fn factory(tracer: Option<&Arc<Tracer>>, cases: Option<&CaseLog>) -> Arc<PlannerFactory> {
    match tracer {
        None => Arc::new(|| Box::new(Appro::new(PlannerConfig::default())) as Box<dyn Planner>),
        Some(t) => {
            let (t, cases) = (Arc::clone(t), cases.cloned());
            Arc::new(move || {
                Box::new(TimedAppro::new(&t, PLANNER, cases.as_ref())) as Box<dyn Planner>
            })
        }
    }
}

fn session(
    spec: &ServeSpec,
    instance: usize,
    inst: &Instance,
    dir: &Path,
    tracer: Option<&Arc<Tracer>>,
    cases: Option<&CaseLog>,
) -> Result<Session, String> {
    let err = |e: wrsn_serve::ServeError| format!("serve engine: {e}");
    let start = Instant::now();
    let net = network(spec, inst.seed);
    let net_s = start.elapsed().as_secs_f64();
    let mut engine = ServeEngine::new(net, spec.cfg, factory(tracer, cases))
        .map_err(err)?
        .with_wal(&dir.join("requests.wal"))
        .map_err(err)?
        .with_snapshot(&dir.join("serve_checkpoint.json"));
    let setup_s = start.elapsed().as_secs_f64();

    let ref_before = reference_s();
    let origin = Instant::now();
    let stamp = || tracer.map_or_else(|| origin.elapsed().as_nanos() as u64, |t| t.now_ns());
    let session_id = tracer.map_or(0, |t| t.open());
    let session_start = stamp();
    let mut ticks = Vec::with_capacity(inst.traffic.len());
    let mut replanned = Vec::with_capacity(inst.traffic.len());
    let (mut lines, mut malformed, mut wal_bytes) = (0u64, 0u64, 0u64);
    let mut requests = Vec::new();
    for (i, bytes) in inst.traffic.iter().enumerate() {
        let due = (i + 1) % spec.checkpoint_every == 0;
        let ids = tracer.map(|t| (t.open(), t.open()));
        let t0 = stamp();
        requests.clear();
        let mut reader: &[u8] = bytes;
        loop {
            match read_bounded_line(&mut reader, MAX_LINE_BYTES) {
                BoundedLine::Line(line) => match classify_line(&line, MAX_LINE_BYTES) {
                    IngressEvent::Request(req) => requests.push(req),
                    _ => malformed += 1,
                },
                BoundedLine::Eof => break,
                BoundedLine::Oversize | BoundedLine::Err(_) => malformed += 1,
            }
        }
        let t1 = stamp();
        for req in &requests {
            engine.submit(req.sensor, req.deficit_j).map_err(err)?;
        }
        let t2 = stamp();
        let replans = engine.metrics().full_replans;
        if let (Some(t), Some((_, tick_id))) = (tracer, ids) {
            // Re-plans inside `tick` record their planner spans under it.
            t.set_parent(tick_id);
        }
        engine.tick().map_err(err)?;
        let t3 = stamp();
        if due {
            wal_bytes = wal_bytes.max(engine.wal_committed_bytes());
            engine.checkpoint_now().map_err(err)?;
        }
        let t4 = stamp();
        lines += requests.len() as u64;
        replanned.push(engine.metrics().full_replans > replans);
        let s = |a: u64, b: u64| b.saturating_sub(a) as f64 * 1e-9;
        ticks.push([s(t0, t4), s(t0, t1), s(t1, t2), s(t2, t3), s(t3, t4)]);
        if let (Some(t), Some((busy, tick_id))) = (tracer, ids) {
            t.push(Span {
                id: busy,
                parent: session_id,
                name: BUSY,
                start_ns: t0,
                end_ns: t4,
            });
            t.add(INGRESS, busy, t0, t1);
            t.add(SUBMIT, busy, t1, t2);
            t.push(Span {
                id: tick_id,
                parent: busy,
                name: TICK,
                start_ns: t2,
                end_ns: t3,
            });
            if due {
                t.add(CHECKPOINT, busy, t3, t4);
            }
        }
    }
    let span = tracer.map(|t| t.close(session_id, SESSION, 0, session_start));
    let ref_s = (ref_before + reference_s()) / 2.0;
    let start = Instant::now();
    let report = engine.shutdown().map_err(err)?;
    let shutdown_s = start.elapsed().as_secs_f64();
    Ok(Session {
        instance,
        setup_s,
        net_s,
        ticks,
        replanned,
        lines,
        malformed,
        wal_bytes,
        shutdown_s,
        report,
        span,
        ref_s,
    })
}

/// The deterministic part of a session's report; must repeat exactly.
fn quality(r: &ServeReport) -> [u64; 9] {
    let l = &r.ledger;
    [
        l.admitted,
        l.charged,
        l.shed,
        l.duplicates,
        l.rejected,
        r.full_replans,
        r.replans_skipped,
        r.incremental_inserts,
        r.dispatch_latency.p99_s.to_bits(),
    ]
}

fn check(
    spec: &ServeSpec,
    sessions: &[Session],
    panel: &[Instance],
    reference: &[[u64; 9]],
    out: &mut Outcome,
) {
    for s in sessions {
        let offered = panel[s.instance].offered;
        let r = &s.report;
        let l = &r.ledger;
        out.attempted += offered;
        out.failed += l.shed + l.rejected + l.invalid + l.refused_degraded + l.refused_quarantined;
        let mut bad = Vec::new();
        if !r.ledger_reconciles {
            bad.push("ledger does not reconcile".to_string());
        }
        if r.silent_loss() != 0 {
            bad.push(format!("silent loss {}", r.silent_loss()));
        }
        if s.malformed != 0 || s.lines != offered {
            bad.push(format!(
                "{} of {offered} lines parsed, {} malformed",
                s.lines, s.malformed
            ));
        }
        if spec.distinct && (l.duplicates != 0 || l.admitted + l.shed != offered) {
            bad.push(format!(
                "distinct traffic: {} duplicates, admitted {} + shed {} != offered {offered}",
                l.duplicates, l.admitted, l.shed
            ));
        }
        if quality(r) != reference[s.instance] {
            bad.push("serve report is not deterministic for one seed".into());
        }
        for b in bad {
            out.violate(b);
        }
    }
}

fn busy_s(sessions: &[Session]) -> Vec<f64> {
    sessions
        .iter()
        .flat_map(|s| s.ticks.iter().map(|t| t[0]))
        .collect()
}

/// Mean over the panel of the per-network median of `f` over sessions.
fn per_session(sessions: &[Session], f: impl Fn(&Session) -> f64) -> f64 {
    panel_median(sessions.iter().map(|s| (s.instance, f(s))))
}

/// Runs sessions, cycling through the panel, until `budget` is spent.
/// When traced, the first session's Appro calls are logged for the
/// stage replay.
fn phase(
    spec: &ServeSpec,
    panel: &[Instance],
    dir: &Path,
    budget: &Budget,
    traced: Option<(&Arc<Tracer>, &CaseLog)>,
) -> Result<Vec<Session>, String> {
    let mut sessions = Vec::new();
    while budget.more(sessions.len()) {
        let i = sessions.len() % panel.len();
        let cases = traced.filter(|_| sessions.is_empty()).map(|(_, c)| c);
        sessions.push(session(
            spec,
            i,
            &panel[i],
            dir,
            traced.map(|(t, _)| t),
            cases,
        )?);
    }
    Ok(sessions)
}

/// Runs the workload for `seconds` with its WAL and snapshot in `dir`;
/// with `trace`, half untraced and half traced.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, trace: bool, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_in(spec, seed, seconds, trace, dir, &mut out) {
        out.violate(e);
    }
    out
}

fn run_in(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let panel = (0..spec.panel)
        .map(|i| {
            let seed = instance_seed(seed, i);
            let capacity: Vec<f64> = network(spec, seed)
                .sensors()
                .iter()
                .map(|s| s.capacity_j)
                .collect();
            let (traffic, offered) = traffic(spec, seed, &capacity)?;
            Ok(Instance {
                seed,
                traffic,
                offered,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let plain_s = if trace { seconds / 2.0 } else { seconds };
    // Every network runs at least twice, so its repeat is checked.
    let budget = Budget::new(plain_s, 2 * spec.panel);
    let sessions = phase(spec, &panel, dir, &budget, None)?;
    let reference: Vec<[u64; 9]> = sessions[..spec.panel]
        .iter()
        .map(|s| quality(&s.report))
        .collect();
    check(spec, &sessions, &panel, &reference, out);

    let n = sessions.len();
    let note = format!(
        "mean over {} networks of the median of their {n} sessions",
        spec.panel
    );
    let busy_ms = panel_median(
        sessions
            .iter()
            .flat_map(|s| s.ticks.iter().map(|t| (s.instance, t[0] * 1e3))),
    );
    let ticks_note = format!(
        "mean over {} networks of the median of their {} ticks",
        spec.panel,
        n * spec.ticks
    );
    let (p99, p99_note) = tail_at(
        &busy_s(&sessions)
            .iter()
            .map(|b| b * 1e3)
            .collect::<Vec<_>>(),
        9900,
        "ticks",
    );
    let admitted_per_s = metric(
        "serve.admitted_per_s",
        per_session(&sessions, |s| s.report.ledger.admitted as f64 / s.busy_s()),
        "1/s",
        format!("admitted / busy seconds, {note}"),
    );
    let lines_per_s = metric(
        "serve.lines_per_s",
        per_session(&sessions, |s| s.lines as f64 / s.busy_s()),
        "1/s",
        format!("wire lines (any outcome) / busy seconds, {note}"),
    );
    out.gate = vec![
        metric(
            "setup_s",
            per_session(&sessions, |s| s.setup_s),
            "s",
            format!("set-ups, {note}"),
        ),
        budget.peak_rss_mb(),
        metric(
            "work_ref",
            per_session(&sessions, Session::work_ref),
            "ref",
            format!("session busy time / reference loop, {note}"),
        ),
    ];
    let dispatch_p99 = sessions[..spec.panel]
        .iter()
        .map(|s| s.report.dispatch_latency.p99_s)
        .sum::<f64>();
    out.named = vec![
        admitted_per_s,
        lines_per_s,
        metric("serve.busy_p50_ms", busy_ms, "ms", ticks_note),
        metric(
            "serve.busy_p99_ms",
            p99,
            "ms",
            format!("pooled over the networks, {p99_note}"),
        ),
        metric(
            "serve.dispatch_p99_s",
            dispatch_p99 / spec.panel as f64,
            "s",
            format!(
                "deterministic; virtual clock, mean over {} networks",
                spec.panel
            ),
        ),
    ];
    if trace {
        let tracer = Arc::new(Tracer::default());
        let cases = CaseLog::default();
        let traced = phase(
            spec,
            &panel,
            dir,
            &Budget::new(seconds / 2.0, spec.panel),
            Some((&tracer, &cases)),
        )?;
        check(spec, &traced, &panel, &reference, out);
        let spans = tracer.spans();
        let units: Vec<TracedUnit> = traced
            .iter()
            .filter_map(|s| {
                s.span.map(|span| TracedUnit {
                    instance: s.instance,
                    span,
                    wall_s: s.busy_s(),
                })
            })
            .collect();
        out.layers = vec![
            overhead(
                &sessions.iter().map(Session::work_ref).collect::<Vec<_>>(),
                &traced.iter().map(Session::work_ref).collect::<Vec<_>>(),
            ),
            metric(
                "net.build_s",
                per_session(&traced, |s| s.net_s),
                "s",
                "mean over networks of the median build",
            ),
        ];
        // The engine waits for each re-plan: one planner call at a time.
        out.layers
            .extend(trace::planner_layers(&spans, &[PLANNER], &units, 1)?);
        let cases = cases
            .lock()
            .expect("case log lock poisoned by a panicking planner");
        out.layers
            .extend(trace::appro_layers(&cases, "the first traced session")?);
        out.detail = detail(&traced, &spans, spec);
        out.spans = spans;
    }
    Ok(())
}

fn detail(sessions: &[Session], spans: &[Span], spec: &ServeSpec) -> Vec<Metric> {
    let n = sessions.len();
    let lines: u64 = sessions.iter().map(|s| s.lines).sum();
    let total = |name: &str| trace::durations(spans, name).iter().sum::<f64>();
    let ms = |name: &str| {
        trace::durations(spans, name)
            .iter()
            .map(|s| s * 1e3)
            .collect::<Vec<f64>>()
    };
    let tick_ms = ms(TICK);
    let (tick_p50, tick_p50_note) = median_of(&tick_ms, "ticks");
    let (tick_p99, tick_p99_note) = tail_at(&tick_ms, 9900, "ticks");
    let replan_ms: Vec<f64> = sessions
        .iter()
        .flat_map(|s| {
            s.ticks
                .iter()
                .zip(&s.replanned)
                .filter(|(_, &r)| r)
                .map(|(t, _)| t[3] * 1e3)
        })
        .collect();
    let (replan, replan_note) = if replan_ms.is_empty() {
        (0.0, "no tick re-planned".to_string())
    } else {
        median_of(&replan_ms, "re-planning ticks")
    };
    let (checkpoint, checkpoint_note) = median_of(&ms(CHECKPOINT), "checkpoints");
    let per = format!("per session, mean over {} networks", spec.panel);
    let det = format!("{per}; deterministic");
    let report = |f: fn(&ServeReport) -> u64| per_session(sessions, |s| f(&s.report) as f64);
    let period_s = spec.cfg.tick_s;
    vec![
        metric(
            "serve.ingress_s",
            per_session(sessions, |s| s.ticks.iter().map(|t| t[1]).sum()),
            "s",
            per.clone(),
        ),
        metric(
            "serve.ingress_ns_per_line",
            total(INGRESS) * 1e9 / lines as f64,
            "ns",
            format!("{lines} lines of {n} sessions"),
        ),
        metric(
            "serve.submit_s",
            per_session(sessions, |s| s.ticks.iter().map(|t| t[2]).sum()),
            "s",
            per.clone(),
        ),
        metric(
            "serve.submit_ns_per_call",
            total(SUBMIT) * 1e9 / lines as f64,
            "ns",
            format!("{lines} calls of {n} sessions"),
        ),
        metric(
            "serve.rejected",
            report(|r| r.ledger.rejected),
            "count",
            det.clone(),
        ),
        metric(
            "serve.quarantines",
            report(|r| r.guard.quarantines),
            "count",
            det.clone(),
        ),
        metric(
            "serve.duplicates",
            report(|r| r.ledger.duplicates),
            "count",
            det.clone(),
        ),
        metric("serve.tick_p50_ms", tick_p50, "ms", tick_p50_note),
        metric("serve.tick_p99_ms", tick_p99, "ms", tick_p99_note),
        metric("serve.tick_replan_ms", replan, "ms", replan_note),
        metric(
            "serve.full_replans",
            report(|r| r.full_replans),
            "count",
            det.clone(),
        ),
        metric(
            "serve.replans_skipped",
            report(|r| r.replans_skipped),
            "count",
            det.clone(),
        ),
        metric(
            "serve.incremental_inserts",
            report(|r| r.incremental_inserts),
            "count",
            det.clone(),
        ),
        metric(
            "serve.in_flight_max",
            report(|r| r.max_in_flight as u64),
            "count",
            det.clone(),
        ),
        metric(
            "serve.overrun_ticks",
            per_session(sessions, |s| {
                s.ticks.iter().filter(|t| t[0] > period_s).count() as f64
            }),
            "count",
            format!("busy > {:.0} ms, {per}", period_s * 1e3),
        ),
        metric("serve.checkpoint_ms", checkpoint, "ms", checkpoint_note),
        metric(
            "serve.wal_bytes",
            per_session(sessions, |s| s.wal_bytes as f64),
            "bytes",
            format!("largest committed WAL a checkpoint compacted, {det}"),
        ),
        metric(
            "serve.shutdown_s",
            per_session(sessions, |s| s.shutdown_s),
            "s",
            per,
        ),
    ]
}

/// Where a run keeps its WAL and snapshot: a private directory under the
/// benchmark's own `state/`, removed when the run ends.
pub fn state_dir(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("state")
        .join(format!("{workload}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ServeSpec {
        ServeSpec {
            n: 2_000,
            side_m: Some(183.0),
            ticks: 30,
            checkpoint_every: 10,
            panel: 2,
            ..ServeSpec::distinct()
        }
    }

    fn capacity(spec: &ServeSpec) -> Vec<f64> {
        network(spec, 1)
            .sensors()
            .iter()
            .map(|s| s.capacity_j)
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_differs() {
        for spec in [ServeSpec::distinct(), ServeSpec::hot()] {
            let cap = capacity(&spec);
            let a = traffic(&spec, 9, &cap).expect("fits");
            assert_eq!(a, traffic(&spec, 9, &cap).expect("fits"));
            assert_ne!(a.0, traffic(&spec, 10, &cap).expect("fits").0);
            assert_eq!(
                a.1,
                (spec.rate_per_s * spec.cfg.tick_s) as u64 * spec.ticks as u64
            );
        }
    }

    #[test]
    fn distinct_traffic_never_repeats_a_sensor() {
        let spec = ServeSpec::distinct();
        let (ticks, offered) = traffic(&spec, 3, &capacity(&spec)).expect("fits");
        let mut seen = std::collections::HashSet::new();
        for line in ticks
            .iter()
            .flat_map(|t| t.split(|&b| b == b'\n'))
            .filter(|l| !l.is_empty())
        {
            let req =
                ServeRequest::parse(std::str::from_utf8(line).expect("utf8")).expect("parses");
            assert!(seen.insert(req.sensor), "sensor {} repeats", req.sensor);
        }
        assert_eq!(seen.len() as u64, offered);
    }

    #[test]
    fn sessions_check_out_and_repeat() {
        let dir = state_dir("unit-test-serve");
        for trace in [false, true] {
            let out = run(&small(), 4, 0.0, trace, &dir);
            assert!(out.violations.is_empty(), "{:?}", out.violations);
            assert_eq!(out.failed, 0);
            assert_eq!(trace, out.layers.iter().any(|m| m.name == "planner.share"));
            assert_eq!(
                trace,
                out.detail.iter().any(|m| m.name == "serve.tick_p99_ms")
            );
        }
        std::fs::remove_dir_all(&dir).expect("state dir removable");
    }
}
