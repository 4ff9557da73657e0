//! `sim_year`: one simulated year at the paper's Fig. 3 point, run under
//! the synchronous (round-barrier) and the asynchronous (per-charger
//! pipelined) dispatcher on the same network.
//!
//! Unit of work: one year on each engine, on one network of the run's
//! panel. Set-up: the network build plus both engines' construction.

use std::sync::Arc;
use std::time::Instant;

use wrsn_core::{Appro, PlanError, Planner, PlannerConfig};
use wrsn_net::{Network, NetworkBuilder, YEAR_SECS};
use wrsn_sim::{AsyncSimulation, SimConfig, SimReport, Simulation};

use crate::report::{
    instance_seed, metric, overhead, panel_median, reference_s, tail_at, Budget, Outcome,
};
use crate::trace::{self, children, self_times, CaseLog, Span, TimedAppro, TracedUnit, Tracer};

const PAIR: &str = "sim.year_pair";
const SYNC_YEAR: &str = "sim.sync.year";
const ASYNC_YEAR: &str = "sim.async.year";
const SYNC_PLANNER: &str = "sim.sync.planner";
const ASYNC_PLANNER: &str = "sim.async.planner";

/// The simulated instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimSpec {
    /// Sensors.
    pub n: usize,
    /// Chargers.
    pub k: usize,
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Networks per run, each from its own seed.
    pub panel: usize,
}

impl SimSpec {
    /// The paper's Fig. 3 point: n = 1200, K = 2, a year, 100 × 100 m,
    /// on four networks (one seed's year time varies by about 10 %
    /// between seeds).
    pub const FIG3: SimSpec = SimSpec {
        n: 1200,
        k: 2,
        horizon_s: YEAR_SECS,
        panel: 4,
    };
}

/// The schedule quality of one year pair. Deterministic: every repeat
/// on one network must reproduce it exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    /// Mean per-round longest delay, sync engine, seconds.
    pub sync_delay_s: f64,
    /// Mean per-round longest delay, async engine, seconds.
    pub async_delay_s: f64,
    /// Rounds dispatched by the sync engine.
    pub sync_rounds: usize,
    /// Rounds dispatched by the async engine.
    pub async_rounds: usize,
    /// Charging requests served over both years.
    pub requests: usize,
}

struct Year {
    instance: usize,
    setup_s: f64,
    net_s: f64,
    sync_s: f64,
    async_s: f64,
    quality: Quality,
    /// The pair's, the sync year's and the async year's spans (traced).
    spans: Option<[Span; 3]>,
    audit: Vec<String>,
    /// The reference loop's time around the unit.
    ref_s: f64,
}

fn network(spec: &SimSpec, seed: u64) -> Network {
    NetworkBuilder::new(spec.n)
        .seed(seed)
        .data_rate_bps(1_000.0, 50_000.0)
        .build()
}

/// Runs one engine for the horizon, inside a span under `parent` when
/// traced.
fn year(
    tracer: Option<&Tracer>,
    parent: u64,
    name: &'static str,
    run: impl FnOnce() -> Result<SimReport, PlanError>,
) -> Result<(SimReport, f64, Option<Span>), String> {
    let open = tracer.map(|t| {
        let id = t.open();
        t.set_parent(id);
        (t, id, t.now_ns())
    });
    let start = Instant::now();
    let report = run().map_err(|e| format!("{name} failed: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    Ok((
        report,
        secs,
        open.map(|(t, id, start_ns)| t.close(id, name, parent, start_ns)),
    ))
}

fn requests(r: &SimReport) -> usize {
    r.rounds.iter().map(|round| round.request_count).sum()
}

fn year_pair(
    spec: &SimSpec,
    seed: u64,
    instance: usize,
    planners: (&dyn Planner, &dyn Planner),
    tracer: Option<&Tracer>,
) -> Result<Year, String> {
    let start = Instant::now();
    let net = network(spec, instance_seed(seed, instance));
    let net_s = start.elapsed().as_secs_f64();
    let cfg = SimConfig {
        horizon_s: spec.horizon_s,
        ..SimConfig::default()
    };
    let sync = Simulation::new(net.clone(), cfg).map_err(|e| format!("sim config: {e}"))?;
    let pipelined = AsyncSimulation::new(net, cfg).map_err(|e| format!("sim config: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();

    let ref_before = reference_s();
    let pair = tracer.map(|t| (t.open(), t.now_ns()));
    let pair_id = pair.map_or(0, |(id, _)| id);
    let (rs, sync_s, sync_span) =
        year(tracer, pair_id, SYNC_YEAR, || sync.run(planners.0, spec.k))?;
    let (ra, async_s, async_span) = year(tracer, pair_id, ASYNC_YEAR, || {
        pipelined.run(planners.1, spec.k)
    })?;
    let spans = match (tracer, pair, sync_span, async_span) {
        (Some(t), Some((id, start_ns)), Some(s), Some(a)) => {
            Some([t.close(id, PAIR, 0, start_ns), s, a])
        }
        _ => None,
    };
    let audit = [("sync", &rs), ("async", &ra)]
        .iter()
        .filter_map(|(engine, r)| r.audit_failure().map(|f| format!("{engine} year: {f}")))
        .collect();
    let quality = Quality {
        sync_delay_s: rs.avg_longest_delay_s(),
        async_delay_s: ra.avg_longest_delay_s(),
        sync_rounds: rs.rounds_dispatched(),
        async_rounds: ra.rounds_dispatched(),
        requests: requests(&rs) + requests(&ra),
    };
    Ok(Year {
        instance,
        setup_s,
        net_s,
        sync_s,
        async_s,
        quality,
        spans,
        audit,
        ref_s: (ref_before + reference_s()) / 2.0,
    })
}

/// Runs year pairs, cycling through the panel, until `budget` is spent.
/// With a tracer, Appro is wrapped in [`TimedAppro`] and the first sync
/// year's calls are logged for the stage replay.
fn phase(
    spec: &SimSpec,
    seed: u64,
    budget: &Budget,
    traced: Option<(&Arc<Tracer>, &CaseLog)>,
) -> Result<Vec<Year>, String> {
    let plain = Appro::new(PlannerConfig::default());
    let timed = traced.map(|(t, cases)| {
        (
            TimedAppro::new(t, SYNC_PLANNER, Some(cases)),
            TimedAppro::new(t, SYNC_PLANNER, None),
            TimedAppro::new(t, ASYNC_PLANNER, None),
        )
    });
    let mut years = Vec::new();
    while budget.more(years.len()) {
        let planners: (&dyn Planner, &dyn Planner) = match &timed {
            Some((first, _, a)) if years.is_empty() => (first, a),
            Some((_, rest, a)) => (rest, a),
            None => (&plain, &plain),
        };
        let tracer = traced.map(|(t, _)| &**t);
        years.push(year_pair(
            spec,
            seed,
            years.len() % spec.panel,
            planners,
            tracer,
        )?);
    }
    Ok(years)
}

/// Checks every year's audit and that each repeats its network's
/// reference quality.
fn check(years: &[Year], reference: &[Quality], out: &mut Outcome) {
    for y in years {
        out.attempted += 2;
        for f in &y.audit {
            out.violate(f.clone());
        }
        if y.quality != reference[y.instance] {
            out.violate(format!(
                "quality is not deterministic for one seed: {:?} vs {:?}",
                y.quality, reference[y.instance]
            ));
        }
    }
}

fn unit_s(y: &Year) -> f64 {
    y.sync_s + y.async_s
}

fn work_ref(y: &Year) -> f64 {
    unit_s(y) / y.ref_s
}

fn per_year(years: &[Year], f: impl Fn(&Year) -> f64) -> f64 {
    panel_median(years.iter().map(|y| (y.instance, f(y))))
}

/// Runs the workload for `seconds`; with `trace`, half untraced and half
/// traced, followed by the Appro stage replay.
pub fn run(spec: &SimSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let plain_s = if trace { seconds / 2.0 } else { seconds };
    // Every network runs at least twice, so its repeat is checked.
    let budget = Budget::new(plain_s, 2 * spec.panel);
    let years = match phase(spec, seed, &budget, None) {
        Ok(y) => y,
        Err(e) => {
            out.violate(e);
            return out;
        }
    };
    let reference: Vec<Quality> = years[..spec.panel].iter().map(|y| y.quality).collect();
    check(&years, &reference, &mut out);

    let n = years.len();
    let note = format!(
        "mean over {} networks of the median of their {n} year pairs",
        spec.panel
    );
    out.gate = vec![
        metric(
            "setup_s",
            per_year(&years, |y| y.setup_s),
            "s",
            format!("set-ups, {note}"),
        ),
        budget.peak_rss_mb(),
        metric(
            "work_ref",
            per_year(&years, work_ref),
            "ref",
            format!("one year on each engine / reference loop, {note}"),
        ),
    ];
    let mean =
        |f: fn(&Quality) -> f64| reference.iter().map(f).sum::<f64>() / reference.len() as f64;
    out.named = vec![
        metric("sim.sync_year_s", per_year(&years, |y| y.sync_s), "s", note.clone()),
        metric("sim.async_year_s", per_year(&years, |y| y.async_s), "s", note),
        metric(
            "sim.longest_delay_h",
            mean(|q| q.sync_delay_s) / 3600.0,
            "h",
            format!(
                "deterministic; mean per-round longest delay of the sync year, mean over {} networks (async: {:.4} h)",
                spec.panel,
                mean(|q| q.async_delay_s) / 3600.0
            ),
        ),
    ];
    if trace {
        let untraced: Vec<f64> = years.iter().map(work_ref).collect();
        traced(spec, seed, seconds / 2.0, &untraced, &reference, &mut out);
    }
    out
}

fn traced(
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    untraced: &[f64],
    reference: &[Quality],
    out: &mut Outcome,
) {
    let tracer = Arc::new(Tracer::default());
    let cases = CaseLog::default();
    let years = match phase(
        spec,
        seed,
        &Budget::new(seconds, spec.panel),
        Some((&tracer, &cases)),
    ) {
        Ok(y) => y,
        Err(e) => return out.violate(e),
    };
    check(&years, reference, out);
    let spans = tracer.spans();
    let units: Vec<TracedUnit> = years
        .iter()
        .filter_map(|y| {
            y.spans.map(|[pair, ..]| TracedUnit {
                instance: y.instance,
                span: pair,
                wall_s: unit_s(y),
            })
        })
        .collect();
    let mut layers = vec![
        overhead(untraced, &years.iter().map(work_ref).collect::<Vec<_>>()),
        metric(
            "net.build_s",
            per_year(&years, |y| y.net_s),
            "s",
            "mean over networks of the median build",
        ),
    ];
    // Both engines call the planner one round at a time.
    match trace::planner_layers(&spans, &[SYNC_PLANNER, ASYNC_PLANNER], &units, 1) {
        Ok(m) => layers.extend(m),
        Err(e) => return out.violate(e),
    }
    let mut detail = Vec::new();
    for (i, engine, year_name, planner) in [
        (1, "sync", SYNC_YEAR, SYNC_PLANNER),
        (2, "async", ASYNC_YEAR, ASYNC_PLANNER),
    ] {
        let year_of = |y: &Year| y.spans.map_or(0, |s| s[i].id);
        let calls = per_year(&years, |y| {
            children(&spans, year_of(y), planner).count() as f64
        });
        let planner_s = per_year(&years, |y| {
            children(&spans, year_of(y), planner).map(Span::secs).sum()
        });
        let call_ms: Vec<f64> = trace::durations(&spans, planner)
            .iter()
            .map(|s| s * 1e3)
            .collect();
        let (p99, p99_note) = tail_at(&call_ms, 9900, "planner calls");
        let self_s = self_times(&spans, year_name);
        let engine_self = panel_median(years.iter().map(|y| y.instance).zip(self_s));
        let rounds = |q: &Quality| if i == 1 { q.sync_rounds } else { q.async_rounds } as f64;
        let per = format!("per year, mean over {} networks", spec.panel);
        detail.extend([
            metric(
                format!("sim.{engine}.planner_calls"),
                calls,
                "count",
                format!("{per}; deterministic"),
            ),
            metric(
                format!("sim.{engine}.planner_s"),
                planner_s,
                "s",
                per.clone(),
            ),
            metric(format!("sim.{engine}.planner_p99_ms"), p99, "ms", p99_note),
            metric(
                format!("sim.{engine}.engine_self_s"),
                engine_self,
                "s",
                format!("year span minus planner spans, {per}"),
            ),
            metric(
                format!("sim.{engine}.rounds"),
                reference.iter().map(rounds).sum::<f64>() / reference.len() as f64,
                "count",
                format!("{per}; deterministic"),
            ),
        ]);
    }
    let cases = cases
        .lock()
        .expect("case log lock poisoned by a panicking planner");
    match trace::appro_layers(&cases, "the first traced sync year") {
        Ok(m) => layers.extend(m),
        Err(e) => out.violate(e),
    }
    out.layers = layers;
    out.detail = detail;
    out.spans = spans;
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: SimSpec = SimSpec {
        n: 200,
        k: 2,
        horizon_s: 30.0 * 86_400.0,
        panel: 2,
    };

    fn quality(seed: u64) -> Vec<Quality> {
        let years = phase(&SMALL, seed, &Budget::new(0.0, 4), None).expect("runs");
        assert_eq!(
            years[0].quality, years[2].quality,
            "repeats of one network agree"
        );
        assert!(years.iter().all(|y| y.audit.is_empty()));
        years[..2].iter().map(|y| y.quality).collect()
    }

    #[test]
    fn same_seed_same_quality_other_seed_differs() {
        assert_eq!(quality(3), quality(3));
        assert_ne!(quality(3), quality(4));
    }

    #[test]
    fn traced_run_reports_every_engine_layer() {
        let out = run(&SMALL, 5, 0.0, true);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        for name in [
            "planner.share",
            "engine.self_s",
            "appro.ktour_s",
            "trace.overhead_frac",
        ] {
            assert!(out.layers.iter().any(|m| m.name == name), "{name} missing");
        }
        for name in ["sim.sync.planner_calls", "sim.async.engine_self_s"] {
            assert!(out.detail.iter().any(|m| m.name == name), "{name} missing");
        }
    }
}
