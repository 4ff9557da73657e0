//! The traced run's instruments, all outside the program: an in-memory
//! span log, a timing [`Planner`] wrapper around [`Appro`], and the
//! Appro stage replay.
//!
//! Spans carry a name, start and end (nanoseconds since the tracer was
//! made) and the id of the span that caused them. They stay in memory
//! until the run ends and are then written out as JSON lines. A layer's
//! self time is its span's duration minus what its child spans cover.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wrsn_algo::{ktour, maximal_independent_set};
use wrsn_core::{
    conflict, Appro, ChargingParams, ChargingProblem, ChargingTarget, ContextMode, PlanError,
    Planner, PlannerConfig, Schedule,
};
use wrsn_geom::Point;

use crate::report::{metric, panel_median, tail_at, Metric};

/// One timed call into a layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    /// Layer boundary, e.g. `sim.sync.planner`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    /// Duration, seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Append-only in-memory span log, shareable across planner threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    /// Parent for spans recorded by code that cannot be handed one (the
    /// planner wrapper, called from inside the engines and the shard
    /// workers). Set before the call that fans out; read by the callees.
    parent: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            parent: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before it
    /// closes.
    pub fn open(&self) -> u64 {
        // A plain counter: the id publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Makes `id` the parent of spans recorded via [`Tracer::record`].
    pub fn set_parent(&self, id: u64) {
        self.parent.store(id, Ordering::SeqCst);
    }

    /// Closes span `id` (from [`Tracer::open`]) now and returns it.
    pub fn close(&self, id: u64, name: &'static str, parent: u64, start_ns: u64) -> Span {
        let span = Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: self.now_ns(),
        };
        self.push(span);
        span
    }

    /// Records a finished span under `parent` and returns its id.
    pub fn add(&self, name: &'static str, parent: u64, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.open();
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Records a finished span under the current parent.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.add(name, self.parent.load(Ordering::SeqCst), start_ns, end_ns);
    }

    /// Records a finished span.
    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span log lock poisoned by a panicking recorder")
            .push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log lock poisoned by a panicking recorder")
            .clone()
    }
}

/// Writes `spans` as one JSON object per line.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Durations (seconds) of the spans called `name`, in record order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Self time (seconds) of each span called `name`: its duration minus
/// the durations of its direct children. Children of one parent never
/// overlap in this benchmark (the engines call the planner sequentially).
pub fn self_times(spans: &[Span], name: &str) -> Vec<f64> {
    let mut child_s: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_s.entry(s.parent).or_default() += s.secs();
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.secs() - child_s.get(&s.id).copied().unwrap_or(0.0))
        .collect()
}

/// Spans called one of `names` that lie within `outer`'s interval.
pub fn within<'a>(
    spans: &'a [Span],
    names: &'a [&str],
    outer: &'a Span,
) -> impl Iterator<Item = &'a Span> {
    spans.iter().filter(move |s| {
        names.contains(&s.name) && s.start_ns >= outer.start_ns && s.end_ns <= outer.end_ns
    })
}

/// One unit of work of a traced run, for [`planner_layers`].
pub struct TracedUnit {
    /// Panel instance the unit ran.
    pub instance: usize,
    /// Interval the unit's planner calls fall in.
    pub span: Span,
    /// The unit's measured time, seconds.
    pub wall_s: f64,
}

/// The layers every workload enters: the Appro calls (spans called one
/// of `planners`) inside each unit, and the rest of the unit's time.
/// `workers` is how many planner calls can run at once.
///
/// # Errors
///
/// When the traced run recorded no unit or no Appro call.
pub fn planner_layers(
    spans: &[Span],
    planners: &[&str],
    units: &[TracedUnit],
    workers: usize,
) -> Result<Vec<Metric>, String> {
    let call_ms: Vec<f64> = spans
        .iter()
        .filter(|s| planners.contains(&s.name))
        .map(|s| s.secs() * 1e3)
        .collect();
    if units.is_empty() || call_ms.is_empty() {
        return Err(format!(
            "the traced run recorded no unit or no {planners:?} span"
        ));
    }
    let per_unit: Vec<(usize, f64, f64)> = units
        .iter()
        .map(|u| {
            let calls: Vec<f64> = within(spans, planners, &u.span).map(Span::secs).collect();
            (u.instance, calls.len() as f64, calls.iter().sum())
        })
        .collect();
    let w = workers as f64;
    let (tail, tail_note) = tail_at(&call_ms, 9900, "Appro calls");
    let per_unit_note = format!(
        "per unit, mean over instances of the median of {} units",
        units.len()
    );
    Ok(vec![
        metric(
            "planner.calls",
            panel_median(per_unit.iter().map(|&(i, c, _)| (i, c))),
            "count",
            per_unit_note.clone(),
        ),
        metric(
            "planner.s",
            panel_median(per_unit.iter().map(|&(i, _, s)| (i, s))),
            "s",
            per_unit_note.clone(),
        ),
        metric(
            "planner.p50_ms",
            median(&call_ms),
            "ms",
            format!("median of {} Appro calls", call_ms.len()),
        ),
        metric("planner.tail_ms", tail, "ms", tail_note),
        metric(
            "planner.share",
            panel_median(
                per_unit
                    .iter()
                    .zip(units)
                    .map(|(&(i, _, s), u)| (i, s / (u.wall_s * w))),
            ),
            "frac",
            format!("Appro time / (unit time x {workers} workers), {per_unit_note}"),
        ),
        metric(
            "engine.self_s",
            panel_median(
                per_unit
                    .iter()
                    .zip(units)
                    .map(|(&(i, _, s), u)| (i, u.wall_s - s / w)),
            ),
            "s",
            format!("unit time - Appro time / {workers} workers, {per_unit_note}"),
        ),
    ])
}

fn median(v: &[f64]) -> f64 {
    crate::stats::median(&crate::stats::sorted(v))
}

/// Spans called `name` whose parent is `parent`.
pub fn children<'a>(
    spans: &'a [Span],
    parent: u64,
    name: &'a str,
) -> impl Iterator<Item = &'a Span> {
    spans
        .iter()
        .filter(move |s| s.parent == parent && s.name == name)
}

/// What the replay needs to redo one Appro call on a fresh copy of its
/// problem, and what Appro reported for it.
#[derive(Clone, Debug)]
pub struct Case {
    depot: Point,
    targets: Vec<ChargingTarget>,
    k: usize,
    params: ChargingParams,
    mode: ContextMode,
    /// `S_I` as Appro reported it.
    pub mis: Vec<usize>,
    /// `V'_H` as Appro reported it.
    pub core: Vec<usize>,
    /// Candidates Appro inserted.
    pub inserted: usize,
    /// Candidates Appro skipped.
    pub skipped: usize,
    /// Wall time of the Appro call, seconds.
    pub plan_s: f64,
}

/// The log of Appro calls kept for the stage replay.
pub type CaseLog = Arc<Mutex<Vec<Case>>>;

/// A [`Planner`] that times every [`Appro`] call into a span and, when
/// given a case log, keeps what the stage replay needs. It owns its
/// handles, so the serve engine's planner factory can make one per
/// re-plan thread.
pub struct TimedAppro {
    appro: Appro,
    tracer: Arc<Tracer>,
    span: &'static str,
    cases: Option<CaseLog>,
}

impl TimedAppro {
    /// Times Appro with the default configuration into spans called `span`.
    pub fn new(tracer: &Arc<Tracer>, span: &'static str, cases: Option<&CaseLog>) -> Self {
        TimedAppro {
            appro: Appro::new(PlannerConfig::default()),
            tracer: Arc::clone(tracer),
            span,
            cases: cases.cloned(),
        }
    }
}

impl Planner for TimedAppro {
    fn name(&self) -> &'static str {
        self.appro.name()
    }

    fn plan(&self, problem: &ChargingProblem) -> Result<Schedule, PlanError> {
        let start = self.tracer.now_ns();
        let report = self.appro.plan_detailed(problem)?;
        let end = self.tracer.now_ns();
        self.tracer.record(self.span, start, end);
        if let Some(cases) = &self.cases {
            let case = Case {
                depot: problem.depot(),
                targets: problem.targets().to_vec(),
                k: problem.charger_count(),
                params: problem.params(),
                mode: problem.context().mode(),
                mis: report.mis,
                core: report.core,
                inserted: report.inserted,
                skipped: report.skipped,
                plan_s: end.saturating_sub(start) as f64 * 1e-9,
            };
            cases
                .lock()
                .expect("case log lock poisoned by a panicking planner")
                .push(case);
        }
        Ok(report.schedule)
    }
}

/// Seconds spent in each replayed Appro stage (Algorithm 1 lines 1–5).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stages {
    /// Line 1: the charging graph `G_c`.
    pub gc_s: f64,
    /// Line 2: its MIS `S_I`.
    pub mis_s: f64,
    /// Line 3: the auxiliary graph `H` over `S_I`.
    pub h_s: f64,
    /// Line 4: the MIS `V'_H` of `H`.
    pub core_mis_s: f64,
    /// Line 5 input: the travel-time matrix over `V'_H`.
    pub matrix_s: f64,
    /// Line 5: min–max `K` rooted tours.
    pub ktour_s: f64,
}

impl Stages {
    /// Sum of every stage.
    pub fn total_s(&self) -> f64 {
        self.gc_s + self.mis_s + self.h_s + self.core_mis_s + self.matrix_s + self.ktour_s
    }

    fn add(&mut self, o: &Stages) {
        self.gc_s += o.gc_s;
        self.mis_s += o.mis_s;
        self.h_s += o.h_s;
        self.core_mis_s += o.core_mis_s;
        self.matrix_s += o.matrix_s;
        self.ktour_s += o.ktour_s;
    }
}

/// Redoes `case`'s Appro stages on a fresh copy of its problem through
/// the public functions Appro calls, timing each, and checks that the
/// replayed `S_I` and `V'_H` equal Appro's — so the split describes the
/// work Appro actually did.
///
/// # Errors
///
/// A description of the mismatch or of the failed call.
pub fn replay(case: &Case) -> Result<Stages, String> {
    let cfg = PlannerConfig::default();
    let problem = ChargingProblem::new_with_mode(
        case.depot,
        case.targets.clone(),
        case.k,
        case.params,
        case.mode,
    )
    .map_err(|e| format!("replay cannot rebuild the problem: {e}"))?;
    let ctx = problem.context();
    let t0 = Instant::now();
    let gc = ctx.charging_graph();
    let t1 = Instant::now();
    let s_i = maximal_independent_set(gc, cfg.mis_order);
    let t2 = Instant::now();
    let h = conflict::build_conflict_graph(&problem, &s_i);
    let t3 = Instant::now();
    let core: Vec<usize> = maximal_independent_set(&h, cfg.mis_order)
        .iter()
        .map(|&i| s_i[i])
        .collect();
    let t4 = Instant::now();
    let sub = ctx
        .travel_time_matrix_for(&core)
        .map_err(|e| format!("replay travel-time matrix failed: {e}"))?;
    let depot: Vec<f64> = core.iter().map(|&a| problem.depot_travel_time(a)).collect();
    let service: Vec<f64> = core.iter().map(|&a| problem.tau(a)).collect();
    let t5 = Instant::now();
    black_box(ktour::min_max_ktours_with_matrix(
        &sub,
        &depot,
        &service,
        case.k,
        cfg.tsp_passes,
    ));
    let t6 = Instant::now();
    if s_i != case.mis {
        return Err("replayed S_I differs from Appro's".into());
    }
    if core != case.core {
        return Err("replayed V'_H differs from Appro's".into());
    }
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok(Stages {
        gc_s: s(t0, t1),
        mis_s: s(t1, t2),
        h_s: s(t2, t3),
        core_mis_s: s(t3, t4),
        matrix_s: s(t4, t5),
        ktour_s: s(t5, t6),
    })
}

/// Replays every case and sums the stages.
///
/// # Errors
///
/// The first replay failure.
pub fn replay_all(cases: &[Case]) -> Result<Stages, String> {
    let mut total = Stages::default();
    for case in cases {
        total.add(&replay(case)?);
    }
    Ok(total)
}

/// The `appro.*` layer metrics of the logged calls (`scope` says which):
/// stage totals from the replay, the rest of Appro's time (insertion,
/// assembly, repair) as the remainder, and Appro's own counts.
///
/// # Errors
///
/// A replay failure or an empty log.
pub fn appro_layers(cases: &[Case], scope: &str) -> Result<Vec<Metric>, String> {
    if cases.is_empty() {
        return Err("no Appro call was logged for the stage replay".into());
    }
    let st = replay_all(cases)?;
    let plan_s: f64 = cases.iter().map(|c| c.plan_s).sum();
    let note = format!("sum over {} Appro calls of {scope}, replayed", cases.len());
    let count = |f: fn(&Case) -> usize| cases.iter().map(f).sum::<usize>() as f64;
    let counted = format!(
        "sum over {} Appro calls of {scope}; deterministic",
        cases.len()
    );
    Ok(vec![
        metric("appro.gc_s", st.gc_s, "s", note.clone()),
        metric("appro.mis_s", st.mis_s, "s", note.clone()),
        metric("appro.h_s", st.h_s, "s", note.clone()),
        metric("appro.core_mis_s", st.core_mis_s, "s", note.clone()),
        metric("appro.matrix_s", st.matrix_s, "s", note.clone()),
        metric("appro.ktour_s", st.ktour_s, "s", note),
        metric(
            "appro.insert_rest_s",
            plan_s - st.total_s(),
            "s",
            format!("Appro time of those calls ({plan_s:.4} s) minus the replayed stages"),
        ),
        metric(
            "appro.calls",
            cases.len() as f64,
            "count",
            format!("Appro calls of {scope}"),
        ),
        metric(
            "appro.s_i",
            count(|c| c.mis.len()),
            "count",
            counted.clone(),
        ),
        metric(
            "appro.core",
            count(|c| c.core.len()),
            "count",
            counted.clone(),
        ),
        metric(
            "appro.inserted",
            count(|c| c.inserted),
            "count",
            counted.clone(),
        ),
        metric("appro.skipped", count(|c| c.skipped), "count", counted),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_net::{InitialCharge, NetworkBuilder};

    fn problem(n: usize, seed: u64) -> ChargingProblem {
        let net = NetworkBuilder::new(n)
            .seed(seed)
            .initial_charge(InitialCharge::UniformFraction { lo: 0.02, hi: 0.18 })
            .build();
        ChargingProblem::from_network(&net, &net.default_requesting_sensors(), 2)
            .expect("valid instance")
    }

    #[test]
    fn timed_appro_matches_appro_and_replays_exactly() {
        let tracer = Arc::new(Tracer::default());
        let cases: CaseLog = Arc::default();
        let timed = TimedAppro::new(&tracer, "appro", Some(&cases));
        let p = problem(150, 5);
        let plain = Appro::new(PlannerConfig::default())
            .plan(&p)
            .expect("plans");
        assert_eq!(
            timed.plan(&p).expect("plans"),
            plain,
            "the wrapper must not change the plan"
        );
        let cases = cases.lock().expect("no panic").clone();
        assert_eq!(cases.len(), 1);
        let stages = replay_all(&cases).expect("replay agrees with Appro");
        assert!(stages.total_s() > 0.0);
        assert_eq!(durations(&tracer.spans(), "appro").len(), 1);
    }

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::default();
        let root = tracer.open();
        tracer.set_parent(root);
        tracer.record("child", 10, 40);
        tracer.record("child", 50, 60);
        tracer.push(Span {
            id: root,
            parent: 0,
            name: "root",
            start_ns: 0,
            end_ns: 100,
        });
        let spans = tracer.spans();
        let self_s = self_times(&spans, "root");
        assert_eq!(self_s.len(), 1);
        assert!((self_s[0] - 60e-9).abs() < 1e-15);
        assert_eq!(children(&spans, root, "child").count(), 2);
    }
}
