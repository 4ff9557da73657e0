//! `plan_100k`: `ShardedPlanner<Appro>` over a 100k-sensor
//! constant-density field on the sparse geometry backend — the CI
//! large-instance configuration (`wrsn plan --n 100000 --k 50 --field
//! 1291 --context sparse --shards 50`).
//!
//! Unit of work: one `plan_with_audit`. Every unit builds a fresh
//! network and problem, because every `wrsn plan` pays for its lazy grid
//! and caches; those builds are the set-up. The request set (the
//! network's five-day warm-up) is input generation and is not timed.

use std::sync::Arc;
use std::time::Instant;

use wrsn_core::{
    conflict::conflict_count, Appro, ChargingParams, ChargingProblem, ContextMode, Planner,
    PlannerConfig, ShardAudit, ShardedPlanner,
};
use wrsn_geom::Rect;
use wrsn_net::NetworkBuilder;
use wrsn_sim::Simulation;

use crate::report::{median_of, metric, overhead, reference_on_s, Budget, Outcome};
use crate::stats;
use crate::trace::{self, children, CaseLog, Span, TimedAppro, TracedUnit, Tracer};

const PLAN: &str = "plan.plan_with_audit";
const SHARD: &str = "shard.appro";

/// The planned instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanSpec {
    /// Sensors.
    pub n: usize,
    /// Chargers.
    pub k: usize,
    /// Square field side, meters.
    pub side_m: f64,
    /// Spatial shards.
    pub shards: usize,
    /// Warm-up after the first threshold crossing, seconds.
    pub period_s: f64,
}

impl PlanSpec {
    /// The CI large instance: 100k sensors at the paper's density.
    pub const LARGE: PlanSpec = PlanSpec {
        n: 100_000,
        k: 50,
        side_m: 1291.0,
        shards: 50,
        period_s: 5.0 * 86_400.0,
    };
}

/// Schedule quality of one plan; must repeat exactly for one seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    /// Requests planned.
    pub requests: usize,
    /// Longest charger delay, seconds.
    pub longest_delay_s: f64,
    /// Sojourns scheduled.
    pub sojourns: usize,
}

struct Unit {
    net_s: f64,
    problem_s: f64,
    plan_s: f64,
    /// The reference loop's time around the plan.
    ref_s: f64,
    certify_s: f64,
    conflict_s: f64,
    quality: Quality,
    audit: ShardAudit,
    span: Option<Span>,
    violations: Vec<String>,
}

fn unit<P: Planner + Sync>(
    spec: &PlanSpec,
    seed: u64,
    planner: &ShardedPlanner<P>,
    tracer: Option<&Tracer>,
) -> Result<Unit, String> {
    let start = Instant::now();
    let mut net = NetworkBuilder::new(spec.n)
        .seed(seed)
        .data_rate_bps(1_000.0, 50_000.0)
        .field(Rect::square(spec.side_m))
        .build();
    let net_s = start.elapsed().as_secs_f64();
    let requests = Simulation::warm_up_period(&mut net, 0.2, spec.period_s);
    let start = Instant::now();
    let problem = ChargingProblem::from_network_with_mode(
        &net,
        &requests,
        spec.k,
        ChargingParams::default(),
        ContextMode::Sparse,
    )
    .map_err(|e| format!("problem build failed: {e}"))?;
    let problem_s = start.elapsed().as_secs_f64();
    drop(net);

    let open = tracer.map(|t| {
        let id = t.open();
        t.set_parent(id);
        (t, id, t.now_ns())
    });
    let ref_before = reference_on_s(workers(spec));
    let start = Instant::now();
    let (schedule, audit) = planner
        .plan_with_audit(&problem)
        .map_err(|e| format!("sharded plan failed: {e}"))?;
    let plan_s = start.elapsed().as_secs_f64();
    let ref_s = (ref_before + reference_on_s(workers(spec))) / 2.0;
    let span = open.map(|(t, id, start_ns)| t.close(id, PLAN, 0, start_ns));

    let mut violations = Vec::new();
    if audit.partitioned_targets() != problem.len() {
        violations.push(format!(
            "partition covers {} targets of {}",
            audit.partitioned_targets(),
            problem.len()
        ));
    }
    if audit.planned_sojourns() != schedule.sojourn_count() {
        violations.push(format!(
            "stitching kept {} of {} planned sojourns",
            schedule.sojourn_count(),
            audit.planned_sojourns()
        ));
    }
    let start = Instant::now();
    if let Err(e) = schedule.certify(&problem) {
        violations.push(format!("schedule does not certify: {e}"));
    }
    let certify_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let conflicts = conflict_count(&problem, &schedule);
    let conflict_s = start.elapsed().as_secs_f64();
    if conflicts != 0 {
        violations.push(format!(
            "{conflicts} charging conflicts survive reconciliation"
        ));
    }
    let quality = Quality {
        requests: problem.len(),
        longest_delay_s: schedule.longest_delay_s(),
        sojourns: schedule.sojourn_count(),
    };
    Ok(Unit {
        net_s,
        problem_s,
        plan_s,
        ref_s,
        certify_s,
        conflict_s,
        quality,
        audit,
        span,
        violations,
    })
}

fn phase(
    spec: &PlanSpec,
    seed: u64,
    budget: &Budget,
    traced: Option<(&Arc<Tracer>, &CaseLog)>,
) -> Result<Vec<Unit>, String> {
    let mut units = Vec::new();
    match traced {
        None => {
            let planner = ShardedPlanner::new(Appro::new(PlannerConfig::default()), spec.shards);
            while budget.more(units.len()) {
                units.push(unit(spec, seed, &planner, None)?);
            }
        }
        Some((t, cases)) => {
            // Only the first traced plan's shard calls are logged for the
            // replay: one plan's worth of sub-problems at a time.
            let first = ShardedPlanner::new(TimedAppro::new(t, SHARD, Some(cases)), spec.shards);
            let rest = ShardedPlanner::new(TimedAppro::new(t, SHARD, None), spec.shards);
            while budget.more(units.len()) {
                let planner = if units.is_empty() { &first } else { &rest };
                units.push(unit(spec, seed, planner, Some(t.as_ref()))?);
            }
        }
    }
    Ok(units)
}

fn check(units: &[Unit], reference: Quality, out: &mut Outcome) {
    for u in units {
        out.attempted += 1;
        for v in &u.violations {
            out.violate(v.clone());
        }
        if u.quality != reference {
            out.violate(format!(
                "plan is not deterministic for one seed: {:?} vs {reference:?}",
                u.quality
            ));
        }
    }
}

/// Shard workers the planner runs at once.
fn workers(spec: &PlanSpec) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |w| w.get())
        .min(spec.shards)
}

fn work_ref(u: &Unit) -> f64 {
    u.plan_s / u.ref_s
}

fn col(units: &[Unit], f: fn(&Unit) -> f64) -> Vec<f64> {
    units.iter().map(f).collect()
}

/// Runs the workload for `seconds`; with `trace`, half untraced and half
/// traced, followed by the Appro stage replay of one plan's shards.
pub fn run(spec: &PlanSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let plain_s = if trace { seconds / 2.0 } else { seconds };
    let budget = Budget::new(plain_s, 3);
    let units = match phase(spec, seed, &budget, None) {
        Ok(u) => u,
        Err(e) => {
            out.violate(e);
            return out;
        }
    };
    let reference = units[0].quality;
    check(&units, reference, &mut out);

    let (setup, setup_note) = median_of(
        &col(&units, |u| u.net_s + u.problem_s),
        "set-ups (network + problem)",
    );
    let (wall, wall_note) = median_of(&col(&units, |u| u.plan_s), "plans");
    let ratios = col(&units, work_ref);
    let (work, work_note) = median_of(&ratios, "plans");
    out.gate = vec![
        metric("setup_s", setup, "s", setup_note),
        budget.peak_rss_mb(),
        metric(
            "work_ref",
            work,
            "ref",
            format!("plan_with_audit / reference loop, {work_note}"),
        ),
    ];
    out.named = vec![
        metric("plan.wall_s", wall, "s", wall_note),
        metric(
            "plan.longest_delay_h",
            reference.longest_delay_s / 3600.0,
            "h",
            format!(
                "deterministic; {} requests, {} sojourns",
                reference.requests, reference.sojourns
            ),
        ),
    ];
    if trace {
        traced(spec, seed, seconds / 2.0, &ratios, reference, &mut out);
    }
    out
}

fn traced(
    spec: &PlanSpec,
    seed: u64,
    seconds: f64,
    untraced: &[f64],
    reference: Quality,
    out: &mut Outcome,
) {
    let tracer = Arc::new(Tracer::default());
    let cases = CaseLog::default();
    let units = match phase(
        spec,
        seed,
        &Budget::new(seconds, 2),
        Some((&tracer, &cases)),
    ) {
        Ok(u) => u,
        Err(e) => return out.violate(e),
    };
    check(&units, reference, out);
    let spans = tracer.spans();
    let n = units.len();
    let med = |v: Vec<f64>| median_of(&v, "").0;
    let per_plan = format!("per plan, median of {n}");
    let workers = workers(spec);
    let traced_units: Vec<TracedUnit> = units
        .iter()
        .filter_map(|u| {
            u.span.map(|span| TracedUnit {
                instance: 0,
                span,
                wall_s: u.plan_s,
            })
        })
        .collect();
    let mut layers = vec![
        overhead(untraced, &col(&units, work_ref)),
        metric(
            "net.build_s",
            med(col(&units, |u| u.net_s)),
            "s",
            format!("median of {n} builds"),
        ),
    ];
    match trace::planner_layers(&spans, &[SHARD], &traced_units, workers) {
        Ok(m) => layers.extend(m),
        Err(e) => return out.violate(e),
    }

    // Per plan: the shard calls' times, then the derived shard metrics.
    let mut p50 = Vec::new();
    let mut max = Vec::new();
    for u in &traced_units {
        let shard_s = stats::sorted(
            &children(&spans, u.span.id, SHARD)
                .map(Span::secs)
                .collect::<Vec<_>>(),
        );
        if shard_s.is_empty() {
            return out.violate("traced plan recorded no shard calls");
        }
        p50.push(stats::median(&shard_s));
        max.push(shard_s[shard_s.len() - 1]);
    }
    let skew: Vec<f64> = max.iter().zip(&p50).map(|(m, p)| m / p).collect();
    let last = &units[n - 1].audit;
    let outside = format!("median of {n}; outside plan.wall_s");
    out.detail = vec![
        metric(
            "core.problem_build_s",
            med(col(&units, |u| u.problem_s)),
            "s",
            format!("median of {n} builds"),
        ),
        metric("shard.appro_p50_s", med(p50), "s", per_plan.clone()),
        metric("shard.appro_max_s", med(max), "s", per_plan.clone()),
        metric(
            "shard.skew",
            med(skew),
            "ratio",
            format!("slowest / median shard, {per_plan}"),
        ),
        metric(
            "shard.reconcile_checked",
            last.reconcile_checked as f64,
            "count",
            "per plan; deterministic",
        ),
        metric(
            "shard.reconcile_fixes",
            last.reconcile_fixes as f64,
            "count",
            "per plan; deterministic",
        ),
        metric(
            "audit.certify_s",
            med(col(&units, |u| u.certify_s)),
            "s",
            outside.clone(),
        ),
        metric(
            "audit.conflict_count_s",
            med(col(&units, |u| u.conflict_s)),
            "s",
            outside,
        ),
    ];
    let cases = cases
        .lock()
        .expect("case log lock poisoned by a panicking planner");
    match trace::appro_layers(&cases, "the first traced plan's shards") {
        Ok(m) => layers.extend(m),
        Err(e) => out.violate(e),
    }
    out.layers = layers;
    out.spans = spans;
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: PlanSpec = PlanSpec {
        n: 3_000,
        k: 4,
        side_m: 224.0,
        shards: 4,
        period_s: 5.0 * 86_400.0,
    };

    fn quality(seed: u64) -> Quality {
        let units = phase(&SMALL, seed, &Budget::new(0.0, 2), None).expect("plans");
        assert!(units[0].violations.is_empty(), "{:?}", units[0].violations);
        assert_eq!(
            units[0].quality, units[1].quality,
            "repeats of one seed agree"
        );
        units[0].quality
    }

    #[test]
    fn same_seed_same_quality_other_seed_differs() {
        assert_eq!(quality(1), quality(1));
        assert_ne!(quality(1), quality(2));
    }

    #[test]
    fn traced_run_reports_shard_and_stage_layers() {
        let out = run(&SMALL, 7, 0.0, true);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        for name in ["planner.share", "engine.self_s", "appro.gc_s"] {
            assert!(out.layers.iter().any(|m| m.name == name), "{name} missing");
        }
        for name in ["shard.skew", "audit.certify_s"] {
            assert!(out.detail.iter().any(|m| m.name == name), "{name} missing");
        }
    }
}
