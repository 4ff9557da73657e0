//! Experiment runners: snapshot (Fig. (a)) and monitoring (Fig. (b)).

use wrsn_core::{ChargingProblem, PlannerConfig};
use wrsn_net::NetworkBuilder;
use wrsn_sim::{SimConfig, Simulation};

use crate::planners::PlannerKind;

/// Runs `instances` independent evaluations on a work-stealing pool of
/// scoped threads, at most one per core, and returns the results in
/// instance order.
pub(crate) fn parallel_instances<T, F>(instances: usize, eval: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(instances.max(1));
    let out = std::sync::Mutex::new((0..instances).map(|_| None).collect::<Vec<Option<T>>>());
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= instances {
                    break;
                }
                let v = eval(i);
                out.lock().expect("result lock")[i] = Some(v);
            });
        }
    });
    out.into_inner()
        .expect("no poisoned lock")
        .into_iter()
        .map(|v| v.expect("every instance evaluated"))
        .collect()
}

/// Mean ± sample standard deviation of a series.
fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var =
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

/// One aggregated data point: a planner's metric at one x-value.
#[derive(Clone, Debug)]
pub struct PointSummary {
    /// Planner display name.
    pub planner: &'static str,
    /// The swept x-value (`n`, `b_max` in kbps, or `K`).
    pub x: f64,
    /// Mean of the metric over instances.
    pub mean: f64,
    /// Sample standard deviation over instances.
    pub std: f64,
    /// Number of instances aggregated.
    pub instances: usize,
}

/// A Fig. (a)-style experiment: plan once on a *snapshot* request set
/// (everything pending one dispatch period after the first threshold
/// crossing) and record the longest tour duration.
#[derive(Clone, Debug)]
pub struct SnapshotExperiment {
    /// Network size `n`.
    pub n: usize,
    /// Number of chargers `K`.
    pub k: usize,
    /// Maximum data rate `b_max`, kbps (minimum is the paper's 1 kbps).
    pub b_max_kbps: f64,
    /// Instances (seeds) per data point.
    pub instances: usize,
    /// First seed; instance `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Dispatch period: requests accumulate for this long after the
    /// first threshold crossing before the snapshot is taken, so the
    /// request-set size scales with the network's demand.
    pub dispatch_period_s: f64,
    /// Shared planner config.
    pub config: PlannerConfig,
}

impl Default for SnapshotExperiment {
    fn default() -> Self {
        SnapshotExperiment {
            n: 200,
            k: 2,
            b_max_kbps: 50.0,
            instances: 10,
            base_seed: 1_000,
            dispatch_period_s: 5.0 * 24.0 * 3600.0,
            config: PlannerConfig::default(),
        }
    }
}

impl SnapshotExperiment {
    /// Builds the snapshot problem for instance `i`.
    pub fn problem(&self, i: usize) -> ChargingProblem {
        let mut net = NetworkBuilder::new(self.n)
            .seed(self.base_seed + i as u64)
            .data_rate_bps(1_000.0, self.b_max_kbps * 1_000.0)
            .build();
        let requests = Simulation::warm_up_period(&mut net, 0.2, self.dispatch_period_s);
        ChargingProblem::from_network(&net, &requests, self.k)
            .expect("snapshot problems are always valid")
    }

    /// Runs one planner over all instances (in parallel); returns its
    /// summary (metric: longest tour duration, **seconds**) at the given
    /// x-value.
    pub fn run_planner(&self, kind: PlannerKind, x: f64) -> PointSummary {
        let delays = parallel_instances(self.instances, |i| {
            let planner = kind.build(self.config);
            let problem = self.problem(i);
            let schedule = planner.plan(&problem).expect("planners are complete");
            debug_assert!(schedule.certify(&problem).is_ok());
            schedule.longest_delay_s()
        });
        let (mean, std) = mean_std(&delays);
        PointSummary { planner: kind.name(), x, mean, std, instances: self.instances }
    }
}

/// A Fig. (b)-style experiment: simulate the full monitoring period and
/// record the average dead duration per sensor.
///
/// `sim.fault` layers charger breakdowns onto every instance (the
/// extensions bench's resilience sweep): instance `i` seeds both its
/// network and its fault stream with `base_seed + i`, so every point is
/// reproducible, and the default inert model draws nothing.
#[derive(Clone, Debug)]
pub struct MonitoringExperiment {
    /// Network size `n`.
    pub n: usize,
    /// Number of chargers `K`.
    pub k: usize,
    /// Maximum data rate `b_max`, kbps.
    pub b_max_kbps: f64,
    /// Instances (seeds) per data point.
    pub instances: usize,
    /// First seed; instance `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Monitoring period, seconds.
    pub horizon_s: f64,
    /// Simulation config (batching, threshold, fault model); its
    /// horizon and fault seed are set per instance.
    pub sim: SimConfig,
    /// Shared planner config.
    pub config: PlannerConfig,
}

impl Default for MonitoringExperiment {
    fn default() -> Self {
        MonitoringExperiment {
            n: 200,
            k: 2,
            b_max_kbps: 50.0,
            instances: 5,
            base_seed: 2_000,
            horizon_s: 90.0 * 24.0 * 3600.0,
            sim: SimConfig::default(),
            config: PlannerConfig::default(),
        }
    }
}

impl MonitoringExperiment {
    /// Runs one planner over all instances (in parallel); metric is the
    /// average dead duration per sensor (**seconds**) over the horizon.
    pub fn run_planner(&self, kind: PlannerKind, x: f64) -> PointSummary {
        let dead = parallel_instances(self.instances, |i| {
            let planner = kind.build(self.config);
            let seed = self.base_seed + i as u64;
            let net = NetworkBuilder::new(self.n)
                .seed(seed)
                .data_rate_bps(1_000.0, self.b_max_kbps * 1_000.0)
                .build();
            let mut sim_cfg = self.sim;
            sim_cfg.horizon_s = self.horizon_s;
            sim_cfg.fault.seed = seed;
            let report = Simulation::new(net, sim_cfg).expect("valid experiment config")
                .run(planner.as_ref(), self.k)
                .expect("planners are complete, and recovery re-plans with them");
            debug_assert!(report.service_reconciles());
            report.avg_dead_time_s()
        });
        let (mean, std) = mean_std(&dead);
        PointSummary { planner: kind.name(), x, mean, std, instances: self.instances }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]), (5.0, 0.0));
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert!((s - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn snapshot_problem_has_requests() {
        let exp = SnapshotExperiment { n: 400, instances: 1, ..Default::default() };
        let p = exp.problem(0);
        assert!(!p.is_empty());
        assert_eq!(p.charger_count(), 2);
    }

    #[test]
    fn snapshot_runs_all_planners() {
        let exp = SnapshotExperiment { n: 60, instances: 2, ..Default::default() };
        for r in PlannerKind::all().map(|kind| exp.run_planner(kind, 60.0)) {
            assert!(r.mean > 0.0, "{} has zero delay", r.planner);
            assert_eq!(r.instances, 2);
        }
    }

    #[test]
    fn monitoring_runs_appro() {
        let exp = MonitoringExperiment {
            n: 40,
            instances: 1,
            horizon_s: 20.0 * 24.0 * 3600.0,
            ..Default::default()
        };
        let row = exp.run_planner(PlannerKind::Appro, 40.0);
        assert_eq!(row.planner, "Appro");
        assert!(row.mean >= 0.0);
    }

    /// The per-instance loop of the resilience sweep before its fault
    /// model moved into [`MonitoringExperiment::sim`], kept as the
    /// reference the folded runner must match bit for bit.
    fn resilience_reference(
        exp: &MonitoringExperiment,
        kind: PlannerKind,
        mtbf_fraction: f64,
        repair_s: f64,
    ) -> Vec<f64> {
        (0..exp.instances)
            .map(|i| {
                let planner = kind.build(exp.config);
                let net = NetworkBuilder::new(exp.n)
                    .seed(exp.base_seed + i as u64)
                    .data_rate_bps(1_000.0, exp.b_max_kbps * 1_000.0)
                    .build();
                let mut sim_cfg = SimConfig::default();
                sim_cfg.horizon_s = exp.horizon_s;
                if mtbf_fraction > 0.0 {
                    sim_cfg.fault.charger_mtbf_s = mtbf_fraction * exp.horizon_s;
                    sim_cfg.fault.charger_repair_s = repair_s;
                    sim_cfg.fault.seed = exp.base_seed + i as u64;
                }
                let report = Simulation::new(net, sim_cfg)
                    .unwrap()
                    .run(planner.as_ref(), exp.k)
                    .unwrap();
                report.avg_dead_time_s()
            })
            .collect()
    }

    #[test]
    fn resilience_runs_with_and_without_faults() {
        let repair_s = 24.0 * 3600.0;
        // The second setting saturates one charger, so breakdowns cost
        // dead time there and the fault stream's seed shows in the means.
        for (n, k, days) in [(80, 2, 10.0), (300, 1, 20.0)] {
            let mut clean_and_faulted = Vec::new();
            for mtbf_fraction in [0.0, 0.5] {
                let mut exp = MonitoringExperiment {
                    n,
                    k,
                    instances: 2,
                    base_seed: 3_000,
                    horizon_s: days * 86_400.0,
                    ..Default::default()
                };
                exp.sim.fault.charger_mtbf_s = mtbf_fraction * exp.horizon_s;
                exp.sim.fault.charger_repair_s = repair_s;
                for kind in [PlannerKind::Appro, PlannerKind::KEdf] {
                    let got = exp.run_planner(kind, mtbf_fraction);
                    let (mean, std) =
                        mean_std(&resilience_reference(&exp, kind, mtbf_fraction, repair_s));
                    let at = format!("{} at n={n}, MTBF {mtbf_fraction}", kind.name());
                    assert_eq!(got.x, mtbf_fraction);
                    assert_eq!(got.mean.to_bits(), mean.to_bits(), "{at}");
                    assert_eq!(got.std.to_bits(), std.to_bits(), "{at}");
                    clean_and_faulted.push(got.mean);
                }
            }
            if k == 1 {
                assert!(clean_and_faulted[3] > clean_and_faulted[1], "{clean_and_faulted:?}");
            }
        }
    }
}
