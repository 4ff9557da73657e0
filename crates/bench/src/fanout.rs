//! Parallel planner fan-out over a shared [`ProblemContext`].
//!
//! Evaluates a planner × seed grid concurrently with scoped threads.
//! All planners of one seed plan against the **same**
//! [`ChargingProblem`] — and therefore the same [`ProblemContext`] — so
//! the depot distances, coverage lists and the charging graph are built
//! once per seed and read lock-free by every worker (the context is
//! immutable once built). The fan-out reports problem and context build
//! time separately from per-planner plan time.
//!
//! Timing lives here (and in the CLI) only: nothing on the simulation
//! or planning path ever reads the clock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use wrsn_core::{ChargingProblem, PlannerConfig, ProblemContext};
use wrsn_net::NetworkBuilder;
use wrsn_sim::Simulation;

use crate::planners::PlannerKind;

/// One planner × seed evaluation.
#[derive(Clone, Debug)]
pub struct FanoutCell {
    /// Planner display name.
    pub planner: &'static str,
    /// The instance seed.
    pub seed: u64,
    /// Longest charge delay of the produced schedule, seconds.
    pub longest_delay_s: f64,
    /// Wall-clock spent inside `plan()`, seconds.
    pub plan_s: f64,
}

/// Result of a [`PlannerFanout`] run.
#[derive(Clone, Debug)]
pub struct FanoutReport {
    /// Wall-clock spent building problems and warming their shared
    /// contexts.
    pub context_build_s: f64,
    /// Wall-clock of the parallel planning phase.
    pub plan_wall_s: f64,
    /// Per-cell results, ordered planner-major then seed.
    pub cells: Vec<FanoutCell>,
}

impl FanoutReport {
    /// Sum of all per-cell plan times (CPU-ish total, ignores overlap).
    pub fn total_plan_s(&self) -> f64 {
        self.cells.iter().map(|c| c.plan_s).sum()
    }
}

/// A planner × seed evaluation grid. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct PlannerFanout {
    /// Network size `n`.
    pub n: usize,
    /// Number of chargers `K`.
    pub k: usize,
    /// Maximum data rate `b_max`, kbps.
    pub b_max_kbps: f64,
    /// Instance seeds (one shared problem per seed).
    pub seeds: Vec<u64>,
    /// Planners to evaluate on every seed.
    pub kinds: Vec<PlannerKind>,
    /// Request accumulation window for the snapshot, seconds.
    pub dispatch_period_s: f64,
    /// Shared planner config.
    pub config: PlannerConfig,
}

impl Default for PlannerFanout {
    fn default() -> Self {
        PlannerFanout {
            n: 200,
            k: 2,
            b_max_kbps: 50.0,
            seeds: (1..=5).collect(),
            kinds: PlannerKind::extended().to_vec(),
            dispatch_period_s: 5.0 * 24.0 * 3600.0,
            config: PlannerConfig::default(),
        }
    }
}

impl PlannerFanout {
    /// Builds the snapshot problem for `seed`.
    fn problem(&self, seed: u64) -> ChargingProblem {
        let mut net = NetworkBuilder::new(self.n)
            .seed(seed)
            .data_rate_bps(1_000.0, self.b_max_kbps * 1_000.0)
            .build();
        let requests = Simulation::warm_up_period(&mut net, 0.2, self.dispatch_period_s);
        ChargingProblem::from_network(&net, &requests, self.k)
            .expect("snapshot problems are always valid")
    }

    /// Forces the memoized geometry every planner reads, so subsequent
    /// `plan()` calls measure planning only.
    fn warm(ctx: &ProblemContext) {
        let _ = ctx.depot_distances();
        let _ = ctx.neighbor_lists();
        let _ = ctx.charging_graph();
    }

    /// Runs the grid with **one shared problem (and context) per seed**:
    /// contexts are built and warmed up front (reported separately), then
    /// every planner × seed cell plans concurrently against the shared,
    /// immutable instances.
    pub fn run_shared(&self) -> FanoutReport {
        let build_start = Instant::now();
        let problems: Vec<ChargingProblem> = self
            .seeds
            .iter()
            .map(|&s| {
                let p = self.problem(s);
                Self::warm(p.context());
                p
            })
            .collect();
        let context_build_s = build_start.elapsed().as_secs_f64();

        let plan_start = Instant::now();
        let cells = self.fan_out(&problems);
        FanoutReport {
            context_build_s,
            plan_wall_s: plan_start.elapsed().as_secs_f64(),
            cells,
        }
    }

    /// Work-stealing fan-out over the planner × seed grid; every cell
    /// plans on its seed's shared `problems[seed_idx]`.
    fn fan_out(&self, problems: &[ChargingProblem]) -> Vec<FanoutCell> {
        let cells = self.kinds.len() * self.seeds.len();
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(cells.max(1));
        let out: Mutex<Vec<Option<FanoutCell>>> = Mutex::new(vec![None; cells]);
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells {
                        break;
                    }
                    let kind = self.kinds[i / self.seeds.len()];
                    let seed_idx = i % self.seeds.len();
                    let planner = kind.build(self.config);
                    let t0 = Instant::now();
                    let schedule =
                        planner.plan(&problems[seed_idx]).expect("planners are complete");
                    let plan_s = t0.elapsed().as_secs_f64();
                    out.lock().expect("result lock")[i] = Some(FanoutCell {
                        planner: kind.name(),
                        seed: self.seeds[seed_idx],
                        longest_delay_s: schedule.longest_delay_s(),
                        plan_s,
                    });
                });
            }
        });
        out.into_inner()
            .expect("no poisoned lock")
            .into_iter()
            .map(|c| c.expect("every cell evaluated"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PlannerFanout {
        PlannerFanout {
            n: 60,
            seeds: vec![1, 2],
            kinds: vec![PlannerKind::Appro, PlannerKind::KMinMax, PlannerKind::KEdf],
            ..Default::default()
        }
    }

    #[test]
    fn shared_grid_covers_every_cell() {
        let rep = small().run_shared();
        assert_eq!(rep.cells.len(), 6);
        for c in &rep.cells {
            assert!(c.longest_delay_s > 0.0, "{} seed {}", c.planner, c.seed);
            assert!(c.plan_s >= 0.0);
        }
        // Planner-major order.
        assert_eq!(rep.cells[0].planner, "Appro");
        assert_eq!(rep.cells[0].seed, 1);
        assert_eq!(rep.cells[1].seed, 2);
        assert_eq!(rep.cells[2].planner, "K-minMax");
        assert!(rep.context_build_s >= 0.0);
    }

    #[test]
    fn cold_and_shared_agree_on_schedules() {
        // Planning concurrently against a shared warmed context must
        // produce exactly the delays of planning sequentially against a
        // freshly built instance.
        let f = small();
        let shared = f.run_shared();
        assert_eq!(shared.cells.len(), f.kinds.len() * f.seeds.len());
        for cell in &shared.cells {
            let kind = f.kinds.iter().find(|k| k.name() == cell.planner).unwrap();
            let cold = kind.build(f.config).plan(&f.problem(cell.seed)).unwrap();
            assert_eq!(
                cell.longest_delay_s.to_bits(),
                cold.longest_delay_s().to_bits(),
                "{} seed {} drifted between shared and cold",
                cell.planner,
                cell.seed
            );
        }
    }
}
