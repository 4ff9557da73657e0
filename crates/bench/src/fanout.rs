//! Parallel planner fan-out over a shared [`ProblemContext`].
//!
//! [`SnapshotExperiment::fan_out`] evaluates a planner × seed grid
//! concurrently on the experiment runners' worker pool. All planners of
//! one seed plan against the **same** [`ChargingProblem`] — and
//! therefore the same [`ProblemContext`] — so the depot distances,
//! coverage lists and the charging graph are built once per seed and
//! read lock-free by every worker (the context is immutable once
//! built). The fan-out reports problem and context build time
//! separately from per-planner plan time.
//!
//! Timing lives here (and in the CLI) only: nothing on the simulation
//! or planning path ever reads the clock.

use std::time::Instant;

use wrsn_core::{ChargingProblem, ProblemContext};

use crate::experiment::{parallel_instances, SnapshotExperiment};
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

/// Result of a [`SnapshotExperiment::fan_out`] run.
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

/// Forces the memoized geometry every planner reads, so subsequent
/// `plan()` calls measure planning only.
fn warm(ctx: &ProblemContext) {
    let _ = ctx.depot_distances();
    let _ = ctx.neighbor_lists();
    let _ = ctx.charging_graph();
}

impl SnapshotExperiment {
    /// Runs the planner × seed grid of `kinds` over this experiment's
    /// instances with **one shared problem (and context) per seed**:
    /// contexts are built and warmed up front (reported separately),
    /// then every cell plans concurrently against the shared, immutable
    /// instances. See the [module docs](self).
    pub fn fan_out(&self, kinds: &[PlannerKind]) -> FanoutReport {
        let build_start = Instant::now();
        let problems: Vec<ChargingProblem> = (0..self.instances)
            .map(|i| {
                let p = self.problem(i);
                warm(p.context());
                p
            })
            .collect();
        let context_build_s = build_start.elapsed().as_secs_f64();

        let plan_start = Instant::now();
        let cells = parallel_instances(kinds.len() * self.instances, |cell| {
            let kind = kinds[cell / self.instances];
            let i = cell % self.instances;
            let planner = kind.build(self.config);
            let t0 = Instant::now();
            let schedule = planner.plan(&problems[i]).expect("planners are complete");
            FanoutCell {
                planner: kind.name(),
                seed: self.base_seed + i as u64,
                longest_delay_s: schedule.longest_delay_s(),
                plan_s: t0.elapsed().as_secs_f64(),
            }
        });
        FanoutReport {
            context_build_s,
            plan_wall_s: plan_start.elapsed().as_secs_f64(),
            cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [PlannerKind; 3] = [PlannerKind::Appro, PlannerKind::KMinMax, PlannerKind::KEdf];

    fn small() -> SnapshotExperiment {
        SnapshotExperiment { n: 60, instances: 2, base_seed: 1, ..Default::default() }
    }

    #[test]
    fn shared_grid_covers_every_cell() {
        let rep = small().fan_out(&KINDS);
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
        let exp = small();
        let shared = exp.fan_out(&KINDS);
        assert_eq!(shared.cells.len(), KINDS.len() * exp.instances);
        for cell in &shared.cells {
            let kind = KINDS.iter().find(|k| k.name() == cell.planner).unwrap();
            let i = (cell.seed - exp.base_seed) as usize;
            let cold = kind.build(exp.config).plan(&exp.problem(i)).unwrap();
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
