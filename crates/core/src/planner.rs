//! The planner abstraction shared by Appro and every baseline.

use std::error::Error;
use std::fmt;

use wrsn_algo::MisOrder;

use crate::{ChargingProblem, Schedule};

/// Order in which Appro's insertion phase (Algorithm 1, lines 7–24)
/// processes the candidates of `S_I \ V'_H`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InsertionOrder {
    /// The paper's rule (line 9): smallest latest-neighbor charging
    /// finish time `f_N(u)` first.
    #[default]
    EarliestNeighborFinish,
    /// Ascending target index — an ablation control showing how much the
    /// paper's ordering actually buys.
    ByIndex,
}

/// Tuning knobs shared by the planners.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannerConfig {
    /// Vertex order for the greedy MIS sweeps (Algorithm 1 lines 2, 4).
    pub mis_order: MisOrder,
    /// Candidate order for Appro's insertion phase (line 9).
    pub insertion_order: InsertionOrder,
    /// Post-optimization (beyond the paper): after the insertion phase,
    /// run 2-opt on each tour's visiting order (charging durations are
    /// kept, so every sensor still receives its full charge; conflict
    /// repair re-establishes the no-overlap constraint if needed).
    pub post_optimize: bool,
    /// Move cap for TSP tour improvement. Each 2-opt or Or-opt pass
    /// applies at most one first-improvement move, so the default 30
    /// allows Appro's line-5 tour 30 2-opt moves, then 16 Or-opt and 16
    /// more 2-opt moves ([`wrsn_algo::tsp::build_tour`]); post-optimization
    /// gets 30 2-opt moves per tour.
    pub tsp_passes: usize,
    /// When `true`, planners run the wait-based conflict repair
    /// ([`crate::conflict::repair_waits`]) so every returned schedule is
    /// certified conflict-free; the added waiting counts toward delays.
    pub enforce_no_overlap: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            mis_order: MisOrder::ByIndex,
            insertion_order: InsertionOrder::default(),
            tsp_passes: 30,
            enforce_no_overlap: true,
            post_optimize: false,
        }
    }
}

/// Error returned by a planner.
///
/// All shipped planners are complete heuristics (they always produce a
/// schedule for a valid problem); this type exists so the trait can stay
/// stable for planners with genuine failure modes (e.g. ILP backends
/// with time limits).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// An internal invariant was violated — a bug in the planner.
    Internal(&'static str),
    /// A [`crate::ProblemContext`] lookup failed (e.g. an out-of-bounds
    /// point index) — typed instead of a panic or a stringified
    /// [`PlanError::Internal`].
    Context(crate::ContextError),
    /// A produced schedule failed [`crate::validate_schedule`]: the
    /// planner terminated, but its output breaks replay invariants.
    Rejected {
        /// Name of the planner whose schedule was rejected.
        planner: &'static str,
        /// Everything wrong with the schedule.
        violations: Vec<crate::ScheduleViolation>,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Internal(what) => write!(f, "internal planner invariant violated: {what}"),
            PlanError::Context(e) => write!(f, "problem context lookup failed: {e}"),
            PlanError::Rejected { planner, violations } => {
                write!(f, "{planner} produced an invalid schedule: ")?;
                for (i, v) in violations.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for PlanError {}

impl From<crate::ContextError> for PlanError {
    fn from(e: crate::ContextError) -> Self {
        PlanError::Context(e)
    }
}

/// A charging-tour planner: consumes a [`ChargingProblem`], produces a
/// [`Schedule`] with one closed tour per MCV.
///
/// Implemented by [`crate::Appro`] (the paper's algorithm) and by the
/// four baselines in `wrsn-baselines`, letting the experiment harness
/// drive them uniformly.
pub trait Planner {
    /// Short stable name used in experiment tables ("Appro", "K-EDF", …).
    fn name(&self) -> &'static str;

    /// Plans charging tours for `problem`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] only when an internal invariant is violated.
    fn plan(&self, problem: &ChargingProblem) -> Result<Schedule, PlanError>;
}

/// Boxed planners plan by delegation, so trait objects (including
/// `Box<dyn Planner + Send + Sync>`) slot into generic wrappers such as
/// [`crate::ShardedPlanner`].
impl<P: Planner + ?Sized> Planner for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn plan(&self, problem: &ChargingProblem) -> Result<Schedule, PlanError> {
        (**self).plan(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_enforces_no_overlap() {
        let c = PlannerConfig::default();
        assert!(c.enforce_no_overlap);
        assert_eq!(c.mis_order, MisOrder::ByIndex);
        assert!(c.tsp_passes > 0);
    }

    #[test]
    fn plan_error_displays() {
        assert!(PlanError::Internal("x").to_string().contains('x'));
    }
}
