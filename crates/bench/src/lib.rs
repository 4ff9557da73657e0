//! Experiment harness for the paper's evaluation (§VI).
//!
//! Each figure in the paper maps to a bench target that prints the same
//! series the figure plots (see `DESIGN.md` §6 for the full index). The
//! six figure panels are defined once, in [`figures`], and run by
//! [`run_spec`]:
//!
//! | Paper figure | Metric | Bench target |
//! |---|---|---|
//! | Fig. 3(a)/(b) | longest tour / dead duration vs `n` | `cargo bench -p wrsn-bench --bench fig3` |
//! | Fig. 4(a)/(b) | … vs `b_max` | `--bench fig4` |
//! | Fig. 5(a)/(b) | … vs `K` | `--bench fig5` |
//! | (engineering) | design-choice ablations | `--bench ablation` |
//!
//! Results are printed as aligned tables and also written as JSON under
//! `target/wrsn-results/` for archival (consumed by `EXPERIMENTS.md`).
//!
//! Knobs via environment variables (so `cargo bench` stays tractable):
//! `WRSN_INSTANCES` (instances per point, default 10),
//! `WRSN_HORIZON_DAYS` (monitoring period for (b)-type runs, default 90),
//! and the sweep lists and fixed `n` that [`figures::run_bench`] reads.

pub mod experiment;
pub mod fanout;
pub mod figures;
pub mod planners;
pub mod spec;
pub mod table;

pub use experiment::{MonitoringExperiment, PointSummary, SnapshotExperiment};
pub use fanout::{FanoutCell, FanoutReport};
pub use figures::{figure, FIGURES};
pub use planners::PlannerKind;
pub use spec::{run_spec, ExperimentSpec};

/// Reads a `usize` knob from the environment with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads an `f64` knob from the environment with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads a comma-separated `usize` list from the environment.
pub fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => v.split(',').filter_map(|x| x.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_fall_back_to_defaults() {
        assert_eq!(env_usize("WRSN_SURELY_UNSET_1", 7), 7);
        assert_eq!(env_f64("WRSN_SURELY_UNSET_2", 1.5), 1.5);
        assert_eq!(env_usize_list("WRSN_SURELY_UNSET_3", &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn env_list_parses() {
        std::env::set_var("WRSN_TEST_LIST", "3, 5,8");
        assert_eq!(env_usize_list("WRSN_TEST_LIST", &[]), vec![3, 5, 8]);
        std::env::remove_var("WRSN_TEST_LIST");
    }
}
