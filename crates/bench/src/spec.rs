//! Declarative experiment specifications.
//!
//! Experiments can be described as JSON documents and executed with
//! [`run_spec`] (or `wrsn experiment --spec file.json`), so sweeps
//! beyond the paper's figures don't require writing Rust:
//!
//! ```json
//! {
//!   "name": "my sweep",
//!   "kind": "snapshot",
//!   "sweep": { "variable": "k", "values": [1, 2, 3] },
//!   "n": 600,
//!   "instances": 5,
//!   "planners": ["Appro", "K-minMax"]
//! }
//! ```

use wrsn_core::PlannerConfig;

use crate::experiment::{MonitoringExperiment, SnapshotExperiment};
use crate::table::ResultTable;
use crate::PlannerKind;

/// Which experiment harness a spec drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecKind {
    /// Plan once per instance; metric = longest tour duration (hours).
    Snapshot,
    /// Simulate the monitoring period; metric = avg dead duration per
    /// sensor (minutes).
    Monitoring,
}

/// The swept variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepVariable {
    /// Network size.
    N,
    /// Number of chargers.
    K,
    /// Maximum data rate, kbps.
    BMax,
}

impl SweepVariable {
    /// The variable's name in tables and titles: `n`, `K` or `b_max`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            SweepVariable::N => "n",
            SweepVariable::K => "K",
            SweepVariable::BMax => "b_max",
        }
    }
}

/// A one-dimensional sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Sweep {
    /// The variable to sweep.
    pub variable: SweepVariable,
    /// The values it takes.
    pub values: Vec<f64>,
}

/// A declarative experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    /// Title used in the rendered table.
    pub name: String,
    /// Snapshot (Fig. (a)-style) or monitoring (Fig. (b)-style).
    pub kind: SpecKind,
    /// The swept variable and its values.
    pub sweep: Sweep,
    /// Fixed network size (overridden when sweeping `n`).
    pub n: usize,
    /// Fixed charger count (overridden when sweeping `k`).
    pub k: usize,
    /// Fixed maximum data rate in kbps (overridden when sweeping `b_max`).
    pub b_max_kbps: f64,
    /// Instances per point.
    pub instances: usize,
    /// Monitoring horizon in days (monitoring kind only).
    pub horizon_days: f64,
    /// Planner names to run (paper names); empty = the paper's five.
    pub planners: Vec<String>,
}

fn default_n() -> usize {
    600
}
fn default_k() -> usize {
    2
}
fn default_b_max() -> f64 {
    50.0
}
fn default_instances() -> usize {
    5
}
fn default_horizon_days() -> f64 {
    90.0
}

/// Error running a spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A planner name did not match any known planner.
    UnknownPlanner(String),
    /// The sweep has no values.
    EmptySweep,
    /// The JSON document did not describe a valid spec.
    Parse(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownPlanner(p) => write!(f, "unknown planner {p:?}"),
            SpecError::EmptySweep => write!(f, "sweep has no values"),
            SpecError::Parse(why) => write!(f, "invalid spec: {why}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl ExperimentSpec {
    /// Parses a spec from its JSON document form (see the module docs
    /// for the shape). Missing optional fields take the documented
    /// defaults.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] on malformed JSON, missing required
    /// fields, or fields of the wrong type.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let doc = serde_json::from_str(text)
            .map_err(|e| SpecError::Parse(e.to_string()))?;
        Self::from_value(&doc)
    }

    fn from_value(doc: &serde_json::Value) -> Result<Self, SpecError> {
        let parse = |why: &str| SpecError::Parse(why.to_string());
        if doc.as_object().is_none() {
            return Err(parse("top level must be an object"));
        }
        let name = doc["name"]
            .as_str()
            .ok_or_else(|| parse("\"name\" must be a string"))?
            .to_string();
        let kind = match doc["kind"].as_str() {
            Some("snapshot") => SpecKind::Snapshot,
            Some("monitoring") => SpecKind::Monitoring,
            _ => return Err(parse("\"kind\" must be \"snapshot\" or \"monitoring\"")),
        };
        let sweep_doc = &doc["sweep"];
        let variable = match sweep_doc["variable"].as_str() {
            Some("n") => SweepVariable::N,
            Some("k") => SweepVariable::K,
            Some("b_max") => SweepVariable::BMax,
            _ => return Err(parse("\"sweep.variable\" must be \"n\", \"k\", or \"b_max\"")),
        };
        let values = sweep_doc["values"]
            .as_array()
            .ok_or_else(|| parse("\"sweep.values\" must be an array"))?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| parse("sweep values must be numbers")))
            .collect::<Result<Vec<f64>, SpecError>>()?;
        let opt_usize = |key: &str, default: usize| match &doc[key] {
            serde_json::Value::Null => Ok(default),
            v => v
                .as_u64()
                .map(|u| u as usize)
                .ok_or_else(|| parse(&format!("{key:?} must be a non-negative integer"))),
        };
        let opt_f64 = |key: &str, default: f64| match &doc[key] {
            serde_json::Value::Null => Ok(default),
            v => v.as_f64().ok_or_else(|| parse(&format!("{key:?} must be a number"))),
        };
        let planners = match &doc["planners"] {
            serde_json::Value::Null => Vec::new(),
            v => v
                .as_array()
                .ok_or_else(|| parse("\"planners\" must be an array of strings"))?
                .iter()
                .map(|p| {
                    p.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| parse("planner names must be strings"))
                })
                .collect::<Result<Vec<String>, SpecError>>()?,
        };
        Ok(ExperimentSpec {
            name,
            kind,
            sweep: Sweep { variable, values },
            n: opt_usize("n", default_n())?,
            k: opt_usize("k", default_k())?,
            b_max_kbps: opt_f64("b_max_kbps", default_b_max())?,
            instances: opt_usize("instances", default_instances())?,
            horizon_days: opt_f64("horizon_days", default_horizon_days())?,
            planners,
        })
    }
}

fn resolve_planners(names: &[String]) -> Result<Vec<PlannerKind>, SpecError> {
    if names.is_empty() {
        return Ok(PlannerKind::all().to_vec());
    }
    names
        .iter()
        .map(|n| {
            PlannerKind::from_name(n).ok_or_else(|| SpecError::UnknownPlanner(n.clone()))
        })
        .collect()
}

/// Runs a spec and returns the populated table.
///
/// # Errors
///
/// Returns [`SpecError`] for unknown planner names or an empty sweep.
pub fn run_spec(spec: &ExperimentSpec) -> Result<ResultTable, SpecError> {
    if spec.sweep.values.is_empty() {
        return Err(SpecError::EmptySweep);
    }
    let planners = resolve_planners(&spec.planners)?;
    let (divisor, unit) = match spec.kind {
        SpecKind::Snapshot => (3600.0, "hours"),
        SpecKind::Monitoring => (60.0, "minutes"),
    };
    let mut table = ResultTable::new(&spec.name, spec.sweep.variable.label(), divisor, unit);

    for &x in &spec.sweep.values {
        let (n, k, b_max) = match spec.sweep.variable {
            SweepVariable::N => (x as usize, spec.k, spec.b_max_kbps),
            SweepVariable::K => (spec.n, x as usize, spec.b_max_kbps),
            SweepVariable::BMax => (spec.n, spec.k, x),
        };
        for &kind in &planners {
            let point = match spec.kind {
                SpecKind::Snapshot => {
                    let exp = SnapshotExperiment {
                        n,
                        k,
                        b_max_kbps: b_max,
                        instances: spec.instances,
                        config: PlannerConfig::default(),
                        ..Default::default()
                    };
                    exp.run_planner(kind, x)
                }
                SpecKind::Monitoring => {
                    let exp = MonitoringExperiment {
                        n,
                        k,
                        b_max_kbps: b_max,
                        instances: spec.instances,
                        horizon_s: spec.horizon_days * 86_400.0,
                        ..Default::default()
                    };
                    exp.run_planner(kind, x)
                }
            };
            table.extend(vec![point]);
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::from_json(
            r#"{
                "name": "tiny",
                "kind": "snapshot",
                "sweep": { "variable": "k", "values": [1, 2] },
                "n": 80,
                "instances": 1,
                "planners": ["Appro"]
            }"#,
        )
        .expect("valid spec")
    }

    #[test]
    fn parses_with_defaults() {
        let s = tiny_spec();
        assert_eq!(s.b_max_kbps, 50.0);
        assert_eq!(s.horizon_days, 90.0);
        assert_eq!(s.k, 2);
    }

    #[test]
    fn runs_a_snapshot_sweep() {
        let table = run_spec(&tiny_spec()).unwrap();
        let text = table.render();
        assert!(text.contains("tiny"));
        assert!(text.contains("Appro"));
        // Two x rows.
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn empty_planner_list_means_the_paper_five() {
        let mut s = tiny_spec();
        s.planners.clear();
        s.sweep.values = vec![1.0];
        s.instances = 1;
        s.n = 60;
        let table = run_spec(&s).unwrap();
        for name in ["Appro", "K-EDF", "NETWRAP", "AA", "K-minMax"] {
            assert!(table.render().contains(name));
        }
    }

    #[test]
    fn unknown_planner_is_rejected() {
        let mut s = tiny_spec();
        s.planners = vec!["Magic".into()];
        assert_eq!(run_spec(&s).err(), Some(SpecError::UnknownPlanner("Magic".into())));
    }

    #[test]
    fn empty_sweep_is_rejected() {
        let mut s = tiny_spec();
        s.sweep.values.clear();
        assert_eq!(run_spec(&s).err(), Some(SpecError::EmptySweep));
    }

    #[test]
    fn planner_names_are_case_insensitive() {
        let mut s = tiny_spec();
        s.planners = vec!["mm-match".into()];
        s.sweep.values = vec![1.0];
        s.n = 50;
        assert!(run_spec(&s).is_ok());
    }

    #[test]
    fn monitoring_kind_runs() {
        let spec: ExperimentSpec = ExperimentSpec::from_json(
            r#"{
                "name": "mon",
                "kind": "monitoring",
                "sweep": { "variable": "n", "values": [50] },
                "instances": 1,
                "horizon_days": 15,
                "planners": ["Appro"]
            }"#,
        )
        .unwrap();
        let table = run_spec(&spec).unwrap();
        assert!(table.render().contains("mon"));
    }
}
