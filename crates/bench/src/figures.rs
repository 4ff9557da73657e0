//! The paper's six §VI panels, each defined once as an
//! [`ExperimentSpec`] and run by [`run_spec`].
//!
//! Figs 3, 4 and 5 sweep `n`, `b_max` and `K`. Panel (a) plans one
//! snapshot per instance and reports the longest tour; panel (b)
//! simulates the monitoring period and reports the dead duration per
//! sensor. The `fig3`–`fig5` bench targets run the panels through
//! [`run_bench`]; `wrsn experiment --figure <id>` looks them up with
//! [`figure`].

use crate::spec::{run_spec, ExperimentSpec, SpecKind, Sweep, SweepVariable};
use crate::{env_f64, env_usize, env_usize_list};

/// The panel ids, in the paper's order.
pub const FIGURES: [&str; 6] = ["fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b"];

/// The most instances per point [`run_bench`] runs on a dead-duration
/// (b) panel: each of its instances simulates the whole horizon.
const MONITORING_INSTANCE_CAP: usize = 5;

/// Panel `id` (one of [`FIGURES`]) at §VI-A's settings — n = 1000,
/// K = 2 and b_max = 50 kbps, each unless swept — with the figure
/// benches' defaults of 10 instances per point and a 90-day horizon.
/// `None` for any other id.
pub fn figure(id: &str) -> Option<ExperimentSpec> {
    let (variable, values): (SweepVariable, &[f64]) = match id.get(..4)? {
        "fig3" => (SweepVariable::N, &[200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0]),
        "fig4" => (SweepVariable::BMax, &[10.0, 20.0, 30.0, 40.0, 50.0]),
        "fig5" => (SweepVariable::K, &[1.0, 2.0, 3.0, 4.0, 5.0]),
        _ => return None,
    };
    let kind = match &id[4..] {
        "a" => SpecKind::Snapshot,
        "b" => SpecKind::Monitoring,
        _ => return None,
    };
    let mut spec = ExperimentSpec {
        name: String::new(),
        kind,
        sweep: Sweep { variable, values: values.to_vec() },
        n: 1000,
        k: 2,
        b_max_kbps: 50.0,
        instances: 10,
        horizon_days: 90.0,
        planners: Vec::new(),
    };
    spec.name = title(id, &spec);
    Some(spec)
}

/// Panel `id`'s title, naming the two settings its sweep holds fixed:
/// `Fig 4(a): average longest tour duration vs b_max (n=1000, K=2)`.
fn title(id: &str, spec: &ExperimentSpec) -> String {
    let metric = match spec.kind {
        SpecKind::Snapshot => "average longest tour duration",
        SpecKind::Monitoring => "average dead duration per sensor",
    };
    let n = format!("n={}", spec.n);
    let k = format!("K={}", spec.k);
    let b_max = format!("b_max={} kbps", spec.b_max_kbps);
    let fixed = match spec.sweep.variable {
        SweepVariable::N => [k, b_max],
        SweepVariable::BMax => [n, k],
        SweepVariable::K => [n, b_max],
    };
    format!(
        "Fig {}({}): {metric} vs {} ({})",
        &id[3..4],
        &id[4..],
        spec.sweep.variable.label(),
        fixed.join(", ")
    )
}

/// Runs Fig. `number`'s panels (a) then (b) for the `fig3`–`fig5` bench
/// targets: prints each table and archives its points as
/// `target/wrsn-results/fig<number><panel>.json`.
///
/// Environment knobs override the [`figure`] settings:
/// - `WRSN_SIZES`, `WRSN_RATES` or `WRSN_KS`: the swept `n`, `b_max`
///   (kbps) or `K` values, comma-separated;
/// - `WRSN_N`: the fixed network size of Figs 4 and 5;
/// - `WRSN_INSTANCES`: instances per point; panel (b) runs at most 5;
/// - `WRSN_HORIZON_DAYS`: panel (b)'s monitoring period.
///
/// # Panics
///
/// Panics if `number` is not 3, 4 or 5, if a sweep list is empty, or if
/// an archive cannot be written.
pub fn run_bench(number: u8) {
    for panel in ['a', 'b'] {
        let id = format!("fig{number}{panel}");
        let mut spec = figure(&id).expect("Figs 3-5 each have panels (a) and (b)");
        let knob = match spec.sweep.variable {
            SweepVariable::N => "WRSN_SIZES",
            SweepVariable::BMax => "WRSN_RATES",
            SweepVariable::K => "WRSN_KS",
        };
        let defaults: Vec<usize> = spec.sweep.values.iter().map(|&v| v as usize).collect();
        spec.sweep.values =
            env_usize_list(knob, &defaults).into_iter().map(|v| v as f64).collect();
        spec.n = env_usize("WRSN_N", spec.n);
        spec.instances = env_usize("WRSN_INSTANCES", spec.instances);
        if spec.kind == SpecKind::Monitoring {
            spec.instances = spec.instances.min(MONITORING_INSTANCE_CAP);
        }
        spec.horizon_days = env_f64("WRSN_HORIZON_DAYS", spec.horizon_days);
        spec.name = title(&id, &spec);

        let table = run_spec(&spec).unwrap_or_else(|e| panic!("{id}: {e}"));
        println!("{}", table.render());
        let path = table.write_json(&id).expect("write results");
        println!("raw points: {}{}", path.display(), if panel == 'a' { "\n" } else { "" });
        eprintln!("{id} done");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_panels_at_the_paper_settings() {
        let sizes = vec![200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0];
        let rates = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        let ks = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let expected = [
            (
                "Fig 3(a): average longest tour duration vs n (K=2, b_max=50 kbps)",
                SpecKind::Snapshot,
                SweepVariable::N,
                &sizes,
            ),
            (
                "Fig 3(b): average dead duration per sensor vs n (K=2, b_max=50 kbps)",
                SpecKind::Monitoring,
                SweepVariable::N,
                &sizes,
            ),
            (
                "Fig 4(a): average longest tour duration vs b_max (n=1000, K=2)",
                SpecKind::Snapshot,
                SweepVariable::BMax,
                &rates,
            ),
            (
                "Fig 4(b): average dead duration per sensor vs b_max (n=1000, K=2)",
                SpecKind::Monitoring,
                SweepVariable::BMax,
                &rates,
            ),
            (
                "Fig 5(a): average longest tour duration vs K (n=1000, b_max=50 kbps)",
                SpecKind::Snapshot,
                SweepVariable::K,
                &ks,
            ),
            (
                "Fig 5(b): average dead duration per sensor vs K (n=1000, b_max=50 kbps)",
                SpecKind::Monitoring,
                SweepVariable::K,
                &ks,
            ),
        ];
        for (id, (name, kind, variable, values)) in FIGURES.iter().zip(expected) {
            let spec = figure(id).unwrap_or_else(|| panic!("{id} is in the table"));
            assert_eq!(spec.name, name, "{id}");
            assert_eq!(spec.kind, kind, "{id}");
            assert_eq!(spec.sweep, Sweep { variable, values: values.clone() }, "{id}");
            assert_eq!((spec.n, spec.k, spec.b_max_kbps), (1000, 2, 50.0), "{id}");
            assert_eq!((spec.instances, spec.horizon_days), (10, 90.0), "{id}");
            assert!(spec.planners.is_empty(), "{id} runs the paper's five");
        }
    }

    #[test]
    fn unknown_ids_have_no_panel() {
        for id in ["", "fig3", "fig6a", "fig3c", "fig3ab", "Fig3a"] {
            assert_eq!(figure(id), None, "{id:?}");
        }
    }

    #[test]
    fn titles_follow_the_fixed_settings() {
        let mut spec = figure("fig4b").unwrap();
        spec.n = 300;
        assert_eq!(
            title("fig4b", &spec),
            "Fig 4(b): average dead duration per sensor vs b_max (n=300, K=2)"
        );
    }
}
