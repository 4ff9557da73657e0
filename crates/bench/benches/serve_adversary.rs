//! Adversary-fraction × rate-limit sweep: honest service under attack.
//!
//! Runs the seeded adversarial soak — the open-loop honest workload
//! with a configurable fraction of arrivals replaced by byzantine
//! attacks (spoofed ids, deficit lies, replay floods, junk, oversize
//! lines) — across a grid of hostile fractions and per-sensor
//! token-bucket rate limits. Each cell asserts the hard invariants
//! (no panic, honest ledger reconciles, silent loss zero, quarantine
//! fires when attacked) and reports the honest-request p99
//! charged-latency degradation relative to the unattacked baseline of
//! the same rate-limit row.
//!
//! Results are archived as `target/wrsn-results/serve_adversary.json`
//! (consumed by `EXPERIMENTS.md` and grepped by the CI adversary job).
//!
//! Knobs: `WRSN_ADV_RATE` (req/s, default 300), `WRSN_ADV_DURATION`
//! (service seconds, default 12), `WRSN_ADV_N` (sensors, default 120),
//! `WRSN_ADV_SEED` (attack-stream seed, default 17).

use std::sync::Arc;

use wrsn_bench::{env_f64, env_usize};
use wrsn_core::{GreedyTour, Planner};
use wrsn_net::NetworkBuilder;
use wrsn_serve::soak::run_soak;
use wrsn_serve::{
    AdversaryConfig, GuardConfig, PlannerFactory, ServeConfig, ServeEngine, SoakConfig,
};

const FRACTIONS: [f64; 4] = [0.0, 0.1, 0.2, 0.4];
const RATE_LIMITS: [f64; 3] = [0.0, 20.0, 100.0];

fn main() {
    let rate = env_f64("WRSN_ADV_RATE", 300.0);
    let duration_s = env_f64("WRSN_ADV_DURATION", 12.0);
    let n = env_usize("WRSN_ADV_N", 120);
    let adv_seed = env_usize("WRSN_ADV_SEED", 17) as u64;

    let factory: Arc<PlannerFactory> =
        Arc::new(|| Box::new(GreedyTour) as Box<dyn Planner>);

    println!(
        "## Serve adversary sweep (n={n}, K=2, {rate:.0} req/s for {duration_s:.0} \
         service seconds, adversary seed {adv_seed})\n"
    );
    println!(
        "{:>10} {:>10} {:>8} {:>9} {:>6} {:>7} {:>7} {:>9} {:>11} {:>9} {:>9} {:>10}",
        "rate-limit", "hostile", "offered", "admitted", "rate", "replay", "lies",
        "quaran.", "quarantines", "charged", "p99 s", "degrade"
    );

    let mut rows: Vec<serde_json::Value> = Vec::new();
    for &rl in &RATE_LIMITS {
        let mut baseline_p99 = 0.0f64;
        for &fraction in &FRACTIONS {
            // Burst scales with the limit (0.2 s worth of tokens) so the
            // token bucket actually differentiates the rows: at 20/s a
            // 6-line replay flood overruns the 4-token bucket, at 100/s
            // it fits and only the replay window catches it.
            let guard = GuardConfig {
                rate_per_s: rl,
                burst: if rl > 0.0 { (rl * 0.2).max(2.0) } else { 40.0 },
                replay_window_s: 2.0,
                replay_limit: 2,
                deficit_margin: 1.0,
                quarantine_strikes: 3,
                quarantine_s: 4.0,
                parole_s: 2.0,
            };
            let cfg = SoakConfig {
                rate_per_s: rate,
                duration_s,
                seed: 5,
                deficit_fraction: (0.0002, 0.001),
                drain: true,
                adversary: AdversaryConfig {
                    seed: adv_seed,
                    hostile_fraction: fraction,
                    compromised: 4,
                    replay_burst: 6,
                    oversize_bytes: 8192,
                },
                max_line_bytes: 4096,
                ..SoakConfig::default()
            };
            let serve_cfg =
                ServeConfig { k: 2, tick_s: 0.05, guard, ..ServeConfig::default() };
            let net = NetworkBuilder::new(n).seed(31).build();
            let engine = ServeEngine::new(net, serve_cfg, Arc::clone(&factory))
                .expect("valid serve config");
            let out = run_soak(engine, &cfg, None)
                .expect("the adversarial soak absorbs attacks instead of erroring");

            let r = &out.report;
            assert!(
                out.honest_ledger_reconciles,
                "honest ledger must reconcile at fraction {fraction} rate-limit {rl}"
            );
            assert!(r.ledger_reconciles, "the conservation identity must hold");
            assert_eq!(r.silent_loss(), 0, "nothing may vanish silently");
            assert!(out.honest.admitted > 0, "honest service must continue");
            assert!(r.ledger.charged > 0, "honest charges must complete");
            if fraction > 0.0 {
                assert!(out.hostile_lines > 0, "an armed adversary must attack");
                assert!(
                    r.guard.rejected_total() + r.ledger.refused_quarantined > 0,
                    "an armed guard must refuse hostile traffic"
                );
                assert!(r.guard.quarantines > 0, "repeat offenders must quarantine");
            } else {
                assert_eq!(out.hostile_lines, 0, "a disarmed adversary stays inert");
                assert_eq!(r.guard.quarantines, 0, "honest-only load never quarantines");
            }

            let p99 = r.charged_latency.p99_s;
            if fraction == 0.0 {
                baseline_p99 = p99;
            }
            let degrade = if baseline_p99 > 0.0 { p99 / baseline_p99 } else { 1.0 };
            println!(
                "{:>10} {:>10} {:>8} {:>9} {:>6} {:>7} {:>7} {:>9} {:>11} {:>9} {:>9.1} {:>9.2}x",
                if rl > 0.0 { format!("{rl:.0}/s") } else { "off".into() },
                format!("{:.0}%", fraction * 100.0),
                out.offered,
                out.honest.admitted,
                r.guard.rejected_rate_limited,
                r.guard.rejected_replayed,
                r.guard.rejected_implausible,
                r.ledger.refused_quarantined,
                r.guard.quarantines,
                r.ledger.charged,
                p99,
                degrade,
            );

            let mut row = serde_json::Map::new();
            row.insert("rate_limit_per_s".into(), serde_json::Value::from(rl));
            row.insert("hostile_fraction".into(), serde_json::Value::from(fraction));
            row.insert("offered".into(), serde_json::Value::from(out.offered));
            row.insert(
                "hostile_lines".into(),
                serde_json::Value::from(out.hostile_lines),
            );
            row.insert(
                "honest_admitted".into(),
                serde_json::Value::from(out.honest.admitted),
            );
            row.insert(
                "guard_rejected".into(),
                serde_json::Value::from(r.guard.rejected_total()),
            );
            row.insert(
                "rejected_rate_limited".into(),
                serde_json::Value::from(r.guard.rejected_rate_limited),
            );
            row.insert(
                "rejected_replayed".into(),
                serde_json::Value::from(r.guard.rejected_replayed),
            );
            row.insert(
                "rejected_implausible".into(),
                serde_json::Value::from(r.guard.rejected_implausible),
            );
            row.insert(
                "refused_quarantined".into(),
                serde_json::Value::from(r.ledger.refused_quarantined),
            );
            row.insert(
                "quarantines".into(),
                serde_json::Value::from(r.guard.quarantines),
            );
            row.insert("charged".into(), serde_json::Value::from(r.ledger.charged));
            row.insert("honest_p99_s".into(), serde_json::Value::from(p99));
            row.insert(
                "p99_degradation".into(),
                serde_json::Value::from(degrade),
            );
            row.insert(
                "honest_ledger_reconciles".into(),
                serde_json::Value::Bool(out.honest_ledger_reconciles),
            );
            row.insert(
                "silent_loss".into(),
                serde_json::Value::from(r.silent_loss() as u64),
            );
            rows.push(serde_json::Value::Object(row));
        }
    }

    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("wrsn-results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let mut doc = serde_json::Map::new();
        doc.insert("rate_per_s".into(), serde_json::Value::from(rate));
        doc.insert("duration_s".into(), serde_json::Value::from(duration_s));
        doc.insert("n".into(), serde_json::Value::from(n as u64));
        doc.insert("adversary_seed".into(), serde_json::Value::from(adv_seed));
        doc.insert("sweep".into(), serde_json::Value::Array(rows));
        let path = dir.join("serve_adversary.json");
        let json = serde_json::to_string_pretty(&serde_json::Value::Object(doc))
            .expect("printing cannot fail");
        if std::fs::write(&path, json).is_ok() {
            println!("\nwrote {}", path.display());
        }
    }
}
