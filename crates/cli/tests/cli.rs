//! End-to-end tests of the `wrsn` binary.

use std::process::Command;

fn wrsn() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wrsn"))
}

#[test]
fn help_lists_commands() {
    let out = wrsn().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["plan", "compare", "simulate", "bounds", "experiment"] {
        assert!(text.contains(cmd), "help must mention {cmd}");
    }
}

#[test]
fn no_args_prints_help() {
    let out = wrsn().output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = wrsn().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn plan_produces_certified_tours() {
    let out = wrsn()
        .args(["plan", "--n", "150", "--seed", "2", "--k", "2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("certified"));
    assert!(text.contains("MCV 0"));
    assert!(text.contains("MCV 1"));
}

#[test]
fn plan_json_is_valid_json() {
    let out = wrsn()
        .args(["plan", "--n", "120", "--seed", "3", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(v["certified"], serde_json::Value::Bool(true));
    assert!(v["longest_delay_s"].as_f64().unwrap() > 0.0);
    assert!(v["tours"].as_array().is_some());
}

#[test]
fn compare_lists_all_five_planners() {
    let out = wrsn()
        .args(["compare", "--n", "150", "--seed", "2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["Appro", "K-EDF", "NETWRAP", "AA", "K-minMax"] {
        assert!(text.contains(name), "missing {name}:\n{text}");
    }
}

#[test]
fn plan_compare_runs_all_six_planners_on_one_context() {
    let out = wrsn()
        .args(["plan", "--n", "600", "--seed", "3", "--compare"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("shared context built"), "{text}");
    for kind in wrsn_bench::PlannerKind::extended() {
        assert!(text.contains(kind.name()), "missing {}:\n{text}", kind.name());
    }
}

#[test]
fn plan_compare_honours_shards() {
    let instance = ["plan", "--n", "1200", "--k", "4", "--seed", "3", "--shards", "2"];
    let out = wrsn().args(instance).arg("--compare").output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    for kind in wrsn_bench::PlannerKind::extended() {
        let row: Vec<&str> = text
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|cols| cols.first() == Some(&kind.name()))
            .unwrap_or_else(|| panic!("missing {}:\n{text}", kind.name()));
        let out = wrsn()
            .args(instance)
            .args(["--algorithm", kind.name(), "--json"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
        let hours = |key: &str| format!("{:.2}", v[key].as_f64().unwrap() / 3600.0);
        assert_eq!(row[1], hours("longest_delay_s"), "{} longest:\n{text}", kind.name());
        assert_eq!(row[2], v["sojourns"].to_string(), "{} sojourns:\n{text}", kind.name());
        assert_eq!(row[3], hours("total_wait_time_s"), "{} wait:\n{text}", kind.name());
    }
}

#[test]
fn experiment_unknown_figure_lists_all_six() {
    let out = wrsn().args(["experiment", "--figure", "nope"]).output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    for id in wrsn_bench::FIGURES {
        assert!(err.contains(id), "missing {id}:\n{err}");
    }
}

#[test]
fn experiment_runs_a_spec_file() {
    let path = std::env::temp_dir().join(format!("wrsn_cli_spec_{}.json", std::process::id()));
    std::fs::write(
        &path,
        r#"{"name": "tiny k sweep", "kind": "snapshot", "n": 60, "instances": 1,
            "sweep": {"variable": "k", "values": [1, 2]}, "planners": ["Appro"]}"#,
    )
    .unwrap();
    let out = wrsn()
        .args(["experiment", "--spec"])
        .arg(&path)
        .arg("--csv")
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("## tiny k sweep [hours]"), "{text}");
    assert!(text.contains("x,planner,mean,std,instances"), "{text}");
    assert_eq!(text.matches(",Appro,").count(), 2, "{text}");
}

#[test]
fn simulate_reports_rounds() {
    let out = wrsn()
        .args(["simulate", "--n", "100", "--days", "40", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(v["rounds"].as_u64().unwrap() >= 1);
}

#[test]
fn simulate_async_mode_works() {
    let out = wrsn()
        .args(["simulate", "--n", "100", "--days", "40", "--dispatch", "async"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn simulate_with_lossy_channel_reconciles() {
    let out = wrsn()
        .args([
            "simulate", "--n", "100", "--days", "60", "--k", "1", "--json", "--validate",
            "--request-loss", "0.3", "--request-delay", "5", "--request-dup", "0.05",
            "--channel-seed", "9",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(v["ledger_reconciles"], serde_json::Value::Bool(true));
    assert!(v["lost_requests"].as_u64().unwrap() > 0, "0.3 loss must lose requests");
}

#[test]
fn simulate_checkpoint_and_resume_agree() {
    let dir = std::env::temp_dir().join("wrsn_cli_ckpt_test");
    std::fs::remove_dir_all(&dir).ok();
    let base = [
        "simulate", "--n", "100", "--days", "60", "--k", "1", "--json",
        "--request-loss", "0.2", "--channel-seed", "4",
    ];
    let full = wrsn().args(base).output().expect("binary runs");
    assert!(full.status.success(), "{}", String::from_utf8_lossy(&full.stderr));

    let ckpt = wrsn()
        .args(base)
        .args(["--checkpoint-every", "2"])
        .env("CARGO_TARGET_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(ckpt.status.success(), "{}", String::from_utf8_lossy(&ckpt.stderr));
    assert_eq!(full.stdout, ckpt.stdout, "checkpointing must not perturb the run");

    let snap = dir.join("wrsn-results").join("checkpoint_round0002.json");
    assert!(snap.exists(), "expected {}", snap.display());
    let resumed = wrsn()
        .args(base)
        .args(["--resume", snap.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(full.stdout, resumed.stdout, "resumed run must match uninterrupted");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_another_instance_without_panicking() {
    let dir = std::env::temp_dir().join("wrsn_cli_instance_ckpt_test");
    std::fs::remove_dir_all(&dir).ok();
    let base = ["simulate", "--days", "20", "--seed", "1"];
    let ckpt = wrsn()
        .args(base)
        .args(["--n", "120", "--k", "2", "--checkpoint-every", "5"])
        .env("CARGO_TARGET_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(ckpt.status.success(), "{}", String::from_utf8_lossy(&ckpt.stderr));
    let snap = dir.join("wrsn-results").join("checkpoint_round0005.json");
    assert!(snap.exists(), "expected {}", snap.display());

    for (n, k) in [("121", "2"), ("120", "3")] {
        let out = wrsn()
            .args(base)
            .args(["--n", n, "--k", k, "--resume", snap.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "n={n} k={k}: {stderr}");
        assert!(!stderr.contains("panicked"), "n={n} k={k}: {stderr}");
        assert!(stderr.contains("snapshot is for n=120 k=2"), "n={n} k={k}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_a_nan_residual_without_panicking() {
    let dir = std::env::temp_dir().join("wrsn_cli_nan_ckpt_test");
    std::fs::remove_dir_all(&dir).ok();
    let base = ["simulate", "--n", "200", "--k", "2", "--days", "30", "--seed", "4"];
    let ckpt = wrsn()
        .args(base)
        .args(["--checkpoint-every", "5"])
        .env("CARGO_TARGET_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(ckpt.status.success(), "{}", String::from_utf8_lossy(&ckpt.stderr));
    let snap = dir.join("wrsn-results").join("checkpoint_round0010.json");
    let text = std::fs::read_to_string(&snap).expect("round-10 checkpoint");
    let mut v: serde_json::Value = serde_json::from_str(&text).expect("snapshot JSON");
    let serde_json::Value::Object(m) = &mut v else { panic!("a snapshot is an object") };
    let mut sensors = m.get("sensors").and_then(|s| s.as_array()).expect("sensors").clone();
    let rate_bits = sensors[0][1].as_u64().expect("rate bits");
    sensors[0] = serde_json::Value::from(vec![f64::NAN.to_bits(), rate_bits]);
    m.insert("sensors".into(), serde_json::Value::Array(sensors));
    let bad = dir.join("nan_residual.json");
    std::fs::write(&bad, v.to_string()).expect("writable temp dir");

    let out = wrsn()
        .args(base)
        .args(["--resume", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("corrupt snapshot: sensor residual"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_async_dispatch() {
    let out = wrsn()
        .args([
            "simulate", "--n", "50", "--days", "30", "--dispatch", "async",
            "--checkpoint-every", "2",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("sync dispatcher"));
}

#[test]
fn help_documents_channel_and_checkpoint_flags() {
    let out = wrsn().arg("help").output().expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--request-loss",
        "--request-delay",
        "--request-dup",
        "--channel-seed",
        "--admission-bound",
        "--max-deferrals",
        "--checkpoint-every",
        "--resume",
    ] {
        assert!(text.contains(flag), "help must mention {flag}");
    }
}

#[test]
fn help_documents_churn_flags() {
    let out = wrsn().arg("help").output().expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    for flag in ["--sensor-mtbf", "--cascade-factor", "--churn-seed"] {
        assert!(text.contains(flag), "help must mention {flag}");
    }
}

#[test]
fn simulate_with_churn_repairs_and_conserves_traffic() {
    let out = wrsn()
        .args([
            "simulate", "--n", "100", "--days", "60", "--k", "1", "--json", "--validate",
            "--sensor-mtbf", "120", "--churn-seed", "13", "--cascade-factor", "1.1",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(v["failed_sensors"].as_u64().unwrap() >= 1, "mtbf 120d must kill sensors");
    assert!(v["routing_repairs"].as_u64().unwrap() >= 1, "deaths must trigger repairs");
    assert_eq!(v["traffic_conserved"], serde_json::Value::Bool(true));
    assert_eq!(v["ledger_reconciles"], serde_json::Value::Bool(true));
}

#[test]
fn invalid_cascade_factor_is_a_clean_error() {
    let out = wrsn()
        .args([
            "simulate", "--n", "50", "--days", "10", "--sensor-mtbf", "30",
            "--cascade-factor", "0.5",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid churn model"));
}

#[test]
fn resume_rejects_contradictory_churn_flags() {
    let dir = std::env::temp_dir().join("wrsn_cli_churn_ckpt_test");
    std::fs::remove_dir_all(&dir).ok();
    let churned = [
        "simulate", "--n", "100", "--days", "60", "--k", "1", "--json",
        "--sensor-mtbf", "120", "--churn-seed", "5",
    ];
    let full = wrsn().args(churned).output().expect("binary runs");
    assert!(full.status.success(), "{}", String::from_utf8_lossy(&full.stderr));

    let ckpt = wrsn()
        .args(churned)
        .args(["--checkpoint-every", "2"])
        .env("CARGO_TARGET_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(ckpt.status.success(), "{}", String::from_utf8_lossy(&ckpt.stderr));
    assert_eq!(full.stdout, ckpt.stdout, "checkpointing must not perturb a churned run");

    let snap = dir.join("wrsn-results").join("checkpoint_round0002.json");
    assert!(snap.exists(), "expected {}", snap.display());

    // Resuming the churned snapshot without the churn flags must fail.
    let bare = wrsn()
        .args(["simulate", "--n", "100", "--days", "60", "--k", "1", "--json"])
        .args(["--resume", snap.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!bare.status.success(), "churned snapshot + inert flags must be rejected");
    assert!(String::from_utf8_lossy(&bare.stderr).contains("churn active"));

    // Resuming with matching flags completes bit-identically.
    let resumed = wrsn()
        .args(churned)
        .args(["--resume", snap.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(full.stdout, resumed.stdout, "resumed churned run must match uninterrupted");

    // The converse: a churn-free snapshot cannot be resumed with churn on.
    let dir2 = std::env::temp_dir().join("wrsn_cli_inert_ckpt_test");
    std::fs::remove_dir_all(&dir2).ok();
    let inert = ["simulate", "--n", "100", "--days", "60", "--k", "1", "--json"];
    let ik = wrsn()
        .args(inert)
        .args(["--checkpoint-every", "2"])
        .env("CARGO_TARGET_DIR", &dir2)
        .output()
        .expect("binary runs");
    assert!(ik.status.success(), "{}", String::from_utf8_lossy(&ik.stderr));
    let snap2 = dir2.join("wrsn-results").join("checkpoint_round0002.json");
    let churn_on = wrsn()
        .args(churned)
        .args(["--resume", snap2.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!churn_on.status.success(), "inert snapshot + churn flags must be rejected");
    assert!(String::from_utf8_lossy(&churn_on.stderr).contains("no churn state"));

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn help_documents_energy_flags() {
    let out = wrsn().arg("help").output().expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--charger-capacity",
        "--travel-cost",
        "--transfer-efficiency",
        "--recharge-rate",
        "--rescue",
    ] {
        assert!(text.contains(flag), "help must mention {flag}");
    }
}

#[test]
fn invalid_energy_model_is_a_clean_error() {
    // A finite tank without a depot recharge rate can never refill.
    let out = wrsn()
        .args([
            "simulate", "--n", "50", "--days", "10", "--charger-capacity", "25",
            "--travel-cost", "50",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid charger energy model"));
}

#[test]
fn simulate_with_tight_chargers_recharges_and_reconciles() {
    let out = wrsn()
        .args([
            "simulate", "--n", "150", "--days", "120", "--k", "3", "--json", "--validate",
            "--charger-capacity", "25", "--travel-cost", "50",
            "--transfer-efficiency", "0.9", "--recharge-rate", "200", "--rescue",
            "--travel-jitter", "0.5", "--fault-seed", "9",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(v["depot_recharges"].as_u64().unwrap() >= 1, "25 kJ must force detours");
    assert_eq!(v["charger_energy_reconciles"], serde_json::Value::Bool(true));
    assert_eq!(v["ledger_reconciles"], serde_json::Value::Bool(true));
}

#[test]
fn resume_with_every_layer_active_is_bit_identical() {
    // Faults, lossy channel, imperfect telemetry, sensor churn and
    // finite charger energy all at once: a checkpointed run must
    // resume to byte-identical output, and contradictory energy flags
    // must be rejected in both directions.
    let dir = std::env::temp_dir().join("wrsn_cli_energy_ckpt_test");
    std::fs::remove_dir_all(&dir).ok();
    let loaded = [
        "simulate", "--n", "100", "--days", "60", "--k", "2", "--json",
        "--charger-capacity", "25", "--travel-cost", "50",
        "--transfer-efficiency", "0.9", "--recharge-rate", "200", "--rescue",
        "--travel-jitter", "0.5", "--fault-seed", "9",
        "--request-loss", "0.1", "--channel-seed", "4",
        "--telemetry-interval", "360", "--telemetry-noise", "0.05",
        "--telemetry-seed", "29",
        "--sensor-mtbf", "120", "--churn-seed", "5",
    ];
    let full = wrsn().args(loaded).output().expect("binary runs");
    assert!(full.status.success(), "{}", String::from_utf8_lossy(&full.stderr));

    let ckpt = wrsn()
        .args(loaded)
        .args(["--checkpoint-every", "2"])
        .env("CARGO_TARGET_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(ckpt.status.success(), "{}", String::from_utf8_lossy(&ckpt.stderr));
    assert_eq!(full.stdout, ckpt.stdout, "checkpointing must not perturb the run");

    let snap = dir.join("wrsn-results").join("checkpoint_round0002.json");
    assert!(snap.exists(), "expected {}", snap.display());

    // Energized snapshot + inert energy flags: rejected. (Churn flags
    // stay matched so the energy conflict is the one that fires.)
    let bare = wrsn()
        .args([
            "simulate", "--n", "100", "--days", "60", "--k", "2", "--json",
            "--sensor-mtbf", "120", "--churn-seed", "5",
        ])
        .args(["--resume", snap.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!bare.status.success(), "energized snapshot + inert flags must be rejected");
    assert!(String::from_utf8_lossy(&bare.stderr).contains("charger energy active"));

    // Matching flags: completes bit-identically.
    let resumed = wrsn()
        .args(loaded)
        .args(["--resume", snap.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(full.stdout, resumed.stdout, "resumed run must match uninterrupted");

    // The converse: an energy-free snapshot cannot be resumed with a
    // finite tank.
    let dir2 = std::env::temp_dir().join("wrsn_cli_energy_inert_ckpt_test");
    std::fs::remove_dir_all(&dir2).ok();
    let ik = wrsn()
        .args([
            "simulate", "--n", "100", "--days", "60", "--k", "2", "--json",
            "--sensor-mtbf", "120", "--churn-seed", "5",
        ])
        .args(["--checkpoint-every", "2"])
        .env("CARGO_TARGET_DIR", &dir2)
        .output()
        .expect("binary runs");
    assert!(ik.status.success(), "{}", String::from_utf8_lossy(&ik.stderr));
    let snap2 = dir2.join("wrsn-results").join("checkpoint_round0002.json");
    let energized = wrsn()
        .args(loaded)
        .args(["--resume", snap2.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!energized.status.success(), "inert snapshot + energy flags must be rejected");
    assert!(String::from_utf8_lossy(&energized.stderr).contains("no charger battery state"));

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn bounds_reports_ratio() {
    let out = wrsn()
        .args(["bounds", "--n", "150", "--seed", "2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gap vs best bound"));
}

#[test]
fn bounds_states_theorem_one_for_the_instance() {
    // 33 requests with charge durations of 4,424–5,400 s, so
    // ρ = 40π · 5400/4424 + 1 ≈ 154.4, not the 127 of equal durations.
    let out = wrsn().args(["bounds", "--n", "400"]).output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Theorem 1 guarantees ≤ 154x"), "{text}");
}

#[test]
fn bad_value_is_a_clean_error() {
    let out = wrsn().args(["plan", "--n", "many"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid value"));
}

#[test]
fn unknown_algorithm_is_a_clean_error() {
    let out = wrsn()
        .args(["plan", "--n", "50", "--algorithm", "magic"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
}

#[test]
fn serve_soak_reconciles_and_archives_percentiles() {
    let target = std::env::temp_dir().join(format!("wrsn_cli_soak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&target);
    let out = wrsn()
        .env("CARGO_TARGET_DIR", &target)
        .args([
            "serve", "--n", "80", "--k", "2", "--seed", "5", "--soak-rate", "2000",
            "--soak-duration", "2", "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(v["ledger_reconciles"], serde_json::Value::Bool(true));
    assert_eq!(v["silent_loss"].as_u64(), Some(0));
    assert!(v["admitted"].as_u64().unwrap() > 0);
    assert!(v["dispatch_latency"]["count"].as_u64().unwrap() > 0);
    // The percentile archive lands in the results dir.
    let archive = target.join("wrsn-results").join("serve_soak.json");
    let archived: serde_json::Value =
        serde_json::from_slice(&std::fs::read(&archive).expect("archive written"))
            .expect("archive is JSON");
    assert_eq!(archived["ledger_reconciles"], serde_json::Value::Bool(true));
    assert!(archived["dispatch_latency"]["p99_s"].as_f64().is_some());
    // Every soak archive carries the honest tally: with no adversary,
    // every arrival is honest.
    assert_eq!(archived["offered"].as_u64(), Some(4000));
    assert_eq!(archived["honest_submitted"], archived["offered"]);
    assert_eq!(archived["honest_ledger_reconciles"], serde_json::Value::Bool(true));
    let _ = std::fs::remove_dir_all(&target);
}

#[test]
fn serve_stdin_daemon_admits_and_shuts_down_on_eof() {
    use std::io::Write;
    let target = std::env::temp_dir().join(format!("wrsn_cli_daemon_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&target);
    let mut child = wrsn()
        .env("CARGO_TARGET_DIR", &target)
        .args([
            "serve", "--n", "60", "--k", "1", "--seed", "4", "--no-pace", "--no-drain",
            "--echo", "--json",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        writeln!(stdin, "{{\"sensor\": 3, \"deficit_j\": 12.5}}").unwrap();
        writeln!(stdin, "{{\"sensor\": 9}}").unwrap();
        writeln!(stdin, "not json at all").unwrap();
    }
    drop(child.stdin.take()); // EOF ends the daemon
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Echo lines come first, then the JSON report.
    assert!(text.contains("\"outcome\": \"accepted\""), "echo lines present:\n{text}");
    let json_start = text.find("{\n").expect("report JSON");
    let v: serde_json::Value =
        serde_json::from_str(&text[json_start..]).expect("valid report JSON");
    assert_eq!(v["admitted"].as_u64(), Some(2));
    assert_eq!(v["ledger_reconciles"], serde_json::Value::Bool(true));
    let _ = std::fs::remove_dir_all(&target);
}

#[test]
fn serve_resume_restores_the_ledger() {
    let target = std::env::temp_dir().join(format!("wrsn_cli_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&target);
    let args = ["serve", "--n", "70", "--k", "2", "--seed", "6"];
    // Run 1: a short soak; shutdown writes the final snapshot + WAL.
    let out = wrsn()
        .env("CARGO_TARGET_DIR", &target)
        .args(args)
        .args(["--soak-rate", "500", "--soak-duration", "2", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let first: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let admitted = first["admitted"].as_u64().unwrap();
    assert!(admitted > 0);

    // Run 2: resume with no new load; the restored books must match.
    let mut child = wrsn()
        .env("CARGO_TARGET_DIR", &target)
        .args(args)
        .args(["--resume", "--no-pace", "--no-drain", "--json"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdin.take()); // immediate EOF
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let resumed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(resumed["admitted"].as_u64(), Some(admitted), "ledger restored");
    assert_eq!(resumed["ledger_reconciles"], serde_json::Value::Bool(true));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resumed at t ="), "resume banner:\n{stderr}");
    let _ = std::fs::remove_dir_all(&target);
}
