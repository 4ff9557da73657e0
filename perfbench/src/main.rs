//! `wrsn-perfbench`: the repository's benchmark. It drives the public
//! APIs of the planner (`ShardedPlanner<Appro>`), both simulators and
//! the serve engine on seeded workloads, checks every output, and
//! prints end-to-end metrics — or, with `--trace 1`, per-layer metrics
//! from a traced run — ending with one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_year|plan_100k|serve_distinct|serve_hot|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See `perfbench/README.md` for the workloads and the metric table.

mod plan;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use report::{metric, Metric, Outcome};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["sim_year", "plan_100k", "serve_distinct", "serve_hot"];

/// `BENCHMARK.json` `end_to_end`: printed with `--trace 0`, reported by
/// every workload.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("work_ref", "ref")];

/// `BENCHMARK.json` `per_layer`: printed with `--trace 1`. These are
/// the layers every workload enters; the layers only one workload has
/// are printed beside them (see `perfbench/README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_frac", "frac"),
    ("net.build_s", "s"),
    ("planner.calls", "count"),
    ("planner.s", "s"),
    ("planner.p50_ms", "ms"),
    ("planner.tail_ms", "ms"),
    ("planner.share", "frac"),
    ("engine.self_s", "s"),
    ("appro.gc_s", "s"),
    ("appro.mis_s", "s"),
    ("appro.h_s", "s"),
    ("appro.core_mis_s", "s"),
    ("appro.matrix_s", "s"),
    ("appro.ktour_s", "s"),
    ("appro.insert_rest_s", "s"),
    ("appro.calls", "count"),
    ("appro.s_i", "count"),
    ("appro.core", "count"),
    ("appro.inserted", "count"),
    ("appro.skipped", "count"),
];

const USAGE: &str =
    "usage: wrsn-perfbench --workload <sim_year|plan_100k|serve_distinct|serve_hot|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("--seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("--seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("--seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "sim_year" => sim::run(&sim::SimSpec::FIG3, args.seed, args.seconds, args.trace),
        "plan_100k" => plan::run(&plan::PlanSpec::LARGE, args.seed, args.seconds, args.trace),
        name => {
            let spec = if name == "serve_distinct" {
                serve::ServeSpec::distinct()
            } else {
                serve::ServeSpec::hot()
            };
            let dir = serve::state_dir(name);
            let out = serve::run(&spec, args.seed, args.seconds, args.trace, &dir);
            // Best effort: a leftover directory is harmless and ignored.
            let _ = std::fs::remove_dir_all(&dir);
            out
        }
    }
}

fn json_number(v: f64) -> String {
    // Display prints the shortest exact decimal, never an exponent.
    format!("{v}")
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_block(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!(
            "  {:<28} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// Looks `name` up among `metrics`.
fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

fn run_one(args: &Args) -> ExitCode {
    println!(
        "wrsn-perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut out = run_workload(args);
    let attempted = out.attempted.max(1);
    let failed_frac = out.failed as f64 / attempted as f64;
    out.named.push(metric(
        "failed_frac",
        failed_frac,
        "frac",
        format!("{} failed or refused of {attempted} attempted", out.failed),
    ));
    let non_finite: Vec<String> = out
        .gate
        .iter()
        .chain(&out.named)
        .chain(&out.layers)
        .chain(&out.detail)
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not finite", m.name))
        .collect();
    for v in non_finite {
        out.violate(v);
    }
    if !out.spans.is_empty() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match trace::write_spans(&out.spans, &path) {
            Ok(()) => println!("spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => out.violate(format!("cannot write spans to {}: {e}", path.display())),
        }
    }
    let (listed, measured) = if args.trace {
        (PER_LAYER, &out.layers)
    } else {
        (END_TO_END, &out.gate)
    };
    let (mut reported, mut missing) = (Vec::new(), Vec::new());
    for &(name, unit) in listed {
        match find(measured, name).filter(|m| m.unit == unit) {
            Some(m) => reported.push(m.clone()),
            None => missing.push(format!("metric {name} ({unit}) was not measured")),
        }
    }
    for m in missing {
        out.violate(m);
    }
    if !out.violations.is_empty() {
        for v in &out.violations {
            eprintln!("check failed: {v}");
        }
        println!("{}", json_line(false, attempted, out.failed, &[]));
        return ExitCode::FAILURE;
    }

    print_block("end-to-end", &out.named);
    print_block("gate (BENCHMARK.json end_to_end)", &out.gate);
    if args.trace {
        print_block(
            "per-layer, every workload (BENCHMARK.json per_layer, traced run)",
            &out.layers,
        );
        print_block("per-layer, this workload only (traced run)", &out.detail);
    }
    println!("{}", json_line(true, attempted, out.failed, &reported));
    ExitCode::SUCCESS
}

/// `--workload all`: every workload in its own child process (so each
/// reports its own peak memory), one after the other; the last line
/// sums them up.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = 0u64;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed += 1;
        }
        println!();
    }
    let all_ok = failed == 0;
    println!("{}", json_line(all_ok, WORKLOADS.len() as u64, failed, &[]));
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
