//! `wrsn` — command-line front end for the charger-scheduling workspace.
//!
//! ```text
//! wrsn plan      --n 800 --k 2 --seed 7 [--algorithm appro] [--json] [--compare]
//! wrsn compare   --n 800 --k 2 --seed 7
//! wrsn simulate  --n 800 --k 2 --seed 7 --days 365 [--algorithm appro] [--json]
//! wrsn bounds    --n 800 --k 2 --seed 7
//! wrsn help
//! ```

mod args;
mod commands;

use std::process::ExitCode;

use args::Args;

const HELP: &str = "\
wrsn — multi-charger scheduling for wireless rechargeable sensor networks
(reproduction of Xu et al., ICDCS 2019)

USAGE:
    wrsn <COMMAND> [OPTIONS]

COMMANDS:
    plan        Plan charging tours for one snapshot instance
    compare     Run every planner on the same snapshot instance (the same
                as plan --compare)
    simulate    Simulate a monitoring period with repeated charging rounds
    bounds      Show instance lower bounds and the planner's gap to them
    experiment  Run a paper figure panel (--figure fig3a|fig3b|fig4a|fig4b|
                fig5a|fig5b, with --instances, default 5, and
                --horizon-days, default 90) or a declarative JSON sweep
                (--spec file.json); --csv also prints the raw points
    fleet       Find the minimum fleet size (--max-k, --tolerance-min)
    serve       Run the online charging service: a resilient long-lived daemon
                with micro-batched admission, backpressure, and crash recovery
    help        Show this message

COMMON OPTIONS:
    --n <int>           Number of sensors (default 600)
    --k <int>           Number of mobile chargers (default 2)
    --seed <u64>        Instance seed (default 1)
    --b-max <kbps>      Maximum data rate (default 50)
    --period <days>     Request accumulation period before planning (default 5)
    --field <meters>    Square field side length (default 100; scale with sqrt(n)
                        to hold sensor density constant on large instances)
    --context <mode>    Geometry mode: dense | sparse | auto (default auto —
                        dense up to 4096 sensors, sparse above; dense refuses
                        larger instances)
    --shards <int>      Spatial shards planned concurrently and stitched at the
                        depot with boundary reconciliation (default 1)
    --algorithm <name>  appro | kedf | netwrap | aa | kminmax | mmmatch (default appro)
    --json              Emit machine-readable JSON instead of a table
    --compare           (plan) Evaluate every planner concurrently on one shared
                        problem context, sharded as --shards asks; reports
                        per-planner plan time (what compare runs)
    --map               (plan) Also print an ASCII field map + timeline
    --stats             (plan) Also print completion percentiles + per-MCV breakdown
    --svg <path>        (plan) Write the field and timeline as SVG files

SIMULATE OPTIONS:
    --days <f64>           Monitoring period in days (default 365)
    --dispatch <mode>      sync (round barrier) | async (per-charger pipelining)
    --charger-mtbf <days>  Mean time between charger breakdowns, days
                           (0 = faults off, the default)
    --charger-repair <h>   Repair downtime after a breakdown, hours (default 24)
    --travel-jitter <f>    Relative round-length jitter, e.g. 0.1 for +/-10 %
    --fault-seed <u64>     Fault-stream seed; with --seed it fully
                           determines a faulted run (default 0)
    --request-loss <p>     Per-message request loss probability in [0, 1)
                           (0 = reliable channel, the default); lost requests
                           are retried with capped exponential backoff
    --request-delay <min>  Maximum uniform request delivery delay, minutes
    --request-dup <p>      Per-message duplication probability in [0, 1];
                           duplicate arrivals are dropped and counted
    --channel-seed <u64>   Channel-stream seed (default 0)
    --admission-bound <h>  Degraded mode: shed the least-critical requests
                           once the batch's theoretical delay bound exceeds
                           this many hours (0 = admit everything, default)
    --max-deferrals <int>  Escalate a request past the admission bound after
                           this many sheds/deferrals (default 4)
    --telemetry-noise <f>  Relative residual-report noise amplitude in [0, 1),
                           as a fraction of battery capacity (0 = exact
                           telemetry, the default)
    --telemetry-interval <min>
                           Minutes between periodic residual reports
                           (0 = continuous reporting, the default)
    --telemetry-quantize-j <J>
                           Round reported residuals to this many joules
                           (0 = no quantization, the default)
    --guard-margin <f>     Plan from estimates this many uncertainty
                           half-widths below the belief (default 1; higher
                           overcharges rather than undershoots)
    --telemetry-seed <u64> Telemetry-noise stream seed (default 0)
    --sensor-mtbf <days>   Mean time between permanent sensor hardware
                           failures (0 = churn off, the default); deaths
                           trigger incremental routing repair
    --cascade-factor <f>   Escalate charging priority of survivors whose
                           post-repair consumption jumps past this factor
                           (> 1; default 1.5)
    --churn-seed <u64>     Sensor-failure stream seed (default 0)
    --charger-capacity <kJ>
                           Each MCV's own battery capacity in kilojoules
                           (absent/infinite = unlimited, the default); a
                           finite tank forces depot recharge detours and
                           can strand an exhausted charger mid-tour
    --travel-cost <J/m>    Charger battery drain per meter driven (default 0)
    --transfer-efficiency <f>
                           Wireless transfer efficiency in (0, 1]: delivering
                           E joules drains E/f from the tank (default 1)
    --recharge-rate <W>    Depot recharge power for finite tanks (required
                           positive when --charger-capacity is finite)
    --rescue               Tow a stranded charger home with the nearest
                           energy-feasible peer instead of losing it
    --checkpoint-every <N> Write a crash-safe snapshot of the full simulation
                           state to target/wrsn-results/ every N rounds
                           (sync dispatcher only)
    --resume <path>        Resume a simulation from a snapshot file; the run
                           completes bit-identically to one never interrupted
                           (sync dispatcher only)
    --validate             Check schedule invariants on every dispatched and
                           recovery plan (always on in debug builds)

SERVE OPTIONS:
    Requests arrive as JSON lines ({\"sensor\": 17, \"deficit_j\": 120.5}) on
    stdin (default) or a unix socket; SIGINT/SIGTERM shuts down gracefully
    with a final snapshot. State (WAL + snapshot) lives under
    target/wrsn-results/serve/ unless --state-dir overrides it.
    --tick-ms <f64>        Scheduling tick, milliseconds (default 100)
    --max-batch <int>      Most-critical requests admitted per tick (default 64)
    --queue-cap <int>      Ingress queue bound; beyond it the least-critical
                           request is shed — ledgered and traced, never silent
                           (default 4096)
    --admission-bound <h>  Defer requests past this delay bound, hours
                           (0 = admit everything, the default)
    --max-deferrals <int>  Force-admit (escalate) after this many deferred
                           batches (default 4)
    --drift-threshold <n>  Incremental tour edits before a full re-plan
                           (default 48)
    --plan-budget-ms <f64> Watchdog budget per full planner run; past it the
                           batch falls back to the degraded chain (default 2000)
    --replan-max-stops <n> Skip full re-plans above this many unstarted stops
                           (default 512)
    --snapshot-every <n>   Auto-snapshot cadence in ticks (0 = shutdown only)
    --deficit-fraction <f> Assumed deficit for requests that report none, as a
                           fraction of capacity (default 0.8)
    --state-dir <path>     Where the WAL and snapshot live
    --resume               Resume from the state dir: restore the snapshot and
                           replay the WAL tail (zero accepted requests lost)
    --socket <path>        Listen on a unix socket instead of stdin
    --echo                 Echo one JSON line per admission outcome
    --no-pace              Do not pace ticks in wall time (tests/benchmarks)
    --no-drain             Exit on ingress EOF without draining in-flight work
    --soak-rate <req/s>    Run the seeded soak harness at this offered load
                           instead of serving an ingress (archives percentiles
                           to target/wrsn-results/serve_soak.json)
    --soak-duration <s>    Soak length in service seconds (default 60)
    --soak-seed <u64>      Soak load-generator seed (default 1)
    --realtime             Soak in wall time (for kill-mid-soak drills)
    --drain                Drain in-flight requests after the soak load stops

SERVE INGRESS OPTIONS (the hardened wire front; every refusal is counted
    and traced, nothing is silently dropped):
    --max-line-bytes <n>   Longest ingress line materialized; longer lines are
                           discarded in constant memory and counted as
                           oversize (default 65536; 0 still enforces a 1 MiB
                           hard backstop)
    --read-timeout-ms <ms> Per-connection read deadline; a silent socket peer
                           is disconnected and counted as a read error
                           (0 = no deadline, the default)
    --max-conns <n>        Concurrent socket connections; past the cap new
                           connections are refused and counted (default 64,
                           0 = unlimited)

SERVE GUARD OPTIONS (byzantine request defense; all inert by default —
    unarmed, the guard draws nothing and output is bit-identical):
    --rate-limit <req/s>   Per-sensor token-bucket rate; arrivals past it are
                           rejected with a typed reason (0 = off)
    --rate-burst <n>       Token-bucket burst depth (default 4)
    --replay-window <s>    Window for the replay/duplicate-flood fingerprint
                           check (0 = off)
    --replay-limit <n>     Identical lines tolerated per window (default 2)
    --deficit-margin <f>   Arm the deficit-plausibility cross-check against
                           the estimator's uncertainty bounds; the margin
                           scales the tolerance (0 = off)
    --quarantine-strikes <n>
                           Guard rejections before a sensor is quarantined
                           (default 3)
    --quarantine-s <s>     Quarantine window, service seconds (default 60;
                           doubles on each re-quarantine, capped at 8x)
    --quarantine-parole-s <s>
                           Parole period after quarantine lifts; one violation
                           re-quarantines (default 30)

SERVE ADVERSARY OPTIONS (seeded byzantine traffic for soak runs; inert
    unless --adversary-fraction is positive; with --soak-rate it archives
    target/wrsn-results/serve_adversary_soak.json):
    --adversary-fraction <p>
                           Fraction of soak arrivals replaced by attacks
                           (spoofed ids, deficit lies, replay floods, junk,
                           oversize lines)
    --adversary-seed <u64> Attack-stream seed (default 0; the seed alone
                           never arms anything)
    --adversary-compromised <n>
                           Sensors the adversary can send plausible traffic
                           as (default 4)
    --adversary-burst <n>  Lines per replay flood (default 6)
    --adversary-oversize <bytes>
                           Length of one oversize attack line (default 65536)

SERVE CHAOS OPTIONS (all inert by default; any --chaos-* probability or an
    ENOSPC window arms the seeded failpoint registry on the WAL, snapshot,
    and ingress hot paths; off, zero RNG values are drawn and output is
    bit-identical):
    --chaos-seed <u64>     Fault-schedule seed (default 0; the seed alone
                           never arms anything)
    --chaos-io-error-p <p> Per-operation transient EIO probability; absorbed
                           by bounded group-commit retries with backoff
    --chaos-fsync-fail-p <p>
                           Per-fsync failure probability; the engine treats
                           written-but-unsynced bytes as unknown and rewrites
                           the batch from the last durable offset
    --chaos-torn-write-p <p>
                           Per-write torn (short) write probability; recovery
                           truncates the partial record
    --chaos-stall-p <p>    Per-operation slow-I/O stall probability
    --chaos-stall-ms <ms>  Duration of one injected stall (required with
                           --chaos-stall-p)
    --chaos-enospc-from-tick <n>
                           First tick (1-based) of a persistent ENOSPC window:
                           every durable write fails until it passes, driving
                           the engine into degraded mode (refuse new work,
                           keep dispatching, re-arm on probe success)
    --chaos-enospc-ticks <n>
                           ENOSPC window length in ticks (default 12)
    --chaos-ingress-fault-p <p>
                           Per-line ingress read-fault probability (the line
                           is dropped as on a lossy socket)
    --chaos-drill <kills>  Run the in-process chaos drill instead of serving:
                           soak under the fault schedule with this many
                           simulated kill -9 + resume cycles, asserting zero
                           accepted-request loss; archives
                           target/wrsn-results/serve_chaos.json
";

fn main() -> ExitCode {
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match parsed.command.as_deref() {
        Some("plan") => commands::plan(&parsed),
        Some("compare") => commands::compare(&parsed),
        Some("simulate") => commands::simulate(&parsed),
        Some("bounds") => commands::bounds(&parsed),
        Some("experiment") => commands::experiment(&parsed),
        Some("fleet") => commands::fleet(&parsed),
        Some("serve") => commands::serve(&parsed),
        Some("help") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `wrsn help`").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
