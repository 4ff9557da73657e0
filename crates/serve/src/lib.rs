//! Online charging service: a long-lived daemon on top of the batch
//! planners.
//!
//! Both simulation engines are round-oriented: requests accumulate,
//! a batch is planned, the fleet dispatches. Real on-demand charging is
//! a *continuous* stream under load, so this crate runs the scheduler
//! as a resilient service:
//!
//! - **Micro-batched admission** — requests arrive one at a time
//!   ([`ServeEngine::submit`]), queue in a bounded most-critical-first
//!   ingress queue, and are admitted on a tick — when a delay bound is
//!   set, against the
//!   [`AdmissionEstimator`](wrsn_core::bounds::AdmissionEstimator)
//!   reach/work bound, with starvation-free escalation after
//!   `max_deferrals` deferred batches.
//! - **Backpressure, never silent loss** — a saturated queue sheds the
//!   *least*-critical request (the newcomer or a displaced victim);
//!   every shed increments the ledger and lands in the trace. At any
//!   instant `admitted = charged + shed + in-flight` holds exactly
//!   ([`ServeEngine::ledger_reconciles`]).
//! - **Incremental re-planning** — admitted requests are spliced into
//!   the live tours by cheapest insertion; only when accumulated edits
//!   drift past a threshold does a full planner run rebuild the tours.
//! - **Planning watchdog** — full re-plans run on a worker thread under
//!   a time budget with `catch_unwind` panic isolation; a hung, failed,
//!   or panicked planner trips the watchdog and the batch falls back
//!   down the degraded chain (k-EDF, then the infallible greedy tour),
//!   mirroring the simulator's recovery chain.
//! - **Crash recovery** — accepted requests are appended to a
//!   write-ahead log *before* they are queued, and the full service
//!   state snapshots atomically and durably. After a `kill -9`,
//!   [`ServeEngine::resume`] restores the snapshot and replays the WAL
//!   tail: zero accepted requests are lost.
//! - **Storage chaos & degraded mode** — a seeded, inert-by-default
//!   failpoint registry ([`failpoint`]) injects deterministic storage
//!   faults (transient EIO, ENOSPC windows, fsync failures, torn
//!   writes, slow-I/O stalls) into every durability hot path. Transient
//!   faults are absorbed by bounded retry with backoff; persistent
//!   durability loss flips the engine into a degraded mode that refuses
//!   new admissions (typed, ledgered, traced — never silent) while
//!   accepted work keeps dispatching, re-arming when a probe write
//!   succeeds. After each successful snapshot the WAL compacts
//!   atomically, bounding disk use by snapshot interval.
//! - **Graceful shutdown** — SIGINT/SIGTERM ([`shutdown::install`])
//!   ends the service at a tick boundary with a final snapshot and a
//!   report carrying latency percentiles (admission-to-dispatch and
//!   admission-to-charged), queue depth, shed/deferral counters, and
//!   watchdog trips.
//! - **Untrusted ingress** — every byte on the wire is adversarial
//!   until proven otherwise. The wire front ([`ingress`]) bounds line
//!   length (oversize lines are discarded unmaterialized and counted),
//!   applies per-connection read deadlines and a connection cap, and
//!   counts mid-stream read failures. Behind it, the [`guard`] runs
//!   per-sensor token-bucket rate limiting, a replay/duplicate-flood
//!   window, and deficit-plausibility cross-checks against the
//!   estimator's uncertainty bounds, quarantining repeat offenders
//!   with decay and parole — all typed, ledgered *outside* the
//!   conservation identity, and traced. A seeded, inert-by-default
//!   [`adversary`] model (spoofed IDs, deficit liars, replay floods,
//!   junk/oversize lines) supplies the soak harness's attack mix
//!   ([`SoakConfig::adversary`]), so the whole defense is exercised
//!   deterministically.
//!
//! The deterministic core ([`ServeEngine`]) is driven by explicit
//! `submit`/`tick` calls on a virtual clock; [`daemon`] wraps it with
//! real I/O (stdin or a unix socket) and [`soak`] with a seeded
//! open-loop load generator.

pub mod adversary;
pub mod daemon;
mod encode;
mod engine;
pub mod failpoint;
pub mod guard;
pub mod ingress;
mod metrics;
mod queue;
mod request;
pub mod shutdown;
pub mod soak;
mod tours;
mod wal;
mod watchdog;

pub use adversary::{
    AdversaryConfig, AdversaryConfigError, AdversaryCounters, AdversaryModel, AttackKind,
};
pub use engine::{
    Admission, ServeConfig, ServeConfigError, ServeEngine, ServeError, ServeLedger,
    ServeReport,
};
pub use failpoint::{ChaosConfig, ChaosConfigError, ChaosCounters, Failpoints};
pub use guard::{Guard, GuardConfig, GuardConfigError, GuardCounters};
pub use ingress::{classify_line, read_bounded_line, BoundedLine, IngressEvent};
pub use metrics::{LatencySummary, ServeMetrics};
pub use queue::{IngressQueue, Offer, QueuedRequest};
pub use request::{RequestParseError, ServeRequest};
pub use soak::{ChaosDrillOutcome, SoakConfig, SoakOutcome};
pub use wal::{Wal, WalEntry, WalError};
pub use watchdog::{plan_guarded, GuardedPlan, PlanSource, PlannerFactory, TripReason};
