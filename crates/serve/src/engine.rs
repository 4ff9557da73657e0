//! The deterministic serve engine: micro-batched admission, incremental
//! tour editing, watchdogged re-planning, and crash recovery.
//!
//! The engine is driven by explicit calls on a virtual clock —
//! [`ServeEngine::submit`] for each arriving request,
//! [`ServeEngine::tick`] once per scheduling interval — so every test,
//! the soak harness, and the real daemon all exercise exactly the same
//! state machine. Real-time concerns (sockets, signals, wall clocks)
//! live in [`crate::daemon`].
//!
//! # The ledger invariant
//!
//! Every accepted request is in exactly one terminal or transient
//! state, and the books must always balance:
//!
//! ```text
//! admitted = charged + shed + in-flight
//! in-flight = queued + touring
//! ```
//!
//! [`ServeEngine::ledger_reconciles`] checks the identity at any
//! instant; the daemon and the soak harness assert it at shutdown.
//! Invalid and duplicate submissions are counted separately — they are
//! refused *before* acceptance (and before the WAL append), so they are
//! not part of the identity.
//!
//! # Crash recovery
//!
//! Acceptance order is WAL-append first, state second; the WAL is
//! group-committed once per tick and the whole engine state snapshots
//! atomically (tmp + fsync + rename + parent-dir fsync). After a
//! `kill -9`, [`ServeEngine::resume`] restores the snapshot and
//! replays the WAL tail (`seq >` the snapshot's high-water mark):
//! no accepted request is ever silently lost. Completions that
//! happened *after* the snapshot are forgotten by the crash — their
//! requests replay as still-pending and the service simply charges
//! those sensors again (at-least-once semantics); replayed requests
//! for a sensor already pending collapse as duplicates.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use serde_json::Value;
use wrsn_core::bounds::AdmissionEstimator;
use wrsn_core::{ChargingProblem, ChargingTarget};
use wrsn_net::{Network, SensorId};
use wrsn_sim::{IngressRejectReason, Trace, TraceEvent};

use crate::encode::{push_fields, push_list, push_row};
use crate::failpoint::{ChaosConfig, ChaosConfigError, ChaosCounters, Failpoints};
use crate::guard::{Guard, GuardConfig, GuardConfigError, GuardCounters, GuardVerdict};
use crate::metrics::ServeMetrics;
use crate::queue::{IngressQueue, Offer, QueuedRequest};
use crate::tours::{LiveStop, LiveTours, PendingStop};
use crate::wal::Wal;
use crate::watchdog::{plan_guarded, PlanSource, PlannerFactory};

/// Serve snapshot format version.
const FORMAT_VERSION: u64 = 1;

/// Retained trace events (ring); a soak generates millions.
const TRACE_CAPACITY: usize = 65_536;

/// Service configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeConfig {
    /// Fleet size `K`.
    pub k: usize,
    /// Charger physics (the paper's §VI-A defaults).
    pub params: wrsn_core::ChargingParams,
    /// Scheduling interval, seconds of service time.
    pub tick_s: f64,
    /// Most-critical requests admitted per tick.
    pub max_batch: usize,
    /// Ingress queue bound; arrivals beyond it shed least-critical-first.
    pub queue_capacity: usize,
    /// Admission delay bound, seconds (0 = no bound: admit everything).
    pub admission_bound_s: f64,
    /// Deferred batches after which an over-bound request is escalated
    /// and force-admitted (starvation freedom).
    pub max_deferrals: u32,
    /// Incremental edits after which a full planner run rebuilds the
    /// unstarted tours.
    pub drift_threshold: usize,
    /// Wall-clock budget for one full planner run, seconds; past it the
    /// watchdog abandons the planner and falls back degraded.
    pub plan_budget_s: f64,
    /// Largest unstarted-stop count a full re-plan will take on; past
    /// it the engine stays incremental (and counts the skip) rather
    /// than feeding the planner a problem it cannot finish in budget.
    pub replan_max_stops: usize,
    /// Automatic snapshot cadence in ticks (0 = snapshot only at
    /// shutdown / explicit checkpoints).
    pub snapshot_every_ticks: u64,
    /// Deficit assumed for a request that reports none, as a fraction
    /// of the sensor's capacity.
    pub default_deficit_fraction: f64,
    /// Bounded retries of a failed WAL group commit before the engine
    /// declares durability lost and enters degraded mode.
    pub io_retry_limit: u32,
    /// Base wall-clock backoff between retries, milliseconds; doubles
    /// per attempt (capped at 64× the base).
    pub io_retry_backoff_ms: u64,
    /// Ingress-guard (byzantine defense) configuration; inert by
    /// default — see [`crate::guard`].
    pub guard: GuardConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            k: 2,
            params: wrsn_core::ChargingParams::default(),
            tick_s: 0.1,
            max_batch: 64,
            queue_capacity: 4096,
            admission_bound_s: 0.0,
            max_deferrals: 4,
            drift_threshold: 48,
            plan_budget_s: 2.0,
            replan_max_stops: 512,
            snapshot_every_ticks: 0,
            default_deficit_fraction: 0.8,
            io_retry_limit: 3,
            io_retry_backoff_ms: 2,
            guard: GuardConfig::default(),
        }
    }
}

/// A rejected [`ServeConfig`] field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `k` must be at least 1.
    NoChargers,
    /// `tick_s` must be positive and finite.
    BadTick,
    /// `max_batch` must be at least 1.
    BadBatch,
    /// `queue_capacity` must be at least 1.
    BadQueueCapacity,
    /// `drift_threshold` must be at least 1.
    BadDriftThreshold,
    /// `plan_budget_s` must be positive and finite.
    BadPlanBudget,
    /// `default_deficit_fraction` must be in `(0, 1]`.
    BadDeficitFraction,
    /// The named `params` field is out of range (see
    /// [`wrsn_core::ChargingParams::validate`]).
    BadChargingParams(&'static str),
    /// The ingress-guard configuration is invalid.
    Guard(GuardConfigError),
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::NoChargers => write!(f, "need at least one charger"),
            ServeConfigError::BadTick => write!(f, "tick_s must be positive and finite"),
            ServeConfigError::BadBatch => write!(f, "max_batch must be at least 1"),
            ServeConfigError::BadQueueCapacity => {
                write!(f, "queue_capacity must be at least 1")
            }
            ServeConfigError::BadDriftThreshold => {
                write!(f, "drift_threshold must be at least 1")
            }
            ServeConfigError::BadPlanBudget => {
                write!(f, "plan_budget_s must be positive and finite")
            }
            ServeConfigError::BadDeficitFraction => {
                write!(f, "default_deficit_fraction must be in (0, 1]")
            }
            ServeConfigError::BadChargingParams(field) => {
                write!(f, "charging parameter {field} is out of range")
            }
            ServeConfigError::Guard(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeConfigError {}

impl ServeConfig {
    /// Validates every field.
    ///
    /// # Errors
    ///
    /// The first offending field as a [`ServeConfigError`].
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.k == 0 {
            return Err(ServeConfigError::NoChargers);
        }
        self.params.validate().map_err(ServeConfigError::BadChargingParams)?;
        if self.tick_s <= 0.0 || !self.tick_s.is_finite() {
            return Err(ServeConfigError::BadTick);
        }
        if self.max_batch == 0 {
            return Err(ServeConfigError::BadBatch);
        }
        if self.queue_capacity == 0 {
            return Err(ServeConfigError::BadQueueCapacity);
        }
        if self.drift_threshold == 0 {
            return Err(ServeConfigError::BadDriftThreshold);
        }
        if self.plan_budget_s <= 0.0 || !self.plan_budget_s.is_finite() {
            return Err(ServeConfigError::BadPlanBudget);
        }
        let f = self.default_deficit_fraction;
        if f.is_nan() || f <= 0.0 || f > 1.0 {
            return Err(ServeConfigError::BadDeficitFraction);
        }
        self.guard.validate().map_err(ServeConfigError::Guard)?;
        Ok(())
    }
}

/// The service's request accounting.
/// [`ServeEngine::ledger_reconciles`] checks its conservation identity,
/// `admitted = charged + shed + in-flight`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeLedger {
    /// Requests accepted (WAL-appended and queued).
    pub admitted: u64,
    /// Accepted requests whose charge completed.
    pub charged: u64,
    /// Accepted requests shed under backpressure (terminal, ledgered,
    /// traced — never silent).
    pub shed: u64,
    /// Submissions refused because the sensor already has a request in
    /// flight (not accepted, not in the identity).
    pub duplicates: u64,
    /// Submissions refused as malformed (unknown sensor; not accepted).
    pub invalid: u64,
    /// Requests force-admitted past the delay bound after
    /// `max_deferrals` deferred batches.
    pub escalated: u64,
    /// Deferral events (a request can defer multiple times).
    pub deferrals: u64,
    /// Submissions refused because the engine was in durability-degraded
    /// mode (never accepted, never WAL-appended — the client is told to
    /// retry; not part of the conservation identity).
    pub refused_degraded: u64,
    /// Submissions rejected by the ingress guard (rate limit, replay
    /// window, implausible deficit — never accepted, never
    /// WAL-appended; not part of the conservation identity).
    pub rejected: u64,
    /// Submissions refused because the sensor was quarantined (never
    /// accepted; not part of the conservation identity).
    pub refused_quarantined: u64,
}

/// Outcome of one [`ServeEngine::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Accepted and queued.
    Accepted {
        /// Assigned WAL sequence number.
        seq: u64,
    },
    /// Accepted, but the saturated queue immediately shed it (it was
    /// the least critical request present). Ledgered as admitted+shed.
    ShedOnArrival {
        /// Assigned WAL sequence number.
        seq: u64,
    },
    /// Refused: this sensor already has a request in flight.
    Duplicate,
    /// Refused: unknown sensor index.
    Invalid,
    /// Refused: the engine is in durability-degraded mode (its WAL
    /// cannot be made durable), so it will not acknowledge work it
    /// could lose. The client should retry after the service re-arms.
    RefusedDegraded,
    /// Rejected by the ingress guard, with the defense that fired.
    Rejected {
        /// Which defense rejected it.
        reason: IngressRejectReason,
    },
    /// Refused: the sensor is quarantined after repeated guard
    /// rejections; it is paroled when the window decays.
    RefusedQuarantined,
}

/// Service failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// Invalid configuration.
    Config(ServeConfigError),
    /// Invalid chaos (fault-injection) configuration.
    Chaos(ChaosConfigError),
    /// Invalid adversary (hostile-traffic) configuration.
    Adversary(crate::adversary::AdversaryConfigError),
    /// WAL or snapshot I/O failed.
    Io(String),
    /// A snapshot file exists but cannot be decoded.
    Snapshot(String),
    /// Another live daemon already answers on the requested socket
    /// path (binding would have deleted its socket out from under it).
    SocketInUse(String),
    /// A WAL or snapshot carries sequence number `u64::MAX`, after
    /// which no request can be numbered.
    SequenceExhausted,
    /// The snapshot was taken for a different instance.
    InstanceMismatch {
        /// Sensors in the snapshot.
        snapshot_n: usize,
        /// Chargers in the snapshot.
        snapshot_k: usize,
        /// Sensors in this engine.
        n: usize,
        /// Chargers in this engine.
        k: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "invalid serve config: {e}"),
            ServeError::Chaos(e) => write!(f, "invalid chaos config: {e}"),
            ServeError::Adversary(e) => write!(f, "invalid adversary config: {e}"),
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::SocketInUse(path) => write!(
                f,
                "another daemon is already serving on socket {path}; \
                 refusing to steal its socket file"
            ),
            ServeError::Snapshot(e) => write!(f, "bad serve snapshot: {e}"),
            ServeError::SequenceExhausted => {
                write!(f, "request sequence number {} has no successor", u64::MAX)
            }
            ServeError::InstanceMismatch { snapshot_n, snapshot_k, n, k } => write!(
                f,
                "snapshot is for n={snapshot_n} k={snapshot_k}, \
                 but the engine was built with n={n} k={k}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServeConfigError> for ServeError {
    fn from(e: ServeConfigError) -> Self {
        ServeError::Config(e)
    }
}

impl From<ChaosConfigError> for ServeError {
    fn from(e: ChaosConfigError) -> Self {
        ServeError::Chaos(e)
    }
}

impl From<crate::adversary::AdversaryConfigError> for ServeError {
    fn from(e: crate::adversary::AdversaryConfigError) -> Self {
        ServeError::Adversary(e)
    }
}

/// Final report of a service run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// The request ledger at shutdown.
    pub ledger: ServeLedger,
    /// Ticks processed.
    pub ticks: u64,
    /// Service time at shutdown, seconds.
    pub now_s: f64,
    /// Requests still queued at shutdown.
    pub queue_depth: usize,
    /// Requests queued or touring at shutdown.
    pub in_flight: usize,
    /// Whether `admitted = charged + shed + in-flight` held at shutdown.
    pub ledger_reconciles: bool,
    /// Admission-to-dispatch latency percentiles.
    pub dispatch_latency: crate::metrics::LatencySummary,
    /// Admission-to-charged latency percentiles.
    pub charged_latency: crate::metrics::LatencySummary,
    /// Queue depth high-water mark.
    pub max_queue_depth: usize,
    /// In-flight high-water mark.
    pub max_in_flight: usize,
    /// Planning-watchdog aborts.
    pub watchdog_trips: u64,
    /// Full planner runs.
    pub full_replans: u64,
    /// Full re-plans skipped because the unstarted set exceeded
    /// `replan_max_stops`.
    pub replans_skipped: u64,
    /// Cheapest-insertion splices.
    pub incremental_inserts: u64,
    /// Batches served by a degraded fallback planner.
    pub planner_fallbacks: u64,
    /// Retried WAL group commits (transient faults absorbed).
    pub io_retries: u64,
    /// Durability-degraded mode entries.
    pub degraded_entries: u64,
    /// Durability-degraded mode exits (probe re-arms).
    pub degraded_exits: u64,
    /// Ticks spent degraded.
    pub degraded_ticks: u64,
    /// Periodic snapshots that failed (counted, non-fatal — the WAL
    /// remains the durability record).
    pub snapshot_failures: u64,
    /// WAL compactions after successful snapshots.
    pub compactions: u64,
    /// Compactions that failed (old log intact, retried next snapshot).
    pub compaction_failures: u64,
    /// WAL bytes reclaimed by compaction.
    pub wal_bytes_reclaimed: u64,
    /// Total faults injected by the chaos layer (0 when inert).
    pub chaos_injections: u64,
    /// Ingress-guard decision counters (all zero when the guard is
    /// inert).
    pub guard: GuardCounters,
    /// Sensors still quarantined at shutdown.
    pub quarantined_now: usize,
    /// Mid-stream ingress read failures (connection dropped, counted
    /// and traced).
    pub ingress_read_errors: u64,
    /// Ingress lines past the byte bound, discarded unmaterialized.
    pub ingress_oversize: u64,
    /// Connections refused at the acceptor's connection cap.
    pub connections_refused: u64,
}

impl ServeReport {
    /// Accepted requests unaccounted for — **must** be zero; anything
    /// else is silent loss.
    pub fn silent_loss(&self) -> i64 {
        self.ledger.admitted as i64
            - self.ledger.charged as i64
            - self.ledger.shed as i64
            - self.in_flight as i64
    }

    /// The report as JSON (the CLI's `--json` and the soak archive).
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "ticks": self.ticks,
            "service_time_s": self.now_s,
            "admitted": self.ledger.admitted,
            "charged": self.ledger.charged,
            "shed": self.ledger.shed,
            "duplicates": self.ledger.duplicates,
            "invalid": self.ledger.invalid,
            "escalated": self.ledger.escalated,
            "deferrals": self.ledger.deferrals,
            "refused_degraded": self.ledger.refused_degraded,
            "rejected": self.ledger.rejected,
            "refused_quarantined": self.ledger.refused_quarantined,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "ledger_reconciles": self.ledger_reconciles,
            "silent_loss": self.silent_loss(),
            "max_queue_depth": self.max_queue_depth,
            "max_in_flight": self.max_in_flight,
            "watchdog_trips": self.watchdog_trips,
            "full_replans": self.full_replans,
            "replans_skipped": self.replans_skipped,
            "incremental_inserts": self.incremental_inserts,
            "planner_fallbacks": self.planner_fallbacks,
            "io_retries": self.io_retries,
            "degraded_entries": self.degraded_entries,
            "degraded_exits": self.degraded_exits,
            "degraded_ticks": self.degraded_ticks,
            "snapshot_failures": self.snapshot_failures,
            "compactions": self.compactions,
            "compaction_failures": self.compaction_failures,
            "wal_bytes_reclaimed": self.wal_bytes_reclaimed,
            "chaos_injections": self.chaos_injections,
            "rejected_rate_limited": self.guard.rejected_rate_limited,
            "rejected_replayed": self.guard.rejected_replayed,
            "rejected_implausible": self.guard.rejected_implausible,
            "quarantines": self.guard.quarantines,
            "paroles": self.guard.paroles,
            "requarantines": self.guard.requarantines,
            "quarantine_cleared": self.guard.cleared,
            "quarantined_now": self.quarantined_now,
            "ingress_read_errors": self.ingress_read_errors,
            "ingress_oversize": self.ingress_oversize,
            "connections_refused": self.connections_refused,
            "dispatch_latency": self.dispatch_latency.to_json(),
            "charged_latency": self.charged_latency.to_json(),
        })
    }
}

/// The serve engine. See the [crate docs](crate).
pub struct ServeEngine {
    cfg: ServeConfig,
    net: Network,
    primary: Arc<PlannerFactory>,
    now_s: f64,
    ticks: u64,
    queue: IngressQueue,
    tours: LiveTours,
    /// `pending[i]`: sensor `i` has an accepted request queued or
    /// touring (the dedup set).
    pending: Vec<bool>,
    ledger: ServeLedger,
    metrics: ServeMetrics,
    trace: Trace,
    wal: Option<Wal>,
    snapshot_path: Option<PathBuf>,
    /// Next WAL sequence when no WAL is attached (kept in lock-step
    /// with the WAL's counter otherwise).
    next_seq: u64,
    /// Suppresses WAL appends while replaying the log on resume.
    replaying: bool,
    /// A torn final WAL line was dropped during the last resume.
    torn_tail: bool,
    /// The seeded failpoint registry (inert unless chaos is attached).
    failpoints: Failpoints,
    /// The ingress guard (inert unless `cfg.guard` arms a defense).
    guard: Guard,
    /// Durability-degraded: the WAL cannot be made durable, so new
    /// admissions are refused while accepted work keeps dispatching.
    degraded: bool,
}

impl ServeEngine {
    /// A fresh service over `net` with `primary` as the full-replan
    /// planner.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an invalid configuration.
    pub fn new(
        net: Network,
        cfg: ServeConfig,
        primary: Arc<PlannerFactory>,
    ) -> Result<Self, ServeError> {
        cfg.validate()?;
        let n = net.sensors().len();
        let tours = LiveTours::new(cfg.k, net.depot(), cfg.params);
        Ok(ServeEngine {
            cfg,
            net,
            primary,
            now_s: 0.0,
            ticks: 0,
            queue: IngressQueue::new(cfg.queue_capacity),
            tours,
            pending: vec![false; n],
            ledger: ServeLedger::default(),
            metrics: ServeMetrics::default(),
            trace: Trace::with_capacity_limit(TRACE_CAPACITY),
            wal: None,
            snapshot_path: None,
            next_seq: 1,
            replaying: false,
            torn_tail: false,
            failpoints: Failpoints::inert(),
            guard: Guard::new(cfg.guard),
            degraded: false,
        })
    }

    /// Attaches a fresh (truncated) write-ahead log.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the log cannot be created.
    pub fn with_wal(mut self, path: &Path) -> Result<Self, ServeError> {
        let wal = Wal::create(path).map_err(|e| ServeError::Io(e.to_string()))?;
        self.next_seq = wal.next_seq();
        self.wal = Some(wal);
        Ok(self)
    }

    /// Sets the snapshot file the engine checkpoints to.
    pub fn with_snapshot(mut self, path: &Path) -> Self {
        self.snapshot_path = Some(path.to_path_buf());
        self
    }

    /// Attaches a seeded chaos (fault-injection) schedule. An inert
    /// configuration (all probabilities zero, no ENOSPC window) leaves
    /// the engine bit-identical to one without chaos and draws zero
    /// RNG values.
    ///
    /// # Errors
    ///
    /// [`ServeError::Chaos`] for an invalid configuration.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Result<Self, ServeError> {
        chaos.validate()?;
        self.failpoints = Failpoints::new(chaos);
        Ok(self)
    }

    /// The chaos layer's injection counters.
    pub fn chaos_counters(&self) -> &ChaosCounters {
        self.failpoints.counters()
    }

    /// Sensors currently quarantined by the ingress guard.
    pub fn quarantined_now(&self) -> usize {
        self.guard.quarantined_now()
    }

    /// Counts a mid-stream ingress read failure and traces the
    /// disconnect (satellite of the "nothing silently dropped" rule).
    pub(crate) fn note_ingress_read_error(&mut self) {
        self.metrics.ingress_read_errors += 1;
        self.trace.push(TraceEvent::IngressDisconnected { at_s: self.now_s });
    }

    /// Counts an oversize ingress line (discarded at the reader).
    pub(crate) fn note_ingress_oversize(&mut self) {
        self.metrics.ingress_oversize += 1;
    }

    /// Counts a connection refused at the acceptor's cap.
    pub(crate) fn note_connection_refused(&mut self) {
        self.metrics.connections_refused += 1;
    }

    /// Whether the engine is currently durability-degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Entries accepted but not yet durable (the pending group-commit
    /// batch). A crash right now loses exactly these — the at-most-one-
    /// batch exposure window of group commit.
    pub fn wal_pending(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::pending)
    }

    /// Durable WAL size in bytes (compaction keeps this bounded by the
    /// snapshot interval).
    pub fn wal_committed_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::committed_len)
    }

    /// The failpoint registry, for ingress-side evaluation by the
    /// daemon and the drill harness.
    pub(crate) fn failpoints_mut(&mut self) -> &mut Failpoints {
        &mut self.failpoints
    }

    /// Current service time, seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Sensors in the served network.
    pub fn sensor_count(&self) -> usize {
        self.net.sensors().len()
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Ticks processed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The request ledger.
    pub fn ledger(&self) -> &ServeLedger {
        &self.ledger
    }

    /// The accumulated metrics.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The event trace (sheds, escalations, watchdog trips).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current ingress queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Accepted requests not yet charged or shed (queued + touring).
    pub fn in_flight(&self) -> usize {
        self.queue.len() + self.tours.pending()
    }

    /// Whether a torn WAL tail was dropped during the last resume.
    pub fn recovered_torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// Checks the conservation identity
    /// `admitted = charged + shed + in-flight`.
    pub fn ledger_reconciles(&self) -> bool {
        self.ledger.admitted
            == self.ledger.charged + self.ledger.shed + self.in_flight() as u64
    }

    /// Sheds an accepted request: ledgered and traced, never silent.
    fn shed(&mut self, victim: QueuedRequest) {
        self.ledger.shed += 1;
        self.pending[victim.sensor as usize] = false;
        self.trace.push(TraceEvent::RequestShed {
            at_s: self.now_s,
            sensor: SensorId(victim.sensor),
            deferrals: victim.deferrals,
        });
    }

    /// Accepts a request: WAL append first (unless replaying), then
    /// ledger + queue. `at_s` is the acceptance time (historical during
    /// replay); `seq_hint` carries the original sequence on replay.
    fn accept(
        &mut self,
        seq_hint: Option<u64>,
        at_s: f64,
        sensor: u32,
        deficit_j: f64,
    ) -> Result<Admission, ServeError> {
        let seq = match (&mut self.wal, self.replaying) {
            (Some(wal), false) => {
                // Appends only buffer (group commit makes them durable
                // at the tick boundary), so acceptance cannot fail on
                // I/O here.
                let next = seq_after(wal.next_seq())?;
                let seq = wal.append(at_s, sensor, deficit_j);
                self.next_seq = next;
                seq
            }
            _ => {
                let seq = seq_hint.unwrap_or(self.next_seq);
                self.next_seq = self.next_seq.max(seq_after(seq)?);
                seq
            }
        };
        self.ledger.admitted += 1;
        self.pending[sensor as usize] = true;
        let s = &self.net.sensors()[sensor as usize];
        let lifetime_s = s.lifetime_for_residual((s.capacity_j - deficit_j).max(0.0));
        let req = QueuedRequest {
            seq,
            sensor,
            deficit_j,
            admitted_at_s: at_s,
            deferrals: 0,
            lifetime_s,
        };
        Ok(match self.queue.offer(req) {
            Offer::Enqueued => Admission::Accepted { seq },
            Offer::Displaced(victim) => {
                self.shed(victim);
                Admission::Accepted { seq }
            }
            Offer::RejectedSaturated(me) => {
                self.shed(me);
                Admission::ShedOnArrival { seq }
            }
        })
    }

    /// Submits one charging request.
    ///
    /// Unknown sensors and duplicates (a request already in flight for
    /// the sensor) are refused and counted without acceptance. An
    /// absent `deficit_j` defaults to the configured fraction of the
    /// sensor's capacity; a reported one is clamped to capacity.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the WAL append fails — the request is NOT
    /// accepted in that case (durability before acknowledgement).
    pub fn submit(
        &mut self,
        sensor: u32,
        deficit_j: Option<f64>,
    ) -> Result<Admission, ServeError> {
        if self.degraded && !self.replaying {
            // Durability lost: never acknowledge work we could lose.
            self.ledger.refused_degraded += 1;
            return Ok(Admission::RefusedDegraded);
        }
        let Some(s) = self.net.sensors().get(sensor as usize) else {
            self.ledger.invalid += 1;
            return Ok(Admission::Invalid);
        };
        let (consumption_w, capacity_j) = (s.consumption_w, s.capacity_j);
        // The guard runs before the duplicate check so a replay flood
        // aimed at a pending sensor strikes the flooder instead of
        // collapsing into cheap duplicates.
        if self.guard.is_active() && !self.replaying {
            let d =
                self.guard.check(sensor, deficit_j, consumption_w, capacity_j, self.now_s);
            if d.paroled {
                self.trace.push(TraceEvent::SensorParoled {
                    at_s: self.now_s,
                    sensor: SensorId(sensor),
                });
            }
            if let Some(until_s) = d.quarantined_until_s {
                self.trace.push(TraceEvent::SensorQuarantined {
                    at_s: self.now_s,
                    sensor: SensorId(sensor),
                    until_s,
                });
            }
            match d.verdict {
                GuardVerdict::Admit => {}
                GuardVerdict::Reject(reason) => {
                    self.ledger.rejected += 1;
                    self.trace.push(TraceEvent::RequestRejected {
                        at_s: self.now_s,
                        sensor: SensorId(sensor),
                        reason,
                    });
                    return Ok(Admission::Rejected { reason });
                }
                GuardVerdict::Quarantined => {
                    self.ledger.refused_quarantined += 1;
                    return Ok(Admission::RefusedQuarantined);
                }
            }
        }
        if self.pending[sensor as usize] {
            self.ledger.duplicates += 1;
            return Ok(Admission::Duplicate);
        }
        let deficit = deficit_j
            .unwrap_or(self.cfg.default_deficit_fraction * capacity_j)
            .min(capacity_j);
        self.accept(None, self.now_s, sensor, deficit)
    }

    /// [`ServeEngine::submit`] with the deficit given as a fraction of
    /// the sensor's capacity (what the soak generator draws).
    ///
    /// # Errors
    ///
    /// Same as [`ServeEngine::submit`].
    pub fn submit_fraction(
        &mut self,
        sensor: u32,
        fraction: f64,
    ) -> Result<Admission, ServeError> {
        let deficit = self
            .net
            .sensors()
            .get(sensor as usize)
            .map(|s| (fraction * s.capacity_j).clamp(0.0, s.capacity_j));
        self.submit(sensor, deficit)
    }

    /// Advances the service by one tick: completes due stops, drains
    /// and admits a most-critical-first batch, re-plans on drift, and
    /// group-commits the WAL.
    ///
    /// A failed group commit is retried with bounded exponential
    /// backoff; if the failure persists the engine enters degraded mode
    /// (refusing new admissions, dispatching accepted work) and probes
    /// for re-arm every tick — `tick` itself stays `Ok` through all of
    /// it, because a storage fault must degrade the service, not stop
    /// the scheduler.
    ///
    /// # Errors
    ///
    /// Reserved for unrecoverable faults; storage failures degrade
    /// instead of erroring.
    pub fn tick(&mut self) -> Result<(), ServeError> {
        self.now_s += self.cfg.tick_s;
        self.ticks += 1;
        self.metrics.ticks = self.ticks;
        self.failpoints.note_tick(self.ticks);

        for done in self.tours.complete_due(self.now_s) {
            self.ledger.charged += 1;
            self.pending[done.sensor as usize] = false;
            self.metrics.record_charged(done.finish_s - done.admitted_at_s);
            // A completed charge (re)anchors the guard's plausibility
            // dead reckoning: the sensor is known full right now.
            self.guard.note_charged(done.sensor, self.now_s);
        }

        let batch = self.queue.drain_batch(self.cfg.max_batch);
        if !batch.is_empty() {
            let p = self.cfg.params;
            let depot = self.net.depot();
            let bound_s = self.cfg.admission_bound_s;
            // Only a set bound reads the estimate, so only then is it
            // seeded with the unstarted workload and fed the batch.
            let mut est = (bound_s > 0.0).then(|| {
                let mut est = AdmissionEstimator::new(self.cfg.k, p.gamma_m, p.speed_mps);
                for stop in self.tours.chargers().iter().flatten().filter(|s| !s.started) {
                    est.admit(depot.dist(stop.pos), stop.duration_s);
                }
                est
            });
            for mut req in batch {
                let duration_s = req.deficit_j / p.eta_w;
                let pos = self.net.sensors()[req.sensor as usize].pos;
                let depot_dist = depot.dist(pos);
                let over = est
                    .as_ref()
                    .is_some_and(|e| e.bound_with(depot_dist, duration_s) > bound_s);
                if over && req.deferrals < self.cfg.max_deferrals {
                    req.deferrals += 1;
                    self.ledger.deferrals += 1;
                    match self.queue.offer(req) {
                        Offer::Enqueued => {}
                        Offer::Displaced(victim) => self.shed(victim),
                        Offer::RejectedSaturated(me) => self.shed(me),
                    }
                    continue;
                }
                if over {
                    self.ledger.escalated += 1;
                    self.trace.push(TraceEvent::RequestEscalated {
                        at_s: self.now_s,
                        sensor: SensorId(req.sensor),
                        deferrals: req.deferrals,
                    });
                }
                if let Some(est) = est.as_mut() {
                    est.admit(depot_dist, duration_s);
                }
                let stop = PendingStop {
                    seq: req.seq,
                    sensor: req.sensor,
                    pos,
                    duration_s,
                    admitted_at_s: req.admitted_at_s,
                    lifetime_s: req.lifetime_s,
                };
                self.tours.insert_cheapest(stop, self.now_s);
                self.metrics.incremental_inserts += 1;
                self.metrics.record_dispatch(self.now_s - req.admitted_at_s);
            }
        }

        if self.tours.edits_since_replan() >= self.cfg.drift_threshold {
            self.full_replan();
        }

        self.metrics.note_depth(self.queue.len(), self.in_flight());
        if self.degraded {
            self.metrics.degraded_ticks += 1;
            self.try_rearm();
        } else if self.sync_wal_with_retry().is_err() {
            self.enter_degraded();
        }
        if !self.degraded
            && self.cfg.snapshot_every_ticks > 0
            && self.ticks.is_multiple_of(self.cfg.snapshot_every_ticks)
            && self.checkpoint_now().is_err()
        {
            // Snapshot failure is non-fatal: the WAL stays the
            // durability record and the next cadence retries.
            self.metrics.snapshot_failures += 1;
        }
        self.metrics.chaos_injections = self.failpoints.counters().total();
        Ok(())
    }

    /// Group-commits the WAL with bounded exponential-backoff retries.
    ///
    /// # Errors
    ///
    /// The final failure once `io_retry_limit` retries are exhausted.
    fn sync_wal_with_retry(&mut self) -> Result<(), ServeError> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        let mut attempt = 0u32;
        loop {
            match wal.sync_with(&mut self.failpoints) {
                Ok(()) => return Ok(()),
                Err(e) if attempt >= self.cfg.io_retry_limit => {
                    return Err(ServeError::Io(e.to_string()));
                }
                Err(_) => {
                    attempt += 1;
                    self.metrics.io_retries += 1;
                    let backoff = self
                        .cfg
                        .io_retry_backoff_ms
                        .saturating_mul(1 << (attempt - 1).min(6));
                    if backoff > 0 {
                        std::thread::sleep(Duration::from_millis(backoff));
                    }
                }
            }
        }
    }

    /// Declares durability lost: traced, counted, and from now on new
    /// submissions are refused until a probe write succeeds. Accepted
    /// work keeps dispatching — the chargers don't need the disk.
    fn enter_degraded(&mut self) {
        if self.degraded {
            return;
        }
        self.degraded = true;
        self.metrics.degraded_entries += 1;
        self.trace.push(TraceEvent::DurabilityLost { at_s: self.now_s, tick: self.ticks });
    }

    /// Probes the WAL for a successful write+fsync round trip; on
    /// success flushes the stranded batch and re-arms admissions.
    fn try_rearm(&mut self) {
        let probe_ok = match self.wal.as_mut() {
            Some(wal) => wal.probe(&mut self.failpoints).is_ok(),
            None => true,
        };
        if !probe_ok || self.sync_wal_with_retry().is_err() {
            return;
        }
        self.degraded = false;
        self.metrics.degraded_exits += 1;
        self.trace
            .push(TraceEvent::DurabilityRestored { at_s: self.now_s, tick: self.ticks });
    }

    /// Rebuilds the unstarted tours with a watchdogged full planner
    /// run. Infallible by construction: every failure mode degrades
    /// (fallback planners, or keeping the incremental tours).
    fn full_replan(&mut self) {
        let unstarted_count =
            self.tours.chargers().iter().flatten().filter(|s| !s.started).count();
        if unstarted_count == 0 {
            self.tours.note_replanned();
            return;
        }
        if unstarted_count > self.cfg.replan_max_stops {
            // Feeding the planner a problem it cannot finish in budget
            // would trip the watchdog every time; stay incremental.
            self.metrics.replans_skipped += 1;
            self.tours.note_replanned();
            return;
        }
        let unstarted = self.tours.take_unstarted();
        let targets: Vec<ChargingTarget> = unstarted
            .iter()
            .map(|s| ChargingTarget {
                id: SensorId(s.sensor),
                pos: s.pos,
                charge_duration_s: s.duration_s,
                residual_lifetime_s: s.lifetime_s,
            })
            .collect();
        let problem = match ChargingProblem::new(
            self.net.depot(),
            targets,
            self.cfg.k,
            self.cfg.params,
        ) {
            Ok(p) => p,
            Err(_) => {
                // Cannot even pose the problem: keep the stops where
                // cheapest insertion can reach them.
                for s in unstarted {
                    self.reinsert(s);
                }
                self.metrics.replans_skipped += 1;
                self.tours.note_replanned();
                return;
            }
        };
        let budget = Duration::from_secs_f64(self.cfg.plan_budget_s);
        let plan = plan_guarded(&problem, &self.primary, budget);
        self.metrics.full_replans += 1;
        if plan.tripped.is_some() {
            self.metrics.watchdog_trips += 1;
            self.trace.push(TraceEvent::WatchdogTripped {
                at_s: self.now_s,
                batch: unstarted.len(),
            });
        }
        if plan.source != PlanSource::Primary {
            self.metrics.planner_fallbacks += 1;
        }
        // Rebuild: walk each planned tour in visiting order and give
        // every request its own stop on the sojourn's charger (the
        // batch planner's multi-node sharing keeps the *grouping* and
        // *order*; the live tours charge each request individually).
        let mut assigned = vec![false; unstarted.len()];
        for (c, tour) in plan.schedule.tours.iter().enumerate() {
            for sojourn in &tour.sojourns {
                for &u in problem.coverage(sojourn.target) {
                    let u = u as usize;
                    if !assigned[u] {
                        assigned[u] = true;
                        self.reappend(c, &unstarted[u]);
                    }
                }
            }
        }
        for (u, stop) in unstarted.iter().enumerate() {
            if !assigned[u] {
                self.reappend(0, stop);
            }
        }
        self.tours.note_replanned();
    }

    fn reappend(&mut self, c: usize, s: &LiveStop) {
        self.tours.append_to(
            c.min(self.cfg.k - 1),
            PendingStop {
                seq: s.seq,
                sensor: s.sensor,
                pos: s.pos,
                duration_s: s.duration_s,
                admitted_at_s: s.admitted_at_s,
                lifetime_s: s.lifetime_s,
            },
            self.now_s,
        );
    }

    fn reinsert(&mut self, s: LiveStop) {
        self.reappend(0, &s);
    }

    /// Writes a snapshot now (no-op without a configured path), then
    /// compacts the WAL: every logged entry is covered by the snapshot
    /// just written, so the log atomically truncates to empty and disk
    /// use stays bounded by snapshot interval instead of uptime. A
    /// failed compaction is counted and non-fatal (the old log remains
    /// a valid, if redundant, durability record).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the WAL sync or the atomic snapshot write
    /// fails (compaction failures never propagate).
    pub fn checkpoint_now(&mut self) -> Result<(), ServeError> {
        // The snapshot must not be newer than the log it pairs with.
        self.sync_wal_with_retry()?;
        let Some(path) = self.snapshot_path.clone() else {
            return Ok(());
        };
        let body = self.snapshot_bytes();
        wrsn_sim::persist::write_atomic_with(&path, &body, &mut self.failpoints.snapshot_hooks())
            .map_err(|e| ServeError::Io(e.to_string()))?;
        if let Some(wal) = self.wal.as_mut() {
            if wal.pending() == 0 {
                match wal.compact(&mut self.failpoints) {
                    Ok(bytes) => {
                        self.metrics.compactions += 1;
                        self.metrics.wal_bytes_reclaimed += bytes;
                    }
                    Err(_) => self.metrics.compaction_failures += 1,
                }
            }
        }
        Ok(())
    }

    /// Final sync, final snapshot, and the run's report.
    ///
    /// Storage faults here degrade exactly as they do in [`ServeEngine::tick`]:
    /// a persistently failing final sync enters degraded mode (traced
    /// and counted — the pending batch stays in the WAL's documented
    /// at-most-one-batch exposure window) and a failing final snapshot
    /// is counted; neither aborts the shutdown, because the report and
    /// the durable log the service already has are worth more than an
    /// error the operator can't act on.
    ///
    /// # Errors
    ///
    /// Reserved for unrecoverable faults; storage failures degrade
    /// instead of erroring.
    pub fn shutdown(mut self) -> Result<ServeReport, ServeError> {
        if self.sync_wal_with_retry().is_err() {
            self.enter_degraded();
        }
        // Degraded means the WAL sync inside the checkpoint would fail
        // and the snapshot would run ahead of the log; skip it.
        if !self.degraded && self.checkpoint_now().is_err() {
            self.metrics.snapshot_failures += 1;
        }
        Ok(self.report())
    }

    /// The run's report at this instant (shutdown builds exactly this).
    pub fn report(&self) -> ServeReport {
        ServeReport {
            ledger: self.ledger,
            ticks: self.ticks,
            now_s: self.now_s,
            queue_depth: self.queue.len(),
            in_flight: self.in_flight(),
            ledger_reconciles: self.ledger_reconciles(),
            dispatch_latency: self.metrics.dispatch_latency(),
            charged_latency: self.metrics.charged_latency(),
            max_queue_depth: self.metrics.max_queue_depth,
            max_in_flight: self.metrics.max_in_flight,
            watchdog_trips: self.metrics.watchdog_trips,
            full_replans: self.metrics.full_replans,
            replans_skipped: self.metrics.replans_skipped,
            incremental_inserts: self.metrics.incremental_inserts,
            planner_fallbacks: self.metrics.planner_fallbacks,
            io_retries: self.metrics.io_retries,
            degraded_entries: self.metrics.degraded_entries,
            degraded_exits: self.metrics.degraded_exits,
            degraded_ticks: self.metrics.degraded_ticks,
            snapshot_failures: self.metrics.snapshot_failures,
            compactions: self.metrics.compactions,
            compaction_failures: self.metrics.compaction_failures,
            wal_bytes_reclaimed: self.metrics.wal_bytes_reclaimed,
            chaos_injections: self.failpoints.counters().total(),
            guard: *self.guard.counters(),
            quarantined_now: self.guard.quarantined_now(),
            ingress_read_errors: self.metrics.ingress_read_errors,
            ingress_oversize: self.metrics.ingress_oversize,
            connections_refused: self.metrics.connections_refused,
        }
    }

    // ----- snapshot codec -----------------------------------------------

    /// The snapshot (format v1), encoded straight to bytes: a compact
    /// JSON object with every `f64` as its `to_bits()` integer, keys in
    /// a fixed order. The `guard` section is present only when a
    /// defense is armed: inert snapshots stay byte-for-byte what they
    /// were before the guard existed, and restore treats an absent
    /// section as a fresh guard (tolerant-absent, like
    /// `refused_degraded`). The tests hold these bytes equal to the
    /// `serde_json` printing of the same state as a `Value`.
    fn snapshot_bytes(&self) -> Vec<u8> {
        let guard_rows =
            if self.guard.is_active() { self.guard.snapshot_rows() } else { Vec::new() };
        // Rows are mostly 19–20-digit integers; reserve about enough.
        let mut out = Vec::with_capacity(
            1024 + 80 * self.queue.len()
                + 128 * self.tours.pending()
                + 64 * self.cfg.k
                + 224 * guard_rows.len(),
        );
        let (l, m) = (&self.ledger, &self.metrics);
        out.push(b'{');
        push_fields(
            &mut out,
            &[
                ("version", FORMAT_VERSION),
                ("n", self.net.sensors().len() as u64),
                ("k", self.cfg.k as u64),
                ("now_bits", self.now_s.to_bits()),
                ("ticks", self.ticks),
                ("next_seq", self.next_seq),
            ],
        );
        out.extend_from_slice(b",\"ledger\":{");
        push_fields(
            &mut out,
            &[
                ("admitted", l.admitted),
                ("charged", l.charged),
                ("shed", l.shed),
                ("duplicates", l.duplicates),
                ("invalid", l.invalid),
                ("escalated", l.escalated),
                ("deferrals", l.deferrals),
                ("refused_degraded", l.refused_degraded),
                ("rejected", l.rejected),
                ("refused_quarantined", l.refused_quarantined),
            ],
        );
        out.extend_from_slice(b"},\"counters\":{");
        // Compaction counters are process-life observability,
        // deliberately absent: a compaction strictly follows the
        // snapshot write it pairs with, so by causality no snapshot can
        // ever contain its own compaction's count.
        push_fields(
            &mut out,
            &[
                ("max_queue_depth", m.max_queue_depth as u64),
                ("max_in_flight", m.max_in_flight as u64),
                ("watchdog_trips", m.watchdog_trips),
                ("full_replans", m.full_replans),
                ("replans_skipped", m.replans_skipped),
                ("incremental_inserts", m.incremental_inserts),
                ("planner_fallbacks", m.planner_fallbacks),
                ("io_retries", m.io_retries),
                ("degraded_entries", m.degraded_entries),
                ("degraded_exits", m.degraded_exits),
                ("degraded_ticks", m.degraded_ticks),
                ("snapshot_failures", m.snapshot_failures),
            ],
        );
        out.extend_from_slice(b"},\"queue\":");
        push_list(&mut out, self.queue.iter(), |out, r| {
            let row = [
                r.seq,
                u64::from(r.sensor),
                r.deficit_j.to_bits(),
                r.admitted_at_s.to_bits(),
                u64::from(r.deferrals),
                r.lifetime_s.to_bits(),
            ];
            push_row(out, &row, b"]");
        });
        out.extend_from_slice(b",\"tours\":");
        push_list(&mut out, self.tours.chargers(), |out, stops| {
            push_list(out, stops, |out, s| {
                let row = [
                    s.seq,
                    u64::from(s.sensor),
                    s.duration_s.to_bits(),
                    s.admitted_at_s.to_bits(),
                    s.lifetime_s.to_bits(),
                    s.start_s.to_bits(),
                    s.finish_s.to_bits(),
                ];
                push_row(out, &row, if s.started { b",true]" } else { b",false]" });
            });
        });
        out.extend_from_slice(b",\"anchors\":");
        push_list(&mut out, self.tours.anchors(), |out, &(pos, free)| {
            push_row(out, &[pos.x.to_bits(), pos.y.to_bits(), free.to_bits()], b"]");
        });
        if self.guard.is_active() {
            out.extend_from_slice(b",\"guard\":{\"counters\":{");
            push_fields(&mut out, &self.guard.counter_pairs());
            out.extend_from_slice(b"},\"sensors\":");
            push_list(&mut out, &guard_rows, |out, row| push_row(out, row, b"]"));
            out.push(b'}');
        }
        out.push(b'}');
        out
    }

    fn restore_snapshot(&mut self, v: &Value) -> Result<(), ServeError> {
        let version = get_u64(v, "version")?;
        if version != FORMAT_VERSION {
            return Err(ServeError::Snapshot(format!(
                "unsupported serve snapshot version {version}"
            )));
        }
        let snapshot_n = get_u64(v, "n")? as usize;
        let snapshot_k = get_u64(v, "k")? as usize;
        let n = self.net.sensors().len();
        if snapshot_n != n || snapshot_k != self.cfg.k {
            return Err(ServeError::InstanceMismatch {
                snapshot_n,
                snapshot_k,
                n,
                k: self.cfg.k,
            });
        }
        self.now_s = f64::from_bits(get_u64(v, "now_bits")?);
        self.ticks = get_u64(v, "ticks")?;
        self.next_seq = get_u64(v, "next_seq")?;
        let ledger = field(v, "ledger")?;
        self.ledger = ServeLedger {
            admitted: get_u64(ledger, "admitted")?,
            charged: get_u64(ledger, "charged")?,
            shed: get_u64(ledger, "shed")?,
            duplicates: get_u64(ledger, "duplicates")?,
            invalid: get_u64(ledger, "invalid")?,
            escalated: get_u64(ledger, "escalated")?,
            deferrals: get_u64(ledger, "deferrals")?,
            // Absent in pre-chaos snapshots of the same format version.
            refused_degraded: get_u64_or(ledger, "refused_degraded", 0),
            // Absent in pre-guard snapshots, same tolerance.
            rejected: get_u64_or(ledger, "rejected", 0),
            refused_quarantined: get_u64_or(ledger, "refused_quarantined", 0),
        };
        let counters = field(v, "counters")?;
        self.metrics.ticks = self.ticks;
        self.metrics.max_queue_depth = get_u64(counters, "max_queue_depth")? as usize;
        self.metrics.max_in_flight = get_u64(counters, "max_in_flight")? as usize;
        self.metrics.watchdog_trips = get_u64(counters, "watchdog_trips")?;
        self.metrics.full_replans = get_u64(counters, "full_replans")?;
        self.metrics.replans_skipped = get_u64(counters, "replans_skipped")?;
        self.metrics.incremental_inserts = get_u64(counters, "incremental_inserts")?;
        self.metrics.planner_fallbacks = get_u64(counters, "planner_fallbacks")?;
        self.metrics.io_retries = get_u64_or(counters, "io_retries", 0);
        self.metrics.degraded_entries = get_u64_or(counters, "degraded_entries", 0);
        self.metrics.degraded_exits = get_u64_or(counters, "degraded_exits", 0);
        self.metrics.degraded_ticks = get_u64_or(counters, "degraded_ticks", 0);
        self.metrics.snapshot_failures = get_u64_or(counters, "snapshot_failures", 0);
        // Compaction counters restart per process life (see
        // `snapshot_value`); cross-life totals are the chaos drill's
        // job, which sums per-life deltas.
        self.metrics.compactions = 0;
        self.metrics.compaction_failures = 0;
        self.metrics.wal_bytes_reclaimed = 0;

        for row in arr(field(v, "queue")?, "queue")? {
            let row = arr(row, "queue entry")?;
            if row.len() != 6 {
                return Err(ServeError::Snapshot("queue entry arity".into()));
            }
            let sensor = elem_u32(&row[1], "queue sensor")?;
            if sensor as usize >= n {
                return Err(ServeError::Snapshot("queue sensor out of range".into()));
            }
            let req = QueuedRequest {
                seq: elem_u64(&row[0], "queue seq")?,
                sensor,
                deficit_j: elem_bits(&row[2], "queue deficit")?,
                admitted_at_s: elem_bits(&row[3], "queue admitted_at")?,
                deferrals: elem_u32(&row[4], "queue deferrals")?,
                lifetime_s: elem_bits(&row[5], "queue lifetime")?,
            };
            self.pending[sensor as usize] = true;
            if !matches!(self.queue.offer(req), Offer::Enqueued) {
                return Err(ServeError::Snapshot(
                    "snapshot queue exceeds configured capacity".into(),
                ));
            }
        }

        let tours = arr(field(v, "tours")?, "tours")?;
        if tours.len() != self.cfg.k {
            return Err(ServeError::Snapshot("tour count".into()));
        }
        for (c, tour) in tours.iter().enumerate() {
            for row in arr(tour, "tour")? {
                let row = arr(row, "tour stop")?;
                if row.len() != 8 {
                    return Err(ServeError::Snapshot("tour stop arity".into()));
                }
                let sensor = elem_u32(&row[1], "stop sensor")?;
                if sensor as usize >= n {
                    return Err(ServeError::Snapshot("stop sensor out of range".into()));
                }
                self.pending[sensor as usize] = true;
                self.tours.restore(
                    c,
                    LiveStop {
                        seq: elem_u64(&row[0], "stop seq")?,
                        sensor,
                        pos: self.net.sensors()[sensor as usize].pos,
                        duration_s: elem_bits(&row[2], "stop duration")?,
                        admitted_at_s: elem_bits(&row[3], "stop admitted_at")?,
                        lifetime_s: elem_bits(&row[4], "stop lifetime")?,
                        start_s: elem_bits(&row[5], "stop start")?,
                        finish_s: elem_bits(&row[6], "stop finish")?,
                        started: row[7]
                            .as_bool()
                            .ok_or_else(|| ServeError::Snapshot("stop started".into()))?,
                    },
                );
            }
        }

        let anchors = arr(field(v, "anchors")?, "anchors")?;
        if anchors.len() != self.cfg.k {
            return Err(ServeError::Snapshot("anchor count".into()));
        }
        for (c, row) in anchors.iter().enumerate() {
            let row = arr(row, "anchor")?;
            if row.len() != 3 {
                return Err(ServeError::Snapshot("anchor arity".into()));
            }
            self.tours.restore_anchor(
                c,
                wrsn_geom::Point::new(
                    elem_bits(&row[0], "anchor x")?,
                    elem_bits(&row[1], "anchor y")?,
                ),
                elem_bits(&row[2], "anchor free_at")?,
            );
        }

        // Absent in pre-guard snapshots (and in any snapshot written
        // with the guard inert): the guard restores as fresh.
        if let Some(g) = v.get("guard") {
            let counters = field(g, "counters")?;
            self.guard.restore_counters(|k| get_u64_or(counters, k, 0));
            for row in arr(field(g, "sensors")?, "guard sensors")? {
                let row = arr(row, "guard sensor row")?;
                let mut vals = Vec::with_capacity(row.len());
                for x in row {
                    vals.push(elem_u64(x, "guard sensor value")?);
                }
                self.guard
                    .restore_row(&vals)
                    .map_err(|e| ServeError::Snapshot(e.into()))?;
            }
        }
        Ok(())
    }

    /// Restores a service after a crash (or a graceful stop): loads the
    /// snapshot if one exists, replays the WAL tail on top of it, and
    /// reopens the WAL for appending. A torn final WAL line (crash
    /// mid-append) is dropped and flagged
    /// ([`ServeEngine::recovered_torn_tail`]); interior corruption is
    /// refused.
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] / [`ServeError::InstanceMismatch`] for
    /// an undecodable or foreign snapshot, [`ServeError::Io`] for WAL
    /// failures.
    pub fn resume(
        net: Network,
        cfg: ServeConfig,
        primary: Arc<PlannerFactory>,
        snapshot_path: &Path,
        wal_path: &Path,
    ) -> Result<Self, ServeError> {
        let mut engine = ServeEngine::new(net, cfg, primary)?;
        engine.snapshot_path = Some(snapshot_path.to_path_buf());
        let mut replay_floor = 0u64; // replay entries with seq >= floor
        match std::fs::read_to_string(snapshot_path) {
            Ok(body) => {
                let v = serde_json::from_str(&body)
                    .map_err(|e| ServeError::Snapshot(format!("{e:?}")))?;
                engine.restore_snapshot(&v)?;
                replay_floor = engine.next_seq;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(ServeError::Io(e.to_string())),
        }
        let (entries, torn) =
            Wal::replay(wal_path).map_err(|e| ServeError::Io(e.to_string()))?;
        engine.torn_tail = torn;
        engine.replaying = true;
        for entry in entries.iter().filter(|e| e.seq >= replay_floor) {
            if entry.sensor as usize >= engine.net.sensors().len() {
                engine.replaying = false;
                return Err(ServeError::Snapshot("WAL sensor out of range".into()));
            }
            if engine.pending[entry.sensor as usize] {
                // The sensor was already pending at snapshot time (its
                // post-snapshot completion was lost with the crash):
                // the replayed request collapses as a duplicate.
                engine.ledger.duplicates += 1;
                engine.next_seq = engine.next_seq.max(seq_after(entry.seq)?);
                continue;
            }
            engine.accept(Some(entry.seq), entry.at_s, entry.sensor, entry.deficit_j)?;
        }
        engine.replaying = false;
        if let Some(last) = entries.last() {
            engine.next_seq = engine.next_seq.max(seq_after(last.seq)?);
        }
        engine.wal = Some(
            Wal::open_append(wal_path, engine.next_seq)
                .map_err(|e| ServeError::Io(e.to_string()))?,
        );
        Ok(engine)
    }
}

/// The sequence number after `seq`, refused at the end of the space.
fn seq_after(seq: u64) -> Result<u64, ServeError> {
    seq.checked_add(1).ok_or(ServeError::SequenceExhausted)
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, ServeError> {
    v.get(key).ok_or_else(|| ServeError::Snapshot(format!("missing field {key:?}")))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, ServeError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| ServeError::Snapshot(format!("field {key:?} is not a u64")))
}

/// Tolerant read for counters added after format v1 shipped: absent
/// means the snapshot predates the counter, so it restores as `default`.
fn get_u64_or(v: &Value, key: &str, default: u64) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(default)
}

fn arr<'v>(v: &'v Value, what: &str) -> Result<&'v [Value], ServeError> {
    v.as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| ServeError::Snapshot(format!("{what} is not an array")))
}

fn elem_u64(v: &Value, what: &str) -> Result<u64, ServeError> {
    v.as_u64().ok_or_else(|| ServeError::Snapshot(format!("{what} is not a u64")))
}

/// A `u32` field: a wider value is refused, never truncated.
fn elem_u32(v: &Value, what: &str) -> Result<u32, ServeError> {
    u32::try_from(elem_u64(v, what)?)
        .map_err(|_| ServeError::Snapshot(format!("{what} is not a u32")))
}

fn elem_bits(v: &Value, what: &str) -> Result<f64, ServeError> {
    elem_u64(v, what).map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Number;
    use wrsn_core::GreedyTour;
    use wrsn_net::NetworkBuilder;

    fn factory() -> Arc<PlannerFactory> {
        Arc::new(|| Box::new(GreedyTour) as Box<dyn wrsn_core::Planner>)
    }

    fn num(x: u64) -> Value {
        Value::Number(Number::U(x))
    }

    fn bits(x: f64) -> Value {
        Value::Number(Number::U(x.to_bits()))
    }

    /// The reference encoder [`ServeEngine::snapshot_bytes`] is held to:
    /// the snapshot built as a `Value` tree, as format v1 was first
    /// written.
    impl ServeEngine {
        fn snapshot_value_base(&self) -> Value {
            let queue: Vec<Value> = self
                .queue
                .iter()
                .map(|r| {
                    Value::Array(vec![
                        num(r.seq),
                        num(u64::from(r.sensor)),
                        bits(r.deficit_j),
                        bits(r.admitted_at_s),
                        num(u64::from(r.deferrals)),
                        bits(r.lifetime_s),
                    ])
                })
                .collect();
            let mut tours: Vec<Vec<Value>> = vec![Vec::new(); self.cfg.k];
            for (c, stops) in self.tours.chargers().iter().enumerate() {
                for s in stops {
                    tours[c].push(Value::Array(vec![
                        num(s.seq),
                        num(u64::from(s.sensor)),
                        bits(s.duration_s),
                        bits(s.admitted_at_s),
                        bits(s.lifetime_s),
                        bits(s.start_s),
                        bits(s.finish_s),
                        Value::Bool(s.started),
                    ]));
                }
            }
            let anchors: Vec<Value> = self
                .tours
                .anchors()
                .iter()
                .map(|&(pos, free)| Value::Array(vec![bits(pos.x), bits(pos.y), bits(free)]))
                .collect();
            serde_json::json!({
                "version": FORMAT_VERSION,
                "n": self.net.sensors().len(),
                "k": self.cfg.k,
                "now_bits": self.now_s.to_bits(),
                "ticks": self.ticks,
                "next_seq": self.next_seq,
                "ledger": serde_json::json!({
                    "admitted": self.ledger.admitted,
                    "charged": self.ledger.charged,
                    "shed": self.ledger.shed,
                    "duplicates": self.ledger.duplicates,
                    "invalid": self.ledger.invalid,
                    "escalated": self.ledger.escalated,
                    "deferrals": self.ledger.deferrals,
                    "refused_degraded": self.ledger.refused_degraded,
                    "rejected": self.ledger.rejected,
                    "refused_quarantined": self.ledger.refused_quarantined,
                }),
                "counters": serde_json::json!({
                    "max_queue_depth": self.metrics.max_queue_depth,
                    "max_in_flight": self.metrics.max_in_flight,
                    "watchdog_trips": self.metrics.watchdog_trips,
                    "full_replans": self.metrics.full_replans,
                    "replans_skipped": self.metrics.replans_skipped,
                    "incremental_inserts": self.metrics.incremental_inserts,
                    "planner_fallbacks": self.metrics.planner_fallbacks,
                    "io_retries": self.metrics.io_retries,
                    "degraded_entries": self.metrics.degraded_entries,
                    "degraded_exits": self.metrics.degraded_exits,
                    "degraded_ticks": self.metrics.degraded_ticks,
                    "snapshot_failures": self.metrics.snapshot_failures,
                }),
                "queue": Value::Array(queue),
                "tours": Value::Array(tours.into_iter().map(Value::Array).collect()),
                "anchors": Value::Array(anchors),
            })
        }

        fn snapshot_value(&self) -> Value {
            let mut v = self.snapshot_value_base();
            if self.guard.is_active() {
                let mut counters = serde_json::Map::new();
                for &(k, x) in &self.guard.counter_pairs() {
                    counters.insert(k.to_string(), num(x));
                }
                let sensors: Vec<Value> = self
                    .guard
                    .snapshot_rows()
                    .iter()
                    .map(|row| Value::Array(row.iter().map(|&x| num(x)).collect()))
                    .collect();
                if let Value::Object(map) = &mut v {
                    map.insert(
                        "guard".into(),
                        serde_json::json!({
                            "counters": Value::Object(counters),
                            "sensors": Value::Array(sensors),
                        }),
                    );
                }
            }
            v
        }
    }


    fn engine(n: usize, cfg: ServeConfig) -> ServeEngine {
        let net = NetworkBuilder::new(n).seed(5).build();
        ServeEngine::new(net, cfg, factory()).unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wrsn_serve_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn config_validation_rejects_each_bad_field() {
        let ok = ServeConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        for (cfg, err) in [
            (ServeConfig { k: 0, ..ok }, ServeConfigError::NoChargers),
            (ServeConfig { tick_s: 0.0, ..ok }, ServeConfigError::BadTick),
            (ServeConfig { max_batch: 0, ..ok }, ServeConfigError::BadBatch),
            (ServeConfig { queue_capacity: 0, ..ok }, ServeConfigError::BadQueueCapacity),
            (ServeConfig { drift_threshold: 0, ..ok }, ServeConfigError::BadDriftThreshold),
            (
                ServeConfig { plan_budget_s: f64::NAN, ..ok },
                ServeConfigError::BadPlanBudget,
            ),
            (
                ServeConfig { default_deficit_fraction: 1.5, ..ok },
                ServeConfigError::BadDeficitFraction,
            ),
        ] {
            assert_eq!(cfg.validate(), Err(err));
        }
    }

    #[test]
    fn bad_charging_params_are_refused() {
        use wrsn_core::ChargingParams;
        let ok = ChargingParams::default();
        for (field, params) in [
            ("eta_w", ChargingParams { eta_w: 0.0, ..ok }),
            ("gamma_m", ChargingParams { gamma_m: f64::NAN, ..ok }),
            ("speed_mps", ChargingParams { speed_mps: f64::INFINITY, ..ok }),
            ("charge_target_fraction", ChargingParams { charge_target_fraction: 1.5, ..ok }),
        ] {
            let cfg = ServeConfig { params, ..ServeConfig::default() };
            assert_eq!(cfg.validate(), Err(ServeConfigError::BadChargingParams(field)));
            let net = NetworkBuilder::new(30).seed(5).build();
            assert!(matches!(
                ServeEngine::new(net, cfg, factory()),
                Err(ServeError::Config(ServeConfigError::BadChargingParams(f))) if f == field
            ));
        }
    }

    #[test]
    fn requests_flow_from_submission_to_charged() {
        let mut e = engine(30, ServeConfig { k: 1, ..ServeConfig::default() });
        // Small explicit deficits: 2 J at η = 2 W is a 1 s charge.
        assert!(matches!(e.submit(0, Some(2.0)), Ok(Admission::Accepted { seq: 1 })));
        assert!(matches!(e.submit(1, Some(4.0)), Ok(Admission::Accepted { seq: 2 })));
        assert!(matches!(e.submit(0, Some(2.0)), Ok(Admission::Duplicate)));
        assert!(matches!(e.submit(9_999, Some(2.0)), Ok(Admission::Invalid)));
        assert!(e.ledger_reconciles());
        // Field is 100 m² — both charges finish well within 600 s.
        for _ in 0..6_000 {
            e.tick().unwrap();
            if e.ledger().charged == 2 {
                break;
            }
        }
        assert_eq!(e.ledger().charged, 2);
        assert_eq!(e.ledger().duplicates, 1);
        assert_eq!(e.ledger().invalid, 1);
        assert_eq!(e.in_flight(), 0);
        assert!(e.ledger_reconciles());
        let report = e.report();
        assert_eq!(report.silent_loss(), 0);
        assert_eq!(report.dispatch_latency.count, 2);
        assert_eq!(report.charged_latency.count, 2);
        assert!(report.charged_latency.max_s > 0.0);
        // A charged sensor may request again: not a duplicate anymore.
        assert!(matches!(e.submit(0, Some(2.0)), Ok(Admission::Accepted { .. })));
    }

    #[test]
    fn saturation_sheds_are_ledgered_never_silent() {
        let cfg = ServeConfig { k: 1, queue_capacity: 2, ..ServeConfig::default() };
        let mut e = engine(30, cfg);
        // Five distinct sensors into a 2-slot queue, no ticks: three
        // must shed (displaced victims or rejected newcomers).
        for s in 0..5u32 {
            e.submit(s, Some(10.0 + f64::from(s))).unwrap();
        }
        assert_eq!(e.ledger().admitted, 5);
        assert_eq!(e.ledger().shed, 3);
        assert_eq!(e.queue_depth(), 2);
        assert!(e.ledger_reconciles());
        assert_eq!(
            e.trace().count(|ev| matches!(ev, TraceEvent::RequestShed { .. })),
            3,
            "every shed is traced"
        );
        // Shed sensors may immediately re-request (not duplicates).
        assert_eq!(e.ledger().duplicates, 0);
    }

    #[test]
    fn deferrals_escalate_within_the_starvation_bound() {
        let cfg = ServeConfig {
            k: 1,
            admission_bound_s: 1e-6, // everything is over-bound
            max_deferrals: 3,
            ..ServeConfig::default()
        };
        let mut e = engine(30, cfg);
        e.submit(0, Some(2.0)).unwrap();
        // Batch 1..=3: deferred. Batch 4: escalated and dispatched.
        for _ in 0..4 {
            e.tick().unwrap();
        }
        assert_eq!(e.ledger().deferrals, 3);
        assert_eq!(e.ledger().escalated, 1);
        assert_eq!(e.trace().count(|ev| matches!(ev, TraceEvent::RequestEscalated { .. })), 1);
        assert_eq!(e.queue_depth(), 0, "escalation dispatched it");
        assert!(e.ledger_reconciles());
    }

    #[test]
    fn drift_triggers_a_full_replan() {
        let cfg = ServeConfig { k: 2, drift_threshold: 3, ..ServeConfig::default() };
        let mut e = engine(30, cfg);
        for s in 0..6u32 {
            e.submit(s, Some(20.0)).unwrap();
        }
        e.tick().unwrap();
        assert!(e.metrics().full_replans >= 1, "6 inserts must cross drift 3");
        assert!(e.ledger_reconciles());
    }

    #[test]
    fn failing_primary_trips_watchdog_and_degrades() {
        struct Failing;
        impl wrsn_core::Planner for Failing {
            fn name(&self) -> &'static str {
                "fails"
            }
            fn plan(
                &self,
                _: &ChargingProblem,
            ) -> Result<wrsn_core::Schedule, wrsn_core::PlanError> {
                Err(wrsn_core::PlanError::Internal("deliberate"))
            }
        }
        let net = NetworkBuilder::new(30).seed(5).build();
        let cfg = ServeConfig { k: 2, drift_threshold: 2, ..ServeConfig::default() };
        let primary: Arc<PlannerFactory> =
            Arc::new(|| Box::new(Failing) as Box<dyn wrsn_core::Planner>);
        let mut e = ServeEngine::new(net, cfg, primary).unwrap();
        for s in 0..4u32 {
            e.submit(s, Some(20.0)).unwrap();
        }
        e.tick().unwrap();
        assert!(e.metrics().watchdog_trips >= 1);
        assert!(e.metrics().planner_fallbacks >= 1);
        assert!(e.trace().count(|ev| matches!(ev, TraceEvent::WatchdogTripped { .. })) >= 1);
        assert!(e.ledger_reconciles(), "degraded batches still balance");
    }

    #[test]
    fn kill_and_resume_conserves_every_accepted_request() {
        let dir = tmp_dir("resume");
        let wal_path = dir.join("requests.wal");
        let snap_path = dir.join("serve_checkpoint.json");
        let cfg = ServeConfig { k: 1, ..ServeConfig::default() };

        let net = NetworkBuilder::new(40).seed(9).build();
        let mut e = ServeEngine::new(net.clone(), cfg, factory())
            .unwrap()
            .with_wal(&wal_path)
            .unwrap()
            .with_snapshot(&snap_path);
        for s in 0..10u32 {
            e.submit(s, Some(2.0 * f64::from(s + 1))).unwrap();
        }
        for _ in 0..50 {
            e.tick().unwrap();
        }
        e.checkpoint_now().unwrap();
        // More accepted *after* the snapshot: only the WAL knows them.
        for s in 10..16u32 {
            e.submit(s, Some(4.0)).unwrap();
        }
        e.tick().unwrap(); // group-commits the tail
        let ledger_before = *e.ledger();
        let in_flight_before = e.in_flight();
        drop(e); // kill -9: no shutdown, no final snapshot

        let r = ServeEngine::resume(net, cfg, factory(), &snap_path, &wal_path).unwrap();
        assert!(!r.recovered_torn_tail());
        assert_eq!(r.ledger().admitted, ledger_before.admitted, "zero lost acceptances");
        assert_eq!(r.ledger().charged, ledger_before.charged);
        assert_eq!(r.ledger().shed, ledger_before.shed);
        assert_eq!(r.in_flight(), in_flight_before);
        assert!(r.ledger_reconciles());

        // The resumed service keeps working and numbering continues.
        let mut r = r;
        match r.submit(20, Some(2.0)).unwrap() {
            Admission::Accepted { seq } => assert!(seq > 16),
            other => panic!("expected acceptance, got {other:?}"),
        }
        for _ in 0..20 {
            r.tick().unwrap();
        }
        assert!(r.ledger_reconciles());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_a_foreign_snapshot() {
        let dir = tmp_dir("foreign");
        let wal_path = dir.join("requests.wal");
        let snap_path = dir.join("serve_checkpoint.json");
        let cfg = ServeConfig { k: 1, ..ServeConfig::default() };
        let net = NetworkBuilder::new(20).seed(3).build();
        let mut e = ServeEngine::new(net, cfg, factory())
            .unwrap()
            .with_wal(&wal_path)
            .unwrap()
            .with_snapshot(&snap_path);
        e.submit(0, Some(2.0)).unwrap();
        e.tick().unwrap();
        e.checkpoint_now().unwrap();
        // Different n: the snapshot must be refused, loudly.
        let other = NetworkBuilder::new(25).seed(3).build();
        match ServeEngine::resume(other, cfg, factory(), &snap_path, &wal_path) {
            Err(ServeError::InstanceMismatch { snapshot_n: 20, n: 25, .. }) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("foreign snapshot must be refused"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let dir = tmp_dir("roundtrip");
        let wal_path = dir.join("requests.wal");
        let snap_path = dir.join("serve_checkpoint.json");
        let cfg = ServeConfig { k: 2, ..ServeConfig::default() };
        let net = NetworkBuilder::new(30).seed(7).build();
        let mut e = ServeEngine::new(net.clone(), cfg, factory())
            .unwrap()
            .with_wal(&wal_path)
            .unwrap()
            .with_snapshot(&snap_path);
        for s in 0..8u32 {
            e.submit(s, Some(3.0 * f64::from(s + 1))).unwrap();
        }
        for _ in 0..30 {
            e.tick().unwrap();
        }
        e.checkpoint_now().unwrap();
        let before = e.snapshot_bytes();
        assert_eq!(std::fs::read(&snap_path).unwrap(), before);
        assert_eq!(before, serde_json::to_string(&e.snapshot_value()).as_bytes());
        drop(e);
        let mut r =
            ServeEngine::resume(net, cfg, factory(), &snap_path, &wal_path).unwrap();
        // Detach the reopened WAL's effect on the comparison: the
        // restored state itself must encode identically.
        assert_eq!(before, r.snapshot_bytes());
        assert!(r.ledger_reconciles());
        r.tick().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn guard_rejections_and_quarantine_are_ledgered_outside_the_identity() {
        let guard = crate::guard::GuardConfig {
            rate_per_s: 0.001, // effectively no refill within this test
            burst: 1.0,
            replay_window_s: 0.0,
            replay_limit: 2,
            deficit_margin: 0.0,
            quarantine_strikes: 2,
            quarantine_s: 1_000.0,
            parole_s: 10.0,
        };
        let mut e = engine(30, ServeConfig { k: 1, guard, ..ServeConfig::default() });
        assert!(matches!(e.submit(3, Some(2.0)), Ok(Admission::Accepted { .. })));
        // The burst token is spent; the flood begins. Two rejects are
        // two strikes, and the second strike quarantines.
        assert!(matches!(
            e.submit(3, Some(2.0)),
            Ok(Admission::Rejected { reason: IngressRejectReason::RateLimited })
        ));
        assert!(matches!(e.submit(3, Some(2.0)), Ok(Admission::Rejected { .. })));
        assert!(matches!(e.submit(3, Some(2.0)), Ok(Admission::RefusedQuarantined)));
        assert_eq!(e.ledger().admitted, 1);
        assert_eq!(e.ledger().rejected, 2);
        assert_eq!(e.ledger().refused_quarantined, 1);
        assert_eq!(e.quarantined_now(), 1);
        // Refusals sit OUTSIDE the conservation identity: it still
        // holds exactly, and every refusal is traced.
        assert!(e.ledger_reconciles());
        assert_eq!(e.report().silent_loss(), 0);
        assert_eq!(e.trace().count(|ev| matches!(ev, TraceEvent::RequestRejected { .. })), 2);
        assert_eq!(e.trace().count(|ev| matches!(ev, TraceEvent::SensorQuarantined { .. })), 1);
        // An unrelated sensor is untouched by sensor 3's quarantine.
        assert!(matches!(e.submit(7, Some(2.0)), Ok(Admission::Accepted { .. })));
    }

    #[test]
    fn an_implausible_deficit_is_rejected_with_the_typed_reason() {
        let guard =
            crate::guard::GuardConfig { deficit_margin: 1.0, ..Default::default() };
        let mut e = engine(30, ServeConfig { k: 1, guard, ..ServeConfig::default() });
        // A physically honest deficit passes; a lie an order of
        // magnitude past capacity cannot.
        assert!(matches!(e.submit(2, Some(5.0)), Ok(Admission::Accepted { .. })));
        assert!(matches!(
            e.submit(4, Some(1.0e12)),
            Ok(Admission::Rejected { reason: IngressRejectReason::ImplausibleDeficit })
        ));
        assert_eq!(e.ledger().rejected, 1);
        assert!(e.ledger_reconciles());
    }

    #[test]
    fn guard_state_survives_kill_and_resume_bit_identically() {
        let dir = tmp_dir("guard_resume");
        let wal_path = dir.join("requests.wal");
        let snap_path = dir.join("serve_checkpoint.json");
        let guard = crate::guard::GuardConfig {
            rate_per_s: 5.0,
            burst: 2.0,
            replay_window_s: 10.0,
            replay_limit: 2,
            deficit_margin: 1.0,
            quarantine_strikes: 2,
            quarantine_s: 50.0,
            parole_s: 10.0,
        };
        let cfg = ServeConfig { k: 1, guard, ..ServeConfig::default() };
        let net = NetworkBuilder::new(30).seed(7).build();
        let mut e = ServeEngine::new(net.clone(), cfg, factory())
            .unwrap()
            .with_wal(&wal_path)
            .unwrap()
            .with_snapshot(&snap_path);
        // Leave rich guard state behind: spent tokens, a replay
        // fingerprint, strikes, and one active quarantine.
        e.submit(1, Some(2.0)).unwrap();
        for _ in 0..6 {
            e.submit(2, Some(3.0)).unwrap(); // replay + rate strikes → quarantine
        }
        e.submit(4, Some(1.0e12)).unwrap(); // implausible → one strike
        for _ in 0..10 {
            e.tick().unwrap();
        }
        e.checkpoint_now().unwrap();
        let before = e.snapshot_bytes();
        assert_eq!(std::fs::read(&snap_path).unwrap(), before);
        assert_eq!(before, serde_json::to_string(&e.snapshot_value()).as_bytes());
        let rejected = e.ledger().rejected;
        let quarantined_now = e.quarantined_now();
        assert!(rejected > 0, "the scenario must actually reject");
        assert_eq!(quarantined_now, 1, "the scenario must actually quarantine");
        drop(e); // kill -9

        let r = ServeEngine::resume(net, cfg, factory(), &snap_path, &wal_path).unwrap();
        assert_eq!(before, r.snapshot_bytes(), "guard state must restore bit-identically");
        assert_eq!(r.ledger().rejected, rejected);
        assert_eq!(r.quarantined_now(), quarantined_now);
        assert!(r.ledger_reconciles());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn armed_guard() -> crate::guard::GuardConfig {
        crate::guard::GuardConfig {
            rate_per_s: 5.0,
            burst: 2.0,
            replay_window_s: 10.0,
            replay_limit: 2,
            deficit_margin: 1.0,
            quarantine_strikes: 2,
            quarantine_s: 50.0,
            parole_s: 10.0,
        }
    }

    /// Asserts the direct encoder writes the `Value` encoding's bytes.
    fn assert_encodes_like_value(e: &ServeEngine) {
        let want = serde_json::to_string(&e.snapshot_value());
        assert_eq!(String::from_utf8(e.snapshot_bytes()).unwrap(), want);
    }

    #[test]
    fn snapshot_bytes_equal_the_value_encoding() {
        let tiny = f64::from_bits(1); // the least subnormal
        let odd = [0.0, -0.0, f64::INFINITY, f64::NAN, -f64::NAN, tiny, f64::MAX, 2.5];
        for armed in [false, true] {
            let guard = if armed { armed_guard() } else { Default::default() };
            for empty in [None, Some(0), Some(1), Some(2)] {
                for queued in [0, 4] {
                    let cfg = ServeConfig { k: 3, queue_capacity: 4, guard, ..Default::default() };
                    let mut e = engine(30, cfg);
                    for c in (0..3).filter(|&c| Some(c) != empty) {
                        for i in 0..3 {
                            let x = odd[(c * 3 + i) % odd.len()];
                            e.tours.restore(
                                c,
                                LiveStop {
                                    seq: [1, u64::MAX, 99][i],
                                    sensor: [0, u32::MAX, 7][i],
                                    pos: e.net.sensors()[i].pos,
                                    duration_s: x,
                                    admitted_at_s: -x,
                                    lifetime_s: tiny,
                                    start_s: x,
                                    finish_s: f64::NEG_INFINITY,
                                    started: i == 0,
                                },
                            );
                        }
                    }
                    for i in 0..queued {
                        let req = QueuedRequest {
                            seq: u64::MAX - i as u64,
                            sensor: i as u32,
                            deficit_j: odd[i],
                            admitted_at_s: odd[i + 4],
                            deferrals: [0, 1, u32::MAX, 9][i],
                            lifetime_s: i as f64,
                        };
                        assert!(matches!(e.queue.offer(req), Offer::Enqueued));
                    }
                    if armed {
                        for s in [3, 3, 3, 8, 29] {
                            e.guard.check(s, Some(1.0e12), 0.01, 100.0, 1.5);
                        }
                    }
                    e.tours.restore_anchor(2, wrsn_geom::Point::new(-0.0, tiny), f64::NAN);
                    e.now_s = f64::INFINITY;
                    assert_eq!(e.tours.chargers()[2].is_empty(), empty == Some(2));
                    assert_eq!(e.queue.len(), queued);
                    assert_eq!(e.guard.snapshot_rows().len(), if armed { 3 } else { 0 });
                    assert_encodes_like_value(&e);
                }
            }
        }
    }

    #[test]
    fn snapshot_bytes_equal_the_value_encoding_through_a_run() {
        for guard in [Default::default(), armed_guard()] {
            let cfg = ServeConfig {
                k: 3,
                tick_s: 1.0,
                max_batch: 2,
                admission_bound_s: 90.0,
                guard,
                ..ServeConfig::default()
            };
            let mut e = engine(40, cfg);
            assert_encodes_like_value(&e);
            for t in 0..60u32 {
                for j in 0..t % 5 {
                    e.submit((t * 7 + j * 11) % 40, Some(10.0 + f64::from(j) * 7.3)).unwrap();
                }
                e.tick().unwrap();
                assert_encodes_like_value(&e);
            }
        }
    }

    /// A WAL line at the last sequence number is refused with a typed
    /// error instead of overflowing the numbering; one just below it
    /// resumes, and the request after it is refused the same way.
    #[test]
    fn resume_refuses_the_end_of_the_sequence_space() {
        let dir = tmp_dir("seqmax");
        let wal_path = dir.join("requests.wal");
        let snap_path = dir.join("serve_checkpoint.json");
        let cfg = ServeConfig { k: 1, ..ServeConfig::default() };
        let net = NetworkBuilder::new(20).seed(1).build();
        let line = |seq: u64| {
            let (t, deficit) = (0f64.to_bits(), 2f64.to_bits());
            format!("{{\"seq\": {seq}, \"t\": {t}, \"sensor\": 3, \"deficit\": {deficit}}}\n")
        };
        std::fs::write(&wal_path, line(u64::MAX)).unwrap();
        match ServeEngine::resume(net.clone(), cfg, factory(), &snap_path, &wal_path) {
            Err(ServeError::SequenceExhausted) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("a WAL at seq u64::MAX must be refused"),
        }
        std::fs::write(&wal_path, line(u64::MAX - 1)).unwrap();
        let mut e = ServeEngine::resume(net, cfg, factory(), &snap_path, &wal_path).unwrap();
        assert_eq!(e.ledger.admitted, 1);
        assert!(matches!(e.submit(4, Some(2.0)), Err(ServeError::SequenceExhausted)));
        assert_eq!(e.ledger.admitted, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot field that the engine holds as a `u32` is refused
    /// when it is wider, instead of resuming as its low 32 bits.
    #[test]
    fn resume_refuses_u32_fields_past_u32() {
        let dir = tmp_dir("u32");
        let wal_path = dir.join("requests.wal");
        let snap_path = dir.join("serve_checkpoint.json");
        let cfg = ServeConfig { k: 1, ..ServeConfig::default() };
        let net = NetworkBuilder::new(20).seed(3).build();
        let mut e = ServeEngine::new(net.clone(), cfg, factory())
            .unwrap()
            .with_wal(&wal_path)
            .unwrap()
            .with_snapshot(&snap_path);
        e.submit(3, Some(2.0)).unwrap();
        e.tick().unwrap(); // sensor 3 becomes a tour stop
        e.submit(4, Some(2.0)).unwrap(); // sensor 4 stays queued
        e.checkpoint_now().unwrap();
        drop(e);
        let good: Value = serde_json::from_slice(&std::fs::read(&snap_path).unwrap()).unwrap();
        // 2^32 + 3 truncates to sensor 3; 2^32 to zero deferrals.
        for (section, path, what) in [
            ("tours", &[0, 0, 1][..], "stop sensor"),
            ("queue", &[0, 1], "queue sensor"),
            ("queue", &[0, 4], "queue deferrals"),
        ] {
            let mut x = good[section].clone();
            let mut at = &mut x;
            for &i in path {
                let Value::Array(a) = at else { unreachable!("{section} is nested arrays") };
                at = &mut a[i];
            }
            *at = num((1 << 32) + at.as_u64().unwrap());
            let mut v = good.clone();
            if let Value::Object(m) = &mut v {
                m.insert(section.into(), x);
            }
            std::fs::write(&snap_path, serde_json::to_string(&v)).unwrap();
            match ServeEngine::resume(net.clone(), cfg, factory(), &snap_path, &wal_path) {
                Err(ServeError::Snapshot(msg)) => assert!(msg.contains(what), "{msg}"),
                Err(other) => panic!("{what}: wrong error: {other}"),
                Ok(_) => panic!("{what} past u32 must be refused"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
