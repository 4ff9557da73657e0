//! Seeded failpoint registry: deterministic storage/I-O fault injection.
//!
//! Every durability hot path of the serve daemon — WAL buffer write,
//! WAL fsync, snapshot tmp-write, snapshot rename, parent-directory
//! fsync, and ingress socket reads — asks this registry *may this
//! operation fail, and how?* before touching the kernel. The answers
//! come from a dedicated `ChaCha12` stream seeded by
//! [`ChaosConfig::seed`], so a fault schedule is a pure function of the
//! configuration: the same seed injects the same faults at the same
//! operations, which is what makes chaos drills reproducible and their
//! failures debuggable.
//!
//! The registry obeys the workspace-wide inertness contract: a
//! [`ChaosConfig`] with every probability zero and no ENOSPC window is
//! **inert** — [`Failpoints::inert`]-equivalent, the RNG is never even
//! seeded, zero random values are drawn, and every wrapped operation is
//! a plain passthrough. `tests/regression.rs` pins this with a
//! bit-identical serve-report digest.
//!
//! Injected fault kinds ([`FaultKind`]):
//!
//! - **Transient EIO** — the operation fails once with `ErrorKind::Other`;
//!   the caller's bounded-retry policy is expected to absorb it.
//! - **Persistent ENOSPC** — inside the configured tick window
//!   ([`ChaosConfig::enospc_from_tick`] ..+[`ChaosConfig::enospc_ticks`])
//!   every durable write fails with `StorageFull`, modelling a full
//!   disk that no retry fixes until the window passes (an operator
//!   freeing space).
//! - **Fsync failure** — `sync_data`/`sync_all` reports failure; per
//!   the fsyncgate lesson the caller must treat previously written
//!   bytes as *unknown* and rewrite from its last durable offset.
//! - **Torn write** — only a prefix of the payload reaches the file
//!   before the error, leaving a partial record for recovery to drop.
//! - **Slow I/O** — the operation stalls for
//!   [`ChaosConfig::stall_ms`] of wall time, then succeeds; counted so
//!   soak latency inflation is attributable.

use std::io;
use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Where a failpoint is being evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// Appending the buffered WAL batch to the log file.
    WalWrite,
    /// Group-commit fsync of the WAL file.
    WalSync,
    /// Writing a snapshot's temporary file body.
    SnapshotWrite,
    /// Renaming the snapshot temporary over the final path.
    SnapshotRename,
    /// Fsyncing the parent directory after an atomic rename.
    DirFsync,
    /// Reading a request line from the ingress (stdin/socket).
    IngressRead,
}

impl Site {
    /// Every site, in counter order.
    pub const ALL: [Site; 6] = [
        Site::WalWrite,
        Site::WalSync,
        Site::SnapshotWrite,
        Site::SnapshotRename,
        Site::DirFsync,
        Site::IngressRead,
    ];

    /// Stable lowercase name (JSON keys, trace lines).
    pub fn name(self) -> &'static str {
        match self {
            Site::WalWrite => "wal_write",
            Site::WalSync => "wal_sync",
            Site::SnapshotWrite => "snapshot_write",
            Site::SnapshotRename => "snapshot_rename",
            Site::DirFsync => "dir_fsync",
            Site::IngressRead => "ingress_read",
        }
    }

    fn index(self) -> usize {
        match self {
            Site::WalWrite => 0,
            Site::WalSync => 1,
            Site::SnapshotWrite => 2,
            Site::SnapshotRename => 3,
            Site::DirFsync => 4,
            Site::IngressRead => 5,
        }
    }

    /// Whether this site performs a durable *write* (ENOSPC applies).
    fn is_write(self) -> bool {
        matches!(self, Site::WalWrite | Site::SnapshotWrite)
    }

    /// Whether this site is an fsync barrier.
    fn is_sync(self) -> bool {
        matches!(self, Site::WalSync | Site::DirFsync)
    }
}

/// What a failpoint decided to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// One transient I/O error; retrying is expected to succeed.
    TransientEio,
    /// Persistent out-of-space inside the configured tick window.
    Enospc,
    /// The fsync barrier failed; written bytes are in unknown state.
    FsyncFail,
    /// Only a prefix of the payload was written before the error.
    TornWrite {
        /// Bytes of the payload that did reach the file.
        prefix_len: usize,
    },
    /// The operation stalled (already slept) and then succeeded.
    Stall,
}

impl FaultKind {
    fn index(self) -> usize {
        match self {
            FaultKind::TransientEio => 0,
            FaultKind::Enospc => 1,
            FaultKind::FsyncFail => 2,
            FaultKind::TornWrite { .. } => 3,
            FaultKind::Stall => 4,
        }
    }

    /// Stable lowercase name (JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TransientEio => "transient_eio",
            FaultKind::Enospc => "enospc",
            FaultKind::FsyncFail => "fsync_fail",
            FaultKind::TornWrite { .. } => "torn_write",
            FaultKind::Stall => "stall",
        }
    }

    /// The `io::Error` this fault surfaces as (stalls surface nothing).
    pub fn to_error(self, site: Site) -> io::Error {
        let kind = match self {
            FaultKind::Enospc => io::ErrorKind::StorageFull,
            _ => io::ErrorKind::Other,
        };
        io::Error::new(kind, format!("injected {} at {}", self.name(), site.name()))
    }
}

/// A rejected [`ChaosConfig`] field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosConfigError {
    /// A probability was NaN or outside `[0, 1]`.
    BadProbability(&'static str),
    /// `stall_ms` was set without any `stall_p` to trigger it — or the
    /// other way round, a stall probability with a zero stall duration.
    InconsistentStall,
}

impl std::fmt::Display for ChaosConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosConfigError::BadProbability(which) => {
                write!(f, "chaos probability {which} must be in [0, 1]")
            }
            ChaosConfigError::InconsistentStall => {
                write!(f, "chaos stall needs both stall_p > 0 and stall_ms > 0")
            }
        }
    }
}

impl std::error::Error for ChaosConfigError {}

/// Seeded fault-injection parameters. The default is fully inert.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the dedicated chaos RNG stream. The seed alone never
    /// activates anything — with all probabilities zero the stream is
    /// never created.
    pub seed: u64,
    /// Per-operation probability of a transient `EIO` on storage sites.
    pub io_error_p: f64,
    /// Per-fsync probability of an fsync failure (WAL group commit and
    /// directory fsync barriers).
    pub fsync_fail_p: f64,
    /// Per-write probability of a torn (short) write: a random prefix
    /// of the payload lands before the error.
    pub torn_write_p: f64,
    /// Per-operation probability of a slow-I/O stall.
    pub stall_p: f64,
    /// Wall-clock duration of one injected stall, milliseconds.
    pub stall_ms: u64,
    /// First tick (1-based, inclusive) of the persistent-ENOSPC window;
    /// `0` disables the window.
    pub enospc_from_tick: u64,
    /// Length of the ENOSPC window in ticks.
    pub enospc_ticks: u64,
    /// Per-line probability of a transient ingress read fault (the
    /// line is lost as if the socket read failed; the client sees no
    /// acknowledgement and retries like any lossy-channel sender).
    pub ingress_fault_p: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            io_error_p: 0.0,
            fsync_fail_p: 0.0,
            torn_write_p: 0.0,
            stall_p: 0.0,
            stall_ms: 0,
            enospc_from_tick: 0,
            enospc_ticks: 0,
            ingress_fault_p: 0.0,
        }
    }
}

impl ChaosConfig {
    /// Whether any fault channel is enabled. Inert configs draw zero
    /// RNG values regardless of their seed.
    pub fn is_active(&self) -> bool {
        self.io_error_p > 0.0
            || self.fsync_fail_p > 0.0
            || self.torn_write_p > 0.0
            || (self.stall_p > 0.0 && self.stall_ms > 0)
            || (self.enospc_from_tick > 0 && self.enospc_ticks > 0)
            || self.ingress_fault_p > 0.0
    }

    /// Validates every field.
    ///
    /// # Errors
    ///
    /// The first offending field as a [`ChaosConfigError`].
    pub fn validate(&self) -> Result<(), ChaosConfigError> {
        for (p, name) in [
            (self.io_error_p, "io_error_p"),
            (self.fsync_fail_p, "fsync_fail_p"),
            (self.torn_write_p, "torn_write_p"),
            (self.stall_p, "stall_p"),
            (self.ingress_fault_p, "ingress_fault_p"),
        ] {
            if p.is_nan() || !(0.0..=1.0).contains(&p) {
                return Err(ChaosConfigError::BadProbability(name));
            }
        }
        if (self.stall_p > 0.0) != (self.stall_ms > 0) {
            return Err(ChaosConfigError::InconsistentStall);
        }
        Ok(())
    }
}

/// Injection counters: `[site][kind]`, plus RNG-draw accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    injected: [[u64; 5]; 6],
    /// Random values drawn from the chaos stream (must stay 0 inert).
    pub rng_draws: u64,
}

impl ChaosCounters {
    /// Injections of `kind` at `site`.
    pub fn at(&self, site: Site, kind: FaultKind) -> u64 {
        self.injected[site.index()][kind.index()]
    }

    /// Total injections across every site and kind.
    pub fn total(&self) -> u64 {
        self.injected.iter().flatten().sum()
    }

    /// The counters as JSON: `{site: {kind: count}}`, zero rows elided.
    pub fn to_json(&self) -> serde_json::Value {
        let mut sites = serde_json::Map::new();
        for site in Site::ALL {
            let mut kinds = serde_json::Map::new();
            for (kind, name) in [
                (FaultKind::TransientEio, "transient_eio"),
                (FaultKind::Enospc, "enospc"),
                (FaultKind::FsyncFail, "fsync_fail"),
                (FaultKind::TornWrite { prefix_len: 0 }, "torn_write"),
                (FaultKind::Stall, "stall"),
            ] {
                let c = self.at(site, kind);
                if c > 0 {
                    kinds.insert(name.into(), serde_json::Value::from(c));
                }
            }
            if !kinds.is_empty() {
                sites.insert(site.name().into(), serde_json::Value::Object(kinds));
            }
        }
        serde_json::Value::Object(sites)
    }
}

/// The runtime failpoint registry. See the [module docs](self).
#[derive(Debug)]
pub struct Failpoints {
    cfg: ChaosConfig,
    /// `None` while inert: the stream is only seeded when a fault
    /// channel is enabled, so inert registries draw zero values.
    rng: Option<ChaCha12Rng>,
    tick: u64,
    counters: ChaosCounters,
}

impl Default for Failpoints {
    fn default() -> Self {
        Failpoints::inert()
    }
}

impl Failpoints {
    /// A registry that never injects anything and never seeds its RNG.
    pub fn inert() -> Self {
        Failpoints {
            cfg: ChaosConfig::default(),
            rng: None,
            tick: 0,
            counters: ChaosCounters::default(),
        }
    }

    /// A registry driving `cfg`'s fault schedule. An inert `cfg`
    /// yields an inert registry (no RNG is seeded).
    pub fn new(cfg: ChaosConfig) -> Self {
        let rng = cfg.is_active().then(|| ChaCha12Rng::seed_from_u64(cfg.seed));
        Failpoints { cfg, rng, tick: 0, counters: ChaosCounters::default() }
    }

    /// The configuration this registry runs.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Whether any fault channel is enabled.
    pub fn is_active(&self) -> bool {
        self.rng.is_some()
    }

    /// The injection counters so far.
    pub fn counters(&self) -> &ChaosCounters {
        &self.counters
    }

    /// Advances the registry's notion of service time (drives the
    /// ENOSPC window). The engine calls this once per tick.
    pub fn note_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// Whether the persistent-ENOSPC window covers the current tick.
    pub fn in_enospc_window(&self) -> bool {
        self.cfg.enospc_from_tick > 0
            && self.cfg.enospc_ticks > 0
            && self.tick >= self.cfg.enospc_from_tick
            && self.tick < self.cfg.enospc_from_tick + self.cfg.enospc_ticks
    }

    fn draw_p(&mut self) -> f64 {
        self.counters.rng_draws += 1;
        self.rng.as_mut().map_or(1.0, |r| r.gen::<f64>())
    }

    fn record(&mut self, site: Site, kind: FaultKind) {
        self.counters.injected[site.index()][kind.index()] += 1;
    }

    /// Evaluates the failpoint at `site` for an operation carrying
    /// `payload_len` bytes. Returns the injected fault, if any; a
    /// [`FaultKind::Stall`] has already slept by the time it returns.
    /// Inert registries return `None` without drawing.
    pub fn evaluate(&mut self, site: Site, payload_len: usize) -> Option<FaultKind> {
        self.rng.as_ref()?;
        // Persistent ENOSPC dominates on write sites: a full disk fails
        // every write deterministically, no draw spent.
        if site.is_write() && self.in_enospc_window() {
            self.record(site, FaultKind::Enospc);
            return Some(FaultKind::Enospc);
        }
        // One draw per enabled channel, in a fixed order, so a fault
        // schedule is stable under independent channel toggling.
        if self.cfg.stall_p > 0.0 && self.cfg.stall_ms > 0 && self.draw_p() < self.cfg.stall_p
        {
            let ms = self.cfg.stall_ms;
            std::thread::sleep(Duration::from_millis(ms));
            self.record(site, FaultKind::Stall);
            // A stall delays but does not fail: fall through to the
            // error channels so a stalled write can still tear.
        }
        if site == Site::IngressRead {
            if self.cfg.ingress_fault_p > 0.0 && self.draw_p() < self.cfg.ingress_fault_p {
                self.record(site, FaultKind::TransientEio);
                return Some(FaultKind::TransientEio);
            }
            return None;
        }
        if site.is_sync() {
            if self.cfg.fsync_fail_p > 0.0 && self.draw_p() < self.cfg.fsync_fail_p {
                self.record(site, FaultKind::FsyncFail);
                return Some(FaultKind::FsyncFail);
            }
            return None;
        }
        if self.cfg.torn_write_p > 0.0
            && payload_len > 0
            && self.draw_p() < self.cfg.torn_write_p
        {
            let prefix_len = {
                self.counters.rng_draws += 1;
                self.rng
                    .as_mut()
                    .map_or(0, |r| r.gen_range(0..payload_len))
            };
            let kind = FaultKind::TornWrite { prefix_len };
            self.record(site, kind);
            return Some(kind);
        }
        if self.cfg.io_error_p > 0.0 && self.draw_p() < self.cfg.io_error_p {
            self.record(site, FaultKind::TransientEio);
            return Some(FaultKind::TransientEio);
        }
        None
    }

    /// Failpoint-aware write hooks for the shared atomic-write seam
    /// ([`wrsn_sim::persist::write_atomic_with`]), scoped to the
    /// snapshot sites.
    pub fn snapshot_hooks(&mut self) -> SnapshotHooks<'_> {
        SnapshotHooks { fp: self }
    }
}

/// Adapter wiring [`Failpoints`] into the atomic-write protocol's
/// hook points (tmp-write, rename, parent-dir fsync).
pub struct SnapshotHooks<'a> {
    fp: &'a mut Failpoints,
}

impl wrsn_sim::persist::WriteHooks for SnapshotHooks<'_> {
    fn before_write(&mut self, payload_len: usize) -> io::Result<usize> {
        match self.fp.evaluate(Site::SnapshotWrite, payload_len) {
            None | Some(FaultKind::Stall) => Ok(payload_len),
            Some(FaultKind::TornWrite { prefix_len }) => Ok(prefix_len),
            Some(fault) => Err(fault.to_error(Site::SnapshotWrite)),
        }
    }

    fn before_rename(&mut self) -> io::Result<()> {
        match self.fp.evaluate(Site::SnapshotRename, 0) {
            None | Some(FaultKind::Stall) => Ok(()),
            Some(fault) => Err(fault.to_error(Site::SnapshotRename)),
        }
    }

    fn before_dir_fsync(&mut self) -> io::Result<()> {
        match self.fp.evaluate(Site::DirFsync, 0) {
            None | Some(FaultKind::Stall) => Ok(()),
            Some(fault) => Err(fault.to_error(Site::DirFsync)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_config_never_seeds_and_never_draws() {
        let mut cfg = ChaosConfig::default();
        cfg.seed = 0xDEAD_BEEF; // seed alone must never matter
        assert!(!cfg.is_active());
        let mut fp = Failpoints::new(cfg);
        assert!(!fp.is_active());
        for _ in 0..1_000 {
            for site in Site::ALL {
                assert_eq!(fp.evaluate(site, 64), None);
            }
        }
        assert_eq!(fp.counters().rng_draws, 0, "inert chaos draws zero RNG values");
        assert_eq!(fp.counters().total(), 0);
    }

    #[test]
    fn identical_seeds_inject_identical_schedules() {
        let cfg = ChaosConfig {
            seed: 7,
            io_error_p: 0.3,
            torn_write_p: 0.2,
            fsync_fail_p: 0.25,
            ..ChaosConfig::default()
        };
        let run = || {
            let mut fp = Failpoints::new(cfg);
            let mut schedule = Vec::new();
            for i in 0..500 {
                let site = Site::ALL[i % 4];
                schedule.push(fp.evaluate(site, 100));
            }
            (schedule, *fp.counters())
        };
        let (a, ca) = run();
        let (b, cb) = run();
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert!(ca.total() > 0, "these probabilities must inject something");
    }

    #[test]
    fn enospc_window_is_deterministic_and_write_scoped() {
        let cfg = ChaosConfig {
            seed: 1,
            enospc_from_tick: 5,
            enospc_ticks: 3,
            ..ChaosConfig::default()
        };
        let mut fp = Failpoints::new(cfg);
        for tick in 1..=10u64 {
            fp.note_tick(tick);
            let expect_full = (5..8).contains(&tick);
            assert_eq!(fp.in_enospc_window(), expect_full, "tick {tick}");
            let wal = fp.evaluate(Site::WalWrite, 32);
            let sync = fp.evaluate(Site::WalSync, 0);
            if expect_full {
                assert_eq!(wal, Some(FaultKind::Enospc));
            } else {
                assert_eq!(wal, None);
            }
            assert_eq!(sync, None, "ENOSPC hits writes, not fsync barriers");
        }
        assert_eq!(fp.counters().at(Site::WalWrite, FaultKind::Enospc), 3);
        assert_eq!(fp.counters().rng_draws, 0, "the window spends no draws");
    }

    #[test]
    fn torn_writes_report_a_strict_prefix() {
        let cfg = ChaosConfig { seed: 3, torn_write_p: 1.0, ..ChaosConfig::default() };
        let mut fp = Failpoints::new(cfg);
        for _ in 0..200 {
            match fp.evaluate(Site::WalWrite, 50) {
                Some(FaultKind::TornWrite { prefix_len }) => assert!(prefix_len < 50),
                other => panic!("expected a torn write, got {other:?}"),
            }
        }
    }

    #[test]
    fn validation_rejects_bad_probabilities_and_lone_stalls() {
        let ok = ChaosConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let bad = ChaosConfig { io_error_p: 1.5, ..ok };
        assert!(matches!(bad.validate(), Err(ChaosConfigError::BadProbability(_))));
        let nan = ChaosConfig { fsync_fail_p: f64::NAN, ..ok };
        assert!(matches!(nan.validate(), Err(ChaosConfigError::BadProbability(_))));
        let lone = ChaosConfig { stall_ms: 50, ..ok };
        assert_eq!(lone.validate(), Err(ChaosConfigError::InconsistentStall));
        let both = ChaosConfig { stall_p: 0.1, stall_ms: 5, ..ok };
        assert_eq!(both.validate(), Ok(()));
    }
}
