//! Request write-ahead log.
//!
//! Every *accepted* request is appended here — one compact JSON line,
//! sequence-numbered, with its `f64` fields encoded as `to_bits()`
//! integers like the simulator snapshots — **before** it enters the
//! ingress queue. Appends buffer in memory and the batch is written and
//! fsynced once per tick (group commit), so after a `kill -9` at most
//! the requests of the in-flight tick are on disk without their
//! in-memory effects — and replaying the log tail on top of the last
//! snapshot reconstructs exactly those. A torn final line (the crash
//! landed mid-append) is detected and dropped; torn *interior* lines
//! and duplicate or regressing sequence numbers are corruption and
//! refuse to load with a typed [`WalError`]. An empty-but-existing log
//! is clean — exactly what compaction leaves behind.
//!
//! The log tracks its last *durable* offset (`committed_len`). When a
//! write tears partway or an fsync fails — injected by the chaos layer
//! or real — the suffix past that offset is in unknown state, so the
//! file is marked tainted and the next sync first truncates back to the
//! durable offset and rewrites the whole pending batch. That is the
//! fsyncgate lesson: after a failed fsync the page cache may have
//! dropped the dirty pages, so "retry the fsync" is not a recovery
//! strategy — rewrite from the last known-durable byte is.
//!
//! [`Wal::compact`] truncates the log after a successful snapshot via
//! the same atomic tmp+rename+dir-fsync discipline as the snapshot
//! itself, bounding disk use by snapshot interval instead of uptime.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::encode::push_u64;
use crate::failpoint::{Failpoints, FaultKind, Site};

/// One logged acceptance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WalEntry {
    /// Monotonically increasing sequence number, starting at 1.
    pub seq: u64,
    /// Service time of the acceptance, seconds.
    pub at_s: f64,
    /// The requesting sensor's index.
    pub sensor: u32,
    /// Energy deficit to refill, joules.
    pub deficit_j: f64,
}

impl WalEntry {
    /// Appends the entry's log line: a JSON object with a space after
    /// each colon and comma, the `f64` fields as `to_bits()`, and `\n`.
    fn write_line(self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"seq\": ");
        push_u64(out, self.seq);
        out.extend_from_slice(b", \"t\": ");
        push_u64(out, self.at_s.to_bits());
        out.extend_from_slice(b", \"sensor\": ");
        push_u64(out, u64::from(self.sensor));
        out.extend_from_slice(b", \"deficit\": ");
        push_u64(out, self.deficit_j.to_bits());
        out.extend_from_slice(b"}\n");
    }

    fn parse(line: &str) -> Option<WalEntry> {
        let v: Value = serde_json::from_str(line).ok()?;
        Some(WalEntry {
            seq: v.get("seq")?.as_u64()?,
            at_s: f64::from_bits(v.get("t")?.as_u64()?),
            sensor: u32::try_from(v.get("sensor")?.as_u64()?).ok()?,
            deficit_j: f64::from_bits(v.get("deficit")?.as_u64()?),
        })
    }
}

/// Why the log could not be read or made durable.
#[derive(Debug)]
pub enum WalError {
    /// An underlying (or injected) I/O failure.
    Io(io::Error),
    /// A non-final line failed to parse: mid-file corruption, never the
    /// signature of a clean crash. Refused, not repaired.
    InteriorCorruption {
        /// 1-based line number of the corrupt record.
        line: usize,
    },
    /// A sequence number repeated or went backwards — the log was
    /// spliced, double-written, or otherwise tampered with.
    SequenceRegression {
        /// 1-based line number of the offending record.
        line: usize,
        /// The previous record's sequence number.
        prev: u64,
        /// The offending record's sequence number.
        got: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O failure: {e}"),
            WalError::InteriorCorruption { line } => {
                write!(f, "WAL corrupted at interior line {line}")
            }
            WalError::SequenceRegression { line, prev, got } => write!(
                f,
                "WAL sequence regressed at line {line}: {got} after {prev} (duplicate or splice)"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<WalError> for io::Error {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// The append side of the log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    /// The pending group-commit batch, not yet written to the file.
    buf: Vec<u8>,
    /// Entries currently in `buf`.
    pending: u64,
    /// Bytes of the file known durable (written **and** fsynced).
    committed_len: u64,
    /// Whether bytes past `committed_len` are in unknown state (torn
    /// write or failed fsync) and must be truncated before reuse.
    tainted: bool,
}

impl Wal {
    fn open_at(path: &Path, next_seq: u64, committed_len: u64) -> io::Result<Wal> {
        // Never truncate here: open_at reattaches to a log whose
        // committed prefix must survive (truncation of torn tails is
        // an explicit set_len by the caller).
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            next_seq,
            buf: Vec::new(),
            pending: 0,
            committed_len,
            tainted: false,
        })
    }

    /// Creates (truncating) a fresh log and fsyncs the parent directory
    /// so the new file itself survives a crash.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn create(path: &Path) -> io::Result<Wal> {
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let file = File::create(path)?;
        drop(file);
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            wrsn_sim::persist::fsync_dir(dir)?;
        }
        Wal::open_at(path, 1, 0)
    }

    /// Opens an existing log for appending after [`Wal::replay`];
    /// sequence numbering continues at `next_seq`. A torn tail found by
    /// replay is truncated away here, so the partial record can never
    /// become interior corruption once new appends land after it.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn open_append(path: &Path, next_seq: u64) -> io::Result<Wal> {
        let (_, torn) = Wal::replay(path)?;
        let mut wal = Wal::open_at(path, next_seq, 0)?;
        let len = wal.file.metadata()?.len();
        if torn {
            // Drop the partial trailing line; keep every complete one.
            let durable = Wal::last_complete_line_end(path)?;
            wal.file.set_len(durable)?;
            wal.file.sync_data()?;
            wal.committed_len = durable;
        } else {
            wal.committed_len = len;
        }
        Ok(wal)
    }

    /// Byte offset just past the final `\n`-terminated line.
    fn last_complete_line_end(path: &Path) -> io::Result<u64> {
        let body = std::fs::read(path)?;
        let end = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        Ok(end as u64)
    }

    /// Reads every complete entry of the log in order.
    ///
    /// Returns the entries plus a flag reporting whether a torn final
    /// line was dropped (the signature of a crash mid-append). Returns
    /// an empty log for a missing **or empty** file — an existing empty
    /// log is exactly what [`Wal::compact`] leaves and is clean, not
    /// suspicious.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] for read failures, [`WalError::InteriorCorruption`]
    /// for unparsable non-final lines, [`WalError::SequenceRegression`]
    /// for duplicate or backwards sequence numbers.
    pub fn replay(path: &Path) -> Result<(Vec<WalEntry>, bool), WalError> {
        let body = match std::fs::read_to_string(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
            Err(e) => return Err(WalError::Io(e)),
        };
        let lines: Vec<&str> = body.split('\n').filter(|l| !l.is_empty()).collect();
        let mut entries = Vec::with_capacity(lines.len());
        let mut torn = false;
        for (i, line) in lines.iter().enumerate() {
            match WalEntry::parse(line) {
                Some(e) => {
                    if let Some(prev) = entries.last().map(|p: &WalEntry| p.seq) {
                        if e.seq <= prev {
                            return Err(WalError::SequenceRegression {
                                line: i + 1,
                                prev,
                                got: e.seq,
                            });
                        }
                    }
                    entries.push(e);
                }
                None if i + 1 == lines.len() => torn = true,
                None => return Err(WalError::InteriorCorruption { line: i + 1 }),
            }
        }
        Ok((entries, torn))
    }

    /// Buffers an acceptance into the pending group-commit batch and
    /// returns its assigned sequence number. Nothing touches the disk
    /// until [`Wal::sync_with`] at the tick boundary — which is why the
    /// append itself cannot fail.
    pub fn append(&mut self, at_s: f64, sensor: u32, deficit_j: f64) -> u64 {
        let seq = self.next_seq;
        WalEntry { seq, at_s, sensor, deficit_j }.write_line(&mut self.buf);
        self.pending += 1;
        self.next_seq += 1;
        seq
    }

    /// Truncates any unknown-state suffix back to the durable offset.
    fn repair(&mut self) -> io::Result<()> {
        if self.tainted {
            self.file.set_len(self.committed_len)?;
            self.tainted = false;
        }
        Ok(())
    }

    /// Writes and fsyncs the pending batch (group commit); a no-op when
    /// the batch is empty and the file is clean. On failure — injected
    /// through `fp` or real — the batch stays buffered and the file is
    /// marked tainted, so a later retry rewrites the whole batch from
    /// the last durable offset.
    ///
    /// # Errors
    ///
    /// Any real or injected I/O failure.
    pub fn sync_with(&mut self, fp: &mut Failpoints) -> io::Result<()> {
        if self.buf.is_empty() && !self.tainted {
            return Ok(());
        }
        self.repair()?;
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.seek(SeekFrom::Start(self.committed_len))?;
        match fp.evaluate(Site::WalWrite, self.buf.len()) {
            None | Some(FaultKind::Stall) => {
                if let Err(e) = self.file.write_all(&self.buf) {
                    self.tainted = true;
                    return Err(e);
                }
            }
            Some(FaultKind::TornWrite { prefix_len }) => {
                // The prefix really lands, exactly as a mid-write crash
                // would leave it; taint forces truncate-and-rewrite.
                let _ = self.file.write_all(&self.buf[..prefix_len]);
                self.tainted = true;
                return Err(FaultKind::TornWrite { prefix_len }.to_error(Site::WalWrite));
            }
            Some(fault) => {
                self.tainted = true;
                return Err(fault.to_error(Site::WalWrite));
            }
        }
        match fp.evaluate(Site::WalSync, 0) {
            None | Some(FaultKind::Stall) => {
                if let Err(e) = self.file.sync_data() {
                    self.tainted = true;
                    return Err(e);
                }
            }
            Some(fault) => {
                self.tainted = true;
                return Err(fault.to_error(Site::WalSync));
            }
        }
        self.committed_len += self.buf.len() as u64;
        self.buf.clear();
        self.pending = 0;
        Ok(())
    }

    /// [`Wal::sync_with`] without fault injection.
    ///
    /// # Errors
    ///
    /// Any real I/O failure.
    pub fn sync(&mut self) -> io::Result<()> {
        self.sync_with(&mut Failpoints::inert())
    }

    /// A durability probe: repairs any tainted suffix and proves one
    /// write+fsync round trip succeeds, without appending an entry.
    /// Degraded mode re-arms when this passes. The pending batch (if
    /// any) is left buffered for the next [`Wal::sync_with`].
    ///
    /// # Errors
    ///
    /// Any real or injected I/O failure.
    pub fn probe(&mut self, fp: &mut Failpoints) -> io::Result<()> {
        self.repair()?;
        if let Some(fault) = fp.evaluate(Site::WalWrite, 0) {
            if !matches!(fault, FaultKind::Stall) {
                return Err(fault.to_error(Site::WalWrite));
            }
        }
        if let Some(fault) = fp.evaluate(Site::WalSync, 0) {
            if !matches!(fault, FaultKind::Stall) {
                return Err(fault.to_error(Site::WalSync));
            }
        }
        self.file.sync_data()
    }

    /// Truncates the log after a successful snapshot: every entry below
    /// the snapshot's `next_seq` is now redundant, so the whole file is
    /// atomically replaced by an empty one (tmp+rename+dir-fsync, the
    /// snapshot failpoint sites apply) and the handle reopened on the
    /// new inode. Returns the number of bytes dropped. Must only run
    /// with an empty pending batch — the engine compacts right after a
    /// synced checkpoint.
    ///
    /// # Errors
    ///
    /// Any real or injected I/O failure; on error the old log is intact
    /// and remains the durability record.
    pub fn compact(&mut self, fp: &mut Failpoints) -> io::Result<u64> {
        assert!(self.buf.is_empty(), "compact requires a synced batch");
        self.repair()?;
        let dropped = self.committed_len;
        wrsn_sim::persist::write_atomic_with(&self.path, b"", &mut fp.snapshot_hooks())?;
        // The old handle points at the unlinked inode; reopen.
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.committed_len = 0;
        Ok(dropped)
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Entries buffered but not yet durable.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Bytes of the log known durable on disk.
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::ChaosConfig;

    impl WalEntry {
        /// The reference encoder [`WalEntry::write_line`] is held to: the
        /// format string the log was first written with.
        fn to_line(self) -> String {
            format!(
                "{{\"seq\": {}, \"t\": {}, \"sensor\": {}, \"deficit\": {}}}\n",
                self.seq,
                self.at_s.to_bits(),
                self.sensor,
                self.deficit_j.to_bits()
            )
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wrsn_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("requests.wal")
    }

    #[test]
    fn append_sync_replay_round_trips() {
        let path = tmp("roundtrip");
        let mut wal = Wal::create(&path).unwrap();
        assert_eq!(wal.append(0.5, 7, 120.25), 1);
        assert_eq!(wal.append(0.6, 9, 10.0), 2);
        assert_eq!(wal.pending(), 2);
        wal.sync().unwrap();
        assert_eq!(wal.pending(), 0);
        let (entries, torn) = Wal::replay(&path).unwrap();
        assert!(!torn);
        assert_eq!(
            entries,
            vec![
                WalEntry { seq: 1, at_s: 0.5, sensor: 7, deficit_j: 120.25 },
                WalEntry { seq: 2, at_s: 0.6, sensor: 9, deficit_j: 10.0 },
            ]
        );
        // Appending continues the numbering after a reopen.
        drop(wal);
        let mut wal = Wal::open_append(&path, 3).unwrap();
        assert_eq!(wal.append(0.7, 1, 5.0), 3);
        wal.sync().unwrap();
        let (entries, _) = Wal::replay(&path).unwrap();
        assert_eq!(entries.len(), 3);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn lines_equal_the_reference_encoding_and_replay_bit_exactly() {
        let tiny = f64::from_bits(1); // the least subnormal
        let odd = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN, tiny, 1.5];
        let bits = |e: &WalEntry| (e.seq, e.at_s.to_bits(), e.sensor, e.deficit_j.to_bits());
        let path = tmp("reference");
        let mut wal = Wal::create(&path).unwrap();
        let (mut want, mut reference) = (Vec::new(), String::new());
        for (i, &at_s) in odd.iter().enumerate() {
            for (j, &deficit_j) in odd.iter().enumerate() {
                let sensor = [0, 7, u32::MAX][(i + j) % 3];
                let seq = wal.append(at_s, sensor, deficit_j);
                let entry = WalEntry { seq, at_s, sensor, deficit_j };
                reference.push_str(&entry.to_line());
                want.push(entry);
            }
        }
        assert_eq!(want[0].seq, 1);
        assert_eq!(wal.buf, reference.as_bytes(), "append must write the reference bytes");
        wal.sync().unwrap();
        // A log cannot number past u64::MAX, so its line goes through the
        // encoder `append` calls, straight onto the synced log.
        let last = WalEntry { seq: u64::MAX, at_s: f64::MAX, sensor: u32::MAX, deficit_j: tiny };
        let mut line = Vec::new();
        last.write_line(&mut line);
        assert_eq!(line, last.to_line().as_bytes());
        OpenOptions::new().append(true).open(&path).unwrap().write_all(&line).unwrap();
        want.push(last);
        let (got, torn) = Wal::replay(&path).unwrap();
        assert!(!torn);
        let got: Vec<_> = got.iter().map(bits).collect();
        assert_eq!(got, want.iter().map(bits).collect::<Vec<_>>(), "replay is bit-exact");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn missing_log_replays_empty() {
        let path = tmp("missing").join("nope.wal");
        let (entries, torn) = Wal::replay(&path).unwrap();
        assert!(entries.is_empty());
        assert!(!torn);
    }

    #[test]
    fn empty_but_existing_log_is_clean() {
        // Exactly what compaction leaves next to a valid snapshot.
        let path = tmp("empty");
        std::fs::write(&path, b"").unwrap();
        let (entries, torn) = Wal::replay(&path).unwrap();
        assert!(entries.is_empty());
        assert!(!torn, "an empty existing WAL is clean, not torn");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_dropped_and_flagged() {
        let path = tmp("torn");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1.0, 3, 50.0);
        wal.sync().unwrap();
        // Simulate a crash mid-append: a partial trailing line.
        let mut body = std::fs::read_to_string(&path).unwrap();
        body.push_str("{\"seq\": 2, \"t\": 46");
        std::fs::write(&path, body).unwrap();
        let (entries, torn) = Wal::replay(&path).unwrap();
        assert!(torn, "partial tail must be reported");
        assert_eq!(entries.len(), 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn open_append_truncates_torn_tail_so_it_never_turns_interior() {
        let path = tmp("torn_heal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1.0, 3, 50.0);
        wal.sync().unwrap();
        let mut body = std::fs::read_to_string(&path).unwrap();
        body.push_str("{\"seq\": 2, \"t\": 46");
        std::fs::write(&path, body).unwrap();
        // Reopen for append and land a new record; without the heal the
        // partial line would merge with it into interior garbage.
        let mut wal = Wal::open_append(&path, 2).unwrap();
        wal.append(2.0, 4, 25.0);
        wal.sync().unwrap();
        let (entries, torn) = Wal::replay(&path).unwrap();
        assert!(!torn);
        assert_eq!(entries.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn interior_corruption_is_refused_with_typed_error() {
        let path = tmp("corrupt");
        std::fs::write(
            &path,
            "{\"seq\": 1, \"t\": 0, \"sensor\": 1, \"deficit\": 0}\nGARBAGE\n{\"seq\": 3, \"t\": 0, \"sensor\": 2, \"deficit\": 0}\n",
        )
        .unwrap();
        match Wal::replay(&path) {
            Err(WalError::InteriorCorruption { line }) => assert_eq!(line, 2),
            other => panic!("expected InteriorCorruption, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn duplicate_sequence_is_refused_with_typed_error() {
        let path = tmp("dup");
        std::fs::write(
            &path,
            "{\"seq\": 2, \"t\": 0, \"sensor\": 1, \"deficit\": 0}\n{\"seq\": 2, \"t\": 0, \"sensor\": 2, \"deficit\": 0}\n",
        )
        .unwrap();
        match Wal::replay(&path) {
            Err(WalError::SequenceRegression { line, prev, got }) => {
                assert_eq!((line, prev, got), (2, 2, 2));
            }
            other => panic!("expected SequenceRegression, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn regressing_sequence_is_refused_with_typed_error() {
        let path = tmp("regress");
        std::fs::write(
            &path,
            "{\"seq\": 5, \"t\": 0, \"sensor\": 1, \"deficit\": 0}\n{\"seq\": 3, \"t\": 0, \"sensor\": 2, \"deficit\": 0}\n",
        )
        .unwrap();
        match Wal::replay(&path) {
            Err(WalError::SequenceRegression { line, prev, got }) => {
                assert_eq!((line, prev, got), (2, 5, 3));
            }
            other => panic!("expected SequenceRegression, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_sync_self_heals_on_retry() {
        // First sync tears mid-batch; the retry must truncate the
        // partial suffix and land the full batch with no duplication.
        let path = tmp("selfheal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1.0, 1, 10.0);
        wal.append(1.0, 2, 20.0);
        let mut fp = Failpoints::new(ChaosConfig {
            seed: 11,
            torn_write_p: 1.0,
            ..ChaosConfig::default()
        });
        assert!(wal.sync_with(&mut fp).is_err(), "forced tear must fail the sync");
        assert_eq!(wal.pending(), 2, "the batch stays buffered after a failed sync");
        // Retry without injection: clean self-heal.
        wal.sync().unwrap();
        let (entries, torn) = Wal::replay(&path).unwrap();
        assert!(!torn, "healed log has no partial lines");
        assert_eq!(entries.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn fsync_failure_marks_taint_and_retry_rewrites() {
        let path = tmp("fsyncfail");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1.0, 1, 10.0);
        let mut fp = Failpoints::new(ChaosConfig {
            seed: 5,
            fsync_fail_p: 1.0,
            ..ChaosConfig::default()
        });
        assert!(wal.sync_with(&mut fp).is_err());
        wal.sync().unwrap();
        let (entries, torn) = Wal::replay(&path).unwrap();
        assert!(!torn);
        assert_eq!(entries.len(), 1, "retry must not duplicate the record");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn compact_empties_log_and_appends_continue() {
        let path = tmp("compact");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..50 {
            wal.append(f64::from(i), i, 10.0);
        }
        wal.sync().unwrap();
        let before = wal.committed_len();
        assert!(before > 0);
        let dropped = wal.compact(&mut Failpoints::inert()).unwrap();
        assert_eq!(dropped, before);
        assert_eq!(wal.committed_len(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // The log keeps working on the new inode with continued seqs.
        let seq = wal.append(99.0, 7, 5.0);
        assert_eq!(seq, 51);
        wal.sync().unwrap();
        let (entries, torn) = Wal::replay(&path).unwrap();
        assert!(!torn);
        assert_eq!(entries, vec![WalEntry { seq: 51, at_s: 99.0, sensor: 7, deficit_j: 5.0 }]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn failed_compact_leaves_old_log_intact() {
        let path = tmp("compact_fail");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1.0, 1, 10.0);
        wal.sync().unwrap();
        let mut fp = Failpoints::new(ChaosConfig {
            seed: 2,
            io_error_p: 1.0,
            ..ChaosConfig::default()
        });
        assert!(wal.compact(&mut fp).is_err());
        let (entries, _) = Wal::replay(&path).unwrap();
        assert_eq!(entries.len(), 1, "a failed compaction must not lose the log");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
