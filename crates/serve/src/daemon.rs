//! The real-I/O shell around [`ServeEngine`]: ingress readers, the
//! tick loop, and graceful shutdown.
//!
//! Requests arrive as JSON lines (`{"sensor": 17, "deficit_j": 120.5}`)
//! over stdin or a unix domain socket. Reader threads apply the
//! resource bounds — line length, read deadline, connection cap — and
//! forward typed [`IngressEvent`]s over a channel; the single-threaded
//! tick loop drains the channel, submits, and ticks the engine — so
//! the deterministic core never sees concurrency. On SIGINT/SIGTERM
//! (or ingress EOF) the loop winds down at a tick boundary: final WAL
//! sync, final snapshot, final report. Malformed, oversize, and
//! failed-read lines are counted and reported, never fatal and never
//! silently dropped — a byte of garbage on the wire must not take the
//! service down, and must not vanish from the books either.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use crate::engine::{Admission, ServeEngine, ServeError, ServeReport};
use crate::ingress::{read_bounded_line, BoundedLine, IngressEvent};
use crate::request::ServeRequest;
use crate::shutdown::stop_requested;

/// Where requests come from.
#[derive(Clone, Debug)]
pub enum Ingress {
    /// JSON lines on the daemon's stdin; EOF ends the service.
    Stdin,
    /// JSON lines on connections to a unix domain socket at this path.
    UnixSocket(PathBuf),
}

/// Daemon behaviour knobs.
#[derive(Clone, Copy, Debug)]
pub struct DaemonOptions {
    /// Pace ticks in wall time (sleep `tick_s` per tick). Off, the loop
    /// spins as fast as requests allow — useful under test.
    pub pace_wall: bool,
    /// On ingress EOF, keep ticking until in-flight drains to zero
    /// before shutting down (a stop signal still exits immediately).
    pub drain_on_eof: bool,
    /// Echo one JSON line per submission outcome to stdout.
    pub echo: bool,
    /// Longest ingress line materialized, in bytes; longer lines are
    /// discarded in constant memory and counted as oversize. 0 falls
    /// back to the hard backstop
    /// ([`crate::ingress::FALLBACK_MAX_LINE_BYTES`]) — there is no
    /// truly unbounded mode.
    pub max_line_bytes: usize,
    /// Per-connection read deadline in milliseconds; a socket peer
    /// that stays silent this long is disconnected (counted as a read
    /// error). 0 disables the deadline.
    pub read_timeout_ms: u64,
    /// Concurrent socket connections accepted; connections past the
    /// cap are refused and counted. 0 means unlimited.
    pub max_connections: usize,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            pace_wall: true,
            drain_on_eof: true,
            echo: false,
            max_line_bytes: 1 << 16,
            read_timeout_ms: 0,
            max_connections: 64,
        }
    }
}

/// What a daemon run did.
#[derive(Clone, Debug)]
pub struct DaemonOutcome {
    /// The engine's final report.
    pub report: ServeReport,
    /// Ingress lines that failed to parse (counted, never fatal).
    pub malformed: u64,
    /// Ingress lines dropped by an injected socket-read fault (the
    /// chaos layer's `IngressRead` site; the client saw no ack and is
    /// expected to retry, like any sender on a lossy transport).
    pub ingress_faults: u64,
}

fn outcome_line(req: &ServeRequest, admission: Admission) -> String {
    let (verdict, seq, reason) = match admission {
        Admission::Accepted { seq } => ("accepted", Some(seq), None),
        Admission::ShedOnArrival { seq } => ("shed", Some(seq), None),
        Admission::Duplicate => ("duplicate", None, None),
        Admission::Invalid => ("invalid", None, None),
        Admission::RefusedDegraded => ("refused_degraded", None, None),
        Admission::Rejected { reason } => ("rejected", None, Some(reason.name())),
        Admission::RefusedQuarantined => ("refused_quarantined", None, None),
    };
    match (seq, reason) {
        (Some(seq), _) => format!(
            "{{\"sensor\": {}, \"outcome\": \"{verdict}\", \"seq\": {seq}}}",
            req.sensor
        ),
        (None, Some(reason)) => format!(
            "{{\"sensor\": {}, \"outcome\": \"{verdict}\", \"reason\": \"{reason}\"}}",
            req.sensor
        ),
        (None, None) => {
            format!("{{\"sensor\": {}, \"outcome\": \"{verdict}\"}}", req.sensor)
        }
    }
}

/// Reads bounded lines from `reader` and forwards typed events until
/// EOF, a transport error, or a closed channel. Shared by the stdin
/// reader and every socket connection, so all ingress takes one path.
fn pump_lines<R: std::io::BufRead>(
    reader: &mut R,
    tx: &mpsc::Sender<IngressEvent>,
    max_line_bytes: usize,
) {
    loop {
        let event = match read_bounded_line(reader, max_line_bytes) {
            BoundedLine::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                crate::ingress::classify_line(&line, max_line_bytes)
            }
            BoundedLine::Oversize => IngressEvent::Oversize,
            BoundedLine::Eof => return,
            BoundedLine::Err(e) => {
                let _ = tx.send(IngressEvent::ReadError(e.to_string()));
                return;
            }
        };
        if tx.send(event).is_err() {
            return;
        }
    }
}

fn spawn_stdin_reader(
    tx: mpsc::Sender<IngressEvent>,
    max_line_bytes: usize,
) -> Result<(), ServeError> {
    std::thread::Builder::new()
        .name("wrsn-serve-stdin".into())
        .spawn(move || {
            let stdin = std::io::stdin();
            let mut lock = stdin.lock();
            pump_lines(&mut lock, &tx, max_line_bytes);
        })
        .map(drop)
        .map_err(|e| ServeError::Io(format!("spawn stdin reader: {e}")))
}

#[cfg(unix)]
fn spawn_socket_acceptor(
    path: &std::path::Path,
    tx: mpsc::Sender<IngressEvent>,
    stop: Arc<AtomicBool>,
    opts: &DaemonOptions,
) -> Result<(), ServeError> {
    use std::os::unix::net::{UnixListener, UnixStream};
    // A socket file may be left over from a crashed run (stale — safe
    // to reclaim) or belong to a daemon that is alive right now.
    // Probe-connect to tell them apart: a live daemon accepts the
    // probe, and stealing its socket file would silently partition its
    // clients onto ours.
    if path.exists() {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(ServeError::SocketInUse(path.display().to_string()));
            }
            Err(_) => {
                // Nobody answered: a stale file from a dead daemon.
                let _ = std::fs::remove_file(path);
            }
        }
    }
    let listener = UnixListener::bind(path).map_err(|e| ServeError::Io(e.to_string()))?;
    listener.set_nonblocking(true).map_err(|e| ServeError::Io(e.to_string()))?;
    let max_line_bytes = opts.max_line_bytes;
    let read_timeout = (opts.read_timeout_ms > 0)
        .then(|| Duration::from_millis(opts.read_timeout_ms));
    let max_connections = opts.max_connections;
    let active = Arc::new(AtomicUsize::new(0));
    std::thread::Builder::new()
        .name("wrsn-serve-accept".into())
        .spawn(move || {
            loop {
                if stop_requested(&stop) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        if max_connections > 0
                            && active.load(Ordering::Acquire) >= max_connections
                        {
                            let _ = tx.send(IngressEvent::ConnectionRefused);
                            drop(stream);
                            continue;
                        }
                        let _ = stream.set_read_timeout(read_timeout);
                        active.fetch_add(1, Ordering::AcqRel);
                        let tx = tx.clone();
                        let conn_active = Arc::clone(&active);
                        let spawned = std::thread::Builder::new()
                            .name("wrsn-serve-conn".into())
                            .spawn(move || {
                                let mut reader = std::io::BufReader::new(stream);
                                pump_lines(&mut reader, &tx, max_line_bytes);
                                conn_active.fetch_sub(1, Ordering::AcqRel);
                            });
                        if spawned.is_err() {
                            active.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => break,
                }
            }
        })
        .map_err(|e| ServeError::Io(e.to_string()))?;
    Ok(())
}

/// Runs `engine` as a daemon over `ingress` until a stop signal or
/// ingress EOF, then shuts it down gracefully.
///
/// # Errors
///
/// [`ServeError::SocketInUse`] when another live daemon already
/// answers on the socket path; [`ServeError::Io`] for socket-bind or
/// engine I/O failures.
pub fn run_daemon(
    mut engine: ServeEngine,
    ingress: &Ingress,
    stop: &Arc<AtomicBool>,
    opts: &DaemonOptions,
) -> Result<DaemonOutcome, ServeError> {
    let (tx, rx) = mpsc::channel::<IngressEvent>();
    let socket_path = match ingress {
        Ingress::Stdin => {
            spawn_stdin_reader(tx, opts.max_line_bytes)?;
            None
        }
        Ingress::UnixSocket(path) => {
            #[cfg(unix)]
            {
                spawn_socket_acceptor(path, tx, Arc::clone(stop), opts)?;
                Some(path.clone())
            }
            #[cfg(not(unix))]
            {
                drop(tx);
                return Err(ServeError::Io(format!(
                    "unix sockets are unavailable on this platform ({})",
                    path.display()
                )));
            }
        }
    };

    let tick_wall = Duration::from_secs_f64(engine.config().tick_s);
    let mut malformed = 0u64;
    let mut ingress_faults = 0u64;
    let mut eof = false;
    loop {
        if stop_requested(stop) {
            break;
        }
        loop {
            match rx.try_recv() {
                Ok(IngressEvent::Request(req)) => {
                    // The ingress failpoint runs on the single-threaded
                    // drain side (not in the reader threads), so the
                    // chaos RNG stream stays deterministic. A fault
                    // drops the line as a failed socket read would.
                    if engine
                        .failpoints_mut()
                        .evaluate(crate::failpoint::Site::IngressRead, 1)
                        .is_some()
                    {
                        ingress_faults += 1;
                        continue;
                    }
                    let admission = engine.submit(req.sensor, req.deficit_j)?;
                    if opts.echo {
                        println!("{}", outcome_line(&req, admission));
                    }
                }
                Ok(IngressEvent::Malformed(_)) => malformed += 1,
                Ok(IngressEvent::Oversize) => engine.note_ingress_oversize(),
                Ok(IngressEvent::ReadError(_)) => engine.note_ingress_read_error(),
                Ok(IngressEvent::ConnectionRefused) => engine.note_connection_refused(),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    eof = true;
                    break;
                }
            }
        }
        engine.tick()?;
        if eof && (!opts.drain_on_eof || engine.in_flight() == 0) {
            break;
        }
        if opts.pace_wall {
            std::thread::sleep(tick_wall);
        }
    }
    let report = engine.shutdown()?;
    if let Some(path) = socket_path {
        let _ = std::fs::remove_file(path);
    }
    Ok(DaemonOutcome { report, malformed, ingress_faults })
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::watchdog::PlannerFactory;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::Ordering;
    use wrsn_core::{GreedyTour, Planner};
    use wrsn_net::NetworkBuilder;

    fn engine(n: usize) -> ServeEngine {
        let net = NetworkBuilder::new(n).seed(13).build();
        let factory: Arc<PlannerFactory> =
            Arc::new(|| Box::new(GreedyTour) as Box<dyn Planner>);
        let cfg = ServeConfig { k: 1, tick_s: 0.005, ..ServeConfig::default() };
        ServeEngine::new(net, cfg, factory).unwrap()
    }

    fn test_opts() -> DaemonOptions {
        DaemonOptions { pace_wall: false, drain_on_eof: false, ..DaemonOptions::default() }
    }

    fn sock_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("wrsn_daemon_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn connect_when_up(sock: &std::path::Path) -> UnixStream {
        for _ in 0..200 {
            if let Ok(s) = UnixStream::connect(sock) {
                return s;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon socket never appeared");
    }

    #[test]
    fn socket_requests_are_served_and_stop_is_graceful() {
        let dir = sock_dir("sock");
        let sock = dir.join("serve.sock");
        let stop = Arc::new(AtomicBool::new(false));

        let daemon = {
            let sock = sock.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                run_daemon(
                    engine(30),
                    &Ingress::UnixSocket(sock),
                    &stop,
                    // Unpaced: the engine's virtual clock races ahead of
                    // the wall, so the charges finish within the test.
                    &test_opts(),
                )
            })
        };

        // Wait for the socket to exist, then send three requests (one
        // malformed) over a client connection.
        let mut client = connect_when_up(&sock);
        writeln!(client, "{}", ServeRequest { sensor: 3, deficit_j: Some(2.0) }.to_json_line())
            .unwrap();
        writeln!(client, "{}", ServeRequest { sensor: 7, deficit_j: None }.to_json_line())
            .unwrap();
        writeln!(client, "this is not json").unwrap();
        client.flush().unwrap();
        drop(client);

        // Let the daemon ingest and serve, then stop it.
        let t0 = std::time::Instant::now();
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        let outcome = daemon.join().unwrap().unwrap();
        assert!(t0.elapsed() < Duration::from_secs(30), "stop must be prompt");
        assert_eq!(outcome.report.ledger.admitted, 2);
        assert_eq!(outcome.malformed, 1);
        assert!(outcome.report.ledger_reconciles);
        assert!(!sock.exists(), "socket file is cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversize_lines_are_counted_and_the_connection_survives() {
        let dir = sock_dir("oversize");
        let sock = dir.join("serve.sock");
        let stop = Arc::new(AtomicBool::new(false));

        let daemon = {
            let sock = sock.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                run_daemon(
                    engine(30),
                    &Ingress::UnixSocket(sock),
                    &stop,
                    &DaemonOptions { max_line_bytes: 128, ..test_opts() },
                )
            })
        };

        let mut client = connect_when_up(&sock);
        // An oversize line, then a valid request on the SAME
        // connection: the bound discards the line, not the peer.
        writeln!(client, "{}", "x".repeat(100_000)).unwrap();
        writeln!(client, "{}", ServeRequest { sensor: 5, deficit_j: None }.to_json_line())
            .unwrap();
        client.flush().unwrap();
        drop(client);

        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        let outcome = daemon.join().unwrap().unwrap();
        assert_eq!(outcome.report.ingress_oversize, 1);
        assert_eq!(outcome.report.ledger.admitted, 1);
        assert!(outcome.report.ledger_reconciles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_live_daemons_socket_is_not_stolen() {
        let dir = sock_dir("inuse");
        let sock = dir.join("serve.sock");
        let stop = Arc::new(AtomicBool::new(false));

        let daemon = {
            let sock = sock.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                run_daemon(engine(20), &Ingress::UnixSocket(sock), &stop, &test_opts())
            })
        };
        drop(connect_when_up(&sock));

        // A second daemon on the same path must refuse with a typed
        // error, not silently unlink the live socket.
        let err = run_daemon(engine(20), &Ingress::UnixSocket(sock.clone()), &stop, &test_opts())
            .unwrap_err();
        assert!(matches!(err, ServeError::SocketInUse(_)), "got {err:?}");
        assert!(sock.exists(), "the live daemon's socket must survive the attempt");

        stop.store(true, Ordering::Relaxed);
        daemon.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_socket_file_is_reclaimed() {
        let dir = sock_dir("stale");
        let sock = dir.join("serve.sock");
        // Fake a crashed daemon: a socket file nobody answers on.
        {
            use std::os::unix::net::UnixListener;
            let _listener = UnixListener::bind(&sock).unwrap();
            // Listener dropped here; the file remains.
        }
        assert!(sock.exists());
        let stop = Arc::new(AtomicBool::new(false));
        let daemon = {
            let sock = sock.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                run_daemon(engine(20), &Ingress::UnixSocket(sock), &stop, &test_opts())
            })
        };
        drop(connect_when_up(&sock));
        stop.store(true, Ordering::Relaxed);
        let outcome = daemon.join().unwrap().unwrap();
        assert!(outcome.report.ledger_reconciles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcome_lines_name_the_verdict() {
        let req = ServeRequest { sensor: 4, deficit_j: None };
        assert_eq!(
            outcome_line(&req, Admission::Accepted { seq: 9 }),
            "{\"sensor\": 4, \"outcome\": \"accepted\", \"seq\": 9}"
        );
        assert_eq!(
            outcome_line(&req, Admission::Duplicate),
            "{\"sensor\": 4, \"outcome\": \"duplicate\"}"
        );
        assert_eq!(
            outcome_line(
                &req,
                Admission::Rejected { reason: wrsn_sim::IngressRejectReason::Replayed }
            ),
            "{\"sensor\": 4, \"outcome\": \"rejected\", \"reason\": \"replayed\"}"
        );
        assert_eq!(
            outcome_line(&req, Admission::RefusedQuarantined),
            "{\"sensor\": 4, \"outcome\": \"refused_quarantined\"}"
        );
    }
}
