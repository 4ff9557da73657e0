//! The hardened wire front: bounded line reads and typed ingress
//! events.
//!
//! Everything that arrives on the wire is untrusted (DESIGN.md §18),
//! so the first defense is resource-bounded *reading*: a hostile peer
//! must not be able to make the daemon allocate without limit by
//! sending one endless line. [`read_bounded_line`] reads through the
//! `BufRead` fill buffer and never materializes more than the
//! configured bound — an oversize line is *discarded in place* (the
//! stream skips to the next newline) and reported as
//! [`BoundedLine::Oversize`], so the connection survives and the event
//! is counted, never silently dropped.
//!
//! [`IngressEvent`] is the typed vocabulary reader threads send to the
//! single-threaded drain loop, and [`classify_line`] is the shared
//! line-to-event policy — the daemon and the adversarial soak both use
//! it, so an attack line takes the same path in-process as on the
//! socket.

use std::io::{BufRead, ErrorKind};

use crate::request::{RequestParseError, ServeRequest};

/// Bound applied when the configured `max_line_bytes` is 0 (a hard
/// backstop: "unbounded" still cannot OOM the daemon).
pub const FALLBACK_MAX_LINE_BYTES: usize = 1 << 20;

/// One bounded read from an ingress stream.
#[derive(Debug)]
pub enum BoundedLine {
    /// A complete line within the bound (newline stripped). Invalid
    /// UTF-8 is replaced lossily — the parser rejects it as JSON.
    Line(String),
    /// A line past the bound, discarded without materializing it.
    Oversize,
    /// Clean end of stream.
    Eof,
    /// The transport failed mid-stream (includes read timeouts).
    Err(std::io::Error),
}

/// Reads one newline-terminated line, materializing at most
/// `max_bytes` of it (0 uses [`FALLBACK_MAX_LINE_BYTES`]). A line
/// longer than the bound is skipped through the fill buffer — constant
/// memory — and reported as [`BoundedLine::Oversize`]. A final
/// unterminated line at EOF is returned as a normal line.
pub fn read_bounded_line<R: BufRead>(reader: &mut R, max_bytes: usize) -> BoundedLine {
    let max_bytes = if max_bytes == 0 { FALLBACK_MAX_LINE_BYTES } else { max_bytes };
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return BoundedLine::Err(e),
        };
        if chunk.is_empty() {
            return if buf.is_empty() {
                BoundedLine::Eof
            } else {
                BoundedLine::Line(into_line(buf))
            };
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let oversize = buf.len() + pos > max_bytes;
                if !oversize {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                reader.consume(pos + 1);
                return if oversize {
                    BoundedLine::Oversize
                } else {
                    BoundedLine::Line(into_line(buf))
                };
            }
            None => {
                let len = chunk.len();
                if buf.len() + len > max_bytes {
                    reader.consume(len);
                    return discard_to_newline(reader);
                }
                buf.extend_from_slice(chunk);
                reader.consume(len);
            }
        }
    }
}

/// Moves a valid UTF-8 buffer into the line; only invalid bytes pay
/// for the lossy copy.
fn into_line(buf: Vec<u8>) -> String {
    String::from_utf8(buf).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Skips the remainder of an oversize line in constant memory.
fn discard_to_newline<R: BufRead>(reader: &mut R) -> BoundedLine {
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return BoundedLine::Err(e),
        };
        if chunk.is_empty() {
            // EOF inside the oversize line: it is still one oversize
            // event, just truncated by the peer.
            return BoundedLine::Oversize;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return BoundedLine::Oversize;
            }
            None => {
                let len = chunk.len();
                reader.consume(len);
            }
        }
    }
}

/// What a reader thread tells the drain loop about one wire event.
#[derive(Debug)]
pub enum IngressEvent {
    /// A parsed request, ready for the guard and the engine.
    Request(ServeRequest),
    /// A within-bounds line the parser rejected (counted as malformed).
    Malformed(RequestParseError),
    /// A line past the byte bound, already discarded at the reader.
    Oversize,
    /// A mid-stream transport failure or read-deadline expiry; the
    /// connection was dropped.
    ReadError(String),
    /// The acceptor refused a connection past the connection cap.
    ConnectionRefused,
}

/// The shared line-to-event policy: length bound first, then the
/// parser. The daemon applies the length bound inside
/// [`read_bounded_line`] (so oversize lines are never materialized);
/// the in-process adversarial soak holds the line already and applies
/// the identical policy here.
pub fn classify_line(line: &str, max_line_bytes: usize) -> IngressEvent {
    let bound = if max_line_bytes == 0 { FALLBACK_MAX_LINE_BYTES } else { max_line_bytes };
    if line.len() > bound {
        return IngressEvent::Oversize;
    }
    match ServeRequest::parse(line) {
        Ok(req) => IngressEvent::Request(req),
        Err(e) => IngressEvent::Malformed(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn lines(input: &[u8], max: usize) -> Vec<String> {
        let mut r = Cursor::new(input.to_vec());
        let mut out = Vec::new();
        loop {
            match read_bounded_line(&mut r, max) {
                BoundedLine::Line(l) => out.push(l),
                BoundedLine::Oversize => out.push("<oversize>".into()),
                BoundedLine::Eof => break,
                BoundedLine::Err(e) => panic!("unexpected error: {e}"),
            }
        }
        out
    }

    #[test]
    fn reads_plain_lines_and_a_final_unterminated_one() {
        assert_eq!(lines(b"a\nbb\nccc", 100), ["a", "bb", "ccc"]);
        assert_eq!(lines(b"", 100), Vec::<String>::new());
        assert_eq!(lines(b"\n\n", 100), ["", ""]);
    }

    #[test]
    fn a_line_of_exactly_the_bound_is_allowed() {
        assert_eq!(lines(b"abcde\nxy\n", 5), ["abcde", "xy"]);
    }

    #[test]
    fn oversize_lines_are_discarded_and_the_stream_survives() {
        let long = vec![b'z'; 10_000];
        let mut input = b"ok1\n".to_vec();
        input.extend_from_slice(&long);
        input.extend_from_slice(b"\nok2\n");
        assert_eq!(lines(&input, 16), ["ok1", "<oversize>", "ok2"]);
    }

    #[test]
    fn oversize_detection_works_across_tiny_fill_buffers() {
        // An 8-byte BufReader forces the multi-chunk paths.
        let mut input = b"short\n".to_vec();
        input.extend_from_slice(&vec![b'q'; 1000]);
        input.extend_from_slice(b"\nafter\n");
        let mut r = std::io::BufReader::with_capacity(
            8,
            Cursor::new(input),
        );
        let mut out = Vec::new();
        loop {
            match read_bounded_line(&mut r, 64) {
                BoundedLine::Line(l) => out.push(l),
                BoundedLine::Oversize => out.push("<oversize>".into()),
                BoundedLine::Eof => break,
                BoundedLine::Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(out, ["short", "<oversize>", "after"]);
    }

    #[test]
    fn eof_inside_an_oversize_line_still_reports_oversize() {
        assert_eq!(lines(&vec![b'w'; 500], 10), ["<oversize>"]);
    }

    #[test]
    fn zero_bound_falls_back_to_the_hard_backstop() {
        assert_eq!(lines(b"fine\n", 0), ["fine"]);
        assert!(matches!(
            classify_line(&"y".repeat(FALLBACK_MAX_LINE_BYTES + 1), 0),
            IngressEvent::Oversize
        ));
    }

    #[test]
    fn invalid_utf8_becomes_a_malformed_line_not_a_panic() {
        let mut r = Cursor::new(b"\xff\xfe\xfd\n".to_vec());
        match read_bounded_line(&mut r, 100) {
            BoundedLine::Line(l) => {
                assert!(matches!(classify_line(&l, 100), IngressEvent::Malformed(_)));
            }
            other => panic!("expected a line, got {other:?}"),
        }
    }

    #[test]
    fn classify_matches_the_parser_and_the_bound() {
        assert!(matches!(
            classify_line("{\"sensor\": 5}", 100),
            IngressEvent::Request(ServeRequest { sensor: 5, deficit_j: None })
        ));
        assert!(matches!(classify_line("nope", 100), IngressEvent::Malformed(_)));
        assert!(matches!(classify_line(&"x".repeat(101), 100), IngressEvent::Oversize));
    }
}
