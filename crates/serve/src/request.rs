//! The service's wire format: one JSON object per line.
//!
//! ```text
//! {"sensor": 17}
//! {"sensor": 42, "deficit_j": 5400.0}
//! ```
//!
//! `sensor` is the requesting sensor's index; `deficit_j` optionally
//! carries the reported energy deficit (defaults to the engine's
//! configured fraction of the sensor's capacity when absent — a sensor
//! that only signals "I am low" without telemetry detail).
//!
//! ```
//! use wrsn_serve::ServeRequest;
//!
//! let req = ServeRequest::parse(r#"{"sensor": 17, "deficit_j": 120.5}"#).unwrap();
//! assert_eq!((req.sensor, req.deficit_j), (17, Some(120.5)));
//! ```
//!
//! [`ServeRequest::parse`] decodes the two forms
//! [`ServeRequest::to_json_line`] writes straight from the bytes, and
//! hands every other line to the general JSON parser, which decides
//! key order, whitespace, escapes, duplicate keys and every error. A
//! differential test keeps the two paths' answers equal.

use serde_json::Value;

/// What [`ServeRequest::to_json_line`] writes before the sensor index.
const SENSOR_OPEN: &str = "{\"sensor\": ";
/// What it writes between the sensor index and a deficit.
const DEFICIT_KEY: &str = ", \"deficit_j\": ";

/// One parsed charging request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeRequest {
    /// Index of the requesting sensor.
    pub sensor: u32,
    /// Reported energy deficit in joules, if the request carried one.
    pub deficit_j: Option<f64>,
}

/// Why a request line was rejected at parse time.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestParseError {
    /// The line is not valid JSON.
    Json(String),
    /// The JSON is valid but has no non-negative integer `sensor` field.
    MissingSensor,
    /// `deficit_j` is present but not a finite non-negative number.
    BadDeficit,
}

impl std::fmt::Display for RequestParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestParseError::Json(e) => write!(f, "request is not valid JSON: {e}"),
            RequestParseError::MissingSensor => {
                write!(f, "request needs a non-negative integer \"sensor\" field")
            }
            RequestParseError::BadDeficit => {
                write!(f, "\"deficit_j\" must be a finite non-negative number")
            }
        }
    }
}

impl std::error::Error for RequestParseError {}

impl ServeRequest {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`RequestParseError`] for malformed JSON, a missing/negative
    /// `sensor` field, or a non-finite/negative `deficit_j`.
    pub fn parse(line: &str) -> Result<Self, RequestParseError> {
        decode_canonical(line).map_or_else(|| parse_value(line), Ok)
    }

    /// Renders the request back to its one-line wire form.
    pub fn to_json_line(&self) -> String {
        match self.deficit_j {
            Some(d) => format!("{SENSOR_OPEN}{}{DEFICIT_KEY}{d}}}", self.sensor),
            None => format!("{SENSOR_OPEN}{}}}", self.sensor),
        }
    }
}

/// Decodes exactly `{"sensor": D}` and `{"sensor": D, "deficit_j": F}`,
/// the forms [`ServeRequest::to_json_line`] writes: D is 1–10 digits
/// worth at most `u32::MAX`, and F is digits with an optional `.` and
/// more digits that parse to a finite `f64`. `None` for every other
/// line, which [`parse_value`] then decides.
///
/// F goes through `str::parse::<f64>`, as float text does in the JSON
/// parser. That parser turns integer text into a `u64` and then `as
/// f64`; both conversions round to nearest, ties to even, so the bits
/// agree.
fn decode_canonical(line: &str) -> Option<ServeRequest> {
    let rest = line.strip_prefix(SENSOR_OPEN)?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    if !(1..=10).contains(&digits) {
        return None;
    }
    // Ten digits cannot overflow a u64.
    let sensor = rest.as_bytes()[..digits].iter().fold(0u64, |n, &b| n * 10 + u64::from(b - b'0'));
    let sensor = u32::try_from(sensor).ok()?;
    let deficit_j = match &rest[digits..] {
        "}" => None,
        tail => {
            let f = tail.strip_prefix(DEFICIT_KEY)?.strip_suffix('}')?;
            let is_digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
            let number =
                f.split_once('.').map_or(is_digits(f), |(w, d)| is_digits(w) && is_digits(d));
            if !number {
                return None;
            }
            let d: f64 = f.parse().ok()?;
            if !d.is_finite() {
                return None;
            }
            Some(d)
        }
    };
    Some(ServeRequest { sensor, deficit_j })
}

/// The general path: a `serde_json::Value` tree, then the two fields.
fn parse_value(line: &str) -> Result<ServeRequest, RequestParseError> {
    let v: Value =
        serde_json::from_str(line).map_err(|e| RequestParseError::Json(format!("{e:?}")))?;
    let sensor = v
        .get("sensor")
        .and_then(Value::as_u64)
        .and_then(|s| u32::try_from(s).ok())
        .ok_or(RequestParseError::MissingSensor)?;
    let deficit_j = match v.get("deficit_j") {
        None | Some(Value::Null) => None,
        Some(d) => {
            let d = d.as_f64().ok_or(RequestParseError::BadDeficit)?;
            if !d.is_finite() || d < 0.0 {
                return Err(RequestParseError::BadDeficit);
            }
            Some(d)
        }
    };
    Ok(ServeRequest { sensor, deficit_j })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Parsed = Result<ServeRequest, RequestParseError>;

    /// Equal sensors, deficits equal bit for bit, errors equal by value.
    fn same(a: &Parsed, b: &Parsed) -> bool {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                let bits = |r: &ServeRequest| r.deficit_j.map(f64::to_bits);
                x.sensor == y.sensor && bits(x) == bits(y)
            }
            (Err(x), Err(y)) => x == y,
            _ => false,
        }
    }

    fn assert_agrees(line: &str) {
        let (parsed, general) = (ServeRequest::parse(line), parse_value(line));
        assert!(same(&parsed, &general), "{line:?}: parse {parsed:?}, Value path {general:?}");
    }

    /// Arbitrary bytes (the vendored proptest has no `u8` instance).
    fn bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u32..256, 0..max_len)
            .prop_map(|v| v.into_iter().map(|b| b as u8).collect())
    }

    /// One of the fuzz wall's byte mutations (`tests/fuzz_wall.rs`):
    /// flip a byte, truncate, splice bytes in, or duplicate a range.
    fn mutation() -> impl Strategy<Value = (u32, usize, u32, Vec<u8>, usize)> {
        (0u32..4, any::<usize>(), 0u32..256, bytes(16), any::<usize>())
    }

    fn mutate(line: &mut Vec<u8>, (tag, at, to, splice, len): &(u32, usize, u32, Vec<u8>, usize)) {
        let n = line.len();
        match tag {
            0 if n > 0 => line[at % n] = *to as u8,
            1 => line.truncate(at % (n + 1)),
            2 => {
                let at = at % (n + 1);
                line.splice(at..at, splice.iter().copied());
            }
            3 if n > 0 => {
                let from = at % n;
                let len = (len % (n - from)).min(64);
                let dup = line[from..from + len].to_vec();
                line.splice(from..from, dup);
            }
            _ => {}
        }
    }

    #[test]
    fn decoder_and_value_path_agree_on_edge_lines() {
        let long = "9".repeat(400);
        let max = u32::MAX;
        let over = u64::from(u32::MAX) + 1;
        let mut lines: Vec<String> = [
            "{\"sensor\": 3, \"deficit_j\": -0}",
            "{\"sensor\": 3, \"deficit_j\": -0.0}",
            "{\"sensor\": 3, \"deficit_j\": -5}",
            "{\"sensor\": 3, \"deficit_j\": -1.5}",
            "{\"sensor\": 007, \"deficit_j\": 0012.50}",
            "{\"sensor\": 0000000017}",
            "{\"sensor\": 00000000017}",
            "{\"sensor\": 3, \"deficit_j\": 1.}",
            "{\"sensor\": 3, \"deficit_j\": .5}",
            "{\"sensor\": 3, \"deficit_j\": 1e5}",
            "{\"sensor\": 3, \"deficit_j\": 1E+5}",
            "{\"sensor\": 3, \"deficit_j\": 0}",
            "{\"sensor\": 3, \"deficit_j\": 9007199254740993}",
            "{\"sensor\": 3, \"deficit_j\": 18446744073709551615}",
            "{\"sensor\": 3, \"deficit_j\": 18446744073709551616}",
            "{\"sensor\": 3, \"deficit_j\": 99999999999999999999}",
            "{\"sensor\": 18446744073709551615}",
            "{\"sensor\": 18446744073709551616}",
            "{\"sensor\": 99999999999999999999, \"deficit_j\": 1}",
            "{\"sensor\": 12345678901}",
            "{\"sensor\": }",
            "{\"sensor\": 3, \"deficit_j\": }",
            "{\"sensor\": 3, \"deficit_j\": null}",
            "{\"sensor\": 3, \"deficit_j\": \"12\"}",
            "{\"deficit_j\": 12.5, \"sensor\": 3}",
            "{\"sensor\": 3, \"sensor\": 4}",
            "{\"sensor\": 3, \"deficit_j\": 1, \"deficit_j\": 2}",
            "{\"sensor\":3,\"deficit_j\":12.5}",
            "{ \"sensor\" : 3 , \"deficit_j\" : 12.5 }",
            "{\"sensor\":  3}",
            " {\"sensor\": 3}",
            "{\"sensor\": 3}\r",
            "{\"sensor\": 3, \"deficit_j\": 12.5}\r",
            "{\"sensor\": 3}}",
            "{\"sensor\": 3}x",
            "{\"sensor\": 3, \"deficit_j\": 12.5}} ",
            "{\"sensor\": 3, \"deficit_j\": 12.5, \"urgent\": true}",
            "{\"sensor\": 3\u{FFFD}}",
            "{\"sensor\": 3, \"deficit_j\": 1\u{FFFD}2}",
            "{\"sens\\u006fr\": 3}",
            "{\"sensor\": 3.0}",
            "",
            "{}",
        ]
        .map(String::from)
        .to_vec();
        lines.extend([
            format!("{{\"sensor\": 3, \"deficit_j\": {long}}}"),
            format!("{{\"sensor\": 3, \"deficit_j\": {long}.5}}"),
            format!("{{\"sensor\": 3, \"deficit_j\": 0.{long}}}"),
            format!("{{\"sensor\": {long}}}"),
            format!("{{\"sensor\": {max}}}"),
            format!("{{\"sensor\": {max}, \"deficit_j\": 1.25}}"),
            format!("{{\"sensor\": {over}}}"),
            format!("{{\"sensor\": {over}, \"deficit_j\": 1.25}}"),
        ]);
        for line in &lines {
            assert_agrees(line);
        }
        // The in-range edges take the direct path; the rest fall back.
        assert_eq!(
            decode_canonical(&format!("{{\"sensor\": {max}}}")),
            Some(ServeRequest { sensor: max, deficit_j: None })
        );
        assert_eq!(
            decode_canonical("{\"sensor\": 007, \"deficit_j\": 0012.50}"),
            Some(ServeRequest { sensor: 7, deficit_j: Some(12.5) })
        );
        assert_eq!(decode_canonical(&format!("{{\"sensor\": {over}}}")), None);
        assert_eq!(decode_canonical("{\"sensor\": 3, \"deficit_j\": -0}"), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever the bytes, both paths give the same answer.
        #[test]
        fn decoder_and_value_path_agree_on_arbitrary_bytes(raw in bytes(64)) {
            assert_agrees(&String::from_utf8_lossy(&raw));
        }

        /// Mutated wire lines sit next to the direct path's forms, where
        /// a decoder slip would show.
        #[test]
        fn decoder_and_value_path_agree_on_mutated_lines(
            sensor in any::<u32>(),
            has_deficit in any::<bool>(),
            deficit in 0.0f64..1.0e9,
            muts in proptest::collection::vec(mutation(), 1..4),
        ) {
            let req = ServeRequest { sensor, deficit_j: has_deficit.then_some(deficit) };
            let mut line = req.to_json_line().into_bytes();
            for m in &muts {
                mutate(&mut line, m);
            }
            assert_agrees(&String::from_utf8_lossy(&line));
        }

        /// Every line `to_json_line` writes for an in-bounds request takes
        /// the direct path: deficits of any magnitude, from subnormal to
        /// near `f64::MAX`, print as plain digits.
        #[test]
        fn decoder_accepts_every_written_line(
            sensor in any::<u32>(),
            bits in any::<u64>(),
            bare in any::<bool>(),
        ) {
            let d = f64::from_bits(bits & !(1 << 63));
            prop_assume!(d.is_finite());
            let req = ServeRequest { sensor, deficit_j: (!bare).then_some(d) };
            let decoded = decode_canonical(&req.to_json_line());
            let direct = decoded.is_some_and(|got| same(&Ok(got), &Ok(req)));
            prop_assert!(direct, "{req:?} decoded as {decoded:?}");
        }
    }

    #[test]
    fn parses_minimal_and_full_requests() {
        assert_eq!(
            ServeRequest::parse("{\"sensor\": 17}"),
            Ok(ServeRequest { sensor: 17, deficit_j: None })
        );
        assert_eq!(
            ServeRequest::parse("{\"sensor\": 3, \"deficit_j\": 120.5}"),
            Ok(ServeRequest { sensor: 3, deficit_j: Some(120.5) })
        );
    }

    #[test]
    fn round_trips_through_the_wire_form() {
        for req in [
            ServeRequest { sensor: 0, deficit_j: None },
            ServeRequest { sensor: 9, deficit_j: Some(42.25) },
        ] {
            assert_eq!(ServeRequest::parse(&req.to_json_line()), Ok(req));
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            ServeRequest::parse("not json"),
            Err(RequestParseError::Json(_))
        ));
        assert_eq!(
            ServeRequest::parse("{\"deficit_j\": 10}"),
            Err(RequestParseError::MissingSensor)
        );
        assert_eq!(
            ServeRequest::parse("{\"sensor\": -4}"),
            Err(RequestParseError::MissingSensor)
        );
        assert_eq!(
            ServeRequest::parse("{\"sensor\": 1, \"deficit_j\": -5}"),
            Err(RequestParseError::BadDeficit)
        );
    }
}
