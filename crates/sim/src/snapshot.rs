//! Crash-safe checkpointing of the round-barrier simulation.
//!
//! A [`Snapshot`] captures the *complete* state of a
//! [`Simulation::run`](crate::Simulation::run) at a round boundary:
//! sensor energies and consumption rates, the dead-time ledger, every
//! service-ledger counter, the per-round statistics so far, the fault,
//! request-channel, telemetry-estimator, topology-churn and
//! charger-energy states including their exact ChaCha stream positions
//! ([`ChaCha12Rng::state_words`]), and the trace ring. Restoring it
//! re-enters the run loop with bit-identical state, so a
//! killed-and-resumed run produces a report equal to the uninterrupted
//! one down to the last `f64` bit.
//!
//! The on-disk format is JSON, but every `f64` is stored as its
//! `to_bits()` `u64` — the vendored `serde_json` preserves `u64`
//! integers exactly, so no decimal round-trip can perturb the state
//! (this also round-trips infinities, which the engine uses as "never"
//! sentinels). Files are written atomically (temp file + rename) so a
//! crash mid-write can never leave a truncated checkpoint behind.

use std::path::{Path, PathBuf};

use rand_chacha::ChaCha12Rng;
use serde_json::{Map, Number, Value};

use wrsn_net::SensorId;

use crate::channel::{ChannelState, InFlight};
use crate::churn::ChurnState;
use crate::energy_state::EnergyFleet;
use crate::fault::FaultState;
use crate::kernel::Ledger;
use crate::report::RoundStats;
use crate::telemetry::EnergyEstimator;
use crate::TraceEvent;

/// Current snapshot format version; bumped on incompatible changes.
///
/// Version history:
/// - 1: PR 3 — fault, channel, trace.
/// - 2: adds the optional `telemetry` section (energy-estimator state).
///   Version-1 files are still accepted; they restore with no estimator,
///   which is exactly the state of a pre-telemetry run.
/// - 3: adds the optional `churn` section (topology-churn state: RNG,
///   hardware-failure schedule, failed/alive masks, repair counters).
///   Version-1 and -2 files are still accepted; they restore with no
///   churn state, which is exactly the state of a pre-churn run. The
///   repaired routing tree itself is not stored — the engine replays
///   [`wrsn_net::Network::repair_routing`] with the snapshot's alive
///   mask on resume, which reproduces it bit-exactly.
/// - 4: adds the optional `energy` section (charger-battery state:
///   per-charger residuals, depot-free instants, stranded flags and
///   strand distances, plus the fleet energy ledger and counters). The
///   energy layer draws no random values, so the section carries no RNG
///   words. Version-1/-2/-3 files are still accepted; they restore with
///   no energy state, which is exactly the state of a pre-energy run.
/// - 5: drops the root `fail_at` array with the retired legacy
///   sensor-failure injection (topology churn supersedes it). Older
///   files are still accepted when their `fail_at` holds no finite
///   time, i.e. when the run they checkpoint never used that injection;
///   any other is refused with [`SnapshotError::Unsupported`].
const FORMAT_VERSION: u64 = 5;

/// Oldest format version [`Snapshot::from_json`] still accepts.
const OLDEST_SUPPORTED_VERSION: u64 = 1;

/// A failed checkpoint write or an unreadable/corrupt snapshot file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem error (message includes the OS detail).
    Io(String),
    /// The file is not valid JSON.
    Json(String),
    /// The JSON parses but is not a valid snapshot; the field names the
    /// first offending element.
    Corrupt(&'static str),
    /// The snapshot's format version is not supported.
    Version(u64),
    /// The snapshot records state of a feature this build no longer
    /// has; the field names it.
    Unsupported(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Json(e) => write!(f, "snapshot is not valid JSON: {e}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::Version(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::Unsupported(what) => {
                write!(f, "snapshot uses a retired feature: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The complete mid-run state of a round-barrier
/// [`Simulation`](crate::Simulation) at a round boundary. Obtain one
/// from a checkpointing run (`Simulation::checkpoint_to`) via
/// [`Snapshot::read`] and feed it to `Simulation::resume_from`.
///
/// The layer states are stored as the run held them; their models are
/// the resuming run's config (a parsed snapshot carries placeholders).
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub(crate) k: usize,
    pub(crate) round: usize,
    pub(crate) t: f64,
    /// Per-sensor `(residual_j, consumption_w)` — consumption too,
    /// because churn repairs change it mid-run.
    pub(crate) sensors: Vec<(f64, f64)>,
    pub(crate) dead: Vec<f64>,
    pub(crate) dead_since: Vec<Option<f64>>,
    pub(crate) ledger: Ledger,
    pub(crate) deferral_count: Vec<u32>,
    pub(crate) rounds: Vec<RoundStats>,
    pub(crate) fault: Option<FaultState>,
    pub(crate) channel: Option<ChannelState>,
    pub(crate) telemetry: Option<EnergyEstimator>,
    pub(crate) churn: Option<ChurnState>,
    pub(crate) energy: Option<EnergyFleet>,
    pub(crate) trace_dropped: usize,
    pub(crate) trace_events: Vec<TraceEvent>,
}

fn bits(x: f64) -> Value {
    Value::Number(Number::U(x.to_bits()))
}

fn uint(x: usize) -> Value {
    Value::Number(Number::U(x as u64))
}

fn f64_of(v: &Value, what: &'static str) -> Result<f64, SnapshotError> {
    v.as_u64().map(f64::from_bits).ok_or(SnapshotError::Corrupt(what))
}

/// A sensor's residual, rate or dead time: refused unless finite and
/// not negative (`-0.0` passes), so no NaN or infinity reaches the
/// kernel.
fn amount_of(v: &Value, what: &'static str) -> Result<f64, SnapshotError> {
    let x = f64_of(v, what)?;
    if x.is_finite() && x >= 0.0 {
        Ok(x)
    } else {
        Err(SnapshotError::Corrupt(what))
    }
}

fn usize_of(v: &Value, what: &'static str) -> Result<usize, SnapshotError> {
    v.as_u64().and_then(|u| usize::try_from(u).ok()).ok_or(SnapshotError::Corrupt(what))
}

fn u32_of(v: &Value, what: &'static str) -> Result<u32, SnapshotError> {
    v.as_u64().and_then(|u| u32::try_from(u).ok()).ok_or(SnapshotError::Corrupt(what))
}

fn array<'v>(v: &'v Value, what: &'static str) -> Result<&'v [Value], SnapshotError> {
    v.as_array().map(Vec::as_slice).ok_or(SnapshotError::Corrupt(what))
}

fn f64_vec(v: &Value, what: &'static str) -> Result<Vec<f64>, SnapshotError> {
    array(v, what)?.iter().map(|x| f64_of(x, what)).collect()
}

fn bool_vec(v: &Value, what: &'static str) -> Result<Vec<bool>, SnapshotError> {
    array(v, what)?.iter().map(|b| b.as_bool().ok_or(SnapshotError::Corrupt(what))).collect()
}

fn bits_vec(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| bits(x)).collect())
}

fn bools(xs: &[bool]) -> Value {
    Value::Array(xs.iter().map(|&b| Value::Bool(b)).collect())
}

fn rng_to_json(rng: &ChaCha12Rng) -> Value {
    Value::Array(
        rng.state_words().iter().map(|&w| Value::Number(Number::U(u64::from(w)))).collect(),
    )
}

fn rng_of(v: &Value) -> Result<ChaCha12Rng, SnapshotError> {
    let arr = array(v, "rng")?;
    if arr.len() != 33 {
        return Err(SnapshotError::Corrupt("rng word count"));
    }
    let mut words = [0u32; 33];
    for (w, x) in words.iter_mut().zip(arr) {
        *w = u32_of(x, "rng word")?;
    }
    if words[32] > 16 {
        return Err(SnapshotError::Corrupt("rng word index"));
    }
    Ok(ChaCha12Rng::from_state_words(&words))
}

/// An object from `(key, value)` pairs.
fn object<const N: usize>(entries: [(&str, Value); N]) -> Value {
    let mut m = Map::new();
    for (key, value) in entries {
        m.insert(key.into(), value);
    }
    Value::Object(m)
}

fn event_to_json(e: &TraceEvent) -> Value {
    let v = match *e {
        TraceEvent::RoundDispatched { at_s, round, requests } => {
            vec![Value::from("rd"), bits(at_s), uint(round), uint(requests)]
        }
        TraceEvent::SensorDied { at_s, sensor } => {
            vec![Value::from("sd"), bits(at_s), uint(sensor.index())]
        }
        TraceEvent::SensorRecharged { at_s, sensor, ended_dead_s } => {
            vec![Value::from("sr"), bits(at_s), uint(sensor.index()), bits(ended_dead_s)]
        }
        TraceEvent::RoundCompleted { at_s, round, longest_delay_s } => {
            vec![Value::from("rc"), bits(at_s), uint(round), bits(longest_delay_s)]
        }
        TraceEvent::ChargerFailed { at_s, charger } => {
            vec![Value::from("cf"), bits(at_s), uint(charger)]
        }
        TraceEvent::RecoveryDispatched { at_s, stranded, chargers } => {
            vec![Value::from("rv"), bits(at_s), uint(stranded), uint(chargers)]
        }
        TraceEvent::RequestLost { at_s, sensor, attempt } => {
            vec![Value::from("rl"), bits(at_s), uint(sensor.index()), uint(attempt as usize)]
        }
        TraceEvent::DuplicateDropped { at_s, sensor } => {
            vec![Value::from("dd"), bits(at_s), uint(sensor.index())]
        }
        TraceEvent::RequestShed { at_s, sensor, deferrals } => {
            vec![Value::from("rs"), bits(at_s), uint(sensor.index()), uint(deferrals as usize)]
        }
        TraceEvent::RequestEscalated { at_s, sensor, deferrals } => {
            vec![Value::from("re"), bits(at_s), uint(sensor.index()), uint(deferrals as usize)]
        }
        TraceEvent::TelemetryCorrected { at_s, sensor, error_j } => {
            vec![Value::from("tc"), bits(at_s), uint(sensor.index()), bits(error_j)]
        }
        TraceEvent::EstimateMiss { at_s, sensor, error_j } => {
            vec![Value::from("em"), bits(at_s), uint(sensor.index()), bits(error_j)]
        }
        TraceEvent::SensorDiedUndetected { at_s, sensor, error_j } => {
            vec![Value::from("du"), bits(at_s), uint(sensor.index()), bits(error_j)]
        }
        TraceEvent::SensorFailed { at_s, sensor } => {
            vec![Value::from("sf"), bits(at_s), uint(sensor.index())]
        }
        TraceEvent::RoutingRepaired { at_s, changed } => {
            vec![Value::from("rr"), bits(at_s), uint(changed)]
        }
        TraceEvent::CascadeDetected { at_s, sensor, factor } => {
            vec![Value::from("cd"), bits(at_s), uint(sensor.index()), bits(factor)]
        }
        TraceEvent::SensorPartitioned { at_s, sensor } => {
            vec![Value::from("sp"), bits(at_s), uint(sensor.index())]
        }
        TraceEvent::ChargerExhausted { at_s, charger } => {
            vec![Value::from("ce"), bits(at_s), uint(charger)]
        }
        TraceEvent::DepotRecharge { at_s, charger, recharged_j } => {
            vec![Value::from("dr"), bits(at_s), uint(charger), bits(recharged_j)]
        }
        TraceEvent::RescueDispatched { at_s, rescuer, stranded } => {
            vec![Value::from("rx"), bits(at_s), uint(rescuer), uint(stranded)]
        }
        TraceEvent::WatchdogTripped { at_s, batch } => {
            vec![Value::from("wt"), bits(at_s), uint(batch)]
        }
        TraceEvent::DurabilityLost { at_s, tick } => {
            vec![Value::from("dl"), bits(at_s), Value::Number(Number::U(tick))]
        }
        TraceEvent::DurabilityRestored { at_s, tick } => {
            vec![Value::from("dg"), bits(at_s), Value::Number(Number::U(tick))]
        }
        TraceEvent::RequestRejected { at_s, sensor, reason } => {
            vec![Value::from("rj"), bits(at_s), uint(sensor.index()), uint(reason.code() as usize)]
        }
        TraceEvent::SensorQuarantined { at_s, sensor, until_s } => {
            vec![Value::from("qn"), bits(at_s), uint(sensor.index()), bits(until_s)]
        }
        TraceEvent::SensorParoled { at_s, sensor } => {
            vec![Value::from("pa"), bits(at_s), uint(sensor.index())]
        }
        TraceEvent::IngressDisconnected { at_s } => {
            vec![Value::from("ix"), bits(at_s)]
        }
    };
    Value::Array(v)
}

fn sensor_id_of(v: &Value) -> Result<SensorId, SnapshotError> {
    Ok(SensorId(u32_of(v, "trace sensor id")?))
}

fn event_of(v: &Value) -> Result<TraceEvent, SnapshotError> {
    let arr = array(v, "trace event")?;
    let tag =
        arr.first().and_then(Value::as_str).ok_or(SnapshotError::Corrupt("trace event tag"))?;
    let field = |i: usize| arr.get(i).ok_or(SnapshotError::Corrupt("trace event arity"));
    let e = match tag {
        "rd" => TraceEvent::RoundDispatched {
            at_s: f64_of(field(1)?, "trace time")?,
            round: usize_of(field(2)?, "trace round")?,
            requests: usize_of(field(3)?, "trace requests")?,
        },
        "sd" => TraceEvent::SensorDied {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
        },
        "sr" => TraceEvent::SensorRecharged {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
            ended_dead_s: f64_of(field(3)?, "trace dead time")?,
        },
        "rc" => TraceEvent::RoundCompleted {
            at_s: f64_of(field(1)?, "trace time")?,
            round: usize_of(field(2)?, "trace round")?,
            longest_delay_s: f64_of(field(3)?, "trace delay")?,
        },
        "cf" => TraceEvent::ChargerFailed {
            at_s: f64_of(field(1)?, "trace time")?,
            charger: usize_of(field(2)?, "trace charger")?,
        },
        "rv" => TraceEvent::RecoveryDispatched {
            at_s: f64_of(field(1)?, "trace time")?,
            stranded: usize_of(field(2)?, "trace stranded")?,
            chargers: usize_of(field(3)?, "trace chargers")?,
        },
        "rl" => TraceEvent::RequestLost {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
            attempt: u32_of(field(3)?, "trace attempt")?,
        },
        "dd" => TraceEvent::DuplicateDropped {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
        },
        "rs" => TraceEvent::RequestShed {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
            deferrals: u32_of(field(3)?, "trace deferrals")?,
        },
        "re" => TraceEvent::RequestEscalated {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
            deferrals: u32_of(field(3)?, "trace deferrals")?,
        },
        "tc" => TraceEvent::TelemetryCorrected {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
            error_j: f64_of(field(3)?, "trace error")?,
        },
        "em" => TraceEvent::EstimateMiss {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
            error_j: f64_of(field(3)?, "trace error")?,
        },
        "du" => TraceEvent::SensorDiedUndetected {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
            error_j: f64_of(field(3)?, "trace error")?,
        },
        "sf" => TraceEvent::SensorFailed {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
        },
        "rr" => TraceEvent::RoutingRepaired {
            at_s: f64_of(field(1)?, "trace time")?,
            changed: usize_of(field(2)?, "trace changed")?,
        },
        "cd" => TraceEvent::CascadeDetected {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
            factor: f64_of(field(3)?, "trace factor")?,
        },
        "sp" => TraceEvent::SensorPartitioned {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
        },
        "ce" => TraceEvent::ChargerExhausted {
            at_s: f64_of(field(1)?, "trace time")?,
            charger: usize_of(field(2)?, "trace charger")?,
        },
        "dr" => TraceEvent::DepotRecharge {
            at_s: f64_of(field(1)?, "trace time")?,
            charger: usize_of(field(2)?, "trace charger")?,
            recharged_j: f64_of(field(3)?, "trace recharge")?,
        },
        "wt" => TraceEvent::WatchdogTripped {
            at_s: f64_of(field(1)?, "trace time")?,
            batch: usize_of(field(2)?, "trace batch")?,
        },
        "rx" => TraceEvent::RescueDispatched {
            at_s: f64_of(field(1)?, "trace time")?,
            rescuer: usize_of(field(2)?, "trace rescuer")?,
            stranded: usize_of(field(3)?, "trace stranded")?,
        },
        "dl" => TraceEvent::DurabilityLost {
            at_s: f64_of(field(1)?, "trace time")?,
            tick: field(2)?.as_u64().ok_or(SnapshotError::Corrupt("trace tick"))?,
        },
        "dg" => TraceEvent::DurabilityRestored {
            at_s: f64_of(field(1)?, "trace time")?,
            tick: field(2)?.as_u64().ok_or(SnapshotError::Corrupt("trace tick"))?,
        },
        "rj" => TraceEvent::RequestRejected {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
            reason: crate::trace::IngressRejectReason::from_code(u32_of(
                field(3)?,
                "trace reject reason",
            )?)
            .ok_or(SnapshotError::Corrupt("trace reject reason code"))?,
        },
        "qn" => TraceEvent::SensorQuarantined {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
            until_s: f64_of(field(3)?, "trace until")?,
        },
        "pa" => TraceEvent::SensorParoled {
            at_s: f64_of(field(1)?, "trace time")?,
            sensor: sensor_id_of(field(2)?)?,
        },
        "ix" => TraceEvent::IngressDisconnected { at_s: f64_of(field(1)?, "trace time")? },
        _ => return Err(SnapshotError::Corrupt("unknown trace event tag")),
    };
    Ok(e)
}

impl Snapshot {
    /// The number of rounds dispatched before this snapshot was taken.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The simulation clock at the capture point, seconds.
    pub fn time_s(&self) -> f64 {
        self.t
    }

    /// The number of sensors in the network the snapshot was taken of.
    pub fn sensor_count(&self) -> usize {
        self.sensors.len()
    }

    /// The number of chargers in the fleet the snapshot was taken of.
    pub fn fleet_size(&self) -> usize {
        self.k
    }

    /// Whether the snapshot was taken by a run with an active topology
    /// churn layer. The CLI uses this to reject a `--resume` whose
    /// flags contradict the snapshot's recorded models.
    pub fn churn_active(&self) -> bool {
        self.churn.is_some()
    }

    /// Whether the snapshot was taken by a run with an active charger
    /// energy layer. The CLI uses this to reject a `--resume` whose
    /// flags contradict the snapshot's recorded models.
    pub fn energy_active(&self) -> bool {
        self.energy.is_some()
    }

    /// Serializes to the on-disk JSON document.
    pub fn to_json(&self) -> Value {
        let l = &self.ledger;
        let counters = object([
            ("failed_sensors", uint(l.failed_sensors)),
            ("charger_failures", uint(l.charger_failures)),
            ("recovery_rounds", uint(l.recovery_rounds)),
            ("charged_sensors", uint(l.charged_sensors)),
            ("recovered_sensors", uint(l.recovered_sensors)),
            ("deferred_sensors", uint(l.deferred_sensors)),
            ("shed_sensors", uint(l.shed_sensors)),
            ("escalated_requests", uint(l.escalated_requests)),
        ]);
        let rounds = self.rounds.iter().map(|r| {
            Value::Array(vec![
                bits(r.dispatch_time_s),
                uint(r.request_count),
                bits(r.longest_delay_s),
                bits(r.total_wait_s),
                uint(r.sojourn_count),
                bits(r.energy_delivered_j),
            ])
        });
        let fault = self.fault.as_ref().map_or(Value::Null, |f| {
            object([
                ("rng", rng_to_json(&f.rng)),
                ("life_left", bits_vec(&f.life_left)),
                ("available_at", bits_vec(&f.available_at)),
            ])
        });
        let channel = self.channel.as_ref().map_or(Value::Null, |c| {
            let inflight = c
                .inflight
                .iter()
                .map(|m| Value::Array(vec![bits(m.deliver_at_s), uint(m.sensor as usize)]));
            object([
                ("rng", rng_to_json(&c.rng)),
                ("wants", bools(&c.wants)),
                ("delivered", bools(&c.delivered)),
                ("attempts", Value::Array(c.attempts.iter().map(|&a| uint(a as usize)).collect())),
                ("next_attempt", bits_vec(&c.next_attempt_s)),
                ("inflight", Value::Array(inflight.collect())),
                ("lost", uint(c.lost_requests)),
                ("dup_dropped", uint(c.duplicates_dropped)),
            ])
        });
        let telemetry = self.telemetry.as_ref().map_or(Value::Null, |tel| {
            object([
                ("rng", rng_to_json(&tel.rng)),
                ("reported", bits_vec(&tel.reported_j)),
                ("report_at", bits_vec(&tel.report_at_s)),
                ("next_report", bits_vec(&tel.next_report_s)),
                ("death_flagged", bools(&tel.death_flagged)),
                ("reports", uint(tel.reports)),
                ("misses", uint(tel.estimate_misses)),
                ("undetected", uint(tel.undetected_deaths)),
                ("errors", bits_vec(&tel.errors_j)),
                ("planned", bits(tel.planned_energy_j)),
                ("delivered", bits(tel.delivered_energy_j)),
                ("overcharge", bits(tel.overcharge_j)),
                ("undercharge", bits(tel.undercharge_j)),
            ])
        });
        let churn = self.churn.as_ref().map_or(Value::Null, |c| {
            object([
                ("rng", rng_to_json(&c.rng)),
                ("fail_at", bits_vec(&c.fail_at)),
                ("failed", bools(&c.failed)),
                ("alive", bools(&c.alive)),
                ("repairs", uint(c.repairs)),
                ("cascades", uint(c.cascades)),
                ("partitioned", uint(c.partitioned)),
                ("violations", uint(c.violations)),
            ])
        });
        let energy = self.energy.as_ref().map_or(Value::Null, |e| {
            object([
                ("residual", bits_vec(&e.residual_j)),
                ("free_at", bits_vec(&e.free_at)),
                ("stranded", bools(&e.stranded)),
                ("strand_dist", bits_vec(&e.strand_dist_m)),
                ("initial", bits(e.initial_j)),
                ("recharged", bits(e.recharged_j)),
                ("traveled", bits(e.traveled_j)),
                ("transfer", bits(e.transfer_j)),
                ("exhaustions", uint(e.exhaustions)),
                ("depot_recharges", uint(e.depot_recharges)),
                ("rescues", uint(e.rescues)),
                ("dropped_stops", uint(e.dropped_stops)),
            ])
        });
        let sensors = self.sensors.iter().map(|&(r, c)| Value::Array(vec![bits(r), bits(c)]));
        let dead_since = self.dead_since.iter().map(|d| d.map_or(Value::Null, bits));
        let deferrals = self.deferral_count.iter().map(|&d| uint(d as usize));
        object([
            ("version", Value::Number(Number::U(FORMAT_VERSION))),
            ("engine", Value::from("sync")),
            ("k", uint(self.k)),
            ("round", uint(self.round)),
            ("t", bits(self.t)),
            ("sensors", Value::Array(sensors.collect())),
            ("dead", bits_vec(&self.dead)),
            ("dead_since", Value::Array(dead_since.collect())),
            ("counters", counters),
            ("deferral_count", Value::Array(deferrals.collect())),
            ("rounds", Value::Array(rounds.collect())),
            ("fault", fault),
            ("channel", channel),
            ("telemetry", telemetry),
            ("churn", churn),
            ("energy", energy),
            (
                "trace",
                object([
                    ("dropped", uint(self.trace_dropped)),
                    ("events", Value::Array(self.trace_events.iter().map(event_to_json).collect())),
                ]),
            ),
        ])
    }

    /// Deserializes a snapshot from its JSON document. A section that
    /// is absent (older versions) or `null` restores as an inert layer.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the first invalid element,
    /// [`SnapshotError::Version`] for an unsupported format version, or
    /// [`SnapshotError::Unsupported`] for a pre-v5 file that recorded
    /// legacy sensor-failure times.
    pub fn from_json(v: &Value) -> Result<Snapshot, SnapshotError> {
        let version = v["version"].as_u64().ok_or(SnapshotError::Corrupt("version"))?;
        if !(OLDEST_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(SnapshotError::Version(version));
        }
        if v["engine"].as_str() != Some("sync") {
            return Err(SnapshotError::Corrupt("engine"));
        }
        if version < 5 && f64_vec(&v["fail_at"], "fail_at")?.iter().any(|f| f.is_finite()) {
            return Err(SnapshotError::Unsupported("legacy sensor-failure times (fail_at)"));
        }
        let sensors = array(&v["sensors"], "sensors")?
            .iter()
            .map(|p| match array(p, "sensor pair")? {
                [r, c] => Ok((amount_of(r, "sensor residual")?, amount_of(c, "sensor rate")?)),
                _ => Err(SnapshotError::Corrupt("sensor pair")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let dead_since = array(&v["dead_since"], "dead_since")?
            .iter()
            .map(|d| if d.is_null() { Ok(None) } else { f64_of(d, "dead_since").map(Some) })
            .collect::<Result<Vec<_>, _>>()?;
        let c = &v["counters"];
        let ledger = Ledger {
            failed_sensors: usize_of(&c["failed_sensors"], "failed_sensors")?,
            charger_failures: usize_of(&c["charger_failures"], "charger_failures")?,
            recovery_rounds: usize_of(&c["recovery_rounds"], "recovery_rounds")?,
            charged_sensors: usize_of(&c["charged_sensors"], "charged_sensors")?,
            recovered_sensors: usize_of(&c["recovered_sensors"], "recovered_sensors")?,
            deferred_sensors: usize_of(&c["deferred_sensors"], "deferred_sensors")?,
            shed_sensors: usize_of(&c["shed_sensors"], "shed_sensors")?,
            escalated_requests: usize_of(&c["escalated_requests"], "escalated_requests")?,
        };
        let rounds = array(&v["rounds"], "rounds")?
            .iter()
            .map(|r| match array(r, "round stats")? {
                [at, requests, delay, wait, sojourns, energy] => Ok(RoundStats {
                    dispatch_time_s: f64_of(at, "round dispatch time")?,
                    request_count: usize_of(requests, "round request count")?,
                    longest_delay_s: f64_of(delay, "round delay")?,
                    total_wait_s: f64_of(wait, "round wait")?,
                    sojourn_count: usize_of(sojourns, "round sojourns")?,
                    energy_delivered_j: f64_of(energy, "round energy")?,
                }),
                _ => Err(SnapshotError::Corrupt("round stats arity")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Each layer section: `None` when absent (indexing a missing key
        // yields Null) or an explicit null.
        let section = |key: &str| Some(&v[key]).filter(|s| !s.is_null());
        let fault = match section("fault") {
            None => None,
            Some(f) => Some(FaultState {
                model: Default::default(),
                rng: rng_of(&f["rng"])?,
                life_left: f64_vec(&f["life_left"], "fault life")?,
                available_at: f64_vec(&f["available_at"], "fault availability")?,
            }),
        };
        let channel = match section("channel") {
            None => None,
            Some(c) => Some(ChannelState {
                model: Default::default(),
                rng: rng_of(&c["rng"])?,
                wants: bool_vec(&c["wants"], "channel wants")?,
                delivered: bool_vec(&c["delivered"], "channel delivered")?,
                attempts: array(&c["attempts"], "channel attempts")?
                    .iter()
                    .map(|a| u32_of(a, "channel attempts"))
                    .collect::<Result<_, _>>()?,
                next_attempt_s: f64_vec(&c["next_attempt"], "channel retry times")?,
                inflight: array(&c["inflight"], "channel inflight")?
                    .iter()
                    .map(|m| match array(m, "inflight pair")? {
                        [at, sensor] => Ok(InFlight {
                            deliver_at_s: f64_of(at, "inflight time")?,
                            sensor: u32_of(sensor, "inflight sensor")?,
                        }),
                        _ => Err(SnapshotError::Corrupt("inflight pair")),
                    })
                    .collect::<Result<_, _>>()?,
                lost_requests: usize_of(&c["lost"], "channel lost")?,
                duplicates_dropped: usize_of(&c["dup_dropped"], "channel duplicates")?,
            }),
        };
        let telemetry = match section("telemetry") {
            None => None,
            Some(tel) => Some(EnergyEstimator {
                model: Default::default(),
                rng: rng_of(&tel["rng"])?,
                reported_j: f64_vec(&tel["reported"], "telemetry reported")?,
                report_at_s: f64_vec(&tel["report_at"], "telemetry report times")?,
                next_report_s: f64_vec(&tel["next_report"], "telemetry schedule")?,
                death_flagged: bool_vec(&tel["death_flagged"], "telemetry death flags")?,
                reports: usize_of(&tel["reports"], "telemetry report count")?,
                estimate_misses: usize_of(&tel["misses"], "telemetry misses")?,
                undetected_deaths: usize_of(&tel["undetected"], "telemetry undetected")?,
                errors_j: f64_vec(&tel["errors"], "telemetry errors")?,
                planned_energy_j: f64_of(&tel["planned"], "telemetry planned")?,
                delivered_energy_j: f64_of(&tel["delivered"], "telemetry delivered")?,
                overcharge_j: f64_of(&tel["overcharge"], "telemetry overcharge")?,
                undercharge_j: f64_of(&tel["undercharge"], "telemetry undercharge")?,
            }),
        };
        let churn = match section("churn") {
            None => None,
            Some(c) => Some(ChurnState {
                model: Default::default(),
                rng: rng_of(&c["rng"])?,
                fail_at: f64_vec(&c["fail_at"], "churn fail times")?,
                failed: bool_vec(&c["failed"], "churn failed mask")?,
                alive: bool_vec(&c["alive"], "churn alive mask")?,
                repairs: usize_of(&c["repairs"], "churn repairs")?,
                cascades: usize_of(&c["cascades"], "churn cascades")?,
                partitioned: usize_of(&c["partitioned"], "churn partitioned")?,
                violations: usize_of(&c["violations"], "churn violations")?,
            }),
        };
        let energy = match section("energy") {
            None => None,
            Some(e) => Some(EnergyFleet {
                model: Default::default(),
                residual_j: f64_vec(&e["residual"], "energy residuals")?,
                free_at: f64_vec(&e["free_at"], "energy free times")?,
                stranded: bool_vec(&e["stranded"], "energy stranded mask")?,
                strand_dist_m: f64_vec(&e["strand_dist"], "energy strand distances")?,
                initial_j: f64_of(&e["initial"], "energy initial")?,
                recharged_j: f64_of(&e["recharged"], "energy recharged")?,
                traveled_j: f64_of(&e["traveled"], "energy traveled")?,
                transfer_j: f64_of(&e["transfer"], "energy transfer")?,
                exhaustions: usize_of(&e["exhaustions"], "energy exhaustions")?,
                depot_recharges: usize_of(&e["depot_recharges"], "energy recharge count")?,
                rescues: usize_of(&e["rescues"], "energy rescues")?,
                dropped_stops: usize_of(&e["dropped_stops"], "energy dropped stops")?,
            }),
        };
        let trace_events = array(&v["trace"]["events"], "trace events")?
            .iter()
            .map(event_of)
            .collect::<Result<Vec<_>, _>>()?;
        let snap = Snapshot {
            k: usize_of(&v["k"], "k")?,
            round: usize_of(&v["round"], "round")?,
            t: f64_of(&v["t"], "t")?,
            sensors,
            dead: array(&v["dead"], "dead")?
                .iter()
                .map(|d| amount_of(d, "dead"))
                .collect::<Result<_, _>>()?,
            dead_since,
            ledger,
            deferral_count: array(&v["deferral_count"], "deferral_count")?
                .iter()
                .map(|d| u32_of(d, "deferral_count"))
                .collect::<Result<_, _>>()?,
            rounds,
            fault,
            channel,
            telemetry,
            churn,
            energy,
            trace_dropped: usize_of(&v["trace"]["dropped"], "trace dropped")?,
            trace_events,
        };
        snap.check_lengths()?;
        let n = snap.sensors.len();
        if snap.channel.as_ref().is_some_and(|c| c.inflight.iter().any(|m| m.sensor as usize >= n)) {
            return Err(SnapshotError::Corrupt("inflight sensor"));
        }
        Ok(snap)
    }

    /// Refuses a per-sensor array without one entry per element of
    /// `sensors`, or a per-charger array without `k` entries, naming
    /// the first such array.
    fn check_lengths(&self) -> Result<(), SnapshotError> {
        let (n, k) = (self.sensors.len(), self.k);
        let mut lens = vec![
            (self.dead.len(), n, "dead"),
            (self.dead_since.len(), n, "dead_since"),
            (self.deferral_count.len(), n, "deferral_count"),
        ];
        if let Some(f) = &self.fault {
            lens.push((f.life_left.len(), k, "fault life"));
            lens.push((f.available_at.len(), k, "fault availability"));
        }
        if let Some(c) = &self.channel {
            lens.push((c.wants.len(), n, "channel wants"));
            lens.push((c.delivered.len(), n, "channel delivered"));
            lens.push((c.attempts.len(), n, "channel attempts"));
            lens.push((c.next_attempt_s.len(), n, "channel retry times"));
        }
        if let Some(tel) = &self.telemetry {
            lens.push((tel.reported_j.len(), n, "telemetry reported"));
            lens.push((tel.report_at_s.len(), n, "telemetry report times"));
            lens.push((tel.next_report_s.len(), n, "telemetry schedule"));
            lens.push((tel.death_flagged.len(), n, "telemetry death flags"));
        }
        if let Some(c) = &self.churn {
            lens.push((c.fail_at.len(), n, "churn fail times"));
            lens.push((c.failed.len(), n, "churn failed mask"));
            lens.push((c.alive.len(), n, "churn alive mask"));
        }
        if let Some(e) = &self.energy {
            lens.push((e.residual_j.len(), k, "energy residuals"));
            lens.push((e.free_at.len(), k, "energy free times"));
            lens.push((e.stranded.len(), k, "energy stranded mask"));
            lens.push((e.strand_dist_m.len(), k, "energy strand distances"));
        }
        match lens.into_iter().find(|&(len, want, _)| len != want) {
            Some((_, _, what)) => Err(SnapshotError::Corrupt(what)),
            None => Ok(()),
        }
    }

    /// Writes the snapshot atomically **and durably** to
    /// `dir/checkpoint_round{NNNN}.json` and returns the final path.
    /// Creates `dir` if needed. The body goes through
    /// [`persist::write_atomic`](crate::persist::write_atomic): temp
    /// file, file fsync, rename, parent-directory fsync — so a power
    /// loss at any instant surfaces either the complete previous
    /// checkpoint or the complete new one, never a torn file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on any filesystem failure.
    pub fn write_to_dir(&self, dir: &Path, round: usize) -> Result<PathBuf, SnapshotError> {
        std::fs::create_dir_all(dir).map_err(|e| SnapshotError::Io(e.to_string()))?;
        let path = dir.join(format!("checkpoint_round{round:04}.json"));
        let body = serde_json::to_string_pretty(&self.to_json())
            .map_err(|e| SnapshotError::Json(e.to_string()))?;
        crate::persist::write_atomic(&path, body.as_bytes())
            .map_err(|e| SnapshotError::Io(e.to_string()))?;
        Ok(path)
    }

    /// Reads and parses a snapshot file written by [`Snapshot::write_to_dir`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be read,
    /// [`SnapshotError::Json`] / [`SnapshotError::Corrupt`] /
    /// [`SnapshotError::Version`] if its contents are invalid.
    pub fn read(path: &Path) -> Result<Snapshot, SnapshotError> {
        let body = std::fs::read_to_string(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        let v = serde_json::from_str(&body).map_err(|e| SnapshotError::Json(e.to_string()))?;
        Snapshot::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> ChaCha12Rng {
        use rand::{RngCore, SeedableRng};
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        // Mid-block, so the restored word index is exercised too.
        rng.next_u32();
        rng
    }

    fn sample() -> Snapshot {
        Snapshot {
            k: 2,
            round: 3,
            t: 12_345.678_901_234,
            sensors: vec![(123.456, 0.05), (10_800.0, 0.0)],
            dead: vec![0.0, 42.25],
            dead_since: vec![None, Some(99.5)],
            ledger: Ledger {
                failed_sensors: 1,
                charger_failures: 2,
                recovery_rounds: 1,
                charged_sensors: 10,
                recovered_sensors: 2,
                deferred_sensors: 3,
                shed_sensors: 4,
                escalated_requests: 1,
            },
            deferral_count: vec![0, 5],
            rounds: vec![RoundStats {
                dispatch_time_s: 100.125,
                request_count: 7,
                longest_delay_s: 5_000.5,
                total_wait_s: 12.0,
                sojourn_count: 9,
                energy_delivered_j: 80_000.0,
            }],
            fault: Some(FaultState {
                model: Default::default(),
                rng: rng(1),
                life_left: vec![1.5, f64::INFINITY],
                available_at: vec![0.0, 7_200.0],
            }),
            channel: Some(ChannelState {
                model: Default::default(),
                rng: rng(2),
                wants: vec![true, false],
                delivered: vec![false, false],
                attempts: vec![3, 0],
                next_attempt_s: vec![600.0, f64::INFINITY],
                inflight: vec![InFlight { deliver_at_s: 650.0, sensor: 0 }],
                lost_requests: 3,
                duplicates_dropped: 1,
            }),
            telemetry: Some(EnergyEstimator {
                model: Default::default(),
                rng: rng(3),
                reported_j: vec![5_000.25, 10_800.0],
                report_at_s: vec![600.0, 0.0],
                next_report_s: vec![1_200.0, f64::INFINITY],
                death_flagged: vec![false, true],
                reports: 4,
                estimate_misses: 1,
                undetected_deaths: 1,
                errors_j: vec![-12.5, 3.0],
                planned_energy_j: 9_000.0,
                delivered_energy_j: 8_500.0,
                overcharge_j: 500.0,
                undercharge_j: 25.0,
            }),
            churn: Some(ChurnState {
                model: Default::default(),
                rng: rng(4),
                fail_at: vec![f64::INFINITY, 2.5e6],
                failed: vec![true, false],
                alive: vec![false, true],
                repairs: 3,
                cascades: 1,
                partitioned: 1,
                violations: 0,
            }),
            energy: Some(EnergyFleet {
                model: Default::default(),
                residual_j: vec![250_000.0, 0.0],
                free_at: vec![12_000.0, 13_500.0],
                stranded: vec![false, true],
                strand_dist_m: vec![0.0, 42.5],
                initial_j: 800_000.0,
                recharged_j: 150_000.0,
                traveled_j: 300_000.0,
                transfer_j: 400_000.0,
                exhaustions: 1,
                depot_recharges: 2,
                rescues: 1,
                dropped_stops: 3,
            }),
            trace_dropped: 2,
            trace_events: vec![
                TraceEvent::RoundDispatched { at_s: 0.0, round: 0, requests: 3 },
                TraceEvent::SensorDied { at_s: 1.5, sensor: SensorId(1) },
                TraceEvent::SensorRecharged {
                    at_s: 2.0,
                    sensor: SensorId(1),
                    ended_dead_s: 0.5,
                },
                TraceEvent::RoundCompleted { at_s: 3.0, round: 0, longest_delay_s: 3.0 },
                TraceEvent::ChargerFailed { at_s: 4.0, charger: 1 },
                TraceEvent::RecoveryDispatched { at_s: 5.0, stranded: 2, chargers: 1 },
                TraceEvent::RequestLost { at_s: 6.0, sensor: SensorId(0), attempt: 2 },
                TraceEvent::DuplicateDropped { at_s: 7.0, sensor: SensorId(0) },
                TraceEvent::RequestShed { at_s: 8.0, sensor: SensorId(1), deferrals: 1 },
                TraceEvent::RequestEscalated { at_s: 9.0, sensor: SensorId(1), deferrals: 4 },
                TraceEvent::TelemetryCorrected {
                    at_s: 10.0,
                    sensor: SensorId(0),
                    error_j: -42.5,
                },
                TraceEvent::EstimateMiss { at_s: 11.0, sensor: SensorId(0), error_j: 99.0 },
                TraceEvent::SensorDiedUndetected {
                    at_s: 12.0,
                    sensor: SensorId(1),
                    error_j: 7.25,
                },
                TraceEvent::SensorFailed { at_s: 13.0, sensor: SensorId(0) },
                TraceEvent::RoutingRepaired { at_s: 13.0, changed: 2 },
                TraceEvent::CascadeDetected {
                    at_s: 13.0,
                    sensor: SensorId(1),
                    factor: 1.75,
                },
                TraceEvent::SensorPartitioned { at_s: 13.0, sensor: SensorId(1) },
                TraceEvent::ChargerExhausted { at_s: 14.0, charger: 1 },
                TraceEvent::RescueDispatched { at_s: 15.0, rescuer: 0, stranded: 1 },
                TraceEvent::DepotRecharge { at_s: 15.0, charger: 1, recharged_j: 640_000.0 },
            ],
        }
    }

    /// `Debug` prints every field, each `f64` in its shortest
    /// round-trip form and each RNG as its raw state, so equal text
    /// means a bit-exact round trip.
    fn assert_round_trip_equal(a: &Snapshot, b: &Snapshot) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let snap = sample();
        let text = serde_json::to_string_pretty(&snap.to_json()).expect("printable");
        let parsed = serde_json::from_str(&text).expect("snapshot JSON must parse");
        let back = Snapshot::from_json(&parsed).expect("snapshot must deserialize");
        assert_round_trip_equal(&snap, &back);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("wrsn_snapshot_test");
        let snap = sample();
        let path = snap.write_to_dir(&dir, snap.round()).expect("write");
        assert!(path.ends_with("checkpoint_round0003.json"));
        let back = Snapshot::read(&path).expect("read");
        assert_round_trip_equal(&snap, &back);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checkpoint_replace_is_torn_write_safe() {
        // The atomic-write protocol must leave either the complete old
        // checkpoint or the complete new one — a failed replace (here a
        // directory squatting on the target path) must not leave a
        // partial file or a stray temporary, and a successful rewrite
        // must fully replace the body.
        let dir = std::env::temp_dir()
            .join(format!("wrsn_snapshot_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snap = sample();
        let path = snap.write_to_dir(&dir, 7).expect("first write");
        let first = std::fs::read_to_string(&path).expect("readable");
        // Overwrite with a different round count to change the body.
        let mut bigger = sample();
        bigger.rounds.push(bigger.rounds.last().expect("sample has rounds").clone());
        let path2 = bigger.write_to_dir(&dir, 7).expect("rewrite");
        assert_eq!(path, path2);
        let second = std::fs::read_to_string(&path).expect("readable");
        assert_ne!(first, second, "rewrite must replace the body");
        let back = Snapshot::read(&path).expect("replaced checkpoint parses");
        assert_eq!(back.rounds.len(), bigger.rounds.len());
        // Failure path: target occupied by a directory — the write
        // errors, the obstruction survives, and no temp file remains.
        let blocked = dir.join("checkpoint_round0008.json");
        std::fs::create_dir_all(&blocked).expect("plant obstruction");
        assert!(matches!(snap.write_to_dir(&dir, 8), Err(SnapshotError::Io(_))));
        assert!(blocked.is_dir());
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .expect("listable")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "no temporaries may survive: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut v = sample().to_json();
        if let Value::Object(m) = &mut v {
            m.insert("version".into(), Value::Number(Number::U(99)));
        }
        assert_eq!(Snapshot::from_json(&v).err(), Some(SnapshotError::Version(99)));
    }

    #[test]
    fn version_1_without_telemetry_key_still_parses() {
        // A file written by the previous release: version 1, no
        // "telemetry" key at all (not even an explicit null), and none of
        // the PR 4 trace tags. It must restore with `telemetry: None`.
        // The vendored Map has no `remove`, so rebuild the document
        // entry by entry, skipping/patching as a v1 writer would.
        let v = sample().to_json();
        let mut root = Map::new();
        root.insert("version".into(), Value::Number(Number::U(1)));
        root.insert("fail_at".into(), bits_vec(&[f64::INFINITY; 2]));
        if let Value::Object(m) = &v {
            for (key, val) in m.iter() {
                match key.as_str() {
                    "version" | "telemetry" | "churn" => {}
                    "trace" => {
                        let mut tr = Map::new();
                        tr.insert("dropped".into(), val["dropped"].clone());
                        let events = val["events"]
                            .as_array()
                            .expect("trace events array")
                            .iter()
                            .filter(|e| {
                                !matches!(
                                    e.as_array()
                                        .and_then(|a| a.first())
                                        .and_then(Value::as_str),
                                    Some("tc" | "em" | "du" | "sf" | "rr" | "cd" | "sp")
                                )
                            })
                            .cloned()
                            .collect();
                        tr.insert("events".into(), Value::Array(events));
                        root.insert(key.clone(), Value::Object(tr));
                    }
                    _ => root.insert(key.clone(), val.clone()),
                }
            }
        }
        let v = Value::Object(root);
        let back = Snapshot::from_json(&v).expect("v1 snapshot must parse");
        assert!(back.telemetry.is_none());
        assert_eq!(back.round, sample().round);
        assert!(back
            .trace_events
            .iter()
            .all(|e| !matches!(e, TraceEvent::TelemetryCorrected { .. })));
    }

    #[test]
    fn version_2_without_churn_key_still_parses() {
        // A file written by the previous release: version 2, no "churn"
        // key at all (not even an explicit null), and none of the PR 5
        // trace tags. It must restore with `churn: None`. The vendored
        // Map has no `remove`, so rebuild the document entry by entry,
        // skipping/patching as a v2 writer would.
        let v = sample().to_json();
        let mut root = Map::new();
        root.insert("version".into(), Value::Number(Number::U(2)));
        root.insert("fail_at".into(), bits_vec(&[f64::INFINITY; 2]));
        if let Value::Object(m) = &v {
            for (key, val) in m.iter() {
                match key.as_str() {
                    "version" | "churn" => {}
                    "trace" => {
                        let mut tr = Map::new();
                        tr.insert("dropped".into(), val["dropped"].clone());
                        let events = val["events"]
                            .as_array()
                            .expect("trace events array")
                            .iter()
                            .filter(|e| {
                                !matches!(
                                    e.as_array()
                                        .and_then(|a| a.first())
                                        .and_then(Value::as_str),
                                    Some("sf" | "rr" | "cd" | "sp")
                                )
                            })
                            .cloned()
                            .collect();
                        tr.insert("events".into(), Value::Array(events));
                        root.insert(key.clone(), Value::Object(tr));
                    }
                    _ => root.insert(key.clone(), val.clone()),
                }
            }
        }
        let v = Value::Object(root);
        let back = Snapshot::from_json(&v).expect("v2 snapshot must parse");
        assert!(back.churn.is_none());
        assert!(!back.churn_active());
        assert!(back.telemetry.is_some(), "v2 telemetry section must survive");
        assert_eq!(back.round, sample().round);
        assert!(back
            .trace_events
            .iter()
            .all(|e| !matches!(e, TraceEvent::RoutingRepaired { .. })));
    }

    #[test]
    fn explicit_null_churn_parses_as_none() {
        let mut v = sample().to_json();
        if let Value::Object(m) = &mut v {
            m.insert("churn".into(), Value::Null);
        }
        let back = Snapshot::from_json(&v).expect("null churn must parse");
        assert!(back.churn.is_none());
        assert!(!back.churn_active());
    }

    #[test]
    fn explicit_null_telemetry_parses_as_none() {
        let mut v = sample().to_json();
        if let Value::Object(m) = &mut v {
            m.insert("telemetry".into(), Value::Null);
        }
        let back = Snapshot::from_json(&v).expect("null telemetry must parse");
        assert!(back.telemetry.is_none());
    }

    #[test]
    fn version_3_without_energy_key_still_parses() {
        // A file written by the previous release: version 3, no "energy"
        // key at all (not even an explicit null), and none of the PR 6
        // trace tags. It must restore with `energy: None`. The vendored
        // Map has no `remove`, so rebuild the document entry by entry,
        // skipping/patching as a v3 writer would.
        let v = sample().to_json();
        let mut root = Map::new();
        root.insert("version".into(), Value::Number(Number::U(3)));
        root.insert("fail_at".into(), bits_vec(&[f64::INFINITY; 2]));
        if let Value::Object(m) = &v {
            for (key, val) in m.iter() {
                match key.as_str() {
                    "version" | "energy" => {}
                    "trace" => {
                        let mut tr = Map::new();
                        tr.insert("dropped".into(), val["dropped"].clone());
                        let events = val["events"]
                            .as_array()
                            .expect("trace events array")
                            .iter()
                            .filter(|e| {
                                !matches!(
                                    e.as_array()
                                        .and_then(|a| a.first())
                                        .and_then(Value::as_str),
                                    Some("ce" | "dr" | "rx")
                                )
                            })
                            .cloned()
                            .collect();
                        tr.insert("events".into(), Value::Array(events));
                        root.insert(key.clone(), Value::Object(tr));
                    }
                    _ => root.insert(key.clone(), val.clone()),
                }
            }
        }
        let v = Value::Object(root);
        let back = Snapshot::from_json(&v).expect("v3 snapshot must parse");
        assert!(back.energy.is_none());
        assert!(!back.energy_active());
        assert!(back.churn.is_some(), "v3 churn section must survive");
        assert_eq!(back.round, sample().round);
        assert!(back
            .trace_events
            .iter()
            .all(|e| !matches!(e, TraceEvent::ChargerExhausted { .. })));
    }

    #[test]
    fn explicit_null_energy_parses_as_none() {
        let mut v = sample().to_json();
        if let Value::Object(m) = &mut v {
            m.insert("energy".into(), Value::Null);
        }
        let back = Snapshot::from_json(&v).expect("null energy must parse");
        assert!(back.energy.is_none());
        assert!(!back.energy_active());
    }

    /// `sample()` as a version-4 writer laid it out: a root `fail_at`
    /// array holding `fail_at`.
    fn version_4(fail_at: [f64; 2]) -> Value {
        let mut v = sample().to_json();
        if let Value::Object(m) = &mut v {
            m.insert("version".into(), Value::Number(Number::U(4)));
            m.insert("fail_at".into(), bits_vec(&fail_at));
        }
        v
    }

    #[test]
    fn version_5_drops_fail_at() {
        let v = sample().to_json();
        assert_eq!(v["version"].as_u64(), Some(5));
        assert!(v["fail_at"].is_null(), "v5 writes no legacy failure times");
    }

    #[test]
    fn version_4_without_failures_still_parses() {
        let back = Snapshot::from_json(&version_4([f64::INFINITY; 2])).expect("v4 must parse");
        assert_round_trip_equal(&sample(), &back);
    }

    #[test]
    fn legacy_failure_times_are_refused() {
        // A pre-v5 run that used the retired failure injection cannot be
        // resumed faithfully: the failures would silently never happen.
        assert!(matches!(
            Snapshot::from_json(&version_4([f64::INFINITY, 1.0e7])),
            Err(SnapshotError::Unsupported(_))
        ));
        let mut v = version_4([f64::INFINITY; 2]);
        if let Value::Object(m) = &mut v {
            m.insert("fail_at".into(), Value::from("not an array"));
        }
        assert_eq!(Snapshot::from_json(&v).err(), Some(SnapshotError::Corrupt("fail_at")));
    }

    #[test]
    fn corrupt_rng_word_index_is_an_error_not_a_panic() {
        let mut v = sample().to_json();
        if let Value::Object(m) = &mut v {
            let mut words: Vec<Value> = vec![Value::Number(Number::U(0)); 33];
            words[32] = Value::Number(Number::U(17));
            let mut fault = Map::new();
            fault.insert("rng".into(), Value::Array(words));
            fault.insert("life_left".into(), bits_vec(&[1.0, 1.0]));
            fault.insert("available_at".into(), bits_vec(&[0.0, 0.0]));
            m.insert("fault".into(), Value::Object(fault));
        }
        assert_eq!(Snapshot::from_json(&v).err(), Some(SnapshotError::Corrupt("rng word index")));
    }

    #[test]
    fn truncated_file_is_clean_json_error() {
        // A checkpoint chopped mid-write (e.g. by a full disk bypassing
        // the atomic rename) must surface as a typed error, not a panic.
        let dir = std::env::temp_dir().join("wrsn_snapshot_truncated_test");
        let snap = sample();
        let path = snap.write_to_dir(&dir, snap.round()).expect("write");
        let body = std::fs::read_to_string(&path).expect("read back");
        let cut = path.with_extension("truncated.json");
        std::fs::write(&cut, &body[..body.len() / 2]).expect("write truncated");
        let err = Snapshot::read(&cut).unwrap_err();
        assert!(matches!(err, SnapshotError::Json(_)), "got {err:?}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(cut).ok();
    }

    #[test]
    fn bit_flipped_file_is_clean_error() {
        // Flip one byte inside the document body: depending on where it
        // lands this is either invalid JSON or a corrupt/mis-typed field,
        // but it must never panic and never parse back bit-identical.
        let dir = std::env::temp_dir().join("wrsn_snapshot_bitflip_test");
        let snap = sample();
        let path = snap.write_to_dir(&dir, snap.round()).expect("write");
        let mut body = std::fs::read(&path).expect("read back");
        // Corrupt the "version" key itself: a structurally valid
        // document with an unknown shape, the worst case for a parser.
        let pos = body.windows(9).position(|w| w == b"\"version\"").expect("version key") + 1;
        body[pos] = b'x';
        let bad = path.with_extension("bitflip.json");
        std::fs::write(&bad, &body).expect("write corrupted");
        match Snapshot::read(&bad) {
            Err(
                SnapshotError::Json(_) | SnapshotError::Corrupt(_) | SnapshotError::Version(_),
            ) => {}
            other => panic!("expected a typed error, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
        std::fs::remove_file(bad).ok();
    }

    #[test]
    fn corrupt_field_names_the_culprit() {
        let mut v = sample().to_json();
        if let Value::Object(m) = &mut v {
            m.insert("t".into(), Value::from("not a number"));
        }
        match Snapshot::from_json(&v) {
            Err(SnapshotError::Corrupt(what)) => assert_eq!(what, "t"),
            other => panic!("expected Corrupt(t), got {other:?}"),
        }
    }

    /// `m[key]` with its last entry dropped.
    fn shortened(m: &Map, key: &str) -> Value {
        let mut xs = m.get(key).and_then(Value::as_array).expect("array").clone();
        xs.pop();
        Value::Array(xs)
    }

    #[test]
    fn short_per_sensor_array_is_refused() {
        let mut v = sample().to_json();
        if let Value::Object(m) = &mut v {
            m.insert("dead_since".into(), shortened(m, "dead_since"));
        }
        assert_eq!(Snapshot::from_json(&v).err(), Some(SnapshotError::Corrupt("dead_since")));
    }

    #[test]
    fn short_per_charger_array_is_refused() {
        let mut v = sample().to_json();
        if let Value::Object(m) = &mut v {
            let mut energy = m.get("energy").and_then(Value::as_object).expect("energy").clone();
            energy.insert("residual".into(), shortened(&energy, "residual"));
            m.insert("energy".into(), Value::Object(energy));
        }
        assert_eq!(
            Snapshot::from_json(&v).err(),
            Some(SnapshotError::Corrupt("energy residuals"))
        );
    }

    #[test]
    fn inflight_sensor_outside_the_network_is_refused() {
        let mut snap = sample();
        snap.channel.as_mut().expect("channel").inflight[0].sensor = 2; // of 2 sensors
        assert_eq!(
            Snapshot::from_json(&snap.to_json()).err(),
            Some(SnapshotError::Corrupt("inflight sensor"))
        );
    }

    #[test]
    fn non_finite_or_negative_sensor_values_are_refused() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut residual = sample();
            residual.sensors[0].0 = bad;
            let mut rate = sample();
            rate.sensors[1].1 = bad;
            let mut dead = sample();
            dead.dead[1] = bad;
            for (snap, what) in
                [(residual, "sensor residual"), (rate, "sensor rate"), (dead, "dead")]
            {
                assert_eq!(
                    Snapshot::from_json(&snap.to_json()).err(),
                    Some(SnapshotError::Corrupt(what)),
                    "{what} = {bad}"
                );
            }
        }
        let mut zeros = sample();
        zeros.sensors[0] = (-0.0, -0.0);
        zeros.dead[0] = -0.0;
        assert!(Snapshot::from_json(&zeros.to_json()).is_ok(), "-0.0 is not negative");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Snapshot::read(Path::new("/nonexistent/checkpoint.json")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
    }
}
