//! Ingress guard: byzantine-request defense for the serve engine.
//!
//! On-demand charging requests carry *self-reported* state (deficit,
//! urgency) that directly drives dispatch priority, so a lying or
//! flooding sensor can starve honest ones. This module is the trust
//! boundary the engine applies between "the sensor index exists" and
//! "the request is accepted":
//!
//! - **Per-sensor token bucket** — each sensor earns
//!   [`GuardConfig::rate_per_s`] admission tokens per service second up
//!   to a burst of [`GuardConfig::burst`]; an arrival with the bucket
//!   empty is rejected ([`IngressRejectReason::RateLimited`]) and
//!   strikes.
//! - **Replay / duplicate-flood window** — an identical request
//!   (same sensor, bit-identical deficit) repeated more than
//!   [`GuardConfig::replay_limit`] times within
//!   [`GuardConfig::replay_window_s`] is rejected
//!   ([`IngressRejectReason::Replayed`]) and strikes.
//! - **Deficit plausibility** — a reported deficit is cross-checked
//!   against the dead-reckoned truth the engine knows: a sensor charged
//!   full at `t0` can have accumulated at most
//!   `consumption_w · (now − t0)` joules of deficit, widened by the
//!   PR 4 estimator's uncertainty half-width family
//!   (`noise · capacity + consumption_uncertainty · c · staleness`) and
//!   never more than capacity. A report outside the bound is rejected
//!   ([`IngressRejectReason::ImplausibleDeficit`]) and strikes.
//! - **Quarantine with decay and parole** — a sensor whose strikes
//!   cross [`GuardConfig::quarantine_strikes`] is quarantined: every
//!   request is refused (typed
//!   [`Admission::RefusedQuarantined`](crate::Admission)) until the
//!   window of [`GuardConfig::quarantine_s`] decays. It then moves to
//!   *parole* for [`GuardConfig::parole_s`]: admitted again, but one
//!   fresh strike re-quarantines it with the window doubled (capped at
//!   [`REQUARANTINE_CAP`]× the base). A clean parole clears the sensor
//!   and resets the window to its base length.
//!
//! Rejected and quarantined submissions sit **outside** the ledger's
//! conservation identity — they are refused before the WAL append, like
//! duplicates and invalid sensors — so `silent_loss == 0` keeps holding
//! exactly. Every decision is counted ([`GuardCounters`]) and the state
//! transitions are traced (`RequestRejected` / `SensorQuarantined` /
//! `SensorParoled`).
//!
//! The guard follows the workspace inertness contract: the default
//! [`GuardConfig`] is **inert** — [`GuardConfig::is_active`] is false,
//! the engine skips the guard entirely, no per-sensor state is ever
//! allocated, and the serve report is bit-identical to a guard-free
//! build (`tests/regression.rs` pins this). The guard is fully
//! deterministic on the engine's virtual clock: it draws zero RNG
//! values, so guarded runs replay exactly from their seeds.

use std::collections::BTreeMap;

use wrsn_sim::IngressRejectReason;

/// Hard cap on quarantine-window doubling: a chronic offender's window
/// grows to at most this multiple of [`GuardConfig::quarantine_s`].
pub const REQUARANTINE_CAP: f64 = 8.0;

/// Fraction of capacity used as the plausibility bound's base noise
/// term (the PR 4 estimator's `noise · capacity` half-width component).
const PLAUSIBILITY_NOISE_FRACTION: f64 = 0.05;

/// Relative uncertainty assumed on a sensor's consumption rate when
/// dead-reckoning its maximum plausible deficit (the PR 4 estimator's
/// `consumption_uncertainty · c · staleness` half-width component).
const CONSUMPTION_UNCERTAINTY: f64 = 0.25;

/// Ingress-guard configuration. The default is fully inert.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuardConfig {
    /// Per-sensor admission tokens earned per service second
    /// (0 = rate limiting off).
    pub rate_per_s: f64,
    /// Token-bucket depth: the burst a quiet sensor may send at once.
    pub burst: f64,
    /// Replay window length in service seconds (0 = replay detection
    /// off).
    pub replay_window_s: f64,
    /// Identical requests tolerated inside one replay window; the next
    /// repetition is rejected.
    pub replay_limit: u32,
    /// Margin multiplier on the deficit-plausibility half-width
    /// (0 = plausibility check off). 1.0 tolerates one full
    /// estimator-style half-width of over-report.
    pub deficit_margin: f64,
    /// Strikes before a sensor is quarantined (0 = quarantine off;
    /// strikes still reject individual requests).
    pub quarantine_strikes: u32,
    /// Base quarantine window, service seconds.
    pub quarantine_s: f64,
    /// Parole window after a quarantine decays, service seconds.
    pub parole_s: f64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            rate_per_s: 0.0,
            burst: 4.0,
            replay_window_s: 0.0,
            replay_limit: 2,
            deficit_margin: 0.0,
            quarantine_strikes: 3,
            quarantine_s: 60.0,
            parole_s: 30.0,
        }
    }
}

/// A rejected [`GuardConfig`] field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardConfigError {
    /// A rate/window/margin field was negative or NaN.
    BadField(&'static str),
    /// `burst` must be at least 1 token when rate limiting is on.
    BadBurst,
    /// `replay_limit` must be at least 1 when the replay window is on.
    BadReplayLimit,
    /// `quarantine_s` and `parole_s` must be positive when
    /// `quarantine_strikes` is non-zero.
    BadQuarantineWindow,
}

impl std::fmt::Display for GuardConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardConfigError::BadField(which) => {
                write!(f, "guard field {which} must be finite and non-negative")
            }
            GuardConfigError::BadBurst => {
                write!(f, "guard burst must be at least 1 token when rate limiting is on")
            }
            GuardConfigError::BadReplayLimit => {
                write!(f, "guard replay_limit must be at least 1 when the window is on")
            }
            GuardConfigError::BadQuarantineWindow => {
                write!(f, "guard quarantine_s and parole_s must be positive when strikes > 0")
            }
        }
    }
}

impl std::error::Error for GuardConfigError {}

impl GuardConfig {
    /// Whether any defense channel is enabled. Inert configs make the
    /// engine skip the guard entirely: zero state, zero overhead,
    /// bit-identical output.
    pub fn is_active(&self) -> bool {
        self.rate_per_s > 0.0 || self.replay_window_s > 0.0 || self.deficit_margin > 0.0
    }

    /// Validates every field.
    ///
    /// # Errors
    ///
    /// The first offending field as a [`GuardConfigError`].
    pub fn validate(&self) -> Result<(), GuardConfigError> {
        for (x, name) in [
            (self.rate_per_s, "rate_per_s"),
            (self.burst, "burst"),
            (self.replay_window_s, "replay_window_s"),
            (self.deficit_margin, "deficit_margin"),
            (self.quarantine_s, "quarantine_s"),
            (self.parole_s, "parole_s"),
        ] {
            if x.is_nan() || !x.is_finite() || x < 0.0 {
                return Err(GuardConfigError::BadField(name));
            }
        }
        if self.rate_per_s > 0.0 && self.burst < 1.0 {
            return Err(GuardConfigError::BadBurst);
        }
        if self.replay_window_s > 0.0 && self.replay_limit == 0 {
            return Err(GuardConfigError::BadReplayLimit);
        }
        if self.quarantine_strikes > 0
            && self.is_active()
            && (self.quarantine_s <= 0.0 || self.parole_s <= 0.0)
        {
            return Err(GuardConfigError::BadQuarantineWindow);
        }
        Ok(())
    }
}

/// Guard decision counters — all outside the conservation identity,
/// all surfaced in the serve report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardCounters {
    /// Rejections by the per-sensor token bucket.
    pub rejected_rate_limited: u64,
    /// Rejections by the replay/duplicate-flood window.
    pub rejected_replayed: u64,
    /// Rejections by the deficit-plausibility cross-check.
    pub rejected_implausible: u64,
    /// Submissions refused because the sensor was quarantined.
    pub refused_quarantined: u64,
    /// Quarantine entries (first offenses and re-quarantines).
    pub quarantines: u64,
    /// Quarantine-to-parole transitions (window decayed).
    pub paroles: u64,
    /// Parole violations that re-entered quarantine with a doubled
    /// window (a subset of [`GuardCounters::quarantines`]).
    pub requarantines: u64,
    /// Sensors that completed parole cleanly and were cleared.
    pub cleared: u64,
}

impl GuardCounters {
    /// Total guard rejections (excluding quarantine refusals).
    pub fn rejected_total(&self) -> u64 {
        self.rejected_rate_limited + self.rejected_replayed + self.rejected_implausible
    }
}

/// Trust phase of one sensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Normal service.
    Clear,
    /// Refused until the window decays.
    Quarantined,
    /// Admitted, but one strike re-quarantines with a doubled window.
    Parole,
}

impl Phase {
    fn code(self) -> u64 {
        match self {
            Phase::Clear => 0,
            Phase::Quarantined => 1,
            Phase::Parole => 2,
        }
    }

    fn from_code(code: u64) -> Option<Phase> {
        match code {
            0 => Some(Phase::Clear),
            1 => Some(Phase::Quarantined),
            2 => Some(Phase::Parole),
            _ => None,
        }
    }
}

/// Per-sensor guard state (allocated lazily on first touch).
#[derive(Clone, Copy, Debug, PartialEq)]
struct SensorGuard {
    /// Token-bucket fill.
    tokens: f64,
    /// Service time of the last refill.
    refilled_s: f64,
    /// Fingerprint of the last request (deficit bits; `u64::MAX` for an
    /// absent deficit).
    fp: u64,
    /// Identical requests seen inside the current replay window.
    fp_count: u32,
    /// Service time the current replay window opened.
    fp_window_s: f64,
    /// Accumulated strikes toward quarantine.
    strikes: u32,
    /// Current trust phase.
    phase: Phase,
    /// Service time the quarantine/parole window ends (phase-dependent).
    until_s: f64,
    /// Current quarantine window length (doubles per re-quarantine).
    window_s: f64,
    /// Service time of the last completed charge; negative = never
    /// charged, so dead reckoning has no baseline yet.
    charged_s: f64,
}

impl SensorGuard {
    /// The state a sensor starts from on first touch at `now_s`.
    fn fresh(cfg: &GuardConfig, now_s: f64) -> SensorGuard {
        SensorGuard {
            tokens: cfg.burst,
            refilled_s: now_s,
            fp: u64::MAX,
            fp_count: 0,
            fp_window_s: now_s,
            strikes: 0,
            phase: Phase::Clear,
            until_s: 0.0,
            window_s: cfg.quarantine_s,
            charged_s: -1.0,
        }
    }

    /// Advances the lazy phase transitions to `now_s`: quarantine
    /// decays to parole, a clean parole clears. Returns whether the
    /// sensor was paroled.
    fn settle(&mut self, cfg: &GuardConfig, counters: &mut GuardCounters, now_s: f64) -> bool {
        let mut paroled = false;
        if self.phase == Phase::Quarantined && now_s >= self.until_s {
            self.phase = Phase::Parole;
            self.until_s = now_s + cfg.parole_s;
            self.strikes = 0;
            paroled = true;
            counters.paroles += 1;
        }
        if self.phase == Phase::Parole && now_s >= self.until_s {
            self.phase = Phase::Clear;
            self.window_s = cfg.quarantine_s;
            self.strikes = 0;
            counters.cleared += 1;
        }
        paroled
    }

    /// The maximum plausible deficit the sensor can have accumulated by
    /// `now_s`, widened by `deficit_margin` estimator-style half-widths.
    ///
    /// Never-charged sensors have no dead-reckoning baseline, so the
    /// bound is capacity (nothing physical can exceed it) plus the
    /// noise term — an honest report is always ≤ capacity and passes.
    fn plausible_max(
        &self,
        cfg: &GuardConfig,
        consumption_w: f64,
        capacity_j: f64,
        now_s: f64,
    ) -> f64 {
        let noise = PLAUSIBILITY_NOISE_FRACTION * capacity_j;
        if self.charged_s < 0.0 {
            return capacity_j + cfg.deficit_margin * noise;
        }
        let staleness = (now_s - self.charged_s).max(0.0);
        let expected = (consumption_w * staleness).min(capacity_j);
        let half_width = noise + CONSUMPTION_UNCERTAINTY * consumption_w * staleness;
        (expected + cfg.deficit_margin * half_width).min(capacity_j + cfg.deficit_margin * noise)
    }
}

/// One guard decision, plus the phase transitions it caused (the engine
/// turns these into trace events so timestamps come from its clock).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuardDecision {
    /// Admit, reject (typed), or refuse-quarantined.
    pub verdict: GuardVerdict,
    /// The sensor moved quarantine→parole during this check.
    pub paroled: bool,
    /// The sensor entered quarantine during this check; carries the
    /// window end for the trace event.
    pub quarantined_until_s: Option<f64>,
}

/// The admit/reject outcome of one guard check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardVerdict {
    /// Let the submission proceed to the duplicate check and acceptance.
    Admit,
    /// Reject the request (counted, traced, outside the identity).
    Reject(IngressRejectReason),
    /// Refuse: the sensor is quarantined.
    Quarantined,
}

/// The ingress guard: configuration, lazily-allocated per-sensor state
/// (a `BTreeMap`, so snapshots serialize in deterministic order), and
/// decision counters.
#[derive(Clone, Debug, PartialEq)]
pub struct Guard {
    cfg: GuardConfig,
    sensors: BTreeMap<u32, SensorGuard>,
    counters: GuardCounters,
}

impl Guard {
    /// A guard with `cfg`; inert configurations never allocate state.
    pub fn new(cfg: GuardConfig) -> Self {
        Guard { cfg, sensors: BTreeMap::new(), counters: GuardCounters::default() }
    }

    /// Whether any defense channel is armed.
    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    /// The decision counters.
    pub fn counters(&self) -> &GuardCounters {
        &self.counters
    }

    /// Sensors currently quarantined.
    pub fn quarantined_now(&self) -> usize {
        self.sensors.values().filter(|s| s.phase == Phase::Quarantined).count()
    }

    fn entry(&mut self, sensor: u32, now_s: f64) -> &mut SensorGuard {
        self.sensors.entry(sensor).or_insert_with(|| SensorGuard::fresh(&self.cfg, now_s))
    }

    /// Registers a strike; crossing the threshold quarantines (a parole
    /// violation re-quarantines with the window doubled, capped).
    fn strike(&mut self, sensor: u32, now_s: f64) -> Option<f64> {
        if self.cfg.quarantine_strikes == 0 {
            return None;
        }
        let base = self.cfg.quarantine_s;
        let threshold = self.cfg.quarantine_strikes;
        let (until, violation) = {
            let g = self.entry(sensor, now_s);
            let violation = g.phase == Phase::Parole;
            g.strikes += 1;
            if !violation && g.strikes < threshold {
                return None;
            }
            if violation {
                g.window_s = (g.window_s * 2.0).min(base * REQUARANTINE_CAP);
            }
            g.phase = Phase::Quarantined;
            g.strikes = 0;
            g.until_s = now_s + g.window_s;
            (g.until_s, violation)
        };
        if violation {
            self.counters.requarantines += 1;
        }
        self.counters.quarantines += 1;
        Some(until)
    }

    /// Runs every armed defense against one submission. Deterministic:
    /// the decision is a pure function of guard state, the arguments,
    /// and the virtual clock.
    ///
    /// One map search finds the sensor's state. It is created when an
    /// armed defense reads it: rate limiting is on, or a reported
    /// deficit meets the replay window or the plausibility check. A
    /// sensor without state otherwise has nothing to settle or refuse.
    pub fn check(
        &mut self,
        sensor: u32,
        reported_deficit_j: Option<f64>,
        consumption_w: f64,
        capacity_j: f64,
        now_s: f64,
    ) -> GuardDecision {
        let cfg = self.cfg;
        let needs_state = cfg.rate_per_s > 0.0
            || (reported_deficit_j.is_some()
                && (cfg.replay_window_s > 0.0 || cfg.deficit_margin > 0.0));
        let g = if needs_state {
            self.sensors.entry(sensor).or_insert_with(|| SensorGuard::fresh(&cfg, now_s))
        } else if let Some(g) = self.sensors.get_mut(&sensor) {
            g
        } else {
            return GuardDecision {
                verdict: GuardVerdict::Admit,
                paroled: false,
                quarantined_until_s: None,
            };
        };
        let paroled = g.settle(&cfg, &mut self.counters, now_s);
        if g.phase == Phase::Quarantined {
            self.counters.refused_quarantined += 1;
            return GuardDecision {
                verdict: GuardVerdict::Quarantined,
                paroled,
                quarantined_until_s: None,
            };
        }

        // Token bucket: every arrival (including ones another defense
        // would reject) spends a token — a flood is a flood.
        if cfg.rate_per_s > 0.0 {
            g.tokens = (g.tokens + (now_s - g.refilled_s).max(0.0) * cfg.rate_per_s).min(cfg.burst);
            g.refilled_s = now_s;
            if g.tokens < 1.0 {
                self.counters.rejected_rate_limited += 1;
                return self.reject(sensor, IngressRejectReason::RateLimited, paroled, now_s);
            }
            g.tokens -= 1.0;
        }

        // Replay window: bit-identical repeats past the tolerance. A
        // bare ping (no reported deficit) carries nothing to
        // fingerprint — the duplicate check and the rate limit bound
        // those; this window is for *captured-line* floods.
        if cfg.replay_window_s > 0.0 {
            if let Some(fp) = reported_deficit_j.map(f64::to_bits) {
                if fp == g.fp && now_s - g.fp_window_s <= cfg.replay_window_s {
                    g.fp_count += 1;
                    if g.fp_count > cfg.replay_limit {
                        self.counters.rejected_replayed += 1;
                        return self.reject(sensor, IngressRejectReason::Replayed, paroled, now_s);
                    }
                } else {
                    g.fp = fp;
                    g.fp_count = 1;
                    g.fp_window_s = now_s;
                }
            }
        }

        // Deficit plausibility: only a *reported* deficit can lie.
        if cfg.deficit_margin > 0.0 {
            if let Some(reported) = reported_deficit_j {
                if reported > g.plausible_max(&cfg, consumption_w, capacity_j, now_s) {
                    self.counters.rejected_implausible += 1;
                    return self.reject(
                        sensor,
                        IngressRejectReason::ImplausibleDeficit,
                        paroled,
                        now_s,
                    );
                }
            }
        }

        GuardDecision { verdict: GuardVerdict::Admit, paroled, quarantined_until_s: None }
    }

    fn reject(
        &mut self,
        sensor: u32,
        reason: IngressRejectReason,
        paroled: bool,
        now_s: f64,
    ) -> GuardDecision {
        let quarantined_until_s = self.strike(sensor, now_s);
        GuardDecision { verdict: GuardVerdict::Reject(reason), paroled, quarantined_until_s }
    }

    /// Notes a completed charge: the sensor is full at `now_s`, which
    /// (re)anchors the plausibility dead reckoning.
    pub fn note_charged(&mut self, sensor: u32, now_s: f64) {
        if !self.is_active() {
            return;
        }
        self.entry(sensor, now_s).charged_s = now_s;
    }

    // ----- snapshot codec (bit-exact resume) ---------------------------

    /// Serializes the guard state for the serve snapshot. Per-sensor
    /// rows are emitted in key order (the map is a `BTreeMap`), floats
    /// as bit patterns — a restore re-encodes byte-identically.
    pub fn snapshot_rows(&self) -> Vec<[u64; 11]> {
        self.sensors
            .iter()
            .map(|(&sensor, g)| {
                [
                    u64::from(sensor),
                    g.tokens.to_bits(),
                    g.refilled_s.to_bits(),
                    g.fp,
                    u64::from(g.fp_count),
                    g.fp_window_s.to_bits(),
                    u64::from(g.strikes),
                    g.phase.code(),
                    g.until_s.to_bits(),
                    g.window_s.to_bits(),
                    g.charged_s.to_bits(),
                ]
            })
            .collect()
    }

    /// The counters as `(name, value)` pairs for the snapshot.
    pub fn counter_pairs(&self) -> [(&'static str, u64); 8] {
        let c = &self.counters;
        [
            ("rejected_rate_limited", c.rejected_rate_limited),
            ("rejected_replayed", c.rejected_replayed),
            ("rejected_implausible", c.rejected_implausible),
            ("refused_quarantined", c.refused_quarantined),
            ("quarantines", c.quarantines),
            ("paroles", c.paroles),
            ("requarantines", c.requarantines),
            ("cleared", c.cleared),
        ]
    }

    /// Restores one per-sensor row written by [`Guard::snapshot_rows`].
    ///
    /// # Errors
    ///
    /// A static description of the malformed field.
    pub fn restore_row(&mut self, row: &[u64]) -> Result<(), &'static str> {
        if row.len() != 11 {
            return Err("guard row arity");
        }
        let sensor = u32::try_from(row[0]).map_err(|_| "guard sensor out of range")?;
        let phase = Phase::from_code(row[7]).ok_or("guard phase code")?;
        self.sensors.insert(
            sensor,
            SensorGuard {
                tokens: f64::from_bits(row[1]),
                refilled_s: f64::from_bits(row[2]),
                fp: row[3],
                fp_count: u32::try_from(row[4]).map_err(|_| "guard fp_count")?,
                fp_window_s: f64::from_bits(row[5]),
                strikes: u32::try_from(row[6]).map_err(|_| "guard strikes")?,
                phase,
                until_s: f64::from_bits(row[8]),
                window_s: f64::from_bits(row[9]),
                charged_s: f64::from_bits(row[10]),
            },
        );
        Ok(())
    }

    /// Restores the counters from snapshot values (absent keys stay 0).
    pub fn restore_counters(&mut self, get: impl Fn(&'static str) -> u64) {
        self.counters = GuardCounters {
            rejected_rate_limited: get("rejected_rate_limited"),
            rejected_replayed: get("rejected_replayed"),
            rejected_implausible: get("rejected_implausible"),
            refused_quarantined: get("refused_quarantined"),
            quarantines: get("quarantines"),
            paroles: get("paroles"),
            requarantines: get("requarantines"),
            cleared: get("cleared"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed() -> GuardConfig {
        GuardConfig {
            rate_per_s: 1.0,
            burst: 2.0,
            replay_window_s: 10.0,
            replay_limit: 2,
            deficit_margin: 1.0,
            quarantine_strikes: 3,
            quarantine_s: 60.0,
            parole_s: 30.0,
        }
    }

    fn admit(d: GuardDecision) -> bool {
        d.verdict == GuardVerdict::Admit
    }

    #[test]
    fn default_config_is_inert_and_valid() {
        let cfg = GuardConfig::default();
        assert!(!cfg.is_active());
        assert_eq!(cfg.validate(), Ok(()));
        assert!(armed().is_active());
        assert_eq!(armed().validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_each_bad_field() {
        let ok = armed();
        for (cfg, err) in [
            (
                GuardConfig { rate_per_s: -1.0, ..ok },
                GuardConfigError::BadField("rate_per_s"),
            ),
            (
                GuardConfig { deficit_margin: f64::NAN, ..ok },
                GuardConfigError::BadField("deficit_margin"),
            ),
            (GuardConfig { burst: 0.5, ..ok }, GuardConfigError::BadBurst),
            (GuardConfig { replay_limit: 0, ..ok }, GuardConfigError::BadReplayLimit),
            (GuardConfig { quarantine_s: 0.0, ..ok }, GuardConfigError::BadQuarantineWindow),
        ] {
            assert_eq!(cfg.validate(), Err(err));
        }
    }

    #[test]
    fn token_bucket_refills_at_the_configured_rate() {
        let mut g = Guard::new(GuardConfig {
            rate_per_s: 1.0,
            burst: 2.0,
            quarantine_strikes: 0,
            ..GuardConfig::default()
        });
        // Burst of 2, then empty.
        assert!(admit(g.check(0, None, 0.1, 100.0, 0.0)));
        assert!(admit(g.check(0, None, 0.1, 100.0, 0.0)));
        assert_eq!(
            g.check(0, None, 0.1, 100.0, 0.0).verdict,
            GuardVerdict::Reject(IngressRejectReason::RateLimited)
        );
        // One second refills one token; two seconds later two arrive.
        assert!(admit(g.check(0, None, 0.1, 100.0, 1.0)));
        assert!(!admit(g.check(0, None, 0.1, 100.0, 1.0)));
        assert!(admit(g.check(0, None, 0.1, 100.0, 3.0)));
        assert!(admit(g.check(0, None, 0.1, 100.0, 3.0)));
        assert_eq!(g.counters().rejected_rate_limited, 2);
        // Other sensors have their own buckets.
        assert!(admit(g.check(1, None, 0.1, 100.0, 3.0)));
    }

    #[test]
    fn replay_window_rejects_identical_repeats() {
        let mut g = Guard::new(GuardConfig {
            replay_window_s: 10.0,
            replay_limit: 2,
            quarantine_strikes: 0,
            ..GuardConfig::default()
        });
        assert!(admit(g.check(3, Some(55.0), 0.1, 100.0, 0.0)));
        assert!(admit(g.check(3, Some(55.0), 0.1, 100.0, 1.0)));
        assert_eq!(
            g.check(3, Some(55.0), 0.1, 100.0, 2.0).verdict,
            GuardVerdict::Reject(IngressRejectReason::Replayed)
        );
        // A different deficit opens a fresh window.
        assert!(admit(g.check(3, Some(56.0), 0.1, 100.0, 3.0)));
        // The old window expires: the same bits are fine again.
        assert!(admit(g.check(3, Some(56.0), 0.1, 100.0, 20.0)));
        assert_eq!(g.counters().rejected_replayed, 1);
        // Bare pings have nothing to fingerprint: never replays.
        for t in 0..10 {
            assert!(admit(g.check(4, None, 0.1, 100.0, f64::from(t) * 0.1)));
        }
        assert_eq!(g.counters().rejected_replayed, 1);
    }

    #[test]
    fn plausibility_caps_at_capacity_before_any_charge() {
        let mut g = Guard::new(GuardConfig {
            deficit_margin: 1.0,
            quarantine_strikes: 0,
            ..GuardConfig::default()
        });
        // Honest (≤ capacity): fine even with no charge history.
        assert!(admit(g.check(0, Some(100.0), 0.1, 100.0, 5.0)));
        // A liar reporting far past capacity is implausible.
        assert_eq!(
            g.check(0, Some(1.0e6), 0.1, 100.0, 5.0).verdict,
            GuardVerdict::Reject(IngressRejectReason::ImplausibleDeficit)
        );
        // An absent deficit has nothing to lie about.
        assert!(admit(g.check(0, None, 0.1, 100.0, 5.0)));
    }

    #[test]
    fn plausibility_dead_reckons_from_the_last_charge() {
        let mut g = Guard::new(GuardConfig {
            deficit_margin: 1.0,
            quarantine_strikes: 0,
            ..GuardConfig::default()
        });
        // Charged full at t=100; consumption 0.1 W, capacity 100 J.
        g.note_charged(7, 100.0);
        // 10 s later the truth is 1 J; the bound is
        // 1 + (0.05·100 + 0.25·0.1·10) = 6.25 J.
        assert!(admit(g.check(7, Some(6.0), 0.1, 100.0, 110.0)));
        assert_eq!(
            g.check(7, Some(20.0), 0.1, 100.0, 110.0).verdict,
            GuardVerdict::Reject(IngressRejectReason::ImplausibleDeficit)
        );
        // Much later the bound relaxes toward capacity.
        assert!(admit(g.check(7, Some(90.0), 0.1, 100.0, 1100.0)));
    }

    #[test]
    fn strikes_quarantine_then_parole_then_requarantine_then_clear() {
        let mut g = Guard::new(GuardConfig {
            deficit_margin: 1.0,
            quarantine_strikes: 2,
            quarantine_s: 60.0,
            parole_s: 30.0,
            ..GuardConfig::default()
        });
        let lie = Some(1.0e9);
        // Two strikes quarantine.
        assert!(g.check(5, lie, 0.1, 100.0, 0.0).quarantined_until_s.is_none());
        let d = g.check(5, lie, 0.1, 100.0, 1.0);
        assert_eq!(d.quarantined_until_s, Some(61.0));
        assert_eq!(g.counters().quarantines, 1);
        assert_eq!(g.quarantined_now(), 1);
        // While quarantined even honest requests are refused.
        let d = g.check(5, Some(10.0), 0.1, 100.0, 30.0);
        assert_eq!(d.verdict, GuardVerdict::Quarantined);
        assert_eq!(g.counters().refused_quarantined, 1);
        // The window decays: parole, and the honest request is admitted.
        let d = g.check(5, Some(10.0), 0.1, 100.0, 62.0);
        assert!(d.paroled);
        assert!(admit(d));
        assert_eq!(g.counters().paroles, 1);
        // One strike on parole re-quarantines with a doubled window.
        let d = g.check(5, lie, 0.1, 100.0, 63.0);
        assert_eq!(d.quarantined_until_s, Some(63.0 + 120.0));
        assert_eq!(g.counters().requarantines, 1);
        assert_eq!(g.counters().quarantines, 2);
        // Decay again (t=183 parole until 213); a clean parole clears
        // and the window resets to its base length.
        let d = g.check(5, Some(10.0), 0.1, 100.0, 184.0);
        assert!(d.paroled);
        assert!(admit(g.check(5, Some(10.0), 0.1, 100.0, 220.0)));
        assert_eq!(g.counters().cleared, 1);
        // Post-clear, the next quarantine window is the base again.
        g.check(5, lie, 0.1, 100.0, 221.0);
        let d = g.check(5, lie, 0.1, 100.0, 222.0);
        assert_eq!(d.quarantined_until_s, Some(222.0 + 60.0));
    }

    #[test]
    fn requarantine_window_growth_is_capped() {
        let mut g = Guard::new(GuardConfig {
            deficit_margin: 1.0,
            quarantine_strikes: 1,
            quarantine_s: 10.0,
            parole_s: 5.0,
            ..GuardConfig::default()
        });
        let lie = Some(1.0e9);
        let mut t = 0.0;
        let mut last_window = 0.0;
        for _ in 0..8 {
            let d = g.check(9, lie, 0.1, 100.0, t);
            if let Some(until) = d.quarantined_until_s {
                last_window = until - t;
                t = until + 1.0; // decay to parole, then strike again
            } else {
                t += 1.0;
            }
        }
        assert!(last_window <= 10.0 * REQUARANTINE_CAP + 1e-9);
        assert!(g.counters().requarantines >= 2);
    }

    #[test]
    fn state_is_created_only_when_an_armed_defense_reads_it() {
        let sensors = |cfg: GuardConfig, deficit: Option<f64>| {
            let mut g = Guard::new(cfg);
            assert!(admit(g.check(1, deficit, 0.1, 100.0, 0.0)));
            g.snapshot_rows().len()
        };
        let replay = GuardConfig { replay_window_s: 10.0, ..GuardConfig::default() };
        let plausible = GuardConfig { deficit_margin: 1.0, ..GuardConfig::default() };
        let bucket = GuardConfig { rate_per_s: 1.0, ..GuardConfig::default() };
        // A bare ping gives the replay window and the plausibility
        // check nothing to read; the bucket reads every arrival.
        assert_eq!(sensors(replay, None), 0);
        assert_eq!(sensors(plausible, None), 0);
        assert_eq!(sensors(bucket, None), 1);
        assert_eq!(sensors(replay, Some(5.0)), 1);
        assert_eq!(sensors(plausible, Some(5.0)), 1);
    }

    #[test]
    fn snapshot_rows_round_trip_bit_exactly() {
        let mut g = Guard::new(armed());
        g.note_charged(2, 5.0);
        for t in 0..40 {
            let _ = g.check(t % 4, Some(1.0e8), 0.2, 100.0, f64::from(t));
        }
        let rows = g.snapshot_rows();
        assert!(!rows.is_empty());
        let mut r = Guard::new(armed());
        for row in &rows {
            r.restore_row(row).unwrap();
        }
        let counters = g.counter_pairs();
        r.restore_counters(|k| {
            counters.iter().find(|(name, _)| *name == k).map_or(0, |&(_, v)| v)
        });
        assert_eq!(g, r);
        assert_eq!(r.snapshot_rows(), rows);
        assert!(r.restore_row(&[1, 2, 3]).is_err(), "arity is checked");
        assert!(r.restore_row(&[0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0]).is_err(), "phase code");
    }
}
