//! Schedule validation: the one checker of Definition 1 (§III-B).
//!
//! [`validate_schedule`] checks every constraint the replay relies on and
//! collects *all* violations as typed [`ScheduleViolation`] values, in a
//! deterministic order, instead of stopping at the first. A simulation
//! engine recovering from a fault logs the complete list and decides
//! whether a fallback planner must take over; [`Schedule::certify`] is
//! the first-violation view of the same list, for planner tests and the
//! CLI. Malformed input — a target outside the problem, a NaN time —
//! yields a violation, never a panic.
//!
//! 1. one tour per charger ([`ScheduleViolation::TourCountMismatch`]);
//! 2. every sojourn names a target of the problem
//!    ([`ScheduleViolation::UnknownTarget`]);
//! 3. every sojourn physically reachable and internally consistent
//!    (non-negative duration, no charging before arrival, no arrival
//!    before the travel from the previous stop);
//! 4. tours depot-closed: the recorded return time is late enough for
//!    the final depot leg ([`ScheduleViolation::EarlyReturn`]);
//! 5. each target is the sojourn location of at most one charger
//!    ([`ScheduleViolation::DuplicateTarget`]);
//! 6. every requested sensor inside at least one sojourn's disk
//!    ([`ScheduleViolation::UncoveredSensor`]);
//! 7. no sensor inside two chargers' active disks at overlapping times
//!    ([`ScheduleViolation::SimultaneousCharge`]);
//! 8. a physical replay fully charges every requested sensor
//!    ([`ScheduleViolation::Undercharged`]).
//!
//! Both simulation engines run this pass on every dispatched and
//! recovery plan — always in debug builds, behind
//! `SimConfig::validate_schedules` in release builds.

use std::error::Error;
use std::fmt;

use wrsn_net::SensorId;

use crate::conflict;
use crate::schedule::TOL;
use crate::{ChargingProblem, Schedule};

/// One broken invariant of a schedule, with enough context to locate it.
///
/// Payloads are indices and ids only (no floats), so violation lists are
/// `Eq`-comparable in tests and across fallback decisions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// The schedule has a different number of tours than the problem has
    /// chargers.
    TourCountMismatch {
        /// Chargers in the problem.
        expected: usize,
        /// Tours in the schedule.
        actual: usize,
    },
    /// A sojourn names a target index the problem does not have.
    UnknownTarget {
        /// Charger index.
        charger: usize,
        /// Sojourn position within the tour.
        position: usize,
        /// The out-of-range target index.
        target: usize,
    },
    /// A sojourn charges for a negative duration.
    NegativeDuration {
        /// Charger index.
        charger: usize,
        /// Sojourn position within the tour.
        position: usize,
    },
    /// A sojourn starts charging before the MCV arrives.
    ChargeBeforeArrival {
        /// Charger index.
        charger: usize,
        /// Sojourn position within the tour.
        position: usize,
    },
    /// A sojourn's arrival predates the travel from the previous stop
    /// (or from the depot for the first stop).
    UnreachableSojourn {
        /// Charger index.
        charger: usize,
        /// Sojourn position within the tour.
        position: usize,
    },
    /// The tour's recorded depot return time is earlier than the last
    /// charging finish plus the travel home: the tour is not closed.
    EarlyReturn {
        /// Charger index.
        charger: usize,
    },
    /// A target is the sojourn location of more than one charger.
    DuplicateTarget {
        /// The doubly-visited target index.
        target: usize,
    },
    /// A requested sensor lies inside no sojourn's charging disk.
    UncoveredSensor(SensorId),
    /// Two chargers' active charging windows overlap on a sensor inside
    /// both disks — the paper's prohibited simultaneous charge.
    SimultaneousCharge {
        /// The sensor inside both disks.
        sensor: SensorId,
        /// First charger (lower index).
        charger_a: usize,
        /// Second charger.
        charger_b: usize,
    },
    /// The replay leaves a requested sensor short of its charge
    /// duration `t_v`.
    Undercharged(SensorId),
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::TourCountMismatch { expected, actual } => {
                write!(f, "schedule has {actual} tours for {expected} chargers")
            }
            ScheduleViolation::UnknownTarget { charger, position, target } => {
                write!(f, "charger {charger} sojourn {position} names unknown target {target}")
            }
            ScheduleViolation::NegativeDuration { charger, position } => {
                write!(f, "charger {charger} sojourn {position} has negative duration")
            }
            ScheduleViolation::ChargeBeforeArrival { charger, position } => {
                write!(f, "charger {charger} sojourn {position} starts before arrival")
            }
            ScheduleViolation::UnreachableSojourn { charger, position } => {
                write!(f, "charger {charger} cannot reach sojourn {position} in time")
            }
            ScheduleViolation::EarlyReturn { charger } => {
                write!(f, "charger {charger} returns to the depot before its last leg")
            }
            ScheduleViolation::DuplicateTarget { target } => {
                write!(f, "target {target} is a sojourn of two tours")
            }
            ScheduleViolation::UncoveredSensor(id) => {
                write!(f, "sensor {id} is covered by no sojourn")
            }
            ScheduleViolation::SimultaneousCharge { sensor, charger_a, charger_b } => {
                write!(
                    f,
                    "chargers {charger_a} and {charger_b} charge sensor {sensor} simultaneously"
                )
            }
            ScheduleViolation::Undercharged(id) => {
                write!(f, "sensor {id} ends the replay undercharged")
            }
        }
    }
}

impl Error for ScheduleViolation {}

/// Validates `schedule` against every replay invariant, collecting all
/// violations instead of stopping at the first.
///
/// An empty `Ok(())` means the replay's accounting can be trusted; a
/// non-empty error lists every independent reason it cannot. Sojourn
/// time checks are per-sojourn, so one malformed tour yields one
/// violation per broken stop, not a single opaque failure.
///
/// # Errors
///
/// Returns the complete list of violations, in deterministic order
/// (tour count, per-tour times, duplicates, coverage, overlaps,
/// undercharge). A sojourn naming an unknown target ends the check
/// after the tour count: nothing else can be replayed.
pub fn validate_schedule(
    problem: &ChargingProblem,
    schedule: &Schedule,
) -> Result<(), Vec<ScheduleViolation>> {
    let mut violations = Vec::new();

    if schedule.tours.len() != problem.charger_count() {
        violations.push(ScheduleViolation::TourCountMismatch {
            expected: problem.charger_count(),
            actual: schedule.tours.len(),
        });
        // Per-tour checks still run on whatever tours exist; target
        // indices are validated against the problem below.
    }

    // Bail out on out-of-range target indices before indexing anything:
    // a schedule referencing targets the problem doesn't have cannot be
    // replayed at all.
    let before = violations.len();
    for (k, tour) in schedule.tours.iter().enumerate() {
        for (l, s) in tour.sojourns.iter().enumerate() {
            if s.target >= problem.len() {
                violations.push(ScheduleViolation::UnknownTarget {
                    charger: k,
                    position: l,
                    target: s.target,
                });
            }
        }
    }
    if violations.len() > before {
        return Err(violations);
    }

    // Per-tour time consistency and depot closure. A NaN time fails the
    // check it appears in: `<` alone is false for NaN.
    for (k, tour) in schedule.tours.iter().enumerate() {
        let mut t = 0.0;
        let mut prev: Option<usize> = None;
        for (l, s) in tour.sojourns.iter().enumerate() {
            if s.duration_s.is_nan() || s.duration_s < -TOL {
                violations.push(ScheduleViolation::NegativeDuration {
                    charger: k,
                    position: l,
                });
            }
            if s.start_s.is_nan() || s.start_s < s.arrival_s - TOL {
                violations.push(ScheduleViolation::ChargeBeforeArrival {
                    charger: k,
                    position: l,
                });
            }
            let travel = match prev {
                None => problem.depot_travel_time(s.target),
                Some(p) => problem.travel_time(p, s.target),
            };
            if s.arrival_s.is_nan() || s.arrival_s < t + travel - TOL {
                violations.push(ScheduleViolation::UnreachableSojourn {
                    charger: k,
                    position: l,
                });
            }
            t = s.finish_s();
            prev = Some(s.target);
        }
        if let Some(p) = prev {
            let earliest = t + problem.depot_travel_time(p) - TOL;
            if tour.return_time_s.is_nan() || tour.return_time_s < earliest {
                violations.push(ScheduleViolation::EarlyReturn { charger: k });
            }
        }
    }

    // Each target hosts at most one sojourn across all tours.
    let mut visits = vec![0usize; problem.len()];
    for tour in &schedule.tours {
        for s in &tour.sojourns {
            visits[s.target] += 1;
        }
    }
    for (target, &count) in visits.iter().enumerate() {
        if count > 1 {
            violations.push(ScheduleViolation::DuplicateTarget { target });
        }
    }

    // Every requested sensor inside some sojourn's disk.
    let mut covered = vec![false; problem.len()];
    for tour in &schedule.tours {
        for s in &tour.sojourns {
            for &u in problem.coverage(s.target) {
                covered[u as usize] = true;
            }
        }
    }
    for (i, &c) in covered.iter().enumerate() {
        if !c {
            violations.push(ScheduleViolation::UncoveredSensor(problem.targets()[i].id));
        }
    }

    // No two chargers active on a shared sensor at overlapping times.
    let all = schedule.sojourns_by_start();
    for i in 0..all.len() {
        let (ka, sa) = all[i];
        for &(kb, sb) in all.iter().skip(i + 1) {
            if sb.start_s >= sa.finish_s() - TOL {
                break; // sorted by start: later sojourns cannot overlap sa
            }
            if ka == kb {
                continue;
            }
            let overlap = sa.finish_s().min(sb.finish_s()) - sb.start_s;
            if overlap > TOL {
                if let Some(w) = conflict::coverage_overlap(problem, sa.target, sb.target) {
                    violations.push(ScheduleViolation::SimultaneousCharge {
                        sensor: problem.targets()[w].id,
                        charger_a: ka.min(kb),
                        charger_b: ka.max(kb),
                    });
                }
            }
        }
    }

    // Replay: everyone fully charged.
    for (i, done) in schedule.charge_completion_times(problem).iter().enumerate() {
        if done.is_none() {
            violations.push(ScheduleViolation::Undercharged(problem.targets()[i].id));
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChargingParams, ChargingTarget};
    use wrsn_geom::Point;

    fn problem(pts: &[(f64, f64, f64)], k: usize) -> ChargingProblem {
        let targets: Vec<ChargingTarget> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y, t))| ChargingTarget {
                id: SensorId(i as u32),
                pos: Point::new(x, y),
                charge_duration_s: t,
                residual_lifetime_s: f64::INFINITY,
            })
            .collect();
        ChargingProblem::new(Point::ORIGIN, targets, k, ChargingParams::default()).unwrap()
    }

    #[test]
    fn valid_schedule_passes() {
        let p = problem(&[(10.0, 0.0, 100.0), (20.0, 0.0, 50.0)], 1);
        let s = Schedule::assemble(&p, vec![vec![(0, 100.0), (1, 50.0)]]);
        assert_eq!(validate_schedule(&p, &s), Ok(()));
    }

    #[test]
    fn idle_on_empty_problem_passes() {
        let p = problem(&[], 2);
        assert_eq!(validate_schedule(&p, &Schedule::idle(2)), Ok(()));
    }

    #[test]
    fn collects_multiple_violations_at_once() {
        let p = problem(&[(10.0, 0.0, 100.0), (50.0, 50.0, 60.0)], 1);
        // Covers neither sensor 1 nor charges it; also returns too early.
        let mut s = Schedule::assemble(&p, vec![vec![(0, 100.0)]]);
        s.tours[0].return_time_s = 1.0;
        let violations = validate_schedule(&p, &s).unwrap_err();
        assert!(violations.contains(&ScheduleViolation::EarlyReturn { charger: 0 }));
        assert!(violations.contains(&ScheduleViolation::UncoveredSensor(SensorId(1))));
        assert!(violations.contains(&ScheduleViolation::Undercharged(SensorId(1))));
        assert_eq!(violations.len(), 3);
    }

    #[test]
    fn rejects_wrong_tour_count() {
        let p = problem(&[], 2);
        let violations = validate_schedule(&p, &Schedule::idle(3)).unwrap_err();
        assert_eq!(
            violations,
            vec![ScheduleViolation::TourCountMismatch { expected: 2, actual: 3 }]
        );
    }

    #[test]
    fn rejects_negative_duration_and_early_start() {
        let p = problem(&[(10.0, 0.0, 10.0)], 1);
        let mut s = Schedule::assemble(&p, vec![vec![(0, 10.0)]]);
        s.tours[0].sojourns[0].duration_s = -5.0;
        s.tours[0].sojourns[0].start_s = s.tours[0].sojourns[0].arrival_s - 2.0;
        let violations = validate_schedule(&p, &s).unwrap_err();
        assert!(violations
            .contains(&ScheduleViolation::NegativeDuration { charger: 0, position: 0 }));
        assert!(violations
            .contains(&ScheduleViolation::ChargeBeforeArrival { charger: 0, position: 0 }));
    }

    #[test]
    fn rejects_unreachable_sojourn() {
        let p = problem(&[(10.0, 0.0, 10.0)], 1);
        let mut s = Schedule::assemble(&p, vec![vec![(0, 10.0)]]);
        s.tours[0].sojourns[0].arrival_s = 1.0; // 10 m at 1 m/s needs 10 s
        s.tours[0].sojourns[0].start_s = 1.0;
        let violations = validate_schedule(&p, &s).unwrap_err();
        assert!(violations
            .contains(&ScheduleViolation::UnreachableSojourn { charger: 0, position: 0 }));
    }

    #[test]
    fn rejects_out_of_range_target_without_panicking() {
        let p = problem(&[(10.0, 0.0, 10.0)], 1);
        let mut s = Schedule::assemble(&p, vec![vec![(0, 10.0)]]);
        s.tours[0].sojourns[0].target = 7;
        let unknown = ScheduleViolation::UnknownTarget { charger: 0, position: 0, target: 7 };
        assert_eq!(validate_schedule(&p, &s), Err(vec![unknown.clone()]));
        assert_eq!(s.certify(&p), Err(unknown));
    }

    #[test]
    fn rejects_duplicate_targets() {
        let p = problem(&[(10.0, 0.0, 10.0)], 2);
        let s = Schedule::assemble(&p, vec![vec![(0, 10.0)], vec![(0, 10.0)]]);
        let violations = validate_schedule(&p, &s).unwrap_err();
        assert!(violations.contains(&ScheduleViolation::DuplicateTarget { target: 0 }));
    }

    #[test]
    fn rejects_simultaneous_charge() {
        let p = problem(&[(10.0, 0.0, 100.0), (12.0, 0.0, 100.0)], 2);
        let s = Schedule::assemble(&p, vec![vec![(0, 100.0)], vec![(1, 100.0)]]);
        let violations = validate_schedule(&p, &s).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::SimultaneousCharge { .. })));
    }

    #[test]
    fn staggered_overlapping_disks_pass() {
        let p = problem(&[(10.0, 0.0, 100.0), (12.0, 0.0, 100.0)], 2);
        let mut s = Schedule::assemble(&p, vec![vec![(0, 100.0)], vec![(1, 100.0)]]);
        let f0 = s.tours[0].sojourns[0].finish_s();
        let so = &mut s.tours[1].sojourns[0];
        so.start_s = f0;
        let delta = so.finish_s() + 12.0 - s.tours[1].return_time_s;
        s.tours[1].return_time_s += delta;
        assert_eq!(validate_schedule(&p, &s), Ok(()));
    }

    #[test]
    fn certify_reports_the_first_violation() {
        // Both chargers charge the overlapping pair at once, nobody
        // visits sensor 2, and charger 0 comes home early: four
        // violations from four different checks.
        let p = problem(&[(10.0, 0.0, 100.0), (12.0, 0.0, 100.0), (50.0, 50.0, 10.0)], 2);
        let mut s = Schedule::assemble(&p, vec![vec![(0, 100.0)], vec![(1, 100.0)]]);
        s.tours[0].return_time_s = 1.0;
        let violations = validate_schedule(&p, &s).unwrap_err();
        assert_eq!(
            violations,
            vec![
                ScheduleViolation::EarlyReturn { charger: 0 },
                ScheduleViolation::UncoveredSensor(SensorId(2)),
                ScheduleViolation::SimultaneousCharge {
                    sensor: SensorId(0),
                    charger_a: 0,
                    charger_b: 1,
                },
                ScheduleViolation::Undercharged(SensorId(2)),
            ]
        );
        assert_eq!(s.certify(&p), Err(violations[0].clone()));
    }

    #[test]
    fn violations_display_name_the_parties() {
        let v = ScheduleViolation::SimultaneousCharge {
            sensor: SensorId(4),
            charger_a: 0,
            charger_b: 2,
        };
        let text = v.to_string();
        assert!(text.contains("s4") && text.contains('0') && text.contains('2'));
    }
}
