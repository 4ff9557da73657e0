//! Charging schedules: tours, sojourns, metrics, and the charge replay.
//!
//! [`Schedule::certify`] is the first-violation view of
//! [`validate_schedule`], the one checker of Definition 1.

use crate::validate::{validate_schedule, ScheduleViolation};
use crate::ChargingProblem;

/// Numerical slack for time and charge comparisons, shared by the replay
/// and [`validate_schedule`].
pub(crate) const TOL: f64 = 1e-6;

/// One stop of an MCV: it arrives at a target's location, possibly waits
/// (conflict-avoidance), then charges every sensor within `γ` for
/// `duration_s` seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sojourn {
    /// Target index (into [`ChargingProblem::targets`]) of the sojourn
    /// location.
    pub target: usize,
    /// Arrival time at the location, seconds from dispatch.
    pub arrival_s: f64,
    /// Charging start time (`>= arrival_s`; strictly greater when the
    /// MCV waits out a conflict).
    pub start_s: f64,
    /// Charging duration `τ'` at this location, seconds.
    pub duration_s: f64,
}

impl Sojourn {
    /// Charging finish time, seconds from dispatch.
    pub fn finish_s(&self) -> f64 {
        self.start_s + self.duration_s
    }

    /// Waiting time spent at the location before charging, seconds.
    pub fn wait_s(&self) -> f64 {
        self.start_s - self.arrival_s
    }
}

/// The closed tour of one MCV: depot → sojourns… → depot.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ChargerTour {
    /// Sojourns in visiting order. May be empty (the MCV stays home).
    pub sojourns: Vec<Sojourn>,
    /// Time the MCV is back at the depot, seconds from dispatch —
    /// the paper's per-charger delay `T'(k)` (Eq. 4) plus any waiting.
    pub return_time_s: f64,
}

impl ChargerTour {
    /// Target indices visited, in order.
    pub fn visited(&self) -> Vec<usize> {
        self.sojourns.iter().map(|s| s.target).collect()
    }

    /// Total charging time on this tour, seconds.
    pub fn charge_time_s(&self) -> f64 {
        self.sojourns.iter().map(|s| s.duration_s).sum()
    }

    /// Total waiting time on this tour, seconds.
    pub fn wait_time_s(&self) -> f64 {
        self.sojourns.iter().map(|s| s.wait_s()).sum()
    }
}

/// A complete schedule: one [`ChargerTour`] per MCV.
///
/// Produced by [`crate::Planner`] implementations; consumed by the
/// simulator and the experiment harness. [`Schedule::certify`] proves the
/// schedule feasible per the paper's constraints.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Schedule {
    /// One tour per charger; `tours.len()` equals the problem's `K`.
    pub tours: Vec<ChargerTour>,
}

impl Schedule {
    /// An empty schedule with `k` idle chargers.
    pub fn idle(k: usize) -> Self {
        Schedule { tours: vec![ChargerTour::default(); k] }
    }

    /// Assembles a schedule from per-charger `(target, duration)` lists,
    /// computing arrival/start times sequentially with no waiting: each
    /// MCV departs the depot at time 0, travels at the problem's speed,
    /// and charges immediately on arrival.
    pub fn assemble(problem: &ChargingProblem, tours: Vec<Vec<(usize, f64)>>) -> Self {
        let mut out = Vec::with_capacity(tours.len());
        for stops in tours {
            let mut sojourns = Vec::with_capacity(stops.len());
            let mut t = 0.0;
            let mut prev: Option<usize> = None;
            for (target, duration) in stops {
                let travel = match prev {
                    None => problem.depot_travel_time(target),
                    Some(p) => problem.travel_time(p, target),
                };
                let arrival = t + travel;
                sojourns.push(Sojourn {
                    target,
                    arrival_s: arrival,
                    start_s: arrival,
                    duration_s: duration,
                });
                t = arrival + duration;
                prev = Some(target);
            }
            let return_time_s = match prev {
                None => 0.0,
                Some(p) => t + problem.depot_travel_time(p),
            };
            out.push(ChargerTour { sojourns, return_time_s });
        }
        Schedule { tours: out }
    }

    /// The longest per-charger delay `max_k T'(k)` — the objective of the
    /// longest charge delay minimization problem. Zero for an all-idle
    /// schedule.
    pub fn longest_delay_s(&self) -> f64 {
        self.tours.iter().map(|t| t.return_time_s).fold(0.0, f64::max)
    }

    /// Sum of all chargers' delays.
    pub fn total_delay_s(&self) -> f64 {
        self.tours.iter().map(|t| t.return_time_s).sum()
    }

    /// Total charging time across all chargers.
    pub fn total_charge_time_s(&self) -> f64 {
        self.tours.iter().map(ChargerTour::charge_time_s).sum()
    }

    /// Total conflict-avoidance waiting time across all chargers.
    pub fn total_wait_time_s(&self) -> f64 {
        self.tours.iter().map(ChargerTour::wait_time_s).sum()
    }

    /// Number of sojourns across all tours.
    pub fn sojourn_count(&self) -> usize {
        self.tours.iter().map(|t| t.sojourns.len()).sum()
    }

    /// All sojourns with their charger index, sorted by charging start
    /// time (ties by charger). The order is [`f64::total_cmp`], so a NaN
    /// time sorts instead of panicking.
    pub fn sojourns_by_start(&self) -> Vec<(usize, Sojourn)> {
        let mut all: Vec<(usize, Sojourn)> = self
            .tours
            .iter()
            .enumerate()
            .flat_map(|(k, t)| t.sojourns.iter().map(move |&s| (k, s)))
            .collect();
        all.sort_by(|a, b| a.1.start_s.total_cmp(&b.1.start_s).then(a.0.cmp(&b.0)));
        all
    }

    /// Replays the schedule and returns, per target, the time at which it
    /// becomes fully charged (`None` if it never does). Charging is
    /// multi-node: every sensor inside the active disk receives energy
    /// for the whole sojourn duration.
    pub fn charge_completion_times(&self, problem: &ChargingProblem) -> Vec<Option<f64>> {
        let mut need: Vec<f64> =
            (0..problem.len()).map(|i| problem.charge_duration(i)).collect();
        let mut done: Vec<Option<f64>> =
            need.iter().map(|&n| if n <= TOL { Some(0.0) } else { None }).collect();
        for (_, s) in self.sojourns_by_start() {
            for &u in problem.coverage(s.target) {
                let u = u as usize;
                if done[u].is_none() {
                    if need[u] <= s.duration_s + TOL {
                        done[u] = Some(s.start_s + need[u].min(s.duration_s));
                        need[u] = 0.0;
                    } else {
                        need[u] -= s.duration_s;
                    }
                }
            }
        }
        done
    }

    /// Checks the schedule against Definition 1 and returns the first
    /// violation [`validate_schedule`] lists: the order is tour count,
    /// unknown targets, per-tour times, duplicate targets, coverage,
    /// simultaneous charging, undercharge.
    ///
    /// # Errors
    ///
    /// The first [`ScheduleViolation`] of the schedule.
    pub fn certify(&self, problem: &ChargingProblem) -> Result<(), ScheduleViolation> {
        validate_schedule(problem, self).map_err(|mut violations| violations.swap_remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChargingParams, ChargingTarget};
    use wrsn_geom::Point;
    use wrsn_net::SensorId;

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
    fn assemble_computes_times_sequentially() {
        // One target 10 m out, one more 10 m past it; speed 1 m/s.
        let p = problem(&[(10.0, 0.0, 100.0), (20.0, 0.0, 50.0)], 1);
        let s = Schedule::assemble(&p, vec![vec![(0, 100.0), (1, 50.0)]]);
        let t = &s.tours[0];
        assert_eq!(t.sojourns[0].arrival_s, 10.0);
        assert_eq!(t.sojourns[0].finish_s(), 110.0);
        assert_eq!(t.sojourns[1].arrival_s, 120.0);
        assert_eq!(t.sojourns[1].finish_s(), 170.0);
        assert_eq!(t.return_time_s, 190.0);
        assert_eq!(s.longest_delay_s(), 190.0);
        assert!(s.certify(&p).is_ok());
    }

    #[test]
    fn idle_schedule_has_zero_delay() {
        let s = Schedule::idle(3);
        assert_eq!(s.longest_delay_s(), 0.0);
        assert_eq!(s.sojourn_count(), 0);
        let p = problem(&[], 3);
        assert!(s.certify(&p).is_ok());
    }

    #[test]
    fn certify_rejects_wrong_tour_count() {
        let p = problem(&[], 2);
        let s = Schedule::idle(1);
        assert_eq!(
            s.certify(&p),
            Err(ScheduleViolation::TourCountMismatch { expected: 2, actual: 1 })
        );
    }

    #[test]
    fn certify_rejects_uncovered_sensor() {
        let p = problem(&[(10.0, 0.0, 10.0), (50.0, 50.0, 10.0)], 1);
        let s = Schedule::assemble(&p, vec![vec![(0, 10.0)]]);
        assert_eq!(s.certify(&p), Err(ScheduleViolation::UncoveredSensor(SensorId(1))));
    }

    #[test]
    fn certify_rejects_undercharge() {
        let p = problem(&[(10.0, 0.0, 100.0)], 1);
        let s = Schedule::assemble(&p, vec![vec![(0, 40.0)]]);
        assert_eq!(s.certify(&p), Err(ScheduleViolation::Undercharged(SensorId(0))));
    }

    #[test]
    fn certify_rejects_simultaneous_overlap() {
        // Targets 2 m apart: their disks share both sensors. Two chargers
        // charging at the same time must be rejected.
        let p = problem(&[(10.0, 0.0, 100.0), (12.0, 0.0, 100.0)], 2);
        let s = Schedule::assemble(&p, vec![vec![(0, 100.0)], vec![(1, 100.0)]]);
        match s.certify(&p) {
            Err(ScheduleViolation::SimultaneousCharge { .. }) => {}
            other => panic!("expected a simultaneous charge, got {other:?}"),
        }
    }

    #[test]
    fn staggered_times_on_overlapping_disks_are_accepted() {
        let p = problem(&[(10.0, 0.0, 100.0), (12.0, 0.0, 100.0)], 2);
        // Charger 1 waits at its location until charger 0 finishes.
        let mut s = Schedule::assemble(&p, vec![vec![(0, 100.0)], vec![(1, 100.0)]]);
        let f0 = s.tours[0].sojourns[0].finish_s();
        let so = &mut s.tours[1].sojourns[0];
        so.start_s = f0;
        let delta = so.finish_s() + 12.0 - s.tours[1].return_time_s;
        s.tours[1].return_time_s += delta;
        assert!(s.certify(&p).is_ok());
        assert!(s.total_wait_time_s() > 0.0);
    }

    #[test]
    fn certify_rejects_duplicate_sojourns() {
        let p = problem(&[(10.0, 0.0, 10.0)], 2);
        let s = Schedule::assemble(&p, vec![vec![(0, 10.0)], vec![(0, 10.0)]]);
        // Both chargers stop at target 0.
        let err = s.certify(&p).unwrap_err();
        assert_eq!(err, ScheduleViolation::DuplicateTarget { target: 0 });
    }

    #[test]
    fn certify_rejects_time_travel() {
        let p = problem(&[(10.0, 0.0, 10.0)], 1);
        let mut s = Schedule::assemble(&p, vec![vec![(0, 10.0)]]);
        s.tours[0].sojourns[0].arrival_s = 1.0; // cannot arrive before 10 s
        assert_eq!(
            s.certify(&p),
            Err(ScheduleViolation::UnreachableSojourn { charger: 0, position: 0 })
        );
    }

    #[test]
    fn certify_rejects_a_nan_start_without_panicking() {
        // Two stops, so the start-time sort has a NaN to compare.
        let p = problem(&[(10.0, 0.0, 10.0), (20.0, 0.0, 10.0)], 1);
        let mut s = Schedule::assemble(&p, vec![vec![(0, 10.0), (1, 10.0)]]);
        s.tours[0].sojourns[0].start_s = f64::NAN;
        assert_eq!(
            s.certify(&p),
            Err(ScheduleViolation::ChargeBeforeArrival { charger: 0, position: 0 })
        );
    }

    #[test]
    fn certify_rejects_early_return() {
        let p = problem(&[(10.0, 0.0, 10.0)], 1);
        let mut s = Schedule::assemble(&p, vec![vec![(0, 10.0)]]);
        s.tours[0].return_time_s = 5.0;
        assert_eq!(s.certify(&p), Err(ScheduleViolation::EarlyReturn { charger: 0 }));
    }

    #[test]
    fn multi_node_charging_covers_neighbors_for_free() {
        // Target 1 is within γ of target 0 and needs less charge: one
        // sojourn at 0 charges both.
        let p = problem(&[(10.0, 0.0, 100.0), (11.0, 0.0, 60.0)], 1);
        let s = Schedule::assemble(&p, vec![vec![(0, 100.0)]]);
        assert!(s.certify(&p).is_ok());
        let completion = s.charge_completion_times(&p);
        assert_eq!(completion[0], Some(110.0));
        assert_eq!(completion[1], Some(70.0)); // done earlier: needs only 60 s
    }

    #[test]
    fn charge_accumulates_across_sojourns() {
        // Two sojourn locations both covering target 1 (between them);
        // each alone is too short, together they finish the job.
        let p = problem(&[(10.0, 0.0, 40.0), (14.0, 0.0, 40.0), (12.0, 0.0, 70.0)], 1);
        let s = Schedule::assemble(&p, vec![vec![(0, 40.0), (1, 40.0)]]);
        // Target 2 (needs 70) gets 40 at stop 0 and 30 more at stop 1.
        let completion = s.charge_completion_times(&p);
        assert!(completion[2].is_some());
        assert!(s.certify(&p).is_ok());
    }

    #[test]
    fn metrics_sum_up() {
        let p = problem(&[(10.0, 0.0, 100.0), (20.0, 0.0, 50.0)], 2);
        let s = Schedule::assemble(&p, vec![vec![(0, 100.0)], vec![(1, 50.0)]]);
        assert_eq!(s.total_charge_time_s(), 150.0);
        assert_eq!(s.total_wait_time_s(), 0.0);
        assert_eq!(s.sojourn_count(), 2);
        assert_eq!(s.total_delay_s(), s.tours[0].return_time_s + s.tours[1].return_time_s);
    }

    #[test]
    fn error_display_mentions_the_sensor() {
        let e = ScheduleViolation::Undercharged(SensorId(3));
        assert!(e.to_string().contains("s3"));
    }
}
