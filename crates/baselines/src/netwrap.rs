//! NETWRAP: greedy on-demand selection by travel time and urgency.
//!
//! Paper §VI-A (ii), after Wang et al.: whenever an MCV becomes idle it
//! selects the pending sensor with the minimum weighted sum of (a) the
//! travel time from the MCV's current location and (b) the sensor's
//! residual lifetime; ties are broken toward the lower sensor index. A
//! sensor is claimed by exactly one MCV.
//!
//! Travel times and lifetimes live on very different scales (tens of
//! seconds vs days), so both terms are normalized by their maxima over
//! the pending set before the weighting — otherwise the rule degenerates
//! to pure EDF. The weight is configurable; 0.5 by default.

use wrsn_core::{ChargingProblem, PlanError, Planner, PlannerConfig, Schedule};
use wrsn_geom::Point;

/// The NETWRAP baseline planner. See the [crate docs](crate).
#[derive(Clone, Debug)]
pub struct Netwrap {
    config: PlannerConfig,
    /// Weight on the (normalized) travel-time term; `1 − weight` goes to
    /// the residual-lifetime term. In `[0, 1]`.
    travel_weight: f64,
}

impl Default for Netwrap {
    fn default() -> Self {
        Netwrap { config: PlannerConfig::default(), travel_weight: 0.5 }
    }
}

impl Netwrap {
    /// Creates the planner with the given configuration and the default
    /// 0.5 travel weight.
    pub fn new(config: PlannerConfig) -> Self {
        Netwrap { config, travel_weight: 0.5 }
    }

    /// Sets the travel-time weight.
    ///
    /// # Panics
    ///
    /// Panics if `w` is outside `[0, 1]`.
    pub fn with_travel_weight(mut self, w: f64) -> Self {
        assert!((0.0..=1.0).contains(&w), "weight must be in [0, 1]");
        self.travel_weight = w;
        self
    }
}

impl Planner for Netwrap {
    fn name(&self) -> &'static str {
        "NETWRAP"
    }

    fn plan(&self, problem: &ChargingProblem) -> Result<Schedule, PlanError> {
        let k = problem.charger_count();
        let n = problem.len();
        if n == 0 {
            return Ok(Schedule::idle(k));
        }

        let mut pending: Vec<bool> = vec![true; n];
        let mut remaining = n;
        let mut stops: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k];
        let mut pos: Vec<Point> = vec![problem.depot(); k];
        let mut free_at = vec![0.0f64; k];

        // Normalization constants over the whole instance (stable, so a
        // sensor's score does not jump as others are claimed).
        let max_life = problem
            .targets()
            .iter()
            .map(|t| t.residual_lifetime_s)
            .filter(|l| l.is_finite())
            .fold(0.0f64, f64::max)
            .max(1.0);
        let diag = 2.0
            * problem
                .targets()
                .iter()
                .map(|t| t.pos.dist(problem.depot()))
                .fold(0.0f64, f64::max)
            / problem.params().speed_mps;
        let max_travel = diag.max(1.0);

        while remaining > 0 {
            // The earliest-idle MCV claims next (ties toward lower index).
            let c = (0..k)
                .min_by(|&a, &b| free_at[a].partial_cmp(&free_at[b]).unwrap())
                .expect("k >= 1");
            let best = (0..n)
                .filter(|&s| pending[s])
                .min_by(|&a, &b| {
                    let score = |s: usize| {
                        let travel =
                            pos[c].dist(problem.targets()[s].pos) / problem.params().speed_mps;
                        let life = problem.targets()[s].residual_lifetime_s.min(max_life);
                        self.travel_weight * (travel / max_travel)
                            + (1.0 - self.travel_weight) * (life / max_life)
                    };
                    score(a).partial_cmp(&score(b)).unwrap().then(a.cmp(&b))
                })
                .expect("remaining > 0");
            pending[best] = false;
            remaining -= 1;
            let travel = pos[c].dist(problem.targets()[best].pos) / problem.params().speed_mps;
            let dur = problem.charge_duration(best);
            free_at[c] += travel + dur;
            pos[c] = problem.targets()[best].pos;
            stops[c].push((best, dur));
        }

        Ok(crate::finish_schedule(problem, &self.config, stops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::net_problem;
    use wrsn_core::{ChargingParams, ChargingTarget};
    use wrsn_net::SensorId;

    fn target(id: u32, x: f64, t: f64, life: f64) -> ChargingTarget {
        ChargingTarget {
            id: SensorId(id),
            pos: Point::new(x, 0.0),
            charge_duration_s: t,
            residual_lifetime_s: life,
        }
    }

    #[test]
    fn empty_problem() {
        let p = ChargingProblem::new(Point::ORIGIN, Vec::new(), 3, ChargingParams::default())
            .unwrap();
        assert_eq!(Netwrap::default().plan(&p).unwrap(), Schedule::idle(3));
    }

    #[test]
    fn pure_travel_weight_picks_the_nearest() {
        let targets = vec![target(0, 90.0, 10.0, 1.0), target(1, 5.0, 10.0, 1e9)];
        let p =
            ChargingProblem::new(Point::ORIGIN, targets, 1, ChargingParams::default()).unwrap();
        let s = Netwrap::default().with_travel_weight(1.0).plan(&p).unwrap();
        assert_eq!(s.tours[0].visited()[0], 1); // nearest first
    }

    #[test]
    fn pure_lifetime_weight_picks_the_most_urgent() {
        let targets = vec![target(0, 90.0, 10.0, 1.0), target(1, 5.0, 10.0, 1e9)];
        let p =
            ChargingProblem::new(Point::ORIGIN, targets, 1, ChargingParams::default()).unwrap();
        let s = Netwrap::default().with_travel_weight(0.0).plan(&p).unwrap();
        assert_eq!(s.tours[0].visited()[0], 0); // most urgent first
    }

    #[test]
    fn every_sensor_claimed_exactly_once() {
        for &(n, k, seed) in &[(50, 2, 1u64), (90, 3, 2)] {
            let p = net_problem(n, k, seed);
            let s = Netwrap::default().plan(&p).unwrap();
            assert_eq!(s.sojourn_count(), n);
            assert!(s.certify(&p).is_ok(), "{:?}", s.certify(&p));
        }
    }

    #[test]
    fn workload_spreads_across_chargers() {
        let p = net_problem(60, 3, 5);
        let s = Netwrap::default().plan(&p).unwrap();
        assert!(s.tours.iter().all(|t| !t.sojourns.is_empty()));
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn out_of_range_weight_panics() {
        let _ = Netwrap::default().with_travel_weight(1.5);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Netwrap::default().name(), "NETWRAP");
    }
}
