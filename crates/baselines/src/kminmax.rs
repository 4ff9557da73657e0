//! K-minMax: min–max `K` rooted tours over all requested sensors.
//!
//! Paper §VI-A (iii), after Liang et al.: find `K` node-disjoint closed
//! tours visiting every to-be-charged sensor so that the longest tour
//! delay is minimized (a 5-approximation). This is the strongest
//! one-to-one baseline — it optimizes the same objective as `Appro` but
//! without multi-node charging, so it must visit and individually charge
//! every sensor.

use wrsn_algo::ktour::min_max_ktours_with_matrix;
use wrsn_core::{ChargingProblem, PlanError, Planner, PlannerConfig, Schedule};

/// The K-minMax baseline planner. See the [crate docs](crate).
#[derive(Clone, Debug, Default)]
pub struct KMinMax {
    config: PlannerConfig,
}

impl KMinMax {
    /// Creates the planner with the given configuration.
    pub fn new(config: PlannerConfig) -> Self {
        KMinMax { config }
    }
}

impl Planner for KMinMax {
    fn name(&self) -> &'static str {
        "K-minMax"
    }

    fn plan(&self, problem: &ChargingProblem) -> Result<Schedule, PlanError> {
        let k = problem.charger_count();
        if problem.is_empty() {
            return Ok(Schedule::idle(k));
        }
        let dist = problem.context().try_travel_time_matrix()?;
        let depot = problem.depot_travel_vector();
        let service: Vec<f64> =
            (0..problem.len()).map(|i| problem.charge_duration(i)).collect();
        let sol = min_max_ktours_with_matrix(&dist, &depot, &service, k, self.config.tsp_passes);
        let stops: Vec<Vec<(usize, f64)>> = sol
            .tours
            .into_iter()
            .map(|t| t.into_iter().map(|v| (v, service[v])).collect())
            .collect();
        Ok(crate::finish_schedule(problem, &self.config, stops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::net_problem;

    #[test]
    fn covers_every_sensor_exactly_once() {
        for &(n, k, seed) in &[(40, 1, 1u64), (80, 2, 2), (120, 4, 3)] {
            let p = net_problem(n, k, seed);
            let s = KMinMax::default().plan(&p).unwrap();
            assert_eq!(s.sojourn_count(), n);
            assert!(s.certify(&p).is_ok(), "n={n} k={k}: {:?}", s.certify(&p));
        }
    }

    #[test]
    fn more_chargers_reduce_the_longest_tour() {
        let p1 = net_problem(100, 1, 7);
        let p4 = net_problem(100, 4, 7);
        let s1 = KMinMax::default().plan(&p1).unwrap();
        let s4 = KMinMax::default().plan(&p4).unwrap();
        assert!(s4.longest_delay_s() < s1.longest_delay_s());
    }

    #[test]
    fn empty_problem() {
        use wrsn_core::ChargingParams;
        use wrsn_geom::Point;
        let p = ChargingProblem::new(Point::ORIGIN, Vec::new(), 2, ChargingParams::default())
            .unwrap();
        assert_eq!(KMinMax::default().plan(&p).unwrap(), Schedule::idle(2));
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(KMinMax::default().name(), "K-minMax");
    }
}
