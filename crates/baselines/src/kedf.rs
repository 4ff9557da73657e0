//! K-EDF: Earliest Deadline First with `K` mobile chargers.
//!
//! Paper §VI-A (i): sort the to-be-charged sensors by residual lifetime
//! ascending, partition them into consecutive groups of `K` (the last
//! group may be smaller), and assign the sensors of each group to the
//! `K` MCVs so that the sum of travel distances from the MCVs' *current*
//! locations is minimized — a linear assignment problem solved here with
//! the Hungarian algorithm.

use wrsn_algo::assignment::hungarian;
use wrsn_core::{ChargingProblem, PlanError, Planner, PlannerConfig, Schedule};
use wrsn_geom::Point;

/// The K-EDF baseline planner. See the [crate docs](crate).
#[derive(Clone, Debug, Default)]
pub struct KEdf {
    config: PlannerConfig,
}

impl KEdf {
    /// Creates the planner with the given configuration.
    pub fn new(config: PlannerConfig) -> Self {
        KEdf { config }
    }
}

impl Planner for KEdf {
    fn name(&self) -> &'static str {
        "K-EDF"
    }

    fn plan(&self, problem: &ChargingProblem) -> Result<Schedule, PlanError> {
        let k = problem.charger_count();
        let n = problem.len();
        if n == 0 {
            return Ok(Schedule::idle(k));
        }

        // Sort by residual lifetime (most urgent first); ties by index
        // for determinism.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let ta = problem.targets()[a].residual_lifetime_s;
            let tb = problem.targets()[b].residual_lifetime_s;
            ta.partial_cmp(&tb).unwrap().then(a.cmp(&b))
        });

        let mut stops: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k];
        let mut positions: Vec<Point> = vec![problem.depot(); k];

        for group in order.chunks(k) {
            // Hungarian: rows = group sensors, cols = chargers,
            // cost = travel distance from the charger's current location.
            let cost: Vec<Vec<f64>> = group
                .iter()
                .map(|&s| {
                    positions
                        .iter()
                        .map(|&p| p.dist(problem.targets()[s].pos))
                        .collect()
                })
                .collect();
            let (assignment, _) = hungarian(&cost);
            for (gi, &charger) in assignment.iter().enumerate() {
                let s = group[gi];
                stops[charger].push((s, problem.charge_duration(s)));
                positions[charger] = problem.targets()[s].pos;
            }
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
        let p = ChargingProblem::new(Point::ORIGIN, Vec::new(), 2, ChargingParams::default())
            .unwrap();
        let s = KEdf::default().plan(&p).unwrap();
        assert_eq!(s, Schedule::idle(2));
    }

    #[test]
    fn urgent_sensors_are_visited_first() {
        // Two far-apart sensors; the one with the shorter lifetime must be
        // the first stop of its charger even though it is farther away.
        let targets = vec![
            target(0, 10.0, 100.0, 1e6), // relaxed
            target(1, 90.0, 100.0, 1e3), // urgent
        ];
        let p = ChargingProblem::new(Point::ORIGIN, targets, 1, ChargingParams::default())
            .unwrap();
        let s = KEdf::default().plan(&p).unwrap();
        assert_eq!(s.tours[0].visited(), vec![1, 0]);
        s.certify(&p).unwrap();
    }

    #[test]
    fn group_assignment_minimizes_travel() {
        // Two chargers, two equally-urgent sensors on opposite sides:
        // each charger should take the nearer one... from the depot both
        // are symmetric, so just check both are covered by distinct tours.
        let targets = vec![target(0, 20.0, 50.0, 1e3), target(1, 80.0, 50.0, 1e3)];
        let p = ChargingProblem::new(Point::new(50.0, 0.0), targets, 2, ChargingParams::default())
            .unwrap();
        let s = KEdf::default().plan(&p).unwrap();
        assert_eq!(s.tours.iter().filter(|t| t.sojourns.len() == 1).count(), 2);
        s.certify(&p).unwrap();
    }

    #[test]
    fn certifies_on_random_instances() {
        for &(n, k, seed) in &[(40, 2, 1u64), (80, 3, 2), (120, 4, 3)] {
            let p = net_problem(n, k, seed);
            let s = KEdf::default().plan(&p).unwrap();
            assert!(s.certify(&p).is_ok(), "n={n} k={k}: {:?}", s.certify(&p));
            assert_eq!(s.sojourn_count(), n); // visits every sensor
        }
    }

    #[test]
    fn last_partial_group_is_handled() {
        // 5 sensors, K = 2: groups of 2, 2, 1.
        let p = net_problem(5, 2, 9);
        let s = KEdf::default().plan(&p).unwrap();
        assert_eq!(s.sojourn_count(), 5);
        s.certify(&p).unwrap();
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(KEdf::default().name(), "K-EDF");
    }
}
