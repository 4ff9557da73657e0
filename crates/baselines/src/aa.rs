//! AA: k-means partition, one MCV per cluster.
//!
//! Paper §VI-A (iv), after Wang et al.: partition the to-be-charged
//! sensors into `K` groups with k-means and let each MCV charge the
//! sensors of one group. The original maximizes charged energy minus
//! travel cost under energy budgets; with the paper's "enough MCVs /
//! unconstrained charger energy" assumption the natural rendition — and
//! the one consistent with the delays the paper reports for AA — is that
//! each MCV serves its whole cluster along a locally-improved TSP tour.
//! Because k-means balances *geometry*, not *work*, cluster workloads are
//! uneven and the longest tour suffers — the effect that makes AA the
//! weakest baseline in the paper's Fig. 3.

use wrsn_algo::kmeans::kmeans;
use wrsn_algo::tsp;
use wrsn_core::{ChargingProblem, PlanError, Planner, PlannerConfig, Schedule};
use wrsn_geom::Point;

/// The AA baseline planner. See the [crate docs](crate).
#[derive(Clone, Debug)]
#[derive(Default)]
pub struct Aa {
    config: PlannerConfig,
    seed: u64,
}


impl Aa {
    /// Creates the planner with the given configuration (k-means seed 0).
    pub fn new(config: PlannerConfig) -> Self {
        Aa { config, seed: 0 }
    }

    /// Sets the k-means seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Planner for Aa {
    fn name(&self) -> &'static str {
        "AA"
    }

    fn plan(&self, problem: &ChargingProblem) -> Result<Schedule, PlanError> {
        let k = problem.charger_count();
        let n = problem.len();
        if n == 0 {
            return Ok(Schedule::idle(k));
        }

        let pts: Vec<Point> = problem.targets().iter().map(|t| t.pos).collect();
        let km = kmeans(&pts, k, self.seed, 200);

        let mut stops: Vec<Vec<(usize, f64)>> = Vec::with_capacity(k);
        for c in 0..k {
            let members = km.cluster(c);
            if members.is_empty() {
                stops.push(Vec::new());
                continue;
            }
            // Tour within the cluster: depot + members, rotated to start
            // after the depot.
            let (ext, m) = problem.context().extended_time_matrix(&members)?;
            let mut tour = tsp::build_tour(&ext, self.config.tsp_passes);
            let dpos = tour.iter().position(|&v| v == m).expect("depot in tour");
            tour.rotate_left(dpos);
            stops.push(
                tour[1..]
                    .iter()
                    .map(|&li| {
                        let g = members[li];
                        (g, problem.charge_duration(g))
                    })
                    .collect(),
            );
        }

        Ok(crate::finish_schedule(problem, &self.config, stops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::net_problem;

    #[test]
    fn covers_every_sensor_exactly_once() {
        for &(n, k, seed) in &[(40, 2, 1u64), (90, 3, 2), (120, 5, 3)] {
            let p = net_problem(n, k, seed);
            let s = Aa::default().plan(&p).unwrap();
            assert_eq!(s.sojourn_count(), n);
            assert!(s.certify(&p).is_ok(), "n={n} k={k}: {:?}", s.certify(&p));
        }
    }

    #[test]
    fn clusters_map_to_distinct_chargers() {
        let p = net_problem(60, 3, 4);
        let s = Aa::default().plan(&p).unwrap();
        assert_eq!(s.tours.len(), 3);
        // All sensors covered; k-means rarely leaves a cluster empty here.
        let visited: usize = s.tours.iter().map(|t| t.sojourns.len()).sum();
        assert_eq!(visited, 60);
    }

    #[test]
    fn empty_problem() {
        use wrsn_core::ChargingParams;
        use wrsn_geom::Point;
        let p = ChargingProblem::new(Point::ORIGIN, Vec::new(), 2, ChargingParams::default())
            .unwrap();
        assert_eq!(Aa::default().plan(&p).unwrap(), Schedule::idle(2));
    }

    #[test]
    fn deterministic_per_seed() {
        let p = net_problem(50, 2, 8);
        let a = Aa::default().plan(&p).unwrap();
        let b = Aa::default().plan(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Aa::default().name(), "AA");
    }
}
