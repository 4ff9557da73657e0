//! Lower bounds on the optimal longest charge delay.
//!
//! Theorem 1 of the paper proves Appro is within
//! `ρ = 40π · τ_max/τ_min + 1` of optimal — a large constant. These
//! instance-specific lower bounds let tests and the `quality` bench
//! measure how close the algorithm *actually* gets:
//!
//! - [`reach_lower_bound`]: the charger serving the farthest sensor must
//!   travel to within `γ` of it, charge at least `t_v`, and return.
//! - [`work_lower_bound`]: sensors pairwise farther than `2γ` apart can
//!   never share a sojourn, so their charge durations are pure serial
//!   work, split across at most `K` chargers at best.
//! - [`lower_bound`]: the max of the two.
//!
//! [`rho`] states Theorem 1's ratio for the instance at hand.
//!
//! Every bound is valid for *any* feasible schedule, including the
//! optimum, so `schedule.longest_delay_s() / lower_bound(p)` is an upper
//! estimate of the true approximation ratio on that instance.

use wrsn_algo::Graph;
use wrsn_geom::Point;

use crate::ChargingProblem;

/// Lower bound from the hardest single sensor: any schedule must send
/// some charger to within `γ` of every sensor `v`, spend at least `t_v`
/// charging it (no other charger may overlap it meanwhile), and that
/// charger must eventually return to the depot.
///
/// Returns 0 for an empty instance.
pub fn reach_lower_bound(problem: &ChargingProblem) -> f64 {
    let gamma = problem.params().gamma_m;
    let speed = problem.params().speed_mps;
    (0..problem.len())
        .map(|i| {
            let d = problem.depot().dist(problem.targets()[i].pos);
            let travel = 2.0 * ((d - gamma).max(0.0)) / speed;
            travel + problem.charge_duration(i)
        })
        .fold(0.0, f64::max)
}

/// Lower bound from unshareable charging work: greedily pick a set of
/// sensors pairwise farther than `2γ` apart (an independent set of the
/// `2γ` disk graph). No two of them can be charged by one sojourn, and
/// simultaneous charging *of the same sensor* is forbidden, so their
/// total charge time divided by `K` bounds the longest tour. Travel is
/// ignored, keeping the bound conservative.
pub fn work_lower_bound(problem: &ChargingProblem) -> f64 {
    if problem.is_empty() {
        return 0.0;
    }
    let pts: Vec<Point> = problem.targets().iter().map(|t| t.pos).collect();
    let g = Graph::unit_disk(&pts, 2.0 * problem.params().gamma_m);
    // Prefer heavy nodes first so the chosen set carries maximal work.
    let mut order: Vec<usize> = (0..problem.len()).collect();
    order.sort_by(|&a, &b| {
        problem
            .charge_duration(b)
            .partial_cmp(&problem.charge_duration(a))
            .unwrap()
            .then(a.cmp(&b))
    });
    let mut blocked = vec![false; problem.len()];
    let mut work = 0.0;
    for v in order {
        if !blocked[v] {
            work += problem.charge_duration(v);
            blocked[v] = true;
            for &u in g.neighbors(v) {
                blocked[u as usize] = true;
            }
        }
    }
    work / problem.charger_count() as f64
}

/// The tightest of the implemented lower bounds.
pub fn lower_bound(problem: &ChargingProblem) -> f64 {
    reach_lower_bound(problem).max(work_lower_bound(problem))
}

/// Theorem 1's approximation ratio on `problem`,
/// `ρ = 40π · τ_max/τ_min + 1`, from the instance's shortest and longest
/// charge durations `t_v`: Appro's longest delay is at most `ρ` times
/// the optimum. Eq. 2's `τ(v)` has the same maximum and a minimum at
/// least as large, so this `ρ` is never smaller than the paper's under
/// either reading, and equals `40π + 1` only when every duration is the
/// same.
///
/// `None` for an empty instance or a zero charge duration, where the
/// theorem gives no finite ratio.
pub fn rho(problem: &ChargingProblem) -> Option<f64> {
    let durations = || problem.targets().iter().map(|t| t.charge_duration_s);
    let max = durations().fold(f64::NEG_INFINITY, f64::max);
    let min = durations().fold(f64::INFINITY, f64::min);
    (!problem.is_empty() && min > 0.0).then(|| 40.0 * std::f64::consts::PI * max / min + 1.0)
}

/// Targets no charger of the fleet can ever serve under the given
/// energy model, ascending: even departing the depot on a full battery,
/// the round trip to the target plus its wireless transfer exceeds the
/// battery capacity. These are hard infeasibilities — no tour split or
/// recharge detour helps — so admission control should shed them up
/// front rather than let [`crate::split_schedule`] drop them round
/// after round. Empty for an inactive model.
pub fn energy_unserviceable(
    problem: &ChargingProblem,
    model: &crate::ChargerEnergyModel,
) -> Vec<usize> {
    if !model.is_active() {
        return Vec::new();
    }
    let speed = problem.params().speed_mps;
    let eta = problem.params().eta_w;
    (0..problem.len())
        .filter(|&i| {
            let round_trip =
                model.travel_energy_j(2.0 * problem.depot_travel_time(i) * speed);
            let transfer = model.transfer_drain_j(problem.charge_duration(i) * eta);
            round_trip + transfer > model.capacity_j + 1e-9
        })
        .collect()
}

/// Incremental, conservative estimate of the delay bound a request set
/// imposes on a `K`-charger fleet — the admission-control side of the
/// instance bounds above.
///
/// Where [`lower_bound`] *under*-estimates the optimum (it is a lower
/// bound on any schedule), an admission controller needs the opposite
/// direction: a cheap *over*-estimate of the demand, so that shedding
/// decisions are safe — a set the estimator accepts is genuinely
/// serviceable within the bound by at least one schedule shape. The
/// estimator therefore treats all charging work as serial (ignoring
/// `2γ`-disk sharing, which can only help) and adds the worst
/// depot-reach term:
///
/// `bound = max(reach, total_charge_work / K)`
///
/// with `reach = max_v 2·(d_v − γ)⁺/s + t_v`, exactly the per-sensor
/// term of [`reach_lower_bound`]. Both components are `O(1)` to update
/// per admitted request, so a dispatcher can rank candidates and admit
/// greedily without rebuilding a [`ChargingProblem`] per prefix.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionEstimator {
    k: f64,
    gamma_m: f64,
    speed_mps: f64,
    work_s: f64,
    reach_s: f64,
}

impl AdmissionEstimator {
    /// An empty estimator for `k` chargers with transfer radius
    /// `gamma_m` and travel speed `speed_mps`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `speed_mps` is not strictly positive.
    pub fn new(k: usize, gamma_m: f64, speed_mps: f64) -> Self {
        assert!(k >= 1, "need at least one charger");
        assert!(speed_mps > 0.0, "travel speed must be positive");
        AdmissionEstimator { k: k as f64, gamma_m, speed_mps, work_s: 0.0, reach_s: 0.0 }
    }

    /// The per-sensor reach term: round trip to within `γ` plus the
    /// charge duration.
    fn reach_term(&self, depot_dist_m: f64, charge_s: f64) -> f64 {
        2.0 * (depot_dist_m - self.gamma_m).max(0.0) / self.speed_mps + charge_s
    }

    /// The estimated delay bound if a request at `depot_dist_m` meters
    /// from the depot needing `charge_s` seconds of charging were
    /// admitted on top of the already-admitted set.
    pub fn bound_with(&self, depot_dist_m: f64, charge_s: f64) -> f64 {
        let reach = self.reach_s.max(self.reach_term(depot_dist_m, charge_s));
        reach.max((self.work_s + charge_s) / self.k)
    }

    /// Admits the request, folding it into the running estimate.
    pub fn admit(&mut self, depot_dist_m: f64, charge_s: f64) {
        self.reach_s = self.reach_s.max(self.reach_term(depot_dist_m, charge_s));
        self.work_s += charge_s;
    }

    /// The estimated delay bound of the admitted set so far (0 when
    /// empty).
    pub fn bound_s(&self) -> f64 {
        self.reach_s.max(self.work_s / self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Appro, ChargingParams, ChargingTarget, Planner, PlannerConfig};
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
    fn empty_instance_bounds_are_zero() {
        let p = problem(&[], 2);
        assert_eq!(reach_lower_bound(&p), 0.0);
        assert_eq!(work_lower_bound(&p), 0.0);
        assert_eq!(lower_bound(&p), 0.0);
    }

    #[test]
    fn rho_scales_with_the_duration_spread() {
        let uniform = 40.0 * std::f64::consts::PI + 1.0;
        assert_eq!(rho(&problem(&[(1.0, 1.0, 60.0), (9.0, 9.0, 60.0)], 1)), Some(uniform));
        let spread = rho(&problem(&[(1.0, 1.0, 30.0), (9.0, 9.0, 60.0)], 1)).unwrap();
        assert!((spread - (2.0 * (uniform - 1.0) + 1.0)).abs() < 1e-9);
        assert_eq!(rho(&problem(&[], 1)), None);
        assert_eq!(rho(&problem(&[(1.0, 1.0, 0.0), (9.0, 9.0, 60.0)], 1)), None);
    }

    #[test]
    fn reach_bound_single_sensor_is_exact() {
        // One sensor 100 m out, t_v = 50 s, γ = 2.7, s = 1.
        let p = problem(&[(100.0, 0.0, 50.0)], 1);
        let expected = 2.0 * (100.0 - 2.7) + 50.0;
        assert!((reach_lower_bound(&p) - expected).abs() < 1e-9);
        // Appro's schedule on a single sensor stops AT it (slightly
        // longer than the bound, which allows stopping at distance γ).
        let s = Appro::new(PlannerConfig::default()).plan(&p).unwrap();
        assert!(s.longest_delay_s() >= reach_lower_bound(&p) - 1e-9);
        assert!(s.longest_delay_s() <= expected + 2.0 * 2.7 + 1e-9);
    }

    #[test]
    fn work_bound_counts_far_apart_sensors() {
        // Three sensors pairwise 50 m apart, t = 100 each, K = 1:
        // at least 300 s of serial charging.
        let p = problem(&[(0.0, 0.0, 100.0), (50.0, 0.0, 100.0), (0.0, 50.0, 100.0)], 1);
        assert!((work_lower_bound(&p) - 300.0).abs() < 1e-9);
        // With K = 3 the work spreads.
        let p3 = problem(&[(0.0, 0.0, 100.0), (50.0, 0.0, 100.0), (0.0, 50.0, 100.0)], 3);
        assert!((work_lower_bound(&p3) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn work_bound_does_not_double_count_shared_coverage() {
        // Two sensors 1 m apart share every sojourn: only the heavier one
        // counts.
        let p = problem(&[(10.0, 0.0, 100.0), (11.0, 0.0, 400.0)], 1);
        assert!((work_lower_bound(&p) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_never_exceed_any_certified_schedule() {
        use wrsn_net::{InitialCharge, NetworkBuilder};
        for seed in 0..5u64 {
            let net = NetworkBuilder::new(150)
                .seed(seed)
                .initial_charge(InitialCharge::UniformFraction { lo: 0.02, hi: 0.18 })
                .build();
            let req = net.default_requesting_sensors();
            let p = ChargingProblem::from_network(&net, &req, 2).unwrap();
            let s = Appro::new(PlannerConfig::default()).plan(&p).unwrap();
            s.certify(&p).unwrap();
            let lb = lower_bound(&p);
            assert!(
                s.longest_delay_s() >= lb - 1e-6,
                "seed {seed}: schedule {:.1} beat the lower bound {:.1}",
                s.longest_delay_s(),
                lb
            );
        }
    }

    #[test]
    fn admission_estimator_dominates_lower_bound() {
        // The estimator is the safe over-approximation: feeding it every
        // target of an instance must never land below the certified
        // lower bound of that instance.
        use wrsn_net::{InitialCharge, NetworkBuilder};
        for seed in 0..3u64 {
            let net = NetworkBuilder::new(120)
                .seed(seed)
                .initial_charge(InitialCharge::UniformFraction { lo: 0.02, hi: 0.18 })
                .build();
            let req = net.default_requesting_sensors();
            let p = ChargingProblem::from_network(&net, &req, 2).unwrap();
            let params = p.params();
            let mut est = AdmissionEstimator::new(2, params.gamma_m, params.speed_mps);
            for i in 0..p.len() {
                est.admit(p.depot().dist(p.targets()[i].pos), p.charge_duration(i));
            }
            assert!(
                est.bound_s() >= lower_bound(&p) - 1e-9,
                "seed {seed}: estimate {:.1} below lower bound {:.1}",
                est.bound_s(),
                lower_bound(&p)
            );
        }
    }

    #[test]
    fn admission_estimator_is_incremental() {
        let mut est = AdmissionEstimator::new(2, 2.7, 1.0);
        assert_eq!(est.bound_s(), 0.0);
        // One sensor 50 m out needing 100 s: reach dominates.
        let first = est.bound_with(50.0, 100.0);
        assert!((first - (2.0 * 47.3 + 100.0)).abs() < 1e-9);
        est.admit(50.0, 100.0);
        assert_eq!(est.bound_s(), first);
        // Lots of nearby work: the serial-work term takes over at K=2.
        for _ in 0..10 {
            est.admit(1.0, 500.0);
        }
        assert!((est.bound_s() - (100.0 + 5_000.0) / 2.0).abs() < 1e-9);
        // bound_with previews without mutating.
        let preview = est.bound_with(0.0, 1_000.0);
        assert!(preview > est.bound_s());
        assert!((est.bound_s() - 2_550.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "charger")]
    fn admission_estimator_rejects_zero_chargers() {
        let _ = AdmissionEstimator::new(0, 2.7, 1.0);
    }

    #[test]
    fn energy_unserviceable_flags_out_of_reach_targets() {
        use crate::ChargerEnergyModel;
        let p = problem(&[(10.0, 0.0, 10.0), (200.0, 0.0, 10.0)], 1);
        let inert = ChargerEnergyModel::default();
        assert!(energy_unserviceable(&p, &inert).is_empty());
        let tight = ChargerEnergyModel {
            capacity_j: 100.0,
            travel_j_per_m: 1.0,
            transfer_efficiency: 1.0,
            recharge_w: 10.0,
            rescue: false,
        };
        // Target 1 needs a 400 m round trip on a 100 J battery.
        assert_eq!(energy_unserviceable(&p, &tight), vec![1]);
        let roomy = ChargerEnergyModel { capacity_j: 1_000.0, ..tight };
        assert!(energy_unserviceable(&p, &roomy).is_empty());
    }

    #[test]
    fn lower_bound_is_the_max_of_components() {
        let p = problem(&[(40.0, 0.0, 10.0), (0.0, 40.0, 10.0)], 1);
        assert_eq!(
            lower_bound(&p),
            reach_lower_bound(&p).max(work_lower_bound(&p))
        );
    }
}
