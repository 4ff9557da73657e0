//! Algorithm `Appro` — the paper's approximation algorithm (Algorithm 1).
//!
//! Pipeline, faithful to the paper:
//!
//! 1. **Charging graph** `G_c` over the request set `V_s`: sensors
//!    adjacent iff within the charging radius `γ` (line 1).
//! 2. **MIS** `S_I` of `G_c` (line 2): every requested sensor is within
//!    `γ` of some node of `S_I`, so `S_I` is a sufficient set of sojourn
//!    locations.
//! 3. **Auxiliary graph** `H` over `S_I`: an edge means the two coverage
//!    disks share a sensor — parking two MCVs there at the same time is
//!    prohibited (line 3).
//! 4. **MIS** `V'_H` of `H` (line 4): a core of sojourn locations whose
//!    coverages are pairwise disjoint, so MCVs on `V'_H` can never
//!    conflict, at any time.
//! 5. **Min–max `K` rooted tours** over `V'_H` with service times `τ(v)`
//!    (line 5), via the 5-approximation of Liang et al.
//!    ([`wrsn_algo::ktour`]).
//! 6. **Insertion phase** (lines 7–24): every remaining candidate
//!    `u ∈ S_I \ V'_H` is either skipped (its whole coverage is already
//!    charged by scheduled stops) or spliced into a tour *immediately
//!    after its latest-finishing `H`-neighbor* (Eqs. 9/13), with actual
//!    charge duration `τ'(u)` over only the not-yet-covered sensors
//!    (Eq. 10); downstream finish times are recomputed (Eqs. 11–12).
//!
//! When [`PlannerConfig::enforce_no_overlap`] is set (the default), a
//! final wait-based repair pass certifies the schedule conflict-free;
//! see `DESIGN.md` for why the paper's insertion rule alone does not
//! always guarantee this across tours.

use wrsn_algo::{ktour, maximal_independent_set};

use crate::conflict;
use crate::{ChargingProblem, PlanError, Planner, PlannerConfig, Schedule};

/// The paper's approximation algorithm. See the [crate docs](crate).
///
/// # Example
///
/// ```
/// use wrsn_core::{Appro, ChargingProblem, Planner, PlannerConfig};
/// use wrsn_net::{InitialCharge, NetworkBuilder};
///
/// let net = NetworkBuilder::new(100)
///     .seed(3)
///     .initial_charge(InitialCharge::UniformFraction { lo: 0.05, hi: 0.5 })
///     .build();
/// let requests = net.default_requesting_sensors();
/// let problem = ChargingProblem::from_network(&net, &requests, 2)?;
/// let schedule = Appro::new(PlannerConfig::default()).plan(&problem)?;
/// schedule.certify(&problem)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Appro {
    config: PlannerConfig,
}

/// Intermediate artifacts of an [`Appro`] run, exposed for inspection,
/// testing and the ablation benches.
#[derive(Clone, Debug)]
pub struct ApproReport {
    /// The MIS `S_I` of the charging graph (global target indices).
    pub mis: Vec<usize>,
    /// The conflict-free core `V'_H` (global target indices).
    pub core: Vec<usize>,
    /// Candidates of `S_I \ V'_H` that were inserted into tours.
    pub inserted: usize,
    /// Candidates skipped because their coverage was already charged.
    pub skipped: usize,
    /// Waiting time added by the conflict-repair pass, seconds
    /// (0 when repair is disabled or nothing conflicted).
    pub repair_wait_s: f64,
    /// The final schedule.
    pub schedule: Schedule,
}

impl Appro {
    /// Creates the planner with the given configuration.
    pub fn new(config: PlannerConfig) -> Self {
        Appro { config }
    }

    /// Runs Algorithm 1 and returns the schedule together with the
    /// intermediate artifacts (`S_I`, `V'_H`, insertion statistics).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Internal`] if an algorithm invariant is
    /// violated (a bug, not an input condition).
    pub fn plan_detailed(&self, problem: &ChargingProblem) -> Result<ApproReport, PlanError> {
        let n = problem.len();
        let k = problem.charger_count();
        if n == 0 {
            return Ok(ApproReport {
                mis: Vec::new(),
                core: Vec::new(),
                inserted: 0,
                skipped: 0,
                repair_wait_s: 0.0,
                schedule: Schedule::idle(k),
            });
        }

        // Lines 1–2: charging graph and its MIS S_I. G_c comes memoized
        // from the shared context.
        let gc = problem.context().charging_graph();
        let s_i = maximal_independent_set(gc, self.config.mis_order);

        // Lines 3–4: auxiliary graph H over S_I and its MIS V'_H.
        let h = conflict::build_conflict_graph(problem, &s_i);
        let core_local = maximal_independent_set(&h, self.config.mis_order);
        let core: Vec<usize> = core_local.iter().map(|&i| s_i[i]).collect();

        // Line 5: min–max K rooted tours over V'_H with service τ(v),
        // travel times gathered from the context's distance table.
        let sub_dist = problem.context().travel_time_matrix_for(&core)?;
        let sub_depot: Vec<f64> =
            core.iter().map(|&a| problem.depot_travel_time(a)).collect();
        let sub_service: Vec<f64> = core.iter().map(|&a| problem.tau(a)).collect();
        let sol = ktour::min_max_ktours_with_matrix(
            &sub_dist,
            &sub_depot,
            &sub_service,
            k,
            self.config.tsp_passes,
        );

        // Line 6: τ'(v) ← τ(v) on the core (coverages are disjoint there)
        // and mark everything those stops charge as covered.
        let mut tours: Vec<Vec<usize>> = sol
            .tours
            .iter()
            .map(|t| t.iter().map(|&i| core[i]).collect())
            .collect();
        let mut durs: Vec<Vec<f64>> = sol
            .tours
            .iter()
            .map(|t| t.iter().map(|&i| problem.tau(core[i])).collect())
            .collect();
        let mut covered = vec![false; n];
        for tour in &tours {
            for &v in tour {
                for &u in problem.coverage(v) {
                    covered[u as usize] = true;
                }
            }
        }

        // H adjacency in global target indices.
        let mut h_neighbors: Vec<(usize, Vec<usize>)> = Vec::with_capacity(s_i.len());
        for (li, &gv) in s_i.iter().enumerate() {
            let nbrs: Vec<usize> =
                h.neighbors(li).iter().map(|&lj| s_i[lj as usize]).collect();
            h_neighbors.push((gv, nbrs));
        }
        let neighbor_of = |g: usize| -> &Vec<usize> {
            &h_neighbors[s_i.binary_search(&g).expect("member of S_I")].1
        };

        // Finish times f(v) per tour (Eq. 6), recomputed on change.
        let finishes = |problem: &ChargingProblem, tour: &[usize], durs: &[f64]| -> Vec<f64> {
            let mut out = Vec::with_capacity(tour.len());
            let mut t = 0.0;
            let mut prev: Option<usize> = None;
            for (&v, &d) in tour.iter().zip(durs) {
                let travel = match prev {
                    None => problem.depot_travel_time(v),
                    Some(p) => problem.travel_time(p, v),
                };
                t += travel + d;
                out.push(t);
                prev = Some(v);
            }
            out
        };
        let mut fin: Vec<Vec<f64>> = tours
            .iter()
            .zip(&durs)
            .map(|(t, d)| finishes(problem, t, d))
            .collect();

        // Position lookup for scheduled sojourn locations.
        let mut pos_of: std::collections::HashMap<usize, (usize, usize)> =
            std::collections::HashMap::new();
        for (ki, tour) in tours.iter().enumerate() {
            for (li, &v) in tour.iter().enumerate() {
                pos_of.insert(v, (ki, li));
            }
        }

        // Lines 7–24: insertion phase over U = S_I \ V'_H.
        let in_core: std::collections::HashSet<usize> = core.iter().copied().collect();
        let mut pending: Vec<usize> =
            s_i.iter().copied().filter(|v| !in_core.contains(v)).collect();
        let mut inserted = 0usize;
        let mut skipped = 0usize;

        while !pending.is_empty() {
            // f_N(u): latest finish among u's scheduled H-neighbors (Eq. 8).
            // Non-empty by MIS maximality of V'_H in H.
            let f_n = |u: usize| -> (f64, Option<(usize, usize)>) {
                let mut best = f64::NEG_INFINITY;
                let mut where_ = None;
                for &w in neighbor_of(u) {
                    if let Some(&(ki, li)) = pos_of.get(&w) {
                        let f = fin[ki][li];
                        if f > best {
                            best = f;
                            where_ = Some((ki, li));
                        }
                    }
                }
                (best, where_)
            };

            // Line 9: pick u with the smallest latest-neighbor finish
            // time (or, under the ablation order, the smallest index).
            let (idx, _, anchor) = pending
                .iter()
                .enumerate()
                .map(|(i, &u)| {
                    let (f, w) = f_n(u);
                    let key = match self.config.insertion_order {
                        crate::InsertionOrder::EarliestNeighborFinish => f,
                        crate::InsertionOrder::ByIndex => u as f64,
                    };
                    (i, key, w)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .expect("pending is non-empty");
            let u = pending.swap_remove(idx);

            // Line 10: skip locations whose coverage is already charged.
            let uncovered: Vec<usize> = problem
                .coverage(u)
                .iter()
                .map(|&x| x as usize)
                .filter(|&x| !covered[x])
                .collect();
            if uncovered.is_empty() {
                skipped += 1;
                continue;
            }

            // Lines 13–20 (cases i and ii share the rule): insert u just
            // after its latest-finishing scheduled H-neighbor.
            let (k0, j0) = anchor.ok_or(PlanError::Internal(
                "candidate has no scheduled H-neighbor (V'_H not maximal?)",
            ))?;
            // Eq. 10: charge only what nobody else has charged yet.
            let tau_prime = uncovered
                .iter()
                .map(|&x| problem.charge_duration(x))
                .fold(0.0f64, f64::max);

            tours[k0].insert(j0 + 1, u);
            durs[k0].insert(j0 + 1, tau_prime);
            fin[k0] = finishes(problem, &tours[k0], &durs[k0]);
            for (li, &v) in tours[k0].iter().enumerate() {
                pos_of.insert(v, (k0, li));
            }
            for &x in &uncovered {
                covered[x] = true;
            }
            // Anything else newly in range of the stop is covered too.
            for &x in problem.coverage(u) {
                covered[x as usize] = true;
            }
            inserted += 1;
        }

        debug_assert!(covered.iter().all(|&c| c), "MIS coverage must be total");

        // Optional post-optimization (beyond the paper): shorten each
        // tour's travel with 2-opt over the visiting order. Durations
        // travel with their targets, so full-charge feasibility is
        // unaffected; cross-tour overlaps are handled by the repair pass.
        if self.config.post_optimize {
            for (tour, dur) in tours.iter_mut().zip(&mut durs) {
                if tour.len() < 3 {
                    continue;
                }
                // Matrix over this tour's stops + the depot (last index).
                let (ext, m) = problem.context().extended_time_matrix(tour)?;
                let mut perm: Vec<usize> = (0..=m).collect(); // identity, depot last
                wrsn_algo::tsp::two_opt(&ext, &mut perm, self.config.tsp_passes);
                let dpos = perm.iter().position(|&v| v == m).expect("depot in perm");
                perm.rotate_left(dpos);
                let new_tour: Vec<usize> = perm[1..].iter().map(|&i| tour[i]).collect();
                let new_dur: Vec<f64> = perm[1..].iter().map(|&i| dur[i]).collect();
                *tour = new_tour;
                *dur = new_dur;
            }
        }

        // Assemble, then (optionally) repair residual cross-tour conflicts.
        let stops: Vec<Vec<(usize, f64)>> = tours
            .iter()
            .zip(&durs)
            .map(|(t, d)| t.iter().copied().zip(d.iter().copied()).collect())
            .collect();
        let mut schedule = Schedule::assemble(problem, stops);
        let repair_wait_s = if self.config.enforce_no_overlap {
            conflict::repair_waits(problem, &mut schedule)
        } else {
            0.0
        };

        Ok(ApproReport { mis: s_i, core, inserted, skipped, repair_wait_s, schedule })
    }
}

impl Planner for Appro {
    fn name(&self) -> &'static str {
        "Appro"
    }

    fn plan(&self, problem: &ChargingProblem) -> Result<Schedule, PlanError> {
        self.plan_detailed(problem).map(|r| r.schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChargingParams, ChargingTarget};
    use wrsn_geom::Point;
    use wrsn_net::{InitialCharge, NetworkBuilder, SensorId};

    fn problem_from(pts: &[(f64, f64, f64)], k: usize) -> ChargingProblem {
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
        ChargingProblem::new(Point::new(0.0, 0.0), targets, k, ChargingParams::default())
            .unwrap()
    }

    fn net_problem(n: usize, k: usize, seed: u64) -> ChargingProblem {
        let net = NetworkBuilder::new(n)
            .seed(seed)
            .initial_charge(InitialCharge::UniformFraction { lo: 0.02, hi: 0.18 })
            .build();
        let req = net.default_requesting_sensors();
        assert_eq!(req.len(), n, "all sensors below threshold by construction");
        ChargingProblem::from_network(&net, &req, k).unwrap()
    }

    #[test]
    fn empty_problem_yields_idle_schedule() {
        let p = problem_from(&[], 3);
        let r = Appro::default().plan_detailed(&p).unwrap();
        assert_eq!(r.schedule, Schedule::idle(3));
        assert!(r.mis.is_empty());
    }

    #[test]
    fn single_sensor_single_charger() {
        let p = problem_from(&[(10.0, 0.0, 3600.0)], 1);
        let s = Appro::default().plan(&p).unwrap();
        s.certify(&p).unwrap();
        assert!((s.longest_delay_s() - (10.0 + 3600.0 + 10.0)).abs() < 1e-6);
    }

    #[test]
    fn cluster_charged_from_one_stop() {
        // Five sensors within one disk: a single sojourn suffices, and the
        // duration is the max deficit.
        let p = problem_from(
            &[
                (50.0, 50.0, 1_000.0),
                (51.0, 50.0, 2_000.0),
                (50.0, 51.0, 500.0),
                (49.5, 50.0, 1_500.0),
                (50.0, 49.2, 800.0),
            ],
            1,
        );
        let r = Appro::default().plan_detailed(&p).unwrap();
        r.schedule.certify(&p).unwrap();
        assert_eq!(r.schedule.sojourn_count(), 1);
        assert_eq!(r.schedule.tours[0].sojourns[0].duration_s, 2_000.0);
    }

    #[test]
    fn schedules_certify_across_sizes_and_k() {
        for &(n, k, seed) in
            &[(30, 1, 1u64), (60, 2, 2), (120, 3, 3), (200, 2, 4), (200, 5, 5)]
        {
            let p = net_problem(n, k, seed);
            let r = Appro::default().plan_detailed(&p).unwrap();
            assert!(
                r.schedule.certify(&p).is_ok(),
                "n={n} k={k} seed={seed}: {:?}",
                r.schedule.certify(&p)
            );
            assert_eq!(r.schedule.tours.len(), k);
        }
    }

    #[test]
    fn core_is_conflict_free_without_repair() {
        // With repair disabled, the V'_H core portion of the schedule must
        // still be overlap-free by construction; the full schedule may or
        // may not be. We check that certification fails only with
        // OverlapConflict if it fails at all.
        let mut cfg = PlannerConfig::default();
        cfg.enforce_no_overlap = false;
        let p = net_problem(150, 2, 7);
        let r = Appro::new(cfg).plan_detailed(&p).unwrap();
        match r.schedule.certify(&p) {
            Ok(()) => {}
            Err(crate::ScheduleError::OverlapConflict { .. }) => {}
            Err(other) => panic!("unexpected failure: {other:?}"),
        }
        assert_eq!(r.repair_wait_s, 0.0);
    }

    #[test]
    fn report_counts_add_up() {
        let p = net_problem(150, 2, 9);
        let r = Appro::default().plan_detailed(&p).unwrap();
        // Every S_I candidate is in the core, inserted, or skipped.
        assert_eq!(r.mis.len(), r.core.len() + r.inserted + r.skipped);
        // Scheduled sojourns = core tours' nodes + inserted.
        // (Core nodes all make it into tours.)
        assert_eq!(r.schedule.sojourn_count(), r.core.len() + r.inserted);
    }

    #[test]
    fn more_chargers_do_not_hurt_much() {
        let p1 = net_problem(150, 1, 11);
        let p3 = net_problem(150, 3, 11);
        let s1 = Appro::default().plan(&p1).unwrap();
        let s3 = Appro::default().plan(&p3).unwrap();
        s1.certify(&p1).unwrap();
        s3.certify(&p3).unwrap();
        // K=3 should win clearly on a 150-sensor instance.
        assert!(s3.longest_delay_s() < s1.longest_delay_s());
    }

    #[test]
    fn insertion_duration_is_tau_prime_not_tau() {
        // Chain: a, b, c, 2 m apart each. S_I = {a, c} (b adjacent to both).
        // With both a and c scheduled, the stop at c charges only what a
        // did not cover, so its duration is max(t_b-excluded…) — here c's
        // own need, not τ(c) = max(t_b, t_c).
        let p = problem_from(
            &[(10.0, 0.0, 100.0), (12.0, 0.0, 9_999.0), (14.0, 0.0, 50.0)],
            1,
        );
        let r = Appro::default().plan_detailed(&p).unwrap();
        r.schedule.certify(&p).unwrap();
        // Whatever stop charges c alone must not budget 9 999 s for it
        // if b was already charged at the other stop.
        let total: f64 = r.schedule.total_charge_time_s();
        assert!(
            total <= 100.0f64.max(9_999.0) + 50.0 + 1e-6,
            "total charge time {total} should avoid double-charging b"
        );
    }

    #[test]
    fn deterministic_given_config() {
        let p = net_problem(100, 2, 13);
        let a = Appro::default().plan(&p).unwrap();
        let b = Appro::default().plan(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn planner_name() {
        assert_eq!(Appro::default().name(), "Appro");
    }

    #[test]
    fn post_optimize_certifies_and_never_hurts_much() {
        for seed in [41u64, 42, 43] {
            let p = net_problem(150, 2, seed);
            let base = Appro::default().plan(&p).unwrap();
            let cfg = PlannerConfig { post_optimize: true, ..Default::default() };
            let opt = Appro::new(cfg).plan(&p).unwrap();
            opt.certify(&p).unwrap();
            assert_eq!(opt.sojourn_count(), base.sojourn_count());
            // Travel-only improvement; charging dominates, so the delta
            // is small but must never blow the delay up.
            assert!(
                opt.longest_delay_s() <= 1.05 * base.longest_delay_s(),
                "seed {seed}: post-opt {:.0} vs base {:.0}",
                opt.longest_delay_s(),
                base.longest_delay_s()
            );
        }
    }

    #[test]
    fn both_insertion_orders_certify() {
        let p = net_problem(150, 2, 21);
        for order in
            [crate::InsertionOrder::EarliestNeighborFinish, crate::InsertionOrder::ByIndex]
        {
            let cfg = PlannerConfig { insertion_order: order, ..Default::default() };
            let s = Appro::new(cfg).plan(&p).unwrap();
            assert!(s.certify(&p).is_ok(), "{order:?}: {:?}", s.certify(&p));
        }
    }

    #[test]
    fn partial_charging_shrinks_durations() {
        use crate::ChargingParams;
        use wrsn_net::NetworkBuilder;
        let net = NetworkBuilder::new(100)
            .seed(31)
            .initial_charge(InitialCharge::UniformFraction { lo: 0.05, hi: 0.15 })
            .build();
        let req = net.default_requesting_sensors();
        let full = ChargingProblem::from_network_with(
            &net,
            &req,
            2,
            ChargingParams::default(),
        )
        .unwrap();
        let partial = ChargingProblem::from_network_with(
            &net,
            &req,
            2,
            ChargingParams::with_partial_charging(0.5),
        )
        .unwrap();
        let s_full = Appro::default().plan(&full).unwrap();
        let s_partial = Appro::default().plan(&partial).unwrap();
        s_full.certify(&full).unwrap();
        s_partial.certify(&partial).unwrap();
        assert!(
            s_partial.total_charge_time_s() < 0.7 * s_full.total_charge_time_s(),
            "partial {:.0} vs full {:.0}",
            s_partial.total_charge_time_s(),
            s_full.total_charge_time_s()
        );
    }
}
