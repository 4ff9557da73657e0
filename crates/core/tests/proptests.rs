//! Property-based tests for the charging core.

use proptest::prelude::*;
use wrsn_core::{
    conflict, Appro, ChargingParams, ChargingProblem, ChargingTarget, ContextMode, Planner,
    PlannerConfig, ProblemContext, Schedule, ShardedPlanner,
};
use wrsn_geom::Point;
use wrsn_net::SensorId;

fn problem_strategy(max: usize) -> impl Strategy<Value = ChargingProblem> {
    (
        proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..5400.0),
            0..max,
        ),
        1usize..5,
    )
        .prop_map(|(pts, k)| {
            let targets = pts
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, t))| ChargingTarget {
                    id: SensorId(i as u32),
                    pos: Point::new(x, y),
                    charge_duration_s: t,
                    residual_lifetime_s: f64::INFINITY,
                })
                .collect();
            ChargingProblem::new(Point::new(50.0, 50.0), targets, k, ChargingParams::default())
                .unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coverage sets always contain their own center and are symmetric.
    #[test]
    fn coverage_contains_self_and_is_symmetric(problem in problem_strategy(60)) {
        for i in 0..problem.len() {
            prop_assert!(problem.coverage(i).contains(&(i as u32)));
            for &j in problem.coverage(i) {
                prop_assert!(problem.coverage(j as usize).contains(&(i as u32)));
            }
        }
    }

    /// τ(v) is the max charge duration over the coverage set (Eq. 2) and
    /// at least the node's own duration.
    #[test]
    fn tau_dominates_own_duration(problem in problem_strategy(60)) {
        for i in 0..problem.len() {
            prop_assert!(problem.tau(i) >= problem.charge_duration(i));
            let max = problem
                .coverage(i)
                .iter()
                .map(|&u| problem.charge_duration(u as usize))
                .fold(0.0f64, f64::max);
            prop_assert_eq!(problem.tau(i), max);
        }
    }

    /// Appro schedules always certify, with and without conflict repair
    /// (if a no-repair run certifies or fails only with OverlapConflict).
    #[test]
    fn appro_certifies(problem in problem_strategy(50)) {
        let with_repair = Appro::new(PlannerConfig::default()).plan(&problem).unwrap();
        prop_assert!(with_repair.certify(&problem).is_ok());

        let mut cfg = PlannerConfig::default();
        cfg.enforce_no_overlap = false;
        let raw = Appro::new(cfg).plan(&problem).unwrap();
        match raw.certify(&problem) {
            Ok(()) | Err(wrsn_core::ScheduleError::OverlapConflict { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected: {other:?}"),
        }
    }

    /// Travel metric sanity: symmetric, non-negative, triangle-ish.
    #[test]
    fn travel_times_form_a_metric(problem in problem_strategy(30)) {
        let n = problem.len();
        for a in 0..n {
            prop_assert_eq!(problem.travel_time(a, a), 0.0);
            for b in 0..n {
                prop_assert!(problem.travel_time(a, b) >= 0.0);
                prop_assert!(
                    (problem.travel_time(a, b) - problem.travel_time(b, a)).abs() < 1e-12
                );
                for c in 0..n {
                    prop_assert!(
                        problem.travel_time(a, c)
                            <= problem.travel_time(a, b) + problem.travel_time(b, c) + 1e-9
                    );
                }
            }
        }
    }

    /// Conflict predicate matches the set-intersection definition.
    #[test]
    fn conflict_matches_definition(problem in problem_strategy(40)) {
        for a in 0..problem.len() {
            for b in 0..problem.len() {
                let got = conflict::coverage_overlap(&problem, a, b).is_some();
                let want = problem
                    .coverage(a)
                    .iter()
                    .any(|u| problem.coverage(b).contains(u));
                prop_assert_eq!(got, want, "targets {} and {}", a, b);
            }
        }
    }


    /// Metamorphic certifier tests: a certified schedule stops
    /// certifying under each class of corruption the certifier exists to
    /// catch.
    #[test]
    fn certifier_catches_mutations(problem in problem_strategy(40), pick in any::<u64>()) {
        let schedule = Appro::new(PlannerConfig::default()).plan(&problem).unwrap();
        prop_assume!(schedule.sojourn_count() >= 2);
        schedule.certify(&problem).unwrap();

        // Locate a sojourn to corrupt, deterministically from `pick`.
        let flat: Vec<(usize, usize)> = schedule
            .tours
            .iter()
            .enumerate()
            .flat_map(|(k, t)| (0..t.sojourns.len()).map(move |i| (k, i)))
            .collect();
        let (tk, ti) = flat[(pick as usize) % flat.len()];

        // 1. Dropping a tour breaks the tour count.
        let mut fewer = schedule.clone();
        fewer.tours.pop();
        prop_assert!(fewer.certify(&problem).is_err());

        // 2. Starting before arriving breaks time consistency.
        let mut early = schedule.clone();
        early.tours[tk].sojourns[ti].arrival_s -= 1.0 + early.tours[tk].sojourns[ti].arrival_s;
        prop_assert!(early.certify(&problem).is_err());

        // 3. Gutting a charge duration must leave someone undercharged
        //    (unless another sojourn also covers every affected sensor —
        //    so only assert when the stop uniquely covers some target).
        let target = schedule.tours[tk].sojourns[ti].target;
        let uniquely_covered = problem.coverage(target).iter().any(|&u| {
            schedule
                .tours
                .iter()
                .flat_map(|t| &t.sojourns)
                .filter(|s| problem.coverage(s.target).contains(&u))
                .count()
                == 1
                && problem.charge_duration(u as usize) > 1.0
        });
        if uniquely_covered {
            let mut gutted = schedule.clone();
            gutted.tours[tk].sojourns[ti].duration_s = 0.0;
            prop_assert!(gutted.certify(&problem).is_err());
        }

        // 4. Duplicating a sojourn in another tour breaks disjointness.
        if schedule.tours.len() >= 2 {
            let mut dup = schedule.clone();
            let s = dup.tours[tk].sojourns[ti];
            let other = (tk + 1) % dup.tours.len();
            dup.tours[other].sojourns.push(s);
            prop_assert!(dup.certify(&problem).is_err());
        }
    }

    /// The sparse backend is an exact drop-in for the dense one: every
    /// pairwise distance and depot distance is bit-identical (0 ULP, not
    /// approximately equal), and every coverage set N_c(v) contains the
    /// same sensors.
    #[test]
    fn sparse_backend_matches_dense_bit_for_bit(
        pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..80),
    ) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let params = ChargingParams::default();
        let depot = Point::new(50.0, 50.0);
        let dense = ProblemContext::with_mode(depot, points.clone(), params, ContextMode::Dense)
            .unwrap();
        let sparse = ProblemContext::with_mode(depot, points, params, ContextMode::Sparse)
            .unwrap();
        prop_assert!(!dense.is_sparse());
        prop_assert!(sparse.is_sparse());
        for a in 0..dense.len() {
            prop_assert_eq!(
                dense.depot_distances()[a].to_bits(),
                sparse.depot_distances()[a].to_bits(),
                "depot distance of {} drifted", a
            );
            let dense_row = dense.distance_row(a);
            let sparse_row = sparse.distance_row(a);
            for b in 0..dense.len() {
                prop_assert_eq!(
                    dense.distance(a, b).to_bits(),
                    sparse.distance(a, b).to_bits(),
                    "distance ({}, {}) drifted", a, b
                );
                prop_assert_eq!(dense_row[b].to_bits(), sparse_row[b].to_bits());
            }
            let mut dense_cov: Vec<u32> = dense.coverage_set(a).to_vec();
            let mut sparse_cov: Vec<u32> = sparse.coverage_set(a).to_vec();
            dense_cov.sort_unstable();
            sparse_cov.sort_unstable();
            prop_assert_eq!(dense_cov, sparse_cov, "coverage of {} differs", a);
        }
    }

    /// Planning is backend- and wrapper-invariant on small instances:
    /// dense, sparse, and 1-shard sharded runs of Appro produce the
    /// same schedule to the last bit.
    #[test]
    fn schedules_agree_across_dense_sparse_and_one_shard(
        pts in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 60.0f64..5400.0),
            1..50,
        ),
        k in 1usize..4,
    ) {
        fn targets(pts: &[(f64, f64, f64)]) -> Vec<ChargingTarget> {
            pts.iter()
                .enumerate()
                .map(|(i, &(x, y, t))| ChargingTarget {
                    id: SensorId(i as u32),
                    pos: Point::new(x, y),
                    charge_duration_s: t,
                    residual_lifetime_s: f64::INFINITY,
                })
                .collect()
        }
        /// A sojourn's target and the bits of its arrival, start and
        /// duration, plus its tour's return time.
        type SojournBits = (usize, u64, u64, u64, u64);
        fn bits(s: &Schedule) -> Vec<Vec<SojournBits>> {
            s.tours
                .iter()
                .map(|t| {
                    t.sojourns
                        .iter()
                        .map(|so| {
                            (
                                so.target,
                                so.arrival_s.to_bits(),
                                so.start_s.to_bits(),
                                so.duration_s.to_bits(),
                                t.return_time_s.to_bits(),
                            )
                        })
                        .collect()
                })
                .collect()
        }
        let depot = Point::new(50.0, 50.0);
        let params = ChargingParams::default();
        let appro = Appro::new(PlannerConfig::default());
        let dense = ChargingProblem::new_with_mode(
            depot, targets(&pts), k, params, ContextMode::Dense,
        )
        .unwrap();
        let sparse = ChargingProblem::new_with_mode(
            depot, targets(&pts), k, params, ContextMode::Sparse,
        )
        .unwrap();
        let on_dense = appro.plan(&dense).unwrap();
        let on_sparse = appro.plan(&sparse).unwrap();
        let one_shard = ShardedPlanner::new(Appro::new(PlannerConfig::default()), 1)
            .plan(&dense)
            .unwrap();
        prop_assert_eq!(bits(&on_dense), bits(&on_sparse), "sparse drifted from dense");
        prop_assert_eq!(bits(&on_dense), bits(&one_shard), "1-shard drifted from direct");
    }

    /// Assembling and replaying a one-stop-per-target schedule charges
    /// everyone (the degenerate one-to-one plan is always feasible after
    /// repair).
    #[test]
    fn one_to_one_plan_is_feasible_after_repair(problem in problem_strategy(40)) {
        let k = problem.charger_count();
        let mut stops: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k];
        for i in 0..problem.len() {
            stops[i % k].push((i, problem.charge_duration(i)));
        }
        let mut schedule = Schedule::assemble(&problem, stops);
        conflict::repair_waits(&problem, &mut schedule);
        prop_assert!(schedule.certify(&problem).is_ok());
        let completions = schedule.charge_completion_times(&problem);
        prop_assert!(completions.iter().all(Option::is_some));
    }
}
