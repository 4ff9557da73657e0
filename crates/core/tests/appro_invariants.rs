//! Structural invariants of Algorithm 1's intermediate artifacts,
//! checked against the definitions in §IV of the paper.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use wrsn_algo::MisOrder;
use wrsn_core::{
    conflict, Appro, ChargingParams, ChargingProblem, ChargingTarget, PlannerConfig,
};
use wrsn_geom::Point;
use wrsn_net::{InitialCharge, NetworkBuilder, SensorId};

fn problem(n: usize, k: usize, seed: u64) -> ChargingProblem {
    let net = NetworkBuilder::new(n)
        .seed(seed)
        .initial_charge(InitialCharge::UniformFraction { lo: 0.02, hi: 0.18 })
        .build();
    let req = net.default_requesting_sensors();
    ChargingProblem::from_network(&net, &req, k).unwrap()
}

#[test]
fn mis_s_i_is_independent_in_the_charging_graph() {
    // No two S_I members may be within γ of each other (they are an
    // independent set of G_c).
    for seed in 0..4u64 {
        let p = problem(300, 2, seed);
        let report = Appro::new(PlannerConfig::default()).plan_detailed(&p).unwrap();
        let gamma = p.params().gamma_m;
        for (i, &a) in report.mis.iter().enumerate() {
            for &b in report.mis.iter().skip(i + 1) {
                let d = p.targets()[a].pos.dist(p.targets()[b].pos);
                assert!(
                    d > gamma,
                    "seed {seed}: S_I members {a} and {b} are {d:.2} m apart (γ = {gamma})"
                );
            }
        }
    }
}

#[test]
fn core_nodes_are_pairwise_beyond_two_gamma_or_disjoint() {
    // V'_H members must never share a covered sensor: disks disjoint.
    for seed in 0..4u64 {
        let p = problem(300, 2, 10 + seed);
        let report = Appro::new(PlannerConfig::default()).plan_detailed(&p).unwrap();
        for (i, &a) in report.core.iter().enumerate() {
            for &b in report.core.iter().skip(i + 1) {
                assert!(
                    conflict::coverage_overlap(&p, a, b).is_none(),
                    "seed {seed}: core nodes {a}, {b} share coverage"
                );
            }
        }
    }
}

#[test]
fn every_sojourn_location_comes_from_s_i() {
    for seed in 0..4u64 {
        let p = problem(250, 3, 20 + seed);
        let report = Appro::new(PlannerConfig::default()).plan_detailed(&p).unwrap();
        let mis: std::collections::HashSet<usize> = report.mis.iter().copied().collect();
        for tour in &report.schedule.tours {
            for s in &tour.sojourns {
                assert!(
                    mis.contains(&s.target),
                    "seed {seed}: sojourn at {} is not an S_I node",
                    s.target
                );
            }
        }
    }
}

#[test]
fn no_charge_needed_is_never_budgeted_twice() {
    // Total charging time across sojourns must never exceed the sum of
    // τ(v) over distinct sojourn locations (Eq. 3: τ' ≤ τ), and must be
    // at least the heaviest single sensor's t_v.
    for seed in 0..4u64 {
        let p = problem(300, 2, 30 + seed);
        let report = Appro::new(PlannerConfig::default()).plan_detailed(&p).unwrap();
        let mut tau_sum = 0.0;
        for tour in &report.schedule.tours {
            for s in &tour.sojourns {
                assert!(
                    s.duration_s <= p.tau(s.target) + 1e-6,
                    "seed {seed}: τ' exceeds τ at target {}",
                    s.target
                );
                tau_sum += p.tau(s.target);
            }
        }
        let total = report.schedule.total_charge_time_s();
        assert!(total <= tau_sum + 1e-6);
        let t_max = (0..p.len()).map(|i| p.charge_duration(i)).fold(0.0f64, f64::max);
        assert!(total >= t_max - 1e-6);
    }
}

#[test]
fn finish_times_are_monotone_along_each_tour() {
    for seed in 0..4u64 {
        let p = problem(300, 3, 40 + seed);
        let report = Appro::new(PlannerConfig::default()).plan_detailed(&p).unwrap();
        for tour in &report.schedule.tours {
            let mut prev = 0.0;
            for s in &tour.sojourns {
                assert!(s.finish_s() >= prev, "seed {seed}: finish times regress");
                prev = s.finish_s();
            }
            assert!(tour.return_time_s >= prev);
        }
    }
}

#[test]
fn repair_off_leaves_few_or_no_conflicts() {
    // The paper argues the insertion rule avoids simultaneous charging;
    // quantify it: across seeds, the raw (unrepaired) schedules should
    // have at most a couple of conflicting pairs.
    let mut total_conflicts = 0;
    for seed in 0..6u64 {
        let p = problem(400, 2, 50 + seed);
        let cfg = PlannerConfig { enforce_no_overlap: false, ..Default::default() };
        let report = Appro::new(cfg).plan_detailed(&p).unwrap();
        total_conflicts += conflict::conflict_count(&p, &report.schedule);
    }
    assert!(
        total_conflicts <= 6,
        "insertion rule should rarely conflict; saw {total_conflicts} across 6 seeds"
    );
}

#[test]
fn skipped_candidates_are_genuinely_redundant() {
    // Every skipped S_I candidate's coverage must be covered by the
    // scheduled sojourns (that is the only legal reason to skip).
    for seed in 0..4u64 {
        let p = problem(350, 2, 60 + seed);
        let report = Appro::new(PlannerConfig::default()).plan_detailed(&p).unwrap();
        let mut covered = vec![false; p.len()];
        for tour in &report.schedule.tours {
            for s in &tour.sojourns {
                for &u in p.coverage(s.target) {
                    covered[u as usize] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "seed {seed}: some sensor uncovered");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The three construction facts of Algorithm 1's lines 1–4 on
    /// generated instances, under every MIS order: `S_I` is independent
    /// in `G_c` (no two members within `γ`); the coverages of `V'_H` are
    /// pairwise disjoint; and every `u ∈ S_I \ V'_H` has an
    /// `H`-neighbour in `V'_H` (a core node sharing a covered sensor),
    /// which the insertion phase needs to place `u`. Fields of 8–120 m
    /// hold the instances from a few sensors per disk to isolated ones.
    #[test]
    fn appro_construction_facts_hold_on_generated_instances(
        n in 1usize..220,
        side in 8.0f64..120.0,
        k in 1usize..5,
        order in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let targets: Vec<ChargingTarget> = (0..n)
            .map(|i| ChargingTarget {
                id: SensorId(i as u32),
                pos: Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
                charge_duration_s: rng.gen_range(0.0..5_400.0),
                residual_lifetime_s: f64::INFINITY,
            })
            .collect();
        let depot = Point::new(side / 2.0, side / 2.0);
        let p = ChargingProblem::new(depot, targets, k, ChargingParams::default()).unwrap();
        let mis_order = [
            MisOrder::ByIndex,
            MisOrder::ByDegreeAsc,
            MisOrder::ByDegreeDesc,
            MisOrder::Random(rng.gen()),
        ][order];
        let config = PlannerConfig { mis_order, ..PlannerConfig::default() };
        let report = Appro::new(config).plan_detailed(&p).unwrap();
        let gamma = p.params().gamma_m;
        let pos = |v: usize| p.targets()[v].pos;
        for (i, &a) in report.mis.iter().enumerate() {
            for &b in &report.mis[i + 1..] {
                prop_assert!(pos(a).dist(pos(b)) > gamma, "S_I members {} and {} are adjacent", a, b);
            }
        }
        for (i, &a) in report.core.iter().enumerate() {
            for &b in &report.core[i + 1..] {
                prop_assert!(
                    conflict::coverage_overlap(&p, a, b).is_none(),
                    "core nodes {} and {} share coverage", a, b
                );
            }
        }
        for &u in report.mis.iter().filter(|u| !report.core.contains(u)) {
            prop_assert!(
                report.core.iter().any(|&v| conflict::coverage_overlap(&p, u, v).is_some()),
                "{} in S_I \\ V'_H has no H-neighbour in V'_H", u
            );
        }
    }
}
