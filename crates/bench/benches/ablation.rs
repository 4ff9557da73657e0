//! Ablations of Appro's design choices (DESIGN.md §6):
//!
//! - MIS vertex ordering (by-index / by-degree-asc / by-degree-desc /
//!   random) in Algorithm 1's two MIS sweeps;
//! - TSP local-search budget for the tour-splitting core;
//! - wait-based conflict repair on vs off (how much waiting the paper's
//!   insertion rule actually leaves to repair).
//!
//! Metric: mean longest tour duration (hours) and mean repair waiting
//! (minutes) on snapshot instances (n = 600, K = 2). A final section
//! compares the two TSP constructions available for the tour-splitting
//! core (greedy-edge vs Christofides) in isolation.
//!
//! Knobs: `WRSN_INSTANCES` (default 10), `WRSN_N` (default 600).

use wrsn_algo::MisOrder;
use wrsn_bench::{env_usize, SnapshotExperiment};
use wrsn_core::{Appro, InsertionOrder, PlannerConfig};

fn run(label: &str, exp: &SnapshotExperiment, config: PlannerConfig) {
    let planner = Appro::new(config);
    let mut delays = Vec::new();
    let mut waits = Vec::new();
    for i in 0..exp.instances {
        let problem = exp.problem(i);
        let report = planner.plan_detailed(&problem).expect("planner is complete");
        delays.push(report.schedule.longest_delay_s());
        waits.push(report.repair_wait_s);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "{label:<28} longest tour {:>8.2} h   repair wait {:>8.2} min",
        mean(&delays) / 3600.0,
        mean(&waits) / 60.0
    );
}

fn main() {
    let n = env_usize("WRSN_N", 600);
    let instances = env_usize("WRSN_INSTANCES", 10);
    let exp = SnapshotExperiment { n, k: 2, instances, ..Default::default() };

    println!("## Ablation: Appro design choices (n={n}, K=2, {instances} instances)\n");

    println!("-- MIS vertex order --");
    for (label, order) in [
        ("by-index (paper default)", MisOrder::ByIndex),
        ("by-degree ascending", MisOrder::ByDegreeAsc),
        ("by-degree descending", MisOrder::ByDegreeDesc),
        ("random (seed 7)", MisOrder::Random(7)),
    ] {
        let config = PlannerConfig { mis_order: order, ..Default::default() };
        run(label, &exp, config);
    }

    println!("\n-- TSP improvement budget --");
    for passes in [0usize, 5, 30, 100] {
        let config = PlannerConfig { tsp_passes: passes, ..Default::default() };
        run(&format!("2-opt/Or-opt passes = {passes}"), &exp, config);
    }

    println!("\n-- Insertion candidate order (Alg. 1 line 9) --");
    for (label, order) in [
        ("earliest neighbor finish (paper)", InsertionOrder::EarliestNeighborFinish),
        ("by index (control)", InsertionOrder::ByIndex),
    ] {
        let config = PlannerConfig { insertion_order: order, ..Default::default() };
        run(label, &exp, config);
    }

    println!("\n-- Post-optimization (beyond the paper) --");
    for (label, post) in [("insertion order as-is (paper)", false), ("2-opt over final tours", true)]
    {
        let config = PlannerConfig { post_optimize: post, ..Default::default() };
        run(label, &exp, config);
    }

    println!("\n-- Conflict repair --");
    for (label, enforce) in [("repair ON (certified)", true), ("repair OFF (paper as-is)", false)]
    {
        let config = PlannerConfig { enforce_no_overlap: enforce, ..Default::default() };
        run(label, &exp, config);
    }

    println!("\n-- TSP construction for the k-tour core (isolated) --");
    tsp_construction_comparison(&exp);
}

/// Compares greedy-edge + 2-opt vs Christofides as the base tour of the
/// min–max splitter, on the conflict-free cores of the same instances.
fn tsp_construction_comparison(exp: &SnapshotExperiment) {
    use wrsn_algo::christofides::christofides_tour;
    use wrsn_algo::ktour::{min_max_ktours_along, min_max_ktours_with_matrix};

    let (mut greedy_sum, mut chris_sum) = (0.0, 0.0);
    for i in 0..exp.instances {
        let problem = exp.problem(i);
        let n = problem.len();
        if n == 0 {
            continue;
        }
        let all: Vec<usize> = (0..n).collect();
        let dist = problem.context().travel_time_matrix_for(&all).expect("snapshot fits");
        let depot = problem.depot_travel_vector();
        let service: Vec<f64> = (0..n).map(|v| problem.charge_duration(v)).collect();

        greedy_sum += min_max_ktours_with_matrix(&dist, &depot, &service, exp.k, 30).max_delay;

        let mut ext = vec![vec![0.0; n + 1]; n + 1];
        for v in 0..n {
            ext[v][..n].copy_from_slice(dist.row(v));
            ext[v][n] = depot[v];
            ext[n][v] = depot[v];
        }
        let mut tour = christofides_tour(&ext, 30);
        let dpos = tour.iter().position(|&v| v == n).expect("depot in tour");
        tour.rotate_left(dpos);
        let order: Vec<usize> = tour[1..].to_vec();
        chris_sum += min_max_ktours_along(&dist, &depot, &service, exp.k, &order).max_delay;
    }
    let f = exp.instances as f64;
    println!(
        "greedy-edge + 2-opt (default)  min-max delay {:>8.2} h",
        greedy_sum / f / 3600.0
    );
    println!(
        "christofides (greedy matching) min-max delay {:>8.2} h",
        chris_sum / f / 3600.0
    );
}
