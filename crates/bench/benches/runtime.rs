//! Criterion benches: planner wall-clock vs instance size.
//!
//! The paper claims Algorithm 1 runs in O(|V_s|³) time; these benches
//! measure all five planners on identical snapshot instances so the
//! scaling (and the constant factors) can be inspected.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wrsn_bench::{PlannerKind, SnapshotExperiment};

fn planner_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_runtime");
    group.sample_size(10);
    for &n in &[100usize, 300, 600] {
        let exp = SnapshotExperiment { n, k: 2, instances: 1, ..Default::default() };
        let problem = exp.problem(0);
        for kind in PlannerKind::all() {
            let planner = kind.build(Default::default());
            group.bench_with_input(
                BenchmarkId::new(kind.name(), n),
                &problem,
                |b, p| b.iter(|| planner.plan(p).expect("planner is complete")),
            );
        }
    }
    group.finish();
}

fn substrate_runtime(c: &mut Criterion) {
    use wrsn_algo::{ktour, maximal_independent_set, Graph, MisOrder};
    use wrsn_geom::{dist_matrix, Point};

    let pts: Vec<Point> = (0..500)
        .map(|i| Point::new((i * 37 % 1000) as f64 / 10.0, (i * 73 % 1000) as f64 / 10.0))
        .collect();

    c.bench_function("unit_disk_graph_500", |b| {
        b.iter(|| Graph::unit_disk(&pts, 2.7))
    });

    let g = Graph::unit_disk(&pts, 2.7);
    c.bench_function("mis_500", |b| {
        b.iter(|| maximal_independent_set(&g, MisOrder::ByIndex))
    });

    let d = dist_matrix(&pts[..200]);
    let depot: Vec<f64> = pts[..200].iter().map(|p| p.dist(Point::new(50.0, 50.0))).collect();
    let service = vec![100.0; 200];
    c.bench_function("min_max_ktours_200", |b| {
        b.iter(|| ktour::min_max_ktours(&d, &depot, &service, 3, 30))
    });

    let cost: Vec<Vec<f64>> = (0..60)
        .map(|i| (0..60).map(|j| ((i * 31 + j * 17) % 97) as f64).collect())
        .collect();
    c.bench_function("hungarian_60", |b| {
        b.iter(|| wrsn_algo::assignment::hungarian(&cost))
    });
    c.bench_function("bottleneck_assignment_60", |b| {
        b.iter(|| wrsn_algo::matching::bottleneck_assignment(&cost))
    });

    c.bench_function("kmeans_500_k5", |b| {
        b.iter(|| wrsn_algo::kmeans::kmeans(&pts, 5, 7, 100))
    });
}

criterion_group!(benches, planner_runtime, substrate_runtime);
criterion_main!(benches);
