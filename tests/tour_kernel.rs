//! The tour kernel against the comparator-sort kernel it replaced.
//!
//! `reference` below is that kernel, verbatim: greedy-edge sorting all
//! `n(n-1)/2` edges with a `partial_cmp` comparator, the 2-opt and
//! Or-opt descents, and `build_tour`, all read through the depot view
//! (`VirtualNodeMetric`). The shipped kernel keys the edges, sorts those
//! at or below a sampled limit and reads one flat table; every test here
//! asserts that `greedy_edge`, `build_tour`, `min_max_ktours_with_matrix`
//! and `min_max_ktours_extended` return the reference's output bit for
//! bit — on random scatters and tight clusters, on integer grids and
//! duplicate points (many tied weights), on hand-built matrices holding
//! `-0.0`, on asymmetric matrices (rows skewed in scale by `10¹²`
//! among them), and on every small `n` where the sorted prefix and the
//! survivor pass change shape.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use wrsn_algo::ktour::{self, KTourSolution};
use wrsn_algo::tsp;
use wrsn_geom::{DistanceMatrix, Point, VirtualNodeMetric};

mod reference {
    use wrsn_geom::Metric;

    /// Greedy-edge tour: repeatedly add the globally cheapest edge that keeps
    /// degrees ≤ 2 and creates no premature cycle, then stitch the resulting
    /// Hamiltonian path into a cycle.
    pub fn greedy_edge<M: Metric + ?Sized>(dist: &M) -> Vec<usize> {
        let n = dist.len();
        if n <= 2 {
            return (0..n).collect();
        }
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        edges.sort_by(|&(a, b), &(c, d)| dist.at(a, b).partial_cmp(&dist.at(c, d)).unwrap());

        // Union-find for cycle detection.
        let mut uf: Vec<usize> = (0..n).collect();
        fn find(uf: &mut Vec<usize>, x: usize) -> usize {
            if uf[x] != x {
                let r = find(uf, uf[x]);
                uf[x] = r;
            }
            uf[x]
        }
        let mut degree = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut added = 0;
        for (u, v) in edges {
            if added == n - 1 {
                break;
            }
            if degree[u] >= 2 || degree[v] >= 2 {
                continue;
            }
            let (ru, rv) = (find(&mut uf, u), find(&mut uf, v));
            if ru == rv {
                continue;
            }
            uf[ru] = rv;
            degree[u] += 1;
            degree[v] += 1;
            adj[u].push(v);
            adj[v].push(u);
            added += 1;
        }
        // Walk the Hamiltonian path from one endpoint.
        let start = (0..n).find(|&v| degree[v] <= 1).expect("path has an endpoint");
        let mut tour = Vec::with_capacity(n);
        let mut prev = usize::MAX;
        let mut cur = start;
        loop {
            tour.push(cur);
            let next = adj[cur].iter().copied().find(|&x| x != prev);
            match next {
                Some(nx) => {
                    prev = cur;
                    cur = nx;
                }
                None => break,
            }
        }
        debug_assert_eq!(tour.len(), n, "greedy edge must produce a Hamiltonian path");
        tour
    }

    /// 2-opt descent: repeatedly reverse tour segments while that shortens
    /// the tour; stops at a local optimum or after `max_passes` full sweeps.
    ///
    /// Never increases the tour length. O(n²) per pass.
    pub fn two_opt<M: Metric + ?Sized>(dist: &M, tour: &mut [usize], max_passes: usize) {
        let n = tour.len();
        if n < 4 {
            return;
        }
        for _ in 0..max_passes {
            let mut improved = false;
            for i in 0..n - 1 {
                let a = tour[i];
                let b = tour[(i + 1) % n];
                for j in (i + 2)..n {
                    if i == 0 && j == n - 1 {
                        continue; // same edge pair
                    }
                    let c = tour[j];
                    let d = tour[(j + 1) % n];
                    let delta = dist.at(a, c) + dist.at(b, d) - dist.at(a, b) - dist.at(c, d);
                    if delta < -1e-12 {
                        tour[i + 1..=j].reverse();
                        improved = true;
                        break; // tour changed; restart inner scan from new edge
                    }
                }
                if improved {
                    break;
                }
            }
            if !improved {
                return;
            }
        }
    }

    /// Or-opt descent: relocate chains of 1–3 consecutive nodes to a better
    /// position. Complements 2-opt (which cannot move single nodes without
    /// reversing). Never increases the tour length.
    pub fn or_opt<M: Metric + ?Sized>(dist: &M, tour: &mut Vec<usize>, max_passes: usize) {
        let n = tour.len();
        if n < 5 {
            return;
        }
        for _ in 0..max_passes {
            let mut improved = false;
            'outer: for seg_len in 1..=3usize {
                for i in 0..n {
                    // Chain occupies positions i..i+seg_len (no wrap for simplicity).
                    if i + seg_len >= n {
                        continue;
                    }
                    let prev = if i == 0 { n - 1 } else { i - 1 };
                    let p = tour[prev];
                    let s0 = tour[i];
                    let s1 = tour[i + seg_len - 1];
                    let q = tour[(i + seg_len) % n];
                    let removal_gain = dist.at(p, s0) + dist.at(s1, q) - dist.at(p, q);
                    if removal_gain <= 1e-12 {
                        continue;
                    }
                    // Try inserting between every other consecutive pair.
                    for j in 0..n {
                        let jn = (j + 1) % n;
                        // Skip positions overlapping the chain or its borders.
                        if (j >= prev.min(i) && j <= i + seg_len) || jn == i {
                            continue;
                        }
                        if j >= i && j < i + seg_len {
                            continue;
                        }
                        let a = tour[j];
                        let b = tour[jn];
                        let insert_cost = dist.at(a, s0) + dist.at(s1, b) - dist.at(a, b);
                        if insert_cost < removal_gain - 1e-12 {
                            // Perform the move on a copy to keep indexing simple.
                            let chain: Vec<usize> = tour[i..i + seg_len].to_vec();
                            let mut rest: Vec<usize> = Vec::with_capacity(n);
                            rest.extend_from_slice(&tour[..i]);
                            rest.extend_from_slice(&tour[i + seg_len..]);
                            // Position of `a` in rest:
                            let pos_a = rest.iter().position(|&x| x == a).unwrap();
                            let mut next = Vec::with_capacity(n);
                            next.extend_from_slice(&rest[..=pos_a]);
                            next.extend_from_slice(&chain);
                            next.extend_from_slice(&rest[pos_a + 1..]);
                            *tour = next;
                            improved = true;
                            break 'outer;
                        }
                    }
                }
            }
            if !improved {
                return;
            }
        }
    }

    /// Builds a good closed tour: greedy-edge construction followed by 2-opt
    /// and Or-opt descent. The workhorse used by the planners.
    pub fn build_tour<M: Metric + ?Sized>(dist: &M, improvement_passes: usize) -> Vec<usize> {
        let n = dist.len();
        if n <= 3 {
            return (0..n).collect();
        }
        let mut tour = greedy_edge(dist);
        two_opt(dist, &mut tour, improvement_passes);
        or_opt(dist, &mut tour, improvement_passes / 2 + 1);
        two_opt(dist, &mut tour, improvement_passes / 2 + 1);
        tour
    }

    /// `min_max_ktours_with_matrix` over the depot view.
    pub fn min_max_ktours<M: Metric + ?Sized>(
        dist: &M,
        depot: &[f64],
        service: &[f64],
        k: usize,
        improvement_passes: usize,
    ) -> wrsn_algo::ktour::KTourSolution {
        let n = dist.len();
        if n == 0 {
            return wrsn_algo::ktour::KTourSolution {
                tours: vec![Vec::new(); k],
                max_delay: 0.0,
            };
        }
        let ext = wrsn_geom::VirtualNodeMetric::new(dist, depot);
        let mut tour = build_tour(&ext, improvement_passes);
        let dpos = tour.iter().position(|&v| v == n).expect("depot in tour");
        tour.rotate_left(dpos);
        let order: Vec<usize> = tour[1..].to_vec();
        wrsn_algo::ktour::min_max_ktours_along(dist, depot, service, k, &order)
    }
}

/// Improvement budgets: Appro's default and a deep one, so the descents
/// make many moves.
const PASSES: [usize; 2] = [30, 200];

fn same_solution(got: &KTourSolution, want: &KTourSolution, what: &str) {
    assert_eq!(got.tours, want.tours, "{what}: tours differ");
    assert_eq!(got.max_delay.to_bits(), want.max_delay.to_bits(), "{what}: delay differs");
}

/// Asserts the kernel equals the reference on one instance: greedy-edge
/// on the raw matrix, on the depot view and on its flat copy;
/// `build_tour` on the flat copy; `min_max_ktours_with_matrix`,
/// `min_max_ktours` and `min_max_ktours_extended` on the flat copy for
/// `k` vehicles.
fn assert_kernel_matches(dist: &[Vec<f64>], depot: &[f64], service: &[f64], k: usize) {
    let n = dist.len();
    assert_eq!(tsp::greedy_edge(dist), reference::greedy_edge(dist), "greedy_edge, n = {n}");
    let view = VirtualNodeMetric::new(dist, depot);
    let flat = DistanceMatrix::from_metric(&view);
    let want = reference::greedy_edge(&view);
    assert_eq!(tsp::greedy_edge(&view), want, "greedy_edge on the view, n = {n}");
    assert_eq!(tsp::greedy_edge(&flat), want, "greedy_edge on the flat copy, n = {n}");
    for passes in PASSES {
        let want_tour = reference::build_tour(&view, passes);
        assert_eq!(tsp::build_tour(&flat, passes), want_tour, "build_tour, n = {n}");
        let want = reference::min_max_ktours(dist, depot, service, k, passes);
        let what = format!("n = {n}, k = {k}, passes = {passes}");
        same_solution(
            &ktour::min_max_ktours_with_matrix(dist, depot, service, k, passes),
            &want,
            &format!("min_max_ktours_with_matrix, {what}"),
        );
        same_solution(
            &ktour::min_max_ktours(dist, depot, service, k, passes),
            &want,
            &format!("min_max_ktours, {what}"),
        );
        same_solution(
            &ktour::min_max_ktours_extended(&flat, service, k, passes),
            &want,
            &format!("min_max_ktours_extended, {what}"),
        );
    }
}

/// Euclidean travel times over `pts`, depot legs to `depot_pt`, and
/// seeded service times.
fn instance(pts: &[Point], depot_pt: Point, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
    let speed = 5.0;
    let dist: Vec<Vec<f64>> =
        pts.iter().map(|p| pts.iter().map(|q| p.dist(*q) / speed).collect()).collect();
    let depot: Vec<f64> = pts.iter().map(|p| p.dist(depot_pt) / speed).collect();
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let service: Vec<f64> = pts.iter().map(|_| rng.gen_range(10.0..500.0)).collect();
    (dist, depot, service)
}

fn scatter(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
        .collect()
}

#[test]
fn matches_reference_on_random_scatters() {
    for (seed, n) in [(1u64, 5usize), (2, 12), (3, 25), (4, 40), (5, 64), (6, 100), (7, 150), (8, 300)] {
        let pts = scatter(n, seed);
        let (dist, depot, service) = instance(&pts, Point::new(50.0, 50.0), seed);
        assert_kernel_matches(&dist, &depot, &service, 1 + (seed as usize % 3));
    }
}

#[test]
fn matches_reference_on_integer_grids_with_tied_weights() {
    for (side, k) in [(3usize, 1usize), (5, 2), (8, 3), (12, 2)] {
        let pts: Vec<Point> = (0..side * side)
            .map(|i| Point::new((i % side) as f64, (i / side) as f64))
            .collect();
        // The depot on a grid point ties depot legs with node legs too.
        let (dist, depot, service) = instance(&pts, Point::new(0.0, 0.0), side as u64);
        assert_kernel_matches(&dist, &depot, &service, k);
        // Equal service times tie the splitter's costs as well.
        assert_kernel_matches(&dist, &depot, &vec![60.0; pts.len()], k);
    }
}

#[test]
fn matches_reference_on_duplicate_points_and_signed_zeros() {
    let mut rng = ChaCha12Rng::seed_from_u64(11);
    let sites = scatter(6, 12);
    let pts: Vec<Point> = (0..30).map(|_| sites[rng.gen_range(0..sites.len())]).collect();
    let (dist, depot, service) = instance(&pts, sites[0], 13);
    assert_kernel_matches(&dist, &depot, &service, 2);

    // Zero weights of both signs must tie, broken by index order.
    let n = 14;
    let dist: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| match (i + j) % 4 {
                    _ if i == j => 0.0,
                    0 => -0.0,
                    1 => 0.0,
                    2 => ((i * j) % 5) as f64,
                    _ => -0.0,
                })
                .collect()
        })
        .collect();
    let depot: Vec<f64> = (0..n).map(|i| if i % 3 == 0 { -0.0 } else { 1.0 }).collect();
    assert_kernel_matches(&dist, &depot, &vec![1.0; n], 3);

    // Weights one ulp apart, ordered against the index order: a key that
    // lost any bit of the weight would tie them and fall back to (i, j).
    let ulps = |i: usize, j: usize| (2 * n * n - i * n - j) as u64;
    let dist: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| match i.cmp(&j) {
                    std::cmp::Ordering::Equal => 0.0,
                    _ => f64::from_bits(1.0f64.to_bits() + ulps(i.min(j), i.max(j))),
                })
                .collect()
        })
        .collect();
    let depot: Vec<f64> = (0..n).map(|i| f64::from_bits(1.0f64.to_bits() + ulps(i, 0))).collect();
    assert_kernel_matches(&dist, &depot, &vec![1.0; n], 2);
}

#[test]
fn matches_reference_on_asymmetric_matrices() {
    for (seed, n) in [(21u64, 7usize), (22, 16), (23, 17), (24, 60), (25, 120)] {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let dist: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n).map(|j| if i == j { 0.0 } else { rng.gen_range(1.0..100.0) }).collect()
            })
            .collect();
        let depot: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..100.0)).collect();
        let service: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..50.0)).collect();
        assert_kernel_matches(&dist, &depot, &service, 2);
    }
}

#[test]
fn matches_reference_on_tight_clusters() {
    for (seed, n, k) in [(31u64, 40usize, 1usize), (32, 90, 2), (33, 160, 3)] {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let sites = scatter(5, seed + 100);
        let pts: Vec<Point> = (0..n)
            .map(|_| {
                let c = sites[rng.gen_range(0..sites.len())];
                Point::new(c.x + rng.gen_range(-0.3..0.3), c.y + rng.gen_range(-0.3..0.3))
            })
            .collect();
        let (dist, depot, service) = instance(&pts, Point::new(50.0, 50.0), seed);
        assert_kernel_matches(&dist, &depot, &service, k);
    }
}

/// Rows scaled by `1e-6` or `1e6`: the sampled limit, drawn from a few
/// edges per row, lands far from the `16n`-th smallest edge.
#[test]
fn matches_reference_on_row_skewed_matrices() {
    for (seed, n) in [(41u64, 12usize), (42, 35), (43, 70), (44, 130)] {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let dist: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let scale = if rng.gen::<bool>() { 1e-6 } else { 1e6 };
                (0..n)
                    .map(|j| if i == j { 0.0 } else { scale * rng.gen_range(1.0..100.0) })
                    .collect()
            })
            .collect();
        let depot: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..100.0)).collect();
        let service: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..50.0)).collect();
        assert_kernel_matches(&dist, &depot, &service, 1 + seed as usize % 3);
    }
}

#[test]
fn matches_reference_where_prefix_and_survivors_change_shape() {
    // The prefix aims at the 16n smallest of the n(n-1)/2 edges: it
    // holds all of them up to n = 33 (the depot view adds one node), and
    // above that a sampled limit decides its size.
    for n in [0usize, 1, 2, 3, 4, 9, 10, 11, 31, 32, 33, 34, 40] {
        for seed in 0..3u64 {
            let pts = scatter(n, 100 + seed);
            let (dist, depot, service) = instance(&pts, Point::new(50.0, 50.0), seed);
            assert_kernel_matches(&dist, &depot, &service, 1 + seed as usize);
        }
    }
}

/// Where the sorted prefix ends rarely changes the accepted edges,
/// and a stale descent memo rarely changes a move, so many instances are
/// checked: uniform, clustered and integer-grid points with the depot as
/// an extra node; greedy-edge on all, `build_tour` on every tenth.
#[test]
fn kernel_matches_reference_on_many_instances() {
    let mut rng = ChaCha12Rng::seed_from_u64(41);
    for round in 0..200 {
        let n: usize = rng.gen_range(18..120usize);
        let sites: Vec<Point> = (0..4).map(|_| scatter(1, rng.gen())[0]).collect();
        let uniform = scatter(n, rng.gen());
        let clustered: Vec<Point> = (0..n)
            .map(|_| {
                let c = sites[rng.gen_range(0..sites.len())];
                Point::new(c.x + rng.gen_range(-3.0..3.0), c.y + rng.gen_range(-3.0..3.0))
            })
            .collect();
        let grid: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0..12u32).into(), rng.gen_range(0..12u32).into()))
            .collect();
        for pts in [uniform, clustered, grid] {
            let (dist, depot, _) = instance(&pts, Point::new(50.0, 50.0), 0);
            let view = VirtualNodeMetric::new(&dist, &depot);
            let flat = DistanceMatrix::from_metric(&view);
            assert_eq!(tsp::greedy_edge(&flat), reference::greedy_edge(&view), "n = {n}");
            if round % 10 == 0 {
                let want = reference::build_tour(&view, 30);
                assert_eq!(tsp::build_tour(&flat, 30), want, "build_tour, n = {n}");
            }
        }
    }
}

/// The descents also take a tour over some of the metric's nodes.
#[test]
fn descents_match_reference_on_sub_tours() {
    let pts = scatter(80, 51);
    let (dist, _, _) = instance(&pts, Point::new(50.0, 50.0), 51);
    let flat = DistanceMatrix::from_metric(&dist);
    let start: Vec<usize> = (0..80).map(|i| i * 37 % 80).filter(|v| v % 3 != 0).collect();
    for passes in PASSES {
        let (mut got, mut want) = (start.clone(), start.clone());
        tsp::two_opt(&flat, &mut got, passes);
        reference::two_opt(&dist, &mut want, passes);
        assert_eq!(got, want, "two_opt, passes = {passes}");
        tsp::or_opt(&flat, &mut got, passes);
        reference::or_opt(&dist, &mut want, passes);
        assert_eq!(got, want, "or_opt, passes = {passes}");
    }
}

#[test]
#[should_panic(expected = "NaN")]
fn nan_weight_is_still_rejected() {
    let mut dist = vec![vec![1.0; 5]; 5];
    dist[1][3] = f64::NAN;
    let _ = tsp::greedy_edge(&dist);
}

#[test]
#[should_panic(expected = "NaN")]
fn nan_depot_leg_is_still_rejected() {
    let dist = vec![vec![1.0; 4]; 4];
    let depot = [1.0, 2.0, f64::NAN, 3.0];
    let _ = ktour::min_max_ktours_with_matrix(&dist, &depot, &[0.0; 4], 2, 30);
}
