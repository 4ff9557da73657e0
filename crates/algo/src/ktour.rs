//! Min–max `K` rooted closed tours (the K-optimal closed tour problem).
//!
//! Definition 2 of the paper: given nodes with *service times* (charging
//! durations `τ(v)`), a depot, travel times, and `K` vehicles, find `K`
//! node-disjoint closed tours through the depot covering all nodes so
//! that the longest tour delay (travel + service) is minimized. The
//! problem is NP-hard; Liang et al. (ACM TOSN 2016) give a
//! 5-approximation which the paper uses both as a building block
//! (Algorithm 1, line 5) and as the K-minMax baseline.
//!
//! The construction implemented here follows that scheme:
//!
//! 1. build one closed TSP tour over depot + nodes (greedy-edge
//!    construction, 2-opt/Or-opt descent — see [`crate::tsp`]);
//! 2. rotate the tour so the depot is first, leaving a Hamiltonian path;
//! 3. binary-search the min-max bound `λ`, greedily splitting the path
//!    into maximal prefixes whose closed-tour delay (depot leg + path
//!    travel + service + return leg) stays within `λ`;
//! 4. the smallest `λ` needing at most `K` segments yields the tours.
//!
//! Steps 1–2 read one flat table over the nodes with the depot as its
//! last index. [`min_max_ktours_extended`] takes that table as it is —
//! the planners fill it in one pass from points — while
//! [`min_max_ktours`] and [`min_max_ktours_with_matrix`] copy a node
//! table and depot legs into one first.

use crate::tsp;
use wrsn_geom::{DistanceMatrix, Metric, VirtualNodeMetric};

/// A solution to the min–max `K` rooted tour problem.
#[derive(Clone, Debug, PartialEq)]
pub struct KTourSolution {
    /// One tour per vehicle: node indices in visiting order, excluding
    /// the depot (every tour implicitly starts and ends at the depot).
    /// Trailing tours may be empty when there are fewer nodes than
    /// vehicles or when fewer tours suffice.
    pub tours: Vec<Vec<usize>>,
    /// The delay of the longest tour (travel + service times).
    pub max_delay: f64,
}

/// Delay of a single closed tour `nodes` (depot → nodes… → depot):
/// depot legs + inter-node travel + service times.
///
/// `depot[v]` is the depot→`v` travel time; `service[v]` the node's
/// service time; `dist` the node-to-node travel times.
pub fn tour_delay<M: Metric + ?Sized>(
    dist: &M,
    depot: &[f64],
    service: &[f64],
    nodes: &[usize],
) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    let mut t = depot[nodes[0]] + depot[*nodes.last().unwrap()];
    for w in nodes.windows(2) {
        t += dist.at(w[0], w[1]);
    }
    t + nodes.iter().map(|&v| service[v]).sum::<f64>()
}

/// Greedily splits the path `order` into closed tours of delay ≤
/// `lambda`. Returns `None` if some single node alone exceeds `lambda`.
fn split_with_bound<M: Metric + ?Sized>(
    dist: &M,
    depot: &[f64],
    service: &[f64],
    order: &[usize],
    lambda: f64,
) -> Option<Vec<Vec<usize>>> {
    let mut tours = Vec::new();
    let mut i = 0;
    while i < order.len() {
        let first = order[i];
        let mut cost = depot[first] + service[first] + depot[first];
        if cost > lambda + 1e-9 {
            return None;
        }
        let mut j = i;
        // Extend the segment while the closed-tour delay stays within λ.
        while j + 1 < order.len() {
            let cur = order[j];
            let nxt = order[j + 1];
            let extended = cost - depot[cur] + dist.at(cur, nxt) + service[nxt] + depot[nxt];
            if extended > lambda + 1e-9 {
                break;
            }
            cost = extended;
            j += 1;
        }
        tours.push(order[i..=j].to_vec());
        i = j + 1;
    }
    Some(tours)
}

/// Solves the min–max `K` rooted closed tour problem approximately.
///
/// - `dist`: `n × n` node-to-node travel times,
/// - `depot`: depot→node travel times (length `n`),
/// - `service`: per-node service times (length `n`),
/// - `k`: number of vehicles (≥ 1),
/// - `improvement_passes`: move cap for the underlying TSP tour's
///   descents ([`tsp::build_tour`]): every pass applies at most one
///   first-improvement move, so 30 allows 30 2-opt moves, then 16
///   Or-opt and 16 more 2-opt moves. Large tours stop at the cap long
///   before a local optimum.
///
/// Always returns exactly `k` tours (some possibly empty) that partition
/// `0..n`.
///
/// # Panics
///
/// Panics if `k == 0` or the input lengths disagree.
///
/// # Example
///
/// ```
/// use wrsn_algo::ktour::min_max_ktours;
/// // Four nodes on a line at x = 1, 2, 3, 4; depot at origin; no service.
/// let dist: Vec<Vec<f64>> = (0..4)
///     .map(|i| (0..4).map(|j| (i as f64 - j as f64).abs()).collect())
///     .collect();
/// let depot: Vec<f64> = (1..=4).map(|x| x as f64).collect();
/// let service = vec![0.0; 4];
/// let sol = min_max_ktours(&dist, &depot, &service, 2, 10);
/// assert_eq!(sol.tours.len(), 2);
/// let covered: usize = sol.tours.iter().map(Vec::len).sum();
/// assert_eq!(covered, 4);
/// ```
pub fn min_max_ktours(
    dist: &[Vec<f64>],
    depot: &[f64],
    service: &[f64],
    k: usize,
    improvement_passes: usize,
) -> KTourSolution {
    min_max_ktours_with_matrix(dist, depot, service, k, improvement_passes)
}

/// [`min_max_ktours`] on any [`Metric`]. The depot is appended as
/// virtual node `n` ([`VirtualNodeMetric`]), that view is copied once,
/// entry by entry, into a flat [`DistanceMatrix`], and
/// [`min_max_ktours_extended`] runs on the copy.
pub fn min_max_ktours_with_matrix<M: Metric + ?Sized>(
    dist: &M,
    depot: &[f64],
    service: &[f64],
    k: usize,
    improvement_passes: usize,
) -> KTourSolution {
    let ext = DistanceMatrix::from_metric(&VirtualNodeMetric::new(dist, depot));
    min_max_ktours_extended(&ext, service, k, improvement_passes)
}

/// [`min_max_ktours`] over a depot-extended table, read as it is: `ext`
/// holds the `n` nodes' travel times and the depot as its **last** index
/// `n`, the layout of [`VirtualNodeMetric`]. The tour construction and
/// both descents read `ext`; the split reads its first `n` nodes and the
/// depot legs `ext.at(v, n)`. Bit for bit the same solution as
/// [`min_max_ktours_with_matrix`] over the table's parts.
///
/// # Panics
///
/// Panics if `ext` is empty (it holds no depot), `k == 0`, or
/// `service.len() != ext.len() - 1`.
pub fn min_max_ktours_extended<M: Metric + ?Sized>(
    ext: &M,
    service: &[f64],
    k: usize,
    improvement_passes: usize,
) -> KTourSolution {
    let n = ext.len().checked_sub(1).expect("the extended table holds the depot");
    if n == 0 {
        assert!(k >= 1, "need at least one vehicle");
        return KTourSolution { tours: vec![Vec::new(); k], max_delay: 0.0 };
    }
    let mut tour = tsp::build_tour(ext, improvement_passes);
    // Rotate so the depot (node n) is first, then drop it: the remainder
    // is the Hamiltonian path we split.
    let dpos = tour.iter().position(|&v| v == n).expect("depot in tour");
    tour.rotate_left(dpos);
    let order: Vec<usize> = tour[1..].to_vec();
    let depot: Vec<f64> = (0..n).map(|v| ext.at(v, n)).collect();
    min_max_ktours_along(&Nodes(ext), &depot, service, k, &order)
}

/// The first `len() - 1` nodes of a depot-extended table.
struct Nodes<'a, M: ?Sized>(&'a M);

impl<M: Metric + ?Sized> Metric for Nodes<'_, M> {
    fn len(&self) -> usize {
        self.0.len() - 1
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.0.at(i, j)
    }
}

/// [`min_max_ktours`] splitting a *caller-provided* visiting order
/// (a permutation of `0..n`, depot excluded). Use to compare underlying
/// tour constructions (greedy-edge vs Christofides vs exact) while
/// keeping the binary-search splitter fixed.
///
/// # Panics
///
/// Panics if `k == 0`, input lengths disagree, or `order` is not a
/// permutation of `0..n`.
pub fn min_max_ktours_along<M: Metric + ?Sized>(
    dist: &M,
    depot: &[f64],
    service: &[f64],
    k: usize,
    order: &[usize],
) -> KTourSolution {
    assert!(k >= 1, "need at least one vehicle");
    let n = dist.len();
    assert_eq!(depot.len(), n, "depot vector length mismatch");
    assert_eq!(service.len(), n, "service vector length mismatch");
    assert!(tsp::is_permutation(n, order), "order must be a permutation of the nodes");
    if n == 0 {
        return KTourSolution { tours: vec![Vec::new(); k], max_delay: 0.0 };
    }
    let order = order.to_vec();

    // Bounds for λ: a single node alone is a lower bound; the whole path
    // as one tour is an upper bound.
    let lo0 = (0..n)
        .map(|v| 2.0 * depot[v] + service[v])
        .fold(0.0f64, f64::max);
    let hi0 = tour_delay(dist, depot, service, &order);

    let mut lo = lo0;
    let mut hi = hi0;
    // Invariant: hi is always feasible (the full path fits in one tour
    // when k >= 1). Shrink until the interval is tight.
    for _ in 0..100 {
        if hi - lo <= 1e-9 * hi.max(1.0) {
            break;
        }
        let mid = 0.5 * (lo + hi);
        match split_with_bound(dist, depot, service, &order, mid) {
            Some(tours) if tours.len() <= k => hi = mid,
            _ => lo = mid,
        }
    }
    let mut tours =
        split_with_bound(dist, depot, service, &order, hi).expect("hi is feasible");
    // `hi0` (one tour over the whole path) is summed in a different
    // order than the splitter's incremental cost, so on long paths
    // floating-point drift can make the greedy split exceed `k`
    // segments by one. Merge the overflow into the last kept tour —
    // never truncate, which would silently drop nodes.
    while tours.len() > k {
        let tail = tours.pop().expect("len > k >= 1");
        tours.last_mut().expect("len >= 1").extend(tail);
    }
    tours.resize(k, Vec::new());

    let max_delay = tours
        .iter()
        .map(|t| tour_delay(dist, depot, service, t))
        .fold(0.0f64, f64::max);
    KTourSolution { tours, max_delay }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_geom::{dist_matrix, Point};

    /// Builds (dist, depot) travel-time inputs from points and a depot.
    fn travel(pts: &[Point], depot_pt: Point, speed: f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut d = dist_matrix(pts);
        for row in &mut d {
            for x in row.iter_mut() {
                *x /= speed;
            }
        }
        let dep: Vec<f64> = pts.iter().map(|p| p.dist(depot_pt) / speed).collect();
        (d, dep)
    }

    fn coverage(tours: &[Vec<usize>], n: usize) -> bool {
        let mut seen = vec![false; n];
        for t in tours {
            for &v in t {
                if seen[v] {
                    return false; // visited twice
                }
                seen[v] = true;
            }
        }
        seen.into_iter().all(|b| b)
    }

    #[test]
    fn empty_instance() {
        let sol = min_max_ktours(&[], &[], &[], 3, 10);
        assert_eq!(sol.tours, vec![Vec::<usize>::new(); 3]);
        assert_eq!(sol.max_delay, 0.0);
    }

    #[test]
    fn single_node_single_vehicle() {
        let pts = [Point::new(3.0, 4.0)];
        let (d, dep) = travel(&pts, Point::ORIGIN, 1.0);
        let sol = min_max_ktours(&d, &dep, &[7.0], 1, 10);
        assert_eq!(sol.tours, vec![vec![0]]);
        assert!((sol.max_delay - (5.0 + 5.0 + 7.0)).abs() < 1e-9);
    }

    #[test]
    fn fewer_nodes_than_vehicles_leaves_empty_tours() {
        let pts = [Point::new(1.0, 0.0), Point::new(0.0, 1.0)];
        let (d, dep) = travel(&pts, Point::ORIGIN, 1.0);
        let sol = min_max_ktours(&d, &dep, &[0.0, 0.0], 4, 10);
        assert_eq!(sol.tours.len(), 4);
        assert!(coverage(&sol.tours, 2));
        assert!(sol.tours.iter().filter(|t| t.is_empty()).count() >= 2);
    }

    #[test]
    fn two_clusters_two_vehicles_split_cleanly() {
        // Two tight clusters far apart; depot midway. With K=2 each
        // vehicle should take one cluster, halving the max delay vs K=1.
        let mut pts = Vec::new();
        for i in 0..5 {
            pts.push(Point::new(-50.0 + i as f64 * 0.5, 0.0));
            pts.push(Point::new(50.0 + i as f64 * 0.5, 0.0));
        }
        let (d, dep) = travel(&pts, Point::ORIGIN, 1.0);
        let svc = vec![1.0; 10];
        let k1 = min_max_ktours(&d, &dep, &svc, 1, 30);
        let k2 = min_max_ktours(&d, &dep, &svc, 2, 30);
        assert!(coverage(&k1.tours, 10));
        assert!(coverage(&k2.tours, 10));
        assert!(
            k2.max_delay < 0.7 * k1.max_delay,
            "k2 {} vs k1 {}",
            k2.max_delay,
            k1.max_delay
        );
    }

    #[test]
    fn max_delay_matches_reported_tours() {
        let pts: Vec<Point> = (0..20)
            .map(|i| Point::new((i * 13 % 50) as f64, (i * 7 % 50) as f64))
            .collect();
        let (d, dep) = travel(&pts, Point::new(25.0, 25.0), 1.0);
        let svc: Vec<f64> = (0..20).map(|i| (i % 4) as f64 * 10.0).collect();
        let sol = min_max_ktours(&d, &dep, &svc, 3, 30);
        assert!(coverage(&sol.tours, 20));
        let recomputed = sol
            .tours
            .iter()
            .map(|t| tour_delay(&d, &dep, &svc, t))
            .fold(0.0f64, f64::max);
        assert!((recomputed - sol.max_delay).abs() < 1e-9);
    }

    #[test]
    fn more_vehicles_never_hurt() {
        let pts: Vec<Point> = (0..30)
            .map(|i| Point::new((i * 37 % 90) as f64, (i * 53 % 90) as f64))
            .collect();
        let (d, dep) = travel(&pts, Point::new(45.0, 45.0), 1.0);
        let svc = vec![5.0; 30];
        let mut prev = f64::INFINITY;
        for k in 1..=5 {
            let sol = min_max_ktours(&d, &dep, &svc, k, 30);
            assert!(coverage(&sol.tours, 30));
            assert!(
                sol.max_delay <= prev + 1e-6,
                "k={k}: {} > previous {prev}",
                sol.max_delay
            );
            prev = sol.max_delay;
        }
    }

    #[test]
    fn service_times_count_toward_delay() {
        let pts = [Point::new(1.0, 0.0)];
        let (d, dep) = travel(&pts, Point::ORIGIN, 1.0);
        let no_svc = min_max_ktours(&d, &dep, &[0.0], 1, 5);
        let with_svc = min_max_ktours(&d, &dep, &[100.0], 1, 5);
        assert!((with_svc.max_delay - no_svc.max_delay - 100.0).abs() < 1e-9);
    }

    #[test]
    fn split_bound_rejects_impossible_lambda() {
        let pts = [Point::new(10.0, 0.0)];
        let (d, dep) = travel(&pts, Point::ORIGIN, 1.0);
        assert!(split_with_bound(&d, &dep, &[5.0], &[0], 10.0).is_none());
        let ok = split_with_bound(&d, &dep, &[5.0], &[0], 25.0).unwrap();
        assert_eq!(ok, vec![vec![0]]);
    }

    #[test]
    #[should_panic(expected = "at least one vehicle")]
    fn zero_vehicles_panics() {
        let _ = min_max_ktours(&[], &[], &[], 0, 5);
    }

    #[test]
    fn along_custom_order_covers_and_matches_delay() {
        let pts: Vec<Point> = (0..12)
            .map(|i| Point::new((i * 17 % 40) as f64, (i * 23 % 40) as f64))
            .collect();
        let (d, dep) = travel(&pts, Point::new(20.0, 20.0), 1.0);
        let svc = vec![10.0; 12];
        let order: Vec<usize> = (0..12).collect();
        let sol = super::min_max_ktours_along(&d, &dep, &svc, 3, &order);
        assert!(coverage(&sol.tours, 12));
        // Nodes appear in the given order within the concatenated tours.
        let flat: Vec<usize> = sol.tours.iter().flatten().copied().collect();
        assert_eq!(flat, order);
    }

    #[test]
    fn christofides_base_is_competitive() {
        let pts: Vec<Point> = (0..30)
            .map(|i| Point::new((i * 37 % 90) as f64, (i * 53 % 90) as f64))
            .collect();
        let depot_pt = Point::new(45.0, 45.0);
        let (d, dep) = travel(&pts, depot_pt, 1.0);
        let svc = vec![20.0; 30];
        // Christofides order over depot + nodes.
        let mut ext = vec![vec![0.0; 31]; 31];
        for i in 0..30 {
            ext[i][..30].copy_from_slice(&d[i]);
            ext[i][30] = dep[i];
            ext[30][i] = dep[i];
        }
        let mut tour = crate::christofides::christofides_tour(&ext, 20);
        let dpos = tour.iter().position(|&v| v == 30).unwrap();
        tour.rotate_left(dpos);
        let order: Vec<usize> = tour[1..].to_vec();
        let chris = super::min_max_ktours_along(&d, &dep, &svc, 2, &order);
        let default = min_max_ktours(&d, &dep, &svc, 2, 20);
        assert!(coverage(&chris.tours, 30));
        assert!(chris.max_delay <= 1.3 * default.max_delay);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn along_rejects_bad_orders() {
        let d = vec![vec![0.0]];
        let _ = super::min_max_ktours_along(&d, &[0.0], &[0.0], 1, &[0, 0]);
    }

    #[test]
    fn float_drift_never_drops_nodes() {
        // The splitter accumulates a tour's cost incrementally, in a
        // different summation order than `tour_delay`. On long tours
        // with large magnitudes the incremental sum can round above the
        // binary search's upper bound, making the final split produce
        // k+1 segments — which `resize(k)` used to silently truncate,
        // dropping nodes. Trial 69 below hits exactly that drift (the
        // incremental cost of the whole path exceeds `tour_delay` of
        // the same path by more than the 1e-9 tolerance); the fix
        // merges the overflow instead. Keep every trial: the non-drifting
        // ones pin the ordinary path.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 50;
        for trial in 0..=69 {
            let pts: Vec<(f64, f64)> =
                (0..n).map(|_| (next() * 10_000.0, next() * 10_000.0)).collect();
            let dist: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            let dx = pts[i].0 - pts[j].0;
                            let dy = pts[i].1 - pts[j].1;
                            (dx * dx + dy * dy).sqrt() / 5.0
                        })
                        .collect()
                })
                .collect();
            let depot: Vec<f64> =
                pts.iter().map(|p| (p.0 * p.0 + p.1 * p.1).sqrt() / 5.0).collect();
            let service: Vec<f64> = (0..n).map(|_| 1_000.0 + next() * 80_000.0).collect();
            let order: Vec<usize> = (0..n).collect();
            let sol = super::min_max_ktours_along(&dist, &depot, &service, 1, &order);
            assert_eq!(sol.tours.len(), 1, "trial {trial}");
            assert!(coverage(&sol.tours, n), "trial {trial} dropped nodes");
        }
    }
}
