//! Christofides-style tour construction.
//!
//! The classic metric TSP pipeline: minimum spanning tree → perfect
//! matching on the odd-degree vertices → Eulerian circuit → shortcut to
//! a Hamiltonian cycle. With an *exact* minimum-weight matching this is
//! Christofides' 1.5-approximation; we use a greedy matching (sorted
//! edge scan), which keeps the construction O(n² log n) and in practice
//! lands within a few percent of the exact variant. Offered as an
//! alternative to [`crate::tsp::greedy_edge`] for the tour-splitting
//! core; the ablation bench compares them.

use crate::mst::prim_metric;
use crate::tsp;
use wrsn_geom::Metric;

/// Builds a closed tour with the MST + greedy-matching + Euler-shortcut
/// construction, followed by 2-opt descent.
///
/// Returns a permutation of `0..n`.
///
/// # Panics
///
/// Panics if `dist` is not square.
///
/// # Example
///
/// ```
/// use wrsn_algo::christofides::christofides_tour;
/// use wrsn_algo::tsp::{is_permutation, tour_length};
/// use wrsn_geom::{dist_matrix, Point};
///
/// let pts: Vec<Point> = (0..12)
///     .map(|i| Point::new((i * 17 % 50) as f64, (i * 31 % 50) as f64))
///     .collect();
/// let d = dist_matrix(&pts);
/// let tour = christofides_tour(&d, 20);
/// assert!(is_permutation(12, &tour));
/// assert!(tour_length(&d, &tour) > 0.0);
/// ```
pub fn christofides_tour(dist: &[Vec<f64>], improvement_passes: usize) -> Vec<usize> {
    let n = dist.len();
    assert!(dist.iter().all(|r| r.len() == n), "distance matrix must be square");
    christofides_tour_metric(dist, improvement_passes)
}

/// [`christofides_tour`] over any [`Metric`]; same construction, same
/// tie-breaking.
fn christofides_tour_metric<M: Metric + ?Sized>(dist: &M, improvement_passes: usize) -> Vec<usize> {
    let n = dist.len();
    if n <= 3 {
        return (0..n).collect();
    }

    // 1. MST.
    let mst = prim_metric(dist, 0);

    // Multigraph adjacency: MST edges...
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, &p) in mst.parent.iter().enumerate() {
        if v != mst.root {
            adj[v].push(p);
            adj[p].push(v);
        }
    }

    // 2. Odd-degree vertices (always an even count).
    let odd: Vec<usize> = (0..n).filter(|&v| adj[v].len() % 2 == 1).collect();
    debug_assert_eq!(odd.len() % 2, 0, "handshake lemma");

    // 3. Greedy min-weight perfect matching on the odd vertices.
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(odd.len() * odd.len() / 2);
    for i in 0..odd.len() {
        for j in (i + 1)..odd.len() {
            pairs.push((odd[i], odd[j]));
        }
    }
    pairs.sort_by(|&(a, b), &(c, d)| dist.at(a, b).partial_cmp(&dist.at(c, d)).unwrap());
    let mut matched = vec![false; n];
    for (a, b) in pairs {
        if !matched[a] && !matched[b] {
            matched[a] = true;
            matched[b] = true;
            adj[a].push(b);
            adj[b].push(a);
        }
    }

    // 4. Eulerian circuit (Hierholzer). Every vertex now has even degree
    // and the multigraph is connected (it contains the MST).
    let mut iter_pos = vec![0usize; n];
    let mut used: Vec<Vec<bool>> = adj.iter().map(|a| vec![false; a.len()]).collect();
    let mut stack = vec![0usize];
    let mut circuit = Vec::with_capacity(adj.iter().map(Vec::len).sum::<usize>() / 2 + 1);
    while let Some(&v) = stack.last() {
        let mut advanced = false;
        while iter_pos[v] < adj[v].len() {
            let e = iter_pos[v];
            iter_pos[v] += 1;
            if used[v][e] {
                continue;
            }
            let u = adj[v][e];
            // Mark the reverse copy as used too.
            used[v][e] = true;
            if let Some(re) = adj[u]
                .iter()
                .enumerate()
                .position(|(k, &w)| w == v && !used[u][k])
            {
                used[u][re] = true;
            }
            stack.push(u);
            advanced = true;
            break;
        }
        if !advanced {
            circuit.push(v);
            stack.pop();
        }
    }

    // 5. Shortcut: keep the first occurrence of each vertex.
    let mut seen = vec![false; n];
    let mut tour = Vec::with_capacity(n);
    for &v in circuit.iter().rev() {
        if !seen[v] {
            seen[v] = true;
            tour.push(v);
        }
    }
    debug_assert!(tsp::is_permutation(n, &tour), "shortcut must visit everyone once");

    tsp::two_opt(dist, &mut tour, improvement_passes);
    tour
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::held_karp;
    use crate::tsp::{is_permutation, tour_length};
    use wrsn_geom::{dist_matrix, Point};

    fn scatter(n: usize, salt: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    ((i * 37 + salt * 7) % 101) as f64,
                    ((i * 73 + salt * 19) % 97) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn tiny_instances() {
        for n in 0..4 {
            let d = dist_matrix(&scatter(n, 0));
            assert!(is_permutation(n, &christofides_tour(&d, 5)));
        }
    }

    #[test]
    fn produces_permutations() {
        for salt in 0..5 {
            for n in [5usize, 12, 30, 61] {
                let d = dist_matrix(&scatter(n, salt));
                let t = christofides_tour(&d, 10);
                assert!(is_permutation(n, &t), "n={n} salt={salt}");
            }
        }
    }

    #[test]
    fn near_optimal_on_small_instances() {
        for salt in 0..5 {
            let d = dist_matrix(&scatter(10, salt));
            let (_, opt) = held_karp(&d);
            let got = tour_length(&d, &christofides_tour(&d, 30));
            assert!(
                got <= 1.5 * opt + 1e-9,
                "salt {salt}: {got} vs optimal {opt} exceeds 1.5x"
            );
        }
    }

    #[test]
    fn competitive_with_greedy_edge() {
        // Not always better, but never catastrophically worse.
        for salt in 0..5 {
            let d = dist_matrix(&scatter(60, salt));
            let c = tour_length(&d, &christofides_tour(&d, 30));
            let g = tour_length(&d, &crate::tsp::build_tour(&d, 30));
            assert!(c <= 1.25 * g + 1e-9, "salt {salt}: christofides {c} vs greedy {g}");
        }
    }

    #[test]
    fn respects_mst_lower_bound() {
        let d = dist_matrix(&scatter(40, 1));
        let t = christofides_tour(&d, 20);
        let mst = crate::mst::prim(&d, 0);
        assert!(tour_length(&d, &t) >= mst.weight - 1e-9);
    }

    #[test]
    fn matrix_entry_point_matches_nested() {
        let pts = scatter(40, 2);
        let nested = dist_matrix(&pts);
        let flat = wrsn_geom::DistanceMatrix::from_points(&pts);
        assert_eq!(christofides_tour(&nested, 20), christofides_tour_metric(&flat, 20));
    }

    #[test]
    fn duplicate_points() {
        let pts = vec![Point::new(3.0, 3.0); 9];
        let d = dist_matrix(&pts);
        let t = christofides_tour(&d, 5);
        assert!(is_permutation(9, &t));
        assert_eq!(tour_length(&d, &t), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be square")]
    fn ragged_matrix_panics() {
        let mut d = dist_matrix(&scatter(6, 0));
        d[3].pop();
        let _ = christofides_tour(&d, 5);
    }
}
