//! Closed-tour (TSP) construction and local-search improvement.
//!
//! The min–max tour-splitting construction (module [`crate::ktour`])
//! starts from a single closed tour over all nodes; its quality directly
//! bounds the split tours' quality. We provide three constructors and two
//! improvers:
//!
//! - [`nearest_neighbor`]: classic greedy, O(n²);
//! - [`greedy_edge`]: cheapest-edge matching into a tour: one O(n²)
//!   pass keys every edge, and only the edges below a sampled limit and
//!   the pairs that can still join two fragments are sorted (see its
//!   edge order contract); O(n² log n) in the worst case;
//! - [`mst_preorder`]: MST-doubling shortcut (the textbook metric
//!   2-approximation), O(n²);
//! - [`two_opt`]: segment-reversal descent;
//! - [`or_opt`]: relocation of 1–3 node chains.
//!
//! Tours are permutations of `0..n`, interpreted cyclically (the edge
//! from `tour[n-1]` back to `tour[0]` is implied).
//!
//! Every function is generic over [`Metric`], so nested `Vec<Vec<f64>>`
//! matrices and the flat memoized
//! [`DistanceMatrix`](wrsn_geom::DistanceMatrix) work interchangeably —
//! with identical float operations, hence identical tours. The flat
//! table is the fast one: [`crate::ktour`] builds its tour on one, with
//! the depot as the last node.

use wrsn_geom::Metric;

/// Total length of the closed tour `tour` under metric `dist`.
///
/// Returns 0 for tours with fewer than 2 nodes.
pub fn tour_length<M: Metric + ?Sized>(dist: &M, tour: &[usize]) -> f64 {
    if tour.len() < 2 {
        return 0.0;
    }
    let mut len = 0.0;
    for w in tour.windows(2) {
        len += dist.at(w[0], w[1]);
    }
    len + dist.at(*tour.last().unwrap(), tour[0])
}

/// Nearest-neighbor closed tour starting from `start`.
///
/// # Panics
///
/// Panics if `start >= dist.len()` (unless the instance is empty).
pub fn nearest_neighbor<M: Metric + ?Sized>(dist: &M, start: usize) -> Vec<usize> {
    let n = dist.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(start < n, "start out of range");
    let mut visited = vec![false; n];
    let mut tour = Vec::with_capacity(n);
    let mut cur = start;
    visited[cur] = true;
    tour.push(cur);
    for _ in 1..n {
        let next = (0..n)
            .filter(|&v| !visited[v])
            .min_by(|&a, &b| dist.at(cur, a).partial_cmp(&dist.at(cur, b)).unwrap())
            .expect("unvisited vertex remains");
        visited[next] = true;
        tour.push(next);
        cur = next;
    }
    tour
}

/// Edges per node that the sampled limit of [`greedy_edge`] aims to keep.
const PREFIX_PER_NODE: usize = 16;

/// Greedy-edge tour: repeatedly add the globally cheapest edge that keeps
/// degrees ≤ 2 and creates no premature cycle, then stitch the resulting
/// Hamiltonian path into a cycle.
///
/// Edge order contract: edge `(i, j)`, `i < j`, weighs `dist.at(i, j)`,
/// and edges are taken in increasing `(weight, i, j)` order, where
/// `-0.0` equals `+0.0`. A NaN weight panics.
///
/// One pass keys every edge and keeps those whose key is at or below a
/// limit sampled to hold about the `16n` smallest; only the kept edges
/// are sorted and added. If the path is still open, the *survivors* —
/// the pairs of nodes of degree < 2 that lie in different fragments —
/// are sorted and added next. No limit can change the tour: the kept
/// edges are every edge up to some key, so each edge left out comes
/// after all of them, and an edge that fails the survivor test would be
/// rejected at any later point too, because degrees only grow and
/// fragments only merge. So the accepted edges are those of sorting
/// every edge; the limit only sizes the sort. O(n²) to key the edges,
/// plus sorting the kept edges and the survivors: O(n² log n) in the
/// worst case, as when many weights tie.
///
/// # Panics
///
/// Panics if some `dist.at(i, j)`, `i < j`, is NaN (for `n ≥ 3`).
pub fn greedy_edge<M: Metric + ?Sized>(dist: &M) -> Vec<usize> {
    if dist.len() <= 2 {
        return (0..dist.len()).collect();
    }
    greedy_edge_below(dist, prefix_limit(dist))
}

/// [`greedy_edge`] keeping the edges whose key is at most `limit`.
fn greedy_edge_below<M: Metric + ?Sized>(dist: &M, limit: u64) -> Vec<usize> {
    let mut forest = PathForest::new(dist.len());
    if !forest.add_in_order(&kept_edges(dist, limit)) {
        let survivors = forest.survivors(dist);
        forest.add_in_order(&survivors);
    }
    forest.walk()
}

/// Keys every edge, in one pass, and returns those whose key is at most
/// `limit`, sorted.
fn kept_edges<M: Metric + ?Sized>(dist: &M, limit: u64) -> Vec<u128> {
    let n = dist.len();
    let mut kept = Vec::with_capacity((PREFIX_PER_NODE * n).min(n * (n - 1) / 2));
    for i in 0..n {
        for j in (i + 1)..n {
            let key = order_key(dist.at(i, j));
            if key <= limit {
                kept.push(edge(key, i, j));
            }
        }
    }
    kept.sort_unstable();
    kept
}

/// Packs edge `(i, j)` with its key so that integer order is `(key, i,
/// j)` order; a table of `2³²` nodes would not fit in memory.
fn edge(key: u64, i: usize, j: usize) -> u128 {
    u128::from(key) << 64 | (i as u128) << 32 | j as u128
}

/// A key limit that keeps about the `16n` smallest edges, estimated from
/// a deterministic sample of about `4n` edges — every `stride`-th edge
/// in row-major order over `i < j` — as that quantile of the sample with
/// 10% headroom. `u64::MAX` when the prefix would hold every edge.
fn prefix_limit<M: Metric + ?Sized>(dist: &M) -> u64 {
    let n = dist.len();
    let edges = n * (n - 1) / 2;
    let target = PREFIX_PER_NODE * n;
    if target >= edges {
        return u64::MAX;
    }
    let stride = (edges / (4 * n)).max(1);
    let mut sample = Vec::with_capacity(edges / stride + 1);
    let mut j = 1;
    for i in 0..n {
        while j < n {
            sample.push(order_key(dist.at(i, j)));
            j += stride;
        }
        // Carry the stride over into the next row, which starts at i + 2.
        j = j - n + i + 2;
    }
    let rank = target * sample.len() / edges;
    let rank = rank + rank / 10;
    if rank >= sample.len() {
        return u64::MAX;
    }
    *sample.select_nth_unstable(rank).1
}

/// Maps a weight to a `u64` whose unsigned order is the weight's
/// numeric order, with `-0.0` mapped like `+0.0`.
fn order_key(w: f64) -> u64 {
    assert!(!w.is_nan(), "greedy_edge: NaN edge weight");
    let bits = if w == 0.0 { 0 } else { w.to_bits() };
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// Vertex-disjoint paths grown one edge at a time: degrees, adjacency
/// and a union-find over the fragments.
struct PathForest {
    root: Vec<usize>,
    degree: Vec<u8>,
    adj: Vec<[usize; 2]>,
    added: usize,
}

impl PathForest {
    fn new(n: usize) -> Self {
        PathForest {
            root: (0..n).collect(),
            degree: vec![0; n],
            adj: vec![[usize::MAX; 2]; n],
            added: 0,
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.root[x] != x {
            self.root[x] = self.root[self.root[x]];
            x = self.root[x];
        }
        x
    }

    /// Adds each edge of `edges` (sorted) that can join two fragments;
    /// returns `true` once the paths form one Hamiltonian path.
    fn add_in_order(&mut self, edges: &[u128]) -> bool {
        let n = self.root.len();
        for &e in edges {
            let (u, v) = ((e >> 32) as u32 as usize, e as u32 as usize);
            if self.added == n - 1 {
                break;
            }
            if self.degree[u] >= 2 || self.degree[v] >= 2 {
                continue;
            }
            let (ru, rv) = (self.find(u), self.find(v));
            if ru == rv {
                continue;
            }
            self.root[ru] = rv;
            self.adj[u][usize::from(self.degree[u])] = v;
            self.adj[v][usize::from(self.degree[v])] = u;
            self.degree[u] += 1;
            self.degree[v] += 1;
            self.added += 1;
        }
        self.added == n - 1
    }

    /// The pairs of open nodes (degree < 2, isolated ones included) that
    /// lie in different fragments, keyed and sorted: every edge that can
    /// still join two fragments. After the kept edges, each of them fails
    /// this test, so these are exactly the left-out edges that can.
    fn survivors<M: Metric + ?Sized>(&mut self, dist: &M) -> Vec<u128> {
        let open: Vec<usize> = (0..self.root.len()).filter(|&v| self.degree[v] < 2).collect();
        let roots: Vec<usize> = open.iter().map(|&v| self.find(v)).collect();
        let mut survivors = Vec::new();
        for (a, &u) in open.iter().enumerate() {
            for b in a + 1..open.len() {
                if roots[a] != roots[b] {
                    survivors.push(edge(order_key(dist.at(u, open[b])), u, open[b]));
                }
            }
        }
        survivors.sort_unstable();
        survivors
    }

    /// Walks the Hamiltonian path from its lowest-numbered endpoint.
    fn walk(&self) -> Vec<usize> {
        let n = self.root.len();
        let start = (0..n).find(|&v| self.degree[v] <= 1).expect("path has an endpoint");
        let mut tour = Vec::with_capacity(n);
        let mut prev = usize::MAX;
        let mut cur = start;
        loop {
            tour.push(cur);
            let next = self.adj[cur][..usize::from(self.degree[cur])]
                .iter()
                .copied()
                .find(|&x| x != prev);
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
}

/// MST-doubling tour: preorder walk of Prim's tree rooted at `root`.
/// The classic metric 2-approximation.
pub fn mst_preorder<M: Metric + ?Sized>(dist: &M, root: usize) -> Vec<usize> {
    if dist.is_empty() {
        return Vec::new();
    }
    crate::mst::prim_metric(dist, root).preorder()
}

/// 2-opt descent: first-improvement segment reversal.
///
/// Each pass scans `(i, j)` position pairs in order from the start of
/// the tour and applies the first reversal that shortens it by more
/// than `1e-12`, so at most `max_passes` moves are made. Stops early at
/// a pass that finds none (a local optimum).
///
/// A pair's gain depends only on the tour edges at positions `i` and
/// `j`, and a reversal changes only the edges inside it. So a row `i`
/// that had no improving `j` is re-checked only at the edges reversed
/// since, unless its own edge was: the moves are those of a full rescan.
///
/// Never increases the tour length. O(n²) per pass.
pub fn two_opt<M: Metric + ?Sized>(dist: &M, tour: &mut [usize], max_passes: usize) {
    let n = tour.len();
    if n < 4 {
        return;
    }
    // `t[n]` repeats `t[0]`, which no reversal moves, so the closing
    // edge needs no wrap-around; `edge[p]` is `dist.at(t[p], t[p + 1])`.
    let mut t = tour.to_vec();
    t.push(t[0]);
    let mut edge: Vec<f64> = t.windows(2).map(|w| dist.at(w[0], w[1])).collect();
    // Move `m` changed the edges `reversed[m - 1]` (inclusive range);
    // `changed[p]` is the last move that changed edge `p`, and
    // `checked[i]` the move count when row `i` last had no improving `j`.
    let mut reversed: Vec<(usize, usize)> = Vec::new();
    let mut changed = vec![0; n];
    let mut checked = vec![usize::MAX; n];
    let mut spans: Vec<(usize, usize)> = Vec::new();
    'passes: for _ in 0..max_passes {
        for i in 0..n - 1 {
            let (a, b, ab) = (t[i], t[i + 1], edge[i]);
            // (0, n - 1) would remove the same two edges.
            let end = if i == 0 { n - 1 } else { n };
            spans.clear();
            let since = checked[i];
            if since != usize::MAX && changed[i] <= since {
                spans.extend(
                    reversed[since..].iter().map(|&(lo, hi)| (lo.max(i + 2), (hi + 1).min(end))),
                );
                spans.sort_unstable();
            } else {
                spans.push((i + 2, end));
            }
            let mut from = 0;
            for &(lo, hi) in &spans {
                for j in lo.max(from)..hi {
                    let (c, d) = (t[j], t[j + 1]);
                    let delta = dist.at(a, c) + dist.at(b, d) - ab - edge[j];
                    if delta < -1e-12 {
                        t[i + 1..=j].reverse();
                        reversed.push((i, j));
                        for p in i..=j {
                            edge[p] = dist.at(t[p], t[p + 1]);
                            changed[p] = reversed.len();
                        }
                        continue 'passes;
                    }
                }
                from = from.max(hi);
            }
            checked[i] = reversed.len();
        }
        break;
    }
    tour.copy_from_slice(&t[..n]);
}

/// Or-opt descent: relocate chains of 1–3 consecutive nodes to a better
/// position. Complements 2-opt (which cannot move single nodes without
/// reversing). Never increases the tour length.
///
/// Each pass scans chain lengths 1, 2, 3, then chain starts, then
/// insertion edges, in order from the start of the tour, and applies
/// the first relocation that saves more than `1e-12`, so at most
/// `max_passes` moves are made. Stops early at a pass that finds none.
///
/// A candidate's saving depends only on the chain with its neighbours
/// `(p, s0..s1, q)` and the insertion edge, the edges a chain skips are
/// its own, its borders and the one after `q`, and a move creates just
/// three edges. So a chain that had no improving insertion is re-checked
/// only at edges created since, while it keeps the same neighbours: the
/// moves are those of a full rescan.
pub fn or_opt<M: Metric + ?Sized>(dist: &M, tour: &mut Vec<usize>, max_passes: usize) {
    let n = tour.len();
    if n < 5 {
        return;
    }
    // As in `two_opt`, `t[n]` repeats `t[0]` and `edge[p]` is
    // `dist.at(t[p], t[p + 1])`; `pos` inverts `t`.
    let mut t = std::mem::take(tour);
    t.push(t[0]);
    let mut edge: Vec<f64> = t.windows(2).map(|w| dist.at(w[0], w[1])).collect();
    let ids = dist.len();
    let mut pos = vec![0; ids];
    for (p, &v) in t[..n].iter().enumerate() {
        pos[v] = p;
    }
    // Every move appends the three edges it created to `added`;
    // `checked[(seg_len - 1) * ids + s0]` is the chain from `s0` that
    // last had no improving insertion, with `added.len()` at that time.
    let mut added: Vec<(usize, usize)> = Vec::new();
    let mut checked = vec![([usize::MAX; 5], 0); 3 * ids];
    let mut fresh: Vec<usize> = Vec::new();
    'passes: for _ in 0..max_passes {
        for seg_len in 1..=3usize {
            // The chain occupies positions i..i + seg_len (no wrap).
            for i in 0..n - seg_len {
                let p = t[if i == 0 { n - 1 } else { i - 1 }];
                let (s0, s1, q) = (t[i], t[i + seg_len - 1], t[i + seg_len]);
                let removal_gain = dist.at(p, s0) + dist.at(s1, q) - dist.at(p, q);
                if removal_gain <= 1e-12 {
                    continue;
                }
                let bar = removal_gain - 1e-12;
                let improves =
                    |j: usize| dist.at(t[j], s0) + dist.at(s1, t[j + 1]) - edge[j] < bar;
                // Insertion edges (t[j], t[j + 1]) other than the chain's
                // own, its border edges and the edge after `q`.
                let before = if i == 0 { 0..0 } else { 0..i - 1 };
                let after = i + seg_len + 1..if i == 0 { n - 1 } else { n };
                let mut chain = [usize::MAX; 5];
                chain[0] = p;
                chain[1..seg_len + 2].copy_from_slice(&t[i..=i + seg_len]);
                let memo = &mut checked[(seg_len - 1) * ids + s0];
                let hit = if memo.0 == chain {
                    fresh.clear();
                    fresh.extend(
                        added[memo.1..]
                            .iter()
                            .filter(|&&(x, y)| t[pos[x] + 1] == y)
                            .map(|&(x, _)| pos[x])
                            .filter(|j| before.contains(j) || after.contains(j)),
                    );
                    fresh.sort_unstable();
                    fresh.dedup();
                    fresh.iter().copied().find(|&j| improves(j))
                } else {
                    before.clone().chain(after.clone()).find(|&j| improves(j))
                };
                let Some(j) = hit else {
                    *memo = (chain, added.len());
                    continue;
                };
                added.extend([(p, q), (t[j], s0), (s1, t[j + 1])]);
                let (lo, hi) = if j < i {
                    t[j + 1..i + seg_len].rotate_right(seg_len);
                    (j + 1, i + seg_len - 1)
                } else {
                    t[i..=j].rotate_left(seg_len);
                    (i, j)
                };
                t[n] = t[0];
                for x in lo..=hi {
                    pos[t[x]] = x;
                }
                for x in lo.saturating_sub(1)..=hi {
                    edge[x] = dist.at(t[x], t[x + 1]);
                }
                if lo == 0 {
                    edge[n - 1] = dist.at(t[n - 1], t[n]);
                }
                continue 'passes;
            }
        }
        break;
    }
    t.pop();
    *tour = t;
}

/// Builds a good closed tour: greedy-edge construction followed by 2-opt
/// and Or-opt descent. The workhorse used by the planners.
///
/// `improvement_passes` caps moves, not sweeps: the descents make at most
/// `improvement_passes` 2-opt moves, then `improvement_passes / 2 + 1`
/// Or-opt moves and as many 2-opt moves again.
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

/// Returns `true` iff `tour` is a permutation of `0..n`.
pub fn is_permutation(n: usize, tour: &[usize]) -> bool {
    if tour.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &v in tour {
        if v >= n || seen[v] {
            return false;
        }
        seen[v] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;
    use wrsn_geom::{dist_matrix, Point};

    fn ring(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = i as f64 / n as f64 * std::f64::consts::TAU;
                Point::new(50.0 + 10.0 * a.cos(), 50.0 + 10.0 * a.sin())
            })
            .collect()
    }

    fn scatter(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i * 37 % 101) as f64, (i * 73 % 97) as f64))
            .collect()
    }

    #[test]
    fn tour_length_triangle() {
        let d = dist_matrix(&[
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 4.0),
        ]);
        assert_eq!(tour_length(&d, &[0, 1, 2]), 3.0 + 4.0 + 5.0);
        assert_eq!(tour_length(&d, &[0]), 0.0);
        assert_eq!(tour_length(&d, &[]), 0.0);
    }

    #[test]
    fn constructors_produce_permutations() {
        let d = dist_matrix(&scatter(30));
        assert!(is_permutation(30, &nearest_neighbor(&d, 0)));
        assert!(is_permutation(30, &greedy_edge(&d)));
        assert!(is_permutation(30, &mst_preorder(&d, 0)));
        assert!(is_permutation(30, &build_tour(&d, 20)));
    }

    #[test]
    fn two_opt_untangles_a_crossed_ring() {
        let pts = ring(12);
        let d = dist_matrix(&pts);
        // Deliberately scrambled tour.
        let mut tour: Vec<usize> = vec![0, 6, 2, 8, 4, 10, 1, 7, 3, 9, 5, 11];
        let before = tour_length(&d, &tour);
        two_opt(&d, &mut tour, 200);
        let after = tour_length(&d, &tour);
        assert!(after < before);
        // Optimal ring tour length: 12 sides of the regular 12-gon.
        let side = pts[0].dist(pts[1]);
        assert!(after <= 12.0 * side + 1e-6, "after={after}, opt={}", 12.0 * side);
        assert!(is_permutation(12, &tour));
    }

    #[test]
    fn improvers_never_increase_length() {
        let d = dist_matrix(&scatter(40));
        let mut tour = nearest_neighbor(&d, 0);
        let l0 = tour_length(&d, &tour);
        two_opt(&d, &mut tour, 50);
        let l1 = tour_length(&d, &tour);
        assert!(l1 <= l0 + 1e-9);
        or_opt(&d, &mut tour, 50);
        let l2 = tour_length(&d, &tour);
        assert!(l2 <= l1 + 1e-9);
        assert!(is_permutation(40, &tour));
    }

    #[test]
    fn tiny_instances() {
        for n in 0..4 {
            let d = dist_matrix(&scatter(n));
            let t = build_tour(&d, 5);
            assert!(is_permutation(n, &t));
        }
    }

    #[test]
    fn duplicate_points_are_handled() {
        let pts = vec![Point::new(1.0, 1.0); 6];
        let d = dist_matrix(&pts);
        let t = build_tour(&d, 5);
        assert!(is_permutation(6, &t));
        assert_eq!(tour_length(&d, &t), 0.0);
    }

    #[test]
    fn greedy_edge_beats_random_order_on_scatter() {
        let d = dist_matrix(&scatter(50));
        let random_order: Vec<usize> = (0..50).collect();
        let lr = tour_length(&d, &random_order);
        let lg = tour_length(&d, &greedy_edge(&d));
        assert!(lg < lr, "greedy {lg} should beat identity {lr}");
    }

    /// An `n × n` weight matrix of one of six shapes: a uniform scatter,
    /// tight clusters, an integer grid, duplicate points on a line, small
    /// integer weights with `-0.0`, and an asymmetric matrix whose rows
    /// scale by `1e-6` or `1e6` (the sampled limit is badly biased there).
    fn shaped_matrix(shape: u8, n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let sites = [(10.0, 10.0), (80.0, 20.0), (40.0, 90.0)];
        match shape {
            0..=3 => {
                let mut point = || match shape {
                    0 => Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                    1 => {
                        let (x, y) = sites[rng.gen_range(0..sites.len())];
                        Point::new(x + rng.gen_range(-0.5..0.5), y + rng.gen_range(-0.5..0.5))
                    }
                    2 => Point::new(rng.gen_range(0..8u32).into(), rng.gen_range(0..8u32).into()),
                    _ => Point::new(rng.gen_range(0..5u32).into(), 0.0),
                };
                dist_matrix(&(0..n).map(|_| point()).collect::<Vec<_>>())
            }
            4 => {
                let w: Vec<Vec<f64>> = (0..n)
                    .map(|_| {
                        (0..n).map(|_| [0.0, -0.0, 1.0, 2.0][rng.gen_range(0..4usize)]).collect()
                    })
                    .collect();
                (0..n).map(|i| (0..n).map(|j| w[i.min(j)][i.max(j)]).collect()).collect()
            }
            _ => (0..n)
                .map(|_| {
                    let scale = if rng.gen::<bool>() { 1e-6 } else { 1e6 };
                    (0..n).map(|_| scale * rng.gen_range(1.0..100.0)).collect()
                })
                .collect(),
        }
    }

    proptest! {
        /// The limit sizes the sort and decides nothing: keeping no edge,
        /// the sampled limit's edges, or every edge gives one tour.
        #[test]
        fn no_prefix_limit_changes_the_tour(
            shape in 0u8..6,
            n in 3usize..90,
            seed in any::<u64>(),
        ) {
            let dist = shaped_matrix(shape, n, seed);
            let sampled = greedy_edge_below(&dist, prefix_limit(&dist));
            prop_assert_eq!(&sampled, &greedy_edge(&dist));
            prop_assert_eq!(&greedy_edge_below(&dist, 0), &sampled);
            prop_assert_eq!(&greedy_edge_below(&dist, u64::MAX), &sampled);
            prop_assert!(is_permutation(n, &sampled));
        }

        /// The survivors are the left-out edges — keyed above the limit —
        /// whose endpoints both have degree < 2 and lie in different
        /// fragments: isolated nodes count, same-fragment pairs do not.
        #[test]
        fn survivors_are_the_left_out_edges_that_can_join_fragments(
            shape in 0u8..6,
            n in 3usize..60,
            seed in any::<u64>(),
        ) {
            let dist = shaped_matrix(shape, n, seed);
            let mut keys: Vec<u64> = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .map(|(i, j)| order_key(dist.at(i, j)))
                .collect();
            keys.sort_unstable();
            for limit in [0, keys[keys.len() / 8], keys[keys.len() / 3], prefix_limit(&dist)] {
                let mut forest = PathForest::new(n);
                if forest.add_in_order(&kept_edges(&dist, limit)) {
                    continue;
                }
                let got = forest.survivors(&dist);
                let mut want = Vec::new();
                for i in 0..n {
                    for j in i + 1..n {
                        let key = order_key(dist.at(i, j));
                        let open = forest.degree[i] < 2 && forest.degree[j] < 2;
                        if key > limit && open && forest.find(i) != forest.find(j) {
                            want.push(edge(key, i, j));
                        }
                    }
                }
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn is_permutation_rejects_bad_tours() {
        assert!(!is_permutation(3, &[0, 1]));
        assert!(!is_permutation(3, &[0, 1, 1]));
        assert!(!is_permutation(3, &[0, 1, 3]));
        assert!(is_permutation(3, &[2, 0, 1]));
    }
}
