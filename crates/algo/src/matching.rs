//! Bipartite matching and bottleneck (min–max) assignment.
//!
//! The related work the paper positions itself against (Liang & Luo,
//! LCN'14) schedules multiple chargers "by a reduction to a series of
//! minimum maximum matching problems": repeatedly assign the most
//! urgent sensors to chargers so that the *worst* single assignment cost
//! is minimized. That bottleneck assignment is solved here by binary
//! searching the cost threshold and testing feasibility with a maximum
//! bipartite matching (Kuhn's augmenting paths).

/// Maximum bipartite matching over an adjacency list.
///
/// `adj[l]` lists the right-side vertices left vertex `l` may match;
/// `n_right` is the number of right vertices. Returns, per left vertex,
/// its matched right vertex (or `None`), maximizing the number of
/// matched pairs. O(V·E) (Kuhn).
///
/// # Example
///
/// ```
/// use wrsn_algo::matching::max_bipartite_matching;
/// // l0–{r0,r1}, l1–{r0}: a perfect matching exists.
/// let m = max_bipartite_matching(&[vec![0, 1], vec![0]], 2);
/// assert_eq!(m.iter().flatten().count(), 2);
/// assert_eq!(m[1], Some(0)); // l1's only option
/// ```
pub fn max_bipartite_matching(adj: &[Vec<usize>], n_right: usize) -> Vec<Option<usize>> {
    let n_left = adj.len();
    let mut right_owner: Vec<Option<usize>> = vec![None; n_right];

    fn try_augment(
        l: usize,
        adj: &[Vec<usize>],
        right_owner: &mut Vec<Option<usize>>,
        visited: &mut [bool],
    ) -> bool {
        for &r in &adj[l] {
            if visited[r] {
                continue;
            }
            visited[r] = true;
            let owner = right_owner[r];
            if owner.is_none()
                || try_augment(owner.expect("checked"), adj, right_owner, visited)
            {
                right_owner[r] = Some(l);
                return true;
            }
        }
        false
    }

    for l in 0..n_left {
        let mut visited = vec![false; n_right];
        try_augment(l, adj, &mut right_owner, &mut visited);
    }

    let mut out = vec![None; n_left];
    for (r, owner) in right_owner.iter().enumerate() {
        if let Some(l) = *owner {
            out[l] = Some(r);
        }
    }
    out
}

/// Minimum-bottleneck assignment for an `n × m` cost matrix with
/// `n ≤ m`: assigns every row a distinct column minimizing the
/// **maximum** single cost (as opposed to [`crate::assignment::hungarian`],
/// which minimizes the sum).
///
/// Returns `(assignment, bottleneck)` where `assignment[row] = column`.
///
/// # Panics
///
/// Panics if the matrix is ragged, `n > m`, or any cost is non-finite.
///
/// # Example
///
/// ```
/// use wrsn_algo::matching::bottleneck_assignment;
/// let cost = vec![
///     vec![1.0, 9.0],
///     vec![9.0, 2.0],
/// ];
/// let (asg, b) = bottleneck_assignment(&cost);
/// assert_eq!(asg, vec![0, 1]);
/// assert_eq!(b, 2.0);
/// ```
pub fn bottleneck_assignment(cost: &[Vec<f64>]) -> (Vec<usize>, f64) {
    let n = cost.len();
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let m = cost[0].len();
    assert!(cost.iter().all(|r| r.len() == m), "cost matrix must be rectangular");
    assert!(n <= m, "need rows <= columns (got {n} x {m})");
    assert!(cost.iter().flatten().all(|c| c.is_finite()), "costs must be finite");

    // Candidate thresholds: the distinct costs, sorted.
    let mut thresholds: Vec<f64> = cost.iter().flatten().copied().collect();
    thresholds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    thresholds.dedup();

    let feasible = |limit: f64| -> Option<Vec<Option<usize>>> {
        let adj: Vec<Vec<usize>> = cost
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|&(_, &c)| c <= limit)
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        let matched = max_bipartite_matching(&adj, m);
        if matched.iter().all(Option::is_some) {
            Some(matched)
        } else {
            None
        }
    };

    // Binary search the smallest feasible threshold.
    let (mut lo, mut hi) = (0usize, thresholds.len() - 1);
    debug_assert!(feasible(thresholds[hi]).is_some(), "full matrix is feasible");
    while lo < hi {
        let mid = (lo + hi) / 2;
        if feasible(thresholds[mid]).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let matched = feasible(thresholds[lo]).expect("lo is feasible");
    let assignment: Vec<usize> =
        matched.into_iter().map(|r| r.expect("perfect matching")).collect();
    (assignment, thresholds[lo])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force bottleneck by permutation enumeration.
    fn brute(cost: &[Vec<f64>]) -> f64 {
        fn rec(cost: &[Vec<f64>], row: usize, used: &mut Vec<bool>, best: &mut f64, cur: f64) {
            if cur >= *best {
                return;
            }
            if row == cost.len() {
                *best = cur;
                return;
            }
            for j in 0..cost[0].len() {
                if !used[j] {
                    used[j] = true;
                    rec(cost, row + 1, used, best, cur.max(cost[row][j]));
                    used[j] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(cost, 0, &mut vec![false; cost[0].len()], &mut best, 0.0);
        best
    }

    #[test]
    fn matching_basics() {
        // l0 can only take r1; l1 can take both.
        let m = max_bipartite_matching(&[vec![1], vec![0, 1]], 2);
        assert_eq!(m, vec![Some(1), Some(0)]);
    }

    #[test]
    fn matching_with_unmatchable_vertex() {
        let m = max_bipartite_matching(&[vec![0], vec![0]], 1);
        assert_eq!(m.iter().flatten().count(), 1);
    }

    #[test]
    fn matching_empty() {
        assert!(max_bipartite_matching(&[], 3).is_empty());
        let m = max_bipartite_matching(&[vec![]], 2);
        assert_eq!(m, vec![None]);
    }

    #[test]
    fn matching_augments_through_chains() {
        // Classic augmenting case: l0–{r0}, l1–{r0,r1}, l2–{r1,r2}.
        let m = max_bipartite_matching(&[vec![0], vec![0, 1], vec![1, 2]], 3);
        assert_eq!(m.iter().flatten().count(), 3);
    }

    #[test]
    fn bottleneck_doc_case() {
        let cost = vec![vec![1.0, 9.0], vec![9.0, 2.0]];
        let (asg, b) = bottleneck_assignment(&cost);
        assert_eq!(asg, vec![0, 1]);
        assert_eq!(b, 2.0);
    }

    #[test]
    fn bottleneck_differs_from_sum_optimal() {
        // Sum-optimal picks (0,0)+(1,1) = 0 + 100; bottleneck prefers
        // (0,1)+(1,0) = max(60, 60) = 60 < 100.
        let cost = vec![vec![0.0, 60.0], vec![60.0, 100.0]];
        let (_, b) = bottleneck_assignment(&cost);
        assert_eq!(b, 60.0);
        let (_, sum) = crate::assignment::hungarian(&cost);
        assert_eq!(sum, 100.0); // sum-optimal total differs in structure
    }

    #[test]
    fn bottleneck_matches_brute_force() {
        for seed in 0..15u64 {
            let n = 2 + (seed as usize % 4);
            let m = n + (seed as usize % 3);
            let cost: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..m)
                        .map(|j| {
                            let x = seed
                                .wrapping_mul(0x9E3779B97F4A7C15)
                                .wrapping_add(((i * m + j) as u64).wrapping_mul(0xD1B54A32D192ED03));
                            ((x >> 45) % 97) as f64
                        })
                        .collect()
                })
                .collect();
            let (asg, b) = bottleneck_assignment(&cost);
            // Assignment is injective and achieves the reported bottleneck.
            let mut used = vec![false; m];
            let mut achieved = 0.0f64;
            for (i, &j) in asg.iter().enumerate() {
                assert!(!used[j]);
                used[j] = true;
                achieved = achieved.max(cost[i][j]);
            }
            assert_eq!(achieved, b);
            assert_eq!(b, brute(&cost), "seed {seed}");
        }
    }

    #[test]
    fn bottleneck_empty() {
        assert_eq!(bottleneck_assignment(&[]), (Vec::new(), 0.0));
    }

    #[test]
    #[should_panic(expected = "rows <= columns")]
    fn bottleneck_rejects_tall_matrices() {
        let _ = bottleneck_assignment(&[vec![1.0], vec![2.0]]);
    }
}
