//! Seeded k-means clustering in the plane.
//!
//! The AA baseline "first partitions the to-be-charged sensors into K
//! groups by applying the K-means algorithm" (paper §VI-A). This module
//! implements Lloyd's algorithm with k-means++ initialization, fully
//! deterministic for a given seed.

use rand::distributions::{Distribution, WeightedIndex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use wrsn_geom::Point;

/// Result of a k-means run.
#[derive(Clone, Debug, PartialEq)]
pub struct KMeans {
    /// `labels[i]` is the cluster (`0..k`) of point `i`.
    pub labels: Vec<usize>,
    /// Cluster centroids; clusters that ended empty keep their last
    /// centroid position.
    pub centroids: Vec<Point>,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

impl KMeans {
    /// The indices of points in cluster `c`.
    pub fn cluster(&self, c: usize) -> Vec<usize> {
        (0..self.labels.len()).filter(|&i| self.labels[i] == c).collect()
    }

    /// Within-cluster sum of squared distances (inertia).
    pub fn inertia(&self, pts: &[Point]) -> f64 {
        pts.iter()
            .zip(&self.labels)
            .map(|(p, &c)| p.dist2(self.centroids[c]))
            .sum()
    }
}

/// Clusters `pts` into `k` groups with Lloyd's algorithm and k-means++
/// seeding, deterministic for a given `seed`. Stops when labels stabilize
/// or after `max_iters` iterations.
///
/// If `k >= pts.len()` every point gets its own cluster (labels `0..n`)
/// and the extra centroids are placed on the last point (or the origin
/// when there are no points at all).
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Example
///
/// ```
/// use wrsn_algo::kmeans::kmeans;
/// use wrsn_geom::Point;
///
/// let pts = vec![
///     Point::new(0.0, 0.0), Point::new(1.0, 0.0),
///     Point::new(100.0, 0.0), Point::new(101.0, 0.0),
/// ];
/// let km = kmeans(&pts, 2, 42, 100);
/// assert_eq!(km.labels[0], km.labels[1]);
/// assert_eq!(km.labels[2], km.labels[3]);
/// assert_ne!(km.labels[0], km.labels[2]);
/// ```
pub fn kmeans(pts: &[Point], k: usize, seed: u64, max_iters: usize) -> KMeans {
    assert!(k > 0, "k must be positive");
    let n = pts.len();
    if n == 0 {
        return KMeans { labels: Vec::new(), centroids: vec![Point::ORIGIN; k], iterations: 0 };
    }
    if k >= n {
        let mut centroids: Vec<Point> = pts.to_vec();
        centroids.resize(k, *pts.last().unwrap());
        return KMeans { labels: (0..n).collect(), centroids, iterations: 0 };
    }

    let mut rng = ChaCha12Rng::seed_from_u64(seed);

    // k-means++ initialization.
    let mut centroids = Vec::with_capacity(k);
    centroids.push(pts[rng.gen_range(0..n)]);
    let mut d2: Vec<f64> = pts.iter().map(|p| p.dist2(centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick any.
            rng.gen_range(0..n)
        } else {
            WeightedIndex::new(&d2).expect("positive weights").sample(&mut rng)
        };
        let c = pts[next];
        centroids.push(c);
        for (i, p) in pts.iter().enumerate() {
            d2[i] = d2[i].min(p.dist2(c));
        }
    }

    let mut labels = vec![0usize; n];
    let mut iterations = 0;
    for it in 0..max_iters {
        iterations = it + 1;
        // Assignment step.
        let mut changed = false;
        for (i, p) in pts.iter().enumerate() {
            let best = (0..k)
                .min_by(|&a, &b| {
                    p.dist2(centroids[a]).partial_cmp(&p.dist2(centroids[b])).unwrap()
                })
                .unwrap();
            if labels[i] != best {
                labels[i] = best;
                changed = true;
            }
        }
        if !changed && it > 0 {
            break;
        }
        // Update step.
        let mut sums = vec![Point::ORIGIN; k];
        let mut counts = vec![0usize; k];
        for (p, &c) in pts.iter().zip(&labels) {
            sums[c] = sums[c] + *p;
            counts[c] += 1;
        }
        for c in 0..k {
            if counts[c] > 0 {
                centroids[c] = sums[c] / counts[c] as f64;
            } else {
                // Empty cluster: reseed on the point farthest from its
                // centroid to split the worst cluster.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        pts[a]
                            .dist2(centroids[labels[a]])
                            .partial_cmp(&pts[b].dist2(centroids[labels[b]]))
                            .unwrap()
                    })
                    .unwrap();
                centroids[c] = pts[far];
            }
        }
    }

    KMeans { labels, centroids, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Point> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(Point::new(i as f64 * 0.1, 0.0));
            pts.push(Point::new(80.0 + i as f64 * 0.1, 50.0));
        }
        pts
    }

    #[test]
    fn separates_well_separated_blobs() {
        let pts = two_blobs();
        let km = kmeans(&pts, 2, 7, 100);
        // All even indices together, all odd together.
        let c0 = km.labels[0];
        let c1 = km.labels[1];
        assert_ne!(c0, c1);
        for i in 0..pts.len() {
            assert_eq!(km.labels[i], if i % 2 == 0 { c0 } else { c1 });
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let pts = two_blobs();
        assert_eq!(kmeans(&pts, 3, 5, 50), kmeans(&pts, 3, 5, 50));
    }

    #[test]
    fn k_geq_n_gives_singletons() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(5.0, 5.0)];
        let km = kmeans(&pts, 4, 0, 10);
        assert_eq!(km.labels, vec![0, 1]);
        assert_eq!(km.centroids.len(), 4);
        assert_eq!(km.inertia(&pts), 0.0);
    }

    #[test]
    fn empty_input() {
        let km = kmeans(&[], 3, 0, 10);
        assert!(km.labels.is_empty());
        assert_eq!(km.centroids.len(), 3);
    }

    #[test]
    fn coincident_points_one_cluster_each() {
        let pts = vec![Point::new(2.0, 2.0); 8];
        let km = kmeans(&pts, 2, 1, 20);
        assert_eq!(km.labels.len(), 8);
        assert!(km.inertia(&pts) < 1e-12);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new((i * 17 % 90) as f64, (i * 41 % 90) as f64))
            .collect();
        let i1 = kmeans(&pts, 1, 3, 100).inertia(&pts);
        let i4 = kmeans(&pts, 4, 3, 100).inertia(&pts);
        assert!(i4 < i1);
    }

    #[test]
    fn cluster_listing_matches_labels() {
        let pts = two_blobs();
        let km = kmeans(&pts, 2, 9, 100);
        for c in 0..2 {
            for &i in &km.cluster(c) {
                assert_eq!(km.labels[i], c);
            }
        }
        assert_eq!(km.cluster(0).len() + km.cluster(1).len(), pts.len());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = kmeans(&[], 0, 0, 1);
    }
}
