//! Order statistics: nearest-rank percentiles, quartiles, and the
//! "highest percentile with at least ten samples beyond it" rule used to
//! pick the tail a timing is reported at.
//!
//! Percentiles are given in basis points (`5000` = p50, `9900` = p99) so
//! rank arithmetic stays in integers and `p99` of 100 samples is exactly
//! the 99th, with no floating-point rounding in between.

/// Tail percentiles [`tail`] tries, highest first.
pub const TAIL_LADDER_BP: [u32; 6] = [9990, 9900, 9500, 9000, 7500, 5000];

/// Samples that must rank above a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Ascending copy of `samples` (`total_cmp`, so a NaN cannot panic).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `bp` among `n > 0` samples:
/// `ceil(bp · n / 10000)`, at least 1.
pub fn rank(n: usize, bp: u32) -> usize {
    assert!(n > 0, "rank of an empty sample");
    (bp as usize * n).div_ceil(10_000).clamp(1, n)
}

/// Nearest-rank percentile `bp` of the ascending, non-empty `sorted`.
pub fn percentile(sorted: &[f64], bp: u32) -> f64 {
    sorted[rank(sorted.len(), bp) - 1]
}

/// Nearest-rank median (the lower middle sample for an even count).
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 5000)
}

/// Nearest-rank first and third quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    (percentile(sorted, 2500), percentile(sorted, 7500))
}

/// The highest percentile of [`TAIL_LADDER_BP`] with at least
/// [`TAIL_MIN_BEYOND`] samples ranked above it, with its value; `None`
/// when even the median has fewer than ten samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<(u32, f64)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER_BP
        .iter()
        .find(|&&bp| n - rank(n, bp) >= TAIL_MIN_BEYOND)
        .map(|&bp| (bp, percentile(sorted, bp)))
}

/// `"p99"`, `"p99.9"`: a basis-point percentile as a label.
pub fn label(bp: u32) -> String {
    if bp.is_multiple_of(100) {
        format!("p{}", bp / 100)
    } else {
        format!("p{}", bp as f64 / 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest rank by definition: the first sample (in ascending
    /// order) at or below which at least `bp / 100` percent of the
    /// samples lie.
    fn brute(sorted: &[f64], bp: u32) -> f64 {
        let n = sorted.len();
        (0..n)
            .find(|&i| (i + 1) * 10_000 >= bp as usize * n)
            .map(|i| sorted[i])
            .expect("some sample reaches every percentile")
    }

    /// The ladder scanned the slow way: count the samples whose position
    /// lies after the percentile's.
    fn brute_tail(sorted: &[f64]) -> Option<(u32, f64)> {
        for &bp in &TAIL_LADDER_BP {
            let v = brute(sorted, bp);
            let at = sorted
                .iter()
                .position(|&x| x == v)
                .expect("value is a sample");
            let last_tie = sorted
                .iter()
                .rposition(|&x| x == v)
                .expect("value is a sample");
            // Positions are distinct below because the vectors are strictly
            // increasing; `at == last_tie` keeps the test honest about that.
            assert_eq!(at, last_tie);
            if sorted.len() - (at + 1) >= TAIL_MIN_BEYOND {
                return Some((bp, v));
            }
        }
        None
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_match_brute_force_nearest_rank() {
        for n in [1, 2, 3, 5, 7, 10, 19, 20, 99, 100, 101, 999, 1000, 1001] {
            let v = ramp(n);
            for bp in [1, 2500, 5000, 7500, 9000, 9500, 9900, 9990, 10_000] {
                assert_eq!(percentile(&v, bp), brute(&v, bp), "n={n} bp={bp}");
            }
        }
    }

    #[test]
    fn known_vectors() {
        let v = ramp(100);
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 9900), 99.0);
        assert_eq!(quartiles(&v), (25.0, 75.0));
        let w = sorted(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(median(&w), 3.0);
        assert_eq!(percentile(&w, 9500), 5.0);
        assert_eq!(quartiles(&w), (2.0, 4.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(19)), None, "even the median has only 9 beyond");
        assert_eq!(tail(&ramp(20)), Some((5000, 10.0)));
        assert_eq!(tail(&ramp(40)), Some((7500, 30.0)));
        assert_eq!(
            tail(&ramp(999)),
            Some((9500, 950.0)),
            "p99 would leave 9 beyond"
        );
        assert_eq!(tail(&ramp(1000)), Some((9900, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((9990, 9990.0)));
        for n in 1..=1200 {
            let v = ramp(n);
            assert_eq!(tail(&v), brute_tail(&v), "n={n}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(label(9900), "p99");
        assert_eq!(label(9990), "p99.9");
        assert_eq!(label(5000), "p50");
    }
}
