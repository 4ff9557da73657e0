//! What a workload run hands back, the measuring budget, and how
//! samples are reduced to one reported value.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats;
use crate::trace::Span;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json` where it is listed there.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was taken (sample count, percentile rule, determinism).
    pub note: String,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: note.into(),
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulated years, plans, wire lines).
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
    /// Every failed output check; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// `BENCHMARK.json` `end_to_end` metrics.
    pub gate: Vec<Metric>,
    /// The workload's own end-to-end metrics, under their own names.
    pub named: Vec<Metric>,
    /// `BENCHMARK.json` `per_layer` metrics of the traced run: the layers
    /// every workload enters.
    pub layers: Vec<Metric>,
    /// Per-layer metrics of the traced run that only this workload has.
    pub detail: Vec<Metric>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a failed check.
    pub fn violate(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
        self.failed += 1;
    }
}

/// How long a measuring phase runs: until `seconds` have passed and at
/// least `min_units` units of work are done.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_units: usize,
    rss_at_min: Cell<Option<f64>>,
}

impl Budget {
    /// A budget starting now.
    pub fn new(seconds: f64, min_units: usize) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
            min_units,
            rss_at_min: Cell::new(None),
        }
    }

    /// Whether to start another unit after `done` units.
    pub fn more(&self, done: usize) -> bool {
        if done == self.min_units && self.rss_at_min.get().is_none() {
            self.rss_at_min.set(peak_rss_mb());
        }
        done < self.min_units || self.start.elapsed().as_secs_f64() < self.seconds
    }

    /// The process's peak resident set once the first `min_units` units
    /// were done. That is a fixed amount of work: how many more units
    /// the time allows varies from run to run, and the heap's growth
    /// with it.
    pub fn peak_rss_mb(&self) -> Metric {
        let note = format!("VmHWM after the first {} units", self.min_units);
        metric(
            "peak_rss_mb",
            self.rss_at_min.get().unwrap_or(f64::NAN),
            "MB",
            note,
        )
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seed of instance `i` of the panel a run's `--seed` stands for.
/// Panels of neighbouring seeds do not overlap while panels stay below
/// 2^16 instances.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    (seed << 16).wrapping_add(i as u64)
}

/// Mean over a panel's instances of each instance's median, from
/// `(instance, sample)` pairs. A run measures a panel of seeded
/// instances: the mean over instances averages out how much work one
/// seed happens to make, and the median within an instance the
/// machine's noise. Deterministic per-instance values give a
/// deterministic result.
pub fn panel_median(samples: impl IntoIterator<Item = (usize, f64)>) -> f64 {
    let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (i, v) in samples {
        by.entry(i).or_default().push(v);
    }
    assert!(!by.is_empty(), "panel median of no samples");
    by.values()
        .map(|v| stats::median(&stats::sorted(v)))
        .sum::<f64>()
        / by.len() as f64
}

/// Median of `samples` (any order, not empty), with a note giving the
/// count and the quartiles.
pub fn median_of(samples: &[f64], what: &str) -> (f64, String) {
    let sorted = stats::sorted(samples);
    let (q1, q3) = stats::quartiles(&sorted);
    (
        stats::median(&sorted),
        format!(
            "median of {} {what} (quartiles {q1:.4} .. {q3:.4})",
            sorted.len()
        ),
    )
}

/// The tail rule applied to `samples`: the value at `bp` when at least
/// ten samples rank above it, otherwise the highest percentile that has
/// ten beyond it (named in the note), or the maximum when none has.
pub fn tail_at(samples: &[f64], bp: u32, what: &str) -> (f64, String) {
    let sorted = stats::sorted(samples);
    let n = sorted.len();
    if n > 0 && n - stats::rank(n, bp) >= stats::TAIL_MIN_BEYOND {
        return (
            stats::percentile(&sorted, bp),
            format!("{} of {n} {what}", stats::label(bp)),
        );
    }
    match stats::tail(&sorted) {
        Some((b, v)) => (
            v,
            format!(
                "{} of {n} {what} (too few for {})",
                stats::label(b),
                stats::label(bp)
            ),
        ),
        None if n > 0 => (
            sorted[n - 1],
            format!("max of {n} {what} (too few for any tail)"),
        ),
        None => (0.0, format!("no {what}")),
    }
}

/// Seconds of the reference loop: sorting 4096 xorshift numbers, eight
/// rounds, best of three. It is the benchmark's own code, so no change
/// to the program moves it, while the host's speed moves it as much as
/// it moves the program. Timed just before and after a unit, it turns
/// the unit's wall time into `work_ref`: on a shared host whose speed
/// drifts by 10–20 % from one run to the next, the ratio is steadier
/// than the wall time.
pub fn reference_s() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut v = vec![0u64; 4096];
        for _ in 0..8 {
            for e in v.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *e = x;
            }
            v.sort_unstable();
        }
        std::hint::black_box(&v);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// [`reference_s`] on `threads` threads at once, mean over the threads:
/// the reference for a unit that keeps that many threads busy.
pub fn reference_on_s(threads: usize) -> f64 {
    let total: f64 = std::thread::scope(|scope| {
        let loops: Vec<_> = (0..threads).map(|_| scope.spawn(reference_s)).collect();
        loops
            .into_iter()
            .map(|l| l.join().expect("the reference loop cannot panic"))
            .sum()
    });
    total / threads as f64
}

/// Traced-over-untraced slowdown of the workload's unit of work, from
/// the units' `work_ref` ratios.
pub fn overhead(untraced: &[f64], traced: &[f64]) -> Metric {
    let u = stats::median(&stats::sorted(untraced));
    let t = stats::median(&stats::sorted(traced));
    metric(
        "trace.overhead_frac",
        t / u - 1.0,
        "frac",
        format!(
            "median traced work_ref / median untraced work_ref - 1 ({} vs {} units)",
            traced.len(),
            untraced.len()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_median_averages_instance_medians() {
        let samples = [
            (0, 1.0),
            (0, 9.0),
            (0, 2.0),
            (1, 10.0),
            (1, 12.0),
            (1, 11.0),
        ];
        assert_eq!(panel_median(samples), (2.0 + 11.0) / 2.0);
        assert_eq!(panel_median([(3, 4.0)]), 4.0);
    }

    #[test]
    fn panels_of_neighbouring_seeds_are_disjoint() {
        let a: Vec<u64> = (0..4).map(|i| instance_seed(7, i)).collect();
        let b: Vec<u64> = (0..4).map(|i| instance_seed(8, i)).collect();
        assert!(a.iter().all(|s| !b.contains(s)));
    }
}
