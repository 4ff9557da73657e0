//! Sharded planning: spatial partition → concurrent per-shard planning
//! → depot stitching with boundary reconciliation.
//!
//! [`ShardedPlanner`] wraps any [`Planner`] and scales it to instances
//! far beyond what a single monolithic plan can handle: it cuts the
//! field into spatial shards (recursive longest-axis median cuts,
//! balanced by node count), distributes the `K` chargers over the
//! shards, plans every shard **concurrently** on scoped threads — each
//! worker builds its shard's [`ChargingProblem::restrict`] sub-instance
//! right before planning it — and stitches the shard
//! tours back together at the shared depot. Because each charger's tour
//! begins and ends at the depot regardless of shard, stitching is pure
//! concatenation — the per-shard sojourn times carry over unchanged.
//!
//! # Boundary reconciliation
//!
//! Shard sub-instances recompute coverage *within* the shard, so a
//! sensor sitting near a cut can be covered by sojourn locations in two
//! different shards — a conflict the per-shard planners cannot see. The
//! stitcher therefore runs a targeted reconciliation sweep over the
//! merged schedule: sojourns are replayed in start order, and whenever
//! two concurrently-charging sojourns on different tours share a
//! coverage witness **in the full instance**, the later one waits out
//! the earlier (the wait propagates down its tour so intra-tour travel
//! gaps are preserved). A `2γ` distance prefilter keeps the exact
//! witness test off almost every pair, so the sweep stays near-linear.
//!
//! # Audit
//!
//! [`plan_with_audit`](ShardedPlanner::plan_with_audit) returns a
//! [`ShardAudit`] proving the partition assigned every target to
//! exactly one shard and that stitching conserved every planned stop —
//! no sojourn dropped, none double-planned.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;

use crate::conflict::coverage_overlap;
use crate::planner::{PlanError, Planner};
use crate::problem::{ChargingProblem, ProblemError};
use crate::schedule::{ChargerTour, Schedule, Sojourn};

/// Safety cap on reconciliation waits; orders of magnitude above any
/// real cut-boundary conflict count.
const MAX_RECONCILE_FIXES: usize = 1_000_000;

/// Wraps an inner [`Planner`] and plans spatial shards of the instance
/// concurrently. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct ShardedPlanner<P> {
    inner: P,
    shards: usize,
}

impl<P> ShardedPlanner<P> {
    /// A sharded planner that aims for `shards` spatial regions. The
    /// effective count never exceeds the instance's charger count `K`
    /// (every shard needs at least one charger) or its target count;
    /// `shards <= 1` is the identity wrapper — `plan` defers to the
    /// inner planner untouched and bit-identical.
    pub fn new(inner: P, shards: usize) -> Self {
        ShardedPlanner { inner, shards }
    }

    /// The requested shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The wrapped planner.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

/// One shard's slice of a [`ShardAudit`].
#[derive(Clone, Debug)]
pub struct ShardInfo {
    /// Targets assigned to this shard.
    pub size: usize,
    /// Chargers allotted to this shard (≥ 1; allotments sum to `K`).
    pub chargers: usize,
    /// Sojourns in the shard's sub-schedule (conserved verbatim into
    /// the stitched schedule).
    pub sojourns: usize,
}

/// Proof record of a sharded plan: partition exactness, stop
/// conservation, and the cost of boundary reconciliation.
#[derive(Clone, Debug)]
pub struct ShardAudit {
    /// Shards requested via [`ShardedPlanner::new`].
    pub requested_shards: usize,
    /// Per-shard sizes/allotments/sojourns, in stitch order. Empty for
    /// the single-shard passthrough.
    pub shards: Vec<ShardInfo>,
    /// Cross-tour sojourn pairs that survived the time-overlap and `2γ`
    /// prefilters and were tested for an exact coverage witness.
    pub reconcile_checked: usize,
    /// Waits inserted by boundary reconciliation.
    pub reconcile_fixes: usize,
    /// Total waiting time those fixes added, seconds.
    pub reconcile_wait_s: f64,
}

impl ShardAudit {
    /// Total targets across all shards (must equal the instance size).
    pub fn partitioned_targets(&self) -> usize {
        self.shards.iter().map(|s| s.size).sum()
    }

    /// Total sojourns across all shard sub-schedules (must equal the
    /// stitched schedule's sojourn count).
    pub fn planned_sojourns(&self) -> usize {
        self.shards.iter().map(|s| s.sojourns).sum()
    }
}

impl<P: Planner + Sync> ShardedPlanner<P> {
    /// Plans `problem` shard-by-shard and returns the stitched schedule
    /// together with its [`ShardAudit`].
    ///
    /// # Errors
    ///
    /// Propagates the inner planner's [`PlanError`] from any shard, a
    /// [`PlanError::Context`] from sub-instance construction, and
    /// [`PlanError::Internal`] if the partition audit fails (a bug, not
    /// an input condition).
    pub fn plan_with_audit(
        &self,
        problem: &ChargingProblem,
    ) -> Result<(Schedule, ShardAudit), PlanError> {
        let n = problem.len();
        let k = problem.charger_count();
        let shard_target = self.shards.max(1).min(k).min(n.max(1));
        if shard_target <= 1 {
            let schedule = self.inner.plan(problem)?;
            let audit = ShardAudit {
                requested_shards: self.shards,
                shards: Vec::new(),
                reconcile_checked: 0,
                reconcile_fixes: 0,
                reconcile_wait_s: 0.0,
            };
            return Ok((schedule, audit));
        }

        let cells = partition(problem, shard_target);
        audit_partition(n, &cells)?;
        if cells.len() <= 1 {
            let schedule = self.inner.plan(problem)?;
            let audit = ShardAudit {
                requested_shards: self.shards,
                shards: Vec::new(),
                reconcile_checked: 0,
                reconcile_fixes: 0,
                reconcile_wait_s: 0.0,
            };
            return Ok((schedule, audit));
        }

        let sizes: Vec<usize> = cells.iter().map(Vec::len).collect();
        let allot = distribute_chargers(&sizes, k);
        let sub_schedules = plan_concurrently(&self.inner, problem, &cells, &allot)?;

        // Stitch: remap local target indices to global ones and
        // concatenate tours; shard sub-times carry over verbatim.
        let mut tours: Vec<ChargerTour> = Vec::with_capacity(k);
        let mut shards = Vec::with_capacity(cells.len());
        for ((cell, sub_schedule), &chargers) in
            cells.iter().zip(&sub_schedules).zip(&allot)
        {
            shards.push(ShardInfo {
                size: cell.len(),
                chargers,
                sojourns: sub_schedule.sojourn_count(),
            });
            for tour in &sub_schedule.tours {
                let sojourns = tour
                    .sojourns
                    .iter()
                    .map(|s| Sojourn { target: cell[s.target], ..*s })
                    .collect();
                tours.push(ChargerTour {
                    sojourns,
                    return_time_s: tour.return_time_s,
                });
            }
        }
        debug_assert_eq!(tours.len(), k, "charger allotments must sum to K");
        let mut schedule = Schedule { tours };

        let stitched = schedule.sojourn_count();
        let planned: usize = shards.iter().map(|s| s.sojourns).sum();
        if stitched != planned {
            return Err(PlanError::Internal("sharded stitch lost a sojourn"));
        }

        let (checked, fixes, wait_s) = reconcile(problem, &mut schedule)?;
        let audit = ShardAudit {
            requested_shards: self.shards,
            shards,
            reconcile_checked: checked,
            reconcile_fixes: fixes,
            reconcile_wait_s: wait_s,
        };
        Ok((schedule, audit))
    }
}

impl<P: Planner + Sync> Planner for ShardedPlanner<P> {
    fn name(&self) -> &'static str {
        "Sharded"
    }

    fn plan(&self, problem: &ChargingProblem) -> Result<Schedule, PlanError> {
        self.plan_with_audit(problem).map(|(schedule, _)| schedule)
    }
}

fn restrict_error(e: ProblemError) -> PlanError {
    match e {
        ProblemError::Context(e) => PlanError::Context(e),
        _ => PlanError::Internal("shard sub-instance construction failed"),
    }
}

/// Splits target indices into at most `shards` cells by recursive
/// longest-axis median cuts, always splitting the currently largest
/// cell; each median is selected, not sorted for. Fully deterministic:
/// ties order by `(coordinate, index)` and the final cells sort by their
/// smallest member.
pub(crate) fn partition(problem: &ChargingProblem, shards: usize) -> Vec<Vec<usize>> {
    let mut cells: Vec<Vec<usize>> = vec![(0..problem.len()).collect()];
    while cells.len() < shards {
        // Largest splittable cell; first wins ties for determinism.
        let Some(pos) = (0..cells.len())
            .filter(|&i| cells[i].len() >= 2)
            .max_by_key(|&i| cells[i].len())
        else {
            break;
        };
        let mut cell = cells.swap_remove(pos);

        // Longest bounding-box axis of the cell.
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for &i in &cell {
            let p = problem.targets()[i].pos;
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        let by_x = (max_x - min_x) >= (max_y - min_y);
        // The order is strict (ties go to the index), so selecting the
        // median splits the cell into the halves a full sort would.
        let mid = cell.len() / 2;
        cell.select_nth_unstable_by(mid, |&a, &b| {
            let (pa, pb) = (problem.targets()[a].pos, problem.targets()[b].pos);
            let (ca, cb) = if by_x { (pa.x, pb.x) } else { (pa.y, pb.y) };
            ca.total_cmp(&cb).then_with(|| a.cmp(&b))
        });
        let upper = cell.split_off(mid);
        cells.push(cell);
        cells.push(upper);
    }
    for cell in &mut cells {
        cell.sort_unstable();
    }
    cells.sort_by_key(|c| c.first().copied().unwrap_or(usize::MAX));
    cells
}

/// Distributes `k` chargers over shards proportionally to shard size,
/// with every shard getting at least one (requires `k >= sizes.len()`)
/// and the allotments summing to exactly `k` (largest-remainder
/// rounding, ties to the earlier shard).
fn distribute_chargers(sizes: &[usize], k: usize) -> Vec<usize> {
    let s = sizes.len();
    debug_assert!(k >= s, "every shard needs a charger");
    let spare = k - s;
    let total: usize = sizes.iter().sum::<usize>().max(1);
    let mut allot: Vec<usize> = Vec::with_capacity(s);
    let mut rema: Vec<(usize, usize)> = Vec::with_capacity(s); // (-remainder, shard)
    let mut used = 0;
    for (i, &size) in sizes.iter().enumerate() {
        let exact = spare * size;
        let floor = exact / total;
        allot.push(1 + floor);
        used += floor;
        rema.push((exact % total, i));
    }
    let mut leftover = spare - used;
    rema.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in &rema {
        if leftover == 0 {
            break;
        }
        allot[i] += 1;
        leftover -= 1;
    }
    allot
}

/// Proves every target index lands in exactly one cell.
fn audit_partition(n: usize, cells: &[Vec<usize>]) -> Result<(), PlanError> {
    let mut seen = vec![false; n];
    for cell in cells {
        for &i in cell {
            if i >= n || seen[i] {
                return Err(PlanError::Internal(
                    "shard partition is not an exact cover",
                ));
            }
            seen[i] = true;
        }
    }
    if seen.iter().all(|&s| s) {
        Ok(())
    } else {
        Err(PlanError::Internal("shard partition dropped a target"))
    }
}

/// Plans every cell on a scoped worker pool: a worker restricts
/// `problem` to its cell with the cell's chargers right before planning
/// it and drops the sub-instance after, so only one per worker is alive
/// at a time. Results come in cell order, and so does the first error.
fn plan_concurrently<P: Planner + Sync>(
    inner: &P,
    problem: &ChargingProblem,
    cells: &[Vec<usize>],
    allot: &[usize],
) -> Result<Vec<Schedule>, PlanError> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cells.len().max(1));
    let out: Mutex<Vec<Option<Result<Schedule, PlanError>>>> =
        Mutex::new(vec![None; cells.len()]);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let planned = problem
                    .restrict(&cells[i], allot[i])
                    .map_err(restrict_error)
                    .and_then(|sub| inner.plan(&sub));
                out.lock().expect("shard result lock")[i] = Some(planned);
            });
        }
    });
    out.into_inner()
        .expect("no poisoned shard lock")
        .into_iter()
        .map(|r| r.expect("every shard planned"))
        .collect()
}

/// A tour's next unfinalized sojourn, ordered by effective start time
/// (earliest first; ties by tour for determinism).
struct Pending {
    start: f64,
    tour: usize,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start && self.tour == other.tour
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-start-first.
        other
            .start
            .total_cmp(&self.start)
            .then_with(|| other.tour.cmp(&self.tour))
    }
}

/// Boundary reconciliation: replays the stitched schedule in start
/// order and inserts waits so no two sojourns on different tours charge
/// overlapping intervals while sharing a coverage witness in the full
/// instance. Times are untouched whenever no conflict exists. Returns
/// `(pairs exactly tested, waits inserted, total wait seconds)`.
fn reconcile(
    problem: &ChargingProblem,
    schedule: &mut Schedule,
) -> Result<(usize, usize, f64), PlanError> {
    struct Active {
        tour: usize,
        target: usize,
        start: f64,
        finish: f64,
    }

    let gamma2 = {
        let g = 2.0 * problem.params().gamma_m;
        g * g
    };
    let k = schedule.tours.len();
    // Accumulated shift applied to a tour's remaining sojourns (both
    // arrival and start), plus the start-only extra of its current head
    // (the head waits in place: arrival unchanged, start delayed).
    let mut base_shift = vec![0.0f64; k];
    let mut head_extra = vec![0.0f64; k];
    let mut cursor = vec![0usize; k];
    let mut heap: BinaryHeap<Pending> = BinaryHeap::new();
    for (t, tour) in schedule.tours.iter().enumerate() {
        if let Some(s) = tour.sojourns.first() {
            heap.push(Pending { start: s.start_s, tour: t });
        }
    }

    let mut actives: Vec<Active> = Vec::new();
    let mut checked = 0usize;
    let mut fixes = 0usize;
    let mut wait_s = 0.0f64;

    while let Some(Pending { start, tour }) = heap.pop() {
        let idx = cursor[tour];
        let sojourn = schedule.tours[tour].sojourns[idx];
        let eff_start = sojourn.start_s + base_shift[tour] + head_extra[tour];
        debug_assert!((eff_start - start).abs() <= f64::EPSILON.max(1e-9 * start.abs()));
        let eff_finish = eff_start + sojourn.duration_s;

        // Finalized starts are non-decreasing, so actives finishing at
        // or before this start can never overlap anything later.
        actives.retain(|a| a.finish > eff_start);

        let pos = problem.targets()[sojourn.target].pos;
        let conflict = actives.iter().find(|a| {
            if a.tour == tour || a.start >= eff_finish {
                return false;
            }
            if problem.targets()[a.target].pos.dist2(pos) > gamma2 {
                return false;
            }
            checked += 1;
            coverage_overlap(problem, a.target, sojourn.target).is_some()
        });
        if let Some(a) = conflict {
            let delta = a.finish - eff_start;
            head_extra[tour] += delta;
            wait_s += delta;
            fixes += 1;
            if fixes > MAX_RECONCILE_FIXES {
                return Err(PlanError::Internal(
                    "shard reconciliation did not converge",
                ));
            }
            heap.push(Pending { start: eff_start + delta, tour });
            continue;
        }

        // Finalize: commit the (possibly shifted) times and advance.
        let committed = Sojourn {
            target: sojourn.target,
            arrival_s: sojourn.arrival_s + base_shift[tour],
            start_s: eff_start,
            duration_s: sojourn.duration_s,
        };
        schedule.tours[tour].sojourns[idx] = committed;
        actives.push(Active {
            tour,
            target: committed.target,
            start: committed.start_s,
            finish: committed.finish_s(),
        });
        base_shift[tour] += std::mem::take(&mut head_extra[tour]);
        cursor[tour] += 1;
        if let Some(nxt) = schedule.tours[tour].sojourns.get(cursor[tour]) {
            heap.push(Pending {
                start: nxt.start_s + base_shift[tour],
                tour,
            });
        } else {
            schedule.tours[tour].return_time_s += base_shift[tour];
        }
    }
    Ok((checked, fixes, wait_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appro::Appro;
    use crate::conflict::conflict_count;
    use crate::planner::PlannerConfig;
    use crate::problem::{ChargingParams, ChargingTarget};
    use wrsn_geom::Point;
    use wrsn_net::{NetworkBuilder, SensorId};

    fn network_problem(n: usize, k: usize, seed: u64) -> ChargingProblem {
        let net = NetworkBuilder::new(n)
            .seed(seed)
            .initial_charge(wrsn_net::InitialCharge::UniformFraction { lo: 0.02, hi: 0.18 })
            .build();
        let requests = net.default_requesting_sensors();
        assert!(requests.len() >= n / 2, "instance must have real demand");
        ChargingProblem::from_network(&net, &requests, k).expect("valid instance")
    }

    fn schedule_bits(s: &Schedule) -> Vec<(usize, u64, u64, u64)> {
        s.tours
            .iter()
            .flat_map(|t| {
                t.sojourns.iter().map(|so| {
                    (
                        so.target,
                        so.arrival_s.to_bits(),
                        so.start_s.to_bits(),
                        so.duration_s.to_bits(),
                    )
                })
            })
            .collect()
    }

    #[test]
    fn one_shard_is_bit_identical_passthrough() {
        let problem = network_problem(120, 3, 7);
        let inner = Appro::new(PlannerConfig::default());
        let direct = inner.plan(&problem).unwrap();
        let (sharded, audit) =
            ShardedPlanner::new(Appro::new(PlannerConfig::default()), 1)
                .plan_with_audit(&problem)
                .unwrap();
        assert_eq!(schedule_bits(&direct), schedule_bits(&sharded));
        assert!(audit.shards.is_empty());
        assert_eq!(audit.reconcile_fixes, 0);
    }

    #[test]
    fn partition_is_an_exact_balanced_cover() {
        let problem = network_problem(200, 4, 3);
        let cells = partition(&problem, 4);
        assert_eq!(cells.len(), 4);
        audit_partition(problem.len(), &cells).unwrap();
        let (lo, hi) = cells
            .iter()
            .map(Vec::len)
            .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
        assert!(hi - lo <= 2, "median cuts stay balanced: {lo}..{hi}");
    }

    #[test]
    fn partition_is_deterministic() {
        let problem = network_problem(150, 4, 11);
        assert_eq!(partition(&problem, 4), partition(&problem, 4));
    }

    #[test]
    fn charger_distribution_sums_to_k_with_floor_one() {
        let allot = distribute_chargers(&[100, 50, 10, 1], 8);
        assert_eq!(allot.iter().sum::<usize>(), 8);
        assert!(allot.iter().all(|&a| a >= 1));
        assert_eq!(allot[0], 4); // largest shard gets the most spare
        let tight = distribute_chargers(&[40, 40, 40], 3);
        assert_eq!(tight, vec![1, 1, 1]);
    }

    #[test]
    fn sharded_plan_certifies_on_the_full_instance() {
        let problem = network_problem(250, 4, 5);
        let planner = ShardedPlanner::new(Appro::new(PlannerConfig::default()), 4);
        let (schedule, audit) = planner.plan_with_audit(&problem).unwrap();
        assert_eq!(audit.partitioned_targets(), problem.len());
        assert_eq!(audit.planned_sojourns(), schedule.sojourn_count());
        assert_eq!(conflict_count(&problem, &schedule), 0);
        schedule.certify(&problem).expect("stitched schedule certifies");
    }

    #[test]
    fn shard_count_clamps_to_chargers() {
        let problem = network_problem(100, 2, 9);
        let planner = ShardedPlanner::new(Appro::new(PlannerConfig::default()), 64);
        let (schedule, audit) = planner.plan_with_audit(&problem).unwrap();
        assert_eq!(audit.shards.len(), 2);
        assert_eq!(schedule.tours.len(), 2);
        schedule.certify(&problem).unwrap();
    }

    #[test]
    fn reconcile_delays_cross_tour_overlap_with_shared_witness() {
        // Two targets 1.5γ apart: their disks share the midpoint sensor.
        // Hand-build a schedule charging both at t=0 on different tours.
        let params = ChargingParams::default();
        let g = params.gamma_m;
        let targets: Vec<ChargingTarget> = [(0.0, 0.0), (1.5 * g, 0.0), (0.75 * g, 0.0)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| ChargingTarget {
                id: SensorId(i as u32),
                pos: Point::new(x, y),
                charge_duration_s: 100.0,
                residual_lifetime_s: f64::INFINITY,
            })
            .collect();
        let problem =
            ChargingProblem::new(Point::new(50.0, 50.0), targets, 2, params).unwrap();
        let tour = |target: usize| ChargerTour {
            sojourns: vec![Sojourn {
                target,
                arrival_s: 10.0,
                start_s: 10.0,
                duration_s: 100.0,
            }],
            return_time_s: 120.0,
        };
        let mut schedule = Schedule { tours: vec![tour(0), tour(1)] };
        assert!(conflict_count(&problem, &schedule) > 0);
        let (checked, fixes, wait) = reconcile(&problem, &mut schedule).unwrap();
        assert!(checked >= 1);
        assert_eq!(fixes, 1);
        assert!((wait - 100.0).abs() < 1e-9);
        assert_eq!(conflict_count(&problem, &schedule), 0);
        // The later tour waited in place: arrival unchanged, start pushed.
        let delayed = &schedule.tours[1].sojourns[0];
        assert_eq!(delayed.arrival_s, 10.0);
        assert!((delayed.start_s - 110.0).abs() < 1e-9);
        assert!((schedule.tours[1].return_time_s - 220.0).abs() < 1e-9);
    }

    #[test]
    fn reconcile_leaves_conflict_free_schedules_untouched() {
        let problem = network_problem(150, 3, 2);
        let schedule = Appro::new(PlannerConfig::default())
            .plan(&problem)
            .unwrap();
        let before = schedule_bits(&schedule);
        let mut after = schedule.clone();
        let (_, fixes, wait) = reconcile(&problem, &mut after).unwrap();
        assert_eq!(fixes, 0);
        assert_eq!(wait, 0.0);
        assert_eq!(before, schedule_bits(&after));
    }
}
