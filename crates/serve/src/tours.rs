//! Live per-charger tours with incremental edits.
//!
//! The batch planners produce a complete [`Schedule`](wrsn_core::Schedule)
//! from scratch; a service cannot afford that per request. This module
//! keeps the fleet's tours as mutable stop lists: admitted requests are
//! spliced in by *cheapest insertion*, stop times are recomputed by a
//! sequential walk from each charger's anchor (the depot, or its last
//! completed stop), and a conservative conflict rule delays any stop
//! that would charge within `2γ` of another charger's concurrently
//! active disk — the serve-side approximation of the certifier's
//! no-simultaneous-charge constraint. An edit counter measures drift so
//! the engine can decide when incremental quality has degraded enough
//! to warrant a full planner run.
//!
//! The insertion cost is latency-aware, not pure travel delta: a
//! candidate position is scored by the new stop's projected start time
//! plus the delay it inflicts on every displaced successor. Pure travel
//! delta would pile nearby requests onto one busy charger while the
//! rest of the fleet idles; the latency term spreads load the way the
//! service's objective (charge delay) wants. To keep a single insertion
//! O(1)-ish under sustained overload, only the tail window of each tour
//! is scanned ([`INSERT_WINDOW`]) and retiming touches just the edited
//! suffix.

use wrsn_core::ChargingParams;
use wrsn_geom::Point;

/// Unstarted tail positions per charger considered by
/// [`LiveTours::insert_cheapest`]. Bounds the work of one insertion
/// under overload, when tours grow long; the latency-aware cost makes
/// deep-middle insertions poor candidates anyway (they delay every
/// successor), so the window loses little.
const INSERT_WINDOW: usize = 8;

/// A request that wants a place in the tours.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PendingStop {
    /// WAL sequence number of the request.
    pub seq: u64,
    /// The requesting sensor's index.
    pub sensor: u32,
    /// The sensor's position (the sojourn location).
    pub pos: Point,
    /// Charging duration at the stop, seconds.
    pub duration_s: f64,
    /// Service time the request was accepted, seconds.
    pub admitted_at_s: f64,
    /// Criticality carried from the queue (residual lifetime, seconds).
    pub lifetime_s: f64,
}

/// One stop of a live tour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LiveStop {
    /// WAL sequence number of the request.
    pub seq: u64,
    /// The sensor being charged.
    pub sensor: u32,
    /// Sojourn location.
    pub pos: Point,
    /// Charging duration, seconds.
    pub duration_s: f64,
    /// Service time the request was accepted, seconds.
    pub admitted_at_s: f64,
    /// Criticality carried from the queue (residual lifetime, seconds).
    pub lifetime_s: f64,
    /// Charging start time, seconds.
    pub start_s: f64,
    /// Charging finish time, seconds.
    pub finish_s: f64,
    /// `true` once the charger has begun this stop; started stops are
    /// committed — they are never moved, re-planned, or re-ordered.
    pub started: bool,
}

/// The fleet's mutable tours.
#[derive(Clone, Debug)]
pub struct LiveTours {
    chargers: Vec<Vec<LiveStop>>,
    /// Per-charger anchor: where the charger becomes free and when
    /// (depot at 0 initially; the last *completed* stop afterwards).
    anchors: Vec<(Point, f64)>,
    params: ChargingParams,
    edits_since_replan: usize,
}

impl LiveTours {
    /// An idle fleet of `k` chargers at the depot.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, depot: Point, params: ChargingParams) -> Self {
        assert!(k >= 1, "need at least one charger");
        LiveTours {
            chargers: vec![Vec::new(); k],
            anchors: vec![(depot, 0.0); k],
            params,
            edits_since_replan: 0,
        }
    }

    /// Total stops not yet completed (started or waiting).
    pub fn pending(&self) -> usize {
        self.chargers.iter().map(Vec::len).sum()
    }

    /// Incremental edits since the last full re-plan.
    pub fn edits_since_replan(&self) -> usize {
        self.edits_since_replan
    }

    /// Resets the drift counter after a full re-plan.
    pub fn note_replanned(&mut self) {
        self.edits_since_replan = 0;
    }

    /// Each charger's live stops, in tour order.
    pub fn chargers(&self) -> &[Vec<LiveStop>] {
        &self.chargers
    }

    fn travel_s(&self, a: Point, b: Point) -> f64 {
        a.dist(b) / self.params.speed_mps
    }

    /// The point and time charger `c` leaves from for the stop at
    /// index `at` (its predecessor's position/finish, or the anchor).
    fn departure(&self, c: usize, at: usize, now_s: f64) -> (Point, f64) {
        match at.checked_sub(1).and_then(|i| self.chargers[c].get(i)) {
            Some(prev) => (prev.pos, prev.finish_s),
            None => {
                let (pos, free_at) = self.anchors[c];
                (pos, free_at.max(now_s))
            }
        }
    }

    /// Recomputes the times of charger `c`'s stops from index `from`
    /// on (earlier stops are untouched), applying the conflict rule:
    /// an unstarted stop within `2γ` of another charger's stop may not
    /// overlap it in time — its start is pushed past that stop's
    /// finish. The push scan walks each other tour forward from its
    /// first possibly-overlapping stop, so its cost is proportional to
    /// the actual overlap, not the tour length.
    fn retime_from(&mut self, c: usize, from: usize, now_s: f64) {
        let (mut pos, mut t) = self.departure(c, from, now_s);
        let conflict_range = 2.0 * self.params.gamma_m;
        for i in from..self.chargers[c].len() {
            debug_assert!(!self.chargers[c][i].started, "committed stops are immutable");
            let stop_pos = self.chargers[c][i].pos;
            let duration = self.chargers[c][i].duration_s;
            let mut start = t + self.travel_s(pos, stop_pos);
            for (o, stops) in self.chargers.iter().enumerate() {
                if o == c {
                    continue;
                }
                // Stops within one tour are time-sorted: skip straight
                // to the first whose finish could still overlap.
                let lo = stops.partition_point(|s| s.finish_s <= start);
                for other in &stops[lo..] {
                    if other.start_s >= start + duration {
                        break;
                    }
                    if stop_pos.dist(other.pos) <= conflict_range && start < other.finish_s {
                        start = other.finish_s;
                    }
                }
            }
            let stop = &mut self.chargers[c][i];
            stop.start_s = start;
            stop.finish_s = start + duration;
            pos = stop.pos;
            t = stop.finish_s;
        }
    }

    /// Scores inserting `stop` at position `at` of charger `c`: the
    /// stop's projected start time plus the total delay inflicted on
    /// the successors it displaces (conflict pushes excluded — they are
    /// resolved by the retiming pass after the position is chosen).
    fn insertion_cost(&self, c: usize, at: usize, stop: &PendingStop, now_s: f64) -> f64 {
        let (prev_pos, free_at) = self.departure(c, at, now_s);
        let start = free_at + self.travel_s(prev_pos, stop.pos);
        let suffix = self.chargers[c].len() - at;
        if suffix == 0 {
            return start;
        }
        let next_pos = self.chargers[c][at].pos;
        let shift = stop.duration_s + self.travel_s(prev_pos, stop.pos)
            + self.travel_s(stop.pos, next_pos)
            - self.travel_s(prev_pos, next_pos);
        start + shift * suffix as f64
    }

    /// Splices `stop` into the tours at the position with the lowest
    /// [insertion cost](Self::insertion_cost) over every charger's tail
    /// window, retimes the edited suffix, and returns the chosen
    /// charger and the stop's scheduled start time. Counts one drift
    /// edit.
    pub fn insert_cheapest(&mut self, stop: PendingStop, now_s: f64) -> (usize, f64) {
        let mut best: Option<(f64, usize, usize)> = None; // (cost, charger, index)
        for c in 0..self.chargers.len() {
            let len = self.chargers[c].len();
            let first_open = self.chargers[c].iter().take_while(|s| s.started).count();
            let window_lo = first_open.max(len.saturating_sub(INSERT_WINDOW));
            for at in window_lo..=len {
                let cost = self.insertion_cost(c, at, &stop, now_s);
                if best.is_none_or(|(b, ..)| cost < b) {
                    best = Some((cost, c, at));
                }
            }
        }
        let (_, c, at) = best.expect("at least one charger");
        self.chargers[c].insert(
            at,
            LiveStop {
                seq: stop.seq,
                sensor: stop.sensor,
                pos: stop.pos,
                duration_s: stop.duration_s,
                admitted_at_s: stop.admitted_at_s,
                lifetime_s: stop.lifetime_s,
                start_s: 0.0,
                finish_s: 0.0,
                started: false,
            },
        );
        self.retime_from(c, at, now_s);
        self.edits_since_replan += 1;
        (c, self.chargers[c][at].start_s)
    }

    /// Appends `stop` to the end of charger `c`'s tour (full-replan
    /// rebuild path; does **not** count as drift) and returns its
    /// scheduled start time.
    pub fn append_to(&mut self, c: usize, stop: PendingStop, now_s: f64) -> f64 {
        self.chargers[c].push(LiveStop {
            seq: stop.seq,
            sensor: stop.sensor,
            pos: stop.pos,
            duration_s: stop.duration_s,
            admitted_at_s: stop.admitted_at_s,
            lifetime_s: stop.lifetime_s,
            start_s: 0.0,
            finish_s: 0.0,
            started: false,
        });
        let at = self.chargers[c].len() - 1;
        self.retime_from(c, at, now_s);
        self.chargers[c][at].start_s
    }

    /// Restores a checkpointed stop verbatim — times and started flag
    /// included, no retiming. Resume-path only; callers must append
    /// stops in their original tour order.
    pub fn restore(&mut self, c: usize, stop: LiveStop) {
        self.chargers[c].push(stop);
    }

    /// Restores a checkpointed anchor verbatim (resume path).
    pub fn restore_anchor(&mut self, c: usize, pos: Point, free_at_s: f64) {
        self.anchors[c] = (pos, free_at_s);
    }

    /// Per-charger anchors (snapshotting).
    pub fn anchors(&self) -> &[(Point, f64)] {
        &self.anchors
    }

    /// Removes and returns every unstarted stop (full re-plan intake).
    /// Committed (started) stops stay in place.
    pub fn take_unstarted(&mut self) -> Vec<LiveStop> {
        let mut taken = Vec::new();
        for stops in &mut self.chargers {
            let mut keep = Vec::with_capacity(stops.len());
            for s in stops.drain(..) {
                if s.started {
                    keep.push(s);
                } else {
                    taken.push(s);
                }
            }
            *stops = keep;
        }
        taken
    }

    /// Advances the tours to `now_s`: marks due stops started and pops
    /// completed ones (advancing the charger's anchor), returning the
    /// completions.
    pub fn complete_due(&mut self, now_s: f64) -> Vec<LiveStop> {
        let mut done = Vec::new();
        for (c, stops) in self.chargers.iter_mut().enumerate() {
            let mut popped = 0;
            while let Some(head) = stops.get_mut(popped) {
                if head.start_s <= now_s {
                    head.started = true;
                }
                if head.started && head.finish_s <= now_s {
                    self.anchors[c] = (head.pos, head.finish_s);
                    popped += 1;
                } else {
                    break;
                }
            }
            done.extend(stops.drain(..popped));
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(seq: u64, x: f64, y: f64, duration_s: f64) -> PendingStop {
        PendingStop {
            seq,
            sensor: seq as u32,
            pos: Point::new(x, y),
            duration_s,
            admitted_at_s: 0.0,
            lifetime_s: f64::INFINITY,
        }
    }

    fn tours(k: usize) -> LiveTours {
        // Speed 1 m/s, γ = 2.7 m (paper defaults) — travel time = distance.
        LiveTours::new(k, Point::ORIGIN, ChargingParams::default())
    }

    #[test]
    fn cheapest_insertion_prefers_the_nearer_tour() {
        let mut t = tours(2);
        let (c0, s0) = t.insert_cheapest(pending(1, 100.0, 0.0, 60.0), 0.0);
        let (c1, _) = t.insert_cheapest(pending(2, 0.0, 100.0, 60.0), 0.0);
        assert_ne!(c0, c1, "an idle charger beats a detour");
        assert_eq!(s0, 100.0);
        // A short stop on the way to sensor 1 splices into charger c0's
        // tour *before* it: start 50 now beats any append.
        let (c2, s2) = t.insert_cheapest(pending(3, 50.0, 0.0, 30.0), 0.0);
        assert_eq!(c2, c0);
        assert_eq!(s2, 50.0);
        assert_eq!(t.pending(), 3);
        assert_eq!(t.edits_since_replan(), 3);
    }

    #[test]
    fn retiming_shifts_the_suffix_after_a_splice() {
        let mut t = tours(1);
        t.insert_cheapest(pending(1, 100.0, 0.0, 60.0), 0.0);
        t.insert_cheapest(pending(2, 50.0, 0.0, 30.0), 0.0);
        // Tour is now depot → (50,0) → (100,0): stop 1 starts after
        // 50 travel + 30 charge + 50 more travel.
        let starts: Vec<(u64, f64)> = t.chargers().iter().flatten().map(|s| (s.seq, s.start_s)).collect();
        assert_eq!(starts, vec![(2, 50.0), (1, 130.0)]);
    }

    #[test]
    fn load_spreads_to_the_idle_charger() {
        let mut t = tours(2);
        // Sensor 2 m from a long-running stop: travel delta would pick
        // the busy charger; the latency-aware cost sends the idle one.
        t.insert_cheapest(pending(1, 10.0, 0.0, 100.0), 0.0);
        let (c2, _) = t.insert_cheapest(pending(2, 12.0, 0.0, 100.0), 0.0);
        assert_eq!(c2, 1);
    }

    #[test]
    fn conflict_rule_staggers_overlapping_disks() {
        let mut t = tours(2);
        // Two sensors 2 m apart: inside each other's 2γ = 5.4 m range,
        // served by different chargers.
        t.insert_cheapest(pending(1, 10.0, 0.0, 100.0), 0.0);
        let (c2, start2) = t.insert_cheapest(pending(2, 12.0, 0.0, 100.0), 0.0);
        assert_eq!(c2, 1);
        // Charger 0 charges (10,0) over [10, 110]; charger 1 arrives at
        // t=12 but must wait out the conflict until 110.
        assert_eq!(start2, 110.0);
    }

    #[test]
    fn completions_advance_the_anchor_and_commit_heads() {
        let mut t = tours(1);
        t.insert_cheapest(pending(1, 10.0, 0.0, 20.0), 0.0);
        t.insert_cheapest(pending(2, 20.0, 0.0, 20.0), 0.0);
        assert!(t.complete_due(5.0).is_empty(), "nothing finished yet");
        let done = t.complete_due(30.0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].seq, 1);
        assert_eq!(done[0].finish_s, 30.0);
        assert_eq!(t.anchors()[0], (Point::new(10.0, 0.0), 30.0));
        let done = t.complete_due(60.0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].seq, 2);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn started_stops_are_not_taken_for_replanning() {
        let mut t = tours(1);
        t.insert_cheapest(pending(1, 10.0, 0.0, 100.0), 0.0);
        t.insert_cheapest(pending(2, 200.0, 0.0, 50.0), 0.0);
        // At t=15 the first stop is mid-charge: committed.
        assert!(t.complete_due(15.0).is_empty());
        let taken = t.take_unstarted();
        assert_eq!(taken.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![2]);
        assert_eq!(t.pending(), 1, "the started stop stays");
        t.note_replanned();
        assert_eq!(t.edits_since_replan(), 0);
    }

    #[test]
    fn insertion_never_lands_before_a_started_stop() {
        let mut t = tours(1);
        t.insert_cheapest(pending(1, 100.0, 0.0, 100.0), 0.0);
        assert!(t.complete_due(150.0).is_empty(), "mid-charge at t=150");
        // A stop near the depot would be cheapest *before* the started
        // stop, but committed prefixes are immutable: it must go after.
        let (_, start) = t.insert_cheapest(pending(2, 1.0, 0.0, 10.0), 150.0);
        assert!(start >= 200.0, "must wait for the committed stop, got {start}");
    }
}
