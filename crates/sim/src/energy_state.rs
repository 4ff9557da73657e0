//! Runtime battery state of the MCV fleet, shared by both engines.
//!
//! [`wrsn_core::ChargerEnergyModel`] holds the physics (capacity, travel
//! cost, transfer efficiency, depot recharge rate); this module holds
//! the *state* the simulators thread through a run: per-charger residual
//! energy, depot-return instants (for idle trickle recharging), stranded
//! flags with strand locations, the fleet-wide energy ledger, and the
//! rescue pass that tows a stranded MCV home behind an energy-feasible
//! peer. Everything here is deterministic — the energy layer draws no
//! random values, so an inert model (`EnergyFleet::new` returning
//! `None`) trivially leaves runs bit-identical.

use wrsn_core::ChargerEnergyModel;

use crate::TraceEvent;

/// Mutable battery state of the whole fleet, `None`-gated like the other
/// injection layers ([`EnergyFleet::new`] returns `None` when the model
/// is inert).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct EnergyFleet {
    /// The physics, copied out of the config.
    pub model: ChargerEnergyModel,
    /// Battery level per charger, joules (zero while stranded).
    pub residual_j: Vec<f64>,
    /// Instant each charger last became free at the depot: idle trickle
    /// recharge accrues from here, and a value in the future means the
    /// charger is mid-tow or mid-refill and cannot be dispatched yet.
    pub free_at: Vec<f64>,
    /// Chargers whose battery died in the field; they stay out of
    /// service until a rescue tows them home.
    pub stranded: Vec<bool>,
    /// Depot distance of each strand location, meters (what a rescue
    /// round trip must cover).
    pub strand_dist_m: Vec<f64>,
    /// Fleet-wide ledger: energy on board at `t = 0`.
    pub initial_j: f64,
    /// Joules taken on at the depot (detours, idle trickle, post-rescue
    /// refills).
    pub recharged_j: f64,
    /// Battery drain from driving (including rescue tows), joules.
    pub traveled_j: f64,
    /// Battery drain from wireless transfer (delivered / efficiency).
    pub transfer_j: f64,
    /// Mid-tour battery exhaustions.
    pub exhaustions: usize,
    /// Depot recharge stops (mid-tour detours and post-rescue refills;
    /// idle trickle is energy-accounted but not counted here).
    pub depot_recharges: usize,
    /// Rescue tows dispatched.
    pub rescues: usize,
    /// Stops dropped by energy-aware tour splitting because a full
    /// battery cannot cover them (each is re-queued, never lost).
    pub dropped_stops: usize,
}

impl EnergyFleet {
    /// Fresh full-battery state for `k` chargers; `None` when the model
    /// is inert so callers skip the whole energy path.
    pub fn new(model: &ChargerEnergyModel, k: usize) -> Option<Self> {
        if !model.is_active() {
            return None;
        }
        Some(EnergyFleet {
            model: *model,
            residual_j: vec![model.capacity_j; k],
            free_at: vec![0.0; k],
            stranded: vec![false; k],
            strand_dist_m: vec![0.0; k],
            initial_j: model.capacity_j * k as f64,
            recharged_j: 0.0,
            traveled_j: 0.0,
            transfer_j: 0.0,
            exhaustions: 0,
            depot_recharges: 0,
            rescues: 0,
            dropped_stops: 0,
        })
    }

    /// True when charger `c` can be dispatched at `now`: not stranded
    /// and done with any tow or refill in progress.
    pub fn in_service(&self, c: usize, now: f64) -> bool {
        !self.stranded[c] && self.free_at[c] <= now
    }

    /// Earliest future instant an out-of-service charger re-enters
    /// service *on its own* (a tow or refill completing). Stranded
    /// chargers never do — they wait for a rescue.
    pub fn next_in_service_at(&self, now: f64) -> Option<f64> {
        self.free_at
            .iter()
            .zip(&self.stranded)
            .filter(|&(&f, &s)| !s && f > now)
            .map(|(&f, _)| f)
            .fold(None, |acc: Option<f64>, f| Some(acc.map_or(f, |a| a.min(f))))
    }

    /// Depot trickle: tops up every docked charger for the time it has
    /// sat idle since returning, capped at capacity, and moves its
    /// `free_at` to `now`. Idle top-ups count toward the `recharged_j`
    /// ledger but not toward `depot_recharges` (they are not detours).
    pub fn accrue_idle(&mut self, now: f64) {
        for c in 0..self.residual_j.len() {
            if self.stranded[c] || self.free_at[c] >= now {
                continue;
            }
            let credit = ((now - self.free_at[c]) * self.model.recharge_w)
                .min(self.model.capacity_j - self.residual_j[c])
                .max(0.0);
            self.residual_j[c] += credit;
            self.recharged_j += credit;
            self.free_at[c] = now;
        }
    }

    /// Marks charger `c` stranded `dist_m` meters from the depot with a
    /// dead battery.
    pub fn strand(&mut self, c: usize, dist_m: f64) {
        self.stranded[c] = true;
        self.strand_dist_m[c] = dist_m;
        self.residual_j[c] = 0.0;
        self.exhaustions += 1;
    }

    /// Rescue pass (no-op unless the model enables it): for each
    /// stranded charger, lowest index first, the richest in-service peer
    /// whose battery covers the tow round trip (and that `fault_ok`
    /// reports as not broken down) drives out and tows it home. The
    /// rescuer is busy for the round trip; the towed charger refills to
    /// capacity at the depot and re-enters service when the refill
    /// completes. Events are stamped at the dispatch instant `now` (the
    /// refill's completion is visible as the towed charger's `free_at`).
    pub fn attempt_rescues(
        &mut self,
        now: f64,
        speed_mps: f64,
        fault_available_at: Option<&[f64]>,
        tracing: bool,
        buf: &mut Vec<TraceEvent>,
    ) {
        if !self.model.rescue || !self.stranded.iter().any(|&s| s) {
            return;
        }
        self.accrue_idle(now);
        for c in 0..self.stranded.len() {
            if !self.stranded[c] {
                continue;
            }
            let need = 2.0 * self.strand_dist_m[c] * self.model.travel_j_per_m;
            let mut best: Option<usize> = None;
            for r in 0..self.residual_j.len() {
                if r == c
                    || !self.in_service(r, now)
                    || !fault_available_at.is_none_or(|a| a[r] <= now)
                    || self.residual_j[r] + 1e-9 < need
                {
                    continue;
                }
                best = match best {
                    Some(b) if self.residual_j[b] >= self.residual_j[r] => Some(b),
                    _ => Some(r),
                };
            }
            let Some(r) = best else { continue };
            let tow_s = if speed_mps > 0.0 { 2.0 * self.strand_dist_m[c] / speed_mps } else { 0.0 };
            self.residual_j[r] -= need;
            self.traveled_j += need;
            self.free_at[r] = now + tow_s;
            let deficit = self.model.capacity_j - self.residual_j[c];
            self.residual_j[c] = self.model.capacity_j;
            self.recharged_j += deficit;
            self.stranded[c] = false;
            self.strand_dist_m[c] = 0.0;
            self.free_at[c] = now + tow_s + self.model.recharge_time_s(deficit);
            self.rescues += 1;
            self.depot_recharges += 1;
            if tracing {
                buf.push(TraceEvent::RescueDispatched { at_s: now, rescuer: r, stranded: c });
                buf.push(TraceEvent::DepotRecharge {
                    at_s: now,
                    charger: c,
                    recharged_j: deficit,
                });
            }
        }
    }

    /// Energy still on board across the fleet, joules.
    pub fn residual_total_j(&self) -> f64 {
        self.residual_j.iter().sum()
    }

    /// Chargers currently stranded in the field.
    pub fn stranded_count(&self) -> usize {
        self.stranded.iter().filter(|&&s| s).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ChargerEnergyModel {
        ChargerEnergyModel {
            capacity_j: 1_000.0,
            travel_j_per_m: 1.0,
            transfer_efficiency: 1.0,
            recharge_w: 100.0,
            rescue: true,
        }
    }

    #[test]
    fn inert_model_yields_no_state() {
        assert!(EnergyFleet::new(&ChargerEnergyModel::default(), 3).is_none());
    }

    #[test]
    fn idle_trickle_caps_at_capacity_and_ledgers() {
        let mut ef = EnergyFleet::new(&model(), 2).unwrap();
        ef.residual_j[0] = 100.0;
        ef.free_at[0] = 10.0;
        ef.accrue_idle(14.0); // 4 s · 100 W = 400 J
        assert!((ef.residual_j[0] - 500.0).abs() < 1e-9);
        assert!((ef.recharged_j - 400.0).abs() < 1e-9);
        assert_eq!(ef.free_at[0], 14.0);
        // Charger 1 is full: no credit, but its clock still advances.
        assert_eq!(ef.residual_j[1], 1_000.0);
        ef.accrue_idle(1_000.0);
        assert!(ef.residual_j[0] <= 1_000.0 + 1e-9);
    }

    #[test]
    fn rescue_picks_richest_feasible_peer() {
        let mut ef = EnergyFleet::new(&model(), 3).unwrap();
        ef.strand(0, 100.0); // needs 200 J for the tow round trip
        ef.residual_j[1] = 150.0; // infeasible
        ef.residual_j[2] = 900.0;
        let mut buf = Vec::new();
        // Dispatch at t = 0 so the depot trickle has had no time to top
        // the staged residuals back up.
        ef.attempt_rescues(0.0, 1.0, None, true, &mut buf);
        assert_eq!(ef.rescues, 1);
        assert!(!ef.stranded[0]);
        assert!((ef.residual_j[2] - 700.0).abs() < 1e-9);
        assert_eq!(ef.free_at[2], 200.0);
        // Towed charger refills from empty: capacity / recharge rate.
        assert_eq!(ef.residual_j[0], 1_000.0);
        assert_eq!(ef.free_at[0], 200.0 + 10.0);
        assert_eq!(ef.depot_recharges, 1);
        assert_eq!(buf.len(), 2);
        // Ledger: tow travel and the refill are both accounted.
        assert!((ef.traveled_j - 200.0).abs() < 1e-9);
        assert!((ef.recharged_j - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn rescue_waits_when_no_peer_is_feasible() {
        let mut ef = EnergyFleet::new(&model(), 2).unwrap();
        ef.strand(0, 100.0);
        ef.residual_j[1] = 150.0;
        ef.free_at[1] = 0.0;
        let mut buf = Vec::new();
        ef.attempt_rescues(0.0, 1.0, None, true, &mut buf);
        assert_eq!(ef.rescues, 0);
        assert!(ef.stranded[0]);
        assert!(buf.is_empty());
        // Trickle eventually makes the peer feasible.
        ef.attempt_rescues(10.0, 1.0, None, false, &mut buf);
        assert_eq!(ef.rescues, 1, "idle trickle must enable the rescue");
    }

    #[test]
    fn rescue_respects_fault_availability() {
        let mut ef = EnergyFleet::new(&model(), 2).unwrap();
        ef.strand(0, 10.0);
        let in_repair = vec![f64::INFINITY, 100.0];
        let mut buf = Vec::new();
        ef.attempt_rescues(50.0, 1.0, Some(&in_repair), false, &mut buf);
        assert_eq!(ef.rescues, 0, "a broken-down charger cannot tow");
        ef.attempt_rescues(150.0, 1.0, Some(&in_repair), false, &mut buf);
        assert_eq!(ef.rescues, 1);
    }

    #[test]
    fn service_and_wakeup_accounting() {
        let mut ef = EnergyFleet::new(&model(), 3).unwrap();
        ef.free_at[1] = 500.0;
        ef.strand(2, 5.0);
        assert!(ef.in_service(0, 100.0));
        assert!(!ef.in_service(1, 100.0));
        assert!(!ef.in_service(2, 100.0));
        assert_eq!(ef.next_in_service_at(100.0), Some(500.0));
        assert_eq!(ef.next_in_service_at(600.0), None);
        assert_eq!(ef.stranded_count(), 1);
    }
}
