//! The longest-charge-delay minimization problem and the paper's
//! approximation algorithm.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Xu et al., ICDCS 2019):
//!
//! - [`ChargingProblem`]: the scheduling instance — a depot, `K` mobile
//!   charging vehicles (MCVs), and the set `V_s` of lifetime-critical
//!   sensors with their charging durations `t_v` (Eq. 1). Coverage sets
//!   `N_c⁺(v)` and the bound `τ(v)` (Eq. 2) are precomputed here.
//! - [`ProblemContext`]: the shared memoized geometry behind every
//!   instance — pairwise/depot distances, `N_c⁺(v)` and the charging
//!   graph `G_c`, built lazily once and reused by planners, validators
//!   and the simulators (including across simulation rounds via
//!   [`ProblemContext::subcontext`]).
//! - [`Schedule`] / [`ChargerTour`] / [`Sojourn`]: the output — one
//!   closed tour per MCV with per-sojourn arrival, charging start and
//!   duration.
//! - [`validate_schedule`]: the one checker of Definition 1. It lists
//!   every violation: a requested sensor left uncovered or undercharged,
//!   inconsistent tour times, and above all **a sensor inside two
//!   active charging disks at once** — the paper's critical constraint.
//!   [`Schedule::certify`] reports the first violation of that list.
//! - [`conflict`]: the coverage-overlap predicate behind the auxiliary
//!   graph `H`, and a wait-based repair pass that turns any schedule
//!   into a certified-conflict-free one by idling MCVs.
//! - [`energy`]: the finite-charger-energy extension — battery
//!   capacity, travel cost, transfer efficiency, depot recharging —
//!   with energy-aware tour splitting ([`split_schedule`]) and exact
//!   execution ledgers ([`execute_tour_energy`]). Inert by default.
//! - [`Appro`]: Algorithm 1 — MIS of the charging graph, MIS of `H`,
//!   min–max `K`-tour cover of the conflict-free core, then
//!   finish-time-ordered insertion of the remaining sojourn candidates.
//! - [`Planner`]: the trait all planners (Appro and the baselines in
//!   `wrsn-baselines`) implement, so experiments treat them uniformly.
//!
//! # Example
//!
//! ```
//! use wrsn_core::{Appro, ChargingProblem, Planner, PlannerConfig};
//! use wrsn_net::{InitialCharge, NetworkBuilder};
//!
//! let net = NetworkBuilder::new(150)
//!     .seed(1)
//!     .initial_charge(InitialCharge::UniformFraction { lo: 0.05, hi: 0.5 })
//!     .build();
//! let requests = net.default_requesting_sensors();
//! let problem = ChargingProblem::from_network(&net, &requests, 2)?;
//! let schedule = Appro::new(PlannerConfig::default()).plan(&problem)?;
//! schedule.certify(&problem)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod appro;
pub mod bounds;
pub mod conflict;
mod context;
pub mod energy;
mod fallback;
mod planner;
mod problem;
pub mod reduction;
pub mod render;
mod schedule;
pub mod shard;
pub mod stats;
pub mod svg;
mod validate;

pub use appro::Appro;
pub use context::{ContextError, ContextMode, ProblemContext, DEFAULT_DENSE_LIMIT};
pub use energy::{
    execute_tour_energy, split_schedule, ChargerEnergyModel, SplitSchedule, TourEnergyOutcome,
    TourEnergyPlan,
};
pub use fallback::{plan_with_fallback, GreedyTour};
pub use planner::{InsertionOrder, PlanError, Planner, PlannerConfig};
pub use problem::{ChargingParams, ChargingProblem, ChargingTarget, ProblemError};
pub use schedule::{ChargerTour, Schedule, Sojourn};
pub use shard::{ShardAudit, ShardInfo, ShardedPlanner};
pub use validate::{validate_schedule, ScheduleViolation};
