//! Discrete-event simulation of a WRSN served by mobile chargers.
//!
//! The paper's Figures 3(b), 4(b) and 5(b) report the *average dead
//! duration per sensor* over a one-year monitoring period `T_M`: sensors
//! drain continuously (at the rates fixed by the routing tree), request
//! charging below a 20 % threshold, and the base station repeatedly
//! dispatches the `K` MCVs on tours produced by a
//! [`Planner`](wrsn_core::Planner). A sensor whose battery empties is
//! *dead* until a charger refills it; that dead time is what the
//! simulator accounts.
//!
//! Both simulators run on one kernel that owns the network, the
//! optional injection layers (charger faults, request channel,
//! telemetry, topology churn, charger energy), the service ledger,
//! dead-time accounting and the trace. Draining and dead-time
//! accounting are internal to that kernel: one pass over the sensors
//! per event drains them and accounts dead time, and an index of the
//! instants at which sensors will cross the request threshold finds
//! the next crossing without another pass. Tour execution is a kernel
//! step too: a dispatched tour wears its charger's operating life and
//! replays its battery the same way under either policy. The
//! simulators differ only in their dispatch policy (documented in
//! `DESIGN.md` §19):
//!
//! - [`Simulation`], the round barrier behind the paper's per-round
//!   metrics: requests accumulate while chargers are away; a round is
//!   dispatched when all in-service MCVs are at the depot and at least
//!   `batch_fraction · n` sensors are pending (the paper leaves the
//!   dispatch policy implicit; the batch rule reproduces its regime of
//!   large request sets and hour-scale tours); every requested sensor
//!   is recharged at its completion time from the schedule replay while
//!   all sensors keep draining; the next round may dispatch as soon as
//!   the longest tour returns. It alone checkpoints and resumes
//!   ([`Snapshot`]).
//! - [`AsyncSimulation`], §III-B's per-charger reading: whenever a
//!   charger is home and requests are pending, it leaves with its own
//!   tour over a fair share of them.
//!
//! # Example
//!
//! ```
//! use wrsn_core::{Appro, PlannerConfig};
//! use wrsn_net::NetworkBuilder;
//! use wrsn_sim::{SimConfig, Simulation};
//!
//! let net = NetworkBuilder::new(100).seed(5).build();
//! let mut config = SimConfig::default();
//! config.horizon_s = 30.0 * 24.0 * 3600.0; // one month, for the example
//! let report = Simulation::new(net, config)?
//!     .run(&Appro::new(PlannerConfig::default()), 2)?;
//! assert!(report.rounds_dispatched() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod async_engine;
mod channel;
mod churn;
mod energy_state;
mod engine;
mod fault;
pub mod fleet;
mod kernel;
pub mod persist;
mod report;
mod snapshot;
mod telemetry;
pub mod trace;

pub use async_engine::AsyncSimulation;
pub use channel::ChannelModel;
pub use churn::ChurnModel;
pub use engine::{SimConfig, SimConfigError, Simulation};
pub use fault::FaultModel;
pub use report::{RoundStats, SimReport};
pub use snapshot::{Snapshot, SnapshotError};
pub use telemetry::{EnergyEstimator, TelemetryModel};
pub use trace::{IngressRejectReason, Trace, TraceEvent};
