//! # ss-sim
//!
//! A small, deterministic discrete-event simulation kernel, standing in for
//! the CSIM simulation language the paper used.
//!
//! The kernel is split into four independent pieces:
//!
//! * [`engine`] — the event loop: a [`engine::Simulation`] owns a model (any
//!   type implementing [`engine::Model`]), a clock, and a time-ordered event
//!   queue with FIFO tie-breaking, so runs are exactly reproducible.
//! * [`rng`] — a splittable, seedable random-number generator
//!   ([`rng::DeterministicRng`], xoshiro256++) whose streams are derived
//!   from string labels, so adding a consumer never perturbs other streams.
//! * [`dist`] — the random distributions the paper's workload needs, most
//!   importantly the truncated geometric popularity distribution of §4.1,
//!   backed by a Walker alias table for O(1) sampling.
//! * [`stats`] — counters, Welford tallies, time-weighted averages and
//!   histograms used to build the experiment reports.
//! * [`trace`] — a bounded, timestamped event ring for post-mortem
//!   debugging of misbehaving runs.
//! * [`faults`] — deterministic disk fault injection: a seed-driven
//!   [`faults::FaultPlan`] compiled to a concrete, sorted
//!   [`faults::FaultTimeline`] before the run starts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod engine;
pub mod faults;
pub mod rng;
pub mod stats;
pub mod trace;

pub use dist::{AliasTable, Exponential, TruncatedGeometric, Zipf};
pub use engine::{Context, Model, Simulation};
pub use faults::{
    CrashEvent, CrashFaults, CrashKind, CrashPlanEvent, FaultEvent, FaultKind, FaultPlan,
    FaultTimeline, RebuildWindow, StochasticFaults,
};
pub use rng::DeterministicRng;
pub use stats::{BatchMeans, Counter, Histogram, Tally, TimeWeighted};
pub use trace::Trace;
