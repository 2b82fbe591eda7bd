//! Simulation harness: the paper's "emulation" (§7.1).
//!
//! Binds the pure SafeHome engine to virtual devices, the ping-based
//! failure detector, a failure-injection plan and a submission schedule,
//! then runs the whole thing to quiescence over the discrete-event queue,
//! producing a [`safehome_types::trace::Trace`] from which every §7.1
//! metric is computed.
//!
//! The harness is deterministic: equal [`RunSpec`]s (including the seed)
//! produce identical traces.
//!
//! The execution logic itself lives in [`runtime::HomeRuntime`], the
//! backend-independent mediation layer shared with the kasa real-time
//! runner: [`runtime::Backend`] abstracts clock + device I/O, and
//! [`sim::SimBackend`] is the discrete-event implementation
//! ([`Driver`] = `HomeRuntime<SimBackend, S>`).
//!
//! Two entry points: [`run`] drives one spec to quiescence and returns
//! its full trace; [`fleet::run_fleet`] spreads many independent homes
//! across worker threads, which claim them from one shared cursor, with
//! counters-only sinks for fleet-scale throughput.
//! [`service::run_service`] keeps every home resident and advances them
//! in epoch slices popped from one shared timer wheel, optionally
//! evicting cold homes down to their runtime core and a world snapshot.
//!
//! Pre-run validation: [`fleet::run_fleet_gated`] accepts a
//! caller-supplied gate that inspects each [`RunSpec`] before anything
//! executes (the canonical gate is
//! `safehome-lint`'s Error-severity check, which lives above this crate
//! in the dependency graph). Gating never perturbs an accepted run.
//!
//! Durability: [`sim::Driver::with_journal`] records the append-only
//! execution journal, [`HomeRuntime::crash`] simulates a controller
//! death, and [`journal::recover`] rebuilds the core purely by replay —
//! see [`journal`] for the crash/recovery semantics.

pub mod fleet;
pub mod intra;
pub mod journal;
pub mod runtime;
pub mod service;
pub mod sim;
pub mod spec;

pub use fleet::{
    home_seed, run_fleet, run_fleet_gated, FleetResult, HomeRun, SpecRejection, WorkerStats,
};
pub use intra::{
    build_sub_specs, merge_sub_runs, run_clustered, spec_decomposable, HomePartition, IntraPlanner,
    SubRun, SubRunLog,
};
pub use journal::{recover, InflightWrite, Recovered, RecoveryReport, ReplayBackend};
pub use runtime::{Backend, CommandOutcome, HomeRuntime, HomeTables, Polled, RuntimeCore, Step};
pub use service::{run_service, run_service_with, ServiceConfig, ServiceResult};
pub use sim::{run, Driver, RunOutput, SimBackend};
pub use spec::{Arrival, RunSpec, Submission};
