//! The four benchmark workloads: how each builds its inputs from the
//! seed, which runner drives it, and the correctness check every run
//! applies.
//!
//! All four use the EV/Timeline morning catalog
//! ([`FleetTemplate::morning`]), a 10 s service epoch and stealing on.
//! Arrivals are open-loop in simulated time (fixed schedules drawn from
//! the seed), so the load never waits for the system; wall-clock work
//! runs as fast as it can over a fixed input size.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use safehome_core::{EngineConfig, VisibilityModel};
use safehome_devices::FailurePlan;
use safehome_harness::{
    home_seed, run_fleet, run_service_with, Driver, HomeRun, IntraPlanner, RunSpec, ServiceConfig,
    ServiceResult,
};
use safehome_lint::cluster;
use safehome_types::sink::RunCounters;
use safehome_types::{DeviceId, TimeDelta, Timestamp};
use safehome_workloads::{
    neighborhood_home, service_home, zoned_home, FleetTemplate, NeighborhoodParams,
    NeighborhoodPlan, ServiceParams, ZoneParams,
};

/// Service epoch slice of every service workload.
const EPOCH: TimeDelta = TimeDelta::from_secs(10);
/// Seed of the fleet-wide draws: the neighborhood outage plan and the
/// burst windows. They are part of a workload's shape, not of the run
/// seed: a few storm-center homes cost ~25× a calm one, and drawing
/// them per seed swung throughput by ±40% between seeds. `--seed`
/// varies every home's schedule, wiring, jitter and failures.
const SHAPE_SEED: u64 = 0x5afe_0a11;
/// The unhealthy cohort of `service_day` as `(home, device)`: each of
/// these homes loses one moderately used device five minutes in and
/// keeps it dead all day, and runs a fixed schedule whatever the seed.
/// Aborts on a long history cost 10–20× a healthy home, so a random
/// unhealthy draw (the 1-in-8 of `service_home`) made one seed 3× slower
/// than the next; a fixed cohort keeps that cost in the workload at a
/// steady size. One pair sits in each half of the fleet, one per
/// worker's shard.
const DAY_COHORT: [(usize, u32); 4] = [(0, 0), (12, 10), (24, 16), (36, 27)];
/// Every `CHECK_STRIDE`-th home of an untraced run is re-run alone on a
/// plain sequential driver and must match the runner byte for byte.
pub const CHECK_STRIDE: usize = 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Short 29-routine morning homes with correlated outages on the
    /// batch executor (`run_fleet`): spec building on the workers,
    /// detector probes, aborts and rollback; no slicing, journal or lint.
    NeighborhoodBatch,
    /// Long-resident homes over a whole simulated day on the service
    /// runner: per-event cost that grows with history, plus slice, wheel
    /// and steal overhead. No journal, no lint.
    ServiceDay,
    /// A calm fleet under a resident budget: cold homes are evicted to
    /// their journals and rebuilt by replay. The only journal workload.
    ServiceEvict,
    /// Zoned workshops among light service homes with the lint cluster
    /// planner installed: the only workload that plans, runs cluster
    /// sub-drivers and merges them.
    WorkshopIntra,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::NeighborhoodBatch,
        Workload::ServiceDay,
        Workload::ServiceEvict,
        Workload::WorkshopIntra,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NeighborhoodBatch => "neighborhood_batch",
            Workload::ServiceDay => "service_day",
            Workload::ServiceEvict => "service_evict",
            Workload::WorkshopIntra => "workshop_intra",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Homes at full scale. Sized so one repetition takes 2–6 s on one
    /// core and every workload finishes at least 10,000 routines (the
    /// floor for an honest p999).
    pub fn homes(self) -> usize {
        match self {
            Workload::NeighborhoodBatch => 2048,
            Workload::ServiceDay => 48,
            Workload::ServiceEvict => 160,
            Workload::WorkshopIntra => 32,
        }
    }

    /// Length of the arrival window in simulated time.
    pub fn horizon(self) -> TimeDelta {
        match self {
            // The morning scenario's submission window.
            Workload::NeighborhoodBatch => TimeDelta::from_mins(25),
            Workload::ServiceDay => TimeDelta::from_mins(24 * 60),
            Workload::ServiceEvict => TimeDelta::from_mins(12 * 60),
            Workload::WorkshopIntra => TimeDelta::from_mins(2 * 60),
        }
    }

    /// `true` when the workload runs on the service runner.
    pub fn is_service(self) -> bool {
        self != Workload::NeighborhoodBatch
    }
}

/// Per-workload generator state.
enum Shape {
    Neighborhood(NeighborhoodPlan),
    /// Healthy homes plus the unhealthy cohort of [`DAY_COHORT`].
    Day(ServiceParams),
    /// Healthy homes only.
    Calm(ServiceParams),
    Workshop {
        service: ServiceParams,
        zones: ZoneParams,
    },
}

/// A workload's fleet-wide inputs: everything `make_spec` needs besides
/// each home's seed. Building it and every home's spec is the
/// benchmark's set-up.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// Homes in the fleet.
    pub homes: usize,
    template: FleetTemplate,
    shape: Shape,
}

impl Inputs {
    /// Inputs of `workload` at `homes` homes. Each home's spec comes
    /// from its seed, which the runner derives from the fleet seed.
    pub fn new(workload: Workload, homes: usize) -> Self {
        let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
        let horizon = workload.horizon();
        let shape = match workload {
            Workload::NeighborhoodBatch => Shape::Neighborhood(NeighborhoodPlan::generate(
                SHAPE_SEED,
                homes,
                &NeighborhoodParams::default(),
            )),
            Workload::ServiceDay => {
                Shape::Day(ServiceParams::new(horizon, 60).with_bursts_from_seed(SHAPE_SEED, 2))
            }
            Workload::ServiceEvict => Shape::Calm(ServiceParams::new(horizon, 6)),
            Workload::WorkshopIntra => Shape::Workshop {
                service: ServiceParams::new(horizon, 30),
                zones: ZoneParams::new(6, horizon, 1000),
            },
        };
        Inputs {
            workload,
            homes,
            template,
            shape,
        }
    }

    /// Home `home`'s spec from its derived seed (the runners'
    /// `make_spec` callback).
    pub fn spec(&self, home: usize, seed: u64) -> RunSpec {
        match &self.shape {
            Shape::Neighborhood(plan) => neighborhood_home(&self.template, plan, home, seed),
            Shape::Day(params) => match DAY_COHORT.iter().find(|c| c.0 == home) {
                Some(&(_, device)) => {
                    let mut spec =
                        service_home(&self.template, params, home_seed(SHAPE_SEED, home as u64));
                    spec.failures =
                        FailurePlan::none().fail(DeviceId(device), Timestamp::from_secs(300));
                    spec
                }
                None => healthy(service_home(&self.template, params, seed)),
            },
            Shape::Calm(params) => healthy(service_home(&self.template, params, seed)),
            // Every fourth home is a six-zone workshop.
            Shape::Workshop { service, zones } => {
                if home.is_multiple_of(4) {
                    zoned_home(self.template.config().clone(), zones, seed)
                } else {
                    service_home(&self.template, service, seed)
                }
            }
        }
    }

    /// The service configuration, `None` for the batch workload.
    fn service_config(&self, hooks: &Arc<Hooks>) -> Option<ServiceConfig> {
        let config = ServiceConfig::new(EPOCH);
        match self.workload {
            Workload::NeighborhoodBatch => None,
            Workload::ServiceDay => Some(config),
            Workload::ServiceEvict => Some(config.with_max_resident((self.homes / 8).max(1))),
            Workload::WorkshopIntra => Some(config.with_intra_home(timed_planner(hooks))),
        }
    }
}

/// `spec` without the failure plan `service_home` may have drawn.
fn healthy(mut spec: RunSpec) -> RunSpec {
    spec.failures = FailurePlan::none();
    spec
}

/// Which runner callback a [`Call`] timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// A `make_spec` callback.
    SpecBuild,
    /// An intra-home planner callback.
    Plan,
}

/// One timed callback invocation, in ns since [`Hooks::start`].
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// What was called.
    pub kind: CallKind,
    /// The home it was called for.
    pub home: usize,
    /// Benchmark-local id of the calling thread.
    pub tid: u64,
    /// Entry time.
    pub start_ns: u64,
    /// Return time.
    pub end_ns: u64,
    /// Clusters of the returned split (planner calls that split only).
    pub clusters: usize,
}

/// Timing hooks around one runner call's callbacks. Every run tracks
/// when the last set-up callback returned; traced runs also keep every
/// call.
pub struct Hooks {
    /// When the runner was called.
    pub start: Instant,
    setup_end_ns: AtomicU64,
    /// Time inside planner calls.
    plan_ns: AtomicU64,
    /// Planner calls so far: the service runner plans serially in home
    /// order, so this is also the planned home's index.
    plans: AtomicUsize,
    calls: Option<Mutex<Vec<Call>>>,
}

impl Hooks {
    fn new(traced: bool) -> Self {
        Hooks {
            start: Instant::now(),
            setup_end_ns: AtomicU64::new(0),
            plan_ns: AtomicU64::new(0),
            plans: AtomicUsize::new(0),
            calls: traced.then(|| Mutex::new(Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn returned(&self, kind: CallKind, home: usize, start_ns: u64, clusters: usize) {
        let end_ns = self.now_ns();
        self.setup_end_ns.fetch_max(end_ns, Ordering::Relaxed);
        if kind == CallKind::Plan {
            self.plan_ns.fetch_add(end_ns - start_ns, Ordering::Relaxed);
        }
        if let Some(calls) = &self.calls {
            calls.lock().expect("no call recorder panics").push(Call {
                kind,
                home,
                tid: thread_id(),
                start_ns,
                end_ns,
                clusters,
            });
        }
    }

    /// Every recorded call (empty for untraced runs).
    pub fn calls(&self) -> Vec<Call> {
        self.calls
            .as_ref()
            .map(|c| c.lock().expect("no call recorder panics").clone())
            .unwrap_or_default()
    }
}

/// A small dense id for the calling thread (trace-file `tid`).
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// `cluster::plan`, timed through `hooks`.
fn timed_planner(hooks: &Arc<Hooks>) -> IntraPlanner {
    let hooks = Arc::clone(hooks);
    Arc::new(move |spec: &RunSpec| {
        let start_ns = hooks.now_ns();
        let plan = cluster::plan(spec);
        let home = hooks.plans.fetch_add(1, Ordering::Relaxed);
        let clusters = plan.as_ref().map_or(0, |p| p.clusters.len());
        hooks.returned(CallKind::Plan, home, start_ns, clusters);
        plan
    })
}

/// One runner call and what it returned.
pub struct RunnerRun {
    /// Per-home results, in home order.
    pub homes: Vec<HomeRun>,
    /// Wall time of the whole runner call.
    pub wall_s: f64,
    /// The set-up part of the call: until the last `make_spec` or
    /// planner callback returned. The batch runner builds each spec on
    /// demand between homes, so it has none.
    pub setup_in_call_s: f64,
    /// Time inside planner callbacks.
    pub plan_s: f64,
    /// The service runner's result (with `homes` moved out), `None` for
    /// the batch runner.
    pub service: Option<ServiceResult>,
    /// The callback timings.
    pub hooks: Arc<Hooks>,
}

impl RunnerRun {
    /// Routines that finished (committed or aborted).
    pub fn finished(&self) -> u64 {
        self.homes
            .iter()
            .map(|h| h.counters.committed + h.counters.aborted)
            .sum()
    }

    /// Finished routines per second of runner wall time outside set-up.
    pub fn routines_per_s(&self) -> f64 {
        self.finished() as f64 / (self.wall_s - self.setup_in_call_s)
    }

    /// Split homes the service runner had to re-run sequentially.
    pub fn intra_fallbacks(&self) -> u64 {
        self.service.as_ref().map_or(0, |s| s.intra_fallbacks)
    }
}

/// Runs the whole fleet once on its runner with `workers` threads.
pub fn run(inputs: &Inputs, fleet_seed: u64, workers: usize, traced: bool) -> RunnerRun {
    let hooks = Arc::new(Hooks::new(traced));
    let config = inputs.service_config(&hooks);
    let make_spec = |home: usize, seed: u64| {
        let start_ns = hooks.now_ns();
        let spec = inputs.spec(home, seed);
        hooks.returned(CallKind::SpecBuild, home, start_ns, 0);
        spec
    };
    let (homes, service) = match config {
        None => (
            run_fleet(inputs.homes, workers, fleet_seed, make_spec).homes,
            None,
        ),
        Some(config) => {
            let mut r = run_service_with(inputs.homes, workers, fleet_seed, config, make_spec);
            (std::mem::take(&mut r.homes), Some(r))
        }
    };
    let wall_s = hooks.start.elapsed().as_secs_f64();
    let setup_in_call_s = if service.is_some() {
        hooks.setup_end_ns.load(Ordering::Relaxed) as f64 / 1e9
    } else {
        0.0
    };
    RunnerRun {
        homes,
        wall_s,
        setup_in_call_s,
        plan_s: hooks.plan_ns.load(Ordering::Relaxed) as f64 / 1e9,
        service,
        hooks,
    }
}

/// Home `home` run alone to quiescence on a plain sequential driver:
/// the reference every runner result must equal.
pub fn sequential_home(inputs: &Inputs, fleet_seed: u64, home: usize) -> HomeRun {
    let seed = home_seed(fleet_seed, home as u64);
    let (counters, completed) = run_alone(&inputs.spec(home, seed));
    HomeRun {
        home,
        seed,
        completed,
        counters,
    }
}

/// Drives `spec` to quiescence on a plain sequential driver; returns its
/// counters and whether it quiesced.
pub fn run_alone(spec: &RunSpec) -> (RunCounters, bool) {
    let mut driver = Driver::with_sink(spec, RunCounters::new());
    let completed = driver.run_to_quiescence();
    let (counters, _, _) = driver.into_output();
    (counters, completed)
}

/// Homes of `run` that fail the correctness check: a home that did not
/// quiesce, or — for every `stride`-th home — one whose result differs
/// from [`sequential_home`]. Intra-home fallbacks count as failures too.
pub fn failed_homes(inputs: &Inputs, fleet_seed: u64, run: &RunnerRun, stride: usize) -> u64 {
    let mut bad: BTreeSet<usize> = (0..inputs.homes)
        .filter(|&h| run.homes.get(h).is_none_or(|r| r.home != h || !r.completed))
        .collect();
    for home in (0..inputs.homes).step_by(stride) {
        if run.homes.get(home) != Some(&sequential_home(inputs, fleet_seed, home)) {
            bad.insert(home);
        }
    }
    bad.len() as u64 + run.intra_fallbacks()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn tiny_runs_of_every_workload_pass_the_check() {
        for w in Workload::ALL {
            let homes = if w == Workload::NeighborhoodBatch {
                48
            } else {
                8
            };
            let inputs = Inputs::new(w, homes);
            let run = run(&inputs, 7, 2, false);
            assert_eq!(run.homes.len(), homes, "{}", w.name());
            assert!(run.finished() > 0, "{}", w.name());
            assert_eq!(failed_homes(&inputs, 7, &run, 1), 0, "{}", w.name());
            if w == Workload::WorkshopIntra {
                let split = run.service.as_ref().map_or(0, |s| s.intra_homes);
                assert_eq!(split, 2, "both workshops split");
            }
        }
    }
}
