//! Resident-fleet service runner: time-sliced open-loop execution over
//! one shared timer wheel, with eviction of cold homes.
//!
//! [`fleet::run_fleet`](crate::fleet::run_fleet) is a batch driver: a
//! worker picks a home, runs it to quiescence, and only then picks the
//! next. That is the right shape for throughput experiments, but a
//! serving deployment looks different — every home stays *resident* for
//! the whole day, and traffic arrives open-loop, so no single home may
//! monopolize a worker while the rest fall behind.
//!
//! [`run_service`] keeps every home alive at once and advances them in
//! **epoch slices**: all workers share one timer wheel ([`EventQueue`])
//! of `(next-event-time, unit)` entries. A worker pops the earliest
//! entry, advances that unit only through events due before the next
//! epoch boundary, then re-parks it at its next pending event. A home
//! with an hour-long gap costs nothing during the gap; a home in a
//! burst gets exactly one epoch of attention before its neighbours run.
//!
//! # One shared wheel
//!
//! Each worker builds a contiguous range of homes on its own thread (so
//! their simulator state comes from that thread's pool), parks them on
//! the wheel, and waits at a barrier until every home is parked. From
//! then on any idle worker takes the globally earliest slice, whichever
//! worker built its unit, so a skewed fleet (a few burst-heavy "giant
//! factory" homes) never stalls one worker while the others idle.
//! [`ServiceResult::steals`] counts the slices a worker ran for a unit
//! another worker built.
//!
//! # Determinism
//!
//! Which worker runs a slice cannot perturb results because each home's
//! slice sequence is an intrinsic function of the home alone. A slice
//! pops a unit, runs it up to the next absolute epoch boundary **after
//! the unit's own earliest pending event**, and re-parks it at its next
//! event: both the boundary and the re-park time come from the unit's
//! private event queue, never from the wheel's clock. The wheel is
//! purely an advisory scheduler — concurrent pops can clamp a re-parked
//! entry's *wheel* timestamp forward ([`EventQueue`] never schedules in
//! its past), which may reorder slices *between* homes, but homes share
//! no state, so per-home counters, digests and even the total slice
//! count are byte-identical across worker counts and any interleaving
//! (asserted by tests here and by `tests/service_equivalence.rs`).
//!
//! # Eviction: keep the controller, shed the world
//!
//! With [`ServiceConfig::max_resident`] set, the runner bounds how many
//! homes keep their pooled simulator state hot. Between slices, a parked
//! home that is *cold* — engine quiescent, nothing pending but future
//! workload submissions, no failure plan — may be **evicted**. Its
//! runtime core (engine, sink, deferral and submission tables) is kept
//! whole, boxed; its world shrinks to a [`WorldSnapshot`] of device
//! states, RNG position and pending submissions, drained from the queue
//! in pop order; and its queue and device storage go back to the thread
//! pool ([`SimBackend::into_world_snapshot`]). When the home's next
//! timer fires, the popping worker brings it back with
//! [`SimBackend::resurrect`] and [`HomeRuntime::resume`]: devices and RNG
//! restored, the drained submissions re-scheduled in the same order.
//! The queue pops by time, then insertion order, so the continuation is
//! event-for-event that of a never-evicted run, and bringing a home
//! back costs nothing that grows with its history. `After` chains evict
//! too: a released dependent is a pending submission like any other,
//! and an unreleased one waits in the kept core's deferral table.
//!
//! Nothing is journaled here, so an evicted home is no longer durable on
//! its own: it lives in this process's memory like a resident home, only
//! smaller. Surviving a controller crash is the journal's job
//! ([`crate::journal`]), which this runner does not use.
//!
//! Whenever the fleet-wide resident count exceeds the budget, the parked
//! candidate whose next event lies farthest ahead goes first. Any victim
//! order yields byte-identical results; the order only decides how often
//! homes come back. Homes that are not cold simply stay resident, so the
//! true bound is `max_resident` plus however many homes are warm at the
//! same instant (mid-routine across an epoch boundary, carrying a
//! failure plan, or in a worker's hand): on a calm fleet that is a
//! handful, in a fleet-wide burst it can transiently be most of the
//! fleet.
//!
//! Latency accounting: routine finish latencies are drained after every
//! slice into a constant-memory [`LatencyHistogram`] per worker, merged
//! at the end — the service path can observe p50/p99/p999 over millions
//! of submissions without ever holding the fleet's raw samples in one
//! vector. An evicted home keeps its sink, so its drain cursor stays
//! valid across eviction.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use safehome_sim::EventQueue;
use safehome_types::sink::{self, RunCounters, TraceSink};
use safehome_types::{LatencyHistogram, TimeDelta, Timestamp};

use crate::fleet::{home_seed, HomeRun, WorkerStats};
use crate::intra::{
    build_sub_specs, merge_sub_runs, HomePartition, IntraPlanner, SubRun, SubRunLog,
};
use crate::runtime::{HomeRuntime, RuntimeCore, Step};
use crate::sim::{Driver, SimBackend, WorldSnapshot};
use crate::spec::RunSpec;

/// Tuning knobs of the resident service runner. None of them may change
/// per-home results — that is the runner's core contract — only *where*
/// and *with how much resident state* the work happens.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Epoch slice length: slice boundaries are absolute simulated-time
    /// multiples of this.
    pub epoch: TimeDelta,
    /// Fleet-wide resident-home budget. `Some(n)` evicts cold parked
    /// homes whenever more than `n` are resident (see the module docs);
    /// `None` (the default) keeps every home hot.
    pub max_resident: Option<usize>,
    /// Intra-home parallelism planner. `Some` asks it to partition each
    /// home into conflict clusters ([`crate::intra`]); a home it splits
    /// runs as independent sub-slices — each cluster its own schedulable
    /// unit on the wheel, run by whichever worker pops it — and is
    /// folded back into one byte-identical [`RunCounters`] when its last
    /// cluster finishes. Homes the planner declines (or that later trip
    /// a fallback, e.g. a stalled sub-run) take the sequential path.
    /// The canonical planner is `safehome_lint::cluster::planner()`,
    /// injected as a callback for the same layering reason as the lint
    /// spec gate.
    pub intra_home: Option<IntraPlanner>,
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("epoch", &self.epoch)
            .field("max_resident", &self.max_resident)
            .field("intra_home", &self.intra_home.as_ref().map(|_| "<planner>"))
            .finish()
    }
}

impl ServiceConfig {
    /// No eviction, no intra-home splitting — the default service shape.
    pub fn new(epoch: TimeDelta) -> Self {
        ServiceConfig {
            epoch,
            max_resident: None,
            intra_home: None,
        }
    }

    /// Builder-style resident budget.
    pub fn with_max_resident(mut self, max_resident: usize) -> Self {
        self.max_resident = Some(max_resident);
        self
    }

    /// Builder-style intra-home planner.
    pub fn with_intra_home(mut self, planner: IntraPlanner) -> Self {
        self.intra_home = Some(planner);
        self
    }
}

/// Aggregated result of a resident service run.
///
/// The per-home payload is the same [`HomeRun`] the batch fleet driver
/// produces — that is the point: the two paths are comparable field for
/// field, digest for digest.
#[derive(Clone)]
pub struct ServiceResult {
    /// Per-home results, sorted by home index.
    pub homes: Vec<HomeRun>,
    /// Worker threads used.
    pub workers: usize,
    /// Epoch slice length the run was driven at.
    pub epoch: TimeDelta,
    /// Merged latency histogram over every finished routine in the
    /// fleet (same samples as the per-home `latencies_ms` vectors).
    pub latency: LatencyHistogram,
    /// Total `(pop, advance, re-park)` slices executed. Deterministic —
    /// slice boundaries are absolute simulated-time multiples of the
    /// epoch derived from each home's own event queue, so the count
    /// depends only on the fleet and the epoch, never on the worker
    /// count or eviction.
    pub slices: u64,
    /// Per-worker scheduling stats (slices run, steals, homes finished).
    /// Scheduling-dependent — informational only, never compare across
    /// runs.
    pub worker_stats: Vec<WorkerStats>,
    /// Cold homes evicted: runtime core kept, world reduced to a
    /// [`WorldSnapshot`] (0 without `max_resident`).
    pub evictions: u64,
    /// Evicted homes brought back when their next timer fired: a fresh
    /// backend rebuilt from the snapshot, resumed with the kept core.
    pub recoveries: u64,
    /// Most homes ever simultaneously resident (holding pooled simulator
    /// state). Without eviction this is simply the fleet size.
    pub peak_resident_homes: usize,
    /// Approximate heap bytes one *resident* home pins (largest observed
    /// sample: event-queue buckets and slab + device slots).
    pub approx_resident_home_bytes: usize,
    /// Approximate heap bytes one *evicted* home retains (largest
    /// observed sample: the kept runtime core — engine history, sink
    /// vectors, tables — plus the world snapshot). 0 when nothing was
    /// evicted.
    pub approx_evicted_home_bytes: usize,
    /// Homes the intra-home planner split and the runner merged back
    /// from per-cluster sub-runs (0 without a planner).
    pub intra_homes: u64,
    /// Split homes whose merge declined (a sub-run stalled) and that
    /// were re-run sequentially. Should be 0 in practice — the planner's
    /// gate filters what the merge cannot handle — so benches hard-gate
    /// on it.
    pub intra_fallbacks: u64,
}

impl ServiceResult {
    /// Total routines submitted across the fleet (the offered load).
    pub fn offered(&self) -> u64 {
        self.homes.iter().map(|h| h.counters.submitted).sum()
    }

    /// Total committed routines across the fleet.
    pub fn committed(&self) -> u64 {
        self.homes.iter().map(|h| h.counters.committed).sum()
    }

    /// Total aborted routines across the fleet.
    pub fn aborted(&self) -> u64 {
        self.homes.iter().map(|h| h.counters.aborted).sum()
    }

    /// Routines that reached a terminal outcome (committed or aborted).
    pub fn finished(&self) -> u64 {
        self.committed() + self.aborted()
    }

    /// `true` when every home reached quiescence.
    pub fn all_completed(&self) -> bool {
        self.homes.iter().all(|h| h.completed)
    }

    /// Order-sensitive digest over the per-home digests; comparable
    /// directly against [`FleetResult::digest`](crate::FleetResult::digest)
    /// for the same fleet.
    pub fn digest(&self) -> u64 {
        self.homes.iter().fold(sink::DIGEST_SEED, |acc, h| {
            sink::fold_digest(acc, h.counters.digest)
        })
    }

    /// Slices a worker ran for a unit another worker built
    /// (scheduling-dependent; always 0 with one worker).
    pub fn steals(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.steals).sum()
    }
}

/// Runs `homes` resident homes across `workers` threads in epoch slices
/// of `epoch` simulated time, with eviction and intra-home splitting off
/// (the [`ServiceConfig::new`] defaults — see [`run_service_with`]).
///
/// `make_spec(home, seed)` builds each home's spec from its derived
/// seed ([`home_seed`]), exactly as for the batch fleet driver; equal
/// inputs give per-home results byte-identical to
/// [`run_fleet`](crate::fleet::run_fleet).
pub fn run_service<F>(
    homes: usize,
    workers: usize,
    fleet_seed: u64,
    epoch: TimeDelta,
    make_spec: F,
) -> ServiceResult
where
    F: Fn(usize, u64) -> RunSpec + Sync,
{
    run_service_with(
        homes,
        workers,
        fleet_seed,
        ServiceConfig::new(epoch),
        make_spec,
    )
}

/// One schedulable unit: a whole home, or one conflict cluster of a
/// home the intra-home planner split. Units are what the wheel parks
/// and pops — a split home's clusters run on different workers
/// independently, which is the whole point: a heavy home stops being one
/// indivisible lump of work.
#[derive(Debug, Clone, Copy)]
struct UnitMeta {
    home: usize,
    /// `None`: the whole home. `Some(c)`: cluster `c` of its partition.
    cluster: Option<usize>,
    /// The worker that builds the unit (see [`ServiceResult::steals`]).
    built_by: usize,
}

/// One unit's slot: its execution state plus the per-home latency drain
/// cursor, which survives eviction with the sink it indexes.
struct HomeSlot<'a> {
    cell: Cell<'a>,
    drained: usize,
    /// Statically evictable: eviction enabled and no failure plan (hence
    /// no probe loops or injections). The dynamic half — quiescent, only
    /// future submissions pending — is re-checked at every park. Always
    /// `false` for cluster units: a split home stays hot until its merge.
    evictable_spec: bool,
}

enum Cell<'a> {
    /// Transient placeholder during construction and state swaps.
    Vacant,
    // Boxed: the live runtime dominates the enum (~1.5 KiB vs the
    // ~400 B terminal variants); the indirection keeps the per-home
    // slot vector small once homes finish or evict.
    Live(Box<Driver<'a, RunCounters>>),
    /// A cluster sub-driver of a split home, recording its sink-call
    /// stream for the merge.
    LiveSub(Box<Driver<'a, SubRunLog>>),
    Evicted(EvictedHome<'a>),
    /// A finished cluster sub-run, waiting for its siblings.
    FinishedSub(Box<SubRun>),
    Finished {
        // Boxed for the same reason as `Live`: terminal counters carry
        // the full latency vector, dwarfing `Vacant`/`Evicted`.
        counters: Box<RunCounters>,
        completed: bool,
    },
}

/// An evicted home: its whole controller, kept, beside the snapshot of
/// its world at rest. Only the event queue and the device storage are
/// gone, back in the thread pool.
struct EvictedHome<'a> {
    // Boxed: the core is most of a live home's inline size, and the
    // slot vector holds one cell per unit.
    core: Box<RuntimeCore<'a, RunCounters>>,
    world: WorldSnapshot,
}

impl<'a> EvictedHome<'a> {
    /// Evicts a driver that [`is_cold`] and has no failure plan.
    fn evict(d: Driver<'a, RunCounters>) -> Self {
        let HomeRuntime { core, backend } = d;
        EvictedHome {
            core: Box::new(core),
            world: backend.into_world_snapshot(),
        }
    }

    /// Brings the home back: a backend rebuilt from the snapshot, bound
    /// to the kept core.
    fn resume(self, spec: &'a RunSpec) -> Driver<'a, RunCounters> {
        HomeRuntime::resume(*self.core, SimBackend::resurrect(spec, self.world))
    }

    /// Approximate heap bytes the evicted home retains. Every part counts
    /// its containers by `len` or `capacity`, so the cost does not grow
    /// with the home's history.
    fn approx_bytes(&self) -> usize {
        self.core.approx_bytes() + self.world.approx_bytes()
    }
}

/// The dynamic half of evictability: engine quiescent and nothing
/// pending but future workload submissions.
fn is_cold(d: &Driver<'_, RunCounters>) -> bool {
    d.engine().quiescent() && d.backend().only_submits_pending()
}

/// The runner's shared scheduling state.
#[derive(Default)]
struct Scheduler {
    /// Timer wheel of parked units, shared by every worker.
    wheel: EventQueue<usize>,
    /// Parked units currently satisfying the full evictability
    /// condition, keyed by eviction score — `last` is the best victim.
    /// Kept exactly in sync with `scores` below: every mutation goes
    /// through [`Self::park_candidate`] / [`Self::unpark_candidate`],
    /// which compact a unit's previous entry on re-park, so a unit has
    /// at most one live entry and an entry can never outlive a pop or
    /// an eviction race (entries used to linger when an evicted home's
    /// concurrent re-park re-inserted it; consumers still re-validate
    /// under the slot lock before acting, as the wheel pop itself can
    /// race the claim).
    parked: BTreeSet<(u64, usize)>,
    /// Side index: unit → its current score key in `parked`. The single
    /// source of truth for membership, enabling removal by unit alone.
    scores: BTreeMap<usize, u64>,
}

impl Scheduler {
    /// Registers (or refreshes) a parked eviction candidate, compacting
    /// any stale entry the unit left behind.
    fn park_candidate(&mut self, unit: usize, score: u64) {
        if let Some(old) = self.scores.insert(unit, score) {
            self.parked.remove(&(old, unit));
        }
        self.parked.insert((score, unit));
    }

    /// Withdraws a unit's candidate entry (pop or eviction claim).
    /// `false` when it had none — the usual race outcome.
    fn unpark_candidate(&mut self, unit: usize) -> bool {
        match self.scores.remove(&unit) {
            Some(score) => self.parked.remove(&(score, unit)),
            None => false,
        }
    }

    /// The highest-scored candidate, if any.
    fn best_victim(&self) -> Option<(u64, usize)> {
        self.parked.last().copied()
    }
}

/// Shared run context: everything the workers touch. Lock order: a
/// worker holds at most one slot lock and the scheduler lock, and only
/// ever acquires the scheduler lock *while holding* a slot lock (the
/// re-park path) — never the reverse — so there is no cycle.
struct ServiceCtx<'a> {
    specs: &'a [RunSpec],
    /// Per home: the cluster sub-specs when the planner split it
    /// (empty otherwise).
    sub_specs: &'a [Vec<RunSpec>],
    /// Per home: the planner's partition, `None` for sequential homes.
    partitions: &'a [Option<HomePartition>],
    /// All schedulable units, grouped by home (`home_units[h]` indexes
    /// a contiguous range of `units`/`slots`).
    units: Vec<UnitMeta>,
    home_units: Vec<Range<usize>>,
    /// Per home: unfinished cluster units; the worker that takes it to
    /// zero performs the merge. Unused for sequential homes.
    pending_units: Vec<AtomicUsize>,
    sched: Mutex<Scheduler>,
    slots: Vec<Mutex<HomeSlot<'a>>>,
    epoch_ms: u64,
    max_resident: Option<usize>,
    /// Unfinished units; workers exit when it hits zero.
    live: AtomicUsize,
    resident: AtomicUsize,
    peak_resident: AtomicUsize,
    evictions: AtomicU64,
    recoveries: AtomicU64,
    intra_homes: AtomicU64,
    intra_fallbacks: AtomicU64,
    resident_bytes: AtomicUsize,
    evicted_bytes: AtomicUsize,
    barrier: Barrier,
}

impl<'a> ServiceCtx<'a> {
    fn note_resident(&self) {
        let now = self.resident.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_resident.fetch_max(now, Ordering::SeqCst);
    }

    /// The spec a unit executes: the home's own, or its cluster's
    /// projection.
    fn unit_spec(&self, unit: usize) -> &'a RunSpec {
        let meta = self.units[unit];
        match meta.cluster {
            None => &self.specs[meta.home],
            Some(c) => &self.sub_specs[meta.home][c],
        }
    }

    /// Parks `unit` on the wheel at its next event. An `evictable` unit
    /// also becomes an eviction candidate, scored (higher = better
    /// victim) by that next-event time, so the coldest home goes first.
    fn park(&self, unit: usize, next: Timestamp, evictable: bool) {
        let mut sched = self.sched.lock().expect("scheduler");
        sched.wheel.schedule(next, unit);
        if evictable {
            sched.park_candidate(unit, next.as_millis());
        }
    }

    /// Pops the earliest parked unit, withdrawing its eviction
    /// candidacy.
    fn pop(&self) -> Option<usize> {
        let mut sched = self.sched.lock().expect("scheduler");
        let (_, unit) = sched.wheel.pop()?;
        sched.unpark_candidate(unit);
        Some(unit)
    }
}

/// [`run_service`] with explicit eviction and intra-home knobs.
pub fn run_service_with<F>(
    homes: usize,
    workers: usize,
    fleet_seed: u64,
    config: ServiceConfig,
    make_spec: F,
) -> ServiceResult
where
    F: Fn(usize, u64) -> RunSpec + Sync,
{
    let workers = workers.clamp(1, homes.max(1));
    let make_spec = &make_spec;
    let seeds: Vec<u64> = (0..homes)
        .map(|home| home_seed(fleet_seed, home as u64))
        .collect();

    // Phase 1 — build the specs, in parallel over the same contiguous
    // near-equal split the workers later build their homes over. Spec
    // construction is pure in (home, seed), so the split is a
    // throughput detail.
    let bounds: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * homes / workers, (w + 1) * homes / workers))
        .collect();
    let specs: Vec<RunSpec> = if workers == 1 {
        (0..homes)
            .map(|home| make_spec(home, seeds[home]))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .iter()
                .map(|&(lo, hi)| {
                    let seeds = &seeds;
                    scope.spawn(move || {
                        (lo..hi)
                            .map(|home| make_spec(home, seeds[home]))
                            .collect::<Vec<RunSpec>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("service spec builder panicked"))
                .collect()
        })
    };

    // Phase 1.5 — intra-home planning: ask the planner (when installed)
    // to partition each home into conflict clusters, and project the
    // split homes' specs. Planning is pure in the spec, so this changes
    // no results — only the unit granularity below.
    let partitions: Vec<Option<HomePartition>> = match &config.intra_home {
        None => vec![None; homes],
        Some(planner) => specs
            .iter()
            .map(|spec| planner(spec).filter(HomePartition::is_split))
            .collect(),
    };
    let sub_specs: Vec<Vec<RunSpec>> = specs
        .iter()
        .zip(&partitions)
        .map(|(spec, p)| match p {
            Some(p) => build_sub_specs(spec, p),
            None => Vec::new(),
        })
        .collect();
    let mut units = Vec::with_capacity(homes);
    let mut home_units = Vec::with_capacity(homes);
    for (home, p) in partitions.iter().enumerate() {
        let built_by = bounds.partition_point(|&(_, hi)| hi <= home);
        let start = units.len();
        match p {
            Some(p) => units.extend((0..p.clusters.len()).map(|c| UnitMeta {
                home,
                cluster: Some(c),
                built_by,
            })),
            None => units.push(UnitMeta {
                home,
                cluster: None,
                built_by,
            }),
        }
        home_units.push(start..units.len());
    }

    let ctx = ServiceCtx {
        slots: units
            .iter()
            .map(|meta| {
                let spec = &specs[meta.home];
                Mutex::new(HomeSlot {
                    cell: Cell::Vacant,
                    drained: 0,
                    evictable_spec: meta.cluster.is_none()
                        && config.max_resident.is_some()
                        && spec.failures.is_empty(),
                })
            })
            .collect(),
        pending_units: home_units
            .iter()
            .map(|r| AtomicUsize::new(r.len()))
            .collect(),
        live: AtomicUsize::new(units.len()),
        units,
        home_units,
        specs: &specs,
        sub_specs: &sub_specs,
        partitions: &partitions,
        sched: Mutex::new(Scheduler::default()),
        epoch_ms: config.epoch.as_millis().max(1),
        max_resident: config.max_resident,
        resident: AtomicUsize::new(0),
        peak_resident: AtomicUsize::new(0),
        evictions: AtomicU64::new(0),
        recoveries: AtomicU64::new(0),
        intra_homes: AtomicU64::new(0),
        intra_fallbacks: AtomicU64::new(0),
        resident_bytes: AtomicUsize::new(0),
        evicted_bytes: AtomicUsize::new(0),
        barrier: Barrier::new(workers),
    };

    // Phase 2 — resident execution.
    let outputs: Vec<(LatencyHistogram, WorkerStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let ctx = &ctx;
                let bounds = &bounds;
                scope.spawn(move || service_worker(ctx, w, bounds[w]))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service worker panicked"))
            .collect()
    });

    let mut result = ServiceResult {
        homes: Vec::with_capacity(homes),
        workers,
        epoch: config.epoch,
        latency: LatencyHistogram::new(),
        slices: 0,
        worker_stats: Vec::with_capacity(workers),
        evictions: ctx.evictions.load(Ordering::SeqCst),
        recoveries: ctx.recoveries.load(Ordering::SeqCst),
        peak_resident_homes: ctx.peak_resident.load(Ordering::SeqCst),
        approx_resident_home_bytes: ctx.resident_bytes.load(Ordering::SeqCst),
        approx_evicted_home_bytes: ctx.evicted_bytes.load(Ordering::SeqCst),
        intra_homes: ctx.intra_homes.load(Ordering::SeqCst),
        intra_fallbacks: ctx.intra_fallbacks.load(Ordering::SeqCst),
    };
    for (hist, stats) in outputs {
        result.latency.merge(&hist);
        result.slices += stats.slices_run;
        result.worker_stats.push(stats);
    }
    // A home's terminal counters live in its *primary* unit slot (its
    // only unit, or cluster 0 — where the merging worker parked them).
    let home_units = ctx.home_units.clone();
    let mut slots: Vec<Option<HomeSlot>> = ctx
        .slots
        .into_iter()
        .map(|s| Some(s.into_inner().expect("no worker holds a slot now")))
        .collect();
    for (home, range) in home_units.iter().enumerate() {
        let slot = slots[range.start].take().expect("primary slot present");
        match slot.cell {
            Cell::Finished {
                counters,
                completed,
            } => result.homes.push(HomeRun {
                home,
                seed: seeds[home],
                completed,
                counters: *counters,
            }),
            _ => unreachable!("home {home} did not reach a terminal state"),
        }
    }
    result
}

/// One worker: builds its own contiguous range of homes, then pops
/// slices off the shared wheel until every unit has finished.
fn service_worker<'a>(
    ctx: &ServiceCtx<'a>,
    w: usize,
    (lo, hi): (usize, usize),
) -> (LatencyHistogram, WorkerStats) {
    let mut stats = WorkerStats::default();
    let mut hist = LatencyHistogram::new();

    for home in lo..hi {
        for unit in ctx.home_units[home].clone() {
            let meta = ctx.units[unit];
            let spec = ctx.unit_spec(unit);
            if meta.cluster.is_some() {
                // A cluster sub-driver: traced (funnel log + pop-segmented
                // sink) so the finishing worker can merge the home back
                // byte-identically. Never evictable — split homes stay
                // hot until their merge.
                let d = Driver::with_sink_traced(spec, SubRunLog::new());
                let next = d.backend().next_event_at().unwrap_or(Timestamp::ZERO);
                ctx.slots[unit].lock().expect("slot").cell = Cell::LiveSub(Box::new(d));
                ctx.note_resident();
                ctx.park(unit, next, false);
                continue;
            }
            let d = Driver::with_sink(spec, RunCounters::new());
            if home == lo {
                ctx.resident_bytes
                    .fetch_max(d.backend().approx_resident_bytes(), Ordering::SeqCst);
            }
            let next = d.backend().next_event_at().unwrap_or(Timestamp::ZERO);
            let evictable = {
                let mut slot = ctx.slots[unit].lock().expect("slot");
                let evictable = slot.evictable_spec && is_cold(&d);
                slot.cell = Cell::Live(Box::new(d));
                evictable
            };
            ctx.note_resident();
            ctx.park(unit, next, evictable);
            // Evict-at-birth keeps even the construction phase inside the
            // budget: a fresh home is already cold (nothing submitted
            // yet), so it can be evicted before its first slice.
            evict_over_budget(ctx);
        }
    }

    // Every home parked before anyone pops.
    ctx.barrier.wait();

    loop {
        match ctx.pop() {
            Some(unit) => {
                stats.steals += u64::from(ctx.units[unit].built_by != w);
                run_slice(ctx, unit, &mut stats, &mut hist);
                evict_over_budget(ctx);
            }
            None => {
                if ctx.live.load(Ordering::Acquire) == 0 {
                    break;
                }
                // Every remaining home is mid-slice on another worker;
                // its re-park (or finish) is imminent.
                std::thread::yield_now();
            }
        }
    }
    (hist, stats)
}

/// Advances one epoch slice: runs `d` through every event strictly
/// before the next absolute epoch boundary after its own earliest
/// pending event. Never derive that boundary from the wheel's popped
/// timestamp: concurrent pops may have clamped it forward, and slice
/// structure must stay a property of the unit and the epoch grid alone.
///
/// Returns `Some(next_event)` when the unit should re-park, `None` when
/// it reached a terminal state. (A unit that could already report
/// quiescence but still holds an immaterial probe event parks at most
/// once more — its next slice's first step resolves to done without
/// popping the probe.)
fn advance_slice<S: TraceSink>(d: &mut Driver<'_, S>, epoch_ms: u64) -> Option<Timestamp> {
    let end = match d.backend().next_event_at() {
        Some(next) => Timestamp::from_millis((next.as_millis() / epoch_ms + 1) * epoch_ms),
        None => Timestamp::ZERO, // first step observes quiescence
    };
    loop {
        if d.is_done() {
            return None;
        }
        match d.backend().next_event_at() {
            Some(next) if next >= end => return Some(next),
            _ => match d.step() {
                Step::Event(_) | Step::Idle => {}
                Step::Quiescent | Step::Stalled => return None,
            },
        }
    }
}

/// Runs one epoch slice of `unit`, resuming it first if it was
/// evicted.
fn run_slice<'a>(
    ctx: &ServiceCtx<'a>,
    unit: usize,
    stats: &mut WorkerStats,
    hist: &mut LatencyHistogram,
) {
    let meta = ctx.units[unit];
    if meta.cluster.is_some() {
        return run_sub_slice(ctx, unit, stats, hist);
    }
    let mut slot = ctx.slots[unit].lock().expect("slot");
    let slot = &mut *slot;
    let evictable_spec = slot.evictable_spec;

    if matches!(slot.cell, Cell::Evicted(_)) {
        let Cell::Evicted(ev) = std::mem::replace(&mut slot.cell, Cell::Vacant) else {
            unreachable!()
        };
        slot.cell = Cell::Live(Box::new(ev.resume(&ctx.specs[meta.home])));
        ctx.recoveries.fetch_add(1, Ordering::SeqCst);
        ctx.note_resident();
    }
    stats.slices_run += 1;

    let Cell::Live(d) = &mut slot.cell else {
        unreachable!("popped unit {unit} is neither live nor evicted")
    };
    if let Some(next) = advance_slice(d, ctx.epoch_ms) {
        ctx.park(unit, next, evictable_spec && is_cold(d));
    }

    if d.is_done() {
        let Cell::Live(d) = std::mem::replace(&mut slot.cell, Cell::Vacant) else {
            unreachable!()
        };
        let (counters, _, completed) = d.into_output();
        // Catch any samples recorded after the home's last drain.
        for &ms in &counters.latencies_ms[slot.drained..] {
            hist.record(ms);
        }
        slot.drained = counters.latencies_ms.len();
        slot.cell = Cell::Finished {
            counters: Box::new(counters),
            completed,
        };
        ctx.resident.fetch_sub(1, Ordering::SeqCst);
        stats.homes_run += 1;
        ctx.live.fetch_sub(1, Ordering::Release);
    } else {
        // Progressive latency drain: only the routines that finished in
        // this slice, so worker memory stays flat over the horizon.
        let finished = &d.sink().latencies_ms;
        for &ms in &finished[slot.drained..] {
            hist.record(ms);
        }
        slot.drained = finished.len();
    }
}

/// Runs one epoch slice of a cluster sub-unit: same slice discipline as
/// a whole home, recording sink, never evicted. The worker that
/// finishes the home's last cluster performs the merge — after this
/// unit's slot lock is released, since the merge relocks every sibling
/// slot (including, possibly, this one).
fn run_sub_slice<'a>(
    ctx: &ServiceCtx<'a>,
    unit: usize,
    stats: &mut WorkerStats,
    hist: &mut LatencyHistogram,
) {
    stats.slices_run += 1;
    let finished = {
        let mut slot = ctx.slots[unit].lock().expect("slot");
        let Cell::LiveSub(d) = &mut slot.cell else {
            unreachable!("popped cluster unit {unit} is not a live sub-driver")
        };
        match advance_slice(d, ctx.epoch_ms) {
            Some(next) => {
                ctx.park(unit, next, false);
                false
            }
            None => {
                let Cell::LiveSub(mut d) = std::mem::replace(&mut slot.cell, Cell::Vacant) else {
                    unreachable!()
                };
                let funnel = d.backend_mut().take_funnel_log();
                let (log, _, completed) = d.into_output();
                slot.cell = Cell::FinishedSub(Box::new(SubRun {
                    log,
                    funnel,
                    completed,
                }));
                ctx.resident.fetch_sub(1, Ordering::SeqCst);
                true
            }
        }
    };
    if finished {
        let home = ctx.units[unit].home;
        let remaining = ctx.pending_units[home].fetch_sub(1, Ordering::SeqCst) - 1;
        if remaining == 0 {
            merge_home(ctx, home, stats, hist);
        }
        ctx.live.fetch_sub(1, Ordering::Release);
    }
}

/// Folds a split home's finished sub-runs back into the one
/// [`RunCounters`] the sequential path would have produced, parking it
/// in the home's primary unit slot. Runs on whichever worker finished
/// the last cluster. If the merge declines (a sub-run stalled — the
/// planner's gate makes that exceptional), the home is re-run
/// sequentially from scratch: slower, never wrong.
fn merge_home<'a>(
    ctx: &ServiceCtx<'a>,
    home: usize,
    stats: &mut WorkerStats,
    hist: &mut LatencyHistogram,
) {
    let range = ctx.home_units[home].clone();
    let mut subs = Vec::with_capacity(range.len());
    for u in range.clone() {
        let mut slot = ctx.slots[u].lock().expect("slot");
        let Cell::FinishedSub(sr) = std::mem::replace(&mut slot.cell, Cell::Vacant) else {
            unreachable!("sibling unit {u} of merged home {home} is not a finished sub-run")
        };
        subs.push(*sr);
    }
    let spec = &ctx.specs[home];
    let partition = ctx.partitions[home]
        .as_ref()
        .expect("merged home has a partition");
    let (counters, completed) = match merge_sub_runs(spec, partition, subs) {
        Some(counters) => {
            ctx.intra_homes.fetch_add(1, Ordering::SeqCst);
            (counters, true)
        }
        None => {
            ctx.intra_fallbacks.fetch_add(1, Ordering::SeqCst);
            let mut d = Driver::with_sink(spec, RunCounters::new());
            let completed = d.run_to_quiescence();
            let (counters, _, _) = d.into_output();
            (counters, completed)
        }
    };
    // Split homes drain latencies only here, all at once: sub-runs
    // record no samples (their sink is the call log), and the merged
    // counters rebuild the exact sequential latency vector.
    for &ms in &counters.latencies_ms {
        hist.record(ms);
    }
    let mut slot = ctx.slots[range.start].lock().expect("slot");
    slot.drained = counters.latencies_ms.len();
    slot.cell = Cell::Finished {
        counters: Box::new(counters),
        completed,
    };
    stats.homes_run += 1;
}

/// Evicts best-scored candidate first (see [`ServiceCtx::park`]) while
/// the fleet-wide resident count exceeds the budget. The claimed
/// candidate is re-validated under its slot lock: a wheel pop can race
/// the claim.
fn evict_over_budget(ctx: &ServiceCtx<'_>) {
    let Some(max) = ctx.max_resident else { return };
    while ctx.resident.load(Ordering::SeqCst) > max {
        let unit = {
            let mut sched = ctx.sched.lock().expect("scheduler");
            let Some((_, unit)) = sched.best_victim() else {
                return;
            };
            sched.unpark_candidate(unit);
            unit
        };
        let mut slot = ctx.slots[unit].lock().expect("slot");
        let still_cold = match &slot.cell {
            Cell::Live(d) => !d.is_done() && is_cold(d),
            _ => false,
        };
        if !still_cold {
            continue;
        }
        let Cell::Live(d) = std::mem::replace(&mut slot.cell, Cell::Vacant) else {
            unreachable!()
        };
        ctx.resident_bytes
            .fetch_max(d.backend().approx_resident_bytes(), Ordering::SeqCst);
        let evicted = EvictedHome::evict(*d);
        ctx.evicted_bytes
            .fetch_max(evicted.approx_bytes(), Ordering::SeqCst);
        slot.cell = Cell::Evicted(evicted);
        ctx.resident.fetch_sub(1, Ordering::SeqCst);
        ctx.evictions.fetch_add(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::run_fleet;
    use crate::spec::{Arrival, Submission};
    use safehome_core::{EngineConfig, VisibilityModel};
    use safehome_devices::catalog::plug_home;
    use safehome_devices::FailurePlan;
    use safehome_sim::SimRng;
    use safehome_types::{DeviceId, Routine, Value};

    /// An open-loop-shaped home: arrivals spread over a long, sparse
    /// horizon (exercising the wheel's outer levels), and a seeded
    /// minority of homes carry a fail-stop plan (exercising probe
    /// events and aborts under slicing, and pinning such homes resident
    /// under eviction).
    fn service_shaped_home(_: usize, seed: u64) -> RunSpec {
        let mut spec = evictable_home(0, seed);
        let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        if rng.next_u64().is_multiple_of(4) {
            spec.failures =
                FailurePlan::random_fail_stop(4, 0.3, Timestamp::from_millis(3_600_000), &mut rng);
        }
        spec
    }

    /// The failure-free variant: every home satisfies the static half of
    /// the evictability condition.
    fn evictable_home(_: usize, seed: u64) -> RunSpec {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut spec =
            RunSpec::new(plug_home(4), EngineConfig::new(VisibilityModel::ev())).with_seed(seed);
        let n = 3 + (rng.next_u64() % 4) as usize;
        for i in 0..n {
            let mut b = Routine::builder(format!("r{i}"));
            for j in 0..2u32 {
                b = b.set(
                    DeviceId((i as u32 + j) % 4),
                    Value::ON,
                    TimeDelta::from_millis(50),
                );
            }
            // Sparse arrivals over ~2 hours: most epochs are empty for
            // most homes, the resident runner's natural habitat.
            spec.submit(Submission::at(
                b.build(),
                Timestamp::from_millis(rng.next_u64() % (2 * 3_600_000)),
            ));
        }
        // Burn the draw the failure branch of `service_shaped_home` once
        // consumed, keeping legacy schedules unchanged.
        let _ = rng.next_u64();
        spec
    }

    /// A decomposable "factory" home: independent 3-device zones, fixed
    /// latency, no failures, absolute arrivals — everything the
    /// intra-home gate wants. Routines never cross zones.
    fn zoned_home(zones: usize, seed: u64) -> RunSpec {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut spec = RunSpec::new(
            plug_home(zones * 3),
            EngineConfig::new(VisibilityModel::ev()),
        )
        .with_seed(seed);
        spec.latency = safehome_devices::LatencyModel::Fixed(TimeDelta::from_millis(25));
        for z in 0..zones {
            let n = 2 + (rng.next_u64() % 3) as usize;
            for i in 0..n {
                let base = (z * 3) as u32;
                let r = Routine::builder(format!("z{z}r{i}"))
                    .set(
                        DeviceId(base + (i as u32) % 3),
                        Value::ON,
                        TimeDelta::from_millis(40 + rng.next_u64() % 100),
                    )
                    .set(
                        DeviceId(base + (i as u32 + 1) % 3),
                        Value::OFF,
                        TimeDelta::from_millis(30),
                    )
                    .build();
                spec.submit(Submission::at(
                    r,
                    Timestamp::from_millis(rng.next_u64() % 600_000),
                ));
            }
        }
        spec
    }

    /// A hand-rolled planner with the same rule as `safehome-lint`'s
    /// cluster analysis (which lives above this crate): union on shared
    /// footprint device or `After` edge, gated on the harness
    /// preconditions.
    fn test_planner() -> crate::intra::IntraPlanner {
        std::sync::Arc::new(|spec: &RunSpec| {
            if !crate::intra::spec_decomposable(spec) {
                return None;
            }
            let n = spec.submissions.len();
            let mut root: Vec<usize> = (0..n).collect();
            fn find(root: &mut [usize], mut x: usize) -> usize {
                while root[x] != x {
                    root[x] = root[root[x]];
                    x = root[x];
                }
                x
            }
            let mut owner: std::collections::BTreeMap<DeviceId, usize> = Default::default();
            for i in 0..n {
                for d in spec.submissions[i].routine.devices() {
                    let j = *owner.entry(d).or_insert(i);
                    let (a, b) = (find(&mut root, i), find(&mut root, j));
                    root[a.max(b)] = a.min(b);
                }
                if let Arrival::After { index, .. } = spec.submissions[i].arrival {
                    let (a, b) = (find(&mut root, i), find(&mut root, index));
                    root[a.max(b)] = a.min(b);
                }
            }
            let mut clusters: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
            for i in 0..n {
                let r = find(&mut root, i);
                clusters.entry(r).or_default().push(i);
            }
            let p = crate::intra::HomePartition {
                clusters: clusters.into_values().collect(),
            };
            p.is_split().then_some(p)
        })
    }

    /// Half the fleet decomposable factory homes, half the jittery
    /// service mix the planner must decline.
    fn mixed_home(home: usize, seed: u64) -> RunSpec {
        if home.is_multiple_of(2) {
            zoned_home(3 + home % 3, seed)
        } else {
            service_shaped_home(home, seed)
        }
    }

    #[test]
    fn intra_home_splitting_is_digest_neutral() {
        let base = run_service_with(
            8,
            1,
            0x147,
            ServiceConfig::new(TimeDelta::from_secs(10)),
            mixed_home,
        );
        assert_eq!(base.intra_homes, 0, "no planner, no splits");
        for workers in [1, 2, 4] {
            let intra = run_service_with(
                8,
                workers,
                0x147,
                ServiceConfig::new(TimeDelta::from_secs(10)).with_intra_home(test_planner()),
                mixed_home,
            );
            assert_eq!(
                base.homes, intra.homes,
                "sub-slice execution must be invisible in results ({workers} workers)"
            );
            assert_eq!(base.digest(), intra.digest());
            assert_eq!(intra.intra_homes, 4, "every factory home splits");
            assert_eq!(intra.intra_fallbacks, 0, "the gate admits no stalls");
            assert_eq!(
                base.latency.count(),
                intra.latency.count(),
                "merged homes drain every latency sample exactly once"
            );
        }
    }

    #[test]
    fn intra_home_composes_with_eviction() {
        // Split homes stay hot; unsplit cold homes still evict around
        // them, and results stay byte-identical.
        let base = run_service_with(
            8,
            2,
            0xFAC7,
            ServiceConfig::new(TimeDelta::from_secs(10)),
            mixed_home,
        );
        let both = run_service_with(
            8,
            2,
            0xFAC7,
            ServiceConfig::new(TimeDelta::from_secs(10))
                .with_max_resident(2)
                .with_intra_home(test_planner()),
            mixed_home,
        );
        assert_eq!(base.homes, both.homes);
        assert_eq!(base.digest(), both.digest());
        assert!(both.intra_homes > 0);
        assert!(both.evictions > 0, "unsplit homes must still evict");
    }

    /// One long-history sparse home: `clusters` bursts of five routines
    /// over four shared plugs, ten minutes apart, so the gap after every
    /// burst is a cold point.
    fn long_sparse_home(clusters: u64, seed: u64) -> RunSpec {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut spec =
            RunSpec::new(plug_home(4), EngineConfig::new(VisibilityModel::ev())).with_seed(seed);
        for c in 0..clusters {
            for i in 0..5u32 {
                let r = Routine::builder(format!("c{c}r{i}"))
                    .set(DeviceId(i % 4), Value::ON, TimeDelta::from_millis(50))
                    .set(
                        DeviceId((i + 1) % 4),
                        Value::OFF,
                        TimeDelta::from_millis(50),
                    )
                    .build();
                let at = c * 600_000 + rng.next_u64() % 2_000;
                spec.submit(Submission::at(r, Timestamp::from_millis(at)));
            }
        }
        spec
    }

    /// The eviction contract: evicting a home at every cold point of a
    /// long history (snapshot its world, keep its core) and resuming it
    /// with that same core is invisible — counters, digest and end
    /// states equal the never-evicted run.
    #[test]
    fn evicted_home_resumes_event_for_event() {
        let spec = long_sparse_home(110, 0x5EED);
        let mut plain = Driver::with_sink(&spec, RunCounters::new());
        assert!(plain.run_to_quiescence());
        let (want, want_committed, _) = plain.into_output();
        assert!(want.committed >= 500, "a long history");

        let mut d = Driver::with_sink(&spec, RunCounters::new());
        let mut evictions = 0;
        while !d.is_done() {
            if is_cold(&d) {
                d = EvictedHome::evict(d).resume(&spec);
                evictions += 1;
            }
            d.step();
        }
        assert!(evictions > 110, "every burst leaves cold points behind");
        let (counters, committed, completed) = d.into_output();
        assert!(completed);
        assert_eq!(counters, want, "counters, digest and end states");
        assert_eq!(committed, want_committed);
    }

    #[test]
    fn evicted_home_bytes_grow_with_history() {
        let spec = long_sparse_home(205, 0xB17E);
        let mut d = Driver::with_sink(&spec, RunCounters::new());
        let mut figures = Vec::new();
        for routines in [10, 100, 1_000] {
            // Run to the first cold point with that many commits.
            while d.sink().committed < routines || !is_cold(&d) {
                assert!(!d.is_done(), "the home commits {routines} routines");
                d.step();
            }
            let evicted = EvictedHome::evict(d);
            figures.push(evicted.approx_bytes());
            d = evicted.resume(&spec);
        }
        assert!(
            figures.windows(2).all(|w| w[0] < w[1]),
            "an evicted home's figure must grow with its history: {figures:?}"
        );
    }

    #[test]
    fn stale_candidate_entries_are_compacted() {
        let mut sc = Scheduler::default();
        // The race the old keyed-by-time set leaked on: a home is
        // parked, claimed by an evictor while another worker re-parks
        // it — the re-park must replace, not duplicate, the candidate
        // entry.
        sc.park_candidate(3, 100);
        sc.park_candidate(3, 250);
        assert_eq!(sc.parked.len(), 1, "re-park compacts the stale entry");
        assert_eq!(sc.best_victim(), Some((250, 3)));
        sc.park_candidate(7, 50);
        assert_eq!(sc.best_victim(), Some((250, 3)), "highest score wins");
        assert!(sc.unpark_candidate(3));
        assert!(!sc.unpark_candidate(3), "second claim loses the race");
        assert_eq!(sc.best_victim(), Some((50, 7)));
        assert!(sc.unpark_candidate(7));
        assert!(sc.parked.is_empty() && sc.scores.is_empty());
    }

    #[test]
    fn resident_run_matches_batch_fleet_exactly() {
        let batch = run_fleet(10, 1, 0x5e7, service_shaped_home);
        let resident = run_service(10, 1, 0x5e7, TimeDelta::from_secs(10), service_shaped_home);
        assert_eq!(batch.homes, resident.homes, "per-home results must match");
        assert_eq!(batch.digest(), resident.digest());
    }

    #[test]
    fn resident_results_are_identical_across_worker_counts() {
        let base = run_service(9, 1, 42, TimeDelta::from_secs(30), service_shaped_home);
        for workers in [2, 3, 4] {
            let other = run_service(
                9,
                workers,
                42,
                TimeDelta::from_secs(30),
                service_shaped_home,
            );
            assert_eq!(
                base.homes, other.homes,
                "per-home results must not depend on the worker count ({workers} workers)"
            );
            assert_eq!(base.digest(), other.digest());
            assert_eq!(base.slices, other.slices, "slice structure is worker-free");
        }
    }

    #[test]
    fn eviction_is_digest_neutral_at_random_budgets() {
        let base = run_service(8, 1, 0xC01D, TimeDelta::from_secs(20), service_shaped_home);
        let mut evictions_seen = 0;
        for max_resident in [0, 1, 2, 5] {
            for workers in [1, 3] {
                let evicted = run_service_with(
                    8,
                    workers,
                    0xC01D,
                    ServiceConfig::new(TimeDelta::from_secs(20)).with_max_resident(max_resident),
                    service_shaped_home,
                );
                assert_eq!(
                    base.homes, evicted.homes,
                    "eviction must be invisible in results \
                     (max_resident={max_resident}, {workers} workers)"
                );
                assert_eq!(base.digest(), evicted.digest());
                assert_eq!(base.slices, evicted.slices);
                assert!(evicted.recoveries <= evicted.evictions);
                evictions_seen += evicted.evictions;
            }
        }
        assert!(evictions_seen > 0, "tight budgets must actually evict");
    }

    #[test]
    fn eviction_bounds_residency_on_cold_fleets() {
        let budget = 2;
        let r = run_service_with(
            10,
            1,
            7,
            ServiceConfig::new(TimeDelta::from_secs(15)).with_max_resident(budget),
            evictable_home,
        );
        let batch = run_fleet(10, 1, 7, evictable_home);
        assert_eq!(batch.homes, r.homes);
        assert!(r.evictions > 0, "a 2-home budget over 10 homes must evict");
        assert!(r.recoveries > 0, "parked homes must come back");
        assert!(
            r.peak_resident_homes <= budget + 1,
            "one worker keeps at most budget parked + 1 in hand, got {}",
            r.peak_resident_homes
        );
        assert!(
            r.approx_resident_home_bytes > r.approx_evicted_home_bytes,
            "eviction must shrink a home's footprint ({} resident vs {} evicted bytes)",
            r.approx_resident_home_bytes,
            r.approx_evicted_home_bytes
        );
    }

    #[test]
    fn uncapped_runs_report_full_residency() {
        let r = run_service(6, 2, 3, TimeDelta::from_secs(10), service_shaped_home);
        assert_eq!(r.peak_resident_homes, 6);
        assert_eq!(r.evictions, 0);
        assert_eq!(r.recoveries, 0);
        assert_eq!(r.approx_evicted_home_bytes, 0);
        assert!(r.approx_resident_home_bytes > 0);
    }

    #[test]
    fn worker_stats_account_for_every_slice_and_home() {
        let single = run_service(9, 1, 11, TimeDelta::from_secs(10), service_shaped_home);
        assert_eq!(single.steals(), 0, "one worker builds every unit it runs");
        let r = run_service(9, 3, 11, TimeDelta::from_secs(10), service_shaped_home);
        assert_eq!(r.worker_stats.len(), 3);
        let slices: u64 = r.worker_stats.iter().map(|w| w.slices_run).sum();
        let homes: usize = r.worker_stats.iter().map(|w| w.homes_run).sum();
        assert_eq!(slices, r.slices);
        assert_eq!(slices, single.slices);
        assert_eq!(homes, r.homes.len());
        assert!(r.steals() <= slices, "a steal is a slice");
    }

    #[test]
    fn epoch_length_never_changes_results() {
        let batch = run_fleet(6, 2, 7, service_shaped_home);
        for epoch_ms in [1u64, 250, 60_000, 24 * 3_600_000] {
            let resident = run_service(
                6,
                2,
                7,
                TimeDelta::from_millis(epoch_ms),
                service_shaped_home,
            );
            assert_eq!(
                batch.digest(),
                resident.digest(),
                "epoch {epoch_ms}ms must not perturb results"
            );
        }
    }

    #[test]
    fn histogram_sees_every_finished_routine() {
        let r = run_service(8, 3, 11, TimeDelta::from_secs(5), service_shaped_home);
        let raw: u64 = r
            .homes
            .iter()
            .map(|h| h.counters.latencies_ms.len() as u64)
            .sum();
        assert_eq!(r.latency.count(), raw);
        assert!(raw > 0, "the fleet must finish some routines");
        let p99 = r.latency.percentile(0.99).expect("non-empty");
        let exact_max = r
            .homes
            .iter()
            .flat_map(|h| h.counters.latencies_ms.iter().copied())
            .max()
            .unwrap();
        assert_eq!(r.latency.max(), exact_max);
        assert!(p99 <= exact_max);
    }

    #[test]
    fn histogram_is_complete_under_eviction() {
        // An evicted home keeps its sink; the drain cursor must keep
        // every sample exactly once across evict/resume cycles.
        let r = run_service_with(
            8,
            2,
            11,
            ServiceConfig::new(TimeDelta::from_secs(5)).with_max_resident(1),
            service_shaped_home,
        );
        let raw: u64 = r
            .homes
            .iter()
            .map(|h| h.counters.latencies_ms.len() as u64)
            .sum();
        assert_eq!(r.latency.count(), raw);
        assert!(r.evictions > 0);
    }

    #[test]
    fn empty_fleet_is_fine() {
        let r = run_service(0, 4, 1, TimeDelta::from_secs(1), service_shaped_home);
        assert!(r.homes.is_empty());
        assert_eq!(r.workers, 1, "workers clamp to at least one");
        assert!(r.latency.is_empty());
        assert!(r.all_completed(), "vacuously true");
        assert_eq!(r.peak_resident_homes, 0);
    }

    #[test]
    fn sparse_fleet_slices_far_fewer_times_than_events() {
        // The wheel parks homes across their hour-scale gaps: the slice
        // count must track arrival clusters, not total event count.
        let epoch_s = 10u64;
        let r = run_service(10, 2, 3, TimeDelta::from_secs(epoch_s), service_shaped_home);
        assert!(r.slices >= r.homes.len() as u64);
        // Naive polling would touch every home once per epoch over the
        // ~2 h horizon; parking must come in well under that. (Probe
        // loops keep failure-plan homes busier, so the bound is loose.)
        let naive = r.homes.len() as u64 * (2 * 3_600 / epoch_s);
        assert!(
            r.slices < naive / 2,
            "slicing must beat per-epoch polling, got {} slices vs {naive} naive",
            r.slices
        );
    }
}
