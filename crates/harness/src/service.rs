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
//! Every unit starts unbuilt on the wheel at time zero, in unit order.
//! Its first pop builds its driver on the popping worker's thread (so
//! its simulator state comes from that thread's pool) and parks it at
//! its first event without running a slice. No barrier separates
//! building from running: the wheel pops by time, then insertion order,
//! so every build pop precedes every slice pop, and a single worker
//! builds every unit before its first slice. From then on any idle
//! worker takes the globally earliest slice, whichever worker built its
//! unit, so a skewed fleet (a few burst-heavy "giant factory" homes)
//! never stalls one worker while the others idle.
//! [`ServiceResult::steals`] counts the slices a worker ran for a unit
//! another worker built.
//!
//! # One lock: take, run, put
//!
//! Everything the workers share and change — the wheel, the unit table,
//! the eviction candidates and the counters — sits in one `Runner`
//! behind one mutex, and every worker loops *take → run → put*. `take`
//! pops a unit, withdraws its eviction candidacy and moves its cell out
//! of the table into the worker's hand (or hands out the sub-runs of a
//! split home whose last cluster finished, for merging). The build,
//! resume, slice, latency drain, `into_output` or merge then runs with
//! no lock held. `put` stores the cell, parks or finishes the unit, and
//! ends with the eviction sweep. A unit in a worker's hand is neither on
//! the wheel nor a candidate, so no other worker can reach it; a
//! candidate is always parked, so the sweep evicts it without a
//! re-check. A worker that panics sets the runner's `abandoned` flag on
//! its way out, the others leave at their next take, and the panic
//! reaches the caller.
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
//! states, RNG position, the backend's arrival lane with its cursor and
//! the released `After` dependents drained from the queue in pop order;
//! and its queue and device storage go back to the thread pool
//! ([`SimBackend::into_world_snapshot`]). The workload's absolute
//! arrivals never enter the queue (see [`SimBackend`]): the lane moves
//! over whole, so a pending arrival costs no queue operation on eviction
//! or on resume, however many are pending. When the home's next timer
//! fires, the popping worker brings it back with [`SimBackend::resurrect`]
//! and [`HomeRuntime::resume`]: devices, RNG and lane restored, the
//! drained dependents re-scheduled in the same order. The queue pops by
//! time, then insertion order, and the lane wins ties, so the
//! continuation is event-for-event that of a never-evicted run, and
//! bringing a home back costs nothing that grows with its history.
//! `After` chains evict too: a released dependent is a pending submission
//! like any other, and an unreleased one waits in the kept core's
//! deferral table.
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

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

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
    /// Approximate heap bytes one *resident* home pins: the event queue's
    /// buckets and slab, the arrival lane and the device slots. The
    /// largest of the samples taken from every home the runner evicts
    /// and from every home when it finishes, where its queue's slab has
    /// reached the most events it held at once.
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
    /// Statically evictable: eviction enabled, a whole home and no
    /// failure plan (hence no probe loops or injections). The dynamic
    /// half — quiescent, only future submissions pending — is re-checked
    /// at every park. A split home stays hot until its merge.
    evictable: bool,
}

/// A unit's execution state.
#[derive(Default)]
enum Cell<'a> {
    /// Parked at time zero until its first pop builds it.
    Unbuilt,
    /// In a worker's hand, between `take` and `put`.
    #[default]
    Taken,
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
    /// A split home's finished sub-runs, in the hand of the worker that
    /// merges them.
    Merging(Vec<SubRun>),
    Finished {
        // Boxed for the same reason as `Live`: terminal counters carry
        // the full latency vector, dwarfing `Taken`/`Evicted`.
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

/// A unit's row in the runner's table.
#[derive(Default)]
struct Slot<'a> {
    cell: Cell<'a>,
    /// Latency samples already drained into a worker's histogram. It
    /// survives eviction with the sink it indexes.
    drained: usize,
    /// The unit's key in [`Runner::candidates`] while it is one.
    score: Option<u64>,
    /// The worker whose pop built the unit.
    built_by: Option<usize>,
}

/// A unit between `take` and `put`: off the wheel, out of the table, in
/// one worker's hand.
#[derive(Default)]
struct Hand<'a> {
    unit: usize,
    cell: Cell<'a>,
    drained: usize,
    /// Left for `put` to count: the resident bytes of a home that
    /// finished in this run, and whether a merge fell back to a
    /// sequential re-run.
    resident_bytes: usize,
    fell_back: bool,
}

impl<'a> Hand<'a> {
    /// The lock-free middle of a worker's loop: builds, resumes, slices,
    /// finishes or merges the unit, draining its latencies into `hist`.
    fn run(&mut self, ctx: &ServiceCtx<'a>, stats: &mut WorkerStats, hist: &mut LatencyHistogram) {
        let meta = ctx.units[self.unit];
        let spec = ctx.unit_spec(self.unit);
        let cell = match std::mem::take(&mut self.cell) {
            Cell::Evicted(ev) => Cell::Live(Box::new(ev.resume(spec))),
            cell => cell,
        };
        self.cell = match cell {
            // A build pop parks the unit without a slice. A cluster
            // sub-driver is traced (funnel log + pop-segmented sink) so
            // the merge can fold the home back byte-identically.
            Cell::Unbuilt if meta.cluster.is_some() => {
                Cell::LiveSub(Box::new(Driver::with_sink_traced(spec, SubRunLog::new())))
            }
            Cell::Unbuilt => Cell::Live(Box::new(Driver::with_sink(spec, RunCounters::new()))),
            Cell::Live(mut d) => {
                if advance_slice(&mut d, ctx.epoch_ms) {
                    // Progressive latency drain: only the routines that
                    // finished in this slice, so worker memory stays flat
                    // over the horizon.
                    drain(&d.sink().latencies_ms, &mut self.drained, hist);
                    Cell::Live(d)
                } else {
                    self.resident_bytes = d.backend().approx_resident_bytes();
                    let (counters, _, completed) = d.into_output();
                    self.finish(counters, completed, stats, hist)
                }
            }
            Cell::LiveSub(mut d) => {
                if advance_slice(&mut d, ctx.epoch_ms) {
                    Cell::LiveSub(d)
                } else {
                    let funnel = d.backend_mut().take_funnel_log();
                    let (log, _, completed) = d.into_output();
                    Cell::FinishedSub(Box::new(SubRun {
                        log,
                        funnel,
                        completed,
                    }))
                }
            }
            // Folds a split home's sub-runs back into the one
            // `RunCounters` the sequential path would have produced. If
            // the merge declines (a sub-run stalled — the planner's gate
            // makes that exceptional), the home is re-run sequentially
            // from scratch: slower, never wrong.
            Cell::Merging(subs) => {
                let spec = &ctx.specs[meta.home];
                let partition = ctx.partitions[meta.home].as_ref();
                match merge_sub_runs(spec, partition.expect("a split home"), subs) {
                    Some(counters) => self.finish(counters, true, stats, hist),
                    None => {
                        self.fell_back = true;
                        let mut d = Driver::with_sink(spec, RunCounters::new());
                        let completed = d.run_to_quiescence();
                        self.finish(d.into_output().0, completed, stats, hist)
                    }
                }
            }
            _ => unreachable!("unit {} was taken with nothing to run", self.unit),
        };
    }

    /// A home's terminal counters, with every sample past its drain
    /// cursor recorded: the last slice's, or for a split home all of
    /// them, since sub-runs record none and the merge rebuilds the exact
    /// sequential latency vector.
    fn finish(
        &mut self,
        counters: RunCounters,
        completed: bool,
        stats: &mut WorkerStats,
        hist: &mut LatencyHistogram,
    ) -> Cell<'a> {
        drain(&counters.latencies_ms, &mut self.drained, hist);
        stats.homes_run += 1;
        Cell::Finished {
            counters: Box::new(counters),
            completed,
        }
    }
}

/// Records the samples past a unit's drain cursor and moves the cursor
/// to the end.
fn drain(latencies_ms: &[u64], drained: &mut usize, hist: &mut LatencyHistogram) {
    for &ms in &latencies_ms[*drained..] {
        hist.record(ms);
    }
    *drained = latencies_ms.len();
}

/// Everything the workers share and change, behind the one lock.
#[derive(Default)]
struct Runner<'a> {
    /// Timer wheel of parked units.
    wheel: EventQueue<usize>,
    slots: Vec<Slot<'a>>,
    /// Parked units that are evictable right now, keyed by eviction
    /// score (the next-event time, so `last` is the coldest home and the
    /// best victim). Each entry mirrors its unit's [`Slot::score`].
    candidates: BTreeSet<(u64, usize)>,
    /// Split homes whose every sub-run has finished, ready to merge.
    merges: Vec<Hand<'a>>,
    max_resident: Option<usize>,
    /// Homes whose primary unit has not finished; workers exit at zero.
    unfinished: usize,
    /// A worker panicked; the others exit at their next take.
    abandoned: bool,
    resident: usize,
    peak_resident: usize,
    evictions: u64,
    recoveries: u64,
    intra_homes: u64,
    intra_fallbacks: u64,
    resident_bytes: usize,
    evicted_bytes: usize,
}

impl<'a> Runner<'a> {
    /// Hands worker `w` a ready merge, or else pops the earliest parked
    /// unit, withdraws its eviction candidacy and moves its cell into the
    /// hand. A unit about to be built or resumed counts as resident from
    /// here; any other pop is a slice, counted in `stats`.
    fn take(&mut self, w: usize, stats: &mut WorkerStats) -> Option<Hand<'a>> {
        if let Some(merge) = self.merges.pop() {
            return Some(merge);
        }
        let (_, unit) = self.wheel.pop()?;
        let slot = &mut self.slots[unit];
        if let Some(score) = slot.score.take() {
            self.candidates.remove(&(score, unit));
        }
        let built_by = *slot.built_by.get_or_insert(w);
        let hand = Hand {
            unit,
            cell: std::mem::take(&mut slot.cell),
            drained: slot.drained,
            ..Hand::default()
        };
        if !matches!(hand.cell, Cell::Unbuilt) {
            stats.slices_run += 1;
            stats.steals += u64::from(built_by != w);
        }
        if matches!(hand.cell, Cell::Unbuilt | Cell::Evicted(_)) {
            self.recoveries += u64::from(matches!(hand.cell, Cell::Evicted(_)));
            self.resident += 1;
            self.peak_resident = self.peak_resident.max(self.resident);
        }
        Some(hand)
    }

    /// Stores a hand's cell back in the table, parks or finishes its
    /// unit (queueing the merge when it was a split home's last sub-run
    /// to finish), and ends with the eviction sweep.
    fn put(&mut self, ctx: &ServiceCtx<'a>, hand: Hand<'a>) {
        let meta = ctx.units[hand.unit];
        match &hand.cell {
            Cell::Live(d) => {
                let evictable = meta.evictable && is_cold(d);
                self.park(hand.unit, d.backend().next_event_at(), evictable);
            }
            Cell::LiveSub(d) => self.park(hand.unit, d.backend().next_event_at(), false),
            Cell::FinishedSub(_) => self.resident -= 1,
            Cell::Finished { .. } if meta.cluster.is_some() => {
                self.unfinished -= 1;
                if hand.fell_back {
                    self.intra_fallbacks += 1;
                } else {
                    self.intra_homes += 1;
                }
            }
            Cell::Finished { .. } => {
                self.unfinished -= 1;
                self.resident -= 1;
                self.resident_bytes = self.resident_bytes.max(hand.resident_bytes);
            }
            _ => unreachable!("unit {} came back with nothing to store", hand.unit),
        }
        let sub_finished = matches!(hand.cell, Cell::FinishedSub(_));
        let slot = &mut self.slots[hand.unit];
        slot.cell = hand.cell;
        slot.drained = hand.drained;
        if sub_finished {
            self.queue_merge(&ctx.home_units[meta.home]);
        }
        self.evict_over_budget();
        #[cfg(test)]
        self.check(ctx);
    }

    /// Parks `unit` on the wheel at its next event. An `evictable` unit
    /// also becomes an eviction candidate, scored (higher = better
    /// victim) by that next-event time, so the coldest home goes first.
    fn park(&mut self, unit: usize, next: Option<Timestamp>, evictable: bool) {
        let next = next.unwrap_or(Timestamp::ZERO);
        self.wheel.schedule(next, unit);
        if evictable {
            self.slots[unit].score = Some(next.as_millis());
            self.candidates.insert((next.as_millis(), unit));
        }
    }

    /// Once every cluster unit in `units` has finished, moves the
    /// sub-runs out of the table into a merge hand for the home's
    /// primary unit (cluster 0), where the merged counters will live.
    fn queue_merge(&mut self, units: &Range<usize>) {
        let slots = &mut self.slots[units.clone()];
        if slots.iter().all(|s| matches!(s.cell, Cell::FinishedSub(_))) {
            let subs = slots.iter_mut().map(|s| match std::mem::take(&mut s.cell) {
                Cell::FinishedSub(sr) => *sr,
                _ => unreachable!(),
            });
            self.merges.push(Hand {
                unit: units.start,
                cell: Cell::Merging(subs.collect()),
                ..Hand::default()
            });
        }
    }

    /// Evicts the best-scored candidate first while the resident count
    /// exceeds the budget. A candidate is always parked, so no worker
    /// holds it and it is still cold.
    fn evict_over_budget(&mut self) {
        let Some(max) = self.max_resident else { return };
        while self.resident > max {
            let Some((_, unit)) = self.candidates.pop_last() else {
                return;
            };
            let slot = &mut self.slots[unit];
            slot.score = None;
            let Cell::Live(d) = std::mem::take(&mut slot.cell) else {
                unreachable!("eviction candidate {unit} is not parked live")
            };
            debug_assert!(!d.is_done() && is_cold(&d), "candidate {unit} warmed up");
            self.resident_bytes = self.resident_bytes.max(d.backend().approx_resident_bytes());
            let evicted = EvictedHome::evict(*d);
            self.evicted_bytes = self.evicted_bytes.max(evicted.approx_bytes());
            slot.cell = Cell::Evicted(evicted);
            self.resident -= 1;
            self.evictions += 1;
        }
    }
}

/// The run's fixed inputs, which workers read without the lock, and the
/// [`Runner`] behind it.
struct ServiceCtx<'a> {
    specs: &'a [RunSpec],
    /// Per home: the cluster sub-specs when the planner split it
    /// (empty otherwise).
    sub_specs: &'a [Vec<RunSpec>],
    /// Per home: the planner's partition, `None` for sequential homes.
    partitions: &'a [Option<HomePartition>],
    /// All schedulable units, grouped by home (`home_units[h]` indexes
    /// a contiguous range of `units` and of the runner's slots).
    units: Vec<UnitMeta>,
    home_units: Vec<Range<usize>>,
    epoch_ms: u64,
    runner: Mutex<Runner<'a>>,
}

impl<'a> ServiceCtx<'a> {
    /// The spec a unit executes: the home's own, or its cluster's
    /// projection.
    fn unit_spec(&self, unit: usize) -> &'a RunSpec {
        let meta = self.units[unit];
        match meta.cluster {
            None => &self.specs[meta.home],
            Some(c) => &self.sub_specs[meta.home][c],
        }
    }

    fn lock(&self) -> MutexGuard<'_, Runner<'a>> {
        self.runner
            .lock()
            .expect("no worker panicked holding the runner")
    }
}

/// Sets [`Runner::abandoned`] when its worker unwinds, so the other
/// workers stop waiting for the unit it held.
struct AbandonOnPanic<'c, 'a>(&'c ServiceCtx<'a>);

impl Drop for AbandonOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Setting a flag is safe even on a runner a panic left
            // half-updated, and the flag is all the others read next.
            let runner = self.0.runner.lock();
            runner.unwrap_or_else(PoisonError::into_inner).abandoned = true;
        }
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

    // Phase 1 — build every spec before any worker starts, in parallel
    // over near-equal contiguous ranges. Spec construction is pure in
    // (home, seed), so the split is a throughput detail.
    let specs: Vec<RunSpec> = if workers == 1 {
        // On the calling thread, not a spawned one. perfbench re-times
        // the spec build on its main thread after this call, for its
        // `setup_s`, and that build read 0.048–0.057 s with this one on
        // a spawned thread against 0.040–0.041 s here (4 pairs, 2-vCPU
        // host); building each spec on its unit's first pop read +26% on
        // `service_day` and +31% on `workshop_intra`. The allocator's
        // per-thread arenas are the likely cause, unverified.
        (0..homes)
            .map(|home| make_spec(home, seeds[home]))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let seeds = &seeds;
                    scope.spawn(move || {
                        (w * homes / workers..(w + 1) * homes / workers)
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
        let start = units.len();
        match p {
            Some(p) => units.extend((0..p.clusters.len()).map(|c| UnitMeta {
                home,
                cluster: Some(c),
                evictable: false,
            })),
            None => units.push(UnitMeta {
                home,
                cluster: None,
                evictable: config.max_resident.is_some() && specs[home].failures.is_empty(),
            }),
        }
        home_units.push(start..units.len());
    }

    // Phase 2 — resident execution: every unit parked unbuilt at time
    // zero, in unit order, for its first pop to build.
    let mut wheel = EventQueue::new();
    let slots = (0..units.len())
        .map(|unit| {
            wheel.schedule(Timestamp::ZERO, unit);
            Slot {
                cell: Cell::Unbuilt,
                ..Slot::default()
            }
        })
        .collect();
    let ctx = ServiceCtx {
        units,
        home_units,
        specs: &specs,
        sub_specs: &sub_specs,
        partitions: &partitions,
        epoch_ms: config.epoch.as_millis().max(1),
        runner: Mutex::new(Runner {
            wheel,
            slots,
            max_resident: config.max_resident,
            unfinished: homes,
            ..Runner::default()
        }),
    };
    let outputs: Vec<(LatencyHistogram, WorkerStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let ctx = &ctx;
                scope.spawn(move || service_worker(ctx, w))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    let runner = ctx.runner.into_inner().expect("no worker panicked");
    let mut result = ServiceResult {
        homes: Vec::with_capacity(homes),
        workers,
        epoch: config.epoch,
        latency: LatencyHistogram::new(),
        slices: 0,
        worker_stats: Vec::with_capacity(workers),
        evictions: runner.evictions,
        recoveries: runner.recoveries,
        peak_resident_homes: runner.peak_resident,
        approx_resident_home_bytes: runner.resident_bytes,
        approx_evicted_home_bytes: runner.evicted_bytes,
        intra_homes: runner.intra_homes,
        intra_fallbacks: runner.intra_fallbacks,
    };
    for (hist, stats) in outputs {
        result.latency.merge(&hist);
        result.slices += stats.slices_run;
        result.worker_stats.push(stats);
    }
    // A home's terminal counters live in its *primary* unit slot (its
    // only unit, or cluster 0 — where the merge left them).
    let mut slots = runner.slots;
    for (home, range) in ctx.home_units.iter().enumerate() {
        let Cell::Finished {
            counters,
            completed,
        } = std::mem::take(&mut slots[range.start].cell)
        else {
            unreachable!("home {home} did not reach a terminal state")
        };
        result.homes.push(HomeRun {
            home,
            seed: seeds[home],
            completed,
            counters: *counters,
        });
    }
    result
}

/// One worker: takes units off the shared wheel, runs them with no lock
/// held and puts them back, until every home has finished or another
/// worker panicked.
fn service_worker<'a>(ctx: &ServiceCtx<'a>, w: usize) -> (LatencyHistogram, WorkerStats) {
    let _abandon = AbandonOnPanic(ctx);
    let mut stats = WorkerStats::default();
    let mut hist = LatencyHistogram::new();
    loop {
        let mut runner = ctx.lock();
        if runner.abandoned || runner.unfinished == 0 {
            return (hist, stats);
        }
        let Some(mut hand) = runner.take(w, &mut stats) else {
            // Every remaining unit is in another worker's hand; its put
            // is imminent.
            drop(runner);
            std::thread::yield_now();
            continue;
        };
        drop(runner);
        hand.run(ctx, &mut stats, &mut hist);
        ctx.lock().put(ctx, hand);
    }
}

/// Advances one epoch slice: runs `d` through every event strictly
/// before the next absolute epoch boundary after its own earliest
/// pending event. Never derive that boundary from the wheel's popped
/// timestamp: concurrent pops may have clamped it forward, and slice
/// structure must stay a property of the unit and the epoch grid alone.
///
/// Returns `true` when the unit should re-park at its next event,
/// `false` when it reached a terminal state. (A unit that could already
/// report quiescence but still holds an immaterial probe event parks at
/// most once more — its next slice's first step resolves to done without
/// popping the probe.)
fn advance_slice<S: TraceSink>(d: &mut Driver<'_, S>, epoch_ms: u64) -> bool {
    let end = match d.backend().next_event_at() {
        Some(next) => Timestamp::from_millis((next.as_millis() / epoch_ms + 1) * epoch_ms),
        None => Timestamp::ZERO, // first step observes quiescence
    };
    loop {
        if d.is_done() {
            return false;
        }
        match d.backend().next_event_at() {
            Some(next) if next >= end => return true,
            _ => match d.step() {
                Step::Event(_) | Step::Idle => {}
                Step::Quiescent | Step::Stalled => return false,
            },
        }
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

    impl Runner<'_> {
        /// The runner's invariants, which `put` checks after its sweep:
        /// the wheel holds exactly the parked units (unbuilt, live, live
        /// sub-run or evicted), the candidates are parked cold homes and
        /// agree with the units' scores, the sweep kept residency within
        /// budget unless no candidate was left, and `unfinished` counts
        /// the homes whose primary unit has not finished.
        pub(super) fn check(&self, ctx: &ServiceCtx<'_>) {
            let parked = self.slots.iter().filter(|s| {
                matches!(
                    s.cell,
                    Cell::Unbuilt | Cell::Live(_) | Cell::LiveSub(_) | Cell::Evicted(_)
                )
            });
            assert_eq!(
                self.wheel.len(),
                parked.count(),
                "one wheel entry per parked unit"
            );
            let scored: BTreeSet<(u64, usize)> = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(unit, s)| Some((s.score?, unit)))
                .collect();
            assert_eq!(scored, self.candidates, "candidates and scores disagree");
            for &(_, unit) in &self.candidates {
                let cold =
                    matches!(&self.slots[unit].cell, Cell::Live(d) if !d.is_done() && is_cold(d));
                assert!(
                    ctx.units[unit].evictable && cold,
                    "candidate {unit} is not a parked cold home"
                );
            }
            if let Some(max) = self.max_resident {
                assert!(
                    self.resident <= max || self.candidates.is_empty(),
                    "sweep left residency over budget"
                );
            }
            let unfinished = ctx
                .home_units
                .iter()
                .filter(|r| !matches!(self.slots[r.start].cell, Cell::Finished { .. }))
                .count();
            assert_eq!(self.unfinished, unfinished, "unfinished homes miscounted");
        }
    }

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

    /// [`long_sparse_home`] with each burst's last routine followed by
    /// an `After` dependent five minutes later, released into the queue
    /// while the next bursts still wait in the arrival lane.
    fn long_sparse_chained_home(clusters: u64, seed: u64) -> RunSpec {
        let mut spec = long_sparse_home(clusters, seed);
        for c in 0..clusters as usize {
            let r = Routine::builder(format!("c{c}dep"))
                .set(
                    DeviceId(c as u32 % 4),
                    Value::OFF,
                    TimeDelta::from_millis(50),
                )
                .build();
            spec.submit(Submission::after(r, c * 5 + 4, TimeDelta::from_mins(5)));
        }
        spec
    }

    /// Evicts `spec`'s home at every cold point of its run (snapshot its
    /// world, keep its core) and resumes it with that same core, then
    /// checks the result equals the never-evicted run: counters, digest
    /// and end states. Returns the number of evictions and how many of
    /// them parked lane arrivals and released dependents together.
    fn evict_at_every_cold_point(spec: &RunSpec) -> (usize, usize) {
        let mut plain = Driver::with_sink(spec, RunCounters::new());
        assert!(plain.run_to_quiescence());
        let (want, want_committed, _) = plain.into_output();
        assert!(want.committed >= 500, "a long history");

        let mut d = Driver::with_sink(spec, RunCounters::new());
        let (mut evictions, mut mixed) = (0, 0);
        while !d.is_done() {
            if is_cold(&d) {
                let evicted = EvictedHome::evict(d);
                let (lane, queued) = evicted.world.pending();
                mixed += usize::from(!lane.is_empty() && !queued.is_empty());
                d = evicted.resume(spec);
                evictions += 1;
            }
            d.step();
        }
        let (counters, committed, completed) = d.into_output();
        assert!(completed);
        assert_eq!(counters, want, "counters, digest and end states");
        assert_eq!(committed, want_committed);
        (evictions, mixed)
    }

    /// The eviction contract: evicting a home at every cold point of a
    /// long history and resuming it with its kept core is invisible.
    #[test]
    fn evicted_home_resumes_event_for_event() {
        let (evictions, _) = evict_at_every_cold_point(&long_sparse_home(110, 0x5EED));
        assert!(evictions > 110, "every burst leaves cold points behind");
    }

    /// The same contract with `After` chains: snapshots that hold lane
    /// arrivals and released dependents at once resume in pop order.
    #[test]
    fn evicted_chained_home_resumes_event_for_event() {
        let (evictions, mixed) = evict_at_every_cold_point(&long_sparse_chained_home(110, 0xC4A1));
        assert!(evictions > 110, "every burst leaves cold points behind");
        assert!(
            mixed > 100,
            "most bursts leave a released dependent beside pending arrivals ({mixed})"
        );
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

    /// [`evictable_home`], except that home 3's only routine names a
    /// device its four plugs lack, so its first slice panics.
    fn panicking_home(home: usize, seed: u64) -> RunSpec {
        let mut spec = evictable_home(home, seed);
        if home == 3 {
            let ghost = Routine::builder("ghost")
                .set(DeviceId(99), Value::ON, TimeDelta::from_millis(50))
                .build();
            spec.submissions.clear();
            spec.submit(Submission::at(ghost, Timestamp::from_millis(1_000)));
        }
        spec
    }

    /// A panicking slice abandons the run at any worker count: the
    /// other workers stop waiting for the unit it held, and the panic
    /// reaches the caller instead of hanging it.
    #[test]
    fn a_panicking_home_fails_the_run_instead_of_hanging_it() {
        for workers in [1, 2, 4] {
            let run = std::panic::catch_unwind(|| {
                run_service(6, workers, 5, TimeDelta::from_secs(10), panicking_home)
            });
            assert!(run.is_err(), "{workers} workers must re-raise the panic");
        }
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
