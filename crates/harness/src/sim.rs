//! The discrete-event backend and run driver.
//!
//! [`SimBackend`] is the virtual-time [`Backend`]: the workload's
//! presorted arrival lane beside a calendar-wheel [`EventQueue`] of
//! in-flight work, a vec of [`VirtualDevice`]s, the ping-based
//! [`FailureDetector`] and the seeded latency RNG. [`Driver`] is the
//! [`HomeRuntime`] over it — the same mediation layer the kasa real-time
//! runner uses — reporting everything that happens to a pluggable
//! [`TraceSink`]. The full [`Trace`] recorder is the default sink;
//! fleet-scale callers plug in [`safehome_types::sink::RunCounters`] to
//! keep the hot loop free of per-event allocation. [`run`] is the
//! one-shot convenience wrapper that drives a spec to quiescence and
//! returns its full trace.

use std::cell::RefCell;
use std::collections::BTreeMap;

use safehome_core::journal::{ExecutionJournal, JournalWriter};
use safehome_core::{Engine, TimerId};
use safehome_devices::{DeviceEvent, DispatchTicket, FailureDetector, Health, VirtualDevice};
use safehome_sim::{EventQueue, SimRng};
use safehome_types::{sink::TraceSink, trace::Trace, DeviceId, TimeDelta, Timestamp, Value};

use crate::runtime::{Backend, CommandOutcome, HomeRuntime, HomeTables, Polled, RuntimeCore};
use crate::spec::RunSpec;

pub use crate::runtime::Step;

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The complete execution trace.
    pub trace: Trace,
    /// `false` if the run hit the safety horizon before quiescence (a
    /// deadlock or an unsatisfiable submission dependency).
    pub completed: bool,
    /// The engine's committed device states at the end.
    pub committed_states: BTreeMap<DeviceId, Value>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Submit(usize),
    /// A dispatched command arrives at its device after network latency;
    /// independent per-call latency is what lets concurrent routines race
    /// at the devices (the source of Fig. 1's incongruence under WV).
    DeviceArrive(DeviceId, DispatchTicket),
    DeviceComplete(DeviceId),
    InjectFail(DeviceId),
    InjectRestart(DeviceId),
    Probe(DeviceId),
    ProbeTimeout(DeviceId),
    EngineTimer(TimerId),
}

fn is_material(ev: &Ev) -> bool {
    !matches!(ev, Ev::Probe(_) | Ev::ProbeTimeout(_))
}

/// Provenance of one funnel-scheduled event (see [`FunnelEntry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunnelParent {
    /// Scheduled while the driver was being constructed — the `rank`-th
    /// funnel entry before the first pop (an absolute-arrival submission,
    /// logged in workload-index order as the lane takes it).
    Init {
        /// Construction-time call rank.
        rank: u32,
    },
    /// Scheduled while handling pop `pop` — the `rank`-th funnel call of
    /// that pop's handler.
    Pop {
        /// Index of the causing pop.
        pop: u32,
        /// Call rank within that pop's handler.
        rank: u32,
    },
}

/// One record of the sub-run funnel log: every event a traced backend
/// takes on — each lane arrival at assembly, then everything scheduled
/// through its `SimBackend::schedule` funnel — with the effective enqueue
/// time (arrival clamped forward to the clock, exactly as the queue does)
/// and the pop that caused it. The backend pops in (time, log position)
/// order — the lane wins ties because its arrivals are logged first —
/// and on a failure-free, probe-free spec every event is logged, so a
/// stable sort of the log by `t_eff` *is* the pop order, and the parent
/// links let the intra-home merge reconstruct the sequential
/// interleaving across clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunnelEntry {
    /// Effective enqueue time: `max(at, clock)`.
    pub t_eff: Timestamp,
    /// The construction rank or pop that scheduled this event.
    pub parent: FunnelParent,
}

/// Funnel-log state of a traced backend (intra-home sub-runs only).
#[derive(Debug, Default)]
struct SubTrace {
    log: Vec<FunnelEntry>,
    /// Pops handled so far; `None` current pop means construction.
    current: Option<u32>,
    pops: u32,
    /// Funnel calls made in the current context.
    rank: u32,
}

/// A workload submission due at an instant: `(time, workload index)`.
type Due = (Timestamp, usize);

/// One recyclable bundle of per-home state: the event queue (its slab,
/// bucket array and far heap), the arrival lane, the virtual device vec
/// (each device keeps its pending-dispatch deque), and the runtime's
/// submission tables.
#[derive(Default)]
struct PooledHome {
    queue: EventQueue<Ev>,
    arrivals: Vec<Due>,
    devices: Vec<VirtualDevice>,
    tables: HomeTables,
}

thread_local! {
    /// The per-thread home-state pool: a fleet worker runs thousands of
    /// homes on one thread, and recycling the queue, device and table
    /// storage keeps the per-home setup free of allocation (the PR 4
    /// queue-pool lever extended to all per-home state). Reuse never
    /// changes results — a recycled home is indistinguishable from a
    /// fresh one (every container is reset field-by-field).
    static HOME_POOL: RefCell<Vec<PooledHome>> = const { RefCell::new(Vec::new()) };
}

/// Bundles kept per thread; one suffices per worker, a few cover nested
/// driver use in tests.
const HOME_POOL_CAP: usize = 4;

fn pooled_home() -> PooledHome {
    HOME_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

fn recycle_home(mut home: PooledHome) {
    home.queue.clear();
    home.arrivals.clear();
    HOME_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < HOME_POOL_CAP {
            pool.push(home);
        }
    });
}

/// The discrete-event [`Backend`]: virtual clock and devices.
///
/// Owns everything timing- and I/O-shaped about a simulated run — the
/// workload's arrival schedule, the event queue, the virtual devices, the
/// failure plan's injections, the probe loops and the latency RNG — and
/// feeds the backend-independent [`RuntimeCore`] exactly the way the
/// paper's emulation (§7.1) demands.
///
/// The workload's absolute arrivals never enter the queue. They sit in an
/// **arrival lane**: `(time, index)` pairs stable-sorted by time once, at
/// assembly, and consumed by a cursor. A poll takes the lane head when it
/// is due no later than the queue's earliest event and pops the queue
/// otherwise. The lane wins ties because arrivals are fixed at assembly,
/// before anything is queued, and the backend pops equal instants in the
/// order their events were scheduled. The queue holds only in-flight
/// work: device I/O, engine timers, injections, probes and released
/// `After` dependents.
pub struct SimBackend<'a> {
    spec: &'a RunSpec,
    queue: EventQueue<Ev>,
    /// The arrival lane, sorted by time (ties in workload-index order).
    /// Each entry keeps its time inline: every poll and every
    /// [`Self::next_event_at`] peeks at the head.
    arrivals: Vec<Due>,
    /// Index of the lane's next unconsumed arrival.
    next_arrival: usize,
    devices: Vec<VirtualDevice>,
    detector: FailureDetector,
    rng: SimRng,
    latency: safehome_devices::LatencyModel,
    /// Outstanding material (non-probe) events in the queue; the lane's
    /// unconsumed arrivals are counted by its cursor instead.
    material: usize,
    /// Outstanding material events that are *not* future workload
    /// submissions — device arrivals/completions, injections, engine
    /// timers. Zero means the queue holds nothing but released `Submit`s
    /// (plus possibly immaterial probes): the world is at rest, and the
    /// service runner may evict the home to a [`WorldSnapshot`].
    nonsubmit_material: usize,
    /// Funnel logging for intra-home sub-runs; `None` (the default)
    /// costs one branch per schedule call.
    subtrace: Option<SubTrace>,
}

impl<'a> SimBackend<'a> {
    /// A backend over a pooled bundle. The pooled queue and lane come
    /// back cleared with their capacity, so a recycled home allocates no
    /// queue or lane storage until it holds more than an earlier home on
    /// this thread did.
    fn new(spec: &'a RunSpec, pooled: &mut PooledHome) -> Self {
        let n = spec.home.len();
        // Reuse pooled device slots in place (each keeps its pending
        // deque allocation); grow with fresh ones as needed.
        let mut devices = std::mem::take(&mut pooled.devices);
        for (i, d) in spec.home.devices().iter().enumerate() {
            if let Some(slot) = devices.get_mut(i) {
                slot.reset(d.initial, TimeDelta::ZERO, spec.detect_timeout);
            } else {
                devices.push(VirtualDevice::new(
                    d.initial,
                    TimeDelta::ZERO,
                    spec.detect_timeout,
                ));
            }
        }
        devices.truncate(n);
        SimBackend {
            spec,
            queue: std::mem::take(&mut pooled.queue),
            arrivals: std::mem::take(&mut pooled.arrivals),
            next_arrival: 0,
            devices,
            detector: FailureDetector::new(n, spec.ping_interval, spec.detect_timeout),
            rng: SimRng::seed_from_u64(spec.seed),
            latency: spec.latency,
            material: 0,
            nonsubmit_material: 0,
            subtrace: None,
        }
    }

    /// A bare backend over fresh per-home state: the "process restart"
    /// world for [`crate::journal`]'s redrive path — devices back at
    /// their spec initial states, nothing scheduled (in particular the
    /// failure plan is *not* re-injected; its past belongs to the
    /// crashed run). The sim's crash/restore injection reuses the
    /// *surviving* backend instead (see
    /// [`crate::runtime::HomeRuntime::crash`]).
    pub fn fresh(spec: &'a RunSpec) -> Self {
        Self::new(spec, &mut PooledHome::default())
    }

    /// Schedules the failure plan's injections and the detector's probe
    /// loops. Called *after* the runtime filled the arrival lane, which
    /// wins same-instant ties, so a submission precedes an injection due
    /// at the same instant.
    fn schedule_plan(&mut self) {
        let spec = self.spec;
        // Schedule ground-truth failures and the detector's probe loops.
        for ev in spec.failures.sorted_events() {
            let kind = if ev.is_failure {
                Ev::InjectFail(ev.device)
            } else {
                Ev::InjectRestart(ev.device)
            };
            self.schedule(ev.at, kind);
        }
        // Probes exist to detect health transitions, and a device the
        // failure plan never touches can never have one — every probe of
        // an always-healthy device is a no-op for the engine, the trace
        // and the RNG (it acks, re-arms its own deadline, and changes no
        // shared state). Skipping those loops per device drops the
        // dominant event-queue load of failure-injecting runs (≈ devices
        // × horizon / ping-interval events, of which only the plan's
        // devices ever matter) without changing the event stream at all.
        for d in spec.home.ids() {
            if spec.failures.involves(d) {
                let at = self.detector.next_probe_at(d);
                self.queue.schedule(at, Ev::Probe(d)); // probes are immaterial
            }
        }
    }

    fn schedule(&mut self, at: Timestamp, ev: Ev) {
        if is_material(&ev) {
            self.material += 1;
            if !matches!(ev, Ev::Submit(_)) {
                self.nonsubmit_material += 1;
            }
        }
        self.log_funnel(at);
        self.queue.schedule(at, ev);
    }

    /// Appends a traced backend's funnel entry for an event due at `at`.
    fn log_funnel(&mut self, at: Timestamp) {
        if let Some(st) = self.subtrace.as_mut() {
            let parent = match st.current {
                None => FunnelParent::Init { rank: st.rank },
                Some(pop) => FunnelParent::Pop { pop, rank: st.rank },
            };
            st.rank += 1;
            st.log.push(FunnelEntry {
                t_eff: at.max(self.queue.now()),
                parent,
            });
        }
    }

    /// Drains the funnel log of a traced backend (empty for untraced
    /// ones). The intra-home merge calls this once the sub-run is done.
    pub fn take_funnel_log(&mut self) -> Vec<FunnelEntry> {
        self.subtrace
            .as_mut()
            .map(|st| std::mem::take(&mut st.log))
            .unwrap_or_default()
    }

    /// Timestamp of the earliest pending simulation event, if any: the
    /// earlier of the lane's next arrival and the queue's earliest event.
    ///
    /// The resident service runner uses this to park a home between
    /// epochs: a home whose next event lies past the epoch boundary is
    /// re-queued on the timer wheel instead of being stepped. Peeking
    /// never perturbs the lane or the queue, so slicing a run at
    /// arbitrary epoch boundaries replays the exact event sequence of an
    /// unsliced run.
    pub fn next_event_at(&self) -> Option<Timestamp> {
        let queued = self.queue.peek_time();
        match self.arrivals.get(self.next_arrival) {
            Some(&(at, _)) => Some(queued.map_or(at, |q| q.min(at))),
            None => queued,
        }
    }

    /// `true` when every pending material event is a future workload
    /// submission — a lane arrival or a released dependent, with no device
    /// I/O, injections or engine timers in flight. Together with engine
    /// quiescence and an empty failure plan (so no probe loops) this is
    /// the service runner's evictability condition: the world then reduces
    /// to a [`WorldSnapshot`] — device states, RNG position, the lane and
    /// the released dependents — while the controller stays whole in the
    /// runtime core.
    pub fn only_submits_pending(&self) -> bool {
        self.nonsubmit_material == 0
    }

    /// Approximate heap bytes this backend pins while resident, in O(1):
    /// the event queue (one fixed bucket array plus a slab and a far heap
    /// sized by the most events it has held at once), the arrival lane
    /// and the device slots. An evicted home keeps a [`WorldSnapshot`]
    /// instead.
    pub fn approx_resident_bytes(&self) -> usize {
        self.queue.approx_bytes()
            + self.arrivals.capacity() * std::mem::size_of::<Due>()
            + self.devices.capacity() * std::mem::size_of::<VirtualDevice>()
    }

    /// Tears a backend at rest down to its [`WorldSnapshot`], recycling
    /// the queue and device storage into the thread's home pool. The
    /// arrival lane moves into the snapshot whole, cursor and all, so
    /// however many arrivals are still pending none of them is touched.
    /// The queue is drained in pop order — time, then insertion order —
    /// and at rest it holds only released `After` dependents, so
    /// [`Self::resurrect`] can re-schedule them in that same order.
    ///
    /// Only sound at an eviction point: engine quiescent,
    /// [`Self::only_submits_pending`] and an empty failure plan. Any other
    /// pending event would be lost (debug builds assert there is none).
    pub fn into_world_snapshot(mut self) -> WorldSnapshot {
        let mut queued = Vec::with_capacity(self.material);
        while let Some((at, ev)) = self.queue.pop() {
            debug_assert!(
                matches!(ev, Ev::Submit(_)),
                "{ev:?} pending at an eviction point"
            );
            if let Ev::Submit(i) = ev {
                queued.push((at, i));
            }
        }
        let device_states = self.devices.iter().map(VirtualDevice::state).collect();
        recycle_home(PooledHome {
            queue: std::mem::take(&mut self.queue),
            arrivals: Vec::new(),
            devices: std::mem::take(&mut self.devices),
            tables: HomeTables::default(),
        });
        WorldSnapshot {
            device_states,
            rng: self.rng,
            arrivals: std::mem::take(&mut self.arrivals),
            next_arrival: self.next_arrival,
            queued,
        }
    }

    /// Rebuilds a backend from a [`WorldSnapshot`]: pooled storage,
    /// device states forced back, the RNG resumed at its parked position,
    /// the lane restored at its cursor, and the drained dependents
    /// re-scheduled in their pop order. The queue pops by time, then
    /// insertion order, and the lane still wins ties, so the rebuilt
    /// backend pops every pending submission exactly as the torn-down one
    /// would have; with the home's own core ([`HomeRuntime::resume`]) the
    /// run continues event-for-event as if it had never been evicted. The
    /// failure plan is not re-injected because eviction requires an empty
    /// one. The clock reads zero until the first pop.
    pub fn resurrect(spec: &'a RunSpec, world: WorldSnapshot) -> Self {
        let mut pooled = pooled_home();
        let mut backend = SimBackend::new(spec, &mut pooled);
        for (slot, &v) in backend.devices.iter_mut().zip(&world.device_states) {
            slot.force_state(v);
        }
        backend.rng = world.rng;
        backend.arrivals = world.arrivals;
        backend.next_arrival = world.next_arrival;
        for (at, i) in world.queued {
            backend.schedule(at, Ev::Submit(i));
        }
        backend
    }
}

/// What a simulated world at rest reduces to (see
/// [`SimBackend::into_world_snapshot`]): device states, the latency RNG
/// position, the arrival lane with its cursor and the released `After`
/// dependents the queue still held. The service runner parks one beside
/// an evicted home's runtime core.
pub struct WorldSnapshot {
    /// Per-device states, indexed by device id.
    device_states: Vec<Value>,
    /// The latency RNG, parked mid-stream.
    rng: SimRng,
    /// The backend's arrival lane, kept whole (see [`SimBackend`]).
    arrivals: Vec<Due>,
    /// Index of the lane's next unconsumed arrival.
    next_arrival: usize,
    /// Submissions drained from the queue — released `After` dependents —
    /// as `(time, workload index)`, in pop order.
    queued: Vec<Due>,
}

impl WorldSnapshot {
    /// Approximate heap bytes, by capacity.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.device_states.capacity() * std::mem::size_of::<Value>()
            + std::mem::size_of::<SimRng>()
            + (self.arrivals.capacity() + self.queued.capacity()) * std::mem::size_of::<Due>()
    }

    /// The pending submissions: the lane's unconsumed arrivals and the
    /// drained dependents, each in pop order.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> (&[Due], &[Due]) {
        (&self.arrivals[self.next_arrival..], &self.queued)
    }

    /// Takes every pending submission out of the snapshot — the lane's
    /// unconsumed tail merged with the drained queue, the lane first at
    /// an equal instant — in the order the backend would have popped
    /// them.
    #[cfg(test)]
    pub(crate) fn take_pending_submits(&mut self) -> Vec<Due> {
        let (lane, queued) = self.pending();
        let mut merged = Vec::with_capacity(lane.len() + queued.len());
        let (mut a, mut q) = (0, 0);
        while a < lane.len() || q < queued.len() {
            if q < queued.len() && (a == lane.len() || queued[q].0 < lane[a].0) {
                merged.push(queued[q]);
                q += 1;
            } else {
                merged.push(lane[a]);
                a += 1;
            }
        }
        self.next_arrival = self.arrivals.len();
        self.queued.clear();
        merged
    }
}

impl Backend for SimBackend<'_> {
    fn idle(&self) -> bool {
        self.material == 0 && self.next_arrival == self.arrivals.len()
    }

    fn now(&self) -> Timestamp {
        self.queue.now()
    }

    fn dispatch(&mut self, now: Timestamp, device: DeviceId, ticket: DispatchTicket) {
        let net = self.latency.sample(&mut self.rng);
        self.schedule(now + net, Ev::DeviceArrive(device, ticket));
    }

    fn set_timer(&mut self, at: Timestamp, timer: TimerId) {
        self.schedule(at, Ev::EngineTimer(timer));
    }

    fn schedule_submit(&mut self, at: Timestamp, index: usize) {
        self.schedule(at, Ev::Submit(index));
    }

    /// Fills the arrival lane: one funnel entry per arrival in index
    /// order (construction ranks), then a stable sort by time, skipped
    /// when the workload already lists its arrivals in time order.
    fn schedule_arrivals(&mut self, arrivals: impl Iterator<Item = (Timestamp, usize)>) {
        debug_assert!(
            self.arrivals.is_empty() && self.queue.is_empty(),
            "arrivals are handed over first, once"
        );
        for (at, index) in arrivals {
            self.log_funnel(at);
            self.arrivals.push((at, index));
        }
        if !self.arrivals.is_sorted_by_key(|&(at, _)| at) {
            self.arrivals.sort_by_key(|&(at, _)| at);
        }
    }

    fn poll<S: TraceSink>(&mut self, core: &mut RuntimeCore<'_, S>) -> Polled {
        // Decide on the earliest pending instant and consume nothing past
        // the horizon: a caller extending it via `set_horizon` resumes in
        // exactly the order an unstalled run pops.
        let horizon = core.horizon();
        let lane = self.arrivals.get(self.next_arrival).copied();
        // A queued event goes first only when it is due strictly before
        // the lane head: the lane wins ties (see the type's docs).
        let queue_limit = match lane {
            Some((at, _)) => at
                .as_millis()
                .checked_sub(1)
                .map(|ms| horizon.min(Timestamp::from_millis(ms))),
            None => Some(horizon),
        };
        let queued = queue_limit.and_then(|limit| self.queue.pop_due(limit));
        let (now, ev) = match (queued, lane) {
            (Some((now, ev)), _) => {
                if is_material(&ev) {
                    self.material -= 1;
                    if !matches!(ev, Ev::Submit(_)) {
                        self.nonsubmit_material -= 1;
                    }
                }
                (now, ev)
            }
            (None, Some((at, index))) if at <= horizon => {
                self.next_arrival += 1;
                let advanced = self.queue.advance_to(at);
                debug_assert!(advanced, "an arrival popped behind a queued event");
                (at, Ev::Submit(index))
            }
            (None, None) if self.queue.is_empty() => return Polled::Exhausted,
            (None, _) => return Polled::PastHorizon,
        };
        if let Some(st) = self.subtrace.as_mut() {
            st.current = Some(st.pops);
            st.pops += 1;
            st.rank = 0;
            core.mark_pop_boundary();
        }
        match ev {
            Ev::Submit(i) => core.submit_indexed(i, now, self),
            Ev::DeviceArrive(d, ticket) => {
                if let Some(at) = self.devices[d.index()].dispatch(ticket, now) {
                    self.schedule(at, Ev::DeviceComplete(d));
                }
            }
            Ev::InjectFail(d) => {
                if let Some(reply_at) = self.devices[d.index()].fail(now) {
                    self.schedule(reply_at, Ev::DeviceComplete(d));
                }
            }
            Ev::InjectRestart(d) => self.devices[d.index()].restart(),
            Ev::DeviceComplete(d) => {
                let (event, next) = self.devices[d.index()].on_completion_timer(now);
                if let Some(at) = next {
                    self.schedule(at, Ev::DeviceComplete(d));
                }
                match event {
                    None => {} // Stale timer (failure moved the reply).
                    Some(DeviceEvent::Completed {
                        ticket,
                        new_state,
                        observed,
                    }) => {
                        let detection = self.detector.on_ack(d, now);
                        core.on_command(
                            now,
                            CommandOutcome {
                                device: d,
                                ticket,
                                success: true,
                                observed,
                                new_state,
                                detection,
                            },
                            self,
                        );
                    }
                    Some(DeviceEvent::Failed { ticket }) => {
                        // A dead command reply is also an implicit
                        // detection: the edge times out on the call.
                        let detection = self.detector.on_timeout(d, now);
                        core.on_command(
                            now,
                            CommandOutcome {
                                device: d,
                                ticket,
                                success: false,
                                observed: None,
                                new_state: None,
                                detection,
                            },
                            self,
                        );
                    }
                }
            }
            Ev::Probe(d) => {
                if !self.detector.probe_due(d, now) {
                    // An implicit ack pushed the deadline; re-arm lazily.
                    let at = self.detector.next_probe_at(d);
                    self.queue.schedule(at, Ev::Probe(d));
                } else if self.devices[d.index()].health() == Health::Up {
                    if let Some(det) = self.detector.on_ack(d, now) {
                        core.emit_detection(det, now, self);
                    }
                    let at = self.detector.next_probe_at(d);
                    self.queue.schedule(at, Ev::Probe(d));
                } else {
                    self.queue
                        .schedule(now + self.spec.detect_timeout, Ev::ProbeTimeout(d));
                }
            }
            Ev::ProbeTimeout(d) => {
                if self.devices[d.index()].health() == Health::Up {
                    // Restarted inside the probe window: counts as an ack.
                    if let Some(det) = self.detector.on_ack(d, now) {
                        core.emit_detection(det, now, self);
                    }
                } else if let Some(det) = self.detector.on_timeout(d, now) {
                    core.emit_detection(det, now, self);
                }
                let at = self.detector.next_probe_at(d);
                self.queue.schedule(at, Ev::Probe(d));
            }
            Ev::EngineTimer(timer) => core.on_timer(timer, now, self),
        }
        Polled::Event(now)
    }

    fn end_states(&mut self) -> BTreeMap<DeviceId, Value> {
        self.spec
            .home
            .ids()
            .map(|d| (d, self.devices[d.index()].state()))
            .collect()
    }

    fn reclaim(&mut self, tables: HomeTables) {
        recycle_home(PooledHome {
            queue: std::mem::take(&mut self.queue),
            arrivals: std::mem::take(&mut self.arrivals),
            devices: std::mem::take(&mut self.devices),
            tables,
        });
    }
}

/// A stepped simulation driver over one [`RunSpec`]: the [`HomeRuntime`]
/// bound to the discrete-event [`SimBackend`].
///
/// Construction fills the arrival lane and schedules the failure plan and
/// detector probe loops; each [`HomeRuntime::step`] takes and processes
/// one event. The
/// driver is deterministic: equal specs (including the seed) produce
/// identical event streams regardless of how stepping is interleaved
/// with inspection.
pub type Driver<'a, S = Trace> = HomeRuntime<'a, SimBackend<'a>, S>;

impl<'a> Driver<'a, Trace> {
    /// A driver recording the full execution trace.
    ///
    /// # Panics
    ///
    /// Panics if a submission references an unknown device (specs are
    /// authored by the workload generators, which validate against the
    /// home).
    pub fn new(spec: &'a RunSpec) -> Self {
        let trace = Trace::new(spec.home.initial_states());
        Driver::with_sink(spec, trace)
    }
}

impl<'a, S: TraceSink> Driver<'a, S> {
    /// A driver reporting to the given sink.
    pub fn with_sink(spec: &'a RunSpec, sink: S) -> Self {
        Self::build(spec, sink, None)
    }

    /// A driver that additionally records a durable execution journal
    /// (see [`crate::journal`]). Journaling never touches the sink, so
    /// the event stream — and the per-home digest — is identical to
    /// [`Driver::with_sink`]'s; it only adds the crash/recover ability:
    /// [`HomeRuntime::crash`] at any step boundary yields the journal
    /// plus the surviving backend, `crate::journal::recover` rebuilds the
    /// core, and [`HomeRuntime::resume`] continues the run.
    pub fn with_journal(spec: &'a RunSpec, sink: S) -> Self {
        Self::build(
            spec,
            sink,
            Some(JournalWriter::record(ExecutionJournal::new())),
        )
    }

    /// A driver with funnel logging enabled — the intra-home sub-run
    /// variant. Behaves event-for-event like [`Driver::with_sink`]; in
    /// addition the backend records one [`FunnelEntry`] per scheduled
    /// event (construction included) and the sink sees a
    /// [`TraceSink::pop_boundary`] before every handled pop, which
    /// together let [`crate::intra`] merge sub-runs deterministically.
    pub fn with_sink_traced(spec: &'a RunSpec, sink: S) -> Self {
        Self::build_traced(spec, sink, None, true)
    }

    fn build(spec: &'a RunSpec, sink: S, journal: Option<JournalWriter>) -> Self {
        Self::build_traced(spec, sink, journal, false)
    }

    fn build_traced(
        spec: &'a RunSpec,
        sink: S,
        journal: Option<JournalWriter>,
        traced: bool,
    ) -> Self {
        let mut pooled = pooled_home();
        let mut backend = SimBackend::new(spec, &mut pooled);
        if traced {
            backend.subtrace = Some(SubTrace::default());
        }
        let engine = Engine::new(spec.config.clone(), &spec.home.initial_states());
        let mut driver = HomeRuntime::assemble(
            engine,
            sink,
            &spec.submissions,
            spec.max_time,
            pooled.tables,
            backend,
            journal,
        );
        // Workload first, then injections and probes: the lane wins
        // same-instant ties, so an arrival precedes an injection due at
        // the same instant.
        driver.backend_mut().schedule_plan();
        driver
    }
}

/// Runs a spec to quiescence and returns its full trace.
///
/// # Panics
///
/// Panics if a submission references an unknown device (specs are authored
/// by the workload generators, which validate against the home).
pub fn run(spec: &RunSpec) -> RunOutput {
    let mut driver = Driver::new(spec);
    driver.run_to_quiescence();
    let (trace, committed_states, completed) = driver.into_output();
    RunOutput {
        trace,
        completed,
        committed_states,
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Submission;
    use safehome_core::{EngineConfig, VisibilityModel};
    use safehome_devices::catalog::plug_home;
    use safehome_devices::FailurePlan;
    use safehome_types::sink::RunCounters;
    use safehome_types::trace::{RoutineOutcome, TraceEventKind};
    use safehome_types::Routine;

    fn d(i: u32) -> DeviceId {
        DeviceId(i)
    }

    fn all_models() -> Vec<VisibilityModel> {
        vec![
            VisibilityModel::Wv,
            VisibilityModel::Gsv { strong: false },
            VisibilityModel::Gsv { strong: true },
            VisibilityModel::Psv,
            VisibilityModel::ev(),
            VisibilityModel::Ev {
                scheduler: safehome_core::SchedulerKind::Fcfs,
            },
            VisibilityModel::Ev {
                scheduler: safehome_core::SchedulerKind::Jit,
            },
        ]
    }

    fn simple_routine(devs: &[u32], v: Value) -> Routine {
        let mut b = Routine::builder("r");
        for &i in devs {
            b = b.set(d(i), v, TimeDelta::from_millis(100));
        }
        b.build()
    }

    #[test]
    fn single_routine_completes_under_every_model() {
        for model in all_models() {
            let mut spec = RunSpec::new(plug_home(3), EngineConfig::new(model));
            spec.submit(Submission::at(
                simple_routine(&[0, 1, 2], Value::ON),
                Timestamp::ZERO,
            ));
            let out = run(&spec);
            assert!(out.completed, "{model:?}");
            assert_eq!(out.trace.committed().len(), 1, "{model:?}");
            for i in 0..3 {
                assert_eq!(out.trace.end_states[&d(i)], Value::ON, "{model:?}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut spec =
                RunSpec::new(plug_home(5), EngineConfig::new(VisibilityModel::ev())).with_seed(42);
            for i in 0..5u64 {
                spec.submit(Submission::at(
                    simple_routine(&[(i % 5) as u32, ((i + 1) % 5) as u32], Value::ON),
                    Timestamp::from_millis(i * 30),
                ));
            }
            spec
        };
        let a = run(&mk());
        let b = run(&mk());
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn stepped_driver_matches_one_shot_run() {
        let mk = || {
            let mut spec =
                RunSpec::new(plug_home(4), EngineConfig::new(VisibilityModel::ev())).with_seed(9);
            for i in 0..4u64 {
                spec.submit(Submission::at(
                    simple_routine(&[(i % 4) as u32, ((i + 2) % 4) as u32], Value::ON),
                    Timestamp::from_millis(i * 25),
                ));
            }
            spec
        };
        let one_shot = run(&mk());
        let spec = mk();
        let mut driver = Driver::new(&spec);
        let mut events = 0usize;
        let mut last = Timestamp::ZERO;
        loop {
            match driver.step() {
                Step::Event(at) => {
                    assert!(at >= last, "virtual time went backwards");
                    last = at;
                    events += 1;
                }
                Step::Quiescent => break,
                Step::Stalled => panic!("run stalled"),
                Step::Idle => unreachable!("the simulation backend never idles"),
            }
        }
        assert!(events > 0);
        assert!(driver.is_done());
        // Stepping past the end keeps reporting the terminal state.
        assert_eq!(driver.step(), Step::Quiescent);
        let (trace, committed, completed) = driver.into_output();
        assert!(completed);
        assert_eq!(trace, one_shot.trace);
        assert_eq!(committed, one_shot.committed_states);
    }

    #[test]
    fn counter_sink_matches_full_trace() {
        // The counters-only sink must agree with the full recorder on
        // every aggregate it keeps, including under failures.
        let mk = || {
            let mut spec =
                RunSpec::new(plug_home(6), EngineConfig::new(VisibilityModel::ev())).with_seed(3);
            spec.failures = FailurePlan::none().fail(d(5), Timestamp::from_millis(400));
            for i in 0..6u64 {
                spec.submit(Submission::at(
                    simple_routine(&[(i % 6) as u32, ((i + 1) % 6) as u32], Value::ON),
                    Timestamp::from_millis(i * 200),
                ));
            }
            spec
        };
        let full = run(&mk());
        let spec = mk();
        let mut driver = Driver::with_sink(&spec, RunCounters::new());
        assert!(driver.run_to_quiescence());
        let (counters, committed, _) = driver.into_output();
        assert_eq!(counters.submitted as usize, full.trace.records.len());
        assert_eq!(counters.committed as usize, full.trace.committed().len());
        assert_eq!(counters.aborted as usize, full.trace.aborted().len());
        assert_eq!(counters.end_time, full.trace.end_time());
        let skips: u32 = full
            .trace
            .records
            .values()
            .map(|r| r.best_effort_skipped)
            .sum();
        assert_eq!(counters.best_effort_skipped, skips as u64);
        assert_eq!(
            counters.latencies_ms.len(),
            (counters.committed + counters.aborted) as usize
        );
        assert_eq!(committed, full.committed_states);
        // End-state congruence holds for EV outside the failed device.
        assert!(counters.congruent);
    }

    #[test]
    fn chained_submission_waits_for_predecessor() {
        let mut spec = RunSpec::new(plug_home(2), EngineConfig::new(VisibilityModel::ev()));
        let first = spec.submit(Submission::at(
            simple_routine(&[0], Value::ON),
            Timestamp::ZERO,
        ));
        spec.submit(Submission::after(
            simple_routine(&[1], Value::ON),
            first,
            TimeDelta::from_secs(1),
        ));
        let out = run(&spec);
        assert!(out.completed);
        let ids = out.trace.submission_order();
        let r1 = &out.trace.records[&ids[0]];
        let r2 = &out.trace.records[&ids[1]];
        assert_eq!(
            r2.submitted,
            r1.finished.unwrap() + TimeDelta::from_secs(1),
            "dependent submitted exactly one second after predecessor"
        );
    }

    #[test]
    fn deferred_routine_released_at_quiescence_instant_still_runs() {
        // Regression for the unified quiescence bookkeeping: when the
        // predecessor's commit is the last material event, the zero-delay
        // dependent is released at the very instant the engine quiesces —
        // the runtime must schedule it (and count it as outstanding
        // backend work) before the next step's quiescence check, or the
        // run would end with the dependent never submitted. The kasa
        // backend has the mirror test
        // (`deferred_routine_at_quiescence_still_runs`).
        let mut spec = RunSpec::new(plug_home(2), EngineConfig::new(VisibilityModel::ev()));
        let first = spec.submit(Submission::at(
            simple_routine(&[0], Value::ON),
            Timestamp::ZERO,
        ));
        spec.submit(Submission::after(
            simple_routine(&[1], Value::ON),
            first,
            TimeDelta::ZERO,
        ));
        let out = run(&spec);
        assert!(out.completed);
        assert_eq!(out.trace.committed().len(), 2, "the dependent ran too");
        assert_eq!(out.trace.end_states[&d(1)], Value::ON);
    }

    #[test]
    fn fail_stop_devices_abort_must_routines() {
        // Device 0 dies before the routine reaches it.
        let mut spec = RunSpec::new(plug_home(2), EngineConfig::new(VisibilityModel::ev()));
        spec.failures = FailurePlan::none().fail(d(0), Timestamp::ZERO);
        spec.submit(Submission::at(
            simple_routine(&[1, 0], Value::ON),
            Timestamp::from_secs(10), // well past detection
        ));
        let out = run(&spec);
        assert!(out.completed);
        let id = out.trace.submission_order()[0];
        assert!(out.trace.records[&id].aborted());
        // Failure event appears in the final order.
        assert!(out
            .trace
            .final_order
            .iter()
            .any(|o| matches!(o, safehome_types::trace::OrderItem::Failure(dev) if *dev == d(0))));
        // Device 1's ON was rolled back by the abort.
        assert_eq!(out.trace.end_states[&d(1)], Value::OFF);
    }

    #[test]
    fn failure_detection_is_recorded_within_interval_plus_timeout() {
        let mut spec = RunSpec::new(plug_home(1), EngineConfig::new(VisibilityModel::ev()));
        spec.failures = FailurePlan::none().fail(d(0), Timestamp::from_millis(2_500));
        spec.submit(Submission::at(
            simple_routine(&[0], Value::ON),
            Timestamp::ZERO,
        ));
        // A second, later submission keeps the run alive through the
        // detection window (it aborts on the dead device, which is fine).
        spec.submit(Submission::at(
            simple_routine(&[0], Value::ON),
            Timestamp::from_secs(5),
        ));
        let out = run(&spec);
        let detect = out
            .trace
            .events
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::DeviceDownDetected { .. }))
            .expect("failure detected");
        let lag = detect.at.since(Timestamp::from_millis(2_500));
        assert!(
            lag <= TimeDelta::from_millis(1_100),
            "detection lag {lag} exceeds interval+timeout"
        );
    }

    #[test]
    fn recovery_is_detected_by_probes() {
        let mut spec = RunSpec::new(plug_home(1), EngineConfig::new(VisibilityModel::ev()));
        spec.failures = FailurePlan::none().fail_recover(
            d(0),
            Timestamp::from_millis(1_500),
            TimeDelta::from_secs(3),
        );
        // A late routine keeps the run going past the recovery.
        spec.submit(Submission::at(
            simple_routine(&[0], Value::ON),
            Timestamp::from_secs(10),
        ));
        let out = run(&spec);
        assert!(out.completed);
        assert!(out
            .trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::DeviceUpDetected { .. })));
        // The routine ran after recovery and succeeded.
        let id = out.trace.submission_order()[0];
        assert!(out.trace.records[&id].committed());
        assert_eq!(out.trace.end_states[&d(0)], Value::ON);
    }

    #[test]
    fn best_effort_skip_is_traced_and_routine_commits() {
        let mut spec = RunSpec::new(plug_home(2), EngineConfig::new(VisibilityModel::ev()));
        spec.failures = FailurePlan::none().fail(d(0), Timestamp::ZERO);
        let r = Routine::builder("leave-home")
            .set_best_effort(d(0), Value::ON, TimeDelta::from_millis(100))
            .set(d(1), Value::ON, TimeDelta::from_millis(100))
            .build();
        spec.submit(Submission::at(r, Timestamp::from_secs(5)));
        let out = run(&spec);
        let id = out.trace.submission_order()[0];
        let rec = &out.trace.records[&id];
        assert_eq!(rec.outcome, Some(RoutineOutcome::Committed));
        assert_eq!(rec.best_effort_skipped, 1);
        assert_eq!(out.trace.end_states[&d(1)], Value::ON);
    }

    #[test]
    fn skipped_best_effort_device_is_not_first_touched() {
        // Regression: a best-effort command skipped without dispatching
        // must not count as the routine's "first touch" of its device. A
        // later failure of that device while the routine is mid-flight
        // elsewhere must not abort it (rules 2/4 resolve at dispatch),
        // and once the device recovers the routine's real first touch
        // serializes the failure/restart pair *before* the routine.
        for scheduler in [
            safehome_core::SchedulerKind::Fcfs,
            safehome_core::SchedulerKind::Jit,
            safehome_core::SchedulerKind::Timeline,
        ] {
            let mut spec = RunSpec::new(
                plug_home(2),
                EngineConfig::new(VisibilityModel::Ev { scheduler }),
            );
            // d0 is down when the routine skips its best-effort command on
            // it, then fails AGAIN at t=10s while the routine is mid-way
            // through its long d1 command, and finally recovers before the
            // routine's must command on d0. The second failure must not
            // abort the routine: it never actually dispatched on d0.
            spec.failures = FailurePlan::none()
                .fail_recover(d(0), Timestamp::ZERO, TimeDelta::from_secs(8))
                .fail_recover(d(0), Timestamp::from_secs(10), TimeDelta::from_secs(4));
            let r = Routine::builder("be-then-must")
                .set_best_effort(d(0), Value::ON, TimeDelta::from_millis(100))
                .set(d(1), Value::ON, TimeDelta::from_secs(20))
                .set(d(0), Value::ON, TimeDelta::from_millis(100))
                .build();
            spec.submit(Submission::at(r, Timestamp::from_secs(5)));
            let out = run(&spec);
            assert!(out.completed, "{scheduler:?}");
            let id = out.trace.submission_order()[0];
            assert!(
                out.trace.records[&id].committed(),
                "skipped best-effort is not a touch; the routine survives \
                 the failure and commits ({scheduler:?})"
            );
            assert_eq!(out.trace.end_states[&d(0)], Value::ON, "{scheduler:?}");
        }
    }

    #[test]
    fn wv_concurrent_opposing_routines_can_interleave() {
        // Fig. 1's setup: all-ON vs all-OFF with a start offset smaller
        // than the per-call network jitter ends incongruent for at least
        // one seed under WV's open-loop dispatch.
        let mut mixed = 0;
        for seed in 0..20 {
            let mut spec =
                RunSpec::new(plug_home(6), EngineConfig::new(VisibilityModel::Wv)).with_seed(seed);
            spec.submit(Submission::at(
                simple_routine(&[0, 1, 2, 3, 4, 5], Value::ON),
                Timestamp::ZERO,
            ));
            spec.submit(Submission::at(
                simple_routine(&[0, 1, 2, 3, 4, 5], Value::OFF),
                Timestamp::from_millis(10),
            ));
            let out = run(&spec);
            let states: Vec<Value> = (0..6).map(|i| out.trace.end_states[&d(i)]).collect();
            let all_on = states.iter().all(|&v| v == Value::ON);
            let all_off = states.iter().all(|&v| v == Value::OFF);
            if !all_on && !all_off {
                mixed += 1;
            }
        }
        assert!(
            mixed > 0,
            "WV should produce at least one incongruent end state"
        );
    }

    #[test]
    fn ev_concurrent_opposing_routines_stay_congruent() {
        for seed in 0..20 {
            let mut spec = RunSpec::new(plug_home(6), EngineConfig::new(VisibilityModel::ev()))
                .with_seed(seed);
            spec.submit(Submission::at(
                simple_routine(&[0, 1, 2, 3, 4, 5], Value::ON),
                Timestamp::ZERO,
            ));
            spec.submit(Submission::at(
                simple_routine(&[0, 1, 2, 3, 4, 5], Value::OFF),
                Timestamp::from_millis(10),
            ));
            let out = run(&spec);
            assert!(out.completed);
            let states: Vec<Value> = (0..6).map(|i| out.trace.end_states[&d(i)]).collect();
            let all_on = states.iter().all(|&v| v == Value::ON);
            let all_off = states.iter().all(|&v| v == Value::OFF);
            assert!(
                all_on || all_off,
                "EV must serialize: {states:?} (seed {seed})"
            );
        }
    }

    /// A one-command routine named after its workload index.
    fn named_routine(index: usize, device: u32) -> Routine {
        Routine::builder(format!("s{index}"))
            .set(d(device), Value::ON, TimeDelta::from_millis(50))
            .build()
    }

    /// Workload indices in the order the run submitted them.
    fn submitted_indices(trace: &Trace) -> Vec<usize> {
        trace
            .records
            .values()
            .map(|r| r.routine.name[1..].parse().expect("named_routine"))
            .collect()
    }

    /// Runs `spec` under a 5 s horizon until it stalls, extends the
    /// horizon past the workload and finishes; returns the counters of
    /// that run and of one that ran under the wide horizon throughout.
    fn stalled_and_straight(spec: &mut RunSpec) -> (RunCounters, RunCounters) {
        let wide = Timestamp::from_secs(3_600);
        spec.max_time = wide;
        let mut straight = Driver::with_sink(spec, RunCounters::new());
        assert!(straight.run_to_quiescence());
        let (straight, _, _) = straight.into_output();
        spec.max_time = Timestamp::from_secs(5);
        let mut stalled = Driver::with_sink(spec, RunCounters::new());
        assert!(!stalled.run_to_quiescence(), "the short horizon stalls");
        stalled.set_horizon(wide);
        assert!(stalled.run_to_quiescence(), "the wide horizon finishes");
        let (resumed, _, _) = stalled.into_output();
        (resumed, straight)
    }

    #[test]
    fn extending_a_stalled_horizon_resumes_in_order() {
        // Two arrivals due together past a 5 s horizon: the stall must
        // consume neither, so the resumed run submits them in index order.
        let mut spec = RunSpec::new(plug_home(2), EngineConfig::new(VisibilityModel::ev()));
        for i in 0..2 {
            spec.submit(Submission::at(
                named_routine(i, i as u32),
                Timestamp::from_secs(10),
            ));
        }
        let (resumed, straight) = stalled_and_straight(&mut spec);
        assert_eq!(resumed.committed, 2);
        assert_eq!(resumed, straight, "arrivals past the horizon");

        // Two `After` dependents released at one instant past the horizon
        // sit in the queue, not the lane; the stall must keep their order.
        let mut spec = RunSpec::new(plug_home(3), EngineConfig::new(VisibilityModel::ev()));
        let first = spec.submit(Submission::at(named_routine(0, 0), Timestamp::ZERO));
        for i in 1..3 {
            spec.submit(Submission::after(
                named_routine(i, i as u32),
                first,
                TimeDelta::from_secs(10),
            ));
        }
        let (resumed, straight) = stalled_and_straight(&mut spec);
        assert_eq!(resumed.committed, 3);
        assert_eq!(resumed, straight, "released dependents past the horizon");
    }

    #[test]
    fn arrival_lane_submits_by_time_then_index_ahead_of_queued_events() {
        // 48 arrivals listed out of time order over four instants (so
        // many tie), plus an `After` dependent released into the queue at
        // one of those instants. Fixed latency makes every time exact.
        let mut spec = RunSpec::new(plug_home(5), EngineConfig::new(VisibilityModel::ev()));
        spec.latency = safehome_devices::LatencyModel::Fixed(TimeDelta::from_millis(25));
        let mut x = 0x1A7E_u64;
        let mut arrivals = Vec::new();
        for i in 0..48 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = Timestamp::from_millis(100 * (1 + (x >> 33) % 4));
            arrivals.push((
                at,
                spec.submit(Submission::at(named_routine(i, (i % 4) as u32), at)),
            ));
        }
        // Device 4 is the predecessor's alone: submitted at 50 ms, it
        // commits at 50 + 25 (latency) + 50 (actuation) = 125 ms, and the
        // dependent comes due with the 300 ms arrivals.
        let pred = spec.submit(Submission::at(
            named_routine(48, 4),
            Timestamp::from_millis(50),
        ));
        arrivals.push((Timestamp::from_millis(50), pred));
        let dep = spec.submit(Submission::after(
            named_routine(49, 4),
            pred,
            TimeDelta::from_millis(175),
        ));
        assert!(
            !arrivals.is_sorted_by_key(|&(at, _)| at),
            "the workload lists its arrivals out of time order"
        );

        let out = run(&spec);
        assert!(out.completed);
        let dep_record = out
            .trace
            .records
            .values()
            .find(|r| r.routine.name == "s49")
            .expect("the dependent ran");
        let tie = Timestamp::from_millis(300);
        assert_eq!(
            dep_record.submitted, tie,
            "the dependent ties with arrivals"
        );

        let mut want = arrivals;
        want.sort_by_key(|&(at, _)| at); // stable: index order among ties
        let after_tie = want.partition_point(|&(at, _)| at <= tie);
        want.insert(after_tie, (tie, dep));
        let want: Vec<usize> = want.into_iter().map(|(_, i)| i).collect();
        assert_eq!(submitted_indices(&out.trace), want);
    }

    #[test]
    fn evicting_an_unstepped_home_drains_nothing() {
        let mut spec =
            RunSpec::new(plug_home(3), EngineConfig::new(VisibilityModel::ev())).with_seed(5);
        for (i, at) in [900u64, 300, 600, 300].into_iter().enumerate() {
            spec.submit(Submission::at(
                named_routine(i, i as u32 % 3),
                Timestamp::from_secs(at),
            ));
        }
        let want = run(&spec);

        let driver = Driver::new(&spec);
        assert!(
            driver.backend().queue.is_empty(),
            "absolute arrivals stay out of the queue"
        );
        assert_eq!(
            driver.backend().next_event_at(),
            Some(Timestamp::from_secs(300))
        );
        let HomeRuntime { core, backend } = driver;
        let world = backend.into_world_snapshot();
        let (lane, queued) = world.pending();
        assert!(queued.is_empty(), "eviction popped no event");
        let lane: Vec<usize> = lane.iter().map(|&(_, i)| i).collect();
        assert_eq!(
            lane,
            [1, 3, 2, 0],
            "the lane moved over whole, in pop order"
        );

        let mut resumed = HomeRuntime::resume(core, SimBackend::resurrect(&spec, world));
        assert!(resumed.run_to_quiescence());
        let (trace, committed, _) = resumed.into_output();
        assert_eq!(trace, want.trace);
        assert_eq!(committed, want.committed_states);
    }

    #[test]
    fn pipelined_breakfast_is_faster_under_ev_than_gsv() {
        let breakfast = || {
            Routine::builder("breakfast")
                .set(d(0), Value::ON, TimeDelta::from_secs(240))
                .set(d(0), Value::OFF, TimeDelta::from_millis(100))
                .set(d(1), Value::ON, TimeDelta::from_secs(300))
                .set(d(1), Value::OFF, TimeDelta::from_millis(100))
                .build()
        };
        let run_model = |model: VisibilityModel| {
            let mut spec = RunSpec::new(plug_home(2), EngineConfig::new(model));
            spec.submit(Submission::at(breakfast(), Timestamp::ZERO));
            spec.submit(Submission::at(breakfast(), Timestamp::from_millis(10)));
            let out = run(&spec);
            assert!(out.completed);
            out.trace.end_time()
        };
        let ev = run_model(VisibilityModel::ev());
        let gsv = run_model(VisibilityModel::Gsv { strong: false });
        assert!(
            ev.as_millis() < gsv.as_millis(),
            "EV ({ev}) should finish before GSV ({gsv})"
        );
    }
}
