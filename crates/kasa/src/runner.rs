//! A real-time runner: the same engine — and the same runtime.
//!
//! Where `safehome-harness` drives the [`HomeRuntime`] over virtual
//! time, this runner drives the *identical* runtime over wall-clock time
//! against Kasa devices (emulated or physical): [`KasaBackend`]
//! implements the harness's [`Backend`] trait, turning dispatch effects
//! into driver calls on worker threads, `SetTimer` effects into deadline
//! waits on the same deterministic [`EventQueue`] the simulator uses
//! (run-relative milliseconds are the shared time axis), and a ping
//! thread into detector transitions. This is the edge-device deployment
//! shape of §6 — and because the mediation layer is shared, the runner
//! gets [`TraceSink`] reporting (full [`Trace`] or
//! [`safehome_types::sink::RunCounters`]), scheduled/`After`-chained
//! workloads and the harness's quiescence bookkeeping for free.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use std::sync::mpsc::{channel as unbounded, Receiver, Sender};

use safehome_core::journal::{ExecutionJournal, JournalWriter};
use safehome_core::{Engine, EngineConfig, TimerId};
use safehome_devices::{Detection, DispatchTicket};
use safehome_harness::{
    Backend, CommandOutcome, HomeRuntime, HomeTables, Polled, RuntimeCore, Submission,
};
use safehome_sim::EventQueue;
use safehome_types::{
    sink::TraceSink,
    trace::{OrderItem, Trace},
    Action, DeviceId, Result, Routine, RoutineId, TimeDelta, Timestamp, Value,
};

use crate::driver::KasaDriver;

enum RtEvent {
    CommandDone {
        device: DeviceId,
        ticket: DispatchTicket,
        success: bool,
        observed: Option<Value>,
        new_state: Option<Value>,
    },
    Ping {
        device: DeviceId,
        alive: bool,
    },
}

/// Wall-clock deadlines the backend waits on: engine timers and
/// scheduled workload submissions share one queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RtTimer {
    Engine(TimerId),
    Submit(usize),
}

/// Outcome of a real-time run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Routines that committed, in commit order.
    pub committed: Vec<RoutineId>,
    /// Routines that aborted, in abort order.
    pub aborted: Vec<RoutineId>,
    /// The witness serialization order.
    pub order: Vec<OrderItem>,
    /// Device states read back from the devices at the end.
    pub end_states: Vec<(DeviceId, Value)>,
    /// `true` when the engine quiesced before the deadline.
    pub completed: bool,
}

/// The wall-clock [`Backend`]: live sockets, worker threads and a ping
/// loop, behind the same interface as the discrete-event simulator.
pub struct KasaBackend {
    drivers: Vec<KasaDriver>,
    start: Instant,
    tx: Sender<RtEvent>,
    rx: Receiver<RtEvent>,
    /// Engine timers and scheduled submissions on the run-relative time
    /// axis. The queue's clock only advances when a due entry pops, so
    /// its clamp-to-now contract matches the engine's tolerance for
    /// stale timers.
    timers: EventQueue<RtTimer>,
    /// Scheduled-but-not-yet-submitted workload entries; they hold the
    /// run out of quiescence just like the simulator's material events.
    pending_submits: usize,
    /// One clone per in-flight command thread; `strong_count == 1`
    /// means nothing is in flight.
    inflight: Arc<()>,
    believed_up: Vec<bool>,
    stop_ping: Arc<AtomicBool>,
    /// Events consumed by the most recent poll round (see
    /// [`KasaBackend::last_poll_drained`]).
    last_poll_drained: usize,
}

impl KasaBackend {
    fn new(drivers: Vec<KasaDriver>, ping_every: Duration) -> Result<Self> {
        let (tx, rx) = unbounded();
        let stop_ping = Arc::new(AtomicBool::new(false));
        // Detector thread: periodic pings with implicit-ack semantics
        // approximated by simply pinging on the interval.
        {
            let tx = tx.clone();
            let drivers = drivers.clone();
            let stop = stop_ping.clone();
            thread::Builder::new()
                .name("safehome-detector".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        thread::sleep(ping_every);
                        for (i, d) in drivers.iter().enumerate() {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            let alive = d.ping();
                            let _ = tx.send(RtEvent::Ping {
                                device: DeviceId(i as u32),
                                alive,
                            });
                        }
                    }
                })?;
        }
        Ok(KasaBackend {
            believed_up: vec![true; drivers.len()],
            drivers,
            start: Instant::now(),
            tx,
            rx,
            timers: EventQueue::new(),
            pending_submits: 0,
            inflight: Arc::new(()),
            stop_ping,
            last_poll_drained: 0,
        })
    }

    /// How many channel events (command completions and pings) the most
    /// recent successful poll round consumed. A burst buffered behind
    /// the channel — N completions landing while the runtime was busy —
    /// drains in a single round instead of paying one `recv_timeout`
    /// wake-up per event.
    pub fn last_poll_drained(&self) -> usize {
        self.last_poll_drained
    }

    /// Folds one liveness observation (command reply or ping) into the
    /// believed-up state; returns the detection on an edge. One place
    /// encodes the implicit-detection semantics: a dead reply is a
    /// down-detection, any answer from a believed-down device is an up.
    fn edge(&mut self, device: DeviceId, alive: bool) -> Option<Detection> {
        let believed = &mut self.believed_up[device.index()];
        if alive == *believed {
            return None;
        }
        *believed = alive;
        Some(if alive {
            Detection::Up(device)
        } else {
            Detection::Down(device)
        })
    }

    fn read_states(&self) -> BTreeMap<DeviceId, Value> {
        self.drivers
            .iter()
            .enumerate()
            .map(|(i, d)| (DeviceId(i as u32), d.get().unwrap_or(Value::OFF)))
            .collect()
    }

    /// Feeds one channel event to the core.
    fn deliver<S: TraceSink>(&mut self, ev: RtEvent, core: &mut RuntimeCore<'_, S>) {
        match ev {
            RtEvent::CommandDone {
                device,
                ticket,
                success,
                observed,
                new_state,
            } => {
                let now = self.now();
                // A command reply is also a liveness observation — the
                // same implicit-ack semantics the simulator's detector
                // has.
                let detection = self.edge(device, success);
                core.on_command(
                    now,
                    CommandOutcome {
                        device,
                        ticket,
                        success,
                        observed,
                        new_state,
                        detection,
                    },
                    self,
                );
            }
            RtEvent::Ping { device, alive } => {
                let now = self.now();
                if let Some(det) = self.edge(device, alive) {
                    core.emit_detection(det, now, self);
                }
            }
        }
    }
}

impl Backend for KasaBackend {
    fn idle(&self) -> bool {
        Arc::strong_count(&self.inflight) == 1 && self.pending_submits == 0
    }

    fn now(&self) -> Timestamp {
        Timestamp::from_millis(self.start.elapsed().as_millis() as u64)
    }

    fn dispatch(&mut self, _now: Timestamp, device: DeviceId, ticket: DispatchTicket) {
        let driver = self.drivers[device.index()].clone();
        let tx = self.tx.clone();
        let guard = self.inflight.clone();
        thread::spawn(move || {
            let _guard = guard;
            let result: Result<(Option<Value>, Option<Value>)> = match ticket.action {
                Action::Set(v) => driver.set(v).map(|acked| (None, Some(acked))),
                Action::Read { .. } => driver.get().map(|v| (Some(v), None)),
            };
            // The device is held exclusively for the command's
            // duration (oven preheats, sprinkler runs, ...).
            if result.is_ok() {
                thread::sleep(Duration::from_millis(ticket.duration.as_millis()));
            }
            let (observed, new_state) = result.as_ref().cloned().unwrap_or((None, None));
            let _ = tx.send(RtEvent::CommandDone {
                device,
                ticket,
                success: result.is_ok(),
                observed,
                new_state,
            });
        });
    }

    fn set_timer(&mut self, at: Timestamp, timer: TimerId) {
        // Already run-relative; the queue clamps past deadlines to its
        // clock, which trails wall time.
        self.timers.schedule(at, RtTimer::Engine(timer));
    }

    fn schedule_submit(&mut self, at: Timestamp, index: usize) {
        self.pending_submits += 1;
        self.timers.schedule(at, RtTimer::Submit(index));
    }

    fn poll<S: TraceSink>(&mut self, core: &mut RuntimeCore<'_, S>) -> Polled {
        if self.now() > core.horizon() {
            return Polled::PastHorizon;
        }
        // Fire a due timer first (engine timer or scheduled submission).
        if let Some(at) = self.timers.peek_time() {
            if at <= self.now() {
                let (_, timer) = self.timers.pop().expect("peeked");
                let now = self.now();
                match timer {
                    RtTimer::Engine(t) => core.on_timer(t, now, self),
                    RtTimer::Submit(i) => {
                        self.pending_submits -= 1;
                        core.submit_indexed(i, now, self);
                    }
                }
                return Polled::Event(now);
            }
        }
        let wait = self
            .timers
            .peek_time()
            .map(|at| Duration::from_millis(at.as_millis().saturating_sub(self.now().as_millis())))
            .unwrap_or(Duration::from_millis(50))
            .min(Duration::from_millis(50));
        match self.rx.recv_timeout(wait) {
            Ok(first) => {
                let now = self.now();
                self.deliver(first, core);
                // Drain everything already buffered behind the channel:
                // a burst of completions costs one wake-up, not one
                // `recv_timeout` round per event.
                let mut drained = 1;
                while let Ok(ev) = self.rx.try_recv() {
                    self.deliver(ev, core);
                    drained += 1;
                }
                self.last_poll_drained = drained;
                Polled::Event(now)
            }
            Err(_) => Polled::Idle(self.now()),
        }
    }

    fn end_states(&mut self) -> BTreeMap<DeviceId, Value> {
        self.read_states()
    }
}

impl Drop for KasaBackend {
    fn drop(&mut self) {
        self.stop_ping.store(true, Ordering::Relaxed);
    }
}

/// Horizon used until the caller sets a deadline (~100 years; the
/// per-call deadline of [`RealTimeRunner::run_to_quiescence`] replaces
/// it).
const FAR_FUTURE: Timestamp = Timestamp::from_secs(100 * 365 * 24 * 3600);

/// Drives a SafeHome [`Engine`] against live Kasa devices: a thin shell
/// over [`HomeRuntime`]`<`[`KasaBackend`]`>`.
pub struct RealTimeRunner<'a, S: TraceSink = Trace> {
    rt: HomeRuntime<'a, KasaBackend, S>,
}

impl RealTimeRunner<'static, Trace> {
    /// Creates a runner over the given drivers, recording a full
    /// [`Trace`]. The runner reads each device's real state and prefers
    /// it when reachable (unreachable devices are assumed `OFF`).
    pub fn new(
        config: EngineConfig,
        drivers: Vec<KasaDriver>,
        ping_every: Duration,
    ) -> Result<Self> {
        Self::with_sink_and_workload(config, drivers, ping_every, &[], |initial| {
            Trace::new(initial.clone())
        })
    }
}

impl<'a, S: TraceSink> RealTimeRunner<'a, S> {
    /// Creates a runner with an explicit sink and a scheduled workload.
    ///
    /// `workload` entries behave exactly as in the simulation harness:
    /// absolute arrivals fire at their run-relative instant, and
    /// `After`-chained entries submit when their predecessor finishes —
    /// the deferral bookkeeping is the shared [`HomeRuntime`]'s.
    /// `sink_from` receives the devices' initial states (recording sinks
    /// want them; counting sinks ignore them).
    pub fn with_sink_and_workload(
        config: EngineConfig,
        drivers: Vec<KasaDriver>,
        ping_every: Duration,
        workload: &'a [Submission],
        sink_from: impl FnOnce(&BTreeMap<DeviceId, Value>) -> S,
    ) -> Result<Self> {
        Self::build(config, drivers, ping_every, workload, sink_from, None)
    }

    /// As [`Self::with_sink_and_workload`], additionally recording the
    /// durable execution journal. The journaling seam is the shared
    /// [`HomeRuntime`], so the real-time runner gets the identical
    /// record stream the simulation driver writes — and
    /// `safehome_harness::recover` replays a wall-clock journal exactly
    /// like a virtual-time one (see [`RealTimeRunner::journal`]).
    pub fn with_journal_sink_and_workload(
        config: EngineConfig,
        drivers: Vec<KasaDriver>,
        ping_every: Duration,
        workload: &'a [Submission],
        sink_from: impl FnOnce(&BTreeMap<DeviceId, Value>) -> S,
    ) -> Result<Self> {
        Self::build(
            config,
            drivers,
            ping_every,
            workload,
            sink_from,
            Some(JournalWriter::record(ExecutionJournal::new())),
        )
    }

    fn build(
        config: EngineConfig,
        drivers: Vec<KasaDriver>,
        ping_every: Duration,
        workload: &'a [Submission],
        sink_from: impl FnOnce(&BTreeMap<DeviceId, Value>) -> S,
        journal: Option<JournalWriter>,
    ) -> Result<Self> {
        let backend = KasaBackend::new(drivers, ping_every)?;
        let initial = backend.read_states();
        let sink = sink_from(&initial);
        let engine = Engine::new(config, &initial);
        Ok(RealTimeRunner {
            rt: HomeRuntime::assemble(
                engine,
                sink,
                workload,
                FAR_FUTURE,
                HomeTables::new(),
                backend,
                journal,
            ),
        })
    }

    /// The execution journal, when journaling is enabled.
    pub fn journal(&self) -> Option<&ExecutionJournal> {
        self.rt.journal()
    }

    /// Submits a routine right now.
    pub fn submit(&mut self, routine: Routine) -> Result<RoutineId> {
        self.rt.submit_now(routine)
    }

    /// Read access to the sink (inspect mid-run state).
    pub fn sink(&self) -> &S {
        self.rt.sink()
    }

    /// Runs until the engine quiesces (or `deadline` passes), then reads
    /// back device states.
    ///
    /// Callable repeatedly: a run that hit its deadline resumes draining
    /// (commands still in flight, buffered completions, pings) under the
    /// new deadline.
    pub fn run_to_quiescence(&mut self, deadline: Duration) -> RunReport {
        self.rt
            .set_horizon(self.rt.now() + TimeDelta::from_millis(deadline.as_millis() as u64));
        let completed = self.rt.run_to_quiescence();
        let end_states = self
            .rt
            .backend_mut()
            .read_states()
            .into_iter()
            .collect::<Vec<_>>();
        RunReport {
            committed: self.rt.committed_ids().to_vec(),
            aborted: self.rt.aborted_ids().to_vec(),
            order: self.rt.engine().witness_order(),
            end_states,
            completed,
        }
    }

    /// Finalizes the sink (witness order, end states read from the
    /// devices, congruence against the engine's committed view) and
    /// returns it with the committed states and the completion flag —
    /// the same contract as the simulation driver's `into_output`.
    pub fn into_output(self) -> (S, BTreeMap<DeviceId, Value>, bool) {
        self.rt.into_output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulator::EmulatedPlug;
    use safehome_core::VisibilityModel;
    use safehome_types::TimeDelta;

    fn setup(n: usize) -> (Vec<EmulatedPlug>, RealTimeRunner<'static>) {
        let (plugs, drivers) = plugs_and_drivers(n);
        let runner = RealTimeRunner::new(
            EngineConfig::new(VisibilityModel::ev()),
            drivers,
            Duration::from_millis(500),
        )
        .unwrap();
        (plugs, runner)
    }

    fn plugs_and_drivers(n: usize) -> (Vec<EmulatedPlug>, Vec<KasaDriver>) {
        let plugs: Vec<EmulatedPlug> = (0..n)
            .map(|i| EmulatedPlug::spawn(format!("plug{i}"), Value::OFF).unwrap())
            .collect();
        let drivers = plugs
            .iter()
            .map(|p| KasaDriver::new(p.handle().addr(), Duration::from_millis(200)))
            .collect();
        (plugs, drivers)
    }

    #[test]
    fn routine_executes_against_live_emulators() {
        let (plugs, mut runner) = setup(2);
        runner
            .submit(
                Routine::builder("lights")
                    .set(DeviceId(0), Value::ON, TimeDelta::from_millis(20))
                    .set(DeviceId(1), Value::ON, TimeDelta::from_millis(20))
                    .build(),
            )
            .unwrap();
        let report = runner.run_to_quiescence(Duration::from_secs(10));
        assert!(report.completed);
        assert_eq!(report.committed.len(), 1);
        assert_eq!(plugs[0].handle().state(), Value::ON);
        assert_eq!(plugs[1].handle().state(), Value::ON);
    }

    #[test]
    fn concurrent_conflicting_routines_serialize_end_state() {
        let (plugs, mut runner) = setup(3);
        let on = Routine::builder("all_on")
            .set(DeviceId(0), Value::ON, TimeDelta::from_millis(10))
            .set(DeviceId(1), Value::ON, TimeDelta::from_millis(10))
            .set(DeviceId(2), Value::ON, TimeDelta::from_millis(10))
            .build();
        let off = Routine::builder("all_off")
            .set(DeviceId(0), Value::OFF, TimeDelta::from_millis(10))
            .set(DeviceId(1), Value::OFF, TimeDelta::from_millis(10))
            .set(DeviceId(2), Value::OFF, TimeDelta::from_millis(10))
            .build();
        runner.submit(on).unwrap();
        runner.submit(off).unwrap();
        let report = runner.run_to_quiescence(Duration::from_secs(15));
        assert_eq!(report.committed.len(), 2);
        let states: Vec<Value> = plugs.iter().map(|p| p.handle().state()).collect();
        let all_on = states.iter().all(|&v| v == Value::ON);
        let all_off = states.iter().all(|&v| v == Value::OFF);
        assert!(all_on || all_off, "EV end state must serialize: {states:?}");
    }

    #[test]
    fn failed_device_aborts_must_routine_and_rolls_back() {
        let (plugs, mut runner) = setup(2);
        plugs[1].handle().fail();
        runner
            .submit(
                Routine::builder("doomed")
                    .set(DeviceId(0), Value::ON, TimeDelta::from_millis(10))
                    .set(DeviceId(1), Value::ON, TimeDelta::from_millis(10))
                    .build(),
            )
            .unwrap();
        let report = runner.run_to_quiescence(Duration::from_secs(15));
        assert!(report.committed.is_empty());
        assert_eq!(report.aborted.len(), 1, "the doomed routine aborts");
        assert_eq!(
            plugs[0].handle().state(),
            Value::OFF,
            "device 0's ON must be rolled back"
        );
    }

    #[test]
    fn trace_sink_records_the_real_time_run() {
        let (_plugs, mut runner) = setup(2);
        runner
            .submit(
                Routine::builder("traced")
                    .set(DeviceId(0), Value::ON, TimeDelta::from_millis(10))
                    .set(DeviceId(1), Value::ON, TimeDelta::from_millis(10))
                    .build(),
            )
            .unwrap();
        let report = runner.run_to_quiescence(Duration::from_secs(10));
        assert!(report.completed);
        let (trace, committed_states, completed) = runner.into_output();
        assert!(completed);
        assert_eq!(trace.committed().len(), 1, "the sink saw the commit");
        assert_eq!(committed_states[&DeviceId(0)], Value::ON);
        assert_eq!(trace.end_states[&DeviceId(1)], Value::ON);
    }

    #[test]
    fn submit_after_quiescence_reopens_the_run() {
        // Regression: the interactive pattern — submit, run to
        // quiescence, submit more, run again — must drive the new
        // routine rather than replay the finished run's terminal state.
        let (plugs, mut runner) = setup(2);
        runner
            .submit(
                Routine::builder("first")
                    .set(DeviceId(0), Value::ON, TimeDelta::from_millis(10))
                    .build(),
            )
            .unwrap();
        let first = runner.run_to_quiescence(Duration::from_secs(10));
        assert!(first.completed);
        assert_eq!(first.committed.len(), 1);
        runner
            .submit(
                Routine::builder("second")
                    .set(DeviceId(1), Value::ON, TimeDelta::from_millis(10))
                    .build(),
            )
            .unwrap();
        let second = runner.run_to_quiescence(Duration::from_secs(10));
        assert!(second.completed);
        assert_eq!(second.committed.len(), 2, "the second routine ran too");
        assert_eq!(plugs[1].handle().state(), Value::ON);
    }

    #[test]
    fn expired_deadline_run_resumes_on_the_next_call() {
        // Regression: hitting the deadline must not latch the runtime
        // shut. The first call times out mid-command; the second call
        // (longer deadline) drains the buffered completion and finishes
        // the routine — the pre-unification loop allowed exactly this.
        let (plugs, mut runner) = setup(1);
        runner
            .submit(
                Routine::builder("slow")
                    .set(DeviceId(0), Value::ON, TimeDelta::from_millis(400))
                    .build(),
            )
            .unwrap();
        let first = runner.run_to_quiescence(Duration::from_millis(50));
        assert!(
            !first.completed,
            "50ms deadline cannot cover a 400ms command"
        );
        let second = runner.run_to_quiescence(Duration::from_secs(10));
        assert!(second.completed, "the extended deadline resumes the run");
        assert_eq!(second.committed.len(), 1);
        assert_eq!(plugs[0].handle().state(), Value::ON);
    }

    #[test]
    fn deferred_routine_at_quiescence_still_runs() {
        // Mirror of the sim backend's
        // `deferred_routine_released_at_quiescence_instant_still_runs`:
        // the predecessor's commit is the last in-flight work, and the
        // zero-delay dependent is released exactly as the engine
        // quiesces. The shared runtime must hold the run open (pending
        // scheduled submissions make the backend non-idle) until the
        // dependent has run.
        use safehome_harness::Submission;
        use safehome_types::Timestamp;
        let (plugs, drivers) = plugs_and_drivers(2);
        let workload = vec![
            Submission::at(
                Routine::builder("first")
                    .set(DeviceId(0), Value::ON, TimeDelta::from_millis(10))
                    .build(),
                Timestamp::ZERO,
            ),
            Submission::after(
                Routine::builder("dependent")
                    .set(DeviceId(1), Value::ON, TimeDelta::from_millis(10))
                    .build(),
                0,
                TimeDelta::ZERO,
            ),
        ];
        let mut runner = RealTimeRunner::with_sink_and_workload(
            EngineConfig::new(VisibilityModel::ev()),
            drivers,
            Duration::from_millis(500),
            &workload,
            |initial| Trace::new(initial.clone()),
        )
        .unwrap();
        let report = runner.run_to_quiescence(Duration::from_secs(10));
        assert!(report.completed);
        assert_eq!(report.committed.len(), 2, "the deferred routine ran");
        assert_eq!(plugs[1].handle().state(), Value::ON);
    }

    #[test]
    fn poll_drains_a_buffered_burst_in_one_round() {
        let (_plugs, mut runner) = setup(2);
        // A far-future scheduled submission keeps the backend non-idle
        // (so `step` polls instead of declaring quiescence) without ever
        // firing inside the test.
        runner
            .rt
            .backend_mut()
            .schedule_submit(FAR_FUTURE, usize::MAX);
        // Buffer a burst behind the channel before a single poll round.
        // `alive: true` pings on believed-up devices are no-op events.
        let n = 6;
        let tx = runner.rt.backend().tx.clone();
        for _ in 0..n {
            tx.send(RtEvent::Ping {
                device: DeviceId(0),
                alive: true,
            })
            .unwrap();
        }
        assert!(matches!(runner.rt.step(), safehome_harness::Step::Event(_)));
        assert_eq!(
            runner.rt.backend().last_poll_drained(),
            n,
            "all buffered events must drain in one poll round"
        );
    }

    #[test]
    fn journaled_real_time_run_recovers_by_replay() {
        use safehome_harness::recover;
        use safehome_types::sink::RunCounters;
        let (plugs, drivers) = plugs_and_drivers(2);
        let config = EngineConfig::new(VisibilityModel::ev());
        let mut runner = RealTimeRunner::with_journal_sink_and_workload(
            config.clone(),
            drivers,
            Duration::from_millis(500),
            &[],
            |initial| Trace::new(initial.clone()),
        )
        .unwrap();
        runner
            .submit(
                Routine::builder("journaled")
                    .set(DeviceId(0), Value::ON, TimeDelta::from_millis(10))
                    .set(DeviceId(1), Value::ON, TimeDelta::from_millis(10))
                    .build(),
            )
            .unwrap();
        let report = runner.run_to_quiescence(Duration::from_secs(10));
        assert!(report.completed);
        let journal = runner.journal().expect("journaling enabled").clone();
        assert!(journal
            .events()
            .iter()
            .any(|e| e.payload.kind() == "routine_committed"));
        // The wall-clock journal replays exactly like a virtual-time
        // one: same record schema, same deterministic engine.
        let rec = recover(journal, config, &[], RunCounters::new()).unwrap();
        assert!(rec.report.inflight.is_empty(), "nothing was in flight");
        assert_eq!(plugs[0].handle().state(), Value::ON);
    }

    #[test]
    fn counters_sink_works_on_the_real_time_runner() {
        use safehome_harness::Submission;
        use safehome_types::sink::RunCounters;
        use safehome_types::Timestamp;
        let (_plugs, drivers) = plugs_and_drivers(2);
        let workload = vec![Submission::at(
            Routine::builder("counted")
                .set(DeviceId(0), Value::ON, TimeDelta::from_millis(10))
                .set(DeviceId(1), Value::ON, TimeDelta::from_millis(10))
                .build(),
            Timestamp::from_millis(10),
        )];
        let mut runner = RealTimeRunner::with_sink_and_workload(
            EngineConfig::new(VisibilityModel::ev()),
            drivers,
            Duration::from_millis(500),
            &workload,
            |_| RunCounters::new(),
        )
        .unwrap();
        let report = runner.run_to_quiescence(Duration::from_secs(10));
        assert!(report.completed);
        let (counters, _, completed) = runner.into_output();
        assert!(completed);
        assert_eq!(counters.submitted, 1);
        assert_eq!(counters.committed, 1);
        assert_eq!(counters.dispatches, 2);
        assert!(counters.congruent, "devices match the committed view");
    }
}
