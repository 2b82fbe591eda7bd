//! The backend-independent home runtime.
//!
//! SafeHome's contribution is a *runtime* — visibility models plus atomic
//! routines — and that runtime is the same whether commands travel over a
//! simulated event queue or live sockets. [`HomeRuntime`] is that shared
//! mediation layer: it owns the [`Engine`], the [`TraceSink`], the effect
//! scratch and the submission bookkeeping (scheduled arrivals, `After`
//! deferral chains, `sub_of_routine` mapping), and it interprets engine
//! effects, detector transitions and command completions identically for
//! every backend.
//!
//! A [`Backend`] supplies what differs: the clock, device I/O and the
//! event source. [`crate::sim::SimBackend`] wraps the calendar-wheel
//! [`safehome_sim::EventQueue`] plus a `Vec` of
//! [`safehome_devices::VirtualDevice`]s (the discrete-event harness —
//! [`crate::Driver`] is `HomeRuntime` over it); `safehome-kasa`'s
//! `KasaBackend` wraps TCP drivers, worker threads and a wall clock (the
//! §6 edge deployment). Layering:
//!
//! ```text
//!   Engine (pure state machine: inputs → effects)
//!      ↑ inputs                 ↓ effects
//!   HomeRuntime (submission/deferral, sink feeding, quiescence)
//!      ↑ Polled / callbacks     ↓ dispatch / set_timer / schedule_submit
//!   Backend (SimBackend | KasaBackend | your backend)
//! ```
//!
//! The split is callback-shaped on purpose: a backend's [`Backend::poll`]
//! consumes one event from its own source and *calls back* into the
//! [`RuntimeCore`] ([`RuntimeCore::submit_indexed`],
//! [`RuntimeCore::on_command`], [`RuntimeCore::emit_detection`],
//! [`RuntimeCore::on_timer`]), so the exact interleaving of sink records,
//! engine inputs and backend scheduling — which the per-home digests pin
//! byte-for-byte — is owned by one piece of code instead of being
//! re-implemented per backend.

use safehome_core::journal::{EventPayload, ExecutionJournal, JournalWriter};
use safehome_core::{Effect, EffectBuf, Engine, Input, TimerId};
use safehome_devices::{Detection, DispatchTicket};
use safehome_types::{
    sink::{RunCounters, TraceSink},
    trace::{CmdOutcome, TraceEventKind},
    DeviceId, Result, Routine, RoutineId, TimeDelta, Timestamp, Value,
};
use std::collections::BTreeMap;

use crate::spec::{Arrival, Submission};

/// What one [`HomeRuntime::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// One event was processed at the given (run-relative) time.
    Event(Timestamp),
    /// The run reached quiescence; every submission resolved.
    Quiescent,
    /// The run cannot make further progress: an unsatisfiable submission
    /// dependency or the time horizon was hit.
    Stalled,
    /// Nothing arrived within the backend's poll window (real-time
    /// backends only; the simulation backend never idles).
    Idle,
}

/// What a [`Backend::poll`] call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polled {
    /// One event was consumed (and fed to the core) at the given time.
    Event(Timestamp),
    /// The event source is permanently empty (simulation queue drained).
    Exhausted,
    /// The next event lies past [`RuntimeCore::horizon`]; nothing was
    /// consumed, and the run must stall until the horizon moves.
    PastHorizon,
    /// Nothing arrived within the poll window; the caller re-checks
    /// quiescence and the horizon, then polls again.
    Idle(Timestamp),
}

/// A completed (or failed) command as the backend observed it.
///
/// Bundles everything the runtime must interleave in its pinned order:
/// the device's state change (if the backend can observe one), the
/// detector transition implied by the reply (a dead command reply is an
/// implicit down-detection; a reply from a believed-down device is an
/// implicit up), and the command result itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandOutcome {
    /// The device the command ran on.
    pub device: DeviceId,
    /// The dispatch this resolves.
    pub ticket: DispatchTicket,
    /// `true` if the command succeeded.
    pub success: bool,
    /// Observed value (reads only).
    pub observed: Option<Value>,
    /// New device state if the command was a write that took effect.
    pub new_state: Option<Value>,
    /// Health transition implied by this reply, if any.
    pub detection: Option<Detection>,
}

/// Clock, device I/O and event source for one home.
///
/// Implementations own their side of the world (queues, sockets, RNG,
/// detectors) and translate it into [`RuntimeCore`] callbacks from
/// [`Backend::poll`]. See the module docs for the layering and
/// `README.md` ("Adding a backend") for a checklist.
pub trait Backend {
    /// `true` when no backend-side work is outstanding: no material
    /// simulated events scheduled, no live commands in flight, no
    /// pending scheduled submissions.
    fn idle(&self) -> bool;

    /// The current run-relative time on this backend's clock.
    fn now(&self) -> Timestamp;

    /// Sends a command toward a device.
    fn dispatch(&mut self, now: Timestamp, device: DeviceId, ticket: DispatchTicket);

    /// Arms an engine timer for `at` (run-relative; stale firings are
    /// tolerated by the engine and must be delivered anyway).
    fn set_timer(&mut self, at: Timestamp, timer: TimerId);

    /// Schedules workload submission `index` for `at`.
    fn schedule_submit(&mut self, at: Timestamp, index: usize);

    /// Takes the workload's absolute arrivals, `(time, index)` in index
    /// order, in one call at assembly, before anything else is scheduled.
    /// The default schedules each through [`Backend::schedule_submit`];
    /// the simulation backend keeps them in a presorted lane beside its
    /// queue instead. Either way they pop by time, then index, ahead of
    /// any other event due at the same instant.
    fn schedule_arrivals(&mut self, arrivals: impl Iterator<Item = (Timestamp, usize)>) {
        for (at, index) in arrivals {
            self.schedule_submit(at, index);
        }
    }

    /// Consumes one event from the backend's source, feeding it to the
    /// core via its callbacks.
    fn poll<S: TraceSink>(&mut self, core: &mut RuntimeCore<'_, S>) -> Polled;

    /// Reads the devices' actual end states.
    fn end_states(&mut self) -> BTreeMap<DeviceId, Value>;

    /// Called once per run at [`HomeRuntime::into_output`] with the
    /// core's recyclable tables; pooling backends stash them for the
    /// next home. The default drops them.
    fn reclaim(&mut self, tables: HomeTables) {
        let _ = tables;
    }
}

/// The per-home submission/deferral bookkeeping, as dense `Vec`-indexed
/// tables (submission indices and [`RoutineId`]s are both dense per
/// home), so a pool can recycle the allocations across homes.
///
/// Backends that pool (see `PooledHome` in [`crate::sim`]) receive
/// the tables back through [`Backend::reclaim`] and hand them to the
/// next run; [`HomeTables::reset`] clears contents while keeping every
/// inner allocation.
#[derive(Debug, Default)]
pub struct HomeTables {
    /// `deferred[pred]` = submissions waiting on predecessor `pred`
    /// (pairs of dependent index and extra delay).
    deferred: Vec<Vec<(usize, TimeDelta)>>,
    /// `sub_of_routine[id − 1]` = workload index of the routine, or
    /// `NO_SUB` for interactively submitted routines.
    sub_of_routine: Vec<u32>,
    /// Routines that committed, in commit order.
    committed: Vec<RoutineId>,
    /// Routines that aborted, in abort order.
    aborted: Vec<RoutineId>,
}

/// Sentinel for "routine has no workload index".
const NO_SUB: u32 = u32::MAX;

impl HomeTables {
    /// Fresh, empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears contents for a workload of `submissions` entries, keeping
    /// the outer and every inner allocation.
    pub fn reset(&mut self, submissions: usize) {
        for slot in &mut self.deferred {
            slot.clear();
        }
        if self.deferred.len() < submissions {
            self.deferred.resize_with(submissions, Vec::new);
        }
        self.sub_of_routine.clear();
        self.committed.clear();
        self.aborted.clear();
    }

    /// Approximate heap bytes, every table by capacity. The deferral
    /// lists are not walked: `pending_deferrals` entries (the core's count
    /// of unscheduled `After` submissions) is what they hold.
    fn approx_bytes(&self, pending_deferrals: usize) -> usize {
        use std::mem::size_of;
        self.deferred.capacity() * size_of::<Vec<(usize, TimeDelta)>>()
            + pending_deferrals * size_of::<(usize, TimeDelta)>()
            + self.sub_of_routine.capacity() * size_of::<u32>()
            + (self.committed.capacity() + self.aborted.capacity()) * size_of::<RoutineId>()
    }

    fn defer(&mut self, pred: usize, dep: usize, delay: TimeDelta) {
        self.deferred[pred].push((dep, delay));
    }

    fn set_sub_of(&mut self, id: RoutineId, sub: Option<usize>) {
        let idx = (id.0 as usize).saturating_sub(1); // ids are dense from 1
        if self.sub_of_routine.len() <= idx {
            self.sub_of_routine.resize(idx + 1, NO_SUB);
        }
        self.sub_of_routine[idx] = sub.map_or(NO_SUB, |s| s as u32);
    }

    fn sub_of(&self, id: RoutineId) -> Option<usize> {
        let idx = (id.0 as usize).checked_sub(1)?;
        match self.sub_of_routine.get(idx) {
            Some(&s) if s != NO_SUB => Some(s as usize),
            _ => None,
        }
    }
}

/// The backend-independent half of a [`HomeRuntime`]: engine, sink,
/// effect scratch, workload bookkeeping and quiescence state.
///
/// Backends receive `&mut RuntimeCore` in [`Backend::poll`] and feed
/// events through the callback methods below; each callback records to
/// the sink, drives the engine and interprets the resulting effects
/// (dispatches and timers go back to the backend) in the one canonical
/// order.
pub struct RuntimeCore<'a, S: TraceSink> {
    pub(crate) engine: Engine,
    sink: S,
    /// Scratch for engine effects, drained in place after every
    /// `submit`/`handle` call: the steady-state loop allocates nothing
    /// per event.
    fx: EffectBuf,
    workload: &'a [Submission],
    horizon: Timestamp,
    tables: HomeTables,
    /// `After` submissions not yet scheduled.
    unscheduled: usize,
    pub(crate) completed: bool,
    pub(crate) done: bool,
    /// The optional execution journal hook. `None` (the default) keeps
    /// the hot path journal-free; [`JournalWriter::record`] appends every
    /// event on the live path, [`JournalWriter::verify`] cross-checks
    /// replay against recorded history (see [`crate::journal`]).
    pub(crate) journal: Option<JournalWriter>,
}

impl<'a, S: TraceSink> RuntimeCore<'a, S> {
    /// Builds a core, optionally with a journal hook. Emits (or, in verify
    /// mode, checks) the `Genesis` record: initial committed states,
    /// workload size and horizon — everything replay needs to cross-check
    /// that it was handed the same run the journal describes.
    pub(crate) fn with_journal(
        engine: Engine,
        sink: S,
        workload: &'a [Submission],
        horizon: Timestamp,
        mut tables: HomeTables,
        journal: Option<JournalWriter>,
    ) -> Self {
        tables.reset(workload.len());
        let mut core = RuntimeCore {
            engine,
            sink,
            fx: EffectBuf::new(),
            workload,
            horizon,
            tables,
            unscheduled: 0,
            completed: false,
            done: false,
            journal,
        };
        if core.journaling() {
            let initial = core.engine.committed_states();
            core.jot(
                Timestamp::ZERO,
                EventPayload::Genesis {
                    initial,
                    workload: workload.len() as u64,
                    horizon,
                },
            );
        }
        core
    }

    /// `true` when a journal hook is installed.
    #[inline]
    fn journaling(&self) -> bool {
        self.journal.is_some()
    }

    /// Emits one journal event (no-op without a journal hook). Payloads
    /// whose construction allocates are gated on [`Self::journaling`] at
    /// the call site; everything else is cheap enough to build eagerly.
    #[inline]
    pub(crate) fn jot(&mut self, at: Timestamp, payload: EventPayload) {
        if let Some(w) = &mut self.journal {
            w.emit(at, payload);
        }
    }

    /// The time horizon: an event (or idle wait) past this instant
    /// stalls the run. Virtual-time backends use the spec's safety
    /// horizon; wall-clock backends use the caller's deadline.
    pub fn horizon(&self) -> Timestamp {
        self.horizon
    }

    /// Forwards a pop boundary to the sink (see
    /// [`TraceSink::pop_boundary`]). Traced backends call this once per
    /// handled event, before any of the pop's sink records.
    pub(crate) fn mark_pop_boundary(&mut self) {
        self.sink.pop_boundary();
    }

    /// Registers the workload's arrivals with the backend: absolute
    /// arrivals are handed over in one [`Backend::schedule_arrivals`]
    /// call, `After` chains are parked in the deferral table until their
    /// predecessor finishes (journaled as `DeferralArmed`, so recovery can
    /// rebuild pending chains).
    pub(crate) fn schedule_workload<B: Backend>(&mut self, b: &mut B) {
        let workload = self.workload;
        b.schedule_arrivals(
            workload
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s.arrival {
                    Arrival::At(at) => Some((at, i)),
                    Arrival::After { .. } => None,
                }),
        );
        for (i, s) in workload.iter().enumerate() {
            if let Arrival::After { index, delay } = s.arrival {
                assert!(index < workload.len(), "dangling dependency");
                self.tables.defer(index, i, delay);
                self.unscheduled += 1;
                self.jot(
                    Timestamp::ZERO,
                    EventPayload::DeferralArmed {
                        pred: index as u64,
                        dep: i as u64,
                        delay,
                    },
                );
            }
        }
    }

    /// Submits workload entry `i` (a scheduled arrival came due).
    ///
    /// # Panics
    ///
    /// Panics if the submission references an unknown device (specs are
    /// authored by the workload generators, which validate against the
    /// home).
    pub fn submit_indexed<B: Backend>(&mut self, i: usize, now: Timestamp, b: &mut B) {
        // `workload` is a `Copy` reference with lifetime `'a`, so the
        // routine borrow is independent of `self` below.
        let routine = &self.workload[i].routine;
        let id = self
            .engine
            .submit(routine.clone(), now, &mut self.fx)
            .expect("workload validated against home");
        self.tables.set_sub_of(id, Some(i));
        if self.journaling() {
            self.jot(
                now,
                EventPayload::RoutineSubmitted {
                    id,
                    sub: Some(i as u64),
                    routine: routine.clone(),
                },
            );
        }
        self.sink.record_submission(id, routine, now);
        self.apply_effects(now, b);
    }

    /// Submits a routine outside the workload (interactive use; nothing
    /// chains after it).
    pub fn submit_now<B: Backend>(
        &mut self,
        routine: Routine,
        now: Timestamp,
        b: &mut B,
    ) -> Result<RoutineId> {
        let id = self.engine.submit(routine.clone(), now, &mut self.fx)?;
        self.tables.set_sub_of(id, None);
        if self.journaling() {
            self.jot(
                now,
                EventPayload::RoutineSubmitted {
                    id,
                    sub: None,
                    routine: routine.clone(),
                },
            );
        }
        self.sink.record_submission(id, &routine, now);
        self.apply_effects(now, b);
        Ok(id)
    }

    /// Feeds a detector transition: journals and records it, tells the
    /// engine, and applies the effects (aborts, deferrals, rollbacks).
    pub fn emit_detection<B: Backend>(&mut self, det: Detection, now: Timestamp, b: &mut B) {
        self.jot(
            now,
            match det {
                Detection::Down(d) => EventPayload::DeviceDown { device: d },
                Detection::Up(d) => EventPayload::DeviceUp { device: d },
            },
        );
        self.detect(det, now, b);
    }

    /// [`Self::emit_detection`] without the journal record — the path for
    /// edges implied by a command reply, which are journaled inside the
    /// `WriteCompleted` record instead (one input event per reply).
    fn detect<B: Backend>(&mut self, det: Detection, now: Timestamp, b: &mut B) {
        let (kind, input) = match det {
            Detection::Down(d) => (
                TraceEventKind::DeviceDownDetected { device: d },
                Input::DeviceDown { device: d },
            ),
            Detection::Up(d) => (
                TraceEventKind::DeviceUpDetected { device: d },
                Input::DeviceUp { device: d },
            ),
        };
        self.sink.record(now, kind);
        self.engine.handle(input, now, &mut self.fx);
        self.apply_effects(now, b);
    }

    /// Feeds one resolved command, in the canonical order: the observed
    /// state change, then the implied detection (which may abort
    /// routines *before* the result lands), then the completion record,
    /// then the engine's own handling of the result.
    pub fn on_command<B: Backend>(&mut self, now: Timestamp, outcome: CommandOutcome, b: &mut B) {
        let CommandOutcome {
            device,
            ticket,
            success,
            observed,
            new_state,
            detection,
        } = outcome;
        let routine = ticket.routine.expect("runtime tickets carry routines");
        // Phase 3 of the side-effect journal: the full outcome (including
        // the implied detector edge) is one durable input record, the
        // exactly-once cache recovery consults before re-issuing writes.
        self.jot(
            now,
            EventPayload::WriteCompleted {
                routine,
                idx: ticket.idx,
                device,
                action: ticket.action,
                duration: ticket.duration,
                rollback: ticket.rollback,
                success,
                observed,
                new_state,
                edge: detection.map(|d| matches!(d, Detection::Up(_))),
            },
        );
        if let Some(v) = new_state {
            self.sink.record(
                now,
                TraceEventKind::StateChanged {
                    device,
                    value: v,
                    by: ticket.routine,
                    rollback: ticket.rollback,
                },
            );
        }
        if let Some(det) = detection {
            self.detect(det, now, b);
        }
        if !ticket.rollback {
            self.sink.record(
                now,
                TraceEventKind::CommandCompleted {
                    routine,
                    idx: ticket.idx,
                    device,
                    outcome: if success {
                        CmdOutcome::Success { observed }
                    } else {
                        CmdOutcome::Failed
                    },
                },
            );
        }
        self.engine.handle(
            Input::CommandResult {
                routine,
                idx: ticket.idx,
                device,
                success,
                observed,
                rollback: ticket.rollback,
            },
            now,
            &mut self.fx,
        );
        self.apply_effects(now, b);
    }

    /// Feeds a fired engine timer.
    pub fn on_timer<B: Backend>(&mut self, timer: TimerId, now: Timestamp, b: &mut B) {
        self.jot(now, EventPayload::TimerFired { timer });
        self.engine
            .handle(Input::Timer { timer }, now, &mut self.fx);
        self.apply_effects(now, b);
    }

    /// Drains the effect scratch in place, interpreting each effect. The
    /// buffer is always fully drained before the next engine call, so
    /// one reusable allocation serves the whole run.
    fn apply_effects<B: Backend>(&mut self, now: Timestamp, b: &mut B) {
        // The loop needs `&mut self` (sink, tables) and the backend, so
        // detach the buffer for its duration; effects never re-enter the
        // engine here, so nothing else writes to it meanwhile.
        let mut fx = std::mem::take(&mut self.fx);
        for e in fx.drain(..) {
            match e {
                Effect::Dispatch {
                    routine,
                    idx,
                    device,
                    action,
                    duration,
                    rollback,
                } => {
                    // Phase 1: intent is durable before anything is sent.
                    self.jot(
                        now,
                        EventPayload::WriteScheduled {
                            routine,
                            idx,
                            device,
                            action,
                            duration,
                            rollback,
                        },
                    );
                    if !rollback {
                        self.sink.record(
                            now,
                            TraceEventKind::CommandDispatched {
                                routine,
                                idx,
                                device,
                            },
                        );
                    }
                    let ticket = DispatchTicket {
                        routine: Some(routine),
                        idx,
                        action,
                        duration,
                        rollback,
                    };
                    b.dispatch(now, device, ticket);
                    // Phase 2: the command is in the I/O layer's hands —
                    // after a crash it may or may not have reached the
                    // device.
                    self.jot(
                        now,
                        EventPayload::WriteStarted {
                            routine,
                            idx,
                            device,
                            rollback,
                        },
                    );
                }
                Effect::SetTimer { timer, at } => {
                    self.jot(now, EventPayload::TimerArmed { timer, fire_at: at });
                    b.set_timer(at, timer)
                }
                Effect::Started { routine } => {
                    self.jot(now, EventPayload::RoutineStarted { routine });
                    self.sink.record(now, TraceEventKind::Started { routine });
                }
                Effect::Committed { routine } => {
                    self.jot(now, EventPayload::RoutineCommitted { routine });
                    self.sink.record(now, TraceEventKind::Committed { routine });
                    self.tables.committed.push(routine);
                    self.release_dependents(routine, now, b);
                }
                Effect::Aborted {
                    routine,
                    reason,
                    executed,
                    rolled_back,
                } => {
                    self.jot(
                        now,
                        EventPayload::RoutineAborted {
                            routine,
                            reason,
                            executed,
                            rolled_back,
                        },
                    );
                    self.sink.record(
                        now,
                        TraceEventKind::Aborted {
                            routine,
                            reason,
                            executed,
                            rolled_back,
                        },
                    );
                    self.tables.aborted.push(routine);
                    self.release_dependents(routine, now, b);
                }
                Effect::BestEffortSkipped {
                    routine,
                    idx,
                    device,
                } => {
                    self.jot(
                        now,
                        EventPayload::WriteSkipped {
                            routine,
                            idx,
                            device,
                        },
                    );
                    self.sink.record(
                        now,
                        TraceEventKind::BestEffortSkipped {
                            routine,
                            idx,
                            device,
                        },
                    );
                }
                Effect::Feedback { routine, message } => {
                    self.jot(now, EventPayload::Feedback { routine, message });
                }
            }
        }
        debug_assert!(
            self.fx.is_empty(),
            "effects appended to the scratch during the drain would be lost"
        );
        self.fx = fx;
    }

    fn release_dependents<B: Backend>(&mut self, routine: RoutineId, now: Timestamp, b: &mut B) {
        let Some(sub) = self.tables.sub_of(routine) else {
            return;
        };
        // Detach the dependent list (put back afterwards so the pool
        // keeps its allocation); a dependent's own dependents live in
        // different slots, so the loop never touches this one.
        let mut deps = std::mem::take(&mut self.tables.deferred[sub]);
        for &(dep_index, delay) in &deps {
            self.unscheduled -= 1;
            self.jot(
                now,
                EventPayload::DeferralReleased {
                    pred: routine,
                    dep: dep_index as u64,
                    at: now + delay,
                },
            );
            b.schedule_submit(now + delay, dep_index);
        }
        deps.clear();
        self.tables.deferred[sub] = deps;
    }
}

impl RuntimeCore<'_, RunCounters> {
    /// Approximate heap bytes of this core: engine, sink, tables and
    /// effect scratch — everything a controller parked without its
    /// backend keeps. Each part counts its containers by `len` or
    /// `capacity`, so the cost does not grow with the home's history.
    pub(crate) fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.engine.approx_bytes()
            + self.sink.approx_bytes()
            + self.tables.approx_bytes(self.unscheduled)
            + self.fx.capacity() * std::mem::size_of::<Effect>()
    }
}

/// One home's execution: a [`RuntimeCore`] bound to a [`Backend`].
///
/// This is the one mediation layer of the reproduction: the simulated
/// [`crate::Driver`] and the kasa real-time runner are both thin shells
/// over it, so dispatch, deferral, sink feeding and quiescence behave
/// identically — and improvements land on both at once.
pub struct HomeRuntime<'a, B: Backend, S: TraceSink> {
    pub(crate) core: RuntimeCore<'a, S>,
    pub(crate) backend: B,
}

impl<'a, B: Backend, S: TraceSink> HomeRuntime<'a, B, S> {
    /// Assembles a runtime from its parts and registers the workload's
    /// arrivals with the backend. `tables` usually come from a pool
    /// (reset here); pass `HomeTables::new()` otherwise.
    pub fn assemble(
        engine: Engine,
        sink: S,
        workload: &'a [Submission],
        horizon: Timestamp,
        tables: HomeTables,
        backend: B,
    ) -> Self {
        Self::assemble_journaled(engine, sink, workload, horizon, tables, backend, None)
    }

    /// As [`HomeRuntime::assemble`], with an optional journal hook
    /// ([`JournalWriter::record`] for a durable live run). Journaling is
    /// opt-in and invisible to the sink: the recorded event stream — and
    /// therefore the per-home digests — is identical with or without it.
    pub fn assemble_journaled(
        engine: Engine,
        sink: S,
        workload: &'a [Submission],
        horizon: Timestamp,
        tables: HomeTables,
        mut backend: B,
        journal: Option<JournalWriter>,
    ) -> Self {
        let mut core = RuntimeCore::with_journal(engine, sink, workload, horizon, tables, journal);
        core.schedule_workload(&mut backend);
        HomeRuntime { core, backend }
    }

    /// Rebinds a [`RuntimeCore`] to a backend. On the crash/restore path
    /// the core comes from `crate::journal::recover`: with the
    /// *surviving* backend (the sim's crash injection) the continuation is
    /// event-for-event identical to an uncrashed run; with a fresh
    /// backend, follow up with [`HomeRuntime::redrive`] to re-issue
    /// in-flight work. The service runner's eviction instead keeps the
    /// core itself and resumes it on a backend rebuilt from the world
    /// snapshot (`SimBackend::resurrect`), which needs no redrive.
    pub fn resume(core: RuntimeCore<'a, S>, backend: B) -> Self {
        HomeRuntime { core, backend }
    }

    /// The current run-relative time.
    pub fn now(&self) -> Timestamp {
        self.backend.now()
    }

    /// Read access to the sink (inspect mid-run state between steps).
    pub fn sink(&self) -> &S {
        &self.core.sink
    }

    /// Read access to the engine.
    pub fn engine(&self) -> &Engine {
        &self.core.engine
    }

    /// Read access to the backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Write access to the backend (post-assembly scheduling, injection
    /// control).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The execution journal, when journaling is enabled.
    pub fn journal(&self) -> Option<&ExecutionJournal> {
        self.core.journal.as_ref().map(JournalWriter::journal)
    }

    /// Simulates a controller crash: drops every piece of runtime state
    /// (engine, sink, tables — exactly what a process death loses) and
    /// returns the durable journal plus the backend, which represents the
    /// world (devices, in-flight commands) and survives the controller.
    ///
    /// # Panics
    ///
    /// Panics if the runtime was assembled without a journal — there is
    /// nothing durable to crash onto.
    pub fn crash(self) -> (ExecutionJournal, B) {
        let writer = self
            .core
            .journal
            .expect("crash() requires a journaling runtime (assemble_journaled)");
        (writer.into_journal(), self.backend)
    }

    /// Engine model invariants plus — when journaling — the journal's
    /// replay invariants, via `Engine::check_invariants_with_journal`.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        match self.journal() {
            Some(j) => self.core.engine.check_invariants_with_journal(j),
            None => self.core.engine.check_invariants(),
        }
    }

    /// Routines that committed so far, in commit order.
    pub fn committed_ids(&self) -> &[RoutineId] {
        &self.core.tables.committed
    }

    /// Routines that aborted so far, in abort order.
    pub fn aborted_ids(&self) -> &[RoutineId] {
        &self.core.tables.aborted
    }

    /// `true` once the run has ended (quiescent or stalled).
    pub fn is_done(&self) -> bool {
        self.core.done
    }

    /// Moves the stall horizon (wall-clock backends set it per
    /// `run_to_quiescence` deadline).
    ///
    /// Extending the horizon *reopens* a run that stalled without
    /// completing — a real-time runner whose deadline expired resumes
    /// draining events on the next `run_to_quiescence` call, exactly
    /// like the pre-unification deadline loop. (A quiescent run stays
    /// finished; a genuinely stuck run just stalls again.)
    pub fn set_horizon(&mut self, horizon: Timestamp) {
        self.core.horizon = horizon;
        if !self.core.completed {
            self.core.done = false;
        }
    }

    /// Submits a routine right now, outside the workload.
    ///
    /// Reopens a finished run: submitting new work after quiescence (the
    /// interactive real-time pattern — submit, run, submit more, run
    /// again) puts the runtime back in the running state so the next
    /// [`HomeRuntime::step`] drives the new routine instead of replaying
    /// the old terminal answer.
    pub fn submit_now(&mut self, routine: Routine) -> Result<RoutineId> {
        let now = self.backend.now();
        let id = self.core.submit_now(routine, now, &mut self.backend)?;
        self.core.done = false;
        self.core.completed = false;
        Ok(id)
    }

    fn terminal(&self) -> Step {
        if self.core.completed {
            Step::Quiescent
        } else {
            Step::Stalled
        }
    }

    /// Advances by one backend event.
    ///
    /// The quiescence bookkeeping lives here — once, for every backend:
    /// the run ends when the backend is idle and the engine quiescent
    /// (completed unless deferred submissions never became schedulable),
    /// when the event source is exhausted, or when the horizon passes.
    pub fn step(&mut self) -> Step {
        if self.core.done {
            return self.terminal();
        }
        if self.backend.idle() && self.core.engine.quiescent() {
            self.core.done = true;
            self.core.completed = self.core.unscheduled == 0;
            return self.terminal();
        }
        match self.backend.poll(&mut self.core) {
            Polled::Event(now) => Step::Event(now),
            Polled::Exhausted => {
                self.core.done = true;
                self.core.completed = self.core.engine.quiescent() && self.core.unscheduled == 0;
                self.terminal()
            }
            Polled::PastHorizon => {
                self.core.done = true;
                self.core.completed = false;
                Step::Stalled
            }
            Polled::Idle(now) => {
                if now > self.core.horizon {
                    self.core.done = true;
                    self.core.completed = false;
                    Step::Stalled
                } else {
                    Step::Idle
                }
            }
        }
    }

    /// Steps until the run ends; `true` when it reached quiescence.
    pub fn run_to_quiescence(&mut self) -> bool {
        loop {
            match self.step() {
                Step::Event(_) | Step::Idle => {}
                Step::Quiescent => return true,
                Step::Stalled => return false,
            }
        }
    }

    /// Finalizes the sink (witness order, end states, congruence) and
    /// returns it with the engine's committed states and the completion
    /// flag. Callable at any point; an unfinished run reports
    /// `completed = false`. The recyclable tables go back to the backend
    /// (pooling backends keep them for the next home).
    pub fn into_output(self) -> (S, BTreeMap<DeviceId, Value>, bool) {
        let HomeRuntime {
            mut core,
            mut backend,
        } = self;
        let end_states = backend.end_states();
        let committed = core.engine.committed_states();
        core.sink
            .finish(core.engine.witness_order(), end_states, &committed);
        backend.reclaim(std::mem::take(&mut core.tables));
        (core.sink, committed, core.completed)
    }
}
