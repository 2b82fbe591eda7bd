//! Crash/recovery: rebuilding a [`RuntimeCore`] purely by journal replay.
//!
//! A controller crash loses every piece of in-memory runtime state —
//! engine lineages, deferral chains, the sink's counters, the submission
//! tables. The durable [`ExecutionJournal`] (see
//! [`safehome_core::journal`]) is the only thing that survives, and
//! [`recover`] turns it back into a live core:
//!
//! 1. the `Genesis` record seeds a fresh [`Engine`] with the initial
//!    committed states;
//! 2. the journaled **input** events (submissions, command completions,
//!    detector edges, timer firings) are re-fed through the normal
//!    runtime callbacks, which deterministically re-derive every lineage,
//!    lock, deferral and sink record;
//! 3. the journal hook runs in **verify** mode meanwhile: every record
//!    the replay re-derives is compared against the journal, so a
//!    corrupted or reordered log is rejected at the exact sequence number
//!    where history diverges, and a tail torn off by the crash mid-append
//!    is repaired by re-derivation.
//!
//! What replay cannot decide on its own is the fate of **in-flight
//! writes** — journaled `WriteScheduled`/`WriteStarted` but not
//! `WriteCompleted`. The [`RecoveryReport`] classifies them:
//!
//! - writes journaled `Completed` are the exactly-once cache: they are
//!   *never* re-issued;
//! - in-flight idempotent writes (`Set`/`Read`, reversible undo) are
//!   re-dispatched exactly once by [`HomeRuntime::redrive`], journaling
//!   `WriteRetrying` first so a second crash knows the attempt count;
//! - in-flight writes journaled `Started` whose undo policy is
//!   [`UndoPolicy::Irreversible`] can be neither verified nor undone:
//!   [`recover`] emits the "physically irreversible" feedback note (the
//!   same EV/JiT wording the engine uses when rolling an irreversible
//!   command back) into the report and the journal, and `redrive`
//!   synthesizes a *failed* completion for them so the owning routine
//!   aborts and its reversible effects are rolled back.
//!
//! Two recovery modes fall out:
//!
//! - **Resume** (the sim's crash/restore injection): the world — the
//!   backend with its arrival lane, queue, devices, RNG and detector —
//!   survived; only the controller died. [`HomeRuntime::resume`] rebinds
//!   the recovered core to the surviving backend and the continuation is
//!   event-for-event identical to an uncrashed run (the crash-recovery
//!   tests pin this with `RunCounters` digest equality).
//! - **Redrive** (process restart with a fresh backend): pending
//!   submissions and timers are re-scheduled and in-flight writes
//!   re-driven per the classification above.

use std::collections::{BTreeMap, BTreeSet};

use safehome_core::journal::{EventPayload, ExecutionJournal, JournalWriter};
use safehome_core::{Engine, EngineConfig, TimerId};
use safehome_devices::{Detection, DispatchTicket};
use safehome_types::{
    sink::TraceSink, Action, CmdIdx, DeviceId, Routine, RoutineId, TimeDelta, Timestamp, UndoPolicy,
};

use crate::runtime::{Backend, CommandOutcome, HomeRuntime, HomeTables, Polled, RuntimeCore};
use crate::spec::{Arrival, Submission};

/// A write journaled scheduled/started but not completed at the crash.
#[derive(Debug, Clone, PartialEq)]
pub struct InflightWrite {
    /// Owning routine.
    pub routine: RoutineId,
    /// Command index within the routine.
    pub idx: CmdIdx,
    /// Target device.
    pub device: DeviceId,
    /// The command action (sufficient to re-issue without the spec).
    pub action: Action,
    /// Actuation duration.
    pub duration: TimeDelta,
    /// `true` for rollback (undo) writes.
    pub rollback: bool,
    /// `true` if the write reached phase 2 (`WriteStarted`) — the
    /// command may have reached the device.
    pub started: bool,
    /// Prior recovery re-issues (`WriteRetrying` records).
    pub attempts: u32,
    /// `true` when the command's undo policy is `Irreversible`.
    pub irreversible: bool,
}

/// What [`recover`] reconstructed beyond the core itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Input events re-fed during replay.
    pub replayed: usize,
    /// `true` if the journal's tail was torn by the crash and repaired
    /// by re-derivation.
    pub tail_repaired: bool,
    /// The journal tip time — redrive schedules nothing earlier.
    pub restart_at: Timestamp,
    /// Writes in flight at the crash (see [`InflightWrite`]).
    pub inflight: Vec<InflightWrite>,
    /// Timers armed but not yet fired, with their due times.
    pub pending_timers: Vec<(Timestamp, TimerId)>,
    /// Workload submissions not yet submitted: un-arrived `At` entries
    /// plus released-but-unsubmitted deferrals, with their due times.
    pub pending_submits: Vec<(Timestamp, usize)>,
    /// Human-readable recovery notes (the "physically irreversible"
    /// feedback for started-but-not-completed irreversible writes).
    pub notes: Vec<String>,
}

/// A recovered core plus the report describing what needs re-driving.
pub struct Recovered<'a, S: TraceSink> {
    /// The rebuilt runtime core, journal hook attached (verify mode,
    /// positioned at the journal's end — further execution appends).
    pub core: RuntimeCore<'a, S>,
    /// The recovery classification.
    pub report: RecoveryReport,
}

/// The inert [`Backend`] replay runs against: replayed effects must not
/// re-dispatch commands or re-arm timers (in resume mode the surviving
/// backend already has them; in redrive mode [`HomeRuntime::redrive`]
/// re-issues them deliberately), so every scheduling call is a no-op.
#[derive(Debug, Default)]
pub struct ReplayBackend {
    now: Timestamp,
}

impl Backend for ReplayBackend {
    fn idle(&self) -> bool {
        true
    }

    fn now(&self) -> Timestamp {
        self.now
    }

    fn dispatch(&mut self, _now: Timestamp, _device: DeviceId, _ticket: DispatchTicket) {}

    fn set_timer(&mut self, _at: Timestamp, _timer: TimerId) {}

    fn schedule_submit(&mut self, _at: Timestamp, _index: usize) {}

    fn poll<S: TraceSink>(&mut self, _core: &mut RuntimeCore<'_, S>) -> Polled {
        unreachable!("replay is driven from the journal, never polled")
    }

    fn end_states(&mut self) -> BTreeMap<DeviceId, safehome_types::Value> {
        BTreeMap::new()
    }
}

fn poison_check<S: TraceSink>(core: &RuntimeCore<'_, S>) -> Result<(), String> {
    match core.journal.as_ref().and_then(JournalWriter::poisoned) {
        Some(msg) => Err(msg.to_string()),
        None => Ok(()),
    }
}

/// Rebuilds a [`RuntimeCore`] from a journal, purely by replay.
///
/// `config` and `workload` are the run's static specification (the same
/// values the crashed run was assembled with — replay cross-checks the
/// workload routines and engine-assigned ids against the journal);
/// `sink` is a fresh sink, rebuilt to the crashed sink's exact state by
/// the replayed record stream.
///
/// Fails — without side effects — when the journal violates its replay
/// invariants, describes a different run, or diverges from what the
/// deterministic engine re-derives.
pub fn recover<'a, S: TraceSink>(
    journal: ExecutionJournal,
    config: EngineConfig,
    workload: &'a [Submission],
    sink: S,
) -> Result<Recovered<'a, S>, String> {
    journal.check_invariants()?;
    let Some(first) = journal.events().first() else {
        return Err("cannot recover from an empty journal".into());
    };
    let EventPayload::Genesis {
        initial,
        workload: journaled_len,
        horizon,
    } = &first.payload
    else {
        return Err("journal does not begin with a genesis record".into());
    };
    if *journaled_len != workload.len() as u64 {
        return Err(format!(
            "journal describes a workload of {journaled_len} submissions, got {}",
            workload.len()
        ));
    }
    let horizon = *horizon;
    let engine = Engine::new(config, initial);
    let writer = JournalWriter::verify(journal);
    let mut rb = ReplayBackend::default();
    // Construction and workload scheduling re-derive (and verify) the
    // genesis and deferral-arming records.
    let mut core = RuntimeCore::with_journal(
        engine,
        sink,
        workload,
        horizon,
        HomeTables::new(),
        Some(writer),
    );
    core.schedule_workload(&mut rb);
    poison_check(&core)?;

    let mut replayed = 0usize;
    while let Some((at, seq, payload)) = core
        .journal
        .as_ref()
        .and_then(JournalWriter::peek)
        .map(|ev| (ev.at, ev.seq, ev.payload.clone()))
    {
        rb.now = at;
        match payload {
            EventPayload::RoutineSubmitted {
                sub: Some(i),
                id: _,
                routine: _,
            } => core.submit_indexed(i as usize, at, &mut rb),
            EventPayload::RoutineSubmitted {
                sub: None, routine, ..
            } => {
                core.submit_now(routine, at, &mut rb)
                    .map_err(|e| format!("journal seq {seq}: re-submission failed: {e}"))?;
            }
            EventPayload::WriteCompleted {
                routine,
                idx,
                device,
                action,
                duration,
                rollback,
                success,
                observed,
                new_state,
                edge,
            } => {
                let detection = edge.map(|up| {
                    if up {
                        Detection::Up(device)
                    } else {
                        Detection::Down(device)
                    }
                });
                core.on_command(
                    at,
                    CommandOutcome {
                        device,
                        ticket: DispatchTicket {
                            routine: Some(routine),
                            idx,
                            action,
                            duration,
                            rollback,
                        },
                        success,
                        observed,
                        new_state,
                        detection,
                    },
                    &mut rb,
                );
            }
            EventPayload::DeviceDown { device } => {
                core.emit_detection(Detection::Down(device), at, &mut rb)
            }
            EventPayload::DeviceUp { device } => {
                core.emit_detection(Detection::Up(device), at, &mut rb)
            }
            EventPayload::TimerFired { timer } => core.on_timer(timer, at, &mut rb),
            // Recovery-only records: replay does not regenerate them.
            EventPayload::WriteRetrying { .. } | EventPayload::RecoveryNote { .. } => {
                if let Some(w) = core.journal.as_mut() {
                    w.skip();
                }
                continue;
            }
            other => {
                return Err(format!(
                    "journal seq {seq}: derived record {:?} was not re-produced by replay \
                     (corrupted or out-of-order log)",
                    other.kind()
                ));
            }
        }
        replayed += 1;
        poison_check(&core)?;
    }
    poison_check(&core)?;

    let writer = core.journal.as_ref().expect("journal hook installed");
    let tail_repaired = writer.repaired_tail();
    core.engine
        .check_invariants_with_journal(writer.journal())?;
    let mut report = analyze(writer.journal(), workload);
    report.replayed = replayed;
    report.tail_repaired = tail_repaired;
    // The irreversible notes become durable: a second crash replays past
    // them (they are recovery-only records) instead of re-deriving them.
    let restart_at = report.restart_at;
    let mut notes = Vec::new();
    for w in &report.inflight {
        if !(w.started && w.irreversible) {
            continue;
        }
        let message = format!(
            "recovery: command {} on {} of {} was journaled started but not completed \
             across a crash and is physically irreversible; restoring state only — the \
             physical effect cannot be verified or undone",
            w.idx, w.device, w.routine
        );
        core.jot(
            restart_at,
            EventPayload::RecoveryNote {
                routine: Some(w.routine),
                message: message.clone(),
            },
        );
        notes.push(message);
    }
    report.notes = notes;
    Ok(Recovered { core, report })
}

/// Scans a (validated) journal for everything that was pending at the
/// crash: in-flight writes, armed-but-unfired timers, unsubmitted
/// workload entries.
fn analyze(journal: &ExecutionJournal, workload: &[Submission]) -> RecoveryReport {
    let mut routines: BTreeMap<RoutineId, Routine> = BTreeMap::new();
    let mut inflight: BTreeMap<(RoutineId, CmdIdx, bool), InflightWrite> = BTreeMap::new();
    let mut timers: Vec<(TimerId, Timestamp)> = Vec::new();
    let mut submitted: BTreeSet<usize> = BTreeSet::new();
    let mut released: BTreeMap<usize, Timestamp> = BTreeMap::new();
    for ev in journal.events() {
        match &ev.payload {
            EventPayload::RoutineSubmitted { id, sub, routine } => {
                routines.insert(*id, routine.clone());
                if let Some(s) = sub {
                    submitted.insert(*s as usize);
                    released.remove(&(*s as usize));
                }
            }
            EventPayload::WriteScheduled {
                routine,
                idx,
                device,
                action,
                duration,
                rollback,
            } => {
                let irreversible = routines
                    .get(routine)
                    .and_then(|r| r.commands.get(idx.index()))
                    .is_some_and(|c| c.undo == UndoPolicy::Irreversible);
                inflight.insert(
                    (*routine, *idx, *rollback),
                    InflightWrite {
                        routine: *routine,
                        idx: *idx,
                        device: *device,
                        action: *action,
                        duration: *duration,
                        rollback: *rollback,
                        started: false,
                        attempts: 0,
                        irreversible,
                    },
                );
            }
            EventPayload::WriteStarted {
                routine,
                idx,
                rollback,
                ..
            } => {
                if let Some(w) = inflight.get_mut(&(*routine, *idx, *rollback)) {
                    w.started = true;
                }
            }
            EventPayload::WriteRetrying {
                routine,
                idx,
                rollback,
                ..
            } => {
                if let Some(w) = inflight.get_mut(&(*routine, *idx, *rollback)) {
                    w.attempts += 1;
                }
            }
            EventPayload::WriteCompleted {
                routine,
                idx,
                rollback,
                ..
            } => {
                inflight.remove(&(*routine, *idx, *rollback));
            }
            EventPayload::TimerArmed { timer, fire_at } => timers.push((*timer, *fire_at)),
            EventPayload::TimerFired { timer } => {
                if let Some(pos) = timers.iter().position(|(t, _)| t == timer) {
                    timers.remove(pos);
                }
            }
            EventPayload::DeferralReleased { dep, at, .. } => {
                released.insert(*dep as usize, *at);
            }
            _ => {}
        }
    }
    let mut pending_submits: Vec<(Timestamp, usize)> = Vec::new();
    for (i, s) in workload.iter().enumerate() {
        if submitted.contains(&i) {
            continue;
        }
        match s.arrival {
            Arrival::At(at) => pending_submits.push((at, i)),
            // Unreleased deferrals stay parked in the rebuilt tables and
            // release when their predecessor finishes; released ones were
            // scheduled on the dead backend and must be re-scheduled.
            Arrival::After { .. } => {
                if let Some(&at) = released.get(&i) {
                    pending_submits.push((at, i));
                }
            }
        }
    }
    pending_submits.sort_unstable();
    RecoveryReport {
        replayed: 0,
        tail_repaired: false,
        restart_at: journal.tip_time(),
        inflight: inflight.into_values().collect(),
        pending_timers: timers.into_iter().map(|(t, at)| (at, t)).collect(),
        pending_submits,
        notes: Vec::new(),
    }
}

impl<'a, B: Backend, S: TraceSink> HomeRuntime<'a, B, S> {
    /// Re-drives recovered work onto a **fresh** backend (the world was
    /// lost too — a full process restart, not the sim's crash/restore):
    ///
    /// - pending submissions and armed-but-unfired timers are
    ///   re-scheduled (no earlier than the journal tip);
    /// - in-flight idempotent writes are re-dispatched **exactly once**,
    ///   journaling `WriteRetrying` first — completed writes are never in
    ///   the report, so the journal's phase-3 records are the
    ///   exactly-once cache;
    /// - started irreversible writes are *not* re-issued (re-firing a
    ///   physical one-way effect is worse than losing it): a failed
    ///   completion is synthesized so the owning routine aborts and its
    ///   reversible effects roll back.
    ///
    /// Not needed after [`HomeRuntime::resume`] onto a surviving backend,
    /// whose arrival lane and queue still hold all of this.
    pub fn redrive(&mut self, report: &RecoveryReport) {
        let at = report.restart_at.max(self.backend.now());
        for &(t, i) in &report.pending_submits {
            self.backend.schedule_submit(t.max(at), i);
        }
        for &(t, timer) in &report.pending_timers {
            self.backend.set_timer(t.max(at), timer);
        }
        let mut lost: Vec<&InflightWrite> = Vec::new();
        for w in &report.inflight {
            if w.started && w.irreversible {
                lost.push(w);
                continue;
            }
            self.core.jot(
                at,
                EventPayload::WriteRetrying {
                    routine: w.routine,
                    idx: w.idx,
                    device: w.device,
                    rollback: w.rollback,
                    attempt: w.attempts + 1,
                },
            );
            self.backend.dispatch(
                at,
                w.device,
                DispatchTicket {
                    routine: Some(w.routine),
                    idx: w.idx,
                    action: w.action,
                    duration: w.duration,
                    rollback: w.rollback,
                },
            );
        }
        for w in lost {
            self.core.on_command(
                at,
                CommandOutcome {
                    device: w.device,
                    ticket: DispatchTicket {
                        routine: Some(w.routine),
                        idx: w.idx,
                        action: w.action,
                        duration: w.duration,
                        rollback: w.rollback,
                    },
                    success: false,
                    observed: None,
                    new_state: None,
                    detection: None,
                },
                &mut self.backend,
            );
        }
        self.core.done = false;
        self.core.completed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Step;
    use crate::sim::{Driver, SimBackend};
    use crate::spec::RunSpec;
    use safehome_core::VisibilityModel;
    use safehome_devices::catalog::plug_home;
    use safehome_devices::FailurePlan;
    use safehome_types::sink::RunCounters;
    use safehome_types::Value;

    fn d(i: u32) -> DeviceId {
        DeviceId(i)
    }

    fn simple_routine(devs: &[u32], v: Value) -> Routine {
        let mut b = Routine::builder("r");
        for &i in devs {
            b = b.set(d(i), v, TimeDelta::from_millis(100));
        }
        b.build()
    }

    /// A busy little spec: overlapping routines on shared devices, an
    /// `After` chain and a fail/recover window, so every journal record
    /// kind shows up and crashes land in interesting states.
    fn crashy_spec() -> RunSpec {
        let mut spec =
            RunSpec::new(plug_home(4), EngineConfig::new(VisibilityModel::ev())).with_seed(7);
        spec.failures = FailurePlan::none().fail_recover(
            d(3),
            Timestamp::from_millis(350),
            TimeDelta::from_secs(2),
        );
        let mut first = 0;
        for i in 0..4u64 {
            first = spec.submit(Submission::at(
                simple_routine(&[(i % 4) as u32, ((i + 1) % 4) as u32], Value::ON),
                Timestamp::from_millis(i * 150),
            ));
        }
        spec.submit(Submission::after(
            simple_routine(&[2], Value::OFF),
            first,
            TimeDelta::from_millis(50),
        ));
        spec
    }

    /// A routine whose second command is physically irreversible.
    fn irreversible_spec() -> RunSpec {
        let mut spec = RunSpec::new(plug_home(2), EngineConfig::new(VisibilityModel::ev()));
        let r = Routine::builder("sprinkler")
            .set(d(0), Value::ON, TimeDelta::from_millis(100))
            .set_irreversible(d(1), Value::ON, TimeDelta::from_millis(100))
            .build();
        spec.submit(Submission::at(r, Timestamp::ZERO));
        spec
    }

    fn uncrashed(spec: &RunSpec) -> (RunCounters, BTreeMap<DeviceId, safehome_types::Value>) {
        let mut drv = Driver::with_sink(spec, RunCounters::new());
        assert!(drv.run_to_quiescence());
        let (counters, committed, done) = drv.into_output();
        assert!(done);
        (counters, committed)
    }

    /// Steps a journaled run until its journal holds at least `k`
    /// records (or the run ends first).
    fn run_journaled_until(spec: &RunSpec, k: usize) -> Driver<'_, RunCounters> {
        let mut drv = Driver::with_journal(spec, RunCounters::new());
        while drv.journal().expect("journaled").len() < k && !drv.is_done() {
            match drv.step() {
                Step::Event(_) => {}
                Step::Quiescent | Step::Stalled => break,
                Step::Idle => unreachable!("the simulation backend never idles"),
            }
        }
        drv
    }

    fn journal_has(j: &ExecutionJournal, pred: impl Fn(&EventPayload) -> bool) -> bool {
        j.events().iter().any(|e| pred(&e.payload))
    }

    /// The tentpole's determinism pin: crash at *every* journal length,
    /// recover by replay, resume onto the surviving world, and the full
    /// [`RunCounters`] — committed/aborted counts, latencies, end time
    /// and the event-stream digest — must equal the uncrashed run's.
    #[test]
    fn resume_after_crash_matches_uncrashed_at_every_index() {
        let spec = crashy_spec();
        let (base, base_states) = uncrashed(&spec);
        let mut full = Driver::with_journal(&spec, RunCounters::new());
        assert!(full.run_to_quiescence());
        let total = full.journal().expect("journaled").len();
        assert!(total > 20, "spec too quiet to exercise recovery ({total})");
        for k in 0..=total {
            let drv = run_journaled_until(&spec, k);
            let (journal, world) = drv.crash();
            let rec = recover(
                journal,
                spec.config.clone(),
                &spec.submissions,
                RunCounters::new(),
            )
            .unwrap_or_else(|e| panic!("crash index {k}: {e}"));
            assert!(
                rec.report.notes.is_empty(),
                "crash index {k}: no irreversible commands in this spec"
            );
            let mut resumed = HomeRuntime::resume(rec.core, world);
            assert!(resumed.run_to_quiescence(), "crash index {k}");
            resumed.check_invariants().unwrap();
            let (counters, states, done) = resumed.into_output();
            assert!(done, "crash index {k}");
            assert_eq!(counters, base, "crash index {k}: counters diverged");
            assert_eq!(states, base_states, "crash index {k}: states diverged");
        }
    }

    /// Journaling must not perturb the recorded event stream: the
    /// counters (digest included) match a journal-free run exactly.
    #[test]
    fn journaling_is_digest_neutral() {
        let spec = crashy_spec();
        let (base, _) = uncrashed(&spec);
        let mut drv = Driver::with_journal(&spec, RunCounters::new());
        assert!(drv.run_to_quiescence());
        let (counters, _, _) = drv.into_output();
        assert_eq!(counters, base);
    }

    /// Redrive onto a resurrected world: at a *cold* point — engine
    /// quiescent, world holding nothing but future workload submissions
    /// — a journaled home crashes, its backend is torn down to a world
    /// snapshot whose pending submissions (the lane's unconsumed arrivals
    /// and the dependents drained from the queue) are then taken out, and
    /// the core is rebuilt by journal replay. Redrive must re-derive
    /// exactly those submissions, in pop order, from the journal alone,
    /// and the continuation must be invisible — counters, digest and end
    /// states equal a never-crashed run — through repeated cycles. (The
    /// service runner's eviction keeps the core and the snapshot's
    /// submissions instead; `service::tests::evicted_home_resumes_event_for_event`
    /// pins that.)
    #[test]
    fn quiescent_evict_and_resurrect_matches_unevicted() {
        let mut spec =
            RunSpec::new(plug_home(3), EngineConfig::new(VisibilityModel::ev())).with_seed(11);
        // Sparse absolute arrivals: cold gaps between routine clusters.
        for (i, at) in [0u64, 400_000, 800_000, 800_000].into_iter().enumerate() {
            let i = i as u32;
            spec.submit(Submission::at(
                simple_routine(&[i % 3, (i + 1) % 3], Value::ON),
                Timestamp::from_millis(at),
            ));
        }
        let (want, want_states) = uncrashed(&spec);

        let mut drv = Driver::with_journal(&spec, RunCounters::new());
        let mut evictions = 0;
        loop {
            if drv.is_done() {
                break;
            }
            if evictions < 8 && drv.engine().quiescent() && drv.backend().only_submits_pending() {
                let (journal, backend) = drv.crash();
                let mut world = backend.into_world_snapshot();
                let drained = world.take_pending_submits();
                let rec = recover(
                    journal,
                    spec.config.clone(),
                    &spec.submissions,
                    RunCounters::new(),
                )
                .expect("an eviction-time journal always replays");
                assert!(
                    rec.report.inflight.is_empty(),
                    "cold means nothing in flight"
                );
                assert!(
                    rec.report.pending_timers.is_empty(),
                    "cold means no armed timers"
                );
                assert_eq!(
                    rec.report.pending_submits, drained,
                    "replay derives the submissions the world held, in pop order"
                );
                drv = HomeRuntime::resume(rec.core, SimBackend::resurrect(&spec, world));
                drv.redrive(&rec.report);
                evictions += 1;
            }
            match drv.step() {
                Step::Event(_) | Step::Idle => {}
                Step::Quiescent | Step::Stalled => break,
            }
        }
        assert!(evictions > 0, "the sparse spec must hit cold points");
        drv.check_invariants().unwrap();
        let (counters, states, done) = drv.into_output();
        assert!(done);
        assert_eq!(counters, want, "eviction must be invisible in the counters");
        assert_eq!(
            states, want_states,
            "eviction must be invisible in end states"
        );
    }

    /// Engine + journal invariants hold at every step boundary.
    #[test]
    fn invariants_hold_at_every_step() {
        let spec = crashy_spec();
        let mut drv = Driver::with_journal(&spec, RunCounters::new());
        loop {
            drv.check_invariants().unwrap();
            match drv.step() {
                Step::Event(_) => {}
                _ => break,
            }
        }
        drv.check_invariants().unwrap();
    }

    /// The journal survives its serialized form: crash, round-trip the
    /// journal through JSON, recover from the parsed copy, resume.
    #[test]
    fn json_roundtrip_then_recover_resumes_cleanly() {
        let spec = crashy_spec();
        let drv = run_journaled_until(&spec, 40);
        let (journal, world) = drv.crash();
        let text = journal.to_string_pretty();
        let parsed = ExecutionJournal::parse(&text).unwrap();
        assert_eq!(parsed, journal, "JSON round-trip must be lossless");
        let rec = recover(
            parsed,
            spec.config.clone(),
            &spec.submissions,
            RunCounters::new(),
        )
        .unwrap();
        let mut resumed = HomeRuntime::resume(rec.core, world);
        assert!(resumed.run_to_quiescence());
        resumed.check_invariants().unwrap();
    }

    /// A derived record whose payload was tampered with (device flipped;
    /// the replay invariants still hold) is caught by verify-mode replay
    /// at its exact sequence number.
    #[test]
    fn tampered_derived_record_is_rejected_at_its_seq() {
        let spec = crashy_spec();
        let mut full = Driver::with_journal(&spec, RunCounters::new());
        assert!(full.run_to_quiescence());
        let (mut journal, _world) = full.crash();
        let idx = journal
            .events()
            .iter()
            .position(|e| matches!(e.payload, EventPayload::WriteScheduled { .. }))
            .expect("run dispatched at least one write");
        let seq = journal.events()[idx].seq;
        if let EventPayload::WriteScheduled { device, .. } = &mut journal.events_mut()[idx].payload
        {
            *device = DeviceId(device.0 ^ 1);
        }
        let err = recover(
            journal,
            spec.config.clone(),
            &spec.submissions,
            RunCounters::new(),
        )
        .err()
        .expect("recovery must fail");
        assert!(
            err.contains(&format!("seq {seq}")),
            "error should name the diverging record: {err}"
        );
    }

    /// A corrupted sequence number is rejected by the journal's own
    /// invariants before any replay happens.
    #[test]
    fn tampered_sequence_is_rejected_by_invariants() {
        let spec = crashy_spec();
        let drv = run_journaled_until(&spec, 20);
        let (mut journal, _world) = drv.crash();
        journal.events_mut()[5].seq += 1;
        let err = recover(
            journal,
            spec.config.clone(),
            &spec.submissions,
            RunCounters::new(),
        )
        .err()
        .expect("recovery must fail");
        assert!(err.contains("journal seq"), "{err}");
    }

    /// A tail torn off mid-append by the crash (derived records after
    /// the last input lost) is repaired by re-derivation: the recovered
    /// journal is byte-identical to the untorn one.
    #[test]
    fn torn_tail_is_repaired_by_replay() {
        let spec = crashy_spec();
        let mut full = Driver::with_journal(&spec, RunCounters::new());
        assert!(full.run_to_quiescence());
        let (full_journal, _world) = full.crash();
        let li = full_journal
            .events()
            .iter()
            .rposition(|e| e.payload.is_input())
            .expect("run had input events");
        assert!(
            li + 1 < full_journal.len(),
            "derived records must follow the last input"
        );
        let mut torn = full_journal.clone();
        torn.truncate(li + 1);
        let rec = recover(
            torn,
            spec.config.clone(),
            &spec.submissions,
            RunCounters::new(),
        )
        .unwrap();
        assert!(rec.report.tail_repaired);
        assert_eq!(
            rec.core.journal.as_ref().unwrap().journal(),
            &full_journal,
            "replay must re-derive the torn tail exactly"
        );
    }

    /// Recovery refuses journals that describe a different run.
    #[test]
    fn journal_for_a_different_workload_is_rejected() {
        let spec = crashy_spec();
        let drv = run_journaled_until(&spec, 10);
        let (journal, _world) = drv.crash();
        let mut other = crashy_spec();
        other.submit(Submission::at(
            simple_routine(&[0], Value::OFF),
            Timestamp::from_secs(30),
        ));
        let err = recover(
            journal,
            other.config.clone(),
            &other.submissions,
            RunCounters::new(),
        )
        .err()
        .expect("recovery must fail");
        assert!(err.contains("workload"), "{err}");
    }

    /// Empty and genesis-less journals are rejected up front.
    #[test]
    fn recover_rejects_empty_and_genesis_less_journals() {
        let spec = crashy_spec();
        let err = recover(
            ExecutionJournal::new(),
            spec.config.clone(),
            &spec.submissions,
            RunCounters::new(),
        )
        .err()
        .expect("recovery must fail");
        assert!(err.contains("empty"), "{err}");
        let mut no_genesis = ExecutionJournal::new();
        no_genesis.push(Timestamp::ZERO, EventPayload::DeviceDown { device: d(0) });
        assert!(recover(
            no_genesis,
            spec.config.clone(),
            &spec.submissions,
            RunCounters::new(),
        )
        .is_err());
    }

    /// An irreversible write journaled started but not completed yields
    /// the "physically irreversible" note — in the report and durably in
    /// the journal.
    #[test]
    fn irreversible_inflight_write_yields_recovery_note() {
        let spec = irreversible_spec();
        let mut drv = Driver::with_journal(&spec, RunCounters::new());
        loop {
            let started = journal_has(
                drv.journal().unwrap(),
                |p| matches!(p, EventPayload::WriteStarted { idx, .. } if idx.index() == 1),
            );
            if started {
                break;
            }
            assert!(
                matches!(drv.step(), Step::Event(_)),
                "run ended before the irreversible write dispatched"
            );
        }
        let (journal, _world) = drv.crash();
        let rec = recover(
            journal,
            spec.config.clone(),
            &spec.submissions,
            RunCounters::new(),
        )
        .unwrap();
        let w = rec
            .report
            .inflight
            .iter()
            .find(|w| w.irreversible)
            .expect("irreversible write in flight");
        assert!(w.started);
        assert_eq!(rec.report.notes.len(), 1);
        assert!(rec.report.notes[0].contains("physically irreversible"));
        assert!(
            journal_has(rec.core.journal.as_ref().unwrap().journal(), |p| {
                matches!(p, EventPayload::RecoveryNote { routine: Some(_), message }
                    if message.contains("physically irreversible"))
            }),
            "the note must be durable (a second crash replays past it)"
        );
    }

    /// Redrive onto a fresh world re-dispatches an in-flight idempotent
    /// write exactly once: one `WriteRetrying`, one completion, and the
    /// routine commits.
    #[test]
    fn redrive_completes_idempotent_write_exactly_once() {
        let mut spec = RunSpec::new(plug_home(1), EngineConfig::new(VisibilityModel::ev()));
        spec.submit(Submission::at(
            simple_routine(&[0], Value::ON),
            Timestamp::ZERO,
        ));
        let mut drv = Driver::with_journal(&spec, RunCounters::new());
        while !journal_has(drv.journal().unwrap(), |p| {
            matches!(p, EventPayload::WriteStarted { .. })
        }) {
            assert!(matches!(drv.step(), Step::Event(_)));
        }
        let (journal, _lost_world) = drv.crash();
        let rec = recover(
            journal,
            spec.config.clone(),
            &spec.submissions,
            RunCounters::new(),
        )
        .unwrap();
        assert_eq!(rec.report.inflight.len(), 1);
        assert!(rec.report.inflight[0].started);
        assert!(!rec.report.inflight[0].irreversible);
        let mut rt = HomeRuntime::resume(rec.core, SimBackend::fresh(&spec));
        rt.redrive(&rec.report);
        assert!(rt.run_to_quiescence());
        rt.check_invariants().unwrap();
        let j = rt.journal().unwrap();
        let retries = j
            .events()
            .iter()
            .filter(|e| matches!(e.payload, EventPayload::WriteRetrying { .. }))
            .count();
        let completions = j
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.payload,
                    EventPayload::WriteCompleted {
                        rollback: false,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(retries, 1, "exactly one re-issue");
        assert_eq!(completions, 1, "exactly one completion — never duplicated");
        assert_eq!(rt.committed_ids().len(), 1);
        assert_eq!(rt.engine().committed_states()[&d(0)], Value::ON);
    }

    /// Redrive never re-fires a started irreversible write: it
    /// synthesizes a failed completion, the routine aborts, and the
    /// already-executed reversible write is rolled back.
    #[test]
    fn redrive_aborts_routine_with_lost_irreversible_write() {
        let spec = irreversible_spec();
        let mut drv = Driver::with_journal(&spec, RunCounters::new());
        loop {
            let started = journal_has(
                drv.journal().unwrap(),
                |p| matches!(p, EventPayload::WriteStarted { idx, .. } if idx.index() == 1),
            );
            if started {
                break;
            }
            assert!(matches!(drv.step(), Step::Event(_)));
        }
        let (journal, _lost_world) = drv.crash();
        let rec = recover(
            journal,
            spec.config.clone(),
            &spec.submissions,
            RunCounters::new(),
        )
        .unwrap();
        let mut rt = HomeRuntime::resume(rec.core, SimBackend::fresh(&spec));
        rt.redrive(&rec.report);
        assert!(rt.run_to_quiescence());
        rt.check_invariants().unwrap();
        assert_eq!(rt.aborted_ids().len(), 1, "the owning routine aborts");
        let j = rt.journal().unwrap();
        assert!(
            !journal_has(j, |p| matches!(p, EventPayload::WriteRetrying { .. })),
            "irreversible writes are never re-issued"
        );
        assert!(
            journal_has(j, |p| matches!(
                p,
                EventPayload::WriteCompleted { rollback: true, .. }
            )),
            "the executed reversible write rolls back"
        );
        assert_eq!(rt.engine().committed_states()[&d(0)], Value::OFF);
    }
}
