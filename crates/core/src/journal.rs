//! The durable per-home execution journal.
//!
//! SafeHome's guarantees — atomic routines over a spectrum of visibility
//! models — are proved over an in-memory state machine, but a controller
//! crash mid-routine would silently void them: lineages, `After`-deferral
//! chains and in-flight device writes all die with the process. The
//! [`ExecutionJournal`] closes that gap. It is an **append-only** log of
//! everything the runtime does, with monotone sequence numbers, and all
//! recovered state is derived **purely by replay** — the journal is the
//! only source of truth; there are no checkpoint snapshots to drift out
//! of sync.
//!
//! # Event taxonomy
//!
//! | Category    | Events |
//! |-------------|--------|
//! | meta        | `Genesis` (initial device states, workload size, horizon) |
//! | lifecycle   | `RoutineSubmitted`, `RoutineStarted`, `RoutineCommitted`, `RoutineAborted` (abort = rolled back; the payload carries `rolled_back`) |
//! | side effect | `WriteScheduled` → `WriteStarted` → `WriteCompleted`, plus `WriteRetrying` and `WriteSkipped` |
//! | health      | `DeviceDown`, `DeviceUp` |
//! | lease/timer | `TimerArmed`, `TimerFired` (lease revocation, TTL, pacing) |
//! | deferral    | `DeferralArmed`, `DeferralReleased` |
//! | feedback    | `Feedback`, `RecoveryNote` |
//!
//! # The 3-phase side-effect pattern
//!
//! Device writes touch the physical world, so they get three journal
//! records instead of one (the Scheduled → Started → Completed pattern):
//!
//! - **`WriteScheduled`**: the engine decided to write — *intent* is
//!   durable before anything is sent;
//! - **`WriteStarted`**: the command was handed to the I/O layer — after
//!   a crash the write may or may not have reached the device;
//! - **`WriteCompleted`**: the device acknowledged — the full outcome is
//!   durable and acts as the *replay cache*: a completed write is never
//!   re-issued by recovery (exactly-once).
//!
//! A write journaled `Started` but not `Completed` at recovery is the
//! interesting case: idempotent writes (`Action::Set`) are re-issued
//! exactly once (journaling `WriteRetrying`), while commands whose undo
//! policy is [`UndoPolicy::Irreversible`] cannot be verified or undone —
//! recovery emits the "physically irreversible" feedback note (see
//! `irreversible_note` in the engine) as an
//! [`EventPayload::RecoveryNote`].
//!
//! # Input vs. derived events
//!
//! Replay only needs the events that *drive* the runtime (submissions,
//! command completions, detector edges, timer firings —
//! [`EventPayload::is_input`]). Every other record is re-derived by the
//! deterministic engine during replay and **verified** against the
//! journal record-by-record, so corruption is detected at the exact
//! sequence number where history diverges (see [`JournalWriter::verify`]).
//!
//! Serialization uses [`safehome_types::json`] only — no external
//! registry dependencies.

use std::collections::{BTreeMap, BTreeSet};

use safehome_types::json::{obj, Json};
use safehome_types::trace::AbortReason;
use safehome_types::{
    Action, CmdIdx, Command, DeviceId, Priority, Routine, RoutineId, TimeDelta, Timestamp,
    UndoPolicy, Value,
};

use crate::event::TimerId;

/// One journal record: a monotone sequence number, the run-relative
/// instant it happened, and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEvent {
    /// Dense sequence number (equals the record's index).
    pub seq: u64,
    /// Run-relative time of the event.
    pub at: Timestamp,
    /// What happened.
    pub payload: EventPayload,
}

/// What one journal record says happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventPayload {
    /// The run began: initial committed device states, workload size and
    /// time horizon. Always the first record.
    Genesis {
        /// Initial committed device states.
        initial: BTreeMap<DeviceId, Value>,
        /// Number of workload submissions.
        workload: u64,
        /// The run's stall horizon.
        horizon: Timestamp,
    },
    /// A routine entered the engine. Carries the full routine payload so
    /// recovery can rebuild lineages without the workload generator.
    RoutineSubmitted {
        /// The engine-assigned id (dense from 1; replay re-derives and
        /// cross-checks it).
        id: RoutineId,
        /// Workload index, or `None` for interactive submissions.
        sub: Option<u64>,
        /// The routine itself.
        routine: Routine,
    },
    /// The routine began executing.
    RoutineStarted {
        /// The routine.
        routine: RoutineId,
    },
    /// The routine committed.
    RoutineCommitted {
        /// The routine.
        routine: RoutineId,
    },
    /// The routine aborted and was rolled back.
    RoutineAborted {
        /// The routine.
        routine: RoutineId,
        /// Why it aborted.
        reason: AbortReason,
        /// Commands that had executed when the abort hit.
        executed: u32,
        /// Commands rolled back.
        rolled_back: u32,
    },
    /// Phase 1: the engine decided to write (intent durable before I/O).
    WriteScheduled {
        /// Owning routine.
        routine: RoutineId,
        /// Command index within the routine.
        idx: CmdIdx,
        /// Target device.
        device: DeviceId,
        /// The command action.
        action: Action,
        /// Actuation duration.
        duration: TimeDelta,
        /// `true` for rollback (undo) writes.
        rollback: bool,
    },
    /// Phase 2: the command was handed to the I/O layer.
    WriteStarted {
        /// Owning routine.
        routine: RoutineId,
        /// Command index within the routine.
        idx: CmdIdx,
        /// Target device.
        device: DeviceId,
        /// `true` for rollback (undo) writes.
        rollback: bool,
    },
    /// Phase 3: the device acknowledged (or definitively failed). This
    /// is the exactly-once replay cache: a completed write is never
    /// re-issued by recovery. Carries everything needed to re-feed the
    /// completion during replay.
    WriteCompleted {
        /// Owning routine.
        routine: RoutineId,
        /// Command index within the routine.
        idx: CmdIdx,
        /// Target device.
        device: DeviceId,
        /// The command action (lets recovery re-issue without the spec).
        action: Action,
        /// Actuation duration.
        duration: TimeDelta,
        /// `true` for rollback (undo) writes.
        rollback: bool,
        /// `true` if the command succeeded.
        success: bool,
        /// Observed value (reads only).
        observed: Option<Value>,
        /// New device state, if the write took effect.
        new_state: Option<Value>,
        /// Detector edge implied by the reply: `Some(true)` = up-edge,
        /// `Some(false)` = down-edge.
        edge: Option<bool>,
    },
    /// Recovery re-issued an in-flight write (journaled before the
    /// re-dispatch, so a second crash knows the attempt count).
    WriteRetrying {
        /// Owning routine.
        routine: RoutineId,
        /// Command index within the routine.
        idx: CmdIdx,
        /// Target device.
        device: DeviceId,
        /// `true` for rollback (undo) writes.
        rollback: bool,
        /// 1-based re-issue attempt.
        attempt: u32,
    },
    /// A best-effort command was skipped (its device was down).
    WriteSkipped {
        /// Owning routine.
        routine: RoutineId,
        /// Command index within the routine.
        idx: CmdIdx,
        /// Target device.
        device: DeviceId,
    },
    /// The failure detector reported the device down.
    DeviceDown {
        /// The device.
        device: DeviceId,
    },
    /// The failure detector reported the device back up.
    DeviceUp {
        /// The device.
        device: DeviceId,
    },
    /// An engine timer (lease revocation, TTL, pacing) was armed.
    TimerArmed {
        /// The timer.
        timer: TimerId,
        /// When it is due.
        fire_at: Timestamp,
    },
    /// An engine timer fired.
    TimerFired {
        /// The timer.
        timer: TimerId,
    },
    /// Workload entry `dep` was parked until entry `pred` finishes.
    DeferralArmed {
        /// Predecessor workload index.
        pred: u64,
        /// Dependent workload index.
        dep: u64,
        /// Extra delay after the predecessor finishes.
        delay: TimeDelta,
    },
    /// A deferral chain link released: the predecessor finished and the
    /// dependent was scheduled.
    DeferralReleased {
        /// The predecessor routine (the finished one).
        pred: RoutineId,
        /// Dependent workload index.
        dep: u64,
        /// When the dependent will be submitted.
        at: Timestamp,
    },
    /// An engine feedback message for the user.
    Feedback {
        /// The routine it concerns, if any.
        routine: Option<RoutineId>,
        /// The message.
        message: String,
    },
    /// A note recovery appended (e.g. the "physically irreversible"
    /// warning for a write journaled started but not completed).
    RecoveryNote {
        /// The routine it concerns, if any.
        routine: Option<RoutineId>,
        /// The message.
        message: String,
    },
}

impl EventPayload {
    /// `true` for the events that *drive* replay (everything else is
    /// re-derived by the engine and merely verified).
    pub fn is_input(&self) -> bool {
        matches!(
            self,
            EventPayload::RoutineSubmitted { .. }
                | EventPayload::WriteCompleted { .. }
                | EventPayload::DeviceDown { .. }
                | EventPayload::DeviceUp { .. }
                | EventPayload::TimerFired { .. }
        )
    }

    /// The snake_case tag used in the JSON form.
    pub fn kind(&self) -> &'static str {
        match self {
            EventPayload::Genesis { .. } => "genesis",
            EventPayload::RoutineSubmitted { .. } => "routine_submitted",
            EventPayload::RoutineStarted { .. } => "routine_started",
            EventPayload::RoutineCommitted { .. } => "routine_committed",
            EventPayload::RoutineAborted { .. } => "routine_aborted",
            EventPayload::WriteScheduled { .. } => "write_scheduled",
            EventPayload::WriteStarted { .. } => "write_started",
            EventPayload::WriteCompleted { .. } => "write_completed",
            EventPayload::WriteRetrying { .. } => "write_retrying",
            EventPayload::WriteSkipped { .. } => "write_skipped",
            EventPayload::DeviceDown { .. } => "device_down",
            EventPayload::DeviceUp { .. } => "device_up",
            EventPayload::TimerArmed { .. } => "timer_armed",
            EventPayload::TimerFired { .. } => "timer_fired",
            EventPayload::DeferralArmed { .. } => "deferral_armed",
            EventPayload::DeferralReleased { .. } => "deferral_released",
            EventPayload::Feedback { .. } => "feedback",
            EventPayload::RecoveryNote { .. } => "recovery_note",
        }
    }
}

/// The append-only per-home execution journal.
///
/// Records carry dense, monotone sequence numbers assigned by
/// [`ExecutionJournal::push`]; [`ExecutionJournal::check_invariants`]
/// validates the structural replay invariants, and the JSON form
/// ([`ExecutionJournal::to_json`]) round-trips losslessly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionJournal {
    events: Vec<JournalEvent>,
}

impl ExecutionJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record, assigning the next sequence number.
    pub fn push(&mut self, at: Timestamp, payload: EventPayload) -> u64 {
        let seq = self.events.len() as u64;
        self.events.push(JournalEvent { seq, at, payload });
        seq
    }

    /// The records, in sequence order.
    pub fn events(&self) -> &[JournalEvent] {
        &self.events
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the journal has no records.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The time of the newest record (`Timestamp::ZERO` when empty).
    pub fn tip_time(&self) -> Timestamp {
        self.events.last().map_or(Timestamp::ZERO, |e| e.at)
    }

    /// Approximate heap footprint of the journal in bytes: the record
    /// vector's capacity times the record size. A lower bound — payload
    /// heap data (routine command vectors, genesis state maps) is not
    /// chased — but good enough to size a home's durable footprint per
    /// routine or against its resident (queue + device) footprint.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.events.capacity() * std::mem::size_of::<JournalEvent>()
    }

    /// Drops every record past `len` — simulates a torn tail (a crash
    /// mid-append). Recovery repairs truncated tails by re-deriving them.
    pub fn truncate(&mut self, len: usize) {
        self.events.truncate(len);
    }

    /// Mutable access to the records, for tooling and corruption tests.
    /// A tampered journal is rejected by [`Self::check_invariants`] or by
    /// verify-mode replay at the exact diverging record.
    pub fn events_mut(&mut self) -> &mut [JournalEvent] {
        &mut self.events
    }

    /// Validates the structural replay invariants:
    ///
    /// - the sequence is dense and monotone from 0;
    /// - timestamps never go backwards;
    /// - the first record (and only the first) is `Genesis`;
    /// - lifecycle events reference submitted routines, no routine is
    ///   submitted or finished twice;
    /// - the 3-phase side-effect order holds per `(routine, idx,
    ///   rollback)` key: no `Started` without `Scheduled`, no `Completed`
    ///   without `Started`, no double `Scheduled`/`Completed`.
    pub fn check_invariants(&self) -> Result<(), String> {
        #[derive(Clone, Copy, PartialEq)]
        enum Phase {
            Scheduled,
            Started,
            Retrying,
            Completed,
        }
        let mut last_at = Timestamp::ZERO;
        let mut submitted: BTreeSet<RoutineId> = BTreeSet::new();
        let mut finished: BTreeSet<RoutineId> = BTreeSet::new();
        let mut phases: BTreeMap<(RoutineId, CmdIdx, bool), Phase> = BTreeMap::new();
        let fail = |seq: usize, msg: String| Err(format!("journal seq {seq}: {msg}"));
        for (i, ev) in self.events.iter().enumerate() {
            if ev.seq != i as u64 {
                return fail(
                    i,
                    format!("non-monotone sequence (record carries {})", ev.seq),
                );
            }
            if ev.at < last_at {
                return fail(i, format!("time went backwards ({} < {last_at})", ev.at));
            }
            last_at = ev.at;
            let genesis = matches!(ev.payload, EventPayload::Genesis { .. });
            if (i == 0) != genesis {
                return fail(
                    i,
                    if genesis {
                        "second genesis record".into()
                    } else {
                        "journal must begin with a genesis record".into()
                    },
                );
            }
            let known = |r: &RoutineId| submitted.contains(r);
            match &ev.payload {
                EventPayload::Genesis { .. } => {}
                EventPayload::RoutineSubmitted { id, .. } => {
                    if !submitted.insert(*id) {
                        return fail(i, format!("{id} submitted twice"));
                    }
                }
                EventPayload::RoutineStarted { routine } => {
                    if !known(routine) {
                        return fail(i, format!("{routine} started before submission"));
                    }
                }
                EventPayload::RoutineCommitted { routine }
                | EventPayload::RoutineAborted { routine, .. } => {
                    if !known(routine) {
                        return fail(i, format!("{routine} finished before submission"));
                    }
                    if !finished.insert(*routine) {
                        return fail(i, format!("{routine} finished twice"));
                    }
                }
                EventPayload::WriteScheduled {
                    routine,
                    idx,
                    rollback,
                    ..
                } => {
                    if !known(routine) {
                        return fail(i, format!("write by unsubmitted {routine}"));
                    }
                    let key = (*routine, *idx, *rollback);
                    if phases.insert(key, Phase::Scheduled).is_some() {
                        return fail(i, format!("write {routine}/{idx} scheduled twice"));
                    }
                }
                EventPayload::WriteStarted {
                    routine,
                    idx,
                    rollback,
                    ..
                } => {
                    let key = (*routine, *idx, *rollback);
                    match phases.get(&key) {
                        Some(Phase::Scheduled) => {
                            phases.insert(key, Phase::Started);
                        }
                        _ => {
                            return fail(
                                i,
                                format!("write {routine}/{idx} started without being scheduled"),
                            )
                        }
                    }
                }
                EventPayload::WriteRetrying {
                    routine,
                    idx,
                    rollback,
                    ..
                } => {
                    let key = (*routine, *idx, *rollback);
                    match phases.get(&key) {
                        Some(Phase::Scheduled | Phase::Started | Phase::Retrying) => {
                            phases.insert(key, Phase::Retrying);
                        }
                        _ => {
                            return fail(
                                i,
                                format!("write {routine}/{idx} retried without being in flight"),
                            )
                        }
                    }
                }
                EventPayload::WriteCompleted {
                    routine,
                    idx,
                    rollback,
                    ..
                } => {
                    let key = (*routine, *idx, *rollback);
                    match phases.get(&key) {
                        Some(Phase::Started | Phase::Retrying) => {
                            phases.insert(key, Phase::Completed);
                        }
                        _ => {
                            return fail(
                                i,
                                format!("write {routine}/{idx} completed without being started"),
                            )
                        }
                    }
                }
                EventPayload::WriteSkipped { routine, .. } => {
                    if !known(routine) {
                        return fail(i, format!("skip by unsubmitted {routine}"));
                    }
                }
                EventPayload::DeferralReleased { pred, .. } => {
                    if !known(pred) {
                        return fail(i, format!("deferral released by unsubmitted {pred}"));
                    }
                }
                EventPayload::DeviceDown { .. }
                | EventPayload::DeviceUp { .. }
                | EventPayload::TimerArmed { .. }
                | EventPayload::TimerFired { .. }
                | EventPayload::DeferralArmed { .. }
                | EventPayload::Feedback { .. }
                | EventPayload::RecoveryNote { .. } => {}
            }
        }
        Ok(())
    }

    /// The journal as a JSON array (one object per record).
    pub fn to_json(&self) -> Json {
        Json::Arr(self.events.iter().map(JournalEvent::to_json).collect())
    }

    /// Pretty JSON text (one durable-log flush unit per record).
    pub fn to_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Decodes a journal from its JSON form.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let arr = json.as_array().ok_or("journal JSON must be an array")?;
        let events = arr
            .iter()
            .map(JournalEvent::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ExecutionJournal { events })
    }

    /// Parses a journal from JSON text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let json = Json::parse(text).map_err(|e| format!("journal JSON: {e}"))?;
        Self::from_json(&json)
    }
}

// ---------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------

fn ts(t: Timestamp) -> Json {
    Json::Int(t.0 as i64)
}

fn delta(d: TimeDelta) -> Json {
    Json::Int(d.0 as i64)
}

fn value(v: Value) -> Json {
    match v {
        Value::Bool(b) => Json::Bool(b),
        Value::Int(i) => Json::Int(i),
    }
}

fn opt_value(v: Option<Value>) -> Json {
    v.map_or(Json::Null, value)
}

fn action(a: Action) -> Json {
    match a {
        Action::Set(v) => obj([("set", value(v))]),
        Action::Read { expect } => obj([("read", opt_value(expect))]),
    }
}

fn undo(u: UndoPolicy) -> Json {
    match u {
        UndoPolicy::RestorePrevious => Json::Str("restore".into()),
        UndoPolicy::Irreversible => Json::Str("irreversible".into()),
        UndoPolicy::Handler(v) => obj([("handler", value(v))]),
    }
}

fn command(c: &Command) -> Json {
    obj([
        ("device", Json::Int(c.device.0 as i64)),
        ("action", action(c.action)),
        ("duration_ms", delta(c.duration)),
        (
            "priority",
            Json::Str(
                match c.priority {
                    Priority::Must => "must",
                    Priority::BestEffort => "best_effort",
                }
                .into(),
            ),
        ),
        ("undo", undo(c.undo)),
    ])
}

fn routine_json(r: &Routine) -> Json {
    obj([
        ("name", Json::Str(r.name.clone())),
        (
            "commands",
            Json::Arr(r.commands.iter().map(command).collect()),
        ),
    ])
}

fn timer(t: TimerId) -> Json {
    match t {
        TimerId::LeaseRevocation { routine, device } => obj([(
            "lease",
            obj([
                ("routine", Json::Int(routine.0 as i64)),
                ("device", Json::Int(device.0 as i64)),
            ]),
        )]),
        TimerId::Ttl { routine } => obj([("ttl", Json::Int(routine.0 as i64))]),
        TimerId::Pace { routine } => obj([("pace", Json::Int(routine.0 as i64))]),
        TimerId::Kick => Json::Str("kick".into()),
    }
}

fn reason(r: AbortReason) -> Json {
    match r {
        AbortReason::MustCommandFailed { device } => {
            obj([("must_command_failed", Json::Int(device.0 as i64))])
        }
        AbortReason::FailureSerialization { device } => {
            obj([("failure_serialization", Json::Int(device.0 as i64))])
        }
        AbortReason::LeaseRevoked { device } => {
            obj([("lease_revoked", Json::Int(device.0 as i64))])
        }
        AbortReason::GuardFailed { device } => obj([("guard_failed", Json::Int(device.0 as i64))]),
    }
}

fn opt_routine_id(r: Option<RoutineId>) -> Json {
    r.map_or(Json::Null, |id| Json::Int(id.0 as i64))
}

impl JournalEvent {
    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("seq".to_string(), Json::Int(self.seq as i64)),
            ("at".to_string(), ts(self.at)),
            ("ev".to_string(), Json::Str(self.payload.kind().into())),
        ];
        let mut put = |k: &str, v: Json| members.push((k.to_string(), v));
        match &self.payload {
            EventPayload::Genesis {
                initial,
                workload,
                horizon,
            } => {
                put(
                    "initial",
                    Json::Arr(
                        initial
                            .iter()
                            .map(|(d, v)| Json::Arr(vec![Json::Int(d.0 as i64), value(*v)]))
                            .collect(),
                    ),
                );
                put("workload", Json::Int(*workload as i64));
                put("horizon", ts(*horizon));
            }
            EventPayload::RoutineSubmitted { id, sub, routine } => {
                put("id", Json::Int(id.0 as i64));
                put("sub", sub.map_or(Json::Null, |s| Json::Int(s as i64)));
                put("routine", routine_json(routine));
            }
            EventPayload::RoutineStarted { routine }
            | EventPayload::RoutineCommitted { routine } => {
                put("routine", Json::Int(routine.0 as i64));
            }
            EventPayload::RoutineAborted {
                routine,
                reason: r,
                executed,
                rolled_back,
            } => {
                put("routine", Json::Int(routine.0 as i64));
                put("reason", reason(*r));
                put("executed", Json::Int(*executed as i64));
                put("rolled_back", Json::Int(*rolled_back as i64));
            }
            EventPayload::WriteScheduled {
                routine,
                idx,
                device,
                action: a,
                duration,
                rollback,
            } => {
                put("routine", Json::Int(routine.0 as i64));
                put("idx", Json::Int(idx.0 as i64));
                put("device", Json::Int(device.0 as i64));
                put("action", action(*a));
                put("duration_ms", delta(*duration));
                put("rollback", Json::Bool(*rollback));
            }
            EventPayload::WriteStarted {
                routine,
                idx,
                device,
                rollback,
            } => {
                put("routine", Json::Int(routine.0 as i64));
                put("idx", Json::Int(idx.0 as i64));
                put("device", Json::Int(device.0 as i64));
                put("rollback", Json::Bool(*rollback));
            }
            EventPayload::WriteCompleted {
                routine,
                idx,
                device,
                action: a,
                duration,
                rollback,
                success,
                observed,
                new_state,
                edge,
            } => {
                put("routine", Json::Int(routine.0 as i64));
                put("idx", Json::Int(idx.0 as i64));
                put("device", Json::Int(device.0 as i64));
                put("action", action(*a));
                put("duration_ms", delta(*duration));
                put("rollback", Json::Bool(*rollback));
                put("success", Json::Bool(*success));
                put("observed", opt_value(*observed));
                put("new_state", opt_value(*new_state));
                put("edge", edge.map_or(Json::Null, Json::Bool));
            }
            EventPayload::WriteRetrying {
                routine,
                idx,
                device,
                rollback,
                attempt,
            } => {
                put("routine", Json::Int(routine.0 as i64));
                put("idx", Json::Int(idx.0 as i64));
                put("device", Json::Int(device.0 as i64));
                put("rollback", Json::Bool(*rollback));
                put("attempt", Json::Int(*attempt as i64));
            }
            EventPayload::WriteSkipped {
                routine,
                idx,
                device,
            } => {
                put("routine", Json::Int(routine.0 as i64));
                put("idx", Json::Int(idx.0 as i64));
                put("device", Json::Int(device.0 as i64));
            }
            EventPayload::DeviceDown { device } | EventPayload::DeviceUp { device } => {
                put("device", Json::Int(device.0 as i64));
            }
            EventPayload::TimerArmed { timer: t, fire_at } => {
                put("timer", timer(*t));
                put("fire_at", ts(*fire_at));
            }
            EventPayload::TimerFired { timer: t } => {
                put("timer", timer(*t));
            }
            EventPayload::DeferralArmed { pred, dep, delay } => {
                put("pred", Json::Int(*pred as i64));
                put("dep", Json::Int(*dep as i64));
                put("delay_ms", delta(*delay));
            }
            EventPayload::DeferralReleased { pred, dep, at } => {
                put("pred", Json::Int(pred.0 as i64));
                put("dep", Json::Int(*dep as i64));
                put("release_at", ts(*at));
            }
            EventPayload::Feedback { routine, message }
            | EventPayload::RecoveryNote { routine, message } => {
                put("routine", opt_routine_id(*routine));
                put("message", Json::Str(message.clone()));
            }
        }
        Json::Obj(members)
    }

    /// Decodes one record from its JSON object form.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let int = |k: &str| -> Result<i64, String> {
            json.get(k)
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("missing integer field {k:?}"))
        };
        let seq = int("seq")? as u64;
        let at = Timestamp(int("at")? as u64);
        let kind = json
            .get("ev")
            .and_then(Json::as_str)
            .ok_or("missing event tag \"ev\"")?;
        let routine_id = |k: &str| int(k).map(|v| RoutineId(v as u64));
        let device_id = |k: &str| int(k).map(|v| DeviceId(v as u32));
        let cmd_idx = |k: &str| int(k).map(|v| CmdIdx(v as u16));
        let field = |k: &str| json.get(k).ok_or_else(|| format!("missing field {k:?}"));
        let opt_val = |k: &str| -> Result<Option<Value>, String> {
            Ok(match json.get(k) {
                None | Some(Json::Null) => None,
                Some(j) => Some(decode_value(j)?),
            })
        };
        let boolean = |k: &str| -> Result<bool, String> {
            json.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("missing boolean field {k:?}"))
        };
        let payload = match kind {
            "genesis" => {
                let mut initial = BTreeMap::new();
                for pair in field("initial")?
                    .as_array()
                    .ok_or("initial must be an array")?
                {
                    let pair = pair.as_array().ok_or("initial entries must be pairs")?;
                    if pair.len() != 2 {
                        return Err("initial entries must be pairs".into());
                    }
                    let d = DeviceId(pair[0].as_i64().ok_or("bad device id")? as u32);
                    initial.insert(d, decode_value(&pair[1])?);
                }
                EventPayload::Genesis {
                    initial,
                    workload: int("workload")? as u64,
                    horizon: Timestamp(int("horizon")? as u64),
                }
            }
            "routine_submitted" => EventPayload::RoutineSubmitted {
                id: routine_id("id")?,
                sub: match json.get("sub") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(j.as_i64().ok_or("bad sub index")? as u64),
                },
                routine: decode_routine(field("routine")?)?,
            },
            "routine_started" => EventPayload::RoutineStarted {
                routine: routine_id("routine")?,
            },
            "routine_committed" => EventPayload::RoutineCommitted {
                routine: routine_id("routine")?,
            },
            "routine_aborted" => EventPayload::RoutineAborted {
                routine: routine_id("routine")?,
                reason: decode_reason(field("reason")?)?,
                executed: int("executed")? as u32,
                rolled_back: int("rolled_back")? as u32,
            },
            "write_scheduled" => EventPayload::WriteScheduled {
                routine: routine_id("routine")?,
                idx: cmd_idx("idx")?,
                device: device_id("device")?,
                action: decode_action(field("action")?)?,
                duration: TimeDelta(int("duration_ms")? as u64),
                rollback: boolean("rollback")?,
            },
            "write_started" => EventPayload::WriteStarted {
                routine: routine_id("routine")?,
                idx: cmd_idx("idx")?,
                device: device_id("device")?,
                rollback: boolean("rollback")?,
            },
            "write_completed" => EventPayload::WriteCompleted {
                routine: routine_id("routine")?,
                idx: cmd_idx("idx")?,
                device: device_id("device")?,
                action: decode_action(field("action")?)?,
                duration: TimeDelta(int("duration_ms")? as u64),
                rollback: boolean("rollback")?,
                success: boolean("success")?,
                observed: opt_val("observed")?,
                new_state: opt_val("new_state")?,
                edge: match json.get("edge") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(j.as_bool().ok_or("bad edge flag")?),
                },
            },
            "write_retrying" => EventPayload::WriteRetrying {
                routine: routine_id("routine")?,
                idx: cmd_idx("idx")?,
                device: device_id("device")?,
                rollback: boolean("rollback")?,
                attempt: int("attempt")? as u32,
            },
            "write_skipped" => EventPayload::WriteSkipped {
                routine: routine_id("routine")?,
                idx: cmd_idx("idx")?,
                device: device_id("device")?,
            },
            "device_down" => EventPayload::DeviceDown {
                device: device_id("device")?,
            },
            "device_up" => EventPayload::DeviceUp {
                device: device_id("device")?,
            },
            "timer_armed" => EventPayload::TimerArmed {
                timer: decode_timer(field("timer")?)?,
                fire_at: Timestamp(int("fire_at")? as u64),
            },
            "timer_fired" => EventPayload::TimerFired {
                timer: decode_timer(field("timer")?)?,
            },
            "deferral_armed" => EventPayload::DeferralArmed {
                pred: int("pred")? as u64,
                dep: int("dep")? as u64,
                delay: TimeDelta(int("delay_ms")? as u64),
            },
            "deferral_released" => EventPayload::DeferralReleased {
                pred: routine_id("pred")?,
                dep: int("dep")? as u64,
                at: Timestamp(int("release_at")? as u64),
            },
            "feedback" | "recovery_note" => {
                let routine = match json.get("routine") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(RoutineId(j.as_i64().ok_or("bad routine id")? as u64)),
                };
                let message = json
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("missing message")?
                    .to_string();
                if kind == "feedback" {
                    EventPayload::Feedback { routine, message }
                } else {
                    EventPayload::RecoveryNote { routine, message }
                }
            }
            other => return Err(format!("unknown journal event tag {other:?}")),
        };
        Ok(JournalEvent { seq, at, payload })
    }
}

fn decode_value(j: &Json) -> Result<Value, String> {
    match j {
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        other => Err(format!("bad value {other:?}")),
    }
}

fn decode_action(j: &Json) -> Result<Action, String> {
    if let Some(v) = j.get("set") {
        return Ok(Action::Set(decode_value(v)?));
    }
    if let Some(v) = j.get("read") {
        let expect = if v.is_null() {
            None
        } else {
            Some(decode_value(v)?)
        };
        return Ok(Action::Read { expect });
    }
    Err(format!("bad action {j:?}"))
}

fn decode_undo(j: &Json) -> Result<UndoPolicy, String> {
    match j.as_str() {
        Some("restore") => return Ok(UndoPolicy::RestorePrevious),
        Some("irreversible") => return Ok(UndoPolicy::Irreversible),
        _ => {}
    }
    if let Some(v) = j.get("handler") {
        return Ok(UndoPolicy::Handler(decode_value(v)?));
    }
    Err(format!("bad undo policy {j:?}"))
}

fn decode_routine(j: &Json) -> Result<Routine, String> {
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or("routine missing name")?
        .to_string();
    let mut commands = Vec::new();
    for c in j
        .get("commands")
        .and_then(Json::as_array)
        .ok_or("routine missing commands")?
    {
        let device = DeviceId(
            c.get("device")
                .and_then(Json::as_i64)
                .ok_or("command missing device")? as u32,
        );
        let act = decode_action(c.get("action").ok_or("command missing action")?)?;
        let duration = TimeDelta(
            c.get("duration_ms")
                .and_then(Json::as_i64)
                .ok_or("command missing duration")? as u64,
        );
        let priority = match c.get("priority").and_then(Json::as_str) {
            Some("must") => Priority::Must,
            Some("best_effort") => Priority::BestEffort,
            other => return Err(format!("bad priority {other:?}")),
        };
        let u = decode_undo(c.get("undo").ok_or("command missing undo")?)?;
        commands.push(Command {
            device,
            action: act,
            duration,
            priority,
            undo: u,
        });
    }
    Ok(Routine { name, commands })
}

fn decode_timer(j: &Json) -> Result<TimerId, String> {
    if j.as_str() == Some("kick") {
        return Ok(TimerId::Kick);
    }
    if let Some(l) = j.get("lease") {
        return Ok(TimerId::LeaseRevocation {
            routine: RoutineId(l.get("routine").and_then(Json::as_i64).ok_or("bad lease")? as u64),
            device: DeviceId(l.get("device").and_then(Json::as_i64).ok_or("bad lease")? as u32),
        });
    }
    if let Some(r) = j.get("ttl") {
        return Ok(TimerId::Ttl {
            routine: RoutineId(r.as_i64().ok_or("bad ttl")? as u64),
        });
    }
    if let Some(r) = j.get("pace") {
        return Ok(TimerId::Pace {
            routine: RoutineId(r.as_i64().ok_or("bad pace")? as u64),
        });
    }
    Err(format!("bad timer {j:?}"))
}

fn decode_reason(j: &Json) -> Result<AbortReason, String> {
    let dev = |v: &Json| -> Result<DeviceId, String> {
        Ok(DeviceId(v.as_i64().ok_or("bad abort reason device")? as u32))
    };
    if let Some(v) = j.get("must_command_failed") {
        return Ok(AbortReason::MustCommandFailed { device: dev(v)? });
    }
    if let Some(v) = j.get("failure_serialization") {
        return Ok(AbortReason::FailureSerialization { device: dev(v)? });
    }
    if let Some(v) = j.get("lease_revoked") {
        return Ok(AbortReason::LeaseRevoked { device: dev(v)? });
    }
    if let Some(v) = j.get("guard_failed") {
        return Ok(AbortReason::GuardFailed { device: dev(v)? });
    }
    Err(format!("bad abort reason {j:?}"))
}

// ---------------------------------------------------------------------
// Writer: record on the live path, verify on the replay path
// ---------------------------------------------------------------------

/// How a [`JournalWriter`] treats emitted events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriterMode {
    /// Live run: append every event.
    Record,
    /// Replay: compare each emitted event against the journal at the
    /// cursor; append past the end (repairing a torn tail).
    Verify,
}

/// The runtime's journaling hook.
///
/// On the live path ([`JournalWriter::record`]) every emitted event is
/// appended. On the recovery path ([`JournalWriter::verify`]) the runtime
/// re-executes history from journaled inputs, and each event it emits is
/// **compared** against the journal record at the cursor: a mismatch
/// poisons the writer with the exact diverging sequence number (the
/// journal or the code lied about history — recovery must not continue),
/// while events emitted past the journal's end are appended, repairing a
/// tail torn by the crash mid-append.
#[derive(Debug)]
pub struct JournalWriter {
    journal: ExecutionJournal,
    mode: WriterMode,
    cursor: usize,
    repaired_tail: bool,
    poison: Option<String>,
}

impl JournalWriter {
    /// A live-path writer appending to `journal`.
    pub fn record(journal: ExecutionJournal) -> Self {
        JournalWriter {
            cursor: journal.len(),
            journal,
            mode: WriterMode::Record,
            repaired_tail: false,
            poison: None,
        }
    }

    /// A replay-path writer verifying against `journal` from the start.
    pub fn verify(journal: ExecutionJournal) -> Self {
        JournalWriter {
            journal,
            mode: WriterMode::Verify,
            cursor: 0,
            repaired_tail: false,
            poison: None,
        }
    }

    /// Emits one event: appends (record mode / past the end) or verifies
    /// it against the cursor record (verify mode).
    pub fn emit(&mut self, at: Timestamp, payload: EventPayload) {
        if self.poison.is_some() {
            return;
        }
        if self.mode == WriterMode::Verify {
            if let Some(expect) = self.journal.events.get(self.cursor) {
                if expect.at == at && expect.payload == payload {
                    self.cursor += 1;
                } else {
                    self.poison = Some(format!(
                        "replay diverged at journal seq {}: journal says {:?} at {}, \
                         replay produced {:?} at {at}",
                        self.cursor, expect.payload, expect.at, payload
                    ));
                }
                return;
            }
            // Past the journaled end: the crash tore the tail off after
            // the last input; re-derive and append the lost records.
            self.repaired_tail = true;
        }
        self.journal.push(at, payload);
        self.cursor = self.journal.len();
    }

    /// The next unconsumed record (verify mode; `None` once exhausted or
    /// in record mode).
    pub fn peek(&self) -> Option<&JournalEvent> {
        match self.mode {
            WriterMode::Verify => self.journal.events.get(self.cursor),
            WriterMode::Record => None,
        }
    }

    /// Skips the cursor past a record that replay does not regenerate
    /// (recovery-only records: `WriteRetrying`, `RecoveryNote`).
    pub fn skip(&mut self) {
        if self.mode == WriterMode::Verify && self.cursor < self.journal.len() {
            self.cursor += 1;
        }
    }

    /// The divergence message, if verification failed.
    pub fn poisoned(&self) -> Option<&str> {
        self.poison.as_deref()
    }

    /// `true` if verify-mode replay re-derived records past the journaled
    /// end (a tail torn by the crash was repaired).
    pub fn repaired_tail(&self) -> bool {
        self.repaired_tail
    }

    /// Read access to the journal.
    pub fn journal(&self) -> &ExecutionJournal {
        &self.journal
    }

    /// Consumes the writer, returning the journal.
    pub fn into_journal(self) -> ExecutionJournal {
        self.journal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: u64) -> RoutineId {
        RoutineId(i)
    }

    fn did(i: u32) -> DeviceId {
        DeviceId(i)
    }

    fn sample_routine() -> Routine {
        Routine {
            name: "morning".into(),
            commands: vec![
                Command {
                    device: did(0),
                    action: Action::Set(Value::ON),
                    duration: TimeDelta::from_millis(100),
                    priority: Priority::Must,
                    undo: UndoPolicy::RestorePrevious,
                },
                Command {
                    device: did(1),
                    action: Action::Read {
                        expect: Some(Value::Int(3)),
                    },
                    duration: TimeDelta::from_millis(50),
                    priority: Priority::BestEffort,
                    undo: UndoPolicy::Irreversible,
                },
                Command {
                    device: did(2),
                    action: Action::Set(Value::Int(7)),
                    duration: TimeDelta::ZERO,
                    priority: Priority::Must,
                    undo: UndoPolicy::Handler(Value::OFF),
                },
            ],
        }
    }

    /// One of every payload variant, in an invariant-respecting order.
    fn sample_journal() -> ExecutionJournal {
        let mut j = ExecutionJournal::new();
        let t = Timestamp::from_millis;
        j.push(
            t(0),
            EventPayload::Genesis {
                initial: [(did(0), Value::OFF), (did(1), Value::Int(3))].into(),
                workload: 2,
                horizon: t(100_000),
            },
        );
        j.push(
            t(0),
            EventPayload::DeferralArmed {
                pred: 0,
                dep: 1,
                delay: TimeDelta::from_millis(250),
            },
        );
        j.push(
            t(5),
            EventPayload::RoutineSubmitted {
                id: rid(1),
                sub: Some(0),
                routine: sample_routine(),
            },
        );
        j.push(t(5), EventPayload::RoutineStarted { routine: rid(1) });
        j.push(
            t(5),
            EventPayload::WriteScheduled {
                routine: rid(1),
                idx: CmdIdx(0),
                device: did(0),
                action: Action::Set(Value::ON),
                duration: TimeDelta::from_millis(100),
                rollback: false,
            },
        );
        j.push(
            t(5),
            EventPayload::WriteStarted {
                routine: rid(1),
                idx: CmdIdx(0),
                device: did(0),
                rollback: false,
            },
        );
        j.push(
            t(6),
            EventPayload::TimerArmed {
                timer: TimerId::LeaseRevocation {
                    routine: rid(1),
                    device: did(0),
                },
                fire_at: t(2_000),
            },
        );
        j.push(
            t(7),
            EventPayload::WriteSkipped {
                routine: rid(1),
                idx: CmdIdx(1),
                device: did(1),
            },
        );
        j.push(t(10), EventPayload::DeviceDown { device: did(2) });
        j.push(t(12), EventPayload::DeviceUp { device: did(2) });
        j.push(
            t(20),
            EventPayload::WriteRetrying {
                routine: rid(1),
                idx: CmdIdx(0),
                device: did(0),
                rollback: false,
                attempt: 1,
            },
        );
        j.push(
            t(110),
            EventPayload::WriteCompleted {
                routine: rid(1),
                idx: CmdIdx(0),
                device: did(0),
                action: Action::Set(Value::ON),
                duration: TimeDelta::from_millis(100),
                rollback: false,
                success: true,
                observed: None,
                new_state: Some(Value::ON),
                edge: Some(true),
            },
        );
        j.push(
            t(2_000),
            EventPayload::TimerFired {
                timer: TimerId::LeaseRevocation {
                    routine: rid(1),
                    device: did(0),
                },
            },
        );
        j.push(
            t(2_001),
            EventPayload::RoutineAborted {
                routine: rid(1),
                reason: AbortReason::LeaseRevoked { device: did(0) },
                executed: 1,
                rolled_back: 1,
            },
        );
        j.push(
            t(2_001),
            EventPayload::DeferralReleased {
                pred: rid(1),
                dep: 1,
                at: t(2_251),
            },
        );
        j.push(
            t(2_251),
            EventPayload::RoutineSubmitted {
                id: rid(2),
                sub: Some(1),
                routine: sample_routine(),
            },
        );
        j.push(t(2_251), EventPayload::RoutineStarted { routine: rid(2) });
        j.push(t(2_300), EventPayload::RoutineCommitted { routine: rid(2) });
        j.push(
            t(2_300),
            EventPayload::Feedback {
                routine: Some(rid(2)),
                message: "done".into(),
            },
        );
        j.push(
            t(2_301),
            EventPayload::RecoveryNote {
                routine: None,
                message: "command c1 on D1 is physically irreversible".into(),
            },
        );
        j
    }

    #[test]
    fn sample_journal_passes_invariants() {
        sample_journal().check_invariants().expect("well-formed");
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let j = sample_journal();
        let text = j.to_string_pretty();
        let back = ExecutionJournal::parse(&text).expect("parses");
        assert_eq!(j, back);
        // Compact form round-trips too.
        let compact = j.to_json().to_string_compact();
        assert_eq!(ExecutionJournal::parse(&compact).expect("parses"), j);
    }

    #[test]
    fn every_event_kind_has_a_distinct_tag() {
        let j = sample_journal();
        let mut tags: Vec<&str> = j.events().iter().map(|e| e.payload.kind()).collect();
        tags.sort_unstable();
        tags.dedup();
        // 19 variants, but the sample reuses some kinds for chained
        // routines; at minimum all the distinct ones used must survive.
        assert!(tags.len() >= 16, "got {tags:?}");
    }

    #[test]
    fn tampered_sequence_is_rejected() {
        let mut j = sample_journal();
        j.events_mut()[3].seq = 99;
        let err = j.check_invariants().unwrap_err();
        assert!(err.contains("non-monotone sequence"), "{err}");
    }

    #[test]
    fn completed_without_started_is_rejected() {
        let mut j = ExecutionJournal::new();
        j.push(
            Timestamp::ZERO,
            EventPayload::Genesis {
                initial: BTreeMap::new(),
                workload: 0,
                horizon: Timestamp::from_secs(10),
            },
        );
        j.push(
            Timestamp::ZERO,
            EventPayload::RoutineSubmitted {
                id: rid(1),
                sub: None,
                routine: sample_routine(),
            },
        );
        j.push(
            Timestamp::ZERO,
            EventPayload::WriteScheduled {
                routine: rid(1),
                idx: CmdIdx(0),
                device: did(0),
                action: Action::Set(Value::ON),
                duration: TimeDelta::ZERO,
                rollback: false,
            },
        );
        j.push(
            Timestamp::ZERO,
            EventPayload::WriteCompleted {
                routine: rid(1),
                idx: CmdIdx(0),
                device: did(0),
                action: Action::Set(Value::ON),
                duration: TimeDelta::ZERO,
                rollback: false,
                success: true,
                observed: None,
                new_state: Some(Value::ON),
                edge: None,
            },
        );
        let err = j.check_invariants().unwrap_err();
        assert!(err.contains("completed without being started"), "{err}");
    }

    #[test]
    fn started_without_scheduled_is_rejected() {
        let mut j = ExecutionJournal::new();
        j.push(
            Timestamp::ZERO,
            EventPayload::Genesis {
                initial: BTreeMap::new(),
                workload: 0,
                horizon: Timestamp::from_secs(10),
            },
        );
        j.push(
            Timestamp::ZERO,
            EventPayload::RoutineSubmitted {
                id: rid(1),
                sub: None,
                routine: sample_routine(),
            },
        );
        j.push(
            Timestamp::ZERO,
            EventPayload::WriteStarted {
                routine: rid(1),
                idx: CmdIdx(0),
                device: did(0),
                rollback: false,
            },
        );
        let err = j.check_invariants().unwrap_err();
        assert!(err.contains("started without being scheduled"), "{err}");
    }

    #[test]
    fn missing_genesis_is_rejected() {
        let mut j = ExecutionJournal::new();
        j.push(Timestamp::ZERO, EventPayload::DeviceDown { device: did(0) });
        let err = j.check_invariants().unwrap_err();
        assert!(err.contains("genesis"), "{err}");
    }

    #[test]
    fn backwards_time_is_rejected() {
        let mut j = sample_journal();
        let last = j.len() - 1;
        j.events_mut()[last].at = Timestamp::ZERO;
        let err = j.check_invariants().unwrap_err();
        assert!(err.contains("time went backwards"), "{err}");
    }

    #[test]
    fn verify_writer_accepts_identical_history() {
        let j = sample_journal();
        let mut w = JournalWriter::verify(j.clone());
        for ev in j.events() {
            w.emit(ev.at, ev.payload.clone());
        }
        assert!(w.poisoned().is_none());
        assert!(!w.repaired_tail());
        assert_eq!(w.into_journal(), j);
    }

    #[test]
    fn verify_writer_poisons_on_divergence() {
        let j = sample_journal();
        let mut w = JournalWriter::verify(j.clone());
        w.emit(j.events()[0].at, j.events()[0].payload.clone());
        // Replay claims a different record at seq 1.
        w.emit(
            j.events()[1].at,
            EventPayload::DeviceDown { device: did(9) },
        );
        let msg = w.poisoned().expect("poisoned");
        assert!(msg.contains("seq 1"), "{msg}");
    }

    #[test]
    fn verify_writer_repairs_torn_tail() {
        let full = sample_journal();
        let mut torn = full.clone();
        torn.truncate(full.len() - 2);
        let mut w = JournalWriter::verify(torn);
        for ev in full.events() {
            w.emit(ev.at, ev.payload.clone());
        }
        assert!(w.poisoned().is_none());
        assert!(w.repaired_tail());
        assert_eq!(w.into_journal(), full, "tail re-derived verbatim");
    }

    #[test]
    fn record_writer_appends_with_dense_seqs() {
        let mut w = JournalWriter::record(ExecutionJournal::new());
        w.emit(
            Timestamp::ZERO,
            EventPayload::Genesis {
                initial: BTreeMap::new(),
                workload: 0,
                horizon: Timestamp::from_secs(1),
            },
        );
        w.emit(
            Timestamp::from_millis(3),
            EventPayload::DeviceDown { device: did(0) },
        );
        let j = w.into_journal();
        assert_eq!(j.len(), 2);
        assert_eq!(j.events()[1].seq, 1);
        j.check_invariants().expect("well-formed");
    }
}
