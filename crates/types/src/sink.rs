//! Pluggable trace sinks.
//!
//! The harness driver reports every run event through the [`TraceSink`]
//! trait instead of writing straight into a [`Trace`]. The full recorder
//! ([`Trace`] itself) stays the default and keeps the complete event
//! stream; [`RunCounters`] is the fleet-scale alternative that folds each
//! event into counters, per-routine latencies and a deterministic digest
//! without any per-event allocation — removing trace recording from the
//! hot loop when thousands of homes run in one process.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use crate::id::RoutineId;
use crate::routine::Routine;
use crate::time::Timestamp;
use crate::trace::{InflightWriteTracker, OrderItem, Trace, TraceEventKind};
use crate::value::Value;
use crate::DeviceId;

/// Receiver for the events of one simulated run.
///
/// Implementations must be cheap relative to the event rate: the driver
/// calls [`TraceSink::record`] for every dispatch, completion, state
/// change and detection in the run.
pub trait TraceSink {
    /// Registers a submitted routine. Recording sinks clone the
    /// definition; counting sinks only read its shape.
    fn record_submission(&mut self, id: RoutineId, routine: &Routine, at: Timestamp);

    /// Appends one run event.
    fn record(&mut self, at: Timestamp, kind: TraceEventKind);

    /// Marks the boundary between two backend event pops. Only
    /// instrumenting sinks (the intra-home sub-run recorder) segment the
    /// call stream by pop; ordinary sinks ignore it.
    fn pop_boundary(&mut self) {}

    /// Finalizes the sink when the run ends: the engine's witness order,
    /// the devices' actual end states, and the engine's committed view
    /// (for end-state congruence checking).
    fn finish(
        &mut self,
        final_order: Vec<OrderItem>,
        end_states: BTreeMap<DeviceId, Value>,
        committed_states: &BTreeMap<DeviceId, Value>,
    );
}

impl TraceSink for Trace {
    fn record_submission(&mut self, id: RoutineId, routine: &Routine, at: Timestamp) {
        Trace::record_submission(self, id, routine.clone(), at);
    }

    fn record(&mut self, at: Timestamp, kind: TraceEventKind) {
        self.push(at, kind);
    }

    fn finish(
        &mut self,
        final_order: Vec<OrderItem>,
        end_states: BTreeMap<DeviceId, Value>,
        _committed_states: &BTreeMap<DeviceId, Value>,
    ) {
        self.final_order = final_order;
        self.end_states = end_states;
    }
}

/// The digest hasher: deterministic across runs, threads and platforms
/// (unlike `DefaultHasher`, whose keys are unspecified). Integer writes —
/// the only thing the trace vocabulary contains — take a wide
/// multiply-rotate mix (FxHash-style) so digesting stays off the hot
/// loop's profile; the byte path falls back to FNV-1a.
struct DigestHasher(u64);

impl DigestHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .rotate_left(23);
    }
}

impl Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The initial state of a [`fold_digest`] chain.
pub const DIGEST_SEED: u64 = DigestHasher::OFFSET;

/// Folds one value into a running digest, using the same deterministic
/// hasher as [`RunCounters::digest`]. Aggregators (e.g. the fleet's
/// per-home digest combination) must use this rather than re-implement
/// the mixing, so a digest-scheme change stays in one place.
pub fn fold_digest(acc: u64, value: u64) -> u64 {
    let mut h = DigestHasher(acc);
    h.write_u64(value);
    h.finish()
}

/// How many buffered words trigger a digest mixing pass. Events hash to
/// a handful of words each, so one pass folds roughly a dozen events —
/// amortizing the per-event hasher setup and letting the enum traversal
/// and the serial mix chain run as separate tight loops. Replaying the
/// buffered words through the same chain is bit-for-bit identical to
/// mixing them eagerly, so committed digest baselines are unaffected.
const DIGEST_BATCH: usize = 64;

/// Replays buffered words through the digest chain (see
/// [`DIGEST_BATCH`]); the chain state resumes exactly where the last
/// flush left it, so batching never changes the final digest.
fn flush_words(digest: &mut u64, pending: &mut Vec<u64>) {
    let mut h = DigestHasher(*digest);
    for &w in pending.iter() {
        h.write_u64(w);
    }
    *digest = h.finish();
    pending.clear();
}

/// Hasher that captures the word stream into the batch buffer instead of
/// mixing eagerly. The rarely-taken byte path (no trace vocabulary hits
/// it today) flushes and applies the FNV byte mix directly, preserving
/// the exact chain order of the unbatched digest.
struct BatchHasher<'a> {
    digest: &'a mut u64,
    pending: &'a mut Vec<u64>,
}

impl BatchHasher<'_> {
    #[inline]
    fn push(&mut self, v: u64) {
        self.pending.push(v);
    }
}

impl Hasher for BatchHasher<'_> {
    fn write(&mut self, bytes: &[u8]) {
        flush_words(self.digest, self.pending);
        for &b in bytes {
            *self.digest ^= b as u64;
            *self.digest = self.digest.wrapping_mul(DigestHasher::PRIME);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.push(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.push(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.push(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.push(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.push(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.push(i as u64);
    }

    fn finish(&self) -> u64 {
        unreachable!("BatchHasher only captures; the digest chain finishes at flush")
    }
}

/// Per-routine bookkeeping while a routine is in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SubInfo {
    submitted: Timestamp,
    commands: u32,
    /// The routine's ideal runtime in ms (floored at 1), the normalizer
    /// for normalized latency and stretch.
    ideal_ms: u64,
    started: Option<Timestamp>,
}

/// Counters-only sink: outcomes, latencies, end-state congruence,
/// temporary incongruence, parallelism and a deterministic event digest —
/// no per-event `Vec` pushes, memory bounded by the home (routines ×
/// devices), never by the event count.
///
/// Temporary incongruence and parallelism come from in-flight write
/// tracking: the sink keeps, per started-but-unfinished routine, the set
/// of devices it has modified, and folds every `StateChanged` against
/// those sets — the same §7.1 definitions as the full-trace metrics pass
/// (asserted equal in the harness and bench tests), which used to force
/// the Fig. 1/16/17 experiments onto the allocating `Trace` path.
///
/// Two runs with identical event streams, witness orders and end states
/// produce byte-identical `RunCounters` (the fleet determinism check
/// compares them across worker-thread counts).
///
/// Per-routine distribution metrics (normalized latency, waits, stretch
/// — the quantities that used to force experiments onto the trace path)
/// are kept as pooled vectors, bounded by the routine count; experiments
/// recycle one sink across trials via [`RunCounters::reset`], so the
/// steady state allocates nothing per trial either.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCounters {
    /// Routines submitted.
    pub submitted: u64,
    /// Routines committed.
    pub committed: u64,
    /// Routines aborted.
    pub aborted: u64,
    /// Best-effort commands skipped.
    pub best_effort_skipped: u64,
    /// Commands dispatched (excluding rollback writes).
    pub dispatches: u64,
    /// Commands that completed successfully.
    pub command_successes: u64,
    /// Commands that failed at the device.
    pub command_failures: u64,
    /// Device state changes (including rollback writes).
    pub state_changes: u64,
    /// State changes attributed to rollback writes.
    pub rollback_writes: u64,
    /// Detector down transitions.
    pub down_detections: u64,
    /// Detector up transitions.
    pub up_detections: u64,
    /// Submit-to-finish latency of every finished routine, in
    /// milliseconds, in finish order.
    pub latencies_ms: Vec<u64>,
    /// Latency normalized by the routine's own ideal runtime, committed
    /// routines only (the paper's Fig. 14a metric; same definition as
    /// the trace pass).
    pub normalized_latencies: Vec<f64>,
    /// Wait time (submission → actual start) per started routine, ms.
    pub waits_ms: Vec<f64>,
    /// Stretch factor per committed routine: (finish − start) / ideal.
    pub stretch: Vec<f64>,
    /// Time of the last recorded event.
    pub end_time: Timestamp,
    /// `true` when the devices' end states match the engine's committed
    /// view on every device not believed down at the end of the run.
    pub congruent: bool,
    /// Normalized swap distance between the witness serialization order
    /// (routines only) and submission order, in `[0, 1]`. Set at finish;
    /// same definition as the full-trace metrics pass (§7.1 "order
    /// mismatch").
    pub order_mismatch: f64,
    /// Fraction of routines that suffered ≥ 1 temporary-incongruence
    /// event — another routine changed a device they had modified,
    /// before they finished (§7.1, Figs. 1/16/17). Set at finish;
    /// computed from the in-flight write tracking below with the same
    /// definition as the full-trace metrics pass.
    pub temporary_incongruence: f64,
    /// Average number of concurrently executing routines, sampled at
    /// routine start/end points. Set at finish; same definition as the
    /// full-trace metrics pass.
    pub parallelism: f64,
    /// The devices' actual states when the run ended (captured at
    /// finish). Lets trace-free experiments run end-state incongruence
    /// checks (Fig. 1) without recording an event stream; size is bound
    /// by the home, not the run.
    pub end_states: BTreeMap<DeviceId, Value>,
    /// Deterministic digest over the full event stream, the witness
    /// order and the end states. Mixed in batches (`DIGEST_BATCH` words):
    /// final (and comparable) once [`TraceSink::finish`] ran; mid-run it
    /// trails the event stream by up to one unflushed batch.
    pub digest: u64,
    /// Words captured since the last digest mixing pass.
    pending: Vec<u64>,
    /// Submission-time bookkeeping of in-flight routines (drained at
    /// finish).
    submitted_at: BTreeMap<RoutineId, SubInfo>,
    /// In-flight write tracking — the §7.1 temporary-incongruence /
    /// parallelism definition shared with the full-trace metrics pass
    /// (see [`InflightWriteTracker`]). Bounded by the home's
    /// concurrency, not by the event count; drained at finish.
    tracker: InflightWriteTracker,
    /// Sum over aborted routines of (rolled-back dispatches / routine
    /// commands); see [`RunCounters::rollback_overhead`].
    rollback_sum: f64,
    /// Devices currently believed down (to exclude from congruence).
    down: Vec<DeviceId>,
}

impl Default for RunCounters {
    fn default() -> Self {
        RunCounters {
            submitted: 0,
            committed: 0,
            aborted: 0,
            best_effort_skipped: 0,
            dispatches: 0,
            command_successes: 0,
            command_failures: 0,
            state_changes: 0,
            rollback_writes: 0,
            down_detections: 0,
            up_detections: 0,
            latencies_ms: Vec::new(),
            normalized_latencies: Vec::new(),
            waits_ms: Vec::new(),
            stretch: Vec::new(),
            end_time: Timestamp::ZERO,
            congruent: false,
            order_mismatch: 0.0,
            temporary_incongruence: 0.0,
            parallelism: 0.0,
            end_states: BTreeMap::new(),
            digest: DigestHasher::OFFSET,
            pending: Vec::new(),
            submitted_at: BTreeMap::new(),
            tracker: InflightWriteTracker::new(),
            rollback_sum: 0.0,
            down: Vec::new(),
        }
    }
}

impl RunCounters {
    /// A fresh counter sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean over aborted routines of (rollback dispatches / routine
    /// commands) — the §7.4 "intrusion on the user". 0 when nothing
    /// aborted. Matches the full-trace metrics definition.
    pub fn rollback_overhead(&self) -> f64 {
        if self.aborted == 0 {
            0.0
        } else {
            self.rollback_sum / self.aborted as f64
        }
    }

    /// Approximate heap bytes the sink holds mid-run: the four
    /// per-routine vectors (latencies, normalized latencies, waits,
    /// stretch), which grow with every finished routine, plus the digest
    /// batch buffer. Counted by capacity, so the cost is constant.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.latencies_ms.capacity() * size_of::<u64>()
            + (self.normalized_latencies.capacity()
                + self.waits_ms.capacity()
                + self.stretch.capacity())
                * size_of::<f64>()
            + self.pending.capacity() * size_of::<u64>()
    }

    /// Clears the sink back to its freshly-constructed state while
    /// keeping every allocation (latency/wait/stretch vectors, digest
    /// batch buffer) — so one sink can be recycled across the trials of
    /// an experiment the way the harness pools per-home state.
    pub fn reset(&mut self) {
        self.submitted = 0;
        self.committed = 0;
        self.aborted = 0;
        self.best_effort_skipped = 0;
        self.dispatches = 0;
        self.command_successes = 0;
        self.command_failures = 0;
        self.state_changes = 0;
        self.rollback_writes = 0;
        self.down_detections = 0;
        self.up_detections = 0;
        self.latencies_ms.clear();
        self.normalized_latencies.clear();
        self.waits_ms.clear();
        self.stretch.clear();
        self.end_time = Timestamp::ZERO;
        self.congruent = false;
        self.order_mismatch = 0.0;
        self.temporary_incongruence = 0.0;
        self.parallelism = 0.0;
        self.end_states = BTreeMap::new();
        self.digest = DigestHasher::OFFSET;
        self.pending.clear();
        self.submitted_at.clear();
        self.tracker = InflightWriteTracker::new();
        self.rollback_sum = 0.0;
        self.down.clear();
    }

    fn fold<T: Hash>(&mut self, value: &T) {
        let mut h = BatchHasher {
            digest: &mut self.digest,
            pending: &mut self.pending,
        };
        value.hash(&mut h);
        if self.pending.len() >= DIGEST_BATCH {
            self.flush_digest();
        }
    }

    /// Mixes any buffered words into `digest` (see [`DIGEST_BATCH`]).
    fn flush_digest(&mut self) {
        flush_words(&mut self.digest, &mut self.pending);
    }

    /// Registers a submission from its shape alone — command count and
    /// ideal runtime are everything [`TraceSink::record_submission`]
    /// reads off the routine definition. Replaying a recorded call
    /// stream (the intra-home merge) uses this to reproduce the exact
    /// same counter and digest updates without the `Routine` in hand.
    pub fn record_submission_shape(
        &mut self,
        id: RoutineId,
        commands: u32,
        ideal_ms: u64,
        at: Timestamp,
    ) {
        self.submitted += 1;
        self.submitted_at.insert(
            id,
            SubInfo {
                submitted: at,
                commands,
                ideal_ms,
                started: None,
            },
        );
        self.end_time = at;
        self.fold(&(at, TraceEventKind::Submitted { routine: id }));
    }

    fn finish_routine(&mut self, routine: RoutineId, at: Timestamp, committed: bool) {
        if let Some(info) = self.submitted_at.remove(&routine) {
            let latency = at.since(info.submitted).as_millis();
            self.latencies_ms.push(latency);
            if committed {
                let ideal = info.ideal_ms as f64;
                self.normalized_latencies.push(latency as f64 / ideal);
                if let Some(started) = info.started {
                    self.stretch
                        .push(at.since(started).as_millis() as f64 / ideal);
                }
            }
        }
    }
}

impl TraceSink for RunCounters {
    fn record_submission(&mut self, id: RoutineId, routine: &Routine, at: Timestamp) {
        self.record_submission_shape(
            id,
            routine.commands.len() as u32,
            routine.ideal_runtime().as_millis().max(1),
            at,
        );
    }

    fn record(&mut self, at: Timestamp, kind: TraceEventKind) {
        self.end_time = at;
        self.fold(&(at, &kind));
        self.tracker.observe(&kind);
        match kind {
            TraceEventKind::Submitted { .. } => {}
            TraceEventKind::Started { routine } => {
                if let Some(info) = self.submitted_at.get_mut(&routine) {
                    info.started = Some(at);
                    self.waits_ms
                        .push(at.since(info.submitted).as_millis() as f64);
                }
            }
            TraceEventKind::Committed { routine } => {
                self.committed += 1;
                self.finish_routine(routine, at, true);
            }
            TraceEventKind::Aborted {
                routine,
                rolled_back,
                ..
            } => {
                self.aborted += 1;
                if let Some(info) = self.submitted_at.get(&routine) {
                    self.rollback_sum += rolled_back as f64 / info.commands.max(1) as f64;
                }
                self.finish_routine(routine, at, false);
            }
            TraceEventKind::CommandDispatched { .. } => self.dispatches += 1,
            TraceEventKind::CommandCompleted { outcome, .. } => match outcome {
                crate::trace::CmdOutcome::Success { .. } => self.command_successes += 1,
                crate::trace::CmdOutcome::Failed => self.command_failures += 1,
            },
            TraceEventKind::BestEffortSkipped { .. } => self.best_effort_skipped += 1,
            TraceEventKind::StateChanged { rollback, .. } => {
                self.state_changes += 1;
                if rollback {
                    self.rollback_writes += 1;
                }
            }
            TraceEventKind::DeviceDownDetected { device } => {
                self.down_detections += 1;
                if !self.down.contains(&device) {
                    self.down.push(device);
                }
            }
            TraceEventKind::DeviceUpDetected { device } => {
                self.up_detections += 1;
                self.down.retain(|&d| d != device);
            }
        }
    }

    fn finish(
        &mut self,
        final_order: Vec<OrderItem>,
        end_states: BTreeMap<DeviceId, Value>,
        committed_states: &BTreeMap<DeviceId, Value>,
    ) {
        self.fold(&final_order);
        self.fold(&end_states);
        self.flush_digest();
        let witness: Vec<RoutineId> = final_order
            .iter()
            .filter_map(|o| match o {
                OrderItem::Routine(r) => Some(*r),
                _ => None,
            })
            .collect();
        self.order_mismatch = crate::trace::normalized_swap_distance(&witness);
        let (temporary_incongruence, parallelism) = self.tracker.finish(self.submitted as usize);
        self.temporary_incongruence = temporary_incongruence;
        self.parallelism = parallelism;
        self.congruent = committed_states
            .iter()
            .filter(|(d, _)| !self.down.contains(d))
            .all(|(d, v)| end_states.get(d) == Some(v));
        self.end_states = end_states;
        self.submitted_at.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeDelta;
    use crate::trace::CmdOutcome;
    use crate::CmdIdx;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn routine() -> Routine {
        Routine::builder("r")
            .set(DeviceId(0), Value::ON, TimeDelta::from_millis(100))
            .build()
    }

    fn feed(sink: &mut dyn TraceSink) {
        let id = RoutineId(1);
        sink.record_submission(id, &routine(), t(0));
        sink.record(t(5), TraceEventKind::Started { routine: id });
        sink.record(
            t(5),
            TraceEventKind::CommandDispatched {
                routine: id,
                idx: CmdIdx(0),
                device: DeviceId(0),
            },
        );
        sink.record(
            t(40),
            TraceEventKind::StateChanged {
                device: DeviceId(0),
                value: Value::ON,
                by: Some(id),
                rollback: false,
            },
        );
        sink.record(
            t(40),
            TraceEventKind::CommandCompleted {
                routine: id,
                idx: CmdIdx(0),
                device: DeviceId(0),
                outcome: CmdOutcome::Success { observed: None },
            },
        );
        sink.record(t(40), TraceEventKind::Committed { routine: id });
    }

    fn end() -> BTreeMap<DeviceId, Value> {
        [(DeviceId(0), Value::ON)].into()
    }

    #[test]
    fn counters_match_full_trace() {
        let mut counters = RunCounters::new();
        let mut trace = Trace::new([(DeviceId(0), Value::OFF)].into());
        feed(&mut counters);
        feed(&mut trace);
        counters.finish(vec![OrderItem::Routine(RoutineId(1))], end(), &end());
        TraceSink::finish(
            &mut trace,
            vec![OrderItem::Routine(RoutineId(1))],
            end(),
            &end(),
        );
        assert_eq!(counters.submitted as usize, trace.records.len());
        assert_eq!(counters.committed as usize, trace.committed().len());
        assert_eq!(counters.aborted, 0);
        assert_eq!(counters.dispatches, 1);
        assert_eq!(counters.command_successes, 1);
        assert_eq!(counters.state_changes, 1);
        assert_eq!(counters.latencies_ms, vec![40]);
        assert_eq!(counters.end_time, trace.end_time());
        assert!(counters.congruent);
        assert_eq!(trace.final_order, vec![OrderItem::Routine(RoutineId(1))]);
        assert_eq!(trace.end_states, end());
    }

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let mut a = RunCounters::new();
        let mut b = RunCounters::new();
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a, b);
        // Mid-run digests compare only after a mixing pass (batching
        // defers up to DIGEST_BATCH words).
        a.flush_digest();
        b.flush_digest();
        assert_eq!(a.digest, b.digest);
        // A different event stream gives a different digest.
        let mut c = RunCounters::new();
        c.record_submission(RoutineId(1), &routine(), t(1));
        c.flush_digest();
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn digest_batching_never_changes_the_value() {
        // Flushing after every record is the eager (pre-batching) digest;
        // the batched chain must land on the same value no matter where
        // the batch boundaries fall. Feed enough events to cross several
        // DIGEST_BATCH boundaries.
        let mut batched = RunCounters::new();
        let mut eager = RunCounters::new();
        for i in 0..200u64 {
            let id = RoutineId(i + 1);
            batched.record_submission(id, &routine(), t(i));
            eager.record_submission(id, &routine(), t(i));
            eager.flush_digest();
            let ev = TraceEventKind::StateChanged {
                device: DeviceId((i % 3) as u32),
                value: Value::ON,
                by: Some(id),
                rollback: false,
            };
            batched.record(t(i + 1), ev.clone());
            eager.record(t(i + 1), ev);
            eager.flush_digest();
        }
        batched.finish(Vec::new(), end(), &end());
        eager.finish(Vec::new(), end(), &end());
        assert_eq!(batched.digest, eager.digest);
    }

    #[test]
    fn reset_recycles_the_sink_without_leaking_state() {
        let mut reused = RunCounters::new();
        feed(&mut reused);
        reused.finish(vec![OrderItem::Routine(RoutineId(1))], end(), &end());
        let first = reused.clone();
        reused.reset();
        assert_eq!(reused, RunCounters::new(), "reset is a full reinit");
        feed(&mut reused);
        reused.finish(vec![OrderItem::Routine(RoutineId(1))], end(), &end());
        assert_eq!(reused, first, "a recycled sink reproduces a fresh one");
    }

    #[test]
    fn normalized_latency_wait_and_stretch_match_trace_definitions() {
        // Routine ideal = 100ms; submitted at 0, started at 40, committed
        // at 240 → latency 240, wait 40, normalized 2.4, stretch 2.0 —
        // the same numbers RunMetrics derives from a trace.
        let mut s = RunCounters::new();
        let id = RoutineId(1);
        s.record_submission(id, &routine(), t(0));
        s.record(t(40), TraceEventKind::Started { routine: id });
        s.record(t(240), TraceEventKind::Committed { routine: id });
        s.finish(Vec::new(), end(), &end());
        assert_eq!(s.latencies_ms, vec![240]);
        assert_eq!(s.waits_ms, vec![40.0]);
        assert_eq!(s.normalized_latencies, vec![2.4]);
        assert_eq!(s.stretch, vec![2.0]);
        // Aborted routines contribute wait but no normalized/stretch.
        let mut a = RunCounters::new();
        a.record_submission(id, &routine(), t(0));
        a.record(t(10), TraceEventKind::Started { routine: id });
        a.record(
            t(100),
            TraceEventKind::Aborted {
                routine: id,
                reason: crate::trace::AbortReason::MustCommandFailed {
                    device: DeviceId(0),
                },
                executed: 0,
                rolled_back: 0,
            },
        );
        a.finish(Vec::new(), end(), &end());
        assert_eq!(a.waits_ms, vec![10.0]);
        assert!(a.normalized_latencies.is_empty());
        assert!(a.stretch.is_empty());
    }

    #[test]
    fn incongruent_end_state_is_detected() {
        let mut s = RunCounters::new();
        feed(&mut s);
        s.finish(
            Vec::new(),
            [(DeviceId(0), Value::OFF)].into(),
            &[(DeviceId(0), Value::ON)].into(),
        );
        assert!(!s.congruent);
    }

    #[test]
    fn order_mismatch_and_rollback_overhead_match_trace_definitions() {
        let two_cmds = Routine::builder("r2")
            .set(DeviceId(0), Value::ON, TimeDelta::from_millis(100))
            .set(DeviceId(1), Value::ON, TimeDelta::from_millis(100))
            .build();
        let mut s = RunCounters::new();
        s.record_submission(RoutineId(1), &two_cmds, t(0));
        s.record_submission(RoutineId(2), &routine(), t(1));
        s.record(
            t(10),
            TraceEventKind::Aborted {
                routine: RoutineId(1),
                reason: crate::trace::AbortReason::MustCommandFailed {
                    device: DeviceId(1),
                },
                executed: 1,
                rolled_back: 1,
            },
        );
        s.record(
            t(20),
            TraceEventKind::Committed {
                routine: RoutineId(2),
            },
        );
        s.finish(
            vec![
                OrderItem::Routine(RoutineId(2)),
                OrderItem::Failure(DeviceId(1)),
                OrderItem::Routine(RoutineId(1)),
            ],
            end(),
            &end(),
        );
        assert_eq!(s.order_mismatch, 1.0, "two routines fully swapped");
        assert_eq!(s.rollback_overhead(), 0.5, "1 of 2 commands rolled back");
        assert_eq!(s.latencies_ms, vec![10, 19]);
    }

    #[test]
    fn temporary_incongruence_detects_cross_writes() {
        // Mirror of the trace pass's definition test: R1 modifies device
        // 0, R2 changes it while R1 is still in flight → R1 of 2 suffered.
        let two_dev = Routine::builder("r1")
            .set(DeviceId(0), Value::ON, TimeDelta::from_millis(100))
            .set(DeviceId(1), Value::ON, TimeDelta::from_millis(100))
            .build();
        let mut s = RunCounters::new();
        s.record_submission(RoutineId(1), &two_dev, t(0));
        s.record_submission(RoutineId(2), &routine(), t(1));
        s.record(
            t(10),
            TraceEventKind::Started {
                routine: RoutineId(1),
            },
        );
        s.record(
            t(11),
            TraceEventKind::Started {
                routine: RoutineId(2),
            },
        );
        s.record(
            t(20),
            TraceEventKind::StateChanged {
                device: DeviceId(0),
                value: Value::ON,
                by: Some(RoutineId(1)),
                rollback: false,
            },
        );
        s.record(
            t(30),
            TraceEventKind::StateChanged {
                device: DeviceId(0),
                value: Value::OFF,
                by: Some(RoutineId(2)),
                rollback: false,
            },
        );
        s.record(
            t(40),
            TraceEventKind::Committed {
                routine: RoutineId(2),
            },
        );
        s.record(
            t(50),
            TraceEventKind::Committed {
                routine: RoutineId(1),
            },
        );
        s.finish(Vec::new(), end(), &end());
        assert!(
            (s.temporary_incongruence - 0.5).abs() < 1e-12,
            "R1 of 2 suffered: {}",
            s.temporary_incongruence
        );
        // Parallelism samples at the four start/end events: 1, 2, 1, 0.
        assert!((s.parallelism - 1.0).abs() < 1e-12);
    }

    #[test]
    fn writes_after_completion_are_not_incongruence() {
        let mut s = RunCounters::new();
        s.record_submission(RoutineId(1), &routine(), t(0));
        s.record_submission(RoutineId(2), &routine(), t(1));
        s.record(
            t(10),
            TraceEventKind::Started {
                routine: RoutineId(1),
            },
        );
        s.record(
            t(20),
            TraceEventKind::StateChanged {
                device: DeviceId(0),
                value: Value::ON,
                by: Some(RoutineId(1)),
                rollback: false,
            },
        );
        s.record(
            t(30),
            TraceEventKind::Committed {
                routine: RoutineId(1),
            },
        );
        s.record(
            t(31),
            TraceEventKind::Started {
                routine: RoutineId(2),
            },
        );
        s.record(
            t(40),
            TraceEventKind::StateChanged {
                device: DeviceId(0),
                value: Value::OFF,
                by: Some(RoutineId(2)),
                rollback: false,
            },
        );
        s.record(
            t(50),
            TraceEventKind::Committed {
                routine: RoutineId(2),
            },
        );
        s.finish(Vec::new(), end(), &end());
        assert_eq!(s.temporary_incongruence, 0.0);
    }

    #[test]
    fn end_states_are_captured_at_finish() {
        let mut s = RunCounters::new();
        feed(&mut s);
        s.finish(Vec::new(), end(), &end());
        assert_eq!(s.end_states, end());
    }

    #[test]
    fn devices_down_at_end_are_excluded_from_congruence() {
        let mut s = RunCounters::new();
        s.record(
            t(10),
            TraceEventKind::DeviceDownDetected {
                device: DeviceId(0),
            },
        );
        s.finish(
            Vec::new(),
            [(DeviceId(0), Value::OFF)].into(),
            &[(DeviceId(0), Value::ON)].into(),
        );
        assert!(s.congruent, "dead device cannot be rolled forward");
        assert_eq!(s.down_detections, 1);
    }
}
