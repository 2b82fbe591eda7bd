//! Eventual Visibility (§4, §5).
//!
//! The end state of the home is guaranteed to equal that of *some* serial
//! execution of the committed routines (with failure/restart events
//! serialized among them), while conflicting routines overlap as much as
//! the lineage table allows. Concurrency comes from three mechanisms:
//!
//! - **early lock acquisition** with per-command lock-access entries in
//!   the lineage table (aborts happen only on device failures, never on
//!   lock conflicts);
//! - **post-leases**: a device hands over as soon as its holder finishes
//!   its last access, before the holder commits (guarded against dirty
//!   reads);
//! - **pre-leases**: a routine jumps ahead of a scheduled owner that has
//!   not touched the device yet, protected by a revocation timeout of
//!   `estimated span × leniency` (1.1×).
//!
//! Scheduling policy (FCFS / JiT / Timeline) decides where lock-accesses
//! are placed; execution is then purely event-driven: a command dispatches
//! when every earlier entry in its device lineage is released.

use std::collections::{BTreeMap, BTreeSet};

use safehome_types::{
    trace::AbortReason, trace::OrderItem, Action, CmdIdx, DeviceId, Priority, RoutineId, TimeDelta,
    Timestamp, UndoPolicy, Value,
};

use crate::config::{EngineConfig, SchedulerKind};
use crate::event::{Effect, EffectBuf, TimerId};
use crate::lineage::{LineageTable, LockStatus};
use crate::models::{event_log_bytes, HealthView, Model};
use crate::order::{OrderNode, OrderTracker};
use crate::runtime::{failure_aborts, guard_passes, irreversible_note, RoutineRun, RunTable};
use crate::sched::{apply_placement, fcfs, jit, timeline};

#[derive(Debug, Clone, Copy)]
struct PreLease {
    /// Full revocation timeout: (estimated span + per-command actuation
    /// slack) × leniency.
    timeout: TimeDelta,
    armed: bool,
}

/// The EV model.
#[derive(Debug)]
pub struct EvModel {
    cfg: EngineConfig,
    scheduler: SchedulerKind,
    runs: RunTable,
    table: LineageTable,
    order: OrderTracker,
    health: HealthView,
    event_log: BTreeMap<DeviceId, Vec<OrderNode>>,
    last_event: BTreeMap<DeviceId, OrderNode>,
    /// JiT: submitted routines whose eligibility test has not yet passed.
    waiting: Vec<RoutineId>,
    /// JiT: waiting routines whose TTL expired (prioritized).
    expired: BTreeSet<RoutineId>,
    pre_leases: BTreeMap<(RoutineId, DeviceId), PreLease>,
    /// Timeline stretch accounting: accumulated delay imposed on each
    /// running routine by pre-lease placements, in milliseconds.
    delays: BTreeMap<RoutineId, u64>,
    outstanding_rollbacks: BTreeMap<(RoutineId, DeviceId), Value>,
    rollback_holds: BTreeMap<DeviceId, RoutineId>,
    /// Last committed routine to have used each device. Commit compaction
    /// removes lineage entries, so a routine placed afterwards would
    /// otherwise lose its serialize-after edge to the committed
    /// predecessor — this map preserves it.
    last_committed: BTreeMap<DeviceId, RoutineId>,
}

impl EvModel {
    /// Creates the model.
    pub fn new(
        initial: &BTreeMap<DeviceId, Value>,
        cfg: EngineConfig,
        scheduler: SchedulerKind,
    ) -> Self {
        EvModel {
            scheduler,
            runs: RunTable::default(),
            table: LineageTable::new(initial),
            order: OrderTracker::new(),
            health: HealthView::default(),
            event_log: BTreeMap::new(),
            last_event: BTreeMap::new(),
            waiting: Vec::new(),
            expired: BTreeSet::new(),
            pre_leases: BTreeMap::new(),
            delays: BTreeMap::new(),
            outstanding_rollbacks: BTreeMap::new(),
            rollback_holds: BTreeMap::new(),
            last_committed: BTreeMap::new(),
            cfg,
        }
    }

    /// Read-only access to the lineage table (tests and benchmarks).
    pub fn lineage_table(&self) -> &LineageTable {
        &self.table
    }

    fn register_placement(&mut self, id: RoutineId, placement: &crate::sched::Placement) {
        // Serialize after the last committed user of every touched device
        // (the lineage no longer holds committed entries, Fig. 7).
        for &(d, _, _) in &placement.inserts {
            if let Some(&prev) = self.last_committed.get(&d) {
                self.order
                    .add_edge(OrderNode::Routine(prev), OrderNode::Routine(id));
            }
        }
        let leases = apply_placement(&mut self.table, &mut self.order, id, placement);
        for lease in leases {
            // Record the pre-lease; its revocation timer arms at the
            // routine's first acquire on the device. The duration
            // estimates in the lineage exclude actuation/network latency,
            // so one default-τ of slack per command is added before the
            // 1.1× leniency — otherwise healthy lessees get revoked.
            let slack =
                TimeDelta::from_millis(self.cfg.default_tau.as_millis() * lease.commands as u64);
            let timeout = (lease.est_span + slack).mul_f64(self.cfg.lease_leniency);
            self.pre_leases.insert(
                (id, lease.device),
                PreLease {
                    timeout,
                    armed: false,
                },
            );
            // Stretch accounting: scheduled owners after us are delayed by
            // roughly our span on the device.
            let lin = self.table.lineage(lease.device);
            if let Some(last) = lin.entries().iter().rposition(|e| e.routine == id) {
                let mut delayed = Vec::new();
                lin.for_post_routines(last + 1, |r| {
                    if r != id && !delayed.contains(&r) {
                        delayed.push(r);
                    }
                });
                for r in delayed {
                    *self.delays.entry(r).or_insert(0) += lease.est_span.as_millis();
                }
            }
        }
    }

    /// Committed routines that must serialize before a routine touching
    /// `devices` (their lineage entries were compacted at commit).
    fn committed_preds(&self, devices: &[DeviceId]) -> Vec<RoutineId> {
        let mut preds = Vec::new();
        for d in devices {
            if let Some(&c) = self.last_committed.get(d) {
                if !preds.contains(&c) {
                    preds.push(c);
                }
            }
        }
        preds
    }

    /// Places a newly submitted routine according to the active policy.
    fn place_new(&mut self, id: RoutineId, now: Timestamp, out: &mut EffectBuf) {
        match self.scheduler {
            SchedulerKind::Fcfs => {
                let run = self.runs.get(id).expect("just inserted").clone();
                let placement = fcfs::place(&run, &self.table, &self.cfg, now);
                self.register_placement(id, &placement);
            }
            SchedulerKind::Timeline => {
                let run = self.runs.get(id).expect("just inserted").clone();
                let placement = {
                    let runs = &self.runs;
                    let delays = &self.delays;
                    let threshold = self.cfg.stretch_threshold;
                    let can_delay = move |r: RoutineId, added_ms: u64| -> bool {
                        let Some(other) = runs.get(r) else {
                            return true;
                        };
                        let ideal = other.routine.ideal_runtime().as_millis().max(1);
                        let delay = delays.get(&r).copied().unwrap_or(0) + added_ms;
                        (ideal + delay) as f64 / ideal as f64 <= threshold
                    };
                    let preds = self.committed_preds(&run.routine.devices());
                    timeline::place(
                        &run,
                        &self.table,
                        &self.order,
                        &self.cfg,
                        now,
                        &can_delay,
                        &preds,
                    )
                };
                self.register_placement(id, &placement);
            }
            SchedulerKind::Jit => {
                self.waiting.push(id);
                out.push(Effect::SetTimer {
                    timer: TimerId::Ttl { routine: id },
                    at: now + self.cfg.jit_ttl,
                });
            }
        }
    }

    /// JiT eligibility pass over the wait queue: expired routines first
    /// (and their devices block younger conflicting candidates so the
    /// starving routine actually gets its turn).
    fn pump_jit(&mut self, now: Timestamp) -> bool {
        if self.waiting.is_empty() {
            return false;
        }
        let blocked: BTreeSet<DeviceId> = self.rollback_holds.keys().copied().collect();
        let mut candidates: Vec<RoutineId> = self
            .waiting
            .iter()
            .copied()
            .filter(|id| self.expired.contains(id))
            .collect();
        candidates.extend(
            self.waiting
                .iter()
                .copied()
                .filter(|id| !self.expired.contains(id)),
        );
        let mut priority_block: BTreeSet<DeviceId> = BTreeSet::new();
        for id in candidates {
            let Some(run) = self.runs.get(id) else {
                continue;
            };
            let devices = run.routine.devices();
            if devices.iter().any(|d| priority_block.contains(d)) {
                continue; // A starving routine has dibs on these devices.
            }
            let preds = self.committed_preds(&devices);
            match jit::try_place(
                run,
                &self.table,
                &self.order,
                &self.cfg,
                now,
                &blocked,
                &preds,
            ) {
                Some(placement) => {
                    self.waiting.retain(|&w| w != id);
                    self.expired.remove(&id);
                    self.register_placement(id, &placement);
                    // One placement per pass: the new routine dispatches
                    // (acquiring its locks) before the next candidate's
                    // eligibility test, so same-instant arrivals do not
                    // pointlessly pre-lease ahead of each other.
                    return true;
                }
                None => {
                    if self.expired.contains(&id) {
                        priority_block.extend(devices);
                    }
                }
            }
        }
        false
    }

    /// Event-driven execution: repeatedly dispatch / skip / commit until
    /// no routine can make progress.
    fn pump(&mut self, now: Timestamp, out: &mut EffectBuf) {
        loop {
            let mut progressed = false;
            if self.scheduler == SchedulerKind::Jit {
                progressed |= self.pump_jit(now);
            }
            for id in self.runs.ids() {
                progressed |= self.try_progress(id, now, out);
            }
            if !progressed {
                break;
            }
        }
    }

    /// Attempts one step of routine `id`. Returns `true` on progress.
    fn try_progress(&mut self, id: RoutineId, now: Timestamp, out: &mut EffectBuf) -> bool {
        let Some(run) = self.runs.get(id) else {
            return false;
        };
        if run.dispatched || self.waiting.contains(&id) {
            return false;
        }
        if run.finished_commands() {
            self.commit(id, now, out);
            return true;
        }
        let cmd = *run.current().expect("not finished");
        let pc = run.pc;
        let d = cmd.device;
        let Some(pos) = self.table.position(d, id, pc) else {
            return false; // Not placed (JiT waiting) — defensive.
        };
        if self.rollback_holds.contains_key(&d) {
            return false; // Device frozen until an abort's restore lands.
        }
        let lin = self.table.lineage(d);
        if lin.front_pos().is_some_and(|f| f < pos) {
            return false; // Someone ahead still needs the device.
        }
        // Earlier released entries always belong to unfinished routines
        // (finished routines' entries are removed), so their presence
        // makes this dispatch a post-lease handover.
        if lin.has_foreign_before(pos, id) {
            if !self.cfg.post_lease {
                return false; // Handover only at routine finish.
            }
            if cmd.action.is_read() && lin.has_foreign_write_before(pos, id) {
                return false; // Dirty-read guard (§4.1).
            }
        }
        if !self.health.up(d) {
            if failure_aborts(&cmd) {
                self.abort(id, AbortReason::MustCommandFailed { device: d }, now, out);
            } else {
                out.push(Effect::BestEffortSkipped {
                    routine: id,
                    idx: CmdIdx(pc as u16),
                    device: d,
                });
                self.table.release_as_noop(d, id, pc);
                let run = self.runs.get_mut(id).expect("checked");
                run.pc += 1;
            }
            return true;
        }
        // Rule 2 (§3): events detected before the first touch serialize
        // before the routine.
        let first_touch = !self.runs.get(id).expect("checked").touched(d);
        if first_touch {
            if let Some(events) = self.event_log.get(&d).cloned() {
                for ev in events {
                    self.order.add_edge(ev, OrderNode::Routine(id));
                }
            }
        }
        self.table.acquire(d, id, pc, now);
        let run = self.runs.get_mut(id).expect("checked");
        if run.started.is_none() {
            run.started = Some(now);
            out.push(Effect::Started { routine: id });
        }
        run.note_dispatch(d);
        out.push(Effect::Dispatch {
            routine: id,
            idx: CmdIdx(pc as u16),
            device: d,
            action: cmd.action,
            duration: cmd.duration,
            rollback: false,
        });
        // Arm the pre-lease revocation timer on the first acquire.
        if let Some(lease) = self.pre_leases.get_mut(&(id, d)) {
            if !lease.armed {
                lease.armed = true;
                out.push(Effect::SetTimer {
                    timer: TimerId::LeaseRevocation {
                        routine: id,
                        device: d,
                    },
                    at: now + lease.timeout,
                });
            }
        }
        true
    }

    fn commit(&mut self, id: RoutineId, now: Timestamp, out: &mut EffectBuf) {
        let run = self.runs.remove(id).expect("committing unknown routine");
        // Update committed states — but only where this routine's entry
        // survived: commit compaction by a later-serialized routine means
        // our effect was superseded (last-writer-wins, Fig. 7).
        for (d, v) in run.committed_writes() {
            if self.table.routine_on_device(d, id) {
                self.table.set_committed(d, v);
            }
        }
        for d in self.table.devices_of(id) {
            self.table.compact_commit(d, id);
            self.last_committed.insert(d, id);
        }
        self.order.mark_committed(id, now);
        self.cleanup(id);
        out.push(Effect::Committed { routine: id });
    }

    fn abort(&mut self, id: RoutineId, reason: AbortReason, _now: Timestamp, out: &mut EffectBuf) {
        let run = self.runs.remove(id).expect("aborting unknown routine");
        let mut effects = Vec::new();
        let mut rolled_back = 0u32;
        // In-flight write: its effect may still land; restore the device
        // unconditionally (the restore queues behind the call in flight).
        let mut inflight_dev = None;
        if run.dispatched {
            if let Some(cmd) = run.current() {
                if cmd.action.is_write() {
                    inflight_dev = Some(cmd.device);
                    let target = match cmd.undo {
                        UndoPolicy::Handler(v) => v,
                        _ => self.table.rollback_target(cmd.device, id),
                    };
                    effects.extend(irreversible_note(cmd, id, run.pc));
                    effects.push(Effect::Dispatch {
                        routine: id,
                        idx: CmdIdx(run.pc as u16),
                        device: cmd.device,
                        action: Action::Set(target),
                        duration: TimeDelta::ZERO,
                        rollback: true,
                    });
                    self.outstanding_rollbacks.insert((id, cmd.device), target);
                    self.rollback_holds.insert(cmd.device, id);
                    rolled_back += 1;
                }
            }
        }
        // Completed writes, newest first (§4.3): roll back only devices
        // this routine was the *last* to acquire — if a later-serialized
        // routine already acted on the device (post-lease), its effect is
        // the one that must survive.
        for (idx, d, _) in run.writes_to_undo() {
            if Some(d) == inflight_dev {
                continue;
            }
            if self.table.last_user(d) != Some(id) {
                continue;
            }
            let cmd = &run.routine.commands[idx];
            let target = match cmd.undo {
                UndoPolicy::Handler(v) => v,
                _ => self.table.rollback_target(d, id),
            };
            effects.extend(irreversible_note(cmd, id, idx));
            if self.table.current_status(d) == target {
                continue; // Already in the desired state (§4.3).
            }
            effects.push(Effect::Dispatch {
                routine: id,
                idx: CmdIdx(idx as u16),
                device: d,
                action: Action::Set(target),
                duration: TimeDelta::ZERO,
                rollback: true,
            });
            self.outstanding_rollbacks.insert((id, d), target);
            self.rollback_holds.insert(d, id);
            rolled_back += 1;
        }
        for d in self.table.devices_of(id) {
            self.table.remove_routine(d, id);
        }
        self.order.remove_routine(id);
        self.cleanup(id);
        out.push(Effect::Aborted {
            routine: id,
            reason,
            executed: run.completed,
            rolled_back,
        });
        out.extend(effects);
    }

    fn cleanup(&mut self, id: RoutineId) {
        self.waiting.retain(|&w| w != id);
        self.expired.remove(&id);
        self.pre_leases.retain(|&(r, _), _| r != id);
        self.delays.remove(&id);
    }

    /// `true` if any not-yet-executed command of `run` on `d` is `Must`.
    fn must_remaining_on(run: &RoutineRun, d: DeviceId) -> bool {
        run.routine
            .commands
            .iter()
            .skip(run.pc)
            .any(|c| c.device == d && c.priority == Priority::Must)
    }
}

impl Model for EvModel {
    fn submit(&mut self, run: RoutineRun, now: Timestamp, out: &mut EffectBuf) {
        let id = run.id;
        self.order.add_routine(id, now);
        self.runs.insert(run);
        self.place_new(id, now, out);
        self.pump(now, out);
    }

    fn on_command_result(
        &mut self,
        routine: RoutineId,
        idx: usize,
        device: DeviceId,
        success: bool,
        observed: Option<Value>,
        rollback: bool,
        now: Timestamp,
        out: &mut EffectBuf,
    ) {
        if rollback {
            if self
                .outstanding_rollbacks
                .remove(&(routine, device))
                .is_some()
            {
                if !success {
                    out.push(Effect::Feedback {
                        routine: Some(routine),
                        message: format!("rollback of {device} failed (device down)"),
                    });
                }
                if self.rollback_holds.get(&device) == Some(&routine) {
                    self.rollback_holds.remove(&device);
                }
                self.pump(now, out);
            }
            return;
        }
        let Some(run) = self.runs.get_mut(routine) else {
            return;
        };
        if run.pc != idx || !run.dispatched {
            return; // Stale (routine was aborted or result duplicated).
        }
        run.dispatched = false;
        let cmd = run.routine.commands[idx];
        if success {
            run.completed += 1;
            if let Some(v) = cmd.action.written_value() {
                run.executed_writes.push((idx, device, v));
            }
            self.table.release(device, routine, idx);
            if !guard_passes(&cmd, observed) {
                self.abort(routine, AbortReason::GuardFailed { device }, now, out);
                self.pump(now, out);
                return;
            }
            run.pc += 1;
        } else if failure_aborts(&cmd) {
            self.abort(routine, AbortReason::MustCommandFailed { device }, now, out);
            self.pump(now, out);
            return;
        } else {
            out.push(Effect::BestEffortSkipped {
                routine,
                idx: CmdIdx(idx as u16),
                device,
            });
            self.table.release_as_noop(device, routine, idx);
            run.pc += 1;
        }
        self.pump(now, out);
    }

    fn on_device_down(&mut self, device: DeviceId, now: Timestamp, out: &mut EffectBuf) {
        self.health.mark_down(device);
        let fnode = self.order.new_failure(device, now);
        if let Some(&prev) = self.last_event.get(&device) {
            self.order.add_edge(prev, fnode);
        }
        self.last_event.insert(device, fnode);
        self.event_log.entry(device).or_default().push(fnode);
        for id in self.runs.ids() {
            let Some(run) = self.runs.get(id) else {
                continue;
            };
            if !run.uses(device) || self.waiting.contains(&id) {
                continue;
            }
            if !run.touched(device) {
                // Never dispatched on the device (commands skipped or
                // still ahead): no serialization edge either way; rules
                // 2/4 resolve at dispatch time.
            } else if run.done_with(device) {
                // Rule 3: the failure serializes after this routine.
                self.order.add_edge(OrderNode::Routine(id), fnode);
            } else if Self::must_remaining_on(run, device) {
                // Mid-use with required work remaining: abort eagerly
                // ("EV aborts affected routines earlier rather than
                // later", §7.4).
                self.abort(id, AbortReason::FailureSerialization { device }, now, out);
            }
        }
        self.pump(now, out);
    }

    fn on_device_up(&mut self, device: DeviceId, now: Timestamp, out: &mut EffectBuf) {
        self.health.mark_up(device);
        let renode = self.order.new_restart(device, now);
        if let Some(&prev) = self.last_event.get(&device) {
            self.order.add_edge(prev, renode);
        }
        self.last_event.insert(device, renode);
        self.event_log.entry(device).or_default().push(renode);
        self.pump(now, out);
    }

    fn on_timer(&mut self, timer: TimerId, now: Timestamp, out: &mut EffectBuf) {
        match timer {
            TimerId::Ttl { routine } => {
                if self.waiting.contains(&routine) {
                    self.expired.insert(routine);
                    self.pump(now, out);
                }
            }
            TimerId::LeaseRevocation { routine, device } => {
                // Revoke only if the lessee is still using the device and
                // someone scheduled behind it is actually waiting.
                if self.runs.get(routine).is_none() {
                    return; // Stale: the routine already finished.
                }
                let entries = self.table.lineage(device).entries();
                let mine_unreleased = entries
                    .iter()
                    .any(|e| e.routine == routine && !e.released());
                let last_mine = entries.iter().rposition(|e| e.routine == routine);
                let successor_waiting = last_mine
                    .map(|p| entries[p + 1..].iter().any(|e| e.routine != routine))
                    .unwrap_or(false);
                if mine_unreleased && successor_waiting {
                    // An access that is physically in flight cannot be
                    // recalled, and aborting now would not free the device
                    // any sooner (the rollback write queues behind the
                    // in-flight command). Defer the decision until the
                    // access should have completed; a lessee that is
                    // stalled *before* an access (entry still Scheduled,
                    // e.g. delayed by later pre-leases elsewhere) is
                    // revoked so the waiting successor gets the device.
                    let in_flight_until = entries
                        .iter()
                        .filter(|e| e.routine == routine && e.status == LockStatus::Acquired)
                        .map(|e| e.planned_end())
                        .max();
                    if let Some(until) = in_flight_until {
                        out.push(Effect::SetTimer {
                            timer: TimerId::LeaseRevocation { routine, device },
                            at: until.max(now + self.cfg.default_tau),
                        });
                    } else {
                        self.abort(routine, AbortReason::LeaseRevoked { device }, now, out);
                        self.pump(now, out);
                    }
                }
            }
            TimerId::Kick => self.pump(now, out),
            TimerId::Pace { .. } => {} // WV-only timer; stale here.
        }
    }

    fn active_count(&self) -> usize {
        self.runs.len()
    }

    fn quiescent(&self) -> bool {
        self.runs.is_empty() && self.outstanding_rollbacks.is_empty()
    }

    fn witness_order(&self) -> Vec<OrderItem> {
        self.order.witness_order()
    }

    fn committed_states(&self) -> BTreeMap<DeviceId, Value> {
        self.table.committed_states()
    }

    fn approx_bytes(&self) -> usize {
        self.order.approx_bytes() + event_log_bytes(&self.event_log)
    }

    fn check_invariants(&self) -> Result<(), String> {
        // Non-strict: JiT pre-leases legitimately jump planned times.
        self.table.validate(false)?;
        self.order.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VisibilityModel;
    use safehome_types::Routine;

    fn d(i: u32) -> DeviceId {
        DeviceId(i)
    }
    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn model(kind: SchedulerKind) -> EvModel {
        let init: BTreeMap<DeviceId, Value> = (0..5).map(|i| (d(i), Value::OFF)).collect();
        let cfg = EngineConfig::new(VisibilityModel::Ev { scheduler: kind });
        EvModel::new(&init, cfg, kind)
    }

    fn routine(devs: &[u32]) -> Routine {
        let mut b = Routine::builder("r");
        for &i in devs {
            b = b.set(d(i), Value::ON, TimeDelta::from_millis(100));
        }
        b.build()
    }

    fn submit(m: &mut EvModel, id: u64, r: Routine, now: Timestamp) -> Vec<Effect> {
        let mut out = EffectBuf::new();
        m.submit(RoutineRun::new(RoutineId(id), r, now), now, &mut out);
        out.into_vec()
    }

    fn finish_cmd(m: &mut EvModel, id: u64, idx: usize, dev: u32, now: u64) -> Vec<Effect> {
        let mut out = EffectBuf::new();
        m.on_command_result(
            RoutineId(id),
            idx,
            d(dev),
            true,
            None,
            false,
            t(now),
            &mut out,
        );
        out.into_vec()
    }

    fn has_dispatch(out: &[Effect], id: u64, dev: u32) -> bool {
        out.iter().any(|e| {
            matches!(
                e,
                Effect::Dispatch { routine, device, rollback: false, .. }
                    if routine.0 == id && device.0 == dev
            )
        })
    }

    #[test]
    fn single_routine_runs_to_commit() {
        for kind in [
            SchedulerKind::Fcfs,
            SchedulerKind::Jit,
            SchedulerKind::Timeline,
        ] {
            let mut m = model(kind);
            let out = submit(&mut m, 1, routine(&[0, 1]), t(0));
            assert!(has_dispatch(&out, 1, 0), "{kind:?}");
            let out = finish_cmd(&mut m, 1, 0, 0, 100);
            assert!(has_dispatch(&out, 1, 1), "{kind:?}");
            let out = finish_cmd(&mut m, 1, 1, 1, 200);
            assert!(
                out.iter().any(|e| matches!(e, Effect::Committed { .. })),
                "{kind:?}"
            );
            assert!(m.quiescent());
            assert_eq!(m.committed_states()[&d(0)], Value::ON);
            assert_eq!(m.witness_order(), vec![OrderItem::Routine(RoutineId(1))]);
        }
    }

    #[test]
    fn post_lease_pipelines_breakfast_routines() {
        // Two identical {coffee(d0); pancake(d1)} routines: R2's coffee
        // must start as soon as R1 releases the coffee maker. FCFS and
        // Timeline achieve this via placement; JiT cannot (being after R1
        // on d0 but before it on d1 contradicts invariant 4, so JiT waits
        // — exactly why Timeline beats JiT in Fig. 14).
        for kind in [SchedulerKind::Fcfs, SchedulerKind::Timeline] {
            let mut m = model(kind);
            submit(&mut m, 1, routine(&[0, 1]), t(0));
            let out2 = submit(&mut m, 2, routine(&[0, 1]), t(1));
            assert!(
                !has_dispatch(&out2, 2, 0),
                "coffee still held by R1 ({kind:?})"
            );
            let out = finish_cmd(&mut m, 1, 0, 0, 100);
            assert!(has_dispatch(&out, 1, 1), "R1 moves to pancake ({kind:?})");
            assert!(
                has_dispatch(&out, 2, 0),
                "R2 starts coffee concurrently ({kind:?})"
            );
            // Run both to completion; EV must end serially equivalent.
            finish_cmd(&mut m, 1, 1, 1, 200);
            finish_cmd(&mut m, 2, 0, 0, 200);
            let out = finish_cmd(&mut m, 2, 1, 1, 300);
            assert!(out.iter().any(|e| matches!(e, Effect::Committed { .. })));
            assert!(m.quiescent(), "{kind:?}");
            assert_eq!(
                m.witness_order(),
                vec![
                    OrderItem::Routine(RoutineId(1)),
                    OrderItem::Routine(RoutineId(2))
                ],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn jit_cannot_pipeline_conflicting_pair() {
        let mut m = model(SchedulerKind::Jit);
        submit(&mut m, 1, routine(&[0, 1]), t(0));
        submit(&mut m, 2, routine(&[0, 1]), t(1));
        let out = finish_cmd(&mut m, 1, 0, 0, 100);
        assert!(has_dispatch(&out, 1, 1));
        assert!(
            !has_dispatch(&out, 2, 0),
            "JiT's all-locks-now test rejects the mixed pre/post placement"
        );
        let out = finish_cmd(&mut m, 1, 1, 1, 200);
        assert!(has_dispatch(&out, 2, 0), "R2 starts once R1 finishes");
    }

    #[test]
    fn post_lease_disabled_serializes_handover() {
        let mut m = {
            let init: BTreeMap<DeviceId, Value> = (0..5).map(|i| (d(i), Value::OFF)).collect();
            let mut cfg = EngineConfig::new(VisibilityModel::ev());
            cfg.post_lease = false;
            EvModel::new(&init, cfg, SchedulerKind::Timeline)
        };
        submit(&mut m, 1, routine(&[0, 1]), t(0));
        submit(&mut m, 2, routine(&[0]), t(1));
        let out = finish_cmd(&mut m, 1, 0, 0, 100);
        assert!(
            !has_dispatch(&out, 2, 0),
            "without post-lease, R2 waits for R1's finish"
        );
        let out = finish_cmd(&mut m, 1, 1, 1, 200);
        assert!(has_dispatch(&out, 2, 0), "handover at R1's commit");
    }

    #[test]
    fn commit_compaction_last_writer_wins() {
        let mut m = model(SchedulerKind::Timeline);
        // R1 writes d0 then a long command on d1; R2 writes d0 (post-
        // leased) and commits FIRST. R1's later commit must not overwrite
        // R2's committed value on d0.
        let r1 = Routine::builder("r1")
            .set(d(0), Value::ON, TimeDelta::from_millis(100))
            .set(d(1), Value::ON, TimeDelta::from_millis(10_000))
            .build();
        let r2 = Routine::builder("r2")
            .set(d(0), Value::Int(42), TimeDelta::from_millis(100))
            .build();
        submit(&mut m, 1, r1, t(0));
        submit(&mut m, 2, r2, t(1));
        finish_cmd(&mut m, 1, 0, 0, 100); // R1 releases d0, R2 dispatches
        let out = finish_cmd(&mut m, 2, 0, 0, 200);
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::Committed { routine } if routine.0 == 2)));
        assert_eq!(m.committed_states()[&d(0)], Value::Int(42));
        // Now R1 commits; compaction already removed its d0 entry.
        let out = finish_cmd(&mut m, 1, 1, 1, 10_100);
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::Committed { routine } if routine.0 == 1)));
        assert_eq!(
            m.committed_states()[&d(0)],
            Value::Int(42),
            "R2 is serialized after R1; its value survives"
        );
        assert_eq!(
            m.witness_order(),
            vec![
                OrderItem::Routine(RoutineId(1)),
                OrderItem::Routine(RoutineId(2))
            ]
        );
    }

    #[test]
    fn abort_rolls_back_only_own_latest_devices() {
        let mut m = model(SchedulerKind::Timeline);
        // R1 writes d0=ON then fails on d1; but R2 already post-leased d0
        // and wrote d0=42. R1's abort must NOT touch d0 (case A, §4.3).
        let r1 = Routine::builder("r1")
            .set(d(0), Value::ON, TimeDelta::from_millis(100))
            .set(d(1), Value::ON, TimeDelta::from_millis(100))
            .build();
        let r2 = Routine::builder("r2")
            .set(d(0), Value::Int(42), TimeDelta::from_millis(100))
            .build();
        submit(&mut m, 1, r1, t(0));
        submit(&mut m, 2, r2, t(1));
        finish_cmd(&mut m, 1, 0, 0, 100);
        finish_cmd(&mut m, 2, 0, 0, 200); // R2 commits, last user of d0
        let mut out = EffectBuf::new();
        m.on_command_result(RoutineId(1), 1, d(1), false, None, false, t(300), &mut out);
        let abort = out
            .iter()
            .find(|e| matches!(e, Effect::Aborted { .. }))
            .unwrap();
        match abort {
            Effect::Aborted { rolled_back, .. } => {
                assert_eq!(*rolled_back, 0, "d0 superseded by R2; nothing to roll back");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn abort_restores_previous_lineage_value() {
        let mut m = model(SchedulerKind::Timeline);
        let r1 = Routine::builder("r1")
            .set(d(0), Value::ON, TimeDelta::from_millis(100))
            .set(d(1), Value::ON, TimeDelta::from_millis(100))
            .build();
        submit(&mut m, 1, r1, t(0));
        finish_cmd(&mut m, 1, 0, 0, 100);
        let mut out = EffectBuf::new();
        m.on_command_result(RoutineId(1), 1, d(1), false, None, false, t(200), &mut out);
        let rb: Vec<_> = out
            .iter()
            .filter(|e| matches!(e, Effect::Dispatch { rollback: true, .. }))
            .collect();
        assert_eq!(rb.len(), 1);
        match rb[0] {
            Effect::Dispatch { device, action, .. } => {
                assert_eq!(*device, d(0));
                assert_eq!(*action, Action::Set(Value::OFF), "committed state restored");
            }
            _ => unreachable!(),
        }
        // The rollback hold blocks successors until the restore lands.
        let out2 = submit(&mut m, 2, routine(&[0]), t(201));
        assert!(!has_dispatch(&out2, 2, 0));
        let mut out3 = EffectBuf::new();
        m.on_command_result(RoutineId(1), 0, d(0), true, None, true, t(250), &mut out3);
        assert!(has_dispatch(&out3, 2, 0));
    }

    #[test]
    fn inflight_irreversible_abort_emits_feedback() {
        // Regression: when the write being rolled back unconditionally is
        // the in-flight command and it is physically irreversible, the
        // abort must carry the feedback note (previously only completed
        // irreversible writes produced it).
        let mut m = model(SchedulerKind::Timeline);
        let r1 = Routine::builder("sprinkler")
            .set_irreversible(d(0), Value::ON, TimeDelta::from_secs(60))
            .build();
        let out = submit(&mut m, 1, r1, t(0));
        assert!(has_dispatch(&out, 1, 0));
        let mut out = EffectBuf::new();
        m.on_device_down(d(0), t(100), &mut out);
        assert!(out.iter().any(|e| matches!(e, Effect::Aborted { .. })));
        assert!(
            out.iter().any(|e| matches!(
                e,
                Effect::Feedback { routine: Some(r), message }
                    if r.0 == 1 && message.contains("irreversible")
            )),
            "in-flight irreversible rollback must add the feedback note: {out:?}"
        );
        assert!(
            out.iter()
                .any(|e| matches!(e, Effect::Dispatch { rollback: true, .. })),
            "device state still restored unconditionally"
        );
    }

    #[test]
    fn skipped_best_effort_does_not_count_as_mid_use() {
        // Regression: d0 is down; the routine skips its best-effort d0
        // command and proceeds on d1. A second d0 failure while the
        // routine is mid-d1 must NOT abort it — the routine never
        // dispatched on d0, so rules 2/4 resolve at dispatch time.
        let mut m = model(SchedulerKind::Timeline);
        let mut out = EffectBuf::new();
        m.on_device_down(d(0), t(0), &mut out);
        let r = Routine::builder("be")
            .set_best_effort(d(0), Value::ON, TimeDelta::from_millis(100))
            .set(d(1), Value::ON, TimeDelta::from_secs(30))
            .set(d(0), Value::ON, TimeDelta::from_millis(100))
            .build();
        let out = submit(&mut m, 1, r, t(10));
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::BestEffortSkipped { .. })));
        assert!(has_dispatch(&out, 1, 1));
        let mut out = EffectBuf::new();
        m.on_device_up(d(0), t(1_000), &mut out);
        m.on_device_down(d(0), t(2_000), &mut out);
        assert!(
            !out.iter().any(|e| matches!(e, Effect::Aborted { .. })),
            "never-dispatched device is not mid-use: {out:?}"
        );
        // After recovery the routine reaches d0 for real and commits.
        let mut out = EffectBuf::new();
        m.on_device_up(d(0), t(3_000), &mut out);
        finish_cmd(&mut m, 1, 1, 1, 30_000);
        let out = finish_cmd(&mut m, 1, 2, 0, 30_100);
        assert!(out.iter().any(|e| matches!(e, Effect::Committed { .. })));
        // Rule 2: all four d0 events serialize before the routine's
        // first real touch.
        let order = m.witness_order();
        let routine_pos = order
            .iter()
            .position(|o| matches!(o, OrderItem::Routine(r) if r.0 == 1))
            .expect("routine committed");
        assert_eq!(
            routine_pos,
            order.len() - 1,
            "failure/restart events all serialize before the routine: {order:?}"
        );
    }

    #[test]
    fn skipped_only_device_gets_no_rule3_edge() {
        // Regression: the routine's ONLY d0 command was skipped (d0 down,
        // best-effort), so `pc` is past d0's last touch — but the routine
        // never dispatched there. A later d0 failure must not pick up a
        // rule-3 "serializes after the routine" edge: with no touch there
        // is no edge either way, and the failure keeps its chronological
        // place before the routine's commit.
        let mut m = model(SchedulerKind::Timeline);
        let mut out = EffectBuf::new();
        m.on_device_down(d(0), t(0), &mut out);
        let r = Routine::builder("be")
            .set_best_effort(d(0), Value::ON, TimeDelta::from_millis(100))
            .set(d(1), Value::ON, TimeDelta::from_secs(30))
            .build();
        let out = submit(&mut m, 1, r, t(10));
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::BestEffortSkipped { .. })));
        let mut out = EffectBuf::new();
        m.on_device_up(d(0), t(1_000), &mut out);
        m.on_device_down(d(0), t(2_000), &mut out);
        assert!(!out.iter().any(|e| matches!(e, Effect::Aborted { .. })));
        // Event nodes are numbered in detection order: Failure(0) at t=0,
        // Restart(1) at t=1s, Failure(2) at t=2s. The buggy rule-3 branch
        // added Routine(1) → Failure(2); with no real touch there must be
        // no ordering constraint between them in either direction.
        let routine = OrderNode::Routine(RoutineId(1));
        assert!(
            !m.order.reaches(routine, OrderNode::Failure(2)),
            "no rule-3 edge for a never-dispatched device"
        );
        assert!(!m.order.reaches(OrderNode::Failure(2), routine));
        let out = finish_cmd(&mut m, 1, 1, 1, 30_000);
        assert!(out.iter().any(|e| matches!(e, Effect::Committed { .. })));
    }

    #[test]
    fn failure_after_last_touch_serializes_after_routine() {
        let mut m = model(SchedulerKind::Timeline);
        submit(&mut m, 1, routine(&[0, 1]), t(0));
        finish_cmd(&mut m, 1, 0, 0, 100);
        let mut out = EffectBuf::new();
        m.on_device_down(d(0), t(150), &mut out); // after last touch of d0
        assert!(
            !out.iter().any(|e| matches!(e, Effect::Aborted { .. })),
            "rule 3: no abort"
        );
        finish_cmd(&mut m, 1, 1, 1, 200);
        assert_eq!(
            m.witness_order(),
            vec![OrderItem::Routine(RoutineId(1)), OrderItem::Failure(d(0))]
        );
    }

    #[test]
    fn failure_mid_use_aborts() {
        let mut m = model(SchedulerKind::Timeline);
        submit(&mut m, 1, routine(&[0, 1, 0]), t(0)); // touches d0 twice
        finish_cmd(&mut m, 1, 0, 0, 100);
        let mut out = EffectBuf::new();
        m.on_device_down(d(0), t(150), &mut out);
        assert!(out.iter().any(|e| matches!(
            e,
            Effect::Aborted { reason: AbortReason::FailureSerialization { device }, .. }
                if *device == d(0)
        )));
    }

    #[test]
    fn failure_and_restart_before_first_touch_serialize_before() {
        let mut m = model(SchedulerKind::Timeline);
        // Fail and restart d1 before R's first touch of d1 (rule 2).
        submit(&mut m, 1, routine(&[0, 1]), t(0));
        let mut out = EffectBuf::new();
        m.on_device_down(d(1), t(10), &mut out);
        assert!(!out.iter().any(|e| matches!(e, Effect::Aborted { .. })));
        m.on_device_up(d(1), t(20), &mut out);
        finish_cmd(&mut m, 1, 0, 0, 100); // now touches d1
        finish_cmd(&mut m, 1, 1, 1, 200);
        assert_eq!(
            m.witness_order(),
            vec![
                OrderItem::Failure(d(1)),
                OrderItem::Restart(d(1)),
                OrderItem::Routine(RoutineId(1)),
            ]
        );
    }

    #[test]
    fn failure_without_restart_before_touch_aborts_at_dispatch() {
        let mut m = model(SchedulerKind::Timeline);
        submit(&mut m, 1, routine(&[0, 1]), t(0));
        let mut out = EffectBuf::new();
        m.on_device_down(d(1), t(10), &mut out);
        assert!(!out.iter().any(|e| matches!(e, Effect::Aborted { .. })));
        // R reaches d1 with the device still down → rule 4, abort.
        let out = finish_cmd(&mut m, 1, 0, 0, 100);
        assert!(out.iter().any(|e| matches!(
            e,
            Effect::Aborted { reason: AbortReason::MustCommandFailed { device }, .. }
                if *device == d(1)
        )));
    }

    #[test]
    fn best_effort_on_down_device_skips_and_continues() {
        let mut m = model(SchedulerKind::Timeline);
        let r = Routine::builder("be")
            .set_best_effort(d(0), Value::ON, TimeDelta::from_millis(100))
            .set(d(1), Value::ON, TimeDelta::from_millis(100))
            .build();
        let mut out = EffectBuf::new();
        m.on_device_down(d(0), t(0), &mut out);
        let out = submit(&mut m, 1, r, t(1));
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::BestEffortSkipped { .. })));
        assert!(has_dispatch(&out, 1, 1));
        let out = finish_cmd(&mut m, 1, 1, 1, 100);
        assert!(out.iter().any(|e| matches!(e, Effect::Committed { .. })));
        // The skipped write never became committed state.
        assert_eq!(m.committed_states()[&d(0)], Value::OFF);
        assert_eq!(m.committed_states()[&d(1)], Value::ON);
    }

    #[test]
    fn jit_waits_until_eligible() {
        let mut m = model(SchedulerKind::Jit);
        // R1 takes d0 with a long command; R2 (wants d0 mid-routine)
        // cannot greedily hold everything and waits.
        submit(&mut m, 1, routine(&[0]), t(0));
        let out2 = submit(&mut m, 2, routine(&[0, 1]), t(1));
        assert!(!out2.iter().any(Effect::is_dispatch));
        // R1 finishing releases d0 → eligibility retest → R2 starts.
        let out = finish_cmd(&mut m, 1, 0, 0, 100);
        assert!(has_dispatch(&out, 2, 0));
    }

    #[test]
    fn jit_ttl_prioritizes_starving_routine() {
        let mut m = model(SchedulerKind::Jit);
        // d0 busy with a long R1 command; R2 waits for d0+d1.
        submit(&mut m, 1, routine(&[0]), t(0));
        submit(&mut m, 2, routine(&[0, 1]), t(1));
        // TTL expires for R2.
        let mut out = EffectBuf::new();
        m.on_timer(
            TimerId::Ttl {
                routine: RoutineId(2),
            },
            t(120_000),
            &mut out,
        );
        // R3 arrives wanting d1 (free!) — but R2 has priority on it now.
        let out3 = submit(&mut m, 3, routine(&[1]), t(120_001));
        assert!(
            !out3.iter().any(Effect::is_dispatch),
            "R3 must not overtake the starving R2 on d1"
        );
        // R4 wanting an unrelated device sails through.
        let out4 = submit(&mut m, 4, routine(&[3]), t(120_002));
        assert!(has_dispatch(&out4, 4, 3));
    }

    #[test]
    fn pre_lease_revocation_aborts_stalled_lessee() {
        let mut m = model(SchedulerKind::Jit);
        // R1 holds d2 (long) with d1 scheduled untouched; R2 pre-leases
        // d1 for a first and a *later* access, with a d0 access between.
        let r1 = Routine::builder("r1")
            .set(d(2), Value::ON, TimeDelta::from_secs(60))
            .set(d(1), Value::ON, TimeDelta::from_millis(100))
            .build();
        submit(&mut m, 1, r1, t(0));
        let r2 = Routine::builder("r2")
            .set(d(1), Value::ON, TimeDelta::from_millis(100))
            .set(d(0), Value::ON, TimeDelta::from_millis(100))
            .set(d(1), Value::OFF, TimeDelta::from_millis(100))
            .build();
        let out2 = submit(&mut m, 2, r2, t(10));
        assert!(has_dispatch(&out2, 2, 1));
        let timer = out2.iter().find_map(|e| match e {
            Effect::SetTimer {
                timer: TimerId::LeaseRevocation { routine, device },
                at,
            } if routine.0 == 2 => Some((*device, *at)),
            _ => None,
        });
        let (dev, at) = timer.expect("revocation timer armed");
        assert_eq!(dev, d(1));
        assert_eq!(
            at,
            t(10 + 550),
            "(300ms span + 2×100ms actuation slack) × 1.1 leniency"
        );
        // R2 finishes its first d1 access, then stalls on d0: its second
        // d1 access is still Scheduled when the timer fires → revoke.
        finish_cmd(&mut m, 2, 0, 1, 50);
        let mut out = EffectBuf::new();
        m.on_timer(
            TimerId::LeaseRevocation {
                routine: RoutineId(2),
                device: d(1),
            },
            at,
            &mut out,
        );
        assert!(out.iter().any(|e| matches!(
            e,
            Effect::Aborted { reason: AbortReason::LeaseRevoked { device }, .. } if *device == d(1)
        )));
    }

    #[test]
    fn revocation_defers_while_access_in_flight() {
        let mut m = model(SchedulerKind::Jit);
        let r1 = Routine::builder("r1")
            .set(d(0), Value::ON, TimeDelta::from_secs(60))
            .set(d(1), Value::ON, TimeDelta::from_millis(100))
            .build();
        submit(&mut m, 1, r1, t(0));
        // R2 pre-leases d1 and dispatches immediately: its only access is
        // physically in flight when the timer fires. Revoking now would
        // not free d1 any sooner, so the decision is deferred instead.
        let out2 = submit(&mut m, 2, routine(&[1]), t(10));
        assert!(has_dispatch(&out2, 2, 1));
        let mut out = EffectBuf::new();
        m.on_timer(
            TimerId::LeaseRevocation {
                routine: RoutineId(2),
                device: d(1),
            },
            t(230),
            &mut out,
        );
        assert!(!out.iter().any(|e| matches!(e, Effect::Aborted { .. })));
        let deferred = out.iter().find_map(|e| match e {
            Effect::SetTimer {
                timer: TimerId::LeaseRevocation { routine, device },
                at,
            } if routine.0 == 2 && *device == d(1) => Some(*at),
            _ => None,
        });
        assert_eq!(deferred, Some(t(330)), "re-armed one τ past the check");
        // The slow access completes before the deferred check: commit.
        let out = finish_cmd(&mut m, 2, 0, 1, 300);
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::Committed { routine } if routine.0 == 2)));
        let mut out = EffectBuf::new();
        m.on_timer(
            TimerId::LeaseRevocation {
                routine: RoutineId(2),
                device: d(1),
            },
            t(330),
            &mut out,
        );
        assert!(
            !out.iter().any(|e| matches!(e, Effect::Aborted { .. })),
            "stale timer"
        );
    }

    #[test]
    fn revocation_timer_is_stale_after_release() {
        let mut m = model(SchedulerKind::Jit);
        let r1 = Routine::builder("r1")
            .set(d(0), Value::ON, TimeDelta::from_secs(60))
            .set(d(1), Value::ON, TimeDelta::from_millis(100))
            .build();
        submit(&mut m, 1, r1, t(0));
        submit(&mut m, 2, routine(&[1]), t(10));
        // R2 completes its d1 access before the timer fires.
        finish_cmd(&mut m, 2, 0, 1, 50);
        let mut out = EffectBuf::new();
        m.on_timer(
            TimerId::LeaseRevocation {
                routine: RoutineId(2),
                device: d(1),
            },
            t(120),
            &mut out,
        );
        assert!(!out.iter().any(|e| matches!(e, Effect::Aborted { .. })));
    }

    #[test]
    fn lineage_stays_valid_through_a_run() {
        let mut m = model(SchedulerKind::Timeline);
        submit(&mut m, 1, routine(&[0, 1, 2]), t(0));
        submit(&mut m, 2, routine(&[1, 2]), t(1));
        submit(&mut m, 3, routine(&[2, 0]), t(2));
        m.lineage_table().validate(false).unwrap();
        finish_cmd(&mut m, 1, 0, 0, 100);
        m.lineage_table().validate(false).unwrap();
        finish_cmd(&mut m, 1, 1, 1, 200);
        finish_cmd(&mut m, 2, 0, 1, 300);
        m.lineage_table().validate(false).unwrap();
        finish_cmd(&mut m, 1, 2, 2, 400);
        finish_cmd(&mut m, 2, 1, 2, 500);
        finish_cmd(&mut m, 3, 0, 2, 600);
        finish_cmd(&mut m, 3, 1, 0, 700);
        assert!(m.quiescent());
        assert_eq!(m.witness_order().len(), 3);
    }
}
