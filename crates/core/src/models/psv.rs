//! Partitioned Strict Visibility (§2.1, §3).
//!
//! Non-conflicting routines run concurrently; conflicting routines
//! serialize through strict per-device locks acquired all-or-nothing at
//! start and held until finish (no leasing). Failure serialization uses
//! the EV rules with condition 3 replaced by 3*: a failure detected after
//! a routine's last touch of a device forces a *finish-point* re-check —
//! the routine commits only if the device has recovered by then, which is
//! why PSV's rollback overhead is the highest of the serialized models
//! (§7.4: it aborts at the finish point, after all commands ran).

use std::collections::BTreeMap;

use safehome_types::{
    trace::AbortReason, trace::OrderItem, CmdIdx, DeviceId, Priority, RoutineId, Timestamp, Value,
};

use crate::event::{Effect, EffectBuf, TimerId};
use crate::models::{event_log_bytes, tree_bytes, HealthView, Model};
use crate::order::{OrderNode, OrderTracker};
use crate::runtime::{failure_aborts, guard_passes, plan_rollback, RoutineRun, RunTable};

/// The PSV model.
#[derive(Debug)]
pub struct PsvModel {
    runs: RunTable,
    /// Submitted routines not yet holding their locks, in arrival order.
    waiting: Vec<RoutineId>,
    lock_owner: BTreeMap<DeviceId, RoutineId>,
    /// Last routine to have held each device (for serialization edges);
    /// rolled back to the previous holder when a routine aborts.
    last_holder: BTreeMap<DeviceId, RoutineId>,
    prev_holder: BTreeMap<(DeviceId, RoutineId), Option<RoutineId>>,
    order: OrderTracker,
    committed: BTreeMap<DeviceId, Value>,
    mirror: BTreeMap<DeviceId, Value>,
    health: HealthView,
    /// Chronological failure/restart event nodes per device.
    event_log: BTreeMap<DeviceId, Vec<OrderNode>>,
    last_event: BTreeMap<DeviceId, OrderNode>,
    /// Rule 3*: failures after a routine's last touch, re-checked at its
    /// finish point.
    pending_after: BTreeMap<RoutineId, Vec<(DeviceId, OrderNode)>>,
    outstanding_rollbacks: BTreeMap<(RoutineId, DeviceId), Value>,
    /// Devices blocked until an abort's rollback write completes.
    rollback_holds: BTreeMap<DeviceId, RoutineId>,
}

impl PsvModel {
    /// Creates the model with the home's initial states.
    pub fn new(initial: &BTreeMap<DeviceId, Value>) -> Self {
        PsvModel {
            runs: RunTable::default(),
            waiting: Vec::new(),
            lock_owner: BTreeMap::new(),
            last_holder: BTreeMap::new(),
            prev_holder: BTreeMap::new(),
            order: OrderTracker::new(),
            committed: initial.clone(),
            mirror: initial.clone(),
            health: HealthView::default(),
            event_log: BTreeMap::new(),
            last_event: BTreeMap::new(),
            pending_after: BTreeMap::new(),
            outstanding_rollbacks: BTreeMap::new(),
            rollback_holds: BTreeMap::new(),
        }
    }

    /// Early lock acquisition (§4.1): a waiting routine starts only when
    /// *every* device it touches is free; otherwise it keeps waiting (the
    /// all-or-nothing retry of the paper, driven by release events).
    fn try_start_all(&mut self, now: Timestamp, out: &mut EffectBuf) {
        let candidates: Vec<RoutineId> = self.waiting.clone();
        for id in candidates {
            let Some(run) = self.runs.get(id) else {
                continue;
            };
            let devices = run.routine.devices();
            let free = devices
                .iter()
                .all(|d| !self.lock_owner.contains_key(d) && !self.rollback_holds.contains_key(d));
            if !free {
                continue;
            }
            self.waiting.retain(|&w| w != id);
            for &d in &devices {
                self.lock_owner.insert(d, id);
                let prev = self.last_holder.insert(d, id);
                self.prev_holder.insert((d, id), prev);
                if let Some(prev) = prev {
                    self.order.order_routines(prev, id);
                }
            }
            if let Some(run) = self.runs.get_mut(id) {
                run.started = Some(now);
            }
            out.push(Effect::Started { routine: id });
            self.advance(id, now, out);
        }
    }

    fn advance(&mut self, id: RoutineId, now: Timestamp, out: &mut EffectBuf) {
        loop {
            let Some(run) = self.runs.get(id) else { return };
            let Some(cmd) = run.current().copied() else {
                self.try_commit(id, now, out);
                return;
            };
            if !self.health.up(cmd.device) {
                if failure_aborts(&cmd) {
                    self.abort(
                        id,
                        AbortReason::MustCommandFailed { device: cmd.device },
                        now,
                        out,
                    );
                    return;
                }
                let run = self.runs.get_mut(id).expect("checked above");
                out.push(Effect::BestEffortSkipped {
                    routine: id,
                    idx: CmdIdx(run.pc as u16),
                    device: cmd.device,
                });
                run.pc += 1;
                continue;
            }
            // Rule 2 (§3): failure/restart events detected before the
            // first touch of this device serialize before the routine.
            let first_touch = !self.runs.get(id).expect("checked").touched(cmd.device);
            if first_touch {
                if let Some(events) = self.event_log.get(&cmd.device) {
                    for &ev in events.clone().iter() {
                        self.order.add_edge(ev, OrderNode::Routine(id));
                    }
                }
            }
            let run = self.runs.get_mut(id).expect("checked above");
            run.note_dispatch(cmd.device);
            out.push(Effect::Dispatch {
                routine: id,
                idx: CmdIdx(run.pc as u16),
                device: cmd.device,
                action: cmd.action,
                duration: cmd.duration,
                rollback: false,
            });
            return;
        }
    }

    /// Finish point: apply rule 3* re-checks, then commit.
    fn try_commit(&mut self, id: RoutineId, now: Timestamp, out: &mut EffectBuf) {
        if let Some(pending) = self.pending_after.get(&id) {
            for &(d, _) in pending.clone().iter() {
                if !self.health.up(d) {
                    // Still failed at the finish point: abort (3*).
                    self.abort(
                        id,
                        AbortReason::FailureSerialization { device: d },
                        now,
                        out,
                    );
                    return;
                }
            }
            // Recovered: serialize the failure (and its restart, already
            // chained after it) right after this routine.
            for (_, fnode) in self.pending_after.remove(&id).unwrap_or_default() {
                self.order.add_edge(OrderNode::Routine(id), fnode);
            }
        }
        let run = self.runs.remove(id).expect("committing unknown routine");
        for (d, v) in run.committed_writes() {
            self.committed.insert(d, v);
        }
        self.order.mark_committed(id, now);
        self.release_locks(id);
        out.push(Effect::Committed { routine: id });
        self.try_start_all(now, out);
    }

    fn release_locks(&mut self, id: RoutineId) {
        self.lock_owner.retain(|_, &mut owner| owner != id);
    }

    fn abort(&mut self, id: RoutineId, reason: AbortReason, now: Timestamp, out: &mut EffectBuf) {
        let run = self.runs.remove(id).expect("aborting unknown routine");
        let committed = &self.committed;
        let mirror = &self.mirror;
        let (effects, rolled_back) = plan_rollback(
            &run,
            |d| committed.get(&d).copied().expect("known device"),
            |d| mirror.get(&d).copied().expect("known device"),
        );
        for e in &effects {
            if let Effect::Dispatch { device, action, .. } = e {
                if let Some(v) = action.written_value() {
                    self.outstanding_rollbacks.insert((id, *device), v);
                    self.rollback_holds.insert(*device, id);
                }
            }
        }
        out.push(Effect::Aborted {
            routine: id,
            reason,
            executed: run.completed,
            rolled_back,
        });
        out.extend(effects);
        self.release_locks(id);
        self.waiting.retain(|&w| w != id);
        self.pending_after.remove(&id);
        // Aborted routines vanish from the serialization order; the
        // last-holder chain reverts so future edges skip this routine.
        for d in run.routine.devices() {
            if self.last_holder.get(&d) == Some(&id) {
                match self.prev_holder.remove(&(d, id)).flatten() {
                    Some(prev) => {
                        self.last_holder.insert(d, prev);
                    }
                    None => {
                        self.last_holder.remove(&d);
                    }
                }
            }
        }
        self.order.remove_routine(id);
        self.try_start_all(now, out);
    }

    /// Applies the §3 EV/PSV failure rules at detection time.
    fn apply_failure_rules(
        &mut self,
        device: DeviceId,
        fnode: OrderNode,
        now: Timestamp,
        out: &mut EffectBuf,
    ) {
        for id in self.runs.ids() {
            let Some(run) = self.runs.get(id) else {
                continue;
            };
            if run.started.is_none() || !run.uses(device) {
                continue; // Waiting routines decide at dispatch time.
            }
            if !run.touched(device) {
                // Never dispatched on the device (commands skipped or
                // still ahead): rule 2/4 resolves at dispatch time.
            } else if run.done_with(device) {
                // Rule 3*: defer to the finish point.
                self.pending_after
                    .entry(id)
                    .or_default()
                    .push((device, fnode));
            } else {
                // Mid-use: abort eagerly iff the remaining commands on the
                // device include a Must (pure best-effort suffixes are
                // skipped at dispatch instead, which is what makes the
                // abort rate scale with the Must percentage, Fig. 13a).
                let must_remaining = run
                    .routine
                    .commands
                    .iter()
                    .enumerate()
                    .skip(run.pc)
                    .any(|(_, c)| c.device == device && c.priority == Priority::Must);
                if must_remaining {
                    self.abort(id, AbortReason::FailureSerialization { device }, now, out);
                }
            }
        }
    }
}

impl Model for PsvModel {
    fn submit(&mut self, run: RoutineRun, now: Timestamp, out: &mut EffectBuf) {
        let id = run.id;
        self.order.add_routine(id, now);
        self.runs.insert(run);
        self.waiting.push(id);
        self.try_start_all(now, out);
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
            if let Some(v) = self.outstanding_rollbacks.remove(&(routine, device)) {
                if success {
                    self.mirror.insert(device, v);
                } else {
                    out.push(Effect::Feedback {
                        routine: Some(routine),
                        message: format!("rollback of {device} failed (device down)"),
                    });
                }
                if self.rollback_holds.get(&device) == Some(&routine) {
                    self.rollback_holds.remove(&device);
                }
                self.try_start_all(now, out);
            }
            return;
        }
        let Some(run) = self.runs.get_mut(routine) else {
            return;
        };
        if run.pc != idx || !run.dispatched {
            return; // Stale.
        }
        run.dispatched = false;
        let cmd = run.routine.commands[idx];
        if success {
            run.completed += 1;
            if let Some(v) = cmd.action.written_value() {
                run.executed_writes.push((idx, device, v));
                self.mirror.insert(device, v);
            }
            if !guard_passes(&cmd, observed) {
                self.abort(routine, AbortReason::GuardFailed { device }, now, out);
                return;
            }
            run.pc += 1;
            self.advance(routine, now, out);
        } else if failure_aborts(&cmd) {
            self.abort(routine, AbortReason::MustCommandFailed { device }, now, out);
        } else {
            out.push(Effect::BestEffortSkipped {
                routine,
                idx: CmdIdx(idx as u16),
                device,
            });
            run.pc += 1;
            self.advance(routine, now, out);
        }
    }

    fn on_device_down(&mut self, device: DeviceId, now: Timestamp, out: &mut EffectBuf) {
        self.health.mark_down(device);
        let fnode = self.order.new_failure(device, now);
        if let Some(&prev) = self.last_event.get(&device) {
            self.order.add_edge(prev, fnode);
        }
        self.last_event.insert(device, fnode);
        self.event_log.entry(device).or_default().push(fnode);
        self.apply_failure_rules(device, fnode, now, out);
    }

    fn on_device_up(&mut self, device: DeviceId, now: Timestamp, _out: &mut EffectBuf) {
        self.health.mark_up(device);
        let renode = self.order.new_restart(device, now);
        if let Some(&prev) = self.last_event.get(&device) {
            self.order.add_edge(prev, renode);
        }
        self.last_event.insert(device, renode);
        self.event_log.entry(device).or_default().push(renode);
        // Restarts abort nothing under PSV; deferred dispatches proceed.
    }

    fn on_timer(&mut self, _timer: TimerId, _now: Timestamp, _out: &mut EffectBuf) {}

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
        self.committed.clone()
    }

    fn approx_bytes(&self) -> usize {
        // `prev_holder` gains an entry per lock acquisition and loses one
        // only on abort, so it grows with history like the order graph.
        self.order.approx_bytes()
            + event_log_bytes(&self.event_log)
            + tree_bytes::<(DeviceId, RoutineId), Option<RoutineId>>(self.prev_holder.len())
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.order.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safehome_types::{Routine, TimeDelta};

    fn d(i: u32) -> DeviceId {
        DeviceId(i)
    }
    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn model() -> PsvModel {
        let init = (0..5).map(|i| (d(i), Value::OFF)).collect();
        PsvModel::new(&init)
    }

    fn routine(devs: &[u32]) -> Routine {
        let mut b = Routine::builder("r");
        for &i in devs {
            b = b.set(d(i), Value::ON, TimeDelta::from_millis(10));
        }
        b.build()
    }

    fn submit(m: &mut PsvModel, id: u64, devs: &[u32], now: Timestamp) -> Vec<Effect> {
        let mut out = EffectBuf::new();
        m.submit(
            RoutineRun::new(RoutineId(id), routine(devs), now),
            now,
            &mut out,
        );
        out.into_vec()
    }

    fn started(out: &[Effect], id: u64) -> bool {
        out.iter()
            .any(|e| matches!(e, Effect::Started { routine } if routine.0 == id))
    }

    #[test]
    fn non_conflicting_routines_run_concurrently() {
        let mut m = model();
        let out1 = submit(&mut m, 1, &[0, 1], t(0));
        let out2 = submit(&mut m, 2, &[2, 3], t(1));
        assert!(started(&out1, 1));
        assert!(started(&out2, 2), "disjoint devices start immediately");
    }

    #[test]
    fn conflicting_routines_serialize() {
        let mut m = model();
        submit(&mut m, 1, &[0, 1], t(0));
        let out2 = submit(&mut m, 2, &[1, 2], t(1));
        assert!(!started(&out2, 2), "conflict on device 1 blocks");
        // Finish routine 1; routine 2 must start.
        let mut out = EffectBuf::new();
        m.on_command_result(RoutineId(1), 0, d(0), true, None, false, t(10), &mut out);
        m.on_command_result(RoutineId(1), 1, d(1), true, None, false, t(20), &mut out);
        assert!(started(&out, 2));
        assert_eq!(
            m.witness_order()[0],
            OrderItem::Routine(RoutineId(1)),
            "lock order defines serialization"
        );
    }

    #[test]
    fn locks_held_until_finish_not_last_touch() {
        let mut m = model();
        // Routine 1 touches device 0 then device 1; PSV holds device 0
        // until the whole routine finishes (no post-lease).
        submit(&mut m, 1, &[0, 1], t(0));
        let mut out = EffectBuf::new();
        m.on_command_result(RoutineId(1), 0, d(0), true, None, false, t(10), &mut out);
        let out2 = submit(&mut m, 2, &[0], t(11));
        assert!(!started(&out2, 2), "device 0 lock still held");
        out.clear();
        m.on_command_result(RoutineId(1), 1, d(1), true, None, false, t(20), &mut out);
        assert!(started(&out, 2));
    }

    #[test]
    fn rule_3_star_aborts_at_finish_if_still_down() {
        let mut m = model();
        submit(&mut m, 1, &[0, 1], t(0));
        let mut out = EffectBuf::new();
        // Device 0's command completes, then device 0 fails.
        m.on_command_result(RoutineId(1), 0, d(0), true, None, false, t(10), &mut out);
        m.on_device_down(d(0), t(15), &mut out);
        assert!(
            !out.iter().any(|e| matches!(e, Effect::Aborted { .. })),
            "not aborted mid-run"
        );
        out.clear();
        // Device 1 completes: finish point reached with device 0 down.
        m.on_command_result(RoutineId(1), 1, d(1), true, None, false, t(20), &mut out);
        let abort = out.iter().find(|e| matches!(e, Effect::Aborted { .. }));
        assert!(abort.is_some(), "3*: still-failed device aborts at finish");
        match abort.unwrap() {
            Effect::Aborted {
                executed, reason, ..
            } => {
                assert_eq!(
                    *executed, 2,
                    "whole routine had executed (high rollback cost)"
                );
                assert_eq!(*reason, AbortReason::FailureSerialization { device: d(0) });
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn rule_3_star_commits_if_recovered_by_finish() {
        let mut m = model();
        submit(&mut m, 1, &[0, 1], t(0));
        let mut out = EffectBuf::new();
        m.on_command_result(RoutineId(1), 0, d(0), true, None, false, t(10), &mut out);
        m.on_device_down(d(0), t(15), &mut out);
        m.on_device_up(d(0), t(18), &mut out);
        out.clear();
        m.on_command_result(RoutineId(1), 1, d(1), true, None, false, t(20), &mut out);
        assert!(out.iter().any(|e| matches!(e, Effect::Committed { .. })));
        // Serialization: routine, then its failure, then the restart.
        assert_eq!(
            m.witness_order(),
            vec![
                OrderItem::Routine(RoutineId(1)),
                OrderItem::Failure(d(0)),
                OrderItem::Restart(d(0)),
            ]
        );
    }

    #[test]
    fn failure_mid_use_aborts_immediately() {
        let mut m = model();
        submit(&mut m, 1, &[0, 1, 0], t(0)); // touches 0, then 1, then 0 again
        let mut out = EffectBuf::new();
        m.on_command_result(RoutineId(1), 0, d(0), true, None, false, t(10), &mut out);
        out.clear();
        // Device 0 fails between the first and last touch → abort now.
        m.on_device_down(d(0), t(15), &mut out);
        assert!(out.iter().any(|e| matches!(
            e,
            Effect::Aborted { reason: AbortReason::FailureSerialization { device }, .. } if *device == d(0)
        )));
    }

    #[test]
    fn failure_before_first_touch_with_recovery_serializes_before() {
        let mut m = model();
        submit(&mut m, 1, &[0], t(0));
        let mut out = EffectBuf::new();
        // The dispatch for command 0 is already out; fail and recover
        // another device the routine never touches first.
        m.on_device_down(d(2), t(1), &mut out);
        m.on_device_up(d(2), t(2), &mut out);
        m.on_command_result(RoutineId(1), 0, d(0), true, None, false, t(10), &mut out);
        assert!(out.iter().any(|e| matches!(e, Effect::Committed { .. })));
        let order = m.witness_order();
        assert_eq!(order.len(), 3);
        assert!(order.contains(&OrderItem::Routine(RoutineId(1))));
    }

    #[test]
    fn aborted_routine_vanishes_from_order() {
        let mut m = model();
        submit(&mut m, 1, &[0], t(0));
        let mut out = EffectBuf::new();
        m.on_command_result(RoutineId(1), 0, d(0), false, None, false, t(10), &mut out);
        assert!(out.iter().any(|e| matches!(e, Effect::Aborted { .. })));
        submit(&mut m, 2, &[0], t(11));
        let mut out = EffectBuf::new();
        m.on_command_result(RoutineId(2), 0, d(0), true, None, false, t(20), &mut out);
        assert_eq!(m.witness_order(), vec![OrderItem::Routine(RoutineId(2))]);
    }

    #[test]
    fn rollback_hold_blocks_successor_until_restore_completes() {
        let mut m = model();
        submit(&mut m, 1, &[0, 1], t(0));
        let mut out = EffectBuf::new();
        m.on_command_result(RoutineId(1), 0, d(0), true, None, false, t(10), &mut out);
        out.clear();
        // Device 1 fails in flight → abort, device 0 must be rolled back.
        m.on_command_result(RoutineId(1), 1, d(1), false, None, false, t(20), &mut out);
        assert!(out.iter().any(|e| matches!(e, Effect::Aborted { .. })));
        let out2 = submit(&mut m, 2, &[0], t(21));
        assert!(!started(&out2, 2), "device 0 held for rollback");
        out.clear();
        m.on_command_result(RoutineId(1), 0, d(0), true, None, true, t(25), &mut out);
        assert!(started(&out, 2));
        assert_eq!(m.mirror[&d(0)], Value::OFF);
    }

    #[test]
    fn waiting_routine_skips_queue_when_unblocked_head_exists() {
        let mut m = model();
        submit(&mut m, 1, &[0], t(0));
        let o2 = submit(&mut m, 2, &[0], t(1)); // blocked on device 0
        let o3 = submit(&mut m, 3, &[4], t(2)); // free device: starts now
        assert!(!started(&o2, 2));
        assert!(
            started(&o3, 3),
            "PSV lets non-conflicting routines overtake"
        );
    }
}
