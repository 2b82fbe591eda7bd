//! Global Strict Visibility: at most one routine at a time (§2.1).
//!
//! Routines queue FIFO and execute one by one, so the user experiences a
//! fully serial home ("congruent at all times"). Failure handling (§3):
//! any failure or restart event detected while a routine executes aborts
//! it — if the routine touches the device (loose GSV) or unconditionally
//! (S-GSV). The next routine starts only after the aborted routine's
//! rollback writes have completed, preserving at-all-times congruence.

use std::collections::{BTreeMap, VecDeque};

use safehome_types::{
    trace::AbortReason, trace::OrderItem, CmdIdx, DeviceId, RoutineId, Timestamp, Value,
};

use crate::event::{Effect, EffectBuf, TimerId};
use crate::models::{HealthView, Model};
use crate::runtime::{failure_aborts, guard_passes, plan_rollback, RoutineRun, RunTable};

/// The GSV / S-GSV model.
#[derive(Debug)]
pub struct GsvModel {
    strong: bool,
    runs: RunTable,
    queue: VecDeque<RoutineId>,
    current: Option<RoutineId>,
    committed: BTreeMap<DeviceId, Value>,
    /// Engine-side belief of actual device states (from completions).
    mirror: BTreeMap<DeviceId, Value>,
    health: HealthView,
    order: Vec<OrderItem>,
    /// Outstanding rollback dispatches: (routine, device) → planned value.
    outstanding_rollbacks: BTreeMap<(RoutineId, DeviceId), Value>,
}

impl GsvModel {
    /// Creates the model. `strong` selects S-GSV.
    pub fn new(initial: &BTreeMap<DeviceId, Value>, strong: bool) -> Self {
        GsvModel {
            strong,
            runs: RunTable::default(),
            queue: VecDeque::new(),
            current: None,
            committed: initial.clone(),
            mirror: initial.clone(),
            health: HealthView::default(),
            order: Vec::new(),
            outstanding_rollbacks: BTreeMap::new(),
        }
    }

    /// Starts queued routines while the home is free and rollbacks drained.
    fn pump(&mut self, now: Timestamp, out: &mut EffectBuf) {
        while self.current.is_none() && self.outstanding_rollbacks.is_empty() {
            let Some(id) = self.queue.pop_front() else {
                return;
            };
            self.current = Some(id);
            if let Some(run) = self.runs.get_mut(id) {
                run.started = Some(now);
            }
            out.push(Effect::Started { routine: id });
            self.advance(id, now, out);
        }
    }

    /// Dispatches the current command, skipping best-effort commands on
    /// believed-down devices; commits when no commands remain.
    fn advance(&mut self, id: RoutineId, now: Timestamp, out: &mut EffectBuf) {
        loop {
            let Some(run) = self.runs.get_mut(id) else {
                return;
            };
            let Some(cmd) = run.current().copied() else {
                self.commit(id, now, out);
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
                } else {
                    out.push(Effect::BestEffortSkipped {
                        routine: id,
                        idx: CmdIdx(run.pc as u16),
                        device: cmd.device,
                    });
                    run.pc += 1;
                    continue;
                }
                return;
            }
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

    fn commit(&mut self, id: RoutineId, now: Timestamp, out: &mut EffectBuf) {
        let run = self.runs.remove(id).expect("committing unknown routine");
        for (d, v) in run.committed_writes() {
            self.committed.insert(d, v);
        }
        self.order.push(OrderItem::Routine(id));
        self.current = None;
        out.push(Effect::Committed { routine: id });
        self.pump(now, out);
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
        self.current = None;
        self.pump(now, out);
    }

    /// Shared failure/restart reaction: abort the running routine when the
    /// model's rule says so.
    fn on_detector_event(&mut self, device: DeviceId, now: Timestamp, out: &mut EffectBuf) {
        let Some(id) = self.current else { return };
        let touches = self.runs.get(id).map(|r| r.uses(device)).unwrap_or(false);
        if self.strong || touches {
            self.abort(id, AbortReason::FailureSerialization { device }, now, out);
        }
    }
}

impl Model for GsvModel {
    fn submit(&mut self, run: RoutineRun, now: Timestamp, out: &mut EffectBuf) {
        let id = run.id;
        self.runs.insert(run);
        self.queue.push_back(id);
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
            if let Some(v) = self.outstanding_rollbacks.remove(&(routine, device)) {
                if success {
                    self.mirror.insert(device, v);
                } else {
                    out.push(Effect::Feedback {
                        routine: Some(routine),
                        message: format!("rollback of {device} failed (device down)"),
                    });
                }
                self.pump(now, out);
            }
            return;
        }
        let Some(run) = self.runs.get_mut(routine) else {
            return; // Stale result for an aborted routine.
        };
        if self.current != Some(routine) || run.pc != idx || !run.dispatched {
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
        self.order.push(OrderItem::Failure(device));
        self.on_detector_event(device, now, out);
    }

    fn on_device_up(&mut self, device: DeviceId, now: Timestamp, out: &mut EffectBuf) {
        self.health.mark_up(device);
        self.order.push(OrderItem::Restart(device));
        // Restart events also abort under GSV (§3: "any device failure
        // event or restart event ... while a routine is executing").
        self.on_detector_event(device, now, out);
    }

    fn on_timer(&mut self, _timer: TimerId, _now: Timestamp, _out: &mut EffectBuf) {}

    fn active_count(&self) -> usize {
        self.runs.len()
    }

    fn quiescent(&self) -> bool {
        self.runs.is_empty() && self.outstanding_rollbacks.is_empty()
    }

    fn witness_order(&self) -> Vec<OrderItem> {
        self.order.clone()
    }

    fn committed_states(&self) -> BTreeMap<DeviceId, Value> {
        self.committed.clone()
    }

    fn approx_bytes(&self) -> usize {
        self.order.capacity() * std::mem::size_of::<OrderItem>()
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

    fn model(strong: bool) -> GsvModel {
        let init = (0..4).map(|i| (d(i), Value::OFF)).collect();
        GsvModel::new(&init, strong)
    }

    fn routine(devs: &[u32]) -> Routine {
        let mut b = Routine::builder("r");
        for &i in devs {
            b = b.set(d(i), Value::ON, TimeDelta::from_millis(10));
        }
        b.build()
    }

    fn submit(m: &mut GsvModel, id: u64, devs: &[u32], now: Timestamp) -> Vec<Effect> {
        let mut out = EffectBuf::new();
        m.submit(
            RoutineRun::new(RoutineId(id), routine(devs), now),
            now,
            &mut out,
        );
        out.into_vec()
    }

    #[test]
    fn second_routine_waits_for_first() {
        let mut m = model(false);
        let out1 = submit(&mut m, 1, &[0], t(0));
        assert!(out1
            .iter()
            .any(|e| matches!(e, Effect::Started { routine } if routine.0 == 1)));
        // Disjoint devices — GSV still serializes.
        let out2 = submit(&mut m, 2, &[1], t(1));
        assert!(out2.is_empty(), "no Started/Dispatch while home is busy");
        let mut out = EffectBuf::new();
        m.on_command_result(RoutineId(1), 0, d(0), true, None, false, t(10), &mut out);
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::Committed { routine } if routine.0 == 1)));
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::Started { routine } if routine.0 == 2)));
    }

    #[test]
    fn commits_update_committed_states_and_order() {
        let mut m = model(false);
        submit(&mut m, 1, &[0, 1], t(0));
        let mut out = EffectBuf::new();
        m.on_command_result(RoutineId(1), 0, d(0), true, None, false, t(10), &mut out);
        m.on_command_result(RoutineId(1), 1, d(1), true, None, false, t(20), &mut out);
        assert_eq!(m.committed_states()[&d(0)], Value::ON);
        assert_eq!(m.witness_order(), vec![OrderItem::Routine(RoutineId(1))]);
        assert!(m.quiescent());
    }

    #[test]
    fn loose_gsv_aborts_only_touching_routines() {
        let mut m = model(false);
        submit(&mut m, 1, &[0, 1], t(0));
        let mut out = EffectBuf::new();
        // Failure of an untouched device: routine survives.
        m.on_device_down(d(3), t(5), &mut out);
        assert!(!out.iter().any(|e| matches!(e, Effect::Aborted { .. })));
        // Failure of a touched device: abort.
        m.on_device_down(d(1), t(6), &mut out);
        assert!(out.iter().any(|e| matches!(e, Effect::Aborted { .. })));
        // Both failure events appear in the serialization order.
        assert_eq!(
            m.witness_order(),
            vec![OrderItem::Failure(d(3)), OrderItem::Failure(d(1))]
        );
    }

    #[test]
    fn strong_gsv_aborts_on_any_failure() {
        let mut m = model(true);
        submit(&mut m, 1, &[0, 1], t(0));
        let mut out = EffectBuf::new();
        m.on_device_down(d(3), t(5), &mut out);
        assert!(out.iter().any(
            |e| matches!(e, Effect::Aborted { reason: AbortReason::FailureSerialization { device }, .. } if *device == d(3))
        ));
    }

    #[test]
    fn restart_events_abort_too() {
        let mut m = model(false);
        let mut out = EffectBuf::new();
        m.on_device_down(d(0), t(0), &mut out); // before any routine: no abort
        m.on_device_up(d(0), t(1), &mut out);
        assert!(out.is_empty() || !out.iter().any(|e| matches!(e, Effect::Aborted { .. })));
        submit(&mut m, 1, &[0], t(2));
        out.clear();
        m.on_device_up(d(0), t(3), &mut out); // restart mid-execution
        assert!(out.iter().any(|e| matches!(e, Effect::Aborted { .. })));
    }

    #[test]
    fn abort_rolls_back_and_defers_next_routine() {
        let mut m = model(false);
        submit(&mut m, 1, &[0, 1], t(0));
        let mut out = EffectBuf::new();
        m.on_command_result(RoutineId(1), 0, d(0), true, None, false, t(10), &mut out);
        submit(&mut m, 2, &[2], t(11));
        out.clear();
        // Device 1's command fails in flight.
        m.on_command_result(RoutineId(1), 1, d(1), false, None, false, t(20), &mut out);
        let abort = out
            .iter()
            .find(|e| matches!(e, Effect::Aborted { .. }))
            .expect("abort effect");
        match abort {
            Effect::Aborted {
                executed,
                rolled_back,
                ..
            } => {
                assert_eq!(*executed, 1);
                assert_eq!(*rolled_back, 1, "device 0's ON is rolled back");
            }
            _ => unreachable!(),
        }
        // Routine 2 must NOT start until the rollback completes.
        assert!(!out
            .iter()
            .any(|e| matches!(e, Effect::Started { routine } if routine.0 == 2)));
        out.clear();
        m.on_command_result(RoutineId(1), 0, d(0), true, None, true, t(25), &mut out);
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::Started { routine } if routine.0 == 2)));
        assert_eq!(m.mirror[&d(0)], Value::OFF, "mirror reflects rollback");
    }

    #[test]
    fn best_effort_on_down_device_is_skipped() {
        let mut m = model(false);
        let r = Routine::builder("be")
            .set_best_effort(d(0), Value::ON, TimeDelta::from_millis(10))
            .set(d(1), Value::ON, TimeDelta::from_millis(10))
            .build();
        let mut out = EffectBuf::new();
        m.health.mark_down(d(0));
        m.submit(RoutineRun::new(RoutineId(1), r, t(0)), t(0), &mut out);
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::BestEffortSkipped { .. })));
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::Dispatch { device, .. } if *device == d(1))));
    }

    #[test]
    fn must_on_down_device_aborts() {
        let mut m = model(false);
        let mut out = EffectBuf::new();
        m.health.mark_down(d(0));
        m.submit(
            RoutineRun::new(RoutineId(1), routine(&[0]), t(0)),
            t(0),
            &mut out,
        );
        assert!(out.iter().any(|e| matches!(
            e,
            Effect::Aborted { reason: AbortReason::MustCommandFailed { device }, .. } if *device == d(0)
        )));
        assert!(m.quiescent());
    }
}
