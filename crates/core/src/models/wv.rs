//! Weak Visibility: today's best-effort status quo.
//!
//! No locks, no serialization, no failure handling. Every routine starts
//! the moment it is submitted and fires its commands *open-loop*: the
//! next command is dispatched when the previous one's declared duration
//! (plus a nominal pacing gap) has elapsed — the hub does not wait for
//! device acknowledgments, exactly like today's routine engines. With
//! independent network latency per call, concurrent routines race at the
//! devices, which is what produces the incongruent end states of Fig. 1.
//! Failed commands are reported as feedback and never rolled back.

use std::collections::BTreeMap;

use safehome_types::{trace::OrderItem, DeviceId, RoutineId, Timestamp, Value};

use crate::event::{Effect, EffectBuf, TimerId};
use crate::models::{tree_bytes, Model};
use crate::runtime::{RoutineRun, RunTable};

/// The Weak Visibility model.
#[derive(Debug, Default)]
pub struct WvModel {
    runs: RunTable,
    mirror: BTreeMap<DeviceId, Value>,
}

impl WvModel {
    /// Creates the model with the home's initial states.
    pub fn new(initial: &BTreeMap<DeviceId, Value>) -> Self {
        WvModel {
            runs: RunTable::default(),
            mirror: initial.clone(),
        }
    }

    /// Nominal pacing between back-to-back commands (the hub's own
    /// dispatch loop granularity).
    const PACING: safehome_types::TimeDelta = safehome_types::TimeDelta(100);

    /// Dispatches the current command and arms the open-loop pace timer;
    /// completes the routine when no commands remain.
    fn fire_current(&mut self, id: RoutineId, now: Timestamp, out: &mut EffectBuf) {
        let Some(run) = self.runs.get_mut(id) else {
            return;
        };
        let Some(cmd) = run.current().copied() else {
            // All commands fired and paced out: the routine "completes"
            // (WV has no commit semantics; stragglers are ignored).
            self.runs.remove(id);
            out.push(Effect::Committed { routine: id });
            return;
        };
        if run.started.is_none() {
            run.started = Some(now);
            out.push(Effect::Started { routine: id });
        }
        run.note_dispatch(cmd.device);
        out.push(Effect::Dispatch {
            routine: id,
            idx: safehome_types::CmdIdx(run.pc as u16),
            device: cmd.device,
            action: cmd.action,
            duration: cmd.duration,
            rollback: false,
        });
        out.push(Effect::SetTimer {
            timer: TimerId::Pace { routine: id },
            at: now + cmd.duration + Self::PACING,
        });
    }
}

impl Model for WvModel {
    fn submit(&mut self, run: RoutineRun, now: Timestamp, out: &mut EffectBuf) {
        let id = run.id;
        self.runs.insert(run);
        self.fire_current(id, now, out);
    }

    fn on_command_result(
        &mut self,
        routine: RoutineId,
        idx: usize,
        device: DeviceId,
        success: bool,
        observed: Option<Value>,
        rollback: bool,
        _now: Timestamp,
        out: &mut EffectBuf,
    ) {
        debug_assert!(!rollback, "WV never rolls back");
        let _ = observed;
        // Open-loop: results only update the engine's state mirror and
        // surface failures as feedback; pacing is timer-driven.
        if success {
            if let Some(run) = self.runs.get(routine) {
                if let Some(cmd) = run.routine.commands.get(idx) {
                    if let Some(v) = cmd.action.written_value() {
                        self.mirror.insert(device, v);
                    }
                }
            }
        } else {
            out.push(Effect::Feedback {
                routine: Some(routine),
                message: format!("command {idx} on {device} failed; continuing (WV)"),
            });
        }
    }

    fn on_device_down(&mut self, _device: DeviceId, _now: Timestamp, _out: &mut EffectBuf) {
        // WV ignores detector events entirely.
    }

    fn on_device_up(&mut self, _device: DeviceId, _now: Timestamp, _out: &mut EffectBuf) {}

    fn on_timer(&mut self, timer: TimerId, now: Timestamp, out: &mut EffectBuf) {
        if let TimerId::Pace { routine } = timer {
            if let Some(run) = self.runs.get_mut(routine) {
                if run.dispatched {
                    run.dispatched = false;
                    run.completed += 1; // Fired and paced; assumed done.
                    run.pc += 1;
                }
                self.fire_current(routine, now, out);
            }
        }
    }

    fn active_count(&self) -> usize {
        self.runs.len()
    }

    fn quiescent(&self) -> bool {
        self.runs.is_empty()
    }

    fn witness_order(&self) -> Vec<OrderItem> {
        Vec::new() // WV guarantees no serialization.
    }

    fn committed_states(&self) -> BTreeMap<DeviceId, Value> {
        self.mirror.clone()
    }

    fn approx_bytes(&self) -> usize {
        // WV keeps no order and no event log: only the per-device mirror,
        // sized by the home rather than by its history.
        tree_bytes::<DeviceId, Value>(self.mirror.len())
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

    fn model() -> WvModel {
        let init = (0..3).map(|i| (d(i), Value::OFF)).collect();
        WvModel::new(&init)
    }

    fn routine() -> Routine {
        Routine::builder("r")
            .set(d(0), Value::ON, TimeDelta::from_millis(10))
            .set(d(1), Value::ON, TimeDelta::from_millis(10))
            .build()
    }

    #[test]
    fn dispatches_immediately_with_pace_timer() {
        let mut m = model();
        let mut out = EffectBuf::new();
        m.submit(
            RoutineRun::new(RoutineId(1), routine(), t(0)),
            t(0),
            &mut out,
        );
        assert!(matches!(out[0], Effect::Started { .. }));
        assert!(out[1].is_dispatch());
        match out[2] {
            Effect::SetTimer {
                timer: TimerId::Pace { routine },
                at,
            } => {
                assert_eq!(routine, RoutineId(1));
                assert_eq!(at, t(110), "duration 10 + pacing 100");
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pace_timer_fires_next_command_without_ack() {
        let mut m = model();
        let mut out = EffectBuf::new();
        m.submit(
            RoutineRun::new(RoutineId(1), routine(), t(0)),
            t(0),
            &mut out,
        );
        out.clear();
        // No CommandResult arrived — the pace timer still advances.
        m.on_timer(
            TimerId::Pace {
                routine: RoutineId(1),
            },
            t(110),
            &mut out,
        );
        assert!(out.iter().any(|e| matches!(
            e,
            Effect::Dispatch { device, .. } if *device == d(1)
        )));
        out.clear();
        m.on_timer(
            TimerId::Pace {
                routine: RoutineId(1),
            },
            t(220),
            &mut out,
        );
        assert!(matches!(out[0], Effect::Committed { .. }));
        assert!(m.quiescent());
    }

    #[test]
    fn late_acks_update_mirror_only() {
        let mut m = model();
        let mut out = EffectBuf::new();
        m.submit(
            RoutineRun::new(RoutineId(1), routine(), t(0)),
            t(0),
            &mut out,
        );
        out.clear();
        m.on_command_result(RoutineId(1), 0, d(0), true, None, false, t(60), &mut out);
        assert!(out.is_empty(), "acks trigger no dispatches under WV");
        assert_eq!(m.committed_states()[&d(0)], Value::ON);
    }

    #[test]
    fn failed_commands_surface_feedback_but_continue() {
        let mut m = model();
        let mut out = EffectBuf::new();
        m.submit(
            RoutineRun::new(RoutineId(1), routine(), t(0)),
            t(0),
            &mut out,
        );
        out.clear();
        m.on_command_result(RoutineId(1), 0, d(0), false, None, false, t(60), &mut out);
        assert!(matches!(out[0], Effect::Feedback { .. }));
        // The failed write never reached the mirror.
        assert_eq!(m.committed_states()[&d(0)], Value::OFF);
        // Pacing continues regardless.
        out.clear();
        m.on_timer(
            TimerId::Pace {
                routine: RoutineId(1),
            },
            t(110),
            &mut out,
        );
        assert!(out.iter().any(Effect::is_dispatch));
    }

    #[test]
    fn detector_events_are_ignored() {
        let mut m = model();
        let mut out = EffectBuf::new();
        m.submit(
            RoutineRun::new(RoutineId(1), routine(), t(0)),
            t(0),
            &mut out,
        );
        out.clear();
        m.on_device_down(d(0), t(5), &mut out);
        m.on_device_up(d(0), t(6), &mut out);
        assert!(out.is_empty());
        assert_eq!(m.active_count(), 1);
    }

    #[test]
    fn stale_pace_timer_is_ignored() {
        let mut m = model();
        let mut out = EffectBuf::new();
        m.on_timer(
            TimerId::Pace {
                routine: RoutineId(9),
            },
            t(10),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn empty_routine_completes_instantly() {
        let mut m = model();
        let mut out = EffectBuf::new();
        m.submit(
            RoutineRun::new(RoutineId(1), Routine::new("empty", vec![]), t(0)),
            t(0),
            &mut out,
        );
        assert!(matches!(out[0], Effect::Committed { .. }));
        assert!(m.quiescent());
    }
}
