//! The SafeHome engine: one visibility model behind a uniform interface.

use std::collections::{BTreeMap, BTreeSet};

use safehome_types::{
    trace::OrderItem, DeviceId, Error, Result, Routine, RoutineId, Timestamp, Value,
};

use crate::config::{EngineConfig, VisibilityModel};
use crate::event::{EffectBuf, Input};
use crate::models::{ev::EvModel, gsv::GsvModel, psv::PsvModel, wv::WvModel, Model};
use crate::runtime::RoutineRun;

/// The SafeHome engine.
///
/// A pure state machine: [`Engine::submit`] and [`Engine::handle`] consume
/// events and emit [`crate::Effect`]s for the caller to interpret
/// (dispatch commands to devices, arm timers, record lifecycle events).
/// It performs no I/O, which lets the discrete-event harness and the
/// real-time Kasa runner drive the identical engine.
///
/// Both entry points *append* their effects to a caller-owned
/// [`EffectBuf`], so a steady-state event loop runs without per-event
/// allocation: the caller drains the buffer after each call and hands
/// the same storage back for the next one.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeMap;
/// use safehome_core::{EffectBuf, Engine, EngineConfig, VisibilityModel};
/// use safehome_types::{DeviceId, Routine, TimeDelta, Timestamp, Value};
///
/// let initial: BTreeMap<DeviceId, Value> =
///     [(DeviceId(0), Value::OFF)].into_iter().collect();
/// let mut engine = Engine::new(EngineConfig::new(VisibilityModel::ev()), &initial);
/// let routine = Routine::builder("lamp on")
///     .set(DeviceId(0), Value::ON, TimeDelta::from_millis(100))
///     .build();
/// let mut effects = EffectBuf::new();
/// let id = engine.submit(routine, Timestamp::ZERO, &mut effects).unwrap();
/// assert!(effects.iter().any(|e| e.is_dispatch()));
/// # let _ = id;
/// ```
pub struct Engine {
    cfg: EngineConfig,
    model: Box<dyn Model + Send>,
    devices: BTreeSet<DeviceId>,
    next_id: u64,
}

impl Engine {
    /// Creates an engine for a home with the given initial device states.
    pub fn new(cfg: EngineConfig, initial: &BTreeMap<DeviceId, Value>) -> Self {
        let model: Box<dyn Model + Send> = match cfg.model {
            VisibilityModel::Wv => Box::new(WvModel::new(initial)),
            VisibilityModel::Gsv { strong } => Box::new(GsvModel::new(initial, strong)),
            VisibilityModel::Psv => Box::new(PsvModel::new(initial)),
            VisibilityModel::Ev { scheduler } => {
                Box::new(EvModel::new(initial, cfg.clone(), scheduler))
            }
        };
        Engine {
            model,
            devices: initial.keys().copied().collect(),
            next_id: 1,
            cfg,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Submits a routine; assigns and returns its id, appending the
    /// effects to execute to `out`.
    ///
    /// Fails if the routine references a device the home does not contain
    /// (no effects are appended in that case).
    pub fn submit(
        &mut self,
        routine: Routine,
        now: Timestamp,
        out: &mut EffectBuf,
    ) -> Result<RoutineId> {
        for cmd in &routine.commands {
            if !self.devices.contains(&cmd.device) {
                return Err(Error::UnknownDevice(cmd.device));
            }
        }
        let id = RoutineId(self.next_id);
        self.next_id += 1;
        self.model
            .submit(RoutineRun::new(id, routine, now), now, out);
        Ok(id)
    }

    /// Feeds an input event, appending the effects to execute to `out`.
    pub fn handle(&mut self, input: Input, now: Timestamp, out: &mut EffectBuf) {
        match input {
            Input::CommandResult {
                routine,
                idx,
                device,
                success,
                observed,
                rollback,
            } => self.model.on_command_result(
                routine,
                idx.index(),
                device,
                success,
                observed,
                rollback,
                now,
                out,
            ),
            Input::DeviceDown { device } => self.model.on_device_down(device, now, out),
            Input::DeviceUp { device } => self.model.on_device_up(device, now, out),
            Input::Timer { timer } => self.model.on_timer(timer, now, out),
        }
    }

    /// Routines submitted but not yet finished.
    pub fn active_count(&self) -> usize {
        self.model.active_count()
    }

    /// `true` when nothing is in flight (runs and rollbacks all drained).
    pub fn quiescent(&self) -> bool {
        self.model.quiescent()
    }

    /// The witness serialization order (empty for WV).
    pub fn witness_order(&self) -> Vec<OrderItem> {
        self.model.witness_order()
    }

    /// Committed device states.
    pub fn committed_states(&self) -> BTreeMap<DeviceId, Value> {
        self.model.committed_states()
    }

    /// Approximate heap bytes of the engine: the boxed model plus its
    /// history-sized containers as the model reports them (see
    /// `Model::approx_bytes`). Costs a few steps per container, never a
    /// walk over the history.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.model) + self.model.approx_bytes()
    }

    /// Checks the active model's internal invariants — for EV, the §4.3
    /// lineage-table invariants plus derived-cache consistency. Property
    /// tests call this after every event to catch corruption at the
    /// step that introduces it rather than at a later assertion.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        self.model.check_invariants()
    }

    /// [`Engine::check_invariants`] extended with the execution journal's
    /// replay invariants (dense monotone sequence, 3-phase side-effect
    /// ordering — see [`crate::journal::ExecutionJournal::check_invariants`]).
    /// Recovery validates a journal through this before replaying it, so
    /// corrupted or reordered logs are rejected up front.
    pub fn check_invariants_with_journal(
        &self,
        journal: &crate::journal::ExecutionJournal,
    ) -> std::result::Result<(), String> {
        self.check_invariants()?;
        journal.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Effect;
    use safehome_types::{CmdIdx, TimeDelta};

    fn init(n: u32) -> BTreeMap<DeviceId, Value> {
        (0..n).map(|i| (DeviceId(i), Value::OFF)).collect()
    }

    fn lamp_routine() -> Routine {
        Routine::builder("lamp")
            .set(DeviceId(0), Value::ON, TimeDelta::from_millis(100))
            .build()
    }

    #[test]
    fn assigns_monotone_ids() {
        let mut e = Engine::new(EngineConfig::new(VisibilityModel::Wv), &init(1));
        let mut out = EffectBuf::new();
        let id1 = e.submit(lamp_routine(), Timestamp::ZERO, &mut out).unwrap();
        let id2 = e.submit(lamp_routine(), Timestamp::ZERO, &mut out).unwrap();
        assert!(id2 > id1);
    }

    #[test]
    fn rejects_unknown_devices() {
        let mut e = Engine::new(EngineConfig::new(VisibilityModel::ev()), &init(1));
        let bad = Routine::builder("bad")
            .set(DeviceId(7), Value::ON, TimeDelta::ZERO)
            .build();
        let mut out = EffectBuf::new();
        assert_eq!(
            e.submit(bad, Timestamp::ZERO, &mut out).unwrap_err(),
            Error::UnknownDevice(DeviceId(7))
        );
        assert!(out.is_empty(), "no effects on rejection");
        assert_eq!(e.active_count(), 0, "no partial submission");
    }

    #[test]
    fn full_lifecycle_through_handle() {
        for model in [
            VisibilityModel::Wv,
            VisibilityModel::Gsv { strong: false },
            VisibilityModel::Gsv { strong: true },
            VisibilityModel::Psv,
            VisibilityModel::ev(),
        ] {
            let mut e = Engine::new(EngineConfig::new(model), &init(2));
            let mut buf = EffectBuf::new();
            let id = e.submit(lamp_routine(), Timestamp::ZERO, &mut buf).unwrap();
            assert!(buf.iter().any(|f| f.is_dispatch()), "{model:?}");
            assert_eq!(e.active_count(), 1);
            // Drive the engine like a tiny harness: acknowledge the
            // dispatch and fire any requested timers (WV paces by timer).
            let mut pending: Vec<Effect> = std::mem::take(&mut buf).into_vec();
            let mut committed = false;
            let mut acked = false;
            for _ in 0..10 {
                let mut next = Vec::new();
                for eff in pending.drain(..) {
                    match eff {
                        Effect::Dispatch { .. } if !acked => {
                            acked = true;
                            e.handle(
                                Input::CommandResult {
                                    routine: id,
                                    idx: CmdIdx(0),
                                    device: DeviceId(0),
                                    success: true,
                                    observed: None,
                                    rollback: false,
                                },
                                Timestamp::from_millis(100),
                                &mut buf,
                            );
                            next.append(&mut buf);
                        }
                        Effect::SetTimer { timer, at } => {
                            e.handle(Input::Timer { timer }, at, &mut buf);
                            next.append(&mut buf);
                        }
                        Effect::Committed { .. } => committed = true,
                        _ => {}
                    }
                }
                if committed || next.is_empty() {
                    pending = next;
                    if committed {
                        break;
                    }
                    if pending.is_empty() {
                        break;
                    }
                } else {
                    pending = next;
                }
            }
            assert!(committed, "{model:?}");
            assert!(e.quiescent(), "{model:?}");
            assert_eq!(e.committed_states()[&DeviceId(0)], Value::ON, "{model:?}");
        }
    }
}
