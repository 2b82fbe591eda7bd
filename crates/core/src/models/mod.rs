//! Visibility-model implementations (§2.1, §3).
//!
//! Each model is a state machine behind the [`Model`] trait; the engine
//! wraps exactly one of them. All four share the dispatch-time failure
//! rules (a `Must` command on a believed-down device aborts, a
//! `BestEffort` one is skipped) and differ in concurrency control and in
//! how failure/restart *events* are serialized:
//!
//! | model | concurrency | failure events |
//! |-------|-------------|----------------|
//! | WV    | unrestricted | ignored |
//! | GSV   | one routine at a time | abort the running routine if it touches the device (S-GSV: always) |
//! | PSV   | non-conflicting routines | EV rules with condition 3 replaced by 3* (recheck at finish point) |
//! | EV    | any serializable interleaving | serialize events into the order; abort only mid-use |

pub mod ev;
pub mod gsv;
pub mod psv;
pub mod wv;

use std::collections::{BTreeMap, BTreeSet};

use safehome_types::{DeviceId, RoutineId, Timestamp, Value};

use crate::event::{EffectBuf, TimerId};
use crate::order::OrderNode;
use crate::runtime::RoutineRun;
use safehome_types::trace::OrderItem;

/// Common interface of the four visibility models.
pub trait Model {
    /// A new routine was submitted (id already assigned).
    fn submit(&mut self, run: RoutineRun, now: Timestamp, out: &mut EffectBuf);

    /// A dispatched command (or rollback write) finished.
    #[allow(clippy::too_many_arguments)]
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
    );

    /// The failure detector reported `device` down.
    fn on_device_down(&mut self, device: DeviceId, now: Timestamp, out: &mut EffectBuf);

    /// The failure detector reported `device` up.
    fn on_device_up(&mut self, device: DeviceId, now: Timestamp, out: &mut EffectBuf);

    /// A requested timer fired.
    fn on_timer(&mut self, timer: TimerId, now: Timestamp, out: &mut EffectBuf);

    /// Routines submitted but not yet committed/aborted.
    fn active_count(&self) -> usize;

    /// `true` when nothing is in flight (including pending rollbacks).
    fn quiescent(&self) -> bool;

    /// The witness serialization order (empty for WV).
    fn witness_order(&self) -> Vec<OrderItem>;

    /// Committed device states (last committed routine's effect).
    fn committed_states(&self) -> BTreeMap<DeviceId, Value>;

    /// Approximate heap bytes of the model's containers that grow with
    /// the run's history (order graph, event logs, witness order),
    /// counted by `len`/`capacity` so the cost is independent of the
    /// history's length. Models with no history-sized state report what
    /// they do keep.
    fn approx_bytes(&self) -> usize;

    /// Checks the model's internal invariants (lineage-table invariants
    /// and derived-cache consistency for EV, the order tracker's closure
    /// for EV and PSV). Models without such state have nothing to check.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Approximate heap bytes of a `BTreeMap<K, V>` or `BTreeSet<K>` (`V =
/// ()`) holding `len` entries: the entries themselves, ignoring node
/// slack.
pub(crate) fn tree_bytes<K, V>(len: usize) -> usize {
    len * (std::mem::size_of::<K>() + std::mem::size_of::<V>())
}

/// Approximate heap bytes of a per-device event log (EV and PSV): one
/// step per device, each list counted by capacity.
pub(crate) fn event_log_bytes(log: &BTreeMap<DeviceId, Vec<OrderNode>>) -> usize {
    tree_bytes::<DeviceId, Vec<OrderNode>>(log.len())
        + log
            .values()
            .map(|nodes| nodes.capacity() * std::mem::size_of::<OrderNode>())
            .sum::<usize>()
}

/// The engine's belief about device health, driven purely by detector
/// inputs (`DeviceDown` / `DeviceUp`).
#[derive(Debug, Clone, Default)]
pub struct HealthView {
    down: BTreeSet<DeviceId>,
}

impl HealthView {
    /// Marks a device down. Returns `true` if the belief changed.
    pub fn mark_down(&mut self, d: DeviceId) -> bool {
        self.down.insert(d)
    }

    /// Marks a device up. Returns `true` if the belief changed.
    pub fn mark_up(&mut self, d: DeviceId) -> bool {
        self.down.remove(&d)
    }

    /// `true` if the device is believed up.
    pub fn up(&self, d: DeviceId) -> bool {
        !self.down.contains(&d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_view_tracks_belief() {
        let mut h = HealthView::default();
        let d = DeviceId(1);
        assert!(h.up(d));
        assert!(h.mark_down(d));
        assert!(!h.mark_down(d), "idempotent");
        assert!(!h.up(d));
        assert!(h.mark_up(d));
        assert!(!h.mark_up(d), "idempotent");
        assert!(h.up(d));
    }
}
