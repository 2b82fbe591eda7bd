//! Static conflict prediction: a may-happen-in-parallel approximation.
//!
//! For each submission we compute a *window* — a conservative
//! `[earliest_start, latest_end]` interval that is guaranteed to contain
//! every instant the routine's execution (including rollback writes)
//! touches a device. Two submissions *may* conflict on a device when
//! their windows overlap and their footprints share it.
//!
//! # Soundness argument
//!
//! The engine serializes routines per device, so the time a pending
//! routine can spend waiting is bounded by the total work everyone else
//! can perform. Let `W` be the sum over all submissions of a generous
//! per-routine worst-case execution time (every command's duration plus
//! the maximum actuation latency plus a full failure-detection cycle,
//! doubled to cover rollback, plus one extra detection cycle for the
//! abort itself), and let `D` be the sum of all `After` deferral delays.
//! The *serial bound* `B = W + D + (ping_interval + detect_timeout)`
//! then bounds any routine's wait-plus-execute span: even if the entire
//! workload runs serially ahead of it, it starts and finishes within
//! `B` of its release time. Release times chain through `After` edges
//! (`release(i) = latest(pred) + delay`), so
//! `latest_end(i) = release_latest(i) + B` compounds the bound along the
//! chain — generous, but sound. Everything is capped at
//! [`RunSpec`]`::max_time`, where the driver stops regardless.
//!
//! Rollback writes happen strictly after the forward attempt and are
//! covered by the doubled per-command term inside `W`. Best-effort skips
//! only *remove* activity, so the window over-approximates them too.
//!
//! The dynamic cross-check (`tests/lint_soundness.rs`) asserts, over
//! random workloads and the bundled fleet scenarios, that every
//! runtime-observed overlap was predicted — no false negatives.

use safehome_harness::{Arrival, RunSpec};
use safehome_types::routine::DeviceAccess;
use safehome_types::{DeviceId, Routine, TimeDelta, Timestamp};

/// The static activity window of one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Index into `RunSpec::submissions`.
    pub submission: usize,
    /// No device access attributable to this submission can happen
    /// before this instant.
    pub earliest_start: Timestamp,
    /// ... nor after this one (capped at the run horizon).
    pub latest_end: Timestamp,
}

impl Window {
    /// Closed-interval overlap.
    pub fn overlaps(&self, other: &Window) -> bool {
        self.earliest_start <= other.latest_end && other.earliest_start <= self.latest_end
    }
}

/// How two footprints share a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// Both routines write the device.
    WriteWrite,
    /// One writes, the other only reads.
    ReadWrite,
    /// Both only read. Still a predicted conflict: the engine holds
    /// devices exclusively for reads too (a guarded read can abort).
    ReadRead,
}

/// A statically predicted may-conflict between two submissions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictPrediction {
    /// Lower submission index of the pair.
    pub a: usize,
    /// Higher submission index of the pair.
    pub b: usize,
    /// The shared devices, with how each is shared.
    pub devices: Vec<(DeviceId, AccessKind)>,
}

fn delta_sum(a: TimeDelta, b: TimeDelta) -> TimeDelta {
    TimeDelta(a.0.saturating_add(b.0))
}

/// Generous worst-case wall time for one routine's forward execution
/// plus rollback, independent of everything else in the workload.
fn worst_time(spec: &RunSpec, r: &Routine) -> TimeDelta {
    let per_cmd_overhead = delta_sum(
        spec.latency.max(),
        delta_sum(spec.detect_timeout, spec.ping_interval),
    );
    let mut forward = TimeDelta::ZERO;
    for c in &r.commands {
        forward = delta_sum(forward, delta_sum(c.duration, per_cmd_overhead));
    }
    // Forward + rollback (each undo re-actuates), plus one detection
    // cycle for the abort decision itself.
    delta_sum(
        TimeDelta(forward.0.saturating_mul(2)),
        delta_sum(spec.ping_interval, spec.detect_timeout),
    )
}

/// The serial bound `B`: an upper bound on how long any one submission
/// can wait for the rest of the workload plus execute, from its release.
pub fn serial_bound(spec: &RunSpec) -> TimeDelta {
    let mut b = delta_sum(spec.ping_interval, spec.detect_timeout);
    for s in &spec.submissions {
        b = delta_sum(b, worst_time(spec, &s.routine));
    }
    for s in &spec.submissions {
        if let Arrival::After { delay, .. } = s.arrival {
            b = delta_sum(b, delay);
        }
    }
    b
}

/// Computes every submission's window. Dangling or cyclic `After`
/// chains (already Error diagnostics) collapse to the degenerate
/// `[max_time, max_time]` point — the routine never runs.
pub fn windows(spec: &RunSpec) -> Vec<Window> {
    let n = spec.submissions.len();
    let bound = serial_bound(spec);
    let horizon = spec.max_time;
    let cap = |t: Timestamp| t.min(horizon);

    // release_earliest / release_latest per submission, resolved by
    // chasing the (single) predecessor pointer without recursion.
    #[derive(Clone, Copy)]
    enum State {
        Unresolved,
        InPath,
        Resolved(Timestamp, Timestamp),
    }
    let mut states = vec![State::Unresolved; n];
    for start in 0..n {
        if matches!(states[start], State::Resolved(..)) {
            continue;
        }
        // Walk the predecessor chain to a resolvable base.
        let mut path = Vec::new();
        let mut cur = start;
        let mut base: Option<(Timestamp, Timestamp)> = loop {
            match states[cur] {
                State::Resolved(e, l) => break Some((e, l)),
                State::InPath => break None, // cycle
                State::Unresolved => {
                    states[cur] = State::InPath;
                    path.push(cur);
                    match spec.submissions[cur].arrival {
                        Arrival::At(t) => break Some((t, delta_add(t, bound))),
                        Arrival::After { index, .. } if index >= n => break None, // dangling
                        Arrival::After { index, .. } => cur = index,
                    }
                }
            }
        };
        // Unwind: the last node pushed owns the base; each earlier node
        // adds its own delay (and another serial bound to the latest).
        while let Some(node) = path.pop() {
            let resolved = match (base, spec.submissions[node].arrival) {
                (None, _) => (horizon, horizon),
                (Some((e, l)), Arrival::At(_)) => (e, l),
                (Some((e, l)), Arrival::After { delay, .. }) => {
                    (delta_add(e, delay), delta_add(delta_add(l, delay), bound))
                }
            };
            states[node] = State::Resolved(cap(resolved.0), cap(resolved.1));
            base = base.map(|_| resolved);
        }
    }
    (0..n)
        .map(|i| {
            let (earliest, latest) = match states[i] {
                State::Resolved(e, l) => (cap(e), cap(l)),
                _ => unreachable!("all submissions resolved"),
            };
            Window {
                submission: i,
                earliest_start: earliest,
                latest_end: latest,
            }
        })
        .collect()
}

fn delta_add(t: Timestamp, d: TimeDelta) -> Timestamp {
    t.saturating_add(d)
}

fn shared_kind(a: &DeviceAccess, b: &DeviceAccess) -> AccessKind {
    match (a.is_write(), b.is_write()) {
        (true, true) => AccessKind::WriteWrite,
        (false, false) => AccessKind::ReadRead,
        _ => AccessKind::ReadWrite,
    }
}

#[cfg(test)]
thread_local! {
    /// Submission pairs [`predict`] has evaluated on this thread. Tests
    /// read it to pin which entry points pay for the all-pairs pass.
    pub(crate) static PAIRS_EVALUATED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Predicts every may-conflict pair: shared footprint device plus
/// overlapping windows.
pub fn predict(footprints: &[Vec<DeviceAccess>], windows: &[Window]) -> Vec<ConflictPrediction> {
    let n = footprints.len();
    debug_assert_eq!(n, windows.len());
    let mut out = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            #[cfg(test)]
            PAIRS_EVALUATED.with(|c| c.set(c.get() + 1));
            if !windows[a].overlaps(&windows[b]) {
                continue;
            }
            let mut devices = Vec::new();
            for fa in &footprints[a] {
                if let Some(fb) = footprints[b].iter().find(|fb| fb.device == fa.device) {
                    devices.push((fa.device, shared_kind(fa, fb)));
                }
            }
            if !devices.is_empty() {
                out.push(ConflictPrediction { a, b, devices });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use safehome_core::{EngineConfig, VisibilityModel};
    use safehome_devices::catalog::plug_home;
    use safehome_harness::Submission;
    use safehome_types::{DeviceId, Value};

    fn d(i: u32) -> DeviceId {
        DeviceId(i)
    }

    fn one_cmd(name: &str, dev: DeviceId) -> Routine {
        Routine::builder(name)
            .set(dev, Value::ON, TimeDelta::from_millis(100))
            .build()
    }

    fn spec() -> RunSpec {
        RunSpec::new(plug_home(4), EngineConfig::new(VisibilityModel::ev()))
    }

    #[test]
    fn windows_contain_release_and_cap_at_horizon() {
        let mut s = spec();
        let first = s.submit(Submission::at(one_cmd("a", d(0)), Timestamp::from_secs(5)));
        s.submit(Submission::after(
            one_cmd("b", d(1)),
            first,
            TimeDelta::from_secs(2),
        ));
        let w = windows(&s);
        assert_eq!(w[0].earliest_start, Timestamp::from_secs(5));
        assert!(w[0].latest_end > w[0].earliest_start);
        // b releases no earlier than a's release + delay, and its latest
        // extends past a's.
        assert_eq!(w[1].earliest_start, Timestamp::from_secs(7));
        assert!(w[1].latest_end > w[0].latest_end);
        for win in &w {
            assert!(win.latest_end <= s.max_time);
        }
    }

    #[test]
    fn dangling_and_cyclic_chains_collapse_to_horizon() {
        let mut s = spec();
        s.submit(Submission::after(
            one_cmd("dangling", d(0)),
            9,
            TimeDelta::ZERO,
        ));
        s.submit(Submission::after(one_cmd("self", d(1)), 1, TimeDelta::ZERO));
        let w = windows(&s);
        for win in &w {
            assert_eq!(win.earliest_start, s.max_time);
            assert_eq!(win.latest_end, s.max_time);
        }
    }

    #[test]
    fn overlapping_same_device_submissions_are_predicted() {
        let mut s = spec();
        s.submit(Submission::at(one_cmd("a", d(0)), Timestamp::ZERO));
        s.submit(Submission::at(one_cmd("b", d(0)), Timestamp::ZERO));
        s.submit(Submission::at(one_cmd("c", d(1)), Timestamp::ZERO));
        let preds = predict(&crate::footprints(&s), &windows(&s));
        assert_eq!(preds.len(), 1);
        assert_eq!((preds[0].a, preds[0].b), (0, 1));
        assert_eq!(preds[0].devices, vec![(d(0), AccessKind::WriteWrite)]);
    }

    #[test]
    fn read_write_kinds_are_classified() {
        let mut s = spec();
        s.submit(Submission::at(one_cmd("w", d(0)), Timestamp::ZERO));
        let reader = |name: &str| {
            Routine::builder(name)
                .read(d(0), None, TimeDelta::ZERO)
                .read(d(1), None, TimeDelta::ZERO)
                .build()
        };
        s.submit(Submission::at(reader("r1"), Timestamp::ZERO));
        s.submit(Submission::at(reader("r2"), Timestamp::ZERO));
        let preds = predict(&crate::footprints(&s), &windows(&s));
        let pair = |a, b| preds.iter().find(|p| (p.a, p.b) == (a, b)).unwrap();
        assert_eq!(pair(0, 1).devices, vec![(d(0), AccessKind::ReadWrite)]);
        assert_eq!(
            pair(1, 2).devices,
            vec![(d(0), AccessKind::ReadRead), (d(1), AccessKind::ReadRead)]
        );
    }

    #[test]
    fn far_apart_clusters_are_pruned() {
        // Two clusters of 1-command routines separated by a day: the
        // serial bound is a few seconds, so cross-cluster pairs must be
        // pruned even though they share a device.
        let mut s = spec();
        s.submit(Submission::at(one_cmd("a1", d(0)), Timestamp::ZERO));
        s.submit(Submission::at(one_cmd("a2", d(0)), Timestamp::ZERO));
        let day = Timestamp::from_secs(86_400);
        s.submit(Submission::at(one_cmd("b1", d(0)), day));
        s.submit(Submission::at(one_cmd("b2", d(0)), day));
        assert!(serial_bound(&s) < TimeDelta::from_secs(60));
        let preds = predict(&crate::footprints(&s), &windows(&s));
        let pairs: Vec<_> = preds.iter().map(|p| (p.a, p.b)).collect();
        assert_eq!(pairs, vec![(0, 1), (2, 3)], "no cross-cluster pairs");
    }
}
