//! safehome-lint: static routine/workload analyzer.
//!
//! Analyzes a [`Home`] catalog plus a [`RunSpec`] *without executing
//! anything*: no engine, no RNG draws, no trace. Three products:
//!
//! 1. **Footprints** — per-routine read/write summaries
//!    ([`safehome_types::DeviceAccess`], computed by
//!    [`safehome_types::Routine::footprint`]): which devices each
//!    routine touches, how (guarded reads, best-effort writes,
//!    irreversible writes, handler undos), and the final written value.
//! 2. **Conflict prediction** ([`conflict`]) — a may-happen-in-parallel
//!    approximation: conservative activity [`Window`]s per submission
//!    (release time plus a serial bound covering worst-case waiting,
//!    execution, rollback and failure detection), intersected with
//!    shared footprint devices.
//! 3. **Hazards** ([`rules`]) — typed [`Diagnostic`]s with severity and
//!    span: malformed specs (unknown devices, dangling/cyclic `After`
//!    chains) at Error, semantic smells (irreversible-after-fallible,
//!    best-effort ordering, duplicate/contradictory writes,
//!    failure-plan mismatches) at Warning.
//!
//! The analysis is *sound for conflicts*: every conflict the runtime can
//! observe is predicted (`tests/lint_soundness.rs` cross-checks this
//! dynamically over random workloads via [`observed`]). It is
//! deliberately incomplete — predicted conflicts may never materialize
//! on any given seed.
//!
//! Entry points: [`analyze`] / [`analyze_spec`] return the full
//! [`LintReport`]; [`check`] is the harness gate (`Err` on any
//! Error-severity diagnostic) for
//! `safehome_harness::fleet::run_fleet_gated` and the intra-home
//! [`cluster::plan`]; a single home is gated by calling it before
//! `safehome_harness::sim::Driver::with_sink`. The gate runs footprints
//! plus the rule catalog only, never windows or conflict pairs, so its
//! cost is linear in the spec's commands. The prediction evaluates all
//! n(n−1)/2 submission pairs (18M for a 6,000-routine workshop, ~2.1M of
//! them kept) and runs only for callers that read the [`LintReport`]. Linting a spec never
//! perturbs its execution: gates only read the spec, so per-home digests
//! are byte-identical with and without the lint hook.

pub mod cluster;
pub mod conflict;
pub mod observed;
pub mod rules;

use safehome_devices::Home;
use safehome_harness::RunSpec;
use safehome_types::routine::DeviceAccess;
use safehome_types::DeviceId;

pub use cluster::{partition, plan, planner};
pub use conflict::{serial_bound, windows, AccessKind, ConflictPrediction, Window};
pub use observed::{activity_intervals, observed_conflicts, submission_indices, ObservedConflict};
pub use rules::{Diagnostic, RuleId, Severity, Span};

/// Everything the analyzer derives from one spec.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// `footprints[i]` summarizes `spec.submissions[i].routine`.
    pub footprints: Vec<Vec<DeviceAccess>>,
    /// Static activity window per submission.
    pub windows: Vec<Window>,
    /// Predicted may-conflict pairs.
    pub conflicts: Vec<ConflictPrediction>,
    /// Hazard diagnostics, in rule-catalog order per submission.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// The worst severity present, `None` when hazard-clean.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// `true` when no diagnostic reaches `deny`.
    pub fn is_clean(&self, deny: Severity) -> bool {
        self.max_severity().is_none_or(|worst| worst < deny)
    }

    /// Order-insensitive lookup: was a conflict between submissions
    /// `a` and `b` on `device` predicted?
    pub fn predicts_conflict(&self, a: usize, b: usize, device: DeviceId) -> bool {
        let (lo, hi) = (a.min(b), a.max(b));
        self.conflicts
            .iter()
            .any(|c| c.a == lo && c.b == hi && c.devices.iter().any(|(d, _)| *d == device))
    }
}

/// Every submission's footprint, in submission order: the input
/// [`rules::run`] takes, shared by [`analyze`] and [`check`].
pub(crate) fn footprints(spec: &RunSpec) -> Vec<Vec<DeviceAccess>> {
    spec.submissions
        .iter()
        .map(|s| s.routine.footprint())
        .collect()
}

/// Runs the full static analysis: footprints, windows, conflict
/// prediction, and the hazard rule catalog.
pub fn analyze(home: &Home, spec: &RunSpec) -> LintReport {
    let footprints = footprints(spec);
    let windows = conflict::windows(spec);
    let conflicts = conflict::predict(&footprints, &windows);
    let diagnostics = rules::run(home, spec, &footprints);
    LintReport {
        footprints,
        windows,
        conflicts,
        diagnostics,
    }
}

/// [`analyze`] against the spec's own home catalog.
pub fn analyze_spec(spec: &RunSpec) -> LintReport {
    analyze(&spec.home, spec)
}

/// The harness gate: rejects specs carrying Error-severity diagnostics,
/// rendering each offending diagnostic into the message. Warnings pass —
/// they are the lint bin's and CI's business, not the runtime's.
///
/// It computes footprints and runs the rule catalog once, as
/// [`analyze_spec`] does, and never builds windows or conflict pairs:
/// no rule reads them. So it returns what filtering [`analyze_spec`]'s
/// diagnostics would, at about one pass over the spec's commands
/// instead of one per pair of submissions.
pub fn check(spec: &RunSpec) -> Result<(), String> {
    let errors: Vec<String> = rules::run(&spec.home, spec, &footprints(spec))
        .iter()
        .filter(|d| d.severity >= Severity::Error)
        .map(|d| d.to_string())
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!("lint rejected spec: {}", errors.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safehome_core::{EngineConfig, VisibilityModel};
    use safehome_devices::catalog::plug_home;
    use safehome_harness::Submission;
    use safehome_types::{Routine, TimeDelta, Timestamp, Value};

    fn d(i: u32) -> DeviceId {
        DeviceId(i)
    }

    #[test]
    fn analyze_assembles_all_products() {
        let mut spec = RunSpec::new(plug_home(2), EngineConfig::new(VisibilityModel::ev()));
        let shared = |name: &str| {
            Routine::builder(name)
                .set(d(0), Value::ON, TimeDelta::from_millis(100))
                .build()
        };
        spec.submit(Submission::at(shared("a"), Timestamp::ZERO));
        spec.submit(Submission::at(shared("b"), Timestamp::ZERO));
        let report = analyze_spec(&spec);
        assert_eq!(report.footprints.len(), 2);
        assert_eq!(report.windows.len(), 2);
        assert!(report.predicts_conflict(1, 0, d(0)), "order-insensitive");
        assert!(!report.predicts_conflict(0, 1, d(1)));
        assert!(report.diagnostics.is_empty());
        assert!(report.is_clean(Severity::Warning));
        assert_eq!(report.max_severity(), None);
    }

    #[test]
    fn check_rejects_only_errors() {
        let mut bad = RunSpec::new(plug_home(1), EngineConfig::new(VisibilityModel::ev()));
        bad.submit(Submission::at(
            Routine::builder("bad")
                .set(d(7), Value::ON, TimeDelta::ZERO)
                .build(),
            Timestamp::ZERO,
        ));
        let err = check(&bad).unwrap_err();
        assert!(err.contains("unknown-device"), "{err}");

        let mut warn = RunSpec::new(plug_home(1), EngineConfig::new(VisibilityModel::ev()));
        warn.submit(Submission::at(
            Routine::new("noop", Vec::new()),
            Timestamp::ZERO,
        ));
        let report = analyze_spec(&warn);
        assert_eq!(report.max_severity(), Some(Severity::Warning));
        assert!(check(&warn).is_ok(), "warnings pass the gate");
        assert!(!report.is_clean(Severity::Warning));
        assert!(report.is_clean(Severity::Error));
    }

    #[test]
    fn gate_and_planner_evaluate_no_conflict_pair() {
        // Six zones of 200 routines, fixed latency and no failure plan:
        // decomposable, clean, and one cluster per zone.
        let zones = safehome_workloads::ZoneParams::new(6, TimeDelta::from_mins(10), 200);
        let spec = safehome_workloads::zoned_home(
            EngineConfig::new(VisibilityModel::ev()),
            &zones,
            safehome_harness::home_seed(18, 0),
        );
        let pairs = || conflict::PAIRS_EVALUATED.with(|c| c.get());
        let before = pairs();
        assert_eq!(check(&spec), Ok(()));
        let split = cluster::plan(&spec).expect("six disjoint zones split");
        let by_zone: Vec<Vec<usize>> = (0..6).map(|z| (z * 200..(z + 1) * 200).collect()).collect();
        assert_eq!(split.clusters, by_zone);
        assert_eq!(
            pairs() - before,
            0,
            "the gate and the planner predict no pair"
        );

        analyze_spec(&spec);
        let n = spec.submissions.len() as u64;
        assert_eq!(
            pairs() - before,
            n * (n - 1) / 2,
            "the full report predicts all pairs"
        );
    }

    #[test]
    fn bundled_morning_scenario_is_hazard_clean() {
        // The base morning workload (healthy home) must lint clean; the
        // jittered fleet variants carry an expected-diagnostic
        // annotation instead (see safehome-workloads).
        let spec = safehome_workloads::morning(EngineConfig::new(VisibilityModel::ev()), 7);
        let report = analyze_spec(&spec);
        assert!(
            report.diagnostics.is_empty(),
            "morning should be hazard-clean: {:?}",
            report.diagnostics
        );
        assert!(!report.conflicts.is_empty(), "morning routines contend");
    }
}
