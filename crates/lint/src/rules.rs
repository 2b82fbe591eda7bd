//! The hazard rule catalog: typed diagnostics over a [`RunSpec`].
//!
//! Each rule is purely syntactic/structural — no execution, no RNG. The
//! catalog is tuned so the bundled scenarios lint clean in their healthy
//! configurations; the one diagnostic the jittered fleet scenarios *can*
//! produce (`irreversible-after-fallible-must` on `water_garden` when a
//! home's random failure plan draws the sprinkler) is carried as an
//! expected-diagnostic annotation in `safehome-workloads`.

use safehome_devices::{DeviceKind, Home};
use safehome_harness::{Arrival, RunSpec};
use safehome_types::routine::DeviceAccess;
use safehome_types::{Action, Command, DeviceId, Priority, TimeDelta, UndoPolicy};

/// How bad a diagnostic is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never gates anything.
    Info,
    /// A smell: the spec runs, but probably not as intended.
    Warning,
    /// Malformed: the runtime would panic, hang, or never release a
    /// deferral. Error-severity specs are rejected by the harness gates.
    Error,
}

impl Severity {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The rule catalog. Each variant is one check with a fixed severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// A command targets a device index outside the home catalog
    /// (the driver would panic on submission).
    UnknownDevice,
    /// The failure plan injects on a device outside the home catalog.
    UnknownFailureDevice,
    /// An `After` arrival references a submission index that does not
    /// exist; the deferral can never release.
    DanglingAfter,
    /// The `After` dependency graph has a cycle (self-loops included):
    /// every submission on the cycle waits forever.
    AfterCycle,
    /// A routine with no commands: it commits vacuously and only adds
    /// noise to the serialization order.
    EmptyRoutine,
    /// Two consecutive writes of the same value to the same device; the
    /// second is a no-op.
    DuplicateWrite,
    /// Two consecutive writes of different values to the same device
    /// where the first has zero duration: its effect is overwritten the
    /// instant it lands.
    ContradictoryWrite,
    /// An irreversible write followed by a fallible `Must` command (a
    /// guarded read, or a command on a device the failure plan touches):
    /// an abort after the irreversible write cannot roll it back.
    IrreversibleAfterFallibleMust,
    /// A write that looks physically irreversible (activating a
    /// sprinkler) but carries the reversible default undo policy —
    /// specs should opt in via `set_irreversible`.
    ImplicitIrreversible,
    /// A best-effort write followed by a later `Must` command on the
    /// same device: skipping the best-effort step changes what the
    /// `Must` step observes or undoes.
    BestEffortOrdering,
    /// The failure plan injects on a catalog device no routine touches;
    /// the injection cannot affect any routine outcome.
    FailurePlanMismatch,
}

impl RuleId {
    /// Every rule, in catalog order.
    pub const ALL: [RuleId; 11] = [
        RuleId::UnknownDevice,
        RuleId::UnknownFailureDevice,
        RuleId::DanglingAfter,
        RuleId::AfterCycle,
        RuleId::EmptyRoutine,
        RuleId::DuplicateWrite,
        RuleId::ContradictoryWrite,
        RuleId::IrreversibleAfterFallibleMust,
        RuleId::ImplicitIrreversible,
        RuleId::BestEffortOrdering,
        RuleId::FailurePlanMismatch,
    ];

    /// Stable kebab-case identifier (what annotations and CLI output use).
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::UnknownDevice => "unknown-device",
            RuleId::UnknownFailureDevice => "unknown-failure-device",
            RuleId::DanglingAfter => "dangling-after",
            RuleId::AfterCycle => "after-cycle",
            RuleId::EmptyRoutine => "empty-routine",
            RuleId::DuplicateWrite => "duplicate-write",
            RuleId::ContradictoryWrite => "contradictory-write",
            RuleId::IrreversibleAfterFallibleMust => "irreversible-after-fallible-must",
            RuleId::ImplicitIrreversible => "implicit-irreversible",
            RuleId::BestEffortOrdering => "best-effort-ordering",
            RuleId::FailurePlanMismatch => "failure-plan-mismatch",
        }
    }

    /// The rule's fixed severity.
    pub fn severity(self) -> Severity {
        match self {
            RuleId::UnknownDevice
            | RuleId::UnknownFailureDevice
            | RuleId::DanglingAfter
            | RuleId::AfterCycle => Severity::Error,
            RuleId::EmptyRoutine
            | RuleId::DuplicateWrite
            | RuleId::ContradictoryWrite
            | RuleId::IrreversibleAfterFallibleMust
            | RuleId::ImplicitIrreversible
            | RuleId::BestEffortOrdering
            | RuleId::FailurePlanMismatch => Severity::Warning,
        }
    }
}

/// Where a diagnostic points. All fields optional: a failure-plan
/// diagnostic has no submission, a routine-shape diagnostic has no
/// specific command, and so on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// Index into `RunSpec::submissions`.
    pub submission: Option<usize>,
    /// Routine name (for human-readable output).
    pub routine: Option<String>,
    /// Command index within the routine.
    pub command: Option<usize>,
    /// The device involved.
    pub device: Option<DeviceId>,
}

/// One diagnostic: a rule hit at a span with a rendered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// The rule's severity (duplicated for convenience).
    pub severity: Severity,
    /// Where.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    fn new(rule: RuleId, span: Span, message: String) -> Self {
        Diagnostic {
            rule,
            severity: rule.severity(),
            span,
            message,
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.severity.as_str(), self.rule.as_str())?;
        if let Some(s) = self.span.submission {
            write!(f, " submission {s}")?;
        }
        if let Some(r) = &self.span.routine {
            write!(f, " ({r})")?;
        }
        if let Some(c) = self.span.command {
            write!(f, " cmd {c}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// `true` when a `Must` command can fail at runtime: a guarded read can
/// observe the wrong value, and any command on a device the failure plan
/// touches can time out or hit a failure-serialization abort.
fn is_fallible_must(spec: &RunSpec, c: &Command) -> bool {
    if c.priority != Priority::Must {
        return false;
    }
    match c.action {
        Action::Read { expect } => expect.is_some() || spec.failures.involves(c.device),
        Action::Set(_) => spec.failures.involves(c.device),
    }
}

/// Runs the whole catalog. `footprints[i]` must be
/// `spec.submissions[i].routine.footprint()`.
pub fn run(home: &Home, spec: &RunSpec, footprints: &[Vec<DeviceAccess>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, sub) in spec.submissions.iter().enumerate() {
        check_routine(
            home,
            spec,
            i,
            &sub.routine.name,
            &sub.routine.commands,
            &mut out,
        );
    }
    check_arrivals(spec, &mut out);
    check_failure_plan(home, spec, footprints, &mut out);
    out
}

fn check_routine(
    home: &Home,
    spec: &RunSpec,
    i: usize,
    name: &str,
    commands: &[Command],
    out: &mut Vec<Diagnostic>,
) {
    let span = |command: Option<usize>, device: Option<DeviceId>| Span {
        submission: Some(i),
        routine: Some(name.to_string()),
        command,
        device,
    };
    if commands.is_empty() {
        out.push(Diagnostic::new(
            RuleId::EmptyRoutine,
            span(None, None),
            "routine has no commands; it commits vacuously".into(),
        ));
        return;
    }
    for (ci, c) in commands.iter().enumerate() {
        if home.get(c.device).is_err() {
            out.push(Diagnostic::new(
                RuleId::UnknownDevice,
                span(Some(ci), Some(c.device)),
                format!(
                    "device {:?} is not in the {}-device catalog; submission would panic",
                    c.device,
                    home.len()
                ),
            ));
            continue;
        }
        // Sprinklers are the catalog's "physically irreversible when
        // activated" kind (water already sprayed): an activation built
        // with the reversible default is almost certainly a spec that
        // forgot `set_irreversible`. Deactivations are genuinely
        // reversible and stay clean.
        let kind = home.get(c.device).expect("checked above").kind;
        if kind == DeviceKind::Sprinkler
            && c.action.written_value() == Some(safehome_types::Value::ON)
            && c.undo == UndoPolicy::RestorePrevious
        {
            out.push(Diagnostic::new(
                RuleId::ImplicitIrreversible,
                span(Some(ci), Some(c.device)),
                format!(
                    "activating sprinkler '{}' with the reversible default undo policy; \
                     use set_irreversible to make the intent explicit",
                    home.name(c.device)
                ),
            ));
        }
    }
    for (ci, pair) in commands.windows(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        if a.device != b.device || !a.action.is_write() || !b.action.is_write() {
            continue;
        }
        if a.action.written_value() == b.action.written_value() {
            out.push(Diagnostic::new(
                RuleId::DuplicateWrite,
                span(Some(ci + 1), Some(a.device)),
                format!(
                    "consecutive writes of {:?} to '{}'; the second is a no-op",
                    a.action.written_value().expect("is_write"),
                    home.name(a.device)
                ),
            ));
        } else if a.duration == TimeDelta::ZERO {
            out.push(Diagnostic::new(
                RuleId::ContradictoryWrite,
                span(Some(ci), Some(a.device)),
                format!(
                    "zero-duration write of {:?} to '{}' is immediately overwritten by {:?}",
                    a.action.written_value().expect("is_write"),
                    home.name(a.device),
                    b.action.written_value().expect("is_write"),
                ),
            ));
        }
    }
    // Best-effort write at k, then a later Must command on the same
    // device: a runtime skip of the best-effort step changes what the
    // Must step observes (reads) or what its rollback restores (writes).
    for (ci, c) in commands.iter().enumerate() {
        if c.priority != Priority::BestEffort || !c.action.is_write() {
            continue;
        }
        if let Some(later) = commands
            .iter()
            .enumerate()
            .skip(ci + 1)
            .find(|(_, l)| l.device == c.device && l.priority == Priority::Must)
        {
            out.push(Diagnostic::new(
                RuleId::BestEffortOrdering,
                span(Some(ci), Some(c.device)),
                format!(
                    "best-effort write to '{}' precedes a must command on it (cmd {}); \
                     a skip changes what the must command sees",
                    home.name(c.device),
                    later.0
                ),
            ));
        }
    }
    // Irreversible write at k, then a fallible Must later: the abort's
    // rollback can restore state but not the physical effect.
    if let Some((ik, irr)) = commands
        .iter()
        .enumerate()
        .find(|(_, c)| c.is_irreversible())
    {
        if let Some((fk, f)) = commands
            .iter()
            .enumerate()
            .skip(ik + 1)
            .find(|(_, c)| is_fallible_must(spec, c))
        {
            out.push(Diagnostic::new(
                RuleId::IrreversibleAfterFallibleMust,
                span(Some(ik), Some(irr.device)),
                format!(
                    "irreversible write to '{}' precedes fallible must command {} on '{}'; \
                     an abort there cannot undo the physical effect",
                    home.name(irr.device),
                    fk,
                    home.name(f.device)
                ),
            ));
        }
    }
}

fn check_arrivals(spec: &RunSpec, out: &mut Vec<Diagnostic>) {
    let n = spec.submissions.len();
    let span = |i: usize| Span {
        submission: Some(i),
        routine: Some(spec.submissions[i].routine.name.clone()),
        command: None,
        device: None,
    };
    // Dangling predecessors first; dangling edges are excluded from the
    // cycle walk (they already got an Error).
    let pred: Vec<Option<usize>> = spec
        .submissions
        .iter()
        .enumerate()
        .map(|(i, s)| match s.arrival {
            Arrival::At(_) => None,
            Arrival::After { index, .. } => {
                if index >= n {
                    out.push(Diagnostic::new(
                        RuleId::DanglingAfter,
                        span(i),
                        format!(
                            "After references submission {index}, but the spec has only {n}; \
                             the deferral can never release"
                        ),
                    ));
                    None
                } else {
                    Some(index)
                }
            }
        })
        .collect();
    // Each node has <= 1 predecessor edge, so cycle detection is
    // tortoise-free pointer chasing with tri-state marks.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        InProgress,
        Done,
    }
    let mut marks = vec![Mark::White; n];
    let mut on_cycle = vec![false; n];
    for start in 0..n {
        if marks[start] != Mark::White {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            match marks[cur] {
                Mark::Done => break,
                Mark::InProgress => {
                    // Found a cycle: everything from `cur`'s position in
                    // the current path onward is on it.
                    let pos = path.iter().position(|&p| p == cur).expect("on path");
                    for &p in &path[pos..] {
                        on_cycle[p] = true;
                    }
                    break;
                }
                Mark::White => {
                    marks[cur] = Mark::InProgress;
                    path.push(cur);
                    match pred[cur] {
                        Some(p) => cur = p,
                        None => break,
                    }
                }
            }
        }
        for &p in &path {
            marks[p] = Mark::Done;
        }
    }
    for (i, &cyc) in on_cycle.iter().enumerate() {
        if cyc {
            out.push(Diagnostic::new(
                RuleId::AfterCycle,
                span(i),
                "After-chain cycle: this submission waits (transitively) on itself \
                 and never releases"
                    .into(),
            ));
        }
    }
}

fn check_failure_plan(
    home: &Home,
    spec: &RunSpec,
    footprints: &[Vec<DeviceAccess>],
    out: &mut Vec<Diagnostic>,
) {
    let mut seen: Vec<DeviceId> = Vec::new();
    for ev in spec.failures.sorted_events() {
        if seen.contains(&ev.device) {
            continue;
        }
        seen.push(ev.device);
        let span = Span {
            device: Some(ev.device),
            ..Span::default()
        };
        if home.get(ev.device).is_err() {
            out.push(Diagnostic::new(
                RuleId::UnknownFailureDevice,
                span,
                format!(
                    "failure plan injects on device {:?}, outside the {}-device catalog",
                    ev.device,
                    home.len()
                ),
            ));
            continue;
        }
        let touched = footprints
            .iter()
            .any(|fp| fp.iter().any(|a| a.device == ev.device));
        if !touched {
            out.push(Diagnostic::new(
                RuleId::FailurePlanMismatch,
                span,
                format!(
                    "failure plan injects on '{}', which no routine touches; \
                     the injection cannot affect any outcome",
                    home.name(ev.device)
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safehome_core::{EngineConfig, VisibilityModel};
    use safehome_devices::catalog::plug_home;
    use safehome_harness::Submission;
    use safehome_types::{Routine, Timestamp, Value};

    fn d(i: u32) -> DeviceId {
        DeviceId(i)
    }

    fn spec_with(home: Home, routines: Vec<Routine>) -> RunSpec {
        let mut spec = RunSpec::new(home, EngineConfig::new(VisibilityModel::ev()));
        for r in routines {
            spec.submit(Submission::at(r, Timestamp::ZERO));
        }
        spec
    }

    fn rules_of(spec: &RunSpec) -> Vec<RuleId> {
        run(&spec.home, spec, &crate::footprints(spec))
            .into_iter()
            .map(|diag| diag.rule)
            .collect()
    }

    #[test]
    fn rule_ids_are_stable_and_unique() {
        let mut names: Vec<&str> = RuleId::ALL.iter().map(|r| r.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RuleId::ALL.len());
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn unknown_device_is_an_error() {
        let r = Routine::builder("r")
            .set(d(9), Value::ON, TimeDelta::ZERO)
            .build();
        let spec = spec_with(plug_home(2), vec![r]);
        assert_eq!(rules_of(&spec), vec![RuleId::UnknownDevice]);
        assert_eq!(RuleId::UnknownDevice.severity(), Severity::Error);
    }

    #[test]
    fn empty_routine_warns() {
        let spec = spec_with(plug_home(2), vec![Routine::new("noop", Vec::new())]);
        assert_eq!(rules_of(&spec), vec![RuleId::EmptyRoutine]);
    }

    #[test]
    fn duplicate_and_contradictory_writes() {
        let dup = Routine::builder("dup")
            .set(d(0), Value::ON, TimeDelta::from_millis(100))
            .set(d(0), Value::ON, TimeDelta::ZERO)
            .build();
        assert_eq!(
            rules_of(&spec_with(plug_home(1), vec![dup])),
            vec![RuleId::DuplicateWrite]
        );
        let contra = Routine::builder("contra")
            .set(d(0), Value::ON, TimeDelta::ZERO)
            .set(d(0), Value::OFF, TimeDelta::ZERO)
            .build();
        assert_eq!(
            rules_of(&spec_with(plug_home(1), vec![contra])),
            vec![RuleId::ContradictoryWrite]
        );
        // The paper's breakfast shape — opposite writes where the first
        // has a real duration (coffee ON 4min, then OFF) — is clean.
        let breakfast = Routine::builder("breakfast")
            .set(d(0), Value::ON, TimeDelta::from_mins(4))
            .set(d(0), Value::OFF, TimeDelta::from_millis(100))
            .build();
        assert!(rules_of(&spec_with(plug_home(1), vec![breakfast])).is_empty());
    }

    #[test]
    fn best_effort_before_must_on_same_device_warns() {
        let smelly = Routine::builder("smelly")
            .set_best_effort(d(0), Value::OFF, TimeDelta::from_millis(100))
            .set(d(0), Value::ON, TimeDelta::ZERO)
            .build();
        assert_eq!(
            rules_of(&spec_with(plug_home(1), vec![smelly])),
            vec![RuleId::BestEffortOrdering]
        );
        // Best-effort cleanup *last* (the §7.2 bathroom idiom) is clean.
        let clean = Routine::builder("clean")
            .set(d(0), Value::ON, TimeDelta::from_millis(100))
            .set_best_effort(d(0), Value::OFF, TimeDelta::ZERO)
            .build();
        assert!(rules_of(&spec_with(plug_home(1), vec![clean])).is_empty());
    }

    #[test]
    fn irreversible_then_fallible_must() {
        let mk = || {
            Routine::builder("water")
                .set_irreversible(d(0), Value::ON, TimeDelta::from_mins(5))
                .set(d(1), Value::ON, TimeDelta::from_millis(100))
                .build()
        };
        // No failure plan, no guard: the must command is infallible and
        // the routine is clean.
        let healthy = spec_with(plug_home(2), vec![mk()]);
        assert!(rules_of(&healthy).is_empty());
        // The failure plan touching the later device makes it fallible.
        let mut unhealthy = spec_with(plug_home(2), vec![mk()]);
        unhealthy.failures = unhealthy.failures.clone().fail(d(1), Timestamp::ZERO);
        assert_eq!(
            rules_of(&unhealthy),
            vec![RuleId::IrreversibleAfterFallibleMust]
        );
        // A guarded read after the irreversible write is fallible even
        // with no failure plan.
        let guarded = Routine::builder("guarded")
            .set_irreversible(d(0), Value::ON, TimeDelta::from_mins(5))
            .read(d(1), Some(Value::ON), TimeDelta::ZERO)
            .build();
        assert_eq!(
            rules_of(&spec_with(plug_home(2), vec![guarded])),
            vec![RuleId::IrreversibleAfterFallibleMust]
        );
    }

    #[test]
    fn implicit_irreversible_flags_reversible_sprinkler_activation() {
        let mut b = Home::builder();
        let sprinkler = b.device("sprinkler", DeviceKind::Sprinkler);
        let plug = b.device("plug", DeviceKind::Plug);
        let home = b.build();
        let implicit = Routine::builder("implicit")
            .set(sprinkler, Value::ON, TimeDelta::from_mins(5))
            .build();
        assert_eq!(
            rules_of(&spec_with(home.clone(), vec![implicit])),
            vec![RuleId::ImplicitIrreversible]
        );
        // Opting in via set_irreversible, turning the sprinkler OFF, or
        // activating a non-sprinkler device are all clean.
        let explicit = Routine::builder("explicit")
            .set_irreversible(sprinkler, Value::ON, TimeDelta::from_mins(5))
            .set(sprinkler, Value::OFF, TimeDelta::from_millis(100))
            .set(plug, Value::ON, TimeDelta::from_millis(100))
            .build();
        assert!(rules_of(&spec_with(home, vec![explicit])).is_empty());
    }

    #[test]
    fn dangling_after_and_cycles_are_errors() {
        let r = || {
            Routine::builder("r")
                .set(d(0), Value::ON, TimeDelta::ZERO)
                .build()
        };
        let mut dangling = RunSpec::new(plug_home(1), EngineConfig::new(VisibilityModel::ev()));
        dangling.submit(Submission::after(r(), 7, TimeDelta::ZERO));
        assert_eq!(rules_of(&dangling), vec![RuleId::DanglingAfter]);

        let mut self_loop = RunSpec::new(plug_home(1), EngineConfig::new(VisibilityModel::ev()));
        self_loop.submit(Submission::after(r(), 0, TimeDelta::ZERO));
        assert_eq!(rules_of(&self_loop), vec![RuleId::AfterCycle]);

        // 0 <- 1 <- 2 <- 0 three-cycle plus a healthy tail hanging off it.
        let mut cycle = RunSpec::new(plug_home(1), EngineConfig::new(VisibilityModel::ev()));
        cycle.submit(Submission::after(r(), 2, TimeDelta::ZERO));
        cycle.submit(Submission::after(r(), 0, TimeDelta::ZERO));
        cycle.submit(Submission::after(r(), 1, TimeDelta::ZERO));
        cycle.submit(Submission::after(r(), 0, TimeDelta::ZERO)); // tail, not on cycle
        let rules = rules_of(&cycle);
        assert_eq!(
            rules,
            vec![RuleId::AfterCycle, RuleId::AfterCycle, RuleId::AfterCycle],
            "exactly the three cycle members are flagged, not the tail"
        );

        // A legal chain (1 after 0) is clean.
        let mut chain = RunSpec::new(plug_home(1), EngineConfig::new(VisibilityModel::ev()));
        let first = chain.submit(Submission::at(r(), Timestamp::ZERO));
        chain.submit(Submission::after(r(), first, TimeDelta::from_secs(1)));
        assert!(rules_of(&chain).is_empty());
    }

    #[test]
    fn failure_plan_checks() {
        let r = Routine::builder("r")
            .set(d(0), Value::ON, TimeDelta::ZERO)
            .build();
        let mut spec = spec_with(plug_home(3), vec![r]);
        spec.failures = spec
            .failures
            .clone()
            .fail(d(9), Timestamp::ZERO) // outside the catalog
            .fail_recover(d(1), Timestamp::ZERO, TimeDelta::from_secs(1)); // untouched
        let rules = rules_of(&spec);
        assert!(rules.contains(&RuleId::UnknownFailureDevice));
        assert!(rules.contains(&RuleId::FailurePlanMismatch));
        assert_eq!(rules.len(), 2, "the d(1) pair is reported once");
    }

    #[test]
    fn diagnostics_render_with_span() {
        let r = Routine::builder("noisy")
            .set(d(9), Value::ON, TimeDelta::ZERO)
            .build();
        let spec = spec_with(plug_home(1), vec![r]);
        let diags = run(&spec.home, &spec, &crate::footprints(&spec));
        let rendered = diags[0].to_string();
        assert!(rendered.contains("error [unknown-device]"), "{rendered}");
        assert!(rendered.contains("noisy"), "{rendered}");
    }
}
