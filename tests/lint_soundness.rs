//! Dynamic soundness cross-check for the static analyzer.
//!
//! `safehome-lint` predicts conflicts without executing anything; these
//! tests run the *actual* simulation and assert the prediction's
//! soundness claims:
//!
//! 1. **No false negatives** — every runtime-observed conflict (two
//!    submissions whose activity overlapped on a shared device) was
//!    statically predicted, over random workloads (routines, arrivals,
//!    failure plans, seeds) and over the bundled fleet scenarios.
//! 2. **Window containment** — every routine starts no earlier than its
//!    static window's `earliest_start` and touches no device after its
//!    `latest_end`.
//! 3. **Digest neutrality** — running a fleet through the lint gate
//!    (`run_fleet_gated` + `lint::check`) reproduces the ungated fleet
//!    byte for byte: linting never perturbs execution.
//! 4. **Pruning honesty** — workload clusters the analyzer prunes
//!    (separated by more than the serial bound) are also conflict-free
//!    at runtime.

use proptest::prelude::*;
use safehome::core::{EngineConfig, VisibilityModel};
use safehome::devices::catalog::plug_home;
use safehome::harness::{home_seed, run, run_fleet, run_fleet_gated, RunSpec, Submission};
use safehome::lint;
use safehome::sim::SimRng;
use safehome::types::{DeviceId, Routine, TimeDelta, Timestamp, UndoPolicy, Value};
use safehome::workloads::FleetTemplate;

fn config() -> EngineConfig {
    EngineConfig::new(VisibilityModel::ev())
}

/// Builds a random workload: `devices` plugs, `subs` routines of 1–4
/// commands mixing plain/best-effort/irreversible/handler-undo writes
/// and plain/guarded reads, arrivals either `At` (first 5 s) or `After`
/// an earlier submission, and an optional fail / fail-recover plan.
fn random_spec(devices: usize, subs: usize, seed: u64, plan_kind: u64) -> RunSpec {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut spec = RunSpec::new(plug_home(devices), config()).with_seed(seed);
    for i in 0..subs {
        let mut b = Routine::builder(format!("r{i}"));
        for _ in 0..1 + rng.index(4) {
            let dev = DeviceId(rng.index(devices) as u32);
            let dur = TimeDelta::from_millis(rng.int_in(1, 400));
            b = match rng.index(6) {
                0 => b.set(dev, Value::ON, dur),
                1 => b.set(dev, Value::OFF, dur),
                2 => b.set_best_effort(dev, Value::OFF, dur),
                3 => b.set_irreversible(dev, Value::ON, dur),
                4 => b.command(
                    safehome::types::Command::set(dev, Value::Int(7), dur)
                        .with_undo(UndoPolicy::Handler(Value::Int(1))),
                ),
                _ => b.read(
                    dev,
                    if rng.chance(0.5) {
                        Some(Value::ON)
                    } else {
                        None
                    },
                    dur,
                ),
            };
        }
        let routine = b.build();
        if i > 0 && rng.chance(0.4) {
            let pred = rng.index(i);
            spec.submit(Submission::after(
                routine,
                pred,
                TimeDelta::from_millis(rng.int_in(0, 2_000)),
            ));
        } else {
            spec.submit(Submission::at(
                routine,
                Timestamp::from_millis(rng.int_in(0, 5_000)),
            ));
        }
    }
    let victim = DeviceId(rng.index(devices) as u32);
    let at = Timestamp::from_millis(rng.int_in(0, 4_000));
    spec.failures = match plan_kind % 3 {
        0 => spec.failures.clone(),
        1 => spec.failures.clone().fail(victim, at),
        _ => spec.failures.clone().fail_recover(
            victim,
            at,
            TimeDelta::from_millis(rng.int_in(500, 3_000)),
        ),
    };
    spec
}

/// Runs `spec` and asserts all three per-run soundness claims against
/// its lint report. Returns an error message on the first violation.
fn check_soundness(spec: &RunSpec) -> Result<(), String> {
    let report = lint::analyze_spec(spec);
    let out = run(spec);
    if !out.completed {
        return Err("run did not reach quiescence".into());
    }
    // 1. Observed conflicts are all predicted.
    for c in lint::observed_conflicts(spec, &out.trace) {
        if !report.predicts_conflict(c.a, c.b, c.device) {
            return Err(format!(
                "observed conflict not predicted: submissions {} and {} on {:?}",
                c.a, c.b, c.device
            ));
        }
    }
    // 2. Starts and activity stay inside the static windows.
    let indices = lint::submission_indices(spec, &out.trace);
    for (id, record) in &out.trace.records {
        let Some(&i) = indices.get(id) else {
            return Err(format!("routine {id:?} not mapped to a submission"));
        };
        if let Some(started) = record.started {
            if started < report.windows[i].earliest_start {
                return Err(format!(
                    "submission {i} started {:?}, before its window {:?}",
                    started, report.windows[i].earliest_start
                ));
            }
        }
    }
    for ((i, device), (_, last)) in lint::activity_intervals(spec, &out.trace) {
        if last > report.windows[i].latest_end {
            return Err(format!(
                "submission {i} touched {device:?} at {last:?}, after its window end {:?}",
                report.windows[i].latest_end
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_workloads_observe_only_predicted_conflicts(
        devices in 1usize..6,
        subs in 1usize..7,
        seed in any::<u64>(),
        plan_kind in 0u64..3,
    ) {
        let spec = random_spec(devices, subs, seed, plan_kind);
        if let Err(msg) = check_soundness(&spec) {
            prop_assert!(
                false,
                "devices={devices} subs={subs} seed={seed} plan={plan_kind}: {msg}"
            );
        }
    }
}

#[test]
fn fleet_morning_homes_observe_only_predicted_conflicts() {
    use safehome::workloads::fleet_morning;
    for home in 0..20u64 {
        let seed = home_seed(0x5afe_f1ee, home);
        let spec = fleet_morning(config(), seed);
        if let Err(msg) = check_soundness(&spec) {
            panic!("fleet home {home} (seed {seed:#x}): {msg}");
        }
    }
}

#[test]
fn lint_gate_is_digest_neutral_at_fleet_scale() {
    let template = FleetTemplate::morning(config());
    let homes = 48;
    let base = run_fleet(homes, 2, 0x5afe_f1ee, |_, seed| template.home_spec(seed));
    let gated = run_fleet_gated(
        homes,
        2,
        0x5afe_f1ee,
        |_, spec| lint::check(spec),
        |_, seed| template.home_spec(seed),
    )
    .expect("bundled fleet homes carry no lint errors");
    assert_eq!(base.digest(), gated.digest(), "linting perturbed execution");
    assert_eq!(base.homes, gated.homes);
}

#[test]
fn pruned_clusters_never_conflict_at_runtime() {
    // Two same-device clusters a day apart: statically pruned (the
    // serial bound is seconds), and the runtime must agree.
    let mut spec = RunSpec::new(plug_home(1), config());
    let r = |name: &str| {
        Routine::builder(name)
            .set(DeviceId(0), Value::ON, TimeDelta::from_millis(100))
            .build()
    };
    spec.submit(Submission::at(r("a1"), Timestamp::ZERO));
    spec.submit(Submission::at(r("a2"), Timestamp::ZERO));
    let day = Timestamp::from_secs(86_400);
    spec.submit(Submission::at(r("b1"), day));
    spec.submit(Submission::at(r("b2"), day));
    let report = lint::analyze_spec(&spec);
    let cross: Vec<_> = report
        .conflicts
        .iter()
        .filter(|c| c.a < 2 && c.b >= 2)
        .collect();
    assert!(cross.is_empty(), "cross-cluster pairs must be pruned");
    let out = run(&spec);
    assert!(out.completed);
    for c in lint::observed_conflicts(&spec, &out.trace) {
        assert!(
            (c.a < 2) == (c.b < 2),
            "runtime saw a cross-cluster conflict the lint pruned: {c:?}"
        );
        assert!(report.predicts_conflict(c.a, c.b, c.device));
    }
}
