//! Oracle property test for the lint gate.
//!
//! `lint::check` runs footprints plus the rule catalog and skips the
//! windows and the all-pairs conflict prediction. It must still return
//! exactly what the full report implies: `Ok(())` when
//! `analyze_spec(spec)` has no Error diagnostic, else the same
//! `Err("lint rejected spec: …")` string built from those diagnostics in
//! report order. Random specs mix every Error shape (unknown command and
//! failure devices, dangling, self and cyclic `After` edges) with the
//! shapes that only warn; the bundled morning seeds, `fleet_morning`
//! homes and a zoned workshop are fixed cases.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::TestRng;
use safehome_core::{EngineConfig, VisibilityModel};
use safehome_devices::{DeviceKind, Home};
use safehome_harness::{home_seed, RunSpec, Submission};
use safehome_lint::{analyze_spec, check, RuleId, Severity};
use safehome_types::{Command, DeviceId, Routine, TimeDelta, Timestamp, UndoPolicy, Value};
use safehome_workloads::{fleet_morning, morning, zoned_home, ZoneParams};

/// Catalog devices of the random home; ids from here up are unknown.
const KNOWN: u32 = 4;
/// Random specs per run of the property.
const CASES: u32 = 512;

fn config() -> EngineConfig {
    EngineConfig::new(VisibilityModel::ev())
}

/// The gate as the full report defines it.
fn gate_from_report(spec: &RunSpec) -> Result<(), String> {
    let errors: Vec<String> = analyze_spec(spec)
        .diagnostics
        .iter()
        .filter(|d| d.severity >= Severity::Error)
        .map(ToString::to_string)
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!("lint rejected spec: {}", errors.join("; ")))
    }
}

/// Two plugs, a light and a sprinkler (the catalog's irreversible kind).
fn random_home() -> Home {
    let mut b = Home::builder();
    b.device("plug0", DeviceKind::Plug);
    b.device("plug1", DeviceKind::Plug);
    b.device("light", DeviceKind::Light);
    b.device("sprinkler", DeviceKind::Sprinkler);
    b.build()
}

/// A device id: one draw in ten lies outside the catalog.
fn device(rng: &mut TestRng) -> DeviceId {
    if rng.below(10) == 0 {
        DeviceId(KNOWN + rng.below(3) as u32)
    } else {
        DeviceId(rng.below(u64::from(KNOWN)) as u32)
    }
}

/// A routine of 0–4 commands. Commands often repeat the previous
/// device, so duplicate, contradictory and best-effort-before-must
/// pairs show up; zero durations make contradictory writes possible.
fn random_routine(rng: &mut TestRng, name: String) -> Routine {
    let mut b = Routine::builder(name);
    let mut dev = device(rng);
    for _ in 0..rng.below(5) {
        if rng.below(2) == 0 {
            dev = device(rng);
        }
        let dur = TimeDelta::from_millis(rng.below(3) * 100);
        let value = if rng.below(2) == 0 {
            Value::ON
        } else {
            Value::OFF
        };
        b = match rng.below(6) {
            0 | 1 => b.set(dev, value, dur),
            2 => b.set_best_effort(dev, value, dur),
            3 => b.set_irreversible(dev, value, dur),
            4 => b.command(
                Command::set(dev, Value::Int(7), dur).with_undo(UndoPolicy::Handler(Value::Int(1))),
            ),
            _ => b.read(dev, (rng.below(2) == 0).then_some(value), dur),
        };
    }
    b.build()
}

/// `n` submissions, a third of them `After` an index drawn from
/// `0..n + 2`: earlier (a legal chain), itself, later (cycles become
/// possible) or past the end (dangling). The failure plan injects on
/// 0–2 devices, known or not, touched or not.
fn random_spec(seed: u64, n: usize) -> RunSpec {
    let mut rng = TestRng::new(seed);
    let mut spec = RunSpec::new(random_home(), config()).with_seed(seed);
    for i in 0..n {
        let routine = random_routine(&mut rng, format!("r{i}"));
        let delay = TimeDelta::from_millis(rng.below(2_000));
        spec.submit(if rng.below(3) == 0 {
            Submission::after(routine, rng.below(n as u64 + 2) as usize, delay)
        } else {
            Submission::at(routine, Timestamp::from_millis(rng.below(5_000)))
        });
    }
    for _ in 0..rng.below(3) {
        let victim = DeviceId(rng.below(u64::from(KNOWN) + 2) as u32);
        let at = Timestamp::from_millis(rng.below(4_000));
        spec.failures = if rng.below(2) == 0 {
            spec.failures.clone().fail(victim, at)
        } else {
            spec.failures
                .clone()
                .fail_recover(victim, at, TimeDelta::from_secs(1))
        };
    }
    spec
}

fn spec_strategy() -> impl Strategy<Value = RunSpec> {
    (any::<u64>(), 0usize..10).prop_map(|(seed, n)| random_spec(seed, n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn gate_agrees_with_full_report(spec in spec_strategy()) {
        prop_assert_eq!(check(&spec), gate_from_report(&spec));
    }
}

/// Replays the property's own cases: each rule fires in some of them,
/// and some pass the gate while others are rejected.
#[test]
fn random_specs_reach_every_rule_and_both_verdicts() {
    let specs = spec_strategy();
    let mut rng = TestRng::new(proptest::seed_for(concat!(
        module_path!(),
        "::gate_agrees_with_full_report"
    )));
    let (mut rules, mut passed, mut rejected) = (BTreeSet::new(), 0, 0);
    for _ in 0..CASES {
        let spec = specs.generate(&mut rng);
        rules.extend(analyze_spec(&spec).diagnostics.iter().map(|d| d.rule));
        match check(&spec) {
            Ok(()) => passed += 1,
            Err(_) => rejected += 1,
        }
    }
    let missing: Vec<_> = RuleId::ALL.iter().filter(|r| !rules.contains(r)).collect();
    assert!(missing.is_empty(), "generator never hits {missing:?}");
    assert!(
        passed > 0 && rejected > 0,
        "{passed} passed, {rejected} rejected"
    );
}

#[test]
fn gate_agrees_with_full_report_on_bundled_scenarios() {
    let morning_seeds = (0..32).map(|seed| morning(config(), seed));
    let fleet = (0..256).map(|h| fleet_morning(config(), home_seed(0x5afe_f1ee, h)));
    let workshop = zoned_home(
        config(),
        &ZoneParams::new(6, TimeDelta::from_mins(10), 200),
        home_seed(18, 0),
    );
    for (i, spec) in morning_seeds
        .chain(fleet)
        .chain(std::iter::once(workshop))
        .enumerate()
    {
        assert_eq!(check(&spec), gate_from_report(&spec), "bundled case {i}");
    }
}
