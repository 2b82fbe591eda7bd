//! `fleet_bench` — the batch fleet's committed, machine-independent
//! artifact (`BENCH_fleet.json` plus its per-home digest sidecar).
//!
//! Every number it writes is a deterministic function of the code and
//! the fleet seeds — outcome counts, simulated-time latency percentiles,
//! journal record counts, lint diagnostic counts, correctness flags and
//! per-home digests — so a re-run on any machine reproduces the
//! committed files byte for byte, and `git diff` is the regression gate.
//! Wall-clock performance is measured by the repository benchmark
//! (`perfbench/`), not here.
//!
//! Sections:
//!
//! 1. **Homogeneous morning fleet** — N independent morning-scenario
//!    homes (§7.2, per-home parameter jitter) built from one shared
//!    [`FleetTemplate`] and run through the fleet driver with the
//!    counters-only trace sink at 1, 2 and 4 workers: routine latency
//!    percentiles, outcome totals, and the determinism cross-check
//!    (per-home results identical across worker counts).
//! 2. **`journal`** — the same homes run with the per-home execution
//!    journal enabled; every journaled home's counters (digest included)
//!    must equal its unjournaled run.
//! 3. **`lint`** — static analysis over the same homes (diagnostic and
//!    predicted-conflict counts, zero errors) and the lint-gated fleet
//!    driver, which must reproduce the ungated results byte for byte.
//! 4. **`neighborhood`** — the correlated-outage scenario, where per-home
//!    cost is heavy-tailed. A sequential reference pass runs every home
//!    on a plain [`Driver`]; `run_fleet` at 2 and 4 workers must
//!    reproduce it per home.
//!
//! The sidecar (`<out>.digests.tsv`) has one `section  home  seed  digest`
//! line per morning, neighborhood and journaled home, so a diff names
//! exactly the homes whose event streams changed.
//!
//! Usage:
//! ```text
//! cargo run -p safehome-bench --release --bin fleet_bench \
//!     [out.json]
//! ```
//!
//! Exits non-zero when any home fails to reach quiescence or any
//! cross-check above fails.

use safehome_core::{EngineConfig, VisibilityModel};
use safehome_harness::{home_seed, run_fleet, Driver, FleetResult, HomeRun};
use safehome_metrics::stats::percentile;
use safehome_types::json::{obj, Json};
use safehome_types::sink::RunCounters;
use safehome_workloads::{neighborhood_home, FleetTemplate, NeighborhoodParams, NeighborhoodPlan};

/// Worker-thread counts the determinism cross-check compares.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
/// Fleet seed: every thread count replays the identical fleet.
const FLEET_SEED: u64 = 0x5afe_f1ee;
/// Fleet seed of the neighborhood section.
const NEIGHBORHOOD_SEED: u64 = 0x5afe_0b0d;
/// Worker counts the neighborhood section cross-checks against its
/// sequential reference pass.
const NEIGHBORHOOD_WORKERS: [usize; 2] = [2, 4];
/// Homes of the morning fleet and of the neighborhood section.
const HOMES: usize = 1000;
const NEIGHBORHOOD_HOMES: usize = 512;

/// `true` when two fleets have byte-identical per-home results.
fn same_homes(label: &str, a: &[HomeRun], b: &[HomeRun]) -> bool {
    if a.len() != b.len() {
        eprintln!("{label}: home count mismatch ({} vs {})", a.len(), b.len());
        return false;
    }
    let mut same = true;
    for (x, y) in a.iter().zip(b) {
        if x != y {
            eprintln!("{label}: home {} diverged", x.home);
            same = false;
        }
    }
    same
}

fn outcomes_obj(fleet: &FleetResult) -> Json {
    obj([
        ("committed", Json::from(fleet.committed())),
        ("aborted", Json::from(fleet.aborted())),
        (
            "congruent_homes",
            Json::from(fleet.congruent_homes() as u64),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_fleet.json".to_string());

    let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
    let mut ok = true;

    // ---- Section 1: homogeneous morning fleet ----------------------
    let runs: Vec<FleetResult> = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let result = run_fleet(HOMES, workers, FLEET_SEED, |_, seed| {
                template.home_spec(seed)
            });
            eprintln!(
                "{workers} worker(s): {HOMES} homes (digest {:#018x})",
                result.digest()
            );
            assert!(
                result.all_completed(),
                "{workers} workers: some homes failed to reach quiescence"
            );
            result
        })
        .collect();

    // Determinism cross-check: byte-identical per-home results for every
    // thread count. The outcome is recorded in the JSON and the bin
    // exits non-zero after writing it, so the artifact never claims a
    // verification that did not hold.
    let base = &runs[0];
    let mut deterministic = true;
    for (workers, result) in WORKER_COUNTS.iter().zip(&runs).skip(1) {
        deterministic &= same_homes(&format!("{workers} workers"), &base.homes, &result.homes);
    }
    ok &= deterministic;

    // ---- Section 2: journaled runs ---------------------------------
    // The same morning homes, run sequentially with the per-home
    // execution journal enabled: every lifecycle, side-effect and
    // deferral record is appended as the run executes. Journaling must
    // be digest-neutral — each home's full counters (digest included)
    // are compared against the unjournaled run.
    let mut journal_digest_rows = Vec::with_capacity(HOMES);
    let mut journal_neutral = true;
    let mut journal_records = 0usize;
    for h in &base.homes {
        let spec = template.home_spec(h.seed);
        let mut driver = Driver::with_journal(&spec, RunCounters::new());
        let completed = driver.run_to_quiescence();
        assert!(completed, "journaled home {} failed to quiesce", h.home);
        journal_records += driver.journal().expect("journaled driver").len();
        let (counters, _, _) = driver.into_output();
        if counters != h.counters {
            eprintln!(
                "journal: home {} diverged from its unjournaled run \
                 (journaling must be digest-neutral)",
                h.home
            );
            journal_neutral = false;
        }
        journal_digest_rows.push((h.home, h.seed, counters.digest));
    }
    ok &= journal_neutral;

    // ---- Section 3: static analysis (safehome-lint) ----------------
    // Diagnostic counts over the same template homes, plus the
    // digest-neutrality check: the lint-gated fleet driver must
    // reproduce the ungated per-home results byte for byte, because the
    // gate only *reads* specs before anything executes.
    let mut lint_diagnostics = 0usize;
    let mut lint_conflicts = 0usize;
    let mut lint_errors = 0usize;
    for h in &base.homes {
        let spec = template.home_spec(h.seed);
        let report = safehome_lint::analyze_spec(&spec);
        lint_diagnostics += report.diagnostics.len();
        lint_conflicts += report.conflicts.len();
        lint_errors += report
            .diagnostics
            .iter()
            .filter(|d| d.severity >= safehome_lint::Severity::Error)
            .count();
    }
    eprintln!(
        "lint: {HOMES} homes, {lint_diagnostics} diagnostics, {lint_conflicts} predicted \
         conflict pairs, {lint_errors} errors"
    );
    if lint_errors > 0 {
        eprintln!("lint: bundled fleet homes must carry no Error-severity diagnostics");
        ok = false;
    }
    let gated = safehome_harness::run_fleet_gated(
        HOMES,
        2,
        FLEET_SEED,
        |_, spec| safehome_lint::check(spec),
        |_, seed| template.home_spec(seed),
    );
    let gate_digest_neutral = match gated {
        Ok(result) => same_homes("lint-gated fleet", &base.homes, &result.homes),
        Err(rejection) => {
            eprintln!("lint gate rejected a bundled home: {rejection}");
            false
        }
    };
    ok &= gate_digest_neutral;

    // ---- Section 4: heterogeneous neighborhood fleet ---------------
    let params = NeighborhoodParams::default();
    let plan = NeighborhoodPlan::generate(NEIGHBORHOOD_SEED, NEIGHBORHOOD_HOMES, &params);
    eprintln!(
        "neighborhood: {NEIGHBORHOOD_HOMES} homes, {} hit by correlated outages",
        plan.affected()
    );

    // Sequential reference pass: every home on a plain driver, no
    // scheduler involved.
    let mut reference = Vec::with_capacity(NEIGHBORHOOD_HOMES);
    for home in 0..NEIGHBORHOOD_HOMES {
        let seed = home_seed(NEIGHBORHOOD_SEED, home as u64);
        let spec = neighborhood_home(&template, &plan, home, seed);
        let mut driver = Driver::with_sink(&spec, RunCounters::new());
        let completed = driver.run_to_quiescence();
        let (counters, _, _) = driver.into_output();
        assert!(completed, "neighborhood home {home} failed to quiesce");
        reference.push(HomeRun {
            home,
            seed,
            completed,
            counters,
        });
    }

    let mut neighborhood_agree = true;
    for workers in NEIGHBORHOOD_WORKERS {
        let result = run_fleet(
            NEIGHBORHOOD_HOMES,
            workers,
            NEIGHBORHOOD_SEED,
            |home, seed| neighborhood_home(&template, &plan, home, seed),
        );
        neighborhood_agree &= same_homes(
            &format!("neighborhood @ {workers} workers"),
            &reference,
            &result.homes,
        );
    }
    ok &= neighborhood_agree;

    // Aggregate the reference pass for outcome totals.
    let reference_fleet = FleetResult {
        homes: reference,
        workers: 1,
        worker_stats: Vec::new(),
    };

    let lat_ms: Vec<f64> = base.latencies_ms().iter().map(|&l| l as f64).collect();
    let doc = obj([
        ("benchmark", Json::from("fleet_morning")),
        (
            "description",
            Json::from(
                "multi-home driver over the §7.2 morning scenario \
                 (29 routines / 31 devices per home, per-home jitter), \
                 counters-only trace sink, template-batched spec construction; \
                 neighborhood cross-checks the correlated neighborhood-outage \
                 fleet against a sequential reference pass; every value is \
                 deterministic (latencies in simulated ms)",
            ),
        ),
        ("homes", Json::from(HOMES as u64)),
        ("fleet_seed", Json::from(FLEET_SEED)),
        (
            "workers",
            Json::Arr(WORKER_COUNTS.map(|w| Json::from(w as u64)).into()),
        ),
        ("deterministic_across_workers", Json::from(deterministic)),
        (
            "routine_latency_ms",
            obj([
                ("n", Json::from(lat_ms.len() as u64)),
                ("p50", Json::Float(round3(percentile(&lat_ms, 50.0)))),
                ("p90", Json::Float(round3(percentile(&lat_ms, 90.0)))),
                ("p99", Json::Float(round3(percentile(&lat_ms, 99.0)))),
            ]),
        ),
        ("outcomes", outcomes_obj(base)),
        (
            "neighborhood",
            obj([
                ("scenario", Json::from("neighborhood_morning")),
                ("homes", Json::from(NEIGHBORHOOD_HOMES as u64)),
                ("fleet_seed", Json::from(NEIGHBORHOOD_SEED)),
                ("affected_homes", Json::from(plan.affected() as u64)),
                (
                    "workers",
                    Json::Arr(NEIGHBORHOOD_WORKERS.map(|w| Json::from(w as u64)).into()),
                ),
                (
                    "deterministic_across_workers",
                    Json::from(neighborhood_agree),
                ),
                ("outcomes", outcomes_obj(&reference_fleet)),
            ]),
        ),
        (
            "journal",
            obj([
                (
                    "description",
                    Json::from(
                        "the morning fleet with the per-home execution journal \
                         enabled (every lifecycle/side-effect/deferral record \
                         appended); digest-neutral per home vs the unjournaled run",
                    ),
                ),
                (
                    "records_per_home_avg",
                    Json::Float(round3(journal_records as f64 / HOMES as f64)),
                ),
                ("digest_neutral", Json::from(journal_neutral)),
            ]),
        ),
        (
            "lint",
            obj([
                (
                    "description",
                    Json::from(
                        "safehome-lint static analysis over the same template homes \
                         (footprints, conflict-window prediction, hazard rules); \
                         gate_digest_neutral checks that the lint-gated fleet driver \
                         reproduces the ungated per-home results byte for byte",
                    ),
                ),
                ("diagnostics_total", Json::from(lint_diagnostics as u64)),
                ("conflict_pairs_total", Json::from(lint_conflicts as u64)),
                ("errors", Json::from(lint_errors as u64)),
                ("gate_digest_neutral", Json::from(gate_digest_neutral)),
            ]),
        ),
        (
            "neighborhood_params",
            obj([
                ("cluster_size", Json::from(params.cluster_size as u64)),
                ("outage_p", Json::Float(params.outage_p)),
                ("attach_p", Json::Float(params.attach_p)),
                ("fail_slow_p", Json::Float(params.fail_slow_p)),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(&out_path, doc.to_string_pretty() + "\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    // Per-home digest sidecar: one line per home, so a re-run diffs to
    // exactly the homes whose event streams changed. Tab-separated to
    // stay `diff`- and `join`-friendly.
    let digest_path = format!("{}.digests.tsv", out_path.trim_end_matches(".json"));
    let mut sidecar = String::from("# section\thome\tseed\tdigest\n");
    for h in &base.homes {
        sidecar.push_str(&format!(
            "morning\t{}\t{:#018x}\t{:#018x}\n",
            h.home, h.seed, h.counters.digest
        ));
    }
    for h in &reference_fleet.homes {
        sidecar.push_str(&format!(
            "neighborhood\t{}\t{:#018x}\t{:#018x}\n",
            h.home, h.seed, h.counters.digest
        ));
    }
    for (home, seed, digest) in &journal_digest_rows {
        sidecar.push_str(&format!("journal\t{home}\t{seed:#018x}\t{digest:#018x}\n"));
    }
    if let Err(e) = std::fs::write(&digest_path, sidecar) {
        eprintln!("cannot write {digest_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {digest_path}");
    if !ok {
        eprintln!(
            "FAIL: per-home results diverged across worker counts, journaling or the \
             lint gate (or bundled homes carried lint errors)"
        );
        std::process::exit(1);
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}
