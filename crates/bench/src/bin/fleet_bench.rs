//! `fleet_bench` — machine-readable multi-home fleet throughput.
//!
//! Two sections, one JSON artifact (`BENCH_fleet.json`):
//!
//! 1. **Homogeneous morning fleet** — N independent morning-scenario
//!    homes (§7.2, per-home parameter jitter) built from one shared
//!    [`FleetTemplate`] and run through the fleet driver with the
//!    counters-only trace sink, once per worker-thread count (1, 2, 4):
//!    homes/sec per thread count, fleet-wide latency percentiles,
//!    outcome totals, and the determinism cross-check (per-home digests
//!    identical across thread counts).
//! 2. **Heterogeneous neighborhood fleet** (`neighborhood`) — the
//!    correlated-outage scenario, where per-home cost is heavy-tailed
//!    (storm-center homes cost ~25× a mild one, ~100× a clean one). A
//!    sequential reference pass runs every home on a plain [`Driver`];
//!    `run_fleet` at 2 and 4 workers must reproduce it per home.
//!
//! Also written: a compact per-home digest sidecar (`<out>.digests.tsv`)
//! with one `section  home  seed  digest` line per home, so a re-run can
//! diff exactly *which* homes changed rather than only learning that the
//! fleet digest moved; an `event_loop` JSON section recording the
//! single-worker morning throughput that gates the PR's queue/effect-
//! delivery optimizations; and a `journal` JSON section recording the
//! same fleet run with the per-home execution journal enabled — the
//! journaling overhead is gated at >= 0.5x of the event_loop baseline,
//! and every journaled home is checked digest-identical to its
//! unjournaled run (journaling must be digest-neutral); and a `lint`
//! JSON section recording static-analysis throughput (lints/sec over
//! the same template homes) plus a digest-neutrality check of the
//! lint-gated fleet driver (`run_fleet_gated` with the Error-severity
//! gate must reproduce the ungated per-home results byte for byte).
//!
//! Usage:
//! ```text
//! cargo run -p safehome-bench --release --bin fleet_bench \
//!     [out.json] [homes] [neighborhood_homes] [--expect-digest-change]
//! ```
//!
//! `--expect-digest-change` stamps `expect_digest_change: true` into the
//! JSON: pass it (and commit the regenerated sidecar) when a semantic
//! change intentionally moves per-home digests — the CI gate fails
//! sidecar diffs that arrive without the marker.
//!
//! Exits non-zero when any home fails to reach quiescence, when any
//! thread count records a non-positive rate, or when per-home results
//! differ across thread counts.

use std::collections::BTreeSet;
use std::time::Instant;

use safehome_core::{EngineConfig, VisibilityModel};
use safehome_harness::{home_seed, run_fleet, Driver, FleetResult, HomeRun};
use safehome_metrics::stats::percentile;
use safehome_types::json::{obj, Json};
use safehome_types::sink::RunCounters;
use safehome_workloads::{neighborhood_home, FleetTemplate, NeighborhoodParams, NeighborhoodPlan};

/// Worker-thread counts the acceptance tracker compares.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
/// Fleet seed: every thread count replays the identical fleet.
const FLEET_SEED: u64 = 0x5afe_f1ee;
/// Fleet seed of the neighborhood section.
const NEIGHBORHOOD_SEED: u64 = 0x5afe_0b0d;
/// Worker counts the neighborhood section cross-checks against its
/// sequential reference pass.
const NEIGHBORHOOD_WORKERS: [usize; 2] = [2, 4];

fn fleet(template: &FleetTemplate, homes: usize, workers: usize) -> FleetResult {
    run_fleet(homes, workers, FLEET_SEED, |_, seed| {
        template.home_spec(seed)
    })
}

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
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--expect-digest-change`: record in the artifact that a per-home
    // digest change vs the committed sidecar baseline is intentional
    // (semantic change being re-baselined in the same commit). The CI
    // gate fails on sidecar changes unless the fresh JSON carries this
    // marker.
    let mut expect_digest_change = {
        let before = args.len();
        args.retain(|a| a != "--expect-digest-change");
        args.len() != before
    };
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_fleet.json".to_string());
    let homes: usize = args
        .get(1)
        .map(|s| s.parse().expect("homes must be an integer"))
        .unwrap_or(1000);
    let n_homes: usize = args
        .get(2)
        .map(|s| s.parse().expect("neighborhood homes must be an integer"))
        .unwrap_or(512);

    let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
    let cpus = safehome_bench::support::available_parallelism();
    let mut ok = true;

    // Warmup: touch every code path once so the first timed run does not
    // pay allocator and page-fault overhead the later ones skip.
    fleet(&template, homes.clamp(4, 64), 2);

    // ---- Section 1: homogeneous morning fleet ----------------------
    let mut results = Vec::new();
    let mut rows = Vec::new();
    for workers in WORKER_COUNTS {
        let start = Instant::now();
        let result = fleet(&template, homes, workers);
        let elapsed = start.elapsed().as_secs_f64();
        let rate = homes as f64 / elapsed;
        eprintln!(
            "{workers} worker(s): {homes} homes in {elapsed:.3}s = {rate:.1} homes/sec \
             (digest {:#018x})",
            result.digest()
        );
        assert!(
            result.all_completed(),
            "{workers} workers: some homes failed to reach quiescence"
        );
        assert!(rate > 0.0, "{workers} workers: non-positive rate");
        rows.push(obj([
            ("workers", Json::from(workers as u64)),
            ("elapsed_s", Json::Float(round3(elapsed))),
            ("homes_per_sec", Json::Float(round3(rate))),
        ]));
        results.push((workers, rate, result));
    }

    // Determinism cross-check: byte-identical per-home results for every
    // thread count. The outcome is recorded in the JSON and the bin
    // exits non-zero after writing it, so the artifact never claims a
    // verification that did not hold.
    let (_, _, base) = &results[0];
    let mut deterministic = true;
    for (workers, _, result) in &results[1..] {
        deterministic &= same_homes(&format!("{workers} workers"), &base.homes, &result.homes);
    }
    if deterministic {
        eprintln!("determinism: per-home results identical across {WORKER_COUNTS:?} workers");
    }
    ok &= deterministic;

    let single_rate = results[0].1;
    let best_multi = results[1..]
        .iter()
        .map(|&(_, r, _)| r)
        .fold(f64::MIN, f64::max);
    eprintln!(
        "speedup: best multi-thread {:.2}x over single-thread ({cpus} CPU(s) available; \
         homes are independent, so the speedup tracks the core count)",
        best_multi / single_rate
    );

    // ---- Section 1b: journaled event loop --------------------------
    // The same morning homes, run sequentially with the per-home
    // execution journal enabled: every lifecycle, side-effect and
    // deferral record is appended as the run executes. Journaling must
    // be digest-neutral — each home's full counters (digest included)
    // are compared against the unjournaled run — and its cost is the
    // journal-vs-event_loop ratio the regression gate checks.
    let mut journal_digest_rows = Vec::with_capacity(homes);
    let mut journal_neutral = true;
    let mut journal_records = 0usize;
    let journal_start = Instant::now();
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
    let journal_elapsed = journal_start.elapsed().as_secs_f64();
    let journal_rate = homes as f64 / journal_elapsed;
    eprintln!(
        "journal: {homes} homes in {journal_elapsed:.3}s = {journal_rate:.1} homes/sec \
         ({:.1} records/home, {:.2}x the unjournaled single-worker rate)",
        journal_records as f64 / homes as f64,
        journal_rate / single_rate
    );
    ok &= journal_neutral;

    // ---- Section 1c: static analysis (safehome-lint) ---------------
    // Lint throughput over the same template homes (spec construction
    // included, mirroring what a lint-before-run hook pays), plus the
    // digest-neutrality check: the lint-gated fleet driver must
    // reproduce the ungated per-home results byte for byte, because the
    // gate only *reads* specs before anything executes.
    let mut lint_diagnostics = 0usize;
    let mut lint_conflicts = 0usize;
    let mut lint_errors = 0usize;
    let lint_start = Instant::now();
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
    let lint_elapsed = lint_start.elapsed().as_secs_f64();
    let lint_rate = homes as f64 / lint_elapsed;
    eprintln!(
        "lint: {homes} homes in {lint_elapsed:.3}s = {lint_rate:.1} lints/sec \
         ({lint_diagnostics} diagnostics, {lint_conflicts} predicted conflict pairs, \
         {lint_errors} errors)"
    );
    if lint_errors > 0 {
        eprintln!("lint: bundled fleet homes must carry no Error-severity diagnostics");
        ok = false;
    }
    let gated = safehome_harness::run_fleet_gated(
        homes,
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

    // ---- Section 2: heterogeneous neighborhood fleet ---------------
    let params = NeighborhoodParams::default();
    let plan = NeighborhoodPlan::generate(NEIGHBORHOOD_SEED, n_homes, &params);
    eprintln!(
        "neighborhood: {n_homes} homes, {} hit by correlated outages",
        plan.affected()
    );

    // Sequential reference pass: every home on a plain driver, no
    // scheduler involved.
    let mut reference = Vec::with_capacity(n_homes);
    let seq_start = Instant::now();
    for home in 0..n_homes {
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
    let seq_elapsed = seq_start.elapsed().as_secs_f64();
    eprintln!("neighborhood: sequential pass {seq_elapsed:.3}s");

    let mut neighborhood_agree = true;
    for workers in NEIGHBORHOOD_WORKERS {
        let result = run_fleet(n_homes, workers, NEIGHBORHOOD_SEED, |home, seed| {
            neighborhood_home(&template, &plan, home, seed)
        });
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

    // A sidecar section the existing sidecar at the output path lacks
    // (a bench added after that baseline was written) is a shape
    // change, not semantic drift in pinned homes: stamp the
    // expect_digest_change marker automatically so a re-baseline run
    // over the committed artifacts reports the new rows instead of
    // tripping the digest gate spuriously. When no sidecar exists at
    // the path (fresh CI output dir) there is nothing to compare.
    let digest_path = format!("{}.digests.tsv", out_path.trim_end_matches(".json"));
    let prior_sections: BTreeSet<String> = std::fs::read_to_string(&digest_path)
        .map(|s| {
            s.lines()
                .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
                .filter_map(|l| l.split('\t').next().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    if !prior_sections.is_empty() {
        for section in ["morning", "neighborhood", "journal"] {
            if !prior_sections.contains(section) {
                eprintln!(
                    "sidecar gains section {section:?} (absent from the existing \
                     {digest_path}): stamping expect_digest_change automatically"
                );
                expect_digest_change = true;
            }
        }
    }

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
                 fleet against a sequential reference pass",
            ),
        ),
        ("homes", Json::from(homes as u64)),
        ("fleet_seed", Json::from(FLEET_SEED)),
        ("available_parallelism", Json::from(cpus as u64)),
        ("results", Json::Arr(rows)),
        (
            "speedup_best_multi_over_single",
            Json::Float(round3(best_multi / single_rate)),
        ),
        ("deterministic_across_workers", Json::from(deterministic)),
        ("expect_digest_change", Json::from(expect_digest_change)),
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
                ("homes", Json::from(n_homes as u64)),
                ("fleet_seed", Json::from(NEIGHBORHOOD_SEED)),
                ("affected_homes", Json::from(plan.affected() as u64)),
                (
                    "workers",
                    Json::Arr(NEIGHBORHOOD_WORKERS.map(|w| Json::from(w as u64)).into()),
                ),
                ("sequential_s", Json::Float(round3(seq_elapsed))),
                (
                    "deterministic_across_workers",
                    Json::from(neighborhood_agree),
                ),
                ("outcomes", outcomes_obj(&reference_fleet)),
            ]),
        ),
        (
            "event_loop",
            obj([
                (
                    "description",
                    Json::from(
                        "per-home discrete-event loop: bucketed calendar/timing-wheel \
                         event queue (recycled across homes), allocation-free EffectBuf \
                         delivery, per-device probe elision; single-worker morning \
                         throughput is the gated number",
                    ),
                ),
                ("queue", Json::from("calendar_wheel")),
                ("available_parallelism", Json::from(cpus as u64)),
                ("homes_per_sec_single", Json::Float(round3(single_rate))),
            ]),
        ),
        (
            "journal",
            obj([
                (
                    "description",
                    Json::from(
                        "single-worker morning fleet with the per-home execution \
                         journal enabled (every lifecycle/side-effect/deferral \
                         record appended); digest-neutral per home vs the \
                         unjournaled run, gated at >= 0.5x of the event_loop \
                         baseline rate",
                    ),
                ),
                ("available_parallelism", Json::from(cpus as u64)),
                ("homes_per_sec_single", Json::Float(round3(journal_rate))),
                (
                    "unjournaled_homes_per_sec_single",
                    Json::Float(round3(single_rate)),
                ),
                (
                    "overhead_ratio_vs_unjournaled",
                    Json::Float(round3(journal_rate / single_rate)),
                ),
                (
                    "records_per_home_avg",
                    Json::Float(round3(journal_records as f64 / homes as f64)),
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
                         (footprints, conflict-window prediction, hazard rules; spec \
                         construction included); gate_digest_neutral checks that the \
                         lint-gated fleet driver reproduces the ungated per-home \
                         results byte for byte",
                    ),
                ),
                ("available_parallelism", Json::from(cpus as u64)),
                ("lints_per_sec", Json::Float(round3(lint_rate))),
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
    // Homes are independent, so on a machine with real parallelism the
    // multi-thread configurations must beat single-thread. On one core
    // the ratio is scheduling noise, so it is recorded but not enforced.
    if cpus > 1 && best_multi <= single_rate {
        eprintln!(
            "FAIL: multi-thread throughput ({best_multi:.1}/s) not above single-thread \
             ({single_rate:.1}/s) on a {cpus}-core machine"
        );
        std::process::exit(1);
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}
