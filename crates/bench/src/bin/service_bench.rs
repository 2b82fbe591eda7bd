//! `service_bench` — the resident service runner's committed,
//! machine-independent artifact (`BENCH_service.json`).
//!
//! Where `fleet_bench` covers the batch path (run every home to
//! quiescence, then stop), this bin covers the *serving* shape: every
//! home stays resident over an hours-long simulated horizon while an
//! open-loop arrival process (seeded Poisson on a one-second lattice,
//! diurnal rate curve, fleet-seed burst windows — see
//! `safehome_workloads::scenarios::service`) keeps submitting routines.
//! The resident runner (`safehome_harness::run_service`) advances homes
//! in epoch slices off one timer wheel shared by every worker.
//!
//! Every number it writes is deterministic — outcome counts, slice
//! counts, simulated-time latency percentiles, eviction counts of a
//! single-worker run, cluster counts, event counts and correctness flags
//! — so a re-run on any machine reproduces the committed file byte for
//! byte, and `git diff` is the regression gate. Wall-clock performance
//! is measured by the repository benchmark (`perfbench/`), not here.
//!
//! For each load point (arrivals per home-hour) the bin records offered
//! vs finished routines (open-loop: offered load does not bend to
//! completion rate), the slice count, and submission-latency
//! percentiles p50/p95/p99/p999 in simulated milliseconds from the
//! constant-memory fleet histogram. Two further sections exercise the
//! scale-out knobs:
//!
//! - `eviction`: a calm fleet under a `max_resident` budget —
//!   evictions, recoveries, peak residency and approximate per-home
//!   resident vs evicted bytes of a one-worker run; results must be
//!   byte-identical to the never-evicted run (`digest_neutral`).
//! - `intra_home`: a fleet led by one zoned-workshop home heavy enough
//!   to floor the whole-home makespan, split by the lint cluster planner
//!   into independent sub-drivers — modeled makespan whole-home vs
//!   sub-sliced in popped events over the same sub-specs the runner
//!   executes, split/fallback counts, and byte-identity of every home
//!   against the sequential reference (`digest_neutral`).
//!
//! Cross-checks, recorded in the JSON and enforced by exit status:
//! per-home results and slice counts identical across worker counts,
//! eviction on/off and planner on/off; identical to the batch
//! `run_fleet` driver on the same specs; the eviction budget binds; the
//! workshop splits into one cluster per zone with no merge fallback and
//! a modeled speedup of at least [`MIN_INTRA_SPEEDUP`].
//!
//! Usage:
//! ```text
//! cargo run -p safehome-bench --release --bin service_bench \
//!     [out.json]
//! ```

use safehome_core::{EngineConfig, VisibilityModel};
use safehome_harness::{
    build_sub_specs, home_seed, run_fleet, run_service, run_service_with, Driver, HomeRun, RunSpec,
    ServiceConfig, ServiceResult, Step,
};
use safehome_lint::cluster;
use safehome_types::json::{obj, Json};
use safehome_types::sink::RunCounters;
use safehome_types::TimeDelta;
use safehome_workloads::{
    service_home, zoned_fleet_home, FleetTemplate, ServiceParams, ZoneParams,
};

/// Worker-thread counts compared per load point.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
/// Fleet seed of the service sections (also seeds the burst windows).
const SERVICE_SEED: u64 = 0x5afe_0a11;
/// Mean arrivals per home-hour at each load point.
const LOAD_POINTS: [u64; 3] = [30, 60, 120];
/// Epoch slice length the resident runner is driven at.
const EPOCH: TimeDelta = TimeDelta::from_secs(10);
/// Fleet-wide burst windows drawn from the seed per load point.
const BURSTS: usize = 2;
/// Fleet size and arrival horizon of the load points.
const HOMES: usize = 600;
const HORIZON_MINS: u64 = 120;

/// Fleet size and arrival horizon of the eviction section.
const EVICT_HOMES: usize = 96;
const EVICT_HORIZON_MINS: u64 = 60;
/// Resident-home budget of the eviction section (1/8 of the fleet).
const EVICT_BUDGET: usize = EVICT_HOMES / 8;
/// Arrival rate of the eviction section's calm fleet. Eviction targets
/// *cold* homes (engine quiescent between arrival clusters); at busy
/// service rates most homes are mid-routine most of the time — morning
/// catalog routines hold actuations for minutes — so a calm overnight
/// rate is the shape the resident budget exists for.
const EVICT_RATE: u64 = 6;

/// Intra-home section: a zoned workshop (home 0) so heavy it dominates
/// the whole-home makespan bound, leading an ordinary light fleet.
/// Whole-home scheduling is floored at the heaviest *home*;
/// cluster sub-slicing is floored at the heaviest *cluster*, a ~zones×
/// smaller unit — that gap is the section's modeled speedup.
const INTRA_HOMES: usize = 24;
const INTRA_ZONES: usize = 6;
const INTRA_RPZ: usize = 200;
const INTRA_WORKERS: usize = 4;
/// Arrival rate / horizon of the light homes.
const INTRA_RATE: u64 = 20;
const INTRA_HORIZON_MINS: u64 = 30;
/// Smallest modeled sub-slicing speedup over whole-home scheduling the
/// bin accepts.
const MIN_INTRA_SPEEDUP: f64 = 1.3;

/// Work-conserving makespan bound: workers pop epoch slices off one
/// shared wheel, so work moves at slice granularity (a near-preemptive
/// schedule) and converges to `max(total/workers, max single-unit
/// cost)` — the lower bound any schedule of those units can only
/// approach.
fn makespan_bound(costs: &[u64], workers: usize) -> f64 {
    let total: u64 = costs.iter().sum();
    let largest = costs.iter().copied().max().unwrap_or(0);
    (total as f64 / workers as f64).max(largest as f64)
}

/// Runs `spec` alone to quiescence on a plain driver; returns its
/// counters, whether it quiesced, and how many backend events it popped
/// (the modeled makespan's deterministic cost unit).
fn run_counted(spec: &RunSpec) -> (RunCounters, bool, u64) {
    let mut driver = Driver::with_sink(spec, RunCounters::new());
    let mut events = 0u64;
    let completed = loop {
        match driver.step() {
            Step::Event(_) => events += 1,
            Step::Idle => {}
            Step::Quiescent => break true,
            Step::Stalled => break false,
        }
    };
    let (counters, _, _) = driver.into_output();
    (counters, completed, events)
}

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

/// `same_homes` plus an equal slice count: slice boundaries come from
/// each unit's own queue, so the count is worker-independent too.
fn same_run(label: &str, a: &ServiceResult, b: &ServiceResult) -> bool {
    if a.slices != b.slices {
        eprintln!("{label}: {} slices vs {}", b.slices, a.slices);
        return false;
    }
    same_homes(label, &a.homes, &b.homes)
}

fn percentiles_obj(r: &ServiceResult) -> Json {
    let p = |q: f64| Json::from(r.latency.percentile(q).expect("non-empty histogram"));
    obj([
        ("count", Json::from(r.latency.count())),
        ("p50", p(0.50)),
        ("p95", p(0.95)),
        ("p99", p(0.99)),
        ("p999", p(0.999)),
        ("max", Json::from(r.latency.max())),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_service.json".to_string());
    let horizon = TimeDelta::from_mins(HORIZON_MINS);

    let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
    let mut ok = true;

    let mut load_rows = Vec::new();
    let mut deterministic = true;
    let mut matches_batch = true;
    for rate in LOAD_POINTS {
        let params = ServiceParams::new(horizon, rate).with_bursts_from_seed(SERVICE_SEED, BURSTS);
        let make_spec = |_: usize, seed: u64| service_home(&template, &params, seed);

        let runs: Vec<ServiceResult> = WORKER_COUNTS
            .iter()
            .map(|&workers| {
                let result = run_service(HOMES, workers, SERVICE_SEED, EPOCH, make_spec);
                assert!(
                    result.all_completed(),
                    "rate {rate}/h, {workers} workers: some homes failed to quiesce"
                );
                result
            })
            .collect();

        // Determinism: byte-identical per-home results at every worker
        // count (the resident wheel must not perturb any home).
        let base = &runs[0];
        for (workers, result) in WORKER_COUNTS.iter().zip(&runs).skip(1) {
            deterministic &= same_run(&format!("rate {rate}/h @ {workers} workers"), base, result);
        }

        // Batch parity: the time-sliced resident path must reproduce
        // the run-to-completion fleet driver byte for byte.
        let batch = run_fleet(HOMES, 2, SERVICE_SEED, make_spec);
        if batch.homes != base.homes {
            eprintln!("rate {rate}/h: resident results diverged from the batch fleet driver");
            matches_batch = false;
        }

        let offered = base.offered();
        let finished = base.finished();
        assert!(
            !base.latency.is_empty(),
            "rate {rate}/h: the fleet finished no routines"
        );
        eprintln!(
            "rate {rate}/h: {HOMES} resident homes over {HORIZON_MINS} simulated minutes, \
             {} slices, offered {offered}, finished {finished} (p50 {}ms, p99 {}ms, \
             p999 {}ms, digest {:#018x})",
            base.slices,
            base.latency.percentile(0.50).unwrap(),
            base.latency.percentile(0.99).unwrap(),
            base.latency.percentile(0.999).unwrap(),
            base.digest()
        );
        load_rows.push(obj([
            ("rate_per_home_hour", Json::from(rate)),
            ("offered", Json::from(offered)),
            ("committed", Json::from(base.committed())),
            ("aborted", Json::from(base.aborted())),
            (
                "completed_fraction",
                Json::Float(round3(finished as f64 / offered.max(1) as f64)),
            ),
            ("slices", Json::from(base.slices)),
            ("latency_ms", percentiles_obj(base)),
        ]));
    }
    ok &= deterministic && matches_batch;

    // ---- Eviction section: bounded residency on a calm fleet -------
    //
    // A separate low-rate fleet: eviction binds *cold* homes, and at
    // busy service rates most homes are legitimately warm (mid-routine
    // across epoch boundaries — catalog routines hold actuations for
    // minutes). The calm overnight shape is where a resident budget
    // pays off, and where the peak-residency number is meaningful. The
    // recorded counts come from one worker, whose pop order is fixed;
    // with more workers they depend on thread timing, so the two-worker
    // run is only checked for digest neutrality.
    let evict_params = ServiceParams::new(TimeDelta::from_mins(EVICT_HORIZON_MINS), EVICT_RATE);
    let evict_spec = |_: usize, seed: u64| service_home(&template, &evict_params, seed);
    let evict_run = |workers: usize, config: ServiceConfig| {
        run_service_with(EVICT_HOMES, workers, SERVICE_SEED, config, evict_spec)
    };
    let unbounded = evict_run(1, ServiceConfig::new(EPOCH));
    let budget = ServiceConfig::new(EPOCH).with_max_resident(EVICT_BUDGET);
    let evicted = evict_run(1, budget.clone());
    let evicted_2w = evict_run(2, budget);
    let digest_neutral = same_run("eviction", &unbounded, &evicted)
        & same_run("eviction @ 2 workers", &unbounded, &evicted_2w);
    let budget_binds = evicted.evictions > 0
        && evicted.recoveries > 0
        && evicted.peak_resident_homes < unbounded.peak_resident_homes;
    if !budget_binds {
        eprintln!("eviction: the resident budget never bound (no eviction, or no lower peak)");
    }
    ok &= digest_neutral && budget_binds;
    eprintln!(
        "eviction: budget {EVICT_BUDGET}/{EVICT_HOMES} resident homes at {EVICT_RATE}/h: \
         peak {} (vs {} unbounded), {} evictions, {} recoveries, ~{} resident vs ~{} \
         evicted bytes/home, digest-neutral: {digest_neutral}",
        evicted.peak_resident_homes,
        unbounded.peak_resident_homes,
        evicted.evictions,
        evicted.recoveries,
        evicted.approx_resident_home_bytes,
        evicted.approx_evicted_home_bytes,
    );
    let eviction_section = obj([
        (
            "description",
            Json::from(
                "eviction of cold resident homes: between slices a quiescent home \
                 keeps its runtime core (engine, sink, tables) beside a snapshot of \
                 its world (device states, RNG, its presorted arrival lane with the \
                 lane's cursor, and the released dependents its queue held, in pop \
                 order), and its queue and device storage return to the thread pool; \
                 the next timer fire resumes the kept core on a backend rebuilt from \
                 the snapshot — results must be byte-identical to a never-evicted run \
                 (digest_neutral); counts are from one worker",
            ),
        ),
        ("homes", Json::from(EVICT_HOMES as u64)),
        ("workers", Json::from(1u64)),
        ("rate_per_home_hour", Json::from(EVICT_RATE)),
        ("horizon_minutes", Json::from(EVICT_HORIZON_MINS)),
        ("max_resident", Json::from(EVICT_BUDGET as u64)),
        ("evictions", Json::from(evicted.evictions)),
        ("recoveries", Json::from(evicted.recoveries)),
        (
            "peak_resident_homes",
            Json::from(evicted.peak_resident_homes as u64),
        ),
        (
            "peak_resident_homes_unbounded",
            Json::from(unbounded.peak_resident_homes as u64),
        ),
        (
            "approx_resident_home_bytes",
            Json::from(evicted.approx_resident_home_bytes as u64),
        ),
        (
            "approx_evicted_home_bytes",
            Json::from(evicted.approx_evicted_home_bytes as u64),
        ),
        ("digest_neutral", Json::from(digest_neutral)),
    ]);

    // ---- Intra-home section: conflict-clustered sub-slicing --------
    //
    // One zoned workshop so heavy that whole-home scheduling is floored
    // at its sequential cost, leading an ordinary light fleet. The lint
    // cluster planner splits it into `INTRA_ZONES` independent
    // sub-drivers whose slices any worker pops like whole-home slices,
    // so the makespan floor drops to the heaviest *cluster* — while
    // per-home results stay byte-identical to the sequential run.
    let intra_base = ServiceParams::new(TimeDelta::from_mins(INTRA_HORIZON_MINS), INTRA_RATE);
    let intra_zone = ZoneParams::new(INTRA_ZONES, TimeDelta::from_mins(10), INTRA_RPZ);
    let intra_spec =
        |home: usize, seed: u64| zoned_fleet_home(&template, &intra_base, &intra_zone, home, seed);

    // Per-home sequential pass (the reference results and each home's
    // event count), then the heavy home's per-cluster event counts over
    // the same sub-specs the service runner executes.
    let mut intra_costs = Vec::with_capacity(INTRA_HOMES);
    let mut intra_reference = Vec::with_capacity(INTRA_HOMES);
    for home in 0..INTRA_HOMES {
        let seed = home_seed(SERVICE_SEED, home as u64);
        let (counters, completed, events) = run_counted(&intra_spec(home, seed));
        assert!(completed, "intra-home fleet home {home} failed to quiesce");
        intra_costs.push(events);
        intra_reference.push(HomeRun {
            home,
            seed,
            completed,
            counters,
        });
    }
    let heavy_spec = intra_spec(0, home_seed(SERVICE_SEED, 0));
    let partition = cluster::plan(&heavy_spec)
        .expect("the zoned workshop must pass the cluster gate and split");
    let cluster_costs: Vec<u64> = build_sub_specs(&heavy_spec, &partition)
        .iter()
        .map(|sub| {
            let (_, completed, events) = run_counted(sub);
            assert!(completed, "workshop cluster stalled");
            events
        })
        .collect();
    let intra_total: u64 = intra_costs.iter().sum();
    let heavy_cost = intra_costs[0];
    let max_cluster_cost = cluster_costs.iter().copied().max().unwrap_or(0);
    // Whole-home scheduling's floor is the heaviest home; sub-slicing
    // replaces that home's cost with its per-cluster costs and the
    // floor drops to the heaviest schedulable unit.
    let modeled_whole_home = makespan_bound(&intra_costs, INTRA_WORKERS);
    let mut unit_costs = cluster_costs.clone();
    unit_costs.extend_from_slice(&intra_costs[1..]);
    let modeled_intra = makespan_bound(&unit_costs, INTRA_WORKERS);
    let intra_ratio = modeled_whole_home / modeled_intra;
    eprintln!(
        "intra: {INTRA_HOMES} homes, workshop of {} clusters ({INTRA_ZONES} zones x \
         {INTRA_RPZ} routines) at {:.2} of all events; modeled @ {INTRA_WORKERS} \
         workers: whole-home {modeled_whole_home:.0} vs sub-sliced {modeled_intra:.0} \
         events = {intra_ratio:.2}x",
        partition.clusters.len(),
        heavy_cost as f64 / intra_total as f64
    );

    let split_runs: Vec<ServiceResult> = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            run_service_with(
                INTRA_HOMES,
                workers,
                SERVICE_SEED,
                ServiceConfig::new(EPOCH).with_intra_home(cluster::planner()),
                intra_spec,
            )
        })
        .collect();
    let split = &split_runs[0];
    let mut intra_neutral = same_homes("intra @ 1 worker", &intra_reference, &split.homes);
    for (workers, result) in WORKER_COUNTS.iter().zip(&split_runs).skip(1) {
        intra_neutral &= same_run(&format!("intra @ {workers} workers"), split, result);
        intra_neutral &= (result.intra_homes, result.intra_fallbacks)
            == (split.intra_homes, split.intra_fallbacks);
    }
    // The planner-off run over the same fleet: sub-slicing must change
    // the schedule only, never the results.
    let whole_home = run_service_with(
        INTRA_HOMES,
        INTRA_WORKERS,
        SERVICE_SEED,
        ServiceConfig::new(EPOCH),
        intra_spec,
    );
    intra_neutral &= same_homes("intra off", &intra_reference, &whole_home.homes);
    eprintln!(
        "intra: {} slices, {} split home(s), {} fallback(s), digest-neutral: {intra_neutral}",
        split.slices, split.intra_homes, split.intra_fallbacks
    );
    let split_as_planned = partition.clusters.len() == INTRA_ZONES
        && split.intra_homes >= 1
        && split.intra_fallbacks == 0
        && intra_ratio >= MIN_INTRA_SPEEDUP;
    if !split_as_planned {
        eprintln!(
            "intra: expected the workshop to split into {INTRA_ZONES} clusters with no \
             merge fallback and a modeled speedup >= {MIN_INTRA_SPEEDUP}x"
        );
    }
    ok &= intra_neutral && split_as_planned;
    let intra_section = obj([
        (
            "description",
            Json::from(
                "deterministic intra-home parallelism: the lint cluster planner splits \
                 a zoned workshop into disjoint conflict clusters, each an independent \
                 sub-driver whose epoch slices any worker pops like whole-home slices; the merge \
                 reconstructs the sequential pop order, so per-home counters and \
                 digests are byte-identical to the sequential run while the makespan \
                 floor drops from the heaviest home to the heaviest cluster",
            ),
        ),
        ("homes", Json::from(INTRA_HOMES as u64)),
        ("zones", Json::from(INTRA_ZONES as u64)),
        ("routines_per_zone", Json::from(INTRA_RPZ as u64)),
        ("workers", Json::from(INTRA_WORKERS as u64)),
        ("rate_per_home_hour", Json::from(INTRA_RATE)),
        ("horizon_minutes", Json::from(INTRA_HORIZON_MINS)),
        ("clusters", Json::from(partition.clusters.len() as u64)),
        ("sequential_events", Json::from(intra_total)),
        (
            "heavy_event_fraction",
            Json::Float(round3(heavy_cost as f64 / intra_total as f64)),
        ),
        ("max_cluster_events", Json::from(max_cluster_cost)),
        (
            "modeled_makespan",
            obj([
                (
                    "method",
                    Json::from(
                        "cost = backend events a unit pops when run alone: per home \
                         sequentially, per cluster over the same sub-specs the service \
                         runner executes; both bounds are work-conserving \
                         max(total/workers, heaviest unit) — the unit is a whole home \
                         without the planner and a conflict cluster with it",
                    ),
                ),
                ("whole_home_events", Json::Float(round3(modeled_whole_home))),
                ("intra_events", Json::Float(round3(modeled_intra))),
                (
                    "intra_speedup_over_whole_home",
                    Json::Float(round3(intra_ratio)),
                ),
            ]),
        ),
        ("slices", Json::from(split.slices)),
        ("intra_homes", Json::from(split.intra_homes)),
        ("intra_fallbacks", Json::from(split.intra_fallbacks)),
        ("digest_neutral", Json::from(intra_neutral)),
    ]);

    let doc = obj([
        ("benchmark", Json::from("service")),
        (
            "description",
            Json::from(
                "resident-fleet service mode: open-loop Poisson arrivals \
                 (diurnal curve + seeded burst windows) over resident homes, \
                 advanced in epoch slices off one shared timer wheel; latency \
                 percentiles are simulated-time milliseconds from the \
                 constant-memory fleet histogram; every value is deterministic; \
                 determinism, batch-parity and eviction-digest cross-checks \
                 are enforced",
            ),
        ),
        ("homes", Json::from(HOMES as u64)),
        ("fleet_seed", Json::from(SERVICE_SEED)),
        ("horizon_minutes", Json::from(HORIZON_MINS)),
        ("epoch_ms", Json::from(EPOCH.as_millis())),
        ("burst_windows", Json::from(BURSTS as u64)),
        (
            "workers",
            Json::Arr(WORKER_COUNTS.map(|w| Json::from(w as u64)).into()),
        ),
        ("deterministic_across_workers", Json::from(deterministic)),
        ("matches_batch_fleet", Json::from(matches_batch)),
        ("load_points", Json::Arr(load_rows)),
        ("eviction", eviction_section),
        ("intra_home", intra_section),
    ]);
    if let Err(e) = std::fs::write(&out_path, doc.to_string_pretty() + "\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    if !ok {
        eprintln!(
            "FAIL: resident service runs diverged across worker counts, from the batch \
             fleet driver or under eviction or sub-slicing, or an eviction or split \
             invariant broke"
        );
        std::process::exit(1);
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}
