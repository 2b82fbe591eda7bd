//! The traced pass (`--trace`): per-layer costs timed from outside,
//! around the library calls of each layer, and a Chrome trace-event file
//! with one span per runner call, spec build, planner call, home,
//! sub-run, merge and recover.
//!
//! Layer costs add up by construction: the runner's callback time plus
//! the sequential cost of every home (or, for a split home, of its
//! sub-runs and merge), plus the named `overhead_share` residual, is the
//! runner's wall time × workers. Per-step timings are aggregated, not
//! emitted as spans. Nothing here feeds a sink or a journal replay, so
//! the results it checks are the untraced ones.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use safehome_bench::experiments::fig15d_insertion::{random_routine, resident_state};
use safehome_core::runtime::RoutineRun;
use safehome_core::sched::timeline;
use safehome_core::{EngineConfig, VisibilityModel};
use safehome_harness::{
    build_sub_specs, home_seed, merge_sub_runs, recover, Driver, HomeRuntime, Step, SubRun,
    SubRunLog,
};
use safehome_lint::cluster;
use safehome_sim::SimRng;
use safehome_types::json::{obj, Json};
use safehome_types::sink::{RunCounters, TraceSink};
use safehome_types::trace::{OrderItem, TraceEventKind};
use safehome_types::{DeviceId, Routine, RoutineId, Timestamp, Value};

use crate::stats::median;
use crate::workloads::{self, thread_id, CallKind, Inputs, RunnerRun, CHECK_STRIDE};

/// Every per-layer metric, with its unit, in report order. A layer the
/// workload does not load reports 0.
pub const LAYER_METRICS: [(&str, &str); 37] = [
    ("workloads.spec_build_us", "us"),
    ("lint.plan_ms", "ms"),
    ("lint.plan_share_of_setup", "fraction"),
    ("lint.split_homes", "count"),
    ("lint.clusters", "count"),
    ("runtime.events", "count"),
    ("runtime.events_per_routine", "events/routine"),
    ("runtime.step_ns.p50", "ns"),
    ("runtime.step_ns.p99", "ns"),
    ("runtime.self_ns_per_event", "ns"),
    ("runtime.step_ns.first_quarter", "ns"),
    ("runtime.step_ns.last_quarter", "ns"),
    ("runtime.home_ms.p50", "ms"),
    ("runtime.home_ms.max", "ms"),
    ("sink.calls_per_event", "calls/event"),
    ("sink.ns_per_call", "ns"),
    ("sink.share", "fraction"),
    ("sink.finish_us", "us"),
    ("fleet.overhead_share", "fraction"),
    ("service.overhead_share", "fraction"),
    ("service.slices_per_routine", "slices/routine"),
    ("service.steals_per_slice", "steals/slice"),
    ("service.peak_resident_homes", "count"),
    ("service.resident_home_kib", "KiB"),
    ("service.evicted_home_kib", "KiB"),
    ("service.evictions_per_routine", "count/routine"),
    ("service.recoveries_per_routine", "count/routine"),
    ("journal.records_per_routine", "records/routine"),
    ("journal.bytes_per_routine", "B/routine"),
    ("journal.append_overhead", "ratio"),
    ("journal.replay_ns_per_record", "ns"),
    ("intra.subrun_over_sequential", "ratio"),
    ("intra.merge_ms", "ms"),
    ("intra.build_sub_specs_us", "us"),
    ("timeline.place_us.paper", "us"),
    ("timeline.place_us.contended", "us"),
    ("trace_overhead", "ratio"),
];

/// A [`TraceSink`] that times every call into the sink it wraps. It
/// forwards each call unchanged, so the wrapped sink ends up exactly as
/// it would without the wrapper.
#[derive(Debug)]
pub struct TimedSink<S> {
    inner: S,
    /// Calls to `record_submission` and `record`.
    calls: u64,
    /// Time inside those calls.
    ns: u64,
    /// Time inside `finish`.
    finish_ns: u64,
}

impl<S> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            calls: 0,
            ns: 0,
            finish_ns: 0,
        }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn record_submission(&mut self, id: RoutineId, routine: &Routine, at: Timestamp) {
        let t = Instant::now();
        self.inner.record_submission(id, routine, at);
        self.ns += ns_since(t);
        self.calls += 1;
    }

    fn record(&mut self, at: Timestamp, kind: TraceEventKind) {
        let t = Instant::now();
        self.inner.record(at, kind);
        self.ns += ns_since(t);
        self.calls += 1;
    }

    fn pop_boundary(&mut self) {
        self.inner.pop_boundary();
    }

    fn finish(
        &mut self,
        final_order: Vec<OrderItem>,
        end_states: BTreeMap<DeviceId, Value>,
        committed_states: &BTreeMap<DeviceId, Value>,
    ) {
        let t = Instant::now();
        self.inner.finish(final_order, end_states, committed_states);
        self.finish_ns += ns_since(t);
    }
}

/// One span of the trace file.
struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    home: Option<usize>,
    tid: u64,
    start: Instant,
    end: Instant,
}

/// In-memory span recorder, written out once the pass ends.
struct Tracer {
    epoch: Instant,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A fresh span id (0 is "no parent").
    fn id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// A span on the calling thread that ends now.
    fn close(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        home: Option<usize>,
        start: Instant,
    ) {
        self.spans.push(Span {
            name,
            id,
            parent,
            home,
            tid: thread_id(),
            start,
            end: Instant::now(),
        });
    }

    /// Chrome trace-event JSON: complete (`X`) events in µs since the
    /// benchmark started; `id` is the home, so spans of one home share
    /// it, and `args` carries the span and parent ids.
    fn to_json(&self) -> Json {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![
                    ("span".to_string(), Json::from(s.id)),
                    ("parent".to_string(), Json::from(s.parent)),
                ];
                let mut event = vec![
                    ("name".to_string(), Json::from(s.name)),
                    ("cat".to_string(), Json::from("safehome")),
                    ("ph".to_string(), Json::from("X")),
                    ("ts".to_string(), Json::Float(us(s.start))),
                    (
                        "dur".to_string(),
                        Json::Float(s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6),
                    ),
                    ("pid".to_string(), Json::from(1u64)),
                    ("tid".to_string(), Json::from(s.tid)),
                ];
                if let Some(home) = s.home {
                    args.push(("home".to_string(), Json::from(home as u64)));
                    event.push(("id".to_string(), Json::from(home as u64)));
                }
                event.push(("args".to_string(), Json::Obj(args)));
                Json::Obj(event)
            })
            .collect();
        obj([
            ("displayTimeUnit", Json::from("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

/// What the traced pass measured and checked.
pub struct Traced {
    /// Every [`LAYER_METRICS`] entry, in order: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Homes checked against the sequential reference.
    pub attempted: u64,
    /// Homes whose traced runner, stepped, journaled or merged result
    /// differed from the sequential reference, or that did not quiesce.
    pub failed: u64,
    /// The Chrome trace-event document.
    pub trace: Json,
}

/// Runs the traced pass: one instrumented runner call, then sequential
/// per-home passes (plain, stepped, journaled, clustered) and the
/// placement microbenchmark. `untraced_wall_s` is the untraced runner's
/// median wall time, the base of `trace_overhead`.
pub fn trace(
    inputs: &Inputs,
    fleet_seed: u64,
    workers: usize,
    untraced_wall_s: f64,
    epoch: Instant,
) -> Traced {
    let mut tracer = Tracer {
        epoch,
        next: 0,
        spans: Vec::new(),
    };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let homes = inputs.homes;
    let mut failed = 0u64;

    // ---- The instrumented runner call --------------------------------
    let run = workloads::run(inputs, fleet_seed, workers, true);
    let runner_span = tracer.id();
    let hooks_start = run.hooks.start;
    tracer.spans.push(Span {
        name: "runner",
        id: runner_span,
        parent: 0,
        home: None,
        tid: thread_id(),
        start: hooks_start,
        end: hooks_start + Duration::from_secs_f64(run.wall_s),
    });
    let (mut spec_ns, mut spec_calls, mut plan_ns) = (0u64, 0u64, 0u64);
    let (mut split_homes, mut clusters) = (0u64, 0u64);
    for c in run.hooks.calls() {
        let name = match c.kind {
            CallKind::SpecBuild => {
                spec_ns += c.end_ns - c.start_ns;
                spec_calls += 1;
                "spec_build"
            }
            CallKind::Plan => {
                plan_ns += c.end_ns - c.start_ns;
                if c.clusters >= 2 {
                    split_homes += 1;
                    clusters += c.clusters as u64;
                }
                "plan"
            }
        };
        let at = |ns: u64| hooks_start + Duration::from_nanos(ns);
        let id = tracer.id();
        tracer.spans.push(Span {
            name,
            id,
            parent: runner_span,
            home: Some(c.home),
            tid: c.tid,
            start: at(c.start_ns),
            end: at(c.end_ns),
        });
    }
    m.insert(
        "workloads.spec_build_us",
        spec_ns as f64 / 1e3 / spec_calls.max(1) as f64,
    );
    m.insert("lint.plan_ms", plan_ns as f64 / 1e6);
    m.insert(
        "lint.plan_share_of_setup",
        if run.setup_in_call_s > 0.0 {
            plan_ns as f64 / 1e9 / run.setup_in_call_s
        } else {
            0.0
        },
    );
    m.insert("lint.split_homes", split_homes as f64);
    m.insert("lint.clusters", clusters as f64);
    m.insert("trace_overhead", run.wall_s / untraced_wall_s);
    service_metrics(&run, &mut m);

    // ---- Sequential reference pass: per-home cost --------------------
    let pass = tracer.id();
    let pass_start = Instant::now();
    let mut reference = Vec::with_capacity(homes);
    let mut home_ns = Vec::with_capacity(homes);
    for home in 0..homes {
        let spec = inputs.spec(home, home_seed(fleet_seed, home as u64));
        let id = tracer.id();
        let t = Instant::now();
        let (counters, completed) = workloads::run_alone(&spec);
        home_ns.push(ns_since(t));
        tracer.close("home", id, pass, Some(home), t);
        let runner_home = &run.homes[home];
        if !completed || runner_home.counters != counters || !runner_home.completed {
            failed += 1;
        }
        reference.push(counters);
    }
    tracer.close("sequential_pass", pass, 0, None, pass_start);
    let mut home_ms: Vec<f64> = home_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    home_ms.sort_by(|a, b| a.total_cmp(b));
    m.insert("runtime.home_ms.p50", median(&home_ms));
    m.insert("runtime.home_ms.max", home_ms[home_ms.len() - 1]);

    // ---- Stepped pass: per-event cost and the sink's share -----------
    let horizon_ms = inputs.workload.horizon().as_millis().max(1);
    // Every `STEP_SAMPLE`-th step's time feeds the quantiles: a storm of
    // probe events makes tens of millions of steps.
    const STEP_SAMPLE: u64 = 8;
    let mut sampled: Vec<u32> = Vec::new();
    let mut events = 0u64;
    let (mut step_ns, mut sink_ns, mut sink_calls, mut finish_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut quarter_ns = [0u64; 4];
    let mut quarter_events = [0u64; 4];
    for (home, expected) in reference.iter().enumerate() {
        let spec = inputs.spec(home, home_seed(fleet_seed, home as u64));
        let mut driver = Driver::with_sink(&spec, TimedSink::new(RunCounters::new()));
        loop {
            let sink_before = driver.sink().ns;
            let t = Instant::now();
            let step = driver.step();
            let dt = ns_since(t);
            match step {
                Step::Event(at) => {
                    if events.is_multiple_of(STEP_SAMPLE) {
                        sampled.push(dt.min(u32::MAX as u64) as u32);
                    }
                    events += 1;
                    step_ns += dt;
                    sink_ns += driver.sink().ns - sink_before;
                    let q = (at.as_millis() * 4 / horizon_ms).min(3) as usize;
                    quarter_ns[q] += dt;
                    quarter_events[q] += 1;
                }
                Step::Idle => {}
                Step::Quiescent | Step::Stalled => break,
            }
        }
        let (sink, _, completed) = driver.into_output();
        sink_calls += sink.calls;
        finish_ns += sink.finish_ns;
        if !completed || sink.into_inner() != *expected {
            failed += 1;
        }
    }
    let events = events as f64;
    let routines: u64 = reference.iter().map(|c| c.committed + c.aborted).sum();
    m.insert("runtime.events", events);
    m.insert(
        "runtime.events_per_routine",
        events / routines.max(1) as f64,
    );
    m.insert("runtime.step_ns.p50", exact_quantile(&mut sampled, 0.50));
    m.insert("runtime.step_ns.p99", exact_quantile(&mut sampled, 0.99));
    m.insert(
        "runtime.self_ns_per_event",
        (step_ns - sink_ns) as f64 / events.max(1.0),
    );
    m.insert(
        "runtime.step_ns.first_quarter",
        quarter_ns[0] as f64 / quarter_events[0].max(1) as f64,
    );
    m.insert(
        "runtime.step_ns.last_quarter",
        quarter_ns[3] as f64 / quarter_events[3].max(1) as f64,
    );
    m.insert("sink.calls_per_event", sink_calls as f64 / events.max(1.0));
    m.insert(
        "sink.ns_per_call",
        sink_ns as f64 / sink_calls.max(1) as f64,
    );
    m.insert("sink.share", sink_ns as f64 / step_ns.max(1) as f64);
    m.insert(
        "sink.finish_us",
        finish_ns as f64 / 1e3 / homes.max(1) as f64,
    );

    // ---- Journal pass: append cost, size and replay ------------------
    let pass = tracer.id();
    let pass_start = Instant::now();
    let (mut plain_ns, mut journaled_ns, mut replay_ns) = (0u64, 0u64, 0u64);
    let (mut records, mut bytes, mut journal_routines) = (0u64, 0u64, 0u64);
    for home in (0..homes).step_by(CHECK_STRIDE) {
        let spec = inputs.spec(home, home_seed(fleet_seed, home as u64));
        let t = Instant::now();
        workloads::run_alone(&spec);
        plain_ns += ns_since(t);
        let home_span = tracer.id();
        let home_start = Instant::now();
        let t = Instant::now();
        let mut driver = Driver::with_journal(&spec, RunCounters::new());
        driver.run_to_quiescence();
        let (journal, backend) = driver.crash();
        journaled_ns += ns_since(t);
        records += journal.len() as u64;
        bytes += journal.approx_bytes() as u64;
        journal_routines += reference[home].committed + reference[home].aborted;
        let recover_span = tracer.id();
        let t = Instant::now();
        let recovered = recover(
            journal,
            spec.config.clone(),
            &spec.submissions,
            RunCounters::new(),
        );
        replay_ns += ns_since(t);
        tracer.close("recover", recover_span, home_span, Some(home), t);
        // Resumed on the surviving world, the replayed home must end
        // exactly where the uncrashed run did.
        let same = recovered.is_ok_and(|r| {
            let mut resumed = HomeRuntime::resume(r.core, backend);
            let completed = resumed.run_to_quiescence();
            completed && resumed.into_output().0 == reference[home]
        });
        if !same {
            failed += 1;
        }
        tracer.close("journal_home", home_span, pass, Some(home), home_start);
    }
    tracer.close("journal_pass", pass, 0, None, pass_start);
    m.insert(
        "journal.records_per_routine",
        records as f64 / journal_routines.max(1) as f64,
    );
    m.insert(
        "journal.bytes_per_routine",
        bytes as f64 / journal_routines.max(1) as f64,
    );
    m.insert(
        "journal.append_overhead",
        journaled_ns as f64 / plain_ns.max(1) as f64,
    );
    m.insert(
        "journal.replay_ns_per_record",
        replay_ns as f64 / records.max(1) as f64,
    );

    // ---- Intra pass: sub-runs and merge of the homes the planner split
    let mut unit_ns = home_ns.clone();
    let (mut sub_ns, mut split_seq_ns, mut merge_ns, mut build_ns, mut merged_homes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    if split_homes > 0 {
        let pass = tracer.id();
        let pass_start = Instant::now();
        for home in 0..homes {
            let spec = inputs.spec(home, home_seed(fleet_seed, home as u64));
            let Some(partition) = cluster::plan(&spec) else {
                continue;
            };
            let home_span = tracer.id();
            let home_start = Instant::now();
            let t = Instant::now();
            let sub_specs = build_sub_specs(&spec, &partition);
            let built = ns_since(t);
            let mut subs = Vec::with_capacity(sub_specs.len());
            let mut ran = 0;
            for sub in &sub_specs {
                let id = tracer.id();
                let t = Instant::now();
                let mut driver = Driver::with_sink_traced(sub, SubRunLog::new());
                let completed = driver.run_to_quiescence();
                let funnel = driver.backend_mut().take_funnel_log();
                let (log, _, _) = driver.into_output();
                subs.push(SubRun {
                    log,
                    funnel,
                    completed,
                });
                ran += ns_since(t);
                tracer.close("sub_run", id, home_span, Some(home), t);
            }
            let id = tracer.id();
            let t = Instant::now();
            let merged = merge_sub_runs(&spec, &partition, subs);
            let merged_in = ns_since(t);
            tracer.close("merge", id, home_span, Some(home), t);
            tracer.close("split_home", home_span, pass, Some(home), home_start);
            if merged.as_ref() != Some(&reference[home]) {
                failed += 1;
            }
            build_ns += built;
            sub_ns += ran;
            merge_ns += merged_in;
            split_seq_ns += home_ns[home];
            merged_homes += 1;
            unit_ns[home] = built + ran + merged_in;
        }
        tracer.close("intra_pass", pass, 0, None, pass_start);
    }
    m.insert(
        "intra.subrun_over_sequential",
        sub_ns as f64 / split_seq_ns.max(1) as f64,
    );
    m.insert(
        "intra.merge_ms",
        merge_ns as f64 / 1e6 / merged_homes.max(1) as f64,
    );
    m.insert(
        "intra.build_sub_specs_us",
        build_ns as f64 / 1e3 / merged_homes.max(1) as f64,
    );

    // ---- The runner's own overhead: what the layers do not explain ---
    let capacity_ns = run.wall_s * 1e9 * workers as f64;
    let explained = (spec_ns + plan_ns + unit_ns.iter().sum::<u64>()) as f64;
    let residual = 1.0 - explained / capacity_ns;
    let (fleet, service) = if inputs.workload.is_service() {
        (0.0, residual)
    } else {
        (residual, 0.0)
    };
    m.insert("fleet.overhead_share", fleet);
    m.insert("service.overhead_share", service);

    m.insert("timeline.place_us.paper", place_us(15, 30));
    m.insert("timeline.place_us.contended", place_us(3, 200));

    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = *m
                .get(name)
                .unwrap_or_else(|| panic!("the traced pass measures {name}"));
            (name, value, unit)
        })
        .collect();
    Traced {
        metrics,
        attempted: homes as u64,
        failed,
        trace: tracer.to_json(),
    }
}

/// The service runner's own counters, per finished routine.
fn service_metrics(run: &RunnerRun, m: &mut BTreeMap<&'static str, f64>) {
    let routines = run.finished().max(1) as f64;
    let s = run.service.as_ref();
    let slices = s.map_or(0, |s| s.slices) as f64;
    m.insert("service.slices_per_routine", slices / routines);
    m.insert(
        "service.steals_per_slice",
        s.map_or(0, |s| s.steals()) as f64 / slices.max(1.0),
    );
    m.insert(
        "service.peak_resident_homes",
        s.map_or(0, |s| s.peak_resident_homes) as f64,
    );
    m.insert(
        "service.resident_home_kib",
        s.map_or(0, |s| s.approx_resident_home_bytes) as f64 / 1024.0,
    );
    m.insert(
        "service.evicted_home_kib",
        s.map_or(0, |s| s.approx_evicted_home_bytes) as f64 / 1024.0,
    );
    m.insert(
        "service.evictions_per_routine",
        s.map_or(0, |s| s.evictions) as f64 / routines,
    );
    m.insert(
        "service.recoveries_per_routine",
        s.map_or(0, |s| s.recoveries) as f64 / routines,
    );
}

/// Exact `q`-quantile (nearest rank) of `xs`, reordering it.
fn exact_quantile(xs: &mut [u32], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    *xs.select_nth_unstable(rank - 1).1 as f64
}

/// Median µs of one Timeline placement of an 8-command routine against
/// `routines` 4-command routines resident on `devices` devices: the
/// paper's Fig. 15d state at (15, 30), a contended one at (3, 200).
fn place_us(devices: usize, routines: usize) -> f64 {
    const BATCHES: usize = 7;
    const PER_BATCH: u32 = 200;
    let (table, order) = resident_state(devices, routines);
    let cfg = EngineConfig::new(VisibilityModel::ev());
    let mut rng = SimRng::seed_from_u64(7);
    let run = RoutineRun::new(
        RoutineId(routines as u64 + 1),
        random_routine(devices, 8, &mut rng),
        Timestamp::ZERO,
    );
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..PER_BATCH {
                std::hint::black_box(timeline::place(
                    std::hint::black_box(&run),
                    &table,
                    &order,
                    &cfg,
                    Timestamp::ZERO,
                    &|_, _| true,
                    &[],
                ));
            }
            t.elapsed().as_secs_f64() * 1e6 / PER_BATCH as f64
        })
        .collect();
    median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safehome_workloads::{
        neighborhood_home, service_home, FleetTemplate, NeighborhoodParams, NeighborhoodPlan,
        ServiceParams,
    };

    /// Runs `spec` with and without the wrapper; both must match.
    fn assert_transparent(spec: &safehome_harness::RunSpec) {
        let (plain, _) = workloads::run_alone(spec);
        let mut driver = Driver::with_sink(spec, TimedSink::new(RunCounters::new()));
        assert!(driver.run_to_quiescence());
        let (timed, _, _) = driver.into_output();
        assert!(timed.calls > 0 && timed.ns > 0);
        assert_eq!(timed.into_inner(), plain);
    }

    #[test]
    fn timed_sink_is_transparent() {
        let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
        // A storm-center neighborhood home: 40 ms probes through an
        // outage, so detections, aborts and rollback all reach the sink.
        let plan = NeighborhoodPlan::generate(3, 256, &NeighborhoodParams::default());
        let storm = (0..256)
            .find(|&h| {
                plan.outage(h)
                    .is_some_and(|o| o.ping == safehome_types::TimeDelta::from_millis(40))
            })
            .expect("256 homes hold a storm center");
        assert_transparent(&neighborhood_home(
            &template,
            &plan,
            storm,
            home_seed(3, storm as u64),
        ));
        let params = ServiceParams::new(safehome_types::TimeDelta::from_mins(120), 60);
        assert_transparent(&service_home(&template, &params, home_seed(3, 1)));
    }

    #[test]
    fn traced_pass_reports_every_layer_and_checks_out() {
        let inputs = Inputs::new(workloads::Workload::WorkshopIntra, 4);
        let epoch = Instant::now();
        let traced = trace(&inputs, 5, 2, 1.0, epoch);
        assert_eq!(traced.failed, 0);
        assert_eq!(traced.metrics.len(), LAYER_METRICS.len());
        let get = |name: &str| traced.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(get("lint.split_homes"), 1.0, "the one workshop splits");
        assert_eq!(get("lint.clusters"), 6.0);
        assert!(get("runtime.events") > 0.0);
        assert!(traced.trace.get("traceEvents").is_some());
    }
}
