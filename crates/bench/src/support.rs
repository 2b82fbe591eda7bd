//! Shared experiment infrastructure.

use safehome_core::{EngineConfig, SchedulerKind, VisibilityModel};
use safehome_harness::{run, Driver, RunSpec};
use safehome_metrics::{RunMetrics, Summary};
use safehome_types::sink::{self, RunCounters};

/// The four models compared throughout §7.
pub fn main_models() -> Vec<VisibilityModel> {
    vec![
        VisibilityModel::Wv,
        VisibilityModel::Psv,
        VisibilityModel::ev(),
        VisibilityModel::Gsv { strong: false },
    ]
}

/// The failure-handling models of §7.4 (adds S-GSV).
pub fn failure_models() -> Vec<VisibilityModel> {
    vec![
        VisibilityModel::ev(),
        VisibilityModel::Psv,
        VisibilityModel::Gsv { strong: false },
        VisibilityModel::Gsv { strong: true },
    ]
}

/// The three EV schedulers of §5.
pub fn schedulers() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Fcfs,
        SchedulerKind::Jit,
        SchedulerKind::Timeline,
    ]
}

/// Aggregated metrics over several trials of one configuration.
#[derive(Debug, Clone, Default)]
pub struct TrialAgg {
    /// Latency summary (ms), pooled across trials.
    pub latency: Summary,
    /// Per-routine normalized latency summary (latency / ideal runtime).
    pub norm_latency: Summary,
    /// Wait-time summary (ms), pooled.
    pub wait: Summary,
    /// Mean temporary incongruence across trials.
    pub temp_incongruence: f64,
    /// Mean parallelism level across trials.
    pub parallelism: f64,
    /// Mean abort rate.
    pub abort_rate: f64,
    /// Mean rollback overhead (over trials with aborts).
    pub rollback_overhead: f64,
    /// Mean order mismatch.
    pub order_mismatch: f64,
    /// Pooled stretch factors.
    pub stretch: Vec<f64>,
    /// Trials that failed to reach quiescence (must be 0).
    pub incomplete: usize,
}

/// Runs `trials` seeded runs of `make_spec` and aggregates the metrics.
pub fn run_trials(trials: u64, mut make_spec: impl FnMut(u64) -> RunSpec) -> TrialAgg {
    let mut latencies = Vec::new();
    let mut norm_latencies = Vec::new();
    let mut waits = Vec::new();
    let mut stretch = Vec::new();
    let mut agg = TrialAgg::default();
    let mut abort_trials = 0usize;
    for seed in 0..trials {
        let out = run(&make_spec(seed));
        if !out.completed {
            agg.incomplete += 1;
            continue;
        }
        let m = RunMetrics::of(&out.trace);
        latencies.extend(m.latencies_ms.iter().copied());
        norm_latencies.extend(m.normalized_latencies.iter().copied());
        waits.extend(m.waits_ms.iter().copied());
        stretch.extend(m.stretch.iter().copied());
        agg.temp_incongruence += m.temporary_incongruence;
        agg.parallelism += m.parallelism;
        agg.abort_rate += m.abort_rate;
        if m.abort_rate > 0.0 {
            agg.rollback_overhead += m.rollback_overhead;
            abort_trials += 1;
        }
        agg.order_mismatch += m.order_mismatch;
    }
    let n = (trials as usize - agg.incomplete).max(1) as f64;
    agg.temp_incongruence /= n;
    agg.parallelism /= n;
    agg.abort_rate /= n;
    agg.order_mismatch /= n;
    if abort_trials > 0 {
        agg.rollback_overhead /= abort_trials as f64;
    }
    agg.latency = Summary::of(&latencies);
    agg.norm_latency = Summary::of(&norm_latencies);
    agg.wait = Summary::of(&waits);
    agg.stretch = stretch;
    agg
}

/// Aggregated counters-path metrics over several trials of one
/// configuration — the cheap sibling of [`TrialAgg`].
///
/// Runs with the [`RunCounters`] sink instead of recording a full trace:
/// no per-event allocation, memory bounded by the home per trial, and a
/// deterministic digest that anchors the whole experiment (two builds
/// disagreeing on any event stream disagree on the digest). Carries
/// every scalar metric of [`TrialAgg`]: latency, abort rate, rollback
/// overhead, order mismatch, end-state congruence, the per-routine
/// distributions (normalized latency, waits, stretch — pooled vectors on
/// the sink since the runtime unification PR), and — via the sink's
/// in-flight write tracking — temporary incongruence and parallelism.
/// One sink is recycled across all trials ([`RunCounters::reset`]), so
/// the steady state of an experiment allocates nothing per trial.
///
/// Caveat: [`CounterAgg::latency`] pools *finished* routines (committed
/// and aborted), while [`TrialAgg::latency`] pools committed only; on
/// failure-free workloads the two are identical.
#[derive(Debug, Clone, Default)]
pub struct CounterAgg {
    /// Latency summary (ms) over finished routines, pooled across trials.
    pub latency: Summary,
    /// Per-routine normalized latency summary (latency / ideal runtime),
    /// committed routines pooled across trials.
    pub norm_latency: Summary,
    /// Wait-time summary (ms), pooled across trials.
    pub wait: Summary,
    /// Pooled stretch factors (committed routines).
    pub stretch: Vec<f64>,
    /// Mean abort rate (aborted / submitted) across trials.
    pub abort_rate: f64,
    /// Mean rollback overhead (over trials with aborts).
    pub rollback_overhead: f64,
    /// Mean order mismatch across trials.
    pub order_mismatch: f64,
    /// Mean temporary incongruence across trials (same §7.1 definition
    /// as the trace pass).
    pub temp_incongruence: f64,
    /// Mean parallelism level across trials.
    pub parallelism: f64,
    /// Trials whose end states were congruent with the committed view.
    pub congruent: usize,
    /// Trials that failed to reach quiescence (must be 0).
    pub incomplete: usize,
    /// Deterministic fold of the per-trial run digests.
    pub digest: u64,
}

/// Runs `trials` seeded runs of `make_spec` on the counters path and
/// aggregates the cheap metrics. See [`CounterAgg`] for what is (and is
/// not) available compared to [`run_trials`].
pub fn run_trials_counters(trials: u64, make_spec: impl FnMut(u64) -> RunSpec) -> CounterAgg {
    run_trials_counters_inspect(trials, make_spec, |_, _| {})
}

/// [`run_trials_counters`] with a per-trial hook over the finished
/// counters, for experiments that need a custom per-run statistic (e.g.
/// Fig. 1's end-state check) on top of the standard aggregation. The
/// hook also fires for incomplete trials (`counters.end_time` and the
/// digest are still meaningful there); aggregation skips them.
pub fn run_trials_counters_inspect(
    trials: u64,
    mut make_spec: impl FnMut(u64) -> RunSpec,
    mut inspect: impl FnMut(u64, &RunCounters),
) -> CounterAgg {
    let mut latencies = Vec::new();
    let mut norm_latencies = Vec::new();
    let mut waits = Vec::new();
    let mut agg = CounterAgg {
        digest: sink::DIGEST_SEED,
        ..CounterAgg::default()
    };
    let mut abort_trials = 0usize;
    // One sink serves every trial: `reset` keeps the vector and digest
    // buffer allocations, the same way the harness pools per-home state.
    let mut sink = RunCounters::new();
    for seed in 0..trials {
        let spec = make_spec(seed);
        let mut driver = Driver::with_sink(&spec, sink);
        let completed = driver.run_to_quiescence();
        let (c, _, _) = driver.into_output();
        inspect(seed, &c);
        if completed {
            latencies.extend(c.latencies_ms.iter().map(|&l| l as f64));
            norm_latencies.extend(c.normalized_latencies.iter().copied());
            waits.extend(c.waits_ms.iter().copied());
            agg.stretch.extend(c.stretch.iter().copied());
            agg.abort_rate += c.aborted as f64 / c.submitted.max(1) as f64;
            if c.aborted > 0 {
                agg.rollback_overhead += c.rollback_overhead();
                abort_trials += 1;
            }
            agg.order_mismatch += c.order_mismatch;
            agg.temp_incongruence += c.temporary_incongruence;
            agg.parallelism += c.parallelism;
            agg.congruent += c.congruent as usize;
            agg.digest = sink::fold_digest(agg.digest, c.digest);
        } else {
            agg.incomplete += 1;
        }
        sink = c;
        sink.reset();
    }
    let n = (trials as usize - agg.incomplete).max(1) as f64;
    agg.abort_rate /= n;
    agg.order_mismatch /= n;
    agg.temp_incongruence /= n;
    agg.parallelism /= n;
    if abort_trials > 0 {
        agg.rollback_overhead /= abort_trials as f64;
    }
    agg.latency = Summary::of(&latencies);
    agg.norm_latency = Summary::of(&norm_latencies);
    agg.wait = Summary::of(&waits);
    agg
}

/// Formats a counters digest for experiment output.
pub fn digest_line(label: &str, digest: u64) -> String {
    format!("{label} counters digest: {digest:#018x}\n")
}

/// EV configuration with explicit lease toggles (Fig. 15 ablations).
pub fn ev_config(pre: bool, post: bool) -> EngineConfig {
    let mut cfg = EngineConfig::new(VisibilityModel::ev());
    cfg.pre_lease = pre;
    cfg.post_lease = post;
    cfg
}

/// Renders one formatted table row.
pub fn row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>12}"))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Formats a float with 3 significant decimals.
pub fn f(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats milliseconds as seconds.
pub fn secs(ms: f64) -> String {
    format!("{:.2}s", ms / 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safehome_devices::catalog::plug_home;
    use safehome_harness::Submission;
    use safehome_types::{DeviceId, Routine, TimeDelta, Timestamp, Value};

    #[test]
    fn run_trials_aggregates() {
        let agg = run_trials(3, |seed| {
            let mut spec = RunSpec::new(plug_home(2), EngineConfig::new(VisibilityModel::ev()))
                .with_seed(seed);
            spec.submit(Submission::at(
                Routine::builder("r")
                    .set(DeviceId(0), Value::ON, TimeDelta::from_millis(100))
                    .build(),
                Timestamp::ZERO,
            ));
            spec
        });
        assert_eq!(agg.incomplete, 0);
        assert_eq!(agg.latency.n, 3, "one committed routine per trial");
        assert!(agg.latency.mean >= 100.0);
        assert_eq!(agg.abort_rate, 0.0);
    }

    #[test]
    fn counters_path_agrees_with_trace_path() {
        use safehome_workloads::MicroParams;
        // A failure-heavy micro workload: aborts, rollbacks and order
        // mismatch are all non-trivial, and the two trial runners must
        // agree on every metric both can compute.
        let p = MicroParams {
            routines: 20,
            fail_pct: 0.25,
            long_mean: safehome_types::TimeDelta::from_mins(2),
            ..MicroParams::default()
        };
        let mk = |seed| p.build(EngineConfig::new(VisibilityModel::ev()), seed);
        let trace = run_trials(4, mk);
        let cheap = run_trials_counters(4, mk);
        assert_eq!(cheap.incomplete, trace.incomplete);
        assert!((cheap.abort_rate - trace.abort_rate).abs() < 1e-12);
        assert!((cheap.rollback_overhead - trace.rollback_overhead).abs() < 1e-12);
        assert!((cheap.order_mismatch - trace.order_mismatch).abs() < 1e-12);
        // The in-flight write tracking must reproduce the trace pass's
        // temporary-incongruence and parallelism numbers exactly, even
        // under aborts and rollback writes.
        assert!(trace.temp_incongruence > 0.0, "workload must be contended");
        assert!((cheap.temp_incongruence - trace.temp_incongruence).abs() < 1e-12);
        assert!((cheap.parallelism - trace.parallelism).abs() < 1e-12);
        // The per-routine distributions must agree too: normalized
        // latency and stretch (committed only) and waits (started) come
        // from the same timestamps and ideal runtimes on both paths.
        assert_eq!(cheap.norm_latency.n, trace.norm_latency.n);
        assert!((cheap.norm_latency.mean - trace.norm_latency.mean).abs() < 1e-9);
        assert!((cheap.norm_latency.p95 - trace.norm_latency.p95).abs() < 1e-9);
        assert_eq!(cheap.wait.n, trace.wait.n);
        assert!((cheap.wait.mean - trace.wait.mean).abs() < 1e-9);
        let mut a = cheap.stretch.clone();
        let mut b = trace.stretch.clone();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b, "pooled stretch factors are the same multiset");
        // Same spec stream → same digest, every time.
        assert_eq!(cheap.digest, run_trials_counters(4, mk).digest);
    }

    #[test]
    fn counters_end_states_match_trace_end_states() {
        use safehome_harness::run;
        use safehome_workloads::MicroParams;
        let p = MicroParams {
            routines: 10,
            ..MicroParams::default()
        };
        let spec = p.build(EngineConfig::new(VisibilityModel::Wv), 7);
        let full = run(&spec);
        let spec = p.build(EngineConfig::new(VisibilityModel::Wv), 7);
        let mut driver = Driver::with_sink(&spec, RunCounters::new());
        driver.run_to_quiescence();
        let (c, _, _) = driver.into_output();
        assert_eq!(c.end_states, full.trace.end_states);
    }

    #[test]
    fn counters_latency_matches_trace_latency_without_failures() {
        use safehome_workloads::MicroParams;
        let p = MicroParams {
            routines: 15,
            ..MicroParams::default()
        };
        let mk = |seed| p.build(EngineConfig::new(VisibilityModel::Psv), seed);
        let trace = run_trials(3, mk);
        let cheap = run_trials_counters(3, mk);
        assert_eq!(cheap.latency.n, trace.latency.n);
        assert!((cheap.latency.mean - trace.latency.mean).abs() < 1e-9);
        assert_eq!(cheap.congruent, 3);
    }

    #[test]
    fn model_sets_are_distinct() {
        assert_eq!(main_models().len(), 4);
        assert_eq!(failure_models().len(), 4);
        assert_eq!(schedulers().len(), 3);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456), "1.235");
        assert_eq!(secs(2500.0), "2.50s");
        assert!(row(&["a".into(), "b".into()]).contains('|'));
    }
}
