//! `benchmark` — the repository benchmark: named end-to-end metrics per
//! workload, a correctness check on every run, and (with `--trace`)
//! per-layer costs timed around the library calls of each layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare A.json B.json
//! ```
//!
//! A run repeats the workload, each repetition in a child process of its
//! own ([`rep`]), until `--seconds` of runner wall time are measured (at
//! least three repetitions), and reports medians over the repetitions.
//! It prints `workload metric value unit` lines, writes
//! `DIR/benchmark.json` (default `target/benchmark`), and ends with one
//! JSON line: `correct`, `attempted`, `failed` and the end-to-end
//! metrics — or, with `--trace 1`, the per-layer ones, which come from a
//! separate instrumented pass ([`layers`]) that also writes the Chrome
//! trace file `DIR/trace-<workload>.json`. Exit status 1 means a
//! correctness check failed, 2 a usage or I/O error.

mod compare;
mod layers;
mod rep;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use safehome_types::json::{obj, Json};

use crate::rep::Rep;
use crate::stats::median;
use crate::workloads::{Inputs, Workload};

/// Fleet seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 0x5afe_0a11;
/// Timed repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Runner threads. One, not `min(2, available_parallelism)`: on a
/// shared two-core machine other load lands on one of two busy workers.
/// Over ten seeds, with the one- and two-worker runs interleaved, the
/// interquartile range of `neighborhood_batch` throughput was 0.22 of
/// the median with two workers and 0.15 with one.
const WORKERS: usize = 1;

/// End-to-end metrics with their units, in report order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("routines_per_s", "routines/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("latency_p50_ms", "sim_ms"),
];

/// Deterministic outcomes of a run: reported, and compared exactly by
/// `--compare`, but not end-to-end metrics of `BENCHMARK.json`. A
/// healthy run can leave the rates at 0, and the tail percentiles of
/// some workloads move 7–16% from one seed to the next (the rank lands
/// between clusters of latency values), too far for a bound across
/// seeds. `true` when higher is better.
pub const OUTCOMES: [(&str, &str, bool); 7] = [
    ("latency_p99_ms", "sim_ms", false),
    ("latency_p999_ms", "sim_ms", false),
    ("routines", "count", true),
    ("abort_rate", "fraction", false),
    ("incongruent_home_share", "fraction", false),
    ("temporary_incongruence", "fraction", false),
    ("failed_share", "fraction", false),
];

/// One reported number: the median over the run's repetitions, kept
/// with every repetition's sample.
#[derive(Debug)]
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Reported {
    fn from_samples(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Reported {
            name,
            unit,
            value: median(&samples),
            samples,
        }
    }

    fn exact(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self::from_samples(name, unit, vec![value])
    }

    fn to_json(&self) -> Json {
        obj([
            ("value", Json::Float(self.value)),
            ("unit", Json::from(self.unit)),
            (
                "samples",
                Json::Arr(self.samples.iter().map(|&v| Json::Float(v)).collect()),
            ),
        ])
    }
}

/// Everything one workload's run measured.
struct Report {
    workload: Workload,
    reps: usize,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Reported>,
    outcomes: Vec<Reported>,
    layers: Option<Vec<Reported>>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: end-to-end metrics, or per-layer ones when
    /// traced.
    fn result_line(&self) -> Json {
        let metrics = self.layers.as_ref().unwrap_or(&self.end_to_end);
        obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .iter()
                        .map(|m| {
                            let v = obj([
                                ("value", Json::Float(m.value)),
                                ("unit", Json::from(m.unit)),
                            ]);
                            (m.name.to_string(), v)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn to_json(&self) -> Json {
        let section = |ms: &[Reported]| {
            Json::Obj(
                ms.iter()
                    .map(|m| (m.name.to_string(), m.to_json()))
                    .collect(),
            )
        };
        let mut members = vec![
            ("correct".to_string(), Json::from(self.correct())),
            ("attempted".to_string(), Json::from(self.attempted)),
            ("failed".to_string(), Json::from(self.failed)),
            ("reps".to_string(), Json::from(self.reps as u64)),
            ("metrics".to_string(), section(&self.end_to_end)),
            ("outcomes".to_string(), section(&self.outcomes)),
        ];
        if let Some(layers) = &self.layers {
            members.push(("layers".to_string(), section(layers)));
        }
        Json::Obj(members)
    }
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

enum Mode {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
    /// One repetition, in a child process (see [`rep`]).
    Repetition(Workload, u64),
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Mode, String> {
    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        args.next().ok_or(format!("{flag} needs a value"))
    }
    let mut run = RunArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        out: PathBuf::from("target/benchmark"),
    };
    let mut repetition = false;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            rep::FLAG | "--workload" => {
                repetition |= arg == rep::FLAG;
                let name = value(&mut args, &arg)?;
                let w = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
                run.workloads.push(w);
            }
            "--seed" => {
                let v = value(&mut args, "--seed")?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                run.seed = parsed.map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value(&mut args, "--seconds")?;
                run.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--out" => run.out = PathBuf::from(value(&mut args, "--out")?),
            // `--trace` alone turns tracing on; `--trace 0|1` sets it.
            "--trace" => {
                let value = args.next_if(|v| v == "0" || v == "1");
                run.trace = value.as_deref() != Some("0");
            }
            "--compare" => {
                let a = value(&mut args, "--compare")?;
                let b = value(&mut args, "--compare")?;
                return Ok(Mode::Compare(a.into(), b.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if repetition {
        return Ok(Mode::Repetition(run.workloads[0], run.seed));
    }
    if run.workloads.is_empty() {
        run.workloads = Workload::ALL.to_vec();
    }
    Ok(Mode::Run(run))
}

/// Runs one workload: timed repetitions in child processes until
/// `--seconds` of runner wall time are measured, then, when asked, the
/// traced pass in this process.
fn measure(w: Workload, args: &RunArgs, epoch: Instant) -> Result<Report, String> {
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || reps.iter().map(|r| r.wall_s).sum::<f64>() < args.seconds {
        reps.push(rep::spawn(w, args.seed)?);
    }
    let homes = w.homes() as u64;
    let first = &reps[0];
    // A repetition whose fleet digest differs from the first one's
    // fails every home.
    let mut failed: u64 = reps
        .iter()
        .map(|r| {
            if r.digest == first.digest {
                r.failed
            } else {
                homes
            }
        })
        .sum();
    let mut attempted = homes * reps.len() as u64;
    let samples = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let end_to_end = vec![
        Reported::from_samples(
            "routines_per_s",
            "routines/s",
            samples(|r| r.routines_per_s),
        ),
        Reported::from_samples("setup_s", "s", samples(|r| r.setup_s)),
        Reported::from_samples("peak_rss_mib", "MiB", samples(|r| r.peak_rss_mib)),
        Reported::exact("latency_p50_ms", "sim_ms", first.latency_p50_ms),
    ];

    let layers = if args.trace {
        let inputs = Inputs::new(w, w.homes());
        // Warm this process up the way every repetition warms up.
        workloads::run(
            &Inputs::new(w, (w.homes() / 8).max(2)),
            args.seed,
            WORKERS,
            false,
        );
        let walls = samples(|r| r.wall_s);
        let traced = layers::trace(&inputs, args.seed, WORKERS, median(&walls), epoch);
        attempted += traced.attempted;
        failed += traced.failed;
        std::fs::create_dir_all(&args.out)
            .and_then(|_| {
                let path = args.out.join(format!("trace-{}.json", w.name()));
                std::fs::write(path, traced.trace.to_string_compact())
            })
            .map_err(|e| format!("cannot write the trace file: {e}"))?;
        Some(
            traced
                .metrics
                .into_iter()
                .map(|(name, value, unit)| Reported::exact(name, unit, value))
                .collect(),
        )
    } else {
        None
    };
    let failed_share = failed as f64 / attempted as f64;
    let outcomes = OUTCOMES
        .iter()
        .zip(first.outcomes.iter().copied().chain([failed_share]))
        .map(|(&(name, unit, _), v)| Reported::exact(name, unit, v))
        .collect();
    Ok(Report {
        workload: w,
        reps: reps.len(),
        attempted,
        failed,
        end_to_end,
        outcomes,
        layers,
    })
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let epoch = Instant::now();
    let mut reports = Vec::new();
    for &w in &args.workloads {
        let report = measure(w, args, epoch)?;
        let name = w.name();
        println!("{name} workers {WORKERS} threads");
        println!("{name} reps {} count", report.reps);
        let layers = report.layers.iter().flatten();
        for m in report
            .end_to_end
            .iter()
            .chain(&report.outcomes)
            .chain(layers)
        {
            println!("{name} {} {} {}", m.name, m.value, m.unit);
        }
        println!("{}", report.result_line());
        reports.push(report);
    }
    let doc = obj([
        ("seed", Json::from(args.seed)),
        ("workers", Json::from(WORKERS as u64)),
        (
            "available_parallelism",
            Json::from(available_parallelism() as u64),
        ),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::from(args.trace)),
        (
            "workloads",
            Json::Obj(
                reports
                    .iter()
                    .map(|r| (r.workload.name().to_string(), r.to_json()))
                    .collect(),
            ),
        ),
    ]);
    write_doc(&args.out, &doc)?;
    Ok(reports.iter().all(Report::correct))
}

fn write_doc(out: &Path, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(out)
        .and_then(|_| std::fs::write(out.join("benchmark.json"), doc.to_string_pretty() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", out.join("benchmark.json").display()))
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|mode| match mode {
        Mode::Run(args) => run(&args),
        Mode::Compare(a, b) => compare::compare(&a, &b, Path::new("BENCHMARK.json")),
        Mode::Repetition(w, seed) => rep::run_here(w, seed, WORKERS).map(|()| true),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn every_metric_name_is_well_formed() {
        let names = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(OUTCOMES.iter().map(|m| m.0))
            .chain(layers::LAYER_METRICS.iter().map(|m| m.0))
            .chain(Workload::ALL.iter().map(|w| w.name()));
        for name in names {
            assert!(valid_name(name), "{name:?} must match ^[A-Za-z0-9_.-]+$");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
            ms.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&layers::LAYER_METRICS));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse = |args: &[&str]| match parse_args(args.iter().map(|s| s.to_string())) {
            Ok(Mode::Run(r)) => r,
            _ => panic!("{args:?} is a run"),
        };
        assert!(parse(&["--trace"]).trace);
        assert!(parse(&["--trace", "1"]).trace);
        assert!(!parse(&["--trace", "0", "--seed", "0x10"]).trace);
        assert_eq!(parse(&["--seed", "0x10"]).seed, 16);
        assert_eq!(parse(&[]).workloads, Workload::ALL.to_vec());
        assert!(parse_args(["--workload", "nope"].iter().map(|s| s.to_string())).is_err());
    }
}
