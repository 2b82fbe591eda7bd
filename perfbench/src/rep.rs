//! One timed repetition, run in a child process of its own.
//!
//! The child warms up, runs the whole fleet once, checks it, times the
//! input build and prints one JSON line; the parent spawns one child per
//! repetition and waits for it. On a shared virtual machine a process
//! draws its speed along with its memory placement: building the same
//! fleet template took 14 µs in one process and 36 µs in the next,
//! steady within each. A median over repetitions inside one process
//! cannot average that out; a median over processes does.

use std::process::{Command, Stdio};
use std::time::Instant;

use safehome_harness::{home_seed, HomeRun, RunSpec};
use safehome_types::json::{obj, Json};

use crate::compare::num;
use crate::stats::{median, percentile};
use crate::workloads::{self, Inputs, Workload, CHECK_STRIDE};

/// The hidden flag that makes the binary run one repetition.
pub const FLAG: &str = "--repetition";
/// Input builds timed per repetition; their median is the build cost.
const SETUP_REPS: usize = 7;

/// What one repetition measured and checked.
#[derive(Debug, PartialEq)]
pub struct Rep {
    /// Median time to build the workload's inputs, plus the planner
    /// time of the runner call.
    pub setup_s: f64,
    /// Wall time of the runner call.
    pub wall_s: f64,
    /// Finished routines per second outside set-up.
    pub routines_per_s: f64,
    /// The process's peak RSS right after the runner call.
    pub peak_rss_mib: f64,
    /// Fleet digest over every home's digest, in home order.
    pub digest: u64,
    /// Homes that failed the correctness check.
    pub failed: u64,
    /// Median simulated routine latency.
    pub latency_p50_ms: f64,
    /// The values of [`crate::OUTCOMES`] but the last, `failed_share`.
    pub outcomes: Vec<f64>,
}

impl Rep {
    fn to_json(&self) -> Json {
        obj([
            ("setup_s", Json::Float(self.setup_s)),
            ("wall_s", Json::Float(self.wall_s)),
            ("routines_per_s", Json::Float(self.routines_per_s)),
            ("peak_rss_mib", Json::Float(self.peak_rss_mib)),
            // Bit-for-bit through JSON's signed integers.
            ("digest", Json::Int(self.digest as i64)),
            ("failed", Json::from(self.failed)),
            ("latency_p50_ms", Json::Float(self.latency_p50_ms)),
            (
                "outcomes",
                Json::Arr(self.outcomes.iter().map(|&v| Json::Float(v)).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<Self> {
        let field = |k: &str| num(j.get(k));
        Some(Rep {
            setup_s: field("setup_s")?,
            wall_s: field("wall_s")?,
            routines_per_s: field("routines_per_s")?,
            peak_rss_mib: field("peak_rss_mib")?,
            digest: j.get("digest")?.as_i64()? as u64,
            failed: j.get("failed")?.as_i64()? as u64,
            latency_p50_ms: field("latency_p50_ms")?,
            outcomes: j
                .get("outcomes")?
                .as_array()?
                .iter()
                .map(|v| num(Some(v)))
                .collect::<Option<_>>()?,
        })
    }
}

/// Runs one repetition in a fresh child process and waits for it.
pub fn spawn(w: Workload, seed: u64) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args([FLAG, w.name(), "--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("a {} repetition failed: {}", w.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|line| Json::parse(line).ok())
        .and_then(|j| Rep::from_json(&j))
        .ok_or(format!("a {} repetition printed no result", w.name()))
}

/// The child side: one repetition in this process, printed as JSON.
pub fn run_here(w: Workload, seed: u64, workers: usize) -> Result<(), String> {
    let homes = w.homes();
    let inputs = Inputs::new(w, homes);
    // Warm-up on an eighth of the fleet: allocator arenas, page faults
    // and the per-thread home pools, which the timed run reuses.
    workloads::run(&Inputs::new(w, (homes / 8).max(2)), seed, workers, false);
    let run = workloads::run(&inputs, seed, workers, false);
    let peak_rss_mib = peak_rss_mib()?;
    let failed = workloads::failed_homes(&inputs, seed, &run, CHECK_STRIDE);
    let (latency_p50_ms, outcomes) = outcomes(&run.homes)?;
    let digest = run
        .homes
        .iter()
        .fold(safehome_types::sink::DIGEST_SEED, |acc, h| {
            safehome_types::sink::fold_digest(acc, h.counters.digest)
        });
    // The inputs are built again, alone and several times: inside the
    // runner call the build is one allocation-heavy burst in a fresh
    // process, whose time swung 1.5× between runs with the host's load.
    let builds: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let inputs = Inputs::new(w, homes);
            let specs: Vec<RunSpec> = (0..homes)
                .map(|h| inputs.spec(h, home_seed(seed, h as u64)))
                .collect();
            std::hint::black_box(specs);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let rep = Rep {
        setup_s: median(&builds) + run.plan_s,
        wall_s: run.wall_s,
        routines_per_s: run.routines_per_s(),
        peak_rss_mib,
        digest,
        failed,
        latency_p50_ms,
        outcomes,
    };
    println!("{}", rep.to_json().to_string_compact());
    Ok(())
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The median simulated latency and the deterministic outcomes of one
/// run's homes (all but `failed_share`, which covers the whole run).
fn outcomes(homes: &[HomeRun]) -> Result<(f64, Vec<f64>), String> {
    let mut latencies: Vec<u64> = homes
        .iter()
        .flat_map(|h| h.counters.latencies_ms.iter().copied())
        .collect();
    latencies.sort_unstable();
    let p = |q: f64| percentile(&latencies, q).map(|v| v as f64);
    let finished = latencies.len() as f64;
    let aborted: u64 = homes.iter().map(|h| h.counters.aborted).sum();
    let submitted: u64 = homes.iter().map(|h| h.counters.submitted).sum();
    let incongruent = homes.iter().filter(|h| !h.counters.congruent).count();
    let temporary: f64 = homes
        .iter()
        .map(|h| h.counters.temporary_incongruence * h.counters.submitted as f64)
        .sum();
    let outcomes = vec![
        p(0.99)?,
        p(0.999)?,
        finished,
        aborted as f64 / finished.max(1.0),
        incongruent as f64 / homes.len().max(1) as f64,
        temporary / submitted.max(1) as f64,
    ];
    Ok((p(0.50)?, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_round_trip_through_json() {
        let rep = Rep {
            setup_s: 0.25,
            wall_s: 2.0,
            routines_per_s: 12_345.678,
            peak_rss_mib: 64.5,
            digest: u64::MAX - 7,
            failed: 0,
            latency_p50_ms: 15_000.0,
            outcomes: vec![1.0, 2.5, 3.0],
        };
        let line = rep.to_json().to_string_compact();
        assert_eq!(Rep::from_json(&Json::parse(&line).unwrap()), Some(rep));
    }
}
