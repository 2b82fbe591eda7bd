//! Multi-home fleet driver.
//!
//! Each home's engine is fully independent state (the home is the natural
//! unit of parallelism), so fleet-scale throughput is embarrassingly
//! parallel: [`run_fleet`] spreads `homes` independent runs across worker
//! threads, each with its own [`Driver`], event queue and counters-only
//! sink.
//!
//! Scheduling is one shared home cursor: every worker claims the next
//! unclaimed home index, runs it to quiescence, and claims again until
//! the cursor passes the end. That is greedy list scheduling — a worker
//! only idles once every home has been claimed — so a failure-heavy home
//! (~10× the events of a clean one) delays only the worker running it.
//! Homes never spawn work, so nothing is ever queued behind a busy
//! worker and there is nothing to steal.
//!
//! Determinism: a home's seed is derived only from the fleet seed and the
//! home index ([`home_seed`]), and homes never share mutable state, so
//! per-home results are byte-identical regardless of the worker-thread
//! count — which worker runs a home changes nothing about the home.
//! [`FleetResult::worker_stats`] is the only scheduling-dependent output
//! and is excluded from every determinism comparison.

use std::sync::atomic::{AtomicUsize, Ordering};

use safehome_types::sink::{self, RunCounters};

use crate::sim::Driver;
use crate::spec::RunSpec;

/// Derives the seed for one home of a fleet (SplitMix64 over the fleet
/// seed and the home index). Stable across worker counts and releases of
/// the sharding policy.
pub fn home_seed(fleet_seed: u64, home: u64) -> u64 {
    let mut x = fleet_seed ^ home.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-worker scheduling statistics. Scheduling-dependent (unlike the
/// per-home results), so informational only: never compare these across
/// runs. Shared with the resident service runner, whose unit of work is
/// the epoch slice rather than the whole home.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Homes this worker ran (batch fleet: ran to quiescence; service:
    /// observed finishing on this worker).
    pub homes_run: usize,
    /// Service only: slices this worker ran for a unit that another
    /// worker built. Always 0 for the batch fleet driver and for a
    /// single worker.
    pub steals: u64,
    /// Epoch slices this worker executed. Always 0 for the batch fleet
    /// driver, which has no slicing.
    pub slices_run: u64,
}

/// Result of one home's run within a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeRun {
    /// The home's index in the fleet.
    pub home: usize,
    /// The home's derived seed.
    pub seed: u64,
    /// `true` when the run reached quiescence.
    pub completed: bool,
    /// The run's counters (outcomes, latencies, congruence, digest).
    pub counters: RunCounters,
}

/// Aggregated result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-home results, sorted by home index.
    pub homes: Vec<HomeRun>,
    /// Worker threads used.
    pub workers: usize,
    /// Per-worker scheduling statistics (informational; see
    /// [`WorkerStats`]).
    pub worker_stats: Vec<WorkerStats>,
}

impl FleetResult {
    /// Total committed routines across the fleet.
    pub fn committed(&self) -> u64 {
        self.homes.iter().map(|h| h.counters.committed).sum()
    }

    /// Total aborted routines across the fleet.
    pub fn aborted(&self) -> u64 {
        self.homes.iter().map(|h| h.counters.aborted).sum()
    }

    /// `true` when every home reached quiescence.
    pub fn all_completed(&self) -> bool {
        self.homes.iter().all(|h| h.completed)
    }

    /// Homes whose end states were congruent with their committed view.
    pub fn congruent_homes(&self) -> usize {
        self.homes.iter().filter(|h| h.counters.congruent).count()
    }

    /// Order-sensitive digest over the per-home digests (in home order);
    /// equal fleets produce equal digests regardless of worker count.
    pub fn digest(&self) -> u64 {
        self.homes.iter().fold(sink::DIGEST_SEED, |acc, h| {
            sink::fold_digest(acc, h.counters.digest)
        })
    }

    /// Every routine latency in the fleet, in milliseconds, sorted.
    pub fn latencies_ms(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .homes
            .iter()
            .flat_map(|h| h.counters.latencies_ms.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// Runs one home of the fleet to quiescence on the calling thread.
fn run_home<F>(home: usize, fleet_seed: u64, make_spec: &F) -> HomeRun
where
    F: Fn(usize, u64) -> RunSpec + Sync,
{
    let seed = home_seed(fleet_seed, home as u64);
    let spec = make_spec(home, seed);
    let mut driver = Driver::with_sink(&spec, RunCounters::new());
    let completed = driver.run_to_quiescence();
    let (counters, _, _) = driver.into_output();
    HomeRun {
        home,
        seed,
        completed,
        counters,
    }
}

/// Runs `homes` independent homes across `workers` threads.
///
/// `make_spec(home, seed)` builds home `home`'s spec from its derived
/// seed; it runs on the worker threads, so it must be `Sync`. Each worker
/// claims homes from one shared cursor and keeps its own results; they
/// are concatenated and sorted by home index at the end.
pub fn run_fleet<F>(homes: usize, workers: usize, fleet_seed: u64, make_spec: F) -> FleetResult
where
    F: Fn(usize, u64) -> RunSpec + Sync,
{
    let workers = workers.clamp(1, homes.max(1));
    let next = AtomicUsize::new(0);
    let (next, make_spec) = (&next, &make_spec);
    let per_worker: Vec<(Vec<HomeRun>, WorkerStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut runs = Vec::new();
                    loop {
                        // Relaxed: the cursor publishes no data; results
                        // come back through the join.
                        let home = next.fetch_add(1, Ordering::Relaxed);
                        if home >= homes {
                            break;
                        }
                        runs.push(run_home(home, fleet_seed, make_spec));
                    }
                    let stats = WorkerStats {
                        homes_run: runs.len(),
                        ..WorkerStats::default()
                    };
                    (runs, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    });
    let (runs, worker_stats): (Vec<Vec<HomeRun>>, Vec<WorkerStats>) =
        per_worker.into_iter().unzip();
    let mut homes: Vec<HomeRun> = runs.into_iter().flatten().collect();
    homes.sort_by_key(|h| h.home);
    FleetResult {
        homes,
        workers,
        worker_stats,
    }
}

/// A spec the pre-run gate refused: which home, its derived seed, and
/// the gate's message (for `safehome-lint` gates, the rendered
/// Error-severity diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecRejection {
    /// The rejected home's fleet index.
    pub home: usize,
    /// The rejected home's derived seed.
    pub seed: u64,
    /// The gate's explanation.
    pub message: String,
}

impl std::fmt::Display for SpecRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "home {} (seed {:#018x}) rejected: {}",
            self.home, self.seed, self.message
        )
    }
}

/// [`run_fleet`] behind a pre-run spec gate: every home's spec is
/// validated (serially, in home order) *before* any home executes, and
/// the first rejection aborts the whole fleet with nothing run. The
/// canonical gate is `safehome-lint`'s Error-severity check
/// (`|_, spec| lint::check(spec)`); the harness stays lint-agnostic
/// because the lint crate sits above it in the dependency graph.
///
/// Gating never perturbs execution: an accepted fleet's per-home results
/// — digests included — are byte-identical to the ungated
/// [`run_fleet`] (specs are rebuilt from the same seeds, and the
/// gate only reads them).
pub fn run_fleet_gated<F, G>(
    homes: usize,
    workers: usize,
    fleet_seed: u64,
    gate: G,
    make_spec: F,
) -> Result<FleetResult, SpecRejection>
where
    F: Fn(usize, u64) -> RunSpec + Sync,
    G: Fn(usize, &RunSpec) -> Result<(), String>,
{
    for home in 0..homes {
        let seed = home_seed(fleet_seed, home as u64);
        let spec = make_spec(home, seed);
        gate(home, &spec).map_err(|message| SpecRejection {
            home,
            seed,
            message,
        })?;
    }
    Ok(run_fleet(homes, workers, fleet_seed, make_spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Submission;
    use safehome_core::{EngineConfig, VisibilityModel};
    use safehome_devices::catalog::plug_home;
    use safehome_sim::SimRng;
    use safehome_types::{DeviceId, Routine, TimeDelta, Timestamp, Value};

    /// A small per-home workload whose shape depends on the seed.
    fn tiny_home(_: usize, seed: u64) -> RunSpec {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut spec =
            RunSpec::new(plug_home(4), EngineConfig::new(VisibilityModel::ev())).with_seed(seed);
        let n = 2 + (rng.next_u64() % 3) as usize;
        for i in 0..n {
            let mut b = Routine::builder(format!("r{i}"));
            for j in 0..2u32 {
                b = b.set(
                    DeviceId((i as u32 + j) % 4),
                    Value::ON,
                    TimeDelta::from_millis(50),
                );
            }
            spec.submit(Submission::at(
                b.build(),
                Timestamp::from_millis(rng.next_u64() % 500),
            ));
        }
        spec
    }

    #[test]
    fn fleet_results_are_identical_across_worker_counts() {
        let base = run_fleet(9, 1, 42, tiny_home);
        assert_eq!(base.homes.len(), 9);
        assert!(base.all_completed());
        for workers in [2, 3, 4] {
            let other = run_fleet(9, workers, 42, tiny_home);
            assert_eq!(
                base.homes, other.homes,
                "per-home results must not depend on the worker count ({workers} workers)"
            );
            assert_eq!(base.digest(), other.digest());
        }
    }

    /// The shared cursor against an in-order run: every home run in
    /// index order on the calling thread, with no scheduler at all.
    #[test]
    fn shared_cursor_matches_in_order_run() {
        let reference = FleetResult {
            homes: (0..13).map(|h| run_home(h, 77, &tiny_home)).collect(),
            workers: 1,
            worker_stats: Vec::new(),
        };
        assert!(reference.all_completed());
        for workers in [1, 2, 3, 4, 13] {
            let other = run_fleet(13, workers, 77, tiny_home);
            assert_eq!(
                reference.homes, other.homes,
                "{workers} workers must match the in-order single-thread run"
            );
            assert_eq!(reference.digest(), other.digest());
            assert_eq!(other.worker_stats.len(), workers);
            assert_eq!(
                other
                    .worker_stats
                    .iter()
                    .map(|s| s.homes_run)
                    .sum::<usize>(),
                13,
                "every home is run exactly once ({workers} workers)"
            );
        }
    }

    #[test]
    fn batch_driver_never_steals_or_slices() {
        // The batch driver has no stealing and no slicing, at any width.
        let fleet = run_fleet(8, 4, 3, tiny_home);
        assert!(fleet
            .worker_stats
            .iter()
            .all(|s| s.steals == 0 && s.slices_run == 0));
        // A single worker takes every home in turn.
        let single = run_fleet(8, 1, 3, tiny_home);
        assert_eq!(single.worker_stats.len(), 1);
        assert_eq!(single.worker_stats[0].homes_run, 8);
        assert_eq!(single.worker_stats[0].steals, 0);
    }

    #[test]
    fn empty_fleet_is_fine_at_any_width() {
        // One worker and many workers both reduce to an empty result.
        for workers in [1, 4] {
            let fleet = run_fleet(0, workers, 1, tiny_home);
            assert!(fleet.homes.is_empty());
            assert_eq!(fleet.workers, 1, "workers clamp to at least one");
            assert!(fleet.all_completed(), "vacuously true");
        }
    }

    #[test]
    fn different_fleet_seeds_give_different_fleets() {
        let a = run_fleet(4, 2, 1, tiny_home);
        let b = run_fleet(4, 2, 2, tiny_home);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn home_seeds_are_distinct_and_stable() {
        let s: Vec<u64> = (0..100).map(|i| home_seed(7, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100, "seed derivation must not collide");
        assert_eq!(home_seed(7, 0), home_seed(7, 0));
    }

    #[test]
    fn gated_fleet_matches_ungated_when_gate_accepts() {
        let plain = run_fleet(9, 2, 42, tiny_home);
        let gated_specs = std::sync::atomic::AtomicUsize::new(0);
        let gated = run_fleet_gated(
            9,
            2,
            42,
            |_, spec| {
                gated_specs.fetch_add(spec.submissions.len(), std::sync::atomic::Ordering::Relaxed);
                Ok(())
            },
            tiny_home,
        )
        .expect("accepting gate never rejects");
        assert_eq!(plain.homes, gated.homes, "gating must not perturb runs");
        assert_eq!(plain.digest(), gated.digest());
        assert!(
            gated_specs.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "the gate saw every spec"
        );
    }

    #[test]
    fn gated_fleet_rejects_with_home_and_seed() {
        let err = run_fleet_gated(
            5,
            2,
            42,
            |home, _| {
                if home == 3 {
                    Err("synthetic gate failure".into())
                } else {
                    Ok(())
                }
            },
            tiny_home,
        )
        .expect_err("home 3 is rejected");
        assert_eq!(err.home, 3);
        assert_eq!(err.seed, home_seed(42, 3));
        assert!(err.message.contains("synthetic"));
        assert!(err.to_string().contains("home 3"));
    }

    #[test]
    fn aggregates_sum_over_homes() {
        let fleet = run_fleet(5, 2, 11, tiny_home);
        let committed: u64 = fleet.homes.iter().map(|h| h.counters.committed).sum();
        assert_eq!(fleet.committed(), committed);
        assert!(committed > 0);
        assert_eq!(fleet.aborted(), 0);
        assert_eq!(fleet.congruent_homes(), 5);
        assert_eq!(
            fleet.latencies_ms().len() as u64,
            committed,
            "every committed routine contributes one latency"
        );
        // Workers above the home count are clamped.
        let tiny = run_fleet(2, 16, 11, tiny_home);
        assert_eq!(tiny.workers, 2);
    }
}
