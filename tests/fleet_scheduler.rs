//! Fleet-runner determinism properties.
//!
//! Which worker runs a home must be a pure scheduling decision: for
//! random fleet sizes and seeds, `run_fleet` at 1/2/4 workers produces
//! per-home results byte-identical to running every home alone on a
//! plain sequential `Driver` — on the homogeneous morning fleet and on
//! the heterogeneous correlated neighborhood-outage fleet alike.

use proptest::prelude::*;
use safehome_core::{EngineConfig, VisibilityModel};
use safehome_harness::{home_seed, run_fleet, Driver, HomeRun, RunSpec};
use safehome_types::sink::RunCounters;
use safehome_workloads::{neighborhood_home, FleetTemplate, NeighborhoodParams, NeighborhoodPlan};

/// Every home of the fleet run to quiescence, one after another, on the
/// calling thread: the reference no scheduler is involved in.
fn sequential(
    homes: usize,
    fleet_seed: u64,
    make_spec: impl Fn(usize, u64) -> RunSpec,
) -> Vec<HomeRun> {
    (0..homes)
        .map(|home| {
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
        })
        .collect()
}

fn assert_matches_sequential(
    homes: usize,
    fleet_seed: u64,
    make_spec: impl Fn(usize, u64) -> RunSpec + Sync + Copy,
) -> Result<(), String> {
    let reference = sequential(homes, fleet_seed, make_spec);
    prop_assert!(reference.iter().all(|h| h.completed));
    for workers in [1usize, 2, 4] {
        let fleet = run_fleet(homes, workers, fleet_seed, make_spec);
        prop_assert_eq!(
            reference.len(),
            fleet.homes.len(),
            "home count ({homes} homes, seed {fleet_seed}, {workers} workers)"
        );
        for (a, b) in reference.iter().zip(&fleet.homes) {
            prop_assert!(
                a == b,
                "home {} diverged ({homes} homes, seed {fleet_seed}, {workers} workers)",
                a.home
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn run_fleet_matches_sequential_on_the_morning_fleet(
        homes in 1usize..20,
        fleet_seed in any::<u64>(),
    ) {
        let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
        let spec = |_: usize, seed: u64| template.home_spec(seed);
        assert_matches_sequential(homes, fleet_seed, spec)?;
    }
}

proptest! {
    // Fewer cases: affected homes (storm centers especially) are orders
    // of magnitude more expensive to simulate — that heterogeneity is
    // the point of the scenario, but it adds up in debug-mode CI.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn run_fleet_matches_sequential_on_the_neighborhood_fleet(
        homes in 4usize..12,
        fleet_seed in any::<u64>(),
    ) {
        let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
        // Small clusters + guaranteed outages so even tiny fleets carry
        // correlated failures (the expensive, failure-heavy path).
        let params = NeighborhoodParams {
            cluster_size: 4,
            outage_p: 0.6,
            ..NeighborhoodParams::default()
        };
        let plan = NeighborhoodPlan::generate(fleet_seed, homes, &params);
        let spec = |home: usize, seed: u64| neighborhood_home(&template, &plan, home, seed);
        assert_matches_sequential(homes, fleet_seed, spec)?;
    }
}
