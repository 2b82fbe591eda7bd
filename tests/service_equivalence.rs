//! Property test: time-sliced resident execution is invisible.
//!
//! For random service fleets — home counts, fleet seeds, arrival rates,
//! horizons, burst windows, epoch lengths, worker counts, resident
//! budgets, intra-home cluster splitting on/off, and `After`-chained
//! morning homes in place of open-loop ones — the resident time-sliced
//! runner (`run_service_with`) must reproduce the batch
//! run-to-completion fleet driver (`run_fleet`) byte for byte: same
//! per-home `RunCounters` (outcomes, latencies, digests), same fleet
//! digest, same slice count (where clustering is inactive — split homes
//! slice per cluster, so the count legitimately differs). Slicing a
//! home's timeline at arbitrary epoch boundaries, interleaving it with
//! the rest of the fleet, running its slices on whichever worker pops
//! them, evicting it between slices, or decomposing it into per-cluster
//! sub-drivers and merging it back must never change which events it
//! sees or in what order.

use proptest::prelude::*;

use safehome::harness::{run_fleet, run_service_with, ServiceConfig};
use safehome::lint::cluster;
use safehome::prelude::*;
use safehome::workloads::{
    service_home, skewed_service_home, zoned_fleet_home, zoned_home, FleetTemplate, ServiceParams,
    SkewParams, ZoneParams,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn resident_sliced_run_matches_batch_fleet(
        homes in 2usize..8,
        fleet_seed in any::<u64>(),
        rate in 20u64..150,
        horizon_mins in 10u64..45,
        bursts in 0usize..3,
        epoch_choice in 0usize..4,
        workers in 1usize..5,
        budget_choice in 0usize..4,
        intra in any::<bool>(),
        chains in any::<bool>(),
    ) {
        // From sub-event-grain slicing to epochs spanning many arrivals.
        let epoch_ms = [1u64, 777, 10_000, 300_000][epoch_choice];
        // No budget, evict-everything, and two partial budgets: random
        // evict points relative to each home's arrival clusters.
        let max_resident = [None, Some(0), Some(2), Some(5)][budget_choice];
        let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
        let params = ServiceParams::new(TimeDelta::from_mins(horizon_mins), rate)
            .with_bursts_from_seed(fleet_seed, bursts);
        // `chains`: the morning scenario's own homes instead — 4 users ×
        // 5-routine `After` chains plus sporadic arrivals and no failure
        // plan — so eviction must park pending deferrals too.
        let make_spec = |_: usize, seed: u64| {
            if chains {
                template.base_spec(seed)
            } else {
                service_home(&template, &params, seed)
            }
        };

        let batch = run_fleet(homes, 1, fleet_seed, make_spec);
        let mut config = ServiceConfig::new(TimeDelta::from_millis(epoch_ms));
        config.max_resident = max_resident;
        if intra {
            // Jittered service homes fail the cluster gate, so the
            // planner declines every one — installing it must be a
            // no-op in results AND in slice structure.
            config = config.with_intra_home(cluster::planner());
        }
        let resident = run_service_with(homes, workers, fleet_seed, config, make_spec);

        prop_assert_eq!(batch.homes.len(), resident.homes.len());
        for (b, r) in batch.homes.iter().zip(&resident.homes) {
            prop_assert_eq!(b.home, r.home);
            prop_assert_eq!(b.seed, r.seed);
            prop_assert_eq!(b.completed, r.completed);
            prop_assert_eq!(
                &b.counters, &r.counters,
                "home {} diverged under slicing (epoch {}ms, {} workers, budget {:?})",
                b.home, epoch_ms, workers, max_resident
            );
        }
        prop_assert_eq!(batch.digest(), resident.digest());
        prop_assert_eq!(resident.intra_homes, 0, "jittered homes never split");
        prop_assert_eq!(resident.intra_fallbacks, 0);

        // The histogram drains exactly the finished routines — through
        // evict/resume cycles too (an evicted home keeps its sink, so
        // the drain cursor must stay consistent).
        let raw: u64 = batch
            .homes
            .iter()
            .map(|h| h.counters.latencies_ms.len() as u64)
            .sum();
        prop_assert_eq!(resident.latency.count(), raw);

        // Eviction may only ever shrink residency, never change work.
        if max_resident.is_none() {
            prop_assert_eq!(resident.evictions, 0);
            prop_assert_eq!(resident.peak_resident_homes, homes);
        }
        // Failure-free chained homes are cold at birth, so a budget below
        // the fleet size must evict them.
        if chains && max_resident.is_some_and(|budget| budget < homes) {
            prop_assert!(
                resident.evictions > 0,
                "After-chain homes never evicted (budget {:?}, {} homes)",
                max_resident, homes
            );
        }
    }

    #[test]
    fn skewed_fleet_is_steal_and_eviction_invariant(
        fleet_seed in any::<u64>(),
        heavy in 1usize..4,
        multiplier in 2u64..7,
        workers in 1usize..5,
        budget_choice in 0usize..3,
    ) {
        // The bench's skewed shape at property-test scale: heavy homes
        // contiguous at the fleet front (all built by the first worker,
        // so the others steal their slices), worker count and eviction
        // varied freely — per-home results must match the batch driver
        // always.
        let homes = 6usize;
        let max_resident = [None, Some(0), Some(2)][budget_choice];
        let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
        let skew = SkewParams::new(
            ServiceParams::new(TimeDelta::from_mins(20), 40)
                .with_bursts_from_seed(fleet_seed, 1),
            heavy,
            multiplier,
        );
        let make_spec = |home: usize, seed: u64| skewed_service_home(&template, &skew, home, seed);

        let batch = run_fleet(homes, 1, fleet_seed, make_spec);
        let mut config = ServiceConfig::new(TimeDelta::from_secs(10));
        config.max_resident = max_resident;
        let resident = run_service_with(homes, workers, fleet_seed, config, make_spec);

        prop_assert_eq!(&batch.homes, &resident.homes);
        prop_assert_eq!(batch.digest(), resident.digest());
    }

    #[test]
    fn intra_home_splitting_matches_batch_and_sequential_service(
        fleet_seed in any::<u64>(),
        zones in 2usize..6,
        routines_per_zone in 3usize..12,
        workers in 1usize..5,
        epoch_choice in 0usize..3,
        chain_zones in any::<bool>(),
    ) {
        // A zoned-workshop heavy home (decomposable into `zones`
        // clusters, with intra-zone After chains) leading an ordinary
        // open-loop fleet. With the lint cluster planner installed the
        // workshop runs as parallel sub-slices; everything must stay
        // byte-identical to the batch driver and to the sequential
        // (planner-free) service run. `chain_zones` welds the zones
        // together with cross-zone After edges: one conflict cluster,
        // so the planner must decline and the run must fall back to the
        // sequential path without a merge fallback.
        let homes = 4usize;
        let epoch_ms = [500u64, 10_000, 120_000][epoch_choice];
        let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
        let base = ServiceParams::new(TimeDelta::from_mins(15), 40);
        let zone = ZoneParams::new(zones, TimeDelta::from_mins(10), routines_per_zone);
        let make_spec = |home: usize, seed: u64| {
            let mut spec = zoned_fleet_home(&template, &base, &zone, home, seed);
            if home == 0 && chain_zones {
                // Weld every At-arrival submission to the first one:
                // the `After` union closure collapses everything into a
                // single cluster (intra-zone `After` edges keep their
                // predecessors, which are welded transitively).
                for i in 1..spec.submissions.len() {
                    if matches!(spec.submissions[i].arrival, safehome::harness::Arrival::At(_)) {
                        spec.submissions[i].arrival = safehome::harness::Arrival::After {
                            index: 0,
                            delay: TimeDelta::from_millis(10 * i as u64),
                        };
                    }
                }
            }
            spec
        };

        let batch = run_fleet(homes, 1, fleet_seed, make_spec);
        let sequential = run_service_with(
            homes,
            workers,
            fleet_seed,
            ServiceConfig::new(TimeDelta::from_millis(epoch_ms)),
            make_spec,
        );
        let split = run_service_with(
            homes,
            workers,
            fleet_seed,
            ServiceConfig::new(TimeDelta::from_millis(epoch_ms))
                .with_intra_home(cluster::planner()),
            make_spec,
        );

        prop_assert_eq!(&batch.homes, &sequential.homes);
        prop_assert_eq!(&batch.homes, &split.homes);
        prop_assert_eq!(batch.digest(), split.digest());
        prop_assert_eq!(split.latency.count(), sequential.latency.count());
        prop_assert_eq!(split.intra_fallbacks, 0, "the gate admits no stalls");
        if chain_zones {
            prop_assert_eq!(split.intra_homes, 0, "welded zones must not split");
            prop_assert_eq!(
                split.slices, sequential.slices,
                "with clustering inactive the slice count is part of the contract"
            );
        } else {
            prop_assert_eq!(split.intra_homes, 1, "the workshop must split");
        }
    }
}

/// Pin (non-property): the workshop home's clustered execution is
/// byte-identical to its sequential run, straight through the harness
/// merge API with the real lint partition — the unit-level version of
/// the service property above.
#[test]
fn workshop_cluster_merge_is_byte_identical() {
    use safehome::harness::{run_clustered, Driver};
    use safehome::types::sink::RunCounters;

    let zone = ZoneParams::new(4, TimeDelta::from_mins(10), 8);
    for seed in [1u64, 0xFEED, 0x5afe_0a11] {
        let spec = zoned_home(EngineConfig::new(VisibilityModel::ev()), &zone, seed);
        let partition = cluster::plan(&spec).expect("workshop passes the gate");
        let merged = run_clustered(&spec, &partition).expect("merge succeeds");
        let mut d = Driver::with_sink(&spec, RunCounters::new());
        assert!(d.run_to_quiescence());
        let (sequential, _, _) = d.into_output();
        assert_eq!(merged, sequential, "seed {seed:#x}");
    }
}
