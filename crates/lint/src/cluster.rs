//! Conflict clustering: partitioning a workload into independent
//! sub-workloads for deterministic intra-home parallelism.
//!
//! Two submissions belong to the same cluster when they can influence
//! each other's execution in *any* way the engine tracks:
//!
//! - **Shared footprint device** — at any time, not just overlapping
//!   [`Window`](crate::Window)s. Even temporally distant routines on
//!   the same device share its lineage (placements, order edges, delay
//!   accounting), so window pruning — sound for *conflict* prediction —
//!   is not sound for cluster independence.
//! - **`After` edge** — the dependent's release time is the
//!   predecessor's completion, an explicit cross-submission channel.
//!
//! The partition is the union-find closure of those edges. Each cluster
//! then owns a disjoint device set and a prefix-closed `After`
//! subgraph, which is exactly what
//! [`safehome_harness::intra`] needs to run clusters as independent
//! sub-drivers and merge them back byte-identically.
//!
//! [`plan`] wraps the partition in the full eligibility gate (the
//! harness's spec-level preconditions plus the lint gate
//! [`crate::check`] and an actual split); [`planner`] packages it as
//! the injectable service callback.

use safehome_harness::{
    intra::{HomePartition, IntraPlanner},
    Arrival, RunSpec,
};
use safehome_types::DeviceId;

/// Union-find over submission indices (path-halving + union by size).
struct Dsu {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

/// Computes the conflict partition of `spec`'s submissions: connected
/// components under shared-footprint-device and `After` edges, each
/// component's indices ascending, components ordered by smallest
/// member. Purely structural — apply [`plan`]'s gate before acting on
/// it.
pub fn partition(spec: &RunSpec) -> HomePartition {
    let n = spec.submissions.len();
    let mut dsu = Dsu::new(n);
    // Device sharing: union every submission touching a device with the
    // first one that touched it.
    let mut first_touch: std::collections::BTreeMap<DeviceId, usize> =
        std::collections::BTreeMap::new();
    for (i, s) in spec.submissions.iter().enumerate() {
        for d in s.routine.devices() {
            match first_touch.get(&d) {
                Some(&j) => dsu.union(i, j),
                None => {
                    first_touch.insert(d, i);
                }
            }
        }
        if let Arrival::After { index, .. } = s.arrival {
            if index < n {
                dsu.union(i, index);
            }
        }
    }
    let mut clusters: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for i in 0..n {
        let root = dsu.find(i);
        clusters.entry(root).or_default().push(i);
    }
    // Union by size can make any member a component's root, so the map's
    // root order says nothing; each component's indices are ascending
    // (pushed in index order), and the sort orders components by their
    // smallest member.
    let mut out: Vec<Vec<usize>> = clusters.into_values().collect();
    out.sort_by_key(|c| c[0]);
    HomePartition { clusters: out }
}

/// The full eligibility gate: returns a partition only when the
/// sub-run equivalence proof applies *and* splitting is worthwhile —
///
/// - the harness preconditions hold ([`spec_decomposable`]: empty
///   failure plan, deterministic latency, EV model),
/// - the spec has no Error-severity diagnostic ([`crate::check`] — one
///   like a dangling `After` edge would make the structural partition
///   itself unreliable),
/// - the partition actually splits the home (≥ 2 clusters).
///
/// `None` means "run sequentially", never "error". Planning never
/// predicts a conflict pair: [`crate::check`] runs footprints and rules
/// only and [`partition`] unions by device and `After` edge, so its
/// cost grows with the spec's commands, not with pairs of submissions.
///
/// [`spec_decomposable`]: safehome_harness::intra::spec_decomposable
pub fn plan(spec: &RunSpec) -> Option<HomePartition> {
    if !safehome_harness::intra::spec_decomposable(spec) {
        return None;
    }
    if crate::check(spec).is_err() {
        return None;
    }
    let p = partition(spec);
    p.is_split().then_some(p)
}

/// [`plan`] packaged as the service's injectable planner callback, the
/// same pattern as wiring [`crate::check`] into
/// `safehome_harness::fleet::run_fleet_gated`.
pub fn planner() -> IntraPlanner {
    std::sync::Arc::new(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safehome_core::{EngineConfig, VisibilityModel};
    use safehome_devices::catalog::plug_home;
    use safehome_devices::LatencyModel;
    use safehome_harness::Submission;
    use safehome_types::{Routine, TimeDelta, Timestamp, Value};

    fn set(name: &str, dev: u32) -> Routine {
        Routine::builder(name)
            .set(
                safehome_types::DeviceId(dev),
                Value::ON,
                TimeDelta::from_millis(50),
            )
            .build()
    }

    fn decomposable_spec(n_devices: usize) -> RunSpec {
        let mut spec = RunSpec::new(
            plug_home(n_devices),
            EngineConfig::new(VisibilityModel::ev()),
        );
        spec.latency = LatencyModel::Fixed(TimeDelta::from_millis(20));
        spec
    }

    #[test]
    fn disjoint_devices_split() {
        let mut spec = decomposable_spec(4);
        for d in 0..4 {
            spec.submit(Submission::at(
                set(&format!("r{d}"), d),
                Timestamp::from_millis(u64::from(d) * 10),
            ));
        }
        let p = plan(&spec).expect("four independent devices must split");
        assert_eq!(p.clusters, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn shared_device_unions_even_when_windows_are_far_apart() {
        let mut spec = decomposable_spec(2);
        spec.submit(Submission::at(set("early", 0), Timestamp::ZERO));
        // Hours later — windows cannot overlap, but the lineage is
        // shared, so clustering must still union them.
        spec.submit(Submission::at(
            set("late", 0),
            Timestamp::from_millis(3_600_000),
        ));
        spec.submit(Submission::at(set("other", 1), Timestamp::ZERO));
        let p = partition(&spec);
        assert_eq!(p.clusters, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn after_edge_unions_across_disjoint_devices() {
        let mut spec = decomposable_spec(2);
        let a = spec.submit(Submission::at(set("a", 0), Timestamp::ZERO));
        spec.submit(Submission::after(
            set("b", 1),
            a,
            TimeDelta::from_millis(10),
        ));
        let p = partition(&spec);
        assert_eq!(p.clusters, vec![vec![0, 1]]);
        assert!(plan(&spec).is_none(), "single cluster: nothing to split");
    }

    #[test]
    fn gate_rejects_nondeterministic_latency_and_failures() {
        let mut spec = decomposable_spec(2);
        spec.submit(Submission::at(set("a", 0), Timestamp::ZERO));
        spec.submit(Submission::at(set("b", 1), Timestamp::ZERO));
        assert!(plan(&spec).is_some());

        let mut jittered = spec.clone();
        jittered.latency = LatencyModel::Jittered {
            base: TimeDelta::from_millis(10),
            jitter: TimeDelta::from_millis(5),
        };
        assert!(plan(&jittered).is_none(), "jitter draws from the RNG");

        let mut failing = spec.clone();
        failing.failures = safehome_devices::FailurePlan::none()
            .fail(safehome_types::DeviceId(0), Timestamp::from_millis(1));
        assert!(plan(&failing).is_none(), "failure plans couple clusters");

        let mut gsv = spec;
        gsv.config = EngineConfig::new(VisibilityModel::Gsv { strong: false });
        assert!(plan(&gsv).is_none(), "GSV serializes globally");
    }

    #[test]
    fn gate_rejects_hazardous_specs() {
        let mut spec = decomposable_spec(1);
        spec.submit(Submission::at(set("bad", 7), Timestamp::ZERO)); // unknown device
        spec.submit(Submission::at(set("ok", 0), Timestamp::ZERO));
        assert!(plan(&spec).is_none(), "Error diagnostics must gate");
    }
}
