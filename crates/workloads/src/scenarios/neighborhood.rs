//! Correlated neighborhood outages — a fleet-scale failure axis.
//!
//! The paper's §7.4 failures are independent per device; real fleets
//! also fail *correlatedly*: a hub reboot, an ISP cut or a cloud-backend
//! brownout takes out every home behind it at once (the availability
//! threat FIDELIUS raises for unreachable cloud backends, and the kind
//! of cross-home anomaly HomeEndorser's endorsement policies look for).
//!
//! This module models that axis on top of the §7.2 morning fleet. Homes
//! are grouped into fixed-size *neighborhoods*; each neighborhood
//! independently suffers an outage with probability
//! [`NeighborhoodParams::outage_p`], and each home inside a hit
//! neighborhood is attached to the failed hub with probability
//! [`NeighborhoodParams::attach_p`] (an Erdős–Rényi-style membership
//! draw — the cluster is the set of edges to the hub that happened to
//! exist). An outage is either **fail-stop** (the hub dies: a large
//! fraction of the home's devices go dark for the outage window, then
//! recover) or **fail-slow** (the hub degrades: every actuation crawls
//! and one device flaps, so the detector works overtime).
//!
//! The whole plan is drawn once from the *fleet* seed
//! ([`NeighborhoodPlan::generate`]), never from per-home seeds, so a
//! home's spec stays a pure function of `(home, seed, plan)` and fleet
//! results remain byte-identical across worker counts.
//!
//! Affected homes are far more expensive to simulate than clean ones —
//! probe traffic scales with the whole 25-minute window over a
//! heavy-tailed per-home ping interval, and detection/abort/rollback add
//! events on top — which is exactly the heterogeneity that
//! [`safehome_harness::run_fleet`]'s shared home cursor absorbs: a worker
//! busy with a storm-center home delays only itself, never a queue of
//! homes pinned behind it.

use safehome_devices::LatencyModel;
use safehome_harness::RunSpec;
use safehome_sim::SimRng;
use safehome_types::{DeviceId, TimeDelta, Timestamp};

use super::morning::FleetTemplate;

/// Parameters of the correlated-outage axis.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborhoodParams {
    /// Homes per neighborhood (hub/uplink blast radius).
    pub cluster_size: usize,
    /// Probability a neighborhood suffers an outage.
    pub outage_p: f64,
    /// Probability a home in a hit neighborhood is behind the failed hub.
    pub attach_p: f64,
    /// Probability an outage is fail-slow rather than fail-stop.
    pub fail_slow_p: f64,
}

impl Default for NeighborhoodParams {
    fn default() -> Self {
        NeighborhoodParams {
            cluster_size: 16,
            outage_p: 0.25,
            attach_p: 0.75,
            fail_slow_p: 0.5,
        }
    }
}

/// What kind of hub failure a neighborhood suffered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutageKind {
    /// The hub dies: attached devices go dark for the window, then
    /// recover when it reboots.
    FailStop,
    /// The hub degrades: actuations crawl for the whole run and one
    /// device flaps through the window.
    FailSlow,
}

/// One home's share of its neighborhood's outage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomeOutage {
    /// Fail-stop or fail-slow.
    pub kind: OutageKind,
    /// When the hub goes down (shared by the whole neighborhood).
    pub at: Timestamp,
    /// How long it stays down (shared by the whole neighborhood).
    pub duration: TimeDelta,
    /// Fraction of the home's devices behind the failed hub.
    pub device_fraction: f64,
    /// The home's detector ping interval for the run: once its hub
    /// misbehaves, the home's edge tightens its probe loop to watch the
    /// recovery. Most affected homes probe mildly faster (400–1200 ms);
    /// about one in eight is a *storm center* that hammers at 40 ms.
    /// This is what makes per-home simulation cost heavy-tailed — a
    /// storm center generates ~25× the probe events of a mild home over
    /// the same window — so a static round-robin shard that drew two or
    /// three storm centers finishes long after its peers.
    pub ping: TimeDelta,
    /// Fail-slow actuation-latency multiplier.
    pub slow_factor: u64,
}

/// The fleet-wide outage plan: which homes are hit, how, and how badly.
///
/// Drawn only from the fleet seed, never from per-home seeds; share one
/// plan across all worker threads (it is immutable data).
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborhoodPlan {
    outages: Vec<Option<HomeOutage>>,
}

impl NeighborhoodPlan {
    /// Draws the plan for a fleet of `homes` homes.
    pub fn generate(fleet_seed: u64, homes: usize, params: &NeighborhoodParams) -> Self {
        let mut rng = SimRng::seed_from_u64(fleet_seed ^ 0x6E16_8B02_0A6E);
        let mut outages = vec![None; homes];
        let size = params.cluster_size.max(1);
        for lo in (0..homes).step_by(size) {
            if !rng.chance(params.outage_p) {
                continue;
            }
            let kind = if rng.chance(params.fail_slow_p) {
                OutageKind::FailSlow
            } else {
                OutageKind::FailStop
            };
            // The window sits inside the morning's 25 minutes so the
            // outage overlaps live routines.
            let at = Timestamp::from_millis(rng.int_in(2 * 60_000, 15 * 60_000));
            let duration = TimeDelta::from_millis(rng.int_in(2 * 60_000, 8 * 60_000));
            for outage in outages.iter_mut().skip(lo).take(size) {
                if !rng.chance(params.attach_p) {
                    continue;
                }
                let ping = if rng.chance(0.125) {
                    TimeDelta::from_millis(40) // storm center
                } else {
                    TimeDelta::from_millis(rng.int_in(400, 1_200))
                };
                *outage = Some(HomeOutage {
                    kind,
                    at,
                    duration,
                    device_fraction: 0.4 + 0.5 * rng.unit(),
                    ping,
                    slow_factor: rng.int_in(4, 32),
                });
            }
        }
        NeighborhoodPlan { outages }
    }

    /// The outage hitting `home`, if any.
    pub fn outage(&self, home: usize) -> Option<&HomeOutage> {
        self.outages.get(home).and_then(|o| o.as_ref())
    }

    /// Number of homes hit by an outage.
    pub fn affected(&self) -> usize {
        self.outages.iter().filter(|o| o.is_some()).count()
    }

    /// Number of homes the plan covers.
    pub fn homes(&self) -> usize {
        self.outages.len()
    }
}

/// Builds home `home`'s spec: the jittered morning workload
/// ([`FleetTemplate::home_spec`]) plus its share of the neighborhood
/// outage, if any.
///
/// `seed` is the home's derived seed (`home_seed(fleet_seed, home)`), as
/// passed by `run_fleet` to its `make_spec` callback.
pub fn neighborhood_home(
    template: &FleetTemplate,
    plan: &NeighborhoodPlan,
    home: usize,
    seed: u64,
) -> RunSpec {
    let mut spec = template.home_spec(seed);
    let Some(outage) = plan.outage(home) else {
        return spec;
    };
    // Which devices sit behind the hub is the home's own wiring: drawn
    // from the home seed (stable across plans with the same membership).
    let mut rng = SimRng::seed_from_u64(seed ^ 0x0BAD_48B0);
    let n = spec.home.len();
    spec.ping_interval = outage.ping;
    match outage.kind {
        OutageKind::FailStop => {
            let count = ((n as f64 * outage.device_fraction).round() as usize).clamp(1, n);
            let mut ids: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut ids);
            let mut failures = spec.failures.clone();
            for &i in ids.iter().take(count) {
                failures = failures.fail_recover(DeviceId(i as u32), outage.at, outage.duration);
            }
            spec.failures = failures;
        }
        OutageKind::FailSlow => {
            let (base, jitter) = match spec.latency {
                LatencyModel::Fixed(d) => (d, TimeDelta::ZERO),
                LatencyModel::Jittered { base, jitter } => (base, jitter),
            };
            spec.latency = LatencyModel::Jittered {
                base: TimeDelta::from_millis(base.as_millis() * outage.slow_factor),
                jitter: TimeDelta::from_millis(jitter.as_millis() * outage.slow_factor),
            };
            // The hub's worst child flaps through the window, keeping the
            // detector (and rollback machinery) busy.
            let flapper = DeviceId(rng.index(n) as u32);
            spec.failures = spec
                .failures
                .clone()
                .fail_recover(flapper, outage.at, outage.duration);
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use safehome_core::{EngineConfig, VisibilityModel};
    use safehome_harness::home_seed;

    fn template() -> FleetTemplate {
        FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()))
    }

    #[test]
    fn plan_is_deterministic_in_the_fleet_seed() {
        let p = NeighborhoodParams::default();
        let a = NeighborhoodPlan::generate(9, 128, &p);
        let b = NeighborhoodPlan::generate(9, 128, &p);
        assert_eq!(a, b);
        let c = NeighborhoodPlan::generate(10, 128, &p);
        assert_ne!(a, c, "different fleets draw different storms");
        assert_eq!(a.homes(), 128);
    }

    #[test]
    fn outages_are_clustered_not_uniform() {
        let p = NeighborhoodParams {
            cluster_size: 16,
            outage_p: 0.5,
            attach_p: 1.0,
            ..NeighborhoodParams::default()
        };
        let plan = NeighborhoodPlan::generate(3, 256, &p);
        assert!(plan.affected() > 0, "half the clusters should be hit");
        // With attach_p = 1, a cluster is hit all-or-nothing: every
        // 16-home block is homogeneous.
        for block in 0..(256 / 16) {
            let hits = (0..16)
                .filter(|i| plan.outage(block * 16 + i).is_some())
                .count();
            assert!(
                hits == 0 || hits == 16,
                "block {block} is mixed ({hits}/16) despite attach_p=1"
            );
        }
        // Neighbors in a hit block share the outage window.
        for h in 0..255 {
            if h / 16 == (h + 1) / 16 {
                if let (Some(a), Some(b)) = (plan.outage(h), plan.outage(h + 1)) {
                    assert_eq!((a.at, a.duration, a.kind), (b.at, b.duration, b.kind));
                }
            }
        }
    }

    #[test]
    fn er_membership_thins_hit_clusters() {
        let p = NeighborhoodParams {
            cluster_size: 32,
            outage_p: 1.0,
            attach_p: 0.5,
            ..NeighborhoodParams::default()
        };
        let plan = NeighborhoodPlan::generate(11, 320, &p);
        let frac = plan.affected() as f64 / 320.0;
        assert!(
            (0.35..0.65).contains(&frac),
            "attach_p=0.5 with every cluster hit should affect about half \
             the homes, got {frac:.2}"
        );
    }

    #[test]
    fn affected_homes_run_to_quiescence_and_abort_some_routines() {
        let t = template();
        let p = NeighborhoodParams {
            outage_p: 1.0,
            attach_p: 1.0,
            fail_slow_p: 0.0, // force fail-stop: the harsher case
            ..NeighborhoodParams::default()
        };
        let plan = NeighborhoodPlan::generate(21, 8, &p);
        assert_eq!(plan.affected(), 8);
        let mut aborted = 0u64;
        for home in 0..8 {
            let spec = neighborhood_home(&t, &plan, home, home_seed(21, home as u64));
            assert!(
                !spec.failures.is_empty(),
                "home {home} must carry the outage"
            );
            let out = safehome_harness::run(&spec);
            assert!(out.completed, "home {home} failed to quiesce");
            aborted += out.trace.aborted().len() as u64;
        }
        assert!(
            aborted > 0,
            "a whole-neighborhood fail-stop outage must abort some routines"
        );
    }

    #[test]
    fn fail_slow_homes_crawl_but_complete() {
        let t = template();
        let p = NeighborhoodParams {
            outage_p: 1.0,
            attach_p: 1.0,
            fail_slow_p: 1.0,
            ..NeighborhoodParams::default()
        };
        let plan = NeighborhoodPlan::generate(33, 4, &p);
        for home in 0..4 {
            let seed = home_seed(33, home as u64);
            let degraded = neighborhood_home(&t, &plan, home, seed);
            let clean = t.home_spec(seed);
            assert!(
                degraded.latency.max() >= clean.latency.max(),
                "fail-slow multiplies actuation latency"
            );
            let ping = degraded.ping_interval.as_millis();
            assert!(
                (40..=1_200).contains(&ping),
                "outage ping {ping}ms outside the severity range"
            );
            let out = safehome_harness::run(&degraded);
            assert!(out.completed, "home {home} failed to quiesce");
        }
    }

    #[test]
    fn unaffected_homes_are_plain_fleet_homes() {
        let t = template();
        let p = NeighborhoodParams {
            outage_p: 0.0,
            ..NeighborhoodParams::default()
        };
        let plan = NeighborhoodPlan::generate(1, 16, &p);
        assert_eq!(plan.affected(), 0);
        let seed = home_seed(1, 5);
        assert_eq!(neighborhood_home(&t, &plan, 5, seed), t.home_spec(seed));
    }
}
