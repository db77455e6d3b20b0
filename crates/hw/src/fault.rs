//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] is a list of [`FaultSpec`]s: *where* it goes wrong (a
//! [`FaultSite`]), *what* the call site does then (a [`FaultAction`]), after
//! how many occurrences of that site it starts firing (`after`), and how many
//! times it fires (`times`). Plans are either
//! hand-built through the builder methods or generated deterministically from
//! a seed with [`FaultPlan::seeded_chaos`] — the seed picks the faults, but
//! *firing* is purely counter-based, so a given plan always produces the same
//! failure schedule and recovery tests are reproducible.
//!
//! A [`FaultInjector`] is the runtime half: a cheaply cloneable handle shared
//! by the coordinator, the collectives layer, and the engines. Call sites
//! poll it with [`FaultInjector::fire`] at well-known [`FaultSite`]s; the
//! injector answers with the [`FaultAction`] to take, if any. A disabled
//! injector ([`FaultInjector::disabled`]) answers `None` without taking a
//! lock, so the hooks cost nothing on the fault-free path.
//!
//! ```
//! use sirius_hw::fault::{FaultInjector, FaultPlan, FaultSite};
//!
//! let plan = FaultPlan::new(7).transient_device(1, 0, 2);
//! let inj = FaultInjector::new(plan);
//! assert!(inj.fire(FaultSite::DeviceLaunch { node: 1 }).is_some());
//! assert!(inj.fire(FaultSite::DeviceLaunch { node: 1 }).is_some());
//! assert!(inj.fire(FaultSite::DeviceLaunch { node: 1 }).is_none()); // budget spent
//! ```

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// A well-known hook point where faults can fire. Ranks are *original*
/// cluster ranks, stable across world shrinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A node reached an exchange boundary mid-fragment; a firing crashes it.
    FragmentMid {
        /// Original rank of the executing node.
        node: usize,
    },
    /// A point-to-point exchange send from `src` to `dst`; a firing drops or
    /// delays it.
    ExchangeSend {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
    },
    /// A kernel/pipeline launch on `node`'s device; a firing fails it
    /// transiently (a retry succeeds).
    DeviceLaunch {
        /// Original rank of the launching node.
        node: usize,
    },
    /// A write into the spill tier on `node`; a firing is an I/O error.
    SpillWrite {
        /// Original rank performing the spill write.
        node: usize,
    },
    /// A dependency wave of an in-flight query is about to dispatch on
    /// `node`'s device (polled by the stepped executor between waves). A
    /// firing fails the query *after* it has done work and holds grants.
    WaveDispatch {
        /// Original rank dispatching the wave.
        node: usize,
    },
    /// A working-set grant request against `node`'s broker. A firing is a
    /// denial, which is the executor's spill signal: the victim degrades
    /// onto its out-of-core paths and still returns exact results.
    GrantRequest {
        /// Original rank requesting the grant.
        node: usize,
    },
}

impl FaultSite {
    /// The node this site belongs to; `None` for a link.
    pub fn node(self) -> Option<usize> {
        match self {
            FaultSite::FragmentMid { node }
            | FaultSite::DeviceLaunch { node }
            | FaultSite::SpillWrite { node }
            | FaultSite::WaveDispatch { node }
            | FaultSite::GrantRequest { node } => Some(node),
            FaultSite::ExchangeSend { .. } => None,
        }
    }
}

/// What a call site should do when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Abort: the node crashes / the send is dropped / the launch errors.
    Fail,
    /// Proceed, but charge the given extra simulated latency first.
    Delay(Duration),
}

/// One injected fault: the [`FaultSite`] it targets, the [`FaultAction`] it
/// answers with, and a deterministic firing window.
///
/// The spec matches the occurrences of exactly its site; it stays silent
/// for the first `after` of them, then fires on the next `times`, then goes
/// silent again. `times = u64::MAX` models a permanent fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Where it goes wrong.
    pub site: FaultSite,
    /// What the call site does when it fires.
    pub action: FaultAction,
    /// Number of matching occurrences to skip before firing.
    pub after: u64,
    /// Maximum number of times this spec fires.
    pub times: u64,
}

/// A deterministic schedule of faults for one cluster run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was derived from (0 for hand-built plans).
    pub seed: u64,
    /// The faults in this plan.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan tagged with `seed` (builder entry point).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            specs: Vec::new(),
        }
    }

    fn with(mut self, site: FaultSite, action: FaultAction, after: u64, times: u64) -> Self {
        self.specs.push(FaultSpec {
            site,
            action,
            after,
            times,
        });
        self
    }

    /// Node `node` crashes at its `after`-th exchange boundary.
    pub fn crash_mid(self, node: usize, after: u64) -> Self {
        let site = FaultSite::FragmentMid { node };
        self.with(site, FaultAction::Fail, after, u64::MAX)
    }

    /// Drop `times` sends on the `src → dst` link after skipping `after`.
    pub fn drop_link(self, src: usize, dst: usize, after: u64, times: u64) -> Self {
        let site = FaultSite::ExchangeSend { src, dst };
        self.with(site, FaultAction::Fail, after, times)
    }

    /// Delay sends on the `src → dst` link by `delay`.
    pub fn delay_link(
        self,
        src: usize,
        dst: usize,
        delay: Duration,
        after: u64,
        times: u64,
    ) -> Self {
        let site = FaultSite::ExchangeSend { src, dst };
        self.with(site, FaultAction::Delay(delay), after, times)
    }

    /// Inject `times` transient device errors on `node` after skipping `after`.
    pub fn transient_device(self, node: usize, after: u64, times: u64) -> Self {
        let site = FaultSite::DeviceLaunch { node };
        self.with(site, FaultAction::Fail, after, times)
    }

    /// Inject `times` spill I/O errors on `node` after skipping `after`.
    pub fn spill_io(self, node: usize, after: u64, times: u64) -> Self {
        let site = FaultSite::SpillWrite { node };
        self.with(site, FaultAction::Fail, after, times)
    }

    /// Inject `times` mid-query wave failures on `node` after skipping
    /// `after` dispatched waves.
    pub fn transient_wave(self, node: usize, after: u64, times: u64) -> Self {
        let site = FaultSite::WaveDispatch { node };
        self.with(site, FaultAction::Fail, after, times)
    }

    /// Deny `times` working-set grant requests on `node` after skipping
    /// `after` (a broker denial storm — victims spill, they don't fail).
    pub fn grant_storm(self, node: usize, after: u64, times: u64) -> Self {
        let site = FaultSite::GrantRequest { node };
        self.with(site, FaultAction::Fail, after, times)
    }

    /// Generate a deterministic *recoverable* chaos plan for a `world`-node
    /// cluster: one to three faults drawn from the transient kinds plus at
    /// most one mid-fragment crash, never killing node 0 (the coordinator's
    /// result rank) and never enough nodes to lose quorum. The same
    /// `(seed, world)` always yields the same plan.
    pub fn seeded_chaos(seed: u64, world: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5169_7269_7573_u64);
        let mut plan = FaultPlan::new(seed);
        let world = world.max(1);
        let n_faults = 1 + (rng.next() % 3) as usize;
        let mut crashed = false;
        for _ in 0..n_faults {
            let pick = rng.next() % 4;
            match pick {
                0 if world > 2 && !crashed => {
                    // Crash one non-zero node mid-fragment; recovery
                    // re-schedules onto the survivors.
                    let node = 1 + (rng.next() as usize % (world - 1));
                    plan = plan.crash_mid(node, rng.next() % 2);
                    crashed = true;
                }
                1 if world > 1 => {
                    let src = rng.next() as usize % world;
                    let dst = (src + 1 + rng.next() as usize % (world - 1)) % world;
                    plan = plan.drop_link(src, dst, rng.next() % 2, 1 + rng.next() % 2);
                }
                2 if world > 1 => {
                    let src = rng.next() as usize % world;
                    let dst = (src + 1 + rng.next() as usize % (world - 1)) % world;
                    let delay = Duration::from_millis(1 + rng.next() % 20);
                    plan = plan.delay_link(src, dst, delay, 0, 1 + rng.next() % 3);
                }
                _ => {
                    let node = rng.next() as usize % world;
                    plan = plan.transient_device(node, rng.next() % 2, 1 + rng.next() % 2);
                }
            }
        }
        plan
    }

    /// Generate a deterministic *engine-local* chaos plan for a single
    /// node: one to three faults drawn from the recoverable single-node
    /// kinds — a transient launch failure, a mid-query wave failure, a
    /// spill I/O error, or a grant denial storm — all with bounded firing
    /// windows, so a server retrying with backoff (or spilling through
    /// the storm) always converges. The same `seed` always yields the
    /// same plan. Faults target stable node id `node`.
    pub fn seeded_chaos_local(seed: u64, node: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x0010_CA1C_4A05_u64);
        let mut plan = FaultPlan::new(seed);
        let n_faults = 1 + (rng.next() % 3) as usize;
        for _ in 0..n_faults {
            let after = rng.next() % 3;
            let times = 1 + rng.next() % 2;
            plan = match rng.next() % 4 {
                0 => plan.transient_device(node, after, times),
                1 => plan.transient_wave(node, after, times),
                2 => plan.spill_io(node, after, times),
                // Storms get a bigger budget: each denial only steers one
                // operator onto its spill path.
                _ => plan.grant_storm(node, after, 2 + rng.next() % 4),
            };
        }
        plan
    }
}

/// splitmix64 — the same tiny deterministic generator used by the spill
/// subsystem's radix-hash salting. Good enough to diversify chaos plans.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

struct InjectorState {
    plan: FaultPlan,
    /// Occurrence counter per spec (how many matching sites were seen).
    seen: Vec<u64>,
    /// How many times each spec has fired.
    fired: Vec<u64>,
    injected: u64,
}

/// Runtime fault dispenser shared across the cluster. Cloning shares state;
/// [`FaultInjector::disabled`] is a zero-cost no-op handle.
#[derive(Clone)]
pub struct FaultInjector {
    state: Option<Arc<Mutex<InjectorState>>>,
}

impl FaultInjector {
    /// An injector driven by `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let n = plan.specs.len();
        Self {
            state: Some(Arc::new(Mutex::new(InjectorState {
                plan,
                seen: vec![0; n],
                fired: vec![0; n],
                injected: 0,
            }))),
        }
    }

    /// A no-op injector: every [`fire`](Self::fire) returns `None`.
    pub fn disabled() -> Self {
        Self { state: None }
    }

    /// Whether this handle carries a plan at all.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Poll the injector at `site`. Returns the action to take if a fault
    /// fires, advancing the deterministic occurrence counters either way.
    pub fn fire(&self, site: FaultSite) -> Option<FaultAction> {
        let state = self.state.as_ref()?;
        let mut st = state.lock();
        let mut hit = None;
        for i in 0..st.plan.specs.len() {
            if st.plan.specs[i].site != site {
                continue;
            }
            st.seen[i] += 1;
            let FaultSpec {
                action,
                after,
                times,
                ..
            } = st.plan.specs[i];
            if st.seen[i] > after && st.fired[i] < times && hit.is_none() {
                st.fired[i] += 1;
                st.injected += 1;
                hit = Some(action);
            }
        }
        hit
    }

    /// Permanently disarm every spec targeting original rank `node` (used
    /// once a node has been removed from the cluster, so its crash spec does
    /// not re-fire against a re-used slot).
    pub fn disarm_node(&self, node: usize) {
        let Some(state) = self.state.as_ref() else {
            return;
        };
        let mut st = state.lock();
        for i in 0..st.plan.specs.len() {
            if st.plan.specs[i].site.node() == Some(node) {
                st.fired[i] = st.plan.specs[i].times;
            }
        }
    }

    /// Total number of faults this injector has fired so far.
    pub fn injected_count(&self) -> u64 {
        self.state.as_ref().map_or(0, |state| state.lock().injected)
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("enabled", &self.is_enabled())
            .field("injected", &self.injected_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        for _ in 0..8 {
            assert_eq!(inj.fire(FaultSite::FragmentMid { node: 0 }), None);
        }
        assert_eq!(inj.injected_count(), 0);
    }

    #[test]
    fn after_and_times_window() {
        let inj = FaultInjector::new(FaultPlan::new(0).transient_device(2, 1, 2));
        let site = FaultSite::DeviceLaunch { node: 2 };
        assert_eq!(inj.fire(site), None); // skipped (after = 1)
        assert_eq!(inj.fire(site), Some(FaultAction::Fail));
        assert_eq!(inj.fire(site), Some(FaultAction::Fail));
        assert_eq!(inj.fire(site), None); // budget of 2 spent
        assert_eq!(inj.injected_count(), 2);
    }

    #[test]
    fn sites_are_matched_precisely() {
        let inj = FaultInjector::new(FaultPlan::new(0).drop_link(0, 1, 0, u64::MAX));
        assert_eq!(inj.fire(FaultSite::ExchangeSend { src: 1, dst: 0 }), None);
        assert_eq!(inj.fire(FaultSite::DeviceLaunch { node: 0 }), None);
        assert_eq!(
            inj.fire(FaultSite::ExchangeSend { src: 0, dst: 1 }),
            Some(FaultAction::Fail)
        );
    }

    #[test]
    fn delay_carries_duration() {
        let d = Duration::from_millis(5);
        let inj = FaultInjector::new(FaultPlan::new(0).delay_link(1, 2, d, 0, 1));
        assert_eq!(
            inj.fire(FaultSite::ExchangeSend { src: 1, dst: 2 }),
            Some(FaultAction::Delay(d))
        );
        assert_eq!(inj.fire(FaultSite::ExchangeSend { src: 1, dst: 2 }), None);
    }

    #[test]
    fn seeded_chaos_is_deterministic_and_recoverable() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded_chaos(seed, 4);
            let b = FaultPlan::seeded_chaos(seed, 4);
            assert_eq!(a, b);
            assert!(!a.specs.is_empty() && a.specs.len() <= 3);
            let crashes: Vec<_> = a
                .specs
                .iter()
                .filter_map(|s| match s.site {
                    FaultSite::FragmentMid { node } => Some(node),
                    _ => None,
                })
                .collect();
            assert!(crashes.len() <= 1, "at most one crash per chaos plan");
            assert!(!crashes.contains(&0), "node 0 never crashes");
        }
    }

    #[test]
    fn engine_local_sites_fire_their_kinds() {
        let inj = FaultInjector::new(
            FaultPlan::new(0)
                .transient_wave(0, 0, 1)
                .grant_storm(0, 1, 2),
        );
        assert_eq!(
            inj.fire(FaultSite::WaveDispatch { node: 0 }),
            Some(FaultAction::Fail)
        );
        assert_eq!(inj.fire(FaultSite::WaveDispatch { node: 0 }), None);
        // Wrong node never matches.
        assert_eq!(inj.fire(FaultSite::GrantRequest { node: 1 }), None);
        assert_eq!(inj.fire(FaultSite::GrantRequest { node: 0 }), None); // after = 1
        assert_eq!(
            inj.fire(FaultSite::GrantRequest { node: 0 }),
            Some(FaultAction::Fail)
        );
        assert_eq!(
            inj.fire(FaultSite::GrantRequest { node: 0 }),
            Some(FaultAction::Fail)
        );
        assert_eq!(inj.fire(FaultSite::GrantRequest { node: 0 }), None);
        assert_eq!(inj.injected_count(), 3);
    }

    #[test]
    fn seeded_chaos_local_is_deterministic_and_bounded() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded_chaos_local(seed, 0);
            let b = FaultPlan::seeded_chaos_local(seed, 0);
            assert_eq!(a, b);
            assert!(!a.specs.is_empty() && a.specs.len() <= 3);
            for s in &a.specs {
                // Every engine-local fault is recoverable and targets the
                // requested node with a finite firing budget.
                assert_local(s, 0);
                assert!(s.times < u64::MAX, "bounded firing window");
            }
        }
        // Node id is threaded through, not hard-coded.
        for s in &FaultPlan::seeded_chaos_local(7, 3).specs {
            assert_local(s, 3);
        }
    }

    fn assert_local(s: &FaultSpec, node: usize) {
        match s.site {
            FaultSite::DeviceLaunch { node: n }
            | FaultSite::WaveDispatch { node: n }
            | FaultSite::SpillWrite { node: n }
            | FaultSite::GrantRequest { node: n } => assert_eq!(n, node),
            site => panic!("non-local fault in local chaos plan: {site:?}"),
        }
    }

    #[test]
    fn disarm_node_silences_engine_local_specs() {
        let inj = FaultInjector::new(
            FaultPlan::new(0)
                .transient_wave(1, 0, 5)
                .grant_storm(1, 0, 5),
        );
        inj.disarm_node(1);
        assert_eq!(inj.fire(FaultSite::WaveDispatch { node: 1 }), None);
        assert_eq!(inj.fire(FaultSite::GrantRequest { node: 1 }), None);
    }

    #[test]
    fn disarm_node_silences_its_specs() {
        let inj = FaultInjector::new(FaultPlan::new(0).crash_mid(3, 0));
        inj.disarm_node(3);
        assert_eq!(inj.fire(FaultSite::FragmentMid { node: 3 }), None);
    }

    /// Every site a production call site polls, one value each. The match
    /// below has no wildcard arm, so a new [`FaultSite`] does not compile
    /// until it is listed here — and then the test needs a builder for it.
    fn every_site() -> [FaultSite; 6] {
        let sites = [
            FaultSite::FragmentMid { node: 1 },
            FaultSite::ExchangeSend { src: 1, dst: 2 },
            FaultSite::DeviceLaunch { node: 1 },
            FaultSite::SpillWrite { node: 1 },
            FaultSite::WaveDispatch { node: 1 },
            FaultSite::GrantRequest { node: 1 },
        ];
        for site in sites {
            match site {
                FaultSite::FragmentMid { .. }
                | FaultSite::ExchangeSend { .. }
                | FaultSite::DeviceLaunch { .. }
                | FaultSite::SpillWrite { .. }
                | FaultSite::WaveDispatch { .. }
                | FaultSite::GrantRequest { .. } => {}
            }
        }
        sites
    }

    #[test]
    fn every_site_is_reachable_through_exactly_its_builder() {
        let d = Duration::from_millis(3);
        let plan = || FaultPlan::new(0);
        let builders = [
            (plan().crash_mid(1, 0), 0, FaultAction::Fail),
            (plan().drop_link(1, 2, 0, 1), 1, FaultAction::Fail),
            (plan().delay_link(1, 2, d, 0, 1), 1, FaultAction::Delay(d)),
            (plan().transient_device(1, 0, 1), 2, FaultAction::Fail),
            (plan().spill_io(1, 0, 1), 3, FaultAction::Fail),
            (plan().transient_wave(1, 0, 1), 4, FaultAction::Fail),
            (plan().grant_storm(1, 0, 1), 5, FaultAction::Fail),
        ];
        let sites = every_site();
        for (plan, target, action) in builders.iter().cloned() {
            let inj = FaultInjector::new(plan);
            for (i, site) in sites.into_iter().enumerate() {
                let expect = (i == target).then_some(action);
                assert_eq!(inj.fire(site), expect, "{site:?} ({action:?})");
            }
        }
        for (i, site) in sites.iter().enumerate() {
            let reached = builders.iter().any(|(_, target, _)| *target == i);
            assert!(reached, "no builder reaches {site:?}");
        }
    }

    #[test]
    fn clones_share_counters() {
        let inj = FaultInjector::new(FaultPlan::new(0).transient_device(0, 0, 1));
        let inj2 = inj.clone();
        assert_eq!(
            inj2.fire(FaultSite::DeviceLaunch { node: 0 }),
            Some(FaultAction::Fail)
        );
        assert_eq!(inj.fire(FaultSite::DeviceLaunch { node: 0 }), None);
        assert_eq!(inj.injected_count(), 1);
    }
}
