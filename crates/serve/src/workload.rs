//! Seeded multi-tenant arrival traces for the serving benchmark.
//!
//! Arrivals are open-loop (clients do not wait for responses) with
//! exponentially distributed interarrival times — a Poisson process on
//! the *simulated* clock. Everything derives from the spec's seed through
//! the vendored xoshiro generator; no wall-clock time enters the trace,
//! so the same seed always yields byte-identical workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One tenant of the serving frontend.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (metrics labels, reports).
    pub name: String,
    /// Weighted-round-robin share of the stream pool relative to the
    /// other tenants (a weight-2 tenant gets twice the waves of a
    /// weight-1 tenant under contention).
    pub weight: u32,
}

impl TenantSpec {
    /// Tenant with `name` and `weight`.
    pub fn new(name: impl Into<String>, weight: u32) -> Self {
        TenantSpec {
            name: name.into(),
            weight: weight.max(1),
        }
    }
}

/// Parameters of a seeded Poisson arrival trace.
#[derive(Debug, Clone)]
pub struct ArrivalSpec {
    /// Seed for the trace generator (interarrivals, tenant choice,
    /// priorities, query mix).
    pub seed: u64,
    /// Aggregate arrival rate across all tenants, in queries per
    /// simulated second.
    pub rate_qps: f64,
    /// Total arrivals to generate.
    pub count: usize,
    /// The tenants; arrivals are assigned round-robin-weighted by
    /// [`TenantSpec::weight`] via a seeded draw.
    pub tenants: Vec<TenantSpec>,
    /// Number of distinct query shapes in the mix; each arrival draws a
    /// uniform `query_index` in `0..queries`.
    pub queries: usize,
}

/// One arrival in a generated trace, before it is bound to a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryArrival {
    /// Stable id (position in the trace).
    pub id: u64,
    /// Index into [`ArrivalSpec::tenants`].
    pub tenant: usize,
    /// Scheduling priority, `0..=3` (higher preempts lower in wave
    /// selection).
    pub priority: u8,
    /// Simulated arrival instant.
    pub arrival: Duration,
    /// Index into the benchmark's query mix, `0..spec.queries`.
    pub query_index: usize,
}

/// Generate a seeded open-loop Poisson trace. Interarrival gaps are
/// `-ln(1 - U) / rate`; tenants are drawn proportionally to their
/// weights; priorities are uniform in `0..=3`.
pub fn poisson_trace(spec: &ArrivalSpec) -> Vec<QueryArrival> {
    assert!(spec.rate_qps > 0.0, "arrival rate must be positive");
    assert!(!spec.tenants.is_empty(), "at least one tenant");
    assert!(spec.queries > 0, "at least one query shape");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let total_weight: u64 = spec.tenants.iter().map(|t| t.weight as u64).sum();
    let mut t = 0.0f64;
    (0..spec.count)
        .map(|i| {
            // sample_f64 is in [0, 1); 1-u is in (0, 1], so ln is finite.
            let u = rng.sample_f64();
            t += -(1.0 - u).ln() / spec.rate_qps;
            // The first tenant whose cumulative weight exceeds the draw.
            let pick = rng.gen_range(0..total_weight);
            let mut cumulative = 0u64;
            let tenant = spec
                .tenants
                .iter()
                .take_while(|ten| {
                    cumulative += ten.weight as u64;
                    cumulative <= pick
                })
                .count();
            QueryArrival {
                id: i as u64,
                tenant,
                priority: rng.gen_range(0..4u8),
                arrival: Duration::from_nanos((t * 1e9) as u64),
                query_index: rng.gen_range(0..spec.queries),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> ArrivalSpec {
        ArrivalSpec {
            seed,
            rate_qps: 100.0,
            count: 64,
            tenants: vec![TenantSpec::new("a", 3), TenantSpec::new("b", 1)],
            queries: 8,
        }
    }

    #[test]
    fn same_seed_same_trace() {
        assert_eq!(poisson_trace(&spec(7)), poisson_trace(&spec(7)));
        assert_ne!(poisson_trace(&spec(7)), poisson_trace(&spec(8)));
    }

    #[test]
    fn arrivals_are_sorted_and_bounded() {
        let trace = poisson_trace(&spec(42));
        assert_eq!(trace.len(), 64);
        for w in trace.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "arrivals monotone");
        }
        for a in &trace {
            assert!(a.tenant < 2);
            assert!(a.priority < 4);
            assert!(a.query_index < 8);
        }
    }

    #[test]
    fn tenant_weights_shape_the_draw() {
        let trace = poisson_trace(&ArrivalSpec {
            count: 2000,
            ..spec(3)
        });
        let a = trace.iter().filter(|q| q.tenant == 0).count();
        // Weight 3:1 → roughly three quarters of the arrivals.
        assert!((1300..1700).contains(&a), "tenant 0 drew {a}/2000");
    }

    #[test]
    fn mean_interarrival_tracks_rate() {
        let trace = poisson_trace(&ArrivalSpec {
            count: 4000,
            rate_qps: 1000.0,
            ..spec(11)
        });
        let span = trace.last().unwrap().arrival.as_secs_f64();
        let mean_gap = span / (trace.len() - 1) as f64;
        assert!(
            (0.0008..0.0012).contains(&mean_gap),
            "mean gap {mean_gap} for rate 1000"
        );
    }
}
