//! # sirius-serve — the multi-query serving layer
//!
//! Everything below this crate executes one query at a time; a production
//! engine serving heavy traffic is judged on queries/sec under a mixed,
//! concurrent, multi-tenant load ("Accelerating Presto with GPUs" is
//! exactly this shape: GPU workers behind a serving frontend with
//! admission and fairness). This crate layers that frontend over the
//! pipeline-DAG executor:
//!
//! * **Admission control** ([`ServeConfig`]) — at most `max_in_flight`
//!   queries execute at once; the rest wait in a bounded queue, and
//!   arrivals past the queue's depth are rejected (backpressure).
//! * **Cross-query scheduling** ([`SiriusServer`]) — each server wave
//!   picks up to one in-flight query per device stream (priority first,
//!   then weighted round-robin between tenants) and advances each by one
//!   dependency wave of the core scheduler on a slice of the shared
//!   stream pool. The wave's wall-clock cost on the simulated device is
//!   the *longest* participant ([`sirius_hw::attribute_overlap`]), so
//!   concurrent queries genuinely overlap on the model.
//! * **Cross-query memory arbitration** — every query view shares one
//!   `GrantBroker` and one set of spill tiers, so memory pressure from
//!   one tenant steers other tenants onto their spill paths instead of
//!   failing them; per-query grant caps bound any single query's
//!   appetite.
//! * **Per-query telemetry isolation** — each query runs on a fresh
//!   device ledger with its own morsel counters and trace sink
//!   ([`sirius_core::SiriusEngine::query_view`]), so reports, spans, and
//!   ledger deltas never bleed between interleaved queries.
//! * **Resilience** — requests may carry deadlines on the simulated
//!   server clock (overdue queries cancel mid-flight through
//!   [`sirius_core::QueryRun::abort`]); retryable wave failures go back
//!   through admission with exponential backoff; and when broker
//!   pressure crosses [`ServeConfig::shed_pressure`], the server sheds
//!   low-priority waiting queries and narrows new admissions. Every
//!   request ends in exactly one typed [`QueryDisposition`].
//! * **Workloads and reports** ([`workload`], [`report`]) — seeded
//!   open-loop Poisson arrival traces and p50/p99/QPS summaries on the
//!   simulated clock, fully deterministic for a given seed.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod metrics;
pub mod planner;
pub mod report;
pub mod server;
pub mod workload;

pub use planner::{CachingPlanner, PlanCacheStats, ResolvedPlan};
pub use report::{percentile, ConcurrencyReport};
pub use server::{
    DispositionCounts, Query, QueryDisposition, QueryRequest, ServeConfig, ServeOutcome,
    ServedQuery, SiriusServer,
};
pub use workload::{poisson_trace, ArrivalSpec, QueryArrival, TenantSpec};
