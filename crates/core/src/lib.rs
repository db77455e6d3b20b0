//! # sirius-core — the Sirius GPU-native SQL engine
//!
//! The paper's primary contribution (§3): a SQL execution engine that treats
//! the GPU as the *primary* execution device, consumes Substrait-style plans
//! from host databases, and executes them end-to-end on device — scan to
//! result. What it cannot run comes back as a typed [`SiriusError`]; the
//! host decides whether to run the plan itself (§3.2.2).
//!
//! Architecture (Figure 2):
//!
//! * **Query execution engine** ([`engine`]) — compiles the normalized plan
//!   into a physical pipeline DAG ([`physical`]), schedules ready pipelines
//!   in waves over round-robin device streams ([`schedule`]), and runs each
//!   pipeline as morsel tasks through a global task queue
//!   ([`pipeline`]) drained by CPU worker threads, push-based over the GPU
//!   kernel library (`sirius-cudf`). Operators stay stateless; the
//!   scheduler owns all breaker state.
//! * **Buffer manager** ([`buffer`]) — the two-region memory layout of
//!   §3.2.3: a pre-allocated caching region (with pinned-host overflow) and
//!   an RMM-pooled processing region. The paper's `u64` ↔ `i32`
//!   row-index conversion at the libcudf boundary is not modelled: the
//!   kernels index rows with `i32` throughout (DESIGN §3).
//! * **Exchange service layer** ([`exchange`]) — broadcast / shuffle /
//!   merge / multicast over the NCCL layer (§3.2.4). Bypassed entirely in
//!   single-node deployments.
//! * **Drop-in acceleration** — the host-facing entry is
//!   [`SiriusEngine::execute_json`]: plans arrive as Substrait JSON and
//!   results return as shared columnar tables.

#![warn(missing_docs)]
// No panic is reachable from a query: failures are `SiriusError`s, and a
// task that panics on the worker pool is its batch slot's error.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod buffer;
pub mod engine;
pub mod exchange;
pub mod explain;
pub mod exprs;
pub mod metrics;
mod morsel;
mod oom;
pub mod physical;
pub mod pipeline;
pub mod plan_cache;
pub mod schedule;

pub use buffer::BufferManager;
pub use engine::{EngineConfig, SiriusEngine, DEFAULT_MORSEL_ROWS};
pub use explain::OpStats;
pub use metrics::{MorselStats, QueryReport, RecoveryStats};
pub use plan_cache::{CompiledQuery, FeedbackStore, PlanCache, PlanCacheStats, ShapeFeedback};
pub use schedule::{QueryRun, Scheduling};
pub use sirius_spill::{SpillConfig, SpillStats};

/// Decode any dictionary-encoded columns of a gathered result table,
/// charging the decode kernel to `device` under the `Project` category.
/// Distributed coordinators call this once after collecting results from
/// node engines that ran with [`EngineConfig::encoded_results`] — strings
/// cross the wire as codes and become payload bytes only here.
pub fn materialize_result(
    device: &sirius_hw::Device,
    t: &sirius_columnar::Table,
) -> Result<sirius_columnar::Table> {
    let ctx = sirius_cudf::GpuContext::new(device.clone(), sirius_hw::CostCategory::Project);
    sirius_cudf::materialize::materialize_strings(&ctx, t)
        .map_err(|e| SiriusError::Kernel(e.to_string()))
}

/// Errors from the GPU engine. A host that embeds the engine may run the
/// plan itself on any of them (§3.2.2's graceful fallback).
#[derive(Debug, Clone)]
pub enum SiriusError {
    /// The plan failed validation.
    Plan(sirius_plan::PlanError),
    /// A kernel rejected its inputs.
    Kernel(String),
    /// A referenced table is not cached and no host loader was provided.
    TableNotCached(String),
    /// A request could not be planned (the serve planner's SQL planning
    /// failures).
    Unsupported(String),
    /// Every memory tier exhausted. Out-of-core execution (§3.4) spills
    /// denied working sets through pinned host memory and disk, so this is
    /// now a last resort — raised only when a single morsel's working set
    /// exceeds device, pinned, and disk capacity combined (or cannot
    /// decompose, e.g. ungrouped `COUNT(DISTINCT)`) — and a host then
    /// runs the plan itself.
    OutOfMemory(String),
    /// Exchange-layer failure.
    Exchange(String),
    /// A cluster node died (heartbeat lapse or injected crash); carries the
    /// node's stable id. The coordinator recovers by re-scheduling onto the
    /// survivors.
    NodeDown(usize),
    /// An exchange send was dropped or timed out — retryable: the retry
    /// re-runs the query on a fresh collective epoch.
    ExchangeTimeout(String),
    /// A kernel launch failed transiently (ECC hiccup, driver reset) —
    /// retryable.
    TransientDevice(String),
    /// A spill-tier read/write failed — retryable (the retry re-plans the
    /// working set).
    SpillIo(String),
    /// The fragment was aborted by cluster-wide cancellation after a sibling
    /// fragment failed — retryable alongside the sibling's retry.
    Cancelled(String),
}

impl SiriusError {
    /// Whether the coordinator may retry the query after this error.
    /// Transient faults (exchange timeouts, device hiccups, spill I/O,
    /// cancellation fallout) are retryable with backoff; plan, resource,
    /// and node-death errors need different handling.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SiriusError::ExchangeTimeout(_)
                | SiriusError::TransientDevice(_)
                | SiriusError::SpillIo(_)
                | SiriusError::Cancelled(_)
        )
    }
}

/// How often, and how far apart, a transient failure is retried — the one
/// policy behind the serving layer's re-admission and the distributed
/// coordinator's re-dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries granted after the first attempt before the failure stands.
    pub max_retries: u32,
    /// Wait before the first retry; doubles with every further one.
    pub backoff: std::time::Duration,
}

impl RetryPolicy {
    /// The wait before retry `attempt + 1`: `backoff · 2^min(attempt, 16)`,
    /// saturating.
    pub fn delay(&self, attempt: u32) -> std::time::Duration {
        self.backoff.saturating_mul(1 << attempt.min(16))
    }

    /// Whether error `e`, raised after `attempt` retries were already
    /// spent, earns another: it must be transient
    /// ([`SiriusError::is_retryable`]) and the budget must not be used up.
    pub fn allows(&self, e: &SiriusError, attempt: u32) -> bool {
        e.is_retryable() && attempt < self.max_retries
    }
}

impl From<sirius_plan::PlanError> for SiriusError {
    fn from(e: sirius_plan::PlanError) -> Self {
        SiriusError::Plan(e)
    }
}

impl From<sirius_cudf::KernelError> for SiriusError {
    fn from(e: sirius_cudf::KernelError) -> Self {
        SiriusError::Kernel(e.to_string())
    }
}

impl std::fmt::Display for SiriusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SiriusError::Plan(e) => write!(f, "plan error: {e}"),
            SiriusError::Kernel(m) => write!(f, "kernel error: {m}"),
            SiriusError::TableNotCached(t) => write!(f, "table not cached: {t}"),
            SiriusError::Unsupported(m) => write!(f, "unsupported on GPU: {m}"),
            SiriusError::OutOfMemory(m) => write!(f, "device out of memory: {m}"),
            SiriusError::Exchange(m) => write!(f, "exchange error: {m}"),
            SiriusError::NodeDown(n) => write!(f, "node {n} is down"),
            SiriusError::ExchangeTimeout(m) => write!(f, "exchange timeout: {m}"),
            SiriusError::TransientDevice(m) => write!(f, "transient device error: {m}"),
            SiriusError::SpillIo(m) => write!(f, "spill I/O error: {m}"),
            SiriusError::Cancelled(m) => write!(f, "fragment cancelled: {m}"),
        }
    }
}

impl std::error::Error for SiriusError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, SiriusError>;
