//! # sirius-doris — the distributed host data warehouse (Apache Doris
//! stand-in)
//!
//! The paper's distributed experiment (§3.3, Figure 3, §4.3): a coordinator
//! parses and optimizes SQL, produces a distributed plan, checks node
//! liveness (a down-set standing in for heartbeats), and dispatches plan
//! fragments to compute nodes.
//! In vanilla mode the nodes execute fragments on their CPU engines and
//! exchange data through the host's native exchange; in **Sirius mode**
//! (Figure 3b) each node hands its fragments to a local Sirius GPU engine
//! and intermediate data moves through Sirius' NCCL-backed exchange
//! service, with exchanged intermediates registered as temporary tables and
//! deregistered when their fragments complete.
//!
//! The coordinator also owns fault recovery: failure detection through a
//! shared down-set (changed only by [`DorisCluster::mark_down`] or a node's
//! crash, no clock read), re-scheduling onto survivors
//! (re-partitioning the dead node's shards), bounded exponential-backoff
//! retry for transient faults, cancellation propagation, and graceful
//! degradation down to the single-node CPU engine when the fleet drops
//! below a majority quorum. Per-query counters are [`RecoveryStats`]; the
//! settable policy is [`ClusterConfig`] (retry budget and fault plan).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod cluster;
pub mod planner;

pub use cluster::{ClusterConfig, DorisCluster, NodeEngineKind, QueryOutcome, RecoveryStats};
pub use planner::{distribute, PartitionScheme, Partitioning};

/// Errors surfaced by the distributed host.
#[derive(Debug)]
pub enum DorisError {
    /// SQL frontend failure.
    Sql(sirius_sql::SqlError),
    /// A compute node failed executing its fragment (after recovery was
    /// exhausted or for a non-recoverable cause).
    Node {
        /// The failing node (stable id).
        node: usize,
        /// Its typed error.
        cause: sirius_core::SiriusError,
    },
    /// A fragment reported its node down while the coordinator's down-set
    /// still holds the node alive, so re-scheduling cannot drop it. Every
    /// crash site marks its node down first, so no query ends this way
    /// today; below quorum the coordinator takes the CPU fallback instead.
    NodeDown(usize),
    /// Distributed planning failure.
    Plan(String),
}

impl std::fmt::Display for DorisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DorisError::Sql(e) => write!(f, "sql error: {e}"),
            DorisError::Node { node, cause } => write!(f, "node {node} failed: {cause}"),
            DorisError::NodeDown(n) => write!(f, "node {n} is down"),
            DorisError::Plan(m) => write!(f, "distributed planning error: {m}"),
        }
    }
}

impl std::error::Error for DorisError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, DorisError>;
