//! # sirius-nccl — simulated GPU collective communication (NCCL-equivalent)
//!
//! §3.2.4: "Sirius supports common exchange patterns — broadcast, shuffle,
//! merge, and multi-cast — all implemented using NCCL primitives." This
//! crate holds the two primitives those patterns need, shuffle (all-to-all)
//! and merge (gather); the exchange layer (`sirius_core::exchange`)
//! composes broadcast and multi-cast from shuffle. It runs without real
//! GPUs or a real network: a cluster of per-rank communicators connected
//! by `std::sync::mpsc` channels (one mailbox per rank, every rank holding
//! a sender to each), moving real `Table` payloads (zero-copy `Arc`
//! handoff in-process), while modeling wire time against a shared
//! interconnect [`sirius_hw::Link`].
//!
//! Each collective returns the simulated wall time its caller's rank spent
//! on the wire; the exchange service charges that to the node's device
//! ledger under `CostCategory::Exchange`, which is how Table 2's exchange
//! column is produced.
//!
//! Collectives are matched by an internal per-communicator sequence number,
//! so every rank must invoke the same collectives in the same order (the
//! standard NCCL contract).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod cluster;
pub mod collectives;

pub use cluster::{CancelToken, Communicator, LinkTraffic, NcclCluster};

/// Errors from the communication layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NcclError {
    /// A peer hung up (channel disconnected).
    Disconnected {
        /// The peer whose channel closed.
        peer: usize,
    },
    /// Timed out waiting for a matching message.
    Timeout {
        /// The peer we were waiting on.
        peer: usize,
        /// The sequence number expected.
        seq: u64,
    },
    /// Rank argument out of range.
    InvalidRank(usize),
    /// An injected link fault dropped the send (modeled as a NIC-level
    /// transmit error, surfaced to the sender so tests need not wait out
    /// the receive timeout).
    LinkFault {
        /// Sending node (original id).
        src: usize,
        /// Receiving node (original id).
        dst: usize,
    },
    /// The operation was aborted by cluster-wide cancellation.
    Cancelled,
}

impl std::fmt::Display for NcclError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NcclError::Disconnected { peer } => write!(f, "peer {peer} disconnected"),
            NcclError::Timeout { peer, seq } => {
                write!(f, "timeout waiting for peer {peer} (seq {seq})")
            }
            NcclError::InvalidRank(r) => write!(f, "invalid rank {r}"),
            NcclError::LinkFault { src, dst } => {
                write!(f, "link fault on {src} -> {dst} (send dropped)")
            }
            NcclError::Cancelled => write!(f, "collective cancelled"),
        }
    }
}

impl std::error::Error for NcclError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, NcclError>;
