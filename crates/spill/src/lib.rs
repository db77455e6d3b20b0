//! # sirius-spill — out-of-core execution support (§3.4)
//!
//! The paper defers larger-than-GPU-memory workloads to future work,
//! planning "spilling to pinned memory and disk". This crate implements that
//! plan as a layer between `sirius-rmm` (the pooled processing region) and
//! `sirius-core` (the executor):
//!
//! * [`GrantBroker`] — a memory-grant broker over the processing region.
//!   Operators reserve their estimated working set *before* launching
//!   kernels; a denied grant triggers spilling instead of surfacing an
//!   out-of-memory error.
//! * [`SpillManager`] — the pinned-host and disk spill tiers, each modeled
//!   as a capacity-tracked pool. Spilled partitions reserve tier space
//!   through RAII [`SpillTicket`]s; the caller (the buffer manager) charges
//!   the interconnect/storage bandwidth for each write and read-back.
//! * [`SpillStats`] — monotonic counters (bytes per tier, partitions,
//!   recursion depth, denied grants) surfaced in `QueryReport`.
//!
//! Like the rest of the workspace, everything here is *accounting*: the
//! spilled bytes live in ordinary host tables, and what the tiers simulate
//! is capacity pressure and the bandwidth cost of moving partitions across
//! the CPU↔GPU interconnect and to storage.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod broker;
pub mod manager;

pub use broker::{GrantBroker, MemoryGrant};
pub use manager::{SpillConfig, SpillManager, SpillStats, SpillTicket, SpillTier};
