//! # sirius-rmm — the memory hierarchy below the engine (RMM-equivalent)
//!
//! The paper's buffer manager (§3.2.3) divides GPU memory into two regions:
//! a pre-allocated **data caching** region (cached input tables, in device or
//! pinned host memory) and a **data processing** region (hash tables and
//! intermediates) managed by the RAPIDS Memory Manager pool allocator. Its
//! out-of-core plan (§3.4) spills "to pinned memory and disk". This crate
//! reproduces that one hierarchy without CUDA:
//!
//! * [`PoolAllocator`] — a first-fit free-list sub-allocator over a simulated
//!   device address space, with coalescing frees, high-watermark tracking,
//!   and out-of-memory reporting (the RMM pool stand-in).
//! * [`regions::BufferRegions`] — the caching/processing split (50/50 in the
//!   paper's evaluation setup).
//! * [`GrantBroker`] — working-set reservations over the processing region;
//!   a denied grant is an operator's signal to spill instead of failing.
//! * [`cache::DataCache`] — a keyed cache over the caching region that
//!   demotes cold entries to the pinned tier, then to disk.
//! * [`SpillManager`] — the spill store: partitions parked on the pinned
//!   tier, then on disk, through RAII [`SpillTicket`]s. It shares its
//!   pinned pool with the cache's overflow, so one pinned tier backs both.
//!
//! All "memory" here is accounting: the actual bytes live in ordinary host
//! heap buffers owned by `sirius-columnar`. What the allocator simulates is
//! *capacity pressure* — whether the paper's 92 GB HBM would have fit the
//! working set, when spilling would trigger, and what the pool's
//! fragmentation looks like.

#![warn(missing_docs)]
// A full tier is a typed outcome (`None`, `false`, an allocation error),
// never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod broker;
pub mod cache;
pub mod manager;
pub mod pool;
pub mod regions;
pub mod stats;

pub use broker::{GrantBroker, MemoryGrant};
pub use cache::DataCache;
pub use manager::{SpillManager, SpillStats, SpillTicket};
pub use pool::{Allocation, OutOfMemory, PoolAllocator};
pub use regions::BufferRegions;
pub use stats::PoolStats;

/// Pinned host memory behind the device, as on the paper's GH200 host:
/// one pool holds both the cache's overflow and spilled partitions.
pub const PINNED_CAPACITY: u64 = 64 << 30;

/// The disk tier: a large-but-finite NVMe volume for spilled partitions
/// (cached tables demoted to disk reserve nothing).
pub const DISK_CAPACITY: u64 = 1 << 40;

/// Where bytes reside in the memory hierarchy, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// GPU device memory (HBM) — full-bandwidth access.
    Device,
    /// Pinned host memory — one interconnect crossing away.
    Pinned,
    /// Disk (out-of-core extension) — a storage transfer, modeled at a
    /// quarter of the interconnect bandwidth.
    Disk,
}
