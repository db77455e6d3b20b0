//! # sirius-rmm — device memory management (RMM-equivalent)
//!
//! The paper's buffer manager (§3.2.3) divides GPU memory into two regions:
//! a pre-allocated **data caching** region (cached input tables, in device or
//! pinned host memory) and a **data processing** region (hash tables and
//! intermediates) managed by the RAPIDS Memory Manager pool allocator. This
//! crate reproduces that stack without CUDA:
//!
//! * [`PoolAllocator`] — a first-fit free-list sub-allocator over a simulated
//!   device address space, with coalescing frees, high-watermark tracking,
//!   and out-of-memory reporting (the RMM pool stand-in).
//! * [`regions::BufferRegions`] — the caching/processing split (50/50 in the
//!   paper's evaluation setup).
//! * [`cache::DataCache`] — a keyed cache over the caching region with a
//!   pinned-host overflow tier and an (out-of-core extension) disk tier.
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

pub mod cache;
pub mod pool;
pub mod regions;
pub mod stats;

pub use cache::{CacheTier, DataCache};
pub use pool::{Allocation, OutOfMemory, PoolAllocator};
pub use regions::BufferRegions;
pub use stats::PoolStats;
