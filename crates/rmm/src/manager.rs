//! The tiered spill store: pinned host memory, then disk.
//!
//! When a grant is denied, spilling operators radix-partition their inputs
//! and park cold partitions here. Each write reserves space on the highest
//! tier with room (pinned host first, disk as the backstop) and returns an
//! RAII [`SpillTicket`]; dropping the ticket releases the space once the
//! partition has been read back and processed. Both tiers are finite, so a
//! working set that exceeds *every* tier combined still fails — that is the
//! one remaining hard out-of-memory condition, and the executor's last
//! resort (whole-plan host fallback) only triggers there.

use crate::pool::{Allocation, PoolAllocator};
use crate::Tier;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic spill counters. One query's share is its run's report: the
/// engine's run meter adds it up step by step, because query views share
/// one manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Bytes written to the pinned-host tier.
    pub bytes_to_pinned: u64,
    /// Bytes written to the disk tier.
    pub bytes_to_disk: u64,
    /// Bytes read back from spill (both tiers).
    pub bytes_read_back: u64,
    /// Partitions spilled.
    pub partitions: u64,
    /// Deepest recursive-repartitioning level reached (1 = one round of
    /// partitioning sufficed). Reported as a lifetime maximum.
    pub max_depth: u32,
}

impl SpillStats {
    /// Counters accumulated since `before` was snapshotted. `max_depth` is
    /// a lifetime maximum, not a delta.
    pub fn since(&self, before: &SpillStats) -> SpillStats {
        SpillStats {
            bytes_to_pinned: self.bytes_to_pinned.saturating_sub(before.bytes_to_pinned),
            bytes_to_disk: self.bytes_to_disk.saturating_sub(before.bytes_to_disk),
            bytes_read_back: self.bytes_read_back.saturating_sub(before.bytes_read_back),
            partitions: self.partitions.saturating_sub(before.partitions),
            max_depth: self.max_depth,
        }
    }

    /// Total bytes spilled across both tiers.
    pub fn bytes_spilled(&self) -> u64 {
        self.bytes_to_pinned + self.bytes_to_disk
    }
}

/// The spill store: parks partitions on the pinned tier, then on disk, and
/// keeps the spill counters. Thread-safe; one per engine.
pub struct SpillManager {
    pinned: PoolAllocator,
    disk: PoolAllocator,
    /// Bytes held by live tickets `[pinned, disk]`. The pinned pool also
    /// holds the cache's overflow, so its own count is not the spill's.
    parked: Arc<[AtomicU64; 2]>,
    stats: Mutex<SpillStats>,
}

impl SpillManager {
    /// A store over the `pinned` and `disk` tier pools.
    pub fn new(pinned: PoolAllocator, disk: PoolAllocator) -> Self {
        Self {
            pinned,
            disk,
            parked: Arc::new([AtomicU64::new(0), AtomicU64::new(0)]),
            stats: Mutex::new(SpillStats::default()),
        }
    }

    /// Park `bytes` of partition data on the highest tier with room.
    /// `None` means every tier is full — the hard out-of-memory case.
    pub fn write(&self, bytes: u64) -> Option<SpillTicket> {
        let (alloc, tier) = match self.pinned.alloc(bytes) {
            Ok(a) => (a, Tier::Pinned),
            Err(_) => (self.disk.alloc(bytes).ok()?, Tier::Disk),
        };
        {
            let mut s = self.stats.lock();
            s.partitions += 1;
            match tier {
                Tier::Pinned => s.bytes_to_pinned += bytes,
                _ => s.bytes_to_disk += bytes,
            }
        }
        self.parked[slot(tier)].fetch_add(alloc.size(), Ordering::Relaxed);
        Some(SpillTicket {
            alloc,
            tier,
            bytes,
            parked: Arc::clone(&self.parked),
        })
    }

    /// Record a partition read-back (the caller charges the bandwidth).
    pub fn note_read(&self, bytes: u64) {
        self.stats.lock().bytes_read_back += bytes;
    }

    /// Record that a spilling operator reached recursive-repartitioning
    /// `depth` (1 = first round).
    pub fn note_depth(&self, depth: u32) {
        let mut s = self.stats.lock();
        s.max_depth = s.max_depth.max(depth);
    }

    /// Snapshot of the monotonic counters.
    pub fn stats(&self) -> SpillStats {
        *self.stats.lock()
    }

    /// Bytes live tickets hold per tier `(pinned, disk)`; cached tables
    /// sharing the pinned pool are not counted.
    pub fn tier_usage(&self) -> (u64, u64) {
        let [pinned, disk] = &*self.parked;
        (pinned.load(Ordering::Relaxed), disk.load(Ordering::Relaxed))
    }
}

/// A spill tier's index into [`SpillManager`]'s live-ticket counts.
fn slot(tier: Tier) -> usize {
    usize::from(tier == Tier::Disk)
}

/// RAII reservation for one spilled partition; releases its tier space on
/// drop (after the partition has been read back and processed).
#[derive(Debug)]
pub struct SpillTicket {
    alloc: Allocation,
    tier: Tier,
    bytes: u64,
    parked: Arc<[AtomicU64; 2]>,
}

impl SpillTicket {
    /// The tier this partition was parked on ([`Tier::Pinned`] or
    /// [`Tier::Disk`]).
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Parked bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for SpillTicket {
    fn drop(&mut self) {
        self.parked[slot(self.tier)].fetch_sub(self.alloc.size(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(pinned: u64, disk: u64) -> SpillManager {
        SpillManager::new(
            PoolAllocator::new("pinned", pinned),
            PoolAllocator::new("disk", disk),
        )
    }

    #[test]
    fn writes_cascade_pinned_then_disk() {
        let m = store(1024, 1024);
        let a = m.write(1024).unwrap();
        assert_eq!(a.tier(), Tier::Pinned);
        let b = m.write(1024).unwrap();
        assert_eq!(b.tier(), Tier::Disk);
        assert!(m.write(1024).is_none());
        let s = m.stats();
        assert_eq!(s.bytes_to_pinned, 1024);
        assert_eq!(s.bytes_to_disk, 1024);
        assert_eq!(s.partitions, 2);
        assert_eq!(m.tier_usage(), (1024, 1024));
    }

    #[test]
    fn ticket_drop_releases_tier_space() {
        let m = store(1024, 0);
        let t = m.write(1024).unwrap();
        assert_eq!(t.bytes(), 1024);
        drop(t);
        assert_eq!(m.tier_usage(), (0, 0));
        // Space is reusable after the ticket drops.
        assert!(m.write(1024).is_some());
    }

    #[test]
    fn stats_delta_and_depth() {
        let m = store(1 << 20, 0);
        let before = m.stats();
        let _t = m.write(4096).unwrap();
        m.note_read(4096);
        m.note_depth(2);
        m.note_depth(1);
        // The method's own unit test.
        #[allow(clippy::disallowed_methods)]
        let d = m.stats().since(&before);
        assert_eq!(d.bytes_spilled(), 4096);
        assert_eq!(d.bytes_read_back, 4096);
        assert_eq!(d.partitions, 1);
        assert_eq!(d.max_depth, 2);
    }
}
