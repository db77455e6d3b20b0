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

use parking_lot::Mutex;
use sirius_rmm::{Allocation, PoolAllocator};

/// Which spill tier a ticket landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpillTier {
    /// Pinned host memory — read back at interconnect bandwidth.
    Pinned,
    /// Disk — read back at storage bandwidth (modeled as a quarter of the
    /// interconnect, matching the buffer manager's disk-tier convention).
    Disk,
}

/// Spill-tier capacities. Defaults mirror the paper's GH200 evaluation
/// host: abundant pinned host memory and a large-but-finite NVMe volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillConfig {
    /// Pinned host memory reserved for spilled partitions.
    pub pinned_bytes: u64,
    /// Disk space reserved for spilled partitions.
    pub disk_bytes: u64,
}

impl Default for SpillConfig {
    fn default() -> Self {
        Self {
            pinned_bytes: 64 << 30,
            disk_bytes: 1 << 40,
        }
    }
}

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
    /// Spill writes that failed because every tier was full.
    pub failed_writes: u64,
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
            failed_writes: self.failed_writes.saturating_sub(before.failed_writes),
        }
    }

    /// Total bytes spilled across both tiers.
    pub fn bytes_spilled(&self) -> u64 {
        self.bytes_to_pinned + self.bytes_to_disk
    }
}

struct Tiers {
    pinned: PoolAllocator,
    disk: PoolAllocator,
}

/// Manages the spill tiers and their counters. Thread-safe; one per engine.
pub struct SpillManager {
    tiers: Mutex<Tiers>,
    stats: Mutex<SpillStats>,
}

impl SpillManager {
    /// Manager with `config` tier capacities.
    pub fn new(config: SpillConfig) -> Self {
        Self {
            tiers: Mutex::new(Tiers {
                pinned: PoolAllocator::new("spill pinned", config.pinned_bytes),
                disk: PoolAllocator::new("spill disk", config.disk_bytes),
            }),
            stats: Mutex::new(SpillStats::default()),
        }
    }

    /// Replace the tier capacities (engine builder; outstanding tickets
    /// keep their reservations in the pools they came from).
    pub fn set_config(&self, config: SpillConfig) {
        let mut g = self.tiers.lock();
        g.pinned = PoolAllocator::new("spill pinned", config.pinned_bytes);
        g.disk = PoolAllocator::new("spill disk", config.disk_bytes);
    }

    /// Park `bytes` of partition data on the highest tier with room.
    /// `Err(())` means every tier is full — the hard out-of-memory case.
    #[allow(clippy::result_unit_err)]
    pub fn write(&self, bytes: u64) -> Result<SpillTicket, ()> {
        let (alloc, tier) = {
            let g = self.tiers.lock();
            match g.pinned.alloc(bytes) {
                Ok(a) => (a, SpillTier::Pinned),
                Err(_) => match g.disk.alloc(bytes) {
                    Ok(a) => (a, SpillTier::Disk),
                    Err(_) => {
                        drop(g);
                        self.stats.lock().failed_writes += 1;
                        return Err(());
                    }
                },
            }
        };
        {
            let mut s = self.stats.lock();
            s.partitions += 1;
            match tier {
                SpillTier::Pinned => s.bytes_to_pinned += bytes,
                SpillTier::Disk => s.bytes_to_disk += bytes,
            }
        }
        Ok(SpillTicket {
            _alloc: alloc,
            tier,
            bytes,
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

    /// Bytes currently parked per tier `(pinned, disk)`.
    pub fn tier_usage(&self) -> (u64, u64) {
        let g = self.tiers.lock();
        (g.pinned.used(), g.disk.used())
    }
}

impl Default for SpillManager {
    fn default() -> Self {
        Self::new(SpillConfig::default())
    }
}

/// RAII reservation for one spilled partition; releases its tier space on
/// drop (after the partition has been read back and processed).
#[derive(Debug)]
pub struct SpillTicket {
    _alloc: Allocation,
    tier: SpillTier,
    bytes: u64,
}

impl SpillTicket {
    /// The tier this partition was parked on.
    pub fn tier(&self) -> SpillTier {
        self.tier
    }

    /// Parked bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_cascade_pinned_then_disk() {
        let m = SpillManager::new(SpillConfig {
            pinned_bytes: 1024,
            disk_bytes: 1024,
        });
        let a = m.write(1024).unwrap();
        assert_eq!(a.tier(), SpillTier::Pinned);
        let b = m.write(1024).unwrap();
        assert_eq!(b.tier(), SpillTier::Disk);
        assert!(m.write(1024).is_err());
        let s = m.stats();
        assert_eq!(s.bytes_to_pinned, 1024);
        assert_eq!(s.bytes_to_disk, 1024);
        assert_eq!(s.partitions, 2);
        assert_eq!(s.failed_writes, 1);
        assert_eq!(m.tier_usage(), (1024, 1024));
    }

    #[test]
    fn ticket_drop_releases_tier_space() {
        let m = SpillManager::new(SpillConfig {
            pinned_bytes: 1024,
            disk_bytes: 0,
        });
        let t = m.write(1024).unwrap();
        assert_eq!(t.bytes(), 1024);
        drop(t);
        assert_eq!(m.tier_usage(), (0, 0));
        // Space is reusable after the ticket drops.
        assert!(m.write(1024).is_ok());
    }

    #[test]
    fn stats_delta_and_depth() {
        let m = SpillManager::default();
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

    #[test]
    fn set_config_resizes_tiers() {
        let m = SpillManager::new(SpillConfig {
            pinned_bytes: 0,
            disk_bytes: 0,
        });
        assert!(m.write(1).is_err());
        m.set_config(SpillConfig {
            pinned_bytes: 1024,
            disk_bytes: 0,
        });
        assert!(m.write(1).is_ok());
    }
}
