//! First-fit free-list pool allocator over a simulated address space.

use crate::stats::PoolStats;
use parking_lot::Mutex;
use std::sync::Arc;

/// Error returned when the pool cannot satisfy an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes currently free (possibly fragmented).
    pub free: u64,
    /// Largest contiguous free block.
    pub largest_block: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of device memory: requested {} B, free {} B (largest contiguous {} B)",
            self.requested, self.free, self.largest_block
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Allocation alignment, matching RMM's 256-byte CUDA allocation granularity.
pub const ALIGNMENT: u64 = 256;

fn align_up(v: u64) -> u64 {
    v.div_ceil(ALIGNMENT) * ALIGNMENT
}

#[derive(Debug)]
struct PoolInner {
    capacity: u64,
    /// Free blocks as (offset, len), sorted by offset, mutually
    /// non-adjacent (adjacent blocks are coalesced on free).
    free_list: Vec<(u64, u64)>,
    used: u64,
    high_watermark: u64,
    alloc_count: u64,
    failed_allocs: u64,
}

impl PoolInner {
    fn largest_block(&self) -> u64 {
        self.free_list.iter().map(|(_, l)| *l).max().unwrap_or(0)
    }

    fn allocate(&mut self, bytes: u64) -> Result<(u64, u64), OutOfMemory> {
        let size = align_up(bytes.max(1));
        let slot = self.free_list.iter().position(|(_, len)| *len >= size);
        let Some(i) = slot else {
            self.failed_allocs += 1;
            return Err(OutOfMemory {
                requested: size,
                free: self.capacity - self.used,
                largest_block: self.largest_block(),
            });
        };
        let (off, len) = self.free_list[i];
        if len == size {
            self.free_list.remove(i);
        } else {
            self.free_list[i] = (off + size, len - size);
        }
        self.used += size;
        self.high_watermark = self.high_watermark.max(self.used);
        self.alloc_count += 1;
        Ok((off, size))
    }

    fn free(&mut self, offset: u64, size: u64) {
        self.used -= size;
        // Insert keeping offset order, then coalesce with neighbours.
        let pos = self.free_list.partition_point(|(o, _)| *o < offset);
        self.free_list.insert(pos, (offset, size));
        // Coalesce with next.
        if pos + 1 < self.free_list.len()
            && self.free_list[pos].0 + self.free_list[pos].1 == self.free_list[pos + 1].0
        {
            self.free_list[pos].1 += self.free_list[pos + 1].1;
            self.free_list.remove(pos + 1);
        }
        // Coalesce with previous.
        if pos > 0 && self.free_list[pos - 1].0 + self.free_list[pos - 1].1 == self.free_list[pos].0
        {
            self.free_list[pos - 1].1 += self.free_list[pos].1;
            self.free_list.remove(pos);
        }
    }
}

/// A thread-safe pool allocator. Cloning shares the pool.
#[derive(Debug, Clone)]
pub struct PoolAllocator {
    inner: Arc<Mutex<PoolInner>>,
    name: Arc<str>,
}

impl PoolAllocator {
    /// Create a pool of `capacity` bytes.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        Self {
            inner: Arc::new(Mutex::new(PoolInner {
                capacity,
                free_list: if capacity > 0 {
                    vec![(0, capacity)]
                } else {
                    vec![]
                },
                used: 0,
                high_watermark: 0,
                alloc_count: 0,
                failed_allocs: 0,
            })),
            name: Arc::from(name.into()),
        }
    }

    /// Pool name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Allocate `bytes` (rounded up to [`ALIGNMENT`]); the returned RAII
    /// handle frees on drop.
    pub fn alloc(&self, bytes: u64) -> Result<Allocation, OutOfMemory> {
        let (offset, size) = self.inner.lock().allocate(bytes)?;
        Ok(Allocation {
            pool: self.clone(),
            offset,
            size,
        })
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.lock().capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.inner.lock().used
    }

    /// Snapshot of pool statistics.
    pub fn stats(&self) -> PoolStats {
        let g = self.inner.lock();
        PoolStats {
            capacity: g.capacity,
            used: g.used,
            high_watermark: g.high_watermark,
            alloc_count: g.alloc_count,
            failed_allocs: g.failed_allocs,
            free_blocks: g.free_list.len() as u64,
            largest_free_block: g.largest_block(),
        }
    }
}

/// RAII handle to a pool allocation; frees its bytes on drop.
#[derive(Debug)]
pub struct Allocation {
    pool: PoolAllocator,
    offset: u64,
    size: u64,
}

impl Allocation {
    /// Simulated device offset of this allocation.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Size in bytes (after alignment rounding).
    pub fn size(&self) -> u64 {
        self.size
    }
}

impl Drop for Allocation {
    fn drop(&mut self) {
        self.pool.inner.lock().free(self.offset, self.size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_free_restores_capacity() {
        let p = PoolAllocator::new("proc", 1 << 20);
        let a = p.alloc(1000).unwrap();
        assert_eq!(a.size(), align_up(1000));
        assert_eq!(p.used(), a.size());
        drop(a);
        assert_eq!(p.used(), 0);
        assert_eq!(p.stats().free_blocks, 1);
        assert_eq!(p.stats().largest_free_block, 1 << 20);
    }

    #[test]
    fn oom_reports_fragmentation() {
        let p = PoolAllocator::new("proc", 1024);
        let _a = p.alloc(512).unwrap();
        let err = p.alloc(1024).unwrap_err();
        assert_eq!(err.requested, 1024);
        assert_eq!(err.free, 512);
        assert_eq!(err.largest_block, 512);
        assert_eq!(p.stats().failed_allocs, 1);
    }

    #[test]
    fn coalescing_reunites_neighbours() {
        let p = PoolAllocator::new("proc", 4096);
        let a = p.alloc(1024).unwrap();
        let b = p.alloc(1024).unwrap();
        let c = p.alloc(1024).unwrap();
        drop(a);
        drop(c);
        // Fragmented: two free blocks plus the 1 KiB tail.
        assert_eq!(p.stats().free_blocks, 2);
        drop(b);
        // Fully coalesced.
        assert_eq!(p.stats().free_blocks, 1);
        assert_eq!(p.stats().largest_free_block, 4096);
    }

    #[test]
    fn high_watermark_tracks_peak() {
        let p = PoolAllocator::new("proc", 1 << 16);
        let a = p.alloc(4096).unwrap();
        let b = p.alloc(4096).unwrap();
        drop(a);
        drop(b);
        assert_eq!(p.stats().high_watermark, 8192);
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn zero_byte_alloc_takes_one_unit() {
        let p = PoolAllocator::new("proc", 1024);
        let a = p.alloc(0).unwrap();
        assert_eq!(a.size(), ALIGNMENT);
    }

    proptest! {
        #[test]
        fn prop_allocations_never_overlap_and_free_restores(
            sizes in proptest::collection::vec(1u64..5000, 1..40),
            drop_mask in proptest::collection::vec(any::<bool>(), 1..40),
        ) {
            let p = PoolAllocator::new("t", 1 << 20);
            let mut live: Vec<Allocation> = Vec::new();
            for (i, &s) in sizes.iter().enumerate() {
                if let Ok(a) = p.alloc(s) {
                    live.push(a);
                }
                if *drop_mask.get(i).unwrap_or(&false) && !live.is_empty() {
                    live.remove(0);
                }
                // Invariant: no two live allocations overlap.
                let mut spans: Vec<(u64, u64)> =
                    live.iter().map(|a| (a.offset(), a.size())).collect();
                spans.sort_unstable();
                for w in spans.windows(2) {
                    prop_assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {:?}", w);
                }
                // Invariant: used == sum of live sizes.
                prop_assert_eq!(p.used(), live.iter().map(|a| a.size()).sum::<u64>());
            }
            drop(live);
            prop_assert_eq!(p.used(), 0);
            prop_assert_eq!(p.stats().free_blocks, 1);
        }
    }
}
