//! The memory-grant broker over the processing region.
//!
//! Every pipeline breaker asks the broker for its estimated working set
//! before it starts (hash-table bytes for a join build, accumulator bytes
//! for an aggregation, the sort buffer for an order-by). A successful
//! request returns an RAII [`MemoryGrant`] that holds the reservation until
//! the operator finishes; a denial is the signal to take the partitioned
//! spilling path instead of erroring.
//!
//! The broker also keeps a live count of outstanding grants
//! ([`GrantBroker::outstanding`]): because every grant is RAII, the count
//! must return to zero after each query — including queries that failed,
//! were cancelled mid-wave, or unwound through an error path — and the
//! resilience suites assert exactly that (no leaked working-set
//! reservations, ever).

use crate::pool::{Allocation, OutOfMemory, PoolAllocator};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Brokers working-set reservations against the processing region.
/// Cloning shares the underlying pool and counters.
#[derive(Clone)]
pub struct GrantBroker {
    pool: PoolAllocator,
    granted: Arc<AtomicU64>,
    denied: Arc<AtomicU64>,
    /// Grants currently alive (incremented on grant, decremented when the
    /// [`MemoryGrant`] drops).
    live: Arc<AtomicU64>,
}

impl GrantBroker {
    /// Broker over `pool` (the RMM-pooled processing region).
    pub fn new(pool: PoolAllocator) -> Self {
        Self {
            pool,
            granted: Arc::new(AtomicU64::new(0)),
            denied: Arc::new(AtomicU64::new(0)),
            live: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Reserve `bytes` of processing memory for an operator's working set.
    /// The reservation frees when the returned grant drops. A denial means
    /// the operator must spill (or, if it cannot partition its work, fail).
    pub fn request(&self, bytes: u64) -> Result<MemoryGrant, OutOfMemory> {
        match self.pool.alloc(bytes) {
            Ok(alloc) => {
                self.granted.fetch_add(1, Ordering::Relaxed);
                self.live.fetch_add(1, Ordering::Relaxed);
                Ok(MemoryGrant {
                    alloc,
                    live: Arc::clone(&self.live),
                })
            }
            Err(e) => {
                self.denied.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Record a denial decided *outside* the pool — per-query budget caps
    /// and injected denial storms — so observed broker pressure (the
    /// denied-grant rate the server sheds on) reflects every spill signal,
    /// not just genuine pool exhaustion.
    pub fn note_denial(&self) {
        self.denied.fetch_add(1, Ordering::Relaxed);
    }

    /// The largest working set a request could currently be granted
    /// (largest contiguous free block). Spilling operators size their
    /// partitions so each one fits comfortably inside this.
    pub fn largest_grantable(&self) -> u64 {
        self.pool.stats().largest_free_block
    }

    /// Total processing-region capacity.
    pub fn capacity(&self) -> u64 {
        self.pool.capacity()
    }

    /// Grants issued so far.
    pub fn granted(&self) -> u64 {
        self.granted.load(Ordering::Relaxed)
    }

    /// Grants denied so far (each denial triggered a spill decision).
    pub fn denied(&self) -> u64 {
        self.denied.load(Ordering::Relaxed)
    }

    /// Grants currently alive. Zero whenever no query is mid-wave; the
    /// leak-detection invariant asserted after every served query.
    pub fn outstanding(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Bytes currently reserved by live grants: the broker is the only
    /// allocator on its pool, so that is the pool's own count.
    pub fn outstanding_bytes(&self) -> u64 {
        self.pool.used()
    }

    /// The underlying pool (statistics introspection).
    pub fn pool(&self) -> &PoolAllocator {
        &self.pool
    }
}

/// An RAII working-set reservation; frees its bytes — and its entry in the
/// broker's outstanding count — on drop.
#[derive(Debug)]
pub struct MemoryGrant {
    alloc: Allocation,
    live: Arc<AtomicU64>,
}

impl MemoryGrant {
    /// Reserved bytes (after alignment rounding).
    pub fn bytes(&self) -> u64 {
        self.alloc.size()
    }
}

impl Drop for MemoryGrant {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_reserves_and_frees() {
        let pool = PoolAllocator::new("proc", 1 << 20);
        let broker = GrantBroker::new(pool.clone());
        let g = broker.request(1 << 10).unwrap();
        assert!(g.bytes() >= 1 << 10);
        assert!(pool.used() >= 1 << 10);
        assert_eq!(broker.outstanding(), 1);
        assert_eq!(broker.outstanding_bytes(), g.bytes());
        drop(g);
        assert_eq!(pool.used(), 0);
        assert_eq!(broker.granted(), 1);
        assert_eq!(broker.denied(), 0);
        assert_eq!(broker.outstanding(), 0);
        assert_eq!(broker.outstanding_bytes(), 0);
    }

    #[test]
    fn denial_counts_and_reports_largest_grantable() {
        let broker = GrantBroker::new(PoolAllocator::new("proc", 4096));
        let _g = broker.request(2048).unwrap();
        assert!(broker.request(4096).is_err());
        assert_eq!(broker.denied(), 1);
        assert_eq!(broker.outstanding(), 1, "denied request leaves no grant");
        assert_eq!(broker.largest_grantable(), 2048);
        assert_eq!(broker.capacity(), 4096);
        broker.note_denial();
        assert_eq!(broker.denied(), 2, "external denials count as pressure");
    }

    #[test]
    fn clone_shares_counters() {
        let broker = GrantBroker::new(PoolAllocator::new("proc", 1024));
        let b2 = broker.clone();
        let g = b2.request(512).unwrap();
        assert_eq!(broker.granted(), 1);
        assert_eq!(broker.outstanding(), 1);
        drop(g);
        assert_eq!(broker.outstanding(), 0, "drop visible through every clone");
    }

    #[test]
    fn outstanding_tracks_many_grants_through_error_paths() {
        let broker = GrantBroker::new(PoolAllocator::new("proc", 1 << 20));
        let grants: Vec<MemoryGrant> = (0..8).map(|_| broker.request(1 << 10).unwrap()).collect();
        assert_eq!(broker.outstanding(), 8);
        // Simulate an unwinding error path: everything drops at once.
        drop(grants);
        assert_eq!(broker.outstanding(), 0);
        assert_eq!(broker.outstanding_bytes(), 0);
    }
}
