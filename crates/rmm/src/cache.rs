//! Keyed data cache over the caching region, with tiered overflow and LRU
//! demotion.
//!
//! §3.2.3: "the buffer manager automatically caches [data read by the host]
//! into the pre-allocated caching region for future reuse", in either device
//! memory or pinned host memory. §3.4 extends the hierarchy with a disk
//! tier for out-of-core execution. New (and recently touched) entries are
//! kept on the fastest tier with room; when a tier fills, its
//! least-recently-used entry is demoted one level down (device → pinned →
//! disk) so hot data stays device-resident instead of new data being exiled
//! by insertion order.

use crate::pool::{Allocation, PoolAllocator};
use crate::Tier;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

struct Entry<T> {
    value: Arc<T>,
    bytes: u64,
    tier: Tier,
    // RAII region reservation; `None` on disk, where entries reserve
    // nothing, so the cache never refuses a table.
    alloc: Option<Allocation>,
    last_touch: u64,
}

struct CacheInner<T> {
    entries: HashMap<String, Entry<T>>,
    hits: u64,
    misses: u64,
    clock: u64,
    demotions: u64,
}

/// A keyed cache of `T` values (tables, in practice), accounted against a
/// device caching region with pinned-host and disk overflow.
pub struct DataCache<T> {
    device_region: PoolAllocator,
    pinned_region: PoolAllocator,
    inner: Mutex<CacheInner<T>>,
}

impl<T> DataCache<T> {
    /// Build a cache over the device caching region `device_region` with
    /// the pinned tier `pinned_region` as overflow (a pool it may share
    /// with the spill store).
    pub fn new(device_region: PoolAllocator, pinned_region: PoolAllocator) -> Self {
        Self {
            device_region,
            pinned_region,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                hits: 0,
                misses: 0,
                clock: 0,
                demotions: 0,
            }),
        }
    }

    /// Insert `value` of `bytes` under `key` on the fastest tier it fits,
    /// demoting colder entries downward to make room: a full device tier
    /// demotes its LRU entry to pinned host, a full pinned tier demotes to
    /// disk. Entries larger than a tier's whole capacity skip that tier.
    /// Returns the tier the new entry landed on.
    pub fn insert(&self, key: impl Into<String>, value: T, bytes: u64) -> Tier {
        let key = key.into();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        // Release any prior reservation under this key before placing anew.
        inner.entries.remove(&key);
        let (alloc, tier) = self.place_on(inner, Tier::Device, bytes);
        inner.clock += 1;
        let last_touch = inner.clock;
        inner.entries.insert(
            key,
            Entry {
                value: Arc::new(value),
                bytes,
                tier,
                alloc,
                last_touch,
            },
        );
        tier
    }

    /// Find a home for `bytes` on `tier` or below: allocate there, else
    /// demote the tier's least-recently-used entry and retry. A tier too
    /// small for `bytes`, or with nothing left to demote, falls through to
    /// the next one down; disk always has room.
    fn place_on(
        &self,
        inner: &mut CacheInner<T>,
        tier: Tier,
        bytes: u64,
    ) -> (Option<Allocation>, Tier) {
        let (region, below) = match tier {
            Tier::Device => (&self.device_region, Tier::Pinned),
            Tier::Pinned => (&self.pinned_region, Tier::Disk),
            Tier::Disk => return (None, Tier::Disk),
        };
        if bytes <= region.capacity() {
            loop {
                if let Ok(a) = region.alloc(bytes) {
                    return (Some(a), tier);
                }
                if !self.demote_lru(inner, tier, below) {
                    break;
                }
            }
        }
        self.place_on(inner, below, bytes)
    }

    /// Move the least-recently-used entry on `tier` to wherever
    /// [`Self::place_on`] finds it room from `below` down, freeing its
    /// reservation. Returns false when the tier holds nothing to demote.
    fn demote_lru(&self, inner: &mut CacheInner<T>, tier: Tier, below: Tier) -> bool {
        let victim = inner
            .entries
            .iter()
            .filter(|(_, e)| e.tier == tier)
            .min_by_key(|(_, e)| e.last_touch)
            .map(|(k, e)| (k.clone(), e.bytes));
        let Some((key, bytes)) = victim else {
            return false;
        };
        let (alloc, new_tier) = self.place_on(inner, below, bytes);
        // Demoting a lower tier to make room moves entries, never removes
        // one, so the victim is still here.
        let Some(e) = inner.entries.get_mut(&key) else {
            return false;
        };
        // Assigning drops the old reservation, freeing the upper tier.
        e.alloc = alloc;
        e.tier = new_tier;
        inner.demotions += 1;
        true
    }

    /// Look up `key`; a hit returns the value and its tier, and refreshes
    /// the entry's recency so it resists demotion.
    pub fn get(&self, key: &str) -> Option<(Arc<T>, Tier)> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(e) = inner.entries.get_mut(key) {
            e.last_touch = clock;
            inner.hits += 1;
            Some((Arc::clone(&e.value), e.tier))
        } else {
            inner.misses += 1;
            None
        }
    }

    /// True if `key` is cached (does not count as a hit or a touch).
    pub fn contains(&self, key: &str) -> bool {
        self.inner.lock().entries.contains_key(key)
    }

    /// The tier `key` currently resides on (no hit or touch recorded).
    pub fn tier_of(&self, key: &str) -> Option<Tier> {
        self.inner.lock().entries.get(key).map(|e| e.tier)
    }

    /// Remove `key`, releasing its region reservation.
    pub fn evict(&self, key: &str) -> bool {
        self.inner.lock().entries.remove(key).is_some()
    }

    /// Bytes cached on each tier: `(device, pinned, disk)`.
    pub fn tier_usage(&self) -> (u64, u64, u64) {
        let g = self.inner.lock();
        let mut t = (0, 0, 0);
        for e in g.entries.values() {
            match e.tier {
                Tier::Device => t.0 += e.bytes,
                Tier::Pinned => t.1 += e.bytes,
                Tier::Disk => t.2 += e.bytes,
            }
        }
        t
    }

    /// `(hits, misses)` counters.
    pub fn hit_stats(&self) -> (u64, u64) {
        let g = self.inner.lock();
        (g.hits, g.misses)
    }

    /// How many entries have been demoted a tier since construction.
    pub fn demotions(&self) -> u64 {
        self.inner.lock().demotions
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(device: u64, pinned: u64) -> DataCache<String> {
        DataCache::new(
            PoolAllocator::new("dev", device),
            PoolAllocator::new("pinned", pinned),
        )
    }

    #[test]
    fn hot_path_is_device_tier() {
        let c = cache(1 << 20, 1 << 20);
        assert_eq!(c.insert("t1", "data".into(), 4096), Tier::Device);
        let (v, tier) = c.get("t1").unwrap();
        assert_eq!(*v, "data");
        assert_eq!(tier, Tier::Device);
        assert_eq!(c.hit_stats(), (1, 0));
    }

    #[test]
    fn overflow_demotes_cold_entries_down_the_tiers() {
        let c = cache(1024, 1024);
        // Every insert lands on-device; older entries ripple downward.
        assert_eq!(c.insert("a", "x".into(), 1024), Tier::Device);
        assert_eq!(c.insert("b", "y".into(), 1024), Tier::Device);
        assert_eq!(c.insert("c", "z".into(), 1024), Tier::Device);
        assert_eq!(c.tier_of("c"), Some(Tier::Device));
        assert_eq!(c.tier_of("b"), Some(Tier::Pinned));
        assert_eq!(c.tier_of("a"), Some(Tier::Disk));
        assert_eq!(c.tier_usage(), (1024, 1024, 1024));
        assert_eq!(c.demotions(), 3); // a→pinned, a→disk, b→pinned
    }

    #[test]
    fn demotion_picks_the_least_recently_used_entry() {
        let c = cache(2048, 4096);
        assert_eq!(c.insert("a", "x".into(), 1024), Tier::Device);
        assert_eq!(c.insert("b", "y".into(), 1024), Tier::Device);
        // Touch `a`, making `b` the LRU device entry.
        assert!(c.get("a").is_some());
        assert_eq!(c.insert("c", "z".into(), 1024), Tier::Device);
        assert_eq!(c.tier_of("a"), Some(Tier::Device));
        assert_eq!(c.tier_of("b"), Some(Tier::Pinned));
        assert_eq!(c.tier_of("c"), Some(Tier::Device));
        assert_eq!(c.demotions(), 1);
    }

    #[test]
    fn oversized_entries_skip_tiers_they_cannot_fit() {
        let c = cache(1024, 2048);
        // Larger than the device tier entirely: no demotion frenzy, straight
        // to the first tier whose capacity can hold it.
        assert_eq!(c.insert("big", "B".into(), 2048), Tier::Pinned);
        assert_eq!(c.insert("huge", "H".into(), 1 << 20), Tier::Disk);
        assert_eq!(c.demotions(), 0);
    }

    #[test]
    fn evict_frees_region_for_reuse() {
        let c = cache(1024, 0);
        assert_eq!(c.insert("a", "x".into(), 1024), Tier::Device);
        assert!(c.evict("a"));
        assert!(!c.evict("a"));
        assert_eq!(c.insert("b", "y".into(), 1024), Tier::Device);
    }

    #[test]
    fn reinsert_replaces_rather_than_leaks() {
        let c = cache(1024, 0);
        assert_eq!(c.insert("a", "x".into(), 1024), Tier::Device);
        // Same key again: the old reservation must be released first.
        assert_eq!(c.insert("a", "x2".into(), 1024), Tier::Device);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn miss_counting() {
        let c = cache(1024, 0);
        assert!(c.get("nope").is_none());
        assert_eq!(c.hit_stats(), (0, 1));
        assert!(c.is_empty());
    }

    #[test]
    fn contains_does_not_bump_hits() {
        let c = cache(1 << 16, 0);
        c.insert("k", "v".into(), 10);
        assert!(c.contains("k"));
        assert_eq!(c.hit_stats(), (0, 0));
        assert_eq!(c.len(), 1);
    }
}
