//! The Sirius buffer manager (§3.2.3): two-region device memory, table
//! caching with tiered overflow, and columnar-format conversion accounting.

use crate::{Result, SiriusError};
use sirius_columnar::Table;
use sirius_hw::{CostCategory, Device, FaultInjector, FaultSite, Link, WorkProfile};
use sirius_rmm::{
    BufferRegions, DataCache, GrantBroker, MemoryGrant, PoolAllocator, SpillManager, SpillStats,
    SpillTicket, Tier, DISK_CAPACITY,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Poll an attached fault injector at its node's `site`: the node id if a
/// fault fires there.
pub(crate) fn fault_fires(
    fault: &Option<(FaultInjector, usize)>,
    site: fn(usize) -> FaultSite,
) -> Option<usize> {
    let (fault, node) = fault.as_ref()?;
    fault.fire(site(*node)).map(|_| *node)
}

/// Manages device memory for one Sirius engine instance.
pub struct BufferManager {
    device: Device,
    regions: BufferRegions,
    cache: Arc<DataCache<Table>>,
    host_link: Link,
    broker: GrantBroker,
    spill: Arc<SpillManager>,
    /// Fault injector + this node's stable id, polled on grant requests
    /// and spill writes.
    fault: Option<(FaultInjector, usize)>,
    /// Per-query working-set budget (serving isolation knob): grant
    /// requests above this are denied *before* reaching the shared broker
    /// pool, steering the query onto its spill paths. `u64::MAX` (the
    /// default) disables the cap.
    grant_cap: AtomicU64,
}

impl BufferManager {
    /// Build a buffer manager for `device`: `caching_fraction` of its
    /// memory is the caching region and the rest the processing pool (the
    /// paper's evaluation setup is 50% / 50%, §4.1; ablations shrink the
    /// cache to force pinned-host residency without starving the pool),
    /// with `pinned_bytes` of pinned host memory — one tier behind both the
    /// cache's overflow and the spill store — and [`DISK_CAPACITY`] of disk
    /// behind that, `host_link` as the CPU↔GPU interconnect, and `fault`
    /// polled for grant denial storms and spill-tier I/O faults on that
    /// node id.
    pub fn new(
        device: Device,
        pinned_bytes: u64,
        host_link: Link,
        caching_fraction: f64,
        fault: Option<(FaultInjector, usize)>,
    ) -> Self {
        let regions = BufferRegions::from_spec(device.spec(), caching_fraction);
        let pinned = PoolAllocator::new("pinned host", pinned_bytes);
        let disk = PoolAllocator::new("disk", DISK_CAPACITY);
        let cache = Arc::new(DataCache::new(regions.caching().clone(), pinned.clone()));
        let broker = GrantBroker::new(regions.processing().clone());
        Self {
            device,
            regions,
            cache,
            host_link,
            broker,
            spill: Arc::new(SpillManager::new(pinned, disk)),
            fault,
            grant_cap: AtomicU64::new(u64::MAX),
        }
    }

    /// A per-query view over the same memory: shares the table cache, the
    /// region pools, the grant broker (with its granted/denied counters),
    /// and the spill tiers, but charges transfer and spill bandwidth onto
    /// `device` — the serving layer's seam for arbitrating one processing
    /// region *across* interleaved queries while each query keeps its own
    /// time ledger. The view starts with an uncapped grant budget.
    pub fn shared_view(&self, device: Device) -> BufferManager {
        BufferManager {
            device,
            regions: self.regions.clone(),
            cache: Arc::clone(&self.cache),
            host_link: self.host_link.clone(),
            broker: self.broker.clone(),
            spill: Arc::clone(&self.spill),
            fault: self.fault.clone(),
            grant_cap: AtomicU64::new(u64::MAX),
        }
    }

    /// This manager, its grant cap included, charging transfer and spill
    /// bandwidth onto `device` instead — an out-of-core walk's recorder.
    pub(crate) fn charging(&self, device: Device) -> BufferManager {
        let view = self.shared_view(device);
        view.set_grant_cap(self.grant_cap());
        view
    }

    /// Cap this manager's grant budget (per-query memory isolation in
    /// multi-tenant serving). `u64::MAX` removes the cap.
    pub fn set_grant_cap(&self, bytes: u64) {
        self.grant_cap.store(bytes.max(1), Ordering::Relaxed);
    }

    /// The active per-query grant budget (`u64::MAX` when uncapped).
    pub fn grant_cap(&self) -> u64 {
        self.grant_cap.load(Ordering::Relaxed)
    }

    /// The memory regions (capacity introspection).
    pub fn regions(&self) -> &BufferRegions {
        &self.regions
    }

    /// The CPU↔GPU interconnect.
    pub fn host_link(&self) -> &Link {
        &self.host_link
    }

    /// Cold-run load: copy a host table into the caching region. Charges
    /// the host→device transfer and the host-format → Sirius-format deep
    /// copy (§3.2.3: host conversion "occurs only during the cold run").
    /// Returns the tier the table landed on.
    pub fn load_table(&self, name: impl Into<String>, table: &Table) -> Tier {
        let name = name.into();
        let bytes = table.byte_size() as u64;
        let wire = self.host_link.transfer(bytes);
        self.device.charge_duration(
            CostCategory::Other,
            "xfer.host_to_device",
            wire,
            bytes,
            table.num_rows() as u64,
        );
        // Deep copy on ingest (one streamed pass each way).
        self.device.charge(
            CostCategory::Other,
            "format.ingest_copy",
            &WorkProfile::scan(2 * bytes).with_rows(table.num_rows() as u64),
        );
        self.cache.insert(name, table.clone(), bytes)
    }

    /// Register data that is *already device-resident* — exchanged
    /// intermediates delivered by NCCL land directly in GPU memory, so no
    /// host transfer is charged (§3.2.4's temporary tables).
    pub fn cache_resident(&self, name: impl Into<String>, table: &Table) -> Tier {
        self.cache
            .insert(name.into(), table.clone(), table.byte_size() as u64)
    }

    /// Drop a cached table (fragment-completion deregistration).
    pub fn evict(&self, name: &str) -> bool {
        self.cache.evict(name)
    }

    /// Hot-path lookup. Tables cached below the device tier charge their
    /// tier crossing; device-tier hits are free.
    pub fn get_table(&self, name: &str) -> Result<Arc<Table>> {
        let (table, tier) = self
            .cache
            .get(name)
            .ok_or_else(|| SiriusError::TableNotCached(name.to_string()))?;
        self.charge_crossing(
            tier,
            CostCategory::Other,
            ["xfer.pinned_cache_read", "xfer.disk_cache_read"],
            table.byte_size() as u64,
            table.num_rows() as u64,
        );
        Ok(table)
    }

    /// Charge moving `bytes` (`rows` rows) between the device and `tier`,
    /// labeled `labels[0]` for pinned and `labels[1]` for disk: pinned host
    /// is one interconnect crossing, disk (§3.4) a storage transfer at a
    /// quarter of that bandwidth, and the device tier costs nothing.
    fn charge_crossing(
        &self,
        tier: Tier,
        category: CostCategory,
        labels: [&str; 2],
        bytes: u64,
        rows: u64,
    ) {
        let (wire, label) = match tier {
            Tier::Device => return,
            Tier::Pinned => (self.host_link.transfer(bytes), labels[0]),
            Tier::Disk => (self.host_link.transfer(4 * bytes), labels[1]),
        };
        self.device
            .charge_duration(category, label, wire, bytes, rows);
    }

    /// True if `name` is cached on any tier.
    pub fn is_cached(&self, name: &str) -> bool {
        self.cache.contains(name)
    }

    /// Cache hit/miss counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.hit_stats()
    }

    /// Bytes cached per tier `(device, pinned, disk)`.
    pub fn tier_usage(&self) -> (u64, u64, u64) {
        self.cache.tier_usage()
    }

    /// Ask the grant broker for an operator working set. A denial is the
    /// executor's signal to spill rather than fail (§3.4). Requests above
    /// this query's [grant cap](Self::set_grant_cap) are denied without
    /// consulting the shared pool; both cap denials and injected denial
    /// storms are recorded on the broker's denied counter so the serving
    /// layer's pressure signal sees every spill steer, not just genuine
    /// pool exhaustion.
    pub fn request_grant(&self, bytes: u64) -> Result<MemoryGrant> {
        let cap = self.grant_cap.load(Ordering::Relaxed);
        if bytes > cap {
            self.broker.note_denial();
            return Err(SiriusError::OutOfMemory(format!(
                "working set of {bytes} B exceeds this query's {cap} B memory budget"
            )));
        }
        if let Some(node) = fault_fires(&self.fault, |node| FaultSite::GrantRequest { node }) {
            // A storm denial is indistinguishable from pool exhaustion
            // to the caller: the operator spills, results stay exact.
            self.broker.note_denial();
            return Err(SiriusError::OutOfMemory(format!(
                "injected grant denial storm on node {node} ({bytes} B refused)"
            )));
        }
        self.broker
            .request(bytes)
            .map_err(|e| SiriusError::OutOfMemory(e.to_string()))
    }

    /// The largest working set the broker could currently grant, further
    /// bounded by this query's grant cap so spill fanout sizing respects
    /// the budget.
    pub fn largest_grantable(&self) -> u64 {
        self.broker
            .largest_grantable()
            .min(self.grant_cap.load(Ordering::Relaxed))
    }

    /// The memory-grant broker (counters introspection).
    pub fn grant_broker(&self) -> &GrantBroker {
        &self.broker
    }

    /// The shared spill-tier manager (temp-reap introspection: its
    /// [`SpillManager::tier_usage`] must return to zero once every
    /// query's tickets drop — including failed and cancelled queries).
    pub fn spill_manager(&self) -> &SpillManager {
        &self.spill
    }

    /// Park a partition of `bytes` on the highest spill tier with room,
    /// charging the write's tier crossing.
    /// Failure means the partition exceeds every tier combined — the hard
    /// OOM case.
    pub fn spill_write(&self, bytes: u64) -> Result<SpillTicket> {
        if let Some(node) = fault_fires(&self.fault, |node| FaultSite::SpillWrite { node }) {
            return Err(SiriusError::SpillIo(format!(
                "injected spill-tier write failure on node {node} ({bytes} B)"
            )));
        }
        let ticket = self.spill.write(bytes).ok_or_else(|| {
            SiriusError::OutOfMemory(format!(
                "spill tiers exhausted: {bytes} B partition exceeds remaining pinned+disk space"
            ))
        })?;
        self.charge_crossing(
            ticket.tier(),
            CostCategory::Exchange,
            ["spill.pinned.write", "spill.disk.write"],
            bytes,
            0,
        );
        Ok(ticket)
    }

    /// Read a spilled partition back into device memory, charging the
    /// symmetric crossing for its tier.
    pub fn spill_read(&self, ticket: &SpillTicket) {
        let bytes = ticket.bytes();
        self.charge_crossing(
            ticket.tier(),
            CostCategory::Exchange,
            ["spill.pinned.read", "spill.disk.read"],
            bytes,
            0,
        );
        self.spill.note_read(bytes);
    }

    /// Record that a spilling operator partitioned its input at recursive
    /// depth `depth` (1 = first round).
    pub fn note_repartition(&self, depth: u32) {
        self.spill.note_depth(depth);
    }

    /// Snapshot of the monotonic spill counters.
    pub fn spill_stats(&self) -> SpillStats {
        self.spill.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{Array, DataType, Field, Schema};
    use sirius_hw::catalog;
    use sirius_rmm::pool::ALIGNMENT;

    fn table(rows: usize) -> Table {
        Table::new(
            Schema::new(vec![Field::new("x", DataType::Int64)]),
            vec![Array::from_i64((0..rows as i64).collect::<Vec<_>>())],
        )
    }

    fn bufmgr() -> (Device, BufferManager) {
        let device = Device::new(catalog::gh200_gpu());
        let bm = BufferManager::new(
            device.clone(),
            1 << 30,
            Link::new(catalog::nvlink_c2c()),
            0.5,
            None,
        );
        (device, bm)
    }

    #[test]
    fn cold_load_then_hot_hits() {
        let (device, bm) = bufmgr();
        let t = table(1000);
        assert_eq!(bm.load_table("t", &t), Tier::Device);
        let cold_time = device.elapsed();
        assert!(cold_time.as_nanos() > 0, "cold load pays transfer + copy");
        device.reset();
        let got = bm.get_table("t").unwrap();
        assert_eq!(got.num_rows(), 1000);
        assert_eq!(device.elapsed().as_nanos(), 0, "device-tier hit is free");
        assert_eq!(bm.cache_stats(), (1, 0));
    }

    #[test]
    fn missing_table_is_an_error() {
        let (_d, bm) = bufmgr();
        assert!(matches!(
            bm.get_table("nope"),
            Err(SiriusError::TableNotCached(_))
        ));
        assert!(!bm.is_cached("nope"));
    }

    #[test]
    fn processing_region_reservation() {
        let (_d, bm) = bufmgr();
        let cap = bm.regions().processing().capacity();
        let g = bm.request_grant(1 << 20).unwrap();
        assert!(bm.regions().processing().used() >= 1 << 20);
        assert_eq!(bm.grant_broker().outstanding_bytes(), g.bytes());
        drop(g);
        assert_eq!(bm.regions().processing().used(), 0);
        assert!(matches!(
            bm.request_grant(cap + 1),
            Err(SiriusError::OutOfMemory(_))
        ));
    }

    #[test]
    fn grant_denial_then_spill_write_charges_exchange() {
        let mut spec = catalog::gh200_gpu();
        spec.memory_bytes = 8192; // 4 KiB processing region
        let device = Device::new(spec);
        let bm = BufferManager::new(
            device.clone(),
            1 << 30,
            Link::new(catalog::nvlink_c2c()),
            0.5,
            None,
        );
        assert!(matches!(
            bm.request_grant(1 << 20),
            Err(SiriusError::OutOfMemory(_))
        ));
        assert_eq!(bm.grant_broker().denied(), 1);
        assert!(bm.largest_grantable() <= 4096);
        device.reset();
        let ticket = bm.spill_write(1 << 20).unwrap();
        assert!(
            device.breakdown().get(CostCategory::Exchange).as_nanos() > 0,
            "spill writes charge the exchange lane"
        );
        bm.spill_read(&ticket);
        let s = bm.spill_stats();
        assert_eq!(s.bytes_spilled(), 1 << 20);
        assert_eq!(s.bytes_read_back, 1 << 20);
    }

    #[test]
    fn spill_tiers_can_be_exhausted() {
        let device = Device::new(catalog::gh200_gpu());
        let bm = BufferManager::new(device, 0, Link::new(catalog::nvlink_c2c()), 0.5, None);
        // No pinned tier, and a ticket holding the whole disk tier.
        let _disk = bm.spill_write(DISK_CAPACITY).unwrap();
        assert!(matches!(
            bm.spill_write(1024),
            Err(SiriusError::OutOfMemory(_))
        ));
    }

    #[test]
    fn overflow_to_pinned_charges_interconnect() {
        // A cache smaller than the table forces the pinned tier.
        let mut spec = catalog::gh200_gpu();
        spec.memory_bytes = 4096; // 2 KiB caching region
        let device = Device::new(spec);
        let bm = BufferManager::new(
            device.clone(),
            1 << 30,
            Link::new(catalog::pcie4_x16()),
            0.5,
            None,
        );
        let t = table(10_000);
        assert_eq!(bm.load_table("big", &t), Tier::Pinned);
        device.reset();
        bm.get_table("big").unwrap();
        assert!(
            device.elapsed().as_nanos() > 0,
            "pinned-tier access pays the interconnect"
        );
        let (dev, pinned, _) = bm.tier_usage();
        assert_eq!(dev, 0);
        assert!(pinned > 0);
    }

    /// Cached tables and spilled partitions share one pinned tier: a table
    /// demoted onto it leaves a partition that no longer fits beside it to
    /// land on disk, and the spill store counts its own tickets only.
    #[test]
    fn cache_overflow_and_spill_share_one_pinned_tier() {
        let mut spec = catalog::gh200_gpu();
        spec.memory_bytes = 4096; // 2 KiB caching region
        let bm = BufferManager::new(
            Device::new(spec),
            1 << 20,
            Link::new(catalog::pcie4_x16()),
            0.5,
            None,
        );
        bm.load_table("big", &table(10_000));
        assert_eq!(bm.tier_usage(), (0, 80_000, 0));
        let bytes = 1_000_000; // fits the empty pinned tier, not beside the table
        let ticket = bm.spill_write(bytes).unwrap();
        let s = bm.spill_stats();
        assert_eq!((s.bytes_to_pinned, s.bytes_to_disk), (0, bytes));
        let parked = bytes.div_ceil(ALIGNMENT) * ALIGNMENT;
        assert_eq!(bm.spill_manager().tier_usage(), (0, parked));
        drop(ticket);
        assert_eq!(bm.spill_manager().tier_usage(), (0, 0));
        assert_eq!(bm.tier_usage(), (0, 80_000, 0));
    }
}
