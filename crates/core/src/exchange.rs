//! The Sirius exchange service layer (§3.2.4).
//!
//! Owns a node's NCCL communicator, implements the four exchange patterns
//! as physical operations over tables, and charges wire time to the node's
//! device under `CostCategory::Exchange`. What an exchange returns becomes
//! a temporary table in the store the node's engine reads; the host that
//! drives the fragments (`sirius-doris`) registers and releases it.
//!
//! A shuffle evaluates its keys with the engine's expression kernels and
//! routes rows with `hash_partition` salted at [`EXCHANGE_LEVEL`] — the
//! partitioner of the Grace join and the spill store, and of a cluster's
//! hash-partitioned load — charged to the node's device under
//! `CostCategory::Exchange`. The per-node shards are windows of one table
//! gathered in node order.

use crate::exprs::evaluate_all;
use crate::{Result, SiriusError};
use sirius_columnar::{Array, Table};
use sirius_cudf::{hash_partition, GpuContext};
use sirius_hw::{CostCategory, Device};
use sirius_nccl::{Communicator, NcclError};
use sirius_plan::ExchangeKind;

/// Classify an NCCL-layer error into the engine taxonomy. Dropped sends and
/// receive timeouts are retryable ([`SiriusError::ExchangeTimeout`]);
/// cancellation keeps its identity so the coordinator can tell fallout from
/// the root-cause fragment failure; channel teardown and rank misuse are
/// permanent exchange errors.
fn classify(e: NcclError) -> SiriusError {
    match e {
        NcclError::Timeout { .. } | NcclError::LinkFault { .. } => {
            SiriusError::ExchangeTimeout(e.to_string())
        }
        NcclError::Cancelled => SiriusError::Cancelled(e.to_string()),
        NcclError::Disconnected { .. } | NcclError::InvalidRank(_) => {
            SiriusError::Exchange(e.to_string())
        }
    }
}

/// The routing salt of every exchange and of a cluster's hash-partitioned
/// load. It differs from every Grace recursion level, so a shuffled shard's
/// later Grace partitions are not correlated with the node it landed on.
pub const EXCHANGE_LEVEL: u32 = u32::MAX;

/// Per-node exchange service.
pub struct ExchangeService {
    comm: Communicator,
    device: Device,
}

impl ExchangeService {
    /// Wrap a communicator for the node running on `device`.
    pub fn new(comm: Communicator, device: Device) -> Self {
        Self { comm, device }
    }

    /// The cluster's shared per-link traffic counters (stable-id keyed).
    pub fn link_traffic(&self) -> &sirius_nccl::LinkTraffic {
        self.comm.traffic()
    }

    /// Execute one exchange pattern over `local`, returning this node's
    /// share of the result. A shuffle's key evaluation and partition pass
    /// are charged to this node beside its wire time.
    pub fn exchange(&mut self, kind: &ExchangeKind, local: Table) -> Result<Table> {
        let (out, wire, label) = match kind {
            ExchangeKind::Shuffle { keys } => {
                let ctx = GpuContext::new(self.device.clone(), CostCategory::Exchange);
                let keys = evaluate_all(&ctx, keys, &local)?;
                let keys: Vec<&Array> = keys.iter().collect();
                let parts = hash_partition(&ctx, &keys, &local, self.comm.world(), EXCHANGE_LEVEL)?;
                let (out, wire) = self.comm.shuffle(parts).map_err(classify)?;
                (out, wire, "exchange.shuffle")
            }
            ExchangeKind::Broadcast => {
                // Replicate every node's partition to every node: an
                // all-gather built from per-rank sends.
                let parts = vec![local; self.comm.world()];
                let (out, wire) = self.comm.shuffle(parts).map_err(classify)?;
                (out, wire, "exchange.broadcast")
            }
            ExchangeKind::Merge => {
                let (out, wire) = self.comm.merge(0, local).map_err(classify)?;
                (out, wire, "exchange.merge")
            }
            ExchangeKind::MultiCast { targets } => {
                let world = self.comm.world();
                let mut parts: Vec<Table> = (0..world)
                    .map(|_| Table::empty(local.schema().clone()))
                    .collect();
                for &t in targets {
                    if t < world {
                        parts[t] = local.clone();
                    }
                }
                let (out, wire) = self.comm.shuffle(parts).map_err(classify)?;
                (out, wire, "exchange.multicast")
            }
        };
        self.device.charge_duration_labeled(
            CostCategory::Exchange,
            label,
            wire,
            out.byte_size() as u64,
            out.num_rows() as u64,
        );
        Ok(out)
    }

    /// Rebase the collective sequence space for a new dispatch attempt,
    /// discarding traffic left over from an aborted one.
    pub fn begin_epoch(&mut self, epoch: u64) {
        self.comm.begin_epoch(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{DataType, Field, Schema};
    use sirius_hw::catalog;
    use sirius_nccl::NcclCluster;

    fn t(values: Vec<i64>) -> Table {
        Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64)]),
            vec![Array::from_i64(values)],
        )
    }

    fn ctx() -> GpuContext {
        GpuContext::new(Device::new(catalog::a100_40gb()), CostCategory::Exchange)
    }

    /// `table` routed across `world` nodes as a shuffle routes it.
    fn route(table: &Table, keys: &[usize], world: usize) -> Vec<Table> {
        let keys: Vec<&Array> = keys.iter().map(|&c| table.column(c)).collect();
        hash_partition(&ctx(), &keys, table, world, EXCHANGE_LEVEL).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4))]
        /// Salt independence: a node's shard holds the rows whose exchange
        /// hash agrees modulo `world`, and the Grace levels must still
        /// spread them over every bucket. With the exchange salt equal to a
        /// Grace level, world 4 would leave 3 of 4 buckets empty.
        #[test]
        fn prop_a_shuffled_shard_fills_every_grace_bucket(seed in proptest::prelude::any::<u64>()) {
            let ids: Vec<i64> = (0..6_000u64)
                .map(|i| seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) as i64)
                .collect();
            let words: Vec<String> = ids.iter().map(|v| format!("{v:x}")).collect();
            let columns = vec![
                Array::from_i64(0..ids.len() as i64),
                Array::from_i64(ids.iter().copied()),
                Array::from_i32((0..ids.len() as i32).map(|i| i ^ seed as i32)),
                Array::from_f64(ids.iter().map(|&v| f64::from_bits(v as u64))),
                Array::from_date32((0..ids.len() as i32).map(|i| i ^ (seed >> 32) as i32)),
                Array::from_bool(ids.iter().map(|&v| v & 1 == 1)),
                Array::from_strs(&words),
                Array::from_strs(&words).dict_encode(),
            ];
            let fields = (columns.iter().enumerate())
                .map(|(i, c)| Field::new(format!("c{i}"), c.data_type()))
                .collect();
            let table = Table::new(Schema::new(fields), columns);
            for keys in [vec![1], vec![2], vec![6], vec![7], vec![3, 4], vec![5, 7, 1]] {
                for world in 1..=5 {
                    for (node, shard) in route(&table, &keys, world).iter().enumerate() {
                        // Every key set is unique per row: rows are distinct keys.
                        proptest::prop_assert!(shard.num_rows() >= 1_000, "node {} of {}", node, world);
                        let shard_keys: Vec<&Array> = keys.iter().map(|&c| shard.column(c)).collect();
                        for (level, parts) in (0..=3).flat_map(|l| [(l, 4), (l, 8)]) {
                            let buckets = hash_partition(&ctx(), &shard_keys, shard, parts, level).unwrap();
                            proptest::prop_assert!(
                                buckets.iter().all(|b| b.num_rows() > 0),
                                "keys {:?} world {} node {} level {} parts {}", keys, world, node, level, parts
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn partition_is_deterministic_and_complete() {
        let table = t((0..100).collect());
        let parts = route(&table, &[0], 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(|p| p.num_rows()).sum();
        assert_eq!(total, 100);
        // Same key always lands on the same node.
        let parts2 = route(&table, &[0], 4);
        for (a, b) in parts.iter().zip(parts2.iter()) {
            assert_eq!(a.canonical_rows(), b.canonical_rows());
        }
    }

    #[test]
    fn shuffle_exchange_across_nodes() {
        let comms = NcclCluster::new(2, catalog::infiniband_4xndr());
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    let device = Device::new(catalog::a100_40gb());
                    let rank = c.rank();
                    let mut svc = ExchangeService::new(c, device.clone());
                    let local = t(vec![rank as i64 * 10, rank as i64 * 10 + 1]);
                    let kind = ExchangeKind::Shuffle {
                        keys: vec![sirius_plan::expr::col(0)],
                    };
                    let out = svc.exchange(&kind, local).unwrap();
                    (
                        out.num_rows(),
                        device.breakdown().get(CostCategory::Exchange),
                    )
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let total: usize = results.iter().map(|(n, _)| n).sum();
        assert_eq!(total, 4, "shuffle conserves rows");
    }

    /// Rows each of `world` nodes holds after exchanging its one-row
    /// table (its rank) under `kind`, in rank order.
    fn rows_after(world: usize, kind: ExchangeKind) -> Vec<usize> {
        let comms = NcclCluster::new(world, catalog::infiniband_4xndr());
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let kind = kind.clone();
                std::thread::spawn(move || {
                    let device = Device::new(catalog::a100_40gb());
                    let local = t(vec![c.rank() as i64]);
                    let mut svc = ExchangeService::new(c, device);
                    svc.exchange(&kind, local).unwrap().num_rows()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn broadcast_replicates_everything_everywhere() {
        assert_eq!(rows_after(3, ExchangeKind::Broadcast), [3, 3, 3]);
    }

    #[test]
    fn multicast_reaches_its_targets_only() {
        let kind = ExchangeKind::MultiCast {
            targets: vec![1, 3],
        };
        assert_eq!(rows_after(4, kind), [0, 4, 0, 4]);
    }
}
