//! The Sirius exchange service layer (§3.2.4).
//!
//! Owns a node's NCCL communicator, implements the four exchange patterns
//! as physical operations over tables, and charges wire time to the node's
//! device under `CostCategory::Exchange`. What an exchange returns becomes
//! a temporary table in the store the node's engine reads; the host that
//! drives the fragments (`sirius-doris`) registers and releases it.
//!
//! A shuffle routes rows with [`partition_by_hash`]: one node id per row
//! from the routing hash, then `Table::partition` — the per-node shards are
//! windows of one table gathered in node order.

use crate::{Result, SiriusError};
use sirius_columnar::{Array, Table};
use sirius_cudf::hash::row_hashes;
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
    /// share of the result. Key expressions for shuffles must already be
    /// evaluated into columns by the caller (engine-owned state, stateless
    /// operators).
    pub fn exchange(
        &mut self,
        kind: &ExchangeKind,
        local: Table,
        shuffle_keys: &[Array],
    ) -> Result<Table> {
        let (out, wire, label) = match kind {
            ExchangeKind::Shuffle { .. } => {
                let parts = partition_by_hash(&local, shuffle_keys, self.comm.world());
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

/// Hash-partition rows across `world` nodes by the key columns. All engines
/// and the distributed planner use this same function, so co-partitioning
/// assumptions hold across the system.
pub fn partition_by_hash(table: &Table, keys: &[Array], world: usize) -> Vec<Table> {
    let key_refs: Vec<&Array> = keys.iter().collect();
    let hashes = row_hashes(&key_refs, table.num_rows(), None).into_iter();
    let node_of = hashes.map(|h| (h % world as u64) as usize);
    table.partition(node_of, world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{DataType, Field, Scalar, Schema};
    use sirius_hw::catalog;
    use sirius_nccl::NcclCluster;

    fn t(values: Vec<i64>) -> Table {
        Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64)]),
            vec![Array::from_i64(values)],
        )
    }

    /// `partition_by_hash` as it was before PR 17: a `Vec<Scalar>` key per
    /// row through `FxBuildHasher::hash_one`. Node sizes drive the exchange
    /// ledger, so the column-at-a-time routing hash must agree row for row.
    fn scalar_key_nodes(table: &Table, keys: &[Array], world: usize) -> Vec<usize> {
        use std::hash::BuildHasher;
        let hasher = sirius_cudf::hash::FxBuildHasher::default();
        (0..table.num_rows())
            .map(|row| {
                let key: Vec<Scalar> = keys.iter().map(|k| k.scalar(row)).collect();
                (hasher.hash_one(&key) % world as u64) as usize
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn prop_rows_reach_the_nodes_scalar_keys_sent_them_to(
            values in proptest::collection::vec(
                proptest::option::of((proptest::prelude::any::<i64>(), 0usize..6)),
                0..80,
            ),
        ) {
            let column = |f: &dyn Fn(i64, usize) -> Scalar, t: DataType| {
                let scalars: Vec<Scalar> =
                    values.iter().map(|v| v.map_or(Scalar::Null, |(a, b)| f(a, b))).collect();
                Array::from_scalars(&scalars, t)
            };
            let words = ["", "a", "b", "ab", "BUILDING", "naïve"];
            let columns = vec![
                Array::from_i64(0..values.len() as i64),
                column(&|a, _| Scalar::Int64(a), DataType::Int64),
                column(&|_, b| Scalar::Int32(b as i32), DataType::Int32),
                column(&|a, _| Scalar::Float64(f64::from_bits(a as u64)), DataType::Float64),
                column(&|a, _| Scalar::Date32(a as i32), DataType::Date32),
                column(&|a, _| Scalar::Bool(a & 1 == 1), DataType::Bool),
                column(&|_, b| Scalar::Utf8(words[b].into()), DataType::Utf8),
                column(&|_, b| Scalar::Utf8(words[b].into()), DataType::Utf8).dict_encode(),
            ];
            let fields = (columns.iter().enumerate())
                .map(|(i, c)| Field::new(format!("c{i}"), c.data_type()))
                .collect();
            let table = Table::new(Schema::new(fields), columns);
            for key_columns in [vec![1], vec![2], vec![6], vec![7], vec![3, 4], vec![5, 7, 1]] {
                let keys: Vec<Array> =
                    key_columns.iter().map(|&c| table.column(c).clone()).collect();
                for world in 1..=5 {
                    let expected = scalar_key_nodes(&table, &keys, world);
                    let parts = partition_by_hash(&table, &keys, world);
                    proptest::prop_assert_eq!(parts.len(), world);
                    for (node, part) in parts.iter().enumerate() {
                        let rows: Vec<usize> = (0..part.num_rows())
                            .filter_map(|i| part.column(0).i64_value(i))
                            .map(|row| row as usize)
                            .collect();
                        let sent: Vec<usize> = (0..values.len())
                            .filter(|&row| expected[row] == node)
                            .collect();
                        proptest::prop_assert_eq!(rows, sent, "world {} node {}", world, node);
                    }
                }
            }
        }
    }

    #[test]
    fn partition_is_deterministic_and_complete() {
        let table = t((0..100).collect());
        let keys = vec![table.column(0).clone()];
        let parts = partition_by_hash(&table, &keys, 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(|p| p.num_rows()).sum();
        assert_eq!(total, 100);
        // Same key always lands on the same node.
        let parts2 = partition_by_hash(&table, &keys, 4);
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
                    let keys = vec![local.column(0).clone()];
                    let kind = ExchangeKind::Shuffle {
                        keys: vec![sirius_plan::expr::col(0)],
                    };
                    let out = svc.exchange(&kind, local, &keys).unwrap();
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
                    svc.exchange(&kind, local, &[]).unwrap().num_rows()
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
