//! The collective operations backing the exchange service (§3.2.4):
//! shuffle and merge. Broadcast and multi-cast are shuffles whose
//! partitions the exchange service fills (`sirius_core::exchange`).

use crate::cluster::Communicator;
use crate::Result;
use sirius_columnar::Table;
use std::time::Duration;

impl Communicator {
    /// Shuffle (all-to-all): `partitions[j]` goes to rank `j`; returns the
    /// concatenation of what every rank sent to us, in rank order, plus the
    /// wire time spent sending (the dominant direction in the model).
    pub fn shuffle(&mut self, partitions: Vec<Table>) -> Result<(Table, Duration)> {
        assert_eq!(partitions.len(), self.world(), "one partition per rank");
        let seq = self.next_seq();
        let mut wire = Duration::ZERO;
        for (peer, part) in partitions.into_iter().enumerate() {
            wire += self.send(peer, seq, part)?;
        }
        let mut received = Vec::with_capacity(self.world());
        for peer in 0..self.world() {
            received.push(self.recv(peer, seq)?);
        }
        let refs: Vec<&Table> = received.iter().collect();
        Ok((Table::concat(&refs), wire))
    }

    /// Merge (gather): every rank contributes `table`; `root` receives the
    /// concatenation in rank order, other ranks receive an empty table of
    /// the same schema.
    pub fn merge(&mut self, root: usize, table: Table) -> Result<(Table, Duration)> {
        let seq = self.next_seq();
        let schema = table.schema().clone();
        if self.rank() == root {
            // Own contribution plus everyone else's.
            let mut parts: Vec<Table> = Vec::with_capacity(self.world());
            for peer in 0..self.world() {
                if peer == root {
                    parts.push(table.clone());
                } else {
                    parts.push(self.recv(peer, seq)?);
                }
            }
            let refs: Vec<&Table> = parts.iter().collect();
            Ok((Table::concat(&refs), Duration::ZERO))
        } else {
            let wire = self.send(root, seq, table)?;
            Ok((Table::empty(schema), wire))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::NcclCluster;
    use sirius_columnar::{Array, DataType, Field, Schema, Table};
    use sirius_hw::catalog;
    use std::collections::HashSet;

    fn t(values: Vec<i64>) -> Table {
        Table::new(
            Schema::new(vec![Field::new("x", DataType::Int64)]),
            vec![Array::from_i64(values)],
        )
    }

    fn run_cluster<F, R>(world: usize, f: F) -> Vec<R>
    where
        F: Fn(crate::Communicator) -> R + Send + Sync + Clone + 'static,
        R: Send + 'static,
    {
        let comms = NcclCluster::new(world, catalog::infiniband_4xndr());
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let f = f.clone();
                std::thread::spawn(move || f(c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn shuffle_conserves_rows_and_routes_by_rank() {
        // Rank r sends value 100*r + j to rank j.
        let results = run_cluster(3, |mut c| {
            let r = c.rank() as i64;
            let parts = (0..3).map(|j| t(vec![100 * r + j])).collect();
            let (got, _) = c.shuffle(parts).unwrap();
            let vals: HashSet<i64> = (0..got.num_rows())
                .map(|i| got.column(0).i64_value(i).unwrap())
                .collect();
            (c.rank() as i64, vals)
        });
        for (rank, vals) in results {
            let expect: HashSet<i64> = (0..3).map(|src| 100 * src + rank).collect();
            assert_eq!(vals, expect, "rank {rank}");
        }
    }

    #[test]
    fn merge_gathers_to_root() {
        let results = run_cluster(4, |mut c| {
            let (got, _) = c.merge(0, t(vec![c.rank() as i64])).unwrap();
            (c.rank(), got.num_rows())
        });
        for (rank, rows) in results {
            assert_eq!(rows, if rank == 0 { 4 } else { 0 });
        }
    }

    #[test]
    fn collectives_compose_in_order() {
        // A merge followed by a shuffle on the same communicators must
        // not cross-match (sequence isolation).
        let results = run_cluster(2, |mut c| {
            let (m, _) = c.merge(0, t(vec![c.rank() as i64])).unwrap();
            let parts = (0..2).map(|j| t(vec![j as i64 + 10])).collect();
            let (s, _) = c.shuffle(parts).unwrap();
            (c.rank(), m.num_rows(), s.num_rows())
        });
        for (rank, m, s) in results {
            assert_eq!(m, if rank == 0 { 2 } else { 0 });
            assert_eq!(s, 2);
        }
    }
}
