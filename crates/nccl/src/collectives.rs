//! The collective operations backing the exchange service (§3.2.4).

use crate::cluster::Communicator;
use crate::{NcclError, Result};
use sirius_columnar::Table;
use std::time::Duration;

impl Communicator {
    /// Broadcast: `root` replicates `table` to every rank. Every rank
    /// passes `Some(table)` at the root and `None` elsewhere; every rank
    /// returns the table plus its simulated wire time.
    pub fn broadcast(&mut self, root: usize, table: Option<Table>) -> Result<(Table, Duration)> {
        let seq = self.next_seq();
        if self.rank() == root {
            let table = table.ok_or(NcclError::MissingTable { rank: root })?;
            let mut wire = Duration::ZERO;
            for peer in 0..self.world() {
                if peer != root {
                    wire += self.send(peer, seq, table.clone())?;
                }
            }
            Ok((table, wire))
        } else {
            let t = self.recv(root, seq)?;
            Ok((t, Duration::ZERO))
        }
    }

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

    /// Multi-cast: the sender pushes `table` to an explicit target set.
    /// Ranks in `targets` (other than the sender) receive it; everyone else
    /// gets an empty table. All ranks must agree on `sender` and `targets`.
    pub fn multicast(
        &mut self,
        sender: usize,
        targets: &[usize],
        table: Option<Table>,
    ) -> Result<(Option<Table>, Duration)> {
        let seq = self.next_seq();
        if self.rank() == sender {
            let table = table.ok_or(NcclError::MissingTable { rank: sender })?;
            let mut wire = Duration::ZERO;
            for &peer in targets {
                if peer != sender {
                    wire += self.send(peer, seq, table.clone())?;
                }
            }
            let keep = targets.contains(&sender).then_some(table);
            Ok((keep, wire))
        } else if targets.contains(&self.rank()) {
            Ok((Some(self.recv(sender, seq)?), Duration::ZERO))
        } else {
            Ok((None, Duration::ZERO))
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
    fn broadcast_replicates() {
        let results = run_cluster(4, |mut c| {
            let payload = (c.rank() == 1).then(|| t(vec![10, 20]));
            let (got, wire) = c.broadcast(1, payload).unwrap();
            (c.rank(), got.num_rows(), wire)
        });
        for (rank, rows, wire) in results {
            assert_eq!(rows, 2);
            if rank == 1 {
                assert!(wire.as_nanos() > 0, "root pays the wire time");
            }
        }
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
    fn multicast_targets_only() {
        let results = run_cluster(4, |mut c| {
            let payload = (c.rank() == 0).then(|| t(vec![7]));
            let (got, _) = c.multicast(0, &[1, 3], payload).unwrap();
            (c.rank(), got.map(|t| t.num_rows()))
        });
        for (rank, rows) in results {
            match rank {
                1 | 3 => assert_eq!(rows, Some(1)),
                _ => assert_eq!(rows, None),
            }
        }
    }

    #[test]
    fn collectives_compose_in_order() {
        // A broadcast followed by a shuffle on the same communicators must
        // not cross-match (sequence isolation).
        let results = run_cluster(2, |mut c| {
            let payload = (c.rank() == 0).then(|| t(vec![1]));
            let (b, _) = c.broadcast(0, payload).unwrap();
            let parts = (0..2).map(|j| t(vec![j as i64 + 10])).collect();
            let (s, _) = c.shuffle(parts).unwrap();
            (b.num_rows(), s.num_rows())
        });
        for (b, s) in results {
            assert_eq!(b, 1);
            assert_eq!(s, 2);
        }
    }
}
