//! Hash partitioning: the one hash router of the system — Grace-style
//! out-of-core joins and group-by, the spill store, the cluster shuffle and
//! a cluster's hash-partitioned load. Rows are routed by a hash of their key
//! columns, so equal keys always land in the same partition — per-partition
//! build+probe (or per-partition aggregation) is then exact. The `level`
//! salts the hash, so repartitioning an oversized partition redistributes
//! its rows instead of mapping them all to one bucket again; the exchange
//! routes at a salt of its own (`sirius_core::exchange::EXCHANGE_LEVEL`).
//!
//! The kernel computes one bucket id per row; moving the rows is
//! `Table::partition` (one gather in bucket order, one window per bucket),
//! shared with the cluster's round-robin load.

use crate::hash::{key_bytes, row_hashes};
use crate::{GpuContext, Result};
use sirius_columnar::{Array, Table};
use sirius_hw::WorkProfile;
use std::sync::Arc;

/// Split `table` into `parts` partitions by a hash of `key_columns`
/// (salted with `level` for recursive repartitioning). Rows whose key
/// contains NULL are routed like any other key value: they must surface in
/// exactly one partition for left/anti join semantics to hold. Partitions
/// concatenated in order contain every input row exactly once.
pub fn hash_partition(
    ctx: &GpuContext,
    key_columns: &[&Array],
    table: &Table,
    parts: usize,
    level: u32,
) -> Result<Vec<Table>> {
    let parts = parts.max(1);
    // One partition is the table itself: nothing is hashed or moved.
    if parts == 1 {
        return Ok(vec![table.clone()]);
    }
    let n = table.num_rows();
    // One pass over the keys to compute bucket ids, one streamed read of the
    // table plus a scattered write per partition.
    ctx.charge_named(
        "partition.hash",
        &WorkProfile::scan(key_bytes(key_columns) + table.byte_size() as u64)
            .with_random(table.byte_size() as u64)
            .with_rows(n as u64)
            .with_launches(2),
    );
    let bucket = move |h: u64| (finalize(h) % parts as u64) as usize;
    // A table of one window is one job's work: it stays on this thread.
    let Some(fan) = ctx.fan_out().filter(|fan| n > fan.rows()) else {
        let hashes = row_hashes(key_columns, n, level).into_iter();
        return Ok(table.partition(hashes.map(bucket), parts));
    };
    // The same routing and the same gather, spread over the pool: one job
    // per window of rows hashes its keys (a row's hash reads only its own
    // row), then one job per column gathers it in bucket order.
    let rows = fan.rows();
    let windows = (0..n).step_by(rows).map(|start| {
        let len = rows.min(n - start);
        let keys: Vec<Array> = key_columns.iter().map(|c| c.slice(start, len)).collect();
        move || {
            let keys: Vec<&Array> = keys.iter().collect();
            let hashes = row_hashes(&keys, len, level).into_iter();
            hashes.map(bucket).collect::<Vec<usize>>()
        }
    });
    let buckets = fan.run(windows)?;
    table.partition_with(buckets.into_iter().flatten(), parts, |columns, order| {
        let order = Arc::new(order);
        fan.run(columns.iter().map(|column| {
            let (column, order) = (column.clone(), Arc::clone(&order));
            move || column.gather(&*order)
        }))
    })
}

/// Avalanche finalizer (splitmix64). FxHash is multiplicative and its low
/// bits correlate across rows that already share a bucket residue, so a
/// recursive repartition taking `hash % parts` directly can dump an entire
/// parent partition into one child bucket and never converge.
fn finalize(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, table_of, Gen, KINDS};
    use crate::{test_ctx, FanOut, Job, KernelError};
    use proptest::prelude::*;
    use sirius_columnar::{DataType, Field, Scalar, Schema};

    proptest! {
        /// Routing decides the spill ledger: every row must land in the
        /// bucket `finalize(hash_one((level, &Vec<Scalar>))) % parts` names,
        /// and a partition must weigh what a copy of its rows weighs.
        #[test]
        fn prop_rows_land_in_the_buckets_of_the_scalar_reference(
            seed in any::<u64>(),
            rows in 0usize..80,
            key_columns in 1usize..4,
            parts in prop_oneof![1usize..7, Just(64usize)],
        ) {
            let mut columns = vec![Array::from_i64(0..rows as i64)];
            columns.extend(Gen(seed).columns(&KINDS, key_columns, rows));
            let table = table_of(columns);
            let keys: Vec<&Array> = table.columns()[1..].iter().collect();
            for level in 0..=4 {
                let hashes = reference::routing_hashes(&keys, rows, level);
                let got = hash_partition(&test_ctx(), &keys, &table, parts, level).unwrap();
                prop_assert_eq!(got.len(), parts);
                for (bucket, part) in got.iter().enumerate() {
                    let row_ids: Vec<i64> =
                        (0..part.num_rows()).filter_map(|i| part.column(0).i64_value(i)).collect();
                    let expected: Vec<i64> = (0..rows)
                        .filter(|&row| (finalize(hashes[row]) % parts as u64) as usize == bucket)
                        .map(|row| row as i64)
                        .collect();
                    prop_assert_eq!(&row_ids, &expected, "level {} bucket {}", level, bucket);
                    let copy = table.gather(expected.iter().map(|&row| row as usize));
                    prop_assert_eq!(part.byte_size(), copy.byte_size());
                    prop_assert_eq!(part, &copy);
                }
                // Fanned out in windows of any size, the partitions and the
                // charge are the serial ones.
                for window in [1, 7, 64] {
                    let ctx = test_ctx().with_fan_out(last_first(window));
                    let fanned = hash_partition(&ctx, &keys, &table, parts, level).unwrap();
                    prop_assert_eq!(fanned.len(), got.len());
                    for (f, g) in fanned.iter().zip(&got) {
                        prop_assert_eq!(f.byte_size(), g.byte_size());
                        prop_assert_eq!(f, g);
                    }
                    let serial = test_ctx();
                    hash_partition(&serial, &keys, &table, parts, level).unwrap();
                    prop_assert_eq!(ctx.device().breakdown(), serial.device().breakdown());
                }
            }
        }
    }

    /// A pool that runs a batch last job first on the calling thread: every
    /// result must still land in its job's place.
    fn last_first(rows: usize) -> FanOut {
        let run = |jobs: Vec<Job>| jobs.into_iter().rev().for_each(|job| job());
        FanOut::new(Arc::new(run), rows)
    }

    #[test]
    fn a_panicking_job_is_a_typed_error() {
        let jobs = (0..3u32).map(|i| {
            move || match i {
                1 => panic!("window {i} ran off its keys"),
                _ => i,
            }
        });
        let err = last_first(1).run(jobs).unwrap_err();
        assert_eq!(
            err,
            KernelError::TaskPanicked("window 1 ran off its keys".into())
        );
        assert_eq!(
            last_first(1).run((1..3u32).map(|i| move || i)),
            Ok(vec![1, 2])
        );
    }

    fn table() -> Table {
        Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Float64),
            ]),
            vec![
                Array::from_i64([1, 2, 3, 1, 2, 3, 7, 8]),
                Array::from_f64([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
            ],
        )
    }

    #[test]
    fn partitions_cover_all_rows_exactly_once() {
        let ctx = test_ctx();
        let t = table();
        let parts = hash_partition(&ctx, &[t.column(0)], &t, 4, 0).unwrap();
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(|p| p.num_rows()).sum();
        assert_eq!(total, t.num_rows());
        let mut vals: Vec<f64> = parts
            .iter()
            .flat_map(|p| (0..p.num_rows()).map(|i| p.column(1).f64_value(i).unwrap()))
            .collect();
        vals.sort_by(f64::total_cmp);
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert!(ctx.device().elapsed().as_nanos() > 0);
    }

    #[test]
    fn equal_keys_collocate() {
        let ctx = test_ctx();
        let t = table();
        let parts = hash_partition(&ctx, &[t.column(0)], &t, 3, 1).unwrap();
        // Every key value must appear in exactly one partition.
        for key in [1i64, 2, 3] {
            let hosting = parts
                .iter()
                .filter(|p| (0..p.num_rows()).any(|i| p.column(0).i64_value(i) == Some(key)))
                .count();
            assert_eq!(hosting, 1, "key {key} split across partitions");
        }
    }

    #[test]
    fn level_salts_the_routing() {
        let ctx = test_ctx();
        let t = Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64)]),
            vec![Array::from_i64((0..256).collect::<Vec<_>>())],
        );
        let members = |level: u32| -> Vec<Vec<i64>> {
            hash_partition(&ctx, &[t.column(0)], &t, 4, level)
                .unwrap()
                .iter()
                .map(|p| {
                    (0..p.num_rows())
                        .map(|i| p.column(0).i64_value(i).unwrap())
                        .collect()
                })
                .collect()
        };
        // Same level is deterministic; a different level reshuffles.
        assert_eq!(members(0), members(0));
        assert_ne!(members(0), members(1), "level must change the assignment");
    }

    #[test]
    fn null_keys_land_in_one_partition() {
        let ctx = test_ctx();
        let t = Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64)]),
            vec![Array::from_scalars(
                &[Scalar::Null, Scalar::Int64(1), Scalar::Null],
                DataType::Int64,
            )],
        );
        let parts = hash_partition(&ctx, &[t.column(0)], &t, 2, 0).unwrap();
        let total: usize = parts.iter().map(|p| p.num_rows()).sum();
        assert_eq!(total, 3);
        let null_hosting = parts
            .iter()
            .filter(|p| (0..p.num_rows()).any(|i| p.column(0).scalar(i).is_null()))
            .count();
        assert_eq!(null_hosting, 1, "null keys must collocate");
    }

    #[test]
    fn single_partition_is_identity() {
        let ctx = test_ctx();
        let t = table();
        let parts = hash_partition(&ctx, &[t.column(0)], &t, 1, 0).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].num_rows(), t.num_rows());
    }
}
