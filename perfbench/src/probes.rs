//! Direct probes of the kernel library and the collective layer: each
//! public kernel the engine's hot paths call, run alone on the workload's
//! own `lineitem` / `orders` columns, reported as host throughput. They
//! locate a `wall_qps` change in a kernel; they are not end-to-end numbers.

use crate::metrics::Values;
use sirius_columnar::{Array, Table};
use sirius_cudf::filter::{apply_filter, gather};
use sirius_cudf::groupby::group_by;
use sirius_cudf::hash::row_keys;
use sirius_cudf::join::{build_hash_table, probe_hash_table};
use sirius_cudf::sort::{sort_indices, SortKey};
use sirius_cudf::{hash_partition, AggKind, AggRequest, GpuContext};
use sirius_hw::{catalog as hw, CostCategory, Device};
use sirius_nccl::NcclCluster;
use sirius_tpch::TpchData;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per probe; the fastest one is reported, for the reason
/// `wall_qps` uses the fastest pass.
const REPS: usize = 5;

fn best_seconds(mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn mrows_s(rows: usize, f: impl FnMut()) -> f64 {
    rows as f64 / best_seconds(f) / 1e6
}

fn column<'a>(table: &'a Table, name: &str) -> &'a Array {
    table
        .column_by_name(name)
        .unwrap_or_else(|e| panic!("TPC-H column {name}: {e}"))
}

/// Run every probe over `data`.
pub fn run(data: &TpchData) -> Values {
    let mut values = Values::default();
    let lineitem = data.table("lineitem").expect("lineitem is generated");
    let orders = data.table("orders").expect("orders is generated");
    let (n, m) = (lineitem.num_rows(), orders.num_rows());
    let l_orderkey = column(lineitem, "l_orderkey");
    let l_suppkey = column(lineitem, "l_suppkey");
    let l_quantity = column(lineitem, "l_quantity");
    let l_extendedprice = column(lineitem, "l_extendedprice");
    let o_orderkey = column(orders, "o_orderkey");
    // Charges go to a scratch device: the probes time the host, and the
    // workload's simulated ledger stays untouched.
    let ctx = GpuContext::new(Device::new(hw::gh200_gpu()), CostCategory::Other);

    values.set(
        "cudf.row_keys_mrows_s",
        mrows_s(n, || {
            black_box(row_keys(&[l_orderkey, l_suppkey], n));
        }),
    );
    values.set(
        "cudf.join_build_mrows_s",
        mrows_s(m, || {
            black_box(build_hash_table(&ctx, &[o_orderkey], m).is_ok());
        }),
    );
    let built = build_hash_table(&ctx, &[o_orderkey], m).expect("int64 keys build");
    values.set(
        "cudf.join_probe_mrows_s",
        mrows_s(n, || {
            black_box(probe_hash_table(&ctx, &built, &[l_orderkey], n, 0).is_ok());
        }),
    );
    values.set(
        "cudf.groupby_mrows_s",
        mrows_s(n, || {
            let aggs = [
                AggRequest {
                    kind: AggKind::Sum,
                    input: Some(l_quantity),
                },
                AggRequest {
                    kind: AggKind::CountStar,
                    input: None,
                },
            ];
            black_box(group_by(&ctx, &[l_suppkey], &aggs, n).is_ok());
        }),
    );
    let mask = Array::from_bool((0..n).map(|i| l_quantity.f64_value(i).is_some_and(|q| q < 24.0)));
    values.set(
        "cudf.filter_mrows_s",
        mrows_s(n, || {
            black_box(apply_filter(&ctx, lineitem, &mask).is_ok());
        }),
    );
    // A join-like gather: every row once, in a scattered order.
    let indices: Vec<i32> = (0..n).map(|i| ((i * 7919) % n) as i32).collect();
    values.set(
        "cudf.gather_mrows_s",
        mrows_s(n, || {
            black_box(gather(&ctx, lineitem, &indices));
        }),
    );
    values.set(
        "cudf.sort_mrows_s",
        mrows_s(n, || {
            let keys = [
                SortKey {
                    column: l_suppkey,
                    ascending: true,
                },
                SortKey {
                    column: l_extendedprice,
                    ascending: false,
                },
            ];
            black_box(sort_indices(&ctx, &keys, n).is_ok());
        }),
    );
    values.set(
        "cudf.partition_mrows_s",
        mrows_s(n, || {
            black_box(hash_partition(&ctx, &[l_orderkey], lineitem, 8, 0).is_ok());
        }),
    );
    values.set("nccl.shuffle_mb_s", shuffle_mb_s(orders));
    values
}

/// All-to-all shuffle of `table` over four in-process ranks: every rank
/// sends a quarter of the table to every rank (itself included).
fn shuffle_mb_s(table: &Table) -> f64 {
    const RANKS: usize = 4;
    let quarter = table.num_rows() / RANKS;
    let parts: Vec<Table> = (0..RANKS)
        .map(|r| table.slice(r * quarter, quarter))
        .collect();
    let bytes: usize = parts.iter().map(Table::byte_size).sum::<usize>() * RANKS;
    let seconds = best_seconds(|| {
        let comms = NcclCluster::new(RANKS, hw::infiniband_4xndr());
        std::thread::scope(|s| {
            for mut comm in comms {
                let parts = parts.clone();
                s.spawn(move || {
                    black_box(comm.shuffle(parts).is_ok());
                });
            }
        });
    });
    bytes as f64 / seconds / 1e6
}
