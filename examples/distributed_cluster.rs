//! Distributed execution (Figure 3): all 22 TPC-H queries on a 4-node
//! vanilla Doris cluster and a 4-node Sirius-accelerated cluster, with the
//! Table 2 compute/exchange/other attribution.
//!
//! ```sh
//! cargo run --example distributed_cluster
//! ```

use sirius_doris::{DorisCluster, NodeEngineKind};
use sirius_tpch::{queries, TpchGenerator};

fn build(kind: NodeEngineKind, data: &sirius_tpch::TpchData) -> DorisCluster {
    let mut cluster = DorisCluster::new(4, kind);
    for (name, table) in data.tables() {
        cluster
            .create_table(name.clone(), table.clone())
            .expect("load table");
    }
    cluster.reset_ledgers();
    cluster
}

fn main() {
    println!("generating TPC-H data (SF 0.01) and loading two 4-node clusters...");
    let data = TpchGenerator::new(0.01).generate();
    let doris = build(NodeEngineKind::DorisCpu, &data);
    let sirius = build(NodeEngineKind::SiriusGpu, &data);

    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    for (id, sql) in queries::all() {
        let d = doris.sql(sql).expect("doris");
        let s = sirius.sql(sql).expect("sirius");
        assert_eq!(
            d.table.canonical_rows().len(),
            s.table.canonical_rows().len(),
            "clusters disagree on Q{id}"
        );
        println!(
            "Q{id}: Doris {:>8.2} ms | Sirius {:>8.2} ms (compute {:.2}, exchange {:.2}, other {:.2}) — {:.1}x",
            ms(d.total()),
            ms(s.total()),
            ms(s.compute()),
            ms(s.exchange()),
            ms(s.other()),
            ms(d.total()) / ms(s.total()),
        );
    }

    // Coordinator-driven recovery: kill a node and watch the query survive.
    // The coordinator finds node 2 in its down-set at dispatch, the dead
    // node's shards are re-partitioned onto the three survivors, and the
    // query re-runs.
    sirius.mark_down(2);
    let recovered = sirius.sql(queries::Q6).expect("recovery");
    println!(
        "\nafter killing node 2: Q6 still answers ({} rows) — world shrank to {} nodes, \
         reschedules={} shrinks={}",
        recovered.table.num_rows(),
        sirius.world(),
        recovered.recovery.reschedules,
        recovered.recovery.world_shrinks,
    );

    // Kill two more: below quorum the coordinator degrades to the
    // single-node CPU engine instead of failing the query.
    sirius.mark_down(0);
    sirius.mark_down(1);
    let degraded = sirius.sql(queries::Q6).expect("cpu fallback");
    println!(
        "after losing quorum: Q6 still answers ({} rows) via CPU fallback (cpu_fallbacks={})",
        degraded.table.num_rows(),
        degraded.recovery.cpu_fallbacks,
    );
}
