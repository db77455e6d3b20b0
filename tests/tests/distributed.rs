//! Distributed execution must agree with single-node execution — on all 22
//! TPC-H queries, on every node engine and cluster size, and on the shapes
//! that once counted a complete input once per node (replicated left sides
//! under Semi / Anti / Left joins, uncorrelated scalar subqueries).

use sirius_core::SiriusError;
use sirius_doris::{DorisCluster, DorisError, NodeEngineKind};
use sirius_duckdb::DuckDb;
use sirius_integration::assert_tables_equivalent;
use sirius_tpch::{queries, TpchGenerator};

fn build(kind: NodeEngineKind, data: &sirius_tpch::TpchData, world: usize) -> DorisCluster {
    let mut c = DorisCluster::new(world, kind);
    for (name, table) in data.tables() {
        c.create_table(name.clone(), table.clone()).unwrap();
    }
    c.reset_ledgers();
    c
}

#[test]
fn distributed_matches_single_node() {
    let data = TpchGenerator::new(0.01).generate();
    let mut duck = DuckDb::new();
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
    }
    let reference: Vec<_> = queries::all()
        .into_iter()
        .map(|(id, sql)| {
            let t = duck.sql(sql);
            (
                id,
                sql,
                t.unwrap_or_else(|e| panic!("Q{id} single-node: {e}")),
            )
        })
        .collect();
    for kind in [
        NodeEngineKind::DorisCpu,
        NodeEngineKind::ClickHouseCpu,
        NodeEngineKind::SiriusGpu,
    ] {
        for world in [1, 3, 4] {
            let c = build(kind, &data, world);
            for (id, sql, expected) in &reference {
                let what = format!("Q{id} {kind:?} world={world}");
                // ClickHouse rejects Q21's residual anti join (Figure 4's
                // "n/s"): the engine's `ExecError::Unsupported`, typed as
                // the failing node's `SiriusError::Unsupported`.
                let rejected = kind == NodeEngineKind::ClickHouseCpu && *id == 21;
                match (c.sql(sql), rejected) {
                    (Ok(out), false) => assert_tables_equivalent(&what, expected, &out.table),
                    (
                        Err(DorisError::Node {
                            cause: SiriusError::Unsupported(_),
                            ..
                        }),
                        true,
                    ) => {}
                    (Ok(_), true) => panic!("{what}: must be rejected as unsupported"),
                    (Err(e), _) => panic!("{what}: {e}"),
                }
                assert_eq!(c.temp_tables_live(), 0, "{what}: temp leak");
            }
        }
    }
}

#[test]
fn sirius_cluster_beats_doris_cluster() {
    let data = TpchGenerator::new(0.02).generate();
    let doris = build(NodeEngineKind::DorisCpu, &data, 4);
    let sirius = build(NodeEngineKind::SiriusGpu, &data, 4);
    for (id, sql) in queries::all() {
        let d = doris.sql(sql).unwrap();
        let s = sirius.sql(sql).unwrap();
        assert!(
            d.total() > s.total(),
            "Q{id}: Doris {:?} should exceed Sirius {:?}",
            d.total(),
            s.total()
        );
        assert_eq!(sirius.temp_tables_live(), 0, "Q{id}: sirius temp leak");
    }
}

#[test]
fn works_at_different_cluster_sizes() {
    let data = TpchGenerator::new(0.005).generate();
    let mut duck = DuckDb::new();
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
    }
    let reference = duck.sql(queries::Q6).unwrap();
    for world in [1, 2, 4, 7] {
        let c = build(NodeEngineKind::SiriusGpu, &data, world);
        let out = c.sql(queries::Q6).unwrap();
        assert_tables_equivalent(&format!("Q6 world={world}"), &reference, &out.table);
        assert_eq!(c.temp_tables_live(), 0, "world={world}: temp leak");
    }
}

#[test]
fn exchange_traffic_shapes_match_the_paper() {
    // Table 2's analysis: Q3 shuffles both orders and lineitem (exchange-
    // heavy); Q1/Q6 exchange only tiny partial aggregates.
    let data = TpchGenerator::new(0.02).generate();
    let sirius = build(NodeEngineKind::SiriusGpu, &data, 4);
    let q1 = sirius.sql(queries::Q1).unwrap();
    let q3 = sirius.sql(queries::Q3).unwrap();
    let q6 = sirius.sql(queries::Q6).unwrap();
    // At tiny scale factors per-message latency dominates, so the margin
    // is modest here; it widens linearly with SF (paper: 78x at SF100).
    assert!(
        q3.exchange() > 3 * q1.exchange(),
        "Q3 exchange {:?} should dwarf Q1 {:?}",
        q3.exchange(),
        q1.exchange()
    );
    assert!(q3.exchange() > 3 * q6.exchange());
    // Q1/Q6: coordination dominates exchange (the paper's "Other").
    assert!(q1.other() > q1.exchange());
    assert!(q6.other() > q6.exchange());
}

#[test]
fn grouped_queries_beyond_the_paper_subset() {
    // The paper's distributed mode supports only a subset; ours covers
    // more — verify a grouped join query agrees with single-node.
    let data = TpchGenerator::new(0.005).generate();
    let mut duck = DuckDb::new();
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
    }
    let sql = "
        select n_name, count(*) as suppliers
        from supplier, nation
        where s_nationkey = n_nationkey
        group by n_name
        order by suppliers desc, n_name";
    let reference = duck.sql(sql).unwrap();
    let c = build(NodeEngineKind::SiriusGpu, &data, 3);
    let out = c.sql(sql).unwrap();
    assert_tables_equivalent("grouped join", &reference, &out.table);
    assert_eq!(c.temp_tables_live(), 0, "grouped join: temp leak");
}

#[test]
fn replicated_inputs_are_counted_once() {
    // `nation` is replicated: every node holds all 25 rows, so an operator
    // over it alone is already complete on each node. Aggregating, sorting,
    // limiting or de-duplicating it must not gather one copy per node, and
    // neither may a Semi / Anti / Left join that keeps its rows. A scalar
    // subquery's one row lives on node 0 only, whatever the other nodes'
    // empty partial aggregates emit.
    let data = TpchGenerator::new(0.005).generate();
    let mut duck = DuckDb::new();
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
    }
    let shapes = [
        "select sum(n_nationkey) as s, count(*) as n from nation",
        "select n_regionkey, count(*) as n from nation group by n_regionkey",
        "select distinct n_regionkey from nation",
        "select n_name from nation order by n_name",
        "select n_name from nation order by n_name limit 3",
        "select count(distinct n_regionkey) as regions from nation",
        "select n_name from nation \
         where exists (select * from supplier where s_nationkey = n_nationkey)",
        "select n_name from nation \
         where not exists (select * from supplier where s_nationkey = n_nationkey)",
        "select n_name, s_name from nation left join supplier on s_nationkey = n_nationkey",
        "select s_name from supplier \
         where s_acctbal > (select max(s_acctbal) - 100 from supplier)",
    ];
    for kind in [
        NodeEngineKind::DorisCpu,
        NodeEngineKind::ClickHouseCpu,
        NodeEngineKind::SiriusGpu,
    ] {
        let c = build(kind, &data, 3);
        for sql in shapes {
            let reference = duck.sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let out = c.sql(sql).unwrap_or_else(|e| panic!("{kind:?} {sql}: {e}"));
            assert_tables_equivalent(&format!("{kind:?} {sql}"), &reference, &out.table);
            assert_eq!(c.temp_tables_live(), 0, "{kind:?} {sql}: temp leak");
        }
    }
}
