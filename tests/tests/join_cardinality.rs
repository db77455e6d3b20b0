//! The join order keeps every intermediate in check: over the 22 TPC-H
//! queries no join emits more rows than the largest table it could have
//! read. A many-to-many intermediate (two relations joined through a
//! low-cardinality key before the fact table that links them) is what an
//! orderer without join-cardinality estimates builds for Q7.

use sirius_core::SiriusEngine;
use sirius_duckdb::DuckDb;
use sirius_hw::{catalog as hw, TraceConfig};
use sirius_plan::{visit, Rel};
use sirius_tpch::{queries, TpchGenerator};

const SF: f64 = 0.01;

#[test]
fn no_join_outgrows_lineitem() {
    let data = TpchGenerator::new(SF).generate();
    let mut duck = DuckDb::new();
    let engine = SiriusEngine::new(hw::gh200_gpu()).with_trace(TraceConfig::On);
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
        engine.load_table(name.clone(), table);
    }
    let lineitem = data.table("lineitem").expect("lineitem").num_rows() as u64;

    for (id, sql) in queries::all() {
        let plan = duck.plan(sql).unwrap_or_else(|e| panic!("Q{id} plan: {e}"));
        engine.clear_operator_stats();
        engine
            .execute(&plan)
            .unwrap_or_else(|e| panic!("Q{id} execute: {e}"));
        let stats = engine.operator_stats();
        let mut joins = 0;
        visit::visit(
            &sirius_plan::normalize::normalize(&plan),
            &mut |node, rel| {
                if !matches!(rel, Rel::Join { .. }) {
                    return;
                }
                joins += 1;
                let rows = stats.get(&node.id).map_or(0, |s| s.rows_out);
                assert!(
                    rows <= lineitem,
                    "Q{id}: Join #{} emits {rows} rows, lineitem has {lineitem}:\n{}",
                    node.id,
                    engine.explain_analyze(&plan)
                );
            },
        );
        // Every query but Q1 and Q6 joins; a walk that met no join would
        // make the assertion above vacuous.
        assert_eq!(joins == 0, matches!(id, 1 | 6), "Q{id}: {joins} joins");
    }
}
