//! Cross-engine result validation: the CPU baselines and the GPU engine
//! implement the operators independently, so agreeing on all 22 TPC-H
//! queries is strong evidence both are right.

use sirius_columnar::{Array, DataType, Field, Schema, Table};
use sirius_core::SiriusEngine;
use sirius_duckdb::DuckDb;
use sirius_exec_cpu::{CpuEngine, EngineProfile, ExecError};
use sirius_hw::catalog as hw;
use sirius_integration::assert_tables_equivalent;
use sirius_sql::{plan_sql, JoinOrderPolicy};
use sirius_tpch::{queries, TpchGenerator};

#[test]
fn tpch_duckdb_vs_sirius_gpu() {
    let data = TpchGenerator::new(0.01).generate();
    let mut duck = DuckDb::new();
    let sirius = SiriusEngine::new(hw::gh200_gpu());
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
        sirius.load_table(name.clone(), table);
    }
    sirius.device().reset(); // hot runs only, like the paper

    for (id, sql) in queries::all() {
        let plan = duck.plan(sql).unwrap_or_else(|e| panic!("Q{id} plan: {e}"));
        let cpu = duck
            .execute_plan(&plan)
            .unwrap_or_else(|e| panic!("Q{id} duckdb: {e}"));
        let gpu = sirius
            .execute(&plan)
            .unwrap_or_else(|e| panic!("Q{id} sirius: {e}"));
        assert_tables_equivalent(&format!("Q{id}"), &cpu, &gpu);
    }
}

#[test]
fn tpch_clickhouse_agrees_where_supported() {
    let data = TpchGenerator::new(0.01).generate();
    let mut duck = DuckDb::new();
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
    }
    let bcat = sirius_integration::binder_catalog(&data);
    let clickhouse = CpuEngine::new(hw::m7i_16xlarge(), EngineProfile::clickhouse());

    let mut unsupported = Vec::new();
    for (id, sql) in queries::all() {
        // ClickHouse plans with FROM-order joins; results must still agree.
        let duck_result = duck
            .sql(sql)
            .unwrap_or_else(|e| panic!("Q{id} duckdb: {e}"));
        let plan = plan_sql(sql, &bcat, JoinOrderPolicy::FromOrder)
            .unwrap_or_else(|e| panic!("Q{id} from-order plan: {e}"));
        match clickhouse.execute(&plan, duck.catalog()) {
            Ok(ch_result) => assert_tables_equivalent(&format!("Q{id}"), &duck_result, &ch_result),
            Err(ExecError::Unsupported(_)) => unsupported.push(id),
            Err(e) => panic!("Q{id} clickhouse: {e}"),
        }
    }
    // Exactly the Q21 shape is unsupported, matching the paper.
    assert_eq!(unsupported, vec![21], "unsupported set: {unsupported:?}");
}

/// `SUM` over integers wraps on overflow, like integer `+`: the same query
/// gives the same answer in debug and release builds (a plain `+=` panics in
/// one and wraps in the other), on the CPU oracle and on the GPU engine,
/// through the grouped kernel and through the ungrouped reduction.
#[test]
fn integer_sum_wraps_on_overflow_in_every_engine() {
    let table = Table::new(
        Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]),
        vec![
            Array::from_i64([0, 0, 1]),
            Array::from_i64([i64::MAX, 1, 5]),
        ],
    );
    let mut duck = DuckDb::new();
    let sirius = SiriusEngine::new(hw::gh200_gpu());
    duck.create_table("t", table.clone());
    sirius.load_table("t", &table);

    let cases = [
        ("select sum(v) as s from t", vec![i64::MIN.wrapping_add(5)]),
        (
            "select g, sum(v) as s from t group by g order by g",
            vec![i64::MIN, 5],
        ),
    ];
    for (sql, sums) in cases {
        let plan = duck.plan(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let cpu = duck.execute_plan(&plan).expect("cpu oracle");
        let gpu = sirius.execute(&plan).expect("gpu engine");
        assert_tables_equivalent(sql, &cpu, &gpu);
        let s = gpu.column_by_name("s").expect("sum column");
        let got: Vec<i64> = (0..gpu.num_rows()).filter_map(|i| s.i64_value(i)).collect();
        assert_eq!(got, sums, "{sql}");
    }
}
