//! The drop-in acceleration contract: host plans cross the Substrait JSON
//! boundary into Sirius, results come back, and whatever Sirius refuses the
//! host runs itself — with the host's own answer. The host is the only
//! place that falls back (`DuckDb::execute_plan`).

use sirius_core::{EngineConfig, SiriusEngine};
use sirius_duckdb::{Accelerator, DuckDb, ExecutedBy};
use sirius_hw::catalog as hw;
use sirius_integration::assert_tables_equivalent;
use sirius_plan::json;
use sirius_tpch::{queries, TpchData, TpchGenerator};
use std::sync::Arc;

struct Ext(SiriusEngine);

impl Accelerator for Ext {
    fn execute_substrait(&self, wire: &str) -> Result<sirius_columnar::Table, String> {
        self.0.execute_json(wire).map_err(|e| e.to_string())
    }
    fn cache_table(&self, name: &str, table: &sirius_columnar::Table) {
        self.0.load_table(name, table);
    }
    fn name(&self) -> &str {
        "sirius"
    }
}

/// A plain host and one accelerated by `engine`, both holding `data`.
fn hosts(data: &TpchData, engine: SiriusEngine) -> (DuckDb, DuckDb) {
    let mut plain = DuckDb::new();
    let mut accelerated = DuckDb::new();
    for (name, table) in data.tables() {
        plain.create_table(name.clone(), table.clone());
        accelerated.create_table(name.clone(), table.clone());
    }
    accelerated.register_accelerator(Arc::new(Ext(engine)));
    (plain, accelerated)
}

#[test]
fn whole_tpch_through_the_json_wire() {
    let data = TpchGenerator::new(0.005).generate();
    let (plain, accelerated) = hosts(&data, SiriusEngine::new(hw::gh200_gpu()));

    for (id, sql) in queries::all() {
        let reference = plain.sql(sql).unwrap_or_else(|e| panic!("Q{id} host: {e}"));
        let via_gpu = accelerated
            .sql(sql)
            .unwrap_or_else(|e| panic!("Q{id} accel: {e}"));
        assert_tables_equivalent(&format!("Q{id}"), &reference, &via_gpu);
        assert_eq!(
            accelerated.last_executed_by(),
            ExecutedBy::Accelerator("sirius".into()),
            "Q{id} must run on the GPU"
        );
    }
}

#[test]
fn plans_survive_the_wire_byte_for_byte() {
    let data = TpchGenerator::new(0.002).generate();
    let mut db = DuckDb::new();
    for (name, table) in data.tables() {
        db.create_table(name.clone(), table.clone());
    }
    for (id, sql) in queries::all() {
        let plan = db.plan(sql).unwrap_or_else(|e| panic!("Q{id}: {e}"));
        let wire = json::to_json(&plan).unwrap();
        let back = json::from_json(&wire).unwrap();
        assert_eq!(plan, back, "Q{id} plan changed across the wire");
    }
}

/// An ungrouped `COUNT(DISTINCT)` cannot split into spillable partials: on
/// a GPU with 1/16 of the tables' bytes it runs out of device memory, and
/// the host answers it. At 1/8 the same query runs on the GPU, so the limit
/// — not a switched-off operator — is what sends it back.
#[test]
fn fallback_produces_the_host_answer() {
    const SQL: &str = "select count(distinct l_partkey) as n from lineitem";
    let data = TpchGenerator::new(0.01).generate();
    let table_bytes: u64 = data
        .tables()
        .iter()
        .map(|(_, t)| t.byte_size() as u64)
        .sum();
    for (share, on_gpu) in [(16, false), (8, true)] {
        let mut config = EngineConfig::new(hw::gh200_gpu());
        config.spec.memory_bytes = table_bytes / share;
        let (plain, accelerated) = hosts(&data, SiriusEngine::from_config(config));
        let expected = plain.sql(SQL).unwrap();
        let got = accelerated.sql(SQL).unwrap();
        assert_tables_equivalent(&format!("1/{share} memory"), &expected, &got);
        match accelerated.last_executed_by() {
            ExecutedBy::FallbackAfter(reason) if !on_gpu => assert!(
                reason.starts_with("device out of memory: ungrouped COUNT(DISTINCT)"),
                "{reason}"
            ),
            ExecutedBy::Accelerator(_) if on_gpu => {}
            by => panic!("1/{share} memory ran via {by:?}"),
        }
    }
}

/// Any accelerator error sends the plan back, not only running out of
/// memory: a scalar subquery that returns two rows fails Sirius's
/// single-row join, the host runs the plan, and the host's own error is
/// what the caller sees.
#[test]
fn kernel_failures_also_fall_back() {
    let data = TpchGenerator::new(0.002).generate();
    let (plain, accelerated) = hosts(&data, SiriusEngine::new(hw::gh200_gpu()));
    let sql = "select n_name from nation where n_regionkey = (select r_regionkey from region where r_regionkey < 2)";
    let host_error = plain.sql(sql).map(|_| ()).unwrap_err().to_string();
    let error = accelerated.sql(sql).map(|_| ()).unwrap_err().to_string();
    assert_eq!(error, host_error);
    match accelerated.last_executed_by() {
        ExecutedBy::FallbackAfter(reason) => assert!(reason.starts_with("kernel"), "{reason}"),
        by => panic!("ran via {by:?}"),
    }
}
