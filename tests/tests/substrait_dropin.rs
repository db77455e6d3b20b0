//! The drop-in acceleration contract: host plans cross the Substrait JSON
//! boundary into Sirius, results come back, and failures fall back to the
//! host engine — with the host's own answer.

use sirius_core::{EngineConfig, HostEngine, SiriusContext, SiriusEngine};
use sirius_duckdb::{Accelerator, DuckDb, ExecutedBy};
use sirius_hw::catalog as hw;
use sirius_integration::assert_tables_equivalent;
use sirius_plan::validate::FeatureSet;
use sirius_plan::{json, Rel};
use sirius_tpch::{queries, TpchGenerator};
use std::sync::Arc;

struct Ext {
    ctx: SiriusContext,
}

impl Accelerator for Ext {
    fn execute_substrait(&self, wire: &str) -> Result<sirius_columnar::Table, String> {
        self.ctx
            .execute_json(wire)
            .map(|(t, _)| t)
            .map_err(|e| e.to_string())
    }
    fn cache_table(&self, name: &str, table: &sirius_columnar::Table) {
        self.ctx.engine().load_table(name, table);
    }
    fn name(&self) -> &str {
        "sirius"
    }
}

#[test]
fn whole_tpch_through_the_json_wire() {
    let data = TpchGenerator::new(0.005).generate();
    let mut plain = DuckDb::new();
    let mut accelerated = DuckDb::new();
    for (name, table) in data.tables() {
        plain.create_table(name.clone(), table.clone());
        accelerated.create_table(name.clone(), table.clone());
    }
    accelerated.register_accelerator(Arc::new(Ext {
        ctx: SiriusContext::new(SiriusEngine::new(hw::gh200_gpu())),
    }));

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

struct DuckHost(DuckDb);
impl HostEngine for DuckHost {
    fn execute_host(&self, plan: &Rel) -> Result<sirius_columnar::Table, String> {
        self.0.execute_plan(plan).map_err(|e| e.to_string())
    }
    fn name(&self) -> &str {
        "duckdb"
    }
}

#[test]
fn fallback_produces_the_host_answer() {
    let data = TpchGenerator::new(0.005).generate();
    let mut db = DuckDb::new();
    for (name, table) in data.tables() {
        db.create_table(name.clone(), table.clone());
    }
    let expected = db.sql(queries::Q1).unwrap();
    let plan = db.plan(queries::Q1).unwrap();

    // A GPU build without AVG: Q1 must fall back and still be right.
    let mut features = FeatureSet::full();
    features.avg = false;
    let engine = SiriusEngine::from_config(EngineConfig {
        features,
        ..EngineConfig::new(hw::gh200_gpu())
    });
    for (name, table) in data.tables() {
        engine.load_table(name.clone(), table);
    }
    let ctx = SiriusContext::new(engine).with_host(Arc::new(DuckHost(db)));
    let (out, report) = ctx.execute_plan(&plan).unwrap();
    assert_tables_equivalent("Q1 fallback", &expected, &out);
    assert_eq!(report.engine, "duckdb");
    assert!(report.fallback_reason.is_some());
}

#[test]
fn kernel_failures_also_fall_back() {
    // A scalar subquery that returns two rows makes the GPU engine's
    // Single join error; the host (which would hit the same error) is not
    // registered, so the error surfaces — then with a host that "handles"
    // it, the fallback result is returned.
    struct AlwaysSeven;
    impl HostEngine for AlwaysSeven {
        fn execute_host(&self, _plan: &Rel) -> Result<sirius_columnar::Table, String> {
            Ok(sirius_columnar::Table::new(
                sirius_columnar::Schema::new(vec![sirius_columnar::Field::new(
                    "x",
                    sirius_columnar::DataType::Int64,
                )]),
                vec![sirius_columnar::Array::from_i64([7])],
            ))
        }
        fn name(&self) -> &str {
            "seven"
        }
    }

    let engine = SiriusEngine::new(hw::gh200_gpu());
    // A table that is not cached triggers the TableNotCached fallback class.
    let plan = Rel::Read {
        table: "never_loaded".into(),
        schema: sirius_columnar::Schema::new(vec![sirius_columnar::Field::new(
            "x",
            sirius_columnar::DataType::Int64,
        )]),
        projection: None,
    };
    let bare = SiriusContext::new(engine);
    assert!(bare.execute_plan(&plan).is_err());

    let engine = SiriusEngine::new(hw::gh200_gpu());
    let ctx = SiriusContext::new(engine).with_host(Arc::new(AlwaysSeven));
    let (out, report) = ctx.execute_plan(&plan).unwrap();
    assert_eq!(out.column(0).i64_value(0), Some(7));
    assert_eq!(report.engine, "seven");
}
