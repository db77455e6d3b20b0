//! Drop-in acceleration (the paper's headline): plug Sirius into the host
//! database through its extension hook — zero host modification — and watch
//! TPC-H queries route to the GPU, with graceful CPU fallback when the GPU
//! engine declines a plan.
//!
//! ```sh
//! cargo run --example dropin_acceleration
//! ```

use sirius_core::{EngineConfig, SiriusContext, SiriusEngine};
use sirius_duckdb::{Accelerator, DuckDb, ExecutedBy};
use sirius_hw::catalog;
use sirius_plan::validate::FeatureSet;
use sirius_tpch::{queries, TpchGenerator};
use std::sync::Arc;

/// The adapter that registers a [`SiriusContext`] as a DuckDB extension:
/// plans arrive as Substrait JSON, results return as shared columnar
/// tables. This is the entire integration surface — the host is unchanged.
struct SiriusExtension {
    ctx: SiriusContext,
}

impl Accelerator for SiriusExtension {
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

fn main() {
    println!("generating TPC-H data (SF 0.01)...");
    let data = TpchGenerator::new(0.01).generate();
    let mut db = DuckDb::new();
    for (name, table) in data.tables() {
        db.create_table(name.clone(), table.clone());
    }

    // Plug Sirius in. Restricting the GPU feature set (no AVG) makes Q1
    // demonstrate the graceful fallback path.
    let mut features = FeatureSet::full();
    features.avg = false;
    let engine = SiriusEngine::from_config(EngineConfig {
        features,
        ..EngineConfig::new(catalog::gh200_gpu())
    });
    db.register_accelerator(Arc::new(SiriusExtension {
        ctx: SiriusContext::new(engine),
    }));

    for (id, sql) in [(1, queries::Q1), (3, queries::Q3), (6, queries::Q6)] {
        let result = db.sql(sql).expect("query");
        let by = db.last_executed_by();
        let executor = match &by {
            ExecutedBy::Accelerator(name) => format!("GPU ({name})"),
            ExecutedBy::FallbackAfter(reason) => format!("CPU fallback ({reason})"),
            ExecutedBy::Host => "CPU host".to_string(),
        };
        println!("Q{id}: {} rows via {executor}", result.num_rows());
    }
    println!("\nQ1 fell back (AVG disabled on this GPU build); Q3/Q6 ran on the GPU —");
    println!("the user-facing interface never changed.");
}
