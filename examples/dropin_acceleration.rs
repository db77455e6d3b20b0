//! Drop-in acceleration (the paper's headline): plug Sirius into the host
//! database through its extension hook — zero host modification — and watch
//! TPC-H queries route to the GPU, with the host running what the GPU
//! refuses.
//!
//! The GPU here gets device memory of 1/16 of the tables' bytes. Q1, Q3 and
//! Q6 still run on it, spilling where they must. An ungrouped
//! `COUNT(DISTINCT)` cannot split into spillable partials, so Sirius returns
//! an out-of-memory error and the host answers instead. The example asserts
//! both sides of that contract.
//!
//! ```sh
//! cargo run --example dropin_acceleration
//! ```

use sirius_core::{EngineConfig, SiriusEngine};
use sirius_duckdb::{Accelerator, DuckDb, ExecutedBy};
use sirius_hw::catalog;
use sirius_integration::assert_tables_equivalent;
use sirius_tpch::{queries, TpchGenerator};
use std::sync::Arc;

/// The adapter that registers a [`SiriusEngine`] as a DuckDB extension:
/// plans arrive as Substrait JSON, results return as shared columnar
/// tables, and an error hands the plan back to the host. This is the entire
/// integration surface — the host is unchanged.
struct SiriusExtension(SiriusEngine);

impl Accelerator for SiriusExtension {
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

/// The query the GPU cannot run at this memory budget.
const DISTINCT_PARTS: &str = "select count(distinct l_partkey) as n from lineitem";

fn main() {
    println!("generating TPC-H data (SF 0.01)...");
    let data = TpchGenerator::new(0.01).generate();
    let mut host = DuckDb::new();
    let mut db = DuckDb::new();
    for (name, table) in data.tables() {
        host.create_table(name.clone(), table.clone());
        db.create_table(name.clone(), table.clone());
    }

    // Plug Sirius in, on a GPU with 1/16 of the tables' bytes.
    let table_bytes: u64 = data
        .tables()
        .iter()
        .map(|(_, t)| t.byte_size() as u64)
        .sum();
    let mut config = EngineConfig::new(catalog::gh200_gpu());
    config.spec.memory_bytes = table_bytes / 16;
    db.register_accelerator(Arc::new(SiriusExtension(SiriusEngine::from_config(config))));

    let cases = [
        ("Q1", queries::Q1),
        ("Q3", queries::Q3),
        ("Q6", queries::Q6),
        ("COUNT(DISTINCT)", DISTINCT_PARTS),
    ];
    for (label, sql) in cases {
        let result = db.sql(sql).expect("query");
        let by = db.last_executed_by();
        let executor = match &by {
            ExecutedBy::Accelerator(name) => format!("GPU ({name})"),
            ExecutedBy::FallbackAfter(reason) => format!("CPU fallback ({reason})"),
            ExecutedBy::Host => "CPU host".to_string(),
        };
        println!("{label}: {} rows via {executor}", result.num_rows());
        assert_tables_equivalent(label, &host.sql(sql).expect("host"), &result);
        match (label, by) {
            ("COUNT(DISTINCT)", ExecutedBy::FallbackAfter(reason)) => {
                assert!(reason.contains("out of memory"), "{reason}")
            }
            ("COUNT(DISTINCT)", by) => panic!("{label} must fall back, ran via {by:?}"),
            (_, by) => assert_eq!(by, ExecutedBy::Accelerator("sirius".into()), "{label}"),
        }
    }
    println!("\nQ1/Q3/Q6 ran on the GPU; the COUNT(DISTINCT) ran out of device memory");
    println!("and the host answered it — the user-facing interface never changed.");
}
