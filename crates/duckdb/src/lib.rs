//! # sirius-duckdb — the single-node host database (DuckDB stand-in)
//!
//! The paper's single-node host (§3.2.1): an embedded analytical database
//! with a SQL frontend, a cost-aware optimizer, a vectorized CPU engine —
//! and an **extension hook** through which Sirius plugs in with *zero
//! modification* to the host: the host exports its optimized plan as
//! Substrait JSON, the extension executes it on the GPU, and results come
//! back in the shared Arrow-derived format. If the extension declines or
//! fails, the host's own engine runs the plan (graceful fallback).
//!
//! ```
//! use sirius_duckdb::DuckDb;
//! use sirius_columnar::{Array, DataType, Field, Schema, Table};
//!
//! let mut db = DuckDb::new();
//! db.create_table(
//!     "t",
//!     Table::new(
//!         Schema::new(vec![Field::new("x", DataType::Int64)]),
//!         vec![Array::from_i64([1, 2, 3])],
//!     ),
//! );
//! let out = db.sql("select sum(x) as s from t").unwrap();
//! assert_eq!(out.column(0).i64_value(0), Some(6));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

use parking_lot::RwLock;
use sirius_columnar::Table;
use sirius_exec_cpu::{Catalog, CpuEngine, EngineProfile, ExecError};
use sirius_hw::{catalog as hw, Device, DeviceSpec};
use sirius_plan::{json, Rel};
use sirius_sql::{plan_sql, BinderCatalog, JoinOrderPolicy};
use std::sync::Arc;

/// The extension interface (DuckDB's extension framework, §3.2.1): an
/// accelerator receives the host's optimized plan as Substrait JSON and
/// either returns a result or an error string (upon which the host runs
/// the plan itself).
pub trait Accelerator: Send + Sync {
    /// Try to execute the Substrait plan; `Err` triggers host fallback.
    fn execute_substrait(&self, wire: &str) -> Result<Table, String>;
    /// Offer a newly created table for device-side caching.
    fn cache_table(&self, name: &str, table: &Table);
    /// Extension name (diagnostics).
    fn name(&self) -> &str;
}

/// Errors surfaced by the host database.
#[derive(Debug)]
pub enum DuckDbError {
    /// SQL frontend failure.
    Sql(sirius_sql::SqlError),
    /// Execution failure.
    Exec(ExecError),
}

impl std::fmt::Display for DuckDbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DuckDbError::Sql(e) => write!(f, "sql error: {e}"),
            DuckDbError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for DuckDbError {}

/// What executed the last query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutedBy {
    /// The host's own CPU engine.
    Host,
    /// The registered accelerator.
    Accelerator(String),
    /// The accelerator failed and the host re-executed (graceful fallback).
    FallbackAfter(String),
}

/// The host database instance.
pub struct DuckDb {
    tables: Catalog,
    binder: BinderCatalog,
    engine: CpuEngine,
    accelerator: RwLock<Option<Arc<dyn Accelerator>>>,
    last_executed_by: RwLock<ExecutedBy>,
}

impl Default for DuckDb {
    fn default() -> Self {
        Self::new()
    }
}

impl DuckDb {
    /// Host on the paper's cost-normalized CPU instance (m7i.16xlarge).
    pub fn new() -> Self {
        Self::on_device(hw::m7i_16xlarge())
    }

    /// Host on an explicit device spec.
    pub fn on_device(spec: DeviceSpec) -> Self {
        Self {
            tables: Catalog::new(),
            binder: BinderCatalog::new(),
            engine: CpuEngine::new(spec, EngineProfile::duckdb()),
            accelerator: RwLock::new(None),
            last_executed_by: RwLock::new(ExecutedBy::Host),
        }
    }

    /// Register a table.
    pub fn create_table(&mut self, name: impl Into<String>, table: Table) {
        let name = name.into();
        self.binder.add_table(
            name.clone(),
            table.schema().clone(),
            table.num_rows() as u64,
        );
        if let Some(acc) = self.accelerator.read().as_ref() {
            acc.cache_table(&name, &table);
        }
        self.tables.register(name, table);
    }

    /// Plug in an accelerator extension (e.g. Sirius). Existing tables are
    /// offered for caching immediately.
    pub fn register_accelerator(&self, acc: Arc<dyn Accelerator>) {
        for name in self.tables.table_names() {
            if let Some(t) = self.tables.get(&name) {
                acc.cache_table(&name, &t);
            }
        }
        *self.accelerator.write() = Some(acc);
    }

    /// Parse + optimize a query into the plan the engine (or accelerator)
    /// will run.
    pub fn plan(&self, sql: &str) -> Result<Rel, DuckDbError> {
        plan_sql(sql, &self.binder, JoinOrderPolicy::Optimized).map_err(DuckDbError::Sql)
    }

    /// Run a SQL query: plan, offer to the accelerator, fall back to the
    /// host engine when declined.
    pub fn sql(&self, sql: &str) -> Result<Table, DuckDbError> {
        let plan = self.plan(sql)?;
        self.execute_plan(&plan)
    }

    /// Execute an already-planned query (the Substrait-level entry).
    pub fn execute_plan(&self, plan: &Rel) -> Result<Table, DuckDbError> {
        let acc = self.accelerator.read().clone();
        if let Some(acc) = acc {
            let wire =
                json::to_json(plan).map_err(|e| DuckDbError::Sql(sirius_sql::SqlError::Plan(e)))?;
            match acc.execute_substrait(&wire) {
                Ok(t) => {
                    *self.last_executed_by.write() =
                        ExecutedBy::Accelerator(acc.name().to_string());
                    return Ok(t);
                }
                Err(reason) => {
                    *self.last_executed_by.write() = ExecutedBy::FallbackAfter(reason);
                }
            }
        } else {
            *self.last_executed_by.write() = ExecutedBy::Host;
        }
        self.engine
            .execute(plan, &self.tables)
            .map_err(DuckDbError::Exec)
    }

    /// EXPLAIN output for a query.
    pub fn explain(&self, sql: &str) -> Result<String, DuckDbError> {
        Ok(self.plan(sql)?.explain())
    }

    /// Who executed the most recent query.
    pub fn last_executed_by(&self) -> ExecutedBy {
        self.last_executed_by.read().clone()
    }

    /// The host CPU device (simulated-time ledger).
    pub fn device(&self) -> &Device {
        self.engine.device()
    }

    /// The host's table catalog (shared with fallback executors).
    pub fn catalog(&self) -> &Catalog {
        &self.tables
    }

    /// The host's binder catalog.
    pub fn binder_catalog(&self) -> &BinderCatalog {
        &self.binder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{Array, DataType, Field, Schema};

    fn db() -> DuckDb {
        let mut db = DuckDb::new();
        db.create_table(
            "t",
            Table::new(
                Schema::new(vec![
                    Field::new("k", DataType::Int64),
                    Field::new("g", DataType::Utf8),
                ]),
                vec![
                    Array::from_i64([1, 2, 3]),
                    Array::from_strs(["a", "b", "a"]),
                ],
            ),
        );
        db
    }

    #[test]
    fn sql_end_to_end() {
        let db = db();
        let out = db
            .sql("select g, count(*) as n from t group by g order by n desc")
            .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column(0).utf8_value(0), Some("a"));
        assert_eq!(db.last_executed_by(), ExecutedBy::Host);
        assert!(db.device().elapsed().as_nanos() > 0);
    }

    #[test]
    fn explain_renders_plan() {
        let db = db();
        let e = db.explain("select k from t where k > 1").unwrap();
        assert!(e.contains("Read t"));
    }

    struct CountingAccel {
        calls: std::sync::atomic::AtomicUsize,
        fail: bool,
    }
    impl Accelerator for CountingAccel {
        fn execute_substrait(&self, wire: &str) -> Result<Table, String> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if self.fail {
                return Err("no GPU today".into());
            }
            let plan = json::from_json(wire).map_err(|e| e.to_string())?;
            let _ = plan;
            Ok(Table::new(
                Schema::new(vec![Field::new("marker", DataType::Int64)]),
                vec![Array::from_i64([7])],
            ))
        }
        fn cache_table(&self, _name: &str, _table: &Table) {}
        fn name(&self) -> &str {
            "test-accel"
        }
    }

    #[test]
    fn accelerator_intercepts_queries() {
        let db = db();
        let acc = Arc::new(CountingAccel {
            calls: Default::default(),
            fail: false,
        });
        db.register_accelerator(acc.clone());
        let out = db.sql("select k from t").unwrap();
        assert_eq!(
            out.column(0).i64_value(0),
            Some(7),
            "accelerator result used"
        );
        assert_eq!(acc.calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(
            db.last_executed_by(),
            ExecutedBy::Accelerator("test-accel".into())
        );
    }

    #[test]
    fn failed_accelerator_falls_back_to_host() {
        let db = db();
        db.register_accelerator(Arc::new(CountingAccel {
            calls: Default::default(),
            fail: true,
        }));
        let out = db.sql("select k from t where k >= 2").unwrap();
        assert_eq!(out.num_rows(), 2, "host produced the real answer");
        assert!(matches!(
            db.last_executed_by(),
            ExecutedBy::FallbackAfter(_)
        ));
    }

    #[test]
    fn unknown_table_is_a_sql_error() {
        let db = db();
        assert!(matches!(
            db.sql("select x from missing"),
            Err(DuckDbError::Sql(_))
        ));
    }
}
