//! # sirius-clickhouse — the ClickHouse baseline stand-in
//!
//! The second CPU baseline of the paper's evaluation (§4.2/§4.3): a
//! columnar OLAP engine with outstanding scan/aggregation performance but
//! weak join machinery — no cost-based join reordering (plans keep FROM
//! order), heavy join materialization (modeled by the engine profile's
//! join multiplier), no correlated subqueries (queries must arrive
//! pre-rewritten; the Q21 pattern — correlated EXISTS with non-equi
//! conditions — is rejected outright), and a statement time budget that
//! reproduces the paper's "Q9 does not finish".

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

use sirius_columnar::Table;
use sirius_exec_cpu::{Catalog, CpuEngine, EngineProfile, ExecError};
use sirius_hw::{catalog as hw, Device, DeviceSpec};
use sirius_plan::Rel;
use sirius_sql::{plan_sql, BinderCatalog, JoinOrderPolicy};

/// Errors surfaced by the baseline.
#[derive(Debug)]
pub enum ClickHouseError {
    /// SQL frontend failure.
    Sql(sirius_sql::SqlError),
    /// Execution failure — including `TimeBudgetExceeded` ("did not
    /// finish") and `Unsupported` (Q21's correlated-EXISTS shape).
    Exec(ExecError),
}

impl std::fmt::Display for ClickHouseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClickHouseError::Sql(e) => write!(f, "sql error: {e}"),
            ClickHouseError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for ClickHouseError {}

/// The baseline instance.
pub struct ClickHouse {
    tables: Catalog,
    binder: BinderCatalog,
    engine: CpuEngine,
}

impl Default for ClickHouse {
    fn default() -> Self {
        Self::new()
    }
}

impl ClickHouse {
    /// Baseline on the paper's cost-normalized CPU instance.
    pub fn new() -> Self {
        Self::on_device(hw::m7i_16xlarge())
    }

    /// Baseline on an explicit device spec.
    pub fn on_device(spec: DeviceSpec) -> Self {
        Self {
            tables: Catalog::new(),
            binder: BinderCatalog::new(),
            engine: CpuEngine::new(spec, EngineProfile::clickhouse()),
        }
    }

    /// Override the statement time budget (the harness scales it with the
    /// generated scale factor so "did not finish" reproduces at any SF).
    pub fn with_time_budget(self, budget: std::time::Duration) -> Self {
        let mut profile = EngineProfile::clickhouse();
        profile.time_budget = Some(budget);
        Self {
            engine: CpuEngine::new(self.engine.device().spec().clone(), profile),
            ..self
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
        self.tables.register(name, table);
    }

    /// Plan a query — joins stay in FROM order (no reordering).
    pub fn plan(&self, sql: &str) -> Result<Rel, ClickHouseError> {
        plan_sql(sql, &self.binder, JoinOrderPolicy::FromOrder).map_err(ClickHouseError::Sql)
    }

    /// Run a SQL query on the baseline engine.
    pub fn sql(&self, sql: &str) -> Result<Table, ClickHouseError> {
        let plan = self.plan(sql)?;
        self.execute_plan(&plan)
    }

    /// Execute an already-planned query.
    pub fn execute_plan(&self, plan: &Rel) -> Result<Table, ClickHouseError> {
        self.engine
            .execute(plan, &self.tables)
            .map_err(ClickHouseError::Exec)
    }

    /// The CPU device (simulated-time ledger).
    pub fn device(&self) -> &Device {
        self.engine.device()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{Array, DataType, Field, Schema};

    fn ch() -> ClickHouse {
        let mut ch = ClickHouse::new();
        ch.create_table(
            "t",
            Table::new(
                Schema::new(vec![
                    Field::new("k", DataType::Int64),
                    Field::new("v", DataType::Int64),
                ]),
                vec![Array::from_i64([1, 2, 3]), Array::from_i64([10, 20, 30])],
            ),
        );
        ch
    }

    #[test]
    fn scans_and_aggregates_run() {
        let ch = ch();
        let out = ch.sql("select sum(v) as s from t where k >= 2").unwrap();
        assert_eq!(out.column(0).i64_value(0), Some(50));
    }

    #[test]
    fn correlated_exists_with_inequality_is_rejected() {
        let ch = ch();
        // The Q21 pattern: correlated EXISTS with an extra non-equi
        // condition decorrelates to a residual semi join — unsupported.
        let q = "select k from t t1 where exists (select * from t t2 where t2.k = t1.k and t2.v <> t1.v)";
        match ch.sql(q) {
            Err(ClickHouseError::Exec(ExecError::Unsupported(_))) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn on_device_spec_survives_a_time_budget() {
        let spec = hw::c6a_metal();
        assert_ne!(spec.name, hw::m7i_16xlarge().name);
        let ch =
            ClickHouse::on_device(spec.clone()).with_time_budget(std::time::Duration::from_secs(1));
        assert_eq!(ch.device().spec().name, spec.name);
        assert_eq!(ch.device().spec().memory_bandwidth, spec.memory_bandwidth);
    }

    fn big() -> Table {
        let n = 50_000i64;
        Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Int64),
            ]),
            vec![
                Array::from_i64((0..n).collect::<Vec<_>>()),
                Array::from_i64((0..n).map(|x| x * 10).collect::<Vec<_>>()),
            ],
        )
    }

    #[test]
    fn joins_cost_more_than_duckdb() {
        // Same query, same data: the ClickHouse profile must charge more
        // simulated join time than the DuckDB profile (large enough input
        // that per-kernel launch overhead is negligible).
        let q = "select count(*) as n from t a, t b where a.k = b.k";
        let mut ch = ClickHouse::new();
        ch.create_table("t", big());
        ch.sql(q).unwrap();
        let ch_join = ch.device().breakdown().get(sirius_hw::CostCategory::Join);

        let mut duck = sirius_duckdb::DuckDb::new();
        duck.create_table("t", big());
        duck.sql(q).unwrap();
        let duck_join = duck.device().breakdown().get(sirius_hw::CostCategory::Join);
        assert!(ch_join > duck_join * 3);
    }
}
