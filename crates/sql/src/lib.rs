//! # sirius-sql — SQL frontend (parser, binder, decorrelator, optimizer)
//!
//! The "host database layer" of the paper (§3.2.1): the component stack a
//! host system like DuckDB contributes — SQL parsing, name resolution,
//! subquery decorrelation, and logical optimization — producing the
//! Substrait-style plans (`sirius-plan`) that either the host's own CPU
//! engine or the Sirius GPU engine executes.
//!
//! The dialect covers analytic SELECT queries: comma and explicit JOIN
//! syntax, WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, WITH (common table
//! expressions), derived tables, scalar/EXISTS/IN subqueries with full
//! decorrelation of the TPC-H patterns, CASE, BETWEEN, LIKE, IN lists,
//! date/interval literals, EXTRACT, and SUBSTRING — everything the 22
//! TPC-H queries require.
//!
//! ```
//! use sirius_sql::{plan_sql, BinderCatalog, JoinOrderPolicy};
//! use sirius_columnar::{DataType, Field, Schema};
//!
//! let mut cat = BinderCatalog::new();
//! cat.add_table(
//!     "t",
//!     Schema::new(vec![Field::new("x", DataType::Int64)]),
//!     100,
//! );
//! let plan = plan_sql(
//!     "select x, count(*) as n from t where x > 3 group by x order by n desc limit 5",
//!     &cat,
//!     JoinOrderPolicy::Optimized,
//! )
//! .unwrap();
//! assert!(plan.explain().contains("Aggregate"));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod optimizer;
pub mod parser;

pub use binder::{BinderCatalog, JoinOrderPolicy};
pub use optimizer::stats::{CatalogStatistics, Statistics};

use sirius_plan::Rel;

/// Errors from the SQL frontend.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Tokenizer failure.
    Lex(String),
    /// Parser failure.
    Parse(String),
    /// Binder failure (unknown names, type errors, unsupported shapes).
    Bind(String),
    /// Plan-layer error.
    Plan(sirius_plan::PlanError),
}

impl From<sirius_plan::PlanError> for SqlError {
    fn from(e: sirius_plan::PlanError) -> Self {
        SqlError::Plan(e)
    }
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Lex(m) => write!(f, "lex error: {m}"),
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::Bind(m) => write!(f, "bind error: {m}"),
            SqlError::Plan(e) => write!(f, "plan error: {e}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// Result alias for the SQL frontend.
pub type Result<T> = std::result::Result<T, SqlError>;

/// Parse, bind, decorrelate, and optimize a SQL query into a plan.
pub fn plan_sql(sql: &str, catalog: &BinderCatalog, policy: JoinOrderPolicy) -> Result<Rel> {
    plan_sql_with_stats(sql, catalog, policy, &CatalogStatistics::new(catalog))
}

/// Like [`plan_sql`], but with join ordering and build-side selection
/// driven by an explicit [`Statistics`] source — the entry point for
/// adaptive re-optimization from runtime feedback.
pub fn plan_sql_with_stats(
    sql: &str,
    catalog: &BinderCatalog,
    policy: JoinOrderPolicy,
    stats: &dyn Statistics,
) -> Result<Rel> {
    let tokens = lexer::tokenize(sql)?;
    let query = parser::parse_query(&tokens)?;
    let plan = binder::bind_with_stats(&query, catalog, policy, stats)?;
    let plan = optimizer::optimize(plan)?;
    sirius_plan::validate::validate(&plan)?;
    Ok(plan)
}
