//! # sirius-exec-cpu — vectorized CPU execution engine
//!
//! The CPU counterpart to `sirius-cudf`: a complete, independent
//! implementation of the plan IR's operators that the host-database
//! baselines (DuckDB, ClickHouse, Doris stand-ins) execute on. Results are
//! real and must agree with the GPU engine — the integration suite runs
//! TPC-H on both and compares — while simulated time is charged to a CPU
//! [`sirius_hw::Device`].
//!
//! Engine personalities are expressed through an [`EngineProfile`]: per
//! operator-category work multipliers that capture how efficient each
//! baseline is at that operator class (e.g. the ClickHouse stand-in scans
//! fast but pays heavily for joins, reproducing the paper's "ClickHouse is
//! not optimized for join-heavy workloads"), plus an optional simulated-time
//! budget (the paper reports Q9 "does not finish" on ClickHouse).

#![warn(missing_docs)]
// The CPU-fallback rung of a cluster runs this engine on the caller's
// thread: a failure is an `ExecError`, never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod catalog;
pub mod engine;
pub mod eval;
pub mod ops;
pub mod profile;

pub use catalog::Catalog;
pub use engine::CpuEngine;
pub use profile::EngineProfile;

/// Errors produced during CPU execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Referenced table missing from the catalog.
    TableNotFound(String),
    /// Plan-level error (typing/validation).
    Plan(sirius_plan::PlanError),
    /// Columnar-layer error.
    Columnar(sirius_columnar::ColumnarError),
    /// Expression/operator evaluation failure.
    Eval(String),
    /// The engine's simulated-time budget was exhausted (models the paper's
    /// "does not finish" annotation for ClickHouse Q9).
    TimeBudgetExceeded {
        /// Simulated time accumulated when the budget tripped.
        elapsed: std::time::Duration,
        /// The configured budget.
        budget: std::time::Duration,
    },
    /// The engine does not support a plan feature (ClickHouse Q21).
    Unsupported(String),
}

impl From<sirius_plan::PlanError> for ExecError {
    fn from(e: sirius_plan::PlanError) -> Self {
        ExecError::Plan(e)
    }
}

impl From<sirius_columnar::ColumnarError> for ExecError {
    fn from(e: sirius_columnar::ColumnarError) -> Self {
        ExecError::Columnar(e)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::TableNotFound(t) => write!(f, "table not found: {t}"),
            ExecError::Plan(e) => write!(f, "plan error: {e}"),
            ExecError::Columnar(e) => write!(f, "columnar error: {e}"),
            ExecError::Eval(m) => write!(f, "evaluation error: {m}"),
            ExecError::TimeBudgetExceeded { elapsed, budget } => write!(
                f,
                "query did not finish: simulated {elapsed:?} exceeded budget {budget:?}"
            ),
            ExecError::Unsupported(m) => write!(f, "unsupported by this engine: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result alias for CPU execution.
pub type Result<T> = std::result::Result<T, ExecError>;
