//! # sirius-plan — Substrait-style query-plan interchange
//!
//! The drop-in story of the paper rests on a standardized plan format: host
//! databases emit query plans in Substrait, and Sirius consumes them without
//! caring which frontend produced them (§3.2.1). This crate is that
//! interchange layer: a self-contained relational IR ([`Rel`]) with scalar
//! expression trees ([`Expr`]), schema inference, validation, a builder API,
//! and a JSON wire encoding (Substrait's official text serialization) used
//! when plans cross the host ↔ Sirius boundary.
//!
//! Expressions reference input columns by ordinal — Substrait "field
//! references" — so plans carry no name-resolution state; names live only in
//! `Read` base schemas and `Project` output aliases.
//!
//! ```
//! use sirius_plan::{builder::PlanBuilder, expr, json};
//! use sirius_columnar::{DataType, Field, Schema, Scalar};
//!
//! let plan = PlanBuilder::scan(
//!     "t",
//!     Schema::new(vec![Field::new("x", DataType::Int64)]),
//! )
//! .filter(expr::gt(expr::col(0), expr::lit(Scalar::Int64(5))))
//! .build();
//!
//! let wire = json::to_json(&plan).unwrap();
//! let back = json::from_json(&wire).unwrap();
//! assert_eq!(plan, back);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod builder;
pub mod expr;
pub mod fingerprint;
pub mod json;
pub mod normalize;
pub mod rel;
pub mod validate;
pub mod visit;

pub use expr::{AggExpr, AggFunc, BinOp, Expr, SortExpr, UnOp};
pub use fingerprint::{fingerprint, PlanFingerprint};
pub use rel::{ExchangeKind, JoinKind, Rel};

/// Errors from plan construction, inference, or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// An expression referenced a column ordinal outside its input schema.
    ColumnOutOfRange {
        /// The out-of-range ordinal.
        index: usize,
        /// The input schema width.
        width: usize,
    },
    /// An operator/function was applied to incompatible types.
    TypeError(String),
    /// Structural invariant violated (e.g. key-count mismatch in a join).
    Invalid(String),
    /// Serialization failure.
    Serde(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ColumnOutOfRange { index, width } => {
                write!(f, "column ordinal {index} out of range for width {width}")
            }
            PlanError::TypeError(m) => write!(f, "type error: {m}"),
            PlanError::Invalid(m) => write!(f, "invalid plan: {m}"),
            PlanError::Serde(m) => write!(f, "plan serialization error: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Result alias for plan operations.
pub type Result<T> = std::result::Result<T, PlanError>;
