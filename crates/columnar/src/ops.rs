//! The operator vocabulary: the binary and unary operators and the aggregate
//! functions a plan names and the kernels run, each with its one typing rule.
//!
//! A rule computes nothing. It says which operand types an operator accepts
//! and what type it yields, so that a plan's validation and the kernel that
//! later runs the operator cannot disagree.

use crate::DataType;
use serde::{Deserialize, Serialize};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (always `Float64`).
    Div,
    /// Integer modulo.
    Mod,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical AND (Kleene).
    And,
    /// Logical OR (Kleene).
    Or,
}

impl BinOp {
    /// True for comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for AND / OR.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// Result type over operands of types `l` and `r`; `None` when the
    /// operator does not apply to them.
    pub fn result_type(self, l: DataType, r: DataType) -> Option<DataType> {
        use DataType::*;
        if self.is_comparison() {
            return comparable(l, r).then_some(Bool);
        }
        match self {
            BinOp::And | BinOp::Or => (l == Bool && r == Bool).then_some(Bool),
            BinOp::Div => (l.is_numeric() && r.is_numeric()).then_some(Float64),
            BinOp::Mod => matches!((l, r), (Int32 | Int64, Int32 | Int64)).then_some(Int64),
            _ => match (l, r) {
                (Float64, x) | (x, Float64) if x.is_numeric() => Some(Float64),
                (Int32 | Int64, Int32 | Int64) => Some(Int64),
                // Date ± integer days.
                (Date32, Int32 | Int64) if matches!(self, BinOp::Add | BinOp::Sub) => Some(Date32),
                (Date32, Date32) if self == BinOp::Sub => Some(Int64),
                _ => None,
            },
        }
    }
}

/// Whether `=` / `<` / `IN` and equi-join keys may compare the two types.
pub fn comparable(l: DataType, r: DataType) -> bool {
    l == r || (l.is_numeric() && r.is_numeric())
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Logical NOT (NULL in, NULL out).
    Not,
    /// Arithmetic negation.
    Neg,
    /// `IS NULL` (never NULL).
    IsNull,
    /// `IS NOT NULL` (never NULL).
    IsNotNull,
    /// `EXTRACT(YEAR FROM date)`.
    ExtractYear,
}

impl UnOp {
    /// Result type over an operand of type `input`, which is `None` for an
    /// untyped NULL literal; `None` when the operator does not apply.
    pub fn result_type(self, input: Option<DataType>) -> Option<DataType> {
        use DataType::*;
        match (self, input) {
            (UnOp::IsNull | UnOp::IsNotNull, _) | (UnOp::Not, None | Some(Bool)) => Some(Bool),
            (UnOp::ExtractYear, None | Some(Date32)) => Some(Int64),
            (UnOp::Neg, Some(Int32 | Int64)) => Some(Int64),
            (UnOp::Neg, Some(Float64)) => Some(Float64),
            _ => None,
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// `COUNT(*)`: counts rows.
    CountStar,
    /// `COUNT(expr)`: counts non-NULL values.
    Count,
    /// `COUNT(DISTINCT expr)`.
    CountDistinct,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
}

impl AggFunc {
    /// Result type over an argument of type `input` (`None` when there is
    /// no argument); `None` when the function does not apply.
    pub fn result_type(self, input: Option<DataType>) -> Option<DataType> {
        use DataType::*;
        match (self, input) {
            (AggFunc::CountStar | AggFunc::Count | AggFunc::CountDistinct, _) => Some(Int64),
            (AggFunc::Avg, _) => Some(Float64),
            (AggFunc::Sum, Some(Float64)) => Some(Float64),
            (AggFunc::Sum, Some(Int32 | Int64)) => Some(Int64),
            (AggFunc::Min | AggFunc::Max, input) => input,
            (AggFunc::Sum, _) => None,
        }
    }
}
