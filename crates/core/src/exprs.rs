//! Plan-expression evaluation over the GPU kernel library.
//!
//! Walks `sirius_plan::Expr` trees and lowers each node onto a
//! `sirius-cudf` kernel launch. This is the GPU twin of
//! `sirius_exec_cpu::eval` — same semantics, different kernels — and the
//! integration suite cross-validates the two.

use crate::Result;
use sirius_columnar::{Array, DataType, Scalar, Schema, Table};
use sirius_cudf::binary::{binary_op, in_list, like, Datum};
use sirius_cudf::unary::{case_when, cast, substring, unary_op};
use sirius_cudf::GpuContext;
use sirius_hw::WorkProfile;
use sirius_plan::Expr;

/// Evaluate `expr` over every row of `input`, launching GPU kernels charged
/// to `ctx`. Bare column references are zero-copy.
pub fn evaluate(ctx: &GpuContext, expr: &Expr, input: &Table) -> Result<Array> {
    Ok(lower(ctx, expr, input)?.into_array(input.num_rows()))
}

/// [`evaluate`] each of `exprs` over `input`, in order.
pub(crate) fn evaluate_all(ctx: &GpuContext, exprs: &[Expr], input: &Table) -> Result<Vec<Array>> {
    exprs.iter().map(|e| evaluate(ctx, e, input)).collect()
}

/// Internal lowering result: a materialized column or a still-scalar
/// literal (kept scalar so kernels can broadcast without materializing).
enum Datum2 {
    Col(Array),
    Lit(sirius_columnar::Scalar),
}

impl Datum2 {
    fn as_datum(&self) -> Datum<'_> {
        match self {
            Datum2::Col(a) => Datum::Column(a),
            Datum2::Lit(s) => Datum::Scalar(s.clone()),
        }
    }

    /// The column, or the literal broadcast to `rows` rows.
    fn into_array(self, rows: usize) -> Array {
        match self {
            Datum2::Col(a) => a,
            Datum2::Lit(s) => Array::from_scalar(&s, s.data_type().unwrap_or(DataType::Bool), rows),
        }
    }
}

/// How many per-node kernel launches a fully element-wise subtree would
/// take, or `None` if any node falls outside libcudf's AST operator set
/// (string payloads, LIKE, IN-list, CASE, SUBSTRING).
fn fusable_kernels(expr: &Expr, schema: &Schema) -> Option<u64> {
    match expr {
        Expr::Column(i) => (schema.field(*i).data_type != DataType::Utf8).then_some(0),
        Expr::Literal(s) => (!matches!(s, Scalar::Utf8(_))).then_some(0),
        Expr::Binary { left, right, .. } => {
            Some(fusable_kernels(left, schema)? + fusable_kernels(right, schema)? + 1)
        }
        Expr::Unary { input, .. } => Some(fusable_kernels(input, schema)? + 1),
        Expr::Cast { input, to } if *to != DataType::Utf8 => {
            Some(fusable_kernels(input, schema)? + 1)
        }
        _ => None,
    }
}

/// Execute an element-wise subtree as ONE fused kernel, libcudf's
/// `cudf::ast::compute_column` model: the interpreter runs the whole tree
/// per row in registers, so the device streams each referenced column once,
/// writes the result once, and pays a single launch — instead of one launch
/// plus an intermediate materialization per operator node.
fn fused_compute(ctx: &GpuContext, expr: &Expr, input: &Table, kernels: u64) -> Result<Array> {
    let n = input.num_rows();
    let quiet = ctx.muted();
    let out = lower(&quiet, expr, input)?.into_array(n);
    // Each column the subtree reads is streamed once.
    let mut cols = Vec::new();
    expr.referenced_columns(&mut cols);
    cols.sort_unstable();
    cols.dedup();
    let in_bytes: u64 = cols
        .iter()
        .map(|i| input.column(*i).byte_size() as u64)
        .sum();
    ctx.charge(
        "expr.fused",
        &WorkProfile::scan(in_bytes + out.byte_size() as u64)
            .with_flops(kernels.saturating_mul(n as u64))
            .with_rows(n as u64),
    );
    Ok(out)
}

fn lower(ctx: &GpuContext, expr: &Expr, input: &Table) -> Result<Datum2> {
    // AST fusion: a contiguous element-wise subtree with 2+ operator nodes
    // compiles to a single kernel. Muted contexts skip the check — they are
    // already inside a fused region (and re-entering would recurse forever).
    if !ctx.is_muted() {
        if let Some(k) = fusable_kernels(expr, input.schema()) {
            if k >= 2 {
                return Ok(Datum2::Col(fused_compute(ctx, expr, input, k)?));
            }
        }
    }
    let n = input.num_rows();
    Ok(match expr {
        Expr::Column(i) => Datum2::Col(input.column(*i).clone()),
        Expr::Literal(s) => Datum2::Lit(s.clone()),
        Expr::Binary { op, left, right } => {
            let l = lower(ctx, left, input)?;
            let r = lower(ctx, right, input)?;
            Datum2::Col(binary_op(ctx, *op, &l.as_datum(), &r.as_datum(), n)?)
        }
        Expr::Unary { op, input: e } => {
            let v = lower(ctx, e, input)?;
            Datum2::Col(unary_op(ctx, *op, &v.as_datum(), n)?)
        }
        Expr::Cast { input: e, to } => {
            let v = lower(ctx, e, input)?;
            Datum2::Col(cast(ctx, &v.as_datum(), *to, n)?)
        }
        Expr::Like {
            input: e,
            pattern,
            negated,
        } => {
            let v = lower(ctx, e, input)?;
            Datum2::Col(like(ctx, &v.as_datum(), pattern, *negated, n)?)
        }
        Expr::InList {
            input: e,
            list,
            negated,
        } => {
            let v = lower(ctx, e, input)?;
            Datum2::Col(in_list(ctx, &v.as_datum(), list, *negated, n)?)
        }
        Expr::Case {
            branches,
            otherwise,
        } => {
            let lowered: Vec<(Datum2, Datum2)> = branches
                .iter()
                .map(|(c, v)| Ok((lower(ctx, c, input)?, lower(ctx, v, input)?)))
                .collect::<Result<_>>()?;
            let pairs: Vec<(Datum<'_>, Datum<'_>)> = lowered
                .iter()
                .map(|(c, v)| (c.as_datum(), v.as_datum()))
                .collect();
            let other = match otherwise {
                Some(o) => lower(ctx, o, input)?,
                None => Datum2::Lit(sirius_columnar::Scalar::Null),
            };
            let out_type = expr
                .data_type(input.schema())
                .map_err(crate::SiriusError::Plan)?;
            Datum2::Col(case_when(ctx, &pairs, &other.as_datum(), out_type, n)?)
        }
        Expr::Substring {
            input: e,
            start,
            len,
        } => {
            let v = lower(ctx, e, input)?;
            Datum2::Col(substring(ctx, &v.as_datum(), *start, *len, n)?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{Field, Scalar, Schema};
    use sirius_hw::{catalog, CostCategory, Device};
    use sirius_plan::expr::*;

    fn ctx() -> GpuContext {
        GpuContext::new(Device::new(catalog::gh200_gpu()), CostCategory::Project)
    }

    fn t() -> Table {
        Table::new(
            Schema::new(vec![
                Field::new("i", DataType::Int64),
                Field::new("s", DataType::Utf8),
            ]),
            vec![
                Array::from_i64([1, 2, 3]),
                Array::from_strs(["a", "bb", "ccc"]),
            ],
        )
    }

    #[test]
    fn arithmetic_matches_cpu_semantics() {
        let c = ctx();
        let table = t();
        let r = evaluate(&c, &mul(col(0), lit_i64(10)), &table).unwrap();
        assert_eq!(r.i64_value(2), Some(30));
        assert!(c.device().elapsed().as_nanos() > 0);
    }

    #[test]
    fn literal_expression_materializes() {
        let c = ctx();
        let table = t();
        let r = evaluate(&c, &lit(Scalar::Bool(true)), &table).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.scalar(1), Scalar::Bool(true));
    }

    #[test]
    fn nested_case_like() {
        let c = ctx();
        let table = t();
        let e = Expr::Case {
            branches: vec![(
                Expr::Like {
                    input: Box::new(col(1)),
                    pattern: "b%".into(),
                    negated: false,
                },
                lit_i64(1),
            )],
            otherwise: Some(Box::new(lit_i64(0))),
        };
        let r = evaluate(&c, &e, &table).unwrap();
        assert_eq!(r.i64_value(0), Some(0));
        assert_eq!(r.i64_value(1), Some(1));
    }
}
