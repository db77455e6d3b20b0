//! Element-wise unary kernels, casts, string functions, and CASE. The
//! unary operators are the plan's own [`UnOp`]s, typed by the rule plan
//! validation applies.

use crate::binary::Datum;
use crate::{GpuContext, KernelError, Result};
use sirius_columnar::ops::UnOp;
use sirius_columnar::scalar::date32_year;
use sirius_columnar::{Array, DataType, Scalar};
use sirius_hw::WorkProfile;

/// Element-wise unary kernel, typed by [`UnOp::result_type`].
pub fn unary_op(ctx: &GpuContext, op: UnOp, input: &Datum<'_>, num_rows: usize) -> Result<Array> {
    let in_type = input.data_type();
    let out_type = (op.result_type(in_type))
        .ok_or_else(|| KernelError::UnsupportedTypes(format!("{op:?} on {in_type:?}")))?;
    let mut out = Vec::with_capacity(num_rows);
    for i in 0..num_rows {
        let v = input.value(i);
        out.push(match op {
            UnOp::IsNull => Scalar::Bool(v.is_null()),
            UnOp::IsNotNull => Scalar::Bool(!v.is_null()),
            UnOp::Not => v.as_bool().map_or(Scalar::Null, |b| Scalar::Bool(!b)),
            UnOp::Neg if out_type == DataType::Float64 => {
                v.as_f64().map_or(Scalar::Null, |f| Scalar::Float64(-f))
            }
            UnOp::Neg => v
                .as_i64()
                .map_or(Scalar::Null, |i| Scalar::Int64(i.wrapping_neg())),
            UnOp::ExtractYear => match v {
                Scalar::Date32(d) => Scalar::Int64(date32_year(d) as i64),
                _ => Scalar::Null,
            },
        });
    }
    ctx.charge_named(
        "unary.op",
        &WorkProfile::scan(input.byte_size())
            .with_flops(num_rows as u64)
            .with_rows(num_rows as u64),
    );
    Ok(Array::from_scalars(&out, out_type))
}

/// Cast kernel. Unsupported casts on any non-null element fail.
pub fn cast(ctx: &GpuContext, input: &Datum<'_>, to: DataType, num_rows: usize) -> Result<Array> {
    let mut out = Vec::with_capacity(num_rows);
    for i in 0..num_rows {
        let v = input.value(i);
        out.push(
            v.cast(to)
                .ok_or_else(|| KernelError::UnsupportedTypes(format!("cast {v:?} to {to}")))?,
        );
    }
    ctx.charge_named(
        "unary.cast",
        &WorkProfile::scan(input.byte_size())
            .with_flops(num_rows as u64)
            .with_rows(num_rows as u64),
    );
    Ok(Array::from_scalars(&out, to))
}

/// SQL `SUBSTRING(s FROM start FOR len)` with 1-based `start`, by character.
pub fn substring(
    ctx: &GpuContext,
    input: &Datum<'_>,
    start: usize,
    len: usize,
    num_rows: usize,
) -> Result<Array> {
    let mut out = Vec::with_capacity(num_rows);
    for i in 0..num_rows {
        let v = input.value(i);
        out.push(match v.as_str() {
            Some(s) => Scalar::Utf8(s.chars().skip(start.saturating_sub(1)).take(len).collect()),
            None => Scalar::Null,
        });
    }
    ctx.charge_named(
        "unary.substring",
        &WorkProfile::scan(input.byte_size())
            .with_flops(num_rows as u64)
            .with_rows(num_rows as u64),
    );
    Ok(Array::from_scalars(&out, DataType::Utf8))
}

/// CASE kernel: `branches` are `(condition, value)` pairs evaluated in
/// order; `otherwise` supplies the default (NULL literal if absent).
pub fn case_when(
    ctx: &GpuContext,
    branches: &[(Datum<'_>, Datum<'_>)],
    otherwise: &Datum<'_>,
    out_type: DataType,
    num_rows: usize,
) -> Result<Array> {
    let mut out = Vec::with_capacity(num_rows);
    for i in 0..num_rows {
        let mut chosen = None;
        for (cond, val) in branches {
            if cond.value(i).as_bool() == Some(true) {
                chosen = Some(val.value(i));
                break;
            }
        }
        out.push(chosen.unwrap_or_else(|| otherwise.value(i)));
    }
    let bytes: u64 = branches
        .iter()
        .map(|(c, v)| c.byte_size() + v.byte_size())
        .sum::<u64>()
        + otherwise.byte_size();
    ctx.charge_named(
        "unary.case_when",
        &WorkProfile::scan(bytes)
            .with_flops((num_rows * branches.len().max(1)) as u64)
            .with_rows(num_rows as u64),
    );
    Ok(Array::from_scalars(&out, out_type))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx;
    use sirius_columnar::scalar::parse_date32;

    #[test]
    fn not_and_null_predicates() {
        let ctx = test_ctx();
        let b = Array::from_scalars(
            &[Scalar::Bool(true), Scalar::Null, Scalar::Bool(false)],
            DataType::Bool,
        );
        let not = unary_op(&ctx, UnOp::Not, &Datum::Column(&b), 3).unwrap();
        assert_eq!(not.scalar(0), Scalar::Bool(false));
        assert_eq!(not.scalar(1), Scalar::Null);
        let isn = unary_op(&ctx, UnOp::IsNull, &Datum::Column(&b), 3).unwrap();
        assert_eq!(isn.scalar(1), Scalar::Bool(true));
        assert_eq!(isn.scalar(0), Scalar::Bool(false));
        let notn = unary_op(&ctx, UnOp::IsNotNull, &Datum::Column(&b), 3).unwrap();
        assert_eq!(notn.scalar(1), Scalar::Bool(false));
    }

    #[test]
    fn neg_promotes_i32() {
        let ctx = test_ctx();
        let a = Array::from_i32([5]);
        let r = unary_op(&ctx, UnOp::Neg, &Datum::Column(&a), 1).unwrap();
        assert_eq!(r.data_type(), DataType::Int64);
        assert_eq!(r.i64_value(0), Some(-5));
    }

    #[test]
    fn extract_year() {
        let ctx = test_ctx();
        let d = Array::from_date32([
            parse_date32("1994-03-15").unwrap(),
            parse_date32("1998-12-31").unwrap(),
        ]);
        let r = unary_op(&ctx, UnOp::ExtractYear, &Datum::Column(&d), 2).unwrap();
        assert_eq!(r.i64_value(0), Some(1994));
        assert_eq!(r.i64_value(1), Some(1998));
    }

    #[test]
    fn cast_kernel() {
        let ctx = test_ctx();
        let a = Array::from_i32([1, 2]);
        let r = cast(&ctx, &Datum::Column(&a), DataType::Float64, 2).unwrap();
        assert_eq!(r.f64_value(1), Some(2.0));
        let bad = cast(
            &ctx,
            &Datum::Column(&Array::from_strs(["x"])),
            DataType::Int64,
            1,
        );
        assert!(bad.is_err());
    }

    #[test]
    fn substring_is_one_based() {
        let ctx = test_ctx();
        // Q22: substring(c_phone from 1 for 2) — country code prefix.
        let s = Array::from_strs(["13-702-6818-9125", "31-102"]);
        let r = substring(&ctx, &Datum::Column(&s), 1, 2, 2).unwrap();
        assert_eq!(r.utf8_value(0), Some("13"));
        assert_eq!(r.utf8_value(1), Some("31"));
    }

    #[test]
    fn case_when_first_match_wins() {
        let ctx = test_ctx();
        let c1 = Array::from_bool([true, false, false]);
        let c2 = Array::from_bool([true, true, false]);
        let v1 = Datum::Scalar(Scalar::Int64(1));
        let v2 = Datum::Scalar(Scalar::Int64(2));
        let r = case_when(
            &ctx,
            &[(Datum::Column(&c1), v1), (Datum::Column(&c2), v2)],
            &Datum::Scalar(Scalar::Int64(0)),
            DataType::Int64,
            3,
        )
        .unwrap();
        assert_eq!(r.i64_value(0), Some(1));
        assert_eq!(r.i64_value(1), Some(2));
        assert_eq!(r.i64_value(2), Some(0));
    }

    #[test]
    fn case_default_null() {
        let ctx = test_ctx();
        let c = Array::from_bool([false]);
        let r = case_when(
            &ctx,
            &[(Datum::Column(&c), Datum::Scalar(Scalar::Int64(1)))],
            &Datum::Scalar(Scalar::Null),
            DataType::Int64,
            1,
        )
        .unwrap();
        assert_eq!(r.scalar(0), Scalar::Null);
    }
}
