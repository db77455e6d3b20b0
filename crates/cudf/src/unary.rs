//! Element-wise unary kernels, casts, string functions, and CASE. The
//! unary operators are the plan's own [`UnOp`]s, typed by the rule plan
//! validation applies. Like the binary kernels, each reads its operands in
//! place through typed lanes and writes its output buffers directly.

use crate::binary::{
    check_rows, float_lane, int_lane, map, truth, with_values, Datum, Lane, LaneType, StrLane,
    Values,
};
use crate::{GpuContext, KernelError, Result};
use sirius_columnar::ops::UnOp;
use sirius_columnar::scalar::date32_year;
use sirius_columnar::{Array, Bitmap, BoolArray, DataType, PrimitiveArray, Scalar, StringArray};
use sirius_hw::WorkProfile;

/// Element-wise unary kernel, typed by [`UnOp::result_type`].
pub fn unary_op(ctx: &GpuContext, op: UnOp, input: &Datum<'_>, num_rows: usize) -> Result<Array> {
    let in_type = input.data_type();
    let out_type = (op.result_type(in_type))
        .ok_or_else(|| KernelError::UnsupportedTypes(format!("{op:?} on {in_type:?}")))?;
    check_rows(input, num_rows)?;
    let n = num_rows;
    let out = match (op, input) {
        (UnOp::IsNull | UnOp::IsNotNull, _) => {
            let valid = input.validity(n).unwrap_or_else(|| Bitmap::all_set(n));
            let values = if op == UnOp::IsNull {
                valid.not()
            } else {
                valid
            };
            Array::Bool(BoolArray::from_parts(values, None))
        }
        (UnOp::Not, Datum::Column(Array::Bool(a))) => Array::Bool(BoolArray::from_parts(
            a.values().not(),
            a.validity().cloned(),
        )),
        (UnOp::Not, Datum::Scalar(Scalar::Bool(b))) => {
            Array::from_scalar(&Scalar::Bool(!b), DataType::Bool, n)
        }
        (UnOp::Neg, _) if out_type == DataType::Float64 => {
            let lane = float_lane(input);
            Array::Float64(PrimitiveArray::from_parts(
                map(&lane, n, |v: f64| -v),
                lane.valid(n),
            ))
        }
        (UnOp::Neg, _) => {
            let lane = int_lane(input);
            Array::Int64(PrimitiveArray::from_parts(
                map(&lane, n, i64::wrapping_neg),
                lane.valid(n),
            ))
        }
        (UnOp::ExtractYear, Datum::Column(Array::Date32(a))) => {
            Array::Int64(PrimitiveArray::from_parts(
                a.values().iter().map(|&d| date32_year(d) as i64).collect(),
                a.validity().cloned(),
            ))
        }
        (UnOp::ExtractYear, Datum::Scalar(Scalar::Date32(d))) => {
            Array::from_scalar(&Scalar::Int64(date32_year(*d) as i64), out_type, n)
        }
        // A NULL operand: `NOT NULL`, `EXTRACT(YEAR FROM NULL)`.
        _ => Array::from_scalar(&Scalar::Null, out_type, n),
    };
    ctx.charge(
        "unary.op",
        &WorkProfile::scan(input.byte_size())
            .with_flops(num_rows as u64)
            .with_rows(num_rows as u64),
    );
    Ok(out)
}

/// Cast kernel, following `Scalar::cast`'s table. An unsupported cast, or an
/// `Int64` value out of `Int32`'s range, fails on the first non-NULL row it
/// meets.
pub fn cast(ctx: &GpuContext, input: &Datum<'_>, to: DataType, num_rows: usize) -> Result<Array> {
    check_rows(input, num_rows)?;
    let out = match input {
        Datum::Column(a) => cast_column(a, to),
        Datum::Scalar(_) if num_rows == 0 => Ok(Array::from_scalar(&Scalar::Null, to, 0)),
        Datum::Scalar(s) => s
            .cast(to)
            .map(|c| Array::from_scalar(&c, to, num_rows))
            .ok_or_else(|| s.clone()),
    };
    let out = out.map_err(|v| KernelError::UnsupportedTypes(format!("cast {v:?} to {to}")))?;
    ctx.charge(
        "unary.cast",
        &WorkProfile::scan(input.byte_size())
            .with_flops(num_rows as u64)
            .with_rows(num_rows as u64),
    );
    Ok(out)
}

/// `a` cast to `to`, or the first non-NULL value that does not cast. A cast
/// to the column's own type shares its buffers (a dictionary decodes).
fn cast_column(a: &Array, to: DataType) -> std::result::Result<Array, Scalar> {
    fn convert<S: Copy, T: Copy + Default>(
        a: &PrimitiveArray<S>,
        f: impl Fn(S) -> T,
    ) -> PrimitiveArray<T> {
        let values = a.values().iter().map(|&v| f(v)).collect();
        PrimitiveArray::from_parts(values, a.validity().cloned())
    }
    Ok(match (a, to) {
        (Array::Dict(d), DataType::Utf8) => Array::Utf8(d.decode()),
        (a, to) if a.data_type() == to => a.clone(),
        (Array::Int32(a), DataType::Int64) | (Array::Date32(a), DataType::Int64) => {
            Array::Int64(convert(a, i64::from))
        }
        (Array::Int32(a), DataType::Float64) => Array::Float64(convert(a, f64::from)),
        (Array::Int32(a), DataType::Date32) => Array::Date32(a.clone()),
        (Array::Date32(a), DataType::Int32) => Array::Int32(a.clone()),
        (Array::Int64(a), DataType::Float64) => Array::Float64(convert(a, |v| v as f64)),
        (Array::Int64(a), DataType::Int32) => {
            match a.iter().flatten().find(|&v| i32::try_from(v).is_err()) {
                Some(v) => return Err(Scalar::Int64(v)),
                None => Array::Int32(convert(a, |v| v as i32)),
            }
        }
        (Array::Float64(a), DataType::Int64) => Array::Int64(convert(a, |v| v as i64)),
        _ => match (0..a.len()).find(|&i| a.is_valid(i)) {
            Some(i) => return Err(a.scalar(i)),
            None => Array::from_scalar(&Scalar::Null, to, a.len()),
        },
    })
}

/// Characters `[skip, skip + take)` of `s`.
fn char_range(s: &str, skip: usize, take: usize) -> &str {
    let start = s.char_indices().nth(skip).map_or(s.len(), |(i, _)| i);
    let rest = s.get(start..).unwrap_or_default();
    let end = rest.char_indices().nth(take).map_or(rest.len(), |(i, _)| i);
    rest.get(..end).unwrap_or_default()
}

/// SQL `SUBSTRING(s FROM start FOR len)` with 1-based `start`, by character.
/// A dictionary column cuts each dictionary entry once.
pub fn substring(
    ctx: &GpuContext,
    input: &Datum<'_>,
    start: usize,
    len: usize,
    num_rows: usize,
) -> Result<Array> {
    check_rows(input, num_rows)?;
    let skip = start.saturating_sub(1);
    let out = match StrLane::of(input) {
        StrLane::Plain(a) => {
            StringArray::from_options(a.iter().map(|v| v.map(|s| char_range(s, skip, len))))
        }
        StrLane::Dict(d) => {
            let cuts: Vec<&str> = (d.values().iter())
                .map(|v| v.map_or("", |s| char_range(s, skip, len)))
                .collect();
            let row = |i| d.code(i).and_then(|c| cuts.get(c as usize).copied());
            StringArray::from_options((0..d.len()).map(row))
        }
        StrLane::Const(c) => {
            let cut = c.map(|s| char_range(s, skip, len));
            StringArray::from_options(std::iter::repeat_n(cut, num_rows))
        }
    };
    ctx.charge(
        "unary.substring",
        &WorkProfile::scan(input.byte_size())
            .with_flops(num_rows as u64)
            .with_rows(num_rows as u64),
    );
    Ok(Array::Utf8(out))
}

/// CASE kernel: `branches` are `(condition, value)` pairs evaluated in
/// order; `otherwise` supplies the default (NULL literal if absent). Each
/// value is read in the lane of `out_type`, as `Array::from_scalars` would
/// convert it.
pub fn case_when(
    ctx: &GpuContext,
    branches: &[(Datum<'_>, Datum<'_>)],
    otherwise: &Datum<'_>,
    out_type: DataType,
    num_rows: usize,
) -> Result<Array> {
    let n = num_rows;
    check_rows(otherwise, n)?;
    // The rows each value supplies: a branch's where its condition is the
    // first one true, `otherwise`'s where none is.
    let mut rest = Bitmap::all_set(n);
    let mut picks = Vec::with_capacity(branches.len() + 1);
    for (cond, value) in branches {
        check_rows(cond, n)?;
        check_rows(value, n)?;
        let rows = truth(cond, n).0.and(&rest);
        rest = rest.and(&rows.not());
        picks.push((value, rows));
    }
    picks.push((otherwise, rest));
    let out = match out_type {
        DataType::Bool => {
            let (mut values, mut valid) = (Bitmap::all_clear(n), Bitmap::all_clear(n));
            for (value, rows) in &picks {
                let (t, f) = truth(value, n);
                values = values.or(&rows.and(&t));
                valid = valid.or(&rows.and(&t.or(&f)));
            }
            Array::Bool(BoolArray::from_parts(values, Some(valid)))
        }
        DataType::Utf8 => {
            let mut source = vec![0; n];
            for (k, (_, rows)) in picks.iter().enumerate() {
                rows.set_indices().into_iter().for_each(|i| source[i] = k);
            }
            let lanes: Vec<StrLane<'_>> = picks.iter().map(|(v, _)| StrLane::of(v)).collect();
            let row = |i: usize| lanes.get(source[i]).and_then(|lane| lane.get(i));
            Array::Utf8(StringArray::from_options((0..n).map(row)))
        }
        DataType::Float64 => Array::Float64(pick(&picks, n, float_lane, |v| v)),
        DataType::Int64 => Array::Int64(pick(&picks, n, int_lane, |v| v)),
        DataType::Int32 => Array::Int32(pick(&picks, n, int_lane, |v| v as i32)),
        DataType::Date32 => Array::Date32(pick(&picks, n, int_lane, |v| v as i32)),
    };
    let bytes: u64 = branches
        .iter()
        .map(|(c, v)| c.byte_size() + v.byte_size())
        .sum::<u64>()
        + otherwise.byte_size();
    ctx.charge(
        "unary.case_when",
        &WorkProfile::scan(bytes)
            .with_flops((num_rows * branches.len().max(1)) as u64)
            .with_rows(num_rows as u64),
    );
    Ok(out)
}

/// CASE's numeric output: each value read in the lane `lane` builds, at the
/// rows it supplies, and narrowed by `narrow`.
fn pick<'a, L: LaneType, T: Copy + Default>(
    picks: &[(&Datum<'a>, Bitmap)],
    n: usize,
    lane: impl Fn(&Datum<'a>) -> Lane<'a, L>,
    narrow: impl Fn(L) -> T,
) -> PrimitiveArray<T> {
    let (mut values, mut valid) = (vec![T::default(); n], Bitmap::all_clear(n));
    for (value, rows) in picks {
        let lane = lane(value);
        let supplied = rows.set_indices();
        match &lane {
            Lane::Col(v, _) => with_values!(*v, |v| supplied
                .iter()
                .for_each(|&i| values[i] = narrow(L::of(v[i])))),
            Lane::Const(c) => {
                let c = narrow(c.unwrap_or_default());
                supplied.iter().for_each(|&i| values[i] = c);
            }
        }
        let live = lane.valid(n).map_or_else(|| rows.clone(), |v| v.and(rows));
        valid = valid.or(&live);
    }
    PrimitiveArray::from_parts(values, Some(valid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, datum, same_launch, Gen, Kind, KINDS, ROWS};
    use crate::test_ctx;
    use proptest::prelude::*;
    use sirius_columnar::scalar::parse_date32;

    const TYPES: [DataType; 6] = [
        DataType::Bool,
        DataType::Int32,
        DataType::Int64,
        DataType::Float64,
        DataType::Date32,
        DataType::Utf8,
    ];

    // Each property runs the typed kernel and its per-row `Scalar` reference
    // on the same operands — every column kind, each a column with or
    // without NULLs, a broadcast scalar or a NULL literal — and compares
    // values, `byte_size()`, validity presence, errors and the charged
    // device time.
    proptest! {
        #[test]
        fn prop_unary_op_matches_the_scalar_reference(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let rows = g.pick(&ROWS);
            let ops = [UnOp::Not, UnOp::Neg, UnOp::IsNull, UnOp::IsNotNull, UnOp::ExtractYear];
            for op in ops {
                for kind in KINDS {
                    let input = g.operand(kind, rows);
                    same_launch(
                        |ctx| unary_op(ctx, op, &datum(&input), rows),
                        |ctx| reference::unary_op(ctx, op, &datum(&input), rows),
                    )?;
                }
            }
        }

        #[test]
        fn prop_cast_matches_the_scalar_reference(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let rows = g.pick(&ROWS);
            for kind in KINDS {
                for to in TYPES {
                    let input = g.operand(kind, rows);
                    same_launch(
                        |ctx| cast(ctx, &datum(&input), to, rows),
                        |ctx| reference::cast(ctx, &datum(&input), to, rows),
                    )?;
                }
            }
        }

        #[test]
        fn prop_substring_matches_the_scalar_reference(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let rows = g.pick(&ROWS);
            for kind in [Kind::Utf8, Kind::Dict, Kind::Int64] {
                let input = g.operand(kind, rows);
                let (start, len) = (g.pick(&[0, 1, 2, 4, 30]), g.pick(&[0, 1, 3, 100]));
                same_launch(
                    |ctx| substring(ctx, &datum(&input), start, len, rows),
                    |ctx| reference::substring(ctx, &datum(&input), start, len, rows),
                )?;
            }
        }

        /// Up to three branches into every output type: conditions mostly
        /// boolean, values mostly of the output's kind.
        #[test]
        fn prop_case_when_matches_the_scalar_reference(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let rows = g.pick(&ROWS);
            for out_type in TYPES {
                let own = KINDS[TYPES.iter().position(|&t| t == out_type).unwrap()];
                let kind = |g: &mut Gen, usual| if g.below(4) == 0 { g.pick(&KINDS) } else { usual };
                let branches: Vec<_> = (0..g.below(4))
                    .map(|_| {
                        let (c, v) = (kind(&mut g, Kind::Bool), kind(&mut g, own));
                        (g.operand(c, rows), g.operand(v, rows))
                    })
                    .collect();
                let otherwise = { let k = kind(&mut g, own); g.operand(k, rows) };
                let pairs: Vec<_> = branches.iter().map(|(c, v)| (datum(c), datum(v))).collect();
                same_launch(
                    |ctx| case_when(ctx, &pairs, &datum(&otherwise), out_type, rows),
                    |ctx| reference::case_when(ctx, &pairs, &datum(&otherwise), out_type, rows),
                )?;
            }
        }
    }

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
