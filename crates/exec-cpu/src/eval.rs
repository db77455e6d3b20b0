//! CPU expression evaluator: `Expr` × input table → column.
//!
//! An independent implementation from the GPU kernel path (`sirius-cudf`);
//! the two are cross-validated by the integration suite.

use crate::{ExecError, Result};
use sirius_columnar::scalar::date32_year;
#[cfg(test)]
use sirius_columnar::DataType;
use sirius_columnar::{Array, Scalar, Table};
use sirius_plan::{BinOp, Expr, UnOp};

/// Evaluate an expression over every row of `input`.
pub fn evaluate(expr: &Expr, input: &Table) -> Result<Array> {
    let n = input.num_rows();
    let out_type = expr.data_type(input.schema()).map_err(ExecError::Plan)?;
    // Fast path: bare column reference is zero-copy.
    if let Expr::Column(i) = expr {
        return Ok(input.column(*i).clone());
    }
    let mut out = Vec::with_capacity(n);
    for row in 0..n {
        out.push(eval_row(expr, input, row)?);
    }
    Ok(Array::from_scalars(&out, out_type))
}

/// Evaluate an expression at a single row (used for residual join predicates
/// over candidate pairs as well).
pub fn eval_row(expr: &Expr, input: &Table, row: usize) -> Result<Scalar> {
    Ok(match expr {
        Expr::Column(i) => input.column(*i).scalar(row),
        Expr::Literal(s) => s.clone(),
        Expr::Binary { op, left, right } => {
            let l = eval_row(left, input, row)?;
            let r = eval_row(right, input, row)?;
            eval_binop(*op, &l, &r)?
        }
        Expr::Unary { op, input: e } => {
            let v = eval_row(e, input, row)?;
            match op {
                UnOp::IsNull => Scalar::Bool(v.is_null()),
                UnOp::IsNotNull => Scalar::Bool(!v.is_null()),
                _ if v.is_null() => Scalar::Null,
                UnOp::Not => Scalar::Bool(
                    !v.as_bool()
                        .ok_or_else(|| ExecError::Eval("NOT on non-bool".into()))?,
                ),
                UnOp::Neg => match v {
                    Scalar::Float64(f) => Scalar::Float64(-f),
                    other => Scalar::Int64(
                        -other
                            .as_i64()
                            .ok_or_else(|| ExecError::Eval("Neg on non-numeric".into()))?,
                    ),
                },
                UnOp::ExtractYear => match v {
                    Scalar::Date32(d) => Scalar::Int64(date32_year(d) as i64),
                    other => return Err(ExecError::Eval(format!("EXTRACT(YEAR) on {other:?}"))),
                },
            }
        }
        Expr::Cast { input: e, to } => {
            let v = eval_row(e, input, row)?;
            v.cast(*to)
                .ok_or_else(|| ExecError::Eval(format!("cast {v:?} to {to}")))?
        }
        Expr::Like {
            input: e,
            pattern,
            negated,
        } => {
            let v = eval_row(e, input, row)?;
            match v.as_str() {
                Some(s) => Scalar::Bool(like_match(s, pattern) != *negated),
                None => Scalar::Null,
            }
        }
        Expr::InList {
            input: e,
            list,
            negated,
        } => {
            let v = eval_row(e, input, row)?;
            if v.is_null() {
                Scalar::Null
            } else {
                Scalar::Bool(list.contains(&v) != *negated)
            }
        }
        Expr::Case {
            branches,
            otherwise,
        } => {
            let mut chosen = None;
            for (c, v) in branches {
                if eval_row(c, input, row)?.as_bool() == Some(true) {
                    chosen = Some(eval_row(v, input, row)?);
                    break;
                }
            }
            match (chosen, otherwise) {
                (Some(v), _) => v,
                (None, Some(o)) => eval_row(o, input, row)?,
                (None, None) => Scalar::Null,
            }
        }
        Expr::Substring {
            input: e,
            start,
            len,
        } => {
            let v = eval_row(e, input, row)?;
            match v.as_str() {
                Some(s) => {
                    Scalar::Utf8(s.chars().skip(start.saturating_sub(1)).take(*len).collect())
                }
                None => Scalar::Null,
            }
        }
    })
}

fn eval_binop(op: BinOp, l: &Scalar, r: &Scalar) -> Result<Scalar> {
    use BinOp::*;
    // Kleene logic is null-aware; every other operator yields NULL on a
    // NULL operand.
    if !op.is_logical() && (l.is_null() || r.is_null()) {
        return Ok(Scalar::Null);
    }
    let eval = |m: &str| ExecError::Eval(m.into());
    Ok(match op {
        And => match (l.as_bool(), r.as_bool()) {
            (Some(false), _) | (_, Some(false)) => Scalar::Bool(false),
            (Some(true), Some(true)) => Scalar::Bool(true),
            _ => Scalar::Null,
        },
        Or => match (l.as_bool(), r.as_bool()) {
            (Some(true), _) | (_, Some(true)) => Scalar::Bool(true),
            (Some(false), Some(false)) => Scalar::Bool(false),
            _ => Scalar::Null,
        },
        Eq => Scalar::Bool(l.cmp(r).is_eq()),
        Ne => Scalar::Bool(l.cmp(r).is_ne()),
        Lt => Scalar::Bool(l.cmp(r).is_lt()),
        Le => Scalar::Bool(l.cmp(r).is_le()),
        Gt => Scalar::Bool(l.cmp(r).is_gt()),
        Ge => Scalar::Bool(l.cmp(r).is_ge()),
        Div => {
            let a = l.as_f64().ok_or_else(|| eval("div non-numeric"))?;
            let b = r.as_f64().ok_or_else(|| eval("div non-numeric"))?;
            if b == 0.0 {
                Scalar::Null
            } else {
                Scalar::Float64(a / b)
            }
        }
        Mod => {
            let a = l.as_i64().ok_or_else(|| eval("mod non-int"))?;
            let b = r.as_i64().ok_or_else(|| eval("mod non-int"))?;
            if b == 0 {
                Scalar::Null
            } else {
                Scalar::Int64(a % b)
            }
        }
        Add => arith(
            l,
            r,
            Some(|d, days| d + days),
            |a, b| a + b,
            i64::wrapping_add,
        )?,
        Sub => arith(
            l,
            r,
            Some(|d, days| d - days),
            |a, b| a - b,
            i64::wrapping_sub,
        )?,
        Mul => arith(l, r, None, |a, b| a * b, i64::wrapping_mul)?,
    })
}

/// `+`, `-` or `*` over non-NULL operands: a date shifts by whole days
/// through `date` (`None`: the operator has no date form), a float operand
/// makes the result a float, and integers wrap.
fn arith(
    l: &Scalar,
    r: &Scalar,
    date: Option<fn(i32, i32) -> i32>,
    float: impl Fn(f64, f64) -> f64,
    int: impl Fn(i64, i64) -> i64,
) -> Result<Scalar> {
    let eval = |m: &str| ExecError::Eval(m.into());
    if let (Scalar::Date32(d), Some(days)) = (l, r.as_i64()) {
        let shift = date.ok_or_else(|| eval("date mul"))?;
        return Ok(Scalar::Date32(shift(*d, days as i32)));
    }
    Ok(match (l, r) {
        (Scalar::Float64(_), _) | (_, Scalar::Float64(_)) => {
            let a = l.as_f64().ok_or_else(|| eval("arith non-numeric"))?;
            let b = r.as_f64().ok_or_else(|| eval("arith non-numeric"))?;
            Scalar::Float64(float(a, b))
        }
        _ => {
            let a = l.as_i64().ok_or_else(|| eval("arith non-int"))?;
            let b = r.as_i64().ok_or_else(|| eval("arith non-int"))?;
            Scalar::Int64(int(a, b))
        }
    })
}

/// LIKE matcher (`%`/`_`), shared semantics with the GPU kernel.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s): (Option<usize>, usize) = (None, 0);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = Some(pi);
            star_s = si;
            pi += 1;
        } else if let Some(sp) = star_p {
            pi = sp + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{Field, Schema};
    use sirius_plan::expr::*;

    fn t() -> Table {
        Table::new(
            Schema::new(vec![
                Field::new("i", DataType::Int64),
                Field::new("f", DataType::Float64),
                Field::new("s", DataType::Utf8),
            ]),
            vec![
                Array::from_i64([1, 2, 3]),
                Array::from_f64([0.5, 1.5, 2.5]),
                Array::from_strs(["apple", "banana", "cherry"]),
            ],
        )
    }

    #[test]
    fn column_fast_path_is_zero_copy() {
        let table = t();
        let r = evaluate(&col(0), &table).unwrap();
        assert_eq!(r.i64_value(2), Some(3));
    }

    #[test]
    fn arithmetic_and_comparison() {
        let table = t();
        let r = evaluate(&mul(col(0), col(1)), &table).unwrap();
        assert_eq!(r.f64_value(1), Some(3.0));
        let c = evaluate(&ge(col(0), lit_i64(2)), &table).unwrap();
        assert_eq!(c.scalar(0), Scalar::Bool(false));
        assert_eq!(c.scalar(2), Scalar::Bool(true));
    }

    #[test]
    fn like_and_in_list() {
        let table = t();
        let l = evaluate(
            &Expr::Like {
                input: Box::new(col(2)),
                pattern: "%an%".into(),
                negated: false,
            },
            &table,
        )
        .unwrap();
        assert_eq!(l.scalar(1), Scalar::Bool(true));
        assert_eq!(l.scalar(0), Scalar::Bool(false));
        let i = evaluate(
            &Expr::InList {
                input: Box::new(col(2)),
                list: vec![Scalar::Utf8("apple".into())],
                negated: true,
            },
            &table,
        )
        .unwrap();
        assert_eq!(i.scalar(0), Scalar::Bool(false));
        assert_eq!(i.scalar(1), Scalar::Bool(true));
    }

    #[test]
    fn case_expression() {
        let table = t();
        let e = Expr::Case {
            branches: vec![(gt(col(0), lit_i64(2)), lit_str("big"))],
            otherwise: Some(Box::new(lit_str("small"))),
        };
        let r = evaluate(&e, &table).unwrap();
        assert_eq!(r.utf8_value(0), Some("small"));
        assert_eq!(r.utf8_value(2), Some("big"));
    }

    #[test]
    fn division_by_zero_is_null() {
        let table = t();
        let r = evaluate(
            &Expr::Binary {
                op: BinOp::Div,
                left: Box::new(col(0)),
                right: Box::new(lit_i64(0)),
            },
            &table,
        )
        .unwrap();
        assert_eq!(r.scalar(0), Scalar::Null);
    }

    #[test]
    fn date_plus_days() {
        let table = Table::new(
            Schema::new(vec![Field::new("d", DataType::Date32)]),
            vec![Array::from_date32([100])],
        );
        let r = evaluate(&add(col(0), lit_i64(30)), &table).unwrap();
        assert_eq!(r.data_type(), DataType::Date32);
        assert_eq!(r.i64_value(0), Some(130));
    }

    #[test]
    fn substring_eval() {
        let table = t();
        let r = evaluate(
            &Expr::Substring {
                input: Box::new(col(2)),
                start: 2,
                len: 3,
            },
            &table,
        )
        .unwrap();
        assert_eq!(r.utf8_value(0), Some("ppl"));
    }
}
