//! Scalar expression trees with ordinal column references.

use crate::{PlanError, Result};
use serde::{Deserialize, Serialize};
use sirius_columnar::ops::comparable;
use sirius_columnar::{DataType, Scalar, Schema};

pub use sirius_columnar::ops::{AggFunc, BinOp, UnOp};

/// A scalar expression over an input relation's columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Input column by ordinal (Substrait field reference).
    Column(usize),
    /// Constant.
    Literal(Scalar),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        input: Box<Expr>,
    },
    /// Type cast.
    Cast {
        /// Operand.
        input: Box<Expr>,
        /// Target type.
        to: DataType,
    },
    /// SQL LIKE.
    Like {
        /// String operand.
        input: Box<Expr>,
        /// Pattern with `%`/`_` wildcards.
        pattern: String,
        /// NOT LIKE when true.
        negated: bool,
    },
    /// Membership in a literal list.
    InList {
        /// Tested operand.
        input: Box<Expr>,
        /// Literal candidates.
        list: Vec<Scalar>,
        /// NOT IN when true.
        negated: bool,
    },
    /// Searched CASE.
    Case {
        /// `(condition, value)` branches, first match wins.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` value (NULL if absent).
        otherwise: Option<Box<Expr>>,
    },
    /// `SUBSTRING(input FROM start FOR len)`, 1-based.
    Substring {
        /// String operand.
        input: Box<Expr>,
        /// 1-based start position.
        start: usize,
        /// Length in characters.
        len: usize,
    },
}

impl Expr {
    /// Inferred output type against `input` (the operand relation's schema).
    /// NULL literals type as `Bool` in isolation; engines special-case them.
    pub fn data_type(&self, input: &Schema) -> Result<DataType> {
        self.typed(input).map(|(data_type, _)| data_type)
    }

    /// Inferred output type and nullability (true when the expression may
    /// produce NULL) against `input`, in one walk that types **every**
    /// sub-expression: a column out of range anywhere — under a `Cast`, in
    /// a later `CASE` branch — is [`PlanError::ColumnOutOfRange`], a `LIKE`
    /// or `SUBSTRING` over a non-string, an `IN` list not comparable with
    /// its operand and a non-boolean `CASE` condition are type errors.
    pub fn typed(&self, input: &Schema) -> Result<(DataType, bool)> {
        Ok(match self {
            Expr::Column(i) => {
                let field = input.fields.get(*i).ok_or(PlanError::ColumnOutOfRange {
                    index: *i,
                    width: input.len(),
                })?;
                (field.data_type, field.nullable)
            }
            Expr::Literal(s) => (s.data_type().unwrap_or(DataType::Bool), s.is_null()),
            Expr::Binary { op, left, right } => {
                let ((lt, ln), (rt, rn)) = (left.typed(input)?, right.typed(input)?);
                let t = (op.result_type(lt, rt))
                    .ok_or_else(|| PlanError::TypeError(format!("{op:?} on ({lt}, {rt})")))?;
                (t, ln || rn)
            }
            Expr::Unary { op, input: e } => {
                let (t, nullable) = e.typed(input)?;
                // An untyped NULL operand types as the kernels take it.
                let operand = (!matches!(**e, Expr::Literal(Scalar::Null))).then_some(t);
                let out = (op.result_type(operand))
                    .ok_or_else(|| PlanError::TypeError(format!("{op:?} on {t}")))?;
                let null_test = matches!(op, UnOp::IsNull | UnOp::IsNotNull);
                (out, nullable && !null_test)
            }
            Expr::Cast { input: e, to } => (*to, e.typed(input)?.1),
            Expr::Like { input: e, .. } => (DataType::Bool, string_operand("LIKE", e, input)?),
            Expr::Substring { input: e, .. } => {
                (DataType::Utf8, string_operand("SUBSTRING", e, input)?)
            }
            Expr::InList { input: e, list, .. } => {
                let (t, nullable) = e.typed(input)?;
                let mut candidates = list.iter().filter_map(Scalar::data_type);
                if let Some(lt) = candidates.find(|lt| !comparable(t, *lt)) {
                    return Err(PlanError::TypeError(format!("IN list of {lt} on {t}")));
                }
                (DataType::Bool, nullable)
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                // First non-null-literal branch value fixes the type.
                let (mut data_type, mut nullable) = (None, otherwise.is_none());
                for (condition, value) in branches {
                    expect_bool("CASE condition", condition, input)?;
                    let (vt, vn) = value.typed(input)?;
                    if data_type.is_none() && !matches!(value, Expr::Literal(Scalar::Null)) {
                        data_type = Some(vt);
                    }
                    nullable |= vn;
                }
                if let Some(o) = otherwise {
                    let (ot, on) = o.typed(input)?;
                    data_type = data_type.or(Some(ot));
                    nullable |= on;
                }
                let data_type =
                    data_type.ok_or_else(|| PlanError::TypeError("untyped CASE".into()))?;
                (data_type, nullable)
            }
        })
    }

    /// Column ordinals referenced anywhere in this expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column(i) => out.push(*i),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Unary { input, .. }
            | Expr::Cast { input, .. }
            | Expr::Like { input, .. }
            | Expr::InList { input, .. }
            | Expr::Substring { input, .. } => input.referenced_columns(out),
            Expr::Case {
                branches,
                otherwise,
            } => {
                for (c, v) in branches {
                    c.referenced_columns(out);
                    v.referenced_columns(out);
                }
                if let Some(o) = otherwise {
                    o.referenced_columns(out);
                }
            }
        }
    }

    /// Rewrite every column ordinal through `f` (projection pushdown,
    /// fragment-boundary remapping).
    pub fn remap_columns(&self, f: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Column(i) => Expr::Column(f(*i)),
            Expr::Literal(s) => Expr::Literal(s.clone()),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.remap_columns(f)),
                right: Box::new(right.remap_columns(f)),
            },
            Expr::Unary { op, input } => Expr::Unary {
                op: *op,
                input: Box::new(input.remap_columns(f)),
            },
            Expr::Cast { input, to } => Expr::Cast {
                input: Box::new(input.remap_columns(f)),
                to: *to,
            },
            Expr::Like {
                input,
                pattern,
                negated,
            } => Expr::Like {
                input: Box::new(input.remap_columns(f)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::InList {
                input,
                list,
                negated,
            } => Expr::InList {
                input: Box::new(input.remap_columns(f)),
                list: list.clone(),
                negated: *negated,
            },
            Expr::Case {
                branches,
                otherwise,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.remap_columns(f), v.remap_columns(f)))
                    .collect(),
                otherwise: otherwise.as_ref().map(|o| Box::new(o.remap_columns(f))),
            },
            Expr::Substring { input, start, len } => Expr::Substring {
                input: Box::new(input.remap_columns(f)),
                start: *start,
                len: *len,
            },
        }
    }
}

/// `it` — a filter predicate, a join residual, a `CASE` condition — must
/// type as `Bool`.
pub(crate) fn expect_bool(it: &str, e: &Expr, input: &Schema) -> Result<()> {
    match e.data_type(input)? {
        DataType::Bool => Ok(()),
        t => Err(PlanError::TypeError(format!("{it} must be bool, got {t}"))),
    }
}

/// Nullability of a `LIKE` / `SUBSTRING` operand, which must be a string.
fn string_operand(what: &str, operand: &Expr, input: &Schema) -> Result<bool> {
    match operand.typed(input)? {
        (DataType::Utf8, nullable) => Ok(nullable),
        (other, _) => Err(PlanError::TypeError(format!("{what} on {other}"))),
    }
}

/// One aggregate in an `Aggregate` relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Argument expression (`None` only for `CountStar`).
    pub input: Option<Expr>,
    /// Output column name.
    pub name: String,
}

impl AggExpr {
    /// Output type against `input`, the aggregated relation's schema.
    pub(crate) fn data_type(&self, input: &Schema) -> Result<DataType> {
        let argument = self
            .input
            .as_ref()
            .map(|e| e.data_type(input))
            .transpose()?;
        let func = self.func;
        (func.result_type(argument))
            .ok_or_else(|| PlanError::TypeError(format!("{func:?} over {argument:?}")))
    }
}

/// One partial aggregate of a [`two_phase`] split: `func` over the argument
/// of original aggregate `source`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partial {
    /// The function every partition (morsel, spill chunk, cluster node) runs.
    pub func: AggFunc,
    /// Index of the original aggregate whose argument it reads.
    pub source: usize,
}

impl Partial {
    /// The function that merges this partial's column across partitions:
    /// `MIN` and `MAX` merge with themselves, sums and counts add up.
    pub fn merge(&self) -> AggFunc {
        match self.func {
            AggFunc::Min | AggFunc::Max => self.func,
            _ => AggFunc::Sum,
        }
    }
}

/// How one original aggregate is read off the merged partial columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Final {
    /// Merged partial column `i`, as it is.
    Merged(usize),
    /// `AVG`: the merged sum column divided by the merged count column.
    Avg {
        /// Partial column holding the sum.
        sum: usize,
        /// Partial column holding the non-NULL count.
        count: usize,
    },
}

/// The two-phase split of aggregates `funcs`: the partials every partition
/// computes, in partial-column order, and one [`Final`] per function. `AVG`
/// splits into `SUM` + `COUNT` of its argument; every other function is its
/// own partial. `None` when a function cannot split: `COUNT(DISTINCT)` would
/// have to ship whole distinct sets.
pub fn two_phase(funcs: impl IntoIterator<Item = AggFunc>) -> Option<(Vec<Partial>, Vec<Final>)> {
    let (mut partials, mut finals) = (Vec::new(), Vec::new());
    for (source, func) in funcs.into_iter().enumerate() {
        let at = partials.len();
        match func {
            AggFunc::CountDistinct => return None,
            AggFunc::Avg => {
                partials.push(Partial {
                    func: AggFunc::Sum,
                    source,
                });
                partials.push(Partial {
                    func: AggFunc::Count,
                    source,
                });
                finals.push(Final::Avg {
                    sum: at,
                    count: at + 1,
                });
            }
            func => {
                partials.push(Partial { func, source });
                finals.push(Final::Merged(at));
            }
        }
    }
    Some((partials, finals))
}

/// One sort key in a `Sort` relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SortExpr {
    /// Key expression.
    pub expr: Expr,
    /// Ascending order when true.
    pub ascending: bool,
}

// -- convenience constructors (used everywhere in tests and the binder) ------

/// Column reference.
pub fn col(i: usize) -> Expr {
    Expr::Column(i)
}

/// Literal.
pub fn lit(s: Scalar) -> Expr {
    Expr::Literal(s)
}

/// Integer literal.
pub fn lit_i64(v: i64) -> Expr {
    Expr::Literal(Scalar::Int64(v))
}

/// String literal.
pub fn lit_str(v: &str) -> Expr {
    Expr::Literal(Scalar::Utf8(v.to_string()))
}

fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
    Expr::Binary {
        op,
        left: Box::new(l),
        right: Box::new(r),
    }
}

/// `l = r`
pub fn eq(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Eq, l, r)
}
/// `l <> r`
pub fn ne(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Ne, l, r)
}
/// `l < r`
pub fn lt(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Lt, l, r)
}
/// `l <= r`
pub fn le(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Le, l, r)
}
/// `l > r`
pub fn gt(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Gt, l, r)
}
/// `l >= r`
pub fn ge(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Ge, l, r)
}
/// `l AND r`
pub fn and(l: Expr, r: Expr) -> Expr {
    bin(BinOp::And, l, r)
}
/// `l OR r`
pub fn or(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Or, l, r)
}
/// `l + r`
pub fn add(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Add, l, r)
}
/// `l - r`
pub fn sub(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Sub, l, r)
}
/// `l * r`
pub fn mul(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Mul, l, r)
}

/// Conjunction of all expressions (`TRUE` literal when empty).
pub fn and_all(exprs: impl IntoIterator<Item = Expr>) -> Expr {
    exprs
        .into_iter()
        .reduce(and)
        .unwrap_or(Expr::Literal(Scalar::Bool(true)))
}

/// Split a conjunction into its conjunct list.
pub fn split_conjunction(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } = e
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    walk(e, &mut out);
    out
}

/// Split a disjunction into its disjunct list.
pub fn split_disjunction(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } = e
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    walk(e, &mut out);
    out
}

/// Factor conjuncts common to every disjunct out of an OR:
/// `(a AND b) OR (a AND c)` ⇒ `a AND (b OR c)`. TPC-H Q19 hides its join
/// key this way; without factoring the planner would build a cross join.
/// Returns the input unchanged when there is nothing to factor.
pub fn factor_or_common(e: &Expr) -> Expr {
    let disjuncts = split_disjunction(e);
    if disjuncts.len() < 2 {
        return e.clone();
    }
    let branch_conjuncts: Vec<Vec<&Expr>> =
        disjuncts.iter().map(|d| split_conjunction(d)).collect();
    let common: Vec<Expr> = branch_conjuncts[0]
        .iter()
        .filter(|c| branch_conjuncts[1..].iter().all(|b| b.contains(c)))
        .map(|c| (*c).clone())
        .collect();
    if common.is_empty() {
        return e.clone();
    }
    // Rebuild each branch without the common conjuncts.
    let residual_branches: Vec<Expr> = branch_conjuncts
        .iter()
        .map(|b| {
            and_all(
                b.iter()
                    .filter(|c| !common.contains(c))
                    .map(|c| (*c).clone()),
            )
        })
        .collect();
    match residual_branches.into_iter().reduce(or) {
        Some(residual_or) => and(and_all(common), residual_or),
        None => e.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Float64),
            Field::new("c", DataType::Utf8),
            Field::new("d", DataType::Date32),
        ])
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(add(col(0), col(0)).data_type(&s).unwrap(), DataType::Int64);
        assert_eq!(
            mul(col(0), col(1)).data_type(&s).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            Expr::Binary {
                op: BinOp::Div,
                left: Box::new(col(0)),
                right: Box::new(col(0))
            }
            .data_type(&s)
            .unwrap(),
            DataType::Float64
        );
        assert_eq!(gt(col(3), col(3)).data_type(&s).unwrap(), DataType::Bool);
        assert!(add(col(2), col(0)).data_type(&s).is_err());
        assert!(matches!(
            col(9).data_type(&s),
            Err(PlanError::ColumnOutOfRange { index: 9, width: 4 })
        ));
    }

    #[test]
    fn case_typing_skips_null_branches() {
        let s = schema();
        let c = Expr::Case {
            branches: vec![
                (gt(col(0), lit_i64(0)), lit(Scalar::Null)),
                (gt(col(0), lit_i64(1)), lit_str("x")),
            ],
            otherwise: None,
        };
        assert_eq!(c.data_type(&s).unwrap(), DataType::Utf8);
    }

    #[test]
    fn operands_conditions_and_later_branches_are_typed() {
        let s = schema();
        let operand = |e: Expr| Box::new(e);
        let like = |input| Expr::Like {
            input,
            pattern: "%".into(),
            negated: false,
        };
        let case = |condition, value| Expr::Case {
            branches: vec![(gt(col(0), lit_i64(0)), lit_i64(1)), (condition, value)],
            otherwise: None,
        };
        let cast = Expr::Cast {
            input: operand(col(9)),
            to: DataType::Int64,
        };
        for hole in [
            cast,
            like(operand(col(9))),
            case(gt(col(9), lit_i64(0)), lit_i64(2)),
            case(gt(col(0), lit_i64(1)), col(9)),
        ] {
            let err = hole.typed(&s).unwrap_err();
            assert_eq!(err, PlanError::ColumnOutOfRange { index: 9, width: 4 });
        }
        assert!(matches!(
            like(operand(col(0))).typed(&s),
            Err(PlanError::TypeError(_))
        ));
        assert!(matches!(
            case(col(0), lit_i64(2)).typed(&s),
            Err(PlanError::TypeError(_))
        ));
        assert_eq!(like(operand(col(2))).typed(&s), Ok((DataType::Bool, false)));
    }

    #[test]
    fn referenced_and_remap() {
        let e = and(gt(col(2), lit_str("m")), eq(col(0), col(3)));
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 2, 3]);
        let shifted = e.remap_columns(&|i| i + 10);
        let mut cols2 = Vec::new();
        shifted.referenced_columns(&mut cols2);
        cols2.sort_unstable();
        assert_eq!(cols2, vec![10, 12, 13]);
    }

    #[test]
    fn conjunction_split_round_trip() {
        let e = and_all([
            gt(col(0), lit_i64(1)),
            lt(col(0), lit_i64(5)),
            eq(col(2), lit_str("x")),
        ]);
        let parts = split_conjunction(&e);
        assert_eq!(parts.len(), 3);
        let rebuilt = and_all(parts.into_iter().cloned());
        assert_eq!(rebuilt, e);
        assert_eq!(
            and_all(std::iter::empty::<Expr>()),
            Expr::Literal(Scalar::Bool(true))
        );
    }

    #[test]
    fn factor_or_common_hoists_shared_conjuncts() {
        // (k=1 AND a>2) OR (k=1 AND b<3)  =>  k=1 AND (a>2 OR b<3)
        let k = eq(col(0), lit_i64(1));
        let e = or(
            and(k.clone(), gt(col(1), lit_i64(2))),
            and(k.clone(), lt(col(2), lit_i64(3))),
        );
        let f = factor_or_common(&e);
        let conjuncts = split_conjunction(&f);
        assert_eq!(conjuncts.len(), 2);
        assert_eq!(conjuncts[0], &k);
        // Nothing common => unchanged.
        let g = or(gt(col(1), lit_i64(2)), lt(col(2), lit_i64(3)));
        assert_eq!(factor_or_common(&g), g);
        // Non-OR => unchanged.
        let h = gt(col(1), lit_i64(0));
        assert_eq!(factor_or_common(&h), h);
    }

    #[test]
    fn factor_or_three_branches() {
        let k = eq(col(0), col(3));
        let e = or(
            or(
                and(k.clone(), gt(col(1), lit_i64(1))),
                and(k.clone(), gt(col(1), lit_i64(2))),
            ),
            and(k.clone(), gt(col(1), lit_i64(3))),
        );
        let f = factor_or_common(&e);
        assert_eq!(split_conjunction(&f)[0], &k);
    }

    #[test]
    fn one_branch_or_is_returned_unchanged() {
        // A lone branch has every conjunct "in common" with itself; hoisting
        // them would leave `k=1 AND a>2 AND TRUE`.
        let branch = and(eq(col(0), lit_i64(1)), gt(col(1), lit_i64(2)));
        assert_eq!(factor_or_common(&branch), branch);
    }

    #[test]
    fn nullability() {
        let mut s = schema();
        s.fields[0].nullable = true;
        let nullable = |e: Expr| e.typed(&s).unwrap().1;
        assert!(nullable(col(0)));
        assert!(!nullable(col(1)));
        assert!(!nullable(Expr::Unary {
            op: UnOp::IsNull,
            input: Box::new(col(0))
        }));
        assert!(nullable(add(col(0), col(1))));
    }

    #[test]
    fn agg_result_types() {
        let s = schema();
        let agg = |func, input| AggExpr {
            func,
            input,
            name: "x".into(),
        };
        assert_eq!(
            agg(AggFunc::Sum, Some(col(0))).data_type(&s),
            Ok(DataType::Int64)
        );
        assert_eq!(
            agg(AggFunc::Avg, Some(col(0))).data_type(&s),
            Ok(DataType::Float64)
        );
        assert_eq!(
            agg(AggFunc::CountStar, None).data_type(&s),
            Ok(DataType::Int64)
        );
        assert_eq!(
            agg(AggFunc::Min, Some(col(3))).data_type(&s),
            Ok(DataType::Date32)
        );
        assert!(agg(AggFunc::Sum, Some(col(2))).data_type(&s).is_err());
        assert!(agg(AggFunc::Max, None).data_type(&s).is_err());
    }

    #[test]
    fn two_phase_splits_avg_and_refuses_count_distinct() {
        use AggFunc::*;
        let (partials, finals) = two_phase([Sum, Avg, Min, Max, Count, CountStar]).unwrap();
        let funcs: Vec<(AggFunc, usize)> = partials.iter().map(|p| (p.func, p.source)).collect();
        // AVG becomes SUM + COUNT, both reading the AVG's own argument.
        assert_eq!(
            funcs,
            [
                (Sum, 0),
                (Sum, 1),
                (Count, 1),
                (Min, 2),
                (Max, 3),
                (Count, 4),
                (CountStar, 5)
            ]
        );
        assert_eq!(
            finals,
            [
                Final::Merged(0),
                Final::Avg { sum: 1, count: 2 },
                Final::Merged(3),
                Final::Merged(4),
                Final::Merged(5),
                Final::Merged(6)
            ]
        );
        // MIN / MAX merge with themselves; sums and counts merge by SUM.
        let merges: Vec<AggFunc> = partials.iter().map(Partial::merge).collect();
        assert_eq!(merges, [Sum, Sum, Sum, Min, Max, Sum, Sum]);
        assert_eq!(two_phase([Sum, CountDistinct]), None);
        assert_eq!(two_phase([]), Some((vec![], vec![])));
    }
}
