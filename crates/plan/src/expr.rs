//! Scalar expression trees with ordinal column references.

use crate::{PlanError, Result};
use serde::{Deserialize, Serialize};
use sirius_columnar::{DataType, Scalar, Schema};

/// Binary operators (evaluated by each engine's kernel library).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// True for comparison operators.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum UnOp {
    Not,
    Neg,
    IsNull,
    IsNotNull,
    ExtractYear,
}

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
                let t = binop_result(*op, lt, rt)
                    .ok_or_else(|| PlanError::TypeError(format!("{op:?} on ({lt}, {rt})")))?;
                (t, ln || rn)
            }
            Expr::Unary { op, input: e } => {
                let (t, nullable) = e.typed(input)?;
                match op {
                    UnOp::IsNull | UnOp::IsNotNull => (DataType::Bool, false),
                    UnOp::Not => (DataType::Bool, nullable),
                    UnOp::ExtractYear => (DataType::Int64, nullable),
                    UnOp::Neg => match t {
                        DataType::Float64 => (DataType::Float64, nullable),
                        DataType::Int32 | DataType::Int64 => (DataType::Int64, nullable),
                        other => return Err(PlanError::TypeError(format!("Neg on {other}"))),
                    },
                }
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

/// Whether `=`/`<`/`IN` and equi-join keys may compare the two types.
pub(crate) fn comparable(l: DataType, r: DataType) -> bool {
    l == r || (l.is_numeric() && r.is_numeric())
}

fn binop_result(op: BinOp, l: DataType, r: DataType) -> Option<DataType> {
    use DataType::*;
    if op.is_comparison() {
        return comparable(l, r).then_some(Bool);
    }
    match op {
        BinOp::And | BinOp::Or => (l == Bool && r == Bool).then_some(Bool),
        BinOp::Div => (l.is_numeric() && r.is_numeric()).then_some(Float64),
        BinOp::Mod => matches!((l, r), (Int32 | Int64, Int32 | Int64)).then_some(Int64),
        _ => match (l, r) {
            (Float64, x) | (x, Float64) if x.is_numeric() => Some(Float64),
            (Int32 | Int64, Int32 | Int64) => Some(Int64),
            (Date32, Int32 | Int64) if matches!(op, BinOp::Add | BinOp::Sub) => Some(Date32),
            (Date32, Date32) if op == BinOp::Sub => Some(Int64),
            _ => None,
        },
    }
}

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum AggFunc {
    CountStar,
    Count,
    CountDistinct,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    /// Output type given the input expression type.
    pub fn result_type(&self, input: Option<DataType>) -> Result<DataType> {
        Ok(match self {
            AggFunc::CountStar | AggFunc::Count | AggFunc::CountDistinct => DataType::Int64,
            AggFunc::Avg => DataType::Float64,
            AggFunc::Sum => match input {
                Some(DataType::Float64) => DataType::Float64,
                Some(DataType::Int32 | DataType::Int64) => DataType::Int64,
                other => return Err(PlanError::TypeError(format!("SUM over {other:?}"))),
            },
            AggFunc::Min | AggFunc::Max => {
                input.ok_or_else(|| PlanError::TypeError("MIN/MAX need an argument".into()))?
            }
        })
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
        assert_eq!(
            AggFunc::Sum.result_type(Some(DataType::Int32)).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            AggFunc::Avg.result_type(Some(DataType::Int64)).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            AggFunc::CountStar.result_type(None).unwrap(),
            DataType::Int64
        );
        assert!(AggFunc::Sum.result_type(Some(DataType::Utf8)).is_err());
    }
}
