//! Abstract syntax tree for the supported SQL dialect. Its binary operators
//! are the plan's own [`BinOp`]s.

pub use sirius_columnar::ops::BinOp;

/// A full query: optional CTEs, a SELECT body, ordering, and limit.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `WITH name AS (query)` items, in order (later CTEs may use earlier).
    pub ctes: Vec<(String, Query)>,
    /// The SELECT body.
    pub select: Select,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT n.
    pub limit: Option<usize>,
}

/// The SELECT body.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// SELECT DISTINCT.
    pub distinct: bool,
    /// Output items.
    pub items: Vec<SelectItem>,
    /// FROM items (comma-joined); each may carry explicit JOINs.
    pub from: Vec<FromItem>,
    /// WHERE predicate.
    pub where_clause: Option<ExprAst>,
    /// GROUP BY expressions.
    pub group_by: Vec<ExprAst>,
    /// HAVING predicate.
    pub having: Option<ExprAst>,
}

/// One SELECT output.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression.
    pub expr: ExprAst,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

/// A FROM item: a base relation possibly followed by explicit JOIN clauses.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    /// The leading relation.
    pub base: TableRef,
    /// Explicit `JOIN ... ON ...` chain applied to `base`.
    pub joins: Vec<ExplicitJoin>,
}

/// An explicit JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplicitJoin {
    /// Joined relation.
    pub relation: TableRef,
    /// Join kind.
    pub kind: AstJoinKind,
    /// ON condition.
    pub on: ExprAst,
}

/// Explicit join kinds supported by the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstJoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT \[OUTER\] JOIN.
    Left,
}

/// A base relation in FROM.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table (or CTE) with optional alias.
    Table {
        /// Table or CTE name.
        name: String,
        /// Alias (`nation n1`).
        alias: Option<String>,
    },
    /// Parenthesized subquery with mandatory alias.
    Derived {
        /// The subquery.
        query: Box<Query>,
        /// Alias.
        alias: String,
    },
}

impl TableRef {
    /// The name this relation binds in scope.
    pub fn binding_name(&self) -> &str {
        match self {
            TableRef::Table { name, alias } => alias.as_deref().unwrap_or(name),
            TableRef::Derived { alias, .. } => alias,
        }
    }
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Key expression (usually an output column or alias).
    pub expr: ExprAst,
    /// Ascending (default) or descending.
    pub ascending: bool,
}

/// Aggregate function names recognized by the binder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AstAggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// Date interval units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum IntervalUnit {
    Day,
    Month,
    Year,
}

/// Scalar expressions at the AST level.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprAst {
    /// Possibly-qualified identifier (`l_orderkey`, `n1.n_name`).
    Ident(Vec<String>),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `DATE 'yyyy-mm-dd'`.
    Date(String),
    /// `INTERVAL 'n' unit`.
    Interval {
        /// Count of units.
        value: i64,
        /// Unit.
        unit: IntervalUnit,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<ExprAst>,
        /// Right operand.
        right: Box<ExprAst>,
    },
    /// Logical NOT.
    Not(Box<ExprAst>),
    /// Unary minus.
    Neg(Box<ExprAst>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<ExprAst>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<ExprAst>,
        /// Lower bound (inclusive).
        low: Box<ExprAst>,
        /// Upper bound (inclusive).
        high: Box<ExprAst>,
        /// NOT BETWEEN when true.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'`.
    Like {
        /// Tested string expression.
        expr: Box<ExprAst>,
        /// Pattern literal.
        pattern: String,
        /// NOT LIKE when true.
        negated: bool,
    },
    /// `expr [NOT] IN (literal, ...)`.
    InList {
        /// Tested expression.
        expr: Box<ExprAst>,
        /// Literal list.
        list: Vec<ExprAst>,
        /// NOT IN when true.
        negated: bool,
    },
    /// `expr [NOT] IN (subquery)`.
    InSubquery {
        /// Tested expression.
        expr: Box<ExprAst>,
        /// The subquery.
        query: Box<Query>,
        /// NOT IN when true.
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// The subquery.
        query: Box<Query>,
        /// NOT EXISTS when true.
        negated: bool,
    },
    /// `(subquery)` used as a scalar value.
    ScalarSubquery(Box<Query>),
    /// Aggregate call.
    Agg {
        /// Function.
        func: AstAggFunc,
        /// Argument (`None` for `COUNT(*)`).
        arg: Option<Box<ExprAst>>,
        /// `DISTINCT` argument.
        distinct: bool,
    },
    /// Searched CASE.
    Case {
        /// `(WHEN cond, THEN value)` branches.
        branches: Vec<(ExprAst, ExprAst)>,
        /// ELSE value.
        otherwise: Option<Box<ExprAst>>,
    },
    /// `EXTRACT(YEAR FROM expr)`.
    ExtractYear(Box<ExprAst>),
    /// `SUBSTRING(expr FROM start FOR len)` (also comma form).
    Substring {
        /// String operand.
        expr: Box<ExprAst>,
        /// 1-based start.
        start: usize,
        /// Length.
        len: usize,
    },
}

impl ExprAst {
    /// Call `f` on each direct sub-expression, left to right. Subquery
    /// bodies are separate queries and are not entered (the tested
    /// expression of `IN (subquery)` is a child; the subquery is not).
    /// Every other traversal of the AST is written on top of this one.
    pub(crate) fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a ExprAst)) {
        match self {
            ExprAst::Ident(_)
            | ExprAst::Int(_)
            | ExprAst::Float(_)
            | ExprAst::Str(_)
            | ExprAst::Date(_)
            | ExprAst::Interval { .. }
            | ExprAst::Exists { .. }
            | ExprAst::ScalarSubquery(_) => {}
            ExprAst::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            ExprAst::Not(e) | ExprAst::Neg(e) | ExprAst::ExtractYear(e) => f(e),
            ExprAst::IsNull { expr, .. }
            | ExprAst::Like { expr, .. }
            | ExprAst::Substring { expr, .. }
            | ExprAst::InSubquery { expr, .. } => f(expr),
            ExprAst::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            ExprAst::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            ExprAst::Agg { arg, .. } => {
                if let Some(a) = arg {
                    f(a);
                }
            }
            ExprAst::Case {
                branches,
                otherwise,
            } => {
                for (cond, value) in branches {
                    f(cond);
                    f(value);
                }
                if let Some(o) = otherwise {
                    f(o);
                }
            }
        }
    }

    /// Pre-order walk; `visit` returns whether to descend below the node.
    pub(crate) fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a ExprAst) -> bool) {
        if visit(self) {
            self.for_each_child(&mut |c| c.walk(visit));
        }
    }

    /// True if `pred` holds for this node or any node below it.
    pub(crate) fn any(&self, pred: impl Fn(&ExprAst) -> bool) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            found = found || pred(e);
            !found
        });
        found
    }

    /// True if any aggregate call appears in this expression.
    pub fn contains_aggregate(&self) -> bool {
        self.any(|e| matches!(e, ExprAst::Agg { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_aggregate_walks_tree() {
        let agg = ExprAst::Agg {
            func: AstAggFunc::Sum,
            arg: Some(Box::new(ExprAst::Ident(vec!["x".into()]))),
            distinct: false,
        };
        let e = ExprAst::Binary {
            op: BinOp::Gt,
            left: Box::new(agg),
            right: Box::new(ExprAst::Int(1)),
        };
        assert!(e.contains_aggregate());
        assert!(!ExprAst::Int(1).contains_aggregate());
    }

    #[test]
    fn every_form_exposes_its_operands() {
        // `needle` sits in a different operand position of each form; a form
        // whose children the enumerator forgets would hide it.
        let cases = [
            "needle + 1",
            "1 + needle",
            "not needle",
            "-needle",
            "needle is null",
            "needle between 1 and 2",
            "x between needle and 2",
            "x between 1 and needle",
            "needle like 'a%'",
            "needle in (1, 2)",
            "needle in (select y from u)",
            "sum(needle)",
            "case when needle then 1 else 2 end",
            "case when x then needle else 2 end",
            "case when x then 1 else needle end",
            "extract(year from needle)",
            "substring(needle from 1 for 2)",
        ];
        for text in cases {
            let sql = format!("select a from t where {text}");
            let tokens = crate::lexer::tokenize(&sql).unwrap();
            let query = crate::parser::parse_query(&tokens).unwrap();
            let predicate = query.select.where_clause.unwrap();
            let is_needle = |e: &ExprAst| matches!(e, ExprAst::Ident(p) if p == &["needle"]);
            assert!(predicate.any(is_needle), "{text}");
            assert!(!predicate.any(|e| matches!(e, ExprAst::Float(_))), "{text}");
        }
        // Subquery bodies are separate queries: not entered.
        let tokens = crate::lexer::tokenize(
            "select a from t where exists (select needle from u) and x > (select needle from u)",
        )
        .unwrap();
        let query = crate::parser::parse_query(&tokens).unwrap();
        let predicate = query.select.where_clause.unwrap();
        assert!(!predicate.any(|e| matches!(e, ExprAst::Ident(p) if p == &["needle"])));
    }

    #[test]
    fn binding_names() {
        let t = TableRef::Table {
            name: "nation".into(),
            alias: Some("n1".into()),
        };
        assert_eq!(t.binding_name(), "n1");
        let t2 = TableRef::Table {
            name: "nation".into(),
            alias: None,
        };
        assert_eq!(t2.binding_name(), "nation");
    }
}
