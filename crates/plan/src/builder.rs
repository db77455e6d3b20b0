//! Fluent plan construction.

use crate::expr::{AggExpr, Expr, SortExpr};
use crate::rel::{ExchangeKind, JoinKind, Rel};
use sirius_columnar::Schema;
use std::sync::Arc;

/// Fluent builder over [`Rel`] trees.
///
/// ```
/// use sirius_plan::{builder::PlanBuilder, expr};
/// use sirius_columnar::{DataType, Field, Schema, Scalar};
///
/// let plan = PlanBuilder::scan(
///     "orders",
///     Schema::new(vec![
///         Field::new("o_orderkey", DataType::Int64),
///         Field::new("o_totalprice", DataType::Float64),
///     ]),
/// )
/// .filter(expr::gt(expr::col(1), expr::lit(Scalar::Float64(100.0))))
/// .project(vec![(expr::col(0), "o_orderkey".into())])
/// .limit(0, Some(10))
/// .build();
/// assert_eq!(plan.node_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    rel: Rel,
}

impl PlanBuilder {
    /// Start from a base-table scan.
    pub fn scan(table: impl Into<String>, schema: Schema) -> Self {
        Self {
            rel: Rel::Read {
                table: table.into(),
                schema,
                projection: None,
            },
        }
    }

    /// Wrap an existing relation.
    pub fn from_rel(rel: Rel) -> Self {
        Self { rel }
    }

    /// Add a filter.
    pub fn filter(self, predicate: Expr) -> Self {
        Self {
            rel: Rel::Filter {
                input: Box::new(self.rel),
                predicate,
            },
        }
    }

    /// Add a projection.
    pub fn project(self, exprs: Vec<(Expr, Arc<str>)>) -> Self {
        Self {
            rel: Rel::Project {
                input: Box::new(self.rel),
                exprs,
            },
        }
    }

    /// Add an aggregation.
    pub fn aggregate(self, group_by: Vec<Expr>, aggregates: Vec<AggExpr>) -> Self {
        Self {
            rel: Rel::Aggregate {
                input: Box::new(self.rel),
                group_by,
                aggregates,
            },
        }
    }

    /// Join with another plan.
    pub fn join(
        self,
        right: PlanBuilder,
        kind: JoinKind,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        residual: Option<Expr>,
    ) -> Self {
        Self {
            rel: Rel::Join {
                left: Box::new(self.rel),
                right: Box::new(right.rel),
                kind,
                left_keys,
                right_keys,
                residual,
            },
        }
    }

    /// Add a sort.
    pub fn sort(self, keys: Vec<SortExpr>) -> Self {
        Self {
            rel: Rel::Sort {
                input: Box::new(self.rel),
                keys,
            },
        }
    }

    /// Add offset/fetch.
    pub fn limit(self, offset: usize, fetch: Option<usize>) -> Self {
        Self {
            rel: Rel::Limit {
                input: Box::new(self.rel),
                offset,
                fetch,
            },
        }
    }

    /// Add duplicate elimination.
    pub fn distinct(self) -> Self {
        Self {
            rel: Rel::Distinct {
                input: Box::new(self.rel),
            },
        }
    }

    /// Add a distributed exchange.
    pub fn exchange(self, kind: ExchangeKind) -> Self {
        Self {
            rel: Rel::Exchange {
                input: Box::new(self.rel),
                kind,
            },
        }
    }

    /// Finish, returning the relation tree.
    pub fn build(self) -> Rel {
        self.rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr;
    use sirius_columnar::{DataType, Field};

    #[test]
    fn builds_nested_tree() {
        let s = Schema::new(vec![Field::new("k", DataType::Int64)]);
        let plan = PlanBuilder::scan("a", s.clone())
            .join(
                PlanBuilder::scan("b", s),
                JoinKind::Inner,
                vec![expr::col(0)],
                vec![expr::col(0)],
                None,
            )
            .distinct()
            .build();
        assert_eq!(plan.node_count(), 4);
        assert_eq!(plan.schema().unwrap().len(), 2);
    }
}
