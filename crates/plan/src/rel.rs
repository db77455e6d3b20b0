//! Relational operators of the plan IR, with output-schema inference.

use crate::expr::{AggExpr, Expr, SortExpr};
use crate::{PlanError, Result};
use serde::{Deserialize, Serialize};
use sirius_columnar::{Field, Schema};

/// Join kinds carried by the IR. `Cross` has no equality keys; `Single` is
/// the scalar-subquery left join (at most one match per left row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum JoinKind {
    Inner,
    Left,
    Semi,
    Anti,
    Single,
    Cross,
}

/// Distributed exchange patterns (§3.2.4): all implemented over the NCCL
/// layer by the Sirius exchange service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExchangeKind {
    /// Hash-partition rows across nodes by the given key expressions.
    Shuffle {
        /// Partition key expressions.
        keys: Vec<Expr>,
    },
    /// Replicate the full input to every node.
    Broadcast,
    /// Gather all partitions onto one node.
    Merge,
    /// Send the full input to an explicit set of nodes.
    MultiCast {
        /// Target node ids.
        targets: Vec<usize>,
    },
}

/// A relational operator tree. The IR is both logical and physical — like
/// Substrait, the same representation flows from the host optimizer into
/// the execution engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Rel {
    /// Base-table scan. Carries the base schema (Substrait `ReadRel` base
    /// schema) and an optional projection pushed into the scan.
    Read {
        /// Table name in the host catalog.
        table: String,
        /// Full base schema of the table.
        schema: Schema,
        /// Column ordinals to read (`None` = all).
        projection: Option<Vec<usize>>,
    },
    /// Row filter.
    Filter {
        /// Input relation.
        input: Box<Rel>,
        /// Boolean predicate over the input columns.
        predicate: Expr,
    },
    /// Column projection / computation. Each output is a named expression.
    Project {
        /// Input relation.
        input: Box<Rel>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Grouped or global aggregation. Output columns: group keys (named
    /// `key0..` unless they are simple column refs), then aggregates.
    Aggregate {
        /// Input relation.
        input: Box<Rel>,
        /// Group-key expressions (empty = global aggregate, one row out).
        group_by: Vec<Expr>,
        /// Aggregates.
        aggregates: Vec<AggExpr>,
    },
    /// Equi-join with optional residual predicate. The residual is
    /// evaluated over the concatenated `[left ++ right]` schema.
    Join {
        /// Left input.
        left: Box<Rel>,
        /// Right input (build side for hash joins).
        right: Box<Rel>,
        /// Join kind.
        kind: JoinKind,
        /// Equality keys from the left input.
        left_keys: Vec<Expr>,
        /// Equality keys from the right input.
        right_keys: Vec<Expr>,
        /// Residual predicate over `[left ++ right]`.
        residual: Option<Expr>,
    },
    /// Total order.
    Sort {
        /// Input relation.
        input: Box<Rel>,
        /// Sort keys, major first.
        keys: Vec<SortExpr>,
    },
    /// Offset/fetch.
    Limit {
        /// Input relation.
        input: Box<Rel>,
        /// Rows to skip.
        offset: usize,
        /// Max rows to return (`None` = unbounded).
        fetch: Option<usize>,
    },
    /// Duplicate elimination over all columns.
    Distinct {
        /// Input relation.
        input: Box<Rel>,
    },
    /// Distributed data movement (inserted by the distributed planner).
    Exchange {
        /// Input relation.
        input: Box<Rel>,
        /// Movement pattern.
        kind: ExchangeKind,
    },
}

impl Rel {
    /// Inferred output schema: one post-order pass applying
    /// [`Rel::output_schema`] once per operator. Walkers that visit every
    /// node (validation, the pipeline compiler, the interpreters) apply the
    /// rule to the input schemas they already hold instead of calling this
    /// per node, and callers that want a column count call [`Rel::width`].
    pub fn schema(&self) -> Result<Schema> {
        match (self, self.inputs()) {
            // Columns handed on as they come, by move — and a semi or anti
            // join's right subtree is not derived at all.
            (
                Rel::Filter { .. }
                | Rel::Limit { .. }
                | Rel::Distinct { .. }
                | Rel::Exchange { .. }
                | Rel::Sort { .. }
                | Rel::Join {
                    kind: JoinKind::Semi | JoinKind::Anti,
                    ..
                },
                (Some(input), _),
            ) => input.schema(),
            (_, (None, _)) => self.output_schema(&[]),
            (_, (Some(input), None)) => self.output_schema(&[&input.schema()?]),
            (_, (Some(l), Some(r))) => self.output_schema(&[&l.schema()?, &r.schema()?]),
        }
    }

    /// The typing rule: this operator's output schema given its inputs'
    /// schemas, in [`Rel::children`] order — the one place an operator's
    /// output columns, their types and their nullability are decided. It
    /// looks at no child: the input subtrees are described by `inputs`
    /// alone, and an `inputs` of the wrong arity is [`PlanError::Invalid`].
    /// Types every expression that feeds an output column and checks a
    /// scan's projection, so it fails on exactly the plans whose output is
    /// untypable.
    pub fn output_schema(&self, inputs: &[&Schema]) -> Result<Schema> {
        let field = |name: String, (data_type, nullable)| Field {
            name,
            data_type,
            nullable,
        };
        Ok(match (self, inputs) {
            (
                Rel::Read {
                    schema, projection, ..
                },
                [],
            ) => match projection {
                None => schema.clone(),
                Some(p) => {
                    let width = schema.len();
                    if let Some(&index) = p.iter().find(|&&i| i >= width) {
                        return Err(PlanError::ColumnOutOfRange { index, width });
                    }
                    schema.project(p)
                }
            },
            (Rel::Project { exprs, .. }, [input]) => {
                let mut fields = Vec::with_capacity(exprs.len());
                for (e, name) in exprs {
                    fields.push(field(name.clone(), e.typed(input)?));
                }
                Schema::new(fields)
            }
            (
                Rel::Aggregate {
                    group_by,
                    aggregates,
                    ..
                },
                [input],
            ) => {
                let mut fields = Vec::with_capacity(group_by.len() + aggregates.len());
                for (i, key) in group_by.iter().enumerate() {
                    let typed = key.typed(input)?;
                    let name = match key {
                        Expr::Column(c) => input.fields[*c].name.clone(),
                        _ => format!("key{i}"),
                    };
                    fields.push(field(name, typed));
                }
                for a in aggregates {
                    fields.push(field(a.name.clone(), (a.data_type(input)?, true)));
                }
                Schema::new(fields)
            }
            (Rel::Join { kind, .. }, [l, r]) => match kind {
                JoinKind::Semi | JoinKind::Anti => (*l).clone(),
                JoinKind::Left | JoinKind::Single => {
                    let mut out = l.join(r);
                    for f in &mut out.fields[l.len()..] {
                        f.nullable = true;
                    }
                    out
                }
                JoinKind::Inner | JoinKind::Cross => l.join(r),
            },
            // Every other operator emits its input's columns as they come.
            (
                Rel::Filter { .. }
                | Rel::Limit { .. }
                | Rel::Distinct { .. }
                | Rel::Exchange { .. }
                | Rel::Sort { .. },
                [input],
            ) => (*input).clone(),
            _ => {
                return Err(PlanError::Invalid(format!(
                    "{} input schemas for an operator with {} inputs",
                    inputs.len(),
                    self.children().len()
                )))
            }
        })
    }

    /// Number of output columns: [`Rel::schema`]'s length without building
    /// a schema (no allocation, and total — a width does not depend on the
    /// expressions type-checking).
    pub fn width(&self) -> usize {
        match self {
            Rel::Read {
                schema, projection, ..
            } => projection.as_ref().map_or(schema.len(), Vec::len),
            Rel::Filter { input, .. }
            | Rel::Limit { input, .. }
            | Rel::Distinct { input }
            | Rel::Exchange { input, .. }
            | Rel::Sort { input, .. }
            | Rel::Join {
                left: input,
                kind: JoinKind::Semi | JoinKind::Anti,
                ..
            } => input.width(),
            Rel::Project { exprs, .. } => exprs.len(),
            Rel::Aggregate {
                group_by,
                aggregates,
                ..
            } => group_by.len() + aggregates.len(),
            Rel::Join { left, right, .. } => left.width() + right.width(),
        }
    }

    /// Child relations, for generic traversal.
    pub fn children(&self) -> Vec<&Rel> {
        let (first, second) = self.inputs();
        first.into_iter().chain(second).collect()
    }

    /// [`Rel::children`] without the `Vec`: the left (or only) input, then a
    /// join's right one.
    fn inputs(&self) -> (Option<&Rel>, Option<&Rel>) {
        match self {
            Rel::Read { .. } => (None, None),
            Rel::Filter { input, .. }
            | Rel::Project { input, .. }
            | Rel::Aggregate { input, .. }
            | Rel::Sort { input, .. }
            | Rel::Limit { input, .. }
            | Rel::Distinct { input }
            | Rel::Exchange { input, .. } => (Some(input), None),
            Rel::Join { left, right, .. } => (Some(left), Some(right)),
        }
    }

    /// This operator, payload cloned, around replacement inputs — the one
    /// place a `Rel` is put back together arm by arm. `child` is called once
    /// per input in [`Rel::children`] order (a join's left before its
    /// right: fragment executors sequence collectives by it) and the first
    /// error stops the rebuild; a `Read` is its own clone. Arity lives in
    /// the `match`, so there is no child list to run short.
    pub fn try_map_children<E>(
        &self,
        mut child: impl FnMut(&Rel) -> std::result::Result<Rel, E>,
    ) -> std::result::Result<Rel, E> {
        let mut new = |input: &Rel| child(input).map(Box::new);
        Ok(match self {
            Rel::Read { .. } => self.clone(),
            Rel::Filter { input, predicate } => Rel::Filter {
                input: new(input)?,
                predicate: predicate.clone(),
            },
            Rel::Project { input, exprs } => Rel::Project {
                input: new(input)?,
                exprs: exprs.clone(),
            },
            Rel::Aggregate {
                input,
                group_by,
                aggregates,
            } => Rel::Aggregate {
                input: new(input)?,
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
            },
            Rel::Join {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                residual,
            } => Rel::Join {
                // Struct fields evaluate as written: left, then right.
                left: new(left)?,
                right: new(right)?,
                kind: *kind,
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
                residual: residual.clone(),
            },
            Rel::Sort { input, keys } => Rel::Sort {
                input: new(input)?,
                keys: keys.clone(),
            },
            Rel::Limit {
                input,
                offset,
                fetch,
            } => Rel::Limit {
                input: new(input)?,
                offset: *offset,
                fetch: *fetch,
            },
            Rel::Distinct { input } => Rel::Distinct { input: new(input)? },
            Rel::Exchange { input, kind } => Rel::Exchange {
                input: new(input)?,
                kind: kind.clone(),
            },
        })
    }

    /// [`Rel::try_map_children`] over inputs already in hand: the `i`-th of
    /// `children` replaces the `i`-th input. An input with no replacement
    /// keeps its own subtree and a surplus replacement is dropped, so a
    /// wrong count cannot panic — and a [`crate::visit::Fold`] arm, which
    /// is handed exactly its operator's inputs, cannot get it wrong.
    pub fn with_children(&self, children: impl IntoIterator<Item = Rel>) -> Rel {
        let mut children = children.into_iter();
        let rebuilt = self.try_map_children::<std::convert::Infallible>(|own| {
            Ok(children.next().unwrap_or_else(|| own.clone()))
        });
        match rebuilt {
            Ok(rel) => rel,
        }
    }

    /// Names of all base tables read anywhere in the tree.
    pub fn tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(r: &Rel, out: &mut Vec<String>) {
            if let Rel::Read { table, .. } = r {
                out.push(table.clone());
            }
            // `inputs`, not `children`: no `Vec` per node.
            let (first, second) = r.inputs();
            for c in first.into_iter().chain(second) {
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Operator count (diagnostics / plan-complexity metrics).
    pub fn node_count(&self) -> usize {
        // Allocation-free: the fold driver asks once per join, for its left
        // input, to number the right one.
        let (first, second) = self.inputs();
        1 + first.map_or(0, Rel::node_count) + second.map_or(0, Rel::node_count)
    }

    /// One-line-per-operator indented rendering (EXPLAIN-style).
    pub fn explain(&self) -> String {
        fn walk(r: &Rel, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            let line = match r {
                Rel::Read {
                    table, projection, ..
                } => match projection {
                    Some(p) => format!("Read {table} (cols {p:?})"),
                    None => format!("Read {table}"),
                },
                Rel::Filter { .. } => "Filter".into(),
                Rel::Project { exprs, .. } => format!("Project ({} cols)", exprs.len()),
                Rel::Aggregate {
                    group_by,
                    aggregates,
                    ..
                } => format!(
                    "Aggregate ({} keys, {} aggs)",
                    group_by.len(),
                    aggregates.len()
                ),
                Rel::Join {
                    kind, left_keys, ..
                } => {
                    format!("Join {kind:?} ({} keys)", left_keys.len())
                }
                Rel::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
                Rel::Limit { offset, fetch, .. } => {
                    format!("Limit offset={offset} fetch={fetch:?}")
                }
                Rel::Distinct { .. } => "Distinct".into(),
                Rel::Exchange { kind, .. } => match kind {
                    ExchangeKind::Shuffle { keys } => {
                        format!("Exchange Shuffle ({} keys)", keys.len())
                    }
                    ExchangeKind::Broadcast => "Exchange Broadcast".into(),
                    ExchangeKind::Merge => "Exchange Merge".into(),
                    ExchangeKind::MultiCast { targets } => {
                        format!("Exchange MultiCast {targets:?}")
                    }
                },
            };
            out.push_str(&pad);
            out.push_str(&line);
            out.push('\n');
            for c in r.children() {
                walk(c, depth + 1, out);
            }
        }
        let mut s = String::new();
        walk(self, 0, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{self, AggFunc};
    use sirius_columnar::DataType;

    fn read() -> Rel {
        Rel::Read {
            table: "t".into(),
            schema: Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Utf8),
            ]),
            projection: None,
        }
    }

    #[test]
    fn read_projection_schema() {
        let r = Rel::Read {
            table: "t".into(),
            schema: Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Utf8),
            ]),
            projection: Some(vec![1]),
        };
        let s = r.schema().unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.fields[0].name, "b");
    }

    #[test]
    fn project_schema_types_and_names() {
        let p = Rel::Project {
            input: Box::new(read()),
            exprs: vec![
                (expr::add(expr::col(0), expr::lit_i64(1)), "a1".into()),
                (expr::col(1), "b".into()),
            ],
        };
        let s = p.schema().unwrap();
        assert_eq!(s.fields[0].name, "a1");
        assert_eq!(s.fields[0].data_type, DataType::Int64);
        assert_eq!(s.fields[1].data_type, DataType::Utf8);
    }

    #[test]
    fn aggregate_schema() {
        let a = Rel::Aggregate {
            input: Box::new(read()),
            group_by: vec![expr::col(1)],
            aggregates: vec![
                AggExpr {
                    func: AggFunc::Sum,
                    input: Some(expr::col(0)),
                    name: "s".into(),
                },
                AggExpr {
                    func: AggFunc::CountStar,
                    input: None,
                    name: "n".into(),
                },
            ],
        };
        let s = a.schema().unwrap();
        assert_eq!(
            s.fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["b", "s", "n"]
        );
        assert_eq!(s.fields[1].data_type, DataType::Int64);
    }

    #[test]
    fn join_schemas_by_kind() {
        let j = |kind| Rel::Join {
            left: Box::new(read()),
            right: Box::new(read()),
            kind,
            left_keys: vec![expr::col(0)],
            right_keys: vec![expr::col(0)],
            residual: None,
        };
        assert_eq!(j(JoinKind::Inner).schema().unwrap().len(), 4);
        assert_eq!(j(JoinKind::Semi).schema().unwrap().len(), 2);
        assert_eq!(j(JoinKind::Anti).schema().unwrap().len(), 2);
        let left = j(JoinKind::Left).schema().unwrap();
        assert_eq!(left.len(), 4);
        assert!(
            left.fields[2].nullable,
            "right side of LEFT join is nullable"
        );
        assert!(!left.fields[0].nullable);
    }

    #[test]
    fn tables_and_node_count() {
        let j = Rel::Join {
            left: Box::new(read()),
            right: Box::new(Rel::Filter {
                input: Box::new(read()),
                predicate: expr::gt(expr::col(0), expr::lit_i64(0)),
            }),
            kind: JoinKind::Inner,
            left_keys: vec![expr::col(0)],
            right_keys: vec![expr::col(0)],
            residual: None,
        };
        assert_eq!(j.tables(), vec!["t".to_string(), "t".to_string()]);
        assert_eq!(j.node_count(), 4);
        let e = j.explain();
        assert!(e.starts_with("Join Inner"));
        assert!(e.contains("  Filter"));
    }
}

/// The typing rule against the derivation it replaced.
#[cfg(test)]
mod typing_reference {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::expr::{self, AggExpr, AggFunc, SortExpr, UnOp};
    use crate::validate::validate;
    use proptest::prelude::*;
    use sirius_columnar::{DataType, Scalar};

    /// `Rel::schema` as it was before it became one pass over
    /// [`Rel::output_schema`]: every arm re-derives its whole input subtree,
    /// and nullability is a second walk per expression.
    fn reference(rel: &Rel) -> Result<Schema> {
        Ok(match rel {
            Rel::Read {
                schema, projection, ..
            } => match projection {
                Some(p) => schema.project(p),
                None => schema.clone(),
            },
            Rel::Filter { input, .. }
            | Rel::Limit { input, .. }
            | Rel::Distinct { input }
            | Rel::Exchange { input, .. }
            | Rel::Sort { input, .. } => reference(input)?,
            Rel::Project { input, exprs } => {
                let in_schema = reference(input)?;
                let mut fields = Vec::with_capacity(exprs.len());
                for (e, name) in exprs {
                    let dt = e.data_type(&in_schema)?;
                    fields.push(Field {
                        name: name.clone(),
                        data_type: dt,
                        nullable: reference_nullable(e, &in_schema),
                    });
                }
                Schema::new(fields)
            }
            Rel::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let in_schema = reference(input)?;
                let mut fields = Vec::new();
                for (i, g) in group_by.iter().enumerate() {
                    let dt = g.data_type(&in_schema)?;
                    let name = match g {
                        Expr::Column(c) => in_schema.fields[*c].name.clone(),
                        _ => format!("key{i}"),
                    };
                    fields.push(Field {
                        name,
                        data_type: dt,
                        nullable: reference_nullable(g, &in_schema),
                    });
                }
                for a in aggregates {
                    fields.push(Field {
                        name: a.name.clone(),
                        data_type: a.data_type(&in_schema)?,
                        nullable: true,
                    });
                }
                Schema::new(fields)
            }
            Rel::Join {
                left, right, kind, ..
            } => {
                let l = reference(left)?;
                match kind {
                    JoinKind::Semi | JoinKind::Anti => l,
                    JoinKind::Left | JoinKind::Single => {
                        let mut r = reference(right)?;
                        for f in &mut r.fields {
                            f.nullable = true;
                        }
                        l.join(&r)
                    }
                    JoinKind::Inner | JoinKind::Cross => l.join(&reference(right)?),
                }
            }
        })
    }

    /// `Expr::nullable` as it was: its own walk, beside `data_type`'s.
    fn reference_nullable(e: &Expr, input: &Schema) -> bool {
        let nullable = |e: &Expr| reference_nullable(e, input);
        match e {
            Expr::Column(i) => input.fields.get(*i).map(|f| f.nullable).unwrap_or(true),
            Expr::Literal(s) => s.is_null(),
            Expr::Unary {
                op: UnOp::IsNull | UnOp::IsNotNull,
                ..
            } => false,
            Expr::Unary { input: e, .. }
            | Expr::Cast { input: e, .. }
            | Expr::Like { input: e, .. }
            | Expr::InList { input: e, .. }
            | Expr::Substring { input: e, .. } => nullable(e),
            Expr::Binary { left, right, .. } => nullable(left) || nullable(right),
            Expr::Case {
                branches,
                otherwise,
            } => {
                branches.iter().any(|(_, v)| nullable(v))
                    || otherwise.as_deref().map(nullable).unwrap_or(true)
            }
        }
    }

    /// `schema()`, the schema `validate` returns and the reference agree
    /// field for field at every node of `plan`, and `width()` counts them.
    fn assert_typed_like_the_reference(label: &str, plan: &Rel) {
        let want = reference(plan).unwrap_or_else(|e| panic!("{label}: reference: {e}"));
        assert_eq!(plan.schema().as_ref(), Ok(&want), "{label}: schema()");
        assert_eq!(validate(plan).as_ref(), Ok(&want), "{label}: validate()");
        assert_eq!(plan.width(), want.len(), "{label}: width()");
        for child in plan.children() {
            assert_typed_like_the_reference(label, child);
        }
    }

    /// A plan built by `sirius-sql` / `sirius-doris` is a `Rel` of the plain
    /// build of this crate (they depend on it); JSON carries it over.
    fn local(plan: &impl serde::Serialize) -> Rel {
        serde_json::from_str(&serde_json::to_string(plan).unwrap()).unwrap()
    }

    #[test]
    fn tpch_plans_single_node_and_distributed() {
        use sirius_doris::planner::{distribute_with, DistributeOptions};
        use sirius_sql::{plan_sql, BinderCatalog, JoinOrderPolicy};

        // The catalog of `plan_snapshot` / `dist_plan_snapshot`.
        let mut catalog = BinderCatalog::new();
        for (name, table) in sirius_tpch::TpchGenerator::new(0.01).generate().tables() {
            catalog.add_table(
                name.clone(),
                table.schema().clone(),
                table.num_rows() as u64,
            );
        }
        let scheme = sirius_doris::PartitionScheme::tpch_default();
        let mut checked = 0;
        for (id, sql) in sirius_tpch::queries::all() {
            for policy in [JoinOrderPolicy::Optimized, JoinOrderPolicy::FromOrder] {
                let plan = plan_sql(sql, &catalog, policy).unwrap();
                assert_typed_like_the_reference(&format!("Q{id} {policy:?}"), &local(&plan));
                checked += 1;
                // `dist_plan_snapshot` distributes the `Optimized` plans.
                if policy != JoinOrderPolicy::Optimized {
                    continue;
                }
                for broadcast_join_build_sides in [false, true] {
                    let opts = DistributeOptions {
                        broadcast_join_build_sides,
                    };
                    let dist = distribute_with(&plan, &scheme, opts).unwrap();
                    assert_typed_like_the_reference(&format!("Q{id} {opts:?}"), &local(&dist));
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 88);
    }

    fn scan(projection: Option<Vec<usize>>) -> Rel {
        Rel::Read {
            table: "t".into(),
            schema: Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::nullable("b", DataType::Float64),
                Field::new("c", DataType::Utf8),
                Field::nullable("d", DataType::Date32),
            ]),
            projection,
        }
    }

    fn unary(op: UnOp, input: Expr) -> Expr {
        let input = Box::new(input);
        Expr::Unary { op, input }
    }

    /// A boolean over column `c` of type `t` — one expression arm per type.
    fn predicate(c: usize, t: DataType) -> Expr {
        let input = Box::new(expr::col(c));
        match t {
            DataType::Utf8 => Expr::Like {
                input,
                pattern: "%x%".into(),
                negated: false,
            },
            DataType::Date32 => unary(UnOp::IsNotNull, expr::col(c)),
            DataType::Bool => expr::col(c),
            DataType::Float64 => expr::lt(expr::col(c), expr::lit(Scalar::Float64(0.5))),
            _ => Expr::InList {
                input,
                list: vec![Scalar::Int64(1), Scalar::Null, Scalar::Int32(2)],
                negated: true,
            },
        }
    }

    /// A value computed from column `c` of type `t`, by variant `v`.
    fn value(c: usize, t: DataType, v: usize) -> Expr {
        let input = Box::new(expr::col(c));
        match (t, v % 3) {
            (_, 0) => Expr::Case {
                branches: vec![
                    (unary(UnOp::IsNull, expr::col(c)), expr::lit(Scalar::Null)),
                    (predicate(c, t), expr::col(c)),
                ],
                otherwise: v.is_multiple_of(2).then(|| Box::new(expr::col(c))),
            },
            (DataType::Utf8, _) => Expr::Substring {
                input,
                start: 1,
                len: 2,
            },
            (DataType::Date32, _) => unary(UnOp::ExtractYear, expr::col(c)),
            (DataType::Bool, _) => unary(UnOp::Not, expr::col(c)),
            (_, 1) => Expr::Cast {
                input,
                to: DataType::Float64,
            },
            _ => expr::add(unary(UnOp::Neg, expr::col(c)), expr::lit_i64(1)),
        }
    }

    /// Put operator `op` over `plan`, its expressions over the columns `x`
    /// and `y` pick (modulo the width) — typed from the reference, so every
    /// generated plan is valid whatever the code under test says.
    fn grow(plan: Rel, (op, x, y): (usize, usize, usize)) -> Rel {
        let schema = reference(&plan).unwrap();
        let pick = |i: usize| (i % schema.len(), schema.fields[i % schema.len()].data_type);
        let ((cx, tx), (cy, ty)) = (pick(x), pick(y));
        let b = PlanBuilder::from_rel(plan);
        let built = match op % 9 {
            0 => b.filter(predicate(cx, tx)),
            1 => b.project(vec![
                (value(cx, tx, y), "p".into()),
                (expr::col(cy), "q".into()),
                (predicate(cy, ty), "r".into()),
            ]),
            2 => {
                let func = [AggFunc::Min, AggFunc::Count, AggFunc::CountDistinct][y % 3];
                let sum = matches!(ty, DataType::Int64 | DataType::Float64);
                let agg = |func, input, name: &str| AggExpr {
                    func,
                    input,
                    name: name.into(),
                };
                b.aggregate(
                    vec![expr::col(cx), value(cx, tx, y)],
                    vec![
                        agg(AggFunc::CountStar, None, "n"),
                        agg(func, Some(expr::col(cy)), "m"),
                        agg(
                            if sum { AggFunc::Sum } else { AggFunc::Max },
                            Some(expr::col(cy)),
                            "s",
                        ),
                    ],
                )
            }
            3 => {
                use JoinKind::*;
                let kind = [Inner, Left, Semi, Anti, Single, Cross][y % 6];
                // The right scan has one column of each base type.
                let right = reference(&scan(None)).unwrap();
                let key = right.fields.iter().position(|f| f.data_type == tx);
                let (lk, rk) = match key {
                    Some(r) if kind != Cross => (vec![expr::col(cx)], vec![expr::col(r)]),
                    _ => (vec![], vec![]),
                };
                let kind = if lk.is_empty() && kind != Single {
                    Cross
                } else {
                    kind
                };
                let residual = x.is_multiple_of(2).then(|| predicate(cy, ty));
                b.join(PlanBuilder::from_rel(scan(None)), kind, lk, rk, residual)
            }
            4 => b.sort(vec![SortExpr {
                expr: value(cx, tx, y),
                ascending: y.is_multiple_of(2),
            }]),
            5 => b.limit(x, Some(y + 1)),
            6 => b.distinct(),
            7 => b.exchange(ExchangeKind::Shuffle {
                keys: vec![expr::col(cx)],
            }),
            _ => b.exchange(ExchangeKind::Broadcast),
        };
        built.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn generated_plans(
            projection in proptest::option::of(proptest::collection::vec(0usize..4, 1..6)),
            ops in proptest::collection::vec((0usize..9, 0usize..64, 0usize..64), 0..10),
        ) {
            let plan = ops.into_iter().fold(scan(projection), grow);
            assert_typed_like_the_reference("generated", &plan);
        }
    }

    #[test]
    fn wrong_arity_is_an_error_not_a_panic() {
        // `grow`'s operator 3 is a join, 6 a distinct.
        let (s, join) = (scan(None).schema().unwrap(), grow(scan(None), (3, 0, 0)));
        assert!(matches!(
            scan(None).output_schema(&[&s]),
            Err(PlanError::Invalid(_))
        ));
        assert!(matches!(
            join.output_schema(&[&s]),
            Err(PlanError::Invalid(_))
        ));
        assert!(matches!(
            grow(scan(None), (6, 0, 0)).output_schema(&[]),
            Err(PlanError::Invalid(_))
        ));
        let bad_scan = scan(Some(vec![0, 7]));
        assert_eq!(
            bad_scan.schema(),
            Err(PlanError::ColumnOutOfRange { index: 7, width: 4 })
        );
        assert_eq!(bad_scan.width(), 2, "a width needs no valid plan");
    }
}
