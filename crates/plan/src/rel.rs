//! Relational operators of the plan IR, with output-schema inference.

use crate::expr::{AggExpr, Expr, SortExpr};
use crate::Result;
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
    /// Inferred output schema.
    pub fn schema(&self) -> Result<Schema> {
        Ok(match self {
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
            | Rel::Sort { input, .. } => input.schema()?,
            Rel::Project { input, exprs } => {
                let in_schema = input.schema()?;
                let mut fields = Vec::with_capacity(exprs.len());
                for (e, name) in exprs {
                    let dt = e.data_type(&in_schema)?;
                    fields.push(Field {
                        name: name.clone(),
                        data_type: dt,
                        nullable: e.nullable(&in_schema),
                    });
                }
                Schema::new(fields)
            }
            Rel::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let in_schema = input.schema()?;
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
                        nullable: g.nullable(&in_schema),
                    });
                }
                for a in aggregates {
                    let it = a
                        .input
                        .as_ref()
                        .map(|e| e.data_type(&in_schema))
                        .transpose()?;
                    fields.push(Field {
                        name: a.name.clone(),
                        data_type: a.func.result_type(it)?,
                        nullable: true,
                    });
                }
                Schema::new(fields)
            }
            Rel::Join {
                left, right, kind, ..
            } => {
                let l = left.schema()?;
                match kind {
                    JoinKind::Semi | JoinKind::Anti => l,
                    JoinKind::Left | JoinKind::Single => {
                        let mut r = right.schema()?;
                        for f in &mut r.fields {
                            f.nullable = true;
                        }
                        l.join(&r)
                    }
                    JoinKind::Inner | JoinKind::Cross => l.join(&right.schema()?),
                }
            }
        })
    }

    /// Child relations, for generic traversal.
    pub fn children(&self) -> Vec<&Rel> {
        match self {
            Rel::Read { .. } => vec![],
            Rel::Filter { input, .. }
            | Rel::Project { input, .. }
            | Rel::Aggregate { input, .. }
            | Rel::Sort { input, .. }
            | Rel::Limit { input, .. }
            | Rel::Distinct { input }
            | Rel::Exchange { input, .. } => vec![input],
            Rel::Join { left, right, .. } => vec![left, right],
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
            for c in r.children() {
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Operator count (diagnostics / plan-complexity metrics).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
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
