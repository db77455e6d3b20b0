//! Logical optimization passes.
//!
//! The optimizer owns the planning decisions that used to be hard-wired
//! into `bind`:
//!
//! - [`join_order`] — cost-based join enumeration and build-side selection,
//!   driven by the [`stats::Statistics`] trait so runtime feedback
//!   (actual cardinalities from a previous run of the same plan shape)
//!   can override catalog estimates.
//! - [`stats`] — the statistics abstraction: catalog row counts +
//!   selectivity constants by default, observed actuals when a feedback
//!   store has seen the shape before.
//!
//! The pass in this module is **projection pruning**: computing the
//! columns each operator actually needs and pushing column selections
//! into `Read` nodes. This is what keeps simulated scan traffic honest —
//! TPC-H tables are wide, and the paper's filter-vs-join time split
//! (Figure 5) depends on engines reading only the referenced columns.

pub mod join_order;
pub mod stats;

use crate::{Result, SqlError};
use sirius_columnar::Schema;
use sirius_plan::expr::{self, SortExpr};
use sirius_plan::{AggExpr, ExchangeKind, Expr, JoinKind, Rel};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Run all optimization passes.
pub fn optimize(plan: Rel) -> Result<Rel> {
    let width = plan.width();
    let required: BTreeSet<usize> = (0..width).collect();
    let (pruned, mapping) = prune(plan, &required)?;
    // The contract allows the pruned tree to expose extra columns; restore
    // the exact original output if anything moved.
    let identity = (0..width).all(|i| mapping.get(&i) == Some(&i));
    if identity && pruned.width() == width {
        Ok(pruned)
    } else {
        let schema = pruned.schema().map_err(SqlError::Plan)?;
        let exprs = (0..width)
            .map(|i| {
                let ni = *mapping.get(&i).ok_or_else(|| {
                    SqlError::Bind(format!("column pruning lost output column {i}"))
                })?;
                Ok((expr::col(ni), schema.fields[ni].name.clone()))
            })
            .collect::<Result<_>>()?;
        Ok(Rel::Project {
            input: Box::new(pruned),
            exprs,
        })
    }
}

type Mapping = HashMap<usize, usize>;

fn refs_of(e: &Expr) -> Vec<usize> {
    let mut v = Vec::new();
    e.referenced_columns(&mut v);
    v
}

/// Prune `rel` so that at least the columns in `required` survive. Returns
/// the new relation and a mapping old-ordinal → new-ordinal covering (at
/// least) every required column.
fn prune(rel: Rel, required: &BTreeSet<usize>) -> Result<(Rel, Mapping)> {
    match rel {
        Rel::Read {
            table,
            schema,
            projection,
        } => Ok(prune_read(table, schema, projection, required)),
        Rel::Filter { input, predicate } => prune_filter(*input, predicate, required),
        Rel::Project { input, exprs } => prune_project(*input, exprs, required),
        Rel::Aggregate {
            input,
            group_by,
            aggregates,
        } => prune_aggregate(*input, group_by, aggregates),
        Rel::Join {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
        } => prune_join(
            *left, *right, kind, left_keys, right_keys, residual, required,
        ),
        Rel::Sort { input, keys } => prune_sort(*input, keys, required),
        Rel::Limit {
            input,
            offset,
            fetch,
        } => {
            let (child, map) = prune(*input, required)?;
            let input = Box::new(child);
            Ok((
                Rel::Limit {
                    input,
                    offset,
                    fetch,
                },
                map,
            ))
        }
        Rel::Distinct { input } => {
            // Distinct semantics depend on every column: no pruning through.
            let all: BTreeSet<usize> = (0..input.width()).collect();
            let (child, map) = prune(*input, &all)?;
            let input = Box::new(child);
            Ok((Rel::Distinct { input }, map))
        }
        Rel::Exchange { input, kind } => prune_exchange(*input, kind, required),
    }
}

/// The mapping of a node that emits exactly its `required` columns, in
/// order.
fn compacted(required: &BTreeSet<usize>) -> Mapping {
    let renumber = required.iter().enumerate();
    renumber.map(|(new, &old)| (old, new)).collect()
}

fn prune_read(
    table: String,
    schema: Schema,
    projection: Option<Vec<usize>>,
    required: &BTreeSet<usize>,
) -> (Rel, Mapping) {
    // Binder emits projection=None; compose defensively regardless.
    let base: Vec<usize> = match &projection {
        Some(p) => p.clone(),
        None => (0..schema.len()).collect(),
    };
    let keep: Vec<usize> = required.iter().map(|&r| base[r]).collect();
    let read = Rel::Read {
        table,
        schema,
        projection: Some(keep),
    };
    (read, compacted(required))
}

fn prune_filter(input: Rel, predicate: Expr, required: &BTreeSet<usize>) -> Result<(Rel, Mapping)> {
    let mut child_req = required.clone();
    child_req.extend(refs_of(&predicate));
    let (child, map) = prune(input, &child_req)?;
    let filter = Rel::Filter {
        input: Box::new(child),
        predicate: predicate.remap_columns(&|i| map[&i]),
    };
    Ok((filter, map))
}

fn prune_project(
    input: Rel,
    exprs: Vec<(Expr, Arc<str>)>,
    required: &BTreeSet<usize>,
) -> Result<(Rel, Mapping)> {
    let mut child_req = BTreeSet::new();
    for &i in required {
        child_req.extend(refs_of(&exprs[i].0));
    }
    let (child, cmap) = prune(input, &child_req)?;
    if required.is_empty() {
        // Nothing above reads a column, and a projection never changes the
        // row count: its pruned input stands in for it.
        return Ok((child, Mapping::new()));
    }
    let exprs = required
        .iter()
        .map(|&i| (exprs[i].0.remap_columns(&|c| cmap[&c]), exprs[i].1.clone()))
        .collect();
    let project = Rel::Project {
        input: Box::new(child),
        exprs,
    };
    Ok((project, compacted(required)))
}

fn prune_aggregate(
    input: Rel,
    group_by: Vec<Expr>,
    aggregates: Vec<AggExpr>,
) -> Result<(Rel, Mapping)> {
    let mut child_req = BTreeSet::new();
    for g in &group_by {
        child_req.extend(refs_of(g));
    }
    for e in aggregates.iter().filter_map(|a| a.input.as_ref()) {
        child_req.extend(refs_of(e));
    }
    let (child, cmap) = prune(input, &child_req)?;
    let group_by: Vec<_> = group_by
        .iter()
        .map(|g| g.remap_columns(&|c| cmap[&c]))
        .collect();
    let aggregates: Vec<_> = aggregates
        .iter()
        .map(|a| AggExpr {
            func: a.func,
            input: a.input.as_ref().map(|e| e.remap_columns(&|c| cmap[&c])),
            name: a.name.clone(),
        })
        .collect();
    // Aggregate output (keys + aggs) is kept whole.
    let width = group_by.len() + aggregates.len();
    let aggregate = Rel::Aggregate {
        input: Box::new(child),
        group_by,
        aggregates,
    };
    Ok((aggregate, (0..width).map(|i| (i, i)).collect()))
}

fn prune_join(
    left: Rel,
    right: Rel,
    kind: JoinKind,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    residual: Option<Expr>,
    required: &BTreeSet<usize>,
) -> Result<(Rel, Mapping)> {
    let lw = left.width();
    let mut lreq = BTreeSet::new();
    let mut rreq = BTreeSet::new();
    let residual_refs = residual.iter().flat_map(refs_of);
    for r in required.iter().copied().chain(residual_refs) {
        if r < lw {
            lreq.insert(r);
        } else {
            rreq.insert(r - lw);
        }
    }
    for k in &left_keys {
        lreq.extend(refs_of(k));
    }
    for k in &right_keys {
        rreq.extend(refs_of(k));
    }
    let (lchild, lmap) = prune(left, &lreq)?;
    let (rchild, rmap) = prune(right, &rreq)?;
    let new_lw = lchild.width();
    let left_keys: Vec<_> = left_keys
        .iter()
        .map(|k| k.remap_columns(&|c| lmap[&c]))
        .collect();
    let right_keys: Vec<_> = right_keys
        .iter()
        .map(|k| k.remap_columns(&|c| rmap[&c]))
        .collect();
    let residual = residual.map(|res| {
        res.remap_columns(&|c| {
            if c < lw {
                lmap[&c]
            } else {
                new_lw + rmap[&(c - lw)]
            }
        })
    });
    let mut mapping = lmap;
    if !matches!(kind, JoinKind::Semi | JoinKind::Anti) {
        mapping.extend(rmap.iter().map(|(&old, &new)| (lw + old, new_lw + new)));
    }
    let join = Rel::Join {
        left: Box::new(lchild),
        right: Box::new(rchild),
        kind,
        left_keys,
        right_keys,
        residual,
    };
    Ok((join, mapping))
}

fn prune_sort(
    input: Rel,
    keys: Vec<SortExpr>,
    required: &BTreeSet<usize>,
) -> Result<(Rel, Mapping)> {
    let mut child_req = required.clone();
    for k in &keys {
        child_req.extend(refs_of(&k.expr));
    }
    let (child, map) = prune(input, &child_req)?;
    let keys = keys
        .iter()
        .map(|k| SortExpr {
            expr: k.expr.remap_columns(&|c| map[&c]),
            ascending: k.ascending,
        })
        .collect();
    let sort = Rel::Sort {
        input: Box::new(child),
        keys,
    };
    Ok((sort, map))
}

fn prune_exchange(
    input: Rel,
    kind: ExchangeKind,
    required: &BTreeSet<usize>,
) -> Result<(Rel, Mapping)> {
    let mut child_req = required.clone();
    if let ExchangeKind::Shuffle { keys } = &kind {
        for k in keys {
            child_req.extend(refs_of(k));
        }
    }
    let (child, map) = prune(input, &child_req)?;
    let kind = match kind {
        ExchangeKind::Shuffle { keys } => ExchangeKind::Shuffle {
            keys: keys.iter().map(|k| k.remap_columns(&|c| map[&c])).collect(),
        },
        other => other,
    };
    let exchange = Rel::Exchange {
        input: Box::new(child),
        kind,
    };
    Ok((exchange, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{DataType, Field, Schema};
    use sirius_plan::builder::PlanBuilder;
    use sirius_plan::expr::{col, gt, lit_i64};

    fn wide_scan() -> PlanBuilder {
        PlanBuilder::scan(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
                Field::new("c", DataType::Int64),
                Field::new("d", DataType::Int64),
            ]),
        )
    }

    fn find_read_projection(rel: &Rel) -> Option<Vec<usize>> {
        match rel {
            Rel::Read { projection, .. } => projection.clone(),
            _ => rel.children().iter().find_map(|c| find_read_projection(c)),
        }
    }

    #[test]
    fn prunes_unused_scan_columns() {
        let plan = wide_scan()
            .filter(gt(col(1), lit_i64(0)))
            .project(vec![(col(3), "d".into())])
            .build();
        let opt = optimize(plan.clone()).unwrap();
        // Only b (filter) and d (projection) should be read.
        assert_eq!(find_read_projection(&opt), Some(vec![1, 3]));
        // Output schema is preserved.
        assert_eq!(opt.schema().unwrap(), plan.schema().unwrap());
        sirius_plan::validate::validate(&opt).unwrap();
    }

    #[test]
    fn join_prunes_both_sides() {
        let plan = wide_scan()
            .join(
                wide_scan(),
                JoinKind::Inner,
                vec![col(0)],
                vec![col(2)],
                None,
            )
            .project(vec![(col(1), "b".into()), (col(7), "d2".into())])
            .build();
        let opt = optimize(plan.clone()).unwrap();
        sirius_plan::validate::validate(&opt).unwrap();
        assert_eq!(opt.schema().unwrap(), plan.schema().unwrap());
        // Left side reads a (key) and b; right side reads c (key) and d.
        fn reads(rel: &Rel, out: &mut Vec<Vec<usize>>) {
            if let Rel::Read {
                projection: Some(p),
                ..
            } = rel
            {
                out.push(p.clone());
            }
            for c in rel.children() {
                reads(c, out);
            }
        }
        let mut r = Vec::new();
        reads(&opt, &mut r);
        assert_eq!(r, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn distinct_blocks_pruning() {
        let plan = wide_scan().distinct().build();
        let opt = optimize(plan).unwrap();
        assert_eq!(
            find_read_projection(&opt),
            Some(vec![0, 1, 2, 3]),
            "distinct needs all columns"
        );
    }

    #[test]
    fn aggregate_children_pruned() {
        let plan = wide_scan()
            .aggregate(
                vec![col(2)],
                vec![sirius_plan::AggExpr {
                    func: sirius_plan::AggFunc::Sum,
                    input: Some(col(0)),
                    name: "s".into(),
                }],
            )
            .build();
        let opt = optimize(plan).unwrap();
        assert_eq!(find_read_projection(&opt), Some(vec![0, 2]));
        sirius_plan::validate::validate(&opt).unwrap();
    }
}
