//! The distributed planner: turns a single-node plan into an
//! exchange-annotated SPMD plan every node executes over its partition.
//!
//! Partitioning is tracked bottom-up; exchanges are inserted where an
//! operator's co-location requirement is not met:
//!
//! * joins shuffle un-co-partitioned sides by their join keys (replicated
//!   dimension tables join locally);
//! * grouped aggregation runs a local **partial** aggregate, shuffles the
//!   partials by group key, and finalizes (sum-of-sums, min-of-mins,
//!   avg = sum/count) — the reason Q1's exchange traffic is tiny in
//!   Table 2; `COUNT(DISTINCT)` can't be decomposed and shuffles raw rows;
//! * global aggregates partial-aggregate locally and merge one row per
//!   node to the coordinator's node;
//! * sorts and limits gather to node 0.

use crate::{DorisError, Result};
use sirius_columnar::Schema;
use sirius_plan::expr::{self, AggExpr, SortExpr};
use sirius_plan::visit::{self, Fold, JoinOn, Node};
use sirius_plan::{AggFunc, ExchangeKind, Expr, JoinKind, Rel};
use std::collections::HashMap;

/// How each base table is distributed across the cluster.
#[derive(Debug, Clone, Default)]
pub struct PartitionScheme {
    by: HashMap<String, Option<String>>,
}

impl PartitionScheme {
    /// Empty scheme (everything `Arbitrary`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Hash-partition `table` by `column`.
    pub fn hash(&mut self, table: impl Into<String>, column: impl Into<String>) {
        self.by.insert(table.into(), Some(column.into()));
    }

    /// Replicate `table` to every node (small dimension tables).
    pub fn replicate(&mut self, table: impl Into<String>) {
        self.by.insert(table.into(), None);
    }

    /// The scheme used by the TPC-H experiments: fact tables hash-partition
    /// on their primary keys (lineitem on `l_partkey`, matching the Doris
    /// plan the paper describes for Q3, which must shuffle both `orders`
    /// and `lineitem`); `nation` and `region` replicate.
    pub fn tpch_default() -> Self {
        let mut s = Self::new();
        s.hash("customer", "c_custkey");
        s.hash("orders", "o_orderkey");
        s.hash("lineitem", "l_partkey");
        s.hash("part", "p_partkey");
        s.hash("partsupp", "ps_partkey");
        s.hash("supplier", "s_suppkey");
        s.replicate("nation");
        s.replicate("region");
        s
    }

    /// Partition column for `table` (`None` = replicated, missing =
    /// arbitrary).
    pub fn partition_column(&self, table: &str) -> Option<&Option<String>> {
        self.by.get(table)
    }
}

/// Data placement of a relation's output across nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitioning {
    /// Hash-partitioned by these output expressions.
    Hash(Vec<Expr>),
    /// Full copy on every node.
    Replicated,
    /// Entirely on node 0; empty elsewhere.
    Singleton,
    /// Split across nodes with no known key.
    Arbitrary,
}

impl Partitioning {
    /// Whether every node that holds the relation at all holds *all* of it
    /// (`Singleton` or `Replicated`): an operator over such an input runs
    /// locally with no exchange, and its output is placed the same way.
    pub fn is_complete(&self) -> bool {
        matches!(self, Partitioning::Singleton | Partitioning::Replicated)
    }
}

/// A distributed subtree and where its rows live.
type Placed = (Rel, Partitioning);

/// Planner options capturing host-specific distributed behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistributeOptions {
    /// Replicate every join's build side to all nodes instead of
    /// co-partitioning — how ClickHouse's distributed JOIN works, and the
    /// reason it collapses on Q3 in the paper's Table 2.
    pub broadcast_join_build_sides: bool,
}

/// Distribute a single-node plan. The result is an SPMD plan: every node
/// executes it against its local partitions, exchanges where annotated,
/// and the full result lands on node 0 (the plan always ends `Singleton`).
pub fn distribute(plan: &Rel, scheme: &PartitionScheme) -> Result<Rel> {
    distribute_with(plan, scheme, DistributeOptions::default())
}

/// [`distribute`] with explicit options.
pub fn distribute_with(
    plan: &Rel,
    scheme: &PartitionScheme,
    opts: DistributeOptions,
) -> Result<Rel> {
    let (mut rel, part) = visit::fold(&mut Distributor { scheme, opts }, plan)?;
    if !part.is_complete() {
        rel = merge(rel);
    }
    Ok(rel)
}

fn shuffle(rel: Rel, keys: Vec<Expr>) -> Rel {
    Rel::Exchange {
        input: Box::new(rel),
        kind: ExchangeKind::Shuffle { keys },
    }
}

fn merge(rel: Rel) -> Rel {
    Rel::Exchange {
        input: Box::new(rel),
        kind: ExchangeKind::Merge,
    }
}

fn broadcast(rel: Rel) -> Rel {
    Rel::Exchange {
        input: Box::new(rel),
        kind: ExchangeKind::Broadcast,
    }
}

/// Bring rows with equal `keys` together: shuffle by them, or — keyless —
/// merge everything to node 0.
fn colocate(rel: Rel, keys: Vec<Expr>) -> Rel {
    if keys.is_empty() {
        merge(rel)
    } else {
        shuffle(rel, keys)
    }
}

/// Where an aggregate's output lives once its input was [`colocate`]d on
/// the `k` group keys (its first `k` output columns).
fn grouped(k: usize) -> Partitioning {
    if k == 0 {
        Partitioning::Singleton
    } else {
        Partitioning::Hash((0..k).map(expr::col).collect())
    }
}

/// An input that must be whole on one node (sort, limit): a complete one
/// stays where it is, anything else merges to node 0.
fn gathered((rel, part): Placed) -> Placed {
    if part.is_complete() {
        (rel, part)
    } else {
        (merge(rel), Partitioning::Singleton)
    }
}

/// The distribution pass as a [`Fold`] over the shared plan walk: children
/// arrive already distributed with their [`Partitioning`], and each
/// operator decides what exchange (if any) its inputs still need.
struct Distributor<'a> {
    scheme: &'a PartitionScheme,
    opts: DistributeOptions,
}

impl Fold for Distributor<'_> {
    type Output = Placed;
    type Error = DorisError;

    fn read(
        &mut self,
        _node: Node,
        plan: &Rel,
        table: &str,
        schema: &Schema,
        projection: &Option<Vec<usize>>,
    ) -> Result<Placed> {
        let part = match self.scheme.partition_column(table) {
            Some(Some(col)) => {
                // Where does the partition column land after projection?
                let base_idx = schema.index_of(col);
                let out_idx = match (base_idx, projection) {
                    (Some(b), Some(p)) => p.iter().position(|&i| i == b),
                    (Some(b), None) => Some(b),
                    (None, _) => None,
                };
                match out_idx {
                    Some(i) => Partitioning::Hash(vec![expr::col(i)]),
                    None => Partitioning::Arbitrary,
                }
            }
            Some(None) => Partitioning::Replicated,
            None => Partitioning::Arbitrary,
        };
        Ok((plan.clone(), part))
    }

    fn filter(
        &mut self,
        _node: Node,
        plan: &Rel,
        _predicate: &Expr,
        (child, part): Placed,
    ) -> Result<Placed> {
        Ok((plan.with_children([child]), part))
    }

    fn project(
        &mut self,
        _node: Node,
        plan: &Rel,
        exprs: &[(Expr, String)],
        (child, part): Placed,
    ) -> Result<Placed> {
        let part = match part {
            Partitioning::Hash(keys) => {
                // Keys survive only if each is re-exported as a plain
                // column.
                let remapped: Option<Vec<Expr>> = keys
                    .iter()
                    .map(|k| exprs.iter().position(|(e, _)| e == k).map(expr::col))
                    .collect();
                remapped
                    .map(Partitioning::Hash)
                    .unwrap_or(Partitioning::Arbitrary)
            }
            other => other,
        };
        Ok((plan.with_children([child]), part))
    }

    fn aggregate(
        &mut self,
        _node: Node,
        plan: &Rel,
        group_by: &[Expr],
        aggregates: &[AggExpr],
        (child, part): Placed,
    ) -> Result<Placed> {
        distribute_aggregate(plan, child, part, group_by, aggregates)
    }

    fn join(
        &mut self,
        _node: Node,
        plan: &Rel,
        on: JoinOn<'_>,
        (mut l, lpart): Placed,
        (mut r, rpart): Placed,
    ) -> Result<Placed> {
        let rebuild = |l: Rel, r: Rel| plan.with_children([l, r]);
        // Keyless joins (scalar subqueries): replicate the right side
        // (a Singleton one too, to reach every node's left rows).
        if on.left_keys.is_empty() {
            if rpart != Partitioning::Replicated {
                r = broadcast(r);
            }
            return Ok((rebuild(l, r), lpart));
        }
        // Keyed joins. A replicated right side joins locally under any
        // join kind (each left row lives on exactly one node and sees
        // the full right input). A replicated *left* side joins locally
        // only for Inner joins — Semi/Anti/Left would emit each left
        // row once per node. Otherwise both sides must be
        // hash-partitioned on exactly the join keys.
        if rpart == Partitioning::Replicated {
            return Ok((rebuild(l, r), lpart));
        }
        if self.opts.broadcast_join_build_sides {
            // ClickHouse-style distributed join: ship the whole build
            // side everywhere and keep the probe side in place.
            return Ok((rebuild(l, broadcast(r)), lpart));
        }
        if lpart == Partitioning::Replicated && on.kind == JoinKind::Inner {
            // Row multiplicity comes from the distributed right side.
            return Ok((rebuild(l, r), Partitioning::Arbitrary));
        }
        if lpart != Partitioning::Hash(on.left_keys.to_vec()) {
            l = shuffle(l, on.left_keys.to_vec());
        }
        if rpart != Partitioning::Hash(on.right_keys.to_vec()) {
            r = shuffle(r, on.right_keys.to_vec());
        }
        Ok((rebuild(l, r), Partitioning::Hash(on.left_keys.to_vec())))
    }

    fn sort(
        &mut self,
        _node: Node,
        plan: &Rel,
        _keys: &[SortExpr],
        input: Placed,
    ) -> Result<Placed> {
        let (child, part) = gathered(input);
        Ok((plan.with_children([child]), part))
    }

    fn limit(
        &mut self,
        _node: Node,
        plan: &Rel,
        _offset: usize,
        _fetch: Option<usize>,
        input: Placed,
    ) -> Result<Placed> {
        let (child, part) = gathered(input);
        Ok((plan.with_children([child]), part))
    }

    fn distinct(&mut self, _node: Node, plan: &Rel, (child, part): Placed) -> Result<Placed> {
        let (child, part) = if part.is_complete() {
            (child, part)
        } else {
            let keys = (0..child.width()).map(expr::col).collect();
            (shuffle(child, keys), Partitioning::Arbitrary)
        };
        Ok((plan.with_children([child]), part))
    }

    fn exchange(
        &mut self,
        _node: Node,
        _plan: &Rel,
        _kind: &ExchangeKind,
        _input: Placed,
    ) -> Result<Placed> {
        Err(DorisError::Plan("plan is already distributed".into()))
    }
}

/// Two-phase aggregation with partial-aggregate decomposition.
fn distribute_aggregate(
    plan: &Rel,
    child: Rel,
    part: Partitioning,
    group_by: &[Expr],
    aggregates: &[AggExpr],
) -> Result<Placed> {
    let aggregate = |input: Rel| plan.with_children([input]);
    let k = group_by.len();
    // Already local: everything on one node or replicated inputs.
    if part.is_complete() {
        return Ok((aggregate(child), part));
    }
    // Grouped, already co-partitioned on the keys: aggregate locally.
    if k > 0 && part == Partitioning::Hash(group_by.to_vec()) {
        return Ok((aggregate(child), grouped(k)));
    }
    let Some((partials, feeds)) = partial_aggregates(aggregates) else {
        // Move raw rows (shuffle by group key, or merge for global) + full agg.
        return Ok((aggregate(colocate(child, group_by.to_vec())), grouped(k)));
    };
    // Phase 1: local partials.
    let partial = Rel::Aggregate {
        input: Box::new(child),
        group_by: group_by.to_vec(),
        aggregates: partials.clone(),
    };

    // Phase 2: move partials, re-aggregate with merge functions.
    let moved = colocate(partial, (0..k).map(expr::col).collect());
    let merge_aggs: Vec<AggExpr> = partials
        .iter()
        .enumerate()
        .map(|(i, p)| AggExpr {
            func: match p.func {
                AggFunc::Min => AggFunc::Min,
                AggFunc::Max => AggFunc::Max,
                // Sums and counts both merge by summation.
                _ => AggFunc::Sum,
            },
            input: Some(expr::col(k + i)),
            name: p.name.clone(),
        })
        .collect();
    let finalized = Rel::Aggregate {
        input: Box::new(moved),
        group_by: (0..k).map(expr::col).collect(),
        aggregates: merge_aggs,
    };

    // Phase 3: project back to the original output shape (avg = sum/count).
    let mut out_exprs: Vec<(Expr, String)> =
        (0..k).map(|i| (expr::col(i), format!("key{i}"))).collect();
    for ((func, cols), a) in feeds.iter().zip(aggregates.iter()) {
        let e = match func {
            AggFunc::Avg => Expr::Binary {
                op: sirius_plan::BinOp::Div,
                left: Box::new(expr::col(k + cols[0])),
                right: Box::new(expr::col(k + cols[1])),
            },
            _ => expr::col(k + cols[0]),
        };
        out_exprs.push((e, a.name.clone()));
    }
    let out = Rel::Project {
        input: Box::new(finalized),
        exprs: out_exprs,
    };
    Ok((out, grouped(k)))
}

/// How one original aggregate is rebuilt from the partials: its merge
/// function and the partial columns feeding it.
type Feed = (AggFunc, Vec<usize>);

/// The local partial aggregates phase 1 computes, with one [`Feed`] per
/// original aggregate: avg decomposes into (sum, count), count variants
/// become counts summed later. `None` when an aggregate cannot be
/// decomposed (`COUNT(DISTINCT)`).
fn partial_aggregates(aggregates: &[AggExpr]) -> Option<(Vec<AggExpr>, Vec<Feed>)> {
    let mut partials: Vec<AggExpr> = Vec::new();
    let mut feeds: Vec<Feed> = Vec::new();
    for a in aggregates {
        match a.func {
            AggFunc::Avg => {
                let s = partials.len();
                partials.push(AggExpr {
                    func: AggFunc::Sum,
                    input: a.input.clone(),
                    name: format!("{}_psum", a.name),
                });
                partials.push(AggExpr {
                    func: AggFunc::Count,
                    input: a.input.clone(),
                    name: format!("{}_pcnt", a.name),
                });
                feeds.push((AggFunc::Avg, vec![s, s + 1]));
            }
            AggFunc::Count | AggFunc::CountStar => {
                let s = partials.len();
                partials.push(AggExpr {
                    func: a.func,
                    input: a.input.clone(),
                    name: format!("{}_pcnt", a.name),
                });
                feeds.push((AggFunc::Count, vec![s]));
            }
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                let s = partials.len();
                partials.push(AggExpr {
                    func: a.func,
                    input: a.input.clone(),
                    name: format!("{}_p", a.name),
                });
                feeds.push((a.func, vec![s]));
            }
            AggFunc::CountDistinct => return None,
        }
    }
    Some((partials, feeds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{DataType, Field, Schema};
    use sirius_plan::builder::PlanBuilder;
    use sirius_plan::expr::{col, gt};

    fn scheme() -> PartitionScheme {
        PartitionScheme::tpch_default()
    }

    fn scan(table: &str, cols: &[(&str, DataType)]) -> PlanBuilder {
        PlanBuilder::scan(
            table,
            Schema::new(cols.iter().map(|(n, t)| Field::new(*n, *t)).collect()),
        )
    }

    fn count_exchanges(rel: &Rel) -> usize {
        let mut n = 0;
        visit::visit(rel, &mut |_node, r| {
            n += usize::from(matches!(r, Rel::Exchange { .. }));
        });
        n
    }

    #[test]
    fn global_aggregate_merges_partials_only() {
        // Q6-like: filter + global sum. Only one tiny merge exchange.
        let plan = scan(
            "lineitem",
            &[("l_partkey", DataType::Int64), ("v", DataType::Float64)],
        )
        .filter(gt(
            col(1),
            sirius_plan::expr::lit(sirius_columnar::Scalar::Float64(0.0)),
        ))
        .aggregate(
            vec![],
            vec![AggExpr {
                func: AggFunc::Sum,
                input: Some(col(1)),
                name: "revenue".into(),
            }],
        )
        .build();
        let d = distribute(&plan, &scheme()).unwrap();
        assert_eq!(count_exchanges(&d), 1);
        // Output schema preserved.
        assert_eq!(d.schema().unwrap().len(), plan.schema().unwrap().len());
        sirius_plan::validate::validate(&d).unwrap();
    }

    #[test]
    fn avg_decomposes_into_sum_and_count() {
        let plan = scan(
            "lineitem",
            &[("l_partkey", DataType::Int64), ("q", DataType::Float64)],
        )
        .aggregate(
            vec![col(0)],
            vec![AggExpr {
                func: AggFunc::Avg,
                input: Some(col(1)),
                name: "a".into(),
            }],
        )
        .build();
        let d = distribute(&plan, &scheme()).unwrap();
        sirius_plan::validate::validate(&d).unwrap();
        let s = d.schema().unwrap();
        assert_eq!(s.fields.last().unwrap().data_type, DataType::Float64);
        let txt = d.explain();
        assert!(txt.contains("Exchange"), "{txt}");
    }

    #[test]
    fn join_shuffles_unpartitioned_sides() {
        // customer ⋈ orders on custkey: customer is already hashed on
        // c_custkey, orders is hashed on o_orderkey → shuffle orders only.
        let plan = scan("customer", &[("c_custkey", DataType::Int64)])
            .join(
                scan(
                    "orders",
                    &[
                        ("o_orderkey", DataType::Int64),
                        ("o_custkey", DataType::Int64),
                    ],
                ),
                JoinKind::Inner,
                vec![col(0)],
                vec![col(1)],
                None,
            )
            .build();
        let d = distribute(&plan, &scheme()).unwrap();
        // One shuffle (orders) + the final merge.
        assert_eq!(count_exchanges(&d), 2, "{}", d.explain());
    }

    #[test]
    fn replicated_dimensions_join_locally() {
        let plan = scan(
            "supplier",
            &[
                ("s_suppkey", DataType::Int64),
                ("s_nationkey", DataType::Int64),
            ],
        )
        .join(
            scan("nation", &[("n_nationkey", DataType::Int64)]),
            JoinKind::Inner,
            vec![col(1)],
            vec![col(0)],
            None,
        )
        .build();
        let d = distribute(&plan, &scheme()).unwrap();
        // No shuffle for nation; just the final merge.
        assert_eq!(count_exchanges(&d), 1, "{}", d.explain());
    }

    #[test]
    fn count_distinct_shuffles_raw_rows() {
        let plan = scan(
            "partsupp",
            &[
                ("ps_partkey", DataType::Int64),
                ("ps_suppkey", DataType::Int64),
            ],
        )
        .aggregate(
            vec![col(0)],
            vec![AggExpr {
                func: AggFunc::CountDistinct,
                input: Some(col(1)),
                name: "n".into(),
            }],
        )
        .build();
        let d = distribute(&plan, &scheme()).unwrap();
        sirius_plan::validate::validate(&d).unwrap();
        // Already partitioned on ps_partkey ⇒ local. Re-key to force a
        // shuffle instead.
        let plan2 = scan(
            "partsupp",
            &[
                ("ps_partkey", DataType::Int64),
                ("ps_suppkey", DataType::Int64),
            ],
        )
        .aggregate(
            vec![col(1)],
            vec![AggExpr {
                func: AggFunc::CountDistinct,
                input: Some(col(0)),
                name: "n".into(),
            }],
        )
        .build();
        let d2 = distribute(&plan2, &scheme()).unwrap();
        assert!(count_exchanges(&d2) > count_exchanges(&d));
    }

    #[test]
    fn sort_and_limit_gather_to_node_zero() {
        let plan = scan("customer", &[("c_custkey", DataType::Int64)])
            .sort(vec![SortExpr {
                expr: col(0),
                ascending: true,
            }])
            .limit(0, Some(5))
            .build();
        let d = distribute(&plan, &scheme()).unwrap();
        // Merged once before the sort; limit stays singleton; no extra
        // merge at the root.
        assert_eq!(count_exchanges(&d), 1, "{}", d.explain());
    }

    #[test]
    fn already_distributed_plan_rejected() {
        let plan = scan("customer", &[("c_custkey", DataType::Int64)])
            .exchange(ExchangeKind::Merge)
            .build();
        assert!(distribute(&plan, &scheme()).is_err());
    }

    #[test]
    fn replicated_inputs_are_processed_where_they_are() {
        // Every operator over a replicated-only input already sees all of
        // it on every node: no exchange anywhere, not even a final merge.
        let nation = || {
            scan(
                "nation",
                &[
                    ("n_nationkey", DataType::Int64),
                    ("n_regionkey", DataType::Int64),
                ],
            )
        };
        let agg = |func, name: &str| AggExpr {
            func,
            input: (func != AggFunc::CountStar).then(|| col(0)),
            name: name.into(),
        };
        let by_key = || {
            vec![SortExpr {
                expr: col(0),
                ascending: true,
            }]
        };
        let plans = [
            nation().aggregate(
                vec![],
                vec![agg(AggFunc::Sum, "s"), agg(AggFunc::CountStar, "n")],
            ),
            nation().aggregate(vec![col(1)], vec![agg(AggFunc::CountStar, "n")]),
            nation().aggregate(vec![], vec![agg(AggFunc::CountDistinct, "d")]),
            nation().project(vec![(col(1), "r".into())]).distinct(),
            nation().sort(by_key()),
            nation().sort(by_key()).limit(0, Some(3)),
            nation().limit(2, Some(3)),
        ];
        for plan in plans {
            let plan = plan.build();
            let d = distribute(&plan, &scheme()).unwrap();
            assert_eq!(count_exchanges(&d), 0, "{}", d.explain());
            assert_eq!(d, plan, "a complete input leaves the plan as it was");
        }
        assert!(Partitioning::Replicated.is_complete() && Partitioning::Singleton.is_complete());
        assert!(
            !Partitioning::Arbitrary.is_complete() && !Partitioning::Hash(vec![]).is_complete()
        );
    }
}
