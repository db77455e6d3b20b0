//! The distributed planner: turns a single-node plan into an
//! exchange-annotated SPMD plan every node executes over its partition.
//!
//! Partitioning is tracked bottom-up; exchanges are inserted where an
//! operator's co-location requirement is not met:
//!
//! * joins follow one rule: a *complete* side (`Replicated` or `Singleton`)
//!   is never shipped; the partitioned side moves to it. A replicated right
//!   side joins locally; a `Singleton` side joins on node 0 with the other
//!   side gathered there; keyless joins, ClickHouse's broadcast build sides
//!   and non-Inner joins over a replicated left side broadcast the right
//!   side; a replicated left side under Inner joins locally; anything else
//!   shuffles both sides by their join keys;
//! * grouped aggregation runs a local **partial** aggregate, shuffles the
//!   partials by group key, and finalizes (sum-of-sums, min-of-mins,
//!   avg = sum/count) — the reason Q1's exchange traffic is tiny in
//!   Table 2; `COUNT(DISTINCT)` can't be decomposed and shuffles raw rows.
//!   The split is `sirius_plan::expr::two_phase`, the one the engine's
//!   morsel and spill aggregation use;
//! * global aggregates partial-aggregate locally and merge one row per
//!   node to the coordinator's node;
//! * sorts and limits gather to node 0.

use crate::{DorisError, Result};
use sirius_columnar::Schema;
use sirius_plan::expr::{self, AggExpr, Final, SortExpr};
use sirius_plan::visit::{self, Fold, JoinOn, Node};
use sirius_plan::{AggFunc, BinOp, ExchangeKind, Expr, JoinKind, Rel};
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
    /// Entirely on node 0. Other nodes may hold leftover rows (a global
    /// aggregate emits one over its empty merge input there), which no
    /// exchange reads: a complete side is never shipped, and whatever
    /// consumes a `Singleton` relation is `Singleton` itself.
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
        exprs: &[(Expr, std::sync::Arc<str>)],
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
        // A complete side is never shipped: the partitioned side moves to it.
        let rebuild = |l: Rel, r: Rel| plan.with_children([l, r]);
        if rpart == Partitioning::Replicated {
            // Each left row lives on one node and meets all of the right.
            return Ok((rebuild(l, r), lpart));
        }
        if lpart == Partitioning::Singleton || rpart == Partitioning::Singleton {
            // Only node 0 holds a Singleton side: join there.
            let ((l, _), (r, _)) = (gathered((l, lpart)), gathered((r, rpart)));
            return Ok((rebuild(l, r), Partitioning::Singleton));
        }
        let left_replicated = lpart == Partitioning::Replicated;
        if on.left_keys.is_empty()
            || self.opts.broadcast_join_build_sides
            || (left_replicated && on.kind != JoinKind::Inner)
        {
            // The right side is partitioned here: every node gets all of
            // it. A replicated left side must not move — Semi / Anti /
            // Left would emit each of its rows once per node.
            return Ok((rebuild(l, broadcast(r)), lpart));
        }
        if left_replicated {
            // Inner: row multiplicity comes from the partitioned right side.
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

/// Two-phase aggregation, split by [`expr::two_phase`].
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
    let Some((partials, finals)) = expr::two_phase(aggregates.iter().map(|a| a.func)) else {
        // Move raw rows (shuffle by group key, or merge for global) + full agg.
        return Ok((aggregate(colocate(child, group_by.to_vec())), grouped(k)));
    };
    // Phase 1: local partials, named after the aggregate each one feeds.
    let partial_aggs: Vec<AggExpr> = (partials.iter())
        .map(|p| {
            let a = &aggregates[p.source];
            let suffix = match (a.func, p.func) {
                (AggFunc::Avg, AggFunc::Sum) => "_psum",
                (_, AggFunc::Count | AggFunc::CountStar) => "_pcnt",
                _ => "_p",
            };
            AggExpr {
                func: p.func,
                input: a.input.clone(),
                name: format!("{}{suffix}", a.name).into(),
            }
        })
        .collect();

    // Phase 2: move partials, re-aggregate with merge functions.
    let merge_aggs: Vec<AggExpr> = (partials.iter().zip(&partial_aggs))
        .enumerate()
        .map(|(i, (p, partial))| AggExpr {
            func: p.merge(),
            input: Some(expr::col(k + i)),
            name: partial.name.clone(),
        })
        .collect();
    let moved = colocate(
        Rel::Aggregate {
            input: Box::new(child),
            group_by: group_by.to_vec(),
            aggregates: partial_aggs,
        },
        (0..k).map(expr::col).collect(),
    );
    let finalized = Rel::Aggregate {
        input: Box::new(moved),
        group_by: (0..k).map(expr::col).collect(),
        aggregates: merge_aggs,
    };

    // Phase 3: project back to the original output shape (avg = sum/count).
    let keys = (0..k).map(|i| (expr::col(i), format!("key{i}").into()));
    let mut out_exprs: Vec<_> = keys.collect();
    for (f, a) in finals.iter().zip(aggregates) {
        let e = match *f {
            Final::Merged(i) => expr::col(k + i),
            Final::Avg { sum, count } => Expr::Binary {
                op: BinOp::Div,
                left: Box::new(expr::col(k + sum)),
                right: Box::new(expr::col(k + count)),
            },
        };
        out_exprs.push((e, a.name.clone()));
    }
    let out = Rel::Project {
        input: Box::new(finalized),
        exprs: out_exprs,
    };
    Ok((out, grouped(k)))
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

    /// The exchange kinds of `rel`, in pre-order.
    fn exchanges(rel: &Rel) -> Vec<ExchangeKind> {
        let mut kinds = Vec::new();
        visit::visit(rel, &mut |_node, r| {
            if let Rel::Exchange { kind, .. } = r {
                kinds.push(kind.clone());
            }
        });
        kinds
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
        assert_eq!(exchanges(&d).len(), 1);
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
        assert_eq!(exchanges(&d).len(), 2, "{}", d.explain());
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
        assert_eq!(exchanges(&d).len(), 1, "{}", d.explain());
    }

    #[test]
    fn a_singleton_side_joins_on_node_zero() {
        // A scalar subquery is a global aggregate: whole on node 0 only.
        // It is never broadcast; the partitioned side merges to it, and
        // the join's output stays on node 0 with no final merge.
        let subquery = scan(
            "supplier",
            &[
                ("s_suppkey", DataType::Int64),
                ("s_acctbal", DataType::Float64),
            ],
        )
        .aggregate(
            vec![],
            vec![AggExpr {
                func: AggFunc::Max,
                input: Some(col(1)),
                name: "m".into(),
            }],
        );
        for opts in [false, true].map(|b| DistributeOptions {
            broadcast_join_build_sides: b,
        }) {
            let plan = scan("lineitem", &[("l_partkey", DataType::Int64)])
                .join(subquery.clone(), JoinKind::Single, vec![], vec![], None)
                .build();
            let d = distribute_with(&plan, &scheme(), opts).unwrap();
            assert!(matches!(d, Rel::Join { .. }), "{}", d.explain());
            assert_eq!(
                exchanges(&d),
                [ExchangeKind::Merge, ExchangeKind::Merge],
                "{}",
                d.explain()
            );
            sirius_plan::validate::validate(&d).unwrap();
        }
    }

    #[test]
    fn a_replicated_left_side_is_never_shipped() {
        // Semi / Anti / Left keep every left row: a replicated left side
        // stays put and the partitioned right side is broadcast to it, so
        // the output is replicated too. A keyless join broadcasts its
        // partitioned right side the same way.
        let nation = || scan("nation", &[("n_nationkey", DataType::Int64)]);
        let supplier = || {
            scan(
                "supplier",
                &[
                    ("s_suppkey", DataType::Int64),
                    ("s_nationkey", DataType::Int64),
                ],
            )
        };
        for kind in [JoinKind::Semi, JoinKind::Anti, JoinKind::Left] {
            let plan = nation()
                .join(supplier(), kind, vec![col(0)], vec![col(1)], None)
                .build();
            let d = distribute(&plan, &scheme()).unwrap();
            assert!(matches!(d, Rel::Join { .. }), "{kind:?}: {}", d.explain());
            assert_eq!(exchanges(&d), [ExchangeKind::Broadcast], "{kind:?}");
        }
        let keyless = scan("lineitem", &[("l_partkey", DataType::Int64)])
            .join(supplier(), JoinKind::Single, vec![], vec![], None)
            .build();
        let d = distribute(&keyless, &scheme()).unwrap();
        assert_eq!(
            exchanges(&d),
            [ExchangeKind::Merge, ExchangeKind::Broadcast],
            "{}",
            d.explain()
        );
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
        assert!(exchanges(&d2).len() > exchanges(&d).len());
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
        assert_eq!(exchanges(&d).len(), 1, "{}", d.explain());
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
            assert_eq!(exchanges(&d).len(), 0, "{}", d.explain());
            assert_eq!(d, plan, "a complete input leaves the plan as it was");
        }
        assert!(Partitioning::Replicated.is_complete() && Partitioning::Singleton.is_complete());
        assert!(
            !Partitioning::Arbitrary.is_complete() && !Partitioning::Hash(vec![]).is_complete()
        );
    }
}
