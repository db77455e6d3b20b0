//! The shared plan walk over real plans: an identity [`Fold`] that rebuilds
//! every operator from its folded inputs through the one rebuild
//! ([`Rel::with_children`]) must return a plan equal to its input and run
//! one arm per operator under exactly `visit`'s pre-order `(id, depth)`
//! numbering — over all 22 TPC-H plans and their distributed forms, so
//! `Exchange` and the two-input `Join` are covered alongside every arm the
//! SQL frontend emits. EXPLAIN ANALYZE prints its rows under the same
//! numbering.

use sirius_columnar::Schema;
use sirius_core::{EngineConfig, SiriusEngine};
use sirius_doris::{distribute, PartitionScheme};
use sirius_hw::catalog as hw;
use sirius_integration::binder_catalog;
use sirius_plan::expr::{AggExpr, Expr, SortExpr};
use sirius_plan::visit::{fold, visit, Fold, JoinOn, Node};
use sirius_plan::{ExchangeKind, Rel};
use sirius_sql::{plan_sql, JoinOrderPolicy};
use sirius_tpch::{queries, TpchGenerator};
use std::convert::Infallible;
use std::sync::Arc;

/// Rebuilds each operator around its folded inputs and notes which arm ran
/// for which node.
#[derive(Default)]
struct Identity {
    seen: Vec<(u32, u32, &'static str)>,
}

type Rebuilt = Result<Rel, Infallible>;

impl Identity {
    fn arm<const N: usize>(
        &mut self,
        n: Node,
        arm: &'static str,
        rel: &Rel,
        i: [Rel; N],
    ) -> Rebuilt {
        self.seen.push((n.id, n.depth, arm));
        Ok(rel.with_children(i))
    }
}

impl Fold for Identity {
    type Output = Rel;
    type Error = Infallible;
    fn read(&mut self, n: Node, r: &Rel, _: &str, _: &Schema, _: &Option<Vec<usize>>) -> Rebuilt {
        self.arm(n, "Read", r, [])
    }
    fn filter(&mut self, n: Node, r: &Rel, _: &Expr, input: Rel) -> Rebuilt {
        self.arm(n, "Filter", r, [input])
    }
    fn project(&mut self, n: Node, r: &Rel, _: &[(Expr, Arc<str>)], input: Rel) -> Rebuilt {
        self.arm(n, "Project", r, [input])
    }
    fn aggregate(&mut self, n: Node, r: &Rel, _: &[Expr], _: &[AggExpr], input: Rel) -> Rebuilt {
        self.arm(n, "Aggregate", r, [input])
    }
    fn join(&mut self, n: Node, r: &Rel, _: JoinOn<'_>, left: Rel, right: Rel) -> Rebuilt {
        self.arm(n, "Join", r, [left, right])
    }
    fn sort(&mut self, n: Node, r: &Rel, _: &[SortExpr], input: Rel) -> Rebuilt {
        self.arm(n, "Sort", r, [input])
    }
    fn limit(&mut self, n: Node, r: &Rel, _: usize, _: Option<usize>, input: Rel) -> Rebuilt {
        self.arm(n, "Limit", r, [input])
    }
    fn distinct(&mut self, n: Node, r: &Rel, input: Rel) -> Rebuilt {
        self.arm(n, "Distinct", r, [input])
    }
    fn exchange(&mut self, n: Node, r: &Rel, _: &ExchangeKind, input: Rel) -> Rebuilt {
        self.arm(n, "Exchange", r, [input])
    }
}

/// The arm [`fold`] must pick for `rel`.
fn arm_of(rel: &Rel) -> &'static str {
    match rel {
        Rel::Read { .. } => "Read",
        Rel::Filter { .. } => "Filter",
        Rel::Project { .. } => "Project",
        Rel::Aggregate { .. } => "Aggregate",
        Rel::Join { .. } => "Join",
        Rel::Sort { .. } => "Sort",
        Rel::Limit { .. } => "Limit",
        Rel::Distinct { .. } => "Distinct",
        Rel::Exchange { .. } => "Exchange",
    }
}

#[test]
fn identity_fold_rebuilds_every_tpch_plan_under_visits_numbering() {
    let cat = binder_catalog(&TpchGenerator::new(0.01).generate());
    let scheme = PartitionScheme::tpch_default();
    let mut arms = std::collections::BTreeSet::new();
    for (id, sql) in queries::all() {
        let plan = plan_sql(sql, &cat, JoinOrderPolicy::Optimized).unwrap();
        let dist = distribute(&plan, &scheme).unwrap();
        for (label, plan) in [("single-node", &plan), ("distributed", &dist)] {
            let mut identity = Identity::default();
            let rebuilt = fold(&mut identity, plan).unwrap();
            assert_eq!(&rebuilt, plan, "Q{id} {label}: rebuilt plan differs");

            let mut preorder = Vec::new();
            visit(plan, &mut |node, rel| {
                preorder.push((node.id, node.depth, arm_of(rel)));
            });
            // A fold runs its arms bottom-up; by id it is the pre-order.
            identity.seen.sort_unstable();
            assert_eq!(identity.seen, preorder, "Q{id} {label}: ids or arms differ");
            arms.extend(preorder.iter().map(|(_, _, arm)| *arm));
        }
    }
    // No TPC-H plan holds a `Distinct` (the binder plans DISTINCT as an
    // aggregate); the `visit.rs` module example folds one.
    let all = "Aggregate Exchange Filter Join Limit Project Read Sort";
    assert_eq!(arms.into_iter().collect::<Vec<_>>().join(" "), all);
}

/// Every EXPLAIN ANALYZE row of a compiled TPC-H plan is indented by
/// `visit`'s depth and tagged `[#id]` with `visit`'s id over the plan the
/// engine compiled, in pre-order — the ids `operator_stats` are keyed by.
#[test]
fn explain_analyze_rows_carry_visits_ids() {
    let cat = binder_catalog(&TpchGenerator::new(0.01).generate());
    let engine = SiriusEngine::from_config(EngineConfig::new(hw::gh200_gpu()));
    for (id, sql) in queries::all() {
        let plan = plan_sql(sql, &cat, JoinOrderPolicy::Optimized).unwrap();
        let compiled = engine.compile_query(&plan).unwrap();
        let mut preorder = Vec::new();
        visit(compiled.root(), &mut |node, _| {
            preorder.push((node.depth, node.id));
        });
        let rendered = engine.explain_analyze(&plan);
        let rows: Vec<(u32, u32)> = rendered
            .lines()
            .skip(1)
            .map(|line| {
                let depth = (line.len() - line.trim_start().len()) / 2;
                let tag = line.split("[#").nth(1).and_then(|t| t.split(']').next());
                let node = tag.and_then(|t| t.parse().ok());
                (
                    depth as u32,
                    node.unwrap_or_else(|| panic!("Q{id}: {line}")),
                )
            })
            .collect();
        assert_eq!(rows, preorder, "Q{id}:\n{rendered}");
    }
}
