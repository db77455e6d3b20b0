//! The shared plan walk: every consumer of a [`Rel`] tree — the GPU
//! pipeline compiler, the CPU interpreter, the distributed fragmenter —
//! traverses plans through this module instead of hand-rolling its own
//! recursion.
//!
//! Three entry points cover the traversal shapes the engines need:
//!
//! * [`fold`] — bottom-up evaluation driven by a [`Fold`] implementation:
//!   one required method per [`Rel`] arm, each handed that arm's payload
//!   and its already-folded inputs *with the arm's arity*, so the driver
//!   holds the only `match` that pairs children with operators. The driver
//!   assigns every operator a stable **pre-order id** ([`Node`]: root = 0,
//!   children numbered depth-first left-to-right) and hands it to the
//!   callbacks, so execution, `EXPLAIN ANALYZE` rendering, and trace spans
//!   all key their per-operator data the same way without re-deriving ids
//!   themselves.
//! * [`visit`] — read-only pre-order traversal for structural checks
//!   (feature scans, invariant validation). Counting the joins of a plan is
//!   a `visit`, not a `Fold`: nothing flows from child to parent.
//! * [`try_rewrite`] — bottom-up fallible rewriting for normalization
//!   passes and fragment-boundary substitution, over the one rebuild
//!   [`Rel::try_map_children`].
//!
//! # Example: a fold handles every arm
//!
//! Rendering a plan as one line of relational algebra. A join's two sides
//! arrive as two values, a filter's input as one, a scan's as none — a
//! tenth `Rel` arm would be a compile error here, not a forgotten `_ =>`.
//!
//! ```
//! use sirius_plan::builder::PlanBuilder;
//! use sirius_plan::expr::{self, AggExpr, Expr, SortExpr};
//! use sirius_plan::visit::{fold, Fold, JoinOn, Node};
//! use sirius_plan::{ExchangeKind, JoinKind, Rel};
//! use sirius_columnar::{DataType, Field, Schema};
//! use std::sync::Arc;
//!
//! struct Algebra;
//! type Line = Result<String, std::convert::Infallible>;
//! impl Fold for Algebra {
//!     type Output = String;
//!     type Error = std::convert::Infallible;
//!     fn read(&mut self, _: Node, _: &Rel, table: &str, _: &Schema, _: &Option<Vec<usize>>) -> Line {
//!         Ok(table.to_string())
//!     }
//!     fn filter(&mut self, _: Node, _: &Rel, _: &Expr, input: String) -> Line {
//!         Ok(format!("σ({input})"))
//!     }
//!     fn project(&mut self, _: Node, _: &Rel, exprs: &[(Expr, Arc<str>)], input: String) -> Line {
//!         Ok(format!("π{}({input})", exprs.len()))
//!     }
//!     fn aggregate(&mut self, _: Node, _: &Rel, keys: &[Expr], _: &[AggExpr], input: String) -> Line {
//!         Ok(format!("γ{}({input})", keys.len()))
//!     }
//!     fn join(&mut self, _: Node, _: &Rel, on: JoinOn<'_>, left: String, right: String) -> Line {
//!         Ok(format!("({left} ⋈{:?} {right})", on.kind))
//!     }
//!     fn sort(&mut self, _: Node, _: &Rel, _: &[SortExpr], input: String) -> Line {
//!         Ok(format!("τ({input})"))
//!     }
//!     fn limit(&mut self, _: Node, _: &Rel, _: usize, fetch: Option<usize>, input: String) -> Line {
//!         Ok(format!("limit{fetch:?}({input})"))
//!     }
//!     fn distinct(&mut self, _: Node, _: &Rel, input: String) -> Line {
//!         Ok(format!("δ({input})"))
//!     }
//!     fn exchange(&mut self, _: Node, _: &Rel, _: &ExchangeKind, input: String) -> Line {
//!         Ok(format!("⇄({input})"))
//!     }
//! }
//!
//! let scan = |t| PlanBuilder::scan(t, Schema::new(vec![Field::new("k", DataType::Int64)]));
//! let plan = scan("l")
//!     .filter(expr::gt(expr::col(0), expr::lit_i64(0)))
//!     .join(scan("r"), JoinKind::Inner, vec![expr::col(0)], vec![expr::col(0)], None)
//!     .distinct()
//!     .build();
//! assert_eq!(fold(&mut Algebra, &plan).unwrap(), "δ((σ(l) ⋈Inner r))");
//! ```

use crate::expr::{AggExpr, Expr, SortExpr};
use crate::rel::{ExchangeKind, JoinKind, Rel};
use sirius_columnar::Schema;
use std::sync::Arc;

/// A plan operator's stable pre-order id and tree depth, assigned by the
/// fold/visit drivers. Ids are dense: a tree with `n` operators uses ids
/// `0..n`, the root is `0`, and a node's first child is `id + 1` (each
/// subsequent child starts after the previous sibling's whole subtree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node {
    /// Pre-order id (root = 0, children depth-first left-to-right).
    pub id: u32,
    /// Tree depth (root = 0).
    pub depth: u32,
}

impl Node {
    /// The root of a plan tree.
    pub const ROOT: Node = Node { id: 0, depth: 0 };

    /// The context of this node's first child.
    pub fn first_child(self) -> Node {
        Node {
            id: self.id + 1,
            depth: self.depth + 1,
        }
    }

    /// The sibling context following a child whose subtree is `subtree`.
    pub fn after(self, subtree: &Rel) -> Node {
        Node {
            id: self.id + subtree_size(subtree),
            depth: self.depth,
        }
    }
}

/// Number of operators in `rel`'s subtree — the step between a node's
/// pre-order id and its next sibling's.
pub fn subtree_size(rel: &Rel) -> u32 {
    rel.node_count() as u32
}

/// A join's payload, borrowed from its [`Rel::Join`]: everything but the
/// two inputs, which [`Fold::join`] receives folded.
#[derive(Debug, Clone, Copy)]
pub struct JoinOn<'a> {
    /// Join kind.
    pub kind: JoinKind,
    /// Equality keys from the left input.
    pub left_keys: &'a [Expr],
    /// Equality keys from the right input.
    pub right_keys: &'a [Expr],
    /// Residual predicate over `[left ++ right]`.
    pub residual: Option<&'a Expr>,
}

/// A bottom-up plan evaluation: one required method per [`Rel`] arm.
/// [`fold`] drives the recursion — inputs are folded first (a join's left
/// before its right) and handed to the arm's method **by value, with the
/// arm's arity** (none for a scan, `input`, or `left` and `right`), next to
/// the operator's pre-order [`Node`], the operator itself (for
/// [`Rel::output_schema`] over the input schemas the fold carries, and for
/// [`Rel::with_children`]) and its payload by reference. No method has a
/// default body: a new `Rel` arm does not compile until every consumer says
/// what it means.
///
/// [`Fold::enter`] runs before a subtree's children are visited and may
/// claim the whole subtree — the escape hatch for fused operator pairs
/// (e.g. a CPU engine charging filter-over-scan as a single pass) and for
/// subtree substitution (a fragment executor materializing everything
/// below an exchange).
pub trait Fold {
    /// Value produced per subtree.
    type Output;
    /// Error type short-circuiting the walk.
    type Error;

    /// Intercept `rel` before its children are folded. Returning `Some`
    /// replaces the subtree's entire fold (children are not visited, no
    /// arm method runs for them; sibling ids are unaffected); the default
    /// claims nothing.
    fn enter(&mut self, node: Node, rel: &Rel) -> Option<Result<Self::Output, Self::Error>> {
        let _ = (node, rel);
        None
    }

    /// A [`Rel::Read`]: a leaf, so no folded input.
    fn read(
        &mut self,
        node: Node,
        rel: &Rel,
        table: &str,
        schema: &Schema,
        projection: &Option<Vec<usize>>,
    ) -> Result<Self::Output, Self::Error>;

    /// A [`Rel::Filter`] over its folded `input`.
    fn filter(
        &mut self,
        node: Node,
        rel: &Rel,
        predicate: &Expr,
        input: Self::Output,
    ) -> Result<Self::Output, Self::Error>;

    /// A [`Rel::Project`] over its folded `input`.
    fn project(
        &mut self,
        node: Node,
        rel: &Rel,
        exprs: &[(Expr, Arc<str>)],
        input: Self::Output,
    ) -> Result<Self::Output, Self::Error>;

    /// A [`Rel::Aggregate`] over its folded `input`.
    fn aggregate(
        &mut self,
        node: Node,
        rel: &Rel,
        group_by: &[Expr],
        aggregates: &[AggExpr],
        input: Self::Output,
    ) -> Result<Self::Output, Self::Error>;

    /// A [`Rel::Join`] over its folded `left` and `right`.
    fn join(
        &mut self,
        node: Node,
        rel: &Rel,
        on: JoinOn<'_>,
        left: Self::Output,
        right: Self::Output,
    ) -> Result<Self::Output, Self::Error>;

    /// A [`Rel::Sort`] over its folded `input`.
    fn sort(
        &mut self,
        node: Node,
        rel: &Rel,
        keys: &[SortExpr],
        input: Self::Output,
    ) -> Result<Self::Output, Self::Error>;

    /// A [`Rel::Limit`] over its folded `input`.
    fn limit(
        &mut self,
        node: Node,
        rel: &Rel,
        offset: usize,
        fetch: Option<usize>,
        input: Self::Output,
    ) -> Result<Self::Output, Self::Error>;

    /// A [`Rel::Distinct`] over its folded `input`.
    fn distinct(
        &mut self,
        node: Node,
        rel: &Rel,
        input: Self::Output,
    ) -> Result<Self::Output, Self::Error>;

    /// A [`Rel::Exchange`] over its folded `input`.
    fn exchange(
        &mut self,
        node: Node,
        rel: &Rel,
        kind: &ExchangeKind,
        input: Self::Output,
    ) -> Result<Self::Output, Self::Error>;
}

/// Fold `rel` bottom-up with pre-order ids assigned from [`Node::ROOT`].
pub fn fold<F: Fold>(f: &mut F, rel: &Rel) -> Result<F::Output, F::Error> {
    fold_at(f, rel, Node::ROOT)
}

/// [`fold`] starting from an explicit node context (sub-plan folding). The
/// only place folded children are paired with their operator's arm.
pub fn fold_at<F: Fold>(f: &mut F, rel: &Rel, node: Node) -> Result<F::Output, F::Error> {
    if let Some(claimed) = f.enter(node, rel) {
        return claimed;
    }
    let child = node.first_child();
    match rel {
        Rel::Read {
            table,
            schema,
            projection,
        } => f.read(node, rel, table, schema, projection),
        Rel::Filter { input, predicate } => {
            let input = fold_at(f, input, child)?;
            f.filter(node, rel, predicate, input)
        }
        Rel::Project { input, exprs } => {
            let input = fold_at(f, input, child)?;
            f.project(node, rel, exprs, input)
        }
        Rel::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let input = fold_at(f, input, child)?;
            f.aggregate(node, rel, group_by, aggregates, input)
        }
        Rel::Join {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
        } => {
            let on = JoinOn {
                kind: *kind,
                left_keys,
                right_keys,
                residual: residual.as_ref(),
            };
            let l = fold_at(f, left, child)?;
            let r = fold_at(f, right, child.after(left))?;
            f.join(node, rel, on, l, r)
        }
        Rel::Sort { input, keys } => {
            let input = fold_at(f, input, child)?;
            f.sort(node, rel, keys, input)
        }
        Rel::Limit {
            input,
            offset,
            fetch,
        } => {
            let input = fold_at(f, input, child)?;
            f.limit(node, rel, *offset, *fetch, input)
        }
        Rel::Distinct { input } => {
            let input = fold_at(f, input, child)?;
            f.distinct(node, rel, input)
        }
        Rel::Exchange { input, kind } => {
            let input = fold_at(f, input, child)?;
            f.exchange(node, rel, kind, input)
        }
    }
}

/// Pre-order read-only traversal: `f` sees every operator with its
/// pre-order [`Node`], parents before children.
pub fn visit<'a>(rel: &'a Rel, f: &mut impl FnMut(Node, &'a Rel)) {
    fn walk<'a>(rel: &'a Rel, node: Node, f: &mut impl FnMut(Node, &'a Rel)) {
        f(node, rel);
        let mut child = node.first_child();
        for c in rel.children() {
            walk(c, child, f);
            child = child.after(c);
        }
    }
    walk(rel, Node::ROOT, f);
}

/// Fallible pre-order traversal: stops at the first error.
pub fn try_visit<'a, E>(
    rel: &'a Rel,
    f: &mut impl FnMut(Node, &'a Rel) -> Result<(), E>,
) -> Result<(), E> {
    fn walk<'a, E>(
        rel: &'a Rel,
        node: Node,
        f: &mut impl FnMut(Node, &'a Rel) -> Result<(), E>,
    ) -> Result<(), E> {
        f(node, rel)?;
        let mut child = node.first_child();
        for c in rel.children() {
            walk(c, child, f)?;
            child = child.after(c);
        }
        Ok(())
    }
    walk(rel, Node::ROOT, f)
}

/// Bottom-up rewrite: children are rewritten first (left-to-right — the
/// order of [`Rel::try_map_children`], which fragment executors rely on for
/// collective sequencing), the node is rebuilt around them, and `f` maps
/// the rebuilt node to its replacement. Normalization passes and the
/// fragment executor's exchange-to-temp-table substitution are both this
/// shape.
pub fn try_rewrite<E>(rel: &Rel, f: &mut impl FnMut(Rel) -> Result<Rel, E>) -> Result<Rel, E> {
    let rebuilt = rel.try_map_children(|child| try_rewrite(child, f))?;
    f(rebuilt)
}

/// Infallible [`try_rewrite`].
pub fn rewrite(rel: &Rel, f: &mut impl FnMut(Rel) -> Rel) -> Rel {
    match try_rewrite::<std::convert::Infallible>(rel, &mut |r| Ok(f(r))) {
        Ok(r) => r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::expr::{self, col, gt, lit_i64};
    use sirius_columnar::{DataType, Field};
    use std::convert::Infallible;

    fn scan(name: &str) -> PlanBuilder {
        PlanBuilder::scan(name, Schema::new(vec![Field::new("k", DataType::Int64)]))
    }

    /// Join(0) { Filter(1) -> Read(2), Read(3) } — ids skip whole subtrees.
    fn join_plan() -> Rel {
        scan("l")
            .filter(gt(col(0), lit_i64(0)))
            .join(scan("r"), JoinKind::Inner, vec![col(0)], vec![col(0)], None)
            .build()
    }

    /// A subtree's output is the pre-order ids of the arms that ran for it,
    /// inputs first (a join's left before its right), its own id last; with
    /// `claim_filters`, `enter` takes every `Filter` subtree for nothing.
    struct Ids {
        claim_filters: bool,
    }

    type Seen = Result<Vec<u32>, Infallible>;

    fn after(node: Node, mut inputs: Vec<u32>) -> Seen {
        inputs.push(node.id);
        Ok(inputs)
    }

    impl Fold for Ids {
        type Output = Vec<u32>;
        type Error = Infallible;
        fn enter(&mut self, _node: Node, rel: &Rel) -> Option<Seen> {
            (self.claim_filters && matches!(rel, Rel::Filter { .. })).then(|| Ok(Vec::new()))
        }
        fn read(&mut self, n: Node, _: &Rel, _: &str, _: &Schema, _: &Option<Vec<usize>>) -> Seen {
            after(n, Vec::new())
        }
        fn filter(&mut self, n: Node, _: &Rel, _: &Expr, input: Vec<u32>) -> Seen {
            after(n, input)
        }
        fn project(&mut self, n: Node, _: &Rel, _: &[(Expr, Arc<str>)], input: Vec<u32>) -> Seen {
            after(n, input)
        }
        fn aggregate(
            &mut self,
            n: Node,
            _: &Rel,
            _: &[Expr],
            _: &[AggExpr],
            input: Vec<u32>,
        ) -> Seen {
            after(n, input)
        }
        fn join(&mut self, n: Node, _: &Rel, _: JoinOn<'_>, l: Vec<u32>, r: Vec<u32>) -> Seen {
            after(n, [l, r].concat())
        }
        fn sort(&mut self, n: Node, _: &Rel, _: &[SortExpr], input: Vec<u32>) -> Seen {
            after(n, input)
        }
        fn limit(&mut self, n: Node, _: &Rel, _: usize, _: Option<usize>, input: Vec<u32>) -> Seen {
            after(n, input)
        }
        fn distinct(&mut self, n: Node, _: &Rel, input: Vec<u32>) -> Seen {
            after(n, input)
        }
        fn exchange(&mut self, n: Node, _: &Rel, _: &ExchangeKind, input: Vec<u32>) -> Seen {
            after(n, input)
        }
    }

    #[test]
    fn visit_assigns_preorder_ids() {
        let mut seen = Vec::new();
        visit(&join_plan(), &mut |node, rel| {
            seen.push((node.id, node.depth, std::mem::discriminant(rel)));
        });
        let ids: Vec<u32> = seen.iter().map(|(i, _, _)| *i).collect();
        let depths: Vec<u32> = seen.iter().map(|(_, d, _)| *d).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(depths, vec![0, 1, 2, 1]);
    }

    #[test]
    fn fold_hands_children_in_order() {
        // Post-order over pre-order ids: the left subtree (Read 2 under
        // Filter 1) arrives as `left`, Read 3 as `right`, the join last.
        let mut ids = Ids {
            claim_filters: false,
        };
        assert_eq!(fold(&mut ids, &join_plan()), Ok(vec![2, 1, 3, 0]));
    }

    #[test]
    fn enter_claims_whole_subtrees() {
        // The claimed Filter(1)-over-Read(2) subtree runs neither arm's
        // method; its sibling is still Read 3 and the join still 0.
        let mut ids = Ids {
            claim_filters: true,
        };
        assert_eq!(fold(&mut ids, &join_plan()), Ok(vec![3, 0]));
    }

    #[test]
    fn rewrite_rebuilds_bottom_up() {
        // Rename every table; the rewritten tree keeps its shape.
        let out = rewrite(&join_plan(), &mut |r| match r {
            Rel::Read {
                schema, projection, ..
            } => Rel::Read {
                table: "renamed".into(),
                schema,
                projection,
            },
            other => other,
        });
        assert_eq!(out.tables(), vec!["renamed".to_string(); 2]);
        assert_eq!(out.node_count(), 4);
    }

    #[test]
    fn try_rewrite_visits_left_then_right_bottom_up() {
        // (a ⋈ b) ⋈ c: fragment executors issue one collective per rebuilt
        // exchange, so every node must see the same order.
        let on = || (JoinKind::Inner, vec![col(0)], vec![col(0)], None);
        let (kind, l, r, res) = on();
        let inner = scan("a").join(scan("b"), kind, l, r, res);
        let (kind, l, r, res) = on();
        let plan = inner.join(scan("c"), kind, l, r, res).build();
        let mut order = Vec::new();
        let out = rewrite(&plan, &mut |r| {
            order.push(match &r {
                Rel::Read { table, .. } => table.clone(),
                other => format!("join of {}", other.tables().join("+")),
            });
            r
        });
        assert_eq!(order, ["a", "b", "join of a+b", "c", "join of a+b+c"]);
        assert_eq!(out, plan, "an identity rewrite rebuilds an equal plan");
    }

    #[test]
    fn try_rewrite_short_circuits() {
        let mut calls = 0;
        let err: Result<Rel, &str> = try_rewrite(&join_plan(), &mut |r| {
            calls += 1;
            if matches!(r, Rel::Filter { .. }) {
                Err("stop")
            } else {
                Ok(r)
            }
        });
        assert_eq!(err, Err("stop"));
        // Bottom-up: left Read, then the Filter errors; the right subtree
        // is never rebuilt.
        assert_eq!(calls, 2);
    }

    #[test]
    fn subtree_sizes_match_node_counts() {
        let plan = join_plan();
        assert_eq!(subtree_size(&plan), 4);
        let sort = scan("t")
            .aggregate(
                vec![col(0)],
                vec![expr::AggExpr {
                    func: crate::AggFunc::CountStar,
                    input: None,
                    name: "n".into(),
                }],
            )
            .build();
        assert_eq!(subtree_size(&sort), 2);
    }
}
