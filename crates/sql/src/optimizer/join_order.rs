//! Join enumeration and build-side selection.
//!
//! Extracted from `bind` so planning decisions live in the optimizer
//! layer: the greedy left-deep enumerator is unchanged from the binder
//! era and remains **bit-for-bit identical** when driven by estimate-only
//! [`Statistics`] (the default). What the extraction adds is the feedback
//! path: when `Statistics::actual_rows` has observed cardinalities for a
//! subtree's base-table set (recorded from `operator_stats` on a previous
//! run of the same plan shape), those actuals replace the estimates in
//! the greedy choice, and — where both sides of an inner join have been
//! observed — the *build side* flips onto the genuinely smaller input.
//!
//! The build-side flip is where Q3-class wins come from: estimates put
//! lineitem's filtered cardinality far below its actual, so the default
//! plan materializes a huge build table while streaming the small side.
//! With actuals the orderer swaps the join inputs (and restores the
//! original column order with a projection so downstream ordinals never
//! move), turning the large side into the streamed probe input.
//! Estimate-only plans are never swapped — adaptivity requires evidence.

use crate::binder::JoinOrderPolicy;
use crate::optimizer::stats::Statistics;
use crate::Result;
use sirius_columnar::Schema;
use sirius_plan::expr::{self};
use sirius_plan::{BinOp, Expr, JoinKind, Rel};
use std::collections::{BTreeSet, HashMap};

/// A bound FROM unit handed to the orderer: plan + estimated cardinality.
pub struct JoinRelation {
    /// Bound plan for this FROM item (filters already pushed).
    pub plan: Rel,
    /// Output schema of `plan`.
    pub schema: Schema,
    /// Estimated output cardinality.
    pub estimate: f64,
}

impl JoinRelation {
    /// Filter this relation by `predicate` (ordinals local to its schema)
    /// and scale its estimate by `selectivity`.
    pub(crate) fn push_filter(&mut self, predicate: Expr, selectivity: f64) {
        self.plan = Rel::Filter {
            input: Box::new(std::mem::replace(&mut self.plan, placeholder())),
            predicate,
        };
        self.estimate *= selectivity;
    }
}

/// Greedy left-deep join orderer over a [`Statistics`] source.
pub struct JoinOrderer<'a> {
    policy: JoinOrderPolicy,
    stats: &'a dyn Statistics,
}

impl<'a> JoinOrderer<'a> {
    /// An orderer for `policy` driven by `stats`.
    pub fn new(policy: JoinOrderPolicy, stats: &'a dyn Statistics) -> Self {
        JoinOrderer { policy, stats }
    }

    /// Build the join tree. Returns the plan, the map from
    /// original-product ordinals to final ordinals, and the final schema.
    ///
    /// `orig_offsets[i]` is the offset of relation `i`'s columns in the
    /// original FROM-order product; each edge is a bound conjunct over
    /// that product plus the set of relations it references.
    pub fn build(
        &self,
        mut relations: Vec<JoinRelation>,
        orig_offsets: &[usize],
        mut edges: Vec<(Expr, Vec<usize>)>,
    ) -> Result<(Rel, Vec<usize>, Schema)> {
        let n = relations.len();
        let widths: Vec<usize> = relations.iter().map(|r| r.schema.len()).collect();
        let total: usize = widths.iter().sum();
        let mut final_map = vec![usize::MAX; total];
        let sets = feedback_sets(&relations);

        // Pick the starting relation.
        let mut remaining: Vec<usize> = (0..n).collect();
        let start = match self.policy {
            JoinOrderPolicy::Optimized => self.cheapest(&remaining, &sets, &relations),
            JoinOrderPolicy::FromOrder => 0,
        };
        remaining.retain(|&r| r != start);
        let mut joined = vec![start];
        let mut plan = std::mem::replace(&mut relations[start].plan, placeholder());
        let mut schema = relations[start].schema.clone();
        for c in 0..widths[start] {
            final_map[orig_offsets[start] + c] = c;
        }
        // The joined subtree's base-table set (None once any ambiguous
        // or table-free relation joins in).
        let mut joined_set = sets[start].clone();

        while !remaining.is_empty() {
            let next = self.next_relation(&remaining, &joined, &edges, &sets, &relations);
            remaining.retain(|&r| r != next);

            let left_width = schema.len();
            // Assign final ordinals for `next`.
            for c in 0..widths[next] {
                final_map[orig_offsets[next] + c] = left_width + c;
            }
            let next_cols = orig_offsets[next]..orig_offsets[next] + widths[next];
            let (on, rest) = split_edges(edges, next, next_cols, &joined, &final_map, left_width);
            edges = rest;

            let next_schema = relations[next].schema.clone();
            let right_plan = std::mem::replace(&mut relations[next].plan, placeholder());
            let swap = !on.left_keys.is_empty()
                && on.residual.is_empty()
                && self.should_swap(&joined_set, &sets[next]);
            plan = join_node((plan, &schema), (right_plan, &next_schema), on, swap);
            schema = schema.join(&next_schema);
            joined.push(next);
            joined_set = match (joined_set, &sets[next]) {
                (Some(mut a), Some(b)) => {
                    a.extend(b.iter().cloned());
                    Some(a)
                }
                _ => None,
            };
        }

        // Any edges never consumed (e.g. three-relation predicates)
        // become a final filter.
        if !edges.is_empty() {
            let conj: Vec<Expr> = edges
                .into_iter()
                .map(|(e, _)| e.remap_columns(&|i| final_map[i]))
                .collect();
            plan = Rel::Filter {
                input: Box::new(plan),
                predicate: expr::and_all(conj),
            };
        }

        Ok((plan, final_map, schema))
    }

    /// The relation of `pool` with the fewest rows — the observed actual
    /// when feedback has its subtree, its estimate otherwise (with
    /// estimate-only statistics the historical greedy input, unchanged);
    /// the first of equals.
    fn cheapest(
        &self,
        pool: &[usize],
        sets: &[Option<BTreeSet<String>>],
        relations: &[JoinRelation],
    ) -> usize {
        let card = |i: usize| -> f64 {
            sets[i]
                .as_ref()
                .and_then(|s| self.stats.actual_rows(s))
                .unwrap_or(relations[i].estimate)
        };
        pool.iter()
            .copied()
            .min_by(|&a, &b| card(a).total_cmp(&card(b)))
            .expect("non-empty FROM")
    }

    /// One greedy choice: the cheapest relation an edge connects to the
    /// joined ones (any remaining one when none is connected), or under
    /// `FromOrder` the first connected one in FROM order.
    fn next_relation(
        &self,
        remaining: &[usize],
        joined: &[usize],
        edges: &[(Expr, Vec<usize>)],
        sets: &[Option<BTreeSet<String>>],
        relations: &[JoinRelation],
    ) -> usize {
        let connected = |cand: usize| edges.iter().any(|(_, rels)| applies(rels, cand, joined));
        let mut conn = remaining.iter().copied().filter(|&r| connected(r));
        match self.policy {
            JoinOrderPolicy::Optimized => {
                let conn: Vec<usize> = conn.collect();
                let pool = if conn.is_empty() { remaining } else { &conn };
                self.cheapest(pool, sets, relations)
            }
            JoinOrderPolicy::FromOrder => conn.next().unwrap_or(remaining[0]),
        }
    }

    /// Flip the build side only on evidence: both sides observed, and the
    /// joined subtree (the default build input) actually smaller than the
    /// incoming relation. Estimate-only statistics never observe, so the
    /// default plan is untouched.
    fn should_swap(
        &self,
        joined_set: &Option<BTreeSet<String>>,
        next_set: &Option<BTreeSet<String>>,
    ) -> bool {
        if self.policy != JoinOrderPolicy::Optimized {
            return false;
        }
        let (Some(joined), Some(next)) = (joined_set, next_set) else {
            return false;
        };
        match (self.stats.actual_rows(joined), self.stats.actual_rows(next)) {
            (Some(j), Some(n)) => j < n,
            _ => false,
        }
    }
}

/// Base-table sets per relation, the key under which feedback records
/// actuals. A table appearing more than once in the query (self-join)
/// makes the set ambiguous — those relations opt out of feedback and keep
/// their estimates.
fn feedback_sets(relations: &[JoinRelation]) -> Vec<Option<BTreeSet<String>>> {
    let mut occurrences: HashMap<&str, usize> = HashMap::new();
    let tables_per_rel: Vec<Vec<String>> = relations.iter().map(|r| r.plan.tables()).collect();
    for ts in &tables_per_rel {
        for t in ts {
            *occurrences.entry(t.as_str()).or_insert(0) += 1;
        }
    }
    tables_per_rel
        .iter()
        .map(|ts| {
            if ts.is_empty() || ts.iter().any(|t| occurrences[t.as_str()] > 1) {
                None
            } else {
                Some(ts.iter().cloned().collect())
            }
        })
        .collect()
}

/// Whether an edge over relations `rels` can be evaluated once `cand` joins
/// the `joined` ones: it references `cand` and nothing outside them.
fn applies(rels: &[usize], cand: usize, joined: &[usize]) -> bool {
    rels.contains(&cand) && rels.iter().all(|r| *r == cand || joined.contains(r))
}

/// What the edges applicable to one join say: equality keys per side and
/// the conjuncts left over, all in final ordinals (right keys local to the
/// incoming relation).
struct JoinCondition {
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    residual: Vec<Expr>,
}

/// Partition `edges` for the join of relation `next` (original-product
/// columns `next_cols`) onto the `joined` ones (`left_width` columns wide):
/// the applicable edges become the join's condition, the rest is returned
/// for later joins.
fn split_edges(
    edges: Vec<(Expr, Vec<usize>)>,
    next: usize,
    next_cols: std::ops::Range<usize>,
    joined: &[usize],
    final_map: &[usize],
    left_width: usize,
) -> (JoinCondition, Vec<(Expr, Vec<usize>)>) {
    let mut on = JoinCondition {
        left_keys: Vec::new(),
        right_keys: Vec::new(),
        residual: Vec::new(),
    };
    let mut rest = Vec::new();
    for (e, rels) in edges {
        if !applies(&rels, next, joined) {
            rest.push((e, rels));
            continue;
        }
        let in_next = |x: &Expr| {
            let mut refs = Vec::new();
            x.referenced_columns(&mut refs);
            !refs.is_empty() && refs.iter().all(|r| next_cols.contains(r))
        };
        let in_joined = |x: &Expr| {
            let mut refs = Vec::new();
            x.referenced_columns(&mut refs);
            !refs.is_empty() && refs.iter().all(|&r| final_map[r] < left_width)
        };
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = &e
        {
            if in_joined(left) && in_next(right) {
                on.left_keys.push(left.remap_columns(&|i| final_map[i]));
                on.right_keys
                    .push(right.remap_columns(&|i| i - next_cols.start));
                continue;
            }
            if in_next(left) && in_joined(right) {
                on.left_keys.push(right.remap_columns(&|i| final_map[i]));
                on.right_keys
                    .push(left.remap_columns(&|i| i - next_cols.start));
                continue;
            }
        }
        on.residual.push(e.remap_columns(&|i| final_map[i]));
    }
    (on, rest)
}

/// The join of `right` onto `left` under `on`: a cross join when no key
/// applies, else an inner join — with the inputs swapped under a restoring
/// projection when `swap` (see [`JoinOrderer::should_swap`]).
fn join_node(
    (left, left_schema): (Rel, &Schema),
    (right, right_schema): (Rel, &Schema),
    on: JoinCondition,
    swap: bool,
) -> Rel {
    let residual = (!on.residual.is_empty()).then(|| expr::and_all(on.residual));
    if on.left_keys.is_empty() {
        return Rel::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind: JoinKind::Cross,
            left_keys: vec![],
            right_keys: vec![],
            residual,
        };
    }
    if !swap {
        return Rel::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind: JoinKind::Inner,
            left_keys: on.left_keys,
            right_keys: on.right_keys,
            residual,
        };
    }
    // Build-side flip: the probe pipeline streams while the build
    // pipeline materializes its whole input, so with observed actuals on
    // both sides the smaller one belongs on the build (right) side. A
    // restoring projection keeps the output column order identical to the
    // unswapped join, so downstream ordinals and `final_map` stay valid
    // untouched.
    let swapped = Rel::Join {
        left: Box::new(right),
        right: Box::new(left),
        kind: JoinKind::Inner,
        left_keys: on.right_keys,
        right_keys: on.left_keys,
        residual: None,
    };
    let w_next = right_schema.len();
    let mut exprs = Vec::with_capacity(left_schema.len() + w_next);
    for (i, f) in left_schema.fields.iter().enumerate() {
        exprs.push((expr::col(w_next + i), f.name.clone()));
    }
    for (j, f) in right_schema.fields.iter().enumerate() {
        exprs.push((expr::col(j), f.name.clone()));
    }
    Rel::Project {
        input: Box::new(swapped),
        exprs,
    }
}

fn placeholder() -> Rel {
    Rel::Read {
        table: String::new(),
        schema: Schema::empty(),
        projection: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::stats::CatalogStatistics;
    use crate::BinderCatalog;
    use sirius_columnar::{DataType, Field};

    struct Feedback {
        catalog_rows: HashMap<String, f64>,
        actuals: HashMap<BTreeSet<String>, f64>,
    }

    impl Statistics for Feedback {
        fn base_rows(&self, table: &str) -> Option<f64> {
            self.catalog_rows.get(table).copied()
        }
        fn actual_rows(&self, tables: &BTreeSet<String>) -> Option<f64> {
            self.actuals.get(tables).copied()
        }
    }

    fn table(name: &str, rows: f64) -> JoinRelation {
        let schema = Schema::new(vec![Field::new(format!("{name}.k"), DataType::Int64)]);
        JoinRelation {
            plan: Rel::Read {
                table: name.to_string(),
                schema: schema.clone(),
                projection: None,
            },
            schema,
            estimate: rows,
        }
    }

    fn eq_edge(l: usize, r: usize) -> (Expr, Vec<usize>) {
        (
            expr::eq(expr::col(l), expr::col(r)),
            vec![l.min(r), l.max(r)],
        )
    }

    fn join_structure(rel: &Rel) -> String {
        match rel {
            Rel::Read { table, .. } => table.clone(),
            Rel::Join { left, right, .. } => {
                format!("({} ⋈ {})", join_structure(left), join_structure(right))
            }
            Rel::Project { input, .. } => format!("π{}", join_structure(input)),
            Rel::Filter { input, .. } => join_structure(input),
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn estimate_only_never_swaps() {
        let cat = BinderCatalog::new();
        let stats = CatalogStatistics::new(&cat);
        let orderer = JoinOrderer::new(JoinOrderPolicy::Optimized, &stats);
        let rels = vec![table("small", 10.0), table("big", 1000.0)];
        let (plan, _, _) = orderer.build(rels, &[0, 1], vec![eq_edge(0, 1)]).unwrap();
        assert_eq!(join_structure(&plan), "(small ⋈ big)");
    }

    #[test]
    fn actuals_flip_build_side_with_restoring_projection() {
        // Estimates say `small` is tiny, so it starts and `big` becomes
        // the build side. Actuals reveal the opposite: the joined side
        // (small, 5 rows observed) is smaller than big's observed 50000,
        // so the join flips and a projection restores column order.
        let stats = Feedback {
            catalog_rows: HashMap::new(),
            actuals: HashMap::from([
                (BTreeSet::from(["small".to_string()]), 5.0),
                (BTreeSet::from(["big".to_string()]), 50_000.0),
            ]),
        };
        let orderer = JoinOrderer::new(JoinOrderPolicy::Optimized, &stats);
        let rels = vec![table("small", 10.0), table("big", 1000.0)];
        let (plan, _, schema) = orderer.build(rels, &[0, 1], vec![eq_edge(0, 1)]).unwrap();
        assert_eq!(join_structure(&plan), "π(big ⋈ small)");
        // The restoring projection preserves the unswapped output order.
        assert_eq!(schema.fields[0].name, "small.k");
        assert_eq!(schema.fields[1].name, "big.k");
        let Rel::Project { input, exprs } = &plan else {
            panic!("expected restoring projection");
        };
        assert_eq!(exprs[0].0, expr::col(1));
        assert_eq!(exprs[1].0, expr::col(0));
        let Rel::Join {
            left_keys,
            right_keys,
            ..
        } = &**input
        else {
            panic!("expected join under projection");
        };
        assert_eq!(left_keys.len(), 1);
        assert_eq!(right_keys.len(), 1);
    }

    #[test]
    fn self_join_tables_opt_out_of_feedback() {
        // Both relations read the same table: actuals are ambiguous, so
        // even wildly inverted observations must not flip anything.
        let stats = Feedback {
            catalog_rows: HashMap::new(),
            actuals: HashMap::from([(BTreeSet::from(["t".to_string()]), 1.0)]),
        };
        let orderer = JoinOrderer::new(JoinOrderPolicy::Optimized, &stats);
        let rels = vec![table("t", 10.0), table("t", 1000.0)];
        let (plan, _, _) = orderer.build(rels, &[0, 1], vec![eq_edge(0, 1)]).unwrap();
        assert_eq!(join_structure(&plan), "(t ⋈ t)");
    }

    #[test]
    fn from_order_policy_ignores_actuals() {
        let stats = Feedback {
            catalog_rows: HashMap::new(),
            actuals: HashMap::from([
                (BTreeSet::from(["a".to_string()]), 5.0),
                (BTreeSet::from(["b".to_string()]), 50_000.0),
            ]),
        };
        let orderer = JoinOrderer::new(JoinOrderPolicy::FromOrder, &stats);
        let rels = vec![table("a", 10.0), table("b", 1000.0)];
        let (plan, _, _) = orderer.build(rels, &[0, 1], vec![eq_edge(0, 1)]).unwrap();
        assert_eq!(join_structure(&plan), "(a ⋈ b)");
    }
}
