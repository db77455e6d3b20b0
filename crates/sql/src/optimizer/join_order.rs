//! Join enumeration and build-side selection.
//!
//! The `Optimized` policy picks the left-deep order whose intermediates
//! are smallest: the sum, over the order's prefixes, of the estimated
//! cardinality of the joined set, minimised exactly by dynamic programming
//! over relation subsets (`JoinGraph::order`). The estimate
//! (`JoinGraph::card`) is a function of the *set* of relations, so it
//! cannot depend on the order that reached it: the relations' own
//! estimates, one key–foreign-key selectivity per pair of relations an
//! equality joins, a constant per other multi-relation conjunct. An order
//! chosen by the next relation's own size alone pairs two relations
//! through a low-cardinality key ahead of the fact table that links them
//! (Q7: every supplier of a nation with every customer of the other).
//!
//! [`Statistics`] feeds both halves of the feedback path: when
//! `Statistics::actual_rows` has observed cardinalities for a subtree's
//! base-table set (recorded from `operator_stats` on a previous run of the
//! same plan shape), the observed rows replace the estimate of exactly that
//! set in the order's cost, and — where both sides of an inner join have
//! been observed — the *build side* flips onto the genuinely smaller input.
//!
//! The build-side flip is where Q3-class wins come from: estimates put
//! lineitem's filtered cardinality far below its actual, so the default
//! plan materializes a huge build table while streaming the small side.
//! With actuals the orderer swaps the join inputs (and restores the
//! original column order with a projection so downstream ordinals never
//! move), turning the large side into the streamed probe input.
//! Estimate-only plans are never swapped — adaptivity requires evidence.

use crate::binder::{join, shift_down, split_equi_keys, JoinOrderPolicy};
use crate::optimizer::stats::Statistics;
use crate::{Result, SqlError};
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

/// Above this many relations the order is extended one relation at a
/// time: the exact search visits 2ⁿ subsets and FROM lists are untrusted.
const MAX_EXACT_RELATIONS: usize = 12;

/// Selectivity of a multi-relation conjunct that is not a key equality:
/// System R's guess for a predicate it knows nothing about.
const NON_EQUI_SELECTIVITY: f64 = 0.1;

/// Selectivity per single-relation WHERE conjunct pushed into a scan: the
/// TPC-H date-range and flag predicates keep about a third of a table.
pub(crate) const PUSHDOWN_SELECTIVITY: f64 = 0.35;

/// Selectivity per filter implied by a multi-relation OR (the Q7/Q19
/// pattern): an `IN` of the disjuncts' constants, looser than one conjunct.
pub(crate) const IMPLIED_OR_SELECTIVITY: f64 = 0.5;

/// Left-deep join orderer over a [`Statistics`] source.
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
        let widths: Vec<usize> = relations.iter().map(|r| r.schema.len()).collect();
        let total: usize = widths.iter().sum();
        let mut final_map = vec![usize::MAX; total];
        let sets = feedback_sets(&relations);
        let order = JoinGraph::new(&relations, &sets, &edges, self.stats).order(self.policy);
        let Some((&start, later)) = order.split_first() else {
            return Err(SqlError::Bind("no relation to join".to_string()));
        };

        let mut joined = vec![start];
        let mut plan = std::mem::replace(&mut relations[start].plan, placeholder());
        let mut schema = relations[start].schema.clone();
        for c in 0..widths[start] {
            final_map[orig_offsets[start] + c] = c;
        }

        for &next in later {
            let left_width = schema.len();
            // Assign final ordinals for `next`.
            for c in 0..widths[next] {
                final_map[orig_offsets[next] + c] = left_width + c;
            }
            // The edges this join can evaluate are its condition; the rest
            // wait for a later join.
            let mut waiting = Vec::new();
            let applicable = edges.into_iter().filter_map(|(e, rels)| {
                if applies(&rels, next, &joined) {
                    return Some(e);
                }
                waiting.push((e, rels));
                None
            });
            let (left_keys, right_keys, residual) =
                split_equi_keys(applicable, |c| final_map[c] < left_width);
            edges = waiting;
            let to_final = |e: Expr| e.remap_columns(&|i| final_map[i]);
            let keys = (
                left_keys.into_iter().map(to_final).collect::<Vec<_>>(),
                shift_down(right_keys, orig_offsets[next]),
            );
            let residual: Vec<Expr> = residual.into_iter().map(to_final).collect();

            let next_schema = relations[next].schema.clone();
            let right_plan = std::mem::replace(&mut relations[next].plan, placeholder());
            let swap =
                !keys.0.is_empty() && residual.is_empty() && self.should_swap(&sets, &joined, next);
            plan = join_node(
                (plan, &schema),
                (right_plan, &next_schema),
                keys,
                residual,
                swap,
            );
            schema = schema.join(&next_schema);
            joined.push(next);
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

    /// Flip the build side only on evidence: both sides observed, and the
    /// joined subtree (the default build input) actually smaller than the
    /// incoming relation. Estimate-only statistics never observe, so the
    /// default plan is untouched.
    fn should_swap(
        &self,
        sets: &[Option<BTreeSet<String>>],
        joined: &[usize],
        next: usize,
    ) -> bool {
        if self.policy != JoinOrderPolicy::Optimized {
            return false;
        }
        // The incoming relation first: estimate-only statistics answer
        // `None` here and the joined set is never built.
        let Some(next) = sets[next].as_ref().and_then(|s| self.stats.actual_rows(s)) else {
            return false;
        };
        let joined = table_set(sets, joined.iter().copied());
        joined.is_some_and(|set| self.stats.actual_rows(&set).is_some_and(|rows| rows < next))
    }
}

/// What the cost of an order is computed from: a cardinality per relation
/// and a selectivity per joined pair of relations or non-key conjunct.
struct JoinGraph<'a> {
    stats: &'a dyn Statistics,
    sets: &'a [Option<BTreeSet<String>>],
    /// Rows per relation: observed when feedback has it, else estimated.
    rows: Vec<f64>,
    /// `(relations, selectivity)`, applied once all the relations are joined.
    factors: Vec<(&'a [usize], f64)>,
    /// Whether feedback observed any relation. A run records its joins
    /// together with their inputs, so without this no subset is looked up.
    observed: bool,
}

impl<'a> JoinGraph<'a> {
    fn new(
        relations: &[JoinRelation],
        sets: &'a [Option<BTreeSet<String>>],
        edges: &'a [(Expr, Vec<usize>)],
        stats: &'a dyn Statistics,
    ) -> Self {
        let actual = |set: &Option<_>| set.as_ref().and_then(|s| stats.actual_rows(s));
        let estimated = relations.iter().zip(sets);
        let rows = estimated.map(|(r, s)| actual(s).unwrap_or(r.estimate));
        // Distinct key values a relation can offer: its table's unfiltered
        // row count, its own estimate when it is not a single table.
        let keys = |r: usize| {
            let base = base_table(&relations[r].plan).and_then(|t| stats.base_rows(t));
            base.unwrap_or(relations[r].estimate).max(1.0)
        };
        let mut factors: Vec<(&[usize], f64)> = Vec::with_capacity(edges.len());
        for (i, (e, rels)) in edges.iter().enumerate() {
            let same_pair = |(e, r): &(Expr, Vec<usize>)| r == rels && is_key_equality(e);
            let selectivity = if !is_key_equality(e) {
                NON_EQUI_SELECTIVITY
            } else if edges[..i].iter().any(same_pair) {
                continue; // a composite key is still one key–foreign-key pair
            } else {
                1.0 / keys(rels[0]).min(keys(rels[1]))
            };
            factors.push((rels, selectivity));
        }
        JoinGraph {
            stats,
            sets,
            rows: rows.collect(),
            factors,
            observed: sets.iter().any(|s| actual(s).is_some()),
        }
    }

    /// Estimated rows of the join of the `joined` relations and `with` — a
    /// function of the set, not of the order that reached it: what feedback
    /// observed for exactly these tables, else the product of the
    /// relations' rows, one key–foreign-key selectivity (`1 / min` of the
    /// two key counts) per pair joined by an equality, and
    /// [`NON_EQUI_SELECTIVITY`] per other conjunct over them.
    fn card(&self, joined: &mut [bool], with: usize) -> f64 {
        joined[with] = true;
        let members = || (0..joined.len()).filter(|&r| joined[r]);
        let tables = self.observed.then(|| table_set(self.sets, members()));
        let observed = tables.flatten().and_then(|t| self.stats.actual_rows(&t));
        let card = observed.unwrap_or_else(|| {
            let inside = |rels: &[usize]| rels.iter().all(|&r| joined[r]);
            let selectivities = self.factors.iter().filter(|f| inside(f.0)).map(|f| f.1);
            members().map(|r| self.rows[r]).product::<f64>() * selectivities.product::<f64>()
        });
        joined[with] = false;
        card
    }

    /// The relations that may join next into `next`, ascending: the ones a
    /// conjunct connects to the joined ones, all the others when there is
    /// none (a cross join is the last resort, never a choice).
    fn extensions(&self, joined: &[bool], next: &mut Vec<usize>) {
        next.clear();
        for (rels, _) in &self.factors {
            let mut outside = rels.iter().filter(|&&r| !joined[r]);
            if let (Some(&r), None) = (outside.next(), outside.next()) {
                next.push(r);
            }
        }
        if next.is_empty() {
            next.extend((0..joined.len()).filter(|&r| !joined[r]));
        }
        next.sort_unstable();
        next.dedup();
    }

    /// The left-deep order of `policy`. `Optimized` minimises the sum over
    /// the order's prefixes of [`Self::card`] (the first relation's own
    /// rows included, so of two orders with equal intermediates the one
    /// starting smaller wins), exactly up to [`MAX_EXACT_RELATIONS`] and one
    /// cheapest extension at a time above; `FromOrder` takes the first
    /// connected relation in FROM order.
    fn order(&self, policy: JoinOrderPolicy) -> Vec<usize> {
        let n = self.rows.len();
        let mut joined = vec![false; n];
        let mut next = Vec::new();
        let mut order = Vec::with_capacity(n);
        if policy == JoinOrderPolicy::Optimized && n <= MAX_EXACT_RELATIONS {
            // best[S] = card(S) + min over r of best[S ∖ {r}] beside the
            // minimising r, subsets as bit masks.
            let full = (1usize << n) - 1;
            let mut best = vec![(f64::INFINITY, 0); full + 1];
            best[0].0 = 0.0;
            for from in 0..full {
                if best[from].0.is_infinite() {
                    continue; // reachable only through an avoidable cross join
                }
                (0..n).for_each(|r| joined[r] = from >> r & 1 == 1);
                self.extensions(&joined, &mut next);
                for &r in &next {
                    let cost = best[from].0 + self.card(&mut joined, r);
                    if cost < best[from | 1 << r].0 {
                        best[from | 1 << r] = (cost, r);
                    }
                }
            }
            let mut set = full;
            while set != 0 {
                order.push(best[set].1);
                set ^= 1 << best[set].1;
            }
            order.reverse();
            return order;
        }
        while order.len() < n {
            self.extensions(&joined, &mut next);
            let r = match policy {
                JoinOrderPolicy::FromOrder => next[0],
                JoinOrderPolicy::Optimized => {
                    let cards = next.iter().map(|&r| (self.card(&mut joined, r), r));
                    cards
                        .min_by(|a, b| a.0.total_cmp(&b.0))
                        .map_or(next[0], |c| c.1)
                }
            };
            joined[r] = true;
            order.push(r);
        }
        order
    }
}

/// The base tables of the relations `members` together, the key feedback
/// records their join under; `None` when one of them opted out.
fn table_set(
    sets: &[Option<BTreeSet<String>>],
    mut members: impl Iterator<Item = usize>,
) -> Option<BTreeSet<String>> {
    members.try_fold(BTreeSet::new(), |mut all, r| {
        all.extend(sets[r].as_ref()?.iter().cloned());
        Some(all)
    })
}

/// Whether a multi-relation conjunct equates a column of one relation with a
/// column of another.
fn is_key_equality(e: &Expr) -> bool {
    matches!(e, Expr::Binary { op: BinOp::Eq, left, right }
        if matches!((&**left, &**right), (Expr::Column(_), Expr::Column(_))))
}

/// The table a relation scans when it is one filtered table and nothing else.
fn base_table(plan: &Rel) -> Option<&str> {
    match plan {
        Rel::Read { table, .. } => Some(table),
        Rel::Filter { input, .. } => base_table(input),
        _ => None,
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

/// The join of `right` onto `left` on `keys`: a cross join when there is
/// none, else an inner join — with the inputs swapped under a restoring
/// projection when `swap` (see [`JoinOrderer::should_swap`]).
fn join_node(
    (left, left_schema): (Rel, &Schema),
    (right, right_schema): (Rel, &Schema),
    keys: (Vec<Expr>, Vec<Expr>),
    residual: Vec<Expr>,
    swap: bool,
) -> Rel {
    if !swap {
        let kind = match keys.0.is_empty() {
            true => JoinKind::Cross,
            false => JoinKind::Inner,
        };
        return join(left, right, kind, keys, residual);
    }
    // Build-side flip: the probe pipeline streams while the build
    // pipeline materializes its whole input, so with observed actuals on
    // both sides the smaller one belongs on the build (right) side. A
    // restoring projection keeps the output column order identical to the
    // unswapped join, so downstream ordinals and `final_map` stay valid
    // untouched.
    let swapped = join(right, left, JoinKind::Inner, (keys.1, keys.0), residual);
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
        assert_eq!(&*schema.fields[0].name, "small.k");
        assert_eq!(&*schema.fields[1].name, "big.k");
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

    /// Estimate-only statistics: `base` is the catalog's unfiltered row
    /// counts, nothing is observed.
    fn catalog(base: &[(&str, f64)]) -> Feedback {
        Feedback {
            catalog_rows: base.iter().map(|(t, n)| (t.to_string(), *n)).collect(),
            actuals: HashMap::new(),
        }
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("t{i}")).collect()
    }

    /// Σ over the prefixes of `order` of their estimated cardinality — the
    /// quantity `JoinGraph::order` minimises — or `None` when `order` takes
    /// a relation `extensions` does not offer (an avoidable cross join).
    fn cost(graph: &JoinGraph<'_>, order: &[usize]) -> Option<f64> {
        let mut joined = vec![false; order.len()];
        let mut next = Vec::new();
        let mut sum = 0.0;
        for &r in order {
            graph.extensions(&joined, &mut next);
            if !next.contains(&r) {
                return None;
            }
            sum += graph.card(&mut joined, r);
            joined[r] = true;
        }
        Some(sum)
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for at in 0..n {
                let mut q = p.clone();
                q.insert(at, n - 1);
                out.push(q);
            }
        }
        out
    }

    fn has_cross_join(rel: &Rel) -> bool {
        let cross = matches!(
            rel,
            Rel::Join {
                kind: JoinKind::Cross,
                ..
            }
        );
        cross || rel.children().iter().any(|c| has_cross_join(c))
    }

    #[test]
    fn fact_table_joins_before_a_many_to_many_dimension() {
        // Q7 in miniature: nation (2 of 25 rows) – supplier – lineitem –
        // orders – customer, and customer also reaches nation through its
        // 25-value key. Smallest-connected-next takes customer third and
        // pairs every supplier with every customer of the nation.
        let stats = catalog(&[("nation", 25.0)]);
        let mut nation = table("nation", 25.0);
        nation.push_filter(expr::lt(expr::col(0), expr::lit_i64(2)), 2.0 / 25.0);
        let rels = vec![
            nation,
            table("supplier", 150.0),
            table("customer", 2250.0),
            table("lineitem", 11_000.0),
            table("orders", 15_000.0),
        ];
        let edges = vec![
            eq_edge(0, 1),
            eq_edge(0, 2),
            eq_edge(1, 3),
            eq_edge(3, 4),
            eq_edge(2, 4),
        ];
        let sets = feedback_sets(&rels);
        let graph = JoinGraph::new(&rels, &sets, &edges, &stats);
        let order = graph.order(JoinOrderPolicy::Optimized);
        assert_eq!(order, [0, 1, 3, 4, 2]);
        let smallest_next = cost(&graph, &[0, 1, 2, 3, 4]).unwrap();
        assert!(cost(&graph, &order).unwrap() < smallest_next / 10.0);

        let orderer = JoinOrderer::new(JoinOrderPolicy::Optimized, &stats);
        let (plan, _, _) = orderer.build(rels, &[0, 1, 2, 3, 4], edges).unwrap();
        assert_eq!(
            join_structure(&plan),
            "((((nation ⋈ supplier) ⋈ lineitem) ⋈ orders) ⋈ customer)"
        );
    }

    #[test]
    fn exact_order_is_the_cheapest_of_all_permutations_and_repeats() {
        // xorshift64: seeded, so a failure names its graph.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        let stats = catalog(&[]);
        for graph_no in 0..200 {
            let n = 2 + rand(5) as usize;
            let rels: Vec<JoinRelation> = names(n)
                .iter()
                .map(|t| table(t, (1 + rand(10_000)) as f64))
                .collect();
            // A random spanning tree, a few extra edges (some of them a
            // second column of a pair already joined, some not equalities),
            // and now and then a relation nothing connects.
            let mut edges = Vec::new();
            for r in 1..n {
                if rand(8) != 0 {
                    edges.push(eq_edge(rand(r as u64) as usize, r));
                }
            }
            for _ in 0..rand(4) {
                let (a, b) = (rand(n as u64) as usize, rand(n as u64) as usize);
                if a == b {
                    continue;
                }
                let mut edge = eq_edge(a, b);
                if rand(3) == 0 {
                    edge.0 = expr::lt(expr::col(a), expr::col(b));
                }
                edges.push(edge);
            }
            let sets = feedback_sets(&rels);
            let graph = JoinGraph::new(&rels, &sets, &edges, &stats);
            let order = graph.order(JoinOrderPolicy::Optimized);
            let cheapest = permutations(n)
                .iter()
                .filter_map(|p| cost(&graph, p))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(cost(&graph, &order), Some(cheapest), "graph {graph_no}");
            for _ in 0..50 {
                let again = JoinGraph::new(&rels, &sets, &edges, &stats);
                assert_eq!(again.order(JoinOrderPolicy::Optimized), order);
            }
        }
    }

    #[test]
    fn composite_key_is_one_pair_and_a_disconnected_relation_joins_last() {
        let stats = catalog(&[]);
        let rels = vec![
            table("lone", 500.0),
            table("partsupp", 8000.0),
            table("lineitem", 60_000.0),
        ];
        // partsupp ⋈ lineitem on two columns: one key–foreign-key pair.
        let edges = vec![eq_edge(1, 2), eq_edge(2, 1)];
        let sets = feedback_sets(&rels);
        let graph = JoinGraph::new(&rels, &sets, &edges, &stats);
        assert_eq!(graph.card(&mut [false, true, false], 2), 60_000.0);
        // `lone` is the smallest relation, but starting with it is a
        // 4 000 000-row cross join; joined last it multiplies fewest rows.
        assert_eq!(graph.order(JoinOrderPolicy::Optimized), [1, 2, 0]);
        let orderer = JoinOrderer::new(JoinOrderPolicy::Optimized, &stats);
        let (plan, _, _) = orderer.build(rels, &[0, 1, 2], edges).unwrap();
        assert_eq!(join_structure(&plan), "((partsupp ⋈ lineitem) ⋈ lone)");
    }

    #[test]
    fn a_long_chain_is_ordered_greedily_without_cross_joins() {
        let n = MAX_EXACT_RELATIONS + 4;
        let stats = catalog(&[]);
        // Sizes fall and rise along the chain, so the cheapest start is in
        // the middle and the order has to grow both ways.
        let rels: Vec<JoinRelation> = names(n)
            .iter()
            .enumerate()
            .map(|(i, t)| table(t, (10 + 100 * i.abs_diff(7)) as f64))
            .collect();
        let edges: Vec<_> = (1..n).map(|r| eq_edge(r - 1, r)).collect();
        let offsets: Vec<usize> = (0..n).collect();
        let orderer = JoinOrderer::new(JoinOrderPolicy::Optimized, &stats);
        let (plan, map, schema) = orderer.build(rels, &offsets, edges).unwrap();
        assert!(!has_cross_join(&plan), "{}", join_structure(&plan));
        assert!(join_structure(&plan).starts_with(&"(".repeat(n - 1)));
        assert_eq!(&*schema.fields[map[7]].name, "t7.k");
        assert_eq!(map[7], 0, "the smallest relation starts");
    }

    #[test]
    fn empty_relation_list_is_an_error() {
        let stats = catalog(&[]);
        for policy in [JoinOrderPolicy::Optimized, JoinOrderPolicy::FromOrder] {
            let built = JoinOrderer::new(policy, &stats).build(vec![], &[], vec![]);
            assert!(matches!(built, Err(SqlError::Bind(_))));
        }
    }

    #[test]
    fn an_observed_intermediate_changes_the_order() {
        // A star: hub(10) – b(100), hub – c(1000). Estimates join b first.
        let rels = || vec![table("hub", 10.0), table("b", 100.0), table("c", 1000.0)];
        let edges = || vec![eq_edge(0, 1), eq_edge(0, 2)];
        let set = |tables: &[&str]| tables.iter().map(|t| t.to_string()).collect();
        let estimates = catalog(&[]);
        let orderer = JoinOrderer::new(JoinOrderPolicy::Optimized, &estimates);
        let (plan, _, _) = orderer.build(rels(), &[0, 1, 2], edges()).unwrap();
        assert_eq!(join_structure(&plan), "((hub ⋈ b) ⋈ c)");
        // A run of that plan saw the relations as estimated but hub ⋈ b
        // fan out to 50 000 rows: c now joins first (and, observed larger
        // than hub, becomes the probe side under a restoring projection).
        let observed = Feedback {
            catalog_rows: HashMap::new(),
            actuals: HashMap::from([
                (set(&["hub"]), 10.0),
                (set(&["b"]), 100.0),
                (set(&["c"]), 1000.0),
                (set(&["hub", "b"]), 50_000.0),
            ]),
        };
        let orderer = JoinOrderer::new(JoinOrderPolicy::Optimized, &observed);
        let (plan, _, _) = orderer.build(rels(), &[0, 1, 2], edges()).unwrap();
        assert_eq!(join_structure(&plan), "(π(c ⋈ hub) ⋈ b)");
    }
}
