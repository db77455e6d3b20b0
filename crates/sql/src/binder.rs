//! Name resolution, join-graph construction, aggregation planning, and
//! subquery decorrelation.
//!
//! The binder turns the parsed AST into the ordinal-based plan IR through
//! two seams, each with exactly one implementation:
//!
//! * `bind_product` binds a FROM/WHERE pair: every FROM item once, every
//!   WHERE conjunct classified (single-relation filter, join edge,
//!   correlated, subquery-bearing), one call into the join orderer. The
//!   top-level SELECT and the subquery decorrelations below are thin
//!   callers that differ only in what they do with the correlated
//!   conjuncts.
//! * `bind_expr` binds an expression under a `Scope` that says how
//!   leaves resolve — by name before aggregation; through group keys and
//!   aggregate calls after it; through joined columns for scalar
//!   subqueries — so every expression form is valid in every clause.
//!
//! Subquery removal covers every TPC-H pattern:
//!
//! * `[NOT] EXISTS (…)` with correlated equality and inequality conjuncts →
//!   Semi/Anti join with keys + residual (Q4, Q21, Q22).
//! * `expr [NOT] IN (subquery)` → Semi/Anti join on one key (Q16, Q18, Q20).
//! * Correlated scalar aggregate subqueries → group the subquery by its
//!   correlation keys and `Single`-join (Q2, Q17, Q20-inner).
//! * Uncorrelated scalar subqueries anywhere in a predicate → `Single`
//!   cross join, the predicate reads the joined column (Q11 HAVING, Q15,
//!   Q22).

use crate::ast::*;
use crate::optimizer::join_order::{self, JoinOrderer, JoinRelation};
use crate::optimizer::stats::{CatalogStatistics, Statistics};
use crate::{Result, SqlError};
use sirius_columnar::scalar::{date32_add_months, parse_date32};
use sirius_columnar::{Scalar, Schema};
use sirius_plan::expr::{self, factor_or_common, AggExpr, SortExpr};
use sirius_plan::{AggFunc, BinOp, Expr, JoinKind, Rel, UnOp};
use std::borrow::Cow;
use std::collections::HashMap;

/// Ordinals at or above this base refer to the outer query's columns while
/// binding a correlated subquery (`ordinal - OUTER_BASE` indexes the outer
/// schema). Stripped before any plan leaves the binder.
const OUTER_BASE: usize = 1 << 20;

/// Cardinality estimate of a CTE or derived table: no statistics flow out
/// of a bound query.
const DERIVED_ROWS: f64 = 1000.0;

/// Table metadata the binder needs: schemas for name resolution, row counts
/// for join-order heuristics.
#[derive(Debug, Clone, Default)]
pub struct BinderCatalog {
    tables: HashMap<String, (Schema, u64)>,
}

impl BinderCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table with its schema and (estimated) row count.
    pub fn add_table(&mut self, name: impl Into<String>, schema: Schema, rows: u64) {
        self.tables.insert(name.into(), (schema, rows));
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Option<&(Schema, u64)> {
        self.tables.get(name)
    }
}

/// Join ordering policy: the DuckDB-quality optimizer orders joins by
/// estimated intermediate size; the ClickHouse stand-in keeps FROM order
/// (it "is not optimized for join-heavy workloads", §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOrderPolicy {
    /// The left-deep order with the smallest sum of estimated intermediate
    /// cardinalities; a cross join only where nothing connects.
    Optimized,
    /// FROM order, still avoiding cross joins where possible.
    FromOrder,
}

/// Bind a parsed query into a plan using catalog estimates only.
pub fn bind(query: &Query, catalog: &BinderCatalog, policy: JoinOrderPolicy) -> Result<Rel> {
    bind_with_stats(query, catalog, policy, &CatalogStatistics::new(catalog))
}

/// Bind a parsed query into a plan, with join ordering and build-side
/// selection driven by an explicit [`Statistics`] source (e.g. a feedback
/// store serving observed cardinalities for this plan shape).
pub fn bind_with_stats(
    query: &Query,
    catalog: &BinderCatalog,
    policy: JoinOrderPolicy,
    stats: &dyn Statistics,
) -> Result<Rel> {
    let ctx = BindCtx {
        catalog,
        policy,
        stats,
        ctes: HashMap::new(),
    };
    Ok(bind_query(query, &ctx)?.0)
}

#[derive(Clone)]
struct BindCtx<'a> {
    catalog: &'a BinderCatalog,
    policy: JoinOrderPolicy,
    stats: &'a dyn Statistics,
    /// Each CTE's plan and output schema, its fields named `cte.column`.
    ctes: HashMap<String, (Rel, Schema)>,
}

fn err(msg: impl Into<String>) -> SqlError {
    SqlError::Bind(msg.into())
}

fn filter(input: Rel, predicate: Expr) -> Rel {
    Rel::Filter {
        input: Box::new(input),
        predicate,
    }
}

fn project(input: Rel, exprs: Vec<(Expr, String)>) -> Rel {
    Rel::Project {
        input: Box::new(input),
        exprs,
    }
}

fn join(
    left: Rel,
    right: Rel,
    kind: JoinKind,
    keys: (Vec<Expr>, Vec<Expr>),
    rest: Vec<Expr>,
) -> Rel {
    Rel::Join {
        left: Box::new(left),
        right: Box::new(right),
        kind,
        left_keys: keys.0,
        right_keys: keys.1,
        residual: (!rest.is_empty()).then(|| expr::and_all(rest)),
    }
}

/// A bound query and its output schema.
fn bind_query(query: &Query, ctx: &BindCtx<'_>) -> Result<(Rel, Schema)> {
    let ctx = with_ctes(query, ctx)?;
    let product = bind_product(&query.select, &ctx, None)?;
    finish_select(query, product, &ctx)
}

/// `ctx` extended by the query's own CTEs (later CTEs may use earlier).
fn with_ctes<'c, 'a>(query: &Query, ctx: &'c BindCtx<'a>) -> Result<Cow<'c, BindCtx<'a>>> {
    let mut ctx = Cow::Borrowed(ctx);
    for (name, cte) in &query.ctes {
        // Qualify the CTE's output names with its own name.
        let (plan, schema) = bind_query(cte, &ctx)?;
        let renamed = rename_output(plan, &schema, name);
        ctx.to_mut().ctes.insert(name.clone(), renamed);
    }
    Ok(ctx)
}

/// Rewrap a plan of output `schema` so its output fields are named
/// `name.suffix`; the renamed schema comes back beside it.
fn rename_output(plan: Rel, schema: &Schema, name: &str) -> (Rel, Schema) {
    let mut exprs = Vec::with_capacity(schema.len());
    let mut fields = Vec::with_capacity(schema.len());
    for (i, f) in schema.fields.iter().enumerate() {
        let suffix = f.name.rsplit('.').next().unwrap_or(&f.name);
        let renamed = format!("{name}.{suffix}");
        fields.push(f.renamed(renamed.clone()));
        exprs.push((expr::col(i), renamed));
    }
    (project(plan, exprs), Schema::new(fields))
}

// ---------------------------------------------------------------------------
// FROM / WHERE
// ---------------------------------------------------------------------------

/// A bound FROM/WHERE pair.
struct Product {
    /// The join tree with every uncorrelated WHERE conjunct applied.
    plan: Rel,
    /// Output schema of `plan`.
    schema: Schema,
    /// WHERE conjuncts that mention the outer query: inner ordinals index
    /// `schema`, outer ones sit at [`OUTER_BASE`]. Empty without an outer.
    correlated: Vec<Expr>,
}

/// Bind `select`'s FROM and WHERE: each FROM item once; single-relation
/// conjuncts pushed into their relation, multi-relation ones handed to the
/// join orderer as edges, subquery-bearing ones applied on top of the join
/// tree, and ones that resolve a name against `outer` returned.
fn bind_product(select: &Select, ctx: &BindCtx<'_>, outer: Option<&Schema>) -> Result<Product> {
    if select.from.is_empty() {
        return Err(err("FROM clause required"));
    }
    let mut relations: Vec<JoinRelation> = select
        .from
        .iter()
        .map(|item| bind_from_item(item, ctx))
        .collect::<Result<_>>()?;

    // FROM-order product schema, the space WHERE conjuncts are classified in.
    let mut offsets = Vec::with_capacity(relations.len());
    let mut fields = Vec::new();
    for r in &relations {
        offsets.push(fields.len());
        fields.extend(r.schema.fields.iter().cloned());
    }
    let product = Schema::new(fields);
    let rel_of = |ordinal: usize| offsets.iter().rposition(|&off| ordinal >= off).unwrap_or(0);

    let mut edges: Vec<(Expr, Vec<usize>)> = Vec::new();
    let mut correlated = Vec::new();
    let mut subquery_conjuncts = Vec::new();
    for c in select.where_clause.iter().flat_map(split_and) {
        if contains_subquery(c) {
            subquery_conjuncts.push(c);
            continue;
        }
        // Factoring may expose several independent conjuncts (Q19's
        // OR-of-conjunctions hides its join key this way).
        let bound = factor_or_common(&bind_expr(c, &Scope::plain(&product, outer))?);
        for bound in expr::split_conjunction(&bound).into_iter().cloned() {
            let mut refs = Vec::new();
            bound.referenced_columns(&mut refs);
            if refs.iter().any(|&r| r >= OUTER_BASE) {
                correlated.push(bound);
                continue;
            }
            let mut rels: Vec<usize> = refs.iter().map(|&r| rel_of(r)).collect();
            rels.sort_unstable();
            rels.dedup();
            if rels.len() <= 1 {
                // Constant predicates go to relation 0.
                let rel = rels.first().copied().unwrap_or(0);
                let local = bound.remap_columns(&|i| i - offsets[rel]);
                relations[rel].push_filter(local, join_order::PUSHDOWN_SELECTIVITY);
                continue;
            }
            // Derive implied per-relation filters from multi-table ORs:
            // `(n1=A AND n2=B) OR (n1=B AND n2=A)` implies `n1 IN (A,B)`
            // and `n2 IN (A,B)` — pushed down so the join order sees
            // realistic cardinalities (Q7/Q19).
            for &rel in &rels {
                if let Some(implied) = implied_single_relation_filter(&bound, rel, &offsets) {
                    let local = implied.remap_columns(&|i| i - offsets[rel]);
                    relations[rel].push_filter(local, join_order::IMPLIED_OR_SELECTIVITY);
                }
            }
            edges.push((bound, rels));
        }
    }

    let (mut plan, final_map, schema) =
        JoinOrderer::new(ctx.policy, ctx.stats).build(relations, &offsets, edges)?;
    for c in subquery_conjuncts {
        plan = apply_subquery_conjunct(plan, &schema, c, ctx)?;
    }
    let correlated = correlated
        .iter()
        .map(|c| c.remap_columns(&|i| if i < OUTER_BASE { final_map[i] } else { i }))
        .collect();
    Ok(Product {
        plan,
        schema,
        correlated,
    })
}

fn bind_from_item(item: &FromItem, ctx: &BindCtx<'_>) -> Result<JoinRelation> {
    let mut rel = bind_table_ref(&item.base, ctx)?;
    for j in &item.joins {
        let right = bind_table_ref(&j.relation, ctx)?;
        let combined = rel.schema.join(&right.schema);
        let on = bind_expr(&j.on, &Scope::plain(&combined, None))?;
        let conjuncts = expr::split_conjunction(&on).into_iter().cloned().collect();
        let (left_keys, right_keys, residual) = split_equi_keys(conjuncts, rel.schema.len());
        if left_keys.is_empty() {
            return Err(err(
                "explicit JOIN requires at least one equality condition",
            ));
        }
        let kind = match j.kind {
            AstJoinKind::Inner => JoinKind::Inner,
            AstJoinKind::Left => JoinKind::Left,
        };
        rel = JoinRelation {
            plan: join(
                rel.plan,
                right.plan,
                kind,
                (left_keys, right_keys),
                residual,
            ),
            schema: combined,
            estimate: rel.estimate.max(right.estimate),
        };
    }
    Ok(rel)
}

fn bind_table_ref(t: &TableRef, ctx: &BindCtx<'_>) -> Result<JoinRelation> {
    let derived = |plan: Rel, schema: &Schema| {
        let (plan, schema) = rename_output(plan, schema, t.binding_name());
        JoinRelation {
            plan,
            schema,
            estimate: DERIVED_ROWS,
        }
    };
    match t {
        TableRef::Table { name, .. } => {
            if let Some((plan, schema)) = ctx.ctes.get(name) {
                return Ok(derived(plan.clone(), schema));
            }
            let (schema, rows) = ctx
                .catalog
                .get(name)
                .ok_or_else(|| err(format!("unknown table {name}")))?;
            let binding = t.binding_name();
            let qualified = Schema::new(
                schema
                    .fields
                    .iter()
                    .map(|f| f.renamed(format!("{binding}.{}", f.name)))
                    .collect(),
            );
            Ok(JoinRelation {
                plan: Rel::Read {
                    table: name.clone(),
                    schema: qualified.clone(),
                    projection: None,
                },
                schema: qualified,
                estimate: ctx.stats.base_rows(name).unwrap_or(*rows as f64),
            })
        }
        TableRef::Derived { query, .. } => {
            let (plan, schema) = bind_query(query, ctx)?;
            Ok(derived(plan, &schema))
        }
    }
}

/// True if `e` references at least one column and every one satisfies `pred`.
fn refs_all(e: &Expr, pred: impl Fn(usize) -> bool) -> bool {
    let mut refs = Vec::new();
    e.referenced_columns(&mut refs);
    !refs.is_empty() && refs.iter().all(|&r| pred(r))
}

/// Split conjuncts over a two-sided column space (`< boundary` is the low
/// side, the rest the high side): an equality with one operand wholly on
/// each side becomes a key pair, everything else is left over. Returns
/// `(low keys, high keys rebased to 0, leftovers)`. With `boundary` the
/// left width this splits an ON clause; with [`OUTER_BASE`] it splits
/// correlated conjuncts into inner keys and outer keys.
fn split_equi_keys(conjuncts: Vec<Expr>, boundary: usize) -> (Vec<Expr>, Vec<Expr>, Vec<Expr>) {
    let (mut low, mut high, mut rest) = (Vec::new(), Vec::new(), Vec::new());
    let is_low = |e: &Expr| refs_all(e, |r| r < boundary);
    let is_high = |e: &Expr| refs_all(e, |r| r >= boundary);
    for c in conjuncts {
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = &c
        {
            let sides = if is_low(left) && is_high(right) {
                Some((left, right))
            } else if is_high(left) && is_low(right) {
                Some((right, left))
            } else {
                None
            };
            if let Some((l, h)) = sides {
                low.push((**l).clone());
                high.push(h.remap_columns(&|i| i - boundary));
                continue;
            }
        }
        rest.push(c);
    }
    (low, high, rest)
}

/// If `bound` is an OR whose every disjunct contains at least one conjunct
/// referencing only `rel`, return the implied single-relation predicate
/// (the OR of those per-disjunct conjuncts). Ordinals stay in product space.
fn implied_single_relation_filter(bound: &Expr, rel: usize, offsets: &[usize]) -> Option<Expr> {
    let disjuncts = expr::split_disjunction(bound);
    if disjuncts.len() < 2 {
        return None;
    }
    let lo = offsets[rel];
    let hi = offsets.get(rel + 1).copied().unwrap_or(usize::MAX);
    let mut branch_filters = Vec::with_capacity(disjuncts.len());
    for d in disjuncts {
        let own: Vec<Expr> = expr::split_conjunction(d)
            .into_iter()
            .filter(|c| refs_all(c, |r| r >= lo && r < hi))
            .cloned()
            .collect();
        if own.is_empty() {
            return None; // one branch gives no constraint ⇒ nothing implied
        }
        branch_filters.push(expr::and_all(own));
    }
    branch_filters.into_iter().reduce(expr::or)
}

fn split_and(e: &ExprAst) -> Vec<&ExprAst> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a ExprAst, out: &mut Vec<&'a ExprAst>) {
        if let ExprAst::Binary {
            op: BinOp::And,
            left,
            right,
        } = e
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    walk(e, &mut out);
    out
}

// ---------------------------------------------------------------------------
// GROUP BY / HAVING / SELECT / ORDER BY / LIMIT
// ---------------------------------------------------------------------------

/// A bound aggregate call: function and argument over the aggregation input.
type AggCall = (AggFunc, Option<Expr>);

/// What an aggregation computes, both bound over its input. Its output is
/// the keys, then the calls.
struct Grouping {
    keys: Vec<Expr>,
    calls: Vec<AggCall>,
}

impl Grouping {
    fn aggregate(&self, input: Rel) -> Rel {
        Rel::Aggregate {
            input: Box::new(input),
            group_by: self.keys.clone(),
            aggregates: self
                .calls
                .iter()
                .enumerate()
                .map(|(i, (func, arg))| AggExpr {
                    func: *func,
                    input: arg.clone(),
                    name: format!("agg{i}"),
                })
                .collect(),
        }
    }
}

/// Everything of a SELECT above its FROM/WHERE product: aggregation,
/// HAVING, the output projection, DISTINCT, ORDER BY and LIMIT. Returns
/// the plan and its output schema.
fn finish_select(query: &Query, product: Product, ctx: &BindCtx<'_>) -> Result<(Rel, Schema)> {
    let select = &query.select;
    let mut plan = product.plan;
    let input = Scope::plain(&product.schema, None);

    let grouped = !select.group_by.is_empty()
        || select.items.iter().any(|i| i.expr.contains_aggregate())
        || select
            .having
            .as_ref()
            .is_some_and(|h| h.contains_aggregate());
    let grouping = if grouped {
        let keys = select
            .group_by
            .iter()
            .map(|g| bind_expr(g, &input))
            .collect::<Result<_>>()?;
        let mut calls = Vec::new();
        for e in select.items.iter().map(|i| &i.expr).chain(&select.having) {
            collect_aggs(e, &input, &mut calls)?;
        }
        let grouping = Grouping { keys, calls };
        plan = grouping.aggregate(plan);
        Some(grouping)
    } else {
        None
    };
    // SELECT and HAVING read the aggregation's output when there is one.
    let scope = Scope {
        grouping: grouping.as_ref(),
        ..input
    };
    // The columns SELECT and HAVING read, typed once. A typing error
    // surfaces where they are first read, after HAVING's own errors.
    let selected = match &grouping {
        Some(_) => plan.output_schema(&[&product.schema]).map(Cow::Owned),
        None => Ok(Cow::Borrowed(&product.schema)),
    };

    // Each HAVING conjunct keeps the columns it filters.
    if let Some(h) = &select.having {
        let selected = selected.as_ref().map_err(Clone::clone)?;
        for c in split_and(h) {
            plan = apply_predicate(plan, selected, c, ctx, &scope)?;
        }
    }

    let items = select
        .items
        .iter()
        .enumerate()
        .map(|(i, it)| Ok((bind_expr(&it.expr, &scope)?, output_name(it, i))))
        .collect::<Result<_>>()?;
    plan = project(plan, items);
    let out_schema = plan.output_schema(&[&*selected?])?;

    if select.distinct {
        plan = Rel::Distinct {
            input: Box::new(plan),
        };
    }
    if !query.order_by.is_empty() {
        let keys = query
            .order_by
            .iter()
            .map(|o| {
                Ok(SortExpr {
                    expr: bind_order_key(&o.expr, &out_schema, &select.items)?,
                    ascending: o.ascending,
                })
            })
            .collect::<Result<_>>()?;
        plan = Rel::Sort {
            input: Box::new(plan),
            keys,
        };
    }
    if let Some(limit) = query.limit {
        plan = Rel::Limit {
            input: Box::new(plan),
            offset: 0,
            fetch: Some(limit),
        };
    }
    Ok((plan, out_schema))
}

fn output_name(item: &SelectItem, index: usize) -> String {
    if let Some(a) = &item.alias {
        return a.clone();
    }
    if let ExprAst::Ident(parts) = &item.expr {
        return parts
            .last()
            .cloned()
            .unwrap_or_else(|| format!("col{index}"));
    }
    format!("col{index}")
}

/// Bind one ORDER BY key against the projected output (alias/name first,
/// then structural match against the select items).
fn bind_order_key(ast: &ExprAst, out_schema: &Schema, items: &[SelectItem]) -> Result<Expr> {
    if let ExprAst::Ident(parts) = ast {
        if let Some(i) = out_schema.index_of(&parts.join(".")) {
            return Ok(expr::col(i));
        }
    }
    items
        .iter()
        .position(|it| &it.expr == ast)
        .map(expr::col)
        .ok_or_else(|| err(format!("ORDER BY key not found in output: {ast:?}")))
}

/// Append the distinct aggregate calls of `ast`, bound in `scope`, to `out`.
fn collect_aggs(ast: &ExprAst, scope: &Scope<'_>, out: &mut Vec<AggCall>) -> Result<()> {
    let mut calls = Vec::new();
    ast.walk(&mut |e| match e {
        ExprAst::Agg {
            func,
            arg,
            distinct,
        } => {
            calls.push((*func, arg.as_deref(), *distinct));
            false
        }
        _ => true,
    });
    for (func, arg, distinct) in calls {
        let call = bind_agg_call(func, arg, distinct, scope)?;
        if !out.contains(&call) {
            out.push(call);
        }
    }
    Ok(())
}

fn bind_agg_call(
    func: AstAggFunc,
    arg: Option<&ExprAst>,
    distinct: bool,
    scope: &Scope<'_>,
) -> Result<AggCall> {
    let func = match (func, distinct) {
        (AstAggFunc::Count, true) => AggFunc::CountDistinct,
        (AstAggFunc::Count, false) if arg.is_none() => AggFunc::CountStar,
        (AstAggFunc::Count, false) => AggFunc::Count,
        (AstAggFunc::Sum, _) => AggFunc::Sum,
        (AstAggFunc::Min, _) => AggFunc::Min,
        (AstAggFunc::Max, _) => AggFunc::Max,
        (AstAggFunc::Avg, _) => AggFunc::Avg,
    };
    Ok((func, arg.map(|a| bind_expr(a, scope)).transpose()?))
}

// ---------------------------------------------------------------------------
// Expression binding
// ---------------------------------------------------------------------------

/// How the leaves of an expression resolve.
#[derive(Clone, Copy)]
struct Scope<'a> {
    /// Columns visible by name: the input of the clause being bound (with
    /// `grouping`, the input of the aggregation).
    schema: &'a Schema,
    /// The enclosing query's columns while binding a correlated subquery;
    /// names not found in `schema` resolve here, at [`OUTER_BASE`].
    outer: Option<&'a Schema>,
    /// After aggregation: an aggregate call resolves to its output column,
    /// an expression equal to a group key to the key's column, and a
    /// column that is neither is an error.
    grouping: Option<&'a Grouping>,
    /// Scalar subqueries already joined into the plan (matched by node
    /// identity) and the ordinal each one's value landed at.
    scalars: &'a [(&'a Query, usize)],
}

impl<'a> Scope<'a> {
    fn plain(schema: &'a Schema, outer: Option<&'a Schema>) -> Self {
        Scope {
            schema,
            outer,
            grouping: None,
            scalars: &[],
        }
    }

    /// After aggregation, `ast` as its column of the aggregation's output
    /// ([`Grouping::resolve`]).
    fn grouped(&self, ast: &ExprAst) -> Result<Option<Expr>> {
        match self.grouping {
            Some(grouping) => grouping.resolve(ast, &Scope::plain(self.schema, self.outer)),
            None => Ok(None),
        }
    }

    /// The column `name` resolves to: this scope's, else the enclosing
    /// query's at [`OUTER_BASE`].
    fn column(&self, name: &str) -> Result<Expr> {
        if let Some(i) = self.schema.index_of(name) {
            Ok(expr::col(i))
        } else if let Some(oi) = self.outer.and_then(|o| o.index_of(name)) {
            Ok(expr::col(OUTER_BASE + oi))
        } else {
            Err(err(format!("unknown column {name}")))
        }
    }

    /// The column a scalar subquery already joined into the plan landed at.
    fn scalar_subquery(&self, q: &Query) -> Result<Expr> {
        let joined = self.scalars.iter().find(|(s, _)| std::ptr::eq(*s, q));
        joined
            .map(|(_, ordinal)| expr::col(*ordinal))
            .ok_or_else(|| err("scalar subquery is only supported in a WHERE or HAVING predicate"))
    }
}

impl Grouping {
    /// An aggregate call or group-key expression as its column of this
    /// aggregation's output; `None` if `ast` is neither (bind it
    /// structurally). `input` is the scope the keys and calls were bound
    /// in. Literals pass through.
    fn resolve(&self, ast: &ExprAst, input: &Scope<'_>) -> Result<Option<Expr>> {
        if let ExprAst::Agg {
            func,
            arg,
            distinct,
        } = ast
        {
            let call = bind_agg_call(*func, arg.as_deref(), *distinct, input)?;
            let i = self
                .calls
                .iter()
                .position(|c| *c == call)
                .ok_or_else(|| err("aggregate not collected"))?;
            return Ok(Some(expr::col(self.keys.len() + i)));
        }
        if !ast.contains_aggregate() {
            if let Ok(bound) = bind_expr(ast, input) {
                if let Some(i) = self.keys.iter().position(|k| *k == bound) {
                    return Ok(Some(expr::col(i)));
                }
                if let Expr::Literal(_) = bound {
                    return Ok(Some(bound));
                }
            }
        }
        if let ExprAst::Ident(_) = ast {
            return Err(err(format!(
                "expression must appear in GROUP BY or be an aggregate: {ast:?}"
            )));
        }
        Ok(None)
    }
}

fn unary(op: UnOp, input: Expr) -> Expr {
    Expr::Unary {
        op,
        input: Box::new(input),
    }
}

/// Bind an AST expression, resolving its leaves through `scope`.
fn bind_expr(ast: &ExprAst, scope: &Scope<'_>) -> Result<Expr> {
    if let Some(bound) = scope.grouped(ast)? {
        return Ok(bound);
    }
    let bind = |e: &ExprAst| bind_expr(e, scope);
    Ok(match ast {
        ExprAst::Ident(parts) => scope.column(&parts.join("."))?,
        ExprAst::Int(v) => expr::lit(Scalar::Int64(*v)),
        ExprAst::Float(v) => expr::lit(Scalar::Float64(*v)),
        ExprAst::Str(s) => expr::lit(Scalar::Utf8(s.clone())),
        ExprAst::Date(s) => expr::lit(Scalar::Date32(
            parse_date32(s).ok_or_else(|| err(format!("bad date literal {s}")))?,
        )),
        ExprAst::Interval { .. } => return Err(err("interval literal outside date arithmetic")),
        ExprAst::Binary { op, left, right } => match fold_date_interval(*op, left, right) {
            Some(folded) => expr::lit(folded),
            None => Expr::Binary {
                op: *op,
                left: Box::new(bind(left)?),
                right: Box::new(bind(right)?),
            },
        },
        ExprAst::Not(x) => unary(UnOp::Not, bind(x)?),
        ExprAst::Neg(x) => match ast_to_literal(ast) {
            Some(folded) => expr::lit(folded),
            None => unary(UnOp::Neg, bind(x)?),
        },
        ExprAst::IsNull { expr: x, negated } => {
            let op = if *negated {
                UnOp::IsNotNull
            } else {
                UnOp::IsNull
            };
            unary(op, bind(x)?)
        }
        ExprAst::Between {
            expr: x,
            low,
            high,
            negated,
        } => {
            let e = bind(x)?;
            let both = expr::and(expr::ge(e.clone(), bind(low)?), expr::le(e, bind(high)?));
            if *negated {
                unary(UnOp::Not, both)
            } else {
                both
            }
        }
        ExprAst::Like {
            expr: x,
            pattern,
            negated,
        } => Expr::Like {
            input: Box::new(bind(x)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        ExprAst::InList {
            expr: x,
            list,
            negated,
        } => Expr::InList {
            list: list
                .iter()
                .map(|e| ast_to_literal(e).ok_or_else(|| err("IN list requires literal values")))
                .collect::<Result<_>>()?,
            input: Box::new(bind(x)?),
            negated: *negated,
        },
        ExprAst::Case {
            branches,
            otherwise,
        } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| Ok((bind(c)?, bind(v)?)))
                .collect::<Result<_>>()?,
            otherwise: (otherwise.as_deref().map(bind).transpose()?).map(Box::new),
        },
        ExprAst::ExtractYear(x) => unary(UnOp::ExtractYear, bind(x)?),
        ExprAst::Substring {
            expr: x,
            start,
            len,
        } => Expr::Substring {
            input: Box::new(bind(x)?),
            start: *start,
            len: *len,
        },
        ExprAst::Agg { .. } => return Err(err("aggregate in a non-aggregate context")),
        ExprAst::ScalarSubquery(q) => scope.scalar_subquery(q)?,
        ExprAst::Exists { .. } | ExprAst::InSubquery { .. } => {
            return Err(err(
                "EXISTS / IN subquery is only supported as a top-level AND conjunct of WHERE",
            ))
        }
    })
}

/// True if the AST contains any subquery node.
pub fn contains_subquery(e: &ExprAst) -> bool {
    e.any(|x| {
        matches!(
            x,
            ExprAst::Exists { .. } | ExprAst::InSubquery { .. } | ExprAst::ScalarSubquery(_)
        )
    })
}

fn ast_to_literal(e: &ExprAst) -> Option<Scalar> {
    match e {
        ExprAst::Int(v) => Some(Scalar::Int64(*v)),
        ExprAst::Float(v) => Some(Scalar::Float64(*v)),
        ExprAst::Str(s) => Some(Scalar::Utf8(s.clone())),
        ExprAst::Date(s) => parse_date32(s).map(Scalar::Date32),
        ExprAst::Neg(inner) => match ast_to_literal(inner)? {
            Scalar::Int64(v) => Some(Scalar::Int64(-v)),
            Scalar::Float64(v) => Some(Scalar::Float64(-v)),
            _ => None,
        },
        _ => None,
    }
}

/// Fold `date ± interval` with literal operands.
fn fold_date_interval(op: BinOp, l: &ExprAst, r: &ExprAst) -> Option<Scalar> {
    let (date_ast, interval_ast, sign) = match (l, r, op) {
        (d, ExprAst::Interval { .. }, BinOp::Add) => (d, r, 1),
        (d, ExprAst::Interval { .. }, BinOp::Sub) => (d, r, -1),
        (ExprAst::Interval { .. }, d, BinOp::Add) => (d, l, 1),
        _ => return None,
    };
    let base = match ast_to_literal(date_ast)? {
        Scalar::Date32(d) => d,
        _ => return None,
    };
    if let ExprAst::Interval { value, unit } = interval_ast {
        let v = *value * sign;
        let out = match unit {
            IntervalUnit::Day => base + v as i32,
            IntervalUnit::Month => date32_add_months(base, v as i32),
            IntervalUnit::Year => date32_add_months(base, (v * 12) as i32),
        };
        return Some(Scalar::Date32(out));
    }
    None
}

// ---------------------------------------------------------------------------
// Subquery decorrelation
// ---------------------------------------------------------------------------

/// Apply one WHERE conjunct containing subqueries to `plan`, whose schema
/// (`schema`) it keeps.
fn apply_subquery_conjunct(
    plan: Rel,
    schema: &Schema,
    conjunct: &ExprAst,
    ctx: &BindCtx<'_>,
) -> Result<Rel> {
    let semi_or_anti = |negated: bool| {
        if negated {
            JoinKind::Anti
        } else {
            JoinKind::Semi
        }
    };
    match conjunct {
        ExprAst::Exists { query, negated } => {
            decorrelate_exists(plan, schema, query, semi_or_anti(*negated), ctx)
        }
        ExprAst::InSubquery {
            expr: key,
            query,
            negated,
        } => {
            // `expr [NOT] IN (subquery)` → semi/anti join on one key.
            let (inner, inner_schema) = bind_query(query, ctx)?;
            if inner_schema.len() != 1 {
                return Err(err("IN subquery must produce exactly one column"));
            }
            let keys = (
                vec![bind_expr(key, &Scope::plain(schema, None))?],
                vec![expr::col(0)],
            );
            Ok(join(plan, inner, semi_or_anti(*negated), keys, vec![]))
        }
        other => apply_predicate(plan, schema, other, ctx, &Scope::plain(schema, None)),
    }
}

/// `[NOT] EXISTS (sub)`: the correlated equalities of the subquery's WHERE
/// become semi/anti join keys, its other correlated conjuncts the residual.
fn decorrelate_exists(
    plan: Rel,
    schema: &Schema,
    sub: &Query,
    kind: JoinKind,
    ctx: &BindCtx<'_>,
) -> Result<Rel> {
    if !sub.select.group_by.is_empty() || sub.select.having.is_some() {
        return Err(err("EXISTS subquery with grouping is not supported"));
    }
    let ctx = with_ctes(sub, ctx)?;
    let inner = bind_product(&sub.select, &ctx, Some(schema))?;
    let (inner_keys, outer_keys, rest) = split_equi_keys(inner.correlated, OUTER_BASE);
    if outer_keys.is_empty() {
        return Err(err(
            "EXISTS subquery without correlated equality is not supported",
        ));
    }
    // Residual over [outer ++ inner].
    let width = schema.len();
    let residual = rest
        .iter()
        .map(|c| {
            c.remap_columns(&|i| {
                if i < OUTER_BASE {
                    width + i
                } else {
                    i - OUTER_BASE
                }
            })
        })
        .collect();
    Ok(join(
        plan,
        inner.plan,
        kind,
        (outer_keys, inner_keys),
        residual,
    ))
}

/// Filter `plan` (schema `schema`) by `predicate` bound in `scope`. Every
/// scalar subquery the predicate mentions is joined in first — correlated
/// aggregate subqueries as group-by + `Single` join on the correlation
/// keys, uncorrelated ones as a keyless `Single` (cross) join — and the
/// joined columns are projected away again after the filter.
fn apply_predicate(
    plan: Rel,
    schema: &Schema,
    predicate: &ExprAst,
    ctx: &BindCtx<'_>,
    scope: &Scope<'_>,
) -> Result<Rel> {
    let mut subqueries = Vec::new();
    predicate.walk(&mut |e| {
        if let ExprAst::ScalarSubquery(q) = e {
            subqueries.push(&**q);
        }
        true
    });
    if subqueries.is_empty() {
        return Ok(filter(plan, bind_expr(predicate, scope)?));
    }
    let (mut plan, mut joined) = (plan, schema.clone());
    let mut scalars = Vec::with_capacity(subqueries.len());
    for q in subqueries {
        (plan, joined) = join_scalar_subquery(plan, &joined, q, ctx)?;
        scalars.push((q, joined.len() - 1));
    }
    let scope = Scope {
        scalars: &scalars,
        ..*scope
    };
    let filtered = filter(plan, bind_expr(predicate, &scope)?);
    let keep = schema
        .fields
        .iter()
        .enumerate()
        .map(|(i, f)| (expr::col(i), f.name.clone()))
        .collect();
    Ok(project(filtered, keep))
}

/// Join one scalar subquery into the plan; its value becomes the last
/// column of the returned plan and schema.
fn join_scalar_subquery(
    plan: Rel,
    schema: &Schema,
    sub: &Query,
    ctx: &BindCtx<'_>,
) -> Result<(Rel, Schema)> {
    let select = &sub.select;
    let value_name = format!("__scalar{}", schema.len());
    let ctx = with_ctes(sub, ctx)?;
    let inner = bind_product(select, &ctx, Some(schema))?;

    let (inner_plan, inner_schema, keys) = if inner.correlated.is_empty() {
        // Uncorrelated: an ordinary single-column query, cross-joined.
        let (inner_plan, inner_schema) = finish_select(sub, inner, &ctx)?;
        if inner_schema.len() != 1 {
            return Err(err("scalar subquery must produce one column"));
        }
        let value = project(inner_plan, vec![(expr::col(0), value_name)]);
        let value_schema = value.output_schema(&[&inner_schema])?;
        (value, value_schema, (vec![], vec![]))
    } else {
        // Correlated aggregate: group the subquery by the inner sides of
        // its correlated equalities and join on them.
        let (inner_keys, outer_keys, rest) = split_equi_keys(inner.correlated, OUTER_BASE);
        if !rest.is_empty() {
            return Err(err(
                "only equality correlation is supported in scalar subqueries",
            ));
        }
        let item = match select.items.as_slice() {
            [item] if item.expr.contains_aggregate() => &item.expr,
            _ => return Err(err("correlated scalar subquery must be a single aggregate")),
        };
        let input = Scope::plain(&inner.schema, None);
        let mut calls = Vec::new();
        collect_aggs(item, &input, &mut calls)?;
        let grouping = Grouping {
            keys: inner_keys,
            calls,
        };
        // The item on top of the aggregation (e.g. `0.5 * sum(...)`).
        let scope = Scope {
            grouping: Some(&grouping),
            ..input
        };
        let width = outer_keys.len();
        let mut exprs: Vec<(Expr, String)> = (0..width)
            .map(|i| (expr::col(i), format!("__key{i}")))
            .collect();
        exprs.push((bind_expr(item, &scope)?, value_name));
        let aggregated = grouping.aggregate(inner.plan);
        let aggregated_schema = aggregated.output_schema(&[&inner.schema])?;
        let grouped = project(aggregated, exprs);
        let grouped_schema = grouped.output_schema(&[&aggregated_schema])?;
        let keys = (outer_keys, (0..width).map(expr::col).collect());
        (grouped, grouped_schema, keys)
    };
    let joined = join(plan, inner_plan, JoinKind::Single, keys, vec![]);
    let joined_schema = joined.output_schema(&[schema, &inner_schema])?;
    Ok((joined, joined_schema))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_keys_split_an_on_clause_and_a_correlation_alike() {
        // ON over [left: 0..2 | right: 2..4]: one key pair either way
        // round, a same-side equality and an inequality are left over.
        let on = vec![
            expr::eq(expr::col(0), expr::col(2)),
            expr::eq(expr::col(3), expr::col(1)),
            expr::eq(expr::col(0), expr::col(1)),
            expr::lt(expr::col(1), expr::col(3)),
        ];
        let (left, right, rest) = split_equi_keys(on.clone(), 2);
        assert_eq!(left, vec![expr::col(0), expr::col(1)]);
        assert_eq!(right, vec![expr::col(0), expr::col(1)]);
        assert_eq!(rest, on[2..]);

        // Correlated conjuncts: outer columns sit at OUTER_BASE; an
        // outer-only predicate is not a key.
        let outer = |i| expr::col(OUTER_BASE + i);
        let correlated = vec![
            expr::eq(outer(4), expr::col(7)),
            expr::eq(outer(1), expr::lit(Scalar::Int64(3))),
        ];
        let (inner_keys, outer_keys, rest) = split_equi_keys(correlated.clone(), OUTER_BASE);
        assert_eq!(inner_keys, vec![expr::col(7)]);
        assert_eq!(outer_keys, vec![expr::col(4)]);
        assert_eq!(rest, correlated[1..]);
    }
}
