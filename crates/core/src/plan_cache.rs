//! What a plan cache keeps, without the cache: the compiled plan and the
//! runtime-feedback store (with its per-shape [`ShapeFeedback`]). The
//! module holds nothing else.
//!
//! A serving system sees the same parameterized query shapes endlessly;
//! re-running parse → bind → optimize → compile per request wastes host
//! CPU and, worse, repeats the same estimate-driven join-order mistakes
//! forever. The serving layer's `CachingPlanner` owns the cache (an LRU
//! keyed by SQL text) and keeps one of each per entry and per shape:
//!
//! - [`CompiledQuery`] — the immutable compile output (normalized plan +
//!   fused pipeline DAG + fingerprint), produced once by
//!   [`SiriusEngine::compile_query`](crate::SiriusEngine::compile_query)
//!   and started any number of times with
//!   [`begin_compiled`](crate::SiriusEngine::begin_compiled).
//! - [`FeedbackStore`] — per-*shape* observed cardinalities, recorded
//!   from `operator_stats` after each run and keyed by the set of base
//!   tables under each subtree (stable across join reordering), so the
//!   optimizer's `Statistics` source can serve actuals instead of
//!   estimates on the next plan of the same shape.

use crate::explain::OpStats;
use parking_lot::Mutex;
use sirius_plan::fingerprint::PlanFingerprint;
use sirius_plan::visit::Node;
use sirius_plan::Rel;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::physical::PhysicalPlan;

/// An immutable compiled query: normalized plan, fused pipeline DAG, and
/// its fingerprint. Cheap to share (`Arc`) and to start:
/// [`begin_compiled`](crate::SiriusEngine::begin_compiled) allocates only
/// the run's dependency bookkeeping — the run and its morsel tasks
/// execute this DAG through the same `Arc`, never a copy.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    pub(crate) fingerprint: PlanFingerprint,
    pub(crate) phys: Arc<PhysicalPlan>,
}

impl CompiledQuery {
    /// The fingerprint of the normalized plan this was compiled from.
    pub fn fingerprint(&self) -> PlanFingerprint {
        self.fingerprint
    }

    /// The normalized plan. Pre-order operator ids over this tree are
    /// exactly the ids execution stamps into `operator_stats`, so
    /// EXPLAIN ANALYZE and feedback recording can never drift from the
    /// executed DAG.
    pub fn root(&self) -> &Rel {
        &self.phys.root
    }

    /// Number of pipelines in the compiled DAG.
    pub fn pipeline_count(&self) -> usize {
        self.phys.pipelines.len()
    }
}

/// Observed cardinalities for one plan shape: subtree base-table set →
/// actual output rows, plus how many runs contributed.
#[derive(Debug, Clone, Default)]
pub struct ShapeFeedback {
    /// Latest observed output cardinality per subtree table set.
    pub cardinalities: HashMap<BTreeSet<String>, f64>,
    /// Completed runs that recorded into this shape.
    pub runs: u64,
    /// Bumped only when a recorded run *changed* some cardinality (new
    /// subtree, or a different value). Planners re-optimize when this
    /// moves past the version they last planned at — so steady-state
    /// traffic repeating identical observations never re-plans.
    pub version: u64,
}

/// [`FeedbackStore::record`]'s walk: every node's base-table set derived
/// once, bottom-up, from its inputs' sets.
struct Observe<'a, 's> {
    /// How often the plan reads each table.
    occurrences: HashMap<&'a str, usize>,
    stats: &'s HashMap<u32, OpStats>,
    observed: HashMap<BTreeSet<String>, f64>,
}

impl<'a> Observe<'a, '_> {
    /// The base tables under `rel`. A chain of single-input operators reads
    /// the tables of the scan or join it ends in, so the chain's observation
    /// — `above`, the rows of its topmost streaming node that ran — is
    /// recorded there, unless one of the tables is read more than once in
    /// the plan: a self-join makes the set ambiguous. Breakers (aggregate,
    /// sort, limit, distinct, exchange) are passed over: their rows are the
    /// chain's answer, not the cardinality a join order is planned from.
    fn tables(&mut self, rel: &'a Rel, node: Node, above: Option<f64>) -> BTreeSet<&'a str> {
        let breaker = matches!(
            rel,
            Rel::Aggregate { .. }
                | Rel::Sort { .. }
                | Rel::Limit { .. }
                | Rel::Distinct { .. }
                | Rel::Exchange { .. }
        );
        let ran = self.stats.get(&node.id).filter(|s| s.invocations > 0);
        let top = above.or(ran.map(|s| s.rows_out as f64).filter(|_| !breaker));
        let tables = match (rel, &rel.children()[..]) {
            (Rel::Read { table, .. }, _) => BTreeSet::from([table.as_str()]),
            (_, [input]) => return self.tables(input, node.first_child(), top),
            (_, [left, right]) => {
                let mut tables = self.tables(left, node.first_child(), None);
                tables.extend(self.tables(right, node.first_child().after(left), None));
                tables
            }
            _ => BTreeSet::new(),
        };
        let unambiguous = tables.iter().all(|t| self.occurrences[t] == 1);
        if let Some(rows) = top.filter(|_| unambiguous) {
            let set = tables.iter().map(|t| t.to_string()).collect();
            self.observed.insert(set, rows);
        }
        tables
    }
}

/// Runtime-feedback store keyed by fingerprint *shape* (not constants):
/// literal variations of one query shape share observations, which is
/// exactly what makes feedback useful for parameterized serving traffic.
#[derive(Default)]
pub struct FeedbackStore {
    shapes: Mutex<HashMap<u64, ShapeFeedback>>,
}

impl FeedbackStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one run's actual cardinalities for `shape`. `root` must be
    /// the *executed* normalized plan (pre-order ids over it key `stats`,
    /// the [`operator_stats`](crate::SiriusEngine::operator_stats) its
    /// engine kept of that run). Each subtree is keyed by its base-table
    /// set — stable under join reordering — taking the topmost
    /// (pre-order-first) streaming node of each set that actually ran;
    /// breakers are skipped. Tables appearing more than once in the plan
    /// (self-joins) make set identity ambiguous; their sets are skipped.
    /// Returns the number of observations recorded.
    pub fn record(&self, shape: u64, root: &Rel, stats: &HashMap<u32, OpStats>) -> usize {
        let all_tables = root.tables();
        let mut occurrences: HashMap<&str, usize> = HashMap::new();
        for t in &all_tables {
            *occurrences.entry(t.as_str()).or_insert(0) += 1;
        }
        let mut walk = Observe {
            occurrences,
            stats,
            observed: HashMap::new(),
        };
        walk.tables(root, Node::ROOT, None);
        let n = walk.observed.len();
        if n > 0 {
            let mut shapes = self.shapes.lock();
            let fb = shapes.entry(shape).or_default();
            let changed = walk
                .observed
                .iter()
                .any(|(set, rows)| fb.cardinalities.get(set) != Some(rows));
            fb.cardinalities.extend(walk.observed);
            fb.runs += 1;
            fb.version += u64::from(changed);
        }
        n
    }

    /// `shape`'s feedback generation ([`ShapeFeedback::version`]), 0 before
    /// any run recorded into it.
    pub fn version(&self, shape: u64) -> u64 {
        self.shapes.lock().get(&shape).map_or(0, |f| f.version)
    }

    /// The observed cardinalities for `shape`, if any run recorded them.
    pub fn snapshot(&self, shape: u64) -> Option<ShapeFeedback> {
        self.shapes.lock().get(&shape).cloned()
    }

    /// Number of shapes with recorded feedback.
    pub fn shapes(&self) -> usize {
        self.shapes.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{DataType, Field, Schema};
    use sirius_plan::builder::PlanBuilder;
    use sirius_plan::{expr, JoinKind};
    use std::time::Duration;

    #[test]
    fn feedback_records_topmost_subtree_cardinalities() {
        let scan = |t: &str| {
            PlanBuilder::scan(
                t,
                Schema::new(vec![Field::new(format!("{t}.k"), DataType::Int64)]),
            )
        };
        // Join(0) { Filter(1) -> Read(2, "l"), Read(3, "r") }
        let plan = scan("l")
            .filter(expr::gt(expr::col(0), expr::lit_i64(0)))
            .join(
                scan("r"),
                JoinKind::Inner,
                vec![expr::col(0)],
                vec![expr::col(0)],
                None,
            )
            .build();
        let mut stats = HashMap::new();
        let mut note = |id: u32, rows: u64| {
            let mut s = OpStats::default();
            s.note(rows, rows * 8, Duration::from_micros(1));
            stats.insert(id, s);
        };
        note(0, 40); // join output: the {l, r} cardinality
        note(1, 70); // filtered l: the topmost {l} node
        note(2, 100); // raw read, shadowed by the filter above it
        note(3, 50);
        let store = FeedbackStore::new();
        let recorded = store.record(7, &plan, &stats);
        assert_eq!(recorded, 3);
        let fb = store.snapshot(7).unwrap();
        let key = |ts: &[&str]| -> BTreeSet<String> { ts.iter().map(|s| s.to_string()).collect() };
        assert_eq!(fb.cardinalities[&key(&["l"])], 70.0);
        assert_eq!(fb.cardinalities[&key(&["r"])], 50.0);
        assert_eq!(fb.cardinalities[&key(&["l", "r"])], 40.0);
        assert_eq!(fb.runs, 1);
        assert!(store.snapshot(8).is_none());
    }

    #[test]
    fn feedback_skips_self_join_sets() {
        let scan = |t: &str| {
            PlanBuilder::scan(
                t,
                Schema::new(vec![Field::new(format!("{t}.k"), DataType::Int64)]),
            )
        };
        let plan = scan("t")
            .join(
                scan("t"),
                JoinKind::Inner,
                vec![expr::col(0)],
                vec![expr::col(0)],
                None,
            )
            .build();
        let mut stats = HashMap::new();
        for id in 0..3u32 {
            let mut s = OpStats::default();
            s.note(10, 80, Duration::from_micros(1));
            stats.insert(id, s);
        }
        let store = FeedbackStore::new();
        assert_eq!(store.record(1, &plan, &stats), 0);
        assert!(store.snapshot(1).is_none());
    }

    #[test]
    fn feedback_takes_the_topmost_node_that_ran() {
        // Limit(0) -> Project(1) -> Filter(2) -> Read(3): the limit ran but
        // is a breaker, the project has an entry but never ran, so the
        // filter's rows stand for {t}.
        let plan = PlanBuilder::scan("t", Schema::new(vec![Field::new("k", DataType::Int64)]))
            .filter(expr::gt(expr::col(0), expr::lit_i64(0)))
            .project(vec![(expr::col(0), "k".into())])
            .limit(0, Some(10))
            .build();
        let noted = |rows: u64| {
            let mut s = OpStats::default();
            s.note(rows, rows * 8, Duration::from_micros(1));
            s
        };
        let stats = HashMap::from([
            (0, noted(10)),
            (1, OpStats::default()),
            (2, noted(30)),
            (3, noted(100)),
        ]);
        let store = FeedbackStore::new();
        assert_eq!(store.record(3, &plan, &stats), 1);
        let t = BTreeSet::from(["t".to_string()]);
        assert_eq!(store.snapshot(3).unwrap().cardinalities[&t], 30.0);
    }
}
