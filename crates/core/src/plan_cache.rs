//! Plan cache and runtime-feedback store.
//!
//! A serving system sees the same parameterized query shapes endlessly;
//! re-running parse → bind → optimize → compile per request wastes host
//! CPU and, worse, repeats the same estimate-driven join-order mistakes
//! forever. This module makes the compiled plan a *shared, cache-resident
//! artifact*:
//!
//! - [`CompiledQuery`] — the immutable compile output (normalized plan +
//!   fused pipeline DAG + fingerprint), produced once by
//!   [`SiriusEngine::compile_query`](crate::SiriusEngine::compile_query)
//!   and started any number of times with
//!   [`begin_compiled`](crate::SiriusEngine::begin_compiled).
//! - [`PlanCache`] — fingerprint → `Arc<CompiledQuery>` with LRU
//!   eviction on a logical touch clock and hit/miss/evict/replan
//!   counters for Prometheus export.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::physical::PhysicalPlan;

/// An immutable compiled query: normalized plan, fused pipeline DAG, and
/// the fingerprint the cache keys it under. Cheap to share (`Arc`) and to
/// start: [`begin_compiled`](crate::SiriusEngine::begin_compiled) allocates
/// only the run's dependency bookkeeping — the run and its morsel tasks
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

    /// Render EXPLAIN ANALYZE for this compiled plan from a stats
    /// snapshot (typically a per-run delta).
    pub fn explain_analyze(&self, stats: &HashMap<u32, OpStats>) -> String {
        crate::explain::render(&self.phys.root, stats)
    }
}

/// Monotonic counters describing a [`PlanCache`]'s behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries replaced by a feedback-driven re-optimization.
    pub replans: u64,
    /// Live entries right now.
    pub entries: u64,
}

struct CacheEntry {
    query: Arc<CompiledQuery>,
    touch: u64,
}

/// Fingerprint-keyed LRU cache of compiled queries.
///
/// Recency is a logical touch counter (the simulated clock never reaches
/// this layer, and wall time would break replay determinism): every
/// `get` hit and `insert` bumps the clock, and eviction removes the
/// smallest touch. Shared across tenants by design — plan shapes are not
/// tenant data, and sharing is what makes the second tenant's identical
/// dashboard query free.
pub struct PlanCache {
    capacity: usize,
    entries: Mutex<HashMap<PlanFingerprint, CacheEntry>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    replans: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` compiled plans (min 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            entries: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            replans: AtomicU64::new(0),
        }
    }

    /// Look up a compiled plan, counting the hit or miss and refreshing
    /// recency on hit.
    pub fn get(&self, fingerprint: &PlanFingerprint) -> Option<Arc<CompiledQuery>> {
        let mut entries = self.entries.lock();
        match entries.get_mut(fingerprint) {
            Some(e) => {
                e.touch = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.query))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a compiled plan under its own fingerprint, evicting the
    /// least-recently-used entry if the cache is full. Returns the
    /// evicted plan's fingerprint, if any.
    pub fn insert(&self, query: Arc<CompiledQuery>) -> Option<PlanFingerprint> {
        let fp = query.fingerprint();
        let mut entries = self.entries.lock();
        let touch = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        entries.insert(fp, CacheEntry { query, touch });
        let mut evicted = None;
        if entries.len() > self.capacity {
            if let Some(victim) = entries.iter().min_by_key(|(_, e)| e.touch).map(|(k, _)| *k) {
                entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                evicted = Some(victim);
            }
        }
        evicted
    }

    /// Replace a cached plan after a feedback-driven re-optimization:
    /// the old entry for `retired` is removed (retired, not evicted) and
    /// the new plan inserted; the re-plan counter increments.
    pub fn replace(
        &self,
        retired: &PlanFingerprint,
        query: Arc<CompiledQuery>,
    ) -> Option<PlanFingerprint> {
        self.entries.lock().remove(retired);
        self.replans.fetch_add(1, Ordering::Relaxed);
        self.insert(query)
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            replans: self.replans.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
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
    /// — `above`, the rows of its topmost node that ran — is recorded there,
    /// unless one of the tables is read more than once in the plan: a
    /// self-join makes the set ambiguous.
    fn tables(&mut self, rel: &'a Rel, node: Node, above: Option<f64>) -> BTreeSet<&'a str> {
        let ran = self.stats.get(&node.id).filter(|s| s.invocations > 0);
        let top = above.or(ran.map(|s| s.rows_out as f64));
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
    /// the *executed* normalized plan (pre-order ids over it key
    /// `stats`). Each subtree is keyed by its base-table set — stable
    /// under join reordering — taking the topmost (pre-order-first)
    /// node of each set that actually has stats. Tables appearing more
    /// than once in the plan (self-joins) make set identity ambiguous;
    /// their sets are skipped. Returns the number of observations
    /// recorded.
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

    fn compiled(table: &str, threshold: i64) -> Arc<CompiledQuery> {
        let plan = PlanBuilder::scan(table, Schema::new(vec![Field::new("k", DataType::Int64)]))
            .filter(expr::gt(expr::col(0), expr::lit_i64(threshold)))
            .build();
        let normalized = sirius_plan::normalize::normalize(&plan);
        let fingerprint = sirius_plan::fingerprint::fingerprint(&normalized);
        let phys = Arc::new(crate::physical::compile(&plan).unwrap());
        Arc::new(CompiledQuery { fingerprint, phys })
    }

    #[test]
    fn cache_hits_misses_and_counts() {
        let cache = PlanCache::new(4);
        let q = compiled("t", 5);
        let fp = q.fingerprint();
        assert!(cache.get(&fp).is_none());
        cache.insert(Arc::clone(&q));
        assert!(cache.get(&fp).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let cache = PlanCache::new(2);
        let (a, b, c) = (compiled("a", 1), compiled("b", 1), compiled("c", 1));
        cache.insert(Arc::clone(&a));
        cache.insert(Arc::clone(&b));
        // Touch `a` so `b` is the LRU victim.
        assert!(cache.get(&a.fingerprint()).is_some());
        let evicted = cache.insert(Arc::clone(&c));
        assert_eq!(evicted, Some(b.fingerprint()));
        assert!(cache.get(&a.fingerprint()).is_some());
        assert!(cache.get(&b.fingerprint()).is_none());
        assert!(cache.get(&c.fingerprint()).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn replace_retires_old_entry_and_counts_replan() {
        let cache = PlanCache::new(4);
        let old = compiled("t", 5);
        let new = compiled("t", 9); // same shape, different constants
        cache.insert(Arc::clone(&old));
        cache.replace(&old.fingerprint(), Arc::clone(&new));
        assert!(cache.get(&old.fingerprint()).is_none());
        assert!(cache.get(&new.fingerprint()).is_some());
        let stats = cache.stats();
        assert_eq!(stats.replans, 1);
        assert_eq!(stats.entries, 1);
    }

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
        // Sort(0) -> Filter(1) -> Read(2): the sort has an entry but never
        // ran, so the filter's rows stand for {t}.
        let plan = PlanBuilder::scan("t", Schema::new(vec![Field::new("k", DataType::Int64)]))
            .filter(expr::gt(expr::col(0), expr::lit_i64(0)))
            .sort(vec![])
            .build();
        let mut filter = OpStats::default();
        filter.note(30, 240, Duration::from_micros(1));
        let mut read = OpStats::default();
        read.note(100, 800, Duration::from_micros(1));
        let stats = HashMap::from([(0, OpStats::default()), (1, filter), (2, read)]);
        let store = FeedbackStore::new();
        assert_eq!(store.record(3, &plan, &stats), 1);
        let t = BTreeSet::from(["t".to_string()]);
        assert_eq!(store.snapshot(3).unwrap().cardinalities[&t], 30.0);
    }
}
