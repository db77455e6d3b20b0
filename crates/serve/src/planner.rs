//! The server-side caching planner: SQL text → cached [`CompiledQuery`].
//!
//! Serving traffic is dominated by *repeated shapes* — the same dashboard
//! or report query arriving over and over with different literals. Without
//! a plan cache every admission pays parse → bind → optimize → compile
//! again, and worse, repeats the same estimate-driven join-order mistakes
//! forever. [`CachingPlanner`] closes both gaps:
//!
//! * **Plan cache** — admissions resolve SQL text through one LRU map
//!   from the text to its compiled plan; a repeated text skips the
//!   entire planning phase and starts straight from the cached
//!   [`CompiledQuery`] (`begin_compiled`). The cache is shared across
//!   tenants by design: plan shapes are not tenant data, and sharing is
//!   what makes the second tenant's identical query free.
//! * **Runtime feedback** — each *completed* run records its actual
//!   per-subtree cardinalities (scoped to that run alone — see
//!   `SiriusEngine::run_operator_stats`) into a [`FeedbackStore`] keyed
//!   by the plan's fingerprint *shape*, so literal variants of one query
//!   pool their observations. The next resolution of that shape re-runs
//!   the optimizer with actuals instead of estimates; if the plan
//!   changes, the text's entry takes the new plan (a counted *re-plan*).
//!   With [`CachingPlanner::with_adaptive`]`(false)` the planner never
//!   consults feedback and cached plans are bit-for-bit the estimate-only
//!   ones.

use crate::metrics;
use parking_lot::Mutex;
use sirius_core::{
    CompiledQuery, FeedbackStore, OpStats, ShapeFeedback, SiriusEngine, SiriusError,
};
use sirius_plan::fingerprint::fingerprint;
use sirius_plan::normalize::normalize;
use sirius_plan::Rel;
use sirius_sql::{
    plan_sql, plan_sql_with_stats, BinderCatalog, CatalogStatistics, JoinOrderPolicy, Statistics,
};
use sirius_trace::metrics::MetricsRegistry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Catalog estimates overlaid with observed cardinalities for one plan
/// shape: the [`Statistics`] source the planner re-optimizes with after
/// feedback arrives.
struct FeedbackStatistics<'a> {
    base: CatalogStatistics<'a>,
    feedback: &'a ShapeFeedback,
}

impl Statistics for FeedbackStatistics<'_> {
    fn base_rows(&self, table: &str) -> Option<f64> {
        self.base.base_rows(table)
    }

    fn actual_rows(&self, tables: &BTreeSet<String>) -> Option<f64> {
        self.feedback.cardinalities.get(tables).copied()
    }
}

/// What [`CachingPlanner::resolve`] produced for one admission.
pub struct ResolvedPlan {
    /// The compiled artifact to start with `begin_compiled`.
    pub compiled: Arc<CompiledQuery>,
    /// The *canonical* fingerprint shape (of the estimate-only plan for
    /// this SQL) — the key completed runs record feedback under, stable
    /// even after adaptive re-optimization changes the executed plan.
    pub shape: u64,
    /// Whether any planning work (parse/bind/optimize/compile) ran. A
    /// pure cache hit is `false` — the steady state for repeated shapes.
    pub planned: bool,
}

/// Monotonic counters describing the plan cache's behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Resolutions served from the cache.
    pub hits: u64,
    /// Resolutions of a text never seen, or whose entry was evicted.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Feedback-driven re-optimizations that changed a text's plan.
    pub replans: u64,
    /// Live entries right now.
    pub entries: u64,
}

/// One cached SQL text.
struct Entry {
    /// Shape fingerprint of the estimate-only plan (feedback key).
    shape: u64,
    /// The current (possibly re-optimized) plan.
    compiled: Arc<CompiledQuery>,
    /// Logical time of the last resolution that returned this entry.
    touch: u64,
}

/// Everything the planner remembers, under its one mutex.
#[derive(Default)]
struct Cache {
    /// SQL text → its plan: at most the planner's capacity, and the least
    /// recently touched entry makes room. Recency is a logical clock (the
    /// simulated clock never reaches this layer, and wall time would break
    /// replay determinism).
    by_sql: HashMap<String, Entry>,
    /// Feedback generation (`ShapeFeedback::version`) each shape was last
    /// planned at, for the shapes some entry has. The version moves only
    /// when an observation actually *changed*, so steady-state traffic
    /// repeating identical runs stays on the pure cache-hit path; a changed
    /// observation triggers exactly one re-optimization.
    planned_version: HashMap<u64, u64>,
    clock: u64,
    /// Counters; `entries` is filled in by [`Cache::stats`].
    counts: PlanCacheStats,
    /// Admissions that executed a planning phase (parse → bind →
    /// optimize → compile). Cache hits do not increment it — the
    /// acceptance probe for "zero planning work after first admission".
    planning_phases: u64,
    /// Counters already published to Prometheus (deltas are published).
    published: (PlanCacheStats, u64),
}

impl Cache {
    fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            entries: self.by_sql.len() as u64,
            ..self.counts
        }
    }

    /// Over `capacity`, drop the least recently touched entry, and the
    /// planned version of its shape once no entry of that shape is left.
    fn evict_over(&mut self, capacity: usize) {
        if self.by_sql.len() <= capacity {
            return;
        }
        let oldest = self.by_sql.iter().min_by_key(|(_, e)| e.touch);
        let oldest = oldest.map(|(sql, _)| sql.clone());
        if let Some(gone) = oldest.and_then(|sql| self.by_sql.remove(&sql)) {
            self.counts.evictions += 1;
            if self.by_sql.values().all(|e| e.shape != gone.shape) {
                self.planned_version.remove(&gone.shape);
            }
        }
    }
}

/// SQL-to-compiled-plan resolver with a shared plan cache and a runtime
/// feedback loop. One per [`SiriusServer`](crate::SiriusServer); shared
/// across all tenants and admissions.
pub struct CachingPlanner {
    catalog: BinderCatalog,
    policy: JoinOrderPolicy,
    capacity: usize,
    feedback: FeedbackStore,
    adaptive: bool,
    cache: Mutex<Cache>,
}

impl CachingPlanner {
    /// Planner over `catalog` with the given join-order policy, a
    /// 256-entry plan cache, and adaptive re-optimization enabled.
    pub fn new(catalog: BinderCatalog, policy: JoinOrderPolicy) -> Self {
        CachingPlanner {
            catalog,
            policy,
            capacity: 256,
            feedback: FeedbackStore::new(),
            adaptive: true,
            cache: Mutex::new(Cache::default()),
        }
    }

    /// Cap the plan cache at `capacity` SQL texts (min 1; LRU beyond it).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Enable or disable feedback-driven re-optimization. Disabled, the
    /// planner still caches but always plans from catalog estimates —
    /// cached plans are bit-for-bit the estimate-only ones, which is the
    /// knob the cache-transparency tests flip.
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Whether feedback-driven re-optimization is on.
    pub fn adaptive(&self) -> bool {
        self.adaptive
    }

    /// Resolve SQL text to a compiled plan. The steady-state path —
    /// repeated text, no new feedback — is a cache hit performing *zero*
    /// parse/bind/optimize/compile work. Planning runs when the text is
    /// new, its entry was evicted, or (adaptive only) new feedback arrived
    /// for its shape since it was last planned.
    pub fn resolve(&self, sql: &str, engine: &SiriusEngine) -> Result<ResolvedPlan, SiriusError> {
        let mut guard = self.cache.lock();
        let cache = &mut *guard;
        if let Some(entry) = cache.by_sql.get_mut(sql) {
            let planned_at = cache.planned_version.get(&entry.shape).copied();
            let fresh_feedback =
                self.adaptive && self.feedback.version(entry.shape) > planned_at.unwrap_or(0);
            if !fresh_feedback {
                cache.clock += 1;
                entry.touch = cache.clock;
                cache.counts.hits += 1;
                return Ok(ResolvedPlan {
                    compiled: Arc::clone(&entry.compiled),
                    shape: entry.shape,
                    planned: false,
                });
            }
        }
        self.plan(sql, engine, cache)
    }

    /// One full planning phase: the estimate-only plan, whose normalized
    /// form's fingerprint is the canonical shape, then one compile — of a
    /// re-optimization with observed cardinalities when feedback exists for
    /// that shape, else of the estimate-only plan itself. A text already
    /// cached (fresh feedback) takes the new plan, a counted re-plan when
    /// its fingerprint differs; any other text counts a miss.
    fn plan(
        &self,
        sql: &str,
        engine: &SiriusEngine,
        cache: &mut Cache,
    ) -> Result<ResolvedPlan, SiriusError> {
        cache.planning_phases += 1;
        let planning_failed = |e| SiriusError::Unsupported(format!("SQL planning failed: {e}"));
        let estimate_plan = plan_sql(sql, &self.catalog, self.policy).map_err(planning_failed)?;
        // The tree `compile_query` fingerprints.
        let shape = fingerprint(&normalize(&estimate_plan)).shape;
        let version_now = self.feedback.version(shape);
        let snapshot = self
            .adaptive
            .then(|| self.feedback.snapshot(shape))
            .flatten();
        let compiled = match snapshot {
            Some(fb) if !fb.cardinalities.is_empty() => {
                let stats = FeedbackStatistics {
                    base: CatalogStatistics::new(&self.catalog),
                    feedback: &fb,
                };
                let plan = plan_sql_with_stats(sql, &self.catalog, self.policy, &stats)
                    .map_err(planning_failed)?;
                engine.compile_query(&plan)?
            }
            _ => engine.compile_query(&estimate_plan)?,
        };
        cache.planned_version.insert(shape, version_now);
        cache.clock += 1;
        let entry = Entry {
            shape,
            compiled: Arc::clone(&compiled),
            touch: cache.clock,
        };
        match cache.by_sql.insert(sql.to_string(), entry) {
            Some(old) => {
                let changed = old.compiled.fingerprint() != compiled.fingerprint();
                cache.counts.replans += u64::from(changed);
            }
            None => {
                cache.counts.misses += 1;
                cache.evict_over(self.capacity);
            }
        }
        Ok(ResolvedPlan {
            compiled,
            shape,
            planned: true,
        })
    }

    /// Record a completed run's actual cardinalities for `shape`.
    /// `root` must be the executed normalized plan and `stats` the
    /// *per-run* operator deltas (`SiriusEngine::run_operator_stats`),
    /// so one tenant's run never pollutes another query's observations.
    /// Returns the number of subtree cardinalities recorded.
    pub fn observe(&self, shape: u64, root: &Rel, stats: &HashMap<u32, OpStats>) -> usize {
        self.feedback.record(shape, root, stats)
    }

    /// Plan-cache counters (hits/misses/evictions/replans/entries).
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.lock().stats()
    }

    /// Admissions that ran a planning phase (cache hits excluded).
    pub fn planning_phases(&self) -> u64 {
        self.cache.lock().planning_phases
    }

    /// The shared feedback store.
    pub fn feedback(&self) -> &FeedbackStore {
        &self.feedback
    }

    /// Publish counter deltas and the cached-plan gauge into `registry`.
    pub(crate) fn publish(&self, registry: &MetricsRegistry) {
        let mut cache = self.cache.lock();
        let (s, phases) = (cache.stats(), cache.planning_phases);
        let (p, published_phases) = cache.published;
        for (name, now, was) in [
            (metrics::PLAN_CACHE_HITS, s.hits, p.hits),
            (metrics::PLAN_CACHE_MISSES, s.misses, p.misses),
            (metrics::PLAN_CACHE_EVICTIONS, s.evictions, p.evictions),
            (metrics::PLAN_REPLANS, s.replans, p.replans),
            (metrics::PLANNING_PHASES, phases, published_phases),
        ] {
            registry.counter_add(name, &[], now.saturating_sub(was));
        }
        registry.gauge_set(metrics::CACHED_PLANS, &[], s.entries as f64);
        cache.published = (s, phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{DataType, Field, Schema};
    use sirius_core::EngineConfig;

    const FILTER: &str = "select k from t where k > 1";
    const JOIN: &str = "select a.k from a, b where a.k = b.k";

    fn catalog() -> BinderCatalog {
        let mut catalog = BinderCatalog::new();
        for (table, rows) in [("t", 100), ("a", 100), ("b", 10_000)] {
            catalog.add_table(
                table,
                Schema::new(vec![Field::new("k", DataType::Int64)]),
                rows,
            );
        }
        catalog
    }

    /// Compiling charges nothing and reads no table: an empty engine does.
    fn engine() -> SiriusEngine {
        SiriusEngine::from_config(EngineConfig::new(sirius_hw::catalog::gh200_gpu()))
    }

    /// Record one run of `resolved` in which every operator produced the
    /// rows `rows` gives for the set of tables under it.
    fn observe(planner: &CachingPlanner, resolved: &ResolvedPlan, rows: &[(&[&str], u64)]) {
        let mut stats = HashMap::new();
        sirius_plan::visit::visit(resolved.compiled.root(), &mut |node, rel| {
            let mut tables = rel.tables();
            tables.sort();
            let under = |set: &[&str]| set.iter().copied().eq(tables.iter().map(String::as_str));
            if let Some(&(_, rows_out)) = rows.iter().find(|(set, _)| under(set)) {
                let run = OpStats {
                    rows_out,
                    invocations: 1,
                    ..OpStats::default()
                };
                stats.insert(node.id, run);
            }
        });
        assert!(planner.observe(resolved.shape, resolved.compiled.root(), &stats) > 0);
    }

    /// Feedback under which the join's plan changes: `a` is the larger input.
    fn flip_join(planner: &CachingPlanner, resolved: &ResolvedPlan) {
        observe(
            planner,
            resolved,
            &[(&["a"], 5_000), (&["b"], 10), (&["a", "b"], 10)],
        );
    }

    fn stats(hits: u64, misses: u64, evictions: u64, replans: u64, entries: u64) -> PlanCacheStats {
        PlanCacheStats {
            hits,
            misses,
            evictions,
            replans,
            entries,
        }
    }

    #[test]
    fn cache_hits_misses_and_counts() {
        let (planner, engine) = (
            CachingPlanner::new(catalog(), JoinOrderPolicy::Optimized),
            engine(),
        );
        let first = planner.resolve(FILTER, &engine).unwrap();
        let second = planner.resolve(FILTER, &engine).unwrap();
        assert!(first.planned && !second.planned);
        assert!(
            Arc::ptr_eq(&first.compiled, &second.compiled),
            "a hit serves the cached plan"
        );
        assert_eq!(planner.cache_stats(), stats(1, 1, 0, 0, 1));
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let planner = CachingPlanner::new(catalog(), JoinOrderPolicy::Optimized).with_capacity(2);
        let engine = engine();
        let resolve = |sql: &str| planner.resolve(sql, &engine).unwrap().planned;
        let (a, b, c) = ("select k from a", "select k from b", "select k from t");
        assert!(resolve(a) && resolve(b));
        // Touch `a` so `b` is the least recently touched.
        assert!(!resolve(a));
        assert!(resolve(c));
        assert_eq!(planner.cache_stats(), stats(1, 3, 1, 0, 2));
        assert!(!resolve(a), "a survived");
        assert!(!resolve(c), "c survived");
        assert!(resolve(b), "b was evicted");
        assert_eq!(planner.cache_stats(), stats(3, 4, 2, 0, 2));
    }

    #[test]
    fn replace_retires_old_entry_and_counts_replan() {
        let (planner, engine) = (
            CachingPlanner::new(catalog(), JoinOrderPolicy::Optimized),
            engine(),
        );
        let old = planner.resolve(JOIN, &engine).unwrap();
        flip_join(&planner, &old);
        let new = planner.resolve(JOIN, &engine).unwrap();
        assert!(new.planned);
        assert_eq!(
            new.shape, old.shape,
            "feedback stays keyed by the estimate-only shape"
        );
        assert_ne!(new.compiled.fingerprint(), old.compiled.fingerprint());
        let again = planner.resolve(JOIN, &engine).unwrap();
        assert!(!again.planned);
        assert!(
            Arc::ptr_eq(&again.compiled, &new.compiled),
            "the old plan is retired"
        );
        assert_eq!(planner.cache_stats(), stats(1, 1, 0, 1, 1));
    }

    /// Every counter, step by step: hit, miss, feedback that leaves the plan
    /// as it was, feedback that changes it, an eviction and the evicted
    /// text's return.
    #[test]
    fn counters_follow_a_fixed_sequence() {
        let planner = CachingPlanner::new(catalog(), JoinOrderPolicy::Optimized).with_capacity(2);
        let engine = engine();
        let step = |sql: &str, planned: bool, want: PlanCacheStats, phases: u64| {
            let resolved = planner.resolve(sql, &engine).unwrap();
            assert_eq!(resolved.planned, planned, "{sql}");
            assert_eq!(planner.cache_stats(), want, "{sql}");
            assert_eq!(planner.planning_phases(), phases, "{sql}");
            resolved
        };
        let filter = step(FILTER, true, stats(0, 1, 0, 0, 1), 1);
        let hit = step(FILTER, false, stats(1, 1, 0, 0, 1), 1);
        assert!(Arc::ptr_eq(&hit.compiled, &filter.compiled));
        // Fresh feedback, same plan: planned again, no lookup, no re-plan.
        observe(&planner, &filter, &[(&["t"], 40)]);
        let refreshed = step(FILTER, true, stats(1, 1, 0, 0, 1), 2);
        assert_eq!(
            refreshed.compiled.fingerprint(),
            filter.compiled.fingerprint()
        );
        // Nothing new observed since: back on the hit path.
        step(FILTER, false, stats(2, 1, 0, 0, 1), 2);
        // Fresh feedback, different plan: one re-plan, no lookup.
        let join = step(JOIN, true, stats(2, 2, 0, 0, 2), 3);
        flip_join(&planner, &join);
        step(JOIN, true, stats(2, 2, 0, 1, 2), 4);
        // A third text evicts the least recently touched one, FILTER.
        step("select k from t where k > 2", true, stats(2, 3, 1, 1, 2), 5);
        // FILTER returns as a new text would: one miss, one plan, and it
        // evicts JOIN.
        step(FILTER, true, stats(2, 4, 2, 1, 2), 6);
        step(JOIN, true, stats(2, 5, 3, 1, 2), 7);
    }

    #[test]
    fn memo_is_bounded_by_the_cache() {
        let mut catalog = BinderCatalog::new();
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        catalog.add_table("t", schema, 100);
        let planner = CachingPlanner::new(catalog, JoinOrderPolicy::Optimized).with_capacity(8);
        let engine = engine();
        for literal in 0..1000 {
            let sql = format!("select k from t where k > {literal}");
            assert!(planner.resolve(&sql, &engine).unwrap().planned);
        }
        let stats = planner.cache_stats();
        assert_eq!((stats.entries, stats.evictions), (8, 992));
        let cache = planner.cache.lock();
        assert_eq!(cache.by_sql.len(), 8, "one text per cached plan");
        assert_eq!(cache.planned_version.len(), 1, "the variants share a shape");
        // An evicted text costs what a new one does: one miss, one plan.
        drop(cache);
        assert!(
            planner
                .resolve("select k from t where k > 0", &engine)
                .unwrap()
                .planned
        );
        assert_eq!(planner.cache_stats().misses, stats.misses + 1);
    }
}
