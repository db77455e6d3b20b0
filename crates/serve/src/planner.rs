//! The server-side caching planner: SQL text → cached [`CompiledQuery`].
//!
//! Serving traffic is dominated by *repeated shapes* — the same dashboard
//! or report query arriving over and over with different literals. Without
//! a plan cache every admission pays parse → bind → optimize → compile
//! again, and worse, repeats the same estimate-driven join-order mistakes
//! forever. [`CachingPlanner`] closes both gaps:
//!
//! * **Plan cache** — admissions resolve SQL text through a shared
//!   [`PlanCache`] keyed by [`PlanFingerprint`]; a repeated shape skips
//!   the entire planning phase and starts straight from the cached
//!   [`CompiledQuery`] (`begin_compiled`). The cache is shared across
//!   tenants by design: plan shapes are not tenant data, and sharing is
//!   what makes the second tenant's identical query free.
//! * **Runtime feedback** — each *completed* run records its actual
//!   per-subtree cardinalities (scoped to that run alone — see
//!   `SiriusEngine::run_operator_stats`) into a [`FeedbackStore`] keyed
//!   by the plan's fingerprint *shape*, so literal variants of one query
//!   pool their observations. The next resolution of that shape re-runs
//!   the optimizer with actuals instead of estimates; if the plan
//!   changes, the cached entry is retired and replaced (a counted
//!   *re-plan*). With [`CachingPlanner::with_adaptive`]`(false)` the
//!   planner never consults feedback and cached plans are bit-for-bit
//!   the estimate-only ones.

use crate::metrics;
use parking_lot::Mutex;
use sirius_core::{
    CompiledQuery, FeedbackStore, OpStats, PlanCache, PlanCacheStats, ShapeFeedback, SiriusEngine,
    SiriusError,
};
use sirius_plan::fingerprint::fingerprint;
use sirius_plan::normalize::normalize;
use sirius_plan::{PlanFingerprint, Rel};
use sirius_sql::{
    plan_sql, plan_sql_with_stats, BinderCatalog, CatalogStatistics, JoinOrderPolicy, Statistics,
};
use sirius_trace::metrics::MetricsRegistry;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
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

#[derive(Clone, Copy)]
struct MemoEntry {
    /// Shape fingerprint of the estimate-only plan (feedback key).
    canonical: u64,
    /// Fingerprint of the currently cached (possibly re-optimized) plan.
    active: PlanFingerprint,
}

#[derive(Default)]
struct Memo {
    /// SQL text → fingerprints, so repeated text skips parsing entirely.
    by_sql: HashMap<String, MemoEntry>,
    /// Feedback generation (`ShapeFeedback::version`) each shape was
    /// last planned at. The version moves only when an observation
    /// actually *changed*, so steady-state traffic repeating identical
    /// runs stays on the pure cache-hit path; a changed observation
    /// triggers exactly one re-optimization.
    planned_version: HashMap<u64, u64>,
}

impl Memo {
    /// Drop what was remembered about the plans that left the cache (one
    /// retired, one evicted, at most): the texts resolving to them — they
    /// re-plan on their next admission, as a text never seen does — and the
    /// feedback generation of every shape no text is left for. Every remembered text then
    /// resolves to a cached plan, so the memo cannot outgrow the distinct
    /// plans the LRU beside it holds.
    fn forget(&mut self, gone: [Option<PlanFingerprint>; 2]) {
        let texts = &mut self.by_sql;
        texts.retain(|_, entry| !gone.contains(&Some(entry.active)));
        self.planned_version
            .retain(|shape, _| texts.values().any(|e| e.canonical == *shape));
    }
}

/// Counters already published to Prometheus (deltas are published).
#[derive(Default, Clone, Copy)]
struct Published {
    hits: u64,
    misses: u64,
    evictions: u64,
    replans: u64,
    phases: u64,
}

/// SQL-to-compiled-plan resolver with a shared plan cache and a runtime
/// feedback loop. One per [`SiriusServer`](crate::SiriusServer); shared
/// across all tenants and admissions.
pub struct CachingPlanner {
    catalog: BinderCatalog,
    policy: JoinOrderPolicy,
    cache: PlanCache,
    feedback: FeedbackStore,
    adaptive: bool,
    /// Admissions that executed a planning phase (parse → bind →
    /// optimize → compile). Cache hits do not increment it — the
    /// acceptance probe for "zero planning work after first admission".
    planning_phases: AtomicU64,
    inner: Mutex<Memo>,
    published: Mutex<Published>,
}

impl CachingPlanner {
    /// Planner over `catalog` with the given join-order policy, a
    /// 256-entry plan cache, and adaptive re-optimization enabled.
    pub fn new(catalog: BinderCatalog, policy: JoinOrderPolicy) -> Self {
        CachingPlanner {
            catalog,
            policy,
            cache: PlanCache::new(256),
            feedback: FeedbackStore::new(),
            adaptive: true,
            planning_phases: AtomicU64::new(0),
            inner: Mutex::new(Memo::default()),
            published: Mutex::new(Published::default()),
        }
    }

    /// Cap the plan cache at `capacity` entries (LRU beyond it).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.cache = PlanCache::new(capacity);
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
    /// repeated text, no new feedback — is a memo + cache hit performing
    /// *zero* parse/bind/optimize/compile work. Planning runs when the
    /// text is new, its cache entry was evicted, or (adaptive only) new
    /// feedback arrived for its shape since it was last planned; a
    /// re-optimized plan that differs from the cached one replaces it.
    pub fn resolve(&self, sql: &str, engine: &SiriusEngine) -> Result<ResolvedPlan, SiriusError> {
        let mut memo = self.inner.lock();
        if let Some(entry) = memo.by_sql.get(sql).copied() {
            let shape = entry.canonical;
            let version_now = self.feedback.version(shape);
            let planned_at = memo.planned_version.get(&shape).copied().unwrap_or(0);
            let fresh_feedback = self.adaptive && version_now > planned_at;
            if !fresh_feedback {
                if let Some(compiled) = self.cache.get(&entry.active) {
                    return Ok(ResolvedPlan {
                        compiled,
                        shape,
                        planned: false,
                    });
                }
                // Evicted: fall through and re-plan (counted as the miss
                // the `get` above just recorded).
            }
        }
        self.plan(sql, engine, &mut memo)
    }

    /// One full planning phase: the estimate-only plan, whose normalized
    /// form's fingerprint is the canonical shape, then one compile — of a
    /// re-optimization with observed cardinalities when feedback exists for
    /// that shape, else of the estimate-only plan itself.
    fn plan(
        &self,
        sql: &str,
        engine: &SiriusEngine,
        memo: &mut Memo,
    ) -> Result<ResolvedPlan, SiriusError> {
        self.planning_phases.fetch_add(1, Ordering::Relaxed);
        let planning_failed = |e| SiriusError::Unsupported(format!("SQL planning failed: {e}"));
        let estimate_plan = plan_sql(sql, &self.catalog, self.policy).map_err(planning_failed)?;
        // The tree `compile_query` fingerprints.
        let shape = fingerprint(&normalize(&estimate_plan)).shape;
        let version_now = self.feedback.version(shape);
        let snapshot = self
            .adaptive
            .then(|| self.feedback.snapshot(shape))
            .flatten();
        let mut compiled = match snapshot {
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
        memo.planned_version.insert(shape, version_now);
        let fp = compiled.fingerprint();
        let prior = memo.by_sql.get(sql).map(|e| e.active);
        // The plans this admission pushed out of the cache.
        let (retired, evicted) = match prior {
            // Feedback produced a different plan: retire the cached one.
            Some(old) if old != fp => (Some(old), self.cache.replace(&old, Arc::clone(&compiled))),
            // Same plan as before (feedback that changed nothing):
            // re-insert to refresh recency.
            Some(_) => (None, self.cache.insert(Arc::clone(&compiled))),
            // New SQL text, or one whose plan left the cache. Another text
            // may have compiled to the same fingerprint (same shape *and*
            // constants) — share its entry.
            None => match self.cache.get(&fp) {
                Some(shared) => {
                    compiled = shared;
                    (None, None)
                }
                None => (None, self.cache.insert(Arc::clone(&compiled))),
            },
        };
        let entry = MemoEntry {
            canonical: shape,
            active: fp,
        };
        memo.by_sql.insert(sql.to_string(), entry);
        memo.forget([retired, evicted]);
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
        self.cache.stats()
    }

    /// Admissions that ran a planning phase (cache hits excluded).
    pub fn planning_phases(&self) -> u64 {
        self.planning_phases.load(Ordering::Relaxed)
    }

    /// The shared feedback store.
    pub fn feedback(&self) -> &FeedbackStore {
        &self.feedback
    }

    /// Publish counter deltas and the cached-plan gauge into `registry`.
    pub(crate) fn publish(&self, registry: &MetricsRegistry) {
        let s = self.cache.stats();
        let phases = self.planning_phases();
        let mut p = self.published.lock();
        for (name, now, was) in [
            (metrics::PLAN_CACHE_HITS, s.hits, p.hits),
            (metrics::PLAN_CACHE_MISSES, s.misses, p.misses),
            (metrics::PLAN_CACHE_EVICTIONS, s.evictions, p.evictions),
            (metrics::PLAN_REPLANS, s.replans, p.replans),
            (metrics::PLANNING_PHASES, phases, p.phases),
        ] {
            registry.counter_add(name, &[], now.saturating_sub(was));
        }
        registry.gauge_set(metrics::CACHED_PLANS, &[], s.entries as f64);
        *p = Published {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            replans: s.replans,
            phases,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{DataType, Field, Schema};
    use sirius_core::EngineConfig;

    #[test]
    fn memo_is_bounded_by_the_cache() {
        let mut catalog = BinderCatalog::new();
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        catalog.add_table("t", schema, 100);
        let planner = CachingPlanner::new(catalog, JoinOrderPolicy::Optimized).with_capacity(8);
        // Compiling charges nothing and reads no table: an empty engine does.
        let engine = SiriusEngine::from_config(EngineConfig::new(sirius_hw::catalog::gh200_gpu()));
        for literal in 0..1000 {
            let sql = format!("select k from t where k > {literal}");
            assert!(planner.resolve(&sql, &engine).unwrap().planned);
        }
        let stats = planner.cache_stats();
        assert_eq!((stats.entries, stats.evictions), (8, 992));
        let memo = planner.inner.lock();
        assert_eq!(memo.by_sql.len(), 8, "one text per cached plan");
        assert_eq!(memo.planned_version.len(), 1, "the variants share a shape");
        // A forgotten text costs what a new one does: one miss, one plan.
        drop(memo);
        assert!(
            planner
                .resolve("select k from t where k > 0", &engine)
                .unwrap()
                .planned
        );
        assert_eq!(planner.cache_stats().misses, stats.misses + 1);
    }
}
