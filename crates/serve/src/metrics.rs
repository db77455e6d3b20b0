//! Every metric the serving layer emits, declared once: the name constants
//! the emit sites use and the `(name, kind, help)` catalog
//! [`SiriusServer::with_metrics`](crate::SiriusServer::with_metrics)
//! registers help text from. The README's Metrics table lists the same
//! rows; a unit test holds the three in step.

pub(crate) const QUEUE_DEPTH: &str = "sirius_serve_queue_depth";
pub(crate) const IN_FLIGHT: &str = "sirius_serve_in_flight";
pub(crate) const QUEUE_DEPTH_PEAK: &str = "sirius_serve_queue_depth_peak";
pub(crate) const BACKOFF_DEPTH: &str = "sirius_serve_backoff_depth";
pub(crate) const ADMITTED: &str = "sirius_serve_admitted_total";
pub(crate) const RETRIES: &str = "sirius_serve_retries_total";
pub(crate) const DISPOSITION: &str = "sirius_serve_disposition_total";
pub(crate) const BROKER_PRESSURE: &str = "sirius_broker_pressure";
pub(crate) const GRANTS_GRANTED: &str = "sirius_grants_granted_total";
pub(crate) const GRANTS_DENIED: &str = "sirius_grants_denied_total";
pub(crate) const PLAN_CACHE_HITS: &str = "sirius_serve_plan_cache_hits_total";
pub(crate) const PLAN_CACHE_MISSES: &str = "sirius_serve_plan_cache_misses_total";
pub(crate) const PLAN_CACHE_EVICTIONS: &str = "sirius_serve_plan_cache_evictions_total";
pub(crate) const PLAN_REPLANS: &str = "sirius_serve_plan_replans_total";
pub(crate) const PLANNING_PHASES: &str = "sirius_serve_planning_phases_total";
pub(crate) const CACHED_PLANS: &str = "sirius_serve_cached_plans";

/// `(name, kind, help)` for every metric above.
pub(crate) const CATALOG: &[(&str, &str, &str)] = &[
    (QUEUE_DEPTH, "gauge", "Queries waiting for admission"),
    (IN_FLIGHT, "gauge", "Queries admitted and executing"),
    (
        QUEUE_DEPTH_PEAK,
        "gauge",
        "High watermark of the admission queue",
    ),
    (
        BACKOFF_DEPTH,
        "gauge",
        "Queued retries still waiting out their backoff",
    ),
    (ADMITTED, "counter", "Queries admitted into execution"),
    (
        RETRIES,
        "counter",
        "Wave failures sent back through admission with backoff",
    ),
    (
        DISPOSITION,
        "counter",
        "Terminal request dispositions, labeled by kind",
    ),
    (
        BROKER_PRESSURE,
        "gauge",
        "max(denied-grant rate last wave, processing-pool occupancy)",
    ),
    (
        GRANTS_GRANTED,
        "counter",
        "Working-set grants satisfied by the shared broker",
    ),
    (
        GRANTS_DENIED,
        "counter",
        "Working-set grants denied by the shared broker (spill signals)",
    ),
    (
        PLAN_CACHE_HITS,
        "counter",
        "Admissions served a compiled plan straight from the plan cache",
    ),
    (
        PLAN_CACHE_MISSES,
        "counter",
        "Plan-cache lookups that had to plan and compile",
    ),
    (
        PLAN_CACHE_EVICTIONS,
        "counter",
        "Compiled plans evicted by the cache's LRU policy",
    ),
    (
        PLAN_REPLANS,
        "counter",
        "Cached plans replaced by a feedback-driven re-optimization",
    ),
    (
        PLANNING_PHASES,
        "counter",
        "Admissions that executed a planning phase (cache hits excluded)",
    ),
    (
        CACHED_PLANS,
        "gauge",
        "Compiled plans currently resident in the plan cache",
    ),
];
