//! Every metric the serving layer emits, each one typed constant that
//! carries its name, kind and help text. The emit sites pass these
//! handles to the registry
//! [`SiriusServer::with_metrics`](crate::SiriusServer::with_metrics)
//! attaches; the README's Metrics table lists the same rows, and unit tests
//! hold the constants, the emitted families and the table in step.

use sirius_trace::metrics::Metric;

pub(crate) const QUEUE_DEPTH: Metric =
    Metric::gauge("sirius_serve_queue_depth", "Queries waiting for admission");
pub(crate) const IN_FLIGHT: Metric =
    Metric::gauge("sirius_serve_in_flight", "Queries admitted and executing");
pub(crate) const QUEUE_DEPTH_PEAK: Metric = Metric::gauge(
    "sirius_serve_queue_depth_peak",
    "High watermark of the admission queue",
);
pub(crate) const BACKOFF_DEPTH: Metric = Metric::gauge(
    "sirius_serve_backoff_depth",
    "Queued retries still waiting out their backoff",
);
pub(crate) const ADMITTED: Metric = Metric::counter(
    "sirius_serve_admitted_total",
    "Queries admitted into execution",
);
pub(crate) const RETRIES: Metric = Metric::counter(
    "sirius_serve_retries_total",
    "Wave failures sent back through admission with backoff",
);
pub(crate) const DISPOSITION: Metric = Metric::counter(
    "sirius_serve_disposition_total",
    "Terminal request dispositions, labeled by kind",
);
pub(crate) const BROKER_PRESSURE: Metric = Metric::gauge(
    "sirius_broker_pressure",
    "max(denied-grant rate last wave, processing-pool occupancy)",
);
pub(crate) const GRANTS_GRANTED: Metric = Metric::counter(
    "sirius_grants_granted_total",
    "Working-set grants satisfied by the shared broker",
);
pub(crate) const GRANTS_DENIED: Metric = Metric::counter(
    "sirius_grants_denied_total",
    "Working-set grants denied by the shared broker (spill signals)",
);
pub(crate) const PLAN_CACHE_HITS: Metric = Metric::counter(
    "sirius_serve_plan_cache_hits_total",
    "Admissions served a compiled plan straight from the plan cache",
);
pub(crate) const PLAN_CACHE_MISSES: Metric = Metric::counter(
    "sirius_serve_plan_cache_misses_total",
    "Plan-cache lookups that had to plan and compile",
);
pub(crate) const PLAN_CACHE_EVICTIONS: Metric = Metric::counter(
    "sirius_serve_plan_cache_evictions_total",
    "Compiled plans evicted by the cache's LRU policy",
);
pub(crate) const PLAN_REPLANS: Metric = Metric::counter(
    "sirius_serve_plan_replans_total",
    "Cached plans replaced by a feedback-driven re-optimization",
);
pub(crate) const PLANNING_PHASES: Metric = Metric::counter(
    "sirius_serve_planning_phases_total",
    "Admissions that executed a planning phase (cache hits excluded)",
);
pub(crate) const CACHED_PLANS: Metric = Metric::gauge(
    "sirius_serve_cached_plans",
    "Compiled plans currently resident in the plan cache",
);
