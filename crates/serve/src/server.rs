//! The server-level query scheduler.
//!
//! [`SiriusServer::replay`] is a discrete-event simulation over the same
//! simulated clock the engine charges kernels on. The server repeatedly:
//!
//! 1. **Admits** arrivals whose (simulated) arrival instant has passed
//!    into a bounded wait queue, rejecting overflow (backpressure), then
//!    moves queued queries into execution while fewer than
//!    `max_in_flight` are running — each as a fresh
//!    [`SiriusEngine::query_view`] sharing the stream pool, table cache,
//!    grant broker, and spill tiers with every other in-flight query.
//! 2. **Selects** up to one in-flight query per device stream for the
//!    next *server wave* — priority first, then weighted round-robin
//!    between tenants — and advances each by one dependency wave of the
//!    core scheduler ([`SiriusEngine::step`]) on an equal slice of the
//!    stream pool.
//! 3. **Advances the clock** by the wave's overlapped cost: each query
//!    charged its wave onto its own ledger, and the server folds those
//!    per-query deltas with [`attribute_overlap`] — wall time is the
//!    *longest* participant, exactly how the stream sync folds lanes
//!    within one query.
//!
//! # Resilience
//!
//! Between waves the server also enforces the resilience policy:
//!
//! * **Deadlines** — a request may carry an absolute deadline on the
//!   server clock. Overdue queries are cancelled before their next wave
//!   (a zero deadline cancels before the first), the run unwinds through
//!   [`QueryRun::abort`], and every grant and spill temp it held is
//!   released.
//! * **Retry with backoff** — a wave that fails with a *retryable* error
//!   ([`SiriusError::is_retryable`]: transient device faults, spill I/O,
//!   exchange timeouts) sends the query back through the admission queue
//!   after an exponential backoff on the server clock, up to
//!   [`ServeConfig::max_retries`] times. A retry that could not start
//!   before the query's deadline is not attempted.
//! * **Load shedding** — when broker pressure (the denied-grant rate
//!   over the last wave, or processing-pool occupancy) crosses
//!   [`ServeConfig::shed_pressure`], the server sheds low-priority
//!   waiting queries with a typed [`QueryDisposition::Shed`] rejection
//!   and halves the lane slice for new admissions until pressure drops.
//!
//! Every request is accounted exactly once across
//! completed/failed/cancelled/shed/rejected ([`ServeOutcome::dispositions`]).
//!
//! Every scheduling decision orders by `(priority desc, weighted-fair
//! share, arrival/admission, id)` — total and deterministic, so a given
//! arrival trace always produces the same admission order, the same wave
//! composition, and the same per-query counters.

use crate::planner::CachingPlanner;
use sirius_columnar::Table;
use sirius_core::{QueryReport, QueryRun, SiriusEngine, SiriusError};
use sirius_hw::{attribute_overlap, TimeBreakdown, TraceConfig};
use sirius_plan::Rel;
use sirius_spill::{GrantBroker, SpillStats};
use sirius_trace::metrics::MetricsRegistry;
use sirius_trace::TraceEvent;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Admission-control, fairness, and resilience knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Queries executing at once (admission cap); clamped to ≥ 1.
    pub max_in_flight: usize,
    /// Wait-queue depth; arrivals beyond it are rejected (backpressure).
    pub queue_depth: usize,
    /// Per-tenant weighted-round-robin weights, indexed by tenant id.
    /// Missing entries (and zeros) count as weight 1.
    pub tenant_weights: Vec<u32>,
    /// Retries granted to a query whose wave failed with a retryable
    /// error before it is reported failed.
    pub max_retries: u32,
    /// Base backoff before a retry re-enters admission; doubles with
    /// each attempt (`backoff · 2^retries` on the server clock).
    pub retry_backoff: Duration,
    /// Broker-pressure threshold in `[0, 1]` above which the server
    /// sheds waiting queries and halves the lane slice of new
    /// admissions. Pressure is the larger of the denied-grant rate over
    /// the last wave and processing-pool occupancy. `f64::INFINITY`
    /// disables shedding.
    pub shed_pressure: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_in_flight: 4,
            queue_depth: 64,
            tenant_weights: Vec::new(),
            max_retries: 2,
            retry_backoff: Duration::from_micros(100),
            shed_pressure: 0.85,
        }
    }
}

/// One query submitted to the server.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Caller-assigned id, echoed in [`ServedQuery`] and the admission
    /// order. Ties in every scheduling decision break on this, so ids
    /// should be unique.
    pub id: u64,
    /// Tenant id (indexes [`ServeConfig::tenant_weights`]).
    pub tenant: usize,
    /// Scheduling priority; a higher-priority query always enters a wave
    /// before a lower-priority one.
    pub priority: u8,
    /// Simulated arrival instant.
    pub arrival: Duration,
    /// Absolute deadline on the simulated server clock. Once it passes,
    /// the query is cancelled before its next wave (or before first
    /// admission); `Duration::ZERO` cancels before any work happens.
    /// `None` = no deadline.
    pub deadline: Option<Duration>,
    /// The logical plan to execute.
    pub plan: Rel,
    /// Per-query working-set budget: grants above it are denied, steering
    /// this query (only) onto its spill paths. `None` = uncapped.
    pub memory_budget: Option<u64>,
    /// Record a per-query kernel trace (replayable against the query's
    /// own ledger).
    pub trace: bool,
    /// SQL text for the server's caching planner
    /// ([`SiriusServer::with_planner`]): when both are present the
    /// admission resolves this text through the shared plan cache —
    /// repeated shapes skip parse/bind/optimize entirely — and `plan` is
    /// ignored. `None` (or no planner) executes `plan` as-is.
    pub sql: Option<String>,
}

impl QueryRequest {
    /// A default-priority, uncapped, untraced request with no deadline.
    pub fn new(id: u64, tenant: usize, arrival: Duration, plan: Rel) -> Self {
        QueryRequest {
            id,
            tenant,
            priority: 0,
            arrival,
            deadline: None,
            plan,
            memory_budget: None,
            trace: false,
            sql: None,
        }
    }

    /// A request carrying only SQL text, resolved by the server's
    /// caching planner at admission. On a server without a planner the
    /// placeholder plan fails at `begin`, so such requests end
    /// [`QueryDisposition::Failed`] rather than silently running the
    /// wrong thing.
    pub fn from_sql(id: u64, tenant: usize, arrival: Duration, sql: impl Into<String>) -> Self {
        let placeholder = Rel::Read {
            table: "<sql-only request>".into(),
            schema: sirius_columnar::Schema::new(vec![sirius_columnar::Field::new(
                "<unresolved>",
                sirius_columnar::DataType::Int64,
            )]),
            projection: None,
        };
        QueryRequest {
            sql: Some(sql.into()),
            ..QueryRequest::new(id, tenant, arrival, placeholder)
        }
    }

    /// Attach SQL text to an existing request (planner-resolved when the
    /// server has one; the carried plan remains the fallback).
    pub fn with_sql(mut self, sql: impl Into<String>) -> Self {
        self.sql = Some(sql.into());
        self
    }
}

/// How a request left the server. Every request gets exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryDisposition {
    /// Ran to completion; its result table is in [`ServedQuery::result`].
    Completed,
    /// Ended with a non-retryable error (or exhausted its retries).
    Failed,
    /// Cancelled by its deadline — before admission or mid-flight.
    Cancelled,
    /// Dropped from the wait queue by load shedding under broker pressure.
    Shed,
    /// Bounced at arrival by queue backpressure.
    Rejected,
}

impl QueryDisposition {
    /// Stable lowercase label (metric label values, report rows).
    pub fn as_str(&self) -> &'static str {
        match self {
            QueryDisposition::Completed => "completed",
            QueryDisposition::Failed => "failed",
            QueryDisposition::Cancelled => "cancelled",
            QueryDisposition::Shed => "shed",
            QueryDisposition::Rejected => "rejected",
        }
    }
}

/// Per-disposition request accounting; sums to the number of requests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DispositionCounts {
    /// Queries that completed with a result.
    pub completed: usize,
    /// Queries that ended in error.
    pub failed: usize,
    /// Queries cancelled by their deadline.
    pub cancelled: usize,
    /// Queries shed under broker pressure.
    pub shed: usize,
    /// Arrivals rejected by queue backpressure.
    pub rejected: usize,
}

impl DispositionCounts {
    /// Total requests accounted.
    pub fn total(&self) -> usize {
        self.completed + self.failed + self.cancelled + self.shed + self.rejected
    }
}

/// A finished query (completed, failed, or cancelled) with its isolated
/// telemetry.
#[derive(Debug)]
pub struct ServedQuery {
    /// The request's id.
    pub id: u64,
    /// The request's tenant.
    pub tenant: usize,
    /// The request's priority.
    pub priority: u8,
    /// How the query ended.
    pub disposition: QueryDisposition,
    /// Retries consumed before this terminal state.
    pub retries: u32,
    /// The result table, or the error that ended the query.
    pub result: Result<Table, SiriusError>,
    /// Per-query execution report (this query's ledger, morsel counters,
    /// and spill deltas only — nothing from interleaved queries).
    pub report: QueryReport,
    /// Simulated arrival instant (from the request).
    pub arrival: Duration,
    /// Simulated instant the query last left the wait queue.
    pub admitted: Duration,
    /// Simulated completion instant.
    pub completed: Duration,
    /// End-to-end latency: `completed - arrival` (queue wait included).
    pub latency: Duration,
    /// Time spent waiting for admission: `admitted - arrival`.
    pub queue_wait: Duration,
    /// This query's kernel events (empty unless the request asked for a
    /// trace); replays to exactly `report.breakdown`.
    pub events: Vec<TraceEvent>,
}

/// Everything a [`SiriusServer::replay`] run produced.
#[derive(Debug, Default)]
pub struct ServeOutcome {
    /// Finished queries (completed, failed, and cancelled), in
    /// completion order.
    pub queries: Vec<ServedQuery>,
    /// Ids rejected at arrival because the wait queue was full.
    pub rejected: Vec<u64>,
    /// Ids shed from the wait queue under broker pressure.
    pub shed: Vec<u64>,
    /// Ids in the order they were admitted into execution; a retried
    /// query appears once per admission.
    pub admission_order: Vec<u64>,
    /// Server waves run.
    pub waves: u64,
    /// Waves where work was in flight but nothing could be scheduled
    /// (always 0 unless the scheduler deadlocks).
    pub deadlocks: u64,
    /// Simulated time from the first arrival to the last completion.
    pub makespan: Duration,
    /// High watermark of the wait queue.
    pub max_queue_depth: usize,
    /// High watermark of concurrently executing queries.
    pub peak_in_flight: usize,
    /// The server's overlap-folded cost breakdown: per-wave, the longest
    /// participant's time, attributed across categories.
    pub breakdown: TimeBreakdown,
}

impl ServeOutcome {
    /// Account every request exactly once across the five dispositions.
    pub fn dispositions(&self) -> DispositionCounts {
        let mut c = DispositionCounts {
            shed: self.shed.len(),
            rejected: self.rejected.len(),
            ..Default::default()
        };
        for q in &self.queries {
            match q.disposition {
                QueryDisposition::Completed => c.completed += 1,
                QueryDisposition::Failed => c.failed += 1,
                QueryDisposition::Cancelled => c.cancelled += 1,
                // Shed/rejected requests never enter `queries`.
                QueryDisposition::Shed | QueryDisposition::Rejected => {}
            }
        }
        c
    }
}

/// A queued request: fresh arrivals start with zero retries and are
/// immediately eligible; retried queries wait out their backoff.
struct Waiting {
    req: QueryRequest,
    retries: u32,
    /// Earliest server instant this entry may be admitted (backoff gate).
    not_before: Duration,
}

/// One in-flight query: its engine view, stepped run, and accumulating
/// per-query attribution state.
struct Active {
    req: QueryRequest,
    retries: u32,
    admitted: Duration,
    engine: SiriusEngine,
    run: QueryRun,
    error: Option<SiriusError>,
    /// Widest lane slice this admission may use (halved when admitted
    /// under pressure).
    lane_limit: usize,
    /// Ledger snapshot at the end of this query's previous wave; the next
    /// wave's delta starts here so admission-time charges (pipeline
    /// dispatch overhead) are not lost between waves.
    last: TimeBreakdown,
    /// This query's spill deltas, accumulated wave by wave from the
    /// shared manager (waves within a server step run sequentially on the
    /// host, so the deltas attribute exactly).
    spill: SpillStats,
    /// Planner resolution, when this admission went through the plan
    /// cache: the canonical fingerprint shape (feedback key) and the
    /// compiled artifact whose `root()` carries the executed operator
    /// ids. Completed runs record their actual cardinalities under it.
    planned: Option<(u64, Arc<sirius_core::CompiledQuery>)>,
}

/// The multi-query serving frontend over one [`SiriusEngine`].
pub struct SiriusServer {
    base: SiriusEngine,
    config: ServeConfig,
    metrics: Option<MetricsRegistry>,
    planner: Option<CachingPlanner>,
}

impl SiriusServer {
    /// Server over `base` (whose caches, broker, spill tiers, and worker
    /// pool all in-flight queries share).
    pub fn new(base: SiriusEngine, config: ServeConfig) -> Self {
        SiriusServer {
            base,
            config,
            metrics: None,
            planner: None,
        }
    }

    /// Resolve SQL-carrying requests through `planner`'s shared plan
    /// cache at admission: a repeated shape skips parse/bind/optimize
    /// entirely and starts from the cached [`sirius_core::CompiledQuery`];
    /// each completed run feeds its observed cardinalities back so the
    /// next plan of the same shape can be re-optimized with actuals. The
    /// cache and feedback store are shared across tenants, while the
    /// recorded stats stay scoped to each query's own run.
    pub fn with_planner(mut self, planner: CachingPlanner) -> Self {
        self.planner = Some(planner);
        self
    }

    /// The caching planner, if one was attached.
    pub fn planner(&self) -> Option<&CachingPlanner> {
        self.planner.as_ref()
    }

    /// Publish serving pressure into `metrics`: queue-depth / in-flight
    /// gauges, admission + resilience counters, broker pressure, and the
    /// shared grant broker's granted/denied totals.
    pub fn with_metrics(self, metrics: MetricsRegistry) -> Self {
        metrics.describe("sirius_serve_queue_depth", "Queries waiting for admission");
        metrics.describe("sirius_serve_in_flight", "Queries admitted and executing");
        metrics.describe(
            "sirius_serve_queue_depth_peak",
            "High watermark of the admission queue",
        );
        metrics.describe(
            "sirius_serve_admitted_total",
            "Queries admitted into execution",
        );
        metrics.describe(
            "sirius_serve_rejected_total",
            "Arrivals rejected by queue backpressure",
        );
        metrics.describe("sirius_serve_completed_total", "Queries completed");
        metrics.describe(
            "sirius_serve_failed_total",
            "Queries that ended in a non-retryable error",
        );
        metrics.describe(
            "sirius_serve_cancelled_total",
            "Queries cancelled by their deadline",
        );
        metrics.describe(
            "sirius_serve_shed_total",
            "Waiting queries shed under broker pressure",
        );
        metrics.describe(
            "sirius_serve_retries_total",
            "Wave failures sent back through admission with backoff",
        );
        metrics.describe(
            "sirius_serve_disposition_total",
            "Terminal request dispositions, labeled by kind",
        );
        metrics.describe(
            "sirius_serve_backoff_depth",
            "Queued retries still waiting out their backoff",
        );
        metrics.describe(
            "sirius_broker_pressure",
            "max(denied-grant rate last wave, processing-pool occupancy)",
        );
        metrics.describe(
            "sirius_grants_granted_total",
            "Working-set grants satisfied by the shared broker",
        );
        metrics.describe(
            "sirius_grants_denied_total",
            "Working-set grants denied by the shared broker (spill signals)",
        );
        metrics.describe(
            "sirius_serve_plan_cache_hits_total",
            "Admissions served a compiled plan straight from the plan cache",
        );
        metrics.describe(
            "sirius_serve_plan_cache_misses_total",
            "Plan-cache lookups that had to plan and compile",
        );
        metrics.describe(
            "sirius_serve_plan_cache_evictions_total",
            "Compiled plans evicted by the cache's LRU policy",
        );
        metrics.describe(
            "sirius_serve_plan_replans_total",
            "Cached plans replaced by a feedback-driven re-optimization",
        );
        metrics.describe(
            "sirius_serve_planning_phases_total",
            "Admissions that executed a planning phase (cache hits excluded)",
        );
        metrics.describe(
            "sirius_serve_cached_plans",
            "Compiled plans currently resident in the plan cache",
        );
        SiriusServer {
            metrics: Some(metrics),
            ..self
        }
    }

    /// The shared base engine.
    pub fn engine(&self) -> &SiriusEngine {
        &self.base
    }

    /// The active admission/fairness configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Replay an arrival trace to completion on the simulated clock.
    /// Deterministic: the same requests (ids, arrivals, plans) always
    /// yield the same admission order, wave composition, and counters.
    pub fn replay(&self, mut requests: Vec<QueryRequest>) -> ServeOutcome {
        requests.sort_by_key(|r| (r.arrival, r.id));
        let mut pending: VecDeque<QueryRequest> = requests.into();
        let slots = self.base.workers().max(1);
        let max_in_flight = self.config.max_in_flight.max(1);
        let queue_depth = self.config.queue_depth.max(1);

        let mut out = ServeOutcome::default();
        let mut now = Duration::ZERO;
        let mut queue: VecDeque<Waiting> = VecDeque::new();
        let mut inflight: Vec<Active> = Vec::new();
        // Waves served per tenant — the weighted-round-robin state.
        let mut served: Vec<u64> = Vec::new();
        let broker = self.base.buffer_manager().grant_broker().clone();
        let mut published = (broker.granted(), broker.denied());
        // Broker counters at the previous wave boundary — the window the
        // denied-grant rate (shedding pressure) is measured over.
        let mut window = published;

        loop {
            // 1. Enqueue arrivals due by `now`; reject past the depth cap.
            while pending.front().is_some_and(|r| r.arrival <= now) {
                let r = pending.pop_front().expect("checked front");
                if queue.len() < queue_depth {
                    queue.push_back(Waiting {
                        not_before: r.arrival,
                        retries: 0,
                        req: r,
                    });
                } else {
                    self.counter_inc("sirius_serve_rejected_total");
                    self.disposition_inc(QueryDisposition::Rejected);
                    out.rejected.push(r.id);
                }
            }
            out.max_queue_depth = out.max_queue_depth.max(queue.len());

            // 2. Cancel overdue work before it costs anything more: a
            //    waiting query whose deadline passed never admits (a zero
            //    deadline cancels before its first wave); an in-flight
            //    one aborts its run, releasing every held result — and
            //    with them its grants — before the next wave dispatches.
            let mut i = 0;
            while i < queue.len() {
                if queue[i].req.deadline.is_some_and(|d| d <= now) {
                    let w = queue.remove(i).expect("index in range");
                    self.counter_inc("sirius_serve_cancelled_total");
                    self.disposition_inc(QueryDisposition::Cancelled);
                    out.queries.push(self.finish_unadmitted(
                        w,
                        now,
                        QueryDisposition::Cancelled,
                        SiriusError::Cancelled("deadline passed before admission".into()),
                    ));
                } else {
                    i += 1;
                }
            }
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].req.deadline.is_some_and(|d| d <= now) {
                    let mut a = inflight.remove(i);
                    a.run.abort();
                    a.error = Some(SiriusError::Cancelled(format!(
                        "deadline {:?} passed at {now:?} on the server clock",
                        a.req.deadline.expect("checked deadline"),
                    )));
                    self.counter_inc("sirius_serve_cancelled_total");
                    self.disposition_inc(QueryDisposition::Cancelled);
                    out.queries
                        .push(self.finish(a, now, QueryDisposition::Cancelled));
                } else {
                    i += 1;
                }
            }

            // 3. Measure broker pressure over the last wave and shed if
            //    it crossed the threshold: waiting queries below the best
            //    waiting priority are dropped (the later-arriving half
            //    when the queue is uniform), and admissions made under
            //    pressure run on half their lane slice.
            let (g, d) = (broker.granted(), broker.denied());
            let (dg, dd) = (g - window.0, d - window.1);
            window = (g, d);
            let denial_rate = if dg + dd > 0 {
                dd as f64 / (dg + dd) as f64
            } else {
                0.0
            };
            let occupancy = if broker.capacity() > 0 {
                broker.pool().used() as f64 / broker.capacity() as f64
            } else {
                0.0
            };
            let pressure = denial_rate.max(occupancy);
            self.gauge_set("sirius_broker_pressure", pressure);
            let degraded = pressure > self.config.shed_pressure;
            if degraded && !queue.is_empty() {
                let top = queue
                    .iter()
                    .map(|w| w.req.priority)
                    .max()
                    .expect("non-empty queue");
                let mut victims: Vec<usize> = if queue.iter().any(|w| w.req.priority < top) {
                    (0..queue.len())
                        .filter(|&i| queue[i].req.priority < top)
                        .collect()
                } else {
                    let mut idx: Vec<usize> = (0..queue.len()).collect();
                    idx.sort_by_key(|&i| (queue[i].req.arrival, queue[i].req.id));
                    idx.split_off(queue.len().div_ceil(2))
                };
                victims.sort_unstable();
                for &i in &victims {
                    self.counter_inc("sirius_serve_shed_total");
                    self.disposition_inc(QueryDisposition::Shed);
                    out.shed.push(queue[i].req.id);
                }
                for &i in victims.iter().rev() {
                    queue.remove(i);
                }
            }

            // 4. Admit eligible entries (backoffs still pending are not)
            //    while slots are free, best-first per the policy.
            while inflight.len() < max_in_flight {
                let Some(pick) = self.pick_admission(&queue, &served, now) else {
                    break;
                };
                let w = queue.remove(pick).expect("picked index in range");
                if served.len() <= w.req.tenant {
                    served.resize(w.req.tenant + 1, 0);
                }
                out.admission_order.push(w.req.id);
                self.counter_inc("sirius_serve_admitted_total");
                let lane_limit = if degraded { (slots / 2).max(1) } else { slots };
                match self.admit(w, now, lane_limit) {
                    Ok(active) => inflight.push(active),
                    // `begin` failed (validation, unsupported feature,
                    // injected fault): retry if the error allows it,
                    // otherwise the query completes immediately with its
                    // error and never occupies a slot.
                    Err((w, e)) => {
                        if self.should_retry(&e, w.retries, w.req.deadline, now) {
                            self.counter_inc("sirius_serve_retries_total");
                            queue.push_back(Waiting {
                                not_before: self.backoff_until(w.retries, now),
                                retries: w.retries + 1,
                                req: w.req,
                            });
                        } else {
                            self.counter_inc("sirius_serve_failed_total");
                            self.disposition_inc(QueryDisposition::Failed);
                            out.queries.push(self.finish_unadmitted(
                                w,
                                now,
                                QueryDisposition::Failed,
                                e,
                            ));
                        }
                    }
                }
            }
            out.peak_in_flight = out.peak_in_flight.max(inflight.len());
            self.publish_gauges(&queue, inflight.len(), now);

            // 5. Nothing running: jump to the next arrival or the next
            //    retry's backoff expiry, or finish.
            if inflight.is_empty() {
                let next_arrival = pending.front().map(|r| r.arrival);
                let next_ready = queue.iter().map(|w| w.not_before).min();
                match (next_arrival, next_ready) {
                    (None, None) => break,
                    (a, r) => {
                        let target = match (a, r) {
                            (Some(a), Some(r)) => a.min(r),
                            (Some(a), None) => a,
                            (None, Some(r)) => r,
                            (None, None) => unreachable!("handled above"),
                        };
                        now = now.max(target);
                        continue;
                    }
                }
            }

            // 6. Wave selection: up to one query per stream, picked one
            //    at a time so the round-robin counters interleave tenants
            //    *within* a wave too.
            let k = slots.min(inflight.len());
            let mut selected: Vec<usize> = Vec::with_capacity(k);
            for _ in 0..k {
                match self.pick_wave(&inflight, &selected, &served) {
                    Some(i) => {
                        let t = inflight[i].req.tenant;
                        if served.len() <= t {
                            served.resize(t + 1, 0);
                        }
                        served[t] += 1;
                        selected.push(i);
                    }
                    None => break,
                }
            }
            if selected.is_empty() {
                // Work in flight but nothing schedulable — count the
                // deadlock and bail instead of spinning forever.
                out.deadlocks += 1;
                break;
            }

            // 7. Advance each selected query one dependency wave on an
            //    equal slice of the stream pool (narrowed by its
            //    admission-time lane limit), collecting per-query ledger
            //    deltas.
            let width = (slots / selected.len()).max(1);
            let mut deltas: Vec<TimeBreakdown> = Vec::with_capacity(selected.len());
            for &i in &selected {
                let a = &mut inflight[i];
                let spill_before = a.engine.spill_stats();
                if a.error.is_none() {
                    if let Err(e) = a.engine.step(&mut a.run, width.min(a.lane_limit)) {
                        a.error = Some(e);
                    }
                }
                accumulate_spill(&mut a.spill, &a.engine.spill_stats().since(&spill_before));
                let cur = a.engine.device().breakdown();
                deltas.push(cur.since(&a.last));
                a.last = cur;
            }
            // 8. The wave's wall-clock cost is its longest participant:
            //    queries overlapped on the device, so the server clock
            //    advances by the overlap fold, not the sum.
            let wave = attribute_overlap(&deltas);
            now += wave.total();
            out.breakdown = out.breakdown.merge(&wave);
            out.waves += 1;

            // 9. Retire finished queries in in-flight order; a retryable
            //    wave failure goes back through admission with backoff
            //    instead (unless its retry could not start in time).
            let mut i = 0;
            while i < inflight.len() {
                let done = inflight[i].run.is_done();
                if inflight[i].error.is_none() && !done {
                    i += 1;
                    continue;
                }
                let mut a = inflight.remove(i);
                match a.error.take() {
                    Some(e) => {
                        if self.should_retry(&e, a.retries, a.req.deadline, now) {
                            a.run.abort();
                            self.counter_inc("sirius_serve_retries_total");
                            queue.push_back(Waiting {
                                not_before: self.backoff_until(a.retries, now),
                                retries: a.retries + 1,
                                req: a.req,
                            });
                        } else {
                            a.run.abort();
                            a.error = Some(e);
                            self.counter_inc("sirius_serve_failed_total");
                            self.disposition_inc(QueryDisposition::Failed);
                            out.queries
                                .push(self.finish(a, now, QueryDisposition::Failed));
                        }
                    }
                    None => {
                        // Feed actual cardinalities back to the planner
                        // before the run is consumed: only this run's
                        // stats deltas, keyed under the shape's canonical
                        // fingerprint, from the executed plan's own
                        // operator ids.
                        if let (Some(p), Some((shape, compiled))) = (&self.planner, &a.planned) {
                            p.observe(
                                *shape,
                                compiled.root(),
                                &a.engine.run_operator_stats(&a.run),
                            );
                        }
                        self.counter_inc("sirius_serve_completed_total");
                        self.disposition_inc(QueryDisposition::Completed);
                        out.queries
                            .push(self.finish(a, now, QueryDisposition::Completed));
                    }
                }
            }
            self.publish_broker(&broker, &mut published);
            self.publish_planner();
        }

        out.makespan = now;
        self.publish_gauges(&queue, inflight.len(), now);
        self.publish_broker(&broker, &mut published);
        self.publish_planner();
        out
    }

    /// Whether a failed wave (or failed begin) earns another trip
    /// through admission: the error must be transient, retries must
    /// remain, and the backed-off restart must land before the deadline.
    fn should_retry(
        &self,
        e: &SiriusError,
        retries: u32,
        deadline: Option<Duration>,
        now: Duration,
    ) -> bool {
        e.is_retryable()
            && retries < self.config.max_retries
            && deadline.is_none_or(|d| self.backoff_until(retries, now) < d)
    }

    /// Exponential backoff: the instant attempt `retries + 1` becomes
    /// eligible for re-admission.
    fn backoff_until(&self, retries: u32, now: Duration) -> Duration {
        now + self.config.retry_backoff * (1u32 << retries.min(16))
    }

    /// Admission policy over the wait queue: priority desc, then the
    /// tenant with the smallest weighted share of served waves, then
    /// arrival, then id. Entries still backing off are ineligible.
    /// Returns the index to admit, if any entry is eligible.
    fn pick_admission(
        &self,
        queue: &VecDeque<Waiting>,
        served: &[u64],
        now: Duration,
    ) -> Option<usize> {
        let mut best: Option<usize> = None;
        for i in 0..queue.len() {
            if queue[i].not_before > now {
                continue;
            }
            let a = &queue[i].req;
            best = Some(match best {
                None => i,
                Some(j) => {
                    let b = &queue[j].req;
                    if self.orders_before(
                        (a.priority, a.tenant, a.arrival, a.id),
                        (b.priority, b.tenant, b.arrival, b.id),
                        served,
                    ) {
                        i
                    } else {
                        j
                    }
                }
            });
        }
        best
    }

    /// Wave policy over in-flight queries (same ordering, keyed on
    /// admission instants). Returns the next unselected index, if any.
    fn pick_wave(&self, inflight: &[Active], selected: &[usize], served: &[u64]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, a) in inflight.iter().enumerate() {
            if selected.contains(&i) {
                continue;
            }
            best = Some(match best {
                None => i,
                Some(j) => {
                    let b = &inflight[j];
                    if self.orders_before(
                        (a.req.priority, a.req.tenant, a.admitted, a.req.id),
                        (b.req.priority, b.req.tenant, b.admitted, b.req.id),
                        served,
                    ) {
                        i
                    } else {
                        j
                    }
                }
            });
        }
        best
    }

    /// The total scheduling order: priority desc, then weighted fair
    /// share (`served/weight`, compared by cross-multiplication so it
    /// stays in integers), then the instant key, then id.
    fn orders_before(
        &self,
        a: (u8, usize, Duration, u64),
        b: (u8, usize, Duration, u64),
        served: &[u64],
    ) -> bool {
        let (ap, at, ai, aid) = a;
        let (bp, bt, bi, bid) = b;
        if ap != bp {
            return ap > bp;
        }
        let (sa, sb) = (
            served.get(at).copied().unwrap_or(0) as u128,
            served.get(bt).copied().unwrap_or(0) as u128,
        );
        let (wa, wb) = (self.weight(at) as u128, self.weight(bt) as u128);
        // sa/wa < sb/wb ⇔ sa·wb < sb·wa
        if sa * wb != sb * wa {
            return sa * wb < sb * wa;
        }
        if ai != bi {
            return ai < bi;
        }
        aid < bid
    }

    fn weight(&self, tenant: usize) -> u32 {
        self.config
            .tenant_weights
            .get(tenant)
            .copied()
            .unwrap_or(1)
            .max(1)
    }

    /// Build the per-query engine view and start the run. A failed
    /// `begin` hands the entry back with its error so the caller can
    /// decide between retry and failure. (The error arm carries the
    /// whole `Waiting` entry by design — it is immediately re-queued or
    /// retired, never stored.)
    #[allow(clippy::result_large_err)]
    fn admit(
        &self,
        w: Waiting,
        now: Duration,
        lane_limit: usize,
    ) -> Result<Active, (Waiting, SiriusError)> {
        let mut view = self.base.query_view();
        if w.req.trace {
            view = view.with_trace(TraceConfig::On);
        }
        // Plan-cache path: resolve the SQL text through the shared
        // planner. The steady state (repeated shape, no new feedback)
        // performs zero parse/bind/optimize work here. Adaptive planners
        // need per-operator counters from the run to record feedback —
        // enabled without the trace sink so untraced requests still
        // report no events.
        let planned = match (&self.planner, &w.req.sql) {
            (Some(p), Some(sql)) => {
                if p.adaptive() {
                    view = view.with_operator_stats();
                }
                match p.resolve(sql, &self.base) {
                    Ok(r) => Some((r.shape, r.compiled)),
                    Err(e) => return Err((w, e)),
                }
            }
            _ => None,
        };
        if let Some(budget) = w.req.memory_budget {
            view.buffer_manager().set_grant_cap(budget);
        }
        let begun = match &planned {
            Some((_, compiled)) => view.begin_compiled(compiled),
            None => view.begin(&w.req.plan),
        };
        match begun {
            Ok(run) => Ok(Active {
                retries: w.retries,
                admitted: now,
                engine: view,
                run,
                error: None,
                lane_limit,
                last: TimeBreakdown::default(),
                spill: SpillStats::default(),
                planned,
                req: w.req,
            }),
            Err(e) => Err((w, e)),
        }
    }

    /// Terminal record for a query that never held a slot (deadline
    /// cancellation in the queue, or a non-retryable `begin` failure).
    fn finish_unadmitted(
        &self,
        w: Waiting,
        now: Duration,
        disposition: QueryDisposition,
        error: SiriusError,
    ) -> ServedQuery {
        ServedQuery {
            id: w.req.id,
            tenant: w.req.tenant,
            priority: w.req.priority,
            disposition,
            retries: w.retries,
            result: Err(error),
            report: QueryReport::zeroed("sirius", self.base.workers()),
            arrival: w.req.arrival,
            admitted: now,
            completed: now,
            latency: now.saturating_sub(w.req.arrival),
            queue_wait: now.saturating_sub(w.req.arrival),
            events: Vec::new(),
        }
    }

    /// Assemble the finished query's record from its isolated telemetry.
    fn finish(&self, a: Active, now: Duration, disposition: QueryDisposition) -> ServedQuery {
        let breakdown = a.engine.device().breakdown();
        let stats = a.engine.morsel_stats();
        let pool = a.engine.buffer_manager().regions().processing().stats();
        let pipelines = a.run.pipelines();
        let (result, rows) = match a.error {
            Some(e) => (Err(e), 0),
            None => {
                let t = a.run.into_table().expect("done run has its root result");
                let rows = t.num_rows();
                (Ok(t), rows)
            }
        };
        let report = QueryReport {
            rows,
            elapsed: breakdown.total(),
            breakdown,
            pipelines,
            morsels: stats.morsels,
            tasks: stats.tasks,
            worker_utilization: stats.worker_utilization(),
            spilled_pinned_bytes: a.spill.bytes_to_pinned,
            spilled_disk_bytes: a.spill.bytes_to_disk,
            spill_partitions: a.spill.partitions,
            spill_depth: a.spill.max_depth,
            pool_high_watermark: pool.high_watermark,
            pool_fragmentation: pool.fragmentation(),
            ..QueryReport::zeroed("sirius", self.base.workers())
        };
        ServedQuery {
            id: a.req.id,
            tenant: a.req.tenant,
            priority: a.req.priority,
            disposition,
            retries: a.retries,
            result,
            report,
            arrival: a.req.arrival,
            admitted: a.admitted,
            completed: now,
            latency: now.saturating_sub(a.req.arrival),
            queue_wait: a.admitted.saturating_sub(a.req.arrival),
            events: a.engine.trace().events(),
        }
    }

    fn counter_inc(&self, name: &str) {
        if let Some(m) = &self.metrics {
            m.counter_inc(name, &[]);
        }
    }

    fn disposition_inc(&self, d: QueryDisposition) {
        if let Some(m) = &self.metrics {
            m.counter_inc(
                "sirius_serve_disposition_total",
                &[("disposition", d.as_str())],
            );
        }
    }

    fn gauge_set(&self, name: &str, v: f64) {
        if let Some(m) = &self.metrics {
            m.gauge_set(name, &[], v);
        }
    }

    fn publish_gauges(&self, queue: &VecDeque<Waiting>, inflight_len: usize, now: Duration) {
        if let Some(m) = &self.metrics {
            m.gauge_set("sirius_serve_queue_depth", &[], queue.len() as f64);
            m.gauge_set("sirius_serve_in_flight", &[], inflight_len as f64);
            m.gauge_max("sirius_serve_queue_depth_peak", &[], queue.len() as f64);
            let backing_off = queue.iter().filter(|w| w.not_before > now).count();
            m.gauge_set("sirius_serve_backoff_depth", &[], backing_off as f64);
        }
    }

    fn publish_planner(&self) {
        if let (Some(m), Some(p)) = (&self.metrics, &self.planner) {
            p.publish(m);
        }
    }

    fn publish_broker(&self, broker: &GrantBroker, published: &mut (u64, u64)) {
        if let Some(m) = &self.metrics {
            let (g, d) = (broker.granted(), broker.denied());
            m.counter_add(
                "sirius_grants_granted_total",
                &[],
                g.saturating_sub(published.0),
            );
            m.counter_add(
                "sirius_grants_denied_total",
                &[],
                d.saturating_sub(published.1),
            );
            *published = (g, d);
        }
    }
}

/// Add a spill-delta onto a per-query accumulator. `max_depth` is a
/// lifetime maximum on the shared manager, so it only attributes to this
/// query when the query actually spilled in the window.
fn accumulate_spill(acc: &mut SpillStats, delta: &SpillStats) {
    acc.bytes_to_pinned += delta.bytes_to_pinned;
    acc.bytes_to_disk += delta.bytes_to_disk;
    acc.bytes_read_back += delta.bytes_read_back;
    acc.partitions += delta.partitions;
    acc.failed_writes += delta.failed_writes;
    if delta.partitions > 0 {
        acc.max_depth = acc.max_depth.max(delta.max_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{Array, DataType, Field, Schema};
    use sirius_hw::{catalog, FaultInjector, FaultPlan, Link};
    use sirius_plan::builder::PlanBuilder;
    use sirius_plan::expr::{self, AggExpr, SortExpr};
    use sirius_plan::AggFunc;

    fn data(rows: i64) -> Table {
        Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Float64),
            ]),
            vec![
                Array::from_i64((0..rows).collect::<Vec<_>>()),
                Array::from_f64((0..rows).map(|i| i as f64).collect::<Vec<_>>()),
            ],
        )
    }

    fn base(workers: usize, rows: i64) -> SiriusEngine {
        let e = SiriusEngine::with_link(
            catalog::gh200_gpu(),
            Link::new(catalog::nvlink_c2c()),
            workers,
        );
        e.load_table("t", &data(rows));
        e.device().reset();
        e
    }

    fn scan_plan() -> Rel {
        PlanBuilder::scan(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Float64),
            ]),
        )
        .filter(expr::gt(expr::col(0), expr::lit_i64(-1)))
        .build()
    }

    fn agg_plan() -> Rel {
        PlanBuilder::scan(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Float64),
            ]),
        )
        .aggregate(
            vec![],
            vec![AggExpr {
                func: AggFunc::Sum,
                input: Some(expr::col(1)),
                name: "s".into(),
            }],
        )
        .build()
    }

    #[test]
    fn concurrent_results_match_direct_execution() {
        let server = SiriusServer::new(base(4, 64), ServeConfig::default());
        let reqs: Vec<QueryRequest> = (0..6)
            .map(|i| {
                let plan = if i % 2 == 0 { scan_plan() } else { agg_plan() };
                QueryRequest::new(i, (i % 2) as usize, Duration::ZERO, plan)
            })
            .collect();
        let outcome = server.replay(reqs);
        assert_eq!(outcome.queries.len(), 6);
        assert_eq!(outcome.deadlocks, 0);
        let reference = base(4, 64);
        for q in &outcome.queries {
            let plan = if q.id % 2 == 0 {
                scan_plan()
            } else {
                agg_plan()
            };
            let expect = reference.execute(&plan).unwrap();
            assert_eq!(q.result.as_ref().unwrap(), &expect, "query {}", q.id);
            assert_eq!(q.disposition, QueryDisposition::Completed);
            assert_eq!(q.retries, 0);
            assert!(q.report.elapsed > Duration::ZERO);
        }
        let counts = outcome.dispositions();
        assert_eq!(counts.completed, 6);
        assert_eq!(counts.total(), 6);
    }

    #[test]
    fn admission_cap_and_backpressure() {
        let metrics = MetricsRegistry::new();
        let server = SiriusServer::new(
            base(4, 32),
            ServeConfig {
                max_in_flight: 1,
                queue_depth: 2,
                ..Default::default()
            },
        )
        .with_metrics(metrics.clone());
        let reqs: Vec<QueryRequest> = (0..8)
            .map(|i| QueryRequest::new(i, 0, Duration::ZERO, agg_plan()))
            .collect();
        let outcome = server.replay(reqs);
        // All 8 arrive at t=0: two queue, the rest bounce.
        assert_eq!(outcome.rejected.len(), 6);
        assert_eq!(outcome.queries.len(), 2);
        assert_eq!(outcome.peak_in_flight, 1);
        assert!(outcome.max_queue_depth <= 2);
        assert_eq!(outcome.deadlocks, 0);
        assert_eq!(outcome.dispositions().total(), 8, "every request accounted");
        assert_eq!(metrics.counter_value("sirius_serve_rejected_total", &[]), 6);
        assert_eq!(
            metrics.counter_value("sirius_serve_completed_total", &[]),
            2
        );
        assert_eq!(metrics.counter_value("sirius_serve_admitted_total", &[]), 2);
        assert_eq!(
            metrics.counter_value(
                "sirius_serve_disposition_total",
                &[("disposition", "rejected")]
            ),
            6
        );
        assert_eq!(
            metrics.counter_value(
                "sirius_serve_disposition_total",
                &[("disposition", "completed")]
            ),
            2
        );
        assert_eq!(
            metrics.gauge_value("sirius_serve_queue_depth", &[]),
            Some(0.0)
        );
        assert!(
            metrics
                .gauge_value("sirius_serve_queue_depth_peak", &[])
                .unwrap()
                >= 1.0
        );
        assert!(metrics.counter_value("sirius_grants_granted_total", &[]) > 0);
    }

    #[test]
    fn priority_orders_the_single_lane() {
        // One worker ⇒ one query per wave: the high-priority late arrival
        // still finishes before the low-priority crowd.
        let server = SiriusServer::new(
            base(1, 32),
            ServeConfig {
                max_in_flight: 8,
                ..Default::default()
            },
        );
        let mut reqs: Vec<QueryRequest> = (0..4)
            .map(|i| QueryRequest::new(i, 0, Duration::ZERO, agg_plan()))
            .collect();
        let mut vip = QueryRequest::new(99, 1, Duration::ZERO, scan_plan());
        vip.priority = 3;
        reqs.push(vip);
        let outcome = server.replay(reqs);
        assert_eq!(outcome.queries[0].id, 99, "priority 3 completes first");
        assert_eq!(outcome.deadlocks, 0);
    }

    #[test]
    fn weighted_round_robin_shares_waves() {
        // Tenant 0 weight 3, tenant 1 weight 1, one wave slot: completions
        // interleave ~3:1.
        let server = SiriusServer::new(
            base(1, 16),
            ServeConfig {
                max_in_flight: 16,
                queue_depth: 32,
                tenant_weights: vec![3, 1],
                ..Default::default()
            },
        );
        let mut reqs = Vec::new();
        for i in 0..8 {
            reqs.push(QueryRequest::new(i, 0, Duration::ZERO, scan_plan()));
        }
        for i in 8..16 {
            reqs.push(QueryRequest::new(i, 1, Duration::ZERO, scan_plan()));
        }
        let outcome = server.replay(reqs);
        assert_eq!(outcome.queries.len(), 16);
        let first8: Vec<usize> = outcome.queries[..8].iter().map(|q| q.tenant).collect();
        let t0 = first8.iter().filter(|&&t| t == 0).count();
        assert_eq!(t0, 6, "weight 3:1 → 6 of the first 8 waves: {first8:?}");
    }

    #[test]
    fn per_query_utilization_measures_own_lanes() {
        // Two queries share an 8-stream pool (width 4 each); each query's
        // 4 balanced morsels fill its own slice, so each reports 1.0 —
        // the pre-fix accounting measured against all 8 streams and
        // reported 0.5.
        let e = SiriusEngine::with_link(catalog::gh200_gpu(), Link::new(catalog::nvlink_c2c()), 8)
            .with_morsel_rows(16);
        e.load_table("t", &data(64));
        e.device().reset();
        let server = SiriusServer::new(e, ServeConfig::default());
        let mk = |id| QueryRequest::new(id, 0, Duration::ZERO, scan_plan());
        let outcome = server.replay(vec![mk(0), mk(1)]);
        assert_eq!(outcome.queries.len(), 2);
        for q in &outcome.queries {
            assert_eq!(q.report.morsels, 4);
            assert!(
                (q.report.worker_utilization - 1.0).abs() < 1e-9,
                "query {} utilization {} on its own lane slice",
                q.id,
                q.report.worker_utilization
            );
        }
    }

    #[test]
    fn traced_queries_replay_their_own_ledgers() {
        let server = SiriusServer::new(base(4, 48), ServeConfig::default());
        let reqs: Vec<QueryRequest> = (0..4)
            .map(|i| {
                let mut r = QueryRequest::new(i, 0, Duration::ZERO, agg_plan());
                r.trace = true;
                r
            })
            .collect();
        let outcome = server.replay(reqs);
        assert_eq!(outcome.queries.len(), 4);
        for q in &outcome.queries {
            assert!(!q.events.is_empty(), "traced query records events");
            let replayed = sirius_hw::ledger::replay(&q.events);
            assert_eq!(
                replayed, q.report.breakdown,
                "query {}'s events replay to its own breakdown",
                q.id
            );
        }
    }

    #[test]
    fn overlapped_waves_beat_serial_sum() {
        // The server clock advances by the longest wave participant, so
        // the makespan of 4 equal queries at concurrency 4 undercuts the
        // sum of their individual elapsed times.
        let server = SiriusServer::new(base(4, 4096), ServeConfig::default());
        let reqs: Vec<QueryRequest> = (0..4)
            .map(|i| QueryRequest::new(i, 0, Duration::ZERO, agg_plan()))
            .collect();
        let outcome = server.replay(reqs);
        let sum: Duration = outcome.queries.iter().map(|q| q.report.elapsed).sum();
        assert!(
            outcome.makespan < sum,
            "overlap: makespan {:?} < serial sum {:?}",
            outcome.makespan,
            sum
        );
        assert_eq!(outcome.breakdown.total(), outcome.makespan);
    }

    #[test]
    fn memory_budget_steers_one_query_to_spill() {
        let e = base(4, 100_000);
        let server = SiriusServer::new(e, ServeConfig::default());
        let group_plan = PlanBuilder::scan(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Float64),
            ]),
        )
        .aggregate(
            vec![expr::col(0)],
            vec![AggExpr {
                func: AggFunc::Sum,
                input: Some(expr::col(1)),
                name: "s".into(),
            }],
        )
        .sort(vec![SortExpr {
            expr: expr::col(0),
            ascending: true,
        }])
        .build();
        let mut capped = QueryRequest::new(0, 0, Duration::ZERO, group_plan.clone());
        capped.memory_budget = Some(64 << 10);
        let free = QueryRequest::new(1, 1, Duration::ZERO, group_plan);
        let outcome = server.replay(vec![capped, free]);
        let by_id = |id: u64| outcome.queries.iter().find(|q| q.id == id).unwrap();
        let (capped, free) = (by_id(0), by_id(1));
        // Same rows either way; only the capped query spilled.
        assert_eq!(
            capped.result.as_ref().unwrap(),
            free.result.as_ref().unwrap()
        );
        assert!(
            capped.report.spilled_pinned_bytes + capped.report.spilled_disk_bytes > 0,
            "budgeted query spills: {:?}",
            capped.report
        );
        assert_eq!(
            free.report.spilled_pinned_bytes + free.report.spilled_disk_bytes,
            0,
            "uncapped query does not: {:?}",
            free.report
        );
    }

    // -- resilience --------------------------------------------------------

    #[test]
    fn zero_deadline_cancels_before_first_wave() {
        let metrics = MetricsRegistry::new();
        let server =
            SiriusServer::new(base(4, 64), ServeConfig::default()).with_metrics(metrics.clone());
        let mut doomed = QueryRequest::new(0, 0, Duration::ZERO, agg_plan());
        doomed.deadline = Some(Duration::ZERO);
        let fine = QueryRequest::new(1, 0, Duration::ZERO, agg_plan());
        let outcome = server.replay(vec![doomed, fine]);
        let cancelled = outcome.queries.iter().find(|q| q.id == 0).unwrap();
        assert_eq!(cancelled.disposition, QueryDisposition::Cancelled);
        assert!(matches!(cancelled.result, Err(SiriusError::Cancelled(_))));
        assert_eq!(cancelled.report.morsels, 0, "no wave ever ran");
        assert!(
            !outcome.admission_order.contains(&0),
            "cancelled before admission"
        );
        let ok = outcome.queries.iter().find(|q| q.id == 1).unwrap();
        assert_eq!(ok.disposition, QueryDisposition::Completed);
        let counts = outcome.dispositions();
        assert_eq!((counts.completed, counts.cancelled), (1, 1));
        assert_eq!(counts.total(), 2);
        assert_eq!(
            metrics.counter_value("sirius_serve_cancelled_total", &[]),
            1
        );
        assert_eq!(
            server
                .engine()
                .buffer_manager()
                .grant_broker()
                .outstanding(),
            0
        );
    }

    #[test]
    fn deadline_mid_flight_aborts_and_releases_grants() {
        // A deadline far too tight for the grouped sort-aggregate cancels
        // it after its first wave; the untimed twin completes exactly.
        let e = base(2, 50_000);
        let server = SiriusServer::new(e, ServeConfig::default());
        let plan = PlanBuilder::scan(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Float64),
            ]),
        )
        .aggregate(
            vec![expr::col(0)],
            vec![AggExpr {
                func: AggFunc::Sum,
                input: Some(expr::col(1)),
                name: "s".into(),
            }],
        )
        .sort(vec![SortExpr {
            expr: expr::col(0),
            ascending: true,
        }])
        .build();
        let mut timed = QueryRequest::new(0, 0, Duration::ZERO, plan.clone());
        timed.deadline = Some(Duration::from_nanos(1));
        let free = QueryRequest::new(1, 1, Duration::ZERO, plan);
        let outcome = server.replay(vec![timed, free]);
        let timed = outcome.queries.iter().find(|q| q.id == 0).unwrap();
        assert_eq!(timed.disposition, QueryDisposition::Cancelled);
        assert!(timed.report.morsels > 0, "it ran at least one wave");
        let free = outcome.queries.iter().find(|q| q.id == 1).unwrap();
        assert_eq!(free.disposition, QueryDisposition::Completed);
        assert_eq!(
            server
                .engine()
                .buffer_manager()
                .grant_broker()
                .outstanding(),
            0,
            "aborted run released every grant"
        );
    }

    #[test]
    fn retryable_wave_fault_retries_and_recovers() {
        let metrics = MetricsRegistry::new();
        let e = base(4, 64).with_fault(
            FaultInjector::new(FaultPlan::new(0).transient_wave(0, 0, 1)),
            0,
        );
        let server = SiriusServer::new(e, ServeConfig::default()).with_metrics(metrics.clone());
        let outcome = server.replay(vec![QueryRequest::new(0, 0, Duration::ZERO, agg_plan())]);
        assert_eq!(outcome.queries.len(), 1);
        let q = &outcome.queries[0];
        assert_eq!(q.disposition, QueryDisposition::Completed, "{:?}", q.result);
        assert_eq!(q.retries, 1, "one transient fault, one retry");
        let expect = base(4, 64).execute(&agg_plan()).unwrap();
        assert_eq!(q.result.as_ref().unwrap(), &expect);
        assert_eq!(metrics.counter_value("sirius_serve_retries_total", &[]), 1);
        assert_eq!(
            outcome.admission_order,
            vec![0, 0],
            "re-admitted through the queue"
        );
        assert!(
            q.queue_wait >= server.config().retry_backoff,
            "backoff shows up as queue wait"
        );
    }

    #[test]
    fn retries_exhaust_into_failed_disposition() {
        let metrics = MetricsRegistry::new();
        // More transient faults than max_retries + 1 attempts can absorb.
        let e = base(4, 64).with_fault(
            FaultInjector::new(FaultPlan::new(0).transient_wave(0, 0, 8)),
            0,
        );
        let server = SiriusServer::new(
            e,
            ServeConfig {
                max_retries: 2,
                ..Default::default()
            },
        )
        .with_metrics(metrics.clone());
        let outcome = server.replay(vec![QueryRequest::new(0, 0, Duration::ZERO, agg_plan())]);
        let q = &outcome.queries[0];
        assert_eq!(q.disposition, QueryDisposition::Failed);
        assert_eq!(q.retries, 2, "both retries consumed");
        assert!(matches!(q.result, Err(SiriusError::TransientDevice(_))));
        assert_eq!(metrics.counter_value("sirius_serve_retries_total", &[]), 2);
        assert_eq!(metrics.counter_value("sirius_serve_failed_total", &[]), 1);
        assert_eq!(outcome.dispositions().failed, 1);
        assert_eq!(
            server
                .engine()
                .buffer_manager()
                .grant_broker()
                .outstanding(),
            0
        );
    }

    #[test]
    fn retry_past_deadline_is_not_attempted() {
        // The fault fires on the first wave; the backed-off retry would
        // start after the deadline, so the query fails with its original
        // transient error instead of retrying (and is never cancelled).
        let e = base(4, 64).with_fault(
            FaultInjector::new(FaultPlan::new(0).transient_wave(0, 0, 1)),
            0,
        );
        let server = SiriusServer::new(
            e,
            ServeConfig {
                retry_backoff: Duration::from_secs(1),
                ..Default::default()
            },
        );
        let mut req = QueryRequest::new(0, 0, Duration::ZERO, agg_plan());
        req.deadline = Some(Duration::from_millis(1));
        let outcome = server.replay(vec![req]);
        let q = &outcome.queries[0];
        assert_eq!(q.disposition, QueryDisposition::Failed);
        assert_eq!(q.retries, 0, "retry would outlive the deadline");
        assert!(matches!(q.result, Err(SiriusError::TransientDevice(_))));
        assert_eq!(outcome.admission_order, vec![0], "admitted exactly once");
    }

    #[test]
    fn pressure_sheds_low_priority_waiting_queries() {
        let metrics = MetricsRegistry::new();
        // Threshold 0: any denial during a wave counts as pressure. The
        // budget-capped grouped aggregate admits first (priority 6) and
        // its denied grants shed the waiting low-priority crowd while
        // the priority-5 VIP stays queued.
        let e = base(1, 50_000);
        let server = SiriusServer::new(
            e,
            ServeConfig {
                max_in_flight: 1,
                shed_pressure: 0.0,
                ..Default::default()
            },
        )
        .with_metrics(metrics.clone());
        let group_plan = PlanBuilder::scan(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Float64),
            ]),
        )
        .aggregate(
            vec![expr::col(0)],
            vec![AggExpr {
                func: AggFunc::Sum,
                input: Some(expr::col(1)),
                name: "s".into(),
            }],
        )
        .sort(vec![SortExpr {
            expr: expr::col(0),
            ascending: true,
        }])
        .build();
        let mut capped = QueryRequest::new(0, 0, Duration::ZERO, group_plan.clone());
        capped.memory_budget = Some(64 << 10);
        capped.priority = 6;
        let mut reqs = vec![capped];
        for i in 1..4 {
            reqs.push(QueryRequest::new(i, 0, Duration::ZERO, scan_plan()));
        }
        let mut vip = QueryRequest::new(9, 0, Duration::ZERO, scan_plan());
        vip.priority = 5;
        reqs.push(vip);
        let outcome = server.replay(reqs);
        assert!(
            !outcome.shed.is_empty(),
            "pressure threshold 0 sheds waiting queries"
        );
        assert!(
            !outcome.shed.contains(&9),
            "the high-priority query is never shed: {:?}",
            outcome.shed
        );
        let vip = outcome.queries.iter().find(|q| q.id == 9).unwrap();
        assert_eq!(vip.disposition, QueryDisposition::Completed);
        assert_eq!(outcome.dispositions().total(), 5, "exact accounting");
        assert_eq!(
            metrics.counter_value("sirius_serve_shed_total", &[]),
            outcome.shed.len() as u64
        );
        assert!(metrics.gauge_value("sirius_broker_pressure", &[]).is_some());
    }

    #[test]
    fn infinite_shed_threshold_disables_shedding() {
        let e = base(1, 50_000);
        let server = SiriusServer::new(
            e,
            ServeConfig {
                max_in_flight: 1,
                shed_pressure: f64::INFINITY,
                ..Default::default()
            },
        );
        let reqs: Vec<QueryRequest> = (0..5)
            .map(|i| QueryRequest::new(i, 0, Duration::ZERO, scan_plan()))
            .collect();
        let outcome = server.replay(reqs);
        assert!(outcome.shed.is_empty());
        assert_eq!(outcome.dispositions().completed, 5);
    }

    fn sql_catalog() -> sirius_sql::BinderCatalog {
        let mut cat = sirius_sql::BinderCatalog::new();
        cat.add_table(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Float64),
            ]),
            64,
        );
        cat
    }

    #[test]
    fn planner_caches_repeated_sql_and_skips_planning() {
        let metrics = MetricsRegistry::new();
        let planner = CachingPlanner::new(sql_catalog(), sirius_sql::JoinOrderPolicy::Optimized)
            .with_adaptive(false);
        let server = SiriusServer::new(base(4, 64), ServeConfig::default())
            .with_metrics(metrics.clone())
            .with_planner(planner);
        let sql = "SELECT k, v FROM t WHERE k > -1";
        let reqs: Vec<QueryRequest> = (0..5)
            .map(|i| QueryRequest::from_sql(i, 0, Duration::from_micros(i), sql))
            .collect();
        let outcome = server.replay(reqs);
        assert_eq!(outcome.dispositions().completed, 5);
        // The result matches executing the same SQL directly.
        let reference = base(4, 64);
        let plan =
            sirius_sql::plan_sql(sql, &sql_catalog(), sirius_sql::JoinOrderPolicy::Optimized)
                .unwrap();
        let expect = reference.execute(&plan).unwrap();
        for q in &outcome.queries {
            assert_eq!(q.result.as_ref().unwrap(), &expect, "query {}", q.id);
        }
        // One planning phase total: every later admission of the shape
        // was a pure cache hit with zero parse/bind/optimize work.
        let p = server.planner().unwrap();
        assert_eq!(p.planning_phases(), 1);
        let stats = p.cache_stats();
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        // Plan-cache counters surface in Prometheus.
        assert_eq!(
            metrics.counter_value("sirius_serve_plan_cache_hits_total", &[]),
            4
        );
        assert_eq!(
            metrics.counter_value("sirius_serve_plan_cache_misses_total", &[]),
            1
        );
        assert_eq!(
            metrics.counter_value("sirius_serve_planning_phases_total", &[]),
            1
        );
        assert_eq!(
            metrics.gauge_value("sirius_serve_cached_plans", &[]),
            Some(1.0)
        );
        let rendered = metrics.render();
        assert!(rendered.contains("sirius_serve_plan_cache_hits_total"));
        assert!(rendered.contains("sirius_serve_cached_plans"));
    }

    #[test]
    fn adaptive_planner_records_feedback_once_per_shape() {
        let planner = CachingPlanner::new(sql_catalog(), sirius_sql::JoinOrderPolicy::Optimized);
        let server = SiriusServer::new(base(4, 64), ServeConfig::default()).with_planner(planner);
        let sql = "SELECT k, v FROM t WHERE k > -1";
        let reqs: Vec<QueryRequest> = (0..6)
            .map(|i| QueryRequest::from_sql(i, 0, Duration::from_micros(i), sql))
            .collect();
        let outcome = server.replay(reqs);
        assert_eq!(outcome.dispositions().completed, 6);
        let p = server.planner().unwrap();
        // Feedback was recorded (per-run stats flowed back)...
        assert_eq!(p.feedback().shapes(), 1);
        // ...and triggered at most one re-optimization: the first plan
        // (estimates), one re-plan when observations first landed, then
        // the observations repeat unchanged and every admission is a
        // pure cache hit again.
        assert_eq!(p.planning_phases(), 2);
        assert!(p.cache_stats().hits >= 4);
    }

    #[test]
    fn sql_request_without_planner_fails_typed() {
        let server = SiriusServer::new(base(4, 64), ServeConfig::default());
        let outcome = server.replay(vec![QueryRequest::from_sql(
            0,
            0,
            Duration::ZERO,
            "SELECT k FROM t",
        )]);
        // No planner: the placeholder plan cannot execute, so the
        // request ends Failed instead of silently running something else.
        assert_eq!(outcome.dispositions().failed, 1);
    }
}
