//! The server-level query scheduler.
//!
//! [`SiriusServer::replay`] is a discrete-event simulation over the same
//! simulated clock the engine charges kernels on. It drives a private
//! `Replay` state (clock, pending arrivals, wait queue, in-flight set,
//! per-tenant served waves, outcome) through eight steps until nothing is
//! left:
//!
//! 1. **arrive** — arrivals due by `now` enter the bounded wait queue;
//!    overflow is rejected (backpressure).
//! 2. **cancel overdue** — waiting and in-flight queries whose deadline
//!    passed are cancelled before they cost anything more.
//! 3. **shed** — broker pressure over the last wave is measured; past the
//!    threshold, low-priority waiting queries are shed.
//! 4. **admit** — while fewer than `max_in_flight` are running, the best
//!    eligible waiting query gets a slot: a fresh
//!    [`SiriusEngine::query_view`] sharing the stream pool, table cache,
//!    grant broker, and spill tiers with every other in-flight query.
//! 5. **idle jump** — with nothing running, the clock jumps to the next
//!    arrival or backoff expiry.
//! 6. **select** — up to one in-flight query per device stream joins the
//!    next *server wave*, priority first, then weighted round-robin
//!    between tenants.
//! 7. **run wave** — each selected query advances one dependency wave of
//!    the core scheduler ([`SiriusEngine::step`]) on an equal slice of the
//!    stream pool, charged onto its own ledger; the clock advances by the
//!    [`attribute_overlap`] fold of those deltas — wall time is the
//!    *longest* participant, exactly how the stream sync folds lanes
//!    within one query.
//! 8. **retire** — finished queries complete; failed waves retry or fail.
//!
//! Two invariants hold the steps together. **Each request settles exactly
//! once**: every way out — completed, failed, cancelled, shed, rejected —
//! goes through `Replay::settle`, the only place a [`ServedQuery`] is
//! built, the only place disposition counters move, and the only writer of
//! [`ServeOutcome::queries`] / `shed` / `rejected`
//! ([`ServeOutcome::dispositions`] accounts for them). **Each failure
//! takes one path**: `Replay::retry_or_fail` either re-queues the request
//! behind its backoff or settles it as failed.
//!
//! # Resilience
//!
//! * **Deadlines** — a request may carry an absolute deadline on the
//!   server clock. Overdue queries are cancelled before their next wave
//!   (a zero deadline cancels before the first), the run unwinds through
//!   [`QueryRun::abort`], and every grant and spill temp it held is
//!   released.
//! * **Retry with backoff** — a wave (or a `begin`) that fails with an
//!   error [`ServeConfig::retry`] allows ([`RetryPolicy::allows`]:
//!   transient device faults, spill I/O, exchange timeouts, while retries
//!   remain) sends the query back through the admission queue after
//!   [`RetryPolicy::delay`] on the server clock. A retry that could not
//!   start before the query's deadline is not attempted.
//! * **Load shedding** — when broker pressure (the denied-grant rate
//!   over the last wave, or processing-pool occupancy) crosses
//!   [`ServeConfig::shed_pressure`], the server sheds low-priority
//!   waiting queries with a typed [`QueryDisposition::Shed`] rejection
//!   and halves the lane slice for new admissions until pressure drops.
//!
//! Every scheduling decision orders by `(priority desc, weighted-fair
//! share, arrival/admission, id)` — total and deterministic, so a given
//! arrival trace always produces the same admission order, the same wave
//! composition, and the same per-query counters.

use crate::metrics;
use crate::planner::CachingPlanner;
use sirius_columnar::Table;
use sirius_core::{QueryReport, QueryRun, RetryPolicy, SiriusEngine, SiriusError};
use sirius_hw::{attribute_overlap, TimeBreakdown, TraceConfig};
use sirius_plan::Rel;
use sirius_rmm::GrantBroker;
use sirius_trace::metrics::{Metric, MetricsRegistry};
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
    /// Retries granted to a query whose wave (or `begin`) failed with a
    /// retryable error before it is reported failed, and the backoff
    /// before each re-enters admission (on the server clock).
    pub retry: RetryPolicy,
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
            retry: RetryPolicy {
                max_retries: 2,
                backoff: Duration::from_micros(100),
            },
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
    /// What to run.
    pub query: Query,
    /// Per-query working-set budget: grants above it are denied, steering
    /// this query (only) onto its spill paths. `None` = uncapped.
    pub memory_budget: Option<u64>,
    /// Record a per-query kernel trace (replayable against the query's
    /// own ledger).
    pub trace: bool,
}

/// What a request runs: a plan, or SQL text — never both.
#[derive(Debug, Clone)]
pub enum Query {
    /// A logical plan, executed as-is.
    Plan(Rel),
    /// SQL text the server's caching planner
    /// ([`SiriusServer::with_planner`]) resolves at admission through the
    /// shared plan cache — repeated shapes skip parse/bind/optimize
    /// entirely. A server without a planner fails it at admission with a
    /// non-retryable [`SiriusError::Unsupported`].
    Sql(String),
}

impl QueryRequest {
    /// A default-priority, uncapped, untraced request with no deadline.
    pub fn new(id: u64, tenant: usize, arrival: Duration, plan: Rel) -> Self {
        Self::of(id, tenant, arrival, Query::Plan(plan))
    }

    /// [`Self::new`] carrying SQL text instead of a plan.
    pub fn from_sql(id: u64, tenant: usize, arrival: Duration, sql: impl Into<String>) -> Self {
        Self::of(id, tenant, arrival, Query::Sql(sql.into()))
    }

    fn of(id: u64, tenant: usize, arrival: Duration, query: Query) -> Self {
        QueryRequest {
            id,
            tenant,
            priority: 0,
            arrival,
            deadline: None,
            query,
            memory_budget: None,
            trace: false,
        }
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

/// One in-flight query: the queue entry it was admitted from (request and
/// retries spent) and the slot it holds.
struct Active {
    entry: Waiting,
    slot: Slot,
}

/// What an admitted query holds: its engine view and stepped run, whose
/// meter is the query's attribution.
struct Slot {
    admitted: Duration,
    engine: SiriusEngine,
    run: QueryRun,
    /// The error that ended the last wave, until `retire` collects it.
    error: Option<SiriusError>,
    /// Widest lane slice this admission may use (halved when admitted
    /// under pressure).
    lane_limit: usize,
    /// The compiled artifact the run started from; its `root()` carries
    /// the executed operator ids.
    compiled: Arc<sirius_core::CompiledQuery>,
    /// The canonical fingerprint shape (feedback key), when this admission
    /// went through the plan cache. Completed runs record their actual
    /// cardinalities under it.
    shape: Option<u64>,
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

    /// Publish serving pressure into `registry`: queue-depth / in-flight
    /// gauges, admission + resilience counters, broker pressure, the
    /// shared grant broker's granted/denied totals and the plan cache's
    /// counters (the README's Metrics table lists them all).
    pub fn with_metrics(self, registry: MetricsRegistry) -> Self {
        SiriusServer {
            metrics: Some(registry),
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
        let mut s = Replay::new(self, requests.into());
        loop {
            s.arrive();
            s.cancel_overdue();
            let degraded = s.shed();
            s.admit(degraded);
            if s.inflight.is_empty() {
                if s.idle_jump() {
                    continue;
                }
                break;
            }
            let selected = s.select();
            if selected.is_empty() {
                // Work in flight but nothing schedulable — count the
                // deadlock and bail instead of spinning forever.
                s.out.deadlocks += 1;
                break;
            }
            s.run_wave(&selected);
            s.retire();
        }
        s.finish()
    }

    fn weight(&self, tenant: usize) -> u32 {
        self.config
            .tenant_weights
            .get(tenant)
            .copied()
            .unwrap_or(1)
            .max(1)
    }

    /// Build the per-query engine view for `req` and start its run.
    fn open_slot(
        &self,
        req: &QueryRequest,
        now: Duration,
        lane_limit: usize,
    ) -> Result<Slot, SiriusError> {
        // A plan compiles here; SQL resolves through the shared planner's
        // plan cache, whose steady state (repeated shape, no new feedback)
        // performs zero parse/bind/optimize work.
        let (shape, compiled) = match (&req.query, &self.planner) {
            (Query::Plan(plan), _) => (None, self.base.compile_query(plan)?),
            (Query::Sql(sql), Some(p)) => {
                let r = p.resolve(sql, &self.base)?;
                (Some(r.shape), r.compiled)
            }
            (Query::Sql(_), None) => {
                return Err(SiriusError::Unsupported(
                    "SQL request on a server without a planner".into(),
                ))
            }
        };
        let trace = if req.trace {
            TraceConfig::On
        } else {
            TraceConfig::Off
        };
        let view = self.base.query_view(trace);
        if let Some(budget) = req.memory_budget {
            view.buffer_manager().set_grant_cap(budget);
        }
        Ok(Slot {
            admitted: now,
            run: view.begin_compiled(&compiled)?,
            engine: view,
            error: None,
            lane_limit,
            compiled,
            shape,
        })
    }

    fn counter_inc(&self, metric: Metric, labels: &[(&str, &str)]) {
        if let Some(m) = &self.metrics {
            m.counter_inc(metric, labels);
        }
    }

    fn gauge_set(&self, metric: Metric, v: f64) {
        if let Some(m) = &self.metrics {
            m.gauge_set(metric, &[], v);
        }
    }
}

/// What the scheduling order compares: `(priority, tenant, instant, id)`,
/// the instant being arrival for waiting entries and admission for
/// in-flight ones.
type SchedKey = (u8, usize, Duration, u64);

fn sched_key(req: &QueryRequest, instant: Duration) -> SchedKey {
    (req.priority, req.tenant, instant, req.id)
}

/// The state of one [`SiriusServer::replay`] run. The methods are the
/// steps of the module docs, in the order the driver calls them.
struct Replay<'a> {
    srv: &'a SiriusServer,
    /// The simulated server clock.
    now: Duration,
    /// Arrivals not yet due, sorted by `(arrival, id)`.
    pending: VecDeque<QueryRequest>,
    queue: VecDeque<Waiting>,
    inflight: Vec<Active>,
    /// Waves served per tenant — the weighted-round-robin state.
    served: Vec<u64>,
    out: ServeOutcome,
    broker: GrantBroker,
    /// Broker counters at the previous wave boundary — the window the
    /// denied-grant rate (shedding pressure) is measured over.
    window: (u64, u64),
    /// Broker counters already published as metrics.
    published: (u64, u64),
}

impl<'a> Replay<'a> {
    fn new(srv: &'a SiriusServer, pending: VecDeque<QueryRequest>) -> Self {
        let broker = srv.base.buffer_manager().grant_broker().clone();
        let counters = (broker.granted(), broker.denied());
        Replay {
            srv,
            now: Duration::ZERO,
            pending,
            queue: VecDeque::new(),
            inflight: Vec::new(),
            served: Vec::new(),
            out: ServeOutcome::default(),
            broker,
            window: counters,
            published: counters,
        }
    }

    /// The one way out. Every request passes through here exactly once,
    /// whatever ended it: the disposition counters move, and the request
    /// lands in `out.rejected`, `out.shed`, or — as the only
    /// [`ServedQuery`] ever built — `out.queries`. A request that held a
    /// `slot` reports that slot's telemetry; an `error` aborts its run
    /// first, releasing every held result and with them its grants.
    fn settle(
        &mut self,
        w: Waiting,
        slot: Option<Slot>,
        disposition: QueryDisposition,
        error: Option<SiriusError>,
    ) {
        let kind = disposition.as_str();
        self.srv
            .counter_inc(metrics::DISPOSITION, &[("disposition", kind)]);
        let bounced = match disposition {
            QueryDisposition::Rejected => Some(&mut self.out.rejected),
            QueryDisposition::Shed => Some(&mut self.out.shed),
            _ => None,
        };
        if let Some(ids) = bounced {
            ids.push(w.req.id);
            return;
        }
        let workers = self.srv.base.workers();
        let (admitted, report, events, table) = match slot {
            None => (self.now, QueryReport::zeroed(workers), Vec::new(), None),
            Some(mut s) => {
                if error.is_some() {
                    s.run.abort();
                }
                let (report, events) = (s.engine.run_report(&s.run), s.engine.trace().events());
                (s.admitted, report, events, s.run.into_table())
            }
        };
        let result = match error {
            Some(e) => Err(e),
            None => table.ok_or_else(|| SiriusError::Kernel("finished run holds no result".into())),
        };
        self.out.queries.push(ServedQuery {
            id: w.req.id,
            tenant: w.req.tenant,
            priority: w.req.priority,
            disposition,
            retries: w.retries,
            result,
            report,
            arrival: w.req.arrival,
            admitted,
            completed: self.now,
            latency: self.now.saturating_sub(w.req.arrival),
            queue_wait: admitted.saturating_sub(w.req.arrival),
            events,
        });
    }

    /// The one path a failure takes — a failed `begin` (no `slot`) or a
    /// failed wave: back through admission behind its backoff if the
    /// retry policy allows the error and the restart would land before
    /// the deadline, otherwise settled as failed.
    fn retry_or_fail(&mut self, w: Waiting, slot: Option<Slot>, e: SiriusError) {
        let retry = &self.srv.config.retry;
        let restart = self.now + retry.delay(w.retries);
        if retry.allows(&e, w.retries) && w.req.deadline.is_none_or(|d| restart < d) {
            // Dropping the slot drops its run, which releases everything
            // the failed attempt still held.
            drop(slot);
            self.srv.counter_inc(metrics::RETRIES, &[]);
            self.queue.push_back(Waiting {
                req: w.req,
                retries: w.retries + 1,
                not_before: restart,
            });
        } else {
            self.settle(w, slot, QueryDisposition::Failed, Some(e));
        }
    }

    /// Step 1: enqueue arrivals due by `now`; reject past the depth cap.
    fn arrive(&mut self) {
        let depth = self.srv.config.queue_depth.max(1);
        while self.pending.front().is_some_and(|r| r.arrival <= self.now) {
            let Some(req) = self.pending.pop_front() else {
                break;
            };
            let w = Waiting {
                not_before: req.arrival,
                retries: 0,
                req,
            };
            if self.queue.len() < depth {
                self.queue.push_back(w);
            } else {
                self.settle(w, None, QueryDisposition::Rejected, None);
            }
        }
        self.out.max_queue_depth = self.out.max_queue_depth.max(self.queue.len());
    }

    /// Step 2: cancel overdue work before it costs anything more. A
    /// waiting query whose deadline passed never admits (a zero deadline
    /// cancels before its first wave); an in-flight one aborts its run
    /// before the next wave dispatches.
    fn cancel_overdue(&mut self) {
        let now = self.now;
        let mut i = 0;
        while let Some(w) = self.queue.get(i) {
            if w.req.deadline.is_none_or(|d| d > now) {
                i += 1;
                continue;
            }
            let Some(w) = self.queue.remove(i) else { break };
            let e = SiriusError::Cancelled("deadline passed before admission".into());
            self.settle(w, None, QueryDisposition::Cancelled, Some(e));
        }
        let mut i = 0;
        while let Some(a) = self.inflight.get(i) {
            let Some(deadline) = a.entry.req.deadline.filter(|&d| d <= now) else {
                i += 1;
                continue;
            };
            let a = self.inflight.remove(i);
            let e = SiriusError::Cancelled(format!(
                "deadline {deadline:?} passed at {now:?} on the server clock"
            ));
            self.settle(a.entry, Some(a.slot), QueryDisposition::Cancelled, Some(e));
        }
    }

    /// Step 3: measure broker pressure over the last wave — the larger of
    /// the denied-grant rate and processing-pool occupancy — and, past
    /// the threshold, shed the [`shed_victims`] of the wait queue. Returns
    /// whether the server is degraded: admissions made under pressure run
    /// on half their lane slice.
    fn shed(&mut self) -> bool {
        let (g, d) = (self.broker.granted(), self.broker.denied());
        let (dg, dd) = (g - self.window.0, d - self.window.1);
        self.window = (g, d);
        let denial_rate = if dg + dd > 0 {
            dd as f64 / (dg + dd) as f64
        } else {
            0.0
        };
        let occupancy = if self.broker.capacity() > 0 {
            self.broker.pool().used() as f64 / self.broker.capacity() as f64
        } else {
            0.0
        };
        let pressure = denial_rate.max(occupancy);
        self.srv.gauge_set(metrics::BROKER_PRESSURE, pressure);
        let degraded = pressure > self.srv.config.shed_pressure;
        if degraded {
            // Ascending indices: each removal shifts the later ones down.
            for (gone, i) in shed_victims(&self.queue).into_iter().enumerate() {
                if let Some(w) = self.queue.remove(i - gone) {
                    self.settle(w, None, QueryDisposition::Shed, None);
                }
            }
        }
        degraded
    }

    /// Step 4: admit eligible entries (backoffs still pending are not)
    /// while slots are free, best-first per the policy. A `begin` that
    /// fails (validation, unsupported feature, injected fault) never
    /// occupies a slot: it retries or fails on the spot.
    fn admit(&mut self, degraded: bool) {
        let streams = self.srv.base.workers().max(1);
        let lane_limit = if degraded {
            (streams / 2).max(1)
        } else {
            streams
        };
        while self.inflight.len() < self.srv.config.max_in_flight.max(1) {
            let eligible = self
                .queue
                .iter()
                .map(|w| (w.not_before <= self.now).then(|| sched_key(&w.req, w.req.arrival)));
            let Some(w) = self.pick(eligible).and_then(|i| self.queue.remove(i)) else {
                break;
            };
            self.out.admission_order.push(w.req.id);
            self.srv.counter_inc(metrics::ADMITTED, &[]);
            match self.srv.open_slot(&w.req, self.now, lane_limit) {
                Ok(slot) => self.inflight.push(Active { entry: w, slot }),
                Err(e) => self.retry_or_fail(w, None, e),
            }
        }
        self.out.peak_in_flight = self.out.peak_in_flight.max(self.inflight.len());
        self.publish_gauges();
    }

    /// Step 5, with nothing running: jump the clock to the next arrival
    /// or the next retry's backoff expiry. `false` when neither exists —
    /// the trace is done.
    fn idle_jump(&mut self) -> bool {
        let next_arrival = self.pending.front().map(|r| r.arrival);
        let next_ready = self.queue.iter().map(|w| w.not_before).min();
        let Some(target) = [next_arrival, next_ready].into_iter().flatten().min() else {
            return false;
        };
        self.now = self.now.max(target);
        true
    }

    /// Step 6, wave selection: up to one in-flight query per stream,
    /// picked one at a time so the round-robin counters interleave
    /// tenants *within* a wave too. Returns in-flight indices.
    fn select(&mut self) -> Vec<usize> {
        let k = self.srv.base.workers().max(1).min(self.inflight.len());
        let mut selected: Vec<usize> = Vec::with_capacity(k);
        for _ in 0..k {
            let unselected = self.inflight.iter().enumerate().map(|(i, a)| {
                (!selected.contains(&i)).then(|| sched_key(&a.entry.req, a.slot.admitted))
            });
            let Some(i) = self.pick(unselected) else {
                break;
            };
            let t = self.inflight[i].entry.req.tenant;
            if self.served.len() <= t {
                self.served.resize(t + 1, 0);
            }
            self.served[t] += 1;
            selected.push(i);
        }
        selected
    }

    /// Step 7: advance each selected query one dependency wave on an
    /// equal slice of the stream pool (narrowed by its admission-time
    /// lane limit), then advance the clock by the wave's cost. Queries
    /// overlapped on the device, so that is the longest participant's
    /// time — the overlap fold of the per-query ledger deltas, not their
    /// sum.
    fn run_wave(&mut self, selected: &[usize]) {
        let width = (self.srv.base.workers().max(1) / selected.len()).max(1);
        let mut deltas: Vec<TimeBreakdown> = Vec::with_capacity(selected.len());
        for &i in selected {
            let s = &mut self.inflight[i].slot;
            s.error = s.engine.step(&mut s.run, width.min(s.lane_limit)).err();
            deltas.push(s.run.last_wave().clone());
        }
        let wave = attribute_overlap(&deltas);
        self.now += wave.total();
        self.out.breakdown = self.out.breakdown.merge(&wave);
        self.out.waves += 1;
    }

    /// Step 8: retire finished queries in in-flight order; a failed wave
    /// goes through [`Self::retry_or_fail`] instead.
    fn retire(&mut self) {
        let mut i = 0;
        while let Some(a) = self.inflight.get(i) {
            if a.slot.error.is_none() && !a.slot.run.is_done() {
                i += 1;
                continue;
            }
            let mut a = self.inflight.remove(i);
            if let Some(e) = a.slot.error.take() {
                self.retry_or_fail(a.entry, Some(a.slot), e);
                continue;
            }
            // Feed actual cardinalities back to an adaptive planner: the
            // stats of the request's own view, which ran only this run,
            // keyed under the shape's canonical fingerprint and the executed
            // plan's own operator ids.
            let adaptive = self.srv.planner.as_ref().filter(|p| p.adaptive());
            if let (Some(p), Some(shape)) = (adaptive, a.slot.shape) {
                let stats = a.slot.engine.operator_stats();
                p.observe(shape, a.slot.compiled.root(), &stats);
            }
            self.settle(a.entry, Some(a.slot), QueryDisposition::Completed, None);
        }
        self.publish_counters();
    }

    /// Close the run: stamp the makespan and publish the final gauges.
    fn finish(mut self) -> ServeOutcome {
        self.out.makespan = self.now;
        self.publish_gauges();
        self.publish_counters();
        self.out
    }

    /// The one picker, shared by admission and wave selection: the index
    /// of the candidate whose key orders first. `None` entries are
    /// ineligible (still backing off, already selected).
    fn pick(&self, candidates: impl Iterator<Item = Option<SchedKey>>) -> Option<usize> {
        let mut best: Option<(usize, SchedKey)> = None;
        for (i, key) in candidates.enumerate() {
            let Some(key) = key else { continue };
            if best.is_none_or(|(_, b)| self.orders_before(key, b)) {
                best = Some((i, key));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The total scheduling order: priority desc, then weighted fair
    /// share (`served/weight`, compared by cross-multiplication so it
    /// stays in integers), then the instant key, then id.
    fn orders_before(&self, a: SchedKey, b: SchedKey) -> bool {
        let (ap, at, ai, aid) = a;
        let (bp, bt, bi, bid) = b;
        if ap != bp {
            return ap > bp;
        }
        let served = |t: usize| self.served.get(t).copied().unwrap_or(0) as u128;
        let (wa, wb) = (self.srv.weight(at) as u128, self.srv.weight(bt) as u128);
        // sa/wa < sb/wb ⇔ sa·wb < sb·wa
        let (sa, sb) = (served(at) * wb, served(bt) * wa);
        if sa != sb {
            return sa < sb;
        }
        (ai, aid) < (bi, bid)
    }

    fn publish_gauges(&self) {
        let backing_off = self.queue.iter().filter(|w| w.not_before > self.now);
        if let Some(m) = &self.srv.metrics {
            m.gauge_set(metrics::QUEUE_DEPTH, &[], self.queue.len() as f64);
            m.gauge_set(metrics::IN_FLIGHT, &[], self.inflight.len() as f64);
            m.gauge_max(metrics::QUEUE_DEPTH_PEAK, &[], self.queue.len() as f64);
            m.gauge_set(metrics::BACKOFF_DEPTH, &[], backing_off.count() as f64);
        }
    }

    /// Publish the broker's grant counters and the planner's plan-cache
    /// counters, both as deltas since the last call.
    fn publish_counters(&mut self) {
        let Some(m) = &self.srv.metrics else { return };
        let (g, d) = (self.broker.granted(), self.broker.denied());
        let (pg, pd) = self.published;
        m.counter_add(metrics::GRANTS_GRANTED, &[], g.saturating_sub(pg));
        m.counter_add(metrics::GRANTS_DENIED, &[], d.saturating_sub(pd));
        self.published = (g, d);
        if let Some(p) = &self.srv.planner {
            p.publish(m);
        }
    }
}

/// Who load shedding drops from the wait queue, as ascending indices:
/// every entry below the best waiting priority, or — when the queue is
/// uniform — the later-arriving half.
fn shed_victims(queue: &VecDeque<Waiting>) -> Vec<usize> {
    let Some(top) = queue.iter().map(|w| w.req.priority).max() else {
        return Vec::new();
    };
    let mut victims: Vec<usize> = (0..queue.len())
        .filter(|&i| queue[i].req.priority < top)
        .collect();
    if victims.is_empty() {
        let mut idx: Vec<usize> = (0..queue.len()).collect();
        idx.sort_by_key(|&i| (queue[i].req.arrival, queue[i].req.id));
        victims = idx.split_off(queue.len().div_ceil(2));
        victims.sort_unstable();
    }
    victims
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{Array, DataType, Field, Schema};
    use sirius_core::EngineConfig;
    use sirius_hw::{catalog, FaultInjector, FaultPlan};
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
        loaded(config(workers), rows)
    }

    /// [`base`] as node 0 under fault plan `plan`.
    fn faulted(workers: usize, rows: i64, plan: FaultPlan) -> SiriusEngine {
        let fault = Some((FaultInjector::new(plan), 0));
        loaded(
            EngineConfig {
                fault,
                ..config(workers)
            },
            rows,
        )
    }

    fn config(workers: usize) -> EngineConfig {
        EngineConfig {
            workers,
            ..EngineConfig::new(catalog::gh200_gpu())
        }
    }

    fn loaded(config: EngineConfig, rows: i64) -> SiriusEngine {
        let e = SiriusEngine::from_config(config);
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
        let e = loaded(
            EngineConfig {
                morsel_rows: 16,
                ..config(8)
            },
            64,
        );
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
            metrics.counter_value(metrics::DISPOSITION.name, &[("disposition", "cancelled")]),
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
        let e = faulted(4, 64, FaultPlan::new(0).transient_wave(0, 0, 1));
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
            q.queue_wait >= server.config().retry.backoff,
            "backoff shows up as queue wait"
        );
    }

    #[test]
    fn retries_exhaust_into_failed_disposition() {
        let metrics = MetricsRegistry::new();
        // More transient faults than max_retries + 1 attempts can absorb.
        let e = faulted(4, 64, FaultPlan::new(0).transient_wave(0, 0, 8));
        let server = SiriusServer::new(
            e,
            ServeConfig {
                retry: RetryPolicy {
                    max_retries: 2,
                    backoff: Duration::from_micros(100),
                },
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
        assert_eq!(
            metrics.counter_value(metrics::DISPOSITION.name, &[("disposition", "failed")]),
            1
        );
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
        let e = faulted(4, 64, FaultPlan::new(0).transient_wave(0, 0, 1));
        let server = SiriusServer::new(
            e,
            ServeConfig {
                retry: RetryPolicy {
                    max_retries: 2,
                    backoff: Duration::from_secs(1),
                },
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
            metrics.counter_value(metrics::DISPOSITION.name, &[("disposition", "shed")]),
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
        // No planner: the SQL fails at admission, typed and not retried,
        // instead of silently running something else.
        assert_eq!(outcome.dispositions().failed, 1);
        let q = &outcome.queries[0];
        assert_eq!((q.retries, outcome.admission_order.len()), (0, 1));
        let err = q.result.as_ref().expect_err("no planner");
        assert!(matches!(err, SiriusError::Unsupported(_)), "{err}");
        assert!(!err.is_retryable());
    }

    // -- replay steps, on hand-built state (no wave ever runs) -------------

    fn waiting(id: u64, tenant: usize, priority: u8, arrival_us: u64) -> Waiting {
        let mut req = QueryRequest::new(id, tenant, Duration::from_micros(arrival_us), scan_plan());
        req.priority = priority;
        Waiting {
            not_before: req.arrival,
            retries: 0,
            req,
        }
    }

    fn key(w: &Waiting) -> Option<SchedKey> {
        Some(sched_key(&w.req, w.req.arrival))
    }

    #[test]
    fn shed_victims_are_the_low_priorities_or_the_later_half() {
        let queue = |entries: &[(u8, u64)]| -> VecDeque<Waiting> {
            (0u64..)
                .zip(entries)
                .map(|(id, &(priority, arrival))| waiting(id, 0, priority, arrival))
                .collect()
        };
        // Mixed priorities: everything below the best waiting priority.
        assert_eq!(
            shed_victims(&queue(&[(2, 0), (0, 1), (2, 2), (1, 3)])),
            [1, 3]
        );
        // Uniform: the ⌊n/2⌋ latest arrivals, reported in queue order.
        assert_eq!(
            shed_victims(&queue(&[(1, 30), (1, 10), (1, 50), (1, 20), (1, 40)])),
            [2, 4]
        );
        assert_eq!(shed_victims(&queue(&[(3, 7)])), [] as [usize; 0]);
        assert_eq!(shed_victims(&queue(&[])), [] as [usize; 0]);

        // Through the step: pressure 0 exceeds a negative threshold, the
        // victims settle as shed in queue order and the rest keep theirs.
        let server = SiriusServer::new(
            base(4, 16),
            ServeConfig {
                shed_pressure: -1.0,
                ..Default::default()
            },
        );
        let mut r = Replay::new(&server, VecDeque::new());
        r.queue = queue(&[(2, 0), (0, 1), (2, 2), (1, 3)]);
        assert!(r.shed(), "degraded");
        assert_eq!(r.out.shed, [1, 3]);
        let left: Vec<u64> = r.queue.iter().map(|w| w.req.id).collect();
        assert_eq!(left, [0, 2]);
        assert_eq!(r.out.dispositions().shed, 2);
    }

    #[test]
    fn idle_jump_targets_the_earlier_of_arrival_and_backoff_expiry() {
        let server = SiriusServer::new(base(4, 16), ServeConfig::default());
        let us = Duration::from_micros;
        let arrival = QueryRequest::new(9, 0, us(500), scan_plan());
        let mut r = Replay::new(&server, VecDeque::from([arrival]));
        let mut retry = waiting(1, 0, 0, 0);
        retry.not_before = us(300);
        r.queue.push_back(retry);
        assert!(r.idle_jump());
        assert_eq!(r.now, us(300), "the backoff expires before the arrival");
        r.queue.clear();
        assert!(r.idle_jump());
        assert_eq!(r.now, us(500), "only the arrival is left");
        // The clock never runs backwards, and with nothing left the trace
        // is over.
        r.now = us(800);
        assert!(r.idle_jump());
        assert_eq!(r.now, us(800));
        r.pending.clear();
        assert!(!r.idle_jump());
        assert_eq!(r.now, us(800));
    }

    #[test]
    fn picker_orders_by_priority_then_weighted_share_then_instant() {
        let server = SiriusServer::new(
            base(4, 16),
            ServeConfig {
                tenant_weights: vec![3, 1],
                ..Default::default()
            },
        );
        let mut r = Replay::new(&server, VecDeque::new());
        let a = waiting(10, 0, 0, 5); // tenant 0 (weight 3)
        let b = waiting(11, 1, 0, 7); // tenant 1 (weight 1)
        let pick = |r: &Replay, entries: &[&Waiting]| r.pick(entries.iter().map(|w| key(w)));
        // Equal shares (3/3 = 1/1): the earlier arrival wins.
        r.served = vec![3, 1];
        assert_eq!(pick(&r, &[&b, &a]), Some(1));
        // Tenant 0 ran ahead of its weight (4/3 > 1/1): tenant 1 is next.
        r.served = vec![4, 1];
        assert_eq!(pick(&r, &[&a, &b]), Some(1));
        // Tenant 1 ran ahead (3/3 < 2/1): tenant 0, whatever the order.
        r.served = vec![3, 2];
        assert_eq!(pick(&r, &[&b, &a]), Some(1));
        // Priority beats any share; an ineligible candidate is skipped.
        let vip = waiting(12, 0, 2, 9);
        r.served = vec![100, 0];
        assert_eq!(pick(&r, &[&b, &vip]), Some(1));
        assert_eq!(r.pick([None, key(&b), None].into_iter()), Some(1));
        assert_eq!(r.pick([None, None].into_iter()), None);
        // Same tenant, same instant: the lower id.
        let twin = waiting(9, 0, 0, 5);
        assert_eq!(pick(&r, &[&a, &twin]), Some(1));
    }

    #[test]
    fn retire_settles_in_flight_order_and_requeues_the_retryable() {
        let metrics = MetricsRegistry::new();
        let server =
            SiriusServer::new(base(4, 16), ServeConfig::default()).with_metrics(metrics.clone());
        let mut r = Replay::new(&server, VecDeque::new());
        r.now = Duration::from_micros(40);
        let errors = [
            SiriusError::Kernel("permanent".into()),
            SiriusError::TransientDevice("blip".into()),
            SiriusError::OutOfMemory("permanent".into()),
        ];
        for (id, e) in (0u64..).zip(errors) {
            let entry = waiting(id, 0, 0, id);
            let mut slot = server.open_slot(&entry.req, r.now, 4).expect("begin");
            slot.error = Some(e);
            r.inflight.push(Active { entry, slot });
        }
        // A fourth that is neither failed nor finished stays in flight.
        let entry = waiting(3, 0, 0, 3);
        let slot = server.open_slot(&entry.req, r.now, 4).expect("begin");
        r.inflight.push(Active { entry, slot });

        r.retire();
        let failed: Vec<u64> = r.out.queries.iter().map(|q| q.id).collect();
        assert_eq!(failed, [0, 2], "in-flight order");
        for q in &r.out.queries {
            assert_eq!(q.disposition, QueryDisposition::Failed);
            assert_eq!((q.completed, q.retries), (r.now, 0));
        }
        assert_eq!(
            r.queue.len(),
            1,
            "the transient failure went back to the queue"
        );
        assert_eq!((r.queue[0].req.id, r.queue[0].retries), (1, 1));
        assert_eq!(
            r.queue[0].not_before,
            r.now + server.config().retry.delay(0)
        );
        assert_eq!(r.inflight.len(), 1);
        assert_eq!(r.inflight[0].entry.req.id, 3);
        assert_eq!(metrics.counter_value(metrics::RETRIES.name, &[]), 1);
        assert_eq!(
            metrics.counter_value(metrics::DISPOSITION.name, &[("disposition", "failed")]),
            2
        );
        let broker = server.engine().buffer_manager().grant_broker();
        assert_eq!(
            broker.outstanding(),
            0,
            "settled and re-queued runs hold nothing"
        );
    }

    // -- the metric catalog ------------------------------------------------

    fn group_plan() -> Rel {
        PlanBuilder::scan(
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
        .build()
    }

    /// Every metric `metrics` declares, in the README table's order.
    const METRICS: [Metric; 16] = [
        metrics::QUEUE_DEPTH,
        metrics::IN_FLIGHT,
        metrics::QUEUE_DEPTH_PEAK,
        metrics::BACKOFF_DEPTH,
        metrics::ADMITTED,
        metrics::RETRIES,
        metrics::DISPOSITION,
        metrics::BROKER_PRESSURE,
        metrics::GRANTS_GRANTED,
        metrics::GRANTS_DENIED,
        metrics::PLAN_CACHE_HITS,
        metrics::PLAN_CACHE_MISSES,
        metrics::PLAN_CACHE_EVICTIONS,
        metrics::PLAN_REPLANS,
        metrics::PLANNING_PHASES,
        metrics::CACHED_PLANS,
    ];

    /// A chaos trace that ends requests every way there is — completed,
    /// failed, cancelled, shed, rejected, with a retry on the way — through
    /// a planner: afterwards the registry holds exactly the declared
    /// metrics, each with its declared kind.
    #[test]
    fn every_declared_metric_is_emitted_and_every_emitted_one_declared() {
        let metrics = MetricsRegistry::new();
        let e = faulted(1, 50_000, FaultPlan::new(0).transient_wave(0, 2, 1));
        let planner = CachingPlanner::new(sql_catalog(), sirius_sql::JoinOrderPolicy::Optimized);
        let server = SiriusServer::new(
            e,
            ServeConfig {
                max_in_flight: 1,
                queue_depth: 8,
                shed_pressure: 0.0,
                ..Default::default()
            },
        )
        .with_metrics(metrics.clone())
        .with_planner(planner);
        let at = Duration::ZERO;
        let mut capped = QueryRequest::new(0, 0, at, group_plan());
        capped.memory_budget = Some(64 << 10);
        capped.priority = 6;
        let mut doomed = QueryRequest::new(1, 0, at, scan_plan());
        doomed.deadline = Some(at);
        let mut broken = QueryRequest::from_sql(2, 0, at, "SELECT nope FROM missing");
        broken.priority = 7;
        let mut vip = QueryRequest::from_sql(3, 0, at, "SELECT k, v FROM t WHERE k > -1");
        vip.priority = 5;
        let mut reqs = vec![capped, doomed, broken, vip];
        reqs.extend((4..12).map(|id| QueryRequest::new(id, 0, at, scan_plan())));
        let outcome = server.replay(reqs);
        let d = outcome.dispositions();
        assert_eq!(d.total(), 12);
        for (kind, n) in [
            ("completed", d.completed),
            ("failed", d.failed),
            ("cancelled", d.cancelled),
            ("shed", d.shed),
            ("rejected", d.rejected),
        ] {
            assert!(n > 0, "the trace ends no request as {kind}: {d:?}");
        }

        let rendered = metrics.render();
        let mut emitted: Vec<(&str, &str)> = rendered
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' '))
            .collect();
        let mut declared: Vec<(&str, &str)> =
            METRICS.iter().map(|m| (m.name, m.kind.as_str())).collect();
        emitted.sort();
        declared.sort();
        assert_eq!(emitted, declared, "emitted families != declared metrics");
    }

    #[test]
    fn readme_metrics_table_lists_the_catalog() {
        let readme = include_str!("../../../README.md");
        for m in METRICS {
            let row = format!("| `{}` | {} | {} |", m.name, m.kind.as_str(), m.help);
            assert!(
                readme.contains(&row),
                "README.md Metrics table lacks: {row}"
            );
        }
    }
}
