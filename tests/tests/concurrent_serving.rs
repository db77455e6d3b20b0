//! Property: the serving layer is result-invisible and deterministic.
//! Interleaving any number of TPC-H queries through `SiriusServer` — any
//! in-flight cap, priorities, tenant weights, and per-query memory
//! budgets — must return exactly what serialized execution returns, each
//! query's report must reconcile against its own trace replay (telemetry
//! isolation), the same arrival-trace seed must reproduce the same
//! admission order and counters, and admission control must bound the
//! queue and reject overflow rather than deadlock.

use proptest::prelude::*;
use sirius_columnar::Table;
use sirius_core::{EngineConfig, SiriusEngine};
use sirius_duckdb::DuckDb;
use sirius_hw::{catalog as hw, FaultInjector, FaultPlan, TimeBreakdown};
use sirius_integration::assert_tables_equivalent;
use sirius_plan::Rel;
use sirius_serve::{
    poisson_trace, ArrivalSpec, Query, QueryRequest, ServeConfig, SiriusServer, TenantSpec,
};
use sirius_tpch::{queries, TpchData, TpchGenerator};
use std::sync::OnceLock;
use std::time::Duration;

const SF: f64 = 0.005;
const WORKERS: usize = 4;

struct Fixture {
    data: TpchData,
    /// `(query id, plan)` for all 22 TPC-H queries.
    plans: Vec<(u32, Rel)>,
    /// Serialized single-query results, aligned with `plans`.
    baselines: Vec<Table>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = TpchGenerator::new(SF).generate();
        let mut duck = DuckDb::new();
        for (name, table) in data.tables() {
            duck.create_table(name.clone(), table.clone());
        }
        let plans: Vec<(u32, Rel)> = queries::all()
            .into_iter()
            .map(|(id, sql)| {
                (
                    id,
                    duck.plan(sql).unwrap_or_else(|e| panic!("Q{id} plan: {e}")),
                )
            })
            .collect();
        let reference = engine(&data);
        let baselines = plans
            .iter()
            .map(|(id, plan)| {
                reference
                    .execute(plan)
                    .unwrap_or_else(|e| panic!("Q{id} baseline: {e:?}"))
            })
            .collect();
        Fixture {
            data,
            plans,
            baselines,
        }
    })
}

fn engine(data: &TpchData) -> SiriusEngine {
    engine_under(data, None)
}

/// [`engine`], as node 0 under fault plan `plan` when there is one.
fn engine_under(data: &TpchData, plan: Option<FaultPlan>) -> SiriusEngine {
    let e = SiriusEngine::from_config(EngineConfig {
        workers: WORKERS,
        fault: plan.map(|plan| (FaultInjector::new(plan), 0)),
        ..EngineConfig::new(hw::gh200_gpu())
    });
    for (name, table) in data.tables() {
        e.load_table(name.clone(), table);
    }
    e.device().reset();
    e
}

fn server(fix: &Fixture, config: ServeConfig) -> SiriusServer {
    SiriusServer::new(engine(&fix.data), config)
}

/// Grant-leak detection: after a replay drains, no query — completed or
/// otherwise — may still hold device-memory grants.
fn assert_leak_free(srv: &SiriusServer) {
    let broker = srv.engine().buffer_manager().grant_broker();
    assert_eq!(broker.outstanding(), 0, "grants leaked after replay");
    assert_eq!(
        broker.outstanding_bytes(),
        0,
        "grant bytes leaked after replay"
    );
}

/// Check one served outcome against the serialized baselines; `plan_of`
/// maps a request id back to its index in `fix.plans`.
fn assert_serialized_equivalent(
    fix: &Fixture,
    outcome: &sirius_serve::ServeOutcome,
    plan_of: impl Fn(u64) -> usize,
) {
    for q in &outcome.queries {
        let idx = plan_of(q.id);
        let qid = fix.plans[idx].0;
        let table = q
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("Q{qid} (request {}) failed: {e:?}", q.id));
        assert_tables_equivalent(
            &format!("Q{qid} request {}", q.id),
            table,
            &fix.baselines[idx],
        );
        if !q.events.is_empty() {
            // Telemetry isolation: this query's trace replays to this
            // query's ledger, to the nanosecond, no matter what ran
            // beside it.
            assert_eq!(
                sirius_hw::ledger::replay(&q.events),
                q.report.breakdown,
                "Q{qid} request {}: trace replay disagrees with its report",
                q.id
            );
        }
    }
}

/// All 22 queries in flight together (priorities, tenants, budgets, and
/// tracing mixed) return exactly the serialized results.
#[test]
fn all_queries_concurrently_match_serialized_execution() {
    let fix = fixture();
    let srv = server(
        fix,
        ServeConfig {
            max_in_flight: 4,
            queue_depth: fix.plans.len(),
            tenant_weights: vec![3, 2, 1],
            ..Default::default()
        },
    );
    let requests: Vec<QueryRequest> = fix
        .plans
        .iter()
        .enumerate()
        .map(|(i, (_, plan))| QueryRequest {
            id: i as u64,
            tenant: i % 3,
            priority: (i % 4) as u8,
            arrival: Duration::ZERO,
            deadline: None,
            query: Query::Plan(plan.clone()),
            memory_budget: if i % 3 == 0 { Some(64 << 20) } else { None },
            trace: i % 2 == 0,
        })
        .collect();
    let outcome = srv.replay(requests);
    assert_eq!(outcome.queries.len(), fix.plans.len());
    assert_eq!(outcome.deadlocks, 0);
    assert_eq!(outcome.rejected, Vec::<u64>::new());
    assert!(outcome.peak_in_flight <= 4);
    assert!(
        outcome.queries.iter().step_by(2).all(|_| true),
        "sanity: traced queries present"
    );
    assert_serialized_equivalent(fix, &outcome, |id| id as usize);
    assert_leak_free(&srv);
}

/// Tight per-query budgets steer queries onto their spill paths without
/// changing any result.
#[test]
fn budgeted_queries_spill_but_still_match() {
    let fix = fixture();
    let srv = server(fix, ServeConfig::default());
    let requests: Vec<QueryRequest> = fix
        .plans
        .iter()
        .enumerate()
        .map(|(i, (_, plan))| QueryRequest {
            id: i as u64,
            tenant: i % 2,
            priority: 0,
            arrival: Duration::ZERO,
            deadline: None,
            query: Query::Plan(plan.clone()),
            memory_budget: Some(1 << 20),
            trace: false,
        })
        .collect();
    let outcome = srv.replay(requests);
    assert_eq!(outcome.queries.len(), fix.plans.len());
    assert_serialized_equivalent(fix, &outcome, |id| id as usize);
    let spilled: u64 = outcome
        .queries
        .iter()
        .map(|q| q.report.spilled_pinned_bytes + q.report.spilled_disk_bytes)
        .sum();
    assert!(spilled > 0, "1 MiB budgets must force some spilling");
    assert_leak_free(&srv);
}

/// The same seed reproduces the same admission order and the same
/// per-query counters — no wall-clock anywhere in the serving path.
#[test]
fn same_seed_reproduces_admission_order_and_counters() {
    let fix = fixture();
    let trace = poisson_trace(&ArrivalSpec {
        seed: 0xA11CE,
        rate_qps: 500_000.0,
        count: 32,
        tenants: vec![TenantSpec::new("etl", 2), TenantSpec::new("adhoc", 1)],
        queries: fix.plans.len(),
    });
    let run = || {
        let srv = server(
            fix,
            ServeConfig {
                max_in_flight: 4,
                queue_depth: 16,
                tenant_weights: vec![2, 1],
                ..Default::default()
            },
        );
        let requests: Vec<QueryRequest> = trace
            .iter()
            .map(|a| QueryRequest {
                id: a.id,
                tenant: a.tenant,
                priority: a.priority,
                arrival: a.arrival,
                deadline: None,
                query: Query::Plan(fix.plans[a.query_index].1.clone()),
                memory_budget: (a.query_index % 3 == 0).then_some(32 << 20),
                trace: a.id % 2 == 0,
            })
            .collect();
        let outcome = srv.replay(requests);
        assert_leak_free(&srv);
        outcome
    };
    let (a, b) = (run(), run());
    assert_eq!(a.admission_order, b.admission_order);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.waves, b.waves);
    assert_eq!(a.deadlocks, 0);
    assert_eq!(b.deadlocks, 0);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.max_queue_depth, b.max_queue_depth);
    assert_eq!(a.breakdown, b.breakdown);
    assert_eq!(a.queries.len(), b.queries.len());
    for (qa, qb) in a.queries.iter().zip(&b.queries) {
        assert_eq!(qa.id, qb.id, "completion order must be identical");
        assert_eq!(qa.admitted, qb.admitted, "query {}", qa.id);
        assert_eq!(qa.completed, qb.completed, "query {}", qa.id);
        assert_eq!(qa.latency, qb.latency, "query {}", qa.id);
        assert_eq!(qa.report.breakdown, qb.report.breakdown, "query {}", qa.id);
        assert_eq!(qa.report.rows, qb.report.rows, "query {}", qa.id);
        assert_eq!(qa.report.morsels, qb.report.morsels, "query {}", qa.id);
        assert_eq!(qa.report.tasks, qb.report.tasks, "query {}", qa.id);
        assert_eq!(
            qa.report.spilled_pinned_bytes + qa.report.spilled_disk_bytes,
            qb.report.spilled_pinned_bytes + qb.report.spilled_disk_bytes,
            "query {}",
            qa.id
        );
    }
    // The outcome is also nontrivial: time passed and waves ran.
    assert!(a.waves > 0 && a.makespan > Duration::ZERO);
    assert_eq!(a.breakdown, {
        let mut merged = TimeBreakdown::default();
        merged = merged.merge(&a.breakdown);
        merged
    });
}

/// A burst past the queue depth is rejected at arrival, the queue stays
/// bounded, and the in-flight cap holds.
#[test]
fn backpressure_bounds_queue_and_rejects_overflow() {
    let fix = fixture();
    let srv = server(
        fix,
        ServeConfig {
            max_in_flight: 2,
            queue_depth: 3,
            tenant_weights: Vec::new(),
            ..Default::default()
        },
    );
    let requests: Vec<QueryRequest> = (0..16)
        .map(|i| QueryRequest {
            id: i,
            tenant: 0,
            priority: 0,
            arrival: Duration::ZERO,
            deadline: None,
            query: Query::Plan(fix.plans[(i as usize) % fix.plans.len()].1.clone()),
            memory_budget: None,
            trace: false,
        })
        .collect();
    let outcome = srv.replay(requests);
    // All 16 arrive in the same instant: the queue holds 3, everything
    // else bounces at arrival (admission only drains the queue after the
    // arrival burst is in).
    assert_eq!(outcome.queries.len() + outcome.rejected.len(), 16);
    assert_eq!(outcome.rejected.len(), 13);
    assert!(outcome.max_queue_depth <= 3);
    assert!(outcome.peak_in_flight <= 2);
    assert_eq!(outcome.deadlocks, 0);
    assert_serialized_equivalent(fix, &outcome, |id| (id as usize) % fix.plans.len());
    assert_leak_free(&srv);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomly interleaved TPC-H queries — random in-flight cap, queue
    /// depth, priorities, tenants, budgets, and trace flags — always
    /// produce the serialized results, and every traced query's report
    /// reconciles against its own trace replay.
    #[test]
    fn random_interleavings_are_result_invisible(
        max_in_flight in 2usize..9,
        queue_depth in 8usize..33,
        picks in proptest::collection::vec((0usize..22, 0u8..4, 0usize..3, 0usize..4, any::<bool>()), 4..11),
    ) {
        let fix = fixture();
        let srv = server(
            fix,
            ServeConfig {
                max_in_flight,
                queue_depth,
                tenant_weights: vec![3, 1, 2],
                ..Default::default()
            },
        );
        let plan_idx: Vec<usize> = picks.iter().map(|p| p.0).collect();
        let requests: Vec<QueryRequest> = picks
            .iter()
            .enumerate()
            .map(|(i, &(qi, priority, tenant, budget, traced))| QueryRequest {
                id: i as u64,
                tenant,
                priority,
                // Stagger arrivals a little so admission interleaves with
                // execution rather than forming one initial batch.
                arrival: Duration::from_micros(3 * i as u64),
                deadline: None,
                query: Query::Plan(fix.plans[qi].1.clone()),
                memory_budget: [None, Some(4 << 20), Some(32 << 20), Some(256 << 20)][budget],
                trace: traced,
            })
            .collect();
        let outcome = srv.replay(requests);
        prop_assert_eq!(outcome.deadlocks, 0);
        prop_assert_eq!(outcome.queries.len() + outcome.rejected.len(), picks.len());
        prop_assert!(outcome.peak_in_flight <= max_in_flight);
        assert_serialized_equivalent(fix, &outcome, |id| plan_idx[id as usize]);
        assert_leak_free(&srv);
    }
}

/// Resilience telemetry is observable in Prometheus form: a replay that
/// retries a transient wave fault, cancels an expired deadline, and
/// sheds under broker pressure publishes each event to its counter, and
/// the per-disposition ledger reconciles exactly against the outcome.
#[test]
fn resilience_metrics_are_published() {
    let fix = fixture();
    let metrics = sirius_trace::metrics::MetricsRegistry::new();
    // One transient device fault on the second wave: the victim is the
    // first admitted query, which retries and completes.
    let eng = engine_under(&fix.data, Some(FaultPlan::new(99).transient_wave(0, 1, 1)));
    let srv = SiriusServer::new(
        eng,
        ServeConfig {
            max_in_flight: 1,
            queue_depth: 16,
            tenant_weights: vec![1],
            // Any broker pressure at all sheds the low-priority tail.
            shed_pressure: 0.0,
            ..Default::default()
        },
    )
    .with_metrics(metrics.clone());

    let mut requests = Vec::new();
    // Request 0: a grouped aggregate on a 64 KiB budget — its grant-cap
    // denials raise broker pressure while the rest of the trace waits.
    requests.push(QueryRequest {
        id: 0,
        tenant: 0,
        priority: 7,
        arrival: Duration::ZERO,
        deadline: None,
        query: Query::Plan(fix.plans[0].1.clone()), // Q1: grouped aggregate
        memory_budget: Some(64 << 10),
        trace: false,
    });
    // Request 1: already past its deadline when it arrives — cancelled.
    requests.push(QueryRequest {
        id: 1,
        tenant: 0,
        priority: 0,
        arrival: Duration::ZERO,
        deadline: Some(Duration::ZERO),
        query: Query::Plan(fix.plans[5].1.clone()), // Q6
        memory_budget: None,
        trace: false,
    });
    // Requests 2..6: low-priority scans that queue behind request 0 and
    // get shed once its denials push pressure over the (zero) threshold.
    for i in 2..6u64 {
        requests.push(QueryRequest {
            id: i,
            tenant: 0,
            priority: 0,
            arrival: Duration::ZERO,
            deadline: None,
            query: Query::Plan(fix.plans[5].1.clone()),
            memory_budget: None,
            trace: false,
        });
    }
    let outcome = srv.replay(requests);
    assert_leak_free(&srv);

    let counts = outcome.dispositions();
    assert_eq!(counts.total(), 6, "every request accounted exactly once");
    assert!(counts.completed >= 1, "the retried query completes");
    assert_eq!(counts.cancelled, 1, "the zero-deadline request cancels");
    assert!(counts.shed >= 1, "pressure sheds the low-priority tail");

    assert!(
        metrics.counter_value("sirius_serve_retries_total", &[]) >= 1,
        "retry counted"
    );
    // Per-disposition counters reconcile against the outcome.
    for (label, n) in [
        ("completed", counts.completed),
        ("failed", counts.failed),
        ("cancelled", counts.cancelled),
        ("shed", counts.shed),
        ("rejected", counts.rejected),
    ] {
        assert_eq!(
            metrics.counter_value("sirius_serve_disposition_total", &[("disposition", label)]),
            n as u64,
            "disposition counter {label}"
        );
    }
    // The pressure gauge and backoff-depth gauge were published.
    assert!(metrics.gauge_value("sirius_broker_pressure", &[]).is_some());
    assert!(metrics
        .gauge_value("sirius_serve_backoff_depth", &[])
        .is_some());
    assert!(metrics.render().contains("sirius_serve_disposition_total"));
}
