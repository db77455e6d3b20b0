//! Keystone resilience property: a serving run under seeded engine-local
//! chaos — transient device faults mid-wave, spill-tier I/O failures,
//! grant-broker denial storms — plus deadlines and load shedding must
//! (1) return exactly the fault-free serialized results for every
//! surviving query, (2) release every working-set grant and reap every
//! spill temp for every failed/cancelled/shed query, (3) leave the
//! shared engine consistent enough that fault-free execution afterwards
//! is still exact, and (4) account every request exactly once across
//! completed/failed/cancelled/shed/rejected.
//!
//! `CHAOS_SEED_BASE` (env) offsets the seed space so CI can sweep
//! disjoint seed ranges across matrix entries.

use proptest::prelude::*;
use sirius_columnar::Table;
use sirius_core::{EngineConfig, RetryPolicy, SiriusEngine, SiriusError};
use sirius_duckdb::DuckDb;
use sirius_hw::{catalog as hw, FaultInjector, FaultPlan, TraceConfig};
use sirius_integration::assert_tables_equivalent;
use sirius_plan::Rel;
use sirius_serve::{
    Query, QueryDisposition, QueryRequest, ServeConfig, ServeOutcome, SiriusServer,
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
    /// Serialized fault-free results, aligned with `plans`.
    baselines: Vec<Table>,
    /// A grouped sort-aggregate over lineitem that reliably spills under
    /// a ~1 MiB working-set budget, with its fault-free baseline.
    spill_plan: Rel,
    spill_baseline: Table,
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
        let spill_plan = duck
            .plan(
                "select l_orderkey, sum(l_extendedprice) as s from lineitem \
                 group by l_orderkey order by l_orderkey",
            )
            .expect("spill plan");
        let reference = engine(&data);
        let baselines = plans
            .iter()
            .map(|(id, plan)| {
                reference
                    .execute(plan)
                    .unwrap_or_else(|e| panic!("Q{id} baseline: {e:?}"))
            })
            .collect();
        let spill_baseline = reference.execute(&spill_plan).expect("spill baseline");
        Fixture {
            data,
            plans,
            baselines,
            spill_plan,
            spill_baseline,
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

fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A server whose engine is armed with the seeded engine-local chaos
/// plan on node 0, with retry and shedding enabled.
fn chaotic_server(fix: &Fixture, seed: u64) -> SiriusServer {
    let e = engine_under(&fix.data, Some(FaultPlan::seeded_chaos_local(seed, 0)));
    SiriusServer::new(
        e,
        ServeConfig {
            max_in_flight: 3,
            queue_depth: 64,
            tenant_weights: vec![2, 1],
            retry: RetryPolicy {
                max_retries: 2,
                backoff: Duration::from_micros(50),
            },
            shed_pressure: 0.95,
        },
    )
}

/// The keystone invariant bundle: exact accounting, exact survivors,
/// zero leaked grants, zero live spill temps, an empty processing pool,
/// and a still-consistent shared cache.
fn assert_resilient(
    fix: &Fixture,
    srv: &SiriusServer,
    outcome: &ServeOutcome,
    n_requests: usize,
    plan_of: impl Fn(u64) -> usize,
) {
    // (4) Every request accounted exactly once.
    let counts = outcome.dispositions();
    assert_eq!(counts.total(), n_requests, "exact accounting: {counts:?}");
    assert_eq!(
        outcome.queries.len() + outcome.rejected.len() + outcome.shed.len(),
        n_requests
    );

    // (1) Survivors match the fault-free serialized results exactly.
    for q in &outcome.queries {
        let idx = plan_of(q.id);
        let qid = fix.plans[idx].0;
        match q.disposition {
            QueryDisposition::Completed => {
                let table = q
                    .result
                    .as_ref()
                    .unwrap_or_else(|e| panic!("completed Q{qid} holds an error: {e:?}"));
                assert_tables_equivalent(
                    &format!("Q{qid} request {} under chaos", q.id),
                    table,
                    &fix.baselines[idx],
                );
            }
            QueryDisposition::Failed => {
                assert!(q.result.is_err(), "failed Q{qid} must carry its error");
            }
            QueryDisposition::Cancelled => {
                assert!(
                    matches!(q.result, Err(SiriusError::Cancelled(_))),
                    "cancelled Q{qid} must carry a cancellation error: {:?}",
                    q.result
                );
            }
            QueryDisposition::Shed | QueryDisposition::Rejected => {
                panic!("shed/rejected requests never enter outcome.queries")
            }
        }
    }

    // (2) No leaked working-set grants or live spill temps — not even
    // from queries that failed, retried, or were cancelled mid-wave.
    let bm = srv.engine().buffer_manager();
    let broker = bm.grant_broker();
    assert_eq!(broker.outstanding(), 0, "leaked grants");
    assert_eq!(broker.outstanding_bytes(), 0, "leaked grant bytes");
    assert_eq!(broker.pool().used(), 0, "processing pool not drained");
    assert_eq!(bm.spill_manager().tier_usage(), (0, 0), "unreaped temps");

    // (3) The shared cache is still consistent: with faults disarmed,
    // the same engine still returns exact results.
    if let Some((fault, _)) = &srv.engine().config().fault {
        fault.disarm_node(0);
    }
    let check = srv
        .engine()
        .execute(&fix.plans[0].1)
        .expect("post-chaos execution");
    assert_tables_equivalent(
        "post-chaos Q1 on the shared engine",
        &check,
        &fix.baselines[0],
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The keystone: any seeded engine-local chaos plan over any small
    /// TPC-H mix (deadlines included) yields exact survivors, exact
    /// accounting, zero leaks, and a reusable engine — deterministically.
    #[test]
    fn chaos_serving_keeps_survivors_exact_and_leak_free(
        seed_off in 0u64..500,
        picks in proptest::collection::vec(
            (0usize..22, 0u8..3, 0usize..2, any::<bool>()), 4..9),
        doomed in any::<bool>(),
    ) {
        let fix = fixture();
        let seed = seed_base().wrapping_add(seed_off);
        let plan_idx: Vec<usize> = picks.iter().map(|p| p.0).collect();
        let run = || {
            let srv = chaotic_server(fix, seed);
            let requests: Vec<QueryRequest> = picks
                .iter()
                .enumerate()
                .map(|(i, &(qi, priority, tenant, budgeted))| QueryRequest {
                    id: i as u64,
                    tenant,
                    priority,
                    arrival: Duration::from_micros(2 * i as u64),
                    // One request may carry an impossible deadline so
                    // cancellation interleaves with the chaos.
                    deadline: (doomed && i == 0).then_some(Duration::from_nanos(1)),
                    query: Query::Plan(fix.plans[qi].1.clone()),
                    memory_budget: budgeted.then_some(8 << 20),
                    trace: false,
                })
                .collect();
            let outcome = srv.replay(requests);
            (srv, outcome)
        };
        let (srv, outcome) = run();
        prop_assert_eq!(outcome.deadlocks, 0);
        assert_resilient(fix, &srv, &outcome, picks.len(), |id| plan_idx[id as usize]);

        // Determinism: the same seed replays to the same dispositions,
        // admission order, and clock.
        let (_, again) = run();
        prop_assert_eq!(&outcome.admission_order, &again.admission_order);
        prop_assert_eq!(&outcome.rejected, &again.rejected);
        prop_assert_eq!(&outcome.shed, &again.shed);
        prop_assert_eq!(outcome.makespan, again.makespan);
        prop_assert_eq!(outcome.queries.len(), again.queries.len());
        for (a, b) in outcome.queries.iter().zip(&again.queries) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.disposition, b.disposition);
            prop_assert_eq!(a.retries, b.retries);
            prop_assert_eq!(a.completed, b.completed);
        }
    }
}

/// A deadline landing exactly on a wave boundary cancels before the next
/// wave dispatches; a deadline exactly at the completion instant lets
/// the query finish (retirement precedes the next deadline check).
#[test]
fn deadline_exactly_on_wave_boundary() {
    let fix = fixture();
    // Q3 is a multi-pipeline join: several server waves. Replicate the
    // server's first wave on an identical engine to learn its exact cost.
    let q3 = fix.plans.iter().position(|(id, _)| *id == 3).unwrap();
    let plan = &fix.plans[q3].1;
    let probe = engine(&fix.data).query_view(TraceConfig::Off);
    let mut run = probe.begin(plan).expect("begin");
    probe.step(&mut run, WORKERS).expect("first wave");
    assert!(!run.is_done(), "Q3 must take more than one wave");
    let t1 = probe.device().breakdown().total();

    let serve_with = |deadline: Option<Duration>| {
        let srv = SiriusServer::new(engine(&fix.data), ServeConfig::default());
        let mut req = QueryRequest::new(0, 0, Duration::ZERO, plan.clone());
        req.deadline = deadline;
        let outcome = srv.replay(vec![req]);
        assert_eq!(
            srv.engine().buffer_manager().grant_broker().outstanding(),
            0
        );
        outcome
    };

    // Makespan of the untimed run = the completion instant.
    let free = serve_with(None);
    assert_eq!(free.queries[0].disposition, QueryDisposition::Completed);
    let makespan = free.makespan;
    assert!(t1 < makespan, "first wave {t1:?} < makespan {makespan:?}");

    // Deadline exactly at the first wave boundary: the wave that just
    // ran is charged, then the cancel check fires before wave two.
    let cancelled = serve_with(Some(t1));
    let q = &cancelled.queries[0];
    assert_eq!(q.disposition, QueryDisposition::Cancelled, "{:?}", q.result);
    assert_eq!(q.completed, t1, "cancelled at the boundary instant");
    assert!(q.report.morsels > 0, "the first wave did run");

    // Deadline one tick past the completion instant: the query finishes
    // (trailing waves can be zero-cost on the simulated clock, so a
    // deadline of exactly `makespan` may still precede the final wave —
    // one nanosecond of slack puts completion strictly first).
    let finished = serve_with(Some(makespan + Duration::from_nanos(1)));
    assert_eq!(finished.queries[0].disposition, QueryDisposition::Completed);
    assert_tables_equivalent(
        "Q3 with deadline just past the completion instant",
        finished.queries[0].result.as_ref().unwrap(),
        &fix.baselines[q3],
    );
}

/// Cancelling a query mid-spill reaps its temps: the budget-capped
/// grouped aggregate spills in its first wave, the deadline kills it
/// before the second, and no spill-tier bytes or grants stay live.
#[test]
fn deadline_during_spilling_wave_reaps_temps() {
    let fix = fixture();
    // Find the exact server instant at which the budget-capped run has
    // just finished its first spilling wave, by replicating the server's
    // stepping on an identical engine.
    let probe = engine(&fix.data).query_view(TraceConfig::Off);
    probe.buffer_manager().set_grant_cap(64 << 10);
    let mut run = probe.begin(&fix.spill_plan).expect("begin");
    let mut spill_at = None;
    while !run.is_done() {
        let before = probe.spill_stats();
        probe.step(&mut run, WORKERS).expect("wave");
        // An oracle independent of the run's meter: the probe is the only
        // query on its spill tiers.
        #[allow(clippy::disallowed_methods)]
        let delta = probe.spill_stats().since(&before);
        if delta.bytes_to_pinned + delta.bytes_to_disk > 0 {
            spill_at = Some(probe.device().breakdown().total());
            break;
        }
    }
    let spill_at = spill_at.expect("64 KiB budget forces a spilling wave");
    assert!(!run.is_done(), "the deadline must land before completion");

    let srv = SiriusServer::new(engine(&fix.data), ServeConfig::default());
    let mut timed = QueryRequest::new(0, 0, Duration::ZERO, fix.spill_plan.clone());
    timed.memory_budget = Some(64 << 10);
    timed.deadline = Some(spill_at);
    let outcome = srv.replay(vec![timed]);
    let timed = &outcome.queries[0];
    assert_eq!(timed.disposition, QueryDisposition::Cancelled);
    assert!(
        timed.report.spilled_pinned_bytes + timed.report.spilled_disk_bytes > 0,
        "the cancelled query was mid-spill: {:?}",
        timed.report
    );

    let bm = srv.engine().buffer_manager();
    assert_eq!(bm.grant_broker().outstanding(), 0, "grants released");
    assert_eq!(
        bm.spill_manager().tier_usage(),
        (0, 0),
        "spill temps reaped after mid-spill cancellation"
    );

    // An untimed twin (same budget) on the same shared tiers afterwards
    // proves the workload itself still completes exactly.
    let mut free = QueryRequest::new(1, 1, Duration::ZERO, fix.spill_plan.clone());
    free.memory_budget = Some(64 << 10);
    let again = srv.replay(vec![free]);
    let free = &again.queries[0];
    assert_eq!(free.disposition, QueryDisposition::Completed);
    assert_tables_equivalent(
        "budgeted twin after the mid-spill cancellation",
        free.result.as_ref().unwrap(),
        &fix.spill_baseline,
    );
    assert_eq!(bm.spill_manager().tier_usage(), (0, 0));
}

/// Directed (non-random) chaos: each engine-local fault kind on its own,
/// against a fixed mix, must keep survivors exact and the engine clean.
#[test]
fn each_fault_kind_alone_is_survivable() {
    let fix = fixture();
    let kinds: Vec<(&str, FaultPlan)> = vec![
        ("transient-wave", FaultPlan::new(1).transient_wave(0, 1, 1)),
        (
            "transient-device",
            FaultPlan::new(2).transient_device(0, 1, 1),
        ),
        ("spill-io", FaultPlan::new(3).spill_io(0, 0, 1)),
        ("grant-storm", FaultPlan::new(4).grant_storm(0, 0, 2)),
    ];
    for (label, plan) in kinds {
        let e = engine_under(&fix.data, Some(plan));
        let srv = SiriusServer::new(e, ServeConfig::default());
        let mix = [0usize, 5, 13]; // Q1, Q6, Q14: scans + aggregates
        let requests: Vec<QueryRequest> = mix
            .iter()
            .enumerate()
            .map(|(i, &qi)| {
                let mut r =
                    QueryRequest::new(i as u64, i % 2, Duration::ZERO, fix.plans[qi].1.clone());
                // A small budget gives spill-io and grant-storm faults
                // spill traffic to land on.
                r.memory_budget = Some(8 << 20);
                r
            })
            .collect();
        let outcome = srv.replay(requests);
        assert_eq!(outcome.deadlocks, 0, "{label}");
        assert_resilient(fix, &srv, &outcome, mix.len(), |id| mix[id as usize]);
    }
}
