//! Property: the plan cache and feedback loop are result-invisible.
//!
//! * Every TPC-H query executed from a cached [`CompiledQuery`]
//!   (`compile_query` once, `begin_compiled` thereafter) returns exactly
//!   the table a fresh `execute` returns.
//! * A feedback-driven re-optimization (plan with observed actuals,
//!   possibly a different join build side) still returns exactly the
//!   estimate-only results, for all 22 queries.
//! * A served arrival trace is bit-identical with the plan cache on and
//!   off (adaptive feedback disabled): same admission order, same wave
//!   count, same makespan, same per-query results and ledgers — caching
//!   only removes planning work, never changes execution.
//! * A tiny cache under a round-robin of distinct shapes evicts (LRU)
//!   and every query stays correct through refills.
//! * Repeated resolutions of one SQL text perform zero planning work
//!   after the first admission (the planning-phase counter stands still).

use sirius_core::{EngineConfig, SiriusEngine};
use sirius_duckdb::DuckDb;
use sirius_hw::catalog as hw;
use sirius_integration::assert_tables_equivalent;
use sirius_plan::Rel;
use sirius_serve::{
    poisson_trace, ArrivalSpec, CachingPlanner, QueryRequest, ServeConfig, SiriusServer, TenantSpec,
};
use sirius_sql::JoinOrderPolicy;
use sirius_tpch::{queries, TpchData, TpchGenerator};
use std::sync::OnceLock;

const SF: f64 = 0.005;
const WORKERS: usize = 4;

struct Fixture {
    data: TpchData,
    duck: DuckDb,
    /// `(query id, sql, plan)` for all 22 TPC-H queries.
    plans: Vec<(u32, &'static str, Rel)>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = TpchGenerator::new(SF).generate();
        let mut duck = DuckDb::new();
        for (name, table) in data.tables() {
            duck.create_table(name.clone(), table.clone());
        }
        let plans = queries::all()
            .into_iter()
            .map(|(id, sql)| {
                let plan = duck.plan(sql).unwrap_or_else(|e| panic!("Q{id} plan: {e}"));
                (id, sql, plan)
            })
            .collect();
        Fixture { data, duck, plans }
    })
}

fn engine(data: &TpchData) -> SiriusEngine {
    let e = SiriusEngine::from_config(EngineConfig {
        workers: WORKERS,
        ..EngineConfig::new(hw::gh200_gpu())
    });
    for (name, table) in data.tables() {
        e.load_table(name.clone(), table);
    }
    e.device().reset();
    e
}

fn planner(adaptive: bool) -> CachingPlanner {
    CachingPlanner::new(
        fixture().duck.binder_catalog().clone(),
        JoinOrderPolicy::Optimized,
    )
    .with_adaptive(adaptive)
}

/// Drive a compiled query to completion on `e`.
fn run_compiled(e: &SiriusEngine, compiled: &sirius_core::CompiledQuery) -> sirius_columnar::Table {
    let mut run = e.begin_compiled(compiled).expect("begin_compiled");
    while !run.is_done() {
        e.step(&mut run, usize::MAX).expect("step");
    }
    run.into_table().expect("completed run has a result")
}

#[test]
fn cached_execution_equals_fresh_for_all_queries() {
    let fix = fixture();
    let e = engine(&fix.data);
    for (id, _, plan) in &fix.plans {
        let fresh = e.execute(plan).unwrap_or_else(|err| panic!("Q{id}: {err}"));
        let compiled = e.compile_query(plan).unwrap();
        // Start the same artifact twice: cached plans are reusable.
        for round in 0..2 {
            let cached = run_compiled(&e, &compiled);
            assert_eq!(
                fresh, cached,
                "Q{id} round {round}: cached result differs from fresh"
            );
        }
    }
}

#[test]
fn feedback_replans_stay_exact_for_all_queries() {
    let fix = fixture();
    // Every run keeps operator stats, so completed runs can feed back.
    let e = engine(&fix.data);
    let p = planner(true);
    let baseline = engine(&fix.data);
    for (id, sql, plan) in &fix.plans {
        let expect = baseline
            .execute(plan)
            .unwrap_or_else(|err| panic!("Q{id}: {err}"));
        // First resolution plans from estimates; run it and feed back.
        let first = p
            .resolve(sql, &e)
            .unwrap_or_else(|err| panic!("Q{id}: {err}"));
        assert!(first.planned, "Q{id}: first resolution must plan");
        let r1 = run_compiled(&e, &first.compiled);
        assert_tables_equivalent(&format!("Q{id} estimate-only"), &expect, &r1);
        p.observe(first.shape, first.compiled.root(), &e.operator_stats());
        // Second resolution may re-optimize with actuals (a counted
        // re-plan when the plan changes); results must not move.
        let second = p
            .resolve(sql, &e)
            .unwrap_or_else(|err| panic!("Q{id}: {err}"));
        let r2 = run_compiled(&e, &second.compiled);
        assert_tables_equivalent(&format!("Q{id} post-feedback"), &expect, &r2);
    }
    // Feedback actually flowed: shapes were recorded, and at least one
    // query's plan changed under observed cardinalities.
    assert!(p.feedback().shapes() > 0, "no feedback recorded");
    assert!(
        p.cache_stats().replans > 0,
        "observed actuals never changed any plan — feedback loop is dead"
    );
}

#[test]
fn serve_trace_is_bit_identical_with_cache_on_and_off() {
    let fix = fixture();
    let trace = poisson_trace(&ArrivalSpec {
        seed: 42,
        rate_qps: 2_000.0,
        count: 30,
        tenants: vec![
            TenantSpec {
                name: "a".into(),
                weight: 2,
            },
            TenantSpec {
                name: "b".into(),
                weight: 1,
            },
        ],
        queries: fix.plans.len(),
    });
    let requests = |with_sql: bool| -> Vec<QueryRequest> {
        trace
            .iter()
            .map(|a| {
                let (_, sql, plan) = &fix.plans[a.query_index];
                let mut r = match with_sql {
                    true => QueryRequest::from_sql(a.id, a.tenant, a.arrival, *sql),
                    false => QueryRequest::new(a.id, a.tenant, a.arrival, plan.clone()),
                };
                r.priority = a.priority;
                r
            })
            .collect()
    };
    let plain = SiriusServer::new(engine(&fix.data), ServeConfig::default());
    let off = plain.replay(requests(false));
    // Cache on, feedback off: planning is skipped, execution identical.
    let cached =
        SiriusServer::new(engine(&fix.data), ServeConfig::default()).with_planner(planner(false));
    let on = cached.replay(requests(true));

    assert_eq!(off.admission_order, on.admission_order, "admission order");
    assert_eq!(off.waves, on.waves, "wave count");
    assert_eq!(off.makespan, on.makespan, "makespan");
    assert_eq!(off.queries.len(), on.queries.len());
    for (a, b) in off.queries.iter().zip(on.queries.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.disposition, b.disposition, "query {}", a.id);
        assert_eq!(a.completed, b.completed, "query {} completion", a.id);
        assert_eq!(
            a.report.breakdown, b.report.breakdown,
            "query {} ledger",
            a.id
        );
        match (&a.result, &b.result) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "query {} result", a.id),
            (Err(_), Err(_)) => {}
            _ => panic!("query {}: result kind diverged", a.id),
        }
    }
    // And the cache really served the repeats.
    let p = cached.planner().unwrap();
    assert!(p.cache_stats().hits > 0, "no cache hits across 30 arrivals");
    assert!(
        p.planning_phases() < trace.len() as u64,
        "every admission planned — cache never engaged"
    );
}

#[test]
fn tiny_cache_evicts_but_stays_correct() {
    let fix = fixture();
    let e = engine(&fix.data);
    let p = planner(false).with_capacity(2);
    let baseline = engine(&fix.data);
    // Round-robin more shapes than the cache holds, twice, so refills
    // after eviction are exercised too.
    let subset: Vec<_> = fix.plans.iter().take(5).collect();
    for round in 0..2 {
        for (id, sql, plan) in &subset {
            let expect = baseline
                .execute(plan)
                .unwrap_or_else(|err| panic!("Q{id}: {err}"));
            let resolved = p.resolve(sql, &e).unwrap();
            let got = run_compiled(&e, &resolved.compiled);
            assert_eq!(expect, got, "Q{id} round {round} under eviction pressure");
        }
    }
    let stats = p.cache_stats();
    assert!(
        stats.evictions > 0,
        "5 shapes through a 2-entry cache must evict"
    );
    assert!(stats.entries <= 2, "capacity must hold");
}

#[test]
fn repeated_sql_plans_exactly_once() {
    let fix = fixture();
    let e = engine(&fix.data);
    let p = planner(false);
    let (_, sql, _) = &fix.plans[0];
    for i in 0..10 {
        let r = p.resolve(sql, &e).unwrap();
        assert_eq!(r.planned, i == 0, "iteration {i}");
    }
    assert_eq!(p.planning_phases(), 1, "only the first admission plans");
    assert_eq!(p.cache_stats().hits, 9);
}
