//! The two resilience loops, pinned decision for decision. Four fixed
//! arrival traces over the 22 TPC-H queries at SF 0.005 replay through
//! `SiriusServer` — fault-free two-tenant 2:1 traffic with mixed
//! priorities; seeded engine-local chaos with retries; deadlines (a zero
//! deadline, one that lapses in the queue, one that lapses mid-flight);
//! tight memory budgets under a shedding threshold low enough to shed —
//! and a 3-node `SiriusGpu` cluster runs Q1/Q3/Q6 under seeded chaos
//! (the seeds whose recovery does not depend on thread timing). The
//! admission order, wave count, clock, watermarks, every request's
//! terminal record and the rendered metrics must equal the committed
//! snapshot exactly. The equivalence suites (`concurrent_serving`,
//! `chaos_serving`, `chaos_equivalence`) prove results and accounting
//! agree *with each other*; nothing else pins the schedule itself.
//!
//! After an intended scheduling or recovery-policy change, regenerate
//! with `cargo test -p sirius-integration --test serve_snapshot --
//! --ignored`.

use sirius_core::{EngineConfig, SiriusEngine};
use sirius_doris::{ClusterConfig, DorisCluster, NodeEngineKind, PartitionScheme};
use sirius_duckdb::DuckDb;
use sirius_hw::{catalog as hw, FaultInjector, FaultPlan};
use sirius_integration::{assert_matches_snapshot, snapshot_path};
use sirius_plan::Rel;
use sirius_serve::{
    poisson_trace, ArrivalSpec, CachingPlanner, QueryRequest, ServeConfig, ServeOutcome,
    SiriusServer, TenantSpec,
};
use sirius_sql::JoinOrderPolicy;
use sirius_tpch::{queries, TpchData, TpchGenerator};
use sirius_trace::metrics::MetricsRegistry;
use std::fmt::Write as _;
use std::time::Duration;

const SNAPSHOT: &str = "serve_sf0.005.txt";
const SF: f64 = 0.005;
const WORKERS: usize = 4;

struct Fixture {
    data: TpchData,
    duck: DuckDb,
    /// `(sql, plan)` for the 22 TPC-H queries, in query order.
    mix: Vec<(&'static str, Rel)>,
}

fn fixture() -> Fixture {
    let data = TpchGenerator::new(SF).generate();
    let mut duck = DuckDb::new();
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
    }
    let mix = queries::all()
        .into_iter()
        .map(|(id, sql)| {
            let plan = duck.plan(sql).unwrap_or_else(|e| panic!("Q{id} plan: {e}"));
            (sql, plan)
        })
        .collect();
    Fixture { data, duck, mix }
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

/// A seeded two-tenant (2:1) Poisson trace over the mix; every third
/// request carries its SQL text so the planner path is on the schedule.
fn arrivals(fix: &Fixture, seed: u64, count: usize, rate_qps: f64) -> Vec<QueryRequest> {
    let spec = ArrivalSpec {
        seed,
        rate_qps,
        count,
        tenants: vec![TenantSpec::new("a", 2), TenantSpec::new("b", 1)],
        queries: fix.mix.len(),
    };
    poisson_trace(&spec)
        .into_iter()
        .map(|a| {
            let (sql, plan) = &fix.mix[a.query_index];
            let mut r = match a.id % 3 {
                0 => QueryRequest::from_sql(a.id, a.tenant, a.arrival, *sql),
                _ => QueryRequest::new(a.id, a.tenant, a.arrival, plan.clone()),
            };
            r.priority = a.priority;
            r
        })
        .collect()
}

fn server(
    fix: &Fixture,
    base: SiriusEngine,
    config: ServeConfig,
) -> (SiriusServer, MetricsRegistry) {
    let metrics = MetricsRegistry::new();
    let planner = CachingPlanner::new(
        fix.duck.binder_catalog().clone(),
        JoinOrderPolicy::Optimized,
    );
    let srv = SiriusServer::new(base, config)
        .with_metrics(metrics.clone())
        .with_planner(planner);
    (srv, metrics)
}

fn ids(v: &[u64]) -> String {
    let parts: Vec<String> = v.iter().map(u64::to_string).collect();
    format!("[{}]", parts.join(","))
}

/// One section per trace: the schedule, the clock, one line per finished
/// request, then the registry as Prometheus text.
fn render_outcome(out: &mut String, name: &str, o: &ServeOutcome, metrics: &MetricsRegistry) {
    writeln!(out, "== {name}").unwrap();
    writeln!(out, "admission_order={}", ids(&o.admission_order)).unwrap();
    writeln!(
        out,
        "waves={} deadlocks={} makespan={} peak_in_flight={} max_queue_depth={}",
        o.waves,
        o.deadlocks,
        o.makespan.as_nanos(),
        o.peak_in_flight,
        o.max_queue_depth
    )
    .unwrap();
    writeln!(out, "shed={} rejected={}", ids(&o.shed), ids(&o.rejected)).unwrap();
    for q in &o.queries {
        writeln!(
            out,
            "query id={} {} retries={} admitted={} completed={} rows={} elapsed={}",
            q.id,
            q.disposition.as_str(),
            q.retries,
            q.admitted.as_nanos(),
            q.completed.as_nanos(),
            q.report.rows,
            q.report.elapsed.as_nanos()
        )
        .unwrap();
    }
    out.push_str(&metrics.render());
}

/// Fault-free, two tenants weighted 2:1, priorities 0..=3, arrivals fast
/// enough that the queue fills and backpressure rejects.
fn fair_trace(fix: &Fixture, out: &mut String) {
    let (srv, metrics) = server(
        fix,
        engine(&fix.data),
        ServeConfig {
            max_in_flight: 3,
            queue_depth: 12,
            tenant_weights: vec![2, 1],
            ..Default::default()
        },
    );
    let o = srv.replay(arrivals(fix, 11, 48, 60_000.0));
    render_outcome(out, "fair", &o, &metrics);
}

/// Engine-local chaos on the shared engine under the default retry
/// policy; every other request is budgeted so spill-I/O faults and grant
/// storms have traffic to land on, and every fifth must finish within
/// 400 µs of arriving so a backed-off retry can outlive its deadline.
fn chaos_trace(fix: &Fixture, name: &str, arrival_seed: u64, plan: FaultPlan, out: &mut String) {
    let base = engine_under(&fix.data, Some(plan));
    let (srv, metrics) = server(
        fix,
        base,
        ServeConfig {
            max_in_flight: 3,
            tenant_weights: vec![2, 1],
            ..Default::default()
        },
    );
    let mut reqs = arrivals(fix, arrival_seed, 20, 30_000.0);
    for r in &mut reqs {
        if r.id % 2 == 1 {
            r.memory_budget = Some(8 << 20);
        }
        if r.id % 5 == 4 {
            r.deadline = Some(r.arrival + Duration::from_micros(400));
        }
    }
    let o = srv.replay(reqs);
    render_outcome(out, name, &o, &metrics);
}

/// Deadlines: request 0 is dead on arrival, every fourth request must
/// finish within 150 µs of arriving (some lapse waiting, some mid-flight,
/// some make it), and a SQL-only request for a table that does not exist
/// fails at admission without ever holding a slot.
fn deadline_trace(fix: &Fixture, out: &mut String) {
    let (srv, metrics) = server(
        fix,
        engine(&fix.data),
        ServeConfig {
            max_in_flight: 2,
            tenant_weights: vec![2, 1],
            ..Default::default()
        },
    );
    let mut reqs = arrivals(fix, 23, 24, 40_000.0);
    reqs[0].deadline = Some(Duration::ZERO);
    for r in reqs.iter_mut().skip(1).filter(|r| r.id % 4 == 1) {
        r.deadline = Some(r.arrival + Duration::from_micros(150));
    }
    reqs.push(QueryRequest::from_sql(
        99,
        1,
        Duration::from_micros(5),
        "select x from no_such_table",
    ));
    let o = srv.replay(reqs);
    render_outcome(out, "deadlines", &o, &metrics);
}

/// Memory pressure: 64 KiB budgets deny grants on every grouped or joined
/// query, and a shedding threshold of 5 % turns those denials into shed
/// waiting requests. `uniform` flattens priorities so the victim choice
/// falls through to the later-arriving half.
fn pressure_trace(fix: &Fixture, uniform: bool, out: &mut String) {
    let (srv, metrics) = server(
        fix,
        engine(&fix.data),
        ServeConfig {
            max_in_flight: 2,
            queue_depth: 16,
            tenant_weights: vec![2, 1],
            shed_pressure: 0.05,
            ..Default::default()
        },
    );
    let mut reqs = arrivals(fix, 37, 32, 50_000.0);
    for r in &mut reqs {
        if r.id % 3 != 2 {
            r.memory_budget = Some(64 << 10);
        }
        if uniform {
            r.priority = 1;
        }
    }
    let o = srv.replay(reqs);
    let name = if uniform {
        "pressure uniform-priority"
    } else {
        "pressure mixed-priority"
    };
    render_outcome(out, name, &o, &metrics);
}

/// Q1/Q3/Q6 on a 3-node GPU cluster under the seeded chaos plan: what the
/// coordinator's recovery ladder did and what it charged.
fn cluster_trace(fix: &Fixture, seed: u64, out: &mut String) {
    let config = ClusterConfig::default().with_fault_plan(FaultPlan::seeded_chaos(seed, 3));
    let mut c = DorisCluster::with_config(
        3,
        NodeEngineKind::SiriusGpu,
        PartitionScheme::tpch_default(),
        config,
    );
    for (name, table) in fix.data.tables() {
        c.create_table(name.clone(), table.clone()).unwrap();
    }
    c.reset_ledgers();
    writeln!(out, "== cluster seed={seed}").unwrap();
    for q in [1usize, 3, 6] {
        match c.sql(fix.mix[q - 1].0) {
            Ok(o) => {
                let per_node: Vec<String> = o
                    .per_node
                    .iter()
                    .map(|b| b.total().as_nanos().to_string())
                    .collect();
                writeln!(
                    out,
                    "Q{q} rows={} coordinator={} per_node=[{}] {:?}",
                    o.table.num_rows(),
                    o.coordinator.as_nanos(),
                    per_node.join(","),
                    o.recovery
                )
                .unwrap();
            }
            Err(e) => writeln!(out, "Q{q} error: {e}").unwrap(),
        }
    }
    writeln!(
        out,
        "world={} temp_tables_live={}",
        c.world(),
        c.temp_tables_live()
    )
    .unwrap();
}

fn render() -> String {
    let fix = fixture();
    let mut out = String::new();
    fair_trace(&fix, &mut out);
    for seed in 1..=3 {
        let plan = FaultPlan::seeded_chaos_local(seed, 0);
        chaos_trace(
            &fix,
            &format!("chaos seed={seed}"),
            100 + seed,
            plan,
            &mut out,
        );
    }
    // More transient faults than two retries per request can absorb, on
    // both the begin and the wave site: retries exhaust into failures.
    let storm = FaultPlan::new(9)
        .transient_device(0, 1, 6)
        .transient_wave(0, 2, 40);
    chaos_trace(&fix, "chaos exhausting", 109, storm, &mut out);
    deadline_trace(&fix, &mut out);
    pressure_trace(&fix, false, &mut out);
    pressure_trace(&fix, true, &mut out);
    // Seeds whose faults all fire before any point that looks at the
    // cancel token, so the attempt each lands in does not depend on thread
    // timing (seed 1 arms two nodes whose second launches race the cancel:
    // 2 or 3 retries from run to run). 2: link delays; 3: a mid-fragment
    // crash beside a transient launch fault; 6 and 8: launch faults on
    // one node across one and three attempts.
    for seed in [2, 3, 6, 8] {
        cluster_trace(&fix, seed, &mut out);
    }
    out
}

#[test]
fn serving_and_recovery_match_committed_snapshot() {
    assert_matches_snapshot(SNAPSHOT, &render());
}

#[test]
#[ignore = "rewrites the committed snapshot"]
fn regenerate_snapshot() {
    std::fs::write(snapshot_path(SNAPSHOT), render()).unwrap();
}
