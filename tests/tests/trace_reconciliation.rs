//! Tracing is an observer, not a participant: for every TPC-H query the
//! recorded trace must replay to the device ledger nanosecond-exact, every
//! kernel event must carry its kernel's own name rather than its category's,
//! the Chrome export must be structurally valid, the EXPLAIN ANALYZE root
//! cardinality must equal the actual result cardinality, running with
//! tracing off must (a) record nothing and (b) charge the identical
//! simulated time, and running the query again must record the same trace
//! and the same EXPLAIN ANALYZE. All of it holds on the default engine and
//! on one cutting every sizable pipeline into many 1 024-row morsel tasks
//! over 2 workers, where tasks share each stream lane.
//!
//! Operator stats are one path, traced or not: a traced and an untraced run
//! of every query keep the same per-operator stats and record the same
//! feedback.

use sirius_core::{EngineConfig, FeedbackStore, OpStats, SiriusEngine};
use sirius_duckdb::DuckDb;
use sirius_hw::{catalog as hw, CostCategory, TimeBreakdown, TraceConfig};
use sirius_plan::Rel;
use sirius_tpch::{queries, TpchData, TpchGenerator};
use sirius_trace::{chrome, EventKind, TraceEvent};
use std::collections::{BTreeMap, BTreeSet, HashMap};

const SF: f64 = 0.005;

/// The engine shapes every query runs on: the default, and 1 024-row
/// morsels on 2 workers.
fn configs() -> [EngineConfig; 2] {
    let small_morsels = EngineConfig {
        workers: 2,
        morsel_rows: 1024,
        ..EngineConfig::new(hw::gh200_gpu())
    };
    [EngineConfig::new(hw::gh200_gpu()), small_morsels]
}

fn engine(config: &EngineConfig, trace: TraceConfig, data: &TpchData) -> SiriusEngine {
    let e = SiriusEngine::from_config(EngineConfig {
        trace,
        ..config.clone()
    });
    for (name, table) in data.tables() {
        e.load_table(name.clone(), table);
    }
    e
}

/// What one traced execution left behind.
struct Traced {
    rows: usize,
    ledger: TimeBreakdown,
    events: Vec<TraceEvent>,
    stats: HashMap<u32, OpStats>,
    explain: String,
}

fn traced_run(e: &SiriusEngine, plan: &Rel, what: &str) -> Traced {
    e.device().reset();
    e.trace().clear();
    e.clear_operator_stats();
    let table = e
        .execute(plan)
        .unwrap_or_else(|err| panic!("{what} traced execute: {err}"));
    Traced {
        rows: table.num_rows(),
        ledger: e.device().breakdown(),
        events: e.trace().events(),
        stats: e.operator_stats(),
        explain: e.explain_analyze(plan),
    }
}

/// A run's kernel, sync and span events in sequence order, every field but
/// the sink's global sequence number.
fn timeline(events: &[TraceEvent]) -> Vec<String> {
    let kept = events.iter().filter(|e| e.kind != EventKind::Instant);
    let unnumbered = kept.map(|e| TraceEvent {
        seq: 0,
        ..e.clone()
    });
    unnumbered.map(|e| format!("{e:?}")).collect()
}

#[test]
fn all_queries_reconcile_trace_ledger_and_explain() {
    let data = TpchGenerator::new(SF).generate();
    let mut duck = DuckDb::new();
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
    }
    let known_cats: Vec<&str> = CostCategory::ALL
        .iter()
        .map(|c| c.label())
        .chain(["marker", "op", "lifecycle"])
        .collect();

    for config in configs() {
        let traced = engine(&config, TraceConfig::On, &data);
        let untraced = engine(&config, TraceConfig::Off, &data);
        let shape = format!("{} workers x {} rows", config.workers, config.morsel_rows);
        for (id, sql) in queries::all() {
            let plan = duck.plan(sql).unwrap_or_else(|e| panic!("Q{id} plan: {e}"));
            let what = format!("Q{id} ({shape})");
            let run = traced_run(&traced, &plan, &what);
            let events = &run.events;
            assert!(!events.is_empty(), "{what}: traced run recorded no events");

            // 1. The trace replays to the live ledger, to the nanosecond.
            assert_eq!(
                sirius_hw::ledger::replay(events),
                run.ledger,
                "{what}: trace replay disagrees with the device ledger"
            );

            // 2. Every kernel is named for itself: its category is only its
            // `cat`, never its label.
            let unnamed = events.iter().filter(|e| {
                e.kind == EventKind::Kernel && CostCategory::from_label(&e.label).is_some()
            });
            assert_eq!(
                unnamed.count(),
                0,
                "{what}: a kernel charged without a name"
            );

            // 3. The Chrome export is structurally sound (monotone per-track
            // timestamps, known categories, nonzero durations).
            let json = chrome::export(&format!("Q{id}"), events);
            let n = chrome::validate_json(&json, &known_cats)
                .unwrap_or_else(|v| panic!("{what}: invalid chrome JSON: {v:?}"));
            assert_eq!(n, events.len(), "{what}: export dropped events");

            // 4. EXPLAIN ANALYZE's root operator reports the cardinality the
            // query actually returned.
            let root = run
                .stats
                .get(&0)
                .unwrap_or_else(|| panic!("{what}: no stats for the root operator"));
            assert_eq!(
                root.rows_out, run.rows as u64,
                "{what}: EXPLAIN ANALYZE root cardinality is wrong"
            );
            let rendered = &run.explain;
            assert!(
                rendered.contains(&format!("rows={}", run.rows)),
                "{what}: rendered plan missing the root cardinality:\n{rendered}"
            );

            // 5. Operator ids are consistent end-to-end: runtime stats keys
            // and trace span tracks are pre-order ids over the *normalized*
            // plan (the plan the physical compiler walks), and every stats
            // key shows up as an `[#id]` row in the rendered EXPLAIN ANALYZE.
            let normalized = sirius_plan::normalize::normalize(&plan);
            let node_count = sirius_plan::visit::subtree_size(&normalized);
            for key in run.stats.keys() {
                assert!(
                    *key < node_count,
                    "{what}: stats key {key} is not a valid pre-order id (plan has {node_count} nodes)"
                );
                assert!(
                    rendered.contains(&format!("[#{key}]")),
                    "{what}: stats key {key} has no row in EXPLAIN ANALYZE:\n{rendered}"
                );
            }
            for ev in events {
                if let Some(node) = ev.node {
                    assert!(
                        node < node_count,
                        "{what}: span '{}' tagged with invalid node id {node}",
                        ev.label
                    );
                }
            }

            // 6. Tracing is free: the untraced engine records nothing and
            // charges the identical simulated time.
            untraced.device().reset();
            let untraced_table = untraced
                .execute(&plan)
                .unwrap_or_else(|e| panic!("{what} untraced execute: {e}"));
            assert_eq!(untraced.trace().events_recorded(), 0);
            assert_eq!(
                untraced.device().breakdown(),
                run.ledger,
                "{what}: tracing changed the simulated time"
            );
            assert_eq!(untraced_table.num_rows(), run.rows);

            // 7. The trace is reproducible: a second run records the same
            // kernels, syncs and spans, field for field in sequence order,
            // however the worker threads interleaved, and renders the same
            // EXPLAIN ANALYZE.
            let again = traced_run(&traced, &plan, &what);
            let (first, second) = (timeline(events), timeline(&again.events));
            if first != second {
                let at = first.iter().zip(&second).position(|(a, b)| a != b);
                let pick = |t: &[String]| at.and_then(|i| t.get(i)).cloned();
                panic!(
                    "{what}: the trace moved between runs ({} vs {} events); \
                     first difference at {at:?}:\n  {:?}\n  {:?}",
                    first.len(),
                    second.len(),
                    pick(&first),
                    pick(&second)
                );
            }
            assert_eq!(
                again.explain, run.explain,
                "{what}: EXPLAIN ANALYZE moved between runs"
            );
        }
    }
}

/// FNV-1a of the untraced feedback over both engine shapes and all 22
/// queries, recorded before stats were kept on untraced breakers: keeping
/// them must not move what an untraced run feeds back.
const UNTRACED_FEEDBACK_DIGEST: u64 = 0x0403_6162_dfdd_0431;

/// What one run on a fresh engine keeps of its operators: the stats, and
/// the feedback they record for the query's shape, in key order.
fn observed(
    config: &EngineConfig,
    trace: TraceConfig,
    data: &TpchData,
    plan: &Rel,
    what: &str,
) -> (HashMap<u32, OpStats>, BTreeMap<BTreeSet<String>, f64>) {
    let e = engine(config, trace, data);
    e.execute(plan)
        .unwrap_or_else(|err| panic!("{what} execute: {err}"));
    let stats = e.operator_stats();
    let store = FeedbackStore::new();
    store.record(0, &sirius_plan::normalize::normalize(plan), &stats);
    let feedback = store.snapshot(0).unwrap_or_default();
    (stats, feedback.cardinalities.into_iter().collect())
}

#[test]
fn traced_and_untraced_runs_keep_the_same_stats_and_feedback() {
    let data = TpchGenerator::new(SF).generate();
    let mut duck = DuckDb::new();
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
    }
    let (mut stats_differ, mut feedback_differs) = (Vec::new(), Vec::new());
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for config in configs() {
        let shape = format!("{} workers x {} rows", config.workers, config.morsel_rows);
        for (id, sql) in queries::all() {
            let plan = duck.plan(sql).unwrap_or_else(|e| panic!("Q{id} plan: {e}"));
            let what = format!("Q{id} ({shape})");
            let untraced = observed(&config, TraceConfig::Off, &data, &plan, &what);
            let traced = observed(&config, TraceConfig::On, &data, &plan, &what);
            if untraced.0 != traced.0 {
                stats_differ.push(what.clone());
            }
            if untraced.1 != traced.1 {
                feedback_differs.push(format!("{what}: {:?} vs {:?}", untraced.1, traced.1));
            }
            let line = format!("{what} {:?}\n", untraced.1);
            digest = line.bytes().fold(digest, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        }
    }
    assert!(
        feedback_differs.is_empty(),
        "tracing changed the recorded feedback:\n{}",
        feedback_differs.join("\n")
    );
    assert!(
        stats_differ.is_empty(),
        "tracing changed the operator stats of {stats_differ:?}"
    );
    assert_eq!(
        digest, UNTRACED_FEEDBACK_DIGEST,
        "untraced feedback moved: {digest:#018x}"
    );
}
