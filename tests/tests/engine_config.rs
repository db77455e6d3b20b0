//! An engine is one [`EngineConfig`] value: the surviving shorthands build
//! exactly what the same values written as a config literal build, a served
//! query's view inherits the configuration, and one meter fills every
//! [`sirius_core::QueryReport`].

use sirius_core::{EngineConfig, Scheduling, SiriusEngine};
use sirius_duckdb::DuckDb;
use sirius_hw::{catalog as hw, FaultInjector, FaultPlan, Link, TraceConfig};
use sirius_plan::Rel;
use sirius_tpch::{queries, TpchData, TpchGenerator};

const SF: f64 = 0.01;

/// The generated tables and DuckDB's plans for the queries numbered `ids`.
fn fixture(ids: &[u32]) -> (TpchData, Vec<(u32, Rel)>) {
    let data = TpchGenerator::new(SF).generate();
    let mut duck = DuckDb::new();
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
    }
    let plan = |(id, sql)| (id, duck.plan(sql).unwrap_or_else(|e| panic!("Q{id}: {e}")));
    let picked = queries::all()
        .into_iter()
        .filter(|(id, _)| ids.contains(id));
    let plans = picked.map(plan).collect();
    (data, plans)
}

fn loaded(engine: SiriusEngine, data: &TpchData) -> SiriusEngine {
    for (name, table) in data.tables() {
        engine.load_table(name.clone(), table);
    }
    engine.device().reset();
    engine
}

/// `from_config(EngineConfig::new(spec))` is `SiriusEngine::new(spec)`, and
/// the `with_link` / `with_morsel_rows` / `with_trace` chain is the same
/// three values written as a config literal: equal results, equal ledgers
/// and equal scheduler counters on Q1, Q3 and Q18.
#[test]
fn shorthands_and_config_literals_build_the_same_engine() {
    let (data, plans) = fixture(&[1, 3, 18]);
    let pairs = [
        (
            SiriusEngine::new(hw::gh200_gpu()),
            SiriusEngine::from_config(EngineConfig::new(hw::gh200_gpu())),
        ),
        (
            SiriusEngine::with_link(hw::a100_40gb(), Link::new(hw::pcie4_x16()), 3)
                .with_morsel_rows(8192)
                .with_trace(TraceConfig::On),
            SiriusEngine::from_config(EngineConfig {
                host_link: hw::pcie4_x16(),
                workers: 3,
                morsel_rows: 8192,
                trace: TraceConfig::On,
                ..EngineConfig::new(hw::a100_40gb())
            }),
        ),
    ];
    for (shorthand, literal) in pairs {
        assert_eq!(
            format!("{:?}", shorthand.config()),
            format!("{:?}", literal.config())
        );
        let (shorthand, literal) = (loaded(shorthand, &data), loaded(literal, &data));
        for (id, plan) in &plans {
            let a = shorthand
                .execute(plan)
                .unwrap_or_else(|e| panic!("Q{id}: {e}"));
            let b = literal
                .execute(plan)
                .unwrap_or_else(|e| panic!("Q{id}: {e}"));
            assert_eq!(a, b, "Q{id}: results");
            assert_eq!(
                shorthand.device().breakdown(),
                literal.device().breakdown(),
                "Q{id}: ledger"
            );
            assert_eq!(
                shorthand.morsel_stats(),
                literal.morsel_stats(),
                "Q{id}: scheduler counters"
            );
        }
        assert_eq!(
            shorthand.trace().events_recorded(),
            literal.trace().events_recorded()
        );
    }
}

/// A query view's configuration is the base engine's, field for field,
/// except the one per-request field it was asked for — the property the
/// hand-written copy in `query_view` used to hold by inspection.
#[test]
fn query_view_inherits_the_config_except_trace() {
    let fault = FaultInjector::new(FaultPlan::new(7).transient_wave(5, 0, 2));
    let base = SiriusEngine::from_config(EngineConfig {
        morsel_rows: 4096,
        fusion: false,
        scheduling: Scheduling::Serialized,
        encoded_results: true,
        fault: Some((fault.clone(), 5)),
        ..EngineConfig::new(hw::gh200_gpu())
    });
    for trace in [TraceConfig::Off, TraceConfig::On] {
        let view = base.query_view(trace);
        assert_eq!(view.config().trace, trace);
        assert_eq!(view.trace().enabled(), trace == TraceConfig::On);
        let inherited = EngineConfig {
            trace: base.config().trace,
            ..view.config().clone()
        };
        assert_eq!(
            format!("{inherited:?}"),
            format!("{:?}", base.config()),
            "a view differs from its base in trace only"
        );
        // The armed injector is shared, not copied: a fault the view fires
        // is counted on the handle the base was configured with.
        let (view_fault, node) = view.config().fault.as_ref().expect("inherited injector");
        assert_eq!(*node, 5);
        let before = fault.injected_count();
        assert!(view_fault
            .fire(sirius_hw::FaultSite::WaveDispatch { node: 5 })
            .is_some());
        assert_eq!(fault.injected_count(), before + 1);
    }
}

/// `SiriusEngine::execute_measured`'s report is what the ledger, the morsel
/// scheduler, the spill tiers and the processing pool moved by around the
/// call — the fields the deleted `bench::Run::of` diffed by hand — for Q1
/// with an eighth of the tables' bytes as device memory, so the spill
/// counters are live.
#[test]
fn one_meter_reports_what_the_counters_moved_by() {
    let (data, plans) = fixture(&[1]);
    let table_bytes: u64 = data
        .tables()
        .iter()
        .map(|(_, t)| t.byte_size() as u64)
        .sum();
    let mut tight = EngineConfig::new(hw::gh200_gpu());
    tight.spec.memory_bytes = (table_bytes / 8).max(4096);
    let engine = loaded(SiriusEngine::from_config(tight), &data);

    let ledger = engine.device().breakdown();
    let morsels = engine.morsel_stats();
    let spill = engine.spill_stats();
    let (table, report) = engine.execute_measured(&plans[0].1).expect("Q1");
    let ledger = engine.device().breakdown().since(&ledger);
    let morsels = engine.morsel_stats().since(&morsels);
    // The oracle diffs the engine's lifetime counters itself, so it does
    // not share the meter's arithmetic; one query on a fresh engine makes
    // the lifetime depth this run's.
    #[allow(clippy::disallowed_methods)]
    let spill = engine.spill_stats().since(&spill);
    let pool = engine.buffer_manager().regions().processing().stats();

    assert_eq!(report.rows, table.num_rows());
    assert_eq!(report.breakdown, ledger);
    assert_eq!(report.elapsed, ledger.total());
    assert_eq!(report.pipelines, engine.pipeline_count(&plans[0].1));
    assert_eq!(report.pipelines as u64, morsels.pipelines_run);
    assert_eq!(report.morsels, morsels.morsels);
    assert_eq!(report.tasks, morsels.tasks);
    assert_eq!(report.workers, engine.workers());
    assert_eq!(report.worker_utilization, morsels.worker_utilization());
    assert!(
        spill.bytes_spilled() > 0 && spill.partitions > 0,
        "{spill:?}"
    );
    assert_eq!(report.spilled_pinned_bytes, spill.bytes_to_pinned);
    assert_eq!(report.spilled_disk_bytes, spill.bytes_to_disk);
    assert_eq!(report.spill_partitions, spill.partitions);
    assert_eq!(report.spill_depth, spill.max_depth);
    assert_eq!(report.pool_high_watermark, pool.high_watermark);
    assert_eq!(report.pool_fragmentation, pool.fragmentation());
}
