//! The simulated ledger, pinned digit for digit. For the 22 TPC-H queries
//! at SF 0.01 under the default engine, fusion off, serialized pipeline
//! scheduling, and device memory at ⅛ of the table bytes, the per-category
//! nanoseconds, their total, and the morsel-scheduler counters must equal
//! the committed snapshot exactly. The other suites prove runs agree with
//! *each other* (`trace_reconciliation`: replay == breakdown; the
//! equivalence suites: same result tables); nothing else pins absolute
//! ledger values, and the benchmark never runs the fusion-off or
//! serialized paths.
//!
//! After an intended cost-model change, regenerate with
//! `cargo test -p sirius-integration --test ledger_snapshot -- --ignored`.

use sirius_core::{EngineConfig, Scheduling, SiriusEngine};
use sirius_duckdb::DuckDb;
use sirius_hw::{catalog, CostCategory};
use sirius_integration::{assert_matches_snapshot, snapshot_path};
use sirius_tpch::{queries, TpchData, TpchGenerator};
use std::fmt::Write as _;

const SNAPSHOT: &str = "ledger_sf0.01.txt";
const SF: f64 = 0.01;
const WORKERS: usize = 2;
/// Cuts SF 0.01 lineitem (~60k rows) into four morsels.
const MORSEL_ROWS: usize = 16_384;

fn config(device_bytes: u64) -> EngineConfig {
    let mut config = EngineConfig {
        workers: WORKERS,
        morsel_rows: MORSEL_ROWS,
        ..EngineConfig::new(catalog::gh200_gpu())
    };
    config.spec.memory_bytes = device_bytes;
    config
}

fn engine(data: &TpchData, config: EngineConfig) -> SiriusEngine {
    let e = SiriusEngine::from_config(config);
    for (name, table) in data.tables() {
        e.load_table(name.clone(), table);
    }
    e
}

/// One line per (configuration, query): every category's nanoseconds, the
/// total, and the scheduler counters, as deltas over the query.
fn render() -> String {
    let data = TpchGenerator::new(SF).generate();
    let table_bytes: u64 = data
        .tables()
        .iter()
        .map(|(_, t)| t.byte_size() as u64)
        .sum();
    let mut duck = DuckDb::new();
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
    }
    let full = catalog::gh200_gpu().memory_bytes;
    let configs: [(&str, EngineConfig); 4] = [
        ("default", config(full)),
        (
            "fusion_off",
            EngineConfig {
                fusion: false,
                ..config(full)
            },
        ),
        (
            "serialized",
            EngineConfig {
                scheduling: Scheduling::Serialized,
                ..config(full)
            },
        ),
        ("memory_eighth", config((table_bytes / 8).max(4096))),
    ];
    let mut out = String::new();
    for (name, config) in configs {
        let e = engine(&data, config);
        for (id, sql) in queries::all() {
            let plan = duck.plan(sql).unwrap_or_else(|err| panic!("Q{id}: {err}"));
            let ledger0 = e.device().breakdown();
            let stats0 = e.morsel_stats();
            e.execute(&plan)
                .unwrap_or_else(|err| panic!("{name} Q{id}: {err}"));
            let ledger = e.device().breakdown().since(&ledger0);
            let stats = e.morsel_stats().since(&stats0);
            write!(out, "{name} Q{id}").unwrap();
            for c in CostCategory::ALL {
                write!(out, " {}={}", c.label(), ledger.get(c).as_nanos()).unwrap();
            }
            writeln!(
                out,
                " total={} morsels={} tasks={} pipelines_run={}",
                ledger.total().as_nanos(),
                stats.morsels,
                stats.tasks,
                stats.pipelines_run
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn ledger_matches_committed_snapshot() {
    assert_matches_snapshot(SNAPSHOT, &render());
}

#[test]
#[ignore = "rewrites the committed snapshot"]
fn regenerate_snapshot() {
    std::fs::write(snapshot_path(SNAPSHOT), render()).unwrap();
}
