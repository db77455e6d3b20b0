//! The out-of-core serial lane, pinned event by event. `ledger_snapshot`
//! pins category totals, which any reordering of the same charges keeps;
//! this pins the order. For the 22 TPC-H queries at SF 0.01 with device
//! memory at ⅛ of the table bytes (Grace joins, spilling and chunked
//! group-by), 16 384-row morsels, 2 workers and tracing on, each query
//! renders:
//! - its serial lane's kernel events in order — category, label, start,
//!   duration, bytes, rows — as a count and a 64-bit digest, and in full
//!   for Q9, Q10 and Q13;
//! - each stream lane's kernel events in order, with start times, in full
//!   (morsel tasks charge recorders replayed onto their lanes in task order,
//!   so which worker thread ran which morsel does not show);
//! - its operator spans;
//! - its `EXPLAIN ANALYZE` text.
//!
//! Every kernel event must carry its kernel's own name, never its category's.
//!
//! After an intended cost-model or scheduling change, regenerate with
//! `cargo test -p sirius-integration --test spill_lane_snapshot -- --ignored`.

use sirius_core::{EngineConfig, SiriusEngine};
use sirius_duckdb::DuckDb;
use sirius_hw::{catalog, CostCategory, TraceConfig};
use sirius_integration::{assert_matches_snapshot, snapshot_path};
use sirius_tpch::{queries, TpchGenerator};
use sirius_trace::{EventKind, Lane, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const SNAPSHOT: &str = "spill_lane_sf0.01.txt";
const SF: f64 = 0.01;
const WORKERS: usize = 2;
const MORSEL_ROWS: usize = 16_384;
/// Queries whose serial lane is rendered in full, not only digested.
const IN_FULL: [u32; 3] = [9, 10, 13];

/// 64-bit FNV-1a over `lines`, each terminated by a newline.
fn digest<'a>(lines: impl IntoIterator<Item = &'a String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn kernel(e: &TraceEvent) -> String {
    format!(
        "{} {} ts={} dur={} bytes={} rows={}",
        e.cat, e.label, e.ts, e.dur, e.bytes, e.rows
    )
}

/// One query's block.
fn render_query(out: &mut String, id: u32, events: &[TraceEvent], explain: &str) {
    let kernels = events.iter().filter(|e| e.kind == EventKind::Kernel);
    let serial: Vec<String> = (kernels.clone())
        .filter(|e| e.lane == Lane::Serial)
        .map(kernel)
        .collect();
    writeln!(
        out,
        "Q{id} serial kernels={} digest={:016x}",
        serial.len(),
        digest(&serial)
    )
    .unwrap();
    if IN_FULL.contains(&id) {
        for line in &serial {
            writeln!(out, "  {line}").unwrap();
        }
    }
    let mut streams: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for e in kernels {
        if let Lane::Stream(s) = e.lane {
            streams.entry(s).or_default().push(kernel(e));
        }
    }
    for (s, lines) in streams {
        writeln!(out, "  stream {s} kernels={}", lines.len()).unwrap();
        for line in &lines {
            writeln!(out, "    {line}").unwrap();
        }
    }
    for e in events.iter().filter(|e| e.kind == EventKind::Span) {
        writeln!(
            out,
            "  span {} #{} ts={} dur={} bytes={} rows={}",
            e.label,
            e.node.unwrap_or(u32::MAX),
            e.ts,
            e.dur,
            e.bytes,
            e.rows
        )
        .unwrap();
    }
    for line in explain.lines() {
        writeln!(out, "  | {line}").unwrap();
    }
}

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
    let mut config = EngineConfig {
        workers: WORKERS,
        morsel_rows: MORSEL_ROWS,
        trace: TraceConfig::On,
        ..EngineConfig::new(catalog::gh200_gpu())
    };
    config.spec.memory_bytes = (table_bytes / 8).max(4096);
    let e = SiriusEngine::from_config(config);
    for (name, table) in data.tables() {
        e.load_table(name.clone(), table);
    }
    let mut out = String::new();
    for (id, sql) in queries::all() {
        let plan = duck.plan(sql).unwrap_or_else(|err| panic!("Q{id}: {err}"));
        e.device().reset();
        e.trace().clear();
        e.execute(&plan)
            .unwrap_or_else(|err| panic!("Q{id} at 1/8 memory: {err}"));
        let events = e.trace().events();
        let unnamed = events.iter().filter(|ev| {
            ev.kind == EventKind::Kernel && CostCategory::from_label(&ev.label).is_some()
        });
        assert_eq!(unnamed.count(), 0, "Q{id}: a kernel charged without a name");
        render_query(&mut out, id, &events, &e.explain_analyze(&plan));
    }
    out
}

#[test]
fn spill_lane_matches_committed_snapshot() {
    assert_matches_snapshot(SNAPSHOT, &render());
}

#[test]
#[ignore = "rewrites the committed snapshot"]
fn regenerate_snapshot() {
    std::fs::write(snapshot_path(SNAPSHOT), render()).unwrap();
}
