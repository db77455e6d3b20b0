//! Property: data-path fusion is invisible in results and strictly cheaper
//! in memory traffic. For every TPC-H query, execution with fusion enabled
//! must produce exactly the table the unfused per-operator path produces
//! (floats at 1e-9 relative, row order ignored), at every morsel size and
//! worker count — and on queries whose pipelines carry fusable runs of two
//! or more streaming ops, the fused run must move strictly fewer bytes
//! through the ledger (one source read + one sink write per segment,
//! instead of per-stage materialization).

use proptest::prelude::*;
use sirius_columnar::Table;
use sirius_core::physical::{compile, fuse, PhysOp};
use sirius_core::{EngineConfig, SiriusEngine};
use sirius_duckdb::DuckDb;
use sirius_hw::{catalog, TraceConfig};
use sirius_integration::assert_tables_equivalent;
use sirius_plan::Rel;
use sirius_tpch::{queries, TpchData, TpchGenerator};
use sirius_trace::EventKind;
use std::sync::OnceLock;

const SF: f64 = 0.001;

/// Morsel sizes worth probing: degenerate single-row morsels, sizes that
/// leave remainders, powers of two, and sizes larger than every table at
/// this SF (the single-walk executor).
const MORSEL_SIZES: [usize; 6] = [1, 97, 1_000, 4_096, 1_000_000, usize::MAX];

struct Fixture {
    data: TpchData,
    plans: Vec<(u32, Rel)>,
    expected: Vec<Table>,
}

/// Generated data, the 22 planned queries, and unfused reference results —
/// built once, shared by every proptest case.
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
        let reference = engine(&data, 1, usize::MAX, false);
        let expected = plans
            .iter()
            .map(|(id, p)| {
                reference
                    .execute(p)
                    .unwrap_or_else(|e| panic!("Q{id} unfused reference: {e}"))
            })
            .collect();
        Fixture {
            data,
            plans,
            expected,
        }
    })
}

fn engine(data: &TpchData, workers: usize, morsel_rows: usize, fusion: bool) -> SiriusEngine {
    let e = SiriusEngine::from_config(EngineConfig {
        workers,
        morsel_rows,
        fusion,
        ..EngineConfig::new(catalog::gh200_gpu())
    });
    for (name, table) in data.tables() {
        e.load_table(name.clone(), table);
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fusion_is_invisible_across_tpch(
        size_idx in 0usize..MORSEL_SIZES.len(),
        workers in 1usize..5,
    ) {
        let fix = fixture();
        let morsel_rows = MORSEL_SIZES[size_idx];
        let e = engine(&fix.data, workers, morsel_rows, true);
        for ((id, plan), expected) in fix.plans.iter().zip(&fix.expected) {
            let out = e.execute(plan)
                .unwrap_or_else(|err| panic!("Q{id} fused run: {err}"));
            assert_tables_equivalent(
                &format!("Q{id} fused morsel_rows={morsel_rows} workers={workers}"),
                &out,
                expected,
            );
        }
    }
}

/// Bytes charged to the ledger by one traced execution (kernel events only:
/// spans are annotations, not charges).
fn kernel_bytes(engine: &SiriusEngine, plan: &Rel) -> (u64, bool) {
    engine.device().reset();
    engine.trace().clear();
    engine.clear_operator_stats();
    engine.execute(plan).expect("traced execute");
    let events = engine.trace().events();
    let bytes = events
        .iter()
        .filter(|e| e.kind == EventKind::Kernel)
        .map(|e| e.bytes)
        .sum();
    let saw_fused = events.iter().any(|e| e.label.starts_with("fused["));
    (bytes, saw_fused)
}

/// On every query whose compiled pipelines contain a fusable run of ≥ 2
/// streaming ops, the fused execution moves strictly fewer bytes than the
/// unfused one; on the rest, exactly the same bytes. Fused kernel events
/// appear iff segments were compiled.
#[test]
fn fusion_strictly_reduces_bytes_on_multi_op_pipelines() {
    let fix = fixture();
    let fused =
        engine(&fix.data, 4, sirius_core::DEFAULT_MORSEL_ROWS, true).with_trace(TraceConfig::On);
    let unfused =
        engine(&fix.data, 4, sirius_core::DEFAULT_MORSEL_ROWS, false).with_trace(TraceConfig::On);

    let mut queries_with_segments = 0usize;
    for (id, plan) in &fix.plans {
        let mut phys = compile(plan).unwrap();
        fuse(&mut phys);
        let segments = phys
            .pipelines
            .iter()
            .flat_map(|p| &p.ops)
            .filter(|op| matches!(op, PhysOp::Fused(_)))
            .count();

        let (fused_bytes, saw_fused) = kernel_bytes(&fused, plan);
        let (unfused_bytes, saw_unfused) = kernel_bytes(&unfused, plan);
        assert!(!saw_unfused, "Q{id}: unfused run emitted a fused kernel");
        assert_eq!(
            saw_fused,
            segments > 0,
            "Q{id}: fused kernel events disagree with compiled segments"
        );
        if segments > 0 {
            queries_with_segments += 1;
            assert!(
                fused_bytes < unfused_bytes,
                "Q{id}: fusion did not reduce bytes ({fused_bytes} vs {unfused_bytes})"
            );
        } else {
            assert_eq!(
                fused_bytes, unfused_bytes,
                "Q{id}: no segments, but byte totals differ"
            );
        }
    }
    assert!(
        queries_with_segments >= 10,
        "only {queries_with_segments} of 22 queries compiled fused segments"
    );
}
