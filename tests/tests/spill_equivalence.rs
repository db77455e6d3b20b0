//! Property: out-of-core execution is invisible. For every TPC-H query,
//! shrinking the device-memory budget below the working set — forcing
//! Grace-partitioned joins, spilling group-by, and external sorts — must
//! produce exactly the table the full-memory engine produces (floats at
//! 1e-9 relative, row order ignored), with zero host fallbacks, under every
//! fan-out shape: 64-row morsels cut partitions into many windows for the
//! partitioner's jobs, and a one-worker pool runs every leaf batch on the
//! caller and one worker.
//!
//! No TPC-H query sorts more than a few rows, so the fixture adds one total
//! order over a large intermediate ([`BIG_SORT`]): at every factor and shape
//! its rows must come back row for row, not as a multiset, and at an eighth
//! of the working set its sort grant is denied and the external sort
//! reports spill partitions.
//!
//! The proptest's fixed seed never draws the eighth, so that factor also
//! runs as its own deterministic test, every query under every shape, with
//! the queries that still run out of memory there named exactly.

use proptest::prelude::*;
use sirius_columnar::Table;
use sirius_core::{EngineConfig, SiriusEngine, SiriusError, DEFAULT_MORSEL_ROWS};
use sirius_duckdb::DuckDb;
use sirius_hw::catalog;
use sirius_integration::assert_tables_equivalent;
use sirius_plan::Rel;
use sirius_tpch::{queries, TpchData, TpchGenerator};
use std::sync::OnceLock;

const SF: f64 = 0.001;

/// A total order (`l_orderkey, l_linenumber` is lineitem's key) over every
/// lineitem row: the one plan whose order is checked, and one that reaches
/// the external sort.
const BIG_SORT: &str = "select l_orderkey, l_linenumber, l_extendedprice from lineitem \
     order by l_extendedprice desc, l_orderkey, l_linenumber";

struct Fixture {
    data: TpchData,
    working_set: u64,
    plans: Vec<(u32, Rel)>,
    expected: Vec<Table>,
    /// [`BIG_SORT`]'s plan and its full-memory result.
    big_sort: (Rel, Table),
}

/// Generated data, the 22 planned queries, and the full-memory reference
/// results — built once, shared by every proptest case.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = TpchGenerator::new(SF).generate();
        let working_set = data
            .tables()
            .iter()
            .map(|(_, t)| t.byte_size() as u64)
            .sum();
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
        let full = engine(&data, catalog::gh200_gpu().memory_bytes, SHAPES[0]);
        let expected = plans
            .iter()
            .map(|(id, p)| {
                full.execute(p)
                    .unwrap_or_else(|e| panic!("Q{id} full memory: {e}"))
            })
            .collect();
        let sort = duck.plan(BIG_SORT).expect("big sort plan");
        let sorted = full.execute(&sort).expect("big sort, full memory");
        Fixture {
            data,
            working_set,
            plans,
            expected,
            big_sort: (sort, sorted),
        }
    })
}

/// `(morsel_rows, workers)`: the default engine first.
const SHAPES: [(usize, usize); 4] = [
    (DEFAULT_MORSEL_ROWS, 4),
    (DEFAULT_MORSEL_ROWS, 1),
    (64, 4),
    (64, 1),
];

fn engine(
    data: &TpchData,
    device_bytes: u64,
    (morsel_rows, workers): (usize, usize),
) -> SiriusEngine {
    let mut config = EngineConfig {
        morsel_rows,
        workers,
        ..EngineConfig::new(catalog::gh200_gpu())
    };
    config.spec.memory_bytes = device_bytes;
    let e = SiriusEngine::from_config(config);
    for (name, table) in data.tables() {
        e.load_table(name.clone(), table);
    }
    e
}

/// Budget factors worth probing: comfortable (full device memory), exactly
/// the working set, half, and an eighth — the last two force real spilling
/// on the join- and group-by-heavy queries.
const FACTORS: [f64; 3] = [1.0, 0.5, 0.125];

/// The external sort keeps a total order row for row: [`BIG_SORT`] under
/// every factor and shape equals its full-memory result, and at an eighth
/// of the working set its run wrote spill partitions — the sort's grant was
/// denied.
#[test]
fn a_spilled_total_order_keeps_its_rows() {
    let fix = fixture();
    let (sort, sorted) = &fix.big_sort;
    for factor in FACTORS {
        let budget = ((fix.working_set as f64 * factor) as u64).max(4096);
        for shape in SHAPES {
            let (rows, workers) = shape;
            let at = format!("{factor}x working set, {rows}-row morsels, {workers} workers");
            let e = engine(&fix.data, budget, shape);
            let (out, report) = e
                .execute_measured(sort)
                .unwrap_or_else(|err| panic!("big sort at {at}: {err}"));
            assert!(out == *sorted, "big sort at {at}: rows differ");
            let broker = e.buffer_manager().grant_broker();
            assert_eq!(broker.outstanding(), 0, "big sort at {at} leaked grants");
            if factor <= 0.125 {
                assert!(report.spill_partitions > 0, "big sort at {at}: not spilled");
            }
        }
    }
}

/// The queries an eighth of the working set cannot run (ROADMAP 8): a
/// morsel's grant or a join build side stays larger than the processing
/// region however it is partitioned. A fix shrinks this list.
const OUT_OF_MEMORY_AT_AN_EIGHTH: [u32; 3] = [2, 9, 18];

/// At an eighth of the working set, under every shape, every query equals
/// its full-memory result or — exactly the [`OUT_OF_MEMORY_AT_AN_EIGHTH`]
/// ones — fails with a typed out-of-memory error, and either way leaves no
/// grant and no spill ticket behind.
#[test]
fn an_eighth_of_the_working_set_is_exact_or_out_of_memory() {
    let fix = fixture();
    let budget = ((fix.working_set as f64 * 0.125) as u64).max(4096);
    for shape in SHAPES {
        let (rows, workers) = shape;
        let e = engine(&fix.data, budget, shape);
        let mut out_of_memory = Vec::new();
        for ((id, plan), expected) in fix.plans.iter().zip(&fix.expected) {
            let at = format!("Q{id} at {budget} B, {rows}-row morsels, {workers} workers");
            match e.execute(plan) {
                Ok(out) => assert_tables_equivalent(&at, &out, expected),
                Err(SiriusError::OutOfMemory(_)) => out_of_memory.push(*id),
                Err(err) => panic!("{at}: {err}"),
            }
            let broker = e.buffer_manager().grant_broker();
            assert_eq!(broker.outstanding(), 0, "{at} leaked grants");
            assert_eq!(broker.outstanding_bytes(), 0, "{at} leaked bytes");
            let spill = e.buffer_manager().spill_manager().tier_usage();
            assert_eq!(spill, (0, 0), "{at} left spill tickets");
        }
        assert_eq!(
            out_of_memory, OUT_OF_MEMORY_AT_AN_EIGHTH,
            "out of memory at {budget} B, {rows}-row morsels, {workers} workers"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn spilling_is_invisible_across_tpch(factor_idx in 0usize..FACTORS.len()) {
        let fix = fixture();
        let factor = FACTORS[factor_idx];
        let budget = ((fix.working_set as f64 * factor) as u64).max(4096);
        for shape in SHAPES {
            let e = engine(&fix.data, budget, shape);
            let (rows, workers) = shape;
            for ((id, plan), expected) in fix.plans.iter().zip(&fix.expected) {
                let out = e.execute(plan).unwrap_or_else(|err| {
                    panic!("Q{id} at {factor}x working set, {rows}-row morsels, {workers} workers: {err}")
                });
                assert_tables_equivalent(
                    &format!("Q{id} device={budget}B ({factor}x working set) morsel_rows={rows} workers={workers}"),
                    &out,
                    expected,
                );
                // However deep the spill recursion went, every memory grant
                // the query took was dropped by the time it returned.
                let broker = e.buffer_manager().grant_broker();
                prop_assert_eq!(broker.outstanding(), 0, "Q{} leaked grants", id);
                prop_assert_eq!(broker.outstanding_bytes(), 0, "Q{} leaked bytes", id);
            }
            if factor <= 0.125 {
                prop_assert!(
                    e.spill_stats().bytes_spilled() > 0,
                    "an eighth of the working set must force spilling"
                );
            }
        }
    }
}
