//! Property: dictionary-encoded string execution is invisible in results.
//! For every TPC-H query, running over encoded base tables (the generator's
//! default) must produce exactly the table the decoded plain-string path
//! produces — across worker counts, morsel sizes, and spill-forcing device
//! budgets, on the CPU baseline, and on the distributed cluster — and the
//! result sink always hands back decoded payload strings, never codes.

use proptest::prelude::*;
use sirius_columnar::Table;
use sirius_core::SiriusEngine;
use sirius_doris::{DorisCluster, NodeEngineKind};
use sirius_duckdb::DuckDb;
use sirius_hw::{catalog, Link};
use sirius_integration::assert_tables_equivalent;
use sirius_plan::Rel;
use sirius_tpch::{queries, TpchData, TpchGenerator};
use std::sync::OnceLock;

const SF: f64 = 0.001;

/// Morsel sizes worth probing: degenerate single-row morsels, a size that
/// leaves remainders, and the single-walk executor.
const MORSEL_SIZES: [usize; 3] = [97, 4_096, usize::MAX];

struct Fixture {
    encoded: TpchData,
    decoded: TpchData,
    plans: Vec<(u32, Rel)>,
    expected: Vec<Table>,
}

/// Encoded data, its decoded twin, the 22 planned queries, and decoded-path
/// reference results — built once, shared by every proptest case.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let encoded = TpchGenerator::new(SF).generate();
        assert!(
            encoded.tables().iter().any(|(_, t)| t.has_dict_columns()),
            "generator must emit encoded strings by default"
        );
        let decoded = encoded.decoded();
        let mut duck = DuckDb::new();
        for (name, table) in decoded.tables() {
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
        let reference = engine(&decoded, 1, usize::MAX, u64::MAX);
        let expected = plans
            .iter()
            .map(|(id, p)| {
                reference
                    .execute(p)
                    .unwrap_or_else(|e| panic!("Q{id} decoded reference: {e}"))
            })
            .collect();
        Fixture {
            encoded,
            decoded,
            plans,
            expected,
        }
    })
}

fn engine(data: &TpchData, workers: usize, morsel_rows: usize, device_bytes: u64) -> SiriusEngine {
    let mut spec = catalog::gh200_gpu();
    spec.memory_bytes = spec.memory_bytes.min(device_bytes);
    let e = SiriusEngine::with_link(spec, Link::new(catalog::nvlink_c2c()), workers)
        .with_morsel_rows(morsel_rows);
    for (name, table) in data.tables() {
        e.load_table(name.clone(), table);
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn encoding_is_invisible_across_tpch(
        size_idx in 0usize..MORSEL_SIZES.len(),
        workers in 1usize..4,
        tight_memory in any::<bool>(),
    ) {
        let fix = fixture();
        let morsel_rows = MORSEL_SIZES[size_idx];
        // An eighth of the decoded working set forces real spilling; the
        // encodings must survive the spill round-trip too.
        let budget = if tight_memory {
            (fix.decoded.total_bytes() / 8).max(4096)
        } else {
            u64::MAX
        };
        let e = engine(&fix.encoded, workers, morsel_rows, budget);
        for ((id, plan), expected) in fix.plans.iter().zip(&fix.expected) {
            let out = e.execute(plan)
                .unwrap_or_else(|err| panic!("Q{id} encoded run: {err}"));
            prop_assert!(
                !out.has_dict_columns(),
                "Q{} result sink leaked dictionary codes", id
            );
            assert_tables_equivalent(
                &format!("Q{id} encoded morsel_rows={morsel_rows} workers={workers} tight={tight_memory}"),
                &out,
                expected,
            );
        }
    }
}

/// The CPU baseline runs the same encoded tables through an independent
/// operator stack; agreeing on all 22 queries pins the scalar decode path.
#[test]
fn cpu_baseline_agrees_on_encoded_tables() {
    let fix = fixture();
    let mut duck = DuckDb::new();
    for (name, table) in fix.encoded.tables() {
        duck.create_table(name.clone(), table.clone());
    }
    for ((id, plan), expected) in fix.plans.iter().zip(&fix.expected) {
        let out = duck
            .execute_plan(plan)
            .unwrap_or_else(|e| panic!("Q{id} duckdb encoded: {e}"));
        assert_tables_equivalent(&format!("Q{id} duckdb encoded"), &out, expected);
    }
}

/// Distributed execution over encoded shards must agree with the decoded
/// cluster — codes cross the wire, and the coordinator's gathered result
/// comes back fully materialized.
#[test]
fn distributed_cluster_agrees_and_decodes() {
    let fix = fixture();
    let build = |data: &TpchData| {
        let mut c = DorisCluster::new(3, NodeEngineKind::SiriusGpu);
        for (name, table) in data.tables() {
            c.create_table(name.clone(), table.clone()).unwrap();
        }
        c.reset_ledgers();
        c
    };
    let enc = build(&fix.encoded);
    let dec = build(&fix.decoded);
    let mut sqls: Vec<(u32, &str)> = queries::all();
    // A string-keyed grouped join so dictionary columns actually cross the
    // wire and survive the temp-table registry.
    sqls.push((
        0,
        "select n_name, count(*) as suppliers
         from supplier, nation
         where s_nationkey = n_nationkey
         group by n_name
         order by suppliers desc, n_name",
    ));
    for (id, sql) in sqls {
        let e = enc
            .sql(sql)
            .unwrap_or_else(|e| panic!("Q{id} encoded cluster: {e}"));
        let d = dec
            .sql(sql)
            .unwrap_or_else(|e| panic!("Q{id} decoded cluster: {e}"));
        assert!(
            !e.table.has_dict_columns(),
            "Q{id}: coordinator result leaked dictionary codes"
        );
        assert_tables_equivalent(
            &format!("Q{id} encoded vs decoded cluster"),
            &e.table,
            &d.table,
        );
        assert_eq!(
            enc.temp_tables_live(),
            0,
            "Q{id}: encoded cluster temp leak"
        );
    }
}
