//! Property: injected faults are invisible in results. For every seeded
//! chaos plan — mid-fragment node crashes, dropped/delayed exchange links,
//! transient device errors — the distributed cluster must return exactly
//! the table a fault-free single-node engine returns (floats at 1e-9
//! relative, row order ignored), no exchange temp table may be live after
//! any query, and the recovery counters must account for
//! every fault the injector fired.
//!
//! `CHAOS_SEED_BASE` (env) offsets the seed space so CI can sweep disjoint
//! seed ranges across matrix entries.

use proptest::prelude::*;
use sirius_columnar::Table;
use sirius_doris::{ClusterConfig, DorisCluster, NodeEngineKind, PartitionScheme};
use sirius_duckdb::DuckDb;
use sirius_hw::FaultPlan;
use sirius_integration::assert_tables_equivalent;
use sirius_tpch::{queries, TpchData, TpchGenerator};
use std::sync::OnceLock;

const SF: f64 = 0.005;
const WORLD: usize = 4;

struct Fixture {
    data: TpchData,
    /// Fault-free single-node reference for each distributed-subset query.
    expected: Vec<(u32, &'static str, Table)>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = TpchGenerator::new(SF).generate();
        let mut duck = DuckDb::new();
        for (name, table) in data.tables() {
            duck.create_table(name.clone(), table.clone());
        }
        let expected = queries::distributed_subset()
            .into_iter()
            .map(|(id, sql)| {
                let t = duck
                    .sql(sql)
                    .unwrap_or_else(|e| panic!("Q{id} reference: {e}"));
                (id, sql, t)
            })
            .collect();
        Fixture { data, expected }
    })
}

fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A 4-node GPU cluster armed with the seeded chaos plan. Retries are
/// raised above the default so a worst-case plan (three faults, each
/// firing twice) cannot exhaust the budget — the property under test is
/// equivalence, not the retry ceiling (cluster unit tests pin that).
fn chaos_cluster(seed: u64) -> DorisCluster {
    let mut config =
        ClusterConfig::for_world(WORLD).with_fault_plan(FaultPlan::seeded_chaos(seed, WORLD));
    config.retry.max_retries = 8;
    let mut c = DorisCluster::with_config(
        WORLD,
        NodeEngineKind::SiriusGpu,
        PartitionScheme::tpch_default(),
        config,
    );
    for (name, table) in fixture().data.tables() {
        c.create_table(name.clone(), table.clone()).unwrap();
    }
    c.reset_ledgers();
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn chaos_is_invisible_in_results(seed_off in 0u64..64) {
        let seed = seed_base().wrapping_add(seed_off);
        let cluster = chaos_cluster(seed);
        let mut injected_accounted = 0u64;
        for (id, sql, expected) in &fixture().expected {
            let before = cluster.node_breakdowns();
            let out = cluster
                .sql(sql)
                .unwrap_or_else(|e| panic!("Q{id} seed={seed}: {e}"));
            assert_tables_equivalent(&format!("Q{id} chaos seed={seed}"), expected, &out.table);
            prop_assert_eq!(
                cluster.temp_tables_live(),
                0,
                "Q{} seed={}: exchange temp tables leaked",
                id,
                seed
            );
            // Telemetry invariant: the time a query reports (per_node) must
            // equal the time the fleet's ledgers actually advanced across
            // *all* attempts, retries included. A world shrink or CPU
            // fallback discards ledgers mid-query, so only same-world
            // queries are checkable this way.
            if out.recovery.world_shrinks == 0 && out.recovery.cpu_fallbacks == 0 {
                let after = cluster.node_breakdowns();
                prop_assert_eq!(after.len(), before.len());
                prop_assert_eq!(out.per_node.len(), after.len());
                for (rank, ((id_b, b), (id_a, a))) in
                    before.iter().zip(after.iter()).enumerate()
                {
                    prop_assert_eq!(id_b, id_a);
                    prop_assert_eq!(
                        a.since(b),
                        out.per_node[rank].clone(),
                        "Q{} seed={} node {}: reported per_node disagrees with the ledger delta (retries={})",
                        id,
                        seed,
                        id_a,
                        out.recovery.retries
                    );
                }
            }
            injected_accounted += out.recovery.faults_injected;
        }
        // Every fault the injector fired must be attributed to some query's
        // recovery counters — none lost, none double-counted.
        prop_assert_eq!(
            injected_accounted,
            cluster.fault_injector().injected_count(),
            "seed={}: recovery counters disagree with the injector ledger",
            seed
        );
    }
}

#[test]
fn report_elapsed_equals_breakdown_total() {
    // The single-node report half of the telemetry invariant: every
    // reported outcome's `elapsed` must equal its `breakdown.total()`.
    // (The distributed half — per_node vs ledger deltas across retried
    // attempts — is asserted inside the chaos sweep above.)
    use sirius_core::SiriusEngine;
    use sirius_hw::catalog as hw;

    let fix = fixture();
    let mut duck = sirius_duckdb::DuckDb::new();
    let engine = SiriusEngine::new(hw::gh200_gpu());
    for (name, table) in fix.data.tables() {
        duck.create_table(name.clone(), table.clone());
        engine.load_table(name.clone(), table);
    }
    for (id, sql, _) in &fix.expected {
        let plan = duck.plan(sql).unwrap_or_else(|e| panic!("Q{id} plan: {e}"));
        let (_, report) = engine
            .execute_measured(&plan)
            .unwrap_or_else(|e| panic!("Q{id}: {e}"));
        assert_eq!(
            report.elapsed,
            report.breakdown.total(),
            "Q{id}: QueryReport.elapsed disagrees with breakdown.total()"
        );
    }
}

#[test]
fn quorum_loss_degrades_to_cpu_with_correct_results() {
    let fix = fixture();
    let mut cluster = DorisCluster::new(WORLD, NodeEngineKind::SiriusGpu);
    for (name, table) in fix.data.tables() {
        cluster.create_table(name.clone(), table.clone()).unwrap();
    }
    // Three of four nodes die: below majority quorum the coordinator must
    // degrade to the single-node CPU engine rather than fail the query.
    cluster.heartbeats().mark_down(1);
    cluster.heartbeats().mark_down(2);
    cluster.heartbeats().mark_down(3);
    for (id, sql, expected) in &fix.expected {
        let out = cluster
            .sql(sql)
            .unwrap_or_else(|e| panic!("Q{id} below quorum: {e}"));
        assert_tables_equivalent(&format!("Q{id} cpu fallback"), expected, &out.table);
        assert_eq!(
            out.recovery.cpu_fallbacks, 1,
            "Q{id}: expected CPU fallback"
        );
        assert_eq!(cluster.temp_tables_live(), 0, "Q{id}: temp leak");
    }
}
