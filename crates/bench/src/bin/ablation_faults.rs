//! Fault-recovery ablation: what failure handling costs on the distributed
//! path (Experiments A5).
//!
//! Runs the Table 2 subset (Q1/Q3/Q6) on fresh 4-node Sirius clusters under
//! four fault regimes — fault-free, transient (device hiccup + delayed
//! link), mid-fragment node crash, and a seeded chaos plan — printing
//! simulated end-to-end time, the overhead over fault-free, and the
//! recovery counters. Run with `--sf <value>` to change the scale factor
//! and `--seed <n>` (or `CHAOS_SEED_BASE`) to pick the chaos plan.

use sirius_doris::{ClusterConfig, DorisCluster, NodeEngineKind, PartitionScheme};
use sirius_hw::FaultPlan;
use sirius_tpch::{queries, TpchGenerator};
use std::time::Duration;

const WORLD: usize = 4;

fn seed_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .or_else(|| {
            std::env::var("CHAOS_SEED_BASE")
                .ok()
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(42)
}

fn scenarios(seed: u64) -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("fault-free", None),
        (
            "transient",
            Some(FaultPlan::new(seed).transient_device(1, 0, 2).delay_link(
                0,
                2,
                Duration::from_millis(5),
                0,
                2,
            )),
        ),
        ("crash-mid", Some(FaultPlan::new(seed).crash_mid(2, 0))),
        ("chaos", Some(FaultPlan::seeded_chaos(seed, WORLD))),
    ]
}

fn cluster(data: &sirius_tpch::TpchData, plan: Option<&FaultPlan>) -> DorisCluster {
    let mut config = ClusterConfig::for_world(WORLD);
    config.retry.max_retries = 8;
    if let Some(p) = plan {
        config = config.with_fault_plan(p.clone());
    }
    let mut c = DorisCluster::with_config(
        WORLD,
        NodeEngineKind::SiriusGpu,
        PartitionScheme::tpch_default(),
        config,
    );
    for (name, table) in data.tables() {
        c.create_table(name.clone(), table.clone())
            .expect("load table");
    }
    c.reset_ledgers();
    c
}

fn main() {
    let sf = sirius_bench::sf_from_args();
    let seed = seed_from_args();
    eprintln!("generating TPC-H at SF {sf}; chaos seed {seed}...");
    let data = TpchGenerator::new(sf).generate();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    println!("Fault-recovery ablation at SF {sf}, 4-node Sirius cluster (simulated ms)");
    println!(
        "{:>4} {:>11} {:>10} {:>9} | {:>6} {:>7} {:>7} {:>7} {:>4} {:>6}",
        "Q",
        "scenario",
        "ms",
        "overhead",
        "faults",
        "retries",
        "resched",
        "shrinks",
        "cpu",
        "reaped"
    );
    for (id, sql) in queries::distributed_subset() {
        let mut baseline_ms = None;
        // A fresh cluster per scenario so each query sees the scenario's
        // faults from a clean injector ledger.
        for (label, plan) in scenarios(seed) {
            let c = cluster(&data, plan.as_ref());
            let out = c.sql(sql).unwrap_or_else(|e| panic!("Q{id} {label}: {e}"));
            assert_eq!(c.temp_tables_live(), 0, "Q{id} {label}: temp leak");
            let total = ms(out.total());
            let base = *baseline_ms.get_or_insert(total);
            let r = &out.recovery;
            println!(
                "{:>4} {:>11} {:>10.2} {:>8.1}% | {:>6} {:>7} {:>7} {:>7} {:>4} {:>6}",
                format!("Q{id}"),
                label,
                total,
                (total / base - 1.0) * 100.0,
                r.faults_injected,
                r.retries,
                r.reschedules,
                r.world_shrinks,
                r.cpu_fallbacks,
                r.temps_reaped,
            );
        }
    }
    println!(
        "\nexpected shape: transient faults cost only backoff + one re-run (no world \
         shrink); a mid-fragment crash adds detection + re-partitioning onto three \
         survivors and reaps the dead attempt's exchange temps; fault-free rows show \
         all-zero counters"
    );
}
