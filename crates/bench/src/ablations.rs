//! This repository's own ablations over the engine (EXPERIMENTS.md A1, A3–A7,
//! A10, A11). Each prints its sweep and asserts the shape it exists to show.

use crate::lab::{kernel_bytes, measure, mib, ms, sweep_point, tpch, Lab, NODES};
use crate::Args;
use sirius_core::physical::{compile, fuse, PhysOp};
use sirius_core::{CompiledQuery, EngineConfig, OpStats, Scheduling, SiriusEngine};
use sirius_doris::{ClusterConfig, NodeEngineKind};
use sirius_hw::{catalog as hw, FaultPlan, TraceConfig};
use sirius_serve::CachingPlanner;
use sirius_sql::JoinOrderPolicy;
use sirius_tpch::queries;
use std::collections::HashMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
/// Small enough that the lineitem scan splits into several morsels from
/// sf ≈ 0.01 up, so the fused-aggregation absorption path is exercised even
/// in CI smoke runs (fusion, encoding, plancache).
const SMALL_MORSEL: usize = 32_768;

/// A1: GPU-native vs interconnect-bound execution as the CPU↔GPU link
/// improves (§3.1). The same join+aggregate pipeline runs with its data
/// resident in HBM, on pinned host memory crossing the link every query,
/// and on the CPU, while the link sweeps PCIe3 → NVLink-C2C.
pub fn interconnect(lab: &Lab, _: &Args, out: &mut dyn Write) -> io::Result<()> {
    const QUERY: &str = "
select o_orderdate, sum(l_extendedprice * (1 - l_discount)) as revenue
from orders, lineitem
where l_orderkey = o_orderkey and o_orderdate < date '1995-03-15'
group by o_orderdate";
    let sf = lab.sf();
    let plan = lab.plan(QUERY);
    let sirius_ms = |host_link, caching_fraction| {
        let resident = EngineConfig {
            host_link,
            workers: 2,
            caching_fraction,
            ..EngineConfig::new(hw::gh200_gpu())
        };
        ms(measure(&lab.load(resident), &plan).elapsed)
    };
    let cpu_ms = lab.duckdb_ms(QUERY);
    writeln!(
        out,
        "Ablation: GPU-native vs interconnect-bound (Q3-like pipeline, simulated ms at SF {sf})"
    )?;
    writeln!(
        out,
        "host link            HBM-resident  pinned-resident       vs CPU"
    )?;
    for link in [
        hw::pcie3_x16(),
        hw::pcie4_x16(),
        hw::pcie6_x16(),
        hw::nvlink_c2c(),
    ] {
        let hot = sirius_ms(link.clone(), 0.5);
        // A vanishingly small caching region forces every table onto the
        // pinned-host tier while the processing pool keeps its capacity.
        let cold = sirius_ms(link.clone(), 1e-7);
        writeln!(
            out,
            "{:<18} {hot:>13.2}ms {cold:>15.2}ms {:>11.1}x",
            link.name,
            cpu_ms / cold
        )?;
    }
    writeln!(out, "CPU baseline (DuckDB): {cpu_ms:.2} ms")?;
    writeln!(
        out,
        "\nexpected shape: the HBM column is link-independent; the pinned column converges \
         toward it as the link approaches memory bandwidth (NVLink-C2C), the paper's argument \
         for GPU-native execution beyond device memory"
    )
}

/// A3: simulated device time as worker count and morsel size vary, over Q1
/// (group-by heavy), Q5 (join heavy) and Q6 (filter + reduction).
pub fn morsel(lab: &Lab, _: &Args, out: &mut dyn Write) -> io::Result<()> {
    const MORSEL_ROWS: [(&str, usize); 4] = [
        ("100k", 100_000),
        ("400k", 400_000),
        ("800k", 800_000),
        ("whole", usize::MAX),
    ];
    writeln!(
        out,
        "Morsel ablation at SF {} (simulated device ms; speedup vs single walk)",
        lab.sf()
    )?;
    writeln!(
        out,
        "   Q   morsel workers         ms  speedup  morsels  tasks  util"
    )?;
    for (id, sql) in tpch(&[1, 5, 6]) {
        // The single-walk baseline is worker-independent (one morsel per
        // pipeline); measure it once per query.
        let single = lab.run(&lab.engine(1, usize::MAX), sql);
        for (label, rows) in MORSEL_ROWS {
            for workers in [1, 2, 4] {
                let run = lab.run(&lab.engine(workers, rows), sql);
                writeln!(
                    out,
                    "{:>4} {label:>8} {workers:>7} {:>10.3} {:>7.2}x {:>8} {:>6} {:>4.0}%",
                    format!("Q{id}"),
                    ms(run.elapsed),
                    ms(single.elapsed) / ms(run.elapsed),
                    run.morsels,
                    run.tasks,
                    run.worker_utilization * 100.0
                )?;
            }
        }
    }
    writeln!(
        out,
        "\nexpected shape: near-linear 1→4 worker speedup once morsels ≥ workers and \
         each morsel is large enough that memory time dominates launch overhead; \
         the whole-column rows (single walk) show no scaling"
    )
}

/// A loaded engine whose device holds `device_bytes` of memory (split 50/50
/// into caching and processing regions). Budgets below 4 KiB are clamped so
/// both regions can hold at least one aligned allocation.
pub fn engine_with_memory(lab: &Lab, device_bytes: u64) -> SiriusEngine {
    let mut tight = EngineConfig::new(hw::gh200_gpu());
    tight.spec.memory_bytes = device_bytes.max(4096);
    lab.load(tight)
}

/// A4: simulated device time as device memory shrinks from 4x the loaded
/// working set to 1/16x, over Q1 (group-by heavy), Q5 (join heavy) and Q18
/// (large build sides).
pub fn memory(lab: &Lab, _: &Args, out: &mut dyn Write) -> io::Result<()> {
    const FACTORS: [(&str, f64); 7] = [
        ("4x", 4.0),
        ("2x", 2.0),
        ("1x", 1.0),
        ("1/2x", 0.5),
        ("1/4x", 0.25),
        ("1/8x", 0.125),
        ("1/16x", 0.0625),
    ];
    let ws = lab.data().total_bytes();
    writeln!(
        out,
        "Memory ablation at SF {} (working set {:.2} MiB; simulated device ms)",
        lab.sf(),
        mib(ws)
    )?;
    writeln!(
        out,
        "   Q  memory         ms  slowdown   pinned MiB   disk MiB  parts  depth"
    )?;
    for (id, sql) in tpch(&[1, 5, 18]) {
        let mut base_ms = None;
        for (label, factor) in FACTORS {
            let budget = (ws as f64 * factor) as u64;
            let run = lab.run(&engine_with_memory(lab, budget), sql);
            let base = *base_ms.get_or_insert(ms(run.elapsed));
            writeln!(
                out,
                "{:>4} {label:>7} {:>10.3} {:>8.2}x {:>12.2} {:>10.2} {:>6} {:>6}",
                format!("Q{id}"),
                ms(run.elapsed),
                ms(run.elapsed) / base,
                mib(run.spilled_pinned_bytes),
                mib(run.spilled_disk_bytes),
                run.spill_partitions,
                run.spill_depth
            )?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "expected shape: zero spill at >= 1x, then a smooth tier-by-tier slowdown as \
         memory shrinks — partitions and recursion depth grow, no query fails and no \
         budget falls off a cliff to host fallback"
    )
}

/// A5: what failure handling costs on the distributed path. The 22 TPC-H
/// queries on fresh 4-node Sirius clusters under four fault regimes —
/// fault-free, transient (device hiccup + delayed link), mid-fragment node
/// crash, and the seeded chaos plan `--seed` picks.
pub fn faults(lab: &Lab, args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let seed = args.seed;
    let transient = FaultPlan::new(seed).transient_device(1, 0, 2);
    let scenarios = [
        ("fault-free", None),
        (
            "transient",
            Some(transient.delay_link(0, 2, Duration::from_millis(5), 0, 2)),
        ),
        ("crash-mid", Some(FaultPlan::new(seed).crash_mid(2, 0))),
        ("chaos", Some(FaultPlan::seeded_chaos(seed, NODES))),
    ];
    writeln!(
        out,
        "Fault-recovery ablation at SF {}, 4-node Sirius cluster (simulated ms)",
        lab.sf()
    )?;
    writeln!(
        out,
        "   Q    scenario         ms  overhead | faults retries resched shrinks  cpu reaped"
    )?;
    for (id, sql) in queries::all() {
        let mut baseline_ms = None;
        // A fresh cluster per scenario so each query sees the scenario's
        // faults from a clean injector ledger.
        for (label, fault_plan) in &scenarios {
            let mut config = ClusterConfig::default();
            config.retry.max_retries = 8;
            config.fault_plan = fault_plan.clone();
            let c = lab.cluster(NodeEngineKind::SiriusGpu, config);
            let outcome = c.sql(sql).unwrap_or_else(|e| panic!("Q{id} {label}: {e}"));
            assert_eq!(c.temp_tables_live(), 0, "Q{id} {label}: temp leak");
            let total = ms(outcome.total());
            let base = *baseline_ms.get_or_insert(total);
            let r = &outcome.recovery;
            writeln!(
                out,
                "{:>4} {label:>11} {total:>10.2} {:>8.1}% | {:>6} {:>7} {:>7} {:>7} {:>4} {:>6}",
                format!("Q{id}"),
                (total / base - 1.0) * 100.0,
                r.faults_injected,
                r.retries,
                r.reschedules,
                r.world_shrinks,
                r.cpu_fallbacks,
                r.temps_reaped,
            )?;
        }
    }
    writeln!(
        out,
        "\nexpected shape: transient faults cost only backoff + one re-run (no world \
         shrink); a mid-fragment crash adds detection + re-partitioning onto three \
         survivors and reaps the dead attempt's exchange temps; fault-free rows show \
         all-zero counters"
    )
}

/// A6: serialized vs concurrent dispatch of independent pipelines. Under
/// `Scheduling::Serialized` each pipeline gets the whole stream pool but
/// runs alone between syncs; under `Scheduling::Concurrent` (the default)
/// every ready pipeline launches in the same wave on its own stream slice,
/// so the build sides of multi-join queries overlap. Panics unless
/// concurrent dispatch is at least as fast on at least one query.
pub fn pipelines(lab: &Lab, _: &Args, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Pipeline-scheduling ablation at SF {} ({WORKERS} streams; simulated device ms)",
        lab.sf()
    )?;
    writeln!(
        out,
        "   Q   morsel     serial     concur  speedup  pipes  tasks s.util c.util"
    )?;
    let mut best = f64::MIN;
    for (id, sql) in tpch(&[5, 7, 9, 21]) {
        let plan = lab.plan(sql);
        for (label, rows) in [("256k", 262_144), ("whole", usize::MAX)] {
            let serial_engine = lab.load(EngineConfig {
                scheduling: Scheduling::Serialized,
                ..sweep_point(WORKERS, rows)
            });
            let concur_engine = lab.engine(WORKERS, rows);
            let pipes = concur_engine.pipeline_count(&plan);
            let serial = measure(&serial_engine, &plan);
            let concur = measure(&concur_engine, &plan);
            // Both engines are fresh, so their lifetime counters are this run's.
            let (serial_ran, concur_ran) = (
                serial_engine.morsel_stats().pipelines_run,
                concur_engine.morsel_stats().pipelines_run,
            );
            assert_eq!(
                serial_ran, concur_ran,
                "Q{id}: scheduling mode changed the executed DAG"
            );
            assert_eq!(
                concur_ran as usize, pipes,
                "Q{id}: executed pipelines disagree with the compiled DAG"
            );
            let speedup = ms(serial.elapsed) / ms(concur.elapsed);
            best = best.max(speedup);
            writeln!(
                out,
                "{:>4} {label:>8} {:>10.3} {:>10.3} {speedup:>7.2}x {pipes:>6} {:>6} {:>5.0}% {:>5.0}%",
                format!("Q{id}"),
                ms(serial.elapsed),
                ms(concur.elapsed),
                concur.tasks,
                serial.worker_utilization * 100.0,
                concur.worker_utilization * 100.0,
            )?;
        }
    }
    writeln!(
        out,
        "\nexpected shape: independent build-side pipelines overlap under concurrent \
         dispatch, so multi-join queries speed up most when each pipeline has too few \
         morsels to fill the stream pool (the `whole` rows); single-chain segments tie"
    )?;
    assert!(
        best >= 1.0,
        "concurrent dispatch slower than serialized everywhere (best speedup {best:.3}x)"
    );
    Ok(())
}

/// A7: single-pass fused execution of each pipeline's streaming-op chain vs
/// the per-operator baseline that charges every operator's own kernels and
/// materializes its intermediate. Panics unless fusion is at least as fast
/// everywhere and — from the scale factor where the fact tables split into
/// several morsels — at least 1.5× on the aggregate-rooted scans Q1 and Q6.
pub fn fusion(lab: &Lab, _: &Args, out: &mut dyn Write) -> io::Result<()> {
    // Below this scale the per-task dispatch overhead (identical in both
    // modes) drowns the byte savings, so the headline gate starts here.
    const HEADLINE_SF: f64 = 0.05;
    let sf = lab.sf();
    writeln!(
        out,
        "Data-path fusion ablation at SF {sf} ({WORKERS} workers, device-resident; simulated device ms)"
    )?;
    writeln!(out, "   Q    unfused      fused  speedup  segs")?;
    let mut worst = f64::MAX;
    let mut headline = f64::MAX;
    for (id, sql) in tpch(&[1, 3, 6, 12, 14, 19]) {
        let plan = lab.plan(sql);
        let mut phys = compile(&plan).expect("compile");
        fuse(&mut phys);
        let ops = phys.pipelines.iter().flat_map(|p| &p.ops);
        let segs = ops.filter(|op| matches!(op, PhysOp::Fused(_))).count();

        let unfused_engine = lab.load(EngineConfig {
            fusion: false,
            ..sweep_point(WORKERS, SMALL_MORSEL)
        });
        let fused_engine = lab.engine(WORKERS, SMALL_MORSEL);
        let unfused = measure(&unfused_engine, &plan);
        let fused = measure(&fused_engine, &plan);
        assert_eq!(
            unfused_engine.morsel_stats().pipelines_run,
            fused_engine.morsel_stats().pipelines_run,
            "Q{id}: fusion changed the executed DAG"
        );
        let speedup = ms(unfused.elapsed) / ms(fused.elapsed);
        worst = worst.min(speedup);
        if id == 1 || id == 6 {
            headline = headline.min(speedup);
        }
        writeln!(
            out,
            "{:>4} {:>10.3} {:>10.3} {speedup:>7.2}x {segs:>5}",
            format!("Q{id}"),
            ms(unfused.elapsed),
            ms(fused.elapsed),
        )?;
    }
    writeln!(
        out,
        "\nexpected shape: aggregate-rooted scans (Q1, Q6) gain most — the fused pass \
         reads lineitem once and writes back only partial accumulators; join queries \
         gain on their probe-side chains while build/probe random traffic is unchanged"
    )?;
    assert!(
        worst >= 0.999,
        "fusion slowed a query down (worst speedup {worst:.3}x)"
    );
    if sf >= HEADLINE_SF {
        assert!(
            headline >= 1.5,
            "fusion under 1.5x on Q1/Q6 (got {headline:.3}x) at SF {sf}"
        );
    }
    Ok(())
}

/// A10: dictionary-encoded string execution with late materialization vs
/// the decoded plain-string twin — ledger kernel bytes and simulated ms on
/// the string-heavy queries, then steady-state wire bytes per link for a
/// string-keyed grouped join on a cluster (after the one-time dictionary
/// shipment). Panics unless encoding strictly reduces ledger bytes on Q10
/// and Q18 and steady-state wire bytes on every link.
pub fn encoding(encoded: &Lab, _: &Args, out: &mut dyn Write) -> io::Result<()> {
    // n_name dictionary columns cross the wire in the shuffle, so the
    // distributed leg measures real encoded exchange.
    const DISTRIBUTED_SQL: &str = "
    select n_name, count(*) as suppliers
    from supplier, nation
    where s_nationkey = n_nationkey
    group by n_name
    order by suppliers desc, n_name";
    let decoded = &Lab::over(encoded.data().decoded());
    writeln!(
        out,
        "Dictionary-encoding ablation at SF {} ({WORKERS} workers; ledger kernel bytes, simulated device ms)",
        encoded.sf()
    )?;
    writeln!(
        out,
        "base tables: encoded {:.2} MB vs decoded {:.2} MB",
        encoded.data().total_bytes() as f64 / 1e6,
        decoded.data().total_bytes() as f64 / 1e6,
    )?;
    writeln!(
        out,
        "   Q      dec bytes      enc bytes    ratio     dec ms     enc ms"
    )?;
    for (id, sql) in tpch(&[1, 10, 16, 18]) {
        let [(enc_bytes, enc_ms), (dec_bytes, dec_ms)] = [encoded, decoded].map(|lab| {
            let engine = lab
                .engine(WORKERS, SMALL_MORSEL)
                .with_trace(TraceConfig::On);
            let run = lab.run(&engine, sql);
            (kernel_bytes(&engine), ms(run.elapsed))
        });
        writeln!(
            out,
            "{:>4} {dec_bytes:>14} {enc_bytes:>14} {:>7.2}x {dec_ms:>10.3} {enc_ms:>10.3}",
            format!("Q{id}"),
            dec_bytes as f64 / enc_bytes as f64,
        )?;
        if id == 10 || id == 18 {
            assert!(
                enc_bytes < dec_bytes,
                "Q{id}: encoding must strictly reduce ledger bytes ({enc_bytes} vs {dec_bytes})"
            );
        }
    }

    // After the one-time dictionary shipment (warm-up query), encoded
    // exchanges move codes only; decoded exchanges re-ship payload strings
    // every time. Per link: the bytes the second, steady-state query moved.
    let [enc_links, dec_links] = [encoded, decoded].map(|lab| {
        let c = lab.cluster(NodeEngineKind::SiriusGpu, ClusterConfig::default());
        c.sql(DISTRIBUTED_SQL).expect("warm-up");
        let before = c.link_traffic();
        c.sql(DISTRIBUTED_SQL).expect("steady state");
        let after = c.link_traffic().into_iter();
        let moved = after.map(|(link, bytes, _)| {
            let prev = before.iter().find(|(l, ..)| *l == link);
            (link, bytes - prev.map_or(0, |&(_, b, _)| b))
        });
        moved.collect::<Vec<_>>()
    });
    writeln!(
        out,
        "\ndistributed grouped string join, steady-state wire bytes per link:"
    )?;
    writeln!(out, "      link      decoded      encoded    ratio")?;
    let mut enc_total = 0u64;
    let mut dec_total = 0u64;
    for ((link, enc_bytes), (dlink, dec_bytes)) in enc_links.iter().zip(&dec_links) {
        assert_eq!(link, dlink, "link sets diverge between modes");
        enc_total += enc_bytes;
        dec_total += dec_bytes;
        writeln!(
            out,
            "{:>10} {dec_bytes:>12} {enc_bytes:>12} {:>7.2}x",
            format!("{}->{}", link.0, link.1),
            *dec_bytes as f64 / (*enc_bytes).max(1) as f64,
        )?;
        assert!(
            enc_bytes < dec_bytes,
            "link {link:?}: encoded wire bytes must shrink ({enc_bytes} vs {dec_bytes})"
        );
    }
    writeln!(
        out,
        "\nexpected shape: group-by-heavy string queries (Q10, Q18) gain most — the \
         per-row whole-string Key clones of the sort-based group-by become 4-byte \
         rank comparisons; on the wire, dictionaries amortize to zero and each link \
         moves codes only ({dec_total} -> {enc_total} bytes here)"
    )
}

/// Execute a compiled query on a reset `engine`: (ledger kernel bytes,
/// simulated ms, the run's operator stats for feedback).
fn run_compiled(
    engine: &SiriusEngine,
    compiled: &CompiledQuery,
) -> (u64, f64, HashMap<u32, OpStats>) {
    engine.device().reset();
    engine.trace().clear();
    engine.clear_operator_stats();
    let mut run = engine.begin_compiled(compiled).expect("begin_compiled");
    while !run.is_done() {
        engine.step(&mut run, usize::MAX).expect("step");
    }
    let stats = engine.run_operator_stats(&run);
    run.into_table().expect("completed run");
    (kernel_bytes(engine), ms(engine.device().elapsed()), stats)
}

/// A11: plan cache and feedback. Two claims, both asserted. (1) Cache hits
/// skip planning: resolving all 22 queries again through the caching
/// planner is strictly faster on the host wall clock than the pass that
/// parses, binds, optimizes and compiles them, and runs zero further
/// planning phases. (2) Feedback beats estimates on Q3: after one run feeds
/// observed cardinalities back, the re-optimized plan (the build side flips
/// onto the genuinely smaller input) moves strictly fewer ledger kernel
/// bytes than the estimate-only plan; ClickHouse's FROM-order Q3 is printed
/// for context.
// The cold-vs-cached planning timer measures real host planning work,
// which has no simulated counterpart.
#[allow(clippy::disallowed_methods)]
pub fn plancache(lab: &Lab, _: &Args, out: &mut dyn Write) -> io::Result<()> {
    const HIT_PASSES: u32 = 5;
    let engine = lab
        .engine(WORKERS, SMALL_MORSEL)
        .with_trace(TraceConfig::On);
    writeln!(
        out,
        "Plan-cache ablation at SF {} ({WORKERS} workers)",
        lab.sf()
    )?;
    let planner = |adaptive| {
        let catalog = lab.duck().binder_catalog().clone();
        CachingPlanner::new(catalog, JoinOrderPolicy::Optimized).with_adaptive(adaptive)
    };

    let fixed = planner(false);
    let resolve_all = || {
        for (id, sql) in queries::all() {
            let resolved = fixed.resolve(sql, &engine);
            resolved.unwrap_or_else(|e| panic!("Q{id}: {e}"));
        }
    };
    let t0 = Instant::now();
    resolve_all();
    let cold = t0.elapsed();
    let phases_after_cold = fixed.planning_phases();
    let t1 = Instant::now();
    for _ in 0..HIT_PASSES {
        resolve_all();
    }
    let warm = t1.elapsed() / HIT_PASSES;
    let stats = fixed.cache_stats();
    writeln!(
        out,
        "planning all 22 queries: cold {:.3}ms, cached pass {:.3}ms ({:.1}x); \
         {} planning phases, {} hits, {} misses",
        ms(cold),
        ms(warm),
        cold.as_secs_f64() / warm.as_secs_f64().max(1e-12),
        fixed.planning_phases(),
        stats.hits,
        stats.misses,
    )?;
    assert_eq!(
        phases_after_cold,
        fixed.planning_phases(),
        "cache hits must execute zero additional planning phases"
    );
    assert!(
        warm < cold,
        "cached resolution must be strictly faster than planning ({warm:?} vs {cold:?})"
    );

    let adaptive = planner(true);
    let first = adaptive.resolve(queries::Q3, &engine).expect("Q3 plan");
    let (est_bytes, est_ms, stats) = run_compiled(&engine, &first.compiled);
    adaptive.observe(first.shape, first.compiled.root(), &stats);
    let second = adaptive.resolve(queries::Q3, &engine).expect("Q3 re-plan");
    let (fb_bytes, fb_ms, _) = run_compiled(&engine, &second.compiled);
    // ClickHouse keeps FROM order — the no-optimizer baseline.
    let ch_plan = lab.from_order_plan(queries::Q3);
    let (ch_bytes, ch_ms, _) =
        run_compiled(&engine, &engine.compile_query(&ch_plan).expect("compile"));

    writeln!(out, "\nQ3 ledger kernel bytes by planning mode:")?;
    writeln!(out, "                    mode          bytes     sim ms")?;
    for (mode, bytes, sim_ms) in [
        ("ClickHouse FROM-order", ch_bytes, ch_ms),
        ("estimates (cold cache)", est_bytes, est_ms),
        ("feedback (one cycle)", fb_bytes, fb_ms),
    ] {
        writeln!(out, "{mode:>24} {bytes:>14} {sim_ms:>10.3}")?;
    }
    assert!(
        adaptive.cache_stats().replans >= 1,
        "one feedback cycle must re-optimize Q3 (replans = {})",
        adaptive.cache_stats().replans
    );
    assert_ne!(
        first.compiled.fingerprint(),
        second.compiled.fingerprint(),
        "feedback must change the Q3 plan"
    );
    assert!(
        fb_bytes < est_bytes,
        "feedback plan must move strictly fewer ledger bytes than the \
         estimate-only plan ({fb_bytes} vs {est_bytes})"
    );
    writeln!(
        out,
        "\nexpected shape: estimates under-count the filtered orders side, so the \
         estimate-only plan builds the hash table on the larger input; one run of \
         actuals flips the build side and the materialized build bytes shrink \
         ({est_bytes} -> {fb_bytes} here, {:.2}x)",
        est_bytes as f64 / fb_bytes.max(1) as f64
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MORSEL_SF;

    #[test]
    fn morsel_parallelism_speeds_up_q1_q6() {
        // The acceptance bar of the morsel executor: at the morsel-bench
        // SF, 4 workers over 4 morsels must cut simulated device time at
        // least 2× vs the single-walk executor on Q1 and Q6.
        let lab = Lab::new(MORSEL_SF);
        let morsel_rows = 800_000; // lineitem at SF 0.5 ≈ 3M rows → 4 morsels
        let parallel = lab.engine(4, morsel_rows);
        let single = lab.engine(4, usize::MAX);
        for (id, sql) in tpch(&[1, 6]) {
            let p = lab.run(&parallel, sql);
            let s = lab.run(&single, sql);
            assert!(p.morsels >= 4, "Q{id}: expected a real fan-out");
            assert!(
                s.morsels < p.morsels,
                "Q{id}: single walk should run one morsel per pipeline"
            );
            assert!(
                ms(s.elapsed) / ms(p.elapsed) >= 2.0,
                "Q{id}: morsel executor should be ≥2× faster ({:.3}ms vs {:.3}ms)",
                ms(s.elapsed),
                ms(p.elapsed)
            );
        }
    }

    #[test]
    fn morsel_scaling_is_monotone() {
        // More workers must never make simulated device time worse: the
        // serial dispatch charge is identical, only stream overlap grows.
        let lab = Lab::new(0.02);
        for (_, sql) in tpch(&[1, 6]) {
            let times: Vec<f64> = [1, 2, 4]
                .iter()
                .map(|&w| ms(lab.run(&lab.engine(w, 15_000), sql).elapsed))
                .collect();
            assert!(
                times[0] >= times[1] && times[1] >= times[2],
                "speedup should be monotone 1→2→4 workers: {times:?}"
            );
        }
    }

    #[test]
    fn memory_sweep_is_monotone_and_exact() {
        // A4's acceptance bar: shrinking device memory must never crash or
        // change results — only slow the query down smoothly as work moves
        // through the pinned and disk tiers.
        let lab = Lab::new(0.01);
        let ws = lab.data().total_bytes();
        for (_, sql) in tpch(&[1, 5]) {
            let mut prev_ms = 0.0;
            let mut rows = None;
            for (i, factor) in [4.0, 1.0, 0.125].iter().enumerate() {
                let budget = (ws as f64 * factor) as u64;
                let run = lab.run(&engine_with_memory(&lab, budget), sql);
                match rows {
                    None => rows = Some(run.rows),
                    Some(r) => assert_eq!(run.rows, r, "cardinality changed at {factor}x"),
                }
                assert!(
                    ms(run.elapsed) >= prev_ms,
                    "time must not improve as memory shrinks: {prev_ms:.3}ms then {:.3}ms at {factor}x",
                    ms(run.elapsed)
                );
                prev_ms = ms(run.elapsed);
                if i == 0 {
                    assert_eq!(
                        run.spilled_pinned_bytes + run.spilled_disk_bytes,
                        0,
                        "nothing should spill with 4x the working set"
                    );
                }
            }
        }
    }
}
