//! Resilience ablation: what load shedding buys survivors under faults
//! (Experiments A9).
//!
//! Replays one memory-constrained multi-tenant burst — a grouped-
//! aggregate-heavy TPC-H mix on tight per-query budgets, so the grant
//! broker is under steady denial pressure — through `sirius-serve` at
//! increasing engine-fault rates (transient device faults during morsel
//! waves plus grant-denial storms), once with load shedding armed and
//! once with shedding disabled. Every run is on the simulated clock and
//! fully deterministic for a given seed.
//!
//! Prints one row per (fault rate, policy) with the disposition ledger
//! and survivor latency stats, and exits non-zero unless the shape the
//! shedding path exists to deliver holds: at the highest fault rate the
//! shedding server keeps survivor p99 within 2x of the fault-free
//! baseline, while the no-shedding server degrades worse; every run
//! releases all grants. Run with `--sf <value>` to change the scale
//! factor and `--seed <n>` (or `CHAOS_SEED_BASE`) to move the faults.

use sirius_bench::{sf_from_args, MorselLab};
use sirius_core::RetryPolicy;
use sirius_hw::{FaultInjector, FaultPlan};
use sirius_plan::Rel;
use sirius_serve::{percentile, QueryRequest, ServeConfig, SiriusServer};
use sirius_tpch::queries;
use std::time::Duration;

const WORKERS: usize = 4;
/// Grouped aggregates dominate the mix so tight budgets keep the broker
/// denying grants — the pressure signal shedding keys on.
const MIX: [(u32, &str); 4] = [
    (1, queries::Q1),
    (3, queries::Q3),
    (6, queries::Q6),
    (18, queries::Q18),
];
const REQUESTS: usize = 24;
/// Per-query device-memory budget: far below the aggregate working set.
const BUDGET: u64 = 64 << 10;
/// Transient-wave faults injected per run, low to high.
const FAULT_RATES: [u32; 4] = [0, 1, 2, 4];

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

struct Run {
    rate: u32,
    shedding: bool,
    completed: usize,
    failed: usize,
    cancelled: usize,
    shed: usize,
    p50: Duration,
    p99: Duration,
    makespan: Duration,
}

fn run(lab: &MorselLab, plans: &[Rel], seed: u64, rate: u32, shedding: bool) -> Run {
    let mut engine = lab.engine(WORKERS, 262_144);
    if rate > 0 {
        // The fault plan scales with the rate: `rate` transient device
        // faults during morsel waves plus `rate` spill-I/O failures
        // (the tight budgets guarantee spill traffic to hit), all on
        // the single local node. Both kinds are retryable, so the
        // faults cost survivors retries rather than hard failures.
        let plan = FaultPlan::new(seed)
            .transient_wave(0, 1, rate as u64)
            .spill_io(0, 2, rate as u64);
        engine = engine.with_fault(FaultInjector::new(plan), 0);
    }
    let srv = SiriusServer::new(
        engine,
        ServeConfig {
            max_in_flight: 2,
            queue_depth: REQUESTS,
            tenant_weights: vec![2, 1],
            retry: RetryPolicy {
                max_retries: 3,
                backoff: Duration::from_micros(5),
            },
            shed_pressure: if shedding { 0.05 } else { f64::INFINITY },
        },
    );
    let requests: Vec<QueryRequest> = (0..REQUESTS)
        .map(|i| QueryRequest {
            id: i as u64,
            tenant: i % 2,
            // A VIP stratum that shedding must protect; everything else
            // is background traffic it may drop under pressure.
            priority: if i % 6 == 0 { 5 } else { 0 },
            arrival: Duration::from_micros(i as u64),
            deadline: None,
            plan: plans[i % plans.len()].clone(),
            memory_budget: Some(BUDGET),
            trace: false,
            sql: None,
        })
        .collect();
    let outcome = srv.replay(requests);
    let broker = srv.engine().buffer_manager().grant_broker();
    assert_eq!(
        broker.outstanding(),
        0,
        "rate {rate} shedding={shedding}: leaked grants"
    );
    let counts = outcome.dispositions();
    assert_eq!(
        counts.total(),
        REQUESTS,
        "rate {rate} shedding={shedding}: every request accounted once"
    );
    let survivors: Vec<Duration> = outcome
        .queries
        .iter()
        .filter(|q| q.result.is_ok())
        .map(|q| q.latency)
        .collect();
    assert!(
        !survivors.is_empty(),
        "rate {rate} shedding={shedding}: no survivors"
    );
    Run {
        rate,
        shedding,
        completed: counts.completed,
        failed: counts.failed,
        cancelled: counts.cancelled,
        shed: counts.shed,
        p50: percentile(&survivors, 0.50),
        p99: percentile(&survivors, 0.99),
        makespan: outcome.makespan,
    }
}

fn main() {
    let sf = sf_from_args();
    let seed = seed_from_args();
    eprintln!("generating TPC-H at SF {sf}; fault seed {seed}...");
    let lab = MorselLab::new(sf);
    let plans: Vec<Rel> = MIX
        .iter()
        .map(|(id, sql)| {
            lab.duck
                .plan(sql)
                .unwrap_or_else(|e| panic!("plan Q{id}: {e:?}"))
        })
        .collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    println!(
        "Resilience ablation at SF {sf}: {REQUESTS} budgeted arrivals \
         ({} KiB each) over {WORKERS} streams, faults seeded {seed}",
        BUDGET >> 10
    );
    println!(
        "{:>5} {:>8} {:>9} {:>6} {:>9} {:>5} {:>11} {:>11} {:>10}",
        "rate",
        "policy",
        "completed",
        "failed",
        "cancelled",
        "shed",
        "p50(ms)",
        "p99(ms)",
        "mksp(ms)"
    );
    let mut rows: Vec<Run> = Vec::new();
    for &rate in &FAULT_RATES {
        for shedding in [true, false] {
            let r = run(&lab, &plans, seed, rate, shedding);
            println!(
                "{:>5} {:>8} {:>9} {:>6} {:>9} {:>5} {:>11.3} {:>11.3} {:>10.3}",
                r.rate,
                if r.shedding { "shed" } else { "no-shed" },
                r.completed,
                r.failed,
                r.cancelled,
                r.shed,
                ms(r.p50),
                ms(r.p99),
                ms(r.makespan),
            );
            rows.push(r);
        }
    }

    let pick = |rate: u32, shedding: bool| {
        rows.iter()
            .find(|r| r.rate == rate && r.shedding == shedding)
            .unwrap()
    };
    let max_rate = *FAULT_RATES.last().unwrap();
    let baseline = pick(0, true);
    let shed_hi = pick(max_rate, true);
    let noshed_hi = pick(max_rate, false);

    // The properties the shedding path exists to deliver.
    assert!(
        shed_hi.shed > 0,
        "shedding must fire under pressure at rate {max_rate}"
    );
    assert_eq!(noshed_hi.shed, 0, "disabled shedding must never shed");
    assert!(
        shed_hi.p99 <= baseline.p99 * 2,
        "shedding must keep survivor p99 within 2x of fault-free \
         ({:?} vs {:?})",
        shed_hi.p99,
        baseline.p99
    );
    assert!(
        noshed_hi.p99 > shed_hi.p99,
        "no-shedding must degrade survivor p99 worse than shedding \
         ({:?} vs {:?})",
        noshed_hi.p99,
        shed_hi.p99
    );
    println!(
        "\nexpected shape: under pressure the shedding server drops background \
         traffic and keeps survivor p99 within 2x of fault-free (x{:.2} at rate \
         {max_rate}); with shedding disabled every query queues through the faults \
         and the survivor tail stretches x{:.2}",
        shed_hi.p99.as_secs_f64() / baseline.p99.as_secs_f64(),
        noshed_hi.p99.as_secs_f64() / baseline.p99.as_secs_f64(),
    );
}
