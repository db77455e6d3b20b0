//! The serving-layer experiments (EXPERIMENTS.md A8, A9): arrival traces
//! replayed through `sirius-serve` on the simulated clock.

use crate::lab::{ms, requests, sweep_point, Lab};
use crate::Args;
use sirius_core::RetryPolicy;
use sirius_hw::{FaultInjector, FaultPlan};
use sirius_serve::{
    percentile, poisson_trace, ArrivalSpec, ConcurrencyReport, QueryArrival, QueryRequest,
    ServeConfig, ServeOutcome, SiriusServer, TenantSpec,
};
use std::io::{self, Write};
use std::time::Duration;

const WORKERS: usize = 4;
const MORSEL_ROWS: usize = 262_144;

/// A8: a multi-tenant TPC-H arrival trace replayed at in-flight caps
/// {1, 2, 4, 8}. A seeded open-loop Poisson trace (two tenants weighted
/// 2:1, random priorities, an 8-query mix) arrives faster than the engine
/// can serve, so the run measures drain throughput: each wave advances up
/// to one query per device stream and costs the *longest* participant, so
/// QPS climbs with concurrency until the cap passes the stream-pool width.
/// Panics unless QPS strictly improves 1→2→4 and flattens at 8, p99 does
/// not regress with concurrency, and no admission deadlock was counted.
pub fn serve(lab: &Lab, _: &Args, out: &mut dyn Write) -> io::Result<()> {
    const MIX: [u32; 8] = [1, 3, 5, 6, 9, 12, 14, 18];
    const SEED: u64 = 7;
    // Long enough that ramp-up and drain-tail waves (where fewer than
    // `WORKERS` queries are in flight) are noise against the steady state.
    const ARRIVALS: usize = 192;
    // Arrivals per simulated second — far past the engine's service rate
    // (tens of thousands of queries/s at small scale factors on the
    // simulated clock), so every sweep point drains a saturated queue and
    // QPS measures service capacity, not the arrival process.
    const RATE_QPS: f64 = 1_000_000.0;
    let plans = lab.plans(&MIX);
    let trace = poisson_trace(&ArrivalSpec {
        seed: SEED,
        rate_qps: RATE_QPS,
        count: ARRIVALS,
        tenants: vec![TenantSpec::new("etl", 2), TenantSpec::new("adhoc", 1)],
        queries: MIX.len(),
    });
    writeln!(
        out,
        "Serving sweep at SF {}: {ARRIVALS} Poisson arrivals (seed {SEED}, \
         {RATE_QPS} q/s, 2 tenants 2:1) over {WORKERS} streams",
        lab.sf()
    )?;
    writeln!(out, "{}", ConcurrencyReport::header())?;
    let mut rows: Vec<ConcurrencyReport> = Vec::new();
    for concurrency in [1, 2, 4, 8] {
        let server = SiriusServer::new(
            lab.engine(WORKERS, MORSEL_ROWS),
            ServeConfig {
                max_in_flight: concurrency,
                // Deep enough for the whole trace: this sweep measures
                // drain throughput, not rejection behavior.
                queue_depth: ARRIVALS,
                tenant_weights: vec![2, 1],
                ..Default::default()
            },
        );
        let outcome = server.replay(requests(&plans, &trace, None));
        for q in &outcome.queries {
            assert!(
                q.result.is_ok(),
                "query {} (concurrency {concurrency}) failed: {:?}",
                q.id,
                q.result
            );
        }
        assert_eq!(
            outcome.queries.len(),
            ARRIVALS,
            "concurrency {concurrency}: every arrival completes"
        );
        let report = ConcurrencyReport::from_outcome(concurrency, &outcome);
        writeln!(out, "{}", report.row())?;
        assert_eq!(report.deadlocks, 0, "concurrency {concurrency}: deadlock");
        assert!(report.qps > 0.0, "concurrency {concurrency}: zero QPS");
        rows.push(report);
    }

    // The properties the serving layer exists to deliver: cross-query
    // overlap converts concurrency into throughput until the in-flight
    // cap passes the stream-pool width.
    let qps: Vec<f64> = rows.iter().map(|r| r.qps).collect();
    assert!(
        qps[1] > qps[0] && qps[2] > qps[1],
        "QPS must strictly improve 1→2→4: {qps:?}"
    );
    assert!(
        qps[3] <= qps[2] * 1.05,
        "QPS must saturate past the {WORKERS}-stream pool: {qps:?}"
    );
    for w in rows.windows(2) {
        assert!(
            w[1].p99.as_secs_f64() <= w[0].p99.as_secs_f64() * 1.05,
            "p99 must not regress with concurrency: {:?} → {:?} at {}",
            w[0].p99,
            w[1].p99,
            w[1].concurrency
        );
    }
    writeln!(
        out,
        "\nexpected shape: QPS climbs while the in-flight cap adds wave overlap \
         (×{:.2} at 2, ×{:.2} at 4) and flattens once the cap passes the \
         {WORKERS}-stream pool (×{:.2} at 8) — the saturation point",
        qps[1] / qps[0],
        qps[2] / qps[0],
        qps[3] / qps[2],
    )
}

/// A9: what load shedding buys survivors under faults. One memory-
/// constrained multi-tenant burst — a grouped-aggregate-heavy mix on tight
/// per-query budgets, so the grant broker is under steady denial pressure —
/// replayed at increasing engine-fault rates, once with load shedding armed
/// and once with it disabled; `--seed` moves the faults. Panics unless, at
/// the highest fault rate, the shedding server keeps survivor p99 within 2x
/// of the fault-free baseline while the no-shedding server degrades worse,
/// and every run releases all grants.
pub fn resilience(lab: &Lab, args: &Args, out: &mut dyn Write) -> io::Result<()> {
    // Grouped aggregates dominate the mix so tight budgets keep the broker
    // denying grants — the pressure signal shedding keys on.
    const MIX: [u32; 4] = [1, 3, 6, 18];
    const REQUESTS: usize = 24;
    // Per-query device-memory budget: far below the aggregate working set.
    const BUDGET: u64 = 64 << 10;
    // Transient-wave faults injected per run, low to high.
    const FAULT_RATES: [u64; 4] = [0, 1, 2, 4];
    let seed = args.seed;
    let plans = lab.plans(&MIX);
    let burst: Vec<QueryArrival> = (0..REQUESTS)
        .map(|i| QueryArrival {
            id: i as u64,
            tenant: i % 2,
            // A VIP stratum that shedding must protect; everything else
            // is background traffic it may drop under pressure.
            priority: if i % 6 == 0 { 5 } else { 0 },
            arrival: Duration::from_micros(i as u64),
            query_index: i % MIX.len(),
        })
        .collect();
    writeln!(
        out,
        "Resilience ablation at SF {}: {REQUESTS} budgeted arrivals \
         ({} KiB each) over {WORKERS} streams, faults seeded {seed}",
        lab.sf(),
        BUDGET >> 10
    )?;
    writeln!(
        out,
        " rate   policy completed failed cancelled  shed     p50(ms)     p99(ms)   mksp(ms)"
    )?;
    // (rate, shedding, survivor p99, requests shed) per run, for the asserts.
    let mut runs: Vec<(u64, bool, Duration, usize)> = Vec::new();
    for rate in FAULT_RATES {
        for shedding in [true, false] {
            let queries = requests(&plans, &burst, Some(BUDGET));
            let (outcome, p50, p99) = replay_burst(lab, queries, seed, rate, shedding);
            let counts = outcome.dispositions();
            writeln!(
                out,
                "{rate:>5} {:>8} {:>9} {:>6} {:>9} {:>5} {:>11.3} {:>11.3} {:>10.3}",
                if shedding { "shed" } else { "no-shed" },
                counts.completed,
                counts.failed,
                counts.cancelled,
                counts.shed,
                ms(p50),
                ms(p99),
                ms(outcome.makespan),
            )?;
            runs.push((rate, shedding, p99, counts.shed));
        }
    }

    // The properties the shedding path exists to deliver.
    let pick = |rate: u64, shedding: bool| {
        let run = runs.iter().find(|r| (r.0, r.1) == (rate, shedding));
        run.map(|&(.., p99, shed)| (p99, shed))
            .expect("every (rate, policy) pair ran")
    };
    let max_rate = FAULT_RATES[FAULT_RATES.len() - 1];
    let (baseline_p99, _) = pick(0, true);
    let (shed_p99, shed) = pick(max_rate, true);
    let (noshed_p99, noshed) = pick(max_rate, false);
    assert!(
        shed > 0,
        "shedding must fire under pressure at rate {max_rate}"
    );
    assert_eq!(noshed, 0, "disabled shedding must never shed");
    assert!(
        shed_p99 <= baseline_p99 * 2,
        "shedding must keep survivor p99 within 2x of fault-free \
         ({shed_p99:?} vs {baseline_p99:?})"
    );
    assert!(
        noshed_p99 > shed_p99,
        "no-shedding must degrade survivor p99 worse than shedding \
         ({noshed_p99:?} vs {shed_p99:?})"
    );
    writeln!(
        out,
        "\nexpected shape: under pressure the shedding server drops background \
         traffic and keeps survivor p99 within 2x of fault-free (x{:.2} at rate \
         {max_rate}); with shedding disabled every query queues through the faults \
         and the survivor tail stretches x{:.2}",
        shed_p99.as_secs_f64() / baseline_p99.as_secs_f64(),
        noshed_p99.as_secs_f64() / baseline_p99.as_secs_f64(),
    )
}

/// One replay of A9's `burst` at fault `rate`, with load shedding armed or
/// not: the outcome and its survivors' (p50, p99). Panics on a leaked grant
/// or a request not accounted for exactly once.
fn replay_burst(
    lab: &Lab,
    burst: Vec<QueryRequest>,
    seed: u64,
    rate: u64,
    shedding: bool,
) -> (ServeOutcome, Duration, Duration) {
    let total = burst.len();
    let mut chaos = sweep_point(WORKERS, MORSEL_ROWS);
    if rate > 0 {
        // The fault plan scales with the rate: `rate` transient device
        // faults during morsel waves plus `rate` spill-I/O failures (the
        // tight budgets guarantee spill traffic to hit), all on the single
        // local node. Both kinds are retryable, so the faults cost
        // survivors retries rather than hard failures.
        let plan = FaultPlan::new(seed)
            .transient_wave(0, 1, rate)
            .spill_io(0, 2, rate);
        chaos.fault = Some((FaultInjector::new(plan), 0));
    }
    let srv = SiriusServer::new(
        lab.load(chaos),
        ServeConfig {
            max_in_flight: 2,
            queue_depth: total,
            tenant_weights: vec![2, 1],
            retry: RetryPolicy {
                max_retries: 3,
                backoff: Duration::from_micros(5),
            },
            shed_pressure: if shedding { 0.05 } else { f64::INFINITY },
        },
    );
    let outcome = srv.replay(burst);
    assert_eq!(
        srv.engine().buffer_manager().grant_broker().outstanding(),
        0,
        "rate {rate} shedding={shedding}: leaked grants"
    );
    assert_eq!(
        outcome.dispositions().total(),
        total,
        "rate {rate} shedding={shedding}: every request accounted once"
    );
    let finished = outcome.queries.iter().filter(|q| q.result.is_ok());
    let survivors: Vec<Duration> = finished.map(|q| q.latency).collect();
    assert!(
        !survivors.is_empty(),
        "rate {rate} shedding={shedding}: no survivors"
    );
    let (p50, p99) = (percentile(&survivors, 0.50), percentile(&survivors, 0.99));
    (outcome, p50, p99)
}
