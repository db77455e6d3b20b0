//! The kernel-level profiler: TPC-H through the traced engine, emitting the
//! three telemetry artifacts into `--out`.
//!
//! - `trace.json` — Chrome-trace/Perfetto JSON of every kernel, transfer,
//!   sync, and operator span, timestamped on the *simulated* device clock
//!   (load it at <https://ui.perfetto.dev>).
//! - `qN.plan.txt` — EXPLAIN ANALYZE: the physical plan annotated with
//!   per-operator rows, bytes, simulated busy time, and spill counts.
//! - `metrics.prom` — Prometheus text snapshot (kernel launches, bytes by
//!   category, spill traffic, pool high-watermark).

use crate::lab::{measure, tpch, Lab};
use crate::Args;
use sirius_core::EngineConfig;
use sirius_hw::{catalog as hw, CostCategory, TraceConfig};
use sirius_tpch::queries;
use sirius_trace::metrics::MetricsRegistry;
use sirius_trace::{chrome, EventKind, TraceEvent};
use std::io::{self, Write};

const LAUNCHES: &str = "sirius_kernel_launches_total";
const KERNEL_BYTES: &str = "sirius_kernel_bytes_total";
const SPILL_BYTES: &str = "sirius_spill_bytes_total";
const POOL_HWM: &str = "sirius_pool_hwm_bytes";
const QUERY_SIM_NS: &str = "sirius_query_sim_ns";
const METRICS: [(&str, &str); 5] = [
    (LAUNCHES, "Kernel events by cost category."),
    (KERNEL_BYTES, "Bytes moved by kernel events, by category."),
    (SPILL_BYTES, "Bytes written to or read from spill tiers."),
    (POOL_HWM, "Processing-pool high watermark across the run."),
    (QUERY_SIM_NS, "Simulated device time per query."),
];

/// Run `--query N` (default: all 22) through the traced engine. Replaying
/// each query's trace through a fresh ledger must reproduce the device
/// ledger nanosecond-exact, and the Chrome document must pass structural
/// validation (monotone timestamps per track, known categories, nonzero
/// durations) before it is written. A final untraced run must record zero
/// events.
pub fn profile(lab: &Lab, args: &Args, out: &mut dyn Write) -> io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let engine = lab
        .load(EngineConfig::new(hw::gh200_gpu()))
        .with_trace(TraceConfig::On);
    let labels = CostCategory::ALL.iter().map(|c| c.label());
    let known_cats: Vec<&str> = labels.chain(["marker", "op", "lifecycle"]).collect();
    let metrics = MetricsRegistry::new();
    for (name, help) in METRICS {
        metrics.describe(name, help);
    }
    let selected = match args.query {
        Some(q) => tpch(&[q]),
        None => queries::all(),
    };

    let mut processes: Vec<(String, Vec<TraceEvent>)> = Vec::new();
    writeln!(
        out,
        "   Q       rows       sim time   events   reconciled  plan"
    )?;
    for (id, sql) in &selected {
        // Rebase the simulated clock per query; the trace must restart with
        // it or pre-reset timestamps would violate monotonicity.
        engine.device().reset();
        engine.trace().clear();
        engine.clear_operator_stats();

        let plan = lab.plan(sql);
        let run = measure(&engine, &plan);
        let events = engine.trace().events();

        // The trace IS the ledger: replaying it must land on the same
        // breakdown, to the nanosecond.
        assert_eq!(
            sirius_hw::ledger::replay(&events),
            run.breakdown,
            "Q{id}: trace replay disagrees with the device ledger"
        );

        for ev in events.iter().filter(|ev| ev.kind == EventKind::Kernel) {
            metrics.counter_inc(LAUNCHES, &[("cat", ev.cat)]);
            metrics.counter_add(KERNEL_BYTES, &[("cat", ev.cat)], ev.bytes);
            if ev.label.starts_with("spill.") {
                metrics.counter_add(SPILL_BYTES, &[], ev.bytes);
            }
        }
        metrics.gauge_max(POOL_HWM, &[], run.pool_high_watermark as f64);
        let sim = run.elapsed;
        let q = format!("q{id}");
        metrics.gauge_set(QUERY_SIM_NS, &[("query", &q)], sim.as_nanos() as f64);

        let plan_path = args.out.join(format!("q{id}.plan.txt"));
        std::fs::write(&plan_path, engine.explain_analyze(&plan))?;
        writeln!(
            out,
            "{:>4} {:>10} {:>14} {:>8} {:>12}  {}",
            format!("Q{id}"),
            run.rows,
            format!("{sim:.3?}"),
            events.len(),
            "exact",
            plan_path.display()
        )?;
        processes.push((format!("Q{id}"), events));
    }

    let trace_path = args.out.join("trace.json");
    let trace = chrome::export_processes(&processes);
    chrome::validate_json(&trace, &known_cats)
        .unwrap_or_else(|v| panic!("invalid chrome trace: {v:?}"));
    std::fs::write(&trace_path, trace)?;
    let metrics_path = args.out.join("metrics.prom");
    std::fs::write(&metrics_path, metrics.render())?;

    // Disabled tracing must record nothing — the zero-overhead contract the
    // CI smoke job pins.
    let off = lab.load(EngineConfig::new(hw::gh200_gpu()));
    let (id, sql) = selected[0];
    lab.run(&off, sql);
    assert!(!off.trace().enabled(), "default sink must be off");
    assert_eq!(
        off.trace().events_recorded(),
        0,
        "Q{id}: disabled sink recorded events"
    );
    writeln!(
        out,
        "\ntrace-off check: 0 events recorded on an untraced run of Q{id}"
    )?;
    writeln!(
        out,
        "wrote {} and {} — load trace.json at https://ui.perfetto.dev",
        trace_path.display(),
        metrics_path.display()
    )
}
