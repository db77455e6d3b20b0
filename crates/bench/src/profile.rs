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
use sirius_trace::metrics::{Metric, MetricsRegistry};
use sirius_trace::{chrome, EventKind, TraceEvent};
use std::io::{self, Write};

const LAUNCHES: Metric = Metric::counter(
    "sirius_kernel_launches_total",
    "Kernel events by cost category.",
);
const KERNEL_BYTES: Metric = Metric::counter(
    "sirius_kernel_bytes_total",
    "Bytes moved by kernel events, by category.",
);
const SPILL_BYTES: Metric = Metric::counter(
    "sirius_spill_bytes_total",
    "Bytes written to or read from spill tiers.",
);
const POOL_HWM: Metric = Metric::gauge(
    "sirius_pool_hwm_bytes",
    "Processing-pool high watermark across the run.",
);
const QUERY_SIM_NS: Metric =
    Metric::gauge("sirius_query_sim_ns", "Simulated device time per query.");

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

        // Spill is published at 0 when nothing spilled, so a scraper can
        // tell "no spill" from "not exported".
        let mut spilled = 0;
        for ev in events.iter().filter(|ev| ev.kind == EventKind::Kernel) {
            metrics.counter_inc(LAUNCHES, &[("cat", ev.cat)]);
            metrics.counter_add(KERNEL_BYTES, &[("cat", ev.cat)], ev.bytes);
            if ev.label.starts_with("spill.") {
                spilled += ev.bytes;
            }
        }
        metrics.counter_add(SPILL_BYTES, &[], spilled);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_args;

    /// Every metric `profile` declares, in the README table's order.
    const METRICS: [Metric; 5] = [LAUNCHES, KERNEL_BYTES, SPILL_BYTES, POOL_HWM, QUERY_SIM_NS];

    /// One query on a tiny lab: `metrics.prom` holds exactly the declared
    /// families with their declared kinds — spill included, at 0, although
    /// nothing spills at full memory — and README's table lists each one.
    #[test]
    fn every_declared_metric_is_emitted_documented_and_nothing_else() {
        let out = std::env::temp_dir().join(format!("sirius-profile-{}", std::process::id()));
        let argv = ["profile", "--query", "6", "--out"].map(String::from);
        let argv = argv.into_iter().chain([out.display().to_string()]);
        let args = parse_args(argv, None).unwrap().1;
        profile(&Lab::new(0.001), &args, &mut Vec::new()).unwrap();
        let rendered = std::fs::read_to_string(out.join("metrics.prom")).unwrap();
        std::fs::remove_dir_all(&out).unwrap();

        let mut emitted: Vec<(&str, &str)> = rendered
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' '))
            .collect();
        let mut declared: Vec<(&str, &str)> =
            METRICS.iter().map(|m| (m.name, m.kind.as_str())).collect();
        emitted.sort();
        declared.sort();
        assert_eq!(emitted, declared, "emitted families != declared metrics");
        assert!(rendered.contains("\nsirius_spill_bytes_total 0\n"));

        let readme = include_str!("../../../README.md");
        for m in METRICS {
            let row = format!("| `{}` | {} | {} |", m.name, m.kind.as_str(), m.help);
            assert!(
                readme.contains(&row),
                "README.md Metrics table lacks: {row}"
            );
        }
    }
}
