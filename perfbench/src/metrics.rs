//! The declared metric catalog: every name `perf` prints, with its unit and
//! direction, in the order it is printed. `BENCHMARK.json` lists the same
//! names (a unit test keeps the two in step); `README.md` says what each
//! one measures and which end-to-end metric it should move.

use crate::json;
use std::collections::BTreeMap;

/// Which way is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees; printed by the untraced run
/// (`--trace 0`) on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("wall_qps", "ops/s", Higher),
    m("sim_qps", "ops/s", Higher),
    m("sim_p95_ms", "ms", Lower),
    m("peak_heap_mb", "MB", Lower),
    m("allocs_per_op", "count", Lower),
];

/// Single-layer metrics; printed by the traced run (`--trace 1`) on every
/// workload, 0 where the workload does not reach the layer.
pub const PER_LAYER: &[MetricDef] = &[
    // set-up, by layer
    m("tpch.gen_s", "s", Lower),
    m("exec_cpu.oracle_s", "s", Lower),
    m("core.load_s", "s", Lower),
    // SQL frontend and plan layer (host time per pass)
    m("sql.lex_parse_us", "us", Lower),
    m("sql.bind_us", "us", Lower),
    m("sql.optimize_us", "us", Lower),
    m("plan.validate_us", "us", Lower),
    m("plan.fingerprint_us", "us", Lower),
    // engine: host time and scheduler counts per pass
    m("core.compile_us", "us", Lower),
    m("core.execute_ms", "ms", Lower),
    m("core.waves", "count", Lower),
    m("core.pipelines_run", "count", Lower),
    m("core.morsels", "count", Lower),
    m("core.tasks", "count", Lower),
    m("core.kernel_launches", "count", Lower),
    m("core.wall_us_per_kernel", "us", Lower),
    // kernel library: direct probes, host throughput
    m("cudf.row_keys_mrows_s", "Mrows/s", Higher),
    m("cudf.join_build_mrows_s", "Mrows/s", Higher),
    m("cudf.join_probe_mrows_s", "Mrows/s", Higher),
    m("cudf.groupby_mrows_s", "Mrows/s", Higher),
    m("cudf.filter_mrows_s", "Mrows/s", Higher),
    m("cudf.gather_mrows_s", "Mrows/s", Higher),
    m("cudf.sort_mrows_s", "Mrows/s", Higher),
    m("cudf.partition_mrows_s", "Mrows/s", Higher),
    // modelled device: simulated time of one pass by cost category
    m("hw.sim_join_ns", "ns", Lower),
    m("hw.sim_groupby_ns", "ns", Lower),
    m("hw.sim_filter_ns", "ns", Lower),
    m("hw.sim_scan_ns", "ns", Lower),
    m("hw.sim_aggregate_ns", "ns", Lower),
    m("hw.sim_orderby_ns", "ns", Lower),
    m("hw.sim_project_ns", "ns", Lower),
    m("hw.sim_exchange_ns", "ns", Lower),
    m("hw.sim_other_ns", "ns", Lower),
    m("hw.sim_geomean_vs_duckdb", "ratio", Higher),
    // memory pools and spill tiers
    m("rmm.pool_hwm_mb", "MB", Lower),
    m("rmm.fragmentation", "ratio", Lower),
    m("rmm.demoted_mb", "MB", Lower),
    m("spill.to_pinned_mb", "MB", Lower),
    m("spill.to_disk_mb", "MB", Lower),
    m("spill.read_back_mb", "MB", Lower),
    m("spill.partitions", "count", Lower),
    m("spill.max_depth", "count", Lower),
    // serving layer
    m("serve.replay_ms_per_req", "ms", Lower),
    m("serve.overhead_ratio", "ratio", Lower),
    m("serve.resolve_hit_us", "us", Lower),
    m("serve.resolve_miss_us", "us", Lower),
    m("serve.cache_hit_ratio", "ratio", Higher),
    m("serve.cache_evictions", "count", Lower),
    m("serve.replans", "count", Lower),
    m("serve.waves", "count", Lower),
    m("serve.peak_in_flight", "count", Higher),
    m("serve.max_queue_depth", "count", Lower),
    m("serve.sim_queue_wait_p95_ms", "ms", Lower),
    // distributed layer
    m("doris.distribute_us", "us", Lower),
    m("doris.overhead_ratio", "ratio", Lower),
    m("doris.coordinator_sim_ms", "ms", Lower),
    m("doris.retries", "count", Lower),
    m("nccl.wire_mb", "MB", Lower),
    m("nccl.dict_mb", "MB", Lower),
    m("nccl.shuffle_mb_s", "MB/s", Higher),
    // harness diagnostics
    m("alloc.resident_mb", "MB", Lower),
    m("alloc.bytes_per_op", "B", Lower),
    m("wall.pass_p50_ms", "ms", Lower),
    m("wall.pass_p90_ms", "ms", Lower),
    m("wall.noise_ratio", "ratio", Lower),
    m("trace.overhead_ratio", "ratio", Lower),
];

/// Measured values by declared name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under `name`, which must be declared above.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`, 0 if none was.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Whether a value was recorded under `name`.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// Fold another set of values into this one.
    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of `catalog` once.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalog: &[MetricDef],
    values: &Values,
) -> String {
    let metrics: Vec<String> = catalog
        .iter()
        .map(|d| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(d.name),
                json::number(values.get(d.name)),
                json::string(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Human-readable table of `catalog` (stderr companion of the JSON line).
pub fn table(catalog: &[MetricDef], values: &Values) -> String {
    catalog
        .iter()
        .map(|d| {
            format!(
                "  {:<28} {:>16.4} {:<8} ({} is better)\n",
                d.name,
                values.get(d.name),
                d.unit,
                d.better.as_str()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use std::collections::BTreeSet;

    fn names(catalog: &[MetricDef]) -> Vec<&'static str> {
        catalog.iter().map(|d| d.name).collect()
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<_> = names(END_TO_END)
            .into_iter()
            .chain(names(PER_LAYER))
            .collect();
        let unique: BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "a name is used once");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_parses_and_holds_every_declared_name_once() {
        for catalog in [END_TO_END, PER_LAYER] {
            let mut values = Values::default();
            for (i, d) in catalog.iter().enumerate() {
                values.set(d.name, i as f64 + 0.1234567);
            }
            let line = result_line(true, 528, 0, catalog, &values);
            assert!(!line.contains('\n'), "one line");
            let v = parse(&line).expect("result line is JSON");
            let keys: Vec<_> = v
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(v.get("attempted"), Some(&Value::Num(528.0)));
            assert_eq!(v.get("failed"), Some(&Value::Num(0.0)));
            let metrics = v.get("metrics").and_then(Value::as_object).unwrap();
            let printed: Vec<_> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                printed,
                names(catalog),
                "every declared name exactly once, in order"
            );
            for ((_, body), (i, d)) in metrics.iter().zip(catalog.iter().enumerate()) {
                assert_eq!(body.get("unit").and_then(Value::as_str), Some(d.unit));
                assert_eq!(
                    body.get("value").and_then(Value::as_f64),
                    Some(i as f64 + 0.1234567)
                );
            }
        }
    }

    /// `BENCHMARK.json` at the repo root must declare exactly this catalog.
    #[test]
    fn benchmark_json_declares_the_same_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Value::as_array).unwrap();
            assert_eq!(listed.len(), catalog.len(), "{key}: same number of metrics");
            for (entry, d) in listed.iter().zip(catalog) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(d.unit));
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(d.better.as_str())
                );
            }
        }
        let workloads: Vec<_> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
