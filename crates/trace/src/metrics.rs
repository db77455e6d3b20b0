//! A small Prometheus-text metrics registry.
//!
//! A metric is one [`Metric`] constant that carries its name, kind and help
//! text (`const ADMITTED: Metric = Metric::counter("…_total", "…")`). The
//! registry's emit methods take that handle, render `# HELP` / `# TYPE`
//! from it, and refuse a handle of the other kind, so an emit site cannot
//! change what a metric is. Counters and gauges carry label sets and are
//! rendered in the Prometheus text exposition format (`render`). Shared and
//! thread-safe; cloning a [`MetricsRegistry`] shares the underlying state,
//! so every node/engine handle feeds one snapshot.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// What a metric's samples mean, as Prometheus' `# TYPE` line names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A monotone total; emitted with `counter_add` / `counter_inc`.
    Counter,
    /// A value that is set, not summed; emitted with `gauge_set` / `gauge_max`.
    Gauge,
}

impl Kind {
    /// The Prometheus type name: `counter` or `gauge`.
    pub const fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One metric, declared once as a `const`: everything the registry renders
/// about it besides its samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Metric {
    /// The family name, e.g. `sirius_serve_admitted_total`.
    pub name: &'static str,
    /// Counter or gauge; the emit methods refuse the other kind.
    pub kind: Kind,
    /// The `# HELP` text.
    pub help: &'static str,
}

impl Metric {
    /// Declare a counter.
    pub const fn counter(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            kind: Kind::Counter,
            help,
        }
    }

    /// Declare a gauge.
    pub const fn gauge(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            kind: Kind::Gauge,
            help,
        }
    }
}

type LabelSet = Vec<(String, String)>;

/// One time series: a metric and its label set. Ordered by metric name
/// first, so a family's series render together.
type Series = (Metric, LabelSet);

#[derive(Default)]
struct Registry {
    counters: BTreeMap<Series, u64>,
    gauges: BTreeMap<Series, f64>,
}

/// Shared metrics registry; cheap to clone.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Registry>>,
}

/// The series `metric` emits under `label_pairs`, refusing a metric
/// declared as another kind than the emit method's.
fn series(metric: Metric, kind: Kind, label_pairs: &[(&str, &str)]) -> Series {
    assert_eq!(
        metric.kind,
        kind,
        "{} is declared a {} and cannot be emitted as a {}",
        metric.name,
        metric.kind.as_str(),
        kind.as_str()
    );
    let labels = label_pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    (metric, labels)
}

/// Whether `series` is `name` under exactly `label_pairs`.
fn is(series: &Series, name: &str, label_pairs: &[(&str, &str)]) -> bool {
    let (metric, labels) = series;
    metric.name == name
        && labels.len() == label_pairs.len()
        && labels
            .iter()
            .zip(label_pairs)
            .all(|((k, v), (pk, pv))| k == pk && v == pv)
}

fn render_labels(ls: &LabelSet) -> String {
    if ls.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = ls.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", parts.join(","))
}

/// Render a float the way Prometheus expects (no exponent for simple
/// values, `+Inf` spelled out).
fn num(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to a counter.
    pub fn counter_add(&self, metric: Metric, label_pairs: &[(&str, &str)], v: u64) {
        let key = series(metric, Kind::Counter, label_pairs);
        *self.inner.lock().counters.entry(key).or_insert(0) += v;
    }

    /// Increment a counter by one.
    pub fn counter_inc(&self, metric: Metric, label_pairs: &[(&str, &str)]) {
        self.counter_add(metric, label_pairs, 1);
    }

    /// Set a gauge to `v`.
    pub fn gauge_set(&self, metric: Metric, label_pairs: &[(&str, &str)], v: f64) {
        let key = series(metric, Kind::Gauge, label_pairs);
        self.inner.lock().gauges.insert(key, v);
    }

    /// Raise a gauge to `v` if `v` exceeds its current value (high-watermark
    /// semantics).
    pub fn gauge_max(&self, metric: Metric, label_pairs: &[(&str, &str)], v: f64) {
        let key = series(metric, Kind::Gauge, label_pairs);
        let mut reg = self.inner.lock();
        let slot = reg.gauges.entry(key).or_insert(f64::MIN);
        if v > *slot {
            *slot = v;
        }
    }

    /// Current value of the counter named `name` (0 if never touched).
    pub fn counter_value(&self, name: &str, label_pairs: &[(&str, &str)]) -> u64 {
        let reg = self.inner.lock();
        let mut all = reg.counters.iter();
        all.find(|(s, _)| is(s, name, label_pairs))
            .map_or(0, |(_, v)| *v)
    }

    /// Current value of the gauge named `name` (`None` if never set —
    /// unlike counters, gauges have no meaningful zero).
    pub fn gauge_value(&self, name: &str, label_pairs: &[(&str, &str)]) -> Option<f64> {
        let reg = self.inner.lock();
        let mut all = reg.gauges.iter();
        all.find(|(s, _)| is(s, name, label_pairs)).map(|(_, v)| *v)
    }

    /// Render the Prometheus text exposition format: counter families, then
    /// gauge families, each in name order, each announced by its `# HELP`
    /// and `# TYPE` lines before its first series.
    pub fn render(&self) -> String {
        let reg = self.inner.lock();
        let counters = reg.counters.iter().map(|(s, v)| (s, v.to_string()));
        let gauges = reg.gauges.iter().map(|(s, v)| (s, num(*v)));
        let mut out = String::new();
        let mut family = None;
        for ((metric, ls), value) in counters.chain(gauges) {
            let name = metric.name;
            if family != Some(metric) {
                family = Some(metric);
                let _ = writeln!(out, "# HELP {name} {}", metric.help);
                let _ = writeln!(out, "# TYPE {name} {}", metric.kind.as_str());
            }
            let _ = writeln!(out, "{name}{} {value}", render_labels(ls));
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MetricsRegistry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RETRIES: Metric = Metric::counter("sirius_retries_total", "Retries.");
    const HWM: Metric = Metric::gauge("hwm", "High watermark.");

    #[test]
    fn counters_accumulate_per_label_set() {
        let m = MetricsRegistry::new();
        m.counter_inc(RETRIES, &[("query", "q6")]);
        m.counter_add(RETRIES, &[("query", "q6")], 2);
        m.counter_inc(RETRIES, &[("query", "q1")]);
        assert_eq!(
            m.counter_value("sirius_retries_total", &[("query", "q6")]),
            3
        );
        assert_eq!(
            m.counter_value("sirius_retries_total", &[("query", "q1")]),
            1
        );
        assert_eq!(
            m.counter_value("sirius_retries_total", &[("query", "q9")]),
            0
        );
    }

    #[test]
    fn render_is_prometheus_text_format() {
        const LAUNCHES: Metric =
            Metric::counter("sirius_kernel_launches_total", "Kernels launched.");
        const POOL_HWM: Metric = Metric::gauge("sirius_pool_hwm_bytes", "Pool high watermark.");
        let m = MetricsRegistry::new();
        m.counter_add(LAUNCHES, &[("cat", "filter")], 7);
        m.counter_add(LAUNCHES, &[("cat", "join")], 2);
        m.gauge_set(POOL_HWM, &[], 1048576.0);
        assert_eq!(
            m.render(),
            "# HELP sirius_kernel_launches_total Kernels launched.\n\
             # TYPE sirius_kernel_launches_total counter\n\
             sirius_kernel_launches_total{cat=\"filter\"} 7\n\
             sirius_kernel_launches_total{cat=\"join\"} 2\n\
             # HELP sirius_pool_hwm_bytes Pool high watermark.\n\
             # TYPE sirius_pool_hwm_bytes gauge\n\
             sirius_pool_hwm_bytes 1048576\n"
        );
    }

    #[test]
    fn gauge_max_keeps_high_watermark() {
        let m = MetricsRegistry::new();
        m.gauge_max(HWM, &[], 10.0);
        m.gauge_max(HWM, &[], 4.0);
        m.gauge_max(HWM, &[], 12.0);
        assert!(m.render().contains("hwm 12"));
    }

    #[test]
    #[should_panic(expected = "hwm is declared a gauge and cannot be emitted as a counter")]
    fn a_metric_is_emitted_only_as_its_declared_kind() {
        MetricsRegistry::new().counter_inc(HWM, &[]);
    }
}
