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
use std::borrow::Cow;
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

/// One metric's series with their values, sorted by label set: the order
/// `render` prints them in.
type Family<V> = Vec<(LabelSet, V)>;

#[derive(Default)]
struct Registry {
    counters: BTreeMap<Metric, Family<u64>>,
    gauges: BTreeMap<Metric, Family<f64>>,
}

/// Shared metrics registry; cheap to clone.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Registry>>,
}

/// The value of `metric`'s series under `label_pairs`, created as `init` on
/// first use, refusing a metric declared as another kind than the emit
/// method's. An existing series is found by the borrowed labels; only a new
/// one copies them.
fn slot<'r, V>(
    families: &'r mut BTreeMap<Metric, Family<V>>,
    metric: Metric,
    kind: Kind,
    label_pairs: &[(&str, &str)],
    init: V,
) -> &'r mut V {
    assert_eq!(
        metric.kind,
        kind,
        "{} is declared a {} and cannot be emitted as a {}",
        metric.name,
        metric.kind.as_str(),
        kind.as_str()
    );
    let family = families.entry(metric).or_default();
    let i = match family.binary_search_by(|(ls, _)| pairs(ls).cmp(label_pairs.iter().copied())) {
        Ok(i) => i,
        Err(i) => {
            let labels = (label_pairs.iter())
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            family.insert(i, (labels, init));
            i
        }
    };
    &mut family[i].1
}

/// The value of the series `name` under exactly `label_pairs`, if any.
fn find<V: Copy>(
    families: &BTreeMap<Metric, Family<V>>,
    name: &str,
    label_pairs: &[(&str, &str)],
) -> Option<V> {
    let mut all = families.iter().filter(|(m, _)| m.name == name);
    all.find_map(|(_, family)| {
        let mut series = family.iter();
        series.find(|(ls, _)| pairs(ls).eq(label_pairs.iter().copied()))
    })
    .map(|(_, v)| *v)
}

/// A stored label set as borrowed pairs, comparable with an emit's.
fn pairs(ls: &LabelSet) -> impl Iterator<Item = (&str, &str)> {
    ls.iter().map(|(k, v)| (k.as_str(), v.as_str()))
}

fn render_labels(ls: &LabelSet) -> String {
    if ls.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = ls.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", parts.join(","))
}

/// A small id (a node or rank) as label text. Ids below 16 are static, so
/// a per-query emit with them allocates nothing; larger ones are formatted.
pub fn id_label(id: usize) -> Cow<'static, str> {
    const IDS: [&str; 16] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
    ];
    IDS.get(id)
        .map_or_else(|| id.to_string().into(), |&s| s.into())
}

/// Append one family: its `# HELP` and `# TYPE` lines, then its series.
fn render_family<V>(
    out: &mut String,
    metric: &Metric,
    family: &Family<V>,
    value: impl Fn(&V) -> String,
) {
    let name = metric.name;
    let _ = writeln!(out, "# HELP {name} {}", metric.help);
    let _ = writeln!(out, "# TYPE {name} {}", metric.kind.as_str());
    for (ls, v) in family {
        let _ = writeln!(out, "{name}{} {}", render_labels(ls), value(v));
    }
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
        let mut reg = self.inner.lock();
        *slot(&mut reg.counters, metric, Kind::Counter, label_pairs, 0) += v;
    }

    /// Increment a counter by one.
    pub fn counter_inc(&self, metric: Metric, label_pairs: &[(&str, &str)]) {
        self.counter_add(metric, label_pairs, 1);
    }

    /// Set a gauge to `v`.
    pub fn gauge_set(&self, metric: Metric, label_pairs: &[(&str, &str)], v: f64) {
        let mut reg = self.inner.lock();
        *slot(&mut reg.gauges, metric, Kind::Gauge, label_pairs, v) = v;
    }

    /// Raise a gauge to `v` if `v` exceeds its current value (high-watermark
    /// semantics).
    pub fn gauge_max(&self, metric: Metric, label_pairs: &[(&str, &str)], v: f64) {
        let mut reg = self.inner.lock();
        let slot = slot(&mut reg.gauges, metric, Kind::Gauge, label_pairs, f64::MIN);
        if v > *slot {
            *slot = v;
        }
    }

    /// Current value of the counter named `name` (0 if never touched).
    pub fn counter_value(&self, name: &str, label_pairs: &[(&str, &str)]) -> u64 {
        find(&self.inner.lock().counters, name, label_pairs).unwrap_or(0)
    }

    /// Current value of the gauge named `name` (`None` if never set —
    /// unlike counters, gauges have no meaningful zero).
    pub fn gauge_value(&self, name: &str, label_pairs: &[(&str, &str)]) -> Option<f64> {
        find(&self.inner.lock().gauges, name, label_pairs)
    }

    /// Render the Prometheus text exposition format: counter families, then
    /// gauge families, each in name order, each announced by its `# HELP`
    /// and `# TYPE` lines before its first series.
    pub fn render(&self) -> String {
        let reg = self.inner.lock();
        let mut out = String::new();
        for (metric, family) in &reg.counters {
            render_family(&mut out, metric, family, u64::to_string);
        }
        for (metric, family) in &reg.gauges {
            render_family(&mut out, metric, family, |v| num(*v));
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
    fn id_labels_are_the_decimal_id() {
        for id in [0, 7, 15, 16, 1234] {
            assert_eq!(id_label(id), id.to_string());
        }
        assert!(matches!(id_label(15), Cow::Borrowed("15")));
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
