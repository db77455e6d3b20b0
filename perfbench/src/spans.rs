//! Harness-side spans for the traced run: one record per call into a layer
//! (name, start, end, the span that caused it, the op it belongs to), kept
//! in memory and written as Chrome-trace JSON when the run ends. All spans
//! are recorded by the single client thread, so "the span that caused it"
//! is simply the innermost open span.

use crate::json;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps (`sql.bind`, `core.step`, …).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one op (0 for pass-level spans).
    pub op: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with [`exit`].
    ///
    /// [`exit`]: Tracer::exit
    pub fn enter(&mut self, name: &'static str, op: u32) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` and any span still open inside it (an op that
    /// panicked leaves its inner spans open; they end with their parent).
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = end;
            if open == id {
                break;
            }
        }
    }

    /// Record `f` as a childless span.
    pub fn leaf<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name over the spans in `range` (one pass: a
    /// root span and everything under it): each span's duration minus the
    /// part its direct children cover, summed over spans of that name.
    pub fn self_ns_by_name(&self, range: Range<usize>) -> BTreeMap<&'static str, u64> {
        self_ns_by_name(&self.spans, range)
    }

    /// Chrome-trace ("Trace Event Format") JSON, loadable in Perfetto or
    /// `chrome://tracing`: one complete (`X`) event per span, microsecond
    /// timestamps, parent index and op id in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"perf\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                json::string(s.name),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                i,
                s.parent.map_or(-1, |p| p as i64),
                s.op,
            ));
        }
        out.push_str("]}");
        out
    }
}

fn self_ns_by_name(spans: &[Span], range: Range<usize>) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in &spans[range.clone()] {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for i in range {
        let s = &spans[i];
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ execute [10,90) ⊃ step [20,50), step [50,80)
        let spans = vec![
            span("op", 0, 100, None),
            span("execute", 10, 90, Some(0)),
            span("step", 20, 50, Some(1)),
            span("step", 50, 80, Some(1)),
        ];
        let t = self_ns_by_name(&spans, 0..spans.len());
        assert_eq!(t["op"], 20, "grandchildren are not subtracted twice");
        assert_eq!(t["execute"], 20);
        assert_eq!(t["step"], 60);
        assert_eq!(
            t.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut t = Tracer::new();
        let op = t.enter("op", 7);
        let x = t.leaf("sql.bind", 7, || 41 + 1);
        assert_eq!(x, 42);
        let ex = t.enter("core.execute", 7);
        t.leaf("core.step", 7, || ());
        t.exit(ex);
        t.exit(op);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.op == 7));
        let total: u64 = t.self_ns_by_name(0..spans.len()).values().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);

        let parsed = json::parse(&t.to_chrome_json()).expect("chrome trace is JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert_eq!(events.len(), 4);
        for e in events {
            assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("X"));
            assert!(e.get("ts").and_then(|p| p.as_f64()).is_some());
            assert!(e.get("dur").and_then(|p| p.as_f64()).is_some());
        }
    }
}
