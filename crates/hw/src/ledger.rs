//! Per-device simulated-time accounting with operator-category attribution.
//!
//! The paper's Figure 5 breaks Sirius query time into join / group-by /
//! filter / aggregation / order-by / other, and Table 2 breaks distributed
//! time into compute / exchange / other. The ledger records exactly those
//! attributions as work is charged.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sirius_trace::{EventKind, Lane, TraceEvent, TraceSink};
use std::sync::Arc;
use std::time::Duration;

/// Operator categories matching the paper's breakdown figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CostCategory {
    /// Table scan read passes (the source read of a pipeline).
    Scan,
    /// Predicate evaluation and selection.
    Filter,
    /// Hash/sort joins (build + probe).
    Join,
    /// Group-by (keyed aggregation).
    GroupBy,
    /// Ungrouped aggregation.
    Aggregate,
    /// Sorting / order-by / top-k.
    OrderBy,
    /// Projection and scalar expression evaluation.
    Project,
    /// Host↔device and node↔node data movement.
    Exchange,
    /// Planning, coordination, dispatch, result return.
    Other,
}

impl CostCategory {
    /// All categories, in display order.
    pub const ALL: [CostCategory; 9] = [
        CostCategory::Scan,
        CostCategory::Filter,
        CostCategory::Join,
        CostCategory::GroupBy,
        CostCategory::Aggregate,
        CostCategory::OrderBy,
        CostCategory::Project,
        CostCategory::Exchange,
        CostCategory::Other,
    ];

    /// Short name used by the harness output and as a trace event's `cat`.
    /// It is never a kernel label: every charge names its own kernel.
    pub fn label(&self) -> &'static str {
        match self {
            CostCategory::Scan => "scan",
            CostCategory::Filter => "filter",
            CostCategory::Join => "join",
            CostCategory::GroupBy => "group-by",
            CostCategory::Aggregate => "aggregate",
            CostCategory::OrderBy => "order-by",
            CostCategory::Project => "project",
            CostCategory::Exchange => "exchange",
            CostCategory::Other => "other",
        }
    }

    /// Inverse of [`label`](Self::label) — used when replaying trace events
    /// (which carry the label, not the enum) back through a ledger.
    pub fn from_label(label: &str) -> Option<CostCategory> {
        CostCategory::ALL
            .iter()
            .copied()
            .find(|c| c.label() == label)
    }
}

/// `c`'s slot in a breakdown: [`CostCategory::ALL`] is declaration order.
fn index_of(c: CostCategory) -> usize {
    c as usize
}

/// A snapshot of accumulated time per category.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    nanos: [u64; 9],
}

impl TimeBreakdown {
    /// Time attributed to one category.
    pub fn get(&self, c: CostCategory) -> Duration {
        Duration::from_nanos(self.nanos[index_of(c)])
    }

    /// Total time across all categories.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// Non-zero `(category, duration)` entries in display order.
    pub fn entries(&self) -> Vec<(CostCategory, Duration)> {
        CostCategory::ALL
            .iter()
            .zip(self.nanos.iter())
            .filter(|(_, n)| **n > 0)
            .map(|(c, n)| (*c, Duration::from_nanos(*n)))
            .collect()
    }

    /// Add a duration to a category.
    pub fn add(&mut self, c: CostCategory, d: Duration) {
        self.nanos[index_of(c)] += d.as_nanos() as u64;
    }

    /// Element-wise sum of two breakdowns.
    pub fn merge(&self, other: &TimeBreakdown) -> TimeBreakdown {
        let mut out = self.clone();
        for (a, b) in out.nanos.iter_mut().zip(other.nanos.iter()) {
            *a += *b;
        }
        out
    }

    /// Difference `self - earlier` (for scoped measurement). Saturates at 0.
    pub fn since(&self, earlier: &TimeBreakdown) -> TimeBreakdown {
        let mut out = TimeBreakdown::default();
        for (i, o) in out.nanos.iter_mut().enumerate() {
            *o = self.nanos[i].saturating_sub(earlier.nanos[i]);
        }
        out
    }
}

/// Ledger state: a serial lane plus any number of concurrent stream lanes.
///
/// Serial charges model work on the device's default stream (planning,
/// transfers, single-threaded sections). Stream charges model kernels issued
/// concurrently by morsel workers, replayed onto their lanes from the
/// workers' recordings: lanes run in parallel, so only the
/// *longest* lane contributes wall-clock time. [`CostLedger::sync_streams`]
/// is the simulated `cudaDeviceSynchronize()` — it folds `max(streams)` into
/// the serial lane and clears the lanes.
#[derive(Debug, Clone, Default)]
struct LedgerState {
    serial: TimeBreakdown,
    streams: Vec<TimeBreakdown>,
    /// Event recorder. Off (no allocation, single branch) unless a profiler
    /// attached one via [`CostLedger::set_trace`]. Events are recorded
    /// *inside* the ledger's critical section, so their global sequence
    /// numbers equal the true mutation order and replay is exact.
    trace: TraceSink,
    /// A recording ledger's serial charges, in order ([`CostLedger::recording`]).
    log: Option<ChargeLog>,
}

/// One serial-lane charge as a recording ledger received it: what
/// [`crate::Device::replay`] charges again, in order, onto another device.
#[derive(Debug, Clone)]
pub struct Charge {
    pub(crate) category: CostCategory,
    /// The kernel label, kept only when the replay target is traced (a label
    /// is read by nothing but trace events, so an unkept one replays empty).
    pub(crate) label: Option<String>,
    pub(crate) d: Duration,
    pub(crate) bytes: u64,
    pub(crate) rows: u64,
}

#[derive(Debug, Clone)]
struct ChargeLog {
    labels: bool,
    charges: Vec<Charge>,
}

impl LedgerState {
    /// Overlap-attributed view: serial time plus the in-flight stream time.
    ///
    /// The streams' wall-clock contribution is `max(stream totals)`; that
    /// span is attributed to categories proportionally to each category's
    /// share of the summed stream work, with the rounding remainder pinned
    /// to the largest category so the snapshot's total is *exactly*
    /// `serial + max(streams)`.
    fn attributed(&self) -> TimeBreakdown {
        self.serial.merge(&attribute_overlap(&self.streams))
    }

    /// Record `d` under `category` on `lane` — the one place a charge lands.
    /// A traced kernel starts where its lane's previous kernel ended: the
    /// settled serial time, plus a stream lane's in-flight total.
    fn add(
        &mut self,
        lane: Lane,
        category: CostCategory,
        label: &str,
        d: Duration,
        bytes: u64,
        rows: u64,
    ) {
        let stream = match lane {
            Lane::Serial => None,
            Lane::Stream(s) => Some(s as usize),
        };
        if let Some(s) = stream.filter(|&s| s >= self.streams.len()) {
            self.streams.resize(s + 1, TimeBreakdown::default());
        }
        if self.trace.enabled() && !d.is_zero() {
            let in_flight = stream.map_or(0, |s| self.streams[s].nanos.iter().sum::<u64>());
            self.trace.emit(TraceEvent {
                seq: 0,
                kind: EventKind::Kernel,
                lane,
                cat: category.label(),
                label: label.to_string(),
                ts: self.serial.nanos.iter().sum::<u64>() + in_flight,
                dur: d.as_nanos() as u64,
                bytes,
                rows,
                node: None,
                depth: 0,
            });
        }
        match stream {
            Some(s) => self.streams[s].add(category, d),
            None => {
                if let Some(log) = &mut self.log {
                    let label = log.labels.then(|| label.to_string());
                    log.charges.push(Charge {
                        category,
                        label,
                        d,
                        bytes,
                        rows,
                    });
                }
                self.serial.add(category, d);
            }
        }
    }
}

/// Fold a set of concurrently-running lanes into their wall-clock
/// contribution: `max(lane totals)`, attributed across categories in
/// proportion to each category's share of the summed lane work, with the
/// rounding remainder pinned to the largest category so the result totals
/// *exactly* the longest lane. The stream sync uses this within one
/// ledger; the multi-query server (`sirius-serve`) uses it *across*
/// per-query ledgers, treating each query's wave delta as one lane of a
/// shared device.
pub fn attribute_overlap(streams: &[TimeBreakdown]) -> TimeBreakdown {
    let max: u64 = streams
        .iter()
        .map(|s| s.nanos.iter().sum())
        .max()
        .unwrap_or(0);
    if max == 0 {
        return TimeBreakdown::default();
    }
    let mut summed = [0u64; 9];
    for s in streams {
        for (acc, n) in summed.iter_mut().zip(s.nanos.iter()) {
            *acc += *n;
        }
    }
    let sum: u64 = summed.iter().sum();
    let mut nanos = [0u64; 9];
    for (out, raw) in nanos.iter_mut().zip(summed.iter()) {
        *out = (*raw as u128 * max as u128 / sum as u128) as u64;
    }
    let assigned: u64 = nanos.iter().sum();
    let largest = summed
        .iter()
        .enumerate()
        .max_by_key(|(_, n)| **n)
        .map_or(0, |(i, _)| i);
    nanos[largest] += max - assigned;
    TimeBreakdown { nanos }
}

/// Thread-safe accumulating ledger; cheap to clone (shared state). A
/// [`crate::Device`] owns one, and charges reach it only through the device.
#[derive(Clone, Default)]
pub(crate) struct CostLedger {
    inner: Arc<Mutex<LedgerState>>,
}

impl CostLedger {
    /// A fresh ledger that also logs every serial-lane charge, in order, for
    /// [`take_log`](Self::take_log); `labels` keeps each charge's kernel
    /// label. Its own clock runs as any ledger's does, so lane metering
    /// inside the recording reads what it would read live.
    pub(crate) fn recording(labels: bool) -> CostLedger {
        let log = Some(ChargeLog {
            labels,
            // Room for a typical leaf's kernels without regrowing.
            charges: Vec::with_capacity(8),
        });
        let state = LedgerState {
            log,
            ..LedgerState::default()
        };
        CostLedger {
            inner: Arc::new(Mutex::new(state)),
        }
    }

    /// Drain the charges logged so far (empty unless [`recording`](Self::recording)).
    pub(crate) fn take_log(&self) -> Vec<Charge> {
        let mut state = self.inner.lock();
        state
            .log
            .as_mut()
            .map(|log| std::mem::take(&mut log.charges))
            .unwrap_or_default()
    }

    /// Attach (or detach, with [`TraceSink::off`]) an event recorder. All
    /// clones of this ledger share it; [`reset`](Self::reset) keeps it.
    pub fn set_trace(&self, sink: TraceSink) {
        self.inner.lock().trace = sink;
    }

    /// Handle to the attached event recorder (disabled by default).
    pub fn trace(&self) -> TraceSink {
        self.inner.lock().trace.clone()
    }

    /// Record `d` under `category` on `lane`; a traced ledger emits a kernel
    /// event named `label` carrying `bytes` and `rows`. Stream lanes
    /// overlap: only the longest adds wall-clock time until the next
    /// [`sync_streams`](Self::sync_streams).
    pub fn add(
        &self,
        lane: Lane,
        category: CostCategory,
        label: &str,
        d: Duration,
        bytes: u64,
        rows: u64,
    ) {
        self.inner.lock().add(lane, category, label, d, bytes, rows);
    }

    /// Record each of `charges` on `lane`, in order, under one lock.
    pub(crate) fn add_charges(&self, lane: Lane, charges: &[Charge]) {
        let mut state = self.inner.lock();
        for c in charges {
            let label = c.label.as_deref().unwrap_or_default();
            state.add(lane, c.category, label, c.d, c.bytes, c.rows);
        }
    }

    /// Synchronize: fold the overlapped stream time into the serial lane and
    /// clear the lanes. Returns the wall-clock time the barrier accounted
    /// for (the longest lane's total).
    pub fn sync_streams(&self) -> Duration {
        let mut state = self.inner.lock();
        let folded = attribute_overlap(&state.streams);
        let wall = folded.total();
        if state.trace.enabled() && !wall.is_zero() {
            state.trace.emit(TraceEvent {
                seq: 0,
                kind: EventKind::Sync,
                lane: Lane::Serial,
                cat: "marker",
                label: "sync_streams".to_string(),
                ts: state.serial.nanos.iter().sum(),
                dur: wall.as_nanos() as u64,
                bytes: 0,
                rows: 0,
                node: None,
                depth: 0,
            });
        }
        state.serial = state.serial.merge(&folded);
        state.streams.clear();
        wall
    }

    /// Total simulated wall-clock time: serial plus the longest in-flight
    /// stream lane.
    pub fn total(&self) -> Duration {
        self.inner.lock().attributed().total()
    }

    /// Overlap-attributed copy of the current breakdown. Its total always
    /// equals [`total`](Self::total).
    pub fn snapshot(&self) -> TimeBreakdown {
        self.inner.lock().attributed()
    }

    /// Clear all accumulated time on every lane. The attached trace sink
    /// (and its buffered events) survives — resetting the clock between a
    /// cold and a hot run must not silently detach the profiler.
    pub fn reset(&self) {
        let mut state = self.inner.lock();
        state.serial = TimeBreakdown::default();
        state.streams.clear();
    }
}

/// Rebuild a breakdown by replaying trace events through a fresh ledger.
///
/// Kernel events re-charge their lane; sync markers fold the streams, just
/// like the live run. Because events are recorded inside the live ledger's
/// critical section (sequence order = mutation order), the replayed
/// snapshot reconciles with the live [`crate::Device::breakdown`] to the
/// nanosecond — including the overlap-attribution rounding.
pub fn replay(events: &[TraceEvent]) -> TimeBreakdown {
    let ledger = CostLedger::default();
    let mut ordered: Vec<&TraceEvent> = events.iter().collect();
    ordered.sort_by_key(|e| e.seq);
    for ev in ordered {
        match ev.kind {
            EventKind::Kernel => {
                let Some(cat) = CostCategory::from_label(ev.cat) else {
                    continue;
                };
                let d = Duration::from_nanos(ev.dur);
                ledger.add(ev.lane, cat, &ev.label, d, ev.bytes, ev.rows);
            }
            EventKind::Sync => {
                ledger.sync_streams();
            }
            EventKind::Span | EventKind::Instant => {}
        }
    }
    ledger.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial(l: &CostLedger, category: CostCategory, d: Duration) {
        l.add(Lane::Serial, category, "test.serial", d, 0, 0);
    }

    fn on_stream(l: &CostLedger, stream: u32, category: CostCategory, d: Duration) {
        l.add(Lane::Stream(stream), category, "test.stream", d, 0, 0);
    }

    #[test]
    fn breakdown_accumulates_per_category() {
        let l = CostLedger::default();
        serial(&l, CostCategory::Join, Duration::from_millis(5));
        serial(&l, CostCategory::Join, Duration::from_millis(3));
        serial(&l, CostCategory::Filter, Duration::from_millis(2));
        let b = l.snapshot();
        assert_eq!(b.get(CostCategory::Join), Duration::from_millis(8));
        assert_eq!(b.get(CostCategory::Filter), Duration::from_millis(2));
        assert_eq!(b.total(), Duration::from_millis(10));
        assert_eq!(b.entries().len(), 2);
    }

    #[test]
    fn since_subtracts() {
        let l = CostLedger::default();
        serial(&l, CostCategory::Exchange, Duration::from_millis(4));
        let t0 = l.snapshot();
        serial(&l, CostCategory::Exchange, Duration::from_millis(6));
        serial(&l, CostCategory::Other, Duration::from_millis(1));
        let delta = l.snapshot().since(&t0);
        assert_eq!(delta.get(CostCategory::Exchange), Duration::from_millis(6));
        assert_eq!(delta.get(CostCategory::Other), Duration::from_millis(1));
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = TimeBreakdown::default();
        a.add(CostCategory::GroupBy, Duration::from_millis(1));
        let mut b = TimeBreakdown::default();
        b.add(CostCategory::GroupBy, Duration::from_millis(2));
        b.add(CostCategory::OrderBy, Duration::from_millis(3));
        let m = a.merge(&b);
        assert_eq!(m.get(CostCategory::GroupBy), Duration::from_millis(3));
        assert_eq!(m.get(CostCategory::OrderBy), Duration::from_millis(3));
    }

    #[test]
    fn equal_streams_overlap_perfectly() {
        let l = CostLedger::default();
        for s in 0..4 {
            on_stream(&l, s, CostCategory::Filter, Duration::from_millis(10));
        }
        // Four balanced lanes take the wall time of one.
        assert_eq!(l.total(), Duration::from_millis(10));
        let b = l.snapshot();
        assert_eq!(b.get(CostCategory::Filter), Duration::from_millis(10));
    }

    #[test]
    fn elapsed_is_serial_plus_longest_stream() {
        let l = CostLedger::default();
        serial(&l, CostCategory::Exchange, Duration::from_millis(5));
        on_stream(&l, 0, CostCategory::Join, Duration::from_millis(8));
        on_stream(&l, 1, CostCategory::Join, Duration::from_millis(2));
        assert_eq!(l.total(), Duration::from_millis(13));
        // Snapshot total always matches the wall-clock total exactly.
        assert_eq!(l.snapshot().total(), l.total());
    }

    #[test]
    fn overlap_attribution_is_proportional() {
        let l = CostLedger::default();
        // Stream 0: 6ms filter; stream 1: 2ms filter + 4ms join. Both lanes
        // total 6ms, so wall time is 6ms, split 8:4 across categories.
        on_stream(&l, 0, CostCategory::Filter, Duration::from_millis(6));
        on_stream(&l, 1, CostCategory::Filter, Duration::from_millis(2));
        on_stream(&l, 1, CostCategory::Join, Duration::from_millis(4));
        let b = l.snapshot();
        assert_eq!(b.total(), Duration::from_millis(6));
        assert_eq!(b.get(CostCategory::Filter), Duration::from_millis(4));
        assert_eq!(b.get(CostCategory::Join), Duration::from_millis(2));
    }

    #[test]
    fn sync_streams_folds_and_clears() {
        let l = CostLedger::default();
        on_stream(&l, 0, CostCategory::GroupBy, Duration::from_millis(7));
        on_stream(&l, 1, CostCategory::GroupBy, Duration::from_millis(3));
        let wall = l.sync_streams();
        assert_eq!(wall, Duration::from_millis(7));
        assert_eq!(l.total(), Duration::from_millis(7));
        // Lanes are clear: new stream work starts a fresh overlap window.
        on_stream(&l, 1, CostCategory::GroupBy, Duration::from_millis(5));
        assert_eq!(l.total(), Duration::from_millis(12));
        // Syncing with no in-flight work is free.
        l.sync_streams();
        assert_eq!(l.sync_streams(), Duration::ZERO);
        assert_eq!(l.total(), Duration::from_millis(12));
    }

    #[test]
    fn serialized_sections_still_sum() {
        // Two serial charges never overlap, matching the old behavior.
        let l = CostLedger::default();
        serial(&l, CostCategory::Filter, Duration::from_millis(4));
        serial(&l, CostCategory::Join, Duration::from_millis(6));
        assert_eq!(l.total(), Duration::from_millis(10));
    }

    #[test]
    fn all_labels_unique() {
        let mut labels: Vec<_> = CostCategory::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), CostCategory::ALL.len());
    }

    #[test]
    fn from_label_inverts_label() {
        for c in CostCategory::ALL {
            assert_eq!(CostCategory::from_label(c.label()), Some(c));
        }
        assert_eq!(CostCategory::from_label("marker"), None);
    }

    // -- trace hooks ------------------------------------------------------

    #[test]
    fn traced_charges_replay_to_the_exact_snapshot() {
        let l = CostLedger::default();
        let sink = TraceSink::new();
        l.set_trace(sink.clone());
        serial(&l, CostCategory::Other, Duration::from_nanos(101));
        // Unbalanced lanes with mixed categories force attribution rounding.
        on_stream(&l, 0, CostCategory::Filter, Duration::from_nanos(997));
        on_stream(&l, 1, CostCategory::Filter, Duration::from_nanos(331));
        on_stream(&l, 1, CostCategory::Join, Duration::from_nanos(333));
        l.sync_streams();
        on_stream(&l, 2, CostCategory::GroupBy, Duration::from_nanos(7));
        let live = l.snapshot();
        let replayed = replay(&sink.events());
        assert_eq!(replayed, live);
        assert_eq!(replayed.total(), l.total());
    }

    #[test]
    fn trace_timestamps_are_lane_local_and_monotone() {
        let l = CostLedger::default();
        let sink = TraceSink::new();
        l.set_trace(sink.clone());
        serial(&l, CostCategory::Other, Duration::from_nanos(100));
        on_stream(&l, 0, CostCategory::Filter, Duration::from_nanos(40));
        on_stream(&l, 0, CostCategory::Filter, Duration::from_nanos(40));
        on_stream(&l, 1, CostCategory::Filter, Duration::from_nanos(60));
        l.sync_streams();
        serial(&l, CostCategory::Other, Duration::from_nanos(10));
        let evs = sink.events();
        // serial @0, s0 @100, s0 @140, s1 @100, sync @100 (dur 80),
        // serial @180.
        assert_eq!(evs[0].ts, 0);
        assert_eq!(evs[1].ts, 100);
        assert_eq!(evs[2].ts, 140);
        assert_eq!(evs[3].ts, 100);
        assert_eq!(evs[4].kind, EventKind::Sync);
        assert_eq!(evs[4].ts, 100);
        assert_eq!(evs[4].dur, 80);
        assert_eq!(evs[5].ts, 180);
        let json = sirius_trace::chrome::export("ledger", &evs);
        sirius_trace::chrome::validate_json(&json, &["filter", "other", "marker"]).unwrap();
    }

    #[test]
    fn reset_keeps_the_attached_sink() {
        let l = CostLedger::default();
        l.set_trace(TraceSink::new());
        serial(&l, CostCategory::Filter, Duration::from_nanos(5));
        l.reset();
        assert_eq!(l.total(), Duration::ZERO);
        assert!(l.trace().enabled());
        assert_eq!(l.trace().events_recorded(), 1, "events survive the reset");
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let l = CostLedger::default();
        serial(&l, CostCategory::Filter, Duration::from_nanos(5));
        on_stream(&l, 0, CostCategory::Join, Duration::from_nanos(5));
        l.sync_streams();
        assert!(!l.trace().enabled());
        assert_eq!(l.trace().events_recorded(), 0);
    }

    #[test]
    fn a_category_indexes_its_slot_in_all() {
        for (i, c) in CostCategory::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?}");
        }
    }

    // -- attribute_overlap rounding (satellite) ----------------------------

    use proptest::prelude::*;

    fn lanes_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
        proptest::collection::vec(proptest::collection::vec(0u64..50_000, 9..10), 0..6)
    }

    fn breakdowns(lanes: &[Vec<u64>]) -> Vec<TimeBreakdown> {
        lanes
            .iter()
            .map(|l| {
                let mut nanos = [0u64; 9];
                nanos.copy_from_slice(l);
                TimeBreakdown { nanos }
            })
            .collect()
    }

    proptest! {
        /// The attributed overlap total is *exactly* `max(lane totals)` for
        /// arbitrary lane contents — the proportional split never loses or
        /// invents a nanosecond to rounding.
        #[test]
        fn overlap_attribution_total_is_exactly_max_lane(lanes in lanes_strategy()) {
            let streams = breakdowns(&lanes);
            let max: u64 = streams
                .iter()
                .map(|s| s.nanos.iter().sum::<u64>())
                .max()
                .unwrap_or(0);
            let folded = attribute_overlap(&streams);
            prop_assert_eq!(folded.total(), Duration::from_nanos(max));
        }

        /// Through the public API: snapshot total == serial + max(streams),
        /// with a serial lane in play too.
        #[test]
        fn snapshot_total_is_serial_plus_max_stream(
            serial_ns in 0u64..100_000,
            lanes in lanes_strategy(),
        ) {
            let l = CostLedger::default();
            serial(&l, CostCategory::Other, Duration::from_nanos(serial_ns));
            let mut max = 0u64;
            for (s, lane) in (0..).zip(&lanes) {
                for (i, n) in lane.iter().enumerate() {
                    on_stream(&l, s, CostCategory::ALL[i], Duration::from_nanos(*n));
                }
                max = max.max(lane.iter().sum());
            }
            prop_assert_eq!(l.snapshot().total(), Duration::from_nanos(serial_ns + max));
            prop_assert_eq!(l.total(), l.snapshot().total());
        }
    }

    #[test]
    fn overlap_attribution_all_equal_largest_category_tie() {
        // Every category contributes the same amount: lanes chosen so each
        // category's proportional share rounds down and the remainder lands
        // on the tie-broken "largest" category. The total must still be
        // exactly max(lanes).
        let mut lanes = Vec::new();
        for _ in 0..9 {
            lanes.push(TimeBreakdown { nanos: [7; 9] });
        }
        let folded = attribute_overlap(&lanes);
        assert_eq!(folded.total(), Duration::from_nanos(7 * 9));
        // And the 1-lane degenerate tie: everything maps back unchanged.
        let one = [TimeBreakdown { nanos: [3; 9] }];
        let folded = attribute_overlap(&one);
        assert_eq!(folded.total(), Duration::from_nanos(27));
        assert_eq!(folded, one[0]);
    }
}
