//! # sirius-trace — simulated-clock span/event recorder
//!
//! The workspace charges every operator's work to a simulated device clock
//! (`sirius-hw`). This crate records *events* against that clock: which
//! kernel ran on which stream at what simulated nanosecond, how long it
//! took, and how many bytes/rows it moved. Three consumers sit on top:
//!
//! 1. [`chrome`] — a Chrome-trace / Perfetto JSON exporter keyed by
//!    simulated nanoseconds, one track per device stream plus display lanes
//!    for spill tiers and exchange links;
//! 2. an `EXPLAIN ANALYZE`-style renderer in `sirius-core` built on the
//!    per-operator spans recorded here;
//! 3. [`metrics`] — typed metric constants (`Metric`: name, kind, help)
//!    and the Prometheus-text `MetricsRegistry` that serve, the Doris
//!    coordinator and `repro profile` emit them into.
//!
//! Tracing is zero-cost when disabled: a [`TraceSink`] is an
//! `Option<Arc<..>>` internally, so the disabled path is a single branch
//! and performs **no allocation** — [`TraceSink::events_recorded`] stays at
//! zero, which the CI profile job asserts.
//!
//! Timestamps are **simulated** nanoseconds (the device ledger's clock),
//! not wall-clock time: a trace is exactly reproducible run-to-run, and
//! replaying its kernel events through a fresh ledger reconciles with the
//! live `TimeBreakdown` to the nanosecond (`sirius_hw::ledger::replay`).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod chrome;
pub mod metrics;

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which ledger lane an event was charged on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// The device's default stream: charges add up serially.
    Serial,
    /// A numbered concurrent stream: charges overlap until a sync.
    Stream(u32),
}

/// What kind of event was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A kernel (or link transfer) charged to the device ledger.
    Kernel,
    /// A stream barrier (`sync_streams`): folds the overlapped stream time
    /// into the serial lane. `dur` is the wall time the barrier accounted
    /// for (the longest in-flight lane).
    Sync,
    /// An operator span opened by the engine (scan / filter / join-build /
    /// join-probe / group-by / sort / spill-partition / ...).
    Span,
    /// A zero-duration lifecycle marker (retry, reschedule, fallback, ...).
    Instant,
}

/// One recorded event on the simulated clock.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Global sequence number, assigned by [`TraceSink::emit`]: replaying
    /// events in `seq` order through a fresh ledger reproduces the live
    /// ledger state exactly.
    pub seq: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Ledger lane the event was charged on.
    pub lane: Lane,
    /// Cost category label (`sirius_hw::CostCategory::label`), or a
    /// consumer-defined category for spans/instants (`"op"`, `"lifecycle"`).
    pub cat: &'static str,
    /// Kernel / operator / marker name (e.g. `"filter.apply"`,
    /// `"spill.pinned.write"`, `"exchange.shuffle"`).
    pub label: String,
    /// Simulated start time, nanoseconds on the device clock.
    pub ts: u64,
    /// Simulated duration, nanoseconds. Zero only for [`EventKind::Instant`].
    pub dur: u64,
    /// Bytes moved by the event (0 when not applicable).
    pub bytes: u64,
    /// Rows processed/produced by the event (0 when not applicable).
    pub rows: u64,
    /// Plan-node id for operator spans, if the event belongs to one.
    pub node: Option<u32>,
    /// Plan-tree depth for operator spans (the exporter fans spans out to
    /// one display track per depth, so nested spans never share a track);
    /// 0 for every other kind.
    pub depth: u32,
}

/// Whether tracing is enabled for an engine/device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceConfig {
    /// No recording: every instrumentation site is a single branch and no
    /// trace memory is ever allocated.
    #[default]
    Off,
    /// Record kernel events, operator spans, and lifecycle markers.
    On,
}

impl TraceConfig {
    /// Build the sink matching this config.
    pub fn sink(self) -> TraceSink {
        match self {
            TraceConfig::Off => TraceSink::off(),
            TraceConfig::On => TraceSink::new(),
        }
    }
}

/// Serial shard plus one shard per low-numbered stream; higher streams hash
/// onto the last shard. Events carry a global `seq`, so shard assignment is
/// display-irrelevant — it only spreads lock traffic.
const SHARDS: usize = 9;

struct SinkInner {
    seq: AtomicU64,
    shards: [Mutex<Vec<TraceEvent>>; SHARDS],
}

/// A shared, lock-cheap event recorder. Cloning shares the buffer.
///
/// A disabled sink (`TraceSink::off()` / `TraceConfig::Off`) holds no
/// allocation at all; every [`TraceSink::emit`] returns after one branch.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

impl TraceSink {
    /// An enabled sink with an empty buffer.
    pub fn new() -> Self {
        TraceSink {
            inner: Some(Arc::new(SinkInner {
                seq: AtomicU64::new(0),
                shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            })),
        }
    }

    /// The disabled sink: records nothing, allocates nothing.
    pub fn off() -> Self {
        TraceSink { inner: None }
    }

    /// True if events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn shard_for(lane: Lane) -> usize {
        match lane {
            Lane::Serial => 0,
            Lane::Stream(s) => 1 + (s as usize).min(SHARDS - 2),
        }
    }

    /// Record `event` under the next global sequence number (the `seq` it
    /// carries is overwritten), on its lane's shard. A zero-duration
    /// [`EventKind::Span`] is dropped: an operator that charged nothing has
    /// nothing to show, and every exported `"X"` event keeps a nonzero
    /// `dur`.
    ///
    /// Callers that mutate a shared clock (the hw ledger) call this while
    /// holding the clock's lock, so `seq` order equals true mutation order
    /// and replay is exact.
    #[inline]
    pub fn emit(&self, mut event: TraceEvent) {
        let Some(inner) = &self.inner else { return };
        if event.kind == EventKind::Span && event.dur == 0 {
            return;
        }
        event.seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        inner.shards[Self::shard_for(event.lane)].lock().push(event);
    }

    /// Number of events recorded so far (0 for a disabled sink — the CI
    /// zero-allocation assertion reads this).
    pub fn events_recorded(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.shards.iter().map(|s| s.lock().len() as u64).sum(),
        }
    }

    /// Snapshot of all events, sorted by global sequence number.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.sorted(|shard| shard.clone())
    }

    /// Drain all events (sorted by sequence number), leaving the buffer
    /// empty but the sink enabled.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.sorted(std::mem::take)
    }

    /// What `take` returns of each shard, sorted by sequence number.
    fn sorted(&self, take: impl Fn(&mut Vec<TraceEvent>) -> Vec<TraceEvent>) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out: Vec<TraceEvent> = inner
            .shards
            .iter()
            .flat_map(|s| take(&mut s.lock()))
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Discard all buffered events.
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            for s in &inner.shards {
                s.lock().clear();
            }
        }
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.enabled())
            .field("events", &self.events_recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: EventKind, lane: Lane, label: &str, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            seq: 0,
            kind,
            lane,
            cat: "join",
            label: label.to_string(),
            ts,
            dur,
            bytes: 0,
            rows: 0,
            node: None,
            depth: 0,
        }
    }

    fn kernel(lane: Lane, label: &str, dur: u64) -> TraceEvent {
        event(EventKind::Kernel, lane, label, 0, dur)
    }

    #[test]
    fn off_sink_records_nothing() {
        let s = TraceSink::off();
        assert!(!s.enabled());
        s.emit(kernel(Lane::Serial, "k", 10));
        s.emit(event(EventKind::Instant, Lane::Serial, "retry", 5, 0));
        assert_eq!(s.events_recorded(), 0);
        assert!(s.events().is_empty());
        assert!(s.drain().is_empty());
    }

    #[test]
    fn default_config_is_off() {
        assert_eq!(TraceConfig::default(), TraceConfig::Off);
        assert!(!TraceConfig::Off.sink().enabled());
        assert!(TraceConfig::On.sink().enabled());
    }

    #[test]
    fn events_come_back_in_seq_order() {
        let s = TraceSink::new();
        // Interleave lanes so shards fill out of order.
        s.emit(kernel(Lane::Stream(1), "a", 5));
        s.emit(kernel(Lane::Serial, "b", 1));
        s.emit(kernel(Lane::Stream(0), "c", 7));
        s.emit(event(EventKind::Sync, Lane::Serial, "sync", 1, 7));
        let evs = s.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(evs[0].label, "a");
        assert_eq!(evs[3].kind, EventKind::Sync);
        assert_eq!(s.events_recorded(), 4);
    }

    #[test]
    fn emit_drops_an_empty_span_keeps_an_instant_and_numbers_what_it_keeps() {
        let s = TraceSink::new();
        let span = |label, dur| TraceEvent {
            node: Some(3),
            depth: 2,
            ..event(EventKind::Span, Lane::Serial, label, 4, dur)
        };
        s.emit(TraceEvent {
            seq: 99,
            ..span("empty", 0)
        });
        s.emit(event(EventKind::Instant, Lane::Serial, "retry", 4, 0));
        s.emit(span("scan", 6));
        s.emit(kernel(Lane::Stream(2), "probe", 0));
        let evs = s.drain();
        let kept: Vec<_> = evs
            .iter()
            .map(|e| (e.seq, e.label.as_str(), e.dur))
            .collect();
        assert_eq!(kept, [(0, "retry", 0), (1, "scan", 6), (2, "probe", 0)]);
        assert_eq!((evs[1].node, evs[1].depth), (Some(3), 2));
    }

    #[test]
    fn clones_share_the_buffer_and_drain_empties_it() {
        let s = TraceSink::new();
        let s2 = s.clone();
        s2.emit(TraceEvent {
            bytes: 64,
            rows: 8,
            ..kernel(Lane::Serial, "k", 3)
        });
        assert_eq!(s.events_recorded(), 1);
        let drained = s.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].bytes, 64);
        assert_eq!(drained[0].rows, 8);
        assert_eq!(s2.events_recorded(), 0);
        assert!(s2.enabled(), "drain keeps the sink enabled");
    }

    #[test]
    fn high_stream_ids_hash_onto_the_last_shard() {
        let s = TraceSink::new();
        for stream in [0u32, 7, 63, 1000] {
            s.emit(kernel(Lane::Stream(stream), "k", 1));
        }
        assert_eq!(s.events().len(), 4);
    }
}
