//! # sirius-hw — simulated hardware substrate
//!
//! The Sirius paper evaluates on real NVIDIA hardware (a GH200 superchip and a
//! cluster of four A100 nodes). This crate replaces that hardware with an
//! *analytical device model*: a catalog of published device specifications
//! ([`catalog`]), a cost model that converts operator work profiles into
//! simulated nanoseconds ([`cost`]), a per-device time ledger with category
//! attribution ([`ledger`]), and the hardware-trend time series behind the
//! paper's Figure 1 and Table 1 ([`trends`]).
//!
//! Every relational operator in the workspace executes for real on the host
//! CPU, but *charges* its work (bytes streamed, random accesses, rows
//! produced, kernels launched) to a [`Device`], under a cost category and
//! the name of the kernel that did it. The simulated elapsed time is
//! what the benchmark harness reports, because the paper's headline results
//! are bandwidth-ratio results: a Hopper GPU streams memory at ~3 TB/s while
//! the cost-equivalent CPU instance streams at ~0.4 TB/s, and TPC-H operators
//! are overwhelmingly bandwidth-bound.
//!
//! ```
//! use sirius_hw::{catalog, Device, WorkProfile, CostCategory};
//!
//! let gpu = Device::new(catalog::gh200_gpu());
//! gpu.charge(
//!     CostCategory::Filter,
//!     "filter.apply",
//!     &WorkProfile::scan(1 << 30).with_rows(1 << 27),
//! );
//! assert!(gpu.elapsed().as_nanos() > 0);
//! ```

#![warn(missing_docs)]
// No panic is reachable from a charge: the ledger's arithmetic is total.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod catalog;
pub mod cost;
pub mod fault;
pub mod ledger;
pub mod link;
pub mod spec;
pub mod trends;

pub use cost::{CostModel, WorkProfile};
pub use fault::{FaultAction, FaultInjector, FaultPlan, FaultSite, FaultSpec};
pub use ledger::{attribute_overlap, replay, Charge, CostCategory, TimeBreakdown};
pub use link::{Link, LinkSpec};
pub use sirius_trace::{Lane, TraceConfig, TraceSink};
pub use spec::{DeviceKind, DeviceSpec};

use ledger::CostLedger;
use std::sync::Arc;
use std::time::Duration;

/// A simulated execution device: a specification plus an accumulating time
/// ledger. Cloning shares the ledger (a device handle can be passed to many
/// operators).
///
/// Every charge names its kernel: [`charge`](Device::charge) prices a work
/// profile, [`charge_duration`](Device::charge_duration) takes a duration
/// priced elsewhere, and both take the cost category the time is attributed
/// to (a trace event's `cat`) and the kernel label (its name).
///
/// A device charges its serial lane (the default stream: charges add up).
/// Work that runs off the thread owning the program order charges a
/// [`recorder`](Device::recorder) instead, and that thread
/// [`replay`](Device::replay)s the recording onto an explicit lane: charges
/// on different stream lanes overlap, and only the longest stream contributes
/// wall-clock time until [`sync_streams`](Device::sync_streams) (the
/// simulated `cudaDeviceSynchronize()`) folds them in.
#[derive(Clone)]
pub struct Device {
    spec: Arc<DeviceSpec>,
    ledger: CostLedger,
}

impl Device {
    /// Create a device from a specification with an empty ledger.
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            spec: Arc::new(spec),
            ledger: CostLedger::default(),
        }
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Synchronize all streams: fold the overlapped stream time into the
    /// serial lane and return the wall-clock time the in-flight streams
    /// accounted for (their longest lane).
    pub fn sync_streams(&self) -> Duration {
        self.ledger.sync_streams()
    }

    /// Charge one kernel's work to the ledger under `category` and return
    /// its simulated duration. When a trace sink is attached, the kernel
    /// event is named `label` (e.g. `"join.probe"`) and carries the
    /// profile's bytes and rows.
    pub fn charge(&self, category: CostCategory, label: &str, work: &WorkProfile) -> Duration {
        let d = CostModel::kernel_time(&self.spec, work);
        let bytes = work.bytes_streamed + work.bytes_random;
        self.charge_duration(category, label, d, bytes, work.rows);
        d
    }

    /// Charge an explicit duration named `label`, with bytes/rows for the
    /// trace event: time computed against a [`Link`] rather than the device
    /// (transfers, spill tiers, exchanges) or a fixed overhead.
    pub fn charge_duration(
        &self,
        category: CostCategory,
        label: &str,
        d: Duration,
        bytes: u64,
        rows: u64,
    ) {
        self.ledger
            .add(Lane::Serial, category, label, d, bytes, rows);
    }

    /// A device with this one's spec and a fresh ledger that logs every
    /// charge: work computed off this device's thread charges a recorder,
    /// and whoever owns the program order [`replay`](Self::replay)s the
    /// [`take_log`](Self::take_log) onto this device where the work sat, so
    /// its ledger and trace read as if the work had run here. The recorder's
    /// own [`elapsed`](Self::elapsed) is the lane its work will occupy.
    /// Labels are kept only if this device is traced.
    pub fn recorder(&self) -> Device {
        Device {
            spec: Arc::clone(&self.spec),
            ledger: CostLedger::recording(self.trace().enabled()),
        }
    }

    /// Drain the charges a [`recorder`](Self::recorder) logged, in order.
    pub fn take_log(&self) -> Vec<Charge> {
        self.ledger.take_log()
    }

    /// Charge each recorded charge onto `lane` of this device, in order,
    /// exactly as the recorder received it. The only way onto a stream lane.
    pub fn replay(&self, lane: Lane, charges: &[Charge]) {
        self.ledger.add_charges(lane, charges);
    }

    /// Attach (or detach) a trace event recorder to this device's ledger.
    /// Shared by all clones; survives [`reset`](Self::reset).
    pub fn set_trace(&self, sink: TraceSink) {
        self.ledger.set_trace(sink);
    }

    /// Handle to the attached trace recorder (disabled by default).
    pub fn trace(&self) -> TraceSink {
        self.ledger.trace()
    }

    /// Total simulated time accumulated on this device.
    pub fn elapsed(&self) -> Duration {
        self.ledger.total()
    }

    /// Snapshot of the per-category breakdown.
    pub fn breakdown(&self) -> TimeBreakdown {
        self.ledger.snapshot()
    }

    /// Reset the ledger (e.g. between the cold and hot run of a query).
    pub fn reset(&self) {
        self.ledger.reset();
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("spec", &self.spec.name)
            .field("elapsed", &self.elapsed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_accumulates_time() {
        let d = Device::new(catalog::gh200_gpu());
        assert_eq!(d.elapsed(), Duration::ZERO);
        d.charge(
            CostCategory::Filter,
            "test.filter",
            &WorkProfile::scan(1 << 20),
        );
        let t1 = d.elapsed();
        assert!(t1 > Duration::ZERO);
        d.charge(CostCategory::Join, "test.join", &WorkProfile::scan(1 << 20));
        assert!(d.elapsed() > t1);
    }

    #[test]
    fn clone_shares_ledger() {
        let d = Device::new(catalog::gh200_gpu());
        let d2 = d.clone();
        d2.charge(CostCategory::Other, "test.other", &WorkProfile::scan(4096));
        assert_eq!(d.elapsed(), d2.elapsed());
        assert!(d.elapsed() > Duration::ZERO);
    }

    #[test]
    fn reset_clears() {
        let d = Device::new(catalog::m7i_16xlarge());
        d.charge(
            CostCategory::Aggregate,
            "test.aggregate",
            &WorkProfile::scan(1 << 22),
        );
        d.reset();
        assert_eq!(d.elapsed(), Duration::ZERO);
        assert!(d.breakdown().entries().is_empty());
    }

    #[test]
    fn stream_handles_overlap_until_sync() {
        let d = Device::new(catalog::gh200_gpu());
        let w = WorkProfile::scan(1 << 24);
        let per_kernel = CostModel::kernel_time(d.spec(), &w);
        let rec = d.recorder();
        rec.charge(CostCategory::Filter, "test.filter", &w);
        let log = rec.take_log();
        for s in 0..4 {
            d.replay(Lane::Stream(s), &log);
        }
        // Four streams doing identical work take the wall time of one.
        assert_eq!(d.elapsed(), per_kernel);
        let wall = d.sync_streams();
        assert_eq!(wall, per_kernel);
        // After sync the time is settled in the serial lane.
        assert_eq!(d.elapsed(), per_kernel);
        // A serial charge after sync adds on top.
        d.charge(CostCategory::Other, "test.other", &w);
        assert_eq!(d.elapsed(), per_kernel * 2);
    }

    /// Charges made on a recorder and replayed read, in the ledger and in
    /// the trace, exactly as if they had been charged live at that point;
    /// replayed onto a stream lane, they start where the lane's previous
    /// charge ended, on top of the settled serial time.
    #[test]
    fn a_replayed_recording_reads_as_the_live_charges() {
        let traced = || {
            let d = Device::new(catalog::gh200_gpu());
            d.set_trace(TraceSink::new());
            d
        };
        let (live, replayed) = (traced(), traced());
        let work = |bytes| WorkProfile::scan(bytes).with_rows(7);
        for d in [&live, &replayed] {
            d.charge(CostCategory::Join, "join.build", &work(1 << 20));
        }
        live.charge(CostCategory::Other, "test.other", &work(4096));
        live.charge(CostCategory::Exchange, "spill.pinned.write", &work(1 << 16));
        let rec = replayed.recorder();
        let first = rec.charge(CostCategory::Other, "test.other", &work(4096));
        assert_eq!(rec.elapsed(), first, "a recorder keeps its own clock");
        let second = rec.charge(CostCategory::Exchange, "spill.pinned.write", &work(1 << 16));
        assert!(!rec.trace().enabled(), "a recorder traces nothing itself");
        let log = rec.take_log();
        replayed.replay(Lane::Serial, &log);
        assert!(rec.take_log().is_empty(), "the log drains");
        assert_eq!(replayed.breakdown(), live.breakdown());
        let events = |d: &Device| -> Vec<_> {
            let evs = d.trace().events().into_iter();
            evs.map(|e| (e.lane, e.cat, e.label, e.ts, e.dur, e.bytes, e.rows))
                .collect()
        };
        assert_eq!(events(&replayed), events(&live));

        let settled = replayed.elapsed();
        replayed.replay(Lane::Stream(3), &log);
        assert_eq!(replayed.elapsed(), settled + first + second);
        let on_stream: Vec<_> = events(&replayed)
            .into_iter()
            .filter(|e| e.0 == Lane::Stream(3))
            .map(|(_, cat, label, ts, dur, ..)| (cat, label, ts, dur))
            .collect();
        let (at, nanos) = (settled.as_nanos() as u64, |d: Duration| d.as_nanos() as u64);
        let expected = [
            ("other", "test.other".to_string(), at, nanos(first)),
            (
                "exchange",
                "spill.pinned.write".to_string(),
                at + nanos(first),
                nanos(second),
            ),
        ];
        assert_eq!(on_stream, expected);
        assert_eq!(replayed.sync_streams(), first + second);
        assert_eq!(
            ledger::replay(&replayed.trace().events()),
            replayed.breakdown()
        );
    }

    #[test]
    fn gpu_is_faster_than_cpu_on_scans() {
        let gpu = Device::new(catalog::gh200_gpu());
        let cpu = Device::new(catalog::m7i_16xlarge());
        let w = WorkProfile::scan(1 << 30);
        let tg = gpu.charge(CostCategory::Filter, "test.filter", &w);
        let tc = cpu.charge(CostCategory::Filter, "test.filter", &w);
        assert!(tc > tg, "cpu {tc:?} should exceed gpu {tg:?}");
        // The bandwidth ratio is roughly 3000/~400; efficiency factors narrow
        // it, but a large scan should still be >4x faster on the GPU.
        assert!(tc.as_nanos() > 4 * tg.as_nanos());
    }
}
