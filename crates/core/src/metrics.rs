//! Per-query execution reports: the data behind Figure 5 and Table 2.

use sirius_hw::{CostCategory, TimeBreakdown};
use sirius_rmm::PoolStats;
use sirius_spill::SpillStats;
use std::time::Duration;

/// Morsel-scheduler counters: how a query's work was partitioned and how
/// evenly it landed on the device streams. Monotonic (like the time
/// ledger); per-query numbers come from [`MorselStats::since`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MorselStats {
    /// Pipelines the scheduler actually executed (one increment per
    /// pipeline per query — the runtime mirror of
    /// `SiriusEngine::pipeline_count`).
    pub pipelines_run: u64,
    /// Morsels the sources were partitioned into.
    pub morsels: u64,
    /// Tasks dispatched through the global queue (one per morsel per
    /// pipeline wave, plus singleton tasks like join build sides).
    pub tasks: u64,
    /// Tasks dispatched per device stream (round-robin by morsel index).
    pub tasks_per_stream: Vec<u64>,
}

impl MorselStats {
    /// Counters accumulated since `before` was snapshotted.
    ///
    /// The per-stream vectors may have different lengths when the engine's
    /// worker count changed between the snapshots; both are treated as
    /// zero-extended to the longer length so no stream's delta is silently
    /// dropped.
    pub fn since(&self, before: &MorselStats) -> MorselStats {
        let lanes = self
            .tasks_per_stream
            .len()
            .max(before.tasks_per_stream.len());
        let mut tasks_per_stream: Vec<u64> = self.tasks_per_stream.clone();
        tasks_per_stream.resize(lanes, 0);
        for (i, b) in before.tasks_per_stream.iter().enumerate() {
            tasks_per_stream[i] = tasks_per_stream[i].saturating_sub(*b);
        }
        MorselStats {
            pipelines_run: self.pipelines_run.saturating_sub(before.pipelines_run),
            morsels: self.morsels.saturating_sub(before.morsels),
            tasks: self.tasks.saturating_sub(before.tasks),
            tasks_per_stream,
        }
    }

    /// How evenly tasks spread over the streams: mean over max of the
    /// per-stream task counts, in `[0, 1]`, normalized by the number of
    /// streams that *could* have received work — `min(streams, tasks)`.
    /// A 2-task query on a 4-stream engine can only ever occupy two lanes,
    /// so a perfect round-robin of it reports `1.0`, not `0.5`. `1.0` is a
    /// perfectly balanced fan-out; `0.0` means no tasks ran at all.
    ///
    /// When a server interleaves queries, each query's counters are sized
    /// by *its* lane-capped slice of the shared stream pool (not the whole
    /// pool), so utilization stays attributed per query; the final clamp
    /// keeps mixed-width waves on one counter set inside `[0, 1]`.
    pub fn worker_utilization(&self) -> f64 {
        let max = self.tasks_per_stream.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 0.0;
        }
        let lanes = self.tasks_per_stream.len().min(self.tasks as usize).max(1);
        let sum: u64 = self.tasks_per_stream.iter().sum();
        (sum as f64 / (max as f64 * lanes as f64)).min(1.0)
    }
}

/// Failure, retry, and degradation counters for one query (the recovery
/// half of the Table 2 telemetry). All zeros on a fault-free run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Faults the injector fired while this query ran.
    pub faults_injected: u64,
    /// Full-query retry attempts after retryable (transient) errors.
    pub retries: u64,
    /// Fragment re-schedulings after a node death (dead node's shards
    /// re-partitioned onto the survivors).
    pub reschedules: u64,
    /// Times the cluster world size shrank during this query.
    pub world_shrinks: u64,
    /// `1` if the query ultimately ran on the single-node CPU engine
    /// because the GPU fleet dropped below quorum.
    pub cpu_fallbacks: u64,
    /// Fragments aborted by cancellation propagation (fallout from a
    /// sibling fragment's failure, not root causes).
    pub cancelled_fragments: u64,
    /// Exchange temp tables dropped from the nodes' table stores by failed
    /// attempts (a nonzero value with zero temps live after the query is
    /// the leak-free signature).
    pub temps_reaped: u64,
}

impl RecoveryStats {
    /// Whether anything at all went wrong (and was handled).
    pub fn any(&self) -> bool {
        *self != RecoveryStats::default()
    }

    /// Fold another attempt's counters into this one.
    pub fn absorb(&mut self, other: &RecoveryStats) {
        self.faults_injected += other.faults_injected;
        self.retries += other.retries;
        self.reschedules += other.reschedules;
        self.world_shrinks += other.world_shrinks;
        self.cpu_fallbacks += other.cpu_fallbacks;
        self.cancelled_fragments += other.cancelled_fragments;
        self.temps_reaped += other.temps_reaped;
    }
}

/// What happened during one query execution.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Engine that produced the result (`"sirius"` or the fallback host).
    pub engine: String,
    /// Rows in the result.
    pub rows: usize,
    /// Total simulated time.
    pub elapsed: Duration,
    /// Per-operator-category attribution.
    pub breakdown: TimeBreakdown,
    /// Pipelines of the compiled DAG the GPU run executed (0 when the host
    /// ran the query instead).
    pub pipelines: usize,
    /// Morsels the pipeline sources were partitioned into.
    pub morsels: u64,
    /// Tasks dispatched through the global queue.
    pub tasks: u64,
    /// Worker threads (= device streams) the engine ran with.
    pub workers: usize,
    /// Stream balance in `[0, 1]` (see [`MorselStats::worker_utilization`]).
    pub worker_utilization: f64,
    /// Bytes spilled to the pinned-host tier while this query ran (§3.4).
    pub spilled_pinned_bytes: u64,
    /// Bytes spilled to the disk tier while this query ran.
    pub spilled_disk_bytes: u64,
    /// Spill partitions written (Grace join/group-by partitions, sort runs).
    pub spill_partitions: u64,
    /// Deepest recursive repartitioning level reached (0 = no spilling).
    pub spill_depth: u32,
    /// Processing-pool high watermark, in bytes (peak operator working set).
    pub pool_high_watermark: u64,
    /// Processing-pool fragmentation in `[0, 1]` at query end (share of
    /// free memory outside the largest free block).
    pub pool_fragmentation: f64,
    /// Reason the query fell back to the host, if it did.
    pub fallback_reason: Option<String>,
    /// Failure/retry/degradation counters (all zeros on a fault-free run).
    pub recovery: RecoveryStats,
}

impl QueryReport {
    /// A report with every counter at zero — what a query that never ran a
    /// wave reports, and the base the measured reports fill in with
    /// struct-update syntax.
    pub fn zeroed(engine: impl Into<String>, workers: usize) -> Self {
        QueryReport {
            engine: engine.into(),
            rows: 0,
            elapsed: Duration::ZERO,
            breakdown: TimeBreakdown::default(),
            pipelines: 0,
            morsels: 0,
            tasks: 0,
            workers,
            worker_utilization: 0.0,
            spilled_pinned_bytes: 0,
            spilled_disk_bytes: 0,
            spill_partitions: 0,
            spill_depth: 0,
            pool_high_watermark: 0,
            pool_fragmentation: 0.0,
            fallback_reason: None,
            recovery: RecoveryStats::default(),
        }
    }

    /// The one meter: a GPU run's report from what its ledger
    /// (`breakdown`), morsel scheduler, spill tiers and processing pool
    /// recorded for it.
    pub fn measured(
        workers: usize,
        rows: usize,
        pipelines: usize,
        breakdown: TimeBreakdown,
        morsels: &MorselStats,
        spill: &SpillStats,
        pool: &PoolStats,
    ) -> Self {
        QueryReport {
            rows,
            elapsed: breakdown.total(),
            breakdown,
            pipelines,
            morsels: morsels.morsels,
            tasks: morsels.tasks,
            worker_utilization: morsels.worker_utilization(),
            spilled_pinned_bytes: spill.bytes_to_pinned,
            spilled_disk_bytes: spill.bytes_to_disk,
            spill_partitions: spill.partitions,
            spill_depth: spill.max_depth,
            pool_high_watermark: pool.high_watermark,
            pool_fragmentation: pool.fragmentation(),
            ..QueryReport::zeroed("sirius", workers)
        }
    }

    /// Fraction of total time in `category`, in `[0, 1]`.
    pub fn share(&self, category: CostCategory) -> f64 {
        let total = self.breakdown.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.breakdown.get(category).as_secs_f64() / total
        }
    }

    /// The category consuming the most time.
    pub fn dominant_category(&self) -> Option<CostCategory> {
        CostCategory::ALL
            .iter()
            .copied()
            .max_by(|a, b| self.breakdown.get(*a).cmp(&self.breakdown.get(*b)))
            .filter(|c| self.breakdown.get(*c) > Duration::ZERO)
    }

    /// One-line rendering for harness output.
    pub fn summary(&self) -> String {
        let mut parts: Vec<String> = self
            .breakdown
            .entries()
            .iter()
            .map(|(c, d)| format!("{}={:.2}ms", c.label(), d.as_secs_f64() * 1e3))
            .collect();
        parts.push(format!(
            "morsels={} tasks={} workers={} util={:.0}%",
            self.morsels,
            self.tasks,
            self.workers,
            self.worker_utilization * 100.0
        ));
        if self.spilled_pinned_bytes + self.spilled_disk_bytes > 0 {
            parts.push(format!(
                "spill[pinned={:.1}MiB disk={:.1}MiB parts={} depth={}]",
                self.spilled_pinned_bytes as f64 / (1 << 20) as f64,
                self.spilled_disk_bytes as f64 / (1 << 20) as f64,
                self.spill_partitions,
                self.spill_depth
            ));
        }
        parts.push(format!(
            "pool[hwm={:.1}MiB frag={:.0}%]",
            self.pool_high_watermark as f64 / (1 << 20) as f64,
            self.pool_fragmentation * 100.0
        ));
        if self.recovery.any() {
            parts.push(format!(
                "recovery[faults={} retries={} resched={} shrinks={} cpu={} cancelled={} reaped={}]",
                self.recovery.faults_injected,
                self.recovery.retries,
                self.recovery.reschedules,
                self.recovery.world_shrinks,
                self.recovery.cpu_fallbacks,
                self.recovery.cancelled_fragments,
                self.recovery.temps_reaped
            ));
        }
        if let Some(r) = &self.fallback_reason {
            parts.push(format!("fallback={r}"));
        }
        format!(
            "{}: {} rows in {:.2}ms [{}]",
            self.engine,
            self.rows,
            self.elapsed.as_secs_f64() * 1e3,
            parts.join(" ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> QueryReport {
        let mut b = TimeBreakdown::default();
        b.add(CostCategory::Join, Duration::from_millis(6));
        b.add(CostCategory::Filter, Duration::from_millis(2));
        QueryReport {
            engine: "sirius".into(),
            rows: 10,
            elapsed: Duration::from_millis(8),
            breakdown: b,
            pipelines: 3,
            morsels: 8,
            tasks: 16,
            workers: 4,
            worker_utilization: 1.0,
            spilled_pinned_bytes: 3 << 20,
            spilled_disk_bytes: 1 << 20,
            spill_partitions: 16,
            spill_depth: 1,
            pool_high_watermark: 2 << 20,
            pool_fragmentation: 0.25,
            fallback_reason: None,
            recovery: RecoveryStats::default(),
        }
    }

    #[test]
    fn shares_and_dominance() {
        let r = report();
        assert!((r.share(CostCategory::Join) - 0.75).abs() < 1e-9);
        assert_eq!(r.dominant_category(), Some(CostCategory::Join));
    }

    #[test]
    fn summary_renders() {
        let s = report().summary();
        assert!(s.contains("sirius: 10 rows"));
        assert!(s.contains("join=6.00ms"));
        assert!(s.contains("morsels=8 tasks=16 workers=4 util=100%"));
        assert!(s.contains("spill[pinned=3.0MiB disk=1.0MiB parts=16 depth=1]"));
        assert!(s.contains("pool[hwm=2.0MiB frag=25%]"));
    }

    #[test]
    fn summary_shows_recovery_only_when_something_happened() {
        let mut r = report();
        assert!(!r.summary().contains("recovery["));
        r.recovery.retries = 2;
        r.recovery.faults_injected = 3;
        assert!(r.summary().contains("recovery[faults=3 retries=2"));
    }

    #[test]
    fn recovery_stats_absorb_accumulates() {
        let mut a = RecoveryStats {
            retries: 1,
            temps_reaped: 2,
            ..RecoveryStats::default()
        };
        let b = RecoveryStats {
            retries: 1,
            reschedules: 1,
            faults_injected: 4,
            ..RecoveryStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.retries, 2);
        assert_eq!(a.reschedules, 1);
        assert_eq!(a.faults_injected, 4);
        assert_eq!(a.temps_reaped, 2);
        assert!(a.any());
        assert!(!RecoveryStats::default().any());
    }

    #[test]
    fn summary_omits_spill_when_nothing_spilled() {
        let mut r = report();
        r.spilled_pinned_bytes = 0;
        r.spilled_disk_bytes = 0;
        assert!(!r.summary().contains("spill["));
    }

    #[test]
    fn empty_breakdown_has_no_dominant() {
        let r = QueryReport {
            engine: "x".into(),
            rows: 0,
            elapsed: Duration::ZERO,
            breakdown: TimeBreakdown::default(),
            pipelines: 1,
            morsels: 0,
            tasks: 0,
            workers: 1,
            worker_utilization: 0.0,
            spilled_pinned_bytes: 0,
            spilled_disk_bytes: 0,
            spill_partitions: 0,
            spill_depth: 0,
            pool_high_watermark: 0,
            pool_fragmentation: 0.0,
            fallback_reason: None,
            recovery: RecoveryStats::default(),
        };
        assert_eq!(r.dominant_category(), None);
        assert_eq!(r.share(CostCategory::Join), 0.0);
    }

    #[test]
    fn morsel_stats_delta_and_utilization() {
        let before = MorselStats {
            pipelines_run: 1,
            morsels: 2,
            tasks: 2,
            tasks_per_stream: vec![1, 1],
        };
        let after = MorselStats {
            pipelines_run: 1,
            morsels: 10,
            tasks: 18,
            tasks_per_stream: vec![5, 5, 4, 4],
        };
        let d = after.since(&before);
        assert_eq!(d.morsels, 8);
        assert_eq!(d.tasks, 16);
        assert_eq!(d.tasks_per_stream, vec![4, 4, 4, 4]);
        assert!((d.worker_utilization() - 1.0).abs() < 1e-9);

        // A single task can only occupy one lane: normalizing by the
        // configured stream count would misreport this as 25% on a 4-stream
        // engine even though the fan-out was as good as it could be.
        let lopsided = MorselStats {
            pipelines_run: 1,
            morsels: 1,
            tasks: 1,
            tasks_per_stream: vec![1, 0, 0, 0],
        };
        assert!((lopsided.worker_utilization() - 1.0).abs() < 1e-9);
        // Six tasks piled onto one of four lanes, however, is real skew.
        let skewed = MorselStats {
            pipelines_run: 1,
            morsels: 6,
            tasks: 6,
            tasks_per_stream: vec![6, 0, 0, 0],
        };
        assert!((skewed.worker_utilization() - 0.25).abs() < 1e-9);
        assert_eq!(MorselStats::default().worker_utilization(), 0.0);
    }

    #[test]
    fn since_reconciles_stream_vectors_of_different_lengths() {
        // Worker count shrank between snapshots (4-stream engine swapped for
        // a 2-stream one sharing the stats): the delta must still cover all
        // four lanes instead of silently dropping the trailing two.
        let before = MorselStats {
            pipelines_run: 1,
            morsels: 4,
            tasks: 4,
            tasks_per_stream: vec![1, 1, 1, 1],
        };
        let after = MorselStats {
            pipelines_run: 1,
            morsels: 8,
            tasks: 10,
            tasks_per_stream: vec![4, 4],
        };
        let d = after.since(&before);
        assert_eq!(d.tasks_per_stream.len(), 4);
        assert_eq!(d.tasks_per_stream, vec![3, 3, 0, 0]);
        assert_eq!(d.tasks, 6);

        // Worker count grew: the new lanes carry their full counts.
        let grown = MorselStats {
            pipelines_run: 1,
            morsels: 8,
            tasks: 8,
            tasks_per_stream: vec![2, 2, 2, 2],
        };
        let small = MorselStats {
            pipelines_run: 1,
            morsels: 2,
            tasks: 2,
            tasks_per_stream: vec![1, 1],
        };
        let d = grown.since(&small);
        assert_eq!(d.tasks_per_stream, vec![1, 1, 2, 2]);
    }
}
