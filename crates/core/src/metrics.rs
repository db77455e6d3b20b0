//! Per-query execution reports: the data behind Figure 5 and Table 2.

use crate::engine::SiriusEngine;
use crate::explain::OpStats;
use sirius_hw::{CostCategory, TimeBreakdown};
use sirius_rmm::SpillStats;
use std::collections::HashMap;
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

/// What happened during one query execution.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Rows in the result.
    pub rows: usize,
    /// Total simulated time.
    pub elapsed: Duration,
    /// Per-operator-category attribution.
    pub breakdown: TimeBreakdown,
    /// Pipelines of the compiled DAG the run executed.
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
}

impl QueryReport {
    /// A report with every counter at zero — what a request that never
    /// started a run reports, and the base a run's report
    /// ([`SiriusEngine::run_report`]) fills in with struct-update syntax.
    pub fn zeroed(workers: usize) -> Self {
        QueryReport {
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
}

/// The one meter: a run's window over every counter its report reads,
/// opened just before `begin_compiled` charges the launch overhead and
/// marked after every step. The ledger, morsel counters and operator stats
/// belong to the engine the run executes on, so the window keeps their
/// values at its open and reports what they moved by. The spill tiers are
/// shared across query views, so spill adds up step by step, and a step
/// counts the manager's depth only if this run wrote a partition in it.
pub(crate) struct Meter {
    /// Ledger when the window opened.
    opened: TimeBreakdown,
    /// Ledger after the latest step (at the open, before any).
    mark: TimeBreakdown,
    /// What the latest step charged.
    wave: TimeBreakdown,
    /// Morsel counters when the window opened.
    morsels: MorselStats,
    /// Operator stats when the window opened.
    ops: HashMap<u32, OpStats>,
    /// Spill this run's steps wrote.
    spill: SpillStats,
}

impl Meter {
    /// Open the window on `engine`'s counters.
    pub(crate) fn open(engine: &SiriusEngine) -> Self {
        let ledger = engine.device().breakdown();
        Meter {
            mark: ledger.clone(),
            opened: ledger,
            wave: TimeBreakdown::default(),
            morsels: engine.morsel_stats(),
            ops: engine.operator_stats(),
            spill: SpillStats::default(),
        }
    }

    /// Close a step that began with the spill manager at `before`: mark the
    /// ledger and add the spill the step wrote.
    pub(crate) fn mark(&mut self, engine: &SiriusEngine, before: &SpillStats) {
        let ledger = engine.device().breakdown();
        self.wave = ledger.since(&self.mark);
        self.mark = ledger;
        // The one place spill is diffed: a step runs alone on the host, so
        // whatever the shared manager moved by during it is this run's.
        #[allow(clippy::disallowed_methods)]
        let step = engine.spill_stats().since(before);
        self.spill.bytes_to_pinned += step.bytes_to_pinned;
        self.spill.bytes_to_disk += step.bytes_to_disk;
        self.spill.partitions += step.partitions;
        if step.partitions > 0 {
            self.spill.max_depth = self.spill.max_depth.max(step.max_depth);
        }
    }

    /// What the latest step charged to the ledger.
    pub(crate) fn wave(&self) -> &TimeBreakdown {
        &self.wave
    }

    /// The operator stats in `now` that moved since the window opened.
    pub(crate) fn operator_stats(&self, now: HashMap<u32, OpStats>) -> HashMap<u32, OpStats> {
        now.into_iter()
            .map(|(id, s)| match self.ops.get(&id) {
                Some(base) => (id, s.since(base)),
                None => (id, s),
            })
            .filter(|(_, d)| d.invocations > 0 || d.rows_out > 0 || d.spill_partitions > 0)
            .collect()
    }

    /// The run's report: `rows` and `pipelines` from the run, the rest from
    /// the window, with the processing pool as it stands now.
    pub(crate) fn report(
        &self,
        engine: &SiriusEngine,
        rows: usize,
        pipelines: usize,
    ) -> QueryReport {
        let breakdown = engine.device().breakdown().since(&self.opened);
        let morsels = engine.morsel_stats().since(&self.morsels);
        let pool = engine.buffer_manager().regions().processing().stats();
        QueryReport {
            rows,
            elapsed: breakdown.total(),
            breakdown,
            pipelines,
            morsels: morsels.morsels,
            tasks: morsels.tasks,
            worker_utilization: morsels.worker_utilization(),
            spilled_pinned_bytes: self.spill.bytes_to_pinned,
            spilled_disk_bytes: self.spill.bytes_to_disk,
            spill_partitions: self.spill.partitions,
            spill_depth: self.spill.max_depth,
            pool_high_watermark: pool.high_watermark,
            pool_fragmentation: pool.fragmentation(),
            ..QueryReport::zeroed(engine.workers())
        }
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
            elapsed: b.total(),
            breakdown: b,
            ..QueryReport::zeroed(4)
        }
    }

    #[test]
    fn shares_and_dominance() {
        let r = report();
        assert!((r.share(CostCategory::Join) - 0.75).abs() < 1e-9);
        assert_eq!(r.dominant_category(), Some(CostCategory::Join));
    }

    #[test]
    fn empty_breakdown_has_no_dominant() {
        let r = QueryReport::zeroed(1);
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
