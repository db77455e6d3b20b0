//! The pipeline-DAG scheduler: executes a compiled [`PhysicalPlan`].
//!
//! Pipelines run in dependency *waves*: every pipeline whose dependencies
//! have completed is ready, and under [`Scheduling::Concurrent`] (the
//! default) all ready pipelines dispatch their morsel tasks in one shared
//! wave — each pipeline on its own contiguous slice of the device streams,
//! so independent pipelines (e.g. the build sides of a multi-way join)
//! overlap in the stream-aware time ledger. [`Scheduling::Serialized`] runs
//! one pipeline per wave, reproducing the recursion-order baseline for the
//! `repro pipelines` experiment.
//!
//! The scheduler runs the compiled artifact itself. A [`QueryRun`] holds
//! the plan by `Arc`; a wave's morsel tasks share it and walk the
//! pipeline's own streaming ops (`crate::morsel::walk`) against a small
//! per-wave table of resolved build sides — nothing is lowered or cloned
//! per wave. Serial preparation keeps only what is dynamic: the source,
//! Grace-join degradation (the chain is a list of positions in the compiled
//! ops, so a spilled build side splits a chain without copying it), and
//! the sink mode with its grants. One task body — pay the dispatch
//! overhead, walk the chain — serves regular waves, fused-aggregation
//! waves, and Grace-join prefixes.
//!
//! Per-pipeline breaker work (grant acquisition, hash-table builds, sort,
//! partial-aggregate merges) is taken serially, in pipeline-id order, after
//! the wave's stream sync.
//!
//! Work on the worker pool follows one rule: a morsel task or an
//! out-of-core leaf charges a recorder of its own, and the thread that owns
//! program order replays it (`SiriusEngine::run_recorded`). A wave replays
//! task *i*'s charges onto its stream, in task order, before the sync. A
//! breaker that goes out of core — a Grace join in `prepare`, a spilling
//! aggregate in `finish`, an external sort in `apply_sink` — is a serial
//! walk whose independent leaves run as one batch, replayed onto the serial
//! lane in program order (`crate::oom`).
//! The decisions and the ledger stay serial while the host computes in
//! parallel, so results, cost breakdowns, the trace event by event, the
//! spans and `EXPLAIN ANALYZE` are the same on every run, however the
//! threads interleave.

use crate::engine::SiriusEngine;
use crate::exprs::evaluate_all;
use crate::metrics::Meter;
use crate::morsel::{
    aggregate_single_pass, chunk_morsels, concat_morsels, sort_table, BuildSide, Builds,
    OpStatsRef, Partial, PartialAgg, Run,
};
use crate::physical::{Aggregation, PhysOp, PhysicalPlan, Pipeline, Sink, Source, StreamOp};
use crate::Result;
use sirius_columnar::{Array, Schema, Table};
use sirius_cudf::filter::gather;
use sirius_cudf::join::{build_hash_table, JoinHashTable};
use sirius_cudf::unique::distinct;
use sirius_cudf::GpuContext;
use sirius_hw::{
    Charge, CostCategory, Device, EventKind, FaultSite, Lane, TimeBreakdown, TraceEvent,
};
use sirius_plan::expr::Expr;
use sirius_plan::visit::Node;
use sirius_rmm::MemoryGrant;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// How ready pipelines are dispatched onto the device streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// One pipeline per wave, in dependency order — the recursion-order
    /// baseline of the pre-DAG executor.
    Serialized,
    /// Every ready pipeline launches in the same wave, splitting the
    /// stream pool between them.
    #[default]
    Concurrent,
}

/// A completed pipeline's materialized output, kept alive until its last
/// consumer finishes. Join builds also carry their hash table and the
/// memory grant pinning it in the processing region.
struct PipeResult {
    table: Table,
    hash: Option<Arc<JoinHashTable>>,
    /// The build side didn't fit the processing region: consumers must
    /// Grace-join against `table` instead of probing a hash table.
    grace: bool,
    _grant: Option<MemoryGrant>,
}

impl PipeResult {
    fn table(table: Table) -> Self {
        PipeResult {
            table,
            hash: None,
            grace: false,
            _grant: None,
        }
    }
}

/// What one morsel task (or out-of-core leaf) returns: a table, or — under
/// [`Mode::FusedAgg`] and for a chunked aggregate's chunk — partial
/// accumulators.
pub(crate) enum TaskOut {
    Table(Table),
    Partial(Partial),
}

/// One unit of work on the worker pool — a morsel task or an out-of-core
/// leaf — charging the recorder it is handed and no other ledger
/// ([`SiriusEngine::run_recorded`]).
pub(crate) type Job = Box<dyn FnOnce(&Device) -> Result<TaskOut> + Send>;

/// What a recorded job leaves: its output and the charges it made, in order.
pub(crate) type Recorded = (Result<TaskOut>, Vec<Charge>);

/// Sort a pipeline's task outputs by kind. Every task of one pipeline wave
/// is built from the same [`Mode`], so exactly one side is non-empty.
fn split(outs: Vec<TaskOut>) -> (Vec<Table>, Vec<Partial>) {
    let (mut tables, mut partials) = (Vec::new(), Vec::new());
    for out in outs {
        match out {
            TaskOut::Table(t) => tables.push(t),
            TaskOut::Partial(p) => partials.push(p),
        }
    }
    (tables, partials)
}

/// One run of a chain, as a position in the compiled pipeline's ops:
/// `ops[op]` whole (a plain op, or a fused segment under its one charge),
/// or — when a Grace join degraded the segment — its `inner`-th op alone.
#[derive(Clone, Copy)]
struct RunRef {
    op: usize,
    inner: Option<usize>,
}

/// The streaming chain every morsel task of one pipeline wave walks: runs
/// of the compiled plan's own ops (shared by `Arc`, never re-cloned) plus
/// the build sides its probes resolve against.
struct Chain {
    plan: Arc<PhysicalPlan>,
    pipe: usize,
    runs: Vec<RunRef>,
    builds: Builds,
}

impl Chain {
    fn runs(&self) -> impl DoubleEndedIterator<Item = Run<'_>> {
        let ops = &self.plan.pipelines[self.pipe].ops;
        self.runs.iter().map(move |r| match (&ops[r.op], r.inner) {
            (PhysOp::Plain(op), _) => Run::Plain(op),
            (PhysOp::Fused(seg), None) => Run::Fused(seg),
            (PhysOp::Fused(seg), Some(i)) => Run::Plain(&seg.ops()[i]),
        })
    }

    /// Schema of the chain's output: the last schema-changing operator's,
    /// or `fallback` when the chain only filters/scans.
    fn out_schema(&self, fallback: &Schema) -> Schema {
        let mut ops = self.runs().rev().flat_map(|run| run.ops().iter().rev());
        ops.find_map(StreamOp::out_schema)
            .unwrap_or(fallback)
            .clone()
    }

    /// Walk one morsel through the chain. With `agg`, the morsel ends in
    /// the aggregation's phase one, which absorbs a trailing fused run
    /// into its own kernel.
    fn walk(
        &self,
        device: &Device,
        morsel: Table,
        agg: Option<&PartialAgg>,
        stats: OpStatsRef<'_>,
    ) -> Result<TaskOut> {
        let absorbed = match (agg, self.runs().next_back()) {
            (Some(_), Some(Run::Fused(seg))) => Some(seg),
            _ => None,
        };
        let head = self.runs.len() - usize::from(absorbed.is_some());
        let mut t = morsel;
        for run in self.runs().take(head) {
            t = run.apply(device, t, &self.builds, stats)?;
        }
        let Some(agg) = agg else {
            return Ok(TaskOut::Table(t));
        };
        let partial = agg.task(device, t, absorbed, &self.builds, stats)?;
        Ok(TaskOut::Partial(partial))
    }
}

/// How a prepared pipeline's sink consumes the wave.
enum Mode {
    /// No wave: a consumer pipeline with no streaming ops applies its sink
    /// directly to the materialized dependency.
    Direct,
    /// Generic morsel wave; the sink takes the concatenated output. An
    /// aggregate sink here runs one whole-column pass under its held state
    /// grant (single morsel, or `COUNT(DISTINCT)`).
    Wave { _state: Option<MemoryGrant> },
    /// Aggregate whose state grant was denied: wave, concatenate, then the
    /// spilling aggregation path.
    SpillAgg(Arc<Aggregation>),
    /// Fused partial aggregation: each morsel task runs the streaming chain
    /// and its partial accumulators back-to-back on its stream; partials
    /// merge serially after the sync.
    FusedAgg {
        agg: Arc<PartialAgg>,
        _state: MemoryGrant,
    },
}

/// A pipeline after serial preparation: source resolved, chain laid out
/// over the compiled ops (grace probes already folded into the source),
/// morsels cut, and the sink mode (with any grants) decided.
struct Prepared<'a> {
    pipe: &'a Pipeline,
    chain: Arc<Chain>,
    source: Table,
    chunks: Vec<Table>,
    mode: Mode,
    /// Simulated instant preparation began — the breaker span opens here.
    start: Duration,
}

/// The stepped-execution state of one in-flight query: the compiled DAG
/// plus the dependency bookkeeping the one-shot executor used to keep on
/// its own stack. [`SiriusEngine::begin`] constructs one,
/// [`SiriusEngine::step`] advances it a single dependency wave, and
/// [`QueryRun::into_table`] extracts the root result once every pipeline
/// has completed. This seam is what lets the multi-query server
/// (`sirius-serve`) interleave waves from *different* queries onto one
/// shared stream pool instead of running queries back to back.
pub struct QueryRun {
    /// The compiled artifact itself, shared with the plan cache and with
    /// every morsel task — starting a run copies no plan.
    phys: Arc<PhysicalPlan>,
    results: HashMap<usize, PipeResult>,
    /// Remaining consumer count per pipeline: a dependency's materialized
    /// result (table, hash table, grant) is released the moment this hits
    /// zero, not at query end.
    consumers: Vec<usize>,
    done: Vec<bool>,
    completed: usize,
    aborted: bool,
    /// The run's one meter: what its report and its operator-stats
    /// feedback ([`SiriusEngine::run_operator_stats`]) read, scoped to this
    /// run — never polluted by earlier queries on the same engine or by
    /// queries interleaved on shared spill tiers.
    pub(crate) meter: Meter,
}

impl QueryRun {
    pub(crate) fn new(phys: Arc<PhysicalPlan>, meter: Meter) -> Self {
        let n = phys.pipelines.len();
        let mut consumers = vec![0usize; n];
        for p in &phys.pipelines {
            for &d in &p.deps {
                consumers[d] += 1;
            }
        }
        QueryRun {
            phys,
            results: HashMap::new(),
            consumers,
            done: vec![false; n],
            completed: 0,
            aborted: false,
            meter,
        }
    }

    /// Every pipeline in the DAG has completed.
    pub fn is_done(&self) -> bool {
        !self.aborted && self.completed == self.phys.pipelines.len()
    }

    /// Abort a partially-stepped run: release every materialized pipeline
    /// result it still holds — tables, hash tables, and the RAII memory
    /// grants pinning them in the processing region — and mark the run
    /// dead. Returns the number of held results released. After an abort,
    /// [`SiriusEngine::step`] is a no-op and [`Self::into_table`] yields
    /// `None`: the cancellation path a serving deadline takes mid-flight.
    /// (Dropping the run releases the same state; `abort` makes the
    /// unwind explicit and lets the caller keep the run for reporting.)
    pub fn abort(&mut self) -> usize {
        self.aborted = true;
        let held = self.results.len();
        self.results.clear();
        held
    }

    /// Whether [`Self::abort`] was called.
    pub fn is_aborted(&self) -> bool {
        self.aborted
    }

    /// Total pipelines in the compiled DAG.
    pub fn pipelines(&self) -> usize {
        self.phys.pipelines.len()
    }

    /// What the latest [`SiriusEngine::step`] charged to the ledger — the
    /// first step's share includes the launch overhead `begin` charged.
    pub fn last_wave(&self) -> &TimeBreakdown {
        self.meter.wave()
    }

    /// Rows in the root result: 0 until [`Self::is_done`], and after an
    /// abort.
    pub(crate) fn rows(&self) -> usize {
        let root = self.phys.pipelines.len() - 1;
        let done = self.results.get(&root).filter(|_| self.is_done());
        done.map_or(0, |r| r.table.num_rows())
    }

    /// Take the root pipeline's result table. `None` until
    /// [`Self::is_done`] — a partially-stepped query has no result yet.
    pub fn into_table(mut self) -> Option<Table> {
        if !self.is_done() {
            return None;
        }
        let n = self.phys.pipelines.len();
        self.results.remove(&(n - 1)).map(|r| r.table)
    }
}

impl SiriusEngine {
    /// Advance `run` by one dependency wave, dispatching onto at most
    /// `lanes` device streams (the shared stream pool still bounds the
    /// width; pass `usize::MAX` for the whole pool). Under
    /// [`Scheduling::Concurrent`] the wave takes every ready pipeline,
    /// under [`Scheduling::Serialized`] exactly one. No-op once the run
    /// is done. Whatever the wave did, failed or not, the run's meter marks
    /// it.
    pub fn step(&self, run: &mut QueryRun, lanes: usize) -> Result<()> {
        let spill = self.spill_stats();
        let wave = self.advance(run, lanes);
        run.meter.mark(self, &spill);
        wave
    }

    /// [`Self::step`]'s wave, unmetered.
    fn advance(&self, run: &mut QueryRun, lanes: usize) -> Result<()> {
        if run.is_done() || run.is_aborted() {
            return Ok(());
        }
        // Mid-query transient device faults fire here, *between* waves:
        // the run has already done work and may hold grants, so the error
        // path exercises the full unwind (callers abort or drop the run;
        // either way every RAII reservation releases).
        self.fire_device_fault(
            |node| FaultSite::WaveDispatch { node },
            "device failure during a morsel wave",
        )?;
        let n = run.phys.pipelines.len();
        let ready: Vec<usize> = (0..n)
            .filter(|&i| !run.done[i] && run.phys.pipelines[i].deps.iter().all(|&d| run.done[d]))
            .collect();
        debug_assert!(!ready.is_empty(), "pipeline DAG has a cycle");
        let batch = match self.config.scheduling {
            Scheduling::Serialized => &ready[..1],
            Scheduling::Concurrent => &ready[..],
        };
        // Every dispatch inside the wave (including Grace-join prefix
        // materialization) spreads over this many streams.
        let streams = self.workers().min(lanes).max(1);
        self.run_wave(&run.phys, batch, &mut run.results, streams)?;
        self.stats.lock().pipelines_run += batch.len() as u64;
        run.completed += batch.len();
        for &id in batch {
            run.done[id] = true;
        }
        // Release dependency results (tables, hash tables, grants) as
        // soon as their last consumer has finished.
        for &id in batch {
            for &d in &run.phys.pipelines[id].deps {
                run.consumers[d] -= 1;
                if run.consumers[d] == 0 {
                    run.results.remove(&d);
                }
            }
        }
        Ok(())
    }

    /// Run one wave: prepare each batched pipeline serially, dispatch all
    /// their morsel tasks together (one stream slice per pipeline), sync,
    /// then finish each sink serially in pipeline-id order.
    fn run_wave(
        &self,
        plan: &Arc<PhysicalPlan>,
        batch: &[usize],
        results: &mut HashMap<usize, PipeResult>,
        streams: usize,
    ) -> Result<()> {
        let mut preps = Vec::with_capacity(batch.len());
        for &id in batch {
            preps.push(self.prepare(plan, &plan.pipelines[id], results, streams)?);
        }

        let with_tasks = preps.iter().filter(|p| !p.chunks.is_empty()).count();
        let width = (streams / with_tasks.max(1)).max(1);
        let wave_t0 = self.device.elapsed();
        let mut tasks: Vec<(usize, Job)> = Vec::new();
        let mut counts: Vec<usize> = Vec::with_capacity(preps.len());
        let mut slice = 0usize;
        for prep in &mut preps {
            let before = tasks.len();
            if !prep.chunks.is_empty() {
                let offset = (slice * width) % streams;
                slice += 1;
                let agg = match &prep.mode {
                    Mode::FusedAgg { agg, .. } => Some(agg),
                    _ => None,
                };
                let chunks = std::mem::take(&mut prep.chunks);
                tasks.extend(self.morsel_tasks(chunks, &prep.chain, agg, offset, width, streams));
            }
            counts.push(tasks.len() - before);
        }
        let mut outs = self.dispatch_streams(tasks, streams);
        for prep in &preps {
            if !matches!(prep.mode, Mode::Direct) {
                self.wave_spans(&prep.chain, wave_t0);
            }
        }

        for (prep, count) in preps.into_iter().zip(counts) {
            let task_outs: Vec<TaskOut> = outs.by_ref().take(count).collect::<Result<_>>()?;
            let id = prep.pipe.id;
            let result = self.finish(prep, task_outs)?;
            results.insert(id, result);
        }
        Ok(())
    }

    /// Serial per-pipeline preparation — only what is genuinely dynamic:
    /// resolve the source, lay the chain out over the compiled ops (running
    /// Grace joins inline when a build side spilled), cut morsels, and pick
    /// the sink mode — acquiring the aggregate state grant up front, before
    /// any task runs.
    fn prepare<'a>(
        &self,
        plan: &Arc<PhysicalPlan>,
        pipe: &'a Pipeline,
        results: &HashMap<usize, PipeResult>,
        streams: usize,
    ) -> Result<Prepared<'a>> {
        let start = self.device.elapsed();
        let mut source = match &pipe.source {
            Source::Scan {
                table, projection, ..
            } => {
                let t = self.bufmgr.get_table(table)?;
                match projection {
                    Some(p) => t.project(p),
                    None => (*t).clone(),
                }
            }
            Source::Pipe(d) => results[d].table.clone(),
        };
        let chain = |runs: Vec<RunRef>, builds: Builds| {
            Arc::new(Chain {
                plan: Arc::clone(plan),
                pipe: pipe.id,
                runs,
                builds,
            })
        };
        let mut runs: Vec<RunRef> = Vec::with_capacity(pipe.ops.len());
        let mut builds = Builds::new();
        for (op, step) in pipe.ops.iter().enumerate() {
            // Fused segments probe pre-built hash tables in-pass; when a
            // probe's build side spilled (Grace join), its segment degrades
            // to runs of length 1 so the partitioned-join path below applies.
            let spilled = |s: &StreamOp| matches!(s, StreamOp::Probe(p) if results[&p.build].grace);
            let whole = !step.run().iter().any(spilled);
            for (i, s) in step.run().iter().enumerate() {
                if let StreamOp::Probe(probe) = s {
                    let b = &results[&probe.build];
                    if b.grace {
                        // The build side didn't fit the processing region:
                        // Grace-style partitioned join. Materialize the
                        // probe prefix morsel-wise, partition both sides
                        // through the spill tiers, and the joined table
                        // becomes this pipeline's source (like any other
                        // breaker).
                        let prefix = chain(std::mem::take(&mut runs), std::mem::take(&mut builds));
                        let schema = prefix.out_schema(source.schema());
                        let morsels =
                            self.run_prefix(&prefix, self.chunk_and_count(&source), streams)?;
                        let lt = concat_morsels(schema, &morsels);
                        let grace_start = self.device.elapsed();
                        source = self.grace_join(&lt, &b.table, probe)?;
                        self.op_span("spill-partition", grace_start, Some(&source), probe.node);
                        continue;
                    }
                    let (table, hash) = (b.table.clone(), b.hash.clone());
                    builds.insert(probe.build, BuildSide { table, hash });
                }
                if !whole {
                    runs.push(RunRef { op, inner: Some(i) });
                }
            }
            if whole {
                runs.push(RunRef { op, inner: None });
            }
        }

        let (chunks, mode) = match &pipe.sink {
            Sink::Aggregate(agg) => {
                let chunks = self.chunk_and_count(&source);
                // The aggregated input never materializes, so the
                // accumulator-state reservation is sized by the pipeline
                // source (the input is at most that big), before the tasks
                // run. A denied grant takes the spilling path.
                let mode = match self
                    .bufmgr
                    .request_grant((source.byte_size() as u64 / 2).max(1024))
                {
                    Err(_) => Mode::SpillAgg(Arc::clone(agg)),
                    Ok(state) => match PartialAgg::new(agg) {
                        Some(partial) if chunks.len() > 1 => Mode::FusedAgg {
                            agg: Arc::new(partial),
                            _state: state,
                        },
                        // COUNT(DISTINCT) cannot merge partials; a single
                        // morsel gains nothing from the two-phase plan.
                        _ => Mode::Wave {
                            _state: Some(state),
                        },
                    },
                };
                (chunks, mode)
            }
            _ if runs.is_empty() && matches!(pipe.source, Source::Pipe(_)) => {
                (Vec::new(), Mode::Direct)
            }
            _ => (self.chunk_and_count(&source), Mode::Wave { _state: None }),
        };
        Ok(Prepared {
            pipe,
            chain: chain(runs, builds),
            source,
            chunks,
            mode,
            start,
        })
    }

    /// One task per morsel onto a stream slice: morsel `i` of slice
    /// `[offset, offset+width)` lands on stream `(offset + i % width) %
    /// streams`. A single-pipeline wave spans the full pool (`width ==
    /// streams`), matching the pre-DAG round-robin. The job built here is
    /// the engine's one task body — regular waves, fused-aggregation waves
    /// and Grace-join prefixes all run it: pay the task's dispatch overhead,
    /// then walk the chain, both on the task's recorder.
    fn morsel_tasks<'a>(
        &'a self,
        chunks: Vec<Table>,
        chain: &'a Arc<Chain>,
        agg: Option<&'a Arc<PartialAgg>>,
        offset: usize,
        width: usize,
        streams: usize,
    ) -> impl Iterator<Item = (usize, Job)> + 'a {
        let overhead = self.task_overhead();
        chunks.into_iter().enumerate().map(move |(i, morsel)| {
            let stream = (offset + (i % width)) % streams;
            let (chain, agg) = (Arc::clone(chain), agg.cloned());
            let op_stats = Arc::clone(&self.op_stats);
            let job: Job = Box::new(move |device: &Device| {
                device.charge_duration(CostCategory::Other, "task.dispatch", overhead, 0, 0);
                chain.walk(device, morsel, agg.as_deref(), &op_stats)
            });
            (stream, job)
        })
    }

    /// Push every morsel through a Grace-join probe prefix as its own task
    /// (full-width round-robin); regular pipelines go through
    /// [`Self::run_wave`]'s shared dispatch.
    fn run_prefix(
        &self,
        prefix: &Arc<Chain>,
        chunks: Vec<Table>,
        streams: usize,
    ) -> Result<Vec<Table>> {
        let wave_start = self.device.elapsed();
        let tasks = self.morsel_tasks(chunks, prefix, None, 0, streams, streams);
        let outs = self.dispatch_streams(tasks.collect(), streams);
        self.wave_spans(prefix, wave_start);
        Ok(split(outs.collect::<Result<_>>()?).0)
    }

    /// Serial sink work after the wave sync. Notes the breaker's runtime
    /// stats and emits its operator span for plan-node sinks (join builds
    /// instrument their build inside [`Self::apply_sink`]; `Result` is not
    /// a plan operator).
    fn finish(&self, prep: Prepared<'_>, outs: Vec<TaskOut>) -> Result<PipeResult> {
        let pipe = prep.pipe;
        let (morsels, partials) = split(outs);
        let rows = || concat_morsels(pipe.out_schema.clone(), &morsels);
        let result = match &prep.mode {
            Mode::Direct => self.apply_sink(pipe, prep.source.clone())?,
            Mode::Wave { .. } => self.apply_sink(pipe, rows())?,
            Mode::SpillAgg(agg) => PipeResult::table(self.spilling_aggregate(&rows(), agg)?),
            // Merge the partial accumulators (serial: the breaker).
            Mode::FusedAgg { agg, .. } => {
                let ctx = self.ctx(agg.spec.category());
                PipeResult::table(agg.merge(&ctx, &agg.concat(&partials))?)
            }
        };
        if let Some(node) = pipe.sink.node() {
            if !matches!(pipe.sink, Sink::JoinBuild { .. }) {
                let label = pipe.sink.span_label();
                let window = self.op_span(label, prep.start, Some(&result.table), node);
                self.op_stats.lock().entry(node.id).or_default().note(
                    result.table.num_rows() as u64,
                    result.table.byte_size() as u64,
                    window,
                );
            }
        }
        Ok(result)
    }

    /// Apply a sink to the pipeline's materialized rows.
    fn apply_sink(&self, pipe: &Pipeline, t: Table) -> Result<PipeResult> {
        match &pipe.sink {
            // Late materialization: strings travel dictionary-encoded
            // through every operator and decode only here, at the result
            // sink. Exchange sinks stay encoded (codes ship over the wire;
            // the coordinator's own result sink decodes), as do engines
            // configured for encoded results (distributed fragments).
            Sink::Result => {
                if self.config.encoded_results || !t.has_dict_columns() {
                    return Ok(PipeResult::table(t));
                }
                let ctx = self.ctx(CostCategory::Project);
                let out = sirius_cudf::materialize::materialize_strings(&ctx, &t)?;
                Ok(PipeResult::table(out))
            }
            // Single-node: the exchange layer is bypassed entirely
            // (§3.2.4); the distributed executor in `sirius-doris`
            // fragments plans at Exchange sinks before they reach here.
            Sink::Exchange { .. } => Ok(PipeResult::table(t)),
            Sink::JoinBuild { keys, node } => {
                // Hash table lives in the processing region until the last
                // probe pipeline is done.
                match self.bufmgr.request_grant((t.byte_size() as u64).max(1024)) {
                    Ok(grant) => {
                        let build_start = self.device.elapsed();
                        let hash = match keys.is_empty() {
                            true => None,
                            false => {
                                let ctx = self.ctx(CostCategory::Join);
                                Some(build_join_hash(&ctx, keys, &t)?)
                            }
                        };
                        let dur = self.op_span("join-build", build_start, Some(&t), *node);
                        // Build time only: the probe morsels add their rows
                        // and lane time as they run.
                        self.op_stats.lock().entry(node.id).or_default().busy += dur;
                        Ok(PipeResult {
                            table: t,
                            hash,
                            grace: false,
                            _grant: Some(grant),
                        })
                    }
                    // A cross join has no keys to partition on; its build
                    // sides are scalar-subquery sized, so a denial there is
                    // a genuine OOM.
                    Err(e) if keys.is_empty() => Err(e),
                    // Doesn't fit: flag for the Grace partitioned join in
                    // the consumer's prepare step.
                    Err(_) => Ok(PipeResult {
                        table: t,
                        hash: None,
                        grace: true,
                        _grant: None,
                    }),
                }
            }
            Sink::Sort { keys, node } => {
                let out = match self.bufmgr.request_grant((t.byte_size() as u64).max(1024)) {
                    Ok(_buf) => sort_table(&self.ctx(CostCategory::OrderBy), &t, keys)?,
                    // The sort buffer doesn't fit: sort spilled runs and
                    // merge them back (§3.4 out-of-core).
                    Err(_) => self.external_sort(&t, keys, *node)?,
                };
                Ok(PipeResult::table(out))
            }
            Sink::Limit { offset, fetch, .. } => {
                let ctx = self.ctx(CostCategory::Other);
                let start = (*offset).min(t.num_rows());
                let end = match fetch {
                    Some(f) => (start + f).min(t.num_rows()),
                    None => t.num_rows(),
                };
                let idx: Vec<i32> = (start as i32..end as i32).collect();
                Ok(PipeResult::table(gather(&ctx, &t, &idx)))
            }
            Sink::Distinct { .. } => {
                let ctx = self.ctx(CostCategory::GroupBy);
                Ok(PipeResult::table(distinct(&ctx, &t)?))
            }
            // One whole-column pass over the materialized rows (the fused
            // and spilling aggregation modes finish in [`Self::finish`]).
            Sink::Aggregate(agg) => {
                let ctx = self.ctx(agg.category());
                Ok(PipeResult::table(aggregate_single_pass(&ctx, &t, agg)?))
            }
        }
    }

    /// Partition a pipeline source and record the morsel count.
    pub(crate) fn chunk_and_count(&self, source: &Table) -> Vec<Table> {
        let chunks = chunk_morsels(source, self.config.morsel_rows);
        self.stats.lock().morsels += chunks.len() as u64;
        chunks
    }

    /// The simulated time plan node `node`'s operator took from `start` to
    /// now. On a traced engine — this is the one place that asks — it also
    /// emits the node's operator-track span, sized by `out` when the
    /// operator materialized one.
    fn op_span(&self, label: &str, start: Duration, out: Option<&Table>, node: Node) -> Duration {
        let dur = self.device.elapsed().saturating_sub(start);
        if !self.trace.enabled() {
            return dur;
        }
        let (bytes, rows) = out.map_or((0, 0), |t| (t.byte_size(), t.num_rows()));
        self.trace.emit(TraceEvent {
            seq: 0,
            kind: EventKind::Span,
            lane: Lane::Serial,
            cat: "op",
            label: label.to_string(),
            ts: start.as_nanos() as u64,
            dur: dur.as_nanos() as u64,
            bytes: bytes as u64,
            rows: rows as u64,
            node: Some(node.id),
            depth: node.depth,
        });
        dur
    }

    /// After a wave's stream sync: one span per run of the chain, covering
    /// the wave's simulated window. A wave starts right after the previous
    /// sync (no streams in flight), so its window lines up exactly with the
    /// lane-local kernel timestamps inside it.
    fn wave_spans(&self, chain: &Chain, wave_start: Duration) {
        for run in chain.runs() {
            // A fused segment gets one span carrying every inner node id in
            // its label (`fused[#1,#2]`), anchored on the first inner node;
            // per-inner-op time lives in `operator_stats()`, split from the
            // segment's single kernel charge.
            let label = match run {
                Run::Plain(op) => op.span_label(),
                Run::Fused(seg) => seg.label(),
            };
            self.op_span(label, wave_start, None, run.ops()[0].node());
        }
    }

    /// Run a wave of `(stream, task)` pairs as one recorded batch,
    /// recording the stream assignment in the scheduler counters; then
    /// replay task *i*'s charges onto its stream, in task order — a failed
    /// task's too, up to where it failed — and synchronize the streams.
    fn dispatch_streams(
        &self,
        tasks: Vec<(usize, Job)>,
        width: usize,
    ) -> impl Iterator<Item = Result<TaskOut>> {
        let streams: Vec<usize> = tasks.iter().map(|(stream, _)| *stream).collect();
        if !streams.is_empty() {
            // Size the per-stream counters by the lanes this query may
            // *use* (the lane-capped width), not the global pool: when
            // several queries interleave on one stream pool, each query's
            // `worker_utilization` is measured against its own slice, so a
            // perfectly balanced width-2 query on an 8-stream pool reports
            // 1.0, not 0.25.
            let mut s = self.stats.lock();
            s.tasks += streams.len() as u64;
            if s.tasks_per_stream.len() < width {
                s.tasks_per_stream.resize(width, 0);
            }
            for &stream in &streams {
                s.tasks_per_stream[stream] += 1;
            }
        }
        let ran = self.run_recorded(tasks.into_iter().map(|(_, job)| job));
        for (stream, (_, charges)) in streams.into_iter().zip(&ran) {
            self.device.replay(Lane::Stream(stream as u32), charges);
        }
        self.device.sync_streams();
        ran.into_iter().map(|(out, _)| out)
    }

    /// Run `jobs` as one batch on the task queue, each charging a recorder
    /// of its own, and return what each left, in job order — the one way
    /// work reaches the worker pool. A worker thread charges no ledger but
    /// its recorder; the caller owns the program order and replays every log
    /// where its job's work sits.
    pub(crate) fn run_recorded(&self, jobs: impl IntoIterator<Item = Job>) -> Vec<Recorded> {
        let tasks = jobs.into_iter().map(|job| {
            let device = self.device.recorder();
            move || (job(&device), device.take_log())
        });
        let slots = self.queue.run_all(tasks.collect());
        // A job that panicked is its slot's error, and leaves no charges.
        let recorded = |slot: Result<Recorded>| slot.unwrap_or_else(|e| (Err(e), Vec::new()));
        slots.into_iter().map(recorded).collect()
    }
}

/// Evaluate the build-side join keys over `t` and hash them.
pub(crate) fn build_join_hash(
    ctx: &GpuContext,
    keys: &[Expr],
    t: &Table,
) -> Result<Arc<JoinHashTable>> {
    let cols = evaluate_all(ctx, keys, t)?;
    let refs: Vec<&Array> = cols.iter().collect();
    Ok(Arc::new(build_hash_table(ctx, &refs, t.num_rows())?))
}
