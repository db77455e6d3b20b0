//! Out-of-core execution paths (§3.4): Grace partitioned joins, spilling
//! and chunked aggregation, and external merge sort.
//!
//! These run when a pipeline-breaker's memory grant is denied, from the DAG
//! scheduler's serial preparation and sink steps ([`crate::schedule`]), on
//! materialized inputs.
//!
//! Each path is its in-memory breaker applied to windows of the input, plus
//! the grants, spill tickets and counters: a Grace partition is a window of
//! the table `hash_partition` permuted once, joined or aggregated by the
//! resident code (`Run::apply`, `aggregate_single_pass`, [`PartialAgg`]);
//! an external run is a morsel through the sort sink's `sort_table`, and
//! the merge is `sort_table` again over the concatenated runs — no
//! algorithm lives only here.
//!
//! A Grace join or a spilling aggregate is one serial **walk** and a batch
//! of **leaves**. The walk takes every decision in program order — grant
//! requests and releases, spill tickets and their fault polls, the
//! partitioning rounds, repartition and spill counters, the recursion and
//! the chunked fallback — and collects the independent work it reaches: a
//! partition pair's build + probe, a partition's single-pass aggregate, a
//! chunk's phase-one partial. The leaves run as one batch on the engine's
//! [`TaskQueue`](crate::pipeline::TaskQueue) through
//! [`SiriusEngine::run_recorded`], as a morsel wave's tasks do (a chunked
//! merge needs its chunks' partials, so it runs the batch collected so far
//! first), and their outputs concatenate in walk order. The walk and every
//! leaf charge a recording device ([`Device::recorder`]); [`Walk::finish`]
//! replays the walk's charges and each leaf's, leaf *i*'s exactly where its
//! work sat in the serial recursion, onto the engine's serial lane. The
//! ledger, the trace, the spans and `EXPLAIN ANALYZE` therefore read as if
//! everything had run on one thread; only the host wall clock sees the
//! pool.

use crate::buffer::BufferManager;
use crate::engine::SiriusEngine;
use crate::exprs::evaluate_all;
use crate::morsel::{
    aggregate_single_pass, chunk_morsels, concat_morsels, sort_table, BuildSide, Builds,
    PartialAgg, Run, SharedOpStats,
};
use crate::physical::{Aggregation, Probe, StreamOp};
use crate::schedule::{build_join_hash, Job, TaskOut};
use crate::{Result, SiriusError};
use sirius_columnar::{Schema, Table};
use sirius_cudf::partition::hash_partition;
use sirius_cudf::GpuContext;
use sirius_hw::{Charge, CostCategory, Device, Lane, WorkProfile};
use sirius_plan::expr::SortExpr;
use sirius_plan::visit::Node;
use std::sync::Arc;

/// Deepest recursive repartitioning a spilling operator attempts before
/// reporting a hard out-of-memory error. With up to
/// [`MAX_SPILL_PARTITIONS`]-way fan-out per level, four levels cover any
/// working set the simulated tiers could plausibly hold.
const MAX_SPILL_DEPTH: u32 = 4;

/// Fan-out cap per partitioning round; oversized partitions recurse with a
/// fresh hash level instead of exploding the partition count.
const MAX_SPILL_PARTITIONS: usize = 64;

/// Where a piece of an out-of-core operator's output comes from.
enum Out {
    /// Leaf `i`'s table.
    Leaf(usize),
    /// A table the walk computed itself (a chunked aggregate's merge).
    Ready(Table),
    /// One partitioning round: its pieces concatenated in partition order.
    Concat(Schema, Vec<Out>),
}

/// One leaf in walk order: the walk's charges since the previous leaf and,
/// once the leaf has run, its own charges and its output.
struct Step {
    before: Vec<Charge>,
    charges: Vec<Charge>,
    out: Option<Result<TaskOut>>,
}

/// One out-of-core operator's run: the serial walk's state and the leaves
/// it collected.
struct Walk<'e> {
    engine: &'e SiriusEngine,
    /// What the walk charges: a recorder of the engine's device, through
    /// kernels ([`Self::ctx`]) and the buffer manager's spill traffic.
    device: Device,
    bufmgr: BufferManager,
    steps: Vec<Step>,
    /// Leaves collected but not yet run, by step index.
    pending: Vec<(usize, Job)>,
}

impl<'e> Walk<'e> {
    fn new(engine: &'e SiriusEngine) -> Self {
        let device = engine.device.recorder();
        let bufmgr = engine.bufmgr.charging(device.clone());
        Walk {
            engine,
            device,
            bufmgr,
            steps: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// A kernel context charging the walk's recorder.
    fn ctx(&self, category: CostCategory) -> GpuContext {
        self.engine.ctx_on(&self.device, category)
    }

    /// Collect `leaf` at this point of the walk; its output is
    /// [`Out::Leaf`] of the returned index.
    fn leaf(&mut self, leaf: Job) -> usize {
        let i = self.steps.len();
        self.pending.push((i, leaf));
        self.steps.push(Step {
            before: self.device.take_log(),
            charges: Vec::new(),
            out: None,
        });
        i
    }

    /// Run every pending leaf as one recorded batch. Errs with the first
    /// failed leaf in walk order.
    fn flush(&mut self) -> Result<()> {
        let (ids, leaves): (Vec<usize>, Vec<Job>) =
            std::mem::take(&mut self.pending).into_iter().unzip();
        for (i, (out, charges)) in ids.into_iter().zip(self.engine.run_recorded(leaves)) {
            self.steps[i].charges = charges;
            self.steps[i].out = Some(out);
        }
        match self
            .steps
            .iter()
            .find_map(|s| s.out.as_ref()?.as_ref().err())
        {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Leaf `i`'s output, taken.
    fn take(&mut self, i: usize) -> Result<TaskOut> {
        let missing = || SiriusError::Kernel(format!("out-of-core leaf {i} did not run"));
        self.steps[i].out.take().unwrap_or_else(|| Err(missing()))
    }

    /// Run what is pending, replay every charge onto the engine's device in
    /// program order, and assemble the output. Leaves run even when the walk
    /// failed after collecting them: in program order, an earlier leaf's
    /// error comes first, and the replay stops where the serial recursion
    /// would have stopped.
    fn finish(mut self, walked: Result<Out>) -> Result<Table> {
        // The batch's error is its first failed leaf's, which the replay
        // below stops at and returns.
        let _ = self.flush();
        let device = &self.engine.device;
        for step in &self.steps {
            device.replay(Lane::Serial, &step.before);
            device.replay(Lane::Serial, &step.charges);
            if let Some(Err(e)) = &step.out {
                return Err(e.clone());
            }
        }
        device.replay(Lane::Serial, &self.device.take_log());
        let out = walked?;
        self.assemble(out)
    }

    fn assemble(&mut self, out: Out) -> Result<Table> {
        match out {
            Out::Leaf(i) => match self.take(i)? {
                TaskOut::Table(t) => Ok(t),
                TaskOut::Partial(_) => Err(SiriusError::Kernel(format!(
                    "out-of-core leaf {i} left partials, not a table"
                ))),
            },
            Out::Ready(t) => Ok(t),
            Out::Concat(schema, outs) => {
                let tables = outs.into_iter().map(|o| self.assemble(o));
                Ok(concat_morsels(schema, &tables.collect::<Result<Vec<_>>>()?))
            }
        }
    }
}

/// Build the right side's hash table and probe the left side with it — a
/// Grace join's work on one partition pair, as the resident join does it.
fn join_leaf(lt: Table, rt: Table, probe: Arc<Probe>, stats: Option<SharedOpStats>) -> Job {
    Box::new(move |device: &Device| {
        let ctx = GpuContext::new(device.clone(), CostCategory::Join);
        let hash = Some(build_join_hash(&ctx, &probe.right_keys, &rt)?);
        let builds = Builds::from([(probe.build, BuildSide { table: rt, hash })]);
        let op = StreamOp::Probe((*probe).clone());
        let out = Run::Plain(&op).apply(device, lt, &builds, stats.as_deref())?;
        Ok(TaskOut::Table(out))
    })
}

/// One whole-column aggregation pass over a partition.
fn aggregate_leaf(t: Table, agg: Arc<Aggregation>) -> Job {
    Box::new(move |device: &Device| {
        let ctx = GpuContext::new(device.clone(), agg.category());
        Ok(TaskOut::Table(aggregate_single_pass(&ctx, &t, &agg)?))
    })
}

/// Phase one of a two-phase aggregation over one chunk.
fn partial_leaf(chunk: Table, partial: Arc<PartialAgg>) -> Job {
    Box::new(move |device: &Device| {
        let ctx = GpuContext::new(device.clone(), partial.spec.category());
        Ok(TaskOut::Partial(partial.partial(&ctx, &chunk)?))
    })
}

impl SiriusEngine {
    /// How many ways to partition a working set of `need` bytes so each
    /// partition fits comfortably in the largest grantable block. Capped at
    /// [`MAX_SPILL_PARTITIONS`]; oversized partitions recurse instead.
    fn partition_fanout(&self, need: u64) -> usize {
        let target = (self.bufmgr.largest_grantable() / 2).max(sirius_rmm::pool::ALIGNMENT);
        usize::try_from(need.div_ceil(target))
            .unwrap_or(MAX_SPILL_PARTITIONS)
            .clamp(2, MAX_SPILL_PARTITIONS)
    }

    /// Grace-style partitioned hash join: if the build side fits under a
    /// grant, build and probe directly; otherwise radix-partition both
    /// sides by key hash, park every partition on the spill tiers, and join
    /// the pairs one at a time — recursing with a fresh hash level when a
    /// partition still doesn't fit. Equal keys always collocate, so inner /
    /// left / semi / anti / single semantics (and residual predicates) hold
    /// per pair; partition order replaces probe order in the output, which
    /// only a downstream sort observes. The pairs' builds and probes are
    /// the walk's leaves.
    pub(crate) fn grace_join(&self, lt: &Table, rt: &Table, probe: &Probe) -> Result<Table> {
        let mut walk = Walk::new(self);
        let probe = Arc::new(probe.clone());
        let walked = self.grace_walk(&mut walk, lt.clone(), rt.clone(), &probe, 0);
        walk.finish(walked)
    }

    fn grace_walk(
        &self,
        walk: &mut Walk<'_>,
        lt: Table,
        rt: Table,
        probe: &Arc<Probe>,
        depth: u32,
    ) -> Result<Out> {
        let need = (rt.byte_size() as u64).max(1024);
        match walk.bufmgr.request_grant(need) {
            // The grant covers the pair's build and probe: taken and
            // released here, in program order, around the leaf.
            Ok(_grant) => {
                let (probe, stats) = (Arc::clone(probe), self.op_stats.clone());
                Ok(Out::Leaf(walk.leaf(join_leaf(lt, rt, probe, stats))))
            }
            Err(_) if depth >= MAX_SPILL_DEPTH => Err(SiriusError::OutOfMemory(format!(
                "join build side of {} B still exceeds the processing region after \
                 {MAX_SPILL_DEPTH} repartitioning rounds",
                rt.byte_size()
            ))),
            Err(_) => {
                let parts = self.partition_fanout(need);
                let ctx = walk.ctx(CostCategory::Join);
                let rk = evaluate_all(&ctx, &probe.right_keys, &rt)?;
                let lk = evaluate_all(&ctx, &probe.left_keys, &lt)?;
                let rparts =
                    hash_partition(&ctx, &rk.iter().collect::<Vec<_>>(), &rt, parts, depth)?;
                let lparts =
                    hash_partition(&ctx, &lk.iter().collect::<Vec<_>>(), &lt, parts, depth)?;
                self.bufmgr.note_repartition(depth + 1);
                let mut outs = Vec::with_capacity(parts);
                let mut spilled = 0u64;
                for (lp, rp) in lparts.into_iter().zip(rparts) {
                    if lp.num_rows() == 0 && rp.num_rows() == 0 {
                        continue;
                    }
                    // Park both sides, reading each back as the pair joins.
                    let lticket = walk.bufmgr.spill_write((lp.byte_size() as u64).max(1))?;
                    let rticket = walk.bufmgr.spill_write((rp.byte_size() as u64).max(1))?;
                    walk.bufmgr.spill_read(&lticket);
                    walk.bufmgr.spill_read(&rticket);
                    drop((lticket, rticket));
                    spilled += 2;
                    outs.push(self.grace_walk(walk, lp, rp, probe, depth + 1)?);
                }
                self.note_spill(probe.node, spilled);
                Ok(Out::Concat(probe.schema.clone(), outs))
            }
        }
    }

    /// Spilling aggregation: if the accumulator state fits under a grant,
    /// aggregate in one pass; otherwise hash-partition the input by its
    /// group keys (groups never span partitions, so even `COUNT(DISTINCT)`
    /// stays exact), spill the partitions, and aggregate each on read-back.
    /// Ungrouped aggregates stream chunk-wise partials instead — they have
    /// no keys to partition on. The single passes and the chunks' partials
    /// are the walk's leaves.
    pub(crate) fn spilling_aggregate(&self, t: &Table, agg: &Arc<Aggregation>) -> Result<Table> {
        let mut walk = Walk::new(self);
        let walked = self.aggregate_walk(&mut walk, t.clone(), agg, 0);
        walk.finish(walked)
    }

    fn aggregate_walk(
        &self,
        walk: &mut Walk<'_>,
        t: Table,
        agg: &Arc<Aggregation>,
        depth: u32,
    ) -> Result<Out> {
        let need = (t.byte_size() as u64 / 2).max(1024);
        if let Ok(_state) = walk.bufmgr.request_grant(need) {
            let agg = Arc::clone(agg);
            return Ok(Out::Leaf(walk.leaf(aggregate_leaf(t, agg))));
        }
        if agg.keys.is_empty() || depth >= MAX_SPILL_DEPTH {
            return self.chunked_walk(walk, t, agg);
        }
        let ctx = walk.ctx(agg.category());
        let key_cols = evaluate_all(&ctx, &agg.keys, &t)?;
        let parts = self.partition_fanout(need);
        let keys: Vec<_> = key_cols.iter().collect();
        let pts = hash_partition(&ctx, &keys, &t, parts, depth)?;
        if pts.iter().any(|p| p.num_rows() == t.num_rows()) {
            // Partitioning cannot shrink this input — one group (or one
            // key value) dominates it. Accumulator state scales with the
            // group count, not the row count, so stream two-phase partials
            // instead of repartitioning to no effect.
            return self.chunked_walk(walk, t, agg);
        }
        self.bufmgr.note_repartition(depth + 1);
        let mut outs = Vec::with_capacity(parts);
        let mut spilled = 0u64;
        for p in pts {
            if p.num_rows() == 0 {
                continue;
            }
            let ticket = walk.bufmgr.spill_write((p.byte_size() as u64).max(1))?;
            walk.bufmgr.spill_read(&ticket);
            drop(ticket);
            spilled += 1;
            outs.push(self.aggregate_walk(walk, p, agg, depth + 1)?);
        }
        self.note_spill(agg.node, spilled);
        Ok(Out::Concat(agg.schema.clone(), outs))
    }

    /// Aggregation over an input whose accumulator state was denied and
    /// that partitioning cannot help — ungrouped (no keys to partition on)
    /// or heavily key-skewed (a handful of giant groups). Accumulator state
    /// is proportional to the number of groups, not input rows: run phase
    /// one over chunks that fit under small grants, then merge the partials
    /// — the same two-phase decomposition the morsel executor uses.
    /// Non-decomposable aggregates (`COUNT(DISTINCT)`) genuinely need the
    /// whole input resident and stay a hard out-of-memory error (host
    /// fallback's last resort).
    fn chunked_walk(&self, walk: &mut Walk<'_>, t: Table, agg: &Arc<Aggregation>) -> Result<Out> {
        let grouped = !agg.keys.is_empty();
        let Some(partial) = PartialAgg::new(agg) else {
            return Err(SiriusError::OutOfMemory(if grouped {
                format!(
                    "group-by state for {} B of skewed keys cannot decompose into \
                     spillable partials (COUNT(DISTINCT))",
                    t.byte_size()
                )
            } else {
                "ungrouped COUNT(DISTINCT) cannot decompose into spillable partials".into()
            }));
        };
        if t.num_rows() == 0 {
            let agg = Arc::clone(agg);
            return Ok(Out::Leaf(walk.leaf(aggregate_leaf(t, agg))));
        }
        let chunks = chunk_morsels(&t, self.rows_per_chunk(&t));
        if !grouped {
            // Never partitioned: the chunked pass is its one spill level.
            self.bufmgr.note_repartition(1);
        }
        let partial = Arc::new(partial);
        let mut leaves = Vec::with_capacity(chunks.len());
        for c in chunks {
            let _g = walk
                .bufmgr
                .request_grant((c.byte_size() as u64 / 2).max(256))?;
            let partial = Arc::clone(&partial);
            leaves.push(walk.leaf(partial_leaf(c, partial)));
        }
        // The merge's grant is sized by the partials: run them now.
        walk.flush()?;
        let mut parts = Vec::with_capacity(leaves.len());
        for i in leaves {
            if let TaskOut::Partial(p) = walk.take(i)? {
                parts.push(p);
            }
        }
        // Merge: the concatenated partials hold at most (groups x chunks)
        // rows — tiny next to the input when groups are few.
        let all = partial.concat(&parts);
        let _merge_state = grouped
            .then(|| walk.bufmgr.request_grant(all.byte_size().max(1024)))
            .transpose()?;
        Ok(Out::Ready(partial.merge(&walk.ctx(agg.category()), &all)?))
    }

    /// Rows per spill chunk of `t` (non-empty): as many as fit in half the
    /// largest grantable block.
    fn rows_per_chunk(&self, t: &Table) -> usize {
        let target = (self.bufmgr.largest_grantable() / 2).max(sirius_rmm::pool::ALIGNMENT);
        let bytes_per_row = ((t.byte_size() as u64) / t.num_rows() as u64).max(1);
        usize::try_from(target / bytes_per_row).unwrap_or(1).max(1)
    }

    /// External merge sort: split the input into runs that fit under a
    /// grant, sort and spill each run, then read the runs back and merge
    /// them. The merge is the stable comparator sort over the concatenated
    /// runs — it finds the sorted runs and joins them in O(n log k) typed
    /// comparisons, ties going to the earlier run, so the in-memory sort's
    /// stability holds (runs are consecutive input chunks).
    pub(crate) fn external_sort(&self, t: &Table, keys: &[SortExpr], node: Node) -> Result<Table> {
        let n = t.num_rows();
        if n == 0 {
            return Ok(t.clone());
        }
        let ctx = self.ctx(CostCategory::OrderBy);
        let runs_in = chunk_morsels(t, self.rows_per_chunk(t));
        self.bufmgr.note_repartition(1);
        let mut runs: Vec<Table> = Vec::with_capacity(runs_in.len());
        let mut tickets = Vec::with_capacity(runs_in.len());
        for run in &runs_in {
            let _g = self
                .bufmgr
                .request_grant((run.byte_size() as u64).max(256))?;
            let sorted = sort_table(&ctx, run, keys)?;
            tickets.push(
                self.bufmgr
                    .spill_write((sorted.byte_size() as u64).max(1))?,
            );
            runs.push(sorted);
        }
        for ticket in &tickets {
            self.bufmgr.spill_read(ticket);
        }
        self.note_spill(node, tickets.len() as u64);
        drop(tickets);
        // One streamed merge pass over the run data. Keys were evaluated
        // (and charged) per run above and travel with the runs, so the merge
        // itself computes through a muted context under this one charge.
        ctx.charge(
            "sort.merge",
            &WorkProfile::scan(t.byte_size() as u64)
                .with_flops((n as u64) * u64::from(runs.len().max(2).ilog2()))
                .with_rows(n as u64),
        );
        let merged = concat_morsels(t.schema().clone(), &runs);
        sort_table(&ctx.muted(), &merged, keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{Array, DataType, Field, Scalar, Schema};
    use sirius_hw::{catalog, TraceConfig};
    use sirius_plan::builder::PlanBuilder;
    use sirius_plan::expr::col;
    use sirius_trace::EventKind;

    /// 2 400 rows whose sort keys repeat across any run boundary: a nullable
    /// `Int64` with 7 values, a plain and a dictionary string with 5 and 3,
    /// and the row id, which shows where equal keys ended up.
    fn keyed_rows() -> Table {
        let n = 2400i64;
        let ints: Vec<Scalar> = (0..n)
            .map(|i| match (i * 37 + 11) % 8 {
                7 => Scalar::Null,
                v => Scalar::Int64(v - 3),
            })
            .collect();
        let words = ["delta", "", "alpha", "naïve", "alphabet"];
        let plain = (0..n).map(|i| words[(i * 13 % 5) as usize]);
        let encoded = (0..n).map(|i| words[(i * 7 % 3) as usize]);
        let columns = vec![
            Array::from_scalars(&ints, DataType::Int64),
            Array::from_strs(plain),
            Array::from_strs(encoded).dict_encode(),
            Array::from_i64(0..n),
        ];
        let fields = ["a", "s", "d", "row"].iter().zip(&columns);
        let fields = fields.map(|(name, c)| Field::new(*name, c.data_type()));
        Table::new(Schema::new(fields.collect()), columns)
    }

    /// The order nothing else checks: under a denied sort grant the spilled
    /// runs merge into exactly the in-memory sort's rows — equal keys in
    /// input order across run boundaries, NULLs first ascending and last
    /// descending, strings bytewise — and the ledger is charged what the
    /// k-way merge this replaced charged (nanoseconds recorded at 7e75def),
    /// under kernel names only, its one merge pass as `sort.merge`.
    #[test]
    fn external_sort_equals_the_in_memory_sort_row_for_row() {
        let t = keyed_rows();
        let engine = |memory_bytes: Option<u64>| {
            let mut spec = catalog::gh200_gpu();
            if let Some(bytes) = memory_bytes {
                spec.memory_bytes = bytes;
            }
            let e = SiriusEngine::new(spec).with_trace(TraceConfig::On);
            e.load_table("t", &t);
            e
        };
        let (roomy, tight) = (engine(None), engine(Some(8192)));
        let key = |c: usize, ascending: bool| SortExpr {
            expr: col(c),
            ascending,
        };
        let cases = [
            (vec![key(0, true), key(1, false)], (134_260u128, 66_330u128)),
            (vec![key(2, false), key(0, false)], (134_227, 66_330)),
            (
                vec![key(1, true), key(2, true), key(0, true)],
                (134_260, 66_330),
            ),
        ];
        for (keys, charged) in cases {
            let plan = PlanBuilder::scan("t", t.schema().clone())
                .sort(keys.clone())
                .build();
            let expected = roomy.execute(&plan).unwrap();
            let spilled = tight.spill_stats();
            tight.device().reset();
            tight.trace().clear();
            let got = tight.execute(&plan).unwrap();
            // The lifetime counters, not a run's report: this test holds the
            // sort path, not the meter.
            #[allow(clippy::disallowed_methods)]
            let runs = tight.spill_stats().since(&spilled).partitions;
            assert!(runs >= 3, "{runs} runs: the sort grant must be denied");
            assert_eq!(got, expected, "keys {keys:?}");
            let spent = tight.device().breakdown();
            let nanos = |c| spent.get(c).as_nanos();
            assert_eq!(
                (nanos(CostCategory::OrderBy), nanos(CostCategory::Exchange)),
                charged,
                "keys {keys:?}"
            );
            let events = tight.trace().events();
            let kernels = events.iter().filter(|e| e.kind == EventKind::Kernel);
            let unnamed = kernels
                .clone()
                .filter(|e| CostCategory::from_label(&e.label).is_some());
            assert_eq!(
                unnamed.count(),
                0,
                "keys {keys:?}: a kernel charged without a name"
            );
            let merges = kernels.filter(|e| e.label == "sort.merge").count();
            assert_eq!(merges, 1, "keys {keys:?}: one merge pass");
        }
    }

    /// A failing leaf is the join's error, as in the resident join: a
    /// scalar subquery (`Single` join) whose build side spilled fails in the
    /// partition pair that holds the duplicated key, and the walk leaves no
    /// grant or spill temp behind — whether the leaves ran on the caller or
    /// on the pool. The replay stops at that leaf, so the ledger holds what
    /// the serial recursion charged before it failed (`Join` and `Exchange`
    /// nanoseconds recorded at a97a0ad), not the later partitions the walk
    /// went on to spill.
    #[test]
    fn a_failing_leaf_is_the_joins_error_and_releases_everything() {
        let keys = |n: i64, dup: Option<i64>| {
            let k: Vec<i64> = (0..n).chain(dup).collect();
            let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
            Table::new(schema, vec![Array::from_i64(k)])
        };
        let (left, right) = (keys(3000, None), keys(3000, Some(777)));
        let plan = PlanBuilder::scan("l", left.schema().clone())
            .join(
                PlanBuilder::scan("r", right.schema().clone()),
                sirius_plan::JoinKind::Single,
                vec![col(0)],
                vec![col(0)],
                None,
            )
            .build();
        for (memory_bytes, workers) in [(None, 4), (Some(8192), 1), (Some(8192), 4)] {
            let mut config = crate::EngineConfig {
                workers,
                morsel_rows: 512,
                ..crate::EngineConfig::new(catalog::gh200_gpu())
            };
            if let Some(bytes) = memory_bytes {
                config.spec.memory_bytes = bytes;
            }
            let e = SiriusEngine::from_config(config);
            e.load_table("l", &left);
            e.load_table("r", &right);
            let err = e.execute(&plan).unwrap_err();
            let SiriusError::Kernel(message) = &err else {
                panic!("{err:?}");
            };
            assert!(
                message.starts_with("scalar subquery returned 2 rows for outer row"),
                "{message}"
            );
            let spilled = e.spill_stats().partitions > 0;
            assert_eq!(spilled, memory_bytes.is_some(), "Grace join iff tight");
            if spilled {
                let spent = e.device().breakdown();
                let nanos = |c| spent.get(c).as_nanos();
                let charged = (nanos(CostCategory::Join), nanos(CostCategory::Exchange));
                assert_eq!(charged, (72_309, 28_124));
            }
            let broker = e.buffer_manager().grant_broker();
            assert_eq!((broker.outstanding(), broker.outstanding_bytes()), (0, 0));
            assert_eq!(e.buffer_manager().spill_manager().tier_usage(), (0, 0));
        }
    }
}
