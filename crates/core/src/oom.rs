//! Out-of-core execution paths (§3.4): Grace partitioned joins, spilling
//! and chunked aggregation, and external merge sort.
//!
//! These run when a pipeline-breaker's memory grant is denied. They are
//! invoked serially by the DAG scheduler ([`crate::schedule`]) — a spilling
//! pipeline owns the device while it partitions — and work on materialized
//! inputs.

use crate::engine::SiriusEngine;
use crate::exprs::evaluate;
use crate::morsel::{chunk_morsels, concat_morsels, BuildSide, Builds, PartialAgg, Run};
use crate::physical::{Aggregation, Probe, StreamOp};
use crate::{Result, SiriusError};
use sirius_columnar::{Array, Table};
use sirius_cudf::filter::gather;
use sirius_cudf::partition::hash_partition;
use sirius_cudf::sort::{sort_indices, SortKey};
use sirius_hw::{CostCategory, WorkProfile};
use sirius_plan::expr::{Expr, SortExpr};
use sirius_plan::visit::Node;
use std::cmp::Ordering;
use std::sync::Arc;

/// Deepest recursive repartitioning a spilling operator attempts before
/// reporting a hard out-of-memory error. With up to
/// [`MAX_SPILL_PARTITIONS`]-way fan-out per level, four levels cover any
/// working set the simulated tiers could plausibly hold.
const MAX_SPILL_DEPTH: u32 = 4;

/// Fan-out cap per partitioning round; oversized partitions recurse with a
/// fresh hash level instead of exploding the partition count.
const MAX_SPILL_PARTITIONS: usize = 64;

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
    /// only a downstream sort observes.
    pub(crate) fn grace_join(
        &self,
        lt: &Table,
        rt: &Table,
        probe: &Probe,
        depth: u32,
    ) -> Result<Table> {
        let need = (rt.byte_size() as u64).max(1024);
        match self.bufmgr.request_grant(need) {
            Ok(_grant) => {
                let hash = Some(self.build_join_hash(&probe.right_keys, rt)?);
                let table = rt.clone();
                let builds = Builds::from([(probe.build, BuildSide { table, hash })]);
                let op = StreamOp::Probe(probe.clone());
                Run::Plain(&op).apply(&self.device, lt.clone(), &builds, self.op_stats.as_deref())
            }
            Err(_) if depth >= MAX_SPILL_DEPTH => Err(SiriusError::OutOfMemory(format!(
                "join build side of {} B still exceeds the processing region after \
                 {MAX_SPILL_DEPTH} repartitioning rounds",
                rt.byte_size()
            ))),
            Err(_) => {
                let parts = self.partition_fanout(need);
                let ctx = self.ctx(CostCategory::Join);
                let keys = |exprs: &[Expr], t: &Table| -> Result<Vec<Array>> {
                    exprs.iter().map(|e| evaluate(&ctx, e, t)).collect()
                };
                let (rk, lk) = (keys(&probe.right_keys, rt)?, keys(&probe.left_keys, lt)?);
                let rparts =
                    hash_partition(&ctx, &rk.iter().collect::<Vec<_>>(), rt, parts, depth)?;
                let lparts =
                    hash_partition(&ctx, &lk.iter().collect::<Vec<_>>(), lt, parts, depth)?;
                self.bufmgr.note_repartition(depth + 1);
                let mut outs = Vec::with_capacity(parts);
                let mut spilled = 0u64;
                for (lp, rp) in lparts.iter().zip(&rparts) {
                    if lp.num_rows() == 0 && rp.num_rows() == 0 {
                        continue;
                    }
                    // Park both sides, reading each back as the pair joins.
                    let lticket = self.bufmgr.spill_write((lp.byte_size() as u64).max(1))?;
                    let rticket = self.bufmgr.spill_write((rp.byte_size() as u64).max(1))?;
                    self.bufmgr.spill_read(&lticket);
                    self.bufmgr.spill_read(&rticket);
                    drop((lticket, rticket));
                    spilled += 2;
                    outs.push(self.grace_join(lp, rp, probe, depth + 1)?);
                }
                self.note_spill(probe.node, spilled);
                Ok(concat_morsels(probe.schema.clone(), &outs))
            }
        }
    }

    /// Spilling aggregation: if the accumulator state fits under a grant,
    /// aggregate in one pass; otherwise hash-partition the input by its
    /// group keys (groups never span partitions, so even `COUNT(DISTINCT)`
    /// stays exact), spill the partitions, and aggregate each on read-back.
    /// Ungrouped aggregates stream chunk-wise partials instead — they have
    /// no keys to partition on.
    pub(crate) fn spilling_aggregate(
        &self,
        t: &Table,
        agg: &Arc<Aggregation>,
        depth: u32,
    ) -> Result<Table> {
        let need = (t.byte_size() as u64 / 2).max(1024);
        if let Ok(_state) = self.bufmgr.request_grant(need) {
            return self.aggregate_single_pass(t, agg);
        }
        if agg.keys.is_empty() || depth >= MAX_SPILL_DEPTH {
            return self.chunked_aggregate(t, agg);
        }
        let ctx = self.ctx(agg.category());
        let key_cols: Vec<Array> = (agg.keys.iter())
            .map(|k| evaluate(&ctx, k, t))
            .collect::<Result<_>>()?;
        let parts = self.partition_fanout(need);
        let pts = hash_partition(&ctx, &key_cols.iter().collect::<Vec<_>>(), t, parts, depth)?;
        if pts.iter().any(|p| p.num_rows() == t.num_rows()) {
            // Partitioning cannot shrink this input — one group (or one
            // key value) dominates it. Accumulator state scales with the
            // group count, not the row count, so stream two-phase partials
            // instead of repartitioning to no effect.
            return self.chunked_aggregate(t, agg);
        }
        self.bufmgr.note_repartition(depth + 1);
        let mut outs = Vec::with_capacity(parts);
        let mut spilled = 0u64;
        for p in &pts {
            if p.num_rows() == 0 {
                continue;
            }
            let ticket = self.bufmgr.spill_write((p.byte_size() as u64).max(1))?;
            self.bufmgr.spill_read(&ticket);
            drop(ticket);
            spilled += 1;
            outs.push(self.spilling_aggregate(p, agg, depth + 1)?);
        }
        self.note_spill(agg.node, spilled);
        Ok(concat_morsels(agg.schema.clone(), &outs))
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
    fn chunked_aggregate(&self, t: &Table, agg: &Arc<Aggregation>) -> Result<Table> {
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
            return self.aggregate_single_pass(t, agg);
        }
        let chunks = chunk_morsels(t, self.rows_per_chunk(t));
        if !grouped {
            // Never partitioned: the chunked pass is its one spill level.
            self.bufmgr.note_repartition(1);
        }
        let ctx = self.ctx(agg.category());
        let mut parts = Vec::with_capacity(chunks.len());
        for c in &chunks {
            let _g = self
                .bufmgr
                .request_grant((c.byte_size() as u64 / 2).max(256))?;
            parts.push(partial.partial(&ctx, c)?);
        }
        // Merge: the concatenated partials hold at most (groups x chunks)
        // rows — tiny next to the input when groups are few.
        let all = partial.concat(&parts);
        let _merge_state = grouped
            .then(|| self.bufmgr.request_grant(all.byte_size().max(1024)))
            .transpose()?;
        partial.merge(&ctx, &all)
    }

    /// Rows per spill chunk of `t` (non-empty): as many as fit in half the
    /// largest grantable block.
    fn rows_per_chunk(&self, t: &Table) -> usize {
        let target = (self.bufmgr.largest_grantable() / 2).max(sirius_rmm::pool::ALIGNMENT);
        let bytes_per_row = ((t.byte_size() as u64) / t.num_rows() as u64).max(1);
        usize::try_from(target / bytes_per_row).unwrap_or(1).max(1)
    }

    /// External merge sort: split the input into runs that fit under a
    /// grant, sort and spill each run, then stream the runs back through a
    /// k-way merge. Tie-breaking by run index preserves the stability of
    /// the in-memory sort (runs are consecutive input chunks).
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
            let key_cols: Vec<(Array, bool)> = keys
                .iter()
                .map(|k| Ok((evaluate(&ctx, &k.expr, run)?, k.ascending)))
                .collect::<Result<_>>()?;
            let sort_keys: Vec<SortKey<'_>> = key_cols
                .iter()
                .map(|(c, asc)| SortKey {
                    column: c,
                    ascending: *asc,
                })
                .collect();
            let idx = sort_indices(&ctx, &sort_keys, run.num_rows())?;
            let sorted = gather(&ctx, run, &idx);
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
        // Keys were evaluated (and charged) per run above; re-deriving them
        // in sorted order models the merge reading keys carried with the
        // runs, so it computes through a muted context.
        let muted = ctx.muted();
        let run_keys: Vec<Vec<(Array, bool)>> = runs
            .iter()
            .map(|r| {
                keys.iter()
                    .map(|k| Ok((evaluate(&muted, &k.expr, r)?, k.ascending)))
                    .collect::<Result<_>>()
            })
            .collect::<Result<_>>()?;
        let cmp_rows = |ra: usize, ia: usize, rb: usize, ib: usize| -> Ordering {
            for ((ca, asc), (cb, _)) in run_keys[ra].iter().zip(&run_keys[rb]) {
                let ord = ca.scalar(ia).cmp(&cb.scalar(ib));
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            ra.cmp(&rb)
        };
        let offsets: Vec<i32> = runs
            .iter()
            .scan(0i32, |acc, r| {
                let o = *acc;
                *acc += r.num_rows() as i32;
                Some(o)
            })
            .collect();
        let mut cursor = vec![0usize; runs.len()];
        let mut order: Vec<i32> = Vec::with_capacity(n);
        while order.len() < n {
            let mut best: Option<usize> = None;
            for (r, run) in runs.iter().enumerate() {
                if cursor[r] >= run.num_rows() {
                    continue;
                }
                best = match best {
                    None => Some(r),
                    Some(b) if cmp_rows(r, cursor[r], b, cursor[b]) == Ordering::Less => Some(r),
                    keep => keep,
                };
            }
            let b = best.expect("merge exhausted runs before emitting every row");
            order.push(offsets[b] + cursor[b] as i32);
            cursor[b] += 1;
        }
        // One streamed merge pass over the run data.
        ctx.charge(
            &WorkProfile::scan(t.byte_size() as u64)
                .with_flops((n as u64) * u64::from(runs.len().max(2).ilog2()))
                .with_rows(n as u64),
        );
        let merged = concat_morsels(t.schema().clone(), &runs);
        Ok(gather(&muted, &merged, &order))
    }
}
