//! Out-of-core execution paths (§3.4): Grace partitioned joins, spilling
//! and chunked aggregation, and external merge sort.
//!
//! These run when a pipeline-breaker's memory grant is denied. They are
//! invoked serially by the DAG scheduler ([`crate::schedule`]) — a spilling
//! pipeline owns the device while it partitions — and work on materialized
//! inputs.
//!
//! Each path is its in-memory breaker applied to windows of the input, plus
//! the grants, spill tickets and counters: a Grace partition is a window of
//! the table `hash_partition` permuted once, joined or aggregated by the
//! resident code (`Run::apply`, `aggregate_single_pass`, [`PartialAgg`]);
//! an external run is a morsel through the sort sink's `sort_table`, and
//! the merge is `sort_table` again over the concatenated runs — no
//! algorithm lives only here.

use crate::engine::SiriusEngine;
use crate::exprs::evaluate_all;
use crate::morsel::{
    aggregate_single_pass, chunk_morsels, concat_morsels, sort_table, BuildSide, Builds,
    PartialAgg, Run,
};
use crate::physical::{Aggregation, Probe, StreamOp};
use crate::{Result, SiriusError};
use sirius_columnar::Table;
use sirius_cudf::partition::hash_partition;
use sirius_hw::{CostCategory, WorkProfile};
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
                let rk = evaluate_all(&ctx, &probe.right_keys, rt)?;
                let lk = evaluate_all(&ctx, &probe.left_keys, lt)?;
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
        let ctx = self.ctx(agg.category());
        if let Ok(_state) = self.bufmgr.request_grant(need) {
            return aggregate_single_pass(&ctx, t, agg);
        }
        if agg.keys.is_empty() || depth >= MAX_SPILL_DEPTH {
            return self.chunked_aggregate(t, agg);
        }
        let key_cols = evaluate_all(&ctx, &agg.keys, t)?;
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
        let ctx = self.ctx(agg.category());
        if t.num_rows() == 0 {
            return aggregate_single_pass(&ctx, t, agg);
        }
        let chunks = chunk_morsels(t, self.rows_per_chunk(t));
        if !grouped {
            // Never partitioned: the chunked pass is its one spill level.
            self.bufmgr.note_repartition(1);
        }
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
    use sirius_hw::catalog;
    use sirius_plan::builder::PlanBuilder;
    use sirius_plan::expr::col;

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
    /// k-way merge this replaced charged (nanoseconds recorded at 7e75def).
    #[test]
    fn external_sort_equals_the_in_memory_sort_row_for_row() {
        let t = keyed_rows();
        let engine = |memory_bytes: Option<u64>| {
            let mut spec = catalog::gh200_gpu();
            if let Some(bytes) = memory_bytes {
                spec.memory_bytes = bytes;
            }
            let e = SiriusEngine::new(spec);
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
            let got = tight.execute(&plan).unwrap();
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
        }
    }
}
