//! Morsel partitioning and the one walker that executes streaming
//! operators per morsel.
//!
//! A compiled pipeline ([`crate::physical`]) is executed as a wave of
//! morsel tasks: the source table splits into chunks of the engine's
//! `morsel_rows` and each chunk walks the pipeline's compiled [`StreamOp`]s —
//! the plan's own, never a lowered copy — charging its own recorder, which
//! the wave replays onto the task's device stream, run by run ([`walk`]). A plain op is a run of length 1 under the *charged*
//! discipline (its kernels charge the ledger as they launch); a fused
//! segment is a run under the *collected* discipline (kernel work is
//! gathered and the run ends in one labeled charge). Both disciplines are
//! live in the default configuration: lone scans, pass-through projections
//! and cross/residual probes stay plain while everything else fuses
//! ([`crate::physical::fuse`]). Everything here is stateless per morsel;
//! pipeline-breaker state lives in the scheduler ([`crate::schedule`]).

use crate::explain::OpStats;
use crate::exprs::{evaluate, evaluate_all};
use crate::physical::{Aggregation, FusedSegment, Probe, StreamOp};
use crate::Result;
use parking_lot::Mutex;
use sirius_columnar::{Array, Bitmap, DataType, Scalar, Schema, Table};
use sirius_cudf::filter::{apply_filter, gather, gather_opt};
use sirius_cudf::fused::FusedView;
use sirius_cudf::groupby::{avg_of, finalize_avg, group_by, AggRequest, GroupByResult};
use sirius_cudf::join::{
    cross_join_pairs, probe_hash_table, resolve_join, JoinHashTable, JoinType,
};
use sirius_cudf::reduce::reduce;
use sirius_cudf::sort::{sort_indices, SortKey};
use sirius_cudf::{GpuContext, WorkCollector};
use sirius_hw::{CostCategory, CostModel, Device, WorkProfile};
use sirius_plan::expr::{self, two_phase, AggExpr, Final, SortExpr};
use sirius_plan::visit::Node;
use sirius_plan::JoinKind;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Default rows per morsel: 1 Mi — large enough that per-task launch
/// overhead stays noise, small enough that TPC-H fact tables split into
/// enough morsels to feed several streams. Sources at most this large run
/// as a single morsel.
pub const DEFAULT_MORSEL_ROWS: usize = 1 << 20;

/// An engine's per-node runtime stats, shared with its morsel tasks.
pub(crate) type SharedOpStats = Arc<Mutex<HashMap<u32, OpStats>>>;

/// The stats a morsel task notes into.
pub(crate) type OpStatsRef<'a> = &'a Mutex<HashMap<u32, OpStats>>;

/// A join build side as its probes see it.
pub(crate) struct BuildSide {
    /// Materialized build-side table.
    pub(crate) table: Table,
    /// Hash table over the build keys (`None` ⇒ cross join).
    pub(crate) hash: Option<Arc<JoinHashTable>>,
}

/// The build sides one wave's probes resolve against, by build pipeline id.
pub(crate) type Builds = HashMap<usize, BuildSide>;

/// One run of a morsel task's streaming chain, with its charge discipline.
#[derive(Clone, Copy)]
pub(crate) enum Run<'a> {
    /// A run of length 1, *charged*: the op's kernels charge the ledger as
    /// they launch.
    Plain(&'a StreamOp),
    /// A fused segment, *collected*: the inner ops' kernel work is routed
    /// into collectors and the run ends in one labeled charge.
    Fused(&'a FusedSegment),
}

impl<'a> Run<'a> {
    /// The run's streaming ops, in order.
    pub(crate) fn ops(self) -> &'a [StreamOp] {
        match self {
            Run::Plain(op) => std::slice::from_ref(op),
            Run::Fused(seg) => seg.ops(),
        }
    }

    /// Walk the run over one morsel and settle its charge. A fused run
    /// charges exactly one kernel: streamed bytes are the morsel read plus
    /// the output write (intermediates lived in registers), while collected
    /// random-access traffic (hash probes, join gathers) and flops are kept
    /// honest.
    pub(crate) fn apply(
        self,
        device: &Device,
        t: Table,
        builds: &Builds,
        stats: OpStatsRef<'_>,
    ) -> Result<Table> {
        let Run::Fused(seg) = self else {
            return Ok(walk(device, t, self.ops(), false, builds, stats)?.out);
        };
        let walked = walk(device, t, seg.ops(), true, builds, stats)?;
        let collected = walked.collected();
        // The output write is charged as the segment's one streamed write —
        // except when the final inner op is a probe, whose gathers already
        // moved every output byte as (collected) random traffic; adding a
        // streamed write on top would charge the materialization twice.
        let out_streamed = match seg.ops().last() {
            Some(StreamOp::Probe(_)) => 0,
            _ => walked.out.byte_size() as u64,
        };
        let work = WorkProfile {
            bytes_streamed: walked.in_bytes + out_streamed,
            bytes_random: collected.bytes_random,
            flops: collected.flops,
            launches: 1,
            rows: walked.in_rows,
        };
        let busy = device.charge(seg.category(), seg.label(), &work);
        attribute_fused(stats, device, &walked.per_op, busy, None);
        Ok(walked.out)
    }
}

/// The result of walking a run over one morsel: the output, the morsel's
/// input size (the single source read a fused run is charged for), and —
/// under the collected discipline — the per-op work gathered along the way
/// (for time attribution and the charge's random/flop terms).
pub(crate) struct Walked {
    /// Run output table.
    pub(crate) out: Table,
    /// Byte size of the morsel entering the run.
    pub(crate) in_bytes: u64,
    /// Row count of the morsel entering the run.
    pub(crate) in_rows: u64,
    /// Collected discipline only. Per op: plan node, selected rows and
    /// byte estimate after the op, and the work its kernels would have
    /// charged.
    pub(crate) per_op: Vec<(Node, u64, u64, WorkProfile)>,
}

impl Walked {
    /// All work collected across the ops, merged.
    pub(crate) fn collected(&self) -> WorkProfile {
        self.per_op
            .iter()
            .fold(WorkProfile::default(), |acc, (_, _, _, w)| acc.merge(*w))
    }
}

/// Walk streaming ops over one morsel — the only place they execute.
///
/// Every op runs against a [`FusedView`]. Under the *charged* discipline
/// (`collected == false`) its kernels charge the ledger as they launch and
/// the op's time on `device` and output cardinality are noted in `stats`
/// under its plan node. `device` is a task's or a leaf's recorder, whose
/// clock only that task advances, so the time is exactly the op's own. Under the *collected* discipline filters fold
/// their masks into the view's lazy selection and all kernel work is routed
/// into collectors and returned **without charging the ledger**: the caller
/// owns the single charge — the plain segment charge ([`Run::apply`]) or
/// the absorbed segment + aggregate charge ([`PartialAgg::task`]).
pub(crate) fn walk(
    device: &Device,
    t: Table,
    ops: &[StreamOp],
    collected: bool,
    builds: &Builds,
    stats: OpStatsRef<'_>,
) -> Result<Walked> {
    let in_bytes = t.byte_size() as u64;
    let in_rows = t.num_rows() as u64;
    let mut view = FusedView::new(t);
    let mut per_op = Vec::with_capacity(if collected { ops.len() } else { 0 });
    for op in ops {
        let collector = collected.then(WorkCollector::new);
        let before = device.elapsed();
        let ctx = |category| {
            let ctx = GpuContext::new(device.clone(), category);
            match &collector {
                Some(c) => ctx.collecting(c),
                None => ctx,
            }
        };
        match op {
            // Collected, the morsel read is the segment's single input read:
            // nothing per-op to do.
            StreamOp::Scan { .. } if collected => {}
            StreamOp::Scan { .. } => {
                let t = view.compacted();
                ctx(CostCategory::Scan).charge(
                    "scan.read",
                    &WorkProfile::scan(t.byte_size() as u64).with_rows(t.num_rows() as u64),
                );
            }
            StreamOp::Filter { predicate, .. } => {
                let ctx = ctx(CostCategory::Filter);
                let mask = evaluate(&ctx, predicate, view.compacted())?;
                if collected {
                    view.select(&mask)?;
                } else {
                    let out = apply_filter(&ctx, view.compacted(), &mask)?;
                    view.replace(out);
                }
            }
            StreamOp::Project { exprs, schema, .. } => {
                let ctx = ctx(CostCategory::Project);
                let cols = evaluate_all(&ctx, exprs, view.compacted())?;
                view.replace(Table::new(schema.clone(), cols));
            }
            StreamOp::Probe(probe) => {
                let out = probe_morsel(
                    &ctx(CostCategory::Join),
                    probe,
                    &builds[&probe.build],
                    view.compacted(),
                )?;
                view.replace(out);
            }
        }
        let out = |view: &FusedView| (view.num_rows() as u64, view.byte_estimate());
        if let Some(c) = collector {
            let (rows, bytes) = out(&view);
            per_op.push((op.node(), rows, bytes, c.take()));
        } else {
            let busy = device.elapsed().saturating_sub(before);
            let (rows, bytes) = out(&view);
            let mut stats = stats.lock();
            stats
                .entry(op.node().id)
                .or_default()
                .note(rows, bytes, busy);
        }
    }
    Ok(Walked {
        out: view.finish(),
        in_bytes,
        in_rows,
        per_op,
    })
}

/// Hash-join probe (or cross-join expansion) of one morsel against a
/// pre-built build side.
fn probe_morsel(ctx: &GpuContext, probe: &Probe, build: &BuildSide, t: &Table) -> Result<Table> {
    let rt = &build.table;
    let pairs = match &build.hash {
        None => cross_join_pairs(ctx, t.num_rows(), rt.num_rows()),
        Some(table) => {
            let lk = evaluate_all(ctx, &probe.left_keys, t)?;
            let lrefs: Vec<&Array> = lk.iter().collect();
            probe_hash_table(ctx, table, &lrefs, t.num_rows(), 0)?
        }
    };

    // Residual predicate, vectorized over the candidate pairs.
    let mask: Option<Bitmap> = match &probe.residual {
        None => None,
        Some(res) => {
            let lp = gather(ctx, t, &pairs.left);
            let rp = gather(ctx, rt, &pairs.right);
            let combined = lp.hstack(&rp);
            let col = evaluate(ctx, res, &combined)?;
            Some(
                col.as_bool()
                    .map_err(sirius_cudf::KernelError::from)?
                    .to_selection(),
            )
        }
    };
    let idx = resolve_join(ctx, lower_join(probe.kind), &pairs, mask.as_ref())?;

    // Materialize.
    match probe.kind {
        JoinKind::Semi | JoinKind::Anti => Ok(gather(ctx, t, &idx.left)),
        _ => {
            let l = gather(ctx, t, &idx.left);
            let r = gather_opt(ctx, rt, &idx.right);
            let out = l.hstack(&r);
            // Adopt the plan schema (nullability from join kind).
            Ok(Table::new(probe.schema.clone(), out.columns().to_vec()))
        }
    }
}

/// Split a fused kernel's time across its inner ops' plan nodes,
/// proportional to each op's collected roofline time. Without `tail`, the
/// integer remainder is pinned on the heaviest op so the per-node
/// nanoseconds sum exactly to the kernel duration (trace reconciliation is
/// exact). With `tail` — the aggregate work absorbed into the kernel in
/// fused-aggregation mode — the tail's proportional share (and the
/// remainder) is deliberately left unattributed: the sink node's stats are
/// noted once at pipeline finish over the whole wall window, and
/// double-counting it per morsel would inflate the sink past the pipeline
/// wall time.
fn attribute_fused(
    stats: OpStatsRef<'_>,
    device: &Device,
    per_op: &[(Node, u64, u64, WorkProfile)],
    busy: Duration,
    tail: Option<&WorkProfile>,
) {
    let mut weights: Vec<f64> = per_op
        .iter()
        .map(|(_, _, _, w)| CostModel::kernel_time(device.spec(), w).as_secs_f64())
        .collect();
    if let Some(tail) = tail {
        weights.push(CostModel::kernel_time(device.spec(), tail).as_secs_f64());
    }
    let total: f64 = weights.iter().sum();
    let nanos = busy.as_nanos() as u64;
    let mut shares: Vec<u64> = if total > 0.0 {
        weights
            .iter()
            .map(|w| (nanos as f64 * (w / total)) as u64)
            .collect()
    } else {
        vec![0; weights.len()]
    };
    if tail.is_none() {
        let heaviest = weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let assigned: u64 = shares.iter().sum();
        shares[heaviest] += nanos.saturating_sub(assigned);
    }
    let mut stats = stats.lock();
    for ((node, rows, bytes, _), share) in per_op.iter().zip(shares) {
        stats
            .entry(node.id)
            .or_default()
            .note(*rows, *bytes, Duration::from_nanos(share));
    }
}

/// Partition a source into morsels of at most `rows` rows. A source that
/// fits in one morsel is shared, not copied; an empty source yields no
/// morsels. Larger sources split into `⌈n/rows⌉` near-equal morsels (within
/// one row of each other) so no remainder straggler serializes behind a
/// full morsel on its stream.
pub(crate) fn chunk_morsels(t: &Table, rows: usize) -> Vec<Table> {
    let rows = rows.max(1);
    let n = t.num_rows();
    if n == 0 {
        return Vec::new();
    }
    if n <= rows {
        return vec![t.clone()];
    }
    let k = n.div_ceil(rows);
    let base = n / k;
    let extra = n % k; // the first `extra` morsels carry one more row
    let mut out = Vec::with_capacity(k);
    let mut offset = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push(t.slice(offset, len));
        offset += len;
    }
    out
}

/// Reassemble morsel outputs in morsel order (`schema` covers the
/// zero-morsel case, where there is no runtime table to take it from).
pub(crate) fn concat_morsels(schema: Schema, morsels: &[Table]) -> Table {
    match morsels.len() {
        0 => Table::empty(schema),
        1 => morsels[0].clone(),
        _ => {
            let refs: Vec<&Table> = morsels.iter().collect();
            Table::concat(&refs)
        }
    }
}

/// Evaluate each aggregate's input expression over `t`.
fn agg_inputs(ctx: &GpuContext, aggregates: &[AggExpr], t: &Table) -> Result<Vec<Option<Array>>> {
    aggregates
        .iter()
        .map(|a| a.input.as_ref().map(|e| evaluate(ctx, e, t)).transpose())
        .collect()
}

/// What one aggregation pass over `rows` rows produced.
enum Aggregated {
    /// No keys: one scalar per request.
    Scalars(Vec<Scalar>),
    /// One row per group.
    Groups(GroupByResult),
}

/// The one aggregation pass: a reduction per request without keys, a
/// group-by with them. Whole-column aggregation and both phases of the
/// two-phase plan are this over their own inputs and kinds.
fn aggregate(
    ctx: &GpuContext,
    keys: &[Array],
    requests: &[AggRequest<'_>],
    rows: usize,
) -> Result<Aggregated> {
    if keys.is_empty() {
        let reduced = requests.iter().map(|r| reduce(ctx, r.kind, r.input, rows));
        let scalars: sirius_cudf::Result<_> = reduced.collect();
        return Ok(Aggregated::Scalars(scalars?));
    }
    let key_refs: Vec<&Array> = keys.iter().collect();
    let groups = group_by(ctx, &key_refs, requests, rows)?;
    Ok(Aggregated::Groups(groups))
}

/// The whole-column aggregation pass (single morsel or non-decomposable
/// aggregates), also the terminal step of the spilling paths.
pub(crate) fn aggregate_single_pass(
    ctx: &GpuContext,
    t: &Table,
    agg: &Aggregation,
) -> Result<Table> {
    let inputs = agg_inputs(ctx, &agg.aggregates, t)?;
    let keys = evaluate_all(ctx, &agg.keys, t)?;
    let requests: Vec<AggRequest<'_>> = (agg.aggregates.iter().zip(&inputs))
        .map(|(a, input)| AggRequest {
            kind: a.func,
            input: input.as_ref(),
        })
        .collect();
    Ok(match aggregate(ctx, &keys, &requests, t.num_rows())? {
        Aggregated::Scalars(scalars) => scalar_table(&scalars, &agg.schema),
        Aggregated::Groups(r) => {
            let cols = r.key_columns.into_iter().chain(r.agg_columns);
            Table::new(agg.schema.clone(), cols.collect())
        }
    })
}

/// `t` in the order of `keys`: evaluate the keys, sort their row ids by
/// their encoded keys (stable: equal keys keep their input order), gather.
/// The in-memory sort sink, every run of the external sort and — through a
/// muted context over the whole input — its merge.
pub(crate) fn sort_table(ctx: &GpuContext, t: &Table, keys: &[SortExpr]) -> Result<Table> {
    let columns: Vec<Array> = keys
        .iter()
        .map(|k| evaluate(ctx, &k.expr, t))
        .collect::<Result<_>>()?;
    let sort_keys: Vec<SortKey<'_>> = (columns.iter().zip(keys))
        .map(|(column, k)| SortKey {
            column,
            ascending: k.ascending,
        })
        .collect();
    let order = sort_indices(ctx, &sort_keys, t.num_rows())?;
    Ok(gather(ctx, t, &order))
}

/// Phase-one output of a two-phase aggregation over one morsel (or spill
/// chunk), and the concatenation of many. Ungrouped aggregations fill
/// `scalars` per morsel and `aggs` once concatenated; grouped ones fill
/// `keys` and `aggs` throughout.
#[derive(Default)]
pub(crate) struct Partial {
    keys: Vec<Array>,
    aggs: Vec<Array>,
    scalars: Vec<Scalar>,
}

/// Bytes the ledger charges per ungrouped partial scalar: a parameter of the
/// cost model, not a layout. It equals `size_of::<Scalar>()` under the rustc
/// that generated the snapshots; tying it to the type would move simulated
/// time with the toolchain (older compilers lay `Scalar` out in 32 bytes).
const PARTIAL_SCALAR_BYTES: u64 = 24;

impl Partial {
    /// Bytes the partial accumulators occupy.
    pub(crate) fn byte_size(&self) -> u64 {
        let arrays = self.keys.iter().chain(&self.aggs);
        arrays.map(|a| a.byte_size() as u64).sum::<u64>()
            + self.scalars.len() as u64 * PARTIAL_SCALAR_BYTES
    }
}

/// A decomposable aggregation: the sink's spec plus its [`two_phase`]
/// split. Shared by the fused-aggregation morsel tasks and the chunked spill
/// paths, which differ only in where the chunks come from.
pub(crate) struct PartialAgg {
    pub(crate) spec: Arc<Aggregation>,
    partials: Vec<expr::Partial>,
    finals: Vec<Final>,
}

impl PartialAgg {
    /// `None` when an aggregate cannot merge partials (`COUNT(DISTINCT)`).
    pub(crate) fn new(spec: &Arc<Aggregation>) -> Option<Self> {
        let (partials, finals) = two_phase(spec.aggregates.iter().map(|a| a.func))?;
        Some(PartialAgg {
            spec: Arc::clone(spec),
            partials,
            finals,
        })
    }

    /// Phase one: partial reductions (ungrouped) or a partial group-by over
    /// one morsel.
    pub(crate) fn partial(&self, ctx: &GpuContext, t: &Table) -> Result<Partial> {
        let inputs = agg_inputs(ctx, &self.spec.aggregates, t)?;
        let keys = evaluate_all(ctx, &self.spec.keys, t)?;
        let requests: Vec<AggRequest<'_>> = (self.partials.iter())
            .map(|p| AggRequest {
                kind: p.func,
                input: inputs[p.source].as_ref(),
            })
            .collect();
        Ok(match aggregate(ctx, &keys, &requests, t.num_rows())? {
            Aggregated::Scalars(scalars) => Partial {
                scalars,
                ..Partial::default()
            },
            Aggregated::Groups(r) => Partial {
                keys: r.key_columns,
                aggs: r.agg_columns,
                scalars: Vec::new(),
            },
        })
    }

    /// Phase one as the tail of a morsel task. A trailing fused segment
    /// (`absorbed`) is folded into the aggregation kernel: the segment
    /// walks uncharged, the partial aggregation runs through a collector,
    /// and the morsel is charged as ONE kernel — one read of the source
    /// morsel plus one write of the (tiny) partial accumulators.
    /// Aggregate-rooted scans like Q1/Q6 thus touch each source byte
    /// exactly once.
    pub(crate) fn task(
        &self,
        device: &Device,
        t: Table,
        absorbed: Option<&FusedSegment>,
        builds: &Builds,
        stats: OpStatsRef<'_>,
    ) -> Result<Partial> {
        let category = self.spec.category();
        let ctx = GpuContext::new(device.clone(), category);
        let Some(seg) = absorbed else {
            return self.partial(&ctx, &t);
        };
        let walked = walk(device, t, seg.ops(), true, builds, stats)?;
        let collector = WorkCollector::new();
        let partial = self.partial(&ctx.collecting(&collector), &walked.out)?;
        let (seg_work, agg_work) = (walked.collected(), collector.take());
        let work = WorkProfile {
            bytes_streamed: walked.in_bytes + partial.byte_size(),
            bytes_random: seg_work.bytes_random + agg_work.bytes_random,
            flops: seg_work.flops + agg_work.flops,
            launches: 1,
            rows: walked.in_rows,
        };
        let busy = device.charge(category, seg.label(), &work);
        attribute_fused(stats, device, &walked.per_op, busy, Some(&agg_work));
        Ok(partial)
    }

    /// Line the partials up column-wise, in morsel order — so
    /// first-appearance (and sorted) group order matches the whole-column
    /// pass.
    pub(crate) fn concat(&self, parts: &[Partial]) -> Partial {
        let concat = |cols: Vec<&Array>| Array::concat(&cols);
        let n = self.partials.len();
        if !self.spec.keys.is_empty() {
            return Partial {
                keys: (0..self.spec.keys.len())
                    .map(|k| concat(parts.iter().map(|p| &p.keys[k]).collect()))
                    .collect(),
                aggs: (0..n)
                    .map(|a| concat(parts.iter().map(|p| &p.aggs[a]).collect()))
                    .collect(),
                scalars: Vec::new(),
            };
        }
        let aggs = (0..n)
            .map(|a| {
                let col: Vec<Scalar> = parts.iter().map(|p| p.scalars[a].clone()).collect();
                let dt = col
                    .iter()
                    .find_map(|s| s.data_type())
                    .unwrap_or(DataType::Int64);
                Array::from_scalars(&col, dt)
            })
            .collect();
        Partial {
            aggs,
            ..Partial::default()
        }
    }

    /// Phase two (serial: the breaker): re-aggregate concatenated partials
    /// with their merge functions and finalize.
    pub(crate) fn merge(&self, ctx: &GpuContext, all: &Partial) -> Result<Table> {
        let schema = &self.spec.schema;
        let first = all.keys.iter().chain(&all.aggs).next();
        let total = first.map_or(0, |a| a.len());
        let requests: Vec<AggRequest<'_>> = (self.partials.iter().zip(&all.aggs))
            .map(|(p, col)| AggRequest {
                kind: p.merge(),
                input: Some(col),
            })
            .collect();
        Ok(match aggregate(ctx, &all.keys, &requests, total)? {
            Aggregated::Scalars(merged) => {
                let finals = self.finals.iter().map(|f| match *f {
                    Final::Merged(i) => merged[i].clone(),
                    Final::Avg { sum, count } => avg_of(&merged[sum], &merged[count]),
                });
                scalar_table(&finals.collect::<Vec<_>>(), schema)
            }
            Aggregated::Groups(r) => {
                let (keys, merged) = (r.key_columns, r.agg_columns);
                let finals = self.finals.iter().map(|f| match *f {
                    Final::Merged(i) => merged[i].clone(),
                    Final::Avg { sum, count } => finalize_avg(ctx, &merged[sum], &merged[count]),
                });
                let cols = keys.into_iter().chain(finals);
                Table::new(schema.clone(), cols.collect())
            }
        })
    }
}

/// One-row table from final aggregate scalars.
fn scalar_table(scalars: &[Scalar], schema: &Schema) -> Table {
    let cols = scalars
        .iter()
        .zip(schema.fields.iter())
        .map(|(s, f)| Array::from_scalars(std::slice::from_ref(s), f.data_type))
        .collect();
    Table::new(schema.clone(), cols)
}

pub(crate) fn lower_join(k: JoinKind) -> JoinType {
    match k {
        JoinKind::Inner | JoinKind::Cross => JoinType::Inner,
        JoinKind::Left => JoinType::Left,
        JoinKind::Semi => JoinType::Semi,
        JoinKind::Anti => JoinType::Anti,
        JoinKind::Single => JoinType::Single,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::Field;

    /// Address of row `i`'s value, code or payload: equal addresses mean
    /// shared buffers. `None` for `Bool` (bitmaps are copied, a bit a row).
    fn ptr_at(a: &Array, i: usize) -> Option<*const u8> {
        match a {
            Array::Bool(_) => None,
            Array::Int32(a) | Array::Date32(a) => Some(a.values()[i..].as_ptr().cast()),
            Array::Int64(a) => Some(a.values()[i..].as_ptr().cast()),
            Array::Float64(a) => Some(a.values()[i..].as_ptr().cast()),
            Array::Utf8(a) => Some(a.value(i).expect("non-null").as_ptr()),
            Array::Dict(a) => Some(a.codes()[i..].as_ptr().cast()),
        }
    }

    #[test]
    fn morsels_are_windows_and_rejoin_into_their_source() {
        let rows = 0..1000i32;
        let columns = vec![
            Array::from_bool(rows.clone().map(|v| v % 3 == 0)),
            Array::from_i32(rows.clone()),
            Array::from_i64(rows.clone().map(i64::from)),
            Array::from_f64(rows.clone().map(f64::from)),
            Array::from_date32(rows.clone()),
            Array::from_strs(rows.clone().map(|v| v.to_string())),
            Array::from_strs(rows.clone().map(|v| (v % 7).to_string())).dict_encode(),
        ];
        let fields = columns.iter().map(|c| Field::new("c", c.data_type()));
        let t = Table::new(Schema::new(fields.collect()), columns);

        // ⌈1000 / 300⌉ = 4 near-equal morsels, none of which owns a buffer.
        let morsels = chunk_morsels(&t, 300);
        assert_eq!(morsels.len(), 4);
        let mut offset = 0;
        for m in &morsels {
            assert_eq!(m.num_rows(), 250);
            for (window, source) in m.columns().iter().zip(t.columns()) {
                assert_eq!(ptr_at(window, 0), ptr_at(source, offset));
                let copied = source.gather(offset..offset + 250);
                assert_eq!(window.byte_size(), copied.byte_size());
            }
            offset += 250;
        }
        // A chain that passes its morsels through re-joins them for free.
        let back = concat_morsels(t.schema().clone(), &morsels);
        for (joined, source) in back.columns().iter().zip(t.columns()) {
            assert_eq!(ptr_at(joined, 0), ptr_at(source, 0));
            assert_eq!(joined.byte_size(), source.byte_size());
        }
        assert_eq!(back, t);
    }

    #[test]
    fn partial_merge_matches_single_pass() {
        use sirius_hw::catalog;
        use sirius_plan::{expr::col, AggFunc};
        let vals: Vec<Scalar> = (0..50)
            .map(|i| match i % 7 {
                0 => Scalar::Null,
                _ => Scalar::Int64(i),
            })
            .collect();
        let t = Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::nullable("v", DataType::Int64),
            ]),
            vec![
                Array::from_i64((0..50).map(|i| i % 5)),
                Array::from_scalars(&vals, DataType::Int64),
            ],
        );
        let funcs = [
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Count,
        ];
        let aggregates: Vec<AggExpr> = (funcs.iter())
            .map(|&func| AggExpr {
                func,
                input: Some(col(1)),
                name: format!("{func:?}").into(),
            })
            .collect();
        let ctx = GpuContext::new(Device::new(catalog::gh200_gpu()), CostCategory::GroupBy);
        // Grouped (first-appearance group order must survive the merge) and
        // ungrouped (the scalar path).
        for keys in [vec![col(0)], vec![]] {
            let key_fields = keys.iter().map(|_| Field::new("k", DataType::Int64));
            let agg_fields = (aggregates.iter().zip(funcs)).map(|(a, func)| {
                let out = func.result_type(Some(DataType::Int64)).unwrap();
                Field::new(a.name.clone(), out)
            });
            let schema = Schema::new(key_fields.chain(agg_fields).collect());
            let spec = Arc::new(Aggregation {
                keys,
                aggregates: aggregates.clone(),
                schema,
                node: Node::ROOT,
            });
            let whole = aggregate_single_pass(&ctx, &t, &spec).unwrap();
            // Partials over three uneven chunks, concatenated, merged.
            let agg = PartialAgg::new(&spec).unwrap();
            let parts: Vec<Partial> = [0..13, 13..31, 31..50]
                .into_iter()
                .map(|rows| agg.partial(&ctx, &t.slice(rows.start, rows.len())).unwrap())
                .collect();
            let merged = agg.merge(&ctx, &agg.concat(&parts)).unwrap();
            assert_eq!(merged, whole, "{} keys", spec.keys.len());
        }
    }
}
