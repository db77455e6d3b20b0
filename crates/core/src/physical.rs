//! The physical-plan layer: compile a logical [`Rel`] tree into an
//! executable DAG of pipelines.
//!
//! This is the single `Rel`-walking compilation path in the engine. The
//! plan is first normalized ([`sirius_plan::normalize`]: stacked filters
//! coalesce, in the one copy compilation makes of the borrowed plan), then
//! folded once ([`sirius_plan::visit::fold`]) into a [`PhysicalPlan`]: a
//! topologically ordered list of [`Pipeline`]s, each a *source → streaming
//! ops → breaker sink* chain with explicit dependencies (§3.2.2 of the
//! paper). Everything downstream derives from this one artifact:
//!
//! * the scheduler ([`crate::schedule`]) executes pipelines in dependency
//!   waves, with independent pipelines sharing the stream pool;
//! * `SiriusEngine::pipeline_count` is a thin projection of the compiled
//!   DAG;
//! * `EXPLAIN ANALYZE` rows, trace span tracks, and `operator_stats()` all
//!   key by the compile-time pre-order [`Node`] ids carried on every
//!   operator and sink.

use crate::{Result, SiriusError};
use sirius_columnar::Schema;
use sirius_hw::CostCategory;
use sirius_plan::expr::{AggExpr, Expr, SortExpr};
use sirius_plan::normalize::normalize;
use sirius_plan::visit::{fold, Fold, JoinOn, Node};
use sirius_plan::{ExchangeKind, JoinKind, Rel};
use std::sync::Arc;

/// A compiled query: the normalized logical plan plus its pipeline DAG.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The normalized plan the DAG was compiled from. Operator ids on the
    /// pipelines are pre-order ids over *this* tree.
    pub root: Rel,
    /// Pipelines in topological order: every dependency precedes its
    /// consumer, and the last pipeline produces the query result.
    pub pipelines: Vec<Pipeline>,
}

/// One pipeline: a source drained through streaming operators into a
/// pipeline-breaker sink.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Dense id; equals this pipeline's index in [`PhysicalPlan::pipelines`].
    pub id: usize,
    /// Pipelines that must complete before this one can start (its direct
    /// source and the build sides of its probes).
    pub deps: Vec<usize>,
    /// Where the pipeline's rows come from.
    pub source: Source,
    /// Streaming operators applied to every morsel, in order.
    pub ops: Vec<PhysOp>,
    /// The breaker that materializes this pipeline's output.
    pub sink: Sink,
    /// Schema of the rows entering the sink (after all `ops`).
    pub out_schema: Schema,
}

/// A pipeline's row source.
#[derive(Debug, Clone)]
pub enum Source {
    /// Scan of a cached base table.
    Scan {
        /// Table name in the buffer manager.
        table: String,
        /// Column ordinals to read (`None` = all).
        projection: Option<Vec<usize>>,
        /// The `Read` plan node.
        node: Node,
    },
    /// The materialized output of an upstream pipeline.
    Pipe(usize),
}

/// One step of a pipeline's streaming chain: a plain operator, or a run of
/// operators collapsed by [`fuse`] into one single-pass segment.
#[derive(Debug, Clone)]
pub enum PhysOp {
    /// A single operator — a run of length 1 whose kernels charge the ledger
    /// one by one.
    Plain(StreamOp),
    /// A fused run: intermediates are carried as selection vectors, and the
    /// segment charges one read of its input plus one write of its output
    /// instead of per-stage traffic.
    Fused(FusedSegment),
}

impl PhysOp {
    /// The streaming operators this step runs, in order: the one plain op,
    /// or the segment's inner ops.
    pub fn run(&self) -> &[StreamOp] {
        match self {
            PhysOp::Plain(op) => std::slice::from_ref(op),
            PhysOp::Fused(seg) => &seg.ops,
        }
    }
}

/// A streaming (non-breaking) operator: what a morsel task executes. A
/// segment holds these directly, so segments cannot nest.
#[derive(Debug, Clone)]
pub enum StreamOp {
    /// Scan pass (charges the read; dropped when fused into a filter).
    Scan {
        /// The `Read` plan node.
        node: Node,
    },
    /// Predicate filter. Adjacent logical filters arrive pre-coalesced by
    /// normalization; a filter directly over a scan absorbs the scan pass.
    Filter {
        /// The (single, coalesced) predicate.
        predicate: Expr,
        /// The `Filter` plan node the fused predicate is attributed to.
        node: Node,
    },
    /// Expression projection.
    Project {
        /// Output expressions (names live in the schema).
        exprs: Vec<Expr>,
        /// Output schema.
        schema: Schema,
        /// The `Project` plan node.
        node: Node,
    },
    /// Probe of the hash table built by another pipeline.
    Probe(Probe),
}

/// The probe side of a join. Pair order within a morsel matches the
/// whole-column probe, so concatenating morsel outputs in morsel order
/// reproduces it exactly.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Id of the build-side pipeline (its sink is [`Sink::JoinBuild`]).
    pub build: usize,
    /// Join kind.
    pub kind: JoinKind,
    /// Probe-side key expressions (empty ⇒ cross join).
    pub left_keys: Vec<Expr>,
    /// Build-side key expressions, as on the build pipeline's sink: a
    /// Grace join re-hashes both sides per partition.
    pub right_keys: Vec<Expr>,
    /// Residual predicate over `[left ++ right]` candidate pairs.
    pub residual: Option<Expr>,
    /// Join output schema (nullability from the join kind).
    pub schema: Schema,
    /// The `Join` plan node.
    pub node: Node,
}

impl StreamOp {
    /// The plan node this op is attributed to.
    pub fn node(&self) -> Node {
        match self {
            StreamOp::Scan { node }
            | StreamOp::Filter { node, .. }
            | StreamOp::Project { node, .. }
            | StreamOp::Probe(Probe { node, .. }) => *node,
        }
    }

    /// Short label used for operator trace spans.
    pub(crate) fn span_label(&self) -> &'static str {
        match self {
            StreamOp::Scan { .. } => "scan",
            StreamOp::Filter { .. } => "filter",
            StreamOp::Project { .. } => "project",
            StreamOp::Probe(_) => "join-probe",
        }
    }

    /// The schema this op gives its output, if it changes it.
    pub(crate) fn out_schema(&self) -> Option<&Schema> {
        match self {
            StreamOp::Project { schema, .. } | StreamOp::Probe(Probe { schema, .. }) => {
                Some(schema)
            }
            StreamOp::Scan { .. } | StreamOp::Filter { .. } => None,
        }
    }
}

/// A maximal fusable run of streaming operators, executed as one pass per
/// morsel. Built only by [`fuse`]: at least two inner ops, or a lone filter.
#[derive(Debug, Clone)]
pub struct FusedSegment {
    ops: Vec<StreamOp>,
    label: String,
    category: CostCategory,
}

impl FusedSegment {
    fn new(ops: Vec<StreamOp>) -> Self {
        let ids: Vec<String> = ops.iter().map(|op| format!("#{}", op.node().id)).collect();
        let category = if ops.iter().any(|op| matches!(op, StreamOp::Probe(_))) {
            CostCategory::Join
        } else if ops.iter().any(|op| matches!(op, StreamOp::Filter { .. })) {
            CostCategory::Filter
        } else {
            CostCategory::Project
        };
        FusedSegment {
            label: format!("fused[{}]", ids.join(",")),
            category,
            ops,
        }
    }

    /// Inner operators in execution order.
    pub fn ops(&self) -> &[StreamOp] {
        &self.ops
    }

    /// Kernel/span label naming every inner plan node: `fused[#1,#2]`.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Ledger category the segment's single charge lands in: the heaviest
    /// inner operator class (join > filter > project).
    pub fn category(&self) -> CostCategory {
        self.category
    }
}

/// Longest run collapsed into one segment; longer runs split into
/// consecutive segments.
const MAX_SEGMENT_LEN: usize = 8;

/// Collapse each pipeline's fusable streaming runs into [`FusedSegment`]s.
///
/// Runs after [`compile`], rewriting only `Pipeline::ops`: the DAG shape,
/// dependency edges and plan-node ids are all unchanged, so
/// `pipeline_count` and `EXPLAIN` output are identical with fusion on or
/// off, and each segment flattens back to the unfused op run.
///
/// A run is fused when it has **at least two** ops, or when it is a lone
/// filter. Multi-op runs save per-stage materialization; a lone filter
/// still wins because the unfused path charges the predicate columns, the
/// mask write, the mask read, and the compaction separately, while the
/// fused pass charges one input read plus one (selected) output write. A
/// lone scan or projection gains nothing — it already runs in one pass and
/// wrapping it would charge its input read against the segment a second
/// time — so those stay plain ops.
pub fn fuse(plan: &mut PhysicalPlan) {
    for pipe in &mut plan.pipelines {
        pipe.ops = fuse_ops(std::mem::take(&mut pipe.ops));
    }
}

fn fuse_ops(ops: Vec<PhysOp>) -> Vec<PhysOp> {
    let mut out = Vec::with_capacity(ops.len());
    let mut run: Vec<StreamOp> = Vec::new();
    for op in ops {
        match op {
            PhysOp::Plain(op) if fusable(&op) => run.push(op),
            other => {
                flush_run(&mut run, &mut out);
                out.push(other);
            }
        }
    }
    flush_run(&mut run, &mut out);
    out
}

/// Emit a pending fusable run: chunks of [`MAX_SEGMENT_LEN`], each chunk of
/// ≥ 2 ops — or a singleton filter — becoming a segment, provided the chunk
/// does real per-byte work somewhere; anything else stays plain ops.
fn flush_run(run: &mut Vec<StreamOp>, out: &mut Vec<PhysOp>) {
    let mut rest = std::mem::take(run).into_iter().peekable();
    while rest.peek().is_some() {
        let chunk: Vec<StreamOp> = rest.by_ref().take(MAX_SEGMENT_LEN).collect();
        let big_enough = chunk.len() >= 2 || matches!(chunk[0], StreamOp::Filter { .. });
        if big_enough && chunk.iter().any(worthwhile) {
            out.push(PhysOp::Fused(FusedSegment::new(chunk)));
        } else {
            out.extend(chunk.into_iter().map(PhysOp::Plain));
        }
    }
}

/// Whether the op does real per-byte kernel work in the unfused data path.
/// Pure column-reference projections are zero-copy there — the next stage
/// reads the same buffers, no kernel runs, nothing is charged — so a chunk
/// of only scans and pass-through projections would *add* traffic if fused
/// (the segment charges its input read and output write).
fn worthwhile(op: &StreamOp) -> bool {
    match op {
        StreamOp::Filter { .. } | StreamOp::Probe(_) => true,
        StreamOp::Project { exprs, .. } => exprs.iter().any(|e| !matches!(e, Expr::Column(_))),
        StreamOp::Scan { .. } => false,
    }
}

/// Whether an op can run inside a fused segment. Scans, filters, and
/// projections always can; a probe can when it is a pure hash lookup whose
/// keys are element-wise computable — no cross join (no hash table to
/// probe), no residual predicate (re-gathers both sides to evaluate), no
/// set-valued or string-pattern key kernels.
fn fusable(op: &StreamOp) -> bool {
    match op {
        StreamOp::Scan { .. } | StreamOp::Filter { .. } | StreamOp::Project { .. } => true,
        StreamOp::Probe(p) => {
            !p.left_keys.is_empty() && p.residual.is_none() && p.left_keys.iter().all(elementwise)
        }
    }
}

/// Structural test: the expression lowers to element-wise kernels only
/// (column reads, literals, binary/unary arithmetic, casts).
fn elementwise(expr: &Expr) -> bool {
    match expr {
        Expr::Column(_) | Expr::Literal(_) => true,
        Expr::Binary { left, right, .. } => elementwise(left) && elementwise(right),
        Expr::Unary { input, .. } | Expr::Cast { input, .. } => elementwise(input),
        _ => false,
    }
}

/// A pipeline-breaker sink: what happens to the pipeline's drained rows.
#[derive(Debug, Clone)]
pub enum Sink {
    /// Materialize as the query result (or as a consumer pipeline's source).
    Result,
    /// Build a join hash table for a downstream probe (empty `keys` ⇒
    /// cross join: the table is materialized without hashing).
    JoinBuild {
        /// Build-side key expressions.
        keys: Vec<Expr>,
        /// The `Join` plan node.
        node: Node,
    },
    /// Grouped or global aggregation. Shared by `Arc` so partial-aggregation
    /// morsel tasks hold the spec itself, not a per-wave copy.
    Aggregate(Arc<Aggregation>),
    /// Total sort.
    Sort {
        /// Sort keys, major first.
        keys: Vec<SortExpr>,
        /// The `Sort` plan node.
        node: Node,
    },
    /// Offset/fetch. A breaker: the slice is taken on the materialized
    /// input (the engine has no early-termination protocol for streams).
    Limit {
        /// Rows to skip.
        offset: usize,
        /// Max rows to return.
        fetch: Option<usize>,
        /// The `Limit` plan node.
        node: Node,
    },
    /// Duplicate elimination over all columns.
    Distinct {
        /// The `Distinct` plan node.
        node: Node,
    },
    /// Distributed exchange boundary. Single-node execution passes rows
    /// through; the distributed planner fragments plans at these sinks.
    Exchange {
        /// Movement pattern.
        kind: ExchangeKind,
        /// The `Exchange` plan node.
        node: Node,
    },
}

/// A grouped or global aggregation: the payload of [`Sink::Aggregate`].
#[derive(Debug, Clone)]
pub struct Aggregation {
    /// Group-key expressions (empty = global).
    pub keys: Vec<Expr>,
    /// Aggregate functions.
    pub aggregates: Vec<AggExpr>,
    /// Aggregate output schema.
    pub schema: Schema,
    /// The `Aggregate` plan node.
    pub node: Node,
}

impl Aggregation {
    /// Ledger category the aggregation's kernels charge under.
    pub fn category(&self) -> CostCategory {
        if self.keys.is_empty() {
            CostCategory::Aggregate
        } else {
            CostCategory::GroupBy
        }
    }
}

impl Sink {
    /// The plan node this sink is attributed to (`None` for [`Sink::Result`],
    /// which is not a plan operator).
    pub fn node(&self) -> Option<Node> {
        match self {
            Sink::Result => None,
            Sink::Aggregate(agg) => Some(agg.node),
            Sink::JoinBuild { node, .. }
            | Sink::Sort { node, .. }
            | Sink::Limit { node, .. }
            | Sink::Distinct { node }
            | Sink::Exchange { node, .. } => Some(*node),
        }
    }

    /// Short label used for breaker trace spans.
    pub(crate) fn span_label(&self) -> &'static str {
        match self {
            Sink::Result => "result",
            Sink::JoinBuild { .. } => "join-build",
            Sink::Aggregate(agg) if agg.keys.is_empty() => "aggregate",
            Sink::Aggregate(_) => "group-by",
            Sink::Sort { .. } => "sort",
            Sink::Limit { .. } => "limit",
            Sink::Distinct { .. } => "distinct",
            Sink::Exchange { .. } => "exchange",
        }
    }
}

/// Compile `plan` into its pipeline DAG: normalize, then fold the tree once
/// into pipelines split at breakers. Fails only on schema-inference errors
/// (malformed plans are caught earlier by `validate`).
pub fn compile(plan: &Rel) -> Result<PhysicalPlan> {
    let root = normalize(plan);
    let mut compiler = Compiler {
        pipelines: Vec::new(),
    };
    let open = fold(&mut compiler, &root)?;
    compiler.close(open, Sink::Result);
    Ok(PhysicalPlan {
        root,
        pipelines: compiler.pipelines,
    })
}

/// A pipeline still accumulating streaming operators during compilation.
struct OpenPipe {
    source: Source,
    deps: Vec<usize>,
    ops: Vec<StreamOp>,
    schema: Schema,
}

struct Compiler {
    pipelines: Vec<Pipeline>,
}

impl Compiler {
    /// Seal an open pipe with its breaker sink, assigning the next dense id.
    /// Ids are assigned in close order, which is topological: a pipeline's
    /// dependencies always close before it does.
    fn close(&mut self, pipe: OpenPipe, sink: Sink) -> usize {
        let id = self.pipelines.len();
        self.pipelines.push(Pipeline {
            id,
            deps: pipe.deps,
            source: pipe.source,
            ops: pipe.ops.into_iter().map(PhysOp::Plain).collect(),
            sink,
            out_schema: pipe.schema,
        });
        id
    }

    /// A breaker: seal `pipe` with `sink` and open a fresh pipe consuming its
    /// materialized output, whose rows have `schema`.
    fn breaker(&mut self, pipe: OpenPipe, sink: Sink, schema: Schema) -> OpenPipe {
        let dep = self.close(pipe, sink);
        OpenPipe {
            source: Source::Pipe(dep),
            deps: vec![dep],
            ops: Vec::new(),
            schema,
        }
    }
}

impl Fold for Compiler {
    type Output = OpenPipe;
    type Error = SiriusError;

    fn read(
        &mut self,
        node: Node,
        rel: &Rel,
        table: &str,
        _schema: &Schema,
        projection: &Option<Vec<usize>>,
    ) -> Result<OpenPipe> {
        Ok(OpenPipe {
            source: Source::Scan {
                table: table.to_string(),
                projection: projection.clone(),
                node,
            },
            deps: Vec::new(),
            ops: vec![StreamOp::Scan { node }],
            schema: rel.output_schema(&[])?,
        })
    }

    fn filter(
        &mut self,
        node: Node,
        _rel: &Rel,
        predicate: &Expr,
        mut pipe: OpenPipe,
    ) -> Result<OpenPipe> {
        // Scan+filter fusion: the filter's scan of its input doubles
        // as the read pass, so drop the standalone scan op.
        if matches!(pipe.ops.last(), Some(StreamOp::Scan { .. })) {
            pipe.ops.pop();
        }
        pipe.ops.push(StreamOp::Filter {
            predicate: predicate.clone(),
            node,
        });
        Ok(pipe)
    }

    fn project(
        &mut self,
        node: Node,
        rel: &Rel,
        exprs: &[(Expr, Arc<str>)],
        mut pipe: OpenPipe,
    ) -> Result<OpenPipe> {
        let schema = rel.output_schema(&[&pipe.schema])?;
        pipe.ops.push(StreamOp::Project {
            exprs: exprs.iter().map(|(e, _)| e.clone()).collect(),
            schema: schema.clone(),
            node,
        });
        pipe.schema = schema;
        Ok(pipe)
    }

    fn aggregate(
        &mut self,
        node: Node,
        rel: &Rel,
        group_by: &[Expr],
        aggregates: &[AggExpr],
        pipe: OpenPipe,
    ) -> Result<OpenPipe> {
        let schema = rel.output_schema(&[&pipe.schema])?;
        let agg = Aggregation {
            keys: group_by.to_vec(),
            aggregates: aggregates.to_vec(),
            schema: schema.clone(),
            node,
        };
        Ok(self.breaker(pipe, Sink::Aggregate(Arc::new(agg)), schema))
    }

    fn join(
        &mut self,
        node: Node,
        rel: &Rel,
        on: JoinOn<'_>,
        mut left: OpenPipe,
        right: OpenPipe,
    ) -> Result<OpenPipe> {
        let schema = rel.output_schema(&[&left.schema, &right.schema])?;
        let build = self.close(
            right,
            Sink::JoinBuild {
                keys: on.right_keys.to_vec(),
                node,
            },
        );
        left.deps.push(build);
        left.ops.push(StreamOp::Probe(Probe {
            build,
            kind: on.kind,
            left_keys: on.left_keys.to_vec(),
            right_keys: on.right_keys.to_vec(),
            residual: on.residual.cloned(),
            schema: schema.clone(),
            node,
        }));
        left.schema = schema;
        Ok(left)
    }

    fn sort(
        &mut self,
        node: Node,
        _rel: &Rel,
        keys: &[SortExpr],
        pipe: OpenPipe,
    ) -> Result<OpenPipe> {
        let (keys, schema) = (keys.to_vec(), pipe.schema.clone());
        Ok(self.breaker(pipe, Sink::Sort { keys, node }, schema))
    }

    fn limit(
        &mut self,
        node: Node,
        _rel: &Rel,
        offset: usize,
        fetch: Option<usize>,
        pipe: OpenPipe,
    ) -> Result<OpenPipe> {
        let sink = Sink::Limit {
            offset,
            fetch,
            node,
        };
        let schema = pipe.schema.clone();
        Ok(self.breaker(pipe, sink, schema))
    }

    fn distinct(&mut self, node: Node, _rel: &Rel, pipe: OpenPipe) -> Result<OpenPipe> {
        let schema = pipe.schema.clone();
        Ok(self.breaker(pipe, Sink::Distinct { node }, schema))
    }

    fn exchange(
        &mut self,
        node: Node,
        _rel: &Rel,
        kind: &ExchangeKind,
        pipe: OpenPipe,
    ) -> Result<OpenPipe> {
        let (kind, schema) = (kind.clone(), pipe.schema.clone());
        Ok(self.breaker(pipe, Sink::Exchange { kind, node }, schema))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{DataType, Field, Schema};
    use sirius_plan::builder::PlanBuilder;
    use sirius_plan::expr::{col, gt, lit_i64, AggExpr};
    use sirius_plan::AggFunc;

    fn scan(name: &str) -> PlanBuilder {
        PlanBuilder::scan(
            name,
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Int64),
            ]),
        )
    }

    #[test]
    fn scan_filter_compiles_to_one_pipeline() {
        let plan = scan("t").filter(gt(col(0), lit_i64(0))).build();
        let phys = compile(&plan).unwrap();
        assert_eq!(phys.pipelines.len(), 1);
        let p = &phys.pipelines[0];
        assert!(p.deps.is_empty());
        assert!(matches!(p.sink, Sink::Result));
        // Scan+filter fusion: one streaming op, attributed to the filter.
        assert_eq!(p.ops.len(), 1);
        assert!(matches!(&p.ops[0], PhysOp::Plain(StreamOp::Filter { node, .. }) if node.id == 0));
        assert!(matches!(&p.source, Source::Scan { node, .. } if node.id == 1));
    }

    #[test]
    fn join_splits_build_before_probe() {
        let plan = scan("l")
            .join(scan("r"), JoinKind::Inner, vec![col(0)], vec![col(0)], None)
            .build();
        let phys = compile(&plan).unwrap();
        assert_eq!(phys.pipelines.len(), 2);
        let build = &phys.pipelines[0];
        assert!(matches!(&build.sink, Sink::JoinBuild { node, .. } if node.id == 0));
        assert_eq!(build.ops.len(), 1);
        let probe = &phys.pipelines[1];
        assert_eq!(probe.deps, vec![0]);
        assert!(matches!(probe.sink, Sink::Result));
        assert!(matches!(
            &probe.ops[1],
            PhysOp::Plain(StreamOp::Probe(Probe { build: 0, .. }))
        ));
        // Join output schema is carried onto the probe pipeline.
        assert_eq!(probe.out_schema.len(), 4);
    }

    #[test]
    fn breakers_chain_through_consumer_pipelines() {
        let plan = scan("t")
            .aggregate(
                vec![col(0)],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    input: Some(col(1)),
                    name: "s".into(),
                }],
            )
            .sort(vec![sirius_plan::expr::SortExpr {
                expr: col(0),
                ascending: true,
            }])
            .limit(1, Some(5))
            .build();
        let phys = compile(&plan).unwrap();
        assert_eq!(phys.pipelines.len(), 4);
        assert!(matches!(phys.pipelines[0].sink, Sink::Aggregate(_)));
        assert!(matches!(phys.pipelines[1].sink, Sink::Sort { .. }));
        assert!(matches!(
            phys.pipelines[2].sink,
            Sink::Limit {
                offset: 1,
                fetch: Some(5),
                ..
            }
        ));
        assert!(matches!(phys.pipelines[3].sink, Sink::Result));
        // Each consumer depends only on its producer, in a chain.
        assert_eq!(phys.pipelines[1].deps, vec![0]);
        assert_eq!(phys.pipelines[2].deps, vec![1]);
        assert_eq!(phys.pipelines[3].deps, vec![2]);
        // Consumer pipelines have no streaming ops: their sinks apply
        // directly to the materialized dependency.
        assert!(phys.pipelines[1].ops.is_empty());
    }

    #[test]
    fn multiway_join_builds_are_independent() {
        // (a ⋈ b) ⋈ c: both build sides are scan pipelines with no deps —
        // the scheduler may run them concurrently.
        let plan = scan("a")
            .join(scan("b"), JoinKind::Inner, vec![col(0)], vec![col(0)], None)
            .join(scan("c"), JoinKind::Inner, vec![col(0)], vec![col(0)], None)
            .build();
        let phys = compile(&plan).unwrap();
        assert_eq!(phys.pipelines.len(), 3);
        let builds: Vec<&Pipeline> = phys
            .pipelines
            .iter()
            .filter(|p| matches!(p.sink, Sink::JoinBuild { .. }))
            .collect();
        assert_eq!(builds.len(), 2);
        assert!(builds.iter().all(|p| p.deps.is_empty()));
        // The probe pipeline depends on both builds and carries both probes.
        let probe = phys.pipelines.last().unwrap();
        assert_eq!(probe.deps.len(), 2);
        assert_eq!(
            probe
                .ops
                .iter()
                .filter(|op| matches!(op, PhysOp::Plain(StreamOp::Probe(_))))
                .count(),
            2
        );
    }

    #[test]
    fn ids_are_preorder_over_the_normalized_tree() {
        // Two stacked filters coalesce; the surviving filter op carries the
        // outermost filter's id on the *normalized* tree.
        let plan = scan("t")
            .filter(gt(col(0), lit_i64(0)))
            .filter(gt(col(1), lit_i64(1)))
            .build();
        let phys = compile(&plan).unwrap();
        assert_eq!(phys.root.node_count(), 2);
        let p = &phys.pipelines[0];
        assert!(matches!(&p.ops[0], PhysOp::Plain(StreamOp::Filter { node, .. }) if node.id == 0));
        assert!(matches!(&p.source, Source::Scan { node, .. } if node.id == 1));
    }

    fn project_v(b: PlanBuilder) -> PlanBuilder {
        b.project(vec![(col(1), "v".into())])
    }

    #[test]
    fn fuse_collapses_streaming_runs() {
        let plan = project_v(scan("t").filter(gt(col(0), lit_i64(0)))).build();
        let mut phys = compile(&plan).unwrap();
        fuse(&mut phys);
        let p = &phys.pipelines[0];
        assert_eq!(p.ops.len(), 1);
        let PhysOp::Fused(seg) = &p.ops[0] else {
            panic!("expected fused segment, got {:?}", p.ops[0]);
        };
        assert_eq!(seg.ops().len(), 2);
        assert!(matches!(seg.ops()[0], StreamOp::Filter { .. }));
        assert!(matches!(seg.ops()[1], StreamOp::Project { .. }));
        assert_eq!(seg.category(), CostCategory::Filter);
        // Project is node 0, filter node 1 on the normalized pre-order tree.
        assert_eq!(seg.label(), "fused[#1,#0]");
    }

    #[test]
    fn fuse_leaves_singletons_alone() {
        let plan = scan("t").build();
        let mut phys = compile(&plan).unwrap();
        fuse(&mut phys);
        let p = &phys.pipelines[0];
        assert_eq!(p.ops.len(), 1);
        assert!(matches!(p.ops[0], PhysOp::Plain(StreamOp::Scan { .. })));
        // (A lone trailing projection staying plain is exercised by
        // `fuse_probe_rules`' residual case.)
    }

    #[test]
    fn fuse_wraps_a_lone_filter() {
        // scan + filter compiles to a single Filter op (the scan is
        // absorbed); it still fuses, because the fused pass charges one
        // read + one write instead of mask traffic + compaction.
        let plan = scan("t").filter(gt(col(0), lit_i64(0))).build();
        let mut phys = compile(&plan).unwrap();
        fuse(&mut phys);
        let p = &phys.pipelines[0];
        assert_eq!(p.ops.len(), 1);
        let PhysOp::Fused(seg) = &p.ops[0] else {
            panic!("lone filter should fuse, got {:?}", p.ops[0]);
        };
        assert_eq!(seg.ops().len(), 1);
        assert!(matches!(seg.ops()[0], StreamOp::Filter { .. }));
        assert_eq!(seg.category(), CostCategory::Filter);
        assert_eq!(seg.label(), "fused[#0]");
    }

    #[test]
    fn fuse_respects_max_segment_len() {
        // Projections compute (they are not pure column pass-throughs), so
        // every chunk carries real work and fuses. The filter (the scan
        // compiles into it) and the projections: one op more than a
        // segment holds.
        let mut plan = scan("t").filter(gt(col(0), lit_i64(0)));
        for _ in 0..MAX_SEGMENT_LEN {
            plan = plan.project(vec![
                (gt(col(1), lit_i64(1)), "a".into()),
                (col(1), "b".into()),
            ]);
        }
        let mut phys = compile(&plan.build()).unwrap();
        assert_eq!(phys.pipelines[0].ops.len(), MAX_SEGMENT_LEN + 1);
        fuse(&mut phys);
        let p = &phys.pipelines[0];
        // One full segment; the projection left over stays a plain op.
        assert_eq!(p.ops.len(), 2);
        assert!(matches!(&p.ops[0], PhysOp::Fused(s) if s.ops().len() == MAX_SEGMENT_LEN));
        assert!(matches!(p.ops[1], PhysOp::Plain(StreamOp::Project { .. })));
    }

    #[test]
    fn fuse_disabled_is_a_no_op() {
        use crate::engine::{EngineConfig, SiriusEngine};
        let plan = project_v(scan("t").filter(gt(col(0), lit_i64(0)))).build();
        let before = compile(&plan).unwrap().pipelines[0].ops.len();
        let unfused = SiriusEngine::from_config(EngineConfig {
            fusion: false,
            ..EngineConfig::new(sirius_hw::catalog::gh200_gpu())
        });
        let phys = &unfused.compile_query(&plan).unwrap().phys;
        assert_eq!(phys.pipelines[0].ops.len(), before);
        assert!(!phys.pipelines[0]
            .ops
            .iter()
            .any(|op| matches!(op, PhysOp::Fused(_))));
    }

    #[test]
    fn fuse_probe_rules() {
        // Plain equi-join probe fuses with the surrounding streaming ops.
        let plan =
            project_v(scan("l").join(scan("r"), JoinKind::Inner, vec![col(0)], vec![col(0)], None))
                .build();
        let mut phys = compile(&plan).unwrap();
        fuse(&mut phys);
        let probe_pipe = phys.pipelines.last().unwrap();
        assert_eq!(probe_pipe.ops.len(), 1);
        let PhysOp::Fused(seg) = &probe_pipe.ops[0] else {
            panic!("probe should fuse");
        };
        assert!(matches!(seg.ops()[1], StreamOp::Probe(_)));
        assert_eq!(seg.category(), CostCategory::Join);

        // A residual predicate keeps the probe out of segments.
        let plan = project_v(scan("l").join(
            scan("r"),
            JoinKind::Inner,
            vec![col(0)],
            vec![col(0)],
            Some(gt(col(1), col(3))),
        ))
        .build();
        let mut phys = compile(&plan).unwrap();
        fuse(&mut phys);
        let probe_pipe = phys.pipelines.last().unwrap();
        assert!(probe_pipe
            .ops
            .iter()
            .all(|op| !matches!(op, PhysOp::Fused(_))));
    }
}
