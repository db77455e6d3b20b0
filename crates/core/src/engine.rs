//! The GPU-native query executor (§3.2.2).
//!
//! [`SiriusEngine::execute`] compiles the logical plan once into a physical
//! pipeline DAG ([`crate::physical::compile`]) and runs it with the wave
//! scheduler ([`crate::schedule`]): each pipeline's source is partitioned
//! into fixed-size morsels ([`DEFAULT_MORSEL_ROWS`] unless overridden), one
//! task per morsel goes
//! through the global [`TaskQueue`], and every task charges its kernels to a
//! recorder of its own. The dispatching thread replays task *i*'s charges,
//! in task order, onto a device stream chosen round-robin within the
//! pipeline's stream slice, so independent morsels — and, under
//! [`Scheduling::Concurrent`], independent pipelines — overlap in the
//! stream-aware time ledger, and the ledger and trace never depend on
//! thread timing. Pipeline breakers synchronize the streams (the simulated
//! `cudaDeviceSynchronize()`), folding overlapped stream time back into the
//! serial lane.
//!
//! The engine itself is the thin shell: one [`EngineConfig`] value, buffer
//! management, and the compile → schedule entry points. Streaming operators
//! live in `crate::morsel`, breaker sinks and the DAG scheduler in
//! [`crate::schedule`], and the out-of-core paths (§3.4) in `crate::oom`.

use crate::buffer::{fault_fires, BufferManager};
use crate::explain::{self, OpStats};
use crate::metrics::{Meter, MorselStats, QueryReport};
use crate::physical;
use crate::pipeline::TaskQueue;
use crate::schedule::{QueryRun, Scheduling};
use crate::{Result, SiriusError};
use parking_lot::Mutex;
use sirius_columnar::Table;
use sirius_cudf::{FanOut, GpuContext, Job};
use sirius_hw::{
    catalog, CostCategory, Device, DeviceSpec, FaultInjector, FaultSite, Link, LinkSpec,
    TraceConfig, TraceSink,
};
use sirius_plan::visit::Node;
use sirius_plan::Rel;
use sirius_rmm::{SpillStats, PINNED_CAPACITY};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crate::morsel::SharedOpStats;

pub use crate::morsel::DEFAULT_MORSEL_ROWS;

/// Everything that tells one engine from another, as one plain value: an
/// experiment or an ablation is [`EngineConfig::new`] with some fields
/// replaced by struct-update syntax, handed to
/// [`SiriusEngine::from_config`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The simulated device.
    pub spec: DeviceSpec,
    /// The CPU↔GPU interconnect (default: the paper's GH200 NVLink-C2C).
    pub host_link: LinkSpec,
    /// CPU worker threads launching kernels (= device streams; default 4,
    /// at least 1).
    pub workers: usize,
    /// Share of device memory given to the caching region (default 0.5, the
    /// paper's §4.1 split). Ablations force pinned-host data residency with
    /// a tiny cache while the processing pool keeps its capacity.
    pub caching_fraction: f64,
    /// Rows per morsel (default [`DEFAULT_MORSEL_ROWS`], at least 1);
    /// sources at most this large run as a single morsel.
    pub morsel_rows: usize,
    /// Data-path fusion: collapse each pipeline's streaming runs into
    /// single-pass segments (default on; off is the per-operator ablation
    /// baseline).
    pub fusion: bool,
    /// How ready pipelines are dispatched (default
    /// [`Scheduling::Concurrent`]; [`Scheduling::Serialized`] is the
    /// one-pipeline-at-a-time ablation baseline).
    pub scheduling: Scheduling,
    /// Keep result-sink string columns dictionary-encoded instead of
    /// materializing them (default off). Distributed node engines turn it
    /// on so fragments ship codes over the exchange; the coordinator
    /// decodes the final table once.
    pub encoded_results: bool,
    /// Kernel/operator tracing (default off: every instrumentation site is
    /// a single branch and allocates nothing). When on, every ledger charge
    /// emits a kernel event and the executor opens operator spans. It
    /// changes nothing else: per-node runtime stats
    /// ([`SiriusEngine::operator_stats`]) are kept on every run.
    pub trace: TraceConfig,
    /// Fault injector for transient device and spill I/O faults, with this
    /// engine's stable cluster node id (default none).
    pub fault: Option<(FaultInjector, usize)>,
}

impl EngineConfig {
    /// The paper's single-node setup on `spec`: GH200-style host link, a
    /// small CPU worker pool, 50/50 memory split, every optimization on,
    /// nothing traced, no faults.
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            spec,
            host_link: catalog::nvlink_c2c(),
            workers: 4,
            caching_fraction: 0.5,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            fusion: true,
            scheduling: Scheduling::default(),
            encoded_results: false,
            trace: TraceConfig::Off,
            fault: None,
        }
    }
}

/// `queue` as a kernel fan-out in windows of `rows` rows. The fan-out's
/// jobs catch their own panics, so every slot of the batch is `Ok`.
fn fan_out(queue: &Arc<TaskQueue>, rows: usize) -> FanOut {
    let queue = Arc::clone(queue);
    FanOut::new(
        Arc::new(move |jobs: Vec<Job>| drop(queue.run_all(jobs))),
        rows,
    )
}

/// The Sirius GPU engine for one device.
pub struct SiriusEngine {
    pub(crate) config: EngineConfig,
    pub(crate) device: Device,
    pub(crate) bufmgr: Arc<BufferManager>,
    pub(crate) queue: Arc<TaskQueue>,
    /// `queue` as the worker pool kernels fan out over, in windows of
    /// `config.morsel_rows` ([`Self::ctx`] installs it).
    fan_out: FanOut,
    pub(crate) stats: Arc<Mutex<MorselStats>>,
    /// Trace recorder shared with the device ledger, built from
    /// `config.trace`.
    pub(crate) trace: TraceSink,
    /// Per-plan-node runtime stats behind `EXPLAIN ANALYZE` and feedback,
    /// kept on every run, traced or not.
    pub(crate) op_stats: SharedOpStats,
}

impl SiriusEngine {
    /// The engine `config` describes — the one constructor.
    pub fn from_config(mut config: EngineConfig) -> Self {
        config.workers = config.workers.max(1);
        config.morsel_rows = config.morsel_rows.max(1);
        let device = Device::new(config.spec.clone());
        let bufmgr = BufferManager::new(
            device.clone(),
            PINNED_CAPACITY,
            Link::new(config.host_link.clone()),
            config.caching_fraction,
            config.fault.clone(),
        );
        Self::assemble(
            Arc::new(TaskQueue::new(config.workers)),
            config,
            device,
            bufmgr,
        )
    }

    /// [`EngineConfig::new`] on `spec`.
    pub fn new(spec: DeviceSpec) -> Self {
        Self::from_config(EngineConfig::new(spec))
    }

    /// [`EngineConfig::new`] with an explicit host interconnect and worker
    /// count.
    pub fn with_link(spec: DeviceSpec, host_link: Link, workers: usize) -> Self {
        Self::from_config(EngineConfig {
            host_link: host_link.spec().clone(),
            workers,
            ..EngineConfig::new(spec)
        })
    }

    /// This engine at another morsel size.
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.config.morsel_rows = rows.max(1);
        self.fan_out = fan_out(&self.queue, self.config.morsel_rows);
        self
    }

    /// This engine — loaded tables and all — with tracing switched on or
    /// off.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.config.trace = trace;
        self.install_trace()
    }

    /// The configuration this engine runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// A per-query view of this engine for multi-query serving: the same
    /// configuration by clone — except `trace`, which is per request —
    /// sharing the table cache, processing region, grant broker, spill
    /// tiers, and CPU worker pool with `self`, but charging onto a *fresh*
    /// device ledger with its own morsel counters, operator stats and trace
    /// sink. Interleaved queries therefore cannot bleed time, spans, or
    /// scheduler counters into each other, while memory pressure is still
    /// arbitrated across all of them by the one shared broker, and an armed
    /// fault injector counts across all served queries.
    pub fn query_view(&self, trace: TraceConfig) -> SiriusEngine {
        let device = Device::new(self.config.spec.clone());
        let config = EngineConfig {
            trace,
            ..self.config.clone()
        };
        let bufmgr = self.bufmgr.shared_view(device.clone());
        Self::assemble(Arc::clone(&self.queue), config, device, bufmgr)
    }

    /// Put an engine together around `config` with its morsel counters at
    /// zero.
    fn assemble(
        queue: Arc<TaskQueue>,
        config: EngineConfig,
        device: Device,
        bufmgr: BufferManager,
    ) -> Self {
        Self {
            fan_out: fan_out(&queue, config.morsel_rows),
            config,
            device,
            bufmgr: Arc::new(bufmgr),
            queue,
            stats: Arc::new(Mutex::new(MorselStats::default())),
            trace: TraceSink::off(),
            op_stats: SharedOpStats::default(),
        }
        .install_trace()
    }

    /// Derive the trace sink `config` asks for.
    fn install_trace(mut self) -> Self {
        self.trace = self.config.trace.sink();
        self.device.set_trace(self.trace.clone());
        self
    }

    /// Snapshot of the engine's lifetime spill counters. A run's own spill
    /// is in its report ([`Self::run_report`]).
    pub fn spill_stats(&self) -> SpillStats {
        self.bufmgr.spill_stats()
    }

    /// Worker threads draining the task queue (= device streams used).
    pub fn workers(&self) -> usize {
        self.queue.workers()
    }

    /// Snapshot of the monotonic morsel-scheduler counters (pair snapshots
    /// with [`MorselStats::since`] for per-query numbers).
    pub fn morsel_stats(&self) -> MorselStats {
        self.stats.lock().clone()
    }

    /// The trace recorder (disabled unless `config.trace` is on).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Snapshot of the per-plan-node runtime stats of the engine's latest
    /// run: [`begin_compiled`](Self::begin_compiled) starts them afresh, so
    /// they never sum over two runs (a `begin` that fails leaves the
    /// previous run's readable). Every run keeps them — streaming operators
    /// per morsel, breakers once per pipeline — the same whether or not the
    /// engine traces. One engine runs one run at a time; concurrent runs
    /// each execute on their own [`query_view`](Self::query_view). Keys are
    /// pre-order operator ids over the *normalized* plan — the same ids
    /// [`physical::compile`] stamps on every pipeline operator and sink,
    /// and the same ids `EXPLAIN ANALYZE` rows and trace span tracks use.
    pub fn operator_stats(&self) -> HashMap<u32, OpStats> {
        self.op_stats.lock().clone()
    }

    /// Empty the per-node runtime stats. Every run already starts them
    /// afresh; this stays only because the benchmark harness under
    /// `perfbench/` calls it.
    pub fn clear_operator_stats(&self) {
        self.op_stats.lock().clear();
    }

    /// `EXPLAIN ANALYZE`: the plan annotated with each operator's actual
    /// rows, bytes, simulated time, and spill partitions of the engine's
    /// latest run ([`operator_stats`](Self::operator_stats)), on any
    /// engine, traced or not. It renders `normalize(plan)`, the tree
    /// [`compile_query`](Self::compile_query) compiles and whose pre-order
    /// ids execution stamps, so the rendered ids are the executed ids. An
    /// uncompilable plan renders every node as data-free.
    pub fn explain_analyze(&self, plan: &Rel) -> String {
        let root = sirius_plan::normalize::normalize(plan);
        explain::render(&root, &self.operator_stats())
    }

    /// The simulated device (time ledger).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The buffer manager.
    pub fn buffer_manager(&self) -> &BufferManager {
        &self.bufmgr
    }

    /// Cold-load a host table into the device cache.
    pub fn load_table(&self, name: impl Into<String>, table: &Table) {
        self.bufmgr.load_table(name, table);
    }

    /// Register an already-device-resident table (exchanged intermediates).
    pub fn cache_resident(&self, name: impl Into<String>, table: &Table) {
        self.bufmgr.cache_resident(name, table);
    }

    /// Execute a plan fully on-device: compile it into its pipeline DAG and
    /// run the DAG. Every failure is a typed error; whether to run the plan
    /// elsewhere instead is the host's decision (§3.2.2).
    pub fn execute(&self, plan: &Rel) -> Result<Table> {
        root_table(self.run_to_end(plan)?)
    }

    /// The Substrait wire entry a host's extension hook calls (§3.2.1):
    /// deserialize the plan, then [`Self::execute`] it. A malformed or
    /// ill-typed plan is a [`SiriusError::Plan`] and charges nothing.
    pub fn execute_json(&self, wire: &str) -> Result<Table> {
        self.execute(&sirius_plan::json::from_json(wire)?)
    }

    /// [`Self::execute`], also returning the run's report
    /// ([`Self::run_report`]).
    pub fn execute_measured(&self, plan: &Rel) -> Result<(Table, QueryReport)> {
        let run = self.run_to_end(plan)?;
        let report = self.run_report(&run);
        Ok((root_table(run)?, report))
    }

    /// `begin`, then step to completion on the whole stream pool.
    fn run_to_end(&self, plan: &Rel) -> Result<QueryRun> {
        let mut run = self.begin(plan)?;
        while !run.is_done() {
            self.step(&mut run, usize::MAX)?;
        }
        Ok(run)
    }

    /// Start a query without driving it to completion — exactly
    /// [`compile_query`](Self::compile_query) then
    /// [`begin_compiled`](Self::begin_compiled), so validation and compile
    /// errors come first and an unrunnable plan never consumes an injected
    /// launch fault. The returned [`QueryRun`] is advanced one dependency
    /// wave at a time by [`Self::step`]; [`Self::execute`] is `begin` +
    /// step-to-completion, while a multi-query server round-robins `step`
    /// across many in-flight runs.
    pub fn begin(&self, plan: &Rel) -> Result<QueryRun> {
        let compiled = self.compile_query(plan)?;
        self.begin_compiled(&compiled)
    }

    /// Compile a plan into a shareable, cache-resident [`CompiledQuery`](crate::CompiledQuery):
    /// validate, compile the pipeline DAG, fuse, and fingerprint the
    /// normalized tree. Pure planning — nothing is charged to the device
    /// ledger, so a cached artifact started later with
    /// [`begin_compiled`](Self::begin_compiled) costs exactly what a
    /// fresh `begin` charges.
    pub fn compile_query(&self, plan: &Rel) -> Result<Arc<crate::plan_cache::CompiledQuery>> {
        sirius_plan::validate::validate(plan)?;
        let mut phys = physical::compile(plan)?;
        // Data-path fusion: collapse each pipeline's streaming runs into
        // single-pass segments. A post-compile rewrite, so
        // `pipeline_count` and operator ids are identical either way.
        if self.config.fusion {
            physical::fuse(&mut phys);
        }
        let fingerprint = sirius_plan::fingerprint::fingerprint(&phys.root);
        Ok(Arc::new(crate::plan_cache::CompiledQuery {
            fingerprint,
            phys: Arc::new(phys),
        }))
    }

    /// Start a run from a compiled query — the one way runs start, and the
    /// plan-cache hit path: nothing is parsed, validated, compiled or
    /// copied; the run shares the compiled DAG by `Arc`. Each pipeline
    /// costs one dispatch round trip at the device's own launch overhead on
    /// the serial lane; per-morsel task dispatches land on the tasks'
    /// streams as the pipelines run. A scan of a table that is not cached
    /// fails first, charging nothing and consuming no injected fault. Past
    /// both checks the run's meter opens and the engine's operator stats
    /// start afresh ([`operator_stats`](Self::operator_stats)).
    pub fn begin_compiled(&self, compiled: &crate::plan_cache::CompiledQuery) -> Result<QueryRun> {
        for pipe in &compiled.phys.pipelines {
            if let physical::Source::Scan { table, .. } = &pipe.source {
                if !self.bufmgr.is_cached(table) {
                    return Err(SiriusError::TableNotCached(table.clone()));
                }
            }
        }
        self.fire_device_fault(
            |node| FaultSite::DeviceLaunch { node },
            "kernel-launch failure",
        )?;
        let meter = Meter::open(self);
        // Keeps capacity: the reset allocates nothing.
        self.op_stats.lock().clear();
        let pipelines = compiled.phys.pipelines.len() as u64;
        let per_pipeline = self.device.spec().launch_overhead_ns;
        let launch = Duration::from_nanos(per_pipeline.saturating_mul(pipelines));
        self.device
            .charge_duration(CostCategory::Other, "launch.pipelines", launch, 0, 0);
        Ok(QueryRun::new(Arc::clone(&compiled.phys), meter))
    }

    /// Poll the fault injector, if one is attached, at this node's `site`;
    /// an armed fault surfaces as a retryable
    /// [`SiriusError::TransientDevice`].
    pub(crate) fn fire_device_fault(&self, site: fn(usize) -> FaultSite, what: &str) -> Result<()> {
        match fault_fires(&self.config.fault, site) {
            Some(node) => Err(SiriusError::TransientDevice(format!(
                "injected {what} on node {node}"
            ))),
            None => Ok(()),
        }
    }

    /// The run's report from its one meter: the ledger and the morsel
    /// counters since the run began, the spill its steps wrote, the
    /// processing pool as it stands, and the root result's rows (0 until
    /// the run is done, and after an abort).
    pub fn run_report(&self, run: &QueryRun) -> QueryReport {
        run.meter.report(self, run.rows(), run.pipelines())
    }

    /// Number of pipelines the plan compiles into — a projection of
    /// [`compile_query`](Self::compile_query), so it cannot disagree with
    /// what runs (0 for a plan this engine cannot run).
    pub fn pipeline_count(&self, plan: &Rel) -> usize {
        self.compile_query(plan)
            .map_or(0, |compiled| compiled.pipeline_count())
    }

    /// A context charging this engine's device under `category`, whose
    /// kernels may fan out over the engine's task queue.
    pub(crate) fn ctx(&self, category: CostCategory) -> GpuContext {
        self.ctx_on(&self.device, category)
    }

    /// [`Self::ctx`] charging `device` instead (an out-of-core walk's
    /// recorder).
    pub(crate) fn ctx_on(&self, device: &Device, category: CostCategory) -> GpuContext {
        GpuContext::new(device.clone(), category).with_fan_out(self.fan_out.clone())
    }

    /// Dispatch overhead one morsel task pays on its own stream: each CPU
    /// worker issues its task's launches independently, so the charge is
    /// replayed onto the task's lane and overlaps across streams like any
    /// other kernel time (the launch overheads of the kernels themselves are in their
    /// `WorkProfile`s).
    pub(crate) fn task_overhead(&self) -> Duration {
        Duration::from_nanos(self.device.spec().launch_overhead_ns)
    }

    /// Record spill partitions written by the operator at `node`.
    pub(crate) fn note_spill(&self, node: Node, partitions: u64) {
        if partitions == 0 {
            return;
        }
        let mut stats = self.op_stats.lock();
        stats.entry(node.id).or_default().spill_partitions += partitions;
    }
}

/// A completed run's root result.
fn root_table(run: QueryRun) -> Result<Table> {
    run.into_table()
        .ok_or_else(|| SiriusError::Kernel("completed run has no root result".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{Array, DataType, Field, Scalar, Schema};
    use sirius_hw::FaultPlan;
    use sirius_plan::builder::PlanBuilder;
    use sirius_plan::expr::{self, AggExpr, SortExpr};
    use sirius_plan::{AggFunc, JoinKind};

    fn engine_with_data() -> SiriusEngine {
        configured(|_| {})
    }

    /// [`engine_with_data`] under the default configuration after `edit`.
    fn configured(edit: impl FnOnce(&mut EngineConfig)) -> SiriusEngine {
        let mut config = EngineConfig::new(catalog::gh200_gpu());
        edit(&mut config);
        let e = SiriusEngine::from_config(config);
        let t = Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("g", DataType::Utf8),
                Field::new("v", DataType::Float64),
            ]),
            vec![
                Array::from_i64([1, 2, 3, 4]),
                Array::from_strs(["a", "b", "a", "b"]),
                Array::from_f64([10.0, 20.0, 30.0, 40.0]),
            ],
        );
        e.load_table("t", &t);
        e.device().reset(); // measure hot runs only, like the paper
        e
    }

    fn scan() -> PlanBuilder {
        PlanBuilder::scan(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("g", DataType::Utf8),
                Field::new("v", DataType::Float64),
            ]),
        )
    }

    #[test]
    fn filter_project_on_gpu() {
        let e = engine_with_data();
        let plan = scan()
            .filter(expr::gt(expr::col(2), expr::lit(Scalar::Float64(15.0))))
            .project(vec![(expr::col(0), "k".into())])
            .build();
        let out = e.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert!(e.device().elapsed().as_nanos() > 0);
        let b = e.device().breakdown();
        assert!(b.get(CostCategory::Filter).as_nanos() > 0);
    }

    #[test]
    fn groupby_sort_limit() {
        let e = engine_with_data();
        let plan = scan()
            .aggregate(
                vec![expr::col(1)],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    input: Some(expr::col(2)),
                    name: "s".into(),
                }],
            )
            .sort(vec![SortExpr {
                expr: expr::col(1),
                ascending: true,
            }])
            .limit(0, Some(1))
            .build();
        let out = e.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column(0).utf8_value(0), Some("a"));
        assert_eq!(out.column(1).f64_value(0), Some(40.0));
    }

    #[test]
    fn join_runs_build_side_as_task() {
        let e = engine_with_data();
        let plan = scan()
            .join(
                scan(),
                JoinKind::Inner,
                vec![expr::col(1)],
                vec![expr::col(1)],
                None,
            )
            .build();
        let out = e.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 8); // 2 groups × 2×2
        assert!(e.device().breakdown().get(CostCategory::Join).as_nanos() > 0);
        assert_eq!(e.pipeline_count(&plan), 2);
    }

    #[test]
    fn global_aggregate() {
        let e = engine_with_data();
        let plan = scan()
            .aggregate(
                vec![],
                vec![
                    AggExpr {
                        func: AggFunc::Sum,
                        input: Some(expr::col(2)),
                        name: "s".into(),
                    },
                    AggExpr {
                        func: AggFunc::CountStar,
                        input: None,
                        name: "n".into(),
                    },
                ],
            )
            .build();
        let out = e.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column(0).f64_value(0), Some(100.0));
        assert_eq!(out.column(1).i64_value(0), Some(4));
    }

    #[test]
    fn json_wire_round_trip_executes() {
        let e = engine_with_data();
        let plan = scan()
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Avg,
                    input: Some(expr::col(2)),
                    name: "a".into(),
                }],
            )
            .build();
        let out = e.execute_json(&sirius_plan::json::to_json(&plan).unwrap());
        assert_eq!(out.unwrap().column(0).f64_value(0), Some(25.0));
        assert!(e.device().elapsed().as_nanos() > 0);
        e.device().reset();
        assert!(matches!(
            e.execute_json("garbage"),
            Err(SiriusError::Plan(_))
        ));
        assert_eq!(e.device().elapsed().as_nanos(), 0);
    }

    /// README's knob table has one row per `EngineConfig` field, in
    /// declaration order, and no other row. The destructuring is exhaustive,
    /// so a new field does not compile until it is listed here.
    #[test]
    fn readme_knob_table_lists_every_field() {
        macro_rules! fields {
            ($($field:ident),*) => {{
                let EngineConfig { $($field: _),* } = EngineConfig::new(catalog::gh200_gpu());
                vec![$(stringify!($field)),*]
            }};
        }
        let fields = fields!(
            spec,
            host_link,
            workers,
            caching_fraction,
            morsel_rows,
            fusion,
            scheduling,
            encoded_results,
            trace,
            fault
        );
        let readme = include_str!("../../../README.md");
        let table = readme
            .split("| Field | Default (`EngineConfig::new`) |")
            .nth(1)
            .expect("README.md has the EngineConfig table");
        let rows: Vec<&str> = table
            .lines()
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .collect();
        assert_eq!(rows, fields, "README.md's EngineConfig table");
    }

    #[test]
    fn missing_table_error() {
        let e = SiriusEngine::new(catalog::gh200_gpu());
        let plan = scan().build();
        assert!(matches!(
            e.execute(&plan),
            Err(SiriusError::TableNotCached(_))
        ));
    }

    fn tiny_device_groupby() -> (SiriusEngine, Rel) {
        let mut spec = catalog::gh200_gpu();
        spec.memory_bytes = 8192;
        let e = SiriusEngine::new(spec);
        let t = Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64)]),
            vec![Array::from_i64((0..100_000).collect::<Vec<_>>())],
        );
        e.load_table("t", &t);
        let plan = PlanBuilder::scan("t", Schema::new(vec![Field::new("k", DataType::Int64)]))
            .aggregate(
                vec![expr::col(0)],
                vec![AggExpr {
                    func: AggFunc::CountStar,
                    input: None,
                    name: "n".into(),
                }],
            )
            .build();
        (e, plan)
    }

    /// A working set ~100x the device no longer errors: the group-by
    /// partitions through the spill tiers and completes exactly (§3.4).
    #[test]
    fn tiny_device_spills_and_succeeds() {
        let (e, plan) = tiny_device_groupby();
        let got = e.execute(&plan).unwrap();
        assert_eq!(got.num_rows(), 100_000);
        let spill = e.spill_stats();
        assert!(
            spill.bytes_spilled() > 0,
            "tiny device must spill: {spill:?}"
        );
        assert!(spill.partitions > 0);
        assert!(spill.max_depth >= 1);
        let exchange = e.device().breakdown().get(CostCategory::Exchange);
        assert!(exchange > Duration::ZERO, "spill traffic must cost time");
    }

    /// A run's spill depth is its own: on an engine whose earlier query
    /// recursed through the spill tiers, a query that writes no partition
    /// reports depth 0, not the manager's lifetime maximum.
    #[test]
    fn spill_depth_is_the_runs_own() {
        let (e, spilling) = tiny_device_groupby();
        let (_, first) = e.execute_measured(&spilling).unwrap();
        assert!(
            first.spill_partitions > 0 && first.spill_depth >= 1,
            "{first:?}"
        );
        let head = PlanBuilder::scan("t", Schema::new(vec![Field::new("k", DataType::Int64)]))
            .limit(0, Some(3))
            .build();
        let (out, second) = e.execute_measured(&head).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!((second.spill_partitions, second.spill_depth), (0, 0));
    }

    /// Two spilling runs on two views of one engine at 1/8 memory, stepped
    /// alternately with a non-spilling third: the shared manager's spill is
    /// split exactly between the runs that wrote it, and the run that wrote
    /// no partition reports no depth.
    #[test]
    fn interleaved_runs_split_the_shared_spill_exactly() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        let t = Table::new(
            schema.clone(),
            vec![Array::from_i64((0..20_000).collect::<Vec<_>>())],
        );
        let mut spec = catalog::gh200_gpu();
        spec.memory_bytes = t.byte_size() as u64 / 8;
        let e = SiriusEngine::new(spec);
        e.load_table("t", &t);
        let count = AggExpr {
            func: AggFunc::CountStar,
            input: None,
            name: "n".into(),
        };
        let grouped = PlanBuilder::scan("t", schema.clone())
            .aggregate(vec![expr::col(0)], vec![count])
            .build();
        let sorted = PlanBuilder::scan("t", schema.clone())
            .sort(vec![SortExpr {
                expr: expr::col(0),
                ascending: false,
            }])
            .build();
        let head = PlanBuilder::scan("t", schema).limit(0, Some(3)).build();

        let before = e.spill_stats();
        let mut runs: Vec<(SiriusEngine, QueryRun)> = [grouped, sorted, head]
            .iter()
            .map(|plan| {
                let view = e.query_view(TraceConfig::Off);
                let run = view.begin(plan).unwrap();
                (view, run)
            })
            .collect();
        while runs.iter().any(|(_, run)| !run.is_done()) {
            for (view, run) in &mut runs {
                view.step(run, usize::MAX).unwrap();
            }
        }
        let reports: Vec<QueryReport> = runs.iter().map(|(v, run)| v.run_report(run)).collect();
        // The oracle: the shared manager's own delta over the interleaving.
        #[allow(clippy::disallowed_methods)]
        let shared = e.spill_stats().since(&before);
        assert!(reports[0].spill_partitions > 0 && reports[1].spill_partitions > 0);
        let sum = |f: fn(&QueryReport) -> u64| reports.iter().map(f).sum::<u64>();
        assert_eq!(sum(|r| r.spilled_pinned_bytes), shared.bytes_to_pinned);
        assert_eq!(sum(|r| r.spilled_disk_bytes), shared.bytes_to_disk);
        assert_eq!(sum(|r| r.spill_partitions), shared.partitions);
        assert_eq!(
            (reports[2].spill_partitions, reports[2].spill_depth),
            (0, 0)
        );
        assert_eq!(reports[2].rows, 3);
    }

    /// With every spill tier held full there is nowhere left to park
    /// partitions: the engine reports a hard out-of-memory instead of
    /// looping, and that error is what a host falls back on.
    #[test]
    fn oom_when_morsel_exceeds_all_tiers() {
        let (e, plan) = tiny_device_groupby();
        // Hold tickets, halving their size on refusal, until no tier takes
        // another byte (the pinned tier also holds the demoted table).
        let mut held = Vec::new();
        let mut bytes = sirius_rmm::DISK_CAPACITY;
        while bytes > 0 {
            match e.buffer_manager().spill_write(bytes) {
                Ok(ticket) => held.push(ticket),
                Err(_) => bytes /= 2,
            }
        }
        assert!(matches!(e.execute(&plan), Err(SiriusError::OutOfMemory(_))));
    }

    // -- morsel-driven execution ------------------------------------------

    /// Morsel partitioning on vs. the whole-column single walk must produce
    /// identical tables, for every streaming + breaker shape.
    #[test]
    fn morsel_execution_matches_whole_column() {
        let plans = vec![
            scan().build(),
            scan()
                .filter(expr::gt(expr::col(2), expr::lit(Scalar::Float64(15.0))))
                .project(vec![(expr::col(0), "k".into()), (expr::col(2), "v".into())])
                .build(),
            scan()
                .join(
                    scan(),
                    JoinKind::Inner,
                    vec![expr::col(1)],
                    vec![expr::col(1)],
                    None,
                )
                .build(),
            scan()
                .join(
                    scan(),
                    JoinKind::Semi,
                    vec![expr::col(0)],
                    vec![expr::col(0)],
                    None,
                )
                .build(),
            scan()
                .aggregate(
                    vec![expr::col(1)],
                    vec![
                        AggExpr {
                            func: AggFunc::Sum,
                            input: Some(expr::col(2)),
                            name: "s".into(),
                        },
                        AggExpr {
                            func: AggFunc::Avg,
                            input: Some(expr::col(2)),
                            name: "a".into(),
                        },
                        AggExpr {
                            func: AggFunc::CountStar,
                            input: None,
                            name: "n".into(),
                        },
                    ],
                )
                .build(),
            scan()
                .aggregate(
                    vec![],
                    vec![
                        AggExpr {
                            func: AggFunc::Min,
                            input: Some(expr::col(2)),
                            name: "lo".into(),
                        },
                        AggExpr {
                            func: AggFunc::Avg,
                            input: Some(expr::col(2)),
                            name: "a".into(),
                        },
                    ],
                )
                .build(),
        ];
        for morsel_rows in [1, 3] {
            let parallel = engine_with_data().with_morsel_rows(morsel_rows);
            let whole = engine_with_data().with_morsel_rows(usize::MAX);
            for plan in &plans {
                let a = parallel.execute(plan).unwrap();
                let b = whole.execute(plan).unwrap();
                assert_eq!(a, b, "morsel_rows={morsel_rows} plan={plan:?}");
            }
        }
    }

    #[test]
    fn morsels_overlap_on_streams() {
        // 4 equal morsels on 4 streams: the streamed portion of the
        // pipeline overlaps, so device time lands under the single-walk
        // time for the same query. Large enough that the memory-bound
        // kernel time dwarfs per-task dispatch overhead.
        let rows: usize = 1 << 22;
        let make = |morsel_rows: usize| {
            let e = SiriusEngine::new(catalog::gh200_gpu()).with_morsel_rows(morsel_rows);
            let t = Table::new(
                Schema::new(vec![Field::new("k", DataType::Int64)]),
                vec![Array::from_i64((0..rows as i64).collect::<Vec<_>>())],
            );
            e.load_table("t", &t);
            e.device().reset();
            e
        };
        let plan = PlanBuilder::scan("t", Schema::new(vec![Field::new("k", DataType::Int64)]))
            .filter(expr::gt(expr::col(0), expr::lit(Scalar::Int64(-1))))
            .build();

        let whole = make(usize::MAX);
        whole.execute(&plan).unwrap();
        let serial = whole.device().elapsed();

        let parallel = make(rows / 4);
        parallel.execute(&plan).unwrap();
        let overlapped = parallel.device().elapsed();

        assert!(
            overlapped < serial,
            "4-way morsels {overlapped:?} should beat single walk {serial:?}"
        );
        let stats = parallel.morsel_stats();
        assert_eq!(stats.morsels, 4);
        assert!(stats.tasks >= 4);
        assert!((stats.worker_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dispatch_charge_uses_device_launch_overhead() {
        let e = engine_with_data().with_morsel_rows(1);
        let overhead = e.device().spec().launch_overhead_ns;
        let before = e.device().breakdown();
        let stats_before = e.morsel_stats();
        e.execute(&scan().build()).unwrap();
        let other = e
            .device()
            .breakdown()
            .since(&before)
            .get(CostCategory::Other);
        let delta = e.morsel_stats().since(&stats_before);
        assert_eq!(delta.morsels, 4); // one per row
        assert_eq!(delta.tasks, 4);
        // The pipeline dispatch is serial at the device's launch overhead;
        // the 4 task dispatches land one per stream and overlap, so the
        // total stays well under the fully-serialized 5× accounting.
        assert!(other >= Duration::from_nanos(overhead));
        assert!(
            other < Duration::from_nanos(overhead * 5),
            "task dispatch should overlap across streams ({other:?})"
        );
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let e = engine_with_data();
        let plan = scan()
            .filter(expr::gt(expr::col(0), expr::lit_i64(1)))
            .aggregate(
                vec![expr::col(1)],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    input: Some(expr::col(2)),
                    name: "s".into(),
                }],
            )
            .build();
        let out = e.execute(&plan).unwrap();
        assert!(!e.trace().enabled());
        assert_eq!(e.trace().events_recorded(), 0);
        // Stats are kept all the same: the root breaker notes its rows.
        let root = e.operator_stats().get(&0).cloned().unwrap_or_default();
        assert_eq!(root.rows_out, out.num_rows() as u64);
    }

    #[test]
    fn traced_run_reconciles_with_ledger_and_explain() {
        let e = engine_with_data().with_trace(TraceConfig::On);
        let plan = scan()
            .filter(expr::gt(expr::col(0), expr::lit_i64(1)))
            .aggregate(
                vec![expr::col(1)],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    input: Some(expr::col(2)),
                    name: "s".into(),
                }],
            )
            .build();
        let out = e.execute(&plan).unwrap();
        assert!(e.trace().events_recorded() > 0);

        // Kernel events replay to the exact live breakdown.
        let events = e.trace().events();
        let replayed = sirius_hw::ledger::replay(&events);
        assert_eq!(replayed, e.device().breakdown());

        // The root aggregate's stats carry the actual output cardinality.
        let stats = e.operator_stats();
        let root = stats.get(&0).expect("root breaker stats");
        assert_eq!(root.rows_out, out.num_rows() as u64);
        assert_eq!(root.bytes_out, out.byte_size() as u64);
        assert!(root.busy > Duration::ZERO);

        let rendered = e.explain_analyze(&plan);
        assert!(
            rendered.contains(&format!("GroupBy (1 keys) [#0]  rows={}", out.num_rows())),
            "got:\n{rendered}"
        );
        // The scan fused into the filter above it.
        assert!(rendered.contains("(fused)"), "got:\n{rendered}");
    }

    #[test]
    fn traced_spill_run_counts_partitions_and_validates_chrome_trace() {
        // A tiny device memory forces the spilling aggregate path.
        let mut spec = catalog::gh200_gpu();
        spec.memory_bytes = 16 << 10;
        let e = SiriusEngine::new(spec).with_trace(TraceConfig::On);
        let rows = 4096i64;
        let t = Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Float64),
            ]),
            vec![
                Array::from_i64((0..rows).collect::<Vec<_>>()),
                Array::from_f64((0..rows).map(|i| i as f64).collect::<Vec<_>>()),
            ],
        );
        e.load_table("big", &t);
        e.device().reset();
        e.trace().clear(); // pre-reset load events precede the rebased clock
        let plan = PlanBuilder::scan("big", t.schema().clone())
            .aggregate(
                vec![expr::col(0)],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    input: Some(expr::col(1)),
                    name: "s".into(),
                }],
            )
            .build();
        let out = e.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), rows as usize);
        let stats = e.operator_stats();
        let root = stats.get(&0).expect("root stats");
        assert!(
            root.spill_partitions > 0,
            "spilling aggregate records its partitions: {root:?}"
        );
        assert!(e.explain_analyze(&plan).contains("spill="));

        // The full event log renders to a valid Chrome trace.
        let events = e.trace().events();
        let json = sirius_trace::chrome::export("engine", &events);
        let cats: Vec<&str> = sirius_hw::CostCategory::ALL
            .iter()
            .map(|c| c.label())
            .chain(["marker", "op"])
            .collect();
        let n = sirius_trace::chrome::validate_json(&json, &cats).expect("valid trace");
        assert!(n > 0);
    }

    // -- DAG scheduling ----------------------------------------------------

    /// Serialized vs concurrent pipeline scheduling must be bit-exact: only
    /// lane assignment differs, never results.
    #[test]
    fn scheduling_modes_agree() {
        let plan = scan()
            .join(
                scan(),
                JoinKind::Inner,
                vec![expr::col(1)],
                vec![expr::col(1)],
                None,
            )
            .aggregate(
                vec![expr::col(1)],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    input: Some(expr::col(2)),
                    name: "s".into(),
                }],
            )
            .build();
        let serialized = configured(|c| c.scheduling = Scheduling::Serialized);
        let concurrent = configured(|c| c.scheduling = Scheduling::Concurrent);
        assert_eq!(
            serialized.execute(&plan).unwrap(),
            concurrent.execute(&plan).unwrap()
        );
    }

    /// Independent join build sides overlap on the stream pool under
    /// concurrent scheduling, so the simulated clock beats the serialized
    /// baseline on a multi-way join.
    #[test]
    fn concurrent_builds_overlap_on_streams() {
        let rows: i64 = 1 << 20;
        let make = |scheduling: Scheduling| {
            let e = SiriusEngine::from_config(EngineConfig {
                scheduling,
                ..EngineConfig::new(catalog::gh200_gpu())
            });
            let t = Table::new(
                Schema::new(vec![Field::new("k", DataType::Int64)]),
                vec![Array::from_i64((0..rows).collect::<Vec<_>>())],
            );
            e.load_table("a", &t);
            e.load_table("b", &t);
            e.load_table("c", &t);
            e.device().reset();
            e
        };
        let key_schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        let plan = PlanBuilder::scan("a", key_schema.clone())
            .join(
                PlanBuilder::scan("b", key_schema.clone()),
                JoinKind::Semi,
                vec![expr::col(0)],
                vec![expr::col(0)],
                None,
            )
            .join(
                PlanBuilder::scan("c", key_schema),
                JoinKind::Semi,
                vec![expr::col(0)],
                vec![expr::col(0)],
                None,
            )
            .build();

        let serialized = make(Scheduling::Serialized);
        let a = serialized.execute(&plan).unwrap();
        let serial_time = serialized.device().elapsed();

        let concurrent = make(Scheduling::Concurrent);
        let b = concurrent.execute(&plan).unwrap();
        let overlap_time = concurrent.device().elapsed();

        assert_eq!(a, b);
        assert!(
            overlap_time < serial_time,
            "concurrent build waves {overlap_time:?} should beat serialized {serial_time:?}"
        );
    }

    // -- engine-local fault sites and cancellation -------------------------

    /// [`engine_with_data`] as node 0 under fault plan `plan`.
    fn faulted(plan: FaultPlan) -> SiriusEngine {
        configured(|c| c.fault = Some((FaultInjector::new(plan), 0)))
    }

    /// A mid-query wave fault kills the run between dependency waves with a
    /// retryable error, and the retry (a fresh run) succeeds once the
    /// fault budget is spent — with zero leaked grants either way.
    #[test]
    fn wave_fault_fails_mid_query_and_retry_recovers() {
        let e = faulted(FaultPlan::new(0).transient_wave(0, 1, 1));
        // Two pipelines (join build + probe) ⇒ two waves; the fault fires
        // on the second dispatch, after the build wave banked its grant.
        let plan = scan()
            .join(
                scan(),
                JoinKind::Inner,
                vec![expr::col(1)],
                vec![expr::col(1)],
                None,
            )
            .build();
        let broker = e.buffer_manager().grant_broker().clone();
        let mut run = e.begin(&plan).unwrap();
        e.step(&mut run, usize::MAX).unwrap();
        assert!(broker.outstanding() > 0, "build wave holds its grant");
        let err = e.step(&mut run, usize::MAX).unwrap_err();
        assert!(matches!(err, SiriusError::TransientDevice(_)));
        assert!(err.is_retryable());
        assert_eq!(run.abort(), 1, "abort releases the held build result");
        drop(run);
        assert_eq!(broker.outstanding(), 0, "no leaked grants after abort");
        // Fault budget spent: the retry completes and matches fault-free.
        let retry = e.execute(&plan).unwrap();
        assert_eq!(retry.num_rows(), 8);
        assert_eq!(broker.outstanding(), 0);
    }

    /// `begin` is `compile_query` + `begin_compiled`, so plan errors come
    /// first: an unrunnable plan never consumes an armed launch fault, and
    /// the fault is still there for the next runnable one.
    #[test]
    fn plan_errors_win_over_an_armed_launch_fault() {
        let e = faulted(FaultPlan::new(0).transient_device(0, 0, 1));
        let injected = || e.config().fault.as_ref().unwrap().0.injected_count();
        let invalid = scan().limit(0, Some(0)).build();
        assert!(matches!(e.begin(&invalid), Err(SiriusError::Plan(_))));
        assert_eq!(injected(), 0);
        let err = e.begin(&scan().build()).err().expect("armed fault fires");
        assert!(matches!(err, SiriusError::TransientDevice(_)));
        assert_eq!(injected(), 1);
        // Budget spent: the retry starts.
        assert!(e.begin(&scan().build()).is_ok());
    }

    /// Starting a run shares the compiled DAG instead of copying it: every
    /// live run is one more strong reference to the same plan.
    #[test]
    fn begin_compiled_shares_the_compiled_plan() {
        let e = engine_with_data();
        let compiled = e.compile_query(&scan().build()).unwrap();
        assert_eq!(Arc::strong_count(&compiled.phys), 1);
        let first = e.begin_compiled(&compiled).unwrap();
        let second = e.begin_compiled(&compiled).unwrap();
        assert_eq!(Arc::strong_count(&compiled.phys), 3);
        drop((first, second));
        assert_eq!(Arc::strong_count(&compiled.phys), 1);
    }

    /// A grant denial storm steers the victim onto its spill path — the
    /// result is exact, nothing fails, and pressure is visible on the
    /// broker's denied counter.
    #[test]
    fn grant_storm_spills_instead_of_failing() {
        let baseline = engine_with_data();
        let plan = scan()
            .aggregate(
                vec![expr::col(1)],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    input: Some(expr::col(2)),
                    name: "s".into(),
                }],
            )
            .build();
        let expect = baseline.execute(&plan).unwrap();
        // One injected denial: the breaker-level grant is refused and the
        // aggregate takes its partitioned spill path, staying exact.
        let e = faulted(FaultPlan::new(0).grant_storm(0, 0, 1));
        let got = e.execute(&plan).unwrap();
        assert_eq!(got, expect, "storm-denied aggregation still exact");
        let broker = e.buffer_manager().grant_broker();
        assert!(broker.denied() > 0, "storm denials count as pressure");
        assert_eq!(broker.outstanding(), 0);
        // A sustained storm also refuses the post-partition grants, so the
        // query fails out-of-memory — but still releases everything.
        let e2 = faulted(FaultPlan::new(0).grant_storm(0, 0, 16));
        let err = e2.execute(&plan).unwrap_err();
        assert!(matches!(err, SiriusError::OutOfMemory(_)));
        assert_eq!(e2.buffer_manager().grant_broker().outstanding(), 0);
    }

    /// An aborted run is inert: further steps are no-ops, `into_table`
    /// yields nothing, and every held result was released eagerly.
    #[test]
    fn aborted_run_unwinds_cleanly() {
        let e = engine_with_data();
        let plan = scan()
            .join(
                scan(),
                JoinKind::Inner,
                vec![expr::col(1)],
                vec![expr::col(1)],
                None,
            )
            .build();
        let mut run = e.begin(&plan).unwrap();
        e.step(&mut run, usize::MAX).unwrap();
        assert!(!run.is_done());
        run.abort();
        assert!(run.is_aborted());
        assert!(!run.is_done());
        e.step(&mut run, usize::MAX).unwrap(); // no-op, no panic
        assert_eq!(e.buffer_manager().grant_broker().outstanding(), 0);
        assert!(run.into_table().is_none());
    }
}
