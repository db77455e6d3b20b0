//! The coordinator, compute nodes, the fragmented SPMD executor (Figure 3),
//! and the coordinator-driven recovery loop.
//!
//! Recovery model: every failure surfaces as a typed
//! [`sirius_core::SiriusError`]. The coordinator classifies it and walks a
//! degradation ladder:
//!
//! 1. **Retry with backoff** — faults [`ClusterConfig::retry`] allows
//!    ([`RetryPolicy::allows`]: transient, while retries remain) re-dispatch
//!    the whole query on a fresh collective epoch after
//!    [`RetryPolicy::delay`] of simulated backoff.
//! 2. **Re-schedule / shrink world** — a node in the shared down-set (an
//!    injected crash, or a caller's [`DorisCluster::mark_down`]) is
//!    removed, the cluster is rebuilt over the survivors, every table is
//!    re-partitioned from coordinator-side durable storage, and the query
//!    re-dispatches.
//! 3. **CPU fallback** — below a majority quorum of the world the cluster
//!    was built with, the coordinator gives up on the fleet and runs the
//!    query on a single-node CPU engine over the full (unpartitioned)
//!    tables.
//!
//! Only the retry budget and the fault plan are settable
//! ([`ClusterConfig`]); the quorum is derived from the world size, and no
//! rung reads a clock.
//!
//! Failed attempts cancel all in-flight fragments through the shared
//! [`CancelToken`]. An exchanged intermediate is registered as a temp table
//! in exactly one place — the store its node's engine reads (`NodeEngine`) —
//! and every fragment, finished or failed, drops what it registered before
//! its node thread returns, so retries never leak temps or observe stale
//! collectives.

use crate::planner::{distribute_with, DistributeOptions, PartitionScheme};
use crate::{DorisError, Result};
use parking_lot::{Mutex, RwLock};
use sirius_columnar::Table;
use sirius_core::exchange::{ExchangeService, EXCHANGE_LEVEL};
use sirius_core::{EngineConfig, RetryPolicy, SiriusEngine, SiriusError};
use sirius_cudf::{hash_partition, GpuContext};
use sirius_exec_cpu::{Catalog, CpuEngine, EngineProfile, ExecError};
use sirius_hw::{
    catalog as hw, CostCategory, Device, FaultInjector, FaultPlan, FaultSite, TimeBreakdown,
    TraceConfig, TraceSink,
};
use sirius_nccl::{CancelToken, NcclCluster};
use sirius_plan::{ExchangeKind, Rel};
use sirius_sql::{plan_sql, BinderCatalog, JoinOrderPolicy};
use sirius_trace::metrics::{self, Metric, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Coordinator-side simulated cost of one re-scheduling pass: tearing down
/// the old fragment set, re-partitioning the dead node's shards, and
/// re-dispatching onto the survivors.
const RESCHEDULE_PENALTY: Duration = Duration::from_millis(20);

/// Node liveness (§3.2.1: the coordinator identifies active nodes via
/// heartbeat) as a down-set indexed by *stable* node id (the rank a node
/// had in the original cluster), so liveness survives world shrinks.
/// Clones share it: a node thread that crashes mid-fragment marks itself
/// down and the coordinator's recovery loop sees it at once. Only
/// `mark_down` changes it and no clock is read, so a recovery decision never
/// depends on how fast the host ran the attempt before it.
#[derive(Clone)]
struct DownSet(Arc<Mutex<Vec<bool>>>);

impl DownSet {
    fn new(nodes: usize) -> Self {
        Self(Arc::new(Mutex::new(vec![false; nodes])))
    }

    /// Mark a node down for good; an unknown id changes nothing.
    fn mark_down(&self, node: usize) {
        if let Some(slot) = self.0.lock().get_mut(node) {
            *slot = true;
        }
    }

    /// True if `node` exists and was never marked down.
    fn is_alive(&self, node: usize) -> bool {
        self.0.lock().get(node) == Some(&false)
    }
}

/// What executes fragments on each compute node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEngineKind {
    /// Vanilla Doris: the node's CPU engine and native exchange.
    DorisCpu,
    /// Distributed ClickHouse baseline: ClickHouse engine profile and
    /// FROM-order planning on every node (§4.3's third contender).
    ClickHouseCpu,
    /// Sirius-accelerated (Figure 3b): local GPU engines + the Sirius
    /// exchange service.
    SiriusGpu,
}

/// Fault-free coordinator time of Doris' optimizer + coordinator, which
/// the paper's §4.3 finds dominating Q1/Q6. Sirius reuses it, and the
/// single-node CPU fallback pays it on every cluster.
const DORIS_COORDINATOR: Duration = Duration::from_millis(35);

/// Everything a cluster decides by what its nodes run.
impl NodeEngineKind {
    /// Node `id`'s engine. A GPU node is the paper's A100 behind PCIe4 with
    /// two launch workers. Its fragments keep result strings
    /// dictionary-encoded: codes cross the wire, and the coordinator
    /// materializes payload bytes once after gathering (late
    /// materialization).
    fn node_engine(self, fault: &FaultInjector, id: usize) -> NodeEngine {
        match self {
            NodeEngineKind::SiriusGpu => NodeEngine::Gpu(SiriusEngine::from_config(EngineConfig {
                host_link: hw::pcie4_a100_attach(),
                workers: 2,
                encoded_results: true,
                fault: Some((fault.clone(), id)),
                ..EngineConfig::new(hw::a100_40gb())
            })),
            _ => NodeEngine::Cpu {
                engine: self.cpu_engine(),
                catalog: Catalog::new(),
            },
        }
    }

    /// The CPU engine of a CPU node, and of the single-node fallback:
    /// ClickHouse's profile on a ClickHouse cluster, Doris' otherwise.
    fn cpu_engine(self) -> CpuEngine {
        let profile = match self {
            NodeEngineKind::ClickHouseCpu => EngineProfile::clickhouse(),
            _ => EngineProfile::doris(),
        };
        CpuEngine::new(hw::xeon_gold_6526y(), profile)
    }

    /// ClickHouse plans joins in FROM order; Doris' optimizer reorders.
    fn join_order(self) -> JoinOrderPolicy {
        match self {
            NodeEngineKind::ClickHouseCpu => JoinOrderPolicy::FromOrder,
            _ => JoinOrderPolicy::Optimized,
        }
    }

    /// How the distributor places join build sides: ClickHouse broadcasts
    /// them.
    fn distribute_options(self) -> DistributeOptions {
        DistributeOptions {
            broadcast_join_build_sides: self == NodeEngineKind::ClickHouseCpu,
        }
    }

    /// Coordinator time before per-fragment and per-node dispatch:
    /// ClickHouse's coordinator is leaner than the Doris one Sirius reuses.
    fn coordinator_base(self) -> Duration {
        match self {
            NodeEngineKind::ClickHouseCpu => Duration::from_millis(15),
            _ => DORIS_COORDINATOR,
        }
    }
}

/// The cluster's settable recovery policy. The rest of the ladder is fixed
/// at construction: a majority quorum of the initial world, and the CPU
/// fallback below it.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Full-query retries for transient (retryable) faults and the backoff
    /// before each (charged as simulated coordinator time).
    pub retry: RetryPolicy,
    /// Deterministic fault plan to inject (tests/chaos runs).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ClusterConfig {
    /// 3 retries from 10 ms backoff, no faults.
    fn default() -> Self {
        Self {
            retry: RetryPolicy {
                max_retries: 3,
                backoff: Duration::from_millis(10),
            },
            fault_plan: None,
        }
    }
}

impl ClusterConfig {
    /// Replace the fault plan (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// What executes a node's fragments, together with the one table store it
/// reads: base-table shards and exchanged temps both live there and nowhere
/// else.
enum NodeEngine {
    /// A CPU engine over the node's own catalog.
    Cpu { engine: CpuEngine, catalog: Catalog },
    /// A Sirius GPU engine; its buffer manager's table cache is the store.
    Gpu(SiriusEngine),
}

impl NodeEngine {
    fn device(&self) -> &Device {
        match self {
            NodeEngine::Cpu { engine, .. } => engine.device(),
            NodeEngine::Gpu(gpu) => gpu.device(),
        }
    }

    /// Run `plan` against this node's store. GPU engines poll their own
    /// `DeviceLaunch` fault site; CPU nodes poll `fault` here.
    fn execute(&self, plan: &Rel, fault: &FaultInjector, id: usize) -> sirius_core::Result<Table> {
        match self {
            NodeEngine::Gpu(gpu) => gpu.execute(plan),
            NodeEngine::Cpu { engine, catalog } => {
                if fault.fire(FaultSite::DeviceLaunch { node: id }).is_some() {
                    return Err(SiriusError::TransientDevice(format!(
                        "injected launch failure on node {id}"
                    )));
                }
                engine.execute(plan, catalog).map_err(node_error)
            }
        }
    }

    /// Load this node's shard of a base table.
    fn load(&mut self, name: &str, shard: Table) {
        match self {
            NodeEngine::Cpu { catalog, .. } => catalog.register(name, shard),
            NodeEngine::Gpu(gpu) => gpu.load_table(name, &shard),
        }
    }

    /// Register an exchanged intermediate (§3.2.4: it arrived over NCCL, so
    /// it is already device-resident and no host transfer is charged).
    fn add_temp(&mut self, name: &str, table: Table) {
        match self {
            NodeEngine::Cpu { catalog, .. } => catalog.register(name, table),
            NodeEngine::Gpu(gpu) => gpu.cache_resident(name, &table),
        }
    }

    fn drop_temp(&mut self, name: &str) {
        match self {
            NodeEngine::Cpu { catalog, .. } => {
                catalog.remove(name);
            }
            NodeEngine::Gpu(gpu) => {
                gpu.buffer_manager().evict(name);
            }
        }
    }
}

struct NodeState {
    /// Stable node id: the rank this node had in the original cluster.
    /// Fault sites, the down-set, and error attribution all use this, so a
    /// world shrink never re-targets another node's faults.
    id: usize,
    engine: NodeEngine,
    exchange: ExchangeService,
    temp_counter: usize,
    fault: FaultInjector,
    down: DownSet,
    cancel: CancelToken,
    /// The temp tables the in-flight fragment registered in the engine's
    /// store — the one list of them; [`Self::release_temps`] empties it on
    /// success and failure alike.
    live_temps: Vec<String>,
}

impl NodeState {
    /// Poll a crash site: if the plan fires it the node goes silent — marked
    /// down, with the cluster-wide token cancelled so peers blocked on its
    /// contribution wake instead of timing out.
    fn crash_at(&self, site: FaultSite) -> sirius_core::Result<()> {
        if self.fault.fire(site).is_none() {
            return Ok(());
        }
        self.down.mark_down(self.id);
        self.cancel.cancel();
        Err(SiriusError::NodeDown(self.id))
    }

    /// Execute a distributed plan: fragments split at Exchange nodes,
    /// exchanged intermediates registered as temporary tables (§3.2.4).
    /// Any failure cancels the cluster-wide token so sibling fragments
    /// blocked in collectives abort promptly. Temp cleanup is the caller's
    /// job via [`Self::release_temps`] — it must run on every path.
    fn execute_fragmented(&mut self, plan: &Rel) -> sirius_core::Result<Table> {
        let result = self
            .rewrite(plan)
            .and_then(|rewritten| self.engine.execute(&rewritten, &self.fault, self.id));
        if result.is_err() {
            self.cancel.cancel();
        }
        result
    }

    /// Drop every temp table the last fragment registered from the
    /// engine's store. Returns how many were reaped.
    fn release_temps(&mut self) -> u64 {
        let names = std::mem::take(&mut self.live_temps);
        for name in &names {
            self.engine.drop_temp(name);
        }
        names.len() as u64
    }

    /// Replace every exchange in `plan` (innermost first, joins
    /// left-then-right — the shared rewrite's fixed order keeps collective
    /// sequence numbers aligned across nodes) with a temp-table read of the
    /// exchanged fragment result.
    fn rewrite(&mut self, plan: &Rel) -> sirius_core::Result<Rel> {
        sirius_plan::visit::try_rewrite(plan, &mut |rebuilt| match rebuilt {
            Rel::Exchange { input, kind } => self.materialize_exchange(&input, &kind),
            other => Ok(other),
        })
    }

    /// Execute the (already rewritten) fragment below an exchange, run the
    /// collective, and register the result as a temp table.
    fn materialize_exchange(
        &mut self,
        inner: &Rel,
        kind: &ExchangeKind,
    ) -> sirius_core::Result<Rel> {
        let local = self.engine.execute(inner, &self.fault, self.id)?;
        // A crash at the exchange boundary.
        self.crash_at(FaultSite::FragmentMid { node: self.id })?;
        let out = self.exchange.exchange(kind, local)?;
        let name = format!("__exch_{}_{}", self.id, self.temp_counter);
        self.temp_counter += 1;
        let schema = out.schema().clone();
        self.engine.add_temp(&name, out);
        self.live_temps.push(name.clone());
        Ok(Rel::Read {
            table: name,
            schema,
            projection: None,
        })
    }
}

/// Failure, retry, and degradation counters for one distributed query (the
/// recovery half of the Table 2 telemetry). All zeros on a fault-free run.
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

    /// Fold another query's counters into this one.
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

/// The result of one distributed query, with the Table 2 attribution.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result table (gathered on node 0).
    pub table: Table,
    /// Coordinator time: planning, fragment dispatch, result return, plus
    /// any recovery overhead (backoff waits, re-scheduling).
    pub coordinator: Duration,
    /// Per-node simulated breakdowns covering *all* attempts of this query:
    /// device time burned by failed/retried attempts is folded into the
    /// stable node that burned it (appended at the tail if that node died).
    pub per_node: Vec<TimeBreakdown>,
    /// Failure/retry/degradation counters for this query.
    pub recovery: RecoveryStats,
}

impl QueryOutcome {
    /// The largest `part` of any node's breakdown.
    fn slowest(&self, part: impl Fn(&TimeBreakdown) -> Duration) -> Duration {
        self.per_node.iter().map(part).max().unwrap_or_default()
    }

    /// Compute time: the slowest node's non-exchange operator time.
    pub fn compute(&self) -> Duration {
        self.slowest(|b| b.total() - b.get(CostCategory::Exchange) - b.get(CostCategory::Other))
    }

    /// Exchange time: the slowest node's wire time.
    pub fn exchange(&self) -> Duration {
        self.slowest(|b| b.get(CostCategory::Exchange))
    }

    /// Everything else: coordination plus node-side misc.
    pub fn other(&self) -> Duration {
        self.coordinator + self.slowest(|b| b.get(CostCategory::Other))
    }

    /// End-to-end simulated time.
    pub fn total(&self) -> Duration {
        self.compute() + self.exchange() + self.other()
    }
}

/// What one node's fragment thread hands back: its stable id, the
/// fragment's result, and how many temps it released.
type FragmentResult = (usize, sirius_core::Result<Table>, u64);

/// One SPMD dispatch attempt, as the coordinator sees it.
struct Attempt {
    /// The result rank's table, or the root-cause error with the stable id
    /// of the node that raised it.
    result: std::result::Result<Table, (usize, SiriusError)>,
    /// Device time every node spent on this attempt, in rank order, keyed
    /// by stable id — computed once, whether the attempt is reported or
    /// charged to the query as a failed one.
    spent: Vec<(usize, TimeBreakdown)>,
}

/// Reduce the fragment results of one attempt to the result rank's table or
/// the failure to act on: a node death outranks transient errors, which
/// outrank cancellation fallout (counted into `recovery`).
fn root_cause(
    results: Vec<FragmentResult>,
    result_node: usize,
    recovery: &mut RecoveryStats,
) -> std::result::Result<Table, (usize, SiriusError)> {
    let mut root: Option<(usize, SiriusError)> = None;
    let mut table = None;
    for (id, res, _) in results {
        match res {
            Ok(t) if id == result_node => table = Some(t),
            Ok(_) => {}
            Err(e) => {
                if matches!(e, SiriusError::Cancelled(_)) {
                    recovery.cancelled_fragments += 1;
                }
                let outranks = match (&root, &e) {
                    (None, _) => true,
                    (Some((_, SiriusError::NodeDown(_))), _) => false,
                    (Some(_), SiriusError::NodeDown(_)) => true,
                    (Some((_, SiriusError::Cancelled(_))), _) => true,
                    _ => false,
                };
                if outranks {
                    root = Some((id, e));
                }
            }
        }
    }
    match (root, table) {
        (Some(root), _) => Err(root),
        (None, Some(t)) => Ok(t),
        (None, None) => Err((
            result_node,
            SiriusError::Exchange("result rank produced no table".into()),
        )),
    }
}

/// The live node set: rebuilt wholesale when the world shrinks.
struct NodeSet {
    nodes: Vec<Mutex<NodeState>>,
    /// Current rank → stable node id.
    assignment: Vec<usize>,
    cancel: CancelToken,
}

impl NodeSet {
    /// Every node's cumulative device breakdown, in rank order, keyed by
    /// stable id.
    fn breakdowns(&self) -> Vec<(usize, TimeBreakdown)> {
        let of = |n: &Mutex<NodeState>| {
            let n = n.lock();
            (n.id, n.engine.device().breakdown())
        };
        self.nodes.iter().map(of).collect()
    }
}

/// The distributed warehouse: a coordinator plus `world` compute nodes.
pub struct DorisCluster {
    state: RwLock<NodeSet>,
    /// Coordinator-side durable copies of every registered table (the
    /// shared-storage analog) — the source for re-partitioning after a
    /// node death and for the CPU-fallback catalog.
    storage: Mutex<Vec<(String, Table)>>,
    binder: BinderCatalog,
    scheme: PartitionScheme,
    down: DownSet,
    kind: NodeEngineKind,
    retry: RetryPolicy,
    /// Fewest live nodes that still run distributed: a majority of the
    /// world the cluster was built with.
    quorum: usize,
    fault: FaultInjector,
    epoch: AtomicU64,
    /// Coordinator-side lifecycle trace (retry/reschedule/fallback instants).
    trace: TraceSink,
    /// Prometheus-style coordinator counters.
    metrics: MetricsRegistry,
    /// Monotone simulated-time source for lifecycle instants: advanced by
    /// the same coordinator overheads (`backoff`, reschedule penalty) that
    /// feed `QueryOutcome::coordinator`.
    lifecycle_ns: AtomicU64,
}

impl DorisCluster {
    /// Build a cluster of `world` nodes (the paper's setup: 4 nodes, each a
    /// Xeon Gold host with one A100, InfiniBand 4×NDR between nodes).
    pub fn new(world: usize, kind: NodeEngineKind) -> Self {
        let config = ClusterConfig::default();
        Self::with_config(world, kind, PartitionScheme::tpch_default(), config)
    }

    /// Cluster with explicit partition scheme and recovery policy. Below a
    /// majority of `world` live nodes, queries run on the CPU fallback.
    pub fn with_config(
        world: usize,
        kind: NodeEngineKind,
        scheme: PartitionScheme,
        config: ClusterConfig,
    ) -> Self {
        let down = DownSet::new(world);
        let fault = match &config.fault_plan {
            Some(plan) => FaultInjector::new(plan.clone()),
            None => FaultInjector::disabled(),
        };
        let assignment: Vec<usize> = (0..world).collect();
        let state = build_node_set(kind, &assignment, &down, &fault);
        Self {
            state: RwLock::new(state),
            storage: Mutex::new(Vec::new()),
            binder: BinderCatalog::new(),
            scheme,
            down,
            kind,
            retry: config.retry,
            quorum: world.div_ceil(2).max(1),
            fault,
            epoch: AtomicU64::new(0),
            trace: TraceSink::off(),
            metrics: MetricsRegistry::new(),
            lifecycle_ns: AtomicU64::new(0),
        }
    }

    /// Enable (or disable) coordinator lifecycle tracing. Retry, reschedule,
    /// and CPU-fallback decisions become instant events on the trace,
    /// timestamped on the simulated coordinator clock.
    pub fn with_trace(mut self, config: TraceConfig) -> Self {
        self.trace = config.sink();
        self
    }

    /// The coordinator's lifecycle trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Coordinator counters (queries, retries, reschedules, faults,
    /// fallbacks) in Prometheus registry form; render with
    /// [`MetricsRegistry::render`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Cumulative device breakdowns of the current node set, keyed by stable
    /// node id. Rebuilds (world shrinks) start fresh ledgers, so deltas
    /// across a shrink are not meaningful.
    pub fn node_breakdowns(&self) -> Vec<(usize, TimeBreakdown)> {
        self.state.read().breakdowns()
    }

    /// Snapshot of cumulative per-link interconnect traffic as
    /// `((src, dst), bytes, messages)` triples, keyed by stable node id.
    /// Dictionary-encoded exchanges ship each dictionary once per link and
    /// codes thereafter, which these counters make visible.
    pub fn link_traffic(&self) -> Vec<((usize, usize), u64, u64)> {
        let state = self.state.read();
        state
            .nodes
            .first()
            .map(|n| n.lock().exchange.link_traffic().snapshot())
            .unwrap_or_default()
    }

    /// Roll one query's recovery counters into the coordinator registry.
    fn note_query_metrics(&self, recovery: &RecoveryStats) {
        let m = &self.metrics;
        m.counter_add(QUERIES, &[], 1);
        m.counter_add(RETRIES, &[], recovery.retries);
        m.counter_add(RESCHEDULES, &[], recovery.reschedules);
        m.counter_add(WORLD_SHRINKS, &[], recovery.world_shrinks);
        m.counter_add(FAULTS_INJECTED, &[], recovery.faults_injected);
        m.counter_add(CPU_FALLBACKS, &[], recovery.cpu_fallbacks);
        m.counter_add(TEMPS_REAPED, &[], recovery.temps_reaped);
        m.gauge_set(WORLD_SIZE, &[], self.world() as f64);
        // Cumulative interconnect traffic, one gauge sample per live link.
        // (Counters are shared cluster-wide, so gauges — not counter_add —
        // keep repeated queries from double-counting.)
        for ((src, dst), bytes, msgs) in self.link_traffic() {
            let (src, dst) = (metrics::id_label(src), metrics::id_label(dst));
            let labels: &[(&str, &str)] = &[("src", &src), ("dst", &dst)];
            m.gauge_set(LINK_BYTES, labels, bytes as f64);
            m.gauge_set(LINK_MESSAGES, labels, msgs as f64);
        }
    }

    /// Stamp a coordinator lifecycle instant, first advancing the simulated
    /// lifecycle clock by the overhead the decision costs (`advance`).
    fn lifecycle_event(&self, label: &'static str, advance: Duration) {
        if !self.trace.enabled() {
            return;
        }
        let ts = self
            .lifecycle_ns
            .fetch_add(advance.as_nanos() as u64, Ordering::SeqCst)
            + advance.as_nanos() as u64;
        self.trace.instant("lifecycle", label, ts);
    }

    /// Current cluster size (shrinks as nodes die).
    pub fn world(&self) -> usize {
        self.state.read().nodes.len()
    }

    /// Mark node `node` (stable id) down for good, as a crash does: the
    /// next query re-schedules onto the survivors, or falls back to the CPU
    /// below the quorum. An unknown id changes nothing.
    pub fn mark_down(&self, node: usize) {
        self.down.mark_down(node);
    }

    /// The fault injector driving this cluster's chaos plan (disabled when
    /// no plan was configured).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault
    }

    /// Total exchange temp tables currently registered in the nodes' table
    /// stores. Zero after every completed query — including failed and
    /// retried attempts — or the release-on-every-path guard has a hole.
    pub fn temp_tables_live(&self) -> usize {
        self.state
            .read()
            .nodes
            .iter()
            .map(|n| n.lock().live_temps.len())
            .sum()
    }

    /// Register a table, partitioning it across the nodes per the scheme.
    /// A durable coordinator-side copy is retained for recovery.
    pub fn create_table(&mut self, name: impl Into<String>, table: Table) -> Result<()> {
        let name = name.into();
        self.binder.add_table(
            name.clone(),
            table.schema().clone(),
            table.num_rows() as u64,
        );
        {
            let mut storage = self.storage.lock();
            if let Some(slot) = storage.iter_mut().find(|(n, _)| *n == name) {
                slot.1 = table.clone();
            } else {
                storage.push((name.clone(), table.clone()));
            }
        }
        let state = self.state.read();
        load_table_into(&state, &self.scheme, &name, &table)
    }

    /// Clear all node ledgers (between the cold load and hot measurements).
    pub fn reset_ledgers(&self) {
        for n in &self.state.read().nodes {
            n.lock().engine.device().reset();
        }
    }

    /// Plan, distribute, dispatch, and execute a SQL query, recovering from
    /// injected or detected faults per the cluster's [`ClusterConfig`].
    pub fn sql(&self, sql: &str) -> Result<QueryOutcome> {
        let plan = plan_sql(sql, &self.binder, self.kind.join_order()).map_err(DorisError::Sql)?;
        self.execute_plan(&plan)
    }

    /// Distribute, dispatch, and execute an already-bound logical plan,
    /// recovering from injected or detected faults per the cluster's
    /// [`ClusterConfig`]. [`Self::sql`] is this plus the SQL frontend.
    pub fn execute_plan(&self, plan: &Rel) -> Result<QueryOutcome> {
        let dplan = distribute_with(plan, &self.scheme, self.kind.distribute_options())?;
        let mut fragments = 1;
        sirius_plan::visit::visit(&dplan, &mut |_node, rel| {
            fragments += usize::from(matches!(rel, Rel::Exchange { .. }));
        });

        let mut recovery = RecoveryStats::default();
        let fault_base = self.fault.injected_count();
        // Coordinator time spent on recovery: backoff waits, re-scheduling.
        let mut extra = Duration::ZERO;
        // Device time burned by failed attempts, keyed by stable node id.
        // Folded into the successful attempt's per_node so the outcome
        // accounts for *all* attempts of this query.
        let mut failed_time: Vec<(usize, TimeBreakdown)> = Vec::new();

        loop {
            // 1. Failure detection + repair (degradation ladder rungs 2–3).
            if self.shrink_to_survivors(&mut recovery, &mut extra)? {
                recovery.faults_injected = self.fault.injected_count() - fault_base;
                recovery.cpu_fallbacks = 1;
                self.lifecycle_event("cpu-fallback", Duration::ZERO);
                let out = self.cpu_fallback(plan, extra, recovery)?;
                self.note_query_metrics(&out.recovery);
                return Ok(out);
            }

            // 2. Dispatch one attempt.
            let attempt = self.dispatch_once(&dplan, &mut recovery);
            let (node, e) = match attempt.result {
                Ok(table) => {
                    recovery.faults_injected = self.fault.injected_count() - fault_base;
                    let mut per_node: Vec<TimeBreakdown> =
                        attempt.spent.into_iter().map(|(_, t)| t).collect();
                    self.fold_failed_time(&mut per_node, failed_time);
                    self.note_query_metrics(&recovery);
                    return Ok(QueryOutcome {
                        table,
                        coordinator: self.coordinator_time(fragments) + extra,
                        per_node,
                        recovery,
                    });
                }
                Err(root) => root,
            };
            for (id, delta) in attempt.spent {
                match failed_time.iter_mut().find(|(i, _)| *i == id) {
                    Some((_, acc)) => *acc = acc.merge(&delta),
                    None => failed_time.push((id, delta)),
                }
            }
            // 3. Classification (degradation ladder rung 1 or loop back).
            match e {
                // Top of loop removes the dead node and re-schedules.
                SiriusError::NodeDown(n) if !self.down.is_alive(n) => {}
                e if self.retry.allows(&e, recovery.retries as u32) => {
                    let backoff = self.retry.delay(recovery.retries as u32);
                    recovery.retries += 1;
                    extra += backoff;
                    self.lifecycle_event("retry", backoff);
                }
                SiriusError::NodeDown(n) => return Err(DorisError::NodeDown(n)),
                cause => return Err(DorisError::Node { node, cause }),
            }
        }
    }

    /// Degradation ladder rung 2: drop the nodes marked down and rebuild
    /// the cluster over the survivors. Returns `true` when the survivors
    /// fall below quorum (rung 3 is the caller's).
    fn shrink_to_survivors(
        &self,
        recovery: &mut RecoveryStats,
        extra: &mut Duration,
    ) -> Result<bool> {
        let (survivors, dead): (Vec<usize>, Vec<usize>) = {
            let state = self.state.read();
            let alive = |id: &usize| self.down.is_alive(*id);
            state.assignment.iter().partition(|id| alive(id))
        };
        if dead.is_empty() {
            return Ok(false);
        }
        if survivors.len() < self.quorum {
            return Ok(true);
        }
        for &d in &dead {
            self.fault.disarm_node(d);
        }
        self.rebuild(&survivors)?;
        recovery.reschedules += 1;
        recovery.world_shrinks += 1;
        *extra += RESCHEDULE_PENALTY;
        self.lifecycle_event("reschedule", RESCHEDULE_PENALTY);
        Ok(false)
    }

    /// Fault-free coordinator time: planning, dispatching `fragments`
    /// fragments to every node, result return.
    fn coordinator_time(&self, fragments: usize) -> Duration {
        self.kind.coordinator_base()
            + Duration::from_millis(5) * fragments as u32
            + Duration::from_millis(2) * self.world() as u32
    }

    /// Fold failed attempts' device time into the node that currently
    /// holds that stable id, so `per_node` (rank-indexed) covers every
    /// attempt — not just the one that succeeded.
    fn fold_failed_time(
        &self,
        per_node: &mut Vec<TimeBreakdown>,
        failed_time: Vec<(usize, TimeBreakdown)>,
    ) {
        let state = self.state.read();
        for (id, delta) in failed_time {
            match state.assignment.iter().position(|&a| a == id) {
                Some(rank) => per_node[rank] = per_node[rank].merge(&delta),
                // The node died after burning this time; keep the ledger
                // entry rather than drop it.
                None => per_node.push(delta),
            }
        }
    }

    /// One SPMD dispatch over the current node set; every node thread
    /// releases its temps and stragglers are cancelled before it returns.
    fn dispatch_once(&self, dplan: &Rel, recovery: &mut RecoveryStats) -> Attempt {
        let state = self.state.read();
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        state.cancel.reset();
        for node in &state.nodes {
            node.lock().exchange.begin_epoch(epoch);
        }
        let before = state.breakdowns();

        // Dispatch the SPMD plan to every node; each thread always runs the
        // temp-release guard, success or failure.
        let results: Vec<FragmentResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = state
                .nodes
                .iter()
                .map(|node| {
                    scope.spawn(move || {
                        let mut n = node.lock();
                        let res = n.execute_fragmented(dplan);
                        let reaped = n.release_temps();
                        (n.id, res, reaped)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| {
                    h.join().unwrap_or_else(|_| {
                        state.cancel.cancel();
                        (
                            state.assignment.get(rank).copied().unwrap_or(rank),
                            Err(SiriusError::Kernel("node thread panicked".into())),
                            0,
                        )
                    })
                })
                .collect()
        });

        let result_node = state.assignment.first().copied().unwrap_or(0);
        let reaped: u64 = results.iter().map(|(_, _, reaped)| reaped).sum();
        let result = root_cause(results, result_node, recovery).and_then(|t| {
            if !t.has_dict_columns() {
                return Ok(t);
            }
            // Late materialization: node engines return result strings as
            // dictionary codes; decode once here, on the result node's
            // device, *before* the per-node snapshot below so the decode
            // kernel is charged to this attempt.
            let device = state.nodes[0].lock().engine.device().clone();
            sirius_core::materialize_result(&device, &t).map_err(|e| (result_node, e))
        });
        if result.is_err() {
            recovery.temps_reaped += reaped;
        }
        let spent = (state.breakdowns().into_iter().zip(&before))
            .map(|((id, now), (_, before))| (id, now.since(before)))
            .collect();
        Attempt { result, spent }
    }

    /// Rebuild the cluster over `survivors` (stable ids), re-partitioning
    /// every stored table onto the shrunken world.
    fn rebuild(&self, survivors: &[usize]) -> Result<()> {
        let new_state = build_node_set(self.kind, survivors, &self.down, &self.fault);
        {
            let storage = self.storage.lock();
            for (name, table) in storage.iter() {
                load_table_into(&new_state, &self.scheme, name, table)?;
            }
        }
        *self.state.write() = new_state;
        Ok(())
    }

    /// Degradation ladder rung 3: run the full (undistributed) plan on a
    /// single-node CPU engine over unpartitioned tables.
    fn cpu_fallback(
        &self,
        plan: &Rel,
        extra: Duration,
        recovery: RecoveryStats,
    ) -> Result<QueryOutcome> {
        let engine = self.kind.cpu_engine();
        let mut catalog = Catalog::new();
        for (name, table) in self.storage.lock().iter() {
            catalog.register(name.clone(), table.clone());
        }
        let failed = |cause| DorisError::Node { node: 0, cause };
        let table = (engine.execute(plan, &catalog).map_err(node_error))
            // Base tables may carry dictionary-encoded strings; the fallback
            // result must be decoded like any other coordinator result.
            .and_then(|table| sirius_core::materialize_result(engine.device(), &table))
            .map_err(failed)?;
        let coordinator = DORIS_COORDINATOR + extra;
        Ok(QueryOutcome {
            table,
            coordinator,
            per_node: vec![engine.device().breakdown()],
            recovery,
        })
    }
}

const QUERIES: Metric = Metric::counter(
    "doris_queries_total",
    "Queries completed by the coordinator.",
);
const RETRIES: Metric = Metric::counter(
    "doris_retries_total",
    "Full-query retries after transient errors.",
);
const RESCHEDULES: Metric = Metric::counter(
    "doris_reschedules_total",
    "Fragment re-schedulings after node deaths.",
);
const WORLD_SHRINKS: Metric =
    Metric::counter("doris_world_shrinks_total", "Cluster world-size shrinks.");
const FAULTS_INJECTED: Metric = Metric::counter(
    "doris_faults_injected_total",
    "Faults the injector fired during queries.",
);
const CPU_FALLBACKS: Metric = Metric::counter(
    "doris_cpu_fallbacks_total",
    "Queries degraded to the single-node CPU engine.",
);
const TEMPS_REAPED: Metric = Metric::counter(
    "doris_temps_reaped_total",
    "Exchange temps dropped from failed attempts.",
);
const WORLD_SIZE: Metric = Metric::gauge("doris_world_size", "Current cluster world size.");
const LINK_BYTES: Metric = Metric::gauge(
    "doris_link_bytes",
    "Cumulative interconnect bytes per link.",
);
const LINK_MESSAGES: Metric = Metric::gauge(
    "doris_link_messages",
    "Cumulative interconnect messages per link.",
);

/// Build the per-node state for the given stable-id assignment: a fresh
/// NCCL cluster, engines per `kind`, and fault/down-set/cancel wiring.
fn build_node_set(
    kind: NodeEngineKind,
    assignment: &[usize],
    down: &DownSet,
    fault: &FaultInjector,
) -> NodeSet {
    let world = assignment.len();
    let mut comms = NcclCluster::new(world, hw::infiniband_4xndr());
    let cancel = comms.first().map(|c| c.cancel_token()).unwrap_or_default();
    for comm in &mut comms {
        comm.set_fault_injector(fault.clone(), assignment.to_vec());
    }
    let nodes = comms
        .into_iter()
        .zip(assignment.iter().copied())
        .map(|(comm, id)| {
            let engine = kind.node_engine(fault, id);
            Mutex::new(NodeState {
                id,
                exchange: ExchangeService::new(comm, engine.device().clone()),
                engine,
                temp_counter: 0,
                fault: fault.clone(),
                down: down.clone(),
                cancel: cancel.clone(),
                live_temps: Vec::new(),
            })
        })
        .collect();
    NodeSet {
        nodes,
        assignment: assignment.to_vec(),
        cancel,
    }
}

/// A CPU engine's error in the engine taxonomy: an unsupported plan keeps
/// its type, every other failure is a kernel error.
fn node_error(e: ExecError) -> SiriusError {
    match e {
        ExecError::Unsupported(m) => SiriusError::Unsupported(m),
        e => SiriusError::Kernel(e.to_string()),
    }
}

/// Partition `table` per `scheme` and register the shards on every node.
/// Hash-partitioned tables are placed by the exchange's own router and
/// salt, so a shuffle on the partition column lands every row where the
/// load put it. Placement charges nothing: ledgers reset after load.
fn load_table_into(
    state: &NodeSet,
    scheme: &PartitionScheme,
    name: &str,
    table: &Table,
) -> Result<()> {
    let world = state.nodes.len();
    let parts: Vec<Table> = match scheme.partition_column(name) {
        Some(Some(col)) => {
            let key = table.column_by_name(col).map_err(|_| {
                DorisError::Plan(format!("partition column {col} missing from table {name}"))
            })?;
            let device = state.nodes[0].lock().engine.device().clone();
            let ctx = GpuContext::new(device, CostCategory::Exchange).muted();
            hash_partition(&ctx, &[key], table, world, EXCHANGE_LEVEL)
                .map_err(|e| DorisError::Plan(format!("partitioning table {name}: {e}")))?
        }
        Some(None) => vec![table.clone(); world],
        None => table.partition((0..table.num_rows()).map(|i| i % world), world),
    };
    for (node, part) in state.nodes.iter().zip(parts) {
        node.lock().engine.load(name, part);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{Array, DataType, Field, Schema};
    use sirius_trace::EventKind;

    fn cluster(kind: NodeEngineKind) -> DorisCluster {
        cluster_with(kind, ClusterConfig::default())
    }

    fn cluster_with(kind: NodeEngineKind, config: ClusterConfig) -> DorisCluster {
        cluster_of(3, kind, config)
    }

    fn cluster_of(world: usize, kind: NodeEngineKind, config: ClusterConfig) -> DorisCluster {
        let mut scheme = PartitionScheme::new();
        scheme.hash("t", "k");
        scheme.replicate("dim");
        let mut c = DorisCluster::with_config(world, kind, scheme, config);
        c.create_table(
            "t",
            Table::new(
                Schema::new(vec![
                    Field::new("k", DataType::Int64),
                    Field::new("g", DataType::Int64),
                    Field::new("v", DataType::Float64),
                ]),
                vec![
                    Array::from_i64((0..60).collect::<Vec<_>>()),
                    Array::from_i64((0..60).map(|i| i % 4).collect::<Vec<_>>()),
                    Array::from_f64((0..60).map(|i| i as f64).collect::<Vec<_>>()),
                ],
            ),
        )
        .unwrap();
        c.create_table(
            "dim",
            Table::new(
                Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("name", DataType::Utf8),
                ]),
                vec![
                    Array::from_i64([0, 1, 2, 3]),
                    Array::from_strs(["a", "b", "c", "d"]),
                ],
            ),
        )
        .unwrap();
        c.reset_ledgers();
        c
    }

    #[test]
    fn global_sum_matches_single_node() {
        for kind in [NodeEngineKind::DorisCpu, NodeEngineKind::SiriusGpu] {
            let c = cluster(kind);
            let out = c.sql("select sum(v) as s, count(*) as n from t").unwrap();
            assert_eq!(
                out.table.column(0).f64_value(0),
                Some((0..60).sum::<i64>() as f64)
            );
            assert_eq!(out.table.column(1).i64_value(0), Some(60));
            assert!(out.total() > Duration::ZERO);
            assert!(!out.recovery.any(), "fault-free run has clean counters");
        }
    }

    #[test]
    fn grouped_avg_decomposition_is_exact() {
        let c = cluster(NodeEngineKind::SiriusGpu);
        let out = c
            .sql("select g, avg(v) as a, count(*) as n from t group by g order by g")
            .unwrap();
        assert_eq!(out.table.num_rows(), 4);
        // group g: values g, g+4, ..., g+56 → avg = g + 28.
        for row in 0..4 {
            let g = out.table.column(0).i64_value(row).unwrap();
            let a = out.table.column(1).f64_value(row).unwrap();
            assert!((a - (g as f64 + 28.0)).abs() < 1e-9, "g={g} avg={a}");
            assert_eq!(out.table.column(2).i64_value(row), Some(15));
        }
    }

    #[test]
    fn distributed_join_with_replicated_dim() {
        let c = cluster(NodeEngineKind::DorisCpu);
        let out = c
            .sql("select name, count(*) as n from t, dim where g = id group by name order by name")
            .unwrap();
        assert_eq!(out.table.num_rows(), 4);
        assert_eq!(out.table.column(1).i64_value(0), Some(15));
    }

    #[test]
    fn shuffle_join_on_nonpartition_key() {
        // Self-join on g (not the partition key) forces shuffles.
        let c = cluster(NodeEngineKind::SiriusGpu);
        let out = c
            .sql("select count(*) as n from t a, t b where a.g = b.g")
            .unwrap();
        // 4 groups × 15 × 15.
        assert_eq!(out.table.column(0).i64_value(0), Some(4 * 15 * 15));
        assert!(
            out.exchange() > Duration::ZERO,
            "shuffles must hit the wire"
        );
    }

    #[test]
    fn all_alive_initially() {
        let m = DownSet::new(3);
        assert!((0..3).all(|i| m.is_alive(i)));
    }

    #[test]
    fn marked_down_node_detected() {
        let m = DownSet::new(3);
        m.mark_down(1);
        assert!(!m.is_alive(1));
        assert!(m.is_alive(0) && m.is_alive(2));
        m.mark_down(1);
        assert!(!m.is_alive(1), "a second mark_down keeps it down");
    }

    #[test]
    fn out_of_range_is_dead() {
        let m = DownSet::new(2);
        assert!(!m.is_alive(9));
        m.mark_down(9);
        assert!(m.is_alive(0) && m.is_alive(1));
    }

    #[test]
    fn clones_share_state() {
        let m = DownSet::new(2);
        let m2 = m.clone();
        m2.mark_down(0);
        assert!(!m.is_alive(0));
        assert!(m.is_alive(1));
    }

    #[test]
    fn dead_node_recovers_by_rescheduling() {
        let c = cluster(NodeEngineKind::DorisCpu);
        c.mark_down(2);
        let out = c.sql("select sum(v) as s, count(*) as n from t").unwrap();
        assert_eq!(
            out.table.column(0).f64_value(0),
            Some((0..60).sum::<i64>() as f64)
        );
        assert_eq!(out.recovery.reschedules, 1);
        assert_eq!(out.recovery.world_shrinks, 1);
        assert_eq!(c.world(), 2, "world shrank to the survivors");
        assert_eq!(c.temp_tables_live(), 0);
    }

    #[test]
    fn quorum_loss_degrades_to_cpu_fallback() {
        let c = cluster(NodeEngineKind::SiriusGpu);
        c.mark_down(1);
        c.mark_down(2);
        let out = c.sql("select sum(v) as s from t").unwrap();
        assert_eq!(
            out.table.column(0).f64_value(0),
            Some((0..60).sum::<i64>() as f64)
        );
        assert_eq!(out.recovery.cpu_fallbacks, 1);
        assert_eq!(c.temp_tables_live(), 0);
    }

    #[test]
    fn even_world_runs_at_quorum_and_falls_back_below_it() {
        // Four nodes: the derived quorum is 2. Two survivors still run
        // distributed; one survivor takes the CPU fallback.
        let sum = Some((0..60).sum::<i64>() as f64);
        let c = cluster_of(4, NodeEngineKind::SiriusGpu, ClusterConfig::default());
        c.mark_down(1);
        c.mark_down(3);
        let out = c.sql("select sum(v) as s from t").unwrap();
        assert_eq!(out.table.column(0).f64_value(0), sum);
        assert_eq!(
            (out.recovery.world_shrinks, out.recovery.cpu_fallbacks),
            (1, 0)
        );
        assert_eq!(c.world(), 2, "ran distributed on the two survivors");

        c.mark_down(2);
        let out = c.sql("select sum(v) as s from t").unwrap();
        assert_eq!(out.table.column(0).f64_value(0), sum);
        assert_eq!(
            (out.recovery.world_shrinks, out.recovery.cpu_fallbacks),
            (0, 1)
        );
        assert_eq!(c.temp_tables_live(), 0);
    }

    #[test]
    fn transient_device_fault_is_retried() {
        let config =
            ClusterConfig::default().with_fault_plan(FaultPlan::new(1).transient_device(1, 0, 2));
        let c = cluster_with(NodeEngineKind::SiriusGpu, config);
        let out = c.sql("select g, sum(v) as s from t group by g").unwrap();
        assert_eq!(out.table.num_rows(), 4);
        assert_eq!(out.recovery.retries, 2);
        assert!(out.recovery.faults_injected >= 2);
        assert_eq!(c.temp_tables_live(), 0);
        assert_eq!(c.world(), 3, "transient faults do not shrink the world");
    }

    #[test]
    fn mid_fragment_crash_recovers_and_reaps_temps() {
        let config = ClusterConfig::default().with_fault_plan(FaultPlan::new(2).crash_mid(2, 0));
        let c = cluster_with(NodeEngineKind::SiriusGpu, config);
        // Shuffle-heavy query so the crash lands mid-exchange with temps
        // registered on sibling nodes.
        let out = c
            .sql("select count(*) as n from t a, t b where a.g = b.g")
            .unwrap();
        assert_eq!(out.table.column(0).i64_value(0), Some(4 * 15 * 15));
        assert!(out.recovery.reschedules >= 1);
        assert_eq!(c.world(), 2);
        assert_eq!(c.temp_tables_live(), 0, "cancelled fragments leak no temps");
    }

    #[test]
    fn breakdown_attribution_sums() {
        let c = cluster(NodeEngineKind::SiriusGpu);
        let out = c.sql("select g, sum(v) as s from t group by g").unwrap();
        assert_eq!(out.total(), out.compute() + out.exchange() + out.other());
        assert!(out.other() >= out.coordinator);
    }

    #[test]
    fn retried_attempts_charge_per_node_time() {
        // Every nanosecond the fleet burns — including the two doomed
        // attempts — must land in per_node: ledger deltas around the query
        // equal the reported breakdowns exactly.
        let config =
            ClusterConfig::default().with_fault_plan(FaultPlan::new(1).transient_device(1, 0, 2));
        let c = cluster_with(NodeEngineKind::SiriusGpu, config).with_trace(TraceConfig::On);
        let before = c.node_breakdowns();
        let out = c.sql("select g, sum(v) as s from t group by g").unwrap();
        assert_eq!(out.recovery.retries, 2);
        assert_eq!(out.recovery.world_shrinks, 0);
        let after = c.node_breakdowns();
        assert_eq!(before.len(), after.len());
        assert_eq!(after.len(), out.per_node.len());
        for (rank, ((id_b, b), (id_a, a))) in before.iter().zip(after.iter()).enumerate() {
            assert_eq!(id_b, id_a);
            assert_eq!(
                a.since(b),
                out.per_node[rank],
                "node {id_a}: per_node must cover failed attempts too"
            );
        }

        // The coordinator stamped one lifecycle instant per retry, with a
        // strictly advancing simulated timestamp.
        let retries: Vec<_> = c
            .trace()
            .events()
            .into_iter()
            .filter(|e| e.cat == "lifecycle" && e.label == "retry")
            .collect();
        assert_eq!(retries.len(), 2);
        assert!(retries[0].ts < retries[1].ts, "backoff advances the clock");

        // And the registry saw the same counters.
        assert_eq!(c.metrics().counter_value("doris_queries_total", &[]), 1);
        assert_eq!(c.metrics().counter_value("doris_retries_total", &[]), 2);
        let text = c.metrics().render();
        assert!(text.contains("# TYPE doris_retries_total counter"));
        assert!(text.contains("doris_retries_total 2"));
    }

    #[test]
    fn reschedule_emits_lifecycle_instant() {
        let config = ClusterConfig::default().with_fault_plan(FaultPlan::new(2).crash_mid(2, 0));
        let c = cluster_with(NodeEngineKind::SiriusGpu, config).with_trace(TraceConfig::On);
        let out = c
            .sql("select count(*) as n from t a, t b where a.g = b.g")
            .unwrap();
        assert!(out.recovery.reschedules >= 1);
        let events = c.trace().events();
        let reschedules = events
            .iter()
            .filter(|e| e.cat == "lifecycle" && e.label == "reschedule")
            .count();
        assert_eq!(reschedules as u64, out.recovery.reschedules);
        assert_eq!(
            c.metrics().counter_value("doris_reschedules_total", &[]),
            out.recovery.reschedules
        );
    }

    /// What each node's table store holds: the catalog's names on a CPU node,
    /// the cache's per-tier bytes on a GPU node (its cache has no listing).
    fn stores(c: &DorisCluster) -> Vec<String> {
        let of = |n: &Mutex<NodeState>| match &n.lock().engine {
            NodeEngine::Cpu { catalog, .. } => format!("{:?}", catalog.table_names()),
            NodeEngine::Gpu(gpu) => format!("{:?}", gpu.buffer_manager().tier_usage()),
        };
        c.state.read().nodes.iter().map(of).collect()
    }

    #[test]
    fn exchanged_temps_leave_every_store_on_every_path() {
        // A transient launch fault on node 1 fails the first attempt; node 2
        // then crashes at its third exchange boundary — the second exchange
        // of the retried attempt, with the first exchange's temps registered
        // on its siblings — and the last four queries run on the survivors.
        let plan = FaultPlan::new(7).transient_device(1, 0, 1).crash_mid(2, 2);
        for kind in [
            NodeEngineKind::DorisCpu,
            NodeEngineKind::ClickHouseCpu,
            NodeEngineKind::SiriusGpu,
        ] {
            let config = ClusterConfig::default().with_fault_plan(plan.clone());
            let c = cluster_of(3, kind, config);
            let mut recovery = RecoveryStats::default();
            for sql in [
                "select g, sum(v) as s from t group by g",
                "select count(*) as n from t a, t b where a.g = b.g",
                "select name, count(*) as n from t, dim where g = id group by name",
                "select g, avg(v) as a from t group by g order by g",
                "select count(*) as n from t a, t b where a.g = b.g",
            ] {
                let out = c.sql(sql).unwrap_or_else(|e| panic!("{kind:?} {sql}: {e}"));
                recovery.absorb(&out.recovery);
                assert_eq!(c.temp_tables_live(), 0, "{kind:?} {sql}");
            }
            assert_eq!(
                (recovery.retries, recovery.world_shrinks),
                (1, 1),
                "{kind:?}: {recovery:?}"
            );
            // Exactly what a cluster of the surviving size holds after
            // loading the two base tables and running nothing.
            let fresh = cluster_of(2, kind, ClusterConfig::default());
            assert_eq!(stores(&c), stores(&fresh), "{kind:?}");
            if kind != NodeEngineKind::SiriusGpu {
                assert_eq!(stores(&c)[0], r#"["dim", "t"]"#);
            }
        }
    }

    #[test]
    fn a_node_charges_one_partition_pass_per_shuffle() {
        let data = sirius_tpch::TpchGenerator::new(0.002).generate();
        let queries = sirius_tpch::queries::all();
        let sql = |q: u32| {
            queries
                .iter()
                .find(|(id, _)| *id == q)
                .map(|(_, s)| *s)
                .unwrap()
        };
        // On one node a shuffle sends every row to itself: no pass is charged.
        let (gpu, cpu) = (NodeEngineKind::SiriusGpu, NodeEngineKind::DorisCpu);
        for (world, kind) in [(3, gpu), (3, cpu), (1, gpu), (1, cpu)] {
            let mut c = DorisCluster::with_config(
                world,
                kind,
                PartitionScheme::tpch_default(),
                Default::default(),
            );
            for (name, table) in data.tables() {
                c.create_table(name.clone(), table.clone()).unwrap();
            }
            for (q, expected) in [(3, 4), (6, 0)] {
                let plan = plan_sql(sql(q), &c.binder, kind.join_order()).unwrap();
                let dplan = distribute_with(&plan, &c.scheme, kind.distribute_options()).unwrap();
                let mut shuffles = 0;
                sirius_plan::visit::visit(&dplan, &mut |_, rel| {
                    shuffles += usize::from(matches!(
                        rel,
                        Rel::Exchange {
                            kind: ExchangeKind::Shuffle { .. },
                            ..
                        }
                    ));
                });
                assert_eq!(shuffles, expected, "{kind:?} Q{q}: shuffles in the plan");
                let sinks: Vec<TraceSink> = (c.state.read().nodes.iter())
                    .map(|n| {
                        let sink = TraceConfig::On.sink();
                        n.lock().engine.device().set_trace(sink.clone());
                        sink
                    })
                    .collect();
                c.execute_plan(&plan).unwrap();
                for (node, sink) in sinks.iter().enumerate() {
                    let what = format!("{kind:?} world {world} Q{q} node {node}");
                    let events = sink.events();
                    let passes = (events.iter())
                        .filter(|e| e.label == "partition.hash")
                        .count();
                    let expected = if world == 1 { 0 } else { shuffles };
                    assert_eq!(passes, expected, "{what}");
                    let unnamed = events.iter().filter(|e| {
                        e.kind == EventKind::Kernel && CostCategory::from_label(&e.label).is_some()
                    });
                    assert_eq!(
                        unnamed.count(),
                        0,
                        "{what}: a kernel charged without a name"
                    );
                }
            }
        }
    }

    /// Every metric the coordinator declares, in the README table's order.
    const METRICS: [Metric; 10] = [
        QUERIES,
        RETRIES,
        RESCHEDULES,
        WORLD_SHRINKS,
        FAULTS_INJECTED,
        CPU_FALLBACKS,
        TEMPS_REAPED,
        WORLD_SIZE,
        LINK_BYTES,
        LINK_MESSAGES,
    ];

    #[test]
    fn every_declared_metric_is_emitted_and_every_emitted_one_declared() {
        // A retried, exchanging query: every counter moves or is published
        // at zero, and the link gauges have traffic to report.
        let config =
            ClusterConfig::default().with_fault_plan(FaultPlan::new(1).transient_device(1, 0, 2));
        let c = cluster_with(NodeEngineKind::SiriusGpu, config);
        c.sql("select count(*) as n from t a, t b where a.g = b.g")
            .unwrap();
        let rendered = c.metrics().render();
        let mut emitted: Vec<(&str, &str)> = rendered
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' '))
            .collect();
        let mut declared: Vec<(&str, &str)> =
            METRICS.iter().map(|m| (m.name, m.kind.as_str())).collect();
        emitted.sort();
        declared.sort();
        assert_eq!(emitted, declared, "emitted families != declared metrics");
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

    /// README's `ClusterConfig` table has one row per field, in
    /// declaration order, and no other row. The destructuring is
    /// exhaustive, so a new field does not compile until it is listed here.
    #[test]
    fn readme_cluster_config_table_lists_every_field() {
        let ClusterConfig { retry, fault_plan } = ClusterConfig::default();
        let RetryPolicy {
            max_retries,
            backoff,
        } = retry;
        assert_eq!(
            (max_retries, backoff, fault_plan.is_none()),
            (3, Duration::from_millis(10), true)
        );
        let readme = include_str!("../../../README.md");
        let table = readme
            .split("| Field | Default (`ClusterConfig::default`) |")
            .nth(1)
            .expect("README.md has the ClusterConfig table");
        let rows: Vec<&str> = table
            .lines()
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .collect();
        assert_eq!(
            rows,
            ["retry.max_retries", "retry.backoff", "fault_plan"],
            "README.md's ClusterConfig table"
        );
    }

    #[test]
    fn readme_metrics_table_lists_the_catalog() {
        let readme = include_str!("../../../README.md");
        for m in METRICS {
            let row = format!("| `{}` | {} | {} |", m.name, m.kind.as_str(), m.help);
            assert!(
                readme.contains(&row),
                "README.md Metrics table lacks: {row}"
            );
        }
    }
}
