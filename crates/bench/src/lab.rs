//! The one rig every experiment stands on: generated TPC-H data plus the
//! DuckDB planner, and the single implementations of "build the engine a
//! configuration describes, load the tables and reset its ledger", "run one
//! query under the engine's meter" and "turn a query mix into plans and
//! requests".

use sirius_clickhouse::{ClickHouse, ClickHouseError};
use sirius_core::{EngineConfig, QueryReport, SiriusEngine};
use sirius_doris::{ClusterConfig, DorisCluster, NodeEngineKind, PartitionScheme};
use sirius_duckdb::DuckDb;
use sirius_exec_cpu::ExecError;
use sirius_hw::{catalog as hw, CostCategory, Device, TimeBreakdown};
use sirius_plan::Rel;
use sirius_serve::{QueryArrival, QueryRequest};
use sirius_tpch::{queries, TpchData, TpchGenerator};
use sirius_trace::EventKind;
use std::cell::OnceCell;
use std::time::Duration;

/// Nodes in every cluster the harness builds (the paper's Table 2 setup).
pub const NODES: usize = 4;

/// TPC-H data at one scale factor plus the DuckDB front end that plans
/// every query (§4.2: Sirius executes DuckDB's optimized plans). Nothing is
/// generated until an experiment first asks for the data or the planner, so
/// the data-free experiments never pay for it and a process that runs many
/// experiments at one scale factor generates once.
pub struct Lab {
    sf: f64,
    built: OnceCell<(TpchData, DuckDb)>,
}

impl Lab {
    /// A lab at `sf`; generation is deferred to first use.
    pub fn new(sf: f64) -> Self {
        Self {
            sf,
            built: OnceCell::new(),
        }
    }

    /// A lab over data that already exists (the decoded twin of
    /// `repro encoding`).
    pub fn over(data: TpchData) -> Self {
        Self {
            sf: data.scale_factor,
            built: OnceCell::from(with_planner(data)),
        }
    }

    fn built(&self) -> &(TpchData, DuckDb) {
        self.built.get_or_init(|| {
            eprintln!("generating TPC-H at SF {} and planning...", self.sf);
            with_planner(TpchGenerator::new(self.sf).generate())
        })
    }

    /// Whether the data has been generated yet.
    pub fn is_built(&self) -> bool {
        self.built.get().is_some()
    }

    /// The scale factor.
    pub fn sf(&self) -> f64 {
        self.sf
    }

    /// The generated tables.
    pub fn data(&self) -> &TpchData {
        &self.built().0
    }

    /// The planner, which is also the DuckDB baseline: loading charges its
    /// device nothing, and every measurement on it is a ledger difference.
    pub fn duck(&self) -> &DuckDb {
        &self.built().1
    }

    /// DuckDB's optimized plan for `sql`.
    pub fn plan(&self, sql: &str) -> Rel {
        self.duck()
            .plan(sql)
            .unwrap_or_else(|e| panic!("plan: {e}\n{sql}"))
    }

    /// Plans for the TPC-H queries numbered `ids`, in TPC-H order.
    pub fn plans(&self, ids: &[u32]) -> Vec<Rel> {
        let mix = tpch(ids);
        mix.iter().map(|(_, sql)| self.plan(sql)).collect()
    }

    /// The engine `config` describes, hot-loaded with the tables and its
    /// ledger reset (the paper measures hot runs: the cold load is not part
    /// of any query).
    pub fn load(&self, config: EngineConfig) -> SiriusEngine {
        let engine = SiriusEngine::from_config(config);
        for (name, table) in self.data().tables() {
            engine.load_table(name.clone(), table);
        }
        engine.device().reset();
        engine
    }

    /// A loaded GH200 engine at one (workers × morsel size) point.
    pub fn engine(&self, workers: usize, morsel_rows: usize) -> SiriusEngine {
        self.load(sweep_point(workers, morsel_rows))
    }

    /// The loaded ClickHouse baseline. Its statement budget scales with SF
    /// (0.27 s × SF) and was tuned so that Q9 alone exceeded it — the
    /// paper's "does not finish". At today's cost constants Q9 finishes
    /// inside it at SF 0.05 and 0.1 (25.01 of 27 ms), so the `DNF` no longer
    /// emerges: EXPERIMENTS.md Figure 4, ROADMAP item 6.
    pub fn clickhouse(&self) -> ClickHouse {
        let mut ch = ClickHouse::new().with_time_budget(Duration::from_secs_f64(0.270 * self.sf));
        for (name, table) in self.data().tables() {
            ch.create_table(name.clone(), table.clone());
        }
        ch.device().reset();
        ch
    }

    /// A loaded [`NODES`]-node cluster with its ledgers reset.
    pub fn cluster(&self, kind: NodeEngineKind, config: ClusterConfig) -> DorisCluster {
        let mut c = DorisCluster::with_config(NODES, kind, PartitionScheme::tpch_default(), config);
        for (name, table) in self.data().tables() {
            c.create_table(name.clone(), table.clone())
                .expect("load table");
        }
        c.reset_ledgers();
        c
    }

    /// Plan `sql` and run it on `engine`.
    pub fn run(&self, engine: &SiriusEngine, sql: &str) -> QueryReport {
        measure(engine, &self.plan(sql))
    }

    /// `sql` on the DuckDB baseline, in simulated ms.
    pub fn duckdb_ms(&self, sql: &str) -> f64 {
        let duck = self.duck();
        timed(duck.device(), || duck.sql(sql)).unwrap_or_else(|e| panic!("duckdb: {e}\n{sql}"))
    }
}

/// `sql` on a ClickHouse baseline in simulated ms, or the paper's annotation
/// for why there is no time: `"DNF"` (statement budget exceeded) or `"n/s"`
/// (the engine rejects the query shape, Q21).
pub fn clickhouse_ms(clickhouse: &ClickHouse, sql: &str) -> Result<f64, &'static str> {
    match timed(clickhouse.device(), || clickhouse.sql(sql)) {
        Ok(ms) => Ok(ms),
        Err(ClickHouseError::Exec(ExecError::TimeBudgetExceeded { .. })) => Err("DNF"),
        Err(ClickHouseError::Exec(ExecError::Unsupported(_))) => Err("n/s"),
        Err(e) => panic!("clickhouse: {e}\n{sql}"),
    }
}

/// Run `query` and report the simulated ms `device`'s ledger charged for it.
fn timed<T, E>(device: &Device, query: impl FnOnce() -> Result<T, E>) -> Result<f64, E> {
    let before = device.breakdown();
    query()?;
    Ok(ms(device.breakdown().since(&before).total()))
}

fn with_planner(data: TpchData) -> (TpchData, DuckDb) {
    let mut duck = DuckDb::new();
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
    }
    (data, duck)
}

/// The paper's GH200 configuration at one (workers × morsel size) point.
pub fn sweep_point(workers: usize, morsel_rows: usize) -> EngineConfig {
    EngineConfig {
        workers,
        morsel_rows,
        ..EngineConfig::new(hw::gh200_gpu())
    }
}

/// Run `plan` on `engine` under its meter.
pub fn measure(engine: &SiriusEngine, plan: &Rel) -> QueryReport {
    let measured = engine.execute_measured(plan);
    measured.unwrap_or_else(|e| panic!("sirius: {e}")).1
}

/// Geometric mean of a non-empty sample.
pub fn geomean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Figure-5 breakdown categories in paper order (project and exchange fold
/// into "other" for the single-node figure; the paper's "filter" bucket is
/// table scans *plus* predicate evaluation, so the ledger's separate `Scan`
/// category folds back into it here).
pub fn figure5_share(b: &TimeBreakdown, category: &str) -> f64 {
    let total = b.total().as_secs_f64();
    if total == 0.0 {
        return 0.0;
    }
    let d = match category {
        "join" => b.get(CostCategory::Join),
        "group-by" => b.get(CostCategory::GroupBy),
        "filter" => b.get(CostCategory::Filter) + b.get(CostCategory::Scan),
        "aggregate" => b.get(CostCategory::Aggregate),
        "order-by" => b.get(CostCategory::OrderBy),
        _ => {
            b.get(CostCategory::Project)
                + b.get(CostCategory::Exchange)
                + b.get(CostCategory::Other)
        }
    };
    d.as_secs_f64() / total
}

/// The TPC-H queries numbered `ids`, as `(number, sql)` in TPC-H order.
pub fn tpch(ids: &[u32]) -> Vec<(u32, &'static str)> {
    let mut picked = queries::all();
    picked.retain(|(id, _)| ids.contains(id));
    picked
}

/// Bytes moved by the kernel events in `engine`'s trace (the ledger bytes
/// the encoding and plan-cache ablations compare).
pub fn kernel_bytes(engine: &SiriusEngine) -> u64 {
    let events = engine.trace().events();
    let kernels = events.iter().filter(|e| e.kind == EventKind::Kernel);
    kernels.map(|e| e.bytes).sum()
}

/// Bind an arrival trace to `plans` (by `query_index`), every request on
/// the same per-query memory budget.
pub fn requests(
    plans: &[Rel],
    arrivals: &[QueryArrival],
    memory_budget: Option<u64>,
) -> Vec<QueryRequest> {
    let bind = |a: &QueryArrival| QueryRequest {
        priority: a.priority,
        memory_budget,
        ..QueryRequest::new(a.id, a.tenant, a.arrival, plans[a.query_index].clone())
    };
    arrivals.iter().map(bind).collect()
}

/// A simulated duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Bytes in MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_q1_q6_with_sane_shape() {
        let lab = Lab::new(0.005);
        let engine = lab.load(EngineConfig::new(hw::gh200_gpu()));
        for (id, sql) in tpch(&[1, 6]) {
            let (duck, sirius) = (lab.duckdb_ms(sql), ms(lab.run(&engine, sql).elapsed));
            assert!(duck > 0.0 && sirius > 0.0);
            assert!(
                duck / sirius > 2.0,
                "Q{id}: GPU should clearly win ({duck:.3}ms vs {sirius:.3}ms)"
            );
        }
    }

    #[test]
    fn helpers() {
        let mut b = TimeBreakdown::default();
        b.add(CostCategory::Join, Duration::from_millis(3));
        b.add(CostCategory::Other, Duration::from_millis(1));
        assert!((figure5_share(&b, "join") - 0.75).abs() < 1e-9);
        assert!((figure5_share(&b, "other") - 0.25).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(tpch(&[6, 1]), [(1, queries::Q1), (6, queries::Q6)]);
        assert!((ms(Duration::from_micros(1500)) - 1.5).abs() < 1e-12);
        assert!((mib(3 << 20) - 3.0).abs() < 1e-12);
    }
}
