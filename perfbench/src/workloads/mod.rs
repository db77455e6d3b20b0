//! The four workloads and what they share: seeded TPC-H data, the oracle's
//! expected digests, the op clock, and the per-pass record.
//!
//! Every workload is a closed loop driven by one client thread: the next op
//! starts when the previous one returned. A *pass* is the workload's fixed
//! op list executed once; `main.rs` repeats passes for `--seconds`.

mod dist;
mod engine;
mod serve;

use crate::alloc;
use crate::metrics::Values;
use crate::oracle::{splitmix64, Checksum, Oracle};
use crate::spans::Tracer;
use sirius_columnar::Table;
use sirius_core::SiriusEngine;
use sirius_exec_cpu::Catalog;
use sirius_hw::{CostCategory, DeviceSpec, Link, LinkSpec, TimeBreakdown};
use sirius_plan::Rel;
use sirius_sql::{plan_sql, BinderCatalog, JoinOrderPolicy};
use sirius_tpch::{TpchData, TpchGenerator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["tpch_power", "spill_tight", "serve_mix", "dist_4node"];

/// CPU worker threads (= device streams) of every engine the benchmark
/// builds. Fixed — never the engine's default pool of 4, never derived
/// from the host's core count — so simulated numbers do not depend on the
/// machine. (`DorisCluster` builds its node engines itself, also with 2.)
pub const WORKERS: usize = 2;

/// Rows per morsel on the single-node engines: lineitem splits into about
/// three morsels at the scale factors used here, so every scan fans out
/// over both workers.
pub const MORSEL_ROWS: usize = 32_768;

/// One executed pass.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Host wall time inside the op timers (verification excluded).
    pub wall: Duration,
    /// Simulated time of the pass on the modelled device(s).
    pub sim: Duration,
    /// Simulated latency of each op.
    pub op_sim: Vec<Duration>,
    /// Ops that errored, panicked, or whose output missed the oracle.
    pub failed: u64,
    /// Allocator activity inside the op timers.
    pub alloc: alloc::Snapshot,
    /// Mean over the op calls of how far the call pushed live heap bytes
    /// above where it started.
    pub mean_op_peak_bytes: f64,
}

/// Set-up time by layer (reported per layer; their sum plus the warm-up
/// pass is `setup_s`).
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// `sirius-tpch` data generation.
    pub gen_s: f64,
    /// `sirius-exec-cpu` computing every expected result.
    pub oracle_s: f64,
    /// Engine construction and table load.
    pub load_s: f64,
}

/// A workload, set up and warmed.
pub trait Workload {
    /// Ops in one pass.
    fn ops_per_pass(&self) -> u64;

    /// Execute one pass. With a tracer, wrap every call into a layer in a
    /// span and return the counts taken at the same boundaries (per-layer
    /// metric values for this pass).
    fn pass(&mut self, tracer: Option<&mut Tracer>) -> (PassResult, Values);

    /// Probes of single layers that are not part of a pass (run once, in
    /// the traced run only).
    fn probes(&mut self) -> Values {
        Values::default()
    }

    /// Set-up time by layer.
    fn setup_times(&self) -> SetupTimes;

    /// The generated data (for the kernel probes).
    fn data(&self) -> &TpchData;
}

/// Build, load and warm `name` from `seed`. `traced` also prepares what
/// only the traced run needs (a second engine with its kernel trace sink
/// on), so the untraced run's set-up and memory stay what users pay.
pub fn setup(name: &str, seed: u64, traced: bool) -> Option<Box<dyn Workload>> {
    let mut w: Box<dyn Workload> = match name {
        "tpch_power" => Box::new(engine::EngineWorkload::tpch_power(seed, traced)),
        "spill_tight" => Box::new(engine::EngineWorkload::spill_tight(seed, traced)),
        "serve_mix" => Box::new(serve::ServeMix::new(seed)),
        "dist_4node" => Box::new(dist::Dist4Node::new(seed)),
        _ => return None,
    };
    // One untimed pass fills caches, the plan cache and lazy state; a
    // failure here is a failure of the baseline, reported like any other.
    let (warm, _) = w.pass(None);
    if warm.failed > 0 {
        eprintln!(
            "perf: {} of {} warm-up ops failed",
            warm.failed,
            w.ops_per_pass()
        );
    }
    Some(w)
}

/// Seeded TPC-H data with the catalogs the frontend and the oracle need.
pub struct Dataset {
    pub data: TpchData,
    pub binder: BinderCatalog,
    pub catalog: Catalog,
    pub gen_s: f64,
}

impl Dataset {
    pub fn generate(sf: f64, seed: u64) -> Dataset {
        let t0 = Instant::now();
        let data = TpchGenerator::new(sf).with_seed(seed).generate();
        let gen_s = t0.elapsed().as_secs_f64();
        let mut binder = BinderCatalog::new();
        let mut catalog = Catalog::new();
        for (name, table) in data.tables() {
            binder.add_table(
                name.clone(),
                table.schema().clone(),
                table.num_rows() as u64,
            );
            catalog.register(name.clone(), table.clone());
        }
        Dataset {
            data,
            binder,
            catalog,
            gen_s,
        }
    }

    /// Total bytes of the tables — the memory sweep's working-set unit.
    pub fn working_set(&self) -> u64 {
        self.data
            .tables()
            .iter()
            .map(|(_, t)| t.byte_size() as u64)
            .sum()
    }

    /// A Sirius engine on `spec` behind `host_link` with the benchmark's
    /// fixed worker count and morsel size, hot-loaded with the data and its
    /// ledger reset.
    pub fn engine(&self, spec: DeviceSpec, host_link: LinkSpec) -> SiriusEngine {
        let engine = SiriusEngine::with_link(spec, Link::new(host_link), WORKERS)
            .with_morsel_rows(MORSEL_ROWS);
        for (name, table) in self.data.tables() {
            engine.load_table(name.clone(), table);
        }
        engine.device().reset();
        engine
    }

    /// Plan `sql` as the engines' frontend does.
    pub fn plan(&self, label: &str, sql: &str) -> Rel {
        plan_sql(sql, &self.binder, JoinOrderPolicy::Optimized)
            .unwrap_or_else(|e| panic!("cannot plan {label}: {e}"))
    }
}

/// One op of a SQL- or plan-driven workload with its expected result.
pub struct Op {
    pub label: String,
    pub sql: String,
    pub plan: Rel,
    pub expect: Checksum,
    /// Simulated time of the CPU baseline (the oracle run) on this op.
    pub cpu_sim: Duration,
}

/// Plan every `(label, sql)` and compute its expected digest; returns the
/// ops and the seconds the oracle took.
pub fn oracle_ops(ds: &Dataset, queries: &[(String, String)]) -> (Vec<Op>, f64) {
    let oracle = Oracle::new();
    let t0 = Instant::now();
    let ops = queries
        .iter()
        .map(|(label, sql)| {
            let plan = ds.plan(label, sql);
            let (expect, cpu_sim) = oracle.expect(label, &plan, &ds.catalog);
            Op {
                label: label.clone(),
                sql: sql.clone(),
                plan,
                expect,
                cpu_sim,
            }
        })
        .collect();
    (ops, t0.elapsed().as_secs_f64())
}

/// Accumulates wall time and allocator activity over the timed op calls of
/// one pass. Only the call is inside the timer; a panic is caught at this
/// boundary and surfaces as an error like any other.
#[derive(Default)]
pub struct OpClock {
    wall: Duration,
    alloc: alloc::Snapshot,
    calls: u64,
    peak_sum: u64,
}

impl OpClock {
    pub fn time<T, E: ToString>(&mut self, f: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
        let live0 = alloc::live_bytes();
        alloc::reset_peak();
        let a0 = alloc::snapshot();
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        self.wall += t0.elapsed();
        let d = alloc::snapshot().since(&a0);
        self.alloc.calls += d.calls;
        self.alloc.bytes += d.bytes;
        self.calls += 1;
        self.peak_sum += alloc::peak_bytes().saturating_sub(live0);
        match out {
            Ok(result) => result.map_err(|e| e.to_string()),
            Err(_) => Err("panicked".into()),
        }
    }

    /// Move the accumulated wall time and allocator readings into `pass`.
    pub fn finish(self, pass: &mut PassResult) {
        pass.wall = self.wall;
        pass.alloc = self.alloc;
        pass.mean_op_peak_bytes = self.peak_sum as f64 / self.calls.max(1) as f64;
    }
}

/// 1 if the op failed or its output misses the oracle, else 0.
pub fn verify(label: &str, expect: &Checksum, got: Result<&Table, &String>) -> u64 {
    match got {
        Ok(t) if expect.matches(&Checksum::of(t)) => 0,
        Ok(t) => {
            eprintln!(
                "perf: {label}: result misses the oracle ({} rows, expected {})",
                t.num_rows(),
                expect.rows()
            );
            1
        }
        Err(e) => {
            eprintln!("perf: {label}: op failed: {e}");
            1
        }
    }
}

/// Record a simulated breakdown as the `hw.sim_*_ns` metrics.
pub fn sim_categories(values: &mut Values, b: &TimeBreakdown) {
    for (name, c) in [
        ("hw.sim_join_ns", CostCategory::Join),
        ("hw.sim_groupby_ns", CostCategory::GroupBy),
        ("hw.sim_filter_ns", CostCategory::Filter),
        ("hw.sim_scan_ns", CostCategory::Scan),
        ("hw.sim_aggregate_ns", CostCategory::Aggregate),
        ("hw.sim_orderby_ns", CostCategory::OrderBy),
        ("hw.sim_project_ns", CostCategory::Project),
        ("hw.sim_exchange_ns", CostCategory::Exchange),
        ("hw.sim_other_ns", CostCategory::Other),
    ] {
        values.set(name, b.get(c).as_nanos() as f64);
    }
}

/// Geometric mean of `cpu / gpu` simulated time over ops (the paper
/// reports 7x for Sirius over DuckDB on TPC-H).
pub fn geomean_speedup(pairs: impl Iterator<Item = (Duration, Duration)>) -> f64 {
    let logs: Vec<f64> = pairs
        .filter(|(_, gpu)| !gpu.is_zero())
        .map(|(cpu, gpu)| (cpu.as_secs_f64() / gpu.as_secs_f64()).ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Bytes as megabytes (10^6, like the repo's other reports).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// splitmix64 — the harness's own seeded generator (shuffles, variants).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
