//! `dist_4node` — the only workload where `sirius-nccl`, `sirius-doris`
//! and the engine's exchange layer work: a 4-node Sirius-accelerated Doris
//! cluster, op = `cluster.sql(text)` over Table 2's Q1/Q3/Q6 plus the
//! string-keyed grouped join the distributed and encoding suites run (so
//! dictionary columns cross the wire). Q3 is exchange-bound, Q1/Q6
//! coordinator-bound. Each op runs 4 node threads × 2 workers on whatever
//! cores the host has, so its wall numbers are the loosest of the four.

use super::{
    mb, oracle_ops, sim_categories, verify, Dataset, Op, OpClock, PassResult, SetupTimes, Workload,
};
use crate::metrics::Values;
use crate::spans::Tracer;
use sirius_doris::{distribute, DorisCluster, NodeEngineKind, PartitionScheme};
use sirius_hw::{catalog as hw, TimeBreakdown};
use sirius_tpch::{queries, TpchData};
use std::time::{Duration, Instant};

const SF: f64 = 0.015;
const WORLD: usize = 4;
/// The four shapes repeat this many times per pass.
const ROUNDS: usize = 8;

const GROUPED_STRING_JOIN: &str = "
    select n_name, count(*) as suppliers
    from supplier, nation
    where s_nationkey = n_nationkey
    group by n_name
    order by suppliers desc, n_name";

pub struct Dist4Node {
    ds: Dataset,
    cluster: DorisCluster,
    shapes: Vec<Op>,
    /// Bytes on the wire during the first pass after set-up, which ships
    /// every dictionary once per link; later passes ship codes only.
    first_pass_wire: Option<u64>,
    times: SetupTimes,
}

fn wire_bytes(cluster: &DorisCluster) -> u64 {
    cluster
        .link_traffic()
        .iter()
        .map(|(_, bytes, _)| bytes)
        .sum()
}

impl Dist4Node {
    pub fn new(seed: u64) -> Self {
        let ds = Dataset::generate(SF, seed);
        let mut texts: Vec<(String, String)> = queries::distributed_subset()
            .into_iter()
            .map(|(id, sql)| (format!("Q{id}"), sql.to_string()))
            .collect();
        texts.push(("grouped_string_join".into(), GROUPED_STRING_JOIN.into()));
        // The expected result is the single-node one.
        let (shapes, oracle_s) = oracle_ops(&ds, &texts);

        let t0 = Instant::now();
        let mut cluster = DorisCluster::new(WORLD, NodeEngineKind::SiriusGpu);
        for (name, table) in ds.data.tables() {
            cluster
                .create_table(name.clone(), table.clone())
                .unwrap_or_else(|e| panic!("cannot load {name} into the cluster: {e}"));
        }
        cluster.reset_ledgers();
        let load_s = t0.elapsed().as_secs_f64();

        Dist4Node {
            times: SetupTimes {
                gen_s: ds.gen_s,
                oracle_s,
                load_s,
            },
            ds,
            cluster,
            shapes,
            first_pass_wire: None,
        }
    }
}

impl Workload for Dist4Node {
    fn ops_per_pass(&self) -> u64 {
        (self.shapes.len() * ROUNDS) as u64
    }

    fn pass(&mut self, mut tracer: Option<&mut Tracer>) -> (PassResult, Values) {
        let mut clock = OpClock::default();
        let mut out = PassResult::default();
        let mut coordinator = Duration::ZERO;
        let mut retries = 0;
        // Device time summed over the four nodes, by category.
        let mut nodes = TimeBreakdown::default();
        let wire0 = wire_bytes(&self.cluster);

        for round in 0..ROUNDS {
            for (i, op) in self.shapes.iter().enumerate() {
                let id = (round * self.shapes.len() + i) as u32 + 1;
                let outcome = match tracer.as_deref_mut() {
                    None => clock.time(|| self.cluster.sql(&op.sql)),
                    Some(t) => t.leaf("doris.sql", id, || clock.time(|| self.cluster.sql(&op.sql))),
                };
                out.failed += verify(&op.label, &op.expect, outcome.as_ref().map(|o| &o.table));
                if let Ok(o) = outcome {
                    out.op_sim.push(o.total());
                    out.sim += o.total();
                    coordinator += o.coordinator;
                    retries += o.recovery.retries;
                    for b in &o.per_node {
                        nodes = nodes.merge(b);
                    }
                }
            }
        }
        clock.finish(&mut out);
        let wire = wire_bytes(&self.cluster) - wire0;
        let first_pass_wire = *self.first_pass_wire.get_or_insert(wire);

        let mut values = Values::default();
        if tracer.is_some() {
            nodes.add(sirius_hw::CostCategory::Other, coordinator);
            sim_categories(&mut values, &nodes);
            values.set("doris.coordinator_sim_ms", coordinator.as_secs_f64() * 1e3);
            values.set("doris.retries", retries as f64);
            values.set("nccl.wire_mb", mb(wire));
            values.set("nccl.dict_mb", mb(first_pass_wire.saturating_sub(wire)));
        }
        (out, values)
    }

    /// The distributed planner alone, and the same ops on one node engine
    /// of the same kind — the denominator of the cluster's host overhead.
    fn probes(&mut self) -> Values {
        let mut values = Values::default();
        let scheme = PartitionScheme::tpch_default();
        let t0 = Instant::now();
        for op in &self.shapes {
            std::hint::black_box(distribute(&op.plan, &scheme).is_ok());
        }
        values.set(
            "doris.distribute_us",
            t0.elapsed().as_secs_f64() * 1e6 * ROUNDS as f64,
        );

        let single = self.ds.engine(hw::a100_40gb(), hw::pcie4_a100_attach());
        let run_alone = || {
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                for op in &self.shapes {
                    std::hint::black_box(single.execute(&self.ds.plan(&op.label, &op.sql)).is_ok());
                }
            }
            t0.elapsed()
        };
        run_alone();
        let alone = (0..3).map(|_| run_alone()).min().expect("three runs");
        let clustered = (0..3)
            .map(|_| self.pass(None).0.wall)
            .min()
            .expect("three passes");
        values.set(
            "doris.overhead_ratio",
            clustered.as_secs_f64() / alone.as_secs_f64(),
        );
        values
    }

    fn setup_times(&self) -> SetupTimes {
        self.times
    }

    fn data(&self) -> &TpchData {
        &self.ds.data
    }
}
