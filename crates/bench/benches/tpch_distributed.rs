//! Criterion: wall time of the distributed path (Table 2's workload) —
//! coordinator planning, fragment dispatch, NCCL exchange, node execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sirius_bench::{Lab, NODES};
use sirius_doris::{ClusterConfig, NodeEngineKind};
use sirius_tpch::queries;

fn bench_distributed(c: &mut Criterion) {
    let lab = Lab::new(0.005);
    let clusters = [NodeEngineKind::DorisCpu, NodeEngineKind::SiriusGpu]
        .map(|kind| (kind, lab.cluster(kind, ClusterConfig::for_world(NODES))));
    let mut group = c.benchmark_group("tpch_distributed");
    group.sample_size(10);
    for (id, sql) in queries::distributed_subset() {
        for (kind, cluster) in &clusters {
            let label = match kind {
                NodeEngineKind::DorisCpu => "doris",
                NodeEngineKind::ClickHouseCpu => "clickhouse",
                NodeEngineKind::SiriusGpu => "sirius",
            };
            group.bench_with_input(BenchmarkId::new(label, id), &sql, |b, sql| {
                b.iter(|| cluster.sql(sql).expect("query"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_distributed);
criterion_main!(benches);
