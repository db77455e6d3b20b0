//! Criterion: real wall time of full TPC-H queries through each engine
//! (Figure 4's workload, measured as library performance rather than
//! simulated device time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sirius_bench::Lab;
use sirius_core::SiriusEngine;
use sirius_hw::catalog;
use sirius_tpch::queries;

fn bench_tpch(c: &mut Criterion) {
    let lab = Lab::new(0.01);
    let duck = lab.duck();
    let sirius = lab.load(SiriusEngine::new(catalog::gh200_gpu()));
    let mut group = c.benchmark_group("tpch_single_node");
    group.sample_size(10);
    for (id, sql) in [
        (1, queries::Q1),
        (3, queries::Q3),
        (6, queries::Q6),
        (9, queries::Q9),
    ] {
        let plan = lab.plan(sql);
        group.bench_with_input(BenchmarkId::new("duckdb", id), &plan, |b, plan| {
            b.iter(|| duck.execute_plan(plan).expect("duckdb"))
        });
        group.bench_with_input(BenchmarkId::new("sirius", id), &plan, |b, plan| {
            b.iter(|| sirius.execute(plan).expect("sirius"))
        });
        group.bench_with_input(BenchmarkId::new("plan_sql", id), &sql, |b, sql| {
            b.iter(|| duck.plan(sql).expect("plan"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tpch);
criterion_main!(benches);
