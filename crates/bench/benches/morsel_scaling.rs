//! Criterion: real wall time of the morsel-driven executor as the worker
//! count grows (the PR's `morsel_scaling` acceptance bench). Simulated
//! device time for the same sweep comes from `repro morsel`;
//! this bench measures what the host actually pays to drive 1→4 workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sirius_bench::Lab;
use sirius_tpch::queries;

fn bench_morsel_scaling(c: &mut Criterion) {
    // Small SF keeps Criterion's many iterations fast; the simulated-time
    // sweep at MORSEL_SF lives in `repro morsel`.
    let lab = Lab::new(0.02);
    let mut group = c.benchmark_group("morsel_scaling");
    group.sample_size(10);
    for (id, sql) in [(1, queries::Q1), (6, queries::Q6)] {
        for workers in [1, 2, 4] {
            let engine = lab.engine(workers, 15_000);
            let plan = lab.plan(sql);
            group.bench_with_input(
                BenchmarkId::new(format!("q{id}"), workers),
                &plan,
                |b, plan| b.iter(|| engine.execute(plan).expect("sirius")),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_morsel_scaling);
criterion_main!(benches);
