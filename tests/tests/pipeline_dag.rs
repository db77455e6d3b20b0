//! The compiled pipeline DAG is the single source of truth: the static
//! views (`pipeline_count`, `pipeline::decompose`) must agree with what
//! the scheduler actually executes, on every TPC-H plan.

use sirius_core::physical::{compile, fuse, PhysOp};
use sirius_core::pipeline::decompose;
use sirius_core::{EngineConfig, Scheduling, SiriusEngine};
use sirius_duckdb::DuckDb;
use sirius_hw::catalog as hw;
use sirius_tpch::{queries, TpchGenerator};

/// For all 22 queries: `pipeline_count` == `decompose(plan).len()` ==
/// the number of pipelines the scheduler ran (`MorselStats::pipelines_run`
/// delta across the execute call), under both scheduling modes.
#[test]
fn pipeline_count_matches_executed_dag_on_all_queries() {
    let data = TpchGenerator::new(0.005).generate();
    let mut duck = DuckDb::new();
    let concurrent = SiriusEngine::new(hw::gh200_gpu());
    let serialized = SiriusEngine::from_config(EngineConfig {
        scheduling: Scheduling::Serialized,
        ..EngineConfig::new(hw::gh200_gpu())
    });
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
        concurrent.load_table(name.clone(), table);
        serialized.load_table(name.clone(), table);
    }

    for (id, sql) in queries::all() {
        let plan = duck.plan(sql).unwrap_or_else(|e| panic!("Q{id} plan: {e}"));
        let compiled = concurrent.pipeline_count(&plan);
        assert!(compiled > 0, "Q{id}: plan compiled to an empty DAG");

        let infos = decompose(&plan);
        assert_eq!(
            infos.len(),
            compiled,
            "Q{id}: decompose disagrees with pipeline_count"
        );
        // The projection preserves the DAG shape: ids are dense, deps
        // point backwards, and the last pipeline is the result sink.
        for (i, info) in infos.iter().enumerate() {
            assert_eq!(info.id, i, "Q{id}: pipeline ids must be dense");
            assert!(
                info.deps.iter().all(|&d| d < i),
                "Q{id}: pipeline {i} depends forward: {:?}",
                info.deps
            );
        }

        for (engine, mode) in [(&concurrent, "concurrent"), (&serialized, "serialized")] {
            let before = engine.morsel_stats();
            engine
                .execute(&plan)
                .unwrap_or_else(|e| panic!("Q{id} ({mode}): {e}"));
            let ran = engine.morsel_stats().since(&before).pipelines_run;
            assert_eq!(
                ran as usize, compiled,
                "Q{id} ({mode}): scheduler ran {ran} pipelines, compile produced {compiled}"
            );
        }
    }
}

/// Data-path fusion is a post-compile rewrite of `Pipeline::ops` only: on
/// every TPC-H plan, the DAG shape (pipeline count, ids, deps), the
/// logical `operators` counts, and `decompose`'s static view are identical
/// with fusion on and off, and each fused segment flattens back to exactly
/// the unfused op sequence (same plan-node ids, same order).
#[test]
fn fusion_preserves_logical_pipeline_shape() {
    let data = TpchGenerator::new(0.005).generate();
    let mut duck = DuckDb::new();
    let fused_engine = SiriusEngine::new(hw::gh200_gpu());
    let unfused_engine = SiriusEngine::from_config(EngineConfig {
        fusion: false,
        ..EngineConfig::new(hw::gh200_gpu())
    });
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
        fused_engine.load_table(name.clone(), table);
        unfused_engine.load_table(name.clone(), table);
    }

    let mut fused_segments = 0usize;
    for (id, sql) in queries::all() {
        let plan = duck.plan(sql).unwrap_or_else(|e| panic!("Q{id} plan: {e}"));
        let unfused = compile(&plan).unwrap_or_else(|e| panic!("Q{id} compile: {e}"));
        let mut fused = compile(&plan).unwrap();
        fuse(&mut fused);

        assert_eq!(fused.pipelines.len(), unfused.pipelines.len(), "Q{id}");
        let infos = decompose(&plan);
        assert_eq!(infos.len(), fused.pipelines.len(), "Q{id}");
        for (f, u) in fused.pipelines.iter().zip(&unfused.pipelines) {
            assert_eq!(f.id, u.id);
            assert_eq!(f.deps, u.deps, "Q{id} pipeline {}", u.id);
            assert_eq!(
                f.operators, u.operators,
                "Q{id} pipeline {}: fusion changed the logical operator count",
                u.id
            );
            assert_eq!(
                infos[u.id].operators, u.operators,
                "Q{id} pipeline {}: decompose disagrees",
                u.id
            );
            // Flattening the fused ops' runs reproduces the unfused chain.
            let ids = |ops: &[PhysOp]| -> Vec<u32> {
                let runs = ops.iter().flat_map(|op| op.run());
                runs.map(|o| o.node().id).collect()
            };
            let (flat, logical) = (ids(&f.ops), ids(&u.ops));
            assert_eq!(flat, logical, "Q{id} pipeline {}", u.id);
            fused_segments += f
                .ops
                .iter()
                .filter(|op| matches!(op, PhysOp::Fused(_)))
                .count();
        }

        // Both engines execute the same number of pipelines.
        for engine in [&fused_engine, &unfused_engine] {
            let before = engine.morsel_stats();
            engine
                .execute(&plan)
                .unwrap_or_else(|e| panic!("Q{id}: {e}"));
            let ran = engine.morsel_stats().since(&before).pipelines_run;
            assert_eq!(ran as usize, infos.len(), "Q{id}");
        }
    }
    assert!(
        fused_segments > 0,
        "fusion never fired across all 22 queries"
    );
}
