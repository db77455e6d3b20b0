//! The simulated clock moves the way its resources say. For the 22 TPC-H
//! queries at SF 0.01 on a GH200 engine, giving the engine more of one
//! resource never makes a query slower in simulated time — with no
//! tolerance, since the clock is deterministic. One leg per resource:
//! - HBM bandwidth × 2;
//! - CPU workers (= device streams) 1 → 2 → 4 → 8;
//! - the host link with every table resident in pinned host memory,
//!   PCIe3 → PCIe4 → PCIe6 → NVLink-C2C;
//! - half the data (SF 0.005, planned on its own statistics).
//!
//! Figure 4 argues from the first, ablation A3 from the second and A1 from
//! the third. Device memory is not a leg yet: less memory makes some
//! queries faster today, and that leg lands with the fixes for it.

use sirius_core::{EngineConfig, SiriusEngine};
use sirius_duckdb::DuckDb;
use sirius_hw::catalog;
use sirius_plan::Rel;
use sirius_tpch::{queries, TpchData, TpchGenerator};
use std::time::Duration;

const SF: f64 = 0.01;

/// The data and each query's plan over it.
fn planned(sf: f64) -> (TpchData, Vec<(u32, Rel)>) {
    let data = TpchGenerator::new(sf).generate();
    let mut duck = DuckDb::new();
    for (name, table) in data.tables() {
        duck.create_table(name.clone(), table.clone());
    }
    let plans = queries::all()
        .into_iter()
        .map(|(id, sql)| (id, duck.plan(sql).unwrap_or_else(|e| panic!("Q{id}: {e}"))))
        .collect();
    (data, plans)
}

/// Each query's simulated elapsed time on an engine built from `config`,
/// loaded with `data`.
fn elapsed(data: &TpchData, plans: &[(u32, Rel)], config: EngineConfig) -> Vec<Duration> {
    let e = SiriusEngine::from_config(config);
    for (name, table) in data.tables() {
        e.load_table(name.clone(), table);
    }
    let run = |(id, plan): &(u32, Rel)| {
        e.device().reset();
        e.execute(plan).unwrap_or_else(|err| panic!("Q{id}: {err}"));
        e.device().elapsed()
    };
    plans.iter().map(run).collect()
}

/// Each step of `leg` asks less of the engine than the step before (more
/// of a resource, or less data): no query may get slower from one step to
/// the next, and some query must get faster over the whole leg, or the leg
/// varies nothing.
fn assert_never_slower(leg: &str, plans: &[(u32, Rel)], steps: &[(String, Vec<Duration>)]) {
    for pair in steps.windows(2) {
        let ((from, before), (to, after)) = (&pair[0], &pair[1]);
        for ((id, _), (b, a)) in plans.iter().zip(before.iter().zip(after)) {
            assert!(
                a <= b,
                "{leg}: Q{id} got slower from {from} to {to}: {b:?} -> {a:?}"
            );
        }
    }
    let (first, last) = (&steps[0].1, &steps[steps.len() - 1].1);
    assert!(
        first.iter().zip(last).any(|(b, a)| a < b),
        "{leg}: no query got faster"
    );
}

#[test]
fn more_of_one_resource_never_slows_a_query() {
    let (data, plans) = planned(SF);
    let gh200 = || EngineConfig::new(catalog::gh200_gpu());
    let on = |config| elapsed(&data, &plans, config);
    let base = on(gh200());

    let mut doubled = gh200();
    doubled.spec.memory_bandwidth *= 2.0;
    let bandwidth = [("1x".to_string(), base.clone()), ("2x".into(), on(doubled))];
    assert_never_slower("HBM bandwidth", &plans, &bandwidth);

    let workers = [1, 2, 4, 8].map(|workers| {
        let config = EngineConfig { workers, ..gh200() };
        (format!("{workers} workers"), on(config))
    });
    assert_never_slower("workers", &plans, &workers);

    let links = [
        catalog::pcie3_x16(),
        catalog::pcie4_x16(),
        catalog::pcie6_x16(),
        catalog::nvlink_c2c(),
    ];
    let links = links.map(|host_link| {
        // A vanishingly small caching region puts every table on the
        // pinned host tier, so each query crosses the link for its inputs.
        let config = EngineConfig {
            host_link: host_link.clone(),
            caching_fraction: 1e-7,
            ..gh200()
        };
        (host_link.name, on(config))
    });
    assert_never_slower("pinned-resident host link", &plans, &links);

    let (half, half_plans) = planned(SF / 2.0);
    assert_eq!(half_plans.len(), plans.len());
    let scale = [
        (format!("SF {SF}"), base),
        (
            format!("SF {}", SF / 2.0),
            elapsed(&half, &half_plans, gh200()),
        ),
    ];
    assert_never_slower("scale factor", &plans, &scale);
}
