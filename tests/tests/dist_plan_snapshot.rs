//! The distributed planner's plans, pinned digit for digit. For the 22
//! TPC-H queries under both values of `broadcast_join_build_sides`, the
//! two-lane fingerprint and the `explain()` text of
//! `distribute_with(plan_sql(q), PartitionScheme::tpch_default(), opts)`
//! must equal the committed snapshot exactly; `explain()` prints a shuffle's
//! key count only, so every shuffle's key expressions follow the tree, by
//! pre-order id. A planner refactor that leaves this file untouched cannot
//! move a fragment, an exchange or a byte on the wire.
//!
//! After an intended planner change, regenerate with
//! `cargo test -p sirius-integration --test dist_plan_snapshot -- --ignored`.

use sirius_doris::planner::{distribute_with, DistributeOptions};
use sirius_doris::PartitionScheme;
use sirius_integration::{assert_matches_snapshot, binder_catalog, snapshot_path};
use sirius_plan::fingerprint::fingerprint;
use sirius_plan::visit::visit;
use sirius_plan::{ExchangeKind, Rel};
use sirius_sql::{plan_sql, JoinOrderPolicy};
use sirius_tpch::{queries, TpchGenerator};
use std::fmt::Write as _;

const SNAPSHOT: &str = "dist_plans_tpch.txt";
const SF: f64 = 0.01;

/// One header line per (query, option) carrying the fingerprint, then the
/// distributed plan's `explain()` tree, then one line per shuffle.
fn render() -> String {
    let cat = binder_catalog(&TpchGenerator::new(SF).generate());
    let scheme = PartitionScheme::tpch_default();
    let mut out = String::new();
    for (id, sql) in queries::all() {
        let plan = plan_sql(sql, &cat, JoinOrderPolicy::Optimized)
            .unwrap_or_else(|e| panic!("Q{id}: {e}"));
        for broadcast_join_build_sides in [false, true] {
            let opts = DistributeOptions {
                broadcast_join_build_sides,
            };
            let dist = distribute_with(&plan, &scheme, opts)
                .unwrap_or_else(|e| panic!("Q{id} distribute: {e}"));
            let fp = fingerprint(&dist);
            writeln!(
                out,
                "Q{id} broadcast_join_build_sides={broadcast_join_build_sides} \
                 shape={:016x} constants={:016x}",
                fp.shape, fp.constants
            )
            .unwrap();
            out.push_str(&dist.explain());
            visit(&dist, &mut |node, rel| {
                if let Rel::Exchange {
                    kind: ExchangeKind::Shuffle { keys },
                    ..
                } = rel
                {
                    writeln!(out, "shuffle #{} by {keys:?}", node.id).unwrap();
                }
            });
        }
    }
    out
}

#[test]
fn distributed_plans_match_committed_snapshot() {
    assert_matches_snapshot(SNAPSHOT, &render());
}

#[test]
#[ignore = "rewrites the committed snapshot"]
fn regenerate_snapshot() {
    std::fs::write(snapshot_path(SNAPSHOT), render()).unwrap();
}
