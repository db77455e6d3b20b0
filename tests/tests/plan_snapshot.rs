//! The SQL frontend's plans, pinned digit for digit. For the 22 TPC-H
//! queries under both join-order policies, the two-lane plan fingerprint
//! (operator structure, ordinals, schemas and literal types in `shape`;
//! literal values in `constants`) and the `explain()` text of `plan_sql`'s
//! output must equal the committed snapshot exactly. Every engine in the
//! repo runs these plans, so a binder refactor that leaves this file
//! untouched cannot move any result, ledger or benchmark number.
//!
//! After an intended planner change, regenerate with
//! `cargo test -p sirius-integration --test plan_snapshot -- --ignored`.

use sirius_integration::{assert_matches_snapshot, binder_catalog, snapshot_path};
use sirius_plan::fingerprint::fingerprint;
use sirius_plan::Rel;
use sirius_sql::optimizer::optimize;
use sirius_sql::{plan_sql, JoinOrderPolicy};
use sirius_tpch::{queries, TpchGenerator};
use std::fmt::Write as _;

const SNAPSHOT: &str = "plans_tpch.txt";
const SF: f64 = 0.01;

/// The pinned plans: each TPC-H query under each join-order policy.
fn plans() -> Vec<(u32, JoinOrderPolicy, Rel)> {
    let cat = binder_catalog(&TpchGenerator::new(SF).generate());
    let mut out = Vec::new();
    for (id, sql) in queries::all() {
        for policy in [JoinOrderPolicy::Optimized, JoinOrderPolicy::FromOrder] {
            let plan = plan_sql(sql, &cat, policy).unwrap_or_else(|e| panic!("Q{id}: {e}"));
            out.push((id, policy, plan));
        }
    }
    out
}

/// One header line per (query, policy) carrying the fingerprint, then the
/// plan's `explain()` tree.
fn render() -> String {
    let mut out = String::new();
    for (id, policy, plan) in plans() {
        let fp = fingerprint(&plan);
        writeln!(
            out,
            "Q{id} {policy:?} shape={:016x} constants={:016x}",
            fp.shape, fp.constants
        )
        .unwrap();
        out.push_str(&plan.explain());
        if !out.ends_with('\n') {
            out.push('\n');
        }
    }
    out
}

#[test]
fn plans_match_committed_snapshot() {
    assert_matches_snapshot(SNAPSHOT, &render());
}

/// The optimizer's pruner is the only one: the engine compiles these plans
/// with the scans they carry. Pruning them a second time changes nothing —
/// every scan already reads exactly the columns its plan uses.
#[test]
fn the_pruner_is_a_fixpoint_on_every_pinned_plan() {
    for (id, policy, plan) in plans() {
        let again = optimize(plan.clone()).unwrap_or_else(|e| panic!("Q{id}: {e}"));
        assert_eq!(again, plan, "Q{id} {policy:?}: a second pruning pass moved");
    }
}

#[test]
#[ignore = "rewrites the committed snapshot"]
fn regenerate_snapshot() {
    std::fs::write(snapshot_path(SNAPSHOT), render()).unwrap();
}
