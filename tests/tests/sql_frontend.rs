//! SQL-frontend behavior: decorrelation shapes, policy differences,
//! pruning effects, and error reporting — checked at the plan level — and
//! the expression forms that bind after aggregation and around scalar
//! subqueries, checked by running them on three engines.

use sirius_core::SiriusEngine;
use sirius_doris::{DorisCluster, NodeEngineKind};
use sirius_exec_cpu::{CpuEngine, EngineProfile};
use sirius_hw::catalog as hw;
use sirius_integration::{assert_tables_equivalent, binder_catalog, exec_catalog};
use sirius_plan::{JoinKind, Rel};
use sirius_sql::{plan_sql, JoinOrderPolicy, SqlError};
use sirius_tpch::{queries, TpchGenerator};

fn catalog() -> sirius_sql::BinderCatalog {
    binder_catalog(&TpchGenerator::new(0.001).generate())
}

fn count_kind(rel: &Rel, kind: JoinKind) -> usize {
    let here = usize::from(matches!(rel, Rel::Join { kind: k, .. } if *k == kind));
    here + rel
        .children()
        .iter()
        .map(|c| count_kind(c, kind))
        .sum::<usize>()
}

#[test]
fn q4_decorrelates_to_semi_join() {
    let plan = plan_sql(queries::Q4, &catalog(), JoinOrderPolicy::Optimized).unwrap();
    assert_eq!(count_kind(&plan, JoinKind::Semi), 1, "{}", plan.explain());
}

#[test]
fn q21_has_semi_and_anti_with_residuals() {
    let plan = plan_sql(queries::Q21, &catalog(), JoinOrderPolicy::Optimized).unwrap();
    assert_eq!(count_kind(&plan, JoinKind::Semi), 1);
    assert_eq!(count_kind(&plan, JoinKind::Anti), 1);
    fn residual_semi(rel: &Rel) -> bool {
        matches!(
            rel,
            Rel::Join {
                kind: JoinKind::Semi | JoinKind::Anti,
                residual: Some(_),
                ..
            }
        ) || rel.children().iter().any(|c| residual_semi(c))
    }
    assert!(residual_semi(&plan), "Q21 needs the inequality residual");
}

#[test]
fn q2_and_q17_use_single_joins() {
    for (id, sql) in [(2, queries::Q2), (17, queries::Q17)] {
        let plan = plan_sql(sql, &catalog(), JoinOrderPolicy::Optimized).unwrap();
        assert!(
            count_kind(&plan, JoinKind::Single) >= 1,
            "Q{id} should contain a Single join:\n{}",
            plan.explain()
        );
    }
}

#[test]
fn q16_not_in_becomes_anti_join() {
    let plan = plan_sql(queries::Q16, &catalog(), JoinOrderPolicy::Optimized).unwrap();
    assert_eq!(count_kind(&plan, JoinKind::Anti), 1);
}

#[test]
fn q13_left_join_survives() {
    let plan = plan_sql(queries::Q13, &catalog(), JoinOrderPolicy::Optimized).unwrap();
    assert_eq!(count_kind(&plan, JoinKind::Left), 1);
}

#[test]
fn policies_produce_different_join_orders() {
    let opt = plan_sql(queries::Q5, &catalog(), JoinOrderPolicy::Optimized).unwrap();
    let from = plan_sql(queries::Q5, &catalog(), JoinOrderPolicy::FromOrder).unwrap();
    assert_ne!(opt, from, "Q5 orders should differ between policies");
    // Both remain valid and carry the same output schema.
    assert_eq!(opt.schema().unwrap(), from.schema().unwrap());
}

#[test]
fn projection_pruning_reaches_every_scan() {
    // Every Read in every TPC-H plan must carry a projection narrower than
    // or equal to its base schema — wide fact tables must never be read
    // whole unless actually needed.
    for (id, sql) in queries::all() {
        let plan = plan_sql(sql, &catalog(), JoinOrderPolicy::Optimized).unwrap();
        fn check(rel: &Rel, id: u32) {
            if let Rel::Read {
                table,
                schema,
                projection,
            } = rel
            {
                let p = projection
                    .as_ref()
                    .unwrap_or_else(|| panic!("Q{id}: scan of {table} unpruned"));
                assert!(p.len() <= schema.len());
                if table == "lineitem" {
                    assert!(
                        p.len() < schema.len(),
                        "Q{id}: lineitem should never need all 16 columns"
                    );
                }
            }
            for c in rel.children() {
                check(c, id);
            }
        }
        check(&plan, id);
    }
}

#[test]
fn q19_or_factoring_produces_keyed_join() {
    let plan = plan_sql(queries::Q19, &catalog(), JoinOrderPolicy::Optimized).unwrap();
    fn no_cross(rel: &Rel) -> bool {
        let ok = !matches!(
            rel,
            Rel::Join {
                kind: JoinKind::Cross,
                ..
            }
        );
        ok && rel.children().iter().all(|c| no_cross(c))
    }
    assert!(
        no_cross(&plan),
        "Q19 must not plan a cross join:\n{}",
        plan.explain()
    );
}

#[test]
fn error_paths_are_descriptive() {
    let cat = catalog();
    match plan_sql(
        "select nope from lineitem",
        &cat,
        JoinOrderPolicy::Optimized,
    ) {
        Err(SqlError::Bind(m)) => assert!(m.contains("nope"), "{m}"),
        other => panic!("expected bind error, got {other:?}"),
    }
    match plan_sql("select l_orderkey from", &cat, JoinOrderPolicy::Optimized) {
        Err(SqlError::Parse(_)) => {}
        other => panic!("expected parse error, got {other:?}"),
    }
    match plan_sql(
        "select l_orderkey from missing_table",
        &cat,
        JoinOrderPolicy::Optimized,
    ) {
        Err(SqlError::Bind(m)) => assert!(m.contains("missing_table")),
        other => panic!("expected bind error, got {other:?}"),
    }
    // Ambiguous unqualified column across a self join.
    match plan_sql(
        "select l_orderkey from lineitem l1, lineitem l2 where l1.l_orderkey = l2.l_orderkey",
        &cat,
        JoinOrderPolicy::Optimized,
    ) {
        Err(SqlError::Bind(_)) => {}
        other => panic!("ambiguity should fail to bind, got {other:?}"),
    }
    // Subquery shapes the decorrelator does not cover are typed rejections
    // with a fixed message, never an internal error.
    for (sql, message) in [
        (
            "select o_orderkey from orders where exists \
             (select * from lineitem where l_orderkey = o_orderkey or l_quantity > 10)",
            "EXISTS subquery without correlated equality is not supported",
        ),
        (
            "select l_orderkey from lineitem, part where p_partkey = l_partkey and l_quantity < \
             (select avg(l_quantity) from lineitem where l_partkey < p_partkey)",
            "only equality correlation is supported in scalar subqueries",
        ),
        (
            "select o_orderkey from orders where exists \
             (select l_orderkey from lineitem where l_orderkey = o_orderkey group by l_orderkey)",
            "EXISTS subquery with grouping is not supported",
        ),
        (
            "select o_orderkey from orders where o_orderkey = 1 or exists \
             (select * from lineitem where l_orderkey = o_orderkey)",
            "EXISTS / IN subquery is only supported as a top-level AND conjunct of WHERE",
        ),
        (
            "select o_orderkey, (select max(l_tax) from lineitem) from orders",
            "scalar subquery is only supported in a WHERE or HAVING predicate",
        ),
    ] {
        assert_eq!(
            plan_sql(sql, &cat, JoinOrderPolicy::Optimized),
            Err(SqlError::Bind(message.into())),
            "{sql}"
        );
    }
}

/// Every expression form binds after aggregation and around a scalar
/// subquery, not only the handful TPC-H uses there — and the plans run to
/// the same rows on the CPU interpreter, the GPU engine and a cluster.
#[test]
fn post_aggregation_and_scalar_subquery_forms_agree_across_engines() {
    let data = TpchGenerator::new(0.01).generate();
    let bcat = binder_catalog(&data);
    let cat = exec_catalog(&data);
    let cpu = CpuEngine::new(hw::m7i_16xlarge(), EngineProfile::duckdb());
    let gpu = SiriusEngine::new(hw::gh200_gpu());
    let mut cluster = DorisCluster::new(3, NodeEngineKind::SiriusGpu);
    for (name, table) in data.tables() {
        gpu.load_table(name.clone(), table);
        cluster.create_table(name.clone(), table.clone()).unwrap();
    }

    // (name, SQL, the same query without the predicate when the predicate
    // must drop some rows and keep others).
    let cases = [
        (
            "having_between",
            "select l_returnflag, sum(l_quantity) as q from lineitem group by l_returnflag \
             having sum(l_quantity) between 300000 and 500000",
            Some("select l_returnflag from lineitem group by l_returnflag"),
        ),
        (
            "having_not_between",
            "select l_returnflag, sum(l_quantity) as q from lineitem group by l_returnflag \
             having not (sum(l_quantity) between 300000 and 500000)",
            Some("select l_returnflag from lineitem group by l_returnflag"),
        ),
        (
            "having_is_not_null",
            "select l_returnflag from lineitem group by l_returnflag \
             having sum(l_quantity) is not null",
            None,
        ),
        (
            "having_in_list",
            "select l_returnflag, count(*) as n from lineitem group by l_returnflag \
             having l_returnflag in ('A', 'R')",
            Some("select l_returnflag from lineitem group by l_returnflag"),
        ),
        (
            "having_like",
            "select l_returnflag, count(*) as n from lineitem group by l_returnflag \
             having l_returnflag like 'A%'",
            Some("select l_returnflag from lineitem group by l_returnflag"),
        ),
        (
            "select_substring_of_key",
            "select substring(l_shipmode from 1 for 2) as prefix, count(*) as n from lineitem \
             group by l_shipmode",
            None,
        ),
        (
            "select_extract_of_key",
            "select extract(year from o_orderdate) as y, count(*) as n from orders \
             group by o_orderdate",
            None,
        ),
        (
            "having_between_scalar_subquery",
            "select l_linenumber, sum(l_quantity) as q from lineitem group by l_linenumber \
             having sum(l_quantity) between 1 and (select 4000 * max(l_quantity) from lineitem)",
            Some("select l_linenumber from lineitem group by l_linenumber"),
        ),
        (
            "having_between_correlated_scalar_subquery",
            "select l_partkey, sum(l_quantity) as q from lineitem group by l_partkey \
             having sum(l_quantity) between 1 and \
             (select 20 * max(p_size) from part where p_partkey = l_partkey)",
            Some("select l_partkey from lineitem group by l_partkey"),
        ),
        (
            "scalar_subquery_under_case",
            "select o_orderkey from orders where \
             case when o_totalprice > (select avg(o_totalprice) from orders) then 1 else 0 end = 1",
            Some("select o_orderkey from orders"),
        ),
        (
            "correlated_scalar_subquery_under_case",
            "select l_orderkey, l_linenumber from lineitem, part where p_partkey = l_partkey and \
             case when l_quantity < (select 0.5 * avg(l_quantity) from lineitem \
             where l_partkey = p_partkey) then 1 else 0 end = 1",
            Some("select l_orderkey from lineitem"),
        ),
        // Nothing above these projections reads a column: the pruner must
        // drop the projection, not leave an empty one.
        (
            "count_over_projected_subquery",
            "select count(*) as n from (select n_name from nation) t",
            None,
        ),
        (
            "count_over_scalar_subquery_filter",
            "select count(*) as n from supplier \
             where s_acctbal > (select avg(s_acctbal) from supplier)",
            None,
        ),
    ];
    for (name, sql, unfiltered) in cases {
        let plan = plan_sql(sql, &bcat, JoinOrderPolicy::Optimized)
            .unwrap_or_else(|e| panic!("{name} must bind: {e}"));
        let reference = cpu
            .execute(&plan, &cat)
            .unwrap_or_else(|e| panic!("{name} cpu: {e}"));
        assert!(reference.num_rows() > 0, "{name}: empty result");
        if let Some(unfiltered) = unfiltered {
            let all = plan_sql(unfiltered, &bcat, JoinOrderPolicy::Optimized).unwrap();
            let all = cpu.execute(&all, &cat).unwrap();
            assert!(
                reference.num_rows() < all.num_rows(),
                "{name}: the predicate filtered nothing"
            );
        }
        let on_gpu = gpu
            .execute(&plan)
            .unwrap_or_else(|e| panic!("{name} gpu: {e}"));
        assert_tables_equivalent(&format!("{name} cpu-vs-gpu"), &reference, &on_gpu);
        let distributed = cluster
            .execute_plan(&plan)
            .unwrap_or_else(|e| panic!("{name} distributed: {e}"));
        assert_tables_equivalent(
            &format!("{name} cpu-vs-distributed"),
            &reference,
            &distributed.table,
        );
        assert_eq!(cluster.temp_tables_live(), 0, "{name}: temp table leak");
    }
}

#[test]
fn aggregates_must_be_grouped() {
    let cat = catalog();
    let err = plan_sql(
        "select o_orderdate, sum(o_totalprice) from orders group by o_orderpriority",
        &cat,
        JoinOrderPolicy::Optimized,
    );
    assert!(err.is_err(), "naked column outside GROUP BY must fail");
}

#[test]
fn explain_covers_all_tpch() {
    let cat = catalog();
    for (id, sql) in queries::all() {
        let plan = plan_sql(sql, &cat, JoinOrderPolicy::Optimized).unwrap();
        let text = plan.explain();
        assert!(text.contains("Read"), "Q{id}");
        assert!(plan.node_count() >= 3, "Q{id}");
    }
}
