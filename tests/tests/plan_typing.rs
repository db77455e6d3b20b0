//! A plan is typed once, bottom-up — two properties of that, held from the
//! outside.
//!
//! **Linear.** `validate`, `optimizer::optimize` and
//! `SiriusEngine::compile_query` type each operator from the schemas of its
//! inputs (`Rel::output_schema`) or ask for a `Rel::width()`; none calls the
//! recursive `Rel::schema()` per node. The binder types each query block
//! from the schemas it already holds, and `FeedbackStore::record` derives
//! each node's base-table set from its inputs' sets. Doubling the depth of a
//! width-bounded operator chain, or the nesting of derived tables, therefore
//! doubles their allocations — when every node re-derived its subtree it
//! quadrupled them. Allocations are counted per thread by this binary's own
//! global allocator, so the tests beside it do not show.
//!
//! **Total.** The typing walk looks at every sub-expression. A column out of
//! range under a `Cast`, `Like`, `InList` or `Substring`, in a `CASE`
//! condition or a later `CASE` branch used to type-check (those arms never
//! looked at their operand) and panic in an evaluator — reachable from
//! `SiriusContext::execute_json`, i.e. from host input. Each is a typed error
//! at every plan entry now.

use sirius_columnar::{Array, DataType, Field, Scalar, Schema, Table};
use sirius_core::{EngineConfig, FeedbackStore, OpStats, SiriusContext, SiriusEngine, SiriusError};
use sirius_duckdb::{DuckDb, DuckDbError};
use sirius_exec_cpu::{Catalog, CpuEngine, EngineProfile, ExecError};
use sirius_hw::catalog as hw;
use sirius_plan::builder::PlanBuilder;
use sirius_plan::expr::{self, Expr};
use sirius_plan::validate::validate;
use sirius_plan::{json, JoinKind, PlanError, Rel};
use sirius_sql::optimizer::optimize;
use sirius_sql::{plan_sql, BinderCatalog, JoinOrderPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::time::Duration;

struct CountingPerThread;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator never allocates and never finds it torn down.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter never touches the allocated memory.
unsafe impl GlobalAlloc for CountingPerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingPerThread = CountingPerThread;

/// Allocator calls this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

/// Twice the depth `n` costs at most 2.3 times the allocations: linear
/// growth with slack, where re-deriving every subtree costs about 4 times.
fn assert_linear(name: &str, n: usize, at_n: u64, at_2n: u64) {
    assert!(at_n > 0, "{name}: the allocator counts");
    assert!(
        at_2n as f64 <= 2.3 * at_n as f64,
        "{name}: {at_n} allocations at depth {n}, {at_2n} at depth {}",
        2 * n
    );
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Int64),
        Field::new("c", DataType::Float64),
        Field::new("d", DataType::Utf8),
    ])
}

fn scan() -> PlanBuilder {
    PlanBuilder::scan("t", schema())
}

/// `filter → project → semi-join`, `n` times over one four-column scan: `3n`
/// operators deep and four columns wide at every level.
fn chain(n: usize) -> Rel {
    let mut plan = scan();
    for i in 0..n as i64 {
        plan = plan
            .filter(expr::gt(expr::col(0), expr::lit_i64(i)))
            .project(vec![
                (expr::add(expr::col(0), expr::col(1)), "a".into()),
                (expr::col(1), "b".into()),
                (expr::col(2), "c".into()),
                (expr::col(3), "d".into()),
            ])
            .join(
                scan(),
                JoinKind::Semi,
                vec![expr::col(1)],
                vec![expr::col(0)],
                None,
            );
    }
    plan.build()
}

#[test]
fn typing_allocates_linearly_in_plan_depth() {
    let engine = SiriusEngine::from_config(EngineConfig::new(hw::gh200_gpu()));
    let (shallow, deep) = (chain(32), chain(64));
    let measure = |plan: &Rel| {
        let owned = plan.clone();
        [
            ("validate", allocations(|| validate(plan).unwrap())),
            ("optimize", allocations(|| optimize(owned).unwrap())),
            (
                "compile_query",
                allocations(|| engine.compile_query(plan).unwrap()),
            ),
        ]
    };
    for ((name, at_32), (_, at_64)) in measure(&shallow).into_iter().zip(measure(&deep)) {
        assert_linear(name, 32, at_32, at_64);
    }
}

#[test]
fn nested_derived_tables_bind_linearly_in_depth() {
    let mut catalog = BinderCatalog::new();
    let x = Schema::new(vec![Field::new("x", DataType::Int64)]);
    catalog.add_table("t", x, 100);
    // `select x from (… (select x from t) d1 …) dn`
    let nested = |n: usize| {
        (1..=n).fold("select x from t".to_string(), |inner, i| {
            format!("select x from ({inner}) d{i}")
        })
    };
    let plan = |n: usize| {
        let sql = nested(n);
        allocations(|| plan_sql(&sql, &catalog, JoinOrderPolicy::Optimized).unwrap())
    };
    assert_linear("plan_sql", 16, plan(16), plan(32));
}

#[test]
fn feedback_records_linearly_in_plan_depth() {
    let store = FeedbackStore::new();
    let record = |n: usize| {
        let plan = chain(n);
        let ran = OpStats {
            rows_out: 1,
            invocations: 1,
            ..OpStats::default()
        };
        let stats: HashMap<u32, OpStats> = (0..plan.node_count() as u32)
            .map(|id| (id, ran.clone()))
            .collect();
        allocations(|| store.record(1, &plan, &stats))
    };
    assert_linear("FeedbackStore::record", 16, record(16), record(32));
}

fn boxed(e: Expr) -> Box<Expr> {
    Box::new(e)
}

/// One expression per arm whose operand the old typing walk skipped, each
/// reading column 99 of a four-column input, plus the arms' new type rules.
fn holes() -> Vec<(&'static str, Expr, PlanError)> {
    let missing = || boxed(expr::col(99));
    let out_of_range = PlanError::ColumnOutOfRange {
        index: 99,
        width: 4,
    };
    let type_error = |what: &str| PlanError::TypeError(what.into());
    let like = |input| Expr::Like {
        input,
        pattern: "%x%".into(),
        negated: false,
    };
    let in_list = |input| Expr::InList {
        input,
        list: vec![Scalar::Int64(1), Scalar::Null],
        negated: false,
    };
    let is_not_null = |input| Expr::Unary {
        op: sirius_plan::UnOp::IsNotNull,
        input,
    };
    let positive = || expr::gt(expr::col(0), expr::lit_i64(0));
    vec![
        ("like", like(missing()), out_of_range.clone()),
        ("in-list", in_list(missing()), out_of_range.clone()),
        (
            "cast",
            is_not_null(boxed(Expr::Cast {
                input: missing(),
                to: DataType::Int64,
            })),
            out_of_range.clone(),
        ),
        (
            "substring",
            like(boxed(Expr::Substring {
                input: missing(),
                start: 1,
                len: 2,
            })),
            out_of_range.clone(),
        ),
        (
            "case condition",
            Expr::Case {
                branches: vec![(is_not_null(missing()), positive())],
                otherwise: None,
            },
            out_of_range.clone(),
        ),
        (
            "later case branch",
            Expr::Case {
                branches: vec![(positive(), positive()), (positive(), *missing())],
                otherwise: None,
            },
            out_of_range.clone(),
        ),
        (
            "case otherwise",
            Expr::Case {
                branches: vec![(positive(), positive())],
                otherwise: Some(missing()),
            },
            out_of_range,
        ),
        (
            "like over a number",
            like(boxed(expr::col(0))),
            type_error("LIKE on i64"),
        ),
        (
            "substring of a number",
            like(boxed(Expr::Substring {
                input: boxed(expr::col(2)),
                start: 1,
                len: 2,
            })),
            type_error("SUBSTRING on f64"),
        ),
        (
            "in-list of numbers over a string",
            in_list(boxed(expr::col(3))),
            type_error("IN list of i64 on utf8"),
        ),
        (
            "numeric case condition",
            Expr::Case {
                branches: vec![(expr::col(0), positive())],
                otherwise: None,
            },
            type_error("CASE condition must be bool, got i64"),
        ),
    ]
}

#[test]
fn an_untypable_operand_is_a_typed_error_at_every_plan_entry() {
    let table = Table::new(
        schema(),
        vec![
            Array::from_i64([1, 2]),
            Array::from_i64([3, 4]),
            Array::from_f64([0.5, 1.5]),
            Array::from_strs(["x", "y"]),
        ],
    );
    let gpu = SiriusEngine::from_config(EngineConfig::new(hw::gh200_gpu()));
    gpu.load_table("t", &table);
    gpu.device().reset();
    let context = SiriusContext::new(gpu);
    let mut catalog = Catalog::new();
    catalog.register("t", table.clone());
    let cpu = CpuEngine::new(hw::m7i_16xlarge(), EngineProfile::duckdb());
    let mut duckdb = DuckDb::new();
    duckdb.create_table("t", table);

    for (name, predicate, want) in holes() {
        let plan = scan().filter(predicate).build();
        assert_eq!(validate(&plan), Err(want.clone()), "{name}: validate");

        let wire = json::to_json(&plan).unwrap();
        assert_eq!(json::from_json(&wire).unwrap(), plan, "{name}: the wire");
        match context.execute_json(&wire) {
            Err(SiriusError::Plan(e)) => assert_eq!(e, want, "{name}: execute_json"),
            other => panic!("{name}: execute_json returned {:?}", other.map(|_| ())),
        }
        let charged = context.engine().device().elapsed();
        assert_eq!(charged, Duration::ZERO, "{name}: nothing charged");

        match cpu.execute(&plan, &catalog) {
            Err(ExecError::Plan(e)) => assert_eq!(e, want, "{name}: CpuEngine"),
            other => panic!("{name}: CpuEngine returned {:?}", other.map(|_| ())),
        }
        assert_eq!(cpu.device().elapsed(), Duration::ZERO, "{name}: CPU ledger");
        match duckdb.execute_plan(&plan) {
            Err(DuckDbError::Exec(ExecError::Plan(e))) => assert_eq!(e, want, "{name}: DuckDb"),
            other => panic!("{name}: DuckDb returned {:?}", other.map(|_| ())),
        }
    }
}
