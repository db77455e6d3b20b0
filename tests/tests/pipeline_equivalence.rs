//! Property: compiling a plan into the pipeline DAG is semantics-preserving.
//! For randomly generated plans — streaming chains, joins, and every breaker
//! kind, under randomized morsel sizes — the GPU engine (which coalesces
//! stacked filters and executes the compiled, fused DAG) must return exactly
//! what the CPU tree interpreter returns on the plan as built (floats at
//! 1e-9 relative, row order ignored).

use proptest::prelude::*;
use sirius_columnar::{Array, DataType, Field, Schema, Table};
use sirius_core::SiriusEngine;
use sirius_exec_cpu::{Catalog, CpuEngine, EngineProfile};
use sirius_hw::catalog as hw;
use sirius_integration::assert_tables_equivalent;
use sirius_plan::builder::PlanBuilder;
use sirius_plan::expr::{self, AggExpr, SortExpr};
use sirius_plan::{AggFunc, JoinKind, Rel};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("g", DataType::Int64),
        Field::new("v", DataType::Float64),
    ])
}

fn table_from(rows: &[(i64, i64, f64)]) -> Table {
    Table::new(
        schema(),
        vec![
            Array::from_i64(rows.iter().map(|r| r.0).collect::<Vec<_>>()),
            Array::from_i64(rows.iter().map(|r| r.1).collect::<Vec<_>>()),
            Array::from_f64(rows.iter().map(|r| r.2).collect::<Vec<_>>()),
        ],
    )
}

/// A streaming operator appended to the chain. Each preserves a three-column
/// (i64, i64, f64) shape so ops compose in any order, and the redundant
/// variants (`Identity`, stacked filters) exist precisely to give filter
/// coalescing and data-path fusion something to merge.
#[derive(Debug, Clone)]
enum StreamOp {
    /// `k >= threshold` — stacks into conjunctions under normalization.
    FilterK(i64),
    /// `g >= threshold`.
    FilterG(i64),
    /// `(k, g, v * 2 + g)` — an arithmetic projection.
    Arith,
    /// A pass-through projection: nothing removes it, the DAG runs it.
    Identity,
}

impl StreamOp {
    fn apply(&self, b: PlanBuilder) -> PlanBuilder {
        match self {
            StreamOp::FilterK(t) => b.filter(expr::ge(expr::col(0), expr::lit_i64(*t))),
            StreamOp::FilterG(t) => b.filter(expr::ge(expr::col(1), expr::lit_i64(*t))),
            StreamOp::Arith => b.project(vec![
                (expr::col(0), "k".into()),
                (expr::col(1), "g".into()),
                (
                    expr::add(expr::mul(expr::col(2), expr::lit_i64(2)), expr::col(1)),
                    "v".into(),
                ),
            ]),
            StreamOp::Identity => b.project(vec![
                (expr::col(0), "k".into()),
                (expr::col(1), "g".into()),
                (expr::col(2), "v".into()),
            ]),
        }
    }
}

/// How the random plan ends — each variant forces a different breaker
/// (and so a different sink in the compiled DAG).
#[derive(Debug, Clone)]
enum Terminal {
    /// Streaming all the way to the result sink.
    None,
    /// Group-by g: sum(v), count(*).
    Aggregate,
    /// Total-order sort (every column a key, so ties are exact duplicates
    /// and the limit window is deterministic) then offset/fetch.
    SortLimit(usize, usize),
    /// Project to the duplicated columns, then distinct.
    Distinct,
}

fn apply_terminal(b: PlanBuilder, t: &Terminal, width: usize) -> Rel {
    match t {
        Terminal::None => b.build(),
        Terminal::Aggregate => b
            .aggregate(
                vec![expr::col(1)],
                vec![
                    AggExpr {
                        func: AggFunc::Sum,
                        input: Some(expr::col(2)),
                        name: "s".into(),
                    },
                    AggExpr {
                        func: AggFunc::CountStar,
                        input: None,
                        name: "n".into(),
                    },
                ],
            )
            .build(),
        Terminal::SortLimit(offset, fetch) => b
            .sort(
                (0..width)
                    .map(|c| SortExpr {
                        expr: expr::col(c),
                        ascending: c % 2 == 0,
                    })
                    .collect(),
            )
            .limit(*offset, Some((*fetch).max(1)))
            .build(),
        Terminal::Distinct => b
            .project(vec![(expr::col(1), "g".into()), (expr::col(0), "k".into())])
            .distinct()
            .build(),
    }
}

fn op_strategy() -> impl Strategy<Value = StreamOp> {
    prop_oneof![
        (0i64..30).prop_map(StreamOp::FilterK),
        (0i64..4).prop_map(StreamOp::FilterG),
        Just(StreamOp::Arith),
        Just(StreamOp::Identity),
    ]
}

fn terminal_strategy() -> impl Strategy<Value = Terminal> {
    prop_oneof![
        Just(Terminal::None),
        Just(Terminal::Aggregate),
        ((0usize..10), (1usize..15)).prop_map(|(o, f)| Terminal::SortLimit(o, f)),
        Just(Terminal::Distinct),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_compiled_dag_matches_tree_interpreter(
        rows in proptest::collection::vec((0i64..40, 0i64..4, -10.0f64..10.0), 0..60),
        right in proptest::collection::vec((0i64..40, 0i64..4, -10.0f64..10.0), 0..30),
        ops in proptest::collection::vec(op_strategy(), 0..4),
        join in proptest::option::of(prop_oneof![
            Just(JoinKind::Inner),
            Just(JoinKind::Semi),
            Just(JoinKind::Anti),
        ]),
        terminal in terminal_strategy(),
        morsel_rows in prop_oneof![Just(7usize), Just(64), Just(4096)],
    ) {
        let lt = table_from(&rows);
        let rt = table_from(&right);

        let mut b = PlanBuilder::scan("l", schema());
        let mut width = 3;
        let mut join_left = join;
        // Put the join (a second pipeline + a probe in this one) somewhere
        // inside the streaming chain.
        let join_at = ops.len() / 2;
        for (i, op) in ops.iter().enumerate() {
            if i == join_at {
                if let Some(kind) = join_left.take() {
                    b = b.join(
                        PlanBuilder::scan("r", schema()),
                        kind,
                        vec![expr::col(0)],
                        vec![expr::col(0)],
                        None,
                    );
                    if kind == JoinKind::Inner {
                        width = 6;
                    }
                }
            }
            b = op.apply(b);
            if matches!(op, StreamOp::Arith | StreamOp::Identity) {
                // Projections narrow a joined row back to three columns.
                width = 3;
            }
        }
        if let Some(kind) = join_left.take() {
            b = b.join(
                PlanBuilder::scan("r", schema()),
                kind,
                vec![expr::col(0)],
                vec![expr::col(0)],
                None,
            );
            if kind == JoinKind::Inner {
                width = 6;
            }
        }
        // An inner join duplicates probe rows per match; a later
        // offset/fetch over duplicated full-width ties is still
        // deterministic because *every* column is a sort key.
        let plan = apply_terminal(b, &terminal, width);

        let mut cat = Catalog::new();
        cat.register("l", lt.clone());
        cat.register("r", rt.clone());
        let cpu = CpuEngine::new(hw::m7i_16xlarge(), EngineProfile::duckdb());
        let cpu_out = cpu.execute(&plan, &cat).expect("cpu interpreter");

        let gpu = SiriusEngine::new(hw::gh200_gpu()).with_morsel_rows(morsel_rows);
        gpu.load_table("l", &lt);
        gpu.load_table("r", &rt);
        let gpu_out = gpu.execute(&plan).expect("compiled DAG");

        assert_tables_equivalent(
            &format!("{ops:?} join={join:?} {terminal:?} morsel={morsel_rows}"),
            &cpu_out,
            &gpu_out,
        );
    }
}
