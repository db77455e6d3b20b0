//! The bottom-up plan interpreter with cost accounting.
//!
//! The interpreter is a [`Fold`] over the shared plan walk
//! ([`sirius_plan::visit`]) — the same traversal the GPU pipeline compiler
//! uses — so there is exactly one way to walk a plan in the workspace.
//! Scan+filter fusion keeps its single-pass charge through the
//! [`Fold::enter`] hook, which claims the two-node subtree whole.

use crate::catalog::Catalog;
use crate::eval::evaluate;
use crate::ops;
use crate::profile::EngineProfile;
use crate::{ExecError, Result};
use sirius_columnar::{Array, Schema, Table};
use sirius_hw::{CostCategory, Device, DeviceSpec, WorkProfile};
use sirius_plan::expr::{AggExpr, Expr, SortExpr};
use sirius_plan::visit::{self, Fold, JoinOn, Node};
use sirius_plan::{ExchangeKind, JoinKind, Rel};
use std::sync::Arc;

/// A CPU query engine: a simulated device plus an engine personality.
pub struct CpuEngine {
    device: Device,
    profile: EngineProfile,
    /// Ledger value at the start of the current statement — the time
    /// budget applies per statement, not cumulatively.
    budget_base: parking_lot::Mutex<std::time::Duration>,
}

impl CpuEngine {
    /// Build an engine on a device spec with a personality profile.
    pub fn new(spec: DeviceSpec, profile: EngineProfile) -> Self {
        Self {
            device: Device::new(spec),
            profile,
            budget_base: parking_lot::Mutex::new(std::time::Duration::ZERO),
        }
    }

    /// The underlying simulated device (ledger access).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The engine profile.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Execute a plan against a catalog, charging simulated time.
    pub fn execute(&self, plan: &Rel, catalog: &Catalog) -> Result<Table> {
        sirius_plan::validate::validate(plan)?;
        if self.profile.reject_residual_semi_joins {
            check_no_residual_semi(plan)?;
        }
        *self.budget_base.lock() = self.device.elapsed();
        let overhead = self.profile.per_query_overhead;
        self.device
            .charge_duration(CostCategory::Other, "cpu.query", overhead, 0, 0);
        visit::fold(&mut Interp { eng: self, catalog }, plan)
    }

    fn charge(&self, category: CostCategory, label: &'static str, work: WorkProfile) -> Result<()> {
        let scaled = work.scaled(self.profile.multiplier(category));
        self.device.charge(category, label, &scaled);
        if let Some(budget) = self.profile.time_budget {
            let elapsed = self
                .device
                .elapsed()
                .saturating_sub(*self.budget_base.lock());
            if elapsed > budget {
                return Err(ExecError::TimeBudgetExceeded { elapsed, budget });
            }
        }
        Ok(())
    }

    /// Resolve a base-table scan (with its stored projection), uncharged.
    fn scan_table(
        &self,
        table: &str,
        projection: &Option<Vec<usize>>,
        cat: &Catalog,
    ) -> Result<Table> {
        let t = cat
            .get(table)
            .ok_or_else(|| ExecError::TableNotFound(table.to_string()))?;
        Ok(match projection {
            Some(p) => t.project(p),
            None => (*t).clone(),
        })
    }

    /// Apply a filter over its materialized input, charging one pass.
    fn op_filter(&self, predicate: &Expr, t: Table) -> Result<Table> {
        let mask = evaluate(predicate, &t)?;
        let sel = mask.as_bool()?.to_selection();
        let out = t.filter(&sel);
        self.charge(
            CostCategory::Filter,
            "cpu.filter",
            WorkProfile::scan(t.byte_size() as u64)
                .with_streamed(out.byte_size() as u64)
                .with_flops(t.num_rows() as u64)
                .with_rows(t.num_rows() as u64),
        )?;
        Ok(out)
    }
}

/// The interpreter as a [`Fold`]: children are materialized bottom-up by
/// the shared driver and combined per operator here.
struct Interp<'a> {
    eng: &'a CpuEngine,
    catalog: &'a Catalog,
}

impl Fold for Interp<'_> {
    type Output = Table;
    type Error = ExecError;

    fn enter(&mut self, _node: Node, rel: &Rel) -> Option<Result<Table>> {
        // Scan+filter fusion (mirrors the GPU engine): a filter directly
        // over a base scan charges a single pass, so this claims the
        // two-node subtree whole instead of letting the scan charge first.
        let Rel::Filter { input, predicate } = rel else {
            return None;
        };
        let Rel::Read {
            table, projection, ..
        } = &**input
        else {
            return None;
        };
        Some(
            self.eng
                .scan_table(table, projection, self.catalog)
                .and_then(|t| self.eng.op_filter(predicate, t)),
        )
    }

    fn read(
        &mut self,
        _node: Node,
        _plan: &Rel,
        table: &str,
        _schema: &Schema,
        projection: &Option<Vec<usize>>,
    ) -> Result<Table> {
        let t = self.eng.scan_table(table, projection, self.catalog)?;
        self.eng.charge(
            CostCategory::Filter,
            "cpu.scan",
            WorkProfile::scan(t.byte_size() as u64).with_rows(t.num_rows() as u64),
        )?;
        Ok(t)
    }

    fn filter(&mut self, _node: Node, _plan: &Rel, predicate: &Expr, t: Table) -> Result<Table> {
        self.eng.op_filter(predicate, t)
    }

    fn project(
        &mut self,
        _node: Node,
        plan: &Rel,
        exprs: &[(Expr, Arc<str>)],
        t: Table,
    ) -> Result<Table> {
        let schema = plan.output_schema(&[t.schema()])?;
        let mut cols = Vec::with_capacity(exprs.len());
        for (e, _) in exprs {
            cols.push(evaluate(e, &t)?);
        }
        let out = Table::new(schema, cols);
        self.eng.charge(
            CostCategory::Project,
            "cpu.project",
            WorkProfile::scan(t.byte_size() as u64)
                .with_streamed(out.byte_size() as u64)
                .with_flops((t.num_rows() * exprs.len()) as u64)
                .with_rows(t.num_rows() as u64),
        )?;
        Ok(out)
    }

    fn aggregate(
        &mut self,
        _node: Node,
        plan: &Rel,
        group_by: &[Expr],
        aggregates: &[AggExpr],
        t: Table,
    ) -> Result<Table> {
        let key_cols: Vec<Array> = group_by
            .iter()
            .map(|g| evaluate(g, &t))
            .collect::<Result<_>>()?;
        let agg_inputs: Vec<(sirius_plan::AggFunc, Option<Array>)> = aggregates
            .iter()
            .map(|a| {
                Ok((
                    a.func,
                    a.input.as_ref().map(|e| evaluate(e, &t)).transpose()?,
                ))
            })
            .collect::<Result<_>>()?;
        let (keys, aggs) = ops::aggregate(&t, &key_cols, &agg_inputs)?;
        let schema = plan.output_schema(&[t.schema()])?;
        let out = Table::new(schema, keys.into_iter().chain(aggs).collect());
        let (category, label) = if group_by.is_empty() {
            (CostCategory::Aggregate, "cpu.aggregate")
        } else {
            (CostCategory::GroupBy, "cpu.groupby")
        };
        self.eng.charge(
            category,
            label,
            WorkProfile::scan(t.byte_size() as u64)
                .with_random((t.num_rows() * 8 * aggregates.len().max(1)) as u64)
                .with_flops((t.num_rows() * (group_by.len() + aggregates.len())) as u64)
                .with_rows(t.num_rows() as u64),
        )?;
        Ok(out)
    }

    fn join(
        &mut self,
        _node: Node,
        plan: &Rel,
        on: JoinOn<'_>,
        lt: Table,
        rt: Table,
    ) -> Result<Table> {
        let lk: Vec<Array> = on
            .left_keys
            .iter()
            .map(|e| evaluate(e, &lt))
            .collect::<Result<_>>()?;
        let rk: Vec<Array> = on
            .right_keys
            .iter()
            .map(|e| evaluate(e, &rt))
            .collect::<Result<_>>()?;
        let pairs = ops::find_pairs(&lk, &rk, lt.num_rows(), rt.num_rows());
        // Residual predicate: evaluated vectorized over the
        // candidate-pair tables.
        let mask = match on.residual {
            None => None,
            Some(res) => {
                let lp = lt.gather(&pairs.left);
                let rp = rt.gather(&pairs.right);
                let combined = lp.hstack(&rp);
                let col = evaluate(res, &combined)?;
                Some(col.as_bool()?.to_selection())
            }
        };
        let out_idx = ops::resolve_pairs(on.kind, &pairs, mask.as_ref())?;
        // Materialize output table.
        let out = match on.kind {
            JoinKind::Semi | JoinKind::Anti => lt.gather(&out_idx.left),
            _ => {
                let l = lt.gather(&out_idx.left);
                let r = Table::new(
                    plan.output_schema(&[lt.schema(), rt.schema()])?.project(
                        &(lt.num_columns()..lt.num_columns() + rt.num_columns())
                            .collect::<Vec<_>>(),
                    ),
                    rt.gather(&out_idx.right).columns().to_vec(),
                );
                l.hstack(&r)
            }
        };
        let key_bytes: u64 = lk
            .iter()
            .chain(rk.iter())
            .map(|a| a.byte_size() as u64)
            .sum();
        // CPU hash joins materialize the whole build side (keys +
        // payload) into the hash table; engines that leave large
        // inputs on the build side (ClickHouse's FROM-order plans)
        // pay for it.
        self.eng.charge(
            CostCategory::Join,
            "cpu.join",
            WorkProfile::scan(key_bytes)
                .with_random(((lt.num_rows() + rt.num_rows()) * 16) as u64)
                .with_random(rt.byte_size() as u64)
                .with_random(out.byte_size() as u64)
                .with_flops(pairs.len() as u64)
                .with_rows(out.num_rows() as u64),
        )?;
        Ok(out)
    }

    fn sort(&mut self, _node: Node, _plan: &Rel, keys: &[SortExpr], t: Table) -> Result<Table> {
        let key_cols: Vec<(Array, bool)> = keys
            .iter()
            .map(|k| Ok((evaluate(&k.expr, &t)?, k.ascending)))
            .collect::<Result<_>>()?;
        let order = ops::sort_order(&key_cols, t.num_rows());
        let out = t.gather(&order);
        let n = t.num_rows().max(2) as u64;
        let log_n = (n as f64).log2().ceil() as u64;
        self.eng.charge(
            CostCategory::OrderBy,
            "cpu.sort",
            WorkProfile::scan(t.byte_size() as u64)
                .with_flops(n * log_n)
                .with_random(out.byte_size() as u64)
                .with_rows(t.num_rows() as u64),
        )?;
        Ok(out)
    }

    fn limit(
        &mut self,
        _node: Node,
        _plan: &Rel,
        offset: usize,
        fetch: Option<usize>,
        t: Table,
    ) -> Result<Table> {
        let start = offset.min(t.num_rows());
        let end = match fetch {
            Some(f) => (start + f).min(t.num_rows()),
            None => t.num_rows(),
        };
        let out = t.gather(start..end);
        self.eng.charge(
            CostCategory::Other,
            "cpu.limit",
            WorkProfile::scan(out.byte_size() as u64).with_rows(out.num_rows() as u64),
        )?;
        Ok(out)
    }

    fn distinct(&mut self, _node: Node, _plan: &Rel, t: Table) -> Result<Table> {
        let key_cols: Vec<Array> = t.columns().to_vec();
        let (keys, _aggs) = ops::aggregate(&t, &key_cols, &[])?;
        let out = Table::new(t.schema().clone(), keys);
        self.eng.charge(
            CostCategory::GroupBy,
            "cpu.distinct",
            WorkProfile::scan(t.byte_size() as u64)
                .with_random((t.num_rows() * 16) as u64)
                .with_rows(t.num_rows() as u64),
        )?;
        Ok(out)
    }

    /// Single-node interpretation: exchange is the identity.
    fn exchange(
        &mut self,
        _node: Node,
        _plan: &Rel,
        _kind: &ExchangeKind,
        t: Table,
    ) -> Result<Table> {
        Ok(t)
    }
}

fn check_no_residual_semi(plan: &Rel) -> Result<()> {
    visit::try_visit(plan, &mut |_node, rel| {
        if let Rel::Join {
            kind: JoinKind::Semi | JoinKind::Anti,
            residual: Some(_),
            ..
        } = rel
        {
            return Err(ExecError::Unsupported(
                "correlated EXISTS with non-equi conditions (residual semi/anti join)".into(),
            ));
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{DataType, Field, Scalar, Schema};
    use sirius_hw::{catalog as hw, TraceSink};
    use sirius_plan::builder::PlanBuilder;
    use sirius_plan::expr::{self, AggExpr, AggFunc, SortExpr};

    fn setup() -> (CpuEngine, Catalog, Schema) {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("grp", DataType::Utf8),
            Field::new("v", DataType::Float64),
        ]);
        let t = Table::new(
            schema.clone(),
            vec![
                Array::from_i64([1, 2, 3, 4]),
                Array::from_strs(["a", "b", "a", "b"]),
                Array::from_f64([10.0, 20.0, 30.0, 40.0]),
            ],
        );
        let mut cat = Catalog::new();
        cat.register("t", t);
        (
            CpuEngine::new(hw::m7i_16xlarge(), EngineProfile::duckdb()),
            cat,
            schema,
        )
    }

    #[test]
    fn scan_filter_project() {
        let (eng, cat, schema) = setup();
        let plan = PlanBuilder::scan("t", schema)
            .filter(expr::gt(expr::col(2), expr::lit(Scalar::Float64(15.0))))
            .project(vec![(expr::col(0), "k".into())])
            .build();
        let out = eng.execute(&plan, &cat).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.num_columns(), 1);
        assert!(eng.device().elapsed().as_nanos() > 0);
    }

    #[test]
    fn group_by_and_sort() {
        let (eng, cat, schema) = setup();
        let plan = PlanBuilder::scan("t", schema)
            .aggregate(
                vec![expr::col(1)],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    input: Some(expr::col(2)),
                    name: "s".into(),
                }],
            )
            .sort(vec![SortExpr {
                expr: expr::col(1),
                ascending: false,
            }])
            .build();
        let out = eng.execute(&plan, &cat).unwrap();
        assert_eq!(out.num_rows(), 2);
        // Sorted by sum desc: b (60) then a (40).
        assert_eq!(out.column(0).utf8_value(0), Some("b"));
        assert_eq!(out.column(1).f64_value(0), Some(60.0));
    }

    #[test]
    fn join_and_limit() {
        let (eng, cat, schema) = setup();
        let plan = PlanBuilder::scan("t", schema.clone())
            .join(
                PlanBuilder::scan("t", schema),
                JoinKind::Inner,
                vec![expr::col(1)],
                vec![expr::col(1)],
                None,
            )
            .limit(0, Some(3))
            .build();
        let out = eng.execute(&plan, &cat).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.num_columns(), 6);
    }

    #[test]
    fn missing_table() {
        let (eng, cat, schema) = setup();
        let plan = PlanBuilder::scan("nope", schema).build();
        assert!(matches!(
            eng.execute(&plan, &cat),
            Err(ExecError::TableNotFound(_))
        ));
    }

    #[test]
    fn clickhouse_rejects_residual_semi_joins() {
        let (_eng, cat, schema) = setup();
        let ch = CpuEngine::new(hw::m7i_16xlarge(), EngineProfile::clickhouse());
        let plan = PlanBuilder::scan("t", schema.clone())
            .join(
                PlanBuilder::scan("t", schema),
                JoinKind::Anti,
                vec![expr::col(0)],
                vec![expr::col(0)],
                Some(expr::ne(expr::col(1), expr::col(4))),
            )
            .build();
        assert!(matches!(
            ch.execute(&plan, &cat),
            Err(ExecError::Unsupported(_))
        ));
    }

    #[test]
    fn joins_cost_more_than_duckdb() {
        // Same self-join, same data: the ClickHouse profile must charge more
        // simulated join time than the DuckDB profile (large enough input
        // that per-kernel launch overhead is negligible). Every charge names
        // its kernel on either profile.
        let n = 50_000i64;
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let t = Table::new(
            schema.clone(),
            vec![
                Array::from_i64((0..n).collect::<Vec<_>>()),
                Array::from_i64((0..n).map(|x| x * 10).collect::<Vec<_>>()),
            ],
        );
        let mut cat = Catalog::new();
        cat.register("t", t);
        let plan = PlanBuilder::scan("t", schema.clone())
            .join(
                PlanBuilder::scan("t", schema),
                JoinKind::Inner,
                vec![expr::col(0)],
                vec![expr::col(0)],
                None,
            )
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::CountStar,
                    input: None,
                    name: "n".into(),
                }],
            )
            .build();
        let join_ns = |profile| {
            let eng = CpuEngine::new(hw::m7i_16xlarge(), profile);
            let sink = TraceSink::new();
            eng.device().set_trace(sink.clone());
            let out = eng.execute(&plan, &cat).unwrap();
            assert_eq!(out.column(0).i64_value(0), Some(n));
            let labels: Vec<String> = sink.events().into_iter().map(|e| e.label).collect();
            let unnamed = labels
                .iter()
                .filter(|l| CostCategory::from_label(l).is_some());
            assert_eq!(unnamed.count(), 0, "{labels:?}");
            let kernels = [
                "cpu.query",
                "cpu.scan",
                "cpu.scan",
                "cpu.join",
                "cpu.aggregate",
            ];
            assert_eq!(labels, kernels);
            eng.device().breakdown().get(CostCategory::Join)
        };
        let (ch, duck) = (
            join_ns(EngineProfile::clickhouse()),
            join_ns(EngineProfile::duckdb()),
        );
        assert!(ch > duck * 3, "clickhouse {ch:?} vs duckdb {duck:?}");
    }

    #[test]
    fn time_budget_trips() {
        let (_e, cat, schema) = setup();
        let mut profile = EngineProfile::duckdb();
        profile.time_budget = Some(std::time::Duration::from_nanos(1));
        let eng = CpuEngine::new(hw::m7i_16xlarge(), profile);
        let plan = PlanBuilder::scan("t", schema).build();
        assert!(matches!(
            eng.execute(&plan, &cat),
            Err(ExecError::TimeBudgetExceeded { .. })
        ));
    }

    #[test]
    fn distinct_via_engine() {
        let (eng, mut cat, _schema) = setup();
        let s2 = Schema::new(vec![Field::new("x", DataType::Int64)]);
        cat.register(
            "dup",
            Table::new(s2.clone(), vec![Array::from_i64([1, 1, 2])]),
        );
        let plan = PlanBuilder::scan("dup", s2).distinct().build();
        let out = eng.execute(&plan, &cat).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn left_join_null_padding() {
        let (eng, cat, schema) = setup();
        let plan = PlanBuilder::scan("t", schema.clone())
            .join(
                PlanBuilder::from_rel(
                    PlanBuilder::scan("t", schema)
                        .filter(expr::eq(expr::col(0), expr::lit_i64(1)))
                        .build(),
                ),
                JoinKind::Left,
                vec![expr::col(0)],
                vec![expr::col(0)],
                None,
            )
            .build();
        let out = eng.execute(&plan, &cat).unwrap();
        assert_eq!(out.num_rows(), 4);
        // Exactly one matched row, three null-padded.
        let nulls = (0..4)
            .filter(|&i| out.column(3).scalar(i) == Scalar::Null)
            .count();
        assert_eq!(nulls, 3);
    }
}
