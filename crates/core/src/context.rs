//! Drop-in acceleration entry point and graceful host fallback (§3.2.1-2).
//!
//! Host databases hand Sirius their plans — either as in-memory [`Rel`]
//! trees or as Substrait-style JSON — and receive columnar results back.
//! When the GPU engine hits an error or an unsupported feature, the query
//! is transparently re-executed by the registered [`HostEngine`].

use crate::engine::SiriusEngine;
use crate::metrics::QueryReport;
use crate::{Result, SiriusError};
use sirius_columnar::Table;
use sirius_plan::{json, Rel};
use std::sync::Arc;

/// The host database's own executor, used as the fallback path.
pub trait HostEngine: Send + Sync {
    /// Execute `plan` on the host and return its result.
    fn execute_host(&self, plan: &Rel) -> std::result::Result<Table, String>;
    /// Host engine name (reports).
    fn name(&self) -> &str;
}

/// A Sirius engine plus an optional host fallback: the object a host
/// database embeds for drop-in acceleration.
pub struct SiriusContext {
    engine: SiriusEngine,
    host: Option<Arc<dyn HostEngine>>,
}

impl SiriusContext {
    /// Context without a fallback (errors surface to the caller).
    pub fn new(engine: SiriusEngine) -> Self {
        Self { engine, host: None }
    }

    /// Attach the host fallback engine.
    pub fn with_host(mut self, host: Arc<dyn HostEngine>) -> Self {
        self.host = Some(host);
        self
    }

    /// The underlying GPU engine.
    pub fn engine(&self) -> &SiriusEngine {
        &self.engine
    }

    /// Execute a plan, preferring the GPU and falling back to the host on
    /// `Unsupported` / `OutOfMemory` / kernel / missing-cache errors.
    pub fn execute_plan(&self, plan: &Rel) -> Result<(Table, QueryReport)> {
        match self.engine.execute_measured(plan) {
            Ok(measured) => Ok(measured),
            Err(e) if fallback_worthy(&e) => {
                let host = self.host.as_ref().ok_or_else(|| e.clone())?;
                let table = host.execute_host(plan).map_err(SiriusError::Kernel)?;
                let report = QueryReport {
                    rows: table.num_rows(),
                    fallback_reason: Some(e.to_string()),
                    ..QueryReport::zeroed(host.name(), self.engine.workers())
                };
                Ok((table, report))
            }
            Err(e) => Err(e),
        }
    }

    /// The Substrait wire entry point: deserialize and execute.
    pub fn execute_json(&self, wire: &str) -> Result<(Table, QueryReport)> {
        let plan = json::from_json(wire)?;
        self.execute_plan(&plan)
    }
}

/// Which error classes trigger the graceful fallback (§3.2.2: "in the case
/// of an error or missing features in Sirius").
fn fallback_worthy(e: &SiriusError) -> bool {
    matches!(
        e,
        SiriusError::Unsupported(_)
            | SiriusError::OutOfMemory(_)
            | SiriusError::Kernel(_)
            | SiriusError::TableNotCached(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use sirius_columnar::{Array, DataType, Field, Schema};
    use sirius_hw::catalog;
    use sirius_plan::builder::PlanBuilder;
    use sirius_plan::expr::{self, AggExpr};
    use sirius_plan::validate::FeatureSet;
    use sirius_plan::AggFunc;

    struct FakeHost;
    impl HostEngine for FakeHost {
        fn execute_host(&self, _plan: &Rel) -> std::result::Result<Table, String> {
            Ok(Table::new(
                Schema::new(vec![Field::new("x", DataType::Int64)]),
                vec![Array::from_i64([42])],
            ))
        }
        fn name(&self) -> &str {
            "fake-host"
        }
    }

    fn data() -> Table {
        Table::new(
            Schema::new(vec![Field::new("v", DataType::Float64)]),
            vec![Array::from_f64([1.0, 2.0])],
        )
    }

    fn avg_plan() -> Rel {
        PlanBuilder::scan("t", Schema::new(vec![Field::new("v", DataType::Float64)]))
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Avg,
                    input: Some(expr::col(0)),
                    name: "a".into(),
                }],
            )
            .build()
    }

    #[test]
    fn gpu_path_reports_sirius() {
        let engine = SiriusEngine::new(catalog::gh200_gpu());
        engine.load_table("t", &data());
        let ctx = SiriusContext::new(engine);
        let (out, report) = ctx.execute_plan(&avg_plan()).unwrap();
        assert_eq!(out.column(0).f64_value(0), Some(1.5));
        assert_eq!(report.engine, "sirius");
        assert!(report.fallback_reason.is_none());
        assert!(report.elapsed.as_nanos() > 0);
    }

    #[test]
    fn unsupported_falls_back_to_host() {
        let mut features = FeatureSet::full();
        features.avg = false;
        let engine = SiriusEngine::from_config(EngineConfig {
            features,
            ..EngineConfig::new(catalog::gh200_gpu())
        });
        engine.load_table("t", &data());
        let ctx = SiriusContext::new(engine).with_host(Arc::new(FakeHost));
        let (out, report) = ctx.execute_plan(&avg_plan()).unwrap();
        assert_eq!(out.column(0).i64_value(0), Some(42));
        assert_eq!(report.engine, "fake-host");
        assert!(report.fallback_reason.as_deref().unwrap().contains("Avg"));
    }

    #[test]
    fn no_host_surfaces_the_error() {
        let mut features = FeatureSet::full();
        features.avg = false;
        let engine = SiriusEngine::from_config(EngineConfig {
            features,
            ..EngineConfig::new(catalog::gh200_gpu())
        });
        engine.load_table("t", &data());
        let ctx = SiriusContext::new(engine);
        assert!(matches!(
            ctx.execute_plan(&avg_plan()),
            Err(SiriusError::Unsupported(_))
        ));
    }

    #[test]
    fn json_wire_round_trip_executes() {
        let engine = SiriusEngine::new(catalog::gh200_gpu());
        engine.load_table("t", &data());
        let ctx = SiriusContext::new(engine);
        let wire = json::to_json(&avg_plan()).unwrap();
        let (out, _) = ctx.execute_json(&wire).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert!(ctx.execute_json("garbage").is_err());
    }
}
