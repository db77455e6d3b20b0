//! The statistics abstraction behind join ordering.
//!
//! The binder used to read row counts straight off [`BinderCatalog`].
//! [`Statistics`] lifts them behind a trait so the same join orderer can
//! run from catalog estimates (the default, [`CatalogStatistics`]) or from
//! *observed actuals* recorded by a feedback store after a prior execution
//! of the same plan shape (adaptive re-optimization, the serving layer's
//! plan-cache payoff). The selectivity guesses no source overrides are
//! constants beside the orderer's cost model, in
//! [`join_order`](super::join_order).

use crate::binder::BinderCatalog;
use std::collections::BTreeSet;

/// Cardinality source for the optimizer.
///
/// `actual_rows` keys on the *set of base tables* under a join subtree:
/// that identity is stable under join reordering, so observations made
/// on one plan of a shape transfer to any re-enumeration of the same
/// shape. Implementations return `None` whenever they have nothing
/// better than the estimate — the orderer then falls back to
/// `base_rows`-seeded estimates and its decisions stay exactly the
/// estimate-only ones. An implementation that has observed a join has
/// observed the relations under it (one run records both): the orderer
/// looks join sets up only when some FROM relation itself was observed.
pub trait Statistics {
    /// Base-table row count, `None` if the table is unknown.
    fn base_rows(&self, table: &str) -> Option<f64>;

    /// Observed output cardinality of the join subtree covering exactly
    /// `tables`, from a previous run of the same plan shape. The default
    /// has no feedback.
    fn actual_rows(&self, tables: &BTreeSet<String>) -> Option<f64> {
        let _ = tables;
        None
    }
}

/// Estimate-only statistics straight off the binder catalog — the
/// default source.
#[derive(Debug, Clone, Copy)]
pub struct CatalogStatistics<'a> {
    catalog: &'a BinderCatalog,
}

impl<'a> CatalogStatistics<'a> {
    /// Statistics over `catalog` row counts.
    pub fn new(catalog: &'a BinderCatalog) -> Self {
        CatalogStatistics { catalog }
    }
}

impl Statistics for CatalogStatistics<'_> {
    fn base_rows(&self, table: &str) -> Option<f64> {
        self.catalog.get(table).map(|(_, rows)| *rows as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::join_order::{IMPLIED_OR_SELECTIVITY, PUSHDOWN_SELECTIVITY};
    use sirius_columnar::{DataType, Field, Schema};

    #[test]
    fn catalog_statistics_serve_row_counts() {
        let mut cat = BinderCatalog::new();
        cat.add_table(
            "t",
            Schema::new(vec![Field::new("x", DataType::Int64)]),
            123,
        );
        let stats = CatalogStatistics::new(&cat);
        assert_eq!(stats.base_rows("t"), Some(123.0));
        assert_eq!(stats.base_rows("missing"), None);
        assert_eq!(stats.actual_rows(&BTreeSet::from(["t".to_string()])), None);
        assert_eq!(PUSHDOWN_SELECTIVITY, 0.35);
        assert_eq!(IMPLIED_OR_SELECTIVITY, 0.5);
    }
}
