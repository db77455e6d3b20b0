//! Selection application and row materialization: keep table rows where a
//! boolean column is true, or gather them at libcudf's `i32` row indices.
//!
//! `sirius-columnar` has one `gather`, generic over its `RowIndex` (`usize`,
//! `i32`, or either in an `Option`, where `None` produces a row of NULLs), so
//! both gathers here hand their index slice straight down; they differ in
//! their ledger entry and in `gather_opt` marking every output field
//! nullable.

use crate::{GpuContext, Result};
use sirius_columnar::{Array, Table};
use sirius_hw::WorkProfile;

/// Apply a boolean selection column to a table (SQL WHERE semantics: null
/// predicate results do not select).
pub fn apply_filter(ctx: &GpuContext, table: &Table, mask: &Array) -> Result<Table> {
    let selection = mask.as_bool()?.to_selection();
    let out = table.filter(&selection);
    ctx.charge(
        "filter.apply",
        &WorkProfile::scan(table.byte_size() as u64)
            .with_streamed(out.byte_size() as u64)
            .with_flops(table.num_rows() as u64)
            .with_rows(table.num_rows() as u64),
    );
    Ok(out)
}

/// Gather table rows at libcudf-style `i32` indices (materialization after
/// a join or sort).
pub fn gather(ctx: &GpuContext, table: &Table, indices: &[i32]) -> Table {
    let out = table.gather(indices);
    ctx.charge(
        "filter.gather",
        &WorkProfile::random(out.byte_size() as u64)
            .with_streamed((indices.len() * 4) as u64)
            .with_rows(indices.len() as u64),
    );
    out
}

/// Gather with null introduction (`None` index ⇒ null row), for outer joins.
pub fn gather_opt(ctx: &GpuContext, table: &Table, indices: &[Option<i32>]) -> Table {
    let mut schema = table.schema().clone();
    for f in &mut schema.fields {
        f.nullable = true;
    }
    let out = Table::new(schema, table.gather(indices).columns().to_vec());
    ctx.charge(
        "filter.gather_opt",
        &WorkProfile::random(out.byte_size() as u64)
            .with_streamed((indices.len() * 4) as u64)
            .with_rows(indices.len() as u64),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx;
    use sirius_columnar::{DataType, Field, Scalar, Schema};

    fn t() -> Table {
        Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("s", DataType::Utf8),
            ]),
            vec![
                Array::from_i64([1, 2, 3]),
                Array::from_strs(["a", "b", "c"]),
            ],
        )
    }

    #[test]
    fn filter_drops_false_and_null() {
        let ctx = test_ctx();
        let mask = Array::from_scalars(
            &[Scalar::Bool(true), Scalar::Null, Scalar::Bool(false)],
            DataType::Bool,
        );
        let out = apply_filter(&ctx, &t(), &mask).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column(0).i64_value(0), Some(1));
    }

    #[test]
    fn filter_requires_bool() {
        let ctx = test_ctx();
        assert!(apply_filter(&ctx, &t(), &Array::from_i64([1, 2, 3])).is_err());
    }

    #[test]
    fn gather_i32_indices() {
        let ctx = test_ctx();
        let out = gather(&ctx, &t(), &[2, 0, 2]);
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.column(1).utf8_value(0), Some("c"));
        assert_eq!(out.column(1).utf8_value(1), Some("a"));
    }

    proptest::proptest! {
        /// With or without padding rows, every column is what the typed
        /// `Array::gather` produces for the same indices as `Option<usize>`.
        #[test]
        fn prop_gather_opt_is_columnwise_gather_opt(
            seed in proptest::prelude::any::<u64>(),
            rows in 1usize..40,
            picks in proptest::collection::vec(proptest::option::of(0usize..1000), 0..60),
            padded in proptest::prelude::any::<bool>(),
        ) {
            use crate::reference::{same_values, table_of, Gen, KINDS};
            let mut g = Gen(seed);
            let table = table_of(KINDS.iter().map(|&k| g.column(k, rows, true)).collect());
            let indices: Vec<Option<i32>> = picks
                .iter()
                .map(|p| p.or((!padded).then_some(0)).map(|i| (i % rows) as i32))
                .collect();
            let out = gather_opt(&test_ctx(), &table, &indices);
            let idx: Vec<Option<usize>> = indices.iter().map(|o| o.map(|i| i as usize)).collect();
            for (got, source) in out.columns().iter().zip(table.columns()) {
                let expected = source.gather(&idx);
                proptest::prop_assert!(same_values(got, &expected), "{:?} vs {:?}", got, expected);
                proptest::prop_assert_eq!(got.byte_size(), expected.byte_size());
                proptest::prop_assert_eq!(got.is_dict(), expected.is_dict());
            }
        }
    }

    #[test]
    fn gather_opt_nulls() {
        let ctx = test_ctx();
        let out = gather_opt(&ctx, &t(), &[Some(1), None]);
        assert_eq!(out.column(0).i64_value(0), Some(2));
        assert_eq!(out.column(0).scalar(1), Scalar::Null);
        assert!(out.schema().fields[0].nullable);
    }
}
