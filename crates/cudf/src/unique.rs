//! Distinct-rows kernel.

use crate::hash::row_keys;
use crate::{GpuContext, Result};
use sirius_columnar::Table;
use sirius_hw::WorkProfile;

/// Keep the first occurrence of each distinct row (SQL `SELECT DISTINCT`).
/// Output preserves first-appearance order.
pub fn distinct(ctx: &GpuContext, table: &Table) -> Result<Table> {
    let cols: Vec<_> = table.columns().iter().collect();
    let keep = row_keys(&cols, table.num_rows()).dense_ids().first_rows;
    let out = table.gather(&keep);
    ctx.charge_named(
        "unique.distinct",
        &WorkProfile::scan(table.byte_size() as u64)
            .with_random((table.num_rows() * 16) as u64)
            .with_streamed(out.byte_size() as u64)
            .with_rows(table.num_rows() as u64),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, table_of, Gen, KINDS};
    use crate::test_ctx;
    use proptest::prelude::*;
    use sirius_columnar::{Array, DataType, Field, Scalar, Schema};

    proptest! {
        #[test]
        fn prop_distinct_keeps_the_rows_the_scalar_reference_keeps(
            seed in any::<u64>(),
            rows in 0usize..60,
            columns in 1usize..4,
        ) {
            let table = table_of(Gen(seed).columns(&KINDS, columns, rows));
            let kept = distinct(&test_ctx(), &table).unwrap();
            let expected = table.gather(reference::distinct_rows(&table).as_slice());
            prop_assert_eq!(kept.canonical_rows(), expected.canonical_rows());
            prop_assert_eq!(kept.byte_size(), expected.byte_size());
            // Row order, not just the row set: compare row by row.
            for i in 0..kept.num_rows() {
                prop_assert_eq!(kept.row(i), expected.row(i));
            }
        }
    }

    #[test]
    fn dedupes_preserving_first_appearance() {
        let ctx = test_ctx();
        let t = Table::new(
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Utf8),
            ]),
            vec![
                Array::from_i64([1, 2, 1, 2]),
                Array::from_strs(["x", "y", "x", "z"]),
            ],
        );
        let d = distinct(&ctx, &t).unwrap();
        assert_eq!(d.num_rows(), 3);
        assert_eq!(d.row(0), vec![Scalar::Int64(1), Scalar::Utf8("x".into())]);
        assert_eq!(d.row(2), vec![Scalar::Int64(2), Scalar::Utf8("z".into())]);
    }

    #[test]
    fn null_rows_dedupe_together() {
        let ctx = test_ctx();
        let t = Table::new(
            Schema::new(vec![Field::new("a", DataType::Int64)]),
            vec![Array::from_scalars(
                &[Scalar::Null, Scalar::Null, Scalar::Int64(1)],
                DataType::Int64,
            )],
        );
        let d = distinct(&ctx, &t).unwrap();
        assert_eq!(d.num_rows(), 2);
    }

    #[test]
    fn already_distinct_is_identity() {
        let ctx = test_ctx();
        let t = Table::new(
            Schema::new(vec![Field::new("a", DataType::Int64)]),
            vec![Array::from_i64([3, 1, 2])],
        );
        let d = distinct(&ctx, &t).unwrap();
        assert_eq!(d.canonical_rows(), t.canonical_rows());
    }
}
