//! Sort kernels: multi-key order-by producing gather indices.

use crate::{GpuContext, Result};
use sirius_columnar::Array;
#[cfg(test)]
use sirius_columnar::Scalar;
use sirius_hw::WorkProfile;
use std::cmp::Ordering;

/// One sort key: a column plus direction. Nulls sort first on ascending
/// keys and last on descending keys (the engines' default).
pub struct SortKey<'a> {
    /// The key column.
    pub column: &'a Array,
    /// True for ascending order.
    pub ascending: bool,
}

/// Order of rows `a` and `b` of one column, as `Scalar::cmp` orders their
/// values: NULL first, integers and dates numerically, floats by
/// `total_cmp`, strings (plain or dictionary) bytewise.
pub(crate) fn compare_cells(column: &Array, a: usize, b: usize) -> Ordering {
    match column {
        Array::Bool(c) => c.value(a).cmp(&c.value(b)),
        Array::Int32(c) | Array::Date32(c) => c.value(a).cmp(&c.value(b)),
        Array::Int64(c) => c.value(a).cmp(&c.value(b)),
        Array::Float64(c) => match (c.value(a), c.value(b)) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            (x, y) => x.is_some().cmp(&y.is_some()),
        },
        Array::Utf8(c) => c.value(a).cmp(&c.value(b)),
        Array::Dict(c) => c.value(a).cmp(&c.value(b)),
    }
}

fn compare_row(keys: &[SortKey<'_>], a: usize, b: usize) -> Ordering {
    for k in keys {
        let ord = compare_cells(k.column, a, b);
        let ord = if k.ascending { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Stable multi-key sort returning libcudf-style `i32` gather indices.
pub fn sort_indices(ctx: &GpuContext, keys: &[SortKey<'_>], num_rows: usize) -> Result<Vec<i32>> {
    let mut idx: Vec<i32> = (0..num_rows as i32).collect();
    idx.sort_by(|&a, &b| compare_row(keys, a as usize, b as usize));

    let key_bytes: u64 = keys.iter().map(|k| k.column.byte_size() as u64).sum();
    let log_n = (num_rows.max(2) as f64).log2().ceil() as u64;
    ctx.charge(
        "sort.comparator",
        &WorkProfile::scan(key_bytes * log_n / 2)
            .with_random((num_rows * 8) as u64)
            .with_flops(num_rows as u64 * log_n)
            .with_rows(num_rows as u64),
    );
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx;
    use proptest::prelude::*;
    use sirius_columnar::DataType;

    #[test]
    fn single_key_ascending_descending() {
        let ctx = test_ctx();
        let c = Array::from_i64([3, 1, 2]);
        let asc = sort_indices(
            &ctx,
            &[SortKey {
                column: &c,
                ascending: true,
            }],
            3,
        )
        .unwrap();
        assert_eq!(asc, vec![1, 2, 0]);
        let desc = sort_indices(
            &ctx,
            &[SortKey {
                column: &c,
                ascending: false,
            }],
            3,
        )
        .unwrap();
        assert_eq!(desc, vec![0, 2, 1]);
    }

    #[test]
    fn multi_key_tiebreak() {
        let ctx = test_ctx();
        let k1 = Array::from_strs(["b", "a", "b", "a"]);
        let k2 = Array::from_i64([1, 2, 0, 1]);
        let idx = sort_indices(
            &ctx,
            &[
                SortKey {
                    column: &k1,
                    ascending: true,
                },
                SortKey {
                    column: &k2,
                    ascending: false,
                },
            ],
            4,
        )
        .unwrap();
        assert_eq!(idx, vec![1, 3, 0, 2]);
    }

    #[test]
    fn stability_on_equal_keys() {
        let ctx = test_ctx();
        let c = Array::from_i64([5, 5, 5]);
        let idx = sort_indices(
            &ctx,
            &[SortKey {
                column: &c,
                ascending: true,
            }],
            3,
        )
        .unwrap();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn nulls_first_ascending() {
        let ctx = test_ctx();
        let c = Array::from_scalars(
            &[Scalar::Int64(1), Scalar::Null, Scalar::Int64(0)],
            DataType::Int64,
        );
        let idx = sort_indices(
            &ctx,
            &[SortKey {
                column: &c,
                ascending: true,
            }],
            3,
        )
        .unwrap();
        assert_eq!(idx, vec![1, 2, 0]);
    }

    proptest! {
        #[test]
        fn prop_sort_produces_permutation(
            values in proptest::collection::vec(any::<i64>(), 0..100)
        ) {
            let ctx = test_ctx();
            let c = Array::from_i64(values.clone());
            let idx = sort_indices(
                &ctx,
                &[SortKey { column: &c, ascending: true }],
                values.len(),
            ).unwrap();
            let mut seen = idx.clone();
            seen.sort_unstable();
            let expect: Vec<i32> = (0..values.len() as i32).collect();
            prop_assert_eq!(seen, expect);
        }
    }
}
