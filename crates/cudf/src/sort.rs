//! Sort kernel: multi-key order-by producing gather indices. The keys are
//! encoded once into order-preserving row keys (`RowKeys::encode`: a
//! descending key's slot complemented, a dictionary key as its rank proxy)
//! and the row ids are sorted by those bytes, ties going to the lower row
//! id — the order a stable comparison sort gives, with no per-cell compare.

use crate::hash::{rank_proxy, RowKeys};
use crate::{GpuContext, Result};
use sirius_columnar::Array;
use sirius_hw::WorkProfile;
use std::borrow::Cow;

/// One sort key: a column plus direction. Nulls sort first on ascending
/// keys and last on descending keys (the engines' default).
pub struct SortKey<'a> {
    /// The key column.
    pub column: &'a Array,
    /// True for ascending order.
    pub ascending: bool,
}

/// Stable multi-key sort returning libcudf-style `i32` gather indices.
pub fn sort_indices(ctx: &GpuContext, keys: &[SortKey<'_>], num_rows: usize) -> Result<Vec<i32>> {
    let proxies: Vec<Cow<'_, Array>> = keys.iter().map(|k| rank_proxy(k.column)).collect();
    let columns: Vec<&Array> = proxies.iter().map(|p| p.as_ref()).collect();
    let descending: Vec<bool> = keys.iter().map(|k| !k.ascending).collect();
    let encoded = RowKeys::encode(&columns, &descending, num_rows, true);
    let idx = encoded.order(0..num_rows, |r| r as i32);

    // The charge models libcudf's comparator sort over the key columns;
    // the label names the charge, not the host algorithm.
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
    use crate::reference::{self, Gen, KINDS};
    use crate::test_ctx;
    use proptest::prelude::*;
    use sirius_columnar::{DataType, Scalar};

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

        /// Any 0–4 keys of any kind, with or without NULLs, in random
        /// directions: the indices and the charge of the `Scalar` sort.
        #[test]
        fn prop_sort_indices_match_the_scalar_reference(
            seed in any::<u64>(),
            n in 0usize..80,
            columns in 0usize..5,
        ) {
            let mut g = Gen(seed);
            let cols = g.columns(&KINDS, columns, n);
            let keys: Vec<SortKey<'_>> = cols
                .iter()
                .map(|column| SortKey { column, ascending: g.below(2) == 0 })
                .collect();
            let (ctx, ref_ctx) = (test_ctx(), test_ctx());
            prop_assert_eq!(
                sort_indices(&ctx, &keys, n).unwrap(),
                reference::sort_indices(&ref_ctx, &keys, n).unwrap()
            );
            prop_assert_eq!(ctx.device().elapsed(), ref_ctx.device().elapsed());
        }
    }
}
