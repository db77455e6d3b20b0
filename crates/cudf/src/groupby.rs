//! Group-by kernels: hash-based for fixed-width keys, sort-based for string
//! keys (libcudf's behaviour, which the paper identifies as the source of
//! the Q10/Q18 group-by overhead in Figure 5).
//!
//! [`group_by`] runs in three steps. *Assign*: the key columns are encoded
//! once ([`crate::hash::row_keys`]) and every row gets a dense group id in
//! first-appearance order. *Accumulate*: each aggregate walks its input
//! column once, rows ascending (so float sums keep their bits), into a typed
//! `Vec<i64>` / `Vec<f64>` / best-row-index state indexed by group id.
//! *Materialise*: key columns are gathered from each group's first row and,
//! on the sort path, every output column is put in key order. At PR 17 this
//! took `cudf.groupby_mrows_s` from 11.1 to 145 (BENCH_16.json →
//! BENCH_17.json).
//!
//! The aggregates are the plan's own [`AggFunc`]s, typed by
//! [`AggFunc::result_type`]. How they split into partials and merge across
//! morsels, spill chunks and cluster nodes is `sirius_plan::expr::two_phase`;
//! only that split's AVG divide ([`finalize_avg`]) is a kernel here.

use crate::binary::{float_lane, int_lane, with_values, Datum, Lane, LaneType, Values};
use crate::hash::{key_bytes, rank_proxy, row_keys, DenseIds, FxHashSet, RowKeys};
use crate::{GpuContext, KernelError, Result};
use sirius_columnar::ops::AggFunc;
use sirius_columnar::{Array, Bitmap, DataType, PrimitiveArray, Scalar};
use sirius_hw::WorkProfile;
use std::borrow::Cow;

/// One aggregation over an optional input column (`None` for `COUNT(*)`).
pub struct AggRequest<'a> {
    /// The aggregate function.
    pub kind: AggFunc,
    /// Input column (`None` only for `CountStar`).
    pub input: Option<&'a Array>,
}

/// Group-by output: key columns followed by one column per aggregate, with
/// one row per group.
pub struct GroupByResult {
    /// One column per grouping key.
    pub key_columns: Vec<Array>,
    /// One column per aggregate request.
    pub agg_columns: Vec<Array>,
    /// Number of groups.
    pub num_groups: usize,
    /// True if the sort-based strategy was used (string keys).
    pub sort_based: bool,
}

/// An aggregation's output type, by [`AggFunc::result_type`].
pub(crate) fn agg_type(agg: &AggRequest<'_>) -> Result<DataType> {
    let (kind, input) = (agg.kind, agg.input.map(Array::data_type));
    (kind.result_type(input))
        .ok_or_else(|| KernelError::UnsupportedTypes(format!("{kind:?} on {input:?}")))
}

/// Keyed aggregation. Strategy selection mirrors libcudf: sort-based when
/// any key column is a string, hash-based otherwise. Group output order is
/// deterministic: first-appearance order for the hash path, key order for
/// the sort path.
pub fn group_by(
    ctx: &GpuContext,
    keys: &[&Array],
    aggs: &[AggRequest<'_>],
    num_rows: usize,
) -> Result<GroupByResult> {
    let sort_based = keys.iter().any(|k| k.data_type() == DataType::Utf8);
    let out_types: Vec<DataType> = aggs.iter().map(agg_type).collect::<Result<_>>()?;

    // Assign each row a dense group id, remembering the first row where
    // each group appeared (its representative, for key materialization).
    // Dictionary-encoded key columns enter as their rank proxies.
    let proxies: Vec<Cow<'_, Array>> = keys.iter().map(|k| rank_proxy(k)).collect();
    charge_dict_sort(ctx, keys);
    let proxy_refs: Vec<&Array> = proxies.iter().map(|p| p.as_ref()).collect();
    let encoded = row_keys(&proxy_refs, num_rows);
    let groups = encoded.dense_ids();
    let num_groups = groups.first_rows.len();
    let order = match sort_based {
        true => output_order(ctx, &proxy_refs, &encoded, &groups),
        false => (0..num_groups).collect(),
    };

    // Materialize key columns by gathering each group's representative row
    // from the original arrays: values match the first-appearance scalars
    // and dictionary-encoded keys stay encoded in the output.
    let rep_rows = order.iter().map(|&g| groups.first_rows[g]);
    let key_columns: Vec<Array> = keys.iter().map(|k| k.gather(rep_rows.clone())).collect();
    let agg_columns: Vec<Array> = (aggs.iter().zip(out_types))
        .map(|(a, out)| {
            let by_id = accumulate(a, out, &groups.ids, num_groups)?;
            Ok(if sort_based {
                by_id.gather(&order)
            } else {
                by_id
            })
        })
        .collect::<Result<_>>()?;

    charge_group_by(ctx, keys, aggs, num_rows, num_groups, sort_based);
    Ok(GroupByResult {
        key_columns,
        agg_columns,
        num_groups,
        sort_based,
    })
}

/// Charge the sort of every dictionary behind a rank proxy of `keys`, per
/// launch: the proxies keep the encoded keys free of payload bytes, and the
/// host sorts each shared dictionary once and keeps the ranks beside it.
fn charge_dict_sort(ctx: &GpuContext, keys: &[&Array]) {
    let (mut dict_sort_bytes, mut dict_entries) = (0u64, 0u64);
    for k in keys {
        if let Array::Dict(d) = k {
            dict_sort_bytes += d.dict_byte_size() as u64;
            dict_entries += d.values().len() as u64;
        }
    }
    if dict_entries > 0 {
        let log_d = (dict_entries.max(2) as f64).log2().ceil() as u64;
        ctx.charge(
            "groupby.dict_sort",
            &WorkProfile::scan(dict_sort_bytes)
                .with_streamed(dict_sort_bytes * log_d / 2)
                .with_flops(dict_entries * log_d)
                .with_rows(dict_entries)
                .with_launches(2),
        );
    }
}

/// Group ids of the sort-based strategy in key order (nulls first, then
/// each column's natural order), read off the keys `enc` already holds:
/// first rows ascend with group id, so ordering them orders the groups.
/// This sort is a real kernel (the libcudf behaviour the paper blames for
/// Q10/Q18), so it is charged as its own span rather than riding along for
/// free.
fn output_order(ctx: &GpuContext, keys: &[&Array], enc: &RowKeys, groups: &DenseIds) -> Vec<usize> {
    let (num_rows, num_groups) = (groups.ids.len(), groups.first_rows.len());
    let first_rows = groups.first_rows.iter().copied();
    let order = enc.order(first_rows, |row| groups.ids[row] as usize);
    if num_groups > 1 {
        let key_row_bytes = key_bytes(keys) / (num_rows.max(1) as u64);
        let sorted_bytes = key_row_bytes * num_groups as u64;
        let log_k = (num_groups.max(2) as f64).log2().ceil() as u64;
        ctx.charge(
            "groupby.order",
            &WorkProfile::scan(sorted_bytes)
                .with_streamed(sorted_bytes * log_k / 2)
                .with_flops(num_groups as u64 * log_k)
                .with_rows(num_groups as u64)
                .with_launches(2),
        );
    }
    order
}

/// Call `f(group, value)` for every non-NULL row of `lane`, ascending.
fn for_each_valid<L: LaneType>(lane: &Lane<'_, L>, ids: &[u32], mut f: impl FnMut(usize, L)) {
    match lane {
        Lane::Col(values, None) => with_values!(*values, |values| (ids.iter().zip(values))
            .for_each(|(&g, &v)| f(g as usize, L::of(v)))),
        Lane::Col(values, Some(valid)) => with_values!(*values, |values| {
            for (row, (&g, &v)) in ids.iter().zip(values).enumerate() {
                if valid.get(row) {
                    f(g as usize, L::of(v));
                }
            }
        }),
        Lane::Const(Some(c)) => ids.iter().for_each(|&g| f(g as usize, *c)),
        Lane::Const(None) => {}
    }
}

/// `COUNT`: per group, the rows `counted` accepts.
fn count(ids: &[u32], groups: usize, mut counted: impl FnMut(usize) -> bool) -> Array {
    let mut counts = vec![0i64; groups];
    for (row, &g) in ids.iter().enumerate() {
        counts[g as usize] += counted(row) as i64;
    }
    Array::Int64(PrimitiveArray::from_values(counts))
}

/// `SUM`: NULL for a group with no non-NULL input.
fn sum<T: LaneType>(
    lane: &Lane<'_, T>,
    ids: &[u32],
    groups: usize,
    add: impl Fn(T, T) -> T,
) -> PrimitiveArray<T> {
    let mut sums = vec![T::default(); groups];
    let mut seen = vec![false; groups];
    for_each_valid(lane, ids, |g, v| {
        sums[g] = add(sums[g], v);
        seen[g] = true;
    });
    PrimitiveArray::from_parts(sums, Some(Bitmap::from_iter(seen)))
}

/// One aggregate's output column, one row per group in group-id order.
pub(crate) fn accumulate(
    agg: &AggRequest<'_>,
    out: DataType,
    ids: &[u32],
    groups: usize,
) -> Result<Array> {
    let input = match (agg.kind, agg.input) {
        (AggFunc::CountStar, _) => return Ok(count(ids, groups, |_| true)),
        (_, Some(input)) => input,
        // An absent input reads as a column of NULLs.
        (AggFunc::Count | AggFunc::CountDistinct, None) => {
            return Ok(count(ids, groups, |_| false))
        }
        (_, None) => return Ok(Array::from_scalar(&Scalar::Null, out, groups)),
    };
    Ok(match agg.kind {
        AggFunc::CountStar | AggFunc::Count => match input.validity() {
            Some(valid) => count(ids, groups, |row| valid.get(row)),
            None => count(ids, groups, |_| true),
        },
        AggFunc::CountDistinct => {
            // A value's identity is its dense id among the column's values.
            let values = row_keys(&[input], ids.len());
            let value_ids = values.dense_ids().ids;
            let mut seen: FxHashSet<u64> = FxHashSet::default();
            count(ids, groups, |row| {
                !values.has_null(row)
                    && seen.insert((ids[row] as u64) << 32 | value_ids[row] as u64)
            })
        }
        AggFunc::Sum if out == DataType::Float64 => {
            let lane = float_lane(&Datum::Column(input));
            Array::Float64(sum(&lane, ids, groups, |a, b| a + b))
        }
        AggFunc::Sum => {
            let lane = int_lane(&Datum::Column(input));
            Array::Int64(sum(&lane, ids, groups, i64::wrapping_add))
        }
        AggFunc::Avg => {
            let mut sums = vec![0f64; groups];
            let mut counts = vec![0i64; groups];
            for_each_valid(&float_lane(&Datum::Column(input)), ids, |g, v| {
                sums[g] += v;
                counts[g] += 1;
            });
            let means = sums.iter().zip(&counts).map(|(s, &n)| s / n as f64);
            Array::Float64(PrimitiveArray::from_parts(
                means.collect(),
                Some(Bitmap::from_iter(counts.iter().map(|&n| n > 0))),
            ))
        }
        AggFunc::Min | AggFunc::Max => {
            // The row holding each group's best value (the earliest on
            // ties), `None` for a group with no non-NULL input: the
            // column's encoded keys order as its values do, and a MAX's
            // descend, so the best value has the least key.
            let max = [agg.kind == AggFunc::Max];
            let values = RowKeys::encode(&[input], &max, ids.len(), true);
            let mut best: Vec<Option<usize>> = vec![None; groups];
            for (row, &g) in ids.iter().enumerate() {
                let slot = &mut best[g as usize];
                if !values.has_null(row) && slot.is_none_or(|cur| values.less(row, cur)) {
                    *slot = Some(row);
                }
            }
            // MIN / MAX of an encoded column is a plain string column.
            input.gather(&best).decoded()
        }
    })
}

/// Cost model. Hash path: one streamed pass over keys + agg inputs plus
/// random accumulator traffic; with few groups, GPU atomics contend on the
/// same accumulators — surcharge mirrors the paper's Q1 observation. Sort
/// path: n log n key-exchange passes (the paper's Q10/Q18 penalty).
fn charge_group_by(
    ctx: &GpuContext,
    keys: &[&Array],
    aggs: &[AggRequest<'_>],
    num_rows: usize,
    num_groups: usize,
    sort_based: bool,
) {
    let input_bytes = key_bytes(keys)
        + aggs
            .iter()
            .filter_map(|a| a.input)
            .map(|c| c.byte_size() as u64)
            .sum::<u64>();
    let mut work = WorkProfile::scan(input_bytes)
        .with_random((num_rows * 4 * aggs.len().max(1)) as u64)
        .with_flops((num_rows * (aggs.len() + keys.len())) as u64)
        .with_rows(num_rows as u64);
    if sort_based {
        let log_n = (num_rows.max(2) as f64).log2().ceil() as u64;
        work = work
            .with_streamed(key_bytes(keys) * log_n / 2)
            .with_launches(4);
    } else if num_groups > 0 && num_groups < 256 {
        // Atomic contention surcharge: the fewer the groups, the hotter the
        // accumulator cache lines.
        let contention = (256 / num_groups.max(1)).min(6) as u64;
        work = work.with_random((num_rows as u64) * 4 * contention);
    }
    ctx.charge(
        if sort_based {
            "groupby.sort"
        } else {
            "groupby.hash"
        },
        &work,
    );
}

/// `AVG` from its merged two-phase partials: `sum / count`, NULL where the
/// sum is NULL or nothing was counted.
pub fn avg_of(sum: &Scalar, count: &Scalar) -> Scalar {
    match (sum.as_f64(), count.as_i64()) {
        (Some(total), Some(rows)) if rows > 0 => Scalar::Float64(total / rows as f64),
        _ => Scalar::Null,
    }
}

/// The AVG divide that finishes a grouped two-phase aggregation
/// (`sirius_plan::expr::two_phase`): [`avg_of`] per group, over the merged
/// sum and count columns.
pub fn finalize_avg(ctx: &GpuContext, sum: &Array, count: &Array) -> Array {
    let means: Vec<Scalar> = (0..sum.len())
        .map(|g| avg_of(&sum.scalar(g), &count.scalar(g)))
        .collect();
    ctx.charge(
        "groupby.finalize_avg",
        &WorkProfile::scan((sum.len() * 16) as u64)
            .with_flops(sum.len() as u64)
            .with_rows(sum.len() as u64),
    );
    Array::from_scalars(&means, DataType::Float64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, same_values, Gen, Kind, KINDS};
    use crate::test_ctx;
    use proptest::prelude::*;

    proptest! {
        /// Key columns, aggregate columns (floats bit for bit), group order
        /// on both strategies, every output `byte_size()` and the charged
        /// device time against the per-row `AggState` implementation.
        #[test]
        fn prop_group_by_matches_the_scalar_reference(
            seed in any::<u64>(),
            rows in 0usize..70,
            key_columns in 1usize..4,
        ) {
            let mut g = Gen(seed);
            let keys = g.columns(&KINDS, key_columns, rows);
            let keys: Vec<&Array> = keys.iter().collect();
            let mut column = |kinds: &[Kind]| g.columns(kinds, 1, rows).remove(0);
            let summable = [Kind::Int32, Kind::Int64, Kind::Float64];
            let inputs = [
                (AggFunc::CountStar, None),
                (AggFunc::Count, Some(column(&KINDS))),
                (AggFunc::CountDistinct, Some(column(&KINDS))),
                (AggFunc::Sum, Some(column(&summable))),
                (AggFunc::Sum, Some(column(&summable))),
                (AggFunc::Avg, Some(column(&KINDS))),
                (AggFunc::Min, Some(column(&KINDS))),
                (AggFunc::Max, Some(column(&KINDS))),
            ];
            let aggs: Vec<AggRequest<'_>> = (inputs.iter())
                .map(|(kind, input)| AggRequest { kind: *kind, input: input.as_ref() })
                .collect();

            let (ctx, ref_ctx) = (test_ctx(), test_ctx());
            let got = group_by(&ctx, &keys, &aggs, rows).unwrap();
            let expected = reference::group_by(&ref_ctx, &keys, &aggs, rows).unwrap();
            prop_assert_eq!(got.num_groups, expected.num_groups);
            prop_assert_eq!(got.sort_based, expected.sort_based);
            let columns = |r: &GroupByResult| -> Vec<Array> {
                r.key_columns.iter().chain(&r.agg_columns).cloned().collect()
            };
            for (i, (a, b)) in columns(&got).iter().zip(&columns(&expected)).enumerate() {
                prop_assert!(same_values(a, b), "column {}: {:?} vs {:?}", i, a, b);
                prop_assert_eq!(a.byte_size(), b.byte_size(), "column {}", i);
                prop_assert_eq!(a.is_dict(), b.is_dict(), "column {}", i);
            }
            prop_assert_eq!(ctx.device().elapsed(), ref_ctx.device().elapsed());
        }
    }

    #[test]
    fn unsupported_aggregates_fail_as_before() {
        let ctx = test_ctx();
        let k = Array::from_i64([1, 1]);
        let s = Array::from_strs(["a", "b"]);
        for kind in [AggFunc::Sum, AggFunc::Min] {
            let input = (kind == AggFunc::Sum).then_some(&s);
            let aggs = [AggRequest { kind, input }];
            assert!(group_by(&ctx, &[&k], &aggs, 2).is_err());
            assert!(reference::group_by(&ctx, &[&k], &aggs, 2).is_err());
        }
    }

    #[test]
    fn hash_groupby_sums() {
        let ctx = test_ctx();
        let k = Array::from_i64([1, 2, 1, 2, 1]);
        let v = Array::from_i64([10, 20, 30, 40, 50]);
        let r = group_by(
            &ctx,
            &[&k],
            &[
                AggRequest {
                    kind: AggFunc::Sum,
                    input: Some(&v),
                },
                AggRequest {
                    kind: AggFunc::CountStar,
                    input: None,
                },
            ],
            5,
        )
        .unwrap();
        assert!(!r.sort_based);
        assert_eq!(r.num_groups, 2);
        // First-appearance order: group 1 then group 2.
        assert_eq!(r.key_columns[0].i64_value(0), Some(1));
        assert_eq!(r.agg_columns[0].i64_value(0), Some(90));
        assert_eq!(r.agg_columns[0].i64_value(1), Some(60));
        assert_eq!(r.agg_columns[1].i64_value(0), Some(3));
    }

    #[test]
    fn string_keys_use_sort_strategy_and_key_order() {
        let ctx = test_ctx();
        let k = Array::from_strs(["b", "a", "b"]);
        let v = Array::from_f64([1.0, 2.0, 3.0]);
        let r = group_by(
            &ctx,
            &[&k],
            &[AggRequest {
                kind: AggFunc::Sum,
                input: Some(&v),
            }],
            3,
        )
        .unwrap();
        assert!(r.sort_based);
        assert_eq!(r.key_columns[0].utf8_value(0), Some("a"));
        assert_eq!(r.key_columns[0].utf8_value(1), Some("b"));
        assert_eq!(r.agg_columns[0].f64_value(1), Some(4.0));
    }

    #[test]
    fn avg_min_max_count() {
        let ctx = test_ctx();
        let k = Array::from_i64([7, 7, 7]);
        let v = Array::from_i64([3, 1, 2]);
        let r = group_by(
            &ctx,
            &[&k],
            &[
                AggRequest {
                    kind: AggFunc::Avg,
                    input: Some(&v),
                },
                AggRequest {
                    kind: AggFunc::Min,
                    input: Some(&v),
                },
                AggRequest {
                    kind: AggFunc::Max,
                    input: Some(&v),
                },
                AggRequest {
                    kind: AggFunc::Count,
                    input: Some(&v),
                },
            ],
            3,
        )
        .unwrap();
        assert_eq!(r.agg_columns[0].f64_value(0), Some(2.0));
        assert_eq!(r.agg_columns[1].i64_value(0), Some(1));
        assert_eq!(r.agg_columns[2].i64_value(0), Some(3));
        assert_eq!(r.agg_columns[3].i64_value(0), Some(3));
    }

    #[test]
    fn count_distinct_and_null_handling() {
        let ctx = test_ctx();
        let k = Array::from_i64([1, 1, 1, 1]);
        let v = Array::from_scalars(
            &[
                Scalar::Int64(5),
                Scalar::Int64(5),
                Scalar::Null,
                Scalar::Int64(6),
            ],
            DataType::Int64,
        );
        let r = group_by(
            &ctx,
            &[&k],
            &[
                AggRequest {
                    kind: AggFunc::CountDistinct,
                    input: Some(&v),
                },
                AggRequest {
                    kind: AggFunc::Count,
                    input: Some(&v),
                },
                AggRequest {
                    kind: AggFunc::CountStar,
                    input: None,
                },
            ],
            4,
        )
        .unwrap();
        assert_eq!(r.agg_columns[0].i64_value(0), Some(2)); // 5, 6
        assert_eq!(r.agg_columns[1].i64_value(0), Some(3)); // non-null
        assert_eq!(r.agg_columns[2].i64_value(0), Some(4)); // rows
    }

    #[test]
    fn multi_key_groups() {
        let ctx = test_ctx();
        let k1 = Array::from_i64([1, 1, 2]);
        let k2 = Array::from_bool([true, false, true]);
        let r = group_by(
            &ctx,
            &[&k1, &k2],
            &[AggRequest {
                kind: AggFunc::CountStar,
                input: None,
            }],
            3,
        )
        .unwrap();
        assert_eq!(r.num_groups, 3);
    }

    #[test]
    fn null_keys_form_a_group() {
        let ctx = test_ctx();
        let k = Array::from_scalars(
            &[Scalar::Null, Scalar::Int64(1), Scalar::Null],
            DataType::Int64,
        );
        let r = group_by(
            &ctx,
            &[&k],
            &[AggRequest {
                kind: AggFunc::CountStar,
                input: None,
            }],
            3,
        )
        .unwrap();
        assert_eq!(r.num_groups, 2);
        // Null group appeared first.
        assert_eq!(r.key_columns[0].scalar(0), Scalar::Null);
        assert_eq!(r.agg_columns[0].i64_value(0), Some(2));
    }

    #[test]
    fn few_groups_cost_more_per_row_than_many() {
        // The contention surcharge: same row count, fewer groups ⇒ more time.
        let ctx1 = test_ctx();
        let n = 10_000usize;
        let few = Array::from_i64((0..n as i64).map(|i| i % 4));
        group_by(
            &ctx1,
            &[&few],
            &[AggRequest {
                kind: AggFunc::CountStar,
                input: None,
            }],
            n,
        )
        .unwrap();
        let ctx2 = test_ctx();
        let many = Array::from_i64((0..n as i64).map(|i| i % 100_000));
        group_by(
            &ctx2,
            &[&many],
            &[AggRequest {
                kind: AggFunc::CountStar,
                input: None,
            }],
            n,
        )
        .unwrap();
        assert!(ctx1.device().elapsed() > ctx2.device().elapsed());
    }

    #[test]
    fn dict_keys_match_decoded_and_cost_less() {
        let n = 400_000usize;
        let words = [
            "whitesmoke-sandy-hued customer comment",
            "aquamarine-metallic packaging phrase",
            "burnished-rose special requests note",
            "azure furious deposit instruction",
        ];
        let decoded = Array::from_strs((0..n).map(|i| words[i % 4]));
        let encoded = decoded.dict_encode();
        let v = Array::from_i64((0..n as i64).map(|i| i % 100));
        let run = |ctx: &crate::GpuContext, key: &Array| {
            group_by(
                ctx,
                &[key],
                &[AggRequest {
                    kind: AggFunc::Sum,
                    input: Some(&v),
                }],
                n,
            )
            .unwrap()
        };
        let ctx_dec = test_ctx();
        let plain = run(&ctx_dec, &decoded);
        let ctx_enc = test_ctx();
        let dict = run(&ctx_enc, &encoded);
        assert!(plain.sort_based && dict.sort_based);
        assert_eq!(dict.num_groups, plain.num_groups);
        // Same values in the same (sorted) order, and the encoded run's key
        // output is still dictionary-encoded, sharing the input dictionary.
        for g in 0..plain.num_groups {
            assert_eq!(
                dict.key_columns[0].utf8_value(g),
                plain.key_columns[0].utf8_value(g)
            );
            assert_eq!(
                dict.agg_columns[0].scalar(g),
                plain.agg_columns[0].scalar(g)
            );
        }
        assert!(dict.key_columns[0].is_dict());
        assert!(std::sync::Arc::ptr_eq(
            dict.key_columns[0].as_dict().unwrap().values(),
            encoded.as_dict().unwrap().values(),
        ));
        // Codes stream fewer bytes than payload: encoded run is cheaper
        // even after paying for the dictionary sort and the order span.
        assert!(ctx_enc.device().elapsed() < ctx_dec.device().elapsed());
    }

    #[test]
    fn sort_based_output_order_is_charged() {
        let ctx = test_ctx();
        let sink = sirius_hw::TraceSink::new();
        ctx.device().set_trace(sink.clone());
        let k = Array::from_strs(["b", "a", "c", "a"]);
        group_by(
            &ctx,
            &[&k],
            &[AggRequest {
                kind: AggFunc::CountStar,
                input: None,
            }],
            4,
        )
        .unwrap();
        let events = sink.events();
        assert!(
            events.iter().any(|e| e.label == "groupby.order"),
            "output_order sort must appear as its own charged span"
        );
        // Replay of the recorded spans reproduces the ledger exactly.
        assert_eq!(
            sirius_hw::ledger::replay(&events).total(),
            ctx.device().breakdown().total()
        );
    }

    #[test]
    fn finalize_avg_divides_and_nulls_what_was_not_counted() {
        let ctx = test_ctx();
        let sum = Array::from_scalars(&[Scalar::Int64(10), Scalar::Null], DataType::Int64);
        let count = Array::from_i64([4, 0]);
        let avg = finalize_avg(&ctx, &sum, &count);
        assert_eq!(avg.scalar(0), Scalar::Float64(2.5));
        assert_eq!(avg.scalar(1), Scalar::Null);
        assert_eq!(
            avg_of(&Scalar::Int64(10), &Scalar::Int64(4)),
            Scalar::Float64(2.5)
        );
        assert_eq!(avg_of(&Scalar::Null, &Scalar::Int64(0)), Scalar::Null);
        assert!(ctx.device().elapsed() > std::time::Duration::ZERO);
    }

    #[test]
    fn zero_rows() {
        let ctx = test_ctx();
        let k = Array::from_i64([]);
        let r = group_by(
            &ctx,
            &[&k],
            &[AggRequest {
                kind: AggFunc::CountStar,
                input: None,
            }],
            0,
        )
        .unwrap();
        assert_eq!(r.num_groups, 0);
        assert_eq!(r.key_columns[0].len(), 0);
    }
}
