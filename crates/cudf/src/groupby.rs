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

use crate::binary::{float_lane, int_lane, Datum, Lane};
use crate::hash::{key_bytes, row_keys, FxHashSet};
use crate::sort::compare_cells;
use crate::{GpuContext, KernelError, Result};
use sirius_columnar::{Array, Bitmap, DataType, PrimitiveArray, Scalar};
use sirius_hw::WorkProfile;
use std::cmp::Ordering;

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(expr)` — counts non-null values.
    Count,
    /// `COUNT(DISTINCT expr)`.
    CountDistinct,
    /// `SUM(expr)` — Int64 for integer input, Float64 for float.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)` — always Float64.
    Avg,
}

impl AggKind {
    /// Output type given the input type (`None` input for `CountStar`).
    pub fn result_type(&self, input: Option<DataType>) -> Result<DataType> {
        Ok(match self {
            AggKind::CountStar | AggKind::Count | AggKind::CountDistinct => DataType::Int64,
            AggKind::Avg => DataType::Float64,
            AggKind::Sum => match input {
                Some(DataType::Float64) => DataType::Float64,
                Some(DataType::Int32 | DataType::Int64) => DataType::Int64,
                other => return Err(KernelError::UnsupportedTypes(format!("SUM on {other:?}"))),
            },
            AggKind::Min | AggKind::Max => input
                .ok_or_else(|| KernelError::UnsupportedTypes("MIN/MAX need an input".into()))?,
        })
    }
}

/// One aggregation over an optional input column (`None` for `COUNT(*)`).
pub struct AggRequest<'a> {
    /// The aggregate function.
    pub kind: AggKind,
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
    let out_types: Vec<DataType> = aggs
        .iter()
        .map(|a| a.kind.result_type(a.input.map(|c| c.data_type())))
        .collect::<Result<_>>()?;

    // Assign each row a dense group id, remembering the first row where
    // each group appeared (its representative, for key materialization).
    let proxies = dict_rank_proxies(ctx, keys);
    let proxy_refs: Vec<&Array> = (keys.iter().zip(&proxies))
        .map(|(k, p)| p.as_ref().unwrap_or(k))
        .collect();
    let groups = row_keys(&proxy_refs, num_rows).dense_ids();
    let num_groups = groups.first_rows.len();
    let order = output_order(ctx, &proxy_refs, &groups.first_rows, sort_based, num_rows);

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

/// Dictionary-encoded key columns contribute 4-byte rank proxies instead of
/// decoded strings: `rank[code]` equates and orders exactly like the value
/// it encodes, so group assignment and the sort-based output order are
/// unchanged while the encoded keys stop carrying payload bytes. The
/// one-time dictionary sort that produces the ranks is charged here.
fn dict_rank_proxies(ctx: &GpuContext, keys: &[&Array]) -> Vec<Option<Array>> {
    let mut dict_sort_bytes = 0u64;
    let mut dict_entries = 0u64;
    let proxies = keys
        .iter()
        .map(|k| match k {
            Array::Dict(d) => {
                let ranks = d.value_ranks();
                dict_sort_bytes += d.dict_byte_size() as u64;
                dict_entries += d.values().len() as u64;
                let rank = |&c: &i32| ranks.get(c as usize).copied().unwrap_or(0);
                Some(Array::Int32(PrimitiveArray::from_parts(
                    d.codes().iter().map(rank).collect(),
                    d.validity().cloned(),
                )))
            }
            _ => None,
        })
        .collect();
    if dict_entries > 0 {
        let log_d = (dict_entries.max(2) as f64).log2().ceil() as u64;
        ctx.charge_named(
            "groupby.dict_sort",
            &WorkProfile::scan(dict_sort_bytes)
                .with_streamed(dict_sort_bytes * log_d / 2)
                .with_flops(dict_entries * log_d)
                .with_rows(dict_entries)
                .with_launches(2),
        );
    }
    proxies
}

/// Group ids in output order. The sort-based strategy orders groups by key
/// (nulls first, then each column's natural order). This sort is a real
/// kernel (the libcudf behaviour the paper blames for Q10/Q18), so it is
/// charged as its own span rather than riding along for free.
fn output_order(
    ctx: &GpuContext,
    keys: &[&Array],
    first_rows: &[usize],
    sort_based: bool,
    num_rows: usize,
) -> Vec<usize> {
    let num_groups = first_rows.len();
    let mut order: Vec<usize> = (0..num_groups).collect();
    if !sort_based {
        return order;
    }
    order.sort_by(|&a, &b| {
        let mut cells = (keys.iter()).map(|k| compare_cells(k, first_rows[a], first_rows[b]));
        cells.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    });
    if num_groups > 1 {
        let key_row_bytes = key_bytes(keys) / (num_rows.max(1) as u64);
        let sorted_bytes = key_row_bytes * num_groups as u64;
        let log_k = (num_groups.max(2) as f64).log2().ceil() as u64;
        ctx.charge_named(
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
fn for_each_valid<T: Copy>(lane: &Lane<'_, T>, ids: &[u32], mut f: impl FnMut(usize, T)) {
    match lane {
        Lane::Col(values, None) => {
            (ids.iter().zip(values.iter())).for_each(|(&g, &v)| f(g as usize, v))
        }
        Lane::Col(values, Some(valid)) => {
            for (row, (&g, &v)) in ids.iter().zip(values.iter()).enumerate() {
                if valid.get(row) {
                    f(g as usize, v);
                }
            }
        }
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
fn sum<T: Copy + Default>(
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

/// `MIN` / `MAX`: the row holding each group's best value (the earliest on
/// ties), `None` for a group with no non-NULL input.
fn best_rows<T: Copy>(
    ids: &[u32],
    groups: usize,
    get: impl Fn(usize) -> Option<T>,
    wins: impl Fn(T, T) -> bool,
) -> Vec<Option<usize>> {
    let mut best: Vec<Option<(usize, T)>> = vec![None; groups];
    for (row, &g) in ids.iter().enumerate() {
        if let Some(v) = get(row) {
            let slot = &mut best[g as usize];
            if slot.is_none_or(|(_, cur)| wins(v, cur)) {
                *slot = Some((row, v));
            }
        }
    }
    best.into_iter().map(|b| b.map(|(row, _)| row)).collect()
}

/// One aggregate's output column, one row per group in group-id order.
pub(crate) fn accumulate(
    agg: &AggRequest<'_>,
    out: DataType,
    ids: &[u32],
    groups: usize,
) -> Result<Array> {
    let input = match (agg.kind, agg.input) {
        (AggKind::CountStar, _) => return Ok(count(ids, groups, |_| true)),
        (_, Some(input)) => input,
        // An absent input reads as a column of NULLs.
        (AggKind::Count | AggKind::CountDistinct, None) => {
            return Ok(count(ids, groups, |_| false))
        }
        (_, None) => return Ok(Array::from_scalar(&Scalar::Null, out, groups)),
    };
    Ok(match agg.kind {
        AggKind::CountStar | AggKind::Count => match input.validity() {
            Some(valid) => count(ids, groups, |row| valid.get(row)),
            None => count(ids, groups, |_| true),
        },
        AggKind::CountDistinct => {
            // A value's identity is its dense id among the column's values.
            let values = row_keys(&[input], ids.len());
            let value_ids = values.dense_ids().ids;
            let mut seen: FxHashSet<u64> = FxHashSet::default();
            count(ids, groups, |row| {
                !values.has_null(row)
                    && seen.insert((ids[row] as u64) << 32 | value_ids[row] as u64)
            })
        }
        AggKind::Sum if out == DataType::Float64 => {
            let lane = float_lane(&Datum::Column(input));
            Array::Float64(sum(&lane, ids, groups, |a, b| a + b))
        }
        AggKind::Sum => {
            let lane = int_lane(&Datum::Column(input));
            Array::Int64(sum(&lane, ids, groups, i64::wrapping_add))
        }
        AggKind::Avg => {
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
        AggKind::Min | AggKind::Max => {
            let wins = |o: Ordering| match agg.kind {
                AggKind::Min => o.is_lt(),
                _ => o.is_gt(),
            };
            let best = match input {
                Array::Int32(a) | Array::Date32(a) => {
                    best_rows(ids, groups, |r| a.value(r), |x, y| wins(x.cmp(&y)))
                }
                Array::Int64(a) => best_rows(ids, groups, |r| a.value(r), |x, y| wins(x.cmp(&y))),
                Array::Float64(a) => {
                    best_rows(ids, groups, |r| a.value(r), |x, y| wins(x.total_cmp(&y)))
                }
                Array::Bool(a) => best_rows(ids, groups, |r| a.value(r), |x, y| wins(x.cmp(&y))),
                Array::Utf8(a) => best_rows(ids, groups, |r| a.value(r), |x, y| wins(x.cmp(y))),
                Array::Dict(a) => best_rows(ids, groups, |r| a.value(r), |x, y| wins(x.cmp(y))),
            };
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
    ctx.charge_named(
        if sort_based {
            "groupby.sort"
        } else {
            "groupby.hash"
        },
        &work,
    );
}

/// One partial aggregate computed per morsel.
#[derive(Debug, Clone, Copy)]
pub struct PartialSpec {
    /// Aggregate to run on each morsel.
    pub kind: AggKind,
    /// Index of the originating aggregate request, for input resolution.
    pub source: usize,
}

#[derive(Debug, Clone, Copy)]
enum FinalSpec {
    /// Final column is merged partial column `i` unchanged.
    Passthrough(usize),
    /// AVG decomposed into partials: divide merged sum by merged count.
    AvgOf {
        /// Partial column holding the per-group sum.
        sum: usize,
        /// Partial column holding the per-group non-null count.
        count: usize,
    },
}

/// Decomposition of a set of aggregates into morsel-wise partials.
///
/// Morsel-driven group-by computes per-morsel partial tables, concatenates
/// them, and merges with a second keyed aggregation:
///
/// * `SUM` partials merge with `SUM`;
/// * `COUNT`/`COUNT(*)` partials merge with `SUM` (counts add);
/// * `MIN`/`MAX` partials merge with themselves;
/// * `AVG` decomposes into `SUM` + `COUNT` partials and divides at the end.
///
/// `COUNT(DISTINCT)` cannot be decomposed without shipping whole distinct
/// sets, so [`PartialAggPlan::new`] returns `None` and the engine falls back
/// to the single-pass whole-column path.
pub struct PartialAggPlan {
    partials: Vec<PartialSpec>,
    finals: Vec<FinalSpec>,
}

impl PartialAggPlan {
    /// Build the decomposition, or `None` if any aggregate cannot be
    /// computed morsel-wise.
    pub fn new(kinds: &[AggKind]) -> Option<PartialAggPlan> {
        let mut partials = Vec::new();
        let mut finals = Vec::new();
        for (source, kind) in kinds.iter().enumerate() {
            match kind {
                AggKind::CountDistinct => return None,
                AggKind::Avg => {
                    let sum = partials.len();
                    partials.push(PartialSpec {
                        kind: AggKind::Sum,
                        source,
                    });
                    partials.push(PartialSpec {
                        kind: AggKind::Count,
                        source,
                    });
                    finals.push(FinalSpec::AvgOf {
                        sum,
                        count: sum + 1,
                    });
                }
                k => {
                    finals.push(FinalSpec::Passthrough(partials.len()));
                    partials.push(PartialSpec { kind: *k, source });
                }
            }
        }
        Some(PartialAggPlan { partials, finals })
    }

    /// The partial aggregates to run on each morsel, in partial-column order.
    pub fn partials(&self) -> &[PartialSpec] {
        &self.partials
    }

    /// The aggregate that merges partial column `i` across morsels.
    pub fn merge_kind(&self, i: usize) -> AggKind {
        // `new` only emits Sum, Count, CountStar, Min and Max partials.
        match self.partials[i].kind {
            AggKind::Min => AggKind::Min,
            AggKind::Max => AggKind::Max,
            _ => AggKind::Sum,
        }
    }

    /// Produce the final per-original-aggregate columns from the merged
    /// partial columns (one array per partial, one row per group).
    pub fn finalize(&self, ctx: &GpuContext, merged: &[Array]) -> Result<Vec<Array>> {
        let mut out = Vec::with_capacity(self.finals.len());
        for f in &self.finals {
            match *f {
                FinalSpec::Passthrough(i) => out.push(merged[i].clone()),
                FinalSpec::AvgOf { sum, count } => {
                    let (s, n) = (&merged[sum], &merged[count]);
                    let scalars: Vec<Scalar> = (0..s.len())
                        .map(|g| match (s.scalar(g).as_f64(), n.scalar(g).as_i64()) {
                            (Some(total), Some(rows)) if rows > 0 => {
                                Scalar::Float64(total / rows as f64)
                            }
                            _ => Scalar::Null,
                        })
                        .collect();
                    ctx.charge_named(
                        "groupby.finalize_avg",
                        &WorkProfile::scan((s.len() * 16) as u64)
                            .with_flops(s.len() as u64)
                            .with_rows(s.len() as u64),
                    );
                    out.push(Array::from_scalars(&scalars, DataType::Float64));
                }
            }
        }
        Ok(out)
    }

    /// Scalar form of [`finalize`](Self::finalize) for ungrouped reductions:
    /// `merged` holds one merged scalar per partial.
    pub fn finalize_scalars(&self, merged: &[Scalar]) -> Vec<Scalar> {
        self.finals
            .iter()
            .map(|f| match *f {
                FinalSpec::Passthrough(i) => merged[i].clone(),
                FinalSpec::AvgOf { sum, count } => {
                    match (merged[sum].as_f64(), merged[count].as_i64()) {
                        (Some(total), Some(rows)) if rows > 0 => {
                            Scalar::Float64(total / rows as f64)
                        }
                        _ => Scalar::Null,
                    }
                }
            })
            .collect()
    }
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
                (AggKind::CountStar, None),
                (AggKind::Count, Some(column(&KINDS))),
                (AggKind::CountDistinct, Some(column(&KINDS))),
                (AggKind::Sum, Some(column(&summable))),
                (AggKind::Sum, Some(column(&summable))),
                (AggKind::Avg, Some(column(&KINDS))),
                (AggKind::Min, Some(column(&KINDS))),
                (AggKind::Max, Some(column(&KINDS))),
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
        for kind in [AggKind::Sum, AggKind::Min] {
            let input = (kind == AggKind::Sum).then_some(&s);
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
                    kind: AggKind::Sum,
                    input: Some(&v),
                },
                AggRequest {
                    kind: AggKind::CountStar,
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
                kind: AggKind::Sum,
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
                    kind: AggKind::Avg,
                    input: Some(&v),
                },
                AggRequest {
                    kind: AggKind::Min,
                    input: Some(&v),
                },
                AggRequest {
                    kind: AggKind::Max,
                    input: Some(&v),
                },
                AggRequest {
                    kind: AggKind::Count,
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
                    kind: AggKind::CountDistinct,
                    input: Some(&v),
                },
                AggRequest {
                    kind: AggKind::Count,
                    input: Some(&v),
                },
                AggRequest {
                    kind: AggKind::CountStar,
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
                kind: AggKind::CountStar,
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
                kind: AggKind::CountStar,
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
                kind: AggKind::CountStar,
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
                kind: AggKind::CountStar,
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
                    kind: AggKind::Sum,
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
                kind: AggKind::CountStar,
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
    fn partial_merge_matches_single_pass() {
        let ctx = test_ctx();
        let keys: Vec<i64> = (0..50).map(|i| i % 5).collect();
        let vals: Vec<Scalar> = (0..50)
            .map(|i| {
                if i % 7 == 0 {
                    Scalar::Null
                } else {
                    Scalar::Int64(i)
                }
            })
            .collect();
        let k = Array::from_i64(keys.iter().copied());
        let v = Array::from_scalars(&vals, DataType::Int64);
        let kinds = [
            AggKind::Sum,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
            AggKind::Count,
        ];
        let whole = group_by(
            &ctx,
            &[&k],
            &kinds
                .iter()
                .map(|&kind| AggRequest {
                    kind,
                    input: Some(&v),
                })
                .collect::<Vec<_>>(),
            50,
        )
        .unwrap();

        // Morsel-wise: partials over three uneven chunks, concatenated,
        // merged with a second group-by, finalized.
        let plan = PartialAggPlan::new(&kinds).unwrap();
        let mut part_keys: Vec<Scalar> = Vec::new();
        let mut part_cols: Vec<Vec<Scalar>> = vec![Vec::new(); plan.partials().len()];
        for chunk in [0..13, 13..31, 31..50] {
            let mk = Array::from_i64(keys[chunk.clone()].iter().copied());
            let mv = Array::from_scalars(&vals[chunk], DataType::Int64);
            let reqs: Vec<AggRequest> = plan
                .partials()
                .iter()
                .map(|p| AggRequest {
                    kind: p.kind,
                    input: Some(&mv),
                })
                .collect();
            let partial = group_by(&ctx, &[&mk], &reqs, mk.len()).unwrap();
            for g in 0..partial.num_groups {
                part_keys.push(partial.key_columns[0].scalar(g));
                for (ci, col) in partial.agg_columns.iter().enumerate() {
                    part_cols[ci].push(col.scalar(g));
                }
            }
        }
        let merged_key = Array::from_scalars(&part_keys, DataType::Int64);
        let merged_inputs: Vec<Array> = part_cols
            .iter()
            .zip(plan.partials().iter())
            .map(|(scalars, p)| {
                let t = p.kind.result_type(Some(DataType::Int64)).unwrap();
                Array::from_scalars(scalars, t)
            })
            .collect();
        let merge_reqs: Vec<AggRequest> = merged_inputs
            .iter()
            .enumerate()
            .map(|(i, col)| AggRequest {
                kind: plan.merge_kind(i),
                input: Some(col),
            })
            .collect();
        let merged = group_by(&ctx, &[&merged_key], &merge_reqs, merged_key.len()).unwrap();
        let finals = plan.finalize(&ctx, &merged.agg_columns).unwrap();

        assert_eq!(merged.num_groups, whole.num_groups);
        for g in 0..whole.num_groups {
            // First-appearance order is preserved through the merge.
            assert_eq!(
                merged.key_columns[0].scalar(g),
                whole.key_columns[0].scalar(g)
            );
            for (ai, col) in finals.iter().enumerate() {
                assert_eq!(
                    col.scalar(g),
                    whole.agg_columns[ai].scalar(g),
                    "agg {ai} group {g}"
                );
            }
        }
    }

    #[test]
    fn partial_plan_gates_count_distinct() {
        assert!(PartialAggPlan::new(&[AggKind::Sum, AggKind::CountDistinct]).is_none());
        let plan = PartialAggPlan::new(&[AggKind::Avg]).unwrap();
        assert_eq!(plan.partials().len(), 2);
        assert_eq!(
            plan.finalize_scalars(&[Scalar::Int64(10), Scalar::Int64(4)]),
            vec![Scalar::Float64(2.5)]
        );
        assert_eq!(
            plan.finalize_scalars(&[Scalar::Null, Scalar::Int64(0)]),
            vec![Scalar::Null]
        );
    }

    #[test]
    fn zero_rows() {
        let ctx = test_ctx();
        let k = Array::from_i64([]);
        let r = group_by(
            &ctx,
            &[&k],
            &[AggRequest {
                kind: AggKind::CountStar,
                input: None,
            }],
            0,
        )
        .unwrap();
        assert_eq!(r.num_groups, 0);
        assert_eq!(r.key_columns[0].len(), 0);
    }
}
