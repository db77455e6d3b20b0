//! Test-only reference implementations: the per-row `Scalar` /
//! `Vec<Scalar>` kernels this crate shipped before its kernels were typed —
//! row keys, joins, group-by, the comparison sort, the binary kernels,
//! `unary_op`, `cast`, `substring` and `case_when` — kept verbatim as the
//! oracle of the
//! differential property tests (the typed kernels must reproduce their
//! values, their `byte_size()`s and their charges), plus the random-column
//! generator and the comparisons those tests share.
//!
//! Three lines differ from the code that was deleted, each a panic the typed
//! kernels do not have: integer `SUM` and date `±` wrap instead of
//! overflowing in debug builds, and `%` uses `wrapping_rem` (`i64::MIN % -1`
//! is 0, not a panic).

#![cfg(test)]

use crate::binary::Datum;
use crate::groupby::{agg_type, AggRequest, GroupByResult};
use crate::hash::{key_bytes, FxBuildHasher, FxHashSet};
use crate::sort::SortKey;
use crate::{test_ctx, GpuContext, KernelError, Result};
use proptest::prelude::*;
use sirius_columnar::ops::{AggFunc, BinOp, UnOp};
use sirius_columnar::scalar::date32_year;
use sirius_columnar::{Array, DataType, Field, PrimitiveArray, Scalar, Schema, Table};
use sirius_hw::WorkProfile;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::BuildHasher;

type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A multi-column row key, one `Scalar` per key column.
pub(crate) type Key = Vec<Scalar>;

/// The per-row read every reference kernel is written in.
pub(crate) trait Value {
    /// Element `i` (the scalar for broadcast operands).
    fn value(&self, i: usize) -> Scalar;
}

impl Value for Datum<'_> {
    fn value(&self, i: usize) -> Scalar {
        match self {
            Datum::Column(a) => a.scalar(i),
            Datum::Scalar(s) => s.clone(),
        }
    }
}

/// Per-row keys and `has_null` flags.
pub(crate) fn row_keys(columns: &[&Array], num_rows: usize) -> (Vec<Key>, Vec<bool>) {
    let mut keys = Vec::with_capacity(num_rows);
    let mut has_null = Vec::with_capacity(num_rows);
    for i in 0..num_rows {
        let mut k = Vec::with_capacity(columns.len());
        let mut null = false;
        for c in columns {
            let s = c.scalar(i);
            null |= s.is_null();
            k.push(s);
        }
        keys.push(k);
        has_null.push(null);
    }
    (keys, has_null)
}

/// `build_hash_table` + `probe_hash_table`: the `(left, right)` pair list.
pub(crate) fn join_pairs(
    right_keys: &[&Array],
    right_rows: usize,
    left_keys: &[&Array],
    left_offset: usize,
) -> (Vec<i32>, Vec<i32>) {
    let (rkeys, rnull) = row_keys(right_keys, right_rows);
    let mut table: FxHashMap<Key, Vec<i32>> = FxHashMap::default();
    for (i, key) in rkeys.into_iter().enumerate() {
        if !rnull[i] {
            table.entry(key).or_default().push(i as i32);
        }
    }
    let (lkeys, lnull) = row_keys(left_keys, left_keys[0].len());
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for (i, key) in lkeys.into_iter().enumerate() {
        if lnull[i] {
            continue;
        }
        for &r in table.get(&key).map(Vec::as_slice).unwrap_or_default() {
            left.push((left_offset + i) as i32);
            right.push(r);
        }
    }
    (left, right)
}

/// `unique::distinct`: the rows kept, in order.
pub(crate) fn distinct_rows(table: &Table) -> Vec<usize> {
    let cols: Vec<_> = table.columns().iter().collect();
    let (keys, _null) = row_keys(&cols, table.num_rows());
    let mut seen: FxHashSet<Key> = FxHashSet::default();
    let mut keep = Vec::new();
    for (i, k) in keys.into_iter().enumerate() {
        if seen.insert(k) {
            keep.push(i);
        }
    }
    keep
}

/// `sort::sort_indices`: a stable sort of the rows' `Scalar` keys by
/// `Scalar::cmp`, each key reversed when descending.
pub(crate) fn sort_indices(
    ctx: &GpuContext,
    keys: &[SortKey<'_>],
    num_rows: usize,
) -> Result<Vec<i32>> {
    let columns: Vec<&Array> = keys.iter().map(|k| k.column).collect();
    let (rows, _) = row_keys(&columns, num_rows);
    let mut idx: Vec<i32> = (0..num_rows as i32).collect();
    idx.sort_by(|&a, &b| {
        let cells = rows[a as usize].iter().zip(&rows[b as usize]);
        let mut orders = (keys.iter().zip(cells)).map(|(k, (x, y))| match k.ascending {
            true => x.cmp(y),
            false => y.cmp(x),
        });
        orders.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    });

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

/// The routing hash of every row: `hash_one((level, &key))`.
pub(crate) fn routing_hashes(columns: &[&Array], num_rows: usize, level: u32) -> Vec<u64> {
    let hasher = FxBuildHasher::default();
    let (keys, _) = row_keys(columns, num_rows);
    keys.iter()
        .map(|key| hasher.hash_one((level, key)))
        .collect()
}

/// Accumulating state for one aggregate within one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    Distinct(FxHashSet<Scalar>),
    SumI(i64, bool),
    SumF(f64, bool),
    MinMax(Option<Scalar>),
    Avg(f64, i64),
}

impl AggState {
    fn new(kind: AggFunc, input_type: Option<DataType>) -> AggState {
        match kind {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::Distinct(FxHashSet::default()),
            AggFunc::Sum => match input_type {
                Some(DataType::Float64) => AggState::SumF(0.0, false),
                _ => AggState::SumI(0, false),
            },
            AggFunc::Min | AggFunc::Max => AggState::MinMax(None),
            AggFunc::Avg => AggState::Avg(0.0, 0),
        }
    }

    fn update(&mut self, kind: AggFunc, value: Option<Scalar>) {
        match self {
            AggState::Count(c) => {
                let counts = match kind {
                    AggFunc::CountStar => true,
                    _ => value.map(|v| !v.is_null()).unwrap_or(false),
                };
                if counts {
                    *c += 1;
                }
            }
            AggState::Distinct(set) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        set.insert(v);
                    }
                }
            }
            AggState::SumI(s, seen) => {
                if let Some(v) = value.and_then(|v| v.as_i64()) {
                    *s = s.wrapping_add(v);
                    *seen = true;
                }
            }
            AggState::SumF(s, seen) => {
                if let Some(v) = value.and_then(|v| v.as_f64()) {
                    *s += v;
                    *seen = true;
                }
            }
            AggState::MinMax(cur) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let replace = match cur {
                            None => true,
                            Some(c) => {
                                if kind == AggFunc::Min {
                                    v < *c
                                } else {
                                    v > *c
                                }
                            }
                        };
                        if replace {
                            *cur = Some(v);
                        }
                    }
                }
            }
            AggState::Avg(s, n) => {
                if let Some(v) = value.and_then(|v| v.as_f64()) {
                    *s += v;
                    *n += 1;
                }
            }
        }
    }

    fn finish(self) -> Scalar {
        match self {
            AggState::Count(c) => Scalar::Int64(c),
            AggState::Distinct(set) => Scalar::Int64(set.len() as i64),
            AggState::SumI(s, seen) => {
                if seen {
                    Scalar::Int64(s)
                } else {
                    Scalar::Null
                }
            }
            AggState::SumF(s, seen) => {
                if seen {
                    Scalar::Float64(s)
                } else {
                    Scalar::Null
                }
            }
            AggState::MinMax(cur) => cur.unwrap_or(Scalar::Null),
            AggState::Avg(s, n) => {
                if n > 0 {
                    Scalar::Float64(s / n as f64)
                } else {
                    Scalar::Null
                }
            }
        }
    }
}

pub(crate) fn group_by(
    ctx: &GpuContext,
    keys: &[&Array],
    aggs: &[AggRequest<'_>],
    num_rows: usize,
) -> Result<GroupByResult> {
    let sort_based = keys.iter().any(|k| k.data_type() == DataType::Utf8);

    // Dictionary-encoded key columns contribute 4-byte rank proxies instead
    // of decoded strings: `rank[code]` equates and orders exactly like the
    // value it encodes, so group assignment and the sort-based output order
    // are unchanged while per-row `Key` clones stop carrying payload bytes.
    // The one-time dictionary sort that produces the ranks is charged below.
    let mut dict_sort_bytes = 0u64;
    let mut dict_entries = 0u64;
    let proxies: Vec<Option<Array>> = keys
        .iter()
        .map(|k| match k {
            Array::Dict(d) => {
                let ranks = d.value_ranks();
                dict_sort_bytes += d.dict_byte_size() as u64;
                dict_entries += d.values().len() as u64;
                Some(Array::Int32(PrimitiveArray::from_options(
                    (0..d.len()).map(|i| d.code(i).map(|c| ranks[c as usize])),
                    0,
                )))
            }
            _ => None,
        })
        .collect();
    let proxy_refs: Vec<&Array> = keys
        .iter()
        .zip(&proxies)
        .map(|(k, p)| p.as_ref().unwrap_or(k))
        .collect();
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

    let (row_keys, _nulls) = row_keys(&proxy_refs, num_rows);

    // Assign each row a dense group id, remembering the first row where
    // each group appeared (its representative, for key materialization).
    let mut group_of_key: FxHashMap<Key, usize> = FxHashMap::default();
    let mut group_order: Vec<Key> = Vec::new();
    let mut group_rep: Vec<usize> = Vec::new();
    let mut group_ids = Vec::with_capacity(num_rows);
    for (row, k) in row_keys.into_iter().enumerate() {
        let next = group_order.len();
        let id = *group_of_key.entry(k.clone()).or_insert_with(|| {
            group_order.push(k);
            group_rep.push(row);
            next
        });
        group_ids.push(id);
    }
    let num_groups = group_order.len();

    // Sort-based strategy orders groups by key. This sort is a real kernel
    // (the libcudf behaviour the paper blames for Q10/Q18), so it is charged
    // as its own span rather than riding along for free.
    let mut output_order: Vec<usize> = (0..num_groups).collect();
    if sort_based {
        output_order.sort_by(|&a, &b| group_order[a].cmp(&group_order[b]));
        if num_groups > 1 {
            let key_row_bytes = key_bytes(&proxy_refs) / (num_rows.max(1) as u64);
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
    }

    // Accumulate.
    let mut states: Vec<Vec<AggState>> = (0..num_groups)
        .map(|_| {
            aggs.iter()
                .map(|a| AggState::new(a.kind, a.input.map(|c| c.data_type())))
                .collect()
        })
        .collect();
    for (row, &g) in group_ids.iter().enumerate() {
        for (ai, a) in aggs.iter().enumerate() {
            states[g][ai].update(a.kind, a.input.map(|c| c.scalar(row)));
        }
    }

    // Materialize key columns by gathering each group's representative row
    // from the original arrays: values match the first-appearance scalars
    // and dictionary-encoded keys stay encoded in the output.
    let rep_rows: Vec<usize> = output_order.iter().map(|&g| group_rep[g]).collect();
    let key_columns: Vec<Array> = keys.iter().map(|k| k.gather(&rep_rows)).collect();

    let mut finished: Vec<Vec<Scalar>> = (0..aggs.len()).map(|_| Vec::new()).collect();
    let mut states_by_group: Vec<Option<Vec<AggState>>> = states.into_iter().map(Some).collect();
    for &g in &output_order {
        let group_states = states_by_group[g].take().expect("each group emitted once");
        for (ai, st) in group_states.into_iter().enumerate() {
            finished[ai].push(st.finish());
        }
    }
    let agg_columns: Vec<Array> = finished
        .iter()
        .zip(aggs.iter())
        .map(|(scalars, a)| {
            let t = agg_type(a)?;
            Ok(Array::from_scalars(scalars, t))
        })
        .collect::<Result<_>>()?;

    // Cost model. Hash path: one streamed pass over keys + agg inputs plus
    // random accumulator traffic; with few groups, GPU atomics contend on
    // the same accumulators — surcharge mirrors the paper's Q1 observation.
    // Sort path: n log n key-exchange passes (the paper's Q10/Q18 penalty).
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

    Ok(GroupByResult {
        key_columns,
        agg_columns,
        num_groups,
        sort_based,
    })
}

fn arith(op: BinOp, out: DataType, l: &Scalar, r: &Scalar) -> Scalar {
    if l.is_null() || r.is_null() {
        return Scalar::Null;
    }
    match op {
        BinOp::Div => {
            let (a, b) = (l.as_f64().expect("numeric"), r.as_f64().expect("numeric"));
            if b == 0.0 {
                Scalar::Null
            } else {
                Scalar::Float64(a / b)
            }
        }
        BinOp::Mod => {
            let (a, b) = (l.as_i64().expect("int"), r.as_i64().expect("int"));
            if b == 0 {
                Scalar::Null
            } else {
                Scalar::Int64(a.wrapping_rem(b))
            }
        }
        _ => match out {
            DataType::Float64 => {
                let (a, b) = (l.as_f64().expect("numeric"), r.as_f64().expect("numeric"));
                Scalar::Float64(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    _ => unreachable!("arith op"),
                })
            }
            DataType::Int64 => {
                let (a, b) = (l.as_i64().expect("int"), r.as_i64().expect("int"));
                Scalar::Int64(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    _ => unreachable!("arith op"),
                })
            }
            DataType::Date32 => {
                let (a, b) = (l.as_i64().expect("date"), r.as_i64().expect("int"));
                let v = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    _ => unreachable!("date arith"),
                };
                Scalar::Date32(v as i32)
            }
            _ => unreachable!("arith result type"),
        },
    }
}

fn compare(op: BinOp, l: &Scalar, r: &Scalar) -> Scalar {
    if l.is_null() || r.is_null() {
        return Scalar::Null;
    }
    let ord = l.cmp(r);
    let b = match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => ord.is_ne(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!("comparison op"),
    };
    Scalar::Bool(b)
}

fn kleene(op: BinOp, l: &Scalar, r: &Scalar) -> Scalar {
    let (a, b) = (l.as_bool(), r.as_bool());
    match op {
        BinOp::And => match (a, b) {
            (Some(false), _) | (_, Some(false)) => Scalar::Bool(false),
            (Some(true), Some(true)) => Scalar::Bool(true),
            _ => Scalar::Null,
        },
        BinOp::Or => match (a, b) {
            (Some(true), _) | (_, Some(true)) => Scalar::Bool(true),
            (Some(false), Some(false)) => Scalar::Bool(false),
            _ => Scalar::Null,
        },
        _ => unreachable!("logical op"),
    }
}

/// The parent commit's `binary::binary_op`.
pub(crate) fn binary_op(
    ctx: &GpuContext,
    op: BinOp,
    left: &Datum<'_>,
    right: &Datum<'_>,
    num_rows: usize,
) -> Result<Array> {
    let lt = left
        .data_type()
        .or(right.data_type())
        .unwrap_or(DataType::Bool);
    let rt = right.data_type().unwrap_or(lt);
    let out_type = op
        .result_type(lt, rt)
        .ok_or_else(|| KernelError::UnsupportedTypes(format!("{op:?} on ({lt}, {rt})")))?;

    let mut out = Vec::with_capacity(num_rows);
    for i in 0..num_rows {
        let (l, r) = (left.value(i), right.value(i));
        out.push(if op.is_comparison() {
            compare(op, &l, &r)
        } else if op.is_logical() {
            kleene(op, &l, &r)
        } else {
            arith(op, out_type, &l, &r)
        });
    }
    let result = Array::from_scalars(&out, out_type);

    ctx.charge(
        "binary.op",
        &WorkProfile::scan(left.byte_size() + right.byte_size())
            .with_streamed(result.byte_size() as u64)
            .with_flops(num_rows as u64)
            .with_rows(num_rows as u64),
    );
    Ok(result)
}

/// The parent commit's `binary::like`, with its per-row arm for every input.
pub(crate) fn like(input: &Datum<'_>, pattern: &str, negated: bool, num_rows: usize) -> Array {
    let out: Vec<Scalar> = (0..num_rows)
        .map(|i| match input.value(i).as_str() {
            Some(s) => Scalar::Bool(like_match(s, pattern) != negated),
            None => Scalar::Null,
        })
        .collect();
    Array::from_scalars(&out, DataType::Bool)
}

fn like_match(s: &str, p: &str) -> bool {
    let (s, p): (Vec<char>, Vec<char>) = (s.chars().collect(), p.chars().collect());
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s): (Option<usize>, usize) = (None, 0);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = Some(pi);
            star_s = si;
            pi += 1;
        } else if let Some(sp) = star_p {
            pi = sp + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// The parent commit's `binary::in_list`.
pub(crate) fn in_list(input: &Datum<'_>, list: &[Scalar], negated: bool, num_rows: usize) -> Array {
    let out: Vec<Scalar> = (0..num_rows)
        .map(|i| match input.value(i) {
            Scalar::Null => Scalar::Null,
            v => Scalar::Bool(list.contains(&v) != negated),
        })
        .collect();
    Array::from_scalars(&out, DataType::Bool)
}

/// The parent commit's `unary::unary_op`.
pub(crate) fn unary_op(
    ctx: &GpuContext,
    op: UnOp,
    input: &Datum<'_>,
    num_rows: usize,
) -> Result<Array> {
    let in_type = input.data_type();
    let out_type = (op.result_type(in_type))
        .ok_or_else(|| KernelError::UnsupportedTypes(format!("{op:?} on {in_type:?}")))?;
    let mut out = Vec::with_capacity(num_rows);
    for i in 0..num_rows {
        let v = input.value(i);
        out.push(match op {
            UnOp::IsNull => Scalar::Bool(v.is_null()),
            UnOp::IsNotNull => Scalar::Bool(!v.is_null()),
            UnOp::Not => v.as_bool().map_or(Scalar::Null, |b| Scalar::Bool(!b)),
            UnOp::Neg if out_type == DataType::Float64 => {
                v.as_f64().map_or(Scalar::Null, |f| Scalar::Float64(-f))
            }
            UnOp::Neg => v
                .as_i64()
                .map_or(Scalar::Null, |i| Scalar::Int64(i.wrapping_neg())),
            UnOp::ExtractYear => match v {
                Scalar::Date32(d) => Scalar::Int64(date32_year(d) as i64),
                _ => Scalar::Null,
            },
        });
    }
    ctx.charge(
        "unary.op",
        &WorkProfile::scan(input.byte_size())
            .with_flops(num_rows as u64)
            .with_rows(num_rows as u64),
    );
    Ok(Array::from_scalars(&out, out_type))
}

/// The parent commit's `unary::cast`.
pub(crate) fn cast(
    ctx: &GpuContext,
    input: &Datum<'_>,
    to: DataType,
    num_rows: usize,
) -> Result<Array> {
    let mut out = Vec::with_capacity(num_rows);
    for i in 0..num_rows {
        let v = input.value(i);
        out.push(
            v.cast(to)
                .ok_or_else(|| KernelError::UnsupportedTypes(format!("cast {v:?} to {to}")))?,
        );
    }
    ctx.charge(
        "unary.cast",
        &WorkProfile::scan(input.byte_size())
            .with_flops(num_rows as u64)
            .with_rows(num_rows as u64),
    );
    Ok(Array::from_scalars(&out, to))
}

/// The parent commit's `unary::substring`.
pub(crate) fn substring(
    ctx: &GpuContext,
    input: &Datum<'_>,
    start: usize,
    len: usize,
    num_rows: usize,
) -> Result<Array> {
    let mut out = Vec::with_capacity(num_rows);
    for i in 0..num_rows {
        let v = input.value(i);
        out.push(match v.as_str() {
            Some(s) => Scalar::Utf8(s.chars().skip(start.saturating_sub(1)).take(len).collect()),
            None => Scalar::Null,
        });
    }
    ctx.charge(
        "unary.substring",
        &WorkProfile::scan(input.byte_size())
            .with_flops(num_rows as u64)
            .with_rows(num_rows as u64),
    );
    Ok(Array::from_scalars(&out, DataType::Utf8))
}

/// The parent commit's `unary::case_when`.
pub(crate) fn case_when(
    ctx: &GpuContext,
    branches: &[(Datum<'_>, Datum<'_>)],
    otherwise: &Datum<'_>,
    out_type: DataType,
    num_rows: usize,
) -> Result<Array> {
    let mut out = Vec::with_capacity(num_rows);
    for i in 0..num_rows {
        let mut chosen = None;
        for (cond, val) in branches {
            if cond.value(i).as_bool() == Some(true) {
                chosen = Some(val.value(i));
                break;
            }
        }
        out.push(chosen.unwrap_or_else(|| otherwise.value(i)));
    }
    let bytes: u64 = branches
        .iter()
        .map(|(c, v)| c.byte_size() + v.byte_size())
        .sum::<u64>()
        + otherwise.byte_size();
    ctx.charge(
        "unary.case_when",
        &WorkProfile::scan(bytes)
            .with_flops((num_rows * branches.len().max(1)) as u64)
            .with_rows(num_rows as u64),
    );
    Ok(Array::from_scalars(&out, out_type))
}

// ---------------------------------------------------------------------------
// Random columns
// ---------------------------------------------------------------------------

/// SplitMix64 stream seeded from a proptest-drawn `u64`.
pub(crate) struct Gen(pub u64);

/// Physical column kinds the generator draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Bool,
    Int32,
    Int64,
    Float64,
    Date32,
    Utf8,
    Dict,
}

pub(crate) const KINDS: [Kind; 7] = [
    Kind::Bool,
    Kind::Int32,
    Kind::Int64,
    Kind::Float64,
    Kind::Date32,
    Kind::Utf8,
    Kind::Dict,
];

impl Gen {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub(crate) fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[self.below(pool.len())]
    }

    /// One non-NULL value of `kind`: small values (so keys collide and
    /// comparisons tie) mixed with the edges of the type.
    pub(crate) fn scalar(&mut self, kind: Kind) -> Scalar {
        const I64S: [i64; 10] = [
            i64::MIN,
            i64::MAX,
            -1,
            0,
            1 << 53,
            (1 << 53) + 1,
            7,
            -7,
            // Just outside `i32`: an `Int32` / `Date32` lane must not narrow these.
            i32::MAX as i64 + 1,
            i32::MIN as i64 - 1,
        ];
        const I32S: [i32; 6] = [i32::MIN, i32::MAX, -1, 0, 7, -7];
        const F64S: [f64; 9] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.25,
            7.0,
            1e300,
        ];
        const STRS: [&str; 12] = [
            "",
            "a",
            "b",
            "ab",
            "a\0",
            "naïve",
            "zz",
            "PROMO x",
            "abab",
            "aaaaa",
            "xBRASS",
            "a special green request",
        ];
        let small = self.below(4) as i64;
        let edge = self.below(3) == 0;
        match kind {
            Kind::Bool => Scalar::Bool(self.below(2) == 1),
            Kind::Int32 if edge => Scalar::Int32(self.pick(&I32S)),
            Kind::Int32 => Scalar::Int32(small as i32),
            Kind::Int64 if edge => Scalar::Int64(self.pick(&I64S)),
            Kind::Int64 => Scalar::Int64(small),
            Kind::Float64 if edge => Scalar::Float64(self.pick(&F64S)),
            Kind::Float64 => Scalar::Float64(small as f64),
            Kind::Date32 if edge => Scalar::Date32(self.pick(&I32S)),
            Kind::Date32 => Scalar::Date32(small as i32),
            Kind::Utf8 | Kind::Dict => Scalar::Utf8(self.pick(&STRS).to_string()),
        }
    }

    /// `columns` columns of `n` rows, each of a random kind out of `kinds`,
    /// with or without NULLs.
    pub(crate) fn columns(&mut self, kinds: &[Kind], columns: usize, n: usize) -> Vec<Array> {
        (0..columns)
            .map(|_| {
                let (kind, nulls) = (self.pick(kinds), self.below(2) == 0);
                self.column(kind, n, nulls)
            })
            .collect()
    }

    /// A column of `n` rows; about one row in five is NULL when `nulls`.
    pub(crate) fn column(&mut self, kind: Kind, n: usize, nulls: bool) -> Array {
        let scalars: Vec<Scalar> = (0..n)
            .map(|_| match nulls && self.below(5) == 0 {
                true => Scalar::Null,
                false => self.scalar(kind),
            })
            .collect();
        let data_type = match kind {
            Kind::Bool => DataType::Bool,
            Kind::Int32 => DataType::Int32,
            Kind::Int64 => DataType::Int64,
            Kind::Float64 => DataType::Float64,
            Kind::Date32 => DataType::Date32,
            Kind::Utf8 | Kind::Dict => DataType::Utf8,
        };
        let plain = Array::from_scalars(&scalars, data_type);
        match kind {
            Kind::Dict => plain.dict_encode(),
            _ => plain,
        }
    }
}

/// Row counts on both sides of the bitmap word boundary.
pub(crate) const ROWS: [usize; 7] = [0, 1, 5, 63, 64, 65, 130];

/// A kernel operand in one of three forms: a column (`Some`), or a
/// broadcast scalar, which is NULL about half the time.
pub(crate) type Operand = (Option<Array>, Scalar);

impl Gen {
    /// An operand of `kind` over `rows` rows: a column (with or without
    /// NULLs) half the time, else a broadcast scalar or a NULL literal.
    pub(crate) fn operand(&mut self, kind: Kind, rows: usize) -> Operand {
        match self.below(4) {
            0 => (None, self.scalar(kind)),
            1 => (None, Scalar::Null),
            _ => {
                let nulls = self.below(2) == 0;
                (Some(self.column(kind, rows, nulls)), Scalar::Null)
            }
        }
    }
}

/// The operand as a kernel argument.
pub(crate) fn datum(operand: &Operand) -> Datum<'_> {
    match operand {
        (Some(column), _) => Datum::Column(column),
        (None, scalar) => Datum::Scalar(scalar.clone()),
    }
}

/// Same values, `byte_size()` and validity presence.
pub(crate) fn same_column(got: &Array, expected: &Array) -> std::result::Result<(), TestCaseError> {
    prop_assert!(same_values(got, expected), "{:?} vs {:?}", got, expected);
    prop_assert_eq!(got.byte_size(), expected.byte_size());
    prop_assert_eq!(got.validity().is_some(), expected.validity().is_some());
    Ok(())
}

/// One launch of a typed kernel against its reference, each on a fresh
/// context: the same column (see [`same_column`]) or the same error, and
/// the same charged device time.
pub(crate) fn same_launch(
    got: impl FnOnce(&GpuContext) -> Result<Array>,
    expected: impl FnOnce(&GpuContext) -> Result<Array>,
) -> std::result::Result<(), TestCaseError> {
    let (ctx, ref_ctx) = (test_ctx(), test_ctx());
    match (got(&ctx), expected(&ref_ctx)) {
        (Ok(got), Ok(expected)) => same_column(&got, &expected)?,
        (Err(got), Err(expected)) => prop_assert_eq!(got, expected),
        (got, expected) => prop_assert!(false, "{:?} vs {:?}", got, expected),
    }
    prop_assert_eq!(ctx.device().elapsed(), ref_ctx.device().elapsed());
    Ok(())
}

/// A table over `columns`, named `c0`, `c1`, ….
pub(crate) fn table_of(columns: Vec<Array>) -> Table {
    let fields = (columns.iter().enumerate())
        .map(|(i, c)| Field::new(format!("c{i}"), c.data_type()))
        .collect();
    Table::new(Schema::new(fields), columns)
}

/// Value equality that tells `-0.0` from `0.0` and compares NaNs by bits.
pub(crate) fn same_values(a: &Array, b: &Array) -> bool {
    let bits = |s: Scalar| match s {
        Scalar::Float64(f) => Scalar::Int64(f.to_bits() as i64),
        other => other,
    };
    a.len() == b.len()
        && a.data_type() == b.data_type()
        && (0..a.len()).all(|i| bits(a.scalar(i)) == bits(b.scalar(i)))
}
