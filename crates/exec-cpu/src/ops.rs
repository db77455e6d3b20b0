//! CPU operator implementations: hash join, group-by, sort, limit.
//!
//! These are deliberately independent of the `sirius-cudf` kernels — same
//! semantics, different code — so the integration suite's cross-engine
//! result comparison is a meaningful oracle.
//!
//! Joins follow the same two-phase shape as the GPU path: a pair-finding
//! phase over the equality keys, then (after the engine evaluates any
//! residual predicate *vectorized* over the candidate pairs) a resolution
//! phase that applies the join type.

use crate::{ExecError, Result};
use sirius_columnar::{Array, Bitmap, DataType, Scalar, Table};
use sirius_plan::{AggFunc, JoinKind};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

type Key = Vec<Scalar>;

fn keys_of(key_cols: &[Array], n: usize) -> (Vec<Key>, Vec<bool>) {
    let mut keys = Vec::with_capacity(n);
    let mut nulls = Vec::with_capacity(n);
    for i in 0..n {
        let k: Key = key_cols.iter().map(|c| c.scalar(i)).collect();
        nulls.push(k.iter().any(|s| s.is_null()));
        keys.push(k);
    }
    (keys, nulls)
}

/// Equality-key candidate pairs in inner form.
pub struct CandidatePairs {
    /// Left row of each pair.
    pub left: Vec<usize>,
    /// Right row of each pair.
    pub right: Vec<usize>,
    /// Number of left input rows (for semi/anti/left resolution).
    pub left_rows: usize,
}

impl CandidatePairs {
    /// Number of candidate pairs.
    pub fn len(&self) -> usize {
        self.left.len()
    }

    /// True if no candidates matched.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty()
    }
}

/// Phase 1: all equality matches (hash table built over the right input),
/// or the full cross product when `key`less.
pub fn find_pairs(
    left_keys: &[Array],
    right_keys: &[Array],
    left_rows: usize,
    right_rows: usize,
) -> CandidatePairs {
    let mut pairs = CandidatePairs {
        left: Vec::new(),
        right: Vec::new(),
        left_rows,
    };
    if left_keys.is_empty() {
        for l in 0..left_rows {
            for r in 0..right_rows {
                pairs.left.push(l);
                pairs.right.push(r);
            }
        }
        return pairs;
    }
    let (rk, rn) = keys_of(right_keys, right_rows);
    let mut table: HashMap<Key, Vec<usize>> = HashMap::new();
    for (i, k) in rk.into_iter().enumerate() {
        if !rn[i] {
            table.entry(k).or_default().push(i);
        }
    }
    let (lk, ln) = keys_of(left_keys, left_rows);
    for (l, k) in lk.iter().enumerate() {
        if ln[l] {
            continue;
        }
        if let Some(rs) = table.get(k) {
            for &r in rs {
                pairs.left.push(l);
                pairs.right.push(r);
            }
        }
    }
    pairs
}

/// Final join output indices.
pub struct CpuJoinOut {
    /// Left input row per output row.
    pub left: Vec<usize>,
    /// Right input row per output row (`None` ⇒ null padding).
    pub right: Vec<Option<usize>>,
}

/// Phase 2: apply the join type given an optional per-pair residual mask.
pub fn resolve_pairs(
    kind: JoinKind,
    pairs: &CandidatePairs,
    mask: Option<&Bitmap>,
) -> Result<CpuJoinOut> {
    if let Some(m) = mask {
        assert_eq!(m.len(), pairs.len(), "residual mask length mismatch");
    }
    let pass = |i: usize| mask.map(|m| m.get(i)).unwrap_or(true);
    let mut out = CpuJoinOut {
        left: Vec::new(),
        right: Vec::new(),
    };
    match kind {
        JoinKind::Inner | JoinKind::Cross => {
            for i in 0..pairs.len() {
                if pass(i) {
                    out.left.push(pairs.left[i]);
                    out.right.push(Some(pairs.right[i]));
                }
            }
        }
        JoinKind::Semi | JoinKind::Anti => {
            let mut matched = vec![false; pairs.left_rows];
            for i in 0..pairs.len() {
                if pass(i) {
                    matched[pairs.left[i]] = true;
                }
            }
            let want = kind == JoinKind::Semi;
            for (l, &m) in matched.iter().enumerate() {
                if m == want {
                    out.left.push(l);
                    out.right.push(None);
                }
            }
        }
        JoinKind::Left | JoinKind::Single => {
            let mut count = vec![0u32; pairs.left_rows];
            for i in 0..pairs.len() {
                if pass(i) {
                    count[pairs.left[i]] += 1;
                }
            }
            if kind == JoinKind::Single {
                if let Some(l) = count.iter().position(|&c| c > 1) {
                    return Err(ExecError::Eval(format!(
                        "scalar subquery returned {} rows for outer row {l}",
                        count[l]
                    )));
                }
            }
            for i in 0..pairs.len() {
                if pass(i) {
                    out.left.push(pairs.left[i]);
                    out.right.push(Some(pairs.right[i]));
                }
            }
            for (l, &c) in count.iter().enumerate() {
                if c == 0 {
                    out.left.push(l);
                    out.right.push(None);
                }
            }
        }
    }
    Ok(out)
}

/// One aggregate's running state for one group.
#[derive(Default)]
struct Acc {
    sum_f: f64,
    sum_i: i64,
    seen: bool,
    count: i64,
    distinct: HashSet<Scalar>,
    min: Option<Scalar>,
    max: Option<Scalar>,
}

impl Acc {
    /// Fold one row's input (`None` for `COUNT(*)`) into the state; NULLs
    /// count only for `COUNT(*)`.
    fn update(&mut self, func: AggFunc, v: Option<Scalar>) {
        match (func, v.filter(|s| !s.is_null())) {
            (AggFunc::CountStar, _) => self.count += 1,
            (_, None) => {}
            (AggFunc::Count, Some(_)) => self.count += 1,
            (AggFunc::CountDistinct, Some(s)) => {
                self.distinct.insert(s);
            }
            (AggFunc::Sum | AggFunc::Avg, Some(s)) => {
                if let Some(f) = s.as_f64() {
                    self.sum_f += f;
                }
                if let Some(i) = s.as_i64() {
                    self.sum_i = self.sum_i.wrapping_add(i);
                }
                self.count += 1;
                self.seen = true;
            }
            (AggFunc::Min, Some(s)) => {
                if self.min.as_ref().is_none_or(|cur| s < *cur) {
                    self.min = Some(s);
                }
            }
            (AggFunc::Max, Some(s)) => {
                if self.max.as_ref().is_none_or(|cur| s > *cur) {
                    self.max = Some(s);
                }
            }
        }
    }

    /// The aggregate's value for the group, of type `out_type`.
    fn finish(&self, func: AggFunc, out_type: DataType) -> Scalar {
        match func {
            AggFunc::CountStar | AggFunc::Count => Scalar::Int64(self.count),
            AggFunc::CountDistinct => Scalar::Int64(self.distinct.len() as i64),
            AggFunc::Sum if !self.seen => Scalar::Null,
            AggFunc::Sum if out_type == DataType::Float64 => Scalar::Float64(self.sum_f),
            AggFunc::Sum => Scalar::Int64(self.sum_i),
            AggFunc::Avg if self.count == 0 => Scalar::Null,
            AggFunc::Avg => Scalar::Float64(self.sum_f / self.count as f64),
            AggFunc::Min => self.min.clone().unwrap_or(Scalar::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Scalar::Null),
        }
    }
}

/// Grouped / global aggregation. Group output order: first appearance.
pub fn aggregate(
    input: &Table,
    key_cols: &[Array],
    aggs: &[(AggFunc, Option<Array>)],
) -> Result<(Vec<Array>, Vec<Array>)> {
    let n = input.num_rows();
    let global = key_cols.is_empty();
    let (keys, _nulls) = keys_of(key_cols, n);
    let new_group = || aggs.iter().map(|_| Acc::default()).collect::<Vec<_>>();

    let mut group_ids: HashMap<Key, usize> = HashMap::new();
    let mut order: Vec<Key> = Vec::new();
    let mut accs: Vec<Vec<Acc>> = Vec::new();
    if global {
        order.push(vec![]);
        accs.push(new_group());
    }

    for (row, key) in keys.iter().enumerate() {
        let gid = if global {
            0
        } else {
            match group_ids.entry(key.clone()) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let id = order.len();
                    e.insert(id);
                    order.push(key.clone());
                    accs.push(new_group());
                    id
                }
            }
        };
        for ((func, col), acc) in aggs.iter().zip(&mut accs[gid]) {
            acc.update(*func, col.as_ref().map(|c| c.scalar(row)));
        }
    }

    let key_arrays: Vec<Array> = (0..key_cols.len())
        .map(|ki| {
            let scalars: Vec<Scalar> = order.iter().map(|k| k[ki].clone()).collect();
            Array::from_scalars(&scalars, key_cols[ki].data_type())
        })
        .collect();

    let agg_arrays: Vec<Array> = aggs
        .iter()
        .enumerate()
        .map(|(ai, (func, col))| {
            let in_type = col.as_ref().map(|c| c.data_type());
            let out_type = func.result_type(in_type).map_err(ExecError::Plan)?;
            let scalars: Vec<Scalar> = accs.iter().map(|g| g[ai].finish(*func, out_type)).collect();
            Ok(Array::from_scalars(&scalars, out_type))
        })
        .collect::<Result<_>>()?;

    Ok((key_arrays, agg_arrays))
}

/// Stable multi-key sort; returns row order.
pub fn sort_order(key_cols: &[(Array, bool)], num_rows: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..num_rows).collect();
    idx.sort_by(|&a, &b| {
        for (col, asc) in key_cols {
            let ord = col.scalar(a).cmp(&col.scalar(b));
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_columnar::{DataType, Field, Schema};

    fn tbl(keys: &[i64], vals: &[&str]) -> Table {
        Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Utf8),
            ]),
            vec![
                Array::from_i64(keys.iter().copied()),
                Array::from_strs(vals.iter().copied()),
            ],
        )
    }

    fn pairs(l: &Table, r: &Table) -> CandidatePairs {
        find_pairs(
            &[l.column(0).clone()],
            &[r.column(0).clone()],
            l.num_rows(),
            r.num_rows(),
        )
    }

    #[test]
    fn inner_join_pairs() {
        let l = tbl(&[1, 2, 3], &["a", "b", "c"]);
        let r = tbl(&[2, 3, 3], &["x", "y", "z"]);
        let p = pairs(&l, &r);
        let out = resolve_pairs(JoinKind::Inner, &p, None).unwrap();
        assert_eq!(out.left.len(), 3);
    }

    #[test]
    fn residual_mask_resolution() {
        let l = tbl(&[1, 1], &["a", "b"]);
        let r = tbl(&[1, 1], &["b", "c"]);
        let p = pairs(&l, &r);
        assert_eq!(p.len(), 4);
        // Keep pairs where left value != right value.
        let mask = Bitmap::from_iter(
            (0..p.len())
                .map(|i| l.column(1).utf8_value(p.left[i]) != r.column(1).utf8_value(p.right[i])),
        );
        let inner = resolve_pairs(JoinKind::Inner, &p, Some(&mask)).unwrap();
        assert_eq!(inner.left.len(), 3);
        let anti = resolve_pairs(JoinKind::Anti, &p, Some(&mask)).unwrap();
        assert!(anti.left.is_empty());
    }

    #[test]
    fn semi_anti_left_single() {
        let l = tbl(&[1, 2], &["a", "b"]);
        let r = tbl(&[2], &["x"]);
        let p = pairs(&l, &r);
        let semi = resolve_pairs(JoinKind::Semi, &p, None).unwrap();
        assert_eq!(semi.left, vec![1]);
        let anti = resolve_pairs(JoinKind::Anti, &p, None).unwrap();
        assert_eq!(anti.left, vec![0]);
        let left = resolve_pairs(JoinKind::Left, &p, None).unwrap();
        assert_eq!(left.left.len(), 2);
        assert!(left.right.contains(&None));
        let single = resolve_pairs(JoinKind::Single, &p, None).unwrap();
        assert_eq!(single.left.len(), 2);
        // Duplicate matches break Single.
        let r2 = tbl(&[2, 2], &["x", "y"]);
        let p2 = pairs(&l, &r2);
        assert!(resolve_pairs(JoinKind::Single, &p2, None).is_err());
    }

    #[test]
    fn cross_pairs() {
        let p = find_pairs(&[], &[], 2, 3);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn null_keys_never_match() {
        let l = Array::from_scalars(&[Scalar::Int64(1), Scalar::Null], DataType::Int64);
        let r = Array::from_scalars(&[Scalar::Null, Scalar::Int64(1)], DataType::Int64);
        let p = find_pairs(&[l], &[r], 2, 2);
        assert_eq!(p.len(), 1);
        assert_eq!((p.left[0], p.right[0]), (0, 1));
    }

    #[test]
    fn grouped_aggregation() {
        let t = tbl(&[1, 2, 1], &["a", "b", "c"]);
        let (keys, aggs) = aggregate(
            &t,
            &[t.column(0).clone()],
            &[
                (AggFunc::CountStar, None),
                (AggFunc::Min, Some(t.column(1).clone())),
            ],
        )
        .unwrap();
        assert_eq!(keys[0].len(), 2);
        assert_eq!(aggs[0].i64_value(0), Some(2));
        assert_eq!(aggs[1].utf8_value(0), Some("a"));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let t = tbl(&[], &[]);
        let (keys, aggs) = aggregate(
            &t,
            &[],
            &[
                (AggFunc::Sum, Some(t.column(0).clone())),
                (AggFunc::CountStar, None),
            ],
        )
        .unwrap();
        assert!(keys.is_empty());
        assert_eq!(aggs[0].scalar(0), Scalar::Null);
        assert_eq!(aggs[1].i64_value(0), Some(0));
    }

    #[test]
    fn sort_order_multi_key() {
        let t = tbl(&[2, 1, 2], &["b", "z", "a"]);
        let order = sort_order(
            &[(t.column(0).clone(), true), (t.column(1).clone(), true)],
            3,
        );
        assert_eq!(order, vec![1, 2, 0]);
    }
}
