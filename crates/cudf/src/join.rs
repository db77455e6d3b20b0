//! Hash join kernels.
//!
//! Following libcudf, the join is split into two phases: a *pair-finding*
//! kernel that hashes the build side and probes it to produce candidate
//! `(left, right)` index pairs for the equality keys, and a *resolution*
//! step that applies the join type (and any residual non-equi predicate the
//! engine evaluated on the candidate pairs) to produce the final gather
//! indices. Indices are `i32`, libcudf's row-index type (§3.2.3).
//!
//! The table is a chained hash index over the build side's encoded keys
//! ([`crate::hash::RowKeys`]): a bucket array of chain heads plus one
//! `next` link per build row, instead of a `Vec<Scalar>` key and a
//! `Vec<i32>` per distinct key. At PR 17 that took `cudf.join_build_mrows_s`
//! 6.2 → 366 and `cudf.join_probe_mrows_s` 13.1 → 109 on `tpch_power`'s
//! `orders` ⋈ `lineitem` probe (BENCH_16.json → BENCH_17.json).

use crate::hash::{join_keys, key_bytes, RowKeys};
use crate::{GpuContext, KernelError, Result};
use sirius_columnar::{Array, Bitmap};
use sirius_hw::WorkProfile;

/// Supported join types. `Single` is a left join that requires at most one
/// match per left row (scalar correlated subqueries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    /// Inner equi-join.
    Inner,
    /// Left outer join.
    Left,
    /// Left semi join (EXISTS / IN).
    Semi,
    /// Left anti join (NOT EXISTS / NOT IN).
    Anti,
    /// Left single join (scalar subquery; errors on duplicate matches).
    Single,
}

/// Final join output: parallel index vectors into the left and right input
/// tables. `right[i] == None` produces a null-padded right row (Left/Single
/// unmatched rows); for Semi/Anti the right vector is all `None` and only
/// `left` is meaningful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinIndices {
    /// Row indices into the left table.
    pub left: Vec<i32>,
    /// Row indices into the right table (`None` ⇒ null padding).
    pub right: Vec<Option<i32>>,
}

impl JoinIndices {
    /// Number of output rows.
    pub fn len(&self) -> usize {
        self.left.len()
    }

    /// True if no rows joined.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty()
    }
}

/// Candidate equality matches in inner form: every `(left, right)` pair
/// whose keys compare equal (SQL semantics: null keys never match).
#[derive(Debug, Clone, Default)]
pub struct JoinPairs {
    /// Left row of each candidate pair.
    pub left: Vec<i32>,
    /// Right row of each candidate pair.
    pub right: Vec<i32>,
    left_rows: usize,
}

impl JoinPairs {
    /// Number of candidate pairs.
    pub fn len(&self) -> usize {
        self.left.len()
    }

    /// True if no candidates.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty()
    }

    /// The number of rows in the left input these pairs index into.
    pub fn left_rows(&self) -> usize {
        self.left_rows
    }

    /// Assemble pairs from pre-computed index vectors. Used by the morsel
    /// engine to concatenate per-morsel probe outputs: because each morsel's
    /// probe emits *global* left indices (via `left_offset`), concatenating
    /// morsel outputs in morsel order reproduces the whole-column pair list
    /// exactly.
    pub fn from_parts(left: Vec<i32>, right: Vec<i32>, left_rows: usize) -> JoinPairs {
        assert_eq!(left.len(), right.len(), "pair vectors must be parallel");
        JoinPairs {
            left,
            right,
            left_rows,
        }
    }
}

/// A built join hash table over the right side, reusable across any number
/// of probe calls (libcudf's `hash_join` object). Building once and probing
/// per morsel is what makes morsel-parallel joins cheap: the build is a
/// pipeline breaker, the probes stream.
pub struct JoinHashTable {
    keys: RowKeys,
    /// Bucket → lowest build row whose key hashes there, `-1` when empty.
    heads: Vec<i32>,
    /// Build row → next higher build row in the same bucket, `-1` at the end.
    next: Vec<i32>,
    key_columns: usize,
    right_rows: usize,
}

impl JoinHashTable {
    /// Number of rows the table was built over.
    pub fn right_rows(&self) -> usize {
        self.right_rows
    }
}

/// Build phase: hash the **right** side's keys into a multimap. Engines put
/// the smaller input on the right.
pub fn build_hash_table(
    ctx: &GpuContext,
    right_keys: &[&Array],
    right_rows: usize,
) -> Result<JoinHashTable> {
    if right_keys.is_empty() {
        return Err(KernelError::UnsupportedTypes(
            "join build requires at least one key column (use cross_join_pairs)".into(),
        ));
    }
    let keys = join_keys(right_keys, right_rows);
    let hashes = keys.hashes();
    let mut heads = vec![-1i32; (right_rows * 2).next_power_of_two()];
    let mut next = vec![-1i32; right_rows];
    // Linking rows in descending order leaves every chain ascending, so a
    // probe emits its matches in build-row order.
    for row in (0..right_rows).rev() {
        if !keys.has_null(row) {
            let bucket = hashes[row] as usize & (heads.len() - 1);
            next[row] = std::mem::replace(&mut heads[bucket], row as i32);
        }
    }
    ctx.charge(
        "join.build",
        &WorkProfile::scan(key_bytes(right_keys))
            .with_random((right_rows * 16) as u64)
            .with_flops(right_rows as u64)
            .with_rows(right_rows as u64),
    );
    Ok(JoinHashTable {
        keys,
        heads,
        next,
        key_columns: right_keys.len(),
        right_rows,
    })
}

/// Probe phase: stream `left_keys` (a whole column or one morsel of it)
/// against a built table. Emitted left indices are offset by `left_offset`
/// so morsel probes produce global row indices; `left_rows` is the total
/// left row count (for later Semi/Anti/Left resolution).
pub fn probe_hash_table(
    ctx: &GpuContext,
    table: &JoinHashTable,
    left_keys: &[&Array],
    left_rows: usize,
    left_offset: usize,
) -> Result<JoinPairs> {
    if left_keys.len() != table.key_columns {
        return Err(KernelError::UnsupportedTypes(format!(
            "probe key count {} != build key count {}",
            left_keys.len(),
            table.key_columns
        )));
    }
    let probe_rows = left_keys[0].len();
    let keys = join_keys(left_keys, probe_rows);
    // One pair per probe row is the common shape (a foreign key into a
    // primary key); a fan-out join grows from there.
    let mut pairs = JoinPairs {
        left: Vec::with_capacity(probe_rows),
        right: Vec::with_capacity(probe_rows),
        left_rows,
    };
    // Keys of different classes (an integer against a date or a float)
    // never match, whatever their values.
    if keys.same_layout(&table.keys) {
        for (i, &h) in keys.hashes().iter().enumerate() {
            if keys.has_null(i) {
                continue;
            }
            let mut r = table.heads[h as usize & (table.heads.len() - 1)];
            while r >= 0 {
                if table.keys.same(r as usize, &keys, i) {
                    pairs.left.push((left_offset + i) as i32);
                    pairs.right.push(r);
                }
                r = table.next[r as usize];
            }
        }
    }
    ctx.charge(
        "join.probe",
        &WorkProfile::scan(key_bytes(left_keys))
            .with_random((probe_rows * 16) as u64)
            .with_streamed((pairs.len() * 8) as u64)
            .with_flops(probe_rows as u64)
            .with_rows(probe_rows as u64),
    );
    Ok(pairs)
}

/// Phase 1: find all equality-key candidate pairs. The hash table is built
/// over the **right** side; engines put the smaller input on the right.
/// Convenience wrapper over [`build_hash_table`] + [`probe_hash_table`].
pub fn hash_join_pairs(
    ctx: &GpuContext,
    left_keys: &[&Array],
    right_keys: &[&Array],
    left_rows: usize,
    right_rows: usize,
) -> Result<JoinPairs> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(KernelError::UnsupportedTypes(
            "join requires equal, non-zero key column counts (use cross_join_pairs)".into(),
        ));
    }
    let table = build_hash_table(ctx, right_keys, right_rows)?;
    probe_hash_table(ctx, &table, left_keys, left_rows, 0)
}

/// Phase 1 alternative: all-pairs cross join (used when there are no
/// equality keys, e.g. joining against a one-row scalar subquery result).
pub fn cross_join_pairs(ctx: &GpuContext, left_rows: usize, right_rows: usize) -> JoinPairs {
    let n = left_rows * right_rows;
    let mut pairs = JoinPairs {
        left: Vec::with_capacity(n),
        right: Vec::with_capacity(n),
        left_rows,
    };
    for l in 0..left_rows {
        for r in 0..right_rows {
            pairs.left.push(l as i32);
            pairs.right.push(r as i32);
        }
    }
    ctx.charge(
        "join.cross",
        &WorkProfile::scan((n * 8) as u64).with_rows(n as u64),
    );
    pairs
}

/// Phase 2: apply the join type and an optional residual-predicate mask
/// (one bit per candidate pair) to produce final gather indices.
pub fn resolve_join(
    ctx: &GpuContext,
    join_type: JoinType,
    pairs: &JoinPairs,
    residual: Option<&Bitmap>,
) -> Result<JoinIndices> {
    if let Some(m) = residual {
        assert_eq!(m.len(), pairs.len(), "residual mask length mismatch");
    }
    let pass = |i: usize| residual.map(|m| m.get(i)).unwrap_or(true);
    let mut out = JoinIndices {
        left: Vec::new(),
        right: Vec::new(),
    };

    match join_type {
        // Every candidate pair is an output row: two bulk copies.
        JoinType::Inner if residual.is_none() => {
            out.left = pairs.left.clone();
            out.right = pairs.right.iter().copied().map(Some).collect();
        }
        JoinType::Inner => {
            for i in 0..pairs.len() {
                if pass(i) {
                    out.left.push(pairs.left[i]);
                    out.right.push(Some(pairs.right[i]));
                }
            }
        }
        JoinType::Semi | JoinType::Anti => {
            let mut matched = vec![false; pairs.left_rows];
            for i in 0..pairs.len() {
                if pass(i) {
                    matched[pairs.left[i] as usize] = true;
                }
            }
            let want = join_type == JoinType::Semi;
            for (l, &m) in matched.iter().enumerate() {
                if m == want {
                    out.left.push(l as i32);
                    out.right.push(None);
                }
            }
        }
        JoinType::Left | JoinType::Single => {
            let mut match_count = vec![0u32; pairs.left_rows];
            for i in 0..pairs.len() {
                if pass(i) {
                    match_count[pairs.left[i] as usize] += 1;
                }
            }
            if join_type == JoinType::Single {
                if let Some(l) = match_count.iter().position(|&c| c > 1) {
                    return Err(KernelError::NonScalarSubquery {
                        left_row: l,
                        matches: match_count[l] as usize,
                    });
                }
            }
            // Emit matches in pair order, then unmatched lefts null-padded.
            for i in 0..pairs.len() {
                if pass(i) {
                    out.left.push(pairs.left[i]);
                    out.right.push(Some(pairs.right[i]));
                }
            }
            for (l, &c) in match_count.iter().enumerate() {
                if c == 0 {
                    out.left.push(l as i32);
                    out.right.push(None);
                }
            }
        }
    }
    ctx.charge(
        "join.resolve",
        &WorkProfile::scan((pairs.len() * 8 + out.len() * 8) as u64).with_rows(out.len() as u64),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, Gen, Kind};
    use crate::test_ctx;
    use proptest::prelude::*;
    use sirius_columnar::Scalar;

    /// `(probe, build)` column kinds whose values can compare equal.
    const MATCHING: [(Kind, Kind); 11] = [
        (Kind::Int32, Kind::Int32),
        (Kind::Int32, Kind::Int64),
        (Kind::Int64, Kind::Int32),
        (Kind::Int64, Kind::Int64),
        (Kind::Float64, Kind::Float64),
        (Kind::Date32, Kind::Date32),
        (Kind::Bool, Kind::Bool),
        (Kind::Utf8, Kind::Utf8),
        (Kind::Utf8, Kind::Dict),
        (Kind::Dict, Kind::Utf8),
        (Kind::Dict, Kind::Dict),
    ];

    proptest! {
        #[test]
        fn prop_pairs_match_the_scalar_reference(
            seed in any::<u64>(),
            probe_rows in 0usize..50,
            build_rows in 0usize..30,
            columns in 1usize..4,
        ) {
            let mut g = Gen(seed);
            let (mut probe, mut build) = (Vec::new(), Vec::new());
            for _ in 0..columns {
                let (p, b) = g.pick(&MATCHING);
                let nulls = g.below(2) == 0;
                // Two dictionary columns never share a dictionary here.
                probe.push(g.column(p, probe_rows, nulls));
                build.push(g.column(b, build_rows, nulls));
            }
            let (probe, build): (Vec<&Array>, Vec<&Array>) =
                (probe.iter().collect(), build.iter().collect());
            let expected = reference::join_pairs(&build, build_rows, &probe, 0);

            let ctx = test_ctx();
            let table = build_hash_table(&ctx, &build, build_rows).unwrap();
            let whole = probe_hash_table(&ctx, &table, &probe, probe_rows, 0).unwrap();
            prop_assert_eq!((whole.left.clone(), whole.right.clone()), expected);

            // The same probe in two morsels with global offsets.
            let cut = g.below(probe_rows + 1);
            let mut morsels = (Vec::new(), Vec::new());
            for (offset, len) in [(0, cut), (cut, probe_rows - cut)] {
                let part: Vec<Array> =
                    probe.iter().map(|c| c.gather(offset..offset + len)).collect();
                let part: Vec<&Array> = part.iter().collect();
                let p = probe_hash_table(&ctx, &table, &part, probe_rows, offset).unwrap();
                morsels.0.extend(p.left);
                morsels.1.extend(p.right);
            }
            prop_assert_eq!(morsels, (whole.left, whole.right));
        }

        #[test]
        fn prop_an_integer_key_never_matches_a_date_or_a_float(
            seed in any::<u64>(),
            rows in 1usize..30,
        ) {
            let mut g = Gen(seed);
            let ints: Vec<i64> = (0..rows).map(|_| g.below(4) as i64).collect();
            let int = Array::from_i64(ints.iter().copied());
            let date = Array::from_date32(ints.iter().map(|&v| v as i32));
            let float = Array::from_f64(ints.iter().map(|&v| v as f64));
            let ctx = test_ctx();
            prop_assert!(!hash_join_pairs(&ctx, &[&int], &[&int], rows, rows).unwrap().is_empty());
            for (l, r) in [(&int, &date), (&date, &int), (&int, &float), (&float, &int), (&date, &float)] {
                prop_assert!(hash_join_pairs(&ctx, &[l], &[r], rows, rows).unwrap().is_empty());
            }
        }
    }

    fn pairs_for(l: &[i64], r: &[i64]) -> JoinPairs {
        let ctx = test_ctx();
        let la = Array::from_i64(l.iter().copied());
        let ra = Array::from_i64(r.iter().copied());
        hash_join_pairs(&ctx, &[&la], &[&ra], l.len(), r.len()).unwrap()
    }

    #[test]
    fn inner_join_basics() {
        let ctx = test_ctx();
        let p = pairs_for(&[1, 2, 3, 2], &[2, 4, 2]);
        let j = resolve_join(&ctx, JoinType::Inner, &p, None).unwrap();
        // left rows 1 and 3 (value 2) each match right rows 0 and 2.
        assert_eq!(j.len(), 4);
        for (l, r) in j.left.iter().zip(j.right.iter()) {
            assert!([1, 3].contains(l));
            assert!([Some(0), Some(2)].contains(r));
        }
    }

    #[test]
    fn null_keys_never_match() {
        let ctx = test_ctx();
        let l = Array::from_scalars(
            &[Scalar::Int64(1), Scalar::Null],
            sirius_columnar::DataType::Int64,
        );
        let r = Array::from_scalars(
            &[Scalar::Null, Scalar::Int64(1)],
            sirius_columnar::DataType::Int64,
        );
        let p = hash_join_pairs(&ctx, &[&l], &[&r], 2, 2).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!((p.left[0], p.right[0]), (0, 1));
    }

    #[test]
    fn multi_column_keys() {
        let ctx = test_ctx();
        let l1 = Array::from_i64([1, 1]);
        let l2 = Array::from_strs(["a", "b"]);
        let r1 = Array::from_i64([1]);
        let r2 = Array::from_strs(["b"]);
        let p = hash_join_pairs(&ctx, &[&l1, &l2], &[&r1, &r2], 2, 1).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.left[0], 1);
    }

    #[test]
    fn semi_and_anti_partition_left() {
        let ctx = test_ctx();
        let p = pairs_for(&[1, 2, 3], &[2, 2]);
        let semi = resolve_join(&ctx, JoinType::Semi, &p, None).unwrap();
        assert_eq!(semi.left, vec![1]); // deduplicated despite two matches
        let anti = resolve_join(&ctx, JoinType::Anti, &p, None).unwrap();
        assert_eq!(anti.left, vec![0, 2]);
        assert_eq!(semi.len() + anti.len(), 3);
    }

    #[test]
    fn left_join_pads_unmatched() {
        let ctx = test_ctx();
        let p = pairs_for(&[1, 9], &[1]);
        let j = resolve_join(&ctx, JoinType::Left, &p, None).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.right[0], Some(0));
        assert_eq!((j.left[1], j.right[1]), (1, None));
    }

    #[test]
    fn single_join_rejects_duplicates() {
        let ctx = test_ctx();
        let ok = pairs_for(&[1, 2], &[1]);
        assert!(resolve_join(&ctx, JoinType::Single, &ok, None).is_ok());
        let dup = pairs_for(&[1], &[1, 1]);
        let err = resolve_join(&ctx, JoinType::Single, &dup, None).unwrap_err();
        assert!(matches!(
            err,
            KernelError::NonScalarSubquery { matches: 2, .. }
        ));
    }

    #[test]
    fn residual_mask_filters_pairs() {
        let ctx = test_ctx();
        let p = pairs_for(&[1, 2], &[1, 2]);
        assert_eq!(p.len(), 2);
        let mask = Bitmap::from_iter((0..p.len()).map(|i| p.left[i] == 1));
        let inner = resolve_join(&ctx, JoinType::Inner, &p, Some(&mask)).unwrap();
        assert_eq!(inner.len(), 1);
        assert_eq!(inner.left[0], 1);
        // Anti join with residual: row whose only match fails the residual
        // counts as unmatched.
        let anti = resolve_join(&ctx, JoinType::Anti, &p, Some(&mask)).unwrap();
        assert_eq!(anti.left, vec![0]);
    }

    #[test]
    fn an_all_set_residual_resolves_like_none() {
        let ctx = test_ctx();
        // Matched once, matched twice, unmatched; `Single` needs ≤ 1 match.
        let fan_out = pairs_for(&[1, 2, 3, 2], &[2, 4, 2, 1]);
        let at_most_one = pairs_for(&[1, 2, 3, 2], &[2, 4, 1]);
        for (join_type, pairs) in [
            (JoinType::Inner, &fan_out),
            (JoinType::Left, &fan_out),
            (JoinType::Semi, &fan_out),
            (JoinType::Anti, &fan_out),
            (JoinType::Single, &at_most_one),
        ] {
            let all = Bitmap::all_set(pairs.len());
            let masked = resolve_join(&ctx, join_type, pairs, Some(&all)).unwrap();
            let bare = resolve_join(&ctx, join_type, pairs, None).unwrap();
            assert!(!bare.is_empty(), "{join_type:?}");
            assert_eq!(masked, bare, "{join_type:?}");
        }
    }

    #[test]
    fn cross_join_pairs_enumerates_all() {
        let ctx = test_ctx();
        let p = cross_join_pairs(&ctx, 2, 3);
        assert_eq!(p.len(), 6);
        let j = resolve_join(&ctx, JoinType::Inner, &p, None).unwrap();
        assert_eq!(j.len(), 6);
    }

    #[test]
    fn empty_key_error() {
        let ctx = test_ctx();
        let err = hash_join_pairs(&ctx, &[], &[], 1, 1);
        assert!(err.is_err());
    }

    #[test]
    fn morsel_probes_concatenate_to_whole_column_pairs() {
        let ctx = test_ctx();
        let l: Vec<i64> = (0..97).map(|i| i % 7).collect();
        let r: Vec<i64> = vec![1, 3, 3, 5];
        let la = Array::from_i64(l.iter().copied());
        let ra = Array::from_i64(r.iter().copied());
        let whole = hash_join_pairs(&ctx, &[&la], &[&ra], l.len(), r.len()).unwrap();

        // Same probe chopped into uneven morsels with global offsets.
        let table = build_hash_table(&ctx, &[&ra], r.len()).unwrap();
        let mut got = JoinPairs::from_parts(Vec::new(), Vec::new(), l.len());
        for (offset, chunk) in [(0usize, 0..10), (10, 10..33), (33, 33..97)] {
            let morsel = Array::from_i64(l[chunk].iter().copied());
            let p = probe_hash_table(&ctx, &table, &[&morsel], l.len(), offset).unwrap();
            got.left.extend_from_slice(&p.left);
            got.right.extend_from_slice(&p.right);
        }
        assert_eq!(got.left, whole.left);
        assert_eq!(got.right, whole.right);
        assert_eq!(got.left_rows(), whole.left_rows());
    }

    #[test]
    fn probe_rejects_key_count_mismatch() {
        let ctx = test_ctx();
        let r1 = Array::from_i64([1]);
        let r2 = Array::from_i64([2]);
        let table = build_hash_table(&ctx, &[&r1, &r2], 1).unwrap();
        let l = Array::from_i64([1]);
        assert!(probe_hash_table(&ctx, &table, &[&l], 1, 0).is_err());
    }
}
