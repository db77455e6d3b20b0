//! FxHash-style hashing, encoded multi-column row keys, and routing hashes.
//!
//! The perf-book guidance is to avoid SipHash for hot integer keys; rather
//! than pull in a dependency, this is the classic Fx multiply-rotate hasher
//! (the one rustc uses). On top of it sit the two things every keyed kernel
//! needs:
//!
//! * [`row_keys`] turns a set of key columns into one contiguous encoding
//!   ([`RowKeys`]) in the style of the Arrow/DataFusion normalised row
//!   format: joins, group-by and distinct hash and compare encoded rows,
//!   and sorts and sort-based group-by order them (`RowKeys::order`),
//!   instead of a `Vec<Scalar>` per row (`cudf.row_keys_mrows_s`
//!   14.5 → 400 at PR 17, BENCH_16.json → BENCH_17.json).
//! * `row_hashes` is the *routing* hash of `hash_partition`, which routes
//!   the Grace join, the spill store, the cluster shuffle and a cluster's
//!   hash-partitioned load. Bucket sizes drive the spill and exchange
//!   ledgers, so it feeds [`FxHasher`] exactly what `(level,
//!   &Vec<Scalar>)::hash` used to.
//!
//! **Key encoding.** Each column falls in one equality class: integers of
//! either width (as `i64`), `Float64` (by bits, so `-0.0 ≠ 0.0` and
//! `NaN = NaN`), `Date32`, `Bool`, strings (plain or dictionary, by
//! value). Values of different classes never compare equal. The encoding is
//! order-preserving as well, in the row format's way: within a class,
//! encoded rows compare as `Scalar::cmp` orders the values, column 0 first.
//! Integers and dates flip their sign bit, floats take total-order bits,
//! NULL sorts first, and a descending sort key complements its slot. When
//! every class is fixed-width and the slots — 64, 64, 32 and 1 bits, plus a
//! null bit where NULL must form a group — fit one or two words, a row is a
//! packed `u64` / `u128`, column 0 in the most significant bits. Otherwise
//! a row is a byte string: per column a validity byte, then the big-endian
//! payload, or a string's bytes each plus one (UTF-8 never holds `0xFF`)
//! and a `0x00` terminator, so no encoded string is a prefix of another.
//! Every NULL in a column has one payload, so equal rows are equal bytes.

use sirius_columnar::{Array, Bitmap, PrimitiveArray};
use std::borrow::Cow;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{BitOrAssign, BitXorAssign, Shl};

/// The Fx hash constant (64-bit golden-ratio multiplier).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for in-process hash tables.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Equality class of a key column: values of different classes never
/// compare equal, values of one class compare by their encoded payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    // The discriminant is the byte `Scalar::hash` writes ahead of a value.
    Bool = 1,
    Int = 2,
    Float = 4,
    Str = 5,
    Date = 6,
}

impl Class {
    fn of(column: &Array) -> Class {
        match column {
            Array::Int32(_) | Array::Int64(_) => Class::Int,
            Array::Float64(_) => Class::Float,
            Array::Date32(_) => Class::Date,
            Array::Bool(_) => Class::Bool,
            Array::Utf8(_) | Array::Dict(_) => Class::Str,
        }
    }

    /// Payload width in a packed word; `None` for variable-width strings.
    fn bits(self) -> Option<u32> {
        match self {
            Class::Int | Class::Float => Some(64),
            Class::Date => Some(32),
            Class::Bool => Some(1),
            Class::Str => None,
        }
    }

    /// A [`Cell::Bits`] payload of this class mapped so that the results
    /// order as unsigned numbers the way the values do: integers and dates
    /// flip their sign bit, floats take total-order bits (a negative one
    /// complemented, a positive one with its sign bit set). Each map is a
    /// bijection, so equality is untouched.
    fn ordered(self, bits: u64) -> u64 {
        match self {
            Class::Int => bits ^ (1 << 63),
            Class::Date => bits ^ (1 << 31),
            Class::Float => bits ^ ((bits as i64 >> 63) as u64 | (1 << 63)),
            Class::Bool | Class::Str => bits,
        }
    }
}

/// One key cell. `Bits` is the class payload widened to `u64`: the `i64`
/// value of an integer, a date's `u32` pattern, a float's bits, a bool's
/// 0 / 1 — which is also what `Scalar::hash` hands the hasher after the tag.
enum Cell<'a> {
    Null,
    Bits(u64),
    Str(&'a str),
}

/// Call `f(row, cell)` for rows `0..n` of `column`, ascending.
fn visit<'a>(column: &'a Array, n: usize, mut f: impl FnMut(usize, Cell<'a>)) {
    fn fixed<'a, T: Copy>(
        a: &PrimitiveArray<T>,
        n: usize,
        bits: impl Fn(T) -> u64,
        f: &mut impl FnMut(usize, Cell<'a>),
    ) {
        let values = a.values()[..n].iter().enumerate();
        match a.validity() {
            None => values.for_each(|(i, &v)| f(i, Cell::Bits(bits(v)))),
            Some(valid) => values.for_each(|(i, &v)| match valid.get(i) {
                true => f(i, Cell::Bits(bits(v))),
                false => f(i, Cell::Null),
            }),
        }
    }
    match column {
        Array::Int32(a) => fixed(a, n, |v| v as i64 as u64, &mut f),
        Array::Int64(a) => fixed(a, n, |v| v as u64, &mut f),
        Array::Date32(a) => fixed(a, n, |v| v as u32 as u64, &mut f),
        Array::Float64(a) => fixed(a, n, f64::to_bits, &mut f),
        Array::Bool(a) => {
            (0..n).for_each(|i| f(i, a.value(i).map_or(Cell::Null, |b| Cell::Bits(b as u64))))
        }
        Array::Utf8(a) => (0..n).for_each(|i| f(i, a.value(i).map_or(Cell::Null, Cell::Str))),
        Array::Dict(a) => (0..n).for_each(|i| f(i, a.value(i).map_or(Cell::Null, Cell::Str))),
    }
}

/// Routing hash of every row: the `FxHasher` state after hashing
/// `(level, &Vec<Scalar>)`, computed a column at a time without building
/// the scalars — `write_u32(level)`, `write_usize(columns.len())`, then per
/// column the `Scalar::hash` tag byte and payload, `0` alone for NULL.
pub(crate) fn row_hashes(columns: &[&Array], num_rows: usize, level: u32) -> Vec<u64> {
    let mut seed = FxHasher::default();
    seed.write_u32(level);
    seed.write_usize(columns.len());
    let mut states = vec![seed.hash; num_rows];
    for column in columns {
        let tag = Class::of(column) as u8;
        visit(column, num_rows, |row, cell| {
            let mut h = FxHasher { hash: states[row] };
            match cell {
                Cell::Null => h.write_u8(0),
                Cell::Bits(bits) => {
                    h.write_u8(tag);
                    h.write_u64(bits);
                }
                // `str::hash`: the bytes, then a 0xff terminator.
                Cell::Str(s) => {
                    h.write_u8(tag);
                    h.write(s.as_bytes());
                    h.write_u8(0xff);
                }
            }
            states[row] = h.hash;
        });
    }
    states
}

/// Multiply-fold mixer for table hashes: unlike the raw Fx state, every
/// output bit depends on every input bit, so tables can mask the low bits.
#[inline]
fn mix(x: u64) -> u64 {
    let h = x.wrapping_mul(SEED);
    h ^ (h >> 32)
}

#[derive(Debug)]
enum Repr {
    /// All slots fit 64 bits.
    Word(Vec<u64>),
    /// All slots fit 128 bits.
    Wide(Vec<u128>),
    /// Anything else, strings included.
    Bytes(ByteRows),
}

/// Variable-width rows in one buffer.
#[derive(Debug)]
struct ByteRows {
    /// Row `i` is `data[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    data: Vec<u8>,
}

impl ByteRows {
    fn row(&self, i: usize) -> &[u8] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Encoded keys of `len()` rows (see the module docs for the layout). Keys
/// built from columns of the same classes by the same constructor share a
/// layout, so rows of one compare against rows of the other.
#[derive(Debug)]
pub struct RowKeys {
    repr: Repr,
    classes: Vec<Class>,
    /// Rows where every key column is non-NULL; `None` when all rows are.
    valid: Option<Bitmap>,
}

/// Extract encoded per-row keys from key columns. NULL is a key value of
/// its own here (GROUP BY / DISTINCT semantics); [`RowKeys::has_null`]
/// flags the rows a join must skip.
pub fn row_keys(columns: &[&Array], num_rows: usize) -> RowKeys {
    RowKeys::encode(columns, &[], num_rows, true)
}

/// Keys for join build and probe sides: rows holding a NULL never match, so
/// no slot spends a bit on it and the layout depends on the classes alone.
pub(crate) fn join_keys(columns: &[&Array], num_rows: usize) -> RowKeys {
    RowKeys::encode(columns, &[], num_rows, false)
}

/// A dictionary column's 4-byte rank proxy; any other column as it is:
/// `rank[code]` equates and orders exactly like the value it encodes, so
/// keys built over proxies group and sort as the strings would while
/// carrying no payload bytes. The ranks are cached beside the dictionary
/// (`DictionaryArray::value_ranks`); what sorting them costs is the
/// caller's to charge.
pub(crate) fn rank_proxy(column: &Array) -> Cow<'_, Array> {
    let Array::Dict(d) = column else {
        return Cow::Borrowed(column);
    };
    let ranks = d.value_ranks();
    let rank = |&c: &i32| ranks.get(c as usize).copied().unwrap_or(0);
    let codes = d.codes().iter().map(rank).collect();
    Cow::Owned(Array::Int32(PrimitiveArray::from_parts(
        codes,
        d.validity().cloned(),
    )))
}

impl RowKeys {
    /// Encode rows `0..n`. `desc[i]` complements column `i`'s slot, so NULL
    /// sorts last there (a missing entry is ascending). With `nulls`, NULL is
    /// a key value of its own; without, no slot spends a bit on it.
    pub(crate) fn encode(columns: &[&Array], desc: &[bool], n: usize, nulls: bool) -> RowKeys {
        let classes: Vec<Class> = columns.iter().map(|c| Class::of(c)).collect();
        let null_bit = |c: &Array| (nulls && c.validity().is_some()) as u32;
        let width: Option<u32> = (columns.iter().zip(&classes))
            .map(|(col, class)| Some(class.bits()? + null_bit(col)))
            .sum();
        let repr = match width {
            Some(w) if w <= 64 => Repr::Word(pack(columns, &classes, desc, n, null_bit)),
            Some(w) if w <= 128 => Repr::Wide(pack(columns, &classes, desc, n, null_bit)),
            _ => Repr::Bytes(byte_rows(columns, &classes, desc, n)),
        };
        let valid = (columns.iter().filter_map(|c| c.validity()))
            .fold(None, |all: Option<Bitmap>, v| {
                Some(all.map_or_else(|| v.clone(), |a| a.and(v)))
            });
        RowKeys {
            repr,
            classes,
            valid,
        }
    }

    /// True when any key column is NULL at `row`.
    pub fn has_null(&self, row: usize) -> bool {
        self.valid.as_ref().is_some_and(|v| !v.get(row))
    }

    /// True when rows of `self` and `other` are comparable: same classes in
    /// the same order (an integer key never equals a date or a float).
    pub(crate) fn same_layout(&self, other: &RowKeys) -> bool {
        self.classes == other.classes
    }

    /// A well-mixed table hash per row.
    pub(crate) fn hashes(&self) -> Vec<u64> {
        match &self.repr {
            Repr::Word(w) => w.iter().map(|&k| mix(k)).collect(),
            Repr::Wide(w) => w
                .iter()
                .map(|&k| mix(k as u64 ^ mix((k >> 64) as u64)))
                .collect(),
            Repr::Bytes(rows) => (1..rows.offsets.len())
                .map(|i| {
                    let mut h = FxHasher::default();
                    h.write(rows.row(i - 1));
                    mix(h.hash)
                })
                .collect(),
        }
    }

    /// Whether row `i` equals row `j` of `other` (which must share this
    /// layout, see [`same_layout`](Self::same_layout)).
    #[inline]
    pub(crate) fn same(&self, i: usize, other: &RowKeys, j: usize) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Word(a), Repr::Word(b)) => a[i] == b[j],
            (Repr::Wide(a), Repr::Wide(b)) => a[i] == b[j],
            (Repr::Bytes(a), Repr::Bytes(b)) => a.row(i) == b.row(j),
            _ => false,
        }
    }

    /// Whether row `i`'s key orders before row `j`'s.
    pub(crate) fn less(&self, i: usize, j: usize) -> bool {
        match &self.repr {
            Repr::Word(k) => k[i] < k[j],
            Repr::Wide(k) => k[i] < k[j],
            Repr::Bytes(k) => k.row(i) < k.row(j),
        }
    }

    /// Dense group ids in first-appearance order, plus the row each group
    /// first appeared at.
    pub(crate) fn dense_ids(&self) -> DenseIds {
        let hashes = self.hashes();
        match &self.repr {
            Repr::Word(k) => assign_ids(&hashes, |a, b| k[a] == k[b]),
            Repr::Wide(k) => assign_ids(&hashes, |a, b| k[a] == k[b]),
            Repr::Bytes(k) => assign_ids(&hashes, |a, b| k.row(a) == k.row(b)),
        }
    }

    /// The rows `ids` in encoded-key order, ties going to the lower row id,
    /// each mapped through `f`.
    pub(crate) fn order<T>(
        &self,
        ids: impl Iterator<Item = usize>,
        f: impl Fn(usize) -> T,
    ) -> Vec<T> {
        match &self.repr {
            Repr::Word(k) => sort_pairs(ids.map(|r| (k[r], r)).collect(), f),
            Repr::Wide(k) => sort_pairs(ids.map(|r| (k[r], r)).collect(), f),
            Repr::Bytes(k) => sort_pairs(ids.map(|r| (k.row(r), r)).collect(), f),
        }
    }
}

/// [`RowKeys::order`] over one representation's keys. The `(key, row)`
/// pairs are distinct, so the unstable sort gives the one exact order (and
/// sorts them about twice as fast as the stable one).
fn sort_pairs<K: Ord, T>(mut pairs: Vec<(K, usize)>, out: impl Fn(usize) -> T) -> Vec<T> {
    pairs.sort_unstable();
    pairs.into_iter().map(|(_, row)| out(row)).collect()
}

/// [`RowKeys::dense_ids`] over one representation's row equality.
fn assign_ids(hashes: &[u64], same: impl Fn(usize, usize) -> bool) -> DenseIds {
    const EMPTY: u32 = u32::MAX;
    // Open hash index over the groups found so far: bucket → newest group in
    // it, `chain[g]` → the next group in the same bucket.
    let mut heads = vec![EMPTY; 64];
    let mut chain: Vec<u32> = Vec::new();
    let mut out = DenseIds {
        ids: Vec::with_capacity(hashes.len()),
        first_rows: Vec::new(),
    };
    for (row, &h) in hashes.iter().enumerate() {
        if out.first_rows.len() * 2 > heads.len() {
            heads = vec![EMPTY; heads.len() * 4];
            for (g, &first) in out.first_rows.iter().enumerate() {
                let bucket = hashes[first] as usize & (heads.len() - 1);
                chain[g] = std::mem::replace(&mut heads[bucket], g as u32);
            }
        }
        let bucket = h as usize & (heads.len() - 1);
        let mut g = heads[bucket];
        while g != EMPTY && !same(out.first_rows[g as usize], row) {
            g = chain[g as usize];
        }
        if g == EMPTY {
            g = out.first_rows.len() as u32;
            out.first_rows.push(row);
            chain.push(std::mem::replace(&mut heads[bucket], g));
        }
        out.ids.push(g);
    }
    out
}

/// Result of [`RowKeys::dense_ids`].
pub(crate) struct DenseIds {
    /// Group id of every row.
    pub ids: Vec<u32>,
    /// Row at which each group first appeared, by group id.
    pub first_rows: Vec<usize>,
}

/// Packed fixed-width rows: each column ORs its slot into the row's word,
/// column 0 in the most significant bits. A slot is the ordered payload
/// (a NULL's is that of a zero) under the null bit. The slots' constant
/// part — sign flips, descending complements, the null bit's polarity — is
/// one mask, XORed into every word during the last column's pass; a
/// column's pass only places its payloads (a float's data-dependent part
/// aside).
fn pack<W>(
    columns: &[&Array],
    classes: &[Class],
    descending: &[bool],
    n: usize,
    null_bit: impl Fn(&Array) -> u32,
) -> Vec<W>
where
    W: Copy + Default + From<u64> + BitOrAssign + BitXorAssign + Shl<u32, Output = W>,
{
    let mut words = vec![W::default(); n];
    let (mut shift, mut mask) = (0u32, W::default());
    for (i, (column, class)) in columns.iter().zip(classes).enumerate().rev() {
        let (bits, null_bit) = (class.bits().unwrap_or(0), null_bit(column));
        // Set on NULL rows here (a slot without a null bit shifts a zero
        // nowhere); the mask flips it on ascending keys.
        let null = W::from(null_bit as u64) << ((shift + bits) * null_bit);
        let desc = descending.get(i) == Some(&true);
        let flip = (desc as u64).wrapping_neg() >> (64 - bits);
        mask |= W::from(class.ordered(0) ^ flip) << shift;
        mask |= [null, W::default()][desc as usize];
        // Column 0 is placed last, and applies the whole mask.
        let at = (shift, null, [W::default(), mask][(i == 0) as usize]);
        // The float's total order is data-dependent: its own loop.
        let float = |b| Class::Float.ordered(b) ^ (1 << 63);
        match class {
            Class::Float => put(&mut words, column, at, float),
            _ => put(&mut words, column, at, |b| b),
        }
        shift += bits + null_bit;
    }
    words
}

/// OR `column`'s cells into `words` at `shift` — a payload through `map`, a
/// NULL as `null` — then XOR `mask` in, for `at = (shift, null, mask)`.
/// Generic over `map`, so each class gets its own loop.
fn put<W>(words: &mut [W], column: &Array, at: (u32, W, W), map: impl Fn(u64) -> u64)
where
    W: Copy + From<u64> + BitOrAssign + BitXorAssign + Shl<u32, Output = W>,
{
    let (shift, null, mask) = at;
    visit(column, words.len(), |row, cell| {
        words[row] |= match cell {
            Cell::Bits(b) => W::from(map(b)) << shift,
            _ => null,
        };
        words[row] ^= mask;
    });
}

/// Byte rows: per column a validity byte (0 for NULL), then the payload —
/// the ordered bits big-endian, or a string's bytes each plus one and a
/// `0x00` terminator; NULL payloads stay zero, and a descending column's
/// slot is complemented. One pass sizes the rows, one pass per column
/// fills them.
fn byte_rows(columns: &[&Array], classes: &[Class], descending: &[bool], n: usize) -> ByteRows {
    // A string's fixed part is its terminator.
    let slot = |class: &Class| 1 + class.bits().map_or(1, |b| b.div_ceil(8) as usize);
    let mut lens = vec![classes.iter().map(slot).sum::<usize>(); n];
    for (column, _) in (columns.iter().zip(classes)).filter(|(_, c)| **c == Class::Str) {
        visit(column, n, |row, cell| {
            if let Cell::Str(s) = cell {
                lens[row] += s.len();
            }
        });
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    for len in &lens {
        offsets.push(offsets[offsets.len() - 1] + len);
    }
    let mut data = vec![0u8; offsets[n]];
    let mut cursor = offsets[..n].to_vec();
    for (i, (column, class)) in columns.iter().zip(classes).enumerate() {
        let width = slot(class) - 1;
        let flip = (descending.get(i) == Some(&true)) as u8 * 0xFF;
        visit(column, n, |row, cell| {
            let at = cursor[row];
            cursor[row] += 1 + width;
            match cell {
                Cell::Null => {}
                Cell::Bits(b) => {
                    data[at] = 1;
                    let bytes = class.ordered(b).to_be_bytes();
                    data[at + 1..at + 1 + width].copy_from_slice(&bytes[8 - width..]);
                }
                Cell::Str(s) => {
                    data[at] = 1;
                    let payload = data[at + 1..].iter_mut().zip(s.bytes());
                    payload.for_each(|(d, b)| *d = b + 1);
                    cursor[row] += s.len();
                }
            }
            data[at..cursor[row]].iter_mut().for_each(|b| *b ^= flip);
        });
    }
    ByteRows { offsets, data }
}

/// Total key bytes across the key columns (for cost accounting).
pub fn key_bytes(columns: &[&Array]) -> u64 {
    columns.iter().map(|c| c.byte_size() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, Gen, KINDS};
    use proptest::prelude::*;
    use sirius_columnar::Scalar;
    use std::hash::{BuildHasher, Hash};

    proptest! {
        #[test]
        fn prop_routing_hashes_feed_fx_what_scalar_keys_did(
            seed in any::<u64>(),
            n in 0usize..40,
            columns in 0usize..4,
        ) {
            let cols = Gen(seed).columns(&KINDS, columns, n);
            let refs: Vec<&Array> = cols.iter().collect();
            for level in [0, 1, 2, 3, 4, u32::MAX] {
                prop_assert_eq!(
                    row_hashes(&refs, n, level),
                    reference::routing_hashes(&refs, n, level)
                );
            }
        }

        #[test]
        fn prop_encoded_keys_equal_exactly_when_scalar_keys_do(
            seed in any::<u64>(),
            n in 0usize..40,
            columns in 1usize..5,
        ) {
            let cols = Gen(seed).columns(&KINDS, columns, n);
            let refs: Vec<&Array> = cols.iter().collect();
            let (scalar_keys, scalar_nulls) = reference::row_keys(&refs, n);
            for (keys, null_is_a_value) in [(row_keys(&refs, n), true), (join_keys(&refs, n), false)] {
                let hashes = keys.hashes();
                for i in 0..n {
                    prop_assert_eq!(keys.has_null(i), scalar_nulls[i]);
                    for j in 0..n {
                        // Join keys leave rows holding a NULL undefined.
                        if null_is_a_value || !(scalar_nulls[i] || scalar_nulls[j]) {
                            let same = scalar_keys[i] == scalar_keys[j];
                            prop_assert_eq!(keys.same(i, &keys, j), same, "rows {} and {}", i, j);
                            prop_assert!(!same || hashes[i] == hashes[j]);
                        }
                        // Row keys also order as the scalar keys do.
                        if null_is_a_value {
                            let scalar_order = scalar_keys[i].cmp(&scalar_keys[j]).then(i.cmp(&j));
                            let expect = match scalar_order.is_le() {
                                true => [i, j],
                                false => [j, i],
                            };
                            prop_assert_eq!(keys.order([i, j].into_iter(), |r| r), expect);
                        }
                    }
                }
            }
            // Dense ids: first appearance, one id per distinct scalar key.
            let ids = row_keys(&refs, n).dense_ids();
            let mut first_seen: Vec<&reference::Key> = Vec::new();
            for (row, key) in scalar_keys.iter().enumerate() {
                let id = first_seen.iter().position(|k| *k == key).unwrap_or_else(|| {
                    first_seen.push(key);
                    first_seen.len() - 1
                });
                prop_assert_eq!(ids.ids[row] as usize, id);
                prop_assert_eq!(scalar_keys[ids.first_rows[id]].clone(), key.clone());
            }
            prop_assert_eq!(ids.first_rows.len(), first_seen.len());
        }
    }

    proptest! {
        /// Keys and hashes of a window at a non-zero offset are those of its
        /// materialised copy: the kernels read columns through accessors only.
        #[test]
        fn prop_a_window_keys_and_hashes_like_its_copy(
            seed in any::<u64>(),
            n in 2usize..150,
            columns in 1usize..5,
        ) {
            let mut g = Gen(seed);
            let cols = g.columns(&KINDS, columns, n);
            let o = 1 + g.below(n - 1);
            let l = 1 + g.below(n - o);
            let windows: Vec<Array> = cols.iter().map(|c| c.slice(o, l)).collect();
            let copies: Vec<Array> = cols.iter().map(|c| c.gather(o..o + l)).collect();
            let (windows, copies): (Vec<&Array>, Vec<&Array>) =
                (windows.iter().collect(), copies.iter().collect());
            for level in [0, 3, u32::MAX] {
                prop_assert_eq!(row_hashes(&windows, l, level), row_hashes(&copies, l, level));
            }
            prop_assert_eq!(key_bytes(&windows), key_bytes(&copies));
            for keys in [row_keys, join_keys] {
                let (w, c) = (keys(&windows, l), keys(&copies, l));
                prop_assert!(w.same_layout(&c));
                prop_assert_eq!(w.hashes(), c.hashes());
                for i in 0..l {
                    prop_assert_eq!(w.has_null(i), c.has_null(i));
                    prop_assert!(w.has_null(i) || w.same(i, &c, i));
                }
                prop_assert_eq!(w.dense_ids().ids, c.dense_ids().ids);
            }
        }
    }

    #[test]
    fn dense_ids_survive_table_growth() {
        // More groups than the initial bucket array, revisited afterwards.
        let values: Vec<i64> = (0..5_000).chain(0..5_000).map(|v| v * 32).collect();
        let ids = row_keys(&[&Array::from_i64(values)], 10_000).dense_ids();
        assert_eq!(ids.first_rows, (0..5_000).collect::<Vec<_>>());
        assert!((0..10_000).all(|row| ids.ids[row] as usize == row % 5_000));
    }

    fn fx(v: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_distinguishing() {
        assert_eq!(fx(42u64), fx(42u64));
        assert_ne!(fx(42u64), fx(43u64));
        assert_ne!(fx("a"), fx("b"));
    }

    #[test]
    fn fx_map_works() {
        let mut m: std::collections::HashMap<Vec<Scalar>, usize, FxBuildHasher> =
            Default::default();
        m.insert(vec![Scalar::Int64(1), Scalar::Utf8("k".into())], 7);
        assert_eq!(
            m.get(&vec![Scalar::Int64(1), Scalar::Utf8("k".into())]),
            Some(&7)
        );
    }

    #[test]
    fn row_keys_multi_column() {
        let a = Array::from_i64([1, 2, 1]);
        let b = Array::from_strs(["x", "y", "x"]);
        let keys = row_keys(&[&a, &b], 3);
        assert!(keys.same(0, &keys, 2));
        assert!(!keys.same(0, &keys, 1));
        assert!((0..3).all(|i| !keys.has_null(i)));
        assert_eq!(keys.dense_ids().ids, vec![0, 1, 0]);
    }

    #[test]
    fn row_keys_flags_nulls() {
        let a = Array::from_scalars(
            &[Scalar::Int64(0), Scalar::Null, Scalar::Null],
            sirius_columnar::DataType::Int64,
        );
        let keys = row_keys(&[&a], 3);
        assert_eq!(
            (0..3).map(|i| keys.has_null(i)).collect::<Vec<_>>(),
            vec![false, true, true]
        );
        // NULL is a key value of its own, distinct from the fill value 0.
        assert_eq!(keys.dense_ids().ids, vec![0, 1, 1]);
    }

    #[test]
    fn layout_follows_the_slot_widths() {
        let int = Array::from_i64([1]);
        let date = Array::from_date32([1]);
        let flag = Array::from_bool([true]);
        let text = Array::from_strs(["x"]);
        let nullable = Array::from_scalars(&[Scalar::Null], sirius_columnar::DataType::Int64);
        let repr = |cols: &[&Array]| row_keys(cols, 1).repr;
        assert!(matches!(repr(&[&int]), Repr::Word(_)));
        assert!(matches!(repr(&[&date, &flag]), Repr::Word(_)));
        assert!(matches!(repr(&[&nullable]), Repr::Wide(_)));
        assert!(matches!(repr(&[&int, &int]), Repr::Wide(_)));
        assert!(matches!(repr(&[&int, &int, &flag]), Repr::Bytes(_)));
        assert!(matches!(repr(&[&text]), Repr::Bytes(_)));
        // Join keys never spend a bit on NULL.
        assert!(matches!(join_keys(&[&nullable], 1).repr, Repr::Word(_)));
    }
}
