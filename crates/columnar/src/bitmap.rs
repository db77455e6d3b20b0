//! Validity bitmaps and selection masks, packed 64 bits to a word.
//!
//! A `Bitmap` is the one buffer type without a window: bit 0 is always bit 0
//! of word 0 and the bits past `len` in the last word are clear, which is
//! what lets `and` / `or` / `not` / `count_set` / `set_indices` work a word
//! at a time. So [`Bitmap::slice`] is the one `slice` in this crate that
//! copies — a shifted word copy, `len / 64` words — where every array's
//! `slice` is a new window over the same buffers.

use crate::array::{live_row, RowIndex};
use std::sync::Arc;

/// An immutable packed bitmap. Bit `i` set means "valid" (or "selected").
///
/// Cloning is cheap: the word buffer is shared.
#[derive(Debug, Clone)]
pub struct Bitmap {
    words: Arc<Vec<u64>>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all set.
    pub fn all_set(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        Self::mask_tail(&mut words, len);
        Self {
            words: Arc::new(words),
            len,
        }
    }

    /// A bitmap of `len` bits, all clear.
    pub fn all_clear(len: usize) -> Self {
        Self {
            words: Arc::new(vec![0; len.div_ceil(64)]),
            len,
        }
    }

    /// Build from an iterator of booleans, a word at a time.
    #[allow(clippy::should_implement_trait)] // it is, below; this one needs no import
    pub fn from_iter(iter: impl IntoIterator<Item = bool>) -> Self {
        let iter = iter.into_iter();
        let mut words: Vec<u64> = Vec::with_capacity(iter.size_hint().0.div_ceil(64));
        let (mut word, mut len) = (0u64, 0usize);
        for b in iter {
            word |= (b as u64) << (len % 64);
            len += 1;
            if len.is_multiple_of(64) {
                words.push(word);
                word = 0;
            }
        }
        if !len.is_multiple_of(64) {
            words.push(word);
        }
        Self {
            words: Arc::new(words),
            len,
        }
    }

    /// Build from packed words: bit `i` is bit `i % 64` of `words[i / 64]`.
    /// Bits past `len` are cleared. Panics unless there are
    /// `len.div_ceil(64)` words.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "bitmap word count");
        Self::mask_tail(&mut words, len);
        Self {
            words: Arc::new(words),
            len,
        }
    }

    fn mask_tail(words: &mut [u64], len: usize) {
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of bit `i`. Panics if out of bounds.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise AND of two equal-length bitmaps.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| a & b)
            .collect();
        Bitmap {
            words: Arc::new(words),
            len: self.len,
        }
    }

    /// Bitwise OR of two equal-length bitmaps.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| a | b)
            .collect();
        Bitmap {
            words: Arc::new(words),
            len: self.len,
        }
    }

    /// Bitwise NOT (within `len` bits).
    pub fn not(&self) -> Bitmap {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        Self::mask_tail(&mut words, self.len);
        Bitmap {
            words: Arc::new(words),
            len: self.len,
        }
    }

    /// Indices of set bits, ascending.
    pub fn set_indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_set());
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                out.push(wi * 64 + bit);
                w &= w - 1;
            }
        }
        out
    }

    /// Bits `[start, start + len)` as a new bitmap: a shifted word copy with
    /// the tail masked. Panics if the range runs past the end.
    pub fn slice(&self, start: usize, len: usize) -> Bitmap {
        let fits = start.checked_add(len).is_some_and(|end| end <= self.len);
        assert!(fits, "bits {start}+{len} out of bounds ({})", self.len);
        let (src, shift) = (&self.words[start / 64..], start % 64);
        // Two source words side by side, so that a shift of 0 is no special case.
        let pair = |i: usize| src[i] as u128 | (*src.get(i + 1).unwrap_or(&0) as u128) << 64;
        let mut words: Vec<u64> = (0..len.div_ceil(64))
            .map(|i| (pair(i) >> shift) as u64)
            .collect();
        Self::mask_tail(&mut words, len);
        Bitmap {
            words: Arc::new(words),
            len,
        }
    }

    /// Concatenate bitmaps a word at a time (their tails are clear, so a
    /// shifted word brings no stray bit).
    pub(crate) fn concat(parts: impl Iterator<Item = Bitmap>) -> Bitmap {
        let (mut words, mut len) = (Vec::<u64>::new(), 0);
        for part in parts {
            let shift = len % 64;
            for &word in part.words.iter() {
                match (shift, words.last_mut()) {
                    (1.., Some(last)) => {
                        *last |= word << shift;
                        words.push(word >> (64 - shift));
                    }
                    _ => words.push(word),
                }
            }
            len += part.len;
            words.truncate(len.div_ceil(64));
        }
        Bitmap {
            words: Arc::new(words),
            len,
        }
    }

    /// Iterate bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Gather bits at `indices` into a new bitmap; a `None` index gathers a
    /// clear bit.
    pub fn gather<I: RowIndex>(&self, indices: impl IntoIterator<Item = I>) -> Bitmap {
        let bit = |ix: I| live_row(Some(self), ix).is_some();
        Bitmap::from_iter(indices.into_iter().map(bit))
    }

    /// This bitmap as an array's validity: kept iff it marks a NULL (holds a
    /// clear bit). The one place that decides whether an array carries a
    /// validity bitmap, which `byte_size()` counts.
    pub(crate) fn into_validity(self) -> Option<Bitmap> {
        (self.count_set() < self.len).then_some(self)
    }

    /// Validity of a concatenation of `(validity, len)` parts, under the
    /// rule of [`Bitmap::into_validity`]; all-valid parts cost no pass.
    pub(crate) fn concat_validity<'a>(
        parts: impl Iterator<Item = (Option<&'a Bitmap>, usize)> + Clone,
    ) -> Option<Bitmap> {
        if parts.clone().all(|(v, _)| v.is_none()) {
            return None;
        }
        let part = |(v, len): (Option<&Bitmap>, usize)| {
            v.map_or_else(|| Bitmap::all_set(len), Bitmap::clone)
        };
        Self::concat(parts.map(part)).into_validity()
    }

    /// Approximate heap size in bytes (the word buffer).
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Bitmap::from_iter(iter)
    }
}

impl PartialEq for Bitmap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words == other.words
    }
}
impl Eq for Bitmap {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_set_and_clear() {
        let s = Bitmap::all_set(70);
        assert_eq!(s.len(), 70);
        assert_eq!(s.count_set(), 70);
        assert!(s.get(69));
        let c = Bitmap::all_clear(70);
        assert_eq!(c.count_set(), 0);
        assert!(!c.get(0));
    }

    #[test]
    fn from_iter_round_trip() {
        let bits = [true, false, true, true, false];
        let b = Bitmap::from_iter(bits);
        assert_eq!(b.len(), 5);
        for (i, &expect) in bits.iter().enumerate() {
            assert_eq!(b.get(i), expect);
        }
        assert_eq!(b.set_indices(), vec![0, 2, 3]);
        // The same bits as a packed word, stray bits past the end cleared.
        assert_eq!(Bitmap::from_words(vec![0b1110_1101], 5), b);
    }

    #[test]
    fn tail_bits_are_masked_after_not() {
        let b = Bitmap::all_clear(3).not();
        assert_eq!(b.count_set(), 3);
        // A second not returns to all-clear, proving the tail stayed clean.
        assert_eq!(b.not().count_set(), 0);
    }

    #[test]
    fn gather_reorders() {
        let b = Bitmap::from_iter([true, false, true]);
        let g = b.gather([2, 2, 1, 0]);
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![true, true, false, true]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Bitmap::all_set(8).get(8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_slice_past_the_end_panics() {
        Bitmap::all_set(8).slice(3, 6);
    }

    proptest! {
        #[test]
        fn prop_and_or_not_algebra(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
            let b = Bitmap::from_iter(bits.iter().copied());
            // Involution: !!b == b
            prop_assert_eq!(b.not().not(), b.clone());
            // b & b == b, b | b == b
            prop_assert_eq!(b.and(&b), b.clone());
            prop_assert_eq!(b.or(&b), b.clone());
            // b & !b == 0, b | !b == all-set
            prop_assert_eq!(b.and(&b.not()).count_set(), 0);
            prop_assert_eq!(b.or(&b.not()).count_set(), bits.len());
            // popcount consistency
            prop_assert_eq!(b.count_set(), bits.iter().filter(|x| **x).count());
            prop_assert_eq!(b.set_indices().len(), b.count_set());
        }

        /// `slice` and `concat` against the bit-at-a-time definition, over
        /// word-aligned and unaligned cuts, `None` parts standing for set
        /// bits; every result keeps a clear tail (`not().not()` is identity
        /// and `count_set` sees no stray bit).
        #[test]
        fn prop_slice_and_concat_match_bit_at_a_time(
            bits in proptest::collection::vec(any::<bool>(), 0..300),
            cuts in proptest::collection::vec(any::<usize>(), 0..5),
        ) {
            let (b, n) = (Bitmap::from_iter(bits.iter().copied()), bits.len());
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
            cuts.extend([0, n, 64.min(n), 128.min(n)]);
            cuts.sort_unstable();
            let parts: Vec<Bitmap> = cuts.windows(2).map(|w| b.slice(w[0], w[1] - w[0])).collect();
            for (part, w) in parts.iter().zip(cuts.windows(2)) {
                prop_assert_eq!(part, &Bitmap::from_iter(bits[w[0]..w[1]].iter().copied()));
                prop_assert_eq!(part.count_set(), bits[w[0]..w[1]].iter().filter(|x| **x).count());
            }
            prop_assert_eq!(&Bitmap::concat(parts.iter().cloned()), &b);
            // As validity an absent part is `len` set bits, and a clear bit keeps the result.
            let padded = Bitmap::concat_validity(
                parts.iter().flat_map(|p| [(Some(p), p.len()), (None, p.len())]),
            );
            prop_assert_eq!(padded.is_some(), bits.contains(&false));
            let padded = padded.unwrap_or_else(|| Bitmap::all_set(2 * n));
            let expected = cuts.windows(2).flat_map(|w| {
                bits[w[0]..w[1]].iter().copied().chain(std::iter::repeat_n(true, w[1] - w[0]))
            });
            prop_assert_eq!(&padded, &Bitmap::from_iter(expected));
            prop_assert_eq!(padded.not().not(), padded);
        }

        #[test]
        fn prop_de_morgan(
            a in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let n = a.len();
            let b: Vec<bool> = a.iter().map(|x| !x).collect();
            let ba = Bitmap::from_iter(a);
            let bb = Bitmap::from_iter(b);
            prop_assert_eq!(ba.and(&bb).not(), ba.not().or(&bb.not()));
            prop_assert_eq!(ba.or(&bb).not(), ba.not().and(&bb.not()));
            prop_assert_eq!(ba.len(), n);
        }
    }
}
