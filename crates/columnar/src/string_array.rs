//! Arrow-layout UTF-8 string arrays: an `i32` offset buffer plus a payload
//! `String`, both reference-counted for zero-copy sharing.
//!
//! The payload is validated once, when it is built from `&str`s; every
//! offset is a boundary between two of them, so reading a value is an O(1)
//! `str::get` that decodes nothing.
//!
//! An array is a window of `len + 1` entries of the offset buffer; the
//! offsets stay absolute, so the payload is addressed through them and needs
//! no window of its own. A window's `byte_size()` is its own offsets plus the
//! payload between its first and last offset — NULL slots hold empty ranges,
//! so that is exactly what a `gather` of the same rows copies.

use crate::array::{gathered_validity, live_row, window_validity, RowIndex, Window};
use crate::bitmap::Bitmap;
use std::sync::Arc;

/// Immutable UTF-8 string array: a window over a shared offset buffer, and
/// the shared payload it addresses.
#[derive(Debug, Clone)]
pub struct StringArray {
    /// `len + 1` absolute offsets into `data`.
    offsets: Window<i32>,
    data: Arc<String>,
    validity: Option<Bitmap>,
}

/// Test-only instrumentation counting per-value accesses, so regression
/// tests can prove bulk paths never go through `value()`.
#[cfg(test)]
pub(crate) mod instrument {
    use std::cell::Cell;

    thread_local! {
        static VALUE_ACCESSES: Cell<usize> = const { Cell::new(0) };
    }

    pub(crate) fn note_access() {
        VALUE_ACCESSES.with(|c| c.set(c.get() + 1));
    }

    pub(crate) fn reset() {
        VALUE_ACCESSES.with(|c| c.set(0));
    }

    pub(crate) fn accesses() -> usize {
        VALUE_ACCESSES.with(|c| c.get())
    }
}

impl StringArray {
    /// Build from owned strings (all valid).
    pub fn from_strings<I, S>(iter: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut offsets = vec![0i32];
        let mut data = String::new();
        for s in iter {
            data.push_str(s.as_ref());
            offsets.push(i32::try_from(data.len()).expect("string buffer < 2 GiB"));
        }
        Self {
            offsets: Window::whole(offsets),
            data: Arc::new(data),
            validity: None,
        }
    }

    /// Build from optional strings (None ⇒ null).
    pub fn from_options<I, S>(iter: I) -> Self
    where
        I: IntoIterator<Item = Option<S>>,
        S: AsRef<str>,
    {
        let mut offsets = vec![0i32];
        let mut data = String::new();
        let mut bits = Vec::new();
        for s in iter {
            match s {
                Some(s) => {
                    data.push_str(s.as_ref());
                    bits.push(true);
                }
                None => bits.push(false),
            }
            offsets.push(i32::try_from(data.len()).expect("string buffer < 2 GiB"));
        }
        Self {
            offsets: Window::whole(offsets),
            data: Arc::new(data),
            validity: Bitmap::from_iter(bits).into_validity(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if element `i` is non-null.
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().map(|v| v.get(i)).unwrap_or(true)
    }

    /// Element `i` as `&str`, `None` if null.
    pub fn value(&self, i: usize) -> Option<&str> {
        if !self.is_valid(i) {
            return None;
        }
        #[cfg(test)]
        instrument::note_access();
        self.data
            .get(self.offsets[i] as usize..self.offsets[i + 1] as usize)
    }

    /// The `len + 1` absolute offsets of this window into
    /// [`StringArray::value_data`]: element `i` is `offsets[i]..offsets[i + 1]`
    /// (empty for a NULL).
    pub fn value_offsets(&self) -> &[i32] {
        &self.offsets
    }

    /// The shared payload the offsets address, of which this window's values
    /// are one contiguous run.
    pub fn value_data(&self) -> &str {
        &self.data
    }

    /// The validity bitmap, if any element is null.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// The payload this window addresses.
    fn payload(&self) -> &str {
        &self.data[self.offsets[0] as usize..self.offsets[self.len()] as usize]
    }

    /// Gather elements at `indices` into a new array. Bulk-copies payload
    /// ranges (a NULL row is an empty range); never reads a value.
    pub fn gather<I: RowIndex>(
        &self,
        indices: impl IntoIterator<Item = I, IntoIter: ExactSizeIterator + Clone>,
    ) -> StringArray {
        let (indices, validity) = (indices.into_iter(), self.validity.as_ref());
        let (starts, payload): (&[i32], &str) = (&self.offsets, &self.data);
        let range = |i: usize| starts[i] as usize..starts[i + 1] as usize;
        let mut offsets = Vec::with_capacity(indices.len() + 1);
        offsets.push(0i32);
        let mut data = String::with_capacity(self.payload_reserve(indices.clone()));
        for ix in indices.clone() {
            data.push_str(&payload[live_row(validity, ix).map_or(0..0, range)]);
            offsets.push(i32::try_from(data.len()).expect("string buffer < 2 GiB"));
        }
        StringArray {
            offsets: Window::whole(offsets),
            data: Arc::new(data),
            validity: gathered_validity(validity, indices),
        }
    }

    /// Payload bytes a gather at `indices` reserves. The mean value length per
    /// picked row costs no pass over the rows, and is what is reserved while
    /// it stays within twice the payload this window already holds: a gather
    /// that picks each row about once, or fewer. Past that the gather repeats
    /// rows of a source smaller than its output (a dictionary decode), where
    /// a skewed source — one 8 MiB entry beside 1-byte ones, decoded over
    /// 200 000 rows — made the mean ask for 800 GB; there the exact size is
    /// summed, one more pass over the indices.
    fn payload_reserve<I: RowIndex>(&self, indices: impl ExactSizeIterator<Item = I>) -> usize {
        let (starts, validity): (&[i32], _) = (&self.offsets, self.validity.as_ref());
        let payload = self.payload().len();
        let mean = payload.div_ceil(self.len().max(1));
        match mean.checked_mul(indices.len()) {
            Some(estimate) if estimate <= 2 * payload => estimate,
            _ => (indices.filter_map(|ix| live_row(validity, ix)))
                .map(|i| (starts[i + 1] - starts[i]) as usize)
                .sum(),
        }
    }

    /// Rows `[start, start + len)` as a window over the same buffers: nothing
    /// but the validity bits is copied. Panics if the range runs past the end.
    pub fn slice(&self, start: usize, len: usize) -> StringArray {
        StringArray {
            offsets: self.offsets.narrow(start, len + 1),
            data: Arc::clone(&self.data),
            validity: window_validity(self.validity.as_ref(), start, len),
        }
    }

    /// Iterate elements as `Option<&str>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// Heap bytes this window addresses (offsets + payload + validity).
    pub fn byte_size(&self) -> usize {
        self.offsets.len() * 4
            + self.payload().len()
            + self.validity.as_ref().map(|v| v.byte_size()).unwrap_or(0)
    }

    /// Concatenate several arrays. Adjacent windows over one buffer (a
    /// single input included) re-join zero-copy into the window spanning
    /// them; otherwise payload and offsets are bulk-copied (offsets rebased
    /// by each window's payload base) — no per-value read.
    pub fn concat(arrays: &[&StringArray]) -> StringArray {
        let validity = Bitmap::concat_validity(arrays.iter().map(|a| (a.validity(), a.len())));
        // One offset buffer implies one payload buffer: they are built together.
        if let Some(offsets) = Window::spanning(arrays.iter().map(|a| a.offsets.clone()), 1) {
            let data = Arc::clone(&arrays[0].data);
            return StringArray {
                offsets,
                data,
                validity,
            };
        }
        let n: usize = arrays.iter().map(|a| a.len()).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0i32);
        let mut data = String::with_capacity(arrays.iter().map(|a| a.payload().len()).sum());
        for a in arrays {
            let base = i32::try_from(data.len()).expect("string buffer < 2 GiB") - a.offsets[0];
            data.push_str(a.payload());
            offsets.extend(a.offsets[1..].iter().map(|&o| o + base));
        }
        i32::try_from(data.len()).expect("string buffer < 2 GiB");
        StringArray {
            offsets: Window::whole(offsets),
            data: Arc::new(data),
            validity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip() {
        let a = StringArray::from_strings(["a", "", "hello", "naïve"]);
        assert_eq!(a.len(), 4);
        assert_eq!(a.value(0), Some("a"));
        assert_eq!(a.value(1), Some(""));
        assert_eq!(a.value(3), Some("naïve"));
        assert!(a.validity().is_none());
    }

    #[test]
    fn nulls() {
        let a = StringArray::from_options([Some("x"), None, Some("y")]);
        assert!(a.is_valid(0));
        assert!(!a.is_valid(1));
        assert_eq!(a.value(1), None);
        assert_eq!(a.value(2), Some("y"));
        assert!(a.validity().is_some());
    }

    #[test]
    fn gather_with_nulls() {
        let a = StringArray::from_options([Some("x"), None, Some("y")]);
        let g = a.gather([2, 1, 0, 0]);
        assert_eq!(
            g.iter().collect::<Vec<_>>(),
            vec![Some("y"), None, Some("x"), Some("x")]
        );
    }

    #[test]
    fn concat_preserves_order_and_nulls() {
        let a = StringArray::from_strings(["a"]);
        let b = StringArray::from_options([None, Some("b")]);
        let c = StringArray::concat(&[&a, &b]);
        assert_eq!(
            c.iter().collect::<Vec<_>>(),
            vec![Some("a"), None, Some("b")]
        );
    }

    #[test]
    fn clone_is_zero_copy() {
        let a = StringArray::from_strings(vec!["payload"; 1000]);
        let before = a.byte_size();
        let b = a.clone();
        // Shared buffers: same reported size, same pointers.
        assert_eq!(b.byte_size(), before);
        assert!(Arc::ptr_eq(&a.data, &b.data));
    }

    #[test]
    fn concat_of_large_arrays_does_not_revalidate_per_value() {
        let a = StringArray::from_strings((0..5000).map(|i| format!("left-{i}")));
        let b = StringArray::from_options(
            (0..5000).map(|i| (i % 7 != 0).then(|| format!("right-{i}"))),
        );
        instrument::reset();
        let c = StringArray::concat(&[&a, &b]);
        assert_eq!(
            instrument::accesses(),
            0,
            "bulk concat must not read values one at a time"
        );
        assert_eq!(c.len(), 10_000);
        assert_eq!(c.value(0), Some("left-0"));
        assert_eq!(c.value(5000), None);
        assert_eq!(c.value(5001), Some("right-1"));
        assert_eq!(c.value(9999), Some("right-4999"));
    }

    #[test]
    fn gather_is_bulk_and_singleton_concat_is_zero_copy() {
        let a = StringArray::from_options([Some("x"), None, Some("naïve"), Some("")]);
        instrument::reset();
        let g = a.gather([3, 2, 1, 0, 2]);
        assert_eq!(
            instrument::accesses(),
            0,
            "bulk gather must not read values"
        );
        assert_eq!(
            g.iter().collect::<Vec<_>>(),
            vec![Some(""), Some("naïve"), None, Some("x"), Some("naïve")]
        );
        let c = StringArray::concat(&[&a]);
        assert!(
            Arc::ptr_eq(&c.data, &a.data),
            "singleton concat shares buffers"
        );
    }

    #[test]
    fn gather_opt_is_bulk() {
        let a = StringArray::from_strings(["a", "bb", "ccc"]);
        instrument::reset();
        let g = a.gather([Some(2), None, Some(0)]);
        assert_eq!(instrument::accesses(), 0);
        assert_eq!(
            g.iter().collect::<Vec<_>>(),
            vec![Some("ccc"), None, Some("a")]
        );
        assert_eq!(g.byte_size(), 4 * 4 + 4 + g.validity().unwrap().byte_size());
    }

    #[test]
    fn payload_reserve_is_the_mean_until_rows_repeat_then_exact() {
        let uniform = StringArray::from_strings(["aaaa", "bbbb", "cccc"]);
        // Each row about once, or fewer: the mean per pick, no pass.
        assert_eq!(uniform.payload_reserve([2usize, 0].into_iter()), 8);
        assert_eq!(
            uniform.payload_reserve([2usize, 0, 0, 1, 1, 2].into_iter()),
            24
        );
        // Rounded up, so a little over; never past twice the window's payload.
        let ragged = StringArray::from_options([Some("a"), None, Some("bcd"), Some("")]);
        assert_eq!(ragged.payload_reserve(0..4usize), 4);
        assert_eq!(ragged.payload_reserve([Some(2usize), None].into_iter()), 2);
        // Repeated past that, the exact size: long rows, short rows, NULLs.
        assert_eq!(ragged.payload_reserve(std::iter::repeat_n(2usize, 9)), 27);
        assert_eq!(ragged.payload_reserve(std::iter::repeat_n(0usize, 9)), 9);
        assert_eq!(
            ragged.payload_reserve(std::iter::repeat_n(Some(1i32), 9)),
            0
        );
        assert_eq!(
            ragged.payload_reserve(std::iter::repeat_n(None::<i32>, 9)),
            0
        );
        // A window sizes by its own rows, and an empty one reserves nothing.
        assert_eq!(
            ragged.slice(2, 2).payload_reserve([0usize, 1].into_iter()),
            4
        );
        assert_eq!(
            ragged
                .slice(3, 1)
                .payload_reserve(std::iter::repeat_n(0usize, 5)),
            0
        );
        assert_eq!(
            ragged
                .slice(1, 0)
                .payload_reserve(std::iter::empty::<usize>()),
            0
        );
    }

    #[test]
    fn windows_share_both_buffers_and_size_their_own_payload() {
        let a = StringArray::from_options([Some("ab"), None, Some("cdef"), Some(""), Some("g")]);
        let shares = |w: &StringArray| {
            Arc::ptr_eq(&w.data, &a.data)
                && w.offsets.as_ptr_range().end <= a.offsets.as_ptr_range().end
        };
        let w = a.slice(1, 3);
        assert!(shares(&w) && w.offsets.as_ptr() == a.offsets[1..].as_ptr());
        assert_eq!(
            w.iter().collect::<Vec<_>>(),
            vec![None, Some("cdef"), Some("")]
        );
        assert_eq!(w.byte_size(), 4 * 4 + 4 + w.validity().unwrap().byte_size());
        // A window without a NULL carries no validity.
        assert_eq!(a.slice(2, 3).byte_size(), 4 * 4 + 5);
        // Adjacent windows re-join into the spanning window; others copy.
        let (head, tail) = (a.slice(0, 1), a.slice(4, 1));
        let whole = StringArray::concat(&[&head, &w, &tail]);
        assert!(shares(&whole) && whole.offsets.as_ptr() == a.offsets.as_ptr());
        assert_eq!(
            whole.iter().collect::<Vec<_>>(),
            a.iter().collect::<Vec<_>>()
        );
        assert_eq!(whole.byte_size(), a.byte_size());
        let copied = StringArray::concat(&[&tail, &w]);
        assert!(!Arc::ptr_eq(&copied.data, &a.data));
        assert_eq!(
            copied.iter().collect::<Vec<_>>(),
            vec![Some("g"), None, Some("cdef"), Some("")]
        );
    }

    #[test]
    fn byte_size_matches_heap_bytes_exactly() {
        let a = StringArray::from_strings(["ab", "", "cdef"]);
        // offsets: 4 × i32, payload: 6 bytes, no validity.
        assert_eq!(a.byte_size(), 4 * 4 + 6);
        let b = StringArray::from_options([Some("ab"), None]);
        assert_eq!(b.byte_size(), 3 * 4 + 2 + b.validity().unwrap().byte_size());
    }

    proptest! {
        #[test]
        fn prop_round_trip(strings in proptest::collection::vec(".{0,12}", 0..50)) {
            let a = StringArray::from_strings(&strings);
            prop_assert_eq!(a.len(), strings.len());
            for (i, s) in strings.iter().enumerate() {
                prop_assert_eq!(a.value(i), Some(s.as_str()));
            }
        }

        #[test]
        fn prop_bulk_gather_concat_match_per_value(
            strings in proptest::collection::vec(
                proptest::option::of(".{0,6}"), 1..40),
            idx_seed in proptest::collection::vec(any::<usize>(), 0..40),
        ) {
            let a = StringArray::from_options(
                strings.iter().map(|s| s.as_deref()));
            let indices: Vec<usize> =
                idx_seed.iter().map(|i| i % strings.len()).collect();
            let g = a.gather(&indices);
            for (out, &src) in indices.iter().enumerate() {
                prop_assert_eq!(g.value(out), strings[src].as_deref());
            }
            let c = StringArray::concat(&[&a, &g]);
            prop_assert_eq!(c.len(), a.len() + g.len());
            for i in 0..a.len() {
                prop_assert_eq!(c.value(i), a.value(i));
            }
            for i in 0..g.len() {
                prop_assert_eq!(c.value(a.len() + i), g.value(i));
            }
        }
    }
}
