//! Dictionary-encoded UTF-8 string arrays: an `i32` code per row pointing
//! into a shared dictionary of unique non-null values.
//!
//! This is the encoded execution format from the paper's §4.2 argument:
//! operators that only move or compare string columns touch 4-byte codes
//! instead of payload bytes, and the dictionary rides along as a shared
//! `Arc` that gather/filter/slice/concat never copy, carrying its sort
//! ranks once they are first asked for. Nulls live in the codes'
//! validity bitmap — the dictionary itself holds no nulls. The codes are a
//! window over a shared buffer like any fixed-width array's values, so a
//! `slice` copies neither codes nor dictionary and keeps `dict_ptr()`.
//!
//! `byte_size()` deliberately counts only the codes (plus validity): that is
//! what kernels stream when they move an encoded column. The dictionary's
//! payload is reported separately by [`DictionaryArray::dict_byte_size`] and
//! is charged only by operators that genuinely read it (materialization,
//! `LIKE`, the one-time group-by dictionary sort) and by the wire the first
//! time it ships over a link.

use crate::array::{gathered_validity, live_row, window_validity, RowIndex, Window};
use crate::bitmap::Bitmap;
use crate::string_array::StringArray;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Immutable dictionary-encoded string array.
#[derive(Debug, Clone)]
pub struct DictionaryArray {
    codes: Window<i32>,
    validity: Option<Bitmap>,
    values: Arc<Dictionary>,
}

/// A shared dictionary: its unique values and, computed on first use, their
/// lexicographic ranks — shared by every window, gather and same-dictionary
/// concat of the column, so the dictionary is sorted at most once.
struct Dictionary {
    strings: Arc<StringArray>,
    ranks: OnceLock<Vec<i32>>,
}

impl Dictionary {
    fn new(strings: Arc<StringArray>) -> Arc<Dictionary> {
        Arc::new(Dictionary {
            strings,
            ranks: OnceLock::new(),
        })
    }
}

impl std::fmt::Debug for Dictionary {
    /// The values alone: whether the ranks were computed yet is not part of
    /// the array.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.strings.fmt(f)
    }
}

impl DictionaryArray {
    /// Build from raw parts. Null slots may carry any in-range code (it is
    /// masked by the validity bitmap); all codes must index into `values`.
    pub fn from_parts(codes: Vec<i32>, validity: Option<Bitmap>, values: Arc<StringArray>) -> Self {
        debug_assert!(
            codes.iter().all(|&c| c == 0 || (c as usize) < values.len()),
            "dictionary code out of range"
        );
        Self {
            codes: Window::whole(codes),
            validity: validity.and_then(Bitmap::into_validity),
            values: Dictionary::new(values),
        }
    }

    /// Encode a decoded string array: dictionary entries are the unique
    /// non-null values in first-appearance order.
    pub fn encode(src: &StringArray) -> DictionaryArray {
        let mut seen: HashMap<&str, i32> = HashMap::new();
        let mut uniques: Vec<&str> = Vec::new();
        let mut codes = Vec::with_capacity(src.len());
        let mut bits = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            match src.value(i) {
                Some(s) => {
                    let next = uniques.len() as i32;
                    let code = *seen.entry(s).or_insert_with(|| {
                        uniques.push(s);
                        next
                    });
                    codes.push(code);
                    bits.push(true);
                }
                None => {
                    codes.push(0);
                    bits.push(false);
                }
            }
        }
        DictionaryArray {
            codes: Window::whole(codes),
            validity: Bitmap::from_iter(bits).into_validity(),
            values: Dictionary::new(Arc::new(StringArray::from_strings(uniques))),
        }
    }

    /// Decode to a plain string array (bulk payload copy via the
    /// dictionary's gather path).
    pub fn decode(&self) -> StringArray {
        let codes = self.codes.iter().enumerate();
        self.values
            .strings
            .gather(codes.map(|(i, &c)| self.is_valid(i).then_some(c)))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// True if element `i` is non-null.
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().map(|v| v.get(i)).unwrap_or(true)
    }

    /// Element `i` as `&str` borrowed from the dictionary, `None` if null.
    pub fn value(&self, i: usize) -> Option<&str> {
        if self.is_valid(i) {
            self.values.strings.value(self.codes[i] as usize)
        } else {
            None
        }
    }

    /// Dictionary code of element `i`, `None` if null.
    pub fn code(&self, i: usize) -> Option<i32> {
        if self.is_valid(i) {
            Some(self.codes[i])
        } else {
            None
        }
    }

    /// The raw code buffer (null slots hold an arbitrary in-range code).
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// The validity bitmap, if any element is null.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// The shared dictionary of unique non-null values.
    pub fn values(&self) -> &Arc<StringArray> {
        &self.values.strings
    }

    /// Identity of the shared dictionary buffer — used to ship each
    /// dictionary at most once per network link.
    pub fn dict_ptr(&self) -> usize {
        Arc::as_ptr(&self.values.strings) as usize
    }

    /// Iterate elements as `Option<&str>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// Heap bytes moved when this column moves: codes plus validity. The
    /// shared dictionary is excluded — see the module docs.
    pub fn byte_size(&self) -> usize {
        self.codes.len() * 4 + self.validity.as_ref().map(|v| v.byte_size()).unwrap_or(0)
    }

    /// Heap bytes of the shared dictionary itself.
    pub fn dict_byte_size(&self) -> usize {
        self.values.strings.byte_size()
    }

    /// Gather elements at `indices`: codes and validity move (a NULL row
    /// holds code `0`), the dictionary is shared untouched.
    pub fn gather<I: RowIndex>(
        &self,
        indices: impl IntoIterator<Item = I, IntoIter: ExactSizeIterator + Clone>,
    ) -> DictionaryArray {
        let (indices, validity) = (indices.into_iter(), self.validity.as_ref());
        let codes = self.codes();
        DictionaryArray {
            validity: gathered_validity(validity, indices.clone()),
            codes: Window::whole(
                indices
                    .map(|ix| live_row(validity, ix).map_or(0, |i| codes[i]))
                    .collect(),
            ),
            values: Arc::clone(&self.values),
        }
    }

    /// Rows `[start, start + len)` as a window over the same code buffer and
    /// dictionary: nothing but the validity bits is copied. Panics if the
    /// range runs past the end.
    pub fn slice(&self, start: usize, len: usize) -> DictionaryArray {
        DictionaryArray {
            codes: self.codes.narrow(start, len),
            validity: window_validity(self.validity.as_ref(), start, len),
            values: Arc::clone(&self.values),
        }
    }

    /// Concatenate encoded arrays. When every input shares one dictionary
    /// `Arc` (the common case: morsels of one generated column), adjacent
    /// windows over one code buffer (a single input included) re-join
    /// zero-copy into the window spanning them, and otherwise only codes are
    /// copied. Different dictionaries are merged in first-appearance order
    /// and codes remapped.
    pub fn concat(arrays: &[&DictionaryArray]) -> DictionaryArray {
        assert!(!arrays.is_empty(), "concat of zero arrays");
        let validity =
            Bitmap::concat_validity(arrays.iter().map(|a| (a.validity.as_ref(), a.len())));
        let values = &arrays[0].values;
        if (arrays.iter()).all(|a| Arc::ptr_eq(a.values(), &values.strings)) {
            let slices = || arrays.iter().map(|a| a.codes()).collect::<Vec<_>>();
            let spanning = Window::spanning(arrays.iter().map(|a| a.codes.clone()), 0);
            return DictionaryArray {
                codes: spanning.unwrap_or_else(|| Window::whole(slices().concat())),
                validity,
                values: Arc::clone(values),
            };
        }
        let mut codes = Vec::with_capacity(arrays.iter().map(|a| a.len()).sum());
        // Merge dictionaries: first-appearance order across inputs.
        let mut seen: HashMap<&str, i32> = HashMap::new();
        let mut uniques: Vec<&str> = Vec::new();
        let mut remaps: Vec<Vec<i32>> = Vec::with_capacity(arrays.len());
        for a in arrays {
            let mut remap = Vec::with_capacity(a.values().len());
            for d in 0..a.values().len() {
                let s = a
                    .values()
                    .value(d)
                    .expect("dictionary entries are non-null");
                let next = uniques.len() as i32;
                let code = *seen.entry(s).or_insert_with(|| {
                    uniques.push(s);
                    next
                });
                remap.push(code);
            }
            remaps.push(remap);
        }
        for (a, remap) in arrays.iter().zip(&remaps) {
            codes.extend((0..a.len()).map(|i| a.code(i).map_or(0, |c| remap[c as usize])));
        }
        DictionaryArray {
            codes: Window::whole(codes),
            validity,
            values: Dictionary::new(Arc::new(StringArray::from_strings(uniques))),
        }
    }

    /// Lexicographic rank of each dictionary entry: `ranks[code]` orders the
    /// same as the decoded strings. One sort over the (small) dictionary
    /// buys order-correct comparisons on codes for the whole column; the
    /// ranks are kept beside the dictionary, so every array sharing it —
    /// windows, gathers, same-dictionary concats — sorts it at most once.
    pub fn value_ranks(&self) -> &[i32] {
        self.values.ranks.get_or_init(|| {
            let strings = &self.values.strings;
            let mut order: Vec<usize> = (0..strings.len()).collect();
            order.sort_by_cached_key(|&d| {
                strings.value(d).expect("dictionary entries are non-null")
            });
            let mut ranks = vec![0i32; strings.len()];
            for (rank, &d) in order.iter().enumerate() {
                ranks[d] = rank as i32;
            }
            ranks
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let src = StringArray::from_options([
            Some("b"),
            None,
            Some("a"),
            Some("b"),
            Some(""),
            Some("naïve✓"),
        ]);
        let d = DictionaryArray::encode(&src);
        assert_eq!(d.len(), 6);
        // Four unique non-null values, first-appearance order.
        assert_eq!(d.values().len(), 4);
        assert_eq!(d.value(0), Some("b"));
        assert_eq!(d.value(1), None);
        assert_eq!(d.code(0), d.code(3));
        let back = d.decode();
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            src.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn byte_size_counts_codes_only() {
        let src = StringArray::from_strings(["aaaaaaaaaa", "bbbbbbbbbb", "aaaaaaaaaa"]);
        let d = DictionaryArray::encode(&src);
        assert_eq!(d.byte_size(), 3 * 4);
        assert_eq!(d.dict_byte_size(), d.values().byte_size());
        let nullable = DictionaryArray::encode(&StringArray::from_options([Some("x"), None]));
        assert_eq!(
            nullable.byte_size(),
            2 * 4 + nullable.validity().unwrap().byte_size()
        );
    }

    #[test]
    fn gather_shares_dictionary() {
        let d = DictionaryArray::encode(&StringArray::from_options([Some("x"), None, Some("y")]));
        let g = d.gather([2, 1, 0, 2]);
        assert!(Arc::ptr_eq(g.values(), d.values()));
        assert_eq!(
            g.iter().collect::<Vec<_>>(),
            vec![Some("y"), None, Some("x"), Some("y")]
        );
        let go = d.gather([Some(0), None, Some(1)]);
        assert!(Arc::ptr_eq(go.values(), d.values()));
        assert_eq!(go.iter().collect::<Vec<_>>(), vec![Some("x"), None, None]);
    }

    #[test]
    fn concat_same_dictionary_is_codes_only() {
        let d = DictionaryArray::encode(&StringArray::from_strings(["p", "q", "p"]));
        let g = d.gather([2, 0]);
        let c = DictionaryArray::concat(&[&d, &g]);
        assert!(Arc::ptr_eq(c.values(), d.values()));
        assert_eq!(
            c.iter().collect::<Vec<_>>(),
            vec![Some("p"), Some("q"), Some("p"), Some("p"), Some("p")]
        );
    }

    #[test]
    fn concat_merges_distinct_dictionaries() {
        let a = DictionaryArray::encode(&StringArray::from_options([Some("x"), Some("y")]));
        let b = DictionaryArray::encode(&StringArray::from_options([Some("y"), None, Some("z")]));
        let c = DictionaryArray::concat(&[&a, &b]);
        assert_eq!(c.values().len(), 3);
        assert_eq!(
            c.iter().collect::<Vec<_>>(),
            vec![Some("x"), Some("y"), Some("y"), None, Some("z")]
        );
    }

    #[test]
    fn value_ranks_order_like_strings() {
        let d = DictionaryArray::encode(&StringArray::from_strings(["mango", "apple", "pear"]));
        // Windows, gathers and same-dictionary concats — taken before or
        // after the first use — read the one rank vector beside the
        // dictionary.
        let window = d.slice(1, 2);
        let ranks = d.value_ranks();
        // apple < mango < pear.
        assert_eq!(ranks, [1, 0, 2]);
        let gathered = d.gather([2, 0]);
        let joined = DictionaryArray::concat(&[&window, &gathered]);
        for shared in [&window, &gathered, &joined] {
            assert_eq!(shared.value_ranks().as_ptr(), ranks.as_ptr());
        }
        // A merged dictionary is a new one, with ranks of its own.
        let other = DictionaryArray::encode(&StringArray::from_strings(["kiwi"]));
        let merged = DictionaryArray::concat(&[&d, &other]);
        assert_eq!(merged.value_ranks(), [2, 0, 3, 1]);
        // Whether the ranks were computed yet never shows.
        assert_eq!(format!("{window:?}"), format!("{:?}", d.slice(1, 2)));
    }

    #[test]
    fn a_skewed_dictionary_decodes_without_over_reserving() {
        // One 8 MiB entry beside a 1-byte one: sized by the mean value length
        // alone, decoding 200 000 rows of the short code reserved
        // 4 MiB × 200 000 = 800 GB and died in `handle_alloc_error`.
        let dictionary = StringArray::from_strings(["x".repeat(8 << 20).as_str(), "y"]);
        let d = DictionaryArray::from_parts(vec![1; 200_000], None, Arc::new(dictionary));
        let decoded = d.decode();
        assert_eq!(decoded.value(199_999), Some("y"));
        assert_eq!(decoded.byte_size(), 200_001 * 4 + 200_000);
    }

    #[test]
    fn windows_share_codes_and_dictionary() {
        let d = DictionaryArray::encode(&StringArray::from_options([
            Some("x"),
            None,
            Some("y"),
            Some("x"),
        ]));
        let w = d.slice(2, 2);
        assert_eq!(w.codes().as_ptr(), d.codes()[2..].as_ptr());
        assert_eq!(w.dict_ptr(), d.dict_ptr());
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![Some("y"), Some("x")]);
        // No NULL in the window: codes only.
        assert_eq!(w.byte_size(), 2 * 4);
        let whole = DictionaryArray::concat(&[&d.slice(0, 2), &w]);
        assert_eq!(whole.codes().as_ptr(), d.codes().as_ptr());
        assert_eq!(whole.byte_size(), d.byte_size());
        let reordered = DictionaryArray::concat(&[&w, &d.slice(0, 2)]);
        assert_ne!(reordered.codes().as_ptr(), w.codes().as_ptr());
        assert_eq!(
            reordered.iter().collect::<Vec<_>>(),
            vec![Some("y"), Some("x"), Some("x"), None]
        );
    }

    #[test]
    fn all_null_and_empty() {
        let d = DictionaryArray::encode(&StringArray::from_options::<_, &str>([None, None]));
        assert_eq!(d.values().len(), 0);
        assert_eq!(d.decode().iter().collect::<Vec<_>>(), vec![None, None]);
        let e = DictionaryArray::encode(&StringArray::from_strings::<[&str; 0], _>([]));
        assert_eq!(e.len(), 0);
        assert!(e.decode().is_empty());
    }
}
