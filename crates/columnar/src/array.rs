//! Typed arrays and the dynamically-typed [`Array`] enum.
//!
//! Every array is a *window* — an offset and a length — over `Arc` buffers
//! it shares with its clones and slices (Arrow's `(buffers, offset, length)`,
//! the paper's non-owning `column_view`, §3.2.3); a freshly built array is
//! the window over its whole buffer. There is one representation: values,
//! codes and string offsets sit in a crate-private `Window<T>` that only
//! reads as its own slice, so no accessor can forget the offset, no caller
//! can tell a slice from a copy, and `slice` is O(1). Only the validity
//! [`Bitmap`] is copied (`len / 64` words), re-decided per window by the
//! output rule below. `concat` closes the loop: windows over one buffer,
//! adjacent and in order, re-join into the window spanning them
//! (`Window::spanning`); anything else is copied. A window keeps its whole
//! buffer alive.
//!
//! Rows move one way: `gather`. Every array type has exactly one, generic
//! over a list of [`RowIndex`] values — `&[I]` or `&Vec<I>` for `usize`,
//! libcudf's `i32`, or either in an `Option` (a `None` index produces a
//! NULL: the padded side of an outer join), a `Range<usize>`, or an adapter
//! over those — and `filter` is that function over a selection's set bits.
//! Pass lists by reference: the list is walked once per column and pass, so
//! an owned `Vec` would be cloned each time. Whether a result carries a
//! validity bitmap is decided in one place, `Bitmap::into_validity`: iff it
//! holds a NULL, for a gather (`gathered_validity`), a window and a concat
//! alike — so `slice(o, l)` and `gather(o..o + l)` agree in `byte_size()`.

use crate::bitmap::Bitmap;
use crate::dict_array::DictionaryArray;
use crate::scalar::Scalar;
use crate::schema::DataType;
use crate::string_array::StringArray;
use crate::{ColumnarError, Result};
use std::sync::Arc;

mod sealed {
    pub trait Sealed {}
    impl Sealed for usize {}
    impl Sealed for i32 {}
    impl Sealed for Option<usize> {}
    impl Sealed for Option<i32> {}
    impl<I: Sealed> Sealed for &I {}
}

/// A row index `gather` accepts: `usize`, libcudf's `i32`, or either in an
/// `Option` (and references to them, so `&[I]` and a `Range<usize>` are the
/// same kind of argument). Only `None` means NULL; a bare index that is
/// negative or out of range is a caller bug and panics like `values[i]`.
pub trait RowIndex: Copy + sealed::Sealed {
    /// Whether this index type can be `None`.
    const NULLABLE: bool;
    /// The source row, `None` for a NULL output row.
    fn row(self) -> Option<usize>;
}

impl RowIndex for usize {
    const NULLABLE: bool = false;
    fn row(self) -> Option<usize> {
        Some(self)
    }
}

impl RowIndex for i32 {
    const NULLABLE: bool = false;
    fn row(self) -> Option<usize> {
        Some(self as usize)
    }
}

impl RowIndex for Option<usize> {
    const NULLABLE: bool = true;
    fn row(self) -> Option<usize> {
        self
    }
}

impl RowIndex for Option<i32> {
    const NULLABLE: bool = true;
    fn row(self) -> Option<usize> {
        self.map(|i| i as usize)
    }
}

impl<I: RowIndex> RowIndex for &I {
    const NULLABLE: bool = I::NULLABLE;
    fn row(self) -> Option<usize> {
        (*self).row()
    }
}

/// The source row behind index `ix`, `None` when the output row is NULL: a
/// `None` index or a NULL source slot.
pub(crate) fn live_row(validity: Option<&Bitmap>, ix: impl RowIndex) -> Option<usize> {
    ix.row().filter(|&i| validity.is_none_or(|v| v.get(i)))
}

/// The output rule of every row move, on which each `byte_size()` — hence
/// every simulated ledger — depends: the gathered rows carry a validity
/// bitmap iff one of them is NULL. Bare indices over an all-valid source
/// cannot produce one, so that instantiation does no work.
pub(crate) fn gathered_validity<I: RowIndex>(
    source: Option<&Bitmap>,
    indices: impl Iterator<Item = I>,
) -> Option<Bitmap> {
    if source.is_none() && !I::NULLABLE {
        return None;
    }
    Bitmap::from_iter(indices.map(|ix| live_row(source, ix).is_some())).into_validity()
}

/// The same rule for a window: rows `[start, start + len)` of `source`, kept
/// iff one of them is NULL.
pub(crate) fn window_validity(source: Option<&Bitmap>, start: usize, len: usize) -> Option<Bitmap> {
    source.and_then(|v| v.slice(start, len).into_validity())
}

/// A window — an offset and a length — over a shared buffer: what every
/// array holds its values, codes or offsets in, and reads as a slice. A new
/// buffer's window covers all of it; a `clone` or `slice` shares the buffer.
#[derive(Debug, Clone)]
pub(crate) struct Window<T> {
    buffer: Arc<Vec<T>>,
    offset: usize,
    len: usize,
}

impl<T: Clone> Window<T> {
    /// The window over all of a new buffer.
    pub(crate) fn whole(buffer: Vec<T>) -> Self {
        Self {
            offset: 0,
            len: buffer.len(),
            buffer: Arc::new(buffer),
        }
    }

    /// Elements `[start, start + len)` over the same buffer. A range past the
    /// end is a caller bug and panics, like a bad bare index.
    pub(crate) fn narrow(&self, start: usize, len: usize) -> Self {
        let fits = start.checked_add(len).is_some_and(|end| end <= self.len);
        assert!(fits, "slice {start}+{len} out of bounds ({})", self.len);
        Self {
            buffer: Arc::clone(&self.buffer),
            offset: self.offset + start,
            len,
        }
    }

    /// The adjacency rule of every `concat`: when `parts` are windows over
    /// one buffer, in order, each starting `overlap` elements before the
    /// previous one ends (0: adjacent; 1 for string offsets, where a row's
    /// end is the next row's start), the window spanning them, which shares
    /// the buffer instead of copying it.
    pub(crate) fn spanning(mut parts: impl Iterator<Item = Self>, overlap: usize) -> Option<Self> {
        let mut span = parts.next()?;
        for p in parts {
            if !Arc::ptr_eq(&p.buffer, &span.buffer) || p.offset + overlap != span.offset + span.len
            {
                return None;
            }
            span.len += p.len - overlap;
        }
        Some(span)
    }
}

impl<T> std::ops::Deref for Window<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buffer[self.offset..self.offset + self.len]
    }
}

/// Immutable fixed-width array: a window over a shared buffer.
#[derive(Debug, Clone)]
pub struct PrimitiveArray<T: Copy> {
    values: Window<T>,
    validity: Option<Bitmap>,
}

impl<T: Copy> PrimitiveArray<T> {
    /// Build from values, all valid.
    pub fn from_values(values: Vec<T>) -> Self {
        Self {
            values: Window::whole(values),
            validity: None,
        }
    }

    /// Build from optional values (None ⇒ null); null slots hold `fill`.
    pub fn from_options(values: impl IntoIterator<Item = Option<T>>, fill: T) -> Self {
        let mut vals = Vec::new();
        let mut bits = Vec::new();
        for v in values {
            match v {
                Some(v) => {
                    vals.push(v);
                    bits.push(true);
                }
                None => {
                    vals.push(fill);
                    bits.push(false);
                }
            }
        }
        Self {
            values: Window::whole(vals),
            validity: Bitmap::from_iter(bits).into_validity(),
        }
    }

    /// Build from a value buffer plus an optional validity bitmap, keeping
    /// the output rule every kernel relies on: a validity bitmap is present
    /// iff some element is null, and null slots hold `T::default()`.
    pub fn from_parts(mut values: Vec<T>, validity: Option<Bitmap>) -> Self
    where
        T: Default,
    {
        let validity = validity.and_then(Bitmap::into_validity);
        if let Some(v) = &validity {
            assert_eq!(v.len(), values.len(), "validity length mismatch");
            for i in v.not().set_indices() {
                values[i] = T::default();
            }
        }
        Self {
            values: Window::whole(values),
            validity,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// True if element `i` is non-null.
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().map(|v| v.get(i)).unwrap_or(true)
    }

    /// Element `i`, `None` if null.
    pub fn value(&self, i: usize) -> Option<T> {
        if self.is_valid(i) {
            Some(self.values[i])
        } else {
            None
        }
    }

    /// Raw value slice (null slots contain fill values; check validity).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The validity bitmap, if any nulls.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// Gather elements at `indices`; NULL rows hold `T::default()`.
    pub fn gather<I: RowIndex>(
        &self,
        indices: impl IntoIterator<Item = I, IntoIter: ExactSizeIterator + Clone>,
    ) -> PrimitiveArray<T>
    where
        T: Default,
    {
        let (indices, validity) = (indices.into_iter(), self.validity.as_ref());
        // Sliced once: behind the `Arc` the loop would reload pointer and length per row.
        let values = self.values();
        PrimitiveArray {
            validity: gathered_validity(validity, indices.clone()),
            values: Window::whole(
                indices
                    .map(|ix| live_row(validity, ix).map_or_else(T::default, |i| values[i]))
                    .collect(),
            ),
        }
    }

    /// Rows `[start, start + len)` as a window over the same buffer: nothing
    /// but the validity bits is copied. Panics if the range runs past the end.
    pub fn slice(&self, start: usize, len: usize) -> PrimitiveArray<T> {
        PrimitiveArray {
            values: self.values.narrow(start, len),
            validity: window_validity(self.validity.as_ref(), start, len),
        }
    }

    /// Iterate as `Option<T>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<T>> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// Heap bytes held.
    pub fn byte_size(&self) -> usize {
        self.values.len() * std::mem::size_of::<T>()
            + self.validity.as_ref().map(|v| v.byte_size()).unwrap_or(0)
    }

    /// Concatenate arrays: adjacent windows over one buffer re-join into the
    /// window spanning them, anything else is copied.
    pub fn concat(arrays: &[&PrimitiveArray<T>]) -> PrimitiveArray<T> {
        let slices = || arrays.iter().map(|a| a.values()).collect::<Vec<_>>();
        let spanning = Window::spanning(arrays.iter().map(|a| a.values.clone()), 0);
        let parts = arrays.iter().map(|a| (a.validity.as_ref(), a.len()));
        PrimitiveArray {
            values: spanning.unwrap_or_else(|| Window::whole(slices().concat())),
            validity: Bitmap::concat_validity(parts),
        }
    }
}

/// Immutable boolean array (byte-per-value storage plus validity bitmap;
/// selection vectors use [`Bitmap`] directly, this type is for column data).
#[derive(Debug, Clone)]
pub struct BoolArray {
    values: Bitmap,
    validity: Option<Bitmap>,
}

impl BoolArray {
    /// Build from booleans, all valid.
    pub fn from_values(values: impl IntoIterator<Item = bool>) -> Self {
        Self {
            values: Bitmap::from_iter(values),
            validity: None,
        }
    }

    /// Build from optional booleans.
    pub fn from_options(values: impl IntoIterator<Item = Option<bool>>) -> Self {
        let mut vals = Vec::new();
        let mut bits = Vec::new();
        for v in values {
            vals.push(v.unwrap_or(false));
            bits.push(v.is_some());
        }
        Self {
            values: Bitmap::from_iter(vals),
            validity: Bitmap::from_iter(bits).into_validity(),
        }
    }

    /// Build from a value bitmap plus an optional validity bitmap, keeping
    /// the output rule every kernel relies on: a validity bitmap is present
    /// iff some element is null, and null slots hold `false`.
    pub fn from_parts(values: Bitmap, validity: Option<Bitmap>) -> Self {
        match validity.and_then(Bitmap::into_validity) {
            Some(v) => Self {
                values: values.and(&v),
                validity: Some(v),
            },
            None => Self {
                values,
                validity: None,
            },
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// True if element `i` is non-null.
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().map(|v| v.get(i)).unwrap_or(true)
    }

    /// The value bits (null slots hold `false`; check validity).
    pub fn values(&self) -> &Bitmap {
        &self.values
    }

    /// The validity bitmap, if any nulls.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// Element `i`, `None` if null.
    pub fn value(&self, i: usize) -> Option<bool> {
        if self.is_valid(i) {
            Some(self.values.get(i))
        } else {
            None
        }
    }

    /// Selection view: true where value is true AND valid (SQL WHERE
    /// semantics: null predicate results do not select).
    pub fn to_selection(&self) -> Bitmap {
        match &self.validity {
            Some(v) => self.values.and(v),
            None => self.values.clone(),
        }
    }

    /// Gather elements at `indices`. NULL rows hold `false`: source NULL
    /// slots already do, and a `None` index gathers a clear bit.
    pub fn gather<I: RowIndex>(
        &self,
        indices: impl IntoIterator<Item = I, IntoIter: ExactSizeIterator + Clone>,
    ) -> BoolArray {
        let indices = indices.into_iter();
        BoolArray {
            validity: gathered_validity(self.validity.as_ref(), indices.clone()),
            values: self.values.gather(indices),
        }
    }

    /// Rows `[start, start + len)`: two [`Bitmap::slice`]s, the one array
    /// `slice` that copies (a bit per row). Panics if the range runs past
    /// the end.
    pub fn slice(&self, start: usize, len: usize) -> BoolArray {
        BoolArray {
            values: self.values.slice(start, len),
            validity: window_validity(self.validity.as_ref(), start, len),
        }
    }

    /// Heap bytes held.
    pub fn byte_size(&self) -> usize {
        self.values.byte_size() + self.validity.as_ref().map(|v| v.byte_size()).unwrap_or(0)
    }

    /// Concatenate arrays, value bits and validity a word at a time.
    pub fn concat(arrays: &[&BoolArray]) -> BoolArray {
        BoolArray {
            values: Bitmap::concat(arrays.iter().map(|a| a.values.clone())),
            validity: Bitmap::concat_validity(arrays.iter().map(|a| (a.validity(), a.len()))),
        }
    }
}

/// A dynamically-typed immutable column. Cloning shares buffers (zero-copy).
#[derive(Debug, Clone)]
pub enum Array {
    /// Boolean column.
    Bool(BoolArray),
    /// 32-bit integer column.
    Int32(PrimitiveArray<i32>),
    /// 64-bit integer column.
    Int64(PrimitiveArray<i64>),
    /// 64-bit float column.
    Float64(PrimitiveArray<f64>),
    /// UTF-8 string column.
    Utf8(StringArray),
    /// Dictionary-encoded UTF-8 string column (logical type is still
    /// [`DataType::Utf8`]; the encoding is a physical-layer detail).
    Dict(DictionaryArray),
    /// Date column (days since epoch).
    Date32(PrimitiveArray<i32>),
}

impl Array {
    // -- constructors -------------------------------------------------------

    /// Int32 column from values.
    pub fn from_i32(values: impl IntoIterator<Item = i32>) -> Array {
        Array::Int32(PrimitiveArray::from_values(values.into_iter().collect()))
    }

    /// Int64 column from values.
    pub fn from_i64(values: impl IntoIterator<Item = i64>) -> Array {
        Array::Int64(PrimitiveArray::from_values(values.into_iter().collect()))
    }

    /// Float64 column from values.
    pub fn from_f64(values: impl IntoIterator<Item = f64>) -> Array {
        Array::Float64(PrimitiveArray::from_values(values.into_iter().collect()))
    }

    /// Bool column from values.
    pub fn from_bool(values: impl IntoIterator<Item = bool>) -> Array {
        Array::Bool(BoolArray::from_values(values))
    }

    /// String column from values.
    pub fn from_strs<I, S>(values: I) -> Array
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Array::Utf8(StringArray::from_strings(values))
    }

    /// Date column from day counts.
    pub fn from_date32(values: impl IntoIterator<Item = i32>) -> Array {
        Array::Date32(PrimitiveArray::from_values(values.into_iter().collect()))
    }

    /// Build a column of `len` copies of `scalar` with the given type
    /// (used for literal columns and null padding in outer joins).
    pub fn from_scalar(scalar: &Scalar, data_type: DataType, len: usize) -> Array {
        match data_type {
            DataType::Bool => Array::Bool(BoolArray::from_options(std::iter::repeat_n(
                scalar.as_bool(),
                len,
            ))),
            DataType::Int32 => Array::Int32(PrimitiveArray::from_options(
                std::iter::repeat_n(scalar.as_i64().map(|v| v as i32), len),
                0,
            )),
            DataType::Int64 => Array::Int64(PrimitiveArray::from_options(
                std::iter::repeat_n(scalar.as_i64(), len),
                0,
            )),
            DataType::Float64 => Array::Float64(PrimitiveArray::from_options(
                std::iter::repeat_n(scalar.as_f64(), len),
                0.0,
            )),
            DataType::Utf8 => Array::Utf8(StringArray::from_options(std::iter::repeat_n(
                scalar.as_str(),
                len,
            ))),
            DataType::Date32 => Array::Date32(PrimitiveArray::from_options(
                std::iter::repeat_n(scalar.as_i64().map(|v| v as i32), len),
                0,
            )),
        }
    }

    /// Build a column from scalars of uniform type.
    pub fn from_scalars(scalars: &[Scalar], data_type: DataType) -> Array {
        match data_type {
            DataType::Bool => {
                Array::Bool(BoolArray::from_options(scalars.iter().map(|s| s.as_bool())))
            }
            DataType::Int32 => Array::Int32(PrimitiveArray::from_options(
                scalars.iter().map(|s| s.as_i64().map(|v| v as i32)),
                0,
            )),
            DataType::Int64 => Array::Int64(PrimitiveArray::from_options(
                scalars.iter().map(|s| s.as_i64()),
                0,
            )),
            DataType::Float64 => Array::Float64(PrimitiveArray::from_options(
                scalars.iter().map(|s| s.as_f64()),
                0.0,
            )),
            DataType::Utf8 => Array::Utf8(StringArray::from_options(
                scalars.iter().map(|s| s.as_str()),
            )),
            DataType::Date32 => Array::Date32(PrimitiveArray::from_options(
                scalars.iter().map(|s| s.as_i64().map(|v| v as i32)),
                0,
            )),
        }
    }

    // -- metadata ------------------------------------------------------------

    /// Logical type of the column. Dictionary-encoded strings report
    /// [`DataType::Utf8`]: the encoding is invisible to schemas and plans.
    pub fn data_type(&self) -> DataType {
        match self {
            Array::Bool(_) => DataType::Bool,
            Array::Int32(_) => DataType::Int32,
            Array::Int64(_) => DataType::Int64,
            Array::Float64(_) => DataType::Float64,
            Array::Utf8(_) | Array::Dict(_) => DataType::Utf8,
            Array::Date32(_) => DataType::Date32,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Array::Bool(a) => a.len(),
            Array::Int32(a) | Array::Date32(a) => a.len(),
            Array::Int64(a) => a.len(),
            Array::Float64(a) => a.len(),
            Array::Utf8(a) => a.len(),
            Array::Dict(a) => a.len(),
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if element `i` is non-null.
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            Array::Bool(a) => a.is_valid(i),
            Array::Int32(a) | Array::Date32(a) => a.is_valid(i),
            Array::Int64(a) => a.is_valid(i),
            Array::Float64(a) => a.is_valid(i),
            Array::Utf8(a) => a.is_valid(i),
            Array::Dict(a) => a.is_valid(i),
        }
    }

    /// The validity bitmap, if any element is null.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Array::Bool(a) => a.validity(),
            Array::Int32(a) | Array::Date32(a) => a.validity(),
            Array::Int64(a) => a.validity(),
            Array::Float64(a) => a.validity(),
            Array::Utf8(a) => a.validity(),
            Array::Dict(a) => a.validity(),
        }
    }

    /// Number of null elements.
    pub fn null_count(&self) -> usize {
        self.validity().map_or(0, |v| v.len() - v.count_set())
    }

    /// Heap bytes held by this column's buffers. For dictionary-encoded
    /// columns this is the moved representation — codes plus validity —
    /// excluding the shared dictionary (see [`DictionaryArray::byte_size`]).
    pub fn byte_size(&self) -> usize {
        match self {
            Array::Bool(a) => a.byte_size(),
            Array::Int32(a) | Array::Date32(a) => a.byte_size(),
            Array::Int64(a) => a.byte_size(),
            Array::Float64(a) => a.byte_size(),
            Array::Utf8(a) => a.byte_size(),
            Array::Dict(a) => a.byte_size(),
        }
    }

    /// Bytes of the shared dictionary behind this column (0 unless
    /// dictionary-encoded). Charged only by operators that genuinely read
    /// payload bytes, and by the wire the first time a dictionary ships.
    pub fn dict_byte_size(&self) -> usize {
        match self {
            Array::Dict(a) => a.dict_byte_size(),
            _ => 0,
        }
    }

    // -- element access ------------------------------------------------------

    /// Element `i` as a [`Scalar`] (`Scalar::Null` for nulls).
    pub fn scalar(&self, i: usize) -> Scalar {
        match self {
            Array::Bool(a) => a.value(i).map(Scalar::Bool).unwrap_or(Scalar::Null),
            Array::Int32(a) => a.value(i).map(Scalar::Int32).unwrap_or(Scalar::Null),
            Array::Int64(a) => a.value(i).map(Scalar::Int64).unwrap_or(Scalar::Null),
            Array::Float64(a) => a.value(i).map(Scalar::Float64).unwrap_or(Scalar::Null),
            Array::Utf8(a) => a
                .value(i)
                .map(|s| Scalar::Utf8(s.to_string()))
                .unwrap_or(Scalar::Null),
            Array::Dict(a) => a
                .value(i)
                .map(|s| Scalar::Utf8(s.to_string()))
                .unwrap_or(Scalar::Null),
            Array::Date32(a) => a.value(i).map(Scalar::Date32).unwrap_or(Scalar::Null),
        }
    }

    /// String value at `i` (convenience for tests), `None` if not a string
    /// column or null. Transparent over dictionary encoding.
    pub fn utf8_value(&self, i: usize) -> Option<&str> {
        match self {
            Array::Utf8(a) => a.value(i),
            Array::Dict(a) => a.value(i),
            _ => None,
        }
    }

    /// i64 view of element `i` for integer/date columns.
    pub fn i64_value(&self, i: usize) -> Option<i64> {
        match self {
            Array::Int32(a) | Array::Date32(a) => a.value(i).map(|v| v as i64),
            Array::Int64(a) => a.value(i),
            _ => None,
        }
    }

    /// f64 view of element `i` for numeric columns.
    pub fn f64_value(&self, i: usize) -> Option<f64> {
        match self {
            Array::Int32(a) | Array::Date32(a) => a.value(i).map(|v| v as f64),
            Array::Int64(a) => a.value(i).map(|v| v as f64),
            Array::Float64(a) => a.value(i),
            _ => None,
        }
    }

    // -- typed views ---------------------------------------------------------

    /// Borrow as i64 array.
    pub fn as_i64(&self) -> Result<&PrimitiveArray<i64>> {
        match self {
            Array::Int64(a) => Ok(a),
            other => Err(ColumnarError::TypeMismatch {
                expected: "i64".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrow as i32/date32 array.
    pub fn as_i32(&self) -> Result<&PrimitiveArray<i32>> {
        match self {
            Array::Int32(a) | Array::Date32(a) => Ok(a),
            other => Err(ColumnarError::TypeMismatch {
                expected: "i32".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrow as f64 array.
    pub fn as_f64(&self) -> Result<&PrimitiveArray<f64>> {
        match self {
            Array::Float64(a) => Ok(a),
            other => Err(ColumnarError::TypeMismatch {
                expected: "f64".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrow as a dictionary-encoded string array.
    pub fn as_dict(&self) -> Result<&DictionaryArray> {
        match self {
            Array::Dict(a) => Ok(a),
            other => Err(ColumnarError::TypeMismatch {
                expected: "dictionary-encoded utf8".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// True if this column is dictionary-encoded.
    pub fn is_dict(&self) -> bool {
        matches!(self, Array::Dict(_))
    }

    /// Dictionary-encode string columns (no-op for non-strings and
    /// already-encoded columns; clones share buffers).
    pub fn dict_encode(&self) -> Array {
        match self {
            Array::Utf8(a) => Array::Dict(DictionaryArray::encode(a)),
            other => other.clone(),
        }
    }

    /// Decode dictionary-encoded columns to plain strings (no-op
    /// otherwise; clones share buffers).
    pub fn decoded(&self) -> Array {
        match self {
            Array::Dict(a) => Array::Utf8(a.decode()),
            other => other.clone(),
        }
    }

    /// Borrow as bool array.
    pub fn as_bool(&self) -> Result<&BoolArray> {
        match self {
            Array::Bool(a) => Ok(a),
            other => Err(ColumnarError::TypeMismatch {
                expected: "bool".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    // -- data movement -------------------------------------------------------

    /// Gather elements at `indices` into a new column; a `None` index
    /// produces a NULL (outer joins). Dictionary-encoded columns gather codes
    /// only; the dictionary stays shared.
    pub fn gather<I: RowIndex>(
        &self,
        indices: impl IntoIterator<Item = I, IntoIter: ExactSizeIterator + Clone>,
    ) -> Array {
        match self {
            Array::Bool(a) => Array::Bool(a.gather(indices)),
            Array::Int32(a) => Array::Int32(a.gather(indices)),
            Array::Int64(a) => Array::Int64(a.gather(indices)),
            Array::Float64(a) => Array::Float64(a.gather(indices)),
            Array::Utf8(a) => Array::Utf8(a.gather(indices)),
            Array::Dict(a) => Array::Dict(a.gather(indices)),
            Array::Date32(a) => Array::Date32(a.gather(indices)),
        }
    }

    /// Keep elements where `selection` is set.
    pub fn filter(&self, selection: &Bitmap) -> Array {
        assert_eq!(selection.len(), self.len(), "selection length mismatch");
        self.gather(selection.set_indices().as_slice())
    }

    /// Rows `[start, start + len)` as a window over the same buffers, equal
    /// to `gather(start..start + len)` in values, `byte_size()` and validity
    /// presence without copying a value. Panics if the range runs past the
    /// end ([`crate::Table::slice`] clamps).
    pub fn slice(&self, start: usize, len: usize) -> Array {
        match self {
            Array::Bool(a) => Array::Bool(a.slice(start, len)),
            Array::Int32(a) => Array::Int32(a.slice(start, len)),
            Array::Int64(a) => Array::Int64(a.slice(start, len)),
            Array::Float64(a) => Array::Float64(a.slice(start, len)),
            Array::Utf8(a) => Array::Utf8(a.slice(start, len)),
            Array::Dict(a) => Array::Dict(a.slice(start, len)),
            Array::Date32(a) => Array::Date32(a.slice(start, len)),
        }
    }

    /// Concatenate same-typed columns. Panics on type mismatch.
    pub fn concat(arrays: &[&Array]) -> Array {
        assert!(!arrays.is_empty(), "concat of zero arrays");
        match arrays[0] {
            Array::Bool(_) => Array::Bool(BoolArray::concat(
                &arrays
                    .iter()
                    .map(|a| a.as_bool().expect("bool"))
                    .collect::<Vec<_>>(),
            )),
            Array::Int32(_) => Array::Int32(PrimitiveArray::concat(
                &arrays
                    .iter()
                    .map(|a| a.as_i32().expect("i32"))
                    .collect::<Vec<_>>(),
            )),
            Array::Date32(_) => Array::Date32(PrimitiveArray::concat(
                &arrays
                    .iter()
                    .map(|a| a.as_i32().expect("date32"))
                    .collect::<Vec<_>>(),
            )),
            Array::Int64(_) => Array::Int64(PrimitiveArray::concat(
                &arrays
                    .iter()
                    .map(|a| a.as_i64().expect("i64"))
                    .collect::<Vec<_>>(),
            )),
            Array::Float64(_) => Array::Float64(PrimitiveArray::concat(
                &arrays
                    .iter()
                    .map(|a| a.as_f64().expect("f64"))
                    .collect::<Vec<_>>(),
            )),
            Array::Utf8(_) | Array::Dict(_) => Array::concat_strings(arrays),
        }
    }

    /// Concatenate string columns that may mix plain and dictionary-encoded
    /// inputs. All-encoded inputs stay encoded (codes-only when they share
    /// one dictionary); any plain input forces a decoded bulk concat.
    fn concat_strings(arrays: &[&Array]) -> Array {
        if arrays.iter().all(|a| a.is_dict()) {
            let dicts: Vec<&DictionaryArray> =
                arrays.iter().map(|a| a.as_dict().expect("dict")).collect();
            return Array::Dict(DictionaryArray::concat(&dicts));
        }
        // Mixed or all-plain: decode encoded inputs, then bulk concat.
        let decoded: Vec<StringArray> = arrays
            .iter()
            .filter_map(|a| match a {
                Array::Dict(d) => Some(d.decode()),
                _ => None,
            })
            .collect();
        let mut di = 0;
        let parts: Vec<&StringArray> = arrays
            .iter()
            .map(|a| match a {
                Array::Utf8(s) => s,
                Array::Dict(_) => {
                    let s = &decoded[di];
                    di += 1;
                    s
                }
                _ => panic!("concat_strings on non-string column"),
            })
            .collect();
        Array::Utf8(StringArray::concat(&parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::table::Table;
    use proptest::prelude::*;

    #[test]
    fn constructors_and_access() {
        let a = Array::from_i64([10, 20, 30]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.data_type(), DataType::Int64);
        assert_eq!(a.scalar(1), Scalar::Int64(20));
        assert_eq!(a.i64_value(2), Some(30));
        assert_eq!(a.f64_value(0), Some(10.0));
        assert_eq!(a.null_count(), 0);
    }

    #[test]
    fn nullable_primitive() {
        let a = Array::Int64(PrimitiveArray::from_options([Some(1), None, Some(3)], 0));
        assert_eq!(a.null_count(), 1);
        assert_eq!(a.scalar(1), Scalar::Null);
        assert!(!a.is_valid(1));
    }

    #[test]
    fn gather_and_filter() {
        let a = Array::from_i32([5, 6, 7, 8]);
        let g = a.gather([3, 0]);
        assert_eq!(g.i64_value(0), Some(8));
        assert_eq!(g.i64_value(1), Some(5));
        let sel = Bitmap::from_iter([true, false, true, false]);
        let f = a.filter(&sel);
        assert_eq!(f.len(), 2);
        assert_eq!(f.i64_value(1), Some(7));
    }

    #[test]
    fn gather_opt_produces_nulls() {
        let a = Array::from_strs(["x", "y"]);
        let g = a.gather([Some(1), None, Some(0)]);
        assert_eq!(g.utf8_value(0), Some("y"));
        assert_eq!(g.scalar(1), Scalar::Null);
        assert_eq!(g.utf8_value(2), Some("x"));
        assert_eq!(g.null_count(), 1);
    }

    #[test]
    fn from_scalar_null_padding() {
        let a = Array::from_scalar(&Scalar::Null, DataType::Int64, 4);
        assert_eq!(a.len(), 4);
        assert_eq!(a.null_count(), 4);
        let b = Array::from_scalar(&Scalar::Int64(9), DataType::Int64, 2);
        assert_eq!(b.i64_value(1), Some(9));
    }

    #[test]
    fn concat_mixed_nullability() {
        let a = Array::from_i64([1]);
        let b = Array::Int64(PrimitiveArray::from_options([None, Some(2)], 0));
        let c = Array::concat(&[&a, &b]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.scalar(1), Scalar::Null);
        assert_eq!(c.i64_value(2), Some(2));
    }

    #[test]
    fn typed_view_errors() {
        let a = Array::from_bool([true]);
        assert!(a.as_i64().is_err());
        assert!(a.as_bool().is_ok());
    }

    #[test]
    fn bool_selection_treats_null_as_false() {
        let a = BoolArray::from_options([Some(true), None, Some(false), Some(true)]);
        let sel = a.to_selection();
        assert_eq!(sel.set_indices(), vec![0, 3]);
    }

    /// `Array::gather_opt` as it was before PR 17 for every fixed-width
    /// column: one `Scalar` per output row, re-parsed by `from_scalars`.
    fn gather_opt_reference(a: &Array, indices: &[Option<usize>]) -> Array {
        let scalars: Vec<Scalar> = indices
            .iter()
            .map(|ix| ix.map(|i| a.scalar(i)).unwrap_or(Scalar::Null))
            .collect();
        Array::from_scalars(&scalars, a.data_type())
    }

    /// One column of every array kind over the same values.
    fn columns_of(values: &[Option<i64>]) -> [Array; 7] {
        let typed = |f: &dyn Fn(i64) -> Scalar, t: DataType| {
            let scalars: Vec<Scalar> = values.iter().map(|v| v.map_or(Scalar::Null, f)).collect();
            Array::from_scalars(&scalars, t)
        };
        [
            typed(&|v| Scalar::Bool(v & 1 == 1), DataType::Bool),
            typed(&|v| Scalar::Int32(v as i32), DataType::Int32),
            typed(&Scalar::Int64, DataType::Int64),
            typed(
                &|v| Scalar::Float64(f64::from_bits(v as u64)),
                DataType::Float64,
            ),
            typed(&|v| Scalar::Date32(v as i32), DataType::Date32),
            typed(&|v| Scalar::Utf8((v % 7).to_string()), DataType::Utf8),
            typed(&|v| Scalar::Utf8((v % 7).to_string()), DataType::Utf8).dict_encode(),
        ]
    }

    /// Equal the way results and the ledger see a column: values,
    /// `byte_size()`, and whether a validity bitmap exists.
    fn assert_same(got: &Array, expected: &Array) -> std::result::Result<(), TestCaseError> {
        prop_assert_eq!(got.len(), expected.len());
        for i in 0..got.len() {
            let (g, e) = (got.scalar(i), expected.scalar(i));
            // Scalar equality is total_cmp on floats: NaN payloads count.
            prop_assert_eq!(g, e, "{:?} row {}", got.data_type(), i);
        }
        prop_assert_eq!(got.byte_size(), expected.byte_size());
        prop_assert_eq!(got.validity().is_some(), expected.validity().is_some());
        prop_assert_eq!(got.is_dict(), expected.is_dict());
        Ok(())
    }

    #[test]
    fn from_parts_keeps_the_output_rule() {
        // All-set validity is dropped; null slots are zeroed.
        let all = PrimitiveArray::from_parts(vec![1i64, 2], Some(Bitmap::all_set(2)));
        assert!(all.validity().is_none());
        let some =
            PrimitiveArray::from_parts(vec![1.5f64, 2.5], Some(Bitmap::from_iter([false, true])));
        assert_eq!(some.values(), &[0.0, 2.5]);
        assert_eq!(some.value(0), None);
        let bits = BoolArray::from_parts(
            Bitmap::all_set(3),
            Some(Bitmap::from_iter([true, false, true])),
        );
        assert_eq!(bits.values().set_indices(), vec![0, 2]);
        assert!(
            BoolArray::from_parts(Bitmap::all_set(3), Some(Bitmap::all_set(3)))
                .validity()
                .is_none()
        );
    }

    /// Address of row `i`'s value, code or payload: equal addresses mean
    /// shared buffers. `None` for `Bool`, whose bitmaps are the one thing
    /// `slice` copies.
    fn ptr_at(a: &Array, i: usize) -> Option<*const u8> {
        match a {
            Array::Bool(_) => None,
            Array::Int32(a) | Array::Date32(a) => Some(a.values()[i..].as_ptr().cast()),
            Array::Int64(a) => Some(a.values()[i..].as_ptr().cast()),
            Array::Float64(a) => Some(a.values()[i..].as_ptr().cast()),
            Array::Utf8(a) => Some(a.value(i).expect("non-null").as_ptr()),
            Array::Dict(a) => Some(a.codes()[i..].as_ptr().cast()),
        }
    }

    #[test]
    fn windows_share_buffers_and_adjacent_windows_rejoin() {
        let values: Vec<Option<i64>> = (0..150).map(Some).collect();
        let cuts = [(0, 70), (70, 0), (70, 13), (83, 67)];
        for column in &columns_of(&values) {
            let windows: Vec<Array> = cuts.iter().map(|&(o, l)| column.slice(o, l)).collect();
            for (w, &(o, l)) in windows.iter().zip(&cuts) {
                assert_eq!(
                    (w.len(), l == 0 || ptr_at(w, 0) == ptr_at(column, o)),
                    (l, true)
                );
            }
            // A window of a window addresses the same buffer.
            assert_eq!(ptr_at(&windows[3].slice(7, 9), 2), ptr_at(column, 92));

            let whole = Array::concat(&windows.iter().collect::<Vec<_>>());
            assert_eq!(ptr_at(&whole, 0), ptr_at(column, 0));
            assert_same(&whole, column).unwrap();
            // Reordered, with a gap, or repeated: one buffer but not
            // adjacent, so the contents are copied.
            let (first, last) = (&windows[0], &windows[3]);
            for (parts, rows) in [
                ([last, first], (83..150).chain(0..70).collect::<Vec<_>>()),
                ([first, last], (0..70).chain(83..150).collect()),
                ([first, first], (0..70).chain(0..70).collect()),
            ] {
                let copied = Array::concat(&parts);
                assert_same(&copied, &column.gather(&rows)).unwrap();
                assert!(ptr_at(&copied, 0).is_none_or(|p| Some(p) != ptr_at(parts[0], 0)));
            }
        }
    }

    #[test]
    fn partitions_are_windows_of_one_permuted_table() {
        let values: Vec<Option<i64>> = (0..150).map(Some).collect();
        let columns = columns_of(&values);
        let fields = columns.iter().map(|c| Field::new("c", c.data_type()));
        let table = Table::new(Schema::new(fields.collect()), columns.to_vec());
        // Buckets 2 and 5 stay empty; the others interleave.
        let bucket = |row: usize| [0, 1, 3, 4, 6][row * 7 % 5];
        let parts = table.partition((0..150).map(bucket), 7);
        let sizes: Vec<usize> = parts.iter().map(Table::num_rows).collect();
        assert_eq!(sizes, [30, 30, 0, 30, 30, 0, 30]);

        // Adjacent windows over one buffer re-join without a copy, so the
        // concatenation *is* the permuted table and every partition starts
        // at its offset in it.
        let joined = Table::concat(&parts.iter().collect::<Vec<_>>());
        let order: Vec<usize> = (0..7)
            .flat_map(|b| (0..150).filter(move |&row| bucket(row) == b))
            .collect();
        let mut offset = 0;
        for part in parts.iter().filter(|p| p.num_rows() > 0) {
            for (window, whole) in part.columns().iter().zip(joined.columns()) {
                assert_eq!(ptr_at(window, 0), ptr_at(whole, offset));
            }
            offset += part.num_rows();
        }
        for (whole, column) in joined.columns().iter().zip(&columns) {
            assert_same(whole, &column.gather(&order)).unwrap();
        }
    }

    proptest! {
        /// Every array kind × every `RowIndex` type, over random, empty,
        /// repeated, descending and all-`None` index lists.
        #[test]
        fn prop_gather_opt_matches_the_scalar_reference(
            values in proptest::collection::vec(proptest::option::of(any::<i64>()), 1..60),
            picks in proptest::collection::vec(proptest::option::of(any::<usize>()), 0..80),
            source_nulls in any::<bool>(),
        ) {
            let n = values.len();
            let values: Vec<Option<i64>> =
                values.iter().map(|v| v.or((!source_nulls).then_some(0))).collect();
            let lists: [Vec<Option<usize>>; 5] = [
                picks.iter().map(|p| p.map(|i| i % n)).collect(),
                vec![],
                vec![Some(picks.len() % n); 3],
                (0..n).rev().map(Some).collect(),
                vec![None; 4],
            ];
            for column in &columns_of(&values) {
                // The reference decodes; an encoded column must stay encoded.
                let reference = |indices: &[Option<usize>]| match column {
                    Array::Dict(_) => gather_opt_reference(column, indices).dict_encode(),
                    _ => gather_opt_reference(column, indices),
                };
                for list in &lists {
                    let as_i32: Vec<Option<i32>> =
                        list.iter().map(|ix| ix.map(|i| i as i32)).collect();
                    let expected = reference(list);
                    assert_same(&column.gather(list), &expected)?;
                    assert_same(&column.gather(&as_i32), &expected)?;
                    // The bare index types, over the rows the list names.
                    let bare: Vec<usize> = list.iter().flatten().copied().collect();
                    let bare_i32: Vec<i32> = bare.iter().map(|&i| i as i32).collect();
                    let expected = reference(&bare.iter().map(|&i| Some(i)).collect::<Vec<_>>());
                    let got = column.gather(&bare);
                    assert_same(&got, &expected)?;
                    assert_same(&column.gather(&bare_i32), &expected)?;
                    if let (Array::Dict(got), Array::Dict(source)) = (&got, column) {
                        prop_assert_eq!(got.dict_ptr(), source.dict_ptr());
                    }
                }
            }
        }

        /// `slice` is `gather` over a clamped row range and `filter` is
        /// `gather` over the selection's set bits, for every array kind.
        #[test]
        fn prop_slice_and_filter_are_gather(
            values in proptest::collection::vec(proptest::option::of(any::<i64>()), 0..200),
            offset in 0usize..220,
            len in 0usize..220,
            mask_seed in any::<u64>(),
        ) {
            let n = values.len();
            let columns = columns_of(&values);
            let fields = columns.iter().map(|c| Field::new("c", c.data_type())).collect();
            let table = Table::new(Schema::new(fields), columns.to_vec());

            let rows: Vec<usize> = (offset.min(n)..(offset + len).min(n)).collect();
            let (sliced, gathered) = (table.slice(offset, len), table.gather(&rows));
            prop_assert_eq!(sliced.num_rows(), rows.len());
            for (s, g) in sliced.columns().iter().zip(gathered.columns()) {
                assert_same(s, g)?;
            }

            let sel = Bitmap::from_iter((0..n).map(|i| (mask_seed >> (i % 64)) & 1 == 1));
            let filtered = table.filter(&sel);
            let gathered = table.gather(sel.set_indices().as_slice());
            prop_assert_eq!(filtered.num_rows(), sel.count_set());
            let pairs = filtered.columns().iter().zip(gathered.columns());
            for ((f, g), column) in pairs.zip(&columns) {
                assert_same(f, g)?;
                assert_same(&column.filter(&sel), g)?;
            }
        }

        /// Every partition of `Table::partition` is `gather` of its bucket's
        /// ascending row ids — values, `byte_size()`, validity presence,
        /// `dict_ptr()` — for every array kind, over 1, 2, 7 and 64 buckets
        /// (some always empty), an empty table, and a source that is itself
        /// a window at a non-zero offset.
        #[test]
        fn prop_partition_is_gather_per_bucket(
            values in proptest::collection::vec(proptest::option::of(any::<i64>()), 0..200),
            source_nulls in any::<bool>(),
            offset in 1usize..40,
            routing in any::<u64>(),
        ) {
            let n = values.len();
            let values: Vec<Option<i64>> =
                values.iter().map(|v| v.or((!source_nulls).then_some(0))).collect();
            let columns = columns_of(&values);
            let fields = columns.iter().map(|c| Field::new("c", c.data_type())).collect();
            let whole = Table::new(Schema::new(fields), columns.to_vec());
            for table in [whole.slice(offset, n), whole] {
                let rows = table.num_rows();
                for parts in [1usize, 2, 7, 64] {
                    // Buckets from `used` up receive no row.
                    let used = 1 + (routing % parts as u64) as usize;
                    let bucket_of: Vec<usize> = (0..rows as u64)
                        .map(|row| (routing.rotate_left(row as u32 % 64) ^ row) as usize % used)
                        .collect();
                    let got = table.partition(bucket_of.iter().copied(), parts);
                    prop_assert_eq!(got.len(), parts);
                    for (bucket, part) in got.iter().enumerate() {
                        let ids: Vec<usize> =
                            (0..rows).filter(|&row| bucket_of[row] == bucket).collect();
                        prop_assert_eq!(part.num_rows(), ids.len());
                        let expected = table.gather(&ids);
                        for (p, e) in part.columns().iter().zip(expected.columns()) {
                            assert_same(p, e)?;
                            if let (Array::Dict(p), Array::Dict(e)) = (p, e) {
                                prop_assert_eq!(p.dict_ptr(), e.dict_ptr());
                            }
                        }
                    }
                }
            }
        }

        /// `slice(o, l)`, and a slice of a slice, is `gather(o..o + l)` for
        /// every array kind — values, `byte_size()`, validity presence,
        /// `dict_ptr()` — over random (rarely word-aligned), word-aligned,
        /// empty and whole ranges. `Table::slice`'s clamping is held by
        /// `prop_slice_and_filter_are_gather`.
        #[test]
        fn prop_slice_is_gather_over_the_range(
            values in proptest::collection::vec(proptest::option::of(any::<i64>()), 0..200),
            source_nulls in any::<bool>(),
            cuts in proptest::collection::vec(any::<usize>(), 4..5),
        ) {
            let n = values.len();
            let values: Vec<Option<i64>> =
                values.iter().map(|v| v.or((!source_nulls).then_some(0))).collect();
            let o = cuts[0] % (n + 1);
            let l = cuts[1] % (n - o + 1);
            let aligned = 64.min(n);
            for column in &columns_of(&values) {
                for (o, l) in [(o, l), (aligned, n - aligned), (o, 0), (n, 0), (0, n)] {
                    let window = column.slice(o, l);
                    assert_same(&window, &column.gather(o..o + l))?;
                    let (o2, l2) = (cuts[2] % (l + 1), cuts[3] % (l - cuts[2] % (l + 1) + 1));
                    let inner = window.slice(o2, l2);
                    assert_same(&inner, &column.gather(o + o2..o + o2 + l2))?;
                    if let (Array::Dict(inner), Array::Dict(source)) = (&inner, column) {
                        prop_assert_eq!(inner.dict_ptr(), source.dict_ptr());
                    }
                }
            }
        }

        /// No consumer can tell a window at a non-zero offset from its
        /// materialised copy: `gather` with all four `RowIndex` types,
        /// `filter`, `concat`, `decode`, `value_ranks`, `iter`,
        /// `to_selection` (`scalar` is `assert_same`).
        #[test]
        fn prop_consumers_see_a_window_as_its_copy(
            values in proptest::collection::vec(proptest::option::of(any::<i64>()), 2..200),
            source_nulls in any::<bool>(),
            cuts in proptest::collection::vec(any::<usize>(), 2..3),
            picks in proptest::collection::vec(proptest::option::of(any::<usize>()), 0..80),
            mask_seed in any::<u64>(),
        ) {
            let n = values.len();
            let values: Vec<Option<i64>> =
                values.iter().map(|v| v.or((!source_nulls).then_some(0))).collect();
            let o = 1 + cuts[0] % (n - 1);
            let l = 1 + cuts[1] % (n - o);
            let list: Vec<Option<usize>> = picks.iter().map(|p| p.map(|i| i % l)).collect();
            let list_i32: Vec<Option<i32>> = list.iter().map(|ix| ix.map(|i| i as i32)).collect();
            let bare: Vec<usize> = list.iter().flatten().copied().collect();
            let bare_i32: Vec<i32> = bare.iter().map(|&i| i as i32).collect();
            let sel = Bitmap::from_iter((0..l).map(|i| (mask_seed >> (i % 64)) & 1 == 1));
            for column in &columns_of(&values) {
                let (window, copy) = (column.slice(o, l), column.gather(o..o + l));
                assert_same(&window.gather(&list), &copy.gather(&list))?;
                assert_same(&window.gather(&list_i32), &copy.gather(&list_i32))?;
                assert_same(&window.gather(&bare), &copy.gather(&bare))?;
                assert_same(&window.gather(&bare_i32), &copy.gather(&bare_i32))?;
                assert_same(&window.filter(&sel), &copy.filter(&sel))?;
                // Three times the rows, rebuilt from scalars (`concat` copies
                // bits by words, buffers by ranges).
                let thrice: Vec<Scalar> = (0..3 * l).map(|i| copy.scalar(i % l)).collect();
                let expected = match column {
                    Array::Dict(_) => Array::from_scalars(&thrice, DataType::Utf8).dict_encode(),
                    _ => Array::from_scalars(&thrice, column.data_type()),
                };
                assert_same(&Array::concat(&[&window, &copy, &window]), &expected)?;
                assert_same(&Array::concat(&[&copy, &copy, &copy]), &expected)?;
                assert_same(&window.decoded(), &copy.decoded())?;
                match (&window, &copy) {
                    (Array::Bool(w), Array::Bool(c)) => {
                        prop_assert_eq!(w.to_selection(), c.to_selection());
                    }
                    (Array::Int32(w), Array::Int32(c)) | (Array::Date32(w), Array::Date32(c)) => {
                        prop_assert_eq!(w.iter().collect::<Vec<_>>(), c.iter().collect::<Vec<_>>());
                    }
                    (Array::Int64(w), Array::Int64(c)) => {
                        prop_assert_eq!(w.iter().collect::<Vec<_>>(), c.iter().collect::<Vec<_>>());
                    }
                    (Array::Float64(w), Array::Float64(c)) => {
                        let bits = |a: &PrimitiveArray<f64>| -> Vec<Option<u64>> {
                            a.iter().map(|v| v.map(f64::to_bits)).collect()
                        };
                        prop_assert_eq!(bits(w), bits(c));
                    }
                    (Array::Utf8(w), Array::Utf8(c)) => {
                        prop_assert_eq!(w.iter().collect::<Vec<_>>(), c.iter().collect::<Vec<_>>());
                    }
                    (Array::Dict(w), Array::Dict(c)) => {
                        prop_assert_eq!(w.iter().collect::<Vec<_>>(), c.iter().collect::<Vec<_>>());
                        prop_assert_eq!(w.value_ranks(), c.value_ranks());
                        prop_assert_eq!(w.dict_ptr(), c.dict_ptr());
                        // One rank vector beside the shared dictionary.
                        prop_assert_eq!(w.value_ranks().as_ptr(), c.value_ranks().as_ptr());
                    }
                    _ => prop_assert!(false, "a window changed its kind"),
                }
            }
        }

        #[test]
        fn prop_gather_matches_scalar_access(
            values in proptest::collection::vec(any::<i64>(), 1..80),
            idx_seed in proptest::collection::vec(any::<usize>(), 0..80),
        ) {
            let a = Array::from_i64(values.clone());
            let indices: Vec<usize> = idx_seed.iter().map(|i| i % values.len()).collect();
            let g = a.gather(&indices);
            prop_assert_eq!(g.len(), indices.len());
            for (out_i, &src_i) in indices.iter().enumerate() {
                prop_assert_eq!(g.i64_value(out_i), Some(values[src_i]));
            }
        }

        #[test]
        fn prop_filter_preserves_order(
            values in proptest::collection::vec(any::<i32>(), 0..100),
            mask_seed in any::<u64>(),
        ) {
            let mask: Vec<bool> = (0..values.len())
                .map(|i| (mask_seed >> (i % 64)) & 1 == 1)
                .collect();
            let a = Array::from_i32(values.clone());
            let f = a.filter(&Bitmap::from_iter(mask.iter().copied()));
            let expected: Vec<i32> = values
                .iter()
                .zip(mask.iter())
                .filter(|(_, m)| **m)
                .map(|(v, _)| *v)
                .collect();
            prop_assert_eq!(f.len(), expected.len());
            for (i, e) in expected.iter().enumerate() {
                prop_assert_eq!(f.i64_value(i), Some(*e as i64));
            }
        }
    }
}
