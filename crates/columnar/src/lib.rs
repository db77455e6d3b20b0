//! # sirius-columnar — Arrow-derived columnar data format
//!
//! Sirius, libcudf, and the host databases in the paper all derive their
//! columnar layout from Apache Arrow, "which allows for zero-copy conversion
//! via pointer passing" (§3.2.3). This crate is that shared layout: typed
//! arrays over reference-counted buffers (so cross-engine handoff is a
//! pointer copy, never a deep copy), validity bitmaps, UTF-8 string arrays
//! with i32 offsets, schemas, and record-batch tables. It also holds the
//! operator vocabulary ([`ops`]) that plans name and kernels run, with its
//! typing rules.
//!
//! Computation does *not* live here — the GPU kernels are in `sirius-cudf`
//! and the CPU kernels in `sirius-exec-cpu`. This crate only offers
//! data-movement primitives (gather, filter-by-mask, slice, concat) that both
//! engines share, with cost accounting done by the caller.
//!
//! ```
//! use sirius_columnar::{Array, Table, Schema, Field, DataType};
//!
//! let schema = Schema::new(vec![
//!     Field::new("id", DataType::Int64),
//!     Field::new("name", DataType::Utf8),
//! ]);
//! let t = Table::new(
//!     schema,
//!     vec![
//!         Array::from_i64([1, 2, 3]),
//!         Array::from_strs(["ada", "grace", "edith"]),
//!     ],
//! );
//! assert_eq!(t.num_rows(), 3);
//! assert_eq!(t.column(1).utf8_value(2), Some("edith"));
//! ```

#![warn(missing_docs)]

pub mod array;
pub mod bitmap;
pub mod dict_array;
pub mod ops;
pub mod pretty;
pub mod scalar;
pub mod schema;
pub mod string_array;
pub mod table;

pub use array::{Array, BoolArray, PrimitiveArray, RowIndex};
pub use bitmap::Bitmap;
pub use dict_array::DictionaryArray;
pub use scalar::Scalar;
pub use schema::{DataType, Field, Schema};
pub use string_array::StringArray;
pub use table::Table;

/// Errors produced by columnar operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarError {
    /// Column types did not match the operation's expectation.
    TypeMismatch {
        /// The type the operation required.
        expected: String,
        /// The type it received.
        actual: String,
    },
    /// Arrays in one table had differing lengths.
    LengthMismatch {
        /// The length implied by the first column / the schema.
        expected: usize,
        /// The mismatching length found.
        actual: usize,
    },
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// The requested index.
        index: usize,
        /// The container length.
        len: usize,
    },
    /// Schema lookup by name failed.
    UnknownColumn(String),
}

impl std::fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnarError::TypeMismatch { expected, actual } => {
                write!(f, "type mismatch: expected {expected}, got {actual}")
            }
            ColumnarError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            ColumnarError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            ColumnarError::UnknownColumn(name) => write!(f, "unknown column: {name}"),
        }
    }
}

impl std::error::Error for ColumnarError {}

/// Result alias for columnar operations.
pub type Result<T> = std::result::Result<T, ColumnarError>;
