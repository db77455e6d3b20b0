//! Logical types, fields, and schemas.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Logical data types supported across the engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 32-bit signed integer.
    Int32,
    /// 64-bit signed integer (also fixed-point cents for money).
    Int64,
    /// 64-bit IEEE float.
    Float64,
    /// Variable-length UTF-8 string with i32 offsets (Arrow `utf8`).
    Utf8,
    /// Days since the UNIX epoch (Arrow `date32`).
    Date32,
}

impl DataType {
    /// Width in bytes of one fixed-size value; strings report the offset
    /// width (actual payload is accounted separately).
    pub fn fixed_width(&self) -> usize {
        match self {
            DataType::Bool => 1,
            DataType::Int32 | DataType::Date32 => 4,
            DataType::Int64 | DataType::Float64 => 8,
            DataType::Utf8 => 4,
        }
    }

    /// True for numeric types usable in arithmetic.
    pub fn is_numeric(&self) -> bool {
        matches!(self, DataType::Int32 | DataType::Int64 | DataType::Float64)
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DataType::Bool => "bool",
            DataType::Int32 => "i32",
            DataType::Int64 => "i64",
            DataType::Float64 => "f64",
            DataType::Utf8 => "utf8",
            DataType::Date32 => "date32",
        };
        f.write_str(s)
    }
}

/// A named, typed column slot in a schema. Cloning one bumps the name's
/// reference count and allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Column name (possibly qualified, e.g. `lineitem.l_orderkey`). Shared
    /// and immutable: every schema that carries the column points at the one
    /// allocation made where the name was first built.
    pub name: Arc<str>,
    /// Logical type.
    pub data_type: DataType,
    /// Whether nulls may appear (left-join outputs set this).
    pub nullable: bool,
}

impl Field {
    /// A non-nullable field.
    pub fn new(name: impl Into<Arc<str>>, data_type: DataType) -> Self {
        Self {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    /// A nullable field.
    pub fn nullable(name: impl Into<Arc<str>>, data_type: DataType) -> Self {
        Self {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    /// Copy of this field with a new name.
    pub fn renamed(&self, name: impl Into<Arc<str>>) -> Self {
        Self {
            name: name.into(),
            data_type: self.data_type,
            nullable: self.nullable,
        }
    }
}

/// An ordered collection of fields. A clone costs one allocation, the
/// `Vec` of fields: names are shared, not copied (and a `Table` holds its
/// schema behind an `Arc`, so cloning a table copies no schema at all).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    /// The fields, in column order.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Self { fields }
    }

    /// Shared empty schema.
    pub fn empty() -> Self {
        Self { fields: vec![] }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field whose name equals `name`, or whose unqualified
    /// suffix equals `name` (so `l_orderkey` finds `lineitem.l_orderkey`).
    /// Returns `None` on no match or ambiguity.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        if let Some(i) = self.fields.iter().position(|f| &*f.name == name) {
            return Some(i);
        }
        let mut found = None;
        for (i, f) in self.fields.iter().enumerate() {
            if f.name.rsplit('.').next() == Some(name) {
                if found.is_some() {
                    return None;
                }
                found = Some(i);
            }
        }
        found
    }

    /// Field at index `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema::new(fields)
    }

    /// Schema with only the fields at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.fields[i].clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_of_prefers_exact_match() {
        let s = Schema::new(vec![
            Field::new("a.x", DataType::Int32),
            Field::new("x", DataType::Int64),
        ]);
        assert_eq!(s.index_of("x"), Some(1));
        assert_eq!(s.index_of("a.x"), Some(0));
    }

    #[test]
    fn index_of_resolves_unqualified_suffix() {
        let s = Schema::new(vec![
            Field::new("lineitem.l_orderkey", DataType::Int64),
            Field::new("orders.o_orderkey", DataType::Int64),
        ]);
        assert_eq!(s.index_of("l_orderkey"), Some(0));
        assert_eq!(s.index_of("o_orderkey"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn index_of_ambiguous_is_none() {
        let s = Schema::new(vec![
            Field::new("a.k", DataType::Int32),
            Field::new("b.k", DataType::Int32),
        ]);
        assert_eq!(s.index_of("k"), None);
    }

    #[test]
    fn join_and_project() {
        let a = Schema::new(vec![Field::new("x", DataType::Int32)]);
        let b = Schema::new(vec![
            Field::new("y", DataType::Utf8),
            Field::new("z", DataType::Bool),
        ]);
        let j = a.join(&b);
        assert_eq!(j.len(), 3);
        let p = j.project(&[2, 0]);
        assert_eq!(&*p.fields[0].name, "z");
        assert_eq!(&*p.fields[1].name, "x");
    }

    #[test]
    fn fixed_widths() {
        assert_eq!(DataType::Bool.fixed_width(), 1);
        assert_eq!(DataType::Int32.fixed_width(), 4);
        assert_eq!(DataType::Date32.fixed_width(), 4);
        assert_eq!(DataType::Int64.fixed_width(), 8);
        assert_eq!(DataType::Float64.fixed_width(), 8);
        assert!(DataType::Int64.is_numeric());
        assert!(!DataType::Utf8.is_numeric());
    }
}
