//! Minimal offline stand-in for `serde`.
//!
//! Instead of serde's visitor architecture, this shim serializes through an
//! owned [`Value`] tree: `Serialize` renders a value into a `Value`,
//! `Deserialize` rebuilds it from one. `serde_json` (the sibling shim) maps
//! the tree to and from JSON text. The derive macros in `serde_derive`
//! generate impls with serde's *externally tagged* layout, so the wire
//! format matches what real serde would produce for the types in this
//! workspace (plain structs and enums, no field attributes). Shared strings
//! (`Arc<str>`, the type of a column name) serialize and deserialize as
//! `String` does, so their JSON is the same as an owned string's.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use std::collections::HashMap;
use std::hash::Hash;

/// A serialized value tree (the shim's data model; mirrors JSON).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Integer in `i64` range.
    I64(i64),
    /// Integer above `i64::MAX`.
    U64(u64),
    /// Floating point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object as ordered key/value pairs (insertion order preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrow as object pairs.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Borrow as array elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Borrow as string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) => "integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Error for an unexpected value shape.
    pub fn expected(what: impl std::fmt::Display, got: &Value) -> Self {
        DeError(format!("expected {what}, got {}", got.kind()))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Render `self` into a [`Value`] tree.
pub trait Serialize {
    /// Serialize into the value tree.
    fn to_value(&self) -> Value;
}

/// Rebuild `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserialize from the value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Look up a struct field in an object, erroring with the field name.
pub fn field<'v>(pairs: &'v [(String, Value)], name: &str) -> Result<&'v Value, DeError> {
    pairs
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError(format!("missing field `{name}`")))
}

// --- primitive impls -------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as i128;
                if wide >= 0 && wide > i64::MAX as i128 {
                    Value::U64(*self as u64)
                } else {
                    Value::I64(*self as i64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let wide: i128 = match v {
                    Value::I64(i) => *i as i128,
                    Value::U64(u) => *u as i128,
                    other => return Err(DeError::expected("integer", other)),
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError(format!("integer {wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::F64(f) => Ok(*f),
            Value::I64(i) => Ok(*i as f64),
            Value::U64(u) => Ok(*u as f64),
            other => Err(DeError::expected("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

/// `&'static str` deserializes by leaking — only static device/trend labels
/// round-trip through this impl, so the leak is a handful of tiny strings.
impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = String::from_value(v)?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError(format!("expected single char, got {s:?}"))),
        }
    }
}

// --- container impls -------------------------------------------------------

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = v.as_array().ok_or_else(|| DeError::expected("array", v))?;
        if items.len() != N {
            return Err(DeError(format!(
                "expected array of {N}, got {}",
                items.len()
            )));
        }
        let vec: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        Ok(vec.try_into().expect("length checked"))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(v) => v.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

/// A shared string (a column name) reads as a `String` does: the JSON text
/// is the same either way.
impl Deserialize for std::sync::Arc<str> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        String::from_value(v).map(std::sync::Arc::from)
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = v.as_array().ok_or_else(|| DeError::expected("tuple array", v))?;
                let expected = [$($i),+].len();
                if items.len() != expected {
                    return Err(DeError(format!(
                        "expected tuple of {expected}, got {}", items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$i])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A:0)
    (A:0, B:1)
    (A:0, B:1, C:2)
    (A:0, B:1, C:2, D:3)
}

impl<K: Serialize + ToString, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        // Sort keys for a deterministic wire form.
        let mut pairs: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(pairs)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", v))?;
        pairs
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

// Keep `Hash` referenced; HashMap keys above only need ToString but real
// serde bounds mention Hash — documenting intent costs nothing.
#[allow(dead_code)]
fn _hash_marker<T: Hash>() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(i64::from_value(&42i64.to_value()).unwrap(), 42);
        assert_eq!(u64::from_value(&u64::MAX.to_value()).unwrap(), u64::MAX);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert!(bool::from_value(&true.to_value()).unwrap());
        let shared: std::sync::Arc<str> = "col".into();
        assert_eq!(shared.to_value(), "col".to_string().to_value());
        assert_eq!(
            std::sync::Arc::<str>::from_value(&shared.to_value()).unwrap(),
            shared
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()).unwrap(), v);
        let o: Option<i64> = None;
        assert_eq!(Option::<i64>::from_value(&o.to_value()).unwrap(), None);
        let arr = [7u64; 8];
        assert_eq!(<[u64; 8]>::from_value(&arr.to_value()).unwrap(), arr);
        let t = (1i64, "x".to_string(), 0.5f64);
        assert_eq!(<(i64, String, f64)>::from_value(&t.to_value()).unwrap(), t);
    }

    #[test]
    fn range_checks() {
        assert!(u8::from_value(&Value::I64(300)).is_err());
        assert!(i64::from_value(&Value::Str("x".into())).is_err());
    }
}
