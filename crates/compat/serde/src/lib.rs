//! Offline, API-compatible subset of `serde`.
//!
//! The build environment has no crates.io access, so this crate provides the
//! slice of serde the workspace uses: the [`Serialize`] / [`Deserialize`]
//! traits and their derive macros (re-exported from the sibling
//! `serde_derive` proc-macro crate).
//!
//! Instead of upstream's visitor-based data model, JSON text is the data
//! model and no document tree stands between a value and its text:
//! [`Serialize`] appends a value's JSON text to a `String`, and
//! [`Deserialize`] reads one value straight from a [`Deserializer`], a
//! cursor over JSON text. Structs are objects, tuples and sequences are
//! arrays, unit enum variants are strings and data-carrying variants are
//! single-member objects (the externally-tagged convention). `f64`s are
//! written in shortest round-trip form, so snapshots restore
//! **bit-identically**. The companion `serde_json` crate is the
//! `to_string` / `from_str` front end.
//!
//! A hand-written reader that wants a parsed tree instead implements
//! [`Deserialize::from_value`] alone: the default
//! [`Deserialize::deserialize`] parses the value into a [`Value`] and hands
//! it over.

#![forbid(unsafe_code)]

mod de;

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

pub use de::Deserializer;
pub use serde_derive::{Deserialize, Serialize};

/// A parsed JSON value, for hand-written readers that want a tree (see
/// [`Deserialize::from_value`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// An integer written with a minus sign.
    I64(i64),
    /// A number with a fraction or an exponent, or `NaN` / `inf` / `-inf`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object's members, in text order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Returns the map entries when this value is a map.
    #[must_use]
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// Returns the sequence elements when this value is a sequence.
    #[must_use]
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the string when this value is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric coercion to `f64` (exact for every stored numeric variant that
    /// originated from an `f64`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            Value::U64(x) => Some(*x as f64),
            Value::I64(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// Numeric coercion to `u64` (rejects negatives and non-integers).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(x) => Some(*x),
            Value::I64(x) => u64::try_from(*x).ok(),
            _ => None,
        }
    }

    /// Numeric coercion to `i64`.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(x) => Some(*x),
            Value::U64(x) => i64::try_from(*x).ok(),
            _ => None,
        }
    }

    /// One-word description of the variant, for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) => "integer",
            Value::F64(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// Error produced when JSON text is malformed or does not match the target
/// type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
    /// Byte offset in the text, when the error arose while reading one.
    offset: Option<usize>,
}

impl Error {
    /// Creates an error with the given message.
    #[must_use]
    pub fn custom(message: impl fmt::Display) -> Self {
        Error {
            message: message.to_string(),
            offset: None,
        }
    }

    fn at(message: impl fmt::Display, offset: usize) -> Self {
        Error {
            message: message.to_string(),
            offset: Some(offset),
        }
    }

    /// Prefixes the message with where in the value it arose, e.g. a field
    /// (used by the derive macro's generated code).
    #[must_use]
    pub fn within(mut self, context: &str) -> Self {
        self.message = format!("{context}: {}", self.message);
        self
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "json error at byte {offset}: {}", self.message),
            None => write!(f, "json error: {}", self.message),
        }
    }
}

impl std::error::Error for Error {}

/// Types that can write themselves as JSON text.
pub trait Serialize {
    /// Appends this value's JSON text to `out`.
    fn serialize(&self, out: &mut String);
}

/// Types that can be read back from JSON text.
pub trait Deserialize: Sized {
    /// Reads one value from `de`. Derived impls read their fields straight
    /// from the text; the default parses the value into a [`Value`] and
    /// hands it to [`from_value`](Self::from_value).
    ///
    /// # Errors
    ///
    /// Returns an error when the text is malformed or its shape does not
    /// match `Self`.
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let value = de.value()?;
        Self::from_value(&value)
    }

    /// Rebuilds a value from a parsed tree: the hook for hand-written
    /// readers that want one. Types that read straight from text keep the
    /// default, which refuses.
    ///
    /// # Errors
    ///
    /// Returns an error when the tree's shape does not match `Self`.
    fn from_value(value: &Value) -> Result<Self, Error> {
        Err(Error::custom(format!(
            "`{}` reads from JSON text, not from a {} tree",
            std::any::type_name::<Self>(),
            value.kind()
        )))
    }
}

fn write_display(out: &mut String, value: impl fmt::Display) {
    write!(out, "{value}").expect("a String accepts any text");
}

/// Writes `x` in Rust's shortest form that parses back to the same bits (it
/// always holds a `.`, an `e`, or both), or as `NaN` / `inf` / `-inf`.
fn write_f64(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("NaN");
    } else if x.is_infinite() {
        out.push_str(if x > 0.0 { "inf" } else { "-inf" });
    } else {
        write!(out, "{x:?}").expect("a String accepts any text");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Copy the runs between characters that need an escape; those are all
    // ASCII, so every run ends on a character boundary.
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..at]);
        if escape.is_empty() {
            out.push_str("\\u00");
            for nibble in [byte >> 4, byte & 0xf] {
                out.push(char::from_digit(u32::from(nibble), 16).expect("a nibble is a hex digit"));
            }
        } else {
            out.push_str(escape);
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes `items` as a JSON array.
fn write_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize(out);
    }
    out.push(']');
}

/// Reads a number token and converts it with `convert`, a [`Value`]
/// coercion; `expected` names the target for the error.
fn read_number<T>(
    de: &mut Deserializer<'_>,
    expected: &str,
    convert: impl FnOnce(&Value) -> Option<T>,
) -> Result<T, Error> {
    let at = de.offset();
    let number = de.number(expected)?;
    convert(&number)
        .ok_or_else(|| Error::at(format!("expected {expected}, found {}", number.kind()), at))
}

macro_rules! impl_integer {
    ($($ty:ty => $expected:literal, $coerce:ident);* $(;)?) => {$(
        impl Serialize for $ty {
            fn serialize(&self, out: &mut String) {
                write_display(out, self);
            }
        }
        impl Deserialize for $ty {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                let at = de.offset();
                let raw = read_number(de, $expected, Value::$coerce)?;
                <$ty>::try_from(raw).map_err(|_| {
                    Error::at(format!("{raw} out of range for {}", stringify!($ty)), at)
                })
            }
        }
    )*};
}

impl_integer! {
    u8 => "unsigned integer", as_u64;
    u16 => "unsigned integer", as_u64;
    u32 => "unsigned integer", as_u64;
    u64 => "unsigned integer", as_u64;
    usize => "integer", as_u64;
    i32 => "integer", as_i64;
    i64 => "integer", as_i64;
}

impl Serialize for f64 {
    fn serialize(&self, out: &mut String) {
        write_f64(out, *self);
    }
}

impl Deserialize for f64 {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        read_number(de, "number", Value::as_f64)
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.boolean()
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Deserialize for String {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.string("string").map(String::from)
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(inner) => inner.serialize(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        if de.eat_null() {
            Ok(None)
        } else {
            T::deserialize(de).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.begin_seq("sequence")?;
        let mut items = Vec::new();
        while de.next_element()? {
            let item =
                T::deserialize(de).map_err(|e| e.within(&format!("element {}", items.len())));
            items.push(item?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let at = de.offset();
        let items = Vec::<T>::deserialize(de)?;
        let found = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error::at(format!("expected {N} elements, found {found}"), at))
    }
}

macro_rules! impl_tuple {
    ($(($first:ident : $first_idx:tt $(, $name:ident : $idx:tt)*))+) => {$(
        impl<$first: Serialize $(, $name: Serialize)*> Serialize for ($first, $($name,)*) {
            fn serialize(&self, out: &mut String) {
                out.push('[');
                self.$first_idx.serialize(out);
                $(
                    out.push(',');
                    self.$idx.serialize(out);
                )*
                out.push(']');
            }
        }
        impl<$first: Deserialize $(, $name: Deserialize)*> Deserialize for ($first, $($name,)*) {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                de.begin_seq("tuple sequence")?;
                let tuple = (
                    de.element::<$first>($first_idx, "tuple")?,
                    $(de.element::<$name>($idx, "tuple")?,)*
                );
                de.skip_elements()?;
                Ok(tuple)
            }
        }
    )+};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Maps are arrays of `[key, value]` pairs, so keys need not be strings.
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut String) {
        out.push('[');
        for (i, (key, value)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            (key, value).serialize(out);
        }
        out.push(']');
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.begin_seq("map entries")?;
        let mut map = BTreeMap::new();
        while de.next_element()? {
            de.begin_seq("[key, value] pair")?;
            let key = de.element::<K>(0, "map key")?;
            let value = de.element::<V>(1, "map value")?;
            de.skip_elements()?;
            map.insert(key, value);
        }
        Ok(map)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        T::deserialize(de).map(Box::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        value.serialize(&mut out);
        out
    }

    fn read<T: Deserialize>(text: &str) -> Result<T, Error> {
        let mut de = Deserializer::new(text);
        let value = T::deserialize(&mut de)?;
        de.end()?;
        Ok(value)
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(read::<u32>(&text(&42u32)).unwrap(), 42);
        assert_eq!(read::<i32>(&text(&-7i32)).unwrap(), -7);
        assert!(read::<bool>(&text(&true)).unwrap());
        let x = 0.1f64 + 0.2;
        assert_eq!(read::<f64>(&text(&x)).unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn options_use_null() {
        assert_eq!(text(&None::<u32>), "null");
        assert_eq!(read::<Option<u32>>("null").unwrap(), None);
        assert_eq!(read::<Option<u32>>(&text(&Some(3u32))).unwrap(), Some(3));
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, 0.5f64), (2, 0.25)];
        assert_eq!(text(&v), "[[1,0.5],[2,0.25]]");
        assert_eq!(read::<Vec<(u32, f64)>>(&text(&v)).unwrap(), v);

        let mut map = BTreeMap::new();
        map.insert(3u32, "three".to_string());
        assert_eq!(text(&map), "[[3,\"three\"]]");
        assert_eq!(read::<BTreeMap<u32, String>>(&text(&map)).unwrap(), map);
    }

    #[test]
    fn shape_mismatches_error() {
        assert!(read::<u32>("\"x\"").is_err());
        assert!(read::<bool>("1").is_err());
        assert!(read::<Vec<u32>>("false").is_err());
        assert!(read::<u8>("300").is_err());
        assert!(read::<u32>("1.0").is_err());
        assert!(read::<[u32; 2]>("[1,2,3]").is_err());
    }

    #[test]
    fn readers_coerce_as_the_value_tree_does() {
        // Integer tokens are accepted where a float is expected, and a
        // negative-integer `-0` reads as unsigned zero and as `+0.0`.
        assert_eq!(read::<f64>("3").unwrap(), 3.0);
        assert_eq!(read::<u32>("-0").unwrap(), 0);
        assert_eq!(read::<f64>("-0").unwrap().to_bits(), 0.0f64.to_bits());
        assert_eq!(read::<f64>("-0.0").unwrap().to_bits(), (-0.0f64).to_bits());
        // Tuples and map pairs ignore extra elements.
        assert_eq!(read::<(u32, u32)>("[1,2,[3,{}]]").unwrap(), (1, 2));
        let map = read::<BTreeMap<u32, u32>>("[[1,2,3],[1,4]]").unwrap();
        assert_eq!(map.into_iter().collect::<Vec<_>>(), [(1, 4)]);
    }
}
