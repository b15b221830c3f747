//! Offline JSON front-end for the vendored `serde` subset.
//!
//! [`to_string`] has a value write its JSON text, and [`from_str`] has a
//! type read itself from a `serde::Deserializer` over the text and then
//! checks that nothing but whitespace follows. Neither builds a document
//! tree: derived types go straight between their fields and the text (see
//! the `serde` crate docs). Floats are printed in Rust's shortest
//! round-trip form (`{:?}`), so every finite `f64` survives a serialize →
//! parse cycle **bit-identically** — the property the fleet-engine snapshot
//! format depends on. Non-finite floats are written as the non-standard
//! tokens `NaN` / `inf` / `-inf` and accepted back.

#![forbid(unsafe_code)]

use serde::{Deserialize, Deserializer, Serialize};

pub use serde::Error;

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Infallible for the supported data model; returns `Result` for API
/// compatibility with upstream `serde_json`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(&mut out);
    Ok(out)
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Returns an error on malformed JSON, a shape mismatch with `T`, or
/// trailing characters.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut de = Deserializer::new(text);
    let value = T::deserialize(&mut de)?;
    de.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// A tree-hook reader, as a hand-written `from_value` impl uses it.
    #[derive(Debug)]
    struct Tree(Value);

    impl Deserialize for Tree {
        fn from_value(value: &Value) -> Result<Self, Error> {
            Ok(Tree(value.clone()))
        }
    }

    fn tree(text: &str) -> Result<Value, Error> {
        from_str::<Tree>(text).map(|tree| tree.0)
    }

    #[test]
    fn scalars_round_trip_through_text() {
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(to_string(&-42i64).unwrap(), "-42");
        assert_eq!(from_str::<i64>("-42").unwrap(), -42);
        assert_eq!(to_string(&Some(true)).unwrap(), "true");
        assert_eq!(from_str::<Option<bool>>("null").unwrap(), None);
        for x in [0.1 + 0.2, 1.0, 1e-300, -0.0, 1e16, 1.5e-5f64] {
            let text = to_string(&x).unwrap();
            assert_eq!(text, format!("{x:?}"));
            assert_eq!(from_str::<f64>(&text).unwrap().to_bits(), x.to_bits());
        }
        let s = "hi \"there\"\n\\ \u{1}\u{8}\u{1f} é\t\r";
        let text = to_string(s).unwrap();
        assert_eq!(
            text,
            "\"hi \\\"there\\\"\\n\\\\ \\u0001\\u0008\\u001f é\\t\\r\""
        );
        assert_eq!(from_str::<String>(&text).unwrap(), s);
        assert_eq!(tree(&text).unwrap(), Value::Str(s.to_string()));
    }

    #[test]
    fn nested_structures_round_trip() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Inner {
            x: f64,
        }
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Outer {
            list: Vec<Option<u32>>,
            empty: Vec<u32>,
            nested: Inner,
        }
        let value = Outer {
            list: vec![Some(1), None],
            empty: Vec::new(),
            nested: Inner { x: 2.5 },
        };
        let text = to_string(&value).unwrap();
        assert_eq!(
            text,
            "{\"list\":[1,null],\"empty\":[],\"nested\":{\"x\":2.5}}"
        );
        assert_eq!(from_str::<Outer>(&text).unwrap(), value);
        let spaced = " { \"list\" : [ 1 , null ] ,\n\"empty\":[ ],\t\"nested\":{\"x\":2.5} } ";
        assert_eq!(from_str::<Outer>(spaced).unwrap(), value);
        assert_eq!(
            tree(&text).unwrap(),
            Value::Map(vec![
                ("list".into(), Value::Seq(vec![Value::U64(1), Value::Null])),
                ("empty".into(), Value::Seq(vec![])),
                (
                    "nested".into(),
                    Value::Map(vec![("x".into(), Value::F64(2.5))]),
                ),
            ])
        );
    }

    #[test]
    fn non_finite_floats_survive() {
        for (x, text) in [(f64::INFINITY, "inf"), (f64::NEG_INFINITY, "-inf")] {
            assert_eq!(to_string(&x).unwrap(), text);
            assert_eq!(from_str::<f64>(text).unwrap(), x);
        }
        assert_eq!(to_string(&f64::NAN).unwrap(), "NaN");
        assert!(from_str::<f64>("NaN").unwrap().is_nan());
    }

    #[test]
    fn derived_readers_follow_the_member_rules() {
        #[derive(Debug, PartialEq, serde::Deserialize)]
        struct Probe {
            a: u32,
            b: Option<f64>,
        }
        let read = from_str::<Probe>;
        let probe = |a, b| Probe { a, b };
        // Unknown members are ignored, however nested.
        assert_eq!(
            read("{\"z\":[{\"q\":[]}],\"a\":1,\"b\":null}").unwrap(),
            probe(1, None)
        );
        // The first of duplicated members wins; later ones are skipped but
        // must still be well-formed.
        assert_eq!(
            read("{\"a\":1,\"b\":2,\"a\":\"x\",\"b\":[3]}").unwrap(),
            probe(1, Some(2.0))
        );
        assert!(read("{\"a\":1,\"b\":2,\"a\":[}").is_err());
        // Every member is required, `Option`s included.
        assert!(read("{\"a\":1}").is_err());
        // Keys may hold escapes.
        assert_eq!(
            read("{\"\\u0061\":7,\"b\":1e2}").unwrap(),
            probe(7, Some(100.0))
        );
        // Not an object, trailing characters, trailing commas.
        assert!(read("[1,2]").is_err());
        assert!(read("{\"a\":1,\"b\":null} x").is_err());
        assert!(read("{\"a\":1,\"b\":null,}").is_err());
        assert!(from_str::<Vec<u32>>("[1,]").is_err());
        assert!(from_str::<Vec<u32>>("[,1]").is_err());
    }

    #[test]
    fn enums_are_externally_tagged() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        enum Shape {
            Empty,
            Circle(f64),
            Pair(u32, u32),
            Rect { w: u32, h: u32 },
        }
        let cases = [
            (Shape::Empty, "\"Empty\""),
            (Shape::Circle(0.5), "{\"Circle\":0.5}"),
            (Shape::Pair(1, 2), "{\"Pair\":[1,2]}"),
            (Shape::Rect { w: 3, h: 4 }, "{\"Rect\":{\"w\":3,\"h\":4}}"),
        ];
        for (shape, text) in cases {
            assert_eq!(to_string(&shape).unwrap(), text);
            assert_eq!(from_str::<Shape>(text).unwrap(), shape);
        }
        for bad in [
            "\"Circle\"",
            "{\"Empty\":null}",
            "{\"Circle\":1,\"Empty\":null}",
            "{}",
            "\"Square\"",
            "3",
        ] {
            assert!(from_str::<Shape>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
        assert!(from_str::<u32>("1 2").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(
            from_str::<String>("\"\\ud83d\"").is_err(),
            "lone high surrogate"
        );
        assert!(
            from_str::<String>("\"\\ude00\"").is_err(),
            "lone low surrogate"
        );
    }

    #[test]
    fn nesting_is_limited_to_128_levels() {
        #[derive(Debug, serde::Deserialize)]
        struct Skipping {
            #[allow(dead_code)]
            a: u32,
        }
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        // The tree reader, and the skip of an unknown member one level down.
        let skipped = |inner: String| format!("{{\"a\":1,\"z\":{inner}}}");
        for depth in [128, 129] {
            let fits = depth == 128;
            assert_eq!(tree(&nested(depth)).is_ok(), fits);
            assert_eq!(tree(&objects(depth)).is_ok(), fits);
            assert_eq!(
                from_str::<Skipping>(&skipped(nested(depth - 1))).is_ok(),
                fits
            );
            assert_eq!(
                from_str::<Skipping>(&skipped(objects(depth - 1))).is_ok(),
                fits
            );
        }
        // Far past the limit, unbalanced: an error, not a stack overflow.
        assert!(tree(&"[".repeat(1_000_000)).is_err());
        assert!(tree(&"{\"a\":".repeat(1_000_000)).is_err());
        assert!(from_str::<Skipping>(&skipped("[".repeat(1_000_000))).is_err());
    }

    #[test]
    fn surrogate_pair_escapes_parse_to_non_bmp_chars() {
        // How upstream serde_json escapes non-BMP characters.
        let parsed: String = from_str("\"\\ud83d\\ude00 ok\"").unwrap();
        assert_eq!(parsed, "😀 ok");
        // Our writer emits raw UTF-8; that round-trips too.
        let text = to_string(&"😀".to_string()).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, "😀");
    }

    #[test]
    fn typed_round_trip() {
        let xs: Vec<(u32, f64)> = vec![(1, 0.125), (2, 1.0 / 3.0)];
        let text = to_string(&xs).unwrap();
        let back: Vec<(u32, f64)> = from_str(&text).unwrap();
        assert_eq!(xs, back);
    }

    /// `#[serde(skip)]` leaves a field out on write and reads it as its
    /// `Default`, also from text that carries it.
    #[test]
    fn skipped_fields_are_not_written_and_read_as_default() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Cached {
            kept: u32,
            #[serde(skip)]
            cache: Vec<u32>,
        }
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        enum Wrapped {
            Cached {
                #[serde(skip)]
                cache: u32,
                kept: u32,
            },
        }
        let value = Cached {
            kept: 3,
            cache: vec![7],
        };
        assert_eq!(to_string(&value).unwrap(), "{\"kept\":3}");
        let plain = Cached {
            kept: 3,
            cache: Vec::new(),
        };
        for text in ["{\"kept\":3}", "{\"kept\":3,\"cache\":[7]}"] {
            assert_eq!(from_str::<Cached>(text).unwrap(), plain, "{text}");
        }
        let variant = Wrapped::Cached { cache: 9, kept: 4 };
        let text = to_string(&variant).unwrap();
        assert_eq!(text, "{\"Cached\":{\"kept\":4}}");
        assert_eq!(
            from_str::<Wrapped>(&text).unwrap(),
            Wrapped::Cached { cache: 0, kept: 4 }
        );
    }
}
