//! Offline JSON front-end for the vendored `serde` subset.
//!
//! Renders a [`serde::Value`] tree to JSON text and parses it back. Floats are
//! printed in Rust's shortest round-trip form (`{:?}`), so every finite `f64`
//! survives a serialize → parse cycle **bit-identically** — the property the
//! fleet-engine snapshot format depends on. Non-finite floats are written as
//! the non-standard tokens `NaN` / `inf` / `-inf` and accepted back.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Error produced when JSON text is malformed or does not match the target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
    offset: Option<usize>,
}

impl Error {
    fn at(message: impl fmt::Display, offset: usize) -> Self {
        Error {
            message: message.to_string(),
            offset: Some(offset),
        }
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

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error {
            message: e.to_string(),
            offset: None,
        }
    }
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Infallible for the supported data model; returns `Result` for API
/// compatibility with upstream `serde_json`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value());
    Ok(out)
}

/// Serializes `value` to human-readable, two-space-indented JSON.
///
/// # Errors
///
/// Infallible for the supported data model; returns `Result` for API
/// compatibility with upstream `serde_json`.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&mut out, &value.to_value(), 0);
    Ok(out)
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Returns an error on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    T::from_value(&value).map_err(Error::from)
}

/// Rebuilds a `T` from an already-parsed [`Value`] tree.
///
/// # Errors
///
/// Returns an error on a shape mismatch with `T`.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value).map_err(Error::from)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_value_pretty(out: &mut String, value: &Value, indent: usize) {
    match value {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_value_pretty(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_string(out, key);
                out.push_str(": ");
                write_value_pretty(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(out, other),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("NaN");
    } else if x.is_infinite() {
        out.push_str(if x > 0.0 { "inf" } else { "-inf" });
    } else {
        // `{:?}` is Rust's shortest representation that parses back to the
        // same bits; it always contains a `.`, an `e`, or both.
        let formatted = format!("{x:?}");
        out.push_str(&formatted);
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// How deeply arrays and objects may nest — upstream serde_json's default
/// recursion limit. Each level costs a few parser stack frames, so without
/// a limit a text of a million `[` overflows the stack and aborts the
/// process instead of returning an [`Error`].
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

fn parse_value(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::at("trailing characters", parser.pos));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::at(format!("expected `{}`", byte as char), self.pos))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_whitespace();
        match self.peek() {
            None => Err(Error::at("unexpected end of input", self.pos)),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'N') if self.eat_keyword("NaN") => Ok(Value::F64(f64::NAN)),
            Some(b'i') if self.eat_keyword("inf") => Ok(Value::F64(f64::INFINITY)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::at(format!("unexpected `{}`", b as char), self.pos)),
        }
    }

    /// Parses one array or object with `parse`, one level deeper, failing
    /// past [`MAX_DEPTH`] levels.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::at(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::at("expected `,` or `}`", self.pos)),
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape starting at `start`.
    fn hex_escape(&self, start: usize) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(start..start + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| Error::at("truncated \\u escape", start))?;
        u32::from_str_radix(hex, 16).map_err(|_| Error::at("invalid \\u escape", start))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::at("invalid utf-8 in string", start))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex_escape(self.pos + 1)?;
                            self.pos += 4;
                            let code = match code {
                                // UTF-16 high surrogate: a low-surrogate
                                // escape must follow (how upstream
                                // serde_json writes non-BMP characters).
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                        || self.bytes.get(self.pos + 2) != Some(&b'u')
                                    {
                                        return Err(Error::at(
                                            "high surrogate without low surrogate",
                                            self.pos,
                                        ));
                                    }
                                    let low = self.hex_escape(self.pos + 3)?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(Error::at("invalid low surrogate", self.pos));
                                    }
                                    self.pos += 6;
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(Error::at("lone low surrogate", self.pos));
                                }
                                code => code,
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::at("invalid codepoint", self.pos))?,
                            );
                        }
                        _ => return Err(Error::at("invalid escape", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::at("unterminated string", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            if self.eat_keyword("inf") {
                return Ok(Value::F64(f64::NEG_INFINITY));
            }
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::at("invalid number", start))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::at(format!("invalid float `{text}`"), start))
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<u64>()
                .ok()
                .and_then(|_| text.parse::<i64>().ok())
                .map(Value::I64)
                .ok_or_else(|| Error::at(format!("invalid integer `{text}`"), start))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| Error::at(format!("invalid integer `{text}`"), start))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_through_text() {
        let cases = vec![
            Value::Null,
            Value::Bool(true),
            Value::U64(18_446_744_073_709_551_615),
            Value::I64(-42),
            Value::F64(0.1 + 0.2),
            Value::F64(1.0),
            Value::F64(1e-300),
            Value::Str("hi \"there\"\n\\ \u{1}".to_string()),
        ];
        for case in cases {
            let text = to_string(&Probe(case.clone())).unwrap();
            let back = parse_value(&text).unwrap();
            match (&case, &back) {
                (Value::F64(a), Value::F64(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(case, back),
            }
        }
    }

    struct Probe(Value);
    impl Serialize for Probe {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let value = Value::Map(vec![
            ("list".into(), Value::Seq(vec![Value::U64(1), Value::Null])),
            ("empty".into(), Value::Seq(vec![])),
            (
                "nested".into(),
                Value::Map(vec![("x".into(), Value::F64(2.5))]),
            ),
        ]);
        let text = to_string(&Probe(value.clone())).unwrap();
        assert_eq!(parse_value(&text).unwrap(), value);
        let pretty = to_string_pretty(&Probe(value.clone())).unwrap();
        assert_eq!(parse_value(&pretty).unwrap(), value);
    }

    #[test]
    fn non_finite_floats_survive() {
        for x in [f64::INFINITY, f64::NEG_INFINITY] {
            let text = to_string(&Probe(Value::F64(x))).unwrap();
            assert_eq!(parse_value(&text).unwrap(), Value::F64(x));
        }
        let text = to_string(&Probe(Value::F64(f64::NAN))).unwrap();
        match parse_value(&text).unwrap() {
            Value::F64(x) => assert!(x.is_nan()),
            other => panic!("expected NaN, got {other:?}"),
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
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_value(&nested(128)).is_ok());
        assert!(parse_value(&nested(129)).is_err());
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(parse_value(&objects(128)).is_ok());
        assert!(parse_value(&objects(129)).is_err());
        // Far past the limit, unbalanced: an error, not a stack overflow.
        assert!(parse_value(&"[".repeat(1_000_000)).is_err());
        assert!(parse_value(&"{\"a\":".repeat(1_000_000)).is_err());
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
