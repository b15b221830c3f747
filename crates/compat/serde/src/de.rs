//! The JSON text cursor that [`Deserialize`](crate::Deserialize) impls read
//! from.

use crate::{Deserialize, Error, Value};
use std::borrow::Cow;

/// How deeply arrays and objects may nest — upstream serde_json's default
/// recursion limit. Each level costs a few reader stack frames, so without
/// a limit a text of a million `[` overflows the stack and aborts the
/// process instead of returning an [`Error`].
const MAX_DEPTH: usize = 128;

/// A cursor over JSON text, read one token at a time.
///
/// Readers walk an object with [`begin_map`](Self::begin_map) and
/// [`next_key`](Self::next_key), reading each member's value themselves or
/// passing it to [`skip_value`](Self::skip_value), and an array with
/// [`begin_seq`](Self::begin_seq) and [`next_element`](Self::next_element).
/// Every byte a reader passes over is checked as strictly as a full parse
/// would check it.
#[derive(Debug, Clone)]
pub struct Deserializer<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// An array or object was just opened: its first element or member
    /// takes no comma.
    opened: bool,
}

impl<'a> Deserializer<'a> {
    /// A cursor at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Deserializer {
            text,
            pos: 0,
            depth: 0,
            opened: false,
        }
    }

    /// The cursor's byte offset in the text.
    #[must_use]
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    fn error(&self, message: impl std::fmt::Display) -> Error {
        Error::at(message, self.pos)
    }

    fn skip_whitespace(&mut self) {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The first byte of the next token.
    fn peek(&mut self) -> Option<u8> {
        self.skip_whitespace();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Fails unless only whitespace is left.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first trailing character.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// The error for a next token that is not `expected`.
    fn mismatch(&mut self, expected: &str) -> Error {
        let found = match self.peek() {
            None => "end of input",
            Some(b'"') => "string",
            Some(b'[') => "sequence",
            Some(b'{') => "map",
            Some(b't' | b'f') => "bool",
            Some(b'n') => "null",
            Some(b'-' | b'0'..=b'9' | b'N' | b'i') => "number",
            Some(_) => "an unexpected character",
        };
        self.error(format!("expected {expected}, found {found}"))
    }

    fn open(&mut self, bracket: u8, expected: &str) -> Result<(), Error> {
        if self.peek() != Some(bracket) {
            return Err(self.mismatch(expected));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.opened = true;
        Ok(())
    }

    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// Enters an object; `expected` names the reader's type for the error.
    ///
    /// # Errors
    ///
    /// Returns an error when the next value is not an object, or when it
    /// would nest deeper than 128 levels.
    pub fn begin_map(&mut self, expected: &str) -> Result<(), Error> {
        self.open(b'{', expected)
    }

    /// Reads the key of the next member of the object the cursor is in, up
    /// to its `:`; at the closing `}` it leaves the object and returns
    /// `None`.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed text.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        let first = std::mem::take(&mut self.opened);
        match self.peek() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            Some(b',') if !first => self.pos += 1,
            _ if first => {}
            _ => return Err(self.error("expected `,` or `}`")),
        }
        self.skip_whitespace();
        let key = self.string_token()?;
        if self.peek() != Some(b':') {
            return Err(self.error("expected `:`"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Enters an array; `expected` names the reader's type for the error.
    ///
    /// # Errors
    ///
    /// Returns an error when the next value is not an array, or when it
    /// would nest deeper than 128 levels.
    pub fn begin_seq(&mut self, expected: &str) -> Result<(), Error> {
        self.open(b'[', expected)
    }

    /// Whether another element of the array the cursor is in follows; at the
    /// closing `]` it leaves the array and returns `false`.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed text.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        let first = std::mem::take(&mut self.opened);
        match self.peek() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(self.error("expected `,` or `]`")),
        }
    }

    /// Reads element `index` of the array the cursor is in, whose earlier
    /// elements have been read; `context` names the reader's type for the
    /// error. Elements past the last one a reader wants are left to
    /// [`skip_elements`](Self::skip_elements).
    ///
    /// # Errors
    ///
    /// Returns an error when the array has no element `index`, or the
    /// element has the wrong shape.
    pub fn element<T: Deserialize>(&mut self, index: usize, context: &str) -> Result<T, Error> {
        if !self.next_element()? {
            return Err(self.error(format!("missing element {index} in `{context}`")));
        }
        T::deserialize(self).map_err(|e| e.within(&format!("element {index} of `{context}`")))
    }

    /// Skips the rest of the array the cursor is in.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed text.
    pub fn skip_elements(&mut self) -> Result<(), Error> {
        while self.next_element()? {
            self.skip_value()?;
        }
        Ok(())
    }

    /// Reads an externally tagged enum up to its payload: a string is a unit
    /// variant (`false`), a one-member object a variant whose payload
    /// follows (`true`), to be closed by [`end_enum`](Self::end_enum).
    ///
    /// # Errors
    ///
    /// Returns an error when the next value is neither, or is malformed.
    pub fn enum_tag(&mut self, expected: &str) -> Result<(Cow<'a, str>, bool), Error> {
        match self.peek() {
            Some(b'"') => Ok((self.string_token()?, false)),
            Some(b'{') => {
                self.begin_map(expected)?;
                match self.next_key()? {
                    Some(tag) => Ok((tag, true)),
                    None => Err(self.error(format!("expected {expected}, found an empty map"))),
                }
            }
            _ => Err(self.mismatch(expected)),
        }
    }

    /// Leaves the object of a variant with a payload, which must have no
    /// other member.
    ///
    /// # Errors
    ///
    /// Returns an error when another member follows, or on malformed text.
    pub fn end_enum(&mut self, expected: &str) -> Result<(), Error> {
        match self.next_key()? {
            None => Ok(()),
            Some(_) => Err(self.error(format!("expected {expected}, found a map of more members"))),
        }
    }

    /// Consumes a `null` if one comes next.
    pub(crate) fn eat_null(&mut self) -> bool {
        self.peek() == Some(b'n') && self.eat_keyword("null")
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// Returns an error when the next token is not a boolean.
    pub(crate) fn boolean(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') if self.eat_keyword("true") => Ok(true),
            Some(b'f') if self.eat_keyword("false") => Ok(false),
            _ => Err(self.mismatch("bool")),
        }
    }

    /// Reads a string, borrowed from the text unless it holds escapes.
    ///
    /// # Errors
    ///
    /// Returns an error when the next token is not a string, or is malformed.
    pub(crate) fn string(&mut self, expected: &str) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.mismatch(expected));
        }
        self.string_token()
    }

    /// Reads a number token: [`Value::U64`] for an integer, [`Value::I64`]
    /// for one with a minus sign, [`Value::F64`] for one with a fraction or
    /// an exponent and for `NaN`, `inf` and `-inf`.
    ///
    /// # Errors
    ///
    /// Returns an error when the next token is not a number, or is malformed.
    pub(crate) fn number(&mut self, expected: &str) -> Result<Value, Error> {
        match self.peek() {
            Some(b'N') if self.eat_keyword("NaN") => Ok(Value::F64(f64::NAN)),
            Some(b'i') if self.eat_keyword("inf") => Ok(Value::F64(f64::INFINITY)),
            Some(b'-' | b'0'..=b'9') => self.number_token(),
            _ => Err(self.mismatch(expected)),
        }
    }

    /// Reads the next value into a tree.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed text.
    pub(crate) fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'[') => {
                self.begin_seq("sequence")?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Ok(Value::Seq(items))
            }
            Some(b'{') => {
                self.begin_map("map")?;
                let mut entries = Vec::new();
                while let Some(key) = self.next_key()? {
                    entries.push((key.into_owned(), self.value()?));
                }
                Ok(Value::Map(entries))
            }
            _ => self.scalar(),
        }
    }

    /// Checks and skips the next value without keeping it.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed text.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'[') => {
                self.begin_seq("sequence")?;
                self.skip_elements()
            }
            Some(b'{') => {
                self.begin_map("map")?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'"') => self.string_token().map(drop),
            _ => self.scalar().map(drop),
        }
    }

    /// Reads a value that is not an array or object.
    fn scalar(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string_token()?.into_owned())),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't' | b'f') => self.boolean().map(Value::Bool),
            Some(_) => self.number("a value"),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Reads the four hex digits of a `\u` escape starting at `start`.
    fn hex_escape(&self, start: usize) -> Result<u32, Error> {
        let hex = self
            .text
            .get(start..start + 4)
            .ok_or_else(|| Error::at("truncated \\u escape", start))?;
        u32::from_str_radix(hex, 16).map_err(|_| Error::at("invalid \\u escape", start))
    }

    /// Reads one escape; the cursor is on the character after the `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let bytes = self.text.as_bytes();
        let c = match bytes.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self.hex_escape(self.pos + 1)?;
                self.pos += 4;
                let code = match code {
                    // UTF-16 high surrogate: a low-surrogate escape must
                    // follow (how upstream serde_json writes non-BMP
                    // characters).
                    0xD800..=0xDBFF => {
                        if bytes.get(self.pos + 1) != Some(&b'\\')
                            || bytes.get(self.pos + 2) != Some(&b'u')
                        {
                            return Err(self.error("high surrogate without low surrogate"));
                        }
                        let low = self.hex_escape(self.pos + 3)?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        self.pos += 6;
                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                    }
                    0xDC00..=0xDFFF => return Err(self.error("lone low surrogate")),
                    code => code,
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid codepoint"))?
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Reads a string token; the cursor is on its opening quote.
    fn string_token(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.text.as_bytes().get(self.pos) != Some(&b'"') {
            return Err(self.error("expected `\"`"));
        }
        self.pos += 1;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let bytes = self.text.as_bytes();
            while !matches!(bytes.get(self.pos), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            // Quotes and backslashes are ASCII, so the run between them is
            // whole characters.
            let run = &self.text[start..self.pos];
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut text) => {
                            text.push_str(run);
                            Cow::Owned(text)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    let text = owned.get_or_insert_with(String::new);
                    text.push_str(run);
                    text.push(c);
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Reads a number token; the cursor is on its `-` or first digit.
    fn number_token(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.text.as_bytes()[self.pos] == b'-' {
            self.pos += 1;
            if self.eat_keyword("inf") {
                return Ok(Value::F64(f64::NEG_INFINITY));
            }
        }
        let mut is_float = false;
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        let invalid = |what| Error::at(format!("invalid {what} `{text}`"), start);
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| invalid("float"))
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<u64>()
                .ok()
                .and_then(|_| text.parse::<i64>().ok())
                .map(Value::I64)
                .ok_or_else(|| invalid("integer"))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| invalid("integer"))
        }
    }
}
