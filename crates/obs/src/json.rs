//! Minimal JSON support with no external dependency.
//!
//! - **Writing:** [`write_escaped`] and [`write_f64`] append tokens to a
//!   `String`; the exporters and the checkpoint codec write documents
//!   directly, with no tree in between.
//! - **Reading:** [`Reader`] is a pull tokenizer over a `&str`. The caller
//!   peeks at the next value's kind, then reads a scalar, steps through an
//!   object's keys or an array's items, or skips the value. Strings without
//!   escapes are borrowed, so a read allocates only what the caller keeps.
//!   A caller that knows which key comes next matches it as one literal
//!   ([`Reader::next_key_is`]). The per-token readers are `#[inline]` and
//!   build their errors out of line, so they inline into a caller's loop.
//! - **The DOM:** [`parse`] builds a [`JsonValue`] tree over a [`Reader`],
//!   for callers that want random access (the checkpoint decoder tests).
//!
//! There is one grammar, the full JSON grammar, read strictly: malformed
//! input, trailing characters and nesting deeper than [`MAX_DEPTH`] are
//! refused with a [`JsonError`] giving the byte offset.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How deeply arrays and objects may nest before input is refused.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A JSON number with a fractional part, an exponent, or a sign.
    Number(f64),
    /// A non-negative integer-syntax number that fits `u64`, kept exact.
    ///
    /// `u64` counters (up to `u64::MAX`) exceed `f64`'s 53-bit integer
    /// range, so the parser keeps plain unsigned integers in this lossless
    /// variant; [`JsonValue::as_f64`] still covers it for callers that only
    /// need an approximate number.
    UInt(u64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys are sorted (BTreeMap), duplicates keep the last value.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as a number, if it is one (`UInt` rounds to the nearest
    /// representable `f64`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        self.as_number().map(Number::as_f64)
    }

    /// The value as an exact unsigned integer, if it is one. Accepts
    /// `Number`s that are integral and in range, so callers reading counters
    /// do not care which variant the writer produced.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_number().and_then(Number::as_u64)
    }

    fn as_number(&self) -> Option<Number> {
        match self {
            Self::Number(n) => Some(Number::Float(*n)),
            Self::UInt(n) => Some(Number::UInt(*n)),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            Self::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Member lookup on an object (`None` for non-objects/missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// Appends this value as compact JSON to `out` (object keys in sorted
    /// order, so output is deterministic).
    pub fn write_to(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(true) => out.push_str("true"),
            Self::Bool(false) => out.push_str("false"),
            Self::Number(n) => write_f64(out, *n),
            Self::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Self::String(s) => write_escaped(out, s),
            Self::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Self::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_to(out);
                }
                out.push('}');
            }
        }
    }

    /// This value as a compact JSON document.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }
}

/// A number as [`Reader::number`] read it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Number {
    /// A plain digit string that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number: signed, fractional, exponent, or wider than `u64`.
    Float(f64),
}

impl Number {
    /// The number as an `f64`, rounding a large `UInt`.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        match self {
            Self::UInt(n) => n as f64,
            Self::Float(n) => n,
        }
    }

    /// The number as an exact `u64`: a `UInt`, or an integral `Float` in
    /// `0..2^64` (`u64::MAX as f64` *is* 2^64, which no `u64` holds).
    #[must_use]
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Self::UInt(n) => Some(n),
            Self::Float(n) if n.fract() == 0.0 && n >= 0.0 && n < u64::MAX as f64 => Some(n as u64),
            Self::Float(_) => None,
        }
    }
}

/// A parse failure: byte offset plus a short description.
#[derive(Clone, PartialEq, Debug)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for JsonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document into a [`JsonValue`] tree, refusing
/// what a [`Reader`] refuses.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut r = Reader::new(input);
    let v = tree(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// The next value of `r` as a tree.
fn tree(r: &mut Reader<'_>) -> Result<JsonValue, JsonError> {
    Ok(match r.peek()? {
        Kind::Null => {
            r.null()?;
            JsonValue::Null
        }
        Kind::Bool => JsonValue::Bool(r.bool()?),
        Kind::Number => match r.number()? {
            Number::UInt(n) => JsonValue::UInt(n),
            Number::Float(n) => JsonValue::Number(n),
        },
        Kind::String => JsonValue::String(r.string()?.into_owned()),
        Kind::Array => {
            r.begin_array()?;
            let mut items = Vec::new();
            while r.next_item()? {
                items.push(tree(r)?);
            }
            JsonValue::Array(items)
        }
        Kind::Object => {
            r.begin_object()?;
            let mut map = BTreeMap::new();
            while let Some(key) = r.next_key()? {
                let value = tree(r)?;
                map.insert(key.into_owned(), value);
            }
            JsonValue::Object(map)
        }
    })
}

/// What kind of value comes next, from its first byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull tokenizer over one JSON document.
///
/// Each read skips leading whitespace, then consumes one value or token.
/// Walk an object with [`Reader::begin_object`] and [`Reader::next_key`],
/// reading or skipping each member's value in turn, and an array with
/// [`Reader::begin_array`] and [`Reader::next_item`]; [`Reader::finish`]
/// then checks that only whitespace follows. The reader is `Copy`: a copy
/// is a saved position to look ahead from.
///
/// Every method returns a [`JsonError`] when the text is not JSON at that
/// point. A document read through a `Reader` is refused exactly when
/// [`parse`] refuses it, at the same offset, with the same message.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// An object or array has just opened: the next member needs no comma.
    opened: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
            opened: false,
        }
    }

    // Built out of line, so that the token readers inline into callers.
    #[cold]
    fn err(&self, message: impl core::fmt::Display) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.byte() != Some(b) {
            return Err(self.err(format_args!("expected '{}'", char::from(b))));
        }
        self.pos += 1;
        Ok(())
    }

    #[inline]
    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        self.skip_ws();
        if !self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            return Err(self.err(format_args!("expected '{lit}'")));
        }
        self.pos += lit.len();
        Ok(())
    }

    /// The kind of the next value.
    #[inline]
    pub fn peek(&mut self) -> Result<Kind, JsonError> {
        self.skip_ws();
        match self.byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(b'"') => Ok(Kind::String),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Reads `null`.
    #[inline]
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.literal("null")
    }

    /// Reads `true` or `false`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        let value = self.byte() == Some(b't');
        self.literal(if value { "true" } else { "false" })?;
        Ok(value)
    }

    /// Reads a number. A plain digit string that fits `u64` stays exact,
    /// since `f64` rounds above 2^53 and would corrupt `u64` counters; it
    /// is accumulated while it is scanned. Any other number goes through
    /// `str::parse::<f64>`.
    #[inline]
    pub fn number(&mut self) -> Result<Number, JsonError> {
        self.skip_ws();
        let start = self.pos;
        let mut exact = Some(0u64);
        while let Some(digit @ b'0'..=b'9') = self.byte() {
            exact = exact.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(digit - b'0')));
            self.pos += 1;
        }
        match exact {
            Some(n) if self.pos > start && !self.float_continues() => Ok(Number::UInt(n)),
            _ => self.float(start),
        }
    }

    fn float_continues(&self) -> bool {
        matches!(
            self.byte(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        )
    }

    /// Reads the number that starts at `start` as an `f64`.
    #[inline(never)]
    fn float(&mut self, start: usize) -> Result<Number, JsonError> {
        while self.float_continues() {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.err("invalid number"))
    }

    /// Reads a string, borrowed from the input when it has no escapes.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            // Quotes and backslashes are ASCII, so a run between them ends
            // on a character boundary.
            let start = self.pos;
            let run = self.text.as_bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            self.pos = run.map_or(self.text.len(), |n| start + n);
            let chunk = &self.text[start..self.pos];
            match self.byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(chunk),
                        Some(s) => Cow::Owned(s + chunk),
                    });
                }
                _ => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(chunk);
                    self.pos += 1;
                    self.escape(out)?;
                }
            }
        }
    }

    /// Reads the escape after a backslash into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let esc = self.byte().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hex = self
                    .text
                    .as_bytes()
                    .get(self.pos..self.pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
                self.pos += 4;
                // Surrogates are replaced rather than combined; the
                // exporters never emit them.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(self.err("invalid escape")),
        }
        Ok(())
    }

    fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.depth == MAX_DEPTH && self.byte() == Some(bracket) {
            return Err(self.err(format_args!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.opened = true;
        Ok(())
    }

    /// Whether the open container ends here with `close`; if not, steps
    /// over the comma before its next member (none before the first).
    #[inline]
    fn closes(&mut self, close: u8, message: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        let first = std::mem::take(&mut self.opened);
        if self.byte() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            Ok(true)
        } else if first {
            Ok(false)
        } else if self.byte() == Some(b',') {
            self.pos += 1;
            Ok(false)
        } else {
            Err(self.err(message))
        }
    }

    /// Opens an object; step through its members with [`Reader::next_key`].
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{')
    }

    /// The next member's key, with its `:` consumed so that the value
    /// comes next; `None` once the object has closed.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if self.closes(b'}', "expected ',' or '}' in object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Steps over the next member's key and colon if they are written
    /// exactly as `literal` (such as `"\"cart\":"`), and says whether it
    /// did. Otherwise nothing is consumed, and [`Reader::next_key`] reads
    /// the member as it would have.
    #[inline]
    pub fn next_key_is(&mut self, literal: &str) -> bool {
        let mut ahead = *self;
        if ahead.closes(b'}', "") != Ok(false) {
            return false;
        }
        ahead.skip_ws();
        let found = self.text.as_bytes()[ahead.pos..].starts_with(literal.as_bytes());
        if found {
            *self = ahead;
            self.pos += literal.len();
        }
        found
    }

    /// Opens an array; step through its items with [`Reader::next_item`].
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[')
    }

    /// Whether another item comes next; `false` once the array has closed.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        Ok(!self.closes(b']', "expected ',' or ']' in array")?)
    }

    /// Reads past the next value, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::String => self.string().map(drop),
            Kind::Array => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Kind::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }

    /// Checks that only whitespace follows the document.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after document"))
        }
    }
}

/// Appends `s` as a JSON string (with quotes and escapes) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a JSON-legal rendering of `v` to `out` (`null` for non-finite).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` on f64 round-trips exactly and never produces inf/nan here.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Number(-1500.0));
        assert_eq!(
            parse(r#""a\"b\nA""#).unwrap(),
            JsonValue::String("a\"b\nA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escaping_round_trips() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\te\u{1}");
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn floats_render_round_trippably() {
        let mut out = String::new();
        write_f64(&mut out, 123.456e-7);
        assert_eq!(parse(&out).unwrap().as_f64(), Some(123.456e-7));
        out.clear();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn serialiser_round_trips_through_the_parser() {
        let src = r#"{"b":[1,false,null,"x\ny"],"a":{"nested":-2.5}}"#;
        let v = parse(src).unwrap();
        let out = v.to_json_string();
        assert_eq!(parse(&out).unwrap(), v);
        // Keys come back sorted (BTreeMap order).
        assert!(out.starts_with("{\"a\""), "{out}");
    }

    #[test]
    fn unicode_passes_through() {
        let v = parse("\"héllo ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ✓"));
    }

    #[test]
    fn u64_max_round_trips_losslessly() {
        // u64::MAX is not representable in f64; the UInt variant keeps it.
        let src = u64::MAX.to_string();
        let v = parse(&src).unwrap();
        assert_eq!(v, JsonValue::UInt(u64::MAX));
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.to_json_string(), src);
        // One past 2^53: f64 would collapse it onto a neighbour.
        let n = (1u64 << 53) + 1;
        let v = parse(&n.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(n));
        assert_eq!(parse(&v.to_json_string()).unwrap(), v);
    }

    #[test]
    fn uint_still_reads_as_f64_and_number_as_u64() {
        assert_eq!(parse("7").unwrap().as_f64(), Some(7.0));
        assert_eq!(JsonValue::Number(7.0).as_u64(), Some(7));
        assert_eq!(JsonValue::Number(7.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        // Negative and fractional syntax stays in the f64 variant.
        assert_eq!(parse("-7").unwrap(), JsonValue::Number(-7.0));
        assert_eq!(parse("7.0").unwrap(), JsonValue::Number(7.0));
        assert_eq!(parse("7e0").unwrap(), JsonValue::Number(7.0));
    }

    #[test]
    fn histogram_bucket_arrays_round_trip_losslessly() {
        // A sparse bucket list as the checkpoint format stores it: pairs of
        // (slot, count) with counts up to u64::MAX.
        let buckets = [(0u32, 3u64), (31, u64::MAX), (65, (1 << 53) + 1)];
        let mut out = String::new();
        out.push('[');
        for (i, (slot, count)) in buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{slot},{count}]");
        }
        out.push(']');
        let v = parse(&out).unwrap();
        let arr = v.as_array().unwrap();
        let back: Vec<(u32, u64)> = arr
            .iter()
            .map(|pair| {
                let pair = pair.as_array().unwrap();
                (
                    u32::try_from(pair[0].as_u64().unwrap()).unwrap(),
                    pair[1].as_u64().unwrap(),
                )
            })
            .collect();
        assert_eq!(back, buckets);
        assert_eq!(parse(&v.to_json_string()).unwrap(), v);
    }

    #[test]
    fn digit_strings_wider_than_u64_fall_back_to_f64() {
        let v = parse("99999999999999999999999999").unwrap();
        assert!(matches!(v, JsonValue::Number(_)));
        assert!(v.as_f64().unwrap() > 9.9e25);
    }

    #[test]
    fn reader_walks_a_document_and_borrows_plain_strings() {
        let mut r = Reader::new(r#" {"a": [1, -2.5, "x\ny"], "plain": "ok", "z": null} "#);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert_eq!(r.number().unwrap(), Number::UInt(1));
        assert!(r.next_item().unwrap());
        assert_eq!(r.number().unwrap(), Number::Float(-2.5));
        assert!(r.next_item().unwrap());
        assert!(matches!(r.string().unwrap(), Cow::Owned(s) if s == "x\ny"));
        assert!(!r.next_item().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("plain"));
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("ok")));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("z"));
        assert_eq!(r.peek().unwrap(), Kind::Null);
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn skipping_refuses_exactly_what_parse_refuses() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1 2",
            "\"unterminated",
            "[1,]",
            "{,}",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "-",
            "1e",
            "\"\\q\"",
            "\"\\u12\"",
            "nul",
        ] {
            let mut r = Reader::new(text);
            let skipped = r.skip_value().and_then(|()| r.finish());
            assert_eq!(skipped.unwrap_err(), parse(text).unwrap_err(), "{text:?}");
        }
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_refused() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        // Far deeper input is refused at the same point, not by
        // overflowing the stack.
        assert_eq!(parse(&"[".repeat(100_000)).unwrap_err(), err);
        assert_eq!(
            parse(&"{\"a\":".repeat(100_000)).unwrap_err().offset,
            5 * MAX_DEPTH
        );
    }

    #[test]
    fn two_to_the_64_is_not_a_u64() {
        // `u64::MAX as f64` rounds up to 2^64, which no u64 holds.
        for text in ["18446744073709551616", "1.8446744073709552e19"] {
            assert_eq!(parse(text).unwrap().as_u64(), None, "{text}");
        }
        // The largest f64 below 2^64 is still exact.
        assert_eq!(
            parse("18446744073709549568.0").unwrap().as_u64(),
            Some(18_446_744_073_709_549_568)
        );
    }

    #[test]
    fn parse_keeps_the_last_of_repeated_keys() {
        let v = parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(2));
    }
}
