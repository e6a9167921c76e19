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
//!
//! There is one grammar, the full JSON grammar, read strictly: malformed
//! input, trailing characters and nesting deeper than [`MAX_DEPTH`] are
//! refused with a [`JsonError`] giving the byte offset.

use std::borrow::Cow;
use std::fmt::Write as _;

/// How deeply arrays and objects may nest before input is refused.
pub const MAX_DEPTH: usize = 128;

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
/// point.
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

    /// `text` read as one complete document holding a number.
    fn number(text: &str) -> Result<Number, JsonError> {
        let mut r = Reader::new(text);
        let n = r.number()?;
        r.finish()?;
        Ok(n)
    }

    /// `text` read as one complete document holding a string.
    fn string(text: &str) -> Result<String, JsonError> {
        let mut r = Reader::new(text);
        let s = r.string()?.into_owned();
        r.finish()?;
        Ok(s)
    }

    /// Whether `text` is one complete JSON document, by a skipping walk.
    fn check(text: &str) -> Result<(), JsonError> {
        let mut r = Reader::new(text);
        r.skip_value()?;
        r.finish()
    }

    #[test]
    fn parses_scalars() {
        let mut r = Reader::new("null");
        assert_eq!((r.null(), r.finish()), (Ok(()), Ok(())));
        let mut r = Reader::new("true");
        assert_eq!((r.bool(), r.finish()), (Ok(true), Ok(())));
        let mut r = Reader::new(" false ");
        assert_eq!((r.bool(), r.finish()), (Ok(false), Ok(())));
        assert_eq!(number("-1.5e3").unwrap(), Number::Float(-1500.0));
        assert_eq!(string(r#""a\"b\nA""#).unwrap(), "a\"b\nA");
    }

    #[test]
    fn parses_nested_structures() {
        let mut r = Reader::new(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        r.begin_array().unwrap();
        for n in [1, 2] {
            assert!(r.next_item().unwrap());
            assert_eq!(r.number().unwrap(), Number::UInt(n));
        }
        assert!(r.next_item().unwrap());
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("b"));
        r.null().unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        assert!(!r.next_item().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("c"));
        assert_eq!(r.string().unwrap(), "x");
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"unterminated"] {
            assert!(check(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escaping_round_trips() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(string(&out).unwrap(), "a\"b\\c\nd\te\u{1}");
    }

    #[test]
    fn floats_render_round_trippably() {
        let mut out = String::new();
        write_f64(&mut out, 123.456e-7);
        assert_eq!(number(&out).unwrap(), Number::Float(123.456e-7));
        out.clear();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn unicode_passes_through() {
        assert_eq!(string("\"héllo ✓\"").unwrap(), "héllo ✓");
    }

    #[test]
    fn u64_max_round_trips_losslessly() {
        // u64::MAX is not representable in f64; the UInt variant keeps it.
        let n = number(&u64::MAX.to_string()).unwrap();
        assert_eq!(n, Number::UInt(u64::MAX));
        assert_eq!(n.as_u64(), Some(u64::MAX));
        // One past 2^53: f64 would collapse it onto a neighbour.
        let n = (1u64 << 53) + 1;
        assert_eq!(number(&n.to_string()).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn uint_still_reads_as_f64_and_number_as_u64() {
        assert_eq!(number("7").unwrap().as_f64(), 7.0);
        assert_eq!(Number::Float(7.0).as_u64(), Some(7));
        assert_eq!(Number::Float(7.5).as_u64(), None);
        assert_eq!(Number::Float(-1.0).as_u64(), None);
        // Negative and fractional syntax stays in the f64 variant.
        assert_eq!(number("-7").unwrap(), Number::Float(-7.0));
        assert_eq!(number("7.0").unwrap(), Number::Float(7.0));
        assert_eq!(number("7e0").unwrap(), Number::Float(7.0));
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
        let mut r = Reader::new(&out);
        let mut back: Vec<(u32, u64)> = Vec::new();
        r.begin_array().unwrap();
        while r.next_item().unwrap() {
            r.begin_array().unwrap();
            assert!(r.next_item().unwrap());
            let slot = u32::try_from(r.number().unwrap().as_u64().unwrap()).unwrap();
            assert!(r.next_item().unwrap());
            back.push((slot, r.number().unwrap().as_u64().unwrap()));
            assert!(!r.next_item().unwrap());
        }
        r.finish().unwrap();
        assert_eq!(back, buckets);
    }

    #[test]
    fn digit_strings_wider_than_u64_fall_back_to_f64() {
        let n = number("99999999999999999999999999").unwrap();
        assert!(matches!(n, Number::Float(_)));
        assert!(n.as_f64() > 9.9e25);
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
    fn nesting_deeper_than_the_limit_is_refused() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(check(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = check(&deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        // Far deeper input is refused at the same point, not by
        // overflowing the stack.
        assert_eq!(check(&"[".repeat(100_000)).unwrap_err(), err);
        assert_eq!(
            check(&"{\"a\":".repeat(100_000)).unwrap_err().offset,
            5 * MAX_DEPTH
        );
    }

    #[test]
    fn two_to_the_64_is_not_a_u64() {
        // `u64::MAX as f64` rounds up to 2^64, which no u64 holds.
        for text in ["18446744073709551616", "1.8446744073709552e19"] {
            assert_eq!(number(text).unwrap().as_u64(), None, "{text}");
        }
        // The largest f64 below 2^64 is still exact.
        assert_eq!(
            number("18446744073709549568.0").unwrap().as_u64(),
            Some(18_446_744_073_709_549_568)
        );
    }
}
