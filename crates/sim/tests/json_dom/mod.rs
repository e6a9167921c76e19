//! A JSON DOM for tests that want random access to a document: read a
//! checkpoint into a tree, damage or rewrite one spot, and write it back.
//!
//! [`parse`] builds a [`JsonValue`] tree over `dhl_obs::json`'s pull
//! [`Reader`], so a document is refused exactly when a `Reader` walk
//! refuses it, at the same offset, with the same message. The shipped
//! crates read JSON only through the `Reader`; this tree lives with the
//! tests that use it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dhl_obs::json::{write_escaped, write_f64, JsonError, Kind, Number, Reader};

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
    /// variant.
    UInt(u64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys are sorted (BTreeMap), duplicates keep the last value.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
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
