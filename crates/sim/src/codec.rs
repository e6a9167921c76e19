//! The field-list JSON codec behind checkpoints.
//!
//! Every checkpointed type implements [`Codec`]: it encodes to a
//! [`JsonValue`] and decodes back, refusing anything that does not fit with
//! a [`CheckpointError::Shape`] that names the offending field. Scalars,
//! containers and the `dhl-units` quantities have impls here; named-field
//! structs and `"t"`-tagged enums declare theirs with [`codec_struct!`] and
//! [`codec_enum!`], listing each field once.
//!
//! Encodings, fixed by the checkpoint format: `u64`/`u32`/`usize` and
//! [`Bytes`] ride the lossless `UInt` path; `f64` and the `f64`-backed
//! quantities are `Number`s; `None` is `null`; tuples and fixed arrays are
//! JSON arrays; name-keyed maps are objects. Every field is required —
//! an absent value is an explicit `null`, never a missing key.
//!
//! The module lives in `dhl-sim` rather than in `dhl_obs::json` because of
//! the orphan rule: the trait must be implemented for the `dhl-units`
//! types, and `dhl-obs` depends on nothing.

use std::collections::BTreeMap;

use dhl_obs::json::JsonValue;
use dhl_units::{Bytes, Joules, MetresPerSecond, Seconds};

use crate::checkpoint::CheckpointError;

/// A value that travels through checkpoint JSON.
pub(crate) trait Codec: Sized {
    /// The value as JSON.
    fn encode(&self) -> JsonValue;
    /// Reads a value written by [`Codec::encode`].
    fn decode(v: &JsonValue) -> Result<Self, CheckpointError>;
}

pub(crate) fn shape(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Shape(msg.into())
}

/// How one struct field travels: [`Plain`] through the field type's own
/// [`Codec`], or through a field-specific adapter such as [`NullIsInf`].
pub(crate) trait Field<T> {
    fn encode(v: &T) -> JsonValue;
    fn decode(v: &JsonValue) -> Result<T, CheckpointError>;
}

/// The default field adapter: the type's own [`Codec`].
pub(crate) enum Plain {}

impl<T: Codec> Field<T> for Plain {
    fn encode(v: &T) -> JsonValue {
        v.encode()
    }
    fn decode(v: &JsonValue) -> Result<T, CheckpointError> {
        T::decode(v)
    }
}

/// An `f64` whose non-finite value travels as `null` (JSON has no
/// infinities) and reads back as `+∞`.
pub(crate) enum NullIsInf {}

/// As [`NullIsInf`], reading `null` back as `-∞`.
pub(crate) enum NullIsNegInf {}

fn finite_or_null(v: f64) -> JsonValue {
    Some(v).filter(|v| v.is_finite()).encode()
}

impl Field<f64> for NullIsInf {
    fn encode(v: &f64) -> JsonValue {
        finite_or_null(*v)
    }
    fn decode(v: &JsonValue) -> Result<f64, CheckpointError> {
        Ok(Option::decode(v)?.unwrap_or(f64::INFINITY))
    }
}

impl Field<f64> for NullIsNegInf {
    fn encode(v: &f64) -> JsonValue {
        finite_or_null(*v)
    }
    fn decode(v: &JsonValue) -> Result<f64, CheckpointError> {
        Ok(Option::decode(v)?.unwrap_or(f64::NEG_INFINITY))
    }
}

/// Reads field `key` of object `v` through adapter `F`.
pub(crate) fn field<T, F: Field<T>>(v: &JsonValue, key: &str) -> Result<T, CheckpointError> {
    let value = v
        .get(key)
        .ok_or_else(|| shape(format!("missing field `{key}`")))?;
    within(key, F::decode(value))
}

/// Names the field `key` in a decode error from its value.
fn within<T>(key: &str, decoded: Result<T, CheckpointError>) -> Result<T, CheckpointError> {
    decoded.map_err(|e| match e {
        CheckpointError::Shape(msg) => shape(format!("`{key}`: {msg}")),
        other => other,
    })
}

impl Codec for u64 {
    fn encode(&self) -> JsonValue {
        JsonValue::UInt(*self)
    }
    fn decode(v: &JsonValue) -> Result<Self, CheckpointError> {
        v.as_u64().ok_or_else(|| shape("not a u64"))
    }
}

impl Codec for u32 {
    fn encode(&self) -> JsonValue {
        JsonValue::UInt(u64::from(*self))
    }
    fn decode(v: &JsonValue) -> Result<Self, CheckpointError> {
        Self::try_from(u64::decode(v)?).map_err(|_| shape("overflows u32"))
    }
}

impl Codec for usize {
    fn encode(&self) -> JsonValue {
        JsonValue::UInt(*self as u64)
    }
    fn decode(v: &JsonValue) -> Result<Self, CheckpointError> {
        Self::try_from(u64::decode(v)?).map_err(|_| shape("overflows usize"))
    }
}

impl Codec for f64 {
    fn encode(&self) -> JsonValue {
        JsonValue::Number(*self)
    }
    fn decode(v: &JsonValue) -> Result<Self, CheckpointError> {
        v.as_f64().ok_or_else(|| shape("not a number"))
    }
}

impl Codec for bool {
    fn encode(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
    fn decode(v: &JsonValue) -> Result<Self, CheckpointError> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(shape("not a boolean")),
        }
    }
}

impl Codec for Bytes {
    fn encode(&self) -> JsonValue {
        self.as_u64().encode()
    }
    fn decode(v: &JsonValue) -> Result<Self, CheckpointError> {
        u64::decode(v).map(Self::new)
    }
}

/// `f64`-backed quantities travel as their bare number.
macro_rules! quantity_codec {
    ($($ty:ty => $get:ident),* $(,)?) => {$(
        impl Codec for $ty {
            fn encode(&self) -> JsonValue {
                self.$get().encode()
            }
            fn decode(v: &JsonValue) -> Result<Self, CheckpointError> {
                f64::decode(v).map(<$ty>::new)
            }
        }
    )*};
}

quantity_codec!(Seconds => seconds, Joules => value, MetresPerSecond => value);

impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, Codec::encode)
    }
    fn decode(v: &JsonValue) -> Result<Self, CheckpointError> {
        match v {
            JsonValue::Null => Ok(None),
            v => T::decode(v).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(Codec::encode).collect())
    }
    fn decode(v: &JsonValue) -> Result<Self, CheckpointError> {
        v.as_array()
            .ok_or_else(|| shape("not an array"))?
            .iter()
            .map(T::decode)
            .collect()
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(Codec::encode).collect())
    }
    fn decode(v: &JsonValue) -> Result<Self, CheckpointError> {
        Vec::decode(v)?
            .try_into()
            .map_err(|_| shape(format!("not {N} entries")))
    }
}

/// A name-keyed map travels as a JSON object.
impl<T: Codec> Codec for BTreeMap<String, T> {
    fn encode(&self) -> JsonValue {
        JsonValue::Object(self.iter().map(|(k, v)| (k.clone(), v.encode())).collect())
    }
    fn decode(v: &JsonValue) -> Result<Self, CheckpointError> {
        v.as_object()
            .ok_or_else(|| shape("not an object"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), within(k, T::decode(v))?)))
            .collect()
    }
}

/// Tuples travel as fixed-length JSON arrays.
macro_rules! tuple_codec {
    ($($len:literal: ($($t:ident $i:tt),*)),* $(,)?) => {$(
        impl<$($t: Codec),*> Codec for ($($t,)*) {
            fn encode(&self) -> JsonValue {
                JsonValue::Array(vec![$(self.$i.encode()),*])
            }
            fn decode(v: &JsonValue) -> Result<Self, CheckpointError> {
                match v.as_array() {
                    Some(items) if items.len() == $len => Ok(($($t::decode(&items[$i])?,)*)),
                    _ => Err(shape(concat!("not a ", $len, "-entry array"))),
                }
            }
        }
    )*};
}

tuple_codec!(2: (A 0, B 1), 3: (A 0, B 1, C 2));

/// Implements [`Codec`] for a struct with named fields, encoded as a JSON
/// object keyed by field name. A field written `name via Adapter` travels
/// through that [`Field`] adapter instead of its type's own codec. Decoding
/// builds `Self { .. }` from the list, so a field left out does not compile.
macro_rules! codec_struct {
    (@via) => { $crate::codec::Plain };
    (@via $adapter:ty) => { $adapter };
    ($ty:ty { $($field:ident $(via $adapter:ty)?),* $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self) -> ::dhl_obs::json::JsonValue {
                ::dhl_obs::json::JsonValue::Object(::std::collections::BTreeMap::from([$((
                    stringify!($field).to_string(),
                    <$crate::codec::codec_struct!(@via $($adapter)?)
                        as $crate::codec::Field<_>>::encode(&self.$field),
                )),*]))
            }
            fn decode(
                v: &::dhl_obs::json::JsonValue,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                Ok(Self {$(
                    $field: $crate::codec::field::<
                        _,
                        $crate::codec::codec_struct!(@via $($adapter)?),
                    >(v, stringify!($field))?,
                )*})
            }
        }
    };
}

/// Implements [`Codec`] for an enum, encoded as a JSON object whose `"t"`
/// key holds the variant's tag. Struct variants add their fields as keys; a
/// one-field tuple variant names its key in parentheses.
macro_rules! codec_enum {
    ($ty:ty {
        $($variant:ident $(($key:ident))? $({ $($field:ident),* })? = $tag:literal),* $(,)?
    }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self) -> ::dhl_obs::json::JsonValue {
                let mut map = ::std::collections::BTreeMap::new();
                let tag = match self {$(
                    Self::$variant $(($key))? $({ $($field),* })? => {
                        $(map.insert(
                            stringify!($key).to_string(),
                            $crate::codec::Codec::encode($key),
                        );)?
                        $($(map.insert(
                            stringify!($field).to_string(),
                            $crate::codec::Codec::encode($field),
                        );)*)?
                        $tag
                    }
                )*};
                map.insert(
                    "t".to_string(),
                    ::dhl_obs::json::JsonValue::String(tag.to_string()),
                );
                ::dhl_obs::json::JsonValue::Object(map)
            }
            fn decode(
                v: &::dhl_obs::json::JsonValue,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                use $crate::codec::{field, Plain};
                let tag = v
                    .get("t")
                    .and_then(::dhl_obs::json::JsonValue::as_str)
                    .ok_or_else(|| $crate::codec::shape("missing string field `t`"))?;
                match tag {
                    $($tag => Ok(Self::$variant
                        $((field::<_, Plain>(v, stringify!($key))?))?
                        $({ $($field: field::<_, Plain>(v, stringify!($field))?),* })?
                    ),)*
                    other => Err($crate::codec::shape(format!(
                        "unknown `t` tag `{other}` for {}",
                        stringify!($ty),
                    ))),
                }
            }
        }
    };
}

pub(crate) use {codec_enum, codec_struct};
