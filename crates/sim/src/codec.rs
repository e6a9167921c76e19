//! The field-list JSON codec behind checkpoints.
//!
//! Every checkpointed type implements [`Codec`]: it writes itself straight
//! into a `String` and reads itself straight off a
//! [`dhl_obs::json::Reader`], with no JSON tree in between, refusing what
//! does not fit with a [`CheckpointError::Shape`] that names the field.
//! Named-field structs and `"t"`-tagged enums declare theirs with
//! [`codec_struct!`] and [`codec_enum!`], listing each field once.
//!
//! Integers and [`Bytes`] are exact digit strings, `f64`s Rust's shortest
//! round-trip form, `None` is `null`, tuples and fixed arrays are arrays,
//! name-keyed maps are objects. Every field is required: an absent value
//! is an explicit `null`, never a missing key.
//!
//! Keys are written in sorted byte order, so the text is canonical; the
//! macros sort each type's keys at compile time with [`in_key_order`], and
//! a read first matches the key canonical order puts next as one literal.
//! An enum's `"t"` tag sorts among its fields (`{"cart":3,"t":"arrived"}`),
//! so a read steps over the members before the tag, holding a reader at
//! each value ([`tag`]), and reads them once the tag names the variant.
//! Reads take keys in any order: each field fills one slot, unknown keys
//! are skipped, a field (or map key) given twice is refused, and a missing
//! field is reported in declaration order. A syntax error anywhere
//! outranks every shape error ([`read_document`]). The module lives here,
//! not in `dhl_obs::json`, because of the orphan rule: it implements the
//! trait for `dhl-units`.

use std::borrow::Cow;
use std::collections::BTreeMap;

use dhl_obs::json::{self, Kind, Number, Tally};
use dhl_units::{Bytes, Joules, MetresPerSecond, Seconds};

use crate::checkpoint::CheckpointError;

/// The reader the codec reads through, reporting to [`Work`].
pub(crate) type Reader<'a> = json::Reader<'a, Work>;

/// The [`Tally`] of the codec's JSON work, counted by name in unit tests:
/// a [`Reader`]'s token reads, and the scalar values the codec writes
/// (`"written"`) and reads (`"read"`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Work;

impl Tally for Work {
    #[inline(always)]
    fn count(_name: &'static str) {
        #[cfg(test)]
        tests::JSON_WORK.with(|w| *w.borrow_mut().entry(_name).or_default() += 1);
    }
}

/// A value that travels through checkpoint JSON.
pub(crate) trait Codec: Sized {
    /// Appends the value as JSON to `out`.
    fn write(&self, out: &mut String);
    /// Reads a value written by [`Codec::write`].
    fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError>;
}

pub(crate) fn shape(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Shape(msg.into())
}

pub(crate) fn missing(key: &str) -> CheckpointError {
    shape(format!("missing field `{key}`"))
}

/// Reads a document holding one `T`. A shape error is reported only once
/// the whole text is known to be well-formed; otherwise the first syntax
/// error wins, exactly as if the text had been parsed before it was read.
pub(crate) fn read_document<T: Codec>(text: &str) -> Result<T, CheckpointError> {
    let mut r = Reader::tallied(text);
    let read = T::read(&mut r).and_then(|v| {
        r.finish()?;
        Ok(v)
    });
    match read {
        Err(CheckpointError::Shape(msg)) => {
            let mut r = Reader::tallied(text);
            Err(match r.skip_value().and_then(|()| r.finish()) {
                Err(syntax) => CheckpointError::Json(syntax),
                Ok(()) => CheckpointError::Shape(msg),
            })
        }
        done => done,
    }
}

/// `Err(shape(msg))` unless the next value is of `kind`.
#[inline]
fn expect(r: &mut Reader<'_>, kind: Kind, msg: &str) -> Result<(), CheckpointError> {
    if r.peek()? == kind {
        Ok(())
    } else {
        Err(shape(msg))
    }
}

/// Names the field `key` in a read error from its value.
pub(crate) fn within<T>(key: &str, read: Result<T, CheckpointError>) -> Result<T, CheckpointError> {
    read.map_err(|e| match e {
        CheckpointError::Shape(msg) => shape(format!("`{key}`: {msg}")),
        other => other,
    })
}

/// `keys` sorted by their `names`, byte-wise as `str`'s `Ord` sorts: the
/// order in which a type's JSON keys are written.
pub(crate) const fn in_key_order<T: Copy, const N: usize>(
    mut names: [&str; N],
    mut keys: [T; N],
) -> [T; N] {
    let mut i = 1;
    while i < N {
        let mut j = i;
        while j > 0 && precedes(names[j].as_bytes(), names[j - 1].as_bytes()) {
            (names[j], names[j - 1]) = (names[j - 1], names[j]);
            (keys[j], keys[j - 1]) = (keys[j - 1], keys[j]);
            j -= 1;
        }
        i += 1;
    }
    keys
}

const fn precedes(a: &[u8], b: &[u8]) -> bool {
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

/// Fills field `key`'s slot with the value `read` takes off `r`.
pub(crate) fn fill<T>(
    slot: &mut Option<T>,
    key: &str,
    r: &mut Reader<'_>,
    read: fn(&mut Reader<'_>) -> Result<T, CheckpointError>,
) -> Result<(), CheckpointError> {
    if slot.is_some() {
        return Err(shape(format!("repeated key `{key}`")));
    }
    *slot = Some(within(key, read(r))?);
    Ok(())
}

/// A member of an enum object before its `"t"` tag: the key, and a reader
/// at its value.
pub(crate) type Member<'a> = Option<(Cow<'a, str>, Reader<'a>)>;

/// Opens the enum object at `r` and reads up to its `"t"` tag, stepping over
/// the members before it into `held`. If more come, `held` is emptied and
/// `r` goes back to the first member: the returned flag says the tag is ahead.
pub(crate) fn tag<'a>(
    r: &mut Reader<'a>,
    held: &mut [Member<'a>],
) -> Result<(Cow<'a, str>, bool), CheckpointError> {
    let missing = "missing string field `t`";
    expect(r, Kind::Object, missing)?;
    r.begin_object()?;
    let (first, mut members) = (*r, 0);
    while let Some(key) = r.next_key()? {
        if key == "t" {
            expect(r, Kind::String, missing)?;
            Work::count("read");
            let tag = r.string()?;
            let ahead = members > held.len();
            if ahead {
                *r = first;
                held.fill(None);
            }
            return Ok((tag, ahead));
        }
        if let Some(slot) = held.get_mut(members) {
            *slot = Some((key, *r));
        }
        members += 1;
        r.skip_value()?;
    }
    Err(shape(missing))
}

/// `e`, unless the enum object at `r` repeats its `"t"` tag, which outranks
/// its fields' refusals. (A syntax error outranks both, so it ends the walk.)
#[cold]
pub(crate) fn unless_tag_repeated(mut r: Reader<'_>, e: CheckpointError) -> CheckpointError {
    let mut tags = 0;
    let _ = r.begin_object();
    while let Ok(Some(key)) = r.next_key() {
        tags += usize::from(key == "t");
        if r.skip_value().is_err() {
            break;
        }
    }
    match e {
        CheckpointError::Shape(_) if tags > 1 => shape("repeated key `t`"),
        e => e,
    }
}

/// Writes an object whose members are `key => write-the-value`, in sorted
/// key order.
macro_rules! write_object {
    ($out:ident, $($key:ident => $write:expr),*) => {{
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        enum Key { $($key),* }
        const ORDER: &[Key] =
            &$crate::codec::in_key_order([$(stringify!($key)),*], [$(Key::$key),*]);
        $out.push('{');
        for (i, key) in ORDER.iter().enumerate() {
            if i > 0 {
                $out.push(',');
            }
            match key {$(
                Key::$key => {
                    $out.push_str(concat!("\"", stringify!($key), "\":"));
                    $write;
                }
            )*}
        }
        $out.push('}');
    }};
}

/// Reads the members of the open object at `r` into one slot per listed
/// field, then evaluates `$build` with each field name bound to its value.
/// `$held` gives the members [`tag`] held, and whether the tag lies ahead.
/// An enum's read lists `t`, so that a second tag is refused.
///
/// A member is matched first as the literal that canonical order puts
/// next, and only then read as a key and looked up.
macro_rules! read_object {
    (@read) => { $crate::codec::Codec::read };
    (@read $null:expr) => {
        |r| Ok(<Option<_> as $crate::codec::Codec>::read(r)?.unwrap_or($null))
    };
    ($r:ident, $held:expr, [$($field:ident $(: null => $null:expr)?),*] $(+ $t:ident)?, $build:expr) => {{
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        enum Key { $($field,)* $($t)? }
        const KEYS: &[(Key, &str)] = &$crate::codec::in_key_order(
            [$(stringify!($field),)* $(stringify!($t))?],
            [$((Key::$field, concat!("\"", stringify!($field), "\":")),)* $((Key::$t, "\"t\":"))?],
        );
        let (held, _ahead): (&[$crate::codec::Member<'_>], bool) = $held;
        $(let mut $t = _ahead;)?
        // In canonical order a read tag follows the held members.
        let mut next = held.iter().flatten().count() $(+ usize::from(!$t))?;
        $(let mut $field = None;)*
        let key_of = |name: &str| match name {
            $(stringify!($field) => Some(Key::$field),)*
            $(stringify!($t) => Some(Key::$t),)?
            _ => None,
        };
        let mut fill = |key, r: &mut $crate::codec::Reader<'_>| match key {
            $(Key::$field => $crate::codec::fill(
                &mut $field,
                stringify!($field),
                r,
                $crate::codec::read_object!(@read $($null)?),
            ),)*
            $(Key::$t if std::mem::take(&mut $t) => Ok(r.skip_value()?),
            Key::$t => Err($crate::codec::shape("repeated key `t`")),)?
        };
        for (name, at) in held.iter().flatten() {
            if let Some(key) = key_of(name) {
                fill(key, &mut at.clone())?;
            }
        }
        loop {
            let key = match KEYS.get(next) {
                Some(&(key, literal)) if $r.next_key_is(literal) => Some(key),
                _ => match $r.next_key()? {
                    Some(name) => key_of(&name),
                    None => break,
                },
            };
            match key {
                Some(key) => fill(key, $r)?,
                None => $r.skip_value()?,
            }
            next += 1;
        }
        $(let $field = $field.ok_or_else(|| $crate::codec::missing(stringify!($field)))?;)*
        Ok($build)
    }};
}

/// `n`'s digits without `core::fmt`, two at a time, last first.
fn write_digits(mut n: u64, out: &mut String) {
    const PAIRS: &[u8; 200] = b"00010203040506070809101112131415161718192021222324\
        25262728293031323334353637383940414243444546474849\
        50515253545556575859606162636465666768697071727374\
        75767778798081828384858687888990919293949596979899";
    let (mut digits, mut i) = ([0u8; 20], 20);
    while n >= 10 {
        let pair = (n % 100) as usize * 2;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        n /= 100;
    }
    if n > 0 || i == 20 {
        i -= 1;
        digits[i] = b'0' + n as u8;
    }
    // ASCII, so each byte is one `char`.
    out.extend(digits[i..].iter().map(|&d| char::from(d & 0x7f)));
}

impl Codec for u64 {
    fn write(&self, out: &mut String) {
        Work::count("written");
        write_digits(*self, out);
    }
    /// The number first: only a refusal looks at what came instead.
    fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Work::count("read");
        let start = *r;
        match r.number() {
            Ok(n) => n.as_u64().ok_or_else(|| shape("not a u64")),
            Err(e) => Err(refused(r, start, "not a u64", e)),
        }
    }
}

/// Why the number at `start` could not be read: the shape error `msg` if
/// no number starts there, else the syntax error `e`.
#[cold]
fn refused<'a>(
    r: &mut Reader<'a>,
    start: Reader<'a>,
    msg: &str,
    e: json::JsonError,
) -> CheckpointError {
    *r = start;
    expect(r, Kind::Number, msg).err().unwrap_or(e.into())
}

/// Narrower integers travel as `u64`s that must fit.
macro_rules! narrow_codec {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn write(&self, out: &mut String) {
                (*self as u64).write(out);
            }
            fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                Self::try_from(u64::read(r)?)
                    .map_err(|_| shape(concat!("overflows ", stringify!($ty))))
            }
        }
    )*};
}

narrow_codec!(u32, usize);

/// Non-finite values write as `null`, which reads back only into a field
/// declared `name: null => value`.
impl Codec for f64 {
    fn write(&self, out: &mut String) {
        Work::count("written");
        json::write_f64(out, *self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Work::count("read");
        let start = *r;
        r.number()
            .map(Number::as_f64)
            .map_err(|e| refused(r, start, "not a number", e))
    }
}

impl Codec for bool {
    fn write(&self, out: &mut String) {
        Work::count("written");
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Work::count("read");
        expect(r, Kind::Bool, "not a boolean")?;
        Ok(r.bool()?)
    }
}

/// Quantities travel as their bare number.
macro_rules! quantity_codec {
    ($($ty:ty => $get:ident: $raw:ty),* $(,)?) => {$(
        impl Codec for $ty {
            fn write(&self, out: &mut String) {
                self.$get().write(out);
            }
            fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                <$raw>::read(r).map(<$ty>::new)
            }
        }
    )*};
}

quantity_codec!(
    Bytes => as_u64: u64,
    Seconds => seconds: f64,
    Joules => value: f64,
    MetresPerSecond => value: f64,
);

impl<T: Codec> Codec for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => {
                Work::count("written");
                out.push_str("null");
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.peek()? {
            Kind::Null => {
                Work::count("read");
                Ok(r.null().map(|()| None)?)
            }
            _ => T::read(r).map(Some),
        }
    }
}

fn write_items<T: Codec>(items: &[T], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write(out);
    }
    out.push(']');
}

impl<T: Codec> Codec for Vec<T> {
    fn write(&self, out: &mut String) {
        write_items(self, out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        expect(r, Kind::Array, "not an array")?;
        r.begin_array()?;
        let mut items = Vec::new();
        while r.next_item()? {
            // Room for a fleet column at once, rather than four items first.
            items.reserve(if items.is_empty() { 64 } else { 0 });
            items.push(T::read(r)?);
        }
        Ok(items)
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn write(&self, out: &mut String) {
        write_items(self, out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Vec::read(r)?
            .try_into()
            .map_err(|_| shape(format!("not {N} entries")))
    }
}

/// A name-keyed map travels as a JSON object.
impl<T: Codec> Codec for BTreeMap<String, T> {
    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(out, key);
            out.push(':');
            value.write(out);
        }
        out.push('}');
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        expect(r, Kind::Object, "not an object")?;
        r.begin_object()?;
        let mut map = Self::new();
        while let Some(key) = r.next_key()? {
            if map.contains_key(&*key) {
                return Err(shape(format!("repeated key `{key}`")));
            }
            let value = within(&key, T::read(r))?;
            map.insert(key.into_owned(), value);
        }
        Ok(map)
    }
}

/// `e`, unless the tuple at `r` does not have `len` entries, which outranks
/// its entries' refusals. (A syntax error outranks both, so it ends the count.)
#[cold]
fn unless_wrong_length(mut r: Reader<'_>, len: usize, e: CheckpointError) -> CheckpointError {
    let mut entries = 0;
    if r.peek() == Ok(Kind::Array) && r.begin_array().is_ok() {
        while r.next_item() == Ok(true) && r.skip_value().is_ok() {
            entries += 1;
        }
    }
    match e {
        CheckpointError::Shape(_) if entries != len => shape(format!("not a {len}-entry array")),
        e => e,
    }
}

/// Tuples travel as fixed-length JSON arrays.
macro_rules! tuple_codec {
    ($($len:literal: ($($t:ident $i:tt),*)),* $(,)?) => {$(
        impl<$($t: Codec),*> Codec for ($($t,)*) {
            fn write(&self, out: &mut String) {
                out.push('[');
                $(
                    if $i > 0 {
                        out.push(',');
                    }
                    self.$i.write(out);
                )*
                out.push(']');
            }
            fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                // A wrong length is refused by `unless_wrong_length`.
                let start = *r;
                let mut read = || {
                    expect(r, Kind::Array, "")?;
                    r.begin_array()?;
                    let entries = ($({
                        if !r.next_item()? {
                            return Err(shape(""));
                        }
                        $t::read(r)?
                    },)*);
                    match r.next_item()? {
                        true => Err(shape("")),
                        false => Ok(entries),
                    }
                };
                read().map_err(|e| unless_wrong_length(start, $len, e))
            }
        }
    )*};
}

tuple_codec!(2: (A 0, B 1), 3: (A 0, B 1, C 2), 5: (A 0, B 1, C 2, D 3, E 4));

/// Implements [`Codec`] for a struct with named fields, encoded as a JSON
/// object keyed by field name. A field written `name: null => value` reads
/// a JSON `null` as `value` (an `f64`'s infinities; JSON has none). Fields
/// in a trailing `derived { .. }` list are never written and read as their
/// `Default`. Reading builds `Self { .. }`, so a field left out fails to compile.
macro_rules! codec_struct {
    ($ty:ty { $($field:ident $(: null => $null:expr)?),* $(,)? } $(derived { $($derived:ident),* })?) => {
        impl $crate::codec::Codec for $ty {
            fn write(&self, out: &mut String) {
                $crate::codec::write_object!(
                    out,
                    $($field => $crate::codec::Codec::write(&self.$field, out)),*
                );
            }
            fn read(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                if r.peek()? != ::dhl_obs::json::Kind::Object {
                    // As if every field were missing: the first is named.
                    return Err($crate::codec::missing([$(stringify!($field)),*][0]));
                }
                r.begin_object()?;
                $crate::codec::read_object!(
                    r,
                    (&[], false),
                    [$($field $(: null => $null)?),*],
                    Self { $($field,)* $($($derived: Default::default(),)*)? }
                )
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
            fn write(&self, out: &mut String) {
                match self {$(
                    Self::$variant $(($key))? $({ $($field),* })? => $crate::codec::write_object!(
                        out,
                        $($key => $crate::codec::Codec::write($key, out),)?
                        $($($field => $crate::codec::Codec::write($field, out),)*)?
                        t => {
                            <$crate::codec::Work as ::dhl_obs::json::Tally>::count("written");
                            out.push_str(concat!("\"", $tag, "\""));
                        }
                    ),
                )*}
            }
            fn read(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                let start = *r;
                let mut held: [$crate::codec::Member<'_>; 4] = Default::default();
                let (tag, ahead) = $crate::codec::tag(r, &mut held)?;
                let mut read = || match &*tag {
                    $($tag => $crate::codec::read_object!(
                        r,
                        (&held, ahead),
                        [$($key)? $($($field),*)?] + t,
                        Self::$variant $(($key))? $({ $($field),* })?
                    ),)*
                    other => Err($crate::codec::shape(format!(
                        "unknown `t` tag `{other}` for {}",
                        stringify!($ty),
                    ))),
                };
                read().map_err(|e| $crate::codec::unless_tag_repeated(start, e))
            }
        }
    };
}

pub(crate) use {codec_enum, codec_struct, read_object, write_object};

#[cfg(test)]
mod tests {
    use dhl_units::Metres;

    use super::*;
    use crate::{Checkpoint, DhlSystem, EndpointKind, EndpointSpec, SimConfig};

    thread_local! {
        /// This thread's JSON work by name (see [`Work`]).
        pub(super) static JSON_WORK: std::cell::RefCell<BTreeMap<&'static str, u64>> =
            const { std::cell::RefCell::new(BTreeMap::new()) };
    }

    /// The JSON work `f` does on this thread, by name.
    fn json_work<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<&'static str, u64>) {
        JSON_WORK.with(|w| w.borrow_mut().clear());
        let out = f();
        (out, JSON_WORK.with(|w| w.take()))
    }

    /// The 16-rack, 128-cart campus of `tests/checkpoint_allocs.rs`,
    /// captured at 2,000 s, mid-mission.
    fn campus_capture() -> Checkpoint {
        let mut cfg = SimConfig::paper_default();
        cfg.num_carts = 128;
        cfg.endpoints = vec![EndpointSpec {
            position: Metres::ZERO,
            docks: 128,
            kind: EndpointKind::Library,
        }];
        for rack in 1..=16 {
            cfg.endpoints.push(EndpointSpec {
                position: Metres::new(300.0 * f64::from(rack)),
                docks: 4,
                kind: EndpointKind::Rack,
            });
        }
        let demands: Vec<_> = (1..=16)
            .map(|rack| (rack, Bytes::from_petabytes(64.0)))
            .collect();
        let mut sys = DhlSystem::new(cfg).expect("valid configuration");
        sys.begin_multi_rack(&demands).expect("begin");
        assert!(!sys.run_until(Seconds::new(2_000.0)).expect("run"));
        sys.checkpoint()
    }

    /// The values and bytes of a capture are fixed by the format; the
    /// reader calls it takes to read them are the codec's per-value cost.
    /// A `peek` before each value took 4,866 calls (3.59 per value): 1,713
    /// `peek`, 1,483 `next_item` and 1,089 `number` among them. Reading a
    /// number before looking at what else came saves a `peek` per number.
    #[test]
    fn json_work_of_a_campus_capture() {
        let cp = campus_capture();
        let (text, written) = json_work(|| cp.to_json());
        let (back, read) = json_work(|| Checkpoint::from_json(&text));
        assert_eq!(back.expect("decodes"), cp);
        assert_eq!(text.len(), 9_611);
        assert_eq!(written.into_iter().collect::<Vec<_>>(), [("written", 1354)]);
        let calls: u64 = read
            .iter()
            .filter(|&(&k, _)| k != "read")
            .map(|(_, n)| n)
            .sum();
        assert_eq!(
            read.into_iter().collect::<Vec<_>>(),
            [
                ("bool", 10),
                ("next_item", 1483),
                ("next_key", 286),
                ("null", 255),
                ("number", 1089),
                ("peek", 633),
                ("read", 1354),
                ("string", 30),
            ]
        );
        assert_eq!(calls, 3_786, "2.80 reader calls per value read");
    }
}
