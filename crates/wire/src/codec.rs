//! The symmetric codec API: [`WireEncode`] / [`WireDecode`] and the
//! round-trip contract.
//!
//! Every type that crosses a process boundary implements both halves,
//! and the contract is `decode(encode(x)) == x` — checked directly by
//! [`assert_round_trip`] in each owning crate's tests. Encoding builds
//! a [`JsonValue`] tree (so rendering stays deterministic in one
//! place); decoding walks a parsed tree and reports failures as a
//! [`DecodeError`] carrying the path of fields it descended through,
//! e.g. `scenarios[3].load.rate: expected number, found string`.
//!
//! [`encode_line`] / [`decode_line`] wrap the codec for the fleet's
//! subprocess protocol: one frame per line, which is sound because the
//! escaper never lets a raw newline into rendered output.

use std::fmt;

use crate::parse::{parse, ParseError};
use crate::value::JsonValue;

/// Encoding half: build the wire document for a value.
pub trait WireEncode {
    /// The value as a document tree.
    fn encode(&self) -> JsonValue;
}

/// Decoding half: rebuild a value from a wire document.
pub trait WireDecode: Sized {
    /// Rebuilds the value; errors carry the field path to the failure.
    fn decode(v: &JsonValue) -> Result<Self, DecodeError>;
}

impl<T: WireEncode + ?Sized> WireEncode for &T {
    fn encode(&self) -> JsonValue {
        (**self).encode()
    }
}

/// A typed-decode failure: what went wrong and the field path that led
/// there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Dotted field path from the document root (empty at the root).
    pub path: String,
    /// What went wrong.
    pub msg: String,
}

impl DecodeError {
    /// A fresh error at the current position.
    pub fn new(msg: impl Into<String>) -> Self {
        DecodeError {
            path: String::new(),
            msg: msg.into(),
        }
    }

    /// The standard shape mismatch message.
    pub fn expected(what: &str, found: &JsonValue) -> Self {
        DecodeError::new(format!("expected {what}, found {}", found.kind()))
    }

    /// Prefixes a path segment (used while unwinding out of a field).
    pub fn push_segment(mut self, segment: &str) -> Self {
        if self.path.is_empty() {
            self.path = segment.to_string();
        } else if self.path.starts_with('[') {
            self.path = format!("{segment}{}", self.path);
        } else {
            self.path = format!("{segment}.{}", self.path);
        }
        self
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "decode error: {}", self.msg)
        } else {
            write!(f, "decode error at `{}`: {}", self.path, self.msg)
        }
    }
}

impl std::error::Error for DecodeError {}

/// Adds a path segment to a decode failure on the way out.
pub trait Context {
    /// Prefixes `segment` onto the error's field path.
    fn context(self, segment: &str) -> Self;
}

impl<T> Context for Result<T, DecodeError> {
    fn context(self, segment: &str) -> Self {
        self.map_err(|e| e.push_segment(segment))
    }
}

/// Either half of the text boundary failing: the bytes weren't JSON, or
/// the JSON wasn't the expected shape.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The input was not valid JSON.
    Parse(ParseError),
    /// The document did not match the target type.
    Decode(DecodeError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Parse(e) => e.fmt(f),
            WireError::Decode(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for WireError {}

impl From<ParseError> for WireError {
    fn from(e: ParseError) -> Self {
        WireError::Parse(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

/// Renders a value to its wire bytes.
pub fn encode_string<T: WireEncode + ?Sized>(value: &T) -> String {
    value.encode().render()
}

/// Parses and decodes a value from wire bytes.
pub fn decode_string<T: WireDecode>(input: &str) -> Result<T, WireError> {
    Ok(T::decode(&parse(input)?)?)
}

/// Renders a value as one newline-terminated frame. The escaper
/// guarantees rendered JSON never contains a raw newline, so frames
/// split cleanly on `\n`.
pub fn encode_line<T: WireEncode + ?Sized>(value: &T) -> String {
    let mut frame = encode_string(value);
    debug_assert!(!frame.contains('\n'), "rendered frame contains newline");
    frame.push('\n');
    frame
}

/// Decodes one frame (ignores the trailing newline, if present).
pub fn decode_line<T: WireDecode>(line: &str) -> Result<T, WireError> {
    decode_string(line.trim_end_matches(['\n', '\r']))
}

/// Asserts the codec contract `decode(encode(x)) == x`, plus stability
/// of the rendered bytes. The shared round-trip check every migrated
/// type's tests call.
pub fn assert_round_trip<T>(value: &T)
where
    T: WireEncode + WireDecode + PartialEq + fmt::Debug,
{
    let bytes = encode_string(value);
    let back: T = decode_string(&bytes)
        .unwrap_or_else(|e| panic!("round trip failed: {e}\nwire bytes: {bytes}"));
    assert_eq!(&back, value, "decode(encode(x)) != x");
    assert_eq!(
        encode_string(&back),
        bytes,
        "re-encoding is not byte-stable"
    );
}

/// An insertion-ordered object builder for `encode` implementations.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, JsonValue)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj(Vec::new())
    }

    /// Starts a tagged-union frame: an object whose first field is
    /// `"type": tag`. The shape every control-plane frame in the fleet
    /// protocol uses (handshake, heartbeat, response envelope), decoded
    /// by dispatching on [`JsonValue::tag`].
    pub fn tagged(tag: &str) -> Self {
        Obj::new().field("type", tag)
    }

    /// Appends a field.
    pub fn field(mut self, key: &str, value: impl WireEncode) -> Self {
        self.0.push((key.to_string(), value.encode()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.0)
    }
}

impl JsonValue {
    /// Decodes a required object field, threading the key into error
    /// paths.
    pub fn field<T: WireDecode>(&self, key: &str) -> Result<T, DecodeError> {
        match self {
            JsonValue::Object(_) => match self.get(key) {
                Some(v) => T::decode(v).context(key),
                None => Err(DecodeError::new("missing field").push_segment(key)),
            },
            other => Err(DecodeError::expected("object", other)),
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Result<&[JsonValue], DecodeError> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(DecodeError::expected("array", other)),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, DecodeError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(DecodeError::expected("string", other)),
        }
    }

    /// The discriminant of a tagged-union frame: the object's `"type"`
    /// field, as built by [`Obj::tagged`].
    pub fn tag(&self) -> Result<&str, DecodeError> {
        self.tag_at("type")
    }

    /// The string discriminant under `key` — what a
    /// [`wire_enum!`](crate::wire_enum) decoder dispatches on before
    /// reading the variant's fields.
    pub fn tag_at(&self, key: &str) -> Result<&str, DecodeError> {
        match self {
            JsonValue::Object(_) => match self.get(key) {
                Some(v) => v.as_str().context(key),
                None => Err(DecodeError::new("missing field").push_segment(key)),
            },
            other => Err(DecodeError::expected("object", other)),
        }
    }

    /// Checks that a tagged frame's `"type"` is `tag`, so a frame of one
    /// kind never decodes as another.
    pub fn expect_tag(&self, tag: &str) -> Result<(), DecodeError> {
        match self.tag()? {
            found if found == tag => Ok(()),
            found => Err(
                DecodeError::new(format!("expected a {tag:?} frame, found {found:?}"))
                    .push_segment("type"),
            ),
        }
    }
}

/// Declares a plain struct's wire shape once: generates both
/// [`WireEncode`] and [`WireDecode`] from a single ordered field list,
/// so the two directions cannot drift apart.
///
/// `wire_struct!(Ty { a, b as "b_us" })` encodes an object whose keys
/// are the field names (or the `as` key) in list order, and decodes by
/// reading the same keys back. `wire_struct!(Ty tagged "tag" { .. })`
/// prepends `"type": "tag"` like [`Obj::tagged`], and decode rejects a
/// frame whose `"type"` differs ([`JsonValue::expect_tag`]). Tagged
/// unions of such frames are declared with [`wire_enum!`](crate::wire_enum). Codecs that
/// validate, derive a field, or decode through another type stay
/// hand-written. The crate-level docs have an example.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident $(tagged $tag:literal)? { $($field:ident $(as $key:literal)?),* $(,)? }) => {
        impl $crate::WireEncode for $ty {
            fn encode(&self) -> $crate::JsonValue {
                $crate::Obj::new()
                    $(.field("type", $tag))?
                    $(.field($crate::wire_struct!(@key $field $($key)?), &self.$field))*
                    .build()
            }
        }

        impl $crate::WireDecode for $ty {
            fn decode(v: &$crate::JsonValue) -> Result<Self, $crate::DecodeError> {
                $(v.expect_tag($tag)?;)?
                Ok($ty {
                    $($field: v.field($crate::wire_struct!(@key $field $($key)?))?,)*
                })
            }
        }
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
}

/// Declares a tagged union's wire shape once: generates both
/// [`WireEncode`] and [`WireDecode`] from one variant list, the enum
/// counterpart of [`wire_struct!`].
///
/// `wire_enum!(Ty by "key" { A "a" { x, y }, B "b" (Payload) })`:
/// * an inline-field variant `A` encodes as `"key": "a"` followed by
///   its fields, keyed by name, in list order;
/// * a newtype variant `B` encodes as its payload (`Payload` may be a
///   `Box`), which carries its own tag — a
///   `wire_struct!(… tagged "b" …)` when the key is `"type"`;
/// * decode dispatches on the `"key"` string and rejects an unknown
///   tag with an error naming the enum and the tag.
///
/// The crate-level docs have an example.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident by $key:literal {
        $($variant:ident $tag:literal $({ $($field:ident),+ $(,)? })? $(($payload:ty))?),+ $(,)?
    }) => {
        impl $crate::WireEncode for $ty {
            fn encode(&self) -> $crate::JsonValue {
                match self {
                    $(
                        $($ty::$variant { $($field),+ } => $crate::Obj::new()
                            .field($key, $tag)
                            $(.field(stringify!($field), $field))+
                            .build(),)?
                        $($ty::$variant(payload) => <$payload as $crate::WireEncode>::encode(payload),)?
                    )+
                }
            }
        }

        impl $crate::WireDecode for $ty {
            fn decode(v: &$crate::JsonValue) -> Result<Self, $crate::DecodeError> {
                match v.tag_at($key)? {
                    $(
                        $tag => Ok(
                            $($ty::$variant { $($field: v.field(stringify!($field))?),+ })?
                            $($ty::$variant(<$payload as $crate::WireDecode>::decode(v)?))?
                        ),
                    )+
                    other => Err($crate::DecodeError::new(format!(
                        "unknown {} tag {other:?}",
                        stringify!($ty)
                    ))
                    .push_segment($key)),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------
// Primitive and container impls.
// ---------------------------------------------------------------------

impl WireEncode for bool {
    fn encode(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl WireDecode for bool {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(DecodeError::expected("bool", other)),
        }
    }
}

impl WireEncode for String {
    fn encode(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl WireEncode for str {
    fn encode(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl WireDecode for String {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        v.as_str().map(str::to_string)
    }
}

impl WireEncode for u64 {
    fn encode(&self) -> JsonValue {
        JsonValue::U64(*self)
    }
}

impl WireDecode for u64 {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        match v {
            JsonValue::U64(n) => Ok(*n),
            other => Err(DecodeError::expected("unsigned integer", other)),
        }
    }
}

macro_rules! narrow_unsigned {
    ($($ty:ty),*) => {$(
        impl WireEncode for $ty {
            fn encode(&self) -> JsonValue {
                JsonValue::U64(*self as u64)
            }
        }

        impl WireDecode for $ty {
            fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
                let n = u64::decode(v)?;
                <$ty>::try_from(n).map_err(|_| {
                    DecodeError::new(format!(
                        "{n} out of range for {}",
                        stringify!($ty)
                    ))
                })
            }
        }
    )*};
}

narrow_unsigned!(u8, u16, u32, usize);

impl WireEncode for i64 {
    fn encode(&self) -> JsonValue {
        if *self >= 0 {
            JsonValue::U64(*self as u64)
        } else {
            JsonValue::I64(*self)
        }
    }
}

impl WireDecode for i64 {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        match v {
            JsonValue::U64(n) => {
                i64::try_from(*n).map_err(|_| DecodeError::new(format!("{n} overflows i64")))
            }
            JsonValue::I64(n) => Ok(*n),
            other => Err(DecodeError::expected("integer", other)),
        }
    }
}

impl WireEncode for f64 {
    fn encode(&self) -> JsonValue {
        JsonValue::F64(*self)
    }
}

impl WireDecode for f64 {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        match v {
            JsonValue::F64(x) => Ok(*x),
            JsonValue::U64(n) => Ok(*n as f64),
            JsonValue::I64(n) => Ok(*n as f64),
            other => Err(DecodeError::expected("number", other)),
        }
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(WireEncode::encode).collect())
    }
}

impl<T: WireEncode> WireEncode for [T] {
    fn encode(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(WireEncode::encode).collect())
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        v.as_array()?
            .iter()
            .enumerate()
            // Build the "[i]" segment only on the error path; this runs
            // per element on the coordinator's response-drain hot path.
            .map(|(i, item)| T::decode(item).map_err(|e| e.push_segment(&format!("[{i}]"))))
            .collect()
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self) -> JsonValue {
        match self {
            Some(x) => x.encode(),
            None => JsonValue::Null,
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        match v {
            JsonValue::Null => Ok(None),
            other => T::decode(other).map(Some),
        }
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self) -> JsonValue {
        JsonValue::Array(vec![self.0.encode(), self.1.encode()])
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        let items = v.as_array()?;
        if items.len() != 2 {
            return Err(DecodeError::new(format!(
                "expected 2-element array, found {} elements",
                items.len()
            )));
        }
        Ok((
            A::decode(&items[0]).context("[0]")?,
            B::decode(&items[1]).context("[1]")?,
        ))
    }
}

impl<T: WireEncode + ?Sized> WireEncode for Box<T> {
    fn encode(&self) -> JsonValue {
        (**self).encode()
    }
}

impl<T: WireDecode> WireDecode for Box<T> {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        T::decode(v).map(Box::new)
    }
}

impl WireEncode for JsonValue {
    fn encode(&self) -> JsonValue {
        self.clone()
    }
}

impl WireDecode for JsonValue {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_round_trip(&true);
        assert_round_trip(&0u64);
        assert_round_trip(&u64::MAX);
        assert_round_trip(&42u16);
        assert_round_trip(&(-17i64));
        assert_round_trip(&2.5f64);
        assert_round_trip(&f64::MIN_POSITIVE);
        assert_round_trip(&1e300f64);
        assert_round_trip(&"héllo \"w\u{7}orld\"\n".to_string());
        assert_round_trip(&vec![1u64, 2, 3]);
        assert_round_trip(&Some(5u64));
        assert_round_trip(&(Option::<u64>::None));
        assert_round_trip(&(1.5f64, "x".to_string()));
    }

    #[test]
    fn negative_zero_survives_with_its_sign_bit() {
        let bytes = encode_string(&(-0.0f64));
        assert_eq!(bytes, "-0");
        let back: f64 = decode_string(&bytes).unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn u64_seeds_above_2_53_are_exact() {
        // A mix64-style seed that f64 could not represent.
        let seed = 0xDEAD_BEEF_CAFE_F00Du64;
        let back: u64 = decode_string(&encode_string(&seed)).unwrap();
        assert_eq!(back, seed);
    }

    #[test]
    fn decode_errors_carry_field_paths() {
        #[derive(Debug, PartialEq)]
        struct Inner {
            items: Vec<u64>,
        }
        wire_struct!(Inner { items });
        #[derive(Debug, PartialEq)]
        struct Outer {
            inner: Inner,
        }
        wire_struct!(Outer { inner as "outer" });
        let doc = parse(r#"{"outer":{"items":[1,"two"]}}"#).unwrap();
        let err = Outer::decode(&doc).unwrap_err();
        assert_eq!(err.path, "outer.items[1]");
        assert!(err.msg.contains("expected unsigned integer"));
        assert!(err.to_string().contains("outer.items[1]"));
    }

    #[test]
    fn wire_struct_renders_its_field_list_and_reports_wire_keys() {
        #[derive(Debug, PartialEq)]
        struct Probe {
            name: String,
            timeout: u64,
        }
        wire_struct!(Probe tagged "probe" { name, timeout as "timeout_ms" });

        let probe = Probe {
            name: "p".into(),
            timeout: 250,
        };
        assert_round_trip(&probe);
        assert_eq!(
            encode_string(&probe),
            r#"{"type":"probe","name":"p","timeout_ms":250}"#
        );
        let missing = decode_string::<Probe>(r#"{"type":"probe","name":"p","timeout":250}"#);
        let Err(WireError::Decode(e)) = missing else {
            panic!("decoded without its wire key: {missing:?}");
        };
        assert_eq!(
            (e.path.as_str(), e.msg.as_str()),
            ("timeout_ms", "missing field")
        );
        let mistyped = decode_string::<Probe>(r#"{"type":"probe","name":"p","timeout_ms":"soon"}"#);
        let Err(WireError::Decode(e)) = mistyped else {
            panic!("decoded a string as u64: {mistyped:?}");
        };
        assert_eq!(e.path, "timeout_ms");
        assert!(e.msg.contains("expected unsigned integer"), "{e}");
        let retagged = decode_string::<Probe>(r#"{"type":"sample","name":"p","timeout_ms":250}"#);
        let Err(WireError::Decode(e)) = retagged else {
            panic!("decoded another frame type: {retagged:?}");
        };
        assert_eq!(e.path, "type");
        assert_eq!(e.msg, r#"expected a "probe" frame, found "sample""#);
    }

    #[test]
    fn frames_are_single_lines() {
        let frame = encode_line(&"two\nlines".to_string());
        assert_eq!(frame.matches('\n').count(), 1);
        assert!(frame.ends_with('\n'));
        let back: String = decode_line(&frame).unwrap();
        assert_eq!(back, "two\nlines");
    }

    #[test]
    fn tagged_frames_expose_their_discriminant() {
        let frame = Obj::tagged("heartbeat").field("busy", 3u64).build();
        assert_eq!(frame.render(), r#"{"type":"heartbeat","busy":3}"#);
        assert_eq!(frame.tag().unwrap(), "heartbeat");

        let untagged = Obj::new().field("busy", 3u64).build();
        let err = untagged.tag().unwrap_err();
        assert_eq!(err.path, "type");
        assert!(JsonValue::Null.tag().is_err());
    }

    #[test]
    fn wire_error_distinguishes_parse_from_decode() {
        assert!(matches!(
            decode_string::<u64>("not json"),
            Err(WireError::Parse(_))
        ));
        assert!(matches!(
            decode_string::<u64>("\"str\""),
            Err(WireError::Decode(_))
        ));
    }
}
