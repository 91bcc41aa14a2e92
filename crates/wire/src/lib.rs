//! # firm-wire — the workspace's symmetric wire codec
//!
//! Everything that crosses a process boundary in the FIRM reproduction
//! — scenarios in, outcomes and experience out, policy checkpoints both
//! ways — moves through this crate. It replaces the old one-way
//! `to_json` string formatting with a symmetric, trait-based API:
//!
//! * [`JsonValue`] — a small owned document model with deterministic
//!   rendering (insertion-ordered objects, shortest round-trip floats,
//!   exact full-range `u64` integers);
//! * [`mod@parse`] — a hand-rolled recursive-descent JSON parser with
//!   spanned errors ([`ParseError`] carries byte offset, line, and
//!   column) and a nesting-depth cap so malformed or hostile input
//!   returns `Err` instead of panicking;
//! * [`WireEncode`] / [`WireDecode`] — the codec traits, with the
//!   round-trip contract `decode(encode(x)) == x` checked by
//!   [`assert_round_trip`] in every owning crate; a plain struct
//!   declares its shape once through [`wire_struct!`], which generates
//!   both halves from one field list (a field may decode `via` another
//!   type, and a `method()` entry renders a derived value in place), a
//!   tagged union through [`wire_enum!`], which dispatches on its tag,
//!   and a type carried as one bare value — a label enum as its label,
//!   a newtype as its integer — through [`wire_as!`];
//! * [`encode_line`] / [`decode_line`] — newline-delimited frames for
//!   the fleet's subprocess worker protocol (the escaper guarantees a
//!   rendered document never contains a raw newline).
//!
//! No external dependencies, consistent with the workspace's
//! offline-build rule.
//!
//! Everything public here is documented and `#![warn(missing_docs)]`
//! keeps it that way — this crate and `firm-fleet` are the two whose
//! public surface *is* the deployment contract (frames on real
//! sockets), so an undocumented item is an operator-facing hole.
//!
//! # Example
//!
//! ```
//! use firm_wire::{decode_string, encode_string, wire_enum, wire_struct};
//!
//! #[derive(Debug, PartialEq)]
//! struct Sample {
//!     seed: u64,
//!     window: u64,
//! }
//! wire_struct!(Sample tagged "sample" { seed, window as "window_us" });
//!
//! let x = Sample { seed: u64::MAX, window: 250 };
//! let bytes = encode_string(&x);
//! assert_eq!(bytes, r#"{"type":"sample","seed":18446744073709551615,"window_us":250}"#);
//! assert_eq!(decode_string::<Sample>(&bytes).unwrap(), x);
//!
//! #[derive(Debug, PartialEq)]
//! enum Frame {
//!     Sample(Sample),
//!     Stop { code: u64 },
//! }
//! wire_enum!(Frame by "type" { Sample "sample" (Sample), Stop "stop" { code } });
//!
//! assert_eq!(decode_string::<Frame>(&bytes).unwrap(), Frame::Sample(x));
//! assert_eq!(encode_string(&Frame::Stop { code: 2 }), r#"{"type":"stop","code":2}"#);
//! assert!(decode_string::<Frame>(r#"{"type":"halt"}"#).is_err());
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod parse;
pub mod value;

pub use codec::{
    assert_round_trip, decode_line, decode_string, encode_line, encode_string, Context,
    DecodeError, Obj, WireDecode, WireEncode, WireError,
};
pub use parse::{parse, ParseError, MAX_DEPTH};
pub use value::{escape_into, JsonValue};

/// FNV-1a 64 offset basis — shared by [`fnv64`] and the streaming
/// digest sink behind [`JsonValue::render_fnv64`], so the two can
/// never drift apart.
pub(crate) const FNV64_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime (see [`FNV64_OFFSET_BASIS`]).
pub(crate) const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a 64 state.
pub(crate) fn fnv64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(FNV64_PRIME);
    }
    hash
}

/// FNV-1a 64 over a byte string — the workspace's cheap fingerprint for
/// bit-identity checks on rendered wire documents.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_update(FNV64_OFFSET_BASIS, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn render_parse_render_is_a_fixed_point() {
        let doc = JsonValue::Object(vec![
            ("name".into(), JsonValue::Str("tab\there \u{1f600}".into())),
            ("seed".into(), JsonValue::U64(u64::MAX)),
            ("rate".into(), JsonValue::F64(0.1)),
            (
                "nested".into(),
                JsonValue::Array(vec![JsonValue::Null, JsonValue::F64(-0.0)]),
            ),
        ]);
        let once = doc.render();
        let twice = parse(&once).unwrap().render();
        assert_eq!(once, twice);
    }
}
