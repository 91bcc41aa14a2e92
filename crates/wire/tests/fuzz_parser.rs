//! Seeded-sweep fuzzing of the JSON parser: truncations, byte flips,
//! random garbage, and pathological nesting. The invariant under test
//! is *total safety*, not acceptance — every input either parses or
//! returns a [`firm_wire::ParseError`] with a position inside the
//! input; nothing panics, loops, or overflows the stack.
//!
//! Deterministic by construction (xoshiro256++ from fixed seeds), so a
//! failure reproduces byte-for-byte.

use firm_rng::Xoshiro256;
use firm_wire::{parse, JsonValue};

/// Feeds an input through the parser and checks the error contract.
fn probe(input: &str) {
    match parse(input) {
        Ok(_) => {}
        Err(e) => {
            assert!(
                e.pos <= input.len(),
                "error position {} outside input of {} bytes",
                e.pos,
                input.len()
            );
            assert!(e.line >= 1 && e.col >= 1, "unpinned error {e}");
            assert!(!e.msg.is_empty());
        }
    }
}

/// Generates a random valid-ish document for mutation fodder.
fn gen_doc(rng: &mut Xoshiro256, depth: usize) -> JsonValue {
    match if depth >= 4 {
        rng.next_below(6)
    } else {
        rng.next_below(8)
    } {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.next_u64().is_multiple_of(2)),
        2 => JsonValue::U64(rng.next_u64()),
        3 => JsonValue::I64(-((rng.next_u64() >> 1) as i64)),
        4 => JsonValue::F64((rng.uniform() - 0.5) * 1e6),
        5 => {
            let mut s = String::new();
            for _ in 0..rng.next_below(12) {
                // Bias toward hostile characters.
                let c = match rng.next_below(6) {
                    0 => '"',
                    1 => '\\',
                    2 => char::from_u32(rng.next_below(0x20) as u32).unwrap(),
                    3 => '\u{1f600}',
                    _ => char::from_u32(0x20 + rng.next_below(0x5e) as u32).unwrap(),
                };
                s.push(c);
            }
            JsonValue::Str(s)
        }
        6 => JsonValue::Array(
            (0..rng.next_below(4))
                .map(|_| gen_doc(rng, depth + 1))
                .collect(),
        ),
        _ => JsonValue::Object(
            (0..rng.next_below(4))
                .map(|i| (format!("k{i}"), gen_doc(rng, depth + 1)))
                .collect(),
        ),
    }
}

#[test]
fn truncations_of_valid_documents_never_panic() {
    let mut rng = Xoshiro256::new(0xF022_7256);
    for _ in 0..64 {
        let doc = gen_doc(&mut rng, 0).render();
        for end in 0..doc.len() {
            if doc.is_char_boundary(end) {
                probe(&doc[..end]);
            }
        }
    }
}

#[test]
fn byte_flips_of_valid_documents_never_panic() {
    let mut rng = Xoshiro256::new(0xB17F_11B5);
    for _ in 0..64 {
        let doc = gen_doc(&mut rng, 0).render();
        let bytes = doc.as_bytes().to_vec();
        for _ in 0..200 {
            let mut mutated = bytes.clone();
            let i = rng.next_below(mutated.len() as u64) as usize;
            mutated[i] ^= (1 << rng.next_below(8)) as u8;
            // Mutation may break UTF-8; the parser only takes &str, so
            // lossy-decode first (the process boundary does the same).
            let text = String::from_utf8_lossy(&mutated);
            probe(&text);
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = Xoshiro256::new(0x6A5B_A6E5);
    let alphabet: Vec<char> = "{}[]\",:.\\u0123456789eE+-truefalsn \t\n\u{1f600}"
        .chars()
        .collect();
    for _ in 0..2_000 {
        let len = rng.next_below(64) as usize;
        let garbage: String = (0..len)
            .map(|_| alphabet[rng.next_below(alphabet.len() as u64) as usize])
            .collect();
        probe(&garbage);
    }
}

#[test]
fn deep_nesting_is_rejected_with_a_position() {
    for pattern in ["[", "{\"k\":", "[[{\"a\":["] {
        let deep = pattern.repeat(200_000 / pattern.len());
        let err = parse(&deep).expect_err("unbounded nesting accepted");
        assert!(err.pos <= deep.len());
        assert!(err.msg.contains("nesting"), "{err}");
    }
}

#[test]
fn valid_generated_documents_always_reparse() {
    let mut rng = Xoshiro256::new(0x5EED_CAFE);
    for _ in 0..256 {
        let doc = gen_doc(&mut rng, 0);
        let rendered = doc.render();
        let reparsed = parse(&rendered)
            .unwrap_or_else(|e| panic!("generated doc failed to reparse: {e}\n{rendered}"));
        // Fixed point: rendering the reparse gives identical bytes.
        assert_eq!(reparsed.render(), rendered);
    }
}
