//! Wire-codec impls for workload descriptions.
//!
//! A [`LoadShape`] is the load half of a fleet scenario, so it must
//! cross the coordinator→worker boundary intact — including a full
//! [`ReplayTrace`], whose recorded arrival offsets ship verbatim so
//! every shard can re-run an identical incident. Shapes travel as
//! tagged objects (`{"shape":"steady",...}`); benchmarks by display
//! name, decoded by lookup in [`crate::apps::ALL_BENCHMARKS`].

use firm_sim::SimDuration;
use firm_wire::{wire_enum, DecodeError, JsonValue, Obj, WireDecode, WireEncode};

use crate::apps::{Benchmark, ALL_BENCHMARKS};
use crate::generator::{LoadShape, ReplayTrace};

// Hand-written (not `wire_enum!`): a label enum travels as a bare
// string, decoded by lookup in `ALL_BENCHMARKS`.
impl WireEncode for Benchmark {
    fn encode(&self) -> JsonValue {
        JsonValue::Str(self.name().to_string())
    }
}

impl WireDecode for Benchmark {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        let name = v.as_str()?;
        ALL_BENCHMARKS
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| DecodeError::new(format!("unknown benchmark {name:?}")))
    }
}

// Hand-written: private fields behind accessors, and decode re-validates
// the constructor contract.
impl WireEncode for ReplayTrace {
    fn encode(&self) -> JsonValue {
        Obj::new()
            .field("offsets_us", self.offsets_us())
            .field("span_us", self.span().as_micros())
            .build()
    }
}

impl WireDecode for ReplayTrace {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        let offsets: Vec<u64> = v.field("offsets_us")?;
        let span_us: u64 = v.field("span_us")?;
        // Re-validate the constructor contract here so malformed input
        // is a decode error, never a panic.
        if offsets.is_empty() {
            return Err(DecodeError::new("replay trace has no arrivals").push_segment("offsets_us"));
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(
                DecodeError::new("replay offsets must be nondecreasing").push_segment("offsets_us")
            );
        }
        if span_us == 0 || span_us < *offsets.last().expect("non-empty") {
            return Err(
                DecodeError::new("span must be positive and cover the last arrival")
                    .push_segment("span_us"),
            );
        }
        Ok(ReplayTrace::from_offsets(
            offsets,
            SimDuration::from_micros(span_us),
        ))
    }
}

wire_enum!(LoadShape by "shape" {
    Steady "steady" { rate },
    Diurnal "diurnal" { base, amplitude, period_secs },
    FlashCrowd "flash-crowd" { base, multiplier, every_secs, crest_secs },
    Replay "replay" { trace },
});

#[cfg(test)]
mod tests {
    use super::*;
    use firm_wire::{assert_round_trip, decode_string, encode_string};

    #[test]
    fn benchmarks_round_trip_by_name() {
        for b in ALL_BENCHMARKS {
            assert_round_trip(&b);
        }
        assert!(Benchmark::decode(&JsonValue::Str("Unknown App".into())).is_err());
    }

    #[test]
    fn every_load_shape_round_trips() {
        let trace = ReplayTrace::synthesize(
            &LoadShape::FlashCrowd {
                base: 120.0,
                multiplier: 3.0,
                every_secs: 10,
                crest_secs: 2,
            },
            SimDuration::from_secs(5),
            9,
        );
        for shape in [
            LoadShape::Steady { rate: 250.0 },
            LoadShape::Diurnal {
                base: 200.0,
                amplitude: 0.4,
                period_secs: 40,
            },
            LoadShape::FlashCrowd {
                base: 150.0,
                multiplier: 3.0,
                every_secs: 20,
                crest_secs: 5,
            },
            LoadShape::Replay { trace },
        ] {
            assert_round_trip(&shape);
        }
    }

    #[test]
    fn every_load_shape_has_a_golden_frame() {
        let trace =
            ReplayTrace::from_offsets(vec![10, 20, 20, 999], SimDuration::from_micros(1_000));
        for (shape, golden) in [
            (
                LoadShape::Steady { rate: 250.0 },
                r#"{"shape":"steady","rate":250}"#,
            ),
            (
                LoadShape::Diurnal {
                    base: 200.0,
                    amplitude: 0.4,
                    period_secs: 40,
                },
                r#"{"shape":"diurnal","base":200,"amplitude":0.4,"period_secs":40}"#,
            ),
            (
                LoadShape::FlashCrowd {
                    base: 150.5,
                    multiplier: 3.0,
                    every_secs: 20,
                    crest_secs: 5,
                },
                r#"{"shape":"flash-crowd","base":150.5,"multiplier":3,"every_secs":20,"crest_secs":5}"#,
            ),
            (
                LoadShape::Replay { trace },
                r#"{"shape":"replay","trace":{"offsets_us":[10,20,20,999],"span_us":1000}}"#,
            ),
        ] {
            assert_eq!(encode_string(&shape), golden);
        }
    }

    #[test]
    fn replay_traces_ship_their_offsets_verbatim() {
        let trace =
            ReplayTrace::from_offsets(vec![10, 20, 20, 999], SimDuration::from_micros(1_000));
        let back: ReplayTrace = decode_string(&encode_string(&trace)).unwrap();
        assert_eq!(back.offsets_us(), trace.offsets_us());
        assert_eq!(back.span(), trace.span());
    }

    #[test]
    fn malformed_traces_decode_to_errors_not_panics() {
        for bad in [
            r#"{"offsets_us":[],"span_us":10}"#,
            r#"{"offsets_us":[5,3],"span_us":10}"#,
            r#"{"offsets_us":[5],"span_us":0}"#,
            r#"{"offsets_us":[5],"span_us":4}"#,
        ] {
            assert!(decode_string::<ReplayTrace>(bad).is_err(), "{bad} decoded");
        }
    }

    #[test]
    fn unknown_shape_tags_are_rejected_with_a_path() {
        let err = decode_string::<LoadShape>(r#"{"shape":"square-wave"}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"decode error at `shape`: unknown LoadShape tag "square-wave""#
        );
    }
}
