//! Wire-codec impls for the simulator's plain-data types.
//!
//! Durations travel as integer microseconds (the simulator's native
//! unit, so the round trip is exact); identifiers as their raw
//! integers; anomaly kinds as their report labels, decoded by lookup in
//! [`crate::anomaly::ANOMALY_KINDS`].

use firm_wire::{DecodeError, JsonValue, WireDecode, WireEncode};

use crate::anomaly::{AnomalyKind, ANOMALY_KINDS};
use crate::ids::{InstanceId, NodeId, ServiceId};
use crate::time::SimDuration;

// Hand-written (not `wire_struct!`): a newtype travels as its bare
// integer, not as an object.
impl WireEncode for SimDuration {
    fn encode(&self) -> JsonValue {
        JsonValue::U64(self.as_micros())
    }
}

impl WireDecode for SimDuration {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        Ok(SimDuration::from_micros(u64::decode(v)?))
    }
}

// Newtype ids, likewise bare integers.
macro_rules! wire_id {
    ($($ty:ident => $raw:ty),*) => {$(
        impl WireEncode for $ty {
            fn encode(&self) -> JsonValue {
                JsonValue::U64(self.raw() as u64)
            }
        }

        impl WireDecode for $ty {
            fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
                Ok($ty(<$raw>::decode(v)?))
            }
        }
    )*};
}

wire_id!(NodeId => u16, ServiceId => u16, InstanceId => u32);

// Hand-written (not `wire_enum!`): a label enum travels as a bare
// string, decoded by lookup in `ANOMALY_KINDS`.
impl WireEncode for AnomalyKind {
    fn encode(&self) -> JsonValue {
        JsonValue::Str(self.label().to_string())
    }
}

impl WireDecode for AnomalyKind {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        let label = v.as_str()?;
        ANOMALY_KINDS
            .into_iter()
            .find(|k| k.label() == label)
            .ok_or_else(|| DecodeError::new(format!("unknown anomaly kind {label:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_wire::assert_round_trip;

    #[test]
    fn durations_round_trip_exactly() {
        for us in [0u64, 1, 999_999, 30_000_000, u64::MAX / 2] {
            assert_round_trip(&SimDuration::from_micros(us));
        }
    }

    #[test]
    fn ids_round_trip_and_reject_out_of_range() {
        assert_round_trip(&NodeId(7));
        assert_round_trip(&ServiceId(u16::MAX));
        assert_round_trip(&InstanceId(u32::MAX));
        assert!(NodeId::decode(&JsonValue::U64(1 << 20)).is_err());
    }

    #[test]
    fn every_anomaly_kind_round_trips_by_label() {
        for kind in ANOMALY_KINDS {
            assert_round_trip(&kind);
        }
        assert!(AnomalyKind::decode(&JsonValue::Str("nonesuch".into())).is_err());
    }
}
