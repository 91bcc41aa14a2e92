//! Wire-codec impls for the simulator's plain-data types, each a
//! [`wire_as!`] declaration: durations travel as integer microseconds
//! (the simulator's native unit, so the round trip is exact);
//! identifiers as their raw integers; anomaly kinds as their report
//! labels, decoded by lookup in [`ANOMALY_KINDS`].

use firm_wire::wire_as;

use crate::anomaly::{AnomalyKind, ANOMALY_KINDS};
use crate::ids::{InstanceId, NodeId, ServiceId};
use crate::time::SimDuration;

wire_as!(SimDuration as u64 by as_micros, SimDuration::from_micros);
wire_as!(NodeId as u16 by raw, NodeId);
wire_as!(ServiceId as u16 by raw, ServiceId);
wire_as!(InstanceId as u32 by raw, InstanceId);
wire_as!(AnomalyKind by label in ANOMALY_KINDS);

#[cfg(test)]
mod tests {
    use super::*;
    use firm_wire::{assert_round_trip, encode_string, JsonValue, WireDecode};

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
        let err = AnomalyKind::decode(&JsonValue::Str("nonesuch".into())).unwrap_err();
        assert_eq!(err.msg, r#"unknown AnomalyKind label "nonesuch""#);
    }

    #[test]
    fn bare_values_match_their_goldens() {
        assert_eq!(
            encode_string(&SimDuration::from_micros(2_500_000)),
            "2500000"
        );
        assert_eq!(encode_string(&NodeId(7)), "7");
        assert_eq!(encode_string(&ServiceId(u16::MAX)), "65535");
        assert_eq!(encode_string(&InstanceId(70_000)), "70000");
        assert_eq!(
            encode_string(&AnomalyKind::MemBwStress),
            r#""Memory Bandwidth""#
        );
    }
}
