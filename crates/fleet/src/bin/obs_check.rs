//! `obs-check` — parse-or-fail validator for `--obs-out` JSONL files.
//!
//! Every line an observability export contains must be a firm-wire
//! frame this workspace can decode: a structured `event`, a `metrics`
//! snapshot, or a fleet `ops_report`. CI runs this over the smoke
//! fleet's export so a frame-format regression fails the build instead
//! of silently producing artifacts nothing can read.
//!
//! ```sh
//! obs-check obs.jsonl
//! ```
//!
//! Exits 0 and prints per-tag counts when every line decodes; exits 1
//! with the offending line number and decode error otherwise.

use std::io::Write;
use std::process::ExitCode;

use firm_fleet::OpsReport;
use firm_obs::{Event, MetricsSnapshot};
use firm_wire::{decode_string, wire_enum};

/// One line of an observability export.
#[derive(Debug, PartialEq)]
enum ObsFrame {
    Event(Event),
    Metrics(MetricsSnapshot),
    OpsReport(OpsReport),
}

wire_enum!(ObsFrame by "type" {
    Event "event" (Event),
    Metrics "metrics" (MetricsSnapshot),
    OpsReport "ops_report" (OpsReport),
});

fn main() -> ExitCode {
    let mut paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.first().is_some_and(|a| a == "--help" || a == "-h") {
        println!("usage: obs-check FILE.jsonl [FILE.jsonl ...]");
        println!("validates that every line is a decodable firm-wire obs frame");
        return ExitCode::SUCCESS;
    }
    if paths.is_empty() {
        paths.push("obs.jsonl".to_string());
    }

    let mut failed = false;
    for path in &paths {
        let contents = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                let _ = writeln!(std::io::stderr(), "obs-check: {path}: {e}");
                failed = true;
                continue;
            }
        };
        let mut events = 0u64;
        let mut metrics = 0u64;
        let mut ops_reports = 0u64;
        let mut bad = 0u64;
        for (i, line) in contents.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match decode_string(line) {
                Ok(ObsFrame::Event(_)) => events += 1,
                Ok(ObsFrame::Metrics(_)) => metrics += 1,
                Ok(ObsFrame::OpsReport(_)) => ops_reports += 1,
                Err(e) => {
                    let _ = writeln!(
                        std::io::stderr(),
                        "obs-check: {path}:{}: not an obs frame: {e}",
                        i + 1
                    );
                    bad += 1;
                }
            }
        }
        let total = events + metrics + ops_reports;
        if bad > 0 || total == 0 {
            let _ = writeln!(
                std::io::stderr(),
                "obs-check: {path}: FAIL ({bad} bad line(s), {total} valid frame(s))"
            );
            failed = true;
        } else {
            println!(
                "obs-check: {path}: ok — {events} event(s), {metrics} metrics \
                 snapshot(s), {ops_reports} ops report(s)"
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_obs::{FieldValue, Level};

    /// Each frame kind decodes to its variant and renders back to the
    /// line it came from; a frame of another type is refused by name.
    #[test]
    fn obs_frames_decode_by_type_and_render_back() {
        let event = Event {
            ts_us: 5,
            level: Level::Warn,
            target: "fleet supervisor".into(),
            pid: 7,
            thread: 0,
            message: "recycled".into(),
            fields: vec![("attempts".into(), FieldValue::U64(1))],
        };
        let snapshot = firm_obs::metrics().snapshot();
        let lines = [
            firm_wire::encode_line(&event),
            firm_wire::encode_line(&snapshot),
            firm_wire::encode_line(&OpsReport::new(snapshot.clone(), Vec::new())),
        ];
        let frames: Vec<ObsFrame> = lines
            .iter()
            .map(|line| firm_wire::decode_line(line).expect("obs frame decodes"))
            .collect();
        assert_eq!(frames[0], ObsFrame::Event(event));
        assert_eq!(frames[1], ObsFrame::Metrics(snapshot));
        assert!(matches!(frames[2], ObsFrame::OpsReport(_)));
        for (line, frame) in lines.iter().zip(&frames) {
            assert_eq!(&firm_wire::encode_line(frame), line);
        }
        let err = decode_string::<ObsFrame>(r#"{"type":"hello"}"#).expect_err("not obs");
        assert!(
            err.to_string().contains(r#"unknown ObsFrame tag "hello""#),
            "{err}"
        );
    }
}
