//! Trace exporter: Chrome `trace_event` JSON.
//!
//! The workspace builds without serde, so the writer emits JSON by
//! hand; the grammar used (string keys, integer/float values, flat
//! `args` objects) is small enough that escaping names (through
//! [`crate::json::escape`]) is the only subtlety.
//!
//! The Chrome format is the ["Trace Event Format"] consumed by
//! `chrome://tracing` and Perfetto: an object with a `traceEvents`
//! array of complete events (`ph:"X"`, microsecond `ts`/`dur`), counter
//! events (`ph:"C"`), and instant events (`ph:"i"`).
//!
//! ["Trace Event Format"]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::escape;
use crate::{Event, EventKind};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

fn write_args(json: &mut String, args: &[(&'static str, u64)]) {
    json.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{}\":{v}", escape(k));
    }
    json.push('}');
}

/// Renders events as a Chrome `trace_event`-format JSON document.
/// Timestamps convert from nanoseconds to the format's microseconds
/// with fractional precision preserved.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut json = String::with_capacity(events.len() * 96 + 128);
    json.push_str("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let ts = e.start_ns as f64 / 1_000.0;
        match e.kind {
            EventKind::Span => {
                let dur = e.dur_ns as f64 / 1_000.0;
                let _ = write!(
                    json,
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":",
                    escape(&e.name),
                    e.tid,
                );
                write_args(&mut json, &e.args);
                json.push('}');
            }
            EventKind::Counter => {
                let _ = write!(
                    json,
                    "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":1,\"ts\":{ts:.3},\"args\":",
                    escape(&e.name),
                );
                write_args(&mut json, &e.args);
                json.push('}');
            }
            EventKind::Mark => {
                let _ = write!(
                    json,
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"args\":",
                    escape(&e.name),
                    e.tid,
                );
                write_args(&mut json, &e.args);
                json.push('}');
            }
        }
    }
    json.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    json
}

/// Writes [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: &Path, events: &[Event]) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event {
                name: "mpc.round:fjlt \"wht\"".into(),
                kind: EventKind::Span,
                tid: 3,
                start_ns: 1_500,
                dur_ns: 2_000,
                depth: 1,
                args: vec![("sent_words", 10), ("round", 0)],
            },
            Event {
                name: "exec.tasks".into(),
                kind: EventKind::Counter,
                tid: 1,
                start_ns: 4_000,
                dur_ns: 0,
                depth: 0,
                args: vec![("value", 99)],
            },
            Event {
                name: "round.accounted".into(),
                kind: EventKind::Mark,
                tid: 1,
                start_ns: 5_000,
                dur_ns: 0,
                depth: 0,
                args: vec![],
            },
        ]
    }

    fn assert_valid_json(s: &str) {
        if let Err(e) = crate::json::parse(s) {
            panic!("invalid JSON ({e}): {s}");
        }
    }

    #[test]
    fn chrome_trace_has_expected_phases_and_balances() {
        let json = chrome_trace_json(&sample());
        assert_valid_json(&json);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"i\""));
        // ns -> us conversion: 1500 ns = 1.5 us, 2000 ns = 2 us.
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("\"sent_words\":10"));
        // The quote inside the span name must be escaped.
        assert!(json.contains("mpc.round:fjlt \\\"wht\\\""));
    }

    #[test]
    fn empty_event_list_still_valid() {
        let json = chrome_trace_json(&[]);
        assert_valid_json(&json);
        assert!(json.contains("\"traceEvents\":[\n\n]"));
    }

    #[test]
    fn control_characters_escape() {
        let e = Event {
            name: "bad\nname\u{1}".into(),
            kind: EventKind::Span,
            tid: 1,
            start_ns: 0,
            dur_ns: 1,
            depth: 0,
            args: vec![],
        };
        let json = chrome_trace_json(&[e]);
        assert_valid_json(&json);
        assert!(json.contains("bad\\nname\\u0001"));
    }
}
