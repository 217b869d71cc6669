//! Exporter round-trip tests: capture a real span/counter/mark trace,
//! render it as a Chrome `trace_event` document, parse it back with a
//! real JSON parser, and check it describes the recorded trace — same
//! event count, same names, same span nesting. The unit tests in
//! `src/export.rs` check string shape; these check the document as
//! *data*.
//!
//! The document is read back through the workspace codec,
//! [`treeemb_obs::json`].

use std::sync::Mutex;
use treeemb_obs::json::{self, Value};
use treeemb_obs::{self as obs, export, Event, EventKind};

/// Capture buffer and trace path are process-global; serialize the
/// tests that touch them.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn parse(text: &str) -> Value {
    json::parse(text).unwrap_or_else(|e| panic!("document must parse: {e}"))
}

// ---------------------------------------------------------------------
// Trace capture and the round-trip checks.
// ---------------------------------------------------------------------

/// Records a small but structurally rich trace: two levels of span
/// nesting, a mark inside the inner span, a counter, and a name that
/// needs escaping.
fn record_sample() -> Vec<Event> {
    obs::capture_start();
    {
        let mut outer = obs::span!("roundtrip.outer", "n" = 3);
        {
            let mut inner = obs::span!("roundtrip.inner \"q\"");
            inner.arg("k", 1);
            obs::mark("roundtrip.mark", &[("round", 2), ("attempt", 0)]);
        }
        obs::counter("roundtrip.counter", 7);
        outer.arg("done", 1);
    }
    obs::capture_stop();
    let events = obs::drain();
    assert!(
        events.len() >= 4,
        "expected spans+mark+counter, got {events:?}"
    );
    events
}

fn phase_of(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Span => "X",
        EventKind::Counter => "C",
        EventKind::Mark => "i",
    }
}

#[test]
fn chrome_trace_round_trips_through_a_real_parser() {
    let _guard = TEST_LOCK.lock().unwrap();
    let events = record_sample();
    let doc = parse(&export::chrome_trace_json(&events));
    let rows = doc
        .get("traceEvents")
        .expect("traceEvents key")
        .as_arr()
        .expect("traceEvents is an array");
    assert_eq!(rows.len(), events.len(), "one trace row per event");
    for (row, event) in rows.iter().zip(&events) {
        assert_eq!(row.get("name").unwrap().as_str(), Some(&*event.name));
        assert_eq!(row.get("ph").unwrap().as_str(), Some(phase_of(event.kind)));
        let ts = row.get("ts").unwrap().as_f64().unwrap();
        assert!(
            (ts - event.start_ns as f64 / 1_000.0).abs() < 1e-3,
            "ts must be the microsecond start"
        );
        if event.kind == EventKind::Span {
            let dur = row.get("dur").unwrap().as_f64().unwrap();
            assert!((dur - event.dur_ns as f64 / 1_000.0).abs() < 1e-3);
        }
        // args survive as a flat object of integers.
        for (k, v) in &event.args {
            let got = row.get("args").unwrap().get(k).and_then(Value::as_f64);
            assert_eq!(got, Some(*v as f64), "arg {k} on {}", event.name);
        }
    }
}

/// The Chrome document must tell the recorded story: the same events
/// in the same order with the same names, the same span count, and
/// interval containment wherever the recorded `depth` says a span is
/// nested one level deeper.
#[test]
fn exporters_agree_on_span_counts_and_nesting() {
    let _guard = TEST_LOCK.lock().unwrap();
    let events = record_sample();
    let chrome = parse(&export::chrome_trace_json(&events));
    let chrome_rows = chrome.get("traceEvents").unwrap().as_arr().unwrap();

    // Same events, same order, same names.
    assert_eq!(chrome_rows.len(), events.len());
    for (c, e) in chrome_rows.iter().zip(&events) {
        assert_eq!(c.get("name").unwrap().as_str(), Some(&*e.name));
    }

    // Same span count.
    let chrome_spans: Vec<&Value> = chrome_rows
        .iter()
        .filter(|r| r.get("ph").unwrap().as_str() == Some("X"))
        .collect();
    let spans: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .collect();
    assert_eq!(chrome_spans.len(), spans.len());
    assert!(spans.len() >= 2, "sample must contain nested spans");

    // Nesting agreement: find the inner/outer pair by name. The
    // recorded events put inner one level deeper; the Chrome intervals
    // must show containment (inner within outer).
    let event = |name: &str| -> &Event {
        spans
            .iter()
            .find(|e| e.name.starts_with(name))
            .unwrap_or_else(|| panic!("span {name} missing"))
    };
    let row = |name: &str| -> &Value {
        chrome_spans
            .iter()
            .find(|r| {
                r.get("name")
                    .unwrap()
                    .as_str()
                    .is_some_and(|n| n.starts_with(name))
            })
            .unwrap_or_else(|| panic!("span {name} missing"))
    };
    assert_eq!(
        event("roundtrip.inner").depth,
        event("roundtrip.outer").depth + 1,
        "the inner span must be recorded one level deeper"
    );
    let span_of = |r: &Value| -> (f64, f64) {
        let ts = r.get("ts").unwrap().as_f64().unwrap();
        (ts, ts + r.get("dur").unwrap().as_f64().unwrap())
    };
    let (outer_start, outer_end) = span_of(row("roundtrip.outer"));
    let (inner_start, inner_end) = span_of(row("roundtrip.inner"));
    assert!(
        outer_start <= inner_start && inner_end <= outer_end,
        "Chrome intervals must show the same containment \
         (outer [{outer_start}, {outer_end}], inner [{inner_start}, {inner_end}])"
    );
}

/// The file writer emits the same bytes the string renderer produces.
#[test]
fn file_writers_match_string_renderers() {
    let _guard = TEST_LOCK.lock().unwrap();
    let events = record_sample();
    let dir = std::env::temp_dir();
    let chrome_path = dir.join("treeemb_obs_roundtrip_trace.json");
    export::write_chrome_trace(&chrome_path, &events).expect("chrome write");
    assert_eq!(
        std::fs::read_to_string(&chrome_path).unwrap(),
        export::chrome_trace_json(&events)
    );
    let _ = std::fs::remove_file(chrome_path);
}
