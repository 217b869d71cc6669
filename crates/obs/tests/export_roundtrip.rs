//! Exporter round-trip tests: capture a real span/counter/mark trace,
//! render it with both exporters (Chrome `trace_event` JSON and JSONL),
//! parse both back with a real JSON parser, and check the two documents
//! describe the same trace — same event count, same names, same span
//! nesting. The unit tests in `src/export.rs` check string shape; these
//! check the documents as *data*.
//!
//! Both documents are read back through the workspace codec,
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

fn kind_word(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Span => "span",
        EventKind::Counter => "counter",
        EventKind::Mark => "mark",
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

#[test]
fn jsonl_round_trips_through_a_real_parser() {
    let _guard = TEST_LOCK.lock().unwrap();
    let events = record_sample();
    let text = export::jsonl(&events);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), events.len(), "one line per event");
    for (line, event) in lines.iter().zip(&events) {
        let row = parse(line);
        assert_eq!(row.get("name").unwrap().as_str(), Some(&*event.name));
        assert_eq!(
            row.get("kind").unwrap().as_str(),
            Some(kind_word(event.kind))
        );
        assert_eq!(
            row.get("start_ns").unwrap().as_f64(),
            Some(event.start_ns as f64)
        );
        assert_eq!(
            row.get("dur_ns").unwrap().as_f64(),
            Some(event.dur_ns as f64)
        );
        assert_eq!(row.get("depth").unwrap().as_f64(), Some(event.depth as f64));
    }
}

/// The two exporters must tell the same story: same span count, same
/// names in the same order, and nesting that agrees — JSONL's explicit
/// `depth` must match interval containment in the Chrome document.
#[test]
fn exporters_agree_on_span_counts_and_nesting() {
    let _guard = TEST_LOCK.lock().unwrap();
    let events = record_sample();
    let chrome = parse(&export::chrome_trace_json(&events));
    let chrome_rows = chrome.get("traceEvents").unwrap().as_arr().unwrap();
    let jsonl_text = export::jsonl(&events);
    let jsonl_rows: Vec<Value> = jsonl_text.lines().map(parse).collect();

    // Same events, same order, same names.
    assert_eq!(chrome_rows.len(), jsonl_rows.len());
    for (c, j) in chrome_rows.iter().zip(&jsonl_rows) {
        assert_eq!(
            c.get("name").unwrap().as_str(),
            j.get("name").unwrap().as_str()
        );
    }

    // Same span count.
    let chrome_spans: Vec<&Value> = chrome_rows
        .iter()
        .filter(|r| r.get("ph").unwrap().as_str() == Some("X"))
        .collect();
    let jsonl_spans: Vec<&Value> = jsonl_rows
        .iter()
        .filter(|r| r.get("kind").unwrap().as_str() == Some("span"))
        .collect();
    assert_eq!(chrome_spans.len(), jsonl_spans.len());
    assert!(chrome_spans.len() >= 2, "sample must contain nested spans");

    // Nesting agreement: find the inner/outer pair by name in both
    // documents. JSONL says inner is one level deeper; the Chrome
    // intervals must show containment (inner within outer).
    let by_name = |rows: &[&Value], name: &str| -> Value {
        rows.iter()
            .find(|r| {
                r.get("name")
                    .unwrap()
                    .as_str()
                    .is_some_and(|n| n.starts_with(name))
            })
            .map(|r| (*r).clone())
            .unwrap_or_else(|| panic!("span {name} missing"))
    };
    let (c_outer, c_inner) = (
        by_name(&chrome_spans, "roundtrip.outer"),
        by_name(&chrome_spans, "roundtrip.inner"),
    );
    let (j_outer, j_inner) = (
        by_name(&jsonl_spans, "roundtrip.outer"),
        by_name(&jsonl_spans, "roundtrip.inner"),
    );
    let depth = |r: &Value| r.get("depth").unwrap().as_f64().unwrap();
    assert_eq!(
        depth(&j_inner),
        depth(&j_outer) + 1.0,
        "JSONL must report the inner span one level deeper"
    );
    let span_of = |r: &Value| -> (f64, f64) {
        let ts = r.get("ts").unwrap().as_f64().unwrap();
        (ts, ts + r.get("dur").unwrap().as_f64().unwrap())
    };
    let (outer_start, outer_end) = span_of(&c_outer);
    let (inner_start, inner_end) = span_of(&c_inner);
    assert!(
        outer_start <= inner_start && inner_end <= outer_end,
        "Chrome intervals must show the same containment \
         (outer [{outer_start}, {outer_end}], inner [{inner_start}, {inner_end}])"
    );
}

/// The file writers emit the same bytes the string renderers produce.
#[test]
fn file_writers_match_string_renderers() {
    let _guard = TEST_LOCK.lock().unwrap();
    let events = record_sample();
    let dir = std::env::temp_dir();
    let chrome_path = dir.join("treeemb_obs_roundtrip_trace.json");
    let jsonl_path = dir.join("treeemb_obs_roundtrip_trace.jsonl");
    export::write_chrome_trace(&chrome_path, &events).expect("chrome write");
    export::write_jsonl(&jsonl_path, &events).expect("jsonl write");
    assert_eq!(
        std::fs::read_to_string(&chrome_path).unwrap(),
        export::chrome_trace_json(&events)
    );
    assert_eq!(
        std::fs::read_to_string(&jsonl_path).unwrap(),
        export::jsonl(&events)
    );
    let _ = std::fs::remove_file(chrome_path);
    let _ = std::fs::remove_file(jsonl_path);
}
