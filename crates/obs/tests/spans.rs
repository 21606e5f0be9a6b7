//! Live-registry tests: span timing monotonicity and counter aggregation
//! with the observer actually installed (dev-deps compile `stepping-core`
//! with its `obs` feature).
//!
//! The registry is process-global, so every test emits registered event
//! names no other test here uses, and filters captured events to its own.

use std::sync::{Arc, Mutex};

use stepping_core::events::{event, phase};
use stepping_core::telemetry::{self, EventName, Value};
use stepping_obs::{CaptureSink, OwnedEvent};

fn captured() -> Arc<Mutex<Vec<OwnedEvent>>> {
    static HANDLE: std::sync::OnceLock<Arc<Mutex<Vec<OwnedEvent>>>> = std::sync::OnceLock::new();
    HANDLE
        .get_or_init(|| {
            let sink = CaptureSink::new();
            let handle = sink.handle();
            stepping_obs::add_sink(Box::new(sink));
            assert!(stepping_obs::install() || stepping_obs::installed());
            handle
        })
        .clone()
}

fn events_named(handle: &Arc<Mutex<Vec<OwnedEvent>>>, name: EventName) -> Vec<OwnedEvent> {
    handle
        .lock()
        .unwrap()
        .iter()
        .filter(|e| e.name == name.as_str())
        .cloned()
        .collect()
}

#[test]
fn nested_span_elapsed_is_monotonic() {
    let handle = captured();
    assert!(telemetry::enabled(), "observer should enable telemetry");
    {
        let outer = telemetry::span(phase::INFERENCE, event::DRIVE_RUN);
        {
            let inner = telemetry::span(phase::INFERENCE, event::DRIVE_SLICE);
            std::thread::sleep(std::time::Duration::from_millis(2));
            assert!(inner.is_active());
            inner.end(&[("depth", Value::U64(1))]);
        }
        assert!(outer.elapsed_ns() > 0);
        outer.end(&[("depth", Value::U64(0))]);
    }
    let inner = events_named(&handle, event::DRIVE_SLICE);
    let outer = events_named(&handle, event::DRIVE_RUN);
    assert_eq!(inner.len(), 1);
    assert_eq!(outer.len(), 1);
    let (i, o) = (inner[0].elapsed_ns.unwrap(), outer[0].elapsed_ns.unwrap());
    assert!(i > 0, "inner span measured nothing");
    assert!(o >= i, "outer span ({o} ns) outlived by inner ({i} ns)");
    // Inner finishes (and is emitted) first; stamps must be ordered.
    assert!(inner[0].seq < outer[0].seq);
    assert!(inner[0].ts_ns <= outer[0].ts_ns);
}

#[test]
fn sequential_spans_have_increasing_timestamps() {
    let handle = captured();
    for k in 0..3u64 {
        let s = telemetry::span(phase::TRAINING, event::TRAIN_EPOCH);
        s.end(&[("k", Value::U64(k))]);
    }
    let evs = events_named(&handle, event::TRAIN_EPOCH);
    assert_eq!(evs.len(), 3);
    for pair in evs.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
        assert!(pair[0].ts_ns <= pair[1].ts_ns);
    }
}

#[test]
fn counter_deltas_aggregate_in_units() {
    let _ = captured();
    for d in [1u64, 2, 3, 4] {
        telemetry::counter(phase::TRAINING, event::TRAIN_BATCHES, d, &[]);
    }
    let agg = stepping_obs::snapshot();
    let c = agg
        .counters
        .get(&(
            phase::TRAINING.as_str().to_string(),
            event::TRAIN_BATCHES.as_str().to_string(),
        ))
        .expect("counter aggregated");
    assert_eq!(c.increments, 4);
    assert_eq!(c.total, 10);
    assert_eq!(
        agg.counter_total(phase::TRAINING.as_str(), event::TRAIN_BATCHES.as_str()),
        10
    );
}

#[test]
fn span_aggregates_track_count_and_total() {
    let _ = captured();
    for _ in 0..2 {
        let s = telemetry::span(phase::CONSTRUCTION, event::CONSTRUCT_ITERATION);
        s.end(&[]);
    }
    let agg = stepping_obs::snapshot();
    let s = agg
        .span(
            phase::CONSTRUCTION.as_str(),
            event::CONSTRUCT_ITERATION.as_str(),
        )
        .expect("span aggregated");
    assert_eq!(s.count, 2);
    assert!(s.total_ns >= s.max_ns);
    assert!(s.min_ns <= s.max_ns);
}
