//! Structured observability for the SteppingNet reproduction.
//!
//! `stepping-core` emits borrowed [`telemetry::Event`]s through a
//! process-wide function-pointer hook (see `stepping_core::telemetry`); this
//! crate is the receiving side: a registry that stamps each event with a
//! sequence number and monotonic timestamp, folds it into running
//! [`Aggregates`], and fans it out to pluggable [`Sink`]s.
//!
//! # Wiring
//!
//! ```no_run
//! stepping_obs::install(); // register the observer hook (first wins)
//! stepping_obs::add_sink(Box::new(stepping_obs::ConsoleSink::new()));
//! stepping_obs::add_sink(Box::new(
//!     stepping_obs::JsonlSink::create("results/run.events.jsonl").unwrap(),
//! ));
//! // ... run construction / training / inference ...
//! stepping_obs::flush();
//! ```
//!
//! Events only flow when the emitting crate was compiled with its `obs`
//! cargo feature (the workspace root exposes `--features obs`); without it
//! the instrumented code paths are compile-time no-ops and installing this
//! registry observes nothing. This crate deliberately depends on
//! `stepping-core` *without* that feature so linking `stepping-obs` never
//! switches instrumentation on by itself.
//!
//! The JSONL lines written by [`JsonlSink`] are summarized offline by the
//! `stepping-obs-report` binary (see [`summary`]).

#![warn(missing_docs)]

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use stepping_core::telemetry::{self, Event, EventKind, Value};

pub mod metrics;
pub mod sink;
pub mod summary;

pub use metrics::{Aggregates, CounterStats, RatioHistogram, SpanStats};
pub use sink::{
    CaptureSink, ConsoleSink, JsonlSink, OwnedEvent, OwnedValue, Sink, Stamped, REPORT_PHASE,
};
pub use summary::{parse_jsonl, summarize, Summary};

struct Registry {
    sinks: Vec<Box<dyn Sink>>,
    aggregates: Aggregates,
    seq: u64,
    epoch: Instant,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY
        .get_or_init(|| {
            Mutex::new(Registry {
                sinks: Vec::new(),
                aggregates: Aggregates::default(),
                seq: 0,
                epoch: Instant::now(),
            })
        })
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn observer(ev: &Event<'_>) {
    dispatch(ev);
}

/// Registers this crate's registry as the process-wide telemetry observer.
///
/// Idempotent in effect: the first observer installed for the process wins
/// (`stepping_core::telemetry::install_observer` semantics); returns whether
/// this call performed the installation.
pub fn install() -> bool {
    telemetry::install_observer(observer)
}

/// Whether any process-wide observer is installed.
pub fn installed() -> bool {
    telemetry::observer_installed()
}

/// Adds a sink; every subsequently dispatched event is delivered to it in
/// registration order.
pub fn add_sink(sink: Box<dyn Sink>) {
    registry().sinks.push(sink);
}

/// Stamps `ev` with a sequence number and timestamp, folds it into the
/// aggregates, and records it in every sink.
///
/// Called by the installed observer for instrumented code paths; harness
/// code may also call it directly (e.g. [`report_text`]).
pub fn dispatch(ev: &Event<'_>) {
    let mut reg = registry();
    let seq = reg.seq;
    reg.seq += 1;
    let ts_ns = u64::try_from(reg.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
    reg.aggregates.observe(ev);
    let stamped = Stamped {
        seq,
        ts_ns,
        event: ev,
    };
    for sink in &mut reg.sinks {
        sink.record(&stamped);
    }
}

/// Flushes every registered sink (buffered JSONL writers in particular).
pub fn flush() {
    for sink in &mut registry().sinks {
        sink.flush();
    }
}

/// A snapshot of the running aggregates (spans, counters, points) over all
/// events dispatched so far.
pub fn snapshot() -> Aggregates {
    registry().aggregates.clone()
}

/// Emits pre-formatted report text (bench tables, result lines).
///
/// With an observer installed this dispatches a `report`/`text` event — the
/// console sink prints it to stdout, the JSONL sink records it verbatim —
/// giving bench binaries a single code path for human and machine output.
/// Without an observer it falls back to `println!`, preserving the classic
/// behavior.
pub fn report_text(text: &str) {
    if installed() {
        dispatch(&Event {
            phase: REPORT_PHASE,
            name: stepping_core::events::event::REPORT_TEXT.as_str(),
            kind: EventKind::Point,
            fields: &[("text", Value::Str(text))],
        });
    } else {
        println!("{text}");
    }
}

/// Emits progress/diagnostic text (the stderr channel of [`report_text`]).
pub fn progress(text: &str) {
    if installed() {
        dispatch(&Event {
            phase: REPORT_PHASE,
            name: stepping_core::events::event::REPORT_PROGRESS.as_str(),
            kind: EventKind::Point,
            fields: &[("text", Value::Str(text))],
        });
    } else {
        eprintln!("{text}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the registry is process-global and unit tests share one binary,
    // so each test uses unique event names and asserts only on those.

    #[test]
    fn dispatch_stamps_and_aggregates() {
        let capture = CaptureSink::new();
        let handle = capture.handle();
        add_sink(Box::new(capture));
        let fields = [("k", Value::U64(1))];
        let ev = Event {
            phase: "test",
            name: "lib.dispatch_stamps",
            kind: EventKind::Counter { delta: 4 },
            fields: &fields,
        };
        dispatch(&ev);
        dispatch(&ev);
        let agg = snapshot();
        assert_eq!(agg.counter_total("test", "lib.dispatch_stamps"), 8);
        let buf = handle.lock().unwrap();
        let mine: Vec<_> = buf
            .iter()
            .filter(|e| e.name == "lib.dispatch_stamps")
            .collect();
        assert_eq!(mine.len(), 2);
        assert!(mine[0].seq < mine[1].seq, "sequence numbers increase");
        assert!(mine[0].ts_ns <= mine[1].ts_ns, "timestamps are monotonic");
    }

    #[test]
    fn report_text_without_sinks_does_not_panic() {
        // Whether or not another test has installed the observer by now,
        // both branches must be safe.
        report_text("table row");
        progress("working...");
    }
}
