//! Event sinks: where dispatched telemetry events go.
//!
//! Three implementations ship with the crate:
//!
//! * [`ConsoleSink`] — human-readable lines for interactive runs; telemetry
//!   goes to stderr, `report`-phase text (bench tables) to stdout.
//! * [`JsonlSink`] — one JSON object per line, the machine-readable format
//!   consumed by `stepping-obs-report`.
//! * [`CaptureSink`] — buffers owned copies of events in memory, for tests.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use stepping_core::telemetry::{Event, EventKind, Value};
use stepping_metrics::snapshot::{escape, render_f64};

/// `s` as a JSON string literal, quotes included.
fn quoted(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// A telemetry event plus the registry-assigned sequence number and
/// timestamp, as handed to sinks.
#[derive(Debug, Clone, Copy)]
pub struct Stamped<'a> {
    /// Monotonic per-process sequence number (0-based).
    pub seq: u64,
    /// Nanoseconds since the registry was created.
    pub ts_ns: u64,
    /// The event itself (borrowed; copy into [`OwnedEvent`] to retain).
    pub event: &'a Event<'a>,
}

/// Destination for dispatched events.
///
/// Implementations must be `Send`: the registry is process-global and may be
/// driven from any thread (e.g. `Session::run_live` workers). Calls are
/// serialized by the registry lock, so no internal synchronization is needed.
pub trait Sink: Send {
    /// Records one event. Must not call back into the registry (the
    /// registry lock is held).
    fn record(&mut self, ev: &Stamped<'_>);

    /// Flushes buffered output; called by [`crate::flush`] and on drop of
    /// the process.
    fn flush(&mut self) {}
}

/// An owned (lifetime-free) copy of a field value.
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl OwnedValue {
    fn of(v: &Value<'_>) -> Self {
        match *v {
            Value::U64(x) => OwnedValue::U64(x),
            Value::I64(x) => OwnedValue::I64(x),
            Value::F64(x) => OwnedValue::F64(x),
            Value::Str(s) => OwnedValue::Str(s.to_string()),
            Value::Bool(b) => OwnedValue::Bool(b),
        }
    }

    /// Numeric view of the value (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            OwnedValue::U64(x) => Some(x as f64),
            OwnedValue::I64(x) => Some(x as f64),
            OwnedValue::F64(x) => Some(x),
            _ => None,
        }
    }

    /// Non-negative integer view of the value.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            OwnedValue::U64(x) => Some(x),
            OwnedValue::I64(x) => u64::try_from(x).ok(),
            OwnedValue::F64(x) if x >= 0.0 => Some(x as u64),
            _ => None,
        }
    }

    fn render_json(&self) -> String {
        match self {
            OwnedValue::U64(x) => format!("{x}"),
            OwnedValue::I64(x) => format!("{x}"),
            OwnedValue::F64(x) => render_f64(*x),
            OwnedValue::Str(s) => quoted(s),
            OwnedValue::Bool(b) => format!("{b}"),
        }
    }

    fn render_console(&self) -> String {
        match self {
            OwnedValue::U64(x) => format!("{x}"),
            OwnedValue::I64(x) => format!("{x}"),
            OwnedValue::F64(x) => format!("{x:.4}"),
            OwnedValue::Str(s) => s.clone(),
            OwnedValue::Bool(b) => format!("{b}"),
        }
    }
}

/// An owned (lifetime-free) copy of a stamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedEvent {
    /// Sequence number.
    pub seq: u64,
    /// Nanoseconds since registry creation.
    pub ts_ns: u64,
    /// Phase, e.g. `construction` / `training` / `inference` / `report`.
    pub phase: String,
    /// Event name, e.g. `drive.slice`.
    pub name: String,
    /// Kind discriminant: `"point"`, `"span"`, or `"counter"`.
    pub kind: &'static str,
    /// Span duration, for `span` events.
    pub elapsed_ns: Option<u64>,
    /// Counter increment, for `counter` events.
    pub delta: Option<u64>,
    /// Structured payload, in emission order.
    pub fields: Vec<(String, OwnedValue)>,
}

impl OwnedEvent {
    /// Copies a stamped event into owned storage.
    pub fn of(ev: &Stamped<'_>) -> Self {
        let (kind, elapsed_ns, delta) = match ev.event.kind {
            EventKind::Point => ("point", None, None),
            EventKind::SpanEnd { elapsed_ns } => ("span", Some(elapsed_ns), None),
            EventKind::Counter { delta } => ("counter", None, Some(delta)),
        };
        OwnedEvent {
            seq: ev.seq,
            ts_ns: ev.ts_ns,
            phase: ev.event.phase.to_string(),
            name: ev.event.name.to_string(),
            kind,
            elapsed_ns,
            delta,
            fields: ev
                .event
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), OwnedValue::of(v)))
                .collect(),
        }
    }

    /// Looks up a field by name.
    pub fn field(&self, key: &str) -> Option<&OwnedValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Renders the stable single-line JSON form consumed by
    /// `stepping-obs-report`.
    pub fn render_jsonl(&self) -> String {
        let mut line = format!(
            "{{\"seq\":{},\"ts_ns\":{},\"phase\":{},\"name\":{},\"kind\":\"{}\"",
            self.seq,
            self.ts_ns,
            quoted(&self.phase),
            quoted(&self.name),
            self.kind,
        );
        if let Some(ns) = self.elapsed_ns {
            line.push_str(&format!(",\"elapsed_ns\":{ns}"));
        }
        if let Some(d) = self.delta {
            line.push_str(&format!(",\"delta\":{d}"));
        }
        line.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&quoted(k));
            line.push(':');
            line.push_str(&v.render_json());
        }
        line.push_str("}}");
        line
    }
}

/// Special phase used by [`crate::report_text`] / [`crate::progress`] for
/// pre-formatted bench output (routed to stdout/stderr by the console sink,
/// kept verbatim in the `text` field by the JSONL sink). An alias of
/// [`stepping_core::events::phase::REPORT`] — the shared registry is the
/// single source of truth for phase names.
pub const REPORT_PHASE: &str = stepping_core::events::phase::REPORT;

/// Human-readable sink. Telemetry events render as one aligned line each on
/// stderr; `report`-phase events carry pre-formatted text and go to stdout
/// (`report.text`) or stderr (`report.progress`), preserving the classic
/// bench-binary output contract.
#[derive(Debug, Default)]
pub struct ConsoleSink;

impl ConsoleSink {
    /// Creates the sink.
    pub fn new() -> Self {
        Self
    }
}

impl Sink for ConsoleSink {
    fn record(&mut self, ev: &Stamped<'_>) {
        let e = ev.event;
        if e.phase == REPORT_PHASE {
            let text = e
                .fields
                .iter()
                .find(|(k, _)| *k == "text")
                .and_then(|(_, v)| match v {
                    Value::Str(s) => Some(*s),
                    _ => None,
                })
                .unwrap_or("");
            if e.name == stepping_core::events::event::REPORT_PROGRESS {
                eprintln!("{text}");
            } else {
                println!("{text}");
            }
            return;
        }
        let owned = OwnedEvent::of(ev);
        let mut line = match owned.kind {
            "span" => format!(
                "[{}] {} ({:.3} ms)",
                owned.phase,
                owned.name,
                owned.elapsed_ns.unwrap_or(0) as f64 / 1e6
            ),
            "counter" => format!(
                "[{}] {} +{}",
                owned.phase,
                owned.name,
                owned.delta.unwrap_or(0)
            ),
            _ => format!("[{}] {}", owned.phase, owned.name),
        };
        for (k, v) in &owned.fields {
            line.push_str(&format!(" {k}={}", v.render_console()));
        }
        eprintln!("{line}");
    }
}

/// Machine-readable sink: one JSON object per line (JSONL).
pub struct JsonlSink {
    out: BufWriter<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Wraps an arbitrary writer (used by tests to capture bytes).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        Self {
            out: BufWriter::new(out),
        }
    }

    /// Creates (truncating) the file at `path`, creating parent directories
    /// as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(Self::new(Box::new(File::create(path)?)))
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, ev: &Stamped<'_>) {
        let line = OwnedEvent::of(ev).render_jsonl();
        // Best-effort: a full disk shouldn't abort inference.
        let _ = writeln!(self.out, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Test sink: buffers owned copies of every event behind a shared handle.
#[derive(Debug, Default)]
pub struct CaptureSink {
    buf: Arc<Mutex<Vec<OwnedEvent>>>,
}

impl CaptureSink {
    /// Creates an empty capture buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle to the shared buffer, valid after the sink moves into the
    /// registry.
    pub fn handle(&self) -> Arc<Mutex<Vec<OwnedEvent>>> {
        Arc::clone(&self.buf)
    }
}

impl Sink for CaptureSink {
    fn record(&mut self, ev: &Stamped<'_>) {
        self.buf.lock().unwrap().push(OwnedEvent::of(ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepping_metrics::snapshot::json;

    fn stamped_span<'a>(fields: &'a [(&'a str, Value<'a>)], event: &'a Event<'a>) -> Stamped<'a> {
        let _ = fields;
        Stamped {
            seq: 7,
            ts_ns: 1234,
            event,
        }
    }

    #[test]
    fn jsonl_line_is_stable_and_parseable() {
        let fields = [
            ("slice", Value::U64(3)),
            ("bank", Value::I64(-2)),
            ("ratio", Value::F64(0.25)),
            ("policy", Value::Str("incremental")),
            ("ok", Value::Bool(true)),
        ];
        let event = Event {
            phase: "inference",
            name: "drive.slice",
            kind: EventKind::SpanEnd { elapsed_ns: 456 },
            fields: &fields,
        };
        let st = stamped_span(&fields, &event);
        let line = OwnedEvent::of(&st).render_jsonl();
        assert_eq!(
            line,
            r#"{"seq":7,"ts_ns":1234,"phase":"inference","name":"drive.slice","kind":"span","elapsed_ns":456,"fields":{"slice":3,"bank":-2,"ratio":0.25,"policy":"incremental","ok":true}}"#
        );
        let parsed = json::parse(&line).unwrap();
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("span"));
        assert_eq!(parsed.get("elapsed_ns").unwrap().as_u64(), Some(456));
    }

    #[test]
    fn nan_fields_render_as_null() {
        let fields = [("loss", Value::F64(f64::NAN))];
        let event = Event {
            phase: "training",
            name: "train.epoch",
            kind: EventKind::Point,
            fields: &fields,
        };
        let st = Stamped {
            seq: 0,
            ts_ns: 0,
            event: &event,
        };
        let line = OwnedEvent::of(&st).render_jsonl();
        assert!(line.contains("\"loss\":null"), "{line}");
        json::parse(&line).unwrap();
    }

    #[test]
    fn capture_sink_retains_owned_copies() {
        let mut sink = CaptureSink::new();
        let handle = sink.handle();
        let fields = [("n", Value::U64(1))];
        let event = Event {
            phase: "construction",
            name: "construct.iteration",
            kind: EventKind::Counter { delta: 5 },
            fields: &fields,
        };
        sink.record(&Stamped {
            seq: 9,
            ts_ns: 10,
            event: &event,
        });
        let buf = handle.lock().unwrap();
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].seq, 9);
        assert_eq!(buf[0].delta, Some(5));
        assert_eq!(buf[0].field("n"), Some(&OwnedValue::U64(1)));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut sink = JsonlSink::new(Box::new(shared.clone()));
        let event = Event {
            phase: "inference",
            name: "exec.begin",
            kind: EventKind::Point,
            fields: &[],
        };
        for seq in 0..3 {
            sink.record(&Stamped {
                seq,
                ts_ns: seq * 10,
                event: &event,
            });
        }
        sink.flush();
        let bytes = shared.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("seq").unwrap().as_u64(), Some(i as u64));
        }
    }
}
