//! Harness-side spans: recorded around the benchmark's own calls into the
//! serving layers, held in memory, written out when the run ends.
//!
//! Every operation (one begin or one upgrade) owns a root `client.op` span
//! from its origin — the due time in an open loop, the submit in a closed
//! one — to the stamp of its reply. Its children are the harness's call
//! into the program (`serve.submit_call`, `router.submit_call`,
//! `serve.upgrade_call`), `client.wait` (reply resolved → reply stamped,
//! the start placed by the server's own `Response::latency_us`) and the
//! session's `serve.release_call`. What is left of `client.op` once the
//! children are subtracted is time spent inside the program, opaque until
//! spans are recorded there too.

use std::io::{self, Write};

/// Which call or interval a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// Root: origin of an operation to the stamp of its reply.
    ClientOp,
    /// `Server::submit`.
    SubmitCall,
    /// `Router::submit`.
    RouterSubmitCall,
    /// `Server::upgrade` / `Router::upgrade`.
    UpgradeCall,
    /// Reply resolved → reply stamped by the collector.
    ClientWait,
    /// `Server::release` / `Router::release`.
    ReleaseCall,
}

impl SpanName {
    /// The span's name in the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::ClientOp => "client.op",
            SpanName::SubmitCall => "serve.submit_call",
            SpanName::RouterSubmitCall => "router.submit_call",
            SpanName::UpgradeCall => "serve.upgrade_call",
            SpanName::ClientWait => "client.wait",
            SpanName::ReleaseCall => "serve.release_call",
        }
    }
}

/// One recorded interval. Times are nanoseconds since the run's epoch; `op`
/// is the operation the span belongs to, and every span but `client.op` has
/// that operation's `client.op` as its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the span covers.
    pub name: SpanName,
    /// Operation index within the run.
    pub op: u32,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer; recording is a `Vec::push` and nothing when
/// tracing is off.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records one span.
    pub fn record(&mut self, name: SpanName, op: u32, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                op,
                start_ns,
                end_ns,
            });
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations in nanoseconds of every span called `name`.
pub fn durations_ns(spans: &[Span], name: SpanName) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Writes the span trees of every `stride`-th operation as JSON lines
/// `{id, name, start_ns, end_ns, parent, op}`. A `client.op` span's id is
/// its operation index; children are numbered after the last operation.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span], ops: u32, stride: u32) -> io::Result<u64> {
    let mut written = 0u64;
    let mut next_child = u64::from(ops);
    for span in spans.iter().filter(|s| s.op % stride.max(1) == 0) {
        let (id, parent) = if span.name == SpanName::ClientOp {
            (u64::from(span.op), "null".to_string())
        } else {
            next_child += 1;
            (next_child - 1, span.op.to_string())
        };
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"op\": {}}}",
            span.name.as_str(),
            span.start_ns,
            span.end_ns,
            span.op
        )?;
        written += 1;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut off = Tracer::new(false);
        off.record(SpanName::ClientOp, 0, 1, 2);
        assert!(off.into_spans().is_empty());
        let mut on = Tracer::new(true);
        on.record(SpanName::SubmitCall, 3, 10, 25);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(durations_ns(&spans, SpanName::SubmitCall), vec![15.0]);
        assert!(durations_ns(&spans, SpanName::ClientWait).is_empty());
    }

    #[test]
    fn jsonl_links_children_to_their_operation() {
        let spans = [
            Span {
                name: SpanName::ClientOp,
                op: 0,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: SpanName::SubmitCall,
                op: 0,
                start_ns: 0,
                end_ns: 7,
            },
            Span {
                name: SpanName::ClientOp,
                op: 1,
                start_ns: 5,
                end_ns: 90,
            },
        ];
        let mut buf = Vec::new();
        assert_eq!(write_jsonl(&mut buf, &spans, 2, 1).expect("write"), 3);
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"id\": 0") && lines[0].contains("\"parent\": null"));
        assert!(lines[1].contains("\"id\": 2") && lines[1].contains("\"parent\": 0"));
        assert!(lines[1].contains("serve.submit_call"));
        // stride 2 keeps only operation 0's tree
        let mut buf = Vec::new();
        assert_eq!(write_jsonl(&mut buf, &spans, 2, 2).expect("write"), 2);
    }
}
