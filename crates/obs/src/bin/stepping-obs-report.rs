//! `stepping-obs-report` — summarize a JSONL event file produced by
//! [`stepping_obs::JsonlSink`].
//!
//! ```text
//! stepping-obs-report results/run.events.jsonl
//! stepping-obs-report -          # read JSONL from stdin
//! stepping-obs-report results/run.events.jsonl --metrics metrics.jsonl
//! stepping-obs-report --metrics metrics.jsonl
//! ```
//!
//! Renders per-phase event/span totals, construction/training/inference
//! roll-ups, a budget-utilization histogram, and the slowest spans. With
//! `--metrics`, appends the first-to-last diff of a production metrics
//! snapshot stream (see `stepping-metrics-report` for the full diff CLI) —
//! one command for both sides of the observability story: offline events
//! and always-on aggregates.
//! Exits 0 on success, 2 on usage, I/O, or parse errors.

use std::io::Read;
use std::process::ExitCode;

use stepping_metrics::{diff, Snapshot};
use stepping_obs::{parse_jsonl, summarize};

const USAGE: &str = "usage: stepping-obs-report [<events.jsonl | ->] [--metrics <snapshots.jsonl>]";

/// First-to-last diff of a metrics snapshot stream, rendered as text.
fn metrics_report(path: &str) -> Result<String, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let snapshots: Vec<Snapshot> = raw
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Snapshot::parse_json(l).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<_, _>>()?;
    let (Some(first), Some(last)) = (snapshots.first(), snapshots.last()) else {
        return Err(format!("{path}: no snapshots"));
    };
    Ok(format!(
        "\nMETRICS ({path}, {} snapshot(s))\n{}",
        snapshots.len(),
        diff(first, last).render_text()
    ))
}

fn run() -> Result<String, String> {
    let mut events_path = None;
    let mut metrics_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--metrics" => {
                if metrics_path
                    .replace(args.next().ok_or(USAGE.to_string())?)
                    .is_some()
                {
                    return Err(USAGE.to_string());
                }
            }
            _ => {
                if events_path.replace(arg).is_some() {
                    return Err(USAGE.to_string());
                }
            }
        }
    }
    let mut report = String::new();
    if let Some(path) = &events_path {
        let text = if path == "-" {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("stdin: {e}"))?;
            buf
        } else {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
        };
        let events = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        report.push_str(&summarize(&events).to_string());
    }
    match &metrics_path {
        Some(path) => report.push_str(&metrics_report(path)?),
        None if events_path.is_none() => return Err(USAGE.to_string()),
        None => {}
    }
    Ok(report)
}

fn main() -> ExitCode {
    match run() {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
