//! `stepping-metrics-report` — inspect and diff metric snapshot files.
//!
//! ```text
//! stepping-metrics-report <run.jsonl>            # diff first vs last snapshot
//! stepping-metrics-report <a.jsonl> <b.jsonl>    # diff last(a) vs last(b)
//! stepping-metrics-report --last <run.jsonl>     # render the last snapshot
//! stepping-metrics-report --prometheus <run.jsonl>  # last snapshot, Prometheus text
//! ```
//!
//! Snapshot files are the `.jsonl` streams written by the background
//! `SnapshotWriter` (one JSON snapshot per line, e.g. `metrics.jsonl`).

use std::process::ExitCode;

use stepping_metrics::snapshot::{diff, Snapshot};

fn usage() -> &'static str {
    "usage: stepping-metrics-report [--last|--prometheus] <file.jsonl> [<other.jsonl>]\n\
     \n\
     default (one file): diff the first snapshot against the last\n\
     two files:          diff the last snapshot of each\n\
     --last:             print the last snapshot as a table\n\
     --prometheus:       print the last snapshot in Prometheus text format"
}

/// All snapshots in a `.jsonl` file, oldest first.
fn load(path: &str) -> Result<Vec<Snapshot>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let snap = Snapshot::parse_json(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        out.push(snap);
    }
    if out.is_empty() {
        return Err(format!("{path}: no snapshots"));
    }
    Ok(out)
}

fn render_last(snap: &Snapshot) -> String {
    // Render as a diff against an empty snapshot: same table, totals only.
    let mut text = format!(
        "snapshot seq={} uptime={:.3}s\n",
        snap.seq,
        snap.uptime_ns as f64 / 1e9
    );
    text.push_str(&diff(&Snapshot::default(), snap).render_text());
    text
}

fn run(args: &[String]) -> Result<String, String> {
    match args {
        [flag, path] if flag == "--last" => Ok(render_last(last(&load(path)?))),
        [flag, path] if flag == "--prometheus" => Ok(last(&load(path)?).to_prometheus()),
        [path] => {
            let snaps = load(path)?;
            if snaps.len() < 2 {
                return Ok(render_last(last(&snaps)));
            }
            Ok(render_diff(&snaps[0], last(&snaps)))
        }
        [a, b] => Ok(render_diff(last(&load(a)?), last(&load(b)?))),
        _ => Err(usage().to_string()),
    }
}

fn last(snaps: &[Snapshot]) -> &Snapshot {
    &snaps[snaps.len() - 1]
}

fn render_diff(before: &Snapshot, after: &Snapshot) -> String {
    let d = diff(before, after);
    let mut text = format!(
        "before seq={} uptime={:.3}s | after seq={} uptime={:.3}s\n",
        before.seq,
        before.uptime_ns as f64 / 1e9,
        after.seq,
        after.uptime_ns as f64 / 1e9,
    );
    text.push_str(&d.render_text());
    text
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
