//! Offline summarization of JSONL event files — the analysis behind the
//! `stepping-obs-report` CLI.
//!
//! [`parse_jsonl`] turns the sink's line format back into [`OwnedEvent`]s;
//! [`summarize`] folds them into a [`Summary`] whose `Display` impl renders
//! the per-phase timing table, pipeline-specific totals, the
//! budget-utilization histogram, and the slowest spans.

use std::collections::BTreeMap;
use std::fmt;

use stepping_core::events::{event, phase};
use stepping_core::telemetry::{EventName, Phase};

use crate::metrics::{CounterStats, RatioHistogram, SpanStats};
use crate::sink::{OwnedEvent, OwnedValue};
use stepping_metrics::snapshot::json::{self, Json};

/// Per-phase roll-up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseSummary {
    /// Total events in the phase.
    pub events: u64,
    /// Completed spans in the phase.
    pub spans: u64,
    /// Sum of span elapsed times.
    pub span_total_ns: u64,
}

/// Everything `stepping-obs-report` knows about one event file.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Total events parsed.
    pub total_events: u64,
    /// Roll-up per phase, alphabetical.
    pub phases: BTreeMap<String, PhaseSummary>,
    /// Span stats per `(phase, name)`.
    pub spans: BTreeMap<(String, String), SpanStats>,
    /// Counter stats per `(phase, name)`.
    pub counters: BTreeMap<(String, String), CounterStats>,
    /// `construct.iteration` span count.
    pub construction_iterations: u64,
    /// Sum of `neurons_moved` over construction iterations.
    pub neurons_moved: u64,
    /// Sum of `synapses_pruned` over construction iterations.
    pub synapses_pruned: u64,
    /// Sum of `synapses_revived` over construction iterations.
    pub synapses_revived: u64,
    /// Total batches from `train.batches` counters.
    pub train_batches: u64,
    /// Total batches from `distill.batches` counters.
    pub distill_batches: u64,
    /// Total batches from `construct.train_batches` counters.
    pub construct_train_batches: u64,
    /// `drive.slice` span count (inference slices driven).
    pub inference_slices: u64,
    /// Sum of `upgrades` over inference slices.
    pub upgrades: u64,
    /// Total MACs spent across inference slices (`spent` field sum).
    pub inference_macs: u64,
    /// Mean `reuse_ratio` over `exec.expand` spans, if any.
    pub mean_reuse_ratio: Option<f64>,
    /// `spent / budget` per inference slice.
    pub budget_utilization: RatioHistogram,
    /// Slowest spans: `(phase, name, elapsed_ns, seq)`, descending.
    pub slowest: Vec<(String, String, u64, u64)>,
}

/// How many slowest spans the summary retains.
const SLOWEST: usize = 5;

fn owned_value(v: &Json) -> Option<OwnedValue> {
    match v {
        Json::Null => None,
        Json::Bool(b) => Some(OwnedValue::Bool(*b)),
        Json::Str(s) => Some(OwnedValue::Str(s.clone())),
        Json::Num(n) => Some(if n.fract() == 0.0 && n.abs() < 9.0e15 {
            if *n >= 0.0 {
                OwnedValue::U64(*n as u64)
            } else {
                OwnedValue::I64(*n as i64)
            }
        } else {
            OwnedValue::F64(*n)
        }),
        _ => None,
    }
}

/// Parses a JSONL event file (blank lines ignored) back into events.
///
/// # Errors
///
/// Reports the 1-based line number and cause for the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<OwnedEvent>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parse_err = |m: String| format!("line {}: {}", lineno + 1, m);
        let v = json::parse(line).map_err(parse_err)?;
        let req_str = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("line {}: missing string \"{key}\"", lineno + 1))
        };
        let kind = match req_str("kind")?.as_str() {
            "point" => "point",
            "span" => "span",
            "counter" => "counter",
            other => return Err(format!("line {}: unknown kind {other:?}", lineno + 1)),
        };
        let fields = match v.get("fields") {
            Some(Json::Object(m)) => m
                .iter()
                .filter_map(|(k, fv)| owned_value(fv).map(|ov| (k.clone(), ov)))
                .collect(),
            None => Vec::new(),
            Some(_) => return Err(format!("line {}: \"fields\" is not an object", lineno + 1)),
        };
        out.push(OwnedEvent {
            seq: v.get("seq").and_then(Json::as_u64).unwrap_or(0),
            ts_ns: v.get("ts_ns").and_then(Json::as_u64).unwrap_or(0),
            phase: req_str("phase")?,
            name: req_str("name")?,
            kind,
            elapsed_ns: v.get("elapsed_ns").and_then(Json::as_u64),
            delta: v.get("delta").and_then(Json::as_u64),
            fields,
        });
    }
    Ok(out)
}

fn field_u64(ev: &OwnedEvent, key: &str) -> Option<u64> {
    ev.field(key).and_then(OwnedValue::as_u64)
}

fn field_f64(ev: &OwnedEvent, key: &str) -> Option<f64> {
    ev.field(key).and_then(OwnedValue::as_f64)
}

/// Folds parsed events into a [`Summary`].
pub fn summarize(events: &[OwnedEvent]) -> Summary {
    let mut s = Summary::default();
    let mut reuse_sum = 0.0f64;
    let mut reuse_n = 0u64;
    for ev in events {
        s.total_events += 1;
        let phase = s.phases.entry(ev.phase.clone()).or_default();
        phase.events += 1;
        let key = (ev.phase.clone(), ev.name.clone());
        match ev.kind {
            "span" => {
                let elapsed = ev.elapsed_ns.unwrap_or(0);
                phase.spans += 1;
                phase.span_total_ns += elapsed;
                s.spans.entry(key).or_default().observe(elapsed);
                s.slowest
                    .push((ev.phase.clone(), ev.name.clone(), elapsed, ev.seq));
            }
            "counter" => {
                let c = s.counters.entry(key).or_default();
                c.increments += 1;
                c.total += ev.delta.unwrap_or(0);
            }
            _ => {}
        }
        // Roll-up keys come from the shared registry (`stepping_core::events`),
        // the only names an emitter can pass, so the aggregator cannot drift
        // from the emitters.
        let is = |p: Phase, n: EventName, kind: &str| {
            ev.phase == p.as_str() && ev.name == n.as_str() && ev.kind == kind
        };
        if is(phase::CONSTRUCTION, event::CONSTRUCT_ITERATION, "span") {
            s.construction_iterations += 1;
            s.neurons_moved += field_u64(ev, "neurons_moved").unwrap_or(0);
            s.synapses_pruned += field_u64(ev, "synapses_pruned").unwrap_or(0);
            s.synapses_revived += field_u64(ev, "synapses_revived").unwrap_or(0);
        } else if is(phase::TRAINING, event::TRAIN_BATCHES, "counter") {
            s.train_batches += ev.delta.unwrap_or(0);
        } else if is(phase::TRAINING, event::DISTILL_BATCHES, "counter") {
            s.distill_batches += ev.delta.unwrap_or(0);
        } else if is(
            phase::CONSTRUCTION,
            event::CONSTRUCT_TRAIN_BATCHES,
            "counter",
        ) {
            s.construct_train_batches += ev.delta.unwrap_or(0);
        } else if is(phase::INFERENCE, event::DRIVE_SLICE, "span") {
            s.inference_slices += 1;
            s.upgrades += field_u64(ev, "upgrades").unwrap_or(0);
            let spent = field_u64(ev, "spent").unwrap_or(0);
            s.inference_macs += spent;
            if let Some(budget) = field_u64(ev, "budget").filter(|&b| b > 0) {
                s.budget_utilization.record(spent as f64 / budget as f64);
            }
        } else if is(phase::INFERENCE, event::EXEC_EXPAND, "span") {
            if let Some(r) = field_f64(ev, "reuse_ratio") {
                reuse_sum += r;
                reuse_n += 1;
            }
        }
    }
    if reuse_n > 0 {
        s.mean_reuse_ratio = Some(reuse_sum / reuse_n as f64);
    }
    s.slowest.sort_by(|a, b| b.2.cmp(&a.2).then(a.3.cmp(&b.3)));
    s.slowest.truncate(SLOWEST);
    s
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== stepping-obs report ==")?;
        writeln!(f, "events: {}", self.total_events)?;
        if !self.phases.is_empty() {
            writeln!(f, "\n-- per-phase --")?;
            writeln!(
                f,
                "  {:<14} {:>8} {:>8} {:>14}",
                "phase", "events", "spans", "span time (ms)"
            )?;
            for (name, p) in &self.phases {
                writeln!(
                    f,
                    "  {:<14} {:>8} {:>8} {:>14.3}",
                    name,
                    p.events,
                    p.spans,
                    ms(p.span_total_ns)
                )?;
            }
        }
        if self.construction_iterations > 0 {
            writeln!(f, "\n-- construction --")?;
            writeln!(
                f,
                "  iterations: {}  neurons moved: {}  synapses pruned: {}  revived: {}",
                self.construction_iterations,
                self.neurons_moved,
                self.synapses_pruned,
                self.synapses_revived
            )?;
            if self.construct_train_batches > 0 {
                writeln!(
                    f,
                    "  inner training batches: {}",
                    self.construct_train_batches
                )?;
            }
        }
        if self.train_batches > 0 || self.distill_batches > 0 {
            writeln!(f, "\n-- training --")?;
            writeln!(
                f,
                "  train batches: {}  distill batches: {}",
                self.train_batches, self.distill_batches
            )?;
        }
        if self.inference_slices > 0 || self.mean_reuse_ratio.is_some() {
            writeln!(f, "\n-- inference --")?;
            writeln!(
                f,
                "  slices: {}  upgrades: {}  MACs spent: {}",
                self.inference_slices, self.upgrades, self.inference_macs
            )?;
            if let Some(r) = self.mean_reuse_ratio {
                writeln!(f, "  mean expand cache-reuse: {:.1}%", r * 100.0)?;
            }
        }
        if self.budget_utilization.samples > 0 {
            writeln!(f, "\n-- budget utilization (spent/budget per slice) --")?;
            write!(f, "{}", self.budget_utilization.render())?;
        }
        if !self.slowest.is_empty() {
            writeln!(f, "\n-- slowest spans --")?;
            for (i, (phase, name, elapsed, seq)) in self.slowest.iter().enumerate() {
                writeln!(
                    f,
                    "  {}. {}/{} {:.3} ms (seq {})",
                    i + 1,
                    phase,
                    name,
                    ms(*elapsed),
                    seq
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_jsonl() -> String {
        [
            r#"{"seq":0,"ts_ns":10,"phase":"construction","name":"construct.iteration","kind":"span","elapsed_ns":5000,"fields":{"iteration":0,"neurons_moved":4,"synapses_pruned":7,"synapses_revived":1}}"#,
            r#"{"seq":1,"ts_ns":20,"phase":"training","name":"train.batches","kind":"counter","delta":8,"fields":{"subnet":0,"epoch":0}}"#,
            r#"{"seq":2,"ts_ns":30,"phase":"inference","name":"exec.expand","kind":"span","elapsed_ns":900,"fields":{"subnet":1,"reuse_ratio":0.8}}"#,
            r#"{"seq":3,"ts_ns":40,"phase":"inference","name":"drive.slice","kind":"span","elapsed_ns":2000,"fields":{"slice":0,"budget":100,"spent":75,"upgrades":2,"bank":25}}"#,
            r#"{"seq":4,"ts_ns":50,"phase":"inference","name":"drive.slice","kind":"span","elapsed_ns":1000,"fields":{"slice":1,"budget":100,"spent":100,"upgrades":0,"bank":0}}"#,
            "",
        ]
        .join("\n")
    }

    #[test]
    fn parse_jsonl_round_trips_kinds_and_fields() {
        let events = parse_jsonl(&sample_jsonl()).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].kind, "span");
        assert_eq!(events[0].elapsed_ns, Some(5000));
        assert_eq!(events[1].kind, "counter");
        assert_eq!(events[1].delta, Some(8));
        assert_eq!(
            events[3].field("spent").and_then(OwnedValue::as_u64),
            Some(75)
        );
    }

    #[test]
    fn parse_jsonl_reports_line_numbers() {
        let err = parse_jsonl("{\"seq\":0}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = parse_jsonl(&format!(
            "{}\nnot json\n",
            sample_jsonl().lines().next().unwrap()
        ))
        .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn summarize_rolls_up_phases_and_pipeline_totals() {
        let events = parse_jsonl(&sample_jsonl()).unwrap();
        let s = summarize(&events);
        assert_eq!(s.total_events, 5);
        assert_eq!(s.construction_iterations, 1);
        assert_eq!(s.neurons_moved, 4);
        assert_eq!(s.synapses_pruned, 7);
        assert_eq!(s.synapses_revived, 1);
        assert_eq!(s.train_batches, 8);
        assert_eq!(s.inference_slices, 2);
        assert_eq!(s.upgrades, 2);
        assert_eq!(s.inference_macs, 175);
        assert!((s.mean_reuse_ratio.unwrap() - 0.8).abs() < 1e-12);
        // utilization: 0.75 -> bucket 7, 1.0 -> overflow
        assert_eq!(s.budget_utilization.buckets[7], 1);
        assert_eq!(s.budget_utilization.buckets[10], 1);
        // slowest is the construction iteration
        assert_eq!(s.slowest[0].1, "construct.iteration");
        let inf = s.phases.get("inference").unwrap();
        assert_eq!(inf.events, 3);
        assert_eq!(inf.spans, 3);
        assert_eq!(inf.span_total_ns, 3900);
    }

    #[test]
    fn display_renders_all_sections() {
        let events = parse_jsonl(&sample_jsonl()).unwrap();
        let text = summarize(&events).to_string();
        for needle in [
            "per-phase",
            "construction",
            "train batches: 8",
            "slices: 2",
            "budget utilization",
            "slowest spans",
            "mean expand cache-reuse: 80.0%",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn empty_input_summarizes_cleanly() {
        let s = summarize(&[]);
        assert_eq!(s.total_events, 0);
        let text = s.to_string();
        assert!(text.contains("events: 0"));
        assert!(!text.contains("slowest"));
    }
}
