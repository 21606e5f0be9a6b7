//! Point-in-time metric snapshots: JSON and Prometheus rendering, parsing,
//! and snapshot-to-snapshot diffing.
//!
//! A [`Snapshot`] is what [`MetricsRegistry::snapshot`] returns: every
//! counter, gauge, and histogram with its rendered series name. It
//! round-trips through a single JSON line (the `.jsonl` format written by
//! [`SnapshotWriter`]) and renders to Prometheus text
//! exposition for scraping. [`diff`] subtracts two snapshots into interval
//! metrics — counters become deltas and rates, histograms become the
//! bucket-wise difference — which is how the bench harness and the
//! `stepping-metrics-report` CLI scope always-on totals to one run.
//!
//! The JSON parser is hand-rolled (the vendored `serde` is a stub) and is
//! the workspace's one JSON module: `stepping-obs`, which sits above this
//! crate in the dependency graph, renders and parses its JSONL event lines
//! with [`escape`], [`render_f64`] and [`json`] too.
//!
//! [`MetricsRegistry::snapshot`]: crate::MetricsRegistry::snapshot
//! [`SnapshotWriter`]: crate::SnapshotWriter

use std::fmt::Write as _;

use crate::hist::{HistSnapshot, BUCKET_COUNT};

/// A point-in-time copy of every metric in a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Snapshot sequence number within the registry.
    pub seq: u64,
    /// Monotonic nanoseconds since the registry was created.
    pub uptime_ns: u64,
    /// Registrations whose name failed validation (should be 0).
    pub invalid_names: u64,
    /// `(series name, total)` counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(series name, level)` gauge values, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(series name, histogram)` values, sorted by name.
    pub hists: Vec<(String, HistSnapshot)>,
}

impl Snapshot {
    /// Counter total by exact series name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Gauge level by exact series name, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram by exact series name, if present.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Merges every labeled series of histogram `base` (all
    /// `base{...}` plus a bare `base`) into one histogram — e.g. the
    /// cross-worker lock-wait distribution.
    pub fn hist_merged(&self, base: &str) -> HistSnapshot {
        let mut out = HistSnapshot::default();
        for (name, h) in &self.hists {
            if name == base || (name.starts_with(base) && name[base.len()..].starts_with('{')) {
                out.merge(h);
            }
        }
        out
    }

    /// Renders the snapshot as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"seq\": {}, \"uptime_ns\": {}, \"invalid_names\": {}, \"counters\": {{",
            self.seq, self.uptime_ns, self.invalid_names
        );
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {v}", escape(name));
        }
        out.push_str("}, \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {v}", escape(name));
        }
        out.push_str("}, \"histograms\": {");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let (p50, p90, p99, max) = h.percentiles();
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {max}, \
                 \"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}, \"buckets\": [",
                escape(name),
                h.count,
                h.sum,
            );
            let mut first = true;
            for (idx, &n) in h.buckets.iter().enumerate() {
                if n != 0 {
                    let sep = if first { "" } else { ", " };
                    let _ = write!(out, "{sep}[{idx}, {n}]");
                    first = false;
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot as Prometheus text exposition: counters and
    /// gauges as single samples, histograms as `quantile`-labeled summary
    /// series plus `_count`/`_sum`/`_max`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let (base, label) = split_series(name);
            let _ = writeln!(out, "# TYPE {} counter", prom_name(base));
            let _ = writeln!(out, "{}{} {v}", prom_name(base), prom_labels(label, None));
        }
        for (name, v) in &self.gauges {
            let (base, label) = split_series(name);
            let _ = writeln!(out, "# TYPE {} gauge", prom_name(base));
            let _ = writeln!(out, "{}{} {v}", prom_name(base), prom_labels(label, None));
        }
        for (name, h) in &self.hists {
            let (base, label) = split_series(name);
            let n = prom_name(base);
            let _ = writeln!(out, "# TYPE {n} summary");
            for (q, v) in [
                ("0.5", h.quantile(0.50)),
                ("0.9", h.quantile(0.90)),
                ("0.99", h.quantile(0.99)),
            ] {
                let _ = writeln!(out, "{n}{} {v}", prom_labels(label, Some(q)));
            }
            let _ = writeln!(out, "{n}_count{} {}", prom_labels(label, None), h.count);
            let _ = writeln!(out, "{n}_sum{} {}", prom_labels(label, None), h.sum);
            let _ = writeln!(out, "{n}_max{} {}", prom_labels(label, None), h.max);
        }
        out
    }

    /// Parses a snapshot previously rendered with [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn parse_json(line: &str) -> Result<Snapshot, String> {
        let value = json::parse(line)?;
        let mut snap = Snapshot {
            seq: value.field_u64("seq")?,
            uptime_ns: value.field_u64("uptime_ns")?,
            invalid_names: value.field_u64("invalid_names").unwrap_or(0),
            ..Snapshot::default()
        };
        if let Some(json::Json::Object(fields)) = value.get("counters") {
            for (name, v) in fields {
                snap.counters.push((name.clone(), v.as_u64().unwrap_or(0)));
            }
        }
        if let Some(json::Json::Object(fields)) = value.get("gauges") {
            for (name, v) in fields {
                snap.gauges.push((name.clone(), v.as_i64().unwrap_or(0)));
            }
        }
        if let Some(json::Json::Object(fields)) = value.get("histograms") {
            for (name, v) in fields {
                let mut h = HistSnapshot {
                    count: v.field_u64("count")?,
                    sum: v.field_u64("sum")?,
                    max: v.field_u64("max")?,
                    ..HistSnapshot::default()
                };
                if let Some(json::Json::Array(pairs)) = v.get("buckets") {
                    for pair in pairs {
                        if let json::Json::Array(p) = pair {
                            if p.len() == 2 {
                                let idx = p[0].as_u64().unwrap_or(0) as usize;
                                if idx < BUCKET_COUNT {
                                    h.buckets[idx] = p[1].as_u64().unwrap_or(0);
                                }
                            }
                        }
                    }
                }
                snap.hists.push((name.clone(), h));
            }
        }
        Ok(snap)
    }
}

/// Splits `name{key="value"}` into `(name, Some(key="value"))`.
fn split_series(series: &str) -> (&str, Option<&str>) {
    match series.find('{') {
        Some(i) => (&series[..i], Some(series[i + 1..].trim_end_matches('}'))),
        None => (series, None),
    }
}

/// Mangles a dotted metric name into a Prometheus identifier.
fn prom_name(base: &str) -> String {
    let mut out = String::with_capacity(base.len() + 9);
    out.push_str("stepping_");
    for c in base.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Renders a Prometheus label set from an optional `key="value"` fragment
/// plus an optional quantile label.
fn prom_labels(label: Option<&str>, quantile: Option<&str>) -> String {
    match (label, quantile) {
        (None, None) => String::new(),
        (Some(l), None) => format!("{{{l}}}"),
        (None, Some(q)) => format!("{{quantile=\"{q}\"}}"),
        (Some(l), Some(q)) => format!("{{{l},quantile=\"{q}\"}}"),
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a float as JSON: non-finite values become `null` (JSON has no
/// NaN/Infinity).
pub fn render_f64(x: f64) -> String {
    if x.is_finite() {
        // `{}` prints integers without a fraction ("1"), still valid JSON.
        format!("{x}")
    } else {
        "null".into()
    }
}

/// The change between two snapshots of the same registry.
#[derive(Debug, Clone, Default)]
pub struct SnapshotDiff {
    /// Uptime elapsed between the snapshots.
    pub elapsed_ns: u64,
    /// `(name, before, after)` for every counter present in `after`.
    pub counters: Vec<(String, u64, u64)>,
    /// `(name, before, after)` for every gauge present in `after`.
    pub gauges: Vec<(String, i64, i64)>,
    /// `(name, interval histogram)` — samples recorded between the two.
    pub hists: Vec<(String, HistSnapshot)>,
}

/// Subtracts `before` from `after`. Series absent from `before` (registered
/// mid-interval) diff against zero.
pub fn diff(before: &Snapshot, after: &Snapshot) -> SnapshotDiff {
    let mut out = SnapshotDiff {
        elapsed_ns: after.uptime_ns.saturating_sub(before.uptime_ns),
        ..SnapshotDiff::default()
    };
    for (name, v) in &after.counters {
        out.counters
            .push((name.clone(), before.counter(name).unwrap_or(0), *v));
    }
    for (name, v) in &after.gauges {
        out.gauges
            .push((name.clone(), before.gauge(name).unwrap_or(0), *v));
    }
    let empty = HistSnapshot::default();
    for (name, h) in &after.hists {
        let base = before.hist(name).unwrap_or(&empty);
        out.hists.push((name.clone(), h.since(base)));
    }
    out
}

impl SnapshotDiff {
    /// Renders the diff as an aligned human-readable report.
    pub fn render_text(&self) -> String {
        let secs = self.elapsed_ns as f64 / 1e9;
        let mut out = String::new();
        let _ = writeln!(out, "interval: {secs:.3}s");
        if !self.counters.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<48} {:>12} {:>12}  {:>12}",
                "counter", "delta", "total", "rate/s"
            );
            for (name, before, after) in &self.counters {
                let delta = after.saturating_sub(*before);
                let rate = if secs > 0.0 { delta as f64 / secs } else { 0.0 };
                let _ = writeln!(out, "{name:<48} {delta:>12} {after:>12}  {rate:>12.1}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "\n{:<48} {:>12} {:>12}", "gauge", "before", "after");
            for (name, before, after) in &self.gauges {
                let _ = writeln!(out, "{name:<48} {before:>12} {after:>12}");
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<48} {:>9} {:>10} {:>10} {:>10} {:>10}",
                "histogram (interval)", "count", "p50", "p90", "p99", "max"
            );
            for (name, h) in &self.hists {
                if h.is_empty() {
                    continue;
                }
                let (p50, p90, p99, max) = h.percentiles();
                let _ = writeln!(
                    out,
                    "{name:<48} {:>9} {p50:>10} {p90:>10} {p99:>10} {max:>10}",
                    h.count
                );
            }
        }
        out
    }
}

/// Minimal JSON parser for the snapshot schema (objects, arrays, strings,
/// integers, floats, booleans, null).
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (integers up to 2^53 are exact).
        Num(f64),
        /// String.
        Str(String),
        /// Array.
        Array(Vec<Json>),
        /// Object as an ordered list of `(key, value)` pairs.
        Object(Vec<(String, Json)>),
    }

    impl Json {
        /// Object field by key.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// Numeric value as `u64` (rounded, saturating at the ends).
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Json::Num(x) if *x >= 0.0 => Some(if *x >= u64::MAX as f64 {
                    u64::MAX
                } else {
                    x.round() as u64
                }),
                _ => None,
            }
        }

        /// Numeric value as `i64` (rounded, saturating).
        pub fn as_i64(&self) -> Option<i64> {
            match self {
                Json::Num(x) => Some(x.round().clamp(i64::MIN as f64, i64::MAX as f64) as i64),
                _ => None,
            }
        }

        /// Numeric value as `f64`.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(x) => Some(*x),
                _ => None,
            }
        }

        /// String value.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Boolean value.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Json::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// Required `u64` object field, with an error naming the key.
        pub fn field_u64(&self, key: &str) -> Result<u64, String> {
            self.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    skip_ws(b, pos);
                    expect(b, pos, b':')?;
                    let value = parse_value(b, pos)?;
                    fields.push((key, value));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Json::Null)
            }
            Some(_) => parse_number(b, pos),
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                _ => {
                    // copy one UTF-8 scalar
                    let start = *pos;
                    let len = utf8_len(b[start]);
                    let chunk = b
                        .get(start..start + len)
                        .ok_or_else(|| "truncated UTF-8".to_string())?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "bad UTF-8".to_string())?);
                    *pos += len;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut h = HistSnapshot::default();
        for v in [3u64, 80, 80, 4096] {
            h.observe(v);
        }
        Snapshot {
            seq: 4,
            uptime_ns: 2_000_000_000,
            invalid_names: 0,
            counters: vec![
                ("serve.cache_hit".into(), 12),
                ("serve.deadline_miss".into(), 1),
            ],
            gauges: vec![("serve.queue_depth".into(), 3)],
            hists: vec![("serve.lock_wait_ns{worker=\"0\"}".into(), h)],
        }
    }

    #[test]
    fn json_round_trips() {
        let snap = sample();
        let parsed = Snapshot::parse_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_contains_all_series() {
        let text = sample().to_prometheus();
        assert!(text.contains("stepping_serve_cache_hit 12"));
        assert!(text.contains("stepping_serve_queue_depth 3"));
        assert!(text.contains("stepping_serve_lock_wait_ns{worker=\"0\",quantile=\"0.99\"}"));
        assert!(text.contains("stepping_serve_lock_wait_ns_count{worker=\"0\"} 4"));
    }

    #[test]
    fn diff_subtracts_counters_and_buckets() {
        let before = sample();
        let mut after = before.clone();
        after.uptime_ns += 1_000_000_000;
        after.counters[0].1 = 20; // cache_hit 12 -> 20
        after.hists[0].1.observe(500);
        let d = diff(&before, &after);
        assert_eq!(d.elapsed_ns, 1_000_000_000);
        let cache = d.counters.iter().find(|(n, _, _)| n == "serve.cache_hit");
        assert_eq!(cache.map(|(_, b, a)| (*b, *a)), Some((12, 20)));
        let (_, interval) = &d.hists[0];
        assert_eq!(interval.count, 1);
        let text = d.render_text();
        assert!(text.contains("serve.cache_hit"));
        assert!(text.contains("interval"));
    }

    #[test]
    fn merged_series_sum_per_worker_histograms() {
        let mut snap = sample();
        let mut h1 = HistSnapshot::default();
        h1.observe(7);
        snap.hists
            .push(("serve.lock_wait_ns{worker=\"1\"}".into(), h1));
        let merged = snap.hist_merged("serve.lock_wait_ns");
        assert_eq!(merged.count, 5);
        // unrelated prefix must not match
        assert_eq!(snap.hist_merged("serve.lock").count, 0);
    }

    #[test]
    fn escaped_names_survive_the_round_trip() {
        let mut snap = Snapshot::default();
        snap.counters.push(("odd\"name\\x".into(), 7));
        let parsed = Snapshot::parse_json(&snap.to_json()).unwrap();
        assert_eq!(parsed.counter("odd\"name\\x"), Some(7));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn render_f64_is_json_safe() {
        assert_eq!(render_f64(1.5), "1.5");
        assert_eq!(render_f64(2.0), "2");
        assert_eq!(render_f64(f64::NAN), "null");
        assert_eq!(render_f64(f64::INFINITY), "null");
    }

    #[test]
    fn parse_reads_nested_values_of_every_kind() {
        let line = r#"{"seq":3,"name":"drive.slice","fields":{"budget":100,"ok":true,"ratio":0.5,"label":"x","none":null,"list":[1,[2]]}}"#;
        let v = json::parse(line).unwrap();
        assert_eq!(v.get("seq").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("name").unwrap().as_str(), Some("drive.slice"));
        let fields = v.get("fields").unwrap();
        assert_eq!(fields.get("budget").unwrap().as_u64(), Some(100));
        assert_eq!(fields.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(fields.get("ratio").unwrap().as_f64(), Some(0.5));
        assert_eq!(fields.get("label").unwrap().as_str(), Some("x"));
        assert_eq!(fields.get("none"), Some(&json::Json::Null));
        assert_eq!(
            fields.get("list"),
            Some(&json::Json::Array(vec![
                json::Json::Num(1.0),
                json::Json::Array(vec![json::Json::Num(2.0)]),
            ]))
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(json::parse("{").is_err());
        assert!(json::parse("{\"a\":}").is_err());
        assert!(json::parse("[1,2").is_err());
        assert!(json::parse("123 456").is_err());
        assert!(json::parse("nul").is_err());
    }

    #[test]
    fn parse_unescapes_strings() {
        let v = json::parse(r#""a\"b\n\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\nA"));
    }

    #[test]
    fn parse_negative_and_exponent_numbers() {
        assert_eq!(json::parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(json::parse("2.5e2").unwrap().as_f64(), Some(250.0));
        assert_eq!(json::parse("-3").unwrap().as_u64(), None);
    }
}
