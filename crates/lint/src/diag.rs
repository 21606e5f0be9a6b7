//! Diagnostics: severity, rustc-style text rendering, and JSON output.

use std::fmt::Write as _;

/// Diagnostic severity. Errors always fail the run; warnings fail it only
/// under `--deny-warnings` (which `scripts/check.sh` passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, anchored to a file position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule id, e.g. `"L2"`.
    pub rule: &'static str,
    pub severity: Severity,
    pub file: String,
    /// 1-based.
    pub line: u32,
    /// 1-based.
    pub col: u32,
    pub message: String,
    /// Extra `= note:` guidance (usually a pointer into docs/ANALYSIS.md).
    pub note: Option<String>,
    /// The source line, for the snippet block.
    pub snippet: Option<String>,
    /// Width of the caret underline (defaults to 1).
    pub span_len: u32,
}

impl Diagnostic {
    /// Stable identity used for baseline matching: rule + file + message,
    /// *not* line/col, so a baseline survives unrelated edits above the
    /// finding.
    pub fn baseline_key(&self) -> String {
        format!("{}\t{}\t{}", self.rule, self.file, self.message)
    }

    /// Renders the diagnostic rustc-style:
    ///
    /// ```text
    /// error[L2]: `matches!` in `shard_safe` hides variants from the exhaustiveness check
    ///   --> crates/core/src/stage.rs:160:9
    ///     |
    /// 160 |         matches!(self, Stage::Linear(_) | Stage::Conv(_))
    ///     |         ^
    ///    = note: ...
    /// ```
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{}[{}]: {}",
            self.severity.as_str(),
            self.rule,
            self.message
        );
        let _ = writeln!(s, "  --> {}:{}:{}", self.file, self.line, self.col);
        if let Some(snippet) = &self.snippet {
            let num = self.line.to_string();
            let pad = " ".repeat(num.len());
            let _ = writeln!(s, "{pad} |");
            let _ = writeln!(s, "{num} | {snippet}");
            let caret_pad = " ".repeat(self.col.saturating_sub(1) as usize);
            let carets = "^".repeat(self.span_len.max(1) as usize);
            let _ = writeln!(s, "{pad} | {caret_pad}{carets}");
        }
        if let Some(note) = &self.note {
            let _ = writeln!(s, "   = note: {note}");
        }
        s
    }

    /// Renders one JSON object (no trailing newline).
    pub fn render_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"rule\":{},", json_str(self.rule));
        let _ = write!(s, "\"severity\":{},", json_str(self.severity.as_str()));
        let _ = write!(s, "\"file\":{},", json_str(&self.file));
        let _ = write!(s, "\"line\":{},", self.line);
        let _ = write!(s, "\"col\":{},", self.col);
        let _ = write!(s, "\"message\":{}", json_str(&self.message));
        if let Some(note) = &self.note {
            let _ = write!(s, ",\"note\":{}", json_str(note));
        }
        s.push('}');
        s
    }
}

/// Renders a full run as a JSON document: findings plus a summary object.
pub fn render_json_report(diags: &[Diagnostic], baselined: usize) -> String {
    let mut s = String::from("{\"findings\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&d.render_json());
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    let _ = write!(
        s,
        "],\"summary\":{{\"errors\":{errors},\"warnings\":{warnings},\"baselined\":{baselined}}}}}"
    );
    s
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_str(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len() + 2);
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

/// Orders diagnostics for stable output: file, line, col, rule.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: "L4",
            severity: Severity::Warning,
            file: "crates/core/src/x.rs".into(),
            line: 12,
            col: 9,
            message: "`unwrap` in non-test library code".into(),
            note: Some("return a typed SteppingError instead".into()),
            snippet: Some("    let x = y.unwrap();".into()),
            span_len: 6,
        }
    }

    #[test]
    fn text_rendering_shape() {
        let text = sample().render_text();
        assert!(text.starts_with("warning[L4]: "));
        assert!(text.contains("--> crates/core/src/x.rs:12:9"));
        assert!(text.contains("12 |     let x = y.unwrap();"));
        assert!(text.contains("^^^^^^"));
        assert!(text.contains("= note: return a typed"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut d = sample();
        d.message = "a \"quoted\"\nmessage\\".into();
        let json = d.render_json();
        assert!(json.contains("\"rule\":\"L4\""));
        assert!(json.contains("a \\\"quoted\\\"\\nmessage\\\\"));
        assert!(json.contains("\"line\":12"));
    }

    #[test]
    fn report_summary_counts() {
        let report = render_json_report(&[sample()], 2);
        assert!(report.contains("\"errors\":0"));
        assert!(report.contains("\"warnings\":1"));
        assert!(report.contains("\"baselined\":2"));
    }
}
