//! Structured diagnostics emitted by the static analyzer.
//!
//! Every problem the analyzer finds becomes a [`Violation`]: a rule id, a
//! severity, coordinates into the network (stage / neuron / synapse /
//! subnet) and a fix hint. A [`Report`] collects the violations of one
//! analysis run and renders them either as rustc-style text or as
//! machine-readable JSON (hand-rolled — the workspace has no JSON
//! dependency).

use std::fmt;

/// The invariant rule a [`Violation`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// R1 — incremental property: every masked/batch-norm stage's stored
    /// input assignment must equal the assignment derived from the upstream
    /// chain, so that `in_assign(i) <= out_assign(o)` legality is computed
    /// from true data and subnet `k` reuses subnet `k-1` bit-identically.
    R1Monotonicity,
    /// R2 — subnet nesting and unused-pool consistency: assignment values
    /// in range, subnet counts uniform, the cached feature assignment in
    /// sync with the final stage chain.
    R2Nesting,
    /// R3 — per-subnet MAC counts within the configured budgets `P_i`.
    R3MacBudget,
    /// R4 — mask/weight agreement: parameter tensor shapes match the
    /// assignment vectors, and no legal weight sits below the prune
    /// threshold while still mask-active.
    R4WeightMask,
    /// R5 — reachability: no active neuron without active incoming
    /// synapses, and every subnet head can see at least one feature.
    R5Reachability,
    /// R6 — checkpoint round-trip: save → load must reproduce identical
    /// assignments, masks and bytes (stable digest).
    R6Roundtrip,
    /// R7 — level-major order: in every masked layer index order equals
    /// `(assign, index)` order, so each subnet is a prefix of the layer and
    /// each step a contiguous range — the layout packed plans compile.
    R7LevelOrder,
}

impl Rule {
    /// Short id used in diagnostics, e.g. `"R1"`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::R1Monotonicity => "R1",
            Rule::R2Nesting => "R2",
            Rule::R3MacBudget => "R3",
            Rule::R4WeightMask => "R4",
            Rule::R5Reachability => "R5",
            Rule::R6Roundtrip => "R6",
            Rule::R7LevelOrder => "R7",
        }
    }

    /// Human-readable rule title.
    pub fn title(self) -> &'static str {
        match self {
            Rule::R1Monotonicity => "incremental property / assignment monotonicity",
            Rule::R2Nesting => "subnet nesting and unused-pool consistency",
            Rule::R3MacBudget => "per-subnet MAC budget",
            Rule::R4WeightMask => "mask/weight agreement",
            Rule::R5Reachability => "dead neurons and unreachable heads",
            Rule::R6Roundtrip => "checkpoint round-trip stability",
            Rule::R7LevelOrder => "level-major neuron order",
        }
    }

    /// All rules, in id order.
    pub fn all() -> [Rule; 7] {
        [
            Rule::R1Monotonicity,
            Rule::R2Nesting,
            Rule::R3MacBudget,
            Rule::R4WeightMask,
            Rule::R5Reachability,
            Rule::R6Roundtrip,
            Rule::R7LevelOrder,
        ]
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How serious a [`Violation`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but does not break the incremental property (e.g. a
    /// sub-threshold weight that should have been pruned).
    Warning,
    /// The invariant is broken; subnet outputs can no longer be trusted.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Coordinates of a [`Violation`] inside the network (all parts optional —
/// a budget overrun has a subnet but no stage, a byte-level checkpoint
/// mismatch has only an offset).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Location {
    /// Stage index into `SteppingNet::stages()`.
    pub stage: Option<usize>,
    /// Stage kind name (`"linear"`, `"conv"`, `"batch_norm1d"`, …).
    pub stage_name: Option<&'static str>,
    /// Output neuron / filter index within the stage.
    pub neuron: Option<usize>,
    /// Input neuron / channel index (identifies a synapse together with
    /// `neuron`).
    pub input: Option<usize>,
    /// Subnet index.
    pub subnet: Option<usize>,
    /// Byte offset into a serialized checkpoint.
    pub byte_offset: Option<usize>,
}

impl Location {
    /// A location naming just a stage.
    pub fn stage(index: usize, name: &'static str) -> Self {
        Location {
            stage: Some(index),
            stage_name: Some(name),
            ..Location::default()
        }
    }

    /// A location naming a neuron within a stage.
    pub fn neuron(index: usize, name: &'static str, neuron: usize) -> Self {
        Location {
            neuron: Some(neuron),
            ..Location::stage(index, name)
        }
    }

    /// A location naming a synapse (output, input) within a stage.
    pub fn synapse(index: usize, name: &'static str, neuron: usize, input: usize) -> Self {
        Location {
            input: Some(input),
            ..Location::neuron(index, name, neuron)
        }
    }

    /// A location naming a subnet only.
    pub fn subnet(subnet: usize) -> Self {
        Location {
            subnet: Some(subnet),
            ..Location::default()
        }
    }

    fn is_empty(&self) -> bool {
        *self == Location::default()
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(s) = self.stage {
            match self.stage_name {
                Some(n) => parts.push(format!("stage {s} ({n})")),
                None => parts.push(format!("stage {s}")),
            }
        }
        if let Some(n) = self.neuron {
            parts.push(format!("neuron {n}"));
        }
        if let Some(i) = self.input {
            parts.push(format!("input {i}"));
        }
        if let Some(k) = self.subnet {
            parts.push(format!("subnet {k}"));
        }
        if let Some(b) = self.byte_offset {
            parts.push(format!("byte {b}"));
        }
        f.write_str(&parts.join(", "))
    }
}

/// One finding of the static analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The rule that was violated.
    pub rule: Rule,
    /// Error (invariant broken) or warning (suspicious).
    pub severity: Severity,
    /// What exactly is wrong, with concrete values.
    pub message: String,
    /// Where in the network.
    pub location: Location,
    /// How to fix it.
    pub hint: String,
}

impl Violation {
    /// Renders the violation in rustc diagnostic style.
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.rule.id(), self.message);
        if !self.location.is_empty() {
            out.push_str(&format!("\n  --> {}", self.location));
        }
        if !self.hint.is_empty() {
            out.push_str(&format!("\n  = help: {}", self.hint));
        }
        out
    }
}

/// The outcome of one analysis run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All findings, in network order.
    pub violations: Vec<Violation>,
    /// Masked/batch-norm stages inspected.
    pub checked_stages: usize,
    /// Synapses (weight entries at mask granularity) inspected.
    pub checked_synapses: u64,
}

impl Report {
    /// Number of error-severity violations.
    pub fn error_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity violations.
    pub fn warning_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Warning)
            .count()
    }

    /// `true` when no *error* was found (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Violations of one rule.
    pub fn of_rule(&self, rule: Rule) -> Vec<&Violation> {
        self.violations.iter().filter(|v| v.rule == rule).collect()
    }

    /// Merges another report's findings and counters into this one.
    pub fn merge(&mut self, other: Report) {
        self.violations.extend(other.violations);
        self.checked_stages += other.checked_stages;
        self.checked_synapses += other.checked_synapses;
    }

    /// Renders all violations plus a summary line in rustc style.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.render());
            out.push_str("\n\n");
        }
        let (e, w) = (self.error_count(), self.warning_count());
        if e == 0 && w == 0 {
            out.push_str(&format!(
                "ok: all invariants hold ({} stages, {} synapses checked)\n",
                self.checked_stages, self.checked_synapses
            ));
        } else {
            out.push_str(&format!(
                "{e} error(s), {w} warning(s) ({} stages, {} synapses checked)\n",
                self.checked_stages, self.checked_synapses
            ));
        }
        out
    }

    /// Renders the report as a JSON object (machine-readable mode).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_str(v.rule.id())));
            out.push_str(&format!(
                "\"severity\": {}, ",
                json_str(&v.severity.to_string())
            ));
            out.push_str(&format!("\"message\": {}, ", json_str(&v.message)));
            out.push_str(&format!("\"hint\": {}, ", json_str(&v.hint)));
            out.push_str("\"location\": {");
            let loc = &v.location;
            let fields = [
                ("stage", loc.stage),
                ("neuron", loc.neuron),
                ("input", loc.input),
                ("subnet", loc.subnet),
                ("byte_offset", loc.byte_offset),
            ];
            let mut first = true;
            for (name, val) in fields {
                if let Some(val) = val {
                    if !first {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{name}\": {val}"));
                    first = false;
                }
            }
            if let Some(n) = loc.stage_name {
                if !first {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"stage_name\": {}", json_str(n)));
            }
            out.push_str("}}");
        }
        out.push_str("\n  ],\n");
        out.push_str(&format!("  \"errors\": {},\n", self.error_count()));
        out.push_str(&format!("  \"warnings\": {},\n", self.warning_count()));
        out.push_str(&format!("  \"checked_stages\": {},\n", self.checked_stages));
        out.push_str(&format!(
            "  \"checked_synapses\": {}\n",
            self.checked_synapses
        ));
        out.push_str("}\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Violation {
        Violation {
            rule: Rule::R1Monotonicity,
            severity: Severity::Error,
            message: "stored input assignment 2 != derived 1".into(),
            location: Location::synapse(3, "linear", 5, 7),
            hint: "call sync_assignments() after moving neurons".into(),
        }
    }

    #[test]
    fn renders_rustc_style() {
        let text = sample().render();
        assert!(text.starts_with("error[R1]: "), "{text}");
        assert!(
            text.contains("--> stage 3 (linear), neuron 5, input 7"),
            "{text}"
        );
        assert!(text.contains("= help: call sync_assignments"), "{text}");
    }

    #[test]
    fn report_counts_and_summary() {
        let mut r = Report::default();
        r.violations.push(sample());
        r.violations.push(Violation {
            severity: Severity::Warning,
            ..sample()
        });
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(!r.is_clean());
        assert!(r.render_text().contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn json_escapes_and_structure() {
        let mut r = Report {
            checked_stages: 2,
            checked_synapses: 64,
            ..Report::default()
        };
        r.violations.push(Violation {
            message: "quote \" backslash \\ newline \n".into(),
            ..sample()
        });
        let json = r.render_json();
        assert!(json.contains("\"rule\": \"R1\""), "{json}");
        assert!(json.contains("\\\" backslash \\\\ newline \\n"), "{json}");
        assert!(json.contains("\"checked_synapses\": 64"), "{json}");
        assert!(
            json.contains("\"stage\": 3, \"neuron\": 5, \"input\": 7"),
            "{json}"
        );
    }

    #[test]
    fn rule_ids_cover_all_seven() {
        let ids: Vec<&str> = Rule::all().iter().map(|r| r.id()).collect();
        assert_eq!(ids, ["R1", "R2", "R3", "R4", "R5", "R6", "R7"]);
        for r in Rule::all() {
            assert!(!r.title().is_empty());
        }
    }
}
