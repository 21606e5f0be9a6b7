//! The six workspace rules. Each rule is a pure function from the scanned
//! workspace to diagnostics; `run_all` concatenates them. (L1, plan-epoch,
//! was retired with the per-layer plan caches it policed; the numbers
//! L2–L7 are kept.)
//!
//! | rule | invariant | origin |
//! |------|-----------|--------|
//! | L2   | shard-safety: `shard_safe` classifies every stage variant | PR 5 |
//! | L3   | determinism hygiene in shard/reduce zones | PR 5 |
//! | L4   | panic discipline in library hot paths | PRs 3–5 |
//! | L5   | lock discipline around the serve job queue | PR 3 |
//! | L6   | telemetry names come from the central registry | PR 5 |
//! | L7   | unsafe-zone: `unsafe` only in the GEMM microkernel, every use justified | PR 14 |

pub mod l2_shard_safety;
pub mod l3_determinism;
pub mod l4_panic;
pub mod l5_locks;
pub mod l6_telemetry;
pub mod l7_unsafe_zone;

use crate::diag::{Diagnostic, Severity};
use crate::lexer::Token;
use crate::scan::FileModel;

/// The scanned workspace handed to every rule.
#[derive(Debug)]
pub struct Workspace {
    pub files: Vec<FileModel>,
}

impl Workspace {
    pub fn new(files: Vec<FileModel>) -> Workspace {
        Workspace { files }
    }
}

/// Runs every rule over the workspace.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    diags.extend(l2_shard_safety::run(ws));
    diags.extend(l3_determinism::run(ws));
    diags.extend(l4_panic::run(ws));
    diags.extend(l5_locks::run(ws));
    diags.extend(l6_telemetry::run(ws));
    diags.extend(l7_unsafe_zone::run(ws));
    diags
}

/// Forward-slash path for suffix/contains matching regardless of platform.
pub(crate) fn norm_path(path: &str) -> String {
    path.replace('\\', "/")
}

/// Builds a diagnostic anchored at token `tok` of `file`.
pub(crate) fn diag_at(
    file: &FileModel,
    tok: &Token,
    rule: &'static str,
    severity: Severity,
    message: String,
    note: Option<String>,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity,
        file: file.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
        note,
        snippet: file.line_text(tok.line).map(str::to_string),
        span_len: tok.text.chars().count().max(1) as u32,
    }
}

/// Builds a diagnostic anchored at an explicit line/col of `file`.
pub(crate) fn diag_at_pos(
    file: &FileModel,
    line: u32,
    col: u32,
    rule: &'static str,
    severity: Severity,
    message: String,
    note: Option<String>,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity,
        file: file.path.clone(),
        line,
        col,
        message,
        note,
        snippet: file.line_text(line).map(str::to_string),
        span_len: 1,
    }
}

/// Is `toks[i]` the method-call `ident` — i.e. `.ident(`?
pub(crate) fn is_method_call(toks: &[Token], i: usize, ident: &str) -> bool {
    toks[i].is_ident(ident)
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// Is `toks[i]` a call to the macro `ident` — i.e. `ident!(`/`ident![`?
pub(crate) fn is_macro_call(toks: &[Token], i: usize, ident: &str) -> bool {
    toks[i].is_ident(ident) && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
}

/// Returns one past the matching closer for the opener at `toks[i]`.
pub(crate) fn skip_balanced(toks: &[Token], i: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}
