//! **L7 — unsafe zone.**
//!
//! The workspace was `unsafe`-free until the GEMM microkernel gained an
//! AVX2 tier (PR 14): `std::arch` loads take raw pointers, and calling a
//! `#[target_feature]` function is only sound on a CPU that has the
//! feature. Nothing in the sandbox detects undefined behaviour, so the
//! discipline is structural:
//!
//! * `unsafe` may appear in exactly one library file,
//!   `crates/tensor/src/microkernel.rs`, which keeps the types and checks
//!   its blocks rely on private. The one other home is a
//!   `#[global_allocator]` counting helper under a `tests/` directory
//!   (`GlobalAlloc` is an `unsafe trait`).
//! * every `unsafe` block or `unsafe impl` in those places carries a
//!   `// SAFETY:` comment directly above it, and in the kernel file that
//!   comment names the CPU feature the file detects at run time
//!   (`is_x86_feature_detected!("avx2")`) — the fact the block's soundness
//!   hangs on. Methods of an `unsafe impl` are exempt: the trait dictates
//!   their `unsafe fn` signature.

use super::{diag_at, is_macro_call, norm_path, Workspace};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokKind;
use crate::scan::FileModel;

/// The one library file allowed to contain `unsafe`.
const KERNEL: &str = "crates/tensor/src/microkernel.rs";

const DOC: &str = "see docs/ANALYSIS.md#l7-unsafe-zone";

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        let path = norm_path(&file.path);
        let kernel = path.ends_with(KERNEL);
        let alloc_helper =
            under_tests_dir(&path) && file.tokens.iter().any(|t| t.is_ident("global_allocator"));
        let features = if kernel {
            detected_features(file)
        } else {
            Vec::new()
        };
        for (i, tok) in file.tokens.iter().enumerate() {
            if !tok.is_ident("unsafe") {
                continue;
            }
            if !kernel && !alloc_helper {
                diags.push(diag_at(
                    file,
                    tok,
                    "L7",
                    Severity::Error,
                    "`unsafe` outside the unsafe zone".into(),
                    Some(format!(
                        "only `{KERNEL}` (and `#[global_allocator]` helpers under `tests/`) \
                         may use `unsafe`; {DOC}"
                    )),
                ));
                continue;
            }
            let trait_method = file.tokens.get(i + 1).is_some_and(|t| t.is_ident("fn"))
                && file
                    .fns
                    .iter()
                    .any(|f| f.line == tok.line && f.impl_trait.is_some());
            if trait_method {
                continue;
            }
            match file.safety_comment_above(tok.line) {
                None => diags.push(diag_at(
                    file,
                    tok,
                    "L7",
                    Severity::Error,
                    "`unsafe` without a `// SAFETY:` comment directly above it".into(),
                    Some(format!(
                        "state why the operation's requirements hold; {DOC}"
                    )),
                )),
                Some(text) if kernel && !features.iter().any(|f| text.contains(f.as_str())) => {
                    diags.push(diag_at(
                        file,
                        tok,
                        "L7",
                        Severity::Error,
                        "`// SAFETY:` comment does not name the detected CPU feature".into(),
                        Some(format!(
                            "this file detects [{}] with `is_x86_feature_detected!`; say which \
                             one the block relies on; {DOC}",
                            features.join(", ")
                        )),
                    ));
                }
                Some(_) => {}
            }
        }
    }
    diags
}

/// Is the file inside a `tests` directory (and not in a `src` tree nested
/// below one, as this crate's own fixtures are)?
fn under_tests_dir(path: &str) -> bool {
    let dirs: Vec<&str> = path.split('/').collect();
    let dirs = &dirs[..dirs.len().saturating_sub(1)];
    match dirs.iter().rposition(|d| *d == "tests") {
        Some(at) => !dirs[at + 1..].contains(&"src"),
        None => false,
    }
}

/// The feature names this file passes to `is_x86_feature_detected!`.
fn detected_features(file: &FileModel) -> Vec<String> {
    let toks = &file.tokens;
    let mut features = Vec::new();
    for i in 0..toks.len() {
        if !is_macro_call(toks, i, "is_x86_feature_detected") {
            continue;
        }
        // ident ! ( "feature" )
        if let Some(name) = toks.get(i + 3).filter(|t| t.kind == TokKind::Str) {
            if !features.contains(&name.text) {
                features.push(name.text.clone());
            }
        }
    }
    features
}
