//! Per-rule fixture tests: every rule must fire on its `bad` fixture and
//! stay silent on its `good` one.

use std::path::PathBuf;

use stepping_lint::diag::{Diagnostic, Severity};
use stepping_lint::{run, Config};

fn fixture(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel)
}

fn lint(rel: &str) -> Vec<Diagnostic> {
    let config = Config {
        paths: vec![fixture(rel)],
        baseline: None,
    };
    run(&config).expect("fixture scan").diags
}

fn messages(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| d.message.as_str())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn l2_fires_on_wildcard_and_unclassified_variants() {
    let diags = lint("l2/bad.rs");
    assert_eq!(diags.len(), 5, "{}", messages(&diags));
    assert!(diags
        .iter()
        .all(|d| d.rule == "L2" && d.severity == Severity::Error));
    let msgs = messages(&diags);
    assert!(msgs.contains("wildcard arm"));
    for variant in [
        "Stage::Conv",
        "Stage::Fixed",
        "FixedStage::Relu",
        "FixedStage::Dropout",
    ] {
        assert!(msgs.contains(variant), "missing diagnostic for {variant}");
    }
}

#[test]
fn l2_fires_on_matches_shortcut() {
    let diags = lint("l2/matches.rs");
    assert_eq!(diags.len(), 1, "{}", messages(&diags));
    assert!(diags[0].message.contains("`matches!`"));
}

#[test]
fn l2_fires_when_shard_safe_is_missing() {
    let diags = lint("l2/missing.rs");
    assert_eq!(diags.len(), 1, "{}", messages(&diags));
    assert!(diags[0].message.contains("no `shard_safe`"));
}

#[test]
fn l2_silent_on_explicit_exhaustive_classification() {
    let diags = lint("l2/good.rs");
    assert!(diags.is_empty(), "{}", messages(&diags));
}

#[test]
fn l3_fires_on_banned_idents_in_zone() {
    let diags = lint("l3/bad");
    // `Instant` twice (use + call) and `threads` twice (param + use).
    assert_eq!(diags.len(), 4, "{}", messages(&diags));
    assert!(diags
        .iter()
        .all(|d| d.rule == "L3" && d.severity == Severity::Error));
    let msgs = messages(&diags);
    assert!(msgs.contains("`Instant`"));
    assert!(msgs.contains("`threads`"));
}

#[test]
fn l3_silent_on_pure_reduction_with_timed_tests() {
    let diags = lint("l3/good");
    assert!(diags.is_empty(), "{}", messages(&diags));
}

#[test]
fn l4_fires_on_each_panic_form() {
    let diags = lint("l4/bad");
    assert_eq!(diags.len(), 5, "{}", messages(&diags));
    assert!(diags
        .iter()
        .all(|d| d.rule == "L4" && d.severity == Severity::Warning));
    let msgs = messages(&diags);
    for form in ["unwrap", "expect", "unreachable!", "todo!", "panic!"] {
        assert!(msgs.contains(form), "missing diagnostic for {form}");
    }
}

#[test]
fn l4_silent_on_typed_errors_and_test_unwraps() {
    let diags = lint("l4/good");
    assert!(diags.is_empty(), "{}", messages(&diags));
}

#[test]
fn l5_fires_on_unwrapped_lock_and_nested_acquisition() {
    let diags = lint("l5/bad");
    assert_eq!(diags.len(), 2, "{}", messages(&diags));
    assert!(diags
        .iter()
        .all(|d| d.rule == "L5" && d.severity == Severity::Warning));
    let msgs = messages(&diags);
    assert!(msgs.contains("`.lock().unwrap()`"));
    assert!(msgs.contains("guard `ga`"));
}

#[test]
fn l5_silent_on_dropped_guards_and_temporaries() {
    let diags = lint("l5/good");
    assert!(diags.is_empty(), "{}", messages(&diags));
}

#[test]
fn l6_fires_on_unregistered_names() {
    let diags = lint("l6/bad");
    assert_eq!(diags.len(), 6, "{}", messages(&diags));
    assert!(diags
        .iter()
        .all(|d| d.rule == "L6" && d.severity == Severity::Error));
    let msgs = messages(&diags);
    assert!(msgs.contains("\"train.bogus\""));
    assert!(msgs.contains("\"warmup\""));
    assert!(msgs.contains("`NOT_REGISTERED`"));
    assert!(msgs.contains("metric name \"serve.bogus_counter\""));
    assert!(msgs.contains("metric const `NOT_A_METRIC`"));
    assert!(msgs.contains("metric name \"router.bogus\""));
}

#[test]
fn l6_silent_on_registered_and_dynamic_names() {
    let diags = lint("l6/good");
    assert!(diags.is_empty(), "{}", messages(&diags));
}

#[test]
fn l6_reports_missing_registry() {
    // Scanning emission sites without the registry file is itself an error.
    let diags = lint("l6/bad/src/emit.rs");
    assert_eq!(diags.len(), 3, "{}", messages(&diags));
    assert!(diags
        .iter()
        .all(|d| d.message.contains("no event registry")));
}

#[test]
fn l7_fires_outside_the_zone_and_on_unjustified_unsafe() {
    let diags = lint("l7/bad");
    assert_eq!(diags.len(), 5, "{}", messages(&diags));
    assert!(diags
        .iter()
        .all(|d| d.rule == "L7" && d.severity == Severity::Error));
    let outside: Vec<_> = diags
        .iter()
        .filter(|d| d.message.contains("outside the unsafe zone"))
        .collect();
    assert_eq!(outside.len(), 2, "a justified block and an `unsafe fn`");
    assert!(outside
        .iter()
        .all(|d| d.file.ends_with("serve/src/fast.rs")));
    let kernel: Vec<_> = diags
        .iter()
        .filter(|d| d.file.ends_with("tensor/src/microkernel.rs"))
        .collect();
    // no comment; a comment separated by a blank line; a comment that does
    // not name the feature
    let lines: Vec<u32> = kernel.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![9, 15, 20], "{}", messages(&diags));
    assert!(kernel[2].message.contains("does not name the detected"));
    assert!(kernel[2].note.as_deref().unwrap_or("").contains("[avx2]"));
}

#[test]
fn l7_silent_on_justified_kernel_unsafe_and_test_allocators() {
    let diags = lint("l7/good");
    assert!(diags.is_empty(), "{}", messages(&diags));
}

#[test]
fn inline_suppressions_silence_only_their_lines() {
    let diags = lint("suppress");
    assert_eq!(diags.len(), 1, "{}", messages(&diags));
    assert_eq!(diags[0].rule, "L4");
    // Only the unwrap in `still_flagged` survives.
    assert_eq!(diags[0].line, 14);
}
