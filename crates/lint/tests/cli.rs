//! End-to-end tests of the `stepping-lint` binary: exit codes, text and
//! JSON rendering (golden files), `--deny-warnings`, and `--baseline`.
//!
//! All invocations run with the fixtures directory as the working
//! directory so reported paths are relative and the goldens deterministic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stepping-lint"))
        .args(args)
        .current_dir(fixtures())
        .output()
        .expect("spawn stepping-lint")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_exits_zero_and_lists_rules() {
    let out = lint(&["--help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("USAGE"));
    assert!(!text.contains("L1"), "L1 is retired");
    for rule in ["L2", "L3", "L4", "L5", "L6", "L7"] {
        assert!(text.contains(rule), "help is missing {rule}");
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = lint(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unreadable_path_is_an_io_error() {
    let out = lint(&["no/such/dir"]);
    // A missing directory is silently empty (collect finds no .rs files),
    // but a missing baseline file must be a hard error.
    assert!(out.status.success());
    let out = lint(&["--baseline", "no-such-baseline.txt", "l2/matches.rs"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn clean_fixture_exits_zero() {
    let out = lint(&["l2/good.rs"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("0 error(s), 0 warning(s)"));
}

#[test]
fn errors_fail_even_without_deny_warnings() {
    let out = lint(&["l2/matches.rs"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("error[L2]"));
}

#[test]
fn warnings_fail_only_under_deny_warnings() {
    let out = lint(&["l4/bad"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("warning[L4]"));

    let out = lint(&["--deny-warnings", "l4/bad"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn baseline_swallows_listed_findings() {
    let out = lint(&["--baseline", "baseline.txt", "l2/matches.rs"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("1 baselined"));
}

/// Text and JSON rendering, byte for byte, on the L7 fixture.
#[test]
fn unsafe_zone_rendering_matches_golden() {
    let out = lint(&["l7/bad"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(stdout(&out), golden("l7_bad.txt"));
    let out = lint(&["--json", "l7/bad"]);
    assert_eq!(stdout(&out), golden("l7_bad.json"));
}
