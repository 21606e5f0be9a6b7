//! stepping-lint: a project-specific static analyzer for this workspace.
//!
//! PRs 4 and 5 introduced invariants that rustc cannot check —
//! shard-safety classification, determinism zones, panic and lock
//! discipline in the serving/exec hot paths, a central telemetry name
//! registry, and (PR 14) the one file allowed to contain `unsafe`. Each was
//! maintained by hand (doc comments, review checklists, property tests that
//! only fire on lucky inputs). This crate mechanizes them: it lexes and
//! scans the workspace's own sources with a hand-rolled lexer (the build is
//! offline, so there is no `syn`), runs six rules, and
//! reports findings with rustc-style diagnostics or JSON. (A seventh, L1
//! plan-epoch invalidation, was retired once the compiled model made that
//! invariant one rustc does check.)
//!
//! Run via `cargo run -q --release -p stepping-lint -- --deny-warnings`
//! (what `scripts/check.sh` does) or see `stepping-lint --help`.
//!
//! Suppressions: `// lint:allow(L4)` silences a rule on its own line and
//! the line below. Baseline: `--baseline lint-baseline.txt` accepts listed
//! legacy findings without failing (empty at HEAD, by policy).

pub mod baseline;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scan;

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use diag::{Diagnostic, Severity};
use scan::FileModel;

/// One lint run's configuration.
#[derive(Debug, Default)]
pub struct Config {
    /// Files or directories to scan; empty means the workspace default
    /// (`crates/*/{src,tests}` and `{src,tests}/` under the current
    /// directory).
    pub paths: Vec<PathBuf>,
    /// Baseline file of accepted findings.
    pub baseline: Option<PathBuf>,
}

/// Outcome of a run, before rendering.
#[derive(Debug)]
pub struct RunResult {
    /// Findings after suppressions and baseline, sorted.
    pub diags: Vec<Diagnostic>,
    /// Findings swallowed by the baseline.
    pub baselined: usize,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

impl RunResult {
    pub fn errors(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.diags.len() - self.errors()
    }

    /// Should the process fail? Errors always do; warnings only when
    /// denied.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        self.errors() > 0 || (deny_warnings && self.warnings() > 0)
    }
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git"];

/// Expands files/dirs into a sorted list of `.rs` files.
pub fn collect_files(paths: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            walk(p, &mut files)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            files.push(p.clone());
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The default scan set: every workspace crate's `src/` and `tests/` plus
/// the root package's, relative to `root`. The `tests/` trees are there for
/// rule L7 (no other rule's scope reaches them); fixture directories below
/// them are skipped like everywhere else.
pub fn default_paths(root: &Path) -> Vec<PathBuf> {
    let mut packages = Vec::new();
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        packages.extend(entries.filter_map(|e| e.ok()).map(|e| e.path()));
        packages.sort();
    }
    packages.push(root.to_path_buf());
    packages
        .iter()
        .flat_map(|p| [p.join("src"), p.join("tests")])
        .filter(|p| p.is_dir())
        .collect()
}

/// Runs the analyzer; I/O errors (unreadable path, bad baseline file)
/// surface as `Err`, findings as `Ok`.
pub fn run(config: &Config) -> io::Result<RunResult> {
    let paths = if config.paths.is_empty() {
        default_paths(Path::new("."))
    } else {
        config.paths.clone()
    };
    let files = collect_files(&paths)?;
    let mut models = Vec::with_capacity(files.len());
    for f in &files {
        let src = fs::read_to_string(f)?;
        models.push(FileModel::build(&f.to_string_lossy(), &src));
    }
    let files_scanned = models.len();
    let ws = rules::Workspace::new(models);
    let mut diags = rules::run_all(&ws);
    diags.retain(|d| !suppressed(&ws, d));

    let baseline_set: HashSet<String> = match &config.baseline {
        Some(p) => baseline::parse(&fs::read_to_string(p)?),
        None => HashSet::new(),
    };
    let (mut diags, baselined) = baseline::apply(diags, &baseline_set);
    diag::sort(&mut diags);
    Ok(RunResult {
        diags,
        baselined,
        files_scanned,
    })
}

/// Is the finding silenced by an inline `// lint:allow(...)` on its line
/// or the line above?
fn suppressed(ws: &rules::Workspace, d: &Diagnostic) -> bool {
    let Some(file) = ws.files.iter().find(|f| f.path == d.file) else {
        return false;
    };
    file.suppressions.iter().any(|s| {
        (s.line == d.line || s.line + 1 == d.line)
            && s.rules.iter().any(|r| r == d.rule || r == "all")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_skips_fixture_and_vendor_dirs() {
        let dir = std::env::temp_dir().join(format!("lint-walk-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("src")).unwrap();
        fs::create_dir_all(dir.join("vendor")).unwrap();
        fs::create_dir_all(dir.join("fixtures")).unwrap();
        fs::write(dir.join("src/a.rs"), "fn a() {}").unwrap();
        fs::write(dir.join("vendor/b.rs"), "fn b() {}").unwrap();
        fs::write(dir.join("fixtures/c.rs"), "fn c() {}").unwrap();
        let files = collect_files(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(files.len(), 1);
        assert!(files[0].ends_with("src/a.rs"));
        let _ = fs::remove_dir_all(&dir);
    }
}
