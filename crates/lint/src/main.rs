//! The `stepping-lint` binary. See `--help` or `docs/ANALYSIS.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use stepping_lint::{diag, run, Config};

const USAGE: &str = "\
stepping-lint — project-specific static analyzer for the SteppingNet workspace

USAGE:
    stepping-lint [OPTIONS] [PATHS...]

ARGS:
    [PATHS...]         Files or directories to scan. Default: crates/*/src,
                       crates/*/tests, src/ and tests/ under the current
                       directory.

OPTIONS:
    --json             Emit findings as a JSON report on stdout
    --baseline <FILE>  Accept findings listed in FILE (rule<TAB>file<TAB>message)
    --deny-warnings    Exit non-zero on warnings, not just errors
    -h, --help         Show this help

RULES:
    L2 shard-safety    shard_safe must classify every stage variant explicitly
    L3 determinism     no unordered/timing/thread-count constructs in shard zones
    L4 panic           no unwrap/expect/panic! in core/serve/exec library code
    L5 locks           no .lock().unwrap(), no nested lock under a held guard
    L6 telemetry       event and phase names must come from the central registry
    L7 unsafe-zone     unsafe only in tensor's microkernel.rs, each use with a
                       // SAFETY: comment naming the detected CPU feature

Suppress inline with `// lint:allow(L4)` (same line or the line above).
Details and rationale: docs/ANALYSIS.md.
";

fn main() -> ExitCode {
    let mut config = Config::default();
    let mut json = false;
    let mut deny_warnings = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--baseline" => {
                let Some(path) = args.next() else {
                    eprintln!("error: --baseline needs a file argument\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                config.baseline = Some(PathBuf::from(path));
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown option `{flag}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
            path => config.paths.push(PathBuf::from(path)),
        }
    }

    let result = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!(
            "{}",
            diag::render_json_report(&result.diags, result.baselined)
        );
    } else {
        for d in &result.diags {
            println!("{}", d.render_text());
        }
        println!(
            "stepping-lint: {} error(s), {} warning(s), {} baselined across {} files",
            result.errors(),
            result.warnings(),
            result.baselined,
            result.files_scanned
        );
    }

    if result.failed(deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
