//! CLI for the workspace invariant checker.
//!
//! ```text
//! maps-lint [--root <dir>] [--json]
//! maps-lint --explain <RULE>
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = could not run (I/O error,
//! malformed allowlist, bad usage, unknown `--explain` rule).

use std::path::PathBuf;
use std::process::ExitCode;

const HELP: &str = "\
maps-lint: workspace invariant checker (token rules + call-graph rules)

usage: maps-lint [--root <dir>] [--json]
       maps-lint --explain <RULE>

options:
  --root <dir>     repository root to lint (default: current directory)
  --json           print the machine-readable report (version 2 schema,
                   violations carry their root->sink call chain) instead
                   of human-readable diagnostics
  --explain RULE   print the rationale and a minimal example for one rule,
                   then exit; known rules:
                   DET-001 DET-002 DET-003 PERF-001 SAFE-001 PANIC-001
                   PANIC-002 ALLOC-001 IO-001 ALLOW-001
  -h, --help       this text

exit codes:
  0  clean: no findings (after lint.allow absorption)
  1  findings: at least one diagnostic was printed
  2  could not run: I/O error, malformed lint.allow, bad usage, or an
     unknown rule passed to --explain
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--explain" => {
                let Some(rule) = args.next() else {
                    return usage("--explain needs a rule ID (e.g. PANIC-002)");
                };
                return match maps_lint::explain::explain(&rule) {
                    Some(text) => {
                        print!("{text}");
                        ExitCode::SUCCESS
                    }
                    None => usage(&format!(
                        "unknown rule {rule:?}; known rules: {}",
                        maps_lint::explain::RULE_IDS.join(" ")
                    )),
                };
            }
            "-h" | "--help" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let report = match maps_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("maps-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", report.to_json().to_pretty());
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        eprintln!(
            "maps-lint: {} file(s), {} fn(s), {} finding(s), {} allowlisted",
            report.files_scanned,
            report.fns_indexed,
            report.diagnostics.len(),
            report.absorbed
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("maps-lint: {problem}\nusage: maps-lint [--root <dir>] [--json] [--explain RULE]");
    ExitCode::from(2)
}
