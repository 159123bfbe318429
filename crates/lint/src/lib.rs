//! `maps-lint`: the workspace invariant checker.
//!
//! The repo's headline guarantees — bit-identical capture/replay, a
//! lockstep differential oracle, zero-cost `NullSink`/`NullObserver`
//! instrumentation — rest on *source-level* invariants that no compiler
//! pass enforces. This crate checks them mechanically in two layers:
//!
//! 1. **Per-file token rules** ([`rules`]): a dependency-free,
//!    comment/string-aware token scanner ([`lexer`]) feeds the numbered
//!    DET/PERF/SAFE/PANIC/IO rule set. Files are lexed and scanned in
//!    parallel via `maps_bench::parallel_map`; allowlist budgets are
//!    applied in a sequential post-pass so `max=` consumption stays
//!    deterministic.
//! 2. **Workspace reachability rules** ([`graph`]): a lightweight item
//!    model ([`items`]) — fns, impls, trait impls, `use` renames — feeds
//!    a heuristic call graph, on which PANIC-002/ALLOC-001 (hot-path
//!    panic/allocation freedom) and DET-003 (transitive ambient-state
//!    taint) are evaluated, each diagnostic carrying its root→sink call
//!    chain.
//!
//! Deliberate exceptions live in a checked-in allowlist ([`allowlist`]),
//! and `scripts/lint.sh` / the `lint-invariants` CI job fail the build on
//! any new finding. See DESIGN.md §10 for the token rule catalogue and
//! §15 for the call-graph model and reachability rules.

pub mod allowlist;
pub mod explain;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

pub use allowlist::{Allowlist, AllowlistError};
pub use rules::{lint_source, Diagnostic};

use maps_obs::Json;

/// Directory names never descended into.
const SKIP_DIRS: [&str; 3] = ["target", "vendor", "fixtures"];

/// Directories under the repo root that hold lintable sources.
const WALK_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Result of linting the whole workspace.
#[derive(Debug)]
pub struct Report {
    /// Unallowlisted findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of functions indexed into the call graph.
    pub fns_indexed: usize,
    /// Findings absorbed by allowlist entries.
    pub absorbed: u32,
}

impl Report {
    /// Whether the gate passes.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Machine-readable form (schema: `{version, files_scanned,
    /// fns_indexed, absorbed, violations: [{rule, file, line, message,
    /// chain}]}`; `chain` is the root→sink call path for reachability
    /// rules, empty for token rules).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".to_string(), Json::UInt(2)),
            (
                "files_scanned".to_string(),
                Json::UInt(self.files_scanned as u64),
            ),
            (
                "fns_indexed".to_string(),
                Json::UInt(self.fns_indexed as u64),
            ),
            ("absorbed".to_string(), Json::UInt(u64::from(self.absorbed))),
            (
                "violations".to_string(),
                Json::Arr(
                    self.diagnostics
                        .iter()
                        .map(|d| {
                            Json::Obj(vec![
                                ("rule".to_string(), Json::Str(d.rule.to_string())),
                                ("file".to_string(), Json::Str(d.file.clone())),
                                ("line".to_string(), Json::UInt(u64::from(d.line))),
                                ("message".to_string(), Json::Str(d.message.clone())),
                                (
                                    "chain".to_string(),
                                    Json::Arr(
                                        d.chain.iter().map(|c| Json::Str(c.clone())).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A failure to run the lint at all (distinct from findings).
#[derive(Debug)]
pub enum LintError {
    /// Reading a source file or directory failed.
    Io {
        /// The path that failed.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The allowlist file is malformed.
    Allowlist(AllowlistError),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            LintError::Allowlist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Lints every workspace source file under `root`, applying the allowlist
/// at `root/lint.allow` (an absent file means no exceptions).
///
/// # Errors
///
/// Fails on I/O errors and on a malformed allowlist — never on rule
/// findings, which are returned in the [`Report`].
pub fn lint_workspace(root: &Path) -> Result<Report, LintError> {
    let allow_path = root.join("lint.allow");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => Allowlist::parse(&text).map_err(LintError::Allowlist)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Allowlist::empty(),
        Err(e) => {
            return Err(LintError::Io {
                path: allow_path,
                source: e,
            })
        }
    };
    let mut files = Vec::new();
    for dir in WALK_ROOTS {
        let d = root.join(dir);
        if d.is_dir() {
            collect_rs_files(&d, &mut files)?;
        }
    }
    // Filesystem enumeration order is OS-dependent; the linter holds
    // itself to its own determinism bar.
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| LintError::Io {
            path: path.clone(),
            source: e,
        })?;
        sources.push(SourceFile {
            path: rel_unix_path(root, path),
            text,
        });
    }
    Ok(lint_files(sources, &allow))
}

/// One in-memory source file for [`lint_files`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes (drives rule scoping).
    pub path: String,
    /// Full source text.
    pub text: String,
}

/// Lints a set of in-memory sources: the full v2 pass — parallel per-file
/// token rules, then the workspace call-graph rules, then ALLOW-001 —
/// exactly as [`lint_workspace`] runs it on disk. Public so the mutation
/// gate tests can re-lint the real workspace with seeded regressions
/// without touching the checkout.
pub fn lint_files(sources: Vec<SourceFile>, allow: &Allowlist) -> Report {
    let files_scanned = sources.len();
    // Lex + token rules + item extraction are embarrassingly parallel;
    // `parallel_map` preserves input order, so the sequential absorption
    // pass below consumes `max=` budgets identically to a serial run.
    let per_file = maps_bench::parallel_map(sources, |f| {
        let lexed = lexer::lex(&f.text);
        let regions = rules::test_regions(&lexed.toks);
        let raw = rules::lint_tokens(&f.path, &lexed, &regions);
        let model = items::parse_items(&f.path, &lexed.toks, &regions);
        (raw, model)
    });
    let mut diagnostics = Vec::new();
    let mut models = Vec::with_capacity(per_file.len());
    for (raw, model) in per_file {
        diagnostics.extend(rules::absorb(raw, allow));
        models.push(model);
    }
    let ws = graph::Workspace::build(models);
    let fns_indexed = ws.len();
    diagnostics.extend(rules::absorb(graph::graph_rules(&ws), allow));
    for e in allow.unused() {
        diagnostics.push(Diagnostic {
            rule: "ALLOW-001",
            file: "lint.allow".to_string(),
            line: e.line,
            message: format!(
                "allowlist entry `{} {}` absorbed no findings: the exception is stale, \
                 remove it",
                e.rule, e.path
            ),
            chain: Vec::new(),
        });
    }
    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Report {
        diagnostics,
        files_scanned,
        fns_indexed,
        absorbed: allow.absorbed(),
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir).map_err(|e| LintError::Io {
        path: dir.to_path_buf(),
        source: e,
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io {
            path: dir.to_path_buf(),
            source: e,
        })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_unix_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, rel: &str, text: &str) {
        let p = dir.join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(p, text).unwrap();
    }

    fn temp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("maps-lint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn seeded_violation_fails_the_gate_and_allowlisting_clears_it() {
        let root = temp_root("seeded");
        write(
            &root,
            "crates/cache/src/bad.rs",
            "use std::collections::HashMap;\n",
        );
        let report = lint_workspace(&root).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.diagnostics[0].rule, "DET-001");
        assert_eq!(report.diagnostics[0].file, "crates/cache/src/bad.rs");

        write(
            &root,
            "lint.allow",
            "DET-001 crates/cache/src/bad.rs # demo\n",
        );
        let report = lint_workspace(&root).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.absorbed, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stale_allowlist_entries_fail_the_gate() {
        let root = temp_root("stale");
        write(&root, "crates/mem/src/ok.rs", "pub fn f() {}\n");
        write(
            &root,
            "lint.allow",
            "DET-001 crates/mem/src/gone.rs # old\n",
        );
        let report = lint_workspace(&root).unwrap();
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule, "ALLOW-001");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn malformed_allowlist_is_an_error_not_a_finding() {
        let root = temp_root("badallow");
        write(&root, "lint.allow", "DET-001 path.rs nonsense=1 # x\n");
        assert!(matches!(
            lint_workspace(&root),
            Err(LintError::Allowlist(_))
        ));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn vendor_target_and_fixture_dirs_are_skipped() {
        let root = temp_root("skips");
        write(&root, "crates/sim/src/ok.rs", "pub fn f() {}\n");
        write(
            &root,
            "crates/lint/tests/fixtures/det001.rs",
            "use std::collections::HashMap;\n",
        );
        write(
            &root,
            "crates/sim/target/gen.rs",
            "use std::collections::HashMap;\n",
        );
        let report = lint_workspace(&root).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.files_scanned, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn json_report_shape_is_stable() {
        let root = temp_root("json");
        write(
            &root,
            "crates/oracle/src/bad.rs",
            "use std::collections::HashSet;\n",
        );
        let report = lint_workspace(&root).unwrap();
        let doc = Json::parse(&report.to_json().to_pretty()).unwrap();
        assert_eq!(doc.get("version").unwrap().as_u64(), Some(2));
        assert!(doc.get("fns_indexed").unwrap().as_u64().is_some());
        let Json::Arr(v) = doc.get("violations").unwrap() else {
            panic!("violations must be an array");
        };
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].get("rule").unwrap().as_str(), Some("DET-001"));
        assert!(v[0].get("line").unwrap().as_u64().is_some());
        assert!(
            matches!(v[0].get("chain"), Some(Json::Arr(c)) if c.is_empty()),
            "token-rule chain must be an empty array"
        );
        std::fs::remove_dir_all(&root).ok();
    }
}
