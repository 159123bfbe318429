//! Fixture suite (each rule must produce exactly its documented
//! diagnostics) plus the workspace-clean self-test that keeps the real
//! tree at zero unallowlisted findings.

use std::path::{Path, PathBuf};

use maps_lint::{lint_source, lint_workspace, Allowlist, Diagnostic};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// (rule, line) pairs of the diagnostics, sorted.
fn shape(diags: &[Diagnostic]) -> Vec<(&'static str, u32)> {
    let mut v: Vec<_> = diags.iter().map(|d| (d.rule, d.line)).collect();
    v.sort();
    v
}

#[test]
fn det001_fixture_flags_exactly_the_documented_lines() {
    let d = lint_source(
        "crates/cache/src/fixture.rs",
        &fixture("det001.rs"),
        &Allowlist::empty(),
    );
    assert_eq!(
        shape(&d),
        vec![("DET-001", 5), ("DET-001", 8), ("DET-001", 8)],
        "{d:#?}"
    );
}

#[test]
fn det001_is_silent_outside_deterministic_crates() {
    let d = lint_source(
        "crates/analysis/src/fixture.rs",
        &fixture("det001.rs"),
        &Allowlist::empty(),
    );
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn det001_covers_the_farm_scheduler() {
    // The queue's dedup map and the campaign plans feed resumable
    // scheduling: a default-hasher collection there would reorder plan
    // enumeration. The queue lives in maps-bench, covered by path.
    for path in [
        "crates/farm/src/fixture.rs",
        "crates/bench/src/queue.rs",
        "crates/bench/src/fingerprint.rs",
    ] {
        let d = lint_source(path, &fixture("det001.rs"), &Allowlist::empty());
        assert_eq!(
            shape(&d),
            vec![("DET-001", 5), ("DET-001", 8), ("DET-001", 8)],
            "{path}: {d:#?}"
        );
    }
}

#[test]
fn det002_fixture_flags_exactly_the_documented_lines() {
    let d = lint_source(
        "crates/mem/src/fixture.rs",
        &fixture("det002.rs"),
        &Allowlist::empty(),
    );
    assert_eq!(
        shape(&d),
        vec![("DET-002", 6), ("DET-002", 9), ("DET-002", 10)],
        "{d:#?}"
    );
}

#[test]
fn det002_is_silent_in_clock_exempt_crates() {
    for path in ["crates/obs/src/fixture.rs", "crates/bench/src/fixture.rs"] {
        let d = lint_source(path, &fixture("det002.rs"), &Allowlist::empty());
        assert!(d.is_empty(), "{path}: {d:#?}");
    }
}

#[test]
fn perf001_fixture_flags_exactly_the_documented_lines() {
    let d = lint_source(
        "crates/sim/src/fixture.rs",
        &fixture("perf001.rs"),
        &Allowlist::empty(),
    );
    assert_eq!(
        shape(&d),
        vec![("PERF-001", 13), ("PERF-001", 30)],
        "{d:#?}"
    );
    assert!(d[0].message.contains("walk_complete"));
    assert!(d[1].message.contains("fn observe"));
}

#[test]
fn safe001_fixture_reports_allowlist_and_comment_problems_independently() {
    let src = fixture("safe001.rs");
    // No allowlist: three unallowlisted sites plus one missing comment.
    let d = lint_source("crates/mem/src/fixture.rs", &src, &Allowlist::empty());
    assert_eq!(
        shape(&d),
        vec![
            ("SAFE-001", 8),
            ("SAFE-001", 13),
            ("SAFE-001", 13),
            ("SAFE-001", 18)
        ],
        "{d:#?}"
    );
    // Allowlisted with enough budget: only the missing comment remains.
    let allow = Allowlist::parse("SAFE-001 crates/mem/src/fixture.rs max=3 # fixture\n").unwrap();
    let d = lint_source("crates/mem/src/fixture.rs", &src, &allow);
    assert_eq!(shape(&d), vec![("SAFE-001", 13)], "{d:#?}");
    assert!(d[0].message.contains("SAFETY"));
    // Budget too small: the extra site surfaces again.
    let allow = Allowlist::parse("SAFE-001 crates/mem/src/fixture.rs max=2 # fixture\n").unwrap();
    let d = lint_source("crates/mem/src/fixture.rs", &src, &allow);
    assert_eq!(
        shape(&d),
        vec![("SAFE-001", 13), ("SAFE-001", 18)],
        "{d:#?}"
    );
}

#[test]
fn panic001_fixture_flags_exactly_the_documented_lines() {
    let d = lint_source(
        "crates/obs/src/json.rs",
        &fixture("panic001.rs"),
        &Allowlist::empty(),
    );
    assert_eq!(
        shape(&d),
        vec![("PANIC-001", 9), ("PANIC-001", 10)],
        "{d:#?}"
    );
}

#[test]
fn panic001_covers_the_farm_decode_paths() {
    for path in ["crates/farm/src/campaign.rs", "crates/farm/src/status.rs"] {
        let d = lint_source(path, &fixture("panic001.rs"), &Allowlist::empty());
        assert_eq!(
            shape(&d),
            vec![("PANIC-001", 9), ("PANIC-001", 10)],
            "{path}: {d:#?}"
        );
    }
}

#[test]
fn panic001_covers_the_farmd_protocol_paths() {
    // The daemon's wire stack (frame transport, job codec, control
    // protocol, supervision counters) parses bytes off sockets from
    // crash-prone peers: a panic there takes down the whole daemon
    // instead of quarantining one worker.
    for path in [
        "crates/obs/src/frame.rs",
        "crates/bench/src/wire.rs",
        "crates/farm/src/proto.rs",
        "crates/farm/src/supervision.rs",
    ] {
        let d = lint_source(path, &fixture("panic001.rs"), &Allowlist::empty());
        assert_eq!(
            shape(&d),
            vec![("PANIC-001", 9), ("PANIC-001", 10)],
            "{path}: {d:#?}"
        );
    }
}

#[test]
fn panic001_only_applies_to_decode_paths() {
    let d = lint_source(
        "crates/obs/src/metrics.rs",
        &fixture("panic001.rs"),
        &Allowlist::empty(),
    );
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn io001_fixture_flags_exactly_the_documented_lines() {
    let d = lint_source(
        "crates/bench/src/fixture.rs",
        &fixture("io001.rs"),
        &Allowlist::empty(),
    );
    assert_eq!(
        shape(&d),
        vec![("IO-001", 7), ("IO-001", 8), ("IO-001", 9)],
        "{d:#?}"
    );
    assert!(d[0].message.contains("write_atomic"));
    // The farm publishes campaign documents and checkpoints: same funnel.
    let d = lint_source(
        "crates/farm/src/fixture.rs",
        &fixture("io001.rs"),
        &Allowlist::empty(),
    );
    assert_eq!(
        shape(&d),
        vec![("IO-001", 7), ("IO-001", 8), ("IO-001", 9)],
        "{d:#?}"
    );
}

#[test]
fn io001_exempts_the_funnel_helper_and_nonpublishing_crates() {
    for path in ["crates/obs/src/atomic.rs", "crates/sim/src/fixture.rs"] {
        let d = lint_source(path, &fixture("io001.rs"), &Allowlist::empty());
        assert!(d.is_empty(), "{path}: {d:#?}");
    }
}

#[test]
fn clean_fixture_produces_no_findings() {
    let d = lint_source(
        "crates/sim/src/fixture.rs",
        &fixture("clean.rs"),
        &Allowlist::empty(),
    );
    assert!(d.is_empty(), "{d:#?}");
}

/// The gate itself: the real workspace must lint clean against its
/// checked-in allowlist. Any new violation fails this test (and CI's
/// `lint-invariants` job) until fixed or deliberately allowlisted.
#[test]
fn workspace_is_clean_under_the_checked_in_allowlist() {
    let root = workspace_root();
    let report = lint_workspace(&root).unwrap();
    assert!(
        report.files_scanned > 50,
        "walk found too few files — wrong root?"
    );
    assert!(
        report.is_clean(),
        "workspace has {} unallowlisted finding(s):\n{}",
        report.diagnostics.len(),
        report
            .diagnostics
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.absorbed > 0,
        "the checked-in allowlist should be absorbing the audited unsafe sites"
    );
    assert!(
        report.fns_indexed > 500,
        "call graph indexed only {} fn(s) — the v2 reachability rules \
         (PANIC-002/ALLOC-001/DET-003) would be vacuously green",
        report.fns_indexed
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}
