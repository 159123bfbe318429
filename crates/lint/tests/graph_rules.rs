//! Call-graph rule suite: a fixture mini-workspace with exact
//! (rule, file, line, chain) assertions for PANIC-002 / ALLOC-001 /
//! DET-003, chain-scoped allowlist absorption, and seeded mutation checks
//! that re-lint *real* workspace sources with one regression injected (a
//! hot-path unwrap) to prove the gate actually catches it.

use std::path::{Path, PathBuf};

use maps_lint::{lint_files, Allowlist, SourceFile};

/// The fixture mini-workspace: six files exercising trait-impl
/// dispatch, qualified calls through a `use … as` rename, a method-name
/// collision filtered by the mention gate, `#[cfg(test)]` exclusion, and
/// recursion.
fn graphws() -> Vec<SourceFile> {
    let map = [
        ("kernel.rs", "crates/sim/src/kernel.rs"),
        ("backend.rs", "crates/cache/src/backend.rs"),
        ("policy.rs", "crates/cache/src/policy.rs"),
        ("probe.rs", "crates/cache/src/probe.rs"),
        ("timer.rs", "crates/obs/src/timer.rs"),
        ("stats.rs", "crates/sim/src/stats.rs"),
    ];
    map.iter()
        .map(|(name, virt)| {
            let p = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/fixtures/graphws")
                .join(name);
            SourceFile {
                path: virt.to_string(),
                text: std::fs::read_to_string(&p)
                    .unwrap_or_else(|e| panic!("{}: {e}", p.display())),
            }
        })
        .collect()
}

#[test]
fn graphws_produces_exactly_the_documented_findings() {
    let report = lint_files(graphws(), &Allowlist::empty());
    let shape: Vec<(&str, &str, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();
    assert_eq!(
        shape,
        vec![
            // assert! reached through the use-renamed `Mdc::tag_of` call.
            ("PANIC-002", "crates/cache/src/backend.rs", 14),
            // unwrap inside a Policy impl: the callback is a root itself.
            ("PANIC-002", "crates/cache/src/policy.rs", 10),
            // vec! then v[0] two hops below the batch kernel.
            ("ALLOC-001", "crates/sim/src/kernel.rs", 25),
            ("PANIC-002", "crates/sim/src/kernel.rs", 26),
            // sim laundering Instant::now through the obs helper.
            ("DET-003", "crates/sim/src/stats.rs", 10),
        ],
        "{:#?}",
        report.diagnostics
    );
}

#[test]
fn graphws_chains_are_exact() {
    let report = lint_files(graphws(), &Allowlist::empty());
    let chain_of = |rule: &str, file: &str, line: u32| -> Vec<String> {
        report
            .diagnostics
            .iter()
            .find(|d| d.rule == rule && d.file == file && d.line == line)
            .unwrap_or_else(|| panic!("missing {rule} {file}:{line}"))
            .chain
            .clone()
    };
    // Qualified call through the `use SetAssocCache as Mdc` rename.
    assert_eq!(
        chain_of("PANIC-002", "crates/cache/src/backend.rs", 14),
        ["MetadataEngine::handle_batch", "SetAssocCache::tag_of"]
    );
    // A Policy impl method is itself a root: one-element chain.
    assert_eq!(
        chain_of("PANIC-002", "crates/cache/src/policy.rs", 10),
        ["Lru::choose"]
    );
    // Free-fn hops below the kernel, shared by the panic and alloc sink.
    let deep = ["MetadataEngine::handle_batch", "helper", "deep"];
    assert_eq!(chain_of("PANIC-002", "crates/sim/src/kernel.rs", 26), deep);
    assert_eq!(chain_of("ALLOC-001", "crates/sim/src/kernel.rs", 25), deep);
    // Laundering chain names both ends; message names the ambient source.
    assert_eq!(
        chain_of("DET-003", "crates/sim/src/stats.rs", 10),
        ["Stats::snapshot", "PhaseTimer::mark"]
    );
    let det = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "DET-003")
        .unwrap();
    assert!(det.message.contains("Instant"), "{}", det.message);
}

#[test]
fn mention_gate_blocks_the_colliding_scan_set_and_tests_stay_out() {
    let report = lint_files(graphws(), &Allowlist::empty());
    // DebugProbe::scan_set has an unwrap and a format!, but no caller
    // file mentions DebugProbe — the collision edge must not exist.
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.file.ends_with("probe.rs")),
        "{:#?}",
        report.diagnostics
    );
    // The #[cfg(test)] fn named `scan_set` in policy.rs has an unwrap;
    // test regions are outside the graph, so policy.rs reports only the
    // impl's line-10 finding.
    assert_eq!(
        report
            .diagnostics
            .iter()
            .filter(|d| d.file.ends_with("policy.rs"))
            .count(),
        1
    );
    // All six files parsed; the shipped fns (incl. the recursive
    // `spin`, which must not hang the BFS) are in the graph.
    assert_eq!(report.files_scanned, 6);
    assert!(report.fns_indexed >= 10, "{}", report.fns_indexed);
}

#[test]
fn chain_scoped_allowlist_absorbs_and_goes_stale_precisely() {
    // chain=deep matches both kernel findings (their chains end in deep)
    // but nothing else.
    let allow = Allowlist::parse(
        "PANIC-002 crates/sim/src/kernel.rs chain=deep # fixture\n\
         ALLOC-001 crates/sim/src/kernel.rs chain=deep # fixture\n",
    )
    .unwrap();
    let report = lint_files(graphws(), &allow);
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.file.ends_with("kernel.rs")),
        "{:#?}",
        report.diagnostics
    );
    assert_eq!(report.absorbed, 2);

    // A chain= entry that matches no finding is stale: ALLOW-001.
    let allow =
        Allowlist::parse("PANIC-002 crates/sim/src/kernel.rs chain=nosuchfn # stale\n").unwrap();
    let report = lint_files(graphws(), &allow);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "ALLOW-001" && d.file == "lint.allow"),
        "{:#?}",
        report.diagnostics
    );
}

fn real_source(rel: &str) -> SourceFile {
    let root = workspace_root();
    SourceFile {
        path: rel.to_string(),
        text: std::fs::read_to_string(root.join(rel)).unwrap(),
    }
}

#[test]
fn seeded_hot_path_unwrap_is_caught_by_panic_002() {
    let engine = real_source("crates/sim/src/engine.rs");
    let report_src = real_source("crates/sim/src/report.rs");
    // Baseline: these real sources lint clean on their own.
    let base = lint_files(
        vec![engine.clone(), report_src.clone()],
        &Allowlist::empty(),
    );
    assert!(base.is_clean(), "{:#?}", base.diagnostics);

    // Mutation: an unwrap and an allocation as the first statements of
    // the engine's entry point.
    let mut mutated = engine;
    let at = mutated.text.find("fn handle_batch").unwrap();
    let brace = at + mutated.text[at..].find('{').unwrap() + 1;
    mutated.text.insert_str(
        brace,
        "\n        let _seeded: Option<u64> = None;\n        let _ = _seeded.unwrap();\n        \
         let _seeded_alloc = vec![0u64];\n",
    );
    let report = lint_files(vec![mutated, report_src], &Allowlist::empty());
    for rule in ["PANIC-002", "ALLOC-001"] {
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.rule == rule && d.file == "crates/sim/src/engine.rs")
            .unwrap_or_else(|| panic!("{rule}: mutation not caught: {:#?}", report.diagnostics));
        assert_eq!(
            hit.chain.first().map(String::as_str),
            Some("MetadataEngine::handle_batch"),
            "{rule}"
        );
    }
}

#[test]
fn seeded_frame_decoder_unwrap_is_caught_by_panic_002() {
    let proto = real_source("crates/farm/src/proto.rs");
    let base = lint_files(vec![proto.clone()], &Allowlist::empty());
    assert!(base.is_clean(), "{:#?}", base.diagnostics);

    // Mutation: an unwrap as the first statement of the frame decoder —
    // a malformed frame off the socket must stay a typed error.
    let mut mutated = proto;
    let at = mutated.text.find("fn next_frame").unwrap();
    let brace = at + mutated.text[at..].find('{').unwrap() + 1;
    mutated.text.insert_str(
        brace,
        "\n        let _seeded: Option<u64> = None;\n        let _ = _seeded.unwrap();\n",
    );
    let report = lint_files(vec![mutated], &Allowlist::empty());
    let hit = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "PANIC-002" && d.file == "crates/farm/src/proto.rs")
        .unwrap_or_else(|| panic!("mutation not caught: {:#?}", report.diagnostics));
    assert_eq!(
        hit.chain.first().map(String::as_str),
        Some("FrameReader::next_frame")
    );
}

#[test]
fn seeded_supervisor_unwrap_is_caught_by_panic_002() {
    let daemon = real_source("crates/farm/src/daemon.rs");
    let base = lint_files(vec![daemon.clone()], &Allowlist::empty());
    assert!(base.is_clean(), "{:#?}", base.diagnostics);

    // Mutation: an unwrap at the top of the supervision loop — a dead
    // worker must be respawned, never allowed to crash the daemon.
    let mut mutated = daemon;
    let at = mutated.text.find("fn supervise").unwrap();
    let brace = at + mutated.text[at..].find('{').unwrap() + 1;
    mutated.text.insert_str(
        brace,
        "\n        let _seeded: Option<u64> = None;\n        let _ = _seeded.unwrap();\n",
    );
    let report = lint_files(vec![mutated], &Allowlist::empty());
    let hit = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "PANIC-002" && d.file == "crates/farm/src/daemon.rs")
        .unwrap_or_else(|| panic!("mutation not caught: {:#?}", report.diagnostics));
    assert_eq!(
        hit.chain.first().map(String::as_str),
        Some("Supervisor::supervise")
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}
