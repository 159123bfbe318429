//! The numbered invariant rules, evaluated over one file's token stream.
//!
//! | Rule      | Invariant                                                          |
//! |-----------|--------------------------------------------------------------------|
//! | DET-001   | No default-hasher `HashMap`/`HashSet` in deterministic crates      |
//! | DET-002   | No wall clock / ambient randomness outside `maps-obs`/`maps-bench` |
//! | PERF-001  | Every `MetaObserver` impl method carries `#[inline]`               |
//! | SAFE-001  | `unsafe` only when allowlisted and `// SAFETY:`-annotated          |
//! | PANIC-001 | No `unwrap`/`expect` in library decode/parse paths                 |
//! | IO-001    | Result files only via the atomic-write helper in `maps-obs`        |
//! | ALLOW-001 | Allowlist entries must still absorb something (no rot)             |
//!
//! `#[cfg(test)]` items and `#[test]` functions are exempt from DET-001,
//! DET-002, PERF-001, PANIC-001, and IO-001 (tests may use ad-hoc
//! collections, panics, and scratch files freely); SAFE-001 applies
//! everywhere, because unsoundness in a test harness corrupts the
//! evidence the tests produce.

use crate::allowlist::Allowlist;
use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};

/// Crates whose iteration order / hashing must be reproducible: their
/// state feeds replay equivalence, the differential oracle, and the
/// farm's campaign plans (which must enumerate identically every run).
pub(crate) const DET_CRATES: [&str; 9] = [
    "sim",
    "cache",
    "secure",
    "mem",
    "oracle",
    "trace",
    "workloads",
    "inject",
    "farm",
];

/// Files outside [`DET_CRATES`] that DET-001 covers anyway: the sweep-point
/// queue and fingerprint sit in `maps-bench` (below the figure binaries)
/// yet drive resumable, deduplicated scheduling just like the farm crate.
const DET_PATHS: [&str; 2] = [
    "crates/bench/src/queue.rs",
    "crates/bench/src/fingerprint.rs",
];

/// Crates allowed to read the wall clock (timers, manifests, harnesses).
pub(crate) const CLOCK_EXEMPT_CRATES: [&str; 2] = ["obs", "bench"];

pub(crate) use crate::items::CLOCK_RNG_IDENTS;

/// Library decode/parse paths that must stay panic-free on malformed
/// input, plus the tenant/randomized-MDC isolation modules whose checked
/// constructors are the release-mode guard against starved partitions
/// (PANIC-001). Everything here returns typed errors instead.
const PANIC_FREE_PATHS: [&str; 17] = [
    "crates/sim/src/capture.rs",
    "crates/sim/src/config.rs",
    "crates/sim/src/report.rs",
    "crates/obs/src/checkpoint.rs",
    "crates/obs/src/codec.rs",
    "crates/obs/src/frame.rs",
    "crates/obs/src/json.rs",
    "crates/obs/src/manifest.rs",
    "crates/trace/src/io.rs",
    "crates/trace/src/tenant.rs",
    "crates/cache/src/randomized.rs",
    "crates/cache/src/tenant.rs",
    "crates/bench/src/wire.rs",
    "crates/farm/src/campaign.rs",
    "crates/farm/src/proto.rs",
    "crates/farm/src/status.rs",
    "crates/farm/src/supervision.rs",
];

/// Crates whose `src/` publishes result artifacts (TSVs, manifests,
/// checkpoints): they may only reach the filesystem through the atomic
/// temp-file + rename funnel (IO-001).
const IO_FUNNEL_CRATES: [&str; 3] = ["bench", "obs", "farm"];

/// The one file allowed to open output files for writing: the
/// atomic-write helper (and the durable appender beside it) *is* the
/// funnel. Hard-exempted here (not via lint.allow, which
/// would rot into an ALLOW-001 stale entry whenever the helper is clean).
const IO_FUNNEL_HELPER: &str = "crates/obs/src/atomic.rs";

/// How many lines above an `unsafe` token a `// SAFETY:` comment may sit.
const SAFETY_COMMENT_REACH: u32 = 3;

/// One rule finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule ID (`DET-001`, …).
    pub rule: &'static str,
    /// Repo-relative file path (forward slashes).
    pub file: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// For reachability rules (PANIC-002/ALLOC-001/DET-003): the call
    /// chain from a hot-path root to the offending function, as
    /// `Owner::name` strings. Empty for per-file token rules.
    pub chain: Vec<String>,
}

impl Diagnostic {
    /// Render the chain as ` → `-joined text (empty string when none).
    pub fn chain_text(&self) -> String {
        self.chain.join(" → ")
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )?;
        if !self.chain.is_empty() {
            write!(f, "\n    via {}", self.chain_text())?;
        }
        Ok(())
    }
}

/// A finding before allowlist absorption. SAFE-001's missing-comment
/// finding is never absorbable (an allowlist entry registers the site but
/// cannot waive the SAFETY annotation); everything else absorbs under its
/// rule + path (+ chain, for reachability rules).
#[derive(Debug)]
pub(crate) struct RawDiag {
    /// The finding.
    pub diag: Diagnostic,
    /// Whether an allowlist entry may absorb it.
    pub absorbable: bool,
}

/// Lints one file's source text. `path` must be repo-relative with forward
/// slashes (it drives rule scoping); `allow` absorbs deliberate findings.
/// Runs the per-file token rules only — the reachability rules need the
/// whole workspace and live in [`crate::lint_files`].
pub fn lint_source(path: &str, src: &str, allow: &Allowlist) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let regions = test_regions(&lexed.toks);
    absorb(lint_tokens(path, &lexed, &regions), allow)
}

/// Applies the allowlist to raw findings, preserving emission order (which
/// fixes which finding consumes a `max=` budget unit).
pub(crate) fn absorb(raw: Vec<RawDiag>, allow: &Allowlist) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for r in raw {
        if r.absorbable && allow.absorb_chain(r.diag.rule, &r.diag.file, &r.diag.chain_text()) {
            continue;
        }
        out.push(r.diag);
    }
    out
}

/// Runs every per-file token rule over one lexed file, without allowlist
/// absorption (the caller applies it sequentially so `max=` budgets stay
/// deterministic under the parallel file pass).
pub(crate) fn lint_tokens(path: &str, lexed: &Lexed, regions: &[(usize, usize)]) -> Vec<RawDiag> {
    let ctx = FileCtx {
        path,
        toks: &lexed.toks,
        comments: &lexed.comments,
        test_regions: regions,
    };
    let mut diags = Vec::new();
    det_001(&ctx, &mut diags);
    det_002(&ctx, &mut diags);
    perf_001(&ctx, &mut diags);
    safe_001(&ctx, &mut diags);
    panic_001(&ctx, &mut diags);
    io_001(&ctx, &mut diags);
    diags
}

struct FileCtx<'a> {
    path: &'a str,
    toks: &'a [Tok],
    comments: &'a [Comment],
    /// Token-index ranges (inclusive) of `#[cfg(test)]` / `#[test]` items.
    test_regions: &'a [(usize, usize)],
}

impl FileCtx<'_> {
    /// The `<name>` of a `crates/<name>/…` path.
    fn crate_name(&self) -> Option<&str> {
        self.path.strip_prefix("crates/")?.split('/').next()
    }

    /// Whether the file is a crate's shipped source (`crates/<c>/src/…`).
    fn in_crate_src(&self) -> bool {
        self.path
            .strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"))
    }

    fn in_test(&self, tok_idx: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| tok_idx >= a && tok_idx <= b)
    }

    fn ident_at(&self, i: usize, text: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
    }

    fn punct_at(&self, i: usize, ch: char) -> bool {
        self.toks.get(i).is_some_and(|t| {
            t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(ch)
        })
    }
}

/// DET-001: default-hasher collections in deterministic crates.
fn det_001(ctx: &FileCtx, out: &mut Vec<RawDiag>) {
    let det_crate = ctx.crate_name().is_some_and(|c| DET_CRATES.contains(&c));
    if !ctx.in_crate_src() || !(det_crate || DET_PATHS.contains(&ctx.path)) {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !ctx.in_test(i)
        {
            out.push(RawDiag {
                absorbable: true,
                diag: Diagnostic {
                    rule: "DET-001",
                    file: ctx.path.to_string(),
                    line: t.line,
                    message: format!(
                        "default-hasher `{}` in a deterministic crate: iteration order varies \
                         per process and breaks replay/differential equivalence; use \
                         `maps_trace::det::{{DetHashMap, DetHashSet}}` or a BTree map",
                        t.text
                    ),
                    chain: Vec::new(),
                },
            });
        }
    }
}

/// DET-002: wall clock / ambient randomness outside obs+bench.
fn det_002(ctx: &FileCtx, out: &mut Vec<RawDiag>) {
    let in_scope = match ctx.crate_name() {
        Some(c) => ctx.in_crate_src() && !CLOCK_EXEMPT_CRATES.contains(&c),
        // The root `maps` facade crate is sim-facing too.
        None => ctx.path.starts_with("src/"),
    };
    if !in_scope {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && CLOCK_RNG_IDENTS.contains(&t.text.as_str())
            && !ctx.in_test(i)
        {
            out.push(RawDiag {
                absorbable: true,
                diag: Diagnostic {
                    rule: "DET-002",
                    file: ctx.path.to_string(),
                    line: t.line,
                    message: format!(
                        "`{}` outside maps-obs/maps-bench: simulation results must be a pure \
                         function of config+seed; thread timing state through maps-obs or \
                         use the vendored SplitMix64 PRNG",
                        t.text
                    ),
                    chain: Vec::new(),
                },
            });
        }
    }
}

/// PERF-001: `MetaObserver` impl methods must carry `#[inline]` — the
/// batch kernel calls the observer once per metadata access, so a
/// non-inlined impl reintroduces per-access call overhead.
fn perf_001(ctx: &FileCtx, out: &mut Vec<RawDiag>) {
    if !ctx.in_crate_src() {
        return;
    }
    let toks = ctx.toks;
    let mut i = 0;
    while i < toks.len() {
        if !ctx.ident_at(i, "impl") || ctx.in_test(i) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if ctx.punct_at(j, '<') {
            j = skip_angles(ctx, j);
        }
        // Collect the trait path (idents before `for`); an inherent impl
        // (no `for` before the body) is out of scope.
        let mut trait_path: Vec<&str> = Vec::new();
        let mut is_trait_impl = false;
        while j < toks.len() {
            if ctx.ident_at(j, "for") {
                is_trait_impl = true;
                break;
            }
            if ctx.punct_at(j, '{') || ctx.punct_at(j, ';') || ctx.ident_at(j, "where") {
                break;
            }
            if ctx.punct_at(j, '<') {
                j = skip_angles(ctx, j);
                continue;
            }
            if toks[j].kind == TokKind::Ident {
                trait_path.push(&toks[j].text);
            }
            j += 1;
        }
        let watched = is_trait_impl && trait_path.contains(&"MetaObserver");
        if !watched {
            i += 1;
            continue;
        }
        let trait_name = trait_path.last().copied().unwrap_or("?");
        while j < toks.len() && !ctx.punct_at(j, '{') {
            j += 1;
        }
        let mut depth = 1u32;
        let mut has_inline = false;
        j += 1;
        while j < toks.len() && depth > 0 {
            if ctx.punct_at(j, '{') {
                depth += 1;
            } else if ctx.punct_at(j, '}') {
                depth -= 1;
            } else if depth == 1
                && ctx.ident_at(j, "inline")
                && j >= 2
                && ctx.punct_at(j - 1, '[')
                && ctx.punct_at(j - 2, '#')
            {
                has_inline = true;
            } else if depth == 1 && ctx.ident_at(j, "fn") {
                let name = toks
                    .get(j + 1)
                    .map(|t| t.text.as_str())
                    .unwrap_or("?")
                    .to_string();
                if !has_inline {
                    out.push(RawDiag {
                        absorbable: true,
                        diag: Diagnostic {
                            rule: "PERF-001",
                            file: ctx.path.to_string(),
                            line: toks[j].line,
                            message: format!(
                                "`fn {name}` in an `impl {trait_name} for …` block lacks \
                                 `#[inline]`: the disabled-path zero-cost guarantee relies on \
                                 every observer method monomorphizing away"
                            ),
                            chain: Vec::new(),
                        },
                    });
                }
                has_inline = false;
            }
            j += 1;
        }
        i = j;
    }
}

/// Advances past a balanced `<…>` group starting at `open` (which must
/// point at `<`), tolerating `->` return arrows inside bounds.
fn skip_angles(ctx: &FileCtx, open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < ctx.toks.len() {
        if ctx.punct_at(j, '<') {
            depth += 1;
        } else if ctx.punct_at(j, '>') && !(j > 0 && ctx.punct_at(j - 1, '-')) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// SAFE-001: `unsafe` needs an allowlist entry and an adjacent SAFETY note.
fn safe_001(ctx: &FileCtx, out: &mut Vec<RawDiag>) {
    for t in ctx.toks.iter() {
        if !(t.kind == TokKind::Ident && t.text == "unsafe") {
            continue;
        }
        let commented = ctx.comments.iter().any(|c| {
            c.text.contains("SAFETY:")
                && c.end_line <= t.line
                && c.end_line + SAFETY_COMMENT_REACH >= t.line
        });
        if !commented {
            // Never absorbable: an allowlist entry registers the site but
            // cannot waive the SAFETY annotation.
            out.push(RawDiag {
                absorbable: false,
                diag: Diagnostic {
                    rule: "SAFE-001",
                    file: ctx.path.to_string(),
                    line: t.line,
                    message: "`unsafe` without an adjacent `// SAFETY:` comment (within 3 \
                              lines above) stating the invariant that makes it sound"
                        .to_string(),
                    chain: Vec::new(),
                },
            });
        }
        out.push(RawDiag {
            absorbable: true,
            diag: Diagnostic {
                rule: "SAFE-001",
                file: ctx.path.to_string(),
                line: t.line,
                message: "`unsafe` outside the audited allowlist: register the site in \
                          lint.allow (SAFE-001, with max= and a justification) after review"
                    .to_string(),
                chain: Vec::new(),
            },
        });
    }
}

/// PANIC-001: `.unwrap()` / `.expect("…")` in decode/parse paths.
fn panic_001(ctx: &FileCtx, out: &mut Vec<RawDiag>) {
    if !PANIC_FREE_PATHS.contains(&ctx.path) {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len().saturating_sub(2) {
        if !ctx.punct_at(i, '.') || ctx.in_test(i) {
            continue;
        }
        let flagged = if ctx.ident_at(i + 1, "unwrap") {
            // `.unwrap()` exactly — `.unwrap_or(…)` is a different ident
            // and never matches.
            ctx.punct_at(i + 2, '(') && ctx.punct_at(i + 3, ')')
        } else if ctx.ident_at(i + 1, "expect") {
            // Only `Option/Result::expect` takes a panic-message string
            // literal; parser methods like `self.expect(b':')` take bytes.
            ctx.punct_at(i + 2, '(') && toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Str)
        } else {
            false
        };
        if flagged {
            out.push(RawDiag {
                absorbable: true,
                diag: Diagnostic {
                    rule: "PANIC-001",
                    file: ctx.path.to_string(),
                    line: toks[i + 1].line,
                    message: format!(
                        "`.{}` in a decode/parse path: malformed input must surface as a \
                         typed error (`CodecError`/`JsonParseError`/`TraceIoError`), \
                         not a panic",
                        if ctx.ident_at(i + 1, "unwrap") {
                            "unwrap()"
                        } else {
                            "expect(\"…\")"
                        }
                    ),
                    chain: Vec::new(),
                },
            });
        }
    }
}

/// IO-001: raw output-file writes in result-publishing crates.
///
/// Flags `File::create` and `fs::write` token sequences and every
/// `OpenOptions` token in `crates/bench/src`, `crates/obs/src`, and
/// `crates/farm/src`, the crates that publish results (TSVs, manifests,
/// campaign documents, checkpoints). Everything there must go through
/// `maps_obs::write_atomic` (or the checkpoint journal built on the
/// durable appender beside it) so a crash or injected fault can never
/// leave a torn result file for a reader — or a resumed run — to trust.
/// The helper file itself is hard-exempt.
fn io_001(ctx: &FileCtx, out: &mut Vec<RawDiag>) {
    if ctx.path == IO_FUNNEL_HELPER
        || !ctx.in_crate_src()
        || !ctx
            .crate_name()
            .is_some_and(|c| IO_FUNNEL_CRATES.contains(&c))
    {
        return;
    }
    for i in 0..ctx.toks.len() {
        let raw_create = ctx.ident_at(i, "File")
            && ctx.punct_at(i + 1, ':')
            && ctx.punct_at(i + 2, ':')
            && ctx.ident_at(i + 3, "create");
        let raw_write = ctx.ident_at(i, "fs")
            && ctx.punct_at(i + 1, ':')
            && ctx.punct_at(i + 2, ':')
            && ctx.ident_at(i + 3, "write");
        let raw_open = ctx.ident_at(i, "OpenOptions");
        let what = if raw_create {
            "File::create"
        } else if raw_write {
            "fs::write"
        } else if raw_open {
            "OpenOptions"
        } else {
            continue;
        };
        if !ctx.in_test(i) {
            out.push(RawDiag {
                absorbable: true,
                diag: Diagnostic {
                    rule: "IO-001",
                    file: ctx.path.to_string(),
                    line: ctx.toks[i].line,
                    message: format!(
                        "raw `{what}` in a result-publishing crate: route the write through \
                         `maps_obs::write_atomic` (temp file + rename) so a crash or injected \
                         fault can never leave a torn result file"
                    ),
                    chain: Vec::new(),
                },
            });
        }
    }
}

/// Finds token-index ranges covered by `#[cfg(test)]` / `#[test]` items.
pub(crate) fn test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Punct
            && toks[i].text == "#"
            && toks.get(i + 1).is_some_and(|t| t.text == "["))
        {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut gates_tests = false;
        let mut negated = false;
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                "test" if toks[j].kind == TokKind::Ident => gates_tests = true,
                "not" if toks[j].kind == TokKind::Ident => negated = true,
                _ => {}
            }
            j += 1;
        }
        if !gates_tests || negated {
            i = j;
            continue;
        }
        // Skip any further attributes between this one and the item.
        while j < toks.len()
            && toks[j].text == "#"
            && toks.get(j + 1).is_some_and(|t| t.text == "[")
        {
            let mut d = 1i32;
            let mut k = j + 2;
            while k < toks.len() && d > 0 {
                match toks[k].text.as_str() {
                    "[" => d += 1,
                    "]" => d -= 1,
                    _ => {}
                }
                k += 1;
            }
            j = k;
        }
        // Consume the gated item: to the matching `}` of its first brace
        // block, or to a `;` for brace-less items.
        let mut k = j;
        let mut end = None;
        while k < toks.len() {
            if toks[k].kind == TokKind::Punct && toks[k].text == ";" {
                end = Some(k);
                break;
            }
            if toks[k].kind == TokKind::Punct && toks[k].text == "{" {
                let mut d = 1i32;
                let mut m = k + 1;
                while m < toks.len() && d > 0 {
                    match toks[m].text.as_str() {
                        "{" => d += 1,
                        "}" => d -= 1,
                        _ => {}
                    }
                    m += 1;
                }
                end = Some(m.saturating_sub(1));
                break;
            }
            k += 1;
        }
        let end = end.unwrap_or(toks.len().saturating_sub(1));
        regions.push((i, end));
        i = end + 1;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(path, src, &Allowlist::empty())
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_det_rules() {
        let src = "
            pub fn ok() {}
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                fn t() { let _m: HashMap<u64, u64> = HashMap::new(); }
            }
        ";
        assert!(diags("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "
            #[cfg(not(test))]
            mod prod { use std::collections::HashMap; }
        ";
        assert!(!diags("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn det_rules_only_fire_in_scoped_crates() {
        let src = "use std::collections::HashMap;\n";
        assert!(!diags("crates/cache/src/x.rs", src).is_empty());
        assert!(!diags("crates/farm/src/campaign.rs", src).is_empty());
        assert!(diags("crates/analysis/src/x.rs", src).is_empty());
        assert!(diags("crates/bench/src/x.rs", src).is_empty());
        assert!(diags("crates/cache/tests/x.rs", src).is_empty());
        assert!(diags("crates/farm/tests/x.rs", src).is_empty());
    }

    #[test]
    fn det_001_follows_the_queue_into_bench() {
        let src = "use std::collections::HashMap;\n";
        for path in [
            "crates/bench/src/queue.rs",
            "crates/bench/src/fingerprint.rs",
        ] {
            let d = diags(path, src);
            assert_eq!(d.len(), 1, "{path}: {d:?}");
            assert_eq!(d[0].rule, "DET-001");
        }
        // The rest of maps-bench (capture memo, hosts) stays out of scope.
        assert!(diags("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn clock_exemption_covers_obs_and_bench_only() {
        let src = "fn t() { let _ = std::time::Instant::now(); }";
        assert!(diags("crates/obs/src/timer.rs", src).is_empty());
        assert!(diags("crates/bench/src/context.rs", src).is_empty());
        assert_eq!(diags("crates/mem/src/dram.rs", src).len(), 1);
    }

    #[test]
    fn generic_bound_impls_are_not_observer_impls() {
        let src = "
            impl<O: MetaObserver> Holder<O> {
                fn not_an_observer_method(&self) {}
            }
            impl<O: MetaObserver> OtherTrait for Holder<O> {
                fn also_fine(&self) {}
            }
        ";
        assert!(diags("crates/obs/src/x.rs", src).is_empty());
    }

    #[test]
    fn uninlined_observer_method_is_flagged_once_per_fn() {
        let src = "
            impl MetaObserver for Thing {
                #[inline]
                fn a(&mut self) {}
                fn b(&mut self) {}
                #[inline(always)]
                fn c(&mut self) {}
            }
        ";
        let d = diags("crates/obs/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("fn b"));
    }

    #[test]
    fn safety_comment_and_allowlist_are_independent_requirements() {
        let src = "
            fn f() {
                // SAFETY: the slot is exclusively owned.
                let x = unsafe { *p };
                let a = x + 1;
                let b = a * 2;
                let c = b - 3;
                let y = unsafe { *q };
            }
        ";
        let allow = Allowlist::parse("SAFE-001 crates/mem/src/x.rs max=2 # audited\n").unwrap();
        let d = lint_source("crates/mem/src/x.rs", src, &allow);
        // First site: commented + allowlisted -> clean. Second: allowlisted
        // but uncommented -> exactly the missing-comment finding.
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("SAFETY"));
    }

    #[test]
    fn panic_rule_distinguishes_parser_expect_from_panic_expect() {
        let src = r#"
            fn parse(&mut self) -> Result<(), E> {
                self.expect(b':')?;
                let v = self.lookup().unwrap_or(0);
                Ok(())
            }
            fn bad(&mut self) {
                let v = self.lookup().unwrap();
                let w = self.lookup().expect("must be there");
            }
        "#;
        let d = diags("crates/obs/src/json.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("CodecError"), "{}", d[0].message);
        // So are the shared field readers every boundary codec uses.
        assert_eq!(diags("crates/obs/src/codec.rs", src).len(), 2);
        // The farm's campaign/status decoders are held to the same bar.
        assert_eq!(diags("crates/farm/src/campaign.rs", src).len(), 2);
        assert_eq!(diags("crates/farm/src/status.rs", src).len(), 2);
        // Same file under a non-decode path: out of scope.
        assert!(diags("crates/obs/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn io_rule_flags_raw_output_writes_in_result_crates() {
        let create = "fn f() { let _ = std::fs::File::create(\"out.tsv\"); }\n";
        let write = "fn f() { std::fs::write(\"out.tsv\", b\"x\").ok(); }\n";
        let open = "fn f() { let _ = std::fs::OpenOptions::new().append(true).open(\"c\"); }\n";
        for src in [create, write, open] {
            let d = diags("crates/bench/src/x.rs", src);
            assert_eq!(d.len(), 1, "{d:?}");
            assert_eq!(d[0].rule, "IO-001");
            assert!(d[0].message.contains("write_atomic"));
            assert_eq!(diags("crates/obs/src/x.rs", src).len(), 1);
            assert_eq!(diags("crates/farm/src/x.rs", src).len(), 1);
        }
    }

    #[test]
    fn io_rule_exempts_the_funnel_helper_and_other_crates() {
        let src = "fn f() { let _ = std::fs::File::create(\"out.tsv\"); }\n";
        assert!(diags("crates/obs/src/atomic.rs", src).is_empty());
        // Out of scope: non-publishing crates, tests, binaries' test dirs.
        assert!(diags("crates/sim/src/x.rs", src).is_empty());
        assert!(diags("crates/bench/tests/x.rs", src).is_empty());
    }

    #[test]
    fn io_rule_exempts_cfg_test_items() {
        let src = "
            pub fn ok() {}
            #[cfg(test)]
            mod tests {
                fn t() { let _ = std::fs::File::create(\"scratch\"); }
            }
        ";
        assert!(diags("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn io_rule_is_absorbable_via_allowlist() {
        let src = "fn f() { let _ = std::fs::File::create(\"out.tsv\"); }\n";
        let allow = Allowlist::parse("IO-001 crates/bench/src/x.rs # legacy\n").unwrap();
        assert!(lint_source("crates/bench/src/x.rs", src, &allow).is_empty());
    }
}
