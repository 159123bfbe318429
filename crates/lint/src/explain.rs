//! `--explain` texts: one rationale + minimal example per rule.
//!
//! Kept next to the rule implementations so a new rule without an
//! explanation fails the `every_rule_has_an_explanation` test rather than
//! shipping a bare ID in CI logs.

/// Every rule ID the linter can emit, in catalogue order.
pub const RULE_IDS: [&str; 10] = [
    "DET-001",
    "DET-002",
    "DET-003",
    "PERF-001",
    "SAFE-001",
    "PANIC-001",
    "PANIC-002",
    "ALLOC-001",
    "IO-001",
    "ALLOW-001",
];

/// Rationale and example for `rule`, or `None` for an unknown ID.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "DET-001" => {
            "DET-001: no std HashMap/HashSet in deterministic crates.\n\
             \n\
             Sim results must be a pure function of config+seed. std's hashers\n\
             are randomly seeded per process, so iteration order (and anything\n\
             derived from it) changes run to run. Use BTreeMap/BTreeSet or the\n\
             vendored deterministic aliases in crates/trace/src/det.rs.\n\
             \n\
             example (flagged):\n\
                 use std::collections::HashMap;   // in crates/sim\n\
             fix:\n\
                 use std::collections::BTreeMap;\n"
        }
        "DET-002" => {
            "DET-002: no ambient clock or entropy outside the exempt crates.\n\
             \n\
             Instant/SystemTime/thread_rng/from_entropy/RandomState inject\n\
             wall-clock time or OS entropy. Only the observability crates\n\
             (obs, bench) may touch them; model crates take seeds and event\n\
             counts as inputs.\n\
             \n\
             example (flagged, in crates/cache):\n\
                 let t0 = Instant::now();\n\
             fix: thread a counter or seed through the caller, or move the\n\
             timing into maps-obs/maps-bench.\n"
        }
        "DET-003" => {
            "DET-003: no laundering ambient state through exempt-crate helpers.\n\
             \n\
             DET-002 bans Instant::now in model crates, but a helper in an\n\
             exempt crate (obs/bench) that reads the clock and is then called\n\
             from sim/cache/oracle code reintroduces the nondeterminism with\n\
             clean hands. The call graph propagates a clock taint backwards\n\
             from every direct sink; a model-crate call edge into a tainted\n\
             exempt-crate fn is flagged with the laundering chain.\n\
             \n\
             example (flagged, in crates/sim):\n\
                 obs::phase_timer().add(\"walk\");   // add() reads Instant\n\
             fix: pass timings in from the harness, or keep the helper out of\n\
             the model crates' reach.\n"
        }
        "PERF-001" => {
            "PERF-001: observer trait impl methods must be #[inline].\n\
             \n\
             MetricSink/MetaObserver callbacks run per event inside the\n\
             replay loop, usually behind generics the optimizer can only\n\
             flatten when the impl is marked #[inline] across crate\n\
             boundaries (without it, no cross-crate inlining outside LTO\n\
             builds).\n\
             \n\
             example (flagged):\n\
                 impl MetricSink for Counter { fn record(&mut self, …) {…} }\n\
             fix: add #[inline] to the method.\n"
        }
        "SAFE-001" => {
            "SAFE-001: every unsafe block needs an allowlist entry and a\n\
             // SAFETY: comment within three lines.\n\
             \n\
             The workspace is safe Rust except for a handful of audited spots\n\
             (parallel_map's scoped-thread plumbing). Each one must be listed\n\
             in lint.allow (with max=N so new blocks cannot hide behind an old\n\
             entry) and carry its justification in the source.\n\
             \n\
             example (flagged):\n\
                 unsafe { std::mem::transmute(x) }\n\
             fix: add // SAFETY: … above the block and an allowlist entry, or\n\
             rewrite in safe Rust.\n"
        }
        "PANIC-001" => {
            "PANIC-001: no unwrap/expect in the curated panic-free files.\n\
             \n\
             A fixed list of hot-path files (engine, caches, policies) may not\n\
             contain .unwrap()/.expect() at all, even unreachable ones: the\n\
             token is a refactoring hazard and the typed-error alternative is\n\
             always available.\n\
             \n\
             example (flagged, in crates/cache/src/cache.rs):\n\
                 let line = self.lines.get(i).unwrap();\n\
             fix: return Option/Result, or restructure so the access is total.\n"
        }
        "PANIC-002" => {
            "PANIC-002: no panic site reachable from the hot-path roots.\n\
             \n\
             The metadata engine's entry point (MetadataEngine::handle_batch),\n\
             both MDC backends' lookup paths (SetAssocCache::scan_set,\n\
             RandomizedCache::access), and every Policy callback drive\n\
             billions of events per sweep; a panic!/assert!/unwrap/expect or\n\
             literal slice index anywhere they can reach turns a malformed\n\
             trace into an aborted campaign. Unlike PANIC-001's file list,\n\
             this rule follows the call graph and prints the offending chain.\n\
             \n\
             example (flagged):\n\
                 fn choose_victim(…) { candidates[0] }   // literal index\n\
             fix: debug_assert! for invariants, slice patterns or .first()\n\
             with a debug-checked fallback for indexing, typed errors for\n\
             real failure modes.\n"
        }
        "ALLOC-001" => {
            "ALLOC-001: no heap allocation reachable from the batch kernel.\n\
             \n\
             The struct-of-arrays rewrite bought the ns/event budget by\n\
             keeping the replay loop allocation-free; one vec!/format!/\n\
             collect() on a reachable path silently gives it back. Sinks are\n\
             Box::new, vec!, format!, .to_string/.to_owned/.to_vec,\n\
             .collect(), and .push() on a Vec conjured in the same body.\n\
             Constructors are fine — only code reachable from\n\
             MetadataEngine::handle_batch is scanned, and the oracle\n\
             (naive by contract) is exempt.\n\
             \n\
             example (flagged, in a policy's rebuild()):\n\
                 let mut scratch = vec![0.0; BUCKETS];\n\
             fix: preallocate in the constructor or use a stack array.\n"
        }
        "IO-001" => {
            "IO-001: artifact writes go through the atomic writer.\n\
             \n\
             bench/obs/farm may not call File::create or fs::write directly, or\n\
             open files through OpenOptions (except the designated\n\
             crates/obs/src/atomic.rs): a crash between create and flush leaves\n\
             a torn TSV/manifest that poisons resumed campaigns. The atomic\n\
             writer stages to a temp file and renames; the checkpoint journal's\n\
             durable appender lives beside it.\n\
             \n\
             example (flagged, in crates/farm):\n\
                 std::fs::write(path, tsv)?;\n\
             fix: use maps_obs::atomic's helpers.\n"
        }
        "ALLOW-001" => {
            "ALLOW-001: allowlist entries must still absorb something.\n\
             \n\
             lint.allow entries that matched no finding this run are stale:\n\
             the code they excused was fixed or moved, and a dead entry is a\n\
             free pass for the next regression at that path. Budgeted entries\n\
             (max=N) and chain-scoped entries (chain=SUBSTR) go stale the same\n\
             way. Every entry also needs a trailing `# justification`.\n\
             \n\
             example (flagged):\n\
                 SAFE-001 crates/old/file.rs max=1  # audited 2024\n\
             fix: delete the entry (or re-point it at the code it excuses).\n"
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_an_explanation() {
        for id in RULE_IDS {
            let text = explain(id).unwrap_or_else(|| panic!("no explanation for {id}"));
            assert!(text.starts_with(id), "{id} text must lead with its ID");
            assert!(
                text.contains("example"),
                "{id} explanation needs an example"
            );
        }
    }

    #[test]
    fn unknown_rules_are_none() {
        assert!(explain("NOPE-999").is_none());
        assert!(explain("panic-002").is_none(), "IDs are case-sensitive");
    }
}
