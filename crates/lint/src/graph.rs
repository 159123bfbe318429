//! The workspace call graph and the reachability rule families.
//!
//! | Rule       | Invariant                                                        |
//! |------------|------------------------------------------------------------------|
//! | PANIC-002  | No panic site reachable from the hot-path roots                  |
//! | ALLOC-001  | No heap allocation reachable from the batch kernel               |
//! | DET-003    | No ambient time/randomness laundered through exempt-crate helpers|
//!
//! The graph is a deliberate *over-approximation* (see DESIGN.md §15):
//! `.method(…)` calls resolve to every workspace method of that name
//! whose owner type **or** trait is mentioned in the calling file (the
//! mention gate keeps `.record(…)`-style collisions from wiring the whole
//! workspace together while keeping `dyn Policy` dispatch: the trait name
//! appears at the call site's file even when the impl types do not),
//! `Type::method(…)` resolves through the file's `use … as` renames, and
//! lowercase qualifiers fall back to free functions of the same name.
//! Unresolvable names are external (std) and contribute no edge — their
//! dangerous cases are covered by the body-local sink scan instead
//! (`.unwrap()` is a sink wherever it appears, not an edge to `Option`).
//! Test-region functions are excluded from the graph entirely: they can
//! neither be reached nor (by name collision) fake an edge.

use std::collections::BTreeMap;

use crate::items::{CallKind, FileModel, FnItem, SinkKind};
use crate::rules::{RawDiag, CLOCK_EXEMPT_CRATES};
use crate::Diagnostic;

/// Hot-path roots for PANIC-002: the metadata engine's one entry point
/// (every simulated LLC event goes through it), both MDC backends' lookup
/// paths, (via [`POLICY_TRAIT`]) every replacement policy callback, and
/// the daemon's two always-on loops — the frame decoder fed by untrusted
/// peers and the worker supervisor that must survive every crash it is
/// supervising.
const PANIC_ROOTS: [(&str, &str); 5] = [
    ("MetadataEngine", "handle_batch"),
    ("SetAssocCache", "scan_set"),
    ("RandomizedCache", "access"),
    ("FrameReader", "next_frame"),
    ("Supervisor", "supervise"),
];

/// Every fn inside an `impl Policy for …` block (or a `Policy` default
/// method) is a PANIC-002 root: the backends call them per access.
const POLICY_TRAIT: &str = "Policy";

/// ALLOC-001 root: the batch kernel entry point. Everything it reaches
/// must stay allocation-free to protect the batched-replay ns/event wins.
const ALLOC_ROOTS: [(&str, &str); 1] = [("MetadataEngine", "handle_batch")];

/// Crates whose reachable code ALLOC-001 holds allocation-free. The
/// oracle is deliberately excluded: it is the naive-by-design reference
/// model, correct-but-slow by contract (documented under-approximation).
const ALLOC_SINK_CRATES: [&str; 5] = ["sim", "cache", "secure", "mem", "trace"];

/// Crates whose fns may not call tainted exempt-crate helpers (DET-003).
/// Narrower than DET-002's crate list: `farm` and `inject` orchestrate
/// campaigns and consume wall-clock manifest/heartbeat helpers from
/// `obs` by design — the laundering hazard is ambient time reaching the
/// *model* crates, whose results must be pure functions of config+seed.
const DET3_CRATES: [&str; 7] = [
    "sim",
    "cache",
    "secure",
    "mem",
    "oracle",
    "trace",
    "workloads",
];

/// The workspace-level model: all shipped (non-test, `src/`) functions
/// with resolved call edges.
pub struct Workspace {
    fns: Vec<FnItem>,
    /// Forward edges, per fn, sorted+deduped by callee: `(callee, line)`.
    edges: Vec<Vec<(usize, u32)>>,
    /// Reverse edges, for taint propagation.
    redges: Vec<Vec<usize>>,
}

impl Workspace {
    /// Builds the graph from per-file models. Only shipped code takes
    /// part: `crates/*/src/**` and the root `src/**`, minus test regions.
    pub fn build(models: Vec<FileModel>) -> Self {
        let mut fns = Vec::new();
        let mut aliases_by_file: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
        let mut mentioned_by_file: BTreeMap<String, std::collections::BTreeSet<String>> =
            BTreeMap::new();
        for m in models {
            mentioned_by_file.insert(m.path.clone(), m.mentioned);
            let file_aliases = aliases_by_file.entry(m.path).or_default();
            for (alias, orig) in m.aliases {
                file_aliases.insert(alias, orig);
            }
            for f in m.fns {
                if !f.in_test && shipped(&f.file) {
                    fns.push(f);
                }
            }
        }
        let mut ws = Workspace {
            edges: vec![Vec::new(); fns.len()],
            redges: vec![Vec::new(); fns.len()],
            fns,
        };
        ws.resolve(&aliases_by_file, &mentioned_by_file);
        ws
    }

    /// Number of functions in the graph.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    fn resolve(
        &mut self,
        aliases: &BTreeMap<String, BTreeMap<String, String>>,
        mentioned: &BTreeMap<String, std::collections::BTreeSet<String>>,
    ) {
        // Name indexes. Methods: any fn with an owner; free: owner-less.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut frees: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut owned: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, f) in self.fns.iter().enumerate() {
            match &f.owner {
                Some(o) => {
                    methods.entry(&f.name).or_default().push(id);
                    owned.entry((o.as_str(), &f.name)).or_default().push(id);
                }
                None => frees.entry(&f.name).or_default().push(id),
            }
        }
        let mut edges: Vec<Vec<(usize, u32)>> = vec![Vec::new(); self.fns.len()];
        for (id, f) in self.fns.iter().enumerate() {
            let file_aliases = aliases.get(&f.file);
            let file_mentions = mentioned.get(&f.file);
            // A candidate method is dispatchable from this file only when
            // its owner type or its trait is named somewhere in the file.
            let plausible = |t: usize| {
                let g: &FnItem = &self.fns[t];
                file_mentions.is_none_or(|m| {
                    g.owner.as_ref().is_some_and(|o| m.contains(o))
                        || g.trait_of.as_ref().is_some_and(|tr| m.contains(tr))
                })
            };
            for c in &f.calls {
                let targets: Vec<usize> = match &c.kind {
                    CallKind::Method => {
                        let mut v = methods.get(c.name.as_str()).cloned().unwrap_or_default();
                        v.retain(|&t| plausible(t));
                        v
                    }
                    CallKind::Free => frees.get(c.name.as_str()).cloned().unwrap_or_default(),
                    CallKind::Qualified(q) => {
                        let q = match q.as_str() {
                            "Self" => f.owner.as_deref().unwrap_or(q),
                            other => file_aliases
                                .and_then(|a| a.get(other))
                                .map(String::as_str)
                                .unwrap_or(other),
                        };
                        let hit = owned
                            .get(&(q, c.name.as_str()))
                            .cloned()
                            .unwrap_or_default();
                        if hit.is_empty() && q.chars().next().is_some_and(|ch| ch.is_lowercase()) {
                            // `module::helper(…)` — fall back to free fns.
                            frees.get(c.name.as_str()).cloned().unwrap_or_default()
                        } else {
                            hit
                        }
                    }
                };
                for t in targets {
                    edges[id].push((t, c.line));
                }
            }
            edges[id].sort_by_key(|&(t, line)| (t, line));
            edges[id].dedup_by_key(|&mut (t, _)| t);
        }
        let mut redges: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for (id, es) in edges.iter().enumerate() {
            for &(t, _) in es {
                redges[t].push(id);
            }
        }
        for r in &mut redges {
            r.sort_unstable();
            r.dedup();
        }
        self.edges = edges;
        self.redges = redges;
    }

    /// Multi-source BFS; returns `parent[id] = Some(caller)` for every
    /// reached fn (roots point at themselves).
    fn reach(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for &r in &sorted_roots {
            parent[r] = Some(r);
            queue.push_back(r);
        }
        while let Some(u) = queue.pop_front() {
            for &(v, _) in &self.edges[u] {
                if parent[v].is_none() {
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        parent
    }

    /// Call chain root → … → `id`, as `Owner::name` strings.
    fn chain(&self, parent: &[Option<usize>], id: usize) -> Vec<String> {
        let mut rev = vec![id];
        let mut cur = id;
        while let Some(p) = parent[cur] {
            if p == cur {
                break;
            }
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        rev.into_iter().map(|i| self.fns[i].qual_name()).collect()
    }

    fn root_ids(&self, named: &[(&str, &str)], trait_roots: Option<&str>) -> Vec<usize> {
        let mut roots = Vec::new();
        for (id, f) in self.fns.iter().enumerate() {
            let named_hit = named
                .iter()
                .any(|(o, n)| f.owner.as_deref() == Some(*o) && f.name == *n);
            let trait_hit = trait_roots.is_some() && f.trait_of.as_deref() == trait_roots;
            if named_hit || trait_hit {
                roots.push(id);
            }
        }
        roots
    }
}

/// Whether a file takes part in the graph: shipped crate or facade source.
fn shipped(path: &str) -> bool {
    (path.starts_with("crates/") && path.split('/').nth(2) == Some("src"))
        || path.starts_with("src/")
}

/// Runs every graph rule; diagnostics come back unabsorbed (the caller
/// applies the allowlist with chain text).
pub(crate) fn graph_rules(ws: &Workspace) -> Vec<RawDiag> {
    let mut out = Vec::new();
    panic_002(ws, &mut out);
    alloc_001(ws, &mut out);
    det_003(ws, &mut out);
    out
}

/// PANIC-002: panic sites reachable from the hot-path roots.
fn panic_002(ws: &Workspace, out: &mut Vec<RawDiag>) {
    let roots = ws.root_ids(&PANIC_ROOTS, Some(POLICY_TRAIT));
    let parent = ws.reach(&roots);
    for (id, f) in ws.fns.iter().enumerate() {
        if parent[id].is_none() {
            continue;
        }
        for s in f.sinks.iter().filter(|s| s.kind == SinkKind::Panic) {
            let chain = ws.chain(&parent, id);
            out.push(RawDiag {
                absorbable: true,
                diag: Diagnostic {
                    rule: "PANIC-002",
                    file: f.file.clone(),
                    line: s.line,
                    message: format!(
                        "`{}` is reachable from hot-path root `{}`: a malformed access or \
                         corrupt metadata line must surface as a typed error, never abort \
                         the replay kernel (use `debug_assert!` for invariants)",
                        s.what,
                        chain.first().map(String::as_str).unwrap_or("?"),
                    ),
                    chain,
                },
            });
        }
    }
}

/// ALLOC-001: heap traffic reachable from the batch kernel.
fn alloc_001(ws: &Workspace, out: &mut Vec<RawDiag>) {
    let roots = ws.root_ids(&ALLOC_ROOTS, None);
    let parent = ws.reach(&roots);
    for (id, f) in ws.fns.iter().enumerate() {
        if parent[id].is_none() {
            continue;
        }
        let in_scope = f
            .crate_name
            .as_deref()
            .is_some_and(|c| ALLOC_SINK_CRATES.contains(&c));
        if !in_scope {
            continue;
        }
        for s in f.sinks.iter().filter(|s| s.kind == SinkKind::Alloc) {
            let chain = ws.chain(&parent, id);
            out.push(RawDiag {
                absorbable: true,
                diag: Diagnostic {
                    rule: "ALLOC-001",
                    file: f.file.clone(),
                    line: s.line,
                    message: format!(
                        "`{}` is reachable from the batch kernel: the hot loop must stay \
                         allocation-free (preallocate in the constructor or use a stack \
                         buffer) to hold the batched-replay ns/event budget",
                        s.what,
                    ),
                    chain,
                },
            });
        }
    }
}

/// DET-003: a deterministic-crate fn calling an exempt-crate helper that
/// (transitively) reads the wall clock or ambient randomness.
fn det_003(ws: &Workspace, out: &mut Vec<RawDiag>) {
    // Taint: fns whose own body reads the clock, closed backwards over
    // callers.
    let mut tainted = vec![false; ws.fns.len()];
    let mut queue = std::collections::VecDeque::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if f.sinks.iter().any(|s| s.kind == SinkKind::Clock) {
            tainted[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &p in &ws.redges[u] {
            if !tainted[p] {
                tainted[p] = true;
                queue.push_back(p);
            }
        }
    }
    for (id, f) in ws.fns.iter().enumerate() {
        let det_caller = match f.crate_name.as_deref() {
            Some(c) => DET3_CRATES.contains(&c),
            None => true, // root facade src/
        };
        if !det_caller {
            continue;
        }
        for &(callee, line) in &ws.edges[id] {
            let g = &ws.fns[callee];
            let exempt_callee = g
                .crate_name
                .as_deref()
                .is_some_and(|c| CLOCK_EXEMPT_CRATES.contains(&c));
            if !exempt_callee || !tainted[callee] {
                continue;
            }
            // Forward walk through tainted fns to a direct clock sink,
            // for the diagnostic chain.
            let mut chain = vec![f.qual_name()];
            let mut cur = callee;
            let mut seen = vec![false; ws.fns.len()];
            let ambient = loop {
                chain.push(ws.fns[cur].qual_name());
                seen[cur] = true;
                if let Some(s) = ws.fns[cur].sinks.iter().find(|s| s.kind == SinkKind::Clock) {
                    break s.what;
                }
                match ws.edges[cur]
                    .iter()
                    .map(|&(t, _)| t)
                    .find(|&t| tainted[t] && !seen[t])
                {
                    Some(next) => cur = next,
                    None => break "ambient state",
                }
            };
            out.push(RawDiag {
                absorbable: true,
                diag: Diagnostic {
                    rule: "DET-003",
                    file: f.file.clone(),
                    line,
                    message: format!(
                        "call into `{}` launders `{}` into a deterministic crate: results \
                         must be a pure function of config+seed; thread timing through the \
                         caller or use the vendored SplitMix64 PRNG",
                        ws.fns[callee].qual_name(),
                        ambient,
                    ),
                    chain,
                },
            });
        }
    }
}
