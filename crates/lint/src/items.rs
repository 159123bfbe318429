//! A lightweight item model parsed from the lexer's token stream.
//!
//! This is the middle layer between the flat token scanner ([`crate::lexer`])
//! and the workspace call graph ([`crate::graph`]): still dependency-free
//! (no `syn`), it recovers just enough structure for reachability rules —
//! functions with their owners (inherent impl, trait impl, or trait
//! default), per-body call sites and panic/alloc/clock sinks, and
//! `use … as …` renames. It is a *heuristic* model: see DESIGN.md §15 for
//! the documented over- and under-approximations.
//!
//! Parsing strategy: one linear pass with explicit brace matching. Items
//! (`use`, `impl`, `trait`, `mod`, `fn`) are recognised by their leading
//! keyword at block level; `impl`/`trait`/`mod` bodies recurse with the
//! owner context updated; `fn` bodies are scanned flat for calls and sinks
//! (nested `fn`s and closures are attributed to the enclosing item —
//! conservative for reachability). `struct`/`enum`/`union` bodies and
//! `const`/`static` initializers are stepped over so their contents are
//! not misread as items.

use crate::lexer::{Tok, TokKind};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `Type::name(…)` / `module::name(…)`; the qualifier is the path
    /// segment immediately before the final `::`.
    Qualified(String),
    /// `.name(…)` (also `.name::<…>(…)` turbofish).
    Method,
    /// `name(…)` with no receiver or qualifier.
    Free,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Resolution class.
    pub kind: CallKind,
    /// Callee name as written.
    pub name: String,
    /// 1-based source line of the callee token.
    pub line: u32,
}

/// Sink families the reachability rules look for inside bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// Can abort the process: `panic!`-family macros, `.unwrap()`,
    /// `.expect("…")`, `assert!`-family (not `debug_assert!`), and
    /// indexing with a literal (`x[0]`).
    Panic,
    /// Heap traffic: `Box::new`, `format!`, `vec!`, `.to_string()`,
    /// `.to_owned()`, `.to_vec()`, `.collect()`, and `.push(…)` in a
    /// function that also constructs a fresh `Vec`.
    Alloc,
    /// Ambient wall-clock / randomness (DET-002's identifier list).
    Clock,
}

/// One sink occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sink {
    /// Sink family.
    pub kind: SinkKind,
    /// What was matched, for the diagnostic (`.unwrap()`, `format!`, …).
    pub what: &'static str,
    /// 1-based source line.
    pub line: u32,
}

/// One function (free, inherent method, trait method, or trait default).
#[derive(Debug)]
pub struct FnItem {
    /// Repo-relative file path.
    pub file: String,
    /// `crates/<name>/…` crate, `None` for the root facade's `src/`.
    pub crate_name: Option<String>,
    /// Impl-target type name (`impl Foo` / `impl Tr for Foo` → `Foo`), or
    /// the trait name for a default method in a `trait` block.
    pub owner: Option<String>,
    /// Trait name when the fn lives in `impl Tr for …` or in `trait Tr`.
    pub trait_of: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the fn sits inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    /// Call sites in body order.
    pub calls: Vec<Call>,
    /// Panic/alloc/clock sinks in body order.
    pub sinks: Vec<Sink>,
}

impl FnItem {
    /// `Owner::name` or bare `name`, for chain rendering.
    pub fn qual_name(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything the item pass recovers from one file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Repo-relative path of the parsed file.
    pub path: String,
    /// Functions in source order.
    pub fns: Vec<FnItem>,
    /// `use … as alias` renames: `(alias, original last segment)`.
    pub aliases: Vec<(String, String)>,
    /// Every capitalised identifier outside test regions — the type and
    /// trait names the file can plausibly dispatch on. Method-call
    /// resolution only targets owners/traits mentioned in the calling
    /// file, which keeps `.record(…)`-style name collisions from wiring
    /// the whole workspace together.
    pub mentioned: std::collections::BTreeSet<String>,
}

/// Keywords that look like `name(` call sites but never are.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "else", "while", "for", "match", "return", "loop", "fn", "let", "in", "move", "await",
];

/// Identifiers that reach for wall-clock time or ambient randomness
/// (kept in sync with DET-002's list in [`crate::rules`]).
pub(crate) const CLOCK_RNG_IDENTS: [&str; 5] = [
    "Instant",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "RandomState",
];

/// Parses one file's tokens into the item model. `test_regions` are the
/// token-index ranges from [`crate::rules`]' detector, so both layers
/// agree on what is test code.
pub fn parse_items(path: &str, toks: &[Tok], test_regions: &[(usize, usize)]) -> FileModel {
    let mut p = Parser {
        path,
        toks,
        test_regions,
        out: FileModel {
            path: path.to_string(),
            ..FileModel::default()
        },
    };
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && t.text.chars().next().is_some_and(char::is_uppercase)
            && !p.in_test(i)
        {
            p.out.mentioned.insert(t.text.clone());
        }
    }
    p.block(0, toks.len(), None, None);
    p.out
}

struct Parser<'a> {
    path: &'a str,
    toks: &'a [Tok],
    test_regions: &'a [(usize, usize)],
    out: FileModel,
}

impl Parser<'_> {
    fn crate_name(&self) -> Option<String> {
        self.path
            .strip_prefix("crates/")?
            .split('/')
            .next()
            .map(str::to_string)
    }

    fn in_test(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| i >= a && i <= b)
    }

    fn ident(&self, i: usize) -> Option<&str> {
        self.toks
            .get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    }

    fn is_ident(&self, i: usize, text: &str) -> bool {
        self.ident(i) == Some(text)
    }

    fn is_punct(&self, i: usize, ch: char) -> bool {
        self.toks.get(i).is_some_and(|t| {
            t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(ch)
        })
    }

    /// Index just past the `}` matching the `{` at `open`.
    fn match_brace(&self, open: usize) -> usize {
        let mut depth = 0i64;
        let mut j = open;
        while j < self.toks.len() {
            if self.is_punct(j, '{') {
                depth += 1;
            } else if self.is_punct(j, '}') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        j
    }

    /// Item-level scan of `[start, end)` under the given owner context.
    fn block(&mut self, start: usize, end: usize, owner: Option<&str>, trait_of: Option<&str>) {
        let mut i = start;
        while i < end {
            match self.ident(i) {
                Some("use") => i = self.use_item(i, end),
                Some("const") | Some("static") if !self.is_ident(i + 1, "fn") => {
                    i = self.skip_const(i, end)
                }
                Some("impl") => i = self.impl_item(i, end),
                Some("trait") => i = self.trait_item(i, end),
                Some("mod") => i = self.mod_item(i, end, owner, trait_of),
                Some("fn") => i = self.fn_item(i, end, owner, trait_of),
                Some("struct") | Some("enum") | Some("union") => {
                    // Skip the body so field and variant payload types are
                    // not misread as items.
                    let mut j = i + 1;
                    while j < end && !self.is_punct(j, '{') && !self.is_punct(j, ';') {
                        j += 1;
                    }
                    i = if self.is_punct(j, '{') {
                        self.match_brace(j)
                    } else {
                        j + 1
                    };
                }
                _ => i += 1,
            }
        }
    }

    /// `use a::b::C;` / `use a::B as C;` / `use a::{B, C as D};`
    fn use_item(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        let mut prev_ident: Option<String> = None;
        while j < end && !self.is_punct(j, ';') {
            if self.is_ident(j, "as") {
                if let (Some(orig), Some(alias)) = (prev_ident.clone(), self.ident(j + 1)) {
                    self.out.aliases.push((alias.to_string(), orig));
                }
                j += 2;
                continue;
            }
            if let Some(id) = self.ident(j) {
                prev_ident = Some(id.to_string());
            }
            j += 1;
        }
        j + 1
    }

    /// `const NAME: T = …;` — steps over the initializer, whose braces
    /// and closures are not items.
    fn skip_const(&self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        let mut depth = 0i64;
        while j < end {
            if self.is_punct(j, '{') || self.is_punct(j, '[') || self.is_punct(j, '(') {
                depth += 1;
            } else if self.is_punct(j, '}') || self.is_punct(j, ']') || self.is_punct(j, ')') {
                depth -= 1;
            } else if depth == 0 && self.is_punct(j, ';') {
                break;
            }
            j += 1;
        }
        j + 1
    }

    /// `impl<…> Type {…}` / `impl<…> Trait for Type {…}`.
    fn impl_item(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        if self.is_punct(j, '<') {
            j = self.skip_angles(j, end);
        }
        // Idents up to `for` / `where` / `{`; the *last* path segment
        // before the stop is the name that matters.
        let mut pre_for: Option<String> = None;
        let mut post_for: Option<String> = None;
        let mut saw_for = false;
        while j < end && !self.is_punct(j, '{') {
            if self.is_ident(j, "where") {
                break;
            }
            if self.is_ident(j, "for") {
                saw_for = true;
                j += 1;
                continue;
            }
            if self.is_punct(j, '<') {
                j = self.skip_angles(j, end);
                continue;
            }
            if let Some(id) = self.ident(j) {
                if saw_for {
                    post_for = Some(id.to_string());
                } else {
                    pre_for = Some(id.to_string());
                }
            }
            j += 1;
        }
        while j < end && !self.is_punct(j, '{') {
            j += 1;
        }
        if j >= end {
            return j;
        }
        let body_end = self.match_brace(j);
        let (owner, trait_of) = if saw_for {
            (post_for, pre_for)
        } else {
            (pre_for, None)
        };
        self.block(j + 1, body_end - 1, owner.as_deref(), trait_of.as_deref());
        body_end
    }

    /// `trait Name {…}` — default method bodies get `owner = trait_of =
    /// Name`.
    fn trait_item(&mut self, i: usize, end: usize) -> usize {
        let Some(name) = self.ident(i + 1).map(str::to_string) else {
            return i + 1;
        };
        let mut j = i + 2;
        while j < end && !self.is_punct(j, '{') {
            if self.is_punct(j, ';') {
                return j + 1; // `trait Alias = …;`
            }
            j += 1;
        }
        if j >= end {
            return j;
        }
        let body_end = self.match_brace(j);
        self.block(j + 1, body_end - 1, Some(&name), Some(&name));
        body_end
    }

    /// `mod name { … }` (inline) or `mod name;`.
    fn mod_item(
        &mut self,
        i: usize,
        end: usize,
        owner: Option<&str>,
        trait_of: Option<&str>,
    ) -> usize {
        let mut j = i + 1;
        while j < end && !self.is_punct(j, '{') && !self.is_punct(j, ';') {
            j += 1;
        }
        if self.is_punct(j, '{') {
            let body_end = self.match_brace(j);
            self.block(j + 1, body_end - 1, owner, trait_of);
            body_end
        } else {
            j + 1
        }
    }

    /// `fn name<…>(…) -> … {body}` or a bodiless trait-method decl.
    fn fn_item(
        &mut self,
        i: usize,
        end: usize,
        owner: Option<&str>,
        trait_of: Option<&str>,
    ) -> usize {
        let Some(name) = self.ident(i + 1).map(str::to_string) else {
            return i + 1;
        };
        // Find the body `{`: first brace outside parentheses/brackets
        // (`[u64; 8]` return types carry a `;` that is not a declaration
        // terminator). Angle depth is not tracked — generic args never
        // contain stray braces in this codebase.
        let mut j = i + 2;
        let mut depth = 0i64;
        loop {
            if j >= end {
                return j;
            }
            if self.is_punct(j, '(') || self.is_punct(j, '[') {
                depth += 1;
            } else if self.is_punct(j, ')') || self.is_punct(j, ']') {
                depth -= 1;
            } else if depth == 0 && self.is_punct(j, '{') {
                break;
            } else if depth == 0 && self.is_punct(j, ';') {
                return j + 1; // declaration without a body
            }
            j += 1;
        }
        let body_end = self.match_brace(j);
        let (calls, sinks) = self.scan_body(j + 1, body_end.saturating_sub(1));
        self.out.fns.push(FnItem {
            file: self.path.to_string(),
            crate_name: self.crate_name(),
            owner: owner.map(str::to_string),
            trait_of: trait_of.map(str::to_string),
            name,
            line: self.toks[i].line,
            in_test: self.in_test(i),
            calls,
            sinks,
        });
        body_end
    }

    /// Flat scan of a body range for call sites and sinks.
    fn scan_body(&self, start: usize, end: usize) -> (Vec<Call>, Vec<Sink>) {
        let mut calls = Vec::new();
        let mut sinks = Vec::new();
        let toks = self.toks;
        // `.push(…)` only counts as an alloc sink when the same body also
        // conjures a Vec out of nothing.
        let mut fresh_vec = false;
        for k in start..end.min(toks.len()) {
            if self.is_ident(k, "Vec")
                && self.is_punct(k + 1, ':')
                && self.is_punct(k + 2, ':')
                && (self.is_ident(k + 3, "new") || self.is_ident(k + 3, "with_capacity"))
            {
                fresh_vec = true;
            }
            if self.is_ident(k, "vec") && self.is_punct(k + 1, '!') {
                fresh_vec = true;
            }
        }
        for k in start..end.min(toks.len()) {
            let t = &toks[k];
            match t.kind {
                TokKind::Ident => {
                    let name = t.text.as_str();
                    // Macro invocation: `name !`.
                    if self.is_punct(k + 1, '!') {
                        match name {
                            "panic" | "unreachable" | "todo" | "unimplemented" | "assert"
                            | "assert_eq" | "assert_ne" => sinks.push(Sink {
                                kind: SinkKind::Panic,
                                what: match name {
                                    "panic" => "panic!",
                                    "unreachable" => "unreachable!",
                                    "todo" => "todo!",
                                    "unimplemented" => "unimplemented!",
                                    "assert" => "assert!",
                                    "assert_eq" => "assert_eq!",
                                    _ => "assert_ne!",
                                },
                                line: t.line,
                            }),
                            "format" => sinks.push(Sink {
                                kind: SinkKind::Alloc,
                                what: "format!",
                                line: t.line,
                            }),
                            "vec" => sinks.push(Sink {
                                kind: SinkKind::Alloc,
                                what: "vec!",
                                line: t.line,
                            }),
                            _ => {}
                        }
                        continue;
                    }
                    if CLOCK_RNG_IDENTS.contains(&name) {
                        sinks.push(Sink {
                            kind: SinkKind::Clock,
                            what: match name {
                                "Instant" => "Instant",
                                "SystemTime" => "SystemTime",
                                "thread_rng" => "thread_rng",
                                "from_entropy" => "from_entropy",
                                _ => "RandomState",
                            },
                            line: t.line,
                        });
                    }
                    let after_dot = self.is_punct(k.wrapping_sub(1), '.');
                    let qualified = self.is_punct(k.wrapping_sub(1), ':')
                        && self.is_punct(k.wrapping_sub(2), ':');
                    // Method sinks.
                    if after_dot {
                        let paren = self.is_punct(k + 1, '(');
                        match name {
                            "unwrap" if paren && self.is_punct(k + 2, ')') => sinks.push(Sink {
                                kind: SinkKind::Panic,
                                what: ".unwrap()",
                                line: t.line,
                            }),
                            "expect"
                                if paren
                                    && toks.get(k + 2).is_some_and(|t| t.kind == TokKind::Str) =>
                            {
                                sinks.push(Sink {
                                    kind: SinkKind::Panic,
                                    what: ".expect(\"…\")",
                                    line: t.line,
                                })
                            }
                            "to_string" | "to_owned" | "to_vec" if paren => sinks.push(Sink {
                                kind: SinkKind::Alloc,
                                what: match name {
                                    "to_string" => ".to_string()",
                                    "to_owned" => ".to_owned()",
                                    _ => ".to_vec()",
                                },
                                line: t.line,
                            }),
                            "collect"
                                if paren
                                    || (self.is_punct(k + 1, ':') && self.is_punct(k + 2, ':')) =>
                            {
                                sinks.push(Sink {
                                    kind: SinkKind::Alloc,
                                    what: ".collect()",
                                    line: t.line,
                                })
                            }
                            "push" if paren && fresh_vec => sinks.push(Sink {
                                kind: SinkKind::Alloc,
                                what: ".push() on a fresh Vec",
                                line: t.line,
                            }),
                            _ => {}
                        }
                    }
                    // Qualified sinks: `Box::new`.
                    if qualified && name == "new" && self.is_ident(k.wrapping_sub(3), "Box") {
                        sinks.push(Sink {
                            kind: SinkKind::Alloc,
                            what: "Box::new",
                            line: t.line,
                        });
                    }
                    // Call-edge extraction.
                    let callish = self.is_punct(k + 1, '(')
                        || (self.is_punct(k + 1, ':')
                            && self.is_punct(k + 2, ':')
                            && self.is_punct(k + 3, '<')
                            && after_dot);
                    if !callish || NON_CALL_KEYWORDS.contains(&name) {
                        continue;
                    }
                    if qualified {
                        if let Some(q) = self.ident(k.wrapping_sub(3)) {
                            calls.push(Call {
                                kind: CallKind::Qualified(q.to_string()),
                                name: name.to_string(),
                                line: t.line,
                            });
                        }
                    } else if after_dot {
                        calls.push(Call {
                            kind: CallKind::Method,
                            name: name.to_string(),
                            line: t.line,
                        });
                    } else {
                        calls.push(Call {
                            kind: CallKind::Free,
                            name: name.to_string(),
                            line: t.line,
                        });
                    }
                }
                // Literal slice index: `expr [ <num> ]` where `expr`
                // ends in an identifier, `)`, or `]`.
                TokKind::Punct
                    if t.text == "["
                        && toks.get(k + 1).is_some_and(|t| t.kind == TokKind::Num)
                        && self.is_punct(k + 2, ']') =>
                {
                    let prev = toks.get(k.wrapping_sub(1));
                    let indexable = prev.is_some_and(|p| {
                        p.kind == TokKind::Ident && !NON_CALL_KEYWORDS.contains(&p.text.as_str())
                            || (p.kind == TokKind::Punct && (p.text == ")" || p.text == "]"))
                    });
                    if indexable {
                        sinks.push(Sink {
                            kind: SinkKind::Panic,
                            what: "index with a literal",
                            line: t.line,
                        });
                    }
                }
                _ => {}
            }
        }
        (calls, sinks)
    }

    /// Advances past a balanced `<…>` group starting at `open`.
    fn skip_angles(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i64;
        let mut j = open;
        while j < end {
            if self.is_punct(j, '<') {
                depth += 1;
            } else if self.is_punct(j, '>') && !self.is_punct(j.wrapping_sub(1), '-') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_regions;

    fn model(path: &str, src: &str) -> FileModel {
        let lexed = lex(src);
        let regions = test_regions(&lexed.toks);
        parse_items(path, &lexed.toks, &regions)
    }

    #[test]
    fn fns_get_owner_trait_and_default_contexts() {
        let m = model(
            "crates/cache/src/x.rs",
            "
            pub fn free_one() {}
            impl Foo { fn inherent(&self) {} }
            impl Bar for Foo { fn trait_method(&self) {} }
            trait Baz { fn with_default(&self) { self.helper(); } fn decl_only(&self); }
            ",
        );
        let names: Vec<(Option<&str>, &str, Option<&str>)> = m
            .fns
            .iter()
            .map(|f| (f.owner.as_deref(), f.name.as_str(), f.trait_of.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                (None, "free_one", None),
                (Some("Foo"), "inherent", None),
                (Some("Foo"), "trait_method", Some("Bar")),
                (Some("Baz"), "with_default", Some("Baz")),
            ]
        );
    }

    #[test]
    fn calls_are_classified_by_site_shape() {
        let m = model(
            "crates/sim/src/x.rs",
            "
            fn f(&self) {
                helper();
                self.method_one();
                Type::qualified(1);
                self.it.iter().collect::<Vec<_>>();
                Self::own(2);
            }
            ",
        );
        let f = &m.fns[0];
        let shapes: Vec<(&CallKind, &str)> =
            f.calls.iter().map(|c| (&c.kind, c.name.as_str())).collect();
        assert!(shapes.contains(&(&CallKind::Free, "helper")));
        assert!(shapes.contains(&(&CallKind::Method, "method_one")));
        assert!(shapes.contains(&(&CallKind::Qualified("Type".to_string()), "qualified")));
        assert!(shapes.contains(&(&CallKind::Qualified("Self".to_string()), "own")));
    }

    #[test]
    fn sinks_cover_panic_alloc_and_clock_families() {
        let m = model(
            "crates/sim/src/x.rs",
            r#"
            fn f(x: Option<u32>, v: &[u32]) -> u32 {
                let a = x.unwrap();
                let b = x.expect("gone");
                assert!(a > 0);
                debug_assert!(a > 0);
                let c = v[0];
                let d = format!("{a}");
                let e = d.to_string();
                let mut fresh = Vec::new();
                fresh.push(a);
                let boxed = Box::new(a);
                let t = Instant::now();
                a
            }
            "#,
        );
        let f = &m.fns[0];
        let whats: Vec<&str> = f.sinks.iter().map(|s| s.what).collect();
        assert!(whats.contains(&".unwrap()"));
        assert!(whats.contains(&".expect(\"…\")"));
        assert!(whats.contains(&"assert!"));
        assert!(!whats.iter().any(|w| w.contains("debug_assert")));
        assert!(whats.contains(&"index with a literal"));
        assert!(whats.contains(&"format!"));
        assert!(whats.contains(&".to_string()"));
        assert!(whats.contains(&".push() on a fresh Vec"));
        assert!(whats.contains(&"Box::new"));
        assert!(whats.contains(&"Instant"));
    }

    #[test]
    fn push_without_fresh_vec_is_not_an_alloc_sink() {
        let m = model(
            "crates/sim/src/x.rs",
            "fn f(&mut self, x: u32) { self.buf.push(x); }",
        );
        assert!(m.fns[0].sinks.is_empty(), "{:?}", m.fns[0].sinks);
    }

    #[test]
    fn array_types_and_attributes_are_not_literal_indexing() {
        let m = model(
            "crates/sim/src/x.rs",
            "
            #[inline]
            fn f(&self) -> [u64; 8] {
                let a: [u64; 8] = [0; 8];
                a
            }
            ",
        );
        assert!(m.fns[0].sinks.is_empty(), "{:?}", m.fns[0].sinks);
    }

    #[test]
    fn use_renames_are_recorded() {
        let m = model(
            "crates/sim/src/x.rs",
            "use crate::util::Helper as H;\nuse std::fmt::{self, Debug as Dbg};\nfn f() {}",
        );
        assert!(m.aliases.contains(&("H".to_string(), "Helper".to_string())));
        assert!(m
            .aliases
            .contains(&("Dbg".to_string(), "Debug".to_string())));
    }

    #[test]
    fn test_region_fns_are_marked() {
        let m = model(
            "crates/sim/src/x.rs",
            "
            fn prod() {}
            #[cfg(test)]
            mod tests { fn scratch() { x.unwrap(); } }
            ",
        );
        assert!(!m.fns[0].in_test);
        assert!(m.fns[1].in_test);
    }
}
