//! A comment- and string-aware token scanner for Rust source.
//!
//! This is deliberately *not* a parser: the lint rules only need to see
//! identifiers, punctuation, and literals with their line numbers.
//! Comment contents are kept out of the token stream and string literals
//! keep their own token kind (so a `HashMap` mentioned in a doc comment
//! or a `".unwrap()"` inside a string literal can never trigger an
//! identifier rule). Comments are retained separately because SAFE-001
//! checks for adjacent `// SAFETY:` annotations.
//!
//! Handled syntax: line and (nested) block comments, string literals with
//! escapes, raw strings (`r"…"`, `r#"…"#`), byte and C strings (`b"…"`,
//! `br#"…"#`, `c"…"`), char and byte-char literals, lifetimes, numeric
//! literals (including `0x…` and `1.5e3` forms), identifiers, and
//! single-character punctuation.

/// What a token is, as far as the lint rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// A single punctuation character.
    Punct,
    /// String literal of any flavour (contents in `text`; no rule treats a
    /// `Str` token as code, so string contents cannot trigger the
    /// identifier-matching rules).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal.
    Num,
    /// A lifetime (`'a`, `'_`, `'static`).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Token text. For `Str` tokens this is the literal's *contents*
    /// (escapes left as written, delimiters stripped); identifier rules
    /// only match `Ident` tokens, so this can never leak a string into a
    /// code rule.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

/// One comment with its line span and full text (marker included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on.
    pub end_line: u32,
    /// Comment text, without the `//` / `/*` markers.
    pub text: String,
}

/// The scanner's output: code tokens plus comments, both line-stamped.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Scans `src` into tokens and comments. Never fails: unterminated
/// constructs are consumed to end-of-input, which is the lenient behaviour
/// a linter wants (rustc reports the real error).
pub fn lex(src: &str) -> Lexed {
    Lexer {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b' ' | b'\t' | b'\r' => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident(),
                _ => {
                    // Multi-byte UTF-8 (only legal in strings/comments/idents
                    // for our sources) and ASCII punctuation both land here;
                    // emit one punct per byte and keep the line honest.
                    self.push(TokKind::Punct, (c as char).to_string());
                    self.i += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, text: String) {
        self.out.toks.push(Tok {
            kind,
            text,
            line: self.line,
        });
    }

    fn line_comment(&mut self) {
        let start = self.i + 2;
        let line = self.line;
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        self.out.comments.push(Comment {
            line,
            end_line: line,
            text: String::from_utf8_lossy(&self.b[start..self.i]).into_owned(),
        });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let start = self.i + 2;
        self.i += 2;
        let mut depth = 1u32;
        while self.i < self.b.len() && depth > 0 {
            match (self.b[self.i], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.i += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.i += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        let end = self.i.saturating_sub(2).max(start);
        self.out.comments.push(Comment {
            line,
            end_line: self.line,
            text: String::from_utf8_lossy(&self.b[start..end]).into_owned(),
        });
    }

    /// A `"…"` string with backslash escapes; contents are retained
    /// (escape sequences kept as written — key-name literals in codecs
    /// never need them).
    fn string(&mut self) {
        let line = self.line;
        self.i += 1;
        let start = self.i;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'"' => break,
                _ => self.i += 1,
            }
        }
        let end = self.i.min(self.b.len());
        if self.peek(0) == Some(b'"') {
            self.i += 1;
        }
        self.out.toks.push(Tok {
            kind: TokKind::Str,
            text: String::from_utf8_lossy(&self.b[start..end]).into_owned(),
            line,
        });
    }

    /// `r"…"` / `r#"…"#` raw string bodies (no escapes; closed by `"`
    /// followed by the opening number of `#`).
    fn raw_string(&mut self) {
        let line = self.line;
        // At entry `self.i` points at the first `#` or `"` after the prefix.
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.i += 1;
        }
        self.i += 1; // the opening quote
        let start = self.i;
        let mut end = self.b.len();
        'scan: while self.i < self.b.len() {
            match self.b[self.i] {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'"' => {
                    if (1..=hashes).all(|k| self.peek(k) == Some(b'#')) {
                        end = self.i;
                        self.i += 1 + hashes;
                        break 'scan;
                    }
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        self.out.toks.push(Tok {
            kind: TokKind::Str,
            text: String::from_utf8_lossy(&self.b[start..end]).into_owned(),
            line,
        });
    }

    /// Distinguishes `'a'` (char literal) from `'a` (lifetime) with the
    /// standard two-character lookahead.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let next = self.peek(1);
        let is_char = match next {
            Some(b'\\') => true,
            Some(c) if c != b'\'' => self.peek(2) == Some(b'\''),
            _ => true, // `''` — malformed; consume as (empty) char
        };
        if is_char {
            self.i += 1;
            while self.i < self.b.len() {
                match self.b[self.i] {
                    b'\\' => self.i += 2,
                    b'\'' => {
                        self.i += 1;
                        break;
                    }
                    b'\n' => {
                        // Malformed literal; stop rather than eat the file.
                        break;
                    }
                    _ => self.i += 1,
                }
            }
            self.out.toks.push(Tok {
                kind: TokKind::Char,
                text: String::new(),
                line,
            });
        } else {
            let start = self.i;
            self.i += 1;
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                self.i += 1;
            }
            self.push(
                TokKind::Lifetime,
                String::from_utf8_lossy(&self.b[start..self.i]).into_owned(),
            );
        }
    }

    fn number(&mut self) {
        let start = self.i;
        while self
            .peek(0)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.i += 1;
        }
        // One fractional/exponent part: `1.5`, `1e9`, `1.5e-3`. A `.` is
        // only part of the number when a digit follows (so `0..n` ranges
        // stay two puncts).
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                self.i += 1;
            }
        }
        if (self.b[self.i - 1] == b'e' || self.b[self.i - 1] == b'E')
            && matches!(self.peek(0), Some(b'+') | Some(b'-'))
        {
            self.i += 1;
            while self.peek(0).is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        self.push(
            TokKind::Num,
            String::from_utf8_lossy(&self.b[start..self.i]).into_owned(),
        );
    }

    fn ident(&mut self) {
        let start = self.i;
        while self
            .peek(0)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.i += 1;
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        // String/char prefixes: r"…", r#"…"#, b"…", br#"…"#, c"…", b'…'.
        let is_str_prefix = matches!(text.as_str(), "r" | "b" | "br" | "c" | "cr" | "rb");
        match self.peek(0) {
            Some(b'"') if is_str_prefix => {
                if text.starts_with('r') || text.ends_with('r') {
                    self.raw_string();
                } else {
                    self.string();
                }
            }
            Some(b'#') if is_str_prefix && text.contains('r') => self.raw_string(),
            Some(b'\'') if text == "b" => {
                self.char_or_lifetime();
                // A byte-char is always a char literal, never a lifetime;
                // char_or_lifetime already handled both spellings.
            }
            _ => self.push(TokKind::Ident, text),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_their_contents() {
        let src = r#"
            // HashMap in a comment
            /* HashMap in a block /* nested HashMap */ still */
            let s = "HashMap in a string .unwrap()";
            let r = r#inner#;
            real_ident();
        "#
        .replace("r#inner#", "r#\"HashMap raw\"#");
        let ids = idents(&src);
        assert!(!ids.iter().any(|t| t == "HashMap"), "{ids:?}");
        assert!(ids.iter().any(|t| t == "real_ident"));
        let l = lex(&src);
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("HashMap"));
    }

    #[test]
    fn char_literals_and_lifetimes_are_distinguished() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let b = b'['; }");
        let lifetimes: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars = l.toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "/* a\nb\nc */\nlet x = \"s\ntr\";\nlast";
        let l = lex(src);
        let last = l.toks.iter().find(|t| t.text == "last").unwrap();
        assert_eq!(last.line, 6);
        assert_eq!(l.comments[0].end_line, 3);
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let l = lex("for i in 0..10 { x[i] = 1.5e-3; }");
        let nums: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e-3"]);
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let l = lex(r#"let s = "a\"b"; after"#);
        assert!(l.toks.iter().any(|t| t.text == "after"));
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }
}
