//! A dependency-free JSON value: exact-integer writer plus a strict
//! parser, enough for run manifests and their schema tests.
//!
//! Objects preserve insertion order (they are `Vec<(String, Json)>`), so a
//! manifest reads in the order it was assembled and serialization is
//! deterministic. Numbers distinguish unsigned integers (written exactly —
//! counters can exceed 2⁵³, where `f64` would round) from floats.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, written without rounding.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A float; non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the value is an object.
    pub fn is_obj(&self) -> bool {
        matches!(self, Json::Obj(_))
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes on one line with no whitespace and no trailing newline.
    /// Strings escape every control character, so the result never
    /// contains a newline: one value per line is a sound record format.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes the value at `indent` levels, or on one line when `None`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|d| d + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    // Rust's shortest round-trip formatting; force a
                    // fractional part so the value re-parses as a float.
                    let s = v.to_string();
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_escaped(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (one value plus optional whitespace).
    /// Arrays and objects may nest at most 128 deep: the parser recurses
    /// once per level, and a deeper document from outside the process
    /// must fail typed, not overflow the stack (which aborts the process
    /// rather than panicking).
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

/// Starts a new line at `indent` levels; nothing in compact form.
fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Deepest array/object nesting [`Json::parse`] accepts. Nothing the
/// workspace writes nests deeper than about 6 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than 128 levels"));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: consume a run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => s.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes the code units after a `\u` escape into a character,
    /// pairing UTF-16 surrogates: a high surrogate must be followed by a
    /// `\uDC00`–`\uDFFF` escape, and the two combine into one astral-plane
    /// character. Lone or reversed surrogates are typed parse errors, not
    /// replacement characters — externally-authored documents containing
    /// `"😀"` must round-trip as 😀, not corrupt to two U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let code = self.hex4()?;
        match code {
            0xD800..=0xDBFF => {
                if self.peek() != Some(b'\\') {
                    return Err(self.err("unpaired high surrogate"));
                }
                self.pos += 1;
                if self.peek() != Some(b'u') {
                    return Err(self.err("unpaired high surrogate"));
                }
                self.pos += 1;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.err("unpaired high surrogate"));
                }
                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"))
            }
            0xDC00..=0xDFFF => Err(self.err("lone low surrogate")),
            _ => char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape")),
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonParseError {
                at: start,
                message: "invalid number".to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(j: &Json) -> Json {
        Json::parse(&j.to_pretty()).expect("own output must parse")
    }

    #[test]
    fn scalars_round_trip() {
        for j in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::UInt(0),
            Json::UInt(u64::MAX),
            Json::Int(-42),
            Json::Float(0.1),
            Json::Float(-1.5e300),
            Json::Str("hello".into()),
        ] {
            assert_eq!(round_trip(&j), j);
        }
    }

    #[test]
    fn huge_counters_survive_exactly() {
        let v = (1u64 << 60) + 12345; // beyond f64's 2^53 integer range
        assert_eq!(round_trip(&Json::UInt(v)), Json::UInt(v));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "quote \" backslash \\ newline \n tab \t control \u{1} unicode ✓";
        assert_eq!(round_trip(&Json::Str(s.into())), Json::Str(s.into()));
    }

    #[test]
    fn nested_structures_round_trip() {
        let j = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::UInt(1), Json::Null])),
            (
                "b".into(),
                Json::Obj(vec![("empty".into(), Json::Obj(vec![]))]),
            ),
            ("c".into(), Json::Arr(vec![])),
        ]);
        assert_eq!(round_trip(&j), j);
    }

    #[test]
    fn compact_form_is_one_line_and_round_trips() {
        let j = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::UInt(1), Json::Float(0.5)])),
            ("b".into(), Json::Obj(vec![("e".into(), Json::Obj(vec![]))])),
            ("s".into(), Json::Str("line\nbreak\r\u{1}".into())),
        ]);
        let text = j.to_compact();
        assert_eq!(
            text,
            r#"{"a":[1,0.5],"b":{"e":{}},"s":"line\nbreak\r\u0001"}"#
        );
        assert!(!text.contains('\n'));
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn object_order_is_preserved() {
        let j = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        match &j {
            Json::Obj(pairs) => {
                assert_eq!(pairs[0].0, "z");
                assert_eq!(pairs[1].0, "a");
            }
            _ => panic!("expected object"),
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_pretty().trim(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_pretty().trim(), "null");
    }

    #[test]
    fn malformed_documents_error_not_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"a\" 1}",
            "1 2",
            "{\"a\": }",
            "\"bad \\q escape\"",
            "\"\\u12",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded_with_a_typed_error() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let mixed = format!(
            "{}1{}",
            r#"{"a":["#.repeat(MAX_DEPTH / 2),
            "]}".repeat(MAX_DEPTH / 2)
        );
        assert!(Json::parse(&mixed).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Unbounded recursion would overflow a default-sized thread's
        // stack and abort the whole process.
        let deep = std::thread::spawn(|| Json::parse(&"[".repeat(100_000)).is_err())
            .join()
            .expect("parser thread survives");
        assert!(deep);
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_characters() {
        // 😀 is U+1F600 = \uD83D\uDE00 in UTF-16.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".into())
        );
        // Mixed case hex and surrounding text.
        assert_eq!(
            Json::parse("\"a\\uD83D\\uDE00b\"").unwrap(),
            Json::Str("a😀b".into())
        );
        // Boundary pairs: U+10000 and U+10FFFF.
        assert_eq!(
            Json::parse("\"\\ud800\\udc00\"").unwrap(),
            Json::Str("\u{10000}".into())
        );
        assert_eq!(
            Json::parse("\"\\udbff\\udfff\"").unwrap(),
            Json::Str("\u{10FFFF}".into())
        );
    }

    #[test]
    fn lone_surrogates_are_typed_errors() {
        for bad in [
            "\"\\ud83d\"",        // high surrogate, string ends
            "\"\\ud83d then\"",   // high surrogate, plain text follows
            "\"\\ud83d\\n\"",     // high surrogate, non-\u escape follows
            "\"\\ud83d\\ud83d\"", // two high surrogates
            "\"\\ude00\"",        // low surrogate first
            "\"\\ud83d\\u0041\"", // high surrogate + non-surrogate escape
            "\"\\ud83d\\ude0",    // truncated low half
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(
                err.message.contains("surrogate") || err.message.contains("\\u escape"),
                "{bad:?} produced unexpected error {err}"
            );
        }
    }

    #[test]
    fn astral_strings_round_trip_through_writer_and_parser() {
        // The writer emits astral characters as raw UTF-8; the parser must
        // accept both that form and the escaped surrogate-pair form.
        let s = "emoji 😀 music 𝄞 flag 🏳️ plain ascii";
        assert_eq!(round_trip(&Json::Str(s.into())), Json::Str(s.into()));
    }

    #[test]
    fn unicode_escape_round_trip_fuzz() {
        // Deterministic fuzz: random code points (including astral ones)
        // built into strings, written, re-parsed, and compared — plus the
        // same strings spelled entirely with explicit \u escapes. The
        // crate is dependency-free, so the generator is a local SplitMix64.
        let mut state = 0xD1CEu64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..200 {
            let len = (next() % 12) as usize;
            let s: String = (0..len)
                .map(|_| loop {
                    if let Some(c) = char::from_u32((next() % 0x110000) as u32) {
                        return c;
                    }
                })
                .collect();
            assert_eq!(round_trip(&Json::Str(s.clone())), Json::Str(s.clone()));
            // Every character spelled as UTF-16 code-unit escapes, which
            // exercises the surrogate-pair path for astral characters.
            let mut escaped = String::from('"');
            for c in s.chars() {
                let mut units = [0u16; 2];
                for u in c.encode_utf16(&mut units) {
                    escaped.push_str(&format!("\\u{u:04x}"));
                }
            }
            escaped.push('"');
            assert_eq!(Json::parse(&escaped).unwrap(), Json::Str(s));
        }
    }

    #[test]
    fn getters() {
        let j = Json::parse(r#"{"n": 3, "s": "x", "f": 1.5}"#).unwrap();
        assert_eq!(j.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(j.get("missing"), None);
        assert!(j.is_obj());
    }
}
