//! Schema-versioned sweep checkpoints, committed as an append-only
//! journal.
//!
//! A long sweep records every finished point here so a killed run can be
//! re-invoked and resume where it stopped instead of recomputing the whole
//! figure. A checkpoint maps stable point keys (chosen by the sweep
//! harness) to each point's result, under a schema version and a
//! *fingerprint* of the run identity (binary name, parameters,
//! configuration). A checkpoint whose fingerprint does not match the
//! resuming run is stale — different seed, access count, or config — and
//! must be discarded, never partially reused.
//!
//! # Format (schema version 2)
//!
//! One compact JSON value per line:
//!
//! ```text
//! {"schema_version":2,"kind":"maps-checkpoint","name":"fig2","fingerprint":42,"points":2                   }
//! ["pt/0a1b…",{…report…}]
//! ["pt/77c0…",{…report…}]
//! ```
//!
//! The header's `points` count is space-padded to a fixed width, so a
//! [`CheckpointJournal`] commits a point in O(1), however many are stored:
//! it appends the record and syncs, then rewrites the count in place and
//! syncs again. Decoding trusts only what the count commits:
//!
//! * fewer than `points` newline-terminated records is a typed error, so
//!   every strict prefix of a committed file is rejected;
//! * records after the `points`-th are an uncommitted tail (a kill landed
//!   between a record's sync and the count update) and are ignored;
//! * a duplicate key is a typed error; records may come in any order.
//!
//! [`Checkpoint::save`] writes the compacted image — header plus records
//! sorted by key — through [`write_atomic`], so saving is deterministic
//! byte-for-byte; it is also how a journal starts (see
//! [`Checkpoint::journal`]). Files of schema version 1 (one pretty-printed
//! document, rewritten whole on every save) are rejected with a typed
//! error naming their version.

use std::io;
use std::path::Path;

use crate::atomic::{write_atomic, DurableFile};
use crate::codec::CodecError;
use crate::json::Json;

/// Current checkpoint schema version. Bump on any breaking field change.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 2;

/// Value of the `kind` field marking a file as a sweep checkpoint.
const CHECKPOINT_KIND: &str = "maps-checkpoint";

/// Width the header's point count is space-padded to: any `u64` fits, so
/// a commit rewrites the count without moving a byte after it.
const COUNT_WIDTH: usize = 20;

/// Finished sweep points of one run, keyed by stable point identifiers.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    name: String,
    fingerprint: u64,
    /// `(key, result)` pairs, kept sorted by key.
    points: Vec<(String, Json)>,
}

impl Checkpoint {
    /// Starts an empty checkpoint for the named run with the given
    /// identity fingerprint (see [`fingerprint64`]).
    pub fn new(name: &str, fingerprint: u64) -> Self {
        Checkpoint {
            name: name.to_string(),
            fingerprint,
            points: Vec::new(),
        }
    }

    /// The run name the checkpoint belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The run-identity fingerprint recorded at creation.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of finished points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no point has finished yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The stored result for a point key, if that point finished.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.points
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.points[i].1)
    }

    /// Records (or replaces) a finished point's result.
    pub fn insert(&mut self, key: &str, value: Json) {
        match self.points.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.points[i].1 = value,
            Err(i) => self.points.insert(i, (key.to_string(), value)),
        }
    }

    /// The compacted image: the header committing every point, then one
    /// record per point in key order. Deterministic byte-for-byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        let Checkpoint {
            name,
            fingerprint,
            points,
        } = self;
        let mut out = header_line(name, *fingerprint, points.len() as u64);
        for (key, value) in points {
            out.push_str(&record_line(key, value));
        }
        out.into_bytes()
    }

    /// Decodes a checkpoint image: the header, then exactly the records
    /// its count commits (an uncommitted tail after them is ignored).
    ///
    /// # Errors
    ///
    /// [`CodecError::Utf8`] or [`CodecError::Parse`] when the header or a
    /// committed record is not UTF-8 JSON; [`CodecError::Version`] for
    /// another schema version; [`CodecError::Missing`] or
    /// [`CodecError::Invalid`] when a header field is absent or mistyped,
    /// when fewer records are complete than it commits, or when a record
    /// is malformed or repeats a key.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let text = std::str::from_utf8(bytes).map_err(|_| CodecError::Utf8)?;
        let (head, mut rest) = text
            .split_once('\n')
            .ok_or_else(|| CodecError::invalid("header", "line is not newline-terminated"))?;
        // A version-1 checkpoint is one pretty-printed document: read it
        // whole so the error names its version.
        let header = Json::parse(head).or_else(|e| Json::parse(text).map_err(|_| e))?;
        header.check_version("schema_version", CHECKPOINT_SCHEMA_VERSION)?;
        if header.str_field("kind")? != CHECKPOINT_KIND {
            return Err(CodecError::invalid(
                "kind",
                format!("expected '{CHECKPOINT_KIND}'"),
            ));
        }
        let name = header.str_field("name")?.to_string();
        let fingerprint = header.u64_field("fingerprint")?;
        let count = header.u64_field("points")?;
        let mut points = Vec::new();
        for done in 0..count {
            let (line, tail) = rest.split_once('\n').ok_or_else(|| {
                CodecError::invalid(
                    "points",
                    format!("header commits {count} points but only {done} records are complete"),
                )
            })?;
            points.push(record_from_json(Json::parse(line)?)?);
            rest = tail;
        }
        points.sort_by(|(a, _), (b, _)| a.cmp(b));
        if points.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(CodecError::invalid("record", "duplicate point key"));
        }
        Ok(Checkpoint {
            name,
            fingerprint,
            points,
        })
    }

    /// Writes the compacted image atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Any underlying I/O failure; the previous checkpoint file, if any,
    /// is preserved intact in that case.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        write_atomic(path, &self.to_bytes())
    }

    /// Saves this checkpoint at `path` (replacing whatever is there, an
    /// uncommitted tail included) and opens it as a journal that commits
    /// further points by appending.
    ///
    /// # Errors
    ///
    /// Any I/O failure from the save or from reopening the file.
    pub fn journal(&self, path: &Path) -> io::Result<CheckpointJournal> {
        self.save(path)?;
        // The padded count ends the header, just before its closing `}\n`.
        let header_len = header_line(&self.name, self.fingerprint, 0).len();
        Ok(CheckpointJournal {
            file: DurableFile::open(path)?,
            count_at: (header_len - COUNT_WIDTH - "}\n".len()) as u64,
            records: self.points.len() as u64,
        })
    }

    /// Loads a checkpoint if one exists: `Ok(None)` when the file is
    /// absent (fresh run), `Ok(Some(_))` on success.
    ///
    /// # Errors
    ///
    /// I/O failures other than absence, and every error of
    /// [`Checkpoint::from_bytes`] — the caller decides whether to discard
    /// and start fresh.
    pub fn load(path: &Path) -> Result<Option<Self>, CodecError> {
        match std::fs::read(path) {
            Ok(bytes) => Self::from_bytes(&bytes).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// The newline-terminated header line committing `count` points. The
/// count is the last field, space-padded so a commit can rewrite it in
/// place.
fn header_line(name: &str, fingerprint: u64, count: u64) -> String {
    let mut line = Json::Obj(vec![
        (
            "schema_version".to_string(),
            Json::UInt(CHECKPOINT_SCHEMA_VERSION),
        ),
        ("kind".to_string(), Json::Str(CHECKPOINT_KIND.to_string())),
        ("name".to_string(), Json::Str(name.to_string())),
        ("fingerprint".to_string(), Json::UInt(fingerprint)),
        ("points".to_string(), Json::UInt(count)),
    ])
    .to_compact();
    line.pop(); // the closing brace: the count ends the line, padded
    let digits = count.to_string().len();
    line.push_str(&" ".repeat(COUNT_WIDTH - digits));
    line.push_str("}\n");
    line
}

/// One record line: `["<key>",<value>]` plus the newline.
fn record_line(key: &str, value: &Json) -> String {
    let key = Json::Str(key.to_string()).to_compact();
    format!("[{key},{}]\n", value.to_compact())
}

/// Splits a parsed record into its key and value.
fn record_from_json(doc: Json) -> Result<(String, Json), CodecError> {
    if let Json::Arr(items) = doc {
        let mut items = items.into_iter();
        if let (Some(Json::Str(key)), Some(value), None) =
            (items.next(), items.next(), items.next())
        {
            return Ok((key, value));
        }
    }
    Err(CodecError::invalid("record", "not a [key, value] pair"))
}

/// A checkpoint file open for appending, made by [`Checkpoint::journal`].
/// Each [`CheckpointJournal::commit`] makes one more point durable at a
/// cost independent of how many are already stored.
#[derive(Debug)]
pub struct CheckpointJournal {
    file: DurableFile,
    /// Byte offset of the header's padded point count.
    count_at: u64,
    /// Complete records in the file: what the next count update commits.
    records: u64,
}

impl CheckpointJournal {
    /// Commits one finished point: appends its record and syncs, then
    /// rewrites the header's count in place and syncs again. Once this
    /// returns `Ok`, a crash cannot lose the point. Keys must be new to
    /// the file — a repeated key makes it undecodable.
    ///
    /// # Errors
    ///
    /// Any I/O failure. When the append fails nothing was committed and
    /// the file is unchanged. When only the count update fails, the record
    /// stays as an uncommitted tail that the next successful commit's
    /// count covers.
    pub fn commit(&mut self, key: &str, value: &Json) -> io::Result<()> {
        self.file.append(record_line(key, value).as_bytes())?;
        self.records += 1;
        let count = format!("{:<COUNT_WIDTH$}", self.records);
        self.file.overwrite(self.count_at, count.as_bytes())
    }
}

/// 64-bit fingerprint of a run-identity string (SplitMix64 finalizer
/// folded over the bytes). Stable across processes and platforms; used to
/// tie a checkpoint to the exact run parameters that produced it.
pub fn fingerprint64(text: &str) -> u64 {
    let mut acc = 0x4D41_5053_C5EC_4B01u64; // "MAPS" + odd tail
    for &b in text.as_bytes() {
        acc = mix64(acc ^ u64::from(b));
    }
    mix64(acc ^ text.len() as u64)
}

/// SplitMix64 finalizer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new("fig2", fingerprint64("fig2|seed=1"));
        c.insert("sweep/llc=1m,mdc=64k", Json::UInt(42));
        c.insert("baselines/gups", Json::Obj(vec![]));
        c
    }

    /// A three-point checkpoint with a float whose bits must survive.
    fn three() -> Checkpoint {
        let mut c = sample();
        c.insert(
            "pt/00000000000000ff",
            Json::Obj(vec![("ipc_bits".into(), Json::UInt(0.1f64.to_bits()))]),
        );
        c
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("maps-obs-ckpt-{tag}-{}", std::process::id()))
    }

    fn schema_error(bytes: &[u8]) -> String {
        match Checkpoint::from_bytes(bytes) {
            Err(
                e @ (CodecError::Missing(_)
                | CodecError::Invalid { .. }
                | CodecError::Version { .. }
                | CodecError::Utf8),
            ) => e.to_string(),
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let c = three();
        assert_eq!(Checkpoint::from_bytes(&c.to_bytes()).unwrap(), c);
        let empty = Checkpoint::new("x", 1);
        assert_eq!(Checkpoint::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn image_is_a_padded_header_then_one_record_per_line() {
        let text = String::from_utf8(sample().to_bytes()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].starts_with(r#"{"schema_version":2,"kind":"maps-checkpoint","name":"fig2","#),
            "{}",
            lines[0]
        );
        assert!(lines[0].ends_with(&format!("\"points\":2{}}}", " ".repeat(19))));
        assert_eq!(lines[1], r#"["baselines/gups",{}]"#);
        assert_eq!(lines[2], r#"["sweep/llc=1m,mdc=64k",42]"#);
        // The header keeps its length whatever it commits.
        assert_eq!(
            header_line("fig2", 1, 0).len(),
            header_line("fig2", 1, u64::MAX).len()
        );
    }

    #[test]
    fn keys_stay_sorted_and_lookups_work() {
        let c = sample();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("sweep/llc=1m,mdc=64k"), Some(&Json::UInt(42)));
        assert_eq!(c.get("missing"), None);
        let text = String::from_utf8(c.to_bytes()).unwrap();
        let keys: Vec<&str> = text.lines().skip(1).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let mut c = sample();
        c.insert("baselines/gups", Json::UInt(7));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("baselines/gups"), Some(&Json::UInt(7)));
    }

    #[test]
    fn save_load_round_trips_and_missing_is_none() {
        let dir = scratch("save");
        let path = dir.join("fig2.ckpt");
        assert!(Checkpoint::load(&path).unwrap().is_none());
        let c = sample();
        c.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), Some(c));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serialization_is_deterministic() {
        // Same logical contents, different insertion order.
        let mut a = Checkpoint::new("x", 9);
        a.insert("b", Json::UInt(2));
        a.insert("a", Json::UInt(1));
        let mut b = Checkpoint::new("x", 9);
        b.insert("a", Json::UInt(1));
        b.insert("b", Json::UInt(2));
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn schema_violations_are_typed_errors() {
        let header = |fields: &str| format!("{{{fields}}}\n");
        let v2 = r#""schema_version":2"#;
        // Version 1: one pretty-printed document, the whole file.
        let v1 = Json::Obj(vec![
            ("schema_version".into(), Json::UInt(1)),
            ("kind".into(), Json::Str(CHECKPOINT_KIND.into())),
            ("name".into(), Json::Str("fig2".into())),
            ("fingerprint".into(), Json::UInt(1)),
            (
                "points".into(),
                Json::Obj(vec![("pt/01".into(), Json::UInt(1))]),
            ),
        ])
        .to_pretty();
        // A header committing three records over a file holding two.
        let short = String::from_utf8(sample().to_bytes()).unwrap().replacen(
            "\"points\":2 ",
            "\"points\":3 ",
            1,
        );
        for (doc, expect) in [
            ("[]\n".to_string(), "missing field 'schema_version'"),
            (header(""), "schema_version"),
            (header(r#""schema_version":99"#), "unsupported"),
            (v1, "unsupported schema_version 1"),
            (header(&format!(r#"{v2},"kind":"something-else""#)), "kind"),
            (
                header(&format!(r#"{v2},"kind":"maps-checkpoint","name":7"#)),
                "name",
            ),
            (
                header(&format!(
                    r#"{v2},"kind":"maps-checkpoint","name":"x","fingerprint":1"#
                )),
                "missing field 'points'",
            ),
            (short, "header commits 3 points but only 2"),
            (
                header(&format!(
                    r#"{v2},"kind":"maps-checkpoint","name":"x","fingerprint":1,"points":1"#
                )) + "{\"k\":1}\n",
                "[key, value] pair",
            ),
            (String::new(), "newline-terminated"),
        ] {
            let msg = schema_error(doc.as_bytes());
            assert!(msg.contains(expect), "{msg:?} vs {expect:?}");
        }
        assert!(matches!(
            Checkpoint::from_bytes(b"{\n"),
            Err(CodecError::Parse(_))
        ));
        assert_eq!(schema_error(&[0xff, b'\n']), "not valid UTF-8");
    }

    #[test]
    fn duplicate_point_keys_are_rejected() {
        let mut text = String::from_utf8(Checkpoint::new("x", 1).to_bytes()).unwrap();
        text = text.replacen("\"points\":0 ", "\"points\":2 ", 1);
        text.push_str("[\"k\",1]\n[\"k\",2]\n");
        assert_eq!(
            schema_error(text.as_bytes()),
            "field 'record' invalid: duplicate point key"
        );
    }

    #[test]
    fn every_strict_prefix_is_a_typed_error() {
        let image = three().to_bytes();
        for cut in 0..image.len() {
            assert!(
                Checkpoint::from_bytes(&image[..cut]).is_err(),
                "prefix of {cut}/{} bytes accepted",
                image.len()
            );
        }
    }

    #[test]
    fn uncommitted_tail_is_ignored_bit_exactly() {
        // An image plus any prefix of one more record, the count not yet
        // advanced: what a kill between the two syncs leaves.
        let c = three();
        let image = c.to_bytes();
        let extra = record_line("pt/zz", &Json::Float(-0.0));
        for cut in 0..=extra.len() {
            let mut torn = image.clone();
            torn.extend_from_slice(&extra.as_bytes()[..cut]);
            let loaded = Checkpoint::from_bytes(&torn).unwrap();
            assert_eq!(loaded, c);
            assert_eq!(loaded.to_bytes(), image, "cut {cut}");
        }
    }

    #[test]
    fn journal_commits_append_and_reopen_drops_the_tail() {
        let dir = scratch("journal");
        let path = dir.join("run.ckpt");
        let c = three();
        let mut journal = Checkpoint::new("fig2", c.fingerprint())
            .journal(&path)
            .unwrap();
        // Out of key order: records may come in any order.
        for (key, value) in c.points.iter().rev() {
            journal.commit(key, value).unwrap();
        }
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len(), c.to_bytes().len());
        assert_eq!(Checkpoint::from_bytes(&on_disk).unwrap(), c);
        drop(journal);

        // A kill between a record's sync and the count update.
        let mut torn = on_disk.clone();
        torn.extend_from_slice(br#"["pt/half",{"ipc"#);
        std::fs::write(&path, &torn).unwrap();
        let resumed = Checkpoint::load(&path).unwrap().unwrap();
        assert_eq!(resumed, c);

        // Reopening compacts away the tail; the next commit yields a
        // valid image holding exactly one more point.
        let mut journal = resumed.journal(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), c.to_bytes());
        journal.commit("pt/next", &Json::UInt(5)).unwrap();
        let mut expect = c.clone();
        expect.insert("pt/next", Json::UInt(5));
        assert_eq!(Checkpoint::load(&path).unwrap(), Some(expect));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprints_separate_runs() {
        assert_ne!(fingerprint64("fig2|seed=1"), fingerprint64("fig2|seed=2"));
        assert_eq!(fingerprint64("same"), fingerprint64("same"));
    }
}
