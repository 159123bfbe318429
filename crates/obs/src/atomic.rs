//! Atomic result-file writes: temp file in the target directory + rename.
//!
//! Every result artifact the workspace emits — TSV tables, run manifests,
//! sweep checkpoints, serialized captures — goes through [`write_atomic`].
//! A reader (or a re-invocation after a crash) therefore sees either the
//! previous complete file or the new complete file, never a torn prefix:
//! the bytes are staged in a sibling temp file, flushed, and published
//! with a single `rename`, which POSIX guarantees to be atomic within a
//! filesystem.
//!
//! The one file updated in place is the checkpoint journal
//! ([`crate::CheckpointJournal`]): `DurableFile` reopens a file that
//! `write_atomic` published and appends to it or rewrites fixed-width
//! bytes inside it, syncing each write before it returns. The journal's
//! format, not a rename, is what keeps a torn update detectable there.
//!
//! The `maps-lint` IO-001 rule enforces the funnel: raw `File::create` /
//! `fs::write` / `OpenOptions` uses under the `maps-bench`/`maps-obs`/
//! `maps-farm` sources fail the gate, so a torn-write regression cannot
//! slip back in.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes temp files of concurrent writers within one process
/// (cross-process collisions are already separated by the pid).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Sibling temp path for `path`: same directory (rename must not cross a
/// filesystem), name extended with a pid+sequence suffix.
fn tmp_path(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let file = path.file_name().map(|f| f.to_string_lossy().into_owned());
    let tmp = format!(
        "{}.tmp.{}.{}",
        file.unwrap_or_else(|| "out".to_string()),
        std::process::id(),
        seq
    );
    path.with_file_name(tmp)
}

/// Writes `bytes` to `path` atomically: parent directories are created,
/// the bytes are staged in a sibling temp file, synced, and renamed over
/// `path`. On any failure the temp file is removed (best effort) and the
/// destination keeps its previous contents.
///
/// # Errors
///
/// Any I/O failure from directory creation, staging, sync, or the final
/// rename. The destination is never left truncated or half-written.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_path(path);
    let staged = stage(&tmp, bytes);
    if let Err(e) = staged {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

/// Creates the temp file, writes every byte, and syncs it to disk.
fn stage(tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = File::create(tmp)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// An existing file opened for durable in-place updates: appends at the
/// end and overwrites of bytes already in it. Each write is synced
/// (`sync_data`) before it returns, so once a call succeeds its bytes
/// survive a crash.
#[derive(Debug)]
pub(crate) struct DurableFile {
    file: File,
    /// Bytes written so far: where the next append starts.
    len: u64,
}

impl DurableFile {
    /// Opens `path` for updates. The file must exist (publish it with
    /// [`write_atomic`] first); it is neither created nor truncated here.
    pub(crate) fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(DurableFile { file, len })
    }

    /// Appends `bytes` at the end and syncs them. On failure the file is
    /// cut back to its previous length (best effort) and the next append
    /// starts there again.
    pub(crate) fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self.write_at(self.len, bytes) {
            Ok(()) => {
                self.len += bytes.len() as u64;
                Ok(())
            }
            Err(e) => {
                let _ = self.file.set_len(self.len);
                Err(e)
            }
        }
    }

    /// Overwrites bytes already in the file, starting at `offset`, and
    /// syncs them. The file never grows here.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the range reaches past the end; any I/O
    /// failure from the write or the sync.
    pub(crate) fn overwrite(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        if offset.saturating_add(bytes.len() as u64) > self.len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "overwrite reaches past the end of the file",
            ));
        }
        self.write_at(offset, bytes)
    }

    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(bytes)?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("maps-obs-atomic-{}-{name}", std::process::id()))
    }

    #[test]
    fn writes_bytes_and_creates_parents() {
        let dir = scratch("parents");
        let path = dir.join("a").join("b").join("out.tsv");
        write_atomic(&path, b"row\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"row\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrites_previous_contents_completely() {
        let dir = scratch("overwrite");
        let path = dir.join("out.tsv");
        write_atomic(&path, b"old contents, quite long\n").unwrap();
        write_atomic(&path, b"new\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leaves_no_temp_files_behind() {
        let dir = scratch("tmpfiles");
        let path = dir.join("out.json");
        write_atomic(&path, b"{}").unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["out.json".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_file_appends_and_overwrites_in_place() {
        let dir = scratch("durable");
        let path = dir.join("journal");
        assert!(DurableFile::open(&path).is_err(), "never creates the file");
        write_atomic(&path, b"count=0\n").unwrap();
        let mut file = DurableFile::open(&path).unwrap();
        file.append(b"a\n").unwrap();
        file.overwrite(6, b"1").unwrap();
        file.append(b"b\n").unwrap();
        file.overwrite(6, b"2").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"count=2\na\nb\n");
        let past_end = file.overwrite(11, b"xy").unwrap_err();
        assert_eq!(past_end.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(std::fs::read(&path).unwrap(), b"count=2\na\nb\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failure_is_a_typed_error_and_preserves_destination() {
        let dir = scratch("fail");
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("not-a-dir");
        std::fs::write(&blocker, b"file").unwrap();
        // Parent "directory" is a regular file: creation must fail with a
        // typed io::Error, not a panic, and must not disturb the blocker.
        let path = blocker.join("out.tsv");
        assert!(write_atomic(&path, b"x").is_err());
        assert_eq!(std::fs::read(&blocker).unwrap(), b"file");
        std::fs::remove_dir_all(&dir).ok();
    }
}
