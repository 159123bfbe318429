//! Infrastructure-fault plane: corrupting the bytes of result artifacts
//! and failing their writes at seeded offsets.
//!
//! The pipeline's artifacts — run manifests, sweep checkpoints and
//! serialized reports — all have strict decoders with typed errors. This
//! plane verifies the contract those decoders make to the crash-safety
//! story: a **torn** file (truncation, short write, ENOSPC mid-write) is
//! always either rejected with a typed error or decodes to exactly the
//! original content (when only trailing whitespace was cut); no
//! corruption of any kind may panic a consumer. Random interior bit
//! flips may survive formats without checksums — the campaign *measures*
//! that rate per artifact, it does not pretend to fix it; the asserted
//! guarantees are zero panics and zero silently-torn files.

use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

use maps_obs::{Checkpoint, Json};
use maps_sim::SimReport;
use maps_trace::rng::SmallRng;

/// The injected infrastructure-fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfraFaultClass {
    /// The file is cut to a strict prefix (crash between write and sync).
    Truncate,
    /// One interior bit is flipped (media/transfer corruption).
    BitFlip,
    /// One interior byte is overwritten (stray write).
    Overwrite,
    /// The writer accepts a prefix then reports it can write no more.
    ShortWrite,
    /// The writer fails with an ENOSPC-style error at a seeded offset.
    Enospc,
}

impl InfraFaultClass {
    /// Every class, in campaign order.
    pub const ALL: [InfraFaultClass; 5] = [
        InfraFaultClass::Truncate,
        InfraFaultClass::BitFlip,
        InfraFaultClass::Overwrite,
        InfraFaultClass::ShortWrite,
        InfraFaultClass::Enospc,
    ];

    /// Stable display name (also the campaign-report key).
    pub fn name(self) -> &'static str {
        match self {
            InfraFaultClass::Truncate => "truncate",
            InfraFaultClass::BitFlip => "bit-flip",
            InfraFaultClass::Overwrite => "overwrite",
            InfraFaultClass::ShortWrite => "short-write",
            InfraFaultClass::Enospc => "enospc",
        }
    }

    /// Whether the class produces a *torn* artifact (a strict prefix),
    /// for which silent acceptance with different content is forbidden.
    pub fn is_torn(self) -> bool {
        matches!(
            self,
            InfraFaultClass::Truncate | InfraFaultClass::ShortWrite | InfraFaultClass::Enospc
        )
    }

    fn id(self) -> u64 {
        match self {
            InfraFaultClass::Truncate => 1,
            InfraFaultClass::BitFlip => 2,
            InfraFaultClass::Overwrite => 3,
            InfraFaultClass::ShortWrite => 4,
            InfraFaultClass::Enospc => 5,
        }
    }
}

/// How a consumer handled a corrupted artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfraOutcome {
    /// Rejected with a typed error — the desired outcome.
    RejectedTyped,
    /// Accepted, and the decoded content equals the original exactly
    /// (the fault only touched bytes with no semantic weight).
    AcceptedIntact,
    /// Accepted with *different* content — tolerable only for interior
    /// flips in checksum-free formats, never for torn files.
    SilentCorruption,
    /// The consumer panicked — always a failure.
    Panicked,
}

/// Outcome of one infrastructure-fault trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InfraTrialOutcome {
    /// The class injected.
    pub class: InfraFaultClass,
    /// What the consumer did.
    pub outcome: InfraOutcome,
    /// Deterministic code folded into the campaign fingerprint.
    pub code: u64,
}

impl InfraTrialOutcome {
    /// Whether the trial upholds the asserted guarantees: no panic, and
    /// no silent acceptance of a torn file.
    pub fn acceptable(&self) -> bool {
        match self.outcome {
            InfraOutcome::Panicked => false,
            InfraOutcome::SilentCorruption => !self.class.is_torn(),
            InfraOutcome::RejectedTyped | InfraOutcome::AcceptedIntact => true,
        }
    }
}

/// A consumer under test: returns `Ok(true)` when the bytes decode to
/// exactly the original content, `Ok(false)` when they decode to
/// something else, `Err` on a typed rejection.
pub type Decoder = Box<dyn Fn(&[u8]) -> Result<bool, String>>;

/// A result artifact plus its strict decoder.
pub struct Artifact {
    /// Stable name (campaign-report key).
    pub name: &'static str,
    /// The pristine serialized form.
    pub bytes: Vec<u8>,
    /// The consumer under test.
    pub decode: Decoder,
}

impl Artifact {
    /// A schema-versioned JSON artifact: parse must succeed, the given
    /// validator must accept it, and re-rendering must reproduce the
    /// original text for the content to count as intact.
    fn json(
        name: &'static str,
        text: String,
        validate: impl Fn(&Json) -> Result<(), String> + 'static,
    ) -> Self {
        let bytes = text.into_bytes();
        let pristine = bytes.clone();
        Artifact {
            name,
            bytes,
            decode: Box::new(move |b| {
                let text = std::str::from_utf8(b).map_err(|e| e.to_string())?;
                let doc = Json::parse(text).map_err(|e| e.to_string())?;
                validate(&doc)?;
                Ok(doc.to_pretty().as_bytes() == pristine.as_slice())
            }),
        }
    }

    /// A run manifest document (must parse and pass `validate_manifest`).
    pub fn manifest(doc: &Json) -> Self {
        Self::json("manifest", doc.to_pretty(), |doc| {
            let problems = maps_obs::validate_manifest(doc);
            if problems.is_empty() {
                Ok(())
            } else {
                Err(problems.join("; "))
            }
        })
    }

    /// A sweep checkpoint: its on-disk image, decoded the way a resuming
    /// farm reads it (`Checkpoint::from_bytes`); intact when it re-encodes
    /// to the original image.
    pub fn checkpoint(c: &Checkpoint) -> Self {
        let bytes = c.to_bytes();
        let pristine = bytes.clone();
        Artifact {
            name: "checkpoint",
            bytes,
            decode: Box::new(move |b| match Checkpoint::from_bytes(b) {
                Ok(c) => Ok(c.to_bytes() == pristine),
                Err(e) => Err(e.to_string()),
            }),
        }
    }

    /// A serialized simulation report (must decode via
    /// `SimReport::from_json`).
    pub fn report(r: &SimReport) -> Self {
        Self::json("report", r.to_json().to_pretty(), |doc| {
            SimReport::from_json(doc)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })
    }
}

/// Produces the faulted byte image for corruption classes, or `None`
/// for writer classes (handled by [`FaultyWriter`]).
fn corrupt(bytes: &[u8], class: InfraFaultClass, rng: &mut SmallRng) -> Option<Vec<u8>> {
    let len = bytes.len();
    let mut out = bytes.to_vec();
    match class {
        InfraFaultClass::Truncate => {
            out.truncate(rng.gen_range(0..len as u64) as usize);
        }
        InfraFaultClass::BitFlip => {
            let offset = rng.gen_range(0..len as u64) as usize;
            let bit = rng.gen_range(0u64..8) as u8;
            out[offset] ^= 1 << bit;
        }
        InfraFaultClass::Overwrite => {
            let offset = rng.gen_range(0..len as u64) as usize;
            let value = rng.next_u64() as u8;
            if out[offset] == value {
                out[offset] = value.wrapping_add(1);
            } else {
                out[offset] = value;
            }
        }
        InfraFaultClass::ShortWrite | InfraFaultClass::Enospc => return None,
    }
    Some(out)
}

/// Runs one seeded infrastructure-fault trial against an artifact.
pub fn run_infra_trial(
    artifact: &Artifact,
    class: InfraFaultClass,
    rng: &mut SmallRng,
) -> InfraTrialOutcome {
    let faulted = match corrupt(&artifact.bytes, class, rng) {
        Some(bytes) => bytes,
        None => {
            // Writer classes: push the pristine bytes through a writer
            // that fails at a seeded offset. The write must surface a
            // typed io::Error, and the surviving prefix must behave like
            // any other torn file.
            let budget = rng.gen_range(0..artifact.bytes.len() as u64) as usize;
            let mode = match class {
                InfraFaultClass::ShortWrite => WriterFaultMode::ShortWrite,
                _ => WriterFaultMode::Enospc,
            };
            let mut w = FaultyWriter::new(budget, mode);
            let write_result = w.write_all(&artifact.bytes);
            if write_result.is_ok() {
                // The writer swallowing every byte despite its budget is
                // a harness failure, treated as silent corruption.
                return InfraTrialOutcome {
                    class,
                    outcome: InfraOutcome::SilentCorruption,
                    code: trial_code(class, InfraOutcome::SilentCorruption, rng),
                };
            }
            w.into_written()
        }
    };
    let decode = &artifact.decode;
    let outcome = match catch_unwind(AssertUnwindSafe(|| decode(&faulted))) {
        Err(_) => InfraOutcome::Panicked,
        Ok(Err(_typed)) => InfraOutcome::RejectedTyped,
        Ok(Ok(true)) => InfraOutcome::AcceptedIntact,
        Ok(Ok(false)) => InfraOutcome::SilentCorruption,
    };
    InfraTrialOutcome {
        class,
        outcome,
        code: trial_code(class, outcome, rng),
    }
}

fn trial_code(class: InfraFaultClass, outcome: InfraOutcome, rng: &mut SmallRng) -> u64 {
    let o = match outcome {
        InfraOutcome::RejectedTyped => 1,
        InfraOutcome::AcceptedIntact => 2,
        InfraOutcome::SilentCorruption => 3,
        InfraOutcome::Panicked => 4,
    };
    (class.id() << 40 | o) ^ rng.next_u64().rotate_left(24)
}

/// How a [`FaultyWriter`] fails once its budget is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterFaultMode {
    /// Reports `Ok(0)` — `write_all` surfaces `ErrorKind::WriteZero`.
    ShortWrite,
    /// Reports an ENOSPC-style `io::Error`.
    Enospc,
}

/// An `io::Write` that accepts exactly `budget` bytes, then fails in the
/// configured way. What it accepted is retained so tests can treat it as
/// the on-disk prefix a crash would leave behind.
pub struct FaultyWriter {
    written: Vec<u8>,
    budget: usize,
    mode: WriterFaultMode,
}

impl FaultyWriter {
    /// A writer that fails after `budget` bytes.
    pub fn new(budget: usize, mode: WriterFaultMode) -> Self {
        FaultyWriter {
            written: Vec::new(),
            budget,
            mode,
        }
    }

    /// The prefix that made it "to disk".
    pub fn into_written(self) -> Vec<u8> {
        self.written
    }
}

impl Write for FaultyWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let room = self.budget.saturating_sub(self.written.len());
        if room == 0 {
            return match self.mode {
                WriterFaultMode::ShortWrite => Ok(0),
                WriterFaultMode::Enospc => {
                    Err(io::Error::other("no space left on device (injected)"))
                }
            };
        }
        let n = room.min(buf.len());
        self.written.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        let mut c = Checkpoint::new("fig2", maps_obs::fingerprint64("fig2|x"));
        c.insert("sweep/a", Json::UInt(1));
        c.insert("sweep/b", Json::UInt(2));
        c
    }

    #[test]
    fn faulty_writer_fails_write_all_and_keeps_the_prefix() {
        for mode in [WriterFaultMode::ShortWrite, WriterFaultMode::Enospc] {
            let mut w = FaultyWriter::new(5, mode);
            let err = w.write_all(b"0123456789").unwrap_err();
            match mode {
                WriterFaultMode::ShortWrite => {
                    assert_eq!(err.kind(), io::ErrorKind::WriteZero)
                }
                WriterFaultMode::Enospc => {
                    assert!(err.to_string().contains("no space"))
                }
            }
            assert_eq!(w.into_written(), b"01234");
        }
    }

    #[test]
    fn torn_checkpoints_are_rejected_or_intact_never_silent() {
        let artifact = Artifact::checkpoint(&sample_checkpoint());
        let mut rng = SmallRng::seed_from_u64(3);
        for class in InfraFaultClass::ALL {
            if !class.is_torn() {
                continue;
            }
            for _ in 0..32 {
                let out = run_infra_trial(&artifact, class, &mut rng);
                assert!(out.acceptable(), "{}: {:?}", class.name(), out.outcome);
                assert_ne!(out.outcome, InfraOutcome::SilentCorruption);
            }
        }
    }

    #[test]
    fn interior_corruption_never_panics_a_json_consumer() {
        let artifact = Artifact::checkpoint(&sample_checkpoint());
        let mut rng = SmallRng::seed_from_u64(5);
        for class in [InfraFaultClass::BitFlip, InfraFaultClass::Overwrite] {
            for _ in 0..64 {
                let out = run_infra_trial(&artifact, class, &mut rng);
                assert_ne!(out.outcome, InfraOutcome::Panicked, "{}", class.name());
            }
        }
    }

    #[test]
    fn trials_are_seed_reproducible() {
        let artifact = Artifact::checkpoint(&sample_checkpoint());
        let run = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            InfraFaultClass::ALL.map(|c| run_infra_trial(&artifact, c, &mut rng).code)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
