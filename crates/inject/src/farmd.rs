//! Daemon wire-protocol fault plane: corrupting `maps-farmd` frames at
//! seeded positions.
//!
//! The daemon's whole robustness story rests on one contract: every byte
//! sequence fed to the frame decoder yields a **typed** result — a
//! decoded frame, a clean end-of-stream at a frame boundary, or a
//! [`maps_obs::CodecError`] — never a panic and never a bogus frame. The
//! supervisor's recovery machinery (respawn, requeue, quarantine) and the
//! client's reconnect loop both dispatch on exactly those outcomes, so a
//! decoder that panicked or mis-decoded would turn a crashed worker into
//! a crashed daemon.
//!
//! This plane attacks that contract byte-by-byte: torn headers and
//! payloads, corrupted magic, oversized length prefixes, garbage and
//! schema-drifted payloads, mid-stream disconnects, and trailing garbage
//! after a valid frame. The *process*-level faults (SIGKILLed, stalled,
//! and frame-tearing workers; daemon crash and resume) are driven end to
//! end by the `MAPS_FARMD_FAULT_*` hooks in `maps-farmd --worker` and
//! pinned by `crates/farm/tests/farmd_e2e.rs`; this plane owns the
//! decoder surface those scenarios ultimately funnel through.

use std::panic::{catch_unwind, AssertUnwindSafe};

use maps_bench::{PlanHost, SimJob};
use maps_farm::proto::{send, Frame, FrameReader};
use maps_obs::{FRAME_MAGIC, MAX_FRAME_BYTES};
use maps_sim::SimConfig;
use maps_trace::rng::SmallRng;
use maps_workloads::Benchmark;

/// The injected wire-protocol fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FarmdFaultClass {
    /// The stream is cut inside the 8-byte magic+length header.
    TornHeader,
    /// The stream is cut inside the JSON payload.
    TornPayload,
    /// One header magic byte is corrupted.
    BadMagic,
    /// The length prefix declares more than `MAX_FRAME_BYTES`.
    OversizedLength,
    /// A well-formed header carries random payload bytes.
    GarbagePayload,
    /// A well-formed JSON payload with a protocol-schema violation
    /// (renamed discriminator, unknown frame type, or bad version).
    SchemaDrift,
    /// The peer disconnects exactly at a frame boundary mid-stream.
    Disconnect,
    /// Garbage bytes follow a valid frame on the same stream.
    TrailingGarbage,
}

impl FarmdFaultClass {
    /// Every class, in campaign order.
    pub const ALL: [FarmdFaultClass; 8] = [
        FarmdFaultClass::TornHeader,
        FarmdFaultClass::TornPayload,
        FarmdFaultClass::BadMagic,
        FarmdFaultClass::OversizedLength,
        FarmdFaultClass::GarbagePayload,
        FarmdFaultClass::SchemaDrift,
        FarmdFaultClass::Disconnect,
        FarmdFaultClass::TrailingGarbage,
    ];

    /// Stable display name (also the campaign-report key).
    pub fn name(self) -> &'static str {
        match self {
            FarmdFaultClass::TornHeader => "torn-header",
            FarmdFaultClass::TornPayload => "torn-payload",
            FarmdFaultClass::BadMagic => "bad-magic",
            FarmdFaultClass::OversizedLength => "oversized-length",
            FarmdFaultClass::GarbagePayload => "garbage-payload",
            FarmdFaultClass::SchemaDrift => "schema-drift",
            FarmdFaultClass::Disconnect => "disconnect",
            FarmdFaultClass::TrailingGarbage => "trailing-garbage",
        }
    }

    /// What a correct decoder must do with this fault.
    pub fn expected(self) -> FarmdOutcome {
        match self {
            // A boundary disconnect is the one *recoverable* shape: the
            // supervisor reads it as worker death, the client as a
            // reconnect point — both need a clean EOF, not an error.
            FarmdFaultClass::Disconnect => FarmdOutcome::CleanEof,
            _ => FarmdOutcome::RejectedTyped,
        }
    }

    fn id(self) -> u64 {
        match self {
            FarmdFaultClass::TornHeader => 1,
            FarmdFaultClass::TornPayload => 2,
            FarmdFaultClass::BadMagic => 3,
            FarmdFaultClass::OversizedLength => 4,
            FarmdFaultClass::GarbagePayload => 5,
            FarmdFaultClass::SchemaDrift => 6,
            FarmdFaultClass::Disconnect => 7,
            FarmdFaultClass::TrailingGarbage => 8,
        }
    }
}

/// How the frame decoder handled the faulted stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FarmdOutcome {
    /// The faulted portion was rejected with a typed [`maps_obs::CodecError`] —
    /// and every intact frame before it decoded bit-exactly.
    RejectedTyped,
    /// The stream ended cleanly at a frame boundary, every frame before
    /// the cut intact — the recoverable disconnect shape.
    CleanEof,
    /// The decoder accepted a frame that differs from what was sent, or
    /// kept decoding past the fault — always forbidden.
    SilentCorruption,
    /// The decoder panicked — always forbidden.
    Panicked,
}

/// Outcome of one wire-protocol fault trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmdTrialOutcome {
    /// The class injected.
    pub class: FarmdFaultClass,
    /// What the decoder did.
    pub outcome: FarmdOutcome,
    /// Deterministic code folded into the campaign fingerprint.
    pub code: u64,
}

impl FarmdTrialOutcome {
    /// Whether the trial upholds the decoder contract for its class.
    pub fn acceptable(&self) -> bool {
        self.outcome == self.class.expected()
    }
}

/// Deterministic printable-ASCII string (0x20..=0x7e includes `"` and
/// `\`, stressing the JSON escaping under the codec).
fn text(mut seed: u64, len: usize) -> String {
    let mut out = String::with_capacity(len);
    for _ in 0..len {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.push(char::from(0x20 + ((seed >> 33) % 95) as u8));
    }
    out
}

/// One seeded frame drawn from every protocol shape, including the large
/// job/report payloads the worker pipe actually carries.
fn sample_frame(rng: &mut SmallRng) -> Frame {
    let seed = rng.next_u64();
    let len = 1 + (rng.next_u64() % 24) as usize;
    match rng.gen_range(0..8u64) {
        0 => Frame::Submit {
            campaign: text(seed, len),
            dir: text(seed ^ 1, len),
            figures: vec![text(seed ^ 2, 4), text(seed ^ 3, 4)],
            accesses: seed.rotate_left(7),
            workers: seed & 0xf,
        },
        1 => Frame::Attach {
            campaign: text(seed, len),
            since: seed.rotate_left(13),
        },
        2 => Frame::Event {
            seq: seed.rotate_left(3),
            what: text(seed ^ 2, len),
            detail: text(seed ^ 3, len),
        },
        3 => Frame::Done {
            ok: seed & 1 == 0,
            message: text(seed, len),
        },
        4 => {
            let cfg = SimConfig::paper_default();
            let bench = Benchmark::ALL[(seed >> 8) as usize % Benchmark::ALL.len()];
            Frame::Job {
                id: seed,
                job: Box::new(SimJob::replay(
                    text(seed ^ 0xA5A5, len),
                    cfg.with_llc_bytes(cfg.llc_bytes >> (seed % 3)),
                    bench,
                    1 + (seed >> 16) % 10_000,
                )),
            }
        }
        5 => {
            let mut report = PlanHost::placeholder_report();
            report.workload = text(seed, len);
            report.cycles = seed.rotate_left(31);
            Frame::JobResult {
                id: seed,
                report: Box::new(report),
            }
        }
        6 => Frame::JobError {
            id: seed,
            message: text(seed, len),
        },
        _ => Frame::Heartbeat { id: seed },
    }
}

fn encode(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    // Encoding into a Vec cannot fail; an empty buffer (impossible) would
    // simply read as a clean EOF and fail the trial's expectation.
    let _ = send(&mut buf, frame);
    buf
}

/// Re-frames a mutated payload under a fresh, correct length prefix.
fn reframe(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Builds the faulted byte stream for one trial. Returns the bytes plus
/// the frames a correct decoder must recover intact before the fault
/// (empty for faults that corrupt the very first frame).
fn inject(class: FarmdFaultClass, rng: &mut SmallRng) -> (Vec<u8>, Vec<Frame>) {
    let frame = sample_frame(rng);
    let clean = encode(&frame);
    match class {
        FarmdFaultClass::TornHeader => {
            let cut = 1 + rng.gen_range(0u64..7) as usize;
            (clean[..cut].to_vec(), Vec::new())
        }
        FarmdFaultClass::TornPayload => {
            let cut = 8 + rng.gen_range(0..(clean.len() - 8) as u64) as usize;
            (clean[..cut].to_vec(), Vec::new())
        }
        FarmdFaultClass::BadMagic => {
            // A single bit flip can never reproduce the original magic
            // byte, so the decoder must always see BadMagic here.
            let mut bytes = clean;
            let offset = rng.gen_range(0u64..4) as usize;
            bytes[offset] ^= 1 << (rng.gen_range(0u64..8) as u8);
            (bytes, Vec::new())
        }
        FarmdFaultClass::OversizedLength => {
            let declared = MAX_FRAME_BYTES + 1 + rng.gen_range(0u64..1024) as u32;
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&FRAME_MAGIC);
            bytes.extend_from_slice(&declared.to_le_bytes());
            bytes.extend_from_slice(&clean[8..]);
            (bytes, Vec::new())
        }
        FarmdFaultClass::GarbagePayload => {
            let len = 1 + rng.gen_range(0u64..128) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            (reframe(&payload), Vec::new())
        }
        FarmdFaultClass::SchemaDrift => {
            let payload = String::from_utf8_lossy(&clean[8..]).into_owned();
            let drifted = match rng.gen_range(0..3u64) {
                // The discriminator key disappears.
                0 => payload.replacen("\"type\"", "\"kind\"", 1),
                // The discriminator names a frame type that never existed.
                1 => payload.replacen("\"type\"", "\"type\": \"frob\", \"x\"", 1),
                // The protocol version is from the future.
                _ => payload.replacen("\"proto\"", "\"proto\": 999, \"x\"", 1),
            };
            (reframe(drifted.as_bytes()), Vec::new())
        }
        FarmdFaultClass::Disconnect => {
            // The peer vanishes exactly between two frames: everything
            // sent so far decodes, then a clean EOF — nothing else.
            (clean, vec![frame])
        }
        FarmdFaultClass::TrailingGarbage => {
            let mut bytes = clean;
            // Garbage that cannot start another valid frame: corrupt the
            // would-be magic before appending seeded noise.
            bytes.push(!FRAME_MAGIC[0]);
            let extra = rng.gen_range(0u64..64);
            for _ in 0..extra {
                bytes.push(rng.next_u64() as u8);
            }
            (bytes, vec![frame])
        }
    }
}

/// Runs one seeded wire-protocol fault trial.
pub fn run_farmd_trial(class: FarmdFaultClass, rng: &mut SmallRng) -> FarmdTrialOutcome {
    let (bytes, intact) = inject(class, rng);
    let outcome = catch_unwind(AssertUnwindSafe(|| decode_stream(&bytes, &intact)))
        .unwrap_or(FarmdOutcome::Panicked);
    FarmdTrialOutcome {
        class,
        outcome,
        code: trial_code(class, outcome, rng),
    }
}

/// Decodes the faulted stream, checking the frames before the fault are
/// recovered bit-exactly, and classifies what happens at the fault.
fn decode_stream(bytes: &[u8], intact: &[Frame]) -> FarmdOutcome {
    let mut reader = FrameReader::new(bytes);
    for expected in intact {
        match reader.next_frame() {
            Ok(Some(frame)) if encode(&frame) == encode(expected) => {}
            Ok(Some(_)) | Ok(None) => return FarmdOutcome::SilentCorruption,
            Err(_) => return FarmdOutcome::RejectedTyped,
        }
    }
    match reader.next_frame() {
        Ok(None) => FarmdOutcome::CleanEof,
        Ok(Some(_)) => FarmdOutcome::SilentCorruption,
        Err(_) => FarmdOutcome::RejectedTyped,
    }
}

fn trial_code(class: FarmdFaultClass, outcome: FarmdOutcome, rng: &mut SmallRng) -> u64 {
    let o = match outcome {
        FarmdOutcome::RejectedTyped => 1,
        FarmdOutcome::CleanEof => 2,
        FarmdOutcome::SilentCorruption => 3,
        FarmdOutcome::Panicked => 4,
    };
    (class.id() << 48 | o) ^ rng.next_u64().rotate_left(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_meets_its_expectation() {
        let mut rng = SmallRng::seed_from_u64(11);
        for class in FarmdFaultClass::ALL {
            for i in 0..48 {
                let out = run_farmd_trial(class, &mut rng);
                assert!(
                    out.acceptable(),
                    "{} trial {i}: expected {:?}, got {:?}",
                    class.name(),
                    class.expected(),
                    out.outcome
                );
            }
        }
    }

    #[test]
    fn trials_are_seed_reproducible() {
        let run = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            FarmdFaultClass::ALL.map(|c| run_farmd_trial(c, &mut rng).code)
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }
}
