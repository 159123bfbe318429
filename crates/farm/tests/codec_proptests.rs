//! Boundary-codec properties: one helper, every codec.
//!
//! Every value that crosses a process or disk boundary — a sweep job
//! (the compact `job_to_json` text), a report, a checkpoint image, the
//! supervision block, and a `maps-farmd` frame — goes through
//! [`check_codec`], which asserts:
//!
//! * decoding the encoding and re-encoding it reproduces the same bytes;
//! * a strict prefix of the encoding is a typed error (a frame must say
//!   `Truncated`; only an empty stream may read as a clean end of stream);
//! * garbage bytes never decode to a value.
//!
//! Frames keep three cases of their own: oversized length prefixes,
//! trailing garbage after a valid frame, and a pinned list covering every
//! frame variant.
//!
//! These run ungated (no `heavy-tests` feature): no codec touches the
//! simulator, so the whole suite takes seconds.

use maps_bench::{job_from_json, job_to_json, JobKind, PlanHost, SimJob};
use maps_farm::proto::send;
use maps_farm::{Frame, FrameReader, Supervision};
use maps_obs::{Checkpoint, CodecError, Json, FRAME_MAGIC, MAX_FRAME_BYTES};
use maps_sim::{MdcDesign, PartitionMode, PolicyChoice, SimConfig, SimReport, TenantMdcStats};
use maps_trace::BlockKind;
use maps_workloads::Benchmark;
use proptest::prelude::*;

/// Number of [`Frame`] variants [`frame_of`] can construct. Keep in lock
/// step with the `match` inside `frame_of` and with the codec itself.
const FRAME_VARIANTS: u64 = 12;

/// One boundary codec: how a value becomes bytes and how bytes decode.
struct Codec<T> {
    encode: fn(&T) -> Vec<u8>,
    /// `Ok(None)` is a clean end of stream (frames only).
    decode: fn(&[u8]) -> Result<Option<T>, CodecError>,
    /// Whether an error is the right one for a strict prefix.
    prefix_error: fn(&CodecError) -> bool,
}

/// Decodes a whole-document codec's UTF-8 JSON text.
fn text_doc<T>(
    bytes: &[u8],
    from_json: fn(&Json) -> Result<T, CodecError>,
) -> Result<Option<T>, CodecError> {
    let text = std::str::from_utf8(bytes).map_err(|_| CodecError::Utf8)?;
    from_json(&Json::parse(text)?).map(Some)
}

const JOB: Codec<SimJob> = Codec {
    encode: |job| {
        job_to_json(job)
            .expect("job encodes")
            .to_compact()
            .into_bytes()
    },
    decode: |bytes| text_doc(bytes, job_from_json),
    prefix_error: |_| true,
};

const REPORT: Codec<SimReport> = Codec {
    encode: |report| report.to_json().to_compact().into_bytes(),
    decode: |bytes| text_doc(bytes, SimReport::from_json),
    prefix_error: |_| true,
};

const SUPERVISION: Codec<Supervision> = Codec {
    encode: |sup| sup.to_json().to_compact().into_bytes(),
    decode: |bytes| text_doc(bytes, Supervision::from_json),
    prefix_error: |_| true,
};

const CHECKPOINT: Codec<Checkpoint> = Codec {
    encode: Checkpoint::to_bytes,
    decode: |bytes| Checkpoint::from_bytes(bytes).map(Some),
    prefix_error: |_| true,
};

const FRAME: Codec<Frame> = Codec {
    encode,
    decode: |bytes| FrameReader::new(bytes).next_frame(),
    prefix_error: |e| matches!(e, CodecError::Truncated { .. }),
};

/// Asserts the three codec properties for `value`: round trip, the
/// strict prefixes of length 0, `len - 1` and `cut_pick % len`, and
/// `garbage`.
fn check_codec<T: std::fmt::Debug>(
    codec: &Codec<T>,
    value: &T,
    cut_pick: u64,
    garbage: &[u8],
) -> Result<(), TestCaseError> {
    let bytes = (codec.encode)(value);
    match (codec.decode)(&bytes) {
        Ok(Some(decoded)) => prop_assert!(
            (codec.encode)(&decoded) == bytes,
            "re-encoding drifted: {value:?} came back as {decoded:?}"
        ),
        other => prop_assert!(false, "valid encoding of {value:?} gave {other:?}"),
    }
    let len = bytes.len();
    for cut in [0, len - 1, (cut_pick % len as u64) as usize] {
        match (codec.decode)(&bytes[..cut]) {
            Ok(None) => prop_assert_eq!(cut, 0, "only an empty stream is a clean end"),
            Err(e) => prop_assert!(
                (codec.prefix_error)(&e),
                "prefix of {cut}/{len} bytes gave {e:?}"
            ),
            Ok(Some(v)) => prop_assert!(false, "prefix of {cut}/{len} bytes decoded to {v:?}"),
        }
    }
    match (codec.decode)(garbage) {
        Ok(None) => prop_assert!(garbage.is_empty(), "garbage read as a clean end"),
        Ok(Some(v)) => prop_assert!(false, "garbage {garbage:?} decoded to {v:?}"),
        Err(_) => {}
    }
    Ok(())
}

fn encode(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    send(&mut buf, frame).expect("frame encodes");
    buf
}

fn decode_one(bytes: &[u8]) -> Result<Option<Frame>, CodecError> {
    FrameReader::new(bytes).next_frame()
}

/// Deterministic printable-ASCII string derived from `seed` — the range
/// 0x20..=0x7e includes `"` and `\`, stressing the JSON string escaping
/// underneath every codec.
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

/// A job whose policy, partition, design, kind and floats all vary with
/// `seed`.
fn job_of(seed: u64, len: usize) -> SimJob {
    let base = SimConfig::paper_default();
    let mut cfg = base.with_llc_bytes(base.llc_bytes >> (seed % 3));
    let policy = match (seed >> 4) % 9 {
        0 => PolicyChoice::PseudoLru,
        1 => PolicyChoice::TrueLru,
        2 => PolicyChoice::Fifo,
        3 => PolicyChoice::Random(seed.rotate_left(9)),
        4 => PolicyChoice::Srrip,
        5 => PolicyChoice::Eva,
        6 => PolicyChoice::CostAware(seed >> 40),
        7 => PolicyChoice::Drrip,
        _ => PolicyChoice::EvaPerType,
    };
    let partition = if seed & 1 == 0 {
        PartitionMode::None
    } else {
        PartitionMode::PerTenant {
            tenants: 1 + (seed >> 8) as usize % 8,
        }
    };
    let design = if seed & 2 == 0 {
        MdcDesign::SetAssoc
    } else {
        MdcDesign::Randomized {
            seed: seed.rotate_left(17),
        }
    };
    cfg.mdc = cfg
        .mdc
        .with_policy(policy)
        .with_partition(partition)
        .with_design(design);
    cfg.mdc.partial_writes = seed & 4 != 0;
    cfg.warmup_fraction = (seed % 1000) as f64 / 997.0;
    cfg.speculation_window = seed.rotate_left(3);
    let kind = match (seed >> 12) % 4 {
        0 => JobKind::Replay,
        1 => JobKind::Min,
        2 => JobKind::IterMin {
            iterations: (seed >> 20) as usize % 10,
        },
        _ => JobKind::Occupancy {
            victim_pages: seed >> 24,
        },
    };
    SimJob {
        key: text(seed ^ 0xA5A5, 1 + len % 24),
        cfg,
        bench: Benchmark::ALL[(seed >> 8) as usize % Benchmark::ALL.len()],
        seed: seed.rotate_left(5),
        accesses: 1 + (seed >> 16) % 10_000,
        kind,
    }
}

/// A report with counters, tenant rows and energy terms derived from
/// `seed`.
fn report_of(seed: u64, len: usize) -> SimReport {
    let mut r = PlanHost::placeholder_report();
    r.workload = text(seed, len);
    r.instructions = seed.rotate_left(5);
    r.cycles = seed.rotate_left(31);
    r.hierarchy.llc_demand_misses = seed >> 3;
    r.engine.tree_walks = seed.rotate_left(9);
    r.engine.dram_meta.reads = seed >> 7;
    for (i, kind) in [BlockKind::Counter, BlockKind::Hash, BlockKind::Tree(1)]
        .into_iter()
        .enumerate()
    {
        r.engine.meta.record_access(kind, (seed >> i) & 1 == 1);
    }
    r.tenants = (0..len % 3)
        .map(|t| TenantMdcStats {
            tenant: (seed as u8).wrapping_add(t as u8),
            meta: r.engine.meta,
            occupancy: seed >> t,
        })
        .collect();
    r.energy.add_cycles(seed >> 1);
    r.energy.add_dram_pj((seed % 1000) as f64 / 7.0);
    r.energy.add_sram_pj(1.0 / (1 + seed % 13) as f64);
    r
}

fn supervision_of(seed: u64) -> Supervision {
    Supervision {
        respawns: seed,
        retries: seed.rotate_left(7),
        quarantined: seed >> 13,
        heartbeat_misses: seed.rotate_left(29),
        client_reconnects: seed % 5,
    }
}

/// A checkpoint of up to four records mixing reports and plain values.
fn checkpoint_of(seed: u64, len: usize) -> Checkpoint {
    let mut c = Checkpoint::new(&text(seed, len), seed.rotate_left(11));
    for i in 0..(len % 5) as u64 {
        let value = if i % 2 == 0 {
            report_of(seed ^ i, len).to_json()
        } else {
            Json::UInt(seed >> i)
        };
        c.insert(&text(seed ^ (i + 1), 1 + len % 16), value);
    }
    c
}

/// Constructs one of the [`FRAME_VARIANTS`] frame shapes, with all string
/// and numeric payloads derived deterministically from `seed`/`len`.
fn frame_of(variant: u64, seed: u64, len: usize) -> Frame {
    match variant % FRAME_VARIANTS {
        0 => Frame::Submit {
            campaign: text(seed, len),
            dir: text(seed ^ 1, len),
            figures: (0..len % 4).map(|i| text(seed ^ (i as u64), 4)).collect(),
            accesses: seed.rotate_left(7),
            workers: seed.rotate_left(13),
        },
        1 => Frame::Attach {
            campaign: text(seed, len),
            since: seed.rotate_left(21),
        },
        2 => Frame::Status {
            campaign: text(seed, len),
        },
        3 => Frame::Accepted {
            campaign: text(seed, len),
            resumed: seed & 1 == 1,
        },
        4 => Frame::Event {
            seq: seed.rotate_left(3),
            what: text(seed ^ 2, len),
            detail: text(seed ^ 3, len),
        },
        5 => Frame::Done {
            ok: seed & 1 == 0,
            message: text(seed, len),
        },
        6 => Frame::Reject {
            message: text(seed, len),
        },
        7 => Frame::Job {
            id: seed,
            job: Box::new(job_of(seed, len)),
        },
        8 => Frame::JobResult {
            id: seed,
            report: Box::new(report_of(seed, len)),
        },
        9 => Frame::JobError {
            id: seed,
            message: text(seed, len),
        },
        10 => Frame::Heartbeat { id: seed },
        _ => Frame::Exit,
    }
}

proptest! {
    #[test]
    fn job_codec_round_trips_and_rejects_prefixes_and_garbage(
        spec in (any::<u64>(), 0usize..32, any::<u64>()),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let (seed, len, cut) = spec;
        check_codec(&JOB, &job_of(seed, len), cut, &garbage)?;
    }

    #[test]
    fn report_codec_round_trips_and_rejects_prefixes_and_garbage(
        spec in (any::<u64>(), 0usize..32, any::<u64>()),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let (seed, len, cut) = spec;
        check_codec(&REPORT, &report_of(seed, len), cut, &garbage)?;
    }

    #[test]
    fn supervision_codec_round_trips_and_rejects_prefixes_and_garbage(
        spec in (any::<u64>(), any::<u64>()),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let (seed, cut) = spec;
        check_codec(&SUPERVISION, &supervision_of(seed), cut, &garbage)?;
    }

    #[test]
    fn checkpoint_codec_round_trips_and_rejects_prefixes_and_garbage(
        spec in (any::<u64>(), 0usize..32, any::<u64>()),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let (seed, len, cut) = spec;
        check_codec(&CHECKPOINT, &checkpoint_of(seed, len), cut, &garbage)?;
    }

    #[test]
    fn frame_codec_round_trips_and_rejects_prefixes_and_garbage(
        spec in (0u64..FRAME_VARIANTS, any::<u64>(), 0usize..32, any::<u64>()),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let (variant, seed, len, cut) = spec;
        check_codec(&FRAME, &frame_of(variant, seed, len), cut, &garbage)?;
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_before_allocation(
        spec in (1u32..=1024, 0u64..FRAME_VARIANTS, any::<u64>()),
    ) {
        let (extra, variant, seed) = spec;
        let declared = MAX_FRAME_BYTES + extra;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FRAME_MAGIC);
        bytes.extend_from_slice(&declared.to_le_bytes());
        bytes.extend_from_slice(&encode(&frame_of(variant, seed, 8))); // never reached
        match decode_one(&bytes) {
            Err(CodecError::Oversized { declared: got }) => {
                prop_assert_eq!(got, declared);
            }
            other => prop_assert!(false, "oversized length gave {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_after_a_valid_frame_is_typed(
        spec in (0u64..FRAME_VARIANTS, any::<u64>(), 0usize..32),
        garbage in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let (variant, seed, len) = spec;
        let mut bytes = encode(&frame_of(variant, seed, len));
        bytes.extend_from_slice(&garbage);
        let mut reader = FrameReader::new(&bytes[..]);
        reader
            .next_frame()
            .expect("leading frame decodes")
            .expect("one frame present");
        if let Ok(Some(_)) = reader.next_frame() {
            prop_assert!(
                garbage.len() >= 4 && garbage[..4] == FRAME_MAGIC,
                "garbage without the magic decoded to a second frame"
            );
        }
    }
}

/// Proptest sampling aside, pin that *each* frame variant round-trips —
/// a new variant missing from [`frame_of`] still gets covered here.
#[test]
fn every_frame_variant_is_covered() {
    let job = SimJob::replay(
        "llc=2097152",
        SimConfig::paper_default(),
        Benchmark::Mcf,
        5_000,
    );
    let frames = vec![
        Frame::Submit {
            campaign: "c".into(),
            dir: "/tmp/c".into(),
            figures: vec!["fig2".into()],
            accesses: 1200,
            workers: 2,
        },
        Frame::Attach {
            campaign: "c".into(),
            since: 9,
        },
        Frame::Status {
            campaign: "c".into(),
        },
        Frame::Accepted {
            campaign: "c".into(),
            resumed: true,
        },
        Frame::Event {
            seq: 1,
            what: "point-done".into(),
            detail: "k".into(),
        },
        Frame::Done {
            ok: true,
            message: "done".into(),
        },
        Frame::Reject {
            message: "no".into(),
        },
        Frame::Job {
            id: 1,
            job: Box::new(job),
        },
        Frame::JobResult {
            id: 1,
            report: Box::new(PlanHost::placeholder_report()),
        },
        Frame::JobError {
            id: 1,
            message: "boom".into(),
        },
        Frame::Heartbeat { id: 1 },
        Frame::Exit,
    ];
    assert_eq!(frames.len() as u64, FRAME_VARIANTS, "variant list drifted");
    for frame in &frames {
        let bytes = encode(frame);
        let decoded = decode_one(&bytes).expect("decodes").expect("frame present");
        assert_eq!(encode(&decoded), bytes, "variant drifted: {frame:?}");
    }
}
