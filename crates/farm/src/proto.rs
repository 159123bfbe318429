//! Typed frames of the `maps-farmd` wire protocol.
//!
//! Three parties speak it: **clients** (`maps-farm submit/attach/status`)
//! over the daemon's Unix socket, and **workers** (`maps-farmd --worker`)
//! over their stdin/stdout pipes. Every message is one length-prefixed
//! [`maps_obs::frame`] whose payload is a `{"proto": 1, "type": …}`
//! object; [`Frame::from_json`] is total — any unknown type, wrong
//! version, or mistyped field decodes to a typed [`CodecError`], never a
//! panic — because both ends feed it bytes from a peer that may have been
//! SIGKILLed mid-write or replaced by a fault injector.
//!
//! The protocol is deliberately small:
//!
//! * client → daemon: [`Frame::Submit`], [`Frame::Attach`],
//!   [`Frame::Status`] (one request per connection);
//! * daemon → client: [`Frame::Accepted`], a stream of sequence-numbered
//!   [`Frame::Event`]s, and a final [`Frame::Done`] (or an immediate
//!   [`Frame::Reject`]);
//! * daemon → worker: [`Frame::Job`] / [`Frame::Exit`];
//! * worker → daemon: [`Frame::Heartbeat`] while a job runs, then
//!   [`Frame::JobResult`] or [`Frame::JobError`].
//!
//! Events carry a per-campaign sequence number so a client that loses its
//! connection can [`Frame::Attach`] with `since` and resume the stream
//! without gaps or duplicates.

use maps_bench::{job_from_json, job_to_json, SimJob};
use maps_obs::{CodecError, Json};
use maps_sim::SimReport;

/// Semantic protocol version carried in every frame payload.
pub const PROTO_VERSION: u64 = 1;

/// One protocol message.
#[derive(Debug)]
pub enum Frame {
    /// Client asks the daemon to run (or resume) a campaign.
    Submit {
        /// Campaign name.
        campaign: String,
        /// Campaign directory (plan, checkpoint, artifacts).
        dir: String,
        /// Figure names to include (empty = all).
        figures: Vec<String>,
        /// Accesses per point (0 = figure default).
        accesses: u64,
        /// Worker processes to spawn (0 = daemon default).
        workers: u64,
    },
    /// Client (re)subscribes to a campaign's event stream from `since`.
    Attach {
        /// Campaign name.
        campaign: String,
        /// First sequence number the client has *not* seen.
        since: u64,
    },
    /// Client asks for a one-shot status snapshot.
    Status {
        /// Campaign name.
        campaign: String,
    },
    /// Daemon accepted a request and will stream events.
    Accepted {
        /// Campaign name.
        campaign: String,
        /// Whether the campaign was already running (attach-like submit).
        resumed: bool,
    },
    /// One sequence-numbered progress event.
    Event {
        /// Position in the campaign's event log.
        seq: u64,
        /// Machine-readable kind (`point-done`, `worker-respawn`, …).
        what: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Terminal frame of a client stream.
    Done {
        /// Whether the campaign completed without quarantined points.
        ok: bool,
        /// Summary or failure-report pointer.
        message: String,
    },
    /// The daemon refused the request (typed, connection closes after).
    Reject {
        /// Why.
        message: String,
    },
    /// Daemon ships one sweep point to a worker.
    Job {
        /// Daemon-side job id (echoed back in the result).
        id: u64,
        /// The point to simulate.
        job: Box<SimJob>,
    },
    /// Worker finished a job.
    JobResult {
        /// Echo of [`Frame::Job`]'s id.
        id: u64,
        /// The bit-exact report.
        report: Box<SimReport>,
    },
    /// Worker caught a panic (or rejected the job) — the point failed but
    /// the worker is still healthy.
    JobError {
        /// Echo of [`Frame::Job`]'s id.
        id: u64,
        /// Panic or decode message.
        message: String,
    },
    /// Worker liveness signal while a job runs.
    Heartbeat {
        /// The job being worked on.
        id: u64,
    },
    /// Daemon tells a worker to exit cleanly.
    Exit,
}

fn obj(ty: &str, mut fields: Vec<(String, Json)>) -> Json {
    let mut all = vec![
        ("proto".to_string(), Json::UInt(PROTO_VERSION)),
        ("type".to_string(), Json::Str(ty.to_string())),
    ];
    all.append(&mut fields);
    Json::Obj(all)
}

impl Frame {
    /// Encodes the frame payload.
    ///
    /// # Errors
    ///
    /// [`CodecError::Unsupported`] when a [`Frame::Job`] embeds a job the
    /// wire codec refuses (oracle-bearing policies).
    pub fn to_json(&self) -> Result<Json, CodecError> {
        Ok(match self {
            Frame::Submit {
                campaign,
                dir,
                figures,
                accesses,
                workers,
            } => obj(
                "submit",
                vec![
                    ("campaign".into(), Json::Str(campaign.clone())),
                    ("dir".into(), Json::Str(dir.clone())),
                    (
                        "figures".into(),
                        Json::Arr(figures.iter().map(|f| Json::Str(f.clone())).collect()),
                    ),
                    ("accesses".into(), Json::UInt(*accesses)),
                    ("workers".into(), Json::UInt(*workers)),
                ],
            ),
            Frame::Attach { campaign, since } => obj(
                "attach",
                vec![
                    ("campaign".into(), Json::Str(campaign.clone())),
                    ("since".into(), Json::UInt(*since)),
                ],
            ),
            Frame::Status { campaign } => obj(
                "status",
                vec![("campaign".into(), Json::Str(campaign.clone()))],
            ),
            Frame::Accepted { campaign, resumed } => obj(
                "accepted",
                vec![
                    ("campaign".into(), Json::Str(campaign.clone())),
                    ("resumed".into(), Json::Bool(*resumed)),
                ],
            ),
            Frame::Event { seq, what, detail } => obj(
                "event",
                vec![
                    ("seq".into(), Json::UInt(*seq)),
                    ("what".into(), Json::Str(what.clone())),
                    ("detail".into(), Json::Str(detail.clone())),
                ],
            ),
            Frame::Done { ok, message } => obj(
                "done",
                vec![
                    ("ok".into(), Json::Bool(*ok)),
                    ("message".into(), Json::Str(message.clone())),
                ],
            ),
            Frame::Reject { message } => obj(
                "reject",
                vec![("message".into(), Json::Str(message.clone()))],
            ),
            Frame::Job { id, job } => obj(
                "job",
                vec![
                    ("id".into(), Json::UInt(*id)),
                    ("job".into(), job_to_json(job)?),
                ],
            ),
            Frame::JobResult { id, report } => obj(
                "job-result",
                vec![
                    ("id".into(), Json::UInt(*id)),
                    ("report".into(), report.to_json()),
                ],
            ),
            Frame::JobError { id, message } => obj(
                "job-error",
                vec![
                    ("id".into(), Json::UInt(*id)),
                    ("message".into(), Json::Str(message.clone())),
                ],
            ),
            Frame::Heartbeat { id } => obj("heartbeat", vec![("id".into(), Json::UInt(*id))]),
            Frame::Exit => obj("exit", Vec::new()),
        })
    }

    /// Decodes a frame payload. Total: every malformed document is a
    /// typed [`CodecError`].
    ///
    /// # Errors
    ///
    /// [`CodecError::Version`] for another `proto` version,
    /// [`CodecError::Invalid`] (field `type`) for an unknown frame type,
    /// [`CodecError::Missing`]/[`CodecError::Invalid`] for absent or
    /// mistyped fields, and the embedded job and report codecs' errors
    /// unchanged.
    pub fn from_json(doc: &Json) -> Result<Self, CodecError> {
        doc.check_version("proto", PROTO_VERSION)?;
        Ok(match doc.str_field("type")? {
            "submit" => Frame::Submit {
                campaign: doc.str_field("campaign")?.to_string(),
                dir: doc.str_field("dir")?.to_string(),
                figures: doc
                    .arr_field("figures")?
                    .iter()
                    .map(|item| {
                        item.as_str().map(str::to_string).ok_or_else(|| {
                            CodecError::invalid("figures", "expected an array of strings")
                        })
                    })
                    .collect::<Result<_, _>>()?,
                accesses: doc.u64_field("accesses")?,
                workers: doc.u64_field("workers")?,
            },
            "attach" => Frame::Attach {
                campaign: doc.str_field("campaign")?.to_string(),
                since: doc.u64_field("since")?,
            },
            "status" => Frame::Status {
                campaign: doc.str_field("campaign")?.to_string(),
            },
            "accepted" => Frame::Accepted {
                campaign: doc.str_field("campaign")?.to_string(),
                resumed: doc.bool_field("resumed")?,
            },
            "event" => Frame::Event {
                seq: doc.u64_field("seq")?,
                what: doc.str_field("what")?.to_string(),
                detail: doc.str_field("detail")?.to_string(),
            },
            "done" => Frame::Done {
                ok: doc.bool_field("ok")?,
                message: doc.str_field("message")?.to_string(),
            },
            "reject" => Frame::Reject {
                message: doc.str_field("message")?.to_string(),
            },
            "job" => Frame::Job {
                id: doc.u64_field("id")?,
                job: Box::new(job_from_json(doc.field("job")?)?),
            },
            "job-result" => Frame::JobResult {
                id: doc.u64_field("id")?,
                report: Box::new(SimReport::from_json(doc.field("report")?)?),
            },
            "job-error" => Frame::JobError {
                id: doc.u64_field("id")?,
                message: doc.str_field("message")?.to_string(),
            },
            "heartbeat" => Frame::Heartbeat {
                id: doc.u64_field("id")?,
            },
            "exit" => Frame::Exit,
            other => {
                return Err(CodecError::invalid(
                    "type",
                    format!("unknown frame type '{other}'"),
                ))
            }
        })
    }
}

/// Reads typed frames off a byte stream. This is the protocol's hardened
/// entry point (a PANIC-002 root): nothing reachable from
/// [`FrameReader::next_frame`] may panic, because the bytes come from a
/// socket whose peer may be torn, stalled, malicious, or a fault
/// injector.
pub struct FrameReader<R> {
    inner: R,
}

impl<R: std::io::Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        FrameReader { inner }
    }

    /// Reads the next frame; `Ok(None)` is a clean end-of-stream at a
    /// frame boundary.
    ///
    /// # Errors
    ///
    /// [`CodecError`] for every torn, corrupt, unversioned, or
    /// unknown-typed input: [`maps_obs::read_frame`]'s errors, then
    /// [`Frame::from_json`]'s.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, CodecError> {
        match maps_obs::read_frame(&mut self.inner)? {
            Some(doc) => Frame::from_json(&doc).map(Some),
            None => Ok(None),
        }
    }
}

/// Writes one typed frame (and flushes).
///
/// # Errors
///
/// [`CodecError::Unsupported`] for unencodable jobs, [`CodecError::Io`]
/// for I/O failures.
pub fn send<W: std::io::Write>(w: &mut W, frame: &Frame) -> Result<(), CodecError> {
    let doc = frame.to_json()?;
    Ok(maps_obs::write_frame(w, &doc)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_sim::SimConfig;
    use maps_workloads::Benchmark;

    fn round_trip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        send(&mut buf, frame).expect("send");
        FrameReader::new(&buf[..])
            .next_frame()
            .expect("read")
            .expect("one frame")
    }

    #[test]
    fn control_frames_round_trip() {
        match round_trip(&Frame::Submit {
            campaign: "smoke".into(),
            dir: "/tmp/c".into(),
            figures: vec!["fig2".into(), "fig7".into()],
            accesses: 1200,
            workers: 3,
        }) {
            Frame::Submit {
                campaign,
                dir,
                figures,
                accesses,
                workers,
            } => {
                assert_eq!(campaign, "smoke");
                assert_eq!(dir, "/tmp/c");
                assert_eq!(figures, vec!["fig2".to_string(), "fig7".to_string()]);
                assert_eq!((accesses, workers), (1200, 3));
            }
            other => panic!("wrong frame: {other:?}"),
        }
        match round_trip(&Frame::Event {
            seq: 17,
            what: "point-done".into(),
            detail: "fig2/llc=2097152".into(),
        }) {
            Frame::Event { seq, what, .. } => {
                assert_eq!(seq, 17);
                assert_eq!(what, "point-done");
            }
            other => panic!("wrong frame: {other:?}"),
        }
        assert!(matches!(round_trip(&Frame::Exit), Frame::Exit));
    }

    #[test]
    fn job_frames_preserve_point_identity() {
        let job = maps_bench::SimJob::replay(
            "llc=2097152",
            SimConfig::paper_default(),
            Benchmark::Mcf,
            5_000,
        );
        let identity = job.identity();
        match round_trip(&Frame::Job {
            id: 9,
            job: Box::new(job),
        }) {
            Frame::Job { id, job } => {
                assert_eq!(id, 9);
                assert_eq!(job.identity(), identity);
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn version_and_type_mismatches_are_typed() {
        let doc = Json::Obj(vec![
            ("proto".into(), Json::UInt(99)),
            ("type".into(), Json::Str("exit".into())),
        ]);
        assert!(matches!(
            Frame::from_json(&doc),
            Err(CodecError::Version {
                field: "proto",
                got: 99,
                expected: PROTO_VERSION
            })
        ));
        let doc = Json::Obj(vec![
            ("proto".into(), Json::UInt(PROTO_VERSION)),
            ("type".into(), Json::Str("teleport".into())),
        ]);
        assert!(matches!(
            Frame::from_json(&doc),
            Err(CodecError::Invalid { field: "type", why }) if why.contains("'teleport'")
        ));
        assert!(matches!(
            Frame::from_json(&Json::Null),
            Err(CodecError::Missing("proto"))
        ));
    }

    #[test]
    fn torn_stream_is_a_typed_error() {
        let mut buf = Vec::new();
        send(&mut buf, &Frame::Exit).expect("send");
        buf.truncate(buf.len() - 2);
        let err = FrameReader::new(&buf[..])
            .next_frame()
            .expect_err("torn frame");
        assert!(matches!(err, CodecError::Truncated { .. }));
    }
}
