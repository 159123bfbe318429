//! Client side of the `maps-farmd` protocol: submit, attach, status.
//!
//! Campaigns outlive their clients. `submit` starts (or joins) a
//! campaign and follows its event stream; if the connection drops — the
//! daemon restarted, the terminal went away and came back — the client
//! reconnects with [`Frame::Attach`] carrying the first sequence number
//! it has *not* seen, so the resumed stream has no gaps and no
//! duplicates. Losing the daemon entirely is a typed error after a
//! bounded, seeded-backoff reconnect budget — never a hang.

use std::os::unix::net::UnixStream;
use std::path::Path;

use maps_bench::RetryPolicy;

use crate::proto::{send, Frame, FrameReader};
use crate::FarmError;

/// How a finished client interaction ended.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Whether the campaign completed without quarantined points.
    pub ok: bool,
    /// The daemon's summary (or failure) line.
    pub message: String,
}

/// Reconnect attempts before the client gives up on the daemon.
const RECONNECT_BUDGET: u32 = 10;

fn connect(socket: &Path) -> Result<UnixStream, FarmError> {
    UnixStream::connect(socket).map_err(|e| FarmError::io(socket.display().to_string(), e))
}

/// One request/stream exchange. Returns `Ok(None)` when the connection
/// died mid-stream (the caller reconnects) and the last seq seen via
/// `seen`.
fn stream_once(
    socket: &Path,
    request: &Frame,
    seen: &mut u64,
) -> Result<Option<StreamOutcome>, FarmError> {
    let mut stream = connect(socket)?;
    send(&mut stream, request)
        .map_err(|e| FarmError::parse(socket.display().to_string(), e.to_string()))?;
    let mut reader = FrameReader::new(stream);
    // The first frame decides whether the request was accepted at all.
    match reader.next_frame() {
        Ok(Some(Frame::Accepted { campaign, resumed })) => {
            if resumed && *seen == 0 {
                eprintln!("[farm] attached to running campaign '{campaign}'");
            }
        }
        Ok(Some(Frame::Reject { message })) => {
            return Err(FarmError::Usage(format!(
                "daemon rejected request: {message}"
            )))
        }
        Ok(Some(other)) => {
            return Err(FarmError::parse(
                socket.display().to_string(),
                format!("expected accepted/reject, got {other:?}"),
            ))
        }
        Ok(None) | Err(_) => return Ok(None),
    }
    loop {
        match reader.next_frame() {
            Ok(Some(Frame::Event { seq, what, detail })) => {
                if seq > *seen {
                    *seen = seq;
                    println!("[{seq}] {what}: {detail}");
                }
            }
            Ok(Some(Frame::Done { ok, message })) => {
                return Ok(Some(StreamOutcome { ok, message }))
            }
            Ok(Some(other)) => {
                eprintln!("[farm] ignoring unexpected frame {other:?}");
            }
            // Mid-stream loss: reconnect from *seen.
            Ok(None) | Err(_) => return Ok(None),
        }
    }
}

/// Follows a campaign's event stream to its terminal frame, reconnecting
/// across connection loss.
///
/// # Errors
///
/// [`FarmError::Io`] when the daemon stays unreachable past the
/// reconnect budget, [`FarmError::Usage`] when it rejects the request.
fn follow(
    socket: &Path,
    campaign: &str,
    first_request: Frame,
    mut seen: u64,
) -> Result<StreamOutcome, FarmError> {
    let policy = RetryPolicy::from_env(maps_bench::SEED);
    let mut request = first_request;
    let mut drops: u32 = 0;
    loop {
        match stream_once(socket, &request, &mut seen) {
            Ok(Some(outcome)) => return Ok(outcome),
            Ok(None) => {
                drops += 1;
                if drops > RECONNECT_BUDGET {
                    return Err(FarmError::Figure(format!(
                        "lost the daemon at {} after {drops} attempts (last seq {seen})",
                        socket.display()
                    )));
                }
                eprintln!(
                    "[farm] connection lost (seq {seen}); reconnecting (attempt {drops}/{RECONNECT_BUDGET})"
                );
                policy.back_off("farmd-reconnect", drops);
                request = Frame::Attach {
                    campaign: campaign.to_string(),
                    since: seen + 1,
                };
            }
            Err(e) => {
                // Connection refused right after a daemon restart is a
                // reconnectable condition too.
                if matches!(e, FarmError::Io { .. }) && drops > 0 && drops <= RECONNECT_BUDGET {
                    drops += 1;
                    policy.back_off("farmd-reconnect", drops);
                    continue;
                }
                return Err(e);
            }
        }
    }
}

/// Submits a campaign to the daemon and follows it to completion.
/// Returns the terminal outcome.
///
/// # Errors
///
/// [`FarmError::Io`] when the daemon stays unreachable past the
/// reconnect budget, [`FarmError::Usage`] when it rejects the request
/// (unknown figures included).
pub fn submit(
    socket: &Path,
    campaign: &str,
    dir: &Path,
    figures: &[String],
    accesses: u64,
    workers: u64,
) -> Result<StreamOutcome, FarmError> {
    let request = Frame::Submit {
        campaign: campaign.to_string(),
        dir: dir.display().to_string(),
        figures: figures.to_vec(),
        accesses,
        workers,
    };
    follow(socket, campaign, request, 0)
}

/// (Re-)attaches to a running campaign's event stream from `since` and
/// follows it to completion.
///
/// # Errors
///
/// As for [`submit`].
pub fn attach(socket: &Path, campaign: &str, since: u64) -> Result<StreamOutcome, FarmError> {
    let request = Frame::Attach {
        campaign: campaign.to_string(),
        since,
    };
    follow(socket, campaign, request, since.saturating_sub(1))
}

/// Asks the daemon for a one-shot status snapshot of a campaign.
///
/// # Errors
///
/// [`FarmError::Io`] when the daemon is unreachable, [`FarmError::Usage`]
/// when it does not know the campaign.
pub fn status(socket: &Path, campaign: &str) -> Result<StreamOutcome, FarmError> {
    let mut stream = connect(socket)?;
    let request = Frame::Status {
        campaign: campaign.to_string(),
    };
    send(&mut stream, &request)
        .map_err(|e| FarmError::parse(socket.display().to_string(), e.to_string()))?;
    let mut reader = FrameReader::new(stream);
    match reader.next_frame() {
        Ok(Some(Frame::Done { ok, message })) => Ok(StreamOutcome { ok, message }),
        Ok(Some(Frame::Reject { message })) => Err(FarmError::Usage(format!(
            "daemon rejected request: {message}"
        ))),
        Ok(Some(other)) => Err(FarmError::parse(
            socket.display().to_string(),
            format!("expected done/reject, got {other:?}"),
        )),
        Ok(None) => Err(FarmError::parse(
            socket.display().to_string(),
            "daemon closed the connection without answering".to_string(),
        )),
        Err(e) => Err(FarmError::parse(
            socket.display().to_string(),
            e.to_string(),
        )),
    }
}
