//! End-to-end daemon robustness: campaigns executed through `maps-farmd`
//! with injected worker faults must produce artifacts byte-identical to
//! the standalone figure path, quarantine unrecoverable points in a typed
//! report, resume across a daemon crash from `campaign.ckpt`, and stream
//! a gapless event sequence to clients that detach and re-attach; a
//! hostile request frame must be refused without taking the daemon down.
//!
//! Each test spawns its own daemon on its own socket in its own temp
//! directory, so the scenarios are independent. The standalone reference
//! runs mutate process environment (`MAPS_ACCESSES`,
//! `MAPS_DETERMINISTIC`), but every test sets the *same* values, so the
//! shared-environment race between parallel tests is harmless.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use maps_bench::figures::figure;
use maps_bench::RunContext;
use maps_farm::proto::{send, Frame, FrameReader};
use maps_obs::FRAME_MAGIC;

const ACCESSES: &str = "800";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("maps-farmd-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs a figure driver through the standalone path
/// ([`maps_bench::figures::run_standalone`], the exact code the
/// `fig2`/`fig7` binaries run) with artifacts in `dir`.
fn run_standalone(name: &str, dir: &Path) {
    std::env::set_var("MAPS_ACCESSES", ACCESSES);
    std::env::set_var("MAPS_DETERMINISTIC", "1");
    let def = figure(name).expect("figure registered");
    let ctx = RunContext::with_paths(
        name,
        dir.join(format!("{name}.manifest.json")),
        Some(dir.join(format!("{name}.tsv"))),
    );
    maps_bench::figures::run_standalone(def, ctx, dir.join(format!("{name}.ckpt")))
        .expect("standalone run");
}

/// A child process that is killed (not leaked) when the test panics.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `maps-farmd` on `socket` with the given extra environment and
/// waits until the socket accepts connections.
fn spawn_daemon(socket: &Path, env: &[(&str, &str)]) -> KillOnDrop {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_maps-farmd"));
    cmd.arg("--socket")
        .arg(socket)
        .env("MAPS_ACCESSES", ACCESSES)
        .env("MAPS_DETERMINISTIC", "1")
        .env_remove("MAPS_CRASH_AFTER_POINTS")
        .env_remove("MAPS_POINT_RETRIES");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let child = KillOnDrop(cmd.spawn().expect("spawn maps-farmd"));
    let deadline = Instant::now() + Duration::from_secs(20);
    while UnixStream::connect(socket).is_err() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
    child
}

/// A `maps-farm` invocation with the campaign environment set.
fn farm_cmd(dir: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_maps-farm"));
    cmd.args(args)
        .arg("--dir")
        .arg(dir)
        .env("MAPS_ACCESSES", ACCESSES)
        .env("MAPS_DETERMINISTIC", "1")
        .env_remove("MAPS_CRASH_AFTER_POINTS");
    cmd
}

/// Same, aimed at a daemon socket.
fn client_cmd(socket: &Path, dir: &Path, args: &[&str]) -> Command {
    let mut cmd = farm_cmd(dir, args);
    cmd.arg("--socket").arg(socket);
    cmd
}

fn supervision_of(dir: &Path) -> maps_farm::Supervision {
    maps_farm::load_campaign(&dir.join("campaign.json"))
        .expect("campaign.json readable")
        .supervision
        .expect("supervision block recorded")
}

/// The acceptance scenario: each worker slot is SIGKILLed at one seeded
/// point, wedged (heartbeat silence) at another, and tears a result
/// frame at a third — and the fig2+fig7 campaign must still complete
/// with artifacts byte-identical to the standalone figure path.
#[test]
fn campaign_with_sigkilled_workers_matches_standalone_byte_for_byte() {
    let standalone = tmp_dir("sigkill-standalone");
    run_standalone("fig2", &standalone);
    run_standalone("fig7", &standalone);

    let dir = tmp_dir("sigkill-farm");
    let socket = dir.join("farmd.sock");
    let _daemon = spawn_daemon(
        &socket,
        &[
            ("MAPS_FARMD_FAULT_KILL_AT", "13"),
            ("MAPS_FARMD_FAULT_STALL_AT", "29"),
            ("MAPS_FARMD_FAULT_TORN_AT", "41"),
            ("MAPS_FARMD_HEARTBEAT_MS", "50"),
            ("MAPS_FARMD_HEARTBEAT_TIMEOUT_MS", "1500"),
            ("MAPS_POINT_RETRIES", "6"),
        ],
    );

    let out = client_cmd(
        &socket,
        &dir,
        &[
            "submit",
            "--campaign",
            "sigkill",
            "--figures",
            "fig2,fig7",
            "--workers",
            "2",
        ],
    )
    .output()
    .expect("run maps-farm submit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "submit failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("worker-respawn"),
        "the fault injection respawned workers: {stdout}"
    );
    assert!(stdout.contains("campaign-done"), "{stdout}");

    for name in ["fig2", "fig7"] {
        for suffix in ["tsv", "manifest.json"] {
            assert_eq!(
                read(&dir.join(format!("{name}.{suffix}"))),
                read(&standalone.join(format!("{name}.{suffix}"))),
                "{name}.{suffix}: daemon and standalone artifacts differ"
            );
        }
    }
    assert!(
        !dir.join("campaign.ckpt").exists(),
        "completed campaign removes its checkpoint"
    );
    assert!(
        !dir.join("failures.json").exists(),
        "a recovered campaign leaves no failure report"
    );

    // Two slots, three process-terminal faults each: six worker losses.
    let sup = supervision_of(&dir);
    assert!(sup.respawns >= 3, "respawns recorded: {sup:?}");
    assert!(sup.heartbeat_misses >= 1, "the stall was caught: {sup:?}");
    assert_eq!(sup.quarantined, 0, "{sup:?}");

    // The daemon-side status snapshot renders the supervision counters.
    // (`--socket` status takes no `--dir`: the daemon knows the campaign.)
    let status = Command::new(env!("CARGO_BIN_EXE_maps-farm"))
        .args(["status", "--campaign", "sigkill", "--socket"])
        .arg(&socket)
        .output()
        .expect("run maps-farm status");
    assert!(
        status.status.success(),
        "{}",
        String::from_utf8_lossy(&status.stderr)
    );
    let text = String::from_utf8_lossy(&status.stdout);
    assert!(text.contains("supervision:"), "{text}");
    assert!(text.contains("figures complete: 2/2"), "{text}");

    std::fs::remove_dir_all(&standalone).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A point poisoned past its retry budget is quarantined into a typed
/// `failures.json` while every other point completes.
#[test]
fn poisoned_point_is_quarantined_while_the_rest_completes() {
    // Plan once (standalone) to learn the point keys, then poison one
    // that no other key contains, so exactly one point is hit.
    let plan_dir = tmp_dir("poison-plan");
    let out = farm_cmd(&plan_dir, &["plan", "--figures", "fig2"])
        .output()
        .expect("run maps-farm plan");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = maps_farm::load_campaign(&plan_dir.join("campaign.json")).expect("plan written");
    let keys: Vec<&str> = doc.points.iter().map(|(_, _, _, k)| k.as_str()).collect();
    let poison = *keys
        .iter()
        .find(|k| keys.iter().filter(|o| o.contains(**k)).count() == 1)
        .expect("a key no other key contains");
    let total = keys.len();

    let dir = tmp_dir("poison-farm");
    let socket = dir.join("farmd.sock");
    let _daemon = spawn_daemon(
        &socket,
        &[
            ("MAPS_FARMD_FAULT_PANIC_KEY", poison),
            ("MAPS_POINT_RETRIES", "1"),
        ],
    );

    let out = client_cmd(
        &socket,
        &dir,
        &[
            "submit",
            "--campaign",
            "poison",
            "--figures",
            "fig2",
            "--workers",
            "2",
        ],
    )
    .output()
    .expect("run maps-farm submit");
    assert!(
        !out.status.success(),
        "a quarantined point must fail the campaign"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("point-quarantined"), "{stdout}");
    assert!(stdout.contains("failures.json"), "{stdout}");
    assert_eq!(
        stdout.matches("point-done").count(),
        total - 1,
        "every unpoisoned point completes: {stdout}"
    );

    let failures = String::from_utf8(read(&dir.join("failures.json"))).expect("utf8");
    assert!(failures.contains("maps-farm-failures"), "{failures}");
    assert!(failures.contains(poison), "{failures}");
    assert!(failures.contains("injected fault"), "{failures}");

    let sup = supervision_of(&dir);
    assert_eq!(sup.quarantined, 1, "{sup:?}");
    assert!(sup.retries >= 1, "the budget was spent first: {sup:?}");

    std::fs::remove_dir_all(&plan_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A daemon that dies mid-campaign resumes from `campaign.ckpt` on
/// restart instead of recomputing, and still matches the standalone path.
#[test]
fn daemon_crash_resumes_from_checkpoint() {
    let standalone = tmp_dir("resume-standalone");
    run_standalone("fig2", &standalone);

    let dir = tmp_dir("resume-farm");
    let socket = dir.join("farmd.sock");
    // Phase 1: the daemon kills itself right after the 40th point lands
    // in the checkpoint (a deterministic stand-in for `kill -9 farmd`).
    let mut daemon = spawn_daemon(&socket, &[("MAPS_CRASH_AFTER_POINTS", "40")]);
    let mut client = client_cmd(
        &socket,
        &dir,
        &[
            "submit",
            "--campaign",
            "resume",
            "--figures",
            "fig2",
            "--workers",
            "2",
        ],
    )
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn maps-farm submit");
    let status = daemon.0.wait().expect("wait for daemon");
    assert_eq!(status.code(), Some(42), "daemon crashed on schedule");
    let _ = client.kill();
    let _ = client.wait();
    assert!(
        dir.join("campaign.ckpt").exists(),
        "the crash left a checkpoint behind"
    );

    // Phase 2: a fresh daemon on the same (now stale) socket; the same
    // submission restores the checkpointed points and finishes.
    let _daemon = spawn_daemon(&socket, &[]);
    let out = client_cmd(
        &socket,
        &dir,
        &[
            "submit",
            "--campaign",
            "resume",
            "--figures",
            "fig2",
            "--workers",
            "2",
        ],
    )
    .output()
    .expect("rerun maps-farm submit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "resumed submit failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let restored: u64 = stdout
        .split(" restored")
        .next()
        .and_then(|t| t.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no restored count in: {stdout}"));
    assert!(
        restored >= 40,
        "checkpoint was restored, not recomputed: {stdout}"
    );

    for suffix in ["tsv", "manifest.json"] {
        assert_eq!(
            read(&dir.join(format!("fig2.{suffix}"))),
            read(&standalone.join(format!("fig2.{suffix}"))),
            "fig2.{suffix}: resumed and standalone artifacts differ"
        );
    }
    assert!(!dir.join("campaign.ckpt").exists());

    std::fs::remove_dir_all(&standalone).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Reads frames off `reader` into `seqs` until `stop` says to detach (or
/// the campaign finishes). Returns the terminal frame if one arrived.
fn drain_events(
    reader: &mut FrameReader<UnixStream>,
    seqs: &mut Vec<u64>,
    mut stop: impl FnMut(&[u64]) -> bool,
) -> Option<Frame> {
    loop {
        match reader.next_frame().expect("event stream stays well-formed") {
            Some(Frame::Event { seq, .. }) => {
                seqs.push(seq);
                if stop(seqs) {
                    return None;
                }
            }
            Some(done @ Frame::Done { .. }) => return Some(done),
            Some(other) => panic!("unexpected frame mid-stream: {other:?}"),
            None => return None,
        }
    }
}

/// A client that detaches mid-campaign and re-attaches with the first
/// sequence number it has not seen observes a gapless, duplicate-free
/// event stream; stalled workers are detected by heartbeat and respawned.
#[test]
fn detached_client_reattaches_without_event_loss() {
    let dir = tmp_dir("reattach-farm");
    let socket = dir.join("farmd.sock");
    let _daemon = spawn_daemon(
        &socket,
        &[
            // Each worker slot wedges silently at its 60th job: the
            // heartbeat deadline, not the pipe, must catch it.
            ("MAPS_FARMD_FAULT_STALL_AT", "60"),
            ("MAPS_FARMD_HEARTBEAT_MS", "50"),
            ("MAPS_FARMD_HEARTBEAT_TIMEOUT_MS", "1200"),
            ("MAPS_POINT_RETRIES", "4"),
        ],
    );

    // Submit over the raw protocol so the disconnect point is ours.
    let mut stream = UnixStream::connect(&socket).expect("connect");
    send(
        &mut stream,
        &Frame::Submit {
            campaign: "reattach".to_string(),
            dir: dir.display().to_string(),
            figures: vec!["fig2".to_string()],
            accesses: 0,
            workers: 2,
        },
    )
    .expect("submit frame");
    let mut reader = FrameReader::new(stream.try_clone().expect("clone"));
    match reader.next_frame().expect("accept frame") {
        Some(Frame::Accepted { resumed, .. }) => assert!(!resumed),
        other => panic!("expected accepted, got {other:?}"),
    }
    let mut seqs = Vec::new();
    drain_events(&mut reader, &mut seqs, |seen| seen.len() >= 5);
    drop(reader);
    drop(stream); // Detach mid-campaign; the daemon keeps running it.

    let last = *seqs.last().expect("saw events before detaching");
    let mut stream = UnixStream::connect(&socket).expect("reconnect");
    send(
        &mut stream,
        &Frame::Attach {
            campaign: "reattach".to_string(),
            since: last + 1,
        },
    )
    .expect("attach frame");
    let mut reader = FrameReader::new(stream);
    match reader.next_frame().expect("accept frame") {
        Some(Frame::Accepted { resumed, .. }) => assert!(resumed, "attach joins the campaign"),
        other => panic!("expected accepted, got {other:?}"),
    }
    let done = drain_events(&mut reader, &mut seqs, |_| false).expect("campaign finishes");
    let Frame::Done { ok, message } = done else {
        unreachable!()
    };
    assert!(ok, "campaign failed: {message}");

    // The two connections together saw exactly 1..=max, no gaps, no dups.
    let max = *seqs.iter().max().expect("events");
    let expected: Vec<u64> = (1..=max).collect();
    assert_eq!(seqs, expected, "event stream has gaps or duplicates");

    let sup = supervision_of(&dir);
    assert!(
        sup.heartbeat_misses >= 1,
        "the stall tripped the deadline: {sup:?}"
    );
    assert!(sup.respawns >= 1, "{sup:?}");
    assert!(
        sup.client_reconnects >= 1,
        "the re-attach was counted: {sup:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A request nesting 10,000 arrays deep would overflow the JSON parser's
/// stack on the connection thread, which aborts the whole daemon; it must
/// be refused like any other malformed request, and the daemon must keep
/// answering.
#[test]
fn deeply_nested_request_is_rejected_and_the_daemon_survives() {
    let dir = tmp_dir("deep-request");
    let socket = dir.join("farmd.sock");
    let _daemon = spawn_daemon(&socket, &[]);

    let payload = [b'['; 10_000];
    let mut frame = FRAME_MAGIC.to_vec();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream.write_all(&frame).expect("hostile frame");
    match FrameReader::new(stream).next_frame() {
        Ok(Some(Frame::Reject { message })) => assert!(message.contains("nesting"), "{message}"),
        other => panic!("expected a reject, got {other:?}"),
    }

    let mut stream = UnixStream::connect(&socket).expect("daemon still listening");
    send(
        &mut stream,
        &Frame::Status {
            campaign: "absent".to_string(),
        },
    )
    .expect("status frame");
    match FrameReader::new(stream).next_frame() {
        Ok(Some(Frame::Reject { message })) => {
            assert!(message.contains("unknown campaign"), "{message}")
        }
        other => panic!("expected a reject, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
