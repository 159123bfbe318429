//! `maps-farmd` — the supervised multi-process campaign daemon.
//!
//! The daemon listens on a Unix-domain socket for [`Frame::Submit`] /
//! [`Frame::Attach`] / [`Frame::Status`] requests and runs each accepted
//! campaign with the same driver topology as [`crate::run_campaign`] —
//! [`maps_bench::figures::drive`]: one [`FigureHost`] driver thread per
//! figure over a shared, checkpointed [`Farm`] queue — but executes the
//! points in **spawned worker processes** (`maps-farmd --worker`) instead
//! of in-process threads:
//!
//! * **Supervision.** One [`Supervisor`] per worker slot claims points
//!   with [`Farm::next_job`], ships them over a stdin pipe as
//!   [`Frame::Job`]s, and watches the worker's stdout for heartbeats. A
//!   worker that dies (SIGKILL, torn frame, nonzero exit) or misses its
//!   heartbeat deadline is killed and respawned, and the point re-enters
//!   the queue under the shared seeded-backoff [`RetryPolicy`] — or is
//!   quarantined once the budget runs out. When a slot cannot even
//!   respawn its worker, the pool degrades to the surviving slots; when
//!   the last slot retires, pending points fail typed instead of hanging.
//! * **Events.** Every campaign keeps a sequence-numbered in-memory event
//!   log. Clients stream it live; a disconnected client re-attaches with
//!   the first sequence number it has not seen and loses nothing.
//! * **Artifacts.** Figure drivers run in the daemon process, so the
//!   per-figure TSVs and manifests are the same [`FigureHost`] artifacts —
//!   byte-identical to a standalone run under `MAPS_DETERMINISTIC=1`.
//!   Quarantined points additionally land in a typed `failures.json`, and
//!   the supervision counters are appended to `campaign.json`.
//!
//! [`RetryPolicy`]: maps_bench::RetryPolicy

use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use maps_bench::figures::{drive, figure, FigureDef};
use maps_bench::{Farm, FigureHost, SimJob};
use maps_obs::{CodecError, Json};
use maps_sim::SimReport;

use crate::proto::{send, Frame, FrameReader};
use crate::run::write_plan;
use crate::supervision::Supervision;
use crate::FarmError;

/// How the daemon supervises its workers.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The Unix-domain socket to listen on.
    pub socket: PathBuf,
    /// Default worker-process count for submissions that leave it 0.
    pub workers: usize,
    /// Silence budget per claimed point before a worker is declared
    /// wedged and killed.
    pub heartbeat_timeout: Duration,
    /// Consecutive spawn failures before a worker slot retires.
    pub respawn_limit: u32,
}

impl DaemonConfig {
    /// A config with the given socket and environment-tunable defaults
    /// (`MAPS_FARMD_HEARTBEAT_TIMEOUT_MS`, default 5000).
    pub fn new(socket: PathBuf) -> Self {
        let timeout_ms = std::env::var("MAPS_FARMD_HEARTBEAT_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(5_000);
        DaemonConfig {
            socket,
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            heartbeat_timeout: Duration::from_millis(timeout_ms),
            respawn_limit: 3,
        }
    }
}

/// One campaign's terminal state.
#[derive(Debug, Clone)]
struct Finished {
    ok: bool,
    message: String,
}

/// The sequence-numbered event log one campaign accumulates. Events are
/// kept for the daemon's lifetime so a client can attach at any `since`.
struct EventLogInner {
    events: Vec<(String, String)>,
    finished: Option<Finished>,
}

struct EventLog {
    inner: Mutex<EventLogInner>,
    grew: Condvar,
}

impl EventLog {
    fn new() -> Self {
        EventLog {
            inner: Mutex::new(EventLogInner {
                events: Vec::new(),
                finished: None,
            }),
            grew: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EventLogInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn push(&self, what: &str, detail: &str) {
        let mut inner = self.lock();
        inner.events.push((what.to_string(), detail.to_string()));
        drop(inner);
        self.grew.notify_all();
    }

    fn finish(&self, ok: bool, message: String) {
        let mut inner = self.lock();
        inner.finished = Some(Finished { ok, message });
        drop(inner);
        self.grew.notify_all();
    }

    /// Blocks until there is something past `seen`: new events (returned
    /// with their 1-based sequence numbers) and/or the terminal state.
    fn wait_past(&self, seen: u64) -> (Vec<(u64, String, String)>, Option<Finished>) {
        let mut inner = self.lock();
        loop {
            if inner.events.len() as u64 > seen || inner.finished.is_some() {
                let fresh = inner
                    .events
                    .iter()
                    .enumerate()
                    .skip(seen as usize)
                    .map(|(i, (what, detail))| (i as u64 + 1, what.clone(), detail.clone()))
                    .collect();
                return (fresh, inner.finished.clone());
            }
            inner = self.grew.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// One campaign the daemon knows about.
struct CampaignHandle {
    name: String,
    dir: PathBuf,
    log: EventLog,
    respawns: AtomicU64,
    heartbeat_misses: AtomicU64,
    client_reconnects: AtomicU64,
}

impl CampaignHandle {
    fn new(name: &str, dir: PathBuf) -> Self {
        CampaignHandle {
            name: name.to_string(),
            dir,
            log: EventLog::new(),
            respawns: AtomicU64::new(0),
            heartbeat_misses: AtomicU64::new(0),
            client_reconnects: AtomicU64::new(0),
        }
    }

    fn running(&self) -> bool {
        self.log.lock().finished.is_none()
    }
}

/// Daemon-wide shared state: the campaign registry and the supervision
/// config.
struct DaemonState {
    cfg: DaemonConfig,
    campaigns: Mutex<Vec<Arc<CampaignHandle>>>,
}

impl DaemonState {
    fn find(&self, name: &str) -> Option<Arc<CampaignHandle>> {
        self.campaigns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .find(|c| c.name == name)
            .cloned()
    }
}

/// Binds the socket and serves requests until `accept` fails. Each
/// connection gets a handler thread; each submitted campaign gets a
/// runner thread plus its supervisor/driver pool.
///
/// # Errors
///
/// [`FarmError::Io`] when the socket cannot be bound.
pub fn serve(cfg: DaemonConfig) -> Result<(), FarmError> {
    let shown = cfg.socket.display().to_string();
    // A dead daemon leaves its socket file behind; a bind would fail on
    // it forever. Connectable means live — refuse to fight it.
    if cfg.socket.exists() {
        if UnixStream::connect(&cfg.socket).is_ok() {
            return Err(FarmError::Usage(format!(
                "a daemon is already listening on {shown}"
            )));
        }
        std::fs::remove_file(&cfg.socket).map_err(|e| FarmError::io(&shown, e))?;
    }
    let listener = UnixListener::bind(&cfg.socket).map_err(|e| FarmError::io(&shown, e))?;
    eprintln!("[farmd] listening on {shown} ({} workers)", cfg.workers);

    let state = Arc::new(DaemonState {
        cfg,
        campaigns: Mutex::new(Vec::new()),
    });
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let state = Arc::clone(&state);
                std::thread::spawn(move || handle_connection(&state, stream));
            }
            Err(e) => {
                eprintln!("[farmd] accept failed: {e}");
                return Ok(());
            }
        }
    }
}

/// Best-effort typed refusal; the connection closes after.
fn reject(stream: &mut UnixStream, message: String) {
    eprintln!("[farmd] rejecting request: {message}");
    let _ = send(stream, &Frame::Reject { message });
}

fn handle_connection(state: &DaemonState, mut stream: UnixStream) {
    // A client that connects and then stalls must not pin this handler
    // forever; streaming resets the deadline per frame sent.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let request = match FrameReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[farmd] cannot clone connection: {e}");
            return;
        }
    })
    .next_frame()
    {
        Ok(Some(frame)) => frame,
        Ok(None) => return,
        Err(e) => return reject(&mut stream, format!("bad request: {e}")),
    };

    match request {
        Frame::Submit {
            campaign,
            dir,
            figures,
            accesses,
            workers,
        } => handle_submit(state, stream, &campaign, &dir, &figures, accesses, workers),
        Frame::Attach { campaign, since } => {
            let Some(handle) = state.find(&campaign) else {
                return reject(&mut stream, format!("unknown campaign '{campaign}'"));
            };
            if since > 0 {
                handle.client_reconnects.fetch_add(1, Ordering::Relaxed);
                handle
                    .log
                    .push("client-reconnect", &format!("resuming from seq {since}"));
            }
            let accepted = Frame::Accepted {
                campaign,
                resumed: true,
            };
            if send(&mut stream, &accepted).is_ok() {
                stream_events(&handle, stream, since.saturating_sub(1));
            }
        }
        Frame::Status { campaign } => {
            let Some(handle) = state.find(&campaign) else {
                return reject(&mut stream, format!("unknown campaign '{campaign}'"));
            };
            let (ok, message) = match crate::campaign_status(&handle.dir) {
                Ok(status) => (true, status.render()),
                Err(e) => (false, format!("status unavailable: {e}")),
            };
            let _ = send(&mut stream, &Frame::Done { ok, message });
        }
        other => reject(&mut stream, format!("unexpected request frame {other:?}")),
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_submit(
    state: &DaemonState,
    mut stream: UnixStream,
    campaign: &str,
    dir: &str,
    figure_names: &[String],
    accesses: u64,
    workers: u64,
) {
    let defs: Vec<&'static FigureDef> = if figure_names.is_empty() {
        maps_bench::figures::FIGURES.iter().collect()
    } else {
        let mut defs = Vec::with_capacity(figure_names.len());
        for name in figure_names {
            match figure(name) {
                Some(def) => defs.push(def),
                None => return reject(&mut stream, format!("unknown figure '{name}'")),
            }
        }
        defs
    };

    let (handle, resumed) = {
        let mut campaigns = state.campaigns.lock().unwrap_or_else(|p| p.into_inner());
        match campaigns.iter().position(|c| c.name == campaign) {
            Some(i) if campaigns[i].running() => (Arc::clone(&campaigns[i]), true),
            found => {
                let fresh = Arc::new(CampaignHandle::new(campaign, PathBuf::from(dir)));
                match found {
                    Some(i) => campaigns[i] = Arc::clone(&fresh),
                    None => campaigns.push(Arc::clone(&fresh)),
                }
                (fresh, false)
            }
        }
    };

    if !resumed {
        if accesses > 0 {
            // Campaign-wide point sizing, as the standalone CLI reads it.
            // Process-global: concurrent campaigns share the last value.
            std::env::set_var("MAPS_ACCESSES", accesses.to_string());
        }
        let cfg = state.cfg.clone();
        let worker_count = if workers > 0 {
            workers as usize
        } else {
            cfg.workers
        };
        let runner = Arc::clone(&handle);
        std::thread::spawn(move || {
            let outcome = run_supervised(&runner, &defs, worker_count, &cfg);
            match outcome {
                Ok(message) => runner.log.finish(true, message),
                Err(e) => runner.log.finish(false, e.to_string()),
            }
        });
    }

    let accepted = Frame::Accepted {
        campaign: campaign.to_string(),
        resumed,
    };
    if send(&mut stream, &accepted).is_ok() {
        stream_events(&handle, stream, 0);
    }
}

/// Streams events past `seen` until the campaign finishes or the client
/// goes away (which detaches the client, never the campaign).
fn stream_events(handle: &CampaignHandle, mut stream: UnixStream, mut seen: u64) {
    loop {
        let (fresh, finished) = handle.log.wait_past(seen);
        for (seq, what, detail) in fresh {
            seen = seq;
            if send(&mut stream, &Frame::Event { seq, what, detail }).is_err() {
                return;
            }
        }
        if let Some(done) = finished {
            let _ = send(
                &mut stream,
                &Frame::Done {
                    ok: done.ok,
                    message: done.message,
                },
            );
            return;
        }
    }
}

/// Runs one campaign with supervised worker processes. Returns the
/// summary line for the terminal [`Frame::Done`].
fn run_supervised(
    handle: &Arc<CampaignHandle>,
    figures: &[&'static FigureDef],
    workers: usize,
    cfg: &DaemonConfig,
) -> Result<String, FarmError> {
    let dir = handle.dir.clone();
    let plan = write_plan(&handle.name, figures, &dir)?;
    handle.log.push(
        "campaign-start",
        &format!(
            "{} figures, {} unique points, {} workers",
            figures.len(),
            plan.points.len(),
            workers.max(1)
        ),
    );

    let farm = Farm::new(
        &handle.name,
        plan.identity_fingerprint(),
        dir.join("campaign.ckpt"),
    );
    let worker_count = workers.max(1);
    let active = AtomicUsize::new(worker_count);
    let hosts = figures
        .iter()
        .map(|&def| (def, FigureHost::campaign(def.name, &farm, &dir)))
        .collect();
    // The supervisors are the executor; a panicking one fails the scope
    // and so the campaign.
    let supervise = || {
        std::thread::scope(|s| {
            for slot in 0..worker_count {
                let sup = Supervisor {
                    farm: &farm,
                    handle,
                    cfg,
                    active: &active,
                    slot,
                };
                s.spawn(move || sup.supervise());
            }
        });
    };
    let mut failures: Vec<String> = Vec::new();
    for outcome in drive(&farm, hosts, supervise) {
        match outcome {
            Ok(name) => handle.log.push("figure-done", name),
            Err(msg) => {
                handle.log.push("figure-failed", &msg);
                failures.push(msg);
            }
        }
    }

    let stats = farm.stats();
    let quarantined = farm.failures();
    write_failure_report(handle, &plan, &quarantined)?;
    let supervision = Supervision {
        respawns: handle.respawns.load(Ordering::Relaxed),
        retries: stats.retries,
        quarantined: quarantined.len() as u64,
        heartbeat_misses: handle.heartbeat_misses.load(Ordering::Relaxed),
        client_reconnects: handle.client_reconnects.load(Ordering::Relaxed),
    };
    write_supervision(&dir, &supervision)?;

    if failures.is_empty() {
        farm.remove_checkpoint()
            .map_err(|e| FarmError::io(dir.join("campaign.ckpt").display().to_string(), e))?;
        let message = format!(
            "campaign '{}' complete: {} computed, {} restored, {} deduplicated; \
             {} respawns, {} retries, {} heartbeat misses",
            handle.name,
            stats.computed,
            stats.restored,
            stats.deduplicated,
            supervision.respawns,
            supervision.retries,
            supervision.heartbeat_misses,
        );
        handle.log.push("campaign-done", &message);
        Ok(message)
    } else {
        let message = format!(
            "campaign '{}' failed ({} point(s) quarantined — see failures.json): {}",
            handle.name,
            quarantined.len(),
            failures.join("; ")
        );
        handle.log.push("campaign-failed", &message);
        Err(FarmError::Figure(message))
    }
}

/// Writes the typed per-figure failure report for quarantined points
/// (removing a stale one when the campaign is clean).
fn write_failure_report(
    handle: &CampaignHandle,
    plan: &crate::CampaignPlan,
    quarantined: &[(u64, u32, String)],
) -> Result<(), FarmError> {
    let path = handle.dir.join("failures.json");
    let shown = path.display().to_string();
    if quarantined.is_empty() {
        return match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(FarmError::io(&shown, e)),
        };
    }
    let entries: Vec<Json> = quarantined
        .iter()
        .map(|(fp, attempts, error)| {
            let planned = plan.points.iter().find(|p| p.fingerprint == *fp);
            Json::Obj(vec![
                ("fingerprint".to_string(), Json::Str(format!("{fp:016x}"))),
                (
                    "figure".to_string(),
                    Json::Str(planned.map_or(String::new(), |p| p.figure.clone())),
                ),
                (
                    "phase".to_string(),
                    Json::Str(planned.map_or(String::new(), |p| p.phase.clone())),
                ),
                (
                    "key".to_string(),
                    Json::Str(planned.map_or(String::new(), |p| p.job.key.clone())),
                ),
                ("attempts".to_string(), Json::UInt(u64::from(*attempts))),
                ("error".to_string(), Json::Str(error.clone())),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("schema_version".to_string(), Json::UInt(1)),
        (
            "kind".to_string(),
            Json::Str("maps-farm-failures".to_string()),
        ),
        ("campaign".to_string(), Json::Str(handle.name.clone())),
        ("failures".to_string(), Json::Arr(entries)),
    ]);
    maps_obs::write_atomic(&path, doc.to_pretty().as_bytes()).map_err(|e| FarmError::io(&shown, e))
}

/// Appends (or replaces) the supervision block in `campaign.json`.
fn write_supervision(dir: &Path, sup: &Supervision) -> Result<(), FarmError> {
    let path = dir.join("campaign.json");
    let shown = path.display().to_string();
    let text = std::fs::read_to_string(&path).map_err(|e| FarmError::io(&shown, e))?;
    let doc = Json::parse(&text).map_err(|e| FarmError::parse(&shown, e.to_string()))?;
    let Json::Obj(mut fields) = doc else {
        return Err(FarmError::parse(&shown, "not an object".to_string()));
    };
    fields.retain(|(k, _)| k != "supervision");
    fields.push(("supervision".to_string(), sup.to_json()));
    maps_obs::write_atomic(&path, Json::Obj(fields).to_pretty().as_bytes())
        .map_err(|e| FarmError::io(&shown, e))
}

/// What one worker pass over a claimed point produced.
enum Outcome {
    /// A result frame: the point is done.
    Done(Box<SimReport>),
    /// A `JobError` frame: the point failed but the worker is healthy.
    JobFailed(String),
    /// The worker is gone or wedged; `heartbeat_miss` marks a deadline
    /// expiry (vs. death detected by the pipe).
    WorkerLost { why: String, heartbeat_miss: bool },
}

/// What the reader thread forwards off a worker's stdout.
enum WorkerMsg {
    Frame(Frame),
    Malformed(CodecError),
    Eof,
}

/// One live worker process.
struct WorkerProc {
    child: Child,
    stdin: ChildStdin,
    rx: Receiver<WorkerMsg>,
}

impl WorkerProc {
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One worker slot's supervision loop: claim a point, keep a worker
/// alive, run the point, resolve it. [`Supervisor::supervise`] is a
/// PANIC-002 root — nothing reachable from it may panic, because it keeps
/// running across worker deaths, torn frames, and checkpoint writes.
struct Supervisor<'a> {
    farm: &'a Farm,
    handle: &'a CampaignHandle,
    cfg: &'a DaemonConfig,
    active: &'a AtomicUsize,
    slot: usize,
}

impl Supervisor<'_> {
    /// Drains the farm queue through this slot's worker process until the
    /// farm closes or the slot retires.
    fn supervise(&self) {
        let mut worker: Option<WorkerProc> = None;
        let mut spawn_failures: u32 = 0;
        let mut job_ids = (self.slot as u64) << 32;
        while let Some((fp, job)) = self.farm.next_job() {
            job_ids += 1;
            let id = job_ids;
            if worker.is_none() {
                match self.respawn(&mut spawn_failures) {
                    Some(proc_) => worker = Some(proc_),
                    None => {
                        // Slot retired: hand the claim back and, if this
                        // was the last slot, fail what remains typed.
                        self.farm.requeue(fp, job);
                        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
                            let msg = "worker pool fully degraded: no slot can spawn a worker";
                            self.handle.log.push("campaign-degraded", msg);
                            self.farm.fail_pending(msg);
                        }
                        return;
                    }
                }
            }
            let outcome = match worker.as_mut() {
                Some(proc_) => run_job_on(proc_, id, &job, self.cfg.heartbeat_timeout),
                None => Outcome::WorkerLost {
                    why: "no worker".to_string(),
                    heartbeat_miss: false,
                },
            };
            match outcome {
                Outcome::Done(report) => {
                    self.farm.complete(fp, &job.key, *report);
                    self.handle.log.push("point-done", &job.key);
                }
                Outcome::JobFailed(msg) => self.retry_or_quarantine(fp, job, &msg),
                Outcome::WorkerLost {
                    why,
                    heartbeat_miss,
                } => {
                    if heartbeat_miss {
                        self.handle.heartbeat_misses.fetch_add(1, Ordering::Relaxed);
                        self.handle.log.push("heartbeat-miss", &job.key);
                    }
                    if let Some(proc_) = worker.take() {
                        proc_.kill();
                    }
                    self.handle.respawns.fetch_add(1, Ordering::Relaxed);
                    self.handle
                        .log
                        .push("worker-respawn", &format!("slot {}: {why}", self.slot));
                    self.retry_or_quarantine(fp, job, &why);
                }
            }
        }
        if let Some(mut proc_) = worker.take() {
            let _ = send(&mut proc_.stdin, &Frame::Exit);
            let _ = proc_.child.wait();
        }
    }

    /// Spawns a worker, backing off between attempts; `None` when the
    /// slot has exhausted its respawn budget.
    fn respawn(&self, spawn_failures: &mut u32) -> Option<WorkerProc> {
        loop {
            match spawn_worker() {
                Ok(proc_) => {
                    *spawn_failures = 0;
                    return Some(proc_);
                }
                Err(why) => {
                    *spawn_failures += 1;
                    self.handle
                        .log
                        .push("worker-spawn-failed", &format!("slot {}: {why}", self.slot));
                    if *spawn_failures > self.cfg.respawn_limit {
                        self.handle.log.push(
                            "worker-degraded",
                            &format!(
                                "slot {} retired after {} spawn failures",
                                self.slot, spawn_failures
                            ),
                        );
                        return None;
                    }
                    self.farm.policy().back_off("farmd-spawn", *spawn_failures);
                }
            }
        }
    }

    /// Counts a failed attempt against the point's retry budget: requeue
    /// after a seeded backoff, or quarantine.
    fn retry_or_quarantine(&self, fp: u64, job: SimJob, msg: &str) {
        match self.farm.fail_attempt(fp, &job.key, msg) {
            Some(attempt) => {
                self.handle
                    .log
                    .push("point-retry", &format!("{} (attempt {attempt})", job.key));
                self.farm.policy().back_off(&job.key, attempt);
                self.farm.requeue(fp, job);
            }
            None => {
                self.handle.log.push("point-quarantined", &job.key);
            }
        }
    }
}

/// Spawns one `maps-farmd --worker` child with piped stdin/stdout and a
/// reader thread forwarding its frames.
fn spawn_worker() -> Result<WorkerProc, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut child = Command::new(exe)
        .arg("--worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn failed: {e}"))?;
    let stdin = match child.stdin.take() {
        Some(stdin) => stdin,
        None => {
            let _ = child.kill();
            return Err("worker has no stdin pipe".to_string());
        }
    };
    let stdout = match child.stdout.take() {
        Some(stdout) => stdout,
        None => {
            let _ = child.kill();
            return Err("worker has no stdout pipe".to_string());
        }
    };
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let mut reader = FrameReader::new(stdout);
        loop {
            let msg = match reader.next_frame() {
                Ok(Some(frame)) => WorkerMsg::Frame(frame),
                Ok(None) => {
                    let _ = tx.send(WorkerMsg::Eof);
                    return;
                }
                Err(e) => {
                    let _ = tx.send(WorkerMsg::Malformed(e));
                    return;
                }
            };
            if tx.send(msg).is_err() {
                return;
            }
        }
    });
    Ok(WorkerProc { child, stdin, rx })
}

/// Ships one job to a worker and waits for its resolution, treating
/// heartbeat silence past the deadline as a wedged worker.
fn run_job_on(proc_: &mut WorkerProc, id: u64, job: &SimJob, deadline: Duration) -> Outcome {
    let frame = Frame::Job {
        id,
        job: Box::new(job.clone()),
    };
    if let Err(e) = send(&mut proc_.stdin, &frame) {
        return Outcome::WorkerLost {
            why: format!("job write failed: {e}"),
            heartbeat_miss: false,
        };
    }
    let _ = proc_.stdin.flush();
    loop {
        match proc_.rx.recv_timeout(deadline) {
            Ok(WorkerMsg::Frame(Frame::Heartbeat { .. })) => {}
            Ok(WorkerMsg::Frame(Frame::JobResult { id: got, report })) if got == id => {
                return Outcome::Done(report);
            }
            Ok(WorkerMsg::Frame(Frame::JobError { id: got, message })) if got == id => {
                return Outcome::JobFailed(message);
            }
            Ok(WorkerMsg::Frame(other)) => {
                return Outcome::WorkerLost {
                    why: format!("worker sent an out-of-protocol frame: {other:?}"),
                    heartbeat_miss: false,
                };
            }
            Ok(WorkerMsg::Malformed(e)) => {
                return Outcome::WorkerLost {
                    why: format!("worker stream corrupt: {e}"),
                    heartbeat_miss: false,
                };
            }
            Ok(WorkerMsg::Eof) | Err(RecvTimeoutError::Disconnected) => {
                return Outcome::WorkerLost {
                    why: "worker died mid-point".to_string(),
                    heartbeat_miss: false,
                };
            }
            Err(RecvTimeoutError::Timeout) => {
                return Outcome::WorkerLost {
                    why: format!("heartbeat deadline ({deadline:?}) missed"),
                    heartbeat_miss: true,
                };
            }
        }
    }
}
