//! The sweep-point queue: the one executor behind every figure run.
//!
//! [`Farm`] owns every sweep point of a run — one figure binary or a
//! whole `maps-farm` campaign — keyed by [`point_fingerprint`]. Figure
//! drivers submit their phases from their own threads and block until
//! the points resolve; a worker pool drains the queue. Submitting a
//! fingerprint the farm already knows — queued, running, or done — never
//! schedules a second simulation: the submitter simply waits on (or
//! immediately receives) the one result.
//!
//! Every newly computed point is committed to the run's checkpoint
//! journal ([`CheckpointJournal`]) under `pt/<fingerprint>` *before*
//! waiters are woken, so a kill at any instant loses at most the points
//! still in flight. A commit appends one record and rewrites the header's
//! point count, both synced, so its cost does not grow with the points
//! already stored. It holds the journal's own lock, not the queue's state
//! lock, so other workers keep claiming and publishing points meanwhile.
//! Re-creating the farm with the same name and identity restores finished
//! points bit-exactly ([`maps_sim::SimReport`]'s JSON codec stores floats
//! as raw IEEE-754 bits) and re-simulates only the rest; points whose
//! fingerprint changed (different `MAPS_ACCESSES`, configuration or
//! build) simply find nothing to restore. A checkpoint that cannot be
//! used — another campaign's, an older schema version, or unreadable — is
//! replaced by a fresh one, and the farm says why on stderr.
//!
//! Environment knobs (all off by default):
//!
//! * `MAPS_POINT_RETRIES=<n>` — retry a panicking point up to `n` times
//!   (default 1) under the shared seeded-backoff [`RetryPolicy`], then
//!   quarantine it: waiters get a typed error.
//! * `MAPS_POINT_TIMEOUT_SECS=<n>` — watchdog of the in-process
//!   [`Farm::worker_loop`]: a point running longer than `n` seconds exits
//!   the process with status 3, leaving the checkpoint intact so a
//!   re-invocation retries only the stuck point. Threads cannot be killed
//!   safely in Rust, so exiting the process *is* the bounded-hang
//!   recovery story.
//! * `MAPS_CRASH_AFTER_POINTS=<n>` — fault-injection hook: exit with
//!   status 42 immediately after the `n`-th newly computed point has been
//!   committed, still inside the commit section, so the checkpoint holds
//!   exactly `n` new points (drives the kill/resume equivalence tests).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use maps_obs::{Checkpoint, CheckpointJournal};
use maps_sim::SimReport;
use maps_trace::DetHashMap;

use crate::{point_fingerprint, BenchError, RetryPolicy, SimJob};

/// Where one fingerprint stands in the run.
#[derive(Debug, Clone)]
enum PointState {
    /// Waiting in the queue.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished; the report is shared with every submitter.
    Done(Box<SimReport>),
    /// Panicked past its retry budget.
    Failed(String),
}

/// Run-level work accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Points simulated by this process.
    pub computed: u64,
    /// Points restored bit-exactly from the checkpoint.
    pub restored: u64,
    /// Submissions that mapped onto an already-known fingerprint.
    pub deduplicated: u64,
    /// Points that failed past their retry budget (quarantined).
    pub failed: u64,
    /// Failed attempts that were retried under the backoff policy.
    pub retries: u64,
}

struct FarmInner {
    states: DetHashMap<u64, PointState>,
    queue: VecDeque<(u64, SimJob)>,
    attempts: DetHashMap<u64, u32>,
    /// Points found in the checkpoint at open, restored on submission.
    restored: Checkpoint,
    stats: FarmStats,
    closed: bool,
}

/// The checkpoint's write side, under its own lock.
struct Commits {
    /// `None` when the checkpoint could not be opened: the run goes on
    /// without one.
    journal: Option<CheckpointJournal>,
    /// Points committed by this process (the crash hook's counter).
    new_points: u64,
}

/// The shared, checkpointed sweep-point queue.
pub struct Farm {
    inner: Mutex<FarmInner>,
    /// Serializes checkpoint commits; never taken while holding `inner`.
    commits: Mutex<Commits>,
    /// Signalled when work is queued or the farm closes (workers wait).
    work: Condvar,
    /// Signalled when a point resolves (submitters wait).
    done: Condvar,
    ckpt_path: PathBuf,
    crash_after: Option<u64>,
    timeout: Option<Duration>,
    policy: RetryPolicy,
}

/// Reads a numeric environment knob; unset or unparsable means off.
fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Checkpoint slot for a fingerprint.
pub fn ckpt_key(fingerprint: u64) -> String {
    format!("pt/{fingerprint:016x}")
}

/// The checkpoint a farm resumes from: the one at `path` when it belongs
/// to the same name and identity, else an empty one. The message is the
/// `[farm]` line saying what was found, if anything.
fn restore(name: &str, identity: u64, path: &Path) -> (Checkpoint, Option<String>) {
    match Checkpoint::load(path) {
        Ok(Some(c)) if c.name() == name && c.fingerprint() == identity => {
            let note = format!(
                "[farm] resuming from {} ({} points)",
                path.display(),
                c.len()
            );
            (c, Some(note))
        }
        Ok(Some(c)) => {
            let note = format!(
                "[farm] {} is for a different campaign (name '{}', fingerprint {:016x} != {identity:016x}); starting fresh",
                path.display(),
                c.name(),
                c.fingerprint()
            );
            (Checkpoint::new(name, identity), Some(note))
        }
        Ok(None) => (Checkpoint::new(name, identity), None),
        Err(e) => {
            let note = format!("[farm] {} unreadable ({e}); starting fresh", path.display());
            (Checkpoint::new(name, identity), Some(note))
        }
    }
}

/// Best-effort text of a panic payload.
pub fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Farm {
    /// Opens the queue, resuming from `ckpt_path` when a checkpoint with
    /// the same name and identity fingerprint exists there (a mismatched
    /// or unreadable one is discarded — never partially reused), and
    /// opens the checkpoint there as the journal new points commit to.
    pub fn new(name: &str, identity_fingerprint: u64, ckpt_path: PathBuf) -> Self {
        let (restored, note) = restore(name, identity_fingerprint, &ckpt_path);
        if let Some(note) = note {
            eprintln!("{note}");
        }
        let journal = match restored.journal(&ckpt_path) {
            Ok(journal) => Some(journal),
            Err(e) => {
                eprintln!(
                    "[farm] cannot open checkpoint {} ({e}); points will not be checkpointed",
                    ckpt_path.display()
                );
                None
            }
        };
        Farm {
            inner: Mutex::new(FarmInner {
                states: DetHashMap::default(),
                queue: VecDeque::new(),
                attempts: DetHashMap::default(),
                restored,
                stats: FarmStats::default(),
                closed: false,
            }),
            commits: Mutex::new(Commits {
                journal,
                new_points: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            ckpt_path,
            crash_after: env_u64("MAPS_CRASH_AFTER_POINTS"),
            timeout: env_u64("MAPS_POINT_TIMEOUT_SECS").map(Duration::from_secs),
            policy: RetryPolicy::from_env(crate::SEED),
        }
    }

    /// The retry schedule governing this farm's points (shared with the
    /// daemon's requeue path).
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Submits jobs for execution, returning their fingerprints in job
    /// order. Fingerprints already known to the farm (from an earlier
    /// submission or the checkpoint) are not scheduled again.
    pub fn submit(&self, jobs: &[SimJob]) -> Vec<u64> {
        let mut inner = self.lock();
        let mut queued = 0usize;
        let fps: Vec<u64> = jobs
            .iter()
            .map(|job| {
                let fp = point_fingerprint(job);
                if inner.states.contains_key(&fp) {
                    inner.stats.deduplicated += 1;
                    return fp;
                }
                let restored = inner
                    .restored
                    .get(&ckpt_key(fp))
                    .and_then(|doc| SimReport::from_json(doc).ok());
                match restored {
                    Some(report) => {
                        inner.states.insert(fp, PointState::Done(Box::new(report)));
                        inner.stats.restored += 1;
                    }
                    None => {
                        inner.states.insert(fp, PointState::Queued);
                        inner.queue.push_back((fp, job.clone()));
                        queued += 1;
                    }
                }
                fp
            })
            .collect();
        if queued > 0 {
            self.work.notify_all();
        }
        // Submitters whose whole phase was restored/deduplicated must not
        // block forever on a queue that never moves again.
        self.done.notify_all();
        fps
    }

    /// Blocks until every fingerprint resolves, returning the reports in
    /// the given order.
    ///
    /// # Errors
    ///
    /// [`BenchError::Failed`] when any of the points failed past its
    /// retry budget; the message names every failed point.
    pub fn wait(&self, fingerprints: &[u64]) -> Result<Vec<SimReport>, BenchError> {
        let mut inner = self.lock();
        loop {
            let pending = fingerprints.iter().any(|fp| {
                matches!(
                    inner.states.get(fp),
                    Some(PointState::Queued | PointState::Running)
                )
            });
            if !pending {
                break;
            }
            inner = self.done.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
        let mut failures = Vec::new();
        let reports: Vec<SimReport> = fingerprints
            .iter()
            .filter_map(|fp| match inner.states.get(fp) {
                Some(PointState::Done(report)) => Some((**report).clone()),
                Some(PointState::Failed(msg)) => {
                    failures.push(format!("point {fp:016x}: {msg}"));
                    None
                }
                _ => {
                    failures.push(format!("point {fp:016x}: never submitted"));
                    None
                }
            })
            .collect();
        if failures.is_empty() {
            Ok(reports)
        } else {
            Err(BenchError::Failed(failures.join("; ")))
        }
    }

    /// Submits a labelled batch and waits for it — the figure host's
    /// one-call path, with a per-phase scheduling summary on stderr.
    ///
    /// # Errors
    ///
    /// As [`Farm::wait`].
    pub fn run_labeled(
        &self,
        label: &str,
        jobs: Vec<SimJob>,
    ) -> Result<Vec<SimReport>, BenchError> {
        let before = self.stats();
        let fps = self.submit(&jobs);
        let after = self.stats();
        eprintln!(
            "[farm] {label}: {} points ({} restored, {} shared)",
            jobs.len(),
            after.restored - before.restored,
            after.deduplicated - before.deduplicated,
        );
        self.wait(&fps)
    }

    /// Blocks until a point is available (returning it claimed as
    /// `Running`) or the farm is closed and drained (`None`). This is the
    /// claim half of the external-executor interface: `maps-farmd` pulls
    /// jobs here and resolves them with [`Farm::complete`] /
    /// [`Farm::fail_attempt`] / [`Farm::requeue`] after running them in a
    /// worker *process*; the in-process [`Farm::worker_loop`] composes the
    /// same four primitives.
    pub fn next_job(&self) -> Option<(u64, SimJob)> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.queue.pop_front() {
                inner.states.insert(item.0, PointState::Running);
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.work.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Resolves a claimed point: commits the report to the checkpoint
    /// journal, *then* publishes it and wakes waiters — a kill between the
    /// two re-runs nothing on resume.
    pub fn complete(&self, fingerprint: u64, key: &str, report: SimReport) {
        self.commit(fingerprint, &report);
        let mut inner = self.lock();
        inner.stats.computed += 1;
        let done = inner.stats.computed + inner.stats.restored;
        let known = inner.states.len();
        eprintln!("[farm] {done}/{known} {key}");
        inner
            .states
            .insert(fingerprint, PointState::Done(Box::new(report)));
        drop(inner);
        self.done.notify_all();
    }

    /// Appends a finished point to the checkpoint journal under the
    /// journal's lock alone, so the two syncs never stall the queue.
    fn commit(&self, fingerprint: u64, report: &SimReport) {
        let doc = report.to_json();
        let mut commits = self.commits.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(journal) = commits.journal.as_mut() {
            if let Err(e) = journal.commit(&ckpt_key(fingerprint), &doc) {
                eprintln!(
                    "[farm] checkpoint write failed ({}): {e}",
                    self.ckpt_path.display()
                );
            }
        }
        commits.new_points += 1;
        if self.crash_after == Some(commits.new_points) {
            // Fault-injection hook: die right after the commit hit disk,
            // still holding the journal so no other worker's record lands
            // after it — the worst moment short of mid-commit (covered by
            // the header's committed count).
            eprintln!(
                "[farm] MAPS_CRASH_AFTER_POINTS={} reached; crashing",
                commits.new_points
            );
            std::process::exit(42);
        }
    }

    /// Records a failed attempt on a claimed point. Within the retry
    /// budget the point stays claimed and the attempt number is returned —
    /// the caller backs off ([`RetryPolicy::back_off`]) and then
    /// [`Farm::requeue`]s it. Past the budget the point is quarantined as
    /// `Failed` (waiters get a typed error, the run continues) and `None`
    /// is returned.
    pub fn fail_attempt(&self, fingerprint: u64, key: &str, msg: &str) -> Option<u32> {
        let mut inner = self.lock();
        let attempts = inner.attempts.entry(fingerprint).or_insert(0);
        *attempts += 1;
        let attempt = *attempts;
        if self.policy.allows(attempt) {
            inner.stats.retries += 1;
            eprintln!(
                "[farm] point '{key}' failed (attempt {attempt}/{}); will retry: {msg}",
                self.policy.budget() + 1
            );
            Some(attempt)
        } else {
            eprintln!("[farm] point '{key}' quarantined after {attempt} attempts: {msg}");
            inner.stats.failed += 1;
            inner
                .states
                .insert(fingerprint, PointState::Failed(msg.to_string()));
            drop(inner);
            self.done.notify_all();
            None
        }
    }

    /// Returns a claimed point to the queue (after a retryable failure).
    pub fn requeue(&self, fingerprint: u64, job: SimJob) {
        let mut inner = self.lock();
        inner.states.insert(fingerprint, PointState::Queued);
        inner.queue.push_back((fingerprint, job));
        drop(inner);
        self.work.notify_all();
    }

    /// Quarantines every still-queued point with `msg` and wakes waiters.
    /// The daemon's last resort when its whole worker pool has degraded
    /// away: figure drivers get a typed failure instead of a deadlock.
    pub fn fail_pending(&self, msg: &str) {
        let mut inner = self.lock();
        while let Some((fp, job)) = inner.queue.pop_front() {
            eprintln!("[farm] point '{}' abandoned: {msg}", job.key);
            inner.stats.failed += 1;
            inner.states.insert(fp, PointState::Failed(msg.to_string()));
        }
        drop(inner);
        self.done.notify_all();
    }

    /// Every quarantined point as `(fingerprint, attempts, error)`, sorted
    /// by fingerprint — the daemon's failure report reads this after the
    /// campaign settles.
    pub fn failures(&self) -> Vec<(u64, u32, String)> {
        let inner = self.lock();
        let mut out: Vec<(u64, u32, String)> = inner
            .states
            .iter()
            .filter_map(|(fp, state)| match state {
                PointState::Failed(msg) => Some((
                    *fp,
                    inner.attempts.get(fp).copied().unwrap_or(0),
                    msg.clone(),
                )),
                _ => None,
            })
            .collect();
        out.sort_by_key(|(fp, _, _)| *fp);
        out
    }

    /// Drains the queue until the farm is closed and empty. Run this from
    /// each worker thread; `exec` does the actual simulation (injectable
    /// so the scheduler is testable without a simulator). Panicking points
    /// retry under the shared seeded-backoff [`RetryPolicy`] and are
    /// quarantined when the budget runs out; under
    /// `MAPS_POINT_TIMEOUT_SECS` a watchdog thread exits the process
    /// (status 3) when one point runs past the budget.
    pub fn worker_loop<F>(&self, exec: &F)
    where
        F: Fn(&SimJob) -> SimReport,
    {
        let current: Mutex<Option<(String, Instant)>> = Mutex::new(None);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            if let Some(timeout) = self.timeout {
                let (current, stop) = (&current, &stop);
                s.spawn(move || watchdog(timeout, current, stop));
            }
            while let Some((fp, job)) = self.next_job() {
                *current.lock().unwrap_or_else(|p| p.into_inner()) =
                    Some((job.key.clone(), Instant::now()));
                let outcome = catch_unwind(AssertUnwindSafe(|| exec(&job)));
                *current.lock().unwrap_or_else(|p| p.into_inner()) = None;
                match outcome {
                    Ok(report) => self.complete(fp, &job.key, report),
                    Err(payload) => {
                        let msg = panic_text(payload);
                        if let Some(attempt) = self.fail_attempt(fp, &job.key, &msg) {
                            self.policy.back_off(&job.key, attempt);
                            self.requeue(fp, job);
                        }
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    /// Closes the queue: workers drain what is left and exit. Call after
    /// every figure driver has finished submitting.
    pub fn close(&self) {
        self.lock().closed = true;
        self.work.notify_all();
    }

    /// A snapshot of the run's accounting.
    pub fn stats(&self) -> FarmStats {
        self.lock().stats
    }

    /// Closes the checkpoint journal and removes the file — the run
    /// completed, nothing to resume.
    ///
    /// # Errors
    ///
    /// Any I/O failure other than the file already being gone.
    pub fn remove_checkpoint(&self) -> std::io::Result<()> {
        self.commits
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .journal = None;
        match std::fs::remove_file(&self.ckpt_path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Locks the shared state, recovering from poisoning: state mutation
    /// under the lock is total (no partial updates), so a panicking
    /// worker leaves the structures consistent.
    fn lock(&self) -> std::sync::MutexGuard<'_, FarmInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// One worker's watchdog: polls the worker's in-flight point until `stop`
/// and exits the process (status 3) once that point has run past
/// `timeout`. The checkpoint already holds every completed point.
fn watchdog(timeout: Duration, current: &Mutex<Option<(String, Instant)>>, stop: &AtomicBool) {
    let tick = (timeout / 2).clamp(Duration::from_millis(10), Duration::from_millis(50));
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        let guard = current.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((key, started)) = guard.as_ref().filter(|(_, t)| t.elapsed() > timeout) {
            eprintln!(
                "[watchdog] sweep point '{key}' exceeded {}s (ran {:.1}s); aborting, checkpoint kept for resume",
                timeout.as_secs(),
                started.elapsed().as_secs_f64()
            );
            std::process::exit(3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    use maps_sim::SimConfig;
    use maps_workloads::Benchmark;

    fn tmp_ckpt(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("maps-queue-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join("campaign.ckpt")
    }

    fn job(llc_shift: u64, bench: Benchmark) -> SimJob {
        let cfg = SimConfig::paper_default();
        let cfg = cfg.with_llc_bytes(cfg.llc_bytes << llc_shift);
        SimJob::replay(format!("llc{llc_shift}/{}", bench.name()), cfg, bench, 64)
    }

    /// Cheap injected executor: a synthetic report derived from the job.
    fn fake_exec(job: &SimJob) -> SimReport {
        let mut report = crate::PlanHost::placeholder_report();
        report.workload = job.key.clone();
        report.cycles = job.cfg.llc_bytes;
        report
    }

    fn drain<R>(
        farm: &Farm,
        body: impl FnOnce() -> R + Send,
        exec: &(dyn Fn(&SimJob) -> SimReport + Sync),
    ) -> R
    where
        R: Send,
    {
        std::thread::scope(|s| {
            let worker = s.spawn(move || farm.worker_loop(&|j: &SimJob| exec(j)));
            let out = body();
            farm.close();
            worker.join().expect("worker");
            out
        })
    }

    #[test]
    fn overlapping_submissions_execute_once() {
        let ckpt = tmp_ckpt("dedup");
        let farm = Farm::new("test", 1, ckpt.clone());
        let executions = AtomicUsize::new(0);
        let exec = |j: &SimJob| {
            executions.fetch_add(1, Ordering::Relaxed);
            fake_exec(j)
        };
        let jobs = vec![job(0, Benchmark::Gups), job(1, Benchmark::Gups)];
        let overlap = vec![job(1, Benchmark::Gups), job(0, Benchmark::Lbm)];
        let (a, b) = drain(
            &farm,
            || {
                let a = farm
                    .run_labeled("first", jobs.clone())
                    .expect("first batch");
                let b = farm
                    .run_labeled("second", overlap.clone())
                    .expect("second batch");
                (a, b)
            },
            &exec,
        );
        // Four submissions, three unique fingerprints.
        assert_eq!(executions.load(Ordering::Relaxed), 3);
        assert_eq!(a[1], b[0], "shared point yields the shared report");
        let stats = farm.stats();
        assert_eq!(stats.computed, 3);
        assert_eq!(stats.deduplicated, 1);
        farm.remove_checkpoint().expect("cleanup");
    }

    #[test]
    fn checkpoint_restores_points_across_farms() {
        let ckpt = tmp_ckpt("restore");
        let jobs = vec![job(0, Benchmark::Gups), job(1, Benchmark::Lbm)];
        let first = {
            let farm = Farm::new("test", 7, ckpt.clone());
            drain(
                &farm,
                || farm.run_labeled("batch", jobs.clone()).expect("batch"),
                &fake_exec,
            )
        };
        // Same identity: everything restores, nothing executes.
        let farm = Farm::new("test", 7, ckpt.clone());
        let executions = AtomicUsize::new(0);
        let exec = |j: &SimJob| {
            executions.fetch_add(1, Ordering::Relaxed);
            fake_exec(j)
        };
        let second = drain(
            &farm,
            || farm.run_labeled("batch", jobs.clone()).expect("batch"),
            &exec,
        );
        assert_eq!(executions.load(Ordering::Relaxed), 0);
        assert_eq!(first, second, "restored reports are bit-identical");
        assert_eq!(farm.stats().restored, 2);
        // Different identity: the stale checkpoint is discarded.
        let fresh = Farm::new("test", 8, ckpt.clone());
        drain(
            &fresh,
            || fresh.run_labeled("batch", jobs.clone()).expect("batch"),
            &exec,
        );
        assert_eq!(executions.load(Ordering::Relaxed), 2);
        fresh.remove_checkpoint().expect("cleanup");
    }

    #[test]
    fn commits_only_append_to_the_checkpoint() {
        let ckpt = tmp_ckpt("append");
        let farm = Farm::new("test", 11, ckpt.clone());
        let mut images = vec![std::fs::read(&ckpt).expect("journal created at open")];
        images.extend(drain(
            &farm,
            || {
                (0..4)
                    .map(|k| {
                        farm.run_labeled("one", vec![job(k, Benchmark::Gups)])
                            .expect("point");
                        std::fs::read(&ckpt).expect("checkpoint")
                    })
                    .collect::<Vec<_>>()
            },
            &fake_exec,
        ));
        let header_len = |bytes: &[u8]| bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        for (k, pair) in images.windows(2).enumerate() {
            let (before, after) = (&pair[0], &pair[1]);
            let head = header_len(before);
            // Only the header's count moved; the records before the k-th
            // are byte-for-byte where they were.
            assert_eq!(header_len(after), head);
            assert_eq!(after[head..before.len()], before[head..], "point {k}");
            // Nothing but the header and every record.
            let decoded = Checkpoint::from_bytes(after).expect("valid image");
            assert_eq!(decoded.len(), k + 1);
            assert_eq!(after.len(), decoded.to_bytes().len());
        }
        farm.remove_checkpoint().expect("cleanup");
    }

    #[test]
    fn version_1_checkpoint_restores_nothing_and_says_why() {
        let ckpt = tmp_ckpt("v1");
        let point = job(0, Benchmark::Gups);
        let v1 = maps_obs::Json::Obj(vec![
            ("schema_version".into(), maps_obs::Json::UInt(1)),
            ("kind".into(), maps_obs::Json::Str("maps-checkpoint".into())),
            ("name".into(), maps_obs::Json::Str("test".into())),
            ("fingerprint".into(), maps_obs::Json::UInt(12)),
            (
                "points".into(),
                maps_obs::Json::Obj(vec![(
                    ckpt_key(point_fingerprint(&point)),
                    fake_exec(&point).to_json(),
                )]),
            ),
        ]);
        maps_obs::write_atomic(&ckpt, v1.to_pretty().as_bytes()).expect("write v1");
        let (restored, note) = restore("test", 12, &ckpt);
        assert!(restored.is_empty());
        let note = note.expect("a v1 checkpoint is reported");
        assert!(
            note.contains("unsupported schema_version 1") && note.contains("starting fresh"),
            "{note}"
        );
        let farm = Farm::new("test", 12, ckpt.clone());
        drain(
            &farm,
            || farm.run_labeled("batch", vec![point]).expect("batch"),
            &fake_exec,
        );
        assert_eq!(farm.stats().restored, 0);
        assert_eq!(farm.stats().computed, 1);
        assert_eq!(
            Checkpoint::load(&ckpt).expect("now v2").map(|c| c.len()),
            Some(1)
        );
        farm.remove_checkpoint().expect("cleanup");
    }

    #[test]
    fn changed_point_parameters_restore_nothing() {
        // Same farm identity (a figure binary's checkpoint), but the point
        // now simulates more accesses: its fingerprint moved, so the old
        // entry is never mistaken for it.
        let ckpt = tmp_ckpt("stale-point");
        let short = job(0, Benchmark::Gups);
        let farm = Farm::new("test", 9, ckpt.clone());
        drain(
            &farm,
            || {
                farm.run_labeled("batch", vec![short.clone()])
                    .expect("batch")
            },
            &fake_exec,
        );
        let mut longer = short;
        longer.accesses += 1;
        let resumed = Farm::new("test", 9, ckpt);
        drain(
            &resumed,
            || resumed.run_labeled("batch", vec![longer]).expect("batch"),
            &fake_exec,
        );
        assert_eq!(resumed.stats().restored, 0);
        assert_eq!(resumed.stats().computed, 1);
        resumed.remove_checkpoint().expect("cleanup");
    }

    #[test]
    fn one_point_under_two_keys_in_one_batch_runs_once() {
        let farm = Farm::new("test", 10, tmp_ckpt("same-batch"));
        let a = job(0, Benchmark::Gups);
        let mut b = a.clone();
        b.key = "another/name".to_string();
        let reports = drain(
            &farm,
            || farm.run_labeled("batch", vec![a, b]).expect("batch"),
            &fake_exec,
        );
        assert_eq!(reports[0], reports[1]);
        assert_eq!(farm.stats().computed, 1);
        assert_eq!(farm.stats().deduplicated, 1);
        farm.remove_checkpoint().expect("cleanup");
    }

    #[test]
    fn panic_text_reads_both_string_payloads() {
        let text = |f: fn()| panic_text(catch_unwind(f).expect_err("panics"));
        assert_eq!(text(|| panic!("static")), "static");
        assert_eq!(text(|| panic!("{}", 42)), "42");
        assert_eq!(
            text(|| std::panic::panic_any(7u8)),
            "non-string panic payload"
        );
    }

    #[test]
    fn failed_points_surface_as_errors_not_hangs() {
        let ckpt = tmp_ckpt("fail");
        let farm = Farm::new("test", 3, ckpt.clone());
        let exec = |j: &SimJob| -> SimReport {
            if j.bench == Benchmark::Gups {
                panic!("injected failure");
            }
            fake_exec(j)
        };
        let jobs = vec![job(0, Benchmark::Gups), job(0, Benchmark::Lbm)];
        let result = drain(&farm, || farm.run_labeled("batch", jobs), &exec);
        let err = result.expect_err("panicking point must fail the batch");
        assert!(err.to_string().contains("injected failure"), "{err}");
        assert_eq!(farm.stats().failed, 1);
        assert_eq!(farm.stats().computed, 1, "healthy point still completes");
        farm.remove_checkpoint().expect("cleanup");
    }

    #[test]
    fn worker_loop_retries_then_succeeds() {
        let ckpt = tmp_ckpt("retry");
        let farm = Farm::new("test", 4, ckpt);
        let attempts = AtomicUsize::new(0);
        let exec = |j: &SimJob| {
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("flaky once");
            }
            fake_exec(j)
        };
        let point = job(0, Benchmark::Mcf);
        let reports = drain(
            &farm,
            || farm.run_labeled("batch", vec![point.clone()]),
            &exec,
        )
        .expect("the retry succeeds");
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
        assert_eq!(reports, vec![fake_exec(&point)]);
        assert_eq!(farm.stats().retries, 1);
        assert_eq!(farm.stats().failed, 0);
        farm.remove_checkpoint().expect("cleanup");
    }

    /// Set in the re-executed child of [`stuck_point_trips_the_watchdog`]:
    /// the checkpoint path the child's farm writes.
    const WATCHDOG_CHILD: &str = "MAPS_QUEUE_WATCHDOG_CHILD_CKPT";

    #[test]
    fn stuck_point_trips_the_watchdog() {
        let healthy = job(0, Benchmark::Lbm);
        let stuck = job(1, Benchmark::Lbm);
        if let Some(path) = std::env::var_os(WATCHDOG_CHILD) {
            // Child: one worker completes the healthy point, then hangs on
            // the stuck one until the watchdog exits the process.
            let farm = Farm::new("watchdog", 5, PathBuf::from(path));
            let exec = |j: &SimJob| {
                if j.key == stuck.key {
                    std::thread::sleep(Duration::from_secs(60));
                }
                fake_exec(j)
            };
            let _ = drain(
                &farm,
                || farm.run_labeled("batch", vec![healthy.clone(), stuck.clone()]),
                &exec,
            );
            unreachable!("the watchdog exits the process first");
        }
        let ckpt = tmp_ckpt("watchdog");
        std::fs::remove_file(&ckpt).ok();
        let started = Instant::now();
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--exact",
                "queue::tests::stuck_point_trips_the_watchdog",
                "--nocapture",
            ])
            .env(WATCHDOG_CHILD, &ckpt)
            .env("MAPS_POINT_TIMEOUT_SECS", "1")
            .env_remove("MAPS_CRASH_AFTER_POINTS")
            .output()
            .expect("re-exec the test binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "watchdog exit: {stderr}");
        assert!(stderr.contains("[watchdog]"), "{stderr}");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "watchdog fired late"
        );
        let kept = Checkpoint::load(&ckpt)
            .expect("readable checkpoint")
            .expect("checkpoint kept");
        assert!(kept.get(&ckpt_key(point_fingerprint(&healthy))).is_some());
        assert!(kept.get(&ckpt_key(point_fingerprint(&stuck))).is_none());
        std::fs::remove_file(&ckpt).ok();
    }
}
