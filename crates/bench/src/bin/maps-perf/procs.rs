//! The figure and farm layers as users run them: `fig2`, `maps-farm` and
//! `maps-farmd`, launched as subprocesses from beside this binary
//! (`maps-bench` cannot depend on `maps-farm`).
//!
//! Each child runs with every `MAPS_*` variable cleared except the access
//! count, in its own directory under the run directory. Its peak memory is
//! polled from `/proc/<pid>/status` while it runs, and the lines of its
//! progress stream are timestamped as they arrive.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use maps_obs::{fingerprint64, Json};

use crate::spec::{another_setup, Kind};
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::Outcome;

/// How often a running child's memory is sampled.
const RSS_POLL: Duration = Duration::from_millis(100);

/// A child that outlives this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// Socket of the daemon, relative to its run directory (Unix socket paths
/// are limited to ~100 bytes; the run directory may be deep).
const SOCKET: &str = "farmd.sock";

/// Path of a binary built beside this one.
pub fn sibling(name: &str) -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join(name)))
        .unwrap_or_else(|| PathBuf::from(name))
}

/// The sibling binaries a workload kind drives.
pub fn siblings_of(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Replay(_) => &[],
        Kind::Sweep(_) => &["fig2"],
        Kind::Farmd(_) => &["maps-farm", "maps-farmd"],
        Kind::FarmRun(_) => &["maps-farm"],
    }
}

/// Whether a `maps-farm run` stderr line reports a point completion:
/// `[farm] 12/708 <key>`.
pub fn farm_point_done(line: &str) -> bool {
    let count = line
        .strip_prefix("[farm] ")
        .and_then(|r| r.split_whitespace().next());
    count
        .and_then(|c| c.split_once('/'))
        .is_some_and(|(done, known)| done.parse::<u64>().is_ok() && known.parse::<u64>().is_ok())
}

/// Whether a `maps-farm submit` stdout line is a `maps-farmd` point
/// completion event: `[37] point-done: <key>`.
pub fn farmd_point_done(line: &str) -> bool {
    line.strip_prefix('[')
        .and_then(|r| r.split_once("] "))
        .is_some_and(|(seq, event)| seq.parse::<u64>().is_ok() && event.starts_with("point-done: "))
}

/// The unique-point count a campaign announces when it starts:
/// `… 10 figures, 708 unique points …` → `708`.
pub fn unique_points(line: &str) -> Option<u64> {
    let head = &line[..line.find(" unique points")?];
    head.rsplit(' ').next()?.parse().ok()
}

/// Point-completion pacing: gaps between consecutive completions, and how
/// much slower the last tenth of completions came than the first tenth.
#[derive(Debug, Clone, PartialEq)]
pub struct Gaps {
    /// Median gap in ms.
    pub p50_ms: f64,
    /// Tail percentile of the gaps (ten or more gaps beyond it).
    pub tail_ms: Option<(u32, f64)>,
    /// Time span of the last tenth of completions over that of the first.
    pub growth: f64,
}

/// Gap statistics over completion times in seconds (ascending).
pub fn gaps(times: &[f64]) -> Option<Gaps> {
    if times.len() < 20 {
        return None;
    }
    let ms: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]) * 1e3).collect();
    let tenth = times.len() / 10;
    let first = times[tenth - 1] - times[0];
    let last = times[times.len() - 1] - times[times.len() - tenth];
    Some(Gaps {
        p50_ms: median(&ms),
        tail_ms: tail_percentile(&ms),
        growth: last / first,
    })
}

/// VmHWM of a live process in kB.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Live (non-zombie) children of `pid`, from a scan of `/proc`.
fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| proc_stat(p).is_some_and(|(state, ppid)| ppid == pid && state != "Z"))
        .collect()
}

/// `(state, ppid)` from `/proc/<pid>/stat`.
fn proc_stat(pid: u32) -> Option<(String, u32)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace();
    let state = fields.next()?.to_string();
    Some((state, fields.next()?.parse().ok()?))
}

/// Which output stream of a child carries its progress lines.
#[derive(Debug, Clone, Copy)]
enum Stream {
    Stdout,
    Stderr,
}

/// A finished child process.
struct Finished {
    start: Instant,
    end: Instant,
    ok: bool,
    status: String,
    peak_rss_kb: u64,
    /// Lines of the progress stream with their arrival times.
    lines: Vec<(Instant, String)>,
    /// The other stream, whole.
    other: String,
}

impl Finished {
    fn wall(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// The last few lines of both streams, for failure messages.
    fn tail(&self) -> String {
        let progress: Vec<&str> = self.lines.iter().map(|(_, l)| l.as_str()).collect();
        let from = progress.len().saturating_sub(4);
        format!(
            "{} | {}",
            progress[from..].join(" | "),
            last_lines(&self.other, 4)
        )
    }
}

/// A command for a sibling binary with a clean `MAPS_*` environment,
/// running in `dir`.
fn command(name: &str, dir: &Path, accesses: Option<u64>) -> Command {
    let mut cmd = Command::new(sibling(name));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MAPS_") {
            cmd.env_remove(key);
        }
    }
    if let Some(n) = accesses {
        cmd.env("MAPS_ACCESSES", n.to_string());
    }
    cmd.current_dir(dir).stdin(Stdio::null());
    cmd
}

fn read_lines(r: impl Read) -> Vec<(Instant, String)> {
    BufReader::new(r)
        .lines()
        .map_while(Result::ok)
        .map(|l| (Instant::now(), l))
        .collect()
}

/// Runs `cmd` to completion, timestamping its progress stream and
/// sampling `rss(pid)` (kB) while it runs. A child past
/// [`CHILD_TIMEOUT`] is killed.
fn run_child(
    cmd: &mut Command,
    stream: Stream,
    mut rss: impl FnMut(u32) -> Option<u64>,
) -> std::io::Result<Finished> {
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id();
    let stdout: Box<dyn Read + Send> = Box::new(child.stdout.take().expect("stdout is piped"));
    let stderr: Box<dyn Read + Send> = Box::new(child.stderr.take().expect("stderr is piped"));
    let (progress, other) = match stream {
        Stream::Stdout => (stdout, stderr),
        Stream::Stderr => (stderr, stdout),
    };
    std::thread::scope(|s| {
        let lines = s.spawn(move || read_lines(progress));
        let other = s.spawn(move || {
            let mut text = String::new();
            let _ = BufReader::new(other).read_to_string(&mut text);
            text
        });
        let mut peak = 0u64;
        let mut polled = start;
        let (status, ok) = loop {
            let timed_out = start.elapsed() > CHILD_TIMEOUT;
            match child.try_wait() {
                Ok(Some(status)) => break (status.to_string(), status.success()),
                Ok(None) if !timed_out => {}
                waited => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let why = match waited {
                        Err(e) => format!("wait failed ({e}); killed"),
                        _ => format!("killed after {CHILD_TIMEOUT:?}"),
                    };
                    break (why, false);
                }
            }
            if polled.elapsed() >= RSS_POLL {
                peak = peak.max(rss(pid).unwrap_or(0));
                polled = Instant::now();
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        Ok(Finished {
            start,
            end: Instant::now(),
            ok,
            status,
            peak_rss_kb: peak,
            lines: lines.join().unwrap_or_default(),
            other: other.join().unwrap_or_default(),
        })
    })
}

/// Runs a child and checks that it started and exited 0.
fn launch(
    out: &mut Outcome,
    what: &str,
    cmd: &mut Command,
    stream: Stream,
    rss: impl FnMut(u32) -> Option<u64>,
) -> Option<Finished> {
    match run_child(cmd, stream, rss) {
        Ok(done) => {
            let ok = out.check(done.ok, || {
                format!("{what} exited with {}: {}", done.status, done.tail())
            });
            ok.then_some(done)
        }
        Err(e) => {
            out.check(false, || format!("{what} did not start: {e}"));
            None
        }
    }
}

/// An empty directory at `dir`.
fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(dir)
}

/// `(file name, fingerprint)` of every `*.tsv` in `dir`, sorted by name.
fn tsv_digests(dir: &Path) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| {
            let path = e.ok()?.path();
            let name = path.file_name()?.to_str()?.to_string();
            name.ends_with(".tsv").then_some(())?;
            let text = std::fs::read_to_string(&path).ok()?;
            Some((name, format!("{:016x}", fingerprint64(&text))))
        })
        .collect();
    out.sort();
    out
}

/// `(phase, seconds)` from a run manifest.
fn manifest_phases(path: &Path) -> Vec<(String, f64)> {
    let Some(doc) = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
    else {
        return Vec::new();
    };
    match doc.get("phases") {
        Some(Json::Arr(phases)) => phases
            .iter()
            .filter_map(|p| {
                Some((
                    p.get("path")?.as_str()?.to_string(),
                    p.get("seconds")?.as_f64()?,
                ))
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// What one repetition of a subprocess workload observed.
struct Rep {
    wall: f64,
    peak_rss_kb: u64,
    /// Output digests, identical across repetitions.
    digests: Vec<(String, String)>,
    /// Point completion times, seconds after launch.
    completions: Vec<f64>,
    /// Sweep phases from the manifest.
    phases: Vec<(String, f64)>,
}

/// A running `maps-farmd`; killed and reaped on drop.
struct Daemon {
    child: Child,
    log: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Starts a daemon with two workers in `dir` and waits until it
    /// listens; returns it with the seconds that took.
    fn start(dir: &Path) -> Result<(Daemon, f64), String> {
        let start = Instant::now();
        let mut cmd = command("maps-farmd", dir, None);
        cmd.args(["--socket", SOCKET, "--workers", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("maps-farmd did not start: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (ready, listening) = mpsc::channel();
        // Drains the daemon's (and its workers') stderr for the daemon's
        // lifetime, so neither blocks on a full pipe.
        let log = std::thread::spawn(move || {
            let mut text = String::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.contains("listening on") {
                    let _ = ready.send(());
                }
                text.push_str(&line);
                text.push('\n');
            }
            text
        });
        let mut daemon = Daemon {
            child,
            log: Some(log),
        };
        match listening.recv_timeout(Duration::from_secs(10)) {
            Ok(()) => Ok((daemon, start.elapsed().as_secs_f64())),
            Err(_) => {
                let log = daemon.stop(&[]).unwrap_or_else(|e| e);
                Err(format!(
                    "maps-farmd never listened: {}",
                    last_lines(&log, 6)
                ))
            }
        }
    }

    /// Kills the daemon, waits for it and for the `workers` it spawned
    /// (they exit once its end of their stdin pipe closes), and returns
    /// its stderr.
    fn stop(&mut self, workers: &[u32]) -> Result<String, String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let alive = || {
            workers
                .iter()
                .any(|&w| proc_stat(w).is_some_and(|(state, _)| state != "Z"))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while alive() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if alive() {
            // A live worker still holds the log pipe open; joining the
            // reader would block on it.
            return Err(format!(
                "maps-farmd workers {workers:?} outlived the daemon"
            ));
        }
        Ok(self
            .log
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One `fig2` run at `accesses`, with the paper claims checked.
fn fig2_rep(dir: &Path, accesses: u64, tr: &mut Tracer, out: &mut Outcome) -> Option<Rep> {
    let mut cmd = command("fig2", dir, Some(accesses));
    cmd.args([
        "--check",
        "--manifest",
        "fig2.manifest.json",
        "--ckpt",
        "fig2.ckpt",
        "--tsv=fig2.tsv",
    ]);
    let run = launch(out, "fig2", &mut cmd, Stream::Stderr, |pid| {
        vm_hwm_kb(&pid.to_string())
    })?;
    tr.begin_at("proc.fig2", run.start);
    tr.end_at(run.end);
    let digests = tsv_digests(dir);
    out.check(
        digests.len() == 1 && !dir.join("fig2.ckpt").exists(),
        || {
            format!(
                "fig2 left {digests:?} and its checkpoint in {}",
                dir.display()
            )
        },
    );
    Some(Rep {
        wall: run.wall(),
        peak_rss_kb: run.peak_rss_kb,
        digests,
        completions: Vec::new(),
        phases: manifest_phases(&dir.join("fig2.manifest.json")),
    })
}

/// One `maps-farm run --all --workers 2` at `accesses`.
fn farm_run_rep(dir: &Path, accesses: u64, tr: &mut Tracer, out: &mut Outcome) -> Option<Rep> {
    let mut cmd = command("maps-farm", dir, Some(accesses));
    cmd.args(["run", "--all", "--workers", "2", "--dir", "camp"]);
    let run = launch(out, "maps-farm run", &mut cmd, Stream::Stderr, |pid| {
        vm_hwm_kb(&pid.to_string())
    })?;
    let completions = completions(tr, &run, farm_point_done);
    check_campaign(dir, &run, &completions, out);
    Some(Rep {
        wall: run.wall(),
        peak_rss_kb: run.peak_rss_kb,
        digests: tsv_digests(&dir.join("camp")),
        completions,
        phases: Vec::new(),
    })
}

/// One `maps-farm submit --figures fig2,fig7` against a fresh daemon.
fn farmd_rep(dir: &Path, accesses: u64, tr: &mut Tracer, out: &mut Outcome) -> Option<Rep> {
    let (mut daemon, _) = out.ok(Daemon::start(dir))?;
    let daemon_pid = daemon.child.id();
    let mut workers: Vec<u32> = Vec::new();
    let mut cmd = command("maps-farm", dir, None);
    cmd.args(["submit", "--socket", SOCKET, "--dir", "camp"])
        .args([
            "--figures",
            "fig2,fig7",
            "--accesses",
            &accesses.to_string(),
        ]);
    // The simulating processes are the daemon's workers, not the client.
    let run = launch(out, "maps-farm submit", &mut cmd, Stream::Stdout, |_| {
        let live = children_of(daemon_pid);
        for &w in &live {
            if !workers.contains(&w) {
                workers.push(w);
            }
        }
        live.iter().filter_map(|w| vm_hwm_kb(&w.to_string())).max()
    });
    let log = out.ok(daemon.stop(&workers)).unwrap_or_default();
    let Some(run) = run else {
        out.problems
            .push(format!("maps-farmd log tail: {}", last_lines(&log, 6)));
        return None;
    };
    let completions = completions(tr, &run, farmd_point_done);
    check_campaign(dir, &run, &completions, out);
    let done = run
        .lines
        .last()
        .is_some_and(|(_, l)| l.contains("complete"));
    out.check(done, || {
        format!("campaign did not complete: {}", run.tail())
    });
    Some(Rep {
        wall: run.wall(),
        peak_rss_kb: run.peak_rss_kb,
        digests: tsv_digests(&dir.join("camp")),
        completions,
        phases: Vec::new(),
    })
}

fn last_lines(text: &str, n: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(n)..].join(" | ")
}

/// Point completion times (seconds after launch) from the progress lines
/// `is_done` recognizes, recorded as instant events inside a span over the
/// client's lifetime.
fn completions(tr: &mut Tracer, run: &Finished, is_done: impl Fn(&str) -> bool) -> Vec<f64> {
    tr.begin_at("proc.maps-farm", run.start);
    let times = run
        .lines
        .iter()
        .filter(|(_, l)| is_done(l))
        .map(|(at, _)| {
            tr.instant("farm.point_done", *at);
            (*at - run.start).as_secs_f64()
        })
        .collect();
    tr.end_at(run.end);
    times
}

/// Every announced point completed, and nothing was quarantined.
fn check_campaign(dir: &Path, run: &Finished, completions: &[f64], out: &mut Outcome) {
    let announced = run.lines.iter().find_map(|(_, l)| unique_points(l));
    out.check(announced == Some(completions.len() as u64), || {
        format!(
            "campaign announced {announced:?} points, {} completed",
            completions.len()
        )
    });
    out.check(!dir.join("camp/failures.json").exists(), || {
        "campaign wrote failures.json".to_string()
    });
}

/// Runs a subprocess workload: timed set-ups as often as
/// [`another_setup`] asks, then repetitions until `seconds` of them have
/// been measured (at least one), or — when traced — one untraced and one
/// traced repetition.
pub fn run(kind: Kind, dir: &Path, seconds: f64, tr: &mut Tracer, out: &mut Outcome) {
    let (mut setups, mut setup_secs) = (0, 0.0);
    while another_setup(setups, setup_secs) {
        let setup_dir = dir.join(format!("setup-{setups}"));
        if let Err(e) = fresh_dir(&setup_dir) {
            out.check(false, || {
                format!("cannot create {}: {e}", setup_dir.display())
            });
            return;
        }
        tr.begin("bench.setup");
        let secs = setup(kind, &setup_dir, out);
        tr.end();
        let Some(secs) = secs else {
            return;
        };
        out.sample("setup_s", secs);
        (setups, setup_secs) = (setups + 1, setup_secs + secs);
    }

    let rep = |i: usize, tr: &mut Tracer, out: &mut Outcome| {
        let rep_dir = dir.join(format!("rep-{i}"));
        if let Err(e) = fresh_dir(&rep_dir) {
            out.check(false, || {
                format!("cannot create {}: {e}", rep_dir.display())
            });
            return None;
        }
        match kind {
            Kind::Sweep(n) => fig2_rep(&rep_dir, n, tr, out),
            Kind::FarmRun(n) => farm_run_rep(&rep_dir, n, tr, out),
            Kind::Farmd(n) => farmd_rep(&rep_dir, n, tr, out),
            Kind::Replay(_) => None,
        }
    };
    let mut reps: Vec<Rep> = Vec::new();
    if tr.on() {
        let untraced = rep(0, &mut Tracer::new(false), out);
        let traced = rep(1, tr, out);
        if let (Some(u), Some(t)) = (untraced, traced) {
            out.layer("trace.overhead_frac", t.wall / u.wall - 1.0, "ratio");
            reps.extend([u, t]);
        }
    } else {
        let mut measured = 0.0;
        while let Some(r) = rep(reps.len(), &mut Tracer::new(false), out) {
            measured += r.wall;
            out.sample("wall_s", r.wall);
            out.sample("peak_rss_mb", r.peak_rss_kb as f64 / 1024.0);
            reps.push(r);
            if measured >= seconds {
                break;
            }
        }
    }
    let Some(first) = reps.first() else {
        return;
    };
    for r in &reps[1..] {
        out.check(r.digests == first.digests, || {
            format!(
                "outputs changed between repetitions: {:?} vs {:?}",
                first.digests, r.digests
            )
        });
    }
    out.digests.extend(first.digests.iter().cloned());
    if tr.on() {
        let last = &reps[reps.len() - 1];
        if let Some(g) = gaps(&last.completions) {
            out.layer("farm.point_gap_ms.p50", g.p50_ms, "ms");
            if let Some((p, v)) = g.tail_ms {
                out.layer(format!("farm.point_gap_ms.p{p}"), v, "ms");
            }
            out.layer("farm.gap_growth", g.growth, "ratio");
        }
        for (phase, secs) in &last.phases {
            out.layer(format!("bench.sweep.phase_s.{phase}"), *secs, "s");
        }
    }
}

/// One set-up of a subprocess workload, in seconds: the sweep's binary at
/// zero accesses (load plus its fixed per-run cost), the campaign's plan,
/// or the daemon's start until it listens.
fn setup(kind: Kind, dir: &Path, out: &mut Outcome) -> Option<f64> {
    match kind {
        Kind::Sweep(_) => {
            let mut cmd = command("fig2", dir, Some(0));
            cmd.args(["--manifest", "m.json", "--ckpt", "c.ckpt", "--tsv=f.tsv"]);
            launch(out, "fig2 (0 accesses)", &mut cmd, Stream::Stderr, |_| None).map(|r| r.wall())
        }
        Kind::FarmRun(_) => {
            let mut cmd = command("maps-farm", dir, None);
            cmd.args(["plan", "--all", "--dir", "plan"]);
            launch(out, "maps-farm plan", &mut cmd, Stream::Stderr, |_| None).map(|r| r.wall())
        }
        Kind::Farmd(_) => {
            let (mut daemon, secs) = out.ok(Daemon::start(dir))?;
            out.ok(daemon.stop(&[]))?;
            Some(secs)
        }
        Kind::Replay(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_farm_run_progress_lines() {
        assert!(farm_point_done(
            "[farm] 12/708 fig2/sweep/llc512/mdc16/canneal"
        ));
        assert!(!farm_point_done(
            "[farm] fig2/sweep: 336 points (0 restored, 0 shared)"
        ));
        assert!(!farm_point_done("[farm] campaign complete: 708 computed"));
        assert!(!farm_point_done("[farmd] listening on d.sock"));
        assert_eq!(
            unique_points(
                "[farm] campaign 'campaign': 10 figures, 708 unique points (838 declared, 130 shared), 68 capture keys"
            ),
            Some(708)
        );
    }

    #[test]
    fn parses_farmd_event_lines() {
        assert!(farmd_point_done("[2] point-done: barnes"));
        assert!(!farmd_point_done("[3] point-retry: barnes (attempt 1)"));
        assert!(!farmd_point_done("[x] point-done: barnes"));
        assert!(!farmd_point_done("campaign 'campaign' complete"));
        assert_eq!(
            unique_points("[1] campaign-start: 2 figures, 446 unique points, 2 workers"),
            Some(446)
        );
    }

    #[test]
    fn gap_growth_compares_last_tenth_to_first() {
        // Completions 10 ms apart, then 100 ms apart for the last tenth.
        let mut t = Vec::new();
        let mut now = 0.0;
        for i in 0..100 {
            now += if i >= 90 { 0.1 } else { 0.01 };
            t.push(now);
        }
        let g = gaps(&t).unwrap();
        assert!((g.growth - 10.0).abs() < 1e-9, "{g:?}");
        assert!((g.p50_ms - 10.0).abs() < 1e-9);
        assert!(gaps(&t[..10]).is_none());
    }
}
