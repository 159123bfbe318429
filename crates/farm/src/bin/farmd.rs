//! `maps-farmd` — the supervised sweep-campaign daemon.
//!
//! ```text
//! USAGE: maps-farmd --socket <path> [--workers N]
//!        maps-farmd --worker
//! ```
//!
//! The first form binds a Unix-domain socket and serves `maps-farm
//! submit/attach/status` clients, executing campaign points in a pool of
//! crash-isolated worker processes (see `maps_farm::daemon`). The second
//! form is the self-exec worker mode the daemon spawns — it speaks
//! length-prefixed frames on stdin/stdout and is not meant to be run by
//! hand.
//!
//! Exit codes: 0 clean shutdown, 1 failure, 2 usage.

use std::path::PathBuf;
use std::process::ExitCode;

use maps_farm::{serve, DaemonConfig, FarmError};

const USAGE: &str = "maps-farmd --socket <path> [--workers N] | --worker";

fn parsed<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, FarmError> {
    value
        .parse()
        .map_err(|_| FarmError::Usage(format!("bad {name} value {value:?}")))
}

fn run() -> Result<(), FarmError> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        // The worker loop reports its own exit code; exit directly so a
        // protocol failure is visible to the supervising daemon.
        std::process::exit(i32::from(maps_farm::run_worker()));
    }

    let mut socket: Option<PathBuf> = None;
    let mut workers: Option<usize> = None;
    while !args.is_empty() {
        let flag = args.remove(0);
        let mut value = |name: &str| -> Result<String, FarmError> {
            if args.is_empty() {
                Err(FarmError::Usage(format!("{name} requires a value")))
            } else {
                Ok(args.remove(0))
            }
        };
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--workers" => workers = Some(parsed("--workers", &value("--workers")?)?),
            other => return Err(FarmError::Usage(format!("unknown argument {other:?}"))),
        }
    }
    let socket = socket.ok_or_else(|| FarmError::Usage("--socket <path> is required".into()))?;
    let mut cfg = DaemonConfig::new(socket);
    if let Some(workers) = workers {
        cfg.workers = workers.max(1);
    }
    serve(cfg)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(FarmError::Usage(msg)) => {
            eprintln!("maps-farmd: {msg}");
            eprintln!("USAGE: {USAGE}");
            ExitCode::from(2)
        }
        Err(err) => {
            eprintln!("maps-farmd: {err}");
            ExitCode::FAILURE
        }
    }
}
