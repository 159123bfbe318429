//! `mdcsim` — general-purpose driver for one secure-memory simulation.
//!
//! Runs any benchmark profile (or a recorded trace) under any metadata
//! cache configuration and prints the full report.
//!
//! ```text
//! USAGE: mdcsim [OPTIONS]
//!   --bench <name>         workload profile (default libquantum); see --list
//!   --replay <file>        replay a text trace instead of a profile
//!   --accesses <n>         core accesses to simulate (default 200000)
//!   --seed <n>             workload seed (default 42)
//!   --llc <bytes>          LLC capacity, e.g. 2M, 512K (default 2M)
//!   --mdc <bytes>          metadata cache capacity; 0 disables (default 64K)
//!   --policy <name>        pseudo-lru|true-lru|fifo|random|srrip|drrip|eva|eva-per-type|cost-aware
//!   --contents <set>       all|counters|counters+hashes|none (default all)
//!   --partition <k>        static split: k counter ways of 8
//!   --partial-writes       enable partial writes
//!   --sgx                  SGX-style monolithic counters (default split/PI)
//!   --no-speculation       put verification on the critical path
//!   --insecure             disable secure memory entirely
//!   --trace-out <file>     write the generated access trace to a file
//!   --list                 list benchmark profiles and exit
//! ```

use std::process::ExitCode;

use maps_bench::{report_error, BenchError, RunContext};
use maps_cache::Partition;
use maps_secure::CounterMode;
use maps_sim::{CacheContents, MdcConfig, PartitionMode, PolicyChoice, SecureSim, SimConfig};
use maps_trace::{write_trace, MemAccess};
use maps_workloads::{Benchmark, ReplayWorkload, Workload};

fn parse_bytes(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, mult) = match text.chars().last()? {
        'k' | 'K' => (&text[..text.len() - 1], 1024),
        'm' | 'M' => (&text[..text.len() - 1], 1024 * 1024),
        'g' | 'G' => (&text[..text.len() - 1], 1024 * 1024 * 1024),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

fn parse_policy(name: &str) -> Option<PolicyChoice> {
    Some(match name {
        "pseudo-lru" | "plru" => PolicyChoice::PseudoLru,
        "true-lru" | "lru" => PolicyChoice::TrueLru,
        "fifo" => PolicyChoice::Fifo,
        "random" => PolicyChoice::Random(1),
        "srrip" => PolicyChoice::Srrip,
        "eva" => PolicyChoice::Eva,
        "cost-aware" => PolicyChoice::CostAware(5),
        "drrip" => PolicyChoice::Drrip,
        "eva-per-type" => PolicyChoice::EvaPerType,
        _ => return None,
    })
}

fn parse_contents(name: &str) -> Option<CacheContents> {
    Some(match name {
        "all" => CacheContents::ALL,
        "counters" => CacheContents::COUNTERS_ONLY,
        "counters+hashes" => CacheContents::COUNTERS_AND_HASHES,
        "none" => CacheContents::NONE,
        _ => return None,
    })
}

const USAGE: &str = "mdcsim [--bench <name>|--replay <file>] [--accesses <n>] [--seed <n>] \
[--llc <bytes>] [--mdc <bytes>] [--policy <name>] [--contents <set>] [--partition <k>] \
[--partial-writes] [--sgx] [--no-speculation] [--insecure] [--trace-out <file>] [--list]";

struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        if let Some(i) = self.0.iter().position(|a| a == name) {
            self.0.remove(i);
            true
        } else {
            false
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, BenchError> {
        if let Some(i) = self.0.iter().position(|a| a == name) {
            if i + 1 >= self.0.len() {
                return Err(BenchError::usage(format!("{name} requires a value")));
            }
            let v = self.0.remove(i + 1);
            self.0.remove(i);
            Ok(Some(v))
        } else {
            Ok(None)
        }
    }
}

fn usage_err(msg: impl Into<String>) -> BenchError {
    BenchError::usage(msg)
}

fn run() -> Result<(), BenchError> {
    let mut args = Args(std::env::args().skip(1).collect());

    if args.flag("--list") {
        println!("available benchmark profiles:");
        for b in Benchmark::ALL {
            let intensity = if b.is_memory_intensive() {
                "memory-intensive"
            } else {
                "cache-resident"
            };
            println!("  {:<12} ({intensity})", b.name());
        }
        return Ok(());
    }

    let accesses: u64 = args
        .value("--accesses")?
        .map(|v| {
            v.parse()
                .map_err(|_| usage_err(format!("bad --accesses {v}")))
        })
        .transpose()?
        .unwrap_or(200_000);
    let seed: u64 = args
        .value("--seed")?
        .map(|v| v.parse().map_err(|_| usage_err(format!("bad --seed {v}"))))
        .transpose()?
        .unwrap_or(42);

    let mut cfg = SimConfig::paper_default();
    if let Some(v) = args.value("--llc")? {
        cfg.llc_bytes = parse_bytes(&v).ok_or_else(|| usage_err(format!("bad --llc {v}")))?;
    }
    if let Some(v) = args.value("--mdc")? {
        cfg.mdc.size_bytes = parse_bytes(&v).ok_or_else(|| usage_err(format!("bad --mdc {v}")))?;
    }
    if let Some(v) = args.value("--policy")? {
        cfg.mdc.policy =
            parse_policy(&v).ok_or_else(|| usage_err(format!("unknown --policy {v}")))?;
    }
    if let Some(v) = args.value("--contents")? {
        cfg.mdc.contents =
            parse_contents(&v).ok_or_else(|| usage_err(format!("unknown --contents {v}")))?;
    }
    if let Some(v) = args.value("--partition")? {
        let k: usize = v
            .parse()
            .map_err(|_| usage_err(format!("bad --partition {v}")))?;
        // Checked construction: an invalid split is a usage error (exit 2),
        // not a panic (debug) or a silently starved way range (release).
        let p = Partition::new(k, cfg.mdc.ways)
            .map_err(|e| usage_err(format!("bad --partition {v}: {e}")))?;
        cfg.mdc.partition = PartitionMode::Static(p);
    }
    if args.flag("--partial-writes") {
        cfg.mdc.partial_writes = true;
    }
    if args.flag("--sgx") {
        cfg.counter_mode = CounterMode::SgxMonolithic;
    }
    if args.flag("--no-speculation") {
        cfg.speculation = false;
    }
    if args.flag("--insecure") {
        cfg.secure = false;
        cfg.mdc = MdcConfig::disabled();
    }
    // A size the caches cannot be built with is a usage error (exit 2),
    // not a constructor panic.
    cfg.check_geometry()
        .map_err(|e| usage_err(format!("invalid cache geometry: {e}")))?;

    // RunContext reads --manifest/--ckpt from the environment args itself;
    // strip them here so the strict unknown-argument check below accepts
    // them.
    let _ = args.value("--manifest")?;
    let _ = args.value("--ckpt")?;
    let replay_path = args.value("--replay")?;
    let trace_out = args.value("--trace-out")?;
    let bench_name = args
        .value("--bench")?
        .unwrap_or_else(|| "libquantum".to_string());

    if let Some(unknown) = args.0.first() {
        return Err(usage_err(format!("unknown argument {unknown:?}")));
    }

    // A profile run with no trace recording goes through the shared
    // capture-key memo (`run_sim_cached`), so mdcsim derives its capture
    // identity from the same `CaptureKey` helper as the figure drivers
    // and the farm — bit-identical to the direct path by the
    // replay-equivalence suite. Custom workloads (trace replay, trace
    // recording) keep the direct simulator.
    enum Drive {
        Profile(Benchmark),
        Custom(Box<dyn Workload>),
    }

    let mut drive: Drive =
        match &replay_path {
            Some(path) => {
                let file = std::fs::File::open(path).map_err(|e| BenchError::io(path, e))?;
                let trace = maps_trace::read_trace(file)
                    .map_err(|e| BenchError::Failed(format!("{path}: {e}")))?;
                Drive::Custom(Box::new(ReplayWorkload::looping("replay", trace)))
            }
            None => Drive::Profile(Benchmark::from_name(&bench_name).ok_or_else(|| {
                usage_err(format!("unknown benchmark {bench_name:?}; try --list"))
            })?),
        };

    if let Some(path) = trace_out {
        let mut workload: Box<dyn Workload> = match drive {
            Drive::Profile(bench) => bench.build(seed),
            Drive::Custom(w) => w,
        };
        let trace: Vec<MemAccess> = (0..accesses).map(|_| workload.next_access()).collect();
        // Serialize in memory, then publish atomically: a failed or
        // interrupted write never leaves a torn trace file behind.
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).map_err(|e| BenchError::Failed(format!("{path}: {e}")))?;
        maps_obs::write_atomic(std::path::Path::new(&path), &bytes)
            .map_err(|e| BenchError::io(&path, e))?;
        println!("wrote {} accesses to {path}", trace.len());
        drive = Drive::Custom(Box::new(ReplayWorkload::new("recorded", trace)));
    }

    let mut ctx = RunContext::new("mdcsim");
    ctx.param_u64("accesses", accesses).param_u64("seed", seed);
    ctx.param_str("bench", &bench_name);
    ctx.set_config(&cfg);

    let report = match drive {
        Drive::Profile(bench) => ctx.phase("run", || {
            maps_bench::run_sim_cached(&cfg, bench, seed, accesses)
        }),
        Drive::Custom(workload) => {
            let mut sim = SecureSim::new(cfg, workload);
            ctx.phase("run", || sim.run(accesses))
        }
    };
    ctx.record_report("run", &report);
    ctx.finish();
    println!("{report}");
    println!();
    println!("tree walks         {}", report.engine.tree_walks);
    println!(
        "walk level fetches {}",
        report.engine.tree_walk_level_misses
    );
    println!("page overflows     {}", report.engine.page_overflows);
    println!("partial fill reads {}", report.engine.partial_fill_reads);
    println!("ED^2               {:.3e} pJ*cycles^2", report.ed2());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => report_error("mdcsim", USAGE, &err),
    }
}
