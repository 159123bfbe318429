//! Differential harness: production [`maps_sim::SecureSim`] vs the oracle
//! [`OracleSim`], in lockstep, with trace minimization and replayable
//! failure artifacts.
//!
//! A [`DiffCase`] is a configuration plus a core-level trace of
//! reads/writes ([`TraceOp`]). [`run_lockstep`] replays the trace through
//! both simulators one access at a time and, after *every* access, asserts
//! equality of the observed metadata touch stream, the accumulated cycles,
//! the hierarchy counters, the full engine statistics (per-kind hits and
//! misses, DRAM traffic, tree walks, overflows, stalls, cascade depth),
//! and a running digest of the BMT write stream (the "root evolution"
//! witness); cache contents are compared line-for-line — timestamps
//! included — at a fixed cadence and at the end, after a final flush.
//!
//! On divergence, [`check_case`] shrinks the trace with a delta-debugging
//! loop ([`minimize`]) and dumps a self-contained `.trace` artifact under
//! `results/failures/` that [`replay_artifact`] can re-execute verbatim.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use maps_cache::Line;
use maps_obs::Json;
use maps_sim::{PolicyChoice, RecordingObserver, SecureSim, SimConfig};
use maps_trace::rng::SmallRng;
use maps_trace::{AccessKind, BlockKind, MemAccess, MetaAccess, PhysAddr, TenantId, BLOCK_BYTES};
use maps_workloads::Workload;

use crate::hierarchy::OracleSim;

/// One core-level memory operation on a data block index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Load from a data block.
    Read(u64),
    /// Store to a data block.
    Write(u64),
}

impl TraceOp {
    /// The data block index.
    pub fn block(self) -> u64 {
        match self {
            TraceOp::Read(b) | TraceOp::Write(b) => b,
        }
    }

    /// Whether this is a store.
    pub fn is_write(self) -> bool {
        matches!(self, TraceOp::Write(_))
    }
}

/// Replays a fixed op list as a workload (icount 1 per access). With more
/// than one tenant, accesses are attributed round-robin by position — a
/// deterministic interleaving that exercises tenant attribution, per-tenant
/// partitions, and randomized-backend quotas in lockstep.
#[derive(Debug, Clone)]
pub struct OpsWorkload {
    ops: Vec<TraceOp>,
    pos: usize,
    footprint: u64,
    tenants: usize,
    tenant: TenantId,
}

impl OpsWorkload {
    /// Wraps an op list; the footprint covers the highest touched block.
    pub fn new(ops: &[TraceOp]) -> Self {
        Self::with_tenants(ops, 1)
    }

    /// Wraps an op list with accesses attributed round-robin across
    /// `tenants` tenant IDs (`tenants == 1` means everything is HOST).
    pub fn with_tenants(ops: &[TraceOp], tenants: usize) -> Self {
        assert!(
            (1..=usize::from(u8::MAX)).contains(&tenants),
            "tenant count must fit a TenantId"
        );
        let footprint = ops
            .iter()
            .map(|op| (op.block() + 1) * BLOCK_BYTES)
            .max()
            .unwrap_or(0)
            .max(4096);
        Self {
            ops: ops.to_vec(),
            pos: 0,
            footprint,
            tenants,
            tenant: TenantId::HOST,
        }
    }
}

impl Workload for OpsWorkload {
    fn next_access(&mut self) -> MemAccess {
        assert!(!self.ops.is_empty(), "stepping an empty op trace");
        let op = self.ops[self.pos % self.ops.len()];
        self.tenant = TenantId((self.pos % self.tenants) as u8);
        self.pos += 1;
        let kind = if op.is_write() {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        MemAccess::new(PhysAddr::new(op.block() * BLOCK_BYTES), kind, 1)
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn name(&self) -> &'static str {
        "ops-replay"
    }

    fn current_tenant(&self) -> TenantId {
        self.tenant
    }
}

/// A differential test case: label, seed (provenance only — the trace is
/// already materialized), configuration, and the driving trace.
#[derive(Debug, Clone)]
pub struct DiffCase {
    /// Human-readable case name (used in artifact file names).
    pub label: String,
    /// Seed the trace was generated from.
    pub seed: u64,
    /// Simulation configuration. A `PolicyChoice::Min`/`TraceMin` with an
    /// *empty* embedded trace is a sentinel: the oracle trace is re-derived
    /// deterministically from the ops (see [`derive_oracle_trace`]), so
    /// minimization and artifact replay stay self-contained.
    pub cfg: SimConfig,
    /// The driving trace.
    pub ops: Vec<TraceOp>,
    /// Tenants the ops are attributed to, round-robin by position
    /// (`1` = everything runs as HOST, the classic single-tenant case).
    pub tenants: usize,
}

/// A lockstep divergence.
#[derive(Debug, Clone)]
pub struct DiffError {
    /// Index of the first diverging access (`ops.len()` for end-of-run
    /// flush/counter divergence).
    pub step: usize,
    /// What diverged.
    pub what: String,
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "divergence at step {}: {}", self.step, self.what)
    }
}

impl std::error::Error for DiffError {}

/// Uniform random trace over `blocks` data blocks, `write_pct`% stores.
pub fn random_ops(seed: u64, blocks: u64, n: usize, write_pct: u32) -> Vec<TraceOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let b = rng.gen_range(0..blocks);
            if rng.gen_ratio(write_pct, 100) {
                TraceOp::Write(b)
            } else {
                TraceOp::Read(b)
            }
        })
        .collect()
}

/// Captures `n` accesses from any workload generator as a replayable trace.
pub fn ops_from_workload<W: Workload>(mut workload: W, n: usize) -> Vec<TraceOp> {
    (0..n)
        .map(|_| {
            let a = workload.next_access();
            let block = a.addr.block().index();
            if a.kind == AccessKind::Write {
                TraceOp::Write(block)
            } else {
                TraceOp::Read(block)
            }
        })
        .collect()
}

/// Scales a bounded-tier trace length for the `MAPS_DEEP_DIFF=1` long-fuzz
/// tier (50× longer traces; anything unset/`0` means the bounded tier).
pub fn scaled_len(base: usize) -> usize {
    match std::env::var("MAPS_DEEP_DIFF") {
        Ok(v) if !v.is_empty() && v != "0" => base * 50,
        _ => base,
    }
}

/// The MIN-oracle key trace for a case, derived deterministically: a
/// true-LRU pre-run of the production simulator over the same ops (with
/// the same tenant interleaving) records the metadata key stream MIN
/// receives as future knowledge.
pub fn derive_oracle_trace(cfg: &SimConfig, ops: &[TraceOp], tenants: usize) -> Vec<u64> {
    let mut pre = cfg.clone();
    pre.mdc = pre.mdc.with_policy(PolicyChoice::TrueLru);
    let mut sim = SecureSim::new(pre, OpsWorkload::with_tenants(ops, tenants));
    let mut rec = RecordingObserver::new();
    for _ in 0..ops.len() {
        sim.step_observed(&mut rec);
    }
    rec.keys().collect()
}

/// Replaces a `Min([])`/`TraceMin([])` sentinel policy with one fed the
/// derived oracle trace; other policies pass through untouched.
fn materialize_policy(cfg: &SimConfig, ops: &[TraceOp], tenants: usize) -> SimConfig {
    let needs_trace = matches!(&cfg.mdc.policy, PolicyChoice::Min(t) if t.is_empty())
        || matches!(&cfg.mdc.policy, PolicyChoice::TraceMin(t) if t.is_empty());
    if !needs_trace {
        return cfg.clone();
    }
    let trace = derive_oracle_trace(cfg, ops, tenants);
    let mut out = cfg.clone();
    out.mdc.policy = match &cfg.mdc.policy {
        PolicyChoice::Min(_) => PolicyChoice::Min(trace),
        PolicyChoice::TraceMin(_) => PolicyChoice::TraceMin(trace),
        _ => unreachable!(),
    };
    out
}

/// Folds the tree-write portion of an observed stream into a running
/// digest — a compressed witness of how each side's BMT root evolves.
fn fold_root_evolution(mut acc: u64, records: &[MetaAccess]) -> u64 {
    for r in records {
        if matches!(r.kind, BlockKind::Tree(_)) && r.access == AccessKind::Write {
            let mut x = acc ^ r.block.index().wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            acc = x ^ (x >> 27);
        }
    }
    acc
}

/// How often lockstep compares full cache contents (every access would be
/// quadratic; every 64th keeps it cheap while still localizing bugs).
const RESIDENT_CHECK_PERIOD: usize = 64;

fn compare_streams(step: usize, prod: &[MetaAccess], orac: &[MetaAccess]) -> Result<(), DiffError> {
    if prod == orac {
        return Ok(());
    }
    let i = prod
        .iter()
        .zip(orac.iter())
        .position(|(a, b)| a != b)
        .unwrap_or(prod.len().min(orac.len()));
    Err(DiffError {
        step,
        what: format!(
            "metadata streams diverge at record {i}: production {:?} vs oracle {:?} \
             (lengths {} vs {})",
            prod.get(i),
            orac.get(i),
            prod.len(),
            orac.len()
        ),
    })
}

fn compare_residents<W: Workload>(
    step: usize,
    prod: &SecureSim<W>,
    orac: &OracleSim<W>,
) -> Result<(), DiffError> {
    let prod_lines: Option<Vec<Line>> = prod
        .engine()
        .and_then(|e| e.mdc())
        .map(|m| m.resident_lines().collect());
    let orac_lines: Option<Vec<Line>> = orac
        .engine()
        .and_then(|e| e.mdc())
        .map(|m| m.resident_lines().copied().collect());
    if prod_lines != orac_lines {
        let (p, o) = (
            prod_lines.as_deref().unwrap_or(&[]),
            orac_lines.as_deref().unwrap_or(&[]),
        );
        let i = p
            .iter()
            .zip(o.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(p.len().min(o.len()));
        return Err(DiffError {
            step,
            what: format!(
                "metadata cache contents diverge at frame {i}: production {:?} vs oracle {:?} \
                 (occupancy {} vs {})",
                p.get(i),
                o.get(i),
                p.len(),
                o.len()
            ),
        });
    }
    Ok(())
}

/// Replays `case` through both simulators in lockstep.
///
/// # Errors
///
/// Returns the first [`DiffError`] observed; `Ok(())` means every
/// per-access and end-of-run comparison held.
pub fn run_lockstep(case: &DiffCase) -> Result<(), DiffError> {
    let cfg = materialize_policy(&case.cfg, &case.ops, case.tenants);
    let mut prod = SecureSim::new(
        cfg.clone(),
        OpsWorkload::with_tenants(&case.ops, case.tenants),
    );
    let mut orac = OracleSim::new(cfg, OpsWorkload::with_tenants(&case.ops, case.tenants));
    let mut root_prod = 0u64;
    let mut root_orac = 0u64;

    for step in 0..case.ops.len() {
        let mut rec_prod = RecordingObserver::new();
        let mut rec_orac = RecordingObserver::new();
        prod.step_observed(&mut rec_prod);
        orac.step_observed(&mut rec_orac);

        compare_streams(step, &rec_prod.records, &rec_orac.records)?;
        root_prod = fold_root_evolution(root_prod, &rec_prod.records);
        root_orac = fold_root_evolution(root_orac, &rec_orac.records);
        if root_prod != root_orac {
            return Err(DiffError {
                step,
                what: format!("BMT root evolution diverges: {root_prod:#x} vs {root_orac:#x}"),
            });
        }
        if prod.cycles() != orac.cycles() {
            return Err(DiffError {
                step,
                what: format!(
                    "cycles diverge: production {} vs oracle {}",
                    prod.cycles(),
                    orac.cycles()
                ),
            });
        }
        if prod.hierarchy_stats() != orac.hierarchy_stats() {
            return Err(DiffError {
                step,
                what: format!(
                    "hierarchy stats diverge: production {:?} vs oracle {:?}",
                    prod.hierarchy_stats(),
                    orac.hierarchy_stats()
                ),
            });
        }
        match (prod.engine(), orac.engine()) {
            (Some(pe), Some(oe)) => {
                if pe.stats() != oe.stats() {
                    return Err(DiffError {
                        step,
                        what: format!(
                            "engine stats diverge: production {:?} vs oracle {:?}",
                            pe.stats(),
                            oe.stats()
                        ),
                    });
                }
            }
            (None, None) => {}
            _ => {
                return Err(DiffError {
                    step,
                    what: "one side has a metadata engine, the other does not".into(),
                })
            }
        }
        if step % RESIDENT_CHECK_PERIOD == RESIDENT_CHECK_PERIOD - 1 {
            compare_residents(step, &prod, &orac)?;
        }
    }

    // End of run: final contents, flush streams, and counter agreement.
    let end = case.ops.len();
    compare_residents(end, &prod, &orac)?;
    let mut rec_prod = RecordingObserver::new();
    let mut rec_orac = RecordingObserver::new();
    prod.flush_observed(&mut rec_prod);
    orac.flush_observed(&mut rec_orac);
    compare_streams(end, &rec_prod.records, &rec_orac.records)?;
    if let (Some(pe), Some(oe)) = (prod.engine(), orac.engine()) {
        if pe.stats() != oe.stats() {
            return Err(DiffError {
                step: end,
                what: format!(
                    "post-flush engine stats diverge: production {:?} vs oracle {:?}",
                    pe.stats(),
                    oe.stats()
                ),
            });
        }
        if pe.counters().overflows() != oe.counters().overflows()
            || pe.counters().writes() != oe.counters().writes()
        {
            return Err(DiffError {
                step: end,
                what: format!(
                    "counter store totals diverge: overflows {} vs {}, writes {} vs {}",
                    pe.counters().overflows(),
                    oe.counters().overflows(),
                    pe.counters().writes(),
                    oe.counters().writes()
                ),
            });
        }
        for op in &case.ops {
            let block = maps_trace::BlockAddr::new(op.block());
            if pe.counters().block_counter(block) != oe.counters().block_counter(block) {
                return Err(DiffError {
                    step: end,
                    what: format!(
                        "counter value diverges for block {}: {} vs {}",
                        op.block(),
                        pe.counters().block_counter(block),
                        oe.counters().block_counter(block)
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Shrinks a failing case to a (locally) minimal op trace with a greedy
/// delta-debugging loop: repeatedly drop chunks, halving the chunk size,
/// keeping any candidate that still diverges. Returns the input unchanged
/// if it does not fail.
pub fn minimize(case: &DiffCase) -> DiffCase {
    let fails = |ops: &[TraceOp]| {
        run_lockstep(&DiffCase {
            ops: ops.to_vec(),
            ..case.clone()
        })
        .is_err()
    };
    let mut ops = case.ops.clone();
    if ops.is_empty() || !fails(&ops) {
        return case.clone();
    }
    let mut chunk = (ops.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < ops.len() && ops.len() > 1 {
            let mut candidate = ops.clone();
            candidate.drain(i..(i + chunk).min(candidate.len()));
            if !candidate.is_empty() && fails(&candidate) {
                ops = candidate;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    DiffCase {
        ops,
        ..case.clone()
    }
}

/// Where failure artifacts are written: `results/failures/` at the
/// workspace root (compile-time anchored, so it does not depend on the
/// test runner's working directory).
pub fn failures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/failures")
}

/// Serializes a case (with the divergence it reproduces) to a `.trace`
/// artifact in `dir`, returning the file path. The header holds the
/// label, seed and tenant count, and the whole configuration on one
/// `config` line in its one encoding ([`SimConfig::to_json`]).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn dump_artifact(case: &DiffCase, err: &DiffError, dir: &Path) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let mut text = String::new();
    text.push_str("# MAPS differential failure artifact; replay with\n");
    text.push_str("#   cargo test -q --test differential replay_failure_artifacts\n");
    text.push_str(&format!("# {err}\n"));
    text.push_str(&format!("label = {}\n", case.label));
    text.push_str(&format!("seed = {}\n", case.seed));
    text.push_str(&format!("tenants = {}\n", case.tenants));
    text.push_str(&format!("config = {}\n", case.cfg.to_json().to_compact()));
    text.push_str("ops:\n");
    for op in &case.ops {
        match op {
            TraceOp::Read(b) => text.push_str(&format!("R {b}\n")),
            TraceOp::Write(b) => text.push_str(&format!("W {b}\n")),
        }
    }
    let path = dir.join(format!("{}-seed{}.trace", case.label, case.seed));
    fs::write(&path, text)?;
    Ok(path)
}

/// Parses a `.trace` artifact back into a case.
///
/// # Errors
///
/// Returns a description of the first malformed line, or of a missing
/// `config` line.
pub fn parse_artifact(text: &str) -> Result<DiffCase, String> {
    let mut cfg = None;
    let mut label = String::from("artifact");
    let mut seed = 0u64;
    let mut tenants = 1usize;
    let mut ops = Vec::new();
    let mut in_ops = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if in_ops {
            let (tag, block) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad op line {line:?}"))?;
            let block: u64 = block.trim().parse().map_err(|e| format!("{e}"))?;
            ops.push(match tag {
                "R" => TraceOp::Read(block),
                "W" => TraceOp::Write(block),
                other => return Err(format!("unknown op tag {other:?}")),
            });
            continue;
        }
        if line == "ops:" {
            in_ops = true;
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("bad header line {line:?}"))?;
        let (key, value) = (key.trim(), value.trim());
        match key {
            "label" => label = value.to_string(),
            "seed" => seed = value.parse().map_err(|e| format!("{e}"))?,
            "tenants" => {
                tenants = value.parse().map_err(|e| format!("{e}"))?;
                if !(1..=usize::from(u8::MAX)).contains(&tenants) {
                    return Err(format!("tenant count {tenants} does not fit a TenantId"));
                }
            }
            "config" => {
                let doc = Json::parse(value).map_err(|e| format!("config: {e}"))?;
                cfg = Some(SimConfig::from_json(&doc).map_err(|e| format!("config: {e}"))?);
            }
            other => return Err(format!("unknown header key {other:?}")),
        }
    }
    Ok(DiffCase {
        label,
        seed,
        cfg: cfg.ok_or("artifact has no config line")?,
        ops,
        tenants,
    })
}

/// Re-executes a dumped artifact, returning the (expected) divergence.
///
/// # Errors
///
/// `Err(Ok(diff))` is impossible — the outer error is an unreadable or
/// malformed file; the inner result is the lockstep outcome.
pub fn replay_artifact(path: &Path) -> Result<Result<(), DiffError>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let case = parse_artifact(&text)?;
    Ok(run_lockstep(&case))
}

/// Runs a case; on divergence, minimizes it, writes an artifact to
/// [`failures_dir`], and returns an error naming both.
///
/// # Errors
///
/// The [`DiffError`] of the minimized case, with the artifact path
/// appended to `what`.
pub fn check_case(case: &DiffCase) -> Result<(), DiffError> {
    let Err(first) = run_lockstep(case) else {
        return Ok(());
    };
    let minimized = minimize(case);
    let err = run_lockstep(&minimized).err().unwrap_or(first);
    let where_dumped = match dump_artifact(&minimized, &err, &failures_dir()) {
        Ok(path) => format!("artifact: {}", path.display()),
        Err(io) => format!("artifact dump failed: {io}"),
    };
    Err(DiffError {
        step: err.step,
        what: format!(
            "[{}] {} (minimized to {} of {} ops; {})",
            case.label,
            err.what,
            minimized.ops.len(),
            case.ops.len(),
            where_dumped
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_cache::Partition;
    use maps_sim::{CacheContents, MdcConfig, MdcDesign, PartitionMode};

    fn small_cfg() -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.l1_bytes = 1024;
        cfg.l2_bytes = 2048;
        cfg.llc_bytes = 4096;
        cfg.memory_bytes = 1 << 20;
        cfg.mdc = MdcConfig::paper_default().with_size(2048);
        cfg
    }

    #[test]
    fn identical_sims_pass_lockstep() {
        let case = DiffCase {
            label: "smoke".into(),
            seed: 1,
            cfg: small_cfg(),
            ops: random_ops(1, 2048, 600, 40),
            tenants: 1,
        };
        run_lockstep(&case).expect("production and oracle must agree");
    }

    #[test]
    fn artifact_roundtrips() {
        let mut cfg = small_cfg();
        cfg.mdc.partition = PartitionMode::Dynamic {
            a: Partition::counter_ways(2),
            b: Partition::counter_ways(6),
            leaders_per_side: 1,
        };
        cfg.mdc.policy = PolicyChoice::Random(77);
        let case = DiffCase {
            label: "roundtrip".into(),
            seed: 9,
            cfg,
            ops: vec![TraceOp::Read(3), TraceOp::Write(5), TraceOp::Read(3)],
            tenants: 1,
        };
        let err = DiffError {
            step: 0,
            what: "synthetic".into(),
        };
        let dir = std::env::temp_dir().join("maps-oracle-artifact-test");
        let path = dump_artifact(&case, &err, &dir).unwrap();
        let parsed = parse_artifact(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.ops, case.ops);
        assert_eq!(parsed.cfg, case.cfg);
        assert_eq!(parsed.label, case.label);
        assert_eq!(parsed.seed, case.seed);
        let _ = fs::remove_file(path);
    }

    /// A one-op artifact whose `config` line encodes `cfg`, after the
    /// `header` lines.
    fn artifact_text(header: &str, cfg: &SimConfig) -> String {
        format!(
            "{header}config = {}\nops:\nR 1\n",
            cfg.to_json().to_compact()
        )
    }

    fn with_partition(partition: PartitionMode) -> SimConfig {
        let mut cfg = small_cfg();
        cfg.mdc.partition = partition;
        cfg
    }

    #[test]
    fn artifact_with_invalid_partition_is_rejected() {
        // An invalid split must be a parse error: in release builds it
        // would otherwise clamp into a starved/overlapping way range and
        // the replayed case would silently diverge from the dumped one.
        let static_split = |k| with_partition(PartitionMode::Static(Partition::counter_ways(k)));
        let err = parse_artifact(&artifact_text("", &static_split(8))).unwrap_err();
        assert!(err.contains("partition"), "unexpected error: {err}");
        assert!(parse_artifact(&artifact_text("", &static_split(0))).is_err());
        let dynamic = with_partition(PartitionMode::Dynamic {
            a: Partition::counter_ways(2),
            b: Partition::counter_ways(9),
            leaders_per_side: 1,
        });
        assert!(parse_artifact(&artifact_text("", &dynamic)).is_err());
        assert!(parse_artifact(&artifact_text("", &static_split(4))).is_ok());
        assert!(parse_artifact("ops:\nR 1\n").is_err(), "no config line");
    }

    #[test]
    fn minimize_shrinks_synthetic_failure() {
        // A case whose cfg cannot fail lockstep; force failure by giving
        // the two sides different traces is impossible through the public
        // API, so instead check minimize() is the identity on passers.
        let case = DiffCase {
            label: "passing".into(),
            seed: 3,
            cfg: small_cfg(),
            ops: random_ops(3, 1024, 120, 30),
            tenants: 1,
        };
        let out = minimize(&case);
        assert_eq!(out.ops, case.ops, "passing cases must not shrink");
    }

    #[test]
    fn min_sentinel_is_materialized() {
        let mut cfg = small_cfg();
        cfg.mdc.policy = PolicyChoice::Min(Vec::new());
        let case = DiffCase {
            label: "min-sentinel".into(),
            seed: 4,
            cfg,
            ops: random_ops(4, 1024, 400, 35),
            tenants: 1,
        };
        run_lockstep(&case).expect("MIN with derived trace must agree");
    }

    #[test]
    fn randomized_design_passes_lockstep() {
        let mut cfg = small_cfg();
        cfg.mdc = cfg.mdc.with_design(MdcDesign::Randomized { seed: 0xA5 });
        let case = DiffCase {
            label: "randomized-smoke".into(),
            seed: 5,
            cfg,
            ops: random_ops(5, 2048, 600, 40),
            tenants: 1,
        };
        run_lockstep(&case).expect("randomized backend must agree with its spec");
    }

    #[test]
    fn multi_tenant_artifact_roundtrips() {
        let mut cfg = small_cfg();
        cfg.mdc = cfg
            .mdc
            .with_design(MdcDesign::Randomized { seed: 31 })
            .with_partition(PartitionMode::PerTenant { tenants: 3 });
        let case = DiffCase {
            label: "tenant-roundtrip".into(),
            seed: 6,
            cfg,
            ops: vec![TraceOp::Write(1), TraceOp::Read(2)],
            tenants: 3,
        };
        let err = DiffError {
            step: 0,
            what: "synthetic".into(),
        };
        let dir = std::env::temp_dir().join("maps-oracle-artifact-test-tenant");
        let path = dump_artifact(&case, &err, &dir).unwrap();
        let parsed = parse_artifact(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.cfg, case.cfg);
        assert_eq!(parsed.tenants, case.tenants);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn artifact_with_starving_tenant_split_is_rejected() {
        // Set-associative per-tenant splits obey checked construction:
        // more tenants than ways would starve someone. The randomized
        // design has no such limit (quotas, not way ranges), but still
        // needs a tenant.
        let tenant_split = |tenants, design| {
            let mut cfg = with_partition(PartitionMode::PerTenant { tenants });
            cfg.mdc.ways = 4;
            cfg.mdc.design = design;
            cfg
        };
        let randomized = MdcDesign::Randomized { seed: 7 };
        let err =
            parse_artifact(&artifact_text("", &tenant_split(5, MdcDesign::SetAssoc))).unwrap_err();
        assert!(err.contains("partition"), "unexpected error: {err}");
        let ok = artifact_text("tenants = 4\n", &tenant_split(4, MdcDesign::SetAssoc));
        assert_eq!(parse_artifact(&ok).unwrap().tenants, 4);
        assert!(parse_artifact(&artifact_text("", &tenant_split(5, randomized))).is_ok());
        assert!(parse_artifact(&artifact_text("", &tenant_split(0, randomized))).is_err());
        let bad_tenants = artifact_text("tenants = 0\n", &small_cfg());
        assert!(parse_artifact(&bad_tenants).is_err());
    }

    #[test]
    fn every_config_field_survives_the_artifact() {
        // The config line is the lossless encoding: every cacheable-type
        // subset, SGX counters, a non-default warm-up and DRAM energy, and
        // the MIN sentinel (whose oracle trace is derived again on replay)
        // load back unchanged.
        let err = DiffError {
            step: 0,
            what: "synthetic".into(),
        };
        let dir = std::env::temp_dir().join("maps-oracle-artifact-test-fields");
        for bits in 0..8u8 {
            let mut cfg = small_cfg();
            cfg.mdc.contents = CacheContents {
                counters: bits & 1 != 0,
                hashes: bits & 2 != 0,
                tree: bits & 4 != 0,
            };
            cfg.mdc.policy = if bits % 2 == 0 {
                PolicyChoice::Min(Vec::new())
            } else {
                PolicyChoice::EvaPerType
            };
            cfg.counter_mode = maps_secure::CounterMode::SgxMonolithic;
            cfg.warmup_fraction = 0.25;
            cfg.dram.energy_per_bit_pj = 12.5;
            cfg.dram.background_pj_per_cycle = 0.75;
            let case = DiffCase {
                label: format!("fields-{}", cfg.mdc.contents.label()),
                seed: u64::from(bits),
                cfg,
                ops: vec![TraceOp::Write(2), TraceOp::Read(2)],
                tenants: 1,
            };
            let path = dump_artifact(&case, &err, &dir).unwrap();
            let parsed = parse_artifact(&fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(parsed.cfg, case.cfg, "{}", case.label);
            let _ = fs::remove_file(path);
        }
    }
}
