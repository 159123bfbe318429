//! Simulation configuration (Table I defaults) and its one encoding.
//!
//! [`SimConfig::to_json`] is the only encoding of a configuration. Run
//! manifests embed it, every farm point fingerprint hashes it, the farm
//! daemon ships it to worker processes inside each job, and differential
//! failure artifacts carry it on their `config` line. Every
//! outcome-bearing field is written, so two configurations that can
//! simulate differently never share an encoding, and
//! [`SimConfig::from_json`] rebuilds the configuration *exactly*. Floats
//! travel as raw IEEE-754 bits (`f64::to_bits`, the `SimReport`
//! discipline), and every malformed document decodes to a typed
//! [`CodecError`], never a panic, because the farm daemon feeds the
//! decoder bytes that crossed a socket.
//!
//! Field coverage is checked by the compiler: each encoder destructures
//! its struct without `..` and each decoder builds it with a literal that
//! names every field, so a new field that no codec handles fails to build.
//!
//! The one deliberate hole: [`PolicyChoice::Min`]/[`PolicyChoice::TraceMin`]
//! carry a recorded oracle trace that can run to millions of entries. The
//! encoding writes their name only, and the decoder reads the name back
//! with an *empty* trace: the sentinel the differential harness fills in
//! by re-deriving the trace. Farm jobs refuse both policies.

use maps_cache::policy::AnyPolicy;
use maps_cache::Partition;
use maps_mem::DramModel;
use maps_obs::{CodecError, Json};
use maps_secure::CounterMode;

/// Which metadata types the metadata cache may hold (Figure 1 evaluates
/// three of these combinations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheContents {
    /// Counters may be cached.
    pub counters: bool,
    /// Data hashes may be cached.
    pub hashes: bool,
    /// Tree nodes may be cached.
    pub tree: bool,
}

impl CacheContents {
    /// Cache every metadata type (the paper's recommendation).
    pub const ALL: CacheContents = CacheContents {
        counters: true,
        hashes: true,
        tree: true,
    };
    /// Counters only (Rogers et al.-style counter cache).
    pub const COUNTERS_ONLY: CacheContents = CacheContents {
        counters: true,
        hashes: false,
        tree: false,
    };
    /// Counters and hashes, no tree.
    pub const COUNTERS_AND_HASHES: CacheContents = CacheContents {
        counters: true,
        hashes: true,
        tree: false,
    };
    /// Nothing cacheable (metadata-cache-less baseline used for the reuse
    /// characterization in Figures 3–5).
    pub const NONE: CacheContents = CacheContents {
        counters: false,
        hashes: false,
        tree: false,
    };

    /// Whether a metadata kind is admitted.
    pub fn admits(&self, kind: maps_trace::BlockKind) -> bool {
        match kind {
            maps_trace::BlockKind::Counter => self.counters,
            maps_trace::BlockKind::Hash => self.hashes,
            maps_trace::BlockKind::Tree(_) => self.tree,
            maps_trace::BlockKind::Data => false,
        }
    }

    /// Label used in Figure 1 rows.
    pub fn label(&self) -> &'static str {
        match (self.counters, self.hashes, self.tree) {
            (true, true, true) => "all",
            (true, true, false) => "counters+hashes",
            (true, false, false) => "counters",
            (false, false, false) => "none",
            (true, false, true) => "counters+tree",
            (false, true, true) => "hashes+tree",
            (false, true, false) => "hashes",
            (false, false, true) => "tree",
        }
    }
}

/// Replacement policy selection for the metadata cache.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyChoice {
    /// Tree pseudo-LRU (default hardware baseline).
    PseudoLru,
    /// Exact LRU.
    TrueLru,
    /// FIFO.
    Fifo,
    /// Seeded random.
    Random(u64),
    /// SRRIP.
    Srrip,
    /// EVA.
    Eva,
    /// Belady MIN with the given recorded key trace as its oracle
    /// (keyed, divergence-tolerant lookup).
    Min(Vec<u64>),
    /// Belady MIN with the paper's positional oracle, whose future
    /// knowledge silently goes stale after trace divergence (Section V-B).
    TraceMin(Vec<u64>),
    /// Cost-aware, type-aware eviction with the given relative counter
    /// miss cost (Section VI's future-work direction).
    CostAware(u64),
    /// DRRIP set-dueling insertion.
    Drrip,
    /// EVA with per-metadata-type histograms (extension of Section V-A).
    EvaPerType,
}

impl PolicyChoice {
    /// Instantiates the policy.
    pub fn build(&self) -> AnyPolicy {
        match self {
            PolicyChoice::PseudoLru => AnyPolicy::pseudo_lru(),
            PolicyChoice::TrueLru => AnyPolicy::true_lru(),
            PolicyChoice::Fifo => AnyPolicy::fifo(),
            PolicyChoice::Random(seed) => AnyPolicy::random(*seed),
            PolicyChoice::Srrip => AnyPolicy::srrip(),
            PolicyChoice::Eva => AnyPolicy::eva(),
            PolicyChoice::Min(trace) => AnyPolicy::min_from_trace(trace),
            PolicyChoice::TraceMin(trace) => AnyPolicy::trace_min_from_trace(trace),
            PolicyChoice::CostAware(cost) => AnyPolicy::cost_aware(*cost),
            PolicyChoice::Drrip => AnyPolicy::drrip(),
            PolicyChoice::EvaPerType => AnyPolicy::eva_per_type(),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyChoice::PseudoLru => "pseudo-lru",
            PolicyChoice::TrueLru => "true-lru",
            PolicyChoice::Fifo => "fifo",
            PolicyChoice::Random(_) => "random",
            PolicyChoice::Srrip => "srrip",
            PolicyChoice::Eva => "eva",
            PolicyChoice::Min(_) => "min",
            PolicyChoice::TraceMin(_) => "trace-min",
            PolicyChoice::CostAware(_) => "cost-aware",
            PolicyChoice::Drrip => "drrip",
            PolicyChoice::EvaPerType => "eva-per-type",
        }
    }
}

/// Partitioning mode for the metadata cache (Figure 7 and the
/// multi-tenant scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMode {
    /// No partition: all types compete for all ways.
    None,
    /// Static counter/hash way split.
    Static(Partition),
    /// Set dueling between two candidate splits.
    Dynamic {
        /// First competing split.
        a: Partition,
        /// Second competing split.
        b: Partition,
        /// Leader sets per side.
        leaders_per_side: usize,
    },
    /// Static per-tenant split: each tenant's fills are confined to an
    /// even share of the ways (set-associative design) or to a frame
    /// quota (randomized design). Hits stay range-unrestricted.
    PerTenant {
        /// Number of tenants sharing the cache.
        tenants: usize,
    },
}

/// Structural design of the metadata cache.
///
/// The paper's design is a conventional set-associative cache; the
/// randomized alternative is a MIRAGE-style fully-associative cache with
/// keyed tag indexing and global-random eviction, evaluated by the
/// occupancy-channel scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdcDesign {
    /// Conventional set-associative cache (the paper's design).
    SetAssoc,
    /// Fully-associative randomized cache
    /// ([`RandomizedCache`](maps_cache::RandomizedCache)). Replacement
    /// policy and counter/hash partitioning knobs are structural no-ops
    /// under this design; `PerTenant` partitioning maps to a frame quota.
    Randomized {
        /// Seed keying the skew hashes and the eviction RNG.
        seed: u64,
    },
}

impl MdcDesign {
    /// Display name used in manifests and figure rows.
    pub fn name(&self) -> &'static str {
        match self {
            MdcDesign::SetAssoc => "set-assoc",
            MdcDesign::Randomized { .. } => "randomized",
        }
    }
}

/// Metadata cache configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MdcConfig {
    /// Capacity in bytes; 0 disables the metadata cache entirely.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Which types may be cached.
    pub contents: CacheContents,
    /// Replacement policy.
    pub policy: PolicyChoice,
    /// Partitioning mode.
    pub partition: PartitionMode,
    /// Enable partial writes for hash/tree updates (Section IV-E).
    pub partial_writes: bool,
    /// Structural design (set-associative vs randomized).
    pub design: MdcDesign,
}

impl MdcConfig {
    /// 64 KB, 8-way, all types, pseudo-LRU, no partition — the
    /// configuration Figure 6 centres on.
    pub fn paper_default() -> Self {
        Self {
            size_bytes: 64 * 1024,
            ways: 8,
            contents: CacheContents::ALL,
            policy: PolicyChoice::PseudoLru,
            partition: PartitionMode::None,
            partial_writes: false,
            design: MdcDesign::SetAssoc,
        }
    }

    /// Disables the metadata cache (every metadata access goes to DRAM).
    pub fn disabled() -> Self {
        Self {
            size_bytes: 0,
            ..Self::paper_default()
        }
    }

    /// Returns a copy with a different capacity.
    pub fn with_size(&self, size_bytes: u64) -> Self {
        Self {
            size_bytes,
            ..self.clone()
        }
    }

    /// Returns a copy with different contents.
    pub fn with_contents(&self, contents: CacheContents) -> Self {
        Self {
            contents,
            ..self.clone()
        }
    }

    /// Returns a copy with a different policy.
    pub fn with_policy(&self, policy: PolicyChoice) -> Self {
        Self {
            policy,
            ..self.clone()
        }
    }

    /// Returns a copy with a different partitioning mode.
    pub fn with_partition(&self, partition: PartitionMode) -> Self {
        Self {
            partition,
            ..self.clone()
        }
    }

    /// Returns a copy with a different structural design.
    pub fn with_design(&self, design: MdcDesign) -> Self {
        Self {
            design,
            ..self.clone()
        }
    }
}

/// Full simulation configuration; defaults follow Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// L1 data cache size in bytes (32 KB, 8-way in Table I).
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 size in bytes (256 KB, 8-way).
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// LLC size in bytes (2 MB, 8-way).
    pub llc_bytes: u64,
    /// LLC associativity.
    pub llc_ways: usize,
    /// Protected memory size in bytes (sized to the workload when larger).
    pub memory_bytes: u64,
    /// Counter organization.
    pub counter_mode: CounterMode,
    /// Metadata cache configuration.
    pub mdc: MdcConfig,
    /// DRAM model.
    pub dram: DramModel,
    /// Hash (HMAC/AES) pipeline latency in cycles (Table I: 40).
    pub hash_latency: u64,
    /// Whether the core speculates around integrity verification
    /// (PoisonIvy \[12\]); Figures assume it does.
    pub speculation: bool,
    /// Maximum verification latency (cycles) the speculation mechanism can
    /// hide; `u64::MAX` (the default) models an unbounded window, `0`
    /// behaves like no speculation.
    pub speculation_window: u64,
    /// Whether secure memory is enabled at all (off = insecure baseline
    /// used for normalization in Figures 2 and 7).
    pub secure: bool,
    /// Fraction of the run treated as warm-up (statistics reset after it).
    pub warmup_fraction: f64,
}

impl SimConfig {
    /// Table I configuration: 32 KB L1, 256 KB L2, 2 MB LLC (all 8-way),
    /// 4 GB memory, 40-cycle hash latency, split counters, speculation on,
    /// 64 KB all-types pseudo-LRU metadata cache.
    pub fn paper_default() -> Self {
        Self {
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l2_bytes: 256 * 1024,
            l2_ways: 8,
            llc_bytes: 2 * 1024 * 1024,
            llc_ways: 8,
            memory_bytes: 4 << 30,
            counter_mode: CounterMode::SplitPi,
            mdc: MdcConfig::paper_default(),
            dram: DramModel::paper_default(),
            hash_latency: 40,
            speculation: true,
            speculation_window: u64::MAX,
            secure: true,
            warmup_fraction: 0.1,
        }
    }

    /// The insecure-memory baseline used for Figure 2/7 normalization:
    /// same hierarchy, secure memory off.
    pub fn insecure_baseline() -> Self {
        Self {
            secure: false,
            mdc: MdcConfig::disabled(),
            ..Self::paper_default()
        }
    }

    /// Returns a copy with a different LLC capacity.
    pub fn with_llc_bytes(&self, llc_bytes: u64) -> Self {
        Self {
            llc_bytes,
            ..self.clone()
        }
    }

    /// Returns a copy with a different metadata cache configuration.
    pub fn with_mdc(&self, mdc: MdcConfig) -> Self {
        Self {
            mdc,
            ..self.clone()
        }
    }

    /// Encodes the configuration: the manifest `config` block, the text
    /// every point fingerprint hashes, the `cfg` of a worker job and the
    /// `config` line of a failure artifact. Lossless but for MIN oracle
    /// traces, which are written by name only (see the module docs).
    pub fn to_json(&self) -> Json {
        let SimConfig {
            l1_bytes,
            l1_ways,
            l2_bytes,
            l2_ways,
            llc_bytes,
            llc_ways,
            memory_bytes,
            counter_mode,
            mdc,
            dram,
            hash_latency,
            speculation,
            speculation_window,
            secure,
            warmup_fraction,
        } = self;
        let counter_mode = match counter_mode {
            CounterMode::SplitPi => "split-pi",
            CounterMode::SgxMonolithic => "sgx-monolithic",
        };
        Json::Obj(vec![
            ("l1_bytes".into(), Json::UInt(*l1_bytes)),
            ("l1_ways".into(), Json::UInt(*l1_ways as u64)),
            ("l2_bytes".into(), Json::UInt(*l2_bytes)),
            ("l2_ways".into(), Json::UInt(*l2_ways as u64)),
            ("llc_bytes".into(), Json::UInt(*llc_bytes)),
            ("llc_ways".into(), Json::UInt(*llc_ways as u64)),
            ("memory_bytes".into(), Json::UInt(*memory_bytes)),
            ("counter_mode".into(), Json::Str(counter_mode.into())),
            ("mdc".into(), mdc_to_json(mdc)),
            ("dram".into(), dram_to_json(dram)),
            ("hash_latency".into(), Json::UInt(*hash_latency)),
            ("speculation".into(), Json::Bool(*speculation)),
            ("speculation_window".into(), Json::UInt(*speculation_window)),
            ("secure".into(), Json::Bool(*secure)),
            (
                "warmup_fraction_bits".into(),
                Json::UInt(warmup_fraction.to_bits()),
            ),
        ])
    }

    /// Decodes a configuration written by [`SimConfig::to_json`]. A MIN
    /// policy comes back with an empty oracle trace.
    ///
    /// # Errors
    ///
    /// [`CodecError::Missing`] or [`CodecError::Invalid`] for a missing or
    /// mistyped field, an unknown name, or a partition that would starve
    /// a metadata type or a tenant.
    pub fn from_json(doc: &Json) -> Result<Self, CodecError> {
        let mdc_doc = doc.field("mdc")?;
        let contents_doc = mdc_doc.field("contents")?;
        let contents = CacheContents {
            counters: contents_doc.bool_field("counters")?,
            hashes: contents_doc.bool_field("hashes")?,
            tree: contents_doc.bool_field("tree")?,
        };
        let ways = mdc_doc.usize_field("ways")?;
        let design = design_from_json(mdc_doc.field("design")?)?;
        let mdc = MdcConfig {
            size_bytes: mdc_doc.u64_field("size_bytes")?,
            ways,
            contents,
            policy: policy_from_json(mdc_doc.field("policy")?)?,
            partition: partition_from_json(mdc_doc.field("partition")?, ways, design)?,
            partial_writes: mdc_doc.bool_field("partial_writes")?,
            design,
        };
        let counter_mode = match doc.str_field("counter_mode")? {
            "split-pi" => CounterMode::SplitPi,
            "sgx-monolithic" => CounterMode::SgxMonolithic,
            other => {
                return Err(CodecError::invalid(
                    "cfg.counter_mode",
                    format!("unknown mode '{other}'"),
                ))
            }
        };
        let dram_doc = doc.field("dram")?;
        let dram = DramModel {
            latency_cycles: dram_doc.u64_field("latency_cycles")?,
            energy_per_bit_pj: dram_doc.f64_bits_field("energy_per_bit_pj_bits")?,
            background_pj_per_cycle: dram_doc.f64_bits_field("background_pj_per_cycle_bits")?,
        };
        Ok(SimConfig {
            l1_bytes: doc.u64_field("l1_bytes")?,
            l1_ways: doc.usize_field("l1_ways")?,
            l2_bytes: doc.u64_field("l2_bytes")?,
            l2_ways: doc.usize_field("l2_ways")?,
            llc_bytes: doc.u64_field("llc_bytes")?,
            llc_ways: doc.usize_field("llc_ways")?,
            memory_bytes: doc.u64_field("memory_bytes")?,
            counter_mode,
            mdc,
            dram,
            hash_latency: doc.u64_field("hash_latency")?,
            speculation: doc.bool_field("speculation")?,
            speculation_window: doc.u64_field("speculation_window")?,
            secure: doc.bool_field("secure")?,
            warmup_fraction: doc.f64_bits_field("warmup_fraction_bits")?,
        })
    }

    /// Warm-up accesses of an `accesses`-long run: `warmup_fraction` of
    /// it, clamped to the run. The direct run and the capture recorder
    /// both split here, so a fraction above 1 warms the whole run and
    /// leaves an empty measured window on both alike.
    pub(crate) fn warmup_accesses(&self, accesses: u64) -> u64 {
        ((accesses as f64 * self.warmup_fraction) as u64).min(accesses)
    }
}

/// A policy by name plus its parameter; MIN oracle traces are written by
/// name only (see the module docs).
fn policy_to_json(policy: &PolicyChoice) -> Json {
    let mut fields = vec![("name".to_string(), Json::Str(policy.name().into()))];
    match policy {
        PolicyChoice::Random(seed) => fields.push(("seed".into(), Json::UInt(*seed))),
        PolicyChoice::CostAware(cost) => fields.push(("cost".into(), Json::UInt(*cost))),
        PolicyChoice::Min(_) | PolicyChoice::TraceMin(_) => {}
        PolicyChoice::PseudoLru
        | PolicyChoice::TrueLru
        | PolicyChoice::Fifo
        | PolicyChoice::Srrip
        | PolicyChoice::Eva
        | PolicyChoice::Drrip
        | PolicyChoice::EvaPerType => {}
    }
    Json::Obj(fields)
}

fn policy_from_json(doc: &Json) -> Result<PolicyChoice, CodecError> {
    let name = doc.str_field("name")?;
    Ok(match name {
        "pseudo-lru" => PolicyChoice::PseudoLru,
        "true-lru" => PolicyChoice::TrueLru,
        "fifo" => PolicyChoice::Fifo,
        "random" => PolicyChoice::Random(doc.u64_field("seed")?),
        "srrip" => PolicyChoice::Srrip,
        "eva" => PolicyChoice::Eva,
        "min" => PolicyChoice::Min(Vec::new()),
        "trace-min" => PolicyChoice::TraceMin(Vec::new()),
        "cost-aware" => PolicyChoice::CostAware(doc.u64_field("cost")?),
        "drrip" => PolicyChoice::Drrip,
        "eva-per-type" => PolicyChoice::EvaPerType,
        other => {
            return Err(CodecError::invalid(
                "cfg.mdc.policy.name",
                format!("unknown policy '{other}'"),
            ))
        }
    })
}

fn partition_to_json(partition: &PartitionMode) -> Json {
    match partition {
        PartitionMode::None => Json::Obj(vec![("mode".into(), Json::Str("none".into()))]),
        PartitionMode::Static(p) => Json::Obj(vec![
            ("mode".into(), Json::Str("static".into())),
            (
                "counter_ways".into(),
                Json::UInt(p.counter_way_count() as u64),
            ),
        ]),
        PartitionMode::Dynamic {
            a,
            b,
            leaders_per_side,
        } => Json::Obj(vec![
            ("mode".into(), Json::Str("dynamic".into())),
            (
                "a_counter_ways".into(),
                Json::UInt(a.counter_way_count() as u64),
            ),
            (
                "b_counter_ways".into(),
                Json::UInt(b.counter_way_count() as u64),
            ),
            (
                "leaders_per_side".into(),
                Json::UInt(*leaders_per_side as u64),
            ),
        ]),
        PartitionMode::PerTenant { tenants } => Json::Obj(vec![
            ("mode".into(), Json::Str("per-tenant".into())),
            ("tenants".into(), Json::UInt(*tenants as u64)),
        ]),
    }
}

/// Rebuilds a [`Partition`] from its counter-way count; the total way
/// count comes from the surrounding `mdc.ways`.
fn partition_ways(
    counter_ways: usize,
    ways: usize,
    field: &'static str,
) -> Result<Partition, CodecError> {
    Partition::new(counter_ways, ways).map_err(|e| CodecError::invalid(field, e.to_string()))
}

fn partition_from_json(
    doc: &Json,
    ways: usize,
    design: MdcDesign,
) -> Result<PartitionMode, CodecError> {
    Ok(match doc.str_field("mode")? {
        "none" => PartitionMode::None,
        "static" => PartitionMode::Static(partition_ways(
            doc.usize_field("counter_ways")?,
            ways,
            "cfg.mdc.partition.counter_ways",
        )?),
        "dynamic" => PartitionMode::Dynamic {
            a: partition_ways(
                doc.usize_field("a_counter_ways")?,
                ways,
                "cfg.mdc.partition.a_counter_ways",
            )?,
            b: partition_ways(
                doc.usize_field("b_counter_ways")?,
                ways,
                "cfg.mdc.partition.b_counter_ways",
            )?,
            leaders_per_side: doc.usize_field("leaders_per_side")?,
        },
        "per-tenant" => {
            let tenants = doc.usize_field("tenants")?;
            // A set-associative split gives each tenant whole ways; the
            // randomized design enforces frame quotas, which need only a
            // positive tenant count.
            if tenants == 0 || (design == MdcDesign::SetAssoc && tenants > ways) {
                return Err(CodecError::invalid(
                    "cfg.mdc.partition.tenants",
                    format!(
                        "{tenants} tenant(s) cannot share a {ways}-way {} cache",
                        design.name()
                    ),
                ));
            }
            PartitionMode::PerTenant { tenants }
        }
        other => {
            return Err(CodecError::invalid(
                "cfg.mdc.partition.mode",
                format!("unknown mode '{other}'"),
            ))
        }
    })
}

fn design_to_json(design: &MdcDesign) -> Json {
    let mut fields = vec![("kind".to_string(), Json::Str(design.name().into()))];
    match design {
        MdcDesign::SetAssoc => {}
        MdcDesign::Randomized { seed } => fields.push(("seed".into(), Json::UInt(*seed))),
    }
    Json::Obj(fields)
}

fn design_from_json(doc: &Json) -> Result<MdcDesign, CodecError> {
    Ok(match doc.str_field("kind")? {
        "set-assoc" => MdcDesign::SetAssoc,
        "randomized" => MdcDesign::Randomized {
            seed: doc.u64_field("seed")?,
        },
        other => {
            return Err(CodecError::invalid(
                "cfg.mdc.design.kind",
                format!("unknown kind '{other}'"),
            ))
        }
    })
}

fn mdc_to_json(mdc: &MdcConfig) -> Json {
    let MdcConfig {
        size_bytes,
        ways,
        contents,
        policy,
        partition,
        partial_writes,
        design,
    } = mdc;
    let CacheContents {
        counters,
        hashes,
        tree,
    } = contents;
    let contents = Json::Obj(vec![
        ("counters".into(), Json::Bool(*counters)),
        ("hashes".into(), Json::Bool(*hashes)),
        ("tree".into(), Json::Bool(*tree)),
    ]);
    Json::Obj(vec![
        ("size_bytes".into(), Json::UInt(*size_bytes)),
        ("ways".into(), Json::UInt(*ways as u64)),
        ("contents".into(), contents),
        ("policy".into(), policy_to_json(policy)),
        ("partition".into(), partition_to_json(partition)),
        ("partial_writes".into(), Json::Bool(*partial_writes)),
        ("design".into(), design_to_json(design)),
    ])
}

fn dram_to_json(dram: &DramModel) -> Json {
    let DramModel {
        latency_cycles,
        energy_per_bit_pj,
        background_pj_per_cycle,
    } = dram;
    Json::Obj(vec![
        ("latency_cycles".into(), Json::UInt(*latency_cycles)),
        (
            "energy_per_bit_pj_bits".into(),
            Json::UInt(energy_per_bit_pj.to_bits()),
        ),
        (
            "background_pj_per_cycle_bits".into(),
            Json::UInt(background_pj_per_cycle.to_bits()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_trace::BlockKind;

    #[test]
    fn table1_defaults() {
        let c = SimConfig::paper_default();
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l2_bytes, 256 * 1024);
        assert_eq!(c.llc_bytes, 2 * 1024 * 1024);
        assert_eq!((c.l1_ways, c.l2_ways, c.llc_ways), (8, 8, 8));
        assert_eq!(c.memory_bytes, 4 << 30);
        assert_eq!(c.hash_latency, 40);
        assert!(c.speculation);
    }

    #[test]
    fn contents_admission() {
        assert!(CacheContents::ALL.admits(BlockKind::Tree(2)));
        assert!(!CacheContents::COUNTERS_ONLY.admits(BlockKind::Hash));
        assert!(CacheContents::COUNTERS_AND_HASHES.admits(BlockKind::Hash));
        assert!(!CacheContents::COUNTERS_AND_HASHES.admits(BlockKind::Tree(0)));
        assert!(!CacheContents::ALL.admits(BlockKind::Data));
        assert_eq!(CacheContents::ALL.label(), "all");
    }

    #[test]
    fn policy_choice_builds() {
        for p in [
            PolicyChoice::PseudoLru,
            PolicyChoice::TrueLru,
            PolicyChoice::Eva,
            PolicyChoice::Min(vec![1, 2, 3]),
        ] {
            let _ = p.build();
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn insecure_baseline_disables_everything() {
        let c = SimConfig::insecure_baseline();
        assert!(!c.secure);
        assert_eq!(c.mdc.size_bytes, 0);
    }
}
