//! Simulation configuration (Table I defaults).

use maps_cache::policy::AnyPolicy;
use maps_cache::Partition;
use maps_mem::DramModel;
use maps_secure::{CounterMode, SecureConfig};

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

    /// The secure-memory configuration implied by this simulation config.
    pub fn secure_config(&self) -> SecureConfig {
        SecureConfig::new(self.memory_bytes, self.counter_mode)
    }

    /// Warm-up accesses of an `accesses`-long run: `warmup_fraction` of
    /// it, clamped to the run. The direct run and the capture recorder
    /// both split here, so a fraction above 1 warms the whole run and
    /// leaves an empty measured window on both alike.
    pub(crate) fn warmup_accesses(&self, accesses: u64) -> u64 {
        ((accesses as f64 * self.warmup_fraction) as u64).min(accesses)
    }
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
