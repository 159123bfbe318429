//! The unified metadata cache at the memory controller.
//!
//! Two structural designs sit behind one interface: the paper's
//! set-associative cache and a MIRAGE-style fully-associative randomized
//! cache ([`MdcDesign`]). Every policy knob, the differential oracle, and
//! the fault campaigns drive both through the same entry points; accesses
//! carry the requesting [`TenantId`], and each call books its access,
//! eviction and fill straight to that tenant, so per-tenant statistics
//! sum to the cache's own counters for any interleaving (checked after
//! every access in debug builds).

use maps_cache::policy::AnyPolicy;
use maps_cache::{
    AccessResult, CacheConfig, CacheStats, DuelingController, Line, RandomizedCache, SetAssocCache,
    TenantPartition, TenantStatsTable,
};
use maps_trace::{BlockKind, TenantId};

use crate::config::{CacheContents, MdcConfig, MdcDesign, PartitionMode};

/// Outcome of a metadata cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Line evicted to make room, if any.
    pub evicted: Option<Line>,
    /// The frame that holds the key after the call: the one that hit, or
    /// the one the fill used (see [`MetadataCache::complete_frame`]).
    /// `None` when the kind is not admitted under the contents
    /// configuration, so the call was a statistics-only probe.
    pub frame: Option<usize>,
}

impl MdOutcome {
    /// Whether the kind was not admitted (the call only probed).
    pub const fn bypassed(&self) -> bool {
        self.frame.is_none()
    }

    const fn bypass(hit: bool) -> Self {
        Self {
            hit,
            evicted: None,
            frame: None,
        }
    }

    const fn admitted(r: AccessResult) -> Self {
        Self {
            hit: r.hit,
            evicted: r.evicted,
            frame: Some(r.frame),
        }
    }
}

/// The pluggable cache core behind the metadata-cache interface.
#[derive(Debug)]
enum Backend {
    /// Set-associative (the paper's design).
    Set(SetAssocCache<AnyPolicy>),
    /// Fully-associative randomized (MIRAGE-style).
    Rand(RandomizedCache),
}

/// A metadata cache holding (a configurable subset of) counters, hashes,
/// and tree nodes, with optional way partitioning, set dueling, and
/// per-tenant accounting.
///
/// # Examples
///
/// ```
/// use maps_sim::{MdcConfig, MetadataCache};
/// use maps_trace::{BlockKind, TenantId};
///
/// let mut mdc = MetadataCache::new(&MdcConfig::paper_default()).unwrap();
/// let miss = mdc.access(100, BlockKind::Counter, false, TenantId::HOST);
/// assert!(!miss.hit);
/// assert!(mdc.access(100, BlockKind::Counter, false, TenantId::HOST).hit);
/// ```
#[derive(Debug)]
pub struct MetadataCache {
    backend: Backend,
    contents: CacheContents,
    partial_writes: bool,
    dueling: Option<DuelingController>,
    /// Per-tenant way split (set-associative design; the randomized
    /// design enforces the equivalent frame quota internally).
    tenant_split: Option<TenantPartition>,
    ways: usize,
    tenants: TenantStatsTable,
}

impl MetadataCache {
    /// Builds the cache, or `None` when the configuration disables it
    /// (zero capacity).
    ///
    /// Under the randomized design, replacement policy and counter/hash
    /// partitions (static or dueling) are structural no-ops — there are
    /// no ways to partition and eviction is global-random by design;
    /// [`PartitionMode::PerTenant`] maps to a per-tenant frame quota.
    ///
    /// # Panics
    ///
    /// Panics if a static partition is invalid for the associativity, if
    /// a dynamic partition requests more leader sets than exist, or if a
    /// per-tenant split would starve a tenant.
    pub fn new(cfg: &MdcConfig) -> Option<Self> {
        if cfg.size_bytes == 0 {
            return None;
        }
        let mut dueling = None;
        let mut tenant_split = None;
        let backend = match cfg.design {
            MdcDesign::SetAssoc => {
                let geometry = CacheConfig::from_bytes(cfg.size_bytes, cfg.ways);
                let mut cache = SetAssocCache::new(geometry, cfg.policy.build());
                match cfg.partition {
                    PartitionMode::None => {}
                    PartitionMode::Static(p) => cache.set_partition(Some(p)),
                    PartitionMode::Dynamic {
                        a,
                        b,
                        leaders_per_side,
                    } => {
                        dueling = Some(DuelingController::new(
                            geometry.sets(),
                            cfg.ways,
                            leaders_per_side,
                            a,
                            b,
                        ));
                    }
                    PartitionMode::PerTenant { tenants } => {
                        tenant_split = Some(
                            TenantPartition::new(tenants, cfg.ways)
                                .expect("per-tenant split must give every tenant a way"),
                        );
                    }
                }
                Backend::Set(cache)
            }
            MdcDesign::Randomized { seed } => {
                let mut cache = RandomizedCache::new(cfg.size_bytes, cfg.ways, seed);
                if let PartitionMode::PerTenant { tenants } = cfg.partition {
                    cache.set_tenant_quota(tenants);
                }
                Backend::Rand(cache)
            }
        };
        let frames = match &backend {
            Backend::Set(c) => c.config().blocks(),
            Backend::Rand(c) => c.capacity(),
        };
        Some(Self {
            backend,
            contents: cfg.contents,
            partial_writes: cfg.partial_writes,
            dueling,
            tenant_split,
            ways: cfg.ways,
            tenants: TenantStatsTable::new(frames),
        })
    }

    /// Which metadata types this cache admits.
    pub fn contents(&self) -> CacheContents {
        self.contents
    }

    /// Whether partial writes are enabled.
    pub fn partial_writes_enabled(&self) -> bool {
        self.partial_writes
    }

    /// Accumulated statistics (bypassed kinds are counted as misses).
    pub fn stats(&self) -> &CacheStats {
        match &self.backend {
            Backend::Set(c) => c.stats(),
            Backend::Rand(c) => c.stats(),
        }
    }

    /// Per-tenant statistics and occupancy. Attribution is requester-pays,
    /// and every access is booked, so for any interleaving the per-tenant
    /// counters sum to [`MetadataCache::stats`] over the same interval.
    pub fn tenant_stats(&self) -> &TenantStatsTable {
        &self.tenants
    }

    /// Resets statistics after warm-up (the per-tenant occupancy ledger
    /// persists with the cache contents).
    pub fn reset_stats(&mut self) {
        match &mut self.backend {
            Backend::Set(c) => c.reset_stats(),
            Backend::Rand(c) => c.reset_stats(),
        }
        self.tenants.reset_stats();
    }

    /// Accesses a metadata block on behalf of `tenant`. Non-admitted
    /// kinds are probed for statistics and bypass allocation.
    #[inline]
    pub fn access(
        &mut self,
        key: u64,
        kind: BlockKind,
        write: bool,
        tenant: TenantId,
    ) -> MdOutcome {
        let out = self.access_inner(key, kind, write, tenant);
        self.attribute(key, kind, tenant, &out);
        out
    }

    /// Write of a single 8 B sub-entry (hash or tree HMAC slot) on behalf
    /// of `tenant`. With partial writes enabled, a miss inserts a
    /// placeholder holding only `slot` and does not require a memory
    /// fetch; the caller inspects `hit`/`bypassed` to decide on DRAM
    /// traffic.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `slot >= 8`.
    #[inline]
    pub fn write_partial(
        &mut self,
        key: u64,
        kind: BlockKind,
        slot: u8,
        tenant: TenantId,
    ) -> MdOutcome {
        debug_assert!(slot < 8, "sub-block slot {slot} out of range");
        let out = if self.partial_writes {
            self.write_slot_inner(key, kind, slot, tenant)
        } else {
            // Only the partial-write miss path fills placeholders, so
            // every resident line is complete and setting a slot changes
            // nothing: the slot write is a write access (a miss fetches
            // the block and inserts it complete).
            self.access_inner(key, kind, true, tenant)
        };
        self.attribute(key, kind, tenant, &out);
        out
    }

    /// Books one call's access, eviction, and fill to the requesting
    /// tenant.
    ///
    /// Direct booking relies on a contract every entry point meets: one
    /// `access`/`write_partial` call records exactly one access of `kind`
    /// in the backend's stats (a hit, a miss, or a bypass probe) and at
    /// most one eviction, which is the victim it returns. An admitted miss
    /// always installs `key` (complete line or placeholder) in the frame
    /// the call reports, and a fill that returned a victim reused the
    /// victim's frame in both backends (the same way of the set, or the
    /// frame just pushed on top of the free stack), so the owner column
    /// debits the victim's owner.
    fn attribute(&mut self, key: u64, kind: BlockKind, tenant: TenantId, out: &MdOutcome) {
        self.tenants
            .book(tenant.0, kind, out.hit, out.evicted.as_ref());
        if let (false, Some(frame)) = (out.hit, out.frame) {
            self.tenants
                .note_fill(frame, tenant.0, out.evicted.is_some());
        }
        debug_assert!(
            out.bypassed() || self.frame_of(key) == out.frame,
            "key {key} reported in frame {:?} but found in {:?}",
            out.frame,
            self.frame_of(key)
        );
        debug_assert_eq!(
            self.tenants.combined(),
            *self.stats(),
            "per-tenant booking diverged from the cache's stats"
        );
    }

    /// The frame holding `key`, searched afresh (the check on the frames
    /// the calls report).
    fn frame_of(&self, key: u64) -> Option<usize> {
        match &self.backend {
            Backend::Set(c) => c.frame_of(key),
            Backend::Rand(c) => c.frame_of(key),
        }
    }

    fn probe(&mut self, key: u64, kind: BlockKind) -> MdOutcome {
        MdOutcome::bypass(match &mut self.backend {
            Backend::Set(c) => c.probe(key, kind),
            Backend::Rand(c) => c.probe(key, kind),
        })
    }

    fn access_inner(
        &mut self,
        key: u64,
        kind: BlockKind,
        write: bool,
        tenant: TenantId,
    ) -> MdOutcome {
        if !self.contents.admits(kind) {
            return self.probe(key, kind);
        }
        let Self {
            backend,
            dueling,
            tenant_split,
            ways,
            ..
        } = self;
        MdOutcome::admitted(match backend {
            Backend::Set(cache) => {
                if let Some(split) = tenant_split {
                    cache.access_in_ways(key, kind, write, split.ways_for(tenant.0, *ways))
                } else if let Some(d) = dueling {
                    let set = cache.config().set_of(key);
                    let r = cache.access_with(key, kind, write, Some(&d.partition_for(set)));
                    if !r.hit {
                        d.record_miss(set);
                    }
                    r
                } else {
                    cache.access_with(key, kind, write, None)
                }
            }
            Backend::Rand(cache) => cache.access(key, kind, write, tenant.0),
        })
    }

    /// The partial-write path: one backend call that marks the slot on a
    /// hit and fills a placeholder on a miss.
    fn write_slot_inner(
        &mut self,
        key: u64,
        kind: BlockKind,
        slot: u8,
        tenant: TenantId,
    ) -> MdOutcome {
        if !self.contents.admits(kind) {
            return self.probe(key, kind);
        }
        let Self {
            backend,
            dueling,
            tenant_split,
            ways,
            ..
        } = self;
        MdOutcome::admitted(match backend {
            Backend::Set(cache) => {
                if let Some(split) = tenant_split {
                    cache.write_slot_in_ways(key, kind, slot, split.ways_for(tenant.0, *ways))
                } else if let Some(d) = dueling {
                    // The partition is picked before the miss is voted.
                    let set = cache.config().set_of(key);
                    let r = cache.write_slot(key, kind, slot, Some(&d.partition_for(set)));
                    if !r.hit {
                        d.record_miss(set);
                    }
                    r
                } else {
                    cache.write_slot(key, kind, slot, None)
                }
            }
            Backend::Rand(cache) => cache.write_slot(key, kind, slot, tenant.0),
        })
    }

    /// Marks the line in `frame` (an admitted call's
    /// [`MdOutcome::frame`]) fully valid after a completing fill read,
    /// returning whether any sub-entry was missing. Completing sets the
    /// dirty bit, as a slot write does; a complete line is left untouched.
    pub fn complete_frame(&mut self, frame: usize) -> bool {
        match &mut self.backend {
            Backend::Set(c) => c.complete_frame(frame),
            Backend::Rand(c) => c.complete_frame(frame),
        }
    }

    /// Drains all resident lines (end-of-run writeback accounting),
    /// clearing the per-tenant occupancy ledger.
    pub fn drain(&mut self) -> Vec<Line> {
        let lines = match &mut self.backend {
            Backend::Set(c) => c.drain(),
            Backend::Rand(c) => c.drain(),
        };
        self.tenants.note_drain();
        lines
    }

    /// Iterates over resident lines (for contents inspection, e.g. the
    /// per-set diversity analysis of Section V-C). Lines are materialized
    /// from the backend's column store.
    pub fn resident_lines(&self) -> Box<dyn Iterator<Item = Line> + '_> {
        match &self.backend {
            Backend::Set(c) => Box::new(c.resident_lines()),
            Backend::Rand(c) => Box::new(c.resident_lines()),
        }
    }

    /// Prefetches the metadata-cache rows `key` would touch into the host
    /// cache (a hint for the batched replay path; no architectural
    /// effect). No-op under the randomized design, whose keyed-index rows
    /// are not worth the hash arithmetic to predict.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        if let Backend::Set(c) = &self.backend {
            c.prefetch_set(key);
        }
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        match &self.backend {
            Backend::Set(c) => c.occupancy(),
            Backend::Rand(c) => c.occupancy(),
        }
    }

    /// The inner cache's access counter (policy time base).
    pub fn time(&self) -> u64 {
        match &self.backend {
            Backend::Set(c) => c.time(),
            Backend::Rand(c) => c.time(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyChoice;
    use maps_cache::line::FULL_MASK;
    use maps_cache::Partition;
    use proptest::prelude::*;

    const T0: TenantId = TenantId::HOST;

    fn cfg() -> MdcConfig {
        MdcConfig::paper_default().with_size(4096)
    }

    /// The valid mask of `key`'s resident line, if any.
    fn valid_mask(mdc: &MetadataCache, key: u64) -> Option<u8> {
        mdc.resident_lines()
            .find(|l| l.key == key)
            .map(|l| l.valid_mask)
    }

    #[test]
    fn zero_size_disables() {
        assert!(MetadataCache::new(&MdcConfig::disabled()).is_none());
    }

    #[test]
    fn bypassed_kinds_probe_only() {
        let mut mdc =
            MetadataCache::new(&cfg().with_contents(CacheContents::COUNTERS_ONLY)).unwrap();
        let out = mdc.access(7, BlockKind::Hash, false, T0);
        assert!(out.bypassed());
        assert!(!out.hit);
        assert_eq!(mdc.occupancy(), 0);
        // Misses recorded for MPKI accounting.
        assert_eq!(mdc.stats().kind(BlockKind::Hash).misses, 1);
    }

    #[test]
    fn partial_write_inserts_placeholder_without_fetch() {
        let mut cfg = cfg();
        cfg.partial_writes = true;
        let mut mdc = MetadataCache::new(&cfg).unwrap();
        let out = mdc.write_partial(9, BlockKind::Hash, 3, T0);
        assert!(!out.hit);
        assert!(!out.bypassed());
        assert_eq!(valid_mask(&mdc, 9), Some(0b1000));
        // A second write to another slot coalesces.
        let out2 = mdc.write_partial(9, BlockKind::Hash, 4, T0);
        assert!(out2.hit);
        assert_eq!(out2.frame, out.frame);
        assert_eq!(valid_mask(&mdc, 9), Some(0b11000));
    }

    #[test]
    fn without_partial_writes_misses_insert_complete() {
        let mut mdc = MetadataCache::new(&cfg()).unwrap();
        let out = mdc.write_partial(9, BlockKind::Hash, 3, T0);
        assert!(!out.hit);
        assert_eq!(valid_mask(&mdc, 9), Some(0xFF));
    }

    #[test]
    fn complete_frame_fills_mask() {
        let mut cfg = cfg();
        cfg.partial_writes = true;
        let mut mdc = MetadataCache::new(&cfg).unwrap();
        let out = mdc.write_partial(9, BlockKind::Hash, 0, T0);
        let hit = mdc.access(9, BlockKind::Hash, false, T0);
        assert!(hit.hit);
        assert_eq!(hit.frame, out.frame);
        assert!(mdc.complete_frame(hit.frame.unwrap()));
        assert_eq!(valid_mask(&mdc, 9), Some(0xFF));
        assert!(!mdc.complete_frame(hit.frame.unwrap()));
    }

    #[test]
    fn static_partition_separates_counters_and_hashes() {
        let mut c = cfg();
        c.partition = PartitionMode::Static(Partition::counter_ways(4));
        c.policy = PolicyChoice::TrueLru;
        let mut mdc = MetadataCache::new(&c).unwrap();
        let sets = 4096 / 64 / 8; // 8 sets
                                  // Fill one set with counters far beyond 4 ways: occupancy in that
                                  // set must cap at 4 counter lines.
        for i in 0..32u64 {
            mdc.access(i * sets as u64, BlockKind::Counter, false, T0);
        }
        assert_eq!(mdc.occupancy(), 4);
    }

    #[test]
    fn dynamic_mode_constructs_and_runs() {
        let mut c = cfg();
        c.partition = PartitionMode::Dynamic {
            a: Partition::counter_ways(2),
            b: Partition::counter_ways(6),
            leaders_per_side: 2,
        };
        let mut mdc = MetadataCache::new(&c).unwrap();
        for i in 0..1000u64 {
            mdc.access(i, BlockKind::Counter, false, T0);
            mdc.access(10_000 + i, BlockKind::Hash, i % 3 == 0, T0);
        }
        assert!(mdc.stats().total().accesses >= 2000);
    }

    #[test]
    fn per_tenant_split_confines_fills_to_way_shares() {
        let mut c = cfg();
        c.partition = PartitionMode::PerTenant { tenants: 2 };
        c.policy = PolicyChoice::TrueLru;
        let mut mdc = MetadataCache::new(&c).unwrap();
        let sets = 4096 / 64 / 8; // 8 sets
                                  // One tenant hammering a single set can occupy at most its 4-way
                                  // share, leaving the other tenant's ways untouched.
        for i in 0..32u64 {
            mdc.access(i * sets as u64, BlockKind::Counter, false, TenantId(1));
        }
        assert_eq!(mdc.occupancy(), 4);
        assert_eq!(mdc.tenant_stats().occupancy(1), 4);
        assert_eq!(mdc.tenant_stats().occupancy(2), 0);
        // The other tenant still fills its own share of the same set.
        for i in 0..32u64 {
            mdc.access(1 + i * sets as u64, BlockKind::Counter, false, TenantId(2));
        }
        assert_eq!(mdc.tenant_stats().occupancy(2), 4);
    }

    #[test]
    fn randomized_backend_serves_the_same_interface() {
        let mut c = cfg();
        c.design = MdcDesign::Randomized { seed: 7 };
        c.partial_writes = true;
        let mut mdc = MetadataCache::new(&c).unwrap();
        assert!(!mdc.access(5, BlockKind::Counter, false, T0).hit);
        assert!(mdc.access(5, BlockKind::Counter, false, T0).hit);
        let out = mdc.write_partial(9, BlockKind::Hash, 3, T0);
        assert!(!out.hit && !out.bypassed());
        assert_eq!(valid_mask(&mdc, 9), Some(0b1000));
        assert!(mdc.complete_frame(out.frame.unwrap()));
        assert_eq!(valid_mask(&mdc, 9), Some(0xFF));
        assert_eq!(mdc.occupancy(), 2);
        assert_eq!(mdc.drain().len(), 2);
        assert_eq!(mdc.occupancy(), 0);
    }

    /// Drives two tenants' counter accesses, hash/tree accesses and
    /// partial writes through `c`, then checks the per-tenant ledger
    /// against the cache before and after a drain.
    fn assert_ledger_conserves(c: &MdcConfig) {
        let mut mdc = MetadataCache::new(c).unwrap();
        for i in 0..600u64 {
            let tenant = TenantId((i % 2) as u8);
            let (kind, base) = match i % 3 {
                0 => (BlockKind::Counter, 0),
                1 => (BlockKind::Hash, 1000),
                _ => (BlockKind::Tree(1), 2000),
            };
            let key = base + i % 90;
            if kind != BlockKind::Counter && i % 4 == 0 {
                mdc.write_partial(key, kind, (i % 8) as u8, tenant);
            } else {
                mdc.access(key, kind, i % 5 == 0, tenant);
            }
        }
        let table = mdc.tenant_stats();
        assert_eq!(table.combined(), *mdc.stats(), "{c:?}");
        let occ: u64 = table.tenants().map(|t| table.occupancy(t)).sum();
        assert_eq!(occ, mdc.occupancy() as u64, "{c:?}");
        // Drain clears the ledger.
        mdc.drain();
        let table = mdc.tenant_stats();
        assert!(table.tenants().all(|t| table.occupancy(t) == 0), "{c:?}");
    }

    #[test]
    fn tenant_attribution_sums_to_global_and_tracks_occupancy() {
        let partitions = [
            PartitionMode::None,
            PartitionMode::PerTenant { tenants: 2 },
            PartitionMode::Dynamic {
                a: Partition::counter_ways(2),
                b: Partition::counter_ways(6),
                leaders_per_side: 2,
            },
        ];
        for design in [MdcDesign::SetAssoc, MdcDesign::Randomized { seed: 7 }] {
            for partition in partitions {
                for contents in [CacheContents::ALL, CacheContents::COUNTERS_ONLY] {
                    for partial_writes in [false, true] {
                        let mut c = cfg()
                            .with_design(design)
                            .with_partition(partition)
                            .with_contents(contents);
                        c.partial_writes = partial_writes;
                        assert_ledger_conserves(&c);
                    }
                }
            }
        }
    }

    fn kind_of(sel: u8) -> BlockKind {
        match sel % 4 {
            0 => BlockKind::Counter,
            1 => BlockKind::Hash,
            2 => BlockKind::Tree(0),
            _ => BlockKind::Tree(1),
        }
    }

    fn designs() -> Vec<MdcDesign> {
        vec![MdcDesign::SetAssoc, MdcDesign::Randomized { seed: 0x5EED }]
    }

    fn partitions() -> Vec<PartitionMode> {
        vec![
            PartitionMode::None,
            PartitionMode::Static(Partition::counter_ways(3)),
            PartitionMode::Dynamic {
                a: Partition::counter_ways(2),
                b: Partition::counter_ways(6),
                leaders_per_side: 2,
            },
            PartitionMode::PerTenant { tenants: 3 },
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The frame contract the owner column and line completion rely
        // on: after every access, slot write and bypass probe, a fresh
        // search finds the key in the frame the call reported (and a
        // probe reports none and leaves the key out). The ledger's sums
        // cannot see a wrong frame in a single-tenant run; this can.
        #[test]
        fn reported_frames_hold_their_keys(
            // `(block, kind selector, op selector, slot and tenant)`.
            ops in prop::collection::vec((0u64..96, 0u8..4, 0u8..3, 0u8..8), 1..300),
            design in prop::sample::select(designs()),
            partition in prop::sample::select(partitions()),
            contents in prop::sample::select(vec![
                CacheContents::ALL,
                CacheContents::COUNTERS_AND_HASHES,
                CacheContents::COUNTERS_ONLY,
            ]),
            partial_writes in any::<bool>(),
        ) {
            // 2 KB, 8-way: 4 sets, room for one dueling leader set per side.
            let mut c = MdcConfig::paper_default()
                .with_size(2048)
                .with_design(design)
                .with_partition(partition)
                .with_contents(contents);
            c.partial_writes = partial_writes;
            let mut mdc = MetadataCache::new(&c).unwrap();
            for (i, &(block, sel, op, x)) in ops.iter().enumerate() {
                let kind = kind_of(sel);
                // Disjoint key spaces per kind, like the real layout.
                let key = block + u64::from(sel) * 4096;
                let tenant = TenantId(x % 3);
                let out = match op {
                    0 => mdc.access(key, kind, false, tenant),
                    1 => mdc.access(key, kind, true, tenant),
                    _ => mdc.write_partial(key, kind, x, tenant),
                };
                prop_assert_eq!(out.bypassed(), !contents.admits(kind), "op {}: {:?}", i, out);
                prop_assert_eq!(
                    mdc.frame_of(key),
                    out.frame,
                    "op {} ({:?} of {}) under {:?}",
                    i,
                    kind,
                    key,
                    c
                );
            }
        }

        // The precondition of serving a slot write as a write access:
        // without partial writes, only complete lines are ever resident,
        // whatever mix of accesses, slot writes and drains runs.
        #[test]
        fn without_partial_writes_resident_lines_stay_complete(
            // `(block, kind selector, op selector, slot)`; op 15 drains.
            ops in prop::collection::vec((0u64..96, 0u8..4, 0u8..16, 0u8..8), 1..300),
            design in prop::sample::select(designs()),
            partition in prop::sample::select(partitions()),
        ) {
            let c = MdcConfig::paper_default()
                .with_size(2048)
                .with_design(design)
                .with_partition(partition);
            let mut mdc = MetadataCache::new(&c).unwrap();
            for (i, &(block, sel, op, slot)) in ops.iter().enumerate() {
                let kind = kind_of(sel);
                let key = block + u64::from(sel) * 4096;
                let tenant = TenantId(slot % 3);
                match op {
                    0..=4 => {
                        mdc.access(key, kind, false, tenant);
                    }
                    5..=9 => {
                        mdc.access(key, kind, true, tenant);
                    }
                    10..=14 => {
                        mdc.write_partial(key, kind, slot, tenant);
                    }
                    _ => {
                        mdc.drain();
                    }
                }
                let incomplete = mdc.resident_lines().find(|l| l.valid_mask != FULL_MASK);
                prop_assert!(incomplete.is_none(), "op {}: {:?} under {:?}", i, incomplete, c);
            }
        }
    }

    #[test]
    fn randomized_quota_confines_tenant_occupancy() {
        let mut c = cfg(); // 64 frames
        c.design = MdcDesign::Randomized { seed: 3 };
        c.partition = PartitionMode::PerTenant { tenants: 2 };
        let mut mdc = MetadataCache::new(&c).unwrap();
        for i in 0..500u64 {
            mdc.access(i, BlockKind::Counter, false, TenantId(0));
        }
        assert!(mdc.tenant_stats().occupancy(0) <= 32);
        for i in 10_000..10_500u64 {
            mdc.access(i, BlockKind::Counter, false, TenantId(1));
        }
        assert!(mdc.tenant_stats().occupancy(1) >= 30);
    }
}
