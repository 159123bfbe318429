//! The memory-controller metadata engine: counter fetch/decrypt, Bonsai
//! Merkle Tree verification walks, hash checks, counter increments with
//! overflow-driven page re-encryption, and lazy dirty-metadata propagation
//! through the metadata cache.

use maps_cache::{CacheStats, Line};
use maps_mem::DramCounters;
use maps_secure::{CounterStore, Layout, SecureConfig, WriteOutcome};
use maps_trace::{AccessKind, BlockAddr, BlockKind, MetaAccess, TenantId};

use crate::config::MdcConfig;
use crate::hierarchy::MemEvent;
use crate::mdcache::MetadataCache;

/// Observer of the metadata access stream (every counter/hash/tree block
/// touch, in controller order). Used for reuse-distance profiling
/// (Figures 3–5) and for recording MIN oracle traces (Figure 6).
pub trait MetaObserver {
    /// Called once per metadata block access.
    fn observe(&mut self, access: &MetaAccess);

    /// Called when an integrity-tree verification walk completes:
    /// `levels_fetched` of the `path_len` levels had to come from memory
    /// (0 = the leaf was already cached/verified). Default: ignored, so
    /// existing observers and `NullObserver` monomorphize it away.
    fn walk_complete(&mut self, _levels_fetched: u64, _path_len: u64) {}

    /// Called when an eviction-driven update cascade settles, with the
    /// number of propagated tree updates (0 = clean victim, no update).
    fn cascade_complete(&mut self, _depth: u64) {}

    /// Called once per LLC demand read with the verification cycles
    /// speculation hid and the cycles still exposed in the stall.
    fn speculation(&mut self, _hidden_cycles: u64, _exposed_cycles: u64) {}
}

/// Ignores the stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl MetaObserver for NullObserver {
    #[inline(always)]
    fn observe(&mut self, _access: &MetaAccess) {}
}

/// Records the stream (keys feed Belady's MIN oracle).
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    /// The recorded accesses, in controller order.
    pub records: Vec<MetaAccess>,
}

impl RecordingObserver {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The block keys of the recorded accesses, in order. Borrows rather
    /// than collecting, so stats export and oracle-trace consumers decide
    /// whether an allocation happens.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.records.iter().map(|r| r.block.index())
    }
}

impl MetaObserver for RecordingObserver {
    #[inline]
    fn observe(&mut self, access: &MetaAccess) {
        self.records.push(*access);
    }
}

impl MetaObserver for maps_analysis::GroupedReuseProfiler {
    #[inline]
    fn observe(&mut self, access: &MetaAccess) {
        GroupedReuseProfiler::observe(self, access);
    }
}
use maps_analysis::GroupedReuseProfiler;

/// Engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Metadata access/hit/miss accounting per kind, valid with or without
    /// a metadata cache (the source of truth for metadata MPKI).
    pub meta: CacheStats,
    /// DRAM transfers of data blocks (demand reads, writebacks, and page
    /// re-encryption traffic).
    pub dram_data: DramCounters,
    /// DRAM transfers of metadata blocks.
    pub dram_meta: DramCounters,
    /// Integrity-tree walks started (counter misses).
    pub tree_walks: u64,
    /// Tree levels fetched from memory across all walks.
    pub tree_walk_level_misses: u64,
    /// Split-counter overflows (page re-encryptions).
    pub page_overflows: u64,
    /// Completing fill reads for partially-valid lines.
    pub partial_fill_reads: u64,
    /// Core stall cycles attributed to secure memory plus the data fetch.
    pub stall_cycles: u64,
    /// Data reads / writes handled.
    pub reads: u64,
    /// Data writebacks handled.
    pub writes: u64,
    /// Deepest eviction-driven update cascade observed (dirty metadata
    /// evictions whose tree updates evicted further dirty metadata).
    pub max_cascade_depth: u64,
}

impl EngineStats {
    /// Total DRAM block transfers (data + metadata).
    pub fn dram_total(&self) -> u64 {
        self.dram_data.total() + self.dram_meta.total()
    }

    /// Exports the full engine accounting under `{prefix}.*`: the per-kind
    /// metadata cache buckets, both DRAM channels, and the scalar engine
    /// counters. Pull-based — called once at snapshot time.
    pub fn export(&self, prefix: &str, sink: &mut maps_obs::Metrics) {
        self.meta.export(&format!("{prefix}.meta"), sink);
        self.dram_data.export(&format!("{prefix}.dram.data"), sink);
        self.dram_meta.export(&format!("{prefix}.dram.meta"), sink);
        for (name, value) in [
            ("tree_walks", self.tree_walks),
            ("tree_walk_level_misses", self.tree_walk_level_misses),
            ("page_overflows", self.page_overflows),
            ("partial_fill_reads", self.partial_fill_reads),
            ("stall_cycles", self.stall_cycles),
            ("reads", self.reads),
            ("writes", self.writes),
            ("max_cascade_depth", self.max_cascade_depth),
        ] {
            if value != 0 {
                sink.counter_add(&format!("{prefix}.{name}"), value);
            }
        }
    }
}

/// Depth bound for eviction-driven update cascades; beyond it updates are
/// written through to memory (models a bounded hardware update buffer).
const CASCADE_BUDGET: usize = 64;

/// Upper bound on in-memory integrity-tree levels. An arity-2 tree over
/// the counters of a fully-populated 64-bit address space stays below
/// this; used to size the stack-allocated walk buffer on the hot path.
const MAX_TREE_LEVELS: usize = 64;

/// A tree walk copied out of [`Layout`] into a stack buffer, so the
/// no-cache eager-update path can iterate it while mutably borrowing the
/// engine (and without the per-walk heap allocation a `Vec` would cost).
#[derive(Debug, Clone, Copy)]
struct TreeWalk {
    nodes: [BlockAddr; MAX_TREE_LEVELS],
    len: usize,
}

impl TreeWalk {
    fn of_counter(layout: &Layout, counter: BlockAddr) -> Self {
        let mut nodes = [BlockAddr::new(0); MAX_TREE_LEVELS];
        let mut len = 0;
        for node in layout.tree_path_of_counter(counter) {
            nodes[len] = node;
            len += 1;
        }
        Self { nodes, len }
    }

    fn iter(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.nodes[..self.len].iter().copied()
    }
}

/// Lookahead of the batch kernel's software prefetch: while event *i* is
/// being processed, the metadata-cache rows of event *i + k* are requested.
/// Eight events at ~10 memory-level-parallel loads apiece comfortably cover
/// an L2 miss on the one-core hosts the sweeps run on.
const PREFETCH_DISTANCE: usize = 8;

/// The metadata engine.
///
/// One instance per simulated memory controller.
/// [`handle_batch`](Self::handle_batch) consumes the LLC miss/writeback
/// stream and accounts every implied metadata access, DRAM transfer, and
/// stall; it is the only way events enter the engine.
///
/// # Examples
///
/// ```
/// use maps_sim::{MdcConfig, MetadataEngine, NullObserver};
/// use maps_secure::SecureConfig;
/// use maps_trace::BlockAddr;
///
/// let mut engine = MetadataEngine::new(
///     SecureConfig::poison_ivy(16 << 20),
///     &MdcConfig::paper_default(),
///     200,
///     40,
///     true,
/// );
/// let stall = engine.handle_read(BlockAddr::new(0), &mut NullObserver);
/// assert!(stall >= 200); // at least the data fetch
/// ```
#[derive(Debug)]
pub struct MetadataEngine {
    layout: Layout,
    counters: CounterStore,
    mdc: Option<MetadataCache>,
    partial_writes: bool,
    dram_latency: u64,
    hash_latency: u64,
    speculation: bool,
    speculation_window: u64,
    stats: EngineStats,
    /// Reused work queue for eviction-driven update cascades (avoids an
    /// allocation per dirty metadata eviction).
    cascade_buf: Vec<Line>,
}

impl MetadataEngine {
    /// Creates an engine over the given protected-memory configuration.
    pub fn new(
        secure: SecureConfig,
        mdc_cfg: &MdcConfig,
        dram_latency: u64,
        hash_latency: u64,
        speculation: bool,
    ) -> Self {
        Self::with_speculation_window(
            secure,
            mdc_cfg,
            dram_latency,
            hash_latency,
            speculation,
            u64::MAX,
        )
    }

    /// Creates an engine whose speculation can hide at most
    /// `speculation_window` cycles of verification latency — PoisonIvy's
    /// mechanism "is effective only if the verification latency is not too
    /// long" (Section I). `u64::MAX` models an unbounded window; `0`
    /// equals no speculation.
    pub fn with_speculation_window(
        secure: SecureConfig,
        mdc_cfg: &MdcConfig,
        dram_latency: u64,
        hash_latency: u64,
        speculation: bool,
        speculation_window: u64,
    ) -> Self {
        Self {
            layout: Layout::new(secure),
            counters: CounterStore::new(secure.mode),
            mdc: MetadataCache::new(mdc_cfg),
            partial_writes: mdc_cfg.partial_writes,
            dram_latency,
            hash_latency,
            speculation,
            speculation_window,
            stats: EngineStats::default(),
            cascade_buf: Vec::new(),
        }
    }

    /// The metadata layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The metadata cache, if enabled.
    pub fn mdc(&self) -> Option<&MetadataCache> {
        self.mdc.as_ref()
    }

    /// The encryption-counter store (for differential cross-checking).
    pub fn counters(&self) -> &CounterStore {
        &self.counters
    }

    /// Statistics so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Resets statistics after warm-up (cache and counter state persist).
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
        if let Some(mdc) = &mut self.mdc {
            mdc.reset_stats();
        }
    }

    /// Handles an LLC demand miss for `data`, returning the core-visible
    /// stall in cycles (data fetch plus any serialized metadata work).
    /// Attributed to [`TenantId::HOST`]; a one-event
    /// [`handle_batch`](Self::handle_batch).
    pub fn handle_read<O: MetaObserver + ?Sized>(&mut self, data: BlockAddr, obs: &mut O) -> u64 {
        self.handle_batch(&[MemEvent::Read(data, TenantId::HOST)], obs)
    }

    /// Handles an LLC dirty writeback of `data` (off the critical path:
    /// contributes traffic and energy, not stall). Attributed to
    /// [`TenantId::HOST`]; a one-event [`handle_batch`](Self::handle_batch).
    pub fn handle_write<O: MetaObserver + ?Sized>(&mut self, data: BlockAddr, obs: &mut O) {
        self.handle_batch(&[MemEvent::Write(data, TenantId::HOST)], obs);
    }

    /// Processes LLC events in order, returning the summed demand-read
    /// stalls. Each event's metadata-cache accesses (including eviction
    /// cascades it triggers) are booked to the event's tenant,
    /// requester-pays.
    ///
    /// The engine-mode dispatch (MDC on/off) is hoisted to one
    /// monomorphized kernel selection per batch instead of per event, and
    /// the kernel prefetches the metadata-cache rows of upcoming events
    /// while the current one is finishing. A batch may hold any number of
    /// events: the direct [`SecureSim`](crate::SecureSim) path hands over
    /// one core access's events, [`ReplaySim`](crate::ReplaySim) a decoded
    /// batch, and the report is the same wherever batch boundaries fall.
    pub fn handle_batch<O: MetaObserver + ?Sized>(
        &mut self,
        events: &[MemEvent],
        obs: &mut O,
    ) -> u64 {
        if self.mdc.is_some() {
            self.batch_kernel::<O, true>(events, obs)
        } else {
            self.batch_kernel::<O, false>(events, obs)
        }
    }

    fn batch_kernel<O: MetaObserver + ?Sized, const HAS_MDC: bool>(
        &mut self,
        events: &[MemEvent],
        obs: &mut O,
    ) -> u64 {
        let mut stall = 0u64;
        for (i, &event) in events.iter().enumerate() {
            if let Some(&ahead) = events.get(i + PREFETCH_DISTANCE) {
                self.prefetch_event(ahead);
            }
            match event {
                MemEvent::Read(block, t) => stall += self.read_event::<O, HAS_MDC>(block, t, obs),
                MemEvent::Write(block, t) => self.write_event::<O, HAS_MDC>(block, t, obs),
            }
        }
        stall
    }

    /// Requests the metadata-cache rows `event` will touch: the counter and
    /// hash block of its data address. Tree-walk levels are deliberately not
    /// prefetched — their addresses need per-level layout lookups, and
    /// measured on the sweep hosts that arithmetic costs more than the
    /// cache stalls it hides. A hint only: no statistics, cache state, or
    /// observer calls are affected.
    #[inline]
    fn prefetch_event(&self, event: MemEvent) {
        let Some(mdc) = &self.mdc else { return };
        let (MemEvent::Read(block, _) | MemEvent::Write(block, _)) = event;
        let counter = self.layout.counter_block_of(block);
        mdc.prefetch(counter.index());
        mdc.prefetch(self.layout.hash_block_of(block).index());
    }

    fn read_event<O: MetaObserver + ?Sized, const HAS_MDC: bool>(
        &mut self,
        data: BlockAddr,
        tenant: TenantId,
        obs: &mut O,
    ) -> u64 {
        debug_assert_eq!(HAS_MDC, self.mdc.is_some());
        self.stats.reads += 1;
        self.stats.dram_data.reads += 1;

        let hash_hit = self.meta_read::<O, HAS_MDC>(
            self.layout.hash_block_of(data),
            BlockKind::Hash,
            tenant,
            obs,
        );
        let counter = self.layout.counter_block_of(data);
        let ctr_hit = self.meta_read::<O, HAS_MDC>(counter, BlockKind::Counter, tenant, obs);
        let walk_misses = if ctr_hit {
            0
        } else {
            self.verify_counter::<O, HAS_MDC>(counter, tenant, obs)
        };

        let t_data = self.dram_latency;
        let t_ctr = if ctr_hit { 0 } else { self.dram_latency };
        // One-time-pad generation starts when the counter is available;
        // the XOR itself is free (Section II-A).
        let t_decrypt = t_data.max(t_ctr + self.hash_latency);
        let t_hash = if hash_hit { 0 } else { self.dram_latency };
        let t_verify = t_data
            .max(t_ctr + walk_misses * self.dram_latency)
            .max(t_hash)
            + self.hash_latency;
        let stall = if self.speculation {
            // Speculation hides verification up to the window; anything
            // beyond it stalls the restricted core (PoisonIvy's limit).
            t_decrypt.max(t_verify.saturating_sub(self.speculation_window))
        } else {
            t_decrypt.max(t_verify)
        };
        obs.speculation(
            t_decrypt.max(t_verify) - stall,
            stall.saturating_sub(t_decrypt),
        );
        self.stats.stall_cycles += stall;
        stall
    }

    fn write_event<O: MetaObserver + ?Sized, const HAS_MDC: bool>(
        &mut self,
        data: BlockAddr,
        tenant: TenantId,
        obs: &mut O,
    ) {
        debug_assert_eq!(HAS_MDC, self.mdc.is_some());
        self.stats.writes += 1;
        self.stats.dram_data.writes += 1;

        // 1. Increment the encryption counter (may overflow the 7-bit
        //    per-block counter and force a page re-encryption).
        if let WriteOutcome::PageOverflow { page } = self.counters.record_write(data) {
            self.stats.page_overflows += 1;
            self.reencrypt_page::<O, HAS_MDC>(page, tenant, obs);
        }
        let counter = self.layout.counter_block_of(data);
        self.counter_write::<O, HAS_MDC>(counter, tenant, obs);

        // 2. Update the data hash (one 8 B slot of its hash block).
        let hash_block = self.layout.hash_block_of(data);
        let slot = self.layout.hash_slot_of(data);
        self.meta_write_slot::<O, HAS_MDC>(hash_block, BlockKind::Hash, slot, tenant, obs);
    }

    /// Flushes the metadata cache, accounting final writebacks (tree
    /// updates are written through). Call once at end of simulation.
    pub fn flush<O: MetaObserver + ?Sized>(&mut self, obs: &mut O) {
        let Some(mdc) = &mut self.mdc else { return };
        for line in mdc.drain() {
            if !line.dirty {
                continue;
            }
            if !line.is_complete() {
                self.stats.dram_meta.reads += 1;
                self.stats.partial_fill_reads += 1;
            }
            self.stats.dram_meta.writes += 1;
            let block = BlockAddr::new(line.key);
            match line.kind {
                BlockKind::Counter => {
                    self.write_through_tree_update(self.layout.tree_leaf_of(block), 0, obs);
                }
                BlockKind::Tree(level) => {
                    if let Some(parent) = self.layout.tree_parent(block) {
                        self.write_through_tree_update(parent, level + 1, obs);
                    }
                }
                _ => {}
            }
        }
    }

    /// Reads a metadata block through the cache; returns `true` on hit.
    ///
    /// Like every private engine kernel, monomorphized over `HAS_MDC` —
    /// `true` iff `self.mdc` is populated (`handle_batch` guarantees the
    /// match) — so per-batch dispatch erases the per-event
    /// MDC-mode branches while keeping one shared logic body.
    fn meta_read<O: MetaObserver + ?Sized, const HAS_MDC: bool>(
        &mut self,
        block: BlockAddr,
        kind: BlockKind,
        tenant: TenantId,
        obs: &mut O,
    ) -> bool {
        obs.observe(&MetaAccess::new(block, kind, AccessKind::Read));
        match &mut self.mdc {
            Some(mdc) if HAS_MDC => {
                let out = mdc.access(block.index(), kind, false, tenant);
                self.stats.meta.record_access(kind, out.hit);
                if out.hit {
                    // A partially-valid line must be completed from memory
                    // before its missing sub-entries can be consumed.
                    if self.partial_writes && out.frame.is_some_and(|f| mdc.complete_frame(f)) {
                        self.stats.dram_meta.reads += 1;
                        self.stats.partial_fill_reads += 1;
                    }
                    true
                } else {
                    self.stats.dram_meta.reads += 1;
                    if let Some(victim) = out.evicted {
                        self.process_eviction::<O, HAS_MDC>(victim, tenant, obs);
                    }
                    false
                }
            }
            _ => {
                self.stats.meta.record_access(kind, false);
                self.stats.dram_meta.reads += 1;
                false
            }
        }
    }

    /// Verifies a just-fetched counter by walking the tree upward until a
    /// cached (already verified) node or the on-chip root. Returns the
    /// number of levels fetched from memory.
    fn verify_counter<O: MetaObserver + ?Sized, const HAS_MDC: bool>(
        &mut self,
        counter: BlockAddr,
        tenant: TenantId,
        obs: &mut O,
    ) -> u64 {
        self.stats.tree_walks += 1;
        let levels = self.layout.tree_levels();
        let mut misses = 0;
        // Walk incrementally instead of snapshotting the path up front: most
        // walks hit a cached node within a level or two, so eagerly resolving
        // every parent (as a buffered copy of the path would) is wasted work.
        let mut node = (levels > 0).then(|| self.layout.tree_leaf_of(counter));
        let mut level = 0u8;
        while let Some(n) = node {
            let hit = self.meta_read::<O, HAS_MDC>(n, BlockKind::Tree(level), tenant, obs);
            if hit {
                break;
            }
            misses += 1;
            node = self.layout.tree_parent(n);
            level += 1;
        }
        self.stats.tree_walk_level_misses += misses;
        obs.walk_complete(misses, levels as u64);
        misses
    }

    /// Read-modify-write of a counter block for a data write.
    fn counter_write<O: MetaObserver + ?Sized, const HAS_MDC: bool>(
        &mut self,
        counter: BlockAddr,
        tenant: TenantId,
        obs: &mut O,
    ) {
        obs.observe(&MetaAccess::new(
            counter,
            BlockKind::Counter,
            AccessKind::Write,
        ));
        match &mut self.mdc {
            Some(mdc) if HAS_MDC && mdc.contents().counters => {
                let out = mdc.access(counter.index(), BlockKind::Counter, true, tenant);
                self.stats.meta.record_access(BlockKind::Counter, out.hit);
                if let Some(victim) = out.evicted {
                    self.process_eviction::<O, HAS_MDC>(victim, tenant, obs);
                }
                if !out.hit {
                    // Fetch and verify before incrementing; the updated
                    // counter now sits dirty in the cache and its tree
                    // update is deferred until eviction (lazy propagation).
                    self.stats.dram_meta.reads += 1;
                    self.verify_counter::<O, HAS_MDC>(counter, tenant, obs);
                }
            }
            _ => {
                // Bypassed or no cache: RMW in memory, and update every
                // tree level eagerly (the write happens "immediately
                // following the write to a counter", Section IV-E).
                self.stats.meta.record_access(BlockKind::Counter, false);
                self.stats.dram_meta.reads += 1;
                self.stats.dram_meta.writes += 1;
                let path = TreeWalk::of_counter(&self.layout, counter);
                let mut slot = self.layout.child_slot_of_counter(counter);
                for (level, node) in path.iter().enumerate() {
                    self.meta_write_slot::<O, HAS_MDC>(
                        node,
                        BlockKind::Tree(level as u8),
                        slot,
                        tenant,
                        obs,
                    );
                    slot = self.layout.child_slot_of_tree(node);
                }
            }
        }
    }

    /// Writes one 8 B slot of a hash/tree block through the cache.
    fn meta_write_slot<O: MetaObserver + ?Sized, const HAS_MDC: bool>(
        &mut self,
        block: BlockAddr,
        kind: BlockKind,
        slot: u8,
        tenant: TenantId,
        obs: &mut O,
    ) {
        obs.observe(&MetaAccess::new(block, kind, AccessKind::Write));
        match &mut self.mdc {
            Some(mdc) if HAS_MDC => {
                let out = mdc.write_partial(block.index(), kind, slot, tenant);
                if out.bypassed() {
                    self.stats.meta.record_access(kind, false);
                    self.stats.dram_meta.reads += 1;
                    self.stats.dram_meta.writes += 1;
                    return;
                }
                self.stats.meta.record_access(kind, out.hit);
                if !out.hit && !self.partial_writes {
                    // Write-allocate fetch before the insert-complete.
                    self.stats.dram_meta.reads += 1;
                }
                if let Some(victim) = out.evicted {
                    self.process_eviction::<O, HAS_MDC>(victim, tenant, obs);
                }
            }
            _ => {
                self.stats.meta.record_access(kind, false);
                self.stats.dram_meta.reads += 1;
                self.stats.dram_meta.writes += 1;
            }
        }
    }

    /// Writes a whole metadata block (page re-encryption rewrites entire
    /// hash/counter blocks; no fetch needed on miss).
    fn meta_write_full<O: MetaObserver + ?Sized, const HAS_MDC: bool>(
        &mut self,
        block: BlockAddr,
        kind: BlockKind,
        tenant: TenantId,
        obs: &mut O,
    ) {
        obs.observe(&MetaAccess::new(block, kind, AccessKind::Write));
        match &mut self.mdc {
            Some(mdc) if HAS_MDC && mdc.contents().admits(kind) => {
                let out = mdc.access(block.index(), kind, true, tenant);
                self.stats.meta.record_access(kind, out.hit);
                if let Some(victim) = out.evicted {
                    self.process_eviction::<O, HAS_MDC>(victim, tenant, obs);
                }
            }
            _ => {
                self.stats.meta.record_access(kind, false);
                self.stats.dram_meta.writes += 1;
            }
        }
    }

    /// Handles an evicted metadata line: write back if dirty and propagate
    /// the integrity update to the parent structure. Cascades are bounded
    /// by [`CASCADE_BUDGET`]; beyond it, updates are written through.
    fn process_eviction<O: MetaObserver + ?Sized, const HAS_MDC: bool>(
        &mut self,
        first: Line,
        tenant: TenantId,
        obs: &mut O,
    ) {
        if !first.dirty {
            // A clean victim is dropped: no writeback, no tree update.
            obs.cascade_complete(0);
            return;
        }
        let mut queue = std::mem::take(&mut self.cascade_buf);
        queue.clear();
        queue.push(first);
        let mut depth = 0usize;
        while let Some(line) = queue.pop() {
            if !line.dirty {
                continue;
            }
            if !line.is_complete() {
                // Incomplete placeholder: fill the missing slots from
                // memory before writing the block back (Section IV-E).
                self.stats.dram_meta.reads += 1;
                self.stats.partial_fill_reads += 1;
            }
            self.stats.dram_meta.writes += 1;
            let block = BlockAddr::new(line.key);
            let update = match line.kind {
                BlockKind::Counter => Some((
                    self.layout.tree_leaf_of(block),
                    0u8,
                    self.layout.child_slot_of_counter(block),
                )),
                BlockKind::Tree(level) => self
                    .layout
                    .tree_parent(block)
                    .map(|p| (p, level + 1, self.layout.child_slot_of_tree(block))),
                _ => None,
            };
            let Some((node, level, slot)) = update else {
                continue;
            };
            depth += 1;
            if depth > CASCADE_BUDGET {
                self.write_through_tree_update(node, level, obs);
                continue;
            }
            // Inline meta_write_slot, collecting any further eviction.
            obs.observe(&MetaAccess::new(
                node,
                BlockKind::Tree(level),
                AccessKind::Write,
            ));
            if let Some(mdc) = self.mdc.as_mut().filter(|_| HAS_MDC) {
                let out = mdc.write_partial(node.index(), BlockKind::Tree(level), slot, tenant);
                if out.bypassed() {
                    self.stats.meta.record_access(BlockKind::Tree(level), false);
                    self.stats.dram_meta.reads += 1;
                    self.stats.dram_meta.writes += 1;
                } else {
                    self.stats
                        .meta
                        .record_access(BlockKind::Tree(level), out.hit);
                    if !out.hit && !self.partial_writes {
                        self.stats.dram_meta.reads += 1;
                    }
                    if let Some(victim) = out.evicted {
                        queue.push(victim);
                    }
                }
            } else {
                self.stats.meta.record_access(BlockKind::Tree(level), false);
                self.stats.dram_meta.reads += 1;
                self.stats.dram_meta.writes += 1;
            }
        }
        self.stats.max_cascade_depth = self.stats.max_cascade_depth.max(depth as u64);
        obs.cascade_complete(depth as u64);
        self.cascade_buf = queue;
    }

    /// Tree update written straight to memory (cascade overflow and final
    /// flush), still propagating level by level to the root.
    fn write_through_tree_update<O: MetaObserver + ?Sized>(
        &mut self,
        mut node: BlockAddr,
        mut level: u8,
        obs: &mut O,
    ) {
        loop {
            obs.observe(&MetaAccess::new(
                node,
                BlockKind::Tree(level),
                AccessKind::Write,
            ));
            self.stats.meta.record_access(BlockKind::Tree(level), false);
            self.stats.dram_meta.reads += 1;
            self.stats.dram_meta.writes += 1;
            match self.layout.tree_parent(node) {
                Some(parent) => {
                    node = parent;
                    level += 1;
                }
                None => break,
            }
        }
    }

    /// Re-encrypts a whole page after a counter overflow: every data block
    /// is read, re-encrypted under the new page counter, written back, and
    /// its hashes are recomputed.
    fn reencrypt_page<O: MetaObserver + ?Sized, const HAS_MDC: bool>(
        &mut self,
        page: u64,
        tenant: TenantId,
        obs: &mut O,
    ) {
        self.stats.dram_data.reads += maps_trace::BLOCKS_PER_PAGE;
        self.stats.dram_data.writes += maps_trace::BLOCKS_PER_PAGE;
        // The layout borrow blocks calling `meta_write_full` inside the
        // iteration; a page has at most BLOCKS_PER_PAGE hash blocks, so a
        // stack buffer replaces the former per-overflow `Vec` collect.
        let mut hash_blocks = [BlockAddr::new(0); maps_trace::BLOCKS_PER_PAGE as usize];
        let mut n = 0;
        for hb in self.layout.hash_blocks_of_page(page) {
            hash_blocks[n] = hb;
            n += 1;
        }
        for &hb in &hash_blocks[..n] {
            self.meta_write_full::<O, HAS_MDC>(hb, BlockKind::Hash, tenant, obs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheContents;

    fn engine(mdc: &MdcConfig) -> MetadataEngine {
        MetadataEngine::new(SecureConfig::poison_ivy(16 << 20), mdc, 200, 40, true)
    }

    #[test]
    fn cold_read_walks_whole_tree() {
        let mut e = engine(&MdcConfig::paper_default());
        let mut rec = RecordingObserver::new();
        e.handle_read(BlockAddr::new(0), &mut rec);
        // hash + counter + full tree walk (3 levels for 16 MB).
        let kinds: Vec<BlockKind> = rec.records.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                BlockKind::Hash,
                BlockKind::Counter,
                BlockKind::Tree(0),
                BlockKind::Tree(1),
                BlockKind::Tree(2)
            ]
        );
        assert_eq!(e.stats().tree_walks, 1);
        assert_eq!(e.stats().tree_walk_level_misses, 3);
        assert_eq!(e.stats().dram_meta.reads, 5);
    }

    #[test]
    fn warm_read_touches_only_cached_metadata() {
        let mut e = engine(&MdcConfig::paper_default());
        let mut obs = NullObserver;
        e.handle_read(BlockAddr::new(0), &mut obs);
        let before = e.stats().dram_meta.reads;
        // Same page: counter and hash blocks now cached.
        e.handle_read(BlockAddr::new(1), &mut obs);
        assert_eq!(e.stats().dram_meta.reads, before);
        assert_eq!(e.stats().tree_walks, 1);
    }

    #[test]
    fn counter_hit_skips_tree_walk() {
        let mut e = engine(&MdcConfig::paper_default());
        let mut obs = NullObserver;
        e.handle_read(BlockAddr::new(0), &mut obs);
        // Block 8 shares the counter block (same page) but not the hash
        // block; its read must not start a walk.
        e.handle_read(BlockAddr::new(8), &mut obs);
        assert_eq!(e.stats().tree_walks, 1);
    }

    #[test]
    fn speculation_hides_verification_latency() {
        let mk = |spec| {
            MetadataEngine::new(
                SecureConfig::poison_ivy(16 << 20),
                &MdcConfig::paper_default(),
                200,
                40,
                spec,
            )
        };
        let mut spec_engine = mk(true);
        let mut nonspec_engine = mk(false);
        let s1 = spec_engine.handle_read(BlockAddr::new(0), &mut NullObserver);
        let s2 = nonspec_engine.handle_read(BlockAddr::new(0), &mut NullObserver);
        assert!(
            s2 > s1,
            "non-speculative stall {s2} should exceed speculative {s1}"
        );
    }

    #[test]
    fn finite_speculation_window_interpolates() {
        let mk = |window| {
            MetadataEngine::with_speculation_window(
                SecureConfig::poison_ivy(16 << 20),
                &MdcConfig::disabled(),
                200,
                40,
                true,
                window,
            )
        };
        let stall_at = |window| mk(window).handle_read(BlockAddr::new(0), &mut NullObserver);
        let unbounded = stall_at(u64::MAX);
        let tight = stall_at(100);
        let zero = stall_at(0);
        let mut nospec_engine = MetadataEngine::new(
            SecureConfig::poison_ivy(16 << 20),
            &MdcConfig::disabled(),
            200,
            40,
            false,
        );
        let nospec = nospec_engine.handle_read(BlockAddr::new(0), &mut NullObserver);
        assert!(unbounded <= tight && tight <= zero);
        assert_eq!(zero, nospec, "window 0 must equal no speculation");
    }

    #[test]
    fn no_mdc_pays_full_walk_every_read() {
        let mut e = engine(&MdcConfig::disabled());
        let mut obs = NullObserver;
        e.handle_read(BlockAddr::new(0), &mut obs);
        e.handle_read(BlockAddr::new(0), &mut obs);
        // Two reads, each: 1 hash + 1 counter + 3 tree levels = 5.
        assert_eq!(e.stats().dram_meta.reads, 10);
        assert_eq!(e.stats().tree_walks, 2);
    }

    #[test]
    fn write_updates_counter_and_hash() {
        let mut e = engine(&MdcConfig::paper_default());
        let mut rec = RecordingObserver::new();
        e.handle_write(BlockAddr::new(0), &mut rec);
        let kinds: Vec<(BlockKind, AccessKind)> =
            rec.records.iter().map(|r| (r.kind, r.access)).collect();
        assert!(kinds.contains(&(BlockKind::Counter, AccessKind::Write)));
        assert!(kinds.contains(&(BlockKind::Hash, AccessKind::Write)));
        assert_eq!(e.stats().dram_data.writes, 1);
    }

    #[test]
    fn eager_tree_updates_without_cache() {
        let mut e = engine(&MdcConfig::disabled());
        let mut rec = RecordingObserver::new();
        e.handle_write(BlockAddr::new(0), &mut rec);
        let tree_writes = rec
            .records
            .iter()
            .filter(|r| matches!(r.kind, BlockKind::Tree(_)) && r.access == AccessKind::Write)
            .count();
        assert_eq!(tree_writes, 3, "every level written eagerly");
    }

    #[test]
    fn lazy_tree_update_deferred_until_counter_eviction() {
        // Tiny 1-set cache holding all kinds: force counter evictions.
        let mdc = MdcConfig::paper_default().with_size(512); // 8 lines
        let mut e = engine(&mdc);
        let mut rec = RecordingObserver::new();
        // Dirty one counter block, then stream reads from other pages to
        // evict it.
        e.handle_write(BlockAddr::new(0), &mut rec);
        let writes_before = rec
            .records
            .iter()
            .filter(|r| matches!(r.kind, BlockKind::Tree(_)) && r.access == AccessKind::Write)
            .count();
        assert_eq!(
            writes_before, 0,
            "no tree write while the counter sits dirty in cache"
        );
        for page in 1..64u64 {
            e.handle_read(BlockAddr::new(page * 64), &mut rec);
        }
        let tree_writes = rec
            .records
            .iter()
            .filter(|r| matches!(r.kind, BlockKind::Tree(_)) && r.access == AccessKind::Write)
            .count();
        assert!(
            tree_writes > 0,
            "eviction of the dirty counter must update its leaf"
        );
    }

    #[test]
    fn overflow_triggers_page_reencryption() {
        let mut e = engine(&MdcConfig::paper_default());
        let mut obs = NullObserver;
        for _ in 0..128 {
            e.handle_write(BlockAddr::new(0), &mut obs);
        }
        assert_eq!(e.stats().page_overflows, 1);
        // Re-encryption moved the whole page through the controller.
        assert!(e.stats().dram_data.reads >= 64);
        assert!(e.stats().dram_data.writes >= 64 + 128);
    }

    #[test]
    fn partial_writes_skip_fetch_on_hash_miss() {
        let mut with_pw = MdcConfig::paper_default();
        with_pw.partial_writes = true;
        let mut e_pw = engine(&with_pw);
        let mut e_plain = engine(&MdcConfig::paper_default());
        let mut obs = NullObserver;
        e_pw.handle_write(BlockAddr::new(0), &mut obs);
        e_plain.handle_write(BlockAddr::new(0), &mut obs);
        assert!(
            e_pw.stats().dram_meta.reads < e_plain.stats().dram_meta.reads,
            "partial writes must avoid the hash write-allocate fetch"
        );
    }

    #[test]
    fn counters_only_contents_never_cache_hashes() {
        let mdc = MdcConfig::paper_default().with_contents(CacheContents::COUNTERS_ONLY);
        let mut e = engine(&mdc);
        let mut obs = NullObserver;
        e.handle_read(BlockAddr::new(0), &mut obs);
        e.handle_read(BlockAddr::new(0), &mut obs);
        let hash_stats = e.stats().meta.kind(BlockKind::Hash);
        assert_eq!(hash_stats.hits, 0);
        assert_eq!(hash_stats.misses, 2);
        let ctr_stats = e.stats().meta.kind(BlockKind::Counter);
        assert_eq!(ctr_stats.hits, 1);
    }

    #[test]
    fn flush_writes_back_dirty_metadata() {
        let mut e = engine(&MdcConfig::paper_default());
        let mut obs = NullObserver;
        e.handle_write(BlockAddr::new(0), &mut obs);
        let before = e.stats().dram_meta.writes;
        e.flush(&mut obs);
        assert!(e.stats().dram_meta.writes > before);
    }
}
