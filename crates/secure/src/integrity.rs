//! A functional model of the secure-memory integrity mechanism.
//!
//! The rest of this crate (and the simulator) models *where metadata lives
//! and when it is accessed*; this module models *what the mechanism
//! computes*: per-block HMACs over (data, counter, address) and a Bonsai
//! Merkle Tree of hashes over the counters, with the root held on chip.
//! It exists to make the security claims executable — unit tests
//! demonstrate that data tampering, counter tampering, tree tampering, and
//! replay (rollback) attacks are all detected, exactly the threat model of
//! Section II.
//!
//! Hashes are 64-bit mix functions, not cryptographic primitives: the
//! model verifies *protocol* correctness (what is hashed over what, and
//! what the root pins down), not collision resistance.
//!
//! # Examples
//!
//! ```
//! use maps_secure::integrity::SecureMemoryModel;
//! use maps_secure::SecureConfig;
//! use maps_trace::BlockAddr;
//!
//! let mut mem = SecureMemoryModel::new(SecureConfig::poison_ivy(1 << 20));
//! let block = BlockAddr::new(42);
//! mem.write_block(block, 0xDEADBEEF);
//! assert_eq!(mem.read_block(block).unwrap(), 0xDEADBEEF);
//!
//! // An attacker flips bits in memory: the next read detects it.
//! mem.tamper_data(block, 0xBADC0DE);
//! assert!(mem.read_block(block).is_err());
//! ```

use std::cell::RefCell;
use std::fmt;

use maps_trace::det::DetHashMap;
use maps_trace::rng::SplitMix64;
use maps_trace::BlockAddr;

use crate::{CounterMode, CounterStore, Layout, SecureConfig};

/// Default HMAC key for [`SecureMemoryModel::new`]; arbitrary, fixed so
/// runs are reproducible. Use [`SecureMemoryModel::with_key`] to vary it.
const DEFAULT_KEY: u64 = 0x5EC2_E71C_0DD5_EEDA;

/// Why an integrity check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// The per-block data HMAC did not match the stored data.
    DataHashMismatch {
        /// The data block whose HMAC failed.
        block: BlockAddr,
    },
    /// A tree node's stored hash did not match the hash of its children.
    TreeMismatch {
        /// Level of the failing node (0 = leaf); the root is level
        /// `tree_levels()`.
        level: u8,
    },
    /// The on-chip root did not match the top in-memory level.
    RootMismatch,
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityError::DataHashMismatch { block } => {
                write!(f, "data HMAC mismatch for {block}")
            }
            IntegrityError::TreeMismatch { level } => {
                write!(f, "integrity-tree hash mismatch at level {level}")
            }
            IntegrityError::RootMismatch => f.write_str("on-chip root mismatch"),
        }
    }
}

impl std::error::Error for IntegrityError {}

/// One attacker-addressable word of stored secure-memory state.
///
/// Everything in DRAM is fair game for a physical attacker: the data
/// itself, the per-block HMACs, the counter blocks, and every integrity
/// tree node below the root. The on-chip root and the key are *not*
/// sites — that is the trust boundary the mechanism is built on.
/// [`SecureMemoryModel::attack_sites`] enumerates the written sites so
/// fault campaigns can cover the whole surface mechanically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackSite {
    /// The stored data fingerprint of a data block.
    Data(BlockAddr),
    /// The stored per-block HMAC of a data block.
    Hmac(BlockAddr),
    /// The stored fingerprint of a counter block (addressed by the
    /// counter block itself, not a data block it covers).
    CounterBlock(BlockAddr),
    /// A stored integrity-tree node hash.
    TreeNode {
        /// Level of the node (0 = leaf).
        level: u8,
        /// Offset of the node within its level.
        offset: u64,
    },
}

impl fmt::Display for AttackSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackSite::Data(b) => write!(f, "data[{}]", b.index()),
            AttackSite::Hmac(b) => write!(f, "hmac[{}]", b.index()),
            AttackSite::CounterBlock(b) => write!(f, "ctr[{}]", b.index()),
            AttackSite::TreeNode { level, offset } => write!(f, "tree[{level}:{offset}]"),
        }
    }
}

/// Keyed combination of hash inputs, folded with the SplitMix64
/// finalizer.
fn hmac(key: u64, parts: &[u64]) -> u64 {
    let mut acc = SplitMix64::new(key).next_u64();
    for &p in parts {
        acc = SplitMix64::new(acc ^ p).next_u64();
    }
    acc
}

/// Functional secure-memory state: data fingerprints, counters, HMACs, and
/// the full hash tree, with explicit tampering entry points for tests and
/// demos.
#[derive(Debug, Clone)]
pub struct SecureMemoryModel {
    layout: Layout,
    counters: CounterStore,
    key: u64,
    /// Stored (possibly tampered) data fingerprints.
    data: DetHashMap<u64, u64>,
    /// Stored per-block HMACs.
    hmacs: DetHashMap<u64, u64>,
    /// Content fingerprint of each counter *block* (page counter plus all
    /// block counters), as an attacker in memory would see it.
    counter_fingerprints: DetHashMap<u64, u64>,
    /// Stored tree node hashes by (level, offset).
    tree: DetHashMap<(u8, u64), u64>,
    /// The on-chip root (not addressable by the attacker).
    root: u64,
    verified_reads: u64,
    /// Memoized hashes of never-written subtrees (they are pure functions
    /// of the geometry and key).
    default_cache: RefCell<DetHashMap<(u8, u64), u64>>,
}

impl SecureMemoryModel {
    /// Creates a model over the given configuration with a fixed secret
    /// key.
    pub fn new(cfg: SecureConfig) -> Self {
        Self::with_key(cfg, DEFAULT_KEY)
    }

    /// Creates a model with an explicit HMAC key.
    pub fn with_key(cfg: SecureConfig, key: u64) -> Self {
        let mut model = Self {
            layout: Layout::new(cfg),
            counters: CounterStore::new(cfg.mode),
            key,
            data: DetHashMap::default(),
            hmacs: DetHashMap::default(),
            counter_fingerprints: DetHashMap::default(),
            tree: DetHashMap::default(),
            root: 0,
            verified_reads: 0,
            default_cache: RefCell::new(DetHashMap::default()),
        };
        model.root = model.compute_root();
        model
    }

    /// The layout geometry backing this model.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Number of reads that passed verification.
    pub fn verified_reads(&self) -> u64 {
        self.verified_reads
    }

    /// Writes a value to a data block: increments the counter, recomputes
    /// the HMAC, and updates the tree path up to the on-chip root.
    /// Returns the counter outcome so callers can observe overflows
    /// (page re-encryptions) as they happen.
    pub fn write_block(&mut self, block: BlockAddr, value: u64) -> crate::WriteOutcome {
        let outcome = self.counters.record_write(block);
        self.data.insert(block.index(), value);
        // The HMAC binds the data to the counter state *as stored in
        // memory*, so a consistent rollback of (data, HMAC, counter block)
        // self-verifies — and only the integrity tree, pinned by the
        // on-chip root, exposes the replay.
        self.refresh_counter_fingerprint(block);
        let h = self.data_hmac(block, value);
        self.hmacs.insert(block.index(), h);
        self.update_tree_path(block);
        outcome
    }

    /// Reads a data block, verifying the data HMAC, the counter's tree
    /// path, and the on-chip root.
    ///
    /// # Errors
    ///
    /// Returns the first failing check as an [`IntegrityError`]. Reading a
    /// never-written block yields zero (memory is zero-initialized in this
    /// model) after the same verification.
    pub fn read_block(&mut self, block: BlockAddr) -> Result<u64, IntegrityError> {
        let value = self.data.get(&block.index()).copied().unwrap_or(0);
        let expected = self.data_hmac(block, value);
        let stored = self.hmacs.get(&block.index()).copied().unwrap_or_else(|| {
            // Never-written blocks carry the HMAC of (0, counter=0).
            self.data_hmac(block, 0)
        });
        if stored != expected {
            return Err(IntegrityError::DataHashMismatch { block });
        }
        self.verify_tree_path(block)?;
        self.verified_reads += 1;
        Ok(value)
    }

    /// Attacker: overwrite stored data without updating any hash.
    pub fn tamper_data(&mut self, block: BlockAddr, value: u64) {
        self.data.insert(block.index(), value);
    }

    /// Attacker: overwrite a stored per-block HMAC without touching the
    /// data it authenticates.
    pub fn tamper_hmac(&mut self, block: BlockAddr, value: u64) {
        self.hmacs.insert(block.index(), value);
    }

    /// Every attacker-addressable site holding *written* state, sorted so
    /// campaigns enumerate the surface deterministically. (Never-written
    /// sites hold derivable defaults; flipping those is covered by
    /// writing first, which every campaign does.)
    pub fn attack_sites(&self) -> Vec<AttackSite> {
        let mut sites = Vec::new();
        for &idx in self.data.keys() {
            sites.push(AttackSite::Data(BlockAddr::new(idx)));
        }
        for &idx in self.hmacs.keys() {
            sites.push(AttackSite::Hmac(BlockAddr::new(idx)));
        }
        for &idx in self.counter_fingerprints.keys() {
            sites.push(AttackSite::CounterBlock(BlockAddr::new(idx)));
        }
        for &(level, offset) in self.tree.keys() {
            sites.push(AttackSite::TreeNode { level, offset });
        }
        sites.sort();
        sites
    }

    /// The value currently stored at an attacker-addressable site
    /// (including the derivable default for never-written sites).
    pub fn site_value(&self, site: AttackSite) -> u64 {
        match site {
            AttackSite::Data(b) => self.data.get(&b.index()).copied().unwrap_or(0),
            AttackSite::Hmac(b) => self
                .hmacs
                .get(&b.index())
                .copied()
                .unwrap_or_else(|| self.data_hmac(b, 0)),
            AttackSite::CounterBlock(b) => self.stored_counter_fingerprint(b),
            AttackSite::TreeNode { level, offset } => self.stored_tree_hash(level, offset),
        }
    }

    /// Attacker: overwrite the value stored at any addressable site.
    /// `TreeNode` sites follow [`SecureMemoryModel::tamper_tree_node`]
    /// semantics (panics on a nonexistent level); the other variants
    /// accept any block address, like their dedicated entry points.
    pub fn tamper_site(&mut self, site: AttackSite, value: u64) {
        match site {
            AttackSite::Data(b) => self.tamper_data(b, value),
            AttackSite::Hmac(b) => self.tamper_hmac(b, value),
            AttackSite::CounterBlock(b) => {
                self.counter_fingerprints.insert(b.index(), value);
            }
            AttackSite::TreeNode { level, offset } => self.tamper_tree_node(level, offset, value),
        }
    }

    /// The trusted counter state behind the model (read-only), so fault
    /// campaigns can mirror writes into the value-level oracle and drive
    /// overflow storms against both in lockstep.
    pub fn counters(&self) -> &CounterStore {
        &self.counters
    }

    /// Attacker: overwrite the stored counter-block fingerprint (e.g.
    /// rolling the counter back), without updating the tree.
    pub fn tamper_counter_block(&mut self, block: BlockAddr, fingerprint: u64) {
        let ctr_block = self.layout.counter_block_of(block);
        self.counter_fingerprints
            .insert(ctr_block.index(), fingerprint);
    }

    /// Attacker: overwrite a stored tree node hash.
    ///
    /// # Panics
    ///
    /// Panics if the level does not exist.
    pub fn tamper_tree_node(&mut self, level: u8, offset: u64, value: u64) {
        assert!(
            (level as usize) < self.layout.tree_levels(),
            "no such tree level"
        );
        self.tree.insert((level, offset), value);
    }

    /// Attacker snapshot of everything addressable in memory for `block`:
    /// `(data, hmac, counter fingerprint)`. Restoring this snapshot later
    /// is a replay attack.
    pub fn snapshot(&self, block: BlockAddr) -> (u64, u64, u64) {
        let ctr_block = self.layout.counter_block_of(block);
        (
            self.data.get(&block.index()).copied().unwrap_or(0),
            self.hmacs.get(&block.index()).copied().unwrap_or(0),
            self.counter_fingerprints
                .get(&ctr_block.index())
                .copied()
                .unwrap_or(0),
        )
    }

    /// Attacker: replay a previous snapshot of the block's memory state
    /// (data, HMAC, and counter block). Detected via the tree/root, which
    /// the attacker cannot rewind.
    pub fn replay(&mut self, block: BlockAddr, snapshot: (u64, u64, u64)) {
        let (data, hmac_value, ctr_fp) = snapshot;
        self.data.insert(block.index(), data);
        self.hmacs.insert(block.index(), hmac_value);
        let ctr_block = self.layout.counter_block_of(block);
        self.counter_fingerprints.insert(ctr_block.index(), ctr_fp);
    }

    fn data_hmac(&self, block: BlockAddr, value: u64) -> u64 {
        // HMAC binds value, address, and the counter block as fetched from
        // memory; the counter block itself is authenticated by the tree.
        let ctr_block = self.layout.counter_block_of(block);
        let fp = self.stored_counter_fingerprint(ctr_block);
        hmac(self.key, &[value, block.index(), fp])
    }

    /// Recomputes the stored fingerprint of the counter block covering
    /// `block` from trusted counter state (called on legitimate writes).
    fn refresh_counter_fingerprint(&mut self, block: BlockAddr) {
        let ctr_block = self.layout.counter_block_of(block);
        let fp = self.trusted_counter_fingerprint(ctr_block);
        self.counter_fingerprints.insert(ctr_block.index(), fp);
    }

    /// Fingerprint of a counter block from the controller's trusted
    /// counter values.
    fn trusted_counter_fingerprint(&self, ctr_block: BlockAddr) -> u64 {
        let mut parts = vec![ctr_block.index()];
        for data_block in self.layout.data_blocks_of_counter(ctr_block) {
            parts.push(self.counters.block_counter(data_block));
        }
        if self.counters.mode() == CounterMode::SplitPi {
            // All data blocks of a PI counter block share one page.
            if let Some(first) = self.layout.data_blocks_of_counter(ctr_block).next() {
                parts.push(self.counters.page_counter(first.page().index()));
            }
        }
        hmac(self.key, &parts)
    }

    /// Stored (attacker-visible) fingerprint of a counter block.
    fn stored_counter_fingerprint(&self, ctr_block: BlockAddr) -> u64 {
        self.counter_fingerprints
            .get(&ctr_block.index())
            .copied()
            .unwrap_or_else(|| self.zero_counter_fingerprint(ctr_block))
    }

    /// Fingerprint of an all-zero (never written) counter block.
    fn zero_counter_fingerprint(&self, ctr_block: BlockAddr) -> u64 {
        let n = self.layout.data_blocks_of_counter(ctr_block).count();
        let mut parts = vec![ctr_block.index()];
        parts.extend(std::iter::repeat_n(0u64, n));
        if self.counters.mode() == CounterMode::SplitPi {
            parts.push(0);
        }
        hmac(self.key, &parts)
    }

    /// Hash of a leaf node: the fingerprints of the counter blocks it
    /// covers.
    fn leaf_hash(&self, leaf_offset: u64) -> u64 {
        let arity = self.layout.config().tree_arity;
        let base = leaf_offset * arity;
        let mut parts = vec![leaf_offset];
        for i in 0..arity {
            let idx = base + i;
            if idx < self.layout.counter_blocks() {
                let ctr_block = BlockAddr::new(self.layout.data_blocks() + idx);
                parts.push(self.stored_counter_fingerprint(ctr_block));
            }
        }
        hmac(self.key, &parts)
    }

    /// Hash of an internal node from its children's stored hashes.
    fn node_hash(&self, level: u8, offset: u64) -> u64 {
        let arity = self.layout.config().tree_arity;
        let child_level = level - 1;
        let child_count = self.layout.tree_level_size(child_level as usize);
        let mut parts = vec![u64::from(level), offset];
        for i in 0..arity {
            let child = offset * arity + i;
            if child < child_count {
                parts.push(self.stored_tree_hash(child_level, child));
            }
        }
        hmac(self.key, &parts)
    }

    fn stored_tree_hash(&self, level: u8, offset: u64) -> u64 {
        self.tree
            .get(&(level, offset))
            .copied()
            .unwrap_or_else(|| self.default_tree_hash(level, offset))
    }

    /// Hash a never-updated tree node would hold: the hash of the all-zero
    /// initial state below it. (Any write below the node stores a real
    /// entry via `update_tree_path`.)
    fn default_tree_hash(&self, level: u8, offset: u64) -> u64 {
        if let Some(&h) = self.default_cache.borrow().get(&(level, offset)) {
            return h;
        }
        let h = self.compute_default_tree_hash(level, offset);
        self.default_cache.borrow_mut().insert((level, offset), h);
        h
    }

    fn compute_default_tree_hash(&self, level: u8, offset: u64) -> u64 {
        if level == 0 {
            let arity = self.layout.config().tree_arity;
            let base = offset * arity;
            let mut parts = vec![offset];
            for i in 0..arity {
                let idx = base + i;
                if idx < self.layout.counter_blocks() {
                    let ctr_block = BlockAddr::new(self.layout.data_blocks() + idx);
                    parts.push(self.zero_counter_fingerprint(ctr_block));
                }
            }
            hmac(self.key, &parts)
        } else {
            let arity = self.layout.config().tree_arity;
            let child_count = self.layout.tree_level_size((level - 1) as usize);
            let mut parts = vec![u64::from(level), offset];
            for i in 0..arity {
                let child = offset * arity + i;
                if child < child_count {
                    parts.push(self.default_tree_hash(level - 1, child));
                }
            }
            hmac(self.key, &parts)
        }
    }

    fn top_level(&self) -> u8 {
        (self.layout.tree_levels().saturating_sub(1)) as u8
    }

    /// Root hash over the top in-memory level.
    fn compute_root(&self) -> u64 {
        if self.layout.tree_levels() == 0 {
            // The root directly hashes the counter blocks.
            let mut parts = vec![u64::MAX];
            for idx in 0..self.layout.counter_blocks() {
                let ctr_block = BlockAddr::new(self.layout.data_blocks() + idx);
                parts.push(self.stored_counter_fingerprint(ctr_block));
            }
            return hmac(self.key, &parts);
        }
        let top = self.top_level();
        let mut parts = vec![u64::MAX];
        for off in 0..self.layout.tree_level_size(top as usize) {
            parts.push(self.stored_tree_hash(top, off));
        }
        hmac(self.key, &parts)
    }

    /// Recomputes the tree path above `block`'s counter and the root
    /// (legitimate write path).
    fn update_tree_path(&mut self, block: BlockAddr) {
        let ctr_block = self.layout.counter_block_of(block);
        let path: Vec<BlockAddr> = self.layout.tree_path_of_counter(ctr_block).collect();
        for node in path {
            let (level, offset) = self.layout.tree_position(node);
            let h = if level == 0 {
                self.leaf_hash(offset)
            } else {
                self.node_hash(level as u8, offset)
            };
            self.tree.insert((level as u8, offset), h);
        }
        self.root = self.compute_root();
    }

    /// Verifies the tree path above `block`'s counter against stored
    /// hashes and the on-chip root.
    fn verify_tree_path(&self, block: BlockAddr) -> Result<(), IntegrityError> {
        let ctr_block = self.layout.counter_block_of(block);
        for node in self.layout.tree_path_of_counter(ctr_block) {
            let (level, offset) = self.layout.tree_position(node);
            let expected = if level == 0 {
                self.leaf_hash(offset)
            } else {
                self.node_hash(level as u8, offset)
            };
            if self.stored_tree_hash(level as u8, offset) != expected {
                return Err(IntegrityError::TreeMismatch { level: level as u8 });
            }
        }
        if self.compute_root() != self.root {
            return Err(IntegrityError::RootMismatch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SecureMemoryModel {
        SecureMemoryModel::new(SecureConfig::poison_ivy(1 << 20))
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = model();
        let b = BlockAddr::new(7);
        m.write_block(b, 123);
        assert_eq!(m.read_block(b).unwrap(), 123);
        m.write_block(b, 456);
        assert_eq!(m.read_block(b).unwrap(), 456);
        assert_eq!(m.verified_reads(), 2);
    }

    #[test]
    fn unwritten_blocks_read_zero_and_verify() {
        let mut m = model();
        assert_eq!(m.read_block(BlockAddr::new(100)).unwrap(), 0);
    }

    #[test]
    fn data_tampering_is_detected() {
        let mut m = model();
        let b = BlockAddr::new(9);
        m.write_block(b, 1);
        m.tamper_data(b, 2);
        assert_eq!(
            m.read_block(b),
            Err(IntegrityError::DataHashMismatch { block: b })
        );
    }

    #[test]
    fn counter_tampering_is_detected() {
        let mut m = model();
        let b = BlockAddr::new(9);
        m.write_block(b, 1);
        m.tamper_counter_block(b, 0xDEAD);
        // Depending on which check fires first this is seen as a garbled
        // decryption (HMAC fail) or as a leaf mismatch; both mean caught.
        let err = m.read_block(b).unwrap_err();
        assert!(matches!(
            err,
            IntegrityError::DataHashMismatch { .. } | IntegrityError::TreeMismatch { .. }
        ));
    }

    #[test]
    fn replay_detected_specifically_by_the_tree() {
        // A *consistent* rollback (data, HMAC, counter block all from the
        // same snapshot) passes the HMAC check by construction; only the
        // on-chip root exposes it.
        let mut m = model();
        let b = BlockAddr::new(3);
        m.write_block(b, 1);
        let stale = m.snapshot(b);
        m.write_block(b, 2);
        m.replay(b, stale);
        assert!(matches!(
            m.read_block(b).unwrap_err(),
            IntegrityError::TreeMismatch { .. } | IntegrityError::RootMismatch
        ));
    }

    #[test]
    fn tree_node_tampering_is_detected() {
        let mut m = model();
        let b = BlockAddr::new(9);
        m.write_block(b, 1);
        // Tamper a level-1 node on the block's path.
        let ctr = m.layout().counter_block_of(b);
        let path: Vec<_> = m.layout().tree_path_of_counter(ctr).collect();
        if path.len() >= 2 {
            let (level, off) = m.layout().tree_position(path[1]);
            m.tamper_tree_node(level as u8, off, 0xBEEF);
            let err = m.read_block(b).unwrap_err();
            assert!(matches!(
                err,
                IntegrityError::TreeMismatch { .. } | IntegrityError::RootMismatch
            ));
        }
    }

    #[test]
    fn replay_attack_is_detected() {
        let mut m = model();
        let b = BlockAddr::new(3);
        m.write_block(b, 111);
        let old = m.snapshot(b);
        // Legitimate update advances the counter and the tree.
        m.write_block(b, 222);
        assert_eq!(m.read_block(b).unwrap(), 222);
        // Replay the old memory image: data, HMAC, and counter block all
        // consistent with each other — but the tree has moved on.
        m.replay(b, old);
        assert!(
            m.read_block(b).is_err(),
            "replayed stale state must not verify"
        );
    }

    #[test]
    fn tampering_one_block_does_not_poison_others() {
        let mut m = model();
        let a = BlockAddr::new(1);
        let far = BlockAddr::new(60_000 % (m.layout().data_blocks() - 1));
        m.write_block(a, 5);
        m.write_block(far, 6);
        m.tamper_data(a, 50);
        assert!(m.read_block(a).is_err());
        // A block under a different subtree still verifies — unless it
        // shares the tampered path, which these two do not at the leaf.
        assert_eq!(m.read_block(far).unwrap(), 6);
    }

    #[test]
    fn sgx_mode_round_trips_too() {
        let mut m = SecureMemoryModel::new(SecureConfig::sgx(1 << 20));
        let b = BlockAddr::new(11);
        m.write_block(b, 77);
        assert_eq!(m.read_block(b).unwrap(), 77);
        m.tamper_data(b, 78);
        assert!(m.read_block(b).is_err());
    }

    #[test]
    fn attack_sites_cover_the_written_surface() {
        let mut m = model();
        let b = BlockAddr::new(9);
        m.write_block(b, 1);
        let sites = m.attack_sites();
        assert!(sites.contains(&AttackSite::Data(b)));
        assert!(sites.contains(&AttackSite::Hmac(b)));
        let ctr = m.layout().counter_block_of(b);
        assert!(sites.contains(&AttackSite::CounterBlock(ctr)));
        // The whole tree path above the counter is addressable.
        let path_len = m.layout().tree_path_of_counter(ctr).count();
        let tree_sites = sites
            .iter()
            .filter(|s| matches!(s, AttackSite::TreeNode { .. }))
            .count();
        assert_eq!(tree_sites, path_len);
        // Enumeration is deterministic and sorted.
        assert_eq!(sites, m.attack_sites());
        let mut sorted = sites.clone();
        sorted.sort();
        assert_eq!(sites, sorted);
    }

    #[test]
    fn every_site_flip_is_detected_on_the_blocks_own_read() {
        let mut m = model();
        let b = BlockAddr::new(9);
        m.write_block(b, 1);
        for site in m.attack_sites() {
            let mut victim = m.clone();
            let old = victim.site_value(site);
            victim.tamper_site(site, old ^ 1);
            assert_ne!(victim.site_value(site), old, "{site}: flip must stick");
            assert!(
                victim.read_block(b).is_err(),
                "{site}: single-bit flip must fail verification"
            );
        }
    }

    #[test]
    fn hmac_tampering_is_detected() {
        let mut m = model();
        let b = BlockAddr::new(5);
        m.write_block(b, 10);
        let old = m.site_value(AttackSite::Hmac(b));
        m.tamper_hmac(b, old ^ (1 << 40));
        assert_eq!(
            m.read_block(b),
            Err(IntegrityError::DataHashMismatch { block: b })
        );
    }

    #[test]
    fn write_block_reports_counter_outcome() {
        let mut m = model();
        let b = BlockAddr::new(2);
        assert_eq!(m.write_block(b, 1), crate::WriteOutcome::Incremented);
        assert_eq!(m.counters().writes(), 1);
    }

    #[test]
    fn different_keys_produce_different_hmacs() {
        let cfg = SecureConfig::poison_ivy(1 << 20);
        let mut m1 = SecureMemoryModel::with_key(cfg, 1);
        let mut m2 = SecureMemoryModel::with_key(cfg, 2);
        let b = BlockAddr::new(4);
        m1.write_block(b, 9);
        m2.write_block(b, 9);
        assert_ne!(
            m1.snapshot(b).1,
            m2.snapshot(b).1,
            "HMACs must depend on the key"
        );
    }
}
