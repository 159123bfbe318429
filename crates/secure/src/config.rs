//! Secure-memory configuration.

use maps_trace::{BLOCKS_PER_PAGE, BLOCK_BYTES, PAGE_BYTES};

/// Counter organization (Table II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterMode {
    /// PoisonIvy-style split counter: one 8 B per-page counter and 64
    /// seven-bit per-block counters per 64 B counter block. One counter
    /// block covers one 4 KB page.
    SplitPi,
    /// Intel SGX-style monolithic counter: eight 8 B per-block counters per
    /// 64 B counter block. One counter block covers 512 B of data.
    SgxMonolithic,
}

impl CounterMode {
    /// Number of data blocks covered by one 64 B counter block.
    pub const fn data_blocks_per_counter_block(self) -> u64 {
        match self {
            CounterMode::SplitPi => BLOCKS_PER_PAGE,
            CounterMode::SgxMonolithic => 8,
        }
    }

    /// Bytes of data covered by one 64 B counter block.
    pub const fn data_bytes_per_counter_block(self) -> u64 {
        self.data_blocks_per_counter_block() * BLOCK_BYTES
    }
}

/// Configuration of the protected memory and its metadata structures.
///
/// # Examples
///
/// ```
/// use maps_secure::SecureConfig;
/// let cfg = SecureConfig::poison_ivy(4 << 30); // 4 GB, Table I
/// assert_eq!(cfg.data_blocks(), (4u64 << 30) / 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecureConfig {
    /// Bytes of protected data memory.
    pub memory_bytes: u64,
    /// Counter organization.
    pub mode: CounterMode,
    /// Integrity-tree arity (children per node); 8 for 8 × 8 B HMACs per
    /// 64 B node.
    pub tree_arity: u64,
}

impl SecureConfig {
    /// PoisonIvy-style configuration over `memory_bytes` of data.
    ///
    /// # Panics
    ///
    /// Panics if `memory_bytes` is not a positive multiple of 4 KB.
    pub fn poison_ivy(memory_bytes: u64) -> Self {
        Self::new(memory_bytes, CounterMode::SplitPi)
    }

    /// SGX-style configuration over `memory_bytes` of data.
    ///
    /// # Panics
    ///
    /// Panics if `memory_bytes` is not a positive multiple of 4 KB.
    pub fn sgx(memory_bytes: u64) -> Self {
        Self::new(memory_bytes, CounterMode::SgxMonolithic)
    }

    /// Creates a configuration with the default 8-ary tree.
    ///
    /// # Panics
    ///
    /// Panics if `memory_bytes` is not a positive multiple of 4 KB.
    pub fn new(memory_bytes: u64, mode: CounterMode) -> Self {
        assert!(memory_bytes > 0, "protected memory must be non-empty");
        assert_eq!(
            memory_bytes % PAGE_BYTES,
            0,
            "protected memory ({memory_bytes} B) must be page-aligned"
        );
        Self {
            memory_bytes,
            mode,
            tree_arity: 8,
        }
    }

    /// Number of 64 B data blocks protected.
    pub const fn data_blocks(&self) -> u64 {
        self.memory_bytes / BLOCK_BYTES
    }

    /// Number of 64 B counter blocks required.
    pub const fn counter_blocks(&self) -> u64 {
        self.data_blocks()
            .div_ceil(self.mode.data_blocks_per_counter_block())
    }

    /// Number of 64 B hash blocks required (eight 8 B HMACs each).
    pub const fn hash_blocks(&self) -> u64 {
        self.data_blocks().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi_counter_coverage_is_a_page() {
        assert_eq!(CounterMode::SplitPi.data_bytes_per_counter_block(), 4096);
    }

    #[test]
    fn sgx_counter_coverage_is_512b() {
        assert_eq!(
            CounterMode::SgxMonolithic.data_bytes_per_counter_block(),
            512
        );
    }

    #[test]
    fn block_counts_for_paper_memory() {
        let pi = SecureConfig::poison_ivy(4 << 30);
        // 4 GB: 64 Mi data blocks, 1 Mi counter blocks (one per page),
        // 8 Mi hash blocks.
        assert_eq!(pi.data_blocks(), 1 << 26);
        assert_eq!(pi.counter_blocks(), 1 << 20);
        assert_eq!(pi.hash_blocks(), 1 << 23);

        let sgx = SecureConfig::sgx(4 << 30);
        assert_eq!(sgx.counter_blocks(), 1 << 23);
    }

    #[test]
    fn pi_counter_space_matches_paper_claim() {
        // Section II-A: per-page + per-block counters reduce 4 GB's counter
        // storage from 512 MB down to 64 MB.
        let pi = SecureConfig::poison_ivy(4 << 30);
        assert_eq!(pi.counter_blocks() * 64, 64 << 20);
        let monolithic_8b_per_block = pi.data_blocks() * 8;
        assert_eq!(monolithic_8b_per_block, 512 << 20);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_memory_rejected() {
        SecureConfig::poison_ivy(4096 + 64);
    }
}
