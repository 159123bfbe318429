//! Encryption counter state and overflow behaviour.

use maps_trace::det::DetHashMap;
use maps_trace::{BlockAddr, BLOCKS_PER_PAGE};

use crate::CounterMode;

/// Deterministic multiply-shift hasher for the dense page/block indices
/// keying the counter maps. The default SipHash is keyed against
/// adversarial input; these keys are simulator-internal integers, and the
/// counter maps sit on the per-writeback hot path, so the cheap
/// deterministic mix wins. Now shared workspace-wide as
/// [`maps_trace::det::DetHasher`]; this alias keeps the original public
/// name.
pub use maps_trace::det::DetHasher as IndexHasher;

type IndexMap<V> = DetHashMap<u64, V>;

/// Outcome of incrementing a block's write counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The per-block counter incremented without overflow.
    Incremented,
    /// The 7-bit per-block counter overflowed: the per-page counter was
    /// bumped, all per-block counters in the page reset, and the whole page
    /// must be re-encrypted (64 block reads + 64 block writes).
    PageOverflow {
        /// Index of the page that must be re-encrypted.
        page: u64,
    },
}

/// Functional state of the encryption counters.
///
/// Tracks per-block write counts so the simulator can model the page
/// re-encryption events that split counters incur when a 7-bit per-block
/// counter wraps (Section II-A). Pages never written are not stored.
///
/// # Examples
///
/// ```
/// use maps_secure::{CounterMode, CounterStore, WriteOutcome};
/// use maps_trace::BlockAddr;
///
/// let mut ctrs = CounterStore::new(CounterMode::SplitPi);
/// let block = BlockAddr::new(5);
/// for _ in 0..127 {
///     assert_eq!(ctrs.record_write(block), WriteOutcome::Incremented);
/// }
/// // The 128th write overflows the 7-bit counter.
/// assert_eq!(ctrs.record_write(block), WriteOutcome::PageOverflow { page: 0 });
/// ```
#[derive(Debug, Clone)]
pub struct CounterStore {
    mode: CounterMode,
    /// Per-page state for split counters: (page counter, per-block counts).
    pages: IndexMap<PageCounters>,
    /// Monolithic 64-bit counters for SGX mode.
    blocks: IndexMap<u64>,
    overflows: u64,
    writes: u64,
}

#[derive(Debug, Clone)]
struct PageCounters {
    page_counter: u64,
    block_counters: [u8; BLOCKS_PER_PAGE as usize],
}

impl Default for PageCounters {
    fn default() -> Self {
        Self {
            page_counter: 0,
            block_counters: [0; BLOCKS_PER_PAGE as usize],
        }
    }
}

/// A 7-bit counter overflows when it would reach 128.
const SPLIT_COUNTER_LIMIT: u8 = 127;

impl CounterStore {
    /// Creates an empty counter store.
    pub fn new(mode: CounterMode) -> Self {
        // Pre-size the maps: workloads touch thousands of pages, and letting
        // the table grow from empty re-moves every `PageCounters` (72 B) on
        // each rehash, which shows up in replay profiles. Point lookups only
        // — capacity never affects observable counter state.
        let cap = |m| if mode == m { 4096 } else { 0 };
        Self {
            mode,
            pages: IndexMap::with_capacity_and_hasher(
                cap(CounterMode::SplitPi),
                Default::default(),
            ),
            blocks: IndexMap::with_capacity_and_hasher(
                cap(CounterMode::SgxMonolithic),
                Default::default(),
            ),
            overflows: 0,
            writes: 0,
        }
    }

    /// The counter organization.
    pub fn mode(&self) -> CounterMode {
        self.mode
    }

    /// Records a write to a data block, incrementing its counter.
    pub fn record_write(&mut self, data: BlockAddr) -> WriteOutcome {
        self.writes += 1;
        match self.mode {
            CounterMode::SplitPi => {
                let page = data.page().index();
                let slot = data.slot_in_page() as usize;
                let entry = self.pages.entry(page).or_default();
                if entry.block_counters[slot] >= SPLIT_COUNTER_LIMIT {
                    entry.page_counter += 1;
                    entry.block_counters = [0; BLOCKS_PER_PAGE as usize];
                    self.overflows += 1;
                    WriteOutcome::PageOverflow { page }
                } else {
                    entry.block_counters[slot] += 1;
                    WriteOutcome::Incremented
                }
            }
            CounterMode::SgxMonolithic => {
                // 64-bit counters do not overflow on any realistic horizon.
                *self.blocks.entry(data.index()).or_insert(0) += 1;
                WriteOutcome::Incremented
            }
        }
    }

    /// Current counter value for a block (page counter excluded in split
    /// mode).
    pub fn block_counter(&self, data: BlockAddr) -> u64 {
        match self.mode {
            CounterMode::SplitPi => self.pages.get(&data.page().index()).map_or(0, |p| {
                u64::from(p.block_counters[data.slot_in_page() as usize])
            }),
            CounterMode::SgxMonolithic => self.blocks.get(&data.index()).copied().unwrap_or(0),
        }
    }

    /// Current per-page counter (always 0 in SGX mode).
    pub fn page_counter(&self, page: u64) -> u64 {
        match self.mode {
            CounterMode::SplitPi => self.pages.get(&page).map_or(0, |p| p.page_counter),
            CounterMode::SgxMonolithic => 0,
        }
    }

    /// Total writes recorded.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total page overflows (re-encryption events).
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Exports write and overflow totals under `{prefix}.writes` and
    /// `{prefix}.overflows` (each overflow is a whole-page re-encryption,
    /// the cost Section III-B charges against split counters).
    pub fn export(&self, prefix: &str, sink: &mut maps_obs::Metrics) {
        sink.counter_add(&format!("{prefix}.writes"), self.writes);
        sink.counter_add(&format!("{prefix}.overflows"), self.overflows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_counter_increments_then_overflows() {
        let mut c = CounterStore::new(CounterMode::SplitPi);
        let b = BlockAddr::new(70); // page 1, slot 6
        for i in 1..=127u64 {
            assert_eq!(c.record_write(b), WriteOutcome::Incremented);
            assert_eq!(c.block_counter(b), i);
        }
        assert_eq!(c.record_write(b), WriteOutcome::PageOverflow { page: 1 });
        assert_eq!(c.block_counter(b), 0);
        assert_eq!(c.page_counter(1), 1);
        assert_eq!(c.overflows(), 1);
    }

    #[test]
    fn overflow_resets_all_blocks_in_page() {
        let mut c = CounterStore::new(CounterMode::SplitPi);
        let sibling = BlockAddr::new(1);
        c.record_write(sibling);
        let b = BlockAddr::new(0);
        for _ in 0..128 {
            c.record_write(b);
        }
        assert_eq!(
            c.block_counter(sibling),
            0,
            "sibling counter survives overflow reset"
        );
    }

    #[test]
    fn sgx_counters_never_overflow() {
        let mut c = CounterStore::new(CounterMode::SgxMonolithic);
        let b = BlockAddr::new(3);
        for _ in 0..1000 {
            assert_eq!(c.record_write(b), WriteOutcome::Incremented);
        }
        assert_eq!(c.block_counter(b), 1000);
        assert_eq!(c.overflows(), 0);
        assert_eq!(c.page_counter(0), 0);
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let c = CounterStore::new(CounterMode::SplitPi);
        assert_eq!(c.block_counter(BlockAddr::new(99)), 0);
        assert_eq!(c.page_counter(5), 0);
    }

    #[test]
    fn pages_are_independent() {
        let mut c = CounterStore::new(CounterMode::SplitPi);
        for _ in 0..128 {
            c.record_write(BlockAddr::new(0)); // page 0
        }
        assert_eq!(c.page_counter(0), 1);
        assert_eq!(c.page_counter(1), 0);
        assert_eq!(c.block_counter(BlockAddr::new(64)), 0);
    }
}
