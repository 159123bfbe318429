//! Replacement policies.
//!
//! The paper evaluates pseudo-LRU, EVA, Belady's MIN and an iterated MIN on
//! the metadata cache (Figure 6) and finds that none of them — not even the
//! "optimal" MIN — handles metadata's bimodal reuse and non-uniform miss
//! costs well. This module implements all of them plus standard baselines.

mod any;
mod cost_aware;
mod drrip;
mod eva;
mod fifo;
mod min;
mod plru;
mod random;
mod srrip;
mod trace_min;
mod true_lru;

pub use any::AnyPolicy;
pub use cost_aware::CostAware;
pub use drrip::Drrip;
pub use eva::Eva;
pub use fifo::Fifo;
pub use min::MinOracle;
pub use plru::TreePlru;
pub use random::RandomEvict;
pub use srrip::Srrip;
pub use trace_min::TraceMin;
pub use true_lru::TrueLru;

use maps_trace::BlockKind;

use crate::line::SetView;
use crate::Line;

/// A cache replacement policy.
///
/// The cache core owns the lines; policies receive callbacks on hits, fills,
/// and evictions, and choose victims among a candidate way list (the
/// candidate list is narrowed by way partitioning when active). Per-line
/// recency/insertion timestamps are maintained by the core and available on
/// each [`Line`], so stateless policies like LRU and FIFO need no storage of
/// their own. Victim selection receives a [`SetView`] rather than raw line
/// storage, so the same policies drive both the struct-of-arrays production
/// cache and the array-of-structs oracle specification.
pub trait Policy {
    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str;

    /// Sizes per-set state. Called once by the cache constructor.
    fn init(&mut self, sets: usize, ways: usize);

    /// Called at the start of every cache access with the access counter
    /// and the key being accessed (used by oracle policies).
    fn begin_access(&mut self, _time: u64, _key: u64) {}

    /// Called when `key` hits in `(set, way)`. `now` is the access counter
    /// (the line's refreshed `last_at`) and `kind` the resident line's
    /// classification — passed as scalars so the cache core never has to
    /// materialize a [`Line`] from its column store on the hit path.
    fn on_hit(&mut self, _set: usize, _way: usize, _now: u64, _kind: BlockKind) {}

    /// Called when a line is filled into `(set, way)`.
    fn on_fill(&mut self, _set: usize, _way: usize, _line: &Line) {}

    /// Called when a line is evicted from `(set, way)`; `now` is the access
    /// counter, so `line.age(now)` is the line's final age.
    fn on_evict(&mut self, _set: usize, _way: usize, _line: &Line, _now: u64) {}

    /// Chooses a victim way among `candidates` (never empty; every
    /// candidate way holds a valid line).
    fn choose_victim(
        &mut self,
        set: usize,
        candidates: &[usize],
        lines: &SetView<'_>,
        now: u64,
    ) -> usize;

    /// Victim selection without line state, for policies whose decision
    /// needs none (tree-PLRU bits, a seeded RNG). Returning `Some(way)`
    /// must match what [`Policy::choose_victim`] would pick; `None` (the
    /// default) makes the cache assemble a [`SetView`] and call it. Fills
    /// are the busiest path of the metadata-cache simulation, so skipping
    /// the view construction is worth the dual entry point.
    fn choose_victim_fast(
        &mut self,
        _set: usize,
        _candidates: &[usize],
        _now: u64,
    ) -> Option<usize> {
        None
    }
}

/// Helper: candidate whose line minimizes a key function. First minimum
/// wins (matching `Iterator::min_by_key`); an empty candidate list is
/// debug-checked and falls back to way 0 rather than aborting the replay.
pub(crate) fn argmin_by<F: FnMut(&Line) -> u64>(
    candidates: &[usize],
    lines: &SetView<'_>,
    mut score: F,
) -> usize {
    let Some((&first, rest)) = candidates.split_first() else {
        debug_assert!(false, "candidate list must not be empty");
        return 0;
    };
    let mut best = first;
    let mut best_score = score(&lines.line(first));
    for &w in rest {
        let s = score(&lines.line(w));
        if s < best_score {
            best_score = s;
            best = w;
        }
    }
    best
}
