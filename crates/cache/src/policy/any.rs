//! Runtime-selected policy via enum dispatch.

use maps_trace::BlockKind;

use super::{
    CostAware, Drrip, Eva, Fifo, MinOracle, Policy, RandomEvict, Srrip, TraceMin, TreePlru, TrueLru,
};
use crate::line::SetView;
use crate::Line;

/// A replacement policy chosen at run time.
///
/// Wraps every concrete policy behind one enum so simulators can switch
/// policies from configuration without generics, at the cost of one match
/// per callback.
///
/// # Examples
///
/// ```
/// use maps_cache::policy::AnyPolicy;
/// use maps_cache::{CacheConfig, SetAssocCache};
/// use maps_trace::BlockKind;
///
/// for policy in [AnyPolicy::true_lru(), AnyPolicy::pseudo_lru(), AnyPolicy::eva()] {
///     let mut c = SetAssocCache::new(CacheConfig::from_bytes(4096, 8), policy);
///     c.access(1, BlockKind::Counter, false);
/// }
/// ```
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // enum dispatch trades size for zero indirection
pub enum AnyPolicy {
    /// Exact LRU.
    TrueLru(TrueLru),
    /// Tree pseudo-LRU.
    TreePlru(TreePlru),
    /// FIFO.
    Fifo(Fifo),
    /// Seeded random.
    Random(RandomEvict),
    /// SRRIP.
    Srrip(Srrip),
    /// EVA, with one age histogram or one per block kind.
    Eva(Eva),
    /// Belady MIN with a divergence-tolerant keyed oracle.
    Min(MinOracle),
    /// Belady MIN with the paper's positional (divergence-fragile) oracle.
    TraceMin(TraceMin),
    /// Cost-aware, type-aware eviction (Section VI's future-work policy).
    CostAware(CostAware),
    /// DRRIP (dynamic re-reference interval prediction).
    Drrip(Drrip),
}

impl AnyPolicy {
    /// Exact LRU.
    pub fn true_lru() -> Self {
        AnyPolicy::TrueLru(TrueLru::new())
    }

    /// Tree pseudo-LRU (the paper's hardware baseline).
    pub fn pseudo_lru() -> Self {
        AnyPolicy::TreePlru(TreePlru::new())
    }

    /// FIFO.
    pub fn fifo() -> Self {
        AnyPolicy::Fifo(Fifo::new())
    }

    /// Seeded random replacement.
    pub fn random(seed: u64) -> Self {
        AnyPolicy::Random(RandomEvict::with_seed(seed))
    }

    /// SRRIP.
    pub fn srrip() -> Self {
        AnyPolicy::Srrip(Srrip::new())
    }

    /// EVA with default parameters.
    pub fn eva() -> Self {
        AnyPolicy::Eva(Eva::new())
    }

    /// Belady MIN over a recorded key trace (keyed, divergence-tolerant).
    pub fn min_from_trace(trace: &[u64]) -> Self {
        AnyPolicy::Min(MinOracle::from_trace(trace))
    }

    /// Belady MIN with the paper's positional future knowledge, which goes
    /// stale once the live stream diverges from the recorded trace.
    pub fn trace_min_from_trace(trace: &[u64]) -> Self {
        AnyPolicy::TraceMin(TraceMin::from_trace(trace))
    }

    /// Cost-aware eviction weighting counters by their tree-walk cost.
    pub fn cost_aware(counter_cost: u64) -> Self {
        AnyPolicy::CostAware(CostAware::new(counter_cost))
    }

    /// DRRIP with set dueling between SRRIP and BRRIP insertion.
    pub fn drrip() -> Self {
        AnyPolicy::Drrip(Drrip::new())
    }

    /// EVA with one histogram per metadata type (tests the paper's
    /// diagnosis that the single histogram is EVA's weakness).
    pub fn eva_per_type() -> Self {
        AnyPolicy::Eva(Eva::per_type())
    }

    /// Whether this policy is a Mattson stack algorithm: for a fixed set
    /// count, growing associativity can never turn a hit into a miss
    /// (the inclusion property). Exact LRU and Belady MIN are stack
    /// algorithms; the approximations and adaptive policies are not (and
    /// are conservatively reported as such).
    pub fn is_stack_algorithm(&self) -> bool {
        matches!(self, AnyPolicy::TrueLru(_) | AnyPolicy::Min(_))
    }
}

macro_rules! delegate {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            AnyPolicy::TrueLru($p) => $body,
            AnyPolicy::TreePlru($p) => $body,
            AnyPolicy::Fifo($p) => $body,
            AnyPolicy::Random($p) => $body,
            AnyPolicy::Srrip($p) => $body,
            AnyPolicy::Eva($p) => $body,
            AnyPolicy::Min($p) => $body,
            AnyPolicy::TraceMin($p) => $body,
            AnyPolicy::CostAware($p) => $body,
            AnyPolicy::Drrip($p) => $body,
        }
    };
}

impl Policy for AnyPolicy {
    fn name(&self) -> &'static str {
        delegate!(self, p => p.name())
    }

    fn init(&mut self, sets: usize, ways: usize) {
        delegate!(self, p => p.init(sets, ways));
    }

    fn begin_access(&mut self, time: u64, key: u64) {
        delegate!(self, p => p.begin_access(time, key));
    }

    fn on_hit(&mut self, set: usize, way: usize, now: u64, kind: BlockKind) {
        delegate!(self, p => p.on_hit(set, way, now, kind));
    }

    fn on_fill(&mut self, set: usize, way: usize, line: &Line) {
        delegate!(self, p => p.on_fill(set, way, line));
    }

    fn on_evict(&mut self, set: usize, way: usize, line: &Line, now: u64) {
        delegate!(self, p => p.on_evict(set, way, line, now));
    }

    fn choose_victim(
        &mut self,
        set: usize,
        candidates: &[usize],
        lines: &SetView<'_>,
        now: u64,
    ) -> usize {
        delegate!(self, p => p.choose_victim(set, candidates, lines, now))
    }

    fn choose_victim_fast(&mut self, set: usize, candidates: &[usize], now: u64) -> Option<usize> {
        delegate!(self, p => p.choose_victim_fast(set, candidates, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, SetAssocCache};
    use maps_trace::BlockKind;

    #[test]
    fn names_are_distinct() {
        let policies = [
            AnyPolicy::true_lru(),
            AnyPolicy::pseudo_lru(),
            AnyPolicy::fifo(),
            AnyPolicy::random(1),
            AnyPolicy::srrip(),
            AnyPolicy::eva(),
            AnyPolicy::min_from_trace(&[]),
            AnyPolicy::trace_min_from_trace(&[]),
            AnyPolicy::cost_aware(5),
            AnyPolicy::drrip(),
            AnyPolicy::eva_per_type(),
        ];
        let names: Vec<_> = policies.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn any_policy_behaves_like_wrapped_policy() {
        let keys: Vec<u64> = (0..500).map(|i| (i * 11) % 37).collect();
        let mut direct = SetAssocCache::new(CacheConfig::from_bytes(1024, 4), TrueLru::new());
        let mut wrapped =
            SetAssocCache::new(CacheConfig::from_bytes(1024, 4), AnyPolicy::true_lru());
        for &k in &keys {
            assert_eq!(
                direct.access(k, BlockKind::Data, false).hit,
                wrapped.access(k, BlockKind::Data, false).hit
            );
        }
    }
}
