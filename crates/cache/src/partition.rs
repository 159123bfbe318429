//! Way partitioning between counters and hashes, and the set-dueling
//! dynamic partition controller (Section V-C).

use maps_trace::BlockKind;

use crate::config::GeometryError;
use crate::psel::PselCounter;

/// A partition split that would starve one side at a given associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionError {
    /// Requested counter ways.
    pub counter_ways: usize,
    /// Total associativity the split was checked against.
    pub ways: usize,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "partition {}:{} must leave at least one way per side",
            self.counter_ways,
            self.ways.saturating_sub(self.counter_ways)
        )
    }
}

impl std::error::Error for PartitionError {}

/// A static way partition for the metadata cache.
///
/// Counters are restricted to the first `counter_ways` ways and hashes to
/// the rest. Tree nodes (and data, in mixed caches) may use any way — the
/// paper explicitly excludes tree nodes from partitioning because their
/// reuse distances are either too short to be evicted or too long to cache.
///
/// # Examples
///
/// ```
/// use maps_cache::Partition;
/// use maps_trace::BlockKind;
/// let p = Partition::counter_ways(3);
/// assert_eq!(p.ways_for(BlockKind::Counter, 8), (0, 3));
/// assert_eq!(p.ways_for(BlockKind::Hash, 8), (3, 8));
/// assert_eq!(p.ways_for(BlockKind::Tree(0), 8), (0, 8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Partition {
    counter_ways: usize,
}

impl Partition {
    /// Creates a partition validated against the associativity it will be
    /// used with: both sides keep at least one way. Prefer this over
    /// [`counter_ways`](Self::counter_ways) whenever the associativity is
    /// known at construction time.
    pub fn new(counter_ways: usize, ways: usize) -> Result<Self, PartitionError> {
        if counter_ways >= 1 && counter_ways < ways {
            Ok(Self { counter_ways })
        } else {
            Err(PartitionError { counter_ways, ways })
        }
    }

    /// Creates a partition granting `counter_ways` ways to counters; the
    /// remainder go to hashes.
    ///
    /// The split is unchecked here because the associativity is not known
    /// yet; every consumer validates before use ([`new`](Self::new),
    /// [`validate`](Self::validate), `SetAssocCache::set_partition`,
    /// [`DuelingController::new`]) and [`ways_for`](Self::ways_for)
    /// debug-asserts as a backstop.
    pub const fn counter_ways(counter_ways: usize) -> Self {
        Self { counter_ways }
    }

    /// Number of ways granted to counters.
    pub const fn counter_way_count(&self) -> usize {
        self.counter_ways
    }

    /// Validates the partition against an associativity.
    ///
    /// # Panics
    ///
    /// Panics if the split leaves either side without at least one way.
    pub fn validate(&self, ways: usize) {
        if let Err(e) = Partition::new(self.counter_ways, ways) {
            panic!("{e}");
        }
    }

    /// Checked form of [`validate`](Self::validate).
    pub fn try_validate(&self, ways: usize) -> Result<(), PartitionError> {
        Partition::new(self.counter_ways, ways).map(|_| ())
    }

    /// Half-open way range `[lo, hi)` allowed for `kind` at associativity
    /// `ways`.
    ///
    /// In debug builds an invalid split (either side empty) asserts;
    /// release builds clamp, which for `counter_ways ≥ ways` hands hashes
    /// the empty range `[ways, ways)` — a cache that can never fill — so
    /// construction-time validation is not optional.
    pub fn ways_for(&self, kind: BlockKind, ways: usize) -> (usize, usize) {
        debug_assert!(
            self.counter_ways >= 1 && self.counter_ways < ways,
            "unvalidated partition: {} counter ways of {ways}",
            self.counter_ways
        );
        match kind {
            BlockKind::Counter => (0, self.counter_ways.min(ways)),
            BlockKind::Hash => (self.counter_ways.min(ways), ways),
            BlockKind::Data | BlockKind::Tree(_) => (0, ways),
        }
    }

    /// All valid splits for an associativity, for best-static sweeps.
    pub fn all_splits(ways: usize) -> impl Iterator<Item = Partition> {
        (1..ways).map(Partition::counter_ways)
    }
}

/// Role a set plays under set dueling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetRole {
    /// Always uses partition A; its misses vote for B.
    LeaderA,
    /// Always uses partition B; its misses vote for A.
    LeaderB,
    /// Uses whichever partition is currently winning.
    Follower,
}

/// Set-dueling controller choosing between two partitions at run time
/// (Qureshi et al.-style dynamic insertion adapted to partitioning, as the
/// paper's Section V-C describes).
///
/// Two small collections of leader sets are distributed uniformly across
/// the index space; a saturating [`PselCounter`] accumulates miss votes
/// and follower sets adopt the partition of the currently-winning leader
/// (the sign/tie convention is documented once, on
/// [`psel`](crate::psel)).
#[derive(Debug, Clone)]
pub struct DuelingController {
    partition_a: Partition,
    partition_b: Partition,
    roles: Vec<SetRole>,
    psel: PselCounter,
}

impl DuelingController {
    /// Creates a controller over `sets` cache sets of associativity
    /// `ways`, with `leaders_per_side` leader sets for each competing
    /// partition. Both partitions are validated here: the controller's
    /// choices flow into `SetAssocCache::access_with` as per-access
    /// overrides, bypassing `set_partition`'s validation, so this is the
    /// last construction-time gate before `ways_for`.
    ///
    /// # Panics
    ///
    /// Panics if either partition is invalid at `ways` or there are not
    /// enough sets for the requested leaders.
    pub fn new(
        sets: usize,
        ways: usize,
        leaders_per_side: usize,
        partition_a: Partition,
        partition_b: Partition,
    ) -> Self {
        partition_a.validate(ways);
        partition_b.validate(ways);
        if let Err(e) = Self::check_leaders(sets, leaders_per_side) {
            panic!("{e}");
        }
        let mut roles = vec![SetRole::Follower; sets];
        if leaders_per_side > 0 {
            // Distribute leaders uniformly: interleave A and B leaders at a
            // fixed stride so both samples span the whole index space.
            let stride = sets / (2 * leaders_per_side);
            for i in 0..leaders_per_side {
                roles[2 * i * stride] = SetRole::LeaderA;
                roles[(2 * i + 1) * stride] = SetRole::LeaderB;
            }
        }
        Self {
            partition_a,
            partition_b,
            roles,
            psel: PselCounter::new(),
        }
    }

    /// Checks that `sets` sets can hold `leaders_per_side` leader sets
    /// for each partition, the geometry [`DuelingController::new`]
    /// requires.
    ///
    /// # Errors
    ///
    /// [`GeometryError::Leaders`] when `2 * leaders_per_side > sets`.
    pub fn check_leaders(sets: usize, leaders_per_side: usize) -> Result<(), GeometryError> {
        if leaders_per_side <= sets / 2 {
            Ok(())
        } else {
            Err(GeometryError::Leaders {
                leaders_per_side,
                sets,
            })
        }
    }

    /// Role of a set.
    pub fn role(&self, set: usize) -> SetRole {
        self.roles[set]
    }

    /// Partition a given set should use right now.
    pub fn partition_for(&self, set: usize) -> Partition {
        match self.roles[set] {
            SetRole::LeaderA => self.partition_a,
            SetRole::LeaderB => self.partition_b,
            SetRole::Follower => {
                if self.psel.prefers_b() {
                    self.partition_b
                } else {
                    self.partition_a
                }
            }
        }
    }

    /// Records a miss in `set`; leader misses move the selector toward the
    /// other leader's partition.
    pub fn record_miss(&mut self, set: usize) {
        match self.roles[set] {
            SetRole::LeaderA => self.psel.record_a_miss(),
            SetRole::LeaderB => self.psel.record_b_miss(),
            SetRole::Follower => {}
        }
    }

    /// Current selector value (negative favours partition A).
    pub fn selector(&self) -> i32 {
        self.psel.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_ranges() {
        let p = Partition::counter_ways(2);
        p.validate(8);
        assert_eq!(p.ways_for(BlockKind::Counter, 8), (0, 2));
        assert_eq!(p.ways_for(BlockKind::Hash, 8), (2, 8));
        assert_eq!(p.ways_for(BlockKind::Data, 8), (0, 8));
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn degenerate_partition_rejected() {
        Partition::counter_ways(8).validate(8);
    }

    #[test]
    fn checked_constructor_rejects_degenerate_splits() {
        assert!(Partition::new(3, 8).is_ok());
        assert_eq!(
            Partition::new(8, 8),
            Err(PartitionError {
                counter_ways: 8,
                ways: 8
            })
        );
        assert!(Partition::new(9, 8).is_err());
        assert!(Partition::new(0, 8).is_err());
        assert!(Partition::counter_ways(2).try_validate(8).is_ok());
        assert!(Partition::counter_ways(0).try_validate(8).is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unvalidated partition")]
    fn ways_for_asserts_on_unvalidated_split() {
        // Regression: this used to silently hand hashes the empty range
        // (ways, ways), starving them of every way.
        Partition::counter_ways(8).ways_for(BlockKind::Hash, 8);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_ways_for_stays_in_bounds_for_unvalidated_splits() {
        // Release builds have no debug_assert; the clamp is the last
        // line of defence. An unchecked degenerate split must still
        // yield an in-bounds (possibly empty) range — never an
        // out-of-bounds or inverted one — while the checked
        // constructors (`Partition::new`, `try_validate`) keep every
        // user-reachable path (mdcsim --partition, oracle artifact
        // parsing) from constructing such a split in the first place.
        for cw in [0usize, 8, 9, 1000] {
            let p = Partition::counter_ways(cw);
            for kind in [
                BlockKind::Counter,
                BlockKind::Hash,
                BlockKind::Data,
                BlockKind::Tree(0),
            ] {
                let (lo, hi) = p.ways_for(kind, 8);
                assert!(lo <= hi && hi <= 8, "({lo},{hi}) escapes 8 ways");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn dueling_controller_validates_partitions() {
        DuelingController::new(
            16,
            8,
            1,
            Partition::counter_ways(2),
            Partition::counter_ways(8), // would starve hashes
        );
    }

    #[test]
    fn leader_count_is_checked_without_overflow() {
        assert_eq!(DuelingController::check_leaders(128, 64), Ok(()));
        for leaders_per_side in [65, 1000, usize::MAX] {
            assert_eq!(
                DuelingController::check_leaders(128, leaders_per_side),
                Err(GeometryError::Leaders {
                    leaders_per_side,
                    sets: 128
                })
            );
        }
    }

    #[test]
    fn all_splits_enumerates() {
        let splits: Vec<_> = Partition::all_splits(4).collect();
        assert_eq!(splits.len(), 3);
        assert_eq!(splits[0].counter_way_count(), 1);
        assert_eq!(splits[2].counter_way_count(), 3);
    }

    #[test]
    fn leaders_distributed_and_balanced() {
        let d = DuelingController::new(
            64,
            8,
            4,
            Partition::counter_ways(2),
            Partition::counter_ways(6),
        );
        let a = (0..64).filter(|&s| d.role(s) == SetRole::LeaderA).count();
        let b = (0..64).filter(|&s| d.role(s) == SetRole::LeaderB).count();
        assert_eq!((a, b), (4, 4));
    }

    #[test]
    fn follower_tracks_winning_leader() {
        let mut d = DuelingController::new(
            64,
            8,
            2,
            Partition::counter_ways(2),
            Partition::counter_ways(6),
        );
        let follower = (0..64).find(|&s| d.role(s) == SetRole::Follower).unwrap();
        // Misses in A's leaders vote for B.
        let leader_a = (0..64).find(|&s| d.role(s) == SetRole::LeaderA).unwrap();
        for _ in 0..10 {
            d.record_miss(leader_a);
        }
        assert_eq!(d.partition_for(follower), Partition::counter_ways(6));
        // Misses in B's leaders vote back toward A.
        let leader_b = (0..64).find(|&s| d.role(s) == SetRole::LeaderB).unwrap();
        for _ in 0..20 {
            d.record_miss(leader_b);
        }
        assert_eq!(d.partition_for(follower), Partition::counter_ways(2));
    }

    #[test]
    fn leaders_keep_their_partition_regardless_of_psel() {
        let mut d = DuelingController::new(
            32,
            8,
            1,
            Partition::counter_ways(1),
            Partition::counter_ways(7),
        );
        let leader_a = (0..32).find(|&s| d.role(s) == SetRole::LeaderA).unwrap();
        for _ in 0..100 {
            d.record_miss(leader_a);
        }
        assert_eq!(d.partition_for(leader_a), Partition::counter_ways(1));
    }

    #[test]
    fn selector_saturates() {
        let mut d = DuelingController::new(
            16,
            8,
            1,
            Partition::counter_ways(1),
            Partition::counter_ways(7),
        );
        let leader_a = (0..16).find(|&s| d.role(s) == SetRole::LeaderA).unwrap();
        for _ in 0..5000 {
            d.record_miss(leader_a);
        }
        assert_eq!(d.selector(), crate::PSEL_MAX);
        // Symmetric: B-leader misses saturate at the negative bound.
        let leader_b = (0..16).find(|&s| d.role(s) == SetRole::LeaderB).unwrap();
        for _ in 0..5000 {
            d.record_miss(leader_b);
        }
        assert_eq!(d.selector(), -crate::PSEL_MAX);
    }

    #[test]
    fn followers_use_partition_a_at_zero_selector() {
        // Pins the tie-break convention: psel == 0 (including the initial
        // state and any return to balance) resolves to partition A.
        let mut d = DuelingController::new(
            64,
            8,
            2,
            Partition::counter_ways(2),
            Partition::counter_ways(6),
        );
        let follower = (0..64).find(|&s| d.role(s) == SetRole::Follower).unwrap();
        assert_eq!(d.selector(), 0);
        assert_eq!(d.partition_for(follower), Partition::counter_ways(2));
        // One A-vote then one B-vote returns to exactly zero: still A.
        let leader_a = (0..64).find(|&s| d.role(s) == SetRole::LeaderA).unwrap();
        let leader_b = (0..64).find(|&s| d.role(s) == SetRole::LeaderB).unwrap();
        d.record_miss(leader_a);
        assert_eq!(d.partition_for(follower), Partition::counter_ways(6));
        d.record_miss(leader_b);
        assert_eq!(d.selector(), 0);
        assert_eq!(d.partition_for(follower), Partition::counter_ways(2));
    }
}
