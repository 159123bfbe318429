//! Cache geometry configuration, and the one place its rules live.

use std::fmt;

use maps_trace::BLOCK_BYTES;

/// A cache geometry the constructors would refuse. The panicking
/// constructors ([`CacheConfig::with_block_bytes`],
/// [`RandomizedCache::new`](crate::RandomizedCache::new),
/// [`DuelingController::new`](crate::DuelingController::new)) panic with
/// this error's message, and their checked forms return it, so callers
/// that take a geometry from outside the process can refuse it instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// Zero ways per set.
    NoWays,
    /// Zero bytes per block.
    NoBlockBytes,
    /// The capacity is not a multiple of `ways * block_bytes`.
    Capacity {
        /// Requested capacity in bytes.
        size_bytes: u64,
        /// Requested associativity.
        ways: usize,
        /// Block size in bytes.
        block_bytes: u64,
    },
    /// A capacity of zero: no set, or no frame.
    Empty,
    /// The set count is not a power of two.
    Sets {
        /// The set count the capacity gives.
        sets: u64,
    },
    /// Set dueling asks for more leader sets than the cache has.
    Leaders {
        /// Requested leader sets per side.
        leaders_per_side: usize,
        /// Sets in the cache.
        sets: usize,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GeometryError::NoWays => write!(f, "associativity must be positive"),
            GeometryError::NoBlockBytes => write!(f, "block size must be positive"),
            GeometryError::Capacity {
                size_bytes,
                ways,
                block_bytes,
            } => write!(
                f,
                "capacity {size_bytes} is not a multiple of ways*block ({ways}*{block_bytes})"
            ),
            GeometryError::Empty => write!(f, "cache must hold at least one block"),
            GeometryError::Sets { sets } => write!(f, "set count {sets} is not a power of two"),
            GeometryError::Leaders {
                leaders_per_side,
                sets,
            } => write!(
                f,
                "cannot place {leaders_per_side} leader sets per side in {sets} sets"
            ),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Checks that `size_bytes` is a positive multiple of `ways * block_bytes`
/// and returns the block-frame count that capacity holds.
pub(crate) fn check_capacity(
    size_bytes: u64,
    ways: usize,
    block_bytes: u64,
) -> Result<u64, GeometryError> {
    if ways == 0 {
        return Err(GeometryError::NoWays);
    }
    if block_bytes == 0 {
        return Err(GeometryError::NoBlockBytes);
    }
    let row = (ways as u64)
        .checked_mul(block_bytes)
        .filter(|row| size_bytes.is_multiple_of(*row))
        .ok_or(GeometryError::Capacity {
            size_bytes,
            ways,
            block_bytes,
        })?;
    if size_bytes == 0 {
        return Err(GeometryError::Empty);
    }
    Ok(size_bytes / row * ways as u64)
}

/// Geometry of a set-associative cache.
///
/// # Examples
///
/// ```
/// use maps_cache::CacheConfig;
/// let cfg = CacheConfig::from_bytes(64 * 1024, 8);
/// assert_eq!(cfg.sets(), 128);
/// assert_eq!(cfg.blocks(), 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size_bytes: u64,
    ways: usize,
    block_bytes: u64,
    /// `sets - 1`; valid because the set count is a power of two.
    set_mask: u64,
}

impl CacheConfig {
    /// Creates a configuration from a total capacity in bytes and an
    /// associativity, with the standard 64 B block size.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of `ways * 64` or if
    /// the resulting set count is not a power of two (required for the
    /// bit-sliced set indexing used by real caches and by tree-PLRU).
    pub fn from_bytes(size_bytes: u64, ways: usize) -> Self {
        Self::with_block_bytes(size_bytes, ways, BLOCK_BYTES)
    }

    /// Checked form of [`CacheConfig::from_bytes`].
    ///
    /// # Errors
    ///
    /// The [`GeometryError`] `from_bytes` would panic with.
    pub fn try_from_bytes(size_bytes: u64, ways: usize) -> Result<Self, GeometryError> {
        Self::try_with_block_bytes(size_bytes, ways, BLOCK_BYTES)
    }

    /// Creates a configuration with an explicit block size.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CacheConfig::from_bytes`].
    pub fn with_block_bytes(size_bytes: u64, ways: usize, block_bytes: u64) -> Self {
        Self::try_with_block_bytes(size_bytes, ways, block_bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked form of [`CacheConfig::with_block_bytes`]: ways and block
    /// size must be positive, the capacity a positive multiple of
    /// `ways * block_bytes`, and the set count a power of two.
    ///
    /// # Errors
    ///
    /// The first [`GeometryError`] that applies.
    pub fn try_with_block_bytes(
        size_bytes: u64,
        ways: usize,
        block_bytes: u64,
    ) -> Result<Self, GeometryError> {
        let sets = check_capacity(size_bytes, ways, block_bytes)? / ways as u64;
        if !sets.is_power_of_two() {
            return Err(GeometryError::Sets { sets });
        }
        Ok(Self {
            size_bytes,
            ways,
            block_bytes,
            set_mask: sets - 1,
        })
    }

    /// Total capacity in bytes.
    pub const fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity (ways per set).
    pub const fn ways(&self) -> usize {
        self.ways
    }

    /// Block size in bytes.
    pub const fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Number of sets.
    pub const fn sets(&self) -> usize {
        (self.size_bytes / (self.ways as u64 * self.block_bytes)) as usize
    }

    /// Total number of block frames.
    pub const fn blocks(&self) -> usize {
        self.sets() * self.ways
    }

    /// Set index for a block key (block-granular address). The set count
    /// is a power of two, so this is a mask, not a division — it sits on
    /// the hot path of every cache level and the metadata cache.
    pub const fn set_of(&self, key: u64) -> usize {
        (key & self.set_mask) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_llc_geometry() {
        // Table I: 2MB 8-way LLC.
        let cfg = CacheConfig::from_bytes(2 * 1024 * 1024, 8);
        assert_eq!(cfg.sets(), 4096);
        assert_eq!(cfg.blocks(), 32768);
    }

    #[test]
    fn set_mapping_wraps() {
        let cfg = CacheConfig::from_bytes(4096, 4); // 16 sets
        assert_eq!(cfg.sets(), 16);
        assert_eq!(cfg.set_of(0), 0);
        assert_eq!(cfg.set_of(16), 0);
        assert_eq!(cfg.set_of(17), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        CacheConfig::from_bytes(3 * 64 * 4, 4);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn unaligned_capacity_panics() {
        CacheConfig::from_bytes(1000, 4);
    }

    #[test]
    fn checked_geometry_names_the_rule() {
        assert_eq!(
            CacheConfig::try_from_bytes(1000, 8),
            Err(GeometryError::Capacity {
                size_bytes: 1000,
                ways: 8,
                block_bytes: 64
            })
        );
        assert_eq!(
            CacheConfig::try_from_bytes(4096, 0),
            Err(GeometryError::NoWays)
        );
        assert_eq!(CacheConfig::try_from_bytes(0, 8), Err(GeometryError::Empty));
        assert_eq!(
            CacheConfig::try_from_bytes(3 * 64 * 4, 4),
            Err(GeometryError::Sets { sets: 3 })
        );
        assert_eq!(
            CacheConfig::try_with_block_bytes(4096, 8, 0),
            Err(GeometryError::NoBlockBytes)
        );
        // Huge associativities overflow the row size instead of wrapping.
        assert!(CacheConfig::try_from_bytes(1 << 20, usize::MAX).is_err());
        assert_eq!(
            CacheConfig::try_from_bytes(64 * 1024, 8),
            Ok(CacheConfig::from_bytes(64 * 1024, 8))
        );
    }
}
