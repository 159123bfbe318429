//! Workload composition: phase alternation and multi-tenant scheduling.
//!
//! Section V-C motivates dynamic partitioning with "applications
//! requirements evolve throughout its execution"; these combinators build
//! workloads whose requirements actually do evolve, so that motivation can
//! be tested (`ablation_phases` in `maps-bench`).
//!
//! [`TenantMix`] extends composition to the multi-tenant scenario layer:
//! it schedules N independent workloads onto one simulated machine —
//! time-sliced like a shared core or sharded round-robin like parallel
//! cores — placing each tenant in a disjoint page-aligned physical region
//! and tagging every access with the issuing [`TenantId`] so the metadata
//! cache can attribute occupancy and misses per tenant.

use maps_trace::{MemAccess, PhysAddr, TenantId, PAGE_BYTES};

use crate::Workload;

/// Alternates between two workloads in fixed-length phases.
///
/// # Examples
///
/// ```
/// use maps_workloads::{Benchmark, PhasedWorkload, Workload};
/// let mut phased = PhasedWorkload::new(
///     Benchmark::Libquantum.build(1),
///     Benchmark::Canneal.build(2),
///     1000,
/// );
/// for _ in 0..2500 {
///     phased.next_access();
/// }
/// assert_eq!(phased.phase_switches(), 2);
/// ```
pub struct PhasedWorkload {
    first: Box<dyn Workload>,
    second: Box<dyn Workload>,
    phase_length: u64,
    position: u64,
    switches: u64,
}

impl PhasedWorkload {
    /// Creates the phased workload; each phase lasts `phase_length`
    /// accesses, starting with `first`.
    ///
    /// # Panics
    ///
    /// Panics if `phase_length` is zero.
    pub fn new(first: Box<dyn Workload>, second: Box<dyn Workload>, phase_length: u64) -> Self {
        assert!(phase_length > 0, "phase length must be positive");
        Self {
            first,
            second,
            phase_length,
            position: 0,
            switches: 0,
        }
    }

    /// Number of phase transitions so far.
    pub fn phase_switches(&self) -> u64 {
        self.switches
    }

    /// Whether the *next* access comes from the first workload.
    pub fn in_first_phase(&self) -> bool {
        (self.position / self.phase_length).is_multiple_of(2)
    }
}

impl Workload for PhasedWorkload {
    fn next_access(&mut self) -> MemAccess {
        let use_first = self.in_first_phase();
        let access = if use_first {
            self.first.next_access()
        } else {
            self.second.next_access()
        };
        self.position += 1;
        if self.position.is_multiple_of(self.phase_length) {
            self.switches += 1;
        }
        access
    }

    fn footprint_bytes(&self) -> u64 {
        self.first
            .footprint_bytes()
            .max(self.second.footprint_bytes())
    }

    fn name(&self) -> &'static str {
        "phased"
    }
}

/// How [`TenantMix`] multiplexes its tenants onto the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantSchedule {
    /// One tenant runs at a time for `slice` consecutive accesses, then
    /// the next — a shared core under a coarse scheduler quantum.
    TimeSliced {
        /// Accesses per scheduling quantum.
        slice: u64,
    },
    /// Tenants alternate every access — parallel cores whose memory
    /// streams interleave finely at the shared cache.
    CoreSharded,
}

/// Schedules N workloads as distinct tenants of one machine.
///
/// Each tenant's address stream is relocated into its own page-aligned
/// physical region (regions are disjoint, modelling OS/hypervisor
/// placement), and [`current_tenant`](Workload::current_tenant) reports
/// which tenant issued the most recent access so the simulator can
/// attribute metadata-cache traffic requester-pays style.
///
/// # Examples
///
/// ```
/// use maps_workloads::{Benchmark, TenantMix, TenantSchedule, Workload};
/// let mut mix = TenantMix::new(
///     vec![Benchmark::Gups.build(1), Benchmark::Libquantum.build(2)],
///     TenantSchedule::CoreSharded,
/// );
/// let _ = mix.next_access();
/// assert_eq!(mix.current_tenant().0, 0);
/// let _ = mix.next_access();
/// assert_eq!(mix.current_tenant().0, 1);
/// ```
pub struct TenantMix {
    parts: Vec<Box<dyn Workload>>,
    bases: Vec<u64>,
    schedule: TenantSchedule,
    footprint: u64,
    pos: u64,
    current: TenantId,
}

impl TenantMix {
    /// Creates the mix; tenant IDs follow the order of `parts`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, has more tenants than a [`TenantId`]
    /// can number, or a time slice of zero is requested.
    pub fn new(parts: Vec<Box<dyn Workload>>, schedule: TenantSchedule) -> Self {
        assert!(
            (1..=usize::from(u8::MAX)).contains(&parts.len()),
            "tenant count must be 1..=255"
        );
        if let TenantSchedule::TimeSliced { slice } = schedule {
            assert!(slice > 0, "time slice must be positive");
        }
        let mut bases = Vec::with_capacity(parts.len());
        let mut next = 0u64;
        for part in &parts {
            bases.push(next);
            next += part.footprint_bytes().next_multiple_of(PAGE_BYTES);
        }
        Self {
            parts,
            bases,
            schedule,
            footprint: next.max(PAGE_BYTES),
            pos: 0,
            current: TenantId::HOST,
        }
    }

    /// The physical region `[base, base + len)` tenant `t` was placed in.
    pub fn region_of(&self, t: u8) -> (u64, u64) {
        let i = usize::from(t);
        let end = self.bases.get(i + 1).copied().unwrap_or(self.footprint);
        (self.bases[i], end - self.bases[i])
    }
}

impl Workload for TenantMix {
    fn next_access(&mut self) -> MemAccess {
        let n = self.parts.len() as u64;
        let t = match self.schedule {
            TenantSchedule::TimeSliced { slice } => (self.pos / slice) % n,
            TenantSchedule::CoreSharded => self.pos % n,
        } as usize;
        self.pos += 1;
        self.current = TenantId(t as u8);
        let a = self.parts[t].next_access();
        MemAccess::new(
            PhysAddr::new(self.bases[t] + a.addr.bytes()),
            a.kind,
            a.icount,
        )
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn name(&self) -> &'static str {
        "tenant-mix"
    }

    fn current_tenant(&self) -> TenantId {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Benchmark, StreamGen};

    fn stream(seed: u64, footprint: u64) -> Box<dyn Workload> {
        Box::new(StreamGen::new("s", seed, footprint, 1, 0.0, 4))
    }

    #[test]
    fn phases_alternate_deterministically() {
        let mut phased = PhasedWorkload::new(stream(1, 64 * 64), stream(2, 1 << 20), 100);
        assert!(phased.in_first_phase());
        for _ in 0..100 {
            phased.next_access();
        }
        assert!(!phased.in_first_phase());
        for _ in 0..100 {
            phased.next_access();
        }
        assert!(phased.in_first_phase());
        assert_eq!(phased.phase_switches(), 2);
    }

    #[test]
    fn composes_with_benchmark_profiles() {
        let mut phased = PhasedWorkload::new(
            Benchmark::Libquantum.build(1),
            Benchmark::Canneal.build(2),
            500,
        );
        for _ in 0..2000 {
            let a = phased.next_access();
            assert!(a.addr.bytes() < phased.footprint_bytes());
        }
    }

    #[test]
    fn tenant_mix_keeps_regions_disjoint() {
        let mut mix = TenantMix::new(
            vec![stream(1, 3 * 4096 + 100), stream(2, 8192), stream(3, 4096)],
            TenantSchedule::CoreSharded,
        );
        // Region layout is page-aligned and gap-free.
        assert_eq!(mix.region_of(0), (0, 4 * 4096));
        assert_eq!(mix.region_of(1), (4 * 4096, 2 * 4096));
        assert_eq!(mix.region_of(2), (6 * 4096, 4096));
        for _ in 0..3000 {
            let a = mix.next_access();
            let t = mix.current_tenant().0;
            let (base, len) = mix.region_of(t);
            assert!(
                (base..base + len).contains(&a.addr.bytes()),
                "tenant {t} escaped its region: {:#x}",
                a.addr.bytes()
            );
        }
        assert_eq!(mix.footprint_bytes(), 7 * 4096);
    }

    #[test]
    fn tenant_schedules_shape_the_interleaving() {
        let parts = || vec![stream(1, 4096), stream(2, 4096)];
        let mut sliced = TenantMix::new(parts(), TenantSchedule::TimeSliced { slice: 50 });
        for i in 0..200 {
            sliced.next_access();
            assert_eq!(u64::from(sliced.current_tenant().0), (i / 50) % 2);
        }
        let mut sharded = TenantMix::new(parts(), TenantSchedule::CoreSharded);
        for i in 0..200 {
            sharded.next_access();
            assert_eq!(u64::from(sharded.current_tenant().0), i % 2);
        }
    }

    #[test]
    fn tenant_mix_composes_with_profiles() {
        let mut mix = TenantMix::new(
            vec![Benchmark::Gups.build(4), Benchmark::Canneal.build(5)],
            TenantSchedule::TimeSliced { slice: 128 },
        );
        for _ in 0..1000 {
            let a = mix.next_access();
            assert!(a.addr.bytes() < mix.footprint_bytes());
        }
    }

    #[test]
    #[should_panic(expected = "tenant count")]
    fn empty_tenant_mix_rejected() {
        TenantMix::new(Vec::new(), TenantSchedule::CoreSharded);
    }
}
