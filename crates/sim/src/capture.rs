//! Capture-once / replay-many front-end memoization.
//!
//! The front end of a run — workload generation plus the L1/L2/LLC
//! hierarchy — depends only on the workload (benchmark + seed), the access
//! count, the cache geometry, and the warm-up split. Nothing the metadata
//! engine does feeds back into it. Every sweep that varies only back-end
//! parameters (metadata cache size, policy, contents, partitioning,
//! counter mode, speculation, DRAM timing) therefore re-simulates an
//! identical front end at every point.
//!
//! [`CapturedTrace`] records that front end once: the LLC miss/writeback
//! event stream in a packed varint encoding (read/write bit + tenant-switch
//! bit + block-address delta + retired-instruction delta per event, with a
//! tenant id only where it changes), the warm-up boundary, and
//! the measured-phase hierarchy statistics. [`ReplaySim`] then drives the
//! metadata engine (or the insecure-baseline accounting) straight off the
//! capture, reproducing the direct [`SecureSim`](crate::SecureSim) report
//! **bit-identically** — same stats reset at the warm-up marker, same event
//! ordering, same energy accounting. `crates/sim/tests/replay_equivalence.rs`
//! proves the identity across benchmarks and engine configurations.
//!
//! Cost model: a direct sweep is O(points × accesses); with capture it is
//! O(front-ends × accesses + points × LLC-events), and LLC events are
//! typically 10–100× sparser than core accesses.
//!
//! # Examples
//!
//! ```
//! use maps_sim::{CapturedTrace, ReplaySim, SecureSim, SimConfig};
//! use maps_workloads::Benchmark;
//!
//! let cfg = SimConfig::paper_default();
//! let trace = CapturedTrace::record(&cfg, Benchmark::Gups.build(7), 10_000);
//! let replayed = ReplaySim::new(cfg.clone(), &trace).run();
//! let direct = SecureSim::new(cfg, Benchmark::Gups.build(7)).run(10_000);
//! assert_eq!(replayed, direct);
//! ```

use maps_trace::{BlockAddr, TenantId};
use maps_workloads::Workload;

use crate::engine::{MetaObserver, NullObserver};
use crate::hierarchy::{Hierarchy, HierarchyStats, MemEvent};
use crate::sim::Controller;
use crate::{SimConfig, SimReport};

/// The front-end parameters a capture is valid for. Replaying against a
/// configuration whose front end differs would silently produce events the
/// direct simulation never would, so [`ReplaySim::new`] checks this key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrontEndKey {
    /// L1 capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// LLC capacity in bytes.
    pub llc_bytes: u64,
    /// LLC associativity.
    pub llc_ways: usize,
    /// `warmup_fraction` bit pattern (bitwise comparison; the fraction
    /// decides where the stats-reset marker falls).
    pub warmup_fraction_bits: u64,
}

impl FrontEndKey {
    /// Extracts the front-end key from a simulation configuration.
    pub fn of(cfg: &SimConfig) -> Self {
        Self {
            l1_bytes: cfg.l1_bytes,
            l1_ways: cfg.l1_ways,
            l2_bytes: cfg.l2_bytes,
            l2_ways: cfg.l2_ways,
            llc_bytes: cfg.llc_bytes,
            llc_ways: cfg.llc_ways,
            warmup_fraction_bits: cfg.warmup_fraction.to_bits(),
        }
    }
}

/// One decoded event with the instructions retired since the previous
/// event (the first event of a core access carries that access's icount
/// plus any event-less accesses before it; trailing events carry 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapturedEvent {
    /// The memory-controller event.
    pub event: MemEvent,
    /// Instructions retired since the previous event in the stream.
    pub icount_delta: u64,
}

/// A recorded front-end pass: the packed LLC event stream, the warm-up
/// boundary, and the measured-phase hierarchy statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedTrace {
    workload: String,
    footprint_bytes: u64,
    accesses: u64,
    front_end: FrontEndKey,
    /// Varint-packed events: per event an icount delta, then
    /// `(zigzag(block_delta) << 2) | (tenant_switch << 1) | write_bit`,
    /// followed — only when the tenant-switch bit is set — by the new
    /// tenant id. Streams start at tenant 0 ([`TenantId::HOST`]), so
    /// single-tenant captures pay zero bytes for the tenant dimension.
    bytes: Vec<u8>,
    total_events: u64,
    /// Events before the warm-up boundary (statistics reset after them).
    warmup_events: u64,
    /// Instructions retired after the last measured event.
    tail_icount: u64,
    /// Hierarchy statistics of the measured window.
    hierarchy: HierarchyStats,
}

impl CapturedTrace {
    /// Runs the front end once — workload through the hierarchy for
    /// `accesses` core accesses, with `cfg`'s geometry and warm-up split —
    /// and records the resulting event stream.
    ///
    /// Only front-end fields of `cfg` matter here; the metadata cache,
    /// DRAM, and security settings are free to differ at replay time.
    pub fn record<W: Workload>(cfg: &SimConfig, mut workload: W, accesses: u64) -> Self {
        let warmup = cfg.warmup_accesses(accesses);
        let mut builder = TraceBuilder::new(
            workload.name(),
            workload.footprint_bytes(),
            FrontEndKey::of(cfg),
        );
        let mut hierarchy = Hierarchy::new(cfg);
        let mut events = Vec::with_capacity(8);
        let mut pending_icount = 0u64;
        if warmup == 0 {
            builder.mark_warmup_end();
        }
        for i in 0..accesses {
            let access = workload.next_access();
            let tenant = workload.current_tenant();
            pending_icount += u64::from(access.icount);
            hierarchy.access_from(&access, tenant, &mut events);
            for event in &events {
                builder.push(*event, std::mem::take(&mut pending_icount));
            }
            if i + 1 == warmup {
                // The stats reset discards warm-up instruction counts, so
                // icount pending from event-less warm-up accesses must not
                // leak into the first measured event's delta.
                pending_icount = 0;
                hierarchy.reset_stats();
                builder.mark_warmup_end();
            }
        }
        builder.accesses = accesses;
        builder.hierarchy = *hierarchy.stats();
        builder.finish(pending_icount)
    }

    /// Iterator over the decoded event stream (warm-up events first).
    pub fn events(&self) -> EventCursor<'_> {
        EventCursor {
            bytes: &self.bytes,
            pos: 0,
            prev_block: 0,
            tenant: 0,
            remaining: self.total_events,
        }
    }

    /// Workload name the capture was recorded from.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The workload footprint, needed to size protected memory exactly as
    /// [`SecureSim::new`](crate::SecureSim::new) would.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_bytes
    }

    /// Core accesses the capture covers (including warm-up).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total events in the stream.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Events belonging to the warm-up phase.
    pub fn warmup_events(&self) -> u64 {
        self.warmup_events
    }

    /// Instructions retired after the last measured event.
    pub fn tail_icount(&self) -> u64 {
        self.tail_icount
    }

    /// Measured-window hierarchy statistics (copied into replay reports).
    pub fn hierarchy_stats(&self) -> &HierarchyStats {
        &self.hierarchy
    }

    /// The front-end key the capture is valid for.
    pub fn front_end(&self) -> &FrontEndKey {
        &self.front_end
    }

    /// Whether `cfg` has the same front end this capture was recorded with.
    pub fn matches_front_end(&self, cfg: &SimConfig) -> bool {
        self.front_end == FrontEndKey::of(cfg)
    }

    /// Size of the packed event stream in bytes.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }
}

/// Incremental [`CapturedTrace`] assembly; [`CapturedTrace::record`] uses
/// it internally and tests use it to round-trip hand-built streams.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    workload: String,
    footprint_bytes: u64,
    front_end: FrontEndKey,
    accesses: u64,
    bytes: Vec<u8>,
    prev_block: i64,
    prev_tenant: u8,
    total_events: u64,
    warmup_events: Option<u64>,
    hierarchy: HierarchyStats,
}

impl TraceBuilder {
    /// Starts an empty trace.
    pub fn new(workload: impl Into<String>, footprint_bytes: u64, front_end: FrontEndKey) -> Self {
        Self {
            workload: workload.into(),
            footprint_bytes,
            front_end,
            accesses: 0,
            bytes: Vec::new(),
            prev_block: 0,
            prev_tenant: 0,
            total_events: 0,
            warmup_events: None,
            hierarchy: HierarchyStats::default(),
        }
    }

    /// Appends one event with the instructions retired since the previous.
    pub fn push(&mut self, event: MemEvent, icount_delta: u64) {
        let (block, tenant, write) = match event {
            MemEvent::Read(b, t) => (b, t, 0u64),
            MemEvent::Write(b, t) => (b, t, 1u64),
        };
        let index = block.index() as i64;
        let delta = index.wrapping_sub(self.prev_block);
        self.prev_block = index;
        let switch = u64::from(tenant.0 != self.prev_tenant);
        push_varint(&mut self.bytes, icount_delta);
        push_varint(
            &mut self.bytes,
            (zigzag(delta) << 2) | (switch << 1) | write,
        );
        if switch != 0 {
            push_varint(&mut self.bytes, u64::from(tenant.0));
            self.prev_tenant = tenant.0;
        }
        self.total_events += 1;
    }

    /// Marks the warm-up boundary at the current position (at most once).
    pub fn mark_warmup_end(&mut self) {
        assert!(
            self.warmup_events.is_none(),
            "warm-up boundary already marked"
        );
        self.warmup_events = Some(self.total_events);
    }

    /// Seals the trace; `tail_icount` is the instruction count retired
    /// after the last event.
    pub fn finish(self, tail_icount: u64) -> CapturedTrace {
        let warmup_events = self.warmup_events.unwrap_or(0);
        CapturedTrace {
            workload: self.workload,
            footprint_bytes: self.footprint_bytes,
            accesses: self.accesses,
            front_end: self.front_end,
            bytes: self.bytes,
            total_events: self.total_events,
            warmup_events,
            tail_icount,
            hierarchy: self.hierarchy,
        }
    }
}

/// Decoding iterator over a packed event stream.
#[derive(Debug, Clone)]
pub struct EventCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    prev_block: i64,
    tenant: u8,
    remaining: u64,
}

impl Iterator for EventCursor<'_> {
    type Item = CapturedEvent;

    fn next(&mut self) -> Option<CapturedEvent> {
        let mut slot = [MemEvent::Read(BlockAddr::new(0), TenantId::HOST)];
        let (n, icount_delta) = self.next_events(&mut slot);
        let [event] = slot;
        (n == 1).then_some(CapturedEvent {
            event,
            icount_delta,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl EventCursor<'_> {
    /// Decodes up to `buf.len()` events into `buf` in one tight loop,
    /// returning the number decoded and the *summed* instruction-count
    /// delta across them. The stream's one decoder: replay fills whole
    /// batches, and [`Iterator::next`] a one-event slot. Cycle accounting
    /// only ever adds icount deltas, so summing per batch is bit-identical
    /// to adding per event, and decoding in bulk keeps the varint state
    /// (position, previous block) hot in registers.
    pub fn next_events(&mut self, buf: &mut [MemEvent]) -> (usize, u64) {
        let n = self.remaining.min(buf.len() as u64) as usize;
        let mut icount = 0u64;
        for slot in &mut buf[..n] {
            // CapturedTrace streams are valid by construction: TraceBuilder,
            // their only producer, appends nothing but well-formed varints,
            // so the trusted decoder applies here.
            let delta_icount = read_varint_trusted(self.bytes, &mut self.pos);
            let word = read_varint_trusted(self.bytes, &mut self.pos);
            icount += delta_icount;
            if word & 0b10 != 0 {
                self.tenant = read_varint_trusted(self.bytes, &mut self.pos) as u8;
            }
            let delta = unzigzag(word >> 2);
            self.prev_block = self.prev_block.wrapping_add(delta);
            let block = BlockAddr::new(self.prev_block as u64);
            let tenant = TenantId(self.tenant);
            *slot = if word & 1 == 1 {
                MemEvent::Write(block, tenant)
            } else {
                MemEvent::Read(block, tenant)
            };
        }
        self.remaining -= n as u64;
        (n, icount)
    }
}

impl ExactSizeIterator for EventCursor<'_> {}

/// Largest event batch [`ReplaySim`] decodes at once; bounds the stack
/// buffer the replay loop works out of.
pub const MAX_BATCH_EVENTS: usize = 512;

/// Default replay batch size: large enough to amortize dispatch and give
/// the prefetcher a useful horizon, small enough that the batch buffer and
/// the touched metadata-cache rows stay L1-resident.
pub const DEFAULT_BATCH_EVENTS: usize = 256;

/// Drives the metadata engine (or the insecure baseline) off a
/// [`CapturedTrace`], producing the same [`SimReport`] the direct
/// [`SecureSim`](crate::SecureSim) pass would.
///
/// One-shot: `run`/`run_observed` consume the simulator, mirroring the
/// fresh-engine state a direct run starts from.
///
/// Events are decoded [`DEFAULT_BATCH_EVENTS`] at a time into a stack
/// buffer and handed to the memory-side back end the direct path uses, so
/// every event enters
/// [`MetadataEngine::handle_batch`](crate::MetadataEngine::handle_batch),
/// the kernel the differential oracle checks in lockstep through
/// `SecureSim`. [`with_batch_size`](Self::with_batch_size) is the only
/// knob; the report equals the direct run's at every batch size
/// (`tests/differential.rs` and `replay_equivalence.rs` compare them).
pub struct ReplaySim<'a> {
    cfg: SimConfig,
    trace: &'a CapturedTrace,
    controller: Controller,
    cycles: u64,
    batch: usize,
}

impl<'a> ReplaySim<'a> {
    /// Builds a replay over `trace` under back-end configuration `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when `cfg`'s front end (cache geometry or warm-up fraction)
    /// differs from the one the trace was captured with — the event stream
    /// would not correspond to `cfg`'s hierarchy.
    pub fn new(cfg: SimConfig, trace: &'a CapturedTrace) -> Self {
        assert!(
            trace.matches_front_end(&cfg),
            "capture front end {:?} does not match config front end {:?}",
            trace.front_end(),
            FrontEndKey::of(&cfg),
        );
        Self {
            // The captured footprint stands in for the live workload's.
            controller: Controller::new(&cfg, trace.footprint_bytes()),
            cfg,
            trace,
            cycles: 0,
            batch: DEFAULT_BATCH_EVENTS,
        }
    }

    /// Overrides the replay batch size (clamped to
    /// `1..=`[`MAX_BATCH_EVENTS`]). Mostly for tests: equivalence must hold
    /// at every size, including batches that straddle the warm-up boundary.
    pub fn with_batch_size(mut self, events: usize) -> Self {
        self.batch = events.clamp(1, MAX_BATCH_EVENTS);
        self
    }

    /// Replays the capture and reports on the measured window.
    pub fn run(self) -> SimReport {
        self.run_observed(&mut NullObserver)
    }

    /// Replays with an observer on the measured phase's metadata stream.
    pub fn run_observed<O: MetaObserver + ?Sized>(mut self, obs: &mut O) -> SimReport {
        let mut cursor = self.trace.events();
        let warmup = self.trace.warmup_events();
        self.replay_phase(&mut cursor, warmup, &mut NullObserver);
        // The warm-up boundary: statistics reset, state persists.
        self.controller.reset_stats();
        self.cycles = 0;
        let measured = cursor.remaining;
        self.replay_phase(&mut cursor, measured, obs);
        self.cycles += self.trace.tail_icount();
        self.controller.report(
            &self.cfg,
            self.trace.workload(),
            self.cycles,
            self.trace.hierarchy_stats(),
        )
    }

    /// Replays one phase — up to `limit` events — batch by batch. Cycle
    /// accounting is a commutative sum (icount deltas + read stalls), so
    /// adding the batch's summed icount before its stalls reproduces the
    /// direct path's per-access interleaving bit-for-bit.
    fn replay_phase<O: MetaObserver + ?Sized>(
        &mut self,
        cursor: &mut EventCursor<'_>,
        mut limit: u64,
        obs: &mut O,
    ) {
        let mut buf = [MemEvent::Read(BlockAddr::new(0), TenantId::HOST); MAX_BATCH_EVENTS];
        while limit > 0 {
            let want = limit.min(self.batch as u64) as usize;
            let (n, icount) = cursor.next_events(&mut buf[..want]);
            if n == 0 {
                // Truncated stream: no events left mid-phase. Stop rather
                // than panic (PANIC-001); the window simply comes up short.
                return;
            }
            limit -= n as u64;
            self.cycles += icount;
            self.cycles += self.controller.handle(&buf[..n], obs);
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Varint decode for streams that are well-formed by construction:
/// `TraceBuilder` is the only producer of capture bytes, and captures never
/// leave the process, so no outside bytes reach this decoder. Having no
/// error paths keeps the per-event replay cost minimal; indexing still
/// bounds-checks, so a violated precondition panics rather than
/// corrupting state.
fn read_varint_trusted(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SecureSim;
    use maps_trace::BlockAddr;
    use maps_workloads::Benchmark;

    fn key() -> FrontEndKey {
        FrontEndKey::of(&SimConfig::paper_default())
    }

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &values {
            push_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint_trusted(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn builder_round_trips_events() {
        use maps_trace::TenantId;
        let events = [
            (MemEvent::Read(BlockAddr::new(100), TenantId::HOST), 7u64),
            (MemEvent::Write(BlockAddr::new(2), TenantId(3)), 0),
            (MemEvent::Read(BlockAddr::new(1 << 40), TenantId(3)), 129),
            (MemEvent::Write(BlockAddr::new(1 << 40), TenantId(0)), 1),
        ];
        let mut b = TraceBuilder::new("t", 0, key());
        b.mark_warmup_end();
        for &(ev, d) in &events {
            b.push(ev, d);
        }
        let trace = b.finish(5);
        assert_eq!(trace.total_events(), 4);
        assert_eq!(trace.tail_icount(), 5);
        let decoded: Vec<_> = trace.events().collect();
        for (got, &(event, icount_delta)) in decoded.iter().zip(&events) {
            assert_eq!((got.event, got.icount_delta), (event, icount_delta));
        }
    }

    #[test]
    fn single_tenant_streams_pay_no_tenant_bytes() {
        use maps_trace::TenantId;
        let build = |tenant_run: &[TenantId]| {
            let mut b = TraceBuilder::new("t", 0, key());
            b.mark_warmup_end();
            for (i, &t) in tenant_run.iter().enumerate() {
                b.push(MemEvent::Read(BlockAddr::new(i as u64), t), 1);
            }
            b.finish(0)
        };
        let host_only = build(&[TenantId::HOST; 8]);
        let alternating = build(&[
            TenantId(0),
            TenantId(1),
            TenantId(0),
            TenantId(1),
            TenantId(0),
            TenantId(1),
            TenantId(0),
            TenantId(1),
        ]);
        // Same block/icount stream; only the tenant ids differ. The
        // single-tenant stream must not spend a single extra byte.
        assert!(host_only.encoded_len() < alternating.encoded_len());
        // One tenant-id byte per switch; the first event is already at the
        // stream's initial tenant 0, so 7 of the 8 events switch.
        assert_eq!(alternating.encoded_len() - host_only.encoded_len(), 7);
    }

    #[test]
    fn batched_cursor_tracks_tenant_switches() {
        use maps_trace::TenantId;
        let mut b = TraceBuilder::new("t", 0, key());
        b.mark_warmup_end();
        let tenants = [0u8, 0, 2, 2, 1, 255, 255, 0];
        for (i, &t) in tenants.iter().enumerate() {
            b.push(
                MemEvent::Write(BlockAddr::new(i as u64 * 17), TenantId(t)),
                2,
            );
        }
        let trace = b.finish(0);
        // Decode with a batch that straddles the switches.
        let mut cursor = trace.events();
        let mut buf = [MemEvent::Read(BlockAddr::new(0), TenantId::HOST); 3];
        let mut got = Vec::new();
        loop {
            let (n, _) = cursor.next_events(&mut buf);
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        let want: Vec<_> = trace.events().map(|e| e.event).collect();
        assert_eq!(got, want);
        for (ev, &t) in got.iter().zip(&tenants) {
            assert_eq!(ev.tenant(), TenantId(t));
        }
    }

    #[test]
    fn record_marks_warmup_consistently() {
        let cfg = SimConfig::paper_default();
        let trace = CapturedTrace::record(&cfg, Benchmark::Gups.build(3), 10_000);
        assert!(trace.warmup_events() > 0);
        assert!(trace.warmup_events() < trace.total_events());
        assert_eq!(trace.accesses(), 10_000);
        assert_eq!(trace.workload(), "gups");
    }

    #[test]
    fn zero_warmup_capture_has_no_warmup_events() {
        let mut cfg = SimConfig::paper_default();
        cfg.warmup_fraction = 0.0;
        let trace = CapturedTrace::record(&cfg, Benchmark::Gups.build(3), 5_000);
        assert_eq!(trace.warmup_events(), 0);
    }

    #[test]
    fn replay_reproduces_direct_report() {
        let cfg = SimConfig::paper_default();
        let trace = CapturedTrace::record(&cfg, Benchmark::Libquantum.build(9), 20_000);
        let replayed = ReplaySim::new(cfg.clone(), &trace).run();
        let direct = SecureSim::new(cfg, Benchmark::Libquantum.build(9)).run(20_000);
        assert_eq!(replayed, direct);
    }

    #[test]
    #[should_panic(expected = "front end")]
    fn mismatched_front_end_is_rejected() {
        let cfg = SimConfig::paper_default();
        let trace = CapturedTrace::record(&cfg, Benchmark::Gups.build(1), 1_000);
        let other = cfg.with_llc_bytes(cfg.llc_bytes * 2);
        let _ = ReplaySim::new(other, &trace);
    }

    #[test]
    fn encoding_is_compact() {
        let cfg = SimConfig::paper_default();
        let trace = CapturedTrace::record(&cfg, Benchmark::Libquantum.build(9), 20_000);
        // Spatially local streams should pack to a handful of bytes/event.
        let per_event = trace.encoded_len() as f64 / trace.total_events() as f64;
        assert!(per_event < 8.0, "packed encoding at {per_event:.1} B/event");
    }
}
