//! Property tests for the packed capture encoding: arbitrary event
//! sequences must round-trip through [`TraceBuilder`] →
//! [`CapturedTrace::events`] exactly, for any warm-up boundary placement.

use maps_sim::{CapturedEvent, FrontEndKey, MemEvent, SimConfig, TraceBuilder};
use maps_trace::{BlockAddr, TenantId};
use proptest::prelude::*;

fn to_event(block: u64, tenant: u8, write: bool) -> MemEvent {
    if write {
        MemEvent::Write(BlockAddr::new(block), TenantId(tenant))
    } else {
        MemEvent::Read(BlockAddr::new(block), TenantId(tenant))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_round_trips(
        raw in prop::collection::vec(
            (0u64..(1 << 42), any::<u8>(), any::<bool>(), 0u64..10_000),
            1..300,
        ),
        boundary in 0usize..300,
        tail in 0u64..1_000,
    ) {
        let key = FrontEndKey::of(&SimConfig::paper_default());
        let boundary = boundary % (raw.len() + 1);
        let mut builder = TraceBuilder::new("prop", 0, key);
        for (i, &(block, tenant, write, icount)) in raw.iter().enumerate() {
            if i == boundary {
                builder.mark_warmup_end();
            }
            builder.push(to_event(block, tenant, write), icount);
        }
        if boundary == raw.len() {
            builder.mark_warmup_end();
        }
        let trace = builder.finish(tail);

        prop_assert_eq!(trace.total_events(), raw.len() as u64);
        prop_assert_eq!(trace.warmup_events(), boundary as u64);
        prop_assert_eq!(trace.tail_icount(), tail);
        let decoded: Vec<CapturedEvent> = trace.events().collect();
        prop_assert_eq!(decoded.len(), raw.len());
        for (got, &(block, tenant, write, icount)) in decoded.iter().zip(&raw) {
            prop_assert_eq!(got.event, to_event(block, tenant, write));
            prop_assert_eq!(got.icount_delta, icount);
        }
    }

    #[test]
    fn adjacent_blocks_pack_densely(
        start in 0u64..(1 << 30),
        len in 1usize..200,
    ) {
        // Sequential block streams with small icount deltas are the common
        // case; each event must fit in a few bytes.
        let key = FrontEndKey::of(&SimConfig::paper_default());
        let mut builder = TraceBuilder::new("dense", 0, key);
        builder.mark_warmup_end();
        for i in 0..len as u64 {
            builder.push(MemEvent::Read(BlockAddr::new(start + i), TenantId::HOST), 3);
        }
        let trace = builder.finish(0);
        // First event pays for the absolute position; the rest are 2 bytes
        // (icount varint + delta-1 word).
        prop_assert!(trace.encoded_len() <= 10 + 2 * len);
    }
}
