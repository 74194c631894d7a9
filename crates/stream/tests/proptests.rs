//! A live session equals the batch decode of the same bytes, in both
//! dialects, under any chunking and any corruption: both run one decoder
//! and one time pass, so the damage list, the record and frame counts,
//! and — while the localizer never had to resync — the localization
//! agree by construction.

use std::sync::Arc;

use proptest::prelude::*;
use pstrace_codec::{encode_v2, ProfileV2};
use pstrace_diag::{localize, MatchMode};
use pstrace_flow::{examples::cache_coherence, instantiate, FlowIndex, IndexedMessage};
use pstrace_flow::{InterleavedFlow, MessageCatalog};
use pstrace_stream::{observed_messages, Session};
use pstrace_wire::{decode_with, encode_records, ProfileV1, PtwMeta, WireRecord, WireSchema};

fn setup() -> (InterleavedFlow, Arc<MessageCatalog>, WireSchema) {
    let (flow, catalog) = cache_coherence();
    let u = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap();
    let observed = [
        catalog.get("ReqE").unwrap(),
        catalog.get("GntE").unwrap(),
        catalog.get("Ack").unwrap(),
    ];
    let schema = WireSchema::new(&catalog, &observed, &[], 8).unwrap();
    (u, catalog, schema)
}

/// One record per generated part: a slot, a flow index, a time step
/// that is usually small, sometimes a forward spike, sometimes a
/// regression.
fn build(schema: &WireSchema, parts: &[(u8, u8, u8, u8)]) -> Vec<WireRecord> {
    let slots = schema.slots();
    let mut time = 0u64;
    parts
        .iter()
        .map(|&(slot, index, step, twist)| {
            let slot = &slots[usize::from(slot) % slots.len()];
            time += u64::from(step % 8);
            let stamped = match twist % 16 {
                0 => time + (1 << 20),
                1 => time / 2,
                _ => time,
            };
            WireRecord {
                time: stamped,
                message: IndexedMessage::new(slot.message, FlowIndex(1 + u32::from(index % 2))),
                value: u64::from(step) & ((1 << slot.width) - 1),
                partial: false,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn session_equals_batch_in_both_dialects(
        parts in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..80),
        flips in proptest::collection::vec(any::<u64>(), 0..4),
        chunks in proptest::collection::vec(1usize..48, 1..12),
        dialect in 0usize..4,
        mode in 0usize..4,
    ) {
        let (u, _catalog, schema) = setup();
        let records = build(&schema, &parts);
        let mode = [MatchMode::Exact, MatchMode::Prefix, MatchMode::Suffix, MatchMode::Substring][mode];
        // Dialect 0 is v1; the rest are v2 at sync cadences 1, 4 and 64.
        let (meta, stream) = match dialect {
            0 => (PtwMeta::v1(), encode_records(&schema, &records, None).unwrap()),
            d => {
                let sync_every = [1u16, 4, 64][d - 1];
                (PtwMeta::v2(sync_every), encode_v2(&schema, &records, sync_every, None).unwrap())
            }
        };
        let mut bytes = stream.bytes.clone();
        for flip in &flips {
            if stream.bit_len > 0 {
                let bit = flip % stream.bit_len;
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
        let batch = if dialect == 0 {
            decode_with(&ProfileV1, &schema, &bytes, Some(stream.bit_len))
        } else {
            decode_with(&ProfileV2::default(), &schema, &bytes, Some(stream.bit_len))
        };

        let mut session = Session::with_meta(&u, schema.clone(), meta, mode);
        let mut rest = bytes.as_slice();
        for &size in chunks.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at(size.min(rest.len()));
            session.push_chunk(head);
            rest = tail;
        }
        let report = session.finish(Some(stream.bit_len));
        prop_assert_eq!(&report.damaged, &batch.damaged);
        prop_assert_eq!(report.metrics.records, batch.records.len());
        prop_assert_eq!(report.metrics.frames, batch.frames);
        prop_assert_eq!(report.metrics.idle_frames, batch.idle_frames);
        if report.resyncs == 0 {
            let observed: Vec<IndexedMessage> = batch.records.iter().map(|r| r.message).collect();
            let expect = localize(&u, &observed, &observed_messages(&schema), mode);
            prop_assert_eq!(report.localization, expect);
        }
    }
}
