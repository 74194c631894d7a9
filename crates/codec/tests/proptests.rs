//! Property-based tests for the v2 compressed dialect: round-trip
//! identity, bounded damage under corruption, and no panics on garbage.

use proptest::prelude::*;
use pstrace_codec::{decode_v2, encode_v2, read_ptw_auto, V2StreamDecoder, DEFAULT_SYNC_EVERY};
use pstrace_flow::{FlowIndex, IndexedMessage, MessageCatalog};
use pstrace_wire::{
    encode_records, finish_report, write_ptw, DamageReason, RecordDecoder, WireRecord, WireSchema,
    PTW_VERSION,
};
use std::sync::Arc;

fn catalog() -> Arc<MessageCatalog> {
    let mut c = MessageCatalog::new();
    c.intern("req", 4);
    c.intern("gnt", 9);
    c.intern("data", 13);
    let wide = c.intern("wide", 24);
    c.intern_group(wide, "lo", 6);
    let deep = c.intern("deep", 30);
    c.intern_group(deep, "id", 3);
    Arc::new(c)
}

fn schema(c: &MessageCatalog) -> WireSchema {
    WireSchema::new(
        c,
        &[
            c.get("req").unwrap(),
            c.get("gnt").unwrap(),
            c.get("data").unwrap(),
        ],
        &[
            c.get_group("wide.lo").unwrap(),
            c.get_group("deep.id").unwrap(),
        ],
        36,
    )
    .unwrap()
}

fn record(c: &MessageCatalog, which: u8, time: u64, index: u8, raw: u64) -> WireRecord {
    let (name, partial, width) = match which % 5 {
        0 => ("req", false, 4),
        1 => ("gnt", false, 9),
        2 => ("data", false, 13),
        3 => ("wide", true, 6),
        _ => ("deep", true, 3),
    };
    WireRecord {
        time,
        message: IndexedMessage::new(c.get(name).unwrap(), FlowIndex(u32::from(index))),
        value: raw & ((1 << width) - 1),
        partial,
    }
}

fn build(c: &MessageCatalog, parts: &[(u8, u64, u8, u64)]) -> Vec<WireRecord> {
    let mut time = 0u64;
    parts
        .iter()
        .map(|&(which, dt, index, raw)| {
            time += dt;
            record(c, which, time, index, raw)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// decode(encode(records)) is the identity for every cadence and
    /// depth, and the incremental decoder agrees with the one-shot path
    /// under any chunking.
    #[test]
    fn v2_round_trip_is_identity(
        parts in proptest::collection::vec((any::<u8>(), 0u64..50, any::<u8>(), any::<u64>()), 0..150),
        sync_raw in 0u16..3,
        depth_raw in 0usize..40,
        chunk_raw in 1usize..80,
    ) {
        let sync_every = [1u16, 13, DEFAULT_SYNC_EVERY][sync_raw as usize];
        let depth = (depth_raw > 0).then_some(depth_raw);
        let c = catalog();
        let schema = schema(&c);
        let records = build(&c, &parts);
        let stream = encode_v2(&schema, &records, sync_every, depth).unwrap();
        let survivors: Vec<WireRecord> = match depth {
            Some(d) if records.len() > d => records[records.len() - d..].to_vec(),
            _ => records.clone(),
        };
        let report = decode_v2(&schema, &stream.bytes, Some(stream.bit_len));
        prop_assert!(report.is_clean(), "{:?}", report.damaged);
        prop_assert_eq!(&report.records, &survivors);
        let mut dec = V2StreamDecoder::new(&schema);
        for chunk in stream.bytes.chunks(chunk_raw) {
            dec.push(chunk);
        }
        prop_assert_eq!(finish_report(&mut dec, Some(stream.bit_len)), report);
    }

    /// One flipped bit never panics and costs at most one sync block of
    /// records (two if the flip forges a plausible header, which the
    /// checksums make vanishingly rare); every surviving record is an
    /// original.
    #[test]
    fn v2_bit_flips_damage_at_most_one_sync_window(
        parts in proptest::collection::vec((any::<u8>(), 0u64..20, any::<u8>(), any::<u64>()), 1..120),
        flip_raw in any::<u64>(),
    ) {
        let sync_every = 16u16;
        let c = catalog();
        let schema = schema(&c);
        let records = build(&c, &parts);
        let stream = encode_v2(&schema, &records, sync_every, None).unwrap();
        let mut bytes = stream.bytes.clone();
        let bit = flip_raw % stream.bit_len;
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        let report = decode_v2(&schema, &bytes, Some(stream.bit_len));
        prop_assert!(report.records.len() <= records.len());
        let lost = records.len() - report.records.len();
        prop_assert!(
            lost <= 2 * usize::from(sync_every),
            "lost {lost} records to one flipped bit (window {sync_every})"
        );
        // Survivors decode unchanged: v2 never invents records.
        let mut it = records.iter();
        for r in &report.records {
            prop_assert!(
                it.any(|orig| orig == r),
                "decoded record not an original (in order): {r:?}"
            );
        }
    }

    /// Arbitrary garbage fed to the v2 decoder never panics; whatever it
    /// reports as damage is the sync vocabulary.
    #[test]
    fn v2_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let c = catalog();
        let schema = schema(&c);
        let report = decode_v2(&schema, &bytes, None);
        for d in &report.damaged {
            let is_sync_vocab = matches!(
                d.reason,
                DamageReason::SyncCorrupt { .. }
                    | DamageReason::SyncLost { .. }
                    | DamageReason::TimeRegression { .. }
                    | DamageReason::TimeSpike { .. }
            );
            prop_assert!(is_sync_vocab, "unexpected damage kind: {:?}", d.reason);
        }
    }

    /// The auto-reading container entry point routes v1 and v2 files to
    /// their own decoders: v1 files keep decoding exactly as before.
    #[test]
    fn container_auto_read_round_trips_both_profiles(
        parts in proptest::collection::vec((any::<u8>(), 0u64..20, any::<u8>(), any::<u64>()), 0..60),
    ) {
        let c = catalog();
        let schema = schema(&c);
        let records = build(&c, &parts);

        let v1_stream = encode_records(&schema, &records, None).unwrap();
        let v1_file = write_ptw(&c, &schema, &v1_stream);
        let (s1, m1, r1) = read_ptw_auto(&c, &v1_file).unwrap();
        prop_assert_eq!(&s1, &schema);
        prop_assert_eq!(m1.version, PTW_VERSION);
        prop_assert_eq!(&r1.records, &records);

        let v2_file = pstrace_codec::write_ptw_profile(
            &c,
            &schema,
            &pstrace_codec::ProfileV2 { sync_every: 32 },
            &records,
            None,
        )
        .unwrap();
        let (s2, m2, r2) = read_ptw_auto(&c, &v2_file).unwrap();
        prop_assert_eq!(&s2, &schema);
        prop_assert_eq!(m2.sync_every, 32);
        prop_assert_eq!(&r2.records, &records);
        // The compressed file is never larger on non-trivial streams.
        if records.len() >= 32 {
            prop_assert!(v2_file.len() < v1_file.len());
        }
    }
}
