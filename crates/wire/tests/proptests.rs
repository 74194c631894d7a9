//! Property-based tests for the wire codec.

use proptest::prelude::*;
use pstrace_flow::{FlowIndex, IndexedMessage, MessageCatalog};
use pstrace_wire::{
    decode_stream, encode_records, finish_report, read_ptw, write_ptw, RecordDecoder,
    StreamDecoder, WireRecord, WireSchema,
};
use std::sync::Arc;

/// A small catalog with three full messages and two subgroup parents.
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

/// Builds one valid record from raw generated parts. Times are made
/// non-decreasing by the caller via a running sum.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// decode(encode(records)) is the identity on every valid record
    /// stream, with and without circular depth, and pushing the stream
    /// incrementally at random chunk sizes equals the one-shot decode.
    #[test]
    fn round_trip_is_identity(
        parts in proptest::collection::vec((any::<u8>(), 0u64..50, any::<u8>(), any::<u64>()), 0..120),
        depth_raw in 0usize..40,
        chunks in proptest::collection::vec(1usize..64, 1..16),
    ) {
        let depth = (depth_raw > 0).then_some(depth_raw);
        let c = catalog();
        let schema = schema(&c);
        let mut time = 0u64;
        let records: Vec<WireRecord> = parts
            .iter()
            .map(|&(which, dt, index, raw)| {
                time += dt;
                record(&c, which, time, index, raw)
            })
            .collect();
        let stream = encode_records(&schema, &records, depth).unwrap();
        let survivors: Vec<WireRecord> = match depth {
            Some(d) if records.len() > d => records[records.len() - d..].to_vec(),
            _ => records.clone(),
        };
        let report = decode_stream(&schema, &stream.bytes, Some(stream.bit_len));
        prop_assert!(report.is_clean());
        prop_assert_eq!(&report.records, &survivors);
        let mut dec = StreamDecoder::new(&schema);
        let mut rest = stream.bytes.as_slice();
        for &size in chunks.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at(size.min(rest.len()));
            dec.push(head);
            rest = tail;
        }
        prop_assert_eq!(&finish_report(&mut dec, Some(stream.bit_len)), &report);
    }

    /// Random single-bit corruption never panics the decoder and never
    /// invents more damage than frames: every decoded record is either an
    /// original or comes from the (single) damaged frame's neighborhood.
    #[test]
    fn bit_flips_never_panic(
        parts in proptest::collection::vec((any::<u8>(), 0u64..20, any::<u8>(), any::<u64>()), 1..60),
        flip_raw in any::<u64>(),
    ) {
        let c = catalog();
        let schema = schema(&c);
        let mut time = 0u64;
        let records: Vec<WireRecord> = parts
            .iter()
            .map(|&(which, dt, index, raw)| {
                time += dt;
                record(&c, which, time, index, raw)
            })
            .collect();
        let stream = encode_records(&schema, &records, None).unwrap();
        let mut bytes = stream.bytes.clone();
        let bit = flip_raw % stream.bit_len;
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        let report = decode_stream(&schema, &bytes, Some(stream.bit_len));
        // One flipped bit touches exactly one frame: everything else must
        // decode unchanged, and the stream never gains records.
        prop_assert!(report.records.len() <= records.len());
        prop_assert!(report.damaged.len() <= 2, "one flip, {:?}", report.damaged);
        let frame = (bit / u64::from(schema.frame_bits())) as usize;
        for d in &report.damaged {
            // The flipped frame itself, or an immediate neighbor blamed by
            // the time-spike heuristic — corruption must never cascade.
            prop_assert!(
                d.frame + 1 >= frame,
                "{:?} far before flipped frame {frame}",
                d
            );
        }
    }

    /// Arbitrary bytes fed to the decoder (as if the buffer were trashed
    /// wholesale) never panic.
    #[test]
    fn garbage_streams_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let c = catalog();
        let schema = schema(&c);
        let report = decode_stream(&schema, &bytes, None);
        prop_assert_eq!(
            report.frames,
            bytes.len() * 8 / schema.frame_bits() as usize
        );
    }

    /// The `.ptw` container round-trips any encoded stream byte-exactly.
    #[test]
    fn ptw_container_round_trips(
        parts in proptest::collection::vec((any::<u8>(), 0u64..20, any::<u8>(), any::<u64>()), 0..40),
    ) {
        let c = catalog();
        let schema = schema(&c);
        let mut time = 0u64;
        let records: Vec<WireRecord> = parts
            .iter()
            .map(|&(which, dt, index, raw)| {
                time += dt;
                record(&c, which, time, index, raw)
            })
            .collect();
        let stream = encode_records(&schema, &records, None).unwrap();
        let file = write_ptw(&c, &schema, &stream);
        let (schema2, stream2) = read_ptw(&c, &file).unwrap();
        prop_assert_eq!(schema2, schema);
        prop_assert_eq!(stream2, stream);
    }
}
