//! Property-based tests for the v2 compressed dialect: round-trip
//! identity, bounded damage under corruption, no panics on garbage, and
//! v1/v2 agreement over randomly generated schemas, on decode and on
//! encode (same errors, same retained records), and the one-pass block
//! decode against the oracle it replaced.

use proptest::prelude::*;
use pstrace_codec::{
    decode_ptw_payload, encode_v2, fnv32, ProfileV2, V2StreamDecoder, BLOCK_HEADER_BYTES,
    DEFAULT_SYNC_EVERY, SYNC_MARKER,
};
use pstrace_flow::{FlowIndex, IndexedMessage, MessageCatalog};
use pstrace_wire::{
    decode_with, encode_records, finish_report, overwritten, read_ptw_any, write_ptw, DamageReason,
    Decoded, FrameProfile, ProfileV1, RecordDecoder, WireError, WireRecord, WireSchema,
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
        let report =
            decode_with(&ProfileV2::default(), &schema, &stream.bytes, Some(stream.bit_len));
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
        let report = decode_with(&ProfileV2::default(), &schema, &bytes, Some(stream.bit_len));
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
        let report = decode_with(&ProfileV2::default(), &schema, &bytes, None);
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

    /// The version-negotiating container reader plus payload decode
    /// route v1 and v2 files to their own decoders: v1 files keep
    /// decoding exactly as before.
    #[test]
    fn container_auto_read_round_trips_both_profiles(
        parts in proptest::collection::vec((any::<u8>(), 0u64..20, any::<u8>(), any::<u64>()), 0..60),
    ) {
        let c = catalog();
        let schema = schema(&c);
        let records = build(&c, &parts);

        let v1_stream = encode_records(&schema, &records, None).unwrap();
        let v1_file = write_ptw(&c, &schema, &v1_stream);
        let (s1, m1, p1) = read_ptw_any(&c, &v1_file).unwrap();
        let r1 = decode_ptw_payload(&s1, m1, &p1);
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
        let (s2, m2, p2) = read_ptw_any(&c, &v2_file).unwrap();
        let r2 = decode_ptw_payload(&s2, m2, &p2);
        prop_assert_eq!(&s2, &schema);
        prop_assert_eq!(m2.sync_every, 32);
        prop_assert_eq!(&r2.records, &records);
        // The compressed file is never larger on non-trivial streams.
        if records.len() >= 32 {
            prop_assert!(v2_file.len() < v1_file.len());
        }
    }
}

/// The low `width` bits of `v`.
fn low(v: u64, width: u32) -> u64 {
    v & 1u64.checked_shl(width).unwrap_or(0).wrapping_sub(1)
}

/// A schema over freshly interned messages: one slot per `(width,
/// subgroup, sub_raw)` lane spec — a full message of `width` bits, or a
/// subgroup of `1 + sub_raw % (parent - 1)` bits of a `max(width, 2)`-bit
/// parent — with the given time and index field widths.
fn random_schema(
    lanes: &[(u32, bool, u32)],
    time_width: u32,
    index_width: u32,
) -> (Arc<MessageCatalog>, WireSchema) {
    let mut c = MessageCatalog::new();
    let (mut messages, mut groups) = (Vec::new(), Vec::new());
    for (i, &(width, subgroup, sub_raw)) in lanes.iter().enumerate() {
        if subgroup {
            let parent_width = width.max(2);
            let parent = c.intern(&format!("p{i}"), parent_width);
            groups.push(c.intern_group(parent, "g", 1 + sub_raw % (parent_width - 1)));
        } else {
            messages.push(c.intern(&format!("m{i}"), width));
        }
    }
    let body: u32 = lanes
        .iter()
        .map(|&(w, sub, raw)| if sub { 1 + raw % (w.max(2) - 1) } else { w })
        .sum();
    let schema = WireSchema::new(&c, &messages, &groups, body)
        .unwrap()
        .with_time_width(time_width)
        .unwrap()
        .with_index_width(index_width)
        .unwrap();
    (Arc::new(c), schema)
}

/// Valid records over `schema`'s slots from raw parts `(slot, dt, index,
/// value, shape)`. `shape` steers each field's v2 class: the index is
/// kept or fresh, the value repeats, drifts by a small signed delta, or
/// is uniform, and times step by log-uniform deltas, clamped to the time
/// field (so they stay non-decreasing).
fn random_records(schema: &WireSchema, parts: &[(u16, u32, u32, u64, u8)]) -> Vec<WireRecord> {
    let slots = schema.slots();
    let max_time = low(u64::MAX, schema.time_width());
    let mut prev_value = vec![0u64; slots.len()];
    let (mut time, mut index) = (0u64, 0u64);
    parts
        .iter()
        .map(|&(pick, dt, index_raw, value_raw, shape)| {
            let k = usize::from(pick) % slots.len();
            let slot = &slots[k];
            time = time
                .saturating_add(u64::from(dt >> (dt % 32)))
                .min(max_time);
            if shape & 1 == 1 {
                index = low(u64::from(index_raw), schema.index_width());
            }
            let value = match (shape >> 1) % 3 {
                0 => prev_value[k],
                1 => prev_value[k].wrapping_add((value_raw % 8193).wrapping_sub(4096)),
                _ => value_raw,
            };
            prev_value[k] = low(value, slot.width);
            WireRecord {
                time,
                message: IndexedMessage::new(slot.message, FlowIndex(index as u32)),
                value: prev_value[k],
                partial: slot.is_partial(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over random schemas — lane widths 1..=64 (so the 4- and 12-bit
    /// class edges and full 64-bit lanes all occur), subgroup lanes,
    /// 1..24 tags, time widths 1..=64 and index widths 1..=32 — v1 and
    /// v2 both decode exactly the encoded records.
    #[test]
    fn random_schemas_decode_identically_in_both_dialects(
        lanes in proptest::collection::vec((1u32..=64, any::<bool>(), any::<u32>()), 1..24),
        time_width in 1u32..=64,
        index_width in 1u32..=32,
        parts in proptest::collection::vec(
            (any::<u16>(), any::<u32>(), any::<u32>(), any::<u64>(), any::<u8>()),
            0..120,
        ),
        sync_raw in 0u16..3,
    ) {
        let (_, schema) = random_schema(&lanes, time_width, index_width);
        let records = random_records(&schema, &parts);
        let v1 = encode_records(&schema, &records, None).unwrap();
        let v1_report = decode_with(&ProfileV1, &schema, &v1.bytes, Some(v1.bit_len));
        prop_assert!(v1_report.is_clean(), "{:?}", v1_report.damaged);
        prop_assert_eq!(&v1_report.records, &records);
        let sync_every = [1u16, 7, DEFAULT_SYNC_EVERY][sync_raw as usize];
        let v2 = encode_v2(&schema, &records, sync_every, None).unwrap();
        let v2_report = decode_with(&ProfileV2::default(), &schema, &v2.bytes, Some(v2.bit_len));
        prop_assert!(v2_report.is_clean(), "{:?}", v2_report.damaged);
        prop_assert_eq!(&v2_report.records, &records);
    }

    /// Over the same random schemas, one flipped bit costs each dialect
    /// only its own damage window. v1: damage lands on the flipped frame
    /// or the one before it (the spike heuristic's neighbor), and every
    /// other frame's record survives unchanged. v2: at most two sync
    /// blocks of records are lost and every survivor is an original, in
    /// order.
    #[test]
    fn random_schemas_contain_one_flip_to_each_dialects_window(
        lanes in proptest::collection::vec((1u32..=64, any::<bool>(), any::<u32>()), 1..24),
        time_width in 1u32..=64,
        index_width in 1u32..=32,
        parts in proptest::collection::vec(
            (any::<u16>(), any::<u32>(), any::<u32>(), any::<u64>(), any::<u8>()),
            1..100,
        ),
        flip_v1 in any::<u64>(),
        flip_v2 in any::<u64>(),
    ) {
        let (_, schema) = random_schema(&lanes, time_width, index_width);
        let records = random_records(&schema, &parts);

        let v1 = encode_records(&schema, &records, None).unwrap();
        let mut bytes = v1.bytes.clone();
        let bit = flip_v1 % v1.bit_len;
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        let report = decode_with(&ProfileV1, &schema, &bytes, Some(v1.bit_len));
        let flipped = (bit / u64::from(schema.frame_bits())) as usize;
        for d in &report.damaged {
            prop_assert!(
                d.frame == flipped || d.frame + 1 == flipped,
                "{:?} outside frames {}..={flipped}",
                d,
                flipped.saturating_sub(1)
            );
        }
        // The originals of undamaged frames other than the flipped one,
        // in order; the flipped frame may survive altered, or vanish (a
        // one-bit frame flipped to idle).
        let kept: Vec<(usize, WireRecord)> = records
            .iter()
            .copied()
            .enumerate()
            .filter(|&(f, _)| f != flipped && report.damaged.iter().all(|d| d.frame != f))
            .collect();
        let at = kept.iter().filter(|&&(f, _)| f < flipped).count();
        let mut survivors = report.records.clone();
        if survivors.len() == kept.len() + 1 {
            survivors.remove(at);
        }
        let kept: Vec<WireRecord> = kept.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(survivors, kept);

        let sync_every = 8u16;
        let v2 = encode_v2(&schema, &records, sync_every, None).unwrap();
        let mut bytes = v2.bytes.clone();
        let bit = flip_v2 % v2.bit_len;
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        let report = decode_with(&ProfileV2::default(), &schema, &bytes, Some(v2.bit_len));
        prop_assert!(report.records.len() <= records.len());
        let lost = records.len() - report.records.len();
        prop_assert!(
            lost <= 2 * usize::from(sync_every),
            "lost {lost} records to one flipped bit (window {sync_every})"
        );
        let mut it = records.iter();
        for r in &report.records {
            prop_assert!(it.any(|orig| orig == r), "not an original (in order): {r:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both dialects encode through the wire crate's one record check and
    /// one circular-buffer rule. Over random schemas, with at most one
    /// fault injected at a random position — an unknown slot, or a value,
    /// time or index one past its field — v1 and v2 return the same
    /// typed error, even when the faulty record is one the ring
    /// overwrites. With no fault both keep exactly the newest `depth`
    /// records.
    #[test]
    fn encode_agreement_across_dialects(
        lanes in proptest::collection::vec((1u32..=64, any::<bool>(), any::<u32>()), 1..24),
        time_width in 1u32..=64,
        index_width in 1u32..=32,
        parts in proptest::collection::vec(
            (any::<u16>(), any::<u32>(), any::<u32>(), any::<u64>(), any::<u8>()),
            1..120,
        ),
        fault in 0u8..5,
        at in any::<usize>(),
        depth_raw in 0usize..48,
        sync_raw in 0u16..3,
    ) {
        let (_, schema) = random_schema(&lanes, time_width, index_width);
        let mut records = random_records(&schema, &parts);
        let depth = (depth_raw > 0).then_some(depth_raw);
        let at = at % records.len();
        let r = &mut records[at];
        let slot_width = schema.slot_for(r.message.message, r.partial).unwrap().1.width;
        let expected = match fault {
            1 => {
                r.partial = !r.partial;
                Some(WireError::UnknownSlot {
                    message: format!("#{}", r.message.message.index()),
                    partial: r.partial,
                })
            }
            2 if slot_width < 64 => {
                r.value = 1 << slot_width;
                Some(WireError::ValueOverflow { value: r.value, width: slot_width })
            }
            3 if time_width < 64 => {
                r.time = 1 << time_width;
                Some(WireError::TimeOverflow { time: r.time, width: time_width })
            }
            4 if index_width < 32 => {
                r.message.index = FlowIndex(1 << index_width);
                Some(WireError::IndexOverflow { index: 1 << index_width, width: index_width })
            }
            _ => None,
        };

        let v2_profile = ProfileV2 { sync_every: [1u16, 7, DEFAULT_SYNC_EVERY][sync_raw as usize] };
        let v1 = ProfileV1.encode(&schema, &records, depth);
        let v2 = v2_profile.encode(&schema, &records, depth);
        if let Some(err) = expected {
            prop_assert_eq!(v1.clone().unwrap_err(), err);
            prop_assert_eq!(v2.unwrap_err(), v1.unwrap_err());
            return Ok(());
        }
        let kept = &records[overwritten(records.len(), depth)..];
        prop_assert_eq!(kept.len(), depth.map_or(records.len(), |d| d.min(records.len())));
        let v1 = v1.unwrap();
        prop_assert_eq!(v1.frames, kept.len());
        let v1_report = decode_with(&ProfileV1, &schema, &v1.bytes, Some(v1.bit_len));
        prop_assert!(v1_report.is_clean(), "{:?}", v1_report.damaged);
        prop_assert_eq!(&v1_report.records[..], kept);
        let v2 = v2.unwrap();
        let v2_report = decode_with(&v2_profile, &schema, &v2.bytes, Some(v2.bit_len));
        prop_assert!(v2_report.is_clean(), "{:?}", v2_report.damaged);
        prop_assert_eq!(&v2_report.records[..], kept);
    }
}

/// The v2 decode that [`V2StreamDecoder`] replaced, kept as its oracle:
/// the CRC over the whole block first, then one bounds-checked
/// `BitReader::read` per field. Damage handling (hunting, waiting for
/// what follows a failed block, skipping by `block_len`) is the
/// shipped decoder's, so any difference lies in the block pass.
mod v2_oracle {
    use pstrace_codec::{fnv32, BLOCK_HEADER_BYTES, MIN_BLOCK_BYTES, SYNC_MARKER};
    use pstrace_flow::{FlowIndex, IndexedMessage};
    use pstrace_wire::{
        BitReader, DamageReason, DamagedFrame, Decoded, RecordDecoder, StreamEnd, WireRecord,
        WireSchema,
    };

    fn fold8(h: u32) -> u8 {
        (h ^ (h >> 8) ^ (h >> 16) ^ (h >> 24)) as u8
    }

    fn mask(v: u64, w: u32) -> u64 {
        v & 1u64.checked_shl(w).unwrap_or(0).wrapping_sub(1)
    }

    fn unzigzag(z: u64) -> i64 {
        ((z >> 1) as i64) ^ -((z & 1) as i64)
    }

    fn class_table(width: u32) -> [u32; 4] {
        [0, width.min(4), width.min(12), width]
    }

    fn read_classed(r: &mut BitReader<'_>, table: &[u32; 4]) -> Option<(u64, u64)> {
        let class = r.read(2)?;
        let payload = r.read(table[(class & 3) as usize])?;
        Some((class, payload))
    }

    const RUN_BITS: [u32; 4] = [0, 4, 8, 16];
    const RUN_BIAS: [usize; 4] = [1, 2, 18, 0];

    fn decode_block(
        schema: &WireSchema,
        prev_value: &mut [u64],
        payload: &[u8],
        records: usize,
        base_time: u64,
        first: usize,
        events: &mut Vec<(usize, WireRecord)>,
    ) -> Option<()> {
        prev_value.fill(0);
        let (mut prev_time, mut prev_index) = (base_time, 0u64);
        let mut r = BitReader::new(payload, payload.len() as u64 * 8);
        let time_width = schema.time_width();
        let time_table = class_table(time_width);
        let index_width = schema.index_width();
        let mut done = 0;
        while done < records {
            let tag = r.read(schema.tag_width())?;
            let slot = schema.slot_by_tag(tag)?;
            let width = slot.width;
            let value_table = class_table(width);
            let run_class = (r.read(2)? & 3) as usize;
            let run = RUN_BIAS[run_class] + r.read(RUN_BITS[run_class])? as usize;
            if run == 0 || done + run > records {
                return None;
            }
            for _ in 0..run {
                if r.read(1)? == 1 {
                    prev_index = r.read(index_width)?;
                }
                let (_, dtime) = read_classed(&mut r, &time_table)?;
                prev_time = mask(prev_time.wrapping_add(dtime), time_width);
                let (class, vraw) = read_classed(&mut r, &value_table)?;
                let prev = &mut prev_value[tag as usize];
                *prev = if class == 3 {
                    vraw
                } else {
                    mask(prev.wrapping_add(unzigzag(vraw) as u64), width)
                };
                events.push((
                    first + done,
                    WireRecord {
                        time: prev_time,
                        message: IndexedMessage::new(slot.message, FlowIndex(prev_index as u32)),
                        value: *prev,
                        partial: slot.is_partial(),
                    },
                ));
                done += 1;
            }
        }
        Some(())
    }

    #[derive(Debug)]
    pub struct Decoder {
        schema: WireSchema,
        buf: Vec<u8>,
        pos: usize,
        ordinal: usize,
        blocks: usize,
        held: Decoded,
        prev_value: Vec<u64>,
        skipped: u64,
        skipped_dirty: bool,
        lost_sync: bool,
    }

    impl Decoder {
        pub fn new(schema: &WireSchema) -> Self {
            Decoder {
                schema: schema.clone(),
                buf: Vec::new(),
                pos: 0,
                ordinal: 0,
                blocks: 0,
                held: Decoded::default(),
                prev_value: vec![0; schema.slots().len() + 1],
                skipped: 0,
                skipped_dirty: false,
                lost_sync: false,
            }
        }

        fn header_at(&self, pos: usize) -> Option<(usize, usize, u64)> {
            let h = &self.buf[pos..pos + BLOCK_HEADER_BYTES];
            if h[..2] != SYNC_MARKER
                || fold8(fnv32(&h[..BLOCK_HEADER_BYTES - 1])) != h[BLOCK_HEADER_BYTES - 1]
            {
                return None;
            }
            let block_len = usize::from(u16::from_le_bytes([h[2], h[3]]));
            let records = usize::from(u16::from_le_bytes([h[4], h[5]]));
            if block_len < MIN_BLOCK_BYTES || records == 0 {
                return None;
            }
            Some((
                block_len,
                records,
                u64::from_le_bytes(h[6..14].try_into().unwrap()),
            ))
        }

        fn flush_skip(&mut self, tail: bool) {
            if self.skipped > 0 && (self.skipped_dirty || !tail) {
                self.lost_sync = true;
                self.held.damaged.push(DamagedFrame {
                    frame: self.ordinal,
                    reason: DamageReason::SyncLost {
                        bytes: self.skipped,
                    },
                });
            }
            self.skipped = 0;
            self.skipped_dirty = false;
        }

        fn corrupt_block(&mut self, records: usize) {
            self.held.damaged.push(DamagedFrame {
                frame: self.ordinal,
                reason: DamageReason::SyncCorrupt {
                    records: records as u32,
                },
            });
            self.ordinal += records;
        }

        fn scan(&mut self, at_end: bool) {
            loop {
                let avail = self.buf.len() - self.pos;
                if avail == 0 {
                    break;
                }
                if avail < BLOCK_HEADER_BYTES {
                    if at_end {
                        for i in self.pos..self.buf.len() {
                            self.skipped_dirty |= self.buf[i] != 0;
                        }
                        self.skipped += avail as u64;
                        self.pos = self.buf.len();
                    }
                    break;
                }
                let Some((block_len, records, base_time)) = self.header_at(self.pos) else {
                    self.skipped_dirty |= self.buf[self.pos] != 0;
                    self.skipped += 1;
                    self.pos += 1;
                    continue;
                };
                if avail < block_len {
                    if at_end {
                        self.flush_skip(false);
                        self.blocks += 1;
                        self.corrupt_block(records);
                        self.pos = self.buf.len();
                    }
                    break;
                }
                let block = &self.buf[self.pos..self.pos + block_len];
                let crc = u32::from_le_bytes(block[block_len - 4..].try_into().unwrap());
                let intact = fnv32(&block[..block_len - 4]) == crc;
                let after = avail - block_len;
                if !intact && after < BLOCK_HEADER_BYTES && !at_end {
                    break;
                }
                self.flush_skip(false);
                self.blocks += 1;
                if !intact
                    && after >= BLOCK_HEADER_BYTES
                    && self.header_at(self.pos + block_len).is_none()
                {
                    self.corrupt_block(records);
                    self.pos += BLOCK_HEADER_BYTES;
                    continue;
                }
                let start = self.held.events.len();
                let decoded = intact
                    && decode_block(
                        &self.schema,
                        &mut self.prev_value,
                        &self.buf[self.pos + BLOCK_HEADER_BYTES..self.pos + block_len - 4],
                        records,
                        base_time,
                        self.ordinal,
                        &mut self.held.events,
                    )
                    .is_some();
                if decoded {
                    self.ordinal += records;
                } else {
                    self.held.events.truncate(start);
                    self.corrupt_block(records);
                }
                self.pos += block_len;
            }
        }
    }

    impl RecordDecoder for Decoder {
        fn schema(&self) -> &WireSchema {
            &self.schema
        }

        fn push(&mut self, bytes: &[u8]) {
            self.buf.drain(..self.pos);
            self.pos = 0;
            self.buf.extend_from_slice(bytes);
            self.scan(false);
        }

        fn drain(&mut self, out: &mut Decoded) {
            out.append(&mut self.held);
        }

        fn finish(&mut self, _bit_len: Option<u64>, out: &mut Decoded) -> StreamEnd {
            self.scan(true);
            self.flush_skip(true);
            self.drain(out);
            StreamEnd {
                frames: self.blocks,
                idle_frames: 0,
                trailing_bits: 0,
                tail_clean: !self.lost_sync,
                end: usize::MAX,
            }
        }

        fn frames(&self) -> usize {
            self.blocks
        }
    }
}

/// A block with valid header and block checksums around `payload`: what
/// a CRC collision looks like to the decoder.
fn forged_block(records: u16, base_time: u64, payload: &[u8]) -> Vec<u8> {
    let fold8 = |h: u32| (h ^ (h >> 8) ^ (h >> 16) ^ (h >> 24)) as u8;
    let block_len = BLOCK_HEADER_BYTES + payload.len() + 4;
    let mut out = SYNC_MARKER.to_vec();
    out.extend_from_slice(&(block_len as u16).to_le_bytes());
    out.extend_from_slice(&records.to_le_bytes());
    out.extend_from_slice(&base_time.to_le_bytes());
    out.push(fold8(fnv32(&out)));
    out.extend_from_slice(payload);
    let crc = fnv32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The one-pass block decode (refill at fixed points, CRC folded
    /// into the record loop) against the oracle over random schemas,
    /// with records that fit one refill and records that need three, and
    /// damaged streams: bit flips, a truncated tail, a garbage prefix, a
    /// block whose checksums hold around a random payload (a CRC
    /// collision: it must decode to exactly what the oracle decodes, or
    /// be dropped as the oracle drops it), pushed in random chunks. After
    /// every push both hold the same events (ordinals and records) and
    /// damage and count the same `frames()`; both end the same.
    #[test]
    fn v2_decode_oracle_agrees(
        lanes in proptest::collection::vec((1u32..=64, any::<bool>(), any::<u32>()), 1..12),
        time_width in 1u32..=64,
        index_width in 1u32..=32,
        parts in proptest::collection::vec(
            (any::<u16>(), any::<u32>(), any::<u32>(), any::<u64>(), any::<u8>()),
            0..150,
        ),
        sync_raw in 0u16..3,
        flips in proptest::collection::vec(any::<u64>(), 0..4),
        prefix in proptest::collection::vec(any::<u8>(), 0..20),
        forge in any::<bool>(),
        forged in (1u16..80, any::<u64>(), proptest::collection::vec(any::<u8>(), 0..48), any::<usize>()),
        cut in (any::<bool>(), any::<usize>()),
        chunks in proptest::collection::vec(1usize..300, 1..8),
        declared in any::<bool>(),
        narrow in any::<bool>(),
    ) {
        // Half the schemas have records that fit one refill (at most
        // 12 + 24 + 8 + 5 bits), half are drawn over the full widths.
        let (lanes, time_width, index_width) = if narrow {
            let lanes: Vec<_> = lanes.iter().map(|&(w, sub, raw)| (1 + w % 8, sub, raw)).collect();
            (lanes, 1 + time_width % 24, 1 + index_width % 12)
        } else {
            (lanes, time_width, index_width)
        };
        let (_, schema) = random_schema(&lanes, time_width, index_width);
        let records = random_records(&schema, &parts);
        let sync_every = [1u16, 7, DEFAULT_SYNC_EVERY][sync_raw as usize];
        let stream = encode_v2(&schema, &records, sync_every, None).unwrap();
        let mut bytes = prefix;
        bytes.extend_from_slice(&stream.bytes);
        if forge {
            let (n, base_time, payload, at) = forged;
            let at = at % (bytes.len() + 1);
            bytes.splice(at..at, forged_block(n, base_time, &payload));
        }
        for &flip in &flips {
            if !bytes.is_empty() {
                let bit = flip % (bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
        if cut.0 {
            bytes.truncate(cut.1 % (bytes.len() + 1));
        }

        let mut fast = V2StreamDecoder::new(&schema);
        let mut slow = v2_oracle::Decoder::new(&schema);
        let (mut fast_out, mut slow_out) = (Decoded::default(), Decoded::default());
        let mut at = 0;
        for &size in chunks.iter().cycle() {
            if at >= bytes.len() {
                break;
            }
            let piece = &bytes[at..(at + size).min(bytes.len())];
            at += piece.len();
            fast.push(piece);
            slow.push(piece);
            fast.drain(&mut fast_out);
            slow.drain(&mut slow_out);
            prop_assert_eq!(&fast_out.events, &slow_out.events);
            prop_assert_eq!(&fast_out.damaged, &slow_out.damaged);
            prop_assert_eq!(fast.frames(), slow.frames());
        }
        let bit_len = declared.then_some(bytes.len() as u64 * 8);
        let fast_end = fast.finish(bit_len, &mut fast_out);
        let slow_end = slow.finish(bit_len, &mut slow_out);
        prop_assert_eq!(&fast_out.events, &slow_out.events);
        prop_assert_eq!(&fast_out.damaged, &slow_out.damaged);
        prop_assert_eq!(fast_end, slow_end);
        prop_assert_eq!(fast.frames(), slow.frames());
    }
}
