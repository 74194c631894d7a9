//! Property-based tests for the wire codec.

use proptest::prelude::*;
use pstrace_flow::{FlowIndex, IndexedMessage, MessageCatalog};
use pstrace_wire::{
    decode_with, encode_records, finish_report, read_ptw, write_ptw, BitReader, BitWriter,
    DamagedFrame, ProfileV1, RecordDecoder, Released, StreamDecoder, TimePass, WireRecord,
    WireSchema,
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
        let report = decode_with(&ProfileV1, &schema, &stream.bytes, Some(stream.bit_len));
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
        let report = decode_with(&ProfileV1, &schema, &bytes, Some(stream.bit_len));
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
        let report = decode_with(&ProfileV1, &schema, &bytes, None);
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

/// The byte-at-a-time bit reader and writer the word-at-a-time
/// [`BitReader`] and [`BitWriter`] replaced, kept as their oracle: one
/// byte per step, no word loads, no shortcuts.
mod bytewise {
    pub struct Reader<'a> {
        bytes: &'a [u8],
        pos: u64,
        bit_len: u64,
    }

    impl<'a> Reader<'a> {
        pub fn new(bytes: &'a [u8], bit_len: u64) -> Self {
            assert!(bit_len <= bytes.len() as u64 * 8);
            Reader {
                bytes,
                pos: 0,
                bit_len,
            }
        }

        pub fn seek(&mut self, pos: u64) {
            assert!(pos <= self.bit_len);
            self.pos = pos;
        }

        pub fn remaining(&self) -> u64 {
            self.bit_len.saturating_sub(self.pos)
        }

        pub fn overrun(&self) -> bool {
            self.pos > self.bit_len
        }

        /// The next `width` bits whether or not they lie within
        /// `bit_len`: the slice's bytes, then zeros.
        pub fn take(&mut self, width: u32) -> u64 {
            let mut out = 0u64;
            for i in 0..width {
                let bit = self.pos + u64::from(i);
                let byte = self.bytes.get((bit / 8) as usize).copied().unwrap_or(0);
                out |= u64::from((byte >> (bit % 8)) & 1) << i;
            }
            self.pos += u64::from(width);
            out
        }

        pub fn read(&mut self, width: u32) -> Option<u64> {
            assert!(width <= 64);
            if self.remaining() < u64::from(width) {
                return None;
            }
            let mut out = 0u64;
            let mut got = 0u32;
            while got < width {
                let byte = self.bytes[(self.pos / 8) as usize];
                let bit_in_byte = (self.pos % 8) as u32;
                let take = (width - got).min(8 - bit_in_byte);
                let mask = (1u16 << take) - 1;
                out |= u64::from(u16::from(byte >> bit_in_byte) & mask) << got;
                got += take;
                self.pos += u64::from(take);
            }
            Some(out)
        }
    }

    #[derive(Default)]
    pub struct Writer {
        pub bytes: Vec<u8>,
        pub bit_len: u64,
    }

    impl Writer {
        pub fn write(&mut self, value: u64, width: u32) {
            let mut remaining = width;
            let mut v = value;
            while remaining > 0 {
                let bit_in_byte = (self.bit_len % 8) as u32;
                if bit_in_byte == 0 {
                    self.bytes.push(0);
                }
                let take = remaining.min(8 - bit_in_byte);
                let chunk = (v & ((1u64 << take) - 1)) as u8;
                *self.bytes.last_mut().expect("byte pushed above") |= chunk << bit_in_byte;
                v = v.checked_shr(take).unwrap_or(0);
                remaining -= take;
                self.bit_len += u64::from(take);
            }
        }
    }
}

/// The low `width` bits of `v`.
fn low(v: u64, width: u32) -> u64 {
    v & 1u64.checked_shl(width).unwrap_or(0).wrapping_sub(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The refill reader agrees with the byte-wise oracle: `read` gives
    /// the same value, `None` at the same calls; a refill followed by
    /// takes totalling at most 56 bits gives the same bits, also past
    /// `bit_len` (the slice's bytes, then zeros); and `remaining()` and
    /// `overrun()` agree after every step. Widths 0..=64, random seeks
    /// (uniform, and into the last 72 bits) and take bursts interleave,
    /// over buffers of 0..40 bytes whose `bit_len` may end mid-byte, so
    /// refills keep landing within 8 bytes of the end.
    #[test]
    fn bytewise_oracle_reader_agrees(
        bytes in proptest::collection::vec(any::<u8>(), 0..40),
        cut in 0u64..8,
        ops in proptest::collection::vec((0u32..=64, any::<u64>(), 0u8..10), 1..64),
    ) {
        let bit_len = (bytes.len() as u64 * 8).saturating_sub(cut);
        let mut fast = BitReader::new(&bytes, bit_len);
        let mut slow = bytewise::Reader::new(&bytes, bit_len);
        for &(width, target, op) in &ops {
            let seek = match op {
                0 | 6 => Some(target % (bit_len + 1)),
                1 | 7 => Some(bit_len.saturating_sub(target % 72)),
                _ => None,
            };
            if let Some(pos) = seek {
                fast.seek(pos);
                slow.seek(pos);
            }
            if op >= 6 {
                // A burst: widths from the bytes of `target`, up to 56
                // bits in all after one refill.
                fast.refill();
                let mut budget = BitReader::REFILL_BITS;
                for w in target.to_le_bytes().map(|b| u32::from(b) % 57) {
                    let w = w.min(budget);
                    budget -= w;
                    prop_assert_eq!(fast.take(w), slow.take(w), "take {}", w);
                }
            } else {
                prop_assert_eq!(fast.read(width), slow.read(width), "width {}", width);
            }
            prop_assert_eq!(fast.remaining(), slow.remaining());
            prop_assert_eq!(fast.overrun(), slow.overrun());
        }
    }

    /// The word-at-a-time writer produces the byte-wise oracle's bytes
    /// after every field (`as_bytes`) and at the end (`into_bytes`), and
    /// the reader reads the fields back.
    #[test]
    fn bytewise_oracle_writer_agrees(
        fields in proptest::collection::vec((0u32..=64, any::<u64>(), 0u8..4), 0..48),
    ) {
        let fields: Vec<(u64, u32)> = fields
            .iter()
            .map(|&(width, raw, shape)| {
                // Mix all-ones and sparse values in with uniform ones.
                let raw = match shape {
                    0 => u64::MAX,
                    1 => raw & 0x8000_0000_0000_0001,
                    _ => raw,
                };
                (low(raw, width), width)
            })
            .collect();
        let mut fast = BitWriter::new();
        let mut slow = bytewise::Writer::default();
        for &(value, width) in &fields {
            fast.write(value, width);
            slow.write(value, width);
            prop_assert_eq!(fast.as_bytes(), slow.bytes.as_slice());
            prop_assert_eq!(fast.bit_len(), slow.bit_len);
        }
        let bit_len = fast.bit_len();
        let bytes = fast.into_bytes();
        prop_assert_eq!(&bytes, &slow.bytes);
        let mut r = BitReader::new(&bytes, bit_len);
        for &(value, width) in &fields {
            prop_assert_eq!(r.read(width), Some(value));
        }
        prop_assert_eq!(r.remaining(), 0);
    }
}

/// The oracle: `events` through per-record `accept`, sorted into the
/// records it confirms and the damage it reveals.
fn accept_each(
    pass: &mut TimePass,
    events: &[(usize, WireRecord)],
) -> (Vec<WireRecord>, Vec<DamagedFrame>) {
    let (mut confirmed, mut damage) = (Vec::new(), Vec::new());
    for &(ordinal, rec) in events {
        match pass.accept(ordinal, rec) {
            Some(Released::Record(r)) => confirmed.push(r),
            Some(Released::Damaged(d)) => damage.push(d),
            None => {}
        }
    }
    (confirmed, damage)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `TimePass::run` over any split of a stream into batches gives the
    /// verdicts of per-record `accept`, its oracle: the same confirmed
    /// records, each under its own ordinal, the same damage (frame and
    /// reason) in the same order, and the same flushed tail. Times step
    /// forward, regress (shallowly or below the committed time) and
    /// spike far ahead; ordinals skip, as idle or damaged frames leave
    /// gaps; batches may be empty.
    #[test]
    fn time_pass_run_matches_accept(
        steps in proptest::collection::vec((0u8..8, 0u64..20, 1usize..3, any::<u8>()), 0..200),
        cuts in proptest::collection::vec(0usize..24, 0..24),
        end_back in 0usize..3,
    ) {
        let c = catalog();
        let (mut time, mut ordinal) = (100u64, 0usize);
        let mut events = Vec::with_capacity(steps.len());
        for &(shape, delta, gap, raw) in &steps {
            let t = match shape {
                0 => time.saturating_sub(delta),
                1 => time.saturating_sub(delta + 50),
                2 => time + (1 << 40) + delta,
                _ => {
                    time += delta;
                    time
                }
            };
            ordinal += gap;
            events.push((ordinal, record(&c, raw, t, raw % 4, u64::from(raw))));
        }

        let mut oracle = TimePass::default();
        let (confirmed, damage) = accept_each(&mut oracle, &events);

        let mut pass = TimePass::default();
        let (mut kept, mut damaged) = (Vec::new(), Vec::new());
        let mut rest = &events[..];
        for &cut in cuts.iter().chain([usize::MAX].iter()) {
            let (batch, tail) = rest.split_at(cut.min(rest.len()));
            let mut batch = batch.to_vec();
            pass.run(&mut batch, &mut damaged);
            kept.extend(batch);
            rest = tail;
        }
        let records: Vec<WireRecord> = kept.iter().map(|&(_, r)| r).collect();
        prop_assert_eq!(records, confirmed);
        for &(o, r) in &kept {
            let at = events.binary_search_by_key(&o, |&(e, _)| e);
            prop_assert_eq!(at.map(|i| events[i].1), Ok(r), "ordinal {}", o);
        }
        prop_assert_eq!(damaged, damage);
        prop_assert_eq!(pass, oracle);
        let end = (ordinal + 1).saturating_sub(end_back);
        prop_assert_eq!(pass.flush(end), oracle.flush(end));

        // After a flush nothing is held but the committed time still
        // binds: the stream's head, replayed, runs behind it.
        let mut again: Vec<_> = events.iter().take(8).copied().collect();
        let (confirmed, damage) = accept_each(&mut oracle, &again);
        let mut damaged = Vec::new();
        pass.run(&mut again, &mut damaged);
        let records: Vec<WireRecord> = again.iter().map(|&(_, r)| r).collect();
        prop_assert_eq!(records, confirmed);
        prop_assert_eq!(damaged, damage);
        prop_assert_eq!(pass, oracle);
    }
}
