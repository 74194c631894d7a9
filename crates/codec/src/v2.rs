//! The `.ptw` v2 payload: compressed, checksummed sync blocks.
//!
//! v1 spends full-width header fields on every frame even though the
//! stream is overwhelmingly redundant — timestamps are near-monotone,
//! flow indices repeat, tag sequences run, and lane values drift slowly.
//! v2 recovers that redundancy with the same moves RISC-V Efficient-Trace
//! encoders use (delta timestamps with periodic absolute sync points,
//! sign-compressed payload deltas, run-length tag maps) while keeping the
//! damage-tolerance contract: one flipped bit costs at most one sync
//! block of records, never the stream.
//!
//! ## Block layout (byte-aligned, all integers little-endian)
//!
//! ```text
//! marker     u16   0xC35A (bytes 0x5A 0xC3) — resync hunt pattern
//! block_len  u16   total block size in bytes (header + payload + crc)
//! records    u16   records carried (1..=sync_every)
//! base_time  u64   absolute time of the block's first record
//! hdr_crc    u8    FNV-1a-32 of bytes [0, 14) folded to one byte
//! payload    ...   bit-packed record data, zero-padded to a byte
//! crc        u32   FNV-1a-32 of every byte before this field
//! ```
//!
//! The 15-byte header is self-checking (`hdr_crc`), so a decoder that
//! trusts a header can also trust `block_len` to skip a body whose `crc`
//! fails — corruption inside a block is contained to that block, and
//! corruption of a header costs the hunt distance to the next marker.
//! Every block resets its delta state (time, flow index, per-slot value),
//! so blocks decode independently: the decode loop is *stateless across
//! sync points*, which is exactly what bounds error propagation.
//!
//! ## Record encoding within a block
//!
//! Records are grouped into *tag runs* (`tag`, run length in a 2-bit
//! class: 1 / 4-bit / 8-bit / 16-bit extension). Each record then packs:
//!
//! * **index** — 1 bit "same as previous" flag, else the full
//!   `index_width` field;
//! * **time** — 2-bit delta class over `(time − prev) mod 2^tw`:
//!   0 bits / 4 / 12 / full `tw` (the wrap-around delta reproduces even
//!   non-monotone inputs exactly, so the stream-wide spike pass behaves
//!   identically to v1);
//! * **value** — 2-bit class over the zig-zag of the lane-width wrapping
//!   signed delta from the slot's previous value: 0 bits / 4 / 12 / the
//!   raw lane width.

use pstrace_wire::{
    check_record, overwritten, BitReader, BitWriter, DamageReason, DamagedFrame, Decoded,
    EncodedStream, FrameProfile, PtwMeta, RecordDecoder, StreamEnd, WireError, WireRecord,
    WireSchema, SYNC_EVERY_RANGE,
};

/// The two marker bytes starting every sync block.
pub const SYNC_MARKER: [u8; 2] = [0x5A, 0xC3];

/// Fixed header size: marker + block_len + records + base_time + hdr_crc.
pub const BLOCK_HEADER_BYTES: usize = 15;

/// Smallest possible block: header plus the trailing CRC.
pub const MIN_BLOCK_BYTES: usize = BLOCK_HEADER_BYTES + 4;

/// Default sync cadence: damage window of 64 records amortizes the
/// 19-byte block overhead to ~2.4 bits/record while keeping the blast
/// radius of a flipped bit comparable to a v1 burst error.
pub const DEFAULT_SYNC_EVERY: u16 = 64;

/// Payload size guard: a block is flushed early when its packed payload
/// approaches this many bytes so `block_len` always fits `u16`.
const MAX_PAYLOAD_BYTES: usize = 60_000;

/// FNV-1a-32 over `bytes` — the checksum discipline of every v2 sync
/// block, exported so other on-disk formats (the ingest daemon's WAL
/// entries) can reuse the exact same integrity check.
#[must_use]
pub fn fnv32(bytes: &[u8]) -> u32 {
    fnv32_more(0x811c_9dc5, bytes)
}

/// Continues an FNV-1a-32 state `h` over `bytes`.
fn fnv32_more(h: u32, bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

fn fold8(h: u32) -> u8 {
    (h ^ (h >> 8) ^ (h >> 16) ^ (h >> 24)) as u8
}

/// The low `w` bits of `v` (all of them for `w >= 64`), without a branch.
fn mask(v: u64, w: u32) -> u64 {
    v & 1u64.checked_shl(w).unwrap_or(0).wrapping_sub(1)
}

/// `(a - b) mod 2^w`.
fn wrap_sub(a: u64, b: u64, w: u32) -> u64 {
    mask(a.wrapping_sub(b), w)
}

/// Reinterprets a `w`-bit unsigned delta as signed two's complement.
/// `d - 2^w` is computed wrapping: at `w == 63`, `2^63` is `i64::MIN`.
fn to_signed(d: u64, w: u32) -> i64 {
    if w >= 64 || (d >> (w - 1)) & 1 == 0 {
        d as i64
    } else {
        (d as i64).wrapping_sub(1i64 << w)
    }
}

fn zigzag(s: i64) -> u64 {
    ((s << 1) ^ (s >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Bit width of the short (class 1) and medium (class 2) delta fields for
/// a full field width `w`.
fn class_widths(w: u32) -> (u32, u32) {
    (w.min(4), w.min(12))
}

/// Writes a 2-bit class and the delta it selects; `raw` is the fallback
/// payload written at full width when the delta is too large.
fn write_classed(w: &mut BitWriter, delta: u64, raw: u64, width: u32) {
    let (short, medium) = class_widths(width);
    if delta == 0 {
        w.write(0, 2);
    } else if delta < (1u64 << short) {
        w.write(1, 2);
        w.write(delta, short);
    } else if medium < 64 && delta < (1u64 << medium) {
        w.write(2, 2);
        w.write(delta, medium);
    } else {
        w.write(3, 2);
        w.write(raw, width);
    }
}

/// Field widths a 2-bit class selects for a `width`-bit field: nothing,
/// the short delta, the medium delta, or the raw field.
fn class_table(width: u32) -> [u32; 4] {
    let (short, medium) = class_widths(width);
    [0, short, medium, width]
}

/// Field widths a 2-bit class selects, one per byte of a `u32`, so
/// the lookup is a shift and a mask rather than a load.
#[derive(Debug, Clone, Copy)]
struct ClassWidths(u32);

impl ClassWidths {
    fn pack(widths: [u32; 4]) -> Self {
        ClassWidths(widths.iter().rev().fold(0, |p, &w| (p << 8) | w))
    }

    /// The `table` widths split at `cap`: the part taken before a refill
    /// and the rest taken after it.
    fn split(table: [u32; 4], cap: u32) -> (Self, Self) {
        (
            Self::pack(table.map(|w| w.min(cap))),
            Self::pack(table.map(|w| w - w.min(cap))),
        )
    }

    fn get(self, class: u64) -> u32 {
        (self.0 >> (class * 8)) & 0xff
    }
}

/// Where [`decode_block`] splits a record between refills when its
/// schema's records can outgrow one refill (`WIDE`). Each of the three
/// stretches takes at most [`BitReader::REFILL_BITS`] (56) bits: fresh
/// flag (1) + index (<= 32) + time class (2) + time low (<= 21); time
/// high (<= 43) + value class (2) + value low (<= 11); value high
/// (<= 53).
const TIME_LOW_BITS: u32 = 21;
const VALUE_LOW_BITS: u32 = 11;

/// Block bytes [`decode_block`] hashes after each record.
const HASH_STRIDE: usize = 4;

/// Whether a record of `schema` can take more bits than one refill
/// holds: then [`decode_block`] refills three times per record, else
/// once.
fn wide_records(schema: &WireSchema) -> bool {
    let widest = schema.slots().iter().map(|s| s.width).max().unwrap_or(0);
    1 + schema.index_width() + 2 + schema.time_width() + 2 + widest > BitReader::REFILL_BITS
}

/// What [`decode_block`] needs of one slot, worked out once per decoder.
#[derive(Debug, Clone, Copy)]
struct LaneCode {
    message: pstrace_flow::MessageId,
    partial: bool,
    /// The lane's low `width` bits.
    mask: u64,
    /// Value class widths before and after the record's last refill.
    low: ClassWidths,
    high: ClassWidths,
}

impl LaneCode {
    /// One code per slot of `schema`, in tag order (tag `t` is entry
    /// `t - 1`).
    fn all(schema: &WireSchema) -> Vec<LaneCode> {
        schema
            .slots()
            .iter()
            .map(|slot| {
                let (low, high) = ClassWidths::split(class_table(slot.width), VALUE_LOW_BITS);
                LaneCode {
                    message: slot.message,
                    partial: slot.is_partial(),
                    mask: mask(u64::MAX, slot.width),
                    low,
                    high,
                }
            })
            .collect()
    }
}

/// Run-length extension width and bias per 2-bit run class: a run of 1,
/// `2 + u4`, `18 + u8`, or a raw `u16`.
const RUN_BITS: [u32; 4] = [0, 4, 8, 16];
const RUN_BIAS: [usize; 4] = [1, 2, 18, 0];

/// The encoder's per-block delta state, fresh at every sync point.
#[derive(Debug)]
struct DeltaState {
    prev_time: u64,
    prev_index: u64,
    /// Previous value per tag (index 0 unused — tag 0 is reserved).
    prev_value: Vec<u64>,
}

impl DeltaState {
    fn new(schema: &WireSchema, base_time: u64) -> Self {
        DeltaState {
            prev_time: base_time,
            prev_index: 0,
            prev_value: vec![0; schema.slots().len() + 1],
        }
    }
}

/// Packs one block of `(tag, record)` pairs into bytes.
fn encode_block(schema: &WireSchema, items: &[(u64, WireRecord)]) -> Vec<u8> {
    debug_assert!(!items.is_empty());
    let base_time = items[0].1.time;
    let mut st = DeltaState::new(schema, base_time);
    let mut w = BitWriter::new();
    let mut i = 0;
    while i < items.len() {
        let tag = items[i].0;
        let mut run = 1usize;
        while i + run < items.len() && items[i + run].0 == tag && run < 65_535 {
            run += 1;
        }
        w.write(tag, schema.tag_width());
        match run {
            1 => w.write(0, 2),
            2..=17 => {
                w.write(1, 2);
                w.write(run as u64 - 2, 4);
            }
            18..=273 => {
                w.write(2, 2);
                w.write(run as u64 - 18, 8);
            }
            _ => {
                w.write(3, 2);
                w.write(run as u64, 16);
            }
        }
        let width = schema.slot_by_tag(tag).expect("checked tag").width;
        for (_, rec) in &items[i..i + run] {
            let index = u64::from(rec.message.index.0);
            if index == st.prev_index {
                w.write(0, 1);
            } else {
                w.write(1, 1);
                w.write(index, schema.index_width());
                st.prev_index = index;
            }
            let dtime = wrap_sub(rec.time, st.prev_time, schema.time_width());
            write_classed(&mut w, dtime, dtime, schema.time_width());
            st.prev_time = rec.time;
            let slot_prev = st.prev_value[tag as usize];
            let zz = zigzag(to_signed(wrap_sub(rec.value, slot_prev, width), width));
            write_classed(&mut w, zz, rec.value, width);
            st.prev_value[tag as usize] = rec.value;
        }
        i += run;
    }
    let payload = w.into_bytes();
    let block_len = BLOCK_HEADER_BYTES + payload.len() + 4;
    let mut out = Vec::with_capacity(block_len);
    out.extend_from_slice(&SYNC_MARKER);
    out.extend_from_slice(&(block_len as u16).to_le_bytes());
    out.extend_from_slice(&(items.len() as u16).to_le_bytes());
    out.extend_from_slice(&base_time.to_le_bytes());
    out.push(fold8(fnv32(&out)));
    out.extend_from_slice(&payload);
    let crc = fnv32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    debug_assert_eq!(out.len(), block_len);
    out
}

/// What one pass over a complete block found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockRead {
    /// The CRC holds and every record decoded.
    Decoded,
    /// The CRC holds but the payload does not decode (a CRC collision).
    Undecodable,
    /// The CRC fails.
    CrcFailed,
}

/// A checksum-valid block header.
#[derive(Debug, Clone, Copy)]
struct Header {
    block_len: usize,
    records: usize,
    base_time: u64,
    /// FNV-1a-32 state over the header's first 14 bytes, which the block
    /// CRC continues.
    hash: u32,
}

/// Decodes and checksums one block in a single pass. `bytes` starts at
/// the block's marker and holds the whole block (bytes after it, when
/// present, only spare the reader its end-of-slice path). Records are
/// appended to `events` from ordinal `first` on and stay there only when
/// the outcome is [`BlockRead::Decoded`]. `prev_value` (per tag) is
/// reset to the block's sync point first.
///
/// The reader refills at fixed points: once per run header, and once
/// per record, or three times when the schema's records are `WIDE` (see
/// [`TIME_LOW_BITS`]). Its overrun is checked once per record, so no
/// field read branches on the bits left. That check also covers the run
/// header before the record: a run holds at least one record, and the
/// position only grows. Decoding before the CRC is known is safe: a CRC
/// collision must cost the block, never a panic, already. The FNV-1a
/// chain runs inside the record loop, [`HASH_STRIDE`] bytes after each
/// record, so it overlaps the decode instead of following it.
///
/// Data-dependent fields decode without branches: each class picks its
/// widths out of a [`ClassWidths`] and the take happens unconditionally
/// (width 0 takes 0),
/// and the flow index is a masked select between the fresh and the
/// previous one. Real captures break a tag run and change index on most
/// records, so branching on those fields would mispredict constantly.
fn decode_block<const WIDE: bool>(
    schema: &WireSchema,
    lanes: &[LaneCode],
    prev_value: &mut [u64],
    bytes: &[u8],
    header: Header,
    first: usize,
    events: &mut Vec<(usize, WireRecord)>,
) -> BlockRead {
    let Header {
        block_len,
        records,
        base_time,
        hash,
    } = header;
    prev_value.fill(0);
    let crc_at = block_len - 4;
    let payload_bits = (crc_at - BLOCK_HEADER_BYTES) as u64 * 8;
    let mut r = BitReader::new(&bytes[BLOCK_HEADER_BYTES..], payload_bits);
    // The hash covers `hdr_crc` and the payload: `HASH_STRIDE` bytes of
    // them after each record, the rest after the loop.
    let (mut h, mut hashed) = (hash, BLOCK_HEADER_BYTES - 1);
    let (tag_width, index_width) = (schema.tag_width(), schema.index_width());
    let time_width = schema.time_width();
    let time_mask = mask(u64::MAX, time_width);
    let (time_low, time_high) = ClassWidths::split(class_table(time_width), TIME_LOW_BITS);
    let (mut prev_time, mut prev_index) = (base_time, 0u64);
    let start = events.len();
    events.reserve(records);
    let mut done = 0;
    let decoded = 'block: {
        while done < records {
            r.refill();
            let tag = r.take(tag_width);
            let run_class = (r.take(2) & 3) as usize;
            let run = RUN_BIAS[run_class] + r.take(RUN_BITS[run_class]) as usize;
            let Some(lane) = lanes.get((tag as usize).wrapping_sub(1)) else {
                break 'block false;
            };
            if run == 0 || done + run > records {
                break 'block false;
            }
            let prev_value = &mut prev_value[tag as usize];
            for _ in 0..run {
                r.refill();
                let fresh = r.take(1);
                let read = r.take(fresh as u32 * index_width);
                let keep = fresh.wrapping_sub(1);
                prev_index = (read & !keep) | (prev_index & keep);
                let tclass = r.take(2);
                let dtime = r.take(time_low.get(tclass));
                if WIDE {
                    r.refill();
                }
                let dtime = dtime | r.take(time_high.get(tclass)) << time_low.get(tclass);
                prev_time = prev_time.wrapping_add(dtime) & time_mask;
                let vclass = r.take(2);
                let vraw = r.take(lane.low.get(vclass));
                if WIDE {
                    r.refill();
                }
                let vraw = vraw | r.take(lane.high.get(vclass)) << lane.low.get(vclass);
                if r.overrun() {
                    break 'block false;
                }
                let delta = prev_value.wrapping_add(unzigzag(vraw) as u64) & lane.mask;
                let value = if vclass == 3 { vraw } else { delta };
                *prev_value = value;
                events.push((
                    first + done,
                    WireRecord {
                        time: prev_time,
                        message: pstrace_flow::IndexedMessage::new(
                            lane.message,
                            pstrace_flow::FlowIndex(prev_index as u32),
                        ),
                        value,
                        partial: lane.partial,
                    },
                ));
                done += 1;
                if hashed + HASH_STRIDE <= crc_at {
                    h = fnv32_more(h, &bytes[hashed..hashed + HASH_STRIDE]);
                    hashed += HASH_STRIDE;
                }
            }
        }
        true
    };
    h = fnv32_more(h, &bytes[hashed..crc_at]);
    let crc = u32::from_le_bytes(bytes[crc_at..block_len].try_into().expect("4 bytes"));
    let read = match (h == crc, decoded) {
        (false, _) => BlockRead::CrcFailed,
        (true, false) => BlockRead::Undecodable,
        (true, true) => BlockRead::Decoded,
    };
    if read != BlockRead::Decoded {
        events.truncate(start);
    }
    read
}

/// Serializes records into the v2 sync-block stream.
///
/// `depth` models the circular trace buffer at record granularity under
/// the same [`overwritten`] rule as v1 (one v1 frame carries exactly one
/// record, so the retained set is identical): `Some(n)` keeps the newest
/// `n` records.
///
/// # Errors
///
/// The first [`check_record`] error, exactly as v1: every record is
/// checked, including those the ring overwrites, before any block is
/// emitted.
///
/// # Panics
///
/// Panics on `depth == Some(0)` (before any record is checked) or a
/// `sync_every` outside [`SYNC_EVERY_RANGE`].
pub fn encode_v2(
    schema: &WireSchema,
    records: &[WireRecord],
    sync_every: u16,
    depth: Option<usize>,
) -> Result<EncodedStream, WireError> {
    let skip = overwritten(records.len(), depth);
    assert!(
        (SYNC_EVERY_RANGE.0..=SYNC_EVERY_RANGE.1).contains(&sync_every),
        "sync_every {sync_every} outside {SYNC_EVERY_RANGE:?}"
    );
    let mut tagged = Vec::with_capacity(records.len() - skip);
    for (i, rec) in records.iter().enumerate() {
        let (tag, _) = check_record(schema, rec)?;
        if i >= skip {
            tagged.push((tag, *rec));
        }
    }
    let mut bytes = Vec::new();
    let mut blocks = 0usize;
    let mut start = 0usize;
    while start < tagged.len() {
        // Flush at the sync cadence, or early if the packed payload would
        // push block_len past u16 (only reachable with huge lanes).
        let mut end = (start + sync_every as usize).min(tagged.len());
        let max_bits_per_record =
            (3 + schema.tag_width()
                + 18
                + 1
                + schema.index_width()
                + 2
                + schema.time_width()
                + 2
                + schema.slots().iter().map(|s| s.width).max().unwrap_or(0)) as usize;
        let cap = (MAX_PAYLOAD_BYTES * 8) / max_bits_per_record.max(1);
        end = end.min(start + cap.max(1));
        bytes.extend_from_slice(&encode_block(schema, &tagged[start..end]));
        blocks += 1;
        start = end;
    }
    Ok(EncodedStream {
        bit_len: bytes.len() as u64 * 8,
        frames: blocks,
        bytes,
    })
}

/// The v2 [`RecordDecoder`]: complete sync blocks decode as soon as
/// their last byte lands, and damage hunting spans chunk boundaries.
#[derive(Debug)]
pub struct V2StreamDecoder {
    schema: WireSchema,
    /// Stream bytes from the first one not yet consumed on; consumed
    /// bytes are dropped at the start of the next push.
    buf: Vec<u8>,
    pos: usize,
    /// Absolute record ordinal — the v2 notion of a "frame index" for
    /// events and damage, shared with the time pass.
    ordinal: usize,
    blocks: usize,
    /// Decoded since the last drain.
    held: Decoded,
    lanes: Vec<LaneCode>,
    /// Whether the schema's records can outgrow one refill.
    wide: bool,
    /// The per-tag value delta state, reset (not reallocated) at every
    /// block.
    prev_value: Vec<u64>,
    skipped: u64,
    skipped_dirty: bool,
    /// Whether any bytes were hunted over as damage.
    lost_sync: bool,
}

impl V2StreamDecoder {
    /// A decoder over an owned copy of `schema` with an empty buffer.
    #[must_use]
    pub fn new(schema: &WireSchema) -> Self {
        V2StreamDecoder {
            schema: schema.clone(),
            buf: Vec::new(),
            pos: 0,
            ordinal: 0,
            blocks: 0,
            held: Decoded::default(),
            lanes: LaneCode::all(schema),
            wide: wide_records(schema),
            prev_value: vec![0; schema.slots().len() + 1],
            skipped: 0,
            skipped_dirty: false,
            lost_sync: false,
        }
    }

    /// The header at `pos` if it is a plausible, checksum-valid block
    /// start. Requires `BLOCK_HEADER_BYTES` available.
    fn header_at(&self, pos: usize) -> Option<Header> {
        let h = &self.buf[pos..pos + BLOCK_HEADER_BYTES];
        if h[..2] != SYNC_MARKER {
            return None;
        }
        let hash = fnv32(&h[..BLOCK_HEADER_BYTES - 1]);
        if fold8(hash) != h[BLOCK_HEADER_BYTES - 1] {
            return None;
        }
        let block_len = usize::from(u16::from_le_bytes([h[2], h[3]]));
        let records = usize::from(u16::from_le_bytes([h[4], h[5]]));
        if block_len < MIN_BLOCK_BYTES || records == 0 {
            return None;
        }
        Some(Header {
            block_len,
            records,
            base_time: u64::from_le_bytes(h[6..14].try_into().expect("8 bytes")),
            hash,
        })
    }

    /// Flush any hunted-over bytes as one `SyncLost` damage entry. Pure
    /// trailing zero bytes are tolerated silently only at end-of-stream
    /// (`tail` true): they are container padding, not damage.
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

    /// Records a block whose records are lost.
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
                    // Too short to ever be a block: junk or padding.
                    for i in self.pos..self.buf.len() {
                        self.skipped_dirty |= self.buf[i] != 0;
                    }
                    self.skipped += avail as u64;
                    self.pos = self.buf.len();
                }
                break;
            }
            let Some(header) = self.header_at(self.pos) else {
                self.skipped_dirty |= self.buf[self.pos] != 0;
                self.skipped += 1;
                self.pos += 1;
                continue;
            };
            let Header {
                block_len, records, ..
            } = header;
            if avail < block_len {
                if at_end {
                    // A real header, but the body never arrived.
                    self.flush_skip(false);
                    self.blocks += 1;
                    self.corrupt_block(records);
                    self.pos = self.buf.len();
                }
                break;
            }
            let decode = if self.wide {
                decode_block::<true>
            } else {
                decode_block::<false>
            };
            let read = decode(
                &self.schema,
                &self.lanes,
                &mut self.prev_value,
                &self.buf[self.pos..],
                header,
                self.ordinal,
                &mut self.held.events,
            );
            let after = avail - block_len;
            if read == BlockRead::CrcFailed && after < BLOCK_HEADER_BYTES && !at_end {
                // Whether to trust `block_len` depends on what follows.
                break;
            }
            self.flush_skip(false);
            self.blocks += 1;
            if read == BlockRead::CrcFailed
                && after >= BLOCK_HEADER_BYTES
                && self.header_at(self.pos + block_len).is_none()
            {
                // A failed block is skipped by its `block_len` only when
                // a valid header (or the stream's end) follows. One flip
                // can forge a header that passes `hdr_crc` (1 in 256),
                // and its `block_len` must not swallow the blocks after
                // it: consume the header and hunt through the body.
                self.corrupt_block(records);
                self.pos += BLOCK_HEADER_BYTES;
                continue;
            }
            if read == BlockRead::Decoded {
                self.ordinal += records;
            } else {
                self.corrupt_block(records);
            }
            self.pos += block_len;
        }
    }
}

impl RecordDecoder for V2StreamDecoder {
    fn schema(&self) -> &WireSchema {
        &self.schema
    }

    fn push(&mut self, bytes: &[u8]) {
        // Drop what the last push consumed. What follows `pos` arrived
        // with that push (plus under one block header), so each byte is
        // moved about once more, never once per push.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
        self.scan(false);
    }

    fn drain(&mut self, out: &mut Decoded) {
        out.append(&mut self.held);
    }

    /// Flushes the truncated tail block or trailing junk as sync damage.
    /// `frames` counts sync blocks and `idle_frames` is always 0 (v2 has
    /// no idle pattern). The stream is byte-aligned and self-delimiting,
    /// so `bit_len` bounds it only through
    /// [`payload_bytes`](RecordDecoder::payload_bytes).
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

    fn payload_bytes(&self, bit_len: u64) -> u64 {
        bit_len / 8
    }
}

/// The compressed sync-block dialect as a pluggable [`FrameProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileV2 {
    /// Records per sync block — the damage-containment window.
    pub sync_every: u16,
}

impl Default for ProfileV2 {
    fn default() -> Self {
        ProfileV2 {
            sync_every: DEFAULT_SYNC_EVERY,
        }
    }
}

impl FrameProfile for ProfileV2 {
    fn meta(&self) -> PtwMeta {
        PtwMeta::v2(self.sync_every)
    }

    fn encode(
        &self,
        schema: &WireSchema,
        records: &[WireRecord],
        depth: Option<usize>,
    ) -> Result<EncodedStream, WireError> {
        encode_v2(schema, records, self.sync_every, depth)
    }

    fn decoder(&self, schema: &WireSchema) -> Box<dyn RecordDecoder> {
        Box::new(V2StreamDecoder::new(schema))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_flow::{FlowIndex, IndexedMessage, MessageCatalog};
    use pstrace_wire::{decode_with, encode_records, finish_report, ProfileV1};
    use std::sync::Arc;

    const V2: ProfileV2 = ProfileV2 {
        sync_every: DEFAULT_SYNC_EVERY,
    };

    fn setup() -> (Arc<MessageCatalog>, WireSchema) {
        let mut c = MessageCatalog::new();
        c.intern("a", 4);
        c.intern("b", 9);
        let wide = c.intern("wide", 20);
        c.intern_group(wide, "lo", 6);
        let c = Arc::new(c);
        let a = c.get("a").unwrap();
        let b = c.get("b").unwrap();
        let lo = c.get_group("wide.lo").unwrap();
        let schema = WireSchema::new(&c, &[a, b], &[lo], 24).unwrap();
        (c, schema)
    }

    fn records(c: &MessageCatalog, n: u64) -> Vec<WireRecord> {
        (0..n)
            .map(|i| {
                let (name, partial, width) = match i % 3 {
                    0 => ("a", false, 4),
                    1 => ("b", false, 9),
                    _ => ("wide", true, 6),
                };
                WireRecord {
                    time: i * 3,
                    message: IndexedMessage::new(
                        c.get(name).unwrap(),
                        FlowIndex(1 + (i % 2) as u32),
                    ),
                    value: i % (1 << width),
                    partial,
                }
            })
            .collect()
    }

    #[test]
    fn round_trip_is_identity_across_cadences() {
        let (c, schema) = setup();
        let recs = records(&c, 200);
        for sync_every in [1u16, 3, 64, 4096] {
            let stream = encode_v2(&schema, &recs, sync_every, None).unwrap();
            let report = decode_with(&V2, &schema, &stream.bytes, Some(stream.bit_len));
            assert!(
                report.is_clean(),
                "cadence {sync_every}: {:?}",
                report.damaged
            );
            assert_eq!(report.records, recs, "cadence {sync_every}");
            assert_eq!(report.frames, stream.frames);
            assert_eq!(report.idle_frames, 0);
        }
    }

    #[test]
    fn depth_keeps_the_newest_records_like_the_v1_ring() {
        let (c, schema) = setup();
        let recs = records(&c, 50);
        let stream = encode_v2(&schema, &recs, 8, Some(17)).unwrap();
        let report = decode_with(&V2, &schema, &stream.bytes, Some(stream.bit_len));
        assert_eq!(report.records, recs[50 - 17..].to_vec());
        // Identical retained set to v1's circular ring.
        let v1 = encode_records(&schema, &recs, Some(17)).unwrap();
        let v1_report = decode_with(&ProfileV1, &schema, &v1.bytes, Some(v1.bit_len));
        assert_eq!(report.records, v1_report.records);
    }

    #[test]
    fn non_monotone_times_get_v1_identical_damage_semantics() {
        let (c, schema) = setup();
        // A forward spike and a genuine regression, far apart.
        let mut recs = records(&c, 40);
        recs[10].time = 1 << 30;
        recs[25].time = 2;
        let v1 = encode_records(&schema, &recs, None).unwrap();
        let v1_report = decode_with(&ProfileV1, &schema, &v1.bytes, Some(v1.bit_len));
        for sync_every in [4u16, 64] {
            let stream = encode_v2(&schema, &recs, sync_every, None).unwrap();
            let report = decode_with(&V2, &schema, &stream.bytes, Some(stream.bit_len));
            // Same surviving records, same damage reasons on the same
            // record ordinals (v1 frame index == record ordinal here).
            assert_eq!(report.records, v1_report.records, "cadence {sync_every}");
            assert_eq!(report.damaged, v1_report.damaged, "cadence {sync_every}");
        }
    }

    #[test]
    fn v2_is_materially_smaller_than_v1() {
        let (c, schema) = setup();
        let recs = records(&c, 2000);
        let v1 = encode_records(&schema, &recs, None).unwrap();
        let v2 = encode_v2(&schema, &recs, DEFAULT_SYNC_EVERY, None).unwrap();
        let ratio = v2.bytes.len() as f64 / v1.bytes.len() as f64;
        assert!(
            ratio <= 0.8,
            "v2 {}B vs v1 {}B (ratio {ratio:.3}) — the 20% floor is the ISSUE's gate",
            v2.bytes.len(),
            v1.bytes.len()
        );
    }

    #[test]
    fn corrupt_block_is_contained_to_its_sync_window() {
        let (c, schema) = setup();
        let recs = records(&c, 160);
        let sync_every = 16u16;
        let stream = encode_v2(&schema, &recs, sync_every, None).unwrap();
        // Flip a payload bit in the middle of the stream: exactly one
        // block dies, every other record survives.
        let mut bytes = stream.bytes.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let report = decode_with(&V2, &schema, &bytes, Some(bytes.len() as u64 * 8));
        assert!(!report.is_clean() || report.records.len() < recs.len());
        let lost = recs.len() - report.records.len();
        assert!(
            lost <= usize::from(sync_every),
            "lost {lost} > window {sync_every}"
        );
        // Depending on where the flip landed this is a failed block CRC
        // (SyncCorrupt) or a trashed header hunted over (SyncLost); both
        // contain the damage to one block.
        assert!(report.damaged.iter().any(|d| matches!(
            d.reason,
            DamageReason::SyncCorrupt { .. } | DamageReason::SyncLost { .. }
        )));
        // Survivors are exactly the originals minus one contiguous block.
        for r in &report.records {
            assert!(recs.contains(r));
        }
    }

    #[test]
    fn forged_block_len_costs_only_its_own_block() {
        let (c, schema) = setup();
        let recs = records(&c, 64);
        let stream = encode_v2(&schema, &recs, 8, None).unwrap();
        // Forge block 0's header the way an unlucky flip does: a larger
        // `block_len` whose header still passes `hdr_crc`. Trusting it
        // would swallow the next blocks too.
        let mut bytes = stream.bytes.clone();
        let len = u16::from_le_bytes([bytes[2], bytes[3]]);
        bytes[2..4].copy_from_slice(&(len * 3 - 7).to_le_bytes());
        bytes[BLOCK_HEADER_BYTES - 1] = fold8(fnv32(&bytes[..BLOCK_HEADER_BYTES - 1]));
        let report = decode_with(&V2, &schema, &bytes, Some(bytes.len() as u64 * 8));
        assert_eq!(report.records, recs[8..].to_vec());
        assert!(matches!(
            report.damaged[0].reason,
            DamageReason::SyncCorrupt { records: 8 }
        ));
        // Pushed a byte at a time, the decoder waits for the header after
        // the failed block before deciding, and agrees.
        let mut dec = V2StreamDecoder::new(&schema);
        for b in bytes.chunks(1) {
            dec.push(b);
        }
        assert_eq!(finish_report(&mut dec, None), report);
    }

    #[test]
    fn truncated_stream_reports_the_lost_tail_block() {
        let (c, schema) = setup();
        let recs = records(&c, 64);
        let stream = encode_v2(&schema, &recs, 16, None).unwrap();
        let cut = stream.bytes.len() - 7; // mid final block
        let report = decode_with(&V2, &schema, &stream.bytes[..cut], None);
        assert_eq!(report.records, recs[..48].to_vec());
        assert_eq!(report.damaged.len(), 1);
        assert!(matches!(
            report.damaged[0].reason,
            DamageReason::SyncCorrupt { records: 16 }
        ));
    }

    #[test]
    fn garbage_prefix_is_hunted_over_not_fatal() {
        let (c, schema) = setup();
        let recs = records(&c, 32);
        let stream = encode_v2(&schema, &recs, 16, None).unwrap();
        let mut bytes = vec![0xA5u8; 11];
        bytes.extend_from_slice(&stream.bytes);
        let report = decode_with(&V2, &schema, &bytes, None);
        assert_eq!(report.records, recs);
        assert_eq!(report.damaged.len(), 1);
        assert!(matches!(
            report.damaged[0].reason,
            DamageReason::SyncLost { bytes: 11 }
        ));
        assert!(!report.tail_clean);
    }

    #[test]
    fn incremental_push_matches_one_shot() {
        let (c, schema) = setup();
        let recs = records(&c, 150);
        let stream = encode_v2(&schema, &recs, 32, None).unwrap();
        let one_shot = decode_with(&V2, &schema, &stream.bytes, Some(stream.bit_len));
        for chunk_size in [1usize, 3, 7, 19, 64] {
            let mut dec = V2StreamDecoder::new(&schema);
            for chunk in stream.bytes.chunks(chunk_size) {
                dec.push(chunk);
            }
            assert_eq!(
                finish_report(&mut dec, Some(stream.bit_len)),
                one_shot,
                "chunk {chunk_size}"
            );
        }
    }

    #[test]
    fn retained_bytes_stay_within_one_block_plus_one_chunk() {
        let (c, schema) = setup();
        let recs = records(&c, 300_000);
        let stream = encode_v2(&schema, &recs, 16, None).unwrap();
        assert!(
            stream.bytes.len() >= 1 << 20,
            "push at least 1 MiB: {}",
            stream.bytes.len()
        );
        let mut max_block = 0;
        let mut at = 0;
        while at < stream.bytes.len() {
            let len = usize::from(u16::from_le_bytes([
                stream.bytes[at + 2],
                stream.bytes[at + 3],
            ]));
            max_block = max_block.max(len);
            at += len;
        }
        let chunk = 256;
        let mut dec = V2StreamDecoder::new(&schema);
        let mut out = Decoded::default();
        let mut records = 0;
        for piece in stream.bytes.chunks(chunk) {
            dec.push(piece);
            assert!(
                dec.buf.len() <= max_block + chunk,
                "{} > {max_block} + {chunk}",
                dec.buf.len()
            );
            dec.drain(&mut out);
            records += out.events.len();
            out.events.clear();
        }
        let end = dec.finish(Some(stream.bit_len), &mut out);
        assert_eq!(records + out.events.len(), recs.len());
        assert_eq!(end.frames, stream.frames);
        assert!(end.tail_clean);
    }

    #[test]
    fn empty_stream_is_clean() {
        let (_, schema) = setup();
        let stream = encode_v2(&schema, &[], 64, None).unwrap();
        assert!(stream.bytes.is_empty());
        let report = decode_with(&V2, &schema, &stream.bytes, None);
        assert!(report.is_clean());
        assert!(report.records.is_empty());
        assert_eq!(report.frames, 0);
    }

    #[test]
    fn encode_rejects_the_same_inputs_as_v1() {
        let (c, schema) = setup();
        let bad = WireRecord {
            time: 0,
            message: IndexedMessage::new(c.get("a").unwrap(), FlowIndex(1)),
            value: 0x10, // 4-bit slot
            partial: false,
        };
        assert_eq!(
            encode_v2(&schema, &[bad], 64, None).unwrap_err(),
            encode_records(&schema, &[bad], None).unwrap_err()
        );
    }

    #[test]
    #[should_panic(expected = "at least 1 entry")]
    fn zero_depth_is_rejected() {
        let (_, schema) = setup();
        let _ = encode_v2(&schema, &[], 64, Some(0));
    }
}
