//! Decoding: raw payload bytes back into captured records.
//!
//! Every dialect decodes through one shape, the [`RecordDecoder`]: bytes
//! are pushed as they arrive, each push decodes every frame (or block)
//! it completes, and [`finish`](RecordDecoder::finish) flushes the tail
//! against the declared stream length. The raw `(ordinal, record)`
//! events then pass through the one stream-wide [`TimePass`], whose
//! [`run`](TimePass::run) judges a whole drained batch in place. A batch
//! decode is "push every byte, then finish" ([`finish_report`]); a live
//! session runs the same decoder and the same `run` one chunk at a time,
//! so the two agree by construction.
//!
//! The v1 decoder here walks fixed-width frames, validating every field
//! against the schema: the tag must name a real slot (or the idle
//! pattern 0), and every non-firing lane and all padding must be zero. A
//! frame failing any check is flagged as *damaged* with a reason and
//! decoding **resynchronizes at the next frame boundary** — corruption
//! costs the damaged region, never the rest of the stream, and never a
//! panic.

use pstrace_flow::{FlowIndex, IndexedMessage};

use crate::bits::BitReader;
use crate::frame::WireRecord;
use crate::schema::WireSchema;

use std::fmt;

/// Why a frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DamageReason {
    /// The tag value names no slot.
    BadTag {
        /// The offending tag.
        tag: u64,
    },
    /// An idle frame (tag 0) carried nonzero index/time/body bits.
    DirtyIdle,
    /// A lane other than the firing slot's carried nonzero bits.
    LaneSpill {
        /// Index of the polluted slot.
        slot: usize,
    },
    /// The body's padding bits past the last lane were nonzero.
    PaddingSpill,
    /// The record's time ran backwards relative to the stream so far.
    TimeRegression {
        /// The regressing time.
        time: u64,
        /// The previous record's time.
        prev: u64,
    },
    /// The record's time ran ahead of both its neighbors: an isolated
    /// forward spike (e.g. a flipped high bit in the time field).
    TimeSpike {
        /// The spiking time.
        time: u64,
        /// The following record's time.
        next: u64,
    },
    /// A v2 sync block failed its checksum; every record it carried is
    /// lost, but damage stops at the block boundary.
    SyncCorrupt {
        /// Records the block claimed to carry (0 when even the header
        /// was unreadable).
        records: u32,
    },
    /// Bytes between sync blocks matched no block marker — the decoder
    /// skipped them hunting for the next sync point.
    SyncLost {
        /// Bytes skipped before resynchronizing (or hitting the end).
        bytes: u64,
    },
}

impl DamageReason {
    /// A stable kebab-case label for this damage kind, independent of the
    /// variant's payload — the `reason` label on the observability layer's
    /// damage counters.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DamageReason::BadTag { .. } => "bad-tag",
            DamageReason::DirtyIdle => "dirty-idle",
            DamageReason::LaneSpill { .. } => "lane-spill",
            DamageReason::PaddingSpill => "padding-spill",
            DamageReason::TimeRegression { .. } => "time-regression",
            DamageReason::TimeSpike { .. } => "time-spike",
            DamageReason::SyncCorrupt { .. } => "sync-corrupt",
            DamageReason::SyncLost { .. } => "sync-lost",
        }
    }
}

impl fmt::Display for DamageReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DamageReason::BadTag { tag } => write!(f, "tag {tag} names no slot"),
            DamageReason::DirtyIdle => write!(f, "idle frame carries nonzero bits"),
            DamageReason::LaneSpill { slot } => {
                write!(f, "nonzero bits in non-firing lane {slot}")
            }
            DamageReason::PaddingSpill => write!(f, "nonzero bits in body padding"),
            DamageReason::TimeRegression { time, prev } => {
                write!(f, "time {time} runs behind previous record at {prev}")
            }
            DamageReason::TimeSpike { time, next } => {
                write!(f, "time {time} spikes ahead of following record at {next}")
            }
            DamageReason::SyncCorrupt { records } => {
                write!(f, "sync block failed its checksum ({records} records lost)")
            }
            DamageReason::SyncLost { bytes } => {
                write!(f, "skipped {bytes} bytes hunting for a sync marker")
            }
        }
    }
}

/// One damaged frame: where and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DamagedFrame {
    /// 0-based frame index in the stream.
    pub frame: usize,
    /// What failed validation.
    pub reason: DamageReason,
}

/// Everything a decode produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeReport {
    /// Successfully reconstructed records, in stream order.
    pub records: Vec<WireRecord>,
    /// Damaged frames, in stream order.
    pub damaged: Vec<DamagedFrame>,
    /// Complete frames examined (events + idles + damaged).
    pub frames: usize,
    /// Idle (all-zero tag) frames skipped.
    pub idle_frames: usize,
    /// Bits past the last complete frame (byte padding or a truncated
    /// frame).
    pub trailing_bits: u64,
    /// Whether every trailing bit was zero.
    pub tail_clean: bool,
    /// Measured per-frame body occupancy: total lane bits actually laid
    /// out on the wire.
    pub occupied_bits: u32,
    /// The frame body width `W`.
    pub body_width: u32,
}

impl DecodeReport {
    /// Measured buffer utilization: lane bits over body bits per frame —
    /// the decoder-side counterpart of the analytic model.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        f64::from(self.occupied_bits) / f64::from(self.body_width)
    }

    /// Whether the stream decoded without damage or dirty trailing bits.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty() && self.tail_clean
    }
}

/// Raw decoder output, **before** the stream-wide [`TimePass`]: the
/// buffer a caller owns and hands to [`RecordDecoder::drain`] again and
/// again, so steady-state decoding allocates nothing per chunk.
#[derive(Debug, Default)]
pub struct Decoded {
    /// `(ordinal, record)` pairs in stream order. The ordinal is the
    /// v1 frame index or the v2 record ordinal — the index damage uses.
    pub events: Vec<(usize, WireRecord)>,
    /// Frames (or blocks) that failed validation, in stream order. Time
    /// regressions and spikes are not here: they are a property of the
    /// whole stream, which the [`TimePass`] judges.
    pub damaged: Vec<DamagedFrame>,
}

impl Decoded {
    /// Moves everything in `other` onto the end of `self`, leaving
    /// `other` empty. Into an empty buffer the two swap storage instead
    /// of copying, so a drain into a cleared buffer costs no copy.
    pub fn append(&mut self, other: &mut Decoded) {
        fn take<T>(to: &mut Vec<T>, from: &mut Vec<T>) {
            if to.is_empty() {
                std::mem::swap(to, from);
            } else {
                to.append(from);
            }
        }
        take(&mut self.events, &mut other.events);
        take(&mut self.damaged, &mut other.damaged);
    }
}

/// The stream-level fields [`RecordDecoder::finish`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEnd {
    /// Complete frames (v2: sync blocks) inside the declared stream.
    pub frames: usize,
    /// Idle (all-zero tag) frames; always 0 for block dialects.
    pub idle_frames: usize,
    /// Bits past the last complete frame (byte padding or a truncated
    /// frame).
    pub trailing_bits: u64,
    /// Whether every trailing bit was zero (v2: no sync was lost).
    pub tail_clean: bool,
    /// Ordinals at or past this bound lie beyond the declared end: a
    /// consumer that drained them early drops them now. Block dialects
    /// never decode past the bytes a declared length covers, so they
    /// report `usize::MAX`.
    pub end: usize,
}

/// One incremental payload decoder: the single bytes-to-records path of
/// a dialect, shared by batch decode ([`finish_report`]) and live
/// sessions. Obtain one from [`FrameProfile::decoder`](crate::FrameProfile::decoder).
///
/// A decoder keeps only the bytes it has not consumed yet, so its memory
/// stays bounded by one frame (or block) plus one pushed chunk however
/// long the stream runs.
pub trait RecordDecoder: fmt::Debug + Send {
    /// The schema this decoder reads.
    fn schema(&self) -> &WireSchema;

    /// Feeds more stream bytes, decoding every frame or block they
    /// complete.
    fn push(&mut self, bytes: &[u8]);

    /// Moves the events and damage decoded since the last drain onto
    /// the end of `out`.
    fn drain(&mut self, out: &mut Decoded);

    /// Ends the stream: flushes the tail, drops held items past the
    /// declared `bit_len` (default: every byte pushed), drains the rest
    /// into `out` and reports the stream-level fields. A finished
    /// decoder takes no more bytes.
    fn finish(&mut self, bit_len: Option<u64>, out: &mut Decoded) -> StreamEnd;

    /// Complete frames (v2: sync blocks) seen so far.
    fn frames(&self) -> usize;

    /// Idle frames seen so far.
    fn idle_frames(&self) -> usize {
        0
    }

    /// How many payload bytes a declared length of `bit_len` bits
    /// covers: every byte holding one of its bits for bit-granular
    /// dialects (the default), whole bytes only for byte-aligned ones.
    fn payload_bytes(&self, bit_len: u64) -> u64 {
        bit_len.div_ceil(8)
    }
}

/// What one [`TimePass::accept`] call lets out of the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Released {
    /// A record its successor confirmed: it is final.
    Record(WireRecord),
    /// A record judged a time regression or an isolated spike.
    Damaged(DamagedFrame),
}

/// The stream-wide time pass: records must not run backwards in time.
///
/// At most one record — the newest — is ever held back, so the pass runs
/// online as well as over a finished stream. A regressing record
/// normally damages *itself* ([`DamageReason::TimeRegression`]); but
/// when it is still consistent with the last committed record, the held
/// record was an isolated forward spike (one flipped high time bit) and
/// that one is damaged instead ([`DamageReason::TimeSpike`]), so
/// corruption in a single frame never cascades down the tail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimePass {
    /// The newest accepted record, not yet confirmed by a successor.
    pending: Option<(usize, WireRecord)>,
    /// Time of the newest committed record.
    committed: u64,
}

impl TimePass {
    /// Judges the next record in stream order. Returns the record this
    /// one confirms, or the damage it reveals; at most one of the two.
    /// [`run`](TimePass::run) is the same rule over a batch; this is its
    /// per-record oracle.
    pub fn accept(&mut self, ordinal: usize, rec: WireRecord) -> Option<Released> {
        let prev = self.pending.map_or(self.committed, |(_, p)| p.time);
        if rec.time >= prev {
            let confirmed = self.pending.replace((ordinal, rec)).map(|(_, p)| p);
            if let Some(p) = &confirmed {
                self.committed = p.time;
            }
            return confirmed.map(Released::Record);
        }
        match self.pending {
            Some((spike_ordinal, spike)) if rec.time >= self.committed => {
                self.pending = Some((ordinal, rec));
                Some(Released::Damaged(DamagedFrame {
                    frame: spike_ordinal,
                    reason: DamageReason::TimeSpike {
                        time: spike.time,
                        next: rec.time,
                    },
                }))
            }
            _ => Some(Released::Damaged(DamagedFrame {
                frame: ordinal,
                reason: DamageReason::TimeRegression {
                    time: rec.time,
                    prev,
                },
            })),
        }
    }

    /// [`accept`](TimePass::accept) over a whole drained batch, in
    /// place: `events` keeps only the records this batch confirms, in
    /// stream order and under their own ordinals, and the damage it
    /// reveals is appended to `damaged`. The newest record stays held
    /// across batches, so a stream run through in any split gets the
    /// verdicts per-record `accept` gives it.
    ///
    /// Records that do not run backwards each confirm the one held
    /// before them, so a run of them moves up one slot at once, behind
    /// the record held before it; only a record that runs backwards
    /// goes through `accept`.
    pub fn run(&mut self, events: &mut Vec<(usize, WireRecord)>, damaged: &mut Vec<DamagedFrame>) {
        let mut kept = 0;
        let mut i = 0;
        while i < events.len() {
            let start = i;
            let mut floor = self.pending.map_or(self.committed, |(_, p)| p.time);
            while let Some(&(_, rec)) = events.get(i).filter(|(_, r)| r.time >= floor) {
                floor = rec.time;
                i += 1;
            }
            if i > start {
                let held = self.pending.replace(events[i - 1]);
                let lead = usize::from(held.is_some());
                // `kept <= start`, so nothing unread is overwritten.
                events.copy_within(start..i - 1, kept + lead);
                if let Some(held) = held {
                    events[kept] = held;
                }
                let confirmed = lead + (i - 1 - start);
                if confirmed > 0 {
                    kept += confirmed;
                    self.committed = events[kept - 1].1.time;
                }
            }
            if let Some(&(ordinal, rec)) = events.get(i) {
                if let Some(Released::Damaged(d)) = self.accept(ordinal, rec) {
                    damaged.push(d);
                }
                i += 1;
            }
        }
        events.truncate(kept);
    }

    /// Whether a record is held back awaiting its successor.
    #[must_use]
    pub fn is_holding(&self) -> bool {
        self.pending.is_some()
    }

    /// Ends the stream: releases the held record, unless its ordinal is
    /// at or past `end` (it lies beyond the declared stream).
    pub fn flush(&mut self, end: usize) -> Option<WireRecord> {
        let (ordinal, rec) = self.pending.take()?;
        (ordinal < end).then(|| {
            self.committed = rec.time;
            rec
        })
    }
}

/// Finishes `decoder` and assembles the batch report: flush the tail,
/// [`run`](TimePass::run) the [`TimePass`] over every event, sort the
/// damage by frame.
#[must_use]
pub fn finish_report(decoder: &mut dyn RecordDecoder, bit_len: Option<u64>) -> DecodeReport {
    let mut out = Decoded::default();
    let end = decoder.finish(bit_len, &mut out);
    let Decoded {
        mut events,
        mut damaged,
    } = out;
    let mut pass = TimePass::default();
    pass.run(&mut events, &mut damaged);
    let mut records: Vec<WireRecord> = events.into_iter().map(|(_, rec)| rec).collect();
    records.extend(pass.flush(end.end));
    damaged.sort_by_key(|d| d.frame);
    let schema = decoder.schema();
    DecodeReport {
        records,
        damaged,
        frames: end.frames,
        idle_frames: end.idle_frames,
        trailing_bits: end.trailing_bits,
        tail_clean: end.tail_clean,
        occupied_bits: schema.occupied_bits(),
        body_width: schema.body_width(),
    }
}

/// Outcome of examining one frame.
enum RawFrame {
    Idle,
    Event(WireRecord),
    Damaged(DamageReason),
}

/// Reads and validates one frame; the reader must sit on a frame boundary
/// with at least `frame_bits` remaining, the one check (the caller's
/// `ready` count), so every field is a plain take. `lanes` is scratch
/// space.
fn read_frame(schema: &WireSchema, r: &mut BitReader<'_>, lanes: &mut Vec<u64>) -> RawFrame {
    let tag = r.take_wide(schema.tag_width());
    let index = r.take_wide(schema.index_width());
    let time = r.take_wide(schema.time_width());

    // Read every lane (validation needs them all) plus the padding.
    lanes.clear();
    for slot in schema.slots() {
        lanes.push(r.take_wide(slot.width));
    }
    let mut padding_dirty = false;
    let mut left = schema.body_width() - schema.occupied_bits();
    while left > 0 {
        let step = left.min(64);
        padding_dirty |= r.take_wide(step) != 0;
        left -= step;
    }
    debug_assert!(!r.overrun(), "frame read past the checked boundary");

    if tag == 0 {
        let body_dirty = lanes.iter().any(|&v| v != 0) || padding_dirty;
        if index != 0 || time != 0 || body_dirty {
            return RawFrame::Damaged(DamageReason::DirtyIdle);
        }
        return RawFrame::Idle;
    }
    let Some(slot) = schema.slot_by_tag(tag) else {
        return RawFrame::Damaged(DamageReason::BadTag { tag });
    };
    let firing = tag as usize - 1;
    if let Some(spill) = (0..lanes.len()).find(|&i| i != firing && lanes[i] != 0) {
        return RawFrame::Damaged(DamageReason::LaneSpill { slot: spill });
    }
    if padding_dirty {
        return RawFrame::Damaged(DamageReason::PaddingSpill);
    }
    RawFrame::Event(WireRecord {
        time,
        message: IndexedMessage::new(slot.message, FlowIndex(index as u32)),
        value: lanes[firing],
        partial: slot.is_partial(),
    })
}

/// Whether every bit in `bytes[bit_start .. bit_end)` is zero.
fn bits_are_zero(bytes: &[u8], bit_start: u64, bit_end: u64) -> bool {
    let mut r = BitReader::new(bytes, bit_end);
    r.seek(bit_start);
    let mut left = bit_end - bit_start;
    while left > 0 {
        let step = left.min(64) as u32;
        if r.read(step).expect("range checked") != 0 {
            return false;
        }
        left -= u64::from(step);
    }
    true
}

/// The v1 [`RecordDecoder`]: fixed-width frames, decoded as soon as
/// their last bit lands. Frames are bit-aligned, so the buffer starts at
/// a whole byte and `base` records that byte's stream bit offset.
#[derive(Debug)]
pub struct StreamDecoder {
    schema: WireSchema,
    /// Stream bytes from bit `base` on; bytes wholly before the next
    /// undecoded frame are dropped at the start of the next push.
    buf: Vec<u8>,
    base: u64,
    /// Frames fully decoded so far.
    frames: usize,
    idle: usize,
    /// Decoded since the last drain.
    held: Decoded,
    /// `frames` as of the last drain: every outcome of a later frame is
    /// still in `held`.
    drained_frames: usize,
    /// Scratch lane values of the frame being read.
    lanes: Vec<u64>,
}

impl StreamDecoder {
    /// A decoder over an owned copy of `schema` with an empty buffer.
    #[must_use]
    pub fn new(schema: &WireSchema) -> Self {
        StreamDecoder {
            schema: schema.clone(),
            buf: Vec::new(),
            base: 0,
            frames: 0,
            idle: 0,
            held: Decoded::default(),
            drained_frames: 0,
            lanes: Vec::with_capacity(schema.slots().len()),
        }
    }

    fn frame_bits(&self) -> u64 {
        u64::from(self.schema.frame_bits())
    }
}

impl RecordDecoder for StreamDecoder {
    fn schema(&self) -> &WireSchema {
        &self.schema
    }

    fn push(&mut self, bytes: &[u8]) {
        let frame_bits = self.frame_bits();
        let next = self.frames as u64 * frame_bits;
        let dead = ((next - self.base) / 8) as usize;
        if dead > 0 {
            self.buf.drain(..dead);
            self.base += dead as u64 * 8;
        }
        self.buf.extend_from_slice(bytes);
        let ready = ((self.base + self.buf.len() as u64 * 8) / frame_bits) as usize;
        let mut r = BitReader::new(&self.buf, self.buf.len() as u64 * 8);
        r.seek(next - self.base);
        for frame in self.frames..ready {
            match read_frame(&self.schema, &mut r, &mut self.lanes) {
                RawFrame::Idle => self.idle += 1,
                RawFrame::Event(rec) => self.held.events.push((frame, rec)),
                RawFrame::Damaged(reason) => self.held.damaged.push(DamagedFrame { frame, reason }),
            }
        }
        self.frames = self.frames.max(ready);
    }

    fn drain(&mut self, out: &mut Decoded) {
        out.append(&mut self.held);
        self.drained_frames = self.frames;
    }

    fn finish(&mut self, bit_len: Option<u64>, out: &mut Decoded) -> StreamEnd {
        let frame_bits = self.frame_bits();
        let avail = self.base + self.buf.len() as u64 * 8;
        let bit_len = bit_len.unwrap_or(avail).min(avail);
        let frames = ((bit_len / frame_bits) as usize).min(self.frames);
        if frames < self.frames {
            // A declared length undercuts the pushed bytes: drop what was
            // decoded past it, so no such frame reaches the time pass.
            let held = self.held.events.len() + self.held.damaged.len();
            self.held.events.retain(|(f, _)| *f < frames);
            self.held.damaged.retain(|d| d.frame < frames);
            if frames >= self.drained_frames {
                // Every dropped frame was held, so those not dropped as
                // events or damage were idle.
                let kept = self.held.events.len() + self.held.damaged.len();
                self.idle -= (self.frames - frames) - (held - kept);
            }
            self.frames = frames;
        }
        let trailing_bits = bit_len - frames as u64 * frame_bits;
        // Bits already dropped with consumed bytes are not re-examined;
        // only a declared length far below the pushed bytes reaches them.
        let from = (frames as u64 * frame_bits).max(self.base);
        let tail_clean =
            from >= bit_len || bits_are_zero(&self.buf, from - self.base, bit_len - self.base);
        self.drain(out);
        StreamEnd {
            frames,
            idle_frames: self.idle,
            trailing_bits,
            tail_clean,
            end: frames,
        }
    }

    fn frames(&self) -> usize {
        self.frames
    }

    fn idle_frames(&self) -> usize {
        self.idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_records;
    use crate::{decode_with, ProfileV1};
    use pstrace_flow::MessageCatalog;
    use std::sync::Arc;

    #[test]
    fn damage_labels_are_stable_and_distinct() {
        let reasons = [
            DamageReason::BadTag { tag: 7 },
            DamageReason::DirtyIdle,
            DamageReason::LaneSpill { slot: 2 },
            DamageReason::PaddingSpill,
            DamageReason::TimeRegression { time: 1, prev: 9 },
            DamageReason::TimeSpike { time: 9, next: 1 },
            DamageReason::SyncCorrupt { records: 5 },
            DamageReason::SyncLost { bytes: 17 },
        ];
        let labels: Vec<&str> = reasons.iter().map(DamageReason::label).collect();
        assert_eq!(
            labels,
            [
                "bad-tag",
                "dirty-idle",
                "lane-spill",
                "padding-spill",
                "time-regression",
                "time-spike",
                "sync-corrupt",
                "sync-lost"
            ]
        );
        // Labels are payload-independent: same variant, same label.
        assert_eq!(DamageReason::BadTag { tag: 99 }.label(), "bad-tag");
    }

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
                let (name, partial) = match i % 3 {
                    0 => ("a", false),
                    1 => ("b", false),
                    _ => ("wide", true),
                };
                let width = match i % 3 {
                    0 => 4,
                    1 => 9,
                    _ => 6,
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
    fn clean_stream_round_trips() {
        let (c, schema) = setup();
        let recs = records(&c, 30);
        let stream = encode_records(&schema, &recs, None).unwrap();
        let report = decode_with(&ProfileV1, &schema, &stream.bytes, Some(stream.bit_len));
        assert!(report.is_clean(), "{:?}", report.damaged);
        assert_eq!(report.records, recs);
        assert_eq!(report.frames, 30);
        assert_eq!(report.idle_frames, 0);
        assert_eq!(report.occupied_bits, 4 + 9 + 6);
        assert!((report.utilization() - 19.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn corrupt_tag_is_flagged_and_resynced() {
        let (c, schema) = setup();
        let recs = records(&c, 9);
        let stream = encode_records(&schema, &recs, None).unwrap();
        let mut bytes = stream.bytes.clone();
        // Stomp the tag of frame 4 (tag field sits at the frame start).
        let frame_bits = u64::from(schema.frame_bits());
        let bit = 4 * frame_bits;
        bytes[(bit / 8) as usize] ^= 0b11 << (bit % 8); // tag_width = 2, slots = 3 → tag 0..=3 all valid... flip both bits
        let report = decode_with(&ProfileV1, &schema, &bytes, Some(stream.bit_len));
        // Whatever the flip produced (different slot → lane spill, idle →
        // dirty idle, or out-of-range tag), frame 4 must be damaged and
        // every other record must survive.
        assert_eq!(report.damaged.len(), 1);
        assert_eq!(report.damaged[0].frame, 4);
        assert_eq!(report.records.len(), 8);
        let expected: Vec<WireRecord> = recs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 4)
            .map(|(_, r)| *r)
            .collect();
        assert_eq!(report.records, expected);
        assert!(!report.is_clean());
    }

    #[test]
    fn time_regression_is_reclassified_in_order() {
        let (c, schema) = setup();
        let mut recs = records(&c, 6);
        recs[3].time = 1; // behind record 2's time (6)
        let stream = encode_records(&schema, &recs, None).unwrap();
        let report = decode_with(&ProfileV1, &schema, &stream.bytes, Some(stream.bit_len));
        assert_eq!(report.records.len(), 5);
        assert_eq!(report.damaged.len(), 1);
        assert!(matches!(
            report.damaged[0].reason,
            DamageReason::TimeRegression { time: 1, prev: 6 }
        ));
        assert_eq!(report.damaged[0].frame, 3);
    }

    #[test]
    fn time_spike_is_blamed_not_the_tail() {
        let (c, schema) = setup();
        let mut recs = records(&c, 8);
        recs[3].time = 1 << 30; // isolated forward spike, e.g. a flipped bit
        let stream = encode_records(&schema, &recs, None).unwrap();
        let report = decode_with(&ProfileV1, &schema, &stream.bytes, Some(stream.bit_len));
        assert_eq!(report.damaged.len(), 1, "{:?}", report.damaged);
        assert_eq!(report.damaged[0].frame, 3);
        assert!(matches!(
            report.damaged[0].reason,
            DamageReason::TimeSpike { time, next } if time == 1 << 30 && next == 12
        ));
        assert_eq!(report.records.len(), 7, "the tail must survive the spike");
    }

    #[test]
    fn all_zero_frames_are_idle() {
        let (_, schema) = setup();
        let frame_bytes = (schema.frame_bits() as usize * 3).div_ceil(8);
        let bytes = vec![0u8; frame_bytes];
        let bit_len = u64::from(schema.frame_bits()) * 3;
        let report = decode_with(&ProfileV1, &schema, &bytes, Some(bit_len));
        assert_eq!(report.idle_frames, 3);
        assert!(report.records.is_empty());
        assert!(report.is_clean());
    }

    #[test]
    fn incremental_push_matches_one_shot() {
        let (c, schema) = setup();
        let recs = records(&c, 40);
        let stream = encode_records(&schema, &recs, None).unwrap();
        let one_shot = decode_with(&ProfileV1, &schema, &stream.bytes, Some(stream.bit_len));
        for chunk_size in [1usize, 3, 7, 64] {
            let mut dec = StreamDecoder::new(&schema);
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
    fn frames_past_a_short_declared_length_never_reach_the_time_pass() {
        let (c, schema) = setup();
        let mut recs = records(&c, 6);
        // Frame 5 regresses below frame 4 but not below frame 3: were it
        // released, frame 4 would be blamed as a time spike.
        recs[5].time = recs[3].time;
        let stream = encode_records(&schema, &recs, None).unwrap();
        let declared = 5 * u64::from(schema.frame_bits());
        let mut dec = StreamDecoder::new(&schema);
        dec.push(&stream.bytes);
        assert_eq!(dec.frames(), 6);
        let report = finish_report(&mut dec, Some(declared));
        assert!(report.damaged.is_empty(), "{:?}", report.damaged);
        assert_eq!(report.records, recs[..5].to_vec());
        assert_eq!(report.frames, 5);
        assert_eq!(report.trailing_bits, 0);
        assert_eq!(
            report,
            decode_with(&ProfileV1, &schema, &stream.bytes, Some(declared))
        );
    }

    #[test]
    fn idle_frames_past_a_short_declared_length_are_not_counted() {
        let (c, schema) = setup();
        let frame_bits = u64::from(schema.frame_bits());
        let one = encode_records(&schema, &records(&c, 1), None).unwrap();
        // One event frame, then two idle (all-zero) frames.
        let mut bytes = one.bytes.clone();
        bytes.resize((3 * frame_bits).div_ceil(8) as usize, 0);
        let mut dec = StreamDecoder::new(&schema);
        dec.push(&bytes);
        assert_eq!(dec.idle_frames(), 2);
        let report = finish_report(&mut dec, Some(2 * frame_bits));
        assert_eq!((report.frames, report.idle_frames), (2, 1));
        assert_eq!(report.records.len(), 1);
    }

    #[test]
    fn time_pass_holds_one_record_and_blames_spikes_not_tails() {
        let (c, _) = setup();
        let mut recs = records(&c, 4);
        recs[1].time = 1 << 30;
        let mut pass = TimePass::default();
        assert_eq!(pass.accept(0, recs[0]), None);
        assert!(pass.is_holding());
        assert_eq!(pass.accept(1, recs[1]), Some(Released::Record(recs[0])));
        // Record 2 regresses below the spike but not below record 0.
        assert!(matches!(
            pass.accept(2, recs[2]),
            Some(Released::Damaged(DamagedFrame {
                frame: 1,
                reason: DamageReason::TimeSpike { .. }
            }))
        ));
        assert_eq!(pass.accept(3, recs[3]), Some(Released::Record(recs[2])));
        // The held record is dropped when it lies past the declared end.
        let mut copy = pass;
        assert_eq!(copy.flush(3), None);
        assert_eq!(pass.flush(4), Some(recs[3]));
        assert!(!pass.is_holding());
    }

    #[test]
    fn retained_bytes_stay_within_one_frame_plus_one_chunk() {
        let (c, schema) = setup();
        let recs = records(&c, 150_000);
        let stream = encode_records(&schema, &recs, None).unwrap();
        assert!(stream.bytes.len() >= 1 << 20, "push at least 1 MiB");
        let chunk = 256;
        let bound = (schema.frame_bits() as usize).div_ceil(8) + 1 + chunk;
        let mut dec = StreamDecoder::new(&schema);
        let mut out = Decoded::default();
        let mut records = 0;
        for piece in stream.bytes.chunks(chunk) {
            dec.push(piece);
            assert!(dec.buf.len() <= bound, "{} > {bound}", dec.buf.len());
            dec.drain(&mut out);
            records += out.events.len();
            out.events.clear();
        }
        let end = dec.finish(Some(stream.bit_len), &mut out);
        assert_eq!(records + out.events.len(), recs.len());
        assert_eq!(end.frames, recs.len());
        assert!(end.tail_clean);
    }

    #[test]
    fn truncated_tail_is_reported() {
        let (c, schema) = setup();
        let recs = records(&c, 3);
        let stream = encode_records(&schema, &recs, None).unwrap();
        // Chop the stream mid-frame.
        let cut = stream.bit_len - 10;
        let report = decode_with(&ProfileV1, &schema, &stream.bytes, Some(cut));
        assert_eq!(report.frames, 2);
        assert_eq!(report.records.len(), 2);
        assert!(report.trailing_bits > 0);
        assert!(!report.tail_clean, "the truncated frame has nonzero bits");
    }
}
