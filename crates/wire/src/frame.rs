//! Frame encoding, the per-record check and the circular-buffer rule.
//!
//! Each captured record becomes one fixed-width frame:
//!
//! ```text
//! | tag | index | time | body (W bits: one lane per slot, zero padding) |
//! ```
//!
//! written into one stream that models the on-chip circular trace
//! buffer: once `depth` frames are resident, the next write overwrites
//! the oldest frame, so reading the buffer out yields only the newest
//! `depth` frames — exactly the retention semantics of the modeled
//! capture path.
//!
//! The per-record check ([`check_record`]) and the retention rule
//! ([`overwritten`]) live here once; the v2 dialect calls both.

use pstrace_flow::IndexedMessage;

use crate::bits::BitWriter;
use crate::error::WireError;
use crate::schema::{Slot, WireSchema};

/// One captured trace record, expressed in flow-formalism types only:
/// the one record type from the simulator's capture through the trace
/// file to the `.ptw` encoder and decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireRecord {
    /// Capture cycle.
    pub time: u64,
    /// The indexed message observed.
    pub message: IndexedMessage,
    /// Recorded payload (full width or truncated to the subgroup).
    pub value: u64,
    /// Whether only a subgroup was recorded.
    pub partial: bool,
}

/// A serialized bit stream plus its exact bit length and frame count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedStream {
    /// The packed bytes (final byte zero-padded).
    pub bytes: Vec<u8>,
    /// Exact stream length in bits (`frames * frame_bits`).
    pub bit_len: u64,
    /// Number of frames in the stream.
    pub frames: usize,
}

impl EncodedStream {
    /// Stream size in whole bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the stream holds no frames.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }
}

/// The one per-record encode check, shared by every dialect: the
/// record's `(tag, slot)` in `schema`, or the typed error naming the
/// first field that does not fit.
///
/// # Errors
///
/// [`WireError::UnknownSlot`] when `(message, partial)` has no slot,
/// else [`WireError::ValueOverflow`], [`WireError::TimeOverflow`] or
/// [`WireError::IndexOverflow`], checked in that order.
#[inline]
pub fn check_record<'s>(
    schema: &'s WireSchema,
    record: &WireRecord,
) -> Result<(u64, &'s Slot), WireError> {
    let (tag, slot) = schema
        .slot_for(record.message.message, record.partial)
        .ok_or_else(|| WireError::UnknownSlot {
            message: format!("#{}", record.message.message.index()),
            partial: record.partial,
        })?;
    let fits = |v: u64, w: u32| w >= 64 || v < (1u64 << w);
    if !fits(record.value, slot.width) {
        return Err(WireError::ValueOverflow {
            value: record.value,
            width: slot.width,
        });
    }
    if !fits(record.time, schema.time_width()) {
        return Err(WireError::TimeOverflow {
            time: record.time,
            width: schema.time_width(),
        });
    }
    if !fits(u64::from(record.message.index.0), schema.index_width()) {
        return Err(WireError::IndexOverflow {
            index: record.message.index.0,
            width: schema.index_width(),
        });
    }
    Ok((tag, slot))
}

/// The one circular-buffer rule, shared by every dialect: how many of
/// `len` records a `depth`-entry ring overwrites (`None` models an
/// unbounded stream port). The newest `len - overwritten` survive.
///
/// # Panics
///
/// Panics on `Some(0)`: a zero-entry circular buffer can never hold a
/// record (the capture path rejects that depth for the same reason).
#[must_use]
pub fn overwritten(len: usize, depth: Option<usize>) -> usize {
    assert!(
        depth != Some(0),
        "circular trace-buffer depth must be at least 1 entry"
    );
    depth.map_or(0, |d| len.saturating_sub(d))
}

/// Appends one checked record as a `frame_bits`-wide frame.
fn write_frame(w: &mut BitWriter, schema: &WireSchema, tag: u64, slot: &Slot, record: &WireRecord) {
    w.write(tag, schema.tag_width());
    w.write(u64::from(record.message.index.0), schema.index_width());
    w.write(record.time, schema.time_width());
    // Body: zeros up to the firing lane, the payload, zeros to the end.
    write_zeros(w, slot.offset);
    w.write(record.value, slot.width);
    write_zeros(w, schema.body_width() - slot.offset - slot.width);
}

fn write_zeros(w: &mut BitWriter, mut bits: u32) {
    while bits > 0 {
        let step = bits.min(64);
        w.write(0, step);
        bits -= step;
    }
}

/// Encodes a record slice as v1 fixed-width frames, in capture order,
/// into a circular buffer of `depth` frames (`None` = unbounded): the
/// read-out holds the newest frames, oldest first.
///
/// Every record is checked, including those the ring overwrites.
///
/// # Errors
///
/// Returns the first per-record [`check_record`] error.
///
/// # Panics
///
/// Panics on a zero depth (see [`overwritten`]), before any record is
/// checked.
pub fn encode_records(
    schema: &WireSchema,
    records: &[WireRecord],
    depth: Option<usize>,
) -> Result<EncodedStream, WireError> {
    let skip = overwritten(records.len(), depth);
    let mut w = BitWriter::new();
    for (i, record) in records.iter().enumerate() {
        let (tag, slot) = check_record(schema, record)?;
        if i >= skip {
            write_frame(&mut w, schema, tag, slot, record);
        }
    }
    let bit_len = w.bit_len();
    debug_assert_eq!(
        bit_len,
        (records.len() - skip) as u64 * u64::from(schema.frame_bits())
    );
    Ok(EncodedStream {
        bytes: w.into_bytes(),
        bit_len,
        frames: records.len() - skip,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_flow::{FlowIndex, MessageCatalog};
    use std::sync::Arc;

    fn setup() -> (Arc<MessageCatalog>, WireSchema) {
        let mut c = MessageCatalog::new();
        c.intern("a", 4);
        let wide = c.intern("wide", 20);
        c.intern_group(wide, "lo", 6);
        let c = Arc::new(c);
        let a = c.get("a").unwrap();
        let lo = c.get_group("wide.lo").unwrap();
        let schema = WireSchema::new(&c, &[a], &[lo], 16).unwrap();
        (c, schema)
    }

    fn rec(c: &MessageCatalog, name: &str, idx: u32, time: u64, value: u64) -> WireRecord {
        WireRecord {
            time,
            message: IndexedMessage::new(c.get(name).unwrap(), FlowIndex(idx)),
            value,
            partial: name == "wide",
        }
    }

    #[test]
    fn frames_have_the_declared_width() {
        let (c, schema) = setup();
        let stream = encode_records(&schema, &[rec(&c, "a", 1, 10, 0xf)], None).unwrap();
        assert_eq!(stream.frames, 1);
        assert_eq!(stream.bit_len, u64::from(schema.frame_bits()));
        assert_eq!(
            stream.bytes.len(),
            (schema.frame_bits() as usize).div_ceil(8)
        );
    }

    #[test]
    fn ring_overwrites_oldest() {
        let (c, schema) = setup();
        let records: Vec<WireRecord> = (0..10).map(|i| rec(&c, "a", 1, i, i % 16)).collect();
        let stream = encode_records(&schema, &records, Some(4)).unwrap();
        assert_eq!(stream.frames, 4);
        assert_eq!(overwritten(records.len(), Some(4)), 6);
        assert_eq!(
            stream,
            encode_records(&schema, &records[6..], None).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "at least 1 entry")]
    fn zero_depth_ring_is_rejected() {
        let _ = overwritten(3, Some(0));
    }

    #[test]
    fn overwritten_records_are_still_checked() {
        let (c, schema) = setup();
        let mut records: Vec<WireRecord> = (0..10).map(|i| rec(&c, "a", 1, i, i % 16)).collect();
        records[0].value = 0x10;
        assert!(matches!(
            encode_records(&schema, &records, Some(1)).unwrap_err(),
            WireError::ValueOverflow { value: 0x10, .. }
        ));
    }

    #[test]
    fn field_overflow_is_reported() {
        let (c, schema) = setup();
        let bad_value = rec(&c, "a", 1, 0, 0x10); // 4-bit slot
        assert_eq!(
            encode_records(&schema, &[bad_value], None).unwrap_err(),
            WireError::ValueOverflow {
                value: 0x10,
                width: 4
            }
        );
        let bad_index = rec(&c, "a", 300, 0, 1); // 8-bit index field
        assert!(matches!(
            encode_records(&schema, &[bad_index], None).unwrap_err(),
            WireError::IndexOverflow { index: 300, .. }
        ));
        let schema16 = schema.with_time_width(8).unwrap();
        let bad_time = rec(&c, "a", 1, 300, 1);
        assert!(matches!(
            encode_records(&schema16, &[bad_time], None).unwrap_err(),
            WireError::TimeOverflow { time: 300, .. }
        ));
    }

    #[test]
    fn unknown_slot_is_reported() {
        let (c, schema) = setup();
        let full_wide = WireRecord {
            time: 0,
            message: IndexedMessage::new(c.get("wide").unwrap(), FlowIndex(1)),
            value: 1,
            partial: false, // schema only has the subgroup slot
        };
        assert!(matches!(
            encode_records(&schema, &[full_wide], None).unwrap_err(),
            WireError::UnknownSlot { partial: false, .. }
        ));
    }
}
