//! Frame schema: how a selection maps to bits on the wire.
//!
//! A [`WireSchema`] is derived from a message selection (Step 2's chosen
//! combination plus Step 3's packed subgroups) and fixes, for a given
//! trace-buffer width `W`:
//!
//! * the **body layout** — one fixed *lane* per selected message at its
//!   flow-spec width, laid out in selection order, followed by one lane
//!   per packed subgroup at the subgroup's (truncated) width in packing
//!   order, exactly mirroring how Step 3 fills the leftover buffer bits;
//! * the **tag field** — `⌈log₂(slots + 1)⌉` bits identifying which slot
//!   fired in a frame (tag 0 is the idle/unwritten pattern), sized by the
//!   selected combination;
//! * the **index** and **time** header fields carrying the flow-instance
//!   index and the absolute capture cycle.
//!
//! The sum of lane widths is the schema's *occupied bits* — identical to
//! the analytic `width_packed` of the selection report, which is what
//! makes decoder-side utilization a measurement of the same quantity
//! `TraceBufferSpec::utilization` models.

use pstrace_flow::{GroupId, MessageCatalog, MessageId};

use crate::error::WireError;

/// Default width of the flow-index header field (supports 255 concurrent
/// flow instances — far beyond any modeled scenario).
pub const DEFAULT_INDEX_WIDTH: u32 = 8;

/// Default width of the absolute-time header field (the simulator's hang
/// horizon is 2²⁰ cycles; 32 bits leave ample headroom).
pub const DEFAULT_TIME_WIDTH: u32 = 32;

/// What a slot records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// The full payload of a selected message.
    Full,
    /// A packed subgroup: the parent message's payload truncated to the
    /// subgroup's width.
    Subgroup(GroupId),
}

/// One lane of the frame body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The message this slot observes (the parent for subgroup slots).
    pub message: MessageId,
    /// Full message or packed subgroup.
    pub kind: SlotKind,
    /// Lane width in bits.
    pub width: u32,
    /// Lane offset within the frame body, in bits.
    pub offset: u32,
}

impl Slot {
    /// Whether this slot records a truncated subgroup.
    #[must_use]
    pub fn is_partial(&self) -> bool {
        matches!(self.kind, SlotKind::Subgroup(_))
    }
}

/// Number of bits needed to represent values `0..=max`.
fn bits_for(max: u64) -> u32 {
    if max == 0 {
        1
    } else {
        64 - max.leading_zeros()
    }
}

/// The bit layout of one trace stream, derived from a selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSchema {
    slots: Vec<Slot>,
    tag_width: u32,
    index_width: u32,
    time_width: u32,
    body_width: u32,
    occupied_bits: u32,
}

impl WireSchema {
    /// Builds a schema for `messages` (fully traced) plus `groups` (packed
    /// subgroups) over a `body_width`-bit buffer.
    ///
    /// Mirrors the capture semantics of the modeled trace buffer: duplicate
    /// messages collapse, a subgroup whose parent is fully traced is
    /// dropped (the full message wins), and of several subgroups sharing a
    /// parent only the widest survives (ties keep the later one, matching
    /// the capture path's `max_by_key`).
    ///
    /// # Errors
    ///
    /// * [`WireError::ZeroWidthBody`] if `body_width` is zero;
    /// * [`WireError::LanesExceedBody`] if the lanes overflow the body.
    pub fn new(
        catalog: &MessageCatalog,
        messages: &[MessageId],
        groups: &[GroupId],
        body_width: u32,
    ) -> Result<Self, WireError> {
        if body_width == 0 {
            return Err(WireError::ZeroWidthBody);
        }
        let mut slots: Vec<Slot> = Vec::new();
        for &m in messages {
            if slots.iter().any(|s| s.message == m) {
                continue;
            }
            slots.push(Slot {
                message: m,
                kind: SlotKind::Full,
                width: catalog.width(m),
                offset: 0,
            });
        }
        let full_count = slots.len();
        for &g in groups {
            let group = catalog.group(g);
            let parent = group.parent();
            if slots[..full_count].iter().any(|s| s.message == parent) {
                continue; // full message beats its subgroups
            }
            // Widest subgroup per parent; ties keep the later one.
            match slots[full_count..].iter().position(|s| s.message == parent) {
                Some(i) => {
                    let existing = &mut slots[full_count + i];
                    if group.width() >= existing.width {
                        existing.kind = SlotKind::Subgroup(g);
                        existing.width = group.width();
                    }
                }
                None => slots.push(Slot {
                    message: parent,
                    kind: SlotKind::Subgroup(g),
                    width: group.width(),
                    offset: 0,
                }),
            }
        }
        let mut offset = 0u32;
        for slot in &mut slots {
            slot.offset = offset;
            offset += slot.width;
        }
        if offset > body_width {
            return Err(WireError::LanesExceedBody {
                occupied: offset,
                body: body_width,
            });
        }
        Ok(WireSchema {
            tag_width: bits_for(slots.len() as u64),
            occupied_bits: offset,
            slots,
            index_width: DEFAULT_INDEX_WIDTH,
            time_width: DEFAULT_TIME_WIDTH,
            body_width,
        })
    }

    /// Overrides the flow-index field width (1–32 bits).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadFieldWidth`] outside the legal range.
    pub fn with_index_width(mut self, width: u32) -> Result<Self, WireError> {
        if !(1..=32).contains(&width) {
            return Err(WireError::BadFieldWidth {
                field: "index",
                width,
            });
        }
        self.index_width = width;
        Ok(self)
    }

    /// Overrides the time field width (1–64 bits).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadFieldWidth`] outside the legal range.
    pub fn with_time_width(mut self, width: u32) -> Result<Self, WireError> {
        if !(1..=64).contains(&width) {
            return Err(WireError::BadFieldWidth {
                field: "time",
                width,
            });
        }
        self.time_width = width;
        Ok(self)
    }

    /// The frame body lanes, in wire order.
    #[must_use]
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Tag field width in bits.
    #[must_use]
    pub fn tag_width(&self) -> u32 {
        self.tag_width
    }

    /// Flow-index field width in bits.
    #[must_use]
    pub fn index_width(&self) -> u32 {
        self.index_width
    }

    /// Time field width in bits.
    #[must_use]
    pub fn time_width(&self) -> u32 {
        self.time_width
    }

    /// Frame body width in bits (the modeled buffer's bits-per-cycle `W`).
    #[must_use]
    pub fn body_width(&self) -> u32 {
        self.body_width
    }

    /// Total lane bits — the measured per-frame occupancy of the body.
    #[must_use]
    pub fn occupied_bits(&self) -> u32 {
        self.occupied_bits
    }

    /// Measured buffer utilization: lane bits over body bits.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        f64::from(self.occupied_bits) / f64::from(self.body_width)
    }

    /// Total frame width: tag + index + time + body.
    #[must_use]
    pub fn frame_bits(&self) -> u32 {
        self.tag_width + self.index_width + self.time_width + self.body_width
    }

    /// The slot a `(message, partial)` record maps to, with its 1-based
    /// tag value.
    #[must_use]
    pub fn slot_for(&self, message: MessageId, partial: bool) -> Option<(u64, &Slot)> {
        self.slots
            .iter()
            .enumerate()
            .find(|(_, s)| s.message == message && s.is_partial() == partial)
            .map(|(i, s)| (i as u64 + 1, s))
    }

    /// The slot carried by tag value `tag` (1-based); `None` for the idle
    /// tag 0 and for out-of-range (corrupt) tags.
    #[must_use]
    pub fn slot_by_tag(&self, tag: u64) -> Option<&Slot> {
        if tag == 0 {
            return None;
        }
        self.slots.get(tag as usize - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn catalog() -> Arc<MessageCatalog> {
        let mut c = MessageCatalog::new();
        c.intern("a", 4);
        c.intern("b", 7);
        let wide = c.intern("wide", 20);
        c.intern_group(wide, "lo", 6);
        c.intern_group(wide, "hi", 6);
        c.intern_group(wide, "tiny", 2);
        Arc::new(c)
    }

    #[test]
    fn lanes_follow_selection_then_packing_order() {
        let c = catalog();
        let a = c.get("a").unwrap();
        let b = c.get("b").unwrap();
        let lo = c.get_group("wide.lo").unwrap();
        let schema = WireSchema::new(&c, &[b, a], &[lo], 32).unwrap();
        let slots = schema.slots();
        assert_eq!(slots.len(), 3);
        assert_eq!(slots[0].message, b);
        assert_eq!(slots[0].offset, 0);
        assert_eq!(slots[1].message, a);
        assert_eq!(slots[1].offset, 7);
        assert!(slots[2].is_partial());
        assert_eq!(slots[2].offset, 11);
        assert_eq!(schema.occupied_bits(), 17);
        assert_eq!(schema.tag_width(), 2, "tags 0..=3 need 2 bits");
        assert_eq!(
            schema.frame_bits(),
            2 + DEFAULT_INDEX_WIDTH + DEFAULT_TIME_WIDTH + 32
        );
    }

    #[test]
    fn capture_semantics_dedupe() {
        let c = catalog();
        let a = c.get("a").unwrap();
        let wide = c.get("wide").unwrap();
        let lo = c.get_group("wide.lo").unwrap();
        let hi = c.get_group("wide.hi").unwrap();
        let tiny = c.get_group("wide.tiny").unwrap();

        // Duplicate messages collapse.
        let s = WireSchema::new(&c, &[a, a], &[], 8).unwrap();
        assert_eq!(s.slots().len(), 1);

        // Full message beats its subgroups.
        let s = WireSchema::new(&c, &[a, wide], &[lo], 32).unwrap();
        assert_eq!(s.slots().len(), 2);
        assert!(s.slots().iter().all(|sl| !sl.is_partial()));

        // Widest subgroup per parent wins; equal widths keep the later.
        let s = WireSchema::new(&c, &[a], &[tiny, lo, hi], 16).unwrap();
        assert_eq!(s.slots().len(), 2);
        assert_eq!(s.slots()[1].kind, SlotKind::Subgroup(hi));
        assert_eq!(s.slots()[1].width, 6);
    }

    #[test]
    fn overflow_and_zero_width_are_rejected() {
        let c = catalog();
        let wide = c.get("wide").unwrap();
        assert_eq!(
            WireSchema::new(&c, &[wide], &[], 8).unwrap_err(),
            WireError::LanesExceedBody {
                occupied: 20,
                body: 8
            }
        );
        assert_eq!(
            WireSchema::new(&c, &[], &[], 0).unwrap_err(),
            WireError::ZeroWidthBody
        );
    }

    #[test]
    fn field_width_overrides_validate() {
        let c = catalog();
        let a = c.get("a").unwrap();
        let s = WireSchema::new(&c, &[a], &[], 8).unwrap();
        let s = s.with_index_width(4).unwrap().with_time_width(16).unwrap();
        assert_eq!(s.index_width(), 4);
        assert_eq!(s.time_width(), 16);
        assert!(matches!(
            s.clone().with_index_width(0),
            Err(WireError::BadFieldWidth { field: "index", .. })
        ));
        assert!(matches!(
            s.with_time_width(65),
            Err(WireError::BadFieldWidth { field: "time", .. })
        ));
    }

    #[test]
    fn slot_lookup_by_record_and_tag() {
        let c = catalog();
        let a = c.get("a").unwrap();
        let wide = c.get("wide").unwrap();
        let lo = c.get_group("wide.lo").unwrap();
        let s = WireSchema::new(&c, &[a], &[lo], 16).unwrap();
        let (tag, slot) = s.slot_for(a, false).unwrap();
        assert_eq!(tag, 1);
        assert_eq!(slot.width, 4);
        let (tag, slot) = s.slot_for(wide, true).unwrap();
        assert_eq!(tag, 2);
        assert!(slot.is_partial());
        assert!(s.slot_for(wide, false).is_none());
        assert!(s.slot_by_tag(0).is_none());
        assert!(s.slot_by_tag(3).is_none());
        assert_eq!(s.slot_by_tag(2).unwrap().message, wide);
    }

    #[test]
    fn empty_selection_is_a_valid_schema() {
        let c = catalog();
        let s = WireSchema::new(&c, &[], &[], 32).unwrap();
        assert_eq!(s.occupied_bits(), 0);
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.tag_width(), 1);
    }
}
