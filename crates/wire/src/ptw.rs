//! The `.ptw` container: a self-describing on-disk wire stream.
//!
//! Layout (all multi-byte integers little-endian):
//!
//! ```text
//! magic        4 bytes  "PTW1"
//! version      u8       1 = fixed-width frames, 2 = compressed sync blocks
//! sync_every   u16      v2 only: records per sync block (1..=4096)
//! body_width   u32      frame body width W in bits
//! tag_width    u8
//! index_width  u8
//! time_width   u8
//! slot_count   u16
//! per slot:
//!   kind       u8       0 = full message, 1 = packed subgroup
//!   width      u16      lane width in bits
//!   name_len   u16
//!   name       UTF-8    message name, or qualified "parent.group"
//! payload_bits u64      exact stream length in bits
//! payload      bytes    ⌈payload_bits / 8⌉ bytes, final byte zero-padded
//! ```
//!
//! The header names slots symbolically so a reader with the same flow
//! catalog rebuilds the schema without access to the selection that
//! produced it; widths are cross-checked against the catalog on read.
//!
//! The `version` byte negotiates the *payload profile*: v1 is the
//! fixed-width frame stream this crate decodes, v2 is the compressed
//! sync-block dialect of `pstrace-codec`. Header parsing is shared
//! ([`read_ptw_header`] accepts both); the v1-only helpers
//! ([`read_ptw_schema`], [`read_ptw`]) keep their original signatures and
//! report [`WireError::UnsupportedProfile`] for v2 payloads they cannot
//! decode.

use pstrace_flow::MessageCatalog;

use crate::error::WireError;
use crate::frame::EncodedStream;
use crate::schema::{SlotKind, WireSchema};

/// The 4-byte container magic (shared by every profile version).
pub const PTW_MAGIC: [u8; 4] = *b"PTW1";

/// The original fixed-width-frame container version.
pub const PTW_VERSION: u8 = 1;

/// The compressed sync-block container version (`pstrace-codec`).
pub const PTW_VERSION_V2: u8 = 2;

/// The inclusive `(lowest, highest)` container versions this build knows.
pub const SUPPORTED_VERSIONS: (u8, u8) = (PTW_VERSION, PTW_VERSION_V2);

/// Legal range of the v2 `sync_every` header field: how many records one
/// sync block may carry, which is also the damage-containment window.
pub const SYNC_EVERY_RANGE: (u16, u16) = (1, 4096);

/// Everything the version-dependent part of a `.ptw` header says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtwMeta {
    /// The payload profile version (1 or 2).
    pub version: u8,
    /// Records per sync block (v2; 0 for v1 headers, which have no
    /// blocks).
    pub sync_every: u16,
}

impl PtwMeta {
    /// The v1 fixed-width-frame meta.
    #[must_use]
    pub fn v1() -> Self {
        PtwMeta {
            version: PTW_VERSION,
            sync_every: 0,
        }
    }

    /// A v2 compressed meta with the given sync-block cadence.
    #[must_use]
    pub fn v2(sync_every: u16) -> Self {
        PtwMeta {
            version: PTW_VERSION_V2,
            sync_every,
        }
    }
}

/// Serializes just the schema part of a `.ptw` header (magic through the
/// slot table, no payload fields).
///
/// This is the self-describing prefix of every `.ptw` file, and doubles
/// as the schema handshake of the live streaming protocol: a receiver
/// with the same catalog rebuilds the full [`WireSchema`] from these
/// bytes alone via [`read_ptw_schema`].
#[must_use]
pub fn write_ptw_schema(catalog: &MessageCatalog, schema: &WireSchema) -> Vec<u8> {
    write_ptw_schema_with(catalog, schema, PtwMeta::v1())
}

/// [`write_ptw_schema`] for an explicit profile: v2 headers carry the
/// sync-block cadence right after the version byte.
///
/// # Panics
///
/// Panics on an unknown version or a v2 `sync_every` outside
/// [`SYNC_EVERY_RANGE`] — the caller constructs the meta, so this is a
/// programming error, not an input error.
#[must_use]
pub fn write_ptw_schema_with(
    catalog: &MessageCatalog,
    schema: &WireSchema,
    meta: PtwMeta,
) -> Vec<u8> {
    assert!(
        (SUPPORTED_VERSIONS.0..=SUPPORTED_VERSIONS.1).contains(&meta.version),
        "unknown .ptw version {}",
        meta.version
    );
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&PTW_MAGIC);
    out.push(meta.version);
    if meta.version == PTW_VERSION_V2 {
        assert!(
            (SYNC_EVERY_RANGE.0..=SYNC_EVERY_RANGE.1).contains(&meta.sync_every),
            "sync_every {} outside {:?}",
            meta.sync_every,
            SYNC_EVERY_RANGE
        );
        out.extend_from_slice(&meta.sync_every.to_le_bytes());
    }
    out.extend_from_slice(&schema.body_width().to_le_bytes());
    out.push(schema.tag_width() as u8);
    out.push(schema.index_width() as u8);
    out.push(schema.time_width() as u8);
    let slot_count = u16::try_from(schema.slots().len()).expect("slot count fits u16");
    out.extend_from_slice(&slot_count.to_le_bytes());
    for slot in schema.slots() {
        let name = match slot.kind {
            SlotKind::Full => catalog.name(slot.message).to_owned(),
            SlotKind::Subgroup(g) => catalog.group_qualified_name(g),
        };
        out.push(u8::from(slot.is_partial()));
        out.extend_from_slice(&(slot.width as u16).to_le_bytes());
        let name_len = u16::try_from(name.len()).expect("slot name fits u16 length");
        out.extend_from_slice(&name_len.to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    out
}

/// Serializes a schema and its encoded stream into a `.ptw` byte buffer.
#[must_use]
pub fn write_ptw(catalog: &MessageCatalog, schema: &WireSchema, stream: &EncodedStream) -> Vec<u8> {
    write_ptw_with(catalog, schema, PtwMeta::v1(), stream)
}

/// [`write_ptw`] for an explicit profile version. The payload is carried
/// opaquely — for v2 it is the codec's sync-block stream, whose `bit_len`
/// is always a whole number of bytes.
///
/// # Panics
///
/// As [`write_ptw_schema_with`].
#[must_use]
pub fn write_ptw_with(
    catalog: &MessageCatalog,
    schema: &WireSchema,
    meta: PtwMeta,
    stream: &EncodedStream,
) -> Vec<u8> {
    let mut out = write_ptw_schema_with(catalog, schema, meta);
    out.reserve(8 + stream.bytes.len());
    out.extend_from_slice(&stream.bit_len.to_le_bytes());
    out.extend_from_slice(&stream.bytes);
    out
}

/// Byte-slice cursor for header parsing.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(WireError::BadHeader {
                reason: format!("truncated while reading {what}"),
            }),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
}

/// Parses a **v1** `.ptw` buffer back into its schema and encoded stream,
/// resolving slot names against `catalog`.
///
/// # Errors
///
/// * [`WireError::BadMagic`] / [`WireError::BadVersion`] for foreign input;
/// * [`WireError::UnsupportedProfile`] for a valid v2 container — this
///   reader only decodes fixed-width frames; use the codec crate's
///   auto-detecting reader for compressed payloads;
/// * [`WireError::BadHeader`] for a truncated or inconsistent header;
/// * [`WireError::UnknownName`] when a slot's message or subgroup is not in
///   the catalog;
/// * [`WireError::WidthMismatch`] when a slot width disagrees with the
///   catalog.
pub fn read_ptw(
    catalog: &MessageCatalog,
    bytes: &[u8],
) -> Result<(WireSchema, EncodedStream), WireError> {
    let (schema, meta, stream) = read_ptw_any(catalog, bytes)?;
    if meta.version != PTW_VERSION {
        return Err(WireError::UnsupportedProfile {
            version: meta.version,
            max_supported: PTW_VERSION,
        });
    }
    Ok((schema, stream))
}

/// A `.ptw` container split into its parts, borrowing the header and
/// payload bytes from the buffer it was parsed from.
#[derive(Debug, Clone)]
pub struct PtwParts<'a> {
    /// The schema rebuilt from the header.
    pub schema: WireSchema,
    /// The profile meta (version byte and v2 sync cadence).
    pub meta: PtwMeta,
    /// The schema prefix, magic through the slot table — the live
    /// protocol's handshake, verbatim.
    pub header: &'a [u8],
    /// The declared payload length in bits.
    pub bit_len: u64,
    /// Exactly the `⌈bit_len / 8⌉` payload bytes.
    pub payload: &'a [u8],
}

/// Splits a `.ptw` buffer of **any supported version** into its parts
/// without copying: the one container-payload parser behind
/// [`read_ptw_any`] and the replay client. The payload is *not* decoded.
///
/// # Errors
///
/// As [`read_ptw`], minus the profile restriction.
pub fn split_ptw<'a>(catalog: &MessageCatalog, bytes: &'a [u8]) -> Result<PtwParts<'a>, WireError> {
    let (schema, meta, consumed) = read_ptw_header(catalog, bytes)?;
    let mut c = Cursor {
        bytes,
        pos: consumed,
    };
    let bit_len = c.u64("payload length")?;
    let payload_len = usize::try_from(bit_len.div_ceil(8)).map_err(|_| WireError::BadHeader {
        reason: "payload length overflows".to_owned(),
    })?;
    let payload = c.take(payload_len, "payload")?;
    Ok(PtwParts {
        schema,
        meta,
        header: &bytes[..consumed],
        bit_len,
        payload,
    })
}

/// Parses a `.ptw` buffer of **any supported version** into its schema,
/// profile meta, and raw payload stream (an owned copy of
/// [`split_ptw`]'s parts). For v1 the frame count is derived from the
/// frame width, for v2 the `frames` field is left 0 (block structure is
/// the codec's concern).
///
/// # Errors
///
/// As [`read_ptw`], minus the profile restriction.
pub fn read_ptw_any(
    catalog: &MessageCatalog,
    bytes: &[u8],
) -> Result<(WireSchema, PtwMeta, EncodedStream), WireError> {
    let parts = split_ptw(catalog, bytes)?;
    let frames = if parts.meta.version == PTW_VERSION {
        (parts.bit_len / u64::from(parts.schema.frame_bits())) as usize
    } else {
        0
    };
    let stream = EncodedStream {
        bytes: parts.payload.to_vec(),
        bit_len: parts.bit_len,
        frames,
    };
    Ok((parts.schema, parts.meta, stream))
}

/// Parses the **v1** schema prefix written by [`write_ptw_schema`],
/// returning the rebuilt schema and the number of header bytes consumed
/// (so a caller can continue reading whatever follows — payload fields in
/// a file, chunked frames on a socket).
///
/// # Errors
///
/// Same as [`read_ptw`], minus the payload checks.
pub fn read_ptw_schema(
    catalog: &MessageCatalog,
    bytes: &[u8],
) -> Result<(WireSchema, usize), WireError> {
    let (schema, meta, consumed) = read_ptw_header(catalog, bytes)?;
    if meta.version != PTW_VERSION {
        return Err(WireError::UnsupportedProfile {
            version: meta.version,
            max_supported: PTW_VERSION,
        });
    }
    Ok((schema, consumed))
}

/// Parses the schema prefix of any supported container version, returning
/// the rebuilt schema, the profile meta (version + v2 sync cadence), and
/// the number of header bytes consumed.
///
/// # Errors
///
/// Same as [`read_ptw`], minus the payload checks and the profile
/// restriction.
pub fn read_ptw_header(
    catalog: &MessageCatalog,
    bytes: &[u8],
) -> Result<(WireSchema, PtwMeta, usize), WireError> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.take(4, "magic").map_err(|_| WireError::BadMagic)? != PTW_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = c.u8("version")?;
    if !(SUPPORTED_VERSIONS.0..=SUPPORTED_VERSIONS.1).contains(&version) {
        return Err(WireError::BadVersion { version });
    }
    let sync_every = if version == PTW_VERSION_V2 {
        let sync_every = c.u16("sync cadence")?;
        if !(SYNC_EVERY_RANGE.0..=SYNC_EVERY_RANGE.1).contains(&sync_every) {
            return Err(WireError::BadHeader {
                reason: format!(
                    "sync cadence {sync_every} outside {}..={}",
                    SYNC_EVERY_RANGE.0, SYNC_EVERY_RANGE.1
                ),
            });
        }
        sync_every
    } else {
        0
    };
    let body_width = c.u32("body width")?;
    let tag_width = u32::from(c.u8("tag width")?);
    let index_width = u32::from(c.u8("index width")?);
    let time_width = u32::from(c.u8("time width")?);
    let slot_count = c.u16("slot count")?;

    let mut messages = Vec::new();
    let mut groups = Vec::new();
    let mut declared = Vec::new();
    for i in 0..slot_count {
        let kind = c.u8("slot kind")?;
        let width = u32::from(c.u16("slot width")?);
        let name_len = usize::from(c.u16("slot name length")?);
        let name_bytes = c.take(name_len, "slot name")?;
        let name = std::str::from_utf8(name_bytes).map_err(|_| WireError::BadHeader {
            reason: format!("slot {i} name is not UTF-8"),
        })?;
        let catalog_width = match kind {
            0 => {
                let m = catalog.get(name).ok_or_else(|| WireError::UnknownName {
                    name: name.to_owned(),
                })?;
                messages.push(m);
                catalog.width(m)
            }
            1 => {
                let g = catalog
                    .get_group(name)
                    .ok_or_else(|| WireError::UnknownName {
                        name: name.to_owned(),
                    })?;
                groups.push(g);
                catalog.group(g).width()
            }
            other => {
                return Err(WireError::BadHeader {
                    reason: format!("slot {i} has unknown kind {other}"),
                })
            }
        };
        if catalog_width != width {
            return Err(WireError::WidthMismatch {
                name: name.to_owned(),
                declared: width,
                expected: catalog_width,
            });
        }
        declared.push((kind, width));
    }

    let schema = WireSchema::new(catalog, &messages, &groups, body_width)?
        .with_index_width(index_width)?
        .with_time_width(time_width)?;
    // The rebuilt schema must agree with the header field-for-field:
    // a mismatch means the file's slot list does not reproduce its own
    // layout (e.g. duplicate slots that the dedupe rules collapse).
    if schema.tag_width() != tag_width {
        return Err(WireError::BadHeader {
            reason: format!(
                "tag width {tag_width} disagrees with rebuilt schema ({})",
                schema.tag_width()
            ),
        });
    }
    if schema.slots().len() != usize::from(slot_count) {
        return Err(WireError::BadHeader {
            reason: format!(
                "{} slots declared but {} survive schema rebuild",
                slot_count,
                schema.slots().len()
            ),
        });
    }
    for (i, (slot, &(kind, width))) in schema.slots().iter().zip(&declared).enumerate() {
        if u8::from(slot.is_partial()) != kind || slot.width != width {
            return Err(WireError::BadHeader {
                reason: format!("slot {i} disagrees with rebuilt schema layout"),
            });
        }
    }

    Ok((
        schema,
        PtwMeta {
            version,
            sync_every,
        },
        c.pos,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_records, WireRecord};
    use pstrace_flow::{FlowIndex, IndexedMessage};
    use std::sync::Arc;

    fn setup() -> (Arc<MessageCatalog>, WireSchema, EncodedStream) {
        let mut c = MessageCatalog::new();
        c.intern("req", 9);
        let wide = c.intern("wide", 20);
        c.intern_group(wide, "lo", 6);
        let c = Arc::new(c);
        let req = c.get("req").unwrap();
        let lo = c.get_group("wide.lo").unwrap();
        let schema = WireSchema::new(&c, &[req], &[lo], 24).unwrap();
        let records = [
            WireRecord {
                time: 3,
                message: IndexedMessage::new(req, FlowIndex(1)),
                value: 0x1ff,
                partial: false,
            },
            WireRecord {
                time: 9,
                message: IndexedMessage::new(c.get("wide").unwrap(), FlowIndex(2)),
                value: 0x2a,
                partial: true,
            },
        ];
        let stream = encode_records(&schema, &records, None).unwrap();
        (c, schema, stream)
    }

    #[test]
    fn container_round_trips() {
        let (c, schema, stream) = setup();
        let bytes = write_ptw(&c, &schema, &stream);
        let (schema2, stream2) = read_ptw(&c, &bytes).unwrap();
        assert_eq!(schema2, schema);
        assert_eq!(stream2, stream);
        // The borrowed split sees the same parts, the header verbatim.
        let parts = split_ptw(&c, &bytes).unwrap();
        assert_eq!(parts.header, &write_ptw_schema(&c, &schema)[..]);
        assert_eq!(
            (parts.bit_len, parts.payload),
            (stream.bit_len, &stream.bytes[..])
        );
    }

    #[test]
    fn schema_prefix_round_trips_standalone() {
        let (c, schema, stream) = setup();
        let header = write_ptw_schema(&c, &schema);
        let (schema2, consumed) = read_ptw_schema(&c, &header).unwrap();
        assert_eq!(schema2, schema);
        assert_eq!(consumed, header.len());
        // The full container is exactly header + payload fields, so the
        // prefix parser consumes the same bytes there too.
        let full = write_ptw(&c, &schema, &stream);
        assert_eq!(&full[..header.len()], &header[..]);
        let (schema3, consumed3) = read_ptw_schema(&c, &full).unwrap();
        assert_eq!(schema3, schema);
        assert_eq!(consumed3, header.len());
        // Trailing bytes after the slot table are the next reader's
        // problem — a bare header with junk appended still parses.
        let mut extended = header.clone();
        extended.extend_from_slice(b"payload follows");
        assert!(read_ptw_schema(&c, &extended).is_ok());
    }

    #[test]
    fn v2_header_negotiates_profile_and_cadence() {
        let (c, schema, stream) = setup();
        let header = write_ptw_schema_with(&c, &schema, PtwMeta::v2(128));
        let (schema2, meta, consumed) = read_ptw_header(&c, &header).unwrap();
        assert_eq!(schema2, schema);
        assert_eq!(meta, PtwMeta::v2(128));
        assert_eq!(consumed, header.len());
        // The v1-only helpers refuse the profile with a typed error, not
        // a parse failure.
        assert_eq!(
            read_ptw_schema(&c, &header).unwrap_err(),
            WireError::UnsupportedProfile {
                version: PTW_VERSION_V2,
                max_supported: PTW_VERSION
            }
        );
        let full = write_ptw_with(&c, &schema, PtwMeta::v2(128), &stream);
        assert_eq!(
            read_ptw(&c, &full).unwrap_err(),
            WireError::UnsupportedProfile {
                version: PTW_VERSION_V2,
                max_supported: PTW_VERSION
            }
        );
        // The payload-agnostic reader hands the opaque bytes through.
        let (_, meta2, stream2) = read_ptw_any(&c, &full).unwrap();
        assert_eq!(meta2, PtwMeta::v2(128));
        assert_eq!(stream2.bytes, stream.bytes);
        assert_eq!(stream2.bit_len, stream.bit_len);
    }

    #[test]
    fn v2_sync_cadence_is_range_checked() {
        let (c, schema, _) = setup();
        let mut header = write_ptw_schema_with(&c, &schema, PtwMeta::v2(1));
        // Corrupt sync_every (bytes 5..7) to 0: outside SYNC_EVERY_RANGE.
        header[5] = 0;
        header[6] = 0;
        assert!(matches!(
            read_ptw_header(&c, &header).unwrap_err(),
            WireError::BadHeader { .. }
        ));
        // And to 5000: above the ceiling.
        let above = SYNC_EVERY_RANGE.1 + 1;
        header[5..7].copy_from_slice(&above.to_le_bytes());
        assert!(matches!(
            read_ptw_header(&c, &header).unwrap_err(),
            WireError::BadHeader { .. }
        ));
    }

    #[test]
    fn foreign_bytes_are_rejected() {
        let (c, schema, stream) = setup();
        assert_eq!(read_ptw(&c, b"nope").unwrap_err(), WireError::BadMagic);
        let mut bytes = write_ptw(&c, &schema, &stream);
        bytes[4] = 9;
        assert_eq!(
            read_ptw(&c, &bytes).unwrap_err(),
            WireError::BadVersion { version: 9 }
        );
    }

    #[test]
    fn truncated_header_is_reported() {
        let (c, schema, stream) = setup();
        let bytes = write_ptw(&c, &schema, &stream);
        for cut in [5, 10, 14, bytes.len() - 1] {
            let err = read_ptw(&c, &bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::BadHeader { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn unknown_names_and_width_drift_are_caught() {
        let (c, schema, stream) = setup();
        let bytes = write_ptw(&c, &schema, &stream);
        let mut foreign = MessageCatalog::new();
        foreign.intern("other", 4);
        assert!(matches!(
            read_ptw(&foreign, &bytes).unwrap_err(),
            WireError::UnknownName { .. }
        ));
        let mut drifted = MessageCatalog::new();
        drifted.intern("req", 10); // catalog evolved: width changed
        let wide = drifted.intern("wide", 20);
        drifted.intern_group(wide, "lo", 6);
        assert_eq!(
            read_ptw(&drifted, &bytes).unwrap_err(),
            WireError::WidthMismatch {
                name: "req".to_owned(),
                declared: 9,
                expected: 10
            }
        );
    }
}
