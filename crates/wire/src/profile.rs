//! Payload profiles: pluggable frame dialects beneath the `.ptw`
//! container.
//!
//! A [`FrameProfile`] maps captured records to payload bytes and back.
//! The container header's `version` byte names the profile, so every
//! profile shares the same schema prefix, catalog cross-checks, and
//! tooling — only the payload encoding differs:
//!
//! * **v1** ([`ProfileV1`], this crate): fixed-width self-contained
//!   frames. Simple, seekable, damage bounded to single frames.
//! * **v2** (`pstrace_codec::ProfileV2`): delta/zig-zag compressed sync
//!   blocks. Smaller wire, damage bounded to one sync block.
//!
//! The contract every profile must honor, pinned by the round-trip
//! suites: `decode(encode(records)) == records` bit-identically for any
//! cleanly-encodable record sequence, and a corrupted payload never
//! panics — it costs a bounded window of records, surfaced through the
//! same [`DecodeReport`] damage vocabulary.

use crate::decode::{finish_report, DecodeReport, RecordDecoder, StreamDecoder};
use crate::error::WireError;
use crate::frame::{encode_records, EncodedStream, WireRecord};
use crate::ptw::PtwMeta;
use crate::schema::WireSchema;

/// A payload dialect for the `.ptw` container.
///
/// Implementations must be pure functions of their inputs: encoding the
/// same records twice yields identical bytes, so files and handshakes
/// are reproducible byte-for-byte.
pub trait FrameProfile {
    /// The container meta this profile writes (version byte and, for
    /// block profiles, the sync cadence).
    fn meta(&self) -> PtwMeta;

    /// Serializes `records` into a payload stream. `depth` models the
    /// on-chip circular buffer: `Some(n)` keeps only the newest `n`
    /// records (wraparound overwrites the oldest), `None` keeps all.
    ///
    /// # Errors
    ///
    /// [`WireError`] when a record does not fit the schema (unknown
    /// slot, value/time/index overflow) — same failure surface for
    /// every profile.
    fn encode(
        &self,
        schema: &WireSchema,
        records: &[WireRecord],
        depth: Option<usize>,
    ) -> Result<EncodedStream, WireError>;

    /// A fresh incremental decoder for this dialect over `schema` — the
    /// one decode path, for batch ([`decode_with`]) and live consumers
    /// alike. It tolerates corruption: damaged regions are reported,
    /// never panicked on, and never poison the rest of the stream.
    fn decoder(&self, schema: &WireSchema) -> Box<dyn RecordDecoder>;
}

/// Decodes a complete payload under `profile`: push every byte the
/// declared `bit_len` covers (default: all of `bytes`), then
/// [`finish_report`].
#[must_use]
pub fn decode_with(
    profile: &dyn FrameProfile,
    schema: &WireSchema,
    bytes: &[u8],
    bit_len: Option<u64>,
) -> DecodeReport {
    let mut decoder = profile.decoder(schema);
    let len = bit_len
        .and_then(|b| usize::try_from(decoder.payload_bytes(b)).ok())
        .map_or(bytes.len(), |n| n.min(bytes.len()));
    decoder.push(&bytes[..len]);
    finish_report(&mut *decoder, bit_len)
}

/// The identity profile: v1 fixed-width frames, exactly what
/// [`encode_records`] and [`decode_stream`](crate::decode_stream) have
/// always produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileV1;

impl FrameProfile for ProfileV1 {
    fn meta(&self) -> PtwMeta {
        PtwMeta::v1()
    }

    fn encode(
        &self,
        schema: &WireSchema,
        records: &[WireRecord],
        depth: Option<usize>,
    ) -> Result<EncodedStream, WireError> {
        encode_records(schema, records, depth)
    }

    fn decoder(&self, schema: &WireSchema) -> Box<dyn RecordDecoder> {
        Box::new(StreamDecoder::new(schema))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_flow::{FlowIndex, IndexedMessage, MessageCatalog};

    #[test]
    fn v1_profile_is_the_identity_dialect() {
        let mut c = MessageCatalog::new();
        c.intern("req", 9);
        let req = c.get("req").unwrap();
        let schema = WireSchema::new(&c, &[req], &[], 16).unwrap();
        let records: Vec<WireRecord> = (0..5)
            .map(|i| WireRecord {
                time: i * 2,
                message: IndexedMessage::new(req, FlowIndex(1)),
                value: i,
                partial: false,
            })
            .collect();
        let p = ProfileV1;
        assert_eq!(p.meta(), PtwMeta::v1());
        let stream = p.encode(&schema, &records, None).unwrap();
        assert_eq!(stream, encode_records(&schema, &records, None).unwrap());
        let report = decode_with(&p, &schema, &stream.bytes, Some(stream.bit_len));
        assert!(report.is_clean());
        assert_eq!(report.records, records);
    }
}
