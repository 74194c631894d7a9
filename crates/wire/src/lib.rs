//! Bit-packed wire format for streamed trace captures.
//!
//! This crate turns a message selection — Step 2's chosen combination
//! plus Step 3's packed subgroups — into a concrete bit-level trace
//! encoding and back:
//!
//! * [`WireSchema`] fixes the frame layout for a `W`-bit trace buffer:
//!   per-message tag bits sized by the selected combination, one body
//!   lane per selected message at its flow-spec width, packed-subgroup
//!   lanes truncated exactly as Step 3 lays them out;
//! * [`Encoder`] serializes captured records into fixed-width frames
//!   through a [`FrameRing`] that models the on-chip circular buffer
//!   (wraparound overwrites the oldest frames);
//! * [`StreamDecoder`] / [`decode_stream`] reconstruct the capture
//!   incrementally, tolerate corrupted frames via tag-based
//!   resynchronization at frame boundaries, and report per-frame buffer
//!   utilization *as measured* — the experimental counterpart of the
//!   analytic `TraceBufferSpec::utilization` model;
//! * [`RecordDecoder`] and [`TimePass`] are the one bytes-to-records
//!   path every dialect and consumer shares: a batch decode
//!   ([`decode_with`]) pushes every byte and finishes, a live session
//!   pushes chunk by chunk through the same decoder and time pass;
//! * [`write_ptw`] / [`read_ptw`] wrap a stream in the self-describing
//!   `.ptw` container for on-disk exchange.
//!
//! Round-trip identity is the contract: for any schema and record
//! sequence that encode cleanly, decoding the encoded stream yields the
//! records bit-for-bit (`decode(encode(r)) == r`), including circular
//! truncation to the newest `depth` records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod decode;
mod error;
mod frame;
mod profile;
mod ptw;
mod schema;

pub use bits::{BitReader, BitWriter};
pub use decode::{
    decode_stream, finish_report, DamageReason, DamagedFrame, DecodeReport, Decoded, RecordDecoder,
    Released, StreamDecoder, StreamEnd, TimePass,
};
pub use error::WireError;
pub use frame::{encode_records, EncodedStream, Encoder, FrameRing, WireRecord};
pub use profile::{decode_with, FrameProfile, ProfileV1};
pub use ptw::{
    read_ptw, read_ptw_any, read_ptw_header, read_ptw_schema, write_ptw, write_ptw_schema,
    write_ptw_schema_with, write_ptw_with, PtwMeta, PTW_MAGIC, PTW_VERSION, PTW_VERSION_V2,
    SUPPORTED_VERSIONS, SYNC_EVERY_RANGE,
};
pub use schema::{Slot, SlotKind, WireSchema, DEFAULT_INDEX_WIDTH, DEFAULT_TIME_WIDTH};
