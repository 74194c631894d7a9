//! Compressed `.ptw` v2 payload profile for the trace wire format.
//!
//! `pstrace-wire`'s v1 dialect spends full-width header fields and lanes
//! on every frame; this crate adds the **v2 sync-block dialect** that
//! recovers the stream's redundancy — delta-coded timestamps with
//! periodic absolute sync points, zig-zag sign-compressed lane deltas,
//! and run-length encoded tag sequences — the same shape RISC-V
//! Efficient-Trace encoders give branch streams. The two dialects share
//! the `.ptw` container, schema handshake, and damage vocabulary; the
//! header's `version` byte negotiates which payload follows.
//!
//! The contract, pinned by the round-trip and corruption suites:
//!
//! * `decode(encode(records)) == records` bit-identically, including
//!   non-monotone timestamps (the wrap-around delta reproduces them
//!   exactly, then the shared [`TimePass`](pstrace_wire::TimePass)
//!   reclassifies them the same way v1 does);
//! * one flipped bit never panics and damages at most one sync block
//!   (≤ `sync_every` records) — checksummed blocks with marker-based
//!   resync cap error propagation just like v1's fixed-width frame
//!   boundaries, at a fraction of the wire size;
//! * v1 files keep decoding byte-identically through the same entry
//!   points ([`read_ptw_auto`] routes by version).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod container;
pub mod flight;
mod v2;

pub use container::{decode_ptw_payload, profile_for, read_ptw_auto, write_ptw_profile};
pub use v2::{
    decode_v2, encode_v2, fnv32, ProfileV2, V2StreamDecoder, BLOCK_HEADER_BYTES,
    DEFAULT_SYNC_EVERY, MIN_BLOCK_BYTES, SYNC_MARKER,
};
