//! Profile-aware `.ptw` container I/O.
//!
//! `pstrace-wire`'s decoding readers are v1-only (they report
//! [`WireError::UnsupportedProfile`] for compressed payloads); its
//! [`read_ptw_any`](pstrace_wire::read_ptw_any) parses the shared header
//! of any version. This module is the version-negotiating layer on top:
//! it looks at the `version` byte and routes the payload to the matching
//! [`FrameProfile`] — which is how `trace decode`, the miner, and the
//! replay client read *any* `.ptw` without caring which dialect wrote
//! it.

use pstrace_flow::MessageCatalog;
use pstrace_wire::{
    decode_with, write_ptw_with, DecodeReport, EncodedStream, FrameProfile, ProfileV1, PtwMeta,
    WireError, WireRecord, WireSchema, PTW_VERSION, PTW_VERSION_V2,
};

use crate::v2::ProfileV2;

/// The profile a parsed container header names — the one place a
/// version byte chooses a dialect.
///
/// # Panics
///
/// Panics on a version outside the supported range — header parsing
/// already rejected those, so hitting this is a caller bug.
#[must_use]
pub fn profile_for(meta: PtwMeta) -> Box<dyn FrameProfile> {
    match meta.version {
        PTW_VERSION => Box::new(ProfileV1),
        PTW_VERSION_V2 => Box::new(ProfileV2 {
            sync_every: meta.sync_every,
        }),
        v => panic!("profile_for on unvalidated version {v}"),
    }
}

/// Serializes records into a complete `.ptw` container under `profile`.
///
/// # Errors
///
/// The profile's per-record encoding errors ([`WireError`]).
pub fn write_ptw_profile(
    catalog: &MessageCatalog,
    schema: &WireSchema,
    profile: &dyn FrameProfile,
    records: &[WireRecord],
    depth: Option<usize>,
) -> Result<Vec<u8>, WireError> {
    let stream = profile.encode(schema, records, depth)?;
    Ok(write_ptw_with(catalog, schema, profile.meta(), &stream))
}

/// Decodes an already-extracted payload stream under the profile `meta`
/// names. Exposed separately so callers holding a parsed container (e.g.
/// the replay client) can decode without reparsing the header.
#[must_use]
pub fn decode_ptw_payload(
    schema: &WireSchema,
    meta: PtwMeta,
    stream: &EncodedStream,
) -> DecodeReport {
    decode_with(
        &*profile_for(meta),
        schema,
        &stream.bytes,
        Some(stream.bit_len),
    )
}
