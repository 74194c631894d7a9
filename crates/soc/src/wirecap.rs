//! Wire-format capture: the encode path beside [`capture`](crate::capture).
//!
//! Where [`capture`](crate::capture) models the trace buffer at the record
//! level (what survives), this module runs the same filtering through the
//! bit-level wire codec of `pstrace-wire`: events become fixed-width
//! frames in a circular frame ring, and decoding the ring's read-out
//! reconstructs the capture. The two paths share one record filter
//! (`trace::record_for_event`), so for any simulation and configuration
//! `decode(encode(events)) == capture(events)` bit-for-bit — including
//! circular truncation to the newest `depth` records.

use pstrace_flow::MessageCatalog;
use pstrace_wire::decode_with;
pub use pstrace_wire::{
    read_ptw, read_ptw_any, write_ptw, write_ptw_with, DamageReason, DamagedFrame, DecodeReport,
    EncodedStream, Encoder, FrameProfile, ProfileV1, PtwMeta, StreamDecoder, WireError, WireRecord,
    WireSchema, PTW_VERSION_V2, SYNC_EVERY_RANGE,
};

use crate::engine::MessageEvent;
use crate::protocol::SocModel;
use crate::trace::{record_for_event, CapturedTrace, TraceBufferConfig, TraceRecord};

/// Builds the wire schema of a trace-buffer configuration over a
/// `body_width`-bit buffer: one lane per fully traced message in
/// configuration order, then one lane per packed subgroup.
///
/// # Errors
///
/// Propagates [`WireSchema::new`] errors (zero body width, lanes
/// exceeding the body).
pub fn wire_schema(
    model: &SocModel,
    config: &TraceBufferConfig,
    body_width: u32,
) -> Result<WireSchema, WireError> {
    WireSchema::new(
        model.catalog(),
        &config.messages,
        &config.groups,
        body_width,
    )
}

fn to_wire(r: &TraceRecord) -> WireRecord {
    WireRecord {
        time: r.time,
        message: r.message,
        value: r.value,
        partial: r.partial,
    }
}

fn to_trace(r: &WireRecord) -> TraceRecord {
    TraceRecord {
        time: r.time,
        message: r.message,
        value: r.value,
        partial: r.partial,
    }
}

/// Encodes an already-captured trace into a wire stream through a
/// circular frame ring of `depth` frames (`None` = unbounded).
///
/// # Errors
///
/// Returns the first per-record [`WireError`] (a record whose message has
/// no slot, or a field overflowing its width).
///
/// # Panics
///
/// Panics on `depth == Some(0)` — the same contract as
/// [`TraceBufferConfig::with_depth`].
pub fn encode_capture(
    schema: &WireSchema,
    trace: &CapturedTrace,
    depth: Option<usize>,
) -> Result<EncodedStream, WireError> {
    let mut enc = Encoder::new(schema, depth);
    for r in trace.records() {
        enc.push(&to_wire(r))?;
    }
    Ok(enc.finish())
}

/// Encodes a raw event stream directly: filters each event through the
/// capture semantics of `config` (full messages win, widest subgroup
/// truncates) and frames the survivors through a circular ring of
/// `config.depth` frames. Equivalent to
/// `encode_capture(schema, capture_events(...), config.depth)` but
/// without materializing the intermediate trace.
///
/// # Errors
///
/// Returns the first per-record [`WireError`].
///
/// # Panics
///
/// Panics when `config.depth` is `Some(0)`.
pub fn encode_events(
    catalog: &MessageCatalog,
    schema: &WireSchema,
    events: &[MessageEvent],
    config: &TraceBufferConfig,
) -> Result<EncodedStream, WireError> {
    let mut enc = Encoder::new(schema, config.depth);
    for e in events {
        if let Some(r) = record_for_event(catalog, config, e) {
            enc.push(&to_wire(&r))?;
        }
    }
    Ok(enc.finish())
}

/// Decodes a wire stream under `profile` back into a [`CapturedTrace`],
/// with the decode report alongside (damaged frames, idle frames,
/// measured utilization). Corruption surfaces in the report's damage
/// list under either profile, never as a panic.
///
/// The records of the returned trace are exactly the report's surviving
/// records; on a clean stream produced by [`encode_capture`] (v1) or
/// [`encode_capture_with`] they equal the original capture.
#[must_use]
pub fn decode_capture(
    schema: &WireSchema,
    bytes: &[u8],
    bit_len: Option<u64>,
    profile: &dyn FrameProfile,
) -> (CapturedTrace, DecodeReport) {
    let report = decode_with(profile, schema, bytes, bit_len);
    let trace = CapturedTrace::from_records(report.records.iter().map(to_trace).collect());
    (trace, report)
}

/// [`encode_capture`] under an explicit payload profile: the identity
/// v1 dialect, or the compressed v2 dialect of `pstrace-codec`. The
/// capture/retention semantics (circular `depth`, record filtering) are
/// profile-independent; only the bit layout differs.
///
/// # Errors
///
/// The profile's per-record [`WireError`]s — identical across profiles.
///
/// # Panics
///
/// Panics on `depth == Some(0)`.
pub fn encode_capture_with(
    schema: &WireSchema,
    trace: &CapturedTrace,
    depth: Option<usize>,
    profile: &dyn FrameProfile,
) -> Result<EncodedStream, WireError> {
    let records: Vec<WireRecord> = trace.records().iter().map(to_wire).collect();
    profile.encode(schema, &records, depth)
}

/// [`encode_events`] under an explicit payload profile.
///
/// # Errors
///
/// The profile's per-record [`WireError`]s.
///
/// # Panics
///
/// Panics when `config.depth` is `Some(0)`.
pub fn encode_events_with(
    catalog: &MessageCatalog,
    schema: &WireSchema,
    events: &[MessageEvent],
    config: &TraceBufferConfig,
    profile: &dyn FrameProfile,
) -> Result<EncodedStream, WireError> {
    let records: Vec<WireRecord> = events
        .iter()
        .filter_map(|e| record_for_event(catalog, config, e))
        .map(|r| to_wire(&r))
        .collect();
    profile.encode(schema, &records, config.depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use crate::scenario::UsageScenario;
    use crate::trace::capture;

    fn setup() -> (SocModel, crate::engine::SimOutcome, TraceBufferConfig) {
        let model = SocModel::t2();
        let out = Simulator::new(&model, UsageScenario::scenario1(), SimConfig::with_seed(7)).run();
        let catalog = model.catalog();
        let config = TraceBufferConfig {
            messages: vec![
                catalog.get("siincu").unwrap(),
                catalog.get("piowcrd").unwrap(),
            ],
            groups: vec![catalog.get_group("dmusiidata.cputhreadid").unwrap()],
            depth: None,
        };
        (model, out, config)
    }

    #[test]
    fn encode_decode_is_capture() {
        let (model, out, config) = setup();
        let schema = wire_schema(&model, &config, 32).unwrap();
        let direct = capture(&model, &out, &config);
        let stream = encode_events(model.catalog(), &schema, &out.events, &config).unwrap();
        let (decoded, report) =
            decode_capture(&schema, &stream.bytes, Some(stream.bit_len), &ProfileV1);
        assert!(report.is_clean());
        assert_eq!(decoded, direct);
    }

    #[test]
    fn profile_v1_paths_are_byte_identical_to_the_direct_paths() {
        let (model, out, mut config) = setup();
        config.depth = Some(5);
        let schema = wire_schema(&model, &config, 32).unwrap();
        let direct = capture(&model, &out, &config);
        let plain = encode_capture(&schema, &direct, config.depth).unwrap();
        let via_profile = encode_capture_with(&schema, &direct, config.depth, &ProfileV1).unwrap();
        assert_eq!(via_profile, plain);
        let via_events =
            encode_events_with(model.catalog(), &schema, &out.events, &config, &ProfileV1).unwrap();
        assert_eq!(via_events, plain);
        let (decoded, report) =
            decode_capture(&schema, &plain.bytes, Some(plain.bit_len), &ProfileV1);
        assert!(report.is_clean());
        assert_eq!(decoded, direct);
    }

    #[test]
    fn encode_capture_matches_encode_events() {
        let (model, out, mut config) = setup();
        config.depth = Some(3);
        let schema = wire_schema(&model, &config, 32).unwrap();
        let direct = capture(&model, &out, &config);
        let via_trace = encode_capture(&schema, &direct, config.depth).unwrap();
        let via_events = encode_events(model.catalog(), &schema, &out.events, &config).unwrap();
        assert_eq!(via_trace, via_events);
    }
}
