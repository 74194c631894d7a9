//! Wire-format capture: the encode path beside [`capture`](crate::capture).
//!
//! Where [`capture`](crate::capture) models the trace buffer at the record
//! level (what survives), this module runs the same records through the
//! bit-level wire codec of `pstrace-wire`: [`encode_events`] hands the
//! admitted records to a payload profile (v1 fixed-width frames or the
//! codec's v2 sync blocks), and decoding its read-out reconstructs the
//! capture. The two paths share one capture rule
//! ([`TraceBufferConfig::admit`]) and one record type ([`WireRecord`]) but
//! not the circular truncation, which [`capture`](crate::capture) applies
//! on its own, so for any simulation, configuration and profile
//! `decode(encode(events)) == capture(events)` bit-for-bit checks the wire
//! crate's retention rule against an independent oracle.

use pstrace_flow::MessageCatalog;
use pstrace_wire::{decode_with, DecodeReport, EncodedStream, FrameProfile, WireSchema};
// Re-exported only for the crates that reach the wire codec through
// this one: `pstrace-diag` and `pstrace-cli` have no `pstrace-wire`
// dependency. Everything else imports these from `pstrace_wire`.
pub use pstrace_wire::{
    overwritten, read_ptw_any, write_ptw_with, ProfileV1, PtwMeta, WireError, WireRecord,
    SYNC_EVERY_RANGE,
};

use crate::engine::MessageEvent;
use crate::protocol::SocModel;
use crate::trace::{admitted, CapturedTrace, TraceBufferConfig};

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

/// Encodes a raw event stream under `profile`: passes each event
/// through the capture rule [`TraceBufferConfig::admit`], then hands the
/// survivors to the profile, which keeps the newest `config.depth` of
/// them (the wire crate's one circular-buffer rule). The capture and
/// retention semantics are profile-independent; only the bit layout
/// differs.
///
/// # Errors
///
/// The first per-record [`WireError`] (a record whose message has no
/// slot, or a field overflowing its width) — identical across profiles.
///
/// # Panics
///
/// Panics when `config.depth` is `Some(0)` — the same contract as
/// [`TraceBufferConfig::with_depth`].
pub fn encode_events(
    catalog: &MessageCatalog,
    schema: &WireSchema,
    events: &[MessageEvent],
    config: &TraceBufferConfig,
    profile: &dyn FrameProfile,
) -> Result<EncodedStream, WireError> {
    let records = admitted(catalog, config, events);
    profile.encode(schema, &records, config.depth)
}

/// Decodes a wire stream under `profile` back into a [`CapturedTrace`],
/// with the decode report alongside (damaged frames, idle frames,
/// measured utilization). Corruption surfaces in the report's damage
/// list under either profile, never as a panic.
///
/// The surviving records move into the returned trace, so the report
/// carries the counts and the damage list but no records. On a clean
/// stream produced by [`encode_events`] under the same profile the trace
/// equals the original capture.
#[must_use]
pub fn decode_capture(
    schema: &WireSchema,
    bytes: &[u8],
    bit_len: Option<u64>,
    profile: &dyn FrameProfile,
) -> (CapturedTrace, DecodeReport) {
    let mut report = decode_with(profile, schema, bytes, bit_len);
    let records = std::mem::take(&mut report.records);
    (CapturedTrace::from_records(records), report)
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
        let (model, out, mut config) = setup();
        for depth in [None, Some(5), Some(1)] {
            config.depth = depth;
            let schema = wire_schema(&model, &config, 32).unwrap();
            let direct = capture(&model, &out, &config);
            let stream =
                encode_events(model.catalog(), &schema, &out.events, &config, &ProfileV1).unwrap();
            let (decoded, report) =
                decode_capture(&schema, &stream.bytes, Some(stream.bit_len), &ProfileV1);
            assert!(report.is_clean());
            assert_eq!(decoded, direct);
        }
    }
}
