//! The synthetic scenario-1 capture that the soak, the crash harness,
//! the ingest benches and the daemon-driving tests all replay.
//!
//! [`slot_cycling_records`] is the one record generator and [`Fixture`]
//! the one capture built on it: the scenario-1 selection over the
//! paper's 32-bit buffer, its wire schema, the encoded stream, the
//! `.ptw` container and the batch pipeline's localization line for it.
//! The chaos ledger fingerprint and every soak verdict are pinned
//! against this capture, so there is exactly one copy of it.

use std::net::SocketAddr;
use std::sync::Arc;

use pstrace_core::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace_diag::{localize, MatchMode};
use pstrace_flow::{FlowIndex, IndexedMessage, InterleavedFlow};
use pstrace_soc::{wirecap, SocModel, TraceBufferConfig, UsageScenario};
use pstrace_stream::{connect, observed_messages, replay, Replay};
use pstrace_wire::{
    decode_with, encode_records, write_ptw, EncodedStream, ProfileV1, WireRecord, WireSchema,
};

/// `n` synthetic records over `schema`: record `i` sits on slot
/// `i % slots`, flow instance `1 + i % 3`, at time `i`, and carries
/// `i · 0x9e37` masked to the slot's width. Every slot (full and
/// partial) is exercised in turn, and every value fits its lane.
#[must_use]
pub fn slot_cycling_records(schema: &WireSchema, n: usize) -> Vec<WireRecord> {
    let slots = schema.slots();
    (0..n)
        .map(|i| {
            let slot = &slots[i % slots.len()];
            WireRecord {
                time: i as u64,
                message: IndexedMessage::new(slot.message, FlowIndex(1 + (i % 3) as u32)),
                value: (i as u64 * 0x9e37) & ((1u64 << slot.width) - 1),
                partial: slot.is_partial(),
            }
        })
        .collect()
}

/// A synthetic scenario-1 capture: the interleaved flow, the wire
/// schema of its 32-bit selection, [`slot_cycling_records`] encoded as
/// v1 frames and wrapped in a `.ptw` container, and the localization
/// line the batch pipeline prints for it — the line a clean session
/// replayed to a daemon must reproduce bit for bit.
#[derive(Debug)]
pub struct Fixture {
    /// The SoC model the capture is drawn from.
    pub model: Arc<SocModel>,
    /// Scenario 1's interleaved flow.
    pub flow: InterleavedFlow,
    /// The wire schema of the 32-bit selection.
    pub schema: WireSchema,
    /// The encoded record stream.
    pub encoded: EncodedStream,
    /// The `.ptw` container of `encoded`.
    pub ptw: Vec<u8>,
    /// The batch pipeline's `  localization    : …` line for the capture.
    pub batch_localization: String,
}

impl Fixture {
    /// Builds the capture of `records` synthetic records.
    ///
    /// # Errors
    ///
    /// A description of the pipeline stage that failed (interleaving,
    /// selection, schema or encoding); none fails on the built-in model.
    pub fn new(records: usize) -> Result<Fixture, String> {
        let model = SocModel::t2();
        let buffer =
            TraceBufferSpec::new(32).map_err(|e| format!("trace buffer spec rejected: {e}"))?;
        let flow = UsageScenario::scenario1()
            .interleaving(&model)
            .map_err(|e| format!("scenario does not interleave: {e}"))?;
        let selection = Selector::new(&flow, SelectionConfig::new(buffer))
            .select()
            .map_err(|e| format!("selection failed: {e}"))?;
        let config = TraceBufferConfig::from_selection(&selection, None);
        let schema = wirecap::wire_schema(&model, &config, buffer.width_bits())
            .map_err(|e| format!("schema does not fit the buffer: {e}"))?;
        let stream = slot_cycling_records(&schema, records);
        let encoded = encode_records(&schema, &stream, None).map_err(|e| format!("encode: {e}"))?;
        let ptw = write_ptw(model.catalog(), &schema, &encoded);

        let report = decode_with(&ProfileV1, &schema, &encoded.bytes, Some(encoded.bit_len));
        let observed: Vec<IndexedMessage> = report.records.iter().map(|r| r.message).collect();
        let selected = observed_messages(&schema);
        let loc = localize(&flow, &observed, &selected, MatchMode::Prefix);
        let batch_localization = format!("  localization    : {loc}");

        Ok(Fixture {
            model: Arc::new(model),
            flow,
            schema,
            encoded,
            ptw,
            batch_localization,
        })
    }

    /// Replays the capture to the daemon at `addr` over one plain
    /// session: `(completed, matches_batch)`.
    pub(crate) fn probe(&self, addr: SocketAddr, chunk_bytes: usize) -> (bool, bool) {
        let plan = Replay {
            chunk_bytes,
            ..Replay::new(1, MatchMode::Prefix)
        };
        match replay(
            |_| connect(addr, &plan.policy),
            self.model.catalog(),
            &self.ptw,
            &plan,
        ) {
            Ok(report) => (true, report.contains(&self.batch_localization)),
            Err(_) => (false, false),
        }
    }
}
