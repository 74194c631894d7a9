//! Seeded inputs and the answers a correct run must give on them.
//!
//! Inputs come from the program's own simulator: simulated runs of a
//! usage scenario, one per unit or back to back, captured through the
//! trace-buffer configuration `pstrace debug` selects, then framed in
//! one of the two `.ptw` dialects. The same `--seed` always yields the
//! same bytes.
//! Every unit carries its expected report, computed in process and
//! cross-checked against the batch decoder and the batch localization DP.
//!
//! The flows are finite: one run's projection is the longest observation
//! any path produces. A unit of one whole run keeps a live localizer
//! frontier to its last record; in a unit of back-to-back runs the
//! frontier empties inside the first run and every later push lands on
//! an empty frontier.

use pstrace::codec::{decode_ptw_payload, write_ptw_profile, ProfileV2};
use pstrace::diag::{localize, Localization, MatchMode};
use pstrace::flow::InterleavedFlow;
use pstrace::select::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace::soc::value::splitmix64;
use pstrace::soc::{
    capture, wirecap, SimConfig, Simulator, SocModel, TraceBufferConfig, TraceRecord, UsageScenario,
};
use pstrace::stream::{observed_messages, Session, SessionReport};
use pstrace::wire::{
    read_ptw_any, read_ptw_header, EncodedStream, FrameProfile, ProfileV1, PtwMeta, WireRecord,
    WireSchema,
};

/// Client chunk size, the replay client's default.
pub const CHUNK_BYTES: usize = 4096;

/// How every session matches its observation (the daemon's default).
pub const MODE: MatchMode = MatchMode::Prefix;

/// Trace-buffer width, as in the paper's case studies.
pub const BUFFER_BITS: u32 = 32;

/// The seed stream of a run: draw `n` is `splitmix64` of the run's
/// hashed seed mixed with `n`, so inputs depend on `--seed` only.
pub struct Seeds {
    seed: u64,
    drawn: u64,
}

impl Seeds {
    pub fn new(seed: u64) -> Seeds {
        Seeds {
            seed: splitmix64(seed),
            drawn: 0,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.drawn += 1;
        splitmix64(self.seed ^ self.drawn)
    }
}

/// The two `.ptw` payload dialects.
#[derive(Clone, Copy)]
pub enum Dialect {
    /// Fixed-width frames.
    V1,
    /// Compressed sync blocks.
    V2,
}

impl Dialect {
    pub fn profile(self) -> Box<dyn FrameProfile> {
        match self {
            Dialect::V1 => Box::new(ProfileV1),
            Dialect::V2 => Box::new(ProfileV2::default()),
        }
    }
}

/// A scenario prepared the way `pstrace debug` prepares it: interleaved,
/// messages selected, and the selection turned into a wire schema.
pub struct Pipeline {
    pub scenario: UsageScenario,
    pub flow: InterleavedFlow,
    pub config: TraceBufferConfig,
    pub schema: WireSchema,
}

impl Pipeline {
    /// Interleaves and selects for `scenario`.
    pub fn new(model: &SocModel, scenario: UsageScenario) -> Result<Pipeline, String> {
        let flow = scenario
            .interleaving(model)
            .map_err(|e| format!("scenario does not interleave: {e}"))?;
        let buffer = TraceBufferSpec::new(BUFFER_BITS).map_err(|e| format!("buffer: {e}"))?;
        let selection = Selector::new(&flow, SelectionConfig::new(buffer))
            .select()
            .map_err(|e| format!("selection failed: {e}"))?;
        let config = TraceBufferConfig {
            messages: selection.chosen.messages.clone(),
            groups: selection.packed_groups.clone(),
            depth: None,
        };
        let schema = wirecap::wire_schema(model, &config, BUFFER_BITS)
            .map_err(|e| format!("schema does not fit the buffer: {e}"))?;
        Ok(Pipeline {
            scenario,
            flow,
            config,
            schema,
        })
    }

    /// The records one simulated run captures, under a fresh seed from
    /// `seeds`; runs that capture nothing are skipped.
    pub fn run(&self, model: &SocModel, seeds: &mut Seeds) -> Result<Vec<WireRecord>, String> {
        for _ in 0..64 {
            let sim = Simulator::new(
                model,
                self.scenario.clone(),
                SimConfig::with_seed(seeds.next_u64()),
            )
            .run();
            let trace = capture(model, &sim, &self.config);
            if !trace.is_empty() {
                return Ok(trace.records().iter().map(to_wire).collect());
            }
        }
        Err("simulated runs capture no records".to_owned())
    }

    /// `count` records of back-to-back simulated runs, each shifted to
    /// start after the previous one.
    pub fn records(
        &self,
        model: &SocModel,
        seeds: &mut Seeds,
        count: usize,
    ) -> Result<Vec<WireRecord>, String> {
        let mut out = Vec::with_capacity(count + 64);
        let mut base = 0u64;
        while out.len() < count {
            let mut last = base;
            for r in self.run(model, seeds)? {
                last = base + r.time;
                out.push(WireRecord { time: last, ..r });
            }
            base = last + 1 + seeds.next_u64() % 64;
        }
        out.truncate(count);
        Ok(out)
    }
}

/// A captured record as the wire encoder takes it.
fn to_wire(r: &TraceRecord) -> WireRecord {
    WireRecord {
        time: r.time,
        message: r.message,
        value: r.value,
        partial: r.partial,
    }
}

/// One session's worth of input with the report a correct ingest gives.
pub struct Unit {
    pub scenario: u8,
    pub records: Vec<WireRecord>,
    /// The whole `.ptw` container, as the replay client sends it.
    pub ptw: Vec<u8>,
    /// Length of the container header (the PSTS hello's schema bytes).
    pub header_len: usize,
    pub meta: PtwMeta,
    pub stream: EncodedStream,
    /// The deterministic lines of the session report (see [`report_body`]).
    pub expect: String,
    pub localization: Localization,
}

impl Unit {
    /// Encodes `records` and computes the report a correct ingest gives.
    /// A unit of `one_run` must localize to at least one path.
    pub fn new(
        model: &SocModel,
        pipeline: &Pipeline,
        records: Vec<WireRecord>,
        dialect: Dialect,
        one_run: bool,
    ) -> Result<Unit, String> {
        let catalog = model.catalog();
        let profile = dialect.profile();
        let ptw = write_ptw_profile(catalog, &pipeline.schema, profile.as_ref(), &records, None)
            .map_err(|e| format!("encode: {e}"))?;
        let (_, meta, header_len) =
            read_ptw_header(catalog, &ptw).map_err(|e| format!("header: {e}"))?;
        let (schema, _, stream) = read_ptw_any(catalog, &ptw).map_err(|e| format!("ptw: {e}"))?;

        let report = feed(
            Session::with_meta(&pipeline.flow, schema.clone(), meta, MODE),
            &stream,
        );
        // The batch decoder and the batch DP must agree with the session.
        let batch = decode_ptw_payload(&schema, meta, &stream);
        let observed: Vec<_> = batch.records.iter().map(|r| r.message).collect();
        let loc = localize(&pipeline.flow, &observed, &observed_messages(&schema), MODE);
        if loc != report.localization || observed.len() != report.metrics.records {
            return Err(format!(
                "in-process session disagrees with batch: {} records / {} consistent vs {} / {}",
                report.metrics.records,
                report.localization.consistent,
                observed.len(),
                loc.consistent
            ));
        }
        if one_run && loc.consistent == 0 {
            return Err("a unit of one whole run localizes to no path".to_owned());
        }
        Ok(Unit {
            scenario: pipeline.scenario.number(),
            records,
            ptw,
            header_len,
            meta,
            stream,
            expect: report_body(&report.render()),
            localization: loc,
        })
    }
}

/// Feeds a payload to an open session, chunked exactly as the client
/// chunks it, and finishes it.
pub fn feed(mut session: Session, stream: &EncodedStream) -> SessionReport {
    for chunk in stream.bytes.chunks(CHUNK_BYTES) {
        session.push_chunk(chunk);
    }
    session.finish(Some(stream.bit_len))
}

/// The deterministic part of a session report: every indented line but
/// the ingest line, which carries a wall-clock rate.
pub fn report_body(text: &str) -> String {
    text.lines()
        .filter(|l| l.starts_with("  ") && !l.starts_with("  ingest"))
        .collect::<Vec<_>>()
        .join("\n")
}
