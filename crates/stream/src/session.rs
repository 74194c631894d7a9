//! One ingest session: chunked wire bytes in, live localization out.
//!
//! A [`Session`] owns the receiving half of the streaming pipeline:
//!
//! * it pushes incoming chunk bytes into the dialect's
//!   [`RecordDecoder`] — the very decoder a batch decode runs — which
//!   decodes every frame or block the moment its last byte lands;
//! * it runs the batch decoder's [`TimePass::run`] over each drained chunk,
//!   so a record is only committed once its successor confirms it was
//!   not an isolated forward time spike, and the committed record
//!   sequence is bit-identical to [`pstrace_wire::decode_with`]'s on
//!   every finished stream;
//! * each committed record is folded into an
//!   [`OnlineLocalizer`](pstrace_diag::OnlineLocalizer), so the
//!   consistent-path count is live at every chunk boundary instead of
//!   appearing only after a batch re-run;
//! * bound to a [`SessionSeries`], it feeds a registry's aggregate
//!   counters and frontier gauges once per chunk, through handles
//!   resolved once per registry. Its own counts stay in its
//!   [`SessionReport`] and its flight events, where it notes its first
//!   few damaged frames and then one `damage-elided`.

use std::sync::Arc;
use std::time::Instant;

use pstrace_codec::profile_for;
use pstrace_diag::{FrontierGauges, Localization, LocalizerProgram, MatchMode, OnlineLocalizer};
use pstrace_flow::{InterleavedFlow, MessageId};
use pstrace_obs::{Counter, EventKind, FlightHandle, Registry};
use pstrace_wire::{
    DamageReason, DamagedFrame, Decoded, PtwMeta, RecordDecoder, TimePass, WireSchema,
};

/// The message set a schema observes, as the localization DP needs it:
/// one entry per slot's (parent) message, sorted and deduplicated —
/// exactly the selection pipeline's `effective_messages` for the
/// selection that produced the schema.
#[must_use]
pub fn observed_messages(schema: &WireSchema) -> Vec<MessageId> {
    let mut messages: Vec<MessageId> = schema.slots().iter().map(|s| s.message).collect();
    messages.sort_unstable();
    messages.dedup();
    messages
}

/// Live counters of one session, updated at every chunk boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Raw stream bytes ingested.
    pub bytes: u64,
    /// Chunks pushed.
    pub chunks: u64,
    /// Complete frames decoded.
    pub frames: usize,
    /// Idle (all-zero) frames among them.
    pub idle_frames: usize,
    /// Records committed to the localizer.
    pub records: usize,
    /// Frames rejected by validation or the monotonicity pass.
    pub damaged_frames: usize,
}

/// Everything a finished session measured.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The final counters.
    pub metrics: SessionMetrics,
    /// Damaged frames with reasons, sorted by frame index.
    pub damaged: Vec<DamagedFrame>,
    /// The final localization.
    pub localization: Localization,
    /// Times the localizer re-anchored after damage emptied its
    /// frontier (see [`OnlineLocalizer::resync`]).
    pub resyncs: usize,
    /// When resyncs happened: records before this index are unknown to
    /// the final localization.
    pub unknown_since: Option<usize>,
    /// The match mode the session localized under.
    pub mode: MatchMode,
    /// Schema-declared per-frame utilization.
    pub utilization: f64,
    /// Ingest throughput in bytes per second of wall-clock session time.
    pub bytes_per_sec: f64,
}

impl SessionReport {
    /// Renders the session as a short narrative. The localization line
    /// is formatted exactly like the `debug` subcommand's, so a live
    /// session and a batch case study tell the same story.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let m = &self.metrics;
        let _ = writeln!(
            out,
            "  ingest          : {} bytes in {} chunks ({:.0} B/s)",
            m.bytes, m.chunks, self.bytes_per_sec
        );
        let _ = writeln!(
            out,
            "  frames          : {} decoded, {} idle, {} damaged, {} records ({:.2}% utilization)",
            m.frames,
            m.idle_frames,
            m.damaged_frames,
            m.records,
            self.utilization * 100.0
        );
        for d in &self.damaged {
            let _ = writeln!(out, "    damaged frame {}: {}", d.frame, d.reason);
        }
        if self.resyncs > 0 {
            let since = self.unknown_since.unwrap_or(0);
            let _ = writeln!(
                out,
                "  resync          : {} localizer resync{} after damage; paths unknown before record {}",
                self.resyncs,
                if self.resyncs == 1 { "" } else { "s" },
                since
            );
        }
        let _ = writeln!(out, "  localization    : {}", self.localization);
        out
    }
}

/// The aggregate series the sessions observed into one registry feed,
/// resolved once (a daemon shard resolves its own when it starts), so
/// binding a session and publishing touch no registry lock. The registry
/// holds aggregates only: a session's own counts live in its report and
/// its flight timeline. The per-record hot path touches no counter at
/// all: the byte, chunk, frame and record counters are bumped once per
/// drained chunk (and once more at `finish`), by what that chunk added —
/// the cadence of the frontier gauges.
#[derive(Debug)]
pub struct SessionSeries {
    registry: Arc<Registry>,
    bytes: Counter,
    chunks: Counter,
    frames: Counter,
    records: Counter,
    idle_frames: Counter,
    frontier: FrontierGauges,
}

impl SessionSeries {
    /// Resolves (registering on first use) the ingest counters and the
    /// localizer's frontier gauges in `registry`.
    #[must_use]
    pub fn new(registry: Arc<Registry>) -> Self {
        SessionSeries {
            bytes: registry.counter("pstrace_stream_bytes_total"),
            chunks: registry.counter("pstrace_stream_chunks_total"),
            frames: registry.counter("pstrace_stream_frames_total"),
            records: registry.counter("pstrace_stream_records_total"),
            idle_frames: registry.counter("pstrace_stream_idle_frames_total"),
            frontier: FrontierGauges::new(&registry),
            registry,
        }
    }

    /// Damage is rare, so the per-reason labeled counter is resolved on
    /// the spot rather than pre-registered for all six reasons.
    fn damage(&self, reason: &DamageReason) {
        self.registry
            .counter_with(
                "pstrace_stream_damaged_frames_total",
                &[("reason", reason.label())],
            )
            .inc();
    }

    /// Marks one designed degradation-path activation
    /// (`pstrace_degradation_events_total{path=…}`).
    fn degrade(&self, path: &str) {
        self.registry
            .counter_with("pstrace_degradation_events_total", &[("path", path)])
            .inc();
    }
}

/// How many damaged frames of one session the flight journal notes one
/// `Damage` event each; past them, one `damage-elided` event stands for
/// the rest. The report and the damage counters stay exact, while a
/// damage storm cannot overwrite its shard's lane.
const DAMAGE_EVENTS_NOTED: usize = 16;

/// The per-session state machine: the dialect's decoder, the time pass,
/// and the online localizer.
#[derive(Debug)]
pub struct Session {
    localizer: OnlineLocalizer,
    /// The one incremental decoder of the handshaken dialect; it owns
    /// the schema and keeps only the bytes it has not consumed.
    decoder: Box<dyn RecordDecoder>,
    /// The drain buffer, reused chunk after chunk.
    decoded: Decoded,
    /// Holds the newest record back one step so an isolated forward time
    /// spike can still be reclassified as damage before it reaches the
    /// localizer (the localizer cannot un-push).
    time: TimePass,
    /// Frames (v2: sync blocks) decoded so far.
    frames: usize,
    idle_frames: usize,
    damaged: Vec<DamagedFrame>,
    /// Damaged frames seen since the last localizer resync — the gate
    /// that keeps clean-but-inconsistent streams from ever resyncing.
    damage_since_resync: usize,
    records: usize,
    bytes: u64,
    chunks: u64,
    started: Instant,
    obs: Option<Arc<SessionSeries>>,
    /// Committed records already added to the record counter.
    published_records: usize,
    /// Flight-recorder context: damage and resync events are journaled
    /// under the session's trace-context id when bound.
    flight: Option<FlightHandle>,
}

impl Session {
    /// A session localizing over `flow` with the handshaken `schema`.
    /// The observed message set is derived from the schema's slots; the
    /// localizer program is compiled once here, so pushes never touch
    /// `flow` again (except in [`MatchMode::Substring`], whose program
    /// keeps one shared copy).
    #[must_use]
    pub fn new(flow: &InterleavedFlow, schema: WireSchema, mode: MatchMode) -> Self {
        Session::with_meta(flow, schema, PtwMeta::v1(), mode)
    }

    /// [`new`](Session::new) for an explicit container profile: the meta
    /// picks the dialect's decoder. The time pass, damage accounting,
    /// resync gate, and localizer behave identically for every dialect.
    #[must_use]
    pub fn with_meta(
        flow: &InterleavedFlow,
        schema: WireSchema,
        meta: PtwMeta,
        mode: MatchMode,
    ) -> Self {
        let program = OnlineLocalizer::compile(flow, &observed_messages(&schema), mode);
        Session::from_program(program, schema, meta)
    }

    /// A session over an already compiled localizer program — the one
    /// construction path: [`with_meta`](Session::with_meta) compiles and
    /// lands here, and the daemon lands here with a program from its
    /// per-daemon cache. `program` must have been compiled for
    /// [`observed_messages`]`(&schema)`; the match mode is the program's.
    #[must_use]
    pub fn from_program(program: Arc<LocalizerProgram>, schema: WireSchema, meta: PtwMeta) -> Self {
        debug_assert_eq!(
            program.selected(),
            observed_messages(&schema).as_slice(),
            "program compiled for another selected set"
        );
        Session {
            localizer: OnlineLocalizer::from_program(program),
            decoder: profile_for(meta).decoder(&schema),
            decoded: Decoded::default(),
            time: TimePass::default(),
            frames: 0,
            idle_frames: 0,
            damaged: Vec::new(),
            damage_since_resync: 0,
            records: 0,
            bytes: 0,
            chunks: 0,
            started: Instant::now(),
            obs: None,
            published_records: 0,
            flight: None,
        }
    }

    /// Binds the session to a flight-recorder identity: decoder damage
    /// and localizer resyncs become journal events under its trace id.
    pub fn set_flight(&mut self, flight: FlightHandle) {
        self.flight = Some(flight);
    }

    /// Wires the session into a registry's aggregate series: the
    /// ingest/frame/record counters, the per-reason damage counters and
    /// the localizer's frontier gauges, refreshed at every chunk
    /// boundary. Ingest results are identical with and without them.
    pub fn set_series(&mut self, series: Arc<SessionSeries>) {
        self.obs = Some(series);
    }

    /// Zeroes the frontier gauges this session publishes: it stopped
    /// streaming (finished, failed or parked). Stale state would read as
    /// current and sum wrongly across shards.
    pub fn clear_frontier(&self) {
        if let Some(o) = &self.obs {
            o.frontier.clear();
        }
    }

    /// Adds the records committed since the last call to the record
    /// counter: once per drained chunk, not per record.
    fn publish_records(&mut self) {
        if let Some(o) = &self.obs {
            o.records
                .add((self.records - self.published_records) as u64);
            self.published_records = self.records;
        }
    }

    /// Accounts one damaged frame. Its flight event is one of the first
    /// [`DAMAGE_EVENTS_NOTED`], or the one `damage-elided` after them.
    fn record_damage(&mut self, damaged: DamagedFrame) {
        if let Some(o) = &self.obs {
            o.damage(&damaged.reason);
        }
        if let Some(f) = &self.flight {
            match self.damaged.len() {
                n if n < DAMAGE_EVENTS_NOTED => f.note(EventKind::Damage, damaged.reason.label()),
                DAMAGE_EVENTS_NOTED => f.note(EventKind::Damage, "damage-elided"),
                _ => {}
            }
        }
        self.damage_since_resync += 1;
        self.damaged.push(damaged);
    }

    /// The self-healing gate, checked at chunk boundaries: when damage
    /// has emptied the frontier (`consistent == 0` *and* frames were
    /// damaged since the last resync), re-anchor the localizer so it
    /// re-narrows over what follows instead of staying empty forever.
    /// A clean stream — even one whose trace is genuinely inconsistent
    /// with every path — never trips the gate, so undamaged sessions
    /// stay bit-identical to batch localization.
    fn maybe_resync(&mut self) {
        if self.damage_since_resync == 0 || self.localizer.consistent() != 0 {
            return;
        }
        self.localizer.resync();
        self.damage_since_resync = 0;
        if let Some(f) = &self.flight {
            f.note(EventKind::Resync, "localizer-resync");
        }
        if let Some(o) = &self.obs {
            o.degrade("localizer-resync");
            // One Degradation journal event per counter increment, so
            // dumps and the exposition cross-check.
            if let Some(f) = &self.flight {
                f.note(EventKind::Degradation, "localizer-resync");
            }
        }
    }

    /// Drains the decoder and folds what it decoded into the session:
    /// the time pass runs over the whole batch, then the damage (the
    /// decoder's, then the time pass's) is recorded and the confirmed
    /// records are committed to the localizer.
    fn absorb(&mut self) {
        let mut decoded = std::mem::take(&mut self.decoded);
        self.decoder.drain(&mut decoded);
        self.time.run(&mut decoded.events, &mut decoded.damaged);
        for d in decoded.damaged.drain(..) {
            self.record_damage(d);
        }
        self.localizer
            .push_all(decoded.events.iter().map(|(_, rec)| rec.message));
        self.records += decoded.events.len();
        decoded.events.clear();
        self.decoded = decoded;
        self.publish_records();
        let frames = self.decoder.frames();
        if let Some(o) = &self.obs {
            o.frames.add(frames.saturating_sub(self.frames) as u64);
        }
        self.frames = frames;
        self.idle_frames = self.decoder.idle_frames();
    }

    /// Feeds one chunk of raw stream bytes, decoding and localizing
    /// every frame the chunk completes.
    pub fn push_chunk(&mut self, bytes: &[u8]) {
        self.bytes += bytes.len() as u64;
        self.chunks += 1;
        if let Some(o) = &self.obs {
            o.bytes.add(bytes.len() as u64);
            o.chunks.inc();
        }
        self.decoder.push(bytes);
        self.absorb();
        self.maybe_resync();
        if let Some(o) = &self.obs {
            // Refresh the live frontier gauges once per chunk, not per
            // record — the gauge write is cheap but the chunk boundary is
            // the natural dashboard cadence.
            self.localizer.record_frontier(&o.frontier);
        }
    }

    /// The live counters as of the last chunk.
    #[must_use]
    pub fn metrics(&self) -> SessionMetrics {
        SessionMetrics {
            bytes: self.bytes,
            chunks: self.chunks,
            frames: self.frames,
            idle_frames: self.idle_frames,
            records: self.records + usize::from(self.time.is_holding()),
            damaged_frames: self.damaged.len(),
        }
    }

    /// The live localization. The quarantined newest record is *not*
    /// reflected yet — it may still turn out to be a time spike.
    #[must_use]
    pub fn localization(&self) -> Localization {
        self.localizer.localization()
    }

    /// The schema this session decodes with.
    #[must_use]
    pub fn schema(&self) -> &WireSchema {
        self.decoder.schema()
    }

    /// Finishes the stream: flushes the quarantined record, truncates to
    /// the declared `bit_len` when given, and produces the report.
    #[must_use]
    pub fn finish(mut self, bit_len: Option<u64>) -> SessionReport {
        // The decoder flushes its tail (a truncated v2 block or trailing
        // junk becomes damage) and learns the declared end.
        let end = self.decoder.finish(bit_len, &mut self.decoded);
        self.absorb();
        // A declared length that undercuts the pushed bytes drops what
        // was decoded past it. Committed records are already inside the
        // localizer and cannot be dropped; declaring a shorter stream
        // than was pushed is a caller error the report keeps visible via
        // the frame counters.
        self.damaged.retain(|d| d.frame < end.end);
        if let Some(r) = self.time.flush(end.end) {
            self.localizer.push(r.message);
            self.records += 1;
            self.publish_records();
        }
        self.maybe_resync();
        self.damaged.sort_by_key(|d| d.frame);
        if let Some(o) = &self.obs {
            o.idle_frames.add(self.idle_frames as u64);
        }
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        SessionReport {
            metrics: self.metrics(),
            localization: self.localizer.localization(),
            resyncs: self.localizer.resyncs(),
            unknown_since: self.localizer.unknown_since(),
            mode: self.localizer.mode(),
            utilization: self.decoder.schema().utilization(),
            bytes_per_sec: self.bytes as f64 / elapsed,
            damaged: self.damaged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_flow::{examples::cache_coherence, instantiate, IndexedMessage};
    use pstrace_wire::{decode_with, encode_records, ProfileV1, WireRecord};
    use std::sync::Arc;

    fn setup() -> (InterleavedFlow, WireSchema) {
        let (flow, catalog) = cache_coherence();
        let u = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap();
        let req = catalog.get("ReqE").unwrap();
        let gnt = catalog.get("GntE").unwrap();
        let schema = WireSchema::new(&catalog, &[req, gnt], &[], 4).unwrap();
        (u, schema)
    }

    fn records(u: &InterleavedFlow) -> Vec<WireRecord> {
        // Project the first execution onto the observed set, stamping
        // strictly increasing times.
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        pstrace_flow::executions(u)
            .next()
            .unwrap()
            .project(&selected)
            .into_iter()
            .enumerate()
            .map(|(i, message)| WireRecord {
                time: i as u64 * 5,
                message,
                value: 1,
                partial: false,
            })
            .collect()
    }

    #[test]
    fn observed_messages_come_from_the_slots() {
        let (_, schema) = setup();
        let observed = observed_messages(&schema);
        assert_eq!(observed.len(), 2);
        assert!(observed.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn chunked_session_matches_batch_decode_and_batch_localize() {
        let (u, schema) = setup();
        let recs = records(&u);
        let stream = encode_records(&schema, &recs, None).unwrap();
        let batch = decode_with(&ProfileV1, &schema, &stream.bytes, Some(stream.bit_len));
        let selected = observed_messages(&schema);
        let observed: Vec<IndexedMessage> = batch.records.iter().map(|r| r.message).collect();
        let expect = pstrace_diag::localize(&u, &observed, &selected, MatchMode::Prefix);

        for chunk_size in [1usize, 3, 7, 1024] {
            let mut session = Session::new(&u, schema.clone(), MatchMode::Prefix);
            for chunk in stream.bytes.chunks(chunk_size) {
                session.push_chunk(chunk);
            }
            let report = session.finish(Some(stream.bit_len));
            assert_eq!(report.metrics.records, batch.records.len());
            assert_eq!(report.metrics.frames, batch.frames);
            assert_eq!(report.damaged, batch.damaged);
            assert_eq!(report.localization, expect, "chunk {chunk_size}");
            assert!(report.render().contains("interleaved-flow paths"));
        }
    }

    #[test]
    fn v2_session_matches_batch_decode_and_batch_localize() {
        use pstrace_codec::{encode_v2, ProfileV2};

        let (u, schema) = setup();
        let recs = records(&u);
        let stream = encode_v2(&schema, &recs, 4, None).unwrap();
        let v2 = ProfileV2::default();
        let batch = decode_with(&v2, &schema, &stream.bytes, Some(stream.bit_len));
        assert!(batch.is_clean());
        let selected = observed_messages(&schema);
        let observed: Vec<IndexedMessage> = batch.records.iter().map(|r| r.message).collect();
        let expect = pstrace_diag::localize(&u, &observed, &selected, MatchMode::Prefix);

        for chunk_size in [1usize, 3, 7, 1024] {
            let mut session =
                Session::with_meta(&u, schema.clone(), PtwMeta::v2(4), MatchMode::Prefix);
            for chunk in stream.bytes.chunks(chunk_size) {
                session.push_chunk(chunk);
            }
            let report = session.finish(Some(stream.bit_len));
            assert_eq!(report.metrics.records, batch.records.len());
            assert_eq!(report.metrics.frames, batch.frames, "chunk {chunk_size}");
            assert_eq!(report.damaged, batch.damaged);
            assert_eq!(report.localization, expect, "chunk {chunk_size}");
        }
    }

    #[test]
    fn v2_session_contains_mid_stream_damage_like_the_batch_decoder() {
        use pstrace_codec::{encode_v2, ProfileV2};

        let (u, schema) = setup();
        let recs = records(&u);
        let stream = encode_v2(&schema, &recs, 2, None).unwrap();
        let mut bytes = stream.bytes.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let batch = decode_with(&ProfileV2::default(), &schema, &bytes, Some(stream.bit_len));

        let mut session = Session::with_meta(&u, schema.clone(), PtwMeta::v2(2), MatchMode::Prefix);
        for chunk in bytes.chunks(3) {
            session.push_chunk(chunk);
        }
        let report = session.finish(Some(stream.bit_len));
        assert_eq!(report.damaged, batch.damaged);
        assert_eq!(report.metrics.records, batch.records.len());
        let observed: Vec<IndexedMessage> = batch.records.iter().map(|r| r.message).collect();
        let selected = observed_messages(&schema);
        assert_eq!(
            report.localization,
            pstrace_diag::localize(&u, &observed, &selected, MatchMode::Prefix)
        );
    }

    #[test]
    fn spike_quarantine_matches_the_batch_monotonicity_pass() {
        let (u, schema) = setup();
        let mut recs = records(&u);
        recs[1].time = 1 << 20; // isolated forward spike
        let stream = encode_records(&schema, &recs, None).unwrap();
        let batch = decode_with(&ProfileV1, &schema, &stream.bytes, Some(stream.bit_len));
        assert_eq!(batch.damaged.len(), 1, "the spike must be damage");

        let mut session = Session::new(&u, schema.clone(), MatchMode::Prefix);
        for chunk in stream.bytes.chunks(2) {
            session.push_chunk(chunk);
        }
        let report = session.finish(Some(stream.bit_len));
        assert_eq!(report.damaged, batch.damaged);
        assert_eq!(report.metrics.records, batch.records.len());

        // Regression variant: the damaged record must never reach the
        // localizer.
        let mut recs = records(&u);
        recs[2].time = 0;
        recs[1].time = 7; // rec 2 regresses below rec 1 and rec 0
        let stream = encode_records(&schema, &recs, None).unwrap();
        let batch = decode_with(&ProfileV1, &schema, &stream.bytes, Some(stream.bit_len));
        let mut session = Session::new(&u, schema.clone(), MatchMode::Prefix);
        session.push_chunk(&stream.bytes);
        let report = session.finish(Some(stream.bit_len));
        assert_eq!(report.damaged, batch.damaged);
        let observed: Vec<IndexedMessage> = batch.records.iter().map(|r| r.message).collect();
        let selected = observed_messages(&schema);
        assert_eq!(
            report.localization,
            pstrace_diag::localize(&u, &observed, &selected, MatchMode::Prefix)
        );
    }

    fn series(registry: &Arc<Registry>) -> Arc<SessionSeries> {
        Arc::new(SessionSeries::new(Arc::clone(registry)))
    }

    #[test]
    fn observed_session_counters_match_the_report() {
        let (u, schema) = setup();
        let mut recs = records(&u);
        recs[1].time = 1 << 20; // one isolated forward spike → damage
        let stream = encode_records(&schema, &recs, None).unwrap();
        let registry = Arc::new(Registry::new());
        let mut session = Session::new(&u, schema.clone(), MatchMode::Prefix);
        session.set_series(series(&registry));
        for chunk in stream.bytes.chunks(3) {
            session.push_chunk(chunk);
        }
        let gauge = |name: &str| registry.gauge(name).get();
        assert!(gauge("pstrace_localizer_records_pushed") > 0);
        assert!(gauge("pstrace_localizer_frontier_support") > 0);
        // A session that stops streaming has no live frontier: the
        // gauges are cleared so per-shard registries sum honestly when
        // merged, and finishing does not publish them again.
        session.clear_frontier();
        let report = session.finish(Some(stream.bit_len));
        assert_eq!(gauge("pstrace_localizer_records_pushed"), 0);
        assert_eq!(gauge("pstrace_localizer_frontier_support"), 0);
        let counter = |name: &str| registry.counter(name).get();
        assert_eq!(counter("pstrace_stream_bytes_total"), report.metrics.bytes);
        assert_eq!(
            counter("pstrace_stream_chunks_total"),
            report.metrics.chunks
        );
        assert_eq!(
            counter("pstrace_stream_frames_total"),
            report.metrics.frames as u64
        );
        assert_eq!(
            counter("pstrace_stream_idle_frames_total"),
            report.metrics.idle_frames as u64
        );
        assert_eq!(
            counter("pstrace_stream_records_total"),
            report.metrics.records as u64
        );
        assert_eq!(report.metrics.damaged_frames, 1);
        assert_eq!(
            registry
                .counter_with(
                    "pstrace_stream_damaged_frames_total",
                    &[("reason", "time-spike")]
                )
                .get(),
            1
        );
        // The registry holds aggregates only: nothing is keyed by session.
        assert!(registry
            .samples()
            .iter()
            .all(|(key, _)| key.labels().iter().all(|(label, _)| label != "session")));
        // Instrumentation must not change the ingest outcome.
        let mut plain = Session::new(&u, schema, MatchMode::Prefix);
        plain.push_chunk(&stream.bytes);
        let plain_report = plain.finish(Some(stream.bit_len));
        assert_eq!(plain_report.damaged, report.damaged);
        assert_eq!(plain_report.localization, report.localization);
    }

    #[test]
    fn record_counters_equal_committed_records_at_every_chunk_boundary() {
        let (u, schema) = setup();
        let clean = records(&u);
        let mut spiked = records(&u);
        spiked[1].time = 1 << 20; // isolated forward spike → damage
        for (recs, spikes) in [(clean, 0), (spiked, 1)] {
            let stream = encode_records(&schema, &recs, None).unwrap();
            let registry = Arc::new(Registry::new());
            let published = || registry.counter("pstrace_stream_records_total").get();
            let mut session = Session::new(&u, schema.clone(), MatchMode::Prefix);
            session.set_series(series(&registry));
            let mut held = 0;
            for chunk in stream.bytes.chunks(3) {
                session.push_chunk(chunk);
                assert_eq!(published(), session.records as u64);
                held += usize::from(session.time.is_holding());
            }
            assert!(held > 0, "the newest record is held back");
            assert!(session.time.is_holding());
            let report = session.finish(Some(stream.bit_len));
            assert_eq!(report.damaged.len(), spikes);
            assert_eq!(report.metrics.records, recs.len() - spikes);
            assert_eq!(published(), report.metrics.records as u64);
        }
    }

    #[test]
    fn a_damage_storm_notes_a_bounded_number_of_flight_events() {
        use pstrace_obs::FlightRecorder;

        let (u, schema) = setup();
        let m = records(&u)[0].message;
        // Two clean records, then every record regresses below them.
        let recs: Vec<WireRecord> = [100, 200]
            .into_iter()
            .chain(std::iter::repeat(0).take(200))
            .map(|time| WireRecord {
                time,
                message: m,
                value: 1,
                partial: false,
            })
            .collect();
        let stream = encode_records(&schema, &recs, None).unwrap();
        let registry = Arc::new(Registry::new());
        let recorder = Arc::new(FlightRecorder::new(1, 1024));
        let mut session = Session::new(&u, schema, MatchMode::Prefix);
        session.set_series(series(&registry));
        session.set_flight(FlightHandle::new(Arc::clone(&recorder), 0, 1, 1));
        for chunk in stream.bytes.chunks(16) {
            session.push_chunk(chunk);
        }
        let report = session.finish(Some(stream.bit_len));
        assert_eq!(report.metrics.damaged_frames, 200);
        assert_eq!(
            registry
                .counter_with(
                    "pstrace_stream_damaged_frames_total",
                    &[("reason", "time-regression")]
                )
                .get(),
            200,
            "the damage counter stays exact"
        );
        let damage: Vec<&str> = recorder
            .snapshot()
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Damage)
            .map(|e| pstrace_obs::reason_label(e.reason))
            .collect();
        assert_eq!(damage.len(), DAMAGE_EVENTS_NOTED + 1);
        assert!(damage[..DAMAGE_EVENTS_NOTED]
            .iter()
            .all(|&r| r == "time-regression"));
        assert_eq!(damage[DAMAGE_EVENTS_NOTED], "damage-elided");
    }

    #[test]
    fn damage_plus_dead_frontier_triggers_exactly_one_resync() {
        let (u, schema) = setup();
        let base = records(&u);
        let m = base[0].message;
        // Eight repeats of one message kill every path's prefix; a spike
        // in the middle supplies the damage the resync gate requires.
        let mut recs: Vec<WireRecord> = (0..8)
            .map(|i| WireRecord {
                time: (i as u64 + 1) * 4,
                message: m,
                value: 1,
                partial: false,
            })
            .collect();
        recs[3].time = 1 << 20; // isolated forward spike → damaged frame
        let selected = observed_messages(&schema);
        let observed: Vec<IndexedMessage> = vec![m; 7];
        assert_eq!(
            pstrace_diag::localize(&u, &observed, &selected, MatchMode::Prefix).consistent,
            0,
            "precondition: the repeated message must kill every path"
        );

        let stream = encode_records(&schema, &recs, None).unwrap();
        let registry = Arc::new(Registry::new());
        let mut session = Session::new(&u, schema.clone(), MatchMode::Prefix);
        session.set_series(series(&registry));
        for chunk in stream.bytes.chunks(2) {
            session.push_chunk(chunk);
        }
        let report = session.finish(Some(stream.bit_len));
        assert_eq!(report.resyncs, 1, "one resync, then no further damage");
        assert!(report.unknown_since.is_some());
        assert!(
            report
                .render()
                .contains("resync          : 1 localizer resync"),
            "report: {}",
            report.render()
        );
        assert_eq!(
            registry
                .counter_with(
                    "pstrace_degradation_events_total",
                    &[("path", "localizer-resync")]
                )
                .get(),
            1
        );

        // A clean stream — even a wildly inconsistent one — never
        // resyncs: no damage, no gate.
        let clean: Vec<WireRecord> = (0..8)
            .map(|i| WireRecord {
                time: (i as u64 + 1) * 4,
                message: m,
                value: 1,
                partial: false,
            })
            .collect();
        let stream = encode_records(&schema, &clean, None).unwrap();
        let mut session = Session::new(&u, schema, MatchMode::Prefix);
        session.push_chunk(&stream.bytes);
        let report = session.finish(Some(stream.bit_len));
        assert_eq!(report.resyncs, 0);
        assert_eq!(report.localization.consistent, 0);
        assert!(!report.render().contains("resync"));
    }

    #[test]
    fn a_short_declared_length_drops_only_the_held_record() {
        let (u, schema) = setup();
        let mut recs = records(&u);
        let n = recs.len();
        assert!(n >= 4, "precondition: a few records");
        // The last frame regresses: damage past any declared end < n.
        recs[n - 1].time = 0;
        let stream = encode_records(&schema, &recs, None).unwrap();
        let frame_bits = u64::from(schema.frame_bits());
        // After the push, records 0..n-3 are committed, n-2 is held and
        // n-1 is damage. Committed records stay whatever is declared;
        // the held record and the damage go when they lie past the end.
        for (declared, records) in [(n - 1, n - 1), (1, n - 2)] {
            let mut session = Session::new(&u, schema.clone(), MatchMode::Prefix);
            session.push_chunk(&stream.bytes);
            assert_eq!(session.metrics().damaged_frames, 1);
            let report = session.finish(Some(declared as u64 * frame_bits));
            assert_eq!(report.metrics.frames, declared);
            assert!(report.damaged.is_empty(), "{:?}", report.damaged);
            assert_eq!(report.metrics.records, records, "declared {declared}");
        }
    }

    #[test]
    fn live_localization_is_visible_mid_stream() {
        let (u, schema) = setup();
        let recs = records(&u);
        let stream = encode_records(&schema, &recs, None).unwrap();
        let mut session = Session::new(&u, schema, MatchMode::Prefix);
        let total = session.localization().total;
        assert_eq!(session.localization().consistent, total);
        session.push_chunk(&stream.bytes);
        // All but the quarantined record are localized already.
        assert!(session.localization().consistent < total);
        assert_eq!(session.metrics().records, recs.len());
    }
}
