//! The flight-recorder `.ptw` dialect: the daemon's own lifecycle as a
//! first-class trace workload.
//!
//! The recorder journal ([`pstrace_obs::FlightRecorder`]) holds typed
//! events; this module gives them a **built-in message catalog** (one
//! `fr-*` message per [`EventKind`]) and serializes snapshots through
//! the ordinary v2 container — [`encode_v2`] sync blocks inside
//! [`write_ptw_with`], no new container format. A dump is therefore
//! self-describing: `trace decode` reads it with the stock machinery,
//! `pstrace debug` localizes a recorded session against the built-in
//! [`lifecycle_flow`], and `pstrace mine` recovers the lifecycle DAG
//! from nothing but the dump — the dogfood loop the paper's
//! application-level thesis asks for.
//!
//! Wire mapping: each event becomes one [`WireRecord`] whose time is
//! the event timestamp in microseconds, whose flow-instance index is a
//! compact per-trace-context ordinal (index 0 is reserved for
//! daemon-scope events), and whose value column carries the
//! trace-context id for `fr-open` (a 64-bit lane) or the interned
//! reason code for every other kind (16-bit lanes).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use pstrace_flow::{Flow, FlowBuilder, FlowIndex, IndexedMessage, MessageCatalog, MessageId};
use pstrace_obs::{json_escape, reason_label, EventKind, FlightEvent};
use pstrace_wire::{
    read_ptw_any, write_ptw_with, PtwMeta, WireError, WireRecord, WireSchema, PTW_VERSION_V2,
};

use crate::container::decode_ptw_payload;
use crate::v2::encode_v2;

/// The `fr-*` message name for an event kind.
#[must_use]
pub fn flight_message_name(kind: EventKind) -> String {
    format!("fr-{}", kind.label())
}

/// The lane width backing `kind`'s message: `fr-open` carries the
/// 64-bit trace-context id, everything else a 16-bit reason code.
#[must_use]
pub fn flight_message_width(kind: EventKind) -> u32 {
    if kind == EventKind::Open {
        64
    } else {
        16
    }
}

/// The built-in flight catalog: one message per [`EventKind`], in wire
/// order, so dumps decode against a catalog every binary can rebuild.
#[must_use]
pub fn flight_catalog() -> Arc<MessageCatalog> {
    let mut catalog = MessageCatalog::new();
    for kind in EventKind::ALL {
        catalog.intern(&flight_message_name(kind), flight_message_width(kind));
    }
    Arc::new(catalog)
}

/// The built-in session-lifecycle flow over the flight catalog: the
/// clean path `open → handshake → finish → close` every completed
/// session walks. `pstrace debug --flight` localizes recorded sessions
/// against it and `pstrace mine --flight` must recover it from dumps.
///
/// # Panics
///
/// Never — the spec is static and the catalog is built here.
#[must_use]
pub fn lifecycle_flow(catalog: &Arc<MessageCatalog>) -> Flow {
    FlowBuilder::new("session-lifecycle")
        .state("Init")
        .state("Opened")
        .state("Streaming")
        .state("Finished")
        .stop_state("Closed")
        .initial("Init")
        .edge("Init", "fr-open", "Opened")
        .edge("Opened", "fr-handshake", "Streaming")
        .edge("Streaming", "fr-finish", "Finished")
        .edge("Finished", "fr-close", "Closed")
        .build(catalog)
        .expect("built-in lifecycle flow must validate")
}

/// The message ids of [`lifecycle_flow`]'s clean path, in causal order.
#[must_use]
pub fn lifecycle_messages(catalog: &MessageCatalog) -> Vec<MessageId> {
    [
        EventKind::Open,
        EventKind::Handshake,
        EventKind::Finish,
        EventKind::Close,
    ]
    .iter()
    .map(|&k| {
        catalog
            .get(&flight_message_name(k))
            .expect("flight catalog holds every lifecycle message")
    })
    .collect()
}

/// The self-describing schema a flight dump is written with: every
/// `fr-*` message gets a full-width slot, 16-bit instance indexes,
/// 64-bit (microsecond) timestamps.
///
/// # Panics
///
/// Never — the widths are static and in range.
#[must_use]
pub fn flight_schema(catalog: &MessageCatalog) -> WireSchema {
    let messages: Vec<MessageId> = EventKind::ALL
        .iter()
        .map(|&k| {
            catalog
                .get(&flight_message_name(k))
                .expect("flight catalog holds every event kind")
        })
        .collect();
    let body: u32 = EventKind::ALL
        .iter()
        .map(|&k| flight_message_width(k))
        .sum();
    WireSchema::new(catalog, &messages, &[], body)
        .expect("flight schema widths are static")
        .with_index_width(16)
        .expect("index width 16 is in range")
        .with_time_width(64)
        .expect("time width 64 is in range")
}

/// Serializes a recorder snapshot as a self-describing `.ptw` v2 file.
///
/// Events are sorted by timestamp; each distinct nonzero trace-context
/// id becomes one flow instance (1-based, first-seen order, wrapping at
/// the 16-bit index ceiling), daemon-scope events (trace 0) share
/// instance 0.
///
/// # Errors
///
/// Propagates [`WireError`] from the v2 encoder (practically
/// unreachable for well-formed events).
pub fn write_flight_dump(events: &[FlightEvent], sync_every: u16) -> Result<Vec<u8>, WireError> {
    let catalog = flight_catalog();
    let schema = flight_schema(&catalog);
    let mut sorted: Vec<&FlightEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.ts_ns);
    let mut instance_of: BTreeMap<u64, u32> = BTreeMap::new();
    let mut records = Vec::with_capacity(sorted.len());
    for ev in sorted {
        let index = if ev.trace == 0 {
            0
        } else {
            let next = instance_of.len() as u32 + 1;
            *instance_of.entry(ev.trace).or_insert(next) & 0xffff
        };
        let message = catalog
            .get(&flight_message_name(ev.kind))
            .expect("flight catalog holds every event kind");
        let value = if ev.kind == EventKind::Open {
            ev.trace
        } else {
            u64::from(ev.reason)
        };
        records.push(WireRecord {
            time: ev.ts_ns / 1_000,
            message: IndexedMessage::new(message, FlowIndex(index)),
            value,
            partial: false,
        });
    }
    let stream = encode_v2(&schema, &records, sync_every, None)?;
    Ok(write_ptw_with(
        &catalog,
        &schema,
        PtwMeta::v2(sync_every),
        &stream,
    ))
}

/// A decoded flight dump: the decoded records, the events they
/// reconstruct, and decode accounting.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// The decoded records, in stream order — what `trace decode` prints
    /// and `mine --flight` mines.
    pub records: Vec<WireRecord>,
    /// The events, in stream (timestamp) order. `session` holds the
    /// flow-instance ordinal the dump assigned (0 = daemon scope) and
    /// `trace` the trace-context id recovered from the instance's
    /// `fr-open` event (0 when the dump holds no open for it).
    pub events: Vec<FlightEvent>,
    /// Frames (v2: sync blocks) the decoder examined.
    pub frames: usize,
    /// Damaged frames the decoder skipped.
    pub damaged: usize,
}

impl FlightDump {
    /// Events grouped by flow instance, in ascending instance order,
    /// preserving stream order inside each group.
    #[must_use]
    pub fn sessions(&self) -> Vec<(u32, u64, Vec<&FlightEvent>)> {
        let mut groups: BTreeMap<u32, (u64, Vec<&FlightEvent>)> = BTreeMap::new();
        for ev in &self.events {
            let entry = groups.entry(ev.session as u32).or_default();
            if ev.trace != 0 {
                entry.0 = ev.trace;
            }
            entry.1.push(ev);
        }
        groups
            .into_iter()
            .map(|(index, (trace, events))| (index, trace, events))
            .collect()
    }

    /// Degradation events grouped by reason label — the dump-side half
    /// of the counters-vs-journal cross-check.
    #[must_use]
    pub fn degradation_counts(&self) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        for ev in &self.events {
            if ev.kind == EventKind::Degradation {
                *counts
                    .entry(reason_label(ev.reason).to_owned())
                    .or_insert(0) += 1;
            }
        }
        counts
    }
}

/// Reads a flight dump back into events.
///
/// # Errors
///
/// Returns [`WireError`] when `bytes` is not a `.ptw` file over the
/// flight catalog. Damaged frames inside a structurally sound dump are
/// counted, not fatal.
pub fn read_flight_dump(bytes: &[u8]) -> Result<FlightDump, WireError> {
    let catalog = flight_catalog();
    let (schema, meta, stream) = read_ptw_any(&catalog, bytes)?;
    if meta.version != PTW_VERSION_V2 {
        return Err(WireError::BadHeader {
            reason: "flight dumps are always .ptw v2".to_owned(),
        });
    }
    let report = decode_ptw_payload(&schema, meta, &stream);
    let kind_of: BTreeMap<MessageId, EventKind> = EventKind::ALL
        .iter()
        .map(|&k| {
            (
                catalog
                    .get(&flight_message_name(k))
                    .expect("flight catalog holds every event kind"),
                k,
            )
        })
        .collect();
    let mut trace_of: BTreeMap<u32, u64> = BTreeMap::new();
    for rec in &report.records {
        if kind_of.get(&rec.message.message) == Some(&EventKind::Open) {
            trace_of.insert(rec.message.index.0, rec.value);
        }
    }
    let mut events = Vec::with_capacity(report.records.len());
    for rec in &report.records {
        let Some(&kind) = kind_of.get(&rec.message.message) else {
            continue;
        };
        let index = rec.message.index.0;
        events.push(FlightEvent {
            ts_ns: rec.time.saturating_mul(1_000),
            trace: trace_of.get(&index).copied().unwrap_or(0),
            session: u64::from(index),
            kind,
            reason: if kind == EventKind::Open {
                0
            } else {
                (rec.value & 0xffff) as u16
            },
        });
    }
    Ok(FlightDump {
        records: report.records,
        events,
        frames: report.frames,
        damaged: report.damaged.len(),
    })
}

/// Renders the per-session causal timeline `pstrace events` prints.
#[must_use]
pub fn render_timeline(dump: &FlightDump) -> String {
    let mut out = String::new();
    let sessions = dump.sessions();
    let _ = writeln!(
        out,
        "flight timeline: {} events across {} flow instances ({} damaged frames)",
        dump.events.len(),
        sessions.len(),
        dump.damaged
    );
    for (index, trace, events) in sessions {
        if index == 0 {
            let _ = writeln!(out, "daemon scope ({} events)", events.len());
        } else {
            let _ = writeln!(
                out,
                "session {} trace 0x{:016x} ({} events)",
                index,
                trace,
                events.len()
            );
        }
        let origin = events.first().map_or(0, |e| e.ts_ns);
        for ev in events {
            let rel = ev.ts_ns.saturating_sub(origin);
            let reason = reason_label(ev.reason);
            if reason.is_empty() {
                let _ = writeln!(out, "  +{:>10.3}ms  {}", rel as f64 / 1e6, ev.kind.label());
            } else {
                let _ = writeln!(
                    out,
                    "  +{:>10.3}ms  {} [{}]",
                    rel as f64 / 1e6,
                    ev.kind.label(),
                    reason
                );
            }
        }
    }
    out
}

/// Renders the dump as Chrome trace-event JSON (instant events, one
/// track per flow instance) — loadable in `chrome://tracing`/Perfetto
/// and valid under [`pstrace_obs::validate_json`].
#[must_use]
pub fn render_chrome(dump: &FlightDump) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in dump.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"trace\":\"0x{:016x}\",\"reason\":\"{}\"}}}}",
            json_escape(ev.kind.label()),
            ev.session,
            ev.ts_ns / 1_000,
            ev.trace,
            json_escape(reason_label(ev.reason)),
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Builds one synthetic clean-lifecycle event sequence (tests/benches).
#[must_use]
pub fn clean_session_events(trace: u64, session: u64, origin_ns: u64) -> Vec<FlightEvent> {
    [
        EventKind::Open,
        EventKind::Handshake,
        EventKind::Finish,
        EventKind::Close,
    ]
    .iter()
    .enumerate()
    .map(|(i, &kind)| FlightEvent {
        ts_ns: origin_ns + i as u64 * 1_000_000,
        trace,
        session,
        kind,
        reason: 0,
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_obs::{reason_code, validate_json};

    fn sample_events() -> Vec<FlightEvent> {
        let mut events = clean_session_events(0xdead_beef, 1, 1_000_000);
        events.extend(clean_session_events(0xfeed_f00d, 2, 2_500_000));
        events.push(FlightEvent {
            ts_ns: 4_000_000,
            trace: 0xdead_beef,
            session: 1,
            kind: EventKind::Damage,
            reason: reason_code("sync-lost"),
        });
        events.push(FlightEvent {
            ts_ns: 5_000_000,
            trace: 0,
            session: 0,
            kind: EventKind::Degradation,
            reason: reason_code("accept-retry"),
        });
        events
    }

    #[test]
    fn catalog_and_schema_cover_every_kind() {
        let catalog = flight_catalog();
        assert_eq!(catalog.len(), EventKind::ALL.len());
        let schema = flight_schema(&catalog);
        assert_eq!(schema.slots().len(), EventKind::ALL.len());
        let flow = lifecycle_flow(&catalog);
        assert!(flow.is_linear());
        assert_eq!(lifecycle_messages(&catalog).len(), 4);
    }

    #[test]
    fn dump_round_trips_events_traces_and_reasons() {
        let events = sample_events();
        let bytes = write_flight_dump(&events, 8).expect("encode");
        let dump = read_flight_dump(&bytes).expect("decode");
        assert_eq!(dump.damaged, 0);
        assert_eq!(dump.events.len(), events.len());
        // Timestamp order, microsecond precision preserved.
        assert!(dump.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let sessions = dump.sessions();
        assert_eq!(sessions.len(), 3); // daemon scope + two traces
        let (_, trace1, events1) = &sessions[1];
        assert_eq!(*trace1, 0xdead_beef);
        assert_eq!(events1.len(), 5);
        assert_eq!(events1[4].kind, EventKind::Damage);
        assert_eq!(reason_label(events1[4].reason), "sync-lost");
        let counts = dump.degradation_counts();
        assert_eq!(counts.get("accept-retry"), Some(&1));
    }

    #[test]
    fn timeline_names_sessions_by_trace_id() {
        let bytes = write_flight_dump(&sample_events(), 4).expect("encode");
        let dump = read_flight_dump(&bytes).expect("decode");
        let timeline = render_timeline(&dump);
        assert!(
            timeline.contains("session 1 trace 0x00000000deadbeef"),
            "{timeline}"
        );
        assert!(
            timeline.contains("session 2 trace 0x00000000feedf00d"),
            "{timeline}"
        );
        assert!(timeline.contains("daemon scope (1 events)"), "{timeline}");
        assert!(timeline.contains("damage [sync-lost]"), "{timeline}");
        assert!(
            timeline.contains("degradation [accept-retry]"),
            "{timeline}"
        );
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let bytes = write_flight_dump(&sample_events(), 4).expect("encode");
        let dump = read_flight_dump(&bytes).expect("decode");
        let json = render_chrome(&dump);
        let doc = validate_json(&json).expect("chrome export must validate");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), dump.events.len());
        assert_eq!(events[0].get("name").and_then(|v| v.as_str()), Some("open"));
    }

    #[test]
    fn empty_dump_round_trips() {
        let bytes = write_flight_dump(&[], 64).expect("encode empty");
        let dump = read_flight_dump(&bytes).expect("decode empty");
        assert!(dump.events.is_empty());
        assert!(render_timeline(&dump).contains("0 events"));
    }

    #[test]
    fn non_flight_bytes_are_rejected() {
        assert!(read_flight_dump(b"not a ptw").is_err());
    }
}
