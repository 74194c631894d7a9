//! End-to-end acceptance for the flight recorder: the daemon traces
//! itself with its own `.ptw` machinery.
//!
//! Pinned here:
//! * one trace-context id — minted by the client, carried in the PSTS
//!   hello — follows a session across a forced reconnect and a
//!   cross-shard handoff, in the live journal and in the serialized
//!   dump;
//! * a chaos-wrapped soak's spilled dump decodes cleanly against the
//!   built-in flight catalog and renders a per-session timeline;
//! * mining nothing but that dump recovers the session-lifecycle flow
//!   at P/R >= 0.9 — the dogfood version of `pstrace mine`'s recovery
//!   verdict.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstrace::codec::flight::{
    flight_catalog, flight_message_name, lifecycle_flow, lifecycle_messages, read_flight_dump,
    render_timeline,
};
use pstrace::diag::MatchMode;
use pstrace::faults::{run_soak, watchdog, FaultPlan, SoakConfig};
use pstrace::flow::{FlowIndex, IndexedMessage};
use pstrace::mine::{evaluate, ExecutionLog, LogRecord, Miner, MiningConfig};
use pstrace::obs::EventKind;
use pstrace::select::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace::soc::{wirecap, SocModel, TraceBufferConfig, UsageScenario};
use pstrace::stream::proto::{self, Hello, Request};
use pstrace::stream::{Server, ServerConfig};
use pstrace::wire::{encode_records, read_ptw_schema, write_ptw, WireRecord};

/// A small scenario-1 capture split the way the PSTS handshake wants
/// it: schema prefix, payload bit length, payload bytes.
struct Capture {
    model: Arc<SocModel>,
    schema: Vec<u8>,
    bit_len: u64,
    payload: Vec<u8>,
}

fn capture(records: usize) -> Capture {
    let model = SocModel::t2();
    let scenario = UsageScenario::scenario1();
    let buffer = TraceBufferSpec::new(32).unwrap();
    let flow = scenario.interleaving(&model).unwrap();
    let selection = Selector::new(&flow, SelectionConfig::new(buffer))
        .select()
        .unwrap();
    let config = TraceBufferConfig {
        messages: selection.chosen.messages.clone(),
        groups: selection.packed_groups.clone(),
        depth: None,
    };
    let schema = wirecap::wire_schema(&model, &config, buffer.width_bits()).unwrap();
    let slots = schema.slots().to_vec();
    let stream: Vec<WireRecord> = (0..records)
        .map(|i| {
            let slot = &slots[i % slots.len()];
            WireRecord {
                time: i as u64,
                message: IndexedMessage::new(slot.message, FlowIndex(1 + (i % 3) as u32)),
                value: (i as u64 * 0x9e37) & ((1u64 << slot.width) - 1),
                partial: slot.is_partial(),
            }
        })
        .collect();
    let encoded = encode_records(&schema, &stream, None).unwrap();
    let ptw = write_ptw(model.catalog(), &schema, &encoded);
    let (_, consumed) = read_ptw_schema(model.catalog(), &ptw).unwrap();
    let schema_bytes = ptw[..consumed].to_vec();
    let rest = &ptw[consumed..];
    let bit_len = u64::from_le_bytes(rest[..8].try_into().unwrap());
    let payload = rest[8..].to_vec();
    Capture {
        model: Arc::new(model),
        schema: schema_bytes,
        bit_len,
        payload,
    }
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn poll_until(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// A scenario-1, prefix-mode resumable-session request carrying trace
/// id `trace`: token 0 opens fresh.
fn resume(token: u64, epoch: u64, trace: u64, schema: &[u8]) -> Request {
    let hello = Hello {
        scenario: 1,
        mode: MatchMode::Prefix,
        tenant: 0,
        trace,
        schema: schema.to_vec(),
    };
    Request::Resume {
        token,
        epoch,
        hello,
    }
}

#[test]
fn trace_context_follows_a_session_across_reconnect_and_shards() {
    let _guard = watchdog(Duration::from_secs(120), "flight trace continuity");
    const TRACE: u64 = 0x7e57_f11e_0001;
    let cap = capture(400);
    let server = Server::spawn(
        Arc::clone(&cap.model),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 4,
            read_timeout: Duration::from_millis(150),
            resume_grace: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // First connection: hello carrying the client-minted trace-context
    // id, half the payload, then the transport vanishes without FINISH.
    let half = cap.payload.len() / 2;
    let (token, epoch) = {
        let mut s = connect(&server);
        proto::write_request(&mut s, &resume(0, 0, TRACE, &cap.schema)).unwrap();
        let ack = proto::read_reply(&mut s).unwrap();
        let (token, offset, epoch) = proto::parse_resume_ack(&ack).unwrap();
        assert!(token > 0);
        assert_eq!(offset, 0);
        for piece in cap.payload[..half].chunks(64) {
            proto::write_data(&mut s, piece).unwrap();
        }
        s.flush().unwrap();
        (token, epoch)
    };
    assert!(
        poll_until(Duration::from_secs(30), || server.snapshot().parked >= 1),
        "session was never parked: {:?}",
        server.snapshot()
    );

    // Reconnect with the token *and the same trace id*. Connection ids
    // round-robin over shards, so this lands on a different shard than
    // the token's owner: a cross-shard handoff.
    {
        let mut s = connect(&server);
        proto::write_request(&mut s, &resume(token, epoch, TRACE, &cap.schema)).unwrap();
        let ack = proto::read_reply(&mut s).unwrap();
        let (acked, offset, _) = proto::parse_resume_ack(&ack).unwrap();
        assert_eq!(acked, token);
        let offset = usize::try_from(offset).unwrap();
        assert!(offset <= half);
        for piece in cap.payload[offset..].chunks(64) {
            proto::write_data(&mut s, piece).unwrap();
        }
        proto::write_finish(&mut s, cap.bit_len).unwrap();
        s.flush().unwrap();
        proto::read_reply(&mut s).unwrap();
    }
    let snap = server.snapshot();
    assert!(snap.resumed >= 1 && snap.handoffs >= 1, "{snap:?}");

    // The live journal: one trace context carries the whole story —
    // open and handshake from the first connection, the park when the
    // transport died, the handoff and resume from the second, and the
    // clean finish/close.
    let events = server.flight_snapshot().events;
    let kinds: Vec<EventKind> = events
        .iter()
        .filter(|e| e.trace == TRACE)
        .map(|e| e.kind)
        .collect();
    for want in [
        EventKind::Open,
        EventKind::Handshake,
        EventKind::Park,
        EventKind::Handoff,
        EventKind::Resume,
        EventKind::Finish,
        EventKind::Close,
    ] {
        assert!(
            kinds.contains(&want),
            "journal lost {want:?} for trace 0x{TRACE:x}: {kinds:?}"
        );
    }

    // The serialized dump tells the same story as one flow instance.
    let bytes = server.flight_dump_bytes().unwrap();
    server.shutdown();
    let dump = read_flight_dump(&bytes).unwrap();
    assert_eq!(dump.damaged, 0, "a self-dump is never damaged");
    let sessions = dump.sessions();
    let ours: Vec<_> = sessions
        .iter()
        .filter(|(index, trace, _)| *index != 0 && *trace == TRACE)
        .collect();
    assert_eq!(
        ours.len(),
        1,
        "the trace id must map to exactly one flow instance:\n{}",
        render_timeline(&dump)
    );
    let (_, _, ours) = ours[0];
    assert!(ours.iter().any(|e| e.kind == EventKind::Park));
    assert!(ours.iter().any(|e| e.kind == EventKind::Resume));
    let timeline = render_timeline(&dump);
    assert!(
        timeline.contains(&format!("trace 0x{TRACE:016x}")),
        "timeline must name the trace id:\n{timeline}"
    );
}

#[test]
fn recovery_is_journaled_as_fr_recover_events() {
    let _guard = watchdog(Duration::from_secs(120), "flight recover events");
    const TRACE: u64 = 0x7e57_f11e_0002;
    let dir = std::env::temp_dir().join(format!("pstrace-flight-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cap = capture(400);
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 2,
        read_timeout: Duration::from_millis(150),
        resume_grace: Duration::from_secs(30),
        durability: pstrace::stream::durable::DurabilityPolicy::Strict,
        wal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // Life #1: park one session mid-stream, then shut down with it
    // still parked — its Open + Park group stays journaled in the WAL.
    let first = Server::spawn(Arc::clone(&cap.model), &config).unwrap();
    {
        let mut s = connect(&first);
        proto::write_request(&mut s, &resume(0, 0, TRACE, &cap.schema)).unwrap();
        proto::read_reply(&mut s).unwrap();
        for piece in cap.payload[..cap.payload.len() / 2].chunks(64) {
            proto::write_data(&mut s, piece).unwrap();
        }
        s.flush().unwrap();
    }
    assert!(
        poll_until(Duration::from_secs(30), || first.snapshot().parked >= 1),
        "session was never parked: {:?}",
        first.snapshot()
    );
    first.shutdown();

    // Life #2 recovers it, and the flight journal says so: lane-0
    // fr-recover events carrying the restored/replayed/skipped counts,
    // at daemon scope (trace 0), with the interned reason labels.
    let second = Server::spawn(Arc::clone(&cap.model), &config).unwrap();
    assert!(
        poll_until(Duration::from_secs(30), || second.snapshot().recovered >= 1),
        "no session recovered: {:?}",
        second.snapshot()
    );
    let events = second.flight_snapshot().events;
    let recover: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Recover)
        .collect();
    assert!(!recover.is_empty(), "recovery left no fr-recover events");
    for want in ["sessions-restored", "entries-replayed", "entries-skipped"] {
        assert!(
            recover
                .iter()
                .any(|e| e.trace == 0 && pstrace::obs::reason_label(e.reason) == want),
            "missing daemon-scope fr-recover reason {want:?}"
        );
    }
    let restored = recover
        .iter()
        .find(|e| pstrace::obs::reason_label(e.reason) == "sessions-restored")
        .expect("checked above");
    assert!(
        restored.session >= 1,
        "the restored count rides in the event"
    );

    // The dump decodes against the built-in catalog, which names the
    // new lifecycle message.
    let bytes = second.flight_dump_bytes().unwrap();
    second.shutdown();
    let dump = read_flight_dump(&bytes).unwrap();
    assert_eq!(dump.damaged, 0);
    assert!(dump.events.iter().any(|e| e.kind == EventKind::Recover));
    assert_eq!(flight_message_name(EventKind::Recover), "fr-recover");
    assert!(
        flight_catalog().get("fr-recover").is_some(),
        "the flight catalog materializes fr-recover"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_soak_dump_mines_back_the_lifecycle_flow() {
    let _guard = watchdog(Duration::from_secs(300), "flight mine recovery");
    let plan = FaultPlan::by_intensity("light", 7)
        .unwrap()
        .without_reconnect_faults();
    let mut config = SoakConfig::new(plan);
    config.sessions = 6;
    config.records = 400;
    config.chunk_bytes = 256;
    let dump_path =
        std::env::temp_dir().join(format!("pstrace-flight-mine-{}.ptw", std::process::id()));
    config.flight_dump = Some(dump_path.clone());
    let report = run_soak(&config).expect("harness builds");
    report.survival().expect("survival criteria hold");

    let bytes = std::fs::read(&dump_path).expect("soak spilled the flight dump");
    std::fs::remove_file(&dump_path).ok();
    let dump = read_flight_dump(&bytes).expect("dump decodes against the flight catalog");
    assert_eq!(dump.damaged, 0);
    // Chaos journals what it injected beside what the daemon did
    // about it.
    if !report.ledger.is_empty() {
        assert!(
            dump.events.iter().any(|e| e.kind == EventKind::Fault),
            "injected faults must appear as flight events:\n{}",
            render_timeline(&dump)
        );
    }

    // Mine the lifecycle DAG from nothing but the dump: narrow the
    // journal to the lifecycle vocabulary, group by the dump's flow
    // instances, and score against the built-in ground truth.
    let catalog = flight_catalog();
    let lifecycle = lifecycle_messages(&catalog);
    let records: Vec<LogRecord> = dump
        .events
        .iter()
        .filter_map(|e| {
            let mid = catalog.get(&flight_message_name(e.kind))?;
            Some(LogRecord {
                time: e.ts_ns / 1_000,
                message: IndexedMessage::new(mid, FlowIndex(e.session as u32)),
            })
        })
        .collect();
    let log = ExecutionLog::from_records(records).retain_messages(&lifecycle);
    assert!(
        log.len() >= 4 * config.sessions,
        "every completed session contributes a full lifecycle: {} records",
        log.len()
    );
    let mut miner = Miner::new(Arc::clone(&catalog), MiningConfig::default());
    miner.push_log(log);
    let mined = miner.mine_observed(None);
    assert!(!mined.candidates.is_empty(), "mining found no candidates");
    let truth = lifecycle_flow(&catalog);
    let eval = evaluate(&mined.candidates, &[&truth], 0.9);
    assert_eq!(
        eval.recovered,
        1,
        "the session-lifecycle flow must be recovered at P/R >= 0.9: {}",
        eval.verdict_line()
    );
}
