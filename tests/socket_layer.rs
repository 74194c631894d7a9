//! The daemon's socket layer, driven through real sockets: handshake and
//! idle deadlines, parked-session expiry, the drain deadline at
//! shutdown (also while clients stream without pause), a hello that
//! arrives during the drain, a resume routed across shards to its
//! token's owner with its chunks pipelined behind the request (also
//! finishing during a drain, and counted on the owner alone), and a
//! METRICS client that never reads its reply.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstrace::codec::flight::{read_flight_dump, write_flight_dump};
use pstrace::codec::DEFAULT_SYNC_EVERY;
use pstrace::diag::MatchMode;
use pstrace::faults::{poll_until, slot_cycling_records, stable_lines, watchdog};
use pstrace::obs::{merged_samples, render_prometheus_samples, EventKind, Registry, Sample};
use pstrace::soc::{wirecap, SocModel, TraceBufferConfig};
use pstrace::stream::durable::DurabilityPolicy;
use pstrace::stream::proto::{self, Hello, Request};
use pstrace::stream::{
    replay, scenario_by_number, Replay, RetryPolicy, Server, ServerConfig, Session, StreamError,
};
use pstrace::wire::{encode_records, read_ptw_any, split_ptw, write_ptw, PtwParts};

/// A scenario-1 `.ptw` capture of `records` synthetic records, every
/// other scenario message traced on a full-width lane.
fn capture(model: &SocModel, records: usize) -> Vec<u8> {
    let messages: Vec<_> = scenario_by_number(1)
        .unwrap()
        .messages(model)
        .into_iter()
        .step_by(2)
        .collect();
    let config = TraceBufferConfig {
        messages: messages.clone(),
        groups: Vec::new(),
        depth: None,
    };
    let width = messages.iter().map(|&m| model.catalog().width(m)).sum();
    let schema = wirecap::wire_schema(model, &config, width).unwrap();
    let stream = slot_cycling_records(&schema, records);
    let encoded = encode_records(&schema, &stream, None).unwrap();
    write_ptw(model.catalog(), &schema, &encoded)
}

/// The report an in-process session renders for `ptw`, headed like the
/// daemon's reply.
fn in_process(model: &SocModel, ptw: &[u8]) -> String {
    let flow = scenario_by_number(1).unwrap().interleaving(model).unwrap();
    let (schema, meta, stream) = read_ptw_any(model.catalog(), ptw).unwrap();
    let mut session = Session::with_meta(&flow, schema, meta, MatchMode::Prefix);
    session.push_chunk(&stream.bytes);
    let report = session.finish(Some(stream.bit_len));
    format!(
        "session over scenario 1 ({:?} match)\n{}",
        report.mode,
        report.render()
    )
}

fn connect(server: &Server) -> TcpStream {
    let policy = RetryPolicy {
        read_timeout: Duration::from_secs(10),
        ..RetryPolicy::default()
    };
    pstrace::stream::connect(server.local_addr(), &policy).unwrap()
}

/// A hello for a scenario-1 capture in prefix mode.
fn hello(schema: &[u8]) -> Hello {
    Hello {
        scenario: 1,
        mode: MatchMode::Prefix,
        tenant: 0,
        trace: 0,
        schema: schema.to_vec(),
    }
}

/// A resumable-session request: token 0 opens fresh.
fn resume(token: u64, epoch: u64, schema: &[u8]) -> Request {
    Request::Resume {
        token,
        epoch,
        hello: hello(schema),
    }
}

fn degradations(server: &Server, path: &str) -> u64 {
    let prefix = format!("pstrace_degradation_events_total{{path=\"{path}\"}} ");
    render_prometheus_samples(&server.merged_samples())
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()).map(|v| v.parse().unwrap()))
        .unwrap_or(0)
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pstrace-socket-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_silent_connection_gets_the_handshake_deadline_reply() {
    let _guard = watchdog(Duration::from_secs(60), "handshake deadline");
    let server = Server::spawn(
        Arc::new(SocModel::t2()),
        &ServerConfig {
            handshake_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut silent = connect(&server);
    let started = Instant::now();
    let err = proto::read_reply(&mut silent).expect_err("a silent connection is refused");
    let StreamError::Remote(message) = err else {
        panic!("expected the deadline reply, got {err:?}");
    };
    assert!(message.contains("handshake deadline"), "{message}");
    assert!(
        started.elapsed() >= Duration::from_millis(150),
        "the deadline fired early"
    );
    let mut rest = Vec::new();
    silent.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the daemon closes after the reply");
    assert_eq!(degradations(&server, "handshake-deadline"), 1);
    server.shutdown();
}

#[test]
fn a_silent_resumable_session_parks_then_expires() {
    let _guard = watchdog(Duration::from_secs(60), "park then expire");
    let model = SocModel::t2();
    let ptw = capture(&model, 64);
    let schema = split_ptw(model.catalog(), &ptw).unwrap().header;
    let dir = wal_dir("expire");
    let server = Server::spawn(
        Arc::new(SocModel::t2()),
        &ServerConfig {
            read_timeout: Duration::from_millis(200),
            resume_grace: Duration::from_millis(300),
            durability: DurabilityPolicy::Strict,
            wal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Hello, ack, then nothing: the idle deadline parks the session.
    let mut s = connect(&server);
    proto::write_request(&mut s, &resume(0, 0, schema)).unwrap();
    let ack = proto::read_reply(&mut s).unwrap();
    let (token, _, epoch) = proto::parse_resume_ack(&ack).unwrap();
    assert!(
        poll_until(Duration::from_secs(10), || server.snapshot().parked == 1),
        "the silent session never parked: {:?}",
        server.snapshot()
    );
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "parking closes the transport without a reply"
    );

    // The grace period runs out: the expiry is journaled.
    assert!(
        poll_until(Duration::from_secs(10), || Server::recover(&dir, 2)
            .sessions()
            == 0),
        "the parked session never expired"
    );
    let mut s = connect(&server);
    proto::write_request(&mut s, &resume(token, epoch, schema)).unwrap();
    let err = proto::read_reply(&mut s).expect_err("an expired token is refused");
    assert!(
        matches!(&err, StreamError::Remote(m) if m.contains("unknown or expired resume token")),
        "{err:?}"
    );
    assert_eq!(server.snapshot().resumed, 0);
    server.shutdown();
    assert_eq!(Server::recover(&dir, 2).sessions(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_with_a_silent_connection_returns_within_the_drain_timeout() {
    let _guard = watchdog(Duration::from_secs(60), "drain deadline");
    let drain = Duration::from_millis(300);
    let server = Server::spawn(
        Arc::new(SocModel::t2()),
        &ServerConfig {
            handshake_timeout: Duration::from_secs(60),
            read_timeout: Duration::from_secs(60),
            drain_timeout: drain,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut silent = connect(&server);
    // No counter moves for a connection that has sent nothing; give the
    // daemon time to accept it before the drain starts.
    std::thread::sleep(Duration::from_millis(200));
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took >= drain && took < drain + Duration::from_secs(2),
        "shutdown took {took:?} against a {drain:?} drain"
    );
    let mut rest = Vec::new();
    let _ = silent.read_to_end(&mut rest);
    assert!(rest.is_empty(), "a silent connection is owed no reply");
}

#[test]
fn shutdown_under_sustained_load_returns_within_the_drain_timeout() {
    let _guard = watchdog(Duration::from_secs(60), "drain under load");
    let model = SocModel::t2();
    let ptw = capture(&model, 60_000);
    let PtwParts {
        header: schema,
        payload,
        ..
    } = split_ptw(model.catalog(), &ptw).unwrap();
    let drain = Duration::from_millis(300);
    let server = Server::spawn(
        Arc::new(SocModel::t2()),
        &ServerConfig {
            shards: 1,
            drain_timeout: drain,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Three clients keep the one shard's inbox full: each streams the
    // payload over and over until the daemon closes it (or 15 s pass).
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let (mut s, schema, payload, stop) = (
                connect(&server),
                schema.to_vec(),
                payload.to_vec(),
                Arc::clone(&stop),
            );
            std::thread::spawn(move || {
                let started = Instant::now();
                proto::write_request(&mut s, &Request::Session(hello(&schema))).unwrap();
                'send: while !stop.load(Ordering::Relaxed) && started.elapsed().as_secs() < 15 {
                    for piece in payload.chunks(16 * 1024) {
                        if proto::write_data(&mut s, piece).is_err() {
                            break 'send;
                        }
                    }
                }
            })
        })
        .collect();
    let bytes = |server: &Server| server.snapshot().bytes;
    assert!(
        poll_until(Duration::from_secs(10), || bytes(&server)
            > 4 * payload.len() as u64),
        "the clients never got going"
    );

    let flight = Arc::clone(server.flight_recorder());
    let registries = server.registries();
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    for client in clients {
        client.join().unwrap();
    }
    // Load can only stretch the host clock's reading, so it bounds the
    // drain from below: the deadline was waited out, not cut short.
    assert!(
        took >= drain,
        "shutdown under load took {took:?} against a {drain:?} drain"
    );
    // From above, the daemon's own flight stamps bound it, which the
    // test thread's scheduling cannot stretch: the shard's drain ends
    // one drain timeout after its `Drain` stamp, and that stamp follows
    // the `Shutdown` stamp by one wake. Every client's payload replays
    // as damage, but a session journals only its first few damaged
    // frames, so the stamps survive.
    let snapshot = flight.snapshot();
    let stamp = |kind: EventKind| {
        snapshot
            .events
            .iter()
            .find(|e| e.kind == kind)
            .unwrap_or_else(|| panic!("no {kind:?} stamp survived"))
            .ts_ns
    };
    let reacted =
        Duration::from_nanos(stamp(EventKind::Drain).saturating_sub(stamp(EventKind::Shutdown)));
    assert!(
        reacted < Duration::from_secs(2),
        "the loaded shard began its {drain:?} drain {reacted:?} after the shutdown"
    );
    assert_eq!(snapshot.overwritten, 0, "the shard's lane wrapped");
    let opened = snapshot
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Open)
        .count();
    assert_eq!(opened, 3, "every client's Open stamp survives");
    // One Degradation event per counter increment, in the dump as in
    // the exposition.
    let dump = write_flight_dump(&snapshot.events, DEFAULT_SYNC_EVERY).unwrap();
    let counted: BTreeMap<String, u64> = merged_samples(&registries)
        .into_iter()
        .filter(|(key, _)| key.name() == "pstrace_degradation_events_total")
        .filter_map(|(key, sample)| match sample {
            Sample::Counter(n) if n > 0 => Some((key.labels()[0].1.clone(), n)),
            _ => None,
        })
        .collect();
    assert_eq!(
        read_flight_dump(&dump).unwrap().degradation_counts(),
        counted
    );
}

#[test]
fn a_pipelined_cross_shard_resume_gets_the_oracle_report() {
    let _guard = watchdog(Duration::from_secs(60), "pipelined handoff");
    let model = SocModel::t2();
    let ptw = capture(&model, 60_000);
    let PtwParts {
        header: schema,
        bit_len,
        payload,
        ..
    } = split_ptw(model.catalog(), &ptw).unwrap();
    assert!(
        payload.len() > 256 * 1024,
        "the pipelined tail must outrun one read"
    );
    let server = Server::spawn(
        Arc::new(SocModel::t2()),
        &ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // First connection: hello, ack, half the payload, then it vanishes.
    let half = payload.len() / 2;
    let (token, epoch) = {
        let mut s = connect(&server);
        proto::write_request(&mut s, &resume(0, 0, schema)).unwrap();
        let ack = proto::read_reply(&mut s).unwrap();
        let (token, _, epoch) = proto::parse_resume_ack(&ack).unwrap();
        for piece in payload[..half].chunks(4096) {
            proto::write_data(&mut s, piece).unwrap();
        }
        s.flush().unwrap();
        (token, epoch)
    };
    assert!(
        poll_until(Duration::from_secs(10), || server.snapshot().parked == 1),
        "the session never parked: {:?}",
        server.snapshot()
    );

    // Connection ids alternate over the two shards, so the reconnect
    // lands on the shard that does not own the token. Everything goes
    // out in one write: the resume request, the rest of the payload and
    // FINISH.
    let mut wire = Vec::new();
    proto::write_request(&mut wire, &resume(token, epoch, schema)).unwrap();
    for piece in payload[half..].chunks(4096) {
        proto::write_data(&mut wire, piece).unwrap();
    }
    proto::write_finish(&mut wire, bit_len).unwrap();
    let mut s = connect(&server);
    s.write_all(&wire).unwrap();
    let ack = proto::read_reply(&mut s).unwrap();
    let (acked, offset, _) = proto::parse_resume_ack(&ack).unwrap();
    assert_eq!(acked, token);
    assert_eq!(
        offset, half as u64,
        "the parked session ingested every sent byte"
    );
    let report = proto::read_reply(&mut s).unwrap();

    let snap = server.snapshot();
    assert_eq!(
        snap.handoffs, 1,
        "the reconnect must cross shards: {snap:?}"
    );
    assert_eq!(snap.resumed, 1);
    assert_eq!(snap.completed, 1);
    assert_eq!(
        stable_lines(&report),
        stable_lines(&in_process(&model, &ptw)),
        "the handed-off session diverged from the in-process oracle"
    );
    server.shutdown();
}

#[test]
fn a_handed_off_connection_still_finishes_during_a_drain() {
    let _guard = watchdog(Duration::from_secs(60), "handoff during drain");
    let model = SocModel::t2();
    let ptw = capture(&model, 60_000);
    let PtwParts {
        header: schema,
        bit_len,
        payload,
        ..
    } = split_ptw(model.catalog(), &ptw).unwrap();
    let server = Server::spawn(
        Arc::new(SocModel::t2()),
        &ServerConfig {
            shards: 2,
            drain_timeout: Duration::from_secs(20),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Park a session on one shard, then resume it through the other.
    let third = payload.len() / 3;
    let (token, epoch) = {
        let mut s = connect(&server);
        proto::write_request(&mut s, &resume(0, 0, schema)).unwrap();
        let ack = proto::read_reply(&mut s).unwrap();
        let (token, _, epoch) = proto::parse_resume_ack(&ack).unwrap();
        for piece in payload[..third].chunks(4096) {
            proto::write_data(&mut s, piece).unwrap();
        }
        s.flush().unwrap();
        (token, epoch)
    };
    assert!(
        poll_until(Duration::from_secs(10), || server.snapshot().parked == 1),
        "the session never parked: {:?}",
        server.snapshot()
    );
    let mut s = connect(&server);
    let mut wire = Vec::new();
    proto::write_request(&mut wire, &resume(token, epoch, schema)).unwrap();
    for piece in payload[third..2 * third].chunks(4096) {
        proto::write_data(&mut wire, piece).unwrap();
    }
    s.write_all(&wire).unwrap();
    let ack = proto::read_reply(&mut s).unwrap();
    assert_eq!(proto::parse_resume_ack(&ack).unwrap().0, token);
    let snap = server.snapshot();
    assert_eq!(
        snap.handoffs, 1,
        "the reconnect must cross shards: {snap:?}"
    );

    // The drain starts while the connection is mid-stream. Its reader
    // sends its bytes straight to the owner, so the session finishes and
    // the drain ends with it, long before its deadline.
    let stopping = std::thread::spawn(move || {
        let started = Instant::now();
        server.shutdown();
        started.elapsed()
    });
    std::thread::sleep(Duration::from_millis(300));
    let mut rest = Vec::new();
    for piece in payload[2 * third..].chunks(4096) {
        proto::write_data(&mut rest, piece).unwrap();
    }
    proto::write_finish(&mut rest, bit_len).unwrap();
    s.write_all(&rest).unwrap();
    let report = proto::read_reply(&mut s).expect("the session finishes during the drain");
    assert_eq!(
        stable_lines(&report),
        stable_lines(&in_process(&model, &ptw)),
        "the handed-off session diverged from the in-process oracle"
    );
    let took = stopping.join().unwrap();
    assert!(
        took < Duration::from_secs(5),
        "the drain waited {took:?} for a session that had finished"
    );
}

#[test]
fn a_hello_that_arrives_during_the_drain_is_still_served() {
    let _guard = watchdog(Duration::from_secs(60), "hello during drain");
    let model = SocModel::t2();
    let ptw = capture(&model, 64);
    let PtwParts {
        header: schema,
        bit_len,
        payload,
        ..
    } = split_ptw(model.catalog(), &ptw).unwrap();
    let server = Server::spawn(
        Arc::new(SocModel::t2()),
        &ServerConfig {
            shards: 2,
            drain_timeout: Duration::from_secs(20),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Connected but silent when the drain starts: no counter moves for
    // it, so give the daemon time to accept it first.
    let mut s = connect(&server);
    std::thread::sleep(Duration::from_millis(200));
    let stopping = std::thread::spawn(move || {
        let started = Instant::now();
        let snap = server.shutdown();
        (started.elapsed(), snap)
    });
    std::thread::sleep(Duration::from_millis(300));
    let mut wire = Vec::new();
    proto::write_request(&mut wire, &Request::Session(hello(schema))).unwrap();
    proto::write_data(&mut wire, payload).unwrap();
    proto::write_finish(&mut wire, bit_len).unwrap();
    s.write_all(&wire).unwrap();
    let report = proto::read_reply(&mut s).expect("a hello during the drain is served");
    assert_eq!(
        stable_lines(&report),
        stable_lines(&in_process(&model, &ptw))
    );
    let (took, snap) = stopping.join().unwrap();
    assert_eq!(snap.completed, 1, "{snap:?}");
    assert!(
        took < Duration::from_secs(5),
        "the drain waited {took:?} for a session that had finished"
    );
}

#[test]
fn a_cross_shard_resume_counts_its_handoff_on_the_owner_only() {
    let _guard = watchdog(Duration::from_secs(60), "handoff on the owner");
    let model = SocModel::t2();
    let ptw = capture(&model, 64);
    let PtwParts {
        header: schema,
        bit_len,
        payload,
        ..
    } = split_ptw(model.catalog(), &ptw).unwrap();
    let server = Server::spawn(
        Arc::new(SocModel::t2()),
        &ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handoffs = |shard: usize| {
        server.registries()[shard + 1]
            .counter("pstrace_stream_handoffs_total")
            .get()
    };

    // Connection 0 parks a session; its token names the owning shard.
    let half = payload.len() / 2;
    let (token, epoch) = {
        let mut s = connect(&server);
        proto::write_request(&mut s, &resume(0, 0, schema)).unwrap();
        let ack = proto::read_reply(&mut s).unwrap();
        let (token, _, epoch) = proto::parse_resume_ack(&ack).unwrap();
        proto::write_data(&mut s, &payload[..half]).unwrap();
        s.flush().unwrap();
        (token, epoch)
    };
    assert!(
        poll_until(Duration::from_secs(10), || server.snapshot().parked == 1),
        "the session never parked: {:?}",
        server.snapshot()
    );
    let owner = (token % 2) as usize;

    // Connections 1 and 2: neither a METRICS request nor garbage is a
    // handoff.
    let mut m = connect(&server);
    proto::write_request(&mut m, &Request::Metrics).unwrap();
    proto::read_reply(&mut m).unwrap();
    let mut g = connect(&server);
    g.write_all(b"GARBAGE!").unwrap();
    proto::read_reply(&mut g).expect_err("garbage is refused");
    assert_eq!(server.snapshot().handoffs, 0);

    // Connection 3 lands on the other shard by id, and resumes on the
    // owner.
    let mut s = connect(&server);
    proto::write_request(&mut s, &resume(token, epoch, schema)).unwrap();
    let ack = proto::read_reply(&mut s).unwrap();
    let (_, offset, _) = proto::parse_resume_ack(&ack).unwrap();
    proto::write_data(&mut s, &payload[usize::try_from(offset).unwrap()..]).unwrap();
    proto::write_finish(&mut s, bit_len).unwrap();
    let report = proto::read_reply(&mut s).unwrap();
    assert_eq!(
        stable_lines(&report),
        stable_lines(&in_process(&model, &ptw))
    );
    assert_eq!(handoffs(owner), 1, "the owner counts the routed resume");
    assert_eq!(
        handoffs(1 - owner),
        0,
        "the shard of the connection id never learns of the resume"
    );
    server.shutdown();
}

#[test]
fn a_metrics_client_that_never_reads_does_not_stall_its_shard() {
    let _guard = watchdog(Duration::from_secs(120), "metrics stall");
    // Client-chosen tenant labels grow the exposition past what the
    // socket buffers of a peer that never reads can absorb.
    let root = Arc::new(Registry::new());
    let label = "t".repeat(1 << 10);
    for i in 0..12_800 {
        root.counter_with(
            "pstrace_test_tenant_total",
            &[("tenant", &format!("{i}{label}"))],
        )
        .inc();
    }
    let server = Server::spawn_with_registry(
        Arc::new(SocModel::t2()),
        &ServerConfig {
            shards: 1,
            drain_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
        root,
    )
    .unwrap();
    let requests = || {
        server.registries()[1]
            .counter("pstrace_stream_metrics_requests_total")
            .get()
    };

    let mut stuck = connect(&server);
    proto::write_request(&mut stuck, &Request::Metrics).unwrap();
    assert!(
        poll_until(Duration::from_secs(30), || requests() == 1),
        "the METRICS request was never served"
    );

    let model = SocModel::t2();
    let ptw = capture(&model, 64);
    let started = Instant::now();
    let plan = Replay {
        chunk_bytes: 64,
        ..Replay::new(1, MatchMode::Prefix)
    };
    let report = replay(
        |_| pstrace::stream::connect(server.local_addr(), &plan.policy),
        model.catalog(),
        &ptw,
        &plan,
    )
    .unwrap();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "a session behind a stalled METRICS reply took {took:?}"
    );
    assert_eq!(
        stable_lines(&report),
        stable_lines(&in_process(&model, &ptw))
    );

    // The stalled reply really is larger than the socket buffers: a
    // reader now gets the whole exposition.
    let mut head = [0u8; 5];
    stuck.read_exact(&mut head).unwrap();
    let len = u32::from_le_bytes(head[1..].try_into().unwrap());
    assert!(len >= 12 << 20, "exposition of {len} bytes");
    assert!(len < 16 << 20, "the reply must stay under its cap");
    drop(stuck);
    server.shutdown();
}
