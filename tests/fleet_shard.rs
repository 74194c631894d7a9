//! Fleet-ingest contracts of the sharded event-loop daemon: session
//! pinning across reconnects (with cross-shard handoff), deterministic
//! tenant-quota shedding, per-shard registry merge parity with a
//! single-registry run, and graceful SHUTDOWN-verb drain.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstrace::diag::MatchMode;
use pstrace::faults::watchdog;
use pstrace::flow::{FlowIndex, IndexedMessage};
use pstrace::select::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace::soc::{wirecap, SocModel, TraceBufferConfig, UsageScenario};
use pstrace::stream::proto::{self, Hello, Request};
use pstrace::stream::{replay, send_request, Replay, Server, ServerConfig, StatsSnapshot};
use pstrace::wire::{encode_records, read_ptw_schema, write_ptw, WireRecord};

/// A small scenario-1 capture split the way the PSTS handshake wants
/// it: schema prefix, payload bit length, payload bytes.
struct Capture {
    model: Arc<SocModel>,
    ptw: Vec<u8>,
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
        ptw,
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

/// A scenario-1, prefix-mode hello for the anonymous tenant.
fn hello(schema: &[u8]) -> Hello {
    Hello {
        scenario: 1,
        mode: MatchMode::Prefix,
        tenant: 0,
        trace: 0,
        schema: schema.to_vec(),
    }
}

/// Replays the capture over one plain session in 64-byte chunks.
fn replay_plain(server: &Server, cap: &Capture) -> Result<String, pstrace::stream::StreamError> {
    let plan = Replay {
        chunk_bytes: 64,
        ..Replay::new(1, MatchMode::Prefix)
    };
    let addr = server.local_addr();
    let connect = |_| pstrace::stream::connect(addr, &plan.policy);
    replay(connect, cap.model.catalog(), &cap.ptw, &plan)
}

/// One uninterrupted resumable session over a raw socket; returns the
/// final report text.
fn run_resumable(server: &Server, cap: &Capture) -> String {
    let mut s = connect(server);
    let request = Request::Resume {
        token: 0,
        epoch: 0,
        hello: hello(&cap.schema),
    };
    proto::write_request(&mut s, &request).unwrap();
    let ack = proto::read_reply(&mut s).unwrap();
    let (_token, offset, _epoch) = proto::parse_resume_ack(&ack).unwrap();
    assert_eq!(offset, 0);
    for piece in cap.payload.chunks(64) {
        proto::write_data(&mut s, piece).unwrap();
    }
    proto::write_finish(&mut s, cap.bit_len).unwrap();
    s.flush().unwrap();
    proto::read_reply(&mut s).unwrap()
}

/// Everything but the wall-clock-dependent ingest line (B/s varies).
fn stable_lines(report: &str) -> Vec<&str> {
    report
        .lines()
        .filter(|l| !l.trim_start().starts_with("ingest"))
        .collect()
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

#[test]
fn resume_pins_the_session_across_reconnect_and_shards() {
    let _guard = watchdog(Duration::from_secs(120), "fleet resume pinning");
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

    // The reference answer: the same capture, never interrupted.
    let uninterrupted = run_resumable(&server, &cap);

    // Now the same session dies mid-stream. First connection: hello,
    // ack, half the payload, then the transport vanishes without FINISH.
    let half = cap.payload.len() / 2;
    let (token, epoch) = {
        let mut s = connect(&server);
        let request = Request::Resume {
            token: 0,
            epoch: 0,
            hello: hello(&cap.schema),
        };
        proto::write_request(&mut s, &request).unwrap();
        let ack = proto::read_reply(&mut s).unwrap();
        let (token, offset, epoch) = proto::parse_resume_ack(&ack).unwrap();
        assert!(token > 0, "fresh resumable session got token {token}");
        assert_eq!(offset, 0);
        for piece in cap.payload[..half].chunks(64) {
            proto::write_data(&mut s, piece).unwrap();
        }
        s.flush().unwrap();
        (token, epoch)
    };

    // The owning shard must notice the dead transport and park the
    // session rather than fail it.
    assert!(
        poll_until(Duration::from_secs(30), || server.snapshot().parked >= 1),
        "session was never parked: {:?}",
        server.snapshot()
    );

    // Reconnect with the token. Connection ids round-robin over shards,
    // so this connection lands on a different shard than the token's
    // owner — the daemon must hand it off, not lose it.
    let resumed = {
        let mut s = connect(&server);
        let request = Request::Resume {
            token,
            epoch,
            hello: hello(&cap.schema),
        };
        proto::write_request(&mut s, &request).unwrap();
        let ack = proto::read_reply(&mut s).unwrap();
        let (acked, offset, _) = proto::parse_resume_ack(&ack).unwrap();
        assert_eq!(acked, token, "resume ack changed the token");
        let offset = usize::try_from(offset).unwrap();
        assert!(offset <= half, "server acked bytes it never saw");
        for piece in cap.payload[offset..].chunks(64) {
            proto::write_data(&mut s, piece).unwrap();
        }
        proto::write_finish(&mut s, cap.bit_len).unwrap();
        s.flush().unwrap();
        proto::read_reply(&mut s).unwrap()
    };

    let snap = server.snapshot();
    assert!(snap.resumed >= 1, "no resume counted: {snap:?}");
    assert!(snap.parked >= 1, "no park counted: {snap:?}");
    assert!(
        snap.handoffs >= 1,
        "reconnect landed cross-shard, so a handoff must be counted: {snap:?}"
    );
    assert_eq!(snap.worker_panics, 0);
    assert_eq!(
        stable_lines(&resumed),
        stable_lines(&uninterrupted),
        "resumed session diverged from the uninterrupted run:\n{resumed}\nvs\n{uninterrupted}"
    );
    server.shutdown();
}

#[test]
fn over_quota_tenants_are_shed_deterministically() {
    let _guard = watchdog(Duration::from_secs(120), "fleet tenant quota");
    let cap = capture(120);
    let server = Server::spawn(
        Arc::clone(&cap.model),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 2,
            tenant_quota: Some(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Tenant 7 occupies its whole quota with one in-flight session:
    // hello acked, payload half-sent, connection held open.
    let mut held = connect(&server);
    let tenant_7 = Hello {
        tenant: 7,
        ..hello(&cap.schema)
    };
    let request = Request::Resume {
        token: 0,
        epoch: 0,
        hello: tenant_7.clone(),
    };
    proto::write_request(&mut held, &request).unwrap();
    let ack = proto::read_reply(&mut held).unwrap();
    proto::parse_resume_ack(&ack).unwrap();

    // A second tenant-7 session must be rejected, every time, with the
    // quota named; the governor's answer does not depend on which shard
    // the connection lands on.
    for _ in 0..3 {
        // `Replay::new` defaults to tenant 0 — prove the quota is
        // per-tenant by running tenant 7 raw instead.
        replay_plain(&server, &cap).expect("tenant 0 is under quota and must be served");
        let mut s = connect(&server);
        proto::write_request(&mut s, &Request::Session(tenant_7.clone())).unwrap();
        s.flush().unwrap();
        let verdict = proto::read_reply(&mut s);
        let msg = verdict.expect_err("tenant 7 is at quota").to_string();
        assert!(
            msg.contains("tenant") && msg.contains("quota"),
            "shed reason must name the quota: {msg}"
        );
    }

    let snap = server.snapshot();
    assert!(snap.shed >= 3, "three rejections counted as shed: {snap:?}");
    let exposition = pstrace::obs::render_prometheus_samples(&server.merged_samples());
    assert!(
        exposition.contains("pstrace_stream_shed_total{reason=\"tenant-quota-shed\"} 3"),
        "shed reason series missing:\n{exposition}"
    );

    // Tenant 7's held session still completes: shedding the overflow
    // never harms the session that holds the quota.
    for piece in cap.payload.chunks(64) {
        proto::write_data(&mut held, piece).unwrap();
    }
    proto::write_finish(&mut held, cap.bit_len).unwrap();
    held.flush().unwrap();
    proto::read_reply(&mut held).expect("held tenant-7 session completes");
    server.shutdown();
}

#[test]
fn sharded_registry_merge_matches_a_single_registry_run() {
    let cap = capture(300);
    let run = |shards: usize| -> (StatsSnapshot, String) {
        let server = Server::spawn(
            Arc::clone(&cap.model),
            &ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                shards,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        for _ in 0..4 {
            replay_plain(&server, &cap).unwrap();
        }
        let exposition = pstrace::obs::render_prometheus_samples(&server.merged_samples());
        (server.shutdown(), exposition)
    };

    // Global session ids restart with each daemon, so both runs label
    // their per-session series 1..=4 — the expositions must be equal
    // key for key and value for value, not merely as aggregates.
    let (single_snap, single_expo) = run(1);
    let (sharded_snap, sharded_expo) = run(4);
    assert_eq!(single_snap, sharded_snap);
    assert_eq!(
        single_expo, sharded_expo,
        "merged 4-shard exposition diverged from the single-registry run"
    );
    assert_eq!(single_snap.completed, 4);
    assert_eq!(single_snap.failed, 0);
    // The program cache is per daemon, not per shard: one compile, then
    // hits, whichever shard each session landed on.
    for line in [
        "pstrace_stream_program_cache_total{result=\"hit\"} 3\n",
        "pstrace_stream_program_cache_total{result=\"miss\"} 1\n",
        "pstrace_stream_program_cache_total{result=\"bypass\"} 0\n",
    ] {
        assert!(
            sharded_expo.contains(line),
            "missing `{line}` in exposition:\n{sharded_expo}"
        );
    }
}

#[test]
fn shutdown_verb_drains_the_daemon_and_frees_the_port() {
    let _guard = watchdog(Duration::from_secs(60), "fleet shutdown drain");
    let cap = capture(120);
    let server = Server::spawn(
        Arc::clone(&cap.model),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 3,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A session completes before the shutdown request: normal service.
    replay_plain(&server, &cap).unwrap();

    let ack = send_request(addr, &Request::Shutdown).unwrap();
    assert!(ack.contains("draining"), "shutdown ack: {ack}");
    assert!(server.shutdown_requested());

    // The accept thread exits and the listener closes; new connections
    // must start failing.
    assert!(
        poll_until(Duration::from_secs(30), || TcpStream::connect_timeout(
            &addr,
            Duration::from_millis(200)
        )
        .is_err()),
        "the listener never closed after SHUTDOWN"
    );
    let snap = server.shutdown();
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.worker_panics, 0);
}
