//! Crash-only ingest contracts: a parked session's resume token works
//! across a daemon restart (checkpoint + WAL replay), a session that
//! ended without parking never comes back, tokens from a foreign WAL
//! lineage are shed with a typed epoch rejection, and
//! `pstrace stop` against a dead daemon fails fast with a typed
//! connection error instead of burning a retry budget.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstrace::diag::MatchMode;
use pstrace::faults::watchdog;
use pstrace::flow::{FlowIndex, IndexedMessage};
use pstrace::obs::EventKind;
use pstrace::select::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace::soc::{wirecap, SocModel, TraceBufferConfig, UsageScenario};
use pstrace::stream::durable::DurabilityPolicy;
use pstrace::stream::proto::{self, Hello, Request};
use pstrace::stream::{send_request, Server, ServerConfig, SessionLimits, StreamError};
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

/// A scenario-1, prefix-mode resumable-session request: token 0 opens
/// fresh.
fn resume(token: u64, epoch: u64, schema: &[u8]) -> Request {
    let hello = Hello {
        scenario: 1,
        mode: MatchMode::Prefix,
        tenant: 0,
        trace: 0,
        schema: schema.to_vec(),
    };
    Request::Resume {
        token,
        epoch,
        hello,
    }
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pstrace-crashrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 2,
        read_timeout: Duration::from_millis(150),
        resume_grace: Duration::from_secs(30),
        durability: DurabilityPolicy::Strict,
        wal_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// One uninterrupted resumable session over a raw socket; returns the
/// final report text.
fn run_resumable(server: &Server, cap: &Capture) -> String {
    let mut s = connect(server);
    proto::write_request(&mut s, &resume(0, 0, &cap.schema)).unwrap();
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
fn parked_session_resumes_across_a_daemon_restart() {
    let _guard = watchdog(Duration::from_secs(120), "crash recovery resume");
    let dir = wal_dir("resume");
    let cap = capture(400);

    // Life #1: a reference run, then a session that dies half-streamed
    // and parks. Shutting the daemon down with the session still parked
    // leaves its Open + Park group in the WAL — the crash-only property
    // is that restart and crash recovery are the same code path.
    let first = Server::spawn(Arc::clone(&cap.model), &durable_config(&dir)).unwrap();
    let uninterrupted = run_resumable(&first, &cap);
    let daemon_epoch = first.epoch();
    assert_ne!(daemon_epoch, 0, "a durable daemon mints a nonzero epoch");

    let half = cap.payload.len() / 2;
    let (token, epoch) = {
        let mut s = connect(&first);
        proto::write_request(&mut s, &resume(0, 0, &cap.schema)).unwrap();
        let ack = proto::read_reply(&mut s).unwrap();
        let (token, offset, epoch) = proto::parse_resume_ack(&ack).unwrap();
        assert!(token > 0);
        assert_eq!(offset, 0);
        assert_eq!(epoch, daemon_epoch, "the ack quotes the daemon's epoch");
        for piece in cap.payload[..half].chunks(64) {
            proto::write_data(&mut s, piece).unwrap();
        }
        s.flush().unwrap();
        (token, epoch)
    };
    assert!(
        poll_until(Duration::from_secs(30), || first.snapshot().parked >= 1),
        "session was never parked: {:?}",
        first.snapshot()
    );
    first.shutdown();

    // Life #2: same WAL directory. Recovery must re-mint the same epoch,
    // re-park the journaled session, and honor the pre-crash token.
    let second = Server::spawn(Arc::clone(&cap.model), &durable_config(&dir)).unwrap();
    assert_eq!(second.epoch(), epoch, "the epoch survives restarts");
    assert!(
        poll_until(Duration::from_secs(30), || second.snapshot().recovered >= 1),
        "no session recovered: {:?}",
        second.snapshot()
    );
    // The recovery shows up in the flight journal too: lane-0 fr-recover
    // events carry the restored/replayed/skipped counts.
    assert!(
        second
            .flight_snapshot()
            .events
            .iter()
            .any(|e| e.kind == EventKind::Recover),
        "recovery must be journaled as fr-recover events"
    );

    let resumed = {
        let mut s = connect(&second);
        proto::write_request(&mut s, &resume(token, epoch, &cap.schema)).unwrap();
        let ack = proto::read_reply(&mut s).unwrap();
        let (acked, offset, acked_epoch) = proto::parse_resume_ack(&ack).unwrap();
        assert_eq!(acked, token, "resume ack changed the token");
        assert_eq!(acked_epoch, epoch);
        assert_eq!(offset, 0, "payload is not durable: the client resends");
        for piece in cap.payload.chunks(64) {
            proto::write_data(&mut s, piece).unwrap();
        }
        proto::write_finish(&mut s, cap.bit_len).unwrap();
        s.flush().unwrap();
        proto::read_reply(&mut s).unwrap()
    };
    let snap = second.snapshot();
    assert!(snap.resumed >= 1, "no resume counted: {snap:?}");
    assert_eq!(snap.worker_panics, 0);
    assert_eq!(
        stable_lines(&resumed),
        stable_lines(&uninterrupted),
        "recovered session diverged from the uninterrupted run:\n{resumed}\nvs\n{uninterrupted}"
    );
    second.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_budget_closed_resumable_session_is_not_recovered_after_a_restart() {
    let _guard = watchdog(Duration::from_secs(120), "crash recovery budget close");
    let dir = wal_dir("budget");
    let cap = capture(400);
    let config = ServerConfig {
        limits: SessionLimits {
            max_bytes: Some(16),
            ..SessionLimits::default()
        },
        ..durable_config(&dir)
    };
    let server = Server::spawn(Arc::clone(&cap.model), &config).unwrap();
    let mut s = connect(&server);
    proto::write_request(&mut s, &resume(0, 0, &cap.schema)).unwrap();
    let ack = proto::read_reply(&mut s).unwrap();
    let (token, _, _) = proto::parse_resume_ack(&ack).unwrap();
    assert!(token > 0, "a resumable session got a token");
    proto::write_data(&mut s, &cap.payload[..64]).unwrap();
    s.flush().unwrap();
    let err = proto::read_reply(&mut s).expect_err("64 bytes cross a 16-byte budget");
    assert!(
        matches!(&err, StreamError::Remote(m) if m == "session exceeded its byte budget (64 > 16)"),
        "{err}"
    );
    drop(s);
    server.shutdown();

    // The session ended without parking, so its token is dead: a
    // restart must not re-park it and hold a quota seat for it.
    assert_eq!(
        Server::recover(&dir, 2).sessions(),
        0,
        "a budget-closed session came back from the WAL"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_lineage_tokens_are_shed_with_a_typed_epoch_rejection() {
    let _guard = watchdog(Duration::from_secs(120), "crash recovery epoch shed");
    let dir_a = wal_dir("lineage-a");
    let dir_b = wal_dir("lineage-b");
    let cap = capture(200);

    // A token minted by daemon A (WAL lineage A)…
    let a = Server::spawn(Arc::clone(&cap.model), &durable_config(&dir_a)).unwrap();
    let (token, epoch) = {
        let mut s = connect(&a);
        proto::write_request(&mut s, &resume(0, 0, &cap.schema)).unwrap();
        let ack = proto::read_reply(&mut s).unwrap();
        let (token, _, epoch) = proto::parse_resume_ack(&ack).unwrap();
        (token, epoch)
    };
    a.shutdown();

    // …presented to daemon B (lineage B): splicing it into B's tables
    // would corrupt someone else's session, so B sheds it politely and
    // accounts the shed under its own reason label.
    let b = Server::spawn(Arc::clone(&cap.model), &durable_config(&dir_b)).unwrap();
    assert_ne!(
        b.epoch(),
        epoch,
        "distinct WAL lineages mint distinct epochs"
    );
    let mut s = connect(&b);
    proto::write_request(&mut s, &resume(token, epoch, &cap.schema)).unwrap();
    let err = proto::read_reply(&mut s).expect_err("foreign token must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("epoch") && msg.contains("rejected"),
        "rejection must name the epoch mismatch: {msg}"
    );
    drop(s);

    let snap = b.snapshot();
    assert!(snap.shed >= 1, "the rejection is counted as shed: {snap:?}");
    let exposition = pstrace::obs::render_prometheus_samples(&b.merged_samples());
    assert!(
        exposition.contains("pstrace_stream_shed_total{reason=\"resume-epoch-shed\"} 1"),
        "shed reason series missing:\n{exposition}"
    );
    assert!(
        b.flight_snapshot()
            .events
            .iter()
            .any(|e| e.kind == EventKind::Shed),
        "the shed must be journaled"
    );
    b.shutdown();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn stop_against_a_dead_daemon_fails_fast_with_a_typed_error() {
    // A port that was just released: nothing is listening there.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    // `pstrace stop` and `pstrace metrics` share the one-shot request.
    for request in [Request::Shutdown, Request::Metrics] {
        let started = Instant::now();
        let err = send_request(addr, &request).expect_err("no daemon is listening");
        let elapsed = started.elapsed();
        assert!(
            matches!(err, StreamError::Unreachable { .. }),
            "typed connection error, not a generic i/o failure: {err}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("unreachable") && msg.contains(&addr.port().to_string()),
            "the error names the dead address: {msg}"
        );
        assert!(
            elapsed < Duration::from_secs(3),
            "{request:?} must fail fast, not burn a retry budget: {elapsed:?}"
        );
    }
}
