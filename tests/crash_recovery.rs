//! Crash-only ingest contracts: a parked session's resume token works
//! across a daemon restart (journal replay), a session that
//! ended without parking never comes back, a finished session whose
//! unsynced `Complete` a power loss dropped replays to the same report
//! or expires, strict durability costs one fsync per shard wake that
//! journaled an open group (so one per resumable session when they come
//! one at a time, and at most one per session when they come together,
//! each acked only after the sync that covers it),
//! an idle daemon writes nothing to its WAL directory while the first
//! session's journal, whose header carries the epoch, keeps its token
//! across a restart and a power loss, tokens from a
//! foreign WAL lineage are shed with a typed epoch
//! rejection, and `pstrace stop` against a dead daemon fails fast with a
//! typed connection error instead of burning a retry budget.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pstrace::diag::MatchMode;
use pstrace::faults::{poll_until, stable_lines, watchdog, Fixture};
use pstrace::obs::EventKind;
use pstrace::stream::durable::{
    decode_entry, wal_path, DurabilityPolicy, WalRecord, SCHEMA_CHUNK_BYTES, WAL_ENTRY_BYTES,
};
use pstrace::stream::proto::{self, Hello, Request};
use pstrace::stream::{
    connect as client_connect, replay, send_request, Replay, RetryPolicy, Server, ServerConfig,
    Session, SessionLimits, StreamError,
};
use pstrace::wire::{read_ptw_any, split_ptw, PtwParts};

fn connect(server: &Server) -> TcpStream {
    let policy = RetryPolicy {
        read_timeout: Duration::from_secs(10),
        ..RetryPolicy::default()
    };
    client_connect(server.local_addr(), &policy).unwrap()
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

/// One uninterrupted resumable session over a raw socket: `token` 0
/// opens fresh, anything else resumes. Returns the token and the final
/// report text.
fn run_resumable(server: &Server, cap: &PtwParts, token: u64, epoch: u64) -> (u64, String) {
    let mut s = connect(server);
    proto::write_request(&mut s, &resume(token, epoch, cap.header)).unwrap();
    let ack = proto::read_reply(&mut s).unwrap();
    let (acked, offset, _epoch) = proto::parse_resume_ack(&ack).unwrap();
    assert_eq!(offset, 0);
    for piece in cap.payload.chunks(64) {
        proto::write_data(&mut s, piece).unwrap();
    }
    proto::write_finish(&mut s, cap.bit_len).unwrap();
    s.flush().unwrap();
    (acked, proto::read_reply(&mut s).unwrap())
}

#[test]
fn parked_session_resumes_across_a_daemon_restart() {
    let _guard = watchdog(Duration::from_secs(120), "crash recovery resume");
    let dir = wal_dir("resume");
    let fx = Fixture::new(400).unwrap();
    let cap = split_ptw(fx.model.catalog(), &fx.ptw).unwrap();

    // Life #1: a reference run, then a session that dies half-streamed
    // and parks. Shutting the daemon down with the session still parked
    // leaves its open group in the WAL — the crash-only property
    // is that restart and crash recovery are the same code path.
    let first = Server::spawn(Arc::clone(&fx.model), &durable_config(&dir)).unwrap();
    let (_, uninterrupted) = run_resumable(&first, &cap, 0, 0);
    let daemon_epoch = first.epoch();
    assert_ne!(daemon_epoch, 0, "a durable daemon mints a nonzero epoch");

    let half = cap.payload.len() / 2;
    let (token, epoch) = {
        let mut s = connect(&first);
        proto::write_request(&mut s, &resume(0, 0, cap.header)).unwrap();
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
    let second = Server::spawn(Arc::clone(&fx.model), &durable_config(&dir)).unwrap();
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
        proto::write_request(&mut s, &resume(token, epoch, cap.header)).unwrap();
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
    let fx = Fixture::new(400).unwrap();
    let cap = split_ptw(fx.model.catalog(), &fx.ptw).unwrap();
    let config = ServerConfig {
        limits: SessionLimits {
            max_bytes: Some(16),
            ..SessionLimits::default()
        },
        ..durable_config(&dir)
    };
    let server = Server::spawn(Arc::clone(&fx.model), &config).unwrap();
    let mut s = connect(&server);
    proto::write_request(&mut s, &resume(0, 0, cap.header)).unwrap();
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
fn a_reparked_finished_session_replays_to_the_same_report() {
    let _guard = watchdog(Duration::from_secs(120), "crash recovery re-parked finish");
    let dir = wal_dir("reparked");
    let fx = Fixture::new(400).unwrap();
    let cap = split_ptw(fx.model.catalog(), &fx.ptw).unwrap();

    // Life #1: finish resumable sessions until each of the two shards
    // has finished one; each shard's journal then ends in that session's
    // Complete.
    let first = Server::spawn(Arc::clone(&fx.model), &durable_config(&dir)).unwrap();
    let epoch = first.epoch();
    let mut finished: [Option<(u64, String)>; 2] = [None, None];
    for _ in 0..16 {
        if finished.iter().all(Option::is_some) {
            break;
        }
        let (token, report) = run_resumable(&first, &cap, 0, 0);
        finished[(token % 2) as usize] = Some((token, report));
    }
    first.shutdown();
    let [Some((kept, report)), Some((untouched, _))] = finished else {
        panic!("sixteen sessions never reached both shards: {finished:?}");
    };

    // A power loss drops each journal's unsynced tail: the Complete.
    for (shard, token) in [(0, kept), (1, untouched)] {
        let path = wal_path(&dir, shard);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - WAL_ENTRY_BYTES;
        let tail: &[u8; WAL_ENTRY_BYTES] = bytes[at..].try_into().unwrap();
        let last = decode_entry(tail, &path, at as u64).unwrap();
        assert_eq!(
            last,
            WalRecord::Complete { token },
            "shard {shard}'s last entry"
        );
        bytes.truncate(at);
        std::fs::write(&path, bytes).unwrap();
    }
    let recovered: Vec<u64> = Server::recover(&dir, 2)
        .shards
        .iter()
        .flatten()
        .map(|r| r.token)
        .collect();
    assert!(
        recovered.contains(&kept) && recovered.contains(&untouched),
        "both finished sessions come back without their Complete: {recovered:?}"
    );

    // Life #2 re-parks both under a short grace.
    let config = ServerConfig {
        resume_grace: Duration::from_secs(3),
        ..durable_config(&dir)
    };
    let second = Server::spawn(Arc::clone(&fx.model), &config).unwrap();
    assert!(
        poll_until(Duration::from_secs(30), || second.snapshot().recovered >= 2),
        "the finished sessions were not re-parked: {:?}",
        second.snapshot()
    );
    // Resumed, the kept token acks offset 0, and the same capture yields
    // the same report: only the wall-clock ingest line may differ.
    let (acked, replayed) = run_resumable(&second, &cap, kept, epoch);
    assert_eq!(acked, kept);
    assert_eq!(
        stable_lines(&replayed),
        stable_lines(&report),
        "a re-parked finished session diverged:\n{replayed}\nvs\n{report}"
    );

    // The untouched one expires under the grace, journals its Expire,
    // and its token is refused from then on.
    let journaled = |token: u64| {
        Server::recover(&dir, 2)
            .shards
            .iter()
            .flatten()
            .any(|r| r.token == token)
    };
    assert!(
        poll_until(Duration::from_secs(30), || !journaled(untouched)),
        "the untouched re-parked session never expired"
    );
    assert!(
        !journaled(kept),
        "the replayed session journaled its Complete"
    );
    let mut s = connect(&second);
    proto::write_request(&mut s, &resume(untouched, epoch, cap.header)).unwrap();
    let err = proto::read_reply(&mut s).expect_err("an expired token is refused");
    assert!(
        matches!(&err, StreamError::Remote(m) if m.contains("expired resume token")),
        "{err}"
    );
    drop(s);
    second.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn strict_wal_syncs_once_per_resumable_session() {
    let _guard = watchdog(Duration::from_secs(120), "strict WAL sync count");
    let dir = wal_dir("syncs");
    let fx = Fixture::new(200).unwrap();
    let server = Server::spawn(Arc::clone(&fx.model), &durable_config(&dir)).unwrap();
    // Spawn journals nothing, so it syncs nothing; a shard's first open
    // group creates its journal and syncs it once.
    let before = server.snapshot().fsyncs;
    assert_eq!(before, 0);

    let plan = Replay {
        chunk_bytes: 64,
        policy: RetryPolicy {
            max_reconnects: 2,
            ..RetryPolicy::default()
        },
        ..Replay::new(1, MatchMode::Prefix)
    };
    let addr = server.local_addr();
    const SESSIONS: u64 = 6;
    for _ in 0..SESSIONS {
        replay(
            |_| client_connect(addr, &plan.policy),
            fx.model.catalog(),
            &fx.ptw,
            &plan,
        )
        .unwrap();
    }
    // One fsync per session, its open group's; Complete rides the next.
    let snap = server.snapshot();
    assert_eq!(snap.completed, SESSIONS, "{snap:?}");
    assert_eq!(snap.fsyncs - before, SESSIONS, "{snap:?}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_fresh_sessions_share_syncs_and_are_acked_after_them() {
    let _guard = watchdog(Duration::from_secs(120), "shared open-group syncs");
    let dir = wal_dir("shared");
    let fx = Fixture::new(200).unwrap();
    let cap = split_ptw(fx.model.catalog(), &fx.ptw).unwrap();
    let config = ServerConfig {
        shards: 1,
        ..durable_config(&dir)
    };
    let server = Server::spawn(Arc::clone(&fx.model), &config).unwrap();
    assert_eq!(server.snapshot().fsyncs, 0, "no sync before any group");

    // The in-process oracle every daemon report must equal.
    let (schema, meta, stream) = read_ptw_any(fx.model.catalog(), &fx.ptw).unwrap();
    let mut session = Session::with_meta(&fx.flow, schema, meta, MatchMode::Prefix);
    session.push_chunk(&stream.bytes);
    let report = session.finish(Some(stream.bit_len));
    let oracle = format!(
        "session over scenario 1 ({:?} match)\n{}",
        report.mode,
        report.render()
    );

    // Each client pipelines its request, the capture and FINISH in one
    // write, as the fresh-session client does, all at once.
    let mut upload = Vec::new();
    proto::write_request(&mut upload, &resume(0, 0, cap.header)).unwrap();
    proto::write_data(&mut upload, cap.payload).unwrap();
    proto::write_finish(&mut upload, cap.bit_len).unwrap();
    const SESSIONS: usize = 8;
    let start = Barrier::new(SESSIONS);
    let outcomes: Vec<(u64, u64, String)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..SESSIONS)
            .map(|_| {
                let mut s = connect(&server);
                let (start, upload, server) = (&start, &upload, &server);
                scope.spawn(move || {
                    start.wait();
                    s.write_all(upload).unwrap();
                    let ack = proto::read_reply(&mut s).unwrap();
                    // The sync that covers this session's group was
                    // counted before its ack left.
                    let synced = server.snapshot().fsyncs;
                    let (token, offset, _) = proto::parse_resume_ack(&ack).unwrap();
                    assert_eq!(offset, 0);
                    (token, synced, proto::read_reply(&mut s).unwrap())
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });

    let snap = server.snapshot();
    assert_eq!(snap.completed, SESSIONS as u64, "{snap:?}");
    assert!(
        (1..=SESSIONS as u64).contains(&snap.fsyncs),
        "{} sessions took {} syncs",
        SESSIONS,
        snap.fsyncs
    );
    let mut tokens: Vec<u64> = outcomes.iter().map(|(token, ..)| *token).collect();
    tokens.sort_unstable();
    tokens.dedup();
    assert_eq!(tokens.len(), SESSIONS, "every session has its own token");
    for (token, synced, report) in &outcomes {
        assert!(*synced >= 1, "token {token} was acked before any sync");
        assert_eq!(
            stable_lines(report),
            stable_lines(&oracle),
            "token {token} diverged from the in-process oracle"
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The files of a WAL directory, sorted by name.
fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn an_idle_strict_daemon_leaves_its_fresh_wal_directory_empty() {
    let _guard = watchdog(Duration::from_secs(60), "idle strict daemon");
    let dir = wal_dir("idle");
    let fx = Fixture::new(60).unwrap();
    let server = Server::spawn(Arc::clone(&fx.model), &durable_config(&dir)).unwrap();
    assert_eq!(server.snapshot().fsyncs, 0, "spawn syncs nothing");
    let snap = server.shutdown();
    assert_eq!(snap.fsyncs, 0, "the drain syncs only journals that exist");
    assert!(
        files_in(&dir).is_empty(),
        "an idle life wrote {:?}",
        files_in(&dir)
    );

    // Spawn still creates the directory, so a path that cannot be one
    // fails at once.
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"x").unwrap();
    assert!(Server::spawn(Arc::clone(&fx.model), &durable_config(&file.join("wal"))).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_first_session_creates_its_journal_whose_header_carries_the_epoch() {
    let _guard = watchdog(Duration::from_secs(120), "first session files");
    let dir = wal_dir("first");
    let cut = wal_dir("first-cut");
    let fx = Fixture::new(400).unwrap();
    let cap = split_ptw(fx.model.catalog(), &fx.ptw).unwrap();

    // Life #1: one resumable session, acked, then dead half-streamed.
    let first = Server::spawn(Arc::clone(&fx.model), &durable_config(&dir)).unwrap();
    let epoch = first.epoch();
    let token = {
        let mut s = connect(&first);
        proto::write_request(&mut s, &resume(0, 0, cap.header)).unwrap();
        let ack = proto::read_reply(&mut s).unwrap();
        let (token, _, acked_epoch) = proto::parse_resume_ack(&ack).unwrap();
        assert_eq!(acked_epoch, epoch);
        // The ack follows the sync: the owning shard's journal exists,
        // the other shard's does not, and nothing else does.
        let journal = format!("wal-{}.wal", token % 2);
        assert_eq!(files_in(&dir), [journal]);
        assert_eq!(first.snapshot().fsyncs, 1, "one counted sync per session");
        for piece in cap.payload[..cap.payload.len() / 2].chunks(64) {
            proto::write_data(&mut s, piece).unwrap();
        }
        s.flush().unwrap();
        token
    };
    assert!(
        poll_until(Duration::from_secs(30), || first.snapshot().parked >= 1),
        "session was never parked: {:?}",
        first.snapshot()
    );
    first.shutdown();

    // A power loss keeps only synced bytes: the journal up to the open
    // group's sync (Epoch header, Open entry and the schema chunks).
    // Parking appends nothing, so that is the whole journal. The header
    // alone carries the epoch.
    std::fs::create_dir_all(&cut).unwrap();
    let shard = (token % 2) as usize;
    let mut journal = std::fs::read(wal_path(&dir, shard)).unwrap();
    let synced = WAL_ENTRY_BYTES * (2 + cap.header.len().div_ceil(SCHEMA_CHUNK_BYTES));
    assert_eq!(journal.len(), synced, "parking appends nothing");
    journal.truncate(synced);
    std::fs::write(wal_path(&cut, shard), journal).unwrap();

    // The token survives a real restart, and the power loss too.
    for dir in [&dir, &cut] {
        let life = Server::spawn(Arc::clone(&fx.model), &durable_config(dir)).unwrap();
        assert_eq!(life.epoch(), epoch, "the epoch survives restarts");
        let (acked, report) = run_resumable(&life, &cap, token, epoch);
        assert_eq!(acked, token);
        assert!(report.contains(&fx.batch_localization), "{report}");
        life.shutdown();
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn a_lazy_daemon_creates_its_journal_on_the_first_append_and_the_drain_syncs_it() {
    let _guard = watchdog(Duration::from_secs(60), "lazy journal");
    let dir = wal_dir("lazy");
    let fx = Fixture::new(200).unwrap();
    let cap = split_ptw(fx.model.catalog(), &fx.ptw).unwrap();
    let config = ServerConfig {
        durability: DurabilityPolicy::Lazy,
        ..durable_config(&dir)
    };
    let server = Server::spawn(Arc::clone(&fx.model), &config).unwrap();
    assert!(
        files_in(&dir).is_empty(),
        "spawn wrote {:?}",
        files_in(&dir)
    );
    let (token, report) = run_resumable(&server, &cap, 0, 0);
    assert!(report.contains(&fx.batch_localization), "{report}");
    assert_eq!(files_in(&dir), [format!("wal-{}.wal", token % 2)]);
    assert_eq!(server.snapshot().fsyncs, 0, "lazy appends never sync");
    let snap = server.shutdown();
    assert_eq!(snap.fsyncs, 1, "the drain syncs the one journal there is");
    assert_eq!(
        Server::recover(&dir, 2).sessions(),
        0,
        "the finished session stays finished"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_lineage_tokens_are_shed_with_a_typed_epoch_rejection() {
    let _guard = watchdog(Duration::from_secs(120), "crash recovery epoch shed");
    let dir_a = wal_dir("lineage-a");
    let dir_b = wal_dir("lineage-b");
    let fx = Fixture::new(200).unwrap();
    let cap = split_ptw(fx.model.catalog(), &fx.ptw).unwrap();

    // A token minted by daemon A (WAL lineage A)…
    let a = Server::spawn(Arc::clone(&fx.model), &durable_config(&dir_a)).unwrap();
    let (token, epoch) = {
        let mut s = connect(&a);
        proto::write_request(&mut s, &resume(0, 0, cap.header)).unwrap();
        let ack = proto::read_reply(&mut s).unwrap();
        let (token, _, epoch) = proto::parse_resume_ack(&ack).unwrap();
        (token, epoch)
    };
    a.shutdown();

    // …presented to daemon B (lineage B): splicing it into B's tables
    // would corrupt someone else's session, so B sheds it politely and
    // accounts the shed under its own reason label.
    let b = Server::spawn(Arc::clone(&fx.model), &durable_config(&dir_b)).unwrap();
    assert_ne!(
        b.epoch(),
        epoch,
        "distinct WAL lineages mint distinct epochs"
    );
    let mut s = connect(&b);
    proto::write_request(&mut s, &resume(token, epoch, cap.header)).unwrap();
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
