//! Fleet-ingest contracts of the sharded event-loop daemon: session
//! pinning across reconnects (with cross-shard handoff), deterministic
//! tenant-quota shedding, per-shard registry merge parity with a
//! single-registry run, a daemon-wide cap on ended sessions' series, and
//! graceful SHUTDOWN-verb drain.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pstrace::diag::MatchMode;
use pstrace::faults::{poll_until, stable_lines, watchdog, Fixture};
use pstrace::obs::MetricKey;
use pstrace::stream::proto::{self, Hello, Request};
use pstrace::stream::{
    replay, send_request, Replay, RetryPolicy, Server, ServerConfig, StatsSnapshot,
};
use pstrace::wire::{split_ptw, PtwParts};

fn connect(server: &Server) -> TcpStream {
    let policy = RetryPolicy {
        read_timeout: Duration::from_secs(10),
        ..RetryPolicy::default()
    };
    pstrace::stream::connect(server.local_addr(), &policy).unwrap()
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
fn replay_plain(server: &Server, fx: &Fixture) -> Result<String, pstrace::stream::StreamError> {
    let plan = Replay {
        chunk_bytes: 64,
        ..Replay::new(1, MatchMode::Prefix)
    };
    let addr = server.local_addr();
    let connect = |_| pstrace::stream::connect(addr, &plan.policy);
    replay(connect, fx.model.catalog(), &fx.ptw, &plan)
}

/// One uninterrupted resumable session over a raw socket; returns the
/// final report text.
fn run_resumable(server: &Server, cap: &PtwParts) -> String {
    let mut s = connect(server);
    let request = Request::Resume {
        token: 0,
        epoch: 0,
        hello: hello(cap.header),
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

#[test]
fn resume_pins_the_session_across_reconnect_and_shards() {
    let _guard = watchdog(Duration::from_secs(120), "fleet resume pinning");
    let fx = Fixture::new(400).unwrap();
    let cap = split_ptw(fx.model.catalog(), &fx.ptw).unwrap();
    let server = Server::spawn(
        Arc::clone(&fx.model),
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
            hello: hello(cap.header),
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
            hello: hello(cap.header),
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
    let fx = Fixture::new(120).unwrap();
    let cap = split_ptw(fx.model.catalog(), &fx.ptw).unwrap();
    let server = Server::spawn(
        Arc::clone(&fx.model),
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
        ..hello(cap.header)
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
        replay_plain(&server, &fx).expect("tenant 0 is under quota and must be served");
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
    let fx = Fixture::new(300).unwrap();
    let run = |shards: usize| -> (StatsSnapshot, String) {
        let server = Server::spawn(
            Arc::clone(&fx.model),
            &ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                shards,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        for _ in 0..4 {
            replay_plain(&server, &fx).unwrap();
        }
        let exposition = pstrace::obs::render_prometheus_samples(&server.merged_samples());
        (server.shutdown(), exposition)
    };

    // The expositions must be equal key for key and value for value,
    // not merely as aggregates.
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
fn the_registry_holds_the_same_series_however_many_sessions_it_served() {
    let _guard = watchdog(Duration::from_secs(120), "registry size");
    let fx = Fixture::new(20).unwrap();
    let server = Server::spawn(
        Arc::clone(&fx.model),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let series = |server: &Server| -> Vec<MetricKey> {
        server
            .merged_samples()
            .into_iter()
            .map(|(key, _)| key)
            .collect()
    };
    replay_plain(&server, &fx).unwrap();
    let after_first = series(&server);
    for _ in 1..200 {
        replay_plain(&server, &fx).unwrap();
    }
    let exposition = pstrace::obs::render_prometheus_samples(&server.merged_samples());
    assert!(
        !exposition.contains("session=\""),
        "no series is keyed by session:\n{exposition}"
    );
    assert_eq!(
        series(&server),
        after_first,
        "200 sessions registered series the first did not"
    );
    let snap = server.shutdown();
    assert_eq!(snap.completed, 200);
}

#[test]
fn shutdown_verb_drains_the_daemon_and_frees_the_port() {
    let _guard = watchdog(Duration::from_secs(60), "fleet shutdown drain");
    let fx = Fixture::new(120).unwrap();
    let server = Server::spawn(
        Arc::clone(&fx.model),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 3,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A session completes before the shutdown request: normal service.
    replay_plain(&server, &fx).unwrap();

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
