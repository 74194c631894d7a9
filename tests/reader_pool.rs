//! Reader threads do not outlive the connections they served: a burst
//! of silent connections spawns readers, and once the handshake deadline
//! has closed them the idle readers retire, so the daemon's thread count
//! falls back to what it was before the burst. Counted from the
//! kernel's task list, so Linux only.

#![cfg(target_os = "linux")]

use std::io::Read as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstrace::faults::watchdog;
use pstrace::soc::SocModel;
use pstrace::stream::{proto, Server, ServerConfig};

fn task_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Waits up to `limit` for the task count to satisfy `check`.
fn settles(limit: Duration, check: impl Fn(usize) -> bool) -> usize {
    let deadline = Instant::now() + limit;
    loop {
        let count = task_count();
        if check(count) || Instant::now() >= deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn idle_readers_retire_after_a_burst_of_silent_connections() {
    let _guard = watchdog(Duration::from_secs(60), "reader pool");
    const BURST: usize = 32;
    let before = task_count();
    let handshake = Duration::from_millis(300);
    let server = Server::spawn(
        Arc::new(SocModel::t2()),
        &ServerConfig {
            shards: 1,
            handshake_timeout: handshake,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let spawned = task_count();

    let mut silent: Vec<TcpStream> = (0..BURST)
        .map(|_| {
            let s = TcpStream::connect(server.local_addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();
    // Every reader is busy with a connection that says nothing, so each
    // connection gets a reader of its own.
    let peak = settles(Duration::from_secs(5), |n| n >= spawned + BURST);
    assert!(
        peak >= spawned + BURST,
        "{BURST} silent connections ran on {} readers",
        peak.saturating_sub(spawned)
    );
    for s in &mut silent {
        let reply = proto::read_reply(s).expect_err("a silent connection is refused");
        assert!(reply.to_string().contains("handshake deadline"), "{reply}");
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
    }
    drop(silent);

    // One more linger period and the readers are gone.
    let after = settles(handshake + Duration::from_secs(2), |n| n == spawned);
    assert_eq!(after, spawned, "idle readers outlived their linger");

    server.shutdown();
    assert_eq!(
        settles(Duration::from_secs(1), |n| n == before),
        before,
        "a daemon thread outlived the shutdown"
    );
}
