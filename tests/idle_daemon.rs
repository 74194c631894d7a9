//! An idle daemon burns ~no CPU: with nothing connected, every daemon
//! thread is blocked (in `accept`, or on a shard inbox with no timer
//! pending) rather than waking to poll. Read from the kernel's per-thread
//! scheduler counters, so Linux only.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstrace::faults::watchdog;
use pstrace::soc::SocModel;
use pstrace::stream::durable::DurabilityPolicy;
use pstrace::stream::{MetricsEndpoint, Server, ServerConfig};

/// `(CPU ns, timeslices)` per thread of this process, keyed by thread id,
/// leaving out the calling thread.
fn threads() -> HashMap<String, (u64, u64)> {
    let me = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self");
    let me = me
        .file_name()
        .expect("a task id")
        .to_string_lossy()
        .into_owned();
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let task = task.expect("a task entry");
        let tid = task.file_name().to_string_lossy().into_owned();
        if tid == me {
            continue;
        }
        // A thread may exit between the listing and the read.
        let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        let mut fields = stat.split_whitespace().map(|f| f.parse::<u64>().unwrap());
        let cpu_ns = fields.next().expect("run time");
        let _wait_ns = fields.next().expect("wait time");
        let slices = fields.next().expect("timeslices");
        out.insert(tid, (cpu_ns, slices));
    }
    out
}

fn task_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn an_idle_daemon_burns_no_cpu_and_leaves_no_thread_behind() {
    let _guard = watchdog(Duration::from_secs(60), "idle daemon");
    let before = task_count();
    let dir = std::env::temp_dir().join(format!("pstrace-idle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::spawn(
        Arc::new(SocModel::t2()),
        &ServerConfig {
            shards: 2,
            durability: DurabilityPolicy::Strict,
            wal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let endpoint = MetricsEndpoint::spawn_merged("127.0.0.1:0", server.registries()).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    let start = threads();
    std::thread::sleep(Duration::from_secs(1));
    let end = threads();
    let (mut cpu_ns, mut slices) = (0, 0);
    for (tid, (cpu, n)) in &end {
        let (cpu0, n0) = start.get(tid).copied().unwrap_or((0, 0));
        cpu_ns += cpu - cpu0;
        slices += n - n0;
    }
    assert!(
        slices < 50,
        "idle threads were scheduled {slices} times in 1 s"
    );
    assert!(
        cpu_ns < 5_000_000,
        "idle threads burned {:.2} ms of CPU in 1 s",
        cpu_ns as f64 / 1e6
    );

    endpoint.shutdown();
    server.shutdown();
    let deadline = Instant::now() + Duration::from_secs(1);
    while task_count() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        task_count(),
        before,
        "a daemon thread outlived the shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
