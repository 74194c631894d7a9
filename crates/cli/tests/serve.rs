//! `pstrace serve` as a process: an idle daemon sleeps rather than
//! polls, and `--sessions N` exits once its Nth session is answered.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use pstrace_cli::dispatch;
use pstrace_faults::watchdog;

/// A `pstrace serve` child, killed if the test ends before it exits.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Starts `pstrace serve` on an ephemeral loopback port with `extra`
    /// arguments and reads back the address it bound.
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pstrace"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("pstrace serve starts");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("a banner line");
        let addr = line
            .strip_prefix("serving on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected banner: {line}"))
            .to_owned();
        Daemon {
            child,
            stdout,
            addr,
        }
    }

    /// Waits up to `patience` for the daemon to exit on its own; returns
    /// whether it exited successfully and the rest of its stdout.
    fn exit(mut self, patience: Duration) -> (bool, String) {
        let deadline = Instant::now() + patience;
        let status = loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                break status;
            }
            assert!(Instant::now() < deadline, "the daemon did not exit");
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        (status.success(), rest)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| (*a).to_owned()).collect()
}

/// `(CPU ns, timeslices)` summed over every thread of process `pid`.
#[cfg(target_os = "linux")]
fn schedstat(pid: u32) -> (u64, u64) {
    let mut total = (0, 0);
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).unwrap() {
        // A thread may exit between the listing and the read.
        let Ok(stat) = std::fs::read_to_string(task.unwrap().path().join("schedstat")) else {
            continue;
        };
        let fields: Vec<u64> = stat
            .split_whitespace()
            .map(|f| f.parse().unwrap())
            .collect();
        total.0 += fields[0];
        total.1 += fields[2];
    }
    total
}

#[cfg(target_os = "linux")]
#[test]
fn an_idle_serve_sleeps_until_asked_to_stop() {
    let _guard = watchdog(Duration::from_secs(60), "idle serve");
    let daemon = Daemon::spawn(&["--shards", "2"]);
    std::thread::sleep(Duration::from_millis(200));

    let pid = daemon.child.id();
    let (cpu0, slices0) = schedstat(pid);
    std::thread::sleep(Duration::from_secs(1));
    let (cpu1, slices1) = schedstat(pid);
    let (cpu_ns, slices) = (cpu1 - cpu0, slices1 - slices0);
    assert!(
        slices < 50,
        "an idle serve was scheduled {slices} times in 1 s"
    );
    assert!(
        cpu_ns < 5_000_000,
        "an idle serve burned {:.2} ms of CPU in 1 s",
        cpu_ns as f64 / 1e6
    );

    dispatch(&argv(&["stop", "--addr", &daemon.addr])).expect("stop reaches the daemon");
    let (ok, rest) = daemon.exit(Duration::from_secs(10));
    assert!(ok, "serve exits cleanly after stop:\n{rest}");
    assert!(rest.contains("served 0 sessions"), "{rest}");
}

#[test]
fn a_session_limit_exits_once_the_last_session_is_answered() {
    let _guard = watchdog(Duration::from_secs(60), "serve session limit");
    let dir = std::env::temp_dir().join(format!("pstrace-serve-limit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.trace").to_string_lossy().into_owned();
    let ptw = dir.join("run.ptw").to_string_lossy().into_owned();
    dispatch(&argv(&["simulate", "--scenario", "1", "--save", &trace])).unwrap();
    dispatch(&argv(&["trace", "encode", &trace, "--out", &ptw])).unwrap();

    let daemon = Daemon::spawn(&["--sessions", "1"]);
    dispatch(&argv(&["stream", &ptw, "--addr", &daemon.addr])).expect("the session is answered");
    let (ok, rest) = daemon.exit(Duration::from_secs(10));
    assert!(ok, "serve exits cleanly after its one session:\n{rest}");
    assert!(rest.contains("served 1 sessions (0 failed)"), "{rest}");
    std::fs::remove_dir_all(&dir).ok();
}
