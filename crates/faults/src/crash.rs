//! Kill-the-daemon recovery soaks: the crash-only counterpart of
//! [`run_soak`](crate::run_soak).
//!
//! Where the chaos soak attacks the wire, the transport and the session,
//! this harness attacks the *daemon process itself*: it spawns a real
//! `pstrace serve` child with `--durability strict`, streams resumable
//! sessions into it, then destroys the process mid-soak — either with a
//! plain `SIGKILL` or by arming one of the WAL layer's compiled-in crash
//! points (`PSTRACE_CRASH_POINT`, see
//! [`CRASH_POINTS`](pstrace_stream::durable::CRASH_POINTS)) so the abort
//! lands inside a WAL critical section. A second daemon is then started
//! on the same WAL directory; recovery must re-park every journaled
//! session, the clients must resume against the restarted process using
//! their pre-crash tokens, and a clean probe must produce a localization
//! line bit-identical to the batch pipeline's.
//!
//! The harness talks to its children only through public seams — argv,
//! one environment variable, and the PSTS socket — so `pstrace crash`,
//! the `crash_soak` integration test and CI all drive this one function.
//! Determinism: the [`FaultLedger`] fingerprint is a pure function of the
//! seeded configuration (which faults were *ordered*), never of timing.

use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use pstrace_diag::MatchMode;
use pstrace_stream::proto::Request;
use pstrace_stream::{connect, replay, send_request, Replay, RetryPolicy};

use crate::ledger::FaultLedger;
use crate::plan::FaultKind;
use crate::soak::build_fixture;

/// Tenants cycle as in the chaos soak so per-tenant accounting is live.
const TENANT_CYCLE: u64 = 4;

/// Knobs of one crash-recovery soak.
#[derive(Debug, Clone)]
pub struct CrashSoakConfig {
    /// Argv prefix that launches the daemon (binary plus subcommand,
    /// e.g. `["/path/to/pstrace", "serve"]`). The harness appends
    /// `--addr`, `--shards`, `--durability strict`, `--wal-dir` and
    /// `--wal-budget`.
    pub daemon: Vec<String>,
    /// WAL directory shared by the crashed and the restarted daemon —
    /// the only state that survives the kill.
    pub wal_dir: PathBuf,
    /// Resumable client sessions to stream across the crash.
    pub sessions: usize,
    /// Synthetic records per capture.
    pub records: usize,
    /// Client chunk size in bytes.
    pub chunk_bytes: usize,
    /// Daemon shard workers.
    pub shards: usize,
    /// Seed folded into the ledger fingerprint (the soak streams clean
    /// captures; the only "fault" is the one this harness orders).
    pub seed: u64,
    /// When set, daemon #1 runs with `PSTRACE_CRASH_POINT` armed and is
    /// expected to abort itself inside that WAL critical section; when
    /// `None` the harness SIGKILLs it instead.
    pub crash_point: Option<String>,
    /// How long the storm runs before the kill is delivered (ignored if
    /// an armed crash point fires first).
    pub kill_after: Duration,
    /// WAL rotation budget handed to the daemon. Kept small so rotation
    /// (and its crash points) actually fire under test-sized soaks.
    pub wal_budget: u64,
}

impl CrashSoakConfig {
    /// A crash soak with defaults sized for an interactive run.
    #[must_use]
    pub fn new(daemon: Vec<String>, wal_dir: PathBuf) -> Self {
        CrashSoakConfig {
            daemon,
            wal_dir,
            sessions: 8,
            records: 2_000,
            chunk_bytes: 256,
            shards: 2,
            seed: 1,
            crash_point: None,
            kill_after: Duration::from_millis(300),
            wal_budget: 4_096,
        }
    }
}

/// What a crash soak produced, with the recovery verdict attached.
#[derive(Debug)]
pub struct CrashSoakReport {
    /// The seed the ledger fingerprint derives from.
    pub seed: u64,
    /// Sessions streamed across the crash.
    pub sessions: usize,
    /// Sessions that completed with a report (before or after the kill).
    pub completed: usize,
    /// Sessions that failed with a typed error.
    pub failed: usize,
    /// Completed sessions whose localization line was bit-identical to
    /// the batch pipeline's.
    pub matched: usize,
    /// Whether daemon #1 died on its own (armed crash point) before the
    /// harness delivered the kill.
    pub crashed_early: bool,
    /// The crash point that was armed, if any.
    pub crash_point: Option<String>,
    /// Wall-clock duration of the whole soak (spawn to probe).
    pub elapsed: Duration,
    /// The faults this harness ordered, fingerprinted deterministically.
    pub ledger: FaultLedger,
    /// Whether the post-restart clean probe completed at all.
    pub probe_completed: bool,
    /// Whether the probe's localization line was bit-identical to the
    /// batch pipeline's.
    pub probe_matches_batch: bool,
    /// The localization line the batch pipeline computed.
    pub batch_localization: String,
}

impl CrashSoakReport {
    /// The recovery criteria: at least 95% of sessions complete across
    /// the crash, every completed session's answer is bit-identical to
    /// batch, and the restarted daemon serves a clean probe that is too.
    ///
    /// # Errors
    ///
    /// Every violated criterion, newline-joined.
    pub fn survival(&self) -> Result<(), String> {
        let mut violations = Vec::new();
        let need = (self.sessions as f64 * 0.95).ceil() as usize;
        if self.completed < need {
            violations.push(format!(
                "only {} of {} sessions completed across the crash (need {need})",
                self.completed, self.sessions
            ));
        }
        if self.matched < self.completed {
            violations.push(format!(
                "{} of {} completed sessions diverged from the batch localization",
                self.completed - self.matched,
                self.completed
            ));
        }
        if !self.probe_completed {
            violations.push("the post-restart clean probe did not complete".to_owned());
        } else if !self.probe_matches_batch {
            violations
                .push("the clean probe's localization diverged from the batch pipeline".to_owned());
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("\n"))
        }
    }

    /// Renders the recovery report (kill mode, completion, verdict).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mode = match &self.crash_point {
            Some(point) => format!("crash point {point}"),
            None => "SIGKILL".to_owned(),
        };
        let _ = writeln!(
            out,
            "crash soak      : seed {}, {} sessions across a {} restart",
            self.seed, self.sessions, mode
        );
        let _ = writeln!(
            out,
            "sessions        : {} completed ({} bit-identical to batch), {} failed, {:.2}s",
            self.completed,
            self.matched,
            self.failed,
            self.elapsed.as_secs_f64()
        );
        let _ = writeln!(
            out,
            "daemon #1       : {}",
            if self.crashed_early {
                "aborted at its armed crash point"
            } else {
                "destroyed by SIGKILL"
            }
        );
        out.push_str(&self.ledger.render());
        let probe = if !self.probe_completed {
            "FAILED"
        } else if self.probe_matches_batch {
            "clean, bit-identical to batch"
        } else {
            "completed but DIVERGED from batch"
        };
        let _ = writeln!(out, "clean probe     : {probe}");
        let _ = match self.survival() {
            Ok(()) => writeln!(out, "verdict         : recovered"),
            Err(v) => writeln!(out, "verdict         : FAILED\n{v}"),
        };
        out
    }
}

/// Truncates a WAL (or checkpoint) file to `keep` bytes, simulating a
/// torn final entry — what a crash mid-`write` leaves behind. Returns
/// the number of bytes removed.
///
/// # Errors
///
/// Propagates filesystem failures; `keep` beyond the current length is
/// an error (tearing must shorten the file).
pub fn tear_wal_tail(path: &Path, keep: u64) -> io::Result<u64> {
    let len = std::fs::metadata(path)?.len();
    if keep > len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cannot tear {path:?} to {keep} bytes: file holds only {len}"),
        ));
    }
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(keep)?;
    file.sync_all()?;
    Ok(len - keep)
}

/// Flips every bit of one byte of a WAL (or checkpoint) file in place,
/// simulating media damage the entry checksum must catch. Returns the
/// new byte value.
///
/// # Errors
///
/// Propagates filesystem failures; `offset` past the end is an error.
pub fn flip_wal_byte(path: &Path, offset: u64) -> io::Result<u8> {
    use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)?;
    let len = file.metadata()?.len();
    if offset >= len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cannot flip byte {offset} of {path:?}: file holds only {len}"),
        ));
    }
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(&mut byte)?;
    byte[0] = !byte[0];
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(&byte)?;
    file.sync_all()?;
    Ok(byte[0])
}

/// A spawned daemon child that is killed (not leaked) if the harness
/// errors out before reaping it.
struct DaemonGuard(Option<Child>);

impl DaemonGuard {
    fn child(&mut self) -> &mut Child {
        self.0.as_mut().expect("daemon child already reaped")
    }

    /// Kills and reaps the child, returning whether it had already
    /// exited on its own before the kill was delivered.
    fn destroy(&mut self) -> bool {
        let Some(mut child) = self.0.take() else {
            return false;
        };
        let already_dead = matches!(child.try_wait(), Ok(Some(_)));
        let _ = child.kill();
        let _ = child.wait();
        already_dead
    }

    /// Waits for a clean exit, escalating to a kill after `patience`.
    fn reap(&mut self, patience: Duration) {
        let Some(mut child) = self.0.take() else {
            return;
        };
        let deadline = Instant::now() + patience;
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return;
                }
            }
        }
    }
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        self.destroy();
    }
}

/// Reserves a loopback address by binding port 0 and releasing it. The
/// tiny bind race is acceptable for a test harness; the daemon reports a
/// bind failure loudly if it ever loses it.
fn pick_free_addr() -> Result<SocketAddr, String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("no loopback port free: {e}"))?;
    listener
        .local_addr()
        .map_err(|e| format!("loopback port has no address: {e}"))
}

fn spawn_daemon(
    config: &CrashSoakConfig,
    addr: SocketAddr,
    crash_point: Option<&str>,
) -> Result<DaemonGuard, String> {
    let (bin, rest) = config
        .daemon
        .split_first()
        .ok_or_else(|| "daemon argv is empty".to_owned())?;
    let mut cmd = Command::new(bin);
    cmd.args(rest)
        .arg("--addr")
        .arg(addr.to_string())
        .arg("--shards")
        .arg(config.shards.max(1).to_string())
        .arg("--durability")
        .arg("strict")
        .arg("--wal-dir")
        .arg(&config.wal_dir)
        .arg("--wal-budget")
        .arg(config.wal_budget.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    match crash_point {
        Some(point) => {
            cmd.env("PSTRACE_CRASH_POINT", point);
        }
        None => {
            cmd.env_remove("PSTRACE_CRASH_POINT");
        }
    }
    let child = cmd
        .spawn()
        .map_err(|e| format!("daemon failed to spawn ({bin}): {e}"))?;
    Ok(DaemonGuard(Some(child)))
}

/// Polls until the daemon accepts connections; fails fast if the child
/// exits first (unless an armed crash point makes that legitimate).
fn wait_listening(addr: SocketAddr, daemon: &mut DaemonGuard, patience: Duration) -> bool {
    let deadline = Instant::now() + patience;
    while Instant::now() < deadline {
        if TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
            return true;
        }
        if matches!(daemon.child().try_wait(), Ok(Some(_))) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// Runs one seeded crash soak: resumable sessions streamed into daemon
/// #1, the process destroyed mid-soak (SIGKILL or armed crash point),
/// daemon #2 recovered from the same WAL directory, every client resumed
/// against it, then the clean probe. See the module docs.
///
/// # Errors
///
/// Only harness-construction failures (fixture, spawn, restart); crash-
/// induced session failures are *data*, reported in the
/// [`CrashSoakReport`].
pub fn run_crash_soak(config: &CrashSoakConfig) -> Result<CrashSoakReport, String> {
    let fixture = build_fixture(config.records.max(1))?;
    std::fs::create_dir_all(&config.wal_dir)
        .map_err(|e| format!("wal dir {:?} not creatable: {e}", config.wal_dir))?;

    // The ledger is a pure function of the seeded order of battle —
    // which fault was commanded against which target — never of timing.
    let mut ledger = FaultLedger::new();
    let kind = if config.crash_point.is_some() {
        FaultKind::CrashPoint
    } else {
        FaultKind::ProcessKill
    };
    ledger.record(
        config.seed,
        kind,
        config.sessions as u64,
        config.shards as u64,
    );

    let addr1 = pick_free_addr()?;
    let mut daemon = spawn_daemon(config, addr1, config.crash_point.as_deref())?;
    if !wait_listening(addr1, &mut daemon, Duration::from_secs(20)) {
        // An armed crash point may legally fire during startup recovery;
        // anything else is a harness failure.
        if config.crash_point.is_none() {
            return Err(format!("daemon #1 never listened on {addr1}"));
        }
    }

    // Clients resolve the daemon through this register on every
    // (re)connect attempt, so the restarted process is reachable without
    // fighting the dead listener's port for it.
    let register = Arc::new(Mutex::new(addr1));
    let policy = RetryPolicy {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(5),
        max_reconnects: 12,
        initial_backoff: Duration::from_millis(250),
        max_backoff: Duration::from_secs(1),
    };
    let chunk_bytes = config.chunk_bytes.max(1);

    let slots: Vec<OnceLock<Option<String>>> =
        (0..config.sessions).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut crashed_early = false;
    let mut restart_error = None;
    std::thread::scope(|scope| {
        for _ in 0..config.sessions.max(1) {
            let register = Arc::clone(&register);
            let fixture = &fixture;
            let slots = &slots;
            let next = &next;
            scope.spawn(move || loop {
                let s = next.fetch_add(1, Ordering::Relaxed);
                if s >= config.sessions {
                    break;
                }
                let plan = Replay {
                    tenant: (s as u64 % TENANT_CYCLE) as u32,
                    chunk_bytes,
                    policy,
                    ..Replay::new(1, MatchMode::Prefix)
                };
                let register = Arc::clone(&register);
                let result = replay(
                    move |_attempt| {
                        connect(
                            *register.lock().expect("address register poisoned"),
                            &policy,
                        )
                    },
                    fixture.model.catalog(),
                    &fixture.clean_ptw,
                    &plan,
                );
                let _ = slots[s].set(result.ok());
            });
        }

        // The crash, delivered from the orchestrating thread while the
        // storm runs: wait out the grace period (or the armed crash
        // point firing early), then make sure the process is dead.
        let crash_deadline = Instant::now() + config.kill_after;
        while Instant::now() < crash_deadline {
            if matches!(daemon.child().try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        crashed_early = daemon.destroy();

        // Crash-only recovery: daemon #2 starts cold from nothing but
        // the WAL directory, with no crash point armed.
        match pick_free_addr().and_then(|addr2| {
            let mut second = spawn_daemon(config, addr2, None)?;
            if !wait_listening(addr2, &mut second, Duration::from_secs(20)) {
                return Err(format!("daemon #2 never listened on {addr2}"));
            }
            Ok((addr2, second))
        }) {
            Ok((addr2, second)) => {
                *register.lock().expect("address register poisoned") = addr2;
                daemon = second;
            }
            Err(e) => restart_error = Some(e),
        }
    });
    let elapsed = started.elapsed();
    if let Some(e) = restart_error {
        return Err(e);
    }

    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut matched = 0usize;
    for slot in slots {
        match slot.into_inner().flatten() {
            Some(report) => {
                completed += 1;
                if report.contains(&fixture.batch_localization) {
                    matched += 1;
                }
            }
            None => failed += 1,
        }
    }

    // The restarted daemon must serve a clean session exactly like
    // batch — recovery bent nothing.
    let addr = *register.lock().expect("address register poisoned");
    let (probe_completed, probe_matches_batch) = fixture.probe(addr, chunk_bytes);

    // Graceful drain of daemon #2; escalate only if the verb is ignored.
    let _ = send_request(addr, &Request::Shutdown);
    daemon.reap(Duration::from_secs(10));

    Ok(CrashSoakReport {
        seed: config.seed,
        sessions: config.sessions,
        completed,
        failed,
        matched,
        crashed_early,
        crash_point: config.crash_point.clone(),
        elapsed,
        ledger,
        probe_completed,
        probe_matches_batch,
        batch_localization: fixture.batch_localization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal_file(dir: &Path, bytes: &[u8]) -> PathBuf {
        let path = dir.join("wal-0.wal");
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn tearing_shortens_and_rejects_growth() {
        let dir = std::env::temp_dir().join(format!("pstrace-tear-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = wal_file(&dir, &[0xAA; 128]);
        assert_eq!(tear_wal_tail(&path, 33).unwrap(), 95);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 33);
        assert!(tear_wal_tail(&path, 64).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipping_inverts_one_byte_in_place() {
        let dir = std::env::temp_dir().join(format!("pstrace-flip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = wal_file(&dir, &[0x0F; 64]);
        assert_eq!(flip_wal_byte(&path, 10).unwrap(), 0xF0);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[10], 0xF0);
        assert_eq!(bytes[9], 0x0F);
        assert_eq!(bytes[11], 0x0F);
        assert!(flip_wal_byte(&path, 64).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_ledger_fingerprint_is_seed_deterministic() {
        let config = |seed| {
            let mut c = CrashSoakConfig::new(vec!["unused".into()], PathBuf::from("/nonexistent"));
            c.seed = seed;
            c
        };
        let fp = |seed| {
            let mut ledger = FaultLedger::new();
            let c = config(seed);
            ledger.record(
                c.seed,
                FaultKind::ProcessKill,
                c.sessions as u64,
                c.shards as u64,
            );
            ledger.fingerprint()
        };
        assert_eq!(fp(7), fp(7));
        assert_ne!(fp(7), fp(8));
    }
}
