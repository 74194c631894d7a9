//! Kill-the-daemon recovery soaks against the real `pstrace serve`
//! binary: a plain SIGKILL mid-soak, then every compiled-in WAL crash
//! point (`PSTRACE_CRASH_POINT`), each followed by a restart on the
//! same WAL directory. Every run must meet the recovery criteria: at
//! least 95% of sessions complete across the crash, every completed
//! session (and the post-restart clean probe) is bit-identical to the
//! batch pipeline, and identical seeds reproduce identical ledger
//! fingerprints.

use std::path::PathBuf;
use std::time::Duration;

use pstrace_faults::{run_crash_soak, watchdog, CrashSoakConfig};
use pstrace_stream::durable::CRASH_POINTS;

fn daemon_argv() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_pstrace").to_owned(), "serve".to_owned()]
}

fn soak_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pstrace-crashsoak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_config(tag: &str) -> CrashSoakConfig {
    let mut config = CrashSoakConfig::new(daemon_argv(), soak_dir(tag));
    config.sessions = 6;
    config.records = 1_500;
    config.chunk_bytes = 256;
    config.shards = 2;
    config.seed = 0xdead_beef;
    config
}

#[test]
fn sigkill_mid_soak_recovers_every_session() {
    let _guard = watchdog(Duration::from_secs(240), "crash soak sigkill");
    let config = small_config("sigkill");
    let report = run_crash_soak(&config).expect("harness builds");
    let rendered = report.render();
    report
        .survival()
        .unwrap_or_else(|v| panic!("recovery criteria breached:\n{v}\n{rendered}"));
    assert!(
        rendered.contains("process-kill"),
        "the ledger names the kill: {rendered}"
    );

    // The determinism contract: the ledger fingerprint is a pure
    // function of the seeded inputs, never of crash timing.
    let again = run_crash_soak(&small_config("sigkill-again")).expect("harness builds");
    assert_eq!(report.ledger.fingerprint(), again.ledger.fingerprint());
    let mut reseeded = small_config("sigkill-reseed");
    reseeded.seed = 0xfeed_f00d;
    let other = run_crash_soak(&reseeded).expect("harness builds");
    assert_ne!(report.ledger.fingerprint(), other.ledger.fingerprint());
    std::fs::remove_dir_all(&config.wal_dir).ok();
}

#[test]
fn every_armed_crash_point_recovers_without_loss() {
    let _guard = watchdog(Duration::from_secs(540), "crash soak crash points");
    assert_eq!(CRASH_POINTS.len(), 4, "keep this soak in step with the WAL");
    for point in CRASH_POINTS {
        let mut config = small_config(&format!("point-{point}"));
        config.crash_point = Some(point.to_owned());
        // Give the armed point time to fire under load before the
        // fallback SIGKILL takes over.
        config.kill_after = Duration::from_millis(800);
        let report = run_crash_soak(&config)
            .unwrap_or_else(|e| panic!("crash point {point}: harness failed: {e}"));
        let rendered = report.render();
        assert!(
            report.crashed_early,
            "crash point {point} never fired; daemon #1 was SIGKILLed:\n{rendered}"
        );
        report.survival().unwrap_or_else(|v| {
            panic!("crash point {point} breached the recovery criteria:\n{v}\n{rendered}")
        });
        std::fs::remove_dir_all(&config.wal_dir).ok();
    }
}
