//! Seeded chaos soak: tens of thousands of injected faults against the
//! live ingest pipeline, scored for survival and determinism.
//!
//! Acceptance criteria pinned here:
//! * a seeded soak injects >= 10k faults with zero worker panics and the
//!   daemon still serves a clean session afterward, bit-identical to the
//!   batch pipeline;
//! * an identical seed reproduces the identical fault ledger;
//! * online localization over undamaged prefixes is bit-identical to
//!   batch `consistent_paths` at every prefix length;
//! * reconnect-path faults (drops, disconnects) drive the park/resume
//!   machinery without breaking survival.

use pstrace::codec::flight::read_flight_dump;
use pstrace::diag::{consistent_paths, MatchMode, OnlineLocalizer};
use pstrace::faults::{run_soak, FaultPlan, Fixture, SoakConfig};
use pstrace::flow::IndexedMessage;
use pstrace::stream::observed_messages;
use pstrace::wire::{decode_with, ProfileV1};

#[test]
fn seeded_soak_injects_over_10k_faults_and_survives() {
    let plan = FaultPlan::heavy(0x00c0_ffee).without_reconnect_faults();
    let mut config = SoakConfig::new(plan);
    config.sessions = 4;
    config.records = 12_000;
    config.chunk_bytes = 2_048;
    let report = run_soak(&config).expect("harness builds");

    assert!(
        report.ledger.len() >= 10_000,
        "expected >= 10k injected faults, got {}:\n{}",
        report.ledger.len(),
        report.render()
    );
    assert_eq!(
        report.snapshot.worker_panics,
        0,
        "a worker panic escaped:\n{}",
        report.render()
    );
    assert_eq!(
        report.completed + report.failed,
        config.sessions,
        "every session must end gracefully:\n{}",
        report.render()
    );
    // No reconnect-path faults: every corrupted session still completes
    // (damage degrades the answer, never the protocol).
    assert_eq!(report.completed, config.sessions, "{}", report.render());
    assert!(
        report.probe_completed && report.probe_matches_batch,
        "post-storm clean probe must be bit-identical to batch:\n{}",
        report.render()
    );
    report.survival().expect("survival criteria hold");
}

#[test]
fn identical_seed_reproduces_identical_fault_ledger() {
    let plan = FaultPlan::standard(99).without_reconnect_faults();
    let mut config = SoakConfig::new(plan);
    config.sessions = 2;
    config.records = 800;
    let a = run_soak(&config).expect("harness builds");
    let b = run_soak(&config).expect("harness builds");
    assert!(!a.ledger.is_empty(), "the standard plan injects faults");
    assert_eq!(a.ledger.len(), b.ledger.len());
    assert_eq!(
        a.ledger.fingerprint(),
        b.ledger.fingerprint(),
        "same seed must reproduce the same fault ledger:\n{}\nvs\n{}",
        a.render(),
        b.render()
    );
    // A different seed must not.
    let mut other = config.clone();
    other.plan = FaultPlan::standard(100).without_reconnect_faults();
    let c = run_soak(&other).expect("harness builds");
    assert_ne!(a.ledger.fingerprint(), c.ledger.fingerprint());
}

#[test]
fn reconnect_faults_drive_park_resume_and_daemon_survives() {
    let mut config = SoakConfig::new(FaultPlan::heavy(7));
    config.sessions = 3;
    config.records = 1_500;
    config.chunk_bytes = 128;
    let report = run_soak(&config).expect("harness builds");

    assert_eq!(report.snapshot.worker_panics, 0, "{}", report.render());
    assert_eq!(
        report.completed + report.failed,
        config.sessions,
        "{}",
        report.render()
    );
    assert!(
        report.probe_completed && report.probe_matches_batch,
        "daemon must still serve clean sessions after the storm:\n{}",
        report.render()
    );
    report.survival().expect("survival criteria hold");
}

#[test]
fn flight_journal_agrees_with_degradation_counters() {
    // Every `pstrace_degradation_events_total{path}` increment pairs
    // with exactly one `degradation` flight event, so the journal and
    // the counters must tell the same story — both in memory and after
    // a round-trip through the spilled `.ptw` v2 dump.
    let plan = FaultPlan::standard(0x0051_ee75).without_reconnect_faults();
    let mut config = SoakConfig::new(plan);
    config.sessions = 3;
    config.records = 2_000;
    config.chunk_bytes = 512;
    let dump_path =
        std::env::temp_dir().join(format!("pstrace-chaos-flight-{}.ptw", std::process::id()));
    config.flight_dump = Some(dump_path.clone());
    let report = run_soak(&config).expect("harness builds");

    assert!(
        report.flight.recorded > 0,
        "the storm must journal events:\n{}",
        report.render()
    );
    assert_eq!(
        report.flight.overwritten,
        0,
        "this storm fits the ring; nothing may be lost:\n{}",
        report.render()
    );
    assert_eq!(
        report.flight.degradation_counts(),
        report.degradations,
        "journal vs counters diverged:\n{}",
        report.render()
    );

    let bytes = std::fs::read(&dump_path).expect("soak spilled the flight dump");
    std::fs::remove_file(&dump_path).ok();
    let dump = read_flight_dump(&bytes).expect("dump decodes against the flight catalog");
    assert_eq!(dump.damaged, 0, "a self-dump is never damaged");
    assert_eq!(
        dump.degradation_counts(),
        report.degradations,
        "spilled dump vs counters diverged:\n{}",
        report.render()
    );
}

#[test]
fn online_localization_matches_batch_on_every_undamaged_prefix() {
    // The scenario-1 fixture the soak replays, kept small enough to run
    // the batch DP at every prefix length.
    let fx = Fixture::new(64).expect("fixture builds");
    let report = decode_with(
        &ProfileV1,
        &fx.schema,
        &fx.encoded.bytes,
        Some(fx.encoded.bit_len),
    );
    assert!(report.damaged.is_empty(), "the clean stream has no damage");

    let observed: Vec<IndexedMessage> = report.records.iter().map(|r| r.message).collect();
    let selected = observed_messages(&fx.schema);
    let mut online = OnlineLocalizer::new(&fx.flow, &selected, MatchMode::Prefix);
    for n in 1..=observed.len() {
        online.push(observed[n - 1]);
        let batch = consistent_paths(&fx.flow, &observed[..n], &selected, MatchMode::Prefix);
        assert_eq!(
            online.consistent(),
            batch,
            "online diverged from batch consistent_paths at prefix {n}"
        );
    }
}
