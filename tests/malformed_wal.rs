//! Malformed WAL input never panics: torn tails and flipped bits land on
//! typed [`RecoverError`]s folded into the recovery statistics, every
//! undamaged entry on both sides of a damage site survives, and a daemon
//! restarting over a garbage journal still boots and serves — recovery is
//! crash-only and infallible by construction.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pstrace::diag::MatchMode;
use pstrace::faults::{flip_wal_byte, tear_wal_tail, Fixture};
use pstrace::soc::SocModel;
use pstrace::stream::durable::{
    recover_state, render_dry_run, wal_path, DurabilityPolicy, RecoverError, WalWriter,
    WAL_ENTRY_BYTES,
};
use pstrace::stream::{connect, replay, Replay, Server, ServerConfig};

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pstrace-malwal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Journals `tokens` as open resumable sessions (Open + schema chunks
/// each) into shard 0's WAL under `dir`.
fn seed_wal(dir: &Path, tokens: &[u64], schema: &[u8]) {
    let mut wal = WalWriter::open(dir, 0, 1, 7, DurabilityPolicy::Lazy, u64::MAX).unwrap();
    for &token in tokens {
        wal.append_open(token, token, 0x100 + token, 1, 1, 0, schema)
            .unwrap();
    }
    wal.sync().unwrap();
}

#[test]
fn torn_tail_is_typed_and_keeps_every_prior_session() {
    let dir = wal_dir("tear");
    let schema = vec![0x5A; 90];
    seed_wal(&dir, &[1, 2], &schema);
    let path = wal_path(&dir, 0);
    let len = std::fs::metadata(&path).unwrap().len();

    // Tear mid-window inside token 2's open group: the torn window is a
    // typed damage site, token 2 cannot be rebuilt faithfully, token 1
    // is untouched.
    tear_wal_tail(&path, len - 70).unwrap();
    let state = recover_state(&dir, 1);
    assert!(
        state
            .errors
            .iter()
            .any(|e| matches!(e, RecoverError::TornEntry { .. })),
        "torn tail must be typed: {:?}",
        state.errors
    );
    assert_eq!(state.sessions(), 1, "the undamaged session survives");
    assert_eq!(state.shards[0][0].token, 1);
    assert!(state.skipped >= 1, "the torn session is counted as skipped");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_tear_point_is_survivable() {
    let dir = wal_dir("tearall");
    seed_wal(&dir, &[1], &[0xA5; 40]);
    let path = wal_path(&dir, 0);
    let len = std::fs::metadata(&path).unwrap().len();

    // Shrink the journal one byte at a time down to nothing: recovery
    // must stay infallible at every length, never recover more than the
    // one session, and flag exactly the misaligned tails.
    for keep in (0..len).rev() {
        tear_wal_tail(&path, keep).unwrap();
        let state = recover_state(&dir, 1);
        assert!(state.sessions() <= 1, "cut {keep}: invented a session");
        let misaligned = keep % WAL_ENTRY_BYTES as u64 != 0;
        if misaligned {
            assert!(
                state
                    .errors
                    .iter()
                    .any(|e| matches!(e, RecoverError::TornEntry { .. })),
                "cut {keep}: partial window must be flagged"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_byte_is_a_bad_checksum_and_resync_keeps_neighbors() {
    let dir = wal_dir("flip");
    let schema = vec![0x33; 40];
    seed_wal(&dir, &[1, 2], &schema);
    let path = wal_path(&dir, 0);

    // Entry 0 is the epoch; entry 1 is token 1's Open. Flip one byte in
    // its body: the fixed-size window resyncs on the next entry, so only
    // token 1 is lost.
    flip_wal_byte(&path, WAL_ENTRY_BYTES as u64 + 10).unwrap();
    let state = recover_state(&dir, 1);
    assert!(
        state.errors.iter().any(|e| matches!(
            e,
            RecoverError::BadChecksum { offset, .. } if *offset == WAL_ENTRY_BYTES as u64
        )),
        "flip must be a checksum error at the window offset: {:?}",
        state.errors
    );
    assert_eq!(state.sessions(), 1, "the clean session survives the flip");
    assert_eq!(state.shards[0][0].token, 2);

    // The dry-run inspector names the damage without touching the file.
    let before = std::fs::read(&path).unwrap();
    let report = render_dry_run(&dir, &state);
    assert!(report.contains("checksum mismatch"), "{report}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "inspection is read-only"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn garbage_journal_never_blocks_a_daemon_boot() {
    let dir = wal_dir("garbage");
    std::fs::create_dir_all(&dir).unwrap();
    // Pure noise where a WAL should be: recovery counts the damage,
    // restores nothing, and the daemon comes up serving.
    std::fs::write(wal_path(&dir, 0), [0xFF; 3 * WAL_ENTRY_BYTES + 7]).unwrap();

    let Fixture { model, ptw, .. } = Fixture::new(60).unwrap();
    let server = Server::spawn(
        Arc::new(SocModel::t2()),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            durability: DurabilityPolicy::Strict,
            wal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("a garbage journal must not block startup");
    let plan = Replay {
        chunk_bytes: 64,
        ..Replay::new(1, MatchMode::Prefix)
    };
    let reply = replay(
        |_| connect(server.local_addr(), &plan.policy),
        model.catalog(),
        &ptw,
        &plan,
    )
    .expect("the recovered daemon serves");
    assert!(reply.contains("records"), "report renders: {reply}");
    let snap = server.shutdown();
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.recovered, 0, "noise recovers zero sessions");
    std::fs::remove_dir_all(&dir).ok();
}
