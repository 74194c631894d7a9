//! Crash-only startup: replay the journals left behind by a previous
//! daemon life and rebuild every still-resumable session.
//!
//! Recovery reads only the `wal-<shard>.wal` files of the directory (a
//! rotation's stray `.tmp` file, or any other file, is ignored) and takes
//! the directory's epoch from the first readable Epoch header: every
//! journal and every compacted generation starts with one.
//!
//! Recovery never refuses to start. Torn tails and flipped bits become
//! typed [`RecoverError`]s *folded into the returned statistics* — the
//! daemon logs and counts them, skips the damaged 64-byte window
//! (fixed-size entries make resync trivial), and keeps every good entry
//! on both sides. A missing WAL directory simply recovers zero sessions:
//! process death and clean restart share this one code path.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

use pstrace_codec::fnv32;

use crate::wal::{decode_entry, wal_path, SessionRecord, WalRecord, WAL_ENTRY_BYTES};

/// A damaged region found while replaying a WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// A truncated or misframed entry: bad magic, unknown kind, or a
    /// partial 64-byte window at the end of the file.
    TornEntry {
        /// The file the torn entry was found in.
        path: String,
        /// Byte offset of the damaged window.
        offset: u64,
    },
    /// An entry whose FNV-1a-32 checksum does not match its bytes.
    BadChecksum {
        /// The file the corrupt entry was found in.
        path: String,
        /// Byte offset of the damaged window.
        offset: u64,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::TornEntry { path, offset } => {
                write!(f, "torn WAL entry in {path} at byte {offset}")
            }
            RecoverError::BadChecksum { path, offset } => {
                write!(f, "WAL entry checksum mismatch in {path} at byte {offset}")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

/// Everything `Server::recover` learned from the WAL directory.
#[derive(Debug, Clone, Default)]
pub struct RecoveredState {
    /// The directory's recovery epoch, from the first readable journal
    /// header (0 when there is none).
    pub epoch: u64,
    /// Resumable sessions, bucketed by the *current* shard count
    /// (`token % shard_count`), so recovery survives a shard-count
    /// change across restarts.
    pub shards: Vec<Vec<SessionRecord>>,
    /// Good entries folded from the journals.
    pub replayed: u64,
    /// Damaged 64-byte windows skipped plus sessions dropped for schema
    /// checksum mismatches.
    pub skipped: u64,
    /// Every damage site, in scan order.
    pub errors: Vec<RecoverError>,
    /// Highest session id seen (the restarted daemon numbers from the
    /// next one up).
    pub max_session_id: u64,
    /// Highest resume token seen (token minting resumes above it).
    pub max_token: u64,
}

impl RecoveredState {
    /// Total sessions rebuilt across all shards.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }
}

/// A session whose open group is still being folded: its record plus
/// the schema length and CRC the Open entry promised.
#[derive(Debug)]
struct Pending {
    record: SessionRecord,
    schema_len: u32,
    schema_crc: u32,
}

/// Splits `bytes` into decoded entries, skipping damaged windows and
/// pushing one [`RecoverError`] per damage site.
fn scan_entries(bytes: &[u8], path: &Path, errors: &mut Vec<RecoverError>) -> Vec<WalRecord> {
    let mut records = Vec::with_capacity(bytes.len() / WAL_ENTRY_BYTES);
    let whole = bytes.len() - bytes.len() % WAL_ENTRY_BYTES;
    for offset in (0..whole).step_by(WAL_ENTRY_BYTES) {
        let mut window = [0u8; WAL_ENTRY_BYTES];
        window.copy_from_slice(&bytes[offset..offset + WAL_ENTRY_BYTES]);
        match decode_entry(&window, path, offset as u64) {
            Ok(record) => records.push(record),
            Err(err) => errors.push(err),
        }
    }
    if whole < bytes.len() {
        errors.push(RecoverError::TornEntry {
            path: path.display().to_string(),
            offset: whole as u64,
        });
    }
    records
}

/// Folds one journal's entries into `live`. Tokens are unique within a
/// WAL lineage, so a token a Complete `ended` in any journal stays
/// ended, even if a journal folded later still holds its Open.
fn fold(
    records: &[WalRecord],
    live: &mut BTreeMap<u64, Pending>,
    ended: &mut BTreeSet<u64>,
    state: &mut RecoveredState,
) {
    for record in records {
        state.replayed += 1;
        match record {
            WalRecord::Epoch { epoch, .. } => {
                if state.epoch == 0 {
                    state.epoch = *epoch;
                }
            }
            WalRecord::Open {
                token,
                session_id,
                trace,
                scenario,
                mode,
                tenant,
                schema_len,
                schema_crc,
            } => {
                state.max_token = state.max_token.max(*token);
                state.max_session_id = state.max_session_id.max(*session_id);
                if ended.contains(token) {
                    continue;
                }
                live.insert(
                    *token,
                    Pending {
                        record: SessionRecord {
                            token: *token,
                            session_id: *session_id,
                            trace: *trace,
                            scenario: *scenario,
                            mode: *mode,
                            tenant: *tenant,
                            schema: Vec::with_capacity(*schema_len as usize),
                        },
                        schema_len: *schema_len,
                        schema_crc: *schema_crc,
                    },
                );
            }
            WalRecord::SchemaChunk {
                token,
                offset,
                data,
            } => {
                if let Some(p) = live.get_mut(token) {
                    // Only in-order chunks extend the schema; a gap means
                    // an earlier chunk was damaged and the checksum gate
                    // below will drop the session.
                    if *offset as usize == p.record.schema.len() {
                        p.record.schema.extend_from_slice(data);
                    }
                }
            }
            WalRecord::Complete { token } => {
                live.remove(token);
                ended.insert(*token);
            }
        }
    }
}

/// Replays every journal under `dir` and rebuilds the
/// resumable-session tables for a daemon with `shard_count` shards.
///
/// Crash-only by construction: this never fails. Missing directories
/// recover nothing, damaged entries are counted and skipped, and i/o
/// errors surface as zero-session recoveries — exactly what a clean
/// first boot looks like.
#[must_use]
pub fn recover_state(dir: &Path, shard_count: usize) -> RecoveredState {
    let shard_count = shard_count.max(1);
    let mut state = RecoveredState {
        shards: vec![Vec::new(); shard_count],
        ..RecoveredState::default()
    };
    // Old lives may have run with a different shard count, so scan every
    // journal the directory holds, not just 0..shard_count.
    let mut old_shards: Vec<usize> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(n) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".wal"))
                .and_then(|n| n.parse::<usize>().ok())
            {
                old_shards.push(n);
            }
        }
    }
    old_shards.sort_unstable();

    let mut live: BTreeMap<u64, Pending> = BTreeMap::new();
    let mut ended = BTreeSet::new();
    for shard in old_shards {
        let wal = wal_path(dir, shard);
        if let Ok(bytes) = std::fs::read(&wal) {
            let records = scan_entries(&bytes, &wal, &mut state.errors);
            fold(&records, &mut live, &mut ended, &mut state);
        }
    }
    state.skipped = state.errors.len() as u64;

    for (token, p) in live {
        let schema = &p.record.schema;
        if schema.len() as u32 != p.schema_len || fnv32(schema) != p.schema_crc {
            // The open group lost a chunk to damage; the session cannot
            // be rebuilt faithfully, so drop it rather than guess.
            state.skipped += 1;
            continue;
        }
        let shard = (token % shard_count as u64) as usize;
        state.shards[shard].push(p.record);
    }
    state
}

/// Renders the `pstrace recover --dry-run` inspector report: what a
/// restart from this WAL directory would rebuild, without touching it.
#[must_use]
pub fn render_dry_run(dir: &Path, state: &RecoveredState) -> String {
    let mut out = String::new();
    out.push_str(&format!("recovery dry-run for {}\n", dir.display()));
    out.push_str(&format!("  epoch            : {:#018x}\n", state.epoch));
    out.push_str(&format!("  entries replayed : {}\n", state.replayed));
    out.push_str(&format!("  entries skipped  : {}\n", state.skipped));
    out.push_str(&format!("  sessions restored: {}\n", state.sessions()));
    for (shard, sessions) in state.shards.iter().enumerate() {
        for s in sessions {
            out.push_str(&format!(
                "    shard {shard} token {} session {} scenario {} tenant {} schema {}B\n",
                s.token,
                s.session_id,
                s.scenario,
                s.tenant,
                s.schema.len()
            ));
        }
    }
    if !state.errors.is_empty() {
        out.push_str(&format!("  damage ({} sites):\n", state.errors.len()));
        for err in &state.errors {
            out.push_str(&format!("    {err}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{encode_entry, DurabilityPolicy, WalWriter};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pstrace-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open_session(wal: &mut WalWriter, token: u64, schema: &[u8]) {
        wal.append_open(token, token, 0x100 + token, 1, 1, 0, schema)
            .unwrap();
    }

    #[test]
    fn a_session_ended_in_a_lower_journal_stays_ended() {
        let dir = tmp_dir("ended");
        // A 2-shard life opened token 3 on shard 1; a 1-shard life
        // recovered it onto shard 0 and completed it there.
        let mut wal = WalWriter::open(&dir, 1, 2, 9, DurabilityPolicy::Lazy, u64::MAX).unwrap();
        open_session(&mut wal, 3, &[0x5A; 90]);
        assert_eq!(recover_state(&dir, 1).sessions(), 1);
        let mut wal = WalWriter::open(&dir, 0, 1, 9, DurabilityPolicy::Lazy, u64::MAX).unwrap();
        wal.append(&crate::wal::WalRecord::Complete { token: 3 })
            .unwrap();
        let state = recover_state(&dir, 1);
        assert_eq!(state.sessions(), 0, "the completed session came back");
        assert_eq!(state.max_token, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_rebuilds_parked_and_streaming_sessions() {
        let dir = tmp_dir("rebuild");
        let mut wal = WalWriter::open(&dir, 0, 1, 9, DurabilityPolicy::Lazy, u64::MAX).unwrap();
        let schema = vec![0x5A; 90];
        open_session(&mut wal, 1, &schema); // parked at the crash
        open_session(&mut wal, 2, &schema); // streaming at the crash
        open_session(&mut wal, 3, &schema);
        wal.append(&crate::wal::WalRecord::Complete { token: 3 })
            .unwrap();
        drop(wal);

        let state = recover_state(&dir, 2);
        assert_eq!(
            state.sessions(),
            2,
            "parked + streaming survive, complete does not"
        );
        assert_eq!(
            state.shards[1].len(),
            1,
            "token 1 buckets to shard 1 (token % 2)"
        );
        assert_eq!(state.shards[0].len(), 1, "token 2 buckets to shard 0");
        let s1 = state.shards[1].iter().find(|s| s.token == 1).unwrap();
        assert_eq!(s1.schema, schema);
        assert_eq!(state.max_token, 3);
        assert!(state.errors.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_recovers_nothing() {
        let state = recover_state(Path::new("/nonexistent/pstrace-wal"), 4);
        assert_eq!(state.sessions(), 0);
        assert_eq!(state.replayed, 0);
        assert!(state.errors.is_empty());
    }

    #[test]
    fn only_journals_are_read_and_their_header_carries_the_epoch() {
        let dir = tmp_dir("journals-only");
        let mut wal = WalWriter::open(&dir, 0, 1, 9, DurabilityPolicy::Lazy, u64::MAX).unwrap();
        open_session(&mut wal, 1, &[0x77; 20]);
        drop(wal);
        // What an older build also left: an epoch file and a checkpoint.
        // Neither is read, so neither can disagree with the journal.
        let foreign = |token: u64| {
            let mut bytes = encode_entry(&WalRecord::Epoch {
                epoch: 0xdead,
                shard: 0,
                shard_count: 1,
            })
            .to_vec();
            bytes.extend_from_slice(&encode_entry(&WalRecord::Complete { token }));
            bytes
        };
        std::fs::write(dir.join("epoch"), foreign(1)).unwrap();
        std::fs::write(dir.join("checkpoint-0.wal"), foreign(1)).unwrap();
        std::fs::write(dir.join("wal-0.wal.tmp"), foreign(1)).unwrap();
        let state = recover_state(&dir, 1);
        assert_eq!(state.epoch, 9);
        assert_eq!(state.sessions(), 1);
        assert_eq!(state.replayed, 3, "epoch + open + one schema chunk");
        assert!(state.errors.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dry_run_report_mentions_sessions_and_damage() {
        let dir = tmp_dir("dryrun");
        let mut wal = WalWriter::open(&dir, 0, 1, 5, DurabilityPolicy::Lazy, u64::MAX).unwrap();
        open_session(&mut wal, 4, &[0xAA; 10]);
        drop(wal);
        // Append garbage to create one damage site.
        let path = crate::wal::wal_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xFF; 10]);
        std::fs::write(&path, bytes).unwrap();
        let state = recover_state(&dir, 1);
        let report = render_dry_run(&dir, &state);
        assert!(report.contains("sessions restored: 1"), "{report}");
        assert!(report.contains("torn WAL entry"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
