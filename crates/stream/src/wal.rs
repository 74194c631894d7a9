//! The write-ahead log behind the crash-only daemon: one append-only
//! journal per shard of session lifecycle state, compacted in place when
//! it outgrows its budget, so `SESSION_RESUME` tokens minted before a
//! crash still work after a restart.
//!
//! # Entry format
//!
//! Every entry is exactly [`WAL_ENTRY_BYTES`] (64) bytes, checksummed
//! with the same FNV-1a-32 discipline as the codec v2 sync blocks
//! ([`pstrace_codec::fnv32`]):
//!
//! ```text
//! offset  size  field
//!      0     2  magic "WL"
//!      2     1  kind (see WalRecord)
//!      3     1  payload length (schema-chunk entries; 0 otherwise)
//!      4     4  reserved (zero)
//!      8    48  body  (kind-specific, zero-padded)
//!     56     4  reserved (zero)
//!     60     4  crc   u32 LE = fnv32(bytes[0..60])
//! ```
//!
//! The kinds are 1 `Epoch`, 2 `Open`, 3 `SchemaChunk` and 6 `Complete`.
//! An older build's park, resume and expire entries (kinds 4, 5 and 7)
//! decode as unknown kinds: damage sites, like any other torn window.
//!
//! Fixed-size entries make torn writes self-delimiting: a crash mid-append
//! leaves a short tail (`TornEntry`), a flipped bit fails the per-entry
//! CRC (`BadChecksum`), and in both cases recovery keeps every earlier
//! good entry and — because entry boundaries are known without parsing —
//! every *later* good entry too.
//!
//! # What is durable
//!
//! The WAL journals only what recovery reads: a resumable session's open
//! group (token, identity, schema), and one `Complete` once its token is
//! dead (its client had the final reply, or its parked session expired).
//! Parking and resuming journal nothing. Live socket buffers and partially
//! ingested payload bytes are deliberately **not** durable — after a
//! crash a recovered session acks offset 0 and the client resends from
//! the start, so the reassembled stream (and therefore the localization)
//! is byte-identical to an uninterrupted run.
//!
//! Every journal starts with an Epoch entry, and so does every compacted
//! generation: recovery reads the directory's epoch from the first
//! readable one, so a WAL directory holds nothing but its
//! `wal-<shard>.wal` files.
//!
//! # When it syncs
//!
//! Spawning a daemon creates, writes and syncs nothing but the directory
//! itself: the epoch is minted in memory or read back from a journal, and
//! a shard's journal is created by the first entry it appends, with its
//! Epoch header in the same write, so an idle daemon leaves an empty
//! directory behind.
//!
//! Every append reaches the page cache at once, so a daemon crash keeps
//! every entry under both policies. Under [`DurabilityPolicy::Strict`]
//! the commit of open groups is the only sync point a session causes:
//! each open group is written whole with one write
//! ([`WalWriter::append_group`]), and one [`WalWriter::commit`] syncs
//! every group appended since the last one before any of their resume
//! tokens is acked. A shard commits once per wake, so sessions opened in
//! the same wake share one sync, and a lone session pays exactly one.
//! The first sync of a journal created in
//! this life is `sync_all` of the file, then of its directory and of the
//! directory's parent, so the new file's metadata and name and the
//! directory's own name are durable too; later ones are `fdatasync`.
//! `Complete` is written without a sync and becomes durable with the
//! next commit, rotation or drain; the drain syncs only a
//! journal that exists. A power loss can drop that unsynced tail, and
//! recovery tolerates it: a lost `Complete` re-parks a session that had
//! already ended, whose token then either replays from offset 0 to the
//! same report or expires under the resume grace.
//!
//! # Rotation
//!
//! When a shard's journal has grown by its disk budget since its last
//! compaction, the shard writes a compacted generation — the Epoch
//! header, then the open group of every resumable session whose token is
//! not dead yet — to `wal-<shard>.wal.tmp`, syncs it and renames it over
//! the journal, then appends to the new file. The rename is the
//! rotation's only commit point and the old journal is never truncated:
//! a crash before it leaves the old journal whole (and a stray temp file
//! that recovery ignores and the next rotation replaces), a crash after
//! it leaves the new one. Under strict the directory is synced after the
//! rename; under lazy the next sync (the drain's) covers the new name.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use pstrace_codec::fnv32;

use crate::error::StreamError;
use crate::recover::RecoverError;

/// Size of every WAL entry on disk.
pub const WAL_ENTRY_BYTES: usize = 64;

/// Size of an entry's kind-specific body.
pub const WAL_BODY_BYTES: usize = 48;

/// Largest schema payload one [`WalRecord::SchemaChunk`] entry carries.
pub const SCHEMA_CHUNK_BYTES: usize = WAL_BODY_BYTES - 12;

const WAL_MAGIC: [u8; 2] = *b"WL";

/// How the daemon syncs its WAL appends to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityPolicy {
    /// No WAL at all: a crash loses every parked session (the pre-WAL
    /// behavior).
    #[default]
    Off,
    /// Append without fsync: entries survive a daemon crash (the kernel
    /// still has them) but not a host power loss.
    Lazy,
    /// One fsync per commit of open groups (a shard commits once per wake
    /// that journaled one): an acked resume token is on stable storage
    /// before the client sees the ack. A `Complete` rides the next
    /// commit, rotation or drain; losing it to a power cut only re-parks
    /// a session that had already ended.
    Strict,
}

impl DurabilityPolicy {
    /// Parses a `--durability` value (`off`, `lazy`, `strict`).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Protocol`] for anything else.
    pub fn from_name(name: &str) -> Result<DurabilityPolicy, StreamError> {
        match name.to_ascii_lowercase().as_str() {
            "off" => Ok(DurabilityPolicy::Off),
            "lazy" => Ok(DurabilityPolicy::Lazy),
            "strict" => Ok(DurabilityPolicy::Strict),
            other => Err(StreamError::Protocol(format!(
                "unknown durability policy `{other}`; use off, lazy or strict"
            ))),
        }
    }

    /// The policy's CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DurabilityPolicy::Off => "off",
            DurabilityPolicy::Lazy => "lazy",
            DurabilityPolicy::Strict => "strict",
        }
    }
}

/// One decoded WAL entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Journal header, first in every journal and every compacted
    /// generation: the recovery epoch this journal belongs to.
    Epoch {
        /// The server's recovery epoch (stable across restarts of one
        /// WAL directory).
        epoch: u64,
        /// The owning shard index.
        shard: u32,
        /// The shard count the tokens were minted under.
        shard_count: u32,
    },
    /// A resumable session opened (or re-opened by a compaction).
    Open {
        /// The resume token acked to the client.
        token: u64,
        /// The daemon-local session id.
        session_id: u64,
        /// The flight-recorder trace-context id.
        trace: u64,
        /// Usage scenario number.
        scenario: u8,
        /// Match-mode wire byte.
        mode: u8,
        /// Tenant id for quota accounting.
        tenant: u32,
        /// Total schema handshake length in bytes.
        schema_len: u32,
        /// `fnv32` of the full schema handshake.
        schema_crc: u32,
    },
    /// A slice of the session's schema handshake (the variable-length
    /// tail of an Open, carried in fixed-size entries).
    SchemaChunk {
        /// The owning session's resume token.
        token: u64,
        /// Byte offset of this slice within the schema.
        offset: u32,
        /// The slice (at most [`SCHEMA_CHUNK_BYTES`] bytes).
        data: Vec<u8>,
    },
    /// The session's token is dead: its client had the final reply, or
    /// its parked session outlived its grace period. Recovery never
    /// resurrects it.
    Complete {
        /// The ended session's token.
        token: u64,
    },
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::Epoch { .. } => 1,
            WalRecord::Open { .. } => 2,
            WalRecord::SchemaChunk { .. } => 3,
            WalRecord::Complete { .. } => 6,
        }
    }
}

/// Encodes one entry into its fixed 64-byte on-disk form.
#[must_use]
pub fn encode_entry(record: &WalRecord) -> [u8; WAL_ENTRY_BYTES] {
    let mut e = [0u8; WAL_ENTRY_BYTES];
    e[0..2].copy_from_slice(&WAL_MAGIC);
    e[2] = record.kind();
    let body = &mut e[8..8 + WAL_BODY_BYTES];
    match record {
        WalRecord::Epoch {
            epoch,
            shard,
            shard_count,
        } => {
            body[0..8].copy_from_slice(&epoch.to_le_bytes());
            body[8..12].copy_from_slice(&shard.to_le_bytes());
            body[12..16].copy_from_slice(&shard_count.to_le_bytes());
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
            body[0..8].copy_from_slice(&token.to_le_bytes());
            body[8..16].copy_from_slice(&session_id.to_le_bytes());
            body[16..24].copy_from_slice(&trace.to_le_bytes());
            body[24] = *scenario;
            body[25] = *mode;
            body[28..32].copy_from_slice(&tenant.to_le_bytes());
            body[32..36].copy_from_slice(&schema_len.to_le_bytes());
            body[36..40].copy_from_slice(&schema_crc.to_le_bytes());
        }
        WalRecord::SchemaChunk {
            token,
            offset,
            data,
        } => {
            debug_assert!(data.len() <= SCHEMA_CHUNK_BYTES);
            e[3] = data.len() as u8;
            let body = &mut e[8..8 + WAL_BODY_BYTES];
            body[0..8].copy_from_slice(&token.to_le_bytes());
            body[8..12].copy_from_slice(&offset.to_le_bytes());
            body[12..12 + data.len()].copy_from_slice(data);
        }
        WalRecord::Complete { token } => {
            body[0..8].copy_from_slice(&token.to_le_bytes());
        }
    }
    let crc = fnv32(&e[..WAL_ENTRY_BYTES - 4]);
    e[WAL_ENTRY_BYTES - 4..].copy_from_slice(&crc.to_le_bytes());
    e
}

fn body_u64(body: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&body[at..at + 8]);
    u64::from_le_bytes(a)
}

fn body_u32(body: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&body[at..at + 4]);
    u32::from_le_bytes(a)
}

/// Decodes one 64-byte entry at byte `offset` of `path` (both only for
/// error context). The reserved bytes are not read: an older build wrote
/// a sequence number at bytes 4..8.
///
/// # Errors
///
/// * [`RecoverError::TornEntry`] on a bad magic or unknown kind (the
///   bytes are not an entry boundary);
/// * [`RecoverError::BadChecksum`] when the entry's CRC fails.
pub fn decode_entry(
    bytes: &[u8; WAL_ENTRY_BYTES],
    path: &Path,
    offset: u64,
) -> Result<WalRecord, RecoverError> {
    let torn = || RecoverError::TornEntry {
        path: path.display().to_string(),
        offset,
    };
    if bytes[0..2] != WAL_MAGIC {
        return Err(torn());
    }
    let crc = body_u32(bytes, WAL_ENTRY_BYTES - 4);
    if fnv32(&bytes[..WAL_ENTRY_BYTES - 4]) != crc {
        return Err(RecoverError::BadChecksum {
            path: path.display().to_string(),
            offset,
        });
    }
    let len = bytes[3] as usize;
    let body = &bytes[8..8 + WAL_BODY_BYTES];
    let record = match bytes[2] {
        1 => WalRecord::Epoch {
            epoch: body_u64(body, 0),
            shard: body_u32(body, 8),
            shard_count: body_u32(body, 12),
        },
        2 => WalRecord::Open {
            token: body_u64(body, 0),
            session_id: body_u64(body, 8),
            trace: body_u64(body, 16),
            scenario: body[24],
            mode: body[25],
            tenant: body_u32(body, 28),
            schema_len: body_u32(body, 32),
            schema_crc: body_u32(body, 36),
        },
        3 => {
            if len > SCHEMA_CHUNK_BYTES {
                return Err(torn());
            }
            WalRecord::SchemaChunk {
                token: body_u64(body, 0),
                offset: body_u32(body, 8),
                data: body[12..12 + len].to_vec(),
            }
        }
        6 => WalRecord::Complete {
            token: body_u64(body, 0),
        },
        _ => return Err(torn()),
    };
    Ok(record)
}

/// The WAL file of one shard under `dir`.
#[must_use]
pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("wal-{shard}.wal"))
}

/// A crash point armed via the `PSTRACE_CRASH_POINT` environment
/// variable: when `name` matches, the process writes whatever the site
/// staged, then dies by `abort()` — the seam the crash harness uses to
/// prove recovery at every WAL write boundary. Reads the environment
/// once; unarmed in normal operation.
#[must_use]
pub fn crash_armed(name: &str) -> bool {
    static ARMED: OnceLock<Option<String>> = OnceLock::new();
    ARMED
        .get_or_init(|| std::env::var("PSTRACE_CRASH_POINT").ok())
        .as_deref()
        == Some(name)
}

/// The crash-point names the WAL honors, in write order:
///
/// * `wal-mid-entry` — half an append on disk; recovery must flag the
///   torn tail and keep everything before it;
/// * `wal-pre-fsync` — an append in the page cache, never synced;
/// * `wal-mid-checkpoint` — mid-write of a rotation's compacted
///   generation; the old journal must survive;
/// * `wal-mid-rotation` — after the rename, before the directory sync.
pub const CRASH_POINTS: [&str; 4] = [
    "wal-mid-entry",
    "wal-pre-fsync",
    "wal-mid-checkpoint",
    "wal-mid-rotation",
];

/// One resumable session's durable identity: what its open group
/// journals, what a rotation compacts and what recovery rebuilds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRecord {
    /// The resume token the client holds (0 = not resumable).
    pub token: u64,
    /// The daemon-local session id.
    pub session_id: u64,
    /// The flight-recorder trace-context id.
    pub trace: u64,
    /// Usage scenario number.
    pub scenario: u8,
    /// Match-mode wire byte.
    pub mode: u8,
    /// Tenant id for quota accounting.
    pub tenant: u32,
    /// The raw schema handshake bytes.
    pub schema: Vec<u8>,
}

/// A session's open group: one Open entry (identity plus schema length
/// and CRC), then the schema sliced into SchemaChunk entries.
fn open_group(
    token: u64,
    session_id: u64,
    trace: u64,
    scenario: u8,
    mode: u8,
    tenant: u32,
    schema: &[u8],
) -> impl Iterator<Item = WalRecord> + '_ {
    let open = WalRecord::Open {
        token,
        session_id,
        trace,
        scenario,
        mode,
        tenant,
        schema_len: schema.len() as u32,
        schema_crc: fnv32(schema),
    };
    let chunks = schema
        .chunks(SCHEMA_CHUNK_BYTES)
        .enumerate()
        .map(move |(i, piece)| WalRecord::SchemaChunk {
            token,
            offset: (i * SCHEMA_CHUNK_BYTES) as u32,
            data: piece.to_vec(),
        });
    std::iter::once(open).chain(chunks)
}

/// Syncs directory `dir`, so the names of files just created or renamed
/// in it survive a power loss: syncing a file does not sync its directory
/// entry. Only Unix opens a directory as a file; elsewhere this does
/// nothing.
fn sync_dir(dir: &Path) -> io::Result<()> {
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// A fresh nonzero epoch, for a daemon life with no lineage to continue:
/// derived from the wall clock, so two distinct daemon lives (or WAL
/// dirs) get distinct epochs and a stale token is rejected rather than
/// spliced into a stranger's session.
#[must_use]
pub fn fresh_epoch() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| d.as_nanos() as u64);
    // Pinned away from 0.
    pstrace_soc::value::splitmix64(nanos) | 1
}

/// The append half of one shard's WAL.
#[derive(Debug)]
pub struct WalWriter {
    /// The journal: the one an earlier life left, or, when there is none,
    /// the one the first append creates; after a rotation, the compacted
    /// generation renamed into its place.
    file: Option<File>,
    path: PathBuf,
    dir: PathBuf,
    shard: usize,
    shard_count: u32,
    epoch: u64,
    policy: DurabilityPolicy,
    /// The journal's length in bytes.
    written: u64,
    /// The journal's length right after this writer's last rotation (0
    /// before the first): rotation counts growth past it, so a live set
    /// larger than the budget does not rotate on every append.
    compacted: u64,
    budget: u64,
    syncs: u64,
    /// The journal's name is not durable yet: this writer created it, or
    /// a lazy rotation renamed it into place, since the last sync. The
    /// next sync is then `sync_all` of the file and a sync of the
    /// directory.
    unsynced_name: bool,
    /// This writer created the journal and has not synced its name yet:
    /// that sync also syncs the directory's parent, so the directory's
    /// own name is durable too.
    created: bool,
    /// An open group was appended since the last commit.
    uncommitted: bool,
}

impl WalWriter {
    /// Opens the shard's WAL under `dir` (creating the directory if
    /// needed) for appending if an earlier life left one, and creates,
    /// writes and syncs no file: a missing journal is created by the
    /// first append, which writes its Epoch header in the same write. A
    /// torn tail (a length that is not a whole number of entries) is cut
    /// back to the last whole entry, so appends stay on the 64-byte
    /// windows recovery scans; recovery already counted that tail as a
    /// [`RecoverError::TornEntry`](crate::recover::RecoverError).
    /// `budget` is the disk-pressure rotation threshold in bytes.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures, and file i/o failures
    /// other than a missing journal.
    pub fn open(
        dir: &Path,
        shard: usize,
        shard_count: usize,
        epoch: u64,
        policy: DurabilityPolicy,
        budget: u64,
    ) -> io::Result<WalWriter> {
        std::fs::create_dir_all(dir)?;
        let path = wal_path(dir, shard);
        let file = match OpenOptions::new().append(true).open(&path) {
            Ok(file) => Some(file),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let written = match &file {
            Some(file) => {
                let len = file.metadata()?.len();
                let whole = len - len % WAL_ENTRY_BYTES as u64;
                if whole < len {
                    file.set_len(whole)?;
                }
                whole
            }
            None => 0,
        };
        Ok(WalWriter {
            file,
            path,
            dir: dir.to_path_buf(),
            shard,
            shard_count: shard_count as u32,
            epoch,
            policy,
            written,
            compacted: 0,
            budget: budget.max(4 * WAL_ENTRY_BYTES as u64),
            syncs: 0,
            unsynced_name: false,
            created: false,
            uncommitted: false,
        })
    }

    /// The file this writer appends to (it exists once something was
    /// appended, or when an earlier life left it).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many syncs this writer has completed (a sync that also syncs
    /// directories counts as one): under [`DurabilityPolicy::Strict`],
    /// none before the first append, one per [`WalWriter::commit`] that
    /// found an uncommitted open group (so one per
    /// [`WalWriter::append_open`], and one for any number of groups
    /// appended with [`WalWriter::append_group`] before one commit), none
    /// per other append, two per rotation.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Appends one entry without syncing it, honoring the armed crash
    /// points. An empty or missing journal gets its Epoch header in the
    /// same write. The entry is in the page cache when this returns;
    /// under [`DurabilityPolicy::Strict`] it reaches stable storage with
    /// the next commit, rotation or [`WalWriter::sync`].
    ///
    /// # Errors
    ///
    /// Propagates file i/o failures (the caller degrades, never dies).
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.write_records([record.clone()])
    }

    /// The Epoch entry that starts a journal and every compacted
    /// generation.
    fn header(&self) -> WalRecord {
        WalRecord::Epoch {
            epoch: self.epoch,
            shard: self.shard as u32,
            shard_count: self.shard_count,
        }
    }

    /// Writes `records` at the journal's end in one write, after the
    /// Epoch header when the journal is empty.
    fn write_records(&mut self, records: impl IntoIterator<Item = WalRecord>) -> io::Result<()> {
        let header = (self.written == 0).then(|| self.header());
        let entries: Vec<u8> = header
            .into_iter()
            .chain(records)
            .flat_map(|r| encode_entry(&r))
            .collect();
        self.write(&entries)
    }

    /// Writes whole encoded entries at the journal's end in one write,
    /// creating the journal if it does not exist yet.
    fn write(&mut self, entries: &[u8]) -> io::Result<()> {
        let file = match self.file.take() {
            Some(file) => file,
            None => {
                let file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)?;
                self.unsynced_name = true;
                self.created = true;
                file
            }
        };
        let file = self.file.insert(file);
        if crash_armed("wal-mid-entry") {
            // Half an entry on disk, then death: recovery must classify
            // the tail as torn and keep everything before it.
            let _ = file.write_all(&entries[..entries.len() - WAL_ENTRY_BYTES / 2 + 1]);
            let _ = file.sync_all();
            std::process::abort();
        }
        file.write_all(entries)?;
        if crash_armed("wal-pre-fsync") {
            // The entry reached the kernel but was never fsynced.
            std::process::abort();
        }
        self.written += entries.len() as u64;
        Ok(())
    }

    /// Appends the open group of a resumable session without syncing it:
    /// one Open entry plus however many SchemaChunk entries the handshake
    /// needs (and the Epoch header of a journal this creates), encoded
    /// into one buffer and written with one write. The group is in the
    /// page cache when this returns; under [`DurabilityPolicy::Strict`]
    /// it reaches stable storage with the next [`WalWriter::commit`] —
    /// commit it *before* acking the token. A crash can tear the group
    /// anywhere; recovery drops a group whose schema is incomplete.
    ///
    /// # Errors
    ///
    /// Propagates file i/o failures.
    #[allow(clippy::too_many_arguments)]
    pub fn append_group(
        &mut self,
        token: u64,
        session_id: u64,
        trace: u64,
        scenario: u8,
        mode: u8,
        tenant: u32,
        schema: &[u8],
    ) -> io::Result<()> {
        self.write_records(open_group(
            token, session_id, trace, scenario, mode, tenant, schema,
        ))?;
        self.uncommitted = true;
        Ok(())
    }

    /// Whether an open group was appended since the last commit, sync or
    /// rotation.
    pub(crate) fn uncommitted(&self) -> bool {
        self.uncommitted
    }

    /// Commits the open groups appended since the last commit, sync or
    /// rotation: under [`DurabilityPolicy::Strict`] one sync puts them,
    /// and every entry appended before them, on stable storage, however
    /// many there are; under lazy durability nothing is synced. With no
    /// such group this does nothing.
    ///
    /// # Errors
    ///
    /// Propagates fsync failures. The groups then count as committed: a
    /// failing disk costs one failed sync per commit, as it cost one per
    /// group before.
    pub fn commit(&mut self) -> io::Result<()> {
        if std::mem::take(&mut self.uncommitted) && self.policy == DurabilityPolicy::Strict {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends the open group of a resumable session and commits it:
    /// [`WalWriter::append_group`], then [`WalWriter::commit`]. Under
    /// [`DurabilityPolicy::Strict`] one sync puts the group, and every
    /// entry appended before it, on stable storage before this returns —
    /// append it *before* acking the token.
    ///
    /// # Errors
    ///
    /// Propagates file i/o failures.
    #[allow(clippy::too_many_arguments)]
    pub fn append_open(
        &mut self,
        token: u64,
        session_id: u64,
        trace: u64,
        scenario: u8,
        mode: u8,
        tenant: u32,
        schema: &[u8],
    ) -> io::Result<()> {
        self.append_group(token, session_id, trace, scenario, mode, tenant, schema)?;
        self.commit()
    }

    /// Whether the journal has grown by its disk budget since the last
    /// rotation and wants compacting.
    #[must_use]
    pub fn needs_rotation(&self) -> bool {
        self.written - self.compacted >= self.budget
    }

    /// Rotates the WAL: writes the compacted generation of `live` (the
    /// open group of every resumable session whose token is not dead
    /// yet) to a temp file, syncs
    /// it and renames it over the journal, which this writer then
    /// appends to. Under [`DurabilityPolicy::Strict`] a directory sync
    /// makes the rename durable; under lazy the next sync does.
    ///
    /// # Errors
    ///
    /// Propagates i/o failures; until the rename the old journal is
    /// untouched and recovery still works from it.
    pub fn rotate(&mut self, live: &[SessionRecord]) -> io::Result<()> {
        let mut records = vec![self.header()];
        for s in live {
            records.extend(open_group(
                s.token,
                s.session_id,
                s.trace,
                s.scenario,
                s.mode,
                s.tenant,
                &s.schema,
            ));
        }
        let entries: Vec<u8> = records.iter().flat_map(encode_entry).collect();

        let tmp = self.path.with_extension("wal.tmp");
        let mut file = File::create(&tmp)?;
        if crash_armed("wal-mid-checkpoint") {
            // Half the compacted generation in the temp file, never
            // renamed: the old journal must survive untouched.
            let half = records.len() / 2 * WAL_ENTRY_BYTES;
            let _ = file.write_all(&entries[..half]);
            let _ = file.sync_all();
            std::process::abort();
        }
        file.write_all(&entries)?;
        file.sync_all()?;
        self.syncs += 1;
        // The synced generation holds every live open group.
        self.uncommitted = false;
        std::fs::rename(&tmp, &self.path)?;
        self.file = Some(file);
        self.written = entries.len() as u64;
        self.compacted = self.written;
        self.unsynced_name = true;
        if crash_armed("wal-mid-rotation") {
            // Renamed, directory not yet synced: the kernel holds the
            // rename, so recovery reads the new generation.
            std::process::abort();
        }
        if self.policy == DurabilityPolicy::Strict {
            self.sync_names()?;
            self.syncs += 1;
        }
        Ok(())
    }

    /// Puts every appended entry on stable storage: the strict policy's
    /// commit, and the drain edge under both policies. A sync
    /// while the journal's name is not durable is `sync_all`, then a sync
    /// of the directory that holds the name (and of its parent for a
    /// journal this writer created), and counts as one; every other sync
    /// is one `fdatasync`. With no journal there is nothing to sync, and
    /// nothing is counted.
    ///
    /// # Errors
    ///
    /// Propagates fsync failures.
    pub fn sync(&mut self) -> io::Result<()> {
        let Some(file) = &self.file else {
            return Ok(());
        };
        if self.unsynced_name {
            file.sync_all()?;
            self.sync_names()?;
        } else {
            file.sync_data()?;
        }
        self.syncs += 1;
        self.uncommitted = false;
        Ok(())
    }

    /// Syncs the directory, so the journal's name is durable, and for a
    /// journal this writer created the directory's parent too, so the
    /// directory's own name (which `open` may have created) is durable.
    fn sync_names(&mut self) -> io::Result<()> {
        sync_dir(&self.dir)?;
        if self.created {
            if let Some(parent) = self.dir.parent() {
                let parent = if parent.as_os_str().is_empty() {
                    Path::new(".")
                } else {
                    parent
                };
                sync_dir(parent)?;
            }
            self.created = false;
        }
        self.unsynced_name = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_record_round_trips_through_its_entry() {
        let records = [
            WalRecord::Epoch {
                epoch: 0xfeed_beef,
                shard: 3,
                shard_count: 8,
            },
            WalRecord::Open {
                token: 42,
                session_id: 7,
                trace: 0xabc,
                scenario: 1,
                mode: 1,
                tenant: 9,
                schema_len: 100,
                schema_crc: 0x1234,
            },
            WalRecord::SchemaChunk {
                token: 42,
                offset: 36,
                data: vec![1, 2, 3, 4, 5],
            },
            WalRecord::Complete { token: 42 },
        ];
        let path = Path::new("test.wal");
        for record in &records {
            let entry = encode_entry(record);
            assert_eq!(entry[4..8], [0; 4], "bytes 4..8 are reserved");
            assert_eq!(&decode_entry(&entry, path, 0).unwrap(), record);
        }
    }

    #[test]
    fn corrupt_entries_yield_typed_errors() {
        let path = Path::new("test.wal");
        let mut entry = encode_entry(&WalRecord::Complete { token: 5 });
        entry[10] ^= 0x40;
        assert!(matches!(
            decode_entry(&entry, path, 64),
            Err(RecoverError::BadChecksum { offset: 64, .. })
        ));
        let mut bad_magic = encode_entry(&WalRecord::Complete { token: 5 });
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_entry(&bad_magic, path, 0),
            Err(RecoverError::TornEntry { .. })
        ));
        // An older build's park, resume and expire entries, checksummed.
        for kind in [4, 5, 7] {
            let mut retired = encode_entry(&WalRecord::Complete { token: 5 });
            retired[2] = kind;
            retired[4] = 1;
            let crc = fnv32(&retired[..WAL_ENTRY_BYTES - 4]);
            retired[WAL_ENTRY_BYTES - 4..].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(
                decode_entry(&retired, path, 128),
                Err(RecoverError::TornEntry { offset: 128, .. })
            ));
        }
    }

    #[test]
    fn durability_policy_parses_its_names() {
        for policy in [
            DurabilityPolicy::Off,
            DurabilityPolicy::Lazy,
            DurabilityPolicy::Strict,
        ] {
            assert_eq!(DurabilityPolicy::from_name(policy.name()).unwrap(), policy);
        }
        assert!(DurabilityPolicy::from_name("paranoid").is_err());
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pstrace-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn session(token: u64, schema_len: usize) -> SessionRecord {
        SessionRecord {
            token,
            session_id: token,
            trace: 0xbeef,
            scenario: 1,
            mode: 1,
            tenant: 0,
            schema: vec![0xAB; schema_len],
        }
    }

    fn open_session(wal: &mut WalWriter, s: &SessionRecord) {
        wal.append_open(
            s.token,
            s.session_id,
            s.trace,
            s.scenario,
            s.mode,
            s.tenant,
            &s.schema,
        )
        .unwrap();
    }

    /// Every entry of `dir`'s shard-0 journal.
    fn journal(dir: &Path) -> Vec<WalRecord> {
        let path = wal_path(dir, 0);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() % WAL_ENTRY_BYTES, 0);
        bytes
            .chunks(WAL_ENTRY_BYTES)
            .map(|e| decode_entry(e.try_into().unwrap(), &path, 0).unwrap())
            .collect()
    }

    #[test]
    fn writer_appends_and_rotates_under_budget() {
        let dir = tmp_dir("rotate");
        let mut wal = WalWriter::open(&dir, 0, 2, 77, DurabilityPolicy::Lazy, 5 * 64).unwrap();
        let s = session(2, 100);
        open_session(&mut wal, &s);
        assert!(
            wal.needs_rotation(),
            "epoch + open + 3 schema chunks = 5 entries hit the budget"
        );
        wal.rotate(std::slice::from_ref(&s)).unwrap();
        assert!(!wal.needs_rotation());
        let header = WalRecord::Epoch {
            epoch: 77,
            shard: 0,
            shard_count: 2,
        };
        let generation = journal(&dir);
        assert_eq!(
            generation[0], header,
            "a compacted generation starts with its epoch"
        );
        assert_eq!(generation.len(), 5, "epoch + open + 3 chunks");
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "the temp file was renamed into place");

        // Appends continue on the new generation.
        wal.append(&WalRecord::Complete { token: 2 }).unwrap();
        assert_eq!(journal(&dir)[5], WalRecord::Complete { token: 2 });
        assert_eq!(crate::recover::recover_state(&dir, 1).sessions(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_generation_over_the_budget_rotates_only_after_growing_by_it() {
        let dir = tmp_dir("overbudget");
        let mut wal = WalWriter::open(&dir, 0, 1, 5, DurabilityPolicy::Lazy, 0).unwrap();
        let big = session(1, 20 * SCHEMA_CHUNK_BYTES);
        open_session(&mut wal, &big);
        assert!(wal.needs_rotation());
        wal.rotate(std::slice::from_ref(&big)).unwrap();
        let generation = std::fs::metadata(wal_path(&dir, 0)).unwrap().len();
        assert!(
            generation >= 4 * 4 * WAL_ENTRY_BYTES as u64,
            "the live set alone is several budgets long"
        );
        // The 256-byte floor is four entries of growth.
        for appended in 1..=4 {
            assert!(
                !wal.needs_rotation(),
                "rotated again after {appended} appends"
            );
            wal.append(&WalRecord::Complete { token: 1 }).unwrap();
        }
        assert!(
            wal.needs_rotation(),
            "four entries of growth cross the floor"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_stray_temp_file_is_ignored_and_the_next_rotation_replaces_it() {
        let dir = tmp_dir("stray");
        let mut wal = WalWriter::open(&dir, 0, 1, 5, DurabilityPolicy::Strict, u64::MAX).unwrap();
        let s = session(3, 40);
        open_session(&mut wal, &s);
        // A crash mid-rotation left half a generation, and some garbage.
        let tmp = wal_path(&dir, 0).with_extension("wal.tmp");
        let mut stray = encode_entry(&wal.header()).to_vec();
        stray.extend_from_slice(&[0xFF; 100]);
        std::fs::write(&tmp, &stray).unwrap();

        let state = crate::recover::recover_state(&dir, 1);
        assert_eq!(state.sessions(), 1);
        assert!(state.errors.is_empty(), "{:?}", state.errors);

        let before = wal.syncs();
        wal.rotate(std::slice::from_ref(&s)).unwrap();
        assert_eq!(wal.syncs() - before, 2, "a strict rotation syncs twice");
        assert!(!tmp.exists(), "the rotation renamed its own temp file");
        let state = crate::recover::recover_state(&dir, 1);
        assert_eq!(state.sessions(), 1);
        assert_eq!(state.epoch, 5);
        assert!(state.errors.is_empty(), "{:?}", state.errors);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_is_minted_once_and_stable() {
        let dir = tmp_dir("epoch");
        let read = || crate::recover::recover_state(&dir, 1).epoch;

        // An idle life: a writer that never appends, then the drain's
        // sync. Nothing is created and nothing is synced.
        let mut idle = WalWriter::open(&dir, 0, 1, 5, DurabilityPolicy::Strict, u64::MAX).unwrap();
        idle.sync().unwrap();
        assert_eq!(idle.syncs(), 0);
        assert_eq!(read(), 0, "an idle life persists no epoch");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);

        // A life that journals a session writes its epoch in the
        // journal's header; every later life reads the same one back.
        let epoch = fresh_epoch();
        let mut wal =
            WalWriter::open(&dir, 0, 1, epoch, DurabilityPolicy::Strict, u64::MAX).unwrap();
        wal.append_open(2, 1, 0xbeef, 1, 1, 0, &[0xAB; 10]).unwrap();
        assert_eq!(
            wal.syncs(),
            1,
            "the open group's sync covers the new journal"
        );
        drop(wal);
        assert_ne!(epoch, 0);
        assert_eq!(read(), epoch, "the epoch survives restarts of one WAL dir");
        std::fs::remove_dir_all(&dir).ok();
    }
}
