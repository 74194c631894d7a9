//! Model-based WAL recovery: random session lifecycles (open, an
//! unsynced open group, commit or sync, complete, expire, rotate) run
//! against a strict [`WalWriter`] and an in-memory reference model of
//! the tokens the daemon holds. Parking and resuming journal nothing, so
//! to the journal a parked session is a live one, and a completed one is
//! an expired one: both end with `Complete`. An open group appended
//! unsynced ([`WalWriter::append_group`], as a shard does for each
//! session of a wake) is live but not acked until a commit, sync or
//! rotation covers it; only acked sessions complete.
//!
//! Each rotation renames a compacted generation over the journal, so the
//! model keeps one file per generation: the journal as it stood just
//! before the next rotation, starting with the compacted prefix the
//! rotation synced before the rename.
//!
//! - Cut at every entry boundary after that prefix and at a torn byte
//!   offset inside every later entry, recovery equals the model at that
//!   point. At each rotation both the old generation whole and the new
//!   generation's prefix alone equal the model.
//! - Cut at the last sync point (a power loss), recovery keeps every
//!   acked, still-live token, and any extra token belongs to a session
//!   that had already ended or was never acked.
//! - A group torn anywhere inside its one write is dropped whole, and
//!   every group synced before it is kept.
//! - Under strict durability the writer syncs nothing until its first
//!   append, then once per `append_open`, once per commit that finds an
//!   uncommitted group (however many), once per explicit sync of an
//!   existing journal, twice per rotation (the compacted generation,
//!   then the directory after the rename), and never for any other
//!   append.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use pstrace_stream::durable::{
    recover_state, wal_path, DurabilityPolicy, RecoverError, SessionRecord, WalRecord, WalWriter,
    WAL_ENTRY_BYTES,
};

const ENTRY: usize = WAL_ENTRY_BYTES;

/// One lifecycle step as generated: a kind, which session it picks and
/// a size (the schema length of an open).
type Step = (u8, u8, u16);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `append_open`: a group and its commit.
    Open,
    /// `append_group`: a group, unsynced.
    Group,
    /// `commit`, or `sync` when the step's pick is odd.
    Sync,
    Complete,
    Expire,
    Rotate,
}

impl Kind {
    fn of(step: Step) -> Kind {
        // Opens come up most often, so sequences build a population.
        match step.0 % 8 {
            0 | 1 => Kind::Open,
            2 | 3 => Kind::Group,
            4 => Kind::Sync,
            5 => Kind::Complete,
            6 => Kind::Expire,
            _ => Kind::Rotate,
        }
    }
}

/// The reference model after one step: the records of the sessions the
/// daemon still holds, those of them not acked yet (their group awaits
/// a commit), and the tokens whose sessions have ended.
#[derive(Debug, Clone, Default)]
struct Model {
    live: BTreeMap<u64, SessionRecord>,
    unacked: BTreeSet<u64>,
    ended: BTreeSet<u64>,
}

/// What one step left behind.
#[derive(Debug)]
struct Cut {
    /// The step's kind, `None` for a generation's starting point.
    kind: Option<Kind>,
    /// Journal length after the step.
    wal_len: usize,
    /// Journal length at the writer's last sync.
    synced_len: usize,
    /// Syncs the step issued.
    syncs: u64,
    /// Syncs the model expected of the step.
    expected: u64,
    model: Model,
}

/// One journal between rotations: the length of the compacted prefix it
/// started from (0 for the first), its final bytes and the cut after
/// each of its steps.
#[derive(Debug)]
struct Generation {
    start: usize,
    wal: Vec<u8>,
    cuts: Vec<Cut>,
}

fn scratch_dir(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "pstrace-wal-model-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A session's durable identity, derived from its token.
fn record(token: u64, schema_len: usize) -> SessionRecord {
    SessionRecord {
        token,
        session_id: token + 1000,
        trace: token ^ 0xabc0,
        scenario: 1 + (token % 5) as u8,
        mode: (token % 4) as u8,
        tenant: (token % 3) as u32,
        schema: (0..schema_len)
            .map(|i| (token as usize * 31 + i) as u8)
            .collect(),
    }
}

/// Picks the `pick`-th (mod count) token of `tokens`, if any.
fn nth(tokens: impl Iterator<Item = u64> + Clone, pick: u8) -> Option<u64> {
    let n = tokens.clone().count();
    (n > 0).then(|| tokens.clone().nth(usize::from(pick) % n).unwrap())
}

/// Runs `steps` against a strict writer and the model, recording every
/// generation of the journal. Steps with no eligible session are skipped.
fn run(steps: &[Step]) -> Vec<Generation> {
    let dir = scratch_dir("run");
    let mut wal = WalWriter::open(&dir, 0, 1, 7, DurabilityPolicy::Strict, u64::MAX).unwrap();
    assert_eq!(wal.syncs(), 0, "opening a fresh journal syncs nothing");
    let wal_file = wal_path(&dir, 0);
    // The journal, or nothing before the first append created it.
    let journal = || std::fs::read(&wal_file).unwrap_or_default();
    let mut model = Model::default();
    // A generation starts with no journal, or after a rotation with its
    // synced compacted prefix.
    let start = |model: &Model, len: usize| Generation {
        start: len,
        wal: Vec::new(),
        cuts: vec![Cut {
            kind: None,
            wal_len: len,
            synced_len: len,
            syncs: 0,
            expected: 0,
            model: model.clone(),
        }],
    };
    let mut generations = Vec::new();
    let mut current = start(&model, 0);
    let mut next_token = 1u64;
    // Whether the journal exists, and whether a group was appended since
    // the last sync.
    let (mut exists, mut pending) = (false, false);
    for &step in steps {
        let (_, pick, size) = step;
        let kind = Kind::of(step);
        let before = wal.syncs();
        let expected = match kind {
            Kind::Open => {
                let r = record(next_token, 1 + usize::from(size) % 120);
                next_token += 1;
                wal.append_open(
                    r.token,
                    r.session_id,
                    r.trace,
                    r.scenario,
                    r.mode,
                    r.tenant,
                    &r.schema,
                )
                .unwrap();
                model.live.insert(r.token, r);
                model.unacked.clear();
                (exists, pending) = (true, false);
                1
            }
            Kind::Group => {
                let r = record(next_token, 1 + usize::from(size) % 120);
                next_token += 1;
                wal.append_group(
                    r.token,
                    r.session_id,
                    r.trace,
                    r.scenario,
                    r.mode,
                    r.tenant,
                    &r.schema,
                )
                .unwrap();
                model.unacked.insert(r.token);
                model.live.insert(r.token, r);
                (exists, pending) = (true, true);
                0
            }
            Kind::Sync => {
                let expected = if pick % 2 == 0 {
                    wal.commit().unwrap();
                    u64::from(pending)
                } else {
                    wal.sync().unwrap();
                    u64::from(exists)
                };
                model.unacked.clear();
                pending = false;
                expected
            }
            // A reply that went out, or a parked session's grace that
            // ran out: either way the token dies. Only an acked session
            // gets that far.
            Kind::Complete | Kind::Expire => {
                let acked = model
                    .live
                    .keys()
                    .copied()
                    .filter(|token| !model.unacked.contains(token));
                let Some(token) = nth(acked, pick) else {
                    continue;
                };
                wal.append(&WalRecord::Complete { token }).unwrap();
                model.live.remove(&token);
                model.ended.insert(token);
                exists = true;
                0
            }
            Kind::Rotate => {
                current.wal = journal();
                let live: Vec<SessionRecord> = model.live.values().cloned().collect();
                wal.rotate(&live).unwrap();
                // The synced generation holds every live group.
                model.unacked.clear();
                (exists, pending) = (true, false);
                let prefix = journal().len();
                generations.push(std::mem::replace(&mut current, start(&model, prefix)));
                let first = &mut current.cuts[0];
                first.kind = Some(Kind::Rotate);
                first.syncs = wal.syncs() - before;
                first.expected = 2;
                continue;
            }
        };
        let syncs = wal.syncs() - before;
        let wal_len = std::fs::metadata(&wal_file).map_or(0, |m| m.len() as usize);
        let synced_len = if syncs > 0 {
            wal_len
        } else {
            current.cuts.last().unwrap().synced_len
        };
        current.cuts.push(Cut {
            kind: Some(kind),
            wal_len,
            synced_len,
            syncs,
            expected,
            model: model.clone(),
        });
    }
    current.wal = journal();
    generations.push(current);
    drop(wal);
    std::fs::remove_dir_all(&dir).ok();
    generations
}

/// Lays `wal` out as shard 0's journal in `dir` and recovers it: token →
/// record, plus the damage sites recovery found.
fn recover(dir: &Path, wal: &[u8]) -> (BTreeMap<u64, SessionRecord>, usize) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(wal_path(dir, 0), wal).unwrap();
    let state = recover_state(dir, 1);
    let sessions = state.shards[0]
        .iter()
        .map(|r| (r.token, r.clone()))
        .collect();
    (sessions, state.errors.len())
}

/// Recovery at every entry boundary after a generation's compacted
/// prefix (the rename installs that prefix whole), and at one torn offset
/// inside every later entry, equals the model after the last step wholly
/// inside the cut. At a rotation, the old generation whole (a crash
/// before the rename) and the new generation's prefix alone (a crash
/// right after it) both equal the model at the rotation.
fn check_cuts(generations: &[Generation], tear: u8) {
    let dir = scratch_dir("cuts");
    for (g, gen) in generations.iter().enumerate() {
        let entries = gen.wal.len() / ENTRY;
        for k in gen.start / ENTRY..=entries {
            let torn = 1 + (usize::from(tear) + 7 * k) % (ENTRY - 1);
            for len in [k * ENTRY, k * ENTRY + torn] {
                if len > gen.wal.len() {
                    continue;
                }
                let expected = &gen
                    .cuts
                    .iter()
                    .rev()
                    .find(|c| c.wal_len <= len)
                    .unwrap_or(&gen.cuts[0])
                    .model
                    .live;
                let (got, damage) = recover(&dir, &gen.wal[..len]);
                let at = format!(
                    "generation {g}, journal cut at byte {len} of {}",
                    gen.wal.len()
                );
                assert_eq!(&got, expected, "{at}");
                assert_eq!(damage, usize::from(len % ENTRY != 0), "{at}: damage sites");
            }
        }
        if let Some(next) = generations.get(g + 1) {
            let at_rotation = &next.cuts[0].model.live;
            let (got, _) = recover(&dir, &gen.wal);
            assert_eq!(&got, at_rotation, "rotation {g}: the old generation, whole");
            let (got, damage) = recover(&dir, &next.wal[..next.start]);
            assert_eq!(
                &got, at_rotation,
                "rotation {g}: the new generation's prefix alone"
            );
            assert_eq!(damage, 0, "rotation {g}: the compacted prefix is clean");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// After every step, a power loss keeps the journal up to its last sync.
/// Every acked session the daemon still holds recovers with its
/// identity; any other recovered token belongs to a session that had
/// already ended, or to a live one whose group was not acked yet.
fn check_power_loss(generations: &[Generation]) {
    let dir = scratch_dir("power");
    let mut opened: BTreeMap<u64, SessionRecord> = BTreeMap::new();
    for (g, gen) in generations.iter().enumerate() {
        for (i, cut) in gen.cuts.iter().enumerate() {
            for r in cut.model.live.values() {
                opened.entry(r.token).or_insert_with(|| r.clone());
            }
            let (got, _) = recover(&dir, &gen.wal[..cut.synced_len]);
            let at = format!("generation {g}, power loss after step {i} ({:?})", cut.kind);
            for (token, r) in &cut.model.live {
                if cut.model.unacked.contains(token) {
                    assert!(
                        got.get(token).map_or(true, |got| got == r),
                        "{at}: unacked token {token} came back changed"
                    );
                    continue;
                }
                assert_eq!(got.get(token), Some(r), "{at}: live token {token}");
            }
            for (token, r) in &got {
                if cut.model.live.contains_key(token) {
                    continue;
                }
                assert!(
                    cut.model.ended.contains(token),
                    "{at}: token {token} was never acked or is still live"
                );
                assert_eq!(
                    Some(r),
                    opened.get(token),
                    "{at}: an ended session {token} came back changed"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One sync per `append_open`, per commit of uncommitted groups and per
/// sync of an existing journal, two per rotation, none for anything
/// else.
fn check_syncs(generations: &[Generation]) {
    for cut in generations.iter().flat_map(|g| &g.cuts) {
        assert_eq!(cut.syncs, cut.expected, "syncs for {:?}", cut.kind);
    }
}

/// A group is one write: a crash or power cut can leave any prefix of
/// it. Recovery drops the group at every cut short of its end (its
/// schema is incomplete, or its Open is torn) and keeps the synced
/// group before it; the whole group recovers too.
#[test]
fn wal_model_a_torn_group_is_dropped_and_synced_groups_are_kept() {
    let (synced, torn) = (record(1, 40), record(2, 100));
    let dir = scratch_dir("torn-group");
    let mut wal = WalWriter::open(&dir, 0, 1, 7, DurabilityPolicy::Strict, u64::MAX).unwrap();
    for r in [&synced, &torn] {
        wal.append_group(
            r.token,
            r.session_id,
            r.trace,
            r.scenario,
            r.mode,
            r.tenant,
            &r.schema,
        )
        .unwrap();
        if r.token == synced.token {
            assert_eq!(wal.syncs(), 0, "a group alone syncs nothing");
            wal.commit().unwrap();
            assert_eq!(wal.syncs(), 1);
        }
    }
    drop(wal);
    let journal = std::fs::read(wal_path(&dir, 0)).unwrap();
    // Epoch header, then 1 + 2 entries, then 1 + 3.
    assert_eq!(journal.len(), 8 * ENTRY);
    let group = 4 * ENTRY..journal.len();
    let cuts = scratch_dir("torn-group-cuts");
    for len in group.clone() {
        let (got, _) = recover(&cuts, &journal[..len]);
        let tokens: Vec<u64> = got.keys().copied().collect();
        assert_eq!(tokens, [1], "the group cut at byte {len}");
        assert_eq!(got[&1], synced);
    }
    let (got, damage) = recover(&cuts, &journal);
    assert_eq!(got.keys().copied().collect::<Vec<_>>(), [1, 2]);
    assert_eq!(damage, 0);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&cuts).ok();
}

/// A journal torn mid-entry (by `wal-mid-entry` or a power cut) is cut
/// back to its last whole entry when the next life opens it, so the
/// sessions that life journals land on whole 64-byte windows.
#[test]
fn wal_model_a_torn_tail_is_cut_before_the_next_life_appends() {
    let (first, second) = (record(1, 70), record(2, 70));
    let open = |wal: &mut WalWriter, r: &SessionRecord| {
        wal.append_open(
            r.token,
            r.session_id,
            r.trace,
            r.scenario,
            r.mode,
            r.tenant,
            &r.schema,
        )
        .unwrap();
    };
    for torn in 1..ENTRY {
        let dir = scratch_dir("torn");
        let mut wal = WalWriter::open(&dir, 0, 1, 7, DurabilityPolicy::Strict, u64::MAX).unwrap();
        open(&mut wal, &first);
        drop(wal);
        let mut journal = std::fs::read(wal_path(&dir, 0)).unwrap();
        journal.extend(std::iter::repeat(0xA5).take(torn));
        std::fs::write(wal_path(&dir, 0), &journal).unwrap();

        let mut wal = WalWriter::open(&dir, 0, 1, 7, DurabilityPolicy::Strict, u64::MAX).unwrap();
        open(&mut wal, &second);
        let state = recover_state(&dir, 1);
        let tokens: Vec<u64> = state.shards[0].iter().map(|r| r.token).collect();
        assert_eq!(tokens, [1, 2], "{torn} torn bytes: {:?}", state.errors);
        assert!(
            state
                .errors
                .iter()
                .all(|e| !matches!(e, RecoverError::BadChecksum { .. })),
            "{torn} torn bytes: {:?}",
            state.errors
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..8, any::<u8>(), any::<u16>()), 1..32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wal_model_recovery_matches_the_model_at_every_cut(steps in steps(), tear in any::<u8>()) {
        check_cuts(&run(&steps), tear);
    }

    #[test]
    fn wal_model_power_loss_keeps_every_acked_live_token(steps in steps()) {
        check_power_loss(&run(&steps));
    }

    #[test]
    fn wal_model_syncs_once_per_commit(steps in steps()) {
        check_syncs(&run(&steps));
    }
}
