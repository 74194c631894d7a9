//! The flight recorder: a lock-free ring journal of typed lifecycle
//! events, so the daemon can trace *itself* with the same
//! application-level discipline the paper prescribes for silicon.
//!
//! Every subsystem seam (session open/close, handshake, park/resume,
//! shed, cross-shard resume, frame damage, localizer resync, quota
//! trip, worker respawn, drain/shutdown, injected fault, degradation
//! ladder) appends one fixed-size [`FlightEvent`] to a per-lane
//! [`FlightRing`]. Writers never block and never allocate: one
//! `fetch_add` claims a slot, a seqlock-style generation stamp makes
//! torn reads detectable, and overflow overwrites the oldest events —
//! observability degrades, the data plane never does.
//!
//! The journal is deliberately *typed*: an event is an
//! ([`EventKind`], reason-code) pair, not a string, so the hot path
//! stores five words and the reason vocabulary is interned once in
//! [`REASON_LABELS`]. Downstream, the stream crate serializes a
//! snapshot as a self-describing `.ptw` v2 file whose message catalog
//! mirrors [`EventKind`] — the recorder's dump is decoded, rendered,
//! localized, and mined by exactly the machinery it observes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock::{Clock, WallClock};

/// Default per-lane ring capacity (events). At five words per slot a
/// lane costs 160 KiB; a fleet soak's lifecycle traffic fits with room
/// to spare, and overflow only costs the oldest events.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// The typed lifecycle vocabulary: everything the daemon can say about
/// itself. Codes are stable wire values (the dump's message catalog and
/// [`EventKind::from_code`] both rely on them); append only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A session opened (hello accepted). The event's value column
    /// carries the trace-context id.
    Open = 0,
    /// The `.ptw` schema handshake validated.
    Handshake = 1,
    /// The client declared the stream finished (FINISH chunk).
    Finish = 2,
    /// The session closed and reported.
    Close = 3,
    /// A resumable session parked after transport death.
    Park = 4,
    /// A parked session resumed from its token.
    Resume = 5,
    /// Admission shed the connection (reason = shed path).
    Shed = 6,
    /// A resume was routed to its token's owning shard rather than to
    /// the shard of its connection id (journaled by the owner; the name
    /// predates routing at the reader).
    Handoff = 7,
    /// The decoder rejected a frame (reason = damage reason).
    Damage = 8,
    /// The online localizer re-anchored after damage.
    Resync = 9,
    /// A tenant hit its quota.
    QuotaTrip = 10,
    /// A shard worker panicked and was respawned.
    Respawn = 11,
    /// A shard entered drain during shutdown.
    Drain = 12,
    /// The daemon shut down gracefully.
    Shutdown = 13,
    /// The chaos harness injected a fault (reason = fault kind).
    Fault = 14,
    /// A degradation-ladder path fired (reason = ladder path). Emitted
    /// exactly once per `pstrace_degradation_events_total` increment,
    /// so dumps and counters cross-check.
    Degradation = 15,
    /// The daemon replayed its WAL at startup (reason = what the
    /// recovery restored, replayed or skipped) — lane-0 events marking
    /// a crash/restart boundary in the journal.
    Recover = 16,
}

impl EventKind {
    /// Every kind, in wire-code order.
    pub const ALL: [EventKind; 17] = [
        EventKind::Open,
        EventKind::Handshake,
        EventKind::Finish,
        EventKind::Close,
        EventKind::Park,
        EventKind::Resume,
        EventKind::Shed,
        EventKind::Handoff,
        EventKind::Damage,
        EventKind::Resync,
        EventKind::QuotaTrip,
        EventKind::Respawn,
        EventKind::Drain,
        EventKind::Shutdown,
        EventKind::Fault,
        EventKind::Degradation,
        EventKind::Recover,
    ];

    /// The kind's kebab-case label (also the timeline's event name).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Open => "open",
            EventKind::Handshake => "handshake",
            EventKind::Finish => "finish",
            EventKind::Close => "close",
            EventKind::Park => "park",
            EventKind::Resume => "resume",
            EventKind::Shed => "shed",
            EventKind::Handoff => "handoff",
            EventKind::Damage => "damage",
            EventKind::Resync => "resync",
            EventKind::QuotaTrip => "quota-trip",
            EventKind::Respawn => "respawn",
            EventKind::Drain => "drain",
            EventKind::Shutdown => "shutdown",
            EventKind::Fault => "fault",
            EventKind::Degradation => "degradation",
            EventKind::Recover => "recover",
        }
    }

    /// The kind for a stable wire code.
    #[must_use]
    pub fn from_code(code: u8) -> Option<EventKind> {
        EventKind::ALL.get(code as usize).copied()
    }
}

/// The interned reason vocabulary: degradation-ladder paths, wire
/// damage reasons, and injected-fault kinds. Index = wire code; code 0
/// means "no reason". Append only — codes are stored in dumps.
pub const REASON_LABELS: &[&str] = &[
    "",
    // Degradation-ladder paths (server/shard `degrade`).
    "accept-retry",
    "worker-respawn",
    "budget-close",
    "handshake-deadline",
    "session-parked",
    "tenant-quota-shed",
    "capacity-shed",
    "resume-expired",
    "localizer-resync",
    // Wire damage reasons (`DamageReason::label`).
    "bad-tag",
    "dirty-idle",
    "lane-spill",
    "padding-spill",
    "time-regression",
    "time-spike",
    "sync-corrupt",
    "sync-lost",
    // Injected fault kinds (`FaultKind::label`).
    "bit-flip",
    "truncate",
    "duplicate-frame",
    "reorder-frames",
    "drop-chunk",
    "split-chunk",
    "delay-chunk",
    "disconnect",
    "slow-loris",
    "damage-storm",
    // Durability / crash-recovery paths (WAL + Server::recover).
    "sessions-restored",
    "entries-replayed",
    "entries-skipped",
    "resume-epoch-shed",
    "wal-append-degraded",
    "wal-rotate",
    "wal-checkpoint-degraded",
    "wal-session-skipped",
    // A session's damage past the frames its flight events name.
    "damage-elided",
];

/// The wire code for a reason label (0 — "no reason" — when unknown,
/// so an unrecognized label degrades to an unlabeled event instead of
/// corrupting the journal).
#[must_use]
pub fn reason_code(label: &str) -> u16 {
    REASON_LABELS
        .iter()
        .position(|&l| l == label)
        .map_or(0, |i| i as u16)
}

/// The label for a reason wire code (out-of-range codes render empty).
#[must_use]
pub fn reason_label(code: u16) -> &'static str {
    REASON_LABELS.get(code as usize).copied().unwrap_or("")
}

/// One journal entry: five words, fixed size, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic nanoseconds from the recorder's clock origin.
    pub ts_ns: u64,
    /// The trace-context id following this session across reconnects
    /// and shards (0 = daemon scope, no session attached).
    pub trace: u64,
    /// The daemon-local session id (or resume token for events that
    /// only know the token).
    pub session: u64,
    /// What happened.
    pub kind: EventKind,
    /// Interned reason code (see [`reason_label`]); 0 = none.
    pub reason: u16,
}

/// One lane's slots. Each slot is a miniature seqlock: `seq` holds
/// `2n+1` while write `n` is in flight and `2n+2` once it is published,
/// so a reader that sees a stable, even, generation-matching stamp on
/// both sides of its field loads has a consistent event. All state is
/// plain atomics — no locks, no unsafe.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    trace: AtomicU64,
    session: AtomicU64,
    /// kind (low 8 bits) | reason << 8.
    kr: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            session: AtomicU64::new(0),
            kr: AtomicU64::new(0),
        }
    }
}

/// A fixed-capacity, multi-writer, lock-free event ring.
///
/// Writers claim slots with one `fetch_add` and never wait; when the
/// ring wraps, the oldest events are overwritten (counted, never
/// silent). [`snapshot`](FlightRing::snapshot) is safe to call from any
/// thread at any time and skips events that are mid-write.
#[derive(Debug)]
pub struct FlightRing {
    cursor: AtomicU64,
    slots: Vec<Slot>,
}

impl FlightRing {
    /// A ring holding the newest `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRing {
            cursor: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::new()).collect(),
        }
    }

    /// Slots in the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events ever written (including overwritten ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Events lost to ring wrap-around.
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        let n = self.recorded();
        n.saturating_sub(self.slots.len() as u64)
    }

    /// Appends one event. Lock-free: one `fetch_add` plus five relaxed
    /// stores bracketed by the slot's generation stamp.
    pub fn push(&self, ev: FlightEvent) {
        let n = self.cursor.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        slot.seq.store(2 * n + 1, Ordering::Release);
        slot.ts.store(ev.ts_ns, Ordering::Relaxed);
        slot.trace.store(ev.trace, Ordering::Relaxed);
        slot.session.store(ev.session, Ordering::Relaxed);
        slot.kr.store(
            u64::from(ev.kind as u8) | (u64::from(ev.reason) << 8),
            Ordering::Relaxed,
        );
        slot.seq.store(2 * n + 2, Ordering::Release);
    }

    /// The newest complete events, oldest first. Mid-write slots (a
    /// writer raced the snapshot) are skipped rather than torn.
    #[must_use]
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let end = self.cursor.load(Ordering::Acquire);
        let len = self.slots.len() as u64;
        let start = end.saturating_sub(len);
        let mut out = Vec::with_capacity((end - start) as usize);
        for n in start..end {
            let slot = &self.slots[(n % len) as usize];
            let want = 2 * n + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            let ts = slot.ts.load(Ordering::Acquire);
            let trace = slot.trace.load(Ordering::Acquire);
            let session = slot.session.load(Ordering::Acquire);
            let kr = slot.kr.load(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != want {
                continue; // overwritten while reading
            }
            let Some(kind) = EventKind::from_code((kr & 0xff) as u8) else {
                continue;
            };
            out.push(FlightEvent {
                ts_ns: ts,
                trace,
                session,
                kind,
                reason: (kr >> 8) as u16,
            });
        }
        out
    }
}

/// A consistent read of the whole recorder.
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// All complete events across every lane, sorted by timestamp.
    pub events: Vec<FlightEvent>,
    /// Events ever recorded (including overwritten ones).
    pub recorded: u64,
    /// Events lost to ring wrap-around.
    pub overwritten: u64,
}

impl FlightSnapshot {
    /// Degradation events grouped by reason label — the dump-side mirror
    /// of `pstrace_degradation_events_total{path}`, so a soak can assert
    /// the journal and the counters tell the same story.
    #[must_use]
    pub fn degradation_counts(&self) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        for ev in &self.events {
            if ev.kind == EventKind::Degradation {
                *counts
                    .entry(reason_label(ev.reason).to_owned())
                    .or_insert(0) += 1;
            }
        }
        counts
    }
}

/// The always-on flight recorder: one [`FlightRing`] per lane (lane 0
/// is daemon scope — accept loop, shutdown; lanes `1..=shards` belong
/// to shard workers), stamped by one injectable [`Clock`] so every
/// lane shares a timeline and tests get deterministic timestamps.
#[derive(Debug)]
pub struct FlightRecorder {
    rings: Vec<FlightRing>,
    clock: Box<dyn Clock>,
}

impl FlightRecorder {
    /// A recorder with `lanes` rings of `capacity` events each, on the
    /// production wall clock.
    #[must_use]
    pub fn new(lanes: usize, capacity: usize) -> Self {
        FlightRecorder::with_clock(lanes, capacity, Box::new(WallClock::new()))
    }

    /// [`new`](FlightRecorder::new) with an explicit clock (tests use
    /// [`ManualClock`](crate::ManualClock) for golden timelines).
    #[must_use]
    pub fn with_clock(lanes: usize, capacity: usize, clock: Box<dyn Clock>) -> Self {
        FlightRecorder {
            rings: (0..lanes.max(1))
                .map(|_| FlightRing::new(capacity))
                .collect(),
            clock,
        }
    }

    /// Rings in the recorder.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.rings.len()
    }

    /// The recorder clock's current reading.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Appends one event to `lane` (clamped into range), stamped now.
    pub fn record(&self, lane: usize, trace: u64, session: u64, kind: EventKind, reason: &str) {
        self.record_coded(lane, trace, session, kind, reason_code(reason));
    }

    /// [`record`](FlightRecorder::record) with a pre-interned reason.
    pub fn record_coded(
        &self,
        lane: usize,
        trace: u64,
        session: u64,
        kind: EventKind,
        reason: u16,
    ) {
        let ring = &self.rings[lane.min(self.rings.len() - 1)];
        ring.push(FlightEvent {
            ts_ns: self.clock.now_ns(),
            trace,
            session,
            kind,
            reason,
        });
    }

    /// All lanes merged into one timestamp-ordered snapshot.
    #[must_use]
    pub fn snapshot(&self) -> FlightSnapshot {
        let mut events = Vec::new();
        let mut recorded = 0;
        let mut overwritten = 0;
        for ring in &self.rings {
            events.extend(ring.snapshot());
            recorded += ring.recorded();
            overwritten += ring.overwritten();
        }
        events.sort_by_key(|e| e.ts_ns);
        FlightSnapshot {
            events,
            recorded,
            overwritten,
        }
    }
}

/// One session's bound recording context: recorder + lane + identity,
/// so deep call sites (the stream session's damage/resync seams) emit
/// events without threading four arguments through every layer.
#[derive(Debug, Clone)]
pub struct FlightHandle {
    recorder: std::sync::Arc<FlightRecorder>,
    lane: usize,
    trace: u64,
    session: u64,
}

impl FlightHandle {
    /// Binds `recorder`'s `lane` to one session identity.
    #[must_use]
    pub fn new(
        recorder: std::sync::Arc<FlightRecorder>,
        lane: usize,
        trace: u64,
        session: u64,
    ) -> Self {
        FlightHandle {
            recorder,
            lane,
            trace,
            session,
        }
    }

    /// The bound trace-context id.
    #[must_use]
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Emits one event under the bound identity.
    pub fn note(&self, kind: EventKind, reason: &str) {
        self.recorder
            .record(self.lane, self.trace, self.session, kind, reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;
    use std::sync::Arc;

    #[test]
    fn kinds_round_trip_their_codes() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(EventKind::from_code(i as u8), Some(*kind));
            assert!(!kind.label().is_empty());
        }
        assert_eq!(EventKind::from_code(EventKind::ALL.len() as u8), None);
    }

    #[test]
    fn reason_codes_round_trip_and_unknowns_degrade_to_zero() {
        for (i, label) in REASON_LABELS.iter().enumerate() {
            assert_eq!(reason_code(label), i as u16);
            assert_eq!(reason_label(i as u16), *label);
        }
        assert_eq!(reason_code("not-a-reason"), 0);
        assert_eq!(reason_label(u16::MAX), "");
    }

    #[test]
    fn ring_keeps_the_newest_events_and_counts_overwrites() {
        let ring = FlightRing::new(4);
        for i in 0..10u64 {
            ring.push(FlightEvent {
                ts_ns: i,
                trace: i,
                session: i,
                kind: EventKind::Open,
                reason: 0,
            });
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.overwritten(), 6);
        let events = ring.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn recorder_merges_lanes_in_timestamp_order() {
        let rec = FlightRecorder::with_clock(3, 16, Box::new(ManualClock::with_tick(10)));
        rec.record(2, 7, 1, EventKind::Open, "");
        rec.record(1, 7, 1, EventKind::Damage, "time-spike");
        rec.record(0, 0, 0, EventKind::Shutdown, "");
        let snap = rec.snapshot();
        assert_eq!(snap.recorded, 3);
        assert_eq!(snap.overwritten, 0);
        let kinds: Vec<EventKind> = snap.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Open, EventKind::Damage, EventKind::Shutdown]
        );
        assert_eq!(snap.events[1].reason, reason_code("time-spike"));
        assert_eq!(reason_label(snap.events[1].reason), "time-spike");
    }

    #[test]
    fn degradation_counts_mirror_the_journal() {
        let rec = FlightRecorder::with_clock(1, 16, Box::new(ManualClock::new()));
        rec.record(0, 1, 1, EventKind::Degradation, "budget-close");
        rec.record(0, 2, 2, EventKind::Degradation, "budget-close");
        rec.record(0, 3, 3, EventKind::Degradation, "localizer-resync");
        rec.record(0, 3, 3, EventKind::Resync, "localizer-resync");
        let counts = rec.snapshot().degradation_counts();
        assert_eq!(counts.get("budget-close"), Some(&2));
        assert_eq!(counts.get("localizer-resync"), Some(&1));
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn concurrent_writers_never_tear_a_snapshot() {
        let rec = Arc::new(FlightRecorder::new(2, 64));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        rec.record_coded(
                            (t % 2) as usize,
                            t,
                            i,
                            EventKind::ALL[(i as usize) % EventKind::ALL.len()],
                            (i % REASON_LABELS.len() as u64) as u16,
                        );
                    }
                });
            }
            for _ in 0..50 {
                let snap = rec.snapshot();
                for ev in &snap.events {
                    // A torn event would pair a kind with a reason from a
                    // different write; kr is one atomic so the pair holds.
                    assert!((ev.reason as usize) < REASON_LABELS.len());
                }
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.recorded, 2000);
        assert_eq!(snap.events.len() + snap.overwritten as usize, 2000);
    }

    #[test]
    fn handle_binds_identity_once() {
        let rec = Arc::new(FlightRecorder::with_clock(
            2,
            16,
            Box::new(ManualClock::new()),
        ));
        let handle = FlightHandle::new(Arc::clone(&rec), 1, 0xabc, 42);
        assert_eq!(handle.trace(), 0xabc);
        handle.note(EventKind::Damage, "sync-lost");
        handle.note(EventKind::Resync, "localizer-resync");
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert!(snap
            .events
            .iter()
            .all(|e| e.trace == 0xabc && e.session == 42));
    }
}
