//! Shard workers: the event-loop core of the fleet-scale daemon.
//!
//! The accept thread pins every connection to one of N shards by
//! connection id; each shard is a single thread owning its connection
//! table, its parked-session lot and its own
//! [`Registry`](pstrace_obs::Registry), so the ingest hot path touches
//! no cross-thread locks at all — the only shared state is the tenant
//! governor (one short lock per session *open*, never per chunk) and the
//! mpsc channels that deliver new sockets.
//!
//! Each tick a shard drains its inbox, speculatively reads every
//! connection (see [`poll`](crate::poll)), advances the per-connection
//! state machine over whatever bytes buffered (request → streaming →
//! closing), flushes outboxes, applies deadlines, and purges expired
//! parked sessions. A panic inside one connection's advance is caught
//! and costs exactly that connection (`worker-respawn`), exactly as the
//! old worker pool promised.
//!
//! Resume tokens encode their owning shard (`token % shard_count`), so a
//! reconnect landing on the wrong shard is handed off — socket plus
//! unconsumed bytes — to the owner over its inbox channel
//! (`pstrace_stream_handoffs_total`), and session pinning survives any
//! accept-order the reconnect storm produces.

use std::collections::HashMap;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pstrace_codec::flight::write_flight_dump;
use pstrace_codec::DEFAULT_SYNC_EVERY;
use pstrace_diag::{MatchMode, OnlineLocalizer};
use pstrace_obs::{
    merged_samples, render_prometheus_samples, EventKind, FlightHandle, FlightRecorder, Registry,
};
use pstrace_soc::SocModel;

use crate::error::StreamError;
use crate::poll::{read_once, write_once, Backoff, Progress, Readiness};
use crate::programs::ProgramCache;
use crate::proto::{self, Chunk, Request};
use crate::recover::RecoveredSession;
use crate::server::{degrade, open_session, SessionLimits};
use crate::session::Session;
use crate::wal::{CheckpointSession, DurabilityPolicy, WalRecord, WalWriter};

/// How many bytes one connection may pull per tick before the loop moves
/// on — fairness under a firehose client.
const READ_BUDGET: usize = 256 * 1024;

/// What the accept thread (or a sibling shard) delivers to a shard.
#[derive(Debug)]
pub(crate) enum ShardMsg {
    /// A freshly accepted socket, still unread.
    Conn(TcpStream),
    /// A mid-request handoff from a sibling: the socket plus every byte
    /// read but not yet consumed (the resume request included) — the
    /// receiver re-parses from the top.
    Handoff(TcpStream, Vec<u8>),
}

/// Everything shared between the accept thread and every shard.
#[derive(Debug)]
pub(crate) struct FleetCtx {
    pub model: Arc<SocModel>,
    /// Compiled localizer programs, shared by every shard's sessions.
    pub programs: ProgramCache,
    /// The caller's root registry first, then one registry per shard.
    pub registries: Vec<Arc<Registry>>,
    /// Shard inboxes, indexed by shard — the handoff fabric.
    pub senders: Vec<Sender<ShardMsg>>,
    /// Global session-id sequence (ids start at 1, shard-agnostic).
    pub session_seq: AtomicU64,
    /// Set to stop accepting and drain the shards.
    pub shutdown: AtomicBool,
    /// Set (alongside `shutdown`) when a client's SHUTDOWN verb — rather
    /// than the owning process — asked for the drain.
    pub shutdown_requested: AtomicBool,
    pub governor: TenantGovernor,
    pub read_timeout: Duration,
    pub handshake_timeout: Duration,
    pub resume_grace: Duration,
    /// How long a draining shard waits for in-flight sessions.
    pub drain_timeout: Duration,
    pub limits: SessionLimits,
    /// The always-on flight recorder: lane 0 is daemon scope, lanes
    /// `1..=shards` belong to shard workers.
    pub flight: Arc<FlightRecorder>,
    /// Where degradation-triggered and shutdown spills land (`None` =
    /// snapshot-on-request only).
    pub flight_dump: Option<PathBuf>,
    /// Recorder-clock time of the last automatic spill (debounce).
    pub flight_spill: AtomicU64,
    /// The recovery epoch: acked with every resume token, checked on
    /// every resume-by-token (a mismatch is shed, `resume-epoch-shed`).
    pub epoch: u64,
    /// WAL fsync policy (`Off` = no durability layer at all).
    pub durability: DurabilityPolicy,
    /// Where the per-shard WALs live (`None` when durability is off).
    pub wal_dir: Option<PathBuf>,
    /// Per-shard WAL disk budget before rotation (bytes).
    pub wal_budget: u64,
    /// Sessions the startup replay rebuilt, one slot per shard — each
    /// shard takes (and re-parks) its slot before its first tick.
    pub recovered: Vec<Mutex<Vec<RecoveredSession>>>,
    /// Highest resume token a previous life minted; token sequences
    /// restart above it so recovered tokens are never re-issued.
    pub recovered_max_token: u64,
}

/// Minimum recorder-clock time between automatic dump spills, so a
/// degradation storm costs one file write per window, not per event.
const FLIGHT_SPILL_DEBOUNCE_NS: u64 = 200_000_000;

impl FleetCtx {
    /// The merged Prometheus exposition across the root and every shard
    /// registry — what the METRICS verb and the scrape endpoint serve.
    pub(crate) fn exposition(&self) -> String {
        render_prometheus_samples(&merged_samples(&self.registries))
    }

    /// Journals one degradation-ladder activation (exactly one event per
    /// `pstrace_degradation_events_total` increment) and, when a dump
    /// path is configured, spills the journal under debounce — the
    /// ladder firing is exactly when a post-mortem wants the evidence on
    /// disk.
    pub(crate) fn degrade_flight(&self, lane: usize, trace: u64, session: u64, path: &str) {
        self.flight
            .record(lane, trace, session, EventKind::Degradation, path);
        self.maybe_autospill();
    }

    /// The recorder's current journal as a self-describing `.ptw` v2
    /// dump.
    pub(crate) fn flight_dump_bytes(&self) -> Result<Vec<u8>, pstrace_wire::WireError> {
        write_flight_dump(&self.flight.snapshot().events, DEFAULT_SYNC_EVERY)
    }

    /// Best-effort spill of the journal to the configured dump path.
    pub(crate) fn spill_flight(&self) {
        if let Some(path) = &self.flight_dump {
            if let Ok(bytes) = self.flight_dump_bytes() {
                let _ = std::fs::write(path, bytes);
            }
        }
    }

    fn maybe_autospill(&self) {
        if self.flight_dump.is_none() {
            return;
        }
        let now = self.flight.now_ns();
        let last = self.flight_spill.load(Ordering::Relaxed);
        if now.saturating_sub(last) < FLIGHT_SPILL_DEBOUNCE_NS {
            return;
        }
        if self
            .flight_spill
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.spill_flight();
        }
    }
}

/// Admission control for session opens: a global concurrent-session cap
/// plus a per-tenant cap, both optional. Holds one short lock per open
/// — never on the chunk path.
#[derive(Debug)]
pub(crate) struct TenantGovernor {
    max_sessions: Option<u64>,
    tenant_quota: Option<u64>,
    inner: Arc<GovernorInner>,
}

#[derive(Debug)]
struct GovernorInner {
    root: Arc<Registry>,
    state: Mutex<GovernorState>,
}

#[derive(Debug, Default)]
struct GovernorState {
    total: u64,
    per_tenant: HashMap<u32, u64>,
}

/// Why the governor refused a session.
pub(crate) struct Shed {
    /// The degradation-path / shed-reason label.
    pub reason: &'static str,
    /// The polite rejection the client gets.
    pub message: String,
}

/// An admitted session's seat. Dropping it releases the global and
/// tenant counts — it rides along when a session parks, so a parked
/// session still occupies its tenant's quota until it resumes or
/// expires.
#[derive(Debug)]
pub(crate) struct Ticket {
    inner: Arc<GovernorInner>,
    tenant: u32,
}

impl TenantGovernor {
    pub(crate) fn new(
        max_sessions: Option<u64>,
        tenant_quota: Option<u64>,
        root: Arc<Registry>,
    ) -> TenantGovernor {
        TenantGovernor {
            max_sessions,
            tenant_quota,
            inner: Arc::new(GovernorInner {
                root,
                state: Mutex::new(GovernorState::default()),
            }),
        }
    }

    /// Admits one session for `tenant`, or says why not.
    pub(crate) fn admit(&self, tenant: u32) -> Result<Ticket, Shed> {
        let mut state = self.inner.state.lock().expect("governor lock poisoned");
        if let Some(cap) = self.max_sessions {
            if state.total >= cap {
                return Err(Shed {
                    reason: "capacity-shed",
                    message: format!("daemon at capacity ({cap} concurrent sessions); retry later"),
                });
            }
        }
        if let Some(cap) = self.tenant_quota {
            if state.per_tenant.get(&tenant).copied().unwrap_or(0) >= cap {
                return Err(Shed {
                    reason: "tenant-quota-shed",
                    message: format!(
                        "tenant {tenant} is over its quota of {cap} concurrent sessions"
                    ),
                });
            }
        }
        state.total += 1;
        *state.per_tenant.entry(tenant).or_insert(0) += 1;
        drop(state);
        self.inner
            .root
            .gauge_with(
                "pstrace_tenant_active_sessions",
                &[("tenant", &tenant.to_string())],
            )
            .add(1);
        Ok(Ticket {
            inner: Arc::clone(&self.inner),
            tenant,
        })
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().expect("governor lock poisoned");
        state.total = state.total.saturating_sub(1);
        if let Some(n) = state.per_tenant.get_mut(&self.tenant) {
            *n -= 1;
            if *n == 0 {
                state.per_tenant.remove(&self.tenant);
            }
        }
        drop(state);
        self.inner
            .root
            .gauge_with(
                "pstrace_tenant_active_sessions",
                &[("tenant", &self.tenant.to_string())],
            )
            .sub(1);
    }
}

/// A streaming session attached to a live connection.
#[derive(Debug)]
struct Active {
    session: Session,
    scenario: u8,
    mode: MatchMode,
    tenant: u32,
    schema: Vec<u8>,
    /// `Some` for resumable sessions: the token that parks/picks it up.
    token: Option<u64>,
    ticket: Option<Ticket>,
    /// The trace-context id following this session across reconnects
    /// and shards (client-minted, or server-assigned when the hello
    /// carried 0).
    trace: u64,
    /// The daemon-local session id the journal names it by.
    session_id: u64,
}

/// The per-connection state machine.
#[derive(Debug)]
enum Phase {
    /// Accumulating the request preamble.
    Request,
    /// Pumping chunks into a session.
    Streaming(Box<Active>),
    /// Reply queued; flush the outbox, then close.
    Closing,
}

/// One connection owned by a shard.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbox: Vec<u8>,
    sent: usize,
    phase: Phase,
    opened: Instant,
    last_progress: Instant,
    peer_gone: bool,
}

impl Conn {
    fn new(stream: TcpStream, inbuf: Vec<u8>) -> Conn {
        let now = Instant::now();
        stream.set_nonblocking(true).ok();
        stream.set_nodelay(true).ok();
        Conn {
            stream,
            inbuf,
            outbox: Vec::new(),
            sent: 0,
            phase: Phase::Request,
            opened: now,
            last_progress: now,
            peer_gone: false,
        }
    }

    /// Queues a reply for the flush pass.
    fn reply(&mut self, ok: bool, text: &str) {
        let _ = proto::write_reply(&mut self.outbox, ok, text);
    }
}

/// A resumable session waiting out its grace period, shard-local.
#[derive(Debug)]
struct ParkedSession {
    session: Session,
    scenario: u8,
    mode: MatchMode,
    tenant: u32,
    schema: Vec<u8>,
    ticket: Option<Ticket>,
    deadline: Instant,
    trace: u64,
    session_id: u64,
}

/// What `advance` decided about a connection.
enum Verdict {
    Keep,
    Close,
    /// Hand the socket (plus unconsumed bytes) to the owning shard.
    Handoff(usize),
}

/// One shard's private state.
struct Shard {
    ctx: Arc<FleetCtx>,
    index: usize,
    registry: Arc<Registry>,
    parked: HashMap<u64, ParkedSession>,
    /// Per-shard resume-token sequence; tokens are
    /// `seq * shard_count + index`, never 0, owner-recoverable.
    resume_seq: u64,
    /// This shard's write-ahead log (`None` when durability is off or
    /// the WAL could not be opened — the shard degrades, never dies).
    wal: Option<WalWriter>,
}

impl Shard {
    fn shard_count(&self) -> usize {
        self.ctx.senders.len()
    }

    /// This shard's flight-recorder lane (lane 0 is daemon scope).
    fn lane(&self) -> usize {
        self.index + 1
    }

    /// Journals one lifecycle event on this shard's lane.
    fn note(&self, trace: u64, session: u64, kind: EventKind, reason: &str) {
        self.ctx
            .flight
            .record(self.lane(), trace, session, kind, reason);
    }

    /// Bumps the degradation ladder *and* journals it: the counter and
    /// the flight event move in lockstep, one for one.
    fn note_degrade(&self, path: &str, trace: u64, session: u64) {
        degrade(&self.registry, path);
        self.ctx.degrade_flight(self.lane(), trace, session, path);
    }

    fn next_token(&mut self) -> u64 {
        let token = self.resume_seq * self.shard_count() as u64 + self.index as u64;
        self.resume_seq += 1;
        token
    }

    /// Which shard owns `token`.
    fn owner_of(&self, token: u64) -> usize {
        (token % self.shard_count() as u64) as usize
    }

    fn next_session_id(&self) -> u64 {
        self.ctx.session_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends one lifecycle entry to this shard's WAL. A failing append
    /// is a degradation (`wal-append-degraded`), never a session error:
    /// the session continues, it just loses crash durability.
    fn wal_append(&mut self, record: &WalRecord) {
        let failed = match self.wal.as_mut() {
            Some(wal) => wal.append(record).is_err(),
            None => false,
        };
        if failed {
            self.note_degrade("wal-append-degraded", 0, 0);
        }
    }

    /// Journals a resumable session's open group (Open + schema chunks).
    /// Under strict durability the group is fsynced before this returns,
    /// so the token the caller is about to ack is already on disk.
    fn wal_append_open(&mut self, active: &Active) {
        let Some(token) = active.token else { return };
        let failed = match self.wal.as_mut() {
            Some(wal) => wal
                .append_open(
                    token,
                    active.session_id,
                    active.trace,
                    active.scenario,
                    proto::mode_to_byte(active.mode),
                    active.tenant,
                    &active.schema,
                )
                .is_err(),
            None => false,
        };
        if failed {
            self.note_degrade("wal-append-degraded", active.trace, active.session_id);
        }
    }

    /// Re-parks the sessions crash recovery rebuilt for this shard: each
    /// one re-admits through the governor, re-opens its session state
    /// machine from the journaled hello, and waits out a fresh grace
    /// period under its pre-crash token.
    fn repark_recovered(&mut self, sessions: Vec<RecoveredSession>) {
        for r in sessions {
            let Ok(mode) = proto::mode_from_byte(r.mode) else {
                self.note_degrade("wal-session-skipped", r.trace, r.session_id);
                continue;
            };
            let ticket = match self.ctx.governor.admit(r.tenant) {
                Ok(t) => t,
                Err(_) => {
                    // The restarted daemon is smaller (or busier) than
                    // the dead one: shed rather than oversubscribe.
                    self.note_degrade("wal-session-skipped", r.trace, r.session_id);
                    continue;
                }
            };
            let hello = proto::Hello {
                scenario: r.scenario,
                mode,
                tenant: r.tenant,
                trace: r.trace,
                schema: r.schema,
            };
            let mut session = match open_session(&self.ctx, &hello, &self.registry, r.session_id) {
                Ok(s) => s,
                Err(_) => {
                    self.note_degrade("wal-session-skipped", r.trace, r.session_id);
                    continue;
                }
            };
            session.set_flight(FlightHandle::new(
                Arc::clone(&self.ctx.flight),
                self.lane(),
                r.trace,
                r.session_id,
            ));
            self.registry
                .counter("pstrace_stream_recovered_total")
                .inc();
            self.note(
                r.trace,
                r.session_id,
                EventKind::Recover,
                "sessions-restored",
            );
            self.parked.insert(
                r.token,
                ParkedSession {
                    session,
                    scenario: hello.scenario,
                    mode,
                    tenant: hello.tenant,
                    schema: hello.schema,
                    ticket: Some(ticket),
                    deadline: Instant::now() + self.ctx.resume_grace,
                    trace: r.trace,
                    session_id: r.session_id,
                },
            );
        }
    }

    /// Checkpoint-and-truncate rotation once the WAL crosses its disk
    /// budget: every live resumable session (parked or mid-stream) is
    /// compacted into the checkpoint, then the journal restarts empty.
    fn maybe_rotate(&mut self, conns: &mut [Conn]) {
        if !self.wal.as_ref().is_some_and(WalWriter::needs_rotation) {
            return;
        }
        let mut live: Vec<CheckpointSession> = self
            .parked
            .iter()
            .map(|(&token, p)| CheckpointSession {
                token,
                session_id: p.session_id,
                trace: p.trace,
                scenario: p.scenario,
                mode: proto::mode_to_byte(p.mode),
                tenant: p.tenant,
                schema: p.schema.clone(),
                bytes: p.session.metrics().bytes,
            })
            .collect();
        for conn in conns {
            if let Phase::Streaming(active) = &conn.phase {
                if let Some(token) = active.token {
                    live.push(CheckpointSession {
                        token,
                        session_id: active.session_id,
                        trace: active.trace,
                        scenario: active.scenario,
                        mode: proto::mode_to_byte(active.mode),
                        tenant: active.tenant,
                        schema: active.schema.clone(),
                        bytes: active.session.metrics().bytes,
                    });
                }
            }
        }
        // Rotation is the disk-pressure rung of the ladder: count it.
        self.note_degrade("wal-rotate", 0, 0);
        let failed = match self.wal.as_mut() {
            Some(wal) => wal.rotate(&live).is_err(),
            None => false,
        };
        if failed {
            // The checkpoint (or truncate) failed; the old WAL still
            // recovers everything, so degrade and carry on.
            self.note_degrade("wal-checkpoint-degraded", 0, 0);
        }
    }

    /// Reads whatever the socket has buffered (bounded per tick).
    fn pull(&self, conn: &mut Conn) -> bool {
        let mut moved = false;
        let mut buf = [0u8; 16 * 1024];
        let mut budget = READ_BUDGET;
        while budget > 0 && !conn.peer_gone {
            match read_once(&mut conn.stream, &mut buf) {
                Ok(Readiness::Data(n)) => {
                    conn.inbuf.extend_from_slice(&buf[..n]);
                    budget = budget.saturating_sub(n);
                    conn.last_progress = Instant::now();
                    moved = true;
                }
                Ok(Readiness::WouldBlock) => break,
                Ok(Readiness::Eof) | Err(_) => conn.peer_gone = true,
            }
        }
        moved
    }

    /// Flushes the outbox (bounded by the socket buffer).
    fn push(&self, conn: &mut Conn) -> bool {
        let mut moved = false;
        while conn.sent < conn.outbox.len() {
            match write_once(&mut conn.stream, &conn.outbox[conn.sent..]) {
                Ok(Progress::Wrote(n)) => {
                    conn.sent += n;
                    conn.last_progress = Instant::now();
                    moved = true;
                }
                Ok(Progress::WouldBlock) => break,
                Err(_) => {
                    conn.peer_gone = true;
                    break;
                }
            }
        }
        if conn.sent == conn.outbox.len() && conn.sent > 0 {
            conn.outbox.clear();
            conn.sent = 0;
        }
        moved
    }

    /// A streaming session's transport died (EOF, error, protocol damage
    /// or idle deadline): park it when resumable, fail it when not.
    fn streaming_death(&mut self, conn: &mut Conn, why: &str) -> Verdict {
        let Phase::Streaming(active) = std::mem::replace(&mut conn.phase, Phase::Closing) else {
            return Verdict::Close;
        };
        self.registry.gauge("pstrace_stream_active_sessions").sub(1);
        // However the session ends here, it is no longer live-streaming:
        // stale frontier gauges would sum wrongly across shards.
        OnlineLocalizer::clear_frontier(&self.registry);
        let active = *active;
        if let Some(token) = active.token {
            self.registry.counter("pstrace_stream_parked_total").inc();
            self.note(
                active.trace,
                active.session_id,
                EventKind::Park,
                "session-parked",
            );
            self.note_degrade("session-parked", active.trace, active.session_id);
            self.wal_append(&WalRecord::Park {
                token,
                bytes: active.session.metrics().bytes,
            });
            self.parked.insert(
                token,
                ParkedSession {
                    session: active.session,
                    scenario: active.scenario,
                    mode: active.mode,
                    tenant: active.tenant,
                    schema: active.schema,
                    ticket: active.ticket,
                    deadline: Instant::now() + self.ctx.resume_grace,
                    trace: active.trace,
                    session_id: active.session_id,
                },
            );
            Verdict::Close
        } else {
            self.registry.counter("pstrace_stream_failed_total").inc();
            self.note(active.trace, active.session_id, EventKind::Close, "");
            if conn.peer_gone {
                Verdict::Close
            } else {
                // The transport still works (protocol damage): tell the
                // client, then close.
                conn.reply(false, why);
                Verdict::Keep
            }
        }
    }

    /// Consumes as many complete protocol items as the inbuf holds,
    /// advancing the phase machine. Returns a verdict plus whether
    /// anything was consumed.
    fn process(&mut self, conn: &mut Conn) -> (Verdict, bool) {
        let mut moved = false;
        loop {
            if matches!(conn.phase, Phase::Closing) {
                // Anything the client pipelined after its request is
                // irrelevant now.
                conn.inbuf.clear();
                return (Verdict::Keep, moved);
            }
            if matches!(conn.phase, Phase::Request) {
                match proto::decode_request(&conn.inbuf) {
                    Ok(Some((request, used))) => {
                        if let Request::Resume { token, hello, .. } = &request {
                            let owner = if *token == 0 {
                                self.index
                            } else {
                                self.owner_of(*token)
                            };
                            if owner != self.index {
                                // Not ours: hand the socket over with the
                                // request bytes still unconsumed.
                                self.registry.counter("pstrace_stream_handoffs_total").inc();
                                self.note(hello.trace, *token, EventKind::Handoff, "");
                                return (Verdict::Handoff(owner), true);
                            }
                        }
                        conn.inbuf.drain(..used);
                        moved = true;
                        if let Verdict::Close = self.handle_request(conn, request) {
                            return (Verdict::Close, moved);
                        }
                    }
                    Ok(None) => {
                        if conn.peer_gone {
                            // The peer hung up (or never spoke PSTS) before
                            // a full request landed.
                            self.note_degrade("handshake-deadline", 0, 0);
                            return (Verdict::Close, moved);
                        }
                        return (Verdict::Keep, moved);
                    }
                    Err(e) => {
                        self.note_degrade("handshake-deadline", 0, 0);
                        conn.reply(false, &e.to_string());
                        conn.phase = Phase::Closing;
                        return (Verdict::Keep, true);
                    }
                }
            } else {
                match proto::decode_chunk(&conn.inbuf) {
                    Ok(Some((chunk, used))) => {
                        conn.inbuf.drain(..used);
                        moved = true;
                        self.handle_chunk(conn, chunk);
                    }
                    Ok(None) => {
                        if conn.peer_gone {
                            let verdict = self.streaming_death(conn, "transport closed mid-stream");
                            return (verdict, moved);
                        }
                        return (Verdict::Keep, moved);
                    }
                    Err(e) => {
                        // Same contract as the blocking pump: any chunk
                        // error is transport death — resumable sessions
                        // park and a reconnect picks them back up.
                        let verdict = self.streaming_death(conn, &e.to_string());
                        return (verdict, true);
                    }
                }
            }
        }
    }

    /// Dispatches one parsed request on a connection in `Request` phase.
    fn handle_request(&mut self, conn: &mut Conn, request: Request) -> Verdict {
        match request {
            Request::Metrics => {
                self.registry
                    .counter("pstrace_stream_metrics_requests_total")
                    .inc();
                let exposition = self.ctx.exposition();
                conn.reply(true, &exposition);
                conn.phase = Phase::Closing;
                Verdict::Keep
            }
            Request::Shutdown => {
                conn.reply(true, "shutting down: draining shards");
                conn.phase = Phase::Closing;
                self.ctx.shutdown_requested.store(true, Ordering::SeqCst);
                if !self.ctx.shutdown.swap(true, Ordering::SeqCst) {
                    self.note(0, 0, EventKind::Shutdown, "");
                }
                Verdict::Keep
            }
            Request::Session(hello) => {
                self.registry.counter("pstrace_stream_sessions_total").inc();
                match self.open_streaming(&hello, None) {
                    Ok(active) => {
                        conn.phase = Phase::Streaming(Box::new(active));
                    }
                    // `open_streaming` already accounted the failure.
                    Err(e) => {
                        conn.reply(false, &e.to_string());
                        conn.phase = Phase::Closing;
                    }
                }
                Verdict::Keep
            }
            Request::Resume {
                token,
                epoch,
                hello,
            } => {
                let opened = if token == 0 {
                    // Fresh resumable session.
                    self.registry.counter("pstrace_stream_sessions_total").inc();
                    let token = self.next_token();
                    self.open_streaming(&hello, Some(token))
                } else if epoch != self.ctx.epoch {
                    // The token was minted under a different WAL lineage
                    // (another daemon, another --wal-dir, or a pre-crash
                    // life whose journal this daemon never saw). Splicing
                    // it into a live table would corrupt someone else's
                    // session; shed it politely instead.
                    self.note(hello.trace, token, EventKind::Shed, "resume-epoch-shed");
                    self.note_degrade("resume-epoch-shed", hello.trace, token);
                    self.registry
                        .counter_with(
                            "pstrace_stream_shed_total",
                            &[("reason", "resume-epoch-shed")],
                        )
                        .inc();
                    Err(StreamError::Protocol(format!(
                        "resume token {token} carries recovery epoch {epoch}, \
                         this daemon's epoch is {}; token rejected",
                        self.ctx.epoch
                    )))
                } else {
                    self.pick_up(token, &hello)
                };
                match opened {
                    Ok(active) => {
                        let token = active.token.expect("resumable sessions carry a token");
                        let offset = active.session.metrics().bytes;
                        let _ = proto::write_resume_ack(
                            &mut conn.outbox,
                            token,
                            offset,
                            self.ctx.epoch,
                        );
                        self.registry.gauge("pstrace_stream_active_sessions").add(1);
                        conn.phase = Phase::Streaming(Box::new(active));
                    }
                    Err(e) => {
                        conn.reply(false, &e.to_string());
                        conn.phase = Phase::Closing;
                    }
                }
                Verdict::Keep
            }
        }
    }

    /// Opens a brand-new session (plain or fresh-resumable): governor
    /// admission, then scenario/schema validation. The plain path also
    /// flips the active gauge here; the resume path does it after acking.
    fn open_streaming(
        &mut self,
        hello: &proto::Hello,
        token: Option<u64>,
    ) -> Result<Active, StreamError> {
        let ticket = match self.ctx.governor.admit(hello.tenant) {
            Ok(t) => t,
            Err(shed) => {
                self.note(hello.trace, 0, EventKind::Shed, shed.reason);
                if shed.reason == "tenant-quota-shed" {
                    self.note(hello.trace, 0, EventKind::QuotaTrip, shed.reason);
                }
                self.note_degrade(shed.reason, hello.trace, 0);
                self.registry
                    .counter_with("pstrace_stream_shed_total", &[("reason", shed.reason)])
                    .inc();
                self.registry.counter("pstrace_stream_failed_total").inc();
                return Err(StreamError::Protocol(shed.message));
            }
        };
        let session_id = self.next_session_id();
        // 0 on the hello means "server assigns": derive a trace id the
        // timeline can still tie to the session, flagged into a range a
        // client-minted id never occupies.
        let trace = if hello.trace == 0 {
            session_id | (1 << 63)
        } else {
            hello.trace
        };
        let mut session = match open_session(&self.ctx, hello, &self.registry, session_id) {
            Ok(s) => s,
            Err(e) => {
                self.registry.counter("pstrace_stream_failed_total").inc();
                return Err(e);
            }
        };
        session.set_flight(FlightHandle::new(
            Arc::clone(&self.ctx.flight),
            self.lane(),
            trace,
            session_id,
        ));
        self.note(trace, session_id, EventKind::Open, "");
        self.note(trace, session_id, EventKind::Handshake, "");
        if token.is_none() {
            self.registry.gauge("pstrace_stream_active_sessions").add(1);
        }
        let active = Active {
            session,
            scenario: hello.scenario,
            mode: hello.mode,
            tenant: hello.tenant,
            schema: hello.schema.clone(),
            token,
            ticket: Some(ticket),
            trace,
            session_id,
        };
        // Journal the open group before the caller can ack the token:
        // under strict durability the fsync happens here, so an acked
        // token is always recoverable.
        self.wal_append_open(&active);
        Ok(active)
    }

    /// Picks a parked session back up by its token.
    fn pick_up(&mut self, token: u64, hello: &proto::Hello) -> Result<Active, StreamError> {
        let Some(parked) = self.parked.remove(&token) else {
            self.note_degrade("resume-expired", hello.trace, token);
            return Err(StreamError::Protocol(format!(
                "unknown or expired resume token {token}"
            )));
        };
        if parked.schema != hello.schema || parked.scenario != hello.scenario {
            // A mismatched resume is a client bug; the parked session
            // goes back to wait for the right one.
            self.parked.insert(token, parked);
            return Err(StreamError::Protocol(
                "resume hello does not match the parked session".to_owned(),
            ));
        }
        self.registry.counter("pstrace_stream_resumed_total").inc();
        self.note(parked.trace, parked.session_id, EventKind::Resume, "");
        self.wal_append(&WalRecord::Resume { token });
        Ok(Active {
            session: parked.session,
            scenario: parked.scenario,
            mode: parked.mode,
            tenant: parked.tenant,
            schema: parked.schema,
            token: Some(token),
            ticket: parked.ticket,
            trace: parked.trace,
            session_id: parked.session_id,
        })
    }

    /// Feeds one chunk into the streaming session.
    fn handle_chunk(&mut self, conn: &mut Conn, chunk: Chunk) {
        let Phase::Streaming(active) = &mut conn.phase else {
            return;
        };
        match chunk {
            Chunk::Data(bytes) => {
                active.session.push_chunk(&bytes);
                if let Some(msg) = self.ctx.limits.exceeded(&active.session.metrics()) {
                    let (trace, session_id) = (active.trace, active.session_id);
                    self.note_degrade("budget-close", trace, session_id);
                    self.note(trace, session_id, EventKind::Close, "budget-close");
                    self.registry.counter("pstrace_stream_failed_total").inc();
                    self.registry.gauge("pstrace_stream_active_sessions").sub(1);
                    OnlineLocalizer::clear_frontier(&self.registry);
                    conn.reply(false, &msg);
                    conn.phase = Phase::Closing;
                }
            }
            Chunk::Finish { bit_len } => {
                let Phase::Streaming(active) = std::mem::replace(&mut conn.phase, Phase::Closing)
                else {
                    return;
                };
                let active = *active;
                if let Some(token) = active.token {
                    // The token is dead: recovery must not resurrect it.
                    self.wal_append(&WalRecord::Complete { token });
                }
                let report = active.session.finish(Some(bit_len));
                let text = format!(
                    "session over scenario {} ({:?} match)\n{}",
                    active.scenario,
                    report.mode,
                    report.render()
                );
                self.note(active.trace, active.session_id, EventKind::Finish, "");
                self.note(active.trace, active.session_id, EventKind::Close, "");
                self.registry
                    .counter("pstrace_stream_completed_total")
                    .inc();
                self.registry.gauge("pstrace_stream_active_sessions").sub(1);
                conn.reply(true, &text);
                // The ticket drops here: the seat frees at completion.
            }
        }
    }

    /// One full step of a connection: read, process, flush, deadlines.
    fn advance(&mut self, conn: &mut Conn) -> (Verdict, bool) {
        let mut moved = self.pull(conn);
        let (verdict, processed) = self.process(conn);
        moved |= processed;
        if !matches!(verdict, Verdict::Keep) {
            // Best-effort flush of whatever reply got queued.
            self.push(conn);
            return (verdict, moved);
        }
        moved |= self.push(conn);

        if conn.peer_gone {
            // A write failed, so no reply can land anymore. (Read-side
            // deaths were already handled in `process`.)
            if matches!(conn.phase, Phase::Streaming(_)) {
                return (self.streaming_death(conn, "transport closed"), moved);
            }
            return (Verdict::Close, moved);
        }
        if matches!(conn.phase, Phase::Closing) && conn.outbox.is_empty() {
            return (Verdict::Close, moved);
        }

        // Deadlines.
        let now = Instant::now();
        if matches!(conn.phase, Phase::Request)
            && now.duration_since(conn.opened) > self.ctx.handshake_timeout
        {
            self.note_degrade("handshake-deadline", 0, 0);
            conn.reply(
                false,
                "handshake deadline: no complete request arrived in time",
            );
            conn.phase = Phase::Closing;
        } else if matches!(conn.phase, Phase::Streaming(_))
            && now.duration_since(conn.last_progress) > self.ctx.read_timeout
        {
            return (
                self.streaming_death(conn, "session idle past deadline"),
                moved,
            );
        } else if matches!(conn.phase, Phase::Closing)
            && now.duration_since(conn.last_progress) > self.ctx.read_timeout
        {
            return (Verdict::Close, moved);
        }
        (verdict, moved)
    }

    /// Tears down a connection that is leaving the table (any path),
    /// keeping the active-session gauge honest.
    fn teardown(&mut self, conn: &mut Conn) {
        if let Phase::Streaming(active) = &conn.phase {
            self.note(
                active.trace,
                active.session_id,
                EventKind::Close,
                "worker-respawn",
            );
            self.registry.gauge("pstrace_stream_active_sessions").sub(1);
            self.registry.counter("pstrace_stream_failed_total").inc();
            OnlineLocalizer::clear_frontier(&self.registry);
            conn.phase = Phase::Closing;
        }
    }
}

/// The shard thread body: tick until shutdown, then drain.
pub(crate) fn run_shard(ctx: Arc<FleetCtx>, index: usize, inbox: &Receiver<ShardMsg>) {
    let registry = Arc::clone(&ctx.registries[index + 1]);
    // Eagerly materialize the gauge so an idle daemon's exposition still
    // shows `pstrace_stream_active_sessions 0`.
    let _ = registry.gauge("pstrace_stream_active_sessions");
    // Open this shard's WAL (after the startup replay read the old one)
    // and seed the token sequence above everything a previous life
    // minted, so recovered tokens are never re-issued.
    let shard_count = ctx.senders.len() as u64;
    let resume_seq = ctx.recovered_max_token / shard_count + 1;
    let wal = match &ctx.wal_dir {
        Some(dir) => WalWriter::open(
            dir,
            index,
            shard_count as usize,
            ctx.epoch,
            ctx.durability,
            ctx.wal_budget,
        )
        .map_err(|_| degrade(&registry, "wal-append-degraded"))
        .ok(),
        None => None,
    };
    let recovered = ctx.recovered[index]
        .lock()
        .map(|mut slot| std::mem::take(&mut *slot))
        .unwrap_or_default();
    let mut shard = Shard {
        ctx,
        index,
        registry,
        parked: HashMap::new(),
        resume_seq,
        wal,
    };
    shard.repark_recovered(recovered);
    let mut conns: Vec<Conn> = Vec::new();
    let mut backoff = Backoff::new();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let mut moved = false;

        // Inbox: new sockets and handoffs.
        loop {
            match inbox.try_recv() {
                Ok(ShardMsg::Conn(stream)) => {
                    conns.push(Conn::new(stream, Vec::new()));
                    moved = true;
                }
                Ok(ShardMsg::Handoff(stream, inbuf)) => {
                    conns.push(Conn::new(stream, inbuf));
                    moved = true;
                }
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }

        // Advance every connection; a panic costs exactly one.
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            let stepped = catch_unwind(AssertUnwindSafe(|| shard.advance(conn)));
            match stepped {
                Ok((Verdict::Keep, m)) => {
                    moved |= m;
                    i += 1;
                }
                Ok((Verdict::Close, m)) => {
                    moved |= m;
                    conns.swap_remove(i);
                }
                Ok((Verdict::Handoff(owner), _)) => {
                    let mut conn = conns.swap_remove(i);
                    let inbuf = std::mem::take(&mut conn.inbuf);
                    if shard.ctx.senders[owner]
                        .send(ShardMsg::Handoff(conn.stream, inbuf))
                        .is_err()
                    {
                        // The owner is gone (shutdown race): nothing to do.
                    }
                    moved = true;
                }
                Err(_) => {
                    shard
                        .registry
                        .counter("pstrace_stream_worker_panics_total")
                        .inc();
                    shard.note(0, 0, EventKind::Respawn, "worker-respawn");
                    shard.note_degrade("worker-respawn", 0, 0);
                    let mut conn = conns.swap_remove(i);
                    shard.teardown(&mut conn);
                    moved = true;
                }
            }
        }

        // Lazy purge of expired parked sessions; each expiry is
        // journaled so recovery cannot resurrect a dead token.
        let now = Instant::now();
        let expired: Vec<u64> = shard
            .parked
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            shard.parked.remove(&token);
            shard.wal_append(&WalRecord::Expire { token });
        }

        // Disk-pressure rotation: checkpoint live sessions, truncate.
        shard.maybe_rotate(&mut conns);

        if shard.ctx.shutdown.load(Ordering::Relaxed) {
            if drain_deadline.is_none() {
                shard.note(0, 0, EventKind::Drain, "");
            }
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + shard.ctx.drain_timeout);
            if conns.is_empty() || Instant::now() >= deadline {
                // Lazy durability flushes once, here, at the drain edge.
                if let Some(wal) = shard.wal.as_mut() {
                    let _ = wal.sync();
                }
                return;
            }
        }

        if moved {
            backoff.note_progress();
        } else {
            backoff.idle_wait();
        }
    }
}
