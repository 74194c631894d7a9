//! Shard workers: the event-loop core of the fleet-scale daemon.
//!
//! The accept thread pins every connection to one of N shards by
//! connection id; each shard is a single thread owning its connection
//! table, its parked-session lot and its own
//! [`Registry`](pstrace_obs::Registry), so the ingest hot path touches
//! no cross-thread locks at all — the only shared state is the tenant
//! governor (one short lock per session *open*, never per chunk) and the
//! mpsc inbox every message reaches the shard through.
//!
//! Resume tokens encode their owning shard (`token % shard_count`), so a
//! reconnect landing on the wrong shard is handed off — connection plus
//! unconsumed bytes — to the owner over its inbox channel
//! (`pstrace_stream_handoffs_total`), and session pinning survives any
//! accept-order the reconnect storm produces.
//!
//! The file has two halves. The **session lifecycle** comes first: a
//! `Live` session (durable record, ingest state machine, governor seat)
//! enters through one way in (`open_live`, shared by fresh opens and
//! crash recovery) and leaves through one way out (`end`, keyed by an
//! `Outcome`: finished, failed or parked), with resume, expiry and WAL
//! rotation in between. Lifecycle functions take requests and chunks and
//! return what to send; none of them sees a socket, so a unit test
//! drives them in process. The **socket shell** follows, from `Phase`
//! down. `run_shard` blocks on its inbox until a message arrives or the
//! earliest timer is due — it never ticks. A message names one
//! connection (bytes its reader read, the peer's end of stream, the
//! reader's last word), and only that connection advances: its bytes are
//! decoded, requests and chunks go to the lifecycle, and a final reply
//! goes back to the connection's reader (see [`reader`](crate::reader)),
//! which writes it off the shard thread. Handshake and idle deadlines,
//! parked-session expiry and the drain deadline share one timer set, and
//! a wake fires only the timers that are due. A wake handles a bounded
//! batch of messages before it fires timers, so a busy inbox cannot hold
//! off deadlines or the drain. A draining shard stays up while it still
//! relays for a connection it handed off. A panic inside one
//! connection's step is caught and costs exactly that connection
//! (`worker-respawn`).

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use pstrace_codec::flight::write_flight_dump;
use pstrace_codec::DEFAULT_SYNC_EVERY;
use pstrace_diag::OnlineLocalizer;
use pstrace_obs::{
    merged_samples, render_prometheus_samples, EventKind, FlightHandle, FlightRecorder, Registry,
};
use pstrace_soc::SocModel;

use crate::error::StreamError;
use crate::programs::ProgramCache;
use crate::proto::{self, Chunk, Hello, Request};
use crate::reader::Link;
use crate::recover::RecoveredState;
use crate::server::{degrade, open_session, wake_acceptor, ServerConfig, SessionLimits};
use crate::session::Session;
use crate::wal::{DurabilityPolicy, SessionRecord, WalRecord, WalWriter};

/// What reaches a shard: from the acceptor, a sibling shard or a
/// connection's reader. Every variant but `Wake` names its connection by
/// id.
#[derive(Debug)]
pub(crate) enum ShardMsg {
    /// A freshly accepted connection, registered before its reader can
    /// send anything.
    Conn(u64, Link),
    /// A mid-request handoff from a sibling: the connection plus every
    /// byte read but not yet consumed (the resume request included) — the
    /// receiver re-parses from the top. The sibling relays the
    /// connection's later messages, in order.
    Handoff(u64, Link, Vec<u8>),
    /// Bytes the connection's reader read.
    Read(u64, Vec<u8>),
    /// The peer closed its side (or the read failed): no more bytes.
    Eof(u64),
    /// The reader is done with the socket: the connection's last message.
    Closed(u64),
    /// The shutdown flag flipped.
    Wake,
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
    /// Threads blocked in `Server::wait`; `settled` wakes them.
    pub waiters: Mutex<usize>,
    /// Notified when a session ends or the drain starts, while anyone
    /// waits.
    pub settled: Condvar,
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
    pub recovered: Vec<Mutex<Vec<SessionRecord>>>,
    /// Highest resume token a previous life minted; token sequences
    /// restart above it so recovered tokens are never re-issued.
    pub recovered_max_token: u64,
    /// The address the acceptor's listener is bound to (`None` for a core
    /// built without one); shutdown connects to it once to wake the
    /// acceptor.
    pub listen_addr: Option<SocketAddr>,
}

/// Minimum recorder-clock time between automatic dump spills, so a
/// degradation storm costs one file write per window, not per event.
const FLIGHT_SPILL_DEBOUNCE_NS: u64 = 200_000_000;

impl FleetCtx {
    /// The shared state of a daemon with `config.shards` shards, plus one
    /// inbox receiver per shard. `recovered` is what the startup replay
    /// rebuilt (the default when there is no WAL). Nothing here owns a
    /// socket, so a lifecycle test builds its shard from this alone.
    pub(crate) fn new(
        model: Arc<SocModel>,
        config: &ServerConfig,
        root: Arc<Registry>,
        epoch: u64,
        wal_dir: Option<PathBuf>,
        recovered: RecoveredState,
        listen_addr: Option<SocketAddr>,
    ) -> (FleetCtx, Vec<Receiver<ShardMsg>>) {
        let shard_count = config.shards.max(1);
        let mut registries = Vec::with_capacity(shard_count + 1);
        registries.push(Arc::clone(&root));
        registries.extend((0..shard_count).map(|_| Arc::new(Registry::new())));
        let (senders, receivers) = (0..shard_count).map(|_| channel()).unzip();
        let mut slots = recovered.shards;
        slots.resize_with(shard_count, Vec::new);
        let ctx = FleetCtx {
            model,
            programs: ProgramCache::new(&root),
            registries,
            senders,
            session_seq: AtomicU64::new(recovered.max_session_id + 1),
            shutdown: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            waiters: Mutex::new(0),
            settled: Condvar::new(),
            governor: TenantGovernor::new(config.max_sessions, config.tenant_quota, root),
            read_timeout: config.read_timeout,
            handshake_timeout: config.handshake_timeout,
            resume_grace: config.resume_grace,
            drain_timeout: config.drain_timeout,
            limits: config.limits,
            flight: Arc::new(FlightRecorder::new(shard_count + 1, config.flight_capacity)),
            flight_dump: config.flight_dump.clone(),
            flight_spill: AtomicU64::new(0),
            epoch,
            durability: config.durability,
            wal_dir,
            wal_budget: config.wal_budget,
            recovered: slots.into_iter().map(Mutex::new).collect(),
            recovered_max_token: recovered.max_token,
            listen_addr,
        };
        (ctx, receivers)
    }

    /// The one way to start the drain, whoever asks — the owning
    /// process (`Server::stop`) or a client's SHUTDOWN verb: flips the
    /// flag, journals the one `Shutdown` event on `lane`, wakes every
    /// shard and the blocked acceptor. Later calls do nothing.
    pub(crate) fn begin_shutdown(&self, lane: usize) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.flight.record(lane, 0, 0, EventKind::Shutdown, "");
        for inbox in &self.senders {
            let _ = inbox.send(ShardMsg::Wake);
        }
        if let Some(addr) = self.listen_addr {
            wake_acceptor(addr);
        }
        self.wake_waiters();
    }

    /// Wakes the `Server::wait` callers, if any, to re-check their
    /// condition. The lock orders this after a caller's check, so a wake
    /// cannot slip in between its check and its wait.
    pub(crate) fn wake_waiters(&self) {
        let waiters = self.waiters.lock().unwrap_or_else(PoisonError::into_inner);
        if *waiters > 0 {
            self.settled.notify_all();
        }
    }

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

/// One live session, streaming or parked: its durable record, its ingest
/// state machine and its governor seat. A parked session is this plus a
/// deadline in the shard's lot; parking and picking up move it whole.
#[derive(Debug)]
struct Live {
    record: SessionRecord,
    session: Session,
    /// Held for its `Drop`: the seat frees when the session ends, and
    /// rides along while it is parked.
    _ticket: Ticket,
}

impl Live {
    /// The resume token, `None` for a plain session.
    fn token(&self) -> Option<u64> {
        (self.record.token != 0).then_some(self.record.token)
    }

    /// How transport death ends this session: a resumable one parks, a
    /// plain one fails with `why`.
    fn death(&self, why: &str) -> Outcome {
        match self.token() {
            Some(_) => Outcome::Parked,
            None => Outcome::Failed {
                reason: "",
                message: why.to_owned(),
            },
        }
    }

    /// What a checkpoint keeps of a resumable session (`None` for a
    /// plain one).
    fn checkpoint(&self) -> Option<SessionRecord> {
        self.token()?;
        Some(SessionRecord {
            bytes: self.session.metrics().bytes,
            ..self.record.clone()
        })
    }
}

/// How a session leaves the streaming phase: the key of the one way out.
#[derive(Debug)]
enum Outcome {
    /// FINISH arrived: the client gets the report.
    Finished { bit_len: u64 },
    /// The session fails; `reason` rides its `Close` flight event and
    /// `message` is the error reply, when a transport is left to carry
    /// it.
    Failed {
        reason: &'static str,
        message: String,
    },
    /// A resumable session's transport died: it waits out its grace
    /// period under its token.
    Parked,
}

/// What a request asks of the shell.
#[derive(Debug)]
enum Next {
    /// Send a status reply, then close.
    Reply(bool, String),
    /// Stream into this session. A resumable one is first acked with its
    /// token and the byte offset to resume from.
    Stream(Box<Live>, Option<u64>),
    /// Not ours: hand the socket, request bytes unconsumed, to the owning
    /// shard.
    Handoff(usize),
}

/// Why the one way in refused a session.
enum Refused {
    /// The governor shed it (quota or capacity).
    Shed(Shed),
    /// The hello named a bad scenario or schema.
    Invalid(StreamError),
}

/// What a due timer asks of the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    /// A connection's handshake or idle deadline.
    Conn(u64),
    /// A parked session's grace period may be over.
    Parked,
    /// The drain at shutdown is out of time.
    Drain,
}

/// One shard's private state: the session lifecycle, with no sockets.
struct Shard {
    ctx: Arc<FleetCtx>,
    index: usize,
    registry: Arc<Registry>,
    /// Parked sessions by token, each with its expiry deadline.
    parked: HashMap<u64, (Live, Instant)>,
    /// Every pending deadline, earliest first: the shard sleeps until the
    /// first one unless a message wakes it sooner.
    timers: BTreeSet<(Instant, Timer)>,
    /// Per-shard resume-token sequence; tokens are
    /// `seq * shard_count + index`, never 0, owner-recoverable.
    resume_seq: u64,
    /// This shard's write-ahead log (`None` when durability is off or
    /// the WAL could not be opened — the shard degrades, never dies).
    wal: Option<WalWriter>,
}

impl Shard {
    /// Builds shard `index`: opens its WAL (after the startup replay read
    /// the old one), seeds the token sequence above everything a previous
    /// life minted so recovered tokens are never re-issued, and re-parks
    /// the sessions recovery rebuilt for it.
    fn new(ctx: Arc<FleetCtx>, index: usize) -> Shard {
        let registry = Arc::clone(&ctx.registries[index + 1]);
        // Eagerly materialize the gauge so an idle daemon's exposition
        // still shows `pstrace_stream_active_sessions 0`.
        let _ = registry.gauge("pstrace_stream_active_sessions");
        let shard_count = ctx.senders.len();
        let wal = ctx.wal_dir.as_ref().and_then(|dir| {
            WalWriter::open(
                dir,
                index,
                shard_count,
                ctx.epoch,
                ctx.durability,
                ctx.wal_budget,
            )
            .map_err(|_| degrade(&registry, "wal-append-degraded"))
            .ok()
        });
        let recovered = ctx.recovered[index]
            .lock()
            .map(|mut slot| std::mem::take(&mut *slot))
            .unwrap_or_default();
        let mut shard = Shard {
            resume_seq: ctx.recovered_max_token / shard_count as u64 + 1,
            ctx,
            index,
            registry,
            parked: HashMap::new(),
            timers: BTreeSet::new(),
            wal,
        };
        shard.repark_recovered(recovered);
        shard
    }

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

    /// Runs one WAL write. A failing write is a degradation
    /// (`wal-append-degraded`), never a session error: the session
    /// continues, it just loses crash durability.
    fn journal(
        &mut self,
        trace: u64,
        session: u64,
        write: impl FnOnce(&mut WalWriter) -> io::Result<()>,
    ) {
        if self.wal.as_mut().is_some_and(|wal| write(wal).is_err()) {
            self.note_degrade("wal-append-degraded", trace, session);
        }
    }

    /// Appends one lifecycle entry to this shard's WAL.
    fn wal_append(&mut self, record: WalRecord) {
        self.journal(0, 0, |wal| wal.append(&record));
    }

    /// The one way in, shared by fresh opens and crash recovery: governor
    /// admission, the session state machine over the hello's schema, its
    /// flight handle and its durable record. `session_id` is `None` for a
    /// fresh session, which is numbered only once admitted. Accounting a
    /// refusal, journaling and the flight events are the caller's.
    fn open_live(
        &mut self,
        hello: Hello,
        token: u64,
        session_id: Option<u64>,
    ) -> Result<Live, Refused> {
        let ticket = self
            .ctx
            .governor
            .admit(hello.tenant)
            .map_err(Refused::Shed)?;
        let session_id =
            session_id.unwrap_or_else(|| self.ctx.session_seq.fetch_add(1, Ordering::Relaxed));
        // 0 on the hello means "server assigns": derive a trace id the
        // timeline can still tie to the session, flagged into a range a
        // client-minted id never occupies.
        let trace = if hello.trace == 0 {
            session_id | (1 << 63)
        } else {
            hello.trace
        };
        let mut session = open_session(&self.ctx, &hello, &self.registry, session_id)
            .map_err(Refused::Invalid)?;
        session.set_flight(FlightHandle::new(
            Arc::clone(&self.ctx.flight),
            self.lane(),
            trace,
            session_id,
        ));
        Ok(Live {
            record: SessionRecord {
                token,
                session_id,
                trace,
                scenario: hello.scenario,
                mode: proto::mode_to_byte(hello.mode),
                tenant: hello.tenant,
                schema: hello.schema,
                bytes: 0,
            },
            session,
            _ticket: ticket,
        })
    }

    /// Opens a brand-new session, plain (`token` 0) or fresh-resumable.
    fn open_streaming(&mut self, hello: Hello, token: u64) -> Next {
        self.registry.counter("pstrace_stream_sessions_total").inc();
        let hello_trace = hello.trace;
        let error = match self.open_live(hello, token, None) {
            Ok(live) => {
                let r = &live.record;
                let (trace, id) = (r.trace, r.session_id);
                self.note(trace, id, EventKind::Open, "");
                self.note(trace, id, EventKind::Handshake, "");
                if token != 0 {
                    // Journal the open group before the shell can ack the
                    // token: under strict durability the fsync happens
                    // here, so an acked token is always recoverable.
                    self.journal(trace, id, |wal| {
                        wal.append_open(token, id, trace, r.scenario, r.mode, r.tenant, &r.schema)
                    });
                }
                return self.stream(live);
            }
            Err(Refused::Shed(shed)) => {
                self.note(hello_trace, 0, EventKind::Shed, shed.reason);
                if shed.reason == "tenant-quota-shed" {
                    self.note(hello_trace, 0, EventKind::QuotaTrip, shed.reason);
                }
                self.note_degrade(shed.reason, hello_trace, 0);
                self.registry
                    .counter_with("pstrace_stream_shed_total", &[("reason", shed.reason)])
                    .inc();
                StreamError::Protocol(shed.message)
            }
            Err(Refused::Invalid(e)) => e,
        };
        self.registry.counter("pstrace_stream_failed_total").inc();
        self.ctx.wake_waiters();
        Next::Reply(false, error.to_string())
    }

    /// Re-parks the sessions crash recovery rebuilt for this shard: each
    /// one re-enters through the one way in from its journaled hello and
    /// waits out a fresh grace period under its pre-crash token.
    fn repark_recovered(&mut self, sessions: Vec<SessionRecord>) {
        for r in sessions {
            let (token, session_id, trace) = (r.token, r.session_id, r.trace);
            let live = proto::mode_from_byte(r.mode).ok().and_then(|mode| {
                let hello = Hello {
                    scenario: r.scenario,
                    mode,
                    tenant: r.tenant,
                    trace,
                    schema: r.schema,
                };
                self.open_live(hello, token, Some(session_id)).ok()
            });
            let Some(live) = live else {
                // A bad journaled hello, or a restarted daemon smaller
                // (or busier) than the dead one: shed rather than
                // oversubscribe.
                self.note_degrade("wal-session-skipped", trace, session_id);
                continue;
            };
            self.registry
                .counter("pstrace_stream_recovered_total")
                .inc();
            self.note(trace, session_id, EventKind::Recover, "sessions-restored");
            self.park(live);
        }
    }

    /// Parks a resumable session for a fresh grace period.
    fn park(&mut self, live: Live) {
        let deadline = Instant::now() + self.ctx.resume_grace;
        self.parked.insert(live.record.token, (live, deadline));
        self.timers.insert((deadline, Timer::Parked));
    }

    /// Hands an opened or picked-up session to the shell for streaming.
    fn stream(&self, live: Live) -> Next {
        self.registry.gauge("pstrace_stream_active_sessions").add(1);
        let ack = live.token().map(|_| live.session.metrics().bytes);
        Next::Stream(Box::new(live), ack)
    }

    /// Dispatches one parsed request.
    fn handle_request(&mut self, request: Request) -> Next {
        match request {
            Request::Metrics => {
                self.registry
                    .counter("pstrace_stream_metrics_requests_total")
                    .inc();
                Next::Reply(true, self.ctx.exposition())
            }
            Request::Shutdown => {
                self.ctx.shutdown_requested.store(true, Ordering::SeqCst);
                self.ctx.begin_shutdown(self.lane());
                Next::Reply(true, "shutting down: draining shards".to_owned())
            }
            Request::Session(hello) => self.open_streaming(hello, 0),
            Request::Resume {
                token: 0, hello, ..
            } => {
                let token = self.next_token();
                self.open_streaming(hello, token)
            }
            Request::Resume {
                token,
                epoch,
                hello,
            } => {
                let owner = self.owner_of(token);
                if owner != self.index {
                    self.registry.counter("pstrace_stream_handoffs_total").inc();
                    self.note(hello.trace, token, EventKind::Handoff, "");
                    return Next::Handoff(owner);
                }
                let picked = if epoch == self.ctx.epoch {
                    self.pick_up(token, &hello)
                } else {
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
                };
                match picked {
                    Ok(live) => self.stream(live),
                    Err(e) => Next::Reply(false, e.to_string()),
                }
            }
        }
    }

    /// Picks a parked session back up by its token.
    fn pick_up(&mut self, token: u64, hello: &Hello) -> Result<Live, StreamError> {
        let Some((live, deadline)) = self.parked.remove(&token) else {
            self.note_degrade("resume-expired", hello.trace, token);
            return Err(StreamError::Protocol(format!(
                "unknown or expired resume token {token}"
            )));
        };
        if live.record.schema != hello.schema || live.record.scenario != hello.scenario {
            // A mismatched resume is a client bug; the parked session
            // goes back to wait for the right one.
            self.parked.insert(token, (live, deadline));
            return Err(StreamError::Protocol(
                "resume hello does not match the parked session".to_owned(),
            ));
        }
        self.registry.counter("pstrace_stream_resumed_total").inc();
        self.note(
            live.record.trace,
            live.record.session_id,
            EventKind::Resume,
            "",
        );
        self.wal_append(WalRecord::Resume { token });
        Ok(live)
    }

    /// Feeds one chunk into a streaming session; `Some` when the chunk
    /// ends it.
    fn handle_chunk(&mut self, live: &mut Live, chunk: Chunk) -> Option<Outcome> {
        match chunk {
            Chunk::Data(bytes) => {
                live.session.push_chunk(&bytes);
                let message = self.ctx.limits.exceeded(&live.session.metrics())?;
                self.note_degrade("budget-close", live.record.trace, live.record.session_id);
                Some(Outcome::Failed {
                    reason: "budget-close",
                    message,
                })
            }
            Chunk::Finish { bit_len } => Some(Outcome::Finished { bit_len }),
        }
    }

    /// The one way out of a streaming session: transport death, budget
    /// close, FINISH and panic teardown all end here. The session stops
    /// counting as active and its frontier gauges clear. A parked
    /// session keeps its seat and token; any other end frees the seat,
    /// and a resumable session journals `Complete` so recovery cannot
    /// resurrect it. Returns the reply the client is owed, if any.
    fn end(&mut self, live: Live, outcome: Outcome) -> Option<(bool, String)> {
        self.registry.gauge("pstrace_stream_active_sessions").sub(1);
        // However the session ends, it is no longer live-streaming:
        // stale frontier gauges would sum wrongly across shards.
        OnlineLocalizer::clear_frontier(&self.registry);
        let (token, trace, id) = (live.token(), live.record.trace, live.record.session_id);
        let reply = match outcome {
            Outcome::Parked => {
                self.registry.counter("pstrace_stream_parked_total").inc();
                self.note(trace, id, EventKind::Park, "session-parked");
                self.note_degrade("session-parked", trace, id);
                self.wal_append(WalRecord::Park {
                    token: live.record.token,
                    bytes: live.session.metrics().bytes,
                });
                self.park(live);
                return None;
            }
            Outcome::Finished { bit_len } => {
                let scenario = live.record.scenario;
                let report = live.session.finish(Some(bit_len));
                self.note(trace, id, EventKind::Finish, "");
                self.note(trace, id, EventKind::Close, "");
                self.registry
                    .counter("pstrace_stream_completed_total")
                    .inc();
                let text = format!(
                    "session over scenario {scenario} ({:?} match)\n{}",
                    report.mode,
                    report.render()
                );
                (true, text)
            }
            Outcome::Failed { reason, message } => {
                self.note(trace, id, EventKind::Close, reason);
                self.registry.counter("pstrace_stream_failed_total").inc();
                (false, message)
            }
        };
        if let Some(token) = token {
            self.wal_append(WalRecord::Complete { token });
        }
        self.ctx.wake_waiters();
        Some(reply)
    }

    /// Drops every parked session whose grace period is over at `now`;
    /// each expiry is journaled so recovery cannot resurrect a dead token.
    fn expire_parked(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .parked
            .iter()
            .filter(|(_, (_, deadline))| *deadline <= now)
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            self.parked.remove(&token);
            self.wal_append(WalRecord::Expire { token });
        }
    }

    /// Checkpoint-and-truncate rotation once the WAL crosses its disk
    /// budget: every live resumable session — parked here or `streaming`
    /// in the shell — is compacted into the checkpoint, then the journal
    /// restarts empty.
    fn maybe_rotate<'a>(&mut self, streaming: impl Iterator<Item = &'a Live>) {
        if !self.wal.as_ref().is_some_and(WalWriter::needs_rotation) {
            return;
        }
        let live: Vec<SessionRecord> = self
            .parked
            .values()
            .filter_map(|(live, _)| live.checkpoint())
            .chain(streaming.filter_map(Live::checkpoint))
            .collect();
        // Rotation is the disk-pressure rung of the ladder: count it.
        self.note_degrade("wal-rotate", 0, 0);
        if self
            .wal
            .as_mut()
            .is_some_and(|wal| wal.rotate(&live).is_err())
        {
            // The checkpoint (or truncate) failed; the old WAL still
            // recovers everything, so degrade and carry on.
            self.note_degrade("wal-checkpoint-degraded", 0, 0);
        }
    }
}

/// The per-connection state machine of the socket shell.
#[derive(Debug)]
enum Phase {
    /// Accumulating the request preamble.
    Request,
    /// Pumping chunks into a session.
    Streaming(Box<Live>),
    /// Closed, its reply (if any) handed to the reader; waiting for the
    /// reader's `Closed`.
    Closing,
}

/// One connection owned by a shard.
#[derive(Debug)]
struct Conn {
    link: Link,
    inbuf: Vec<u8>,
    phase: Phase,
    opened: Instant,
    last_progress: Instant,
    /// The deadline this connection holds in the shard's timer set.
    armed: Option<Instant>,
    peer_gone: bool,
}

impl Conn {
    fn new(link: Link, inbuf: Vec<u8>, now: Instant) -> Conn {
        Conn {
            link,
            inbuf,
            phase: Phase::Request,
            opened: now,
            last_progress: now,
            armed: None,
            peer_gone: false,
        }
    }

    /// Takes the streaming session out, leaving the connection closing.
    fn take_live(&mut self) -> Option<Box<Live>> {
        match std::mem::replace(&mut self.phase, Phase::Closing) {
            Phase::Streaming(live) => Some(live),
            _ => None,
        }
    }

    /// When this connection's phase times out: the handshake deadline
    /// while the request is incomplete, the idle deadline while
    /// streaming. A closing connection's reply write carries its own
    /// timeout.
    fn due(&self, ctx: &FleetCtx) -> Option<Instant> {
        match self.phase {
            Phase::Request => Some(self.opened + ctx.handshake_timeout),
            Phase::Streaming(_) => Some(self.last_progress + ctx.read_timeout),
            Phase::Closing => None,
        }
    }

    /// Holds one timer at this connection's deadline. Progress only moves
    /// the deadline later, so the timer already held stays until it pops
    /// and is re-armed; only an earlier deadline replaces it.
    fn arm(&mut self, id: u64, ctx: &FleetCtx, timers: &mut BTreeSet<(Instant, Timer)>) {
        let Some(due) = self.due(ctx) else { return };
        if self.armed.is_some_and(|armed| armed <= due) {
            return;
        }
        if let Some(old) = self.armed.replace(due) {
            timers.remove(&(old, Timer::Conn(id)));
        }
        timers.insert((due, Timer::Conn(id)));
    }

    /// Drops this connection's timer, if it holds one.
    fn disarm(&mut self, id: u64, timers: &mut BTreeSet<(Instant, Timer)>) {
        if let Some(old) = self.armed.take() {
            timers.remove(&(old, Timer::Conn(id)));
        }
    }
}

/// What a step decided about a connection.
enum Verdict {
    Keep,
    /// Close, handing the reader this reply to write first.
    Close(Option<(bool, String)>),
    /// Hand the connection (plus unconsumed bytes) to the owning shard.
    Handoff(usize),
}

impl Shard {
    /// A streaming session's transport died (EOF, error, protocol damage
    /// or idle deadline).
    fn streaming_death(&mut self, conn: &mut Conn, why: &str) -> Verdict {
        let Some(live) = conn.take_live() else {
            return Verdict::Close(None);
        };
        let outcome = live.death(why);
        match self.end(*live, outcome) {
            // The transport still works (protocol damage): tell the
            // client, then close.
            Some(reply) if !conn.peer_gone => Verdict::Close(Some(reply)),
            _ => Verdict::Close(None),
        }
    }

    /// Consumes as many complete protocol items as the inbuf holds,
    /// advancing the phase machine.
    fn process(&mut self, conn: &mut Conn) -> Verdict {
        loop {
            match &mut conn.phase {
                Phase::Closing => {
                    // Anything the client pipelined after its request is
                    // irrelevant now.
                    conn.inbuf.clear();
                    return Verdict::Keep;
                }
                Phase::Request => match proto::decode_request(&conn.inbuf) {
                    Ok(Some((request, used))) => match self.handle_request(request) {
                        Next::Handoff(owner) => return Verdict::Handoff(owner),
                        Next::Reply(ok, text) => return Verdict::Close(Some((ok, text))),
                        Next::Stream(live, ack) => {
                            conn.inbuf.drain(..used);
                            let token = live.record.token;
                            conn.phase = Phase::Streaming(live);
                            if let Some(offset) = ack {
                                let mut bytes = Vec::new();
                                let _ = proto::write_resume_ack(
                                    &mut bytes,
                                    token,
                                    offset,
                                    self.ctx.epoch,
                                );
                                if conn.link.write_ack(&bytes).is_err() {
                                    conn.peer_gone = true;
                                    return self.streaming_death(conn, "transport closed");
                                }
                            }
                        }
                    },
                    Ok(None) => {
                        if conn.peer_gone {
                            // The peer hung up (or never spoke PSTS) before
                            // a full request landed.
                            self.note_degrade("handshake-deadline", 0, 0);
                            return Verdict::Close(None);
                        }
                        return Verdict::Keep;
                    }
                    Err(e) => {
                        self.note_degrade("handshake-deadline", 0, 0);
                        return Verdict::Close(Some((false, e.to_string())));
                    }
                },
                Phase::Streaming(live) => match proto::decode_chunk(&conn.inbuf) {
                    Ok(Some((chunk, used))) => {
                        conn.inbuf.drain(..used);
                        if let Some(outcome) = self.handle_chunk(live, chunk) {
                            let live = conn.take_live().expect("the session was streaming");
                            return Verdict::Close(self.end(*live, outcome));
                        }
                    }
                    Ok(None) => {
                        if conn.peer_gone {
                            return self.streaming_death(conn, "transport closed mid-stream");
                        }
                        return Verdict::Keep;
                    }
                    // Any chunk error is transport death: resumable
                    // sessions park and a reconnect picks them back up.
                    Err(e) => return self.streaming_death(conn, &e.to_string()),
                },
            }
        }
    }

    /// A connection's deadline passed.
    fn deadline(&mut self, conn: &mut Conn) -> Verdict {
        match conn.phase {
            Phase::Request => {
                self.note_degrade("handshake-deadline", 0, 0);
                Verdict::Close(Some((
                    false,
                    "handshake deadline: no complete request arrived in time".to_owned(),
                )))
            }
            Phase::Streaming(_) => self.streaming_death(conn, "session idle past deadline"),
            Phase::Closing => Verdict::Keep,
        }
    }

    /// A panic escaped a connection's step: the connection's session
    /// ends like any other failure, and the connection closes.
    fn respawn(&mut self, conn: &mut Conn) -> Verdict {
        self.registry
            .counter("pstrace_stream_worker_panics_total")
            .inc();
        self.note(0, 0, EventKind::Respawn, "worker-respawn");
        self.note_degrade("worker-respawn", 0, 0);
        if let Some(live) = conn.take_live() {
            let outcome = Outcome::Failed {
                reason: "worker-respawn",
                message: String::new(),
            };
            self.end(*live, outcome);
        }
        Verdict::Close(None)
    }
}

/// One shard's socket shell: the lifecycle core plus its connections.
struct Shell {
    shard: Shard,
    /// Open connections by connection id.
    conns: HashMap<u64, Conn>,
    /// Connections handed off to another shard, by id. Their reader still
    /// sends here; each message is relayed in arrival order, so the
    /// owner sees the connection's bytes in order. `Closed` ends the
    /// entry.
    forward: HashMap<u64, usize>,
}

impl Shell {
    /// Handles one inbox message; only the connection it names advances.
    fn receive(&mut self, msg: ShardMsg, now: Instant) {
        let id = match &msg {
            ShardMsg::Conn(id, _)
            | ShardMsg::Handoff(id, ..)
            | ShardMsg::Read(id, _)
            | ShardMsg::Eof(id)
            | ShardMsg::Closed(id) => *id,
            ShardMsg::Wake => return,
        };
        if let Some(&owner) = self.forward.get(&id) {
            if matches!(msg, ShardMsg::Closed(_)) {
                self.forward.remove(&id);
            }
            // An owner that already exited closed the connection with it.
            let _ = self.shard.ctx.senders[owner].send(msg);
            return;
        }
        match msg {
            ShardMsg::Conn(id, link) => {
                let mut conn = Conn::new(link, Vec::new(), now);
                conn.arm(id, &self.shard.ctx, &mut self.shard.timers);
                self.conns.insert(id, conn);
            }
            ShardMsg::Handoff(id, link, inbuf) => {
                self.conns.insert(id, Conn::new(link, inbuf, now));
                self.step(id, Shard::process);
            }
            ShardMsg::Read(id, bytes) => {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                conn.link.received(bytes.len());
                conn.last_progress = now;
                if conn.inbuf.is_empty() {
                    conn.inbuf = bytes;
                } else {
                    conn.inbuf.extend_from_slice(&bytes);
                }
                self.step(id, Shard::process);
            }
            ShardMsg::Eof(id) => {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                conn.peer_gone = true;
                self.step(id, Shard::process);
            }
            ShardMsg::Closed(id) => {
                if let Some(mut conn) = self.conns.remove(&id) {
                    conn.disarm(id, &mut self.shard.timers);
                }
            }
            ShardMsg::Wake => {}
        }
    }

    /// Runs one step of connection `id` and applies its verdict. A panic
    /// costs exactly this connection.
    fn step(&mut self, id: u64, f: fn(&mut Shard, &mut Conn) -> Verdict) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let shard = &mut self.shard;
        let verdict = catch_unwind(AssertUnwindSafe(|| f(shard, conn)))
            .unwrap_or_else(|_| shard.respawn(conn));
        match verdict {
            Verdict::Keep => conn.arm(id, &shard.ctx, &mut shard.timers),
            Verdict::Close(reply) => {
                conn.phase = Phase::Closing;
                conn.disarm(id, &mut shard.timers);
                let reply = reply.map(|(ok, text)| {
                    let mut bytes = Vec::new();
                    let _ = proto::write_reply(&mut bytes, ok, &text);
                    bytes
                });
                conn.link.close(reply);
            }
            Verdict::Handoff(owner) => {
                let mut conn = self.conns.remove(&id).expect("the connection just stepped");
                conn.disarm(id, &mut self.shard.timers);
                self.forward.insert(id, owner);
                let msg = ShardMsg::Handoff(id, conn.link, conn.inbuf);
                // An owner that already exited drops the message, and the
                // connection closes with it.
                let _ = self.shard.ctx.senders[owner].send(msg);
            }
        }
    }

    /// Fires every timer due at `now`. Returns whether the drain deadline
    /// passed.
    fn fire(&mut self, now: Instant) -> bool {
        let (mut expire, mut drained) = (false, false);
        while let Some(&(at, timer)) = self.shard.timers.first() {
            if at > now {
                break;
            }
            self.shard.timers.pop_first();
            match timer {
                Timer::Parked => expire = true,
                Timer::Drain => drained = true,
                Timer::Conn(id) => {
                    let Some(conn) = self.conns.get_mut(&id) else {
                        continue;
                    };
                    conn.armed = None;
                    if conn.due(&self.shard.ctx).is_some_and(|due| due <= now) {
                        self.step(id, Shard::deadline);
                    } else {
                        conn.arm(id, &self.shard.ctx, &mut self.shard.timers);
                    }
                }
            }
        }
        if expire {
            self.shard.expire_parked(now);
        }
        drained
    }
}

/// The most inbox messages one wake handles before the shard fires its
/// due timers, rotates its WAL and checks for shutdown.
const WAKE_BATCH: usize = 64;

/// The shard thread body: wait for a message or the next due timer,
/// handle what woke it, and drain once shutdown is flagged.
pub(crate) fn run_shard(ctx: Arc<FleetCtx>, index: usize, inbox: &Receiver<ShardMsg>) {
    let mut shell = Shell {
        shard: Shard::new(ctx, index),
        conns: HashMap::new(),
        forward: HashMap::new(),
    };
    let mut draining = false;
    loop {
        let first = match shell.shard.timers.first() {
            Some(&(at, _)) => {
                match inbox.recv_timeout(at.saturating_duration_since(Instant::now())) {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match inbox.recv() {
                Ok(msg) => Some(msg),
                Err(_) => break,
            },
        };
        // A bounded batch: under sustained load the inbox never empties,
        // and the timers, rotation and the shutdown check below must
        // still run between batches.
        let now = Instant::now();
        let batch = first
            .into_iter()
            .chain(inbox.try_iter().take(WAKE_BATCH - 1));
        for msg in batch {
            shell.receive(msg, now);
        }
        let drained = shell.fire(now);

        // Disk-pressure rotation: checkpoint live sessions, truncate.
        shell
            .shard
            .maybe_rotate(shell.conns.values().filter_map(|conn| match &conn.phase {
                Phase::Streaming(live) => Some(&**live),
                _ => None,
            }));

        if shell.shard.ctx.shutdown.load(Ordering::SeqCst) {
            if !draining {
                draining = true;
                shell.shard.note(0, 0, EventKind::Drain, "");
                let deadline = now + shell.shard.ctx.drain_timeout;
                shell.shard.timers.insert((deadline, Timer::Drain));
            }
            // A connection handed off from here still sends its bytes
            // here, so this shard relays until its reader says `Closed`.
            if (shell.conns.is_empty() && shell.forward.is_empty()) || drained {
                break;
            }
        }
    }
    // Lazy durability flushes once, here, at the drain edge.
    if let Some(wal) = shell.shard.wal.as_mut() {
        let _ = wal.sync();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::path::Path;

    use pstrace_diag::MatchMode;
    use pstrace_soc::{wirecap, SimConfig, Simulator, TraceBufferConfig};
    use pstrace_wire::{read_ptw_header, write_ptw};

    use super::*;
    use crate::recover::recover_state;
    use crate::server::scenario_by_number;

    const EPOCH: u64 = 0x5eed;

    /// A lifecycle core on a temp strict WAL, plus one scenario-1 capture
    /// split into its handshake and payload. No socket anywhere.
    struct Rig {
        shard: Shard,
        dir: PathBuf,
        hello: Hello,
        payload: Vec<u8>,
        bit_len: u64,
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn rig(tag: &str, config: ServerConfig) -> Rig {
        let dir = std::env::temp_dir().join(format!("pstrace-life-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let model = SocModel::t2();
        let scenario = scenario_by_number(1).unwrap();
        let messages: Vec<_> = scenario.messages(&model).into_iter().step_by(2).collect();
        let trace_config = TraceBufferConfig {
            messages: messages.clone(),
            groups: Vec::new(),
            depth: None,
        };
        let width = messages.iter().map(|&m| model.catalog().width(m)).sum();
        let schema = wirecap::wire_schema(&model, &trace_config, width).unwrap();
        let run = Simulator::new(&model, scenario, SimConfig::with_seed(3)).run();
        let stream = wirecap::encode_events(
            model.catalog(),
            &schema,
            &run.events,
            &trace_config,
            &wirecap::ProfileV1,
        )
        .unwrap();
        let ptw = write_ptw(model.catalog(), &schema, &stream);
        let (_, _, consumed) = read_ptw_header(model.catalog(), &ptw).unwrap();
        let config = ServerConfig {
            shards: 1,
            durability: DurabilityPolicy::Strict,
            wal_dir: Some(dir.clone()),
            ..config
        };
        let (ctx, _) = FleetCtx::new(
            Arc::new(model),
            &config,
            Arc::new(Registry::new()),
            EPOCH,
            Some(dir.clone()),
            RecoveredState::default(),
            None,
        );
        Rig {
            shard: Shard::new(Arc::new(ctx), 0),
            dir,
            hello: Hello {
                scenario: 1,
                mode: MatchMode::Prefix,
                tenant: 0,
                trace: 0,
                schema: ptw[..consumed].to_vec(),
            },
            payload: stream.bytes,
            bit_len: stream.bit_len,
        }
    }

    impl Rig {
        fn resume(&mut self, token: u64) -> (Box<Live>, u64) {
            let request = Request::Resume {
                token,
                epoch: if token == 0 { 0 } else { EPOCH },
                hello: self.hello.clone(),
            };
            match self.shard.handle_request(request) {
                Next::Stream(live, Some(offset)) => (live, offset),
                other => panic!("expected a resumable stream, got {other:?}"),
            }
        }

        fn feed(&mut self, live: &mut Live, bytes: &[u8]) -> Option<Outcome> {
            self.shard.handle_chunk(live, Chunk::Data(bytes.to_vec()))
        }

        fn active(&self) -> i64 {
            self.shard
                .registry
                .gauge("pstrace_stream_active_sessions")
                .get()
        }

        /// Recovery from the WAL directory must rebuild exactly the
        /// tokens the core still holds: parked here, or `streaming`.
        fn assert_durable(&self, streaming: &[&Live], step: &str) {
            let held: BTreeSet<u64> = self
                .shard
                .parked
                .keys()
                .copied()
                .chain(streaming.iter().filter_map(|live| live.token()))
                .collect();
            assert_eq!(recovered_tokens(&self.dir), held, "after {step}");
        }
    }

    fn recovered_tokens(dir: &Path) -> BTreeSet<u64> {
        recover_state(dir, 1)
            .shards
            .iter()
            .flatten()
            .map(|r| r.token)
            .collect()
    }

    #[test]
    fn park_resume_finish_keeps_the_journal_in_step() {
        let mut rig = rig("resume", ServerConfig::default());
        let (mut live, offset) = rig.resume(0);
        assert_eq!(offset, 0);
        let token = live
            .token()
            .expect("fresh resumable sessions carry a token");
        rig.assert_durable(&[&live], "open");

        let payload = rig.payload.clone();
        let half = payload.len() / 2;
        assert!(rig.feed(&mut live, &payload[..half]).is_none());
        rig.assert_durable(&[&live], "data");

        let outcome = live.death("transport closed");
        assert!(matches!(outcome, Outcome::Parked));
        assert!(
            rig.shard.end(*live, outcome).is_none(),
            "parking replies nothing"
        );
        assert_eq!(rig.active(), 0);
        rig.assert_durable(&[], "park");

        let (mut live, offset) = rig.resume(token);
        assert_eq!(offset, half as u64, "resume acks the ingested offset");
        assert_eq!(live.token(), Some(token));
        rig.assert_durable(&[&live], "resume");

        assert!(rig.feed(&mut live, &payload[half..]).is_none());
        let outcome = rig
            .shard
            .handle_chunk(
                &mut live,
                Chunk::Finish {
                    bit_len: rig.bit_len,
                },
            )
            .expect("FINISH ends the session");
        let (ok, report) = rig.shard.end(*live, outcome).expect("a report");
        assert!(ok, "{report}");
        assert!(report.starts_with("session over scenario 1"), "{report}");
        rig.assert_durable(&[], "finish");
        assert_eq!(rig.active(), 0);
    }

    #[test]
    fn an_expired_parked_session_leaves_the_journal() {
        let mut rig = rig("expire", ServerConfig::default());
        let (live, _) = rig.resume(0);
        let outcome = live.death("transport closed");
        rig.shard.end(*live, outcome);
        rig.assert_durable(&[], "park");

        rig.shard.expire_parked(Instant::now());
        assert_eq!(rig.shard.parked.len(), 1, "still inside its grace period");
        let grace = rig.shard.ctx.resume_grace;
        rig.shard
            .expire_parked(Instant::now() + grace + Duration::from_secs(1));
        assert!(rig.shard.parked.is_empty());
        rig.assert_durable(&[], "expire");
        assert_eq!(rig.active(), 0);
    }

    #[test]
    fn a_budget_closed_resumable_session_is_not_recoverable() {
        let config = ServerConfig {
            limits: SessionLimits {
                max_bytes: Some(16),
                ..SessionLimits::default()
            },
            ..ServerConfig::default()
        };
        let mut rig = rig("budget", config);
        let (mut live, _) = rig.resume(0);
        rig.assert_durable(&[&live], "open");
        let payload = rig.payload.clone();
        let outcome = rig
            .feed(&mut live, &payload)
            .expect("the whole capture crosses a 16-byte budget");
        assert!(matches!(
            outcome,
            Outcome::Failed {
                reason: "budget-close",
                ..
            }
        ));
        let (ok, message) = rig.shard.end(*live, outcome).expect("an error reply");
        assert!(!ok);
        let budget = format!("byte budget ({} > 16)", payload.len());
        assert!(message.contains(&budget), "{message}");
        rig.assert_durable(&[], "budget-close");
        assert_eq!(rig.active(), 0);
    }

    #[test]
    fn rotation_checkpoints_parked_and_streaming_sessions() {
        let config = ServerConfig {
            wal_budget: 0,
            ..ServerConfig::default()
        };
        let mut rig = rig("rotate", config);
        let (parked, _) = rig.resume(0);
        let (mut streaming, _) = rig.resume(0);
        let outcome = parked.death("transport closed");
        rig.shard.end(*parked, outcome);
        rig.assert_durable(&[&streaming], "park one");

        rig.shard.maybe_rotate(std::iter::once(&*streaming));
        let wal = std::fs::read(crate::wal::wal_path(&rig.dir, 0)).unwrap();
        assert_eq!(
            wal.len(),
            crate::wal::WAL_ENTRY_BYTES,
            "rotation truncates the WAL to its epoch header"
        );
        rig.assert_durable(&[&streaming], "rotate");

        let outcome = rig
            .shard
            .handle_chunk(&mut streaming, Chunk::Finish { bit_len: 0 })
            .unwrap();
        rig.shard.end(*streaming, outcome);
        rig.assert_durable(&[], "finish after rotation");
        assert_eq!(rig.shard.parked.len(), 1);
        assert_eq!(rig.active(), 0);
    }
}
