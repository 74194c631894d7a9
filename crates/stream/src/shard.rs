//! Shard workers: the event-loop core of the fleet-scale daemon.
//!
//! Every connection belongs to one of N shards; each shard is a single
//! thread owning its connection table, its parked-session lot and its own
//! [`Registry`](pstrace_obs::Registry), so the ingest hot path touches
//! no cross-thread locks at all — the only shared state is the tenant
//! governor (one short lock per session *open*, never per chunk) and the
//! mpsc inbox every message reaches the shard through. The registry
//! holds aggregates only, and the shard resolves their handles when it
//! starts; a session's own numbers are in its report and its flight
//! timeline.
//!
//! Resume tokens encode their owning shard (`token % shard_count`). A
//! connection's reader decodes its request and opens it on the shard
//! the request routes to ([`FleetCtx::route`]), so a resume goes
//! straight to its token's owner whatever the accept order, and no
//! other shard ever learns of the connection.
//!
//! The file has two halves. The **session lifecycle** comes first: a
//! `Live` session (durable record, ingest state machine, governor seat)
//! enters through one way in (`open_live`, shared by fresh opens and
//! crash recovery) and leaves through one way out (`end`, keyed by an
//! `Outcome`: finished, failed or parked), with resume, expiry and WAL
//! rotation in between. Lifecycle functions take requests and chunks and
//! return what to send; none of them sees a socket (`end` takes the
//! connection only to leave an ended session's record on it), so a unit
//! test drives them in process. The **socket shell** follows, from `Conn`
//! down. `run_shard` blocks on its inbox until a message arrives or the
//! earliest timer is due — it never ticks. A message names one connection
//! (its request, bytes its reader read, the peer's end of stream, the
//! reader's last word), and only that connection advances: the request
//! and its chunks go to the lifecycle, and a final reply goes back to the
//! connection's reader (see [`reader`](crate::reader)), which writes it
//! off the shard thread and then says `Closed` with the write's outcome:
//! a written reply journals an ended resumable session's `Complete`, a
//! failed one re-parks its token for the client's retry. Idle deadlines,
//! parked-session expiry and the drain deadline share one timer set, and
//! a wake fires only the timers that are due. A wake handles a bounded
//! batch of messages before it fires timers, and cuts it short once a
//! timer is due or the drain begins, so a busy inbox cannot hold off
//! deadlines or the drain. A draining shard stays up while an
//! accepted connection has yet to be routed, since it may be routed here.
//! A panic inside one connection's step is caught and costs exactly that
//! connection (`worker-respawn`).
//!
//! A wake ends its batch with one **commit**. A fresh resumable session
//! journals its open group unsynced and holds its resume ack on its
//! connection; a close decided while the ack is held (FINISH in the same
//! batch, a budget close, transport death, a panic) is held behind it.
//! The commit syncs once under strict durability if the batch journaled
//! any group, then lets every held ack out in message order: written on
//! the shard thread, or, with a close held behind it, handed to the
//! reader in front of the reply. So no ack leaves before the sync that
//! covers its group, no reply leaves before its session's ack, and
//! sessions that arrive together share one sync while a lone one pays
//! exactly one.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use pstrace_codec::flight::write_flight_dump;
use pstrace_codec::DEFAULT_SYNC_EVERY;
use pstrace_obs::{
    merged_samples, render_prometheus_samples, Counter, EventKind, FlightHandle, FlightRecorder,
    Gauge, Registry,
};
use pstrace_soc::SocModel;

use crate::error::StreamError;
use crate::programs::ProgramCache;
use crate::proto::{self, Chunk, Hello, Request};
use crate::reader::{Link, Wire};
use crate::recover::RecoveredState;
use crate::server::{degrade, open_session, wake_acceptor, ServerConfig};
use crate::session::{Session, SessionSeries};
use crate::wal::{SessionRecord, WalRecord, WalWriter};

/// What a connection's reader made of its first bytes: the request, or
/// the error reply the peer is owed (`None` when the peer hung up, or
/// the drain cut it off, before a whole request arrived).
pub(crate) type Opening = Result<Request, Option<String>>;

/// What reaches a shard from a connection's reader, or `Wake`. Every
/// variant but `Wake` names its connection by id.
#[derive(Debug)]
pub(crate) enum ShardMsg {
    /// The connection's first message: it is this shard's from now on.
    Open(u64, Link, Opening),
    /// Bytes the connection's reader read.
    Read(u64, Vec<u8>),
    /// The peer closed its side (or the read failed): no more bytes.
    Eof(u64),
    /// The reader is done with the socket: the connection's last message.
    /// The flag says whether the reply, if one was owed, was written
    /// whole.
    Closed(u64, bool),
    /// The shutdown flag flipped, or the last unrouted connection was
    /// routed during the drain.
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
    /// Shard inboxes, indexed by shard: each connection's reader sends
    /// to the one its request routes to.
    pub senders: Vec<Sender<ShardMsg>>,
    /// Accepted connections whose request no shard has yet received, by
    /// connection id: the drain waits for them, and at its deadline cuts
    /// them off.
    pub unrouted: Mutex<HashMap<u64, Arc<Wire>>>,
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
    /// The daemon's knobs: timeouts, session limits, where flight dumps
    /// spill, the WAL fsync policy and disk budget.
    pub config: ServerConfig,
    /// The always-on flight recorder: lane 0 is daemon scope, lanes
    /// `1..=shards` belong to shard workers.
    pub flight: Arc<FlightRecorder>,
    /// Recorder-clock time of the last automatic spill (debounce).
    pub flight_spill: AtomicU64,
    /// The recovery epoch: acked with every resume token, checked on
    /// every resume-by-token (a mismatch is shed, `resume-epoch-shed`).
    pub epoch: u64,
    /// Where the per-shard WALs live (`None` when durability is off,
    /// whatever `config.wal_dir` says).
    pub wal_dir: Option<PathBuf>,
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
            unrouted: Mutex::default(),
            session_seq: AtomicU64::new(recovered.max_session_id + 1),
            shutdown: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            waiters: Mutex::new(0),
            settled: Condvar::new(),
            governor: TenantGovernor::new(config.max_sessions, config.tenant_quota, root),
            config: config.clone(),
            flight: Arc::new(FlightRecorder::new(shard_count + 1, config.flight_capacity)),
            flight_spill: AtomicU64::new(0),
            epoch,
            wal_dir,
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

    /// The shard a connection's opening goes to: a resume token's owner,
    /// else the shard of the connection id.
    pub(crate) fn route(&self, id: u64, opening: &Opening) -> usize {
        let key = match opening {
            Ok(Request::Resume { token, .. }) if *token != 0 => *token,
            _ => id,
        };
        (key % self.senders.len() as u64) as usize
    }

    pub(crate) fn unrouted(&self) -> MutexGuard<'_, HashMap<u64, Arc<Wire>>> {
        self.unrouted.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Notes an accepted connection as unrouted; `false` once the drain
    /// has begun (checked under the lock the drain's check takes).
    pub(crate) fn note_accepted(&self, id: u64, wire: &Arc<Wire>) -> bool {
        let mut unrouted = self.unrouted();
        if self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        unrouted.insert(id, Arc::clone(wire));
        true
    }

    /// Connection `id` reached its shard. Once none is left unrouted in
    /// the drain, every shard wakes to see whether it may exit.
    pub(crate) fn note_routed(&self, id: u64) {
        let mut unrouted = self.unrouted();
        if unrouted.remove(&id).is_some()
            && unrouted.is_empty()
            && self.shutdown.load(Ordering::SeqCst)
        {
            drop(unrouted);
            for inbox in &self.senders {
                let _ = inbox.send(ShardMsg::Wake);
            }
        }
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
        if let Some(path) = &self.config.flight_dump {
            if let Ok(bytes) = self.flight_dump_bytes() {
                let _ = std::fs::write(path, bytes);
            }
        }
    }

    fn maybe_autospill(&self) {
        if self.config.flight_dump.is_none() {
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
    /// The tenant's `pstrace_tenant_active_sessions` gauge, resolved at
    /// admission.
    active: Gauge,
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
        let active = self.inner.root.gauge_with(
            "pstrace_tenant_active_sessions",
            &[("tenant", &tenant.to_string())],
        );
        active.add(1);
        Ok(Ticket {
            inner: Arc::clone(&self.inner),
            tenant,
            active,
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
        self.active.sub(1);
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
    /// A streaming connection's idle deadline.
    Conn(u64),
    /// A parked session's grace period may be over.
    Parked,
    /// The drain at shutdown is out of time.
    Drain,
}

/// A shard's aggregate series, resolved once when the shard starts, so
/// the session lifecycle bumps them without a registry lookup.
#[derive(Debug)]
struct ShardSeries {
    sessions: Counter,
    completed: Counter,
    failed: Counter,
    parked: Counter,
    resumed: Counter,
    recovered: Counter,
    handoffs: Counter,
    metrics_requests: Counter,
    worker_panics: Counter,
    active: Gauge,
    /// Registered only when the shard has a WAL.
    fsyncs: Counter,
    /// What each session on this shard feeds.
    session: Arc<SessionSeries>,
}

impl ShardSeries {
    fn new(registry: &Arc<Registry>, durable: bool) -> ShardSeries {
        ShardSeries {
            sessions: registry.counter("pstrace_stream_sessions_total"),
            completed: registry.counter("pstrace_stream_completed_total"),
            failed: registry.counter("pstrace_stream_failed_total"),
            parked: registry.counter("pstrace_stream_parked_total"),
            resumed: registry.counter("pstrace_stream_resumed_total"),
            recovered: registry.counter("pstrace_stream_recovered_total"),
            handoffs: registry.counter("pstrace_stream_handoffs_total"),
            metrics_requests: registry.counter("pstrace_stream_metrics_requests_total"),
            worker_panics: registry.counter("pstrace_stream_worker_panics_total"),
            active: registry.gauge("pstrace_stream_active_sessions"),
            fsyncs: if durable {
                registry.counter("pstrace_wal_fsyncs_total")
            } else {
                Counter::default()
            },
            session: Arc::new(SessionSeries::new(Arc::clone(registry))),
        }
    }
}

/// One shard's private state: the session lifecycle, with no sockets.
struct Shard {
    ctx: Arc<FleetCtx>,
    index: usize,
    registry: Arc<Registry>,
    series: ShardSeries,
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
    /// Builds shard `index`: opens its WAL writer (which creates nothing
    /// until the first append), seeds the token sequence above everything
    /// a previous life minted so recovered tokens are never re-issued, and
    /// re-parks the sessions recovery rebuilt for it.
    fn new(ctx: Arc<FleetCtx>, index: usize, now: Instant) -> Shard {
        let registry = Arc::clone(&ctx.registries[index + 1]);
        let shard_count = ctx.senders.len();
        let wal = ctx.wal_dir.as_ref().and_then(|dir| {
            WalWriter::open(
                dir,
                index,
                shard_count,
                ctx.epoch,
                ctx.config.durability,
                ctx.config.wal_budget,
            )
            .map_err(|_| degrade(&registry, "wal-append-degraded"))
            .ok()
        });
        // Resolved up front, so an idle daemon's exposition shows its
        // totals (and a durable one's fsyncs) at 0.
        let series = ShardSeries::new(&registry, wal.is_some());
        let recovered = ctx.recovered[index]
            .lock()
            .map(|mut slot| std::mem::take(&mut *slot))
            .unwrap_or_default();
        let mut shard = Shard {
            resume_seq: ctx.recovered_max_token / shard_count as u64 + 1,
            ctx,
            index,
            registry,
            series,
            parked: HashMap::new(),
            timers: BTreeSet::new(),
            wal,
        };
        shard.repark_recovered(recovered, now);
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

    /// Accounts one shed open: its flight events, its degradation and
    /// `pstrace_stream_shed_total{reason}`.
    fn shed(&self, reason: &str, trace: u64, session: u64) {
        self.note(trace, session, EventKind::Shed, reason);
        if reason == "tenant-quota-shed" {
            self.note(trace, session, EventKind::QuotaTrip, reason);
        }
        self.note_degrade(reason, trace, session);
        self.registry
            .counter_with("pstrace_stream_shed_total", &[("reason", reason)])
            .inc();
    }

    fn next_token(&mut self) -> u64 {
        let token = self.resume_seq * self.shard_count() as u64 + self.index as u64;
        self.resume_seq += 1;
        token
    }

    /// Runs one operation on this shard's WAL, if it has one, and
    /// publishes the syncs it issued as `pstrace_wal_fsyncs_total`.
    /// Returns whether it failed.
    fn wal_failed(&mut self, op: impl FnOnce(&mut WalWriter) -> io::Result<()>) -> bool {
        let Some(wal) = self.wal.as_mut() else {
            return false;
        };
        let before = wal.syncs();
        let failed = op(wal).is_err();
        self.series.fsyncs.add(wal.syncs() - before);
        failed
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
        if self.wal_failed(write) {
            self.note_degrade("wal-append-degraded", trace, session);
        }
    }

    /// Appends one lifecycle entry to this shard's WAL.
    fn wal_append(&mut self, record: WalRecord) {
        self.journal(0, 0, |wal| wal.append(&record));
    }

    /// Commits the open groups journaled since the last commit: under
    /// strict durability, one sync for all of them.
    fn commit(&mut self) {
        self.journal(0, 0, WalWriter::commit);
    }

    /// Whether an open group journaled here still waits for its commit.
    fn uncommitted(&self) -> bool {
        self.wal.as_ref().is_some_and(WalWriter::uncommitted)
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
        let mut session =
            open_session(&self.ctx, &hello, &self.series.session).map_err(Refused::Invalid)?;
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
            },
            session,
            _ticket: ticket,
        })
    }

    /// Opens a brand-new session, plain (`token` 0) or fresh-resumable.
    fn open_streaming(&mut self, hello: Hello, token: u64) -> Next {
        self.series.sessions.inc();
        let hello_trace = hello.trace;
        let error = match self.open_live(hello, token, None) {
            Ok(live) => {
                let r = &live.record;
                let (trace, id) = (r.trace, r.session_id);
                self.note(trace, id, EventKind::Open, "");
                self.note(trace, id, EventKind::Handshake, "");
                if token != 0 {
                    // Journal the open group unsynced; the shell holds the
                    // token's ack until the wake's commit has synced it,
                    // so an acked token is always recoverable.
                    self.journal(trace, id, |wal| {
                        wal.append_group(token, id, trace, r.scenario, r.mode, r.tenant, &r.schema)
                    });
                }
                return self.stream(live);
            }
            Err(Refused::Shed(shed)) => {
                self.shed(shed.reason, hello_trace, 0);
                StreamError::Protocol(shed.message)
            }
            Err(Refused::Invalid(e)) => e,
        };
        self.series.failed.inc();
        self.ctx.wake_waiters();
        Next::Reply(false, error.to_string())
    }

    /// Re-parks the sessions crash recovery rebuilt for this shard: each
    /// one re-enters through the one way in from its journaled hello and
    /// waits out a fresh grace period under its pre-crash token.
    fn repark_recovered(&mut self, sessions: Vec<SessionRecord>, now: Instant) {
        for r in sessions {
            let Some(live) = self.reopen(r) else {
                continue;
            };
            self.series.recovered.inc();
            let (trace, session_id) = (live.record.trace, live.record.session_id);
            self.note(trace, session_id, EventKind::Recover, "sessions-restored");
            self.park(live, now);
        }
    }

    /// Opens a fresh session from a journaled record, under its token and
    /// session id, for the client's retry to replay into. `None` (noted
    /// as a degradation) on a bad journaled hello, or when the governor
    /// refuses the seat: shed rather than oversubscribe.
    fn reopen(&mut self, r: SessionRecord) -> Option<Live> {
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
        if live.is_none() {
            self.note_degrade("wal-session-skipped", trace, session_id);
        }
        live
    }

    /// Parks a resumable session for a fresh grace period from `now`.
    fn park(&mut self, live: Live, now: Instant) {
        let deadline = now + self.ctx.config.resume_grace;
        self.parked.insert(live.record.token, (live, deadline));
        self.timers.insert((deadline, Timer::Parked));
    }

    /// Hands an opened or picked-up session to the shell for streaming.
    fn stream(&self, live: Live) -> Next {
        self.series.active.add(1);
        let ack = live.token().map(|_| live.session.metrics().bytes);
        Next::Stream(Box::new(live), ack)
    }

    /// Dispatches the request connection `id` opened with.
    fn handle_request(&mut self, id: u64, request: Request) -> Next {
        match request {
            Request::Metrics => {
                self.series.metrics_requests.inc();
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
                if id % self.shard_count() as u64 != self.index as u64 {
                    // Routed here by its token, past the shard of its
                    // connection id.
                    self.series.handoffs.inc();
                    self.note(hello.trace, token, EventKind::Handoff, "");
                }
                let picked = if epoch == self.ctx.epoch {
                    self.pick_up(token, &hello)
                } else {
                    // The token was minted under a different WAL lineage
                    // (another daemon, another --wal-dir, or a pre-crash
                    // life whose journal this daemon never saw). Splicing
                    // it into a live table would corrupt someone else's
                    // session; shed it politely instead.
                    self.shed("resume-epoch-shed", hello.trace, token);
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
        self.series.resumed.inc();
        self.note(
            live.record.trace,
            live.record.session_id,
            EventKind::Resume,
            "",
        );
        Ok(live)
    }

    /// Feeds one chunk into a streaming session; `Some` when the chunk
    /// ends it.
    fn handle_chunk(&mut self, live: &mut Live, chunk: Chunk) -> Option<Outcome> {
        match chunk {
            Chunk::Data(bytes) => {
                live.session.push_chunk(&bytes);
                let message = self.ctx.config.limits.exceeded(&live.session.metrics())?;
                self.note_degrade("budget-close", live.record.trace, live.record.session_id);
                Some(Outcome::Failed {
                    reason: "budget-close",
                    message,
                })
            }
            Chunk::Finish { bit_len } => Some(Outcome::Finished { bit_len }),
        }
    }

    /// The one way out of `conn`'s streaming session: transport death,
    /// budget close, FINISH and panic teardown all end here. The session
    /// stops counting as active and clears its frontier gauges. A parked
    /// session keeps its seat and token; any other end frees the seat,
    /// and a resumable session leaves its record on `conn`: its token
    /// dies only once the reader has written the reply, when `Closed`
    /// journals its `Complete`. A crash before then, or a failed write,
    /// re-parks the token, and the client's retry replays to the same
    /// report. Returns the reply the client is owed, if any (`None` too
    /// when `conn` streams nothing).
    fn end(&mut self, conn: &mut Conn, outcome: Outcome, now: Instant) -> Option<(bool, String)> {
        let live = *conn.live.take()?;
        self.series.active.sub(1);
        live.session.clear_frontier();
        let (trace, id) = (live.record.trace, live.record.session_id);
        let reply = match outcome {
            Outcome::Parked => {
                self.series.parked.inc();
                self.note(trace, id, EventKind::Park, "session-parked");
                self.note_degrade("session-parked", trace, id);
                self.park(live, now);
                return None;
            }
            Outcome::Finished { bit_len } => {
                let scenario = live.record.scenario;
                let report = live.session.finish(Some(bit_len));
                self.note(trace, id, EventKind::Finish, "");
                self.note(trace, id, EventKind::Close, "");
                self.series.completed.inc();
                let text = format!(
                    "session over scenario {scenario} ({:?} match)\n{}",
                    report.mode,
                    report.render()
                );
                (true, text)
            }
            Outcome::Failed { reason, message } => {
                self.note(trace, id, EventKind::Close, reason);
                self.series.failed.inc();
                (false, message)
            }
        };
        conn.ended = (live.record.token != 0).then_some(live.record);
        self.ctx.wake_waiters();
        Some(reply)
    }

    /// Drops every parked session whose grace period is over at `now`;
    /// each expiry journals `Complete` so recovery does not resurrect a
    /// dead token (after a power loss that drops the entry, the re-parked
    /// session simply expires again).
    fn expire_parked(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .parked
            .iter()
            .filter(|(_, (_, deadline))| *deadline <= now)
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            self.parked.remove(&token);
            self.wal_append(WalRecord::Complete { token });
        }
    }

    /// Rotation once the journal has grown by its disk budget: every
    /// resumable session whose token is not dead yet — parked here, or
    /// `held` by a connection — is compacted into a fresh generation that
    /// replaces the journal.
    fn maybe_rotate<'a>(&mut self, held: impl Iterator<Item = &'a SessionRecord>) {
        if !self.wal.as_ref().is_some_and(WalWriter::needs_rotation) {
            return;
        }
        let live: Vec<SessionRecord> = self
            .parked
            .values()
            .map(|(live, _)| live.record.clone())
            .chain(held.filter(|record| record.token != 0).cloned())
            .collect();
        // Rotation is the disk-pressure rung of the ladder: count it.
        self.note_degrade("wal-rotate", 0, 0);
        if self.wal_failed(|wal| wal.rotate(&live)) {
            // Compacting failed; whichever journal the rename left in
            // place still recovers everything, so degrade and carry on.
            self.note_degrade("wal-checkpoint-degraded", 0, 0);
        }
    }
}

/// One connection owned by a shard.
#[derive(Debug)]
struct Conn {
    link: Link,
    inbuf: Vec<u8>,
    /// The session being streamed into; `None` once closed, waiting for
    /// the reader's `Closed`.
    live: Option<Box<Live>>,
    /// The resumable session that ended here, until the reader's `Closed`
    /// says whether its reply is out (its `Complete` is journaled) or not
    /// (it is parked again).
    ended: Option<SessionRecord>,
    /// The encoded resume ack this connection is owed, held until the
    /// wake's commit has synced the session's open group.
    ack: Option<Vec<u8>>,
    /// A close decided while the ack was still held, with the encoded
    /// reply the reader is then owed (empty when none is): the commit
    /// hands the reader both, the ack first.
    held: Option<Vec<u8>>,
    last_progress: Instant,
    /// The deadline this connection holds in the shard's timer set.
    armed: Option<Instant>,
    peer_gone: bool,
}

impl Conn {
    fn new(link: Link, now: Instant) -> Conn {
        Conn {
            link,
            inbuf: Vec::new(),
            live: None,
            ended: None,
            ack: None,
            held: None,
            last_progress: now,
            armed: None,
            peer_gone: false,
        }
    }

    /// The record of the session this connection holds: the one it
    /// streams, or the one that ended here and awaits `Closed`.
    fn record(&self) -> Option<&SessionRecord> {
        self.live
            .as_ref()
            .map(|live| &live.record)
            .or(self.ended.as_ref())
    }

    /// When this connection times out: the idle deadline while
    /// streaming. A closing connection's reply write carries its own
    /// timeout.
    fn due(&self, ctx: &FleetCtx) -> Option<Instant> {
        self.live
            .as_ref()
            .map(|_| self.last_progress + ctx.config.read_timeout)
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
}

impl Shard {
    /// A connection's first message: serves its request, or closes a
    /// connection that sent none (`handshake-deadline`). A streaming
    /// resumable session's ack is left on `conn` for the wake's commit.
    fn open(&mut self, id: u64, conn: &mut Conn, opening: Opening) -> Verdict {
        let request = match opening {
            Ok(request) => request,
            Err(reply) => {
                self.note_degrade("handshake-deadline", 0, 0);
                return Verdict::Close(reply.map(|text| (false, text)));
            }
        };
        match self.handle_request(id, request) {
            Next::Reply(ok, text) => Verdict::Close(Some((ok, text))),
            Next::Stream(live, ack) => {
                if let Some(offset) = ack {
                    let mut bytes = Vec::new();
                    let _ = proto::write_resume_ack(
                        &mut bytes,
                        live.record.token,
                        offset,
                        self.ctx.epoch,
                    );
                    conn.ack = Some(bytes);
                }
                conn.live = Some(live);
                Verdict::Keep
            }
        }
    }

    /// A streaming session's transport died (EOF, error, protocol damage
    /// or idle deadline).
    fn streaming_death(&mut self, conn: &mut Conn, why: &str, now: Instant) -> Verdict {
        let Some(outcome) = conn.live.as_ref().map(|live| live.death(why)) else {
            return Verdict::Close(None);
        };
        match self.end(conn, outcome, now) {
            // The transport still works (protocol damage): tell the
            // client, then close.
            Some(reply) if !conn.peer_gone => Verdict::Close(Some(reply)),
            _ => Verdict::Close(None),
        }
    }

    /// Feeds the session as many complete chunks as the inbuf holds,
    /// then drops the bytes they took in one move.
    fn process(&mut self, conn: &mut Conn, now: Instant) -> Verdict {
        let mut used = 0;
        let verdict = loop {
            let Some(live) = &mut conn.live else {
                // Anything the client sent past its request is
                // irrelevant once the connection is closing.
                used = conn.inbuf.len();
                break Verdict::Keep;
            };
            match proto::decode_chunk(&conn.inbuf[used..]) {
                Ok(Some((chunk, n))) => {
                    used += n;
                    if let Some(outcome) = self.handle_chunk(live, chunk) {
                        break Verdict::Close(self.end(conn, outcome, now));
                    }
                }
                Ok(None) if conn.peer_gone => {
                    break self.streaming_death(conn, "transport closed mid-stream", now)
                }
                Ok(None) => break Verdict::Keep,
                // Any chunk error is transport death: resumable
                // sessions park and a reconnect picks them back up.
                Err(e) => break self.streaming_death(conn, &e.to_string(), now),
            }
        };
        conn.inbuf.drain(..used);
        verdict
    }

    /// A panic escaped a connection's step: the connection's session
    /// ends like any other failure, and the connection closes.
    fn respawn(&mut self, conn: &mut Conn, now: Instant) -> Verdict {
        self.series.worker_panics.inc();
        self.note(0, 0, EventKind::Respawn, "worker-respawn");
        self.note_degrade("worker-respawn", 0, 0);
        let outcome = Outcome::Failed {
            reason: "worker-respawn",
            message: String::new(),
        };
        self.end(conn, outcome, now);
        Verdict::Close(None)
    }
}

/// One shard's socket shell: the lifecycle core plus its connections.
struct Shell {
    shard: Shard,
    /// Open connections by connection id.
    conns: HashMap<u64, Conn>,
    /// Connections holding a resume ack for the wake's commit, in
    /// message order.
    acks: Vec<u64>,
}

impl Shell {
    fn new(shard: Shard) -> Shell {
        Shell {
            shard,
            conns: HashMap::new(),
            acks: Vec::new(),
        }
    }

    /// Handles one inbox message; only the connection it names advances.
    fn receive(&mut self, msg: ShardMsg, now: Instant) {
        match msg {
            ShardMsg::Open(id, link, opening) => {
                self.conns.insert(id, Conn::new(link, now));
                self.shard.ctx.note_routed(id);
                self.step(id, now, |shard, conn| shard.open(id, conn, opening));
                if self.conns.get(&id).is_some_and(|conn| conn.ack.is_some()) {
                    self.acks.push(id);
                }
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
                self.step(id, now, |shard, conn| shard.process(conn, now));
            }
            ShardMsg::Eof(id) => {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                conn.peer_gone = true;
                self.step(id, now, |shard, conn| shard.process(conn, now));
            }
            ShardMsg::Closed(id, delivered) => {
                if let Some(mut conn) = self.conns.remove(&id) {
                    conn.disarm(id, &mut self.shard.timers);
                    match conn.ended {
                        // The reply is out: the ended session's token dies.
                        Some(ended) if delivered => {
                            let token = ended.token;
                            self.shard.wal_append(WalRecord::Complete { token });
                        }
                        // The reply never reached the client: its retry
                        // resumes the token and replays to the same report,
                        // as after a crash. A token that cannot be parked
                        // again dies here, not in a later life.
                        Some(ended) => {
                            let token = ended.token;
                            match self.shard.reopen(ended) {
                                Some(live) => {
                                    self.shard.note(
                                        live.record.trace,
                                        live.record.session_id,
                                        EventKind::Park,
                                        "reply-unsent",
                                    );
                                    self.shard.park(live, now);
                                }
                                None => self.shard.wal_append(WalRecord::Complete { token }),
                            }
                        }
                        None => {}
                    }
                }
            }
            ShardMsg::Wake => {}
        }
    }

    /// Runs one step of connection `id` and applies its verdict. A panic
    /// costs exactly this connection. A close decided while the
    /// connection still holds its ack is held too, for the commit.
    fn step(&mut self, id: u64, now: Instant, f: impl FnOnce(&mut Shard, &mut Conn) -> Verdict) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let shard = &mut self.shard;
        let verdict = catch_unwind(AssertUnwindSafe(|| f(shard, conn)))
            .unwrap_or_else(|_| shard.respawn(conn, now));
        match verdict {
            Verdict::Keep => conn.arm(id, &shard.ctx, &mut shard.timers),
            Verdict::Close(reply) => {
                conn.disarm(id, &mut shard.timers);
                let reply = reply.map(|(ok, text)| {
                    let mut bytes = Vec::new();
                    let _ = proto::write_reply(&mut bytes, ok, &text);
                    bytes
                });
                if conn.ack.is_some() {
                    conn.held.get_or_insert(reply.unwrap_or_default());
                } else {
                    conn.link.close(reply);
                }
            }
        }
    }

    /// The wake's commit, after its batch of messages: under strict
    /// durability one sync covers every open group the batch journaled;
    /// then each held ack goes out, in message order. A connection whose
    /// close is held too hands its reader the ack with the reply behind
    /// it, which the reader writes as one: the reply cannot overtake the
    /// ack, and a write that fails re-parks a resumable session's token
    /// as any failed reply does. Any other ack is written here, and one
    /// that fails is the session's transport death.
    fn commit(&mut self, now: Instant) {
        self.shard.commit();
        for id in std::mem::take(&mut self.acks) {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            let Some(mut ack) = conn.ack.take() else {
                continue;
            };
            debug_assert!(
                !self.shard.uncommitted(),
                "an ack would leave before its open group's sync"
            );
            if let Some(reply) = conn.held.take() {
                ack.extend(reply);
                conn.link.close(Some(ack));
            } else if conn.link.write_ack(&ack).is_err() {
                conn.peer_gone = true;
                self.step(id, now, |shard, conn| {
                    shard.streaming_death(conn, "transport closed", now)
                });
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
                        self.step(id, now, |shard, conn| {
                            shard.streaming_death(conn, "session idle past deadline", now)
                        });
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

/// The most inbox messages one wake handles before the shard commits
/// its open groups, fires its due timers, rotates its WAL and checks for
/// shutdown.
const WAKE_BATCH: usize = 64;

/// The shard thread body: wait for a message or the next due timer,
/// handle what woke it, commit, and drain once shutdown is flagged.
pub(crate) fn run_shard(ctx: Arc<FleetCtx>, index: usize, inbox: &Receiver<ShardMsg>) {
    let mut shell = Shell::new(Shard::new(ctx, index, Instant::now()));
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
        // still run between batches. The batch is what the inbox already
        // holds: nothing waits for more. It also ends early once a timer
        // is due or the drain begins, so a slow message (64 KiB of
        // decode) holds neither off for the rest of the batch.
        let mut now = Instant::now();
        let batch = first
            .into_iter()
            .chain(inbox.try_iter().take(WAKE_BATCH - 1));
        for msg in batch {
            shell.receive(msg, now);
            now = Instant::now();
            let due = shell.shard.timers.first().is_some_and(|&(at, _)| at <= now);
            if due || (!draining && shell.shard.ctx.shutdown.load(Ordering::SeqCst)) {
                break;
            }
        }
        // Sessions opened in this wake share one sync, and only then are
        // they acked.
        shell.commit(now);
        let drained = shell.fire(now);

        // Disk-pressure rotation: compact the live sessions into a fresh
        // journal.
        shell
            .shard
            .maybe_rotate(shell.conns.values().filter_map(Conn::record));

        if shell.shard.ctx.shutdown.load(Ordering::SeqCst) {
            if !draining {
                draining = true;
                shell.shard.note(0, 0, EventKind::Drain, "");
                let deadline = now + shell.shard.ctx.config.drain_timeout;
                shell.shard.timers.insert((deadline, Timer::Drain));
            }
            // A connection not yet routed may still be routed here.
            if (shell.conns.is_empty() && shell.shard.ctx.unrouted().is_empty()) || drained {
                break;
            }
        }
    }
    // Past the drain deadline, a connection still without a request is
    // cut off rather than waited for until its handshake deadline.
    for wire in shell.shard.ctx.unrouted().values() {
        wire.shut_read();
    }
    // The drain edge syncs what no commit has yet: the whole journal
    // under lazy durability, the trailing `Complete` entries under
    // strict. A shard that never journaled has no journal, and syncs
    // nothing. A connection the deadline cut off before its `Closed`
    // keeps its ended session's token: the next life re-parks it.
    let _ = shell.shard.wal_failed(WalWriter::sync);
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::io::Read as _;
    use std::net::{TcpListener, TcpStream};
    use std::path::Path;
    use std::time::Duration;

    use pstrace_diag::MatchMode;
    use pstrace_obs::DEFAULT_FLIGHT_CAPACITY;
    use pstrace_soc::{wirecap, SimConfig, Simulator, TraceBufferConfig};
    use pstrace_wire::{read_ptw_header, write_ptw, ProfileV1};

    use super::*;
    use crate::reader::Wire;
    use crate::recover::recover_state;
    use crate::server::{scenario_by_number, SessionLimits};
    use crate::wal::DurabilityPolicy;

    const EPOCH: u64 = 0x5eed;

    /// A lifecycle core on a temp strict WAL in its socket shell, plus one
    /// scenario-1 capture split into its handshake and payload. Sockets
    /// only carry the connections that sessions end on.
    struct Rig {
        shell: Shell,
        listener: TcpListener,
        peers: Vec<TcpStream>,
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
            &ProfileV1,
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
            shell: Shell::new(Shard::new(Arc::new(ctx), 0, Instant::now())),
            listener: TcpListener::bind("127.0.0.1:0").unwrap(),
            peers: Vec::new(),
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
            match self.shell.shard.handle_request(0, request) {
                Next::Stream(live, Some(offset)) => (live, offset),
                other => panic!("expected a resumable stream, got {other:?}"),
            }
        }

        /// Ends `live` on a loopback connection of its own, as the shell
        /// does: the connection's id and the reply the client is owed.
        fn end(&mut self, live: Box<Live>, outcome: Outcome) -> (u64, Option<(bool, String)>) {
            let addr = self.listener.local_addr().unwrap();
            self.peers.push(TcpStream::connect(addr).unwrap());
            let (stream, _) = self.listener.accept().unwrap();
            let id = self.peers.len() as u64;
            let now = Instant::now();
            let conn = self
                .shell
                .conns
                .entry(id)
                .or_insert_with(|| Conn::new(Link::new(&Wire::new(stream)), now));
            conn.live = Some(live);
            (id, self.shell.shard.end(conn, outcome, now))
        }

        /// A new connection whose reader decoded `request`, on a loopback
        /// connection of its own: its id, the client's end and the wire
        /// its reader would serve.
        fn open(&mut self, request: Request) -> (u64, TcpStream, Arc<Wire>) {
            let addr = self.listener.local_addr().unwrap();
            let peer = TcpStream::connect(addr).unwrap();
            peer.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let (stream, _) = self.listener.accept().unwrap();
            let wire = Wire::new(stream);
            self.peers.push(peer.try_clone().unwrap());
            let id = self.peers.len() as u64;
            let msg = ShardMsg::Open(id, Link::new(&wire), Ok(request));
            self.shell.receive(msg, Instant::now());
            (id, peer, wire)
        }

        /// A fresh resumable session's request.
        fn fresh(&self) -> Request {
            Request::Resume {
                token: 0,
                epoch: 0,
                hello: self.hello.clone(),
            }
        }

        /// The whole capture as the client pipelines it: one DATA chunk,
        /// then FINISH.
        fn upload(&self) -> Vec<u8> {
            let mut bytes = Vec::new();
            proto::write_data(&mut bytes, &self.payload).unwrap();
            proto::write_finish(&mut bytes, self.bit_len).unwrap();
            bytes
        }

        fn syncs(&self) -> u64 {
            self.shell.shard.wal.as_ref().unwrap().syncs()
        }

        /// The reader of connection `id` is done: its reply written
        /// whole (`delivered`) or not.
        fn closed(&mut self, id: u64, delivered: bool) {
            self.shell
                .receive(ShardMsg::Closed(id, delivered), Instant::now());
        }

        fn feed(&mut self, live: &mut Live, bytes: &[u8]) -> Option<Outcome> {
            self.shell
                .shard
                .handle_chunk(live, Chunk::Data(bytes.to_vec()))
        }

        fn active(&self) -> i64 {
            self.shell
                .shard
                .registry
                .gauge("pstrace_stream_active_sessions")
                .get()
        }

        /// Recovery from the WAL directory must rebuild exactly the
        /// tokens the core still holds: parked here, `streaming`, or on a
        /// connection whose reader has not said `Closed` yet.
        fn assert_durable(&self, streaming: &[&Live], step: &str) {
            let held: BTreeSet<u64> = self
                .shell
                .shard
                .parked
                .keys()
                .copied()
                .chain(streaming.iter().filter_map(|live| live.token()))
                .chain(
                    self.shell
                        .conns
                        .values()
                        .filter_map(Conn::record)
                        .map(|r| r.token),
                )
                .collect();
            assert_eq!(recovered_tokens(&self.dir), held, "after {step}");
        }
    }

    /// Whether the client has been sent nothing yet.
    fn nothing_sent(peer: &TcpStream) -> bool {
        peer.set_nonblocking(true).unwrap();
        let read = (&*peer).read(&mut [0u8; 1]);
        peer.set_nonblocking(false).unwrap();
        matches!(read, Err(e) if e.kind() == io::ErrorKind::WouldBlock)
    }

    /// Reads a resume ack off `peer`: its token.
    fn read_ack(peer: &mut impl io::Read) -> u64 {
        let ack = proto::read_reply(peer).unwrap();
        proto::parse_resume_ack(&ack).unwrap().0
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
            rig.end(live, outcome).1.is_none(),
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
            .shell
            .shard
            .handle_chunk(
                &mut live,
                Chunk::Finish {
                    bit_len: rig.bit_len,
                },
            )
            .expect("FINISH ends the session");
        let (conn, reply) = rig.end(live, outcome);
        let (ok, report) = reply.expect("a report");
        assert!(ok, "{report}");
        assert!(report.starts_with("session over scenario 1"), "{report}");
        rig.assert_durable(&[], "finish");
        rig.closed(conn, true);
        assert!(!recovered_tokens(&rig.dir).contains(&token));
        rig.assert_durable(&[], "closed");
        assert_eq!(rig.active(), 0);
    }

    #[test]
    fn an_expired_parked_session_leaves_the_journal() {
        let mut rig = rig("expire", ServerConfig::default());
        let (live, _) = rig.resume(0);
        let outcome = live.death("transport closed");
        rig.end(live, outcome);
        rig.assert_durable(&[], "park");

        rig.shell.shard.expire_parked(Instant::now());
        assert_eq!(
            rig.shell.shard.parked.len(),
            1,
            "still inside its grace period"
        );
        let grace = rig.shell.shard.ctx.config.resume_grace;
        rig.shell
            .shard
            .expire_parked(Instant::now() + grace + Duration::from_secs(1));
        assert!(rig.shell.shard.parked.is_empty());
        rig.assert_durable(&[], "expire");
        assert_eq!(rig.active(), 0);
    }

    #[test]
    fn a_damage_storm_cannot_erase_another_sessions_timeline() {
        use pstrace_wire::{decode_with, encode_records, WireRecord};

        let mut rig = rig("storm", ServerConfig::default());
        let open_plain = |rig: &mut Rig| {
            let request = Request::Session(rig.hello.clone());
            match rig.shell.shard.handle_request(0, request) {
                Next::Stream(live, None) => live,
                other => panic!("expected a plain stream, got {other:?}"),
            }
        };
        let mut quiet = open_plain(&mut rig);
        let quiet_id = quiet.record.session_id;
        let payload = rig.payload.clone();
        assert!(rig.feed(&mut quiet, &payload).is_none());
        let bit_len = rig.bit_len;
        let (_, reply) = rig.end(quiet, Outcome::Finished { bit_len });
        assert!(reply.expect("a report").0);

        // Two clean records, then 10^4 that regress below them.
        let catalog = rig.shell.shard.ctx.model.catalog();
        let (schema, _, _) = read_ptw_header(catalog, &rig.hello.schema).unwrap();
        let first = decode_with(&ProfileV1, &schema, &payload, Some(bit_len)).records[0];
        let records: Vec<WireRecord> = [100, 200]
            .into_iter()
            .chain(std::iter::repeat(0).take(10_000))
            .map(|time| WireRecord { time, ..first })
            .collect();
        let storm_stream = encode_records(&schema, &records, None).unwrap();
        let mut storm = open_plain(&mut rig);
        let storm_id = storm.record.session_id;
        for chunk in storm_stream.bytes.chunks(4096) {
            assert!(rig.feed(&mut storm, chunk).is_none());
        }
        assert_eq!(storm.session.metrics().damaged_frames, 10_000);
        let bit_len = storm_stream.bit_len;
        rig.end(storm, Outcome::Finished { bit_len });

        let flight = rig.shell.shard.ctx.flight.snapshot();
        assert!(flight.events.len() < DEFAULT_FLIGHT_CAPACITY);
        let damage = flight
            .events
            .iter()
            .filter(|e| e.session == storm_id && e.kind == EventKind::Damage)
            .count();
        assert!(damage <= 17, "{damage} damage events");
        for kind in [EventKind::Open, EventKind::Close] {
            assert!(
                flight
                    .events
                    .iter()
                    .any(|e| e.session == quiet_id && e.kind == kind),
                "the quiet session's {kind:?} was overwritten"
            );
        }
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
        let token = live.record.token;
        let (conn, reply) = rig.end(live, outcome);
        let (ok, message) = reply.expect("an error reply");
        assert!(!ok);
        let budget = format!("byte budget ({} > 16)", payload.len());
        assert!(message.contains(&budget), "{message}");
        rig.assert_durable(&[], "budget-close");
        rig.closed(conn, true);
        assert!(!recovered_tokens(&rig.dir).contains(&token));
        rig.assert_durable(&[], "closed");
        assert_eq!(rig.active(), 0);
    }

    #[test]
    fn rotation_compacts_parked_and_streaming_sessions() {
        let config = ServerConfig {
            wal_budget: 0,
            ..ServerConfig::default()
        };
        let mut rig = rig("rotate", config);
        let (parked, _) = rig.resume(0);
        let (mut streaming, _) = rig.resume(0);
        let outcome = parked.death("transport closed");
        rig.end(parked, outcome);
        rig.assert_durable(&[&streaming], "park one");

        rig.shell
            .shard
            .maybe_rotate(std::iter::once(&streaming.record));
        let journal = std::fs::read(crate::wal::wal_path(&rig.dir, 0)).unwrap();
        // Open entry and schema chunks per live session.
        let chunks = rig
            .hello
            .schema
            .len()
            .div_ceil(crate::wal::SCHEMA_CHUNK_BYTES);
        let group = 1 + chunks;
        assert_eq!(
            journal.len(),
            (1 + 2 * group) * crate::wal::WAL_ENTRY_BYTES,
            "rotation leaves the epoch header and the two live sessions"
        );
        assert_eq!(
            std::fs::read_dir(&rig.dir).unwrap().count(),
            1,
            "the journal is the directory's only file"
        );
        rig.assert_durable(&[&streaming], "rotate");

        let outcome = rig
            .shell
            .shard
            .handle_chunk(&mut streaming, Chunk::Finish { bit_len: 0 })
            .unwrap();
        let token = streaming.record.token;
        let (conn, _) = rig.end(streaming, outcome);
        rig.assert_durable(&[], "finish after rotation");
        rig.closed(conn, true);
        assert!(!recovered_tokens(&rig.dir).contains(&token));
        rig.assert_durable(&[], "closed after rotation");
        assert_eq!(rig.shell.shard.parked.len(), 1);
        assert_eq!(rig.active(), 0);
    }

    #[test]
    fn a_finished_session_keeps_its_token_until_the_reply_is_out() {
        let config = ServerConfig {
            wal_budget: 0,
            ..ServerConfig::default()
        };
        let mut rig = rig("reply", config);
        let (mut live, _) = rig.resume(0);
        let token = live.record.token;
        let payload = rig.payload.clone();
        assert!(rig.feed(&mut live, &payload).is_none());
        let bit_len = rig.bit_len;
        let outcome = rig
            .shell
            .shard
            .handle_chunk(&mut live, Chunk::Finish { bit_len })
            .expect("FINISH ends the session");
        let (conn, reply) = rig.end(live, outcome);
        assert!(reply.is_some_and(|(ok, _)| ok), "a report is owed");

        // FINISH is in and the reply is not out: a crash now must leave
        // the token to the client's retry, across a rotation too.
        assert!(recovered_tokens(&rig.dir).contains(&token), "after FINISH");
        rig.shell
            .shard
            .maybe_rotate(rig.shell.conns.values().filter_map(Conn::record));
        let chunks = rig
            .hello
            .schema
            .len()
            .div_ceil(crate::wal::SCHEMA_CHUNK_BYTES);
        let journal = std::fs::read(crate::wal::wal_path(&rig.dir, 0)).unwrap();
        assert_eq!(
            journal.len(),
            (2 + chunks) * crate::wal::WAL_ENTRY_BYTES,
            "the rotation kept the epoch header and the ended session's open group"
        );
        assert!(
            recovered_tokens(&rig.dir).contains(&token),
            "after rotation"
        );

        rig.closed(conn, true);
        assert!(
            !recovered_tokens(&rig.dir).contains(&token),
            "the reply is out, so the token is dead"
        );
        rig.assert_durable(&[], "closed");
    }

    #[test]
    fn a_reply_that_fails_to_write_re_parks_its_token() {
        let mut rig = rig("unsent", ServerConfig::default());
        let payload = rig.payload.clone();
        let bit_len = rig.bit_len;
        let finish = |rig: &mut Rig, mut live: Box<Live>| {
            assert!(rig.feed(&mut live, &payload).is_none());
            let outcome = rig
                .shell
                .shard
                .handle_chunk(&mut live, Chunk::Finish { bit_len })
                .expect("FINISH ends the session");
            rig.end(live, outcome)
        };
        let (live, _) = rig.resume(0);
        let token = live.record.token;
        let (conn, oracle) = finish(&mut rig, live);
        assert!(
            oracle.as_ref().is_some_and(|(ok, _)| *ok),
            "a report is owed"
        );

        // The reader's write failed: no `Complete`, and the token is
        // parked again for the client's retry.
        rig.closed(conn, false);
        assert!(rig.shell.shard.parked.contains_key(&token));
        assert!(
            recovered_tokens(&rig.dir).contains(&token),
            "after the failed write"
        );
        rig.assert_durable(&[], "failed write");

        // The retry resumes from offset 0, replays, and gets the report
        // the failed write carried; once that reply is out the token dies.
        let (live, offset) = rig.resume(token);
        assert_eq!(offset, 0);
        let (conn, reply) = finish(&mut rig, live);
        // Equal but for the ingest line's wall-clock rate.
        let steady = |reply: &Option<(bool, String)>| {
            reply.as_ref().map(|(ok, text)| {
                let lines: Vec<&str> = text.lines().filter(|l| !l.contains("B/s")).collect();
                (*ok, lines.join("\n"))
            })
        };
        assert_eq!(steady(&reply), steady(&oracle));
        rig.closed(conn, true);
        assert!(!rig.shell.shard.parked.contains_key(&token));
        assert!(
            !recovered_tokens(&rig.dir).contains(&token),
            "after the reply"
        );
        rig.assert_durable(&[], "delivered");
    }

    #[test]
    fn a_failed_reply_write_with_no_free_seat_ends_its_token() {
        let config = ServerConfig {
            max_sessions: Some(1),
            ..ServerConfig::default()
        };
        let mut rig = rig("unsent-full", config);
        let (mut live, _) = rig.resume(0);
        let token = live.record.token;
        let bit_len = rig.bit_len;
        let outcome = rig
            .shell
            .shard
            .handle_chunk(&mut live, Chunk::Finish { bit_len })
            .expect("FINISH ends the session");
        let (conn, _) = rig.end(live, outcome);
        // Another session takes the one seat before the write fails: the
        // token cannot be parked again, so it dies now rather than come
        // back in a later life.
        let (other, _) = rig.resume(0);
        rig.closed(conn, false);
        assert!(!rig.shell.shard.parked.contains_key(&token));
        assert!(!recovered_tokens(&rig.dir).contains(&token));
        rig.assert_durable(&[&other], "refused re-park");
    }

    #[test]
    fn fresh_opens_in_one_wake_share_one_sync_and_are_acked_after_it() {
        let mut rig = rig("group", ServerConfig::default());
        let before = rig.syncs();
        let (_, mut streaming, streaming_wire) = rig.open(rig.fresh());
        let (finished, finishing, finishing_wire) = rig.open(rig.fresh());
        let upload = rig.upload();
        finishing_wire.charge(upload.len());
        rig.shell
            .receive(ShardMsg::Read(finished, upload), Instant::now());

        // Before the commit: both groups journaled, none synced, no ack
        // sent, and the session that finished has handed its reader no
        // reply.
        assert_eq!(rig.syncs(), before, "no sync before the commit");
        assert!(nothing_sent(&streaming) && nothing_sent(&finishing));
        assert!(!streaming_wire.closing() && !finishing_wire.closing());
        assert_eq!(rig.shell.acks.len(), 2);

        rig.shell.commit(Instant::now());
        assert_eq!(rig.syncs() - before, 1, "two open groups, one sync");

        // The streaming session's ack is out; the finished session's
        // reader has its ack, then its report, to write as one.
        let a = read_ack(&mut streaming);
        assert!(!streaming_wire.closing(), "still streaming");
        assert!(nothing_sent(&finishing), "the reader writes the ack");
        assert!(finishing_wire.closing());
        let written = finishing_wire.verdict().expect("a report is owed");
        let mut written = written.as_slice();
        let b = read_ack(&mut written);
        let report = proto::read_reply(&mut written).unwrap();
        assert!(report.starts_with("session over scenario 1"), "{report}");
        assert!(written.is_empty());
        assert_ne!(a, b);
        let tokens = recovered_tokens(&rig.dir);
        assert!(tokens.contains(&a) && tokens.contains(&b), "{tokens:?}");
        rig.assert_durable(&[], "commit");

        // A commit with no new group syncs nothing.
        rig.shell.commit(Instant::now());
        assert_eq!(rig.syncs() - before, 1);
    }

    #[test]
    fn a_lone_open_pays_one_sync_and_a_resume_by_token_none() {
        let mut rig = rig("lone", ServerConfig::default());
        let before = rig.syncs();
        let (id, mut peer, _) = rig.open(rig.fresh());
        assert!(nothing_sent(&peer));
        rig.shell.commit(Instant::now());
        assert_eq!(rig.syncs() - before, 1);
        let token = read_ack(&mut peer);

        // The transport dies; the session parks, then resumes by token.
        rig.shell.receive(ShardMsg::Eof(id), Instant::now());
        assert!(rig.shell.shard.parked.contains_key(&token));
        let request = Request::Resume {
            token,
            epoch: EPOCH,
            hello: rig.hello.clone(),
        };
        let (_, mut peer, _) = rig.open(request);
        assert!(nothing_sent(&peer), "the resume ack waits for the commit");
        rig.shell.commit(Instant::now());
        assert_eq!(read_ack(&mut peer), token);
        assert_eq!(rig.syncs() - before, 1, "a resume journals no group");
    }
}
