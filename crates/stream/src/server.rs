//! The `pstraced` ingest daemon: a std-only, event-loop TCP server for
//! live trace streams at fleet scale.
//!
//! One connection carries one request (see [`proto`](crate::proto)): a
//! SESSION request streams hello → chunks → report, a METRICS request
//! gets the daemon's merged Prometheus exposition back, a SESSION_RESUME
//! request opens (or picks back up) a *resumable* session that survives
//! transport death, and a SHUTDOWN request drains the daemon.
//!
//! # Architecture
//!
//! Every daemon thread blocks until something happens; none polls. The
//! accept thread (`pstrace-accept`) blocks in `accept`, numbers each
//! connection and hands its socket to a pooled reader thread
//! (`pstrace-conn`, see the `reader` module); a reader left without a
//! connection for a handshake timeout retires. The reader blocks in
//! `read` until the request decodes (or the handshake deadline passes),
//! then opens the connection on the one shard of
//! [`ServerConfig::shards`] it routes to: a resume token's owner (tokens
//! encode their owning shard, so session pinning survives a reconnect
//! landing anywhere), otherwise the shard of the connection id. From
//! then on it forwards the connection's bytes to that shard's inbox.
//! Each shard (`pstrace-shard-<i>`, see the `shard` module) is a single
//! thread owning its connection table, its parked-session lot, its
//! timers and its own metrics [`Registry`](pstrace_obs::Registry) — the
//! chunk-ingest hot path crosses no locks. It blocks on its inbox until
//! a message arrives or its next deadline is due. Final replies are
//! written by the connection's reader, so a client that stops reading
//! stalls only its own reader. Shutdown — [`Server::shutdown`] or the
//! SHUTDOWN verb, one code path — flags the drain, wakes every shard and
//! wakes the blocked `accept` with one loopback self-connect; the drain
//! also waits for accepted connections whose request is still on its
//! way, and cuts them off at its deadline.
//! [`Server::snapshot`] and the METRICS verb merge the per-shard
//! registries (plus the caller's root registry) into one view
//! ([`pstrace_obs::merged_samples`]).
//!
//! # Hardening
//!
//! Every fault the transport or a hostile client can produce lands on a
//! designed degradation path, each counted under
//! `pstrace_degradation_events_total{path=…}`:
//!
//! * **`accept-retry`** — a failing `accept(2)` no longer kills the
//!   daemon; the loop retries under capped exponential backoff.
//! * **`worker-respawn`** — a panicking session is caught
//!   (`catch_unwind`) and costs exactly its own connection; the panic is
//!   counted in `pstrace_stream_worker_panics_total`.
//! * **`budget-close`** — per-session byte/frame/record budgets
//!   ([`SessionLimits`]) close over-limit sessions with a polite
//!   status-1 reply instead of unbounded ingestion.
//! * **`handshake-deadline`** — the request preamble must arrive within
//!   [`ServerConfig::handshake_timeout`].
//! * **`session-parked`** — when a resumable session's transport dies,
//!   the session is parked for [`ServerConfig::resume_grace`] and a
//!   reconnect with its token resumes at the acked byte offset.
//! * **`tenant-quota-shed`** / **`capacity-shed`** — over-quota tenants
//!   and over-capacity daemons shed new sessions with a polite
//!   rejection, counted in `pstrace_stream_shed_total{reason=…}`; live
//!   sessions are never evicted.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pstrace_obs::{
    merged_samples, EventKind, FlightRecorder, FlightSnapshot, MetricKey, Registry, Sample,
    DEFAULT_FLIGHT_CAPACITY,
};
use pstrace_soc::{SocModel, UsageScenario};
use pstrace_wire::read_ptw_header;

use crate::error::StreamError;
use crate::proto::Hello;
use crate::reader::{ReadJob, Readers, Wire};
use crate::recover::{recover_state, RecoveredState};
use crate::session::{observed_messages, Session};
use crate::shard::{run_shard, FleetCtx};
use crate::wal::{fresh_epoch, DurabilityPolicy};

/// Default per-shard WAL disk budget (bytes): how far a journal may grow
/// past its last compaction before rotation compacts it again.
pub const DEFAULT_WAL_BUDGET: u64 = 512 * 1024;

/// Per-session ingest budgets. A session crossing any limit is closed
/// with a polite status-1 reply (degradation path `budget-close`); the
/// default is unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionLimits {
    /// Maximum raw stream bytes a session may ingest.
    pub max_bytes: Option<u64>,
    /// Maximum complete frames a session may decode.
    pub max_frames: Option<usize>,
    /// Maximum records a session may commit.
    pub max_records: Option<usize>,
}

impl SessionLimits {
    /// The first exceeded budget, as a human-readable close message.
    pub(crate) fn exceeded(&self, m: &crate::session::SessionMetrics) -> Option<String> {
        let wide = |max: Option<usize>| max.map(|n| n as u64);
        let budgets = [
            ("byte", self.max_bytes, m.bytes),
            ("frame", wide(self.max_frames), m.frames as u64),
            ("record", wide(self.max_records), m.records as u64),
        ];
        budgets.into_iter().find_map(|(what, max, used)| {
            let max = max.filter(|&max| used > max)?;
            Some(format!(
                "session exceeded its {what} budget ({used} > {max})"
            ))
        })
    }
}

/// Knobs of the daemon.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (e.g. `127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Event-loop shards (worker threads); sessions are pinned to a
    /// shard by connection id, so each shard's hot path is lock-free.
    pub shards: usize,
    /// Idle deadline for a streaming session: a session with no
    /// transport progress for this long dies (and, when resumable,
    /// parks).
    pub read_timeout: Duration,
    /// Deadline for the request preamble, counted from the accept: a
    /// connection that has not produced its hello within this window is
    /// closed (degradation path `handshake-deadline`), so a slow-loris
    /// connect holds its reader no longer. It is also how long a reader
    /// thread with no connection to serve waits for one before it exits.
    pub handshake_timeout: Duration,
    /// How long a resumable session stays parked after transport death
    /// before its token expires.
    pub resume_grace: Duration,
    /// How long a draining shard waits for in-flight sessions at
    /// shutdown before it exits anyway.
    pub drain_timeout: Duration,
    /// Per-session ingest budgets.
    pub limits: SessionLimits,
    /// Global cap on concurrent sessions; excess opens are shed with a
    /// polite rejection (`capacity-shed`). `None` = unlimited.
    pub max_sessions: Option<u64>,
    /// Per-tenant cap on concurrent sessions (tenant id from the PSTS
    /// hello); over-quota opens are shed (`tenant-quota-shed`). `None` =
    /// unlimited.
    pub tenant_quota: Option<u64>,
    /// Per-lane flight-recorder ring capacity (events). The recorder is
    /// always on; this only sizes how much history a dump holds.
    pub flight_capacity: usize,
    /// Where the flight journal spills as a `.ptw` v2 dump: on graceful
    /// shutdown, and automatically (debounced) whenever a degradation
    /// path fires. `None` = in-memory only, readable via
    /// [`Server::flight_snapshot`].
    pub flight_dump: Option<PathBuf>,
    /// WAL fsync policy: `Off` keeps the pre-durability behavior (a
    /// crash loses every parked session), `Lazy` survives daemon death,
    /// `Strict` also survives a power loss: one fsync per shard wake puts
    /// the open groups of the resumable sessions opened in it on stable
    /// storage before their tokens are acked, and the later lifecycle
    /// entries ride the next one.
    /// Requires [`ServerConfig::wal_dir`] to take effect.
    pub durability: DurabilityPolicy,
    /// Where the per-shard journals (`wal-<shard>.wal`) live.
    /// On spawn the daemon creates the directory, replays whatever a
    /// previous life left here (`Server::recover` is the same code path)
    /// and re-parks every still-resumable session; it writes nothing here
    /// until its first session is journaled.
    pub wal_dir: Option<PathBuf>,
    /// Per-shard WAL disk budget in bytes; a journal that grows by it
    /// since its last compaction is rotated: its live sessions are
    /// compacted into a fresh journal renamed over it (degradation path
    /// `wal-rotate`).
    pub wal_budget: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 2,
            read_timeout: Duration::from_secs(30),
            handshake_timeout: Duration::from_secs(5),
            resume_grace: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            limits: SessionLimits::default(),
            max_sessions: None,
            tenant_quota: None,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            flight_dump: None,
            durability: DurabilityPolicy::Off,
            wal_dir: None,
            wal_budget: DEFAULT_WAL_BUDGET,
        }
    }
}

/// A point-in-time copy of the daemon's aggregated counters, folded out
/// of the merged metrics registries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Sessions accepted.
    pub sessions: u64,
    /// Sessions that finished with a report.
    pub completed: u64,
    /// Sessions that failed (protocol, schema or scenario errors).
    pub failed: u64,
    /// Stream bytes ingested across all sessions.
    pub bytes: u64,
    /// Frames decoded across all sessions.
    pub frames: u64,
    /// Records committed across all sessions.
    pub records: u64,
    /// Damaged frames across all sessions (summed over damage reasons).
    pub damaged_frames: u64,
    /// Resumable sessions parked after transport death.
    pub parked: u64,
    /// Parked sessions picked back up by a resume token.
    pub resumed: u64,
    /// Sessions re-parked from the WAL by crash recovery.
    pub recovered: u64,
    /// Worker panics caught and survived.
    pub worker_panics: u64,
    /// Accept-loop errors retried under backoff.
    pub accept_retries: u64,
    /// Sessions shed by quota or capacity (summed over shed reasons).
    pub shed: u64,
    /// Resumes routed to their token's owning shard rather than to the
    /// shard of their connection id.
    pub handoffs: u64,
    /// WAL syncs (`fdatasync`/`fsync`) issued across all shards.
    pub fsyncs: u64,
}

/// Bumps `pstrace_degradation_events_total{path=…}` — the one series
/// every designed degradation path reports through.
pub(crate) fn degrade(registry: &Registry, path: &str) {
    registry
        .counter_with("pstrace_degradation_events_total", &[("path", path)])
        .inc();
}

/// A running daemon: accept thread plus shard event loops.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    ctx: Arc<FleetCtx>,
    accept: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and spawns the accept loop and shard workers
    /// with a fresh private root registry. Sessions localize over
    /// `model`'s scenarios.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, and the failure to create a WAL
    /// directory.
    pub fn spawn(model: Arc<SocModel>, config: &ServerConfig) -> io::Result<Server> {
        Server::spawn_with_registry(model, config, Arc::new(Registry::new()))
    }

    /// Like [`Server::spawn`], but with a caller-provided root registry —
    /// the daemon's merged exposition then includes whatever else the
    /// process is measuring (fault injection counters, CLI spans, …).
    /// Per-shard series still live in private per-shard registries; use
    /// [`Server::merged_samples`] or [`Server::snapshot`] for the full
    /// view.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, and the failure to create a WAL
    /// directory.
    pub fn spawn_with_registry(
        model: Arc<SocModel>,
        config: &ServerConfig,
        registry: Arc<Registry>,
    ) -> io::Result<Server> {
        let listener =
            TcpListener::bind(config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "empty bind address")
            })?)?;
        let addr = listener.local_addr()?;

        let shard_count = config.shards.max(1);

        // Crash-only startup: with durability on, replay whatever a
        // previous life left behind and keep its epoch, or mint a fresh
        // one in memory — a clean first boot and a post-SIGKILL restart
        // are the same code path. Spawn creates the directory, so a path
        // that cannot be one fails here, and writes nothing: a shard's
        // journal, whose header carries the epoch, appears with the
        // shard's first journaled entry.
        let durable = config.durability != DurabilityPolicy::Off;
        let wal_dir = config.wal_dir.clone().filter(|_| durable);
        let (epoch, recovered) = match &wal_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let state = registry.time("stream-recover", || recover_state(dir, shard_count));
                let epoch = if state.epoch == 0 {
                    fresh_epoch()
                } else {
                    state.epoch
                };
                (epoch, Some(state))
            }
            // No WAL: a fresh nonzero epoch per daemon life, so stale
            // tokens from any other life are still rejected.
            None => (fresh_epoch(), None),
        };
        let recover_counts = recovered
            .as_ref()
            .map(|state| (state.sessions() as u64, state.replayed, state.skipped));
        if let Some((restored, replayed, skipped)) = recover_counts {
            registry
                .counter("pstrace_recover_sessions_total")
                .add(restored);
            registry
                .counter("pstrace_recover_entries_replayed_total")
                .add(replayed);
            registry
                .counter("pstrace_recover_entries_skipped_total")
                .add(skipped);
        }

        let (ctx, receivers) = FleetCtx::new(
            model,
            config,
            Arc::clone(&registry),
            epoch,
            wal_dir,
            recovered.unwrap_or_default(),
            Some(addr),
        );
        let ctx = Arc::new(ctx);

        // Lane-0 `fr-recover` events mark the crash/restart boundary in
        // the journal: what the replay restored, replayed and skipped
        // (counts ride the session field).
        if let Some((restored, replayed, skipped)) = recover_counts {
            ctx.flight
                .record(0, 0, restored, EventKind::Recover, "sessions-restored");
            ctx.flight
                .record(0, 0, replayed, EventKind::Recover, "entries-replayed");
            ctx.flight
                .record(0, 0, skipped, EventKind::Recover, "entries-skipped");
        }

        // Built before any thread starts, so a failed spawn returns
        // through `Drop`, which stops and joins whatever did start.
        let mut server = Server {
            addr,
            ctx,
            accept: None,
            shards: Vec::with_capacity(receivers.len()),
        };
        for (index, rx) in receivers.into_iter().enumerate() {
            let ctx = Arc::clone(&server.ctx);
            let shard = std::thread::Builder::new()
                .name(format!("pstrace-shard-{index}"))
                .spawn(move || run_shard(ctx, index, &rx))?;
            server.shards.push(shard);
        }
        let ctx = Arc::clone(&server.ctx);
        let accept = std::thread::Builder::new()
            .name("pstrace-accept".to_owned())
            .spawn(move || accept_loop(&listener, &ctx))?;
        server.accept = Some(accept);
        Ok(server)
    }

    /// The bound address (with the ephemeral port resolved).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replays the journals under `wal_dir` for a daemon of
    /// `shards` shards, without starting anything — the inspection half
    /// of the crash-only startup ([`Server::spawn`] runs the same replay
    /// when [`ServerConfig::wal_dir`] is set). Backs `pstrace recover
    /// --dry-run`.
    #[must_use]
    pub fn recover(wal_dir: &std::path::Path, shards: usize) -> RecoveredState {
        recover_state(wal_dir, shards)
    }

    /// The daemon's recovery epoch: stable across restarts of one WAL
    /// directory, fresh per life otherwise. Resume acks carry it and
    /// resume requests must quote it back.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.ctx.epoch
    }

    /// The root metrics registry (the caller-provided one for
    /// [`Server::spawn_with_registry`]). Shard-recorded series live in
    /// the per-shard registries — see [`Server::registries`].
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.ctx.registries[0]
    }

    /// Every registry the daemon records into: the root first, then one
    /// per shard.
    #[must_use]
    pub fn registries(&self) -> Vec<Arc<Registry>> {
        self.ctx.registries.clone()
    }

    /// The merged sample set across the root and every shard registry —
    /// key-for-key identical to what a single-registry daemon would
    /// report.
    #[must_use]
    pub fn merged_samples(&self) -> Vec<(MetricKey, Sample)> {
        merged_samples(&self.ctx.registries)
    }

    /// Folds the merged registries' `pstrace_stream_*` series into a
    /// plain snapshot, readable while serving.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        fold_samples(&self.merged_samples())
    }

    /// Whether a client's SHUTDOWN verb asked the daemon to drain.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.ctx.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Blocks until a client's SHUTDOWN verb asks the daemon to drain or,
    /// given `sessions`, until that many sessions have completed or
    /// failed. Sleeps in between: only a session ending or the drain
    /// starting wakes it.
    pub fn wait(&self, sessions: Option<u64>) {
        let done = || {
            self.shutdown_requested()
                || sessions.is_some_and(|n| {
                    let snap = self.snapshot();
                    snap.completed + snap.failed >= n
                })
        };
        let mut waiters = self
            .ctx
            .waiters
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *waiters += 1;
        let mut waiters = self
            .ctx
            .settled
            .wait_while(waiters, |_| !done())
            .unwrap_or_else(PoisonError::into_inner);
        *waiters -= 1;
    }

    /// The daemon's always-on flight recorder.
    #[must_use]
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.ctx.flight
    }

    /// A point-in-time read of the flight journal across every lane.
    #[must_use]
    pub fn flight_snapshot(&self) -> FlightSnapshot {
        self.ctx.flight.snapshot()
    }

    /// The flight journal serialized as a self-describing `.ptw` v2 dump
    /// (the on-demand spill; `trace decode`, `pstrace events`, `debug`
    /// and `mine` all read it back).
    ///
    /// # Errors
    ///
    /// Propagates encoding failures as [`StreamError::Wire`].
    pub fn flight_dump_bytes(&self) -> Result<Vec<u8>, StreamError> {
        self.ctx.flight_dump_bytes().map_err(StreamError::from)
    }

    /// Graceful shutdown: stop accepting, drain every shard (bounded by
    /// [`ServerConfig::drain_timeout`]), join every thread. Returns the
    /// final post-drain snapshot — the counters cannot move again.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop();
        self.snapshot()
    }

    fn stop(&mut self) {
        self.ctx.begin_shutdown(0);
        if let Some(h) = self.accept.take() {
            // Cuts short an accept-retry backoff.
            h.thread().unpark();
            let _ = h.join();
        }
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
        // The graceful-shutdown spill: with every thread joined the
        // journal is final.
        self.ctx.spill_flight();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The acceptor thread body: blocks in `accept` until a client connects
/// or shutdown's self-connect wakes it. Each connection is noted as
/// unrouted, so the drain knows of it, and handed to a reader, which
/// routes it to a shard once its request has arrived.
fn accept_loop(listener: &TcpListener, ctx: &Arc<FleetCtx>) {
    let mut readers = Readers::new(ctx);
    let registry = &ctx.registries[0];
    // A failing accept(2) (EMFILE, ECONNABORTED, …) is retried under
    // capped exponential backoff, never fatal: the daemon must outlive
    // transient resource pressure.
    let initial = Duration::from_millis(5);
    let cap = Duration::from_secs(1);
    let mut backoff = initial;
    let mut conn_id: u64 = 0;
    loop {
        let accepted = listener.accept();
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(_) => {
                registry
                    .counter("pstrace_stream_accept_retries_total")
                    .inc();
                degrade(registry, "accept-retry");
                ctx.degrade_flight(0, 0, 0, "accept-retry");
                // `Server::stop` unparks this wait.
                std::thread::park_timeout(backoff);
                backoff = (backoff * 2).min(cap);
                continue;
            }
        };
        backoff = initial;
        stream.set_nodelay(true).ok();
        // Bounds the reader's reply write to a peer that stopped reading.
        stream.set_write_timeout(Some(ctx.config.read_timeout)).ok();
        let id = conn_id;
        conn_id += 1;
        let wire = Wire::new(stream);
        if !ctx.note_accepted(id, &wire) {
            return;
        }
        readers.serve(ReadJob {
            id,
            wire,
            opened: Instant::now(),
        });
    }
}

/// Wakes a thread blocked in `accept` on `addr` by connecting to it once.
/// An unspecified bind address is reached over loopback in the same
/// address family.
pub(crate) fn wake_acceptor(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
}

/// Folds daemon-level `pstrace_stream_*` and `pstrace_wal_*` series out
/// of a sample set. Labeled series (damage reasons, shed reasons) are
/// summed over their labels.
fn fold_samples(samples: &[(MetricKey, Sample)]) -> StatsSnapshot {
    let mut snap = StatsSnapshot::default();
    for (key, sample) in samples {
        let Sample::Counter(v) = sample else { continue };
        match key.name() {
            "pstrace_stream_sessions_total" => snap.sessions += v,
            "pstrace_stream_completed_total" => snap.completed += v,
            "pstrace_stream_failed_total" => snap.failed += v,
            "pstrace_stream_bytes_total" => snap.bytes += v,
            "pstrace_stream_frames_total" => snap.frames += v,
            "pstrace_stream_records_total" => snap.records += v,
            "pstrace_stream_damaged_frames_total" => snap.damaged_frames += v,
            "pstrace_stream_parked_total" => snap.parked += v,
            "pstrace_stream_resumed_total" => snap.resumed += v,
            "pstrace_stream_recovered_total" => snap.recovered += v,
            "pstrace_stream_worker_panics_total" => snap.worker_panics += v,
            "pstrace_stream_accept_retries_total" => snap.accept_retries += v,
            "pstrace_stream_shed_total" => snap.shed += v,
            "pstrace_stream_handoffs_total" => snap.handoffs += v,
            "pstrace_wal_fsyncs_total" => snap.fsyncs += v,
            _ => {}
        }
    }
    snap
}

/// Folds the daemon-level series out of a single `registry` (see
/// [`Server::snapshot`], which folds the *merged* registries instead).
#[must_use]
pub fn snapshot_from(registry: &Registry) -> StatsSnapshot {
    fold_samples(&registry.samples())
}

/// Protocol scenario numbers run `1..=SCENARIO_COUNT`.
pub(crate) const SCENARIO_COUNT: usize = 5;

/// Resolves a protocol scenario number onto the modeled usage scenarios
/// (the same numbering as the CLI's `--scenario`).
///
/// # Errors
///
/// Returns [`StreamError::Protocol`] for a number outside 1–5.
pub fn scenario_by_number(n: u8) -> Result<UsageScenario, StreamError> {
    match n {
        1 => Ok(UsageScenario::scenario1()),
        2 => Ok(UsageScenario::scenario2()),
        3 => Ok(UsageScenario::scenario3()),
        4 => Ok(UsageScenario::scenario_dma()),
        5 => Ok(UsageScenario::scenario_coherence()),
        other => Err(StreamError::Protocol(format!(
            "no scenario {other}; use 1-5"
        ))),
    }
}

/// Builds the session a hello asked for. The handshake schema is parsed
/// and validated first, so a malformed hello is rejected before any
/// compile work; the localizer program then comes from the daemon's
/// shared program cache. The session records into `registry` under the
/// `session_id` label.
pub(crate) fn open_session(
    ctx: &FleetCtx,
    hello: &Hello,
    registry: &Arc<Registry>,
    session_id: u64,
) -> Result<Session, StreamError> {
    let (schema, meta, consumed) = read_ptw_header(ctx.model.catalog(), &hello.schema)?;
    if consumed != hello.schema.len() {
        return Err(StreamError::Protocol(format!(
            "{} stray bytes after the schema handshake",
            hello.schema.len() - consumed
        )));
    }
    let selected = observed_messages(&schema);
    let program = ctx
        .programs
        .program(&ctx.model, hello.scenario, selected, hello.mode)?;
    let mut session = Session::from_program(program, schema, meta);
    session.set_registry(Arc::clone(registry), session_id);
    Ok(session)
}
