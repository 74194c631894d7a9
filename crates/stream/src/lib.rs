//! Live trace ingest for post-silicon debug: stream wire frames over
//! TCP, localize while they arrive.
//!
//! The batch pipeline captures a full trace, then diagnoses it. This
//! crate closes the loop *during* capture:
//!
//! * [`Session`] — the per-stream state machine: chunked bytes are
//!   decoded by the dialect's [`RecordDecoder`](pstrace_wire::RecordDecoder)
//!   — the same one a batch decode runs — passed through the same
//!   [`TimePass`](pstrace_wire::TimePass) (one-record spike
//!   quarantine), and folded into an
//!   [`OnlineLocalizer`](pstrace_diag::OnlineLocalizer) — the
//!   consistent-path count is live at every chunk boundary;
//! * [`proto`] — the length-prefixed chunk protocol with a `.ptw` schema
//!   handshake, so a live socket and a capture file describe their
//!   frames identically; v2 added a `METRICS` verb that returns the
//!   daemon's Prometheus exposition, v3 adds `SESSION_RESUME` — a
//!   token/offset ack that lets a session survive transport death;
//! * [`Server`] — the std-only `pstraced` daemon, built for fleet
//!   scale with no polling: a blocking, backoff-retrying accept thread
//!   pins each connection to one of N shard threads, pooled reader
//!   threads block in `read` and feed each shard's inbox, every shard
//!   sleeps until a message or its next deadline and owns its
//!   connection table (no locks on the ingest hot path), resume tokens encode their owning shard so reconnects are
//!   handed off rather than lost, per-tenant quotas and a global
//!   session cap shed overload politely, per-session ingest budgets
//!   ([`SessionLimits`]) and handshake deadlines bound each session,
//!   per-shard registries merge into one exposition
//!   ([`pstrace_obs::merged_samples`]), sessions over the same
//!   `(scenario, selected set, mode)` share one compiled
//!   [`LocalizerProgram`](pstrace_diag::LocalizerProgram) from a
//!   per-daemon cache (at most [`PROGRAM_CACHE_CAP`] programs), and
//!   shutdown — including the v4 `SHUTDOWN` verb — drains every shard;
//! * [`MetricsEndpoint`] — an HTTP/1.0 scrape endpoint over the same
//!   registry, for off-the-shelf Prometheus scrapers;
//! * [`replay`] — the one replay loop behind `pstrace stream`: a plain
//!   session, or with a reconnect budget ([`RetryPolicy`]) a resumable
//!   one that reconnects with backoff and resumes at the server's acked
//!   byte offset; [`connect`] is its TCP connector and
//!   [`send_request`] the one-shot `METRICS` / `SHUTDOWN` request
//!   behind `pstrace metrics` / `pstrace stop`;
//! * [`durable`] — the crash-only layer: an append-only per-shard WAL of
//!   session lifecycle state (checksummed fixed-size entries reusing the
//!   codec v2 CRC discipline), compacted in place by rotation and
//!   replayed by [`Server::recover`] at startup so `SESSION_RESUME`
//!   tokens minted before a crash still work after restart. The v6
//!   protocol carries a recovery *epoch* alongside the token, so a token
//!   from a different WAL lineage is shed politely instead of spliced
//!   into a stranger's session.
//!
//! The contract inherited from the batch side holds end to end: a
//! session's committed record sequence is bit-identical to
//! a batch [`pstrace_wire::decode_with`]'s, and its localization is
//! bit-identical to batch [`localize`](pstrace_diag::localize) on that
//! sequence — streaming changes *when* the answer exists, never what it
//! is.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod error;
mod metrics;
mod programs;
pub mod proto;
mod reader;
mod recover;
mod server;
mod session;
mod shard;
mod wal;

/// The durability layer: WAL writing, rotation, and crash recovery.
pub mod durable {
    pub use crate::recover::{recover_state, render_dry_run, RecoverError, RecoveredState};
    pub use crate::wal::{
        crash_armed, decode_entry, encode_entry, fresh_epoch, wal_path, DurabilityPolicy,
        SessionRecord, WalRecord, WalWriter, CRASH_POINTS, SCHEMA_CHUNK_BYTES, WAL_BODY_BYTES,
        WAL_ENTRY_BYTES,
    };
}

pub use client::{
    connect, next_trace_id, replay, send_request, stream_ptw_resumable, Replay, RetryPolicy,
    DEFAULT_CHUNK_BYTES,
};
pub use error::StreamError;
pub use metrics::MetricsEndpoint;
pub use programs::PROGRAM_CACHE_CAP;
pub use server::{
    scenario_by_number, snapshot_from, Server, ServerConfig, SessionLimits, StatsSnapshot,
    DEFAULT_WAL_BUDGET,
};
pub use session::{observed_messages, Session, SessionMetrics, SessionReport};
