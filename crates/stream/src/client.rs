//! The PSTS client: replay a `.ptw` capture to a running daemon, or send
//! it a one-shot request.
//!
//! * [`replay`] — the one replay loop. It speaks to whatever
//!   `Read + Write` its connector returns, which is how the
//!   fault-injection harness slips a chaos wrapper between the client and
//!   the socket. With no reconnect budget it opens a plain `SESSION`;
//!   with one it opens a resumable `SESSION_RESUME` and, after a
//!   transport death, reconnects with backoff and picks the session back
//!   up at the server's acknowledged byte offset, so the reassembled
//!   stream is byte-identical to an uninterrupted one;
//! * [`connect`] — the TCP connector: connect and read timeouts from a
//!   [`RetryPolicy`], Nagle off;
//! * [`send_request`] — a preamble-only request (`METRICS`, `SHUTDOWN`)
//!   and its reply, failing fast when no daemon listens.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use pstrace_diag::MatchMode;
use pstrace_flow::MessageCatalog;
use pstrace_wire::{split_ptw, PtwParts};

use crate::error::StreamError;
use crate::proto::{parse_resume_ack, read_reply, write_data, write_finish, write_request};
use crate::proto::{Hello, Request};

/// Default chunk size of the replay client, sized to cut a typical
/// capture into several chunks without degenerating to per-frame sends.
pub const DEFAULT_CHUNK_BYTES: usize = 256;

/// Mints a fresh, nonzero trace-context id for one logical replay: the
/// high half is a process-unique sequence number, the low half a hash
/// of the wall clock, so ids stay unique in-process and collide only
/// astronomically across processes. The id rides every hello of the
/// replay — including reconnects — so the daemon's flight recorder sees
/// one id per logical session.
#[must_use]
pub fn next_trace_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let seq = NEXT.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    // SplitMix64 finalizer over the clock reading.
    let mut z = nanos.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    ((seq << 32) | (z & 0xffff_fffe) | 1) & !(1 << 63)
}

/// Transport robustness knobs of the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout while waiting for acks and replies.
    pub read_timeout: Duration,
    /// Reconnect attempts after the first connection. 0 is one shot over
    /// a plain session; anything more opens a resumable one.
    pub max_reconnects: u32,
    /// Backoff before the first reconnect; doubles per attempt.
    pub initial_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            max_reconnects: 4,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

/// What one replay sends besides the capture: the hello's fields, the
/// chunk size and the transport policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replay {
    /// Usage scenario number the capture belongs to.
    pub scenario: u8,
    /// How the daemon matches the observation against path projections.
    pub mode: MatchMode,
    /// Tenant id for the daemon's quota accounting (0 = anonymous).
    pub tenant: u32,
    /// Flight-recorder trace-context id riding every hello of the
    /// replay; 0 mints a fresh one per replay ([`next_trace_id`]).
    pub trace: u64,
    /// Payload bytes per data chunk.
    pub chunk_bytes: usize,
    /// Timeouts and the reconnect budget, which also picks the session
    /// kind (see [`RetryPolicy::max_reconnects`]).
    pub policy: RetryPolicy,
}

impl Replay {
    /// A one-shot replay of a `scenario` capture under `mode`: the
    /// anonymous tenant, a minted trace id, [`DEFAULT_CHUNK_BYTES`]
    /// chunks, default timeouts and no reconnects (a plain session).
    #[must_use]
    pub fn new(scenario: u8, mode: MatchMode) -> Replay {
        Replay {
            scenario,
            mode,
            tenant: 0,
            trace: 0,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            policy: RetryPolicy {
                max_reconnects: 0,
                ..RetryPolicy::default()
            },
        }
    }
}

/// Connects to the first address of `addr` that answers within
/// `policy.connect_timeout`, with Nagle off and `policy.read_timeout` on
/// reads.
///
/// # Errors
///
/// The last address's connect failure, or `AddrNotAvailable` when `addr`
/// resolves to nothing.
pub fn connect(addr: impl ToSocketAddrs, policy: &RetryPolicy) -> io::Result<TcpStream> {
    let mut last = None;
    for a in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&a, policy.connect_timeout) {
            Ok(s) => {
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(policy.read_timeout))?;
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            "address resolved to nothing",
        )
    }))
}

/// Replays the `.ptw` container in `ptw_bytes` through whatever
/// `connect` returns and returns the daemon's session report.
///
/// The container's schema prefix becomes the hello's handshake verbatim,
/// the payload goes out in `plan.chunk_bytes` chunks, and the declared
/// payload bit length closes the session. `catalog` is only used to find
/// the schema/payload split, so the client validates the file the same
/// way the server will.
///
/// `connect` is called once per attempt with the 0-based attempt number:
/// the first connection plus up to `plan.policy.max_reconnects`
/// reconnects, with doubling backoff in between; a failed connect uses
/// up an attempt. With a reconnect budget the session is resumable: each
/// reconnect quotes the server's token and epoch and continues from the
/// acknowledged byte offset, never re-sending acknowledged bytes and
/// never skipping unacknowledged ones. Without one it is a plain session,
/// which spares the daemon the ack round trip and, under strict
/// durability, the WAL fsync of a token nobody could use.
///
/// # Errors
///
/// * [`StreamError::Wire`] when the file is not a valid `.ptw` for
///   `catalog`;
/// * [`StreamError::Io`] / [`StreamError::Protocol`] when every attempt
///   died on transport;
/// * [`StreamError::Remote`] when the server rejects the session (not
///   retried: the rejection is authoritative).
pub fn replay<S, F>(
    mut connect: F,
    catalog: &MessageCatalog,
    ptw_bytes: &[u8],
    plan: &Replay,
) -> Result<String, StreamError>
where
    S: Read + Write,
    F: FnMut(u32) -> io::Result<S>,
{
    let ptw = split_ptw(catalog, ptw_bytes)?;
    let hello = Hello {
        scenario: plan.scenario,
        mode: plan.mode,
        tenant: plan.tenant,
        trace: match plan.trace {
            0 => next_trace_id(),
            trace => trace,
        },
        schema: ptw.header.to_vec(),
    };
    let policy = &plan.policy;
    let mut request = if policy.max_reconnects == 0 {
        Request::Session(hello)
    } else {
        Request::Resume {
            token: 0,
            epoch: 0,
            hello,
        }
    };
    let chunk = plan.chunk_bytes.max(1);
    let mut backoff = policy.initial_backoff;
    let mut last_err = None;
    for attempt in 0..=policy.max_reconnects {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(policy.max_backoff);
        }
        let mut transport = match connect(attempt) {
            Ok(t) => t,
            Err(e) => {
                last_err = Some(StreamError::Io(e));
                continue;
            }
        };
        match send_session(&mut transport, &mut request, &ptw, chunk) {
            Ok(report) => return Ok(report),
            // The server spoke: its verdict is final, not a transport
            // fault to retry through.
            Err(e @ StreamError::Remote(_)) => return Err(e),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("the loop makes at least one attempt"))
}

/// One attempt over an established transport: hello, the resume ack when
/// the session is resumable, chunks from the acknowledged offset, FINISH,
/// reply. The ack updates the request's token and epoch in place, even
/// when the attempt then fails, so the next attempt resumes the same
/// session — across a daemon restart too, since the epoch proves the
/// token belongs to the same WAL lineage.
fn send_session<S: Read + Write>(
    transport: &mut S,
    request: &mut Request,
    ptw: &PtwParts<'_>,
    chunk: usize,
) -> Result<String, StreamError> {
    let payload = ptw.payload;
    write_request(transport, request)?;
    let mut offset = 0;
    if let Request::Resume { token, epoch, .. } = request {
        transport.flush()?;
        let (acked_token, acked_offset, acked_epoch) = parse_resume_ack(&read_reply(transport)?)?;
        *token = acked_token;
        *epoch = acked_epoch;
        offset = usize::try_from(acked_offset)
            .ok()
            .filter(|&o| o <= payload.len())
            .ok_or_else(|| {
                StreamError::Protocol(format!("server acked an impossible offset {acked_offset}"))
            })?;
    }
    for piece in payload[offset..].chunks(chunk) {
        write_data(transport, piece)?;
    }
    write_finish(transport, ptw.bit_len)?;
    transport.flush()?;
    read_reply(transport)
}

/// [`replay`] of a default-tenant capture with a minted trace id, kept
/// with its argument list for callers that predate [`Replay`].
///
/// # Errors
///
/// As [`replay`].
pub fn stream_ptw_resumable<S, F>(
    connect: F,
    catalog: &MessageCatalog,
    scenario: u8,
    mode: MatchMode,
    ptw_bytes: &[u8],
    chunk_bytes: usize,
    policy: &RetryPolicy,
) -> Result<String, StreamError>
where
    S: Read + Write,
    F: FnMut(u32) -> io::Result<S>,
{
    let plan = Replay {
        chunk_bytes,
        policy: *policy,
        ..Replay::new(scenario, mode)
    };
    replay(connect, catalog, ptw_bytes, &plan)
}

/// Sends a preamble-only `request` — [`Request::Metrics`] or
/// [`Request::Shutdown`] — to the daemon at `addr` and returns its reply:
/// the Prometheus exposition, or the shutdown acknowledgement (the drain
/// happens after the ack, so poll the port or the process to see it end).
///
/// Fails fast when nothing is listening: the connect runs under a 2 s
/// timeout and a failed connect is [`StreamError::Unreachable`], so
/// `pstrace stop` against a dead daemon says so at once. The reply is
/// awaited for at most 10 s.
///
/// # Errors
///
/// * [`StreamError::Unreachable`] when no daemon answers the connect;
/// * [`StreamError::Io`] / [`StreamError::Protocol`] for transport
///   failures after the connect;
/// * [`StreamError::Remote`] when the server refuses the request.
pub fn send_request(
    addr: impl ToSocketAddrs + fmt::Display,
    request: &Request,
) -> Result<String, StreamError> {
    let policy = RetryPolicy {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(10),
        ..RetryPolicy::default()
    };
    let mut stream = connect(&addr, &policy).map_err(|source| StreamError::Unreachable {
        addr: addr.to_string(),
        source,
    })?;
    write_request(&mut stream, request)?;
    read_reply(&mut stream)
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use pstrace_soc::{wirecap, SocModel, TraceBufferConfig};
    use pstrace_wire::{encode_records, write_ptw};

    use super::*;
    use crate::proto::{REQ_SESSION, REQ_SESSION_RESUME};
    use crate::server::scenario_by_number;

    /// The request kind (preamble byte 5) of every connection a replay
    /// under `max_reconnects` opens to a listener that hangs up on each.
    fn request_kinds(max_reconnects: u32) -> Vec<u8> {
        let model = SocModel::t2();
        let messages = scenario_by_number(1).unwrap().messages(&model);
        let config = TraceBufferConfig::messages_only(&messages);
        let width = messages.iter().map(|&m| model.catalog().width(m)).sum();
        let schema = wirecap::wire_schema(&model, &config, width).unwrap();
        let encoded = encode_records(&schema, &[], None).unwrap();
        let ptw = write_ptw(model.catalog(), &schema, &encoded);

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let kinds = std::thread::spawn(move || {
            (0..=max_reconnects)
                .map(|_| {
                    let (mut conn, _) = listener.accept().unwrap();
                    let mut preamble = [0u8; 6];
                    conn.read_exact(&mut preamble).unwrap();
                    preamble[5]
                })
                .collect::<Vec<u8>>()
        });
        let plan = Replay {
            policy: RetryPolicy {
                max_reconnects,
                initial_backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            ..Replay::new(1, MatchMode::Prefix)
        };
        let connect = |_| connect(addr, &plan.policy);
        let result = replay(connect, model.catalog(), &ptw, &plan);
        assert!(result.is_err(), "the listener never answers");
        kinds.join().unwrap()
    }

    #[test]
    fn the_reconnect_budget_picks_the_session_kind() {
        assert_eq!(request_kinds(0), [REQ_SESSION]);
        assert_eq!(request_kinds(2), [REQ_SESSION_RESUME; 3]);
    }
}
