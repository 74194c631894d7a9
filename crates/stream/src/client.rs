//! The replay client: stream a `.ptw` capture to a running daemon.
//!
//! Two shapes:
//!
//! * [`stream_ptw`] — the plain one-shot client: one connection, no
//!   retries, a transport error is the caller's problem;
//! * [`stream_ptw_with`] — the hardened client: connect/read timeouts
//!   from a [`RetryPolicy`], the v3 resumable-session verb, and bounded
//!   reconnect-with-backoff that picks the session back up at the
//!   server's acknowledged byte offset, so the reassembled stream is
//!   byte-identical to an uninterrupted one.
//!
//! [`stream_ptw_resumable`] is the transport-generic core of the
//! hardened client: it speaks to whatever `Read + Write` the connector
//! returns, which is how the fault-injection harness slips a chaos
//! wrapper between the client and the socket.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use pstrace_diag::MatchMode;
use pstrace_flow::MessageCatalog;
use pstrace_wire::split_ptw;

use crate::error::StreamError;
use crate::proto::{
    parse_resume_ack, read_reply, write_data, write_finish, write_hello_as, write_metrics_request,
    write_resume_hello_as, write_shutdown_request,
};

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

/// Transport robustness knobs of the hardened client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout while waiting for acks and replies.
    pub read_timeout: Duration,
    /// Reconnect attempts after the first connection (0 = one shot).
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

/// Replays the `.ptw` container in `ptw_bytes` to the daemon at `addr`
/// in `chunk_bytes`-sized data chunks, and returns the server's session
/// report.
///
/// The container's schema prefix becomes the handshake verbatim; the
/// payload is the chunked stream; the declared payload bit length closes
/// the session. `catalog` is only used to find the schema/payload split,
/// so the client validates the file the same way the server will.
///
/// # Errors
///
/// * [`StreamError::Wire`] when the file is not a valid `.ptw` for
///   `catalog`;
/// * [`StreamError::Io`] / [`StreamError::Protocol`] for transport
///   failures;
/// * [`StreamError::Remote`] when the server rejects the session.
pub fn stream_ptw(
    addr: impl ToSocketAddrs,
    catalog: &MessageCatalog,
    scenario: u8,
    mode: MatchMode,
    ptw_bytes: &[u8],
    chunk_bytes: usize,
) -> Result<String, StreamError> {
    let ptw = split_ptw(catalog, ptw_bytes)?;

    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    write_hello_as(&mut writer, scenario, mode, 0, next_trace_id(), ptw.header)?;
    let chunk = chunk_bytes.max(1);
    for piece in ptw.payload.chunks(chunk) {
        write_data(&mut writer, piece)?;
    }
    write_finish(&mut writer, ptw.bit_len)?;
    writer.flush()?;

    read_reply(&mut reader)
}

/// Everything one resumable attempt needs besides the transport and the
/// evolving resume token: the per-session constants of the replay.
struct AttemptArgs<'a> {
    scenario: u8,
    mode: MatchMode,
    tenant: u32,
    trace: u64,
    schema: &'a [u8],
    bit_len: u64,
    payload: &'a [u8],
    chunk: usize,
}

/// One attempt of the resumable protocol over an established transport:
/// resume hello → ack → chunks from the acked offset → FINISH → reply.
/// Updates the token and the server's recovery epoch in place alongside
/// any error, so the caller can reconnect and resume — even against a
/// daemon that crashed and restarted in between (the epoch proves the
/// token still belongs to the same WAL lineage).
fn resume_attempt<S: Read + Write>(
    transport: &mut S,
    token: &mut u64,
    epoch: &mut u64,
    args: &AttemptArgs<'_>,
) -> Result<String, StreamError> {
    write_resume_hello_as(
        transport,
        *token,
        *epoch,
        args.scenario,
        args.mode,
        args.tenant,
        args.trace,
        args.schema,
    )?;
    transport.flush()?;
    let ack = read_reply(transport)?;
    let (acked_token, offset, acked_epoch) = parse_resume_ack(&ack)?;
    *token = acked_token;
    *epoch = acked_epoch;
    let offset = usize::try_from(offset)
        .ok()
        .filter(|&o| o <= args.payload.len())
        .ok_or_else(|| {
            StreamError::Protocol(format!("server acked an impossible offset {offset}"))
        })?;
    for piece in args.payload[offset..].chunks(args.chunk) {
        write_data(transport, piece)?;
    }
    write_finish(transport, args.bit_len)?;
    transport.flush()?;
    read_reply(transport)
}

/// The transport-generic hardened client: replays `ptw_bytes` through
/// whatever `connect` returns, resuming across transport deaths.
///
/// `connect` is called once per attempt (first connection plus up to
/// `policy.max_reconnects` reconnects) with the 0-based attempt number;
/// returning an error consumes an attempt. After a mid-stream death the
/// next attempt sends the server's resume token and continues from the
/// acknowledged byte offset — never re-sending acknowledged bytes, never
/// skipping unacknowledged ones. A fresh trace-context id is minted once
/// per call and rides every reconnect's hello, so the daemon's flight
/// recorder stitches all attempts into one logical session.
///
/// # Errors
///
/// * [`StreamError::Wire`] when the file is not a valid `.ptw` for
///   `catalog`;
/// * [`StreamError::Io`] / [`StreamError::Protocol`] when every attempt
///   died on transport;
/// * [`StreamError::Remote`] when the server rejects the session (not
///   retried: the rejection is authoritative).
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
    stream_ptw_resumable_traced(
        connect,
        catalog,
        scenario,
        mode,
        0,
        next_trace_id(),
        ptw_bytes,
        chunk_bytes,
        policy,
    )
}

/// [`stream_ptw_resumable`] with an explicit tenant id riding every
/// (re)connection's hello, for daemons enforcing per-tenant quotas, and
/// a caller-chosen trace-context id (pass 0 to let the server assign
/// one), for harnesses that need to find their session in a
/// flight-recorder dump afterwards.
///
/// # Errors
///
/// As [`stream_ptw_resumable`].
#[allow(clippy::too_many_arguments)]
pub fn stream_ptw_resumable_traced<S, F>(
    mut connect: F,
    catalog: &MessageCatalog,
    scenario: u8,
    mode: MatchMode,
    tenant: u32,
    trace: u64,
    ptw_bytes: &[u8],
    chunk_bytes: usize,
    policy: &RetryPolicy,
) -> Result<String, StreamError>
where
    S: Read + Write,
    F: FnMut(u32) -> io::Result<S>,
{
    let ptw = split_ptw(catalog, ptw_bytes)?;
    let args = AttemptArgs {
        scenario,
        mode,
        tenant,
        trace,
        schema: ptw.header,
        bit_len: ptw.bit_len,
        payload: ptw.payload,
        chunk: chunk_bytes.max(1),
    };
    let mut token = 0u64;
    let mut epoch = 0u64;
    let mut backoff = policy.initial_backoff;
    let attempts = policy.max_reconnects.saturating_add(1);
    let mut last_err = None;
    for attempt in 0..attempts {
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
        match resume_attempt(&mut transport, &mut token, &mut epoch, &args) {
            Ok(report) => return Ok(report),
            // The server spoke: its verdict is final, not a transport
            // fault to retry through.
            Err(e @ StreamError::Remote(_)) => return Err(e),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err
        .unwrap_or_else(|| StreamError::Protocol("no connection attempts were made".to_owned())))
}

/// [`stream_ptw`] hardened per `policy`: connect timeout per attempt,
/// read timeout on the socket, and bounded reconnect-with-backoff that
/// resumes mid-stream at the server's acknowledged byte offset.
///
/// # Errors
///
/// As [`stream_ptw_resumable`].
pub fn stream_ptw_with(
    addr: impl ToSocketAddrs,
    catalog: &MessageCatalog,
    scenario: u8,
    mode: MatchMode,
    ptw_bytes: &[u8],
    chunk_bytes: usize,
    policy: &RetryPolicy,
) -> Result<String, StreamError> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    if addrs.is_empty() {
        return Err(StreamError::Protocol(
            "address resolved to nothing".to_owned(),
        ));
    }
    let policy_copy = *policy;
    stream_ptw_resumable(
        move |_attempt| {
            let mut last = None;
            for a in &addrs {
                match TcpStream::connect_timeout(a, policy_copy.connect_timeout) {
                    Ok(s) => {
                        s.set_nodelay(true).ok();
                        s.set_read_timeout(Some(policy_copy.read_timeout)).ok();
                        return Ok(s);
                    }
                    Err(e) => last = Some(e),
                }
            }
            Err(last.unwrap_or_else(|| {
                io::Error::new(io::ErrorKind::AddrNotAvailable, "no address to connect to")
            }))
        },
        catalog,
        scenario,
        mode,
        ptw_bytes,
        chunk_bytes,
        policy,
    )
}

/// Asks the daemon at `addr` for its Prometheus text exposition (the
/// METRICS verb of the PSTS protocol) and returns it verbatim.
///
/// # Errors
///
/// * [`StreamError::Io`] / [`StreamError::Protocol`] for transport
///   failures;
/// * [`StreamError::Remote`] when the server rejects the request.
pub fn fetch_metrics(addr: impl ToSocketAddrs) -> Result<String, StreamError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_metrics_request(&mut writer)?;
    writer.flush()?;
    read_reply(&mut reader)
}

/// Asks the daemon at `addr` to drain its shards and exit (the v4
/// `SHUTDOWN` verb). Returns the daemon's acknowledgement; the drain
/// happens after the ack, so poll the port (or the process) to observe
/// completion.
///
/// Fails fast when nothing is listening: the connect runs under a short
/// timeout and a refused/timed-out connect is
/// [`StreamError::Unreachable`], not a retryable transport fault —
/// `pstrace stop` against an already-dead daemon reports so immediately
/// instead of sitting in a reconnect budget.
///
/// # Errors
///
/// * [`StreamError::Unreachable`] when no daemon answers the connect;
/// * [`StreamError::Io`] / [`StreamError::Protocol`] for transport
///   failures after the connect;
/// * [`StreamError::Remote`] when the server refuses the request.
pub fn request_shutdown(addr: impl ToSocketAddrs) -> Result<String, StreamError> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    if addrs.is_empty() {
        return Err(StreamError::Protocol(
            "address resolved to nothing".to_owned(),
        ));
    }
    let mut last = None;
    let mut stream = None;
    for a in &addrs {
        match TcpStream::connect_timeout(a, Duration::from_secs(2)) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => last = Some((a, e)),
        }
    }
    let Some(stream) = stream else {
        let (a, source) = last.expect("at least one address was tried");
        return Err(StreamError::Unreachable {
            addr: a.to_string(),
            source,
        });
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_shutdown_request(&mut writer)?;
    writer.flush()?;
    read_reply(&mut reader)
}
