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
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use pstrace_diag::MatchMode;
use pstrace_flow::MessageCatalog;
use pstrace_wire::{split_ptw, PtwParts};

use crate::error::StreamError;
use crate::proto::{parse_resume_ack, read_reply, write_data, write_finish, write_request};
use crate::proto::{Hello, Request};
use crate::reader::READ_CHUNK;

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
    let z = pstrace_soc::value::splitmix64(nanos);
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
/// which spares the daemon the ack and, under strict durability, the WAL
/// fsync of a token nobody could use.
///
/// Either kind costs one round trip when it opens fresh: the hello,
/// the chunks and FINISH go out back to back through one 64 KiB write
/// buffer (one write call per full buffer, so an upload that fits takes
/// one), and the client then reads the ack (resumable only) and the
/// reply through one read buffer. Only a reconnect that quotes a token
/// waits for its ack before sending data.
/// The price of pipelining: when the transport dies before the client
/// has read the first ack, the client never learns the token, so its
/// next attempt opens fresh from byte 0 and the orphaned parked session
/// expires after the daemon's resume grace.
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

/// One attempt over an established transport. A fresh session — plain,
/// or resumable with token 0 — sends its hello, chunks and FINISH back
/// to back, then reads the resume ack (resumable only) and the reply:
/// one round trip. A resume (token ≠ 0) first sends its request alone
/// and waits for its ack, whose offset says where the chunks pick up.
/// The ack updates the request's token and epoch in place, even when
/// the attempt then fails, so the next attempt resumes the same session
/// — across a daemon restart too, since the epoch proves the token
/// belongs to the same WAL lineage.
fn send_session<S: Read + Write>(
    transport: &mut S,
    request: &mut Request,
    ptw: &PtwParts<'_>,
    chunk: usize,
) -> Result<String, StreamError> {
    let payload = ptw.payload;
    let resuming = matches!(request, Request::Resume { token, .. } if *token != 0);
    let mut link = Buffered::new(transport);
    write_request(&mut link, request)?;
    let mut offset = 0;
    if resuming {
        link.flush()?;
        offset = take_ack(&mut link, request, payload.len())?;
    }
    let sent = payload[offset..]
        .chunks(chunk)
        .try_for_each(|piece| write_data(&mut link, piece))
        .and_then(|()| write_finish(&mut link, ptw.bit_len))
        .and_then(|()| Ok(link.flush()?));
    // A server that rejects the hello replies and closes without reading
    // the rest, so a write can find the connection closed. The answer is
    // read all the same: an ack that arrived names the session for the
    // next attempt, and a rejection is the verdict. Otherwise the write
    // error stands.
    let hung_up = match sent {
        Ok(()) => None,
        Err(StreamError::Io(e))
            if matches!(
                e.kind(),
                io::ErrorKind::BrokenPipe
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
            ) =>
        {
            Some(e)
        }
        Err(e) => return Err(e),
    };
    // A fresh resumable session's ack is still unread.
    let answer = if !resuming && matches!(request, Request::Resume { .. }) {
        take_ack(&mut link, request, 0).and_then(|_| read_reply(&mut link))
    } else {
        read_reply(&mut link)
    };
    match (answer, hung_up) {
        (answer, None) => answer,
        (Err(verdict @ StreamError::Remote(_)), Some(_)) => Err(verdict),
        (_, Some(e)) => Err(StreamError::Io(e)),
    }
}

/// The client's end of one attempt: writes gather in one buffer that
/// goes out a full [`READ_CHUNK`] (the daemon reader's read size) at a
/// time and on `flush`, and reads come through one [`BufReader`], so a
/// reply costs one `read` however the daemon framed it. The bytes on
/// the wire are the same as unbuffered; only the call boundaries move.
struct Buffered<'a, S: Read + Write> {
    rx: BufReader<&'a mut S>,
    tx: Vec<u8>,
}

impl<'a, S: Read + Write> Buffered<'a, S> {
    fn new(transport: &'a mut S) -> Self {
        Buffered {
            rx: BufReader::new(transport),
            tx: Vec::with_capacity(READ_CHUNK),
        }
    }

    /// Writes out what the buffer holds.
    fn send(&mut self) -> io::Result<()> {
        let sent = self.rx.get_mut().write_all(&self.tx);
        self.tx.clear();
        sent
    }
}

impl<S: Read + Write> Write for Buffered<'_, S> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if self.tx.len() == READ_CHUNK {
            self.send()?;
        }
        let n = bytes.len().min(READ_CHUNK - self.tx.len());
        self.tx.extend_from_slice(&bytes[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.tx.is_empty() {
            self.send()?;
        }
        self.rx.get_mut().flush()
    }
}

impl<S: Read + Write> Read for Buffered<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read(buf)
    }
}

/// Reads the resume ack, records its token and epoch in `request` and
/// returns its offset, which must not exceed `limit`: the payload length
/// for a resume, 0 for a fresh session, which has nothing ingested yet.
fn take_ack<S: Read>(
    transport: &mut S,
    request: &mut Request,
    limit: usize,
) -> Result<usize, StreamError> {
    let (acked_token, acked_offset, acked_epoch) = parse_resume_ack(&read_reply(transport)?)?;
    if let Request::Resume { token, epoch, .. } = request {
        *token = acked_token;
        *epoch = acked_epoch;
    }
    usize::try_from(acked_offset)
        .ok()
        .filter(|&o| o <= limit)
        .ok_or_else(|| {
            StreamError::Protocol(format!("server acked an impossible offset {acked_offset}"))
        })
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
    use std::collections::VecDeque;
    use std::net::TcpListener;

    use pstrace_soc::{wirecap, SocModel, TraceBufferConfig};
    use pstrace_wire::{write_ptw, EncodedStream};

    use super::*;
    use crate::proto::{decode_chunk, decode_request, write_reply, write_resume_ack, Chunk};
    use crate::proto::{REQ_SESSION, REQ_SESSION_RESUME};
    use crate::server::scenario_by_number;

    /// A scenario-1 `.ptw` container around `payload` filler bytes: the
    /// client only splits the container, it never decodes frames.
    fn capture(payload: usize) -> (SocModel, Vec<u8>) {
        let model = SocModel::t2();
        let messages = scenario_by_number(1).unwrap().messages(&model);
        let config = TraceBufferConfig::messages_only(&messages);
        let width = messages.iter().map(|&m| model.catalog().width(m)).sum();
        let schema = wirecap::wire_schema(&model, &config, width).unwrap();
        let stream = EncodedStream {
            bytes: vec![0x5a; payload],
            bit_len: 8 * payload as u64,
            frames: 0,
        };
        let ptw = write_ptw(model.catalog(), &schema, &stream);
        (model, ptw)
    }

    /// A scenario-1 plan with `max_reconnects` (0 = a plain session) and
    /// no backoff.
    fn with_reconnects(max_reconnects: u32) -> Replay {
        Replay {
            trace: 1,
            policy: RetryPolicy {
                max_reconnects,
                initial_backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            ..Replay::new(1, MatchMode::Prefix)
        }
    }

    /// The request kind (preamble byte 5) of every connection a replay
    /// under `max_reconnects` opens to a listener that hangs up on each.
    fn request_kinds(max_reconnects: u32) -> Vec<u8> {
        let (model, ptw) = capture(0);
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
        let plan = with_reconnects(max_reconnects);
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

    /// A scripted daemon. Reads return the `script` messages in order,
    /// no read past the end of one (the daemon sends the next one only
    /// later); the first `takes` bytes written land and every later write
    /// finds the connection closed. Like a socket that counts round
    /// trips, it notes for each read that follows a write how many writes
    /// had landed by then.
    struct Peer {
        script: VecDeque<Vec<u8>>,
        takes: usize,
        writes: Vec<Vec<u8>>,
        round_trips: Vec<usize>,
        wrote: bool,
    }

    impl Peer {
        fn new(script: Vec<Vec<u8>>, takes: usize) -> Peer {
            Peer {
                script: script.into(),
                takes,
                writes: Vec::new(),
                round_trips: Vec::new(),
                wrote: false,
            }
        }

        /// The request its first write carried.
        fn request(&self) -> Request {
            decode_request(&self.writes[0]).unwrap().unwrap().0
        }

        /// Everything that landed, in order.
        fn received(&self) -> Vec<u8> {
            self.writes.concat()
        }
    }

    impl Write for Peer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let landed: usize = self.writes.iter().map(Vec::len).sum();
            let n = buf.len().min(self.takes - landed);
            if n == 0 && !buf.is_empty() {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.writes.push(buf[..n].to_vec());
            self.wrote = true;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for Peer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if std::mem::take(&mut self.wrote) {
                self.round_trips.push(self.writes.len());
            }
            let Some(message) = self.script.front_mut() else {
                return Ok(0);
            };
            let n = message.len().min(buf.len());
            buf[..n].copy_from_slice(&message[..n]);
            message.drain(..n);
            if message.is_empty() {
                self.script.pop_front();
            }
            Ok(n)
        }
    }

    fn ack(token: u64, offset: u64, epoch: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_resume_ack(&mut bytes, token, offset, epoch).unwrap();
        bytes
    }

    fn reply(ok: bool, text: &str) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_reply(&mut bytes, ok, text).unwrap();
        bytes
    }

    /// The request a replay of `ptw` under `plan` opens with, trace id
    /// included, as a fresh attempt quotes it.
    fn opening(model: &SocModel, ptw: &[u8], plan: &Replay) -> Request {
        let hello = Hello {
            scenario: plan.scenario,
            mode: plan.mode,
            tenant: plan.tenant,
            trace: plan.trace,
            schema: split_ptw(model.catalog(), ptw).unwrap().header.to_vec(),
        };
        if plan.policy.max_reconnects == 0 {
            Request::Session(hello)
        } else {
            Request::Resume {
                token: 0,
                epoch: 0,
                hello,
            }
        }
    }

    /// The unbuffered encoding of an upload: `request`, then
    /// `payload` in `chunk`-byte DATA chunks, then FINISH.
    fn upload(request: &Request, payload: &[u8], chunk: usize, bit_len: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_request(&mut bytes, request).unwrap();
        for piece in payload.chunks(chunk) {
            write_data(&mut bytes, piece).unwrap();
        }
        write_finish(&mut bytes, bit_len).unwrap();
        bytes
    }

    /// The chunks in `bytes`, which must hold whole chunks only.
    fn chunks(mut bytes: &[u8]) -> Vec<Chunk> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let (chunk, used) = decode_chunk(bytes).unwrap().unwrap();
            out.push(chunk);
            bytes = &bytes[used..];
        }
        out
    }

    /// Replays `ptw` under `plan` to `peers`, one per attempt.
    fn replay_to(
        peers: &mut [Peer],
        model: &SocModel,
        ptw: &[u8],
        plan: &Replay,
    ) -> Result<String, StreamError> {
        let mut peers = peers.iter_mut();
        replay(
            |_| peers.next().ok_or_else(|| io::ErrorKind::NotFound.into()),
            model.catalog(),
            ptw,
            plan,
        )
    }

    #[test]
    fn a_fresh_resumable_replay_takes_one_round_trip() {
        let (model, ptw) = capture(40);
        let script = vec![ack(7, 0, 3), reply(true, "report")];
        let mut peers = [Peer::new(script, usize::MAX)];
        let plan = with_reconnects(2);
        let report = replay_to(&mut peers, &model, &ptw, &plan);
        assert_eq!(report.unwrap(), "report");
        let [peer] = &peers;
        assert_eq!(
            peer.writes.len(),
            1,
            "hello, one DATA and FINISH in one write"
        );
        let payload = split_ptw(model.catalog(), &ptw).unwrap().payload;
        let request = opening(&model, &ptw, &plan);
        assert_eq!(peer.received(), upload(&request, payload, 256, 320));
        assert_eq!(peer.round_trips, [1], "one wait, after FINISH");
    }

    #[test]
    fn an_upload_past_the_buffer_goes_out_one_full_buffer_per_write() {
        let (model, ptw) = capture(5 * READ_CHUNK / 2);
        let plan = Replay {
            chunk_bytes: 4096,
            ..with_reconnects(0)
        };
        let mut peers = [Peer::new(vec![reply(true, "report")], usize::MAX)];
        let report = replay_to(&mut peers, &model, &ptw, &plan);
        assert_eq!(report.unwrap(), "report");
        let [peer] = &peers;
        let payload = split_ptw(model.catalog(), &ptw).unwrap().payload;
        let expect = upload(
            &opening(&model, &ptw, &plan),
            payload,
            4096,
            8 * payload.len() as u64,
        );
        assert_eq!(peer.received(), expect, "the bytes are the unbuffered ones");
        assert_eq!(peer.writes.len(), expect.len().div_ceil(READ_CHUNK));
        let (last, full) = peer.writes.split_last().unwrap();
        assert!(full.iter().all(|w| w.len() == READ_CHUNK));
        assert!(!last.is_empty() && last.len() <= READ_CHUNK);
        assert_eq!(
            peer.round_trips,
            [peer.writes.len()],
            "one wait, after FINISH"
        );
    }

    #[test]
    fn a_broken_transport_after_the_ack_resumes_with_its_token() {
        let (model, ptw) = capture(40);
        let plan = Replay {
            chunk_bytes: 16,
            ..with_reconnects(1)
        };
        // The first daemon acks the hello and hangs up after the hello and
        // one 16-byte DATA chunk (5 bytes of framing); the second acks the
        // resume at byte 16 and finishes it.
        let mut request = Vec::new();
        write_request(&mut request, &opening(&model, &ptw, &plan)).unwrap();
        let mut peers = [
            Peer::new(vec![ack(7, 0, 3)], request.len() + 5 + 16),
            Peer::new(vec![ack(7, 16, 3), reply(true, "report")], usize::MAX),
        ];
        let report = replay_to(&mut peers, &model, &ptw, &plan);
        assert_eq!(report.unwrap(), "report");
        let [first, second] = &peers;
        assert!(matches!(first.request(), Request::Resume { token: 0, .. }));
        assert!(matches!(
            second.request(),
            Request::Resume {
                token: 7,
                epoch: 3,
                ..
            }
        ));
        // The resume reads its ack before any DATA byte, then sends only
        // the unacknowledged 24 bytes and FINISH, in one write.
        assert_eq!(second.round_trips, [1, 2]);
        let payload = split_ptw(model.catalog(), &ptw).unwrap().payload;
        assert_eq!(
            chunks(&second.writes[1]),
            [
                Chunk::Data(payload[16..32].to_vec()),
                Chunk::Data(payload[32..].to_vec()),
                Chunk::Finish { bit_len: 320 }
            ]
        );
    }

    #[test]
    fn a_fresh_ack_with_a_nonzero_offset_is_a_protocol_error() {
        let (model, ptw) = capture(40);
        let parts = split_ptw(model.catalog(), &ptw).unwrap();
        let mut request = opening(&model, &ptw, &with_reconnects(2));
        let mut peer = Peer::new(vec![ack(7, 16, 3), reply(true, "report")], usize::MAX);
        let result = send_session(&mut peer, &mut request, &parts, 256);
        assert!(
            matches!(&result, Err(StreamError::Protocol(m)) if m.contains("impossible offset 16")),
            "{result:?}"
        );
    }

    #[test]
    fn a_rejection_that_hangs_up_mid_upload_is_the_verdict() {
        let (model, ptw) = capture(40);
        // The daemon takes the hello, answers with its verdict in place of
        // an ack and hangs up: the verdict is final, never retried.
        for plan in [Replay::new(9, MatchMode::Prefix), with_reconnects(2)] {
            let plan = Replay {
                scenario: 9,
                ..plan
            };
            let mut request = Vec::new();
            write_request(&mut request, &opening(&model, &ptw, &plan)).unwrap();
            let mut peers = [Peer::new(
                vec![reply(false, "no scenario 9")],
                request.len(),
            )];
            let result = replay_to(&mut peers, &model, &ptw, &plan);
            assert!(
                matches!(&result, Err(StreamError::Remote(m)) if m.contains("no scenario 9")),
                "{plan:?}: {result:?}"
            );
        }
    }
}
