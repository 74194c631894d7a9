//! The length-prefixed chunk protocol spoken between `pstrace stream`
//! clients and the `pstraced` ingest daemon.
//!
//! One TCP connection carries one request. All multi-byte integers are
//! little-endian:
//!
//! ```text
//! request preamble:
//!   magic        4 bytes  "PSTS"
//!   version      u8       = 6
//!   request      u8       1 = SESSION, 2 = METRICS, 3 = SESSION_RESUME,
//!                         4 = SHUTDOWN
//!
//! SESSION request — the rest of the hello follows:
//!   scenario     u8       usage scenario number (1-5)
//!   mode         u8       match mode (0 exact, 1 prefix, 2 suffix, 3 substring)
//!   tenant       u32      tenant id (0 = the anonymous tenant); quota
//!                         accounting keys off this
//!   trace        u64      trace-context id for the flight recorder
//!                         (0 = let the server assign one); the client
//!                         reuses it across reconnects so one id follows
//!                         the session through park/resume and handoffs
//!   schema_len   u32      length of the schema handshake in bytes
//!   schema       bytes    a `.ptw` schema prefix (`write_ptw_schema`)
//! then any number of chunks:
//!   DATA   = u8 1, u32 len, `len` raw stream bytes
//!   FINISH = u8 2, u64 bit_len (exact stream length in bits)
//! server reply (after FINISH):
//!   status       u8       0 = ok, 1 = session failed
//!   report_len   u32
//!   report       UTF-8    session report, or the failure message
//!
//! METRICS request — nothing follows; the server immediately replies
//! (same status/len/text framing) with its metric registry rendered in
//! Prometheus text exposition format.
//!
//! SESSION_RESUME request — like SESSION, but a resume token and the
//! server's recovery epoch precede the hello and the server
//! acknowledges before any chunk flows:
//!   token        u64      0 to open a fresh resumable session, or a
//!                         token from an earlier ack to pick up a parked
//!                         one
//!   epoch        u64      the recovery epoch from the ack that minted
//!                         the token (0 when opening fresh) — proves the
//!                         token belongs to this daemon's WAL lineage;
//!                         a mismatched epoch is shed politely instead
//!                         of spliced into a stranger's session
//!   scenario/mode/tenant/trace/schema_len/schema as in SESSION
//! server ack (immediately, reply framing):
//! `resume <token> <offset> <epoch>` — the assigned (or echoed) token,
//! the number of payload bytes the server has already ingested, and the
//! server's recovery epoch. The client sends `payload[offset..]` in
//! chunks and quotes the epoch back on every reconnect. If the
//! transport dies before FINISH, the server parks the session for a
//! grace period; reconnecting with the token resumes at the new acked
//! offset, and the reassembled stream is byte-identical to an
//! uninterrupted one. With `--durability` on, parked sessions survive
//! daemon death: the restarted server replays its WAL and the same
//! token keeps working (the ack offset restarts at 0 because payload
//! bytes are not durable — the client resends from the top).
//! ```
//!
//! METRICS request — nothing follows beyond the preamble; likewise
//! SHUTDOWN, which asks the daemon to stop accepting, drain its shards
//! and exit (the reply acknowledges before the drain starts).
//!
//! Version history: v1 had no request byte (every connection was a
//! session); v2 added the `METRICS` verb; v3 added the `SESSION_RESUME`
//! verb with its token/offset ack; v4 added the `tenant` field to both
//! session hellos and the `SHUTDOWN` verb; v5 added the `trace` field
//! to both session hellos, propagating the flight recorder's
//! trace-context id end to end; v6 (this build) added the recovery
//! `epoch` to the resume request and ack, so tokens survive daemon
//! crashes and stale tokens from another WAL lineage are rejected.
//!
//! The schema handshake reuses the `.ptw` container's self-describing
//! header verbatim, so a capture file and a live socket describe their
//! frames identically and the server rebuilds the
//! [`WireSchema`](pstrace_wire::WireSchema) — and from it the selected
//! message set — with nothing but its flow catalog.

use std::io::{Read, Write};

use pstrace_diag::MatchMode;

use crate::error::StreamError;

/// The 4-byte protocol magic.
pub const PROTO_MAGIC: [u8; 4] = *b"PSTS";

/// The protocol version this build speaks.
pub const PROTO_VERSION: u8 = 6;

/// Request kind: a streaming ingest session follows.
pub const REQ_SESSION: u8 = 1;

/// Request kind: render the server's metric registry and reply.
pub const REQ_METRICS: u8 = 2;

/// Request kind: a resumable session — a token precedes the hello and
/// the server acks `resume <token> <offset>` before chunks flow.
pub const REQ_SESSION_RESUME: u8 = 3;

/// Request kind: ask the daemon to drain its shards and exit.
pub const REQ_SHUTDOWN: u8 = 4;

/// Chunk tag: raw stream bytes follow.
pub const CHUNK_DATA: u8 = 1;

/// Chunk tag: end of stream, exact bit length follows.
pub const CHUNK_FINISH: u8 = 2;

/// Hard cap on handshake and chunk lengths (16 MiB) so a corrupt length
/// prefix cannot make the server allocate unboundedly.
pub const MAX_CHUNK_LEN: u32 = 16 << 20;

/// A parsed client hello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Usage scenario number the stream belongs to.
    pub scenario: u8,
    /// How the observation should be matched against path projections.
    pub mode: MatchMode,
    /// Tenant id for quota accounting (0 = the anonymous tenant).
    pub tenant: u32,
    /// Flight-recorder trace-context id (0 = server assigns one).
    pub trace: u64,
    /// The raw `.ptw` schema prefix bytes.
    pub schema: Vec<u8>,
}

/// Maps a [`MatchMode`] onto its wire byte.
#[must_use]
pub fn mode_to_byte(mode: MatchMode) -> u8 {
    match mode {
        MatchMode::Exact => 0,
        MatchMode::Prefix => 1,
        MatchMode::Suffix => 2,
        MatchMode::Substring => 3,
    }
}

/// Maps a wire byte back onto a [`MatchMode`].
///
/// # Errors
///
/// Returns [`StreamError::Protocol`] for an unassigned byte.
pub fn mode_from_byte(byte: u8) -> Result<MatchMode, StreamError> {
    match byte {
        0 => Ok(MatchMode::Exact),
        1 => Ok(MatchMode::Prefix),
        2 => Ok(MatchMode::Suffix),
        3 => Ok(MatchMode::Substring),
        other => Err(StreamError::Protocol(format!(
            "unknown match-mode byte {other}"
        ))),
    }
}

/// Parses a `--mode` style name (`exact`, `prefix`, `suffix`,
/// `substring`), case-insensitively.
///
/// # Errors
///
/// Returns [`StreamError::Protocol`] for an unknown name.
pub fn mode_from_name(name: &str) -> Result<MatchMode, StreamError> {
    match name.to_ascii_lowercase().as_str() {
        "exact" => Ok(MatchMode::Exact),
        "prefix" => Ok(MatchMode::Prefix),
        "suffix" => Ok(MatchMode::Suffix),
        "substring" => Ok(MatchMode::Substring),
        other => Err(StreamError::Protocol(format!(
            "unknown match mode `{other}`; use exact, prefix, suffix or substring"
        ))),
    }
}

fn read_exact(r: &mut impl Read, n: usize, what: &str) -> Result<Vec<u8>, StreamError> {
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)
        .map_err(|e| StreamError::Protocol(format!("truncated while reading {what}: {e}")))?;
    Ok(buf)
}

fn read_u8(r: &mut impl Read, what: &str) -> Result<u8, StreamError> {
    Ok(read_exact(r, 1, what)?[0])
}

fn read_u32(r: &mut impl Read, what: &str) -> Result<u32, StreamError> {
    let b = read_exact(r, 4, what)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn checked_len(len: u32, what: &str) -> Result<usize, StreamError> {
    if len > MAX_CHUNK_LEN {
        return Err(StreamError::Protocol(format!(
            "{what} length {len} exceeds the {MAX_CHUNK_LEN}-byte cap"
        )));
    }
    Ok(len as usize)
}

fn checked_schema_len(schema: &[u8]) -> Result<u32, StreamError> {
    u32::try_from(schema.len())
        .ok()
        .filter(|&l| l <= MAX_CHUNK_LEN)
        .ok_or_else(|| StreamError::Protocol("schema handshake too large".to_owned()))
}

/// Writes `request` as [`decode_request`] reads it back: the preamble,
/// then the resume token and epoch and the hello, as the kind needs.
///
/// The hello goes out field by field, one write call each, so a
/// fault-injecting transport sees every field as its own opportunity.
///
/// # Errors
///
/// Rejects a schema handshake over [`MAX_CHUNK_LEN`] before writing
/// anything; propagates socket write failures.
pub fn write_request(w: &mut impl Write, request: &Request) -> Result<(), StreamError> {
    let (kind, hello) = match request {
        Request::Session(hello) => (REQ_SESSION, Some(hello)),
        Request::Resume { hello, .. } => (REQ_SESSION_RESUME, Some(hello)),
        Request::Metrics => (REQ_METRICS, None),
        Request::Shutdown => (REQ_SHUTDOWN, None),
    };
    let hello = hello
        .map(|h| checked_schema_len(&h.schema).map(|len| (h, len)))
        .transpose()?;
    w.write_all(&PROTO_MAGIC)?;
    w.write_all(&[PROTO_VERSION, kind])?;
    if let Request::Resume { token, epoch, .. } = request {
        w.write_all(&token.to_le_bytes())?;
        w.write_all(&epoch.to_le_bytes())?;
    }
    if let Some((h, schema_len)) = hello {
        w.write_all(&[h.scenario, mode_to_byte(h.mode)])?;
        w.write_all(&h.tenant.to_le_bytes())?;
        w.write_all(&h.trace.to_le_bytes())?;
        w.write_all(&schema_len.to_le_bytes())?;
        w.write_all(&h.schema)?;
    }
    Ok(())
}

/// Writes a `SESSION` hello carrying an explicit tenant id and
/// trace-context id (0 = let the server assign one): [`write_request`]
/// over a [`Request::Session`].
///
/// # Errors
///
/// As [`write_request`].
pub fn write_hello_as(
    w: &mut impl Write,
    scenario: u8,
    mode: MatchMode,
    tenant: u32,
    trace: u64,
    schema: &[u8],
) -> Result<(), StreamError> {
    let hello = Hello {
        scenario,
        mode,
        tenant,
        trace,
        schema: schema.to_vec(),
    };
    write_request(w, &Request::Session(hello))
}

/// Writes the server's resume ack (reply framing, so rejections travel
/// the same channel as a failed session).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_resume_ack(
    w: &mut impl Write,
    token: u64,
    offset: u64,
    epoch: u64,
) -> Result<(), StreamError> {
    write_reply(w, true, &format!("resume {token} {offset} {epoch}"))
}

/// Parses the text of a resume ack back into `(token, offset, epoch)`.
///
/// # Errors
///
/// Returns [`StreamError::Protocol`] when the text is not an ack.
pub fn parse_resume_ack(text: &str) -> Result<(u64, u64, u64), StreamError> {
    let mut parts = text.split_whitespace();
    let bad = || StreamError::Protocol(format!("malformed resume ack `{text}`"));
    if parts.next() != Some("resume") {
        return Err(bad());
    }
    let token = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let offset = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let epoch = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok((token, offset, epoch))
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A streaming ingest session with its hello.
    Session(Hello),
    /// A metrics snapshot request.
    Metrics,
    /// A resumable session: token 0 opens fresh, a prior token resumes.
    Resume {
        /// The resume token (0 = fresh).
        token: u64,
        /// The recovery epoch the token was minted under (0 = fresh).
        epoch: u64,
        /// The session hello.
        hello: Hello,
    },
    /// A graceful-shutdown request: drain every shard, then exit.
    Shutdown,
}

/// One incoming chunk, as the server sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Chunk {
    /// Raw stream bytes.
    Data(Vec<u8>),
    /// End of stream with the exact bit length.
    Finish {
        /// Exact stream length in bits.
        bit_len: u64,
    },
}

/// Writes a data chunk.
///
/// # Errors
///
/// Propagates socket write failures; rejects chunks over
/// [`MAX_CHUNK_LEN`].
pub fn write_data(w: &mut impl Write, bytes: &[u8]) -> Result<(), StreamError> {
    let len = u32::try_from(bytes.len())
        .ok()
        .filter(|&l| l <= MAX_CHUNK_LEN)
        .ok_or_else(|| StreamError::Protocol("data chunk too large".to_owned()))?;
    w.write_all(&[CHUNK_DATA])?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(bytes)?;
    Ok(())
}

/// Writes the finishing chunk.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_finish(w: &mut impl Write, bit_len: u64) -> Result<(), StreamError> {
    w.write_all(&[CHUNK_FINISH])?;
    w.write_all(&bit_len.to_le_bytes())?;
    Ok(())
}

/// A cursor over a byte slice for the incremental (nonblocking) parsers:
/// every accessor returns `None` while the buffer is still short, so the
/// event loop can distinguish "need more bytes" from a protocol error.
struct Scan<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Scan<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let piece = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(piece)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| {
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            u64::from_le_bytes(a)
        })
    }
}

/// Incrementally parses one request from the front of `buf`.
///
/// Returns `Ok(None)` while the buffer does not yet hold a complete
/// request, `Ok(Some((request, consumed)))` once it does. Validation
/// (magic, version, request kind, mode byte, schema cap) happens as soon
/// as the relevant bytes are present, so garbage fails fast even when
/// the peer never sends more.
///
/// # Errors
///
/// Returns [`StreamError::Protocol`] on a bad magic, version, request
/// kind, mode byte or oversized handshake.
pub fn decode_request(buf: &[u8]) -> Result<Option<(Request, usize)>, StreamError> {
    let mut s = Scan { buf, pos: 0 };
    let Some(magic) = s.take(4) else {
        // Reject a bad magic as soon as the prefix can no longer match.
        if !PROTO_MAGIC.starts_with(buf) {
            return Err(StreamError::Protocol("bad protocol magic".to_owned()));
        }
        return Ok(None);
    };
    if magic != PROTO_MAGIC {
        return Err(StreamError::Protocol("bad protocol magic".to_owned()));
    }
    let Some(version) = s.u8() else {
        return Ok(None);
    };
    if version != PROTO_VERSION {
        return Err(StreamError::Protocol(format!(
            "unsupported protocol version {version}"
        )));
    }
    let Some(kind) = s.u8() else { return Ok(None) };
    let hello_body = |s: &mut Scan<'_>| -> Result<Option<Hello>, StreamError> {
        let Some(scenario) = s.u8() else {
            return Ok(None);
        };
        let Some(mode_byte) = s.u8() else {
            return Ok(None);
        };
        let mode = mode_from_byte(mode_byte)?;
        let Some(tenant) = s.u32() else {
            return Ok(None);
        };
        let Some(trace) = s.u64() else {
            return Ok(None);
        };
        let Some(schema_len) = s.u32() else {
            return Ok(None);
        };
        let schema_len = checked_len(schema_len, "schema")?;
        let Some(schema) = s.take(schema_len) else {
            return Ok(None);
        };
        Ok(Some(Hello {
            scenario,
            mode,
            tenant,
            trace,
            schema: schema.to_vec(),
        }))
    };
    match kind {
        REQ_SESSION => Ok(hello_body(&mut s)?.map(|hello| (Request::Session(hello), s.pos))),
        REQ_METRICS => Ok(Some((Request::Metrics, s.pos))),
        REQ_SHUTDOWN => Ok(Some((Request::Shutdown, s.pos))),
        REQ_SESSION_RESUME => {
            let Some(token) = s.u64() else {
                return Ok(None);
            };
            let Some(epoch) = s.u64() else {
                return Ok(None);
            };
            Ok(hello_body(&mut s)?.map(|hello| {
                (
                    Request::Resume {
                        token,
                        epoch,
                        hello,
                    },
                    s.pos,
                )
            }))
        }
        other => Err(StreamError::Protocol(format!(
            "unknown request kind {other}"
        ))),
    }
}

/// Incrementally parses one chunk from the front of `buf`.
///
/// Returns `Ok(None)` while the buffer does not yet hold a complete
/// chunk, `Ok(Some((chunk, consumed)))` once it does.
///
/// # Errors
///
/// Returns [`StreamError::Protocol`] on an unknown chunk tag or an
/// oversized length prefix (checked before any payload arrives).
pub fn decode_chunk(buf: &[u8]) -> Result<Option<(Chunk, usize)>, StreamError> {
    let mut s = Scan { buf, pos: 0 };
    let Some(tag) = s.u8() else { return Ok(None) };
    match tag {
        CHUNK_DATA => {
            let Some(len) = s.u32() else { return Ok(None) };
            let len = checked_len(len, "data chunk")?;
            let Some(bytes) = s.take(len) else {
                return Ok(None);
            };
            Ok(Some((Chunk::Data(bytes.to_vec()), s.pos)))
        }
        CHUNK_FINISH => {
            let Some(bit_len) = s.u64() else {
                return Ok(None);
            };
            Ok(Some((Chunk::Finish { bit_len }, s.pos)))
        }
        other => Err(StreamError::Protocol(format!("unknown chunk tag {other}"))),
    }
}

/// Writes the server reply.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_reply(w: &mut impl Write, ok: bool, report: &str) -> Result<(), StreamError> {
    let bytes = report.as_bytes();
    let len = u32::try_from(bytes.len())
        .ok()
        .filter(|&l| l <= MAX_CHUNK_LEN)
        .ok_or_else(|| StreamError::Protocol("reply too large".to_owned()))?;
    w.write_all(&[u8::from(!ok)])?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(bytes)?;
    Ok(())
}

/// Reads the server reply, mapping a failure status onto
/// [`StreamError::Remote`].
///
/// # Errors
///
/// Returns [`StreamError::Remote`] when the server reported a failed
/// session, [`StreamError::Protocol`] on framing violations.
pub fn read_reply(r: &mut impl Read) -> Result<String, StreamError> {
    let status = read_u8(r, "reply status")?;
    let len = checked_len(read_u32(r, "reply length")?, "reply")?;
    let bytes = read_exact(r, len, "reply body")?;
    let text = String::from_utf8(bytes)
        .map_err(|_| StreamError::Protocol("reply is not UTF-8".to_owned()))?;
    if status == 0 {
        Ok(text)
    } else {
        Err(StreamError::Remote(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    const MODES: [MatchMode; 4] = [
        MatchMode::Exact,
        MatchMode::Prefix,
        MatchMode::Suffix,
        MatchMode::Substring,
    ];

    fn hello(scenario: u8, schema: &[u8]) -> Hello {
        Hello {
            scenario,
            mode: MatchMode::Prefix,
            tenant: 0,
            trace: 0,
            schema: schema.to_vec(),
        }
    }

    fn wire(request: &Request) -> Vec<u8> {
        let mut buf = Vec::new();
        write_request(&mut buf, request).unwrap();
        buf
    }

    #[test]
    fn an_unassigned_request_kind_is_rejected() {
        let mut bad = wire(&Request::Metrics);
        bad[5] = 9;
        assert!(decode_request(&bad).is_err());
    }

    /// Counts the write calls a request takes: a fault-injecting
    /// transport treats each as one fault opportunity, so the sequence
    /// is part of the chaos ledger's contract.
    #[derive(Default)]
    struct Calls(Vec<usize>);

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn the_resume_hello_goes_out_as_nine_writes() {
        let request = Request::Resume {
            token: 1,
            epoch: 2,
            hello: hello(1, b"schema"),
        };
        let mut calls = Calls::default();
        write_request(&mut calls, &request).unwrap();
        assert_eq!(calls.0, [4, 2, 8, 8, 2, 4, 8, 4, 6]);
    }

    #[test]
    fn an_oversized_schema_is_rejected_before_any_byte() {
        let request = Request::Session(hello(1, &vec![0; MAX_CHUNK_LEN as usize + 1]));
        let mut calls = Calls::default();
        assert!(write_request(&mut calls, &request).is_err());
        assert!(calls.0.is_empty());
    }

    #[test]
    fn resume_ack_round_trips() {
        let mut ack = Vec::new();
        write_resume_ack(&mut ack, 42, 1024, 0xE9).unwrap();
        let text = read_reply(&mut Cursor::new(&ack)).unwrap();
        assert_eq!(parse_resume_ack(&text).unwrap(), (42, 1024, 0xE9));
        assert!(parse_resume_ack("resume x y z").is_err());
        assert!(parse_resume_ack("session ok").is_err());
        assert!(
            parse_resume_ack("resume 1 2").is_err(),
            "a v5 two-field ack is no longer a valid v6 ack"
        );
        assert!(parse_resume_ack("resume 1 2 3 4").is_err());
    }

    #[test]
    fn chunks_round_trip() {
        let mut wire = Vec::new();
        write_data(&mut wire, &[1, 2, 3]).unwrap();
        write_finish(&mut wire, 99).unwrap();
        let (first, used) = decode_chunk(&wire).unwrap().expect("data chunk");
        assert_eq!(first, Chunk::Data(vec![1, 2, 3]));
        let (second, used2) = decode_chunk(&wire[used..]).unwrap().expect("finish");
        assert_eq!(second, Chunk::Finish { bit_len: 99 });
        assert_eq!(used + used2, wire.len());
    }

    #[test]
    fn foreign_bytes_are_rejected() {
        assert!(decode_request(b"nope....").is_err());
        let mut bad_version = wire(&Request::Session(hello(1, b"")));
        bad_version[4] = 9;
        assert!(decode_request(&bad_version).is_err());
        assert!(decode_chunk(&[7u8]).is_err(), "unknown tag");
        // A length prefix past the cap must error before allocating.
        let mut huge = vec![CHUNK_DATA];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_chunk(&huge).is_err());
    }

    #[test]
    fn incremental_parser_rejects_garbage_as_soon_as_it_can() {
        assert!(decode_request(b"NO").is_err(), "magic mismatch at byte 1");
        assert!(decode_request(b"PSTX").is_err());
        assert!(matches!(decode_request(b"PST"), Ok(None)));
        let mut bad_kind = wire(&Request::Metrics);
        bad_kind[5] = 77;
        assert!(decode_request(&bad_kind).is_err());
        // An oversized schema length fails before the payload arrives.
        let mut huge = Vec::new();
        huge.extend_from_slice(&PROTO_MAGIC);
        huge.extend_from_slice(&[PROTO_VERSION, REQ_SESSION, 1, 1]);
        huge.extend_from_slice(&0u32.to_le_bytes());
        huge.extend_from_slice(&0u64.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&huge).is_err());
    }

    #[test]
    fn replies_round_trip_and_carry_failure() {
        let mut buf = Vec::new();
        write_reply(&mut buf, true, "all good").unwrap();
        assert_eq!(read_reply(&mut Cursor::new(&buf)).unwrap(), "all good");
        let mut buf = Vec::new();
        write_reply(&mut buf, false, "boom").unwrap();
        assert!(matches!(
            read_reply(&mut Cursor::new(&buf)),
            Err(StreamError::Remote(m)) if m == "boom"
        ));
    }

    #[test]
    fn every_mode_round_trips_through_its_byte() {
        for mode in MODES {
            assert_eq!(mode_from_byte(mode_to_byte(mode)).unwrap(), mode);
        }
        assert!(mode_from_byte(9).is_err());
        assert_eq!(mode_from_name("PREFIX").unwrap(), MatchMode::Prefix);
        assert!(mode_from_name("fuzzy").is_err());
    }

    /// The parse contract on one buffer: "need more bytes", a complete
    /// item within the buffer, or a typed protocol error.
    fn well_behaved<T>(parsed: Result<Option<(T, usize)>, StreamError>, len: usize) -> bool {
        match parsed {
            Ok(None) => true,
            Ok(Some((_, used))) => used <= len,
            Err(e) => matches!(e, StreamError::Protocol(_)),
        }
    }

    /// Every strict prefix asks for more; the whole buffer parses back
    /// to `expect`, leaving trailing (pipelined) bytes untouched.
    fn parses_exactly<T: PartialEq + std::fmt::Debug>(
        parse: impl Fn(&[u8]) -> Result<Option<(T, usize)>, StreamError>,
        wire: &[u8],
        expect: &T,
    ) -> Result<(), TestCaseError> {
        for cut in 0..wire.len() {
            prop_assert!(
                matches!(parse(&wire[..cut]), Ok(None)),
                "prefix of {cut} bytes must ask for more"
            );
        }
        let mut extra = wire.to_vec();
        extra.extend_from_slice(&[0xAA; 9]);
        for buf in [wire, extra.as_slice()] {
            let (parsed, used) = parse(buf).unwrap().expect("complete");
            prop_assert_eq!(&parsed, expect);
            prop_assert_eq!(used, wire.len());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes never panic either parser, at any prefix.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..=512),
            magic in any::<bool>(),
        ) {
            // Half the cases start with a valid preamble, so the parsers
            // get past the magic and version into the request body.
            let mut wire = Vec::new();
            if magic {
                wire.extend_from_slice(&PROTO_MAGIC);
                wire.push(PROTO_VERSION);
            }
            wire.extend_from_slice(&bytes);
            for cut in 0..=wire.len() {
                prop_assert!(well_behaved(decode_request(&wire[..cut]), cut));
                prop_assert!(well_behaved(decode_chunk(&wire[..cut]), cut));
            }
        }

        /// Every validly written request and chunk parses back equal,
        /// and only the complete buffer does.
        #[test]
        fn written_requests_and_chunks_parse_back(
            kind in 0u8..4,
            fields in (any::<u8>(), 0usize..4, any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()),
            schema in proptest::collection::vec(any::<u8>(), 0..64),
            data in proptest::collection::vec(any::<u8>(), 0..64),
            bit_len in any::<u64>(),
        ) {
            let (scenario, mode, tenant, trace, token, epoch) = fields;
            let mode = MODES[mode];
            let hello = Hello { scenario, mode, tenant, trace, schema };
            let expect = match kind {
                0 => Request::Session(hello),
                1 => Request::Resume { token, epoch, hello },
                2 => Request::Metrics,
                _ => Request::Shutdown,
            };
            let wire = wire(&expect);
            parses_exactly(decode_request, &wire, &expect)?;

            let mut wire = Vec::new();
            write_data(&mut wire, &data).unwrap();
            parses_exactly(decode_chunk, &wire, &Chunk::Data(data.clone()))?;
            let mut wire = Vec::new();
            write_finish(&mut wire, bit_len).unwrap();
            parses_exactly(decode_chunk, &wire, &Chunk::Finish { bit_len })?;
        }
    }
}
