//! The per-layer ledger (`--trace 1`).
//!
//! Each unit of work of the workload is first run end to end (`e2e_us`,
//! the same call the untraced run times), then replayed through every
//! layer of the ingest path one at a time, each call spanned from here:
//!
//! | metric        | clock | layer                                              |
//! |---------------|-------|----------------------------------------------------|
//! | `e2e_us`      | wall  | the session end to end, through the daemon         |
//! | `select_us`   | cpu   | scenario interleaving + message selection + schema |
//! | `encode_us`   | cpu   | payload encode in the unit's dialect               |
//! | `frame_us`    | cpu   | PSTS framing: hello + data chunks written, parsed  |
//! | `tcp_us`      | wall  | the framed bytes across a loopback socket, acked   |
//! | `open_us`     | cpu   | session open: interleaving, header, localizer      |
//! | `ingest_us`   | cpu   | `Session::push_chunk` over every chunk + `finish`  |
//! | `decode_us`   | cpu   | batch decode of the payload alone                  |
//! | `localize_us` | cpu   | online localizer pushes of the decoded records     |
//! | `wal_us`      | wall  | strict WAL: open group + complete, each fsynced    |
//!
//! Layers that run on this thread are timed in thread CPU time, steady on
//! a shared host; the three whose work happens elsewhere (daemon threads,
//! the socket peer, the disk) can only be timed on the wall clock.
//! `ingest_us` is the session's real work; `decode_us` and `localize_us`
//! split it into its two halves. Medians are over units; the ratios
//! (`*_ns_per_record`, `wire_bytes_per_record`) are per record.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pstrace::codec::decode_ptw_payload;
use pstrace::diag::OnlineLocalizer;
use pstrace::stream::durable::{DurabilityPolicy, WalRecord, WalWriter};
use pstrace::stream::proto::{self, Chunk, Request};
use pstrace::stream::{observed_messages, scenario_by_number, Session, DEFAULT_WAL_BUDGET};
use pstrace::wire::read_ptw_header;

use crate::fixture::{feed, report_body, Dialect, Pipeline, Unit, CHUNK_BYTES, MODE};
use crate::paths::{Daemon, Ingest, FLEET, LIVE};
use crate::{clock, quantile, Args, Metric, Outcome};

/// Timed layers, in the order they run for a unit, and whether their
/// span is read off the wall clock (else the thread's CPU clock).
const LAYERS: [(&str, bool); 10] = [
    ("e2e_us", true),
    ("select_us", false),
    ("encode_us", false),
    ("frame_us", false),
    ("tcp_us", true),
    ("open_us", false),
    ("ingest_us", false),
    ("decode_us", false),
    ("localize_us", false),
    ("wal_us", true),
];

/// One span: the layer it timed and how long it took, for one unit.
struct Span {
    layer: usize,
    elapsed: Duration,
}

/// The in-memory span log of a traced run.
#[derive(Default)]
struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Runs `f` as layer `layer`'s span.
    fn time<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        let layer = LAYERS
            .iter()
            .position(|&(l, _)| l == layer)
            .expect("known layer");
        let (wall, cpu) = (Instant::now(), clock::thread());
        let out = f();
        let elapsed = if LAYERS[layer].1 {
            wall.elapsed()
        } else {
            clock::thread() - cpu
        };
        self.spans.push(Span { layer, elapsed });
        out
    }

    /// Duration of the newest span, in nanoseconds.
    fn last_ns(&self) -> f64 {
        self.spans
            .last()
            .map_or(0.0, |s| s.elapsed.as_secs_f64() * 1e9)
    }

    /// Median duration of one layer's spans, in microseconds.
    fn median_us(&self, layer: usize) -> f64 {
        let mut us: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.elapsed.as_secs_f64() * 1e6)
            .collect();
        us.sort_unstable_by(f64::total_cmp);
        quantile(&us, 0.5)
    }
}

/// A loopback peer that reads length-prefixed blobs and acks each with
/// one byte — the socket layer with no protocol logic behind it.
struct Sink {
    conn: TcpStream,
    thread: JoinHandle<io::Result<()>>,
}

impl Sink {
    fn spawn() -> io::Result<Sink> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || -> io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            let mut buf = Vec::new();
            loop {
                let mut len = [0u8; 8];
                conn.read_exact(&mut len)?;
                let len = usize::try_from(u64::from_le_bytes(len))
                    .map_err(|_| io::Error::other("blob length overflows"))?;
                if len == 0 {
                    return Ok(());
                }
                buf.resize(len, 0);
                conn.read_exact(&mut buf)?;
                conn.write_all(&[1])?;
            }
        });
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        Ok(Sink { conn, thread })
    }

    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.conn.write_all(&(bytes.len() as u64).to_le_bytes())?;
        self.conn.write_all(bytes)?;
        let mut ack = [0u8; 1];
        self.conn.read_exact(&mut ack)
    }

    fn close(mut self) -> Result<(), String> {
        self.conn
            .write_all(&0u64.to_le_bytes())
            .map_err(|e| format!("sink: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "sink thread panicked".to_owned())?
            .map_err(|e| format!("sink: {e}"))
    }
}

/// Writes a unit as the client would put it on the socket, then parses
/// it back as the daemon does; returns the framed bytes.
fn frame(unit: &Unit) -> Result<Vec<u8>, String> {
    let header = &unit.ptw[..unit.header_len];
    let mut wire = Vec::with_capacity(unit.stream.bytes.len() + header.len() + 64);
    let e = |e: pstrace::stream::StreamError| format!("framing: {e}");
    proto::write_hello_as(&mut wire, unit.scenario, MODE, 0, 0, header).map_err(e)?;
    for chunk in unit.stream.bytes.chunks(CHUNK_BYTES) {
        proto::write_data(&mut wire, chunk).map_err(e)?;
    }
    proto::write_finish(&mut wire, unit.stream.bit_len).map_err(e)?;

    let Some((Request::Session(hello), mut pos)) = proto::decode_request(&wire).map_err(e)? else {
        return Err("framing: the hello does not parse back".to_owned());
    };
    let mut payload = 0;
    loop {
        match proto::decode_chunk(&wire[pos..]).map_err(e)? {
            Some((Chunk::Data(data), used)) => {
                payload += data.len();
                pos += used;
            }
            Some((Chunk::Finish { bit_len }, used)) if bit_len == unit.stream.bit_len => {
                pos += used;
                break;
            }
            _ => return Err("framing: the chunks do not parse back".to_owned()),
        }
    }
    if hello.schema != header || payload != unit.stream.bytes.len() || pos != wire.len() {
        return Err("framing: the round trip lost bytes".to_owned());
    }
    Ok(wire)
}

/// Replays the workload's units round-robin for the run's seconds,
/// spanning each layer.
fn trace(args: &Args, ingest: &Ingest, dialect: Dialect) -> Result<Outcome, String> {
    let model = &ingest.daemon.model;
    let catalog = model.catalog();
    let profile = dialect.profile();
    let mut sink = Sink::spawn().map_err(|e| format!("sink: {e}"))?;
    let mut wal = WalWriter::open(
        &args.work_dir.join("ledger-wal"),
        0,
        1,
        1,
        DurabilityPolicy::Strict,
        DEFAULT_WAL_BUDGET,
    )
    .map_err(|e| format!("wal: {e}"))?;

    let mut spans = Spans::default();
    let (mut decode_ns, mut localize_ns) = (Vec::new(), Vec::new());
    let (mut records, mut wire_bytes, mut attempted, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        let unit = &ingest.units[i % ingest.units.len()];
        attempted += 1;
        let checked = (|| -> Result<(), String> {
            let scenario = scenario_by_number(unit.scenario).map_err(|e| e.to_string())?;
            spans.time("e2e_us", || ingest.session(i))?;
            let pipeline = spans.time("select_us", || Pipeline::new(model, scenario.clone()))?;
            let encoded = spans.time("encode_us", || {
                profile.encode(&pipeline.schema, &unit.records, None)
            });
            let encoded = encoded.map_err(|e| format!("encode: {e}"))?;
            if (&encoded.bytes, encoded.bit_len) != (&unit.stream.bytes, unit.stream.bit_len) {
                return Err("encode: the payload differs from the unit's".to_owned());
            }
            let framed = spans.time("frame_us", || frame(unit))?;
            spans
                .time("tcp_us", || sink.send(&framed))
                .map_err(|e| format!("loopback: {e}"))?;
            let (flow, session) = spans.time("open_us", || -> Result<_, String> {
                let flow = scenario
                    .interleaving(model)
                    .map_err(|e| format!("interleave: {e}"))?;
                let (schema, meta, _) = read_ptw_header(catalog, &unit.ptw[..unit.header_len])
                    .map_err(|e| format!("header: {e}"))?;
                let session = Session::with_meta(&flow, schema, meta, MODE);
                Ok((flow, session))
            })?;
            let report = spans.time("ingest_us", || feed(session, &unit.stream));
            if report_body(&report.render()) != unit.expect {
                return Err("ingest: the session report differs from the oracle".to_owned());
            }
            let decoded = spans.time("decode_us", || {
                decode_ptw_payload(&pipeline.schema, unit.meta, &unit.stream)
            });
            let n_records = decoded.records.len().max(1) as f64;
            decode_ns.push(spans.last_ns() / n_records);
            let mut localizer =
                OnlineLocalizer::new(&flow, &observed_messages(&pipeline.schema), MODE);
            spans.time("localize_us", || {
                for r in &decoded.records {
                    localizer.push(r.message);
                }
            });
            localize_ns.push(spans.last_ns() / n_records);
            if localizer.localization() != unit.localization {
                return Err("localize: the online localizer differs from batch".to_owned());
            }
            spans
                .time("wal_us", || -> io::Result<()> {
                    let token = i as u64 + 1;
                    let header = &unit.ptw[..unit.header_len];
                    wal.append_open(token, token, token, unit.scenario, 1, 0, header)?;
                    wal.append(&WalRecord::Complete { token })?;
                    if wal.needs_rotation() {
                        wal.rotate(&[])?;
                    }
                    Ok(())
                })
                .map_err(|e| format!("wal: {e}"))?;
            records += unit.records.len() as u64;
            wire_bytes += unit.ptw.len() as u64;
            Ok(())
        })();
        if let Err(e) = checked {
            if failed == 0 {
                eprintln!("perfbench: {e}");
            }
            failed += 1;
        }
        i += 1;
    }
    sink.close()?;

    let mut metrics: Vec<Metric> = LAYERS
        .iter()
        .enumerate()
        .map(|(layer, &(name, _))| Metric {
            name,
            value: spans.median_us(layer),
            unit: "us",
        })
        .collect();
    for (name, mut sample) in [
        ("decode_ns_per_record", decode_ns),
        ("localize_ns_per_record", localize_ns),
    ] {
        sample.sort_unstable_by(f64::total_cmp);
        metrics.push(Metric {
            name,
            value: quantile(&sample, 0.5),
            unit: "ns",
        });
    }
    metrics.push(Metric {
        name: "wire_bytes_per_record",
        value: wire_bytes as f64 / records.max(1) as f64,
        unit: "B",
    });
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0 && attempted > 0,
        metrics,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = if args.workload == "live-long" {
        &LIVE
    } else {
        &FLEET
    };
    let daemon = Daemon::spawn(spec.scenarios, &args.work_dir.join("wal-traced"))?;
    let ingest = Ingest::new(args, spec, daemon)?;
    let outcome = trace(args, &ingest, spec.dialect);
    ingest.daemon.server.shutdown();
    outcome
}
