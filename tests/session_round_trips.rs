//! What one fresh session costs on the wire, counted against a real
//! strict-WAL daemon: a one-run scenario-1 capture (the shape of one
//! short upload) replayed resumable takes one round trip, one write call
//! and exactly one WAL fsync; replayed as a plain session it takes one
//! round trip, one write call and no fsync. Both reports carry the batch
//! pipeline's localization line.

use std::cell::Cell;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pstrace::diag::{localize, MatchMode};
use pstrace::faults::watchdog;
use pstrace::flow::IndexedMessage;
use pstrace::select::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace::soc::{wirecap, SimConfig, Simulator, SocModel, TraceBufferConfig, UsageScenario};
use pstrace::stream::durable::DurabilityPolicy;
use pstrace::stream::{
    connect, observed_messages, replay, Replay, RetryPolicy, Server, ServerConfig,
};
use pstrace::wire::{decode_with, write_ptw, ProfileV1};

/// A client socket that counts its write calls and its round trips (a
/// read that follows a write is the client waiting on the daemon).
struct Counted<'a> {
    conn: TcpStream,
    wrote: bool,
    writes: &'a Cell<u64>,
    round_trips: &'a Cell<u64>,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if std::mem::take(&mut self.wrote) {
            self.round_trips.set(self.round_trips.get() + 1);
        }
        self.conn.read(buf)
    }
}

impl Write for Counted<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !buf.is_empty() {
            self.wrote = true;
            self.writes.set(self.writes.get() + 1);
        }
        self.conn.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.conn.flush()
    }
}

/// One simulated scenario-1 run captured through the 32-bit selection as
/// a v1 `.ptw`, and the batch pipeline's localization line for it.
fn one_run_capture(model: &SocModel) -> (Vec<u8>, String) {
    let scenario = UsageScenario::scenario1();
    let flow = scenario.interleaving(model).unwrap();
    let buffer = TraceBufferSpec::new(32).unwrap();
    let selection = Selector::new(&flow, SelectionConfig::new(buffer))
        .select()
        .unwrap();
    let config = TraceBufferConfig::from_selection(&selection, None);
    let schema = wirecap::wire_schema(model, &config, buffer.width_bits()).unwrap();
    let run = Simulator::new(model, scenario, SimConfig::with_seed(901)).run();
    let encoded =
        wirecap::encode_events(model.catalog(), &schema, &run.events, &config, &ProfileV1).unwrap();
    assert!(encoded.frames > 0, "the run captures records");

    let decoded = decode_with(&ProfileV1, &schema, &encoded.bytes, Some(encoded.bit_len));
    let observed: Vec<IndexedMessage> = decoded.records.iter().map(|r| r.message).collect();
    let loc = localize(
        &flow,
        &observed,
        &observed_messages(&schema),
        MatchMode::Prefix,
    );
    (
        write_ptw(model.catalog(), &schema, &encoded),
        format!("  localization    : {loc}"),
    )
}

/// Replays `ptw` under `plan` through a counting connector: the report,
/// the write calls and the round trips.
fn counted_replay(
    server: &Server,
    model: &SocModel,
    ptw: &[u8],
    plan: &Replay,
) -> (String, u64, u64) {
    let (writes, round_trips) = (Cell::new(0), Cell::new(0));
    let report = replay(
        |_| {
            Ok(Counted {
                conn: connect(server.local_addr(), &plan.policy)?,
                wrote: false,
                writes: &writes,
                round_trips: &round_trips,
            })
        },
        model.catalog(),
        ptw,
        plan,
    )
    .unwrap();
    (report, writes.get(), round_trips.get())
}

#[test]
fn a_fresh_session_costs_one_round_trip_and_one_write() {
    let _guard = watchdog(Duration::from_secs(120), "session round trips");
    let dir = std::env::temp_dir().join(format!("pstrace-roundtrips-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let model = SocModel::t2();
    let (ptw, batch_localization) = one_run_capture(&model);
    let server = Server::spawn(
        Arc::new(SocModel::t2()),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 2,
            durability: DurabilityPolicy::Strict,
            wal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // Spawn journals nothing, so it syncs nothing.
    assert_eq!(server.snapshot().fsyncs, 0);

    let resumable = Replay {
        chunk_bytes: 4096,
        policy: RetryPolicy {
            max_reconnects: 2,
            ..RetryPolicy::default()
        },
        ..Replay::new(1, MatchMode::Prefix)
    };
    let before = server.snapshot().fsyncs;
    let (report, writes, round_trips) = counted_replay(&server, &model, &ptw, &resumable);
    assert_eq!(round_trips, 1, "hello, chunks and FINISH are pipelined");
    assert_eq!(writes, 1, "hello, chunks and FINISH share one write call");
    assert_eq!(
        server.snapshot().fsyncs - before,
        1,
        "the open group's sync"
    );
    assert!(report.contains(&batch_localization), "{report}");

    let plain = Replay {
        chunk_bytes: 4096,
        ..Replay::new(1, MatchMode::Prefix)
    };
    let before = server.snapshot().fsyncs;
    let (report, writes, round_trips) = counted_replay(&server, &model, &ptw, &plain);
    assert_eq!(round_trips, 1);
    assert_eq!(writes, 1);
    assert_eq!(
        server.snapshot().fsyncs,
        before,
        "a plain session journals nothing"
    );
    assert!(report.contains(&batch_localization), "{report}");

    assert_eq!(server.snapshot().completed, 2);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
