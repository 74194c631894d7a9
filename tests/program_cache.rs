//! The daemon's shared localizer-program cache: a hello is validated
//! before anything is compiled, every `(scenario, selected set, mode)`
//! compiles once per daemon, sessions sharing a program report exactly
//! what an in-process session reports, and the cache never grows past
//! its cap.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use pstrace::diag::MatchMode;
use pstrace::faults::stable_lines;
use pstrace::flow::MessageId;
use pstrace::soc::{wirecap, SimConfig, Simulator, SocModel, TraceBufferConfig};
use pstrace::stream::proto::{self, Hello, Request};
use pstrace::stream::{
    connect, replay, scenario_by_number, Replay, Server, ServerConfig, Session, StreamError,
    PROGRAM_CACHE_CAP,
};
use pstrace::wire::{read_ptw_any, write_ptw, write_ptw_schema, ProfileV1};

const MODES: [MatchMode; 4] = [
    MatchMode::Exact,
    MatchMode::Prefix,
    MatchMode::Suffix,
    MatchMode::Substring,
];

/// A `.ptw` capture of one simulated run of protocol scenario `n`,
/// tracing exactly `messages` (one full-width lane each).
fn capture(model: &SocModel, n: u8, messages: &[MessageId], seed: u64) -> Vec<u8> {
    let config = TraceBufferConfig {
        messages: messages.to_vec(),
        groups: Vec::new(),
        depth: None,
    };
    let width = messages.iter().map(|&m| model.catalog().width(m)).sum();
    let schema = wirecap::wire_schema(model, &config, width).unwrap();
    let scenario = scenario_by_number(n).unwrap();
    let run = Simulator::new(model, scenario, SimConfig::with_seed(seed)).run();
    let stream =
        wirecap::encode_events(model.catalog(), &schema, &run.events, &config, &ProfileV1).unwrap();
    write_ptw(model.catalog(), &schema, &stream)
}

/// Half of scenario `n`'s messages: enough to narrow the localization,
/// too few to pin every run to a single path.
fn some_messages(model: &SocModel, n: u8) -> Vec<MessageId> {
    let all = scenario_by_number(n).unwrap().messages(model);
    let half = all.len() / 2;
    all.into_iter().skip(1).step_by(2).take(half).collect()
}

/// The report an in-process [`Session::with_meta`] feed of `ptw`
/// renders, headed like the daemon's reply.
fn in_process(model: &SocModel, n: u8, mode: MatchMode, ptw: &[u8]) -> String {
    let flow = scenario_by_number(n).unwrap().interleaving(model).unwrap();
    let (schema, meta, stream) = read_ptw_any(model.catalog(), ptw).unwrap();
    let mut session = Session::with_meta(&flow, schema, meta, mode);
    for chunk in stream.bytes.chunks(64) {
        session.push_chunk(chunk);
    }
    let report = session.finish(Some(stream.bit_len));
    format!(
        "session over scenario {n} ({:?} match)\n{}",
        report.mode,
        report.render()
    )
}

/// `(hit, miss, bypass)` of `pstrace_stream_program_cache_total`.
fn cache_counts(server: &Server) -> (u64, u64, u64) {
    let exposition = pstrace::obs::render_prometheus_samples(&server.merged_samples());
    let count = |result: &str| {
        let prefix = format!("pstrace_stream_program_cache_total{{result=\"{result}\"}} ");
        exposition
            .lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
            .unwrap_or_else(|| panic!("no {prefix}series:\n{exposition}"))
            .parse()
            .unwrap()
    };
    (count("hit"), count("miss"), count("bypass"))
}

/// Replays `ptw` to the daemon at `addr` over one plain session in
/// 64-byte chunks.
fn replay_plain(
    addr: SocketAddr,
    model: &SocModel,
    n: u8,
    mode: MatchMode,
    ptw: &[u8],
) -> Result<String, StreamError> {
    let plan = Replay {
        chunk_bytes: 64,
        ..Replay::new(n, mode)
    };
    replay(|_| connect(addr, &plan.policy), model.catalog(), ptw, &plan)
}

/// Streams `ptw` to the daemon and checks the reply against the
/// in-process feed of the same bytes.
fn stream_and_check(server: &Server, model: &SocModel, n: u8, mode: MatchMode, ptw: &[u8]) {
    let live = replay_plain(server.local_addr(), model, n, mode, ptw).unwrap();
    let local = in_process(model, n, mode, ptw);
    assert_eq!(
        stable_lines(&live),
        stable_lines(&local),
        "scenario {n} {mode:?}: daemon report diverged from the in-process session"
    );
}

#[test]
fn rejected_hellos_compile_nothing() {
    let model = SocModel::t2();
    let server = Server::spawn(Arc::new(SocModel::t2()), &ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let ptw = capture(&model, 1, &some_messages(&model, 1), 1);
    let (schema, _, _) = read_ptw_any(model.catalog(), &ptw).unwrap();
    let mut stray = write_ptw_schema(model.catalog(), &schema);
    stray.extend_from_slice(&[0xAA, 0x55]);

    for (scenario, schema_bytes) in [(1, b"not a schema".to_vec()), (1, stray)] {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let hello = Hello {
            scenario,
            mode: MatchMode::Prefix,
            tenant: 0,
            trace: 0,
            schema: schema_bytes,
        };
        proto::write_request(&mut writer, &Request::Session(hello)).unwrap();
        let err = proto::read_reply(&mut reader).expect_err("malformed hello is rejected");
        assert!(
            matches!(err, StreamError::Remote(_)),
            "typed rejection: {err}"
        );
    }
    let err = replay_plain(addr, &model, 9, MatchMode::Prefix, &ptw)
        .expect_err("scenario 9 does not exist");
    assert!(
        matches!(err, StreamError::Remote(_)),
        "typed rejection: {err}"
    );
    assert_eq!(
        cache_counts(&server),
        (0, 0, 0),
        "a rejected hello compiled"
    );

    stream_and_check(&server, &model, 1, MatchMode::Prefix, &ptw);
    assert_eq!(cache_counts(&server), (0, 1, 0));
    let snap = server.shutdown();
    assert_eq!((snap.completed, snap.failed), (1, 3));
}

#[test]
fn every_scenario_and_mode_compiles_once_and_reports_match_in_process() {
    let model = SocModel::t2();
    let server = Server::spawn(Arc::new(SocModel::t2()), &ServerConfig::default()).unwrap();
    let captures: Vec<(u8, Vec<u8>)> = (1..=5)
        .map(|n| {
            (
                n,
                capture(&model, n, &some_messages(&model, n), u64::from(n)),
            )
        })
        .collect();
    let keys = (captures.len() * MODES.len()) as u64;
    for round in 1..=2 {
        for (n, ptw) in &captures {
            for mode in MODES {
                stream_and_check(&server, &model, *n, mode, ptw);
            }
        }
        // Round one compiles every key; round two is all hits.
        assert_eq!(
            cache_counts(&server),
            (keys * (round - 1), keys, 0),
            "after round {round}"
        );
    }
    server.shutdown();
}

#[test]
fn a_flood_of_distinct_schemas_stops_at_the_cap() {
    let model = SocModel::t2();
    let server = Server::spawn(Arc::new(SocModel::t2()), &ServerConfig::default()).unwrap();
    let alphabet = scenario_by_number(1).unwrap().messages(&model);
    // Nonempty subsets of scenario 1's messages, one key per mode each.
    let flood = PROGRAM_CACHE_CAP + 6;
    let keys: Vec<(Vec<MessageId>, MatchMode)> = (1u32..1 << alphabet.len())
        .map(|mask| {
            alphabet
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &m)| m)
                .collect::<Vec<_>>()
        })
        .flat_map(|subset| MODES.map(|mode| (subset.clone(), mode)))
        .take(flood)
        .collect();
    assert_eq!(keys.len(), flood, "scenario 1 has enough distinct keys");
    let captures: Vec<Vec<u8>> = keys
        .iter()
        .map(|(messages, _)| capture(&model, 1, messages, 3))
        .collect();
    for ((_, mode), ptw) in keys.iter().zip(&captures) {
        stream_and_check(&server, &model, 1, *mode, ptw);
    }
    let cap = PROGRAM_CACHE_CAP as u64;
    assert_eq!(cache_counts(&server), (0, cap, flood as u64 - cap));

    // The first key was cached; the last one still compiles uncached.
    stream_and_check(&server, &model, 1, keys[0].1, &captures[0]);
    stream_and_check(&server, &model, 1, keys[flood - 1].1, &captures[flood - 1]);
    assert_eq!(cache_counts(&server), (1, cap, flood as u64 - cap + 1));
    server.shutdown();
}
