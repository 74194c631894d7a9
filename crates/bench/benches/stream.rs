//! Live ingest throughput: in-process [`Session`] chunk pushes vs the
//! full loopback TCP path, the online localizer's linear scaling
//! against re-running the batch DP on every growing prefix, the
//! localizer's per-push cost on a live and on a dead frontier, and the
//! session-open layer with and without a compiled localizer program.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use pstrace_core::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace_diag::{consistent_paths, MatchMode, OnlineLocalizer};
use pstrace_flow::{executions, FlowIndex, IndexedMessage, InterleavedFlow, MessageId};
use pstrace_soc::{wirecap, SocModel, TraceBufferConfig, UsageScenario};
use pstrace_stream::{
    connect, observed_messages, replay, scenario_by_number, Replay, Server, ServerConfig, Session,
};
use pstrace_wire::{
    encode_records, read_ptw_header, write_ptw, write_ptw_schema, WireRecord, WireSchema,
};

/// The interleaving of `scenario` and the wire schema of its 32-bit
/// trace-buffer selection.
fn selected_schema(model: &SocModel, scenario: &UsageScenario) -> (InterleavedFlow, WireSchema) {
    let buffer = TraceBufferSpec::new(32).expect("nonzero");
    let flow = scenario.interleaving(model).expect("interleaves");
    let selection = Selector::new(&flow, SelectionConfig::new(buffer))
        .select()
        .expect("selection succeeds");
    let config = TraceBufferConfig {
        messages: selection.chosen.messages.clone(),
        groups: selection.packed_groups.clone(),
        depth: None,
    };
    let schema =
        wirecap::wire_schema(model, &config, buffer.width_bits()).expect("schema fits buffer");
    (flow, schema)
}

/// Scenario-1 ingest fixture: the interleaved flow, its selection-derived
/// wire schema, and a synthetic `records`-long encoded stream.
fn setup(records: usize) -> (InterleavedFlow, WireSchema, Vec<u8>, u64) {
    let model = SocModel::t2();
    let (flow, schema) = selected_schema(&model, &UsageScenario::scenario1());
    let slots = schema.slots().to_vec();
    let stream: Vec<WireRecord> = (0..records)
        .map(|i| {
            let slot = &slots[i % slots.len()];
            WireRecord {
                time: i as u64,
                message: IndexedMessage::new(slot.message, FlowIndex(1 + (i % 3) as u32)),
                value: (i as u64 * 0x9e37) & ((1 << slot.width) - 1),
                partial: slot.is_partial(),
            }
        })
        .collect();
    let encoded = encode_records(&schema, &stream, None).expect("encodes");
    let ptw = write_ptw(model.catalog(), &schema, &encoded);
    (flow, schema, ptw, encoded.bit_len)
}

/// The schema-prefix length and payload of a `.ptw` container, so the
/// in-process path can replay exactly the bytes the client would send.
fn payload_of(ptw: &[u8]) -> Vec<u8> {
    let model = SocModel::t2();
    let (_, consumed) =
        pstrace_wire::read_ptw_schema(model.catalog(), ptw).expect("container parses");
    ptw[consumed + 8..].to_vec()
}

fn bench_ingest(c: &mut Criterion) {
    let (flow, schema, ptw, bit_len) = setup(20_000);
    let payload = payload_of(&ptw);
    let model = Arc::new(SocModel::t2());

    let mut group = c.benchmark_group("stream_ingest_20k_records");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));

    group.bench_function("in_process_session_4k_chunks", |b| {
        b.iter(|| {
            let mut session = Session::new(&flow, schema.clone(), MatchMode::Prefix);
            for chunk in payload.chunks(4096) {
                session.push_chunk(chunk);
            }
            black_box(session.finish(Some(bit_len)))
        });
    });

    group.bench_function("loopback_tcp_4k_chunks", |b| {
        let server = Server::spawn(Arc::clone(&model), &ServerConfig::default()).expect("binds");
        let addr = server.local_addr();
        let plan = Replay {
            chunk_bytes: 4096,
            ..Replay::new(1, MatchMode::Prefix)
        };
        b.iter(|| {
            black_box(
                replay(
                    |_| connect(addr, &plan.policy),
                    model.catalog(),
                    &ptw,
                    &plan,
                )
                .expect("replay succeeds"),
            )
        });
        server.shutdown();
    });
    group.finish();
}

fn bench_online_localization(c: &mut Criterion) {
    let (flow, _, _, _) = setup(0);
    let alphabet = flow.message_alphabet();
    let selected: Vec<MessageId> = alphabet.iter().take(2).copied().collect();
    // A long observation: cycle projected records of a real execution so
    // the prefix-mode frontier keeps live mass for a while before dying.
    let exec = executions(&flow).next().expect("nonempty flow");
    let projection = exec.project(&selected);
    let observed: Vec<IndexedMessage> = projection.iter().cycle().take(256).copied().collect();

    let mut group = c.benchmark_group("online_vs_batch_localization_256_pushes");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));

    group.bench_function("online_incremental", |b| {
        b.iter(|| {
            let mut online = OnlineLocalizer::new(&flow, &selected, MatchMode::Prefix);
            for &m in &observed {
                online.push(m);
            }
            black_box(online.consistent())
        });
    });

    group.bench_function("batch_per_prefix", |b| {
        b.iter(|| {
            let mut last = 0u128;
            for n in 1..=observed.len() {
                last = consistent_paths(&flow, &observed[..n], &selected, MatchMode::Prefix);
            }
            black_box(last)
        });
    });
    group.finish();
}

/// The localizer layer alone, per scenario: each iteration pushes one
/// execution's projection (Prefix mode, the scenario's 32-bit
/// selection — what the daemon runs). `live` pushes it onto a fresh
/// localizer, so every push lands on a frontier that carries mass;
/// `dead` pushes it onto a localizer whose frontier a repeat of the
/// projection already emptied — the state of most pushes in a long
/// stream. Divide by the projection length for the per-push cost.
fn bench_localizer_push(c: &mut Criterion) {
    let model = SocModel::t2();
    let mut group = c.benchmark_group("localizer_push");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in 1..=3 {
        let scenario = scenario_by_number(n).expect("scenario exists");
        let (flow, schema) = selected_schema(&model, &scenario);
        let selected = observed_messages(&schema);
        let projection = executions(&flow)
            .next()
            .expect("nonempty flow")
            .project(&selected);
        let fresh = OnlineLocalizer::new(&flow, &selected, MatchMode::Prefix);
        let mut dead = fresh.clone();
        dead.push_all(projection.iter().chain(&projection).copied());
        assert_eq!(
            dead.frontier().support(),
            0,
            "the repeat empties the frontier"
        );

        group.bench_function(format!("live/scenario{n}"), |b| {
            b.iter_batched(
                || fresh.clone(),
                |mut online| {
                    online.push_all(projection.iter().copied());
                    online.consistent()
                },
                BatchSize::SmallInput,
            );
        });
        group.bench_function(format!("dead/scenario{n}"), |b| {
            b.iter(|| {
                dead.push_all(projection.iter().copied());
                dead.consistent()
            });
        });
    }
    group.finish();
}

/// What the daemon pays to open one session from a hello's schema
/// bytes. `cold` is the uncached open: interleave the scenario, parse
/// the schema, compile the localizer. `cached` parses the schema and
/// builds the session from an already compiled program — the daemon's
/// path on a program-cache hit.
fn bench_session_open(c: &mut Criterion) {
    let model = SocModel::t2();
    let mut group = c.benchmark_group("session_open");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in 1..=3 {
        let scenario = scenario_by_number(n).expect("scenario exists");
        let (flow, schema) = selected_schema(&model, &scenario);
        let hello = write_ptw_schema(model.catalog(), &schema);
        let program =
            OnlineLocalizer::compile(&flow, &observed_messages(&schema), MatchMode::Prefix);

        group.bench_function(format!("cold/scenario{n}"), |b| {
            b.iter(|| {
                let flow = scenario.interleaving(&model).expect("interleaves");
                let (schema, meta, _) =
                    read_ptw_header(model.catalog(), &hello).expect("schema parses");
                black_box(Session::with_meta(&flow, schema, meta, MatchMode::Prefix))
            });
        });
        group.bench_function(format!("cached/scenario{n}"), |b| {
            b.iter(|| {
                let (schema, meta, _) =
                    read_ptw_header(model.catalog(), &hello).expect("schema parses");
                black_box(Session::from_program(Arc::clone(&program), schema, meta))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest,
    bench_online_localization,
    bench_localizer_push,
    bench_session_open
);
criterion_main!(benches);
