//! Wire codec throughput: encode and decode cost for selection-derived
//! frame streams, and the v1-vs-v2 dialect comparison (encode rec/s,
//! decode MB/s, bytes/record, compression ratio — the EXPERIMENTS.md
//! §wire table). Decode runs one-shot and incrementally in 256-byte
//! chunks, the push pattern of a live session, over a synthetic stream
//! and over simulated scenario-1 captures — the traffic a live v2
//! session carries — both intact and with every 16th sync block damaged.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pstrace_codec::{
    encode_v2, ProfileV2, BLOCK_HEADER_BYTES, DEFAULT_SYNC_EVERY, MIN_BLOCK_BYTES,
};
use pstrace_core::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace_faults::slot_cycling_records;
use pstrace_soc::{
    capture, wirecap, SimConfig, Simulator, SocModel, TraceBufferConfig, UsageScenario,
};
use pstrace_wire::{
    decode_with, encode_records, Decoded, FrameProfile, ProfileV1, WireRecord, WireSchema,
};

/// The scenario-1 selection over the paper's 32-bit buffer, turned into
/// a trace-buffer configuration and a wire schema as `pstrace debug`
/// does.
fn selection() -> (SocModel, TraceBufferConfig, WireSchema) {
    let model = SocModel::t2();
    let scenario = UsageScenario::scenario1();
    let buffer = TraceBufferSpec::new(32).expect("nonzero");
    let selection = Selector::new(
        &scenario.interleaving(&model).expect("interleaves"),
        SelectionConfig::new(buffer),
    )
    .select()
    .expect("selection succeeds");
    let config = TraceBufferConfig::from_selection(&selection, None);
    let schema =
        wirecap::wire_schema(&model, &config, buffer.width_bits()).expect("schema fits buffer");
    (model, config, schema)
}

/// The scenario-1 schema plus a long synthetic record stream that
/// exercises every slot ([`slot_cycling_records`]).
fn setup(records: usize) -> (WireSchema, Vec<WireRecord>) {
    let (_, _, schema) = selection();
    let stream = slot_cycling_records(&schema, records);
    (schema, stream)
}

/// The scenario-1 schema plus `records` records of back-to-back
/// simulated scenario-1 runs (seeds 1, 2, ...) captured through the
/// selected configuration, each run shifted to start after the last.
/// Tag runs, index changes and time deltas follow the simulator, so
/// the decoder's data-dependent fields vary like real captures.
fn scenario1_capture(records: usize) -> (WireSchema, Vec<WireRecord>) {
    let (model, config, schema) = selection();
    let mut out = Vec::with_capacity(records);
    let (mut base, mut seed) = (0u64, 0u64);
    while out.len() < records {
        seed += 1;
        let sim = Simulator::new(
            &model,
            UsageScenario::scenario1(),
            SimConfig::with_seed(seed),
        );
        let trace = capture(&model, &sim.run(), &config);
        let mut last = base;
        for &r in trace.records() {
            last = base + r.time;
            out.push(WireRecord { time: last, ..r });
        }
        base = last + 1 + seed % 64;
    }
    out.truncate(records);
    (schema, out)
}

fn bench_encode(c: &mut Criterion) {
    let (schema, records) = setup(20_000);
    let mut group = c.benchmark_group("wire_encode_20k_records");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("unbounded", |b| {
        b.iter(|| black_box(encode_records(&schema, &records, None).expect("encodes")));
    });
    group.bench_function("depth_4096_ring", |b| {
        b.iter(|| black_box(encode_records(&schema, &records, Some(4096)).expect("encodes")));
    });
    group.finish();
}

/// A live session's push pattern without the localizer: push 256-byte
/// chunks, drain each into one reused buffer, then finish. Returns the
/// records decoded.
fn decode_incremental(profile: &dyn FrameProfile, schema: &WireSchema, bytes: &[u8]) -> usize {
    let mut decoder = profile.decoder(schema);
    let mut out = Decoded::default();
    let mut records = 0;
    for chunk in bytes.chunks(256) {
        decoder.push(chunk);
        decoder.drain(&mut out);
        records += out.events.len();
        out.events.clear();
        out.damaged.clear();
    }
    decoder.finish(None, &mut out);
    records + out.events.len()
}

/// `bytes` (a v2 stream) with one payload bit flipped in every 16th
/// sync block: each such block is decoded, fails its CRC and is dropped
/// by its `block_len`.
fn flip_every_16th_block(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let (mut at, mut block) = (0, 0);
    while at < out.len() {
        let len = usize::from(u16::from_le_bytes([out[at + 2], out[at + 3]]));
        if block % 16 == 15 {
            out[at + BLOCK_HEADER_BYTES + (len - MIN_BLOCK_BYTES) / 2] ^= 0x08;
        }
        at += len;
        block += 1;
    }
    out
}

/// v1 vs v2 on the same 20k-record stream: wall-clock for both
/// directions of both dialects, plus a one-shot size table (bytes per
/// record and the compression ratio) printed to stderr for
/// EXPERIMENTS.md.
fn bench_profiles(c: &mut Criterion) {
    let (schema, records) = setup(20_000);
    let v1 = encode_records(&schema, &records, None).expect("encodes");
    let v2 = encode_v2(&schema, &records, DEFAULT_SYNC_EVERY, None).expect("encodes");
    eprintln!(
        "wire_profiles: {} records | v1 {} bytes ({:.2} B/rec) | v2 {} bytes ({:.2} B/rec) \
         | v2/v1 = {:.3} (sync every {DEFAULT_SYNC_EVERY})",
        records.len(),
        v1.bytes.len(),
        v1.bytes.len() as f64 / records.len() as f64,
        v2.bytes.len(),
        v2.bytes.len() as f64 / records.len() as f64,
        v2.bytes.len() as f64 / v1.bytes.len() as f64,
    );

    let mut group = c.benchmark_group("wire_profiles_20k_records");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("encode_v1", |b| {
        b.iter(|| black_box(encode_records(&schema, &records, None).expect("encodes")));
    });
    group.bench_function("encode_v2", |b| {
        b.iter(|| {
            black_box(encode_v2(&schema, &records, DEFAULT_SYNC_EVERY, None).expect("encodes"))
        });
    });
    group.bench_function("decode_v1", |b| {
        b.iter(|| {
            black_box(decode_with(
                &ProfileV1,
                &schema,
                &v1.bytes,
                Some(v1.bit_len),
            ))
        });
    });
    group.bench_function("decode_v2", |b| {
        let v2p = ProfileV2::default();
        b.iter(|| black_box(decode_with(&v2p, &schema, &v2.bytes, Some(v2.bit_len))));
    });
    group.bench_function("decode_incremental/v1/chunk256", |b| {
        b.iter(|| black_box(decode_incremental(&ProfileV1, &schema, &v1.bytes)));
    });
    group.bench_function("decode_incremental/v2/chunk256", |b| {
        b.iter(|| {
            black_box(decode_incremental(
                &ProfileV2::default(),
                &schema,
                &v2.bytes,
            ))
        });
    });
    let (schema, captured) = scenario1_capture(20_000);
    let v2 = encode_v2(&schema, &captured, DEFAULT_SYNC_EVERY, None).expect("encodes");
    group.bench_function("decode_incremental/v2/scenario1_capture", |b| {
        b.iter(|| {
            black_box(decode_incremental(
                &ProfileV2::default(),
                &schema,
                &v2.bytes,
            ))
        });
    });
    let damaged = flip_every_16th_block(&v2.bytes);
    group.bench_function("decode_incremental/v2/scenario1_capture_damaged", |b| {
        b.iter(|| black_box(decode_incremental(&ProfileV2::default(), &schema, &damaged)));
    });
    group.finish();
}

criterion_group!(benches, bench_encode, bench_profiles);
criterion_main!(benches);
