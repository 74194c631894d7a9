//! Wire codec throughput: encode and decode cost for selection-derived
//! frame streams, and the v1-vs-v2 dialect comparison (encode rec/s,
//! decode MB/s, bytes/record, compression ratio — the EXPERIMENTS.md
//! §wire table). Decode runs one-shot and incrementally in 256-byte
//! chunks, the push pattern of a live session.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pstrace_codec::{decode_v2, encode_v2, ProfileV2, DEFAULT_SYNC_EVERY};
use pstrace_core::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace_flow::{FlowIndex, IndexedMessage};
use pstrace_soc::{wirecap, SocModel, TraceBufferConfig, UsageScenario};
use pstrace_wire::{
    decode_stream, encode_records, Decoded, FrameProfile, ProfileV1, WireRecord, WireSchema,
};

/// Builds the scenario-1 selection schema over the paper's 32-bit buffer
/// plus a long synthetic record stream that exercises every slot.
fn setup(records: usize) -> (WireSchema, Vec<WireRecord>) {
    let model = SocModel::t2();
    let scenario = UsageScenario::scenario1();
    let buffer = TraceBufferSpec::new(32).expect("nonzero");
    let selection = Selector::new(
        &scenario.interleaving(&model).expect("interleaves"),
        SelectionConfig::new(buffer),
    )
    .select()
    .expect("selection succeeds");
    let config = TraceBufferConfig {
        messages: selection.chosen.messages.clone(),
        groups: selection.packed_groups.clone(),
        depth: None,
    };
    let schema =
        wirecap::wire_schema(&model, &config, buffer.width_bits()).expect("schema fits buffer");
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
    (schema, stream)
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
        b.iter(|| black_box(decode_stream(&schema, &v1.bytes, Some(v1.bit_len))));
    });
    group.bench_function("decode_v2", |b| {
        b.iter(|| black_box(decode_v2(&schema, &v2.bytes, Some(v2.bit_len))));
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
    group.finish();
}

criterion_group!(benches, bench_encode, bench_profiles);
criterion_main!(benches);
