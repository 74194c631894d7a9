//! Fault-injection overhead: the wire-seam corruptor's throughput, the
//! chaos transport wrapper's per-write cost, and what a damaged stream
//! costs the ingest session compared to a clean one.

use std::io::Write as _;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pstrace_diag::MatchMode;
use pstrace_faults::{corrupt_wire, ChaosStream, FaultLedger, FaultPlan, Fixture};
use pstrace_rng::Rng64;
use pstrace_stream::Session;

fn bench_wire_corruptor(c: &mut Criterion) {
    let Fixture {
        schema, encoded, ..
    } = Fixture::new(20_000).expect("fixture builds");
    let plan = FaultPlan::heavy(11);

    let mut group = c.benchmark_group("chaos_corrupt_wire_20k_frames");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("heavy_plan", |b| {
        b.iter(|| {
            let mut rng = Rng64::seed_from_u64(11);
            let mut ledger = FaultLedger::new();
            black_box(corrupt_wire(
                &plan,
                0,
                schema.frame_bits(),
                &encoded,
                &mut rng,
                &mut ledger,
            ))
        });
    });
    group.finish();
}

fn bench_chaos_transport(c: &mut Criterion) {
    // No sleep-inducing faults: this measures the wrapper's bookkeeping,
    // not the injected latency.
    let mut transport = FaultPlan::heavy(3).without_reconnect_faults().transport;
    transport.delay_chunk = 0.0;
    transport.slow_loris = 0.0;
    let payload = vec![0xA5u8; 256];

    let mut group = c.benchmark_group("chaos_stream_4k_writes");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("split_faults_only", |b| {
        b.iter(|| {
            let mut chaos =
                ChaosStream::new(std::io::sink(), transport, Rng64::seed_from_u64(3), 0);
            for _ in 0..4096 {
                chaos.write_all(&payload).expect("sink never fails");
            }
            black_box(chaos.into_parts().1)
        });
    });
    group.finish();
}

fn bench_faulted_vs_clean_ingest(c: &mut Criterion) {
    let Fixture {
        flow,
        schema,
        encoded: clean,
        ..
    } = Fixture::new(20_000).expect("fixture builds");
    let plan = FaultPlan::standard(7);
    let mut rng = Rng64::seed_from_u64(7);
    let mut ledger = FaultLedger::new();
    let damaged = corrupt_wire(&plan, 0, schema.frame_bits(), &clean, &mut rng, &mut ledger);

    let mut group = c.benchmark_group("session_ingest_20k_records");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    for (label, stream) in [("clean", &clean), ("standard_damage", &damaged)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut session = Session::new(&flow, schema.clone(), MatchMode::Prefix);
                for chunk in stream.bytes.chunks(4096) {
                    session.push_chunk(chunk);
                }
                black_box(session.finish(Some(stream.bit_len)))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_wire_corruptor,
    bench_chaos_transport,
    bench_faulted_vs_clean_ingest
);
criterion_main!(benches);
