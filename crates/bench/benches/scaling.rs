//! Scalability sweep: selection cost as a function of concurrent flow
//! instances — the paper's third contribution is making scalability an
//! explicit objective. `select_vs_instances` times the whole Steps 1–3
//! [`Selector`] as the interleaving grows; `rank_instrumentation` holds
//! its observed path to the ≤ 2 % overhead budget.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pstrace_core::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace_diag::MatchMode;
use pstrace_faults::Fixture;
use pstrace_obs::{EventKind, FlightHandle, FlightRecorder, Registry};
use pstrace_soc::{FlowKind, SocModel, UsageScenario};
use pstrace_stream::Session;

fn scaling_scenario(instances: u32) -> UsageScenario {
    UsageScenario::custom(
        9,
        &format!("{instances}x(PIOW+NCUD+Mon)"),
        &[
            (FlowKind::PioWrite, instances),
            (FlowKind::NcuDownstream, instances),
            (FlowKind::Mondo, instances),
        ],
    )
}

fn bench_scaling(c: &mut Criterion) {
    let model = SocModel::t2();
    let mut group = c.benchmark_group("select_vs_instances");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(8));
    for instances in [1u32, 2, 3] {
        let scenario = scaling_scenario(instances);
        let product = scenario.interleaving(&model).expect("interleaves");
        let config = SelectionConfig::new(TraceBufferSpec::new(32).expect("nonzero"));
        group.bench_function(
            format!("{instances}x_states_{}", product.state_count()),
            |b| {
                b.iter(|| Selector::new(&product, config).select().expect("selects"));
            },
        );
    }
    group.finish();
}

/// Instrumentation overhead: the same selection over the 3-instance
/// scenario (145800 product states) with and without a live
/// [`Registry`]. The observed path pays one registry construction, one
/// counter update and four phase spans per run — the search and scoring
/// loops are untouched, so the two curves must stay within a few percent.
fn bench_instrumentation_overhead(c: &mut Criterion) {
    let model = SocModel::t2();
    let scenario = scaling_scenario(3);
    let product = scenario.interleaving(&model).expect("interleaves");
    let selector = Selector::new(
        &product,
        SelectionConfig::new(TraceBufferSpec::new(32).expect("nonzero")),
    );

    let mut group = c.benchmark_group("rank_instrumentation_3x");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(8));
    group.bench_function("plain", |b| {
        b.iter(|| black_box(selector.select().expect("selects")));
    });
    group.bench_function("observed", |b| {
        b.iter(|| {
            // A fresh registry each run: construction and span recording
            // are part of the cost being measured.
            let registry = Registry::new();
            black_box(selector.select_observed(Some(&registry)).expect("selects"))
        });
    });
    group.finish();
}

/// Flight-recorder overhead: the same in-process session ingest with
/// and without a bound [`FlightHandle`]. The recorded path pays the
/// handle plumbing plus the per-session lifecycle quartet the daemon
/// journals (open/handshake/finish/close) — the per-chunk decode loop
/// notes nothing on a clean stream, so the two curves must stay within
/// a couple percent (the ≤ 2 % budget EXPERIMENTS.md pins, like
/// `rank_instrumentation`).
fn bench_recorder_overhead(c: &mut Criterion) {
    let Fixture {
        flow,
        schema,
        encoded,
        ..
    } = Fixture::new(20_000).expect("fixture builds");
    let payload = encoded.bytes;
    let bit_len = encoded.bit_len;

    let mut group = c.benchmark_group("recorder_overhead_20k_records");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(8));
    group.bench_function("plain", |b| {
        b.iter(|| {
            let mut session = Session::new(&flow, schema.clone(), MatchMode::Prefix);
            for chunk in payload.chunks(4096) {
                session.push_chunk(chunk);
            }
            black_box(session.finish(Some(bit_len)))
        });
    });
    group.bench_function("recorded", |b| {
        // One long-lived recorder, as in the daemon; each run binds a
        // fresh handle and journals the session lifecycle around the
        // same ingest loop.
        let recorder = Arc::new(FlightRecorder::new(2, 4096));
        let mut session_id = 0u64;
        b.iter(|| {
            session_id += 1;
            let handle =
                FlightHandle::new(Arc::clone(&recorder), 1, session_id | (1 << 63), session_id);
            handle.note(EventKind::Open, "");
            handle.note(EventKind::Handshake, "");
            let mut session = Session::new(&flow, schema.clone(), MatchMode::Prefix);
            session.set_flight(handle.clone());
            for chunk in payload.chunks(4096) {
                session.push_chunk(chunk);
            }
            let report = session.finish(Some(bit_len));
            handle.note(EventKind::Finish, "");
            handle.note(EventKind::Close, "");
            black_box(report)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scaling,
    bench_instrumentation_overhead,
    bench_recorder_overhead
);
criterion_main!(benches);
