//! Criterion benches for the selection pipeline: interleaving
//! construction, mutual-information evaluation, and end-to-end selection
//! per usage scenario (the paper's scalability objective, §1).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pstrace_core::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace_infogain::mutual_information;
use pstrace_soc::{SocModel, UsageScenario};

fn bench_interleaving(c: &mut Criterion) {
    let model = SocModel::t2();
    let mut group = c.benchmark_group("interleaving_build");
    for scenario in UsageScenario::all_paper_scenarios() {
        group.bench_function(scenario.name(), |b| {
            b.iter(|| scenario.interleaving(&model).expect("interleaves"));
        });
    }
    group.finish();
}

fn bench_mutual_information(c: &mut Criterion) {
    let model = SocModel::t2();
    let mut group = c.benchmark_group("mutual_information");
    for scenario in UsageScenario::all_paper_scenarios() {
        let product = scenario.interleaving(&model).expect("interleaves");
        let alphabet = product.message_alphabet();
        group.bench_function(scenario.name(), |b| {
            b.iter(|| mutual_information(&product, &alphabet));
        });
    }
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let model = SocModel::t2();
    let mut group = c.benchmark_group("selection_end_to_end");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    for scenario in UsageScenario::all_paper_scenarios() {
        let product = scenario.interleaving(&model).expect("interleaves");
        let buffer = TraceBufferSpec::new(32).expect("nonzero");
        group.bench_function(scenario.name(), |b| {
            b.iter_batched(
                || SelectionConfig::new(buffer),
                |config| Selector::new(&product, config).select().expect("selects"),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_interleaving,
    bench_mutual_information,
    bench_selection
);
criterion_main!(benches);
