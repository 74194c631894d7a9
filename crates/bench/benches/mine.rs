//! Flow-mining throughput: records/s through the full mining pipeline
//! (extract → cluster → assemble → validate → score) on wire-tripped
//! scenario corpora, and the marginal cost of the atomic-occupancy
//! validation pass.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pstrace_mine::{default_seeds, scenario_executions, Miner, MiningConfig};
use pstrace_soc::{SocModel, UsageScenario};

fn paper_scenarios() -> Vec<UsageScenario> {
    vec![
        UsageScenario::scenario1(),
        UsageScenario::scenario2(),
        UsageScenario::scenario3(),
        UsageScenario::scenario_dma(),
        UsageScenario::scenario_coherence(),
    ]
}

/// A miner pre-loaded with `seeds` wire-tripped captures of every paper
/// scenario, so the benchmark measures mining alone, not simulation.
fn corpus_miner(model: &SocModel, seeds: u64, config: MiningConfig) -> (Miner, u64) {
    let seeds = default_seeds(seeds);
    let mut miner = Miner::new(model.catalog().clone(), config);
    let mut records = 0u64;
    for scenario in paper_scenarios() {
        let (logs, _) = scenario_executions(model, &scenario, &seeds).expect("corpus encodes");
        for log in logs {
            records += log.len() as u64;
            miner.push_log(log);
        }
    }
    (miner, records)
}

fn bench_mine(c: &mut Criterion) {
    let model = SocModel::t2();
    let (miner, records) = corpus_miner(&model, 16, MiningConfig::default());
    let mut group = c.benchmark_group(format!("mine_all_scenarios_{records}_records"));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("full_pipeline", |b| {
        b.iter(|| black_box(miner.mine()));
    });
    let no_atomics = MiningConfig {
        validate_atomics: false,
        ..MiningConfig::default()
    };
    let (lean, _) = corpus_miner(&model, 16, no_atomics);
    group.bench_function("without_atomic_validation", |b| {
        b.iter(|| black_box(lean.mine()));
    });
    group.finish();
}

criterion_group!(benches, bench_mine);
criterion_main!(benches);
