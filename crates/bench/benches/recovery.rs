//! WAL append overhead: the same 20k-record resumable ingest against a
//! loopback daemon with durability off, lazy (append, no fsync) and
//! strict (one fsync per session, for its open group). The WAL journals
//! session *lifecycle*, not payload, so the per-session cost is a
//! handful of 64-byte appends — the budget is <= 5% over
//! `--durability off` (recorded in EXPERIMENTS.md).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pstrace_diag::MatchMode;
use pstrace_faults::Fixture;
use pstrace_soc::SocModel;
use pstrace_stream::durable::DurabilityPolicy;
use pstrace_stream::{
    connect, replay, Replay, RetryPolicy, Server, ServerConfig, DEFAULT_WAL_BUDGET,
};

fn bench_wal_overhead(c: &mut Criterion) {
    let ptw = Fixture::new(20_000).expect("fixture builds").ptw;
    let model = Arc::new(SocModel::t2());
    let plan = Replay {
        chunk_bytes: 4096,
        policy: RetryPolicy::default(),
        ..Replay::new(1, MatchMode::Prefix)
    };

    let mut group = c.benchmark_group("recovery_wal_overhead_20k_records");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));

    for policy_name in ["off", "lazy", "strict"] {
        let durability = DurabilityPolicy::from_name(policy_name).expect("known policy");
        let wal_dir = match durability {
            DurabilityPolicy::Off => None,
            _ => {
                let dir = std::env::temp_dir().join(format!(
                    "pstrace-bench-recovery-{policy_name}-{}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                Some(dir)
            }
        };
        let server = Server::spawn(
            Arc::clone(&model),
            &ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                shards: 2,
                durability,
                wal_dir: wal_dir.clone(),
                wal_budget: DEFAULT_WAL_BUDGET,
                ..ServerConfig::default()
            },
        )
        .expect("binds");
        let addr = server.local_addr();
        // The resumable client, so every session journals the full Open
        // group (token + schema chunks) — the worst case for the WAL.
        group.bench_function(format!("resumable_tcp_4k_chunks_{policy_name}"), |b| {
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
        });
        server.shutdown();
        if let Some(dir) = wal_dir {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    group.finish();
}

criterion_group!(benches, bench_wal_overhead);
criterion_main!(benches);
