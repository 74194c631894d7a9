//! WAL append overhead: the same 20k-record resumable ingest against a
//! loopback daemon with durability off, lazy (append, no fsync) and
//! strict (one fsync per session, for its open group). The WAL journals
//! session *lifecycle*, not payload, so the per-session cost is a
//! handful of 64-byte appends — the budget is <= 5% over
//! `--durability off` (recorded in EXPERIMENTS.md).
//!
//! Spawn cost: `server_spawn/{fresh_dir,recovering_dir}` time one idle
//! strict 2-shard daemon life per iteration, `Server::spawn` then
//! `shutdown`, into a new WAL directory or into one a previous life left
//! with eight journaled sessions. The shards open their journals on
//! their own threads, which only the shutdown's join waits for, so the
//! rows time the whole life rather than the call alone.

use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use pstrace_diag::MatchMode;
use pstrace_faults::Fixture;
use pstrace_soc::SocModel;
use pstrace_stream::durable::{fresh_epoch, DurabilityPolicy, WalWriter};
use pstrace_stream::{
    connect, proto, replay, Replay, RetryPolicy, Server, ServerConfig, DEFAULT_WAL_BUDGET,
};
use pstrace_wire::split_ptw;

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

fn bench_server_spawn(c: &mut Criterion) {
    let fx = Fixture::new(200).expect("fixture builds");
    let schema = split_ptw(fx.model.catalog(), &fx.ptw)
        .expect("the fixture splits")
        .header
        .to_vec();
    let strict = |dir: &Path| ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 2,
        durability: DurabilityPolicy::Strict,
        wal_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    let base = std::env::temp_dir().join(format!("pstrace-bench-spawn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // What a previous life leaves: per shard, a journal whose header
    // carries the epoch, then four open groups whose sessions recovery
    // re-parks.
    let recovering = base.join("recovering");
    let epoch = fresh_epoch();
    let mode = proto::mode_to_byte(MatchMode::Prefix);
    for shard in 0..2 {
        let mut wal = WalWriter::open(
            &recovering,
            shard,
            2,
            epoch,
            DurabilityPolicy::Strict,
            DEFAULT_WAL_BUDGET,
        )
        .expect("opens the journal");
        for seq in 1..=4u64 {
            let token = seq * 2 + shard as u64;
            wal.append_open(token, token, token, 1, mode, 0, &schema)
                .expect("journals the open group");
        }
    }

    let mut group = c.benchmark_group("server_spawn");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let life = |dir: &Path| {
        Server::spawn(Arc::clone(&fx.model), &strict(dir))
            .expect("spawns")
            .shutdown()
    };
    let lives = Cell::new(0u64);
    group.bench_function("fresh_dir", |b| {
        b.iter_batched(
            || {
                // A new directory per life; the last one goes untimed.
                let n = lives.get();
                lives.set(n + 1);
                let _ = std::fs::remove_dir_all(base.join(format!("fresh-{n}")));
                base.join(format!("fresh-{}", n + 1))
            },
            |dir| life(&dir),
            BatchSize::PerIteration,
        );
    });
    group.bench_function("recovering_dir", |b| {
        b.iter(|| {
            let snap = life(&recovering);
            assert_eq!(snap.recovered, 8, "every journaled session re-parks");
            snap
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&base);
}

criterion_group!(benches, bench_wal_overhead, bench_server_spawn);
criterion_main!(benches);
