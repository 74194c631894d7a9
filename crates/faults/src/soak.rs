//! The soak harness: all three fault seams against a live in-process
//! daemon, scored for survival.
//!
//! [`run_soak`] spins up a real [`pstrace_stream::Server`] on a loopback
//! socket, then replays the synthetic scenario-1 capture of
//! [`Fixture`](crate::Fixture) (the one the ingest benches and tests
//! replay too) through it once per session — each copy corrupted at the
//! wire seam by [`corrupt_wire`](crate::corrupt_wire), each transport
//! wrapped in a [`ChaosStream`], each session driven by the hardened
//! resumable client so transport deaths exercise the park/resume path.
//! Afterward it streams one *clean* probe session and checks the
//! daemon's localization line against the batch pipeline's — the proof
//! that the storm neither killed the daemon nor bent its answers.
//!
//! Fleet mode: [`SoakConfig::concurrency`] fans the storm out over that
//! many client threads against a daemon running
//! [`SoakConfig::shards`] shard workers, which is how the `fleet`
//! bench measures aggregate ingest throughput. Determinism survives the
//! fan-out: every injector draws only from forks of
//! [`FaultPlan::session_rng`], each session keeps its own pair of
//! ledgers, and the merged [`FaultLedger`] absorbs them in session
//! order after the storm — so for plans without reconnect-path
//! transport faults (see [`FaultPlan::without_reconnect_faults`]) the
//! fingerprint is a pure function of the plan, at any concurrency.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::mem;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use pstrace_diag::MatchMode;
use pstrace_obs::{FlightHandle, FlightRecorder, FlightSnapshot, Registry, Sample};
use pstrace_stream::{
    connect, next_trace_id, replay, Replay, RetryPolicy, Server, ServerConfig, StatsSnapshot,
};
use pstrace_wire::write_ptw;

use crate::chaos::ChaosStream;
use crate::fixture::Fixture;
use crate::ledger::FaultLedger;
use crate::plan::FaultPlan;
use crate::wire::corrupt_wire;

/// Tenant ids cycle over this many distinct tenants so the daemon's
/// per-tenant accounting is always exercised, quota or no quota.
const TENANT_CYCLE: u64 = 4;

/// Knobs of one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// The fault plan (kinds × rates × burst models), including the seed.
    pub plan: FaultPlan,
    /// Faulted sessions to replay (one corrupted capture each).
    pub sessions: usize,
    /// Synthetic records per capture.
    pub records: usize,
    /// Client chunk size in bytes.
    pub chunk_bytes: usize,
    /// Daemon shard workers.
    pub shards: usize,
    /// Client threads driving the storm (1 = sequential).
    pub concurrency: usize,
    /// When set, the daemon spills its flight journal here (`.ptw` v2):
    /// on shutdown and, debounced, whenever a degradation path fires.
    pub flight_dump: Option<PathBuf>,
}

impl SoakConfig {
    /// A soak over `plan` with defaults sized for an interactive run.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        SoakConfig {
            plan,
            sessions: 8,
            records: 2_000,
            chunk_bytes: 256,
            shards: 2,
            concurrency: 1,
            flight_dump: None,
        }
    }
}

/// What a soak run produced, with the survival verdict attached.
#[derive(Debug)]
pub struct SoakReport {
    /// The seed the whole run derived from.
    pub seed: u64,
    /// Sessions replayed under fault injection.
    pub sessions: usize,
    /// Faulted sessions the daemon completed with a report.
    pub completed: usize,
    /// Faulted sessions that failed *gracefully* (typed error, no panic).
    pub failed: usize,
    /// Daemon shard workers the storm ran against.
    pub shards: usize,
    /// Client threads that drove the storm.
    pub concurrency: usize,
    /// Wall-clock duration of the storm (excludes fixture build and the
    /// clean probe).
    pub elapsed: Duration,
    /// Aggregate ingest rate: records of *completed* sessions over
    /// [`SoakReport::elapsed`].
    pub records_per_sec: f64,
    /// Every fault injected, merged across seams in session order.
    pub ledger: FaultLedger,
    /// The daemon's aggregated counters after the storm.
    pub snapshot: StatsSnapshot,
    /// `pstrace_degradation_events_total` by `path` label.
    pub degradations: BTreeMap<String, u64>,
    /// The daemon's flight journal after the storm (pre-shutdown), so
    /// callers can cross-check it against the counters.
    pub flight: FlightSnapshot,
    /// Whether the post-storm clean probe completed at all.
    pub probe_completed: bool,
    /// Whether the probe's localization line was bit-identical to the
    /// batch pipeline's on the same clean capture.
    pub probe_matches_batch: bool,
    /// The localization line the batch pipeline computed.
    pub batch_localization: String,
}

impl SoakReport {
    /// The survival criteria of the harness: no worker panics escaped,
    /// and after the storm the daemon served a clean session whose
    /// localization is bit-identical to the batch pipeline's.
    ///
    /// # Errors
    ///
    /// Every violated criterion, newline-joined.
    pub fn survival(&self) -> Result<(), String> {
        let mut violations = Vec::new();
        if self.snapshot.worker_panics > 0 {
            violations.push(format!(
                "{} worker panic(s) escaped a session",
                self.snapshot.worker_panics
            ));
        }
        if !self.probe_completed {
            violations.push("the post-storm clean probe did not complete".to_owned());
        } else if !self.probe_matches_batch {
            violations
                .push("the clean probe's localization diverged from the batch pipeline".to_owned());
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("\n"))
        }
    }

    /// Renders the survival report (ledger, daemon counters, verdict).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chaos soak      : seed {}, {} sessions ({} completed, {} failed gracefully)",
            self.seed, self.sessions, self.completed, self.failed
        );
        let _ = writeln!(
            out,
            "throughput      : {:.2}s across {} shard(s) × {} client(s) → {:.0} records/s",
            self.elapsed.as_secs_f64(),
            self.shards,
            self.concurrency,
            self.records_per_sec
        );
        out.push_str(&self.ledger.render());
        let _ = writeln!(
            out,
            "daemon          : {} sessions, {} parked, {} resumed, {} shed, {} handoffs, {} worker panics, {} accept retries",
            self.snapshot.sessions,
            self.snapshot.parked,
            self.snapshot.resumed,
            self.snapshot.shed,
            self.snapshot.handoffs,
            self.snapshot.worker_panics,
            self.snapshot.accept_retries
        );
        if self.degradations.is_empty() {
            let _ = writeln!(out, "degradations    : none");
        } else {
            let _ = writeln!(out, "degradations    :");
            for (path, count) in &self.degradations {
                let _ = writeln!(out, "  {path:<16}: {count}");
            }
        }
        let _ = writeln!(
            out,
            "flight journal  : {} events captured ({} recorded, {} overwritten)",
            self.flight.events.len(),
            self.flight.recorded,
            self.flight.overwritten
        );
        let probe = if !self.probe_completed {
            "FAILED"
        } else if self.probe_matches_batch {
            "clean, bit-identical to batch"
        } else {
            "completed but DIVERGED from batch"
        };
        let _ = writeln!(out, "clean probe     : {probe}");
        let _ = match self.survival() {
            Ok(()) => writeln!(out, "verdict         : survived"),
            Err(v) => writeln!(out, "verdict         : FAILED\n{v}"),
        };
        out
    }
}

/// What one storm session left behind: its verdict and its two
/// per-seam ledgers, merged into the run ledger in session order.
struct SessionOutcome {
    ok: bool,
    wire: FaultLedger,
    transport: FaultLedger,
}

/// One storm session end to end: corrupt the capture at the wire seam,
/// replay it through a chaos-wrapped resumable client. Runs on whichever
/// client thread claimed the session index; all randomness forks from
/// `plan.session_rng(s)`, so the outcome ledgers are independent of
/// thread interleaving.
fn run_one_session(
    s: usize,
    fixture: &Fixture,
    plan: &FaultPlan,
    addr: SocketAddr,
    policy: RetryPolicy,
    chunk_bytes: usize,
    flight: &Arc<FlightRecorder>,
) -> SessionOutcome {
    let session = s as u64;
    let srng = plan.session_rng(session);
    // One trace id for the whole logical session: every reconnect's
    // hello carries it, and every injected fault is journaled under it,
    // so the flight timeline shows cause (chaos) and effect (park,
    // resume, damage) on one thread. Lane 0: injected faults are
    // external stimulus, daemon scope.
    let trace = next_trace_id();
    let fault_handle = FlightHandle::new(Arc::clone(flight), 0, trace, session);

    let mut wire_rng = srng.fork(1);
    let mut wire = FaultLedger::new();
    let corrupted = corrupt_wire(
        plan,
        session,
        fixture.schema.frame_bits(),
        &fixture.encoded,
        &mut wire_rng,
        &mut wire,
    );
    let ptw = write_ptw(fixture.model.catalog(), &fixture.schema, &corrupted);

    let transport_ledger = Arc::new(Mutex::new(FaultLedger::new()));
    let connector_ledger = Arc::clone(&transport_ledger);
    let transport_faults = plan.transport;
    let plan = Replay {
        tenant: (session % TENANT_CYCLE) as u32,
        trace,
        chunk_bytes,
        policy,
        ..Replay::new(1, MatchMode::Prefix)
    };
    let result = replay(
        move |attempt| -> io::Result<ChaosStream<TcpStream>> {
            Ok(ChaosStream::with_ledger(
                connect(addr, &policy)?,
                transport_faults,
                srng.fork(0x7a_0000 + u64::from(attempt)),
                session,
                Arc::clone(&connector_ledger),
            )
            .with_flight(fault_handle.clone()))
        },
        fixture.model.catalog(),
        &ptw,
        &plan,
    );

    let transport = mem::take(
        &mut *transport_ledger
            .lock()
            .expect("transport ledger lock poisoned"),
    );
    SessionOutcome {
        ok: result.is_ok(),
        wire,
        transport,
    }
}

/// Runs one seeded soak: `config.sessions` corrupted replays through a
/// live daemon (fanned out over `config.concurrency` client threads),
/// then the clean probe. See the module docs for the determinism
/// contract.
///
/// # Errors
///
/// Only harness-construction failures (fixture or bind); fault-induced
/// session failures are *data*, reported in the [`SoakReport`].
pub fn run_soak(config: &SoakConfig) -> Result<SoakReport, String> {
    let plan = &config.plan;
    let fixture = Fixture::new(config.records.max(1))?;
    let registry = Arc::new(Registry::new());
    let concurrency = config.concurrency.max(1);

    // Sequential storms keep the server's read timeout well under the
    // client backoff: a dead transport must be parked before the
    // client's resume arrives. Fleet storms widen both daemon deadlines
    // — with hundreds of client threads contending for cores, a healthy
    // session can legitimately go quiet for longer than 150 ms.
    let (read_timeout, handshake_timeout) = if concurrency == 1 {
        (Duration::from_millis(150), Duration::from_millis(500))
    } else {
        (Duration::from_secs(2), Duration::from_secs(5))
    };
    let server_config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: config.shards.max(1),
        read_timeout,
        handshake_timeout,
        resume_grace: Duration::from_secs(10),
        flight_dump: config.flight_dump.clone(),
        ..ServerConfig::default()
    };
    let server = Server::spawn_with_registry(
        Arc::clone(&fixture.model),
        &server_config,
        Arc::clone(&registry),
    )
    .map_err(|e| format!("daemon failed to bind: {e}"))?;
    let addr = server.local_addr();

    let policy = RetryPolicy {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(1),
        max_reconnects: 6,
        initial_backoff: Duration::from_millis(500),
        max_backoff: Duration::from_secs(1),
    };
    let chunk_bytes = config.chunk_bytes.max(1);

    // The storm. Client threads claim session indices from a shared
    // counter; each session's outcome lands in its own slot so the
    // merged ledger can absorb them in session order afterward —
    // fingerprints are interleaving-independent.
    let slots: Vec<OnceLock<SessionOutcome>> =
        (0..config.sessions).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let workers = concurrency.min(config.sessions.max(1));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let s = next.fetch_add(1, Ordering::Relaxed);
                if s >= config.sessions {
                    break;
                }
                let outcome = run_one_session(
                    s,
                    &fixture,
                    plan,
                    addr,
                    policy,
                    chunk_bytes,
                    server.flight_recorder(),
                );
                let _ = slots[s].set(outcome);
            });
        }
    });
    let elapsed = started.elapsed();

    let mut ledger = FaultLedger::new();
    let mut completed = 0usize;
    let mut failed = 0usize;
    for slot in slots {
        let outcome = slot.into_inner().expect("every claimed session reports");
        if outcome.ok {
            completed += 1;
        } else {
            failed += 1;
        }
        ledger.absorb(&outcome.wire);
        ledger.absorb(&outcome.transport);
    }
    let records_per_sec = if elapsed.as_secs_f64() > 0.0 {
        (completed * config.records.max(1)) as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };

    for (kind, count) in ledger.counts() {
        registry
            .counter_with("pstrace_faults_injected_total", &[("kind", kind)])
            .add(count as u64);
    }

    // The clean probe: one undamaged capture over a plain session. The
    // daemon must still accept it and answer exactly like batch.
    let (probe_completed, probe_matches_batch) = fixture.probe(addr, chunk_bytes);

    // Counters live across the root registry *and* every shard's — the
    // server's own merge is the only honest aggregate.
    let snapshot = server.snapshot();
    let mut degradations = BTreeMap::new();
    for (key, sample) in server.merged_samples() {
        if key.name() != "pstrace_degradation_events_total" {
            continue;
        }
        let Sample::Counter(v) = sample else { continue };
        for (label, value) in key.labels() {
            if label == "path" {
                *degradations.entry(value.clone()).or_insert(0) += v;
            }
        }
    }
    // Journal read-out before shutdown, so it is consistent with the
    // counters above (shutdown appends Drain/Shutdown events).
    let flight = server.flight_snapshot();
    server.shutdown();

    Ok(SoakReport {
        seed: plan.seed,
        sessions: config.sessions,
        completed,
        failed,
        shards: config.shards.max(1),
        concurrency,
        elapsed,
        records_per_sec,
        ledger,
        snapshot,
        degradations,
        flight,
        probe_completed,
        probe_matches_batch,
        batch_localization: fixture.batch_localization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_soak_completes_every_session_and_matches_batch() {
        let mut config = SoakConfig::new(FaultPlan::quiet(3));
        config.sessions = 2;
        config.records = 300;
        let report = run_soak(&config).expect("harness builds");
        assert_eq!(report.completed, 2);
        assert_eq!(report.failed, 0);
        assert!(report.ledger.is_empty());
        assert!(report.probe_matches_batch, "{}", report.render());
        report.survival().expect("quiet soak survives");
    }

    #[test]
    fn deterministic_plan_reproduces_its_fingerprint() {
        let mut config = SoakConfig::new(FaultPlan::standard(41).without_reconnect_faults());
        config.sessions = 2;
        config.records = 400;
        let a = run_soak(&config).expect("harness builds");
        let b = run_soak(&config).expect("harness builds");
        assert!(!a.ledger.is_empty());
        assert_eq!(a.ledger.fingerprint(), b.ledger.fingerprint());
        assert_eq!(a.ledger.len(), b.ledger.len());
        a.survival().expect("soak survives");
    }

    #[test]
    fn concurrent_storm_matches_the_sequential_fingerprint() {
        let mut config = SoakConfig::new(FaultPlan::standard(77).without_reconnect_faults());
        config.sessions = 6;
        config.records = 200;
        config.shards = 3;
        let sequential = run_soak(&config).expect("harness builds");
        config.concurrency = 6;
        let concurrent = run_soak(&config).expect("harness builds");
        assert!(!sequential.ledger.is_empty());
        assert_eq!(
            sequential.ledger.fingerprint(),
            concurrent.ledger.fingerprint()
        );
        assert_eq!(
            sequential.completed + sequential.failed,
            concurrent.completed + concurrent.failed
        );
        concurrent.survival().expect("concurrent soak survives");
    }
}
