//! The two end-to-end paths, timed with tracing off.
//!
//! Both paths run against a two-shard loopback daemon that journals each
//! session to a strict (fsync) WAL, fed by the resumable client. Each
//! path sets up `SETUP_REPS` times (the median is `setup_s`), then builds
//! its inputs and their oracle, warms up on every unit once, and runs its
//! clients for the requested seconds: in a closed loop (the next session
//! goes out when the previous one is answered) or, for the fleet, on a
//! fixed schedule. Set-up and the loop are measured in process CPU time
//! (see [`crate::clock`]).

use std::cell::Cell;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstrace::soc::SocModel;
use pstrace::stream::durable::DurabilityPolicy;
use pstrace::stream::{
    scenario_by_number, stream_ptw_resumable, RetryPolicy, Server, ServerConfig,
};

use crate::fixture::{report_body, Dialect, Pipeline, Seeds, Unit, CHUNK_BYTES, MODE};
use crate::{clock, rescale, Args, Done, Meter, Outcome};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// What a user pays before the first record: the SoC model, the daemon
/// (bind, shard threads, WAL open and recovery) and the trace-buffer
/// selection of every scenario the clients capture.
pub struct Daemon {
    pub model: Arc<SocModel>,
    pub server: Server,
    /// One per streamed scenario, in the order asked for.
    pub pipelines: Vec<Pipeline>,
}

impl Daemon {
    /// Spawns the daemon with its WAL in `wal_dir` and selects for each
    /// of `scenarios` (numbers as the PSTS hello carries them).
    pub fn spawn(scenarios: &[u8], wal_dir: &Path) -> Result<Daemon, String> {
        let model = Arc::new(SocModel::t2());
        let config = ServerConfig {
            shards: 2,
            durability: DurabilityPolicy::Strict,
            wal_dir: Some(wal_dir.to_path_buf()),
            ..ServerConfig::default()
        };
        let server = Server::spawn(Arc::clone(&model), &config)
            .map_err(|e| format!("daemon failed to start: {e}"))?;
        let mut pipelines = Vec::with_capacity(scenarios.len());
        for &n in scenarios {
            let scenario = scenario_by_number(n).map_err(|e| e.to_string())?;
            pipelines.push(Pipeline::new(&model, scenario)?);
        }
        Ok(Daemon {
            model,
            server,
            pipelines,
        })
    }

    /// Sets up `SETUP_REPS` times in fresh WAL directories, timing each in
    /// process CPU time rescaled to the nominal host; keeps the last. Each
    /// earlier daemon shuts down before the next set-up starts, so its
    /// idle threads do not bill it.
    fn timed(args: &Args, scenarios: &[u8]) -> Result<(Daemon, Vec<Duration>), String> {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut kept: Option<Daemon> = None;
        for rep in 0..SETUP_REPS {
            if let Some(old) = kept.take() {
                old.server.shutdown();
            }
            let wal_dir = args.work_dir.join(format!("wal-{rep}"));
            let started = clock::process();
            kept = Some(Daemon::spawn(scenarios, &wal_dir)?);
            times.push(rescale(clock::process() - started));
        }
        Ok((kept.expect("at least one set-up"), times))
    }

    /// Streams `unit` through the resumable client and checks the
    /// daemon's report. Returns the round trips the session took.
    pub fn session(&self, unit: &Unit) -> Result<u64, String> {
        let addr = self.server.local_addr();
        let policy = RetryPolicy::default();
        let round_trips = Cell::new(0);
        // The transport `stream_ptw_with` builds, wrapped to count.
        let connect = |_attempt| -> io::Result<Counted<'_>> {
            let conn = TcpStream::connect_timeout(&addr, policy.connect_timeout)?;
            conn.set_nodelay(true)?;
            conn.set_read_timeout(Some(policy.read_timeout))?;
            Ok(Counted {
                conn,
                wrote: false,
                round_trips: &round_trips,
            })
        };
        let reply = stream_ptw_resumable(
            connect,
            self.model.catalog(),
            unit.scenario,
            MODE,
            &unit.ptw,
            CHUNK_BYTES,
            &policy,
        )
        .map_err(|e| format!("session failed: {e}"))?;
        let body = report_body(&reply);
        if body != unit.expect {
            return Err(format!(
                "daemon report differs from the oracle:\n{body}\n--- expected ---\n{}",
                unit.expect
            ));
        }
        Ok(round_trips.get())
    }
}

/// A client socket that counts round trips: a read that follows a write
/// is the client waiting on the daemon's answer.
struct Counted<'a> {
    conn: TcpStream,
    wrote: bool,
    round_trips: &'a Cell<u64>,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if std::mem::take(&mut self.wrote) {
            self.round_trips.set(self.round_trips.get() + 1);
        }
        self.conn.read(buf)
    }
}

impl Write for Counted<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.wrote |= !buf.is_empty();
        self.conn.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.conn.flush()
    }
}

/// The shape of an ingest workload.
pub struct IngestSpec {
    pub dialect: Dialect,
    /// Records per session of back-to-back runs; `None` sends one whole
    /// run per session.
    pub records: Option<usize>,
    /// Scenarios captured, round-robin over the units.
    pub scenarios: &'static [u8],
    /// Distinct captures, replayed round-robin.
    pub units: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// `Some(t)`: each client starts a session every `t` (an open loop,
    /// as independent uploaders send); `None`: it starts the next one
    /// when the previous is answered (a closed loop).
    pub every: Option<Duration>,
}

/// `live-long`: one client, long compressed sessions.
pub const LIVE: IngestSpec = IngestSpec {
    dialect: Dialect::V2,
    records: Some(20_000),
    scenarios: &[1],
    units: 2,
    clients: 1,
    every: None,
};

/// `fleet-short`: four independent uploaders, one run per v1 session,
/// 100 sessions/s in all. The rate is fixed because the daemon polls its
/// sockets: most of its CPU at this load is the polling loop, which
/// bills by wall time, so a closed loop's CPU per record would follow
/// the host's speed. A loaded 2-vCPU host still answers a session in
/// about 12 ms, well inside each uploader's 40 ms.
pub const FLEET: IngestSpec = IngestSpec {
    dialect: Dialect::V1,
    records: None,
    scenarios: &[1, 2, 3],
    units: 48,
    clients: 4,
    every: Some(Duration::from_millis(40)),
};

/// A running daemon with the units it will be sent.
pub struct Ingest {
    pub daemon: Daemon,
    pub units: Vec<Unit>,
}

impl Ingest {
    /// Builds the inputs and their oracle for `daemon`.
    pub fn new(args: &Args, spec: &IngestSpec, daemon: Daemon) -> Result<Ingest, String> {
        let mut seeds = Seeds::new(args.seed);
        let mut units = Vec::with_capacity(spec.units);
        for k in 0..spec.units {
            let pipeline = &daemon.pipelines[k % daemon.pipelines.len()];
            let records = match spec.records {
                Some(count) => pipeline.records(&daemon.model, &mut seeds, count)?,
                None => pipeline.run(&daemon.model, &mut seeds)?,
            };
            let one_run = spec.records.is_none();
            units.push(Unit::new(
                &daemon.model,
                pipeline,
                records,
                spec.dialect,
                one_run,
            )?);
        }
        Ok(Ingest { daemon, units })
    }

    /// Streams unit `i` (round-robin) and checks the daemon's report.
    pub fn session(&self, i: usize) -> Result<Done, String> {
        let unit = &self.units[i % self.units.len()];
        Ok(Done {
            records: unit.records.len(),
            round_trips: self.daemon.session(unit)?,
        })
    }
}

fn ingest_path(args: &Args, spec: &IngestSpec) -> Result<Outcome, String> {
    let (daemon, setups) = Daemon::timed(args, spec.scenarios)?;
    let ingest = Ingest::new(args, spec, daemon)?;
    // Warm-up: every unit once, checked but not timed.
    let meter = Meter::default();
    for i in 0..ingest.units.len() {
        meter.note(ingest.session(i));
    }
    meter.start();
    let next = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    std::thread::scope(|scope| {
        for _ in 0..spec.clients {
            scope.spawn(|| {
                let mut due = Instant::now();
                while Instant::now() < deadline {
                    if let Some(every) = spec.every {
                        // On schedule; a late session starts at once.
                        if let Some(early) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(early);
                        }
                        due += every;
                    }
                    meter.note(ingest.session(next.fetch_add(1, Ordering::Relaxed)));
                }
            });
        }
    });
    let outcome = meter.outcome(&setups);
    ingest.daemon.server.shutdown();
    Ok(outcome)
}

pub fn live_long(args: &Args) -> Result<Outcome, String> {
    ingest_path(args, &LIVE)
}

pub fn fleet_short(args: &Args) -> Result<Outcome, String> {
    ingest_path(args, &FLEET)
}
