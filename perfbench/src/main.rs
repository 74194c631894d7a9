//! `perfbench` — the end-to-end and per-layer benchmark of pstrace.
//!
//! ```text
//! perfbench --workload <live-long|fleet-short> --seed <n>
//!           --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Two workloads, each a path a user of the tool takes, both against a
//! two-shard loopback daemon journaling every session to a strict
//! (fsync) WAL, fed by the resumable client:
//!
//! * `live-long` — one client streams long captures (20k records of
//!   back-to-back scenario-1 runs, compressed v2 dialect), one session
//!   after another;
//! * `fleet-short` — four uploaders stream short captures (one whole run
//!   of scenario 1, 2 or 3 each, v1 dialect) at 100 sessions/s in all.
//!
//! With `--trace 0` a run reports the end-to-end metrics: CPU time per
//! record (client and daemon threads together) and the set-up cost, both
//! rescaled to a nominal host by an interleaved reference kernel (see
//! [`rescale`]) — on a shared VM wall-clock figures swing with the
//! neighbours' load — and, for the waits CPU time cannot see, the fsyncs
//! and the client's round trips per session. With `--trace 1` it replays
//! the same units of work with every layer timed on its own (the
//! per-layer ledger, see [`ledger`]). Every reply and report is checked
//! against an in-process oracle; the last stdout line is one JSON object.

mod fixture;
mod ledger;
mod paths;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from("perfbench/work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value == "1",
            "--work-dir" => args.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// One session done: the records it carried and the round trips it took.
pub struct Done {
    pub records: usize,
    pub round_trips: u64,
}

/// What a run measured: the result line's fields.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed (a failed session also clears this).
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Windows of the measured loop: each closes at the first unit boundary
/// at least this long after it opened.
const WINDOW: Duration = Duration::from_millis(200);

/// The books of a measured loop, shared by its client threads: the
/// checks on every unit, and process CPU time per record in windows
/// closed at unit boundaries, each rescaled to the nominal host by a
/// reference-kernel run taken as the window closes (see [`rescale`]).
/// The median over windows shrugs off the bursts of a busy host. The
/// sessions, round trips and fsyncs of the whole loop are counted too.
pub struct Meter {
    books: Mutex<Books>,
}

struct Books {
    attempted: u64,
    failed: u64,
    /// Whether units now count toward windows (after the warm-up).
    measuring: bool,
    opened: Instant,
    opened_cpu: Duration,
    records: u64,
    cpu_us_per_record: Vec<f64>,
    sessions: u64,
    round_trips: u64,
    /// The process's fsync count when measuring began.
    fsyncs_before: u64,
}

impl Default for Meter {
    fn default() -> Meter {
        Meter {
            books: Mutex::new(Books {
                attempted: 0,
                failed: 0,
                measuring: false,
                opened: Instant::now(),
                opened_cpu: Duration::ZERO,
                records: 0,
                cpu_us_per_record: Vec::new(),
                sessions: 0,
                round_trips: 0,
                fsyncs_before: 0,
            }),
        }
    }
}

impl Meter {
    fn books(&self) -> std::sync::MutexGuard<'_, Books> {
        self.books
            .lock()
            .expect("a client panicked while noting a unit")
    }

    /// Ends the warm-up: opens the first window.
    pub fn start(&self) {
        let mut b = self.books();
        b.measuring = true;
        b.opened = Instant::now();
        b.opened_cpu = clock::process();
        b.fsyncs_before = fsync::count();
    }

    /// Notes one unit's result: what it did, or why it failed.
    pub fn note(&self, result: Result<Done, String>) {
        let mut b = self.books();
        b.attempted += 1;
        match result {
            Ok(done) if b.measuring => {
                b.records += done.records as u64;
                b.sessions += 1;
                b.round_trips += done.round_trips;
                if b.opened.elapsed() >= WINDOW && b.records > 0 {
                    let cpu = clock::process() - b.opened_cpu;
                    let per_record = rescale(cpu).as_secs_f64() * 1e6 / b.records as f64;
                    b.cpu_us_per_record.push(per_record);
                    // The reference run sits between windows, not in one.
                    b.opened = Instant::now();
                    b.opened_cpu = clock::process();
                    b.records = 0;
                }
            }
            Ok(_) => {}
            Err(e) => {
                if b.failed == 0 {
                    eprintln!("perfbench: {e}");
                }
                b.failed += 1;
            }
        }
    }

    /// The end-to-end metrics, with the median of the repeated set-ups.
    /// Call it before the daemon shuts down: its drain fsyncs too.
    pub fn outcome(self, setups: &[Duration]) -> Outcome {
        let mut b = self.books.into_inner().expect("no client panicked");
        let fsyncs = fsync::count() - b.fsyncs_before;
        let sessions = b.sessions.max(1) as f64;
        b.cpu_us_per_record.sort_unstable_by(f64::total_cmp);
        let metrics = vec![
            Metric {
                name: "cpu_us_per_record",
                value: quantile(&b.cpu_us_per_record, 0.5),
                unit: "us",
            },
            Metric {
                name: "fsyncs_per_session",
                value: fsyncs as f64 / sessions,
                unit: "count",
            },
            Metric {
                name: "round_trips_per_session",
                value: b.round_trips as f64 / sessions,
                unit: "count",
            },
            Metric {
                name: "setup_s",
                value: median(setups).as_secs_f64(),
                unit: "s",
            },
        ];
        Outcome {
            attempted: b.attempted,
            failed: b.failed,
            // A strict WAL that never synced means the counter missed it.
            correct: b.failed == 0 && !b.cpu_us_per_record.is_empty() && fsyncs > 0,
            metrics,
        }
    }
}

/// Sorts this many pseudo-random words per reference-kernel run.
const REFERENCE_WORDS: usize = 16_384;

/// What one reference-kernel run costs on the nominal host (about what it
/// costs on an idle 2-core x86-64 sandbox VM).
const REFERENCE_NOMINAL: Duration = Duration::from_micros(450);

/// Runs the reference kernel — fixed work that shares no code with
/// pstrace: sorting pseudo-random words — and returns its thread CPU time.
pub fn reference_run() -> Duration {
    let started = clock::thread();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut words: Vec<u64> = (0..REFERENCE_WORDS)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 7
        })
        .collect();
    words.sort_unstable();
    std::hint::black_box(&words);
    clock::thread() - started
}

/// Rescales `cpu`, just spent, to the nominal host. On a shared VM the
/// neighbours' load changes how much work a CPU second buys (shared
/// cores, caches, memory bandwidth) by tens of percent from one minute
/// to the next; a reference-kernel run made now shows by how much, and
/// dividing it out leaves what the code under test itself costs.
pub fn rescale(cpu: Duration) -> Duration {
    let reference = reference_run().max(Duration::from_nanos(1));
    cpu.mul_f64(REFERENCE_NOMINAL.as_secs_f64() / reference.as_secs_f64())
}

/// CPU clocks. On a shared virtual machine the hypervisor can take the
/// CPU away for long stretches; wall-clock figures then swing with the
/// neighbours' load, while these clocks count only time the benchmark's
/// threads actually ran.
pub mod clock {
    use std::os::raw::{c_int, c_long};
    use std::time::Duration;

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }

    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    fn read(clock: c_int) -> Duration {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two C longs
        // on Linux) and `clock_gettime` writes nothing but it.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock}) failed");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }

    /// CPU time of every thread of this process, exited ones included.
    pub fn process() -> Duration {
        read(CLOCK_PROCESS_CPUTIME_ID)
    }

    /// CPU time of the calling thread.
    pub fn thread() -> Duration {
        read(CLOCK_THREAD_CPUTIME_ID)
    }
}

/// Counts the process's fsyncs. The binary defines `fsync` and
/// `fdatasync` itself, so every call the daemon's WAL makes through
/// std's `File::sync_all` / `sync_data` lands here first: it is counted
/// and passed to the kernel as the raw system call.
pub mod fsync {
    use std::os::raw::{c_int, c_long};
    use std::sync::atomic::{AtomicU64, Ordering};

    static CALLS: AtomicU64 = AtomicU64::new(0);

    extern "C" {
        fn syscall(number: c_long, ...) -> c_long;
    }

    #[cfg(target_arch = "x86_64")]
    const SYS_FSYNC: c_long = 74;
    #[cfg(target_arch = "x86_64")]
    const SYS_FDATASYNC: c_long = 75;
    #[cfg(target_arch = "aarch64")]
    const SYS_FSYNC: c_long = 82;
    #[cfg(target_arch = "aarch64")]
    const SYS_FDATASYNC: c_long = 83;

    fn counted(number: c_long, fd: c_int) -> c_int {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: fsync and fdatasync take one file descriptor and touch
        // no memory of ours; like glibc's wrappers, `syscall` returns -1
        // and sets errno on failure.
        unsafe { syscall(number, fd) as c_int }
    }

    #[unsafe(no_mangle)]
    pub extern "C" fn fsync(fd: c_int) -> c_int {
        counted(SYS_FSYNC, fd)
    }

    #[unsafe(no_mangle)]
    pub extern "C" fn fdatasync(fd: c_int) -> c_int {
        counted(SYS_FDATASYNC, fd)
    }

    /// fsyncs and fdatasyncs so far.
    pub fn count() -> u64 {
        CALLS.load(Ordering::Relaxed)
    }
}

/// Nearest-rank quantile of a sorted, nonempty sample.
pub fn quantile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(sample: &[Duration]) -> Duration {
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, 0.5)
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let outcome = match (args.workload.as_str(), args.trace) {
        ("live-long", false) => paths::live_long(args),
        ("fleet-short", false) => paths::fleet_short(args),
        ("live-long" | "fleet-short", true) => ledger::run(args),
        (other, _) => Err(format!(
            "unknown workload `{other}` (live-long, fleet-short)"
        )),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    outcome
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(outcome) => println!("{}", outcome.json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
