//! A minimal, dependency-free stand-in for the `criterion` crate.
//!
//! The build environment for this workspace has no crates.io access, so the
//! real `criterion` cannot appear in any manifest without breaking offline
//! lockfile resolution. This crate implements the slice of the criterion API
//! the workspace's `benches/*.rs` files use — [`Criterion`],
//! [`criterion_group!`], [`criterion_main!`], benchmark groups with
//! `sample_size` / `warm_up_time` / `measurement_time`, and benchers with
//! [`Bencher::iter`] and [`Bencher::iter_batched`] — with a straightforward
//! wall-clock measurement loop instead of criterion's statistical machinery.
//!
//! Measurement model: after a calibration run sizes the per-sample iteration
//! count, each benchmark warms up for `warm_up_time`, then collects
//! `sample_size` samples spread over `measurement_time` and reports the
//! median, mean, and minimum time per iteration. When the binary is invoked
//! with `--test` (as `cargo test --benches` does), every benchmark runs
//! exactly once so CI can smoke-test benches without paying measurement
//! time. As with criterion, the first argument that is not a flag is a
//! filter: only benchmarks whose full id contains it run, so
//! `cargo bench --bench wire -- scenario1_capture` runs only those rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` amortizes setup cost. The shim times each routine call
/// individually, so the variants behave identically; the type exists for API
/// compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration input (criterion batches many per sample).
    SmallInput,
    /// Large per-iteration input (criterion batches few per sample).
    LargeInput,
    /// Fresh input for every single iteration.
    PerIteration,
}

#[derive(Debug, Clone, Copy)]
struct Settings {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            sample_size: 20,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
        }
    }
}

/// Entry point handed to each benchmark function by [`criterion_group!`].
#[derive(Debug)]
pub struct Criterion {
    defaults: Settings,
    test_mode: bool,
    /// Only benchmarks whose full id contains this run.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Criterion {
            defaults: Settings::default(),
            test_mode: args.iter().any(|a| a == "--test"),
            filter: args.into_iter().find(|a| !a.starts_with('-')),
        }
    }
}

impl Criterion {
    /// Benchmarks `f` under `id` with the default settings.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        if selected(self.filter.as_deref(), &id) {
            run_benchmark(&id, self.defaults, self.test_mode, f);
        }
        self
    }

    /// Opens a named group whose settings can be tuned before benching.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            settings: self.defaults,
            test_mode: self.test_mode,
            filter: self.filter.as_deref(),
        }
    }
}

/// Whether the benchmark `id` passes the command line's filter.
fn selected(filter: Option<&str>, id: &str) -> bool {
    filter.map_or(true, |f| id.contains(f))
}

/// A group of related benchmarks sharing tuned measurement settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    settings: Settings,
    test_mode: bool,
    filter: Option<&'a str>,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples to collect per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.settings.sample_size = n;
        self
    }

    /// Sets how long to run the routine untimed before sampling.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.settings.warm_up = d;
        self
    }

    /// Sets the total time budget the samples are spread over.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement = d;
        self
    }

    /// Benchmarks `f` under `group_name/id` with the group's settings.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        if selected(self.filter, &full) {
            run_benchmark(&full, self.settings, self.test_mode, f);
        }
        self
    }

    /// Ends the group (output is flushed per benchmark; kept for API parity).
    pub fn finish(self) {}
}

/// Timing harness passed to every benchmark closure.
///
/// Exactly one `iter*` call is expected per invocation of the closure.
#[derive(Debug)]
pub struct Bencher {
    mode: BenchMode,
    /// Total measured time across `iters` routine invocations.
    elapsed: Duration,
    iters: u64,
}

#[derive(Debug, Clone, Copy)]
enum BenchMode {
    /// Run once, untimed — used for calibration and `--test` smoke runs.
    Once,
    /// Run `n` timed iterations.
    Measure(u64),
}

impl Bencher {
    /// Times `routine` for this sample's iteration count.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        let iters = match self.mode {
            BenchMode::Once => {
                black_box(routine());
                self.iters = 1;
                return;
            }
            BenchMode::Measure(n) => n,
        };
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
        self.iters = iters;
    }

    /// Times `routine` on inputs built (untimed) by `setup`.
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        let iters = match self.mode {
            BenchMode::Once => {
                black_box(routine(setup()));
                self.iters = 1;
                return;
            }
            BenchMode::Measure(n) => n,
        };
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
        self.iters = iters;
    }
}

fn run_benchmark<F>(id: &str, settings: Settings, test_mode: bool, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    if test_mode {
        let mut b = Bencher {
            mode: BenchMode::Once,
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        println!("{id}: ok (test mode, ran once)");
        return;
    }

    // Calibrate: one untimed-ish run to size the per-sample iteration count.
    let calib_start = Instant::now();
    let mut b = Bencher {
        mode: BenchMode::Once,
        elapsed: Duration::ZERO,
        iters: 0,
    };
    f(&mut b);
    let est = calib_start.elapsed().max(Duration::from_nanos(1));

    let per_sample = settings.measurement.div_f64(settings.sample_size as f64);
    let iters = (per_sample.as_secs_f64() / est.as_secs_f64()).max(1.0) as u64;

    // Warm up.
    let warm_start = Instant::now();
    while warm_start.elapsed() < settings.warm_up {
        let mut b = Bencher {
            mode: BenchMode::Measure(1),
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
    }

    // Sample.
    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(settings.sample_size);
    for _ in 0..settings.sample_size {
        let mut b = Bencher {
            mode: BenchMode::Measure(iters),
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        assert!(b.iters > 0, "benchmark closure never called an iter method");
        per_iter_ns.push(b.elapsed.as_secs_f64() * 1e9 / b.iters as f64);
    }
    per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));

    let median = per_iter_ns[per_iter_ns.len() / 2];
    let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
    let min = per_iter_ns[0];
    println!(
        "{id}: median {} (mean {}, min {}; {} samples x {} iters)",
        fmt_ns(median),
        fmt_ns(mean),
        fmt_ns(min),
        per_iter_ns.len(),
        iters,
    );
}

/// Formats a nanosecond quantity with a human-readable unit.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Bundles benchmark functions into one runnable group, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Expands to `fn main` running the listed groups, criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion {
            defaults: Settings {
                sample_size: 3,
                warm_up: Duration::from_millis(1),
                measurement: Duration::from_millis(5),
            },
            test_mode: false,
            filter: None,
        };
        let mut calls = 0u64;
        c.bench_function("shim/smoke", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        assert!(calls > 0, "routine was never invoked");
    }

    #[test]
    fn groups_apply_settings_and_batched_iter_works() {
        let mut c = Criterion {
            defaults: Settings::default(),
            test_mode: false,
            filter: None,
        };
        let mut group = c.benchmark_group("shim");
        group
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(4));
        let mut setups = 0u64;
        let mut runs = 0u64;
        group.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![1u8; 16]
                },
                |v| {
                    runs += 1;
                    v.len()
                },
                BatchSize::SmallInput,
            )
        });
        group.finish();
        assert_eq!(setups, runs, "every routine run gets a fresh setup");
        assert!(runs > 0);
    }

    #[test]
    fn test_mode_runs_each_bench_once() {
        let mut c = Criterion {
            defaults: Settings::default(),
            test_mode: true,
            filter: None,
        };
        let mut calls = 0u64;
        c.bench_function("shim/once", |b| {
            b.iter(|| {
                calls += 1;
            })
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn the_filter_selects_benchmarks_by_full_id() {
        let mut c = Criterion {
            defaults: Settings::default(),
            test_mode: true,
            filter: Some("capture".to_owned()),
        };
        let (mut kept, mut skipped) = (0u64, 0u64);
        c.bench_function("decode/capture", |b| b.iter(|| kept += 1));
        c.bench_function("decode/chunk256", |b| b.iter(|| skipped += 1));
        let mut group = c.benchmark_group("v2");
        group.bench_function("scenario1_capture", |b| b.iter(|| kept += 1));
        group.bench_function("chunk256", |b| b.iter(|| skipped += 1));
        group.finish();
        assert_eq!((kept, skipped), (2, 0));
        assert!(selected(None, "anything"));
    }

    #[test]
    fn ns_formatting_picks_sane_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(1_500.0), "1.500 us");
        assert_eq!(fmt_ns(2_500_000.0), "2.500 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.000 s");
    }
}
