//! `pstrace-obs` — std-only observability for the pstrace pipeline.
//!
//! The paper argues for designed-in observability of silicon; this crate
//! applies the same discipline to the reproduction itself. It provides:
//!
//! - a **global-free [`Registry`]** of atomic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s — no singletons, callers own their
//!   registry and share it via `Arc`;
//! - **timing [`Span`]s** with an injectable [`Clock`] so production code
//!   reads a wall clock while tests inject a [`ManualClock`] and get
//!   bit-identical, golden-testable timings;
//! - **exporters**: Prometheus-style text exposition
//!   ([`render_prometheus`]), Chrome trace-event JSON
//!   ([`render_chrome_trace`]) and the human `--profile` table
//!   ([`render_profile_table`]).
//!
//! Zero dependencies by design: the instrumented crates sit below the
//! CLI, and everything here is a thin veneer over `std::sync::atomic`.
//!
//! Instrumented subsystems name their counters
//! `pstrace_<subsystem>_<quantity>_total` (Prometheus style), so one
//! registry can host the whole pipeline without collisions — e.g. the
//! selector's `pstrace_select_*` family, the ingest daemon's
//! `pstrace_stream_*` family and the flow miner's
//! `pstrace_mine_*` family (`pstrace_mine_executions_total`,
//! `pstrace_mine_sequences_total`, `pstrace_mine_skipped_frames_total`,
//! `pstrace_mine_candidates_total`, ...). Phase timings use bare
//! kebab-case span names scoped by the subsystem's prefix convention
//! (`mine-extract`, `mine-assemble`, `mine-validate`, `mine-score`).
//!
//! ```
//! use pstrace_obs::{ManualClock, Registry, render_profile_table};
//!
//! let obs = Registry::with_clock(Box::new(ManualClock::new()));
//! obs.counter("frames").add(7);
//! let answer = obs.time("rank", || 6 * 7);
//! assert_eq!(answer, 42);
//! assert!(render_profile_table(&obs).contains("rank"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod export;
mod metrics;
mod recorder;
mod span;

pub use clock::{Clock, ManualClock, WallClock, MANUAL_TICK_NS};
pub use export::{
    json_escape, prometheus_to_json, render_chrome_trace, render_chrome_trace_spans,
    render_profile_table, render_prometheus, render_prometheus_samples, validate_json, JsonValue,
};
pub use metrics::{
    maybe_time, merged_samples, Counter, Gauge, Histogram, MetricKey, Registry, Sample,
};
pub use recorder::{
    reason_code, reason_label, EventKind, FlightEvent, FlightHandle, FlightRecorder, FlightRing,
    FlightSnapshot, DEFAULT_FLIGHT_CAPACITY, REASON_LABELS,
};
pub use span::{phase_summaries, PhaseSummary, Span, SpanRecord};
