//! Seeded, deterministic fault injection for the pstrace pipeline.
//!
//! Post-silicon trace infrastructure earns its keep on *bad* days: dead
//! buffer banks, flaky links, wedged DMA engines. This crate makes bad
//! days reproducible. A [`FaultPlan`] composes fault kinds × rates ×
//! burst models at the three seams of the ingest pipeline, and every
//! injector draws exclusively from a forked [`pstrace_rng::Rng64`]
//! stream, so identical `(plan, seed)` produce identical fault sequences
//! — certified by the [`FaultLedger`]'s running fingerprint.
//!
//! * **Wire seam** — [`corrupt_wire`]: bit flips (optionally bursty),
//!   mid-frame truncation, duplicated and reordered frames, operating at
//!   frame granularity through bit-level re-serialization (frames are
//!   not byte-aligned);
//! * **Transport seam** — [`ChaosStream`]: a `Read + Write` wrapper
//!   that drops, splits, delays and slow-lorises writes, or tears the
//!   connection down mid-stream;
//! * **Session seam** — damage storms inside [`corrupt_wire`]: a
//!   contiguous run of frames stomped with noise, the fault that empties
//!   an online localizer frontier and exercises its resync path;
//! * **Daemon seam** — [`run_crash_soak`]: the ingest process itself
//!   destroyed mid-soak (SIGKILL, or an armed `PSTRACE_CRASH_POINT`
//!   abort inside a WAL critical section), then restarted on the same
//!   WAL directory; every parked session must resume across the crash.
//!
//! [`run_soak`] composes all three against an in-process
//! [`pstrace_stream::Server`] and scores the result: the daemon must
//! survive every fault, account for every degradation on a designed
//! path, and still serve a clean session afterward with localization
//! bit-identical to the batch pipeline. The `pstrace chaos` subcommand,
//! the `chaos_soak` integration test and the `chaos` bench all drive
//! this one harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chaos;
mod crash;
mod fixture;
mod ledger;
mod plan;
mod soak;
mod watchdog;
mod wire;

pub use chaos::ChaosStream;
pub use crash::{flip_wal_byte, run_crash_soak, tear_wal_tail, CrashSoakConfig, CrashSoakReport};
pub use fixture::{slot_cycling_records, Fixture};
pub use ledger::{FaultEvent, FaultLedger};
pub use plan::{
    BurstModel, FaultGate, FaultKind, FaultPlan, Seam, SessionFaults, TransportFaults, WireFaults,
};
pub use soak::{run_soak, SoakConfig, SoakReport};
pub use watchdog::{poll_until, stable_lines, watchdog, Watchdog};
pub use wire::corrupt_wire;
