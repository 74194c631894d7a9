//! Transaction-level OpenSPARC-T2-like SoC substrate.
//!
//! The paper's evaluation runs on the OpenSPARC T2 with System-Verilog
//! monitors lifting RTL signals to flow messages (Figure 4). This crate is
//! the Rust stand-in: a seeded, cycle-based transaction-level simulator of
//! the same IP blocks ([`Ip`]) executing the same five protocol flows
//! ([`FlowKind`], shapes matching Table 1) under the interleaving semantics
//! of the flow formalism, emitting message events that a modeled trace
//! buffer ([`TraceBufferConfig`] / [`capture`]) filters down to the
//! observed trace.
//!
//! Bug injection plugs in through the [`MessageInterceptor`] hook; golden
//! and buggy runs share all randomness, so any trace difference is caused
//! by the bug.
//!
//! # Examples
//!
//! ```
//! use pstrace_soc::{capture, SimConfig, Simulator, SocModel, TraceBufferConfig, UsageScenario};
//!
//! let model = SocModel::t2();
//! let scenario = UsageScenario::scenario1();
//! let outcome = Simulator::new(&model, scenario, SimConfig::with_seed(42)).run();
//! assert!(outcome.status.is_completed());
//!
//! let siincu = model.catalog().get("siincu").unwrap();
//! let trace = capture(&model, &outcome, &TraceBufferConfig::messages_only(&[siincu]));
//! assert_eq!(trace.len(), 2); // once from PIO Read, once from Mondo
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod ip;
mod protocol;
mod scenario;
mod trace;
pub mod tracefile;
pub mod value;
pub mod wirecap;

pub use engine::{
    InterceptAction, MessageEvent, MessageInterceptor, NoIntercept, RunStatus, SimConfig,
    SimOutcome, Simulator,
};
pub use ip::{Ip, IpPair};
pub use protocol::{FlowKind, SocModel};
/// The captured record is [`pstrace_wire::WireRecord`]; this alias is
/// named only by `perfbench/src/fixture.rs` and goes with the next
/// change to the benchmark (ROADMAP item 4).
pub use pstrace_wire::WireRecord as TraceRecord;
pub use scenario::UsageScenario;
pub use trace::{capture, capture_events, CapturedTrace, TraceBufferConfig};
