//! `pstrace` — application-level hardware trace message selection for
//! scaling post-silicon debug.
//!
//! A from-scratch Rust reproduction of *Application Level Hardware Tracing
//! for Scaling Post-Silicon Debug* (Pal, Sharma, Ray, de Paula,
//! Vasudevan — DAC 2018): given the system-level protocol *flows* a usage
//! scenario exercises and a trace-buffer width budget, select the set of
//! messages to trace such that mutual information gain over the
//! interleaved flow is maximized and the buffer is maximally utilized —
//! then debug buggy silicon from the captured messages alone.
//!
//! The workspace is re-exported here as one façade:
//!
//! * [`flow`] — the flow formalism (Definitions 1–5): flow DAGs, indexed
//!   instances, interleaving with atomic-state mutual exclusion,
//!   executions and path counting;
//! * [`infogain`] — the §3.2 mutual-information estimator over
//!   interleaved flows;
//! * [`select`] — the paper's contribution (§3): candidate enumeration,
//!   information-gain ranking, trace-buffer packing, coverage and
//!   utilization metrics;
//! * [`soc`] — the OpenSPARC-T2-like transaction-level SoC substrate with
//!   the five Table 1 protocol flows, three usage scenarios and a modeled
//!   trace buffer;
//! * [`bug`] — Table 2-style bug models, injection and bug-coverage
//!   analysis;
//! * [`diag`] — path localization, root-cause catalogs and pruning, and
//!   the backtracking investigation walk of §5.6–5.7;
//! * [`rtl`] — the gate-level substrate with state restoration (SRR) and
//!   the SigSeT / PRNet baseline selectors of §5.4, plus the USB-like
//!   comparison design;
//! * [`wire`] — the bit-packed wire format: selection-derived frame
//!   schemas, the one per-record check and circular-buffer rule every
//!   dialect's encoder shares, the v1 frame encoder, a damage-tolerant
//!   streaming decoder and the `.ptw` on-disk container;
//! * [`codec`] — the compressed `.ptw` v2 dialect: delta-coded
//!   timestamps with periodic absolute sync blocks, zig-zag lane deltas
//!   and run-length encoded tags, negotiated by the container's version
//!   byte with damage still bounded to one sync window;
//! * [`stream`] — the live ingest path: a chunk-at-a-time decode
//!   session with incremental online localization, a loopback TCP
//!   daemon (`pstraced`) and the replay client behind `pstrace stream`;
//! * [`obs`] — the observability layer: a global-free metrics registry,
//!   deterministic timing spans and the Prometheus / Chrome-trace
//!   exporters behind `--profile` and the daemon's `METRICS` verb;
//! * [`faults`] — seeded deterministic fault injection at the wire,
//!   transport and session seams, with the soak harness behind
//!   `pstrace chaos` that scores the hardened ingest pipeline for
//!   survival;
//! * [`mine`] — flow specification mining: reconstruct candidate flow
//!   DAGs from decoded captures (prefix-tree acceptor + future-language
//!   merging), cross-check binary invariants, validate atomic-state
//!   claims against observed interleavings, and score candidates for
//!   the `pstrace mine` recovery pipeline.
//!
//! # Quickstart
//!
//! The paper's running example, end to end:
//!
//! ```
//! use std::sync::Arc;
//! use pstrace::flow::{examples::cache_coherence, instantiate, InterleavedFlow};
//! use pstrace::select::{SelectionConfig, Selector, TraceBufferSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (flow, catalog) = cache_coherence();
//! let product = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2))?;
//! let report = Selector::new(
//!     &product,
//!     SelectionConfig::new(TraceBufferSpec::new(2)?),
//! )
//! .select()?;
//!
//! let names: Vec<&str> = report
//!     .chosen
//!     .messages
//!     .iter()
//!     .map(|&m| catalog.name(m))
//!     .collect();
//! assert_eq!(names, ["ReqE", "GntE"]);    // §3.2's selection
//! assert!((report.chosen.gain - 1.073).abs() < 1e-3);
//! assert!((report.coverage() - 0.7333).abs() < 1e-4);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for the SoC debugging case studies and the USB baseline
//! comparison, and `crates/bench` for the binaries regenerating every
//! table and figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pstrace_bug as bug;
pub use pstrace_codec as codec;
pub use pstrace_diag as diag;
pub use pstrace_faults as faults;
pub use pstrace_flow as flow;
pub use pstrace_infogain as infogain;
pub use pstrace_mine as mine;
pub use pstrace_obs as obs;
pub use pstrace_rtl as rtl;
pub use pstrace_soc as soc;
pub use pstrace_stream as stream;
pub use pstrace_wire as wire;

/// The paper's contribution: trace message selection (re-export of
/// `pstrace-core`).
pub mod select {
    pub use pstrace_core::*;
}

/// Commonly used items for quick experimentation.
pub mod prelude {
    pub use pstrace_bug::{bug_catalog, case_studies, BugInterceptor};
    pub use pstrace_core::{SelectionConfig, SelectionReport, Selector, TraceBufferSpec};
    pub use pstrace_diag::{run_case_study, CaseStudyConfig};
    pub use pstrace_flow::{
        instantiate, Flow, FlowBuilder, IndexedFlow, InterleavedFlow, MessageCatalog,
    };
    pub use pstrace_infogain::mutual_information;
    pub use pstrace_soc::{SimConfig, Simulator, SocModel, UsageScenario};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        let model = crate::soc::SocModel::t2();
        assert_eq!(model.catalog().len(), 29);
        let usb = crate::rtl::UsbDesign::new();
        assert_eq!(usb.interface_signals.len(), 10);
    }
}
