//! Trace message selection for post-silicon use-case validation.
//!
//! This crate is the primary contribution of *Application Level Hardware
//! Tracing for Scaling Post-Silicon Debug* (Pal et al., DAC 2018, §3):
//! given the interleaved flow of a usage scenario and a trace buffer width,
//! select the message combination to trace.
//!
//! 1. **Step 1** — [`enumerate_combinations`]: all message combinations
//!    whose total bit width (Definition 6) fits the
//!    [`TraceBufferSpec`];
//! 2. **Step 2** — [`rank_combinations`]: evaluate each candidate's mutual
//!    information gain over the interleaved flow and keep the best. The
//!    [`Selector`] and [`partitioned_select`] find the same best without
//!    enumerating Step 1: a bounded search over per-message contributions,
//!    then an exact ranking of the few sets it collects;
//! 3. **Step 3** — [`pack`]: greedily fill leftover buffer bits with
//!    message *subgroups* (named bit slices of wider messages).
//!
//! Ranking, packing and partitioned selection score combinations with
//! one [`MiCache`] per interleaving; every gain is in nats.
//!
//! [`MiCache`]: pstrace_infogain::MiCache
//!
//! The [`Selector`] facade runs the full pipeline and produces a
//! [`SelectionReport`] with every metric the paper's evaluation tables use:
//! trace buffer utilization and flow-specification coverage
//! ([`flow_spec_coverage`], Definition 7), with and without packing.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use pstrace_flow::{examples::cache_coherence, instantiate, InterleavedFlow};
//! use pstrace_core::{SelectionConfig, Selector, TraceBufferSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (flow, catalog) = cache_coherence();
//! let product = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2))?;
//! let report = Selector::new(
//!     &product,
//!     SelectionConfig::new(TraceBufferSpec::new(2)?),
//! )
//! .select()?;
//! assert_eq!(report.chosen.messages.len(), 2); // {ReqE, GntE}
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ablation;
mod buffer;
mod combine;
mod coverage;
mod error;
mod packing;
mod partition;
mod rank;
mod selector;

pub use ablation::{count_greedy_select, coverage_greedy_select};
pub use buffer::TraceBufferSpec;
pub use combine::{count_combinations, enumerate_combinations};
pub use coverage::{buffer_utilization, flow_spec_coverage};
pub use error::SelectError;
pub use packing::{pack, Packing};
pub use partition::{
    even_partitions, partitioned_select, Partition, PartitionOutcome, PartitionReport,
};
pub use rank::{rank_combinations, RankedCombination};
pub use selector::{SelectionConfig, SelectionReport, Selector};
