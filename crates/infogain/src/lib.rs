//! Information-theoretic machinery for trace message selection.
//!
//! Implements the mutual-information-gain metric of *Application Level
//! Hardware Tracing for Scaling Post-Silicon Debug* (DAC 2018, §3.2):
//! the interleaved flow's state `X` is uniform over the product states, the
//! observed variable `Y` ranges over the indexed messages of a candidate
//! combination, and both marginal and conditional are estimated by edge
//! counting over the interleaving. See [`JointDistribution`] for the exact
//! estimator, [`mutual_information`] for the one-call entry point and
//! [`MiCache`] for the scorer every selection path uses.
//!
//! Every measure is in nats: the paper's worked example
//! (`I(X;Y₁) = (2/3)·ln 5 = 1.073`) is only reproduced with the natural
//! logarithm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod joint;
mod mi;

pub use cache::MiCache;
pub use joint::JointDistribution;
pub use mi::mutual_information;
