//! Convenience entry point for mutual information gain.

use pstrace_flow::{InterleavedFlow, MessageId};

use crate::joint::JointDistribution;

/// Mutual information gain of the interleaved-flow state `X` relative to
/// the indexed messages of `combination` (§3.2), in nats.
///
/// This is the selection metric of the paper: higher gain means observing
/// the combination's messages tells the debugger more about where the
/// interleaved execution is.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pstrace_flow::{examples::cache_coherence, instantiate, InterleavedFlow};
/// use pstrace_infogain::mutual_information;
///
/// # fn main() -> Result<(), pstrace_flow::FlowError> {
/// let (flow, catalog) = cache_coherence();
/// let product = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2))?;
/// let combo = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
/// let gain = mutual_information(&product, &combo);
/// assert!((gain - 1.073).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn mutual_information(flow: &InterleavedFlow, combination: &[MessageId]) -> f64 {
    JointDistribution::from_combination(flow, combination).mutual_information()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_flow::{examples::cache_coherence, instantiate};
    use std::sync::Arc;

    #[test]
    fn convenience_matches_joint() {
        let (flow, catalog) = cache_coherence();
        let u = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap();
        let combo = [catalog.get("ReqE").unwrap()];
        let direct = mutual_information(&u, &combo);
        let via_joint = JointDistribution::from_combination(&u, &combo).mutual_information();
        assert_eq!(direct, via_joint);
    }

    #[test]
    fn all_single_messages_rank_below_the_best_pair() {
        // In the running example the highest-gain pair is {ReqE, GntE};
        // every singleton carries strictly less information.
        let (flow, catalog) = cache_coherence();
        let u = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap();
        let req = catalog.get("ReqE").unwrap();
        let gnt = catalog.get("GntE").unwrap();
        let ack = catalog.get("Ack").unwrap();
        let best = mutual_information(&u, &[req, gnt]);
        for single in [req, gnt, ack] {
            assert!(mutual_information(&u, &[single]) < best);
        }
    }
}
