//! Ablation baselines for the selection metric.
//!
//! The paper argues (Figure 5) that mutual information gain is a good
//! selection metric because it correlates with flow-specification
//! coverage. These alternative selectors make that claim testable by
//! ablation: select directly for coverage, or simply for message count,
//! and compare what each choice costs.

use pstrace_flow::{InterleavedFlow, MessageId};
use pstrace_infogain::mutual_information;

use crate::buffer::TraceBufferSpec;
use crate::coverage::flow_spec_coverage;
use crate::rank::RankedCombination;

/// Greedy coverage-maximizing selection: repeatedly add the message with
/// the best marginal flow-spec coverage that still fits the buffer.
///
/// Ties break towards the narrower message (saving bits), then the lower
/// message id. The result is annotated with its information gain for
/// comparison against the paper's metric.
#[must_use]
pub fn coverage_greedy_select(
    flow: &InterleavedFlow,
    buffer: TraceBufferSpec,
) -> RankedCombination {
    let catalog = flow.catalog().clone();
    let alphabet = flow.message_alphabet();
    let mut selected: Vec<MessageId> = Vec::new();
    let mut occupied = 0u32;
    loop {
        let leftover = buffer.leftover(occupied);
        let mut best: Option<(MessageId, f64, u32)> = None;
        for &m in &alphabet {
            if selected.contains(&m) {
                continue;
            }
            let width = catalog.width(m);
            if width > leftover {
                continue;
            }
            let mut trial = selected.clone();
            trial.push(m);
            let cov = flow_spec_coverage(flow, &trial);
            let better = match &best {
                None => true,
                Some((bm, bcov, bwidth)) => {
                    cov > *bcov + 1e-12
                        || ((cov - *bcov).abs() <= 1e-12 && width < *bwidth)
                        || ((cov - *bcov).abs() <= 1e-12 && width == *bwidth && m < *bm)
                }
            };
            if better {
                best = Some((m, cov, width));
            }
        }
        match best {
            Some((m, _, width)) => {
                selected.push(m);
                occupied += width;
            }
            None => break,
        }
    }
    selected.sort_unstable();
    let gain = mutual_information(flow, &selected);
    RankedCombination {
        messages: selected,
        gain,
        width: occupied,
    }
}

/// Density-greedy selection: sort messages by indexed-instance count per
/// bit (how many distinct indexed messages a bit of buffer buys) and take
/// greedily while they fit — a cheap knapsack heuristic that ignores where
/// in the flow the messages sit.
#[must_use]
pub fn count_greedy_select(flow: &InterleavedFlow, buffer: TraceBufferSpec) -> RankedCombination {
    let catalog = flow.catalog().clone();
    let mut candidates: Vec<(MessageId, usize, u32)> = flow
        .message_alphabet()
        .into_iter()
        .map(|m| {
            let instances = flow.indexed_instances_of(m).len();
            (m, instances, catalog.width(m))
        })
        .collect();
    candidates.sort_by(|a, b| {
        let da = a.1 as f64 / f64::from(a.2);
        let db = b.1 as f64 / f64::from(b.2);
        db.partial_cmp(&da)
            .expect("densities are finite")
            .then(a.2.cmp(&b.2))
            .then(a.0.cmp(&b.0))
    });
    let mut selected = Vec::new();
    let mut occupied = 0u32;
    for (m, _, width) in candidates {
        if occupied + width <= buffer.width_bits() {
            selected.push(m);
            occupied += width;
        }
    }
    selected.sort_unstable();
    let gain = mutual_information(flow, &selected);
    RankedCombination {
        messages: selected,
        gain,
        width: occupied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{SelectionConfig, Selector};
    use pstrace_flow::{examples::cache_coherence, instantiate, InterleavedFlow};
    use std::sync::Arc;

    fn running_example() -> InterleavedFlow {
        let (flow, _) = cache_coherence();
        InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap()
    }

    #[test]
    fn info_gain_is_never_beaten_on_gain() {
        let u = running_example();
        let buffer = TraceBufferSpec::new(2).unwrap();
        let mut config = SelectionConfig::new(buffer);
        config.packing = false;
        let info = Selector::new(&u, config).select().unwrap();
        let cov = coverage_greedy_select(&u, buffer);
        let cnt = count_greedy_select(&u, buffer);
        assert!(info.chosen.gain >= cov.gain - 1e-12);
        assert!(info.chosen.gain >= cnt.gain - 1e-12);
    }

    #[test]
    fn ablation_selectors_respect_the_buffer() {
        let u = running_example();
        for bits in 1..=4 {
            let buffer = TraceBufferSpec::new(bits).unwrap();
            for combo in [
                coverage_greedy_select(&u, buffer),
                count_greedy_select(&u, buffer),
            ] {
                assert!(combo.width <= bits);
                let real_width = u
                    .catalog()
                    .combination_width(combo.messages.iter().copied());
                assert_eq!(real_width, combo.width);
            }
        }
    }

    #[test]
    fn coverage_greedy_maximizes_coverage_on_the_running_example() {
        // With 2 bits the best coverage pair is {ReqE, GntE} or {GntE, Ack}
        // (11/15); coverage-greedy must land on one of them.
        let u = running_example();
        let buffer = TraceBufferSpec::new(2).unwrap();
        let combo = coverage_greedy_select(&u, buffer);
        let cov = flow_spec_coverage(&u, &combo.messages);
        assert!((cov - 11.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn count_greedy_fills_by_density() {
        let u = running_example();
        let buffer = TraceBufferSpec::new(3).unwrap();
        let combo = count_greedy_select(&u, buffer);
        // All messages are 1 bit with 2 instances each: everything fits.
        assert_eq!(combo.messages.len(), 3);
        assert_eq!(combo.width, 3);
    }

    #[test]
    fn selectors_are_deterministic() {
        let u = running_example();
        let buffer = TraceBufferSpec::new(2).unwrap();
        assert_eq!(
            coverage_greedy_select(&u, buffer),
            coverage_greedy_select(&u, buffer)
        );
        assert_eq!(
            count_greedy_select(&u, buffer),
            count_greedy_select(&u, buffer)
        );
    }
}
