//! Partitioned trace buffers (ablation).
//!
//! Production trace fabrics often dedicate a buffer segment per IP or per
//! interconnect port instead of one shared buffer. This module selects
//! messages independently per partition — each partition sees only its
//! own messages and its own bit budget — so the cost of partitioning can
//! be quantified against the paper's unified-buffer selection.

use pstrace_flow::{InterleavedFlow, MessageId};
use pstrace_infogain::MiCache;

use crate::coverage::flow_spec_coverage;
use crate::error::SelectError;
use crate::rank::rank_near_best;

/// One partition of the trace fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Display label (e.g. the IP name).
    pub label: String,
    /// The messages routable into this partition.
    pub messages: Vec<MessageId>,
    /// The partition's bit budget.
    pub bits: u32,
}

/// Per-partition selection outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOutcome {
    /// The partition.
    pub partition: Partition,
    /// The messages selected into it.
    pub selected: Vec<MessageId>,
    /// Bits used.
    pub used_bits: u32,
}

/// Outcome of a partitioned selection.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// Per-partition results.
    pub outcomes: Vec<PartitionOutcome>,
    /// Union of all selected messages.
    pub effective_messages: Vec<MessageId>,
    /// Mutual information gain of the union.
    pub gain: f64,
    /// Flow-spec coverage of the union.
    pub coverage: f64,
    /// Total bits used over total bits available.
    pub utilization: f64,
}

/// Selects messages independently per partition and reports the combined
/// quality of the union.
///
/// Each partition runs the [`Selector`](crate::Selector)'s Step 2
/// restricted to its own message set and budget, so it picks what ranking
/// every combination of its messages that fits would pick (no packing —
/// partitions are usually too narrow for subgroups to matter, and the
/// comparison stays clean).
///
/// # Errors
///
/// Returns [`SelectError::CombinationLimitExceeded`] if more than two
/// million of a partition's combinations lie within rounding error of its
/// best gain. Partitions whose messages are all too wide simply select
/// nothing.
pub fn partitioned_select(
    flow: &InterleavedFlow,
    partitions: &[Partition],
) -> Result<PartitionReport, SelectError> {
    // One cache scores every partition's search and the union.
    let cache = MiCache::new(flow);
    let mut outcomes = Vec::new();
    let mut effective: Vec<MessageId> = Vec::new();
    let mut used_total = 0u32;
    let mut bits_total = 0u32;

    for partition in partitions {
        bits_total += partition.bits;
        if partition.messages.is_empty() {
            outcomes.push(PartitionOutcome {
                partition: partition.clone(),
                selected: Vec::new(),
                used_bits: 0,
            });
            continue;
        }
        let best = rank_near_best(flow, &partition.messages, partition.bits, &cache)?
            .into_iter()
            .next();
        let (selected, used) = best.map_or((Vec::new(), 0), |b| (b.messages, b.width));
        for &m in &selected {
            if !effective.contains(&m) {
                effective.push(m);
            }
        }
        used_total += used;
        outcomes.push(PartitionOutcome {
            partition: partition.clone(),
            selected,
            used_bits: used,
        });
    }

    effective.sort_unstable();
    let gain = cache.combination_mi(&effective);
    let coverage = flow_spec_coverage(flow, &effective);
    let utilization = if bits_total == 0 {
        0.0
    } else {
        f64::from(used_total) / f64::from(bits_total)
    };
    Ok(PartitionReport {
        outcomes,
        effective_messages: effective,
        gain,
        coverage,
        utilization,
    })
}

/// Splits `total_bits` across `labels` as evenly as possible (earlier
/// partitions absorb the remainder), pairing each label with its messages.
#[must_use]
pub fn even_partitions(
    labeled_messages: &[(String, Vec<MessageId>)],
    total_bits: u32,
) -> Vec<Partition> {
    let k = labeled_messages.len() as u32;
    if k == 0 {
        return Vec::new();
    }
    let base = total_bits / k;
    let extra = total_bits % k;
    labeled_messages
        .iter()
        .enumerate()
        .map(|(i, (label, messages))| Partition {
            label: label.clone(),
            messages: messages.clone(),
            bits: base + u32::from((i as u32) < extra),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::TraceBufferSpec;
    use crate::selector::{SelectionConfig, Selector};
    use pstrace_flow::{examples::cache_coherence, instantiate, InterleavedFlow};
    use std::sync::Arc;

    fn running_example() -> InterleavedFlow {
        let (flow, _) = cache_coherence();
        InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap()
    }

    #[test]
    fn unified_buffer_dominates_partitioned() {
        let u = running_example();
        let catalog = u.catalog();
        let req = catalog.get("ReqE").unwrap();
        let gnt = catalog.get("GntE").unwrap();
        let ack = catalog.get("Ack").unwrap();

        // Unified 2-bit buffer.
        let mut config = SelectionConfig::new(TraceBufferSpec::new(2).unwrap());
        config.packing = false;
        let unified = Selector::new(&u, config).select().unwrap();

        // The same 2 bits split 1/1 between a request-side and a
        // response-side partition.
        let partitions = vec![
            Partition {
                label: "request".into(),
                messages: vec![req],
                bits: 1,
            },
            Partition {
                label: "response".into(),
                messages: vec![gnt, ack],
                bits: 1,
            },
        ];
        let partitioned = partitioned_select(&u, &partitions).unwrap();

        assert!(unified.chosen.gain >= partitioned.gain - 1e-12);
        assert_eq!(partitioned.effective_messages.len(), 2);
        assert_eq!(partitioned.utilization, 1.0);
        assert_eq!(partitioned.outcomes.len(), 2);
    }

    #[test]
    fn empty_partition_selects_nothing() {
        let u = running_example();
        let partitions = vec![Partition {
            label: "empty".into(),
            messages: Vec::new(),
            bits: 4,
        }];
        let report = partitioned_select(&u, &partitions).unwrap();
        assert!(report.effective_messages.is_empty());
        assert_eq!(report.gain, 0.0);
        assert_eq!(report.utilization, 0.0);
    }

    #[test]
    fn too_narrow_partition_is_skipped_not_an_error() {
        let u = running_example();
        let catalog = u.catalog();
        let req = catalog.get("ReqE").unwrap();
        let partitions = vec![Partition {
            label: "zero".into(),
            messages: vec![req],
            bits: 0,
        }];
        let report = partitioned_select(&u, &partitions).unwrap();
        assert!(report.effective_messages.is_empty());
    }

    #[test]
    fn even_split_distributes_remainder() {
        let groups = vec![
            ("a".to_owned(), Vec::new()),
            ("b".to_owned(), Vec::new()),
            ("c".to_owned(), Vec::new()),
        ];
        let parts = even_partitions(&groups, 32);
        let bits: Vec<u32> = parts.iter().map(|p| p.bits).collect();
        assert_eq!(bits, [11, 11, 10]);
        assert_eq!(bits.iter().sum::<u32>(), 32);
        assert!(even_partitions(&[], 32).is_empty());
    }
}
