//! Step 1: enumerating width-feasible message combinations (§3.1).
//!
//! All non-empty subsets of the participating flows' messages whose total
//! bit width fits the trace buffer are candidates for tracing. Enumeration
//! is exact but pruned: messages are sorted by ascending width so whole
//! subtrees that cannot fit are skipped, and a configurable candidate limit
//! guards against combinatorial blow-up on large alphabets. Selection
//! does not enumerate (neither the [`Selector`](crate::Selector) nor
//! [`partitioned_select`](crate::partitioned_select)): this is for callers
//! that need every candidate (Figure 5, the quickstart's ranked list) and
//! the exhaustive oracle in tests.

use pstrace_flow::{MessageCatalog, MessageId};

use crate::error::SelectError;

/// Enumerates every non-empty message combination over `messages` whose
/// total width (Definition 6) is at most `budget_bits`.
///
/// Combinations are returned with their message ids sorted ascending, in
/// deterministic (lexicographic over sorted-by-width order) enumeration
/// order.
///
/// # Errors
///
/// * [`SelectError::NoMessages`] if `messages` is empty;
/// * [`SelectError::CombinationLimitExceeded`] if more than `limit`
///   feasible combinations exist.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pstrace_flow::examples::cache_coherence;
/// use pstrace_core::enumerate_combinations;
///
/// # fn main() -> Result<(), pstrace_core::SelectError> {
/// let (flow, catalog) = cache_coherence();
/// // 3 messages, 1 bit each, 2-bit buffer: 7 subsets minus the full set
/// // (3 bits) = 6 feasible candidates — exactly the paper's Step 1 count.
/// let combos = enumerate_combinations(&catalog, flow.messages(), 2, 1_000)?;
/// assert_eq!(combos.len(), 6);
/// # Ok(())
/// # }
/// ```
pub fn enumerate_combinations(
    catalog: &MessageCatalog,
    messages: &[MessageId],
    budget_bits: u32,
    limit: usize,
) -> Result<Vec<Vec<MessageId>>, SelectError> {
    if messages.is_empty() {
        return Err(SelectError::NoMessages);
    }
    let mut sorted: Vec<MessageId> = messages.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    // Ascending width lets the recursion prune: once the next message does
    // not fit, no later one will either... only if sorted by width.
    sorted.sort_by_key(|&m| catalog.width(m));

    let mut result: Vec<Vec<MessageId>> = Vec::new();
    let mut current: Vec<MessageId> = Vec::new();
    enumerate_rec(
        catalog,
        &sorted,
        0,
        budget_bits,
        &mut current,
        &mut result,
        limit,
    )?;
    for combo in &mut result {
        combo.sort_unstable();
    }
    Ok(result)
}

fn enumerate_rec(
    catalog: &MessageCatalog,
    sorted: &[MessageId],
    start: usize,
    remaining: u32,
    current: &mut Vec<MessageId>,
    result: &mut Vec<Vec<MessageId>>,
    limit: usize,
) -> Result<(), SelectError> {
    for i in start..sorted.len() {
        let w = catalog.width(sorted[i]);
        if w > remaining {
            // Widths ascend, so nothing beyond `i` fits either.
            break;
        }
        current.push(sorted[i]);
        if result.len() >= limit {
            return Err(SelectError::CombinationLimitExceeded { limit });
        }
        result.push(current.clone());
        enumerate_rec(
            catalog,
            sorted,
            i + 1,
            remaining - w,
            current,
            result,
            limit,
        )?;
        current.pop();
    }
    Ok(())
}

/// Counts feasible combinations without materializing them (useful for
/// reporting how many candidates exhaustive ranking would score).
#[must_use]
pub fn count_combinations(
    catalog: &MessageCatalog,
    messages: &[MessageId],
    budget_bits: u32,
) -> u128 {
    let mut sorted: Vec<MessageId> = messages.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.sort_by_key(|&m| catalog.width(m));
    count_rec(catalog, &sorted, 0, budget_bits)
}

fn count_rec(catalog: &MessageCatalog, sorted: &[MessageId], start: usize, remaining: u32) -> u128 {
    let mut total = 0u128;
    for i in start..sorted.len() {
        let w = catalog.width(sorted[i]);
        if w > remaining {
            break;
        }
        total += 1 + count_rec(catalog, sorted, i + 1, remaining - w);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_flow::examples::{cache_coherence, diamond};

    #[test]
    fn running_example_has_six_candidates() {
        let (flow, catalog) = cache_coherence();
        let combos = enumerate_combinations(&catalog, flow.messages(), 2, 100).unwrap();
        assert_eq!(combos.len(), 6);
        // The full 3-bit set is excluded.
        assert!(combos.iter().all(|c| c.len() <= 2));
        assert_eq!(count_combinations(&catalog, flow.messages(), 2), 6);
    }

    #[test]
    fn unconstrained_budget_gives_full_power_set() {
        let (flow, catalog) = cache_coherence();
        let combos = enumerate_combinations(&catalog, flow.messages(), 100, 100).unwrap();
        assert_eq!(combos.len(), 7, "2^3 - 1 non-empty subsets");
    }

    #[test]
    fn width_pruning_respects_budget() {
        let (flow, catalog) = diamond(); // widths 2,2,3,3
        for budget in 1..=10 {
            let combos = enumerate_combinations(&catalog, flow.messages(), budget, 1_000)
                .unwrap_or_default();
            for c in &combos {
                assert!(catalog.combination_width(c.iter().copied()) <= budget);
            }
        }
    }

    #[test]
    fn budget_too_small_for_any_message_yields_empty() {
        let (flow, catalog) = diamond();
        let combos = enumerate_combinations(&catalog, flow.messages(), 1, 1_000).unwrap();
        assert!(combos.is_empty());
    }

    #[test]
    fn empty_message_set_is_an_error() {
        let (_, catalog) = diamond();
        assert_eq!(
            enumerate_combinations(&catalog, &[], 8, 10).unwrap_err(),
            SelectError::NoMessages
        );
    }

    #[test]
    fn limit_is_enforced() {
        let (flow, catalog) = cache_coherence();
        let err = enumerate_combinations(&catalog, flow.messages(), 3, 3).unwrap_err();
        assert_eq!(err, SelectError::CombinationLimitExceeded { limit: 3 });
    }

    #[test]
    fn duplicates_in_input_are_ignored() {
        let (flow, catalog) = cache_coherence();
        let mut msgs = flow.messages().to_vec();
        msgs.extend_from_slice(flow.messages());
        let combos = enumerate_combinations(&catalog, &msgs, 2, 100).unwrap();
        assert_eq!(combos.len(), 6);
    }

    #[test]
    fn combos_are_sorted_and_unique() {
        let (flow, catalog) = cache_coherence();
        let combos = enumerate_combinations(&catalog, flow.messages(), 3, 100).unwrap();
        let mut dedup = combos.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), combos.len());
        for c in combos {
            let mut sorted = c.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, c);
        }
    }

    #[test]
    fn count_matches_enumeration_on_diamond() {
        let (flow, catalog) = diamond();
        for budget in 0..=12 {
            let count = count_combinations(&catalog, flow.messages(), budget);
            let combos = enumerate_combinations(&catalog, flow.messages(), budget, 10_000)
                .map(|v| v.len())
                .unwrap_or(0);
            assert_eq!(count, combos as u128, "budget {budget}");
        }
    }
}
