//! Property-based tests for the selection pipeline.

mod common;

use std::sync::Arc;

use proptest::prelude::*;
use pstrace_core::{
    count_combinations, enumerate_combinations, flow_spec_coverage, SelectionConfig, Selector,
    TraceBufferSpec,
};
use pstrace_flow::{
    instantiate, FlowBuilder, FlowIndex, IndexedFlow, InterleavedFlow, MessageCatalog,
};
use pstrace_infogain::MiCache;

use common::{assert_bitwise_equal, oracle};

/// Builds an interleaving of two random linear flows with random message
/// widths in 1..=6 and optional subgroups on wide messages. The first flow
/// runs as `copies` symmetric instances, which makes gains tie in real
/// arithmetic; when `widths_b` equals `widths_a` the two flows mirror each
/// other, which makes whole message sets tie.
fn random_interleaving(
    widths_a: &[u32],
    widths_b: &[u32],
    copies: u32,
    with_groups: bool,
) -> (InterleavedFlow, Arc<MessageCatalog>) {
    let mut catalog = MessageCatalog::new();
    for (f, widths) in [(0usize, widths_a), (1usize, widths_b)] {
        for (i, &w) in widths.iter().enumerate() {
            let id = catalog.intern(&format!("f{f}_m{i}"), w);
            if with_groups && w >= 3 {
                catalog.intern_group(id, "lo", w / 2);
            }
        }
    }
    let catalog = Arc::new(catalog);
    let mut flows = Vec::new();
    for (f, widths) in [(0usize, widths_a), (1usize, widths_b)] {
        let name = format!("f{f}");
        let mut b = FlowBuilder::new(&name);
        for i in 0..=widths.len() {
            let s = format!("{name}_s{i}");
            b = if i == widths.len() {
                b.stop_state(&s)
            } else {
                b.state(&s)
            };
        }
        b = b.initial(&format!("{name}_s0"));
        for i in 0..widths.len() {
            b = b.edge(
                &format!("{name}_s{i}"),
                &format!("{name}_m{i}"),
                &format!("{name}_s{}", i + 1),
            );
        }
        let flow = Arc::new(b.build(&catalog).unwrap());
        if f == 0 {
            flows.extend(instantiate(&flow, copies));
        } else {
            flows.push(IndexedFlow::new(flow, FlowIndex(copies + 1)));
        }
    }
    (InterleavedFlow::build(&flows).unwrap(), catalog)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every enumerated combination fits the budget, combinations are
    /// unique, and the count matches the counting function.
    #[test]
    fn enumeration_is_sound_and_complete(
        widths_a in proptest::collection::vec(1u32..6, 1..4),
        widths_b in proptest::collection::vec(1u32..6, 1..4),
        budget in 1u32..16,
    ) {
        let (u, catalog) = random_interleaving(&widths_a, &widths_b, 1, false);
        let alphabet = u.message_alphabet();
        let combos = enumerate_combinations(&catalog, &alphabet, budget, 1_000_000).unwrap();
        for c in &combos {
            prop_assert!(catalog.combination_width(c.iter().copied()) <= budget);
        }
        let mut dedup = combos.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), combos.len());
        prop_assert_eq!(combos.len() as u128, count_combinations(&catalog, &alphabet, budget));
    }

    /// The selector returns exactly what exhaustive ranking returns —
    /// messages, widths and every `f64` bit — and its report is
    /// self-consistent: within the buffer, packing never hurts
    /// utilization, coverage or gain, and coverage matches the effective
    /// set.
    #[test]
    fn selector_invariants(
        widths_a in proptest::collection::vec(1u32..6, 1..4),
        widths_b in proptest::collection::vec(1u32..6, 1..4),
        mirror in any::<bool>(),
        copies in 1u32..4,
        with_groups in any::<bool>(),
        budget in 1u32..16,
    ) {
        let widths_b = if mirror { widths_a.clone() } else { widths_b };
        let (u, _) = random_interleaving(&widths_a, &widths_b, copies, with_groups);
        let buffer = TraceBufferSpec::new(budget).unwrap();
        let report = Selector::new(&u, SelectionConfig::new(buffer)).select().unwrap();
        let cache = MiCache::new(&u);
        assert_bitwise_equal(&report, &oracle(&u, &cache, budget), "random flow");

        prop_assert!(report.width_packed <= budget);
        prop_assert!(report.width_unpacked <= budget);
        prop_assert!(report.utilization_packed >= report.utilization_unpacked - 1e-12);
        prop_assert!(report.coverage_packed >= report.coverage_unpacked - 1e-12);
        prop_assert!(report.gain_packed >= report.chosen.gain - 1e-12);
        // Coverage of the effective set matches the reported value.
        let cov = flow_spec_coverage(&u, &report.effective_messages);
        prop_assert!((cov - report.coverage_packed).abs() < 1e-12);
    }
}
