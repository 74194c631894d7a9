//! Cache consistency: MI computed through [`MiCache`] must equal MI
//! computed from scratch via [`JointDistribution`] — not approximately,
//! but bit for bit, because the exhaustive ranking tie-breaks on exact
//! gain comparisons and the docs/results goldens pin printed digits.

use std::sync::Arc;

use pstrace_flow::{
    examples::cache_coherence, instantiate, FlowBuilder, InterleavedFlow, MessageCatalog, MessageId,
};
use pstrace_infogain::{mutual_information, JointDistribution, MiCache};

/// Every subset of `alphabet` (up to 2^16 of them) scores identically
/// through the cache and from scratch.
fn assert_all_subsets_bitwise(flow: &InterleavedFlow, alphabet: &[MessageId]) {
    assert!(alphabet.len() <= 16, "subset sweep too large");
    let cache = MiCache::new(flow);
    for mask in 0u32..(1 << alphabet.len()) {
        let combo: Vec<MessageId> = alphabet
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &m)| m)
            .collect();
        let cached = cache.combination_mi(&combo);
        let scratch = mutual_information(flow, &combo);
        assert_eq!(
            cached.to_bits(),
            scratch.to_bits(),
            "mask {mask:#b}: cached {cached:e} vs scratch {scratch:e}"
        );
    }
}

#[test]
fn running_example_all_subsets_all_instance_counts() {
    let (flow, catalog) = cache_coherence();
    let flow = Arc::new(flow);
    let alphabet: Vec<MessageId> = catalog.iter().map(|(id, _)| id).collect();
    for instances in 1..=3u32 {
        let product = InterleavedFlow::build(&instantiate(&flow, instances)).unwrap();
        assert_all_subsets_bitwise(&product, &alphabet);
    }
}

#[test]
fn asymmetric_widths_and_reused_messages() {
    // A branching flow where one message labels several edges (so its
    // edge counts differ from the others') and widths are unequal.
    let mut catalog = MessageCatalog::new();
    catalog.intern("left", 2);
    catalog.intern("right", 3);
    catalog.intern("join", 1);
    let catalog = Arc::new(catalog);
    let flow = FlowBuilder::new("branchy")
        .state("s0")
        .state("s1")
        .state("s2")
        .stop_state("fin")
        .initial("s0")
        .edge("s0", "left", "s1")
        .edge("s0", "right", "s2")
        .edge("s1", "join", "fin")
        .edge("s2", "join", "fin")
        .build(&catalog)
        .unwrap();
    let flow = Arc::new(flow);
    let alphabet: Vec<MessageId> = catalog.iter().map(|(id, _)| id).collect();
    for instances in 1..=3u32 {
        let product = InterleavedFlow::build(&instantiate(&flow, instances)).unwrap();
        assert_all_subsets_bitwise(&product, &alphabet);
    }
}

#[test]
fn cache_agrees_with_joint_distribution_internals() {
    // The cached per-message contribution equals the single-message MI,
    // and the additive identity holds to floating-point accuracy.
    let (flow, catalog) = cache_coherence();
    let product = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap();
    let cache = MiCache::new(&product);
    assert_eq!(cache.total_edges(), product.edge_count() as u64);
    assert_eq!(cache.state_count(), product.state_count());

    let mut running: Vec<MessageId> = Vec::new();
    let mut additive = 0.0;
    for (m, _) in catalog.iter() {
        let single = JointDistribution::from_combination(&product, &[m]).mutual_information();
        assert_eq!(cache.message_delta(m).to_bits(), single.to_bits());

        additive += cache.message_delta(m);
        running.push(m);
        let merged = cache.combination_mi(&running);
        assert!(
            (additive - merged).abs() <= 1e-12 * merged.abs().max(1.0),
            "additive {additive} vs merged {merged}"
        );
    }
}
