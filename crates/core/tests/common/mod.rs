//! The exhaustive oracle for the selector: Steps 1–3 done the long way.

use pstrace_core::{
    enumerate_combinations, flow_spec_coverage, pack, rank_combinations, RankedCombination,
    SelectionReport, TraceBufferSpec,
};
use pstrace_flow::{InterleavedFlow, MessageId};
use pstrace_infogain::MiCache;

/// Steps 1–2 by exhaustive enumeration and ranking: the best combination
/// of `messages` within `bits`, or the empty one when none fits.
pub fn exhaustive_best(
    flow: &InterleavedFlow,
    cache: &MiCache,
    messages: &[MessageId],
    bits: u32,
) -> RankedCombination {
    let combos = enumerate_combinations(flow.catalog(), messages, bits, 2_000_000).unwrap();
    rank_combinations(flow, &combos, cache)
        .into_iter()
        .next()
        .unwrap_or(RankedCombination {
            messages: Vec::new(),
            gain: 0.0,
            width: 0,
        })
}

/// Steps 1–3 by exhaustive enumeration and ranking.
pub fn oracle(flow: &InterleavedFlow, cache: &MiCache, bits: u32) -> SelectionReport {
    let buffer = TraceBufferSpec::new(bits).unwrap();
    let chosen = exhaustive_best(flow, cache, &flow.message_alphabet(), bits);
    let packing = pack(flow, &chosen.messages, buffer, cache);
    let effective_messages = packing.effective_messages(flow, &chosen.messages);
    SelectionReport {
        width_unpacked: chosen.width,
        width_packed: packing.occupied_bits,
        utilization_unpacked: buffer.utilization(chosen.width),
        utilization_packed: buffer.utilization(packing.occupied_bits),
        coverage_unpacked: flow_spec_coverage(flow, &chosen.messages),
        coverage_packed: flow_spec_coverage(flow, &effective_messages),
        gain_packed: packing.gain,
        packed_groups: packing.groups,
        effective_messages,
        chosen,
    }
}

pub fn assert_bitwise_equal(got: &SelectionReport, want: &SelectionReport, what: &str) {
    assert_eq!(got.chosen.messages, want.chosen.messages, "{what}: chosen");
    assert_eq!(got.chosen.width, want.chosen.width, "{what}: width");
    assert_eq!(
        got.packed_groups, want.packed_groups,
        "{what}: packed groups"
    );
    assert_eq!(
        got.effective_messages, want.effective_messages,
        "{what}: effective messages"
    );
    assert_eq!(got.width_unpacked, want.width_unpacked, "{what}");
    assert_eq!(got.width_packed, want.width_packed, "{what}");
    for (name, g, w) in [
        ("gain", got.chosen.gain, want.chosen.gain),
        ("gain_packed", got.gain_packed, want.gain_packed),
        (
            "utilization_unpacked",
            got.utilization_unpacked,
            want.utilization_unpacked,
        ),
        (
            "utilization_packed",
            got.utilization_packed,
            want.utilization_packed,
        ),
        (
            "coverage_unpacked",
            got.coverage_unpacked,
            want.coverage_unpacked,
        ),
        ("coverage_packed", got.coverage_packed, want.coverage_packed),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: {name} {g:e} vs {w:e}");
    }
}
