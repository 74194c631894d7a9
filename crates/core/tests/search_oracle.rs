//! Step 2's bounded search returns exactly what exhaustive ranking
//! returns.
//!
//! The oracle is the paper's Steps 1–3 done the long way: enumerate every
//! width-feasible combination, rank them all, take the first, then pack
//! and measure coverage. `Selector::select` and `partitioned_select` must
//! agree with it on every message, every width and every `f64` bit,
//! because the winner is sometimes decided by floating-point summation
//! order between combinations whose gains are equal in real arithmetic.

mod common;

use std::sync::Arc;

use pstrace_core::{
    even_partitions, partitioned_select, SelectionConfig, Selector, TraceBufferSpec,
};
use pstrace_flow::{examples::cache_coherence, instantiate, InterleavedFlow, MessageId};
use pstrace_infogain::{mutual_information, MiCache};
use pstrace_soc::{SocModel, UsageScenario};

use common::{assert_bitwise_equal, exhaustive_best, oracle};

fn assert_matches_oracle(
    flow: &InterleavedFlow,
    widths: impl IntoIterator<Item = u32>,
    name: &str,
) {
    let cache = MiCache::new(flow);
    for bits in widths {
        let config = SelectionConfig::new(TraceBufferSpec::new(bits).unwrap());
        let got = Selector::new(flow, config).select().unwrap();
        assert_bitwise_equal(
            &got,
            &oracle(flow, &cache, bits),
            &format!("{name} at {bits} bits"),
        );
    }
}

#[test]
fn scenarios_one_to_five_match_exhaustive_ranking_at_every_width() {
    let model = SocModel::t2();
    for scenario in [
        UsageScenario::scenario1(),
        UsageScenario::scenario2(),
        UsageScenario::scenario3(),
        UsageScenario::scenario_dma(),
        UsageScenario::scenario_coherence(),
    ] {
        let flow = scenario.interleaving(&model).unwrap();
        assert_matches_oracle(&flow, 1..=48, scenario.name());
    }
}

#[test]
fn running_example_matches_exhaustive_ranking() {
    let (flow, _) = cache_coherence();
    let product = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap();
    assert_matches_oracle(&product, 1..=3, "running example");
}

/// Scenario 3 at 32 bits: `piorreq` (10 bits) and `siincu` (8 bits)
/// contribute bit-identically, and the 30-bit set with `siincu` outscores
/// the 32-bit set with `piorreq` by 1.3e-15 — floating-point summation
/// order, not real arithmetic, picks the winner. A tie rule that treats
/// such gains as equal would choose differently; it has to change this
/// test on purpose.
#[test]
fn scenario_3_at_32_bits_keeps_the_float_decided_winner() {
    let model = SocModel::t2();
    let flow = UsageScenario::scenario3().interleaving(&model).unwrap();
    let config = SelectionConfig::new(TraceBufferSpec::new(32).unwrap());
    let report = Selector::new(&flow, config).select().unwrap();
    let catalog = flow.catalog();
    let mut names: Vec<&str> = report
        .chosen
        .messages
        .iter()
        .map(|&m| catalog.name(m))
        .collect();
    names.sort_unstable();
    assert_eq!(
        names,
        ["dmupioack", "ncucpxgnt", "piorcrd", "piowcrd", "siincu"]
    );
    assert_eq!(report.chosen.width, 30);
}

/// Partitioned selection (the `partition` bench's per-source-IP split,
/// at every total width 1–48) picks, in every partition, what exhaustive
/// ranking over that partition's messages picks, and reports the union's
/// gain bit for bit.
#[test]
fn partitioned_selection_matches_exhaustive_ranking_per_partition() {
    let model = SocModel::t2();
    for scenario in [
        UsageScenario::scenario1(),
        UsageScenario::scenario2(),
        UsageScenario::scenario3(),
        UsageScenario::scenario_dma(),
    ] {
        let flow = scenario.interleaving(&model).unwrap();
        let cache = MiCache::new(&flow);
        let mut groups: Vec<(String, Vec<MessageId>)> = Vec::new();
        for m in scenario.messages(&model) {
            let ip = model.source_ip(m).unwrap().to_string();
            match groups.iter_mut().find(|(label, _)| *label == ip) {
                Some((_, list)) => list.push(m),
                None => groups.push((ip, vec![m])),
            }
        }
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        for total in 1..=48 {
            let partitions = even_partitions(&groups, total);
            let report = partitioned_select(&flow, &partitions).unwrap();
            let what = format!("{} at {total} bits", scenario.name());
            let mut union: Vec<MessageId> = Vec::new();
            for outcome in &report.outcomes {
                let partition = &outcome.partition;
                let best = exhaustive_best(&flow, &cache, &partition.messages, partition.bits);
                assert_eq!(
                    outcome.selected, best.messages,
                    "{what}: {}",
                    partition.label
                );
                assert_eq!(outcome.used_bits, best.width, "{what}: {}", partition.label);
                union.extend(best.messages);
            }
            union.sort_unstable();
            union.dedup();
            assert_eq!(report.effective_messages, union, "{what}: union");
            let gain = mutual_information(&flow, &union);
            assert_eq!(report.gain.to_bits(), gain.to_bits(), "{what}: gain");
        }
    }
}
