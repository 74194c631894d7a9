//! Ablation: unified trace buffer vs per-source-IP buffer partitioning.
//!
//! Production trace fabrics often give each IP its own buffer segment.
//! This experiment splits the paper's 32 bits evenly across the source
//! IPs of each scenario's messages and compares the per-partition
//! selection's union against the unified selection — quantifying what the
//! shared buffer (and with it, cross-IP optimization) is worth.

use pstrace_bench::pct;
use pstrace_core::{
    even_partitions, partitioned_select, SelectionConfig, Selector, TraceBufferSpec,
};
use pstrace_soc::{SocModel, UsageScenario};

fn main() {
    let model = SocModel::t2();
    println!("Ablation — unified vs partitioned 32-bit trace buffer\n");
    println!(
        "{:<18} {:<14} {:>8} {:>9} {:>12}",
        "Scenario", "Buffer", "Gain", "Coverage", "Utilization"
    );
    let mut scenarios = UsageScenario::all_paper_scenarios();
    scenarios.push(UsageScenario::scenario_dma());
    for scenario in scenarios {
        let product = scenario.interleaving(&model).expect("interleaves");

        let mut config = SelectionConfig::new(TraceBufferSpec::new(32).expect("nonzero"));
        config.packing = false;
        let unified = Selector::new(&product, config).select().expect("selects");
        println!(
            "{:<18} {:<14} {:>8.4} {:>9} {:>12}",
            scenario.name(),
            "unified",
            unified.chosen.gain,
            pct(unified.coverage_unpacked),
            pct(unified.utilization_unpacked),
        );

        // Group messages by source IP.
        let mut groups: Vec<(String, Vec<pstrace_flow::MessageId>)> = Vec::new();
        for m in scenario.messages(&model) {
            let ip = model.source_ip(m).expect("endpoints known").to_string();
            match groups.iter_mut().find(|(label, _)| *label == ip) {
                Some((_, list)) => list.push(m),
                None => groups.push((ip, vec![m])),
            }
        }
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        let partitions = even_partitions(&groups, 32);
        let part =
            partitioned_select(&product, &partitions).expect("partitioned selection succeeds");
        println!(
            "{:<18} {:<14} {:>8.4} {:>9} {:>12}",
            "",
            format!("{}-way split", partitions.len()),
            part.gain,
            pct(part.coverage),
            pct(part.utilization),
        );
        for outcome in &part.outcomes {
            let names: Vec<&str> = outcome
                .selected
                .iter()
                .map(|&m| model.catalog().name(m))
                .collect();
            println!(
                "{:<18}   {:<5} {:>2}/{:<2} bits  [{}]",
                "",
                outcome.partition.label,
                outcome.used_bits,
                outcome.partition.bits,
                names.join(", ")
            );
        }
        println!();
    }
    println!("expectation: the unified buffer dominates gain and utilization —");
    println!("per-IP splits strand bits in partitions whose messages do not fit");
}
