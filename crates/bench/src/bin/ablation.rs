//! Ablation study: what does the mutual-information metric buy over
//! simpler selection policies?
//!
//! Compares three selectors under the same 32-bit buffer on every usage
//! scenario (including the DMA extension scenario): the paper's
//! information-gain method, a coverage-greedy selector and a
//! density-greedy (indexed messages per bit) selector — reporting gain,
//! flow-spec coverage and the localization each achieves on a bug-free
//! reference execution.

use pstrace_bench::pct;
use pstrace_core::{
    count_greedy_select, coverage_greedy_select, flow_spec_coverage, SelectionConfig, Selector,
    TraceBufferSpec,
};
use pstrace_diag::{consistent_paths, MatchMode};
use pstrace_flow::path_count;
use pstrace_obs::{render_profile_table, Registry};
use pstrace_soc::{capture, SimConfig, Simulator, SocModel, TraceBufferConfig, UsageScenario};

fn main() {
    let model = SocModel::t2();
    let registry = Registry::new();
    let buffer = TraceBufferSpec::new(32).expect("nonzero");
    let mut scenarios = UsageScenario::all_paper_scenarios();
    scenarios.push(UsageScenario::scenario_dma());

    println!("Ablation — selection metric vs outcome (32-bit buffer, no packing)\n");
    println!(
        "{:<18} {:<16} {:>8} {:>9} {:>12}",
        "Scenario", "Selector", "Gain", "Coverage", "Localization"
    );
    for scenario in scenarios {
        let product = registry.time("interleave", || {
            scenario.interleaving(&model).expect("interleaves")
        });
        let total_paths = path_count(&product);

        let mut config = SelectionConfig::new(buffer);
        config.packing = false;
        let info = Selector::new(&product, config)
            .select_observed(Some(&registry))
            .expect("selection succeeds")
            .chosen;
        let (cov, cnt) = registry.time("ablation-selectors", || {
            (
                coverage_greedy_select(&product, buffer),
                count_greedy_select(&product, buffer),
            )
        });

        // A bug-free reference run, captured through each selection.
        let out = registry.time("simulate", || {
            Simulator::new(&model, scenario.clone(), SimConfig::with_seed(0xab1a)).run()
        });

        for (name, combo) in [
            ("info-gain", &info),
            ("coverage-greedy", &cov),
            ("count-greedy", &cnt),
        ] {
            let trace = capture(
                &model,
                &out,
                &TraceBufferConfig::messages_only(&combo.messages),
            );
            let consistent = registry.time("localize", || {
                consistent_paths(
                    &product,
                    &trace.message_sequence(),
                    &combo.messages,
                    MatchMode::Exact,
                )
            });
            let localization = consistent as f64 / total_paths as f64;
            println!(
                "{:<18} {:<16} {:>8.4} {:>9} {:>12}",
                scenario.name(),
                name,
                combo.gain,
                pct(flow_spec_coverage(&product, &combo.messages)),
                pct(localization),
            );
        }
        println!();
    }
    println!("expectation: info-gain dominates gain by construction and matches or");
    println!("beats the ablations on localization; coverage-greedy can tie on coverage");
    println!("\nphase timings over all scenarios (wall clock):");
    print!("{}", render_profile_table(&registry));
}
