//! Quickstart: the paper's running example (§2–3).
//!
//! Builds the toy cache-coherence flow of Figure 1a, interleaves two
//! concurrently executing instances (Figure 2), runs the three-step
//! message selection under a 2-bit trace buffer, and prints every
//! intermediate quantity the paper walks through.
//!
//! Run with: `cargo run --example quickstart`

use std::error::Error;
use std::sync::Arc;

use pstrace::flow::{examples::cache_coherence, instantiate, path_count, InterleavedFlow};
use pstrace::infogain::MiCache;
use pstrace::select::{
    enumerate_combinations, flow_spec_coverage, rank_combinations, SelectionConfig, Selector,
    TraceBufferSpec,
};

fn main() -> Result<(), Box<dyn Error>> {
    // Figure 1a: the exclusive-line-access flow between an L1 and the
    // directory. Messages ReqE, GntE, Ack are 1 bit each; GntW is atomic.
    let (flow, catalog) = cache_coherence();
    println!("flow: {flow}");

    // Figure 1b/2: two legally indexed instances, interleaved.
    let instances = instantiate(&Arc::new(flow), 2);
    let product = InterleavedFlow::build(&instances)?;
    println!(
        "interleaving: {} states, {} edges, {} root-to-stop paths",
        product.state_count(),
        product.edge_count(),
        path_count(&product),
    );

    // §3: select messages for a 2-bit trace buffer. Steps 1-2 spelled out:
    // every combination that fits, ranked by mutual information gain.
    let buffer = TraceBufferSpec::new(2)?;
    let candidates = enumerate_combinations(
        &catalog,
        &product.message_alphabet(),
        buffer.width_bits(),
        1_000,
    )?;
    println!("\nstep 1/2 candidates (gain in nats, descending):");
    for cand in &rank_combinations(&product, &candidates, &MiCache::new(&product)) {
        let names: Vec<&str> = cand.messages.iter().map(|&m| catalog.name(m)).collect();
        let coverage = flow_spec_coverage(&product, &cand.messages);
        println!(
            "  {{{}}}  width {:>2}  gain {:.4}  coverage {:.4}",
            names.join(", "),
            cand.width,
            cand.gain,
            coverage
        );
    }

    // The selector finds the same winner without ranking every candidate.
    let report = Selector::new(&product, SelectionConfig::new(buffer)).select()?;
    let chosen: Vec<&str> = report
        .chosen
        .messages
        .iter()
        .map(|&m| catalog.name(m))
        .collect();
    println!("\nselected combination: {{{}}}", chosen.join(", "));
    println!("  mutual information gain : {:.3} nats", report.chosen.gain);
    println!("  flow-spec coverage      : {:.4}", report.coverage());
    println!(
        "  trace buffer utilization: {:.1} %",
        report.utilization() * 100.0
    );

    Ok(())
}
