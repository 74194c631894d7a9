//! Integration tests pinning the paper's worked-example numbers through
//! the public façade.

use std::sync::Arc;

use pstrace::flow::{examples::cache_coherence, instantiate, path_count, InterleavedFlow};
use pstrace::infogain::mutual_information;
use pstrace::prelude::*;
use pstrace::select::{enumerate_combinations, flow_spec_coverage};

fn running_example() -> (InterleavedFlow, Arc<pstrace::flow::MessageCatalog>) {
    let (flow, catalog) = cache_coherence();
    let product = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2))
        .expect("running example interleaves");
    (product, catalog)
}

#[test]
fn figure_2_interleaving_shape() {
    let (product, _) = running_example();
    assert_eq!(
        product.state_count(),
        15,
        "15 legal states, (GntW,GntW) excluded"
    );
    assert_eq!(
        product.edge_count(),
        18,
        "each indexed message labels 3 edges"
    );
    assert_eq!(path_count(&product), 6);
}

#[test]
fn section_3_2_worked_example() {
    let (product, catalog) = running_example();
    let combo = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
    let gain = mutual_information(&product, &combo);
    assert!((gain - 1.073).abs() < 1e-3, "I(X;Y1) = 1.073");
    // Closed form from the paper's probabilities: (2/3)·ln 5.
    assert!((gain - (2.0 / 3.0) * 5.0_f64.ln()).abs() < 1e-12);
}

#[test]
fn section_3_3_selection_and_coverage() {
    let (product, catalog) = running_example();
    let report = Selector::new(
        &product,
        SelectionConfig::new(TraceBufferSpec::new(2).expect("nonzero")),
    )
    .select()
    .expect("selection succeeds");

    let names: Vec<&str> = report
        .chosen
        .messages
        .iter()
        .map(|&m| catalog.name(m))
        .collect();
    assert_eq!(
        names,
        ["ReqE", "GntE"],
        "the paper selects Y'1 = {{ReqE, GntE}}"
    );
    let step_1 = enumerate_combinations(&catalog, &product.message_alphabet(), 2, 100)
        .expect("step 1 enumerates");
    assert_eq!(step_1.len(), 6, "7 subsets minus the over-wide full set");
    assert!((report.coverage() - 0.7333).abs() < 1e-4, "coverage 0.7333");
    assert_eq!(report.utilization(), 1.0, "2 of 2 bits used");
    let direct = flow_spec_coverage(&product, &report.chosen.messages);
    assert!((direct - report.coverage()).abs() < 1e-12);
}

#[test]
fn table_1_flow_shapes() {
    let model = SocModel::t2();
    use pstrace::soc::FlowKind;
    let expect = [
        (FlowKind::PioRead, 6, 5),
        (FlowKind::PioWrite, 3, 2),
        (FlowKind::NcuUpstream, 4, 3),
        (FlowKind::NcuDownstream, 3, 2),
        (FlowKind::Mondo, 6, 5),
    ];
    for (kind, states, messages) in expect {
        let f = model.flow(kind);
        assert_eq!(f.state_count(), states);
        assert_eq!(f.messages().len(), messages);
    }
}

#[test]
fn table_1_cause_counts() {
    let model = SocModel::t2();
    let counts: Vec<usize> = UsageScenario::all_paper_scenarios()
        .iter()
        .map(|s| pstrace::diag::scenario_causes(&model, s).len())
        .collect();
    assert_eq!(counts, [9, 8, 9]);
}
