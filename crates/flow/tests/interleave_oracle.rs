//! The flat, CSR product builder against the boxed-tuple builder it
//! replaced (`oracle`), and its closed-form state budget, on the paper's
//! Figure 2 flow and on the SoC usage scenarios.

mod oracle;

use std::sync::Arc;

use pstrace_flow::examples::cache_coherence;
use pstrace_flow::{
    instantiate, FlowBuilder, FlowError, FlowIndex, IndexedFlow, InterleaveConfig, InterleavedFlow,
};
use pstrace_soc::{SocModel, UsageScenario};

/// Scenarios 1–5, then scenarios 1–3 with every instance count doubled.
fn scenarios() -> Vec<Vec<IndexedFlow>> {
    let model = SocModel::t2();
    let base = [
        UsageScenario::scenario1(),
        UsageScenario::scenario2(),
        UsageScenario::scenario3(),
        UsageScenario::scenario_dma(),
        UsageScenario::scenario_coherence(),
    ];
    let doubled = base[..3].iter().map(|s| {
        let flows: Vec<_> = s.flows().iter().map(|&(kind, n)| (kind, 2 * n)).collect();
        UsageScenario::custom(s.number(), "doubled", &flows)
    });
    base.iter()
        .cloned()
        .chain(doubled)
        .map(|s| s.instances(&model))
        .collect()
}

#[test]
fn figure2_products_match_the_oracle() {
    let (flow, _) = cache_coherence();
    let flow = Arc::new(flow);
    assert_eq!(
        oracle::assert_same(&instantiate(&flow, 2)).state_count(),
        15
    );
    assert_eq!(
        oracle::assert_same(&instantiate(&flow, 3)).state_count(),
        54
    );
}

#[test]
fn scenario_products_match_the_oracle() {
    for flows in scenarios() {
        oracle::assert_same(&flows);
    }
}

/// Flows with two initial states each (the initial product states come in
/// cartesian order, last slot fastest) and one with an atomic start (no
/// up-front budget, so the state index grows as it goes).
#[test]
fn multiple_and_atomic_starts_match_the_oracle() {
    let (cc, catalog) = cache_coherence();
    let two_starts = |atomic_start: bool| {
        let b = FlowBuilder::new(if atomic_start {
            "atomic-start"
        } else {
            "two-starts"
        });
        let b = if atomic_start {
            b.atomic_state("a")
        } else {
            b.state("a")
        };
        let flow = b
            .state("b")
            .stop_state("z")
            .initial("a")
            .initial("b")
            .edge("a", "ReqE", "b")
            .edge("b", "GntE", "z")
            .build(&catalog)
            .unwrap();
        Arc::new(flow)
    };
    let cc = Arc::new(cc);
    let flows = [
        IndexedFlow::new(two_starts(false), FlowIndex(1)),
        IndexedFlow::new(Arc::clone(&cc), FlowIndex(2)),
        IndexedFlow::new(two_starts(true), FlowIndex(3)),
        IndexedFlow::new(cc, FlowIndex(4)),
        IndexedFlow::new(two_starts(false), FlowIndex(5)),
    ];
    let u = oracle::assert_same(&flows);
    assert_eq!(u.initial_states().len(), 8);
    let (bound, _) = InterleavedFlow::closed_form_size(&flows).unwrap();
    assert!(u.state_count() < bound, "{} vs {bound}", u.state_count());
}

/// No scenario flow starts atomic, so the closed form is exact: it equals
/// the built size, a budget of exactly that many states builds, and one
/// state fewer is refused before any exploration.
#[test]
fn closed_form_size_is_exact_and_is_the_budget() {
    for flows in scenarios() {
        let (states, edges) = InterleavedFlow::closed_form_size(&flows).unwrap();
        let u =
            InterleavedFlow::build_with(&flows, InterleaveConfig { max_states: states }).unwrap();
        assert_eq!((u.state_count(), u.edge_count()), (states, edges));
        let err = InterleavedFlow::build_with(
            &flows,
            InterleaveConfig {
                max_states: states - 1,
            },
        )
        .unwrap_err();
        assert_eq!(err, FlowError::ProductTooLarge { limit: states - 1 });
    }
}
