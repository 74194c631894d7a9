//! Scale stress tests (run with `cargo test -- --ignored`): the paper's
//! third contribution is making scalability an explicit objective, so the
//! machinery must hold up far beyond the paper scenarios.

use std::time::Instant;

use pstrace::flow::path_count;
use pstrace::select::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace::soc::{FlowKind, SocModel, UsageScenario};

/// A ~146k-state interleaving (3×3 flows, 27 concurrent instances' worth
/// of product structure) must build, count paths and select within
/// seconds.
#[test]
#[ignore = "multi-second stress run; execute with -- --ignored"]
fn hundred_thousand_state_interleaving() {
    let model = SocModel::t2();
    let scenario = UsageScenario::custom(
        9,
        "stress",
        &[
            (FlowKind::PioWrite, 3),
            (FlowKind::NcuDownstream, 3),
            (FlowKind::Mondo, 3),
        ],
    );
    let t0 = Instant::now();
    let product = scenario.interleaving(&model).unwrap();
    assert!(product.state_count() > 100_000, "{}", product.state_count());
    assert!(t0.elapsed().as_secs() < 30, "build too slow");

    let t1 = Instant::now();
    let paths = path_count(&product);
    assert!(paths > 1_000_000_000, "combinatorial path space: {paths}");
    assert!(t1.elapsed().as_secs() < 30, "path DP too slow");

    let t2 = Instant::now();
    let config = SelectionConfig::new(TraceBufferSpec::new(32).unwrap());
    let best = Selector::new(&product, config).select().unwrap().chosen;
    assert!(!best.messages.is_empty());
    assert!(best.gain > 0.0);
    assert!(t2.elapsed().as_secs() < 60, "selection too slow");
}

/// The product state budget aborts cleanly instead of exhausting memory.
#[test]
#[ignore = "multi-second stress run; execute with -- --ignored"]
fn product_budget_aborts_cleanly() {
    use pstrace::flow::{InterleaveConfig, InterleavedFlow};
    let model = SocModel::t2();
    let scenario = UsageScenario::custom(
        9,
        "over-budget",
        &[(FlowKind::Mondo, 6), (FlowKind::PioRead, 4)],
    );
    let err = InterleavedFlow::build_with(
        &scenario.instances(&model),
        InterleaveConfig {
            max_states: 100_000,
        },
    )
    .unwrap_err();
    assert!(matches!(
        err,
        pstrace::flow::FlowError::ProductTooLarge { limit: 100_000 }
    ));
}
