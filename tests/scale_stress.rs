//! Scale stress tests (run with `cargo test -- --ignored`): the paper's
//! third contribution is making scalability an explicit objective, so the
//! machinery must hold up far beyond the paper scenarios.

use std::time::{Duration, Instant};

use pstrace::flow::{path_count, FlowError};
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

/// The scale probe: Table 1 scenarios with every instance count multiplied
/// by `k`. Pins each product's exact size and prints its build,
/// `path_count` and 32-bit selection times (run with `--nocapture`); then
/// times scenario 1 ×4, which the closed-form state budget refuses before
/// exploring anything.
#[test]
#[ignore = "multi-second stress run; execute with -- --ignored"]
fn scale_probe() {
    let model = SocModel::t2();
    let scaled = |s: UsageScenario, k: u32| {
        let flows: Vec<_> = s.flows().iter().map(|&(f, n)| (f, n * k)).collect();
        UsageScenario::custom(s.number(), "scaled", &flows)
    };
    let probes = [
        (UsageScenario::scenario1(), 2, 11_340, 40_500),
        (UsageScenario::scenario3(), 2, 46_656, 272_160),
        (UsageScenario::scenario2(), 2, 725_760, 3_974_400),
        (UsageScenario::scenario1(), 3, 1_166_400, 5_467_500),
    ];
    for (scenario, k, states, edges) in probes {
        let n = scenario.number();
        let t = Instant::now();
        let product = scaled(scenario, k).interleaving(&model).unwrap();
        let build = t.elapsed();
        assert_eq!(
            (product.state_count(), product.edge_count()),
            (states, edges)
        );
        let t = Instant::now();
        let paths = path_count(&product);
        let count = t.elapsed();
        let t = Instant::now();
        let config = SelectionConfig::new(TraceBufferSpec::new(32).unwrap());
        let best = Selector::new(&product, config).select().unwrap().chosen;
        let select = t.elapsed();
        assert!(paths > 0 && !best.messages.is_empty());
        println!(
            "scenario {n} x{k}: {states} states / {edges} edges: build {build:.2?}, \
             path_count {count:.2?}, select {select:.2?}"
        );
    }
    let t = Instant::now();
    let err = scaled(UsageScenario::scenario1(), 4)
        .interleaving(&model)
        .unwrap_err();
    let refuse = t.elapsed();
    assert_eq!(err, FlowError::ProductTooLarge { limit: 4_000_000 });
    println!("scenario 1 x4: ProductTooLarge in {refuse:.2?}");
    assert!(refuse < Duration::from_secs(1), "refused in {refuse:?}");
}
