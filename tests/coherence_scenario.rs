//! Integration: the branching coherence extension scenario end to end.
//!
//! Every Table 1 flow is linear; the coherence flow branches (Shared vs
//! Exclusive grant), which stresses exactly the machinery linear flows let
//! off easy: random branch choice in the simulator, per-branch path
//! localization, and cause signatures that must not be pruned by unsound
//! linear-flow inference.

use pstrace::bug::{BugCategory, BugInterceptor, BugKind, BugSpec, BugTrigger};
use pstrace::diag::{
    consistent_paths, distill, evaluate_causes, scenario_causes, Comparison, MatchMode, Verdict,
    Witness,
};
use pstrace::flow::path_count;
use pstrace::select::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace::soc::{
    capture, FlowKind, Ip, SimConfig, Simulator, SocModel, TraceBufferConfig, UsageScenario,
};

#[test]
fn coherence_flow_branches() {
    let model = SocModel::t2();
    let flow = model.flow(FlowKind::Coherence);
    assert!(!flow.is_linear());
    assert_eq!(
        pstrace::flow::flow_path_count(flow),
        2,
        "Shared or Exclusive"
    );
    // Every Table 1 flow is linear.
    for kind in FlowKind::PAPER {
        assert!(model.flow(kind).is_linear(), "{kind}");
    }
}

#[test]
fn simulator_explores_both_branches() {
    let model = SocModel::t2();
    let scenario = UsageScenario::scenario_coherence();
    let gnts = model.catalog().get("gnts").unwrap();
    let gntx = model.catalog().get("gntx").unwrap();
    let mut saw_shared = false;
    let mut saw_exclusive = false;
    for seed in 0..32 {
        let out = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(seed)).run();
        assert!(out.status.is_completed(), "seed {seed}");
        for e in &out.events {
            saw_shared |= e.message.message == gnts;
            saw_exclusive |= e.message.message == gntx;
        }
    }
    assert!(saw_shared, "the Shared branch is reachable");
    assert!(saw_exclusive, "the Exclusive branch is reachable");
}

#[test]
fn selection_and_localization_work_on_branching_flows() {
    let model = SocModel::t2();
    let scenario = UsageScenario::scenario_coherence();
    let product = scenario.interleaving(&model).unwrap();
    assert!(path_count(&product) > 10, "branching multiplies paths");

    let report = Selector::new(
        &product,
        SelectionConfig::new(TraceBufferSpec::new(32).unwrap()),
    )
    .select()
    .unwrap();
    assert!(report.utilization() > 0.8);

    // A golden run's captured trace must localize to at least itself and
    // strictly fewer paths than the total: observing the grant messages
    // resolves each instance's branch choice.
    let out = Simulator::new(&model, scenario, SimConfig::with_seed(3)).run();
    let trace = capture(
        &model,
        &out,
        &TraceBufferConfig::from_selection(&report, None),
    );
    let consistent = consistent_paths(
        &product,
        &trace.message_sequence(),
        &report.effective_messages,
        MatchMode::Exact,
    );
    assert!(consistent >= 1);
    assert!(consistent < path_count(&product));
}

#[test]
fn branching_flow_evidence_is_not_over_inferred() {
    // A run that took the Shared branch leaves gntx/inval/invack
    // unobserved. Linear-flow inference must NOT mark them healthy or
    // absent — they are simply on the path not taken.
    let model = SocModel::t2();
    let scenario = UsageScenario::scenario_coherence();
    let all = scenario.messages(&model);
    let cfg = TraceBufferConfig::messages_only(&all);

    // Find a seed where both instances took the Shared branch.
    let gntx = model.catalog().get("gntx").unwrap();
    let seed = (0..64)
        .find(|&s| {
            let out = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(s)).run();
            out.events.iter().all(|e| e.message.message != gntx)
        })
        .expect("some seed avoids the exclusive branch entirely");
    let out = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(seed)).run();
    let trace = capture(&model, &out, &cfg);
    let ev = distill(
        &model,
        &scenario,
        &Comparison::new(&scenario, &trace, &trace),
    );
    let w = |name: &str| Witness::new(FlowKind::Coherence, model.catalog().get(name).unwrap());
    assert_eq!(ev.verdict(w("gntx")), Verdict::Unobserved);
    assert_eq!(ev.verdict(w("inval")), Verdict::Unobserved);
    assert_eq!(
        ev.verdict(w("cohreq")),
        Verdict::Healthy,
        "directly observed"
    );

    // Causes about the exclusive path stay plausible (not contradicted).
    let causes = scenario_causes(&model, &scenario);
    let report = evaluate_causes(&causes, &ev);
    assert!(report.plausible().iter().any(|c| c.id == 3));
}

#[test]
fn diagnosing_a_coherence_bug() {
    // Corrupt the fill data in the crossbar; the fill-corruption cause
    // must survive and the CCX be implicated.
    let model = SocModel::t2();
    let scenario = UsageScenario::scenario_coherence();
    let bug = BugSpec {
        id: 90,
        depth: 2,
        category: BugCategory::Data,
        kind: BugKind::CorruptPayload { mask: 0xff },
        ip: Ip::Ccx,
        target: model.catalog().get("cohfill").unwrap(),
        trigger: BugTrigger::OnOccurrence(0),
        description: "fill data corrupted in the crossbar return path",
    };
    let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(9));
    let golden = sim.run();
    let buggy = sim.run_with(&mut BugInterceptor::new(&model, vec![bug]));
    let all = scenario.messages(&model);
    let cfg = TraceBufferConfig::messages_only(&all);
    let comparison = Comparison::new(
        &scenario,
        &capture(&model, &golden, &cfg),
        &capture(&model, &buggy, &cfg),
    );
    let ev = distill(&model, &scenario, &comparison);
    let causes = scenario_causes(&model, &scenario);
    let report = evaluate_causes(&causes, &ev);
    let plausible = report.plausible();
    assert!(
        plausible.iter().any(|c| c.id == 6),
        "fill corruption survives"
    );
    assert!(plausible.iter().any(|c| c.ip == Ip::Ccx));
    // Branching costs pruning power: causes about the grant path not
    // taken can never be contradicted, so the floor is lower than in the
    // all-linear paper scenarios.
    assert!(report.pruned_fraction() >= 0.4);
}
