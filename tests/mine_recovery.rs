//! Flow-mining acceptance: mined specifications must recover the paper's
//! ground-truth flow DAGs and slot into the debugging pipeline without
//! changing its output.
//!
//! Acceptance criteria pinned here:
//! * mining the five usage-scenario capture corpora recovers at least
//!   4 of the 5 hand-written Table 1 flows at node and edge
//!   precision/recall >= 0.9;
//! * substituting a mined PIO-read spec for the hand-written one yields
//!   a case-study localization line byte-identical to the original on a
//!   clean capture (the mined DAG is structurally exact, so selection,
//!   interleaving and path counting all agree);
//! * mining a chaos-corrupted wire capture never panics, skips the
//!   damaged frames, and reports them through the `pstrace_mine_*`
//!   observability counters.

use std::sync::Arc;

use pstrace::bug::case_studies;
use pstrace::diag::{run_case_study_observed, run_case_study_routed, CaseStudyConfig};
use pstrace::faults::{corrupt_wire, FaultLedger, FaultPlan};
use pstrace::mine::{
    default_seeds, evaluate, full_body_width, full_capture_config, scenario_executions, Miner,
    MiningConfig,
};
use pstrace::obs::Registry;
use pstrace::soc::{wirecap, FlowKind, SimConfig, Simulator, SocModel, UsageScenario};
use pstrace::wire::{decode_with, ProfileV1};
use pstrace_rng::Rng64;

fn paper_scenarios() -> Vec<UsageScenario> {
    vec![
        UsageScenario::scenario1(),
        UsageScenario::scenario2(),
        UsageScenario::scenario3(),
        UsageScenario::scenario_dma(),
        UsageScenario::scenario_coherence(),
    ]
}

/// A miner loaded with wire-tripped captures of every paper scenario.
fn combined_miner(model: &SocModel, seeds_per_scenario: u64) -> Miner {
    let seeds = default_seeds(seeds_per_scenario);
    let mut miner = Miner::new(model.catalog().clone(), MiningConfig::default());
    for scenario in paper_scenarios() {
        let (logs, skipped) =
            scenario_executions(model, &scenario, &seeds).expect("corpus encodes");
        assert_eq!(skipped, 0, "clean corpora must decode without damage");
        for log in logs {
            miner.push_log(log);
        }
    }
    miner
}

#[test]
fn mining_recovers_at_least_four_of_five_paper_flows() {
    let model = SocModel::t2();
    let miner = combined_miner(&model, 8);
    let report = miner.mine();
    assert!(
        report.candidates.len() >= 5,
        "expected candidates for every initiating message, got {}",
        report.candidates.len()
    );

    // The five hand-written Table 1 flows are the ground truth; the
    // corpus also exercises DMA and coherence flows, whose candidates
    // simply go unmatched here.
    let truth_kinds = [
        FlowKind::PioRead,
        FlowKind::PioWrite,
        FlowKind::NcuUpstream,
        FlowKind::NcuDownstream,
        FlowKind::Mondo,
    ];
    let truths: Vec<&pstrace::flow::Flow> = truth_kinds
        .iter()
        .map(|&k| model.flow(k).as_ref())
        .collect();
    let recovery = evaluate(&report.candidates, &truths, 0.9);

    for m in &recovery.matches {
        let s = &m.score;
        eprintln!(
            "{}: candidate={:?} nodes P={:.2} R={:.2} edges P={:.2} R={:.2} recovered={}",
            m.truth,
            m.candidate,
            s.nodes.precision,
            s.nodes.recall,
            s.edges.precision,
            s.edges.recall,
            m.recovered
        );
    }
    assert!(
        recovery.recovered >= 4,
        "mining must recover >= 4/5 ground-truth flows at P/R >= 0.9:\n{}",
        recovery.verdict_line()
    );
    assert_eq!(recovery.total, 5);
    assert!(recovery
        .verdict_line()
        .starts_with(&format!("mine recovery: {}/5", recovery.recovered)));
}

#[test]
fn mined_pio_read_localization_is_byte_identical() {
    let model = SocModel::t2();
    // Scenario 1 alone gives a clean PIO-read cluster; the mined flow is
    // built over the model's own catalog Arc, so `with_flow` accepts it.
    let seeds = default_seeds(8);
    let mut miner = Miner::new(model.catalog().clone(), MiningConfig::default());
    let (logs, _) =
        scenario_executions(&model, &UsageScenario::scenario1(), &seeds).expect("corpus encodes");
    for log in logs {
        miner.push_log(log);
    }
    let report = miner.mine();
    let mined = report
        .candidates
        .iter()
        .find(|c| c.flow.name() == "mined-piorreq")
        .expect("scenario 1 must yield a PIO-read candidate");
    let score = pstrace::mine::score_against(&mined.flow, model.flow(FlowKind::PioRead));
    assert!(
        score.meets(0.9),
        "mined PIO-read must match ground truth: {score:?}"
    );

    let analysis = model.with_flow(FlowKind::PioRead, Arc::new(mined.flow.clone()));
    let case = &case_studies()[0]; // case 1 runs scenario 1 (PIO read path)
    let config = CaseStudyConfig::default();
    let hand =
        run_case_study_observed(&model, case, config, case.seed, None).expect("hand-written");
    let routed =
        run_case_study_routed(&model, &analysis, case, config, case.seed, None).expect("mined");

    assert_eq!(
        hand.localization, routed.localization,
        "mined spec must not change localization"
    );
    let line = |r: &pstrace::diag::CaseStudyReport| {
        r.render(&model)
            .lines()
            .find(|l| l.contains("localization"))
            .expect("report renders a localization line")
            .to_string()
    };
    assert_eq!(
        line(&hand),
        line(&routed),
        "localization report lines must be byte-identical"
    );
}

#[test]
fn mining_chaos_corrupted_capture_skips_frames_without_panicking() {
    let model = SocModel::t2();
    let scenario = UsageScenario::scenario1();
    let config = full_capture_config(&model, &scenario);
    let schema = wirecap::wire_schema(&model, &config, full_body_width(&model, &scenario))
        .expect("full-visibility schema fits");

    let obs = Registry::new();
    let mut miner = Miner::new(model.catalog().clone(), MiningConfig::default());
    let mut rng = Rng64::seed_from_u64(0xBAD5EED);
    let mut ledger = FaultLedger::new();
    let plan = FaultPlan::standard(0xBAD5EED);
    for seed in default_seeds(6) {
        let outcome = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(seed)).run();
        let stream = wirecap::encode_events(
            model.catalog(),
            &schema,
            &outcome.events,
            &config,
            &ProfileV1,
        )
        .expect("records fit the schema");
        let mangled = corrupt_wire(
            &plan,
            seed,
            schema.frame_bits(),
            &stream,
            &mut rng,
            &mut ledger,
        );
        let report = decode_with(&ProfileV1, &schema, &mangled.bytes, Some(mangled.bit_len));
        miner.push_decoded(&report);
    }
    assert!(!ledger.is_empty(), "the standard plan must inject faults");

    // Must not panic, must account every damaged frame, and must still
    // produce something from the surviving records.
    let report = miner.mine_observed(Some(&obs));
    assert!(
        report.stats.skipped_frames >= 1,
        "bit flips at 1e-3 over six captures must damage at least one frame"
    );
    assert_eq!(
        obs.counter("pstrace_mine_skipped_frames_total").get(),
        report.stats.skipped_frames,
        "skipped frames must flow through the obs counter"
    );
    assert!(
        obs.counter("pstrace_mine_executions_total").get() >= 6,
        "every pushed capture counts as an execution"
    );
}
