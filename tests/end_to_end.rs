//! End-to-end integration: the full select → simulate → inject → capture →
//! localize → diagnose pipeline across every case study, asserting the
//! qualitative shape of the paper's Tables 3 and 6 and Figures 6 and 7.

use pstrace::bug::{bug_catalog, case_studies, BugInterceptor, Symptom};
use pstrace::diag::{
    distill, evaluate_causes, run_case_study, scenario_causes, CaseStudyConfig, Comparison,
    RootCause,
};
use pstrace::soc::{capture, SimConfig, Simulator, SocModel, TraceBufferConfig};

#[test]
fn table_3_shape_holds() {
    let model = SocModel::t2();
    for cs in case_studies() {
        let with = run_case_study(
            &model,
            &cs,
            CaseStudyConfig {
                buffer_bits: 32,
                packing: true,
                depth: None,
            },
        )
        .expect("case study runs");
        let without = run_case_study(
            &model,
            &cs,
            CaseStudyConfig {
                buffer_bits: 32,
                packing: false,
                depth: None,
            },
        )
        .expect("case study runs");

        // Utilization high and never hurt by packing.
        assert!(with.selection.utilization() >= 0.9, "case {}", cs.number);
        assert!(with.selection.utilization() >= without.selection.utilization());
        // Coverage substantial and never hurt by packing.
        assert!(with.selection.coverage() >= 0.7, "case {}", cs.number);
        assert!(with.selection.coverage() + 1e-12 >= without.selection.coverage());
        // Localization: a small fraction of all interleaved-flow paths.
        assert!(
            with.path_localization() <= 0.10,
            "case {}: localization {:.3}",
            cs.number,
            with.path_localization()
        );
        assert!(with.path_localization() <= without.path_localization() + 1e-12);
    }
}

#[test]
fn every_case_study_symptomizes_and_diagnoses() {
    let model = SocModel::t2();
    let catalog = bug_catalog(&model);
    for cs in case_studies() {
        let report = run_case_study(&model, &cs, CaseStudyConfig::default()).unwrap();
        // A symptom is always observable.
        let symptom = report.symptom.as_ref().expect("symptom observed");
        match cs.number {
            1 => assert!(matches!(symptom, Symptom::Hang { .. })),
            _ => assert!(matches!(symptom, Symptom::BadTrap { .. })),
        }
        // Figure 7 shape: a majority of causes is pruned…
        assert!(
            report.pruned_fraction() >= 0.5,
            "case {}: pruned only {:.2}",
            cs.number,
            report.pruned_fraction()
        );
        // …and the truly buggy IP always remains among the plausible.
        let true_ip = cs.bugs(&catalog)[0].ip;
        assert!(
            report.causes.plausible().iter().any(|c| c.ip == true_ip),
            "case {}: true IP {true_ip} was pruned",
            cs.number
        );
    }
}

#[test]
fn figure_6_series_are_monotone() {
    let model = SocModel::t2();
    for cs in case_studies() {
        let report = run_case_study(&model, &cs, CaseStudyConfig::default()).unwrap();
        let pairs = report.walk.pair_elimination_series();
        let causes = report.walk.cause_elimination_series();
        assert!(!pairs.is_empty());
        for w in pairs.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        for w in causes.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // Table 6 shape: only a fraction of legal IP pairs is ever
        // investigated.
        assert!(report.walk.pairs_investigated.len() <= report.walk.legal_pairs.len());
        assert!(!report.walk.pairs_investigated.is_empty());
    }
}

#[test]
fn pipeline_is_deterministic() {
    let model = SocModel::t2();
    let cs = &case_studies()[2];
    let a = run_case_study(&model, cs, CaseStudyConfig::default()).unwrap();
    let b = run_case_study(&model, cs, CaseStudyConfig::default()).unwrap();
    assert_eq!(a.selection, b.selection);
    assert_eq!(a.localization, b.localization);
    assert_eq!(a.captured, b.captured);
    assert_eq!(a.symptom, b.symptom);
}

#[test]
fn each_case_study_debugs_what_its_trace_buffer_holds() {
    // For every case study × packing on/off × depth {unbounded, 4, 8, 16}:
    // the walk's last step is the report's cause set (Figure 6(b)'s last
    // point and Figure 7 read one comparison), and both encode -> decode
    // captures equal the modeled trace buffer over re-simulated runs,
    // checked through the buggy capture itself and through the causes
    // evaluated from both direct captures.
    let model = SocModel::t2();
    let bugs = bug_catalog(&model);
    for cs in case_studies() {
        let scenario = &cs.scenario;
        let causes = scenario_causes(&model, scenario);
        let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(cs.seed));
        let golden = sim.run();
        let buggy = sim.run_with(&mut BugInterceptor::new(&model, cs.bugs(&bugs)));
        for packing in [true, false] {
            for depth in [None, Some(4), Some(8), Some(16)] {
                let config = CaseStudyConfig {
                    buffer_bits: 32,
                    packing,
                    depth,
                };
                let report = run_case_study(&model, &cs, config).expect("case study runs");
                let what = format!("case {} packing {packing} depth {depth:?}", cs.number);
                let plausible = report.causes.plausible();
                let last = report
                    .walk
                    .steps
                    .last()
                    .map_or(report.walk.causes_total, |s| s.causes_remaining);
                assert_eq!(last, plausible.len(), "{what}");

                let buffer = TraceBufferConfig::from_selection(&report.selection, depth);
                let buggy_capture = capture(&model, &buggy, &buffer);
                assert_eq!(report.captured, buggy_capture, "{what}");
                let mut comparison =
                    Comparison::new(scenario, &capture(&model, &golden, &buffer), &buggy_capture);
                if depth.is_some_and(|d| buggy_capture.len() >= d) {
                    comparison.weaken_absence();
                }
                let direct = evaluate_causes(&causes, &distill(&model, scenario, &comparison));
                let ids = |set: Vec<&RootCause>| set.iter().map(|c| c.id).collect::<Vec<_>>();
                assert_eq!(ids(direct.plausible()), ids(plausible), "{what}");
                assert!(report.wire.clean, "{what}");
            }
        }
    }
}
