//! Profiling smoke tests: under the deterministic [`ManualClock`] every
//! span lasts exactly one tick, so the `--profile` phase table is a
//! byte-for-byte golden, and the Chrome trace-event export is valid JSON
//! carrying the pipeline's phase names.

use pstrace::bug::case_studies;
use pstrace::diag::{run_case_study_observed, CaseStudyConfig};
use pstrace::obs::{
    phase_summaries, render_chrome_trace, render_profile_table, validate_json, JsonValue,
    ManualClock, Registry, MANUAL_TICK_NS,
};
use pstrace::select::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace::soc::{SocModel, UsageScenario};

fn manual_registry() -> Registry {
    Registry::with_clock(Box::new(ManualClock::new()))
}

#[test]
fn selection_profile_table_is_golden_under_the_manual_clock() {
    let model = SocModel::t2();
    let product = UsageScenario::scenario1().interleaving(&model).unwrap();
    let config = SelectionConfig::new(TraceBufferSpec::new(32).unwrap());
    let registry = manual_registry();
    Selector::new(&product, config)
        .select_observed(Some(&registry))
        .unwrap();

    // No span nests another, so every phase is exactly one tick.
    let expected = "\
phase      calls         total          mean       %
--------  ------  ------------  ------------  ------
mi-cache       1       1.000ms       1.000ms   25.0%
rank           1       1.000ms       1.000ms   25.0%
pack           1       1.000ms       1.000ms   25.0%
coverage       1       1.000ms       1.000ms   25.0%
total          4       4.000ms
";
    assert_eq!(render_profile_table(&registry), expected);
}

#[test]
fn case_study_chrome_trace_validates_and_names_every_phase() {
    let model = SocModel::t2();
    let case = case_studies().into_iter().find(|c| c.number == 1).unwrap();
    let registry = manual_registry();
    run_case_study_observed(
        &model,
        &case,
        CaseStudyConfig::default(),
        case.seed,
        Some(&registry),
    )
    .unwrap();

    // Every recorded span measured a whole number of manual ticks.
    for summary in phase_summaries(&registry.spans()) {
        assert!(
            summary.total_ns % MANUAL_TICK_NS == 0 && summary.total_ns > 0,
            "phase {} measured {}ns, not whole ticks",
            summary.name,
            summary.total_ns
        );
    }

    let json = render_chrome_trace(&registry);
    let value = validate_json(&json).expect("chrome trace export is valid JSON");
    let events = value
        .get("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("traceEvents is an array");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    for phase in [
        "interleave",
        "mi-cache",
        "rank",
        "pack",
        "coverage",
        "simulate-golden",
        "simulate-buggy",
        "capture",
        "localize",
        "causes",
        "investigate",
    ] {
        assert!(names.contains(&phase), "missing {phase} in {names:?}");
    }
    for event in events {
        assert_eq!(
            event.get("ph").and_then(JsonValue::as_str),
            Some("X"),
            "complete events only"
        );
    }
}
