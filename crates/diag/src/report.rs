//! End-to-end case-study driver: select → simulate → inject → encode →
//! decode → localize → diagnose.
//!
//! This is the pipeline behind the paper's Tables 3, 6 and 7 and Figures
//! 6–7: message selection runs over the scenario's interleaved flow under
//! the 32-bit trace buffer, the buggy execution is captured through the
//! selected messages only — encoded into wire frames and decoded back —
//! and localization plus cause pruning are computed from that decoded
//! trace.

use pstrace_bug::{bug_catalog, detect_symptom, BugInterceptor, CaseStudy, Symptom};
use pstrace_core::{SelectError, SelectionConfig, SelectionReport, Selector, TraceBufferSpec};
use pstrace_obs::{maybe_time, Registry};
use pstrace_soc::wirecap::{self, ProfileV1};
use pstrace_soc::{
    CapturedTrace, SimConfig, SimOutcome, Simulator, SocModel, TraceBufferConfig, UsageScenario,
};

use crate::causes::{evaluate_causes, scenario_causes, CauseReport};
use crate::evidence::{distill, Comparison};
use crate::localize::{localize, Localization, MatchMode};
use crate::walk::{investigate, InvestigationWalk};

/// Knobs of a case-study run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseStudyConfig {
    /// Trace buffer width (paper: 32 bits).
    pub buffer_bits: u32,
    /// Whether Step 3 packing runs.
    pub packing: bool,
    /// Circular trace-buffer depth in entries; `None` models a streaming
    /// trace port that never wraps.
    pub depth: Option<usize>,
}

impl Default for CaseStudyConfig {
    fn default() -> Self {
        CaseStudyConfig {
            buffer_bits: 32,
            packing: true,
            depth: None,
        }
    }
}

/// What the wire round trip of one case study measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireTripSummary {
    /// Total width of one frame (tag + index + time + body) in bits.
    pub frame_bits: u32,
    /// Frames in the golden run's stream.
    pub golden_frames: usize,
    /// Frames in the buggy run's stream.
    pub buggy_frames: usize,
    /// Measured per-frame body occupancy over body width.
    pub measured_utilization: f64,
    /// Whether both streams decoded without damage.
    pub clean: bool,
}

/// Everything a case-study run produced.
#[derive(Debug, Clone)]
pub struct CaseStudyReport {
    /// Which case study ran.
    pub case_number: u8,
    /// Its scenario.
    pub scenario: UsageScenario,
    /// The message selection that configured the trace buffer.
    pub selection: SelectionReport,
    /// The buggy run's captured trace.
    pub captured: CapturedTrace,
    /// The detected symptom (`None` if the bug stayed invisible).
    pub symptom: Option<Symptom>,
    /// Path localization from the captured trace.
    pub localization: Localization,
    /// Cause pruning from the captured trace.
    pub causes: CauseReport,
    /// The backtracking investigation walk.
    pub walk: InvestigationWalk,
    /// Measurements of the wire round trip both captures went through.
    pub wire: WireTripSummary,
}

impl CaseStudyReport {
    /// Fraction of interleaved-flow paths explored (Table 3, columns 7–8).
    #[must_use]
    pub fn path_localization(&self) -> f64 {
        self.localization.fraction()
    }

    /// Fraction of potential root causes pruned (Figure 7).
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        self.causes.pruned_fraction()
    }

    /// Renders the debugging session as the §5.7-style narrative: traced
    /// messages, symptom, localization, investigation and surviving
    /// causes.
    #[must_use]
    pub fn render(&self, model: &SocModel) -> String {
        use std::fmt::Write as _;
        let catalog = model.catalog();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "case study {} ({})",
            self.case_number,
            self.scenario.name()
        );
        let traced: Vec<&str> = self
            .selection
            .chosen
            .messages
            .iter()
            .map(|&m| catalog.name(m))
            .collect();
        let _ = writeln!(out, "  traced messages : {}", traced.join(", "));
        let packed: Vec<String> = self
            .selection
            .packed_groups
            .iter()
            .map(|&g| catalog.group_qualified_name(g))
            .collect();
        if !packed.is_empty() {
            let _ = writeln!(out, "  packed subgroups: {}", packed.join(", "));
        }
        let _ = writeln!(
            out,
            "  buffer          : {:.2}% utilized, {:.2}% flow-spec coverage",
            self.selection.utilization() * 100.0,
            self.selection.coverage() * 100.0
        );
        let w = &self.wire;
        let _ = writeln!(
            out,
            "  wire round trip : {} + {} frames of {} bits, {:.2}% measured, {}",
            w.golden_frames,
            w.buggy_frames,
            w.frame_bits,
            w.measured_utilization * 100.0,
            if w.clean { "clean" } else { "DAMAGED" }
        );
        match &self.symptom {
            Some(s) => {
                let _ = writeln!(out, "  symptom         : {s}");
            }
            None => {
                let _ = writeln!(out, "  symptom         : none observed");
            }
        }
        let _ = writeln!(out, "  localization    : {}", self.localization);
        let _ = writeln!(
            out,
            "  investigation   : {} messages over {} of {} legal IP pairs",
            self.walk.messages_investigated(),
            self.walk.pairs_investigated.len(),
            self.walk.legal_pairs.len()
        );
        let _ = writeln!(
            out,
            "  root causes     : {} of {} pruned ({:.2}%)",
            self.causes.pruned_count(),
            self.causes.entries.len(),
            self.pruned_fraction() * 100.0
        );
        for cause in self.causes.plausible() {
            let _ = writeln!(out, "    plausible -> [{}] {}", cause.ip, cause.description);
            let _ = writeln!(out, "                 implication: {}", cause.implication);
        }
        out
    }
}

/// Runs one case study end to end with its built-in seed.
///
/// # Errors
///
/// Propagates [`SelectError`] from message selection.
pub fn run_case_study(
    model: &SocModel,
    case: &CaseStudy,
    config: CaseStudyConfig,
) -> Result<CaseStudyReport, SelectError> {
    run_case_study_with_seed(model, case, config, case.seed)
}

/// Runs one case study end to end with an explicit simulation seed
/// (multi-seed campaigns re-run the same bug under different arbitration
/// and latency draws).
///
/// # Errors
///
/// Propagates [`SelectError`] from message selection.
pub fn run_case_study_with_seed(
    model: &SocModel,
    case: &CaseStudy,
    config: CaseStudyConfig,
    seed: u64,
) -> Result<CaseStudyReport, SelectError> {
    run_case_study_observed(model, case, config, seed, None)
}

/// [`run_case_study_with_seed`] with optional instrumentation: with a
/// registry, every pipeline phase (`interleave`, the selection phases,
/// `simulate-golden`, `simulate-buggy`, `capture`, `localize`, `causes`,
/// `investigate`) is timed as a span. The report is identical with and
/// without a registry.
///
/// # Errors
///
/// Propagates [`SelectError`] from message selection.
pub fn run_case_study_observed(
    model: &SocModel,
    case: &CaseStudy,
    config: CaseStudyConfig,
    seed: u64,
    obs: Option<&Registry>,
) -> Result<CaseStudyReport, SelectError> {
    run_case_study_routed(model, model, case, config, seed, obs)
}

/// [`run_case_study_observed`] with the *analysis* model decoupled from
/// the *capture* model.
///
/// The capture side (simulation, bug injection, the wire-trip capture,
/// cause evidence) always runs on `model` — silicon does not care
/// what spec the debugger holds. The analysis side (scenario
/// interleaving, hence message selection and path localization) runs on
/// `analysis`, which may substitute mined flow specifications via
/// [`SocModel::with_flow`]. With `analysis = model` this is exactly
/// [`run_case_study_observed`]; with a structurally equivalent mined
/// model the report is byte-identical — the acceptance gate for inferred
/// flows.
///
/// Both models must share one message catalog (enforced by `with_flow`).
///
/// # Errors
///
/// Propagates [`SelectError`] from message selection.
pub fn run_case_study_routed(
    model: &SocModel,
    analysis: &SocModel,
    case: &CaseStudy,
    config: CaseStudyConfig,
    seed: u64,
    obs: Option<&Registry>,
) -> Result<CaseStudyReport, SelectError> {
    let scenario = case.scenario.clone();
    let interleaving = maybe_time(obs, "interleave", || {
        scenario
            .interleaving(analysis)
            .expect("paper scenarios always interleave")
    });

    // Select messages for the trace buffer.
    let buffer = TraceBufferSpec::new(config.buffer_bits)?;
    let mut sel_config = SelectionConfig::new(buffer);
    sel_config.packing = config.packing;
    let selection = Selector::new(&interleaving, sel_config).select_observed(obs)?;

    // Golden and buggy runs under identical randomness.
    let sim = Simulator::new(model, scenario.clone(), SimConfig::with_seed(seed));
    let golden = maybe_time(obs, "simulate-golden", || sim.run());
    let catalog = bug_catalog(model);
    let mut interceptor = BugInterceptor::new(model, case.bugs(&catalog));
    let buggy = maybe_time(obs, "simulate-buggy", || sim.run_with(&mut interceptor));
    let symptom = detect_symptom(&golden, &buggy);

    // The trace buffer sees only the selected messages/subgroups, and
    // every capture goes through the wire codec: the events are encoded
    // into v1 frames, decoded back, and debugged from the decoded stream.
    let trace_config = TraceBufferConfig::from_selection(&selection, config.depth);
    let (golden_capture, buggy_capture, wire) = maybe_time(obs, "capture", || {
        let schema = wirecap::wire_schema(model, &trace_config, config.buffer_bits)
            .expect("a selection-derived schema fits its own buffer");
        let trip = |events: &SimOutcome| {
            let stream = wirecap::encode_events(
                model.catalog(),
                &schema,
                &events.events,
                &trace_config,
                &ProfileV1,
            )
            .expect("simulated records fit the schema's field widths");
            let (trace, report) =
                wirecap::decode_capture(&schema, &stream.bytes, Some(stream.bit_len), &ProfileV1);
            (trace, stream.frames, report)
        };
        let (golden_trace, golden_frames, golden_report) = trip(&golden);
        let (buggy_trace, buggy_frames, buggy_report) = trip(&buggy);
        let wire = WireTripSummary {
            frame_bits: schema.frame_bits(),
            golden_frames,
            buggy_frames,
            measured_utilization: golden_report.utilization(),
            clean: golden_report.is_clean() && buggy_report.is_clean(),
        };
        (golden_trace, buggy_trace, wire)
    });

    // Path localization mode: a complete capture of a complete run is
    // matched exactly; a hung run only constrains a prefix; a wrapped
    // circular buffer only preserves a suffix (or an unanchored window if
    // the run also hung).
    let wrapped = config.depth.is_some_and(|d| buggy_capture.len() >= d);
    let mode = match (buggy.status.is_completed(), wrapped) {
        (true, false) => MatchMode::Exact,
        (false, false) => MatchMode::Prefix,
        (true, true) => MatchMode::Suffix,
        (false, true) => MatchMode::Substring,
    };
    let observed = buggy_capture.message_sequence();
    let localization = maybe_time(obs, "localize", || {
        localize(
            &interleaving,
            &observed,
            &selection.effective_messages,
            mode,
        )
    });

    // Cause pruning and the investigation walk read one comparison. A
    // wrapped buggy buffer cannot testify about absence (the evicted
    // window might have held the message), so absence is weakened there
    // to keep pruning sound.
    let (causes, comparison, cause_report) = maybe_time(obs, "causes", || {
        let causes = scenario_causes(model, &scenario);
        let mut comparison = Comparison::new(&scenario, &golden_capture, &buggy_capture);
        if wrapped {
            comparison.weaken_absence();
        }
        let evidence = distill(model, &scenario, &comparison);
        let cause_report = evaluate_causes(&causes, &evidence);
        (causes, comparison, cause_report)
    });
    let walk = maybe_time(obs, "investigate", || {
        investigate(model, &scenario, &comparison, &causes)
    });

    Ok(CaseStudyReport {
        case_number: case.number,
        scenario,
        selection,
        captured: buggy_capture,
        symptom,
        localization,
        causes: cause_report,
        walk,
        wire,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_bug::case_studies;

    #[test]
    fn all_five_case_studies_run_end_to_end() {
        let model = SocModel::t2();
        for cs in case_studies() {
            let report = run_case_study(&model, &cs, CaseStudyConfig::default()).unwrap();
            assert_eq!(report.case_number, cs.number);
            assert!(report.symptom.is_some(), "case {} symptomless", cs.number);
            assert!(
                report.selection.utilization() > 0.9,
                "case {}: utilization {:.2}",
                cs.number,
                report.selection.utilization()
            );
            assert!(
                report.path_localization() < 0.5,
                "case {}: localization {:.3}",
                cs.number,
                report.path_localization()
            );
            assert!(report.localization.total > 0);
            assert!(report.wire.clean, "case {}: wire stream damaged", cs.number);
            assert!(
                (report.wire.measured_utilization - report.selection.utilization()).abs() < 1e-12,
                "case {}: measured {} vs modeled {}",
                cs.number,
                report.wire.measured_utilization,
                report.selection.utilization()
            );
        }
    }

    #[test]
    fn observed_case_study_is_identical_and_covers_the_pipeline_phases() {
        let model = SocModel::t2();
        let cs = &case_studies()[0];
        let config = CaseStudyConfig::default();
        let plain = run_case_study(&model, cs, config).unwrap();
        let obs = pstrace_obs::Registry::with_clock(Box::new(pstrace_obs::ManualClock::new()));
        let observed = run_case_study_observed(&model, cs, config, cs.seed, Some(&obs)).unwrap();
        assert_eq!(plain.captured, observed.captured);
        assert_eq!(plain.localization, observed.localization);
        assert_eq!(plain.symptom, observed.symptom);
        assert_eq!(plain.wire, observed.wire);
        let phases: Vec<String> = obs.spans().iter().map(|s| s.name.clone()).collect();
        for phase in [
            "interleave",
            "mi-cache",
            "rank",
            "simulate-golden",
            "simulate-buggy",
            "capture",
            "localize",
            "causes",
            "investigate",
        ] {
            assert!(
                phases.iter().any(|p| p == phase),
                "missing phase {phase} in {phases:?}"
            );
        }
    }

    #[test]
    fn packing_never_hurts_localization_or_pruning() {
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
            .unwrap();
            let without = run_case_study(
                &model,
                &cs,
                CaseStudyConfig {
                    buffer_bits: 32,
                    packing: false,
                    depth: None,
                },
            )
            .unwrap();
            assert!(
                with.path_localization() <= without.path_localization() + 1e-12,
                "case {}: packing worsened localization",
                cs.number
            );
            assert!(
                with.selection.utilization() >= without.selection.utilization(),
                "case {}",
                cs.number
            );
            assert!(
                with.pruned_fraction() + 1e-12 >= without.pruned_fraction(),
                "case {}: packing worsened pruning",
                cs.number
            );
        }
    }

    #[test]
    fn render_contains_the_whole_story() {
        let model = SocModel::t2();
        let cs = &case_studies()[0];
        let report = run_case_study(&model, cs, CaseStudyConfig::default()).unwrap();
        let text = report.render(&model);
        assert!(text.contains("case study 1"));
        assert!(text.contains("traced messages"));
        assert!(text.contains("HANG"));
        assert!(text.contains("plausible ->"));
        assert!(text.contains("root causes"));
        assert!(text.contains("wire round trip"));
    }

    #[test]
    fn wrapped_buffer_still_localizes() {
        // A shallow circular buffer keeps only the newest records; suffix
        // (or substring) matching still yields a sound, if weaker,
        // localization.
        let model = SocModel::t2();
        for cs in case_studies() {
            let full = run_case_study(&model, &cs, CaseStudyConfig::default()).unwrap();
            let wrapped = run_case_study(
                &model,
                &cs,
                CaseStudyConfig {
                    buffer_bits: 32,
                    packing: true,
                    depth: Some(3),
                },
            )
            .unwrap();
            assert!(wrapped.captured.len() <= 3, "case {}", cs.number);
            // The true execution still matches, so at least one path is
            // consistent whenever the full capture had one.
            if full.localization.consistent >= 1 {
                assert!(wrapped.localization.consistent >= 1, "case {}", cs.number);
            }
            // Less observation can only weaken localization.
            assert!(
                wrapped.localization.consistent >= full.localization.consistent,
                "case {}",
                cs.number
            );
        }
    }

    #[test]
    fn localization_consistent_count_is_positive_for_badtrap_cases() {
        // Completed buggy runs took a real path of the interleaving, so at
        // least that path is consistent with the observation.
        let model = SocModel::t2();
        for cs in case_studies() {
            let report = run_case_study(&model, &cs, CaseStudyConfig::default()).unwrap();
            if matches!(report.symptom, Some(Symptom::BadTrap { .. })) {
                assert!(report.localization.consistent >= 1, "case {}", cs.number);
            }
        }
    }
}
