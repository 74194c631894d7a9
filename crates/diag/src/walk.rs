//! The backtracking investigation walk (§5.6, Figure 6).
//!
//! Debugging starts at the traced message where the bug symptom is
//! observed and backtracks through earlier traced messages. Every
//! investigated message adds evidence: healthy observations exonerate
//! their `⟨source IP, destination IP⟩` link and prune predicted causes;
//! corrupt or missing observations incriminate theirs. The walk records,
//! per investigated message, how many candidate legal IP pairs and
//! candidate root causes remain — the two series plotted in Figure 6.

use std::collections::HashMap;

use pstrace_flow::FlowIndex;
use pstrace_soc::{CapturedTrace, IpPair, SocModel, UsageScenario};

use crate::causes::{evaluate_causes, CauseReport, RootCause};
use crate::evidence::{index_to_kind, infer_flow_order, worst, Evidence, Verdict, Witness};

/// One step of the investigation walk.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkStep {
    /// 1-based step number.
    pub step: usize,
    /// The witness examined at this step.
    pub witness: Witness,
    /// The verdict this step contributed.
    pub verdict: Verdict,
    /// The IP pair of the investigated message.
    pub pair: Option<IpPair>,
    /// Candidate legal IP pairs still under suspicion after this step.
    pub pairs_remaining: usize,
    /// Root causes still plausible after this step.
    pub causes_remaining: usize,
}

/// The complete investigation of one buggy run.
#[derive(Debug, Clone)]
pub struct InvestigationWalk {
    /// Per-message investigation steps, in investigation order.
    pub steps: Vec<WalkStep>,
    /// All legal IP pairs of the scenario (§5.6's denominator).
    pub legal_pairs: Vec<IpPair>,
    /// Distinct pairs actually touched by investigated messages.
    pub pairs_investigated: Vec<IpPair>,
    /// Cause evaluation after all evidence is in.
    pub final_causes: CauseReport,
}

impl InvestigationWalk {
    /// Number of traced messages investigated (Table 6, column 5).
    #[must_use]
    pub fn messages_investigated(&self) -> usize {
        self.steps.len()
    }

    /// The Figure 6(a) series: cumulative eliminated IP pairs per step.
    #[must_use]
    pub fn pair_elimination_series(&self) -> Vec<(usize, usize)> {
        let total = self.legal_pairs.len();
        self.steps
            .iter()
            .map(|s| (s.step, total - s.pairs_remaining))
            .collect()
    }

    /// The Figure 6(b) series: cumulative eliminated root causes per step.
    #[must_use]
    pub fn cause_elimination_series(&self) -> Vec<(usize, usize)> {
        let total = self.final_causes.entries.len();
        self.steps
            .iter()
            .map(|s| (s.step, total - s.causes_remaining))
            .collect()
    }
}

/// Runs the backtracking investigation over a golden/buggy capture pair.
///
/// The walk starts at the symptom — the last deviating record, or the end
/// of the trace for hangs — proceeds backwards through the captured
/// records, and finally checks the expected-but-absent messages (the
/// paper's "absence of trace message X implies…" reasoning, §5.7).
#[must_use]
pub fn investigate(
    model: &SocModel,
    scenario: &UsageScenario,
    golden: &CapturedTrace,
    buggy: &CapturedTrace,
    causes: &[RootCause],
) -> InvestigationWalk {
    let kinds = index_to_kind(scenario);
    let legal_pairs = model.legal_ip_pairs(&scenario.messages(model));

    // Organize golden records per (witness, instance) value sequences.
    let mut golden_vals: HashMap<(Witness, FlowIndex), Vec<u64>> = HashMap::new();
    for r in golden.records() {
        if let Some(&kind) = kinds.get(&r.message.index) {
            golden_vals
                .entry((Witness::new(kind, r.message.message), r.message.index))
                .or_default()
                .push(r.value);
        }
    }

    // Per-record verdicts for the buggy capture, in capture order.
    let mut buggy_pos: HashMap<(Witness, FlowIndex), usize> = HashMap::new();
    let mut record_verdicts: Vec<(Witness, Verdict)> = Vec::new();
    let mut buggy_counts: HashMap<(Witness, FlowIndex), usize> = HashMap::new();
    for r in buggy.records() {
        let Some(&kind) = kinds.get(&r.message.index) else {
            continue;
        };
        let w = Witness::new(kind, r.message.message);
        let key = (w, r.message.index);
        let pos = {
            let p = buggy_pos.entry(key).or_insert(0);
            let pos = *p;
            *p += 1;
            pos
        };
        *buggy_counts.entry(key).or_insert(0) += 1;
        let verdict = match golden_vals.get(&key).and_then(|v| v.get(pos)) {
            Some(&expected) if expected == r.value => Verdict::Healthy,
            Some(_) => Verdict::Corrupt,
            // More occurrences than golden: treat as corrupt behaviour.
            None => Verdict::Corrupt,
        };
        record_verdicts.push((w, verdict));
    }

    // Investigation order: backwards from the symptom (last deviating
    // record, else the last record), then absence checks for every
    // expected-but-missing (witness, instance).
    let symptom_at = record_verdicts
        .iter()
        .rposition(|(_, v)| *v != Verdict::Healthy)
        .unwrap_or(record_verdicts.len().saturating_sub(1));
    let mut order: Vec<(Witness, Verdict)> = Vec::new();
    if !record_verdicts.is_empty() {
        for i in (0..=symptom_at).rev() {
            order.push(record_verdicts[i]);
        }
        for item in record_verdicts.iter().skip(symptom_at + 1) {
            order.push(*item);
        }
    }
    let mut absent: Vec<(Witness, FlowIndex)> = golden_vals
        .iter()
        .filter(|(key, vals)| buggy_counts.get(key).copied().unwrap_or(0) < vals.len())
        .map(|(key, _)| *key)
        .collect();
    absent.sort_by_key(|(w, idx)| (idx.0, w.message));
    for (w, _) in absent {
        order.push((w, Verdict::Absent));
    }

    // Replay the order, accumulating evidence and recomputing candidates.
    // Flow-order inference runs on a scratch copy at every step so that
    // inferred verdicts never mask later direct observations.
    let mut evidence = Evidence::default();
    let mut steps = Vec::new();
    let mut pairs_suspect: Vec<IpPair> = legal_pairs.clone();
    let mut pairs_investigated: Vec<IpPair> = Vec::new();
    for (i, (witness, verdict)) in order.iter().enumerate() {
        let merged = worst(evidence.verdict(*witness), *verdict);
        evidence.set(*witness, merged);
        let pair = model.endpoints(witness.message);
        if let Some(p) = pair {
            if !pairs_investigated.contains(&p) {
                pairs_investigated.push(p);
            }
            // A healthy observation exonerates its link.
            if merged == Verdict::Healthy {
                pairs_suspect.retain(|&q| q != p);
            }
        }
        let mut inferred = evidence.clone();
        infer_flow_order(model, scenario, &mut inferred);
        let report = evaluate_causes(causes, &inferred);
        steps.push(WalkStep {
            step: i + 1,
            witness: *witness,
            verdict: *verdict,
            pair,
            pairs_remaining: pairs_suspect.len(),
            causes_remaining: report.plausible().len(),
        });
    }

    let mut inferred = evidence.clone();
    infer_flow_order(model, scenario, &mut inferred);
    let final_causes = evaluate_causes(causes, &inferred);
    InvestigationWalk {
        steps,
        legal_pairs,
        pairs_investigated,
        final_causes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causes::scenario_causes;
    use pstrace_bug::{bug_catalog, case_studies, BugInterceptor};
    use pstrace_soc::{capture, SimConfig, Simulator, SocModel, TraceBufferConfig};

    fn walk_for_case(number: usize) -> (SocModel, InvestigationWalk) {
        let model = SocModel::t2();
        let bugs = bug_catalog(&model);
        let cs = &case_studies()[number - 1];
        let scenario = cs.scenario.clone();
        let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(cs.seed));
        let golden = sim.run();
        let buggy = sim.run_with(&mut BugInterceptor::new(&model, cs.bugs(&bugs)));
        let cfg = TraceBufferConfig::messages_only(&scenario.messages(&model));
        let g = capture(&model, &golden, &cfg);
        let b = capture(&model, &buggy, &cfg);
        let causes = scenario_causes(&model, &scenario);
        let walk = investigate(&model, &scenario, &g, &b, &causes);
        (model, walk)
    }

    #[test]
    fn eliminations_are_monotone_nondecreasing() {
        for case in 1..=5 {
            let (_, walk) = walk_for_case(case);
            assert!(!walk.steps.is_empty(), "case {case}");
            let pairs = walk.pair_elimination_series();
            let causes = walk.cause_elimination_series();
            for w in pairs.windows(2) {
                assert!(w[0].1 <= w[1].1, "case {case}: pair eliminations regress");
            }
            for w in causes.windows(2) {
                assert!(w[0].1 <= w[1].1, "case {case}: cause eliminations regress");
            }
        }
    }

    #[test]
    fn every_step_contributes_to_the_debug_process() {
        // Figure 6's headline: with more traced messages, more candidates
        // are progressively eliminated — by the end a strict majority of
        // pairs and causes is gone (full observability here).
        for case in 1..=5 {
            let (_, walk) = walk_for_case(case);
            let last = walk.steps.last().unwrap();
            assert!(
                last.causes_remaining * 2 <= walk.final_causes.entries.len(),
                "case {case}: too many causes remain"
            );
            assert!(
                last.pairs_remaining < walk.legal_pairs.len(),
                "case {case}: no pair eliminated"
            );
        }
    }

    #[test]
    fn investigated_pairs_are_a_subset_of_legal_pairs() {
        for case in 1..=5 {
            let (_, walk) = walk_for_case(case);
            for p in &walk.pairs_investigated {
                assert!(walk.legal_pairs.contains(p), "case {case}");
            }
            assert!(!walk.pairs_investigated.is_empty());
        }
    }

    #[test]
    fn hang_case_investigates_absent_messages() {
        // Case study 1 drops reqtot: the walk must include Absent steps
        // for the never-seen Mondo messages.
        let (_, walk) = walk_for_case(1);
        assert!(
            walk.steps.iter().any(|s| s.verdict == Verdict::Absent),
            "absence reasoning missing"
        );
    }

    #[test]
    fn final_walk_causes_match_batch_evaluation() {
        // The incremental walk must converge to the same cause set as the
        // one-shot distillation of evidence.rs.
        let model = SocModel::t2();
        let bugs = bug_catalog(&model);
        let cs = &case_studies()[1];
        let scenario = cs.scenario.clone();
        let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(cs.seed));
        let golden = sim.run();
        let buggy = sim.run_with(&mut BugInterceptor::new(&model, cs.bugs(&bugs)));
        let cfg = TraceBufferConfig::messages_only(&scenario.messages(&model));
        let g = capture(&model, &golden, &cfg);
        let b = capture(&model, &buggy, &cfg);
        let causes = scenario_causes(&model, &scenario);
        let walk = investigate(&model, &scenario, &g, &b, &causes);
        let batch = crate::evidence::distill(&model, &scenario, &g, &b);
        let batch_report = evaluate_causes(&causes, &batch);
        assert_eq!(
            walk.final_causes.plausible().len(),
            batch_report.plausible().len()
        );
    }
}
