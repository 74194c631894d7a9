//! Trace evidence: what the captured trace says about each witness
//! message.
//!
//! Debugging (§5.7) reasons from the captured trace in three ways: a
//! traced message observed with its expected payload *exonerates* the
//! logic that produced it; a traced message with a wrong payload
//! *incriminates* it; and the *absence* of a traced message that the flow
//! specification says should have appeared incriminates its producer.
//! Untraced messages say nothing. This module distills a golden/buggy
//! capture pair into exactly those verdicts.

use std::collections::HashMap;

use pstrace_flow::{FlowIndex, IndexedMessage, MessageId};
use pstrace_soc::{CapturedTrace, FlowKind, SocModel, UsageScenario};

/// What the trace says about one `(flow, message)` witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Observed with the expected payload everywhere — the producing logic
    /// demonstrably worked. Also inferred for untraced messages when a
    /// *later* message of the same flow instance was observed healthy:
    /// corruption propagates downstream, so a healthy tail exonerates the
    /// hops before it (the paper's "NCU got back correct credit ID" step).
    Healthy,
    /// Observed, but at least one payload deviates from golden.
    Corrupt,
    /// Expected (the golden run captured it) but missing from the buggy
    /// capture. Also inferred for untraced messages when an *earlier*
    /// message of the same flow instance is absent: a flow cannot skip
    /// ahead, so nothing after a missing hop ever happened.
    Absent,
    /// Known to have occurred (a later message of the instance was
    /// captured) but with unknown integrity — a corrupt tail does not say
    /// which upstream hop corrupted it. Also the verdict of a captured
    /// record that has no golden value to compare with.
    Occurred,
    /// Not traced and nothing could be inferred.
    Unobserved,
}

/// A witness: a message as emitted by instances of one flow kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Witness {
    /// The flow the message belongs to.
    pub flow: FlowKind,
    /// The message.
    pub message: MessageId,
}

impl Witness {
    /// Creates a witness.
    #[must_use]
    pub fn new(flow: FlowKind, message: MessageId) -> Self {
        Witness { flow, message }
    }
}

/// The distilled evidence for a scenario run: a verdict per witness.
#[derive(Debug, Clone, Default)]
pub struct Evidence {
    verdicts: HashMap<Witness, Verdict>,
}

impl Evidence {
    /// The verdict for `witness` ([`Verdict::Unobserved`] if unknown).
    #[must_use]
    pub fn verdict(&self, witness: Witness) -> Verdict {
        self.verdicts
            .get(&witness)
            .copied()
            .unwrap_or(Verdict::Unobserved)
    }

    /// Iterates over all `(witness, verdict)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Witness, Verdict)> + '_ {
        self.verdicts.iter().map(|(w, v)| (*w, *v))
    }

    /// Overrides one verdict (used by flow-order inference).
    pub fn set(&mut self, witness: Witness, verdict: Verdict) {
        self.verdicts.insert(witness, verdict);
    }

    /// Folds one observation of `witness` in: the worse of its current
    /// verdict and `verdict` wins (see [`worst`]). Returns the merged
    /// verdict.
    pub(crate) fn observe(&mut self, witness: Witness, verdict: Verdict) -> Verdict {
        let merged = worst(self.verdict(witness), verdict);
        if merged != Verdict::Unobserved {
            self.verdicts.insert(witness, merged);
        }
        merged
    }

    /// Number of witnesses with a non-[`Verdict::Unobserved`] verdict.
    #[must_use]
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// Whether no verdicts are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }
}

/// Maps each flow-instance index of `scenario` to its flow kind.
#[must_use]
pub fn index_to_kind(scenario: &UsageScenario) -> HashMap<FlowIndex, FlowKind> {
    let mut map = HashMap::new();
    let mut next = 1u32;
    for &(kind, count) in scenario.flows() {
        for _ in 0..count {
            map.insert(FlowIndex(next), kind);
            next += 1;
        }
    }
    map
}

/// Fills in verdicts for untraced witnesses by flow-order inference:
///
/// * anything after an [`Verdict::Absent`] hop of the same flow is absent
///   too (flows cannot skip ahead);
/// * anything before a directly-observed [`Verdict::Healthy`] hop is
///   healthy (corruption propagates downstream, so a clean tail exonerates
///   the head);
/// * anything before any directly-observed hop at least [`Verdict::Occurred`].
///
/// Inference never overrides a direct verdict, and it only applies to
/// *linear* flows: on a branching flow an untraced message may simply lie
/// on the path not taken, so neither absence cascades nor healthy-tail
/// exoneration are sound there.
pub fn infer_flow_order(model: &SocModel, scenario: &UsageScenario, evidence: &mut Evidence) {
    let kinds: Vec<FlowKind> = scenario.flows().iter().map(|&(k, _)| k).collect();
    for kind in kinds {
        if !model.flow(kind).is_linear() {
            continue;
        }
        let order = model.flow(kind).messages().to_vec();
        let direct: Vec<Verdict> = order
            .iter()
            .map(|&m| evidence.verdict(Witness::new(kind, m)))
            .collect();
        let mut absent_cascade = false;
        for (i, &m) in order.iter().enumerate() {
            if direct[i] == Verdict::Absent {
                absent_cascade = true;
                continue;
            }
            if direct[i] != Verdict::Unobserved {
                continue;
            }
            let w = Witness::new(kind, m);
            if absent_cascade {
                evidence.set(w, Verdict::Absent);
                continue;
            }
            let later = &direct[i + 1..];
            if later.contains(&Verdict::Healthy) {
                evidence.set(w, Verdict::Healthy);
            } else if later
                .iter()
                .any(|&v| v == Verdict::Corrupt || v == Verdict::Occurred)
            {
                evidence.set(w, Verdict::Occurred);
            }
        }
    }
}

/// The one golden-vs-buggy comparison: what each buggy record, and each
/// missing one, says. [`distill`] folds it into per-witness verdicts and
/// [`investigate`](crate::investigate) replays it step by step, so the
/// cause report and the investigation walk read the same verdicts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Comparison {
    /// One verdict per buggy record of a scenario flow, in capture order:
    /// [`Verdict::Healthy`] when the record equals the golden value at the
    /// same position of its `(witness, instance)`, [`Verdict::Corrupt`]
    /// when it differs, and [`Verdict::Occurred`] past the golden count.
    /// A record with no golden counterpart only shows that the hop
    /// happened: the golden capture may have wrapped and evicted the
    /// value, and calling it corrupt would prune causes that predict the
    /// hop healthy.
    pub records: Vec<(Witness, Verdict)>,
    /// One [`Verdict::Absent`] per `(witness, instance)` with fewer buggy
    /// than golden records, ordered by (instance, message);
    /// [`Verdict::Unobserved`] once [`weaken_absence`](Self::weaken_absence)
    /// ran.
    pub missing: Vec<(Witness, Verdict)>,
}

impl Comparison {
    /// Compares a golden/buggy capture pair taken with the same
    /// trace-buffer configuration and seed. Records of flow instances the
    /// scenario does not declare are ignored.
    #[must_use]
    pub fn new(scenario: &UsageScenario, golden: &CapturedTrace, buggy: &CapturedTrace) -> Self {
        let kinds = index_to_kind(scenario);
        let key = |m: IndexedMessage| {
            let &kind = kinds.get(&m.index)?;
            Some((Witness::new(kind, m.message), m.index))
        };
        let mut golden_vals: HashMap<(Witness, FlowIndex), Vec<u64>> = HashMap::new();
        for r in golden.records() {
            if let Some(k) = key(r.message) {
                golden_vals.entry(k).or_default().push(r.value);
            }
        }
        let mut buggy_counts: HashMap<(Witness, FlowIndex), usize> = HashMap::new();
        let mut records = Vec::new();
        for r in buggy.records() {
            let Some(k) = key(r.message) else {
                continue;
            };
            let pos = buggy_counts.entry(k).or_insert(0);
            let expected = golden_vals.get(&k).and_then(|vals| vals.get(*pos));
            *pos += 1;
            let verdict = match expected {
                Some(&value) if value == r.value => Verdict::Healthy,
                Some(_) => Verdict::Corrupt,
                None => Verdict::Occurred,
            };
            records.push((k.0, verdict));
        }
        let mut missing: Vec<(Witness, FlowIndex)> = golden_vals
            .iter()
            .filter(|(k, vals)| buggy_counts.get(k).copied().unwrap_or(0) < vals.len())
            .map(|(k, _)| *k)
            .collect();
        missing.sort_by_key(|(w, idx)| (idx.0, w.message));
        Comparison {
            records,
            missing: missing
                .into_iter()
                .map(|(w, _)| (w, Verdict::Absent))
                .collect(),
        }
    }

    /// Downgrades every absence to [`Verdict::Unobserved`]. Call it when
    /// the *buggy* capture wrapped its circular buffer: a message missing
    /// from the surviving window may simply have been overwritten, so only
    /// positive evidence (healthy / corrupt records) may drive pruning. A
    /// golden-only wrap needs nothing: it can only undercount golden
    /// occurrences, so every absence it leaves is still a real one.
    pub fn weaken_absence(&mut self) {
        for (_, v) in &mut self.missing {
            *v = Verdict::Unobserved;
        }
    }
}

/// Folds a [`Comparison`] into one verdict per witness — the worst over
/// all its records and absences (Absent > Corrupt > Occurred > Healthy),
/// merged across instances of the same flow kind — then applies
/// [`infer_flow_order`]. Witnesses the comparison never mentions get
/// their verdict by flow-order inference or stay [`Verdict::Unobserved`].
#[must_use]
pub fn distill(model: &SocModel, scenario: &UsageScenario, comparison: &Comparison) -> Evidence {
    let mut evidence = Evidence::default();
    for &(witness, verdict) in comparison.records.iter().chain(&comparison.missing) {
        evidence.observe(witness, verdict);
    }
    infer_flow_order(model, scenario, &mut evidence);
    evidence
}

/// The worse of two verdicts: Absent > Corrupt > Occurred > Healthy >
/// Unobserved.
pub(crate) fn worst(a: Verdict, b: Verdict) -> Verdict {
    use Verdict::{Absent, Corrupt, Healthy, Occurred, Unobserved};
    match (a, b) {
        (Absent, _) | (_, Absent) => Absent,
        (Corrupt, _) | (_, Corrupt) => Corrupt,
        (Occurred, _) | (_, Occurred) => Occurred,
        (Healthy, _) | (_, Healthy) => Healthy,
        (Unobserved, Unobserved) => Unobserved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causes::{evaluate_causes, scenario_causes};
    use pstrace_bug::{bug_catalog, case_studies, BugInterceptor};
    use pstrace_soc::{capture, SimConfig, Simulator, TraceBufferConfig};

    fn full_selection(model: &SocModel, scenario: &UsageScenario) -> TraceBufferConfig {
        TraceBufferConfig::messages_only(&scenario.messages(model))
    }

    #[test]
    fn golden_vs_golden_is_all_healthy() {
        let model = SocModel::t2();
        let scenario = UsageScenario::scenario1();
        let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(2));
        let out = sim.run();
        let cfg = full_selection(&model, &scenario);
        let trace = capture(&model, &out, &cfg);
        let ev = distill(
            &model,
            &scenario,
            &Comparison::new(&scenario, &trace, &trace),
        );
        assert!(!ev.is_empty());
        for (_, v) in ev.iter() {
            assert_eq!(v, Verdict::Healthy);
        }
    }

    #[test]
    fn dropped_interrupt_shows_absent_mondo_chain() {
        let model = SocModel::t2();
        let scenario = UsageScenario::scenario1();
        let bugs = bug_catalog(&model);
        let drop = bugs.iter().find(|b| b.id == 5).unwrap().clone();
        let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(2));
        let golden = sim.run();
        let buggy = sim.run_with(&mut BugInterceptor::new(&model, vec![drop]));
        let cfg = full_selection(&model, &scenario);
        let comparison = Comparison::new(
            &scenario,
            &capture(&model, &golden, &cfg),
            &capture(&model, &buggy, &cfg),
        );
        let ev = distill(&model, &scenario, &comparison);
        let c = model.catalog();
        let w = |name: &str| Witness::new(FlowKind::Mondo, c.get(name).unwrap());
        assert_eq!(ev.verdict(w("reqtot")), Verdict::Absent);
        assert_eq!(ev.verdict(w("grant")), Verdict::Absent);
        assert_eq!(ev.verdict(w("dmusiidata")), Verdict::Absent);
        // The PIOR flow's siincu is healthy even though Mondo's is absent.
        let pior_siincu = Witness::new(FlowKind::PioRead, c.get("siincu").unwrap());
        assert_eq!(ev.verdict(pior_siincu), Verdict::Healthy);
    }

    #[test]
    fn corruption_shows_corrupt_verdict() {
        let model = SocModel::t2();
        let scenario = UsageScenario::scenario2();
        let bugs = bug_catalog(&model);
        let bug8 = bugs.iter().find(|b| b.id == 8).unwrap().clone();
        let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(2));
        let golden = sim.run();
        let buggy = sim.run_with(&mut BugInterceptor::new(&model, vec![bug8]));
        let cfg = full_selection(&model, &scenario);
        let comparison = Comparison::new(
            &scenario,
            &capture(&model, &golden, &cfg),
            &capture(&model, &buggy, &cfg),
        );
        let ev = distill(&model, &scenario, &comparison);
        let ack = model.catalog().get("mondoacknack").unwrap();
        assert_eq!(
            ev.verdict(Witness::new(FlowKind::Mondo, ack)),
            Verdict::Corrupt
        );
    }

    #[test]
    fn untraced_messages_are_unobserved() {
        let model = SocModel::t2();
        let scenario = UsageScenario::scenario1();
        let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(2));
        let out = sim.run();
        let cfg = TraceBufferConfig::default();
        let trace = capture(&model, &out, &cfg);
        let ev = distill(
            &model,
            &scenario,
            &Comparison::new(&scenario, &trace, &trace),
        );
        let reqtot = model.catalog().get("reqtot").unwrap();
        assert_eq!(
            ev.verdict(Witness::new(FlowKind::Mondo, reqtot)),
            Verdict::Unobserved
        );
    }

    #[test]
    fn records_past_the_golden_count_only_occurred() {
        let model = SocModel::t2();
        let scenario = UsageScenario::scenario1();
        let out = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(2)).run();
        let golden = capture(&model, &out, &full_selection(&model, &scenario));
        let mut records = golden.records().to_vec();
        records.push(*records.last().unwrap());
        let buggy = CapturedTrace::from_records(records);
        let comparison = Comparison::new(&scenario, &golden, &buggy);
        let (last, verdicts) = comparison.records.split_last().unwrap();
        assert_eq!(last.1, Verdict::Occurred);
        assert!(verdicts.iter().all(|&(_, v)| v == Verdict::Healthy));
        assert!(comparison.missing.is_empty());
    }

    #[test]
    fn a_golden_only_wrap_adds_no_corruption_and_prunes_nothing_new() {
        // A hang's golden run outlives its buggy run, so the golden buffer
        // can wrap while the buggy one does not. Buggy records whose
        // golden value was evicted must not read as corrupt: that would
        // contradict causes predicting those hops healthy.
        let model = SocModel::t2();
        let bugs = bug_catalog(&model);
        for cs in case_studies() {
            let scenario = &cs.scenario;
            let causes = scenario_causes(&model, scenario);
            let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(cs.seed));
            let golden = sim.run();
            let buggy = sim.run_with(&mut BugInterceptor::new(&model, cs.bugs(&bugs)));
            let mut cfg = full_selection(&model, scenario);
            let buggy = capture(&model, &buggy, &cfg);
            let plausible = |golden: &CapturedTrace| -> Vec<u32> {
                let comparison = Comparison::new(scenario, golden, &buggy);
                let evidence = distill(&model, scenario, &comparison);
                let report = evaluate_causes(&causes, &evidence);
                report.plausible().iter().map(|c| c.id).collect()
            };
            let full = capture(&model, &golden, &cfg);
            let kept = plausible(&full);
            for depth in 1..full.len() {
                cfg.depth = Some(depth);
                let window = capture(&model, &golden, &cfg);
                // The golden run against its own wrapped window: nothing
                // deviates, evicted or not.
                let itself = Comparison::new(scenario, &window, &full);
                assert!(
                    itself.records.iter().all(|&(_, v)| v != Verdict::Corrupt),
                    "case {} golden depth {depth}",
                    cs.number
                );
                let left = plausible(&window);
                assert!(
                    kept.iter().all(|id| left.contains(id)),
                    "case {} golden depth {depth}: {kept:?} kept, {left:?} left",
                    cs.number
                );
            }
        }
    }

    #[test]
    fn weaken_absence_downgrades_only_absent() {
        let model = SocModel::t2();
        let c = model.catalog();
        let w1 = Witness::new(FlowKind::Mondo, c.get("reqtot").unwrap());
        let w2 = Witness::new(FlowKind::Mondo, c.get("grant").unwrap());
        let w3 = Witness::new(FlowKind::Mondo, c.get("dmusiidata").unwrap());
        let records = vec![(w2, Verdict::Corrupt), (w3, Verdict::Healthy)];
        let mut comparison = Comparison {
            records: records.clone(),
            missing: vec![(w1, Verdict::Absent)],
        };
        comparison.weaken_absence();
        assert_eq!(comparison.records, records);
        assert_eq!(comparison.missing, vec![(w1, Verdict::Unobserved)]);
    }

    #[test]
    fn index_to_kind_follows_declaration_order() {
        let scenario = UsageScenario::scenario3();
        let map = index_to_kind(&scenario);
        assert_eq!(map[&FlowIndex(1)], FlowKind::PioRead);
        assert_eq!(map[&FlowIndex(2)], FlowKind::PioWrite);
        assert_eq!(map[&FlowIndex(3)], FlowKind::NcuUpstream);
        assert_eq!(map[&FlowIndex(4)], FlowKind::NcuDownstream);
    }
}
