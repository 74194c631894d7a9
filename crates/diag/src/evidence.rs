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

use pstrace_flow::{FlowIndex, MessageId};
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
    /// which upstream hop corrupted it.
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

    /// Overrides one verdict (used by the incremental investigation walk).
    pub fn set(&mut self, witness: Witness, verdict: Verdict) {
        self.verdicts.insert(witness, verdict);
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

    /// Downgrades every [`Verdict::Absent`] to [`Verdict::Unobserved`].
    ///
    /// A circular trace buffer that wrapped cannot testify about absence:
    /// a message missing from the surviving window may simply have been
    /// overwritten, and the golden and buggy windows need not align. Call
    /// this after [`distill`](crate::distill) whenever either capture hit
    /// its depth limit, so that only positive evidence (healthy / corrupt
    /// observations) drives cause pruning.
    pub fn weaken_absence(&mut self) {
        for v in self.verdicts.values_mut() {
            if *v == Verdict::Absent {
                *v = Verdict::Unobserved;
            }
        }
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

/// Distills evidence from a golden/buggy capture pair taken with the same
/// trace-buffer configuration and seed, then applies
/// [`infer_flow_order`].
///
/// For each `(flow kind, message)` with at least one golden record:
/// missing buggy records → [`Verdict::Absent`]; any payload mismatch →
/// [`Verdict::Corrupt`]; otherwise [`Verdict::Healthy`]. Witnesses never
/// captured in the golden run get their verdict by flow-order inference or
/// stay [`Verdict::Unobserved`].
#[must_use]
pub fn distill(
    model: &SocModel,
    scenario: &UsageScenario,
    golden: &CapturedTrace,
    buggy: &CapturedTrace,
) -> Evidence {
    let kinds = index_to_kind(scenario);
    // Key: (witness, index, per-indexed-message position).
    let mut golden_vals: HashMap<(Witness, FlowIndex, u32), u64> = HashMap::new();
    let mut golden_counts: HashMap<(Witness, FlowIndex), u32> = HashMap::new();
    for r in golden.records() {
        let Some(&kind) = kinds.get(&r.message.index) else {
            continue;
        };
        let w = Witness::new(kind, r.message.message);
        let pos = golden_counts.entry((w, r.message.index)).or_insert(0);
        golden_vals.insert((w, r.message.index, *pos), r.value);
        *pos += 1;
    }
    let mut buggy_vals: HashMap<(Witness, FlowIndex, u32), u64> = HashMap::new();
    let mut buggy_counts: HashMap<(Witness, FlowIndex), u32> = HashMap::new();
    for r in buggy.records() {
        let Some(&kind) = kinds.get(&r.message.index) else {
            continue;
        };
        let w = Witness::new(kind, r.message.message);
        let pos = buggy_counts.entry((w, r.message.index)).or_insert(0);
        buggy_vals.insert((w, r.message.index, *pos), r.value);
        *pos += 1;
    }

    let mut verdicts: HashMap<Witness, Verdict> = HashMap::new();
    for (&(w, idx), &count) in &golden_counts {
        let buggy_count = buggy_counts.get(&(w, idx)).copied().unwrap_or(0);
        let verdict = if buggy_count < count {
            Verdict::Absent
        } else {
            let mismatch =
                (0..count).any(|p| golden_vals.get(&(w, idx, p)) != buggy_vals.get(&(w, idx, p)));
            if mismatch {
                Verdict::Corrupt
            } else {
                Verdict::Healthy
            }
        };
        // Merge across instances of the same flow kind: the worst verdict
        // wins (Absent > Corrupt > Occurred > Healthy).
        let entry = verdicts.entry(w).or_insert(Verdict::Healthy);
        *entry = worst(*entry, verdict);
    }
    let mut evidence = Evidence { verdicts };
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
    use pstrace_bug::{bug_catalog, BugInterceptor};
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
        let ev = distill(&model, &scenario, &trace, &trace);
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
        let ev = distill(
            &model,
            &scenario,
            &capture(&model, &golden, &cfg),
            &capture(&model, &buggy, &cfg),
        );
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
        let ev = distill(
            &model,
            &scenario,
            &capture(&model, &golden, &cfg),
            &capture(&model, &buggy, &cfg),
        );
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
        let ev = distill(&model, &scenario, &trace, &trace);
        let reqtot = model.catalog().get("reqtot").unwrap();
        assert_eq!(
            ev.verdict(Witness::new(FlowKind::Mondo, reqtot)),
            Verdict::Unobserved
        );
    }

    #[test]
    fn weaken_absence_downgrades_only_absent() {
        let model = SocModel::t2();
        let c = model.catalog();
        let mut ev = Evidence::default();
        let w1 = Witness::new(FlowKind::Mondo, c.get("reqtot").unwrap());
        let w2 = Witness::new(FlowKind::Mondo, c.get("grant").unwrap());
        let w3 = Witness::new(FlowKind::Mondo, c.get("dmusiidata").unwrap());
        ev.set(w1, Verdict::Absent);
        ev.set(w2, Verdict::Corrupt);
        ev.set(w3, Verdict::Healthy);
        ev.weaken_absence();
        assert_eq!(ev.verdict(w1), Verdict::Unobserved);
        assert_eq!(ev.verdict(w2), Verdict::Corrupt);
        assert_eq!(ev.verdict(w3), Verdict::Healthy);
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
