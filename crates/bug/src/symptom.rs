//! Bug symptom detection: how a failure first becomes observable.
//!
//! The paper's case studies fail with hangs or a `FAIL: Bad Trap` checker
//! message (§5.7). Here the end-of-test checker is the golden run: a buggy
//! run's symptom is either a hang (an instance never completed) or the
//! first message whose payload or destination deviates from golden.

use pstrace_flow::{FlowIndex, IndexedMessage};
use pstrace_soc::{Ip, RunStatus, SimOutcome};

/// The first observable failure of a buggy run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Symptom {
    /// One or more flow instances never completed (lost handshake,
    /// never-generated interrupt): the paper's hang/timeout class.
    Hang {
        /// Instances that never reached their stop state.
        stuck: Vec<FlowIndex>,
        /// Cycle at which the run gave up.
        cycles: u64,
    },
    /// A payload check failed — the equivalent of `FAIL: Bad Trap`.
    BadTrap {
        /// The first deviating message.
        message: IndexedMessage,
        /// Its occurrence number.
        occurrence: u32,
        /// Golden payload.
        expected: u64,
        /// Observed payload.
        observed: u64,
    },
    /// A message reached the wrong IP.
    Misroute {
        /// The misrouted message.
        message: IndexedMessage,
        /// Where it should have gone.
        expected_dst: Ip,
        /// Where it went.
        observed_dst: Ip,
    },
}

impl std::fmt::Display for Symptom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Symptom::Hang { stuck, cycles } => {
                write!(f, "HANG: {} instance(s) incomplete after {cycles} cycles", stuck.len())
            }
            Symptom::BadTrap { occurrence, expected, observed, .. } => write!(
                f,
                "FAIL: Bad Trap (occurrence {occurrence}: expected {expected:#x}, observed {observed:#x})"
            ),
            Symptom::Misroute { expected_dst, observed_dst, .. } => {
                write!(f, "FAIL: misroute (expected {expected_dst}, observed {observed_dst})")
            }
        }
    }
}

/// Compares a buggy run against its golden twin and returns the first
/// observable symptom, or `None` if the runs are indistinguishable.
///
/// Events are matched by `(indexed message, occurrence)`, which is stable
/// across runs with the same seed; deviations are reported in buggy-run
/// time order.
#[must_use]
pub fn detect_symptom(golden: &SimOutcome, buggy: &SimOutcome) -> Option<Symptom> {
    if let RunStatus::Hang { ref stuck } = buggy.status {
        return Some(Symptom::Hang {
            stuck: stuck.clone(),
            cycles: buggy.cycles,
        });
    }
    for event in &buggy.events {
        let twin = golden
            .events
            .iter()
            .find(|g| g.message == event.message && g.occurrence == event.occurrence);
        let Some(twin) = twin else { continue };
        if twin.value != event.value {
            return Some(Symptom::BadTrap {
                message: event.message,
                occurrence: event.occurrence,
                expected: twin.value,
                observed: event.value,
            });
        }
        if twin.dst != event.dst {
            return Some(Symptom::Misroute {
                message: event.message,
                expected_dst: twin.dst,
                observed_dst: event.dst,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{bug_catalog, case_studies};
    use crate::inject::BugInterceptor;
    use pstrace_soc::{SimConfig, Simulator, SocModel};

    #[test]
    fn golden_vs_golden_has_no_symptom() {
        let model = SocModel::t2();
        let cs = &case_studies()[0];
        let sim = Simulator::new(&model, cs.scenario.clone(), SimConfig::with_seed(cs.seed));
        let golden = sim.run();
        assert_eq!(detect_symptom(&golden, &golden), None);
    }

    #[test]
    fn every_case_study_produces_a_symptom() {
        let model = SocModel::t2();
        let catalog = bug_catalog(&model);
        for cs in case_studies() {
            let sim = Simulator::new(&model, cs.scenario.clone(), SimConfig::with_seed(cs.seed));
            let golden = sim.run();
            let mut interceptor = BugInterceptor::new(&model, cs.bugs(&catalog));
            let buggy = sim.run_with(&mut interceptor);
            let symptom = detect_symptom(&golden, &buggy);
            assert!(
                symptom.is_some(),
                "case study {} shows no symptom",
                cs.number
            );
        }
    }

    #[test]
    fn case_study_1_hangs() {
        // Bug 5 drops reqtot: the Mondo flow never starts.
        let model = SocModel::t2();
        let catalog = bug_catalog(&model);
        let cs = &case_studies()[0];
        let sim = Simulator::new(&model, cs.scenario.clone(), SimConfig::with_seed(cs.seed));
        let golden = sim.run();
        let buggy = sim.run_with(&mut BugInterceptor::new(&model, cs.bugs(&catalog)));
        match detect_symptom(&golden, &buggy) {
            Some(Symptom::Hang { stuck, .. }) => assert_eq!(stuck.len(), 1),
            other => panic!("expected hang, got {other:?}"),
        }
    }

    #[test]
    fn case_study_5_is_a_bad_trap_on_mcudata_or_downstream() {
        let model = SocModel::t2();
        let catalog = bug_catalog(&model);
        let cs = &case_studies()[4];
        let sim = Simulator::new(&model, cs.scenario.clone(), SimConfig::with_seed(cs.seed));
        let golden = sim.run();
        let buggy = sim.run_with(&mut BugInterceptor::new(&model, cs.bugs(&catalog)));
        match detect_symptom(&golden, &buggy) {
            Some(Symptom::BadTrap { message, .. }) => {
                // The first deviation is on the NCUU flow (mcudata or a
                // tainted downstream message of the same instance).
                let name = model.catalog().name(message.message);
                assert!(
                    ["mcudata", "ncucpxgnt", "cpxdata"].contains(&name),
                    "unexpected symptom message {name}"
                );
            }
            other => panic!("expected bad trap, got {other:?}"),
        }
    }

    #[test]
    fn symptom_display_is_informative() {
        let s = Symptom::Hang {
            stuck: vec![FlowIndex(3)],
            cycles: 512,
        };
        assert!(s.to_string().contains("HANG"));
    }
}
