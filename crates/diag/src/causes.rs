//! Root-cause catalogs and the elimination engine (§5.6–5.7, Tables 1,
//! 6, 7 and Figure 7).
//!
//! For every usage scenario a set of potential architecture-level root
//! causes is identified a priori from the specification (Table 1, column
//! 8: 9 / 8 / 9 causes). Each cause predicts an observable failure
//! pattern — a conjunction of `(witness, expected verdict)` clauses. A
//! cause is *pruned* when the trace evidence contradicts one of its
//! clauses, and remains *plausible* otherwise. Untraced witnesses can
//! never contradict anything, which is exactly why message selection
//! quality governs pruning power.

use pstrace_soc::{FlowKind, Ip, SocModel, UsageScenario};

use crate::evidence::{Evidence, Verdict, Witness};

/// One clause of a cause signature: the verdict this cause predicts for a
/// witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clause {
    /// The witness message.
    pub witness: Witness,
    /// The verdict the cause predicts for it.
    pub expect: Verdict,
}

/// A potential architecture-level root cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootCause {
    /// Catalog id, unique within a scenario.
    pub id: u32,
    /// The IP whose logic this cause blames.
    pub ip: Ip,
    /// What went wrong (Table 7, column 2 style).
    pub description: &'static str,
    /// The system-level implication (Table 7, column 3 style).
    pub implication: &'static str,
    /// Conjunctive failure signature.
    pub clauses: Vec<Clause>,
}

/// Elimination status of a cause after confronting the evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CauseStatus {
    /// Not contradicted: must be explored further.
    Plausible,
    /// Contradicted by trace evidence: eliminated.
    Pruned,
}

impl RootCause {
    /// Confronts this cause with `evidence`.
    ///
    /// A clause is *contradicted* when its witness carries a verdict
    /// incompatible with the prediction; any contradicted clause prunes
    /// the cause. [`Verdict::Unobserved`] is compatible with everything,
    /// and [`Verdict::Occurred`] (the hop demonstrably happened, integrity
    /// unknown) contradicts only an [`Verdict::Absent`] prediction.
    #[must_use]
    pub fn evaluate(&self, evidence: &Evidence) -> CauseStatus {
        for clause in &self.clauses {
            let observed = evidence.verdict(clause.witness);
            let compatible = match observed {
                Verdict::Unobserved => true,
                Verdict::Occurred => clause.expect != Verdict::Absent,
                v => v == clause.expect,
            };
            if !compatible {
                return CauseStatus::Pruned;
            }
        }
        CauseStatus::Plausible
    }
}

/// The evaluated cause set for one run.
#[derive(Debug, Clone)]
pub struct CauseReport {
    /// `(cause, status)` in catalog order.
    pub entries: Vec<(RootCause, CauseStatus)>,
}

impl CauseReport {
    /// Causes still plausible.
    #[must_use]
    pub fn plausible(&self) -> Vec<&RootCause> {
        self.entries
            .iter()
            .filter(|(_, s)| *s == CauseStatus::Plausible)
            .map(|(c, _)| c)
            .collect()
    }

    /// Number of pruned causes.
    #[must_use]
    pub fn pruned_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|(_, s)| *s == CauseStatus::Pruned)
            .count()
    }

    /// Fraction of causes pruned (Figure 7's metric).
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.pruned_count() as f64 / self.entries.len() as f64
    }
}

/// Evaluates every cause of `causes` against `evidence`.
#[must_use]
pub fn evaluate_causes(causes: &[RootCause], evidence: &Evidence) -> CauseReport {
    let entries = causes
        .iter()
        .map(|c| (c.clone(), c.evaluate(evidence)))
        .collect();
    CauseReport { entries }
}

/// The potential root causes of a usage scenario (Table 1, column 8:
/// 9 / 8 / 9 for scenarios 1–3; the DMA extension scenario 4 carries 11,
/// the coherence extension scenario 5 carries 7).
///
/// # Panics
///
/// Panics if `scenario.number()` is not 1–5; custom scenarios need custom
/// cause catalogs.
#[must_use]
pub fn scenario_causes(model: &SocModel, scenario: &UsageScenario) -> Vec<RootCause> {
    let c = model.catalog();
    let w = |flow: FlowKind, name: &str| Witness::new(flow, c.get(name).expect("model message"));
    let clause = |flow: FlowKind, name: &str, expect: Verdict| Clause {
        witness: w(flow, name),
        expect,
    };
    use FlowKind::{Mondo, NcuDownstream, NcuUpstream, PioRead, PioWrite};
    use Verdict::{Absent, Corrupt, Healthy};

    match scenario.number() {
        1 => vec![
            RootCause {
                id: 1,
                ip: Ip::Ccx,
                description: "PIO read request lost between CPU buffer and NCU",
                implication: "PIO read never performed; thread spins on completion",
                clauses: vec![clause(PioRead, "piorreq", Absent)],
            },
            RootCause {
                id: 2,
                ip: Ip::Ncu,
                description: "erroneous decoding of PIO read request in NCU",
                implication: "DMU receives a request for the wrong device address",
                clauses: vec![clause(PioRead, "ncudmupio", Corrupt)],
            },
            RootCause {
                id: 3,
                ip: Ip::Dmu,
                description: "wrong command generation for PIO completion in DMU",
                implication: "read completion carries the wrong transaction type",
                clauses: vec![clause(PioRead, "dmupioack", Corrupt)],
            },
            RootCause {
                id: 4,
                ip: Ip::Ncu,
                description: "wrong interrupt decoding logic / corrupted interrupt handling table in NCU",
                implication: "interrupt acknowledged to the wrong handler",
                clauses: vec![clause(Mondo, "mondoacknack", Corrupt)],
            },
            RootCause {
                id: 5,
                ip: Ip::Ncu,
                description: "wrong credit ID returned at the end of PIO read",
                implication: "CPU buffer credit accounting diverges; later PIOs stall",
                clauses: vec![clause(PioRead, "piorcrd", Corrupt)],
            },
            RootCause {
                id: 6,
                ip: Ip::Ccx,
                description: "PIO write command corrupted in crossbar egress",
                implication: "device register written with the wrong value",
                clauses: vec![clause(PioWrite, "piowreq", Corrupt)],
            },
            RootCause {
                id: 7,
                ip: Ip::Siu,
                description: "Mondo request forwarded from DMU to SIU's bypass queue instead of ordered queue",
                implication: "Mondo interrupt not serviced",
                clauses: vec![
                    clause(Mondo, "reqtot", Healthy),
                    clause(Mondo, "grant", Absent),
                ],
            },
            RootCause {
                id: 8,
                ip: Ip::Dmu,
                description: "invalid Mondo payload forwarded to NCU from DMU via SIU",
                implication: "interrupt assigned to wrong CPU ID and Thread ID",
                clauses: vec![clause(Mondo, "dmusiidata", Corrupt)],
            },
            RootCause {
                id: 9,
                ip: Ip::Dmu,
                description: "non-generation of Mondo interrupt by DMU",
                implication: "computing thread fetches operand from wrong memory location",
                clauses: vec![clause(Mondo, "reqtot", Absent)],
            },
        ],
        2 => vec![
            RootCause {
                id: 1,
                ip: Ip::Mcu,
                description: "erroneous decoding of CPU requests in memory controller",
                implication: "memory return carries data from the wrong DRAM row",
                clauses: vec![clause(NcuUpstream, "mcudata", Corrupt)],
            },
            RootCause {
                id: 2,
                ip: Ip::Mcu,
                description: "memory read return lost in MCU scheduler",
                implication: "requesting thread hangs on the load",
                clauses: vec![clause(NcuUpstream, "mcudata", Absent)],
            },
            RootCause {
                id: 3,
                ip: Ip::Ncu,
                description: "NCU upstream arbiter grants the wrong port",
                implication: "return data delivered to the wrong requester",
                clauses: vec![clause(NcuUpstream, "ncucpxgnt", Corrupt)],
            },
            RootCause {
                id: 4,
                ip: Ip::Ccx,
                description: "crossbar corrupts upstream data return",
                implication: "load observes corrupted data; bad trap on use",
                clauses: vec![clause(NcuUpstream, "cpxdata", Corrupt)],
            },
            RootCause {
                id: 5,
                ip: Ip::Ccx,
                description: "malformed CPU request from cache crossbar to NCU",
                implication: "NCU decodes a nonsense request; downstream garbage",
                clauses: vec![clause(NcuDownstream, "cpxreq", Corrupt)],
            },
            RootCause {
                id: 6,
                ip: Ip::Ncu,
                description: "erroneous CPU request decoding logic of NCU",
                implication: "MCU receives a request for the wrong address",
                clauses: vec![clause(NcuDownstream, "ncumcureq", Corrupt)],
            },
            RootCause {
                id: 7,
                ip: Ip::Ncu,
                description: "erroneous interrupt dequeue logic after interrupt is serviced",
                implication: "interrupt table entry leaks; later interrupts mis-acknowledged",
                clauses: vec![clause(Mondo, "mondoacknack", Corrupt)],
            },
            RootCause {
                id: 8,
                ip: Ip::Dmu,
                description: "invalid Mondo payload forwarded to NCU from DMU via SIU",
                implication: "interrupt assigned to wrong CPU ID and Thread ID",
                clauses: vec![clause(Mondo, "dmusiidata", Corrupt)],
            },
        ],
        3 => vec![
            RootCause {
                id: 1,
                ip: Ip::Ccx,
                description: "PIO read request lost between CPU buffer and NCU",
                implication: "PIO read never performed; thread spins on completion",
                clauses: vec![clause(PioRead, "piorreq", Absent)],
            },
            RootCause {
                id: 2,
                ip: Ip::Ncu,
                description: "erroneous decoding of PIO read request in NCU",
                implication: "DMU receives a request for the wrong device address",
                clauses: vec![clause(PioRead, "ncudmupio", Corrupt)],
            },
            RootCause {
                id: 3,
                ip: Ip::Dmu,
                description: "wrong command generation for PIO completion in DMU",
                implication: "read completion carries the wrong transaction type",
                clauses: vec![clause(PioRead, "dmupioack", Corrupt)],
            },
            RootCause {
                id: 4,
                ip: Ip::Siu,
                description: "SIU ordered queue corrupts PIO response payload",
                implication: "thread loads a corrupted device value",
                clauses: vec![clause(PioRead, "siincu", Corrupt)],
            },
            RootCause {
                id: 5,
                ip: Ip::Ncu,
                description: "wrong credit ID returned at the end of PIO read",
                implication: "CPU buffer credit accounting diverges; later PIOs stall",
                clauses: vec![clause(PioRead, "piorcrd", Corrupt)],
            },
            RootCause {
                id: 6,
                ip: Ip::Ccx,
                description: "PIO write command corrupted in crossbar egress",
                implication: "device register written with the wrong value",
                clauses: vec![clause(PioWrite, "piowreq", Corrupt)],
            },
            RootCause {
                id: 7,
                ip: Ip::Mcu,
                description: "erroneous decoding of CPU requests in memory controller",
                implication: "memory return carries data from the wrong DRAM row",
                clauses: vec![clause(NcuUpstream, "mcudata", Corrupt)],
            },
            RootCause {
                id: 8,
                ip: Ip::Ccx,
                description: "crossbar corrupts upstream data return",
                implication: "load observes corrupted data; bad trap on use",
                clauses: vec![clause(NcuUpstream, "cpxdata", Corrupt)],
            },
            RootCause {
                id: 9,
                ip: Ip::Ncu,
                description: "erroneous CPU request decoding logic of NCU",
                implication: "MCU receives a request for the wrong address",
                clauses: vec![clause(NcuDownstream, "ncumcureq", Corrupt)],
            },
        ],
        4 => {
            // The DMA extension scenario: scenario 1's catalog plus two
            // DMA-read causes, so the §5.7 "no prior DMA read messages"
            // reasoning is executable.
            let mut causes = vec![
                RootCause {
                    id: 1,
                    ip: Ip::Ccx,
                    description: "PIO read request lost between CPU buffer and NCU",
                    implication: "PIO read never performed; thread spins on completion",
                    clauses: vec![clause(PioRead, "piorreq", Absent)],
                },
                RootCause {
                    id: 2,
                    ip: Ip::Ncu,
                    description: "erroneous decoding of PIO read request in NCU",
                    implication: "DMU receives a request for the wrong device address",
                    clauses: vec![clause(PioRead, "ncudmupio", Corrupt)],
                },
                RootCause {
                    id: 3,
                    ip: Ip::Dmu,
                    description: "wrong command generation for PIO completion in DMU",
                    implication: "read completion carries the wrong transaction type",
                    clauses: vec![clause(PioRead, "dmupioack", Corrupt)],
                },
                RootCause {
                    id: 4,
                    ip: Ip::Ncu,
                    description: "wrong interrupt decoding logic / corrupted interrupt handling table in NCU",
                    implication: "interrupt acknowledged to the wrong handler",
                    clauses: vec![clause(Mondo, "mondoacknack", Corrupt)],
                },
                RootCause {
                    id: 5,
                    ip: Ip::Ncu,
                    description: "wrong credit ID returned at the end of PIO read",
                    implication: "CPU buffer credit accounting diverges; later PIOs stall",
                    clauses: vec![clause(PioRead, "piorcrd", Corrupt)],
                },
                RootCause {
                    id: 6,
                    ip: Ip::Ccx,
                    description: "PIO write command corrupted in crossbar egress",
                    implication: "device register written with the wrong value",
                    clauses: vec![clause(PioWrite, "piowreq", Corrupt)],
                },
                RootCause {
                    id: 7,
                    ip: Ip::Siu,
                    description: "Mondo request forwarded from DMU to SIU's bypass queue instead of ordered queue",
                    implication: "Mondo interrupt not serviced",
                    clauses: vec![
                        clause(Mondo, "reqtot", Healthy),
                        clause(Mondo, "grant", Absent),
                    ],
                },
                RootCause {
                    id: 8,
                    ip: Ip::Dmu,
                    description: "invalid Mondo payload forwarded to NCU from DMU via SIU",
                    implication: "interrupt assigned to wrong CPU ID and Thread ID",
                    clauses: vec![clause(Mondo, "dmusiidata", Corrupt)],
                },
                RootCause {
                    id: 9,
                    ip: Ip::Dmu,
                    description: "non-generation of Mondo interrupt by DMU",
                    implication: "computing thread fetches operand from wrong memory location",
                    clauses: vec![clause(Mondo, "reqtot", Absent)],
                },
            ];
            causes.push(RootCause {
                id: 10,
                ip: Ip::Dmu,
                description: "DMU starved of credits by in-flight DMA reads; interrupt deferred",
                implication: "Mondo delayed until DMA reads drain",
                clauses: vec![
                    clause(FlowKind::DmaRead, "siudmurd", Absent),
                    clause(Mondo, "reqtot", Absent),
                ],
            });
            causes.push(RootCause {
                id: 11,
                ip: Ip::Mcu,
                description: "DMA read fetches a stale line from memory",
                implication: "device observes stale DMA data",
                clauses: vec![clause(FlowKind::DmaRead, "mcurddata", Corrupt)],
            });
            causes
        }
        5 => vec![
            RootCause {
                id: 1,
                ip: Ip::Cpu,
                description: "coherence request lost in the core-crossbar interface",
                implication: "requesting thread spins on the line acquisition",
                clauses: vec![clause(FlowKind::Coherence, "cohreq", Absent)],
            },
            RootCause {
                id: 2,
                ip: Ip::Ccx,
                description: "wrong share-state encoding in the Shared grant",
                implication: "core caches the line in the wrong state",
                clauses: vec![clause(FlowKind::Coherence, "gnts", Corrupt)],
            },
            RootCause {
                id: 3,
                ip: Ip::Ccx,
                description: "Exclusive grant addressed to the wrong requester",
                implication: "two cores believe they own the line",
                clauses: vec![clause(FlowKind::Coherence, "gntx", Corrupt)],
            },
            RootCause {
                id: 4,
                ip: Ip::Ccx,
                description: "invalidate never broadcast after an Exclusive grant",
                implication: "stale copies survive; silent data corruption",
                clauses: vec![
                    clause(FlowKind::Coherence, "gntx", Healthy),
                    clause(FlowKind::Coherence, "inval", Absent),
                ],
            },
            RootCause {
                id: 5,
                ip: Ip::Cpu,
                description: "stale invalidate acknowledgement from the victim core",
                implication: "owner proceeds before the line is actually invalidated",
                clauses: vec![clause(FlowKind::Coherence, "invack", Corrupt)],
            },
            RootCause {
                id: 6,
                ip: Ip::Ccx,
                description: "fill data corrupted in the crossbar return path",
                implication: "core loads corrupted line contents; bad trap on use",
                clauses: vec![clause(FlowKind::Coherence, "cohfill", Corrupt)],
            },
            RootCause {
                id: 7,
                ip: Ip::Ncu,
                description: "erroneous CPU request decoding logic of NCU",
                implication: "MCU receives a request for the wrong address",
                clauses: vec![clause(NcuDownstream, "ncumcureq", Corrupt)],
            },
        ],
        n => panic!("no built-in cause catalog for scenario {n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::{distill, Comparison};
    use pstrace_bug::{bug_catalog, case_studies, BugInterceptor};
    use pstrace_soc::{capture, SimConfig, Simulator, TraceBufferConfig};

    #[test]
    fn cause_counts_match_table_1() {
        let model = SocModel::t2();
        assert_eq!(
            scenario_causes(&model, &UsageScenario::scenario1()).len(),
            9
        );
        assert_eq!(
            scenario_causes(&model, &UsageScenario::scenario2()).len(),
            8
        );
        assert_eq!(
            scenario_causes(&model, &UsageScenario::scenario3()).len(),
            9
        );
    }

    #[test]
    fn no_evidence_means_everything_plausible() {
        let model = SocModel::t2();
        let causes = scenario_causes(&model, &UsageScenario::scenario1());
        let report = evaluate_causes(&causes, &Evidence::default());
        assert_eq!(report.pruned_count(), 0);
        assert_eq!(report.plausible().len(), 9);
        assert_eq!(report.pruned_fraction(), 0.0);
    }

    /// End-to-end pruning with full observability: the paper's §5.7 case
    /// study shape — case study 1 prunes 8 of 9 causes (88.89 %) and the
    /// survivor blames the DMU.
    #[test]
    fn case_study_1_prunes_to_the_dmu_cause() {
        let model = SocModel::t2();
        let bugs = bug_catalog(&model);
        let cs = &case_studies()[0];
        let scenario = cs.scenario.clone();
        let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(cs.seed));
        let golden = sim.run();
        let buggy = sim.run_with(&mut BugInterceptor::new(&model, cs.bugs(&bugs)));
        let cfg = TraceBufferConfig::messages_only(&scenario.messages(&model));
        let comparison = Comparison::new(
            &scenario,
            &capture(&model, &golden, &cfg),
            &capture(&model, &buggy, &cfg),
        );
        let ev = distill(&model, &scenario, &comparison);
        let causes = scenario_causes(&model, &scenario);
        let report = evaluate_causes(&causes, &ev);
        let plausible = report.plausible();
        assert_eq!(plausible.len(), 1, "exactly one cause survives");
        assert_eq!(plausible[0].ip, Ip::Dmu);
        assert_eq!(plausible[0].id, 9, "non-generation of Mondo interrupt");
        assert!((report.pruned_fraction() - 8.0 / 9.0).abs() < 1e-12);
    }

    /// All five case studies: the true buggy IP is always among the
    /// plausible causes, and pruning is substantial (≥ 50 %) under full
    /// observability.
    #[test]
    fn every_case_study_keeps_the_true_ip_plausible() {
        let model = SocModel::t2();
        let bugs = bug_catalog(&model);
        for cs in case_studies() {
            let scenario = cs.scenario.clone();
            let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(cs.seed));
            let golden = sim.run();
            let buggy = sim.run_with(&mut BugInterceptor::new(&model, cs.bugs(&bugs)));
            let cfg = TraceBufferConfig::messages_only(&scenario.messages(&model));
            let comparison = Comparison::new(
                &scenario,
                &capture(&model, &golden, &cfg),
                &capture(&model, &buggy, &cfg),
            );
            let ev = distill(&model, &scenario, &comparison);
            let report = evaluate_causes(&scenario_causes(&model, &scenario), &ev);
            let plausible = report.plausible();
            assert!(!plausible.is_empty(), "case study {}", cs.number);
            let true_ip = cs.bugs(&bugs)[0].ip;
            assert!(
                plausible.iter().any(|c| c.ip == true_ip),
                "case study {}: true IP {true_ip} pruned away",
                cs.number
            );
            assert!(
                report.pruned_fraction() >= 0.5,
                "case study {}: only {:.0}% pruned",
                cs.number,
                report.pruned_fraction() * 100.0
            );
        }
    }

    #[test]
    fn unobserved_witness_cannot_prune() {
        let model = SocModel::t2();
        let causes = scenario_causes(&model, &UsageScenario::scenario1());
        // Evidence about nothing: everything stays plausible even for
        // multi-clause causes.
        let report = evaluate_causes(&causes, &Evidence::default());
        assert!(report
            .entries
            .iter()
            .all(|(_, s)| *s == CauseStatus::Plausible));
    }

    #[test]
    fn dma_scenario_has_eleven_causes() {
        let model = SocModel::t2();
        let causes = scenario_causes(&model, &UsageScenario::scenario_dma());
        assert_eq!(causes.len(), 11);
    }

    /// The §5.7 walkthrough made executable: debugging the never-generated
    /// Mondo interrupt while DMA reads run concurrently. Healthy DMA read
    /// messages play the role of "DMU had all its credit available": they
    /// contradict the credit-starvation cause, leaving non-generation as
    /// the diagnosis.
    #[test]
    fn section_5_7_dma_reasoning() {
        use pstrace_bug::BugInterceptor;
        let model = SocModel::t2();
        let bugs = bug_catalog(&model);
        let drop_reqtot = bugs.iter().find(|b| b.id == 5).unwrap().clone();
        let scenario = UsageScenario::scenario_dma();
        let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(0x57));
        let golden = sim.run();
        let buggy = sim.run_with(&mut BugInterceptor::new(&model, vec![drop_reqtot]));
        let cfg = TraceBufferConfig::messages_only(&scenario.messages(&model));
        let comparison = Comparison::new(
            &scenario,
            &capture(&model, &golden, &cfg),
            &capture(&model, &buggy, &cfg),
        );
        let ev = distill(&model, &scenario, &comparison);
        let report = evaluate_causes(&scenario_causes(&model, &scenario), &ev);
        let plausible = report.plausible();
        // Credit starvation (cause 10) is exonerated by the healthy DMA
        // read; non-generation (cause 9) survives.
        assert!(plausible.iter().any(|c| c.id == 9));
        assert!(
            !plausible.iter().any(|c| c.id == 10),
            "healthy DMA read exonerates starvation"
        );
        assert!(report.pruned_fraction() >= 0.8);
    }

    #[test]
    #[should_panic(expected = "no built-in cause catalog")]
    fn custom_scenarios_need_custom_catalogs() {
        let model = SocModel::t2();
        let custom = UsageScenario::custom(7, "custom", &[(FlowKind::Mondo, 1)]);
        let _ = scenario_causes(&model, &custom);
    }
}
