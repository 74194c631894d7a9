//! Usage scenarios (Table 1): which flows a validation run exercises.

use std::fmt;
use std::sync::Arc;

use pstrace_flow::{FlowError, FlowIndex, IndexedFlow, InterleavedFlow, MessageId};

use crate::ip::Ip;
use crate::protocol::{FlowKind, SocModel};

/// A usage scenario: a named multiset of flow kinds executed together,
/// modeling a frequently used application pattern.
///
/// Instance indices are assigned globally across all participating flows,
/// so every concurrently executing instance is uniquely tagged and all
/// indexed flows are trivially legally indexed (Definition 4).
///
/// # Examples
///
/// ```
/// use pstrace_soc::{SocModel, UsageScenario};
///
/// # fn main() -> Result<(), pstrace_flow::FlowError> {
/// let model = SocModel::t2();
/// let scenario = UsageScenario::scenario1();
/// let product = scenario.interleaving(&model)?;
/// assert!(product.state_count() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageScenario {
    number: u8,
    name: String,
    flows: Vec<(FlowKind, u32)>,
}

impl UsageScenario {
    /// Builds a custom scenario from `(kind, instance count)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is empty or any instance count is zero.
    #[must_use]
    pub fn custom(number: u8, name: &str, flows: &[(FlowKind, u32)]) -> Self {
        assert!(!flows.is_empty(), "a scenario needs at least one flow");
        assert!(
            flows.iter().all(|&(_, n)| n > 0),
            "instance counts must be positive"
        );
        UsageScenario {
            number,
            name: name.to_owned(),
            flows: flows.to_vec(),
        }
    }

    /// Table 1, Scenario 1: PIOR + PIOW + Mon (NCU, DMU, SIU).
    #[must_use]
    pub fn scenario1() -> Self {
        Self::custom(
            1,
            "Scenario 1",
            &[
                (FlowKind::PioRead, 1),
                (FlowKind::PioWrite, 1),
                (FlowKind::Mondo, 1),
            ],
        )
    }

    /// Table 1, Scenario 2: NCUU + NCUD + Mon (NCU, MCU, CCX).
    ///
    /// The memory paths run two concurrent instances each — memory traffic
    /// is never solitary — which is what makes this scenario's
    /// interleaving deep enough for interesting path localization.
    #[must_use]
    pub fn scenario2() -> Self {
        Self::custom(
            2,
            "Scenario 2",
            &[
                (FlowKind::NcuUpstream, 2),
                (FlowKind::NcuDownstream, 2),
                (FlowKind::Mondo, 1),
            ],
        )
    }

    /// Table 1, Scenario 3: PIOR + PIOW + NCUU + NCUD (NCU, MCU, DMU, SIU).
    #[must_use]
    pub fn scenario3() -> Self {
        Self::custom(
            3,
            "Scenario 3",
            &[
                (FlowKind::PioRead, 1),
                (FlowKind::PioWrite, 1),
                (FlowKind::NcuUpstream, 1),
                (FlowKind::NcuDownstream, 1),
            ],
        )
    }

    /// An extension scenario beyond Table 1: two concurrent cache-line
    /// acquisitions (the only branching flow in the model) plus a CPU
    /// memory request — the stress case for path localization, since the
    /// debugger must recover *which grant path* each instance took.
    #[must_use]
    pub fn scenario_coherence() -> Self {
        Self::custom(
            5,
            "Scenario 5 (coherence)",
            &[(FlowKind::Coherence, 2), (FlowKind::NcuDownstream, 1)],
        )
    }

    /// The three scenarios of Table 1.
    #[must_use]
    pub fn all_paper_scenarios() -> Vec<UsageScenario> {
        vec![Self::scenario1(), Self::scenario2(), Self::scenario3()]
    }

    /// An extension scenario beyond Table 1: PIO traffic and a Mondo
    /// interrupt *with concurrent DMA reads* — the configuration the §5.7
    /// debugging walkthrough reasons about when it checks for "prior DMA
    /// read messages" before blaming the DMU's interrupt generation.
    #[must_use]
    pub fn scenario_dma() -> Self {
        Self::custom(
            4,
            "Scenario 4 (DMA)",
            &[
                (FlowKind::PioRead, 1),
                (FlowKind::PioWrite, 1),
                (FlowKind::Mondo, 1),
                (FlowKind::DmaRead, 1),
            ],
        )
    }

    /// Scenario number (1–3 for the paper's scenarios).
    #[must_use]
    pub fn number(&self) -> u8 {
        self.number
    }

    /// Scenario name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `(kind, instance count)` pairs.
    #[must_use]
    pub fn flows(&self) -> &[(FlowKind, u32)] {
        &self.flows
    }

    /// Whether the scenario executes `kind` (the ✓/✗ matrix of Table 1).
    #[must_use]
    pub fn executes(&self, kind: FlowKind) -> bool {
        self.flows.iter().any(|&(k, _)| k == kind)
    }

    /// Instantiates the scenario's flows with globally unique indices
    /// `1..=n`, where `n` is the total instance count, in declaration
    /// order.
    #[must_use]
    pub fn instances(&self, model: &SocModel) -> Vec<IndexedFlow> {
        let mut out = Vec::new();
        let mut next = 1u32;
        for &(kind, count) in &self.flows {
            for _ in 0..count {
                out.push(IndexedFlow::new(
                    Arc::clone(model.flow(kind)),
                    FlowIndex(next),
                ));
                next += 1;
            }
        }
        out
    }

    /// Builds the scenario's interleaved flow.
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`] from the product construction (e.g. if a
    /// custom scenario exceeds the state budget).
    pub fn interleaving(&self, model: &SocModel) -> Result<InterleavedFlow, FlowError> {
        InterleavedFlow::build(&self.instances(model))
    }

    /// The distinct messages used by the scenario's flows.
    #[must_use]
    pub fn messages(&self, model: &SocModel) -> Vec<MessageId> {
        let mut out: Vec<MessageId> = Vec::new();
        for &(kind, _) in &self.flows {
            for &m in model.flow(kind).messages() {
                if !out.contains(&m) {
                    out.push(m);
                }
            }
        }
        out
    }

    /// The IPs participating in the scenario (sources and destinations of
    /// its messages), sorted.
    #[must_use]
    pub fn participating_ips(&self, model: &SocModel) -> Vec<Ip> {
        let mut ips: Vec<Ip> = Vec::new();
        for m in self.messages(model) {
            if let Some(pair) = model.endpoints(m) {
                for ip in [pair.src, pair.dst] {
                    if !ips.contains(&ip) {
                        ips.push(ip);
                    }
                }
            }
        }
        ips.sort_unstable();
        ips
    }
}

impl fmt::Display for UsageScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_participation_matrix() {
        let s1 = UsageScenario::scenario1();
        assert!(s1.executes(FlowKind::PioRead));
        assert!(s1.executes(FlowKind::PioWrite));
        assert!(s1.executes(FlowKind::Mondo));
        assert!(!s1.executes(FlowKind::NcuUpstream));
        assert!(!s1.executes(FlowKind::NcuDownstream));

        let s2 = UsageScenario::scenario2();
        assert!(!s2.executes(FlowKind::PioRead));
        assert!(s2.executes(FlowKind::NcuUpstream));
        assert!(s2.executes(FlowKind::NcuDownstream));
        assert!(s2.executes(FlowKind::Mondo));

        let s3 = UsageScenario::scenario3();
        assert!(s3.executes(FlowKind::PioRead));
        assert!(!s3.executes(FlowKind::Mondo));
        assert_eq!(s3.flows().len(), 4);
    }

    #[test]
    fn indices_are_globally_unique() {
        let model = SocModel::t2();
        let s3 = UsageScenario::scenario3();
        let instances = s3.instances(&model);
        assert_eq!(instances.len(), 4);
        let mut indices: Vec<u32> = instances.iter().map(|f| f.index().0).collect();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices, vec![1, 2, 3, 4]);
    }

    #[test]
    fn interleavings_build_for_all_scenarios() {
        let model = SocModel::t2();
        for s in UsageScenario::all_paper_scenarios() {
            let u = s.interleaving(&model).unwrap();
            assert!(u.state_count() > 10, "{}", s.name());
            assert_eq!(u.initial_states().len(), 1);
            assert!(!u.stop_states().is_empty());
        }
    }

    #[test]
    fn scenario1_product_size() {
        // PIOR (6) × PIOW (3) × Mon (6) = 108 tuples; Mon's single atomic
        // state excludes nothing (no other flow has atomics).
        let model = SocModel::t2();
        let u = UsageScenario::scenario1().interleaving(&model).unwrap();
        assert_eq!(u.state_count(), 108);
    }

    #[test]
    fn participating_ips_match_table1_up_to_interconnect() {
        let model = SocModel::t2();
        let ips1 = UsageScenario::scenario1().participating_ips(&model);
        for ip in [Ip::Ncu, Ip::Dmu, Ip::Siu] {
            assert!(ips1.contains(&ip), "scenario 1 missing {ip}");
        }
        let ips2 = UsageScenario::scenario2().participating_ips(&model);
        for ip in [Ip::Ncu, Ip::Mcu, Ip::Ccx] {
            assert!(ips2.contains(&ip), "scenario 2 missing {ip}");
        }
        let ips3 = UsageScenario::scenario3().participating_ips(&model);
        for ip in [Ip::Ncu, Ip::Mcu, Ip::Dmu, Ip::Siu] {
            assert!(ips3.contains(&ip), "scenario 3 missing {ip}");
        }
    }

    #[test]
    fn messages_are_deduplicated_across_flows() {
        // siincu is used by both PIOR and Mon but appears once.
        let model = SocModel::t2();
        let msgs = UsageScenario::scenario1().messages(&model);
        let siincu = model.catalog().get("siincu").unwrap();
        assert_eq!(msgs.iter().filter(|&&m| m == siincu).count(), 1);
        assert_eq!(msgs.len(), 11, "5 + 2 + 5 minus shared siincu");
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn custom_rejects_empty() {
        let _ = UsageScenario::custom(9, "empty", &[]);
    }

    #[test]
    fn display_shows_name() {
        assert_eq!(UsageScenario::scenario1().to_string(), "Scenario 1");
    }
}
