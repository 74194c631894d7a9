//! The five T2 protocol flows of the paper's evaluation (Table 1).
//!
//! Flow shapes (state count, message count) match Table 1 exactly:
//!
//! | Flow | States | Messages | Role |
//! |---|---|---|---|
//! | PIOR — PIO Read | 6 | 5 | CPU programmed-IO read through NCU/DMU/SIU |
//! | PIOW — PIO Write | 3 | 2 | CPU programmed-IO posted write |
//! | NCUU — NCU Upstream | 4 | 3 | memory read return MCU → NCU → CCX |
//! | NCUD — NCU Downstream | 3 | 2 | CPU request CCX → NCU → MCU |
//! | Mon — Mondo Interrupt | 6 | 5 | DMU-sourced Mondo interrupt via SIU to NCU |
//!
//! Message names follow the paper where it names them (`reqtot`, `grant`,
//! `mondoacknack`, `siincu`, `piowcrd`, `dmusiidata` with its 6-bit
//! `cputhreadid` subgroup); the rest use T2-flavored names. Each message is
//! annotated with its source and destination IP, which defines the *legal
//! IP pairs* of §5.6.

use std::collections::HashMap;
use std::sync::Arc;

use pstrace_flow::{Flow, FlowBuilder, MessageCatalog, MessageId};

use crate::ip::{Ip, IpPair};

/// The protocol flows of the T2 model: the five Table 1 flows plus the
/// DMA read/write extensions exercised by the paper's §5.7 reasoning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowKind {
    /// PIO Read.
    PioRead,
    /// PIO Write.
    PioWrite,
    /// NCU Upstream (memory return path).
    NcuUpstream,
    /// NCU Downstream (CPU request path).
    NcuDownstream,
    /// Mondo interrupt delivery.
    Mondo,
    /// DMA read: DMU fetches system memory through SIU and MCU. The §5.7
    /// walkthrough reasons about the absence of "prior DMA read
    /// messages"; this flow makes that reasoning executable. Not part of
    /// Table 1.
    DmaRead,
    /// DMA write: DMU posts data towards memory through SIU. Not part of
    /// Table 1.
    DmaWrite,
    /// Cache-line acquisition with a *branching* outcome: the directory
    /// grants the line Shared or Exclusive, and the exclusive path must
    /// invalidate the other sharer first. The only non-linear flow in the
    /// model — the realistic stress case for path localization. Not part
    /// of Table 1.
    Coherence,
}

impl FlowKind {
    /// The five Table 1 flows, in column order.
    pub const PAPER: [FlowKind; 5] = [
        FlowKind::PioRead,
        FlowKind::PioWrite,
        FlowKind::NcuUpstream,
        FlowKind::NcuDownstream,
        FlowKind::Mondo,
    ];

    /// Every modeled flow: the Table 1 five plus the extensions.
    pub const ALL: [FlowKind; 8] = [
        FlowKind::PioRead,
        FlowKind::PioWrite,
        FlowKind::NcuUpstream,
        FlowKind::NcuDownstream,
        FlowKind::Mondo,
        FlowKind::DmaRead,
        FlowKind::DmaWrite,
        FlowKind::Coherence,
    ];

    /// Abbreviation used in the paper's tables.
    #[must_use]
    pub fn abbrev(self) -> &'static str {
        match self {
            FlowKind::PioRead => "PIOR",
            FlowKind::PioWrite => "PIOW",
            FlowKind::NcuUpstream => "NCUU",
            FlowKind::NcuDownstream => "NCUD",
            FlowKind::Mondo => "Mon",
            FlowKind::DmaRead => "DMAR",
            FlowKind::DmaWrite => "DMAW",
            FlowKind::Coherence => "COH",
        }
    }

    /// Full name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::PioRead => "PIO Read",
            FlowKind::PioWrite => "PIO Write",
            FlowKind::NcuUpstream => "NCU Upstream",
            FlowKind::NcuDownstream => "NCU Downstream",
            FlowKind::Mondo => "Mondo Interrupt",
            FlowKind::DmaRead => "DMA Read",
            FlowKind::DmaWrite => "DMA Write",
            FlowKind::Coherence => "Coherence",
        }
    }
}

impl std::fmt::Display for FlowKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// The complete T2-like SoC protocol model: shared message catalog, the
/// five flows, and per-message IP endpoints.
///
/// # Examples
///
/// ```
/// use pstrace_soc::{FlowKind, SocModel};
///
/// let model = SocModel::t2();
/// let pior = model.flow(FlowKind::PioRead);
/// assert_eq!(pior.state_count(), 6);
/// assert_eq!(pior.messages().len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct SocModel {
    catalog: Arc<MessageCatalog>,
    flows: HashMap<FlowKind, Arc<Flow>>,
    endpoints: HashMap<MessageId, IpPair>,
}

impl SocModel {
    /// Builds the OpenSPARC-T2-like model used by all experiments.
    ///
    /// # Panics
    ///
    /// Panics only if the built-in flow specifications are malformed, which
    /// is covered by tests.
    #[must_use]
    pub fn t2() -> Self {
        let mut catalog = MessageCatalog::new();

        // PIO Read path: CCX -> NCU -> DMU, response via SIU, credit back.
        let piorreq = catalog.intern("piorreq", 10);
        let ncudmupio = catalog.intern("ncudmupio", 8);
        let dmupioack = catalog.intern("dmupioack", 7);
        let siincu = catalog.intern("siincu", 8);
        let piorcrd = catalog.intern("piorcrd", 5);
        // PIO Write: posted write plus returned credit.
        let piowreq = catalog.intern("piowreq", 12);
        let piowcrd = catalog.intern("piowcrd", 5);
        // NCU Upstream: memory return MCU -> NCU -> CCX -> CPU.
        let mcudata = catalog.intern("mcudata", 16);
        let ncucpxgnt = catalog.intern("ncucpxgnt", 5);
        let cpxdata = catalog.intern("cpxdata", 16);
        // NCU Downstream: CPU request CCX -> NCU -> MCU.
        let cpxreq = catalog.intern("cpxreq", 12);
        let ncumcureq = catalog.intern("ncumcureq", 14);
        // Mondo interrupt: DMU -> SIU -> NCU with ack/nack.
        let reqtot = catalog.intern("reqtot", 5);
        let grant = catalog.intern("grant", 5);
        let dmusiidata = catalog.intern("dmusiidata", 20);
        let mondoacknack = catalog.intern("mondoacknack", 2);
        // DMA read/write: DMU <-> SIU <-> MCU.
        let dmarreq = catalog.intern("dmarreq", 12);
        let siumcurd = catalog.intern("siumcurd", 10);
        let mcurddata = catalog.intern("mcurddata", 16);
        let siudmurd = catalog.intern("siudmurd", 16);
        let dmawreq = catalog.intern("dmawreq", 14);
        let siumcuwr = catalog.intern("siumcuwr", 12);
        let mcuwrack = catalog.intern("mcuwrack", 4);
        // Coherence: CPU <-> CCX line acquisition with a branching grant.
        let cohreq = catalog.intern("cohreq", 8);
        let gnts = catalog.intern("gnts", 6);
        let gntx = catalog.intern("gntx", 6);
        let inval = catalog.intern("inval", 4);
        let invack = catalog.intern("invack", 2);
        let cohfill = catalog.intern("cohfill", 16);

        // Subgroups available to the Step 3 packing loop.
        catalog.intern_group(dmusiidata, "cputhreadid", 6);
        catalog.intern_group(dmusiidata, "mondoid", 8);
        catalog.intern_group(piowreq, "bytemask", 2);
        catalog.intern_group(mcudata, "ecc", 5);
        catalog.intern_group(cpxdata, "tag", 6);
        catalog.intern_group(piorreq, "addrlo", 6);
        catalog.intern_group(mcurddata, "ecc", 5);
        catalog.intern_group(dmawreq, "addrhi", 6);
        catalog.intern_group(siudmurd, "tag", 4);

        let catalog = Arc::new(catalog);

        let mut endpoints = HashMap::new();
        endpoints.insert(piorreq, IpPair::new(Ip::Ccx, Ip::Ncu));
        endpoints.insert(ncudmupio, IpPair::new(Ip::Ncu, Ip::Dmu));
        endpoints.insert(dmupioack, IpPair::new(Ip::Dmu, Ip::Siu));
        endpoints.insert(siincu, IpPair::new(Ip::Siu, Ip::Ncu));
        endpoints.insert(piorcrd, IpPair::new(Ip::Ncu, Ip::Ccx));
        endpoints.insert(piowreq, IpPair::new(Ip::Ccx, Ip::Ncu));
        endpoints.insert(piowcrd, IpPair::new(Ip::Ncu, Ip::Ccx));
        endpoints.insert(mcudata, IpPair::new(Ip::Mcu, Ip::Ncu));
        endpoints.insert(ncucpxgnt, IpPair::new(Ip::Ncu, Ip::Ccx));
        endpoints.insert(cpxdata, IpPair::new(Ip::Ccx, Ip::Cpu));
        endpoints.insert(cpxreq, IpPair::new(Ip::Ccx, Ip::Ncu));
        endpoints.insert(ncumcureq, IpPair::new(Ip::Ncu, Ip::Mcu));
        endpoints.insert(reqtot, IpPair::new(Ip::Dmu, Ip::Siu));
        endpoints.insert(grant, IpPair::new(Ip::Siu, Ip::Dmu));
        endpoints.insert(dmusiidata, IpPair::new(Ip::Dmu, Ip::Siu));
        endpoints.insert(mondoacknack, IpPair::new(Ip::Ncu, Ip::Siu));
        endpoints.insert(dmarreq, IpPair::new(Ip::Dmu, Ip::Siu));
        endpoints.insert(siumcurd, IpPair::new(Ip::Siu, Ip::Mcu));
        endpoints.insert(mcurddata, IpPair::new(Ip::Mcu, Ip::Siu));
        endpoints.insert(siudmurd, IpPair::new(Ip::Siu, Ip::Dmu));
        endpoints.insert(dmawreq, IpPair::new(Ip::Dmu, Ip::Siu));
        endpoints.insert(siumcuwr, IpPair::new(Ip::Siu, Ip::Mcu));
        endpoints.insert(mcuwrack, IpPair::new(Ip::Mcu, Ip::Siu));
        endpoints.insert(cohreq, IpPair::new(Ip::Cpu, Ip::Ccx));
        endpoints.insert(gnts, IpPair::new(Ip::Ccx, Ip::Cpu));
        endpoints.insert(gntx, IpPair::new(Ip::Ccx, Ip::Cpu));
        endpoints.insert(inval, IpPair::new(Ip::Ccx, Ip::Cpu));
        endpoints.insert(invack, IpPair::new(Ip::Cpu, Ip::Ccx));
        endpoints.insert(cohfill, IpPair::new(Ip::Ccx, Ip::Cpu));

        let mut flows = HashMap::new();
        flows.insert(
            FlowKind::PioRead,
            Arc::new(
                FlowBuilder::new("PIO Read")
                    .state("PiorIdle")
                    .state("PiorIssued")
                    .state("PiorAtDmu")
                    .state("PiorResp")
                    .state("PiorCredit")
                    .stop_state("PiorDone")
                    .initial("PiorIdle")
                    .edge("PiorIdle", "piorreq", "PiorIssued")
                    .edge("PiorIssued", "ncudmupio", "PiorAtDmu")
                    .edge("PiorAtDmu", "dmupioack", "PiorResp")
                    .edge("PiorResp", "siincu", "PiorCredit")
                    .edge("PiorCredit", "piorcrd", "PiorDone")
                    .build(&catalog)
                    .expect("PIOR flow is well-formed"),
            ),
        );
        flows.insert(
            FlowKind::PioWrite,
            Arc::new(
                FlowBuilder::new("PIO Write")
                    .state("PiowIdle")
                    .state("PiowIssued")
                    .stop_state("PiowDone")
                    .initial("PiowIdle")
                    .edge("PiowIdle", "piowreq", "PiowIssued")
                    .edge("PiowIssued", "piowcrd", "PiowDone")
                    .build(&catalog)
                    .expect("PIOW flow is well-formed"),
            ),
        );
        flows.insert(
            FlowKind::NcuUpstream,
            Arc::new(
                FlowBuilder::new("NCU Upstream")
                    .state("NcuuIdle")
                    .state("NcuuAtNcu")
                    .state("NcuuGranted")
                    .stop_state("NcuuDone")
                    .initial("NcuuIdle")
                    .edge("NcuuIdle", "mcudata", "NcuuAtNcu")
                    .edge("NcuuAtNcu", "ncucpxgnt", "NcuuGranted")
                    .edge("NcuuGranted", "cpxdata", "NcuuDone")
                    .build(&catalog)
                    .expect("NCUU flow is well-formed"),
            ),
        );
        flows.insert(
            FlowKind::NcuDownstream,
            Arc::new(
                FlowBuilder::new("NCU Downstream")
                    .state("NcudIdle")
                    .state("NcudAtNcu")
                    .stop_state("NcudDone")
                    .initial("NcudIdle")
                    .edge("NcudIdle", "cpxreq", "NcudAtNcu")
                    .edge("NcudAtNcu", "ncumcureq", "NcudDone")
                    .build(&catalog)
                    .expect("NCUD flow is well-formed"),
            ),
        );
        flows.insert(
            FlowKind::Mondo,
            Arc::new(
                FlowBuilder::new("Mondo Interrupt")
                    .state("MonIdle")
                    .state("MonReq")
                    .state("MonGranted")
                    .state("MonPayload")
                    // NCU's interrupt-table update is indivisible: while it
                    // dispatches a Mondo no other flow may sit in an atomic
                    // state.
                    .atomic_state("MonDispatch")
                    .stop_state("MonDone")
                    .initial("MonIdle")
                    .edge("MonIdle", "reqtot", "MonReq")
                    .edge("MonReq", "grant", "MonGranted")
                    .edge("MonGranted", "dmusiidata", "MonPayload")
                    .edge("MonPayload", "siincu", "MonDispatch")
                    .edge("MonDispatch", "mondoacknack", "MonDone")
                    .build(&catalog)
                    .expect("Mon flow is well-formed"),
            ),
        );

        flows.insert(
            FlowKind::DmaRead,
            Arc::new(
                FlowBuilder::new("DMA Read")
                    .state("DmarIdle")
                    .state("DmarAtSiu")
                    .state("DmarAtMcu")
                    .state("DmarData")
                    .stop_state("DmarDone")
                    .initial("DmarIdle")
                    .edge("DmarIdle", "dmarreq", "DmarAtSiu")
                    .edge("DmarAtSiu", "siumcurd", "DmarAtMcu")
                    .edge("DmarAtMcu", "mcurddata", "DmarData")
                    .edge("DmarData", "siudmurd", "DmarDone")
                    .build(&catalog)
                    .expect("DMAR flow is well-formed"),
            ),
        );
        flows.insert(
            FlowKind::DmaWrite,
            Arc::new(
                FlowBuilder::new("DMA Write")
                    .state("DmawIdle")
                    .state("DmawAtSiu")
                    .state("DmawAtMcu")
                    .stop_state("DmawDone")
                    .initial("DmawIdle")
                    .edge("DmawIdle", "dmawreq", "DmawAtSiu")
                    .edge("DmawAtSiu", "siumcuwr", "DmawAtMcu")
                    .edge("DmawAtMcu", "mcuwrack", "DmawDone")
                    .build(&catalog)
                    .expect("DMAW flow is well-formed"),
            ),
        );

        flows.insert(
            FlowKind::Coherence,
            Arc::new(
                FlowBuilder::new("Coherence")
                    .state("CohIdle")
                    .state("CohWait")
                    .state("CohShared")
                    .state("CohInval")
                    .state("CohOwned")
                    .stop_state("CohDone")
                    .initial("CohIdle")
                    .edge("CohIdle", "cohreq", "CohWait")
                    // Branch: the crossbar grants Shared directly, or goes
                    // Exclusive via an invalidate round trip.
                    .edge("CohWait", "gnts", "CohShared")
                    .edge("CohWait", "gntx", "CohInval")
                    .edge("CohInval", "inval", "CohOwned")
                    .edge("CohOwned", "invack", "CohShared")
                    .edge("CohShared", "cohfill", "CohDone")
                    .build(&catalog)
                    .expect("COH flow is well-formed"),
            ),
        );

        SocModel {
            catalog,
            flows,
            endpoints,
        }
    }

    /// The shared message catalog.
    #[must_use]
    pub fn catalog(&self) -> &Arc<MessageCatalog> {
        &self.catalog
    }

    /// Returns a copy of the model with `kind`'s flow specification
    /// replaced by `flow` — the substitution point for *mined* flows: the
    /// capture side keeps the reference model while the analysis side
    /// (interleaving → selection → localization) runs on the inferred
    /// spec.
    ///
    /// # Panics
    ///
    /// Panics when `flow` was not built against this model's catalog:
    /// message identities must be shared for selection and localization
    /// to be comparable.
    #[must_use]
    pub fn with_flow(&self, kind: FlowKind, flow: Arc<Flow>) -> SocModel {
        assert!(
            Arc::ptr_eq(flow.catalog(), &self.catalog),
            "replacement flow must share the model's message catalog"
        );
        let mut model = self.clone();
        model.flows.insert(kind, flow);
        model
    }

    /// The flow specification for `kind`.
    ///
    /// # Panics
    ///
    /// Never panics: every [`FlowKind`] is present in a constructed model.
    #[must_use]
    pub fn flow(&self, kind: FlowKind) -> &Arc<Flow> {
        &self.flows[&kind]
    }

    /// Source/destination IPs of `message`.
    #[must_use]
    pub fn endpoints(&self, message: MessageId) -> Option<IpPair> {
        self.endpoints.get(&message).copied()
    }

    /// The IP sourcing `message`, if known.
    #[must_use]
    pub fn source_ip(&self, message: MessageId) -> Option<Ip> {
        self.endpoints(message).map(|p| p.src)
    }

    /// Distinct legal IP pairs over the given messages (§5.6).
    #[must_use]
    pub fn legal_ip_pairs(&self, messages: &[MessageId]) -> Vec<IpPair> {
        let mut pairs: Vec<IpPair> = messages.iter().filter_map(|m| self.endpoints(*m)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_flow_substitutes_one_spec_and_keeps_the_rest() {
        let model = SocModel::t2();
        let replacement = Arc::new(
            FlowBuilder::new("mined-piowreq")
                .state("a")
                .stop_state("b")
                .initial("a")
                .edge("a", "piowreq", "b")
                .build(model.catalog())
                .expect("valid"),
        );
        let routed = model.with_flow(FlowKind::PioWrite, Arc::clone(&replacement));
        assert!(Arc::ptr_eq(routed.flow(FlowKind::PioWrite), &replacement));
        assert!(Arc::ptr_eq(
            routed.flow(FlowKind::PioRead),
            model.flow(FlowKind::PioRead)
        ));
        assert!(Arc::ptr_eq(routed.catalog(), model.catalog()));
    }

    #[test]
    #[should_panic(expected = "share the model's message catalog")]
    fn with_flow_rejects_foreign_catalogs() {
        let model = SocModel::t2();
        let mut other = MessageCatalog::new();
        other.intern("piowreq", 1);
        let foreign = Arc::new(
            FlowBuilder::new("foreign")
                .state("a")
                .stop_state("b")
                .initial("a")
                .edge("a", "piowreq", "b")
                .build(&Arc::new(other))
                .expect("valid"),
        );
        let _ = model.with_flow(FlowKind::PioWrite, foreign);
    }

    #[test]
    fn flow_shapes_match_table_1() {
        let model = SocModel::t2();
        let expect = [
            (FlowKind::PioRead, 6, 5),
            (FlowKind::PioWrite, 3, 2),
            (FlowKind::NcuUpstream, 4, 3),
            (FlowKind::NcuDownstream, 3, 2),
            (FlowKind::Mondo, 6, 5),
            (FlowKind::DmaRead, 5, 4),
            (FlowKind::DmaWrite, 4, 3),
            (FlowKind::Coherence, 6, 6),
        ];
        for (kind, states, messages) in expect {
            let f = model.flow(kind);
            assert_eq!(f.state_count(), states, "{kind} states");
            assert_eq!(f.messages().len(), messages, "{kind} messages");
        }
    }

    #[test]
    fn dmusiidata_is_20_bits_with_6_bit_cputhreadid() {
        let model = SocModel::t2();
        let c = model.catalog();
        let d = c.get("dmusiidata").unwrap();
        assert_eq!(c.width(d), 20);
        let g = c.get_group("dmusiidata.cputhreadid").unwrap();
        assert_eq!(c.group(g).width(), 6);
    }

    #[test]
    fn every_message_has_endpoints() {
        let model = SocModel::t2();
        for (id, _) in model.catalog().iter() {
            assert!(model.endpoints(id).is_some(), "missing endpoints");
        }
    }

    #[test]
    fn siincu_is_shared_between_pior_and_mondo() {
        let model = SocModel::t2();
        let siincu = model.catalog().get("siincu").unwrap();
        assert!(model.flow(FlowKind::PioRead).messages().contains(&siincu));
        assert!(model.flow(FlowKind::Mondo).messages().contains(&siincu));
    }

    #[test]
    fn mondo_dispatch_is_atomic() {
        let model = SocModel::t2();
        let mon = model.flow(FlowKind::Mondo);
        assert_eq!(mon.atomic_states().len(), 1);
        assert_eq!(mon.state_name(mon.atomic_states()[0]), "MonDispatch");
    }

    #[test]
    fn dmu_sources_five_messages() {
        let model = SocModel::t2();
        let names: Vec<&str> = model
            .catalog()
            .iter()
            .filter(|&(m, _)| model.source_ip(m) == Some(Ip::Dmu))
            .map(|(m, _)| model.catalog().name(m))
            .collect();
        assert_eq!(
            names,
            ["dmupioack", "reqtot", "dmusiidata", "dmarreq", "dmawreq"]
        );
    }

    #[test]
    fn legal_pairs_deduplicate() {
        let model = SocModel::t2();
        let c = model.catalog();
        let msgs = [
            c.get("piorreq").unwrap(),
            c.get("piowreq").unwrap(), // same (CCX, NCU) pair
            c.get("grant").unwrap(),
        ];
        let pairs = model.legal_ip_pairs(&msgs);
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn abbrevs_match_table_1() {
        assert_eq!(FlowKind::PioRead.abbrev(), "PIOR");
        assert_eq!(FlowKind::Mondo.to_string(), "Mon");
        assert_eq!(FlowKind::ALL.len(), 8);
        assert_eq!(FlowKind::PAPER.len(), 5);
        assert_eq!(FlowKind::NcuUpstream.name(), "NCU Upstream");
    }
}
