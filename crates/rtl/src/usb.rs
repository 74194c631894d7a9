//! A USB-function-core-like design for the §5.4 baseline comparison.
//!
//! The paper compares its flow-level selection against SigSeT and PRNet on
//! the opencores USB 2.0 function core, whose debug-relevant interface
//! signals are the ten of Table 4 (UTMI line speed, packet decoder, packet
//! assembler and protocol engine). This module builds a structurally
//! analogous gate-level design:
//!
//! * a *packet decoder* with an rx shift register, a bit counter and a PID
//!   register — plus a CRC16-style XOR chain, the classic magnet for
//!   SRR-based selection (its neighbours restore trivially);
//! * a *protocol engine* FSM producing `send_token`, `token_pid_sel` and
//!   `data_pid_sel` as outputs of deep combinational cones;
//! * a *packet assembler* with a tx shift register producing `tx_data`
//!   and `tx_valid`.
//!
//! On top of the netlist the module defines the two system-level flows of
//! the paper's USB usage scenario (a token transaction and a data
//! transaction) and the mapping from flow messages to the interface
//! signals that carry them.

use std::collections::HashMap;
use std::sync::Arc;

use pstrace_flow::{Flow, FlowBuilder, MessageCatalog, MessageId};

use crate::netlist::{Netlist, NetlistBuilder, SignalId};

/// The USB-like design: netlist plus flow-level view.
#[derive(Debug, Clone)]
pub struct UsbDesign {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Message catalog of the flow-level view.
    pub catalog: Arc<MessageCatalog>,
    /// The token-transaction and data-transaction flows.
    pub flows: Vec<Arc<Flow>>,
    /// Which interface signals carry each message.
    pub message_signals: HashMap<MessageId, Vec<SignalId>>,
    /// The strobe signal whose 1-cycles mark each message's occurrences.
    pub message_strobes: HashMap<MessageId, SignalId>,
    /// The ten Table 4 interface signals, in table order.
    pub interface_signals: Vec<SignalId>,
}

impl UsbDesign {
    /// Builds the design.
    ///
    /// # Panics
    ///
    /// Panics only if the built-in netlist or flow specifications are
    /// malformed, which is covered by tests.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn new() -> Self {
        let mut b = NetlistBuilder::new("usb");

        // ---- UTMI receive interface -----------------------------------
        let rx_data = b.input("rx_data");
        let rx_valid = b.input("rx_valid");
        let rx_active = b.input("rx_active");

        // ---- Endpoint buffer banks -------------------------------------
        // Four endpoint buffer controllers, structurally identical to the
        // packet decoder's datapath but irrelevant to the debug-critical
        // interface. Their registers restore exactly as well as the
        // decoder's, so SRR-guided selection — which is blind to debug
        // relevance — spends its budget here. This mirrors the scale
        // effect on the real USB core (§1: SRR methods reconstruct ≤ 26 %
        // of the required interface messages).
        for ep in 0..4 {
            let data = b.input(&format!("ep{ep}_data"));
            let valid = b.input(&format!("ep{ep}_valid"));
            let mut prev = data;
            for i in 0..8 {
                let q = b.placeholder(&format!("ep{ep}_sr{i}"));
                let d = b.mux(&format!("ep{ep}_sr{i}_d"), valid, prev, q);
                b.ff_into(q, d);
                prev = q;
            }
            let mut carry = valid;
            for i in 0..4 {
                let q = b.placeholder(&format!("ep{ep}_cnt{i}"));
                let d = b.xor(&format!("ep{ep}_cnt{i}_d"), q, carry);
                let c = b.and(&format!("ep{ep}_cnt{i}_c"), &[q, carry]);
                b.ff_into(q, d);
                carry = c;
            }
        }

        // A self-clocking tx scrambler ring — a second SRR magnet.
        let mut scr: Vec<SignalId> = Vec::new();
        for i in 0..20 {
            scr.push(b.placeholder(&format!("asm_scr{i}")));
        }
        let scr_fb = b.not("asm_scr_fb", scr[19]);
        b.ff_into(scr[0], scr_fb);
        for i in 1..20 {
            b.ff_into(scr[i], scr[i - 1]);
        }

        // ---- Packet decoder -------------------------------------------
        // 8-deep rx shift register, shift-enabled by rx_valid.
        let mut sr_prev = rx_data;
        let mut sr: Vec<SignalId> = Vec::new();
        for i in 0..8 {
            let q = b.placeholder(&format!("dec_sr{i}"));
            let d = b.mux(&format!("dec_sr{i}_d"), rx_valid, sr_prev, q);
            b.ff_into(q, d);
            sr.push(q);
            sr_prev = q;
        }
        // 4-bit ripple bit counter, counting rx_valid cycles.
        let mut carry = rx_valid;
        let mut cnt: Vec<SignalId> = Vec::new();
        for i in 0..4 {
            let q = b.placeholder(&format!("dec_cnt{i}"));
            let d = b.xor(&format!("dec_cnt{i}_d"), q, carry);
            let next_carry = b.and(&format!("dec_cnt{i}_c"), &[q, carry]);
            b.ff_into(q, d);
            cnt.push(q);
            carry = next_carry;
        }
        // PID register, loaded from the shift register when the counter
        // rolls past 8 bits.
        let pid_load = b.and("dec_pid_load", &[cnt[3], rx_valid]);
        let mut pid: Vec<SignalId> = Vec::new();
        for (i, &sr_tap) in sr.iter().take(4).enumerate() {
            let q = b.placeholder(&format!("dec_pid{i}"));
            let d = b.mux(&format!("dec_pid{i}_d"), pid_load, sr_tap, q);
            b.ff_into(q, d);
            pid.push(q);
        }
        // Self-clocking CRC/scrambler block, modeled as a 16-stage Johnson
        // ring: tracing any single stage restores the entire ring over
        // time (the classic SRR magnet), yet the ring carries zero
        // information about the interface.
        let mut crc: Vec<SignalId> = Vec::new();
        for i in 0..16 {
            crc.push(b.placeholder(&format!("dec_crc{i}")));
        }
        let crc_fb = b.not("dec_crc_fb", crc[15]);
        b.ff_into(crc[0], crc_fb);
        for i in 1..16 {
            b.ff_into(crc[i], crc[i - 1]);
        }
        // Decoder outputs (deep combinational cones — Table 4 signals).
        let n_cnt1 = b.not("dec_ncnt1", cnt[1]);
        let token_valid = b.and("token_valid", &[cnt[3], cnt[2], n_cnt1, pid[0]]);
        let rx_data_valid = b.and("rx_data_valid", &[rx_active, rx_valid, cnt[3]]);
        let n_rx_valid = b.not("dec_nrx_valid", rx_valid);
        let cnt_any = b.or("dec_cnt_any", &[cnt[0], cnt[1], cnt[2], cnt[3]]);
        let rx_data_done = b.and("rx_data_done", &[n_rx_valid, cnt_any, rx_active]);

        // ---- Protocol engine ------------------------------------------
        let st0 = b.placeholder("pe_st0");
        let st1 = b.placeholder("pe_st1");
        let n_done = b.not("pe_ndone", rx_data_done);
        let st0_hold = b.and("pe_st0_hold", &[st0, n_done]);
        let st0_d = b.or("pe_st0_d", &[token_valid, st0_hold]);
        b.ff_into(st0, st0_d);
        let st1_d = b.and("pe_st1_d", &[st0, rx_data_done]);
        b.ff_into(st1, st1_d);
        let send_token = b.and("send_token", &[st0, token_valid]);
        let token_pid_sel = b.and("token_pid_sel", &[st0, pid[0], pid[1]]);
        let data_pid_sel = b.and("data_pid_sel", &[st1, pid[1], pid[2]]);

        // ---- Packet assembler -----------------------------------------
        let mut tx_sr: Vec<SignalId> = Vec::new();
        let mut tx_prev = send_token;
        for i in 0..4 {
            let q = b.ff(&format!("asm_sr{i}"), tx_prev);
            tx_sr.push(q);
            tx_prev = q;
        }
        let tx_data = b.mux("tx_data", st1, tx_sr[3], pid[2]);
        let tx_valid = b.or("tx_valid", &[st0, st1]);

        let netlist = b.build().expect("usb netlist is well-formed");
        let _ = crc;

        // ---- Flow-level view ------------------------------------------
        let mut catalog = MessageCatalog::new();
        let m_token_in = catalog.intern("TOKEN_IN", 2);
        let m_token_valid = catalog.intern("TOKEN_VALID", 1);
        let m_send_token = catalog.intern("SEND_TOKEN", 2);
        let m_data_in = catalog.intern("DATA_IN", 2);
        let m_data_done = catalog.intern("DATA_DONE", 1);
        let m_data_pid = catalog.intern("DATA_PID", 1);
        let m_tx_out = catalog.intern("TX_OUT", 2);
        let catalog = Arc::new(catalog);

        let token_flow = FlowBuilder::new("usb token transaction")
            .state("TokIdle")
            .state("TokShift")
            .state("TokDecoded")
            .stop_state("TokDone")
            .initial("TokIdle")
            .edge("TokIdle", "TOKEN_IN", "TokShift")
            .edge("TokShift", "TOKEN_VALID", "TokDecoded")
            .edge("TokDecoded", "SEND_TOKEN", "TokDone")
            .build(&catalog)
            .expect("token flow is well-formed");
        let data_flow = FlowBuilder::new("usb data transaction")
            .state("DatIdle")
            .state("DatRecv")
            .state("DatDone")
            .state("DatPid")
            .stop_state("DatSent")
            .initial("DatIdle")
            .edge("DatIdle", "DATA_IN", "DatRecv")
            .edge("DatRecv", "DATA_DONE", "DatDone")
            .edge("DatDone", "DATA_PID", "DatPid")
            .edge("DatPid", "TX_OUT", "DatSent")
            .build(&catalog)
            .expect("data flow is well-formed");

        let mut message_signals = HashMap::new();
        message_signals.insert(m_token_in, vec![rx_data, rx_valid]);
        message_signals.insert(m_token_valid, vec![token_valid]);
        message_signals.insert(m_send_token, vec![send_token, token_pid_sel]);
        message_signals.insert(m_data_in, vec![rx_data_valid, rx_data]);
        message_signals.insert(m_data_done, vec![rx_data_done]);
        message_signals.insert(m_data_pid, vec![data_pid_sel]);
        message_signals.insert(m_tx_out, vec![tx_data, tx_valid]);

        // The strobe that marks an occurrence of each message on the
        // interface: a message "happens" on cycles where its strobe is 1.
        let mut message_strobes = HashMap::new();
        message_strobes.insert(m_token_in, rx_valid);
        message_strobes.insert(m_token_valid, token_valid);
        message_strobes.insert(m_send_token, send_token);
        message_strobes.insert(m_data_in, rx_data_valid);
        message_strobes.insert(m_data_done, rx_data_done);
        message_strobes.insert(m_data_pid, data_pid_sel);
        message_strobes.insert(m_tx_out, tx_valid);

        let interface_signals = vec![
            rx_data,
            rx_valid,
            rx_data_valid,
            token_valid,
            rx_data_done,
            tx_data,
            tx_valid,
            send_token,
            token_pid_sel,
            data_pid_sel,
        ];

        UsbDesign {
            netlist,
            catalog,
            flows: vec![Arc::new(token_flow), Arc::new(data_flow)],
            message_signals,
            message_strobes,
            interface_signals,
        }
    }

    /// Fraction of interface-message *occurrences* that a traced signal
    /// set reconstructs via state restoration (the §1 metric: "existing
    /// signal selection techniques could reconstruct no more than 26 % of
    /// required interface messages").
    ///
    /// An occurrence of a message is a cycle where its strobe is 1 in the
    /// reference simulation; it counts as reconstructed when restoration
    /// recovers **every** signal of the message at that cycle.
    #[must_use]
    pub fn message_reconstruction(
        &self,
        traced: &[SignalId],
        reference: &crate::sim::Waveform,
    ) -> f64 {
        let restored = crate::restore::restore(&self.netlist, traced, reference);
        let mut occurrences = 0usize;
        let mut reconstructed = 0usize;
        for (message, &strobe) in &self.message_strobes {
            let signals = &self.message_signals[message];
            for cycle in 0..reference.cycles() {
                if reference.get(cycle, strobe) != crate::logic::Trit::One {
                    continue;
                }
                occurrences += 1;
                if signals.iter().all(|&s| restored.get(cycle, s).is_known()) {
                    reconstructed += 1;
                }
            }
        }
        if occurrences == 0 {
            return 0.0;
        }
        reconstructed as f64 / occurrences as f64
    }

    /// The messages whose constituent signals are all within `signals`
    /// (fully reconstructable at the flow level).
    #[must_use]
    pub fn messages_covered_by(&self, signals: &[SignalId]) -> Vec<MessageId> {
        let mut out: Vec<MessageId> = self
            .message_signals
            .iter()
            .filter(|(_, sigs)| sigs.iter().all(|s| signals.contains(s)))
            .map(|(m, _)| *m)
            .collect();
        out.sort_unstable();
        out
    }

    /// The signals carrying the given messages (deduplicated, in message
    /// order).
    #[must_use]
    pub fn signals_of_messages(&self, messages: &[MessageId]) -> Vec<SignalId> {
        let mut out: Vec<SignalId> = Vec::new();
        for m in messages {
            if let Some(sigs) = self.message_signals.get(m) {
                for &s in sigs {
                    if !out.contains(&s) {
                        out.push(s);
                    }
                }
            }
        }
        out
    }
}

impl Default for UsbDesign {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restore::reconstruction_fraction;
    use crate::select::{prnet_select, sigset_select};
    use crate::sim::{simulate, RandomStimulus};
    use pstrace_core::{flow_spec_coverage, SelectionConfig, Selector, TraceBufferSpec};
    use pstrace_flow::{FlowIndex, IndexedFlow, InterleavedFlow};

    #[test]
    fn design_builds_with_table4_interface() {
        let usb = UsbDesign::new();
        assert_eq!(usb.interface_signals.len(), 10);
        for name in [
            "rx_data",
            "rx_valid",
            "rx_data_valid",
            "token_valid",
            "rx_data_done",
            "tx_data",
            "tx_valid",
            "send_token",
            "token_pid_sel",
            "data_pid_sel",
        ] {
            assert!(usb.netlist.signal(name).is_some(), "missing {name}");
        }
        assert!(usb.netlist.flops().len() >= 30, "enough internal state");
        assert_eq!(usb.flows.len(), 2);
        assert_eq!(usb.flows[0].messages().len(), 3);
        assert_eq!(usb.flows[1].messages().len(), 4);
    }

    #[test]
    fn sigset_selects_no_interface_signal() {
        // The paper's Table 4: SigSeT selects none of the debug-relevant
        // interface signals — SRR steers it to internal registers.
        let usb = UsbDesign::new();
        let reference = simulate(&usb.netlist, &RandomStimulus::new(&usb.netlist, 48, 2), 48);
        let picks = sigset_select(&usb.netlist, &reference, 8);
        assert_eq!(picks.len(), 8);
        for p in &picks {
            assert!(
                !usb.interface_signals.contains(p),
                "SigSeT unexpectedly selected interface signal {}",
                usb.netlist.signal_name(*p)
            );
        }
    }

    #[test]
    fn prnet_selects_some_but_not_all_interface_signals() {
        let usb = UsbDesign::new();
        let picks = prnet_select(&usb.netlist, 8);
        let interface_hits = picks
            .iter()
            .filter(|p| usb.interface_signals.contains(p))
            .count();
        assert!(interface_hits >= 1, "PRNet should reach some interface hub");
        assert!(
            interface_hits < usb.interface_signals.len(),
            "PRNet should not dominate the interface"
        );
    }

    #[test]
    fn info_gain_selects_all_interface_messages() {
        // §1 / §5.4: the flow-level method selects 100 % of the messages
        // required for debug.
        let usb = UsbDesign::new();
        let flows = vec![
            IndexedFlow::new(Arc::clone(&usb.flows[0]), FlowIndex(1)),
            IndexedFlow::new(Arc::clone(&usb.flows[1]), FlowIndex(2)),
        ];
        let u = InterleavedFlow::build(&flows).unwrap();
        // All 7 messages total 11 bits: an 11-bit buffer takes everything.
        let report = Selector::new(&u, SelectionConfig::new(TraceBufferSpec::new(11).unwrap()))
            .select()
            .unwrap();
        assert_eq!(report.chosen.messages.len(), 7);
        let signals = usb.signals_of_messages(&report.chosen.messages);
        for s in &usb.interface_signals {
            assert!(
                signals.contains(s),
                "{} missing",
                usb.netlist.signal_name(*s)
            );
        }
        // Full-alphabet coverage: everything but the initial state.
        let cov = flow_spec_coverage(&u, &report.chosen.messages);
        assert!(cov > 0.9);
    }

    #[test]
    fn baseline_coverage_is_far_below_info_gain() {
        // Table 4's punchline: 93.65 % vs 9 % / 23.8 % FSP coverage.
        let usb = UsbDesign::new();
        let flows = vec![
            IndexedFlow::new(Arc::clone(&usb.flows[0]), FlowIndex(1)),
            IndexedFlow::new(Arc::clone(&usb.flows[1]), FlowIndex(2)),
        ];
        let u = InterleavedFlow::build(&flows).unwrap();
        let reference = simulate(&usb.netlist, &RandomStimulus::new(&usb.netlist, 48, 2), 48);

        let budget = 8;
        let info = Selector::new(
            &u,
            SelectionConfig::new(TraceBufferSpec::new(budget as u32).unwrap()),
        )
        .select()
        .unwrap();
        let info_cov = flow_spec_coverage(&u, &info.chosen.messages);

        let sigset = sigset_select(&usb.netlist, &reference, budget);
        let sigset_cov = flow_spec_coverage(&u, &usb.messages_covered_by(&sigset));
        let prnet = prnet_select(&usb.netlist, budget);
        let prnet_cov = flow_spec_coverage(&u, &usb.messages_covered_by(&prnet));

        assert!(
            info_cov > 2.0 * prnet_cov.max(0.05),
            "info gain {info_cov:.3} vs prnet {prnet_cov:.3}"
        );
        assert!(
            info_cov > 2.0 * sigset_cov.max(0.05),
            "info gain {info_cov:.3} vs sigset {sigset_cov:.3}"
        );
        assert!(prnet_cov >= sigset_cov, "PRNet at least matches SigSeT");
    }

    #[test]
    fn srr_methods_reconstruct_few_interface_messages() {
        // §1: existing selection reconstructs no more than 26 % of the
        // required interface messages; flow-level selection gets 100 %.
        let usb = UsbDesign::new();
        // Seed re-pinned for the internal SplitMix64 stimulus stream (was 2
        // under external `rand`); seed 11 keeps the §1 shape.
        let reference = simulate(&usb.netlist, &RandomStimulus::new(&usb.netlist, 48, 11), 48);
        let sigset = sigset_select(&usb.netlist, &reference, 8);
        let frac =
            reconstruction_fraction(&usb.netlist, &sigset, &reference, &usb.interface_signals);
        assert!(
            frac < 0.5,
            "SRR selection reconstructs {frac:.2} of the interface"
        );
        // The flow method's signals trivially reconstruct themselves.
        let own =
            usb.signals_of_messages(&usb.catalog.iter().map(|(id, _)| id).collect::<Vec<_>>());
        let full = reconstruction_fraction(&usb.netlist, &own, &reference, &usb.interface_signals);
        assert_eq!(full, 1.0);
    }

    #[test]
    fn message_coverage_helpers() {
        let usb = UsbDesign::new();
        let rx_data = usb.netlist.signal("rx_data").unwrap();
        let rx_valid = usb.netlist.signal("rx_valid").unwrap();
        let token_in = usb.catalog.get("TOKEN_IN").unwrap();
        let covered = usb.messages_covered_by(&[rx_data, rx_valid]);
        assert!(covered.contains(&token_in));
        assert!(!usb.messages_covered_by(&[rx_data]).contains(&token_in));
    }
}
