//! Post-silicon diagnosis engine: path localization, IP-pair
//! investigation and root-cause pruning.
//!
//! Reproduces the debugging side of *Application Level Hardware Tracing
//! for Scaling Post-Silicon Debug* (DAC 2018, §5):
//!
//! * [`localize`] / [`consistent_paths`] — the §5.2 path-localization
//!   metric: the fraction of interleaved-flow paths consistent with the
//!   captured trace (exact for completed runs, prefix for hangs);
//! * [`OnlineLocalizer`] — the streaming form of the same DP: one decoded
//!   record folded in at a time, touching only the states that carry
//!   mass, bit-identical to the batch result at every prefix (the engine
//!   behind `pstrace-stream`);
//! * [`Comparison`] / [`Evidence`] / [`distill`] — per-record verdicts
//!   from a golden/buggy capture pair, folded into per-witness verdicts
//!   (healthy, corrupt, absent, unobserved);
//! * [`RootCause`] / [`scenario_causes`] / [`evaluate_causes`] — the
//!   a-priori cause catalogs of Table 1 (9/8/9 causes) with conjunctive
//!   failure signatures, and the elimination engine behind Figure 7 and
//!   the §5.7 walkthrough;
//! * [`investigate`] — the backtracking investigation walk over the same
//!   comparison, producing the Figure 6 elimination series and the Table
//!   6 statistics;
//! * [`run_case_study`] — the end-to-end select → inject → encode →
//!   decode → diagnose pipeline.
//!
//! # Examples
//!
//! ```
//! use pstrace_bug::case_studies;
//! use pstrace_diag::{run_case_study, CaseStudyConfig};
//! use pstrace_soc::SocModel;
//!
//! # fn main() -> Result<(), pstrace_core::SelectError> {
//! let model = SocModel::t2();
//! let cs = &case_studies()[0];
//! let report = run_case_study(&model, cs, CaseStudyConfig::default())?;
//! assert!(report.symptom.is_some());
//! assert!(report.path_localization() < 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod causes;
mod evidence;
mod localize;
mod online;
mod report;
mod walk;

pub use campaign::{run_campaign, CampaignStats, Summary};
pub use causes::{evaluate_causes, scenario_causes, CauseReport, CauseStatus, Clause, RootCause};
pub use evidence::{
    distill, index_to_kind, infer_flow_order, Comparison, Evidence, Verdict, Witness,
};
pub use localize::{
    consistent_paths, consistent_paths_bruteforce, localize, Localization, LocalizationStats,
    MatchMode,
};
pub use online::{Frontier, FrontierGauges, LocalizerProgram, OnlineLocalizer};
pub use report::{
    run_case_study, run_case_study_observed, run_case_study_routed, run_case_study_with_seed,
    CaseStudyConfig, CaseStudyReport, WireTripSummary,
};
pub use walk::{investigate, InvestigationWalk, WalkStep};
