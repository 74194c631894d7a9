//! The end-to-end message selection pipeline (§3, Steps 1–3).

use pstrace_flow::{GroupId, InterleavedFlow, MessageId};
use pstrace_infogain::MiCache;
use pstrace_obs::{maybe_time, Registry};

use crate::buffer::TraceBufferSpec;
use crate::coverage::flow_spec_coverage;
use crate::error::SelectError;
use crate::packing::{pack, Packing};
use crate::rank::{rank_near_best, RankedCombination};

/// Configuration of a [`Selector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionConfig {
    /// The trace buffer width constraint.
    pub buffer: TraceBufferSpec,
    /// Whether to run the Step 3 packing loop.
    pub packing: bool,
}

impl SelectionConfig {
    /// Paper-faithful defaults for the given buffer: packing enabled.
    #[must_use]
    pub fn new(buffer: TraceBufferSpec) -> Self {
        SelectionConfig {
            buffer,
            packing: true,
        }
    }
}

/// The full outcome of a selection run. Experiments that need every
/// ranked candidate (e.g. the paper's Figure 5 correlation study) rank
/// them with [`enumerate_combinations`](crate::enumerate_combinations) and
/// [`rank_combinations`](crate::rank_combinations).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionReport {
    /// The winning combination of Step 2: the first of every width-feasible
    /// combination under the ranking rule of
    /// [`rank_combinations`](crate::rank_combinations).
    pub chosen: RankedCombination,
    /// Subgroups packed in Step 3 (empty when packing is disabled).
    pub packed_groups: Vec<GroupId>,
    /// Effective message set: chosen messages plus packed-subgroup parents.
    pub effective_messages: Vec<MessageId>,
    /// Bits occupied before packing.
    pub width_unpacked: u32,
    /// Bits occupied after packing.
    pub width_packed: u32,
    /// Buffer utilization before packing.
    pub utilization_unpacked: f64,
    /// Buffer utilization after packing.
    pub utilization_packed: f64,
    /// Flow-spec coverage (Definition 7) before packing.
    pub coverage_unpacked: f64,
    /// Flow-spec coverage after packing.
    pub coverage_packed: f64,
    /// Mutual information gain after packing.
    pub gain_packed: f64,
}

impl SelectionReport {
    /// Utilization of the final (packed if enabled) selection.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.utilization_packed
    }

    /// Coverage of the final (packed if enabled) selection.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.coverage_packed
    }
}

/// Message selector implementing the paper's three-step methodology over
/// one interleaved flow.
///
/// # Examples
///
/// The running example end to end — 2-bit buffer, two concurrent
/// cache-coherence instances:
///
/// ```
/// use std::sync::Arc;
/// use pstrace_flow::{examples::cache_coherence, instantiate, InterleavedFlow};
/// use pstrace_core::{SelectionConfig, Selector, TraceBufferSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (flow, catalog) = cache_coherence();
/// let product = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2))?;
/// let config = SelectionConfig::new(TraceBufferSpec::new(2)?);
/// let report = Selector::new(&product, config).select()?;
///
/// let names: Vec<&str> = report
///     .chosen
///     .messages
///     .iter()
///     .map(|&m| catalog.name(m))
///     .collect();
/// assert_eq!(names, ["ReqE", "GntE"]);
/// assert!((report.chosen.gain - 1.073).abs() < 1e-3);
/// assert!((report.coverage() - 0.7333).abs() < 1e-4);
/// assert_eq!(report.utilization(), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Selector<'a> {
    flow: &'a InterleavedFlow,
    config: SelectionConfig,
}

impl<'a> Selector<'a> {
    /// Creates a selector over `flow` with `config`.
    #[must_use]
    pub fn new(flow: &'a InterleavedFlow, config: SelectionConfig) -> Self {
        Selector { flow, config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SelectionConfig {
        &self.config
    }

    /// Runs Steps 1–3 and returns the full report.
    ///
    /// Steps 1–2 pick the same combination as ranking every width-feasible
    /// combination would, bit for bit, but without enumerating them: a
    /// knapsack over per-message MI contributions bounds the best gain, a
    /// depth-first search collects the few combinations within rounding
    /// error of it, and only those are ranked exactly.
    ///
    /// # Errors
    ///
    /// * [`SelectError::NoMessages`] if the interleaving has no messages;
    /// * [`SelectError::CombinationLimitExceeded`] if more than two million
    ///   combinations lie within rounding error of the best gain.
    pub fn select(&self) -> Result<SelectionReport, SelectError> {
        self.select_observed(None)
    }

    /// [`select`](Selector::select) with optional instrumentation: with a
    /// registry, each pipeline phase (`mi-cache`, `rank` — the bounded
    /// search plus the exact ranking of what it collects —, `pack`,
    /// `coverage`) is timed as a span, and
    /// `pstrace_select_candidates_total` counts the combinations ranked
    /// exactly. The selection itself is bit-identical with and without a
    /// registry.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`select`](Selector::select).
    pub fn select_observed(&self, obs: Option<&Registry>) -> Result<SelectionReport, SelectError> {
        let flow = self.flow;
        let buffer = self.config.buffer;

        // One cache serves the Step 2 search and ranking and the Step 3
        // packing loop.
        let cache = maybe_time(obs, "mi-cache", || MiCache::new(flow));

        let ranked = maybe_time(obs, "rank", || {
            rank_near_best(flow, &flow.message_alphabet(), buffer.width_bits(), &cache)
        })?;
        if let Some(registry) = obs {
            registry
                .counter("pstrace_select_candidates_total")
                .add(ranked.len() as u64);
        }
        // No single message fits: Step 2 selects nothing and Step 3
        // packing gets the whole buffer.
        let chosen = ranked.into_iter().next().unwrap_or(RankedCombination {
            messages: Vec::new(),
            gain: 0.0,
            width: 0,
        });

        let width_unpacked = chosen.width;
        let utilization_unpacked = buffer.utilization(width_unpacked);

        let packing = if self.config.packing {
            maybe_time(obs, "pack", || pack(flow, &chosen.messages, buffer, &cache))
        } else {
            Packing {
                groups: Vec::new(),
                occupied_bits: width_unpacked,
                gain: chosen.gain,
            }
        };
        let effective_messages = packing.effective_messages(flow, &chosen.messages);
        let (coverage_unpacked, coverage_packed) = maybe_time(obs, "coverage", || {
            (
                flow_spec_coverage(flow, &chosen.messages),
                flow_spec_coverage(flow, &effective_messages),
            )
        });
        let utilization_packed = buffer.utilization(packing.occupied_bits);

        Ok(SelectionReport {
            chosen,
            packed_groups: packing.groups.clone(),
            effective_messages,
            width_unpacked,
            width_packed: packing.occupied_bits,
            utilization_unpacked,
            utilization_packed,
            coverage_unpacked,
            coverage_packed,
            gain_packed: packing.gain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_flow::{
        examples::cache_coherence, instantiate, FlowBuilder, FlowIndex, IndexedFlow, MessageCatalog,
    };
    use std::sync::Arc;

    fn running_example() -> InterleavedFlow {
        let (flow, _) = cache_coherence();
        InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap()
    }

    #[test]
    fn running_example_end_to_end() {
        let u = running_example();
        let config = SelectionConfig::new(TraceBufferSpec::new(2).unwrap());
        let report = Selector::new(&u, config).select().unwrap();
        let catalog = u.catalog();
        let names: Vec<&str> = report
            .chosen
            .messages
            .iter()
            .map(|&m| catalog.name(m))
            .collect();
        assert_eq!(names, ["ReqE", "GntE"]);
        assert!(report.packed_groups.is_empty(), "no subgroups declared");
        assert_eq!(report.width_unpacked, 2);
        assert_eq!(report.utilization(), 1.0);
        assert!((report.coverage() - 0.7333).abs() < 1e-4);
        assert!((report.gain_packed - 1.073).abs() < 1e-3);
    }

    #[test]
    fn packing_disabled_keeps_step2_result() {
        let u = running_example();
        let mut config = SelectionConfig::new(TraceBufferSpec::new(2).unwrap());
        config.packing = false;
        let report = Selector::new(&u, config).select().unwrap();
        assert_eq!(report.width_unpacked, report.width_packed);
        assert_eq!(report.coverage_unpacked, report.coverage_packed);
    }

    #[test]
    fn packing_improves_utilization_and_coverage_with_subgroups() {
        // One narrow and one wide message with a subgroup: the wide message
        // cannot be selected outright, but its subgroup packs.
        let mut catalog = MessageCatalog::new();
        catalog.intern("narrow", 2);
        let wide = catalog.intern("wide", 20);
        catalog.intern_group(wide, "field", 6);
        let catalog = Arc::new(catalog);
        let flow = FlowBuilder::new("f")
            .state("s0")
            .state("s1")
            .stop_state("s2")
            .initial("s0")
            .edge("s0", "narrow", "s1")
            .edge("s1", "wide", "s2")
            .build(&catalog)
            .unwrap();
        let u = InterleavedFlow::build(&[IndexedFlow::new(Arc::new(flow), FlowIndex(1))]).unwrap();

        let config = SelectionConfig::new(TraceBufferSpec::new(8).unwrap());
        let with_packing = Selector::new(&u, config).select().unwrap();
        let mut config_wo = config;
        config_wo.packing = false;
        let without = Selector::new(&u, config_wo).select().unwrap();

        assert!(with_packing.utilization() > without.utilization());
        assert!(with_packing.coverage() > without.coverage());
        assert_eq!(with_packing.packed_groups.len(), 1);
        assert_eq!(with_packing.effective_messages.len(), 2);
        assert_eq!(with_packing.width_packed, 8);
    }

    #[test]
    fn nothing_fits_falls_through_to_packing() {
        let mut catalog = MessageCatalog::new();
        let wide = catalog.intern("wide", 20);
        catalog.intern_group(wide, "field", 6);
        let catalog = Arc::new(catalog);
        let flow = FlowBuilder::new("f")
            .state("s0")
            .stop_state("s1")
            .initial("s0")
            .edge("s0", "wide", "s1")
            .build(&catalog)
            .unwrap();
        let u = InterleavedFlow::build(&[IndexedFlow::new(Arc::new(flow), FlowIndex(1))]).unwrap();
        let config = SelectionConfig::new(TraceBufferSpec::new(8).unwrap());
        let report = Selector::new(&u, config).select().unwrap();
        assert!(report.chosen.messages.is_empty());
        assert_eq!(report.packed_groups.len(), 1);
        assert!(report.coverage() > 0.0);
    }

    #[test]
    fn observed_selection_is_identical_and_times_every_phase() {
        let u = running_example();
        let config = SelectionConfig::new(TraceBufferSpec::new(2).unwrap());
        let selector = Selector::new(&u, config);
        let plain = selector.select().unwrap();
        let obs = pstrace_obs::Registry::with_clock(Box::new(pstrace_obs::ManualClock::new()));
        let observed = selector.select_observed(Some(&obs)).unwrap();
        assert_eq!(plain, observed);
        let phases: Vec<String> = obs.spans().iter().map(|s| s.name.clone()).collect();
        assert_eq!(phases, ["mi-cache", "rank", "pack", "coverage"]);
        // Running example at 2 bits: ReqE, GntE and Ack contribute equally,
        // so the three pairs tie in real arithmetic and all three are
        // re-ranked exactly; the three singletons are not.
        assert_eq!(obs.counter("pstrace_select_candidates_total").get(), 3);
    }
}
