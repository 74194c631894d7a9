//! Path localization (§5.2): how far an observed trace narrows down the
//! interleaved-flow paths a buggy execution could have taken.
//!
//! The debugger sees only the selected messages. An interleaved-flow path
//! is *consistent* with the observed trace when projecting its full message
//! sequence onto the selected set reproduces the observation. Localization
//! is the consistent fraction of all root-to-stop paths — the smaller, the
//! less the debugger has to explore.

use std::fmt;

use pstrace_flow::{path_count, topological_order, IndexedMessage, InterleavedFlow, MessageId};

/// How observed traces are matched against path projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchMode {
    /// The observation is the complete projected trace of the execution
    /// (runs that terminated, unbounded trace buffer).
    Exact,
    /// The observation is a prefix of the projected trace (hung runs whose
    /// tail never happened).
    Prefix,
    /// The observation is a suffix of the projected trace (a circular
    /// trace buffer that wrapped: only the newest entries survived).
    Suffix,
    /// The observation appears contiguously somewhere inside the projected
    /// trace (a circular buffer that wrapped *and* the run hung: the
    /// surviving window is neither anchored at the start nor at the end).
    Substring,
}

/// Counts the root-to-stop paths of `flow` whose projection onto
/// `selected` matches `observed` under `mode`.
///
/// One dynamic program for every mode, over `(product state, matcher
/// state)`: the matcher state `q` is how much of `observed` the
/// projection has matched so far, and a path counts when it reaches a
/// stop state with `q == observed.len()`. The mode picks only the step a
/// selected message takes:
///
/// * start-anchored modes ([`Exact`](MatchMode::Exact),
///   [`Prefix`](MatchMode::Prefix)) treat a mismatch before the end of
///   `observed` as a dead state; the others fall back through KMP
///   failure links, which keeps the matcher deterministic and the count
///   free of double counting across overlapping alignments;
/// * end-anchored modes ([`Exact`](MatchMode::Exact),
///   [`Suffix`](MatchMode::Suffix)) leave the accepting state on a
///   further selected message; the others keep it absorbing.
///
/// Cost is `O((states + edges) × (observed.len() + 1))` matcher steps.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pstrace_flow::{examples::cache_coherence, instantiate, InterleavedFlow};
/// use pstrace_diag::{consistent_paths, MatchMode};
///
/// # fn main() -> Result<(), pstrace_flow::FlowError> {
/// use pstrace_flow::{FlowIndex, IndexedMessage};
/// let (flow, catalog) = cache_coherence();
/// let u = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2))?;
/// // §3.2: observing {1:ReqE, 1:GntE, 2:ReqE} with {ReqE, GntE} traced
/// // localizes the execution to a single path prefix: the atomic GntW
/// // state forces 1:Ack between 1:GntE and 2:ReqE.
/// let req = catalog.get("ReqE").unwrap();
/// let gnt = catalog.get("GntE").unwrap();
/// let observed = [
///     IndexedMessage::new(req, FlowIndex(1)),
///     IndexedMessage::new(gnt, FlowIndex(1)),
///     IndexedMessage::new(req, FlowIndex(2)),
/// ];
/// let hits = consistent_paths(&u, &observed, &[req, gnt], MatchMode::Prefix);
/// assert_eq!(hits, 1);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn consistent_paths(
    flow: &InterleavedFlow,
    observed: &[IndexedMessage],
    selected: &[MessageId],
    mode: MatchMode,
) -> u128 {
    let n = flow.state_count();
    let len = observed.len();
    let start_anchored = matches!(mode, MatchMode::Exact | MatchMode::Prefix);
    let end_anchored = matches!(mode, MatchMode::Exact | MatchMode::Suffix);

    // KMP failure function over the observed sequence (start-anchored
    // modes never fall back, so they never read it).
    let mut fail = vec![0usize; len + 1];
    for i in 1..len {
        let mut k = fail[i];
        while k > 0 && observed[i] != observed[k] {
            k = fail[k];
        }
        if observed[i] == observed[k] {
            k += 1;
        }
        fail[i + 1] = k;
    }
    // The matcher's step on one selected message; `None` is the dead
    // state.
    let step = |mut q: usize, m: IndexedMessage| -> Option<usize> {
        if q == len && !end_anchored {
            return Some(len);
        }
        loop {
            if q < len && observed[q] == m {
                return Some(q + 1);
            }
            if start_anchored {
                return None;
            }
            if q == 0 {
                return Some(0);
            }
            q = fail[q];
        }
    };

    // f[s][q] = paths from s (matcher in q) to a stop state whose
    // remaining projection drives the matcher to `len` at the end.
    let order = topological_order(flow);
    let mut f = vec![vec![0u128; len + 1]; n];
    for &s in flow.stop_states() {
        // Only the accepting state counts; an empty observation makes
        // state 0 the accepting state.
        f[s.index()][len] = 1;
    }
    for &u in order.iter().rev() {
        let state = flow.state_at(u);
        // Start from whatever stop-state seeding already placed there.
        let mut acc = f[u].clone();
        for e in flow.edges_from(state) {
            let to = e.to.index();
            if selected.contains(&e.message.message) {
                for (q, slot) in acc.iter_mut().enumerate() {
                    if let Some(q2) = step(q, e.message) {
                        *slot = slot.saturating_add(f[to][q2]);
                    }
                }
            } else {
                for (q, slot) in acc.iter_mut().enumerate() {
                    *slot = slot.saturating_add(f[to][q]);
                }
            }
        }
        f[u] = acc;
    }
    flow.initial_states()
        .iter()
        .fold(0u128, |a, s| a.saturating_add(f[s.index()][0]))
}

/// The localization report for one observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Localization {
    /// Paths consistent with the observation.
    pub consistent: u128,
    /// All root-to-stop paths of the interleaving.
    pub total: u128,
}

impl Localization {
    /// The localized fraction (`consistent / total`), the paper's Table 3
    /// metric.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.consistent as f64 / self.total as f64
    }
}

/// The one-line report every front end prints:
/// `C of T interleaved-flow paths (P.PP%)`.
impl fmt::Display for Localization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} interleaved-flow paths ({:.2}%)",
            self.consistent,
            self.total,
            self.fraction() * 100.0
        )
    }
}

/// Convenience wrapper computing both counts.
#[must_use]
pub fn localize(
    flow: &InterleavedFlow,
    observed: &[IndexedMessage],
    selected: &[MessageId],
    mode: MatchMode,
) -> Localization {
    Localization {
        consistent: consistent_paths(flow, observed, selected, mode),
        total: path_count(flow),
    }
}

/// Brute-force localization by explicit path enumeration — used by tests
/// and property checks to validate the DP. Exponential; only for small
/// interleavings.
#[must_use]
pub fn consistent_paths_bruteforce(
    flow: &InterleavedFlow,
    observed: &[IndexedMessage],
    selected: &[MessageId],
    mode: MatchMode,
) -> u128 {
    let mut count = 0u128;
    for exec in pstrace_flow::executions(flow) {
        let projected = exec.project(selected);
        let matches = match mode {
            MatchMode::Exact => projected == observed,
            MatchMode::Prefix => projected.starts_with(observed),
            MatchMode::Suffix => projected.ends_with(observed),
            MatchMode::Substring => {
                observed.is_empty() || projected.windows(observed.len()).any(|w| w == observed)
            }
        };
        if matches {
            count += 1;
        }
    }
    count
}

/// Groups observation sequences by their localization, for reporting.
#[derive(Debug, Clone, Default)]
pub struct LocalizationStats {
    fractions: Vec<f64>,
}

impl LocalizationStats {
    /// Creates empty stats.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one localization fraction.
    pub fn record(&mut self, fraction: f64) {
        self.fractions.push(fraction);
    }

    /// Mean localization fraction.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.fractions.is_empty() {
            return 0.0;
        }
        self.fractions.iter().sum::<f64>() / self.fractions.len() as f64
    }

    /// Worst (largest) localization fraction.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.fractions.iter().copied().fold(0.0, f64::max)
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fractions.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fractions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_flow::{examples::cache_coherence, executions, instantiate};
    use std::sync::Arc;

    fn two_instances() -> InterleavedFlow {
        let (flow, _) = cache_coherence();
        InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap()
    }

    #[test]
    fn paper_red_paths_example() {
        // The paper's §3.2 narrative: an observed trace over {ReqE, GntE}
        // immediately localizes the execution to a tiny number of paths.
        let u = two_instances();
        let catalog = u.catalog();
        let req = catalog.get("ReqE").unwrap();
        let gnt = catalog.get("GntE").unwrap();
        let one = pstrace_flow::FlowIndex(1);
        let two = pstrace_flow::FlowIndex(2);
        let observed = [
            IndexedMessage::new(req, one),
            IndexedMessage::new(gnt, one),
            IndexedMessage::new(req, two),
        ];
        let hits = consistent_paths(&u, &observed, &[req, gnt], MatchMode::Exact);
        // The projection is complete: with {ReqE, GntE} traced, 2:GntE
        // would also be captured, so "2:GntE missing" means instance 2
        // never got its grant before the run ended: prefix semantics.
        // Figure 2 highlights two graph paths, but under the full
        // Definition 5 semantics the atomic GntW state forces 1:Ack
        // between 1:GntE and 2:ReqE, leaving exactly one consistent
        // complete-path prefix.
        let prefix_hits = consistent_paths(&u, &observed, &[req, gnt], MatchMode::Prefix);
        assert_eq!(hits, 0, "exact: every complete path shows 2:GntE too");
        assert_eq!(prefix_hits, 1);
        assert_eq!(
            prefix_hits,
            consistent_paths_bruteforce(&u, &observed, &[req, gnt], MatchMode::Prefix)
        );
    }

    #[test]
    fn dp_matches_bruteforce_on_all_exact_observations() {
        let u = two_instances();
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        // Every execution's own projection must be consistent with itself,
        // and DP must agree with brute force.
        for exec in executions(&u) {
            let obs = exec.project(&selected);
            let dp = consistent_paths(&u, &obs, &selected, MatchMode::Exact);
            let bf = consistent_paths_bruteforce(&u, &obs, &selected, MatchMode::Exact);
            assert_eq!(dp, bf);
            assert!(dp >= 1);
        }
    }

    #[test]
    fn empty_selection_localizes_nothing() {
        let u = two_instances();
        let loc = localize(&u, &[], &[], MatchMode::Exact);
        assert_eq!(loc.consistent, loc.total);
        assert_eq!(loc.fraction(), 1.0);
    }

    #[test]
    fn display_is_the_report_line() {
        let loc = Localization {
            consistent: 1,
            total: 6,
        };
        assert_eq!(loc.to_string(), "1 of 6 interleaved-flow paths (16.67%)");
    }

    #[test]
    fn full_trace_localizes_to_one_path() {
        let u = two_instances();
        let all = u.message_alphabet();
        for exec in executions(&u) {
            let obs = exec.project(&all);
            let loc = localize(&u, &obs, &all, MatchMode::Exact);
            assert_eq!(loc.consistent, 1, "full observability pins the path");
        }
    }

    #[test]
    fn inconsistent_observation_matches_zero_paths() {
        let u = two_instances();
        let catalog = u.catalog();
        let ack = catalog.get("Ack").unwrap();
        let one = pstrace_flow::FlowIndex(1);
        // Two Acks from the same instance can never happen.
        let observed = [IndexedMessage::new(ack, one), IndexedMessage::new(ack, one)];
        assert_eq!(consistent_paths(&u, &observed, &[ack], MatchMode::Exact), 0);
    }

    #[test]
    fn prefix_mode_is_weaker_than_exact() {
        let u = two_instances();
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap()];
        let one = pstrace_flow::FlowIndex(1);
        let observed = [IndexedMessage::new(selected[0], one)];
        let exact = consistent_paths(&u, &observed, &selected, MatchMode::Exact);
        let prefix = consistent_paths(&u, &observed, &selected, MatchMode::Prefix);
        assert!(prefix >= exact);
    }

    #[test]
    fn suffix_mode_matches_bruteforce_exhaustively() {
        let u = two_instances();
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        // Every suffix of every execution's projection must be counted
        // identically by the automaton DP and brute force.
        for exec in executions(&u) {
            let projected = exec.project(&selected);
            for cut in 0..=projected.len() {
                let suffix = &projected[cut..];
                let dp = consistent_paths(&u, suffix, &selected, MatchMode::Suffix);
                let bf = consistent_paths_bruteforce(&u, suffix, &selected, MatchMode::Suffix);
                assert_eq!(dp, bf, "cut {cut}");
                assert!(dp >= 1, "own suffix must match");
            }
        }
    }

    #[test]
    fn empty_suffix_matches_every_path() {
        let u = two_instances();
        let catalog = u.catalog();
        let selected = [catalog.get("Ack").unwrap()];
        let dp = consistent_paths(&u, &[], &selected, MatchMode::Suffix);
        assert_eq!(dp, pstrace_flow::path_count(&u));
    }

    #[test]
    fn suffix_is_weaker_than_exact_and_incomparable_to_prefix() {
        let u = two_instances();
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        for exec in executions(&u) {
            let projected = exec.project(&selected);
            let exact = consistent_paths(&u, &projected, &selected, MatchMode::Exact);
            let suffix = consistent_paths(&u, &projected, &selected, MatchMode::Suffix);
            assert!(suffix >= exact);
        }
    }

    #[test]
    fn substring_mode_matches_bruteforce() {
        let u = two_instances();
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("Ack").unwrap()];
        for exec in executions(&u) {
            let projected = exec.project(&selected);
            for start in 0..projected.len() {
                for end in start..=projected.len() {
                    let window = &projected[start..end];
                    let dp = consistent_paths(&u, window, &selected, MatchMode::Substring);
                    let bf =
                        consistent_paths_bruteforce(&u, window, &selected, MatchMode::Substring);
                    assert_eq!(dp, bf);
                    assert!(dp >= 1, "own window must match");
                }
            }
        }
    }

    #[test]
    fn substring_is_the_weakest_mode() {
        let u = two_instances();
        let catalog = u.catalog();
        let selected = [catalog.get("GntE").unwrap()];
        for exec in executions(&u) {
            let projected = exec.project(&selected);
            for cut in 0..=projected.len() {
                let piece = &projected[..cut];
                let prefix = consistent_paths(&u, piece, &selected, MatchMode::Prefix);
                let substring = consistent_paths(&u, piece, &selected, MatchMode::Substring);
                assert!(substring >= prefix);
            }
        }
    }

    #[test]
    fn stats_aggregate() {
        let mut stats = LocalizationStats::new();
        assert!(stats.is_empty());
        stats.record(0.25);
        stats.record(0.75);
        assert_eq!(stats.len(), 2);
        assert!((stats.mean() - 0.5).abs() < 1e-12);
        assert_eq!(stats.max(), 0.75);
    }
}
