//! Online path localization: fold one observed record at a time.
//!
//! The batch DP in [`localize`](crate::localize) recomputes the whole
//! `(product state × observation position)` table for every new
//! observation — diagnosing a growing trace of `N` records this way costs
//! `O(N² · edges)`. [`OnlineLocalizer`] keeps only the *frontier* of that
//! table — one dense column of path mass per product state — and advances
//! it by one column per record, staying bit-identical to
//! [`consistent_paths`] on every prefix of the observation.
//!
//! # What a push costs
//!
//! A push touches only the states that carry mass. The compiled
//! [`LocalizerProgram`] indexes the selected edges by label, so pushing
//! observation `o` walks the `o`-labeled edges whose source is in the
//! column's support, then closes the states they reach over unselected
//! edges in topological order. The cost is those matched edges plus the
//! unselected closure of what they reach — never a sweep over the whole
//! product. A push onto an empty frontier, or of a label no edge
//! carries, does nothing.
//!
//! The localizer keeps the support of its column next to the column, and
//! keeps the scratch column it builds the next one in **all-zero between
//! pushes**: a push writes only the states it reaches and then zeroes the
//! retired column's support, so no push ever clears a whole column.
//!
//! How each [`MatchMode`] is incrementalized:
//!
//! * **Exact** — the column is *start-anchored*: `F[s]` counts walks from
//!   an initial state to `s` whose projection onto the selected set is
//!   exactly the observation so far. Appending observation `o` rebuilds
//!   the column: selected edges matching `o` consume the previous column,
//!   unselected edges propagate within the new one. The count is the
//!   column mass over stop states.
//! * **Prefix** — same column; the count decomposes each matching path at
//!   the edge consuming the newest observation, weighting the selected
//!   inflow of every state by the precomputed unrestricted path count from
//!   that state to a stop state.
//! * **Suffix** — the column is *end-anchored*: `E[s]` counts walks from
//!   an initial state to `s` whose projection **ends with** the
//!   observation so far. It is seeded with the unrestricted walk counts
//!   (every projection ends with the empty observation) and advances with
//!   the same push; appending to the observation extends the matched
//!   suffix at the walk's end, so no previously folded record is ever
//!   revisited. The count is again the mass over stop states.
//! * **Substring** — counting *paths* (not occurrences) that contain the
//!   observation needs leftmost-occurrence disambiguation, which no fixed
//!   per-state frontier survives when the pattern grows. The localizer
//!   instead exploits monotonicity: the consistent set only shrinks as
//!   the observation grows, so once the count reaches zero every later
//!   push is `O(1)`. While the count is nonzero every push re-runs the
//!   batch automaton DP on the stored observation — `O(N · edges)` for
//!   an `N`-record observation, so `O(N² · edges)` over the live stretch
//!   of a stream. The end-anchored column is still maintained as the
//!   live occurrence frontier.
//!
//! Counts use the same saturating `u128` arithmetic as the batch DP;
//! prefix equality is exact whenever no intermediate count saturates
//! (astronomically far away for every modeled flow). Saturating addition
//! of non-negative values is order-independent, so visiting only the
//! live states yields exactly the values a full topological sweep would.
//!
//! # Resync
//!
//! On hostile silicon the observation itself can be corrupted: a damage
//! burst (dropped buffer region, storm of flipped bits) can push records
//! that no execution produces, after which the frontier is empty and —
//! because every mode is monotone — stays empty forever, even though the
//! post-burst stream is perfectly good. [`OnlineLocalizer::resync`] is
//! the escape hatch: it abandons the poisoned observation entirely, the
//! DP re-seeds as if the stream restarted, the localization collapses to
//! "unknown since record N" (reported via
//! [`OnlineLocalizer::unknown_since`]) and subsequent pushes narrow it
//! again. Counts after a resync are relative to the post-resync
//! observation — a designed degradation, visible in the report, instead
//! of a permanently dead frontier.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use pstrace_flow::{paths_to_stop, topological_order, IndexedMessage, InterleavedFlow, MessageId};
use pstrace_obs::Registry;

use crate::localize::{consistent_paths, Localization, MatchMode};

/// One dense DP column: path mass per product state, in state-index
/// order. This is the object [`OnlineLocalizer`] advances per record;
/// it is exposed so live consumers (dashboards, the stream daemon) can
/// watch the localization narrow without reading the counts alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frontier {
    values: Vec<u128>,
}

impl Frontier {
    /// The per-state mass, indexed by dense product-state index.
    #[must_use]
    pub fn values(&self) -> &[u128] {
        &self.values
    }

    /// Number of states carrying nonzero mass — the "width" of the
    /// frontier. A shrinking support is the live signature of an
    /// observation pinning down the execution.
    #[must_use]
    pub fn support(&self) -> usize {
        self.values.iter().filter(|&&v| v != 0).count()
    }

    /// Total mass across all states (saturating).
    #[must_use]
    pub fn mass(&self) -> u128 {
        self.values.iter().fold(0u128, |a, &v| a.saturating_add(v))
    }
}

/// The immutable half of an [`OnlineLocalizer`]: everything that is fixed
/// per `(flow, selected set, mode)` — topological order and ranks, the
/// per-label selected-edge index, per-state unselected out-edges,
/// continuation counts, path count and the seeded empty-observation
/// column. Built once by [`OnlineLocalizer::compile`] and shared through
/// an [`Arc`] by every localizer
/// [`from_program`](OnlineLocalizer::from_program) builds, so opening
/// another session over the same flow costs one column copy.
#[derive(Debug)]
pub struct LocalizerProgram {
    mode: MatchMode,
    /// Forward topological order of the product states (rank → state).
    topo: Vec<u32>,
    /// Each state's position in `topo` (state → rank).
    rank: Vec<u32>,
    /// Selected edges as `(source, target)`, grouped by label and sorted
    /// by it, so a push finds its label's edges by binary search.
    by_label: Vec<(IndexedMessage, Vec<(u32, u32)>)>,
    /// Targets of each state's unselected out-edges (indexed by state).
    unselected_out: Vec<Vec<u32>>,
    /// Stop states (dense indices).
    stops: Vec<u32>,
    /// Unrestricted path count from each state to a stop state
    /// (the Prefix-mode continuation weights).
    to_stop: Vec<u128>,
    /// All root-to-stop paths of the interleaving.
    total: u128,
    /// The column and count for the empty observation: the state every
    /// localizer starts from and every resync returns to.
    seed: Vec<u128>,
    /// The states with nonzero mass in `seed`.
    seed_support: Vec<u32>,
    seed_consistent: u128,
    selected: Vec<MessageId>,
    /// The flow, kept only by [`MatchMode::Substring`] for its batch
    /// recompute.
    flow: Option<Arc<InterleavedFlow>>,
}

impl LocalizerProgram {
    /// The selected message set the program was compiled for.
    #[must_use]
    pub fn selected(&self) -> &[MessageId] {
        &self.selected
    }

    /// Mass of `column` over the stop states.
    fn stop_mass(&self, column: &[u128]) -> u128 {
        self.stops
            .iter()
            .fold(0u128, |a, &s| a.saturating_add(column[s as usize]))
    }

    /// The selected edges labeled `m`, as `(source, target)`.
    fn edges_labeled(&self, m: IndexedMessage) -> &[(u32, u32)] {
        self.by_label
            .binary_search_by_key(&m, |&(label, _)| label)
            .map_or(&[], |i| &self.by_label[i].1)
    }
}

/// The states with nonzero mass in `column`.
fn support_of(column: &[u128]) -> impl Iterator<Item = u32> + '_ {
    column
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0)
        .map(|(s, _)| s as u32)
}

/// Streaming counterpart of [`localize`](crate::localize): construct it
/// with the interleaving, the selected message set and a [`MatchMode`],
/// then [`push`](OnlineLocalizer::push) each observed record as it
/// arrives. After `N` pushes, [`consistent`](OnlineLocalizer::consistent)
/// equals `consistent_paths(flow, &observed[..N], selected, mode)`.
///
/// A localizer is a shared, immutable [`LocalizerProgram`] plus its own
/// DP state; [`compile`](OnlineLocalizer::compile) the program once and
/// build any number of independent localizers from it with
/// [`from_program`](OnlineLocalizer::from_program).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pstrace_flow::{examples::cache_coherence, instantiate, FlowIndex, IndexedMessage, InterleavedFlow};
/// use pstrace_diag::{consistent_paths, MatchMode, OnlineLocalizer};
///
/// # fn main() -> Result<(), pstrace_flow::FlowError> {
/// let (flow, catalog) = cache_coherence();
/// let u = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2))?;
/// let req = catalog.get("ReqE").unwrap();
/// let gnt = catalog.get("GntE").unwrap();
/// let selected = [req, gnt];
/// let observed = [
///     IndexedMessage::new(req, FlowIndex(1)),
///     IndexedMessage::new(gnt, FlowIndex(1)),
///     IndexedMessage::new(req, FlowIndex(2)),
/// ];
/// let mut online = OnlineLocalizer::new(&u, &selected, MatchMode::Prefix);
/// for (n, &m) in observed.iter().enumerate() {
///     online.push(m);
///     assert_eq!(
///         online.consistent(),
///         consistent_paths(&u, &observed[..=n], &selected, MatchMode::Prefix),
///     );
/// }
/// assert_eq!(online.consistent(), 1); // pinned down from 6 interleavings
///
/// // A second localizer over the same compiled program starts fresh.
/// let program = OnlineLocalizer::compile(&u, &selected, MatchMode::Prefix);
/// let other = OnlineLocalizer::from_program(Arc::clone(&program));
/// assert_eq!(other.consistent(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OnlineLocalizer {
    program: Arc<LocalizerProgram>,
    /// The live DP column.
    column: Frontier,
    /// The states with nonzero mass in `column`, in no particular order.
    support: Vec<u32>,
    /// The next column while a push builds it; all-zero between pushes.
    scratch: Vec<u128>,
    /// The states with nonzero mass in `scratch` while a push builds it;
    /// empty between pushes.
    scratch_support: Vec<u32>,
    /// Topological ranks of reached states still to close over their
    /// unselected out-edges; empty between pushes.
    pending: BinaryHeap<Reverse<u32>>,
    consistent: u128,
    pushed: usize,
    /// Substring mode keeps the observation for the batch recompute;
    /// empty in the other modes.
    observed: Vec<IndexedMessage>,
    /// Times [`resync`](OnlineLocalizer::resync) was called.
    resyncs: usize,
    /// Records pushed before the most recent resync, when any.
    unknown_since: Option<usize>,
}

impl OnlineLocalizer {
    /// Builds the localizer for `flow` under the selected message set and
    /// match mode: [`compile`](OnlineLocalizer::compile) followed by
    /// [`from_program`](OnlineLocalizer::from_program).
    #[must_use]
    pub fn new(flow: &InterleavedFlow, selected: &[MessageId], mode: MatchMode) -> Self {
        OnlineLocalizer::from_program(OnlineLocalizer::compile(flow, selected, mode))
    }

    /// Compiles the immutable program for `flow` under the selected
    /// message set and match mode. Compilation runs a few
    /// `O(states + edges)` passes; no reference to `flow` is kept except
    /// in [`MatchMode::Substring`] (which keeps one shared copy for its
    /// batch recompute).
    #[must_use]
    pub fn compile(
        flow: &InterleavedFlow,
        selected: &[MessageId],
        mode: MatchMode,
    ) -> Arc<LocalizerProgram> {
        let n = flow.state_count();
        let topo: Vec<u32> = topological_order(flow)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        let mut rank = vec![0u32; n];
        for (r, &s) in topo.iter().enumerate() {
            rank[s as usize] = r as u32;
        }
        let mut by_label: BTreeMap<IndexedMessage, Vec<(u32, u32)>> = BTreeMap::new();
        let mut unselected_out = vec![Vec::new(); n];
        for e in flow.edges() {
            let (src, dst) = (e.from.index() as u32, e.to.index() as u32);
            if selected.contains(&e.message.message) {
                by_label.entry(e.message).or_default().push((src, dst));
            } else {
                unselected_out[src as usize].push(dst);
            }
        }
        let stops: Vec<u32> = flow
            .stop_states()
            .iter()
            .map(|s| s.index() as u32)
            .collect();
        // Unrestricted continuation counts: paths from s to a stop state.
        let to_stop = paths_to_stop(flow);
        let total = flow
            .initial_states()
            .iter()
            .fold(0u128, |a, s| a.saturating_add(to_stop[s.index()]));

        // The empty-observation column. Start-anchored modes close the
        // initial states over unselected edges only (walks whose
        // projection is exactly empty); end-anchored modes take the
        // unrestricted walk counts (every projection ends with ε).
        let end_anchored = matches!(mode, MatchMode::Suffix | MatchMode::Substring);
        let mut seed = vec![0u128; n];
        for &s in flow.initial_states() {
            seed[s.index()] = 1;
        }
        for &u in &topo {
            let mass = seed[u as usize];
            if mass == 0 {
                continue;
            }
            for e in flow.edges_from(flow.state_at(u as usize)) {
                if end_anchored || !selected.contains(&e.message.message) {
                    let next = &mut seed[e.to.index()];
                    *next = next.saturating_add(mass);
                }
            }
        }

        let mut program = LocalizerProgram {
            mode,
            topo,
            rank,
            by_label: by_label.into_iter().collect(),
            unselected_out,
            stops,
            to_stop,
            total,
            seed_support: support_of(&seed).collect(),
            seed,
            seed_consistent: 0,
            selected: selected.to_vec(),
            flow: (mode == MatchMode::Substring).then(|| Arc::new(flow.clone())),
        };
        program.seed_consistent = match mode {
            MatchMode::Exact => program.stop_mass(&program.seed),
            // Every path starts with / ends with / contains ε.
            MatchMode::Prefix | MatchMode::Suffix | MatchMode::Substring => program.total,
        };
        Arc::new(program)
    }

    /// A fresh localizer (empty observation) over a compiled program.
    /// Costs one column copy; the program itself is shared.
    #[must_use]
    pub fn from_program(program: Arc<LocalizerProgram>) -> Self {
        OnlineLocalizer {
            column: Frontier {
                values: program.seed.clone(),
            },
            support: program.seed_support.clone(),
            scratch: vec![0; program.seed.len()],
            scratch_support: Vec::new(),
            pending: BinaryHeap::new(),
            consistent: program.seed_consistent,
            pushed: 0,
            observed: Vec::new(),
            resyncs: 0,
            unknown_since: None,
            program,
        }
    }

    /// The shared program this localizer runs.
    #[must_use]
    pub fn program(&self) -> &Arc<LocalizerProgram> {
        &self.program
    }

    /// Advances the column by one observation, touching only the states
    /// that carry or receive mass. Returns the Prefix-mode decomposition
    /// sum: the selected inflow of each state weighted by its
    /// unrestricted continuation.
    fn advance(&mut self, m: IndexedMessage) -> u128 {
        if self.support.is_empty() {
            // The column is all-zero, and stays so until a resync.
            return 0;
        }
        let p = &*self.program;
        let column = &mut self.column.values;
        let next = &mut self.scratch;
        let reached = &mut self.scratch_support;

        // Selected edges labeled `m` consume the old column.
        for &(src, dst) in p.edges_labeled(m) {
            let mass = column[src as usize];
            if mass != 0 {
                let slot = &mut next[dst as usize];
                if *slot == 0 {
                    reached.push(dst);
                }
                *slot = slot.saturating_add(mass);
            }
        }

        // Every state reached so far was reached by a matching edge.
        let mut dot = 0u128;
        for &s in reached.iter() {
            let s = s as usize;
            dot = dot.saturating_add(next[s].saturating_mul(p.to_stop[s]));
            if !p.unselected_out[s].is_empty() {
                self.pending.push(Reverse(p.rank[s]));
            }
        }

        // Unselected edges propagate within the new column. Popping in
        // topological order means every state's inflow is complete
        // before it passes its mass on.
        while let Some(Reverse(r)) = self.pending.pop() {
            let s = p.topo[r as usize] as usize;
            let mass = next[s];
            for &dst in &p.unselected_out[s] {
                let slot = &mut next[dst as usize];
                if *slot == 0 {
                    reached.push(dst);
                    if !p.unselected_out[dst as usize].is_empty() {
                        self.pending.push(Reverse(p.rank[dst as usize]));
                    }
                }
                *slot = slot.saturating_add(mass);
            }
        }

        // Retire the old column so it is all-zero when it becomes the
        // next push's scratch.
        for &s in &self.support {
            column[s as usize] = 0;
        }
        std::mem::swap(column, next);
        std::mem::swap(&mut self.support, reached);
        reached.clear();
        dot
    }

    /// Folds one observed record into the localization.
    pub fn push(&mut self, m: IndexedMessage) {
        match self.program.mode {
            MatchMode::Exact | MatchMode::Suffix => {
                self.advance(m);
                self.consistent = self.program.stop_mass(&self.column.values);
            }
            MatchMode::Prefix => {
                self.consistent = self.advance(m);
            }
            MatchMode::Substring => {
                self.advance(m);
                self.observed.push(m);
                // Monotone: once no path contains the observation, no
                // extension can match — every further push is O(1).
                // While it is nonzero this is an O(N · edges) batch run.
                if self.consistent != 0 {
                    let p = &*self.program;
                    let flow = p.flow.as_ref().expect("substring mode keeps the flow");
                    self.consistent = consistent_paths(flow, &self.observed, &p.selected, p.mode);
                }
            }
        }
        self.pushed += 1;
    }

    /// Folds a sequence of records in order. Once the frontier is empty
    /// it stays empty until a resync, so outside Substring mode (which
    /// keeps every observation) the rest of the batch is only counted:
    /// each such push would leave the localization at 0.
    pub fn push_all<I: IntoIterator<Item = IndexedMessage>>(&mut self, records: I) {
        let mut records = records.into_iter();
        while let Some(m) = records.next() {
            if self.support.is_empty() && self.program.mode != MatchMode::Substring {
                self.consistent = 0;
                self.pushed += 1 + records.count();
                return;
            }
            self.push(m);
        }
    }

    /// Paths consistent with everything pushed so far — bit-identical to
    /// [`consistent_paths`] over the same prefix.
    #[must_use]
    pub fn consistent(&self) -> u128 {
        self.consistent
    }

    /// All root-to-stop paths of the interleaving.
    #[must_use]
    pub fn total(&self) -> u128 {
        self.program.total
    }

    /// The current [`Localization`] (consistent / total).
    #[must_use]
    pub fn localization(&self) -> Localization {
        Localization {
            consistent: self.consistent,
            total: self.program.total,
        }
    }

    /// Records folded in so far.
    #[must_use]
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// The configured match mode.
    #[must_use]
    pub fn mode(&self) -> MatchMode {
        self.program.mode
    }

    /// The live DP column.
    #[must_use]
    pub fn frontier(&self) -> &Frontier {
        &self.column
    }

    /// Abandons the observation folded in so far and re-seeds the DP as
    /// if the stream restarted here: the count collapses back to the
    /// empty-observation value ("unknown since record
    /// [`unknown_since`](OnlineLocalizer::unknown_since)") and subsequent
    /// pushes narrow it again — relative to the post-resync observation
    /// only. This is the designed degradation path for damage bursts
    /// that would otherwise leave the monotone frontier empty forever.
    ///
    /// [`pushed`](OnlineLocalizer::pushed) keeps counting across resyncs.
    pub fn resync(&mut self) {
        self.column.values.clone_from(&self.program.seed);
        self.support.clone_from(&self.program.seed_support);
        self.consistent = self.program.seed_consistent;
        self.observed.clear();
        self.resyncs += 1;
        self.unknown_since = Some(self.pushed);
    }

    /// Times [`resync`](OnlineLocalizer::resync) was called.
    #[must_use]
    pub fn resyncs(&self) -> usize {
        self.resyncs
    }

    /// Records pushed before the most recent resync: the point since
    /// which the pre-gap execution is unknown. `None` while no resync
    /// has happened.
    #[must_use]
    pub fn unknown_since(&self) -> Option<usize> {
        self.unknown_since
    }

    /// Publishes the localizer's live state into `obs` as gauges:
    /// `pstrace_localizer_frontier_support` (states with nonzero mass),
    /// `pstrace_localizer_consistent_paths` and
    /// `pstrace_localizer_records_pushed` (counts saturate at `i64::MAX`).
    /// Stream sessions call this after each chunk so dashboards can watch
    /// the localization narrow.
    pub fn record_frontier(&self, obs: &Registry) {
        let clamp = |v: u128| i64::try_from(v).unwrap_or(i64::MAX);
        obs.gauge("pstrace_localizer_frontier_support")
            .set(i64::try_from(self.support.len()).unwrap_or(i64::MAX));
        obs.gauge("pstrace_localizer_consistent_paths")
            .set(clamp(self.consistent));
        obs.gauge("pstrace_localizer_records_pushed")
            .set(i64::try_from(self.pushed).unwrap_or(i64::MAX));
        obs.gauge("pstrace_localizer_resyncs")
            .set(i64::try_from(self.resyncs).unwrap_or(i64::MAX));
    }

    /// Zeroes the gauges [`OnlineLocalizer::record_frontier`] publishes.
    /// A session that ended has no live frontier; leaving its last state
    /// behind would read as current — and, summed across a sharded
    /// daemon's per-shard registries, would fabricate load that is not
    /// there.
    pub fn clear_frontier(obs: &Registry) {
        for name in [
            "pstrace_localizer_frontier_support",
            "pstrace_localizer_consistent_paths",
            "pstrace_localizer_records_pushed",
            "pstrace_localizer_resyncs",
        ] {
            obs.gauge(name).set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_flow::{
        examples::{cache_coherence, diamond},
        executions, instantiate, path_count, FlowIndex,
    };

    fn product(instances: u32) -> InterleavedFlow {
        let (flow, _) = cache_coherence();
        InterleavedFlow::build(&instantiate(&Arc::new(flow), instances)).unwrap()
    }

    const MODES: [MatchMode; 4] = [
        MatchMode::Exact,
        MatchMode::Prefix,
        MatchMode::Suffix,
        MatchMode::Substring,
    ];

    #[test]
    fn empty_observation_matches_batch_in_every_mode() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        for mode in MODES {
            let online = OnlineLocalizer::new(&u, &selected, mode);
            assert_eq!(
                online.consistent(),
                consistent_paths(&u, &[], &selected, mode),
                "{mode:?}"
            );
            assert_eq!(online.total(), path_count(&u));
            assert_eq!(online.pushed(), 0);
        }
    }

    #[test]
    fn record_frontier_publishes_live_gauges() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        let exec = executions(&u).next().expect("the product has executions");
        let observed = exec.project(&selected);
        let obs = Registry::new();
        for mode in MODES {
            let mut online = OnlineLocalizer::new(&u, &selected, mode);
            // The published support is the maintained one; it must equal
            // a full scan of the column at every point.
            let check = |online: &OnlineLocalizer, when: &str| {
                online.record_frontier(&obs);
                assert_eq!(
                    obs.gauge("pstrace_localizer_frontier_support").get() as usize,
                    online.frontier().support(),
                    "{mode:?} {when}"
                );
            };
            online.record_frontier(&obs);
            assert_eq!(obs.gauge("pstrace_localizer_records_pushed").get(), 0);
            assert!(obs.gauge("pstrace_localizer_frontier_support").get() > 0);
            check(&online, "seeded");
            for &m in &observed {
                online.push(m);
                check(&online, "after a push");
            }
            assert_eq!(
                obs.gauge("pstrace_localizer_records_pushed").get(),
                observed.len() as i64
            );
            assert_eq!(
                obs.gauge("pstrace_localizer_consistent_paths").get() as u128,
                online.consistent()
            );
            online.resync();
            check(&online, "after a resync");
            online.push(observed[0]);
            check(&online, "after a post-resync push");
        }
    }

    #[test]
    fn every_prefix_of_every_execution_matches_batch() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        for exec in executions(&u) {
            let observed = exec.project(&selected);
            for mode in MODES {
                let mut online = OnlineLocalizer::new(&u, &selected, mode);
                for (n, &m) in observed.iter().enumerate() {
                    online.push(m);
                    let batch = consistent_paths(&u, &observed[..=n], &selected, mode);
                    assert_eq!(online.consistent(), batch, "{mode:?} after {}", n + 1);
                    assert_eq!(online.pushed(), n + 1);
                }
            }
        }
    }

    #[test]
    fn branching_flows_match_batch_on_random_noise() {
        // Observations that are NOT projections of any execution (noise,
        // duplicates, unselected messages) must also track batch exactly.
        let (flow, _catalog) = diamond();
        let u = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap();
        let alphabet = u.message_alphabet();
        let selected = &alphabet[..alphabet.len() / 2];
        let ims = u.indexed_messages();
        // A deterministic pseudo-random walk over the indexed alphabet.
        let mut x = 0x9e3779b97f4a7c15u64;
        let noise: Vec<IndexedMessage> = (0..12)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ims[(x >> 33) as usize % ims.len()]
            })
            .collect();
        for mode in MODES {
            let mut online = OnlineLocalizer::new(&u, selected, mode);
            for (n, &m) in noise.iter().enumerate() {
                online.push(m);
                assert_eq!(
                    online.consistent(),
                    consistent_paths(&u, &noise[..=n], selected, mode),
                    "{mode:?} after {}",
                    n + 1
                );
            }
        }
    }

    #[test]
    fn unselected_observation_kills_the_count() {
        let u = product(2);
        let catalog = u.catalog();
        let req = catalog.get("ReqE").unwrap();
        let ack = catalog.get("Ack").unwrap();
        for mode in MODES {
            let mut online = OnlineLocalizer::new(&u, &[req], mode);
            // `Ack` is not selected: no projection can ever contain it.
            online.push(IndexedMessage::new(ack, FlowIndex(1)));
            assert_eq!(online.consistent(), 0, "{mode:?}");
            online.push(IndexedMessage::new(req, FlowIndex(1)));
            assert_eq!(online.consistent(), 0, "{mode:?} stays dead");
        }
    }

    #[test]
    fn frontier_tracks_walks_consistent_with_the_observation() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        let mut online = OnlineLocalizer::new(&u, &selected, MatchMode::Prefix);
        // Empty observation, start-anchored: only the unselected closure
        // of the initial states carries mass (Init's edges are selected).
        assert_eq!(online.frontier().support(), 1);
        online.push(IndexedMessage::new(selected[0], FlowIndex(1)));
        online.push(IndexedMessage::new(selected[1], FlowIndex(1)));
        assert!(online.frontier().support() > 0);
        assert!(online.frontier().mass() >= 1);
        assert_eq!(online.frontier().values().len(), u.state_count());
        // An impossible continuation empties the frontier for good.
        online.push(IndexedMessage::new(selected[1], FlowIndex(1)));
        assert_eq!(online.frontier().support(), 0);
        assert_eq!(online.frontier().mass(), 0);
        assert_eq!(online.consistent(), 0);
    }

    #[test]
    fn three_instance_product_matches_batch() {
        let u = product(3);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap()];
        let exec = executions(&u).nth(5).unwrap();
        let observed = exec.project(&selected);
        for mode in MODES {
            let mut online = OnlineLocalizer::new(&u, &selected, mode);
            online.push_all(observed.iter().copied());
            assert_eq!(
                online.consistent(),
                consistent_paths(&u, &observed, &selected, mode),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn resync_revives_a_dead_frontier_and_renarrows() {
        let u = product(2);
        let catalog = u.catalog();
        let req = catalog.get("ReqE").unwrap();
        let ack = catalog.get("Ack").unwrap();
        let selected = [req, catalog.get("GntE").unwrap()];
        let exec = executions(&u).next().unwrap();
        let observed = exec.project(&selected);
        for mode in MODES {
            let mut online = OnlineLocalizer::new(&u, &selected, mode);
            // An unselected observation kills the count in every mode.
            online.push(IndexedMessage::new(ack, FlowIndex(1)));
            assert_eq!(online.consistent(), 0, "{mode:?}");
            assert_eq!(online.resyncs(), 0);
            assert_eq!(online.unknown_since(), None);

            online.resync();
            assert_eq!(online.resyncs(), 1, "{mode:?}");
            assert_eq!(online.unknown_since(), Some(1));
            // The empty-observation count is back...
            assert_eq!(
                online.consistent(),
                consistent_paths(&u, &[], &selected, mode),
                "{mode:?} reseeded"
            );
            // ...and the post-resync observation narrows like a fresh
            // localizer fed only the post-gap records.
            for (n, &m) in observed.iter().enumerate() {
                online.push(m);
                assert_eq!(
                    online.consistent(),
                    consistent_paths(&u, &observed[..=n], &selected, mode),
                    "{mode:?} after resync push {}",
                    n + 1
                );
            }
            assert!(online.consistent() > 0, "{mode:?} re-narrowed, not dead");
            assert_eq!(
                online.pushed(),
                observed.len() + 1,
                "{mode:?} keeps counting"
            );
        }
    }

    #[test]
    fn resync_state_is_published() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap()];
        let mut online = OnlineLocalizer::new(&u, &selected, MatchMode::Prefix);
        online.push(IndexedMessage::new(
            catalog.get("ReqE").unwrap(),
            FlowIndex(1),
        ));
        online.resync();
        online.resync();
        assert_eq!(online.resyncs(), 2);
        assert_eq!(online.unknown_since(), Some(1));
        let obs = Registry::new();
        online.record_frontier(&obs);
        assert_eq!(obs.gauge("pstrace_localizer_resyncs").get(), 2);
    }

    /// Pushes `observed` one record at a time, asserting the count equals
    /// batch localization of the prefix after every push.
    fn assert_tracks_batch(
        online: &mut OnlineLocalizer,
        u: &InterleavedFlow,
        observed: &[IndexedMessage],
        selected: &[MessageId],
    ) {
        let mode = online.mode();
        for n in 0..observed.len() {
            online.push(observed[n]);
            assert_eq!(
                online.consistent(),
                consistent_paths(u, &observed[..=n], selected, mode),
                "{mode:?} after {}",
                n + 1
            );
        }
    }

    #[test]
    fn push_of_a_label_without_edges_matches_batch() {
        let u = product(2);
        let catalog = u.catalog();
        let req = catalog.get("ReqE").unwrap();
        let selected = [req, catalog.get("GntE").unwrap()];
        let exec = executions(&u).next().unwrap();
        // A selected message of an instance the product does not have:
        // no edge carries this label.
        let mut observed = vec![IndexedMessage::new(req, FlowIndex(9))];
        observed.extend(exec.project(&selected));
        for mode in MODES {
            let mut online = OnlineLocalizer::new(&u, &selected, mode);
            assert_tracks_batch(&mut online, &u, &observed, &selected);
            assert_eq!(online.consistent(), 0, "{mode:?}");
            assert_eq!(online.frontier().support(), 0, "{mode:?}");
        }
    }

    #[test]
    fn push_onto_an_empty_frontier_matches_batch() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        let exec = executions(&u).next().unwrap();
        let projection = exec.project(&selected);
        // The whole projection twice: the frontier dies partway through
        // the repeat and every later push lands on it empty.
        let observed: Vec<IndexedMessage> = projection.iter().chain(&projection).copied().collect();
        for mode in MODES {
            let mut online = OnlineLocalizer::new(&u, &selected, mode);
            assert_tracks_batch(&mut online, &u, &observed, &selected);
            assert_eq!(online.frontier().support(), 0, "{mode:?} died");
            online.push(projection[0]);
            assert_eq!(
                online.consistent(),
                consistent_paths(
                    &u,
                    &[&observed[..], &projection[..1]].concat(),
                    &selected,
                    mode
                ),
                "{mode:?}"
            );
            assert_eq!(online.frontier().mass(), 0, "{mode:?} stays dead");

            // A batch folded onto the dead frontier ends where pushing it
            // record by record does.
            let mut one_by_one = OnlineLocalizer::new(&u, &selected, mode);
            let mut batched = OnlineLocalizer::new(&u, &selected, mode);
            for m in observed.iter().chain(&projection) {
                one_by_one.push(*m);
            }
            batched.push_all(observed.iter().chain(&projection).copied());
            assert_eq!(
                batched.localization(),
                one_by_one.localization(),
                "{mode:?}"
            );
            assert_eq!(batched.pushed(), one_by_one.pushed(), "{mode:?}");
            assert_eq!(batched.pushed(), observed.len() + projection.len());
        }
    }

    #[test]
    fn localization_fraction_is_consistent_with_batch_localize() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("GntE").unwrap()];
        let exec = executions(&u).next().unwrap();
        let observed = exec.project(&selected);
        let mut online = OnlineLocalizer::new(&u, &selected, MatchMode::Exact);
        online.push_all(observed.iter().copied());
        let batch = crate::localize::localize(&u, &observed, &selected, MatchMode::Exact);
        assert_eq!(online.localization(), batch);
    }
}
