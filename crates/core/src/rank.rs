//! Step 2: ranking candidate combinations by mutual information gain
//! (§3.2).
//!
//! One ranking rule (`rank_order`) and one scorer
//! ([`MiCache::combination_mi`]) serve two callers:
//!
//! * [`rank_combinations`] scores and ranks a given candidate list — the
//!   full ranked list `fig5` needs, and the exhaustive oracle in tests;
//! * `rank_near_best` is Step 2 of every selection (the
//!   [`Selector`](crate::Selector) and
//!   [`partitioned_select`](crate::partitioned_select)): a bounded search
//!   over per-message contributions (`search_near_best`), then an exact
//!   ranking of only the handful of sets the search collects. Its first
//!   entry is the winner of ranking every feasible combination, bit for
//!   bit, without enumerating them.

use std::cmp::Ordering;

use pstrace_flow::{InterleavedFlow, MessageCatalog, MessageId};
use pstrace_infogain::MiCache;

use crate::error::SelectError;

/// Most combinations Step 2 ranks exactly before giving up with
/// [`SelectError::CombinationLimitExceeded`].
const NEAR_BEST_LIMIT: usize = 2_000_000;

/// A candidate message combination annotated with its selection metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedCombination {
    /// The combination's messages, sorted ascending by id.
    pub messages: Vec<MessageId>,
    /// Mutual information gain over the interleaved flow.
    pub gain: f64,
    /// Total bit width `W(M)` of the combination.
    pub width: u32,
}

/// The deterministic ranking order: higher gain, then larger width (which
/// favours trace-buffer utilization), then lexicographically smaller
/// message ids.
fn rank_order(a: &RankedCombination, b: &RankedCombination) -> Ordering {
    b.gain
        .partial_cmp(&a.gain)
        .expect("mutual information is finite")
        .then(b.width.cmp(&a.width))
        .then(a.messages.cmp(&b.messages))
}

/// Scores one candidate against the cache.
fn score_one(combo: &[MessageId], catalog: &MessageCatalog, cache: &MiCache) -> RankedCombination {
    let mut messages = combo.to_vec();
    messages.sort_unstable();
    let gain = cache.combination_mi(&messages);
    let width = catalog.combination_width(messages.iter().copied());
    RankedCombination {
        messages,
        gain,
        width,
    }
}

/// Evaluates and ranks `candidates` by mutual information gain, highest
/// first, scoring each with `cache`, which must have been built for `flow`.
///
/// Ties are broken deterministically: higher gain, then larger width (which
/// favours trace-buffer utilization), then lexicographically smaller message
/// ids. The paper's running example selects `{ReqE, GntE}` under exactly
/// this rule.
#[must_use]
pub fn rank_combinations(
    flow: &InterleavedFlow,
    candidates: &[Vec<MessageId>],
    cache: &MiCache,
) -> Vec<RankedCombination> {
    let catalog = flow.catalog();
    let mut ranked: Vec<RankedCombination> = candidates
        .iter()
        .map(|combo| score_one(combo, catalog, cache))
        .collect();
    ranked.sort_by(rank_order);
    ranked
}

/// Step 2 over the combinations of `messages` that fit `budget_bits`:
/// collects the sets within rounding error of the best additive gain
/// ([`search_near_best`]) and ranks them with [`rank_combinations`]. The
/// first entry is the winner of ranking every feasible combination, bit
/// for bit; the list is empty when no single message fits.
///
/// # Errors
///
/// * [`SelectError::NoMessages`] if `messages` is empty;
/// * [`SelectError::CombinationLimitExceeded`] if more than two million
///   combinations lie within rounding error of the best gain.
pub(crate) fn rank_near_best(
    flow: &InterleavedFlow,
    messages: &[MessageId],
    budget_bits: u32,
    cache: &MiCache,
) -> Result<Vec<RankedCombination>, SelectError> {
    search_near_best(
        flow.catalog(),
        messages,
        budget_bits,
        cache,
        NEAR_BEST_LIMIT,
    )
    .map(|near| rank_combinations(flow, &near, cache))
}

/// Collects every non-empty combination of `messages` that fits
/// `budget_bits` and whose additive gain (the sum of its
/// [`MiCache::message_delta`]s) lies within rounding error of the best
/// additive gain `G*`. Ranking the collected sets with
/// [`rank_combinations`] yields the same first entry as ranking every
/// feasible combination.
///
/// Why the winner is always collected. Let `W` be the exhaustive winner
/// (the largest [`MiCache::combination_mi`] among feasible sets), `S*` the
/// set whose additive sum the knapsack reports as `G*`, `R(S)` the real
/// sum of a set's cached terms, and `b` =
/// [`MiCache::summation_error_bound`], which bounds the error of every
/// floating-point sum of cached terms in any order and association. Then,
/// for any floating-point evaluation `F(W)` of `W`'s additive gain,
///
/// ```text
/// F(W) ≥ R(W) − b                      (F sums W's terms)
///      ≥ combination_mi(W) − 2b        (so does combination_mi)
///      ≥ combination_mi(S*) − 2b       (W wins the exact ranking)
///      ≥ R(S*) − 3b
///      ≥ G* − 4b                       (G* sums S*'s terms).
/// ```
///
/// (If `S*` is empty, `R(W) ≥ 0 = G*` directly: every contribution is a
/// KL divergence times a probability, so non-negative in real arithmetic.)
/// The threshold is therefore `G* − 4b`. `b` uses `n·ε` for `γ_n ≈ n·ε/2`,
/// so the one rounding of the subtraction `G* − 4b` is covered too.
///
/// Pruning never drops `W`: the knapsack table holds, for each suffix of
/// messages and each remaining width, the best additive gain still
/// reachable, and rounding is monotone, so a node's `gain + best` is at
/// least a floating-point evaluation of `W`'s additive gain whenever the
/// node lies on `W`'s branch — which is at least the threshold by the
/// chain above.
///
/// # Errors
///
/// * [`SelectError::NoMessages`] if `messages` is empty;
/// * [`SelectError::CombinationLimitExceeded`] if more than `limit` sets
///   lie within the bound.
fn search_near_best(
    catalog: &MessageCatalog,
    messages: &[MessageId],
    budget_bits: u32,
    cache: &MiCache,
    limit: usize,
) -> Result<Vec<Vec<MessageId>>, SelectError> {
    if messages.is_empty() {
        return Err(SelectError::NoMessages);
    }
    let mut ids: Vec<MessageId> = messages.to_vec();
    ids.sort_unstable();
    ids.dedup();
    // (message, width, additive gain) of every message that fits alone.
    let items: Vec<(MessageId, usize, f64)> = ids
        .into_iter()
        .filter(|&m| catalog.width(m) <= budget_bits)
        .map(|m| (m, catalog.width(m) as usize, cache.message_delta(m)))
        .collect();

    // 0/1 knapsack over (message suffix, remaining bits): `best[i][c]` is
    // the largest additive gain of any subset of `items[i..]` within `c`
    // bits (the empty subset gives 0). Room past the total width of every
    // item changes nothing, so the table stops there.
    let cols = (budget_bits as usize).min(items.iter().map(|&(_, w, _)| w).sum()) + 1;
    let mut best = vec![0.0f64; (items.len() + 1) * cols];
    for (i, &(_, width, delta)) in items.iter().enumerate().rev() {
        for c in 0..cols {
            let skip = best[(i + 1) * cols + c];
            best[i * cols + c] = if width <= c {
                skip.max(delta + best[(i + 1) * cols + c - width])
            } else {
                skip
            };
        }
    }
    let threshold = best[cols - 1] - 4.0 * cache.summation_error_bound();

    let mut search = NearBest {
        items: &items,
        best: &best,
        cols,
        threshold,
        limit,
        current: Vec::new(),
        found: Vec::new(),
    };
    search.visit(0, cols - 1, 0.0)?;
    Ok(search.found)
}

/// Depth-first state of [`search_near_best`].
struct NearBest<'a> {
    items: &'a [(MessageId, usize, f64)],
    best: &'a [f64],
    cols: usize,
    threshold: f64,
    limit: usize,
    current: Vec<MessageId>,
    found: Vec<Vec<MessageId>>,
}

impl NearBest<'_> {
    /// Decides `items[i..]` with `room` bits left and `gain` collected.
    fn visit(&mut self, i: usize, room: usize, gain: f64) -> Result<(), SelectError> {
        if gain + self.best[i * self.cols + room] < self.threshold {
            return Ok(());
        }
        if i == self.items.len() {
            if !self.current.is_empty() {
                if self.found.len() >= self.limit {
                    return Err(SelectError::CombinationLimitExceeded { limit: self.limit });
                }
                self.found.push(self.current.clone());
            }
            return Ok(());
        }
        let (message, width, delta) = self.items[i];
        if width <= room {
            self.current.push(message);
            self.visit(i + 1, room - width, gain + delta)?;
            self.current.pop();
        }
        self.visit(i + 1, room, gain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::enumerate_combinations;
    use pstrace_flow::{examples::cache_coherence, instantiate, InterleavedFlow};
    use std::sync::Arc;

    fn product() -> InterleavedFlow {
        let (flow, _) = cache_coherence();
        InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap()
    }

    #[test]
    fn running_example_selects_reqe_gnte() {
        let u = product();
        let catalog = u.catalog().clone();
        let candidates = enumerate_combinations(&catalog, &u.message_alphabet(), 2, 100).unwrap();
        let ranked = rank_combinations(&u, &candidates, &MiCache::new(&u));
        assert_eq!(ranked.len(), 6);
        let best = &ranked[0];
        let names: Vec<&str> = best.messages.iter().map(|&m| catalog.name(m)).collect();
        assert_eq!(names, ["ReqE", "GntE"]);
        assert!((best.gain - 1.073).abs() < 1e-3);
        assert_eq!(best.width, 2);
        // Ranking is monotone non-increasing in gain.
        for w in ranked.windows(2) {
            assert!(w[0].gain >= w[1].gain);
        }
    }

    #[test]
    fn pairs_beat_singletons_in_the_running_example() {
        let u = product();
        let catalog = u.catalog().clone();
        let candidates = enumerate_combinations(&catalog, &u.message_alphabet(), 2, 100).unwrap();
        let ranked = rank_combinations(&u, &candidates, &MiCache::new(&u));
        let (pairs, singles): (Vec<_>, Vec<_>) = ranked.iter().partition(|r| r.messages.len() == 2);
        let min_pair = pairs.iter().map(|r| r.gain).fold(f64::MAX, f64::min);
        let max_single = singles.iter().map(|r| r.gain).fold(0.0, f64::max);
        assert!(min_pair > max_single);
    }

    #[test]
    fn ranking_is_deterministic_under_permutation() {
        let u = product();
        let catalog = u.catalog().clone();
        let mut candidates =
            enumerate_combinations(&catalog, &u.message_alphabet(), 3, 100).unwrap();
        let ranked_a = rank_combinations(&u, &candidates, &MiCache::new(&u));
        candidates.reverse();
        let ranked_b = rank_combinations(&u, &candidates, &MiCache::new(&u));
        assert_eq!(ranked_a, ranked_b);
    }

    #[test]
    fn search_collects_the_exhaustive_winner_and_few_others() {
        let u = product();
        let catalog = u.catalog().clone();
        let alphabet = u.message_alphabet();
        let cache = MiCache::new(&u);
        for bits in 1..=4 {
            let all = enumerate_combinations(&catalog, &alphabet, bits, 100).unwrap();
            let near = search_near_best(&catalog, &alphabet, bits, &cache, 100).unwrap();
            assert!(!near.is_empty() && near.len() <= all.len());
            assert!(near.iter().all(|c| all.contains(c)), "{bits} bits");
            assert_eq!(
                rank_combinations(&u, &near, &cache)[0],
                rank_combinations(&u, &all, &cache)[0],
                "{bits} bits"
            );
        }
    }

    #[test]
    fn search_finds_nothing_when_no_message_fits() {
        let u = product();
        let cache = MiCache::new(&u);
        let near = search_near_best(u.catalog(), &u.message_alphabet(), 0, &cache, 100).unwrap();
        assert!(near.is_empty());
    }

    #[test]
    fn search_limit_surfaces() {
        let u = product();
        let cache = MiCache::new(&u);
        let err = search_near_best(u.catalog(), &u.message_alphabet(), 2, &cache, 0).unwrap_err();
        assert_eq!(err, SelectError::CombinationLimitExceeded { limit: 0 });
    }
}
