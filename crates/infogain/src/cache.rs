//! Per-message mutual-information cache (the hot-path accelerator).
//!
//! [`JointDistribution::from_combination`](crate::JointDistribution) walks
//! every edge of the interleaving for every candidate combination, which
//! makes Step 2 of the paper quadratic-ish: `O(|candidates| · |edges|)`.
//! But the MI estimator has a special structure worth exploiting: every
//! edge of the interleaving is labeled by exactly one indexed message, each
//! indexed message belongs to exactly one catalog message, and both the
//! state prior `p_X(x) = 1/|S|` and the marginal denominator (the total
//! edge count) are *combination-independent*. The MI sum
//!
//! ```text
//! I(X;Y) = Σ_y Σ_x p(x,y)·log(p(x,y)/(p(x)·p(y)))
//! ```
//!
//! therefore decomposes exactly into per-indexed-message contributions that
//! can be computed once, in a single pass over the edges, and reused by
//! every combination containing that message.
//!
//! [`MiCache`] stores, for every catalog message, the list of its indexed
//! messages in first-edge order, each with its pre-computed MI summand
//! terms. [`MiCache::combination_mi`] then reproduces
//! `JointDistribution::from_combination(..).mutual_information()`
//! **bit-identically**: the from-scratch computation visits indexed
//! messages in first-encounter edge order and accumulates the per-state
//! terms left to right into a single accumulator, so replaying the cached
//! terms in the same merged order performs the exact same sequence of
//! floating-point additions.
//!
//! Every indexed message's contribution is `p(y)·KL(p(x|y) ‖ p(x))`, so
//! it is non-negative in real arithmetic, and contributions add up across
//! messages: [`MiCache::message_delta`] is the exact incremental gain of one
//! more message, and [`MiCache::summation_error_bound`] bounds how far any
//! floating-point sum of the cached terms can stray from the real one. Step
//! 2's bounded search is built on these two facts.

use pstrace_flow::{FlowIndex, InterleavedFlow, MessageId, ProductStateId};

/// One indexed message's cached slice of the MI sum.
#[derive(Debug, Clone)]
struct IndexedEntry {
    /// Position (in `flow.edges()` order) of the first edge labeled with
    /// this indexed message. Determines the merge order that makes
    /// [`MiCache::combination_mi`] bit-identical to the from-scratch sum.
    first_pos: usize,
    /// The MI summand `p(x,y)·log(p(x,y)/(p(x)·p(y)))` for each target
    /// state of this indexed message, in ascending state order (the order
    /// the from-scratch computation visits them).
    terms: Vec<f64>,
}

/// A catalog message's cached data: all its indexed instances.
#[derive(Debug, Clone, Default)]
struct MessageEntry {
    /// Indexed instances in first-edge order.
    ys: Vec<IndexedEntry>,
    /// Flat sum of all terms (one accumulator, ys then terms in order):
    /// the message's standalone MI, also its exact additive delta.
    contribution: f64,
}

/// Per-message MI cache (in nats) over one interleaved flow.
///
/// Build once per flow with [`MiCache::new`], then score any
/// number of combinations with [`MiCache::combination_mi`] — each scoring
/// costs a merge of the combination's cached term lists instead of a full
/// pass over the interleaving's edges.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pstrace_flow::{examples::cache_coherence, instantiate, InterleavedFlow};
/// use pstrace_infogain::{mutual_information, MiCache};
///
/// # fn main() -> Result<(), pstrace_flow::FlowError> {
/// let (flow, catalog) = cache_coherence();
/// let product = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2))?;
/// let cache = MiCache::new(&product);
///
/// let combo = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
/// // Bit-identical to the from-scratch computation, at a fraction of the
/// // cost when scoring many combinations.
/// assert_eq!(
///     cache.combination_mi(&combo),
///     mutual_information(&product, &combo),
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MiCache {
    /// Indexed by [`MessageId::index`]; messages that label no edge keep an
    /// empty entry.
    entries: Vec<MessageEntry>,
    state_count: usize,
    total_edges: u64,
    /// Number of cached terms, over every message.
    term_count: usize,
    /// `Σ |t|` over every cached term.
    abs_term_sum: f64,
}

impl MiCache {
    /// Builds the cache in one pass over `flow`'s edges.
    #[must_use]
    pub fn new(flow: &InterleavedFlow) -> Self {
        // Dense ids for indexed messages: `(message, flow index)` maps to
        // `dense[message · |indices| + position of the index]`, assigned in
        // first-encounter edge order (mirrors JointDistribution's
        // bookkeeping for the full-alphabet combination). An edge's indexed
        // message carries its slot's flow index, so the slot finds the
        // position; two slots that share a flow index share their indexed
        // messages, as they do there.
        let catalog_len = flow.catalog().len();
        let mut indices: Vec<FlowIndex> = flow.flows().iter().map(|f| f.index()).collect();
        indices.sort_unstable();
        indices.dedup();
        let slot_pos: Vec<usize> = flow
            .flows()
            .iter()
            .map(|f| {
                indices
                    .binary_search(&f.index())
                    .expect("every slot's index is listed")
            })
            .collect();
        let mut dense: Vec<u32> = vec![u32::MAX; catalog_len * indices.len()];
        let mut ys: Vec<(MessageId, usize)> = Vec::new(); // (message, first_pos)
        let mut targets: Vec<Vec<ProductStateId>> = Vec::new();
        for (pos, edge) in flow.edges().iter().enumerate() {
            let key = edge.message.message.index() * indices.len() + slot_pos[edge.slot];
            if dense[key] == u32::MAX {
                dense[key] = u32::try_from(ys.len()).expect("indexed message overflow");
                ys.push((edge.message.message, pos));
                targets.push(Vec::new());
            }
            targets[dense[key] as usize].push(edge.to);
        }

        let total_edges = flow.edge_count() as u64;
        let state_count = flow.state_count();
        let p_x = 1.0 / state_count as f64;

        let mut entries: Vec<MessageEntry> = vec![MessageEntry::default(); catalog_len];
        let (mut term_count, mut abs_term_sum) = (0usize, 0.0f64);
        // (run length, term) pairs already computed for the current y.
        let mut known: Vec<(usize, f64)> = Vec::new();
        for (&(message, first_pos), to) in ys.iter().zip(&mut targets) {
            // Exactly the summand sequence of
            // `JointDistribution::mutual_information` for this y: one term
            // per distinct target state, in ascending state order. A term
            // depends only on how many of y's edges enter its state, so
            // each distinct run length is computed once per y, by the
            // same operations on the same inputs.
            to.sort_unstable();
            let p_y = to.len() as f64 / total_edges as f64;
            let y_total = to.len() as f64;
            let mut terms: Vec<f64> = Vec::new();
            known.clear();
            let mut start = 0;
            while start < to.len() {
                let run = to[start..].iter().take_while(|&&s| s == to[start]).count();
                start += run;
                let term = match known.iter().find(|&&(r, _)| r == run) {
                    Some(&(_, term)) => term,
                    None => {
                        let p_x_given_y = run as f64 / y_total;
                        let p_xy = p_x_given_y * p_y;
                        let term = p_xy * (p_xy / (p_x * p_y)).ln();
                        known.push((run, term));
                        term
                    }
                };
                abs_term_sum += term.abs();
                terms.push(term);
            }
            term_count += terms.len();
            // ys are in edge-scan order, so each message's instances stay
            // sorted by first_pos.
            entries[message.index()]
                .ys
                .push(IndexedEntry { first_pos, terms });
        }
        for entry in &mut entries {
            let mut sum = 0.0;
            for y in &entry.ys {
                for &t in &y.terms {
                    sum += t;
                }
            }
            entry.contribution = sum;
        }

        MiCache {
            entries,
            state_count,
            total_edges,
            term_count,
            abs_term_sum,
        }
    }

    /// Number of product states `|S|` of the underlying interleaving.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Total number of edges of the underlying interleaving (the marginal
    /// denominator).
    #[must_use]
    pub fn total_edges(&self) -> u64 {
        self.total_edges
    }

    /// Mutual information of `combination`, bit-identical to
    /// [`JointDistribution::from_combination`](crate::JointDistribution::from_combination)
    /// followed by
    /// [`JointDistribution::mutual_information`](crate::JointDistribution::mutual_information).
    ///
    /// Duplicate message ids are ignored (as the from-scratch membership
    /// test does); messages that never label an edge contribute nothing.
    #[must_use]
    pub fn combination_mi(&self, combination: &[MessageId]) -> f64 {
        // Collect the combination's indexed messages and replay their
        // cached terms in global first-edge order — the exact visit order
        // of the from-scratch computation.
        let mut seen: Vec<MessageId> = Vec::with_capacity(combination.len());
        let mut ys: Vec<&IndexedEntry> = Vec::new();
        for &m in combination {
            if seen.contains(&m) {
                continue;
            }
            seen.push(m);
            if let Some(entry) = self.entries.get(m.index()) {
                ys.extend(entry.ys.iter());
            }
        }
        ys.sort_unstable_by_key(|y| y.first_pos);
        let mut total = 0.0;
        for y in ys {
            for &t in &y.terms {
                total += t;
            }
        }
        total
    }

    /// The exact incremental MI of adding `message` to any combination not
    /// already containing it: per-message contributions are disjoint, so
    /// `MI(C ∪ {m}) = MI(C) + message_delta(m)` in real arithmetic (in
    /// floating point the two sides differ by at most
    /// [`MiCache::summation_error_bound`] each; use
    /// [`MiCache::combination_mi`] where bit-stability matters).
    ///
    /// Returns `0.0` for messages that never label an edge.
    #[must_use]
    pub fn message_delta(&self, message: MessageId) -> f64 {
        self.entries
            .get(message.index())
            .map_or(0.0, |e| e.contribution)
    }

    /// An upper bound on the rounding error of *any* floating-point sum
    /// over *any* subset of the cached terms, in any order and any
    /// association (flat like [`MiCache::combination_mi`], or per-message
    /// [`MiCache::message_delta`]s added up).
    ///
    /// A sum of `k` floating-point numbers `x_i` computed by any binary
    /// tree of additions differs from the real sum by at most
    /// `γ_{k−1} · Σ|x_i|`, with `γ_k = k·u / (1 − k·u)` and unit roundoff
    /// `u = ε/2` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    /// §4.2). With `n` cached terms in all, `k ≤ n` and `n·u ≤ 1/2`, so
    /// `γ_{k−1} ≤ 2·n·u = n·ε`, and this returns `n · ε · Σ|t|` over every
    /// cached term.
    #[must_use]
    pub fn summation_error_bound(&self) -> f64 {
        self.term_count as f64 * f64::EPSILON * self.abs_term_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joint::JointDistribution;
    use pstrace_flow::{examples::cache_coherence, instantiate};
    use std::sync::Arc;

    fn product() -> (InterleavedFlow, Arc<pstrace_flow::MessageCatalog>) {
        let (flow, catalog) = cache_coherence();
        let u = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap();
        (u, catalog)
    }

    #[test]
    fn matches_scratch_bitwise_on_all_subsets() {
        let (u, catalog) = product();
        let all: Vec<MessageId> = catalog.iter().map(|(id, _)| id).collect();
        let cache = MiCache::new(&u);
        // All 2^n subsets of the running example's alphabet.
        for mask in 0u32..(1 << all.len()) {
            let combo: Vec<MessageId> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &m)| m)
                .collect();
            let cached = cache.combination_mi(&combo);
            let scratch = JointDistribution::from_combination(&u, &combo).mutual_information();
            assert_eq!(cached.to_bits(), scratch.to_bits(), "mask {mask:#b}");
        }
    }

    #[test]
    fn order_of_combination_does_not_matter() {
        let (u, catalog) = product();
        let cache = MiCache::new(&u);
        let req = catalog.get("ReqE").unwrap();
        let gnt = catalog.get("GntE").unwrap();
        assert_eq!(
            cache.combination_mi(&[req, gnt]).to_bits(),
            cache.combination_mi(&[gnt, req]).to_bits()
        );
    }

    #[test]
    fn duplicates_are_ignored() {
        let (u, catalog) = product();
        let cache = MiCache::new(&u);
        let req = catalog.get("ReqE").unwrap();
        assert_eq!(
            cache.combination_mi(&[req, req]).to_bits(),
            cache.combination_mi(&[req]).to_bits()
        );
    }

    #[test]
    fn deltas_are_additive_within_the_error_bound() {
        let (u, catalog) = product();
        let cache = MiCache::new(&u);
        let all: Vec<MessageId> = catalog.iter().map(|(id, _)| id).collect();
        let mut combo: Vec<MessageId> = Vec::new();
        let mut additive = 0.0;
        for &m in &all {
            additive += cache.message_delta(m);
            combo.push(m);
            let merged = cache.combination_mi(&combo);
            assert!(
                (additive - merged).abs() <= 2.0 * cache.summation_error_bound(),
                "additive {additive} vs merged {merged}"
            );
        }
    }

    #[test]
    fn empty_combination_is_zero() {
        let (u, _) = product();
        let cache = MiCache::new(&u);
        assert_eq!(cache.combination_mi(&[]), 0.0);
    }

    #[test]
    fn running_example_value() {
        let (u, catalog) = product();
        let cache = MiCache::new(&u);
        let combo = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        let gain = cache.combination_mi(&combo);
        assert!((gain - (2.0 / 3.0) * 5f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn messages_off_the_flow_contribute_nothing() {
        let (u, catalog) = product();
        let cache = MiCache::new(&u);
        let req = catalog.get("ReqE").unwrap();
        // A freshly interned message lies past the cache's catalog.
        let mut extended = (*catalog).clone();
        let bogus = extended.intern("NeverSent", 1);
        assert_eq!(cache.message_delta(bogus), 0.0);
        assert_eq!(
            cache.combination_mi(&[req, bogus]).to_bits(),
            cache.combination_mi(&[req]).to_bits()
        );
    }
}
