//! The empirical joint distribution of §3.2 over an interleaved flow.
//!
//! The paper associates two random variables with an interleaved flow `U`:
//!
//! * `X` — the product state `U` is in, uniform over `S`
//!   (`p_X(x) = 1/|S|`);
//! * `Y` — the indexed message observed, for a *candidate message
//!   combination* `Y'`. Its marginal is estimated by edge counting:
//!   `p_Y(y) = (#edges labeled y) / (#edges labeled with ANY indexed
//!   message)` — note the denominator counts **all** edges of the
//!   interleaving, not just the selected ones, exactly as in the worked
//!   example (`p(y) = 3/18` with 18 total edges). For a strict subset of
//!   the alphabet `Σ_y p_Y(y) < 1`; the residual mass is the unobserved
//!   "no selected message" event, which contributes nothing to the mutual
//!   information sum.
//!
//! The conditional `p(x|y)` is the fraction of `y`-labeled edges entering
//! `x`, and the joint is `p(x, y) = p(x|y)·p(y)`.

use std::collections::HashMap;

use pstrace_flow::{IndexedMessage, InterleavedFlow, MessageId, ProductStateId};

/// Empirical joint distribution of interleaved-flow states `X` and indexed
/// messages `Y` for one candidate message combination.
///
/// Exposes the marginals, conditionals and joint probabilities used in the
/// mutual-information computation so callers can audit intermediate values.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pstrace_flow::{examples::cache_coherence, instantiate, InterleavedFlow};
/// use pstrace_infogain::JointDistribution;
///
/// # fn main() -> Result<(), pstrace_flow::FlowError> {
/// let (flow, catalog) = cache_coherence();
/// let product = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2))?;
/// let combo = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
/// let joint = JointDistribution::from_combination(&product, &combo);
///
/// // Worked example of §3.2: I(X; Y₁) = 1.073 (nats).
/// let gain = joint.mutual_information();
/// assert!((gain - 1.073).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct JointDistribution {
    ys: Vec<IndexedMessage>,
    y_counts: Vec<u64>,
    /// Per `y`: target-state occurrence counts (`x`, #edges labeled `y`
    /// entering `x`).
    xy_counts: Vec<Vec<(ProductStateId, u64)>>,
    total_edges: u64,
    state_count: usize,
}

impl JointDistribution {
    /// Builds the distribution for the candidate combination `combination`
    /// (un-indexed messages; all their indexed instances in `flow` become
    /// outcomes of `Y`).
    #[must_use]
    pub fn from_combination(flow: &InterleavedFlow, combination: &[MessageId]) -> Self {
        let mut ys: Vec<IndexedMessage> = Vec::new();
        let mut y_index: HashMap<IndexedMessage, usize> = HashMap::new();
        let mut y_counts: Vec<u64> = Vec::new();
        let mut xy_maps: Vec<HashMap<ProductStateId, u64>> = Vec::new();

        for edge in flow.edges() {
            if !combination.contains(&edge.message.message) {
                continue;
            }
            let yi = *y_index.entry(edge.message).or_insert_with(|| {
                ys.push(edge.message);
                y_counts.push(0);
                xy_maps.push(HashMap::new());
                ys.len() - 1
            });
            y_counts[yi] += 1;
            *xy_maps[yi].entry(edge.to).or_insert(0) += 1;
        }

        let xy_counts = xy_maps
            .into_iter()
            .map(|m| {
                let mut v: Vec<(ProductStateId, u64)> = m.into_iter().collect();
                v.sort_unstable_by_key(|(s, _)| *s);
                v
            })
            .collect();

        JointDistribution {
            ys,
            y_counts,
            xy_counts,
            total_edges: flow.edge_count() as u64,
            state_count: flow.state_count(),
        }
    }

    /// The indexed messages (outcomes of `Y`) that actually label edges.
    #[must_use]
    pub fn indexed_messages(&self) -> &[IndexedMessage] {
        &self.ys
    }

    /// `p_X(x) = 1/|S|` — the uniform state prior.
    #[must_use]
    pub fn p_x(&self) -> f64 {
        1.0 / self.state_count as f64
    }

    /// Marginal `p_Y(yᵢ)`: occurrences of `yᵢ` over all edge occurrences.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn p_y(&self, i: usize) -> f64 {
        self.y_counts[i] as f64 / self.total_edges as f64
    }

    /// Conditional `p(x | yᵢ)`: fraction of `yᵢ`-labeled edges entering `x`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn p_x_given_y(&self, x: ProductStateId, i: usize) -> f64 {
        let total = self.y_counts[i];
        if total == 0 {
            return 0.0;
        }
        let count = self.xy_counts[i]
            .iter()
            .find(|(s, _)| *s == x)
            .map_or(0, |(_, c)| *c);
        count as f64 / total as f64
    }

    /// Joint `p(x, yᵢ) = p(x|yᵢ)·p(yᵢ)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn p_xy(&self, x: ProductStateId, i: usize) -> f64 {
        self.p_x_given_y(x, i) * self.p_y(i)
    }

    /// Total number of edges in the interleaving (the marginal's
    /// denominator).
    #[must_use]
    pub fn total_edges(&self) -> u64 {
        self.total_edges
    }

    /// Number of product states `|S|`.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Entropy of the uniform state prior, `H(X) = ln |S|`.
    #[must_use]
    pub fn entropy_x(&self) -> f64 {
        (self.state_count as f64).ln()
    }

    /// Conditional entropy `H(X|Y) = Σ_y p(y)·H(X|y) + p(∅)·H(X)`, where
    /// the unobserved residual event `∅` tells the debugger nothing and
    /// therefore leaves the full prior entropy.
    ///
    /// By construction `I(X;Y) = H(X) − H(X|Y)` (see
    /// [`JointDistribution::mutual_information`]); the identity is pinned
    /// by tests.
    #[must_use]
    pub fn conditional_entropy_x(&self) -> f64 {
        let mut h = 0.0;
        let mut mass = 0.0;
        for (i, pairs) in self.xy_counts.iter().enumerate() {
            let p_y = self.p_y(i);
            if p_y == 0.0 {
                continue;
            }
            mass += p_y;
            let y_total = self.y_counts[i] as f64;
            let mut h_x_given_y = 0.0;
            for &(_, count) in pairs {
                let p = count as f64 / y_total;
                h_x_given_y -= p * p.ln();
            }
            h += p_y * h_x_given_y;
        }
        h + (1.0 - mass) * self.entropy_x()
    }

    /// Mutual information gain `I(X; Y) = Σ_{x,y} p(x,y)·log(p(x,y) /
    /// (p(x)·p(y)))`, in nats.
    ///
    /// Equivalent to `Σ_y p(y)·KL(p(X|y) ‖ p(X))`, hence always
    /// non-negative and at most `ln |S|`.
    #[must_use]
    pub fn mutual_information(&self) -> f64 {
        let p_x = self.p_x();
        let mut total = 0.0;
        for (i, pairs) in self.xy_counts.iter().enumerate() {
            let p_y = self.p_y(i);
            if p_y == 0.0 {
                continue;
            }
            let y_total = self.y_counts[i] as f64;
            for &(_, count) in pairs {
                let p_x_given_y = count as f64 / y_total;
                let p_xy = p_x_given_y * p_y;
                total += p_xy * (p_xy / (p_x * p_y)).ln();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_flow::{examples::cache_coherence, instantiate};
    use std::sync::Arc;

    fn product() -> (InterleavedFlow, Arc<pstrace_flow::MessageCatalog>) {
        let (flow, catalog) = cache_coherence();
        let u = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap();
        (u, catalog)
    }

    #[test]
    fn worked_example_marginals() {
        let (u, catalog) = product();
        let combo = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        let j = JointDistribution::from_combination(&u, &combo);
        assert_eq!(j.indexed_messages().len(), 4);
        assert_eq!(j.total_edges(), 18);
        assert_eq!(j.state_count(), 15);
        assert!((j.p_x() - 1.0 / 15.0).abs() < 1e-12);
        for i in 0..4 {
            assert!((j.p_y(i) - 3.0 / 18.0).abs() < 1e-12, "p(y) = 3/18");
        }
    }

    #[test]
    fn worked_example_conditionals_are_thirds() {
        let (u, catalog) = product();
        let combo = [catalog.get("GntE").unwrap()];
        let j = JointDistribution::from_combination(&u, &combo);
        // Each indexed GntE has exactly 3 target states, each with p = 1/3.
        for (i, _) in j.indexed_messages().iter().enumerate() {
            let mut mass = 0.0;
            for x in u.states() {
                let p = j.p_x_given_y(x, i);
                assert!(p == 0.0 || (p - 1.0 / 3.0).abs() < 1e-12);
                mass += p;
            }
            assert!((mass - 1.0).abs() < 1e-12, "conditional normalizes");
        }
    }

    #[test]
    fn worked_example_gain_is_1_073_nats() {
        let (u, catalog) = product();
        let combo = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        let j = JointDistribution::from_combination(&u, &combo);
        let gain = j.mutual_information();
        // Closed form: (2/3)·ln 5 = 1.07295…
        assert!((gain - (2.0 / 3.0) * 5f64.ln()).abs() < 1e-12);
        assert!((gain - 1.073).abs() < 1e-3);
    }

    #[test]
    fn information_identity_holds() {
        // I(X;Y) = H(X) − H(X|Y) for every combination size.
        let (u, catalog) = product();
        let all: Vec<_> = catalog.iter().map(|(id, _)| id).collect();
        for k in 0..=all.len() {
            let combo = &all[..k];
            let j = JointDistribution::from_combination(&u, combo);
            let lhs = j.mutual_information();
            let rhs = j.entropy_x() - j.conditional_entropy_x();
            assert!((lhs - rhs).abs() < 1e-12, "k = {k}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn entropies_are_bounded() {
        let (u, catalog) = product();
        let combo = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        let j = JointDistribution::from_combination(&u, &combo);
        assert!((j.entropy_x() - (15f64).ln()).abs() < 1e-12);
        // Conditioning cannot increase entropy.
        assert!(j.conditional_entropy_x() <= j.entropy_x() + 1e-12);
    }

    #[test]
    fn empty_combination_has_zero_gain() {
        let (u, _) = product();
        let j = JointDistribution::from_combination(&u, &[]);
        assert_eq!(j.indexed_messages().len(), 0);
        assert_eq!(j.mutual_information(), 0.0);
    }

    #[test]
    fn gain_is_bounded_by_log_state_count() {
        let (u, catalog) = product();
        let all: Vec<_> = catalog.iter().map(|(id, _)| id).collect();
        let j = JointDistribution::from_combination(&u, &all);
        let gain = j.mutual_information();
        assert!(gain >= 0.0);
        assert!(gain <= (u.state_count() as f64).ln() + 1e-12);
    }

    #[test]
    fn joint_equals_conditional_times_marginal() {
        let (u, catalog) = product();
        let combo = [catalog.get("ReqE").unwrap()];
        let j = JointDistribution::from_combination(&u, &combo);
        for x in u.states() {
            for i in 0..j.indexed_messages().len() {
                let lhs = j.p_xy(x, i);
                let rhs = j.p_x_given_y(x, i) * j.p_y(i);
                assert!((lhs - rhs).abs() < 1e-15);
            }
        }
    }
}
