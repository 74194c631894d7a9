//! The interleaved flow `F ||| G` of Definition 5.
//!
//! The interleaving of legally indexed flows is the asynchronous product of
//! their DAGs with one side condition: while any instance sits in an
//! *atomic* state, no other instance may take a step, and no product state
//! may place two instances in atomic states simultaneously. The product is
//! built by breadth-first exploration from the initial product states, which
//! yields exactly the legal states (e.g. the 15-state interleaving of two
//! cache-coherence instances in the paper's Figure 2 — `(c1, c2)` is
//! excluded).

use std::fmt;
use std::sync::Arc;

use crate::error::FlowError;
use crate::flow::StateId;
use crate::indexed::{check_legally_indexed, IndexedFlow, IndexedMessage};
use crate::message::{MessageCatalog, MessageId};

/// Identifier of a product state within an [`InterleavedFlow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProductStateId(pub(crate) u32);

impl ProductStateId {
    /// Returns the dense index of this product state.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProductStateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A transition of the interleaved flow: one participating instance takes a
/// step while all others stay put.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InterleavedEdge {
    /// Source product state.
    pub from: ProductStateId,
    /// The indexed message labeling the step.
    pub message: IndexedMessage,
    /// Which participating instance (position in
    /// [`InterleavedFlow::flows`]) moved.
    pub slot: usize,
    /// Target product state.
    pub to: ProductStateId,
}

/// Construction limits for the product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleaveConfig {
    /// Maximum number of product states to materialize before aborting with
    /// [`FlowError::ProductTooLarge`].
    pub max_states: usize,
}

impl Default for InterleaveConfig {
    fn default() -> Self {
        InterleaveConfig {
            max_states: 4_000_000,
        }
    }
}

/// The interleaved flow `U = F₁ ||| F₂ ||| …` (Definition 5).
///
/// States are tuples of per-instance flow states; edges are single-instance
/// steps labeled with indexed messages; the atomic-state mutex is enforced
/// by construction. This is the object over which mutual information gain
/// and flow-specification coverage are computed.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pstrace_flow::{examples::cache_coherence, instantiate, InterleavedFlow};
///
/// # fn main() -> Result<(), pstrace_flow::FlowError> {
/// let (flow, _) = cache_coherence();
/// let instances = instantiate(&Arc::new(flow), 2);
/// let product = InterleavedFlow::build(&instances)?;
/// // Paper, Figure 2: 15 legal states ((c1, c2) excluded), 18 edges.
/// assert_eq!(product.state_count(), 15);
/// assert_eq!(product.edge_count(), 18);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct InterleavedFlow {
    flows: Vec<IndexedFlow>,
    catalog: Arc<MessageCatalog>,
    /// `flows.len()` component states per product state, in id order.
    components: Vec<StateId>,
    initial: Vec<ProductStateId>,
    stop: Vec<ProductStateId>,
    /// In discovery order, so `edges[out_start[s]..out_start[s + 1]]` leave `s`.
    edges: Vec<InterleavedEdge>,
    out_start: Vec<usize>,
    /// `in_edges[in_start[s]..in_start[s + 1]]` enter `s`, in edge order.
    in_start: Vec<usize>,
    in_edges: Vec<usize>,
}

impl InterleavedFlow {
    /// Builds the interleaving of `flows` with default limits.
    ///
    /// # Errors
    ///
    /// See [`InterleavedFlow::build_with`].
    pub fn build(flows: &[IndexedFlow]) -> Result<Self, FlowError> {
        Self::build_with(flows, InterleaveConfig::default())
    }

    /// Builds the interleaving of `flows` under `config`.
    ///
    /// States are numbered, and edges listed, in breadth-first discovery
    /// order from the initial states (themselves in cartesian order, last
    /// slot fastest); every consumer that sums over edges relies on it.
    ///
    /// # Errors
    ///
    /// * [`FlowError::NoFlows`] if `flows` is empty;
    /// * [`FlowError::IllegalIndexing`] if two instances of one flow share
    ///   an index (Definition 4);
    /// * [`FlowError::CatalogMismatch`] if the flows were built against
    ///   different message catalogs;
    /// * [`FlowError::AtomicInitialClash`] if two instances would have to
    ///   start in atomic states;
    /// * [`FlowError::ProductTooLarge`] if the product exceeds
    ///   `config.max_states`. When no initial state is atomic the
    ///   closed-form count ([`InterleavedFlow::closed_form_size`]) is exact
    ///   and the error is returned before any exploration.
    pub fn build_with(flows: &[IndexedFlow], config: InterleaveConfig) -> Result<Self, FlowError> {
        if flows.is_empty() {
            return Err(FlowError::NoFlows);
        }
        check_legally_indexed(flows)?;
        let catalog = Arc::clone(flows[0].flow().catalog());
        if !flows.iter().all(|f| {
            Arc::ptr_eq(f.flow().catalog(), &catalog) || *f.flow().catalog().as_ref() == *catalog
        }) {
            return Err(FlowError::CatalogMismatch);
        }

        let atomic: Vec<Vec<bool>> = flows
            .iter()
            .map(|f| f.flow().states().map(|s| f.flow().is_atomic(s)).collect())
            .collect();
        let atomic_starts = flows
            .iter()
            .zip(&atomic)
            .filter(|(f, a)| f.flow().initial_states().iter().any(|s| a[s.index()]))
            .count();
        if atomic_starts > 1 {
            return Err(FlowError::AtomicInitialClash);
        }
        // With no atomic start the closed form is exact: refuse an oversize
        // product before exploring it, and size every buffer once.
        let (state_cap, edge_cap) = match Self::closed_form_size(flows) {
            _ if atomic_starts > 0 => (0, 0),
            Some((s, e)) if s <= config.max_states => (s, e),
            _ => {
                return Err(FlowError::ProductTooLarge {
                    limit: config.max_states,
                })
            }
        };
        let mut store = StateStore::new(flows.len(), state_cap, config.max_states);

        // Cartesian product of the initial state sets (each duplicate-free).
        let mut combos: Vec<Vec<StateId>> = vec![Vec::new()];
        for f in flows {
            let starts = f.flow().initial_states();
            combos = combos
                .iter()
                .flat_map(|c| starts.iter().map(move |&s| [&c[..], &[s]].concat()))
                .collect();
        }
        let mut initial = Vec::with_capacity(combos.len());
        for t in &combos {
            let busy = t.iter().zip(&atomic).filter(|(s, a)| a[s.index()]).count();
            initial.push(store.intern(store.key(t), t, busy as u8)?);
        }

        let mut edges: Vec<InterleavedEdge> = Vec::with_capacity(edge_cap);
        let mut out_start = Vec::with_capacity(state_cap + 1);
        let mut tuple = combos.swap_remove(0);
        let mut from = 0;
        while from < store.atomic.len() {
            out_start.push(edges.len());
            tuple.copy_from_slice(store.tuple(from));
            let key = store.key(&tuple);
            for (slot, f) in flows.iter().enumerate() {
                let here = tuple[slot];
                // Rule i/ii of δ_U: instance `slot` may step only if every
                // other instance is outside its atomic set. Then the target
                // is atomic exactly when the step lands in an atomic state.
                if store.atomic[from] > u8::from(atomic[slot][here.index()]) {
                    continue;
                }
                for edge in f.flow().edges_from(here) {
                    tuple[slot] = edge.to;
                    let delta = u64::from(edge.to.0).wrapping_sub(u64::from(here.0));
                    let key = key.wrapping_add(store.weights[slot].wrapping_mul(delta));
                    let lands = u8::from(atomic[slot][edge.to.index()]);
                    edges.push(InterleavedEdge {
                        from: ProductStateId(from as u32),
                        message: IndexedMessage::new(edge.message, f.index()),
                        slot,
                        to: store.intern(key, &tuple, lands)?,
                    });
                }
                tuple[slot] = here;
            }
            from += 1;
        }
        out_start.push(edges.len());

        // In-edges by counting sort on the target, stable in edge order.
        let n = store.atomic.len();
        let mut in_start = vec![0usize; n + 1];
        edges.iter().for_each(|e| in_start[e.to.index() + 1] += 1);
        (0..n).for_each(|s| in_start[s + 1] += in_start[s]);
        let (mut next, mut in_edges) = (in_start.clone(), vec![0usize; edges.len()]);
        for (i, e) in edges.iter().enumerate() {
            in_edges[next[e.to.index()]] = i;
            next[e.to.index()] += 1;
        }

        let stop = (0..n)
            .filter(|&i| {
                store
                    .tuple(i)
                    .iter()
                    .zip(flows)
                    .all(|(s, f)| f.flow().is_stop(*s))
            })
            .map(|i| ProductStateId(i as u32))
            .collect();

        Ok(InterleavedFlow {
            flows: flows.to_vec(),
            catalog,
            components: store.components,
            initial,
            stop,
            edges,
            out_start,
            in_start,
            in_edges,
        })
    }

    /// The closed-form size `(|S|, |E|)` of the interleaving of `flows`:
    /// `|S| = Π_j NA_j + Σ_j A_j·P_j` and `|E| = Σ_j |E_j|·P_j`, where flow
    /// `j` has `NA_j` non-atomic and `A_j` atomic states and `|E_j|` edges,
    /// and `P_j = Π_{i≠j} NA_i`.
    ///
    /// These count the tuples with at most one atomic component and the
    /// steps the atomic mutex allows from them, so they bound the built
    /// product from above. Every flow state is reachable in its own flow,
    /// so when no initial state is atomic every such tuple is reachable
    /// and both counts are exact. `None` if a count overflows `usize`.
    #[must_use]
    pub fn closed_form_size(flows: &[IndexedFlow]) -> Option<(usize, usize)> {
        let non_atomic = |f: &IndexedFlow| f.flow().state_count() - f.flow().atomic_states().len();
        let all = flows
            .iter()
            .try_fold(1usize, |p, f| p.checked_mul(non_atomic(f)))?;
        flows.iter().try_fold((all, 0usize), |(s, e), f| {
            // Stop states are never atomic, so `non_atomic(f) >= 1`.
            let others = all / non_atomic(f);
            let s = s.checked_add(f.flow().atomic_states().len().checked_mul(others)?)?;
            Some((
                s,
                e.checked_add(f.flow().edge_count().checked_mul(others)?)?,
            ))
        })
    }

    /// The participating flow instances, in slot order.
    #[must_use]
    pub fn flows(&self) -> &[IndexedFlow] {
        &self.flows
    }

    /// The shared message catalog.
    #[must_use]
    pub fn catalog(&self) -> &Arc<MessageCatalog> {
        &self.catalog
    }

    /// Number of legal product states `|S|`.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.out_start.len() - 1
    }

    /// Number of product transitions.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Component states of the product state `id`, one per slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this interleaving.
    #[must_use]
    pub fn components(&self, id: ProductStateId) -> &[StateId] {
        let k = self.flows.len();
        &self.components[id.index() * k..][..k]
    }

    /// Initial product states.
    #[must_use]
    pub fn initial_states(&self) -> &[ProductStateId] {
        &self.initial
    }

    /// Stop product states (every component in a stop state).
    #[must_use]
    pub fn stop_states(&self) -> &[ProductStateId] {
        &self.stop
    }

    /// All product transitions.
    #[must_use]
    pub fn edges(&self) -> &[InterleavedEdge] {
        &self.edges
    }

    /// Transitions leaving `state`.
    pub fn edges_from(&self, state: ProductStateId) -> impl Iterator<Item = &InterleavedEdge> + '_ {
        self.edges[self.out_start[state.index()]..self.out_start[state.index() + 1]].iter()
    }

    /// Transitions entering `state`.
    pub fn edges_into(&self, state: ProductStateId) -> impl Iterator<Item = &InterleavedEdge> + '_ {
        self.in_edges[self.in_start[state.index()]..self.in_start[state.index() + 1]]
            .iter()
            .map(move |&i| &self.edges[i])
    }

    /// Iterates over all product state ids.
    pub fn states(&self) -> impl Iterator<Item = ProductStateId> + '_ {
        (0..self.state_count()).map(|i| ProductStateId(i as u32))
    }

    /// The product state with dense index `index` (the inverse of
    /// [`ProductStateId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.state_count()`.
    #[must_use]
    pub fn state_at(&self, index: usize) -> ProductStateId {
        assert!(
            index < self.state_count(),
            "state index {index} out of range"
        );
        ProductStateId(index as u32)
    }

    /// The distinct indexed messages labeling at least one edge.
    #[must_use]
    pub fn indexed_messages(&self) -> Vec<IndexedMessage> {
        let mut seen: Vec<IndexedMessage> = Vec::new();
        for e in &self.edges {
            if !seen.contains(&e.message) {
                seen.push(e.message);
            }
        }
        seen
    }

    /// The distinct un-indexed messages labeling at least one edge.
    #[must_use]
    pub fn message_alphabet(&self) -> Vec<MessageId> {
        let mut seen: Vec<MessageId> = Vec::new();
        for e in &self.edges {
            if !seen.contains(&e.message.message) {
                seen.push(e.message.message);
            }
        }
        seen
    }

    /// All indexed instances of the un-indexed message `m` occurring in the
    /// interleaving (one per participating instance whose flow uses `m`).
    #[must_use]
    pub fn indexed_instances_of(&self, m: MessageId) -> Vec<IndexedMessage> {
        let mut out = Vec::new();
        for f in &self.flows {
            if f.flow().messages().contains(&m) {
                out.push(IndexedMessage::new(m, f.index()));
            }
        }
        out
    }

    /// The *visible states* of a message combination (Definition 7): the set
    /// of product states reached by a transition labeled with any indexed
    /// instance of a selected message.
    #[must_use]
    pub fn visible_states(&self, combination: &[MessageId]) -> Vec<ProductStateId> {
        let mut seen = vec![false; self.state_count()];
        for e in &self.edges {
            if combination.contains(&e.message.message) {
                seen[e.to.index()] = true;
            }
        }
        (0..self.state_count())
            .filter(|&i| seen[i])
            .map(|i| ProductStateId(i as u32))
            .collect()
    }

    /// Human-readable rendering of a product state, e.g. `(w1, n2)`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this interleaving.
    #[must_use]
    pub fn state_label(&self, id: ProductStateId) -> String {
        let parts: Vec<String> = self
            .components(id)
            .iter()
            .zip(&self.flows)
            .map(|(s, f)| format!("{}{}", f.flow().state_name(*s), f.index()))
            .collect();
        format!("({})", parts.join(", "))
    }

    /// Looks up the product state with the given per-slot components.
    #[cfg(test)]
    #[must_use]
    pub fn state_of(&self, components: &[StateId]) -> Option<ProductStateId> {
        self.components
            .chunks_exact(self.flows.len())
            .position(|s| s == components)
            .map(|i| ProductStateId(i as u32))
    }
}

/// Product states under construction: components flat with stride `k`,
/// each state's atomic-component count (0 or 1, by the mutex), and an
/// open-addressed index keyed by the wrapping linear hash `Σ_j s_j·w_j`,
/// which a step updates in O(1). A probe compares components in place, so
/// colliding keys cost a comparison, never a wrong id.
struct StateStore {
    k: usize,
    limit: usize,
    weights: Vec<u64>,
    components: Vec<StateId>,
    atomic: Vec<u8>,
    /// State ids; `u32::MAX` marks a free slot.
    slots: Vec<u32>,
}

impl StateStore {
    fn new(k: usize, capacity: usize, limit: usize) -> Self {
        // Odd powers of the golden-ratio constant: no weight is ever 0.
        let g = 0x9E37_79B9_7F4A_7C15_u64;
        let weights = std::iter::successors(Some(g), |w| Some(w.wrapping_mul(g)));
        StateStore {
            k,
            // Ids are `u32`, and `u32::MAX` marks a free slot.
            limit: limit.min(u32::MAX as usize),
            weights: weights.take(k).collect(),
            components: Vec::with_capacity(capacity.saturating_mul(k)),
            atomic: Vec::with_capacity(capacity),
            slots: vec![u32::MAX; (capacity.max(8) * 2).next_power_of_two()],
        }
    }

    fn key(&self, tuple: &[StateId]) -> u64 {
        let terms = tuple.iter().zip(&self.weights);
        terms.fold(0, |h, (s, w)| {
            h.wrapping_add(u64::from(s.0).wrapping_mul(*w))
        })
    }

    fn tuple(&self, id: usize) -> &[StateId] {
        &self.components[id * self.k..][..self.k]
    }

    /// The slot holding `tuple`, or the free slot where it belongs.
    fn probe(&self, key: u64, tuple: &[StateId]) -> usize {
        let mut i = (key >> (64 - self.slots.len().trailing_zeros())) as usize;
        while self.slots[i] != u32::MAX && self.tuple(self.slots[i] as usize) != tuple {
            i = (i + 1) & (self.slots.len() - 1);
        }
        i
    }

    /// The id of `tuple`, added with `atomic` atomic components if new,
    /// unless that would exceed `limit` states.
    fn intern(
        &mut self,
        key: u64,
        tuple: &[StateId],
        atomic: u8,
    ) -> Result<ProductStateId, FlowError> {
        let (i, id) = (self.probe(key, tuple), self.atomic.len());
        if self.slots[i] != u32::MAX {
            return Ok(ProductStateId(self.slots[i]));
        }
        if id >= self.limit {
            return Err(FlowError::ProductTooLarge { limit: self.limit });
        }
        self.slots[i] = id as u32;
        self.components.extend_from_slice(tuple);
        self.atomic.push(atomic);
        if 2 * self.atomic.len() > self.slots.len() {
            self.slots = vec![u32::MAX; 2 * self.slots.len()];
            for id in 0..self.atomic.len() {
                // No state matches the empty tuple: this finds a free slot.
                let i = self.probe(self.key(self.tuple(id)), &[]);
                self.slots[i] = id as u32;
            }
        }
        Ok(ProductStateId(id as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::cache_coherence;
    use crate::indexed::instantiate;
    use crate::indexed::FlowIndex;
    use crate::FlowBuilder;

    fn two_instances() -> InterleavedFlow {
        let (flow, _) = cache_coherence();
        let instances = instantiate(&Arc::new(flow), 2);
        InterleavedFlow::build(&instances).unwrap()
    }

    #[test]
    fn figure2_shape_fifteen_states_eighteen_edges() {
        let u = two_instances();
        assert_eq!(u.state_count(), 15);
        assert_eq!(u.edge_count(), 18);
        assert_eq!(u.initial_states().len(), 1);
        assert_eq!(u.stop_states().len(), 1);
    }

    #[test]
    fn atomic_mutex_excludes_c1_c2() {
        let u = two_instances();
        let flow = u.flows()[0].flow();
        let c = flow.state("GntW").unwrap();
        assert!(u.state_of(&[c, c]).is_none());
        // ...but (GntW, anything-non-atomic) is legal.
        let n = flow.state("Init").unwrap();
        assert!(u.state_of(&[c, n]).is_some());
    }

    #[test]
    fn no_edge_leaves_another_instance_in_atomic_state() {
        let u = two_instances();
        for e in u.edges() {
            let from = u.components(e.from);
            for (slot, s) in from.iter().enumerate() {
                if slot != e.slot {
                    assert!(!u.flows()[slot].flow().is_atomic(*s));
                }
            }
        }
    }

    #[test]
    fn six_indexed_messages_three_each() {
        let u = two_instances();
        let ims = u.indexed_messages();
        assert_eq!(ims.len(), 6);
        for im in ims {
            let occurrences = u.edges().iter().filter(|e| e.message == im).count();
            assert_eq!(occurrences, 3, "each indexed message labels 3 edges");
        }
    }

    #[test]
    fn visible_states_of_reqe_gnte_is_eleven() {
        // Coverage golden: FSP coverage of {ReqE, GntE} is 11/15 = 0.7333.
        let u = two_instances();
        let catalog = u.catalog();
        let combo = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        assert_eq!(u.visible_states(&combo).len(), 11);
    }

    #[test]
    fn rejects_empty_flow_list() {
        assert!(matches!(
            InterleavedFlow::build(&[]).unwrap_err(),
            FlowError::NoFlows
        ));
    }

    #[test]
    fn rejects_product_over_budget() {
        let (flow, _) = cache_coherence();
        let instances = instantiate(&Arc::new(flow), 2);
        let err = InterleavedFlow::build_with(&instances, InterleaveConfig { max_states: 4 })
            .unwrap_err();
        assert!(matches!(err, FlowError::ProductTooLarge { limit: 4 }));
    }

    #[test]
    fn rejects_mismatched_catalogs() {
        let (flow_a, _) = cache_coherence();
        let mut other_catalog = crate::MessageCatalog::new();
        other_catalog.intern("X", 1);
        let other_catalog = Arc::new(other_catalog);
        let flow_b = FlowBuilder::new("other")
            .state("p")
            .stop_state("q")
            .initial("p")
            .edge("p", "X", "q")
            .build(&other_catalog)
            .unwrap();
        let err = InterleavedFlow::build(&[
            IndexedFlow::new(Arc::new(flow_a), FlowIndex(1)),
            IndexedFlow::new(Arc::new(flow_b), FlowIndex(1)),
        ])
        .unwrap_err();
        assert_eq!(err, FlowError::CatalogMismatch);
    }

    #[test]
    fn single_flow_interleaving_is_the_flow_itself() {
        let (flow, _) = cache_coherence();
        let inst = instantiate(&Arc::new(flow), 1);
        let u = InterleavedFlow::build(&inst).unwrap();
        assert_eq!(u.state_count(), 4);
        assert_eq!(u.edge_count(), 3);
        assert_eq!(u.stop_states().len(), 1);
    }

    #[test]
    fn three_instances_scale() {
        let (flow, _) = cache_coherence();
        let inst = instantiate(&Arc::new(flow), 3);
        let u = InterleavedFlow::build(&inst).unwrap();
        // 4^3 = 64 tuples minus those with ≥2 atomic components:
        // choose 2 slots atomic (3 ways) × 4 third-states  = 12, minus
        // over-counted all-three-atomic (counted 3×, subtract 2) = 10.
        assert_eq!(u.state_count(), 64 - 10);
        // Heterogeneous slots all labeled with their own index.
        for e in u.edges() {
            assert_eq!(e.message.index, u.flows()[e.slot].index());
        }
    }

    #[test]
    fn multiple_initial_states_cross_product() {
        // A flow with two initial states interleaved with a single-initial
        // flow yields two initial product states.
        let (cc, catalog) = cache_coherence();
        let two_init = crate::FlowBuilder::new("two-init")
            .state("a")
            .state("b")
            .stop_state("z")
            .initial("a")
            .initial("b")
            .edge("a", "ReqE", "z")
            .edge("b", "GntE", "z")
            .build(&catalog)
            .unwrap();
        let u = InterleavedFlow::build(&[
            IndexedFlow::new(Arc::new(cc), FlowIndex(1)),
            IndexedFlow::new(Arc::new(two_init), FlowIndex(2)),
        ])
        .unwrap();
        assert_eq!(u.initial_states().len(), 2);
        // From each root: the cache-coherence instance contributes the
        // tokens [ReqE] and [GntE Ack] (atomic adjacency) and the other
        // flow one token: C(3, 1) = 3 interleavings; two roots double it.
        assert_eq!(crate::path_count(&u), 6);
        assert_eq!(crate::executions(&u).count(), 6);
    }

    #[test]
    fn state_labels_are_parenthesized_tuples() {
        let u = two_instances();
        let init = u.initial_states()[0];
        assert_eq!(u.state_label(init), "(Init1, Init2)");
    }

    #[test]
    fn indexed_instances_of_message() {
        let u = two_instances();
        let req = u.catalog().get("ReqE").unwrap();
        let insts = u.indexed_instances_of(req);
        assert_eq!(insts.len(), 2);
        assert_eq!(insts[0].index, FlowIndex(1));
        assert_eq!(insts[1].index, FlowIndex(2));
    }
}
