//! The breadth-first product builder as it stood before the flat, CSR
//! `InterleavedFlow`: one boxed tuple and one hash lookup per edge. It is
//! kept only as a test oracle; `assert_same` checks that the library
//! builds exactly the product it builds, numbering and edge order
//! included.

use std::collections::HashMap;

use pstrace_flow::{IndexedFlow, IndexedMessage, InterleavedFlow, StateId};

/// A product as the oracle builds it; ids are dense indices.
pub struct Product {
    pub states: Vec<Box<[StateId]>>,
    /// `(from, message, slot, to)` in discovery order.
    pub edges: Vec<(usize, IndexedMessage, usize, usize)>,
    pub initial: Vec<usize>,
    pub stop: Vec<usize>,
}

/// Builds the interleaving of `flows`, which must be legally indexed,
/// share one catalog and have at most one flow with an atomic initial
/// state.
pub fn build(flows: &[IndexedFlow]) -> Product {
    let k = flows.len();
    let mut states: Vec<Box<[StateId]>> = Vec::new();
    let mut lookup: HashMap<Box<[StateId]>, usize> = HashMap::new();
    let mut initial = Vec::new();

    // Cartesian product of the initial state sets.
    let mut combos: Vec<Vec<StateId>> = vec![Vec::new()];
    for f in flows {
        let mut next = Vec::new();
        for combo in &combos {
            for &s0 in f.flow().initial_states() {
                let mut c = combo.clone();
                c.push(s0);
                next.push(c);
            }
        }
        combos = next;
    }
    for combo in combos {
        let boxed: Box<[StateId]> = combo.into_boxed_slice();
        let id = states.len();
        if lookup.insert(boxed.clone(), id).is_none() {
            states.push(boxed);
            initial.push(id);
        }
    }

    let mut edges = Vec::new();
    let mut from = 0;
    while from < states.len() {
        let components = states[from].clone();
        for slot in 0..k {
            let others_non_atomic = (0..k)
                .filter(|&j| j != slot)
                .all(|j| !flows[j].flow().is_atomic(components[j]));
            if !others_non_atomic {
                continue;
            }
            for edge in flows[slot].flow().edges_from(components[slot]) {
                let mut next: Box<[StateId]> = components.clone();
                next[slot] = edge.to;
                let to = match lookup.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = states.len();
                        lookup.insert(next.clone(), id);
                        states.push(next);
                        id
                    }
                };
                let message = IndexedMessage::new(edge.message, flows[slot].index());
                edges.push((from, message, slot, to));
            }
        }
        from += 1;
    }

    let stop = (0..states.len())
        .filter(|&i| {
            states[i]
                .iter()
                .zip(flows)
                .all(|(s, f)| f.flow().is_stop(*s))
        })
        .collect();
    Product {
        states,
        edges,
        initial,
        stop,
    }
}

/// Builds `flows` with the library and with the oracle and asserts the two
/// products are identical: component tuples by id, the edge list in
/// order, the initial and stop sets, and each state's out- and in-edges
/// in edge order. Returns the library's product.
pub fn assert_same(flows: &[IndexedFlow]) -> InterleavedFlow {
    let u = InterleavedFlow::build(flows).expect("library build");
    let o = build(flows);
    assert_eq!(u.state_count(), o.states.len(), "state count");
    for (id, s) in u.states().zip(&o.states) {
        assert_eq!(u.components(id), &s[..], "components of {id}");
    }
    assert_eq!(u.edge_count(), o.edges.len(), "edge count");
    for (i, (e, &(from, message, slot, to))) in u.edges().iter().zip(&o.edges).enumerate() {
        assert_eq!(
            (e.from.index(), e.message, e.slot, e.to.index()),
            (from, message, slot, to),
            "edge {i}"
        );
    }
    let ids = |v: &[pstrace_flow::ProductStateId]| v.iter().map(|s| s.index()).collect::<Vec<_>>();
    assert_eq!(ids(u.initial_states()), o.initial, "initial states");
    assert_eq!(ids(u.stop_states()), o.stop, "stop states");
    let n = u.state_count();
    let (mut outs, mut ins) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    for e in u.edges() {
        outs[e.from.index()].push(*e);
        ins[e.to.index()].push(*e);
    }
    for id in u.states() {
        assert!(u.edges_from(id).eq(&outs[id.index()]), "out-edges of {id}");
        assert!(u.edges_into(id).eq(&ins[id.index()]), "in-edges of {id}");
    }
    u
}
