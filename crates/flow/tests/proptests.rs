//! Property-based tests for the flow formalism.
//!
//! Strategy: generate families of random linear flows (with optional atomic
//! states) and check structural laws of the interleaving product against
//! closed-form expectations.

mod oracle;

use std::sync::Arc;

use proptest::prelude::*;
use pstrace_flow::parse::{flow_to_text, parse_flows};
use pstrace_flow::{
    executions, path_count, topological_order, Flow, FlowBuilder, FlowIndex, IndexedFlow,
    InterleavedFlow, MessageCatalog,
};

/// Builds a linear flow `name` with `len` edges; states `name_s0 .. name_sN`.
/// `atomics` marks which interior states (1..len) are atomic.
fn linear_flow(catalog: &Arc<MessageCatalog>, name: &str, len: usize, atomics: &[bool]) -> Flow {
    let mut b = FlowBuilder::new(name);
    for i in 0..=len {
        let sname = format!("{name}_s{i}");
        b = if i == len {
            b.stop_state(&sname)
        } else if i > 0 && atomics.get(i - 1).copied().unwrap_or(false) {
            b.atomic_state(&sname)
        } else {
            b.state(&sname)
        };
    }
    b = b.initial(&format!("{name}_s0"));
    for i in 0..len {
        b = b.edge(
            &format!("{name}_s{i}"),
            &format!("{name}_m{i}"),
            &format!("{name}_s{}", i + 1),
        );
    }
    b.build(catalog)
        .expect("generated linear flow is well-formed")
}

/// A catalog holding messages for up to `flows` linear flows of length ≤ `len`.
fn shared_catalog(flows: usize, len: usize) -> Arc<MessageCatalog> {
    let mut c = MessageCatalog::new();
    for f in 0..flows {
        for i in 0..len {
            c.intern(&format!("f{f}_m{i}"), 1 + (i as u32 % 4));
        }
    }
    Arc::new(c)
}

fn binomial(n: u64, k: u64) -> u128 {
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        result = result * u128::from(n - i) / u128::from(i + 1);
    }
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Without atomic states, the product of two linear flows is the full
    /// grid: (a+1)(b+1) states, a(b+1)+b(a+1) edges, C(a+b, a) paths.
    #[test]
    fn product_of_linear_flows_is_a_grid(a in 1usize..6, b in 1usize..6) {
        let catalog = shared_catalog(2, 6);
        let fa = Arc::new(linear_flow(&catalog, "f0", a, &[]));
        let fb = Arc::new(linear_flow(&catalog, "f1", b, &[]));
        let u = InterleavedFlow::build(&[
            IndexedFlow::new(fa, FlowIndex(1)),
            IndexedFlow::new(fb, FlowIndex(1)),
        ]).unwrap();
        prop_assert_eq!(u.state_count(), (a + 1) * (b + 1));
        prop_assert_eq!(u.edge_count(), a * (b + 1) + b * (a + 1));
        prop_assert_eq!(path_count(&u), binomial((a + b) as u64, a as u64));
    }

    /// The atomic-state mutex invariant holds for every constructed product
    /// state, for arbitrary atomic markings.
    #[test]
    fn no_product_state_has_two_atomic_components(
        a in 1usize..5,
        b in 1usize..5,
        atoms_a in proptest::collection::vec(any::<bool>(), 4),
        atoms_b in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let catalog = shared_catalog(2, 5);
        let fa = Arc::new(linear_flow(&catalog, "f0", a, &atoms_a));
        let fb = Arc::new(linear_flow(&catalog, "f1", b, &atoms_b));
        let flows = [
            IndexedFlow::new(Arc::clone(&fa), FlowIndex(1)),
            IndexedFlow::new(Arc::clone(&fb), FlowIndex(1)),
        ];
        let u = InterleavedFlow::build(&flows).unwrap();
        for s in u.states() {
            let atomic = u
                .components(s)
                .iter()
                .zip(u.flows())
                .filter(|(c, f)| f.flow().is_atomic(**c))
                .count();
            prop_assert!(atomic <= 1, "state {} has {} atomic components", u.state_label(s), atomic);
        }
    }

    /// On random sets of two to four linear flows with atomic states, the
    /// library's product is the boxed-tuple oracle's, numbering and edge
    /// order included, and its size is the closed form (exact: linear
    /// flows never start atomic).
    #[test]
    fn product_matches_the_oracle(
        lens in proptest::collection::vec(1usize..5, 2..=4),
        atoms in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let catalog = shared_catalog(lens.len(), 4);
        let flows: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let flow = linear_flow(&catalog, &format!("f{i}"), len, &atoms[4 * i..]);
                IndexedFlow::new(Arc::new(flow), FlowIndex(1))
            })
            .collect();
        let u = oracle::assert_same(&flows);
        prop_assert_eq!(
            InterleavedFlow::closed_form_size(&flows),
            Some((u.state_count(), u.edge_count()))
        );
    }

    /// Path counting by DP always agrees with explicit enumeration, and the
    /// product is always acyclic.
    #[test]
    fn path_count_agrees_with_enumeration(
        a in 1usize..4,
        b in 1usize..4,
        atoms_a in proptest::collection::vec(any::<bool>(), 3),
        atoms_b in proptest::collection::vec(any::<bool>(), 3),
    ) {
        let catalog = shared_catalog(2, 4);
        let fa = Arc::new(linear_flow(&catalog, "f0", a, &atoms_a));
        let fb = Arc::new(linear_flow(&catalog, "f1", b, &atoms_b));
        let u = InterleavedFlow::build(&[
            IndexedFlow::new(fa, FlowIndex(1)),
            IndexedFlow::new(fb, FlowIndex(1)),
        ]).unwrap();
        let _ = topological_order(&u); // must not panic: acyclic
        let counted = path_count(&u);
        let enumerated = executions(&u).count() as u128;
        prop_assert_eq!(counted, enumerated);
        prop_assert!(counted >= 1);
    }

    /// Every execution trace, restricted to one instance, replays that
    /// instance's linear message sequence in order.
    #[test]
    fn per_instance_order_is_preserved(
        a in 1usize..4,
        b in 1usize..4,
    ) {
        let catalog = shared_catalog(2, 4);
        let fa = Arc::new(linear_flow(&catalog, "f0", a, &[]));
        let fb = Arc::new(linear_flow(&catalog, "f1", b, &[]));
        let u = InterleavedFlow::build(&[
            IndexedFlow::new(Arc::clone(&fa), FlowIndex(1)),
            IndexedFlow::new(Arc::clone(&fb), FlowIndex(2)),
        ]).unwrap();
        for exec in executions(&u) {
            prop_assert_eq!(exec.len(), a + b);
            let first: Vec<_> = exec
                .trace()
                .iter()
                .filter(|im| im.index == FlowIndex(1))
                .map(|im| im.message)
                .collect();
            let expected: Vec<_> = fa.messages().to_vec();
            prop_assert_eq!(first, expected);
        }
    }

    /// Visible states are monotone: adding a message to a combination never
    /// shrinks the visible-state set.
    #[test]
    fn visible_states_monotone(
        a in 1usize..5,
        b in 1usize..5,
        pick in proptest::collection::vec(any::<bool>(), 10),
    ) {
        let catalog = shared_catalog(2, 5);
        let fa = Arc::new(linear_flow(&catalog, "f0", a, &[]));
        let fb = Arc::new(linear_flow(&catalog, "f1", b, &[]));
        let u = InterleavedFlow::build(&[
            IndexedFlow::new(fa, FlowIndex(1)),
            IndexedFlow::new(fb, FlowIndex(1)),
        ]).unwrap();
        let alphabet = u.message_alphabet();
        let combo: Vec<_> = alphabet
            .iter()
            .zip(&pick)
            .filter(|(_, &p)| p)
            .map(|(m, _)| *m)
            .collect();
        let small = u.visible_states(&combo).len();
        let full = u.visible_states(&alphabet).len();
        prop_assert!(small <= full);
        // The full alphabet sees every non-initial state of the product.
        prop_assert_eq!(full, u.state_count() - 1);
    }

    /// The text DSL round-trips arbitrary linear flows with atomic
    /// markings: parse(print(flow)) is structurally identical.
    #[test]
    fn dsl_round_trips_random_flows(
        len in 1usize..6,
        atomics in proptest::collection::vec(any::<bool>(), 5),
        widths in proptest::collection::vec(1u32..24, 6),
    ) {
        let mut c = MessageCatalog::new();
        for (i, &w) in widths.iter().enumerate().take(len) {
            c.intern(&format!("f0_m{i}"), w);
        }
        let catalog = Arc::new(c);
        let flow = linear_flow(&catalog, "f0", len, &atomics);
        let text = flow_to_text(&flow);
        let doc = parse_flows(&text).unwrap();
        let back = doc.flow("f0").unwrap();
        prop_assert_eq!(back.state_count(), flow.state_count());
        prop_assert_eq!(back.edge_count(), flow.edge_count());
        prop_assert_eq!(back.atomic_states().len(), flow.atomic_states().len());
        prop_assert_eq!(back.stop_states().len(), flow.stop_states().len());
        prop_assert_eq!(back.messages().len(), flow.messages().len());
        // Widths survive the round trip.
        for &m in flow.messages() {
            let name = catalog.name(m);
            let back_id = doc.catalog.get(name).unwrap();
            prop_assert_eq!(doc.catalog.width(back_id), catalog.width(m));
        }
        // Edge sequence (by state/message names) is identical.
        for (e1, e2) in flow.edges().iter().zip(back.edges()) {
            prop_assert_eq!(flow.state_name(e1.from), back.state_name(e2.from));
            prop_assert_eq!(flow.state_name(e1.to), back.state_name(e2.to));
            prop_assert_eq!(
                catalog.name(e1.message),
                doc.catalog.name(e2.message)
            );
        }
        // And structural equality agrees wholesale.
        prop_assert!(**back == flow, "parse(print(flow)) != flow");
    }

    /// `parse(f.dsl().to_string()) == f` for random *branching* DAGs:
    /// a chain with random forward skip edges and atomic markings.
    #[test]
    fn dsl_round_trip_is_identity_on_random_dags(
        len in 2usize..7,
        atomics in proptest::collection::vec(any::<bool>(), 6),
        skips in proptest::collection::vec(any::<u64>(), 16),
        widths in proptest::collection::vec(1u32..24, 32),
    ) {
        let mut c = MessageCatalog::new();
        let mut next_width = 0usize;
        let mut width = |c: &mut MessageCatalog, name: &str| {
            let w = widths[next_width % widths.len()];
            next_width += 1;
            c.intern(name, w);
        };
        for i in 0..len {
            width(&mut c, &format!("m{i}"));
        }
        let mut skip_pairs = Vec::new();
        let mut bit = 0usize;
        for i in 0..len.saturating_sub(1) {
            for j in (i + 2)..=len {
                let on = (skips[bit % skips.len()] >> (bit / skips.len())) & 1 == 1;
                bit += 1;
                if on {
                    width(&mut c, &format!("sk{i}_{j}"));
                    skip_pairs.push((i, j));
                }
            }
        }
        let catalog = Arc::new(c);
        let mut b = FlowBuilder::new("dag");
        for i in 0..=len {
            let name = format!("s{i}");
            b = if i == len {
                b.stop_state(&name)
            } else if i > 0 && atomics.get(i - 1).copied().unwrap_or(false) {
                b.atomic_state(&name)
            } else {
                b.state(&name)
            };
        }
        b = b.initial("s0");
        for i in 0..len {
            b = b.edge(&format!("s{i}"), &format!("m{i}"), &format!("s{}", i + 1));
        }
        for &(i, j) in &skip_pairs {
            b = b.edge(&format!("s{i}"), &format!("sk{i}_{j}"), &format!("s{j}"));
        }
        let flow = b.build(&catalog).expect("random DAG is well-formed");
        let doc = parse_flows(&flow.dsl().to_string()).unwrap();
        prop_assert_eq!(doc.flows.len(), 1);
        prop_assert!(*doc.flows[0] == flow, "parse(f.dsl()) != f");
    }
}
