//! Property-based tests for the information-gain machinery.

use std::sync::Arc;

use proptest::prelude::*;
use pstrace_flow::{FlowBuilder, FlowIndex, IndexedFlow, InterleavedFlow, MessageCatalog};
use pstrace_infogain::{mutual_information, JointDistribution};

fn linear_pair(a: usize, b: usize) -> (InterleavedFlow, Arc<MessageCatalog>) {
    let mut c = MessageCatalog::new();
    for f in 0..2 {
        for i in 0..6 {
            c.intern(&format!("f{f}_m{i}"), 1);
        }
    }
    let catalog = Arc::new(c);
    let mut flows = Vec::new();
    for (f, len) in [(0usize, a), (1usize, b)] {
        let name = format!("f{f}");
        let mut builder = FlowBuilder::new(&name);
        for i in 0..=len {
            let s = format!("{name}_s{i}");
            builder = if i == len {
                builder.stop_state(&s)
            } else {
                builder.state(&s)
            };
        }
        builder = builder.initial(&format!("{name}_s0"));
        for i in 0..len {
            builder = builder.edge(
                &format!("{name}_s{i}"),
                &format!("{name}_m{i}"),
                &format!("{name}_s{}", i + 1),
            );
        }
        flows.push(IndexedFlow::new(
            Arc::new(builder.build(&catalog).unwrap()),
            FlowIndex(1),
        ));
    }
    (InterleavedFlow::build(&flows).unwrap(), catalog)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MI is non-negative and bounded by log |S| for any sub-combination.
    #[test]
    fn mi_bounds(a in 1usize..5, b in 1usize..5, pick in proptest::collection::vec(any::<bool>(), 10)) {
        let (u, _) = linear_pair(a, b);
        let alphabet = u.message_alphabet();
        let combo: Vec<_> = alphabet
            .iter()
            .zip(&pick)
            .filter(|(_, &p)| p)
            .map(|(m, _)| *m)
            .collect();
        let gain = mutual_information(&u, &combo);
        prop_assert!(gain >= -1e-12);
        prop_assert!(gain <= (u.state_count() as f64).ln() + 1e-9);
    }

    /// MI is monotone under combination growth for this estimator: adding a
    /// message adds non-negative KL mass.
    #[test]
    fn mi_monotone_in_combination(a in 1usize..5, b in 1usize..5, pick in proptest::collection::vec(any::<bool>(), 10)) {
        let (u, _) = linear_pair(a, b);
        let alphabet = u.message_alphabet();
        let combo: Vec<_> = alphabet
            .iter()
            .zip(&pick)
            .filter(|(_, &p)| p)
            .map(|(m, _)| *m)
            .collect();
        let sub = mutual_information(&u, &combo);
        let full = mutual_information(&u, &alphabet);
        prop_assert!(sub <= full + 1e-12);
    }

    /// For every y outcome, the conditional p(x|y) is a distribution; the
    /// joint sums to the marginal.
    #[test]
    fn conditionals_normalize(a in 1usize..5, b in 1usize..5) {
        let (u, _) = linear_pair(a, b);
        let alphabet = u.message_alphabet();
        let j = JointDistribution::from_combination(&u, &alphabet);
        for i in 0..j.indexed_messages().len() {
            let mut cond = 0.0;
            let mut joint = 0.0;
            for x in u.states() {
                cond += j.p_x_given_y(x, i);
                joint += j.p_xy(x, i);
            }
            prop_assert!((cond - 1.0).abs() < 1e-9);
            prop_assert!((joint - j.p_y(i)).abs() < 1e-9);
        }
        // Full-alphabet marginals sum to 1 (every edge is selected).
        let total: f64 = (0..j.indexed_messages().len()).map(|i| j.p_y(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}
