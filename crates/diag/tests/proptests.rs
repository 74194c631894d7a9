//! Property-based tests for path localization.

use std::sync::Arc;

use proptest::prelude::*;
use pstrace_diag::{
    consistent_paths, consistent_paths_bruteforce, localize, MatchMode, OnlineLocalizer,
};
use pstrace_flow::{
    examples::{cache_coherence, diamond},
    executions, instantiate, path_count, InterleavedFlow, MessageId,
};

fn product() -> InterleavedFlow {
    let (flow, _) = cache_coherence();
    InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap()
}

/// Interleaving of two *branching* (diamond) flows: unlike the linear
/// cache-coherence flows, each instance independently picks one of two
/// paths, so observations genuinely disambiguate branch choices.
fn branching_product() -> InterleavedFlow {
    let (flow, _) = diamond();
    InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The localization DP agrees with brute-force path enumeration for
    /// observations derived from real executions, in both match modes.
    #[test]
    fn dp_matches_bruteforce(
        exec_idx in 0usize..6,
        pick in proptest::collection::vec(any::<bool>(), 3),
        cut in 0usize..7,
        prefix_mode in any::<bool>(),
    ) {
        let u = product();
        let alphabet = u.message_alphabet();
        let selected: Vec<MessageId> = alphabet
            .iter()
            .zip(&pick)
            .filter(|(_, &p)| p)
            .map(|(m, _)| *m)
            .collect();
        let exec = executions(&u).nth(exec_idx).unwrap();
        let mut observed = exec.project(&selected);
        observed.truncate(cut);
        let mode = if prefix_mode { MatchMode::Prefix } else { MatchMode::Exact };
        let dp = consistent_paths(&u, &observed, &selected, mode);
        let bf = consistent_paths_bruteforce(&u, &observed, &selected, mode);
        prop_assert_eq!(dp, bf);
    }

    /// A full (untruncated) projected observation is always consistent
    /// with at least its own execution; the fraction is in (0, 1].
    #[test]
    fn own_projection_is_consistent(
        exec_idx in 0usize..6,
        pick in proptest::collection::vec(any::<bool>(), 3),
    ) {
        let u = product();
        let alphabet = u.message_alphabet();
        let selected: Vec<MessageId> = alphabet
            .iter()
            .zip(&pick)
            .filter(|(_, &p)| p)
            .map(|(m, _)| *m)
            .collect();
        let exec = executions(&u).nth(exec_idx).unwrap();
        let observed = exec.project(&selected);
        let loc = localize(&u, &observed, &selected, MatchMode::Exact);
        prop_assert!(loc.consistent >= 1);
        prop_assert!(loc.consistent <= loc.total);
        prop_assert!(loc.fraction() > 0.0 && loc.fraction() <= 1.0);
    }

    /// On branching flows, every mode's DP agrees with brute force, and a
    /// full observation pins the branch choices exactly.
    #[test]
    fn branching_flows_localize_correctly(
        exec_idx in 0usize..24,
        pick in proptest::collection::vec(any::<bool>(), 4),
        prefix_cut in 0usize..5,
    ) {
        let u = branching_product();
        let alphabet = u.message_alphabet();
        let selected: Vec<MessageId> = alphabet
            .iter()
            .zip(&pick)
            .filter(|(_, &p)| p)
            .map(|(m, _)| *m)
            .collect();
        let execs: Vec<_> = executions(&u).collect();
        let exec = &execs[exec_idx % execs.len()];
        let observed = exec.project(&selected);
        for mode in [MatchMode::Exact, MatchMode::Prefix, MatchMode::Suffix, MatchMode::Substring] {
            let cut = prefix_cut.min(observed.len());
            let piece = match mode {
                MatchMode::Prefix => &observed[..cut],
                MatchMode::Suffix => &observed[observed.len() - cut..],
                _ => &observed[..],
            };
            let dp = consistent_paths(&u, piece, &selected, mode);
            let bf = consistent_paths_bruteforce(&u, piece, &selected, mode);
            prop_assert_eq!(dp, bf, "mode {:?}", mode);
            prop_assert!(dp >= 1, "the generating execution always matches");
        }
        // Observing the full alphabet pins the exact path.
        let full = exec.project(&alphabet);
        let hits = consistent_paths(&u, &full, &alphabet, MatchMode::Exact);
        prop_assert_eq!(hits, 1);
    }

    /// Feeding an observation to [`OnlineLocalizer`] one record at a time
    /// reports, after every push, exactly what batch localization computes
    /// on that prefix — for all four match modes, on observations that mix
    /// real projections with random noise records.
    #[test]
    fn online_localizer_matches_batch_at_every_prefix(
        branching in any::<bool>(),
        exec_idx in 0usize..24,
        pick in proptest::collection::vec(any::<bool>(), 4),
        noise in proptest::collection::vec((0usize..12, any::<bool>()), 0..4),
        mode_idx in 0usize..4,
    ) {
        let u = if branching { branching_product() } else { product() };
        let alphabet = u.message_alphabet();
        let selected: Vec<MessageId> = alphabet
            .iter()
            .zip(&pick)
            .filter(|(_, &p)| p)
            .map(|(m, _)| *m)
            .collect();
        let execs: Vec<_> = executions(&u).collect();
        let exec = &execs[exec_idx % execs.len()];
        let mut observed = exec.project(&selected);
        // Splice selected-alphabet records at random positions: the
        // resulting sequence is usually NOT a projection of any path, so
        // the zero-count regime is exercised too.
        for &(pos, early) in &noise {
            if let Some(&m) = exec.project(&alphabet).get(pos) {
                if selected.contains(&m.message) {
                    let at = if early { 0 } else { observed.len() };
                    observed.insert(at, m);
                }
            }
        }
        let mode = [MatchMode::Exact, MatchMode::Prefix, MatchMode::Suffix, MatchMode::Substring]
            [mode_idx];
        let mut online = OnlineLocalizer::new(&u, &selected, mode);
        prop_assert_eq!(
            online.consistent(),
            consistent_paths(&u, &[], &selected, mode),
            "empty-observation seed diverged ({:?})", mode
        );
        for (n, &m) in observed.iter().enumerate() {
            online.push(m);
            let batch = consistent_paths(&u, &observed[..=n], &selected, mode);
            prop_assert_eq!(
                online.consistent(), batch,
                "prefix of {} records diverged ({:?})", n + 1, mode
            );
            prop_assert_eq!(online.total(), path_count(&u));
        }
    }

    /// Two localizers built from one shared [`LocalizerProgram`] are
    /// independent: fed different noisy observations with their pushes
    /// interleaved, and one of them resynced midway, each still equals
    /// batch localization of its own (post-resync) observation at every
    /// prefix — in all four match modes.
    ///
    /// [`LocalizerProgram`]: pstrace_diag::LocalizerProgram
    #[test]
    fn localizers_sharing_a_program_match_batch_independently(
        branching in any::<bool>(),
        exec_idx in (0usize..24, 0usize..24),
        pick in proptest::collection::vec(any::<bool>(), 4),
        noise in proptest::collection::vec((0usize..12, any::<bool>()), 0..4),
        order in proptest::collection::vec(any::<bool>(), 24),
        resync_at in 0usize..8,
    ) {
        let u = if branching { branching_product() } else { product() };
        let alphabet = u.message_alphabet();
        let selected: Vec<MessageId> = alphabet
            .iter()
            .zip(&pick)
            .filter(|(_, &p)| p)
            .map(|(m, _)| *m)
            .collect();
        let execs: Vec<_> = executions(&u).collect();
        let a = execs[exec_idx.0 % execs.len()].project(&selected);
        // The second observation is another execution's projection with
        // records of the full alphabet spliced in: mostly inconsistent.
        let other = &execs[exec_idx.1 % execs.len()];
        let mut b = other.project(&selected);
        for &(pos, early) in &noise {
            if let Some(&m) = other.project(&alphabet).get(pos) {
                b.insert(if early { 0 } else { b.len() }, m);
            }
        }
        for mode in [MatchMode::Exact, MatchMode::Prefix, MatchMode::Suffix, MatchMode::Substring] {
            let program = OnlineLocalizer::compile(&u, &selected, mode);
            let mut la = OnlineLocalizer::from_program(Arc::clone(&program));
            let mut lb = OnlineLocalizer::from_program(Arc::clone(&program));
            prop_assert!(Arc::ptr_eq(la.program(), lb.program()));
            let (mut na, mut nb) = (0usize, 0usize);
            // Where `lb`'s post-resync observation starts.
            let mut b_from = 0usize;
            for &take_a in &order {
                if take_a && na < a.len() {
                    la.push(a[na]);
                    na += 1;
                } else if nb < b.len() {
                    lb.push(b[nb]);
                    nb += 1;
                    if nb == resync_at {
                        lb.resync();
                        b_from = nb;
                    }
                } else {
                    continue;
                }
                prop_assert_eq!(
                    la.consistent(),
                    consistent_paths(&u, &a[..na], &selected, mode),
                    "localizer A after {} records ({:?})", na, mode
                );
                prop_assert_eq!(
                    lb.consistent(),
                    consistent_paths(&u, &b[b_from..nb], &selected, mode),
                    "localizer B after {} records ({:?})", nb, mode
                );
            }
        }
    }

    /// Growing the selection never makes localization worse for the same
    /// underlying execution (more observability ⇒ fewer consistent paths).
    #[test]
    fn more_observability_localizes_at_least_as_well(exec_idx in 0usize..6) {
        let u = product();
        let alphabet = u.message_alphabet();
        let exec = executions(&u).nth(exec_idx).unwrap();
        let mut prev = u128::MAX;
        for k in 0..=alphabet.len() {
            let selected = &alphabet[..k];
            let observed = exec.project(selected);
            let c = consistent_paths(&u, &observed, selected, MatchMode::Exact);
            prop_assert!(c <= prev, "selection growth increased consistent paths");
            prev = c;
        }
    }
}
