//! Property-based tests for the SoC simulator.

use proptest::prelude::*;
use pstrace_flow::{FlowIndex, IndexedMessage, InterleavedFlow, ProductStateId};
use pstrace_soc::value::mask_to_width;
use pstrace_soc::{
    capture, tracefile, wirecap, CapturedTrace, SimConfig, Simulator, SocModel, TraceBufferConfig,
    UsageScenario,
};
use pstrace_wire::{ProfileV1, WireRecord};

/// Replays an observed indexed-message sequence against the scenario's
/// interleaved flow, returning the reached product state if the sequence is
/// a valid execution prefix.
fn replay(u: &InterleavedFlow, seq: &[pstrace_flow::IndexedMessage]) -> Option<ProductStateId> {
    let mut current = u.initial_states()[0];
    for m in seq {
        let next = u.edges_from(current).find(|e| e.message == *m)?.to;
        current = next;
    }
    Some(current)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every simulated run of every paper scenario is a complete execution
    /// of the scenario's interleaved flow: the simulator refines the flow
    /// semantics.
    #[test]
    fn simulation_is_an_interleaving_execution(seed in any::<u64>(), scenario_no in 1u8..=3) {
        let model = SocModel::t2();
        let scenario = match scenario_no {
            1 => UsageScenario::scenario1(),
            2 => UsageScenario::scenario2(),
            _ => UsageScenario::scenario3(),
        };
        let u = scenario.interleaving(&model).unwrap();
        let out = Simulator::new(&model, scenario, SimConfig::with_seed(seed)).run();
        prop_assert!(out.status.is_completed());
        let reached = replay(&u, &out.message_sequence());
        prop_assert!(reached.is_some(), "simulated trace must follow the interleaving");
        prop_assert!(u.stop_states().contains(&reached.unwrap()));
    }

    /// Credit backpressure restricts orderings but never semantics: golden
    /// runs still complete and still replay as interleaving executions.
    #[test]
    fn credits_preserve_interleaving_semantics(
        seed in any::<u64>(),
        scenario_no in 1u8..=3,
        credits in 1u32..4,
    ) {
        let model = SocModel::t2();
        let scenario = match scenario_no {
            1 => UsageScenario::scenario1(),
            2 => UsageScenario::scenario2(),
            _ => UsageScenario::scenario3(),
        };
        let u = scenario.interleaving(&model).unwrap();
        let mut config = SimConfig::with_seed(seed);
        config.channel_credits = Some(credits);
        let out = Simulator::new(&model, scenario, config).run();
        prop_assert!(out.status.is_completed(), "deadlock under {credits} credits");
        let reached = replay(&u, &out.message_sequence());
        prop_assert!(reached.is_some());
        prop_assert!(u.stop_states().contains(&reached.unwrap()));
    }

    /// Determinism: the full outcome is a pure function of the seed.
    #[test]
    fn runs_are_reproducible(seed in any::<u64>()) {
        let model = SocModel::t2();
        let a = Simulator::new(&model, UsageScenario::scenario3(), SimConfig::with_seed(seed)).run();
        let b = Simulator::new(&model, UsageScenario::scenario3(), SimConfig::with_seed(seed)).run();
        prop_assert_eq!(a, b);
    }

    /// Captured traces are order-preserving sub-sequences of the run and
    /// only contain selected messages.
    #[test]
    fn capture_is_a_projection(seed in any::<u64>(), pick in proptest::collection::vec(any::<bool>(), 16)) {
        let model = SocModel::t2();
        let scenario = UsageScenario::scenario1();
        let out = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(seed)).run();
        let all_messages = scenario.messages(&model);
        let selected: Vec<_> = all_messages
            .iter()
            .zip(&pick)
            .filter(|(_, &p)| p)
            .map(|(m, _)| *m)
            .collect();
        let trace = capture(&model, &out, &TraceBufferConfig::messages_only(&selected));
        let expected: Vec<_> = out
            .events
            .iter()
            .filter(|e| selected.contains(&e.message.message))
            .map(|e| e.message)
            .collect();
        prop_assert_eq!(trace.message_sequence(), expected);
    }

    /// Trace files round-trip arbitrary valid records exactly: any record
    /// sequence over the model's catalog survives write → read unchanged.
    #[test]
    fn tracefile_round_trips_arbitrary_records(
        parts in proptest::collection::vec(
            (any::<u64>(), any::<u32>(), any::<u8>(), any::<u64>(), any::<bool>()),
            0..64,
        ),
    ) {
        let model = SocModel::t2();
        let messages = UsageScenario::scenario1().messages(&model);
        let records: Vec<WireRecord> = parts
            .iter()
            .map(|&(time, index, pick, value, partial)| WireRecord {
                time,
                message: IndexedMessage::new(
                    messages[usize::from(pick) % messages.len()],
                    FlowIndex(index),
                ),
                value,
                partial,
            })
            .collect();
        let trace = CapturedTrace::from_records(records);
        let text = tracefile::write_trace(model.catalog(), &trace);
        let back = tracefile::read_trace(&model, &text);
        prop_assert_eq!(back, Ok(trace));
    }

    /// Every malformed line is rejected with `Malformed` (or
    /// `UnknownMessage`) carrying the correct 1-based line number — never
    /// a panic, never a silently skipped record.
    #[test]
    fn tracefile_flags_malformed_lines_precisely(
        n_good in 0usize..12,
        corrupt_at in any::<u8>(),
        kind in 0u8..8,
    ) {
        let model = SocModel::t2();
        let messages = UsageScenario::scenario1().messages(&model);
        let records: Vec<WireRecord> = (0..n_good)
            .map(|i| WireRecord {
                time: i as u64,
                message: IndexedMessage::new(messages[i % messages.len()], FlowIndex(1)),
                value: i as u64,
                partial: false,
            })
            .collect();
        let trace = CapturedTrace::from_records(records);
        let mut lines: Vec<String> = tracefile::write_trace(model.catalog(), &trace)
            .lines()
            .map(str::to_owned)
            .collect();
        let bad = match kind {
            0 => "garbage",
            1 => "1 2 3",
            2 => "x 1 siincu 0x0 0",
            3 => "1 x siincu 0x0 0",
            4 => "1 1 siincu 12 0",
            5 => "1 1 siincu 0xZZ 0",
            6 => "1 1 siincu 0x0 7",
            _ => "1 1 ghost 0x0 0",
        };
        // Insert after the header, somewhere among the records.
        let at = 1 + usize::from(corrupt_at) % (n_good + 1);
        lines.insert(at, bad.to_owned());
        let text = lines.join("\n");
        let err = tracefile::read_trace(&model, &text).unwrap_err();
        let expected_line = at + 1; // line numbers are 1-based
        match err {
            tracefile::TraceFileError::Malformed { line, .. } => {
                prop_assert!(kind < 7, "ghost message must be UnknownMessage");
                prop_assert_eq!(line, expected_line);
            }
            tracefile::TraceFileError::UnknownMessage { line, name } => {
                prop_assert_eq!(kind, 7);
                prop_assert_eq!(name.as_str(), "ghost");
                prop_assert_eq!(line, expected_line);
            }
            other => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Arbitrary bytes never panic the parser: every input yields Ok or a
    /// structured error.
    #[test]
    fn tracefile_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let model = SocModel::t2();
        let text = String::from_utf8_lossy(&bytes);
        let _ = tracefile::read_trace(&model, &text);
    }

    /// The capture rule on configurations no selection produces: random
    /// full messages, random subgroups (both `dmusiidata` ones at once,
    /// and one whose parent is fully traced), any depth, a body as wide
    /// as all lanes. The capture equals an independent oracle (the
    /// schema's own lane choice per event), the v1 wire path reproduces
    /// it, and `admit` keeps every record it admitted unchanged, which
    /// re-encoding a decoded trace relies on.
    #[test]
    fn capture_rule_holds_on_arbitrary_configs(
        seed in any::<u64>(),
        scenario_no in 1u8..=5,
        full_pick in proptest::collection::vec(0u8..4, 64),
        group_pick in proptest::collection::vec(any::<bool>(), 16),
        both_dmu in any::<bool>(),
        covered in any::<u8>(),
        depth in 0usize..=64,
    ) {
        let model = SocModel::t2();
        let catalog = model.catalog();
        let scenario = match scenario_no {
            1 => UsageScenario::scenario1(),
            2 => UsageScenario::scenario2(),
            3 => UsageScenario::scenario3(),
            4 => UsageScenario::scenario_coherence(),
            _ => UsageScenario::scenario_dma(),
        };
        let all_groups: Vec<_> = catalog.iter_groups().map(|(g, _)| g).collect();
        let messages = catalog.iter().zip(&full_pick).filter(|(_, &p)| p == 0);
        let groups = all_groups.iter().zip(&group_pick).filter(|(_, &p)| p);
        let mut config = TraceBufferConfig {
            messages: messages.map(|((m, _), _)| m).collect(),
            groups: groups.map(|(&g, _)| g).collect(),
            depth: (depth > 0).then_some(depth),
        };
        if both_dmu {
            config.groups.push(catalog.get_group("dmusiidata.cputhreadid").unwrap());
            config.groups.push(catalog.get_group("dmusiidata.mondoid").unwrap());
        }
        let covered = all_groups[usize::from(covered) % all_groups.len()];
        config.groups.push(covered);
        config.messages.push(catalog.group(covered).parent());
        let body = config.messages.iter().map(|&m| catalog.width(m)).sum::<u32>()
            + config.groups.iter().map(|&g| catalog.group(g).width()).sum::<u32>();
        let out = Simulator::new(&model, scenario, SimConfig::with_seed(seed)).run();
        let direct = capture(&model, &out, &config);
        let schema = wirecap::wire_schema(&model, &config, body).unwrap();

        let mut oracle: Vec<WireRecord> = out
            .events
            .iter()
            .filter_map(|e| {
                let m = e.message.message;
                let (partial, value) = match schema.slot_for(m, false) {
                    Some(_) => (false, e.value),
                    None => (true, mask_to_width(e.value, schema.slot_for(m, true)?.1.width)),
                };
                Some(WireRecord { time: e.time, message: e.message, value, partial })
            })
            .collect();
        if let Some(d) = config.depth {
            oracle.drain(..oracle.len().saturating_sub(d));
        }
        prop_assert_eq!(direct.records(), &oracle[..]);

        let stream = wirecap::encode_events(catalog, &schema, &out.events, &config, &ProfileV1)
            .unwrap();
        let (decoded, report) =
            wirecap::decode_capture(&schema, &stream.bytes, Some(stream.bit_len), &ProfileV1);
        prop_assert!(report.is_clean());
        prop_assert_eq!(&decoded, &direct);
        for &r in direct.records() {
            prop_assert_eq!(config.admit(catalog, r), Some(r));
        }
    }
}
