//! Wire-format acceptance: the bit-packed codec against the modeled
//! capture path on every paper scenario.
//!
//! * `decode(encode(capture)) == capture` bit-for-bit on every scenario's
//!   selection — including circular-depth truncation;
//! * measured per-frame utilization equals the analytic
//!   `TraceBufferSpec::utilization` of the selection (Table 3), packed
//!   subgroup bits included;
//! * a corrupted frame is flagged and decoding resynchronizes at the next
//!   frame boundary instead of crashing or cascading;
//! * pushing a stream chunk by chunk is bit-identical to the one-shot
//!   decode, in both dialects;
//! * the `.ptw` container survives a disk round trip.

use pstrace::codec::{ProfileV2, DEFAULT_SYNC_EVERY};
use pstrace::faults::{corrupt_wire, FaultLedger, FaultPlan};
use pstrace::select::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace::soc::wirecap::{self, FrameProfile, ProfileV1};
use pstrace::soc::{capture, SimConfig, Simulator, SocModel, TraceBufferConfig, UsageScenario};
use pstrace::wire::finish_report;
use pstrace_rng::Rng64;

fn paper_scenarios() -> Vec<UsageScenario> {
    vec![
        UsageScenario::scenario1(),
        UsageScenario::scenario2(),
        UsageScenario::scenario3(),
        UsageScenario::scenario_dma(),
        UsageScenario::scenario_coherence(),
    ]
}

/// Selection-derived trace config + schema for a scenario over the
/// paper's 32-bit buffer.
fn selection_setup(
    model: &SocModel,
    scenario: &UsageScenario,
    depth: Option<usize>,
) -> (TraceBufferConfig, wirecap::WireSchema, f64) {
    let buffer = TraceBufferSpec::new(32).expect("nonzero");
    let selection = Selector::new(
        &scenario.interleaving(model).expect("interleaves"),
        SelectionConfig::new(buffer),
    )
    .select()
    .expect("selection succeeds");
    let config = TraceBufferConfig {
        messages: selection.chosen.messages.clone(),
        groups: selection.packed_groups.clone(),
        depth,
    };
    let schema =
        wirecap::wire_schema(model, &config, buffer.width_bits()).expect("schema fits buffer");
    (config, schema, selection.utilization())
}

#[test]
fn every_scenario_round_trips_bit_identically() {
    let model = SocModel::t2();
    for scenario in paper_scenarios() {
        for depth in [None, Some(4)] {
            let (config, schema, _) = selection_setup(&model, &scenario, depth);
            let out = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(2018)).run();
            let direct = capture(&model, &out, &config);
            let stream = wirecap::encode_events(model.catalog(), &schema, &out.events, &config)
                .expect("records fit the schema");
            let (decoded, report) =
                wirecap::decode_capture(&schema, &stream.bytes, Some(stream.bit_len), &ProfileV1);
            assert!(
                report.is_clean(),
                "{}: {:?}",
                scenario.name(),
                report.damaged
            );
            assert_eq!(
                decoded,
                direct,
                "{} depth {:?}: decode(encode(x)) != capture(x)",
                scenario.name(),
                depth
            );
        }
    }
}

#[test]
fn measured_utilization_matches_the_analytic_model() {
    // Satellite 3: the decoder-side occupancy measurement reproduces the
    // Table-3 utilization numbers the selection model predicts, packed
    // subgroup bits included.
    let model = SocModel::t2();
    for scenario in paper_scenarios() {
        let (config, schema, modeled) = selection_setup(&model, &scenario, None);
        let out = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(7)).run();
        let stream = wirecap::encode_events(model.catalog(), &schema, &out.events, &config)
            .expect("records fit the schema");
        let (_, report) =
            wirecap::decode_capture(&schema, &stream.bytes, Some(stream.bit_len), &ProfileV1);
        assert!(
            (report.utilization() - modeled).abs() < 1e-12,
            "{}: measured {} != modeled {}",
            scenario.name(),
            report.utilization(),
            modeled
        );
        assert!(
            report.utilization() > 0.5,
            "{}: a selected schema should fill most of the 32-bit buffer, measured {:.4}",
            scenario.name(),
            report.utilization()
        );
    }
}

#[test]
fn corrupted_frame_is_flagged_and_decoding_resyncs() {
    let model = SocModel::t2();
    let scenario = UsageScenario::scenario1();
    let (config, schema, _) = selection_setup(&model, &scenario, None);
    let out = Simulator::new(&model, scenario, SimConfig::with_seed(2018)).run();
    let direct = capture(&model, &out, &config);
    let stream = wirecap::encode_events(model.catalog(), &schema, &out.events, &config)
        .expect("records fit the schema");
    assert!(stream.frames >= 4, "fixture needs a few frames");

    // Trash a middle frame wholesale (every byte it touches).
    let mut bytes = stream.bytes.clone();
    let frame_bits = u64::from(schema.frame_bits());
    let victim = stream.frames / 2;
    let first_byte = (victim as u64 * frame_bits / 8) as usize;
    let last_byte = (((victim as u64 + 1) * frame_bits - 1) / 8) as usize;
    for b in &mut bytes[first_byte..=last_byte] {
        *b = !*b;
    }

    let (decoded, report) =
        wirecap::decode_capture(&schema, &bytes, Some(stream.bit_len), &ProfileV1);
    assert!(!report.is_clean(), "the damage must be flagged");
    assert!(
        report.damaged.iter().any(|d| d.frame == victim),
        "the trashed frame {victim} must be flagged: {:?}",
        report.damaged
    );
    // Resync: every record outside the damaged neighborhood survives.
    // (Byte-sharing and the time heuristic may cost the immediate
    // neighbors, never more.)
    assert!(
        decoded.len() + 3 >= direct.len(),
        "damage cascaded: {} of {} records survive",
        decoded.len(),
        direct.len()
    );
    let direct_records = direct.records();
    for r in decoded.records() {
        assert!(
            direct_records.contains(r),
            "decoder invented a record: {r:?}"
        );
    }
}

#[test]
fn chunked_decode_is_bit_identical_to_sequential() {
    let model = SocModel::t2();
    let scenario = UsageScenario::scenario3();
    let (config, schema, _) = selection_setup(&model, &scenario, None);
    let out = Simulator::new(&model, scenario, SimConfig::with_seed(99)).run();
    let profiles: [&dyn FrameProfile; 2] = [&ProfileV1, &ProfileV2 { sync_every: 16 }];
    for profile in profiles {
        let stream =
            wirecap::encode_events_with(model.catalog(), &schema, &out.events, &config, profile)
                .expect("records fit the schema");
        let (seq_trace, seq_report) =
            wirecap::decode_capture(&schema, &stream.bytes, Some(stream.bit_len), profile);
        assert!(!seq_trace.records().is_empty());
        let mut rng = Rng64::seed_from_u64(99);
        for chunk in [1usize, 7, 256, 0] {
            let mut decoder = profile.decoder(&schema);
            let mut rest = stream.bytes.as_slice();
            while !rest.is_empty() {
                // Chunk 0 draws a fresh random size for every push.
                let size = if chunk == 0 {
                    rng.gen_range_u64(1, 64) as usize
                } else {
                    chunk
                };
                let (head, tail) = rest.split_at(size.min(rest.len()));
                decoder.push(head);
                rest = tail;
            }
            let report = finish_report(&mut *decoder, Some(stream.bit_len));
            assert_eq!(report, seq_report, "{:?} chunk {chunk}", profile.meta());
        }
    }
}

#[test]
fn every_scenario_round_trips_bit_identically_under_v2() {
    // Tentpole invariant, v2 edition: the compressed dialect reproduces
    // the modeled capture bit-for-bit on every scenario's selection,
    // including circular-depth truncation, at several sync cadences.
    let model = SocModel::t2();
    for scenario in paper_scenarios() {
        for depth in [None, Some(4)] {
            let (config, schema, _) = selection_setup(&model, &scenario, depth);
            let out = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(2018)).run();
            let direct = capture(&model, &out, &config);
            for sync_every in [1u16, 16, DEFAULT_SYNC_EVERY] {
                let profile = ProfileV2 { sync_every };
                let stream = wirecap::encode_events_with(
                    model.catalog(),
                    &schema,
                    &out.events,
                    &config,
                    &profile,
                )
                .expect("records fit the schema");
                let (decoded, report) =
                    wirecap::decode_capture(&schema, &stream.bytes, Some(stream.bit_len), &profile);
                assert!(
                    report.is_clean(),
                    "{} sync {}: {:?}",
                    scenario.name(),
                    sync_every,
                    report.damaged
                );
                assert_eq!(
                    decoded,
                    direct,
                    "{} depth {:?} sync {}: v2 decode(encode(x)) != capture(x)",
                    scenario.name(),
                    depth,
                    sync_every
                );
            }
        }
    }
}

/// A reference corpus for a scenario: several seeded runs of the same
/// workload back to back, times rebased so the stream stays one
/// monotone capture (a longer soak of the same scenario).
fn reference_corpus(
    model: &SocModel,
    scenario: &UsageScenario,
    seeds: u64,
) -> Vec<pstrace::soc::MessageEvent> {
    let mut events = Vec::new();
    let mut base = 0u64;
    for seed in 0..seeds {
        let out = Simulator::new(model, scenario.clone(), SimConfig::with_seed(2018 + seed)).run();
        let mut last = base;
        for e in &out.events {
            let mut e = *e;
            e.time += base;
            last = last.max(e.time);
            events.push(e);
        }
        base = last + 1;
    }
    events
}

#[test]
fn v2_is_at_least_20_percent_smaller_on_every_scenario() {
    // Acceptance criterion: on all five reference scenarios the v2 wire
    // is >= 20 % smaller than v1 at the default sync cadence — i.e. at
    // the damage tolerance the corruption tests pin.
    let model = SocModel::t2();
    for scenario in paper_scenarios() {
        let (config, schema, _) = selection_setup(&model, &scenario, None);
        let events = reference_corpus(&model, &scenario, 8);
        let v1 = wirecap::encode_events(model.catalog(), &schema, &events, &config)
            .expect("records fit the schema");
        let v2 = wirecap::encode_events_with(
            model.catalog(),
            &schema,
            &events,
            &config,
            &ProfileV2::default(),
        )
        .expect("records fit the schema");
        assert!(
            (v2.bytes.len() as f64) <= 0.8 * v1.bytes.len() as f64,
            "{}: v2 {} bytes vs v1 {} bytes ({:.1} %)",
            scenario.name(),
            v2.bytes.len(),
            v1.bytes.len(),
            100.0 * v2.bytes.len() as f64 / v1.bytes.len() as f64
        );
    }
}

#[test]
fn v2_corruption_from_the_fault_injector_stays_bounded() {
    // Equal damage tolerance: the seeded fault injector's bit flips
    // (byte granularity — v2 is byte-aligned) never panic the decoder,
    // never make it invent records, and each injected fault costs at
    // most its sync window plus the following resync hunt.
    let model = SocModel::t2();
    let scenario = UsageScenario::scenario1();
    let (config, schema, _) = selection_setup(&model, &scenario, None);
    let out = Simulator::new(&model, scenario, SimConfig::with_seed(2018)).run();
    let direct = capture(&model, &out, &config);
    let sync_every = 8u16;
    let profile = ProfileV2 { sync_every };
    let stream =
        wirecap::encode_events_with(model.catalog(), &schema, &out.events, &config, &profile)
            .expect("records fit the schema");

    // Flips-only plan: every ledger entry is one flipped bit, so the
    // loss budget is exact — at most two sync windows per flip (the
    // window it lands in, plus a neighbor if it forges a header).
    let mut flips = FaultPlan::quiet(0xC0DEC);
    flips.wire.bit_flip = 1e-3;
    let mut rng = Rng64::seed_from_u64(0xC0DEC);
    let mut any_fault = false;
    for session in 0..32u64 {
        let mut ledger = FaultLedger::new();
        let mangled = corrupt_wire(&flips, session, 8, &stream, &mut rng, &mut ledger);
        let (decoded, report) =
            wirecap::decode_capture(&schema, &mangled.bytes, Some(mangled.bit_len), &profile);
        if ledger.is_empty() {
            assert!(report.is_clean(), "clean bytes must decode clean");
            assert_eq!(decoded, direct);
            continue;
        }
        any_fault = true;
        assert!(
            !report.is_clean(),
            "session {session}: damage must be flagged"
        );
        let direct_records = direct.records();
        for r in decoded.records() {
            assert!(
                direct_records.contains(r),
                "session {session}: decoder invented a record: {r:?}"
            );
        }
        let lost = direct.len() - decoded.len();
        let budget = ledger.len() * 2 * usize::from(sync_every);
        assert!(
            lost <= budget,
            "session {session}: lost {lost} records to {} flips (window {sync_every})",
            ledger.len()
        );
    }
    assert!(any_fault, "1e-3 flips over 32 runs must corrupt something");

    // The full standard plan adds storms, truncation, duplication and
    // reordering: those can legitimately cost arbitrary spans, so the
    // bar is no panic and no invented records.
    let plan = FaultPlan::standard(0xC0DEC);
    let mut ledger = FaultLedger::new();
    for session in 0..16u64 {
        let mangled = corrupt_wire(&plan, session, 8, &stream, &mut rng, &mut ledger);
        let (decoded, _) =
            wirecap::decode_capture(&schema, &mangled.bytes, Some(mangled.bit_len), &profile);
        let direct_records = direct.records();
        for r in decoded.records() {
            assert!(
                direct_records.contains(r),
                "session {session}: decoder invented a record: {r:?}"
            );
        }
    }
    assert!(!ledger.is_empty(), "the standard plan must inject faults");
}

#[test]
fn ptw_container_survives_the_disk() {
    let model = SocModel::t2();
    let scenario = UsageScenario::scenario2();
    let (config, schema, _) = selection_setup(&model, &scenario, Some(8));
    let out = Simulator::new(&model, scenario, SimConfig::with_seed(5)).run();
    let direct = capture(&model, &out, &config);
    let stream = wirecap::encode_events(model.catalog(), &schema, &out.events, &config)
        .expect("records fit the schema");

    let path = std::env::temp_dir().join("pstrace_wire_roundtrip.ptw");
    std::fs::write(&path, wirecap::write_ptw(model.catalog(), &schema, &stream)).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let (schema2, stream2) = wirecap::read_ptw(model.catalog(), &bytes).expect("valid container");
    assert_eq!(schema2, schema);
    assert_eq!(stream2, stream);
    let (decoded, report) =
        wirecap::decode_capture(&schema2, &stream2.bytes, Some(stream2.bit_len), &ProfileV1);
    assert!(report.is_clean());
    assert_eq!(decoded, direct);
}
