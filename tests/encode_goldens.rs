//! Encoder byte goldens: a digest of `wirecap::encode_events` output,
//! pinned per scenario, dialect and circular depth.
//!
//! The round-trip suites cannot catch a layout change that the decoder
//! mirrors; these digests can. Each pins the encoded bytes, the exact
//! bit length and the frame (v1) or sync-block (v2) count of scenarios
//! 1-3 (seed 7, the paper's 32-bit buffer and its selection) under v1,
//! v2 every 64 records and v2 every 5 records, at depths unbounded, 4
//! and 1.

use pstrace::codec::ProfileV2;
use pstrace::select::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace::soc::{wirecap, SimConfig, Simulator, SocModel, TraceBufferConfig, UsageScenario};
use pstrace::wire::{EncodedStream, FrameProfile, ProfileV1};

/// `(scenario, dialect, depth, digest)`, in loop order.
const GOLDENS: [(usize, &str, Option<usize>, u64); 27] = [
    (1, "v1", None, 0x06a9f978a6b76a85),
    (1, "v1", Some(4), 0x21e97dedf83c40f4),
    (1, "v1", Some(1), 0x6f596c5e47cba951),
    (1, "v2@64", None, 0x91d332e3233c528f),
    (1, "v2@64", Some(4), 0x573816ea41a318c1),
    (1, "v2@64", Some(1), 0x618e174997bcdc0f),
    (1, "v2@5", None, 0x200ac5eab99ded52),
    (1, "v2@5", Some(4), 0x573816ea41a318c1),
    (1, "v2@5", Some(1), 0x618e174997bcdc0f),
    (2, "v1", None, 0x50d85fbba8340702),
    (2, "v1", Some(4), 0xe66638dff059a26c),
    (2, "v1", Some(1), 0x16d6f9f7adf4ff06),
    (2, "v2@64", None, 0xbbbcdb73f50bb7e0),
    (2, "v2@64", Some(4), 0x24c69b0743d93a29),
    (2, "v2@64", Some(1), 0x6c3b5f6b954775aa),
    (2, "v2@5", None, 0x0b1d45e52ff49bff),
    (2, "v2@5", Some(4), 0x24c69b0743d93a29),
    (2, "v2@5", Some(1), 0x6c3b5f6b954775aa),
    (3, "v1", None, 0x0c22421a5393d5a1),
    (3, "v1", Some(4), 0x18455779a29ed2a3),
    (3, "v1", Some(1), 0xe4905a53a2f58dc1),
    (3, "v2@64", None, 0x8fef9eacfe57b965),
    (3, "v2@64", Some(4), 0xdd3186bab5f1664b),
    (3, "v2@64", Some(1), 0x2fba28d2563b08c7),
    (3, "v2@5", None, 0x63d85a3aad4fcf93),
    (3, "v2@5", Some(4), 0xdd3186bab5f1664b),
    (3, "v2@5", Some(1), 0x2fba28d2563b08c7),
];

/// FNV-1a-64 over the stream's bit length, frame count and bytes.
fn digest(stream: &EncodedStream) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let header = [stream.bit_len, stream.frames as u64];
    for b in header
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .chain(stream.bytes.iter().copied())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn encode_events_bytes_are_pinned() {
    let model = SocModel::t2();
    let scenarios = [
        UsageScenario::scenario1(),
        UsageScenario::scenario2(),
        UsageScenario::scenario3(),
    ];
    let dialects: [(&str, &dyn FrameProfile); 3] = [
        ("v1", &ProfileV1),
        ("v2@64", &ProfileV2 { sync_every: 64 }),
        ("v2@5", &ProfileV2 { sync_every: 5 }),
    ];
    let buffer = TraceBufferSpec::new(32).expect("nonzero");
    let mut got = Vec::new();
    for (n, scenario) in scenarios.iter().enumerate() {
        let selection = Selector::new(
            &scenario.interleaving(&model).expect("interleaves"),
            SelectionConfig::new(buffer),
        )
        .select()
        .expect("selection succeeds");
        let out = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(7)).run();
        for (name, profile) in dialects {
            for depth in [None, Some(4), Some(1)] {
                let config = TraceBufferConfig::from_selection(&selection, depth);
                let schema = wirecap::wire_schema(&model, &config, buffer.width_bits())
                    .expect("schema fits buffer");
                let stream =
                    wirecap::encode_events(model.catalog(), &schema, &out.events, &config, profile)
                        .expect("encodes");
                got.push((n + 1, name, depth, digest(&stream)));
            }
        }
    }
    for (got, want) in got.iter().zip(GOLDENS) {
        assert_eq!(*got, want, "encoder bytes drifted (digest {:#018x})", got.3);
    }
    assert_eq!(got.len(), GOLDENS.len());
}
