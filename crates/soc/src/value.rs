//! Deterministic message payload generation.
//!
//! Golden-vs-buggy differencing (the paper's Table 5 *bug coverage* metric)
//! needs message payloads that are reproducible across runs: the same
//! `(seed, message, instance, occurrence)` always carries the same value,
//! so any difference between a golden and a buggy run is attributable to
//! the injected bug.

use pstrace_flow::IndexedMessage;

// The workspace's one SplitMix64 mixer; perfbench's fixture names it
// under this path.
pub use pstrace_rng::splitmix64;

/// The deterministic payload carried by the `occurrence`-th emission of
/// `message` in a run seeded with `seed`, truncated to `width` bits.
#[must_use]
pub fn payload(seed: u64, message: IndexedMessage, occurrence: u32, width: u32) -> u64 {
    let mixed = splitmix64(
        seed ^ ((message.message.index() as u64) << 40)
            ^ (u64::from(message.index.0) << 24)
            ^ u64::from(occurrence),
    );
    mask_to_width(mixed, width)
}

/// Truncates `value` to its low `width` bits (`width ≥ 64` keeps all bits).
#[must_use]
pub fn mask_to_width(value: u64, width: u32) -> u64 {
    if width >= 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_flow::{FlowIndex, MessageCatalog};

    fn im(catalog: &MessageCatalog, name: &str, idx: u32) -> IndexedMessage {
        IndexedMessage::new(catalog.get(name).unwrap(), FlowIndex(idx))
    }

    #[test]
    fn payload_is_deterministic() {
        let mut c = MessageCatalog::new();
        c.intern("m", 12);
        let a = payload(42, im(&c, "m", 1), 0, 12);
        let b = payload(42, im(&c, "m", 1), 0, 12);
        assert_eq!(a, b);
    }

    #[test]
    fn payload_varies_with_every_coordinate() {
        let mut c = MessageCatalog::new();
        c.intern("m", 32);
        c.intern("n", 32);
        let base = payload(42, im(&c, "m", 1), 0, 32);
        assert_ne!(base, payload(43, im(&c, "m", 1), 0, 32), "seed");
        assert_ne!(base, payload(42, im(&c, "n", 1), 0, 32), "message");
        assert_ne!(base, payload(42, im(&c, "m", 2), 0, 32), "index");
        assert_ne!(base, payload(42, im(&c, "m", 1), 1, 32), "occurrence");
    }

    #[test]
    fn payload_respects_width() {
        let mut c = MessageCatalog::new();
        c.intern("m", 6);
        for occ in 0..100 {
            assert!(payload(7, im(&c, "m", 1), occ, 6) < 64);
        }
    }

    #[test]
    fn mask_handles_full_width() {
        assert_eq!(mask_to_width(u64::MAX, 64), u64::MAX);
        assert_eq!(mask_to_width(u64::MAX, 65), u64::MAX);
        assert_eq!(mask_to_width(0b1111, 2), 0b11);
    }

    #[test]
    fn splitmix_is_not_identity() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
