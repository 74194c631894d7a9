//! Step 3: packing the trace buffer with message subgroups (§3.3).
//!
//! The combination selected in Step 2 may leave buffer bits unused. Packing
//! repeatedly adds the *message subgroup* (a named bit-slice of a wider
//! message, e.g. the 6-bit `cputhreadid` field of the 20-bit `dmusiidata`
//! message) that fits the leftover width and maximizes the mutual
//! information of the union, until nothing more fits. Observing a subgroup
//! reveals the occurrence of its parent message in the flow, so the union's
//! gain and coverage are computed with the parent message added.

use pstrace_flow::{GroupId, InterleavedFlow, MessageId};
use pstrace_infogain::MiCache;

use crate::buffer::TraceBufferSpec;

/// The outcome of the packing loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Packing {
    /// Packed subgroups, in packing order.
    pub groups: Vec<GroupId>,
    /// Total bits occupied after packing (base combination + groups).
    pub occupied_bits: u32,
    /// Mutual information gain of the effective message set after packing.
    pub gain: f64,
}

impl Packing {
    /// The *effective* message set: the base combination plus the parents
    /// of every packed subgroup. Coverage, localization and diagnosis all
    /// operate on this set.
    #[must_use]
    pub fn effective_messages(&self, flow: &InterleavedFlow, base: &[MessageId]) -> Vec<MessageId> {
        let catalog = flow.catalog();
        let mut messages = base.to_vec();
        for &g in &self.groups {
            let parent = catalog.group(g).parent();
            if !messages.contains(&parent) {
                messages.push(parent);
            }
        }
        messages.sort_unstable();
        messages
    }
}

/// Packs the leftover trace buffer with subgroups, greedily maximizing the
/// mutual information of the union (§3.3).
///
/// `base` is the combination chosen in Step 2 (its width must already fit
/// the buffer; any excess makes the leftover zero and packing a no-op).
/// Every union is scored with `cache`, which must have been built for
/// `flow`, so the greedy loop's repeated scorings reuse the cached
/// per-message terms instead of re-walking the interleaving's edges.
/// Subgroups whose parent is already traced — either in `base` or via an
/// earlier packed subgroup — are skipped, since they add no flow-level
/// information.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pstrace_flow::{FlowBuilder, FlowIndex, IndexedFlow, InterleavedFlow, MessageCatalog};
/// use pstrace_core::{pack, TraceBufferSpec};
/// use pstrace_infogain::MiCache;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut catalog = MessageCatalog::new();
/// catalog.intern("small", 2);
/// let wide = catalog.intern("wide", 20);
/// catalog.intern_group(wide, "field", 6);
/// let catalog = Arc::new(catalog);
/// let flow = FlowBuilder::new("f")
///     .state("a").state("b").stop_state("c")
///     .initial("a")
///     .edge("a", "small", "b")
///     .edge("b", "wide", "c")
///     .build(&catalog)?;
/// let u = InterleavedFlow::build(&[IndexedFlow::new(Arc::new(flow), FlowIndex(1))])?;
///
/// // An 8-bit buffer cannot hold `wide`, but after selecting `small`
/// // (2 bits) the 6-bit `wide.field` subgroup packs exactly.
/// let buffer = TraceBufferSpec::new(8)?;
/// let base = [catalog.get("small").unwrap()];
/// let packing = pack(&u, &base, buffer, &MiCache::new(&u));
/// assert_eq!(packing.groups.len(), 1);
/// assert_eq!(packing.occupied_bits, 8);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn pack(
    flow: &InterleavedFlow,
    base: &[MessageId],
    buffer: TraceBufferSpec,
    cache: &MiCache,
) -> Packing {
    let catalog = flow.catalog().clone();
    let base_width = catalog.combination_width(base.iter().copied());
    let mut occupied = base_width.min(buffer.width_bits());
    let mut effective: Vec<MessageId> = base.to_vec();
    effective.sort_unstable();
    effective.dedup();
    let mut groups: Vec<GroupId> = Vec::new();
    let mut gain = cache.combination_mi(&effective);

    loop {
        let leftover = buffer.leftover(occupied);
        if leftover == 0 {
            break;
        }
        let mut best: Option<(GroupId, f64, u32)> = None;
        for (gid, group) in catalog.iter_groups() {
            if group.width() > leftover {
                continue;
            }
            let parent = group.parent();
            if effective.contains(&parent) {
                continue;
            }
            // The parent must actually occur in the interleaving, otherwise
            // tracing its bits observes nothing.
            if !flow.message_alphabet().contains(&parent) {
                continue;
            }
            let mut candidate = effective.clone();
            candidate.push(parent);
            candidate.sort_unstable();
            let candidate_gain = cache.combination_mi(&candidate);
            let better = match &best {
                None => true,
                Some((bg, bgain, bwidth)) => {
                    candidate_gain > *bgain
                        || (candidate_gain == *bgain && group.width() > *bwidth)
                        || (candidate_gain == *bgain && group.width() == *bwidth && gid < *bg)
                }
            };
            if better {
                best = Some((gid, candidate_gain, group.width()));
            }
        }
        match best {
            Some((gid, new_gain, width)) => {
                groups.push(gid);
                occupied += width;
                let parent = catalog.group(gid).parent();
                effective.push(parent);
                effective.sort_unstable();
                gain = new_gain;
            }
            None => break,
        }
    }

    Packing {
        groups,
        occupied_bits: occupied,
        gain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_flow::{FlowBuilder, FlowIndex, IndexedFlow, MessageCatalog};
    use pstrace_infogain::mutual_information;
    use std::sync::Arc;

    /// A flow with one narrow message and two wide messages carrying
    /// subgroups, so packing has real choices to make.
    fn packing_fixture() -> (InterleavedFlow, Arc<MessageCatalog>) {
        let mut catalog = MessageCatalog::new();
        catalog.intern("narrow", 2);
        let wide_a = catalog.intern("wide_a", 20);
        let wide_b = catalog.intern("wide_b", 24);
        catalog.intern_group(wide_a, "field", 6);
        catalog.intern_group(wide_b, "tag", 4);
        let catalog = Arc::new(catalog);
        let flow = FlowBuilder::new("fixture")
            .state("s0")
            .state("s1")
            .state("s2")
            .stop_state("s3")
            .initial("s0")
            .edge("s0", "narrow", "s1")
            .edge("s1", "wide_a", "s2")
            .edge("s2", "wide_b", "s3")
            .build(&catalog)
            .unwrap();
        let u = InterleavedFlow::build(&[IndexedFlow::new(Arc::new(flow), FlowIndex(1))]).unwrap();
        (u, catalog)
    }

    #[test]
    fn packs_until_nothing_fits() {
        let (u, catalog) = packing_fixture();
        let buffer = TraceBufferSpec::new(12).unwrap();
        let base = [catalog.get("narrow").unwrap()];
        let p = pack(&u, &base, buffer, &MiCache::new(&u));
        // Leftover 10 bits: both the 6-bit and the 4-bit subgroup fit.
        assert_eq!(p.groups.len(), 2);
        assert_eq!(p.occupied_bits, 12);
        let effective = p.effective_messages(&u, &base);
        assert_eq!(effective.len(), 3);
    }

    #[test]
    fn packing_never_decreases_gain() {
        let (u, catalog) = packing_fixture();
        let base = [catalog.get("narrow").unwrap()];
        let base_gain = mutual_information(&u, &base);
        let buffer = TraceBufferSpec::new(12).unwrap();
        let p = pack(&u, &base, buffer, &MiCache::new(&u));
        assert!(p.gain >= base_gain);
    }

    #[test]
    fn no_leftover_means_no_packing() {
        let (u, catalog) = packing_fixture();
        let buffer = TraceBufferSpec::new(2).unwrap();
        let base = [catalog.get("narrow").unwrap()];
        let p = pack(&u, &base, buffer, &MiCache::new(&u));
        assert!(p.groups.is_empty());
        assert_eq!(p.occupied_bits, 2);
    }

    #[test]
    fn skips_groups_of_already_selected_parents() {
        let (u, catalog) = packing_fixture();
        // Select wide_a itself; its subgroup must not be packed again.
        let buffer = TraceBufferSpec::new(32).unwrap();
        let base = [
            catalog.get("narrow").unwrap(),
            catalog.get("wide_a").unwrap(),
        ];
        let p = pack(&u, &base, buffer, &MiCache::new(&u));
        let names: Vec<String> = p
            .groups
            .iter()
            .map(|&g| catalog.group_qualified_name(g))
            .collect();
        assert_eq!(names, ["wide_b.tag"]);
    }

    #[test]
    fn picks_higher_gain_group_first() {
        let (u, catalog) = packing_fixture();
        // Leftover of 6: only one group fits at a time; the 6-bit field of
        // wide_a and the 4-bit tag of wide_b both fit initially. The one
        // with higher union gain must be chosen first.
        let buffer = TraceBufferSpec::new(8).unwrap();
        let base = [catalog.get("narrow").unwrap()];
        let p = pack(&u, &base, buffer, &MiCache::new(&u));
        assert!(!p.groups.is_empty());
        // Whichever was chosen, occupied bits never exceed the buffer.
        assert!(p.occupied_bits <= 8);
    }

    #[test]
    fn empty_base_still_packs() {
        let (u, _) = packing_fixture();
        let buffer = TraceBufferSpec::new(6).unwrap();
        let p = pack(&u, &[], buffer, &MiCache::new(&u));
        // Exactly one group fits: either the 6-bit field (filling the
        // buffer) or the 4-bit tag (leaving 2 bits nothing fits into).
        assert_eq!(p.groups.len(), 1);
        assert!(p.occupied_bits <= 6);
        assert!(p.gain > 0.0);
    }
}
