//! Messages, message catalogs and message subgroups.
//!
//! In the paper's formalization a *message* is a pair `⟨C, w⟩` where `C` is
//! the content carried over an IP interface and `w` is the number of bits
//! required to represent it (§2, Conventions). Trace-buffer budgeting only
//! needs the name and the bit width, so that is what the catalog stores.
//! Subgroups model named bit-slices of a wider message (e.g. the 6-bit
//! `cputhreadid` field of the 20-bit `dmusiidata` message, §3.3), which the
//! packing step uses to fill leftover trace-buffer width.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a message within a [`MessageCatalog`].
///
/// Message ids are dense indices; they are only meaningful relative to the
/// catalog that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub(crate) u32);

impl MessageId {
    /// Returns the dense index of this message.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Identifier of a message subgroup within a [`MessageCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub(crate) u32);

impl GroupId {
    /// Returns the dense index of this subgroup.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A message definition: a name plus the bit width needed to trace it.
///
/// For multi-cycle messages the paper counts the number of bits traceable in
/// a single cycle as the width (§3.1, footnote 2); store that number here.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Message {
    name: String,
    width: u32,
}

impl Message {
    /// Name of the message as it appears in the flow specification.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bit width `w` of the message (`width(m)` / `|m|` in the paper).
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }
}

/// A named bit-slice of a parent message, used by trace-buffer packing.
///
/// Example: `dmusiidata` is 20 bits wide; its `cputhreadid` subgroup is
/// 6 bits wide and can be traced alone when the full message does not fit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MessageGroup {
    name: String,
    parent: MessageId,
    width: u32,
}

impl MessageGroup {
    /// Name of the subgroup (without the parent prefix).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The message this subgroup slices.
    #[must_use]
    pub fn parent(&self) -> MessageId {
        self.parent
    }

    /// Bit width of the subgroup.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }
}

/// Interning table for messages and their subgroups.
///
/// All flows participating in one usage scenario must be built against the
/// same catalog so that message identities (and therefore indexed messages
/// in the interleaved flow) are unambiguous.
///
/// # Examples
///
/// ```
/// use pstrace_flow::MessageCatalog;
///
/// let mut catalog = MessageCatalog::new();
/// let req = catalog.intern("ReqE", 1);
/// assert_eq!(catalog.name(req), "ReqE");
/// assert_eq!(catalog.width(req), 1);
/// assert_eq!(catalog.intern("ReqE", 1), req); // idempotent
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageCatalog {
    messages: Vec<Message>,
    by_name: HashMap<String, MessageId>,
    groups: Vec<MessageGroup>,
    groups_by_name: HashMap<String, GroupId>,
}

impl MessageCatalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a message, returning its id. Re-interning an existing name
    /// returns the existing id and keeps the original width.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already interned with a *different* width — two
    /// widths for one message is always a specification bug.
    pub fn intern(&mut self, name: &str, width: u32) -> MessageId {
        if let Some(&id) = self.by_name.get(name) {
            assert_eq!(
                self.messages[id.index()].width,
                width,
                "message `{name}` re-interned with a different width"
            );
            return id;
        }
        let id = MessageId(u32::try_from(self.messages.len()).expect("catalog overflow"));
        self.messages.push(Message {
            name: name.to_owned(),
            width,
        });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Declares a subgroup (named bit-slice) of an existing message.
    ///
    /// The subgroup's qualified name is `parent.name` (e.g.
    /// `dmusiidata.cputhreadid`).
    ///
    /// # Panics
    ///
    /// Panics if the subgroup is wider than its parent, if `parent` is not a
    /// message of this catalog, or if the qualified name is already taken.
    pub fn intern_group(&mut self, parent: MessageId, name: &str, width: u32) -> GroupId {
        let parent_msg = &self.messages[parent.index()];
        assert!(
            width < parent_msg.width,
            "subgroup `{name}` ({width} bits) must be narrower than its parent `{}` ({} bits)",
            parent_msg.name,
            parent_msg.width
        );
        let qualified = format!("{}.{name}", parent_msg.name);
        assert!(
            !self.groups_by_name.contains_key(&qualified),
            "subgroup `{qualified}` declared twice"
        );
        let id = GroupId(u32::try_from(self.groups.len()).expect("catalog overflow"));
        self.groups.push(MessageGroup {
            name: name.to_owned(),
            parent,
            width,
        });
        self.groups_by_name.insert(qualified, id);
        id
    }

    /// Looks up a message id by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<MessageId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a subgroup id by qualified name (`parent.group`).
    #[must_use]
    pub fn get_group(&self, qualified_name: &str) -> Option<GroupId> {
        self.groups_by_name.get(qualified_name).copied()
    }

    /// Returns the message definition for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this catalog.
    #[must_use]
    pub fn message(&self, id: MessageId) -> &Message {
        &self.messages[id.index()]
    }

    /// Returns the subgroup definition for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this catalog.
    #[must_use]
    pub fn group(&self, id: GroupId) -> &MessageGroup {
        &self.groups[id.index()]
    }

    /// Name of the message `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this catalog.
    #[must_use]
    pub fn name(&self, id: MessageId) -> &str {
        &self.messages[id.index()].name
    }

    /// Bit width of the message `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this catalog.
    #[must_use]
    pub fn width(&self, id: MessageId) -> u32 {
        self.messages[id.index()].width
    }

    /// Qualified name (`parent.group`) of the subgroup `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this catalog.
    #[must_use]
    pub fn group_qualified_name(&self, id: GroupId) -> String {
        let g = &self.groups[id.index()];
        format!("{}.{}", self.name(g.parent), g.name)
    }

    /// Number of interned messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the catalog holds no messages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Iterates over `(id, message)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (MessageId, &Message)> + '_ {
        self.messages
            .iter()
            .enumerate()
            .map(|(i, m)| (MessageId(i as u32), m))
    }

    /// Iterates over `(id, group)` pairs in interning order.
    pub fn iter_groups(&self) -> impl Iterator<Item = (GroupId, &MessageGroup)> + '_ {
        self.groups
            .iter()
            .enumerate()
            .map(|(i, g)| (GroupId(i as u32), g))
    }

    /// Sum of the widths of `messages` (`W(M)` of Definition 6).
    ///
    /// Duplicate ids are counted once: a message combination is a *set*.
    ///
    /// # Panics
    ///
    /// Panics if any id does not belong to this catalog.
    #[must_use]
    pub fn combination_width<I>(&self, messages: I) -> u32
    where
        I: IntoIterator<Item = MessageId>,
    {
        let mut seen = vec![false; self.messages.len()];
        let mut total = 0u32;
        for id in messages {
            if !seen[id.index()] {
                seen[id.index()] = true;
                total += self.width(id);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_lookup_round_trip() {
        let mut c = MessageCatalog::new();
        let a = c.intern("ReqE", 1);
        let b = c.intern("GntE", 1);
        assert_ne!(a, b);
        assert_eq!(c.get("ReqE"), Some(a));
        assert_eq!(c.get("missing"), None);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn intern_is_idempotent() {
        let mut c = MessageCatalog::new();
        let a = c.intern("Ack", 4);
        assert_eq!(c.intern("Ack", 4), a);
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different width")]
    fn intern_rejects_width_conflict() {
        let mut c = MessageCatalog::new();
        c.intern("Ack", 4);
        c.intern("Ack", 8);
    }

    #[test]
    fn subgroups_are_narrower_slices_of_parents() {
        let mut c = MessageCatalog::new();
        let data = c.intern("dmusiidata", 20);
        let tid = c.intern_group(data, "cputhreadid", 6);
        assert_eq!(c.group(tid).parent(), data);
        assert_eq!(c.group(tid).width(), 6);
        assert_eq!(c.group_qualified_name(tid), "dmusiidata.cputhreadid");
        assert_eq!(c.get_group("dmusiidata.cputhreadid"), Some(tid));
        assert_eq!(c.iter_groups().count(), 1);
    }

    #[test]
    #[should_panic(expected = "narrower than its parent")]
    fn subgroup_must_be_narrower() {
        let mut c = MessageCatalog::new();
        let data = c.intern("dmusiidata", 20);
        c.intern_group(data, "all", 20);
    }

    #[test]
    fn combination_width_deduplicates() {
        let mut c = MessageCatalog::new();
        let a = c.intern("a", 3);
        let b = c.intern("b", 5);
        assert_eq!(c.combination_width([a, b, a]), 8);
        assert_eq!(c.combination_width([]), 0);
    }
}
