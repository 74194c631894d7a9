//! Bug specifications (Table 2 / the QED bug-model classes).

use std::fmt;

use pstrace_flow::MessageId;
use pstrace_soc::Ip;

/// Functional category of a bug (Table 2, column 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BugCategory {
    /// Control-path bug: wrong command, wrong decode, lost handshake.
    Control,
    /// Data-path bug: payload corruption, wrong address generation.
    Data,
}

impl fmt::Display for BugCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BugCategory::Control => write!(f, "Control"),
            BugCategory::Data => write!(f, "Data"),
        }
    }
}

/// How a bug perturbs the message it fires on.
///
/// The kinds map onto the paper's Table 2 bug types and the QED bug model's
/// commonly occurring SoC communication bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BugKind {
    /// Payload bits flipped (data corruption): value XORed with `mask`.
    CorruptPayload {
        /// Bits to flip.
        mask: u64,
    },
    /// Wrong address generation: the payload is replaced by a deranged
    /// rehash of itself (Table 2, bug 2).
    WrongAddress,
    /// Wrong command generation by data misinterpretation (Table 2, bug 1):
    /// the command field (low bits) is replaced by a fixed wrong opcode.
    WrongCommand,
    /// Malformed request construction, e.g. a bad Unit Control Block
    /// (Table 2, bug 3): high bits are zeroed.
    MalformedRequest,
    /// Incorrect decoding of an incoming packet (Table 2, bug 4): the
    /// payload is replaced by the decode of the wrong source field.
    WrongDecode,
    /// The message is never generated (e.g. an interrupt that is never
    /// raised, §5.7): the sending flow instance hangs.
    DropMessage,
    /// The message is sent to the wrong destination IP.
    Misroute {
        /// The erroneous destination.
        to: Ip,
    },
    /// The message's channel buffer credit is never returned (a credit
    /// accounting bug). Requires the simulator's credit backpressure
    /// ([`SimConfig::channel_credits`]) to be enabled; once the channel's
    /// pool drains, senders stall — a symptom that takes many messages to
    /// manifest, like the paper's subtlest bugs.
    ///
    /// [`SimConfig::channel_credits`]: pstrace_soc::SimConfig::channel_credits
    LeakCredit,
}

/// When a bug fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BugTrigger {
    /// Fires on every matching message.
    Always,
    /// Fires only on the `n`-th (0-based) occurrence of the matching
    /// message, making the bug rare and subtle.
    OnOccurrence(u32),
}

/// A complete bug specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugSpec {
    /// Catalog id.
    pub id: u32,
    /// Hierarchical depth of the buggy block from the SoC top (Table 2,
    /// column 2).
    pub depth: u32,
    /// Control or data.
    pub category: BugCategory,
    /// The perturbation applied.
    pub kind: BugKind,
    /// The buggy IP; only messages *sourced* by it can be affected.
    pub ip: Ip,
    /// The specific message the bug corrupts at injection time.
    pub target: MessageId,
    /// Firing condition.
    pub trigger: BugTrigger,
    /// Human-readable description (Table 2, column 4 style).
    pub description: &'static str,
}

impl fmt::Display for BugSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bug {} [{} in {} @ depth {}]: {}",
            self.id, self.category, self.ip, self.depth, self.description
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_soc::SocModel;

    #[test]
    fn display_mentions_id_ip_and_category() {
        let model = SocModel::t2();
        let target = model.catalog().get("dmusiidata").unwrap();
        let bug = BugSpec {
            id: 1,
            depth: 4,
            category: BugCategory::Control,
            kind: BugKind::WrongCommand,
            ip: Ip::Dmu,
            target,
            trigger: BugTrigger::Always,
            description: "wrong command generation by data misinterpretation",
        };
        let s = bug.to_string();
        assert!(s.contains("bug 1"));
        assert!(s.contains("DMU"));
        assert!(s.contains("Control"));
    }
}
