//! Execution logs and per-instance sequence extraction.
//!
//! Mining starts from *decoded executions*: ordered streams of indexed
//! messages as reconstructed by the wire decoder (or modeled by the trace
//! buffer). Because every record carries its flow-instance index
//! (Definition 4's tagging), splitting one execution into the message
//! sequences of its individual flow instances is a grouping, not an
//! inference problem — exactly the property the paper's wire format
//! preserves end to end.

use pstrace_flow::{FlowIndex, IndexedMessage, MessageId};
use pstrace_wire::WireRecord;

/// One record of an execution log: when an indexed message was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    /// Cycle of the observation.
    pub time: u64,
    /// The indexed message.
    pub message: IndexedMessage,
}

/// One decoded execution: the observed records in stream order.
///
/// Damaged frames never make it here — the decoder drops them — so an
/// execution log is always well-formed, merely (possibly) incomplete.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionLog {
    /// The records, in observation order.
    pub records: Vec<LogRecord>,
}

impl ExecutionLog {
    /// Builds a log from captured records (a modeled capture's
    /// [`records`](pstrace_soc::CapturedTrace::records) or a decode
    /// report's), keeping each record's time and indexed message.
    #[must_use]
    pub fn from_records(records: &[WireRecord]) -> Self {
        ExecutionLog {
            records: records
                .iter()
                .map(|r| LogRecord {
                    time: r.time,
                    message: r.message,
                })
                .collect(),
        }
    }

    /// Keeps only records whose message is in `messages` (in any order),
    /// dropping everything else: how a flight-recorder dump — which
    /// journals shed/damage/degradation beside the session lifecycle —
    /// is narrowed to the lifecycle vocabulary before mining.
    #[must_use]
    pub fn retain_messages(mut self, messages: &[MessageId]) -> Self {
        self.records
            .retain(|r| messages.contains(&r.message.message));
        self
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Splits the log into per-instance message sequences, ordered by
    /// instance index. Record order within an instance is preserved.
    #[must_use]
    pub fn instance_sequences(&self) -> Vec<InstanceSequence> {
        let mut out: Vec<InstanceSequence> = Vec::new();
        for r in &self.records {
            let idx = r.message.index;
            match out.iter_mut().find(|s| s.index == idx) {
                Some(seq) => {
                    seq.messages.push(r.message.message);
                    seq.times.push(r.time);
                }
                None => out.push(InstanceSequence {
                    index: idx,
                    messages: vec![r.message.message],
                    times: vec![r.time],
                }),
            }
        }
        out.sort_by_key(|s| s.index);
        out
    }
}

/// The message sequence of one flow instance within one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceSequence {
    /// The instance's flow index.
    pub index: FlowIndex,
    /// Messages in observation order.
    pub messages: Vec<MessageId>,
    /// Observation cycle of each message (parallel to `messages`).
    pub times: Vec<u64>,
}

impl InstanceSequence {
    /// The initiating message (`None` for an empty sequence).
    #[must_use]
    pub fn initiator(&self) -> Option<MessageId> {
        self.messages.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn im(m: u32, i: u32) -> IndexedMessage {
        IndexedMessage::new(test_mid(m), FlowIndex(i))
    }

    fn test_mid(n: u32) -> MessageId {
        // MessageIds can only be minted through a catalog; intern enough
        // placeholders and pick the nth.
        let mut c = pstrace_flow::MessageCatalog::new();
        let mut last = None;
        for k in 0..=n {
            last = Some(c.intern(&format!("m{k}"), 1));
        }
        last.unwrap()
    }

    #[test]
    fn splits_by_instance_preserving_order() {
        let log = ExecutionLog {
            records: vec![
                LogRecord {
                    time: 1,
                    message: im(0, 2),
                },
                LogRecord {
                    time: 2,
                    message: im(1, 1),
                },
                LogRecord {
                    time: 3,
                    message: im(2, 2),
                },
            ],
        };
        let seqs = log.instance_sequences();
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].index, FlowIndex(1));
        assert_eq!(seqs[0].messages, vec![test_mid(1)]);
        assert_eq!(seqs[1].index, FlowIndex(2));
        assert_eq!(seqs[1].messages, vec![test_mid(0), test_mid(2)]);
        assert_eq!(seqs[1].times, vec![1, 3]);
        assert_eq!(seqs[1].initiator(), Some(test_mid(0)));
    }

    #[test]
    fn empty_log_yields_no_sequences() {
        let log = ExecutionLog::default();
        assert!(log.is_empty());
        assert!(log.instance_sequences().is_empty());
    }
}
