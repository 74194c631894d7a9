//! Trace buffer capture: what the debugger actually sees.
//!
//! The hardware trace buffer records only the *selected* messages (full
//! messages plus any packed subgroups). Capturing a simulation's event
//! stream through a [`TraceBufferConfig`] yields the observed trace the
//! paper's debugging studies start from; everything else that happened in
//! the run is invisible — absence of a message in the captured trace is
//! itself debugging evidence (§5.7).

use pstrace_core::SelectionReport;
use pstrace_flow::{GroupId, IndexedMessage, MessageCatalog, MessageId};
use pstrace_wire::WireRecord;

use crate::engine::{MessageEvent, SimOutcome};
use crate::protocol::SocModel;
use crate::value::mask_to_width;

/// Which messages and subgroups the trace buffer is wired to record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceBufferConfig {
    /// Fully traced messages.
    pub messages: Vec<MessageId>,
    /// Packed subgroups (the parent message is recorded, truncated to the
    /// subgroup's bits).
    pub groups: Vec<GroupId>,
    /// Buffer depth in entries. Real trace buffers are circular: once
    /// full, the oldest entries are overwritten, so only the **last**
    /// `depth` selected messages survive to be read out. `None` models an
    /// unbounded buffer (streaming trace port).
    pub depth: Option<usize>,
}

impl TraceBufferConfig {
    /// Config tracing the given full messages only, unbounded depth.
    #[must_use]
    pub fn messages_only(messages: &[MessageId]) -> Self {
        TraceBufferConfig {
            messages: messages.to_vec(),
            groups: Vec::new(),
            depth: None,
        }
    }

    /// The buffer a selection wires up: its Step-2 messages traced in
    /// full plus its Step-3 packed subgroups, holding `depth` entries
    /// (`None` = unbounded). The one hand-off from message selection to
    /// the trace buffer.
    #[must_use]
    pub fn from_selection(selection: &SelectionReport, depth: Option<usize>) -> Self {
        TraceBufferConfig {
            messages: selection.chosen.messages.clone(),
            groups: selection.packed_groups.clone(),
            depth,
        }
    }

    /// Returns this config with a circular-buffer depth.
    ///
    /// # Panics
    ///
    /// Panics on `depth == 0`: a zero-entry circular buffer can never
    /// hold a record, so a config claiming that depth is a bug at the
    /// call site, not an empty trace waiting to happen. Use an explicit
    /// empty message selection to model "capture nothing".
    #[must_use]
    pub fn with_depth(mut self, depth: usize) -> Self {
        assert!(
            depth > 0,
            "circular trace-buffer depth must be at least 1 entry"
        );
        self.depth = Some(depth);
        self
    }

    /// All message ids the buffer observes (full messages plus subgroup
    /// parents), deduplicated and sorted.
    #[must_use]
    pub fn observed_messages(&self, model: &SocModel) -> Vec<MessageId> {
        let mut out = self.messages.clone();
        for &g in &self.groups {
            let parent = model.catalog().group(g).parent();
            if !out.contains(&parent) {
                out.push(parent);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The capture rule: what the buffer keeps of `rec`, if anything. A
    /// fully traced message keeps a full record and drops a partial one;
    /// otherwise the widest traced subgroup keeps the record as partial,
    /// its value masked to the subgroup's width; every other record is
    /// dropped. Simulation capture, the wire encoder and re-encoding a
    /// trace file all apply this one rule, and it is idempotent: a kept
    /// record is kept unchanged.
    #[must_use]
    pub fn admit(&self, catalog: &MessageCatalog, rec: WireRecord) -> Option<WireRecord> {
        let m = rec.message.message;
        if self.messages.contains(&m) {
            return (!rec.partial).then_some(rec);
        }
        // Widest traced subgroup of this message, if any.
        self.groups
            .iter()
            .map(|&g| catalog.group(g))
            .filter(|g| g.parent() == m)
            .max_by_key(|g| g.width())
            .map(|group| WireRecord {
                value: mask_to_width(rec.value, group.width()),
                partial: true,
                ..rec
            })
    }
}

/// The content of the trace buffer after a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapturedTrace {
    records: Vec<WireRecord>,
}

impl CapturedTrace {
    /// Builds a trace from raw records (e.g. parsed from a trace file).
    #[must_use]
    pub fn from_records(records: Vec<WireRecord>) -> Self {
        CapturedTrace { records }
    }

    /// The records in capture order.
    #[must_use]
    pub fn records(&self) -> &[WireRecord] {
        &self.records
    }

    /// The observed indexed-message sequence (input to path localization).
    #[must_use]
    pub fn message_sequence(&self) -> Vec<IndexedMessage> {
        self.records.iter().map(|r| r.message).collect()
    }

    /// Whether any record carries `message` (of any index).
    #[must_use]
    pub fn contains_message(&self, message: MessageId) -> bool {
        self.records.iter().any(|r| r.message.message == message)
    }

    /// Number of captured records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Filters a simulation's events through the trace buffer configuration.
///
/// # Examples
///
/// ```
/// use pstrace_soc::{capture, SimConfig, Simulator, SocModel, TraceBufferConfig, UsageScenario};
///
/// let model = SocModel::t2();
/// let out = Simulator::new(&model, UsageScenario::scenario1(), SimConfig::with_seed(1)).run();
/// let siincu = model.catalog().get("siincu").unwrap();
/// let config = TraceBufferConfig::messages_only(&[siincu]);
/// let trace = capture(&model, &out, &config);
/// // siincu is sent once by PIOR and once by Mon.
/// assert_eq!(trace.len(), 2);
/// ```
#[must_use]
pub fn capture(
    model: &SocModel,
    outcome: &SimOutcome,
    config: &TraceBufferConfig,
) -> CapturedTrace {
    capture_events(model, &outcome.events, config)
}

/// [`capture`] over a raw event slice: each event passes
/// [`TraceBufferConfig::admit`], then a circular buffer keeps only the
/// newest `depth` records.
///
/// # Panics
///
/// Panics when the configuration declares a zero circular depth (see
/// [`TraceBufferConfig::with_depth`]).
#[must_use]
pub fn capture_events(
    model: &SocModel,
    events: &[MessageEvent],
    config: &TraceBufferConfig,
) -> CapturedTrace {
    assert!(
        config.depth != Some(0),
        "circular trace-buffer depth must be at least 1 entry"
    );
    let mut records = admitted(model.catalog(), config, events);
    if let Some(depth) = config.depth {
        // Circular buffer: only the newest `depth` records survive.
        if records.len() > depth {
            records.drain(..records.len() - depth);
        }
    }
    CapturedTrace { records }
}

/// The records `config` admits from `events`, in event order, before
/// any circular truncation: the input both [`capture_events`] and the
/// wire encoder start from.
pub(crate) fn admitted(
    catalog: &MessageCatalog,
    config: &TraceBufferConfig,
    events: &[MessageEvent],
) -> Vec<WireRecord> {
    let full = |e: &MessageEvent| WireRecord {
        time: e.time,
        message: e.message,
        value: e.value,
        partial: false,
    };
    events
        .iter()
        .filter_map(|e| config.admit(catalog, full(e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use crate::scenario::UsageScenario;

    fn run() -> (SocModel, SimOutcome) {
        let model = SocModel::t2();
        let out =
            Simulator::new(&model, UsageScenario::scenario1(), SimConfig::with_seed(11)).run();
        (model, out)
    }

    #[test]
    fn empty_config_captures_nothing() {
        let (model, out) = run();
        let trace = capture(&model, &out, &TraceBufferConfig::default());
        assert!(trace.is_empty());
    }

    #[test]
    fn full_message_capture_preserves_value_and_order() {
        let (model, out) = run();
        let reqtot = model.catalog().get("reqtot").unwrap();
        let trace = capture(&model, &out, &TraceBufferConfig::messages_only(&[reqtot]));
        assert_eq!(trace.len(), 1);
        let rec = trace.records()[0];
        assert!(!rec.partial);
        let original = out
            .events
            .iter()
            .find(|e| e.message.message == reqtot)
            .unwrap();
        assert_eq!(rec.value, original.value);
        assert_eq!(rec.time, original.time);
    }

    #[test]
    fn subgroup_capture_truncates() {
        let (model, out) = run();
        let catalog = model.catalog();
        let gid = catalog.get_group("dmusiidata.cputhreadid").unwrap();
        let config = TraceBufferConfig {
            messages: Vec::new(),
            groups: vec![gid],
            depth: None,
        };
        let trace = capture(&model, &out, &config);
        assert_eq!(trace.len(), 1, "one dmusiidata in scenario 1");
        let rec = trace.records()[0];
        assert!(rec.partial);
        assert!(rec.value < (1 << 6), "truncated to 6 bits");
        let full = out
            .events
            .iter()
            .find(|e| e.message.message == catalog.get("dmusiidata").unwrap())
            .unwrap();
        assert_eq!(rec.value, full.value & 0x3f);
    }

    #[test]
    fn admit_is_the_capture_rule_for_full_and_partial_records() {
        let model = SocModel::t2();
        let c = model.catalog();
        let (siincu, dmu) = (c.get("siincu").unwrap(), c.get("dmusiidata").unwrap());
        let grant = c.get("grant").unwrap();
        let config = TraceBufferConfig {
            messages: vec![siincu],
            groups: vec![
                c.get_group("dmusiidata.mondoid").unwrap(),
                c.get_group("dmusiidata.cputhreadid").unwrap(),
            ],
            depth: None,
        };
        let rec = |m, partial, value| WireRecord {
            time: 9,
            message: IndexedMessage::new(m, pstrace_flow::FlowIndex(1)),
            value,
            partial,
        };
        let (full, part) = (rec(siincu, false, 7), rec(siincu, true, 7));
        assert_eq!(config.admit(c, full), Some(full));
        assert_eq!(config.admit(c, part), None);
        assert_eq!(config.admit(c, rec(grant, false, 7)), None);
        // Else the widest subgroup (mondoid, 8 bits) wins, full or partial.
        let kept = Some(rec(dmu, true, 0xff));
        assert_eq!(config.admit(c, rec(dmu, false, 0xfff)), kept);
        assert_eq!(config.admit(c, rec(dmu, true, 0xfff)), kept);
    }

    #[test]
    fn full_message_beats_subgroup_of_same_parent() {
        let (model, out) = run();
        let catalog = model.catalog();
        let d = catalog.get("dmusiidata").unwrap();
        let gid = catalog.get_group("dmusiidata.cputhreadid").unwrap();
        let config = TraceBufferConfig {
            messages: vec![d],
            groups: vec![gid],
            depth: None,
        };
        let trace = capture(&model, &out, &config);
        assert_eq!(trace.len(), 1);
        assert!(!trace.records()[0].partial);
    }

    #[test]
    fn observed_messages_includes_group_parents() {
        let model = SocModel::t2();
        let catalog = model.catalog();
        let siincu = catalog.get("siincu").unwrap();
        let gid = catalog.get_group("dmusiidata.mondoid").unwrap();
        let config = TraceBufferConfig {
            messages: vec![siincu],
            groups: vec![gid],
            depth: None,
        };
        let observed = config.observed_messages(&model);
        assert!(observed.contains(&siincu));
        assert!(observed.contains(&catalog.get("dmusiidata").unwrap()));
        assert_eq!(observed.len(), 2);
    }

    #[test]
    fn circular_depth_keeps_the_newest_records() {
        let (model, out) = run();
        let all = UsageScenario::scenario1().messages(&model);
        let unbounded = capture(&model, &out, &TraceBufferConfig::messages_only(&all));
        let depth = 5;
        let wrapped = capture(
            &model,
            &out,
            &TraceBufferConfig::messages_only(&all).with_depth(depth),
        );
        assert_eq!(wrapped.len(), depth);
        assert_eq!(
            wrapped.records(),
            &unbounded.records()[unbounded.len() - depth..],
            "the survivors are exactly the newest records"
        );
        // A depth larger than the trace changes nothing.
        let roomy = capture(
            &model,
            &out,
            &TraceBufferConfig::messages_only(&all).with_depth(1000),
        );
        assert_eq!(roomy, unbounded);
    }

    #[test]
    #[should_panic(expected = "at least 1 entry")]
    fn zero_depth_is_rejected_at_config_time() {
        let _ = TraceBufferConfig::default().with_depth(0);
    }

    #[test]
    #[should_panic(expected = "at least 1 entry")]
    fn zero_depth_is_rejected_at_capture_time() {
        // A config built literally (bypassing `with_depth`) still fails
        // loudly at the capture boundary instead of capturing nothing.
        let (model, out) = run();
        let config = TraceBufferConfig {
            messages: Vec::new(),
            groups: Vec::new(),
            depth: Some(0),
        };
        let _ = capture(&model, &out, &config);
    }

    #[test]
    fn depth_one_is_the_smallest_legal_buffer() {
        let (model, out) = run();
        let all = UsageScenario::scenario1().messages(&model);
        let trace = capture(
            &model,
            &out,
            &TraceBufferConfig::messages_only(&all).with_depth(1),
        );
        assert_eq!(trace.len(), 1, "exactly the newest record survives");
        let unbounded = capture(&model, &out, &TraceBufferConfig::messages_only(&all));
        assert_eq!(trace.records()[0], *unbounded.records().last().unwrap());
    }

    #[test]
    fn sequence_projection_matches_events() {
        let (model, out) = run();
        let catalog = model.catalog();
        let msgs = [
            catalog.get("siincu").unwrap(),
            catalog.get("piowcrd").unwrap(),
        ];
        let trace = capture(&model, &out, &TraceBufferConfig::messages_only(&msgs));
        let expected: Vec<IndexedMessage> = out
            .events
            .iter()
            .filter(|e| msgs.contains(&e.message.message))
            .map(|e| e.message)
            .collect();
        assert_eq!(trace.message_sequence(), expected);
        assert!(trace.contains_message(msgs[0]));
        assert!(!trace.contains_message(catalog.get("grant").unwrap()));
    }
}
