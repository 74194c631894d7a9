//! Trace file serialization.
//!
//! The paper's flow (Figure 4) records monitored messages "into an output
//! trace file" that the debugging tools consume. This module defines that
//! file format: one record per line,
//!
//! ```text
//! # time index message value partial
//! 37 2 siincu 0x5b 0
//! ```
//!
//! — a format trivially greppable, diffable and loadable back into a
//! [`CapturedTrace`].

use std::fmt;

use pstrace_flow::{FlowIndex, IndexedMessage, MessageCatalog};
use pstrace_wire::WireRecord;

use crate::protocol::SocModel;
use crate::trace::CapturedTrace;

/// Error raised while parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceFileError {
    /// A line did not have the expected five fields.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A record references a message name missing from the model.
    UnknownMessage {
        /// 1-based line number.
        line: usize,
        /// The unknown name.
        name: String,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            TraceFileError::UnknownMessage { line, name } => {
                write!(f, "line {line}: unknown message `{name}`")
            }
        }
    }
}

impl std::error::Error for TraceFileError {}

/// Serializes a captured trace to the text format, naming messages from
/// `catalog`.
///
/// # Examples
///
/// ```
/// use pstrace_soc::{capture, tracefile, SimConfig, Simulator, SocModel, TraceBufferConfig, UsageScenario};
///
/// # fn main() -> Result<(), pstrace_soc::tracefile::TraceFileError> {
/// let model = SocModel::t2();
/// let out = Simulator::new(&model, UsageScenario::scenario1(), SimConfig::with_seed(1)).run();
/// let siincu = model.catalog().get("siincu").unwrap();
/// let trace = capture(&model, &out, &TraceBufferConfig::messages_only(&[siincu]));
///
/// let text = tracefile::write_trace(model.catalog(), &trace);
/// let back = tracefile::read_trace(&model, &text)?;
/// assert_eq!(back, trace);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn write_trace(catalog: &MessageCatalog, trace: &CapturedTrace) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("# time index message value partial\n");
    for r in trace.records() {
        let _ = writeln!(
            out,
            "{} {} {} {:#x} {}",
            r.time,
            r.message.index.0,
            catalog.name(r.message.message),
            r.value,
            u8::from(r.partial)
        );
    }
    out
}

/// Parses the text format back into a [`CapturedTrace`].
///
/// # Errors
///
/// Returns [`TraceFileError`] for malformed lines or unknown message
/// names.
pub fn read_trace(model: &SocModel, text: &str) -> Result<CapturedTrace, TraceFileError> {
    let catalog = model.catalog();
    let mut records = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 5 {
            return Err(TraceFileError::Malformed {
                line: line_no,
                reason: format!("expected 5 fields, found {}", fields.len()),
            });
        }
        let time: u64 = fields[0].parse().map_err(|_| TraceFileError::Malformed {
            line: line_no,
            reason: "time must be an integer".into(),
        })?;
        let index: u32 = fields[1].parse().map_err(|_| TraceFileError::Malformed {
            line: line_no,
            reason: "index must be an integer".into(),
        })?;
        let message = catalog
            .get(fields[2])
            .ok_or_else(|| TraceFileError::UnknownMessage {
                line: line_no,
                name: fields[2].to_owned(),
            })?;
        let value_str = fields[3]
            .strip_prefix("0x")
            .ok_or_else(|| TraceFileError::Malformed {
                line: line_no,
                reason: "value must be hexadecimal (0x…)".into(),
            })?;
        let value = u64::from_str_radix(value_str, 16).map_err(|_| TraceFileError::Malformed {
            line: line_no,
            reason: "value must be hexadecimal (0x…)".into(),
        })?;
        let partial = match fields[4] {
            "0" => false,
            "1" => true,
            _ => {
                return Err(TraceFileError::Malformed {
                    line: line_no,
                    reason: "partial must be 0 or 1".into(),
                })
            }
        };
        records.push(WireRecord {
            time,
            message: IndexedMessage::new(message, FlowIndex(index)),
            value,
            partial,
        });
    }
    Ok(CapturedTrace::from_records(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use crate::scenario::UsageScenario;
    use crate::trace::{capture, TraceBufferConfig};

    fn sample() -> (SocModel, CapturedTrace) {
        let model = SocModel::t2();
        let scenario = UsageScenario::scenario1();
        let out = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(5)).run();
        let all = scenario.messages(&model);
        let trace = capture(&model, &out, &TraceBufferConfig::messages_only(&all));
        (model, trace)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (model, trace) = sample();
        let text = write_trace(model.catalog(), &trace);
        let back = read_trace(&model, &text).unwrap();
        assert_eq!(back, trace);
        assert!(text.starts_with('#'));
        assert_eq!(text.lines().count(), trace.len() + 1);
    }

    #[test]
    fn subgroup_records_round_trip_partial_flag() {
        let model = SocModel::t2();
        let scenario = UsageScenario::scenario1();
        let out = Simulator::new(&model, scenario, SimConfig::with_seed(5)).run();
        let gid = model.catalog().get_group("dmusiidata.cputhreadid").unwrap();
        let config = TraceBufferConfig {
            messages: Vec::new(),
            groups: vec![gid],
            depth: None,
        };
        let trace = capture(&model, &out, &config);
        assert!(trace.records().iter().all(|r| r.partial));
        let text = write_trace(model.catalog(), &trace);
        assert!(text.contains(" 1\n"), "partial flag serialized");
        assert_eq!(read_trace(&model, &text).unwrap(), trace);
    }

    #[test]
    fn rejects_malformed_lines() {
        let model = SocModel::t2();
        assert!(matches!(
            read_trace(&model, "1 2 3\n").unwrap_err(),
            TraceFileError::Malformed { line: 1, .. }
        ));
        assert!(matches!(
            read_trace(&model, "x 1 siincu 0x0 0\n").unwrap_err(),
            TraceFileError::Malformed { line: 1, .. }
        ));
        assert!(matches!(
            read_trace(&model, "1 1 ghost 0x0 0\n").unwrap_err(),
            TraceFileError::UnknownMessage { line: 1, .. }
        ));
        assert!(matches!(
            read_trace(&model, "1 1 siincu 12 0\n").unwrap_err(),
            TraceFileError::Malformed { line: 1, .. }
        ));
        assert!(matches!(
            read_trace(&model, "1 1 siincu 0x0 7\n").unwrap_err(),
            TraceFileError::Malformed { line: 1, .. }
        ));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let model = SocModel::t2();
        let trace = read_trace(&model, "# header\n\n# more\n").unwrap();
        assert!(trace.is_empty());
    }
}
