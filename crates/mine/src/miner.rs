//! The mining driver: corpus intake, clustering, assembly, validation,
//! and scoring.

use std::collections::HashMap;
use std::sync::Arc;

use pstrace_codec::decode_ptw_payload;
use pstrace_flow::{MessageCatalog, MessageId, StateId};
use pstrace_obs::{maybe_time, Registry};
use pstrace_wire::{read_ptw_any, DecodeReport, WireError};

use crate::assemble::{assemble_cluster, enumerate_paths, AssembleConfig, CandidateFlow};
use crate::seq::ExecutionLog;

/// Mining knobs.
#[derive(Debug, Clone, Copy)]
pub struct MiningConfig {
    /// Clusters backed by fewer sequences than this are dropped.
    pub min_support: u64,
    /// Distinct paths observed fewer than this many times within a
    /// cluster are dropped before assembly (noise rejection).
    pub min_path_support: u64,
    /// At most this many ranked candidates are reported.
    pub max_candidates: usize,
    /// Cap on DAG path enumeration during invariant cross-checking.
    pub max_enumerated_paths: usize,
    /// Whether to run the atomic-occupancy validation pass.
    pub validate_atomics: bool,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            min_support: 2,
            min_path_support: 1,
            max_candidates: 32,
            max_enumerated_paths: 4096,
            validate_atomics: true,
        }
    }
}

/// Occupancy evidence for one mined state under the atomic-state check.
///
/// Mining *validates* rather than *infers* atomicity: for every interior
/// state the miner computes per-instance occupancy intervals and counts
/// cross-instance overlaps within each execution. A state that was
/// occupied by two instances at once can not be atomic; a state that was
/// never observed overlapping is merely *consistent* with atomicity, so
/// mined flows conservatively declare no atomic states and report the
/// evidence instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicCheck {
    /// Mined state name.
    pub state: String,
    /// Number of occupancy intervals observed.
    pub observations: u64,
    /// Number of overlapping same-execution interval pairs.
    pub conflicts: u64,
}

/// Aggregate statistics of one mining run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MiningStats {
    /// Executions pushed into the corpus.
    pub executions: u64,
    /// Records across all executions.
    pub records: u64,
    /// Per-instance sequences extracted.
    pub sequences: u64,
    /// Damaged wire frames skipped during intake.
    pub skipped_frames: u64,
    /// Clusters formed (distinct initiating messages).
    pub clusters: u64,
    /// Clusters dropped for insufficient support.
    pub clusters_dropped: u64,
    /// Cross-instance atomic-occupancy conflicts observed.
    pub atomic_conflicts: u64,
}

/// The result of a mining run: ranked candidates plus statistics.
#[derive(Debug, Clone)]
pub struct MiningReport {
    /// Candidates, best first.
    pub candidates: Vec<CandidateFlow>,
    /// Corpus and run statistics.
    pub stats: MiningStats,
}

/// Mines candidate flow DAGs from a corpus of decoded executions.
#[derive(Debug, Clone)]
pub struct Miner {
    catalog: Arc<MessageCatalog>,
    config: MiningConfig,
    logs: Vec<ExecutionLog>,
    skipped_frames: u64,
}

impl Miner {
    /// Creates an empty miner over `catalog`'s message namespace.
    #[must_use]
    pub fn new(catalog: Arc<MessageCatalog>, config: MiningConfig) -> Self {
        Miner {
            catalog,
            config,
            logs: Vec::new(),
            skipped_frames: 0,
        }
    }

    /// The miner's configuration.
    #[must_use]
    pub fn config(&self) -> &MiningConfig {
        &self.config
    }

    /// Adds one execution log to the corpus.
    pub fn push_log(&mut self, log: ExecutionLog) {
        self.logs.push(log);
    }

    /// Adds a decoded wire capture, accounting its damaged frames.
    pub fn push_decoded(&mut self, report: &DecodeReport) {
        self.skipped_frames += report.damaged.len() as u64;
        self.push_log(ExecutionLog::from_records(&report.records));
    }

    /// Parses and decodes a `.ptw` byte stream into the corpus. Both the
    /// v1 fixed-width and v2 compressed dialects are accepted — the
    /// container's version byte routes to the right decoder.
    ///
    /// Damaged frames are skipped (and counted); only a malformed file
    /// header/schema is an error.
    pub fn push_ptw(&mut self, bytes: &[u8]) -> Result<usize, WireError> {
        let (schema, meta, stream) = read_ptw_any(&self.catalog, bytes)?;
        let report = decode_ptw_payload(&schema, meta, &stream);
        let added = report.records.len();
        self.push_decoded(&report);
        Ok(added)
    }

    /// Runs the mining pipeline and returns ranked candidates.
    #[must_use]
    pub fn mine(&self) -> MiningReport {
        self.mine_observed(None)
    }

    /// [`mine`](Miner::mine) with observability: phase spans
    /// (`mine-extract`, `mine-assemble`, `mine-validate`, `mine-score`)
    /// and `pstrace_mine_*` counters land in `obs` when provided.
    #[must_use]
    pub fn mine_observed(&self, obs: Option<&Registry>) -> MiningReport {
        let mut stats = MiningStats {
            executions: self.logs.len() as u64,
            skipped_frames: self.skipped_frames,
            ..MiningStats::default()
        };

        // Extract per-instance sequences, remembering which execution
        // each came from (atomic validation is per-execution).
        let extracted: Vec<ExtractedSeq> = maybe_time(obs, "mine-extract", || {
            let mut out = Vec::new();
            for (i, log) in self.logs.iter().enumerate() {
                stats.records += log.len() as u64;
                for seq in log.instance_sequences() {
                    out.push(ExtractedSeq {
                        execution: i,
                        messages: seq.messages,
                        times: seq.times,
                    });
                }
            }
            out
        });
        stats.sequences = extracted.len() as u64;

        // Cluster by initiating message, preserving first-seen order.
        let mut clusters: Vec<(MessageId, Vec<usize>)> = Vec::new();
        for (i, e) in extracted.iter().enumerate() {
            let Some(&first) = e.messages.first() else {
                continue;
            };
            match clusters.iter_mut().find(|(m, _)| *m == first) {
                Some((_, members)) => members.push(i),
                None => clusters.push((first, vec![i])),
            }
        }
        stats.clusters = clusters.len() as u64;

        let assemble_config = AssembleConfig {
            min_path_support: self.config.min_path_support,
            max_enumerated_paths: self.config.max_enumerated_paths,
        };
        let mut candidates: Vec<CandidateFlow> = maybe_time(obs, "mine-assemble", || {
            let mut out = Vec::new();
            for (initiator, members) in &clusters {
                if (members.len() as u64) < self.config.min_support {
                    stats.clusters_dropped += 1;
                    continue;
                }
                let seqs: Vec<&[MessageId]> = members
                    .iter()
                    .map(|&i| extracted[i].messages.as_slice())
                    .collect();
                let name = format!("mined-{}", self.catalog.name(*initiator));
                if let Some(c) = assemble_cluster(&name, &self.catalog, &seqs, &assemble_config) {
                    out.push(c);
                } else {
                    stats.clusters_dropped += 1;
                }
            }
            out
        });

        if self.config.validate_atomics {
            maybe_time(obs, "mine-validate", || {
                for cand in &mut candidates {
                    let members: Vec<&ExtractedSeq> = extracted
                        .iter()
                        .filter(|e| e.messages.first() == Some(&cand.initiator))
                        .collect();
                    cand.atomic_checks = atomic_checks(cand, &members);
                    stats.atomic_conflicts +=
                        cand.atomic_checks.iter().map(|c| c.conflicts).sum::<u64>();
                }
            });
        }

        maybe_time(obs, "mine-score", || {
            for cand in &mut candidates {
                cand.score = score(cand);
            }
            candidates.sort_by(|a, b| {
                b.score
                    .total_cmp(&a.score)
                    .then(b.support.cmp(&a.support))
                    .then(a.flow.state_count().cmp(&b.flow.state_count()))
                    .then(a.flow.name().cmp(b.flow.name()))
            });
        });
        candidates.truncate(self.config.max_candidates);

        if let Some(obs) = obs {
            obs.counter("pstrace_mine_executions_total")
                .add(stats.executions);
            obs.counter("pstrace_mine_records_total").add(stats.records);
            obs.counter("pstrace_mine_sequences_total")
                .add(stats.sequences);
            obs.counter("pstrace_mine_skipped_frames_total")
                .add(stats.skipped_frames);
            obs.counter("pstrace_mine_candidates_total")
                .add(candidates.len() as u64);
            obs.counter("pstrace_mine_clusters_dropped_total")
                .add(stats.clusters_dropped);
            obs.counter("pstrace_mine_atomic_conflicts_total")
                .add(stats.atomic_conflicts);
        }

        MiningReport { candidates, stats }
    }
}

/// Composite candidate score: acceptance × minimality, halved when the
/// DAG's enumerated language violates a mined invariant (over-merge).
fn score(cand: &CandidateFlow) -> f64 {
    let longest = enumerate_paths(&cand.flow, cand.enumerated_paths.max(1))
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    let minimality = ((longest + 1) as f64 / cand.flow.state_count() as f64).min(1.0);
    let mut s = cand.acceptance * minimality;
    if cand.invariant_violations > 0 {
        s *= 0.5;
    }
    s
}

/// Computes per-state occupancy evidence for one candidate.
///
/// An instance occupies the state reached after its `k`-th message from
/// `times[k-1]` until its next message (`times[k]`), or indefinitely for
/// its final state. Initial and stop states are skipped: the initial
/// state is occupied by every not-yet-started instance and a stop state
/// marks completion, so neither can be atomic by Definition 1.
fn atomic_checks(cand: &CandidateFlow, members: &[&ExtractedSeq]) -> Vec<AtomicCheck> {
    let flow = &cand.flow;
    // intervals[state] = (execution, start, end)
    let mut intervals: HashMap<StateId, Vec<(usize, u64, u64)>> = HashMap::new();
    for m in members {
        let Some(&start) = flow.initial_states().first() else {
            continue;
        };
        let mut cur = start;
        for (k, &msg) in m.messages.iter().enumerate() {
            let Some(edge) = flow.edges_from(cur).find(|e| e.message == msg) else {
                break; // sequence not accepted by the DAG: no evidence
            };
            cur = edge.to;
            if flow.is_stop(cur) {
                break;
            }
            let entered = m.times[k];
            let left = m.times.get(k + 1).copied().unwrap_or(u64::MAX);
            intervals
                .entry(cur)
                .or_default()
                .push((m.execution, entered, left));
        }
    }
    let mut out: Vec<AtomicCheck> = intervals
        .into_iter()
        .map(|(state, ivs)| {
            let mut conflicts = 0u64;
            for (i, &(exec_a, start_a, end_a)) in ivs.iter().enumerate() {
                for &(exec_b, start_b, end_b) in &ivs[i + 1..] {
                    if exec_a == exec_b && start_a < end_b && start_b < end_a {
                        conflicts += 1;
                    }
                }
            }
            AtomicCheck {
                state: flow.state_name(state).to_owned(),
                observations: ivs.len() as u64,
                conflicts,
            }
        })
        .collect();
    out.sort_by(|a, b| a.state.cmp(&b.state));
    out
}

/// One per-instance sequence, tagged with its source execution.
struct ExtractedSeq {
    execution: usize,
    messages: Vec<MessageId>,
    times: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::LogRecord;
    use pstrace_flow::{FlowIndex, IndexedMessage};

    fn catalog() -> (Arc<MessageCatalog>, Vec<MessageId>) {
        let mut c = MessageCatalog::new();
        let ids = ["req", "gnt", "done", "ping", "pong"]
            .iter()
            .map(|n| c.intern(n, 4))
            .collect();
        (Arc::new(c), ids)
    }

    fn log_of(records: &[(u64, MessageId, u32)]) -> ExecutionLog {
        ExecutionLog {
            records: records
                .iter()
                .map(|&(t, m, i)| LogRecord {
                    time: t,
                    message: IndexedMessage::new(m, FlowIndex(i)),
                })
                .collect(),
        }
    }

    #[test]
    fn mines_two_clusters_and_ranks_them() {
        let (cat, m) = catalog();
        let mut miner = Miner::new(cat, MiningConfig::default());
        for _ in 0..3 {
            miner.push_log(log_of(&[
                (1, m[0], 1),
                (2, m[3], 2),
                (3, m[1], 1),
                (4, m[4], 2),
                (5, m[2], 1),
            ]));
        }
        let report = miner.mine();
        assert_eq!(report.stats.executions, 3);
        assert_eq!(report.stats.records, 15);
        assert_eq!(report.stats.sequences, 6);
        assert_eq!(report.stats.clusters, 2);
        assert_eq!(report.candidates.len(), 2);
        let names: Vec<&str> = report.candidates.iter().map(|c| c.flow.name()).collect();
        assert!(names.contains(&"mined-req"));
        assert!(names.contains(&"mined-ping"));
        for c in &report.candidates {
            assert!((c.score - 1.0).abs() < 1e-12, "clean corpus scores 1.0");
        }
    }

    #[test]
    fn min_support_drops_singleton_clusters() {
        let (cat, m) = catalog();
        let mut miner = Miner::new(cat, MiningConfig::default());
        miner.push_log(log_of(&[(1, m[0], 1), (2, m[1], 1)]));
        miner.push_log(log_of(&[(1, m[0], 1), (2, m[1], 1)]));
        miner.push_log(log_of(&[(1, m[3], 1), (2, m[4], 1)]));
        let report = miner.mine();
        assert_eq!(report.candidates.len(), 1, "ping cluster under-supported");
        assert_eq!(report.stats.clusters_dropped, 1);
        assert_eq!(report.candidates[0].flow.name(), "mined-req");
    }

    #[test]
    fn atomic_conflicts_are_detected() {
        let (cat, m) = catalog();
        let mut miner = Miner::new(cat, MiningConfig::default());
        // Two interleaved req->gnt->done instances in one execution:
        // both interior states (post-req and post-gnt) are occupied by
        // both instances at once, giving one conflict in each.
        miner.push_log(log_of(&[
            (1, m[0], 1),
            (2, m[0], 2),
            (3, m[1], 1),
            (4, m[1], 2),
            (5, m[2], 1),
            (6, m[2], 2),
        ]));
        let report = miner.mine();
        assert_eq!(report.candidates.len(), 1);
        let cand = &report.candidates[0];
        assert_eq!(report.stats.atomic_conflicts, 2);
        let conflicted: Vec<&AtomicCheck> = cand
            .atomic_checks
            .iter()
            .filter(|c| c.conflicts > 0)
            .collect();
        assert_eq!(conflicted.len(), 2);
        assert!(conflicted.iter().all(|c| c.observations == 2));
        // Mined flows never claim atomicity outright.
        assert!(cand.flow.atomic_states().is_empty());
    }

    #[test]
    fn observed_mining_records_counters_and_spans() {
        let (cat, m) = catalog();
        let mut miner = Miner::new(cat, MiningConfig::default());
        miner.push_log(log_of(&[(1, m[0], 1), (2, m[1], 1), (3, m[2], 1)]));
        miner.push_log(log_of(&[(1, m[0], 1), (2, m[1], 1), (3, m[2], 1)]));
        let obs = Registry::new();
        let report = miner.mine_observed(Some(&obs));
        assert_eq!(report.candidates.len(), 1);
        assert_eq!(obs.counter("pstrace_mine_executions_total").get(), 2);
        assert_eq!(obs.counter("pstrace_mine_records_total").get(), 6);
        assert_eq!(obs.counter("pstrace_mine_sequences_total").get(), 2);
        assert_eq!(obs.counter("pstrace_mine_candidates_total").get(), 1);
        let spans: Vec<String> = obs.spans().iter().map(|s| s.name.clone()).collect();
        for phase in [
            "mine-extract",
            "mine-assemble",
            "mine-validate",
            "mine-score",
        ] {
            assert!(spans.iter().any(|s| s == phase), "missing span {phase}");
        }
    }
}
