//! Corpus generation: turn usage-scenario simulations into execution
//! logs for mining.
//!
//! Mining needs *complete* observations: a selection-filtered capture
//! (the paper's width-constrained trace buffer) deliberately drops
//! messages and can never support recovery of a full flow DAG. The
//! corpus therefore captures **all** messages of the scenario's flows
//! with a trace-buffer body wide enough for every payload, pushing each
//! capture through the real wire encode/decode path so the corpus
//! exercises the same frame machinery as production `.ptw` files.

use pstrace_soc::wirecap::{encode_events, wire_schema};
use pstrace_soc::{SimConfig, Simulator, SocModel, TraceBufferConfig, UsageScenario};
use pstrace_wire::{decode_with, ProfileV1, WireError};

use crate::miner::Miner;
use crate::seq::ExecutionLog;

/// A full-visibility trace-buffer configuration for `scenario`: all
/// scenario messages, body wide enough for the widest payload set.
#[must_use]
pub fn full_capture_config(model: &SocModel, scenario: &UsageScenario) -> TraceBufferConfig {
    TraceBufferConfig::messages_only(&scenario.messages(model))
}

/// Total payload width of the scenario's message set — wire lanes are
/// laid out side by side, so the frame body must fit their sum for every
/// message to be traced in full.
#[must_use]
pub fn full_body_width(model: &SocModel, scenario: &UsageScenario) -> u32 {
    scenario
        .messages(model)
        .iter()
        .map(|&m| model.catalog().width(m))
        .sum::<u32>()
        .max(1)
}

/// Simulates `scenario` once per seed and returns the execution logs.
///
/// Every capture is encoded into wire frames and decoded back before
/// mining — the corpus reflects exactly what a `.ptw` consumer would see
/// (including any skipped frames, returned as the second tuple element).
pub fn scenario_executions(
    model: &SocModel,
    scenario: &UsageScenario,
    seeds: &[u64],
) -> Result<(Vec<ExecutionLog>, u64), WireError> {
    let config = full_capture_config(model, scenario);
    let mut logs = Vec::with_capacity(seeds.len());
    let mut skipped = 0u64;
    for &seed in seeds {
        let outcome = Simulator::new(model, scenario.clone(), SimConfig::with_seed(seed)).run();
        let schema = wire_schema(model, &config, full_body_width(model, scenario))?;
        let stream = encode_events(
            model.catalog(),
            &schema,
            &outcome.events,
            &config,
            &ProfileV1,
        )?;
        let report = decode_with(&ProfileV1, &schema, &stream.bytes, Some(stream.bit_len));
        skipped += report.damaged.len() as u64;
        logs.push(ExecutionLog::from_records(&report.records));
    }
    Ok((logs, skipped))
}

/// Builds a miner pre-loaded with `scenario` executions for each seed.
pub fn scenario_miner(
    model: &SocModel,
    scenario: &UsageScenario,
    seeds: &[u64],
    config: crate::miner::MiningConfig,
) -> Result<Miner, WireError> {
    let (logs, _skipped) = scenario_executions(model, scenario, seeds)?;
    let mut miner = Miner::new(model.catalog().clone(), config);
    for log in logs {
        miner.push_log(log);
    }
    Ok(miner)
}

/// The default corpus seeds: enough runs for every simulator arbitration
/// branch (e.g. the coherence grant split) to appear several times.
#[must_use]
pub fn default_seeds(count: u64) -> Vec<u64> {
    (0..count).map(|i| 0xA11CE ^ (i * 7919)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::MiningConfig;

    #[test]
    fn scenario_miner_recovers_linear_pior_flow() {
        let model = SocModel::t2();
        let scenario = UsageScenario::scenario1();
        let miner = scenario_miner(
            &model,
            &scenario,
            &default_seeds(4),
            MiningConfig::default(),
        )
        .expect("miner");
        let report = miner.mine();
        assert!(
            !report.candidates.is_empty(),
            "scenario 1 must yield candidates"
        );
        assert_eq!(report.stats.skipped_frames, 0);
    }
}
